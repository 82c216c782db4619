//! Machine-readable benchmark: it measures, and leaves every
//! correctness certificate to the test suite. The region part times the
//! dense sweep and the frontier tracer on a 17×17 grid with 8 active
//! background connections (asserting the two maps are bit-identical);
//! the rest times the admission service: a `scheduler_compare` section
//! re-running a fixed-seed churn workload under FIFO/IWRR/DRR
//! (admission probability and latency per discipline), a
//! `decision_latency` section (warm single-decision latency), an `obs`
//! section measuring the decision-tracing layer's cost with tracing
//! disabled and enabled, an `obs_sharded` section doing the same for
//! the sharded engine's observability stack, a `shard_scale` section
//! running the sharded engine at scale against the sequential one, and
//! an `autotune` section sweeping TTRT×β against seeded offered loads.
//! Everything lands in one JSON file.
//!
//! ```text
//! cargo run --release -p hetnet-bench --bin bench_json            # full run -> BENCH_region.json
//! cargo run --release -p hetnet-bench --bin bench_json -- \
//!     --quick --out target/BENCH_region.quick.json                # CI smoke run
//! ```

use hetnet_bench::retune::{campaign, campaign_json};
use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::delay::PathInput;
use hetnet_cac::incremental::FastPathStats;
use hetnet_cac::network::{HetNetwork, HostId, Scheduler};
use hetnet_cac::region::{sample_region, sample_region_seq, RegionSample};
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_obs::GeometricHistogram;
use hetnet_service::{
    entries_equivalent, run as run_service, run_sharded, sharded_runs_equivalent, ObsOptions,
    ServiceConfig, ShardedEngine,
};
use hetnet_sim::autotune::SweepGrid;
use hetnet_sim::churn::{ChurnConfig, TopologyShape, TrafficPattern};
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::sync::Arc;
use std::time::Instant;

fn envelope(c1_mbit: f64, bursts: usize) -> SharedEnvelope {
    Arc::new(
        DualPeriodicEnvelope::new(
            Bits::from_mbits(c1_mbit),
            Seconds::from_millis(100.0),
            Bits::from_mbits(c1_mbit / bursts as f64),
            Seconds::from_millis(100.0 / bursts as f64),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid"),
    )
}

fn background(k: usize) -> PathInput {
    let h = SyncBandwidth::new(Seconds::from_millis(2.2));
    PathInput {
        source: HostId {
            ring: k % 3,
            station: k % 4,
        },
        dest: HostId {
            ring: (k + 1) % 3,
            station: (k + 2) % 4,
        },
        envelope: envelope(0.9 + 0.1 * k as f64, 5),
        h_s: h,
        h_r: h,
        class: 0,
    }
}

/// One timed configuration: best-of-`reps` wall clock plus a single
/// representative run (its cache statistics and evaluation count).
struct Measured {
    seconds: f64,
    cells_per_sec: f64,
    sample: RegionSample,
}

fn measure(run: impl Fn() -> RegionSample, grid: usize, reps: usize) -> Measured {
    let mut best = f64::INFINITY;
    let mut sample = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let s = run();
        best = best.min(start.elapsed().as_secs_f64());
        sample = Some(s);
    }
    let sample = sample.expect("at least one rep");
    Measured {
        seconds: best,
        cells_per_sec: (grid * grid) as f64 / best,
        sample,
    }
}

fn json_measured(m: &Measured, grid: usize) -> String {
    format!(
        concat!(
            "{{\"seconds\": {:.6}, \"cells_per_sec\": {:.2}, ",
            "\"evals\": {}, \"evals_per_cell\": {:.4}, ",
            "\"stage1_hits\": {}, \"stage1_misses\": {}, \"stage1_hit_rate\": {:.4}, ",
            "\"mux_hits\": {}, \"mux_misses\": {}, \"mux_hit_rate\": {:.4}}}"
        ),
        m.seconds,
        m.cells_per_sec,
        m.sample.evals,
        m.sample.evals as f64 / (grid * grid) as f64,
        m.sample.stats.stage1_hits,
        m.sample.stats.stage1_misses,
        m.sample.stats.stage1_hit_rate(),
        m.sample.stats.mux_hits,
        m.sample.stats.mux_misses,
        m.sample.stats.mux_hit_rate(),
    )
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_region.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (expected --quick / --out <path>)"),
        }
    }

    let net = HetNetwork::paper_topology();
    let cfg = CacConfig::fast();
    let spec = ConnectionSpec {
        source: HostId {
            ring: 0,
            station: 0,
        },
        dest: HostId {
            ring: 1,
            station: 0,
        },
        envelope: envelope(1.8, 6),
        deadline: Seconds::from_millis(80.0),
        class: 0,
    };
    let active: Vec<PathInput> = (0..8).map(background).collect();
    let avail = Seconds::from_millis(7.2);
    let (grid, reps) = if quick { (9, 1) } else { (17, 3) };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    eprintln!("region sweep: grid {grid}x{grid}, {} active", active.len());
    let seq = measure(
        || {
            sample_region_seq(&net, &active, &spec, avail, avail, grid, &cfg)
                .expect("well-formed request")
        },
        grid,
        reps,
    );
    eprintln!(
        "  dense:    {:.3} s ({:.1} cells/s, {} evals)",
        seq.seconds, seq.cells_per_sec, seq.sample.evals
    );
    let fro = measure(
        || {
            sample_region(&net, &active, &spec, avail, avail, grid, &cfg)
                .expect("well-formed request")
        },
        grid,
        reps,
    );
    eprintln!(
        "  frontier: {:.3} s ({:.1} cells/s, {} evals, fell_back: {})",
        fro.seconds, fro.cells_per_sec, fro.sample.evals, fro.sample.fell_back
    );

    let identical = seq.sample.map.cells() == fro.sample.map.cells();
    assert!(identical, "frontier map diverged from the dense sweep");
    let frontier_speedup = seq.seconds / fro.seconds;
    let eval_reduction = seq.sample.evals as f64 / fro.sample.evals.max(1) as f64;
    eprintln!(
        "  frontier speedup: {frontier_speedup:.2}x ({eval_reduction:.1}x fewer evals), \
         maps identical: {identical}"
    );

    // The fixed-seed churn workload of the scheduler comparison: a
    // seeded Poisson connect/disconnect stream on the paper topology.
    // 0.1 req/s against ~100 s mean holding offers ~10 concurrent
    // connections to a network that fits ~4: enough pressure for a
    // meaningful admission probability, enough departures for real
    // connect/disconnect churn.
    let churn_requests = if quick { 80 } else { 400 };

    // Scheduler comparison campaign: the identical fixed-seed churn
    // workload run under each backbone discipline. FIFO is the baseline;
    // the weighted disciplines trade FIFO's aggregate coupling for a
    // per-class rate share plus a round-robin latency term, which can
    // move admission probability in either direction depending on the
    // class mix.
    let sched_arms: [(&str, Scheduler, u8); 3] = [
        ("fifo", Scheduler::Fifo, 1),
        (
            "iwrr",
            Scheduler::Iwrr {
                weights: vec![2, 1],
            },
            2,
        ),
        ("drr", Scheduler::Drr { quanta: vec![3, 2] }, 2),
    ];
    eprintln!("scheduler compare: {churn_requests} requests at 0.1/s (seed 42) per discipline");
    let mut sched_jsons = Vec::new();
    for (name, scheduler, classes) in sched_arms {
        let mut arm_cfg = ServiceConfig::paper_style(0.1, churn_requests, 42);
        arm_cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        let arm_cfg = arm_cfg.with_scheduler(scheduler.clone(), classes);
        let arm = run_service(HetNetwork::paper_topology(), &arm_cfg)
            .expect("scheduler arm run is well-formed")
            .report;
        let p99_us = arm.latency.p99.value() * 1e6;
        let admission_probability = arm.counters.admitted as f64 / arm.requests as f64;
        eprintln!(
            "  {name:>4}: admission probability {admission_probability:.3} \
             ({} admitted / {} rejected), p99 {p99_us:.1} us",
            arm.counters.admitted,
            arm.counters.rejected(),
        );
        sched_jsons.push(format!(
            concat!(
                "\"{}\": {{\"scheduler\": \"{}\", \"classes\": {}, \"requests\": {}, ",
                "\"admitted\": {}, \"rejected\": {}, \"admission_probability\": {:.6}, ",
                "\"p50_us\": {:.3}, \"p99_us\": {:.3}}}"
            ),
            name,
            scheduler,
            classes,
            arm.requests,
            arm.counters.admitted,
            arm.counters.rejected(),
            admission_probability,
            arm.latency.p50.value() * 1e6,
            p99_us,
        ));
    }
    let scheduler_compare_json = format!(
        "{{\"requests\": {churn_requests}, {}}}",
        sched_jsons.join(", ")
    );

    // Single-decision latency in steady state: the paper's operating
    // point is a controller answering one request at a time against a
    // loaded network, so this measures exactly that — a warm
    // admit/release cycle on a bare `NetworkState` with the persistent
    // evaluator cache and the incremental fast path on. Three
    // background connections stay admitted throughout; the candidate
    // specs are built once (the stage-1 cache is keyed by envelope
    // identity) and alternate between a feasible request and a
    // deadline-infeasible one so both fast-accept and fast-reject
    // rungs are exercised. The p99 here is the headline number the
    // bench gate holds under 1 ms.
    let lat_decisions = if quick { 300 } else { 2000 };
    let mut lat_state = NetworkState::new(HetNetwork::paper_topology());
    lat_state.persist_eval_cache(true);
    lat_state.set_fast_path(true).expect("empty state");
    let lat_opts = AdmissionOptions::beta_search(CacConfig::fast());
    for k in 0..3 {
        let bg = ConnectionSpec {
            source: HostId {
                ring: k % 3,
                station: k % 4,
            },
            dest: HostId {
                ring: (k + 1) % 3,
                station: (k + 2) % 4,
            },
            envelope: envelope(0.9 + 0.1 * k as f64, 5),
            deadline: Seconds::from_millis(100.0),
            class: 0,
        };
        assert!(
            matches!(
                lat_state.admit(bg, &lat_opts).expect("background admit"),
                Decision::Admitted { .. }
            ),
            "background connection {k} must be admissible"
        );
    }
    let admit_spec = ConnectionSpec {
        source: HostId {
            ring: 0,
            station: 1,
        },
        dest: HostId {
            ring: 1,
            station: 2,
        },
        envelope: envelope(1.2, 5),
        deadline: Seconds::from_millis(120.0),
        class: 0,
    };
    let reject_spec = ConnectionSpec {
        source: HostId {
            ring: 2,
            station: 1,
        },
        dest: HostId {
            ring: 0,
            station: 2,
        },
        envelope: envelope(1.2, 5),
        deadline: Seconds::from_millis(1.0),
        class: 0,
    };
    // Untimed warmup settles the caches and the incremental state.
    for i in 0..16 {
        let spec = if i % 4 == 3 {
            reject_spec.clone()
        } else {
            admit_spec.clone()
        };
        if let Decision::Admitted { id, .. } = lat_state.admit(spec, &lat_opts).expect("warmup") {
            lat_state.release(id).expect("warmup release");
        }
    }
    let mut lat_hist = GeometricHistogram::new();
    let mut lat_fast = FastPathStats::default();
    let mut lat_admits = 0u64;
    let mut lat_rejects = 0u64;
    for i in 0..lat_decisions {
        let spec = if i % 4 == 3 {
            reject_spec.clone()
        } else {
            admit_spec.clone()
        };
        let start = Instant::now();
        let decision = lat_state.admit(spec, &lat_opts).expect("latency admit");
        lat_hist.record(start.elapsed().as_secs_f64());
        if let Some(stats) = lat_state.last_fast_path_stats() {
            lat_fast.merge(&stats);
        }
        match decision {
            Decision::Admitted { id, .. } => {
                lat_admits += 1;
                lat_state.release(id).expect("latency release");
            }
            Decision::Rejected(_) => lat_rejects += 1,
        }
    }
    assert!(lat_admits > 0 && lat_rejects > 0, "latency mix degenerated");
    let [lat_p50, lat_p95, lat_p99] = [0.50, 0.95, 0.99].map(|q| lat_hist.quantile(q));
    eprintln!(
        "decision latency: {lat_decisions} warm decisions, p50 {:.1} us, p99 {:.1} us, \
         fast-path hit rate {:.3}",
        lat_p50 * 1e6,
        lat_p99 * 1e6,
        lat_fast.hit_rate(),
    );
    let decision_latency_json = format!(
        concat!(
            "{{\"decisions\": {}, \"admits\": {}, \"rejects\": {}, ",
            "\"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, ",
            "\"mean_us\": {:.3}, \"max_us\": {:.3}, ",
            "\"fast_accepts\": {}, \"fast_rejects\": {}, \"fallbacks\": {}, ",
            "\"fast_hit_rate\": {:.6}}}"
        ),
        lat_decisions,
        lat_admits,
        lat_rejects,
        lat_p50 * 1e6,
        lat_p95 * 1e6,
        lat_p99 * 1e6,
        lat_hist.mean() * 1e6,
        lat_hist.max() * 1e6,
        lat_fast.fast_accepts,
        lat_fast.fast_rejects,
        lat_fast.fallbacks,
        lat_fast.hit_rate(),
    );

    // Observability cost: the same fixed-seed service workload run with
    // decision tracing disabled (twice — an A/A pair that bounds the
    // measurement noise), then with tracing enabled under an installed
    // `hetnet-obs` collector. Disabled runs never build a trace and the
    // event hooks early-return, so `disabled_delta_pct` is pure timing
    // noise; `enabled_overhead_pct` is the real cost of turning the
    // layer on. Best-of-reps, with the arm order rotated every rep:
    // on throttled single-core machines each rep slows down monotonically
    // (burst-credit exhaustion), so a fixed order would systematically
    // penalize whichever arm runs last. Rotation gives every arm one run
    // in every position, and taking the min then compares like with like.
    let obs_requests = if quick { 120 } else { 200 };
    let obs_reps = if quick { 2 } else { 5 };
    let mut obs_cfg = ServiceConfig::paper_style(0.1, obs_requests, 7);
    obs_cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    obs_cfg.trace_decisions = false;
    let mut traced_cfg = obs_cfg.clone();
    traced_cfg.trace_decisions = true;
    let timed = |cfg: &ServiceConfig| {
        run_service(HetNetwork::paper_topology(), cfg)
            .expect("obs workload is well-formed")
            .report
    };
    eprintln!("obs overhead: {obs_requests} requests x {obs_reps} reps (seed 7)");
    // One untimed pass absorbs cold-start effects (page faults, branch
    // predictors, allocator growth) that would otherwise land entirely
    // on the first measured arm and masquerade as an A/A difference.
    let _ = timed(&obs_cfg);
    let mut disabled = f64::INFINITY;
    let mut disabled_repeat = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    let mut trace_records = 0u64;
    let mut traced_report = None;
    for rep in 0..obs_reps {
        for pos in 0..3 {
            match (pos + rep) % 3 {
                0 => disabled = disabled.min(timed(&obs_cfg).wall_seconds),
                1 => disabled_repeat = disabled_repeat.min(timed(&obs_cfg).wall_seconds),
                _ => {
                    let (report, trace) = hetnet_obs::collect(1 << 16, || timed(&traced_cfg));
                    enabled = enabled.min(report.wall_seconds);
                    trace_records = trace.records().len() as u64 + trace.dropped();
                    traced_report = Some(report);
                }
            }
        }
    }
    let traced_report = traced_report.expect("at least one traced rep");
    let attribution = &traced_report.delay_attribution;
    let disabled_delta_pct = (disabled_repeat - disabled) / disabled * 100.0;
    let enabled_overhead_pct = (enabled - disabled) / disabled * 100.0;
    eprintln!(
        "  disabled {disabled:.6} s (repeat delta {disabled_delta_pct:+.2}%), \
         enabled {enabled:.6} s ({enabled_overhead_pct:+.2}%), \
         {trace_records} obs records, {} decision traces",
        attribution.traced
    );
    let obs_json = format!(
        concat!(
            "{{\"workload_decisions\": {}, \"reps\": {}, ",
            "\"disabled_seconds\": {:.6}, \"disabled_repeat_seconds\": {:.6}, ",
            "\"disabled_delta_pct\": {:.3}, ",
            "\"enabled_seconds\": {:.6}, \"enabled_overhead_pct\": {:.3}, ",
            "\"trace_records\": {}, \"decision_traces\": {}, ",
            "\"admitted\": {}, \"rejected\": {}, \"rejects_with_binding\": {}}}"
        ),
        obs_requests,
        obs_reps,
        disabled,
        disabled_repeat,
        disabled_delta_pct,
        enabled,
        enabled_overhead_pct,
        trace_records,
        attribution.traced,
        traced_report.counters.admitted,
        traced_report.counters.rejected(),
        attribution.rejects_with_binding,
    );

    // Sharded observability cost: one fixed-seed shard workload run
    // with the cross-shard observability stack off (twice — an A/A
    // pair that measures the noise floor) and on (span timelines,
    // periodic telemetry, aggressive flight capture). Decision tracing
    // stays off in every arm: enabling it moves the CAC off the
    // screened evaluation path, which changes the computation being
    // measured, not the observability cost. The registry and flight
    // recorder are always live; the "on" arm adds the knobs with real
    // per-decision cost. The off and on runs must also stay decision-
    // identical — observability reads, it never decides.
    let (so_rings, so_rate, so_requests, so_reps) = if quick {
        (24usize, 30.0f64, 400usize, 1usize)
    } else {
        (64, 120.0, 4000, 2)
    };
    let so_workers = 4;
    let so_seed = 424_242;
    let mut so_cfg = ServiceConfig::paper_style(1.0, so_requests, so_seed);
    so_cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings: so_rings,
            hosts_per_ring: 3,
        },
        pattern: TrafficPattern::Paired,
        source_weights: None,
        arrival_rate: so_rate,
        mean_holding: Seconds::new(80.0),
        max_holding: Seconds::new(240.0),
        deadline: (Seconds::from_millis(300.0), Seconds::from_millis(500.0)),
        source: DualPeriodicEnvelope::new(
            Bits::from_mbits(0.002),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.0005),
            Seconds::from_millis(25.0),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid obs_sharded envelope"),
        requests: so_requests,
        seed: so_seed,
    };
    let mut so_cac = CacConfig::fast().with_beta(0.0);
    so_cac.min_frame_efficiency = 0.8;
    so_cfg.options = AdmissionOptions::beta_search(so_cac);
    so_cfg.sample_period = 64;
    so_cfg.trace_decisions = false;
    let mut so_on_cfg = so_cfg.clone();
    so_on_cfg.obs = ObsOptions {
        spans: true,
        telemetry_period: Some(Seconds::new(10.0)),
        flight_capacity: 64,
        flight_min_samples: 32,
        ..ObsOptions::default()
    };
    let timed_sharded = |cfg: &ServiceConfig| {
        let engine = ShardedEngine::new(HetNetwork::grid(so_rings, 3), cfg, so_workers)
            .expect("obs_sharded engine");
        let flight = engine.flight_recorder();
        let start = Instant::now();
        let (run, _) = engine.run().expect("obs_sharded run");
        (start.elapsed().as_secs_f64(), run, flight)
    };
    eprintln!(
        "obs sharded: {so_rings} rings, {so_requests} requests at {so_rate}/s x {so_reps} reps \
         (seed {so_seed})"
    );
    let _ = timed_sharded(&so_cfg); // untimed warmup, as for `obs`
    let mut so_off = f64::INFINITY;
    let mut so_off_repeat = f64::INFINITY;
    let mut so_on = f64::INFINITY;
    let mut so_off_run = None;
    let mut so_on_run = None;
    let mut so_outliers = 0u64;
    for rep in 0..so_reps {
        for pos in 0..3 {
            match (pos + rep) % 3 {
                0 => {
                    let (s, r, _) = timed_sharded(&so_cfg);
                    so_off = so_off.min(s);
                    so_off_run = Some(r);
                }
                1 => so_off_repeat = so_off_repeat.min(timed_sharded(&so_cfg).0),
                _ => {
                    let (s, r, flight) = timed_sharded(&so_on_cfg);
                    so_on = so_on.min(s);
                    so_outliers = flight.captured();
                    so_on_run = Some(r);
                }
            }
        }
    }
    let so_off_run = so_off_run.expect("at least one off rep");
    let so_on_run = so_on_run.expect("at least one on rep");
    let so_identical = sharded_runs_equivalent(&so_on_run, &so_off_run);
    let so_frames = so_on_run.telemetry.len();
    let so_aa_pct = (so_off_repeat - so_off) / so_off * 100.0;
    let so_overhead_pct = (so_on - so_off) / so_off * 100.0;
    eprintln!(
        "  off {so_off:.3} s (repeat delta {so_aa_pct:+.2}%), on {so_on:.3} s \
         ({so_overhead_pct:+.2}%), {so_outliers} flight outliers, {so_frames} telemetry \
         frames, decisions identical: {so_identical}"
    );
    let obs_sharded_json = format!(
        concat!(
            "{{\"rings\": {}, \"workers\": {}, \"requests\": {}, \"reps\": {}, ",
            "\"off_seconds\": {:.6}, \"off_repeat_seconds\": {:.6}, \"aa_delta_pct\": {:.3}, ",
            "\"on_seconds\": {:.6}, \"overhead_pct\": {:.3}, ",
            "\"flight_outliers\": {}, \"telemetry_frames\": {}, \"decisions_identical\": {}}}"
        ),
        so_rings,
        so_workers,
        so_requests,
        so_reps,
        so_off,
        so_off_repeat,
        so_aa_pct,
        so_on,
        so_overhead_pct,
        so_outliers,
        so_frames,
        so_identical,
    );

    // Sharded admission at scale: a seeded Poisson churn workload on a
    // grid topology far beyond the paper's three rings, run through the
    // ring-partitioned engine. Three arms over the same schedule:
    //
    //   1. the sharded engine at `ss_workers` workers (the headline
    //      throughput and peak-active numbers),
    //   2. the sharded engine at one worker — same committer, same
    //      event order — whose audit must match bit for bit
    //      (full-scale determinism certificate),
    //   3. the monolithic single-thread `ServiceEngine` on a prefix of
    //      the schedule at the same offered load, giving the equal-load
    //      throughput baseline and a true sequential-replay decision
    //      check over the prefix.
    //
    // The monolith's per-decision cost grows with the *global* active
    // set (it re-resolves every admitted connection on each decision)
    // while the sharded engine touches only the dependency closure of
    // the candidate's rings. The prefix must therefore be long enough
    // for the monolith to reach a meaningful occupancy — a few hundred
    // requests measure it against a near-empty network and say nothing
    // — yet short enough to finish: 3000 requests put it at ~1500 mean
    // active (roughly ten wall-clock minutes), still two orders of
    // magnitude below the occupancy the sharded arm sustains, so the
    // comparison if anything understates the sharded advantage.
    let (ss_rings, ss_rate, ss_requests, ss_prefix) = if quick {
        (64usize, 120.0f64, 4_000usize, 300usize)
    } else {
        (4096, 2000.0, 220_000, 3_000)
    };
    let ss_workers = 4;
    let ss_seed = 424_242;
    let mut shard_cfg = ServiceConfig::paper_style(1.0, ss_requests, ss_seed);
    shard_cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings: ss_rings,
            hosts_per_ring: 3,
        },
        pattern: TrafficPattern::Paired,
        source_weights: None,
        arrival_rate: ss_rate,
        mean_holding: Seconds::new(80.0),
        max_holding: Seconds::new(240.0),
        deadline: (Seconds::from_millis(300.0), Seconds::from_millis(500.0)),
        source: DualPeriodicEnvelope::new(
            Bits::from_mbits(0.002),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.0005),
            Seconds::from_millis(25.0),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid shard-scale envelope"),
        requests: ss_requests,
        seed: ss_seed,
    };
    let mut ss_cac = CacConfig::fast().with_beta(0.0);
    ss_cac.min_frame_efficiency = 0.8;
    shard_cfg.options = AdmissionOptions::beta_search(ss_cac);
    shard_cfg.sample_period = 64;
    // Tracing off: the screened evaluation path is the one this bench
    // claims numbers for, and every arm must run the same mode anyway
    // for the decision streams to be comparable.
    shard_cfg.trace_decisions = false;
    eprintln!(
        "shard scale: {ss_rings} rings, {ss_requests} requests at {ss_rate}/s, \
         {ss_workers} workers (seed {ss_seed})"
    );
    let start = Instant::now();
    let sharded = run_sharded(HetNetwork::grid(ss_rings, 3), &shard_cfg, ss_workers)
        .expect("sharded run is well-formed");
    let sharded_seconds = start.elapsed().as_secs_f64();
    let sharded_dps = ss_requests as f64 / sharded_seconds;
    eprintln!(
        "  sharded {ss_workers}w: {sharded_seconds:.1} s ({sharded_dps:.0} dec/s), \
         peak_active {}, {} admitted / {} rejected, conflict rate {:.4}",
        sharded.report.peak_active,
        sharded.report.counters.admitted,
        sharded.report.counters.rejected(),
        sharded.sharding.conflict_rate(),
    );
    let replay = run_sharded(HetNetwork::grid(ss_rings, 3), &shard_cfg, 1)
        .expect("single-worker replay is well-formed");
    let full_identical = sharded_runs_equivalent(&sharded, &replay);
    let mut mono_cfg = shard_cfg.clone();
    mono_cfg.churn.requests = ss_prefix;
    let start = Instant::now();
    let mono = run_service(HetNetwork::grid(ss_rings, 3), &mono_cfg)
        .expect("monolith prefix run is well-formed");
    let mono_seconds = start.elapsed().as_secs_f64();
    let mono_dps = ss_prefix as f64 / mono_seconds;
    let prefix_identical = mono.audit.len() == ss_prefix
        && sharded.audit.entries()[..ss_prefix]
            .iter()
            .zip(mono.audit.entries())
            .all(|(a, b)| entries_equivalent(a, b));
    let audits_identical = full_identical && prefix_identical;
    let shard_speedup = sharded_dps / mono_dps;
    let decisions = (sharded.sharding.speculated + sharded.sharding.inline_decisions).max(1);
    eprintln!(
        "  replay identical: {full_identical}, monolith prefix {ss_prefix}: \
         {mono_seconds:.1} s ({mono_dps:.0} dec/s, prefix identical: {prefix_identical}), \
         speedup {shard_speedup:.1}x"
    );
    let shard_scale_json = format!(
        concat!(
            "{{\"rings\": {}, \"workers\": {}, \"hw_threads\": {}, \"requests\": {}, ",
            "\"offered_rate_per_sec\": {:.1}, \"sharded_seconds\": {:.3}, ",
            "\"sharded_decisions_per_sec\": {:.2}, \"monolith_prefix\": {}, ",
            "\"monolith_seconds\": {:.3}, \"monolith_decisions_per_sec\": {:.2}, ",
            "\"speedup\": {:.3}, \"peak_active\": {}, \"admitted\": {}, \"rejected\": {}, ",
            "\"blocking_probability\": {:.6}, \"p99_us\": {:.1}, ",
            "\"speculated\": {}, \"conflicts\": {}, \"conflict_rate\": {:.6}, ",
            "\"inline_decisions\": {}, \"peak_closure\": {}, \"mean_closure\": {:.2}, ",
            "\"audits_identical\": {}}}"
        ),
        ss_rings,
        ss_workers,
        threads,
        ss_requests,
        ss_rate,
        sharded_seconds,
        sharded_dps,
        ss_prefix,
        mono_seconds,
        mono_dps,
        shard_speedup,
        sharded.report.peak_active,
        sharded.report.counters.admitted,
        sharded.report.counters.rejected(),
        sharded.report.blocking_probability,
        sharded.report.latency.p99.value() * 1e6,
        sharded.sharding.speculated,
        sharded.sharding.conflicts,
        sharded.sharding.conflict_rate(),
        sharded.sharding.inline_decisions,
        sharded.sharding.peak_closure,
        sharded.sharding.closure_sum as f64 / decisions as f64,
        audits_identical,
    );

    // TTRT/β autotune: the in-bench slice of the campaign the
    // standalone `autotune` binary runs at full size. Two offered
    // loads straddling the knee, each swept over a TTRT×β grid that
    // contains the frozen 8 ms default; the gate requires the sweep to
    // find a non-default TTRT beating the default's admission
    // probability on at least one load.
    let (at_grid, at_requests) = if quick {
        (
            SweepGrid {
                ttrts_ms: vec![6.0, 8.0, 12.0],
                betas: vec![0.25, 0.5, 0.75],
            },
            60,
        )
    } else {
        (
            SweepGrid {
                ttrts_ms: vec![6.0, 8.0, 10.0, 12.0],
                betas: vec![0.25, 0.5, 0.75],
            },
            150,
        )
    };
    let at_loads = [0.1, 0.3];
    eprintln!(
        "autotune: {} loads x {} grid points, {at_requests} requests each (seed 42)",
        at_loads.len(),
        at_grid.len(),
    );
    let at_sweeps = campaign(&at_loads, &at_grid, at_requests, 42);
    let loads_beating_default = at_sweeps
        .iter()
        .filter(|ls| ls.retuned_gain() > 0.0)
        .count();
    let autotune_json = format!(
        "{{\"loads_beating_default\": {}, \"campaign\": {}}}",
        loads_beating_default,
        campaign_json(&at_grid, &at_sweeps, at_requests, 42),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"region_sweep\",\n",
            "  \"grid\": {},\n",
            "  \"active_connections\": {},\n",
            "  \"reps\": {},\n",
            "  \"sequential\": {},\n",
            "  \"frontier\": {},\n",
            "  \"frontier_speedup\": {:.3},\n",
            "  \"dense_evals\": {},\n",
            "  \"frontier_evals\": {},\n",
            "  \"frontier_fell_back\": {},\n",
            "  \"maps_identical\": {},\n",
            "  \"scheduler_compare\": {},\n",
            "  \"decision_latency\": {},\n",
            "  \"obs\": {},\n",
            "  \"obs_sharded\": {},\n",
            "  \"shard_scale\": {},\n",
            "  \"autotune\": {}\n",
            "}}\n"
        ),
        grid,
        active.len(),
        reps,
        json_measured(&seq, grid),
        json_measured(&fro, grid),
        frontier_speedup,
        seq.sample.evals,
        fro.sample.evals,
        fro.sample.fell_back,
        identical,
        scheduler_compare_json,
        decision_latency_json,
        obs_json,
        obs_sharded_json,
        shard_scale_json,
        autotune_json,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("wrote {out}");
}
