//! CI gate over the benchmark JSON — the Rust port of what used to be
//! two inline `python3` scripts in `scripts/check.sh`, so CI needs no
//! Python at all.
//!
//! ```text
//! bench_gate quick target/BENCH_region.quick.json   # fresh smoke-run invariants
//! bench_gate committed BENCH_region.json            # committed-file performance gates
//! bench_gate drift fresh.json BENCH_region.json     # headline diff, loud but non-fatal
//! ```
//!
//! `quick` checks run invariants on a just-generated file: solver maps
//! bit-identical, the frontier tracer cheaper than the dense sweep, the
//! scheduler comparison admitting under every discipline, the obs
//! section producing records whose decision traces cover every decision
//! and rejection, and the autotune section finding a retuned TTRT that
//! beats the frozen 8 ms default on at least one offered load.
//!
//! `committed` checks the repository's pinned `BENCH_region.json`: the
//! enabled-tracing overhead must stay within the measured A/A noise
//! floor plus one percentage point.
//!
//! `drift` compares a freshly generated full-run file against the
//! committed one, printing every headline number whose relative delta
//! exceeds a per-metric threshold. It always exits 0: the scheduled
//! full-bench CI lane runs it so drift is *loud* in the job log (and
//! step summary) without turning machine variance into a red build —
//! the committed gates above stay the enforcement point.
//!
//! Both modes additionally hold the performance claims of the
//! incremental fast path — steady-state single-decision p99 under one
//! millisecond with the ladder short-circuiting a real share of
//! β-probes (`decision_latency` section) — and the sharded engine's
//! `shard_scale` and `obs_sharded` certificates.
//!
//! Correctness the test suite certifies on every `cargo test` — the
//! scheduler DES soundness check, fault and reconfiguration recovery,
//! the churn run's audit and attribution — is not re-run here.

use hetnet_bench::json::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path, reference) = match args.as_slice() {
        [mode, path] if mode == "quick" || mode == "committed" => {
            (mode.as_str(), path.as_str(), None)
        }
        [mode, fresh, committed] if mode == "drift" => {
            (mode.as_str(), fresh.as_str(), Some(committed.as_str()))
        }
        _ => {
            eprintln!(
                "usage: bench_gate <quick|committed> <path-to-json>\n\
                 \x20      bench_gate drift <fresh-json> <committed-json>"
            );
            return ExitCode::FAILURE;
        }
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
    };
    let bench = match load(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match (mode, reference) {
        ("quick", _) => quick_gates(&bench),
        ("drift", Some(committed)) => match load(committed) {
            Ok(reference) => {
                drift_report(&bench, &reference);
                Ok(())
            }
            Err(e) => Err(e),
        },
        _ => committed_gates(&bench),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Fetches a number at `path`, failing with a message naming it.
fn num(bench: &Json, path: &str) -> Result<f64, String> {
    bench
        .at(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {path:?}"))
}

/// Fetches a bool at `path`, failing with a message naming it.
fn flag(bench: &Json, path: &str) -> Result<bool, String> {
    bench
        .at(path)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or non-boolean field {path:?}"))
}

fn quick_gates(bench: &Json) -> Result<(), String> {
    // Region solvers: both must agree bit for bit, and the frontier
    // tracer must actually save evaluations.
    if !flag(bench, "maps_identical")? {
        return Err("solver maps are not bit-identical".into());
    }
    let dense = num(bench, "dense_evals")?;
    let frontier = num(bench, "frontier_evals")?;
    if frontier >= dense {
        return Err(format!(
            "frontier did {frontier} evals, dense sweep {dense}"
        ));
    }
    println!("ok: maps identical, frontier evals {frontier} < dense {dense}");

    decision_latency_gates(bench)?;
    scheduler_compare_gates(bench)?;
    shard_scale_gates(bench, false)?;
    obs_sharded_gates(bench, false)?;

    // Observability section: the traced arm must produce records, and
    // its decision traces must cover every decision and rejection.
    let records = num(bench, "obs.trace_records")?;
    if records <= 0.0 {
        return Err("enabled-tracing run produced no obs records".into());
    }
    let decision_traces = num(bench, "obs.decision_traces")?;
    let obs_decisions = num(bench, "obs.admitted")? + num(bench, "obs.rejected")?;
    if decision_traces != obs_decisions {
        return Err(format!(
            "{decision_traces} decision traces for {obs_decisions} decisions"
        ));
    }
    let obs_bindings = num(bench, "obs.rejects_with_binding")?;
    let obs_rejected = num(bench, "obs.rejected")?;
    if obs_bindings != obs_rejected {
        return Err(format!(
            "{obs_bindings} bindings for {obs_rejected} rejections"
        ));
    }
    let aa_delta = num(bench, "obs.disabled_delta_pct")?;
    println!(
        "ok: obs section {records} records, {decision_traces} decision traces, \
         disabled A/A delta {aa_delta:+.2}%"
    );

    autotune_gates(bench)
}

/// Scheduler-comparison gates, shared by both modes: all three
/// disciplines present, each arm with real admissions.
fn scheduler_compare_gates(bench: &Json) -> Result<(), String> {
    if bench.at("scheduler_compare").is_none() {
        return Err("no scheduler_compare section; regenerate the benchmark JSON".into());
    }
    for arm in ["fifo", "iwrr", "drr"] {
        let admitted = num(bench, &format!("scheduler_compare.{arm}.admitted"))?;
        if admitted <= 0.0 {
            return Err(format!("scheduler_compare {arm} arm admitted nothing"));
        }
    }
    println!("ok: scheduler compare fifo/iwrr/drr all admit");
    Ok(())
}

/// The headline fast-path gates, shared by both modes: steady-state
/// single-decision p99 under one millisecond, and the incremental
/// ladder actually short-circuiting a meaningful share of β-probes.
/// The probe counters are deterministic for the fixed workload, so the
/// hit-rate floor is a logic gate, not a timing one.
fn decision_latency_gates(bench: &Json) -> Result<(), String> {
    if bench.at("decision_latency").is_none() {
        return Err("no decision_latency section; regenerate the benchmark JSON".into());
    }
    let p99 = num(bench, "decision_latency.p99_us")?;
    if p99 >= 1000.0 {
        return Err(format!(
            "steady-state decision p99 {p99:.1} us is not sub-millisecond"
        ));
    }
    let admits = num(bench, "decision_latency.admits")?;
    let rejects = num(bench, "decision_latency.rejects")?;
    if admits <= 0.0 || rejects <= 0.0 {
        return Err(format!(
            "latency workload degenerated ({admits} admits, {rejects} rejects)"
        ));
    }
    let fast_accepts = num(bench, "decision_latency.fast_accepts")?;
    let fast_rejects = num(bench, "decision_latency.fast_rejects")?;
    if fast_accepts <= 0.0 || fast_rejects <= 0.0 {
        return Err(format!(
            "fast path never fired on one side ({fast_accepts} accepts, \
             {fast_rejects} rejects)"
        ));
    }
    let hit_rate = num(bench, "decision_latency.fast_hit_rate")?;
    if hit_rate <= 0.25 {
        return Err(format!(
            "fast-path hit rate {hit_rate:.3} fell to or below the 0.25 floor; \
             the ladder is no longer short-circuiting probes"
        ));
    }
    println!("ok: decision latency p99 {p99:.1} us < 1000 us, fast-path hit rate {hit_rate:.3}");
    Ok(())
}

/// Sharded-engine scale gates. Both modes require the determinism
/// certificate — the N-worker audit bit-identical to the one-worker
/// replay AND to the monolithic sequential engine over the shared
/// schedule prefix — and a bounded conflict-retry rate (the optimistic
/// committer's recompute path must stay the exception). The committed
/// file holds conflicts under 5% and additionally pins the scale
/// claims themselves: a ≥ 64-ring topology, ≥ 4 worker shards, ≥ 10^5
/// peak concurrent connections, and churn throughput at least 4x the
/// single-thread engine at equal offered load. The quick run is sized
/// for CI — per-ring load is denser, so its conflict ceiling is 10% —
/// and only sanity-checks the scale numbers (the speedup on a small
/// prefix with a near-empty network is not a meaningful measurement).
fn shard_scale_gates(bench: &Json, committed: bool) -> Result<(), String> {
    if bench.at("shard_scale").is_none() {
        return Err("no shard_scale section; regenerate the benchmark JSON".into());
    }
    if !flag(bench, "shard_scale.audits_identical")? {
        return Err(
            "sharded decisions diverged from sequential replay (audits not bit-identical)".into(),
        );
    }
    let conflict_ceiling = if committed { 0.05 } else { 0.10 };
    let conflict_rate = num(bench, "shard_scale.conflict_rate")?;
    if conflict_rate > conflict_ceiling {
        return Err(format!(
            "shard conflict-retry rate {conflict_rate:.4} exceeds the {conflict_ceiling} \
             ceiling; speculation is thrashing"
        ));
    }
    let rings = num(bench, "shard_scale.rings")?;
    let workers = num(bench, "shard_scale.workers")?;
    let peak_active = num(bench, "shard_scale.peak_active")?;
    let speedup = num(bench, "shard_scale.speedup")?;
    if peak_active <= 0.0 {
        return Err("shard-scale run carried no concurrent connections".into());
    }
    if committed {
        if rings < 64.0 {
            return Err(format!("shard-scale topology has {rings} rings (< 64)"));
        }
        if workers < 4.0 {
            return Err(format!("shard-scale run used {workers} workers (< 4)"));
        }
        if peak_active < 100_000.0 {
            return Err(format!(
                "shard-scale peak active {peak_active} fell below the 10^5 floor"
            ));
        }
        if speedup < 4.0 {
            return Err(format!(
                "sharded churn throughput only {speedup:.2}x the single-thread engine \
                 (floor: 4x at equal offered load)"
            ));
        }
    }
    println!(
        "ok: shard scale {rings} rings x {workers} workers, peak active {peak_active}, \
         {speedup:.1}x vs single-thread, conflict rate {conflict_rate:.4}, \
         audits bit-identical"
    );
    Ok(())
}

/// Cross-shard observability gates. Both modes require the sharded
/// decision stream bit-identical with the full stack on vs off
/// (observability reads, never decides), the flight recorder holding
/// at least one captured outlier, and the telemetry ring holding at
/// least one frame for the period that was set. The committed file
/// additionally holds the enabled-stack overhead within the measured
/// A/A noise floor plus two percentage points — the "watch a 220k-run
/// live" features must stay close to free when idle.
fn obs_sharded_gates(bench: &Json, committed: bool) -> Result<(), String> {
    if bench.at("obs_sharded").is_none() {
        return Err("no obs_sharded section; regenerate the benchmark JSON".into());
    }
    if !flag(bench, "obs_sharded.decisions_identical")? {
        return Err("full observability changed the sharded decision stream".into());
    }
    let outliers = num(bench, "obs_sharded.flight_outliers")?;
    if outliers < 1.0 {
        return Err("flight recorder captured no outliers over the sharded workload".into());
    }
    let frames = num(bench, "obs_sharded.telemetry_frames")?;
    if frames < 1.0 {
        return Err("telemetry cut no frames despite a period being set".into());
    }
    let floor = num(bench, "obs_sharded.aa_delta_pct")?.abs();
    let overhead = num(bench, "obs_sharded.overhead_pct")?;
    if committed && overhead >= floor + 2.0 {
        return Err(format!(
            "sharded observability overhead {overhead:+.2}% exceeds the measured A/A \
             noise floor ({floor:.2}%) by >= 2%; rerun `cargo run --release -p \
             hetnet-bench --bin bench_json` on a quiet machine or investigate a real \
             slowdown in the spans/telemetry/flight path"
        ));
    }
    println!(
        "ok: obs_sharded overhead {overhead:+.2}% (A/A floor {floor:.2}%), \
         {outliers} flight outliers, {frames} telemetry frames, decisions identical"
    );
    Ok(())
}

/// Autotune gates, shared by both modes: the sweep grid must contain
/// the paper's frozen 8 ms default (otherwise "beats the default" is
/// vacuous), every load point must have evaluated the whole grid, and
/// on at least one load point a non-default TTRT must beat the frozen
/// default's admission probability — the autotuner finding something
/// is the whole point of shipping it.
fn autotune_gates(bench: &Json) -> Result<(), String> {
    if bench.at("autotune").is_none() {
        return Err("no autotune section; regenerate the benchmark JSON".into());
    }
    let grid_ttrts = bench
        .at("autotune.campaign.grid.ttrts_ms")
        .and_then(Json::as_arr)
        .ok_or("missing autotune.campaign.grid.ttrts_ms")?;
    let default_ttrt = num(bench, "autotune.campaign.default_ttrt_ms")?;
    if !grid_ttrts.iter().any(|t| t.as_f64() == Some(default_ttrt)) {
        return Err(format!(
            "sweep grid omits the frozen {default_ttrt} ms default; the baseline \
             comparison is vacuous"
        ));
    }
    let loads = bench
        .at("autotune.campaign.loads")
        .and_then(Json::as_arr)
        .ok_or("missing autotune.campaign.loads")?;
    if loads.is_empty() {
        return Err("autotune campaign swept no load points".into());
    }
    let expected_points = grid_ttrts.len()
        * bench
            .at("autotune.campaign.grid.betas")
            .and_then(Json::as_arr)
            .ok_or("missing autotune.campaign.grid.betas")?
            .len();
    let mut beating = 0usize;
    for (i, load) in loads.iter().enumerate() {
        let points = load
            .at("points")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("load point {i} has no points array"))?;
        if points.len() != expected_points {
            return Err(format!(
                "load point {i} evaluated {} of {expected_points} grid points",
                points.len()
            ));
        }
        let gain = load
            .at("retuned_gain")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("load point {i} has no retuned_gain"))?;
        if gain > 0.0 {
            beating += 1;
        }
    }
    if beating == 0 {
        return Err(format!(
            "no swept load point found a non-default TTRT beating the frozen \
             {default_ttrt} ms default on admission probability"
        ));
    }
    println!(
        "ok: autotune {beating}/{} load points beat the {default_ttrt} ms default \
         with a retuned TTRT",
        loads.len()
    );
    Ok(())
}

/// One headline metric of the drift report: JSON path, display name,
/// and the relative delta (fraction, not percent) past which the
/// metric is flagged. Wall-clock metrics get wide thresholds — the
/// scheduled runner is not the machine the committed file was pinned
/// on — while deterministic counts get tight ones.
const DRIFT_METRICS: &[(&str, &str, f64)] = &[
    ("frontier_speedup", "frontier speedup", 0.30),
    ("frontier_evals", "frontier evaluations", 0.01),
    (
        "scheduler_compare.fifo.admission_probability",
        "churn admission probability (FIFO)",
        0.01,
    ),
    (
        "decision_latency.p99_us",
        "steady-state decision p99 (us)",
        0.50,
    ),
    ("decision_latency.fast_hit_rate", "fast-path hit rate", 0.05),
    (
        "obs.enabled_overhead_pct",
        "tracing overhead (pct points)",
        f64::INFINITY,
    ),
    ("shard_scale.speedup", "sharded-vs-monolith speedup", 0.40),
    ("shard_scale.conflict_rate", "shard conflict rate", 0.25),
    (
        "shard_scale.peak_active",
        "shard peak active connections",
        0.01,
    ),
    (
        "autotune.campaign.loads.0.retuned_gain",
        "autotune retuned gain (load 0)",
        0.20,
    ),
];

/// Prints a loud headline-by-headline comparison of a fresh full-run
/// benchmark file against the committed one. Never fails: the
/// scheduled lane's enforcement is `committed_gates` on the committed
/// file; this report exists so a drifting machine or a real regression
/// is visible in the job log the day it happens, not the week someone
/// re-pins.
fn drift_report(fresh: &Json, committed: &Json) {
    println!("=== benchmark drift report (fresh vs committed) ===");
    let mut drifted = 0usize;
    let mut compared = 0usize;
    for &(path, name, threshold) in DRIFT_METRICS {
        let (Some(f), Some(c)) = (
            fresh.at(path).and_then(Json::as_f64),
            committed.at(path).and_then(Json::as_f64),
        ) else {
            println!("  MISSING {name} ({path}): absent from one side");
            drifted += 1;
            continue;
        };
        compared += 1;
        let delta = if c.abs() > f64::EPSILON {
            (f - c) / c.abs()
        } else {
            f - c
        };
        if delta.abs() > threshold {
            println!(
                "  DRIFT {name}: fresh {f:.4} vs committed {c:.4} ({:+.1}% > ±{:.0}%)",
                delta * 100.0,
                threshold * 100.0
            );
            drifted += 1;
        } else {
            println!(
                "  ok    {name}: fresh {f:.4} vs committed {c:.4} ({:+.1}%)",
                delta * 100.0
            );
        }
    }
    if drifted == 0 {
        println!("=== no drift: all {compared} headline metrics within thresholds ===");
    } else {
        println!(
            "=== DRIFT DETECTED in {drifted} metric(s) ({compared} compared) — \
             non-fatal; re-pin BENCH_region.json from a full run if the change is real ==="
        );
    }
}

fn committed_gates(bench: &Json) -> Result<(), String> {
    if bench.at("obs").is_none() {
        return Err("committed benchmark JSON has no obs section; regenerate it".into());
    }
    // The A/A pair runs the identical disabled-tracing configuration
    // twice (best-of-reps, rotated arm order, warmed up), so its delta
    // is the machine's timing noise floor by construction. The gate is
    // therefore self-calibrating: enabled-tracing overhead must stay
    // within that measured floor plus one percentage point. On a quiet
    // machine the floor is a fraction of a percent and this is
    // effectively a 1% gate; on a throttled shared core it still
    // catches a real regression without failing on noise the
    // identical-config pair also exhibits.
    let floor = num(bench, "obs.disabled_delta_pct")?.abs();
    let overhead = num(bench, "obs.enabled_overhead_pct")?;
    if overhead >= floor + 1.0 {
        return Err(format!(
            "enabled-tracing overhead {overhead:+.2}% exceeds the measured A/A noise \
             floor ({floor:.2}%) by >= 1%; rerun `cargo run --release -p hetnet-bench \
             --bin bench_json` on a quiet machine or investigate a real slowdown on \
             the admit path"
        ));
    }
    println!(
        "ok: enabled-tracing overhead {overhead:+.2}% within A/A noise floor \
         {floor:.2}% + 1%"
    );
    decision_latency_gates(bench)?;
    scheduler_compare_gates(bench)?;
    shard_scale_gates(bench, true)?;
    obs_sharded_gates(bench, true)?;
    autotune_gates(bench)
}
