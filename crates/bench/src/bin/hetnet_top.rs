//! Live dashboard over a sharded admission run.
//!
//! Starts a seeded shard-scale churn workload on the ring-partitioned
//! engine in a background thread with periodic telemetry enabled, then
//! polls the engine's shared telemetry ring and redraws a one-screen
//! dashboard from the newest registry snapshot until the run finishes.
//! This is the "watch a 220k-request run live" path: the run itself is
//! untouched — the dashboard only reads registry snapshots the
//! committer already cut on simulated-time boundaries.
//!
//! ```text
//! cargo run --release -p hetnet-bench --bin hetnet_top
//! cargo run --release -p hetnet-bench --bin hetnet_top -- \
//!     --rings 256 --requests 40000 --workers 4 --period 5 --refresh-ms 200
//! ```
//!
//! `--plain` appends one dashboard per new frame instead of ANSI
//! clear-and-redraw (useful under a pager or in CI logs).

use hetnet_bench::top::render_frame;
use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::network::HetNetwork;
use hetnet_service::{ObsOptions, ServiceConfig, ShardedEngine};
use hetnet_sim::churn::{ChurnConfig, TopologyShape, TrafficPattern};
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::io::Write as _;
use std::time::Duration;

fn main() {
    let mut rings = 64usize;
    let mut requests = 20_000usize;
    let mut workers = 4usize;
    let mut rate = 200.0f64;
    let mut period = 5.0f64;
    let mut refresh_ms = 200u64;
    let mut plain = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match a.as_str() {
            "--rings" => rings = next("--rings").parse().expect("--rings: usize"),
            "--requests" => requests = next("--requests").parse().expect("--requests: usize"),
            "--workers" => workers = next("--workers").parse().expect("--workers: usize"),
            "--rate" => rate = next("--rate").parse().expect("--rate: f64"),
            "--period" => period = next("--period").parse().expect("--period: f64"),
            "--refresh-ms" => refresh_ms = next("--refresh-ms").parse().expect("--refresh-ms: u64"),
            "--plain" => plain = true,
            other => panic!(
                "unknown argument {other:?} (expected --rings/--requests/--workers/--rate/\
                 --period/--refresh-ms/--plain)"
            ),
        }
    }

    // The same shard-scale workload family bench_json measures: paired
    // traffic on a grid, screened evaluation (tracing off), light
    // per-connection envelopes so thousands stay admitted at once.
    let seed = 424_242;
    let mut cfg = ServiceConfig::paper_style(1.0, requests, seed);
    cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings,
            hosts_per_ring: 3,
        },
        pattern: TrafficPattern::Paired,
        source_weights: None,
        arrival_rate: rate,
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
        requests,
        seed,
    };
    let mut cac = CacConfig::fast().with_beta(0.0);
    cac.min_frame_efficiency = 0.8;
    cfg.options = AdmissionOptions::beta_search(cac);
    cfg.sample_period = 64;
    cfg.trace_decisions = false;
    cfg.obs = ObsOptions {
        telemetry_period: Some(Seconds::new(period)),
        ..ObsOptions::default()
    };

    let engine = ShardedEngine::new(HetNetwork::grid(rings, 3), &cfg, workers)
        .expect("workload matches the grid topology");
    let telemetry = engine.telemetry_ring();
    let flight = engine.flight_recorder();
    eprintln!(
        "hetnet-top: {rings} rings, {requests} requests at {rate}/s, {workers} workers, \
         telemetry every {period} simulated seconds"
    );
    let run = std::thread::spawn(move || engine.run());

    let mut last_at = f64::NEG_INFINITY;
    let mut stdout = std::io::stdout();
    while !run.is_finished() {
        std::thread::sleep(Duration::from_millis(refresh_ms));
        if let Some(frame) = telemetry.snapshot().last() {
            if frame.at > last_at {
                last_at = frame.at;
                let dash = render_frame(frame.at, &frame.snapshot);
                if plain {
                    println!("{dash}");
                } else {
                    let _ = write!(stdout, "\x1b[2J\x1b[H{dash}");
                    let _ = stdout.flush();
                }
            }
        }
    }
    let (done, _) = run
        .join()
        .expect("run thread panicked")
        .expect("sharded run is well-formed");

    // Final state: the last frame the run cut, then the run summary.
    if let Some(frame) = done.telemetry.last() {
        let dash = render_frame(frame.at, &frame.snapshot);
        if plain {
            println!("{dash}");
        } else {
            let _ = write!(stdout, "\x1b[2J\x1b[H{dash}");
            let _ = stdout.flush();
        }
    }
    println!(
        "\ndone: {} decisions ({} admitted / {} rejected), peak active {}, \
         conflict rate {:.4}, {} flight outliers captured",
        done.report.requests,
        done.report.counters.admitted,
        done.report.counters.rejected(),
        done.report.peak_active,
        done.sharding.conflict_rate(),
        flight.captured(),
    );
}
