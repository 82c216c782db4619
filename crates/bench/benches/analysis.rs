//! Microbenchmarks of the analytic building blocks: envelope evaluation,
//! the Theorem-1 guaranteed-server analysis (alone, and at the source MAC
//! across the β-search's allocations), the stage-1 wire table every
//! β-search probe builds for its candidate and the MAC output table it
//! starts from (flattened alone, and from a warm busy-interval memo as
//! the evaluator builds it), the receive MAC's busy-interval search behind three
//! multiplexer hops (closing, and exhausting its horizon), the FIFO
//! multiplexer bound (over sources, and over wire tables behind three
//! hops with their breakpoint memos cold and warm), and a full
//! end-to-end path evaluation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hetnet_atm::{ClassedFlow, LinkConfig, Scheduler, SchedulerAnalysis};
use hetnet_cac::delay::{evaluate_paths, EvalConfig, PathInput};
use hetnet_cac::network::{HetNetwork, HostId};
use hetnet_fddi::frames;
use hetnet_fddi::mac::analyze_fddi_mac;
use hetnet_fddi::ring::{RingConfig, SyncBandwidth};
use hetnet_ifdev::{reassemble_envelope, segment_envelope};
use hetnet_traffic::analysis::{AnalysisConfig, OutputTableMemo, ServerOutput};
use hetnet_traffic::combinators::{Delayed, RateCapped, Sampled};
use hetnet_traffic::envelope::{Envelope, SharedEnvelope};
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::sync::Arc;

fn paper_source() -> DualPeriodicEnvelope {
    DualPeriodicEnvelope::new(
        Bits::from_mbits(2.0),
        Seconds::from_millis(100.0),
        Bits::from_mbits(0.25),
        Seconds::from_millis(10.0),
        BitsPerSec::from_mbps(100.0),
    )
    .expect("valid")
}

fn bench_envelope_eval(c: &mut Criterion) {
    let env = paper_source();
    c.bench_function("dual_periodic_arrivals", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1000;
            let t = Seconds::new(i as f64 * 1.0e-4);
            black_box(env.arrivals(black_box(t)))
        })
    });
}

fn bench_mac_analysis(c: &mut Criterion) {
    let env: SharedEnvelope = Arc::new(paper_source());
    let ring = RingConfig::standard();
    let h = SyncBandwidth::new(Seconds::from_millis(2.4));
    let cfg = AnalysisConfig::default();
    c.bench_function("theorem1_fddi_mac", |b| {
        b.iter(|| {
            black_box(analyze_fddi_mac(Arc::clone(&env), &ring, h, None, &cfg).expect("stable"))
        })
    });
}

/// The source MAC's Theorem-1 analysis as the β-search's probes run it:
/// the paper source under `EvalConfig::fast`'s analysis settings at 13
/// allocations, from just above its stability limit (1.6 ms of the 8 ms
/// rotation) to the empty ring's whole synchronous budget (7.2 ms).
fn bench_source_mac_beta_sweep(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let env: SharedEnvelope = Arc::new(paper_source());
    let cfg = AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: Seconds::new(0.6),
        ..AnalysisConfig::default()
    };
    let allocations: Vec<SyncBandwidth> = (0..13)
        .map(|k| SyncBandwidth::new(Seconds::from_millis(1.8 + 0.45 * f64::from(k))))
        .collect();
    c.bench_function("source_mac_beta_sweep", |b| {
        b.iter(|| {
            for &h in &allocations {
                let mac = analyze_fddi_mac(Arc::clone(&env), ring, h, net.host_buffer(), &cfg);
                black_box(mac.expect("stable").busy_interval);
            }
        })
    });
}

/// Stage 1 of a path evaluation under `EvalConfig::fast`'s settings:
/// Theorem 1 at the source MAC, the output flattened over 0.6 s with one
/// guard subdivision, Theorem 2's segmentation, and the wire envelope
/// flattened again — at three allocations.
fn bench_stage1_wire_table(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let env: SharedEnvelope = Arc::new(paper_source());
    let horizon = Seconds::new(0.6);
    let cfg = AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: horizon,
        ..AnalysisConfig::default()
    };
    let allocations = [2.0, 2.4, 3.2].map(|ms| SyncBandwidth::new(Seconds::from_millis(ms)));
    c.bench_function("stage1_wire_table", |b| {
        b.iter(|| {
            for h in allocations {
                let mac = analyze_fddi_mac(Arc::clone(&env), ring, h, net.host_buffer(), &cfg)
                    .expect("stable");
                let flat = Arc::new(Sampled::flatten(mac.output, horizon, 1));
                let seg = segment_envelope(flat, frames::frame_size(ring, h), net.ifdev());
                black_box(Sampled::flatten(seg.output_wire, horizon, 1));
            }
        })
    });
}

/// The largest part of stage 1 on its own: the source MAC's Theorem-1.4
/// output flattened over 0.6 s with one guard subdivision, which
/// evaluates the maximum over the kept maximizer candidates at every
/// sample point — at four allocations, each analyzed once up front.
fn bench_mac_output_table(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let env: SharedEnvelope = Arc::new(paper_source());
    let horizon = Seconds::new(0.6);
    let cfg = AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: horizon,
        ..AnalysisConfig::default()
    };
    let outputs: Vec<SharedEnvelope> = [2.0, 2.4, 3.2, 4.0]
        .into_iter()
        .map(|ms| {
            let h = SyncBandwidth::new(Seconds::from_millis(ms));
            analyze_fddi_mac(Arc::clone(&env), ring, h, net.host_buffer(), &cfg)
                .expect("stable")
                .output as SharedEnvelope
        })
        .collect();
    c.bench_function("mac_output_table", |b| {
        b.iter(|| {
            for output in &outputs {
                black_box(Sampled::flatten(Arc::clone(output), horizon, 1));
            }
        })
    });
}

/// The same kind of table as the evaluator builds it on a stage-1 miss:
/// from an [`OutputTableMemo`] of the busy interval, already warm, so
/// each table costs only its allocation's served values and maximum — at
/// 2.5, 2.6 and 2.7 ms, which share the 72 ms busy interval (6, 3 and 3
/// of its 10 candidates kept).
fn bench_mac_output_table_memo(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let env: SharedEnvelope = Arc::new(paper_source());
    let horizon = Seconds::new(0.6);
    let cfg = AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: horizon,
        ..AnalysisConfig::default()
    };
    let outputs: Vec<Arc<ServerOutput>> = [2.5, 2.6, 2.7]
        .into_iter()
        .map(|ms| {
            let h = SyncBandwidth::new(Seconds::from_millis(ms));
            analyze_fddi_mac(Arc::clone(&env), ring, h, net.host_buffer(), &cfg)
                .expect("stable")
                .output
        })
        .collect();
    let busy = outputs[0].busy_interval();
    assert!(
        outputs.iter().all(|o| o.busy_interval() == busy),
        "the allocations no longer share a busy interval"
    );
    let mut memo = OutputTableMemo::new(&outputs[0], horizon, 1);
    for output in &outputs {
        black_box(Arc::clone(output).flatten_with(&mut memo));
    }
    c.bench_function("mac_output_table_memo", |b| {
        b.iter(|| {
            for output in &outputs {
                black_box(Arc::clone(output).flatten_with(&mut memo));
            }
        })
    });
}

/// The paper source's stage-1 wire table under `EvalConfig::fast`'s
/// settings behind three multiplexer hops ([`behind_hops`]), with its
/// frame size and the analysis settings, at three source allocations,
/// each table built once up front.
fn receive_chains() -> (Vec<(SharedEnvelope, Bits)>, AnalysisConfig) {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let env: SharedEnvelope = Arc::new(paper_source());
    let horizon = Seconds::new(0.6);
    let cfg = AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: horizon,
        ..AnalysisConfig::default()
    };
    let chains = [2.0, 2.4, 3.2]
        .map(|ms| {
            let h = SyncBandwidth::new(Seconds::from_millis(ms));
            let mac = analyze_fddi_mac(Arc::clone(&env), ring, h, net.host_buffer(), &cfg)
                .expect("stable");
            let flat = Arc::new(Sampled::flatten(mac.output, horizon, 1));
            let frame = frames::frame_size(ring, h);
            let seg = segment_envelope(flat, frame, net.ifdev());
            let table = Arc::new(Sampled::flatten(seg.output_wire, horizon, 1));
            (behind_hops(table, [4.0, 2.0, 3.0]), frame)
        })
        .into();
    (chains, cfg)
}

/// `chain` behind multiplexer hops of the given delays on OC-3 links,
/// `min(C·I, A(I + d))` each, as `SchedulerAnalysis::flow_output`
/// builds them.
fn behind_hops(mut chain: SharedEnvelope, delays_ms: [f64; 3]) -> SharedEnvelope {
    let link = LinkConfig::oc3(Seconds::ZERO);
    for delay_ms in delays_ms {
        let delayed = Arc::new(Delayed::new(chain, Seconds::from_millis(delay_ms)));
        chain = Arc::new(RateCapped::new(delayed, link.rate));
    }
    chain
}

/// The receive side of a path: `receive_chains`, reassembled into
/// frames and analyzed at the destination MAC. The search's breakpoints
/// and values reach past the 0.6 s wire table into its unflattened
/// chain.
fn bench_receive_chain_busy_search(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let (chains, cfg) = receive_chains();
    let h_r = SyncBandwidth::new(Seconds::from_millis(2.4));
    c.bench_function("receive_chain_busy_search", |b| {
        b.iter(|| {
            for (chain, frame) in &chains {
                let frames = reassemble_envelope(Arc::clone(chain), *frame, net.ifdev());
                let mac = analyze_fddi_mac(frames.output_frames, net.ring(1), h_r, None, &cfg);
                black_box(mac.expect("stable").busy_interval);
            }
        })
    });
}

/// The same chains at a receive allocation of 1.92 ms, where every busy
/// period ends past half the 0.6 s horizon: each search ends in
/// `HorizonExhausted`, settled from the staircase's step ends.
fn bench_receive_chain_horizon_exhausted(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let (chains, cfg) = receive_chains();
    let h_r = SyncBandwidth::new(Seconds::from_millis(1.92));
    c.bench_function("receive_chain_horizon_exhausted", |b| {
        b.iter(|| {
            for (chain, frame) in &chains {
                let frames = reassemble_envelope(Arc::clone(chain), *frame, net.ifdev());
                let mac = analyze_fddi_mac(frames.output_frames, net.ring(1), h_r, None, &cfg);
                black_box(mac.expect_err("the horizon is exhausted"));
            }
        })
    });
}

fn bench_mux_analysis(c: &mut Criterion) {
    let cfg = AnalysisConfig::default();
    let link = LinkConfig::oc3(Seconds::ZERO);
    let flows: Vec<ClassedFlow> = (0..6)
        .map(|_| ClassedFlow::new(Arc::new(paper_source()), 0))
        .collect();
    c.bench_function("fifo_mux_6_flows", |b| {
        b.iter(|| {
            black_box(
                Scheduler::Fifo
                    .analyze(&flows, &link, &cfg)
                    .expect("stable"),
            )
        })
    });
}

/// The FIFO multiplexer analysis at a grid port, as `grid_churn`
/// runs it: the grid workload's source (2 kbit per 100 ms, 0.5 kbit per
/// 25 ms, 100 Mb/s peak) at three small allocations, each wire table
/// (`EvalConfig::fast`'s settings) behind three hops with eight patterns
/// of hop delays, 24 flows onto one OC-3 link. Cold builds the hop
/// chains afresh for each analysis, so every `RateCapped` enumerates the
/// chain below it and bisects its cap crossings at each horizon the
/// analysis asks for; warm analyzes one set of chains again, whose
/// breakpoint memos already hold those lists.
fn bench_mux_chain_analysis(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let source: SharedEnvelope = Arc::new(
        DualPeriodicEnvelope::new(
            Bits::from_mbits(0.002),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.0005),
            Seconds::from_millis(25.0),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid"),
    );
    let horizon = Seconds::new(0.6);
    let cfg = AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: horizon,
        ..AnalysisConfig::default()
    };
    let tables: Vec<SharedEnvelope> = [0.05, 0.1, 0.2]
        .into_iter()
        .map(|ms| {
            let h = SyncBandwidth::new(Seconds::from_millis(ms));
            let mac = analyze_fddi_mac(Arc::clone(&source), ring, h, net.host_buffer(), &cfg)
                .expect("stable");
            let flat = Arc::new(Sampled::flatten(mac.output, horizon, 1));
            let seg = segment_envelope(flat, frames::frame_size(ring, h), net.ifdev());
            Arc::new(Sampled::flatten(seg.output_wire, horizon, 1)) as SharedEnvelope
        })
        .collect();
    let link = LinkConfig::oc3(Seconds::ZERO);
    let flows = || -> Vec<ClassedFlow> {
        let mut flows = Vec::new();
        for table in &tables {
            for k in 0..8 {
                let k = f64::from(k);
                let delays = [0.1 + 0.3 * k, 2.5 - 0.2 * k, 0.4 + 0.1 * k];
                flows.push(ClassedFlow::new(behind_hops(Arc::clone(table), delays), 0));
            }
        }
        flows
    };
    c.bench_function("fifo_mux_chains_cold", |b| {
        b.iter(|| {
            black_box(
                Scheduler::Fifo
                    .analyze(&flows(), &link, &cfg)
                    .expect("stable"),
            )
        })
    });
    let warm = flows();
    c.bench_function("fifo_mux_chains_warm", |b| {
        b.iter(|| black_box(Scheduler::Fifo.analyze(&warm, &link, &cfg).expect("stable")))
    });
}

fn bench_path_evaluation(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let cfg = EvalConfig::default();
    let mk = |ring: usize, station: usize| PathInput {
        source: HostId { ring, station },
        dest: HostId {
            ring: (ring + 1) % 3,
            station,
        },
        envelope: Arc::new(paper_source()),
        h_s: SyncBandwidth::new(Seconds::from_millis(2.4)),
        h_r: SyncBandwidth::new(Seconds::from_millis(2.4)),
        class: 0,
    };
    let one = vec![mk(0, 0)];
    let three = vec![mk(0, 0), mk(1, 0), mk(2, 0)];
    c.bench_function("end_to_end_1_conn", |b| {
        b.iter(|| black_box(evaluate_paths(&net, &one, &cfg).expect("ok")))
    });
    c.bench_function("end_to_end_3_conns", |b| {
        b.iter(|| black_box(evaluate_paths(&net, &three, &cfg).expect("ok")))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_envelope_eval, bench_mac_analysis, bench_source_mac_beta_sweep,
        bench_stage1_wire_table,
        bench_mac_output_table, bench_mac_output_table_memo, bench_receive_chain_busy_search,
        bench_receive_chain_horizon_exhausted, bench_mux_analysis, bench_mux_chain_analysis,
        bench_path_evaluation
);
criterion_main!(benches);
