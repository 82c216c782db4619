//! Microbenchmarks of the analytic building blocks: envelope evaluation,
//! the Theorem-1 guaranteed-server analysis, the stage-1 wire table every
//! β-search probe builds for its candidate and the MAC output table it
//! starts from, the receive MAC's busy-interval search behind three
//! multiplexer hops, the FIFO multiplexer bound, and a full end-to-end
//! path evaluation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hetnet_atm::{analyze_mux, LinkConfig};
use hetnet_cac::delay::{evaluate_paths, EvalConfig, PathInput};
use hetnet_cac::network::{HetNetwork, HostId};
use hetnet_fddi::frames;
use hetnet_fddi::mac::analyze_fddi_mac;
use hetnet_fddi::ring::{RingConfig, SyncBandwidth};
use hetnet_ifdev::{reassemble_envelope, segment_envelope};
use hetnet_traffic::analysis::AnalysisConfig;
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
        .map(|ms| {
            let h = SyncBandwidth::new(Seconds::from_millis(ms));
            analyze_fddi_mac(Arc::clone(&env), ring, h, net.host_buffer(), &cfg)
                .expect("stable")
                .output
        })
        .into();
    c.bench_function("mac_output_table", |b| {
        b.iter(|| {
            for output in &outputs {
                black_box(Sampled::flatten(Arc::clone(output), horizon, 1));
            }
        })
    });
}

/// The receive side of a path under `EvalConfig::fast`'s settings: the
/// paper source's stage-1 wire table behind three multiplexer hops
/// (`min(C·I, A(I + d))`), reassembled into frames and analyzed at the
/// destination MAC. The search's breakpoints and values reach past the
/// 0.6 s wire table into its unflattened chain — at three source
/// allocations, each table built once up front.
fn bench_receive_chain_busy_search(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let (ring, ring_r) = (net.ring(0), net.ring(1));
    let env: SharedEnvelope = Arc::new(paper_source());
    let horizon = Seconds::new(0.6);
    let cfg = AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: horizon,
        ..AnalysisConfig::default()
    };
    let link = LinkConfig::oc3(Seconds::ZERO);
    let chains: Vec<(SharedEnvelope, Bits)> = [2.0, 2.4, 3.2]
        .map(|ms| {
            let h = SyncBandwidth::new(Seconds::from_millis(ms));
            let mac = analyze_fddi_mac(Arc::clone(&env), ring, h, net.host_buffer(), &cfg)
                .expect("stable");
            let flat = Arc::new(Sampled::flatten(mac.output, horizon, 1));
            let frame = frames::frame_size(ring, h);
            let seg = segment_envelope(flat, frame, net.ifdev());
            let mut chain: SharedEnvelope = Arc::new(Sampled::flatten(seg.output_wire, horizon, 1));
            for delay_ms in [4.0, 2.0, 3.0] {
                let delayed = Arc::new(Delayed::new(chain, Seconds::from_millis(delay_ms)));
                chain = Arc::new(RateCapped::new(delayed, link.rate));
            }
            (chain, frame)
        })
        .into();
    let h_r = SyncBandwidth::new(Seconds::from_millis(2.4));
    c.bench_function("receive_chain_busy_search", |b| {
        b.iter(|| {
            for (chain, frame) in &chains {
                let frames = reassemble_envelope(Arc::clone(chain), *frame, net.ifdev());
                let mac = analyze_fddi_mac(frames.output_frames, ring_r, h_r, None, &cfg);
                black_box(mac.expect("stable").busy_interval);
            }
        })
    });
}

fn bench_mux_analysis(c: &mut Criterion) {
    let cfg = AnalysisConfig::default();
    let link = LinkConfig::oc3(Seconds::ZERO);
    let flows: Vec<SharedEnvelope> = (0..6).map(|_| Arc::new(paper_source()) as _).collect();
    c.bench_function("fifo_mux_6_flows", |b| {
        b.iter(|| black_box(analyze_mux(&flows, &link, &cfg).expect("stable")))
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
    targets = bench_envelope_eval, bench_mac_analysis, bench_stage1_wire_table,
        bench_mac_output_table, bench_receive_chain_busy_search, bench_mux_analysis,
        bench_path_evaluation
);
criterion_main!(benches);
