//! Benchmarks of the feasible-region solvers: the dense sweep against
//! the frontier tracer, on a 9×9 and a 17×17 grid with 8 background
//! connections. That the two maps agree bit for bit, and that the
//! frontier evaluates fewer cells, is held by
//! `crates/core/tests/region_frontier.rs`; this target only times them.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hetnet_cac::cac::CacConfig;
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::delay::PathInput;
use hetnet_cac::network::{HetNetwork, HostId};
use hetnet_cac::region::{sample_region, sample_region_seq};
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::sync::Arc;

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

fn candidate() -> ConnectionSpec {
    ConnectionSpec {
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
    }
}

fn bench_region_sweep(c: &mut Criterion) {
    let net = HetNetwork::paper_topology();
    let cfg = CacConfig::fast();
    let spec = candidate();
    let active: Vec<PathInput> = (0..8).map(background).collect();
    let avail = Seconds::from_millis(7.2);

    for grid in [9, 17] {
        c.bench_function(&format!("region_sweep_{grid}x{grid}_seq"), |b| {
            b.iter(|| {
                black_box(
                    sample_region_seq(&net, &active, &spec, avail, avail, grid, &cfg)
                        .expect("well-formed"),
                )
            })
        });
        c.bench_function(&format!("region_frontier_{grid}x{grid}"), |b| {
            b.iter(|| {
                black_box(
                    sample_region(&net, &active, &spec, avail, avail, grid, &cfg)
                        .expect("well-formed"),
                )
            })
        });
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_region_sweep
);
criterion_main!(benches);
