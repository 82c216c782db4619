//! Exactness of the frontier-tracing region solver: on randomized
//! scenarios — including infeasible/empty regions, tiny grids, and the
//! benchmark configuration — the frontier map is bitwise identical to
//! the dense sweep's, both cells and axes, while doing strictly fewer
//! oracle evaluations whenever the grid is big enough to matter. The
//! benchmark configuration also holds the dense sweep's evaluator
//! caches to earning their keep.

use hetnet_cac::cac::CacConfig;
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::delay::PathInput;
use hetnet_cac::network::{HetNetwork, HostId};
use hetnet_cac::region::{sample_region, sample_region_seq, RegionSample};
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;
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
        .expect("generated source valid"),
    )
}

/// A background connection from ring `k % 3` to the next ring, with a
/// moderate fixed allocation.
fn background(k: usize, c1_mbit: f64) -> PathInput {
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
        envelope: envelope(c1_mbit, 5),
        h_s: h,
        h_r: h,
        class: 0,
    }
}

fn candidate(c1_mbit: f64, bursts: usize, deadline_ms: f64) -> ConnectionSpec {
    ConnectionSpec {
        source: HostId {
            ring: 0,
            station: 0,
        },
        dest: HostId {
            ring: 1,
            station: 0,
        },
        envelope: envelope(c1_mbit, bursts),
        deadline: Seconds::from_millis(deadline_ms),
        class: 0,
    }
}

fn dense(
    net: &HetNetwork,
    active: &[PathInput],
    spec: &ConnectionSpec,
    grid: usize,
) -> RegionSample {
    sample_region_seq(
        net,
        active,
        spec,
        Seconds::from_millis(7.2),
        Seconds::from_millis(7.2),
        grid,
        &CacConfig::fast(),
    )
    .expect("well-formed request")
}

fn frontier(
    net: &HetNetwork,
    active: &[PathInput],
    spec: &ConnectionSpec,
    grid: usize,
) -> RegionSample {
    sample_region(
        net,
        active,
        spec,
        Seconds::from_millis(7.2),
        Seconds::from_millis(7.2),
        grid,
        &CacConfig::fast(),
    )
    .expect("well-formed request")
}

/// Bitwise equality of an allocation axis.
fn axis_bits(axis: &[SyncBandwidth]) -> Vec<u64> {
    axis.iter()
        .map(|h| h.per_rotation().value().to_bits())
        .collect()
}

fn assert_identical(dense: &RegionSample, fast: &RegionSample, label: &str) {
    assert_eq!(
        fast.map.cells(),
        dense.map.cells(),
        "{label}: cells diverged\nfrontier:\n{}\ndense:\n{}",
        fast.map.ascii(),
        dense.map.ascii()
    );
    assert_eq!(
        axis_bits(&fast.map.h_s),
        axis_bits(&dense.map.h_s),
        "{label}: H_S axis diverged"
    );
    assert_eq!(
        axis_bits(&fast.map.h_r),
        axis_bits(&dense.map.h_r),
        "{label}: H_R axis diverged"
    );
}

proptest! {
    // Each case runs a dense sweep plus a frontier trace; keep the case
    // count modest because the dense sweep is the expensive half.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn frontier_matches_dense_on_random_scenarios(
        c1_mbit in 0.8_f64..2.5,
        bursts in 4_usize..12,
        // Spans clearly-infeasible (empty map) through fully-feasible.
        deadline_ms in 1.0_f64..150.0,
        grid in 2_usize..8,
        n_active in 0_usize..5,
    ) {
        let net = HetNetwork::paper_topology();
        let active: Vec<PathInput> =
            (0..n_active).map(|k| background(k, 1.0 + 0.2 * k as f64)).collect();
        let spec = candidate(c1_mbit, bursts, deadline_ms);
        let d = dense(&net, &active, &spec, grid);
        let f = frontier(&net, &active, &spec, grid);
        assert_identical(&d, &f, &format!("grid {grid}, deadline {deadline_ms}ms"));
        prop_assert!(
            f.evals <= d.evals,
            "frontier did {} evals vs dense {}",
            f.evals,
            d.evals
        );
    }
}

#[test]
fn frontier_matches_dense_on_benchmark_grid() {
    // The benchmark configuration: 17×17 cells over 8 active
    // connections. This is the acceptance-criteria scenario: the
    // frontier must do ≤ 1/3 of the dense sweep's evaluations.
    let net = HetNetwork::paper_topology();
    let active: Vec<PathInput> = (0..8)
        .map(|k| background(k, 0.9 + 0.1 * k as f64))
        .collect();
    let spec = candidate(1.8, 6, 80.0);
    let d = dense(&net, &active, &spec, 17);
    let f = frontier(&net, &active, &spec, 17);
    assert_identical(&d, &f, "grid 17");
    assert!(
        !f.fell_back,
        "benchmark region is convex; no fallback expected"
    );
    assert!(
        f.evals * 3 <= d.evals,
        "frontier did {} evals vs dense {} (needs ≤ 1/3)",
        f.evals,
        d.evals
    );
    // A 17×17 sweep revisits each column's wire envelope 17 times and
    // every background-only mux every cell: the dense sweep's caches
    // must be earning their keep.
    assert!(d.stats.mux_hits > 0, "{:?}", d.stats);
    assert!(d.stats.stage1_hit_rate() > 0.5, "{:?}", d.stats);
}

#[test]
fn frontier_handles_degenerate_grids() {
    let net = HetNetwork::paper_topology();
    // Empty region (impossible deadline) and full region (lavish
    // deadline) on the smallest legal grid.
    for deadline_ms in [0.01, 400.0] {
        let spec = candidate(1.5, 6, deadline_ms);
        for grid in [2, 3] {
            let d = dense(&net, &[], &spec, grid);
            let f = frontier(&net, &[], &spec, grid);
            assert_identical(&d, &f, &format!("grid {grid}, deadline {deadline_ms}ms"));
        }
    }
}
