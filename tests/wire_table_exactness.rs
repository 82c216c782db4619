//! Tier-1 checks of the stage-1 wire table: its level crossings, and
//! the flattened MAC output table it is segmented from.
//!
//! Every β-search probe builds the candidate's stage-1 wire table: the
//! Theorem-1 output of the source MAC, flattened, segmented by Theorem 2
//! into cells, and flattened again. The segmentation's jump points are
//! the instants the flattened MAC output crosses each multiple of the
//! frame size, which `Sampled::min_interval` solves in closed form. This
//! test pins those crossings, bit for bit, to the per-level bisection
//! they replace, on the paper topology at three allocations, so a
//! broken inversion fails plain `cargo test`.
//!
//! The MAC output table itself is the Theorem-1.4 maximum over the
//! staircase's maximizer candidates, of which `ServerOutput` scans only
//! those no other candidate dominates. A second test pins that table, bit
//! for bit, to the maximum over every candidate, recomputed here from
//! the public service curve.
//!
//! Those tables are built, and the receive side searched, with batch
//! evaluations (`Envelope::arrivals_sorted`): one call per layer of a
//! chain for a whole sorted list of points. A third test takes the wire
//! table through three multiplexer hops and reassembly, and pins every
//! layer's batch to its per-point values at the receive MAC's candidate
//! times.
//!
//! The receive MAC's busy-interval search settles an iteration from two
//! arrival probes per rotation of the staircase when they prove what its
//! grid would do: grow the horizon to a target that does not depend on
//! where the last violation lies, exhaust it, or close the search where
//! the staircase steps. Its maximization then inverts only the quantum
//! levels the grid cannot rule out. The last four tests pin the search on
//! that chain where the busy period ends past half the horizon
//! (exhausted), and, to the bit, the busy interval, backlog and delay
//! where the kernel closes the search, where it closes it at a first
//! horizon that is a whole number of rotations, and where it leaves
//! iterations to the grid.

use hetnet::cac::network::HetNetwork;
use hetnet::traffic::models::DualPeriodicEnvelope;
use hetnet::traffic::units::{Bits, BitsPerSec, Seconds};
use hetnet_atm::LinkConfig;
use hetnet_fddi::frames;
use hetnet_fddi::mac::{analyze_fddi_mac, mac_service};
use hetnet_fddi::ring::{RingConfig, SyncBandwidth};
use hetnet_fddi::FddiError;
use hetnet_ifdev::{reassemble_envelope, segment_envelope};
use hetnet_traffic::analysis::{AnalysisConfig, ServerOutput};
use hetnet_traffic::combinators::{Delayed, RateCapped, Sampled};
use hetnet_traffic::envelope::{candidate_times, min_interval_for, Envelope, SharedEnvelope};
use hetnet_traffic::service::ServiceCurve;
use hetnet_traffic::TrafficError;
use std::sync::Arc;

/// `EvalConfig::fast`'s flattening horizon and subdivisions.
const HORIZON: f64 = 0.6;
const SUBDIVISIONS: usize = 1;

fn paper_source() -> SharedEnvelope {
    Arc::new(
        DualPeriodicEnvelope::new(
            Bits::from_mbits(2.0),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.25),
            Seconds::from_millis(10.0),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid paper-style source"),
    )
}

/// `Quantized::breakpoints` as it was: the inner envelope's corners,
/// then each frame level inverted by the generic bisection.
fn per_level_reference(inner: &Sampled, frame: Bits, horizon: Seconds) -> Vec<u64> {
    let mut out = Vec::new();
    inner.breakpoints(horizon, &mut out);
    let n_frames = (inner.arrivals(horizon).value() / frame.value()).ceil() as u64;
    for k in 1..=n_frames.min(8192) {
        if let Some(t) = min_interval_for(inner, frame * k as f64, horizon) {
            if t > Seconds::ZERO && t <= horizon {
                out.push(t);
            }
        }
    }
    out.iter().map(|t| t.value().to_bits()).collect()
}

/// `EvalConfig::fast`'s analysis settings.
fn fast_analysis() -> AnalysisConfig {
    AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: Seconds::new(HORIZON),
        ..AnalysisConfig::default()
    }
}

/// The source MAC's output at `i` as the maximum over every Theorem-1.4
/// candidate `{0} ∪ {steps − ε} ∪ {B}` of its staircase, capped at the
/// ring rate: `ServerOutput::arrivals` before any candidate was dropped.
fn unpruned_mac_output(ring: &RingConfig, h_s: SyncBandwidth, busy: Seconds, i: Seconds) -> u64 {
    let service = mac_service(ring, h_s);
    let eps = (busy * 1.0e-9).max(Seconds::new(1.0e-12));
    let mut steps = Vec::new();
    service.breakpoints(busy, &mut steps);
    let mut ts = vec![Seconds::ZERO];
    ts.extend(steps.into_iter().map(|t| (t - eps).clamp_min_zero()));
    ts.push(busy);
    let source = paper_source();
    let mut best = 0.0_f64;
    for t in ts {
        best = best.max((source.arrivals(t + i) - service.provided(t)).value());
    }
    let unbounded = Bits::new(best.max(0.0));
    unbounded.min(ring.bandwidth * i).value().to_bits()
}

#[test]
fn paper_mac_output_table_matches_the_unpruned_maximum() {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let cfg = fast_analysis();
    for h_ms in [2.0, 2.4, 3.2, 4.0] {
        let h_s = SyncBandwidth::new(Seconds::from_millis(h_ms));
        let mac = analyze_fddi_mac(paper_source(), ring, h_s, net.host_buffer(), &cfg)
            .expect("the paper source is stable at this allocation");
        let flat = Sampled::flatten(mac.output, Seconds::new(HORIZON), SUBDIVISIONS);
        let (ts, vals) = flat.samples();
        assert!(ts.len() > 500, "h_s = {h_ms} ms: only {} samples", ts.len());
        for (&t, &v) in ts.iter().zip(vals) {
            let want = unpruned_mac_output(ring, h_s, mac.busy_interval, Seconds::new(t));
            assert_eq!(
                v.to_bits(),
                want,
                "h_s = {h_ms} ms: the sample at {t} s moved"
            );
        }

        // The same output, built directly, does drop candidates here.
        let output = ServerOutput::new(
            paper_source(),
            Arc::new(mac_service(ring, h_s)),
            mac.busy_interval,
            Some(ring.bandwidth),
            &cfg,
        );
        let (kept, total) = output.candidate_counts();
        assert!(kept < total, "h_s = {h_ms} ms: {kept} of {total} kept");
        println!("h_s = {h_ms} ms: {kept} of {total} candidates kept");
    }
}

#[test]
fn paper_wire_table_crossings_match_the_per_level_bisection() {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let horizon = Seconds::new(HORIZON);
    let cfg = AnalysisConfig {
        guard_subdivisions: 1,
        max_horizon: horizon,
        ..AnalysisConfig::default()
    };
    for h_ms in [2.0, 2.4, 3.2] {
        let h_s = SyncBandwidth::new(Seconds::from_millis(h_ms));
        let mac = analyze_fddi_mac(paper_source(), ring, h_s, net.host_buffer(), &cfg)
            .expect("the paper source is stable at this allocation");
        let flat = Arc::new(Sampled::flatten(mac.output, horizon, SUBDIVISIONS));
        let frame = frames::frame_size(ring, h_s);
        let seg = segment_envelope(Arc::clone(&flat) as SharedEnvelope, frame, net.ifdev());

        let mut got = Vec::new();
        seg.output_wire.breakpoints(horizon, &mut got);
        let got: Vec<u64> = got.iter().map(|t| t.value().to_bits()).collect();
        let want = per_level_reference(&flat, frame, horizon);
        assert!(
            want.len() > 50,
            "h_s = {h_ms} ms: only {} crossings",
            want.len()
        );
        assert_eq!(got, want, "h_s = {h_ms} ms: a level crossing moved");

        // The table built from those crossings is the stage-1 wire table.
        let wire = Sampled::flatten(seg.output_wire, horizon, SUBDIVISIONS);
        assert!(wire.len() > want.len());
    }
}

#[test]
fn paper_receive_chain_batches_match_per_point_values() {
    let net = HetNetwork::paper_topology();
    let (ring, ring_r) = (net.ring(0), net.ring(1));
    let horizon = Seconds::new(HORIZON);
    let h_s = SyncBandwidth::new(Seconds::from_millis(2.4));
    let mac = analyze_fddi_mac(
        paper_source(),
        ring,
        h_s,
        net.host_buffer(),
        &fast_analysis(),
    )
    .expect("the paper source is stable at this allocation");
    let flat = Arc::new(Sampled::flatten(mac.output, horizon, SUBDIVISIONS));
    let frame = frames::frame_size(ring, h_s);
    let seg = segment_envelope(Arc::clone(&flat) as SharedEnvelope, frame, net.ifdev());
    let wire = Arc::new(Sampled::flatten(seg.output_wire, horizon, SUBDIVISIONS));

    // Three multiplexer hops, `min(C·I, A(I + d))` each: every point
    // past 0.6 s − d reaches past the wire table into its inner chain.
    // The MAC output table under the wire table is checked too: the wire
    // table's steps hide most of its interpolation.
    let link = LinkConfig::oc3(Seconds::ZERO);
    let mut layers: Vec<SharedEnvelope> = vec![Arc::clone(&flat) as _, Arc::clone(&wire) as _];
    for delay_ms in [4.0, 2.0, 3.0] {
        let inner = Arc::clone(layers.last().expect("non-empty"));
        let delayed = Arc::new(Delayed::new(inner, Seconds::from_millis(delay_ms)));
        layers.push(Arc::new(RateCapped::new(delayed, link.rate)));
    }
    let last = Arc::clone(layers.last().expect("non-empty"));
    layers.push(reassemble_envelope(last, frame, net.ifdev()).output_frames);

    // The points the receive MAC's busy search evaluates its arrival at,
    // at its widest horizon, and the two tables' own samples.
    let arrival = layers.last().expect("non-empty");
    let mut steps = Vec::new();
    let h_r = SyncBandwidth::new(Seconds::from_millis(2.4));
    mac_service(ring_r, h_r).breakpoints(horizon, &mut steps);
    let mut ts = candidate_times(&[arrival], &steps, horizon, SUBDIVISIONS);
    assert!(ts.len() > 500, "only {} candidate times", ts.len());
    ts.extend_from_slice(wire.samples().0);
    ts.extend_from_slice(flat.samples().0);
    ts.sort_by(f64::total_cmp);
    for (depth, layer) in layers.iter().enumerate() {
        let mut got = Vec::new();
        layer.arrivals_sorted(&ts, &mut got);
        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = ts
            .iter()
            .map(|&t| layer.arrivals(Seconds::new(t)).value().to_bits())
            .collect();
        assert_eq!(got, want, "layer {depth} of the receive chain moved");
    }
}

/// The receive side of `cargo bench --bench analysis`'s
/// `receive_chain_busy_search`: the paper source's stage-1 wire table at
/// `h_s` behind three multiplexer hops, reassembled into frames.
fn receive_chain(h_s: SyncBandwidth) -> SharedEnvelope {
    let net = HetNetwork::paper_topology();
    let ring = net.ring(0);
    let horizon = Seconds::new(HORIZON);
    let mac = analyze_fddi_mac(
        paper_source(),
        ring,
        h_s,
        net.host_buffer(),
        &fast_analysis(),
    )
    .expect("the paper source is stable at this allocation");
    let flat = Arc::new(Sampled::flatten(mac.output, horizon, SUBDIVISIONS));
    let frame = frames::frame_size(ring, h_s);
    let seg = segment_envelope(flat, frame, net.ifdev());
    let mut chain: SharedEnvelope =
        Arc::new(Sampled::flatten(seg.output_wire, horizon, SUBDIVISIONS));
    let link = LinkConfig::oc3(Seconds::ZERO);
    for delay_ms in [4.0, 2.0, 3.0] {
        let delayed = Arc::new(Delayed::new(chain, Seconds::from_millis(delay_ms)));
        chain = Arc::new(RateCapped::new(delayed, link.rate));
    }
    reassemble_envelope(chain, frame, net.ifdev()).output_frames
}

/// The receive MAC (ring 1, no buffer limit) at `h_r_ms` behind
/// `receive_chain` at 2.4 ms, searched up to `max_horizon`.
fn receive_mac(h_r_ms: f64, max_horizon: f64) -> Result<hetnet_fddi::mac::MacReport, FddiError> {
    let net = HetNetwork::paper_topology();
    let h_s = SyncBandwidth::new(Seconds::from_millis(2.4));
    let cfg = AnalysisConfig {
        max_horizon: Seconds::new(max_horizon),
        ..fast_analysis()
    };
    let h_r = SyncBandwidth::new(Seconds::from_millis(h_r_ms));
    analyze_fddi_mac(receive_chain(h_s), net.ring(1), h_r, None, &cfg)
}

#[test]
fn receive_search_past_half_the_horizon_is_exhausted() {
    // At 1.92 ms the search's horizons are 0.128, 0.2816 and 0.5808 s,
    // then the 0.6 s cap; at 1.90 ms it jumps from 0.2816 s to the cap.
    // Both busy periods end in (0.3, 0.6) s, past half the cap.
    for (h_r_ms, busy_ms) in [(1.92, 328.0), (1.90, 352.0)] {
        let wide = receive_mac(h_r_ms, 4.8).expect("the busy period closes within 4.8 s");
        assert!(
            (wide.busy_interval.as_millis() - busy_ms).abs() < 1.0e-3,
            "h_r = {h_r_ms} ms: the busy period ends at {:?}",
            wide.busy_interval
        );
        match receive_mac(h_r_ms, HORIZON) {
            Err(FddiError::Analysis(TrafficError::HorizonExhausted { horizon })) => {
                assert_eq!(
                    horizon.value().to_bits(),
                    HORIZON.to_bits(),
                    "h_r = {h_r_ms} ms"
                );
            }
            other => panic!("h_r = {h_r_ms} ms: {other:?}"),
        }
    }
}

/// Asserts the receive MAC's busy interval, backlog and delay at `h_r_ms`
/// behind `receive_chain` at 2.4 ms, as bits, against `want`: values
/// from before the step-window kernel and the level skip existed.
fn assert_receive_bits(h_r_ms: f64, want: [u64; 3]) {
    let mac = receive_mac(h_r_ms, HORIZON).expect("the busy period closes within the horizon");
    let delay = mac.delay.bounded().expect("no buffer limit");
    assert_eq!(
        [
            mac.busy_interval.value().to_bits(),
            mac.buffer_required.value().to_bits(),
            delay.value().to_bits(),
        ],
        want,
        "h_r = {h_r_ms} ms: busy {:?}, backlog {:?}, delay {delay:?}",
        mac.busy_interval,
        mac.buffer_required
    );
}

#[test]
fn receive_search_closed_by_the_kernel_is_unchanged() {
    // The search's horizons are 0.128, 0.2816 and 0.5632 s. The grid
    // settles the first two; at 0.5632 s the step-window kernel closes
    // the search at 0.255999999744 s by bisecting the staircase alone.
    // Backlog 1,252,000 bits, delay 0.04911448289812186 s.
    assert_receive_bits(
        2.0,
        [0x3fd0624dd2ab4b96, 0x41331aa000000000, 0x3fa92588939d6187],
    );
}

#[test]
fn receive_search_settled_at_a_whole_rotation_horizon_is_unchanged() {
    // The first horizon, 0.128 s, is 16 rotations of 8 ms: a step end,
    // so the grid's last points sit on the next step. The kernel closes
    // the search there at 0.063999999936 s, just under half the horizon.
    // Backlog 1,152,000 bits, delay 0.03382874832309678 s.
    assert_receive_bits(
        3.0,
        [0x3fb0624dd2ab4b96, 0x4131940000000000, 0x3fa152006f6cb49e],
    );
}

#[test]
fn receive_search_the_kernel_leaves_to_the_grid_is_unchanged() {
    // The backlog outlasts the first horizon, 0.128 s: its last
    // violation lies past half of it, and the grow target reads where,
    // so the grid settles that iteration, and also the closing one at
    // 0.5632 s. Busy 0.16799999983199998 s, backlog 1,212,000 bits,
    // delay 0.04675999975200001 s.
    assert_receive_bits(
        2.1,
        [0x3fc581062480d334, 0x41327e6000000000, 0x3fa7f0ed3b6440f7],
    );
}
