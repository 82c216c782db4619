//! Tier-1 check of the stage-1 wire table's level crossings.
//!
//! Every β-search probe builds the candidate's stage-1 wire table: the
//! Theorem-1 output of the source MAC, flattened, segmented by Theorem 2
//! into cells, and flattened again. The segmentation's jump points are
//! the instants the flattened MAC output crosses each multiple of the
//! frame size, which `Sampled::min_interval` solves in closed form. This
//! test pins those crossings, bit for bit, to the per-level bisection
//! they replace, on the paper topology at three allocations, so a
//! broken inversion fails plain `cargo test`.

use hetnet::cac::network::HetNetwork;
use hetnet::traffic::models::DualPeriodicEnvelope;
use hetnet::traffic::units::{Bits, BitsPerSec, Seconds};
use hetnet_fddi::frames;
use hetnet_fddi::mac::analyze_fddi_mac;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_ifdev::segment_envelope;
use hetnet_traffic::analysis::AnalysisConfig;
use hetnet_traffic::combinators::Sampled;
use hetnet_traffic::envelope::{min_interval_for, Envelope, SharedEnvelope};
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
