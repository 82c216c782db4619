//! The §7 extension: an IEEE 802.5 token-ring LAN segment in place of
//! the source FDDI ring.
//!
//! The paper's final remarks note that the methodology extends to other
//! legacy LANs: "if the LAN segments are IEEE 802.5 token rings, one
//! only needs to analyze an 802.5_MAC server in addition to the servers
//! that have been analyzed in this paper." This example composes exactly
//! that path by hand from the library's servers:
//!
//! `802.5_MAC → delay line → ID_S (stages + Theorem 2) → ATM output
//! port → backbone link → egress port → ID_R → FDDI_R MAC`
//!
//! and prints the end-to-end worst-case budget.
//!
//! Run with: `cargo run --release --example token_ring_segment`

use hetnet::atm::{ClassedFlow, LinkConfig, Scheduler, SchedulerAnalysis, SwitchConfig};
use hetnet::fddi::ieee8025::{analyze_8025_station, Ieee8025Config};
use hetnet::fddi::mac::analyze_fddi_mac;
use hetnet::fddi::ring::{RingConfig, SyncBandwidth};
use hetnet::ifdev::{reassemble_envelope, segment_envelope, IfDevConfig};
use hetnet::traffic::analysis::AnalysisConfig;
use hetnet::traffic::envelope::SharedEnvelope;
use hetnet::traffic::models::PeriodicEnvelope;
use hetnet::traffic::units::{Bits, BitsPerSec, Seconds};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let cfg = AnalysisConfig::default();
    let ifdev = IfDevConfig::typical();
    let access = LinkConfig::oc3(Seconds::from_micros(5.0));
    let switch = SwitchConfig::typical();

    // A 16 Mb/s 802.5 ring with three stations; ours holds a 2 ms
    // token-holding budget.
    let ring_8025 = Ieee8025Config {
        bandwidth: BitsPerSec::from_mbps(16.0),
        walk_time: Seconds::from_micros(50.0),
        holding_times: vec![
            Seconds::from_millis(2.0),
            Seconds::from_millis(1.0),
            Seconds::from_millis(1.0),
        ],
    };

    // 1 Mb/s of sensor telemetry: 50 kbit every 50 ms.
    let source: SharedEnvelope = Arc::new(PeriodicEnvelope::new(
        Bits::from_kbits(50.0),
        Seconds::from_millis(50.0),
        BitsPerSec::from_mbps(16.0),
    )?);

    println!("802.5 -> ATM -> FDDI path, server by server:\n");

    // --- 802.5_MAC server (the one new analysis the paper calls for) ---
    let mac = analyze_8025_station(Arc::clone(&source), &ring_8025, 0, &cfg)?;
    println!(
        "  802.5_MAC      : {:7.3} ms  (buffer {:.1} kbit)",
        mac.delay_bound.as_millis(),
        mac.buffer_required.value() / 1e3
    );

    // --- delay line + ID_S constant stages -----------------------------
    let prop_8025 = Seconds::from_micros(40.0);
    println!("  delay line     : {:7.3} ms", prop_8025.as_millis());
    println!(
        "  ID_S stages    : {:7.3} ms",
        ifdev.sender_fixed_delay().as_millis()
    );

    // --- Theorem-2 segmentation; then the device's ATM output port -----
    // 802.5 frames: up to ~4 kbit at our telemetry sizes.
    let frame = Bits::from_kbits(4.0);
    let seg = segment_envelope(mac.output, frame, &ifdev);
    println!(
        "  segmentation   : {:7.3} ms  ({} cells/frame)",
        seg.delay_bound.as_millis(),
        seg.cells_per_frame
    );

    let (uplink, after_uplink) = fifo_port(Arc::clone(&seg.output_wire), &access, &cfg)?;
    println!("  uplink port    : {:7.3} ms", uplink.as_millis());

    // --- one backbone hop + egress port --------------------------------
    let (backbone_hop, after_hop) = fifo_port(after_uplink, &access, &cfg)?;
    let (egress, delivered) = fifo_port(after_hop, &access, &cfg)?;
    let atm_fixed = 2.0 * (access.propagation + switch.fabric_latency) + access.propagation;
    let atm_total = uplink + backbone_hop + egress + atm_fixed;
    println!("  ATM (3 ports)  : {:7.3} ms", atm_total.as_millis());

    // --- ID_R + FDDI_R --------------------------------------------------
    println!(
        "  ID_R stages    : {:7.3} ms",
        ifdev.receiver_fixed_delay().as_millis()
    );
    let rea = reassemble_envelope(delivered, frame, &ifdev);
    let fddi = RingConfig::standard();
    let h_r = SyncBandwidth::new(Seconds::from_micros(200.0)); // 2.5 Mb/s
    let mac_r = analyze_fddi_mac(rea.output_frames, &fddi, h_r, None, &cfg)?;
    let chi_r = mac_r.delay.bounded().expect("no buffer limit configured");
    println!(
        "  FDDI_R MAC     : {:7.3} ms  (H_R = {:.2} ms/rotation)",
        chi_r.as_millis(),
        h_r.per_rotation().as_millis()
    );
    println!("  FDDI_R ring    : {:7.3} ms", fddi.propagation.as_millis());

    let total = mac.delay_bound
        + prop_8025
        + ifdev.sender_fixed_delay()
        + seg.delay_bound
        + atm_total
        + ifdev.receiver_fixed_delay()
        + chi_r
        + fddi.propagation;
    println!("\n  end-to-end     : {:7.3} ms", total.as_millis());
    println!(
        "\nSwapping the legacy segment changed exactly one analysis (the 802.5 MAC);\n\
         every other server is reused verbatim — the paper's §7 claim."
    );
    Ok(())
}

/// One FIFO output port carrying `flow` alone: its queueing delay and
/// the flow's envelope after the port, `min(C·I, A(I + d))`.
fn fifo_port(
    flow: SharedEnvelope,
    link: &LinkConfig,
    cfg: &AnalysisConfig,
) -> Result<(Seconds, SharedEnvelope), Box<dyn Error>> {
    let port = Scheduler::Fifo.analyze(&[ClassedFlow::new(Arc::clone(&flow), 0)], link, cfg)?;
    let out = Scheduler::Fifo.flow_output(flow, port.delay_bound, link);
    Ok((port.delay_bound, out))
}
