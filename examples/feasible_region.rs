//! Feasible region of allocations — the paper's Figure 6 as ASCII art.
//!
//! For a requesting connection, the set of `(H_S, H_R)` allocation pairs
//! satisfying every deadline is closed and convex (Theorems 3–4): a
//! rectangle whose lower-left boundary is carved away by the newcomer's
//! own deadline constraint. The CAC's line ζ runs through that region
//! from the minimum-needed to the maximum-available point, and β picks a
//! spot on it.
//!
//! Run with: `cargo run --release --example feasible_region`

use hetnet::cac::cac::CacConfig;
use hetnet::cac::connection::ConnectionSpec;
use hetnet::cac::network::{HetNetwork, HostId};
use hetnet::cac::region::sample_region;
use hetnet::traffic::models::DualPeriodicEnvelope;
use hetnet::traffic::units::{Bits, BitsPerSec, Seconds};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let net = HetNetwork::paper_topology();
    let cfg = CacConfig::fast();
    let source = Arc::new(DualPeriodicEnvelope::new(
        Bits::from_mbits(2.0),
        Seconds::from_millis(100.0),
        Bits::from_mbits(0.25),
        Seconds::from_millis(10.0),
        BitsPerSec::from_mbps(100.0),
    )?);

    for deadline_ms in [45.0, 60.0, 100.0] {
        let spec = ConnectionSpec {
            source: HostId {
                ring: 0,
                station: 0,
            },
            dest: HostId {
                ring: 1,
                station: 0,
            },
            envelope: Arc::clone(&source) as _,
            deadline: Seconds::from_millis(deadline_ms),
            class: 0,
        };
        let grid = 25;
        let sample = sample_region(
            &net,
            &[],
            &spec,
            Seconds::from_millis(7.2),
            Seconds::from_millis(7.2),
            grid,
            &cfg,
        )?;
        let map = sample.map;
        println!(
            "deadline = {deadline_ms} ms  (feasible fraction {:.0}%, \
             {} of {} cells evaluated by the frontier tracer)",
            map.feasible_fraction() * 100.0,
            sample.evals,
            grid * grid,
        );
        println!("{}", map.ascii());
        println!(
            "convexity violations on the grid: {}\n",
            map.convexity_violations()
        );
    }
    println!(
        "Tighter deadlines push the region's lower boundary up and right: the\n\
         connection needs more synchronous time on both rings, exactly the concave\n\
         bottom edge the paper sketches in Figure 6."
    );
    Ok(())
}
