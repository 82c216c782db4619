//! Property test backing the CAC's use of Theorems 3–4: sampled
//! feasible regions are convex (single-run rows/columns/diagonals) for
//! randomized sources and deadlines.

use hetnet_cac::cac::CacConfig;
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::network::{HetNetwork, HostId};
use hetnet_cac::region::sample_region;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    // Region sampling is comparatively expensive; a handful of cases on
    // a modest grid is plenty to catch a non-convex regression.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sampled_regions_are_convex(
        c1_mbit in 0.8_f64..2.5,
        bursts in 4_usize..12,
        deadline_ms in 40.0_f64..150.0,
    ) {
        let p1 = Seconds::from_millis(100.0);
        let p2 = Seconds::from_millis(100.0 / bursts as f64);
        let c2 = Bits::from_mbits(c1_mbit / bursts as f64);
        let env = DualPeriodicEnvelope::new(
            Bits::from_mbits(c1_mbit),
            p1,
            c2,
            p2,
            BitsPerSec::from_mbps(100.0),
        )
        .expect("generated source valid");
        let spec = ConnectionSpec {
            source: HostId { ring: 0, station: 0 },
            dest: HostId { ring: 1, station: 0 },
            envelope: Arc::new(env),
            deadline: Seconds::from_millis(deadline_ms),
        class: 0,
        };
        let net = HetNetwork::paper_topology();
        let map = sample_region(
            &net,
            &[],
            &spec,
            Seconds::from_millis(7.2),
            Seconds::from_millis(7.2),
            7,
            &CacConfig::fast(),
        )
        .expect("well-formed request")
        .map;
        prop_assert_eq!(map.convexity_violations(), 0, "{}", map.ascii());
        // Monotone corners: if any point is feasible, the max corner is.
        if map.any_feasible() {
            prop_assert!(map.get(map.rows() - 1, map.cols() - 1), "{}", map.ascii());
        }
    }
}
