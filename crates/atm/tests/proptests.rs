//! Property-based tests for the ATM substrate: FIFO multiplexer bound
//! invariants and routing properties.

use hetnet_atm::topology::{Backbone, SwitchId};
use hetnet_atm::{
    ClassedFlow, LinkConfig, SchedReport, Scheduler, SchedulerAnalysis, SwitchConfig,
};
use hetnet_traffic::analysis::AnalysisConfig;
use hetnet_traffic::envelope::{Envelope, SharedEnvelope};
use hetnet_traffic::models::LeakyBucketEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;
use std::sync::Arc;

fn flows_strategy() -> impl Strategy<Value = Vec<SharedEnvelope>> {
    proptest::collection::vec(
        (1.0e3_f64..5.0e5, 1.0_f64..25.0), // sigma bits, rho Mb/s
        1..8,
    )
    .prop_filter("keep the aggregate stable", |params| {
        params.iter().map(|(_, rho)| rho).sum::<f64>() < 150.0
    })
    .prop_map(|params| {
        params
            .into_iter()
            .map(|(sigma, rho)| {
                Arc::new(
                    LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::from_mbps(rho)).unwrap(),
                ) as SharedEnvelope
            })
            .collect()
    })
}

/// The FIFO multiplexer analysis of `flows` (all in class 0) on `link`.
fn fifo(flows: &[SharedEnvelope], link: &LinkConfig) -> SchedReport {
    let classed: Vec<ClassedFlow> = flows
        .iter()
        .map(|f| ClassedFlow::new(Arc::clone(f), 0))
        .collect();
    Scheduler::Fifo
        .analyze(&classed, link, &AnalysisConfig::default())
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The multiplexer delay bound equals the classic closed form for
    /// leaky-bucket aggregates: sum(sigma)/C, with backlog sum(sigma).
    #[test]
    fn mux_matches_leaky_bucket_closed_form(flows in flows_strategy()) {
        let link = LinkConfig::oc3(Seconds::ZERO);
        let report = fifo(&flows, &link);
        let total_sigma: f64 = flows.iter().map(|f| f.burst().value()).sum();
        let expect_delay = total_sigma / link.rate.value();
        prop_assert!(
            (report.delay_bound.value() - expect_delay).abs() <= 1e-9 + 1e-6 * expect_delay,
            "delay {} != {expect_delay}",
            report.delay_bound.value()
        );
        prop_assert!(
            (report.backlog_bound.value() - total_sigma).abs() <= 1e-3 + 1e-6 * total_sigma
        );
    }

    /// Adding a flow never shrinks the delay or backlog bound. (An
    /// empty flow set is a contract error, so the comparison needs at
    /// least two flows; a singleton trivially dominates an idle port.)
    #[test]
    fn mux_monotone_in_flow_set(flows in flows_strategy()) {
        if flows.len() < 2 {
            return;
        }
        let link = LinkConfig::oc3(Seconds::ZERO);
        let all = fifo(&flows, &link);
        let fewer = fifo(&flows[..flows.len() - 1], &link);
        prop_assert!(fewer.delay_bound <= all.delay_bound + Seconds::from_nanos(1.0));
        prop_assert!(fewer.backlog_bound.value() <= all.backlog_bound.value() + 1e-6);
    }

    /// Per-flow outputs stay capped at the link rate and dominate the
    /// input at large horizons.
    #[test]
    fn per_flow_output_sound(flows in flows_strategy()) {
        let link = LinkConfig::oc3(Seconds::ZERO);
        let report = fifo(&flows, &link);
        let flow = Arc::clone(&flows[0]);
        let out = Scheduler::Fifo.flow_output(Arc::clone(&flow), report.delay_bound, &link);
        for k in 1..50 {
            let i = Seconds::new(k as f64 * 0.01);
            prop_assert!(out.arrivals(i) <= link.rate * i + Bits::new(1e-6));
            // With the delay shift, the output envelope dominates the
            // input's arrivals over the same interval.
            prop_assert!(
                out.arrivals(i) >= flow.arrivals(i).min(link.rate * i) - Bits::new(1e-3)
            );
        }
    }

    /// Minimum-hop routing on random fully-meshed backbones is always a
    /// single hop; on lines it equals the index distance.
    #[test]
    fn routing_hop_counts(n in 2_usize..8, a in 0_usize..8, b in 0_usize..8) {
        let a = a % n;
        let b = b % n;
        let link = LinkConfig::oc3(Seconds::from_micros(5.0));
        let mesh = Backbone::fully_meshed(n, SwitchConfig::typical(), link);
        let r = mesh.route(SwitchId(a as u32), SwitchId(b as u32)).unwrap();
        prop_assert_eq!(r.len(), usize::from(a != b));

        let line = Backbone::line(n, SwitchConfig::typical(), link);
        let r = line.route(SwitchId(a as u32), SwitchId(b as u32)).unwrap();
        prop_assert_eq!(r.len(), a.abs_diff(b));
        // The route is connected end to end.
        let mut at = SwitchId(a as u32);
        for l in &r {
            prop_assert_eq!(line.link_source(*l), at);
            at = line.link_target(*l);
        }
        prop_assert_eq!(at, SwitchId(b as u32));
    }
}
