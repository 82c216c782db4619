//! Crash recovery through live reconfigurations: a churn run with
//! scheduled [`ReconfigEvent`]s checkpointed mid-stream must replay
//! the rest of the run bit for bit — same audit tail (including the
//! `Reconfig` entries), same final state — and a checkpoint taken
//! *just before* a reconfiguration must apply it as the recovered
//! engine's very first event.

#[path = "support/recovery.rs"]
mod recovery;

use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::reconfig::ReconfigPlan;
use hetnet_service::audit::AuditKind;
use hetnet_service::{ReconfigEvent, ServiceConfig};
use hetnet_sim::churn;
use hetnet_traffic::units::Seconds;
use proptest::prelude::*;
use recovery::check_recovery;

/// A paper-style churn workload with two mid-run reconfigurations: a
/// TTRT shrink to 5 ms a third of the way in, then a grow to 12 ms
/// with a β retune at two thirds.
fn reconfigured_cfg(rate: f64, requests: usize, seed: u64) -> ServiceConfig {
    let span = requests as f64 / rate;
    let mut cfg = ServiceConfig::paper_style(rate, requests, seed);
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    cfg.reconfigs = vec![
        ReconfigEvent {
            at: Seconds::new(span * 0.33),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(5.0)),
        },
        ReconfigEvent {
            at: Seconds::new(span * 0.66),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0)).with_beta(0.3),
        },
    ];
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over random seeds and checkpoint positions, recovering a
    /// reconfigured run from a mid-stream snapshot reproduces the
    /// audit-log tail and the final state bit for bit — whether the
    /// checkpoint lands before, between, or after the two events.
    #[test]
    fn recovery_replays_reconfigured_runs(
        seed in 0u64..1_000_000,
        split in 5usize..55,
    ) {
        check_recovery(&reconfigured_cfg(2.0, 60, seed), split);
    }
}

/// A pinned case that always runs, with faults layered on top of the
/// reconfig schedule and the cold-cache configuration: teardown,
/// renegotiation, and recovery arithmetic all interleave in one run.
#[test]
fn recovery_matches_on_pinned_faulted_reconfigured_seed() {
    let mut cfg = reconfigured_cfg(2.0, 100, 20260808);
    cfg.faults = Some(recovery::dense_faults(20260808));
    let kinds = check_recovery(&cfg, 30);
    assert!(
        kinds.contains(&AuditKind::Reconfig),
        "a split of 30 of 100 must leave at least one reconfiguration in the tail"
    );
    cfg.persist_cache = false;
    check_recovery(&cfg, 30);
}

/// Checkpoint taken *immediately before* a scheduled reconfiguration:
/// the recovered engine's first applied event is the reconfig itself,
/// and the replay still lands on identical bits. This is the nastiest
/// recovery position — the snapshot carries the old ring parameters
/// and the very next event swaps them out.
#[test]
fn reconfigure_fires_first_after_recover() {
    let rate = 2.0;
    let requests = 60;
    let cfg0 = ServiceConfig::paper_style(rate, requests, 777);
    let arrivals = churn::generate(&cfg0.churn).arrivals;
    // Place the event in the half-open gap after the 20th arrival, so
    // a checkpoint at split=20 has the reconfig as its next due event.
    let split = 20;
    let at = Seconds::new((arrivals[split - 1].at.value() + arrivals[split].at.value()) / 2.0);
    let mut cfg = reconfigured_cfg(rate, requests, 777);
    cfg.reconfigs[0].at = at;

    let kinds = check_recovery(&cfg, split);
    assert_eq!(
        kinds.first(),
        Some(&AuditKind::Reconfig),
        "the reconfiguration must be the first entry the recovered engine replays"
    );
}
