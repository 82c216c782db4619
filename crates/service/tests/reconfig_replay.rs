//! Crash recovery through live reconfigurations: a churn run with
//! scheduled [`ReconfigEvent`]s checkpointed mid-stream must replay
//! the rest of the run bit for bit — same audit tail (including the
//! `Reconfig` entries), same final state — and a checkpoint taken
//! *just before* a reconfiguration must apply it as the recovered
//! engine's very first event.
//!
//! The sharded engine applies the same reconfigurations as a ledger
//! barrier. Its runs must certify against the sequential engine's, and
//! a checkpoint it takes on either side of a reconfiguration, with
//! workers still speculating, must resume on both engines.

#[path = "support/recovery.rs"]
mod recovery;

use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::network::HetNetwork;
use hetnet_cac::reconfig::ReconfigPlan;
use hetnet_service::audit::AuditKind;
use hetnet_service::{
    entries_equivalent, run, runs_equivalent, verify_recovery, ReconfigEvent, ServiceConfig,
    ShardedEngine,
};
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

/// Runs `cfg` through both engines and certifies the sharded run
/// against the sequential one; then resumes the checkpoint the sharded
/// run took after `split` arrivals on both engines and demands the
/// recorded tail and the final state. Returns how many
/// reconfigurations the tail replays.
fn check_sharded(cfg: &ServiceConfig, workers: usize, split: usize) -> usize {
    let sequential = run(HetNetwork::paper_topology(), cfg).expect("sequential run");
    let (sharded, ckpt) = ShardedEngine::new(HetNetwork::paper_topology(), cfg, workers)
        .expect("sharded engine")
        .checkpoint_after(split)
        .run()
        .expect("sharded run");
    assert!(
        runs_equivalent(&sharded, &sequential),
        "workers={workers}: sharded run diverged from sequential"
    );
    assert_eq!(sharded.report.reconfig, sequential.report.reconfig);
    let ckpt = ckpt.expect("requested checkpoint must be captured");
    let tail = &sequential.audit.entries()[ckpt.decision_seq() as usize..];
    let resumed = verify_recovery(HetNetwork::paper_topology(), cfg, &ckpt, tail)
        .expect("the sequential engine must resume the sharded cut");
    assert_eq!(
        resumed.state.snapshot().to_json(),
        sharded.final_snapshot.to_json()
    );
    let (rest, _) = ShardedEngine::recover(HetNetwork::paper_topology(), cfg, workers, &ckpt)
        .expect("sharded recover")
        .run()
        .expect("sharded resume");
    assert_eq!(rest.audit.len(), tail.len(), "sharded resume: tail length");
    for (got, want) in rest.audit.entries().iter().zip(tail) {
        assert!(
            entries_equivalent(got, want),
            "sharded resume diverged at seq {}: {got:?} vs {want:?}",
            want.seq
        );
    }
    assert_eq!(
        rest.final_snapshot.to_json(),
        sharded.final_snapshot.to_json()
    );
    tail.iter()
        .filter(|e| e.kind == AuditKind::Reconfig)
        .count()
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

/// The sharded engine over the reconfigured workload: checkpoints
/// before both reconfigurations, between them, and after both, with
/// one and three workers, and with faults layered on top.
#[test]
fn sharded_engine_replays_reconfigured_runs() {
    let mut cfg = reconfigured_cfg(2.0, 60, 20260808);
    for (split, reconfigs_ahead) in [(10, 2), (30, 1), (50, 0)] {
        for workers in [1, 3] {
            assert_eq!(check_sharded(&cfg, workers, split), reconfigs_ahead);
        }
    }
    cfg.faults = Some(recovery::dense_faults(20260808));
    assert_eq!(check_sharded(&cfg, 2, 30), 1);
}

/// A sharded checkpoint taken immediately before a reconfiguration:
/// both engines apply it as their first event after resuming.
#[test]
fn sharded_checkpoint_just_before_a_reconfiguration() {
    let (rate, requests, split) = (2.0, 60, 20);
    let arrivals = churn::generate(&ServiceConfig::paper_style(rate, requests, 777).churn).arrivals;
    let mut cfg = reconfigured_cfg(rate, requests, 777);
    cfg.reconfigs[0].at =
        Seconds::new((arrivals[split - 1].at.value() + arrivals[split].at.value()) / 2.0);
    assert_eq!(check_sharded(&cfg, 2, split), 2);
}
