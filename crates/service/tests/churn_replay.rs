//! The service's defining property: a churn run's decisions are
//! bit-identical to driving a bare [`NetworkState`] through the same
//! merged connect/disconnect event stream by hand. The engine adds
//! scheduling and observability, never policy.
//!
//! The second half extends the property to crash recovery: checkpoint
//! a faulted run mid-stream, replay the remainder from the snapshot
//! plus the regenerated schedules, and demand the recovered engine
//! reproduce the recorded audit-log tail and final state bit for bit.

#[path = "support/recovery.rs"]
mod recovery;

use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::connection::{ConnectionId, ConnectionSpec};
use hetnet_cac::network::HetNetwork;
use hetnet_service::audit::AuditOutcome;
use hetnet_service::{run, ServiceConfig};
use hetnet_sim::churn;
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::units::Seconds;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Replays the schedule through a bare `NetworkState`, mirroring the
/// engine's event order: departures due at or before an arrival are
/// released first (ties by `(time, id)`), then the arrival is decided.
fn replay_bare(cfg: &ServiceConfig) -> (Vec<Decision>, Vec<ConnectionId>) {
    let schedule = churn::generate(&cfg.churn);
    let envelope: SharedEnvelope = Arc::new(schedule.source);
    let mut state = NetworkState::new(HetNetwork::paper_topology());
    state.persist_eval_cache(cfg.persist_cache);
    state.set_fast_path(cfg.fast_path).expect("empty state");
    let mut departures: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut decisions = Vec::with_capacity(schedule.arrivals.len());
    for a in &schedule.arrivals {
        while let Some(&Reverse((at_bits, id))) = departures.peek() {
            if Seconds::new(f64::from_bits(at_bits)) > a.at {
                break;
            }
            departures.pop();
            state.release(ConnectionId(id)).expect("replay release");
        }
        let spec = ConnectionSpec::builder()
            .source(a.source)
            .dest(a.dest)
            .envelope(Arc::clone(&envelope))
            .deadline(a.deadline)
            .build()
            .expect("replay spec");
        let decision = state.admit(spec, &cfg.options).expect("replay admit");
        if let Decision::Admitted { id, .. } = &decision {
            departures.push(Reverse(((a.at + a.holding).value().to_bits(), id.0)));
        }
        decisions.push(decision);
    }
    let active = state.active().iter().map(|c| c.id).collect();
    (decisions, active)
}

/// Bitwise comparison of a service audit outcome against a bare
/// decision (allocations and delay bounds compared via `to_bits`).
fn assert_outcome_matches(seq: usize, audit: &AuditOutcome, bare: &Decision) {
    match (audit, bare) {
        (
            AuditOutcome::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            },
            Decision::Admitted {
                id: bid,
                h_s: bhs,
                h_r: bhr,
                delay_bound: bdb,
            },
        ) => {
            assert_eq!(id, bid, "seq {seq}: id");
            assert_eq!(
                h_s.to_bits(),
                bhs.per_rotation().value().to_bits(),
                "seq {seq}: h_s"
            );
            assert_eq!(
                h_r.to_bits(),
                bhr.per_rotation().value().to_bits(),
                "seq {seq}: h_r"
            );
            assert_eq!(
                delay_bound.to_bits(),
                bdb.value().to_bits(),
                "seq {seq}: delay_bound"
            );
        }
        (AuditOutcome::Rejected { detail, .. }, Decision::Rejected(reason)) => {
            assert_eq!(detail, &reason.to_string(), "seq {seq}: reason");
        }
        (a, b) => panic!("seq {seq}: verdicts diverge: {a:?} vs {b:?}"),
    }
}

fn check_replay(mut cfg: ServiceConfig) {
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    let service = run(HetNetwork::paper_topology(), &cfg).expect("service run");
    let (bare, bare_active) = replay_bare(&cfg);
    assert_eq!(service.audit.len(), bare.len());
    for (entry, decision) in service.audit.entries().iter().zip(&bare) {
        assert_outcome_matches(entry.seq as usize, &entry.outcome, decision);
    }
    let service_active: Vec<ConnectionId> = service.state.active().iter().map(|c| c.id).collect();
    assert_eq!(service_active, bare_active, "final active sets diverge");
}

/// A faulted workload dense enough that most runs see teardowns and
/// re-admissions inside a short request budget.
fn faulted_cfg(rate: f64, requests: usize, seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::paper_style(rate, requests, seed);
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    cfg.faults = Some(recovery::dense_faults(seed));
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over random seeds and loads, every decision and the final
    /// active set match a hand-driven replay bit for bit.
    #[test]
    fn service_decisions_match_bare_replay(
        seed in 0u64..1_000_000,
        rate in 0.2f64..4.0,
        requests in 8usize..40,
    ) {
        check_replay(ServiceConfig::paper_style(rate, requests, seed));
    }

    /// Over random seeds and checkpoint positions, recovering a faulted
    /// run from a mid-stream snapshot reproduces the audit-log tail and
    /// the final state bit for bit.
    #[test]
    fn recovery_replays_faulted_runs(
        seed in 0u64..1_000_000,
        split in 10usize..50,
    ) {
        recovery::check_recovery(&faulted_cfg(2.0, 60, seed), split);
    }
}

/// One fixed heavy case pinned outside proptest so it always runs,
/// including the cold-cache configuration.
#[test]
fn replay_matches_on_pinned_heavy_seed() {
    let mut cfg = ServiceConfig::paper_style(3.0, 80, 20260805);
    cfg.persist_cache = false;
    check_replay(cfg);
}

/// Decision tracing only observes: a traced run records the same audit
/// log as an untraced one, reject details included, and ends in the
/// same state. On this paper-style schedule a reject's first failing
/// path in input order (an existing connection's deadline) and an
/// unstable receive server later in the closure disagree on what to
/// name, so a traced run that checked every path densely named the
/// server instead.
#[test]
fn tracing_never_changes_a_decision() {
    let mut traced_cfg = ServiceConfig::paper_style(0.1, 300, 42);
    traced_cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    traced_cfg.trace_decisions = true;
    let mut untraced_cfg = traced_cfg.clone();
    untraced_cfg.trace_decisions = false;
    let traced = run(HetNetwork::paper_topology(), &traced_cfg).expect("traced run");
    let untraced = run(HetNetwork::paper_topology(), &untraced_cfg).expect("untraced run");
    assert_eq!(traced.audit.len(), untraced.audit.len(), "audit length");
    for (t, u) in traced.audit.entries().iter().zip(untraced.audit.entries()) {
        assert_eq!(t, u, "seq {}: traced and untraced decisions diverge", t.seq);
    }
    assert_eq!(
        traced.state.snapshot().to_json(),
        untraced.state.snapshot().to_json(),
        "final snapshots diverge"
    );
}

/// A pinned recovery case that always runs: a dense faulted workload
/// checkpointed mid-outage (any split works; 40 of 120 lands inside
/// the fault window for this seed), plus the cold-cache configuration.
#[test]
fn recovery_matches_on_pinned_faulted_seed() {
    let mut cfg = faulted_cfg(2.0, 120, 20260805);
    recovery::check_recovery(&cfg, 40);
    cfg.persist_cache = false;
    recovery::check_recovery(&cfg, 40);
}
