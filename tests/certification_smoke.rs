//! Tier-1 smoke tests for the dense evaluator's envelope kernels and
//! for closure-scoped admission.
//!
//! The first replays the first 40 arrivals of the paper-style churn
//! workload pinned by `crates/service/tests/dense_golden.rs`, once with
//! the fast admission ladder and once with every decision on the dense
//! eq.-7 evaluator. Both audits must be identical and must equal the
//! golden file's first 40 lines bit for bit, so a kernel change that
//! moves a decision fails plain `cargo test`, not only the per-crate
//! gates.
//!
//! The second runs 40 arrivals of the full-network closure oracle
//! (`crates/service/tests/closure_oracle.rs`) on a grid with
//! neighbour-ring traffic, so a wrong dependency closure fails plain
//! `cargo test` too.
//!
//! The next two recover a faulted paper-style run from a mid-run
//! checkpoint — once plain, once through a live reconfiguration — and
//! demand the recorded audit tail and final state bit for bit
//! (`crates/service/tests/churn_replay.rs` and `reconfig_replay.rs`
//! hold the same certification over random seeds).
//!
//! The next two run the same faulted workloads through the sharded
//! engine and certify its decisions and final state against the
//! sequential engine's (`crates/service/tests/sharded_replay.rs` and
//! `reconfig_replay.rs` hold that over random schedules).
//!
//! The last replays the warm single-decision cycle that the
//! `request_latency_p99` bench times and holds its deterministic
//! fast-path ladder counts: both ladder sides fire and more than a
//! quarter of the β-probes short-circuit.

#[path = "../crates/service/tests/support/closure.rs"]
mod closure;
#[path = "../crates/service/tests/support/dense.rs"]
mod dense;
#[path = "../crates/service/tests/support/recovery.rs"]
mod recovery;

use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::incremental::FastPathStats;
use hetnet_cac::network::{HetNetwork, HostId};
use hetnet_cac::reconfig::ReconfigPlan;
use hetnet_service::audit::AuditKind;
use hetnet_service::{run, run_sharded, runs_equivalent, ReconfigEvent, ServiceConfig};
use hetnet_sim::churn::TrafficPattern;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::path::Path;
use std::sync::Arc;

const ARRIVALS: usize = 40;

#[test]
fn fast_and_dense_audits_match_the_golden_prefix() {
    let fast = dense::run(ARRIVALS, true);
    let dense_only = dense::run(ARRIVALS, false);
    assert_eq!(fast.len(), ARRIVALS, "one audit entry per arrival");
    assert_eq!(fast, dense_only, "the fast path changed a decision");

    let golden = dense::read_golden(
        &Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/service/tests/golden/dense_decisions.txt"),
    );
    assert!(
        golden.len() >= ARRIVALS,
        "golden shorter than the smoke run"
    );
    for (i, (got, want)) in fast.iter().zip(&golden).enumerate() {
        assert_eq!(got, want, "decision {i} drifted from the dense golden");
    }
}

#[test]
fn grid_decisions_match_the_full_network_oracle() {
    let cfg = closure::grid_config(8, TrafficPattern::Local(1), ARRIVALS, 11);
    let checked = closure::check(HetNetwork::grid(8, 3), &cfg);
    assert!(checked.admissions > 0, "no admission was checked");
    assert!(
        checked.narrowed > 0,
        "no admission was decided over less than the whole network"
    );
}

/// 60 paper-style arrivals at 2/s under the dense fault schedule.
fn faulted_cfg(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::paper_style(2.0, 60, seed);
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    cfg.faults = Some(recovery::dense_faults(seed));
    cfg
}

#[test]
fn faulted_checkpoint_recovery_replays_the_tail() {
    let kinds = recovery::check_recovery(&faulted_cfg(20260805), 25);
    assert!(
        kinds.contains(&AuditKind::Readmit),
        "the tail must exercise fault re-admission"
    );
}

/// The faulted workload with a live reconfiguration half-way through
/// the ~30 s run: retune TTRT and move β.
fn reconfigured_cfg(seed: u64) -> ServiceConfig {
    let mut cfg = faulted_cfg(seed);
    cfg.reconfigs = vec![ReconfigEvent {
        at: Seconds::new(15.0),
        plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0)).with_beta(0.3),
    }];
    cfg
}

#[test]
fn faulted_reconfigured_recovery_replays_the_tail() {
    let kinds = recovery::check_recovery(&reconfigured_cfg(20260808), 20);
    assert!(
        kinds.contains(&AuditKind::Reconfig),
        "the checkpoint must precede the reconfiguration"
    );
}

/// Sharded run vs sequential run of one config, two workers.
fn assert_sharded_matches(cfg: &ServiceConfig) {
    let sequential = run(HetNetwork::paper_topology(), cfg).expect("sequential run");
    let sharded = run_sharded(HetNetwork::paper_topology(), cfg, 2).expect("sharded run");
    assert!(
        runs_equivalent(&sharded, &sequential),
        "the sharded engine diverged from the sequential engine"
    );
    assert_eq!(sharded.report.recovery, sequential.report.recovery);
}

#[test]
fn faulted_sharded_run_matches_the_sequential_engine() {
    assert_sharded_matches(&faulted_cfg(20260805));
}

#[test]
fn faulted_reconfigured_sharded_run_matches_the_sequential_engine() {
    assert_sharded_matches(&reconfigured_cfg(20260808));
}

/// A connection whose `c1_mbit`-over-100-ms source is split into five
/// sub-bursts.
fn burst_spec(
    src: (usize, usize),
    dst: (usize, usize),
    c1_mbit: f64,
    deadline_ms: f64,
) -> ConnectionSpec {
    let envelope = DualPeriodicEnvelope::new(
        Bits::from_mbits(c1_mbit),
        Seconds::from_millis(100.0),
        Bits::from_mbits(c1_mbit / 5.0),
        Seconds::from_millis(20.0),
        BitsPerSec::from_mbps(100.0),
    )
    .expect("valid envelope");
    ConnectionSpec {
        source: HostId {
            ring: src.0,
            station: src.1,
        },
        dest: HostId {
            ring: dst.0,
            station: dst.1,
        },
        envelope: Arc::new(envelope),
        deadline: Seconds::from_millis(deadline_ms),
        class: 0,
    }
}

#[test]
fn warm_decision_cycle_exercises_both_ladder_sides() {
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    let mut state = NetworkState::new(HetNetwork::paper_topology());
    state.persist_eval_cache(true);
    state.set_fast_path(true).expect("empty state");
    for k in 0..3 {
        let bg = burst_spec(
            (k % 3, k % 4),
            ((k + 1) % 3, (k + 2) % 4),
            0.9 + 0.1 * k as f64,
            100.0,
        );
        assert!(
            matches!(
                state.admit(bg, &opts).expect("background admit"),
                Decision::Admitted { .. }
            ),
            "background connection {k} must be admissible"
        );
    }
    // Built once: the stage-1 cache keys envelopes by identity. Every
    // fourth decision is the 1 ms-deadline reject.
    let admit_spec = burst_spec((0, 1), (1, 2), 1.2, 120.0);
    let reject_spec = burst_spec((2, 1), (0, 2), 1.2, 1.0);
    let pick = |i: usize| {
        if i % 4 == 3 {
            reject_spec.clone()
        } else {
            admit_spec.clone()
        }
    };
    for i in 0..16 {
        if let Decision::Admitted { id, .. } = state.admit(pick(i), &opts).expect("warm-up") {
            state.release(id).expect("warm-up release");
        }
    }

    let mut fast = FastPathStats::default();
    let (mut admits, mut rejects) = (0u64, 0u64);
    for i in 0..300 {
        let decision = state.admit(pick(i), &opts).expect("decision");
        if let Some(stats) = state.last_fast_path_stats() {
            fast.merge(&stats);
        }
        match decision {
            Decision::Admitted { id, .. } => {
                admits += 1;
                state.release(id).expect("release");
            }
            Decision::Rejected(_) => rejects += 1,
        }
    }
    assert!(
        admits > 0 && rejects > 0,
        "mix degenerated: {admits} admits, {rejects} rejects"
    );
    assert!(
        fast.fast_accepts > 0 && fast.fast_rejects > 0,
        "fast path never fired on one side: {fast:?}"
    );
    assert!(
        fast.hit_rate() > 0.25,
        "fast-path hit rate {:.3} is at or below the 0.25 floor",
        fast.hit_rate()
    );
}
