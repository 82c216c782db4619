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
//! The last two run the same faulted workloads through the sharded
//! engine and certify its decisions and final state against the
//! sequential engine's (`crates/service/tests/sharded_replay.rs` and
//! `reconfig_replay.rs` hold that over random schedules).

#[path = "../crates/service/tests/support/closure.rs"]
mod closure;
#[path = "../crates/service/tests/support/dense.rs"]
mod dense;
#[path = "../crates/service/tests/support/recovery.rs"]
mod recovery;

use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::network::HetNetwork;
use hetnet_cac::reconfig::ReconfigPlan;
use hetnet_service::audit::AuditKind;
use hetnet_service::{run, run_sharded, runs_equivalent, ReconfigEvent, ServiceConfig};
use hetnet_sim::churn::TrafficPattern;
use hetnet_traffic::units::Seconds;
use std::path::Path;

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
