//! Checkpoint-recovery certification, shared by `churn_replay.rs`,
//! `reconfig_replay.rs`, and the workspace-root certification smoke
//! test.
//!
//! A run is checkpointed mid-stream and the remainder replayed from
//! the snapshot plus the regenerated schedules; the recovered engine
//! must reproduce the recorded audit-log tail and the final state bit
//! for bit, through faults, re-admissions, and live reconfigurations.

use hetnet_cac::network::HetNetwork;
use hetnet_service::audit::AuditKind;
use hetnet_service::{run, verify_recovery, ServiceConfig, ServiceEngine};
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::units::Seconds;

/// A fault schedule dense enough that short paper-style runs see
/// teardowns and re-admissions: an incident every ~8 s, outages of
/// ~4 s (at most 8 s), and 0.85 deadline shrinks.
pub fn dense_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        mean_gap: Seconds::new(8.0),
        mean_outage: Seconds::new(4.0),
        max_outage: Seconds::new(8.0),
        shrink_factor: Some(0.85),
        seed: seed ^ 0x5eed,
    }
}

/// Runs `cfg` once in full, checkpoints a second engine after `split`
/// arrivals, and verifies recovery replays the recorded tail bit for
/// bit: same audit tail, same final state. Returns the tail's entry
/// kinds for scenario-specific assertions.
pub fn check_recovery(cfg: &ServiceConfig, split: usize) -> Vec<AuditKind> {
    let full = run(HetNetwork::paper_topology(), cfg).expect("full run");
    // The log is gap-free across arrivals, re-admissions, *and*
    // reconfigurations: one sequence number per decision, so
    // index == seq.
    for (i, e) in full.audit.entries().iter().enumerate() {
        assert_eq!(e.seq as usize, i, "audit log must be gap-free");
    }
    let count = |kind: AuditKind| {
        full.audit
            .entries()
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    };
    assert_eq!(
        count(AuditKind::Arrival),
        cfg.churn.requests,
        "every scheduled arrival costs exactly one entry"
    );
    assert_eq!(
        count(AuditKind::Reconfig),
        cfg.reconfigs.len(),
        "every reconfiguration costs exactly one entry"
    );

    let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), cfg).expect("engine");
    for _ in 0..split {
        assert!(
            engine.step_arrival().expect("step"),
            "split exceeds schedule"
        );
    }
    let checkpoint = engine.checkpoint();
    let seq0 = checkpoint.decision_seq() as usize;
    drop(engine);

    let tail = &full.audit.entries()[seq0..];
    let recovered = verify_recovery(HetNetwork::paper_topology(), cfg, &checkpoint, tail)
        .expect("recovery must replay the recorded tail");
    assert_eq!(
        recovered.state.snapshot().to_json(),
        full.state.snapshot().to_json(),
        "recovered final state must be bit-identical to the original"
    );
    assert_eq!(recovered.audit.start(), seq0 as u64);
    tail.iter().map(|e| e.kind).collect()
}
