//! Full-network oracle for closure-scoped admission, shared by
//! `crates/service/tests/closure_oracle.rs` and the workspace-root
//! certification smoke test.
//!
//! Both admission engines decide over the candidate's dependency
//! closure, so replaying one engine against the other no longer checks
//! scoping. This oracle checks every arrival decision against the
//! stateless eq.-7 evaluator run over the *entire* active set instead:
//!
//! * after an admission, every active connection meets its deadline and
//!   the newcomer's full-network bound equals its recorded
//!   `delay_bound` bit for bit;
//! * after an `InfeasibleAtMaximum` reject, the full set with the
//!   candidate at `(H_S^max, H_R^max)` is infeasible, and a missed
//!   deadline the reason names is the full network's first one.

use hetnet_cac::cac::RejectReason;
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::delay::{evaluate_paths, EvalOutcome, PathInput};
use hetnet_cac::network::HetNetwork;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_service::{AuditKind, AuditOutcome, ServiceConfig, ServiceEngine};
use hetnet_sim::churn::{ChurnConfig, TopologyShape, TrafficPattern};
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::sync::Arc;

/// What one oracle pass checked.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    /// Admissions re-evaluated over the full active set.
    pub admissions: usize,
    /// `InfeasibleAtMaximum` rejects re-derived over the full set.
    pub infeasible_rejects: usize,
    /// Largest active set an admission was checked against.
    pub peak_active: usize,
    /// Admissions decided over a closure smaller than the active set
    /// they joined.
    pub narrowed: usize,
}

/// A faulted, readmitting churn run on `grid(rings, 3)`: loaded enough
/// that deadlines bind (so some requests are rejected at the maximum
/// allocation), sparse enough that closures stay well below the active
/// set under `Paired` and `Local(1)` traffic.
pub fn grid_config(
    rings: usize,
    pattern: TrafficPattern,
    arrivals: usize,
    seed: u64,
) -> ServiceConfig {
    let mut cfg = ServiceConfig::paper_style(1.0, arrivals, seed);
    cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings,
            hosts_per_ring: 3,
        },
        pattern,
        source_weights: None,
        arrival_rate: 2.0,
        mean_holding: Seconds::new(40.0),
        max_holding: Seconds::new(120.0),
        deadline: (Seconds::from_millis(40.0), Seconds::from_millis(100.0)),
        source: DualPeriodicEnvelope::new(
            Bits::from_mbits(0.3),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.04),
            Seconds::from_millis(12.5),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid envelope"),
        requests: arrivals,
        seed,
    };
    cfg.trace_decisions = false;
    cfg.faults = Some(FaultConfig::paper_style(seed));
    cfg.readmit = true;
    cfg
}

/// Runs `cfg` on `net` arrival by arrival, checking every arrival
/// decision against the full-network evaluation (panics on a
/// mismatch).
pub fn check(net: HetNetwork, cfg: &ServiceConfig) -> Checked {
    assert!(cfg.classes <= 1, "the oracle rebuilds specs in class 0");
    let eval = cfg.options.cac.eval.clone();
    let envelope: SharedEnvelope = Arc::new(cfg.churn.source);
    let mut engine = ServiceEngine::new(net, cfg).expect("engine");
    let mut checked = Checked::default();
    while engine.step_arrival().expect("arrival step") {
        // The arrival is the step's last decision, so the state now is
        // the state right after it (right before it, for a reject).
        let entry = engine.audit().entries().last().expect("decided").clone();
        assert!(matches!(entry.kind, AuditKind::Arrival));
        let state = engine.state();
        let net = state.network();
        let mut inputs: Vec<PathInput> = state
            .active()
            .iter()
            .map(|c| PathInput::new(&c.spec, c.h_s, c.h_r))
            .collect();
        match &entry.outcome {
            AuditOutcome::Admitted {
                id, delay_bound, ..
            } => {
                let reports = match evaluate_paths(net, &inputs, &eval).expect("evaluate") {
                    EvalOutcome::Feasible(reports) => reports,
                    EvalOutcome::Infeasible(detail) => {
                        panic!("seq {}: admitted set is unstable: {detail}", entry.seq)
                    }
                };
                for (c, r) in state.active().iter().zip(&reports) {
                    assert!(
                        r.total <= c.spec.deadline,
                        "seq {}: admitting {id} pushed {} past its deadline",
                        entry.seq,
                        c.id
                    );
                }
                let newcomer = state.active().last().expect("newcomer is active");
                assert_eq!(newcomer.id, *id);
                assert_eq!(
                    reports
                        .last()
                        .expect("newcomer report")
                        .total
                        .value()
                        .to_bits(),
                    delay_bound.to_bits(),
                    "seq {}: scoped delay bound of {id} differs from the full-network one",
                    entry.seq
                );
                checked.admissions += 1;
                checked.peak_active = checked.peak_active.max(inputs.len());
                if state.last_closure_len().expect("decided") + 1 < inputs.len() {
                    checked.narrowed += 1;
                }
            }
            AuditOutcome::Rejected {
                class: "infeasible",
                detail,
            } if !detail.contains("failed to verify") => {
                let spec = ConnectionSpec::builder()
                    .source(entry.source)
                    .dest(entry.dest)
                    .envelope(Arc::clone(&envelope))
                    .deadline(Seconds::new(entry.deadline))
                    .build()
                    .expect("arrival spec");
                inputs.push(PathInput::new(
                    &spec,
                    SyncBandwidth::new(state.available_on(spec.source.ring)),
                    SyncBandwidth::new(state.available_on(spec.dest.ring)),
                ));
                // An unstable server at the maximum justifies the reject
                // whichever server the decision named: the screened
                // check stops at the first missed deadline, and a cached
                // detail names the host that first filled the entry.
                if let EvalOutcome::Feasible(reports) =
                    evaluate_paths(net, &inputs, &eval).expect("evaluate")
                {
                    let first_miss = state
                        .active()
                        .iter()
                        .zip(&reports)
                        .find(|(c, r)| r.total > c.spec.deadline);
                    let expected = match first_miss {
                        Some((c, _)) => format!("existing {} would miss its deadline", c.id),
                        None => {
                            assert!(
                                reports.last().expect("candidate").total > spec.deadline,
                                "seq {}: rejected at the maximum, but the full network \
                                 admits it there",
                                entry.seq
                            );
                            "requesting connection misses its deadline at (H_S^max, H_R^max)"
                                .to_string()
                        }
                    };
                    assert_eq!(
                        *detail,
                        RejectReason::InfeasibleAtMaximum { detail: expected }.to_string(),
                        "seq {}: reject reason differs from the full-network one",
                        entry.seq
                    );
                }
                checked.infeasible_rejects += 1;
            }
            AuditOutcome::Rejected { .. } | AuditOutcome::Reconfigured { .. } => {}
        }
    }
    checked
}
