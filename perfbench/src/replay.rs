//! Closed-loop replay passes through the public engine APIs, timed
//! from outside, plus the bare-state oracle `paper_churn` is checked
//! against.

use hetnet_cac::cac::{Decision, NetworkState};
use hetnet_cac::connection::{ConnectionId, ConnectionSpec};
use hetnet_cac::network::HetNetwork;
use hetnet_service::audit::{AuditKind, AuditOutcome};
use hetnet_service::{
    AuditLog, ServiceConfig, ServiceEngine, ServiceRun, ShardedEngine, ShardedRun,
};
use hetnet_sim::churn;
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::units::Seconds;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Reject classes the CAC decides from step-1 bounds alone, before any
/// β-search probe (so `last_fast_path_stats` is not refreshed).
const STEP1_REJECTS: [&str; 3] = ["source_exhausted", "dest_exhausted", "component_down"];

/// One traced `step_arrival` call. The arrival index is the span id.
#[derive(Clone, Copy, Debug)]
pub struct StepSpan {
    pub arrival: usize,
    /// Start, seconds since the pass began.
    pub start: f64,
    pub dur: f64,
    /// Decisions the step made (more than one when a repair readmits).
    pub decisions: u64,
    /// Whether the step's arrival decision reached the dense evaluator.
    pub dense: bool,
}

/// One sequential pass: per-step wall times, and with tracing the
/// per-step spans.
#[derive(Debug)]
pub struct SeqPass {
    pub step_s: Vec<f64>,
    pub spans: Vec<StepSpan>,
    /// Wall time of the whole step loop.
    pub loop_s: f64,
    /// Arrivals whose `step_arrival` call was made.
    pub attempted: u64,
    /// The `CacError` that ended the pass early, if any.
    pub error: Option<String>,
    /// The finished run (`None` after an error or a `limit`).
    pub run: Option<ServiceRun>,
}

/// Steps `engine` through its schedule, one arrival per call, then
/// finishes it. With `limit`, stops after that many arrivals and drops
/// the engine unfinished (`run` is `None`).
pub fn seq_pass(mut engine: ServiceEngine, traced: bool, limit: Option<usize>) -> SeqPass {
    let mut step_s = Vec::with_capacity(engine.pending_arrivals());
    let mut spans = Vec::with_capacity(if traced { step_s.capacity() } else { 0 });
    let mut error = None;
    let mut attempted = 0;
    let t0 = Instant::now();
    while limit.is_none_or(|n| step_s.len() < n) {
        let before = engine.state().decisions();
        let start = Instant::now();
        let stepped = engine.step_arrival();
        let dur = start.elapsed().as_secs_f64();
        match stepped {
            Ok(false) => break,
            Ok(true) => attempted += 1,
            Err(e) => {
                attempted += 1;
                error = Some(e.to_string());
                break;
            }
        }
        if traced {
            spans.push(StepSpan {
                arrival: step_s.len(),
                start: (start - t0).as_secs_f64(),
                dur,
                decisions: engine.state().decisions() - before,
                dense: reached_dense(&engine),
            });
        }
        step_s.push(dur);
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let run = if error.is_none() && limit.is_none() {
        match engine.finish() {
            Ok(run) => Some(run),
            Err(e) => {
                error = Some(e.to_string());
                None
            }
        }
    } else {
        None
    };
    SeqPass {
        step_s,
        spans,
        loop_s,
        attempted,
        error,
        run,
    }
}

/// Whether the last step's arrival decision ran any probe densely. The
/// arrival is always the step's last decision, so the state's last
/// fast-path stats are its own unless a step-1 reject skipped the
/// search (those never reach the evaluator).
fn reached_dense(engine: &ServiceEngine) -> bool {
    let last = engine.audit().entries().last();
    if let Some(AuditOutcome::Rejected { class, .. }) = last.map(|e| &e.outcome) {
        if STEP1_REJECTS.contains(class) {
            return false;
        }
    }
    engine
        .state()
        .last_fast_path_stats()
        .is_some_and(|s| s.fallbacks > 0 || s.no_context > 0)
}

/// One sharded pass: the single `run` call, with the process CPU time
/// it used.
#[derive(Debug)]
pub struct ShardedPass {
    pub run_s: f64,
    pub cpu_s: f64,
    pub result: Result<ShardedRun, String>,
}

pub fn sharded_pass(engine: ShardedEngine) -> ShardedPass {
    let cpu0 = crate::stats::process_cpu_s();
    let t0 = Instant::now();
    let result = engine.run().map(|(run, _)| run).map_err(|e| e.to_string());
    let run_s = t0.elapsed().as_secs_f64();
    ShardedPass {
        run_s,
        cpu_s: crate::stats::process_cpu_s() - cpu0,
        result,
    }
}

/// Whether `audit` is gap-free from sequence 0 and holds exactly one
/// arrival entry per scheduled arrival, in schedule order.
pub fn audit_gap_free(audit: &AuditLog, arrivals: u64) -> bool {
    let entries = audit.entries();
    let seq_ok = audit.start() == 0 && entries.iter().zip(0u64..).all(|(e, i)| e.seq == i);
    let mut next = 0usize;
    for e in entries.iter().filter(|e| e.kind == AuditKind::Arrival) {
        if e.arrival != next {
            return false;
        }
        next += 1;
    }
    seq_ok && next as u64 == arrivals
}

/// Share of arrivals (not readmissions) the run admitted.
pub fn arrival_admission(audit: &AuditLog) -> (u64, u64) {
    let arrivals = audit
        .entries()
        .iter()
        .filter(|e| e.kind == AuditKind::Arrival);
    arrivals.fold((0, 0), |(admitted, n), e| {
        (admitted + u64::from(e.outcome.is_admitted()), n + 1)
    })
}

/// Replays the first `prefix` arrivals of `cfg`'s schedule through a
/// bare [`NetworkState`] in the engine's event order (departures due at
/// or before an arrival first, ties by `(time, id)`) and checks every
/// decision bit for bit against the engine's audit log. Only valid for
/// fault-free schedules on the paper topology. Returns the first
/// mismatch.
pub fn check_bare_replay(
    cfg: &ServiceConfig,
    audit: &AuditLog,
    prefix: usize,
) -> Result<(), String> {
    let schedule = churn::generate(&cfg.churn);
    let envelope: SharedEnvelope = Arc::new(schedule.source);
    let mut state = NetworkState::new(HetNetwork::paper_topology());
    state.persist_eval_cache(cfg.persist_cache);
    state.set_decision_tracing(cfg.trace_decisions);
    state
        .set_fast_path(cfg.fast_path)
        .map_err(|e| format!("oracle fast path: {e}"))?;
    let mut departures: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    if audit.len() < prefix {
        return Err(format!(
            "audit holds {} decisions, oracle needs {prefix}",
            audit.len()
        ));
    }
    for (i, (a, entry)) in schedule
        .arrivals
        .iter()
        .zip(audit.entries())
        .take(prefix)
        .enumerate()
    {
        while let Some(&Reverse((at_bits, id))) = departures.peek() {
            if Seconds::new(f64::from_bits(at_bits)) > a.at {
                break;
            }
            departures.pop();
            state
                .release(ConnectionId(id))
                .map_err(|e| format!("oracle release: {e}"))?;
        }
        let spec = ConnectionSpec::builder()
            .source(a.source)
            .dest(a.dest)
            .envelope(Arc::clone(&envelope))
            .deadline(a.deadline)
            .build()
            .map_err(|e| format!("oracle spec: {e}"))?;
        let decision = state
            .admit(spec, &cfg.options)
            .map_err(|e| format!("oracle admit: {e}"))?;
        if !outcome_matches(&entry.outcome, &decision) {
            return Err(format!(
                "arrival {i}: engine {:?} vs bare {decision:?}",
                entry.outcome
            ));
        }
        if let Decision::Admitted { id, .. } = &decision {
            departures.push(Reverse(((a.at + a.holding).value().to_bits(), id.0)));
        }
    }
    Ok(())
}

/// Bitwise comparison of an audit outcome against a bare decision.
fn outcome_matches(audit: &AuditOutcome, bare: &Decision) -> bool {
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
            id == bid
                && h_s.to_bits() == bhs.per_rotation().value().to_bits()
                && h_r.to_bits() == bhr.per_rotation().value().to_bits()
                && delay_bound.to_bits() == bdb.value().to_bits()
        }
        (AuditOutcome::Rejected { detail, .. }, Decision::Rejected(reason)) => {
            *detail == reason.to_string()
        }
        _ => false,
    }
}
