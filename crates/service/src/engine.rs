//! The sequential admission engine: the shared event loop deciding on
//! one flat [`NetworkState`].
//!
//! [`ServiceEngine`] is [`EventCore`] over the [`Flat`] decider. The
//! core consumes the churn schedule as a merged stream of departure,
//! fault, reconfiguration and arrival events in time order (ties:
//! departure < fault < reconfig < arrival, so a released allocation is
//! available to a simultaneous request). Each arrival becomes one
//! [`NetworkState::admit`] call under the configured
//! [`AdmissionOptions`], so a service run is — by construction —
//! decision-for-decision identical to driving the bare state machine in
//! the same event order.
//!
//! Fault events come from the seeded [`hetnet_sim::fault`] schedule: a
//! component failure tears down every connection crossing it (the CAC
//! reclaims its synchronous bandwidth), a repair optionally re-admits
//! the torn-down connections greedily, and a deadline shrink evicts
//! connections whose admission-time bound no longer fits. Scheduled
//! [`ReconfigEvent`]s retune the rings live and renegotiate the
//! admitted set. Every fault-driven decision lands in the same gap-free
//! audit log as the scheduled arrivals, tagged [`AuditKind::Readmit`].
//!
//! Because the churn and fault schedules are pure functions of the
//! config, the whole run is reproducible from `(config, seed)` — and,
//! with [`ServiceEngine::checkpoint`] / [`ServiceEngine::recover`],
//! from a [`StateSnapshot`]-based checkpoint plus the audit-log tail:
//! [`verify_recovery`] replays the remainder of a run from a checkpoint
//! and fails with [`CacError::SnapshotMismatch`] unless every replayed
//! decision is bit-identical to the recorded one.
//!
//! [`StateSnapshot`]: hetnet_cac::snapshot::StateSnapshot
//! [`AuditKind::Readmit`]: crate::audit::AuditKind::Readmit

use crate::audit::{AuditEntry, AuditLog, AuditOutcome};
use crate::event::{admit_observed, Decided, Decider, EngineCheckpoint, EventCore, Request};
use crate::metrics::UtilizationSeries;
use crate::observability::{spans_to_json, ObsOptions, TelemetryFrame};
use crate::report::ServiceReport;
use hetnet_cac::cac::{AdmissionOptions, NetworkState, TeardownReport};
use hetnet_cac::connection::{ActiveConnection, ConnectionId};
use hetnet_cac::error::CacError;
use hetnet_cac::network::{Component, HetNetwork, Scheduler};
use hetnet_cac::reconfig::{ReconfigPlan, ReconfigReport};
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_cac::trace::DecisionTrace;
use hetnet_obs::Trace;
use hetnet_sim::churn::ChurnConfig;
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::units::Seconds;
use std::time::Instant;

/// A scheduled live reconfiguration: at event-stream time `at`, apply
/// `plan` via [`NetworkState::reconfigure`], renegotiating the whole
/// admitted set and parking any victims for greedy re-admission.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReconfigEvent {
    /// Event-stream time the reconfiguration fires.
    pub at: Seconds,
    /// The parameter change to apply.
    pub plan: ReconfigPlan,
}

/// Configuration of one service run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The churn workload to generate and consume.
    pub churn: ChurnConfig,
    /// Admission options applied to every request.
    pub options: AdmissionOptions,
    /// Ring-utilization sampling period, in processed events.
    pub sample_period: usize,
    /// Whether to carry the evaluator cache across decisions
    /// (admission-neutral; see the core crate's cache tests).
    pub persist_cache: bool,
    /// Whether to run the incremental fast-path decision ladder ahead
    /// of the dense evaluator (decision-neutral by construction; the
    /// core crate's `fast_path` certification tests pin bit-identical
    /// outcomes).
    pub fast_path: bool,
    /// Whether the state emits a [`hetnet_cac::trace::DecisionTrace`]
    /// per decision, feeding the report's delay attribution. Admission-
    /// neutral; costs one trace allocation per decision.
    pub trace_decisions: bool,
    /// Seeded fault schedule injected into the run; `None` disables
    /// fault injection entirely.
    pub faults: Option<FaultConfig>,
    /// Whether a component repair greedily re-admits the connections
    /// its failure tore down (ignored without fault injection).
    pub readmit: bool,
    /// Backbone scheduling discipline installed on the network before
    /// the run starts; `None` keeps whatever the supplied
    /// [`HetNetwork`] already uses (FIFO for
    /// [`HetNetwork::paper_topology`]).
    pub scheduler: Option<Scheduler>,
    /// Number of backbone traffic classes the churn connections spread
    /// over. The class is derived from the source host as
    /// `(ring + station) % classes`, so the churn schedule itself is
    /// bit-identical across settings; `0` or `1` keeps every
    /// connection in class 0 (the FIFO behavior).
    pub classes: u8,
    /// Observability knobs: span collection, periodic telemetry, and
    /// flight-recorder sizing. Decision-neutral by construction.
    pub obs: ObsOptions,
    /// Scheduled live reconfigurations, applied in time order between
    /// the surrounding events (ties: departure < fault < reconfig <
    /// arrival). A plan's β, once applied, governs every subsequent
    /// admission of the run.
    pub reconfigs: Vec<ReconfigEvent>,
}

impl ServiceConfig {
    /// A paper-style workload under default β-search options, without
    /// fault injection.
    #[must_use]
    pub fn paper_style(arrival_rate: f64, requests: usize, seed: u64) -> Self {
        Self {
            churn: ChurnConfig::paper_style(arrival_rate, requests, seed),
            options: AdmissionOptions::default(),
            sample_period: 16,
            persist_cache: true,
            fast_path: true,
            trace_decisions: true,
            faults: None,
            readmit: true,
            scheduler: None,
            classes: 1,
            obs: ObsOptions::default(),
            reconfigs: Vec::new(),
        }
    }

    /// Installs a backbone scheduler (and the number of traffic
    /// classes the churn connections spread over) for the run.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler, classes: u8) -> Self {
        self.scheduler = Some(scheduler);
        self.classes = classes;
        self
    }

    /// Adds a fault schedule to the run.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Adds a live-reconfiguration schedule to the run (the engine
    /// applies the events in time order regardless of the order given
    /// here).
    #[must_use]
    pub fn with_reconfigs(mut self, reconfigs: Vec<ReconfigEvent>) -> Self {
        self.reconfigs = reconfigs;
        self
    }
}

/// Everything a run produces: the aggregate report, the full audit
/// log, the utilization series, and the final network state.
#[derive(Debug)]
pub struct ServiceRun {
    /// Aggregate metrics.
    pub report: ServiceReport,
    /// Decision-ordered audit log (one entry per decision; for a
    /// recovered engine this is the post-checkpoint tail).
    pub audit: AuditLog,
    /// Sampled ring-utilization time series.
    pub series: UtilizationSeries,
    /// The state after the last event, still holding the connections
    /// whose departures lie beyond the final arrival.
    pub state: NetworkState,
    /// Telemetry frames retained at run end (empty unless
    /// [`ObsOptions::telemetry_period`] was set).
    pub telemetry: Vec<TelemetryFrame>,
}

/// The sequential engine's [`Decider`]: one flat [`NetworkState`],
/// deciding each request over the candidate's dependency closure.
#[derive(Debug)]
pub struct Flat {
    state: NetworkState,
    /// The last decision's span timeline, when spans are collected.
    spans: Option<Trace>,
}

impl Decider for Flat {
    fn workers(&self) -> usize {
        0
    }

    fn set_clock(&mut self, at: Seconds) {
        self.state.set_clock(at);
    }

    fn active_count(&self) -> usize {
        self.state.active().len()
    }

    fn filter_active<T>(&self, f: impl FnMut(&ActiveConnection) -> Option<T>) -> Vec<T> {
        self.state.active().iter().filter_map(f).collect()
    }

    fn ring_load(&self, caps: &[f64]) -> Vec<f64> {
        caps.iter()
            .enumerate()
            .map(|(r, &cap)| cap - self.state.available_on(r).value())
            .collect()
    }

    fn release(&mut self, id: ConnectionId) -> Result<(), CacError> {
        self.state.release(id)
    }

    fn set_component_down(&mut self, component: Component) -> Result<TeardownReport, CacError> {
        self.state.set_component_down(component)
    }

    fn set_component_up(&mut self, component: Component) -> Result<bool, CacError> {
        self.state.set_component_up(component)
    }

    fn reconfigure(
        &mut self,
        plan: &ReconfigPlan,
        options: &AdmissionOptions,
    ) -> Result<ReconfigReport, CacError> {
        self.state.reconfigure(plan, options)
    }

    fn snapshot(&self, _decision_seq: u64) -> StateSnapshot {
        // The flat state counts its own decisions.
        self.state.snapshot()
    }

    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), CacError> {
        self.state.restore(snap)
    }

    fn decide(&mut self, req: Request<'_>) -> Result<Decided, CacError> {
        let t0 = Instant::now();
        let (decision, spans) =
            admit_observed(&mut self.state, req.spec, &req.cfg.options, &req.cfg.obs)?;
        let latency_seconds = t0.elapsed().as_secs_f64();
        self.spans = spans;
        Ok(Decided {
            decision,
            latency_seconds,
            closure: self.state.last_closure_len().unwrap_or_default(),
            cache: self.state.last_cache_stats().unwrap_or_default(),
            fast: self.state.last_fast_path_stats().unwrap_or_default(),
            commit: None,
            shard: None,
        })
    }

    fn last_trace(&self) -> Option<&DecisionTrace> {
        self.state.last_decision_trace()
    }

    fn spans_json(&self) -> String {
        self.spans.as_ref().map_or_else(
            || "[]".to_string(),
            |t| spans_to_json(&[("decide", None, t)], None),
        )
    }
}

/// The stepwise sequential engine: [`ServiceEngine::new`] positions it
/// at the start of the schedule, [`ServiceEngine::step_arrival`]
/// processes one arrival (plus every event due before it), and
/// [`ServiceEngine::finish`] runs to completion and assembles the
/// [`ServiceRun`]. The free function [`run`] does all three.
pub type ServiceEngine = EventCore<Flat>;

impl ServiceEngine {
    /// Builds an engine positioned before the first event of `cfg`'s
    /// schedules.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidRequest`] if the churn workload is
    /// malformed or its shape does not match the network, or the
    /// scheduler, class count or a reconfiguration plan is invalid.
    pub fn new(network: HetNetwork, cfg: &ServiceConfig) -> Result<Self, CacError> {
        Self::build(network, cfg, |network| {
            let mut state = NetworkState::new(network);
            state.persist_eval_cache(cfg.persist_cache);
            state.set_fast_path(cfg.fast_path)?;
            state.set_decision_tracing(cfg.trace_decisions);
            Ok(Flat { state, spans: None })
        })
    }

    /// Rebuilds an engine mid-run from a checkpoint taken by either
    /// engine: the network state is restored bit-for-bit from the
    /// snapshot, the churn and fault schedules are regenerated from
    /// `cfg`, and the scheduling state (departures, parked connections,
    /// cursors) comes from the checkpoint. Stepping the result
    /// reproduces the original run's remaining decisions exactly.
    ///
    /// Metrics (counters, latency, utilization, recovery) restart at
    /// zero and cover only the post-checkpoint segment; the audit log
    /// resumes at the checkpoint's decision sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::SnapshotMismatch`] if the snapshot does not
    /// fit the network or the cursors exceed the regenerated schedules,
    /// plus anything [`ServiceEngine::new`] can return.
    pub fn recover(
        network: HetNetwork,
        cfg: &ServiceConfig,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self, CacError> {
        Self::new(network, cfg)?.resume(checkpoint)
    }

    /// The network state as of the last processed event.
    #[must_use]
    pub fn state(&self) -> &NetworkState {
        &self.decider.state
    }

    /// Processes the next scheduled arrival, after every departure,
    /// fault and reconfiguration due at or before it. Returns `false`
    /// when the schedule is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates any [`CacError`] from the underlying admissions and
    /// releases (rejections are outcomes, not errors).
    pub fn step_arrival(&mut self) -> Result<bool, CacError> {
        self.step()
    }

    /// Runs every remaining event and assembles the [`ServiceRun`].
    ///
    /// # Errors
    ///
    /// Propagates any [`CacError`] from the remaining events.
    pub fn finish(mut self) -> Result<ServiceRun, CacError> {
        self.run_to_end()?;
        // The evaluator cache only accelerates this engine's next
        // decision; decisions never depend on it. A finished run does
        // not carry it: on paper-style churn it holds up to a thousand
        // flattened stage-1 envelopes (tens of MiB) that whoever keeps
        // the run around would otherwise pin.
        let _ = self.decider.state.take_eval_cache();
        Ok(ServiceRun {
            report: self.close(),
            audit: self.audit,
            series: self.series,
            state: self.decider.state,
            telemetry: self.telemetry_ring.drain(),
        })
    }
}

/// Runs the churn workload of `cfg` against `network` to completion.
///
/// # Errors
///
/// Returns [`CacError::InvalidRequest`] if the churn workload is
/// malformed or its shape does not match the network, and propagates
/// any [`CacError`] from the underlying admissions (rejections are
/// outcomes, not errors).
pub fn run(network: HetNetwork, cfg: &ServiceConfig) -> Result<ServiceRun, CacError> {
    ServiceEngine::new(network, cfg)?.finish()
}

/// Recovers an engine from `checkpoint`, replays the remainder of the
/// run, and verifies every replayed decision matches the recorded
/// audit-log tail (`tail` must be the original run's entries from the
/// checkpoint's decision sequence onwards): admissions bit-identical
/// in id, allocations, and delay bound; rejections identical in reason
/// class. A rejection's free-text *detail* may name a different
/// infeasible component — it is evaluator-cache sensitive, and the
/// recovered engine's cache has a different warm-up history (the
/// engine's persistent-cache test pins the same tolerance).
///
/// # Errors
///
/// Returns [`CacError::SnapshotMismatch`] if the replay diverges from
/// the recorded log in length or in any entry, plus anything
/// [`ServiceEngine::recover`] can return.
pub fn verify_recovery(
    network: HetNetwork,
    cfg: &ServiceConfig,
    checkpoint: &EngineCheckpoint,
    tail: &[AuditEntry],
) -> Result<ServiceRun, CacError> {
    let engine = ServiceEngine::recover(network, cfg, checkpoint)?;
    let run = engine.finish()?;
    if run.audit.len() != tail.len() {
        return Err(CacError::SnapshotMismatch(format!(
            "recovered run produced {} decisions, the audit tail records {}",
            run.audit.len(),
            tail.len()
        )));
    }
    for (got, want) in run.audit.entries().iter().zip(tail) {
        if !entries_equivalent(got, want) {
            return Err(CacError::SnapshotMismatch(format!(
                "recovered decision {} diverged from the audit log: \
                 replayed {got:?}, recorded {want:?}",
                got.seq
            )));
        }
    }
    Ok(run)
}

/// Bit-level equivalence of two audit entries, modulo the rejection
/// diagnostic string (see [`verify_recovery`]): context fields and
/// admissions compare bitwise, rejections by reason class. This is the
/// certification predicate both recovery and the sharded engine's
/// decision-equivalence checks use.
#[must_use]
pub fn entries_equivalent(a: &AuditEntry, b: &AuditEntry) -> bool {
    let context_matches = a.seq == b.seq
        && a.at.value().to_bits() == b.at.value().to_bits()
        && a.kind == b.kind
        && a.arrival == b.arrival
        && a.source == b.source
        && a.dest == b.dest
        && a.deadline.to_bits() == b.deadline.to_bits();
    if !context_matches {
        return false;
    }
    match (&a.outcome, &b.outcome) {
        (
            AuditOutcome::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            },
            AuditOutcome::Admitted {
                id: id2,
                h_s: h_s2,
                h_r: h_r2,
                delay_bound: delay_bound2,
            },
        ) => {
            id == id2
                && h_s.to_bits() == h_s2.to_bits()
                && h_r.to_bits() == h_r2.to_bits()
                && delay_bound.to_bits() == delay_bound2.to_bits()
        }
        (AuditOutcome::Rejected { class, .. }, AuditOutcome::Rejected { class: class2, .. }) => {
            class == class2
        }
        (
            AuditOutcome::Reconfigured {
                renegotiated,
                dropped,
                unchanged,
            },
            AuditOutcome::Reconfigured {
                renegotiated: renegotiated2,
                dropped: dropped2,
                unchanged: unchanged2,
            },
        ) => renegotiated == renegotiated2 && dropped == dropped2 && unchanged == unchanged2,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditKind;
    use crate::metrics::RecoveryMetrics;
    use hetnet_cac::cac::CacConfig;
    use hetnet_cac::incremental::FastPathStats;
    use hetnet_sim::churn::TrafficPattern;

    fn smoke_cfg() -> ServiceConfig {
        // High enough rate to saturate the rings and force rejections.
        let mut cfg = ServiceConfig::paper_style(2.0, 60, 17);
        cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        cfg
    }

    /// A churn workload with a dense fault schedule: incidents every
    /// ~8 s over a ~`requests / 2.0` s run.
    fn faulted_cfg(requests: usize, seed: u64) -> ServiceConfig {
        let mut cfg = ServiceConfig::paper_style(2.0, requests, seed);
        cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        cfg.faults = Some(FaultConfig {
            mean_gap: Seconds::new(8.0),
            mean_outage: Seconds::new(4.0),
            max_outage: Seconds::new(8.0),
            shrink_factor: Some(0.85),
            seed: seed ^ 0x5eed,
        });
        cfg
    }

    #[test]
    fn scheduler_config_threads_through_the_run() {
        for scheduler in [
            Scheduler::Iwrr {
                weights: vec![2, 1],
            },
            Scheduler::Drr { quanta: vec![3, 2] },
        ] {
            let cfg = smoke_cfg().with_scheduler(scheduler.clone(), 2);
            let arm = run(HetNetwork::paper_topology(), &cfg).unwrap();
            assert_eq!(arm.state.network().scheduler(), &scheduler);
            assert!(
                arm.report.counters.admitted > 0,
                "no admissions under {scheduler}"
            );
            // Both classes actually occur in the admitted set: the class
            // is (ring + station) % 2, and the paper-style workload
            // spreads sources over every host.
            let classes: std::collections::BTreeSet<u8> =
                arm.state.active().iter().map(|c| c.spec.class).collect();
            assert!(
                classes.len() == 2 || arm.state.active().len() < 2,
                "expected both classes in the admitted set under {scheduler}, got {classes:?}"
            );
            // Non-FIFO bounds come from the dense evaluator: no ladder
            // probe ever ran, and the skips carry the dedicated cause.
            let fp = &arm.report.fast_path;
            assert_eq!(fp.probes(), 0, "fast path must sit out {scheduler}");
            let idx = hetnet_cac::incremental::SKIP_CAUSES
                .iter()
                .position(|&c| c == "non-fifo-scheduler")
                .expect("cause registered");
            assert!(
                fp.skip_causes[idx] > 0,
                "non-FIFO skip cause never fired under {scheduler}"
            );
        }

        // An explicit single-class FIFO is the default engine: the
        // scheduler plumbing must be the identity for it.
        let fifo = super::run(
            HetNetwork::paper_topology(),
            &smoke_cfg().with_scheduler(Scheduler::Fifo, 1),
        )
        .unwrap();
        let default = super::run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        assert_eq!(fifo.audit.len(), default.audit.len());
        for (a, b) in fifo.audit.entries().iter().zip(default.audit.entries()) {
            assert!(entries_equivalent(a, b), "{a:?} vs {b:?}");
        }
        assert_eq!(
            fifo.state.snapshot().to_json(),
            default.state.snapshot().to_json(),
            "explicit FIFO must end in the default engine's state"
        );
    }

    #[test]
    fn invalid_scheduler_config_is_rejected_up_front() {
        let cfg = smoke_cfg().with_scheduler(Scheduler::Iwrr { weights: vec![] }, 1);
        let err = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(matches!(err, CacError::InvalidRequest(ref m) if m.contains("scheduler")));

        let cfg = smoke_cfg().with_scheduler(Scheduler::Drr { quanta: vec![3, 2] }, 3);
        let err = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(
            matches!(err, CacError::InvalidRequest(ref m) if m.contains("classes")),
            "3 classes over a 2-entry quantum map must be rejected"
        );
    }

    #[test]
    fn run_produces_admits_and_rejects() {
        let run = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        let r = &run.report;
        assert_eq!(r.requests, 60);
        // Every decision was traced, and every rejection's trace named
        // the binding constraint that decided it.
        let d = &r.delay_attribution;
        assert_eq!(d.traced, 60);
        assert_eq!(d.rejects_with_binding, r.counters.rejected());
        assert_eq!(d.bindings.total(), r.counters.rejected());
        // Every admit (and every reject that got past the bandwidth
        // pre-checks) evaluated a path decomposition.
        assert!(d.total.count >= r.counters.admitted && d.total.count <= 60);
        assert_eq!(d.slack.count, r.counters.admitted);
        assert_eq!(d.atm.count, d.fddi_s.count);
        assert!(d.total.max >= d.atm.max);
        assert_eq!(r.topology, "3 rings x 4 hosts, 3 switches, 6 links");
        assert!(r.counters.admitted > 0, "no admissions: {r:?}");
        assert!(r.counters.rejected() > 0, "no rejections: {r:?}");
        assert_eq!(r.counters.total(), 60);
        assert_eq!(r.audit_len, 60);
        assert_eq!(r.latency.count, 60);
        assert!(r.latency.p99 >= r.latency.p50);
        assert!(r.blocking_probability > 0.0 && r.blocking_probability < 1.0);
        assert!(r.cache.evals() > 0);
        assert_eq!(r.ring_utilization.len(), 3);
        assert!(r.peak_active >= r.final_active);
        assert_eq!(r.final_active, run.state.active().len());
        // No faults configured: the recovery section is all-zero.
        assert_eq!(r.recovery, RecoveryMetrics::default());
    }

    #[test]
    fn audit_is_gap_free_and_matches_counters() {
        let run = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        let admitted = run
            .audit
            .entries()
            .iter()
            .filter(|e| e.outcome.is_admitted())
            .count() as u64;
        assert_eq!(admitted, run.report.counters.admitted);
        for (i, e) in run.audit.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.arrival, i);
            assert_eq!(e.kind, AuditKind::Arrival);
        }
        // Times never decrease along the log.
        for w in run.audit.entries().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn runs_are_deterministic_in_decisions() {
        let a = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        let b = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        assert_eq!(a.audit.entries(), b.audit.entries());
        assert_eq!(a.report.counters, b.report.counters);
    }

    #[test]
    fn tracing_is_admission_neutral_and_off_means_empty_attribution() {
        let traced = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        let mut cfg = smoke_cfg();
        cfg.trace_decisions = false;
        let untraced = run(HetNetwork::paper_topology(), &cfg).unwrap();
        assert_eq!(traced.audit.entries(), untraced.audit.entries());
        assert_eq!(traced.report.counters, untraced.report.counters);
        let d = &untraced.report.delay_attribution;
        assert_eq!(d.traced, 0);
        assert_eq!(d.rejects_with_binding, 0);
        assert_eq!(d.bindings.total(), 0);
        assert_eq!(d.total.count, 0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut cfg = smoke_cfg();
        cfg.churn.shape.rings = 5;
        let err = run(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(matches!(err, CacError::InvalidRequest(_)), "{err}");
    }

    /// Builds an engine over `smoke_cfg()` broken by `brk` and expects
    /// an up-front `InvalidRequest` naming `want`, never a panic.
    fn churn_rejected(brk: impl FnOnce(&mut ChurnConfig), want: &str) {
        let mut cfg = smoke_cfg();
        brk(&mut cfg.churn);
        let err = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(
            matches!(err, CacError::InvalidRequest(ref m) if m.contains(want)),
            "{err} should name {want:?}"
        );
    }

    #[test]
    fn inverted_deadline_range_is_an_error() {
        churn_rejected(
            |c| c.deadline = (Seconds::from_millis(100.0), Seconds::from_millis(50.0)),
            "deadline",
        );
    }

    #[test]
    fn non_positive_deadline_is_an_error() {
        churn_rejected(|c| c.deadline.0 = Seconds::ZERO, "deadline");
    }

    #[test]
    fn non_positive_arrival_rate_is_an_error() {
        churn_rejected(|c| c.arrival_rate = 0.0, "arrival rate");
        churn_rejected(|c| c.arrival_rate = f64::NAN, "arrival rate");
    }

    #[test]
    fn non_positive_holding_bounds_are_an_error() {
        churn_rejected(|c| c.mean_holding = Seconds::ZERO, "holding");
        churn_rejected(|c| c.max_holding = Seconds::new(-1.0), "holding");
    }

    #[test]
    fn source_weights_of_the_wrong_length_are_an_error() {
        churn_rejected(
            |c| c.source_weights = Some(vec![1.0; 2]),
            "one source weight",
        );
    }

    #[test]
    fn negative_or_zero_sum_source_weights_are_an_error() {
        churn_rejected(
            |c| c.source_weights = Some(vec![1.0, -1.0, 1.0]),
            "non-negative",
        );
        churn_rejected(|c| c.source_weights = Some(vec![0.0; 3]), "positive sum");
    }

    #[test]
    fn local_zero_pattern_is_an_error() {
        churn_rejected(|c| c.pattern = TrafficPattern::Local(0), "k >= 1");
    }

    #[test]
    fn persistent_cache_does_not_change_outcomes() {
        let mut warm = smoke_cfg();
        warm.persist_cache = true;
        let mut cold = smoke_cfg();
        cold.persist_cache = false;
        let a = run(HetNetwork::paper_topology(), &warm).unwrap();
        let b = run(HetNetwork::paper_topology(), &cold).unwrap();
        // Admissions (ids, allocations, delay bounds) must be
        // bit-identical; a rejection's *class* must match too, but its
        // diagnostic detail may name a different failing constraint —
        // cache hits change which infeasible component the evaluator
        // reaches first, not whether the point is infeasible.
        for (w, c) in a.audit.entries().iter().zip(b.audit.entries()) {
            match (&w.outcome, &c.outcome) {
                (
                    crate::audit::AuditOutcome::Rejected { class: wc, .. },
                    crate::audit::AuditOutcome::Rejected { class: cc, .. },
                ) => assert_eq!(wc, cc, "seq {}", w.seq),
                (wo, co) => assert_eq!(wo, co, "seq {}", w.seq),
            }
        }
        assert_eq!(a.report.counters, b.report.counters);
    }

    #[test]
    fn fast_path_is_decision_neutral_and_reports_probes() {
        let mut on = faulted_cfg(120, 13);
        on.fast_path = true;
        let mut off = faulted_cfg(120, 13);
        off.fast_path = false;
        let a = run(HetNetwork::paper_topology(), &on).unwrap();
        let b = run(HetNetwork::paper_topology(), &off).unwrap();
        // Unlike the cache-persistence tolerance, the fast path must be
        // *fully* decision-neutral: it substitutes probe booleans, not
        // evaluation order, so even rejection details agree.
        assert_eq!(a.audit.entries(), b.audit.entries());
        assert_eq!(a.report.counters, b.report.counters);
        let f = &a.report.fast_path;
        assert!(f.probes() > 0, "ladder never ran: {f:?}");
        assert!(
            f.fast_accepts + f.fast_rejects > 0,
            "ladder decided nothing: {f:?}"
        );
        assert_eq!(b.report.fast_path, FastPathStats::default());
    }

    #[test]
    fn faulted_run_drains_and_reclaims() {
        let cfg = faulted_cfg(200, 11);
        let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let rec = &run.report.recovery;
        assert!(rec.faults_injected > 0, "no faults fired: {rec:?}");
        assert_eq!(rec.undrained, 0, "faults left components down: {rec:?}");
        assert_eq!(rec.components_downed, rec.components_restored);
        assert!(rec.connections_dropped > 0, "no teardowns: {rec:?}");
        assert!(rec.reclaimed_s > 0.0 && rec.reclaimed_r > 0.0);
        assert!(rec.max_time_to_drain > 0.0);
        assert!(rec.readmit_attempts >= rec.readmitted);
        assert!(
            rec.readmitted > 0,
            "no torn-down connection came back: {rec:?}"
        );
        assert_eq!(run.state.down_components(), vec![]);
        // Every decision — scheduled or fault-driven — is audited.
        assert_eq!(run.report.audit_len as u64, run.report.requests);
        assert!(run.report.requests >= 200, "readmits add decisions");
        for (i, e) in run.audit.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64, "audit log must stay gap-free");
        }
        let readmits = run
            .audit
            .entries()
            .iter()
            .filter(|e| e.kind == AuditKind::Readmit)
            .count() as u64;
        assert_eq!(readmits, rec.readmit_attempts);
        assert!(readmits > 0, "expected re-admission attempts: {rec:?}");
        // Reclaimed bandwidth is really back: per ring, available ==
        // allocatable - sum of held allocations (to float tolerance;
        // the core's snapshot tests pin the bit-exact version).
        let mut held_s = [0.0f64; 3];
        let mut held_r = [0.0f64; 3];
        for c in run.state.active() {
            held_s[c.spec.source.ring] += c.h_s.per_rotation().value();
            held_r[c.spec.dest.ring] += c.h_r.per_rotation().value();
        }
        for ring in 0..3 {
            let cap = run.state.network().rings()[ring].allocatable().value();
            let available = run.state.available_on(ring).value();
            let held = held_s[ring] + held_r[ring];
            assert!(
                (cap - available - held).abs() < 1e-12,
                "ring {ring}: cap {cap} - available {available} != held {held}"
            );
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let cfg = faulted_cfg(120, 29);
        let a = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let b = run(HetNetwork::paper_topology(), &cfg).unwrap();
        assert_eq!(a.audit.entries(), b.audit.entries());
        assert_eq!(a.report.counters, b.report.counters);
        assert_eq!(a.report.recovery, b.report.recovery);
        assert_eq!(
            a.state.snapshot().to_json(),
            b.state.snapshot().to_json(),
            "final states must be bit-identical"
        );
    }

    #[test]
    fn readmit_can_be_disabled() {
        let mut cfg = faulted_cfg(150, 11);
        cfg.readmit = false;
        let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let rec = &run.report.recovery;
        assert_eq!(rec.readmit_attempts, 0);
        assert_eq!(rec.readmitted, 0);
        assert!(rec.connections_dropped > 0);
        assert_eq!(run.report.requests, 150, "only scheduled arrivals decide");
        assert!(run
            .audit
            .entries()
            .iter()
            .all(|e| e.kind == AuditKind::Arrival));
    }

    #[test]
    fn checkpoint_recovery_replays_the_audit_tail() {
        let cfg = faulted_cfg(150, 23);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        for _ in 0..60 {
            assert!(engine.step_arrival().unwrap());
        }
        let checkpoint = engine.checkpoint();
        let seq0 = checkpoint.decision_seq() as usize;
        assert_eq!(seq0, engine.audit().len());
        let full = engine.finish().unwrap();
        let tail = &full.audit.entries()[seq0..];
        assert!(!tail.is_empty());
        let recovered =
            verify_recovery(HetNetwork::paper_topology(), &cfg, &checkpoint, tail).unwrap();
        assert_eq!(
            recovered.state.snapshot().to_json(),
            full.state.snapshot().to_json(),
            "recovered final state must be bit-identical"
        );
        assert_eq!(recovered.audit.start(), seq0 as u64);
        assert_eq!(recovered.audit.len(), tail.len());
    }

    /// A smoke config with one mid-run reconfiguration: retune TTRT to
    /// 12 ms, grow the overhead a little, and move β to 0.3.
    fn reconfigured_cfg(requests: usize, seed: u64) -> ServiceConfig {
        let mut cfg = ServiceConfig::paper_style(2.0, requests, seed);
        cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        cfg.reconfigs = vec![ReconfigEvent {
            at: Seconds::new(requests as f64 / 4.0),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0))
                .with_overhead(Seconds::from_millis(1.0))
                .with_beta(0.3),
        }];
        cfg
    }

    #[test]
    fn reconfig_fires_renegotiates_and_audits() {
        let cfg = reconfigured_cfg(120, 19);
        let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let rc = &run.report.reconfig;
        assert_eq!(rc.reconfigs, 1, "the scheduled reconfig must fire");
        assert!(
            rc.renegotiated >= 1,
            "a TTRT retune renegotiates allocations: {rc:?}"
        );
        assert_eq!(
            run.state.network().rings()[0].ttrt,
            Seconds::from_millis(12.0)
        );
        // One audit entry of kind Reconfig, in a still gap-free log.
        let reconfig_entries: Vec<_> = run
            .audit
            .entries()
            .iter()
            .filter(|e| e.kind == AuditKind::Reconfig)
            .collect();
        assert_eq!(reconfig_entries.len(), 1);
        assert!(matches!(
            reconfig_entries[0].outcome,
            AuditOutcome::Reconfigured { .. }
        ));
        for (i, e) in run.audit.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64, "audit log must stay gap-free");
        }
        // The reconfig consumed a decision seq without being a request.
        assert_eq!(run.audit.len() as u64, run.report.requests + 1);
        // The flight recorder captured it.
        assert!(run
            .report
            .flight_recorder
            .contains("\"cause\":\"reconfig\""));
    }

    #[test]
    fn reconfigured_runs_are_deterministic() {
        let cfg = reconfigured_cfg(100, 37);
        let a = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let b = run(HetNetwork::paper_topology(), &cfg).unwrap();
        assert_eq!(a.audit.entries(), b.audit.entries());
        assert_eq!(a.report.counters, b.report.counters);
        assert_eq!(a.report.reconfig, b.report.reconfig);
        assert_eq!(
            a.state.snapshot().to_json(),
            b.state.snapshot().to_json(),
            "final states must be bit-identical"
        );
    }

    #[test]
    fn checkpoint_before_a_reconfig_replays_through_it() {
        let cfg = reconfigured_cfg(140, 41);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        // Stop well before t = 35 s (the reconfig instant): 20 arrivals
        // at rate 2.0 land around t = 10 s.
        for _ in 0..20 {
            assert!(engine.step_arrival().unwrap());
        }
        let checkpoint = engine.checkpoint();
        assert_eq!(
            checkpoint.pos.next_reconfig, 0,
            "reconfig must still be ahead"
        );
        let seq0 = checkpoint.decision_seq() as usize;
        let full = engine.finish().unwrap();
        let tail = &full.audit.entries()[seq0..];
        assert!(
            tail.iter().any(|e| e.kind == AuditKind::Reconfig),
            "the tail must contain the reconfiguration"
        );
        let recovered =
            verify_recovery(HetNetwork::paper_topology(), &cfg, &checkpoint, tail).unwrap();
        assert_eq!(
            recovered.state.snapshot().to_json(),
            full.state.snapshot().to_json(),
            "recovered final state must be bit-identical"
        );
        assert_eq!(recovered.report.reconfig, full.report.reconfig);
    }

    #[test]
    fn checkpoint_after_a_reconfig_resumes_at_the_new_parameters() {
        let cfg = reconfigured_cfg(140, 43);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        while engine.pos.next_reconfig == 0 {
            assert!(engine.step_arrival().unwrap(), "reconfig never fired");
        }
        let checkpoint = engine.checkpoint();
        assert_eq!(checkpoint.pos.next_reconfig, 1);
        let seq0 = checkpoint.decision_seq() as usize;
        let full = engine.finish().unwrap();
        let tail = &full.audit.entries()[seq0..];
        let recovered =
            verify_recovery(HetNetwork::paper_topology(), &cfg, &checkpoint, tail).unwrap();
        // The recovered engine restored onto the retuned rings and the
        // replayed β: bit-identical end state.
        assert_eq!(
            recovered.state.network().rings()[0].ttrt,
            Seconds::from_millis(12.0)
        );
        assert_eq!(
            recovered.state.snapshot().to_json(),
            full.state.snapshot().to_json()
        );
    }

    #[test]
    fn invalid_reconfig_schedule_is_rejected_up_front() {
        let mut cfg = smoke_cfg();
        cfg.reconfigs = vec![ReconfigEvent {
            at: Seconds::new(1.0),
            plan: ReconfigPlan::default().with_beta(7.0),
        }];
        let err = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(matches!(err, CacError::InvalidRequest(ref m) if m.contains("reconfig")));
    }

    #[test]
    fn recovery_flags_divergence_from_the_log() {
        let cfg = faulted_cfg(100, 31);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        for _ in 0..40 {
            assert!(engine.step_arrival().unwrap());
        }
        let checkpoint = engine.checkpoint();
        let seq0 = checkpoint.decision_seq() as usize;
        let full = engine.finish().unwrap();
        let mut tail = full.audit.entries()[seq0..].to_vec();
        tail[0].deadline += 1.0; // corrupt one recorded field
        let err =
            verify_recovery(HetNetwork::paper_topology(), &cfg, &checkpoint, &tail).unwrap_err();
        assert!(matches!(err, CacError::SnapshotMismatch(_)), "{err}");
    }
}
