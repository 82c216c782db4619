//! The one event loop both admission engines run.
//!
//! [`EventCore`] consumes a churn schedule as a merged stream of
//! departure, fault, reconfiguration and arrival events in time order.
//! Ties resolve departure < fault < reconfig < arrival, so a released
//! allocation is available to a simultaneous request (the paper's
//! connection-level semantics, §5–6). The core owns everything about
//! that stream which does not depend on *how* a request is decided:
//! the departure heap, fault teardown, parking and greedy re-admission,
//! live reconfiguration, the gap-free audit log, the utilization
//! series, the metrics registry, flight recorder and telemetry, and
//! checkpoint/recover.
//!
//! A [`Decider`] supplies the rest: where the admitted set lives and
//! how one request is decided. [`crate::ServiceEngine`] is
//! `EventCore<Flat>`, deciding on one flat
//! [`hetnet_cac::cac::NetworkState`]; [`crate::ShardedEngine`] is
//! `EventCore<Sharded>`, whose decider validates worker speculations
//! against the ring-partitioned state's ledger. Dispatch is static, so
//! the sequential engine pays nothing for the abstraction.

use crate::audit::{AuditEntry, AuditKind, AuditLog, AuditOutcome};
use crate::engine::{ReconfigEvent, ServiceConfig};
use crate::metrics::{ReconfigMetrics, RecoveryMetrics, UtilizationSeries};
use crate::observability::{EngineMetrics, ObsOptions, Telemetry, TelemetryFrame};
use crate::report::{RunFacts, ServiceReport};
use hetnet_cac::cac::{AdmissionOptions, Decision, NetworkState, RejectReason, TeardownReport};
use hetnet_cac::connection::{ActiveConnection, ConnectionId, ConnectionSpec};
use hetnet_cac::delay::CacheStats;
use hetnet_cac::error::CacError;
use hetnet_cac::incremental::FastPathStats;
use hetnet_cac::network::{Component, HetNetwork, LinkId, RingId};
use hetnet_cac::reconfig::{ReconfigPlan, ReconfigReport};
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_cac::trace::DecisionTrace;
use hetnet_fddi::ring::RingConfig;
use hetnet_obs::{FlightObservation, FlightRecorder, MetricsRegistry, SharedRing, Trace};
use hetnet_sim::churn::{self, ChurnArrival};
use hetnet_sim::fault::{generate_faults, FaultEvent, FaultKind};
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::units::Seconds;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use std::time::Instant;

/// One request, as the core hands it to [`Decider::decide`].
#[derive(Debug)]
pub struct Request<'a> {
    /// Event-stream time of the decision.
    pub at: Seconds,
    /// [`AuditKind::Arrival`] requests may have been speculated;
    /// re-admissions never are.
    pub kind: AuditKind,
    /// Index of the request's arrival in the churn schedule.
    pub arrival: usize,
    /// The request itself.
    pub spec: ConnectionSpec,
    /// The run's configuration, with the β in force.
    pub cfg: &'a ServiceConfig,
}

/// How the sharded committer obtained a decision.
#[derive(Clone, Copy, Debug)]
pub struct Commit {
    /// Ledger version a worker speculated the decision at (`None` for
    /// a re-admission, which never speculates).
    pub speculated_at: Option<u64>,
    /// Whether the committer computed the decision itself: a
    /// re-admission, or a speculation invalidated by a conflicting
    /// commit and recomputed.
    pub inline: bool,
}

/// One decided request, with what the metrics write records of it.
#[derive(Debug)]
pub struct Decided {
    /// The committed outcome (an admission carries its final id).
    pub decision: Decision,
    /// Wall time of the deciding evaluation.
    pub latency_seconds: f64,
    /// Active connections the decision read (its dependency closure).
    pub closure: usize,
    /// Evaluator cache lookups of the deciding evaluation.
    pub cache: CacheStats,
    /// Fast-ladder probes of the deciding evaluation.
    pub fast: FastPathStats,
    /// The sharded commit path (`None` for the sequential engine).
    pub commit: Option<Commit>,
    /// Worker shard the request was routed to, if it was speculated.
    pub shard: Option<u32>,
}

/// What differs between the engines: where the admitted set lives and
/// how a request is decided. Every mutation mirrors the
/// [`hetnet_cac::cac::NetworkState`] method of the same name.
pub trait Decider {
    /// Worker threads deciding speculatively (0 for the sequential
    /// engine).
    fn workers(&self) -> usize;
    /// Stamps the logical clock of the event being processed.
    fn set_clock(&mut self, at: Seconds);
    /// Number of admitted connections.
    fn active_count(&self) -> usize;
    /// `f` over every admitted connection, in id order, keeping the
    /// `Some` results.
    fn filter_active<T>(&self, f: impl FnMut(&ActiveConnection) -> Option<T>) -> Vec<T>;
    /// Allocated synchronous time per ring (`caps` are the rings'
    /// allocatable budgets).
    fn ring_load(&self, caps: &[f64]) -> Vec<f64>;
    /// Tears down one connection.
    fn release(&mut self, id: ConnectionId) -> Result<(), CacError>;
    /// Fails a component, tearing down every connection crossing it.
    fn set_component_down(&mut self, component: Component) -> Result<TeardownReport, CacError>;
    /// Repairs a component; returns whether it was down.
    fn set_component_up(&mut self, component: Component) -> Result<bool, CacError>;
    /// Retunes the rings and renegotiates the admitted set under
    /// `options` (which already carry the plan's β).
    fn reconfigure(
        &mut self,
        plan: &ReconfigPlan,
        options: &AdmissionOptions,
    ) -> Result<ReconfigReport, CacError>;
    /// The admitted set as a flat snapshot after `decision_seq`
    /// decisions.
    fn snapshot(&self, decision_seq: u64) -> StateSnapshot;
    /// Replaces the admitted set with a snapshot's.
    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), CacError>;
    /// Decides and commits one request.
    fn decide(&mut self, req: Request<'_>) -> Result<Decided, CacError>;
    /// The trace of the last decision, when the run traces decisions.
    fn last_trace(&self) -> Option<&DecisionTrace>;
    /// The last decision's span timeline, rendered for the flight
    /// recorder.
    fn spans_json(&self) -> String;
}

/// The connection spec of a scheduled arrival. Its backbone traffic
/// class derives from the source host, `(ring + station) % classes`,
/// so the class mix is deterministic without perturbing the churn RNG
/// stream. Arrivals, re-admissions and worker speculations all build
/// their specs here.
pub(crate) fn arrival_spec(
    a: &ChurnArrival,
    envelope: &SharedEnvelope,
    classes: u8,
) -> Result<ConnectionSpec, CacError> {
    let class = if classes > 1 {
        ((a.source.0 + a.source.1) % usize::from(classes)) as u8
    } else {
        0
    };
    ConnectionSpec::builder()
        .source(a.source)
        .dest(a.dest)
        .envelope(Arc::clone(envelope))
        .deadline(a.deadline)
        .class(class)
        .build()
}

/// Admits `spec` on `state`, collecting the span timeline around the
/// call when the run asks for spans. Both engines' evaluations run
/// through here.
pub(crate) fn admit_observed(
    state: &mut NetworkState,
    spec: ConnectionSpec,
    options: &AdmissionOptions,
    obs: &ObsOptions,
) -> Result<(Decision, Option<Trace>), CacError> {
    if obs.spans && hetnet_obs::is_enabled() {
        let (decision, trace) =
            hetnet_obs::collect(obs.span_capacity, || state.admit(spec, options));
        Ok((decision?, Some(trace)))
    } else {
        Ok((state.admit(spec, options)?, None))
    }
}

/// A connection torn down by a fault or a reconfiguration, waiting for
/// re-admission. The spec is re-derived from the churn schedule by
/// arrival index, so parking carries no envelope state.
#[derive(Clone, Copy, Debug)]
struct Parked {
    arrival: usize,
    departs_bits: u64,
}

/// Where the core stands in the event stream: everything a checkpoint
/// carries besides the network snapshot.
#[derive(Clone, Debug, Default)]
pub(crate) struct Position {
    /// Pending departures, min-ordered by `(time bits, connection id)`.
    /// Times are non-negative, so the IEEE-754 bit pattern orders like
    /// the value and gives the heap a total, deterministic order.
    pub(crate) departures: BinaryHeap<Reverse<(u64, u64)>>,
    /// Live connection id → (schedule arrival index, departure bits).
    pub(crate) live: BTreeMap<u64, (usize, u64)>,
    parked: Vec<Parked>,
    /// Component → down-time bits, for time-to-drain accounting.
    open_faults: BTreeMap<Component, u64>,
    pub(crate) next_arrival: usize,
    next_fault: usize,
    pub(crate) next_reconfig: usize,
}

/// A resumable engine position: the [`StateSnapshot`] of the network
/// plus the engine's scheduling state (pending departures, parked
/// connections, open faults, and stream cursors). Everything else —
/// the churn, fault and reconfiguration schedules — is regenerated
/// from the config, so a checkpoint is small and fully deterministic.
/// Both engines take and resume the same checkpoints.
#[derive(Clone, Debug)]
pub struct EngineCheckpoint {
    pub(crate) state: StateSnapshot,
    pub(crate) pos: Position,
}

impl EngineCheckpoint {
    /// The network snapshot the checkpoint carries.
    #[must_use]
    pub fn state(&self) -> &StateSnapshot {
        &self.state
    }

    /// Decisions made before the checkpoint — the audit-log offset a
    /// recovered engine resumes at.
    #[must_use]
    pub fn decision_seq(&self) -> u64 {
        self.state.decision_seq
    }
}

/// The event loop, generic over how requests are decided. See the
/// module docs; the engines are `EventCore<Flat>`
/// ([`crate::ServiceEngine`]) and `EventCore<Sharded>`
/// ([`crate::ShardedEngine`]).
#[derive(Debug)]
pub struct EventCore<D> {
    pub(crate) cfg: ServiceConfig,
    pub(crate) decider: D,
    /// The churn schedule's arrivals, shared with speculation workers.
    pub(crate) arrivals: Arc<Vec<ChurnArrival>>,
    faults: Vec<FaultEvent>,
    /// The reconfiguration schedule, sorted by time (stable, so equal
    /// times keep the config order).
    reconfigs: Vec<ReconfigEvent>,
    pub(crate) envelope: SharedEnvelope,
    pub(crate) pos: Position,
    pub(crate) series: UtilizationSeries,
    pub(crate) audit: AuditLog,
    recovery: RecoveryMetrics,
    reconfig_metrics: ReconfigMetrics,
    pub(crate) registry: Arc<MetricsRegistry>,
    mx: EngineMetrics,
    flight: Arc<FlightRecorder>,
    pub(crate) telemetry_ring: Arc<SharedRing<TelemetryFrame>>,
    telemetry: Telemetry,
    /// Simulated time of the last processed event, for the final
    /// telemetry frame.
    last_event: f64,
    peak_active: usize,
    /// Allocatable synchronous time per ring, as currently tuned.
    ring_caps: Vec<f64>,
    topology: String,
    pub(crate) started: Instant,
}

/// Allocatable synchronous time per ring.
fn ring_caps(rings: &[RingConfig]) -> Vec<f64> {
    rings.iter().map(|r| r.allocatable().value()).collect()
}

impl<D: Decider> EventCore<D> {
    /// Validates `cfg` against `network`, installs the configured
    /// backbone scheduler, generates the churn and fault schedules,
    /// and positions the core before the first event, deciding through
    /// the decider `make` builds over the scheduled network.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidRequest`] if the churn workload is
    /// malformed ([`hetnet_sim::churn::ChurnConfig::validate`]) or its
    /// shape does not match the network, or the scheduler, class count
    /// or a reconfiguration plan is invalid.
    pub(crate) fn build(
        network: HetNetwork,
        cfg: &ServiceConfig,
        make: impl FnOnce(HetNetwork) -> Result<D, CacError>,
    ) -> Result<Self, CacError> {
        cfg.churn
            .validate()
            .map_err(|e| CacError::InvalidRequest(format!("churn: {e}")))?;
        let shape = cfg.churn.shape;
        if shape.rings != network.rings().len() || shape.hosts_per_ring != network.hosts_per_ring()
        {
            return Err(CacError::InvalidRequest(format!(
                "churn shape {}x{} does not match network {}x{}",
                shape.rings,
                shape.hosts_per_ring,
                network.rings().len(),
                network.hosts_per_ring()
            )));
        }
        let network = match &cfg.scheduler {
            Some(s) => {
                s.validate()
                    .map_err(|e| CacError::InvalidRequest(format!("scheduler: {e}")))?;
                if let Some(map) = s.weight_map() {
                    if usize::from(cfg.classes.max(1)) > map.len() {
                        return Err(CacError::InvalidRequest(format!(
                            "classes {} exceed the {} classes mapped by scheduler {s}",
                            cfg.classes,
                            map.len()
                        )));
                    }
                }
                network.with_scheduler(s.clone())
            }
            None => network,
        };
        for e in &cfg.reconfigs {
            e.plan
                .validate(network.rings().len())
                .map_err(|err| CacError::InvalidRequest(format!("reconfig schedule: {err}")))?;
        }
        let mut reconfigs = cfg.reconfigs.clone();
        reconfigs.sort_by_key(|e| e.at.value().to_bits());
        let schedule = churn::generate(&cfg.churn);
        let span = schedule.span();
        let faults = match &cfg.faults {
            Some(f) if !schedule.arrivals.is_empty() => generate_faults(
                f,
                network.rings().len(),
                network.backbone().link_count(),
                span,
            ),
            _ => Vec::new(),
        };
        let topology = network.summary().to_string();
        let ring_caps = ring_caps(network.rings());
        let decider = make(network)?;
        let registry = Arc::new(MetricsRegistry::new());
        let mx = EngineMetrics::register(&registry, cfg.trace_decisions, decider.workers() > 0);
        let flight = Arc::new(FlightRecorder::new(
            cfg.obs.flight_capacity,
            cfg.obs.flight_min_samples,
        ));
        let telemetry_ring = Arc::new(SharedRing::new(cfg.obs.telemetry_capacity));
        let telemetry =
            Telemetry::new(&cfg.obs, Arc::clone(&registry), Arc::clone(&telemetry_ring));
        Ok(Self {
            cfg: cfg.clone(),
            decider,
            arrivals: Arc::new(schedule.arrivals),
            envelope: Arc::new(schedule.source),
            faults,
            reconfigs,
            pos: Position::default(),
            series: UtilizationSeries::new(cfg.sample_period),
            audit: AuditLog::new(),
            recovery: RecoveryMetrics::default(),
            reconfig_metrics: ReconfigMetrics::default(),
            registry,
            mx,
            flight,
            telemetry_ring,
            telemetry,
            last_event: 0.0,
            peak_active: 0,
            ring_caps,
            topology,
            started: Instant::now(),
        })
    }

    /// Moves a freshly built core to a checkpoint: the admitted set is
    /// restored bit-for-bit from the snapshot (adopting its ring
    /// parameters), the β of every reconfiguration before the cut is
    /// replayed, and the scheduling state comes from the checkpoint.
    /// Metrics restart at zero; the audit log resumes at the
    /// checkpoint's decision sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::SnapshotMismatch`] if the snapshot does not
    /// fit the network or the cursors exceed the regenerated schedules.
    pub(crate) fn resume(mut self, checkpoint: &EngineCheckpoint) -> Result<Self, CacError> {
        let pos = &checkpoint.pos;
        if pos.next_arrival > self.arrivals.len()
            || pos.next_fault > self.faults.len()
            || pos.next_reconfig > self.reconfigs.len()
        {
            return Err(CacError::SnapshotMismatch(
                "checkpoint cursors exceed the regenerated schedules".into(),
            ));
        }
        self.decider.restore(&checkpoint.state)?;
        self.ring_caps = ring_caps(&checkpoint.state.rings);
        for e in &self.reconfigs[..pos.next_reconfig] {
            if let Some(beta) = e.plan.beta {
                self.cfg.options.cac.beta = beta;
            }
        }
        self.audit = AuditLog::starting_at(checkpoint.state.decision_seq);
        self.pos = pos.clone();
        Ok(self)
    }

    /// Captures the engine's position between arrivals.
    #[must_use]
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            state: self.decider.snapshot(self.next_seq()),
            pos: self.pos.clone(),
        }
    }

    /// The audit log so far.
    #[must_use]
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Arrivals not yet processed.
    #[must_use]
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.len() - self.pos.next_arrival
    }

    /// The shared metrics registry this engine updates. Snapshot it
    /// from any thread to watch the run live (this is what
    /// `hetnet-top` does).
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The always-on outlier flight recorder (see
    /// [`hetnet_obs::FlightRecorder`]).
    #[must_use]
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// The shared ring periodic telemetry frames land in (empty unless
    /// [`ObsOptions::telemetry_period`](crate::ObsOptions) is set).
    /// Poll it from another thread for a live view.
    #[must_use]
    pub fn telemetry_ring(&self) -> Arc<SharedRing<TelemetryFrame>> {
        Arc::clone(&self.telemetry_ring)
    }

    /// The sequence number the next decision gets.
    pub(crate) fn next_seq(&self) -> u64 {
        self.audit.start() + self.audit.len() as u64
    }

    /// Processes the next scheduled arrival, after every departure,
    /// fault and reconfiguration due at or before it. Returns `false`
    /// when the schedule is exhausted.
    pub(crate) fn step(&mut self) -> Result<bool, CacError> {
        let Some(&a) = self.arrivals.get(self.pos.next_arrival) else {
            return Ok(false);
        };
        self.advance_to(a.at)?;
        let spec = arrival_spec(&a, &self.envelope, self.cfg.classes)?;
        let idx = self.pos.next_arrival;
        self.decide(a.at, AuditKind::Arrival, idx, spec, a.at + a.holding)?;
        self.pos.next_arrival += 1;
        Ok(true)
    }

    /// Runs every remaining event. The generated fault schedules end
    /// well inside the horizon, so draining faults past the last
    /// arrival is normally a no-op, but it keeps `undrained` honest for
    /// hand-built ones; reconfig schedules are hand-built and routinely
    /// outlive the arrivals.
    pub(crate) fn run_to_end(&mut self) -> Result<(), CacError> {
        while self.step()? {}
        while let Some(e) = self.faults.get(self.pos.next_fault).copied() {
            self.advance_to(e.at)?;
        }
        while let Some(at) = self.reconfigs.get(self.pos.next_reconfig).map(|e| e.at) {
            self.advance_to(at)?;
        }
        Ok(())
    }

    /// Processes every departure, fault, and reconfiguration due at or
    /// before `t`, in time order (ties: departure < fault <
    /// reconfig).
    fn advance_to(&mut self, t: Seconds) -> Result<(), CacError> {
        loop {
            let dep_at = self
                .pos
                .departures
                .peek()
                .map(|&Reverse((bits, _))| f64::from_bits(bits));
            let fault_at = self.faults.get(self.pos.next_fault).map(|e| e.at.value());
            let rec_at = self
                .reconfigs
                .get(self.pos.next_reconfig)
                .map(|e| e.at.value());
            let dep_due = dep_at.is_some_and(|at| at <= t.value());
            let fault_due = fault_at.is_some_and(|at| at <= t.value());
            let rec_due = rec_at.is_some_and(|at| at <= t.value());
            if dep_due && (!fault_due || dep_at <= fault_at) && (!rec_due || dep_at <= rec_at) {
                self.pop_departure()?;
            } else if fault_due && (!rec_due || fault_at <= rec_at) {
                let e = self.faults[self.pos.next_fault];
                self.pos.next_fault += 1;
                self.apply_fault(e)?;
            } else if rec_due {
                let e = self.reconfigs[self.pos.next_reconfig].clone();
                self.pos.next_reconfig += 1;
                self.apply_reconfig(&e)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Applies one scheduled reconfiguration: persists the plan's β
    /// into the run's admission options, renegotiates the admitted set
    /// at the new parameters, parks victims for greedy re-admission,
    /// and records the event in the audit log (one decision sequence
    /// number, kind [`AuditKind::Reconfig`]).
    fn apply_reconfig(&mut self, e: &ReconfigEvent) -> Result<(), CacError> {
        self.decider.set_clock(e.at);
        if let Some(beta) = e.plan.beta {
            self.cfg.options.cac.beta = beta;
        }
        let t0 = Instant::now();
        let report = self.decider.reconfigure(&e.plan, &self.cfg.options)?;
        let latency_seconds = t0.elapsed().as_secs_f64();
        // The allocatable budgets changed: utilization is measured
        // against the new ones from here on.
        self.ring_caps = report.new_allocatable.iter().map(|a| a.value()).collect();
        for conn in &report.dropped {
            self.park(conn.id);
        }
        self.reconfig_metrics.absorb(&report);
        let seq = self.next_seq();
        let observation = FlightObservation {
            correlation: seq,
            shard: None,
            at_seconds: e.at.value(),
            latency_seconds,
            conflict: false,
            reconfig: true,
            reject_class: None,
        };
        if self
            .flight
            .observe(&observation, || ("null".into(), "[]".into()))
            .is_some()
        {
            self.mx.outlier_captured();
        }
        self.audit.append(AuditEntry {
            seq,
            at: e.at,
            kind: AuditKind::Reconfig,
            arrival: self.pos.next_reconfig - 1,
            source: (0, 0),
            dest: (0, 0),
            deadline: 0.0,
            outcome: AuditOutcome::Reconfigured {
                renegotiated: report.renegotiated.len() as u64,
                dropped: report.dropped.len() as u64,
                unchanged: report.unchanged.len() as u64,
            },
        });
        self.offer_sample(e.at);
        if self.cfg.readmit {
            self.readmit_parked(e.at)?;
        }
        Ok(())
    }

    /// Moves a torn-down connection from the live map to the park.
    fn park(&mut self, id: ConnectionId) {
        if let Some((arrival, departs_bits)) = self.pos.live.remove(&id.0) {
            self.pos.parked.push(Parked {
                arrival,
                departs_bits,
            });
        }
    }

    /// Pops one departure. Connections already torn down by a fault
    /// left their heap entry behind; popping it is a no-op.
    fn pop_departure(&mut self) -> Result<(), CacError> {
        let Some(Reverse((at_bits, id))) = self.pos.departures.pop() else {
            return Ok(());
        };
        if self.pos.live.remove(&id).is_none() {
            return Ok(());
        }
        let at = Seconds::new(f64::from_bits(at_bits));
        self.decider.set_clock(at);
        self.decider.release(ConnectionId(id))?;
        self.offer_sample(at);
        Ok(())
    }

    /// Applies one fault event at its scheduled time.
    fn apply_fault(&mut self, e: FaultEvent) -> Result<(), CacError> {
        self.decider.set_clock(e.at);
        self.recovery.faults_injected += 1;
        match e.kind {
            FaultKind::LinkDown(i) => self.component_down(e.at, Component::Link(LinkId(i))),
            FaultKind::RingDown(i) => self.component_down(e.at, Component::Ring(RingId(i))),
            FaultKind::IfDevDown(i) => self.component_down(e.at, Component::IfDev(RingId(i))),
            FaultKind::LinkUp(i) => self.component_up(e.at, Component::Link(LinkId(i))),
            FaultKind::RingUp(i) => self.component_up(e.at, Component::Ring(RingId(i))),
            FaultKind::IfDevUp(i) => self.component_up(e.at, Component::IfDev(RingId(i))),
            FaultKind::DeadlineShrink { factor } => self.deadline_shrink(e.at, factor),
            // `FaultKind` is non_exhaustive; unknown events are inert.
            _ => Ok(()),
        }
    }

    /// A component fails: the CAC tears down every connection crossing
    /// it and reclaims their synchronous bandwidth; the core parks the
    /// victims for re-admission at repair time.
    fn component_down(&mut self, at: Seconds, component: Component) -> Result<(), CacError> {
        let report = self.decider.set_component_down(component)?;
        if !report.already_down {
            self.recovery.components_downed += 1;
            self.pos.open_faults.insert(component, at.value().to_bits());
        }
        self.recovery.connections_dropped += report.torn.len() as u64;
        self.recovery.reclaimed_s += report.reclaimed_s.value();
        self.recovery.reclaimed_r += report.reclaimed_r.value();
        for torn in &report.torn {
            self.park(torn.id);
        }
        self.offer_sample(at);
        Ok(())
    }

    /// A component is repaired: record the drain time and (when
    /// configured) greedily re-admit the parked connections.
    fn component_up(&mut self, at: Seconds, component: Component) -> Result<(), CacError> {
        if self.decider.set_component_up(component)? {
            self.recovery.components_restored += 1;
            if let Some(bits) = self.pos.open_faults.remove(&component) {
                let drain = at.value() - f64::from_bits(bits);
                if drain > self.recovery.max_time_to_drain {
                    self.recovery.max_time_to_drain = drain;
                }
            }
        }
        if self.cfg.readmit {
            self.readmit_parked(at)?;
        }
        Ok(())
    }

    /// The network shrinks every admitted connection's effective
    /// deadline to `deadline * factor` for this instant: connections
    /// whose admission-time bound exceeds it are evicted and (when
    /// configured) immediately re-admitted at a fresh allocation.
    fn deadline_shrink(&mut self, at: Seconds, factor: f64) -> Result<(), CacError> {
        let victims = self.decider.filter_active(|c| {
            (c.delay_bound.value() > c.spec.deadline.value() * factor).then(|| {
                (
                    c.id,
                    c.h_s.per_rotation().value(),
                    c.h_r.per_rotation().value(),
                )
            })
        });
        for (id, h_s, h_r) in victims {
            self.decider.release(id)?;
            self.recovery.connections_dropped += 1;
            self.recovery.reclaimed_s += h_s;
            self.recovery.reclaimed_r += h_r;
            self.park(id);
        }
        self.offer_sample(at);
        if self.cfg.readmit {
            self.readmit_parked(at)?;
        }
        Ok(())
    }

    /// Attempts to re-admit every parked connection whose holding time
    /// has not yet expired. Successes rejoin the departure heap at
    /// their original departure time; connections still blocked by a
    /// down component stay parked for the next repair; all other
    /// rejections abandon the connection.
    fn readmit_parked(&mut self, now: Seconds) -> Result<(), CacError> {
        let parked = std::mem::take(&mut self.pos.parked);
        for p in parked {
            let departs = f64::from_bits(p.departs_bits);
            if departs <= now.value() {
                self.recovery.expired_in_park += 1;
                continue;
            }
            let spec = arrival_spec(&self.arrivals[p.arrival], &self.envelope, self.cfg.classes)?;
            self.recovery.readmit_attempts += 1;
            let decision = self.decide(
                now,
                AuditKind::Readmit,
                p.arrival,
                spec,
                Seconds::new(departs),
            )?;
            match &decision {
                Decision::Admitted { .. } => self.recovery.readmitted += 1,
                Decision::Rejected(RejectReason::ComponentUnavailable { .. }) => {
                    // The path is still blocked: wait for the next repair.
                    self.pos.parked.push(p);
                }
                Decision::Rejected(_) => {}
            }
        }
        Ok(())
    }

    /// One admission decision, with all its bookkeeping: its single
    /// metrics write, the flight recorder, the departure heap, the live
    /// map, the audit log, and the utilization series.
    fn decide(
        &mut self,
        at: Seconds,
        kind: AuditKind,
        arrival: usize,
        spec: ConnectionSpec,
        departs: Seconds,
    ) -> Result<Decision, CacError> {
        let source = (spec.source.ring, spec.source.station);
        let dest = (spec.dest.ring, spec.dest.station);
        let deadline = spec.deadline.value();
        self.decider.set_clock(at);
        let decided = self.decider.decide(Request {
            at,
            kind,
            arrival,
            spec,
            cfg: &self.cfg,
        })?;
        self.mx.on_decision(&decided, self.decider.last_trace());
        let outcome = AuditOutcome::from_decision(&decided.decision);
        let seq = self.next_seq();
        let observation = FlightObservation {
            correlation: seq,
            shard: decided.shard,
            at_seconds: at.value(),
            latency_seconds: decided.latency_seconds,
            conflict: decided
                .commit
                .is_some_and(|c| c.inline && c.speculated_at.is_some()),
            reconfig: false,
            reject_class: match &outcome {
                AuditOutcome::Rejected { class, .. } => Some(*class),
                _ => None,
            },
        };
        let decider = &self.decider;
        let captured = self.flight.observe(&observation, || {
            let trace_json = decider
                .last_trace()
                .map_or_else(|| "null".to_string(), DecisionTrace::to_json_line);
            (trace_json, decider.spans_json())
        });
        if captured.is_some() {
            self.mx.outlier_captured();
        }
        if let Decision::Admitted { id, .. } = &decided.decision {
            self.pos
                .departures
                .push(Reverse((departs.value().to_bits(), id.0)));
            self.pos
                .live
                .insert(id.0, (arrival, departs.value().to_bits()));
        }
        self.audit.append(AuditEntry {
            seq,
            at,
            kind,
            arrival,
            source,
            dest,
            deadline,
            outcome,
        });
        self.offer_sample(at);
        Ok(decided.decision)
    }

    /// Offers a post-event utilization sample (allocated fraction of
    /// each ring's allocatable time), tracks the peak, and cuts any
    /// telemetry frames due at or before `at`.
    fn offer_sample(&mut self, at: Seconds) {
        let active = self.decider.active_count();
        self.peak_active = self.peak_active.max(active);
        let decider = &self.decider;
        let caps = &self.ring_caps;
        self.series.offer(at, active, || {
            caps.iter()
                .zip(decider.ring_load(caps))
                .map(|(&cap, load)| {
                    if cap > 0.0 {
                        (load / cap).clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        });
        self.mx.set_active(active);
        self.last_event = self.last_event.max(at.value());
        self.telemetry.offer(at.value());
    }

    /// Closes the run: cuts the final telemetry frame and reads the
    /// report back from the registry. The engine then moves the audit
    /// log, the series and the decider out into its run type.
    pub(crate) fn close(&mut self) -> ServiceReport {
        self.recovery.undrained = self.pos.open_faults.len() as u64;
        let wall_seconds = self.started.elapsed().as_secs_f64();
        self.telemetry.finish(self.last_event);
        ServiceReport::from_registry(
            &self.registry.snapshot(),
            self.decider.workers(),
            RunFacts {
                wall_seconds,
                span: self.arrivals.last().map_or(Seconds::ZERO, |a| a.at),
                peak_active: self.peak_active,
                final_active: self.decider.active_count(),
                ring_utilization: (0..self.ring_caps.len())
                    .map(|r| self.series.ring_summary(r))
                    .collect(),
                audit_len: self.audit.len(),
                topology: std::mem::take(&mut self.topology),
                recovery: self.recovery,
                reconfig: self.reconfig_metrics,
                flight_recorder: self.flight.to_json(),
            },
        )
    }
}
