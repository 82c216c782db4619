//! The sharded admission engine: the shared event loop, deciding
//! through worker speculations over the ring-partitioned
//! [`ShardedState`] and committing through its backbone ledger.
//!
//! [`ShardedEngine`] is [`EventCore`] over the [`Sharded`] decider, so
//! departures, faults, parking, reconfigurations, the audit log and
//! checkpoints run exactly as in [`crate::ServiceEngine`]. What this
//! engine adds is *how arrivals are decided*. Arrivals are routed to a
//! worker thread by source ring (`ring % workers`); each worker
//! *speculates* its decisions over the candidate's dependency closure
//! (a scoped state of typically a few hundred connections, not the
//! whole network) and sends them to the committer — the thread running
//! the event loop. The committer validates each speculation against
//! the ledger's commit log and commits it, or recomputes it inline
//! when a conflicting commit landed since the speculation was read
//! (optimistic concurrency, validate-then-commit). Re-admissions never
//! speculate; the committer decides them inline.
//!
//! A live reconfiguration is a barrier: [`ShardedState::reconfigure`]
//! renegotiates the admitted set through the flat state and raises the
//! ledger barrier past every outstanding version, so any speculation
//! read under the old ring parameters or the old β conflicts and is
//! recomputed under the new ones.
//!
//! Because commits happen strictly in event order and conflicted
//! speculations are recomputed sequentially, the committed decision
//! stream — ids, allocations, delay bounds, rejection classes, audit
//! sequence — is the sequential engine's stream (`DESIGN.md` §12 gives
//! the argument; `tests/sharded_replay.rs` holds it over random churn,
//! fault and reconfiguration schedules, and [`runs_equivalent`] is the
//! certifying predicate).
//!
//! A run with one worker is the same algorithm minus parallelism —
//! useful both as the conflict-free baseline and for certifying that
//! worker count does not leak into decisions.

use crate::audit::{AuditKind, AuditLog};
use crate::engine::{entries_equivalent, ServiceConfig, ServiceRun};
use crate::event::{
    admit_observed, arrival_spec, Commit, Decided, Decider, EngineCheckpoint, EventCore, Request,
};
use crate::metrics::UtilizationSeries;
use crate::observability::{self as obs, spans_to_json, CacheCounters, SpanPhase, TelemetryFrame};
use crate::report::ServiceReport;
use hetnet_cac::cac::{AdmissionOptions, Decision, EvalCacheCaps, TeardownReport};
use hetnet_cac::connection::{ActiveConnection, ConnectionId, ConnectionSpec};
use hetnet_cac::delay::EvalCache;
use hetnet_cac::error::CacError;
use hetnet_cac::network::{Component, HetNetwork};
use hetnet_cac::reconfig::{ReconfigPlan, ReconfigReport};
use hetnet_cac::shard::{Footprint, ShardedState};
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_cac::trace::DecisionTrace;
use hetnet_obs::{MetricsRegistry, RegistrySnapshot, Trace};
use hetnet_sim::churn::ChurnArrival;
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::units::Seconds;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Worker-side evaluator-cache caps: generous enough that one large
/// closure does not evict the whole working set every decision (the
/// flat engine's defaults are tuned for one small network). Cache
/// contents never affect decisions, only speed.
const WORKER_CACHE_CAPS: EvalCacheCaps = EvalCacheCaps {
    stage1: 1 << 16,
    mux: 1 << 18,
    receive: 1 << 18,
};

/// Concurrency and conflict statistics of one sharded run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardingStats {
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Decisions decided speculatively by workers.
    pub speculated: u64,
    /// Speculations invalidated at commit time and recomputed inline
    /// (their speculative work is discarded).
    pub conflicts: u64,
    /// Decisions computed inline by the committer (conflict retries
    /// plus fault-driven re-admissions, which never speculate).
    pub inline_decisions: u64,
    /// Largest dependency closure any decision ran over.
    pub peak_closure: usize,
    /// Sum of closure sizes across decisions (mean = sum / decisions).
    pub closure_sum: u64,
}

impl ShardingStats {
    /// Reads a run's stats back from its registry snapshot.
    fn read(snap: &RegistrySnapshot, workers: usize) -> Self {
        let closures = obs::read_histogram(snap, obs::CLOSURE, &[]);
        Self {
            workers,
            speculated: snap.counter_sum(obs::SPECULATIONS, &[]),
            conflicts: snap.counter_sum(obs::CONFLICTS, &[]),
            inline_decisions: snap.counter_sum(obs::INLINE, &[]),
            peak_closure: closures.max() as usize,
            closure_sum: closures.sum() as u64,
        }
    }

    /// Conflict-retry rate: conflicts per speculated decision.
    #[must_use]
    pub fn conflict_rate(&self) -> f64 {
        if self.speculated == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.speculated as f64
        }
    }
}

/// Everything a sharded run produces: the same aggregate report, audit
/// log, and series a [`ServiceRun`] carries, plus the final state as a
/// snapshot and the concurrency stats.
#[derive(Debug)]
pub struct ShardedRun {
    /// Aggregate metrics (same schema as the sequential engine's).
    pub report: ServiceReport,
    /// Decision-ordered, gap-free audit log.
    pub audit: AuditLog,
    /// Sampled ring-utilization time series.
    pub series: UtilizationSeries,
    /// The final admission state, merged across shards — equal, string
    /// for string, to the sequential engine's final
    /// `state.snapshot().to_json()`.
    pub final_snapshot: StateSnapshot,
    /// Concurrency and conflict statistics.
    pub sharding: ShardingStats,
    /// Telemetry frames retained at run end (empty unless
    /// [`crate::observability::ObsOptions::telemetry_period`] was set).
    pub telemetry: Vec<TelemetryFrame>,
}

/// What the committer and the workers share: the partitioned state,
/// the admission options in force, and the reconfiguration epoch.
#[derive(Debug)]
struct Shared {
    state: ShardedState,
    /// The options speculations decide under (a reconfiguration's β
    /// replaces the configured one).
    options: Arc<AdmissionOptions>,
    /// Reconfigurations applied so far: an evaluator cache carried
    /// across one is stale (its keys do not span ring parameters).
    epoch: u64,
}

/// Only the committer writes, so a poisoned lock means the committer
/// panicked mid-update and the state may be torn.
fn read(shared: &RwLock<Shared>) -> RwLockReadGuard<'_, Shared> {
    shared.read().expect("sharded state lock poisoned")
}

fn write(shared: &RwLock<Shared>) -> RwLockWriteGuard<'_, Shared> {
    shared.write().expect("sharded state lock poisoned")
}

/// One evaluation of a request over its dependency closure: what a
/// worker hands the committer for a speculated arrival, and what the
/// committer computes itself for an inline decision.
struct SpecMsg {
    /// Index into the churn schedule's arrivals.
    idx: usize,
    /// The decision and its measurements (the commit path and shard are
    /// filled in at commit).
    decided: Decided,
    /// Ledger version the closure was read at.
    version: u64,
    footprint: Footprint,
    trace: Option<DecisionTrace>,
    /// Span timeline collected around the evaluation, when
    /// [`crate::observability::ObsOptions::spans`] is on.
    spans: Option<Trace>,
}

/// An evaluator cache carried from one evaluation to the next, tagged
/// with the reconfiguration epoch it was built in.
type CarriedCache = Option<(u64, EvalCache)>;

/// Decides `spec` over its dependency closure of `shared`, carrying
/// `carried` across calls. This is the one decision procedure both
/// workers and the committer run — they differ only in *when* the
/// closure is read and whether the result must be validated.
fn decide_scoped(
    shared: &RwLock<Shared>,
    cfg: &ServiceConfig,
    idx: usize,
    spec: &ConnectionSpec,
    at: Seconds,
    carried: &mut CarriedCache,
) -> Result<SpecMsg, CacError> {
    let (view, options, epoch) = {
        let guard = read(shared);
        let view = guard.state.speculate(spec.source, spec.dest)?;
        (view, Arc::clone(&guard.options), guard.epoch)
    };
    let t0 = Instant::now();
    let mut scoped = view.state()?;
    scoped.set_cache_caps(WORKER_CACHE_CAPS);
    scoped.persist_eval_cache(cfg.persist_cache);
    if let Some((_, cache)) = carried.take().filter(|(e, _)| *e == epoch) {
        scoped.inject_eval_cache(cache);
    }
    scoped.set_fast_path(cfg.fast_path)?;
    scoped.set_decision_tracing(cfg.trace_decisions);
    scoped.set_clock(at);
    let (decision, spans) = admit_observed(&mut scoped, spec.clone(), &options, &cfg.obs)?;
    let latency_seconds = t0.elapsed().as_secs_f64();
    *carried = scoped.take_eval_cache().map(|cache| (epoch, cache));
    Ok(SpecMsg {
        idx,
        decided: Decided {
            decision,
            latency_seconds,
            closure: view.closure_len(),
            cache: scoped.last_cache_stats().unwrap_or_default(),
            fast: scoped.last_fast_path_stats().unwrap_or_default(),
            commit: None,
            shard: None,
        },
        version: view.version,
        footprint: view.footprint(),
        trace: scoped.last_decision_trace().cloned(),
        spans,
    })
}

/// The committer's ends of one worker's channels.
#[derive(Debug)]
struct WorkerLink {
    specs: Receiver<Result<SpecMsg, CacError>>,
    /// A worker may speculate its next arrival only after its previous
    /// one committed (without this, consecutive same-shard arrivals
    /// would conflict essentially always).
    acks: SyncSender<()>,
}

/// The sharded engine's [`Decider`]: validates worker speculations
/// against the ledger, recomputes conflicted ones inline, and commits.
#[derive(Debug)]
pub struct Sharded {
    workers: usize,
    shared: Arc<RwLock<Shared>>,
    /// Logical clock of the event being processed, for snapshots.
    clock: Seconds,
    /// The committer's own carried evaluator cache, for inline
    /// (conflict-retry and readmit) decisions.
    inline_cache: CarriedCache,
    /// One link per worker, installed by [`ShardedEngine::run`] for
    /// the life of its worker scope.
    links: Vec<WorkerLink>,
    /// Capture a checkpoint after this many arrivals.
    checkpoint_after: Option<usize>,
    /// The last committed decision's trace, span phases, and the ledger
    /// version its deciding evaluation read.
    trace: Option<DecisionTrace>,
    phases: Vec<(&'static str, Option<u32>, Trace)>,
    version: u64,
    /// The arrival index at which its worker panics, to test how a
    /// worker panic surfaces.
    #[cfg(test)]
    panic_at: Option<usize>,
}

impl Decider for Sharded {
    fn workers(&self) -> usize {
        self.workers
    }

    fn set_clock(&mut self, at: Seconds) {
        self.clock = at;
    }

    fn active_count(&self) -> usize {
        read(&self.shared).state.active_count()
    }

    fn filter_active<T>(&self, f: impl FnMut(&ActiveConnection) -> Option<T>) -> Vec<T> {
        read(&self.shared)
            .state
            .active_iter()
            .filter_map(f)
            .collect()
    }

    fn ring_load(&self, caps: &[f64]) -> Vec<f64> {
        let mut load = vec![0.0; caps.len()];
        for c in read(&self.shared).state.active_iter() {
            load[c.spec.source.ring] += c.h_s.per_rotation().value();
            load[c.spec.dest.ring] += c.h_r.per_rotation().value();
        }
        load
    }

    fn release(&mut self, id: ConnectionId) -> Result<(), CacError> {
        write(&self.shared).state.release(id).map(drop)
    }

    fn set_component_down(&mut self, component: Component) -> Result<TeardownReport, CacError> {
        write(&self.shared).state.set_component_down(component)
    }

    fn set_component_up(&mut self, component: Component) -> Result<bool, CacError> {
        write(&self.shared).state.set_component_up(component)
    }

    fn reconfigure(
        &mut self,
        plan: &ReconfigPlan,
        options: &AdmissionOptions,
    ) -> Result<ReconfigReport, CacError> {
        let mut shared = write(&self.shared);
        let report = shared.state.reconfigure(plan, options)?;
        shared.options = Arc::new(options.clone());
        shared.epoch += 1;
        Ok(report)
    }

    fn snapshot(&self, decision_seq: u64) -> StateSnapshot {
        read(&self.shared).state.snapshot(self.clock, decision_seq)
    }

    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), CacError> {
        let mut shared = write(&self.shared);
        shared.state = ShardedState::from_snapshot(Arc::clone(shared.state.net()), snap)?;
        self.clock = snap.clock;
        Ok(())
    }

    /// Consumes the worker speculation for an arrival and validates it
    /// against the ledger, recomputing inline on conflict (a
    /// re-admission is always decided inline), then commits: the
    /// ledger assigns the id, which equals the sequential engine's.
    fn decide(&mut self, req: Request<'_>) -> Result<Decided, CacError> {
        let speculated = if req.kind == AuditKind::Arrival {
            let w = req.spec.source.ring % self.workers;
            let hung_up =
                || CacError::Substrate(format!("speculation worker {w} hung up mid-schedule"));
            let link = self.links.get(w).ok_or_else(hung_up)?;
            let msg = link.specs.recv().map_err(|_| hung_up())??;
            debug_assert_eq!(msg.idx, req.arrival, "worker stream out of order");
            Some((w as u32, msg))
        } else {
            None
        };
        let shard = speculated.as_ref().map(|(w, _)| *w);
        let speculated_at = speculated.as_ref().map(|(_, m)| m.version);
        let (msg, inline, discarded) = match speculated {
            Some((_, msg))
                if !read(&self.shared)
                    .state
                    .conflicts(msg.version, &msg.footprint) =>
            {
                (msg, false, None)
            }
            speculated => {
                let msg = decide_scoped(
                    &self.shared,
                    req.cfg,
                    req.arrival,
                    &req.spec,
                    req.at,
                    &mut self.inline_cache,
                )?;
                (msg, true, speculated.and_then(|(_, m)| m.spans))
            }
        };
        let mut decided = msg.decided;
        if let Decision::Admitted {
            id,
            h_s,
            h_r,
            delay_bound,
        } = &mut decided.decision
        {
            *id = write(&self.shared)
                .state
                .commit_admit(&req.spec, *h_s, *h_r, *delay_bound)?;
        }
        if let Some(w) = shard {
            // A worker whose arrivals are all committed has exited.
            let _ = self.links[w as usize].acks.send(());
        }
        let (phase, phase_shard) = match (inline, shard) {
            (false, _) => ("speculate", shard),
            (true, Some(_)) => ("recompute", None),
            (true, None) => ("inline", None),
        };
        self.phases = discarded
            .map(|t| ("speculate", shard, t))
            .into_iter()
            .chain(msg.spans.map(|t| (phase, phase_shard, t)))
            .collect();
        self.trace = msg.trace;
        self.version = msg.version;
        decided.commit = Some(Commit {
            speculated_at,
            inline,
        });
        decided.shard = shard;
        Ok(decided)
    }

    fn last_trace(&self) -> Option<&DecisionTrace> {
        self.trace.as_ref()
    }

    fn spans_json(&self) -> String {
        let phases: Vec<SpanPhase<'_>> = self.phases.iter().map(|(p, s, t)| (*p, *s, t)).collect();
        spans_to_json(&phases, Some(self.version))
    }
}

/// One speculation worker's inputs: the arrivals routed to its shard
/// and what deciding them needs.
struct Worker {
    shard: usize,
    /// Indices of its arrivals, in schedule order.
    indices: Vec<usize>,
    arrivals: Arc<Vec<ChurnArrival>>,
    envelope: SharedEnvelope,
    shared: Arc<RwLock<Shared>>,
    cfg: ServiceConfig,
    registry: Arc<MetricsRegistry>,
    #[cfg(test)]
    panic_at: Option<usize>,
}

impl Worker {
    /// Speculates each arrival once the previous one committed, until
    /// its arrivals run out or the committer hangs up.
    fn run(self, specs: &SyncSender<Result<SpecMsg, CacError>>, acks: &Receiver<()>) {
        // Each worker registers its own shard-labelled families into
        // the one shared registry, from its own thread.
        let shard = self.shard.to_string();
        let speculations = self.registry.counter(
            obs::SPECULATIONS,
            "Speculative admissions evaluated, per worker shard.",
            &[("shard", &shard)],
        );
        let latency = self.registry.histogram(
            "hetnet_shard_speculation_latency_seconds",
            "Worker-side speculation wall time, per shard.",
            &[("shard", &shard)],
        );
        let lookups = CacheCounters::register(
            &self.registry,
            obs::SHARD_CACHE_LOOKUPS,
            &[("shard", &shard)],
        );
        let mut cache = None;
        for (n, &idx) in self.indices.iter().enumerate() {
            if n > 0 && acks.recv().is_err() {
                return;
            }
            #[cfg(test)]
            if self.panic_at == Some(idx) {
                panic!("injected at arrival {idx}");
            }
            let a = &self.arrivals[idx];
            let msg = arrival_spec(a, &self.envelope, self.cfg.classes).and_then(|spec| {
                decide_scoped(&self.shared, &self.cfg, idx, &spec, a.at, &mut cache)
            });
            if let Ok(m) = &msg {
                speculations.inc();
                latency.observe(m.decided.latency_seconds);
                lookups.add(&m.decided.cache);
            }
            let failed = msg.is_err();
            if specs.send(msg).is_err() || failed {
                return;
            }
        }
    }
}

/// The sharded engine: [`ShardedEngine::new`] positions it at the
/// start of the schedule and [`ShardedEngine::run`] runs it to
/// completion. See [`run_sharded`].
pub type ShardedEngine = EventCore<Sharded>;

impl ShardedEngine {
    /// Builds an engine over `network` with `workers` worker threads
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// As for [`crate::ServiceEngine::new`].
    pub fn new(network: HetNetwork, cfg: &ServiceConfig, workers: usize) -> Result<Self, CacError> {
        Self::build(network, cfg, |network| {
            let shared = Shared {
                state: ShardedState::new(Arc::new(network)),
                options: Arc::new(cfg.options.clone()),
                epoch: 0,
            };
            Ok(Sharded {
                workers: workers.max(1),
                shared: Arc::new(RwLock::new(shared)),
                clock: Seconds::ZERO,
                inline_cache: None,
                links: Vec::new(),
                checkpoint_after: None,
                trace: None,
                phases: Vec::new(),
                version: 0,
                #[cfg(test)]
                panic_at: None,
            })
        })
    }

    /// Resumes from a checkpoint taken by either engine (the formats
    /// are shared): the partitioned state is rebuilt from the flat
    /// snapshot and the run continues from the checkpoint's cursors,
    /// producing the same remaining decisions.
    ///
    /// # Errors
    ///
    /// As for [`crate::ServiceEngine::recover`].
    pub fn recover(
        network: HetNetwork,
        cfg: &ServiceConfig,
        workers: usize,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self, CacError> {
        Self::new(network, cfg, workers)?.resume(checkpoint)
    }

    /// Requests a checkpoint capture after `arrivals` more arrivals
    /// have committed; the checkpoint is returned by
    /// [`ShardedEngine::run`]. Workers keep speculating while the cut
    /// is taken — the ledger cut is consistent because only the
    /// committer mutates.
    #[must_use]
    pub fn checkpoint_after(mut self, arrivals: usize) -> Self {
        self.decider.checkpoint_after = Some(arrivals);
        self
    }

    /// Runs every event and assembles the run (and the requested
    /// checkpoint, if any).
    ///
    /// # Errors
    ///
    /// Propagates any [`CacError`] from the underlying admissions and
    /// releases (rejections are outcomes, not errors), and reports a
    /// worker that hung up mid-schedule or panicked as one.
    pub fn run(mut self) -> Result<(ShardedRun, Option<EngineCheckpoint>), CacError> {
        self.started = Instant::now();
        let workers = self.decider.workers;
        // A recovered run replayed its reconfigurations' β.
        write(&self.decider.shared).options = Arc::new(self.cfg.options.clone());
        let checkpoint_at = self
            .decider
            .checkpoint_after
            .map(|n| self.pos.next_arrival + n);
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (idx, a) in self.arrivals.iter().enumerate().skip(self.pos.next_arrival) {
            owned[a.source.0 % workers].push(idx);
        }
        let (mut core, checkpoint) = std::thread::scope(move |scope| {
            let mut core = self;
            let mut handles = Vec::with_capacity(workers);
            for (shard, indices) in owned.into_iter().enumerate() {
                let (spec_tx, specs) = mpsc::sync_channel(1);
                let (acks, ack_rx) = mpsc::sync_channel(1);
                core.decider.links.push(WorkerLink { specs, acks });
                let worker = Worker {
                    shard,
                    indices,
                    arrivals: Arc::clone(&core.arrivals),
                    envelope: Arc::clone(&core.envelope),
                    shared: Arc::clone(&core.decider.shared),
                    cfg: core.cfg.clone(),
                    registry: core.registry(),
                    #[cfg(test)]
                    panic_at: core.decider.panic_at,
                };
                handles.push(scope.spawn(move || worker.run(&spec_tx, &ack_rx)));
            }
            let mut commit = || {
                let mut checkpoint = None;
                loop {
                    if checkpoint_at == Some(core.pos.next_arrival) {
                        checkpoint = Some(core.checkpoint());
                    }
                    if !core.step()? {
                        break;
                    }
                }
                core.run_to_end()?;
                Ok::<_, CacError>(checkpoint)
            };
            let committed = commit();
            // The links are the committer's channel ends: dropping them
            // lets a worker blocked on its channel return. Joining the
            // workers here, not in the scope, turns a worker's panic
            // into the run's error (it is the cause of any "hung up").
            core.decider.links.clear();
            let mut panicked = None;
            for (shard, handle) in handles.into_iter().enumerate() {
                if let Err(payload) = handle.join() {
                    panicked.get_or_insert_with(|| worker_panic(shard, payload.as_ref()));
                }
            }
            match panicked {
                Some(e) => Err(e),
                None => committed.map(|checkpoint| (core, checkpoint)),
            }
        })?;
        Ok((
            ShardedRun {
                final_snapshot: core.decider.snapshot(core.next_seq()),
                sharding: ShardingStats::read(&core.registry.snapshot(), workers),
                report: core.close(),
                audit: core.audit,
                series: core.series,
                telemetry: core.telemetry_ring.drain(),
            },
            checkpoint,
        ))
    }
}

/// The error for speculation worker `shard` having panicked with
/// `payload`.
fn worker_panic(shard: usize, payload: &(dyn std::any::Any + Send)) -> CacError {
    let what = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload");
    CacError::Substrate(format!("speculation worker {shard} panicked: {what}"))
}

/// Runs the churn workload of `cfg` against `network` with the sharded
/// engine and `workers` worker threads.
///
/// # Errors
///
/// As for [`ShardedEngine::new`] and [`ShardedEngine::run`].
pub fn run_sharded(
    network: HetNetwork,
    cfg: &ServiceConfig,
    workers: usize,
) -> Result<ShardedRun, CacError> {
    let (run, _) = ShardedEngine::new(network, cfg, workers)?.run()?;
    Ok(run)
}

/// Certifies that a sharded run reproduced a sequential run's
/// decisions: audit logs equal in length and pairwise
/// [`entries_equivalent`] (admissions bitwise, rejections by class),
/// and final states bit-identical by snapshot JSON.
#[must_use]
pub fn runs_equivalent(sharded: &ShardedRun, sequential: &ServiceRun) -> bool {
    audits_equivalent(&sharded.audit, &sequential.audit)
        && sharded.final_snapshot.to_json() == sequential.state.snapshot().to_json()
}

/// [`runs_equivalent`] for two sharded runs (e.g. different worker
/// counts over the same config).
#[must_use]
pub fn sharded_runs_equivalent(a: &ShardedRun, b: &ShardedRun) -> bool {
    audits_equivalent(&a.audit, &b.audit)
        && a.final_snapshot.to_json() == b.final_snapshot.to_json()
}

/// Audit logs equal in length and pairwise [`entries_equivalent`].
fn audits_equivalent(a: &AuditLog, b: &AuditLog) -> bool {
    a.len() == b.len()
        && a.entries()
            .iter()
            .zip(b.entries())
            .all(|(x, y)| entries_equivalent(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, ServiceEngine};
    use hetnet_cac::cac::{AdmissionOptions, CacConfig};
    use hetnet_sim::fault::FaultConfig;

    fn smoke_cfg(requests: usize, seed: u64) -> ServiceConfig {
        let mut cfg = ServiceConfig::paper_style(2.0, requests, seed);
        cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        cfg
    }

    fn faulted_cfg(requests: usize, seed: u64) -> ServiceConfig {
        let mut cfg = smoke_cfg(requests, seed);
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
    fn sharded_run_matches_sequential_run() {
        let cfg = smoke_cfg(80, 17);
        let sequential = run(HetNetwork::paper_topology(), &cfg).unwrap();
        for workers in [1, 3] {
            let sharded = run_sharded(HetNetwork::paper_topology(), &cfg, workers).unwrap();
            assert!(
                runs_equivalent(&sharded, &sequential),
                "workers={workers} diverged"
            );
            assert_eq!(sharded.report.counters, sequential.report.counters);
            assert_eq!(sharded.report.peak_active, sequential.report.peak_active);
            assert!(sharded.sharding.speculated > 0);
            assert!(sharded.sharding.peak_closure > 0);
        }
    }

    #[test]
    fn both_engines_record_the_same_closure_sizes() {
        use hetnet_obs::registry::SeriesValue;
        use hetnet_sim::churn::{TopologyShape, TrafficPattern};
        let mut cfg = faulted_cfg(120, 41);
        cfg.churn.shape = TopologyShape {
            rings: 8,
            hosts_per_ring: 3,
        };
        cfg.churn.pattern = TrafficPattern::Paired;
        let closures = |reg: &MetricsRegistry| match reg
            .snapshot()
            .find("hetnet_decision_closure_connections", &[])
        {
            Some(SeriesValue::Histogram(h)) => (h.count(), h.sum(), h.max()),
            other => panic!("closure histogram missing: {other:?}"),
        };
        let engine = ServiceEngine::new(HetNetwork::grid(8, 3), &cfg).unwrap();
        let registry = engine.registry();
        let sequential = engine.finish().unwrap();
        let engine = ShardedEngine::new(HetNetwork::grid(8, 3), &cfg, 2).unwrap();
        let sharded_registry = engine.registry();
        let (sharded, _) = engine.run().unwrap();
        assert!(runs_equivalent(&sharded, &sequential));

        let (count, sum, max) = closures(&registry);
        assert_eq!((count, sum, max), closures(&sharded_registry));
        assert_eq!(count, sequential.audit.len() as u64);
        assert_eq!(sum, sharded.sharding.closure_sum as f64);
        assert_eq!(max, sharded.sharding.peak_closure as f64);
        assert!(
            max < sequential.report.peak_active as f64,
            "paired grid closures should stay below the active set"
        );
    }

    #[test]
    fn sharded_run_matches_sequential_under_faults() {
        let cfg = faulted_cfg(150, 23);
        let sequential = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let sharded = run_sharded(HetNetwork::paper_topology(), &cfg, 2).unwrap();
        assert!(runs_equivalent(&sharded, &sequential));
        assert_eq!(sharded.report.recovery, sequential.report.recovery);
        assert!(
            sharded.sharding.inline_decisions > 0,
            "faulted runs readmit inline: {:?}",
            sharded.sharding
        );
        // Fault barriers force some conflicts under multiple workers…
        // but whatever the retry count, decisions already matched.
        assert!(sharded.report.audit_len as u64 >= 150);
    }

    #[test]
    fn worker_count_does_not_change_decisions() {
        let cfg = faulted_cfg(120, 31);
        let a = run_sharded(HetNetwork::paper_topology(), &cfg, 1).unwrap();
        let b = run_sharded(HetNetwork::paper_topology(), &cfg, 3).unwrap();
        assert!(sharded_runs_equivalent(&a, &b));
        assert_eq!(a.report.counters, b.report.counters);
    }

    /// A run that fails mid-schedule returns the error instead of
    /// hanging on workers blocked on their channels. The checkpoint
    /// carries a due departure for a connection the state never
    /// admitted: the sequential engine reports it, and so must the
    /// sharded one, within a watchdog's timeout.
    #[test]
    fn mid_run_error_is_returned_not_hung() {
        use hetnet_cac::connection::ConnectionId;
        use std::time::Duration;
        let cfg = smoke_cfg(60, 17);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        for _ in 0..20 {
            assert!(engine.step_arrival().unwrap());
        }
        let mut ckpt = engine.checkpoint();
        let due = ckpt.state.clock.value().to_bits();
        ckpt.pos.departures.push(std::cmp::Reverse((due, 999_999)));
        ckpt.pos.live.insert(999_999, (0, due));
        let unknown = CacError::UnknownConnection(ConnectionId(999_999));
        let sequential = ServiceEngine::recover(HetNetwork::paper_topology(), &cfg, &ckpt)
            .unwrap()
            .finish();
        assert_eq!(sequential.unwrap_err(), unknown);

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let run = ShardedEngine::recover(HetNetwork::paper_topology(), &cfg, 3, &ckpt)
                .and_then(ShardedEngine::run)
                .map(|_| ());
            let _ = tx.send(run);
        });
        let sharded = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the sharded run hung instead of returning its error");
        assert_eq!(sharded.unwrap_err(), unknown);
    }

    /// A worker that panics mid-run makes the run return an error that
    /// names its shard; the panic does not unwind the caller's thread.
    #[test]
    fn worker_panic_is_returned_as_an_error() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::time::Duration;
        let cfg = smoke_cfg(60, 17);
        let mut engine = ShardedEngine::new(HetNetwork::paper_topology(), &cfg, 3).unwrap();
        let idx = 30;
        let shard = engine.arrivals[idx].source.0 % 3;
        engine.decider.panic_at = Some(idx);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let run = catch_unwind(AssertUnwindSafe(|| engine.run().map(drop)));
            let _ = tx.send(run);
        });
        let run = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the sharded run hung instead of returning")
            .expect("the worker's panic unwound through run()");
        assert_eq!(
            run.unwrap_err(),
            CacError::Substrate(format!(
                "speculation worker {shard} panicked: injected at arrival {idx}"
            ))
        );
    }

    #[test]
    fn checkpoint_interchanges_with_the_sequential_engine() {
        let cfg = faulted_cfg(120, 7);
        // Sharded run captures a mid-run checkpoint with workers live.
        let (full, ckpt) = ShardedEngine::new(HetNetwork::paper_topology(), &cfg, 2)
            .unwrap()
            .checkpoint_after(50)
            .run()
            .unwrap();
        let ckpt = ckpt.expect("checkpoint requested");
        // The sequential engine resumes from it…
        let seq_engine = ServiceEngine::recover(HetNetwork::paper_topology(), &cfg, &ckpt).unwrap();
        let seq_rest = seq_engine.finish().unwrap();
        assert_eq!(
            seq_rest.state.snapshot().to_json(),
            full.final_snapshot.to_json(),
            "sequential resume must land on the sharded run's final state"
        );
        // …and so does a fresh sharded engine.
        let (sharded_rest, _) =
            ShardedEngine::recover(HetNetwork::paper_topology(), &cfg, 2, &ckpt)
                .unwrap()
                .run()
                .unwrap();
        assert_eq!(
            sharded_rest.final_snapshot.to_json(),
            full.final_snapshot.to_json()
        );
        let tail_start = ckpt.state.decision_seq;
        assert_eq!(sharded_rest.audit.start(), tail_start);
        for (got, want) in sharded_rest
            .audit
            .entries()
            .iter()
            .zip(&full.audit.entries()[tail_start as usize..])
        {
            assert!(entries_equivalent(got, want), "{got:?} vs {want:?}");
        }
    }
}
