//! Run-wide observability plumbing shared by the sequential engine and
//! the sharded engine.
//!
//! Three pieces, all built on `hetnet_obs` primitives:
//!
//! * [`ObsOptions`] — per-run knobs (span collection, telemetry
//!   cadence, when the flight recorder arms). All observability here is
//!   *measurement only*: no option changes a single admission decision
//!   (the sharded replay tests certify this bit-for-bit).
//! * [`EngineMetrics`] — the canonical `hetnet_*` metric families every
//!   engine registers into one shared
//!   [`MetricsRegistry`](hetnet_obs::MetricsRegistry). The registry is
//!   the only per-decision metrics store: each engine writes a decision
//!   once, through [`EngineMetrics::on_decision`], and the run's
//!   [`ServiceReport`](crate::ServiceReport), its telemetry frames, and
//!   `hetnet-top` all read the same series back from a
//!   [`RegistrySnapshot`] (the `read_*` functions below), so they
//!   cannot disagree. A total whose labelled series already sum to it
//!   (rejections by class, fallbacks by cause) is read back as that
//!   sum, never stored twice; those class and cause series are
//!   registered when they first fire, and the eq.-7 attribution
//!   families only when the run traces decisions.
//! * [`TelemetryFrame`] + [`Telemetry`] — periodic registry snapshots,
//!   cut on simulated-time boundaries and retained in a bounded
//!   [`SharedRing`] so a live viewer (`hetnet-top` in the bench crate)
//!   can poll them while the run is still going.
//!
//! The span-timeline renderer ([`spans_to_json`]) is also here: it
//! wraps raw trace records in a `{phase, shard, ledger_version,
//! record}` envelope so a speculated-then-recomputed sharded admission
//! merges into one coherent causal trace.

use crate::audit::reason_class;
use crate::event::Decided;
use crate::metrics::{BindingCounters, DecisionCounters};
use hetnet_cac::cac::Decision;
use hetnet_cac::delay::CacheStats;
use hetnet_cac::incremental::{FastPathStats, FALLBACK_CAUSES, SKIP_CAUSES};
use hetnet_cac::trace::{DecisionTrace, ServerStage};
use hetnet_obs::registry::{Counter, Gauge, Histogram, SeriesValue};
use hetnet_obs::{GeometricHistogram, MetricsRegistry, RegistrySnapshot, SharedRing, Trace};
use hetnet_traffic::units::Seconds;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Observability knobs of one run. Everything here is decision-neutral
/// by construction: the registry, flight recorder, and telemetry only
/// *read* engine state.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// Collect span/event timelines around every admission (thread-
    /// local subscriber on whichever thread evaluates). Off by
    /// default: spans cost one ring-buffer write per instrumentation
    /// point.
    pub spans: bool,
    /// Cut a registry snapshot every this many simulated seconds;
    /// `None` disables telemetry.
    pub telemetry_period: Option<Seconds>,
    /// Decisions observed before latency-p99 outlier capture arms
    /// (conflict and class-transition capture are always armed).
    pub flight_min_samples: u64,
}

impl Default for ObsOptions {
    fn default() -> Self {
        Self {
            spans: false,
            telemetry_period: None,
            flight_min_samples: 64,
        }
    }
}

/// One periodic registry snapshot, as cut by [`Telemetry`].
#[derive(Clone, Debug)]
pub struct TelemetryFrame {
    /// The simulated-time tick the frame was scheduled at, seconds.
    pub at: f64,
    /// The whole registry at that instant (render it with
    /// [`RegistrySnapshot::to_openmetrics`]).
    pub snapshot: RegistrySnapshot,
}

/// Admission decisions, by outcome (`admit`, or `reject` with a
/// `class` label per [`REJECT_CLASSES`]).
pub(crate) const DECISIONS: &str = "hetnet_decisions_total";
/// Wall-clock decision latency.
pub(crate) const LATENCY: &str = "hetnet_decision_latency_seconds";
/// Active connections each decision read.
pub(crate) const CLOSURE: &str = "hetnet_decision_closure_connections";
/// Evaluator cache lookups of committed decisions, by stage and result.
pub(crate) const CACHE_LOOKUPS: &str = "hetnet_cache_lookups_total";
/// Evaluator cache lookups per sharded-engine evaluator: one `shard`
/// per worker (every speculation, kept or discarded) plus `inline`.
pub(crate) const SHARD_CACHE_LOOKUPS: &str = "hetnet_shard_cache_lookups_total";
/// Fast-ladder probes by outcome; `fallback` and `skip` carry a
/// `cause` label per [`FALLBACK_CAUSES`] / [`SKIP_CAUSES`].
pub(crate) const FAST_PATH: &str = "hetnet_fast_path_probes_total";
/// Traced candidates' worst-case delay per eq.-7 server stage.
pub(crate) const STAGE_DELAY: &str = "hetnet_stage_delay_seconds";
/// Traced candidates' end-to-end worst-case delay.
pub(crate) const PATH_DELAY: &str = "hetnet_path_delay_seconds";
/// Deadline slack of traced admitted candidates.
pub(crate) const SLACK: &str = "hetnet_deadline_slack_seconds";
/// Traced rejections by binding constraint.
pub(crate) const BINDINGS: &str = "hetnet_reject_bindings_total";
/// Sharded-engine speculations, per worker shard.
pub(crate) const SPECULATIONS: &str = "hetnet_shard_speculations_total";
/// Sharded-engine speculations recomputed at commit.
pub(crate) const CONFLICTS: &str = "hetnet_commit_conflicts_total";
/// Sharded-engine decisions computed by the committer.
pub(crate) const INLINE: &str = "hetnet_inline_decisions_total";

/// Rejection classes, as [`reason_class`] names them.
const REJECT_CLASSES: [&str; 5] = [
    "source_exhausted",
    "dest_exhausted",
    "infeasible",
    "component_down",
    "other",
];
/// Binding-constraint kinds, as `BindingConstraint::kind` names them,
/// plus `other` for a kind this build does not know.
const BINDING_KINDS: [&str; 6] = [
    "source_bandwidth",
    "dest_bandwidth",
    "deadline",
    "unstable",
    "component_down",
    "other",
];
/// Evaluator-cache stages, in the label order the registry exports.
const CACHE_STAGES: [&str; 5] = ["stage1", "mux", "receive", "screen", "grid"];

/// The `shard` label of the sharded committer's inline evaluator.
pub(crate) const INLINE_SHARD: &str = "inline";

/// The labels of one cache series: `stage` and `result`, plus `extra`.
fn cache_labels<'a>(
    stage: &'a str,
    result: &'a str,
    extra: &[(&'a str, &'a str)],
) -> Vec<(&'a str, &'a str)> {
    let mut labels = vec![("stage", stage), ("result", result)];
    labels.extend_from_slice(extra);
    labels
}

/// `(hits, misses)` per [`CACHE_STAGES`] entry.
fn stage_counts(c: &CacheStats) -> [(u64, u64); 5] {
    [
        (c.stage1_hits, c.stage1_misses),
        (c.mux_hits, c.mux_misses),
        (c.receive_hits, c.receive_misses),
        (c.screen_hits, c.screen_misses),
        (c.grid_hits, c.grid_misses),
    ]
}

/// One evaluator's cache lookups: a hit and a miss counter per stage.
#[derive(Debug)]
pub(crate) struct CacheCounters([(Counter, Counter); 5]);

impl CacheCounters {
    /// Registers the stage × result series of family `name` under the
    /// extra `labels`.
    pub(crate) fn register(
        reg: &MetricsRegistry,
        name: &'static str,
        labels: &[(&str, &str)],
    ) -> Self {
        Self(CACHE_STAGES.map(|stage| {
            let series = |result| {
                reg.counter(
                    name,
                    "Evaluator cache lookups, by pipeline stage and result.",
                    &cache_labels(stage, result, labels),
                )
            };
            (series("hit"), series("miss"))
        }))
    }

    pub(crate) fn add(&self, stats: &CacheStats) {
        for ((hit, miss), (h, m)) in self.0.iter().zip(stage_counts(stats)) {
            hit.add(h);
            miss.add(m);
        }
    }
}

/// A counter series registered on its first non-zero add. The
/// rejection-class and cause series are many, and a run touches few of
/// them (often late), so registering them eagerly would dominate engine
/// construction; a series that never fires is never created, and reads
/// as 0.
#[derive(Debug)]
struct LazyCounter {
    name: &'static str,
    help: &'static str,
    labels: [(&'static str, &'static str); 2],
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    fn new(
        name: &'static str,
        help: &'static str,
        labels: [(&'static str, &'static str); 2],
    ) -> Self {
        Self {
            name,
            help,
            labels,
            cell: OnceLock::new(),
        }
    }

    fn add(&self, reg: &MetricsRegistry, n: u64) {
        if n != 0 {
            self.cell
                .get_or_init(|| reg.counter(self.name, self.help, &self.labels))
                .add(n);
        }
    }
}

/// The sharded committer's families. Workers record their own
/// speculations (count, latency, cache lookups) into `shard`-labelled
/// series from their threads; these cover what the committer adds.
#[derive(Debug)]
struct CommitMetrics {
    /// Cache lookups of the committer's own (`inline`) evaluator.
    inline_cache: CacheCounters,
    inline: Counter,
    conflicts: Counter,
    ledger_version: Gauge,
}

/// The eq.-7 attribution families, registered only when the run traces
/// decisions.
#[derive(Debug)]
struct TraceMetrics {
    stages: [Histogram; 5],
    total: Histogram,
    slack: Histogram,
    bindings: [Counter; BINDING_KINDS.len()],
}

/// The canonical per-engine metric families. Registered once at engine
/// construction (the class and cause series on first use); every
/// decision then costs a handful of relaxed atomic adds.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    admitted: Counter,
    /// [`DECISIONS`] by rejection class.
    rejected: [LazyCounter; REJECT_CLASSES.len()],
    latency: Histogram,
    closure: Histogram,
    cache: CacheCounters,
    commit: Option<CommitMetrics>,
    fast_accepts: Counter,
    fast_rejects: Counter,
    /// [`FAST_PATH`] fallbacks by cause.
    fallbacks: [LazyCounter; FALLBACK_CAUSES.len()],
    /// [`FAST_PATH`] skips by cause.
    skips: [LazyCounter; SKIP_CAUSES.len()],
    trace: Option<TraceMetrics>,
    active: Gauge,
    outliers: Counter,
}

impl EngineMetrics {
    /// Registers the families. The eq.-7 attribution families exist
    /// only with `trace_decisions` on, and the committer's only for the
    /// sharded engine (`sharded`).
    pub(crate) fn register(
        reg: &Arc<MetricsRegistry>,
        trace_decisions: bool,
        sharded: bool,
    ) -> Self {
        const DECISIONS_HELP: &str = "Admission decisions, by outcome and rejection class.";
        const FAST_HELP: &str = "Fast-path ladder probes, by outcome (and cause).";
        let fast = |outcome| reg.counter(FAST_PATH, FAST_HELP, &[("outcome", outcome)]);
        Self {
            registry: Arc::clone(reg),
            admitted: reg.counter(DECISIONS, DECISIONS_HELP, &[("outcome", "admit")]),
            rejected: REJECT_CLASSES
                .map(|c| LazyCounter::new(DECISIONS, DECISIONS_HELP, [("outcome", "reject"), ("class", c)])),
            latency: reg.histogram(LATENCY, "Wall-clock admission decision latency.", &[]),
            closure: reg.histogram(
                CLOSURE,
                "Active connections each admission decided over (the candidate's dependency closure).",
                &[],
            ),
            cache: CacheCounters::register(reg, CACHE_LOOKUPS, &[]),
            commit: sharded.then(|| CommitMetrics {
                inline_cache: CacheCounters::register(
                    reg,
                    SHARD_CACHE_LOOKUPS,
                    &[("shard", INLINE_SHARD)],
                ),
                inline: reg.counter(
                    INLINE,
                    "Decisions computed inline by the committer (conflicts and readmits).",
                    &[],
                ),
                conflicts: reg.counter(
                    CONFLICTS,
                    "Speculations invalidated at commit and recomputed inline.",
                    &[],
                ),
                ledger_version: reg.gauge(
                    "hetnet_ledger_version",
                    "Ledger version most recently validated by the committer.",
                    &[],
                ),
            }),
            fast_accepts: fast("accept"),
            fast_rejects: fast("reject"),
            fallbacks: FALLBACK_CAUSES
                .map(|c| LazyCounter::new(FAST_PATH, FAST_HELP, [("outcome", "fallback"), ("cause", c)])),
            skips: SKIP_CAUSES
                .map(|c| LazyCounter::new(FAST_PATH, FAST_HELP, [("outcome", "skip"), ("cause", c)])),
            trace: trace_decisions.then(|| TraceMetrics {
                stages: ServerStage::ALL.map(|s| {
                    reg.histogram(
                        STAGE_DELAY,
                        "Traced candidates' worst-case delay, by eq.-7 server stage.",
                        &[("stage", s.name())],
                    )
                }),
                total: reg.histogram(
                    PATH_DELAY,
                    "Traced candidates' end-to-end worst-case delay.",
                    &[],
                ),
                slack: reg.histogram(
                    SLACK,
                    "Deadline slack of traced admitted candidates.",
                    &[],
                ),
                bindings: BINDING_KINDS.map(|b| {
                    reg.counter(
                        BINDINGS,
                        "Traced rejections, by binding constraint.",
                        &[("binding", b)],
                    )
                }),
            }),
            active: reg.gauge(
                "hetnet_active_connections",
                "Connections currently admitted.",
                &[],
            ),
            outliers: reg.counter(
                "hetnet_flight_outliers_total",
                "Decisions captured by the flight recorder.",
                &[],
            ),
        }
    }

    /// Records one committed decision, with its trace when the run
    /// traces decisions: the engine's only per-decision metrics write.
    pub(crate) fn on_decision(&self, d: &Decided, trace: Option<&DecisionTrace>) {
        match &d.decision {
            Decision::Admitted { .. } => self.admitted.inc(),
            Decision::Rejected(reason) => {
                let class = reason_class(reason);
                let i = REJECT_CLASSES.iter().position(|&c| c == class);
                self.rejected[i.unwrap_or(REJECT_CLASSES.len() - 1)].add(&self.registry, 1);
            }
        }
        self.latency.observe(d.latency_seconds);
        self.closure.observe(d.closure as f64);
        self.cache.add(&d.cache);
        if let (Some(cm), Some(commit)) = (&self.commit, d.commit) {
            if let Some(version) = commit.speculated_at {
                cm.ledger_version.set(version as f64);
            }
            if commit.inline {
                cm.inline.inc();
                cm.inline_cache.add(&d.cache);
                if commit.speculated_at.is_some() {
                    cm.conflicts.inc();
                }
            }
        }
        self.fast_accepts.add(d.fast.fast_accepts);
        self.fast_rejects.add(d.fast.fast_rejects);
        for (c, n) in self.fallbacks.iter().zip(d.fast.fallback_causes) {
            c.add(&self.registry, n);
        }
        for (c, n) in self.skips.iter().zip(d.fast.skip_causes) {
            c.add(&self.registry, n);
        }
        if let (Some(tm), Some(trace)) = (&self.trace, trace) {
            if let Some(c) = trace.candidate() {
                for (h, stage) in tm.stages.iter().zip(ServerStage::ALL) {
                    h.observe(stage.of(&c.report).value());
                }
                tm.total.observe(c.report.total.value());
                if trace.admitted {
                    tm.slack.observe(c.slack.value());
                }
            }
            if let (false, Some(binding)) = (trace.admitted, &trace.binding) {
                let i = BINDING_KINDS.iter().position(|&k| k == binding.kind());
                tm.bindings[i.unwrap_or(BINDING_KINDS.len() - 1)].inc();
            }
        }
    }

    pub(crate) fn set_active(&self, active: usize) {
        self.active.set(active as f64);
    }

    pub(crate) fn outlier_captured(&self) {
        self.outliers.inc();
    }
}

/// A histogram series of `snap`, empty when absent.
pub(crate) fn read_histogram(
    snap: &RegistrySnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> GeometricHistogram {
    match snap.find(name, labels) {
        Some(SeriesValue::Histogram(h)) => h.clone(),
        _ => GeometricHistogram::new(),
    }
}

/// Decisions by outcome and rejection class.
pub(crate) fn read_counters(snap: &RegistrySnapshot) -> DecisionCounters {
    let rejected = |class| snap.counter_sum(DECISIONS, &[("outcome", "reject"), ("class", class)]);
    DecisionCounters {
        admitted: snap.counter_sum(DECISIONS, &[("outcome", "admit")]),
        rejected_source_exhausted: rejected(REJECT_CLASSES[0]),
        rejected_dest_exhausted: rejected(REJECT_CLASSES[1]),
        rejected_infeasible: rejected(REJECT_CLASSES[2]),
        rejected_component_down: rejected(REJECT_CLASSES[3]),
        rejected_other: rejected(REJECT_CLASSES[4]),
    }
}

/// One evaluator's cache lookups: family `name` under `labels`.
pub(crate) fn read_cache(
    snap: &RegistrySnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> CacheStats {
    let count = |stage, result| snap.counter_sum(name, &cache_labels(stage, result, labels));
    CacheStats {
        stage1_hits: count("stage1", "hit"),
        stage1_misses: count("stage1", "miss"),
        mux_hits: count("mux", "hit"),
        mux_misses: count("mux", "miss"),
        receive_hits: count("receive", "hit"),
        receive_misses: count("receive", "miss"),
        screen_hits: count("screen", "hit"),
        screen_misses: count("screen", "miss"),
        grid_hits: count("grid", "hit"),
        grid_misses: count("grid", "miss"),
    }
}

/// Fast-ladder probe outcomes; `fallbacks` and `no_context` are the
/// sums of their cause series.
pub(crate) fn read_fast_path(snap: &RegistrySnapshot) -> FastPathStats {
    let count = |labels: &[(&str, &str)]| snap.counter_sum(FAST_PATH, labels);
    FastPathStats {
        fast_accepts: count(&[("outcome", "accept")]),
        fast_rejects: count(&[("outcome", "reject")]),
        fallbacks: count(&[("outcome", "fallback")]),
        fallback_causes: FALLBACK_CAUSES.map(|c| count(&[("outcome", "fallback"), ("cause", c)])),
        no_context: count(&[("outcome", "skip")]),
        skip_causes: SKIP_CAUSES.map(|c| count(&[("outcome", "skip"), ("cause", c)])),
    }
}

/// Traced rejections by binding constraint (all zero untraced).
pub(crate) fn read_bindings(snap: &RegistrySnapshot) -> BindingCounters {
    let [source_bandwidth, dest_bandwidth, deadline, unstable, component_down, other] =
        BINDING_KINDS.map(|b| snap.counter_sum(BINDINGS, &[("binding", b)]));
    BindingCounters {
        source_bandwidth,
        dest_bandwidth,
        deadline,
        unstable,
        component_down,
        other,
    }
}

/// Periodic telemetry cutter: owns the cadence state and the shared
/// frame ring. `offer` is called from the engine's sampling hook with
/// the current simulated time; it emits one frame per elapsed period
/// boundary (frames are stamped with the *scheduled* tick, so frame
/// count is a pure function of the event stream, independent of how
/// bursty the events were).
#[derive(Debug)]
pub(crate) struct Telemetry {
    period: Option<f64>,
    next: f64,
    registry: Arc<MetricsRegistry>,
    ring: Arc<SharedRing<TelemetryFrame>>,
    frames: Counter,
}

impl Telemetry {
    pub(crate) fn new(
        opts: &ObsOptions,
        registry: Arc<MetricsRegistry>,
        ring: Arc<SharedRing<TelemetryFrame>>,
    ) -> Self {
        let frames = registry.counter(
            "hetnet_telemetry_frames_total",
            "Periodic registry snapshots cut.",
            &[],
        );
        let period = opts
            .telemetry_period
            .map(Seconds::value)
            .filter(|p| *p > 0.0);
        Self {
            period,
            next: period.unwrap_or(0.0),
            registry,
            ring,
            frames,
        }
    }

    /// Cuts every frame scheduled at or before `at` (simulated
    /// seconds). The first frame lands at one full period, not at 0.
    pub(crate) fn offer(&mut self, at: f64) {
        let Some(period) = self.period else { return };
        while at >= self.next {
            self.ring.push(TelemetryFrame {
                at: self.next,
                snapshot: self.registry.snapshot(),
            });
            self.frames.inc();
            self.next += period;
        }
    }

    /// Cuts one final frame at `at` regardless of cadence, so a run's
    /// last telemetry state is always observable even for runs shorter
    /// than one period.
    pub(crate) fn finish(&mut self, at: f64) {
        if self.period.is_none() {
            return;
        }
        self.ring.push(TelemetryFrame {
            at,
            snapshot: self.registry.snapshot(),
        });
        self.frames.inc();
    }
}

/// One phase of a decision's span timeline: a phase tag
/// (`"speculate"`, `"recompute"`, `"inline"`, or `"decide"` for the
/// sequential engine), the shard that ran it (if any), and the
/// collected trace.
pub(crate) type SpanPhase<'a> = (&'a str, Option<u32>, &'a Trace);

/// Renders a merged span timeline as one JSON array. Each record is
/// wrapped in an envelope carrying the phase tag, the shard id, and
/// the ledger version the decision speculated at, so a conflicted
/// sharded admission (worker speculation + committer recompute) reads
/// as one causal trace:
///
/// ```text
/// [{"phase":"speculate","shard":2,"ledger_version":17,"record":{...}},
///  {"phase":"recompute","shard":null,"ledger_version":17,"record":{...}}]
/// ```
pub(crate) fn spans_to_json(phases: &[SpanPhase<'_>], ledger_version: Option<u64>) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (phase, shard, trace) in phases {
        for record in trace.records() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"phase\":\"");
            out.push_str(phase);
            out.push_str("\",\"shard\":");
            match shard {
                Some(s) => {
                    let _ = write!(out, "{s}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"ledger_version\":");
            match ledger_version {
                Some(v) => {
                    let _ = write!(out, "{v}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"record\":");
            hetnet_obs::export::push_record_json(&mut out, record);
            out.push('}');
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_metrics_fold_decisions_into_the_registry() {
        use hetnet_cac::cac::RejectReason;
        use hetnet_cac::connection::ConnectionId;
        use hetnet_fddi::ring::SyncBandwidth;

        let reg = Arc::new(MetricsRegistry::new());
        let mx = EngineMetrics::register(&reg, false, false);
        let h = SyncBandwidth::new(Seconds::from_millis(1.0));
        let mut fast = FastPathStats {
            fast_accepts: 1,
            fallbacks: 1,
            ..FastPathStats::default()
        };
        fast.fallback_causes[1] = 1;
        mx.on_decision(
            &Decided {
                decision: Decision::Admitted {
                    id: ConnectionId(0),
                    h_s: h,
                    h_r: h,
                    delay_bound: Seconds::from_millis(5.0),
                },
                latency_seconds: 1e-4,
                closure: 18,
                cache: CacheStats {
                    stage1_hits: 2,
                    stage1_misses: 1,
                    screen_hits: 3,
                    grid_misses: 1,
                    ..CacheStats::default()
                },
                fast,
                commit: None,
                shard: None,
            },
            None,
        );
        mx.on_decision(
            &Decided {
                decision: Decision::Rejected(RejectReason::ComponentUnavailable {
                    component: hetnet_cac::network::Component::Ring(hetnet_cac::network::RingId(0)),
                }),
                latency_seconds: 2e-4,
                closure: 3,
                cache: CacheStats::default(),
                fast: FastPathStats::default(),
                commit: None,
                shard: None,
            },
            None,
        );
        mx.set_active(5);
        let text = reg.to_openmetrics();
        assert!(text.contains("hetnet_decisions_total{outcome=\"admit\"} 1"));
        assert!(
            text.contains("hetnet_decisions_total{class=\"component_down\",outcome=\"reject\"} 1")
        );
        assert!(text.contains("hetnet_cache_lookups_total{result=\"hit\",stage=\"stage1\"} 2"));
        assert!(text.contains("hetnet_cache_lookups_total{result=\"hit\",stage=\"screen\"} 3"));
        assert!(text.contains("hetnet_cache_lookups_total{result=\"miss\",stage=\"grid\"} 1"));
        assert!(text.contains("hetnet_fast_path_probes_total{outcome=\"accept\"} 1"));
        assert!(text.contains(
            "hetnet_fast_path_probes_total{cause=\"mux-horizon\",outcome=\"fallback\"} 1"
        ));
        assert!(text.contains("hetnet_active_connections 5"));
        assert!(text.contains("hetnet_decision_latency_seconds_count 2"));
        assert!(text.contains("hetnet_decision_closure_connections_count 2"));
        assert!(text.contains("hetnet_decision_closure_connections_max 18.0"));
        // Without tracing the attribution families do not exist.
        assert!(!text.contains(STAGE_DELAY));

        let snap = reg.snapshot();
        let counters = read_counters(&snap);
        assert_eq!(
            (counters.admitted, counters.rejected_component_down),
            (1, 1)
        );
        assert_eq!(read_fast_path(&snap), fast);
        assert_eq!(read_cache(&snap, CACHE_LOOKUPS, &[]).evals(), 1);
    }

    #[test]
    fn traced_rejections_count_their_binding_kind() {
        use hetnet_cac::cac::RejectReason;
        use hetnet_cac::network::{Component, RingId};
        use hetnet_cac::trace::BindingConstraint;

        let reg = Arc::new(MetricsRegistry::new());
        let mx = EngineMetrics::register(&reg, true, false);
        let bandwidth = |ring| (RingId(ring), Seconds::ZERO, Seconds::new(1.0));
        let (ring, available, required) = bandwidth(0);
        let bindings = [
            BindingConstraint::SourceBandwidth {
                ring,
                available,
                required,
            },
            BindingConstraint::DestBandwidth {
                ring,
                available,
                required,
            },
            BindingConstraint::ServerUnstable { detail: "x".into() },
            BindingConstraint::ComponentDown {
                component: Component::IfDev(RingId(2)),
            },
        ];
        for (seq, binding) in bindings.into_iter().enumerate() {
            let trace = DecisionTrace {
                seq: seq as u64,
                at: Seconds::ZERO,
                admitted: false,
                scheduler: "fifo".into(),
                allocation: None,
                connections: vec![],
                binding: Some(binding),
                cache: CacheStats::default(),
                fast_path: FastPathStats::default(),
            };
            mx.on_decision(
                &Decided {
                    decision: Decision::Rejected(RejectReason::InfeasibleAtMaximum {
                        detail: "x".into(),
                    }),
                    latency_seconds: 1e-5,
                    closure: 0,
                    cache: CacheStats::default(),
                    fast: FastPathStats::default(),
                    commit: None,
                    shard: None,
                },
                Some(&trace),
            );
        }
        let b = read_bindings(&reg.snapshot());
        assert_eq!(
            (
                b.source_bandwidth,
                b.dest_bandwidth,
                b.unstable,
                b.component_down
            ),
            (1, 1, 1, 1)
        );
        assert_eq!((b.deadline, b.other, b.total()), (0, 0, 4));
    }

    #[test]
    fn telemetry_cuts_one_frame_per_period_boundary() {
        let reg = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(SharedRing::new(8));
        let opts = ObsOptions {
            telemetry_period: Some(Seconds::new(10.0)),
            ..ObsOptions::default()
        };
        let mut tel = Telemetry::new(&opts, Arc::clone(&reg), Arc::clone(&ring));
        tel.offer(3.0); // before the first boundary: nothing
        assert_eq!(ring.len(), 0);
        tel.offer(25.0); // crosses 10 and 20
        assert_eq!(ring.len(), 2);
        tel.offer(25.5); // same period: nothing new
        assert_eq!(ring.len(), 2);
        tel.finish(26.0);
        let frames = ring.drain();
        assert_eq!(frames.len(), 3);
        assert!((frames[0].at - 10.0).abs() < 1e-12);
        assert!((frames[1].at - 20.0).abs() < 1e-12);
        assert!((frames[2].at - 26.0).abs() < 1e-12);
        let frames_cut =
            |f: &TelemetryFrame| f.snapshot.counter_sum("hetnet_telemetry_frames_total", &[]);
        assert_eq!(frames_cut(&frames[0]), 0);
        assert_eq!(frames_cut(&frames[2]), 2);
    }

    #[test]
    fn telemetry_disabled_emits_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(SharedRing::new(8));
        let mut tel = Telemetry::new(&ObsOptions::default(), Arc::clone(&reg), Arc::clone(&ring));
        tel.offer(1e9);
        tel.finish(1e9);
        assert!(ring.is_empty());
    }

    #[test]
    fn span_timelines_merge_phases_with_envelopes() {
        if !hetnet_obs::is_enabled() {
            return; // obs compiled without the trace feature
        }
        let ((), spec) = hetnet_obs::collect(16, || {
            hetnet_obs::event("probe", &[]);
        });
        let ((), recompute) = hetnet_obs::collect(16, || {
            let _g = hetnet_obs::span("admit");
        });
        let json = spans_to_json(
            &[
                ("speculate", Some(2), &spec),
                ("recompute", None, &recompute),
            ],
            Some(17),
        );
        assert!(json.starts_with('['));
        assert!(json.contains(
            "{\"phase\":\"speculate\",\"shard\":2,\"ledger_version\":17,\"record\":{\"seq\":0"
        ));
        assert!(json.contains("\"phase\":\"recompute\",\"shard\":null,\"ledger_version\":17"));
        assert_eq!(json.matches("\"record\":").count(), 3); // 1 event + span start/end
        assert!(json.ends_with(']'));
    }

    #[test]
    fn empty_span_timeline_renders_an_empty_array() {
        assert_eq!(spans_to_json(&[], None), "[]");
    }
}
