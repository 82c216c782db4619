//! The aggregate result of a service run, and its JSON rendering.
//!
//! Every per-decision figure in a [`ServiceReport`] is read back from
//! the run's metrics registry ([`ServiceReport::from_registry`]); the
//! report stores nothing the registry does not.

use crate::metrics::{BindingCounters, DecisionCounters, ReconfigMetrics, RecoveryMetrics};
use crate::observability::{self as obs, INLINE_SHARD, SHARD_CACHE_LOOKUPS};
use hetnet_cac::delay::CacheStats;
use hetnet_cac::incremental::FastPathStats;
use hetnet_cac::trace::ServerStage;
use hetnet_obs::export::push_json_str;
use hetnet_obs::{GeometricHistogram, RegistrySnapshot};
use hetnet_traffic::units::Seconds;
use serde::Serialize;
use std::fmt::Write as _;

/// Fixed latency percentiles extracted from a histogram.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencySummary {
    /// Number of recorded requests.
    pub count: u64,
    /// Median decision latency.
    pub p50: Seconds,
    /// 95th-percentile decision latency.
    pub p95: Seconds,
    /// 99th-percentile decision latency.
    pub p99: Seconds,
    /// Exact mean.
    pub mean: Seconds,
    /// Exact maximum.
    pub max: Seconds,
}

impl LatencySummary {
    /// Summarizes a histogram of seconds.
    #[must_use]
    pub fn from_histogram(h: &GeometricHistogram) -> Self {
        Self {
            count: h.count(),
            p50: Seconds::new(h.quantile(0.50)),
            p95: Seconds::new(h.quantile(0.95)),
            p99: Seconds::new(h.quantile(0.99)),
            mean: Seconds::new(h.mean()),
            max: Seconds::new(h.max()),
        }
    }
}

/// Percentile summaries of the per-server-stage delay histograms, plus
/// the binding-constraint counters — the eq.-7 delay attribution of a
/// run's decision traces. All counts are zero when decision tracing was
/// disabled for the run.
#[derive(Clone, Debug, Serialize)]
pub struct StageDelaySummary {
    /// Decisions that carried a trace.
    pub traced: u64,
    /// Rejections whose trace named a binding constraint.
    pub rejects_with_binding: u64,
    /// Which constraint bound, per rejection.
    pub bindings: BindingCounters,
    /// Source-ring FDDI MAC delay of each candidate path.
    pub fddi_s: LatencySummary,
    /// Sender-side interface-device delay.
    pub id_s: LatencySummary,
    /// ATM backbone delay.
    pub atm: LatencySummary,
    /// Receiver-side interface-device delay.
    pub id_r: LatencySummary,
    /// Destination-ring FDDI MAC delay.
    pub fddi_r: LatencySummary,
    /// End-to-end worst-case delay.
    pub total: LatencySummary,
    /// Deadline slack of admitted candidates.
    pub slack: LatencySummary,
}

impl StageDelaySummary {
    /// Reads the attribution families of `snap`; `decisions` is the
    /// run's decision count.
    fn read(snap: &RegistrySnapshot, decisions: u64) -> Self {
        let summary = |name, labels: &[(&str, &str)]| {
            LatencySummary::from_histogram(&obs::read_histogram(snap, name, labels))
        };
        let [fddi_s, id_s, atm, id_r, fddi_r] =
            ServerStage::ALL.map(|s| summary(obs::STAGE_DELAY, &[("stage", s.name())]));
        let bindings = obs::read_bindings(snap);
        Self {
            // The attribution families exist iff the run traced, and a
            // traced run traces every decision.
            traced: if snap.find(obs::PATH_DELAY, &[]).is_some() {
                decisions
            } else {
                0
            },
            rejects_with_binding: bindings.total(),
            bindings,
            fddi_s,
            id_s,
            atm,
            id_r,
            fddi_r,
            total: summary(obs::PATH_DELAY, &[]),
            slack: summary(obs::SLACK, &[]),
        }
    }

    /// `(name, summary)` pairs in eq.-7 path order, then total + slack.
    fn sections(&self) -> [(&'static str, &LatencySummary); 7] {
        [
            ("fddi_s", &self.fddi_s),
            ("id_s", &self.id_s),
            ("atm", &self.atm),
            ("id_r", &self.id_r),
            ("fddi_r", &self.fddi_r),
            ("total", &self.total),
            ("slack", &self.slack),
        ]
    }
}

/// What a run knows beyond its registry: timing, occupancy, the audit
/// length, and the fault and reconfiguration accounting.
pub(crate) struct RunFacts {
    pub(crate) wall_seconds: f64,
    pub(crate) span: Seconds,
    pub(crate) peak_active: usize,
    pub(crate) final_active: usize,
    pub(crate) ring_utilization: Vec<(f64, f64)>,
    pub(crate) audit_len: usize,
    pub(crate) topology: String,
    pub(crate) recovery: RecoveryMetrics,
    pub(crate) reconfig: ReconfigMetrics,
    pub(crate) flight_recorder: String,
}

/// Aggregate metrics of one churn run.
#[derive(Clone, Debug, Serialize)]
pub struct ServiceReport {
    /// Requests decided.
    pub requests: u64,
    /// Admitted/rejected counters by reason class.
    pub counters: DecisionCounters,
    /// Per-request decision-latency summary.
    pub latency: LatencySummary,
    /// Evaluator-cache lookups of every committed decision.
    pub cache: CacheStats,
    /// Fast-path decision-ladder probes of every committed decision
    /// (all-zero when the fast path is disabled).
    pub fast_path: FastPathStats,
    /// Fraction of requests rejected.
    pub blocking_probability: f64,
    /// Decision throughput against the wall clock.
    pub requests_per_sec: f64,
    /// Wall-clock duration of the run.
    pub wall_seconds: f64,
    /// Event-stream time span (first to last arrival).
    pub span: Seconds,
    /// Largest concurrent active-connection count observed.
    pub peak_active: usize,
    /// Connections still active after the last arrival.
    pub final_active: usize,
    /// Per-ring `(mean, peak)` utilization over the sampled series.
    pub ring_utilization: Vec<(f64, f64)>,
    /// Entries in the decision audit log (== `requests`).
    pub audit_len: usize,
    /// Compact label of the topology the run drove.
    pub topology: String,
    /// Delay-budget attribution from decision traces (all-zero counts
    /// when tracing was disabled).
    pub delay_attribution: StageDelaySummary,
    /// Fault-injection and recovery accounting (all-zero when the run
    /// had no fault schedule).
    pub recovery: RecoveryMetrics,
    /// Live-reconfiguration accounting (all-zero when the run had no
    /// reconfiguration schedule).
    pub reconfig: ReconfigMetrics,
    /// Per-evaluator cache lookups of the sharded engine: one entry per
    /// worker, in worker order (every speculation it ran, kept or
    /// discarded), then one final entry for committer-inline decisions.
    /// Empty for the sequential engine.
    pub shard_cache: Vec<CacheStats>,
    /// The flight recorder's JSON rendering (`{"seen":...}`); see
    /// [`hetnet_obs::FlightRecorder::to_json`].
    pub flight_recorder: String,
}

impl ServiceReport {
    /// Assembles a run's report: every per-decision figure from the
    /// registry snapshot `snap`, the rest from `run`. `workers` is the
    /// sharded engine's worker count (0 for the sequential engine).
    pub(crate) fn from_registry(snap: &RegistrySnapshot, workers: usize, run: RunFacts) -> Self {
        let counters = obs::read_counters(snap);
        let requests = counters.total();
        let shard_cache = if workers == 0 {
            Vec::new()
        } else {
            (0..workers)
                .map(|w| w.to_string())
                .chain([INLINE_SHARD.to_string()])
                .map(|shard| obs::read_cache(snap, SHARD_CACHE_LOOKUPS, &[("shard", &shard)]))
                .collect()
        };
        Self {
            requests,
            counters,
            latency: LatencySummary::from_histogram(&obs::read_histogram(snap, obs::LATENCY, &[])),
            cache: obs::read_cache(snap, obs::CACHE_LOOKUPS, &[]),
            fast_path: obs::read_fast_path(snap),
            blocking_probability: counters.blocking_probability(),
            requests_per_sec: if run.wall_seconds > 0.0 {
                requests as f64 / run.wall_seconds
            } else {
                0.0
            },
            wall_seconds: run.wall_seconds,
            span: run.span,
            peak_active: run.peak_active,
            final_active: run.final_active,
            ring_utilization: run.ring_utilization,
            audit_len: run.audit_len,
            topology: run.topology,
            delay_attribution: StageDelaySummary::read(snap, requests),
            recovery: run.recovery,
            reconfig: run.reconfig,
            shard_cache,
            flight_recorder: run.flight_recorder,
        }
    }

    /// Renders the report as one JSON object (hand-written — the
    /// workspace serde is an offline no-op shim).
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let l = &self.latency;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"requests\":{},\"admitted\":{},\"rejected\":{},\
             \"rejected_by_reason\":{{\"source_exhausted\":{},\"dest_exhausted\":{},\
             \"infeasible\":{},\"component_down\":{},\"other\":{}}},",
            self.requests,
            c.admitted,
            c.rejected(),
            c.rejected_source_exhausted,
            c.rejected_dest_exhausted,
            c.rejected_infeasible,
            c.rejected_component_down,
            c.rejected_other,
        );
        let _ = write!(
            out,
            "\"blocking_probability\":{:.6},\"requests_per_sec\":{:.3},\
             \"wall_seconds\":{:.6},\"span_seconds\":{:.3},",
            self.blocking_probability,
            self.requests_per_sec,
            self.wall_seconds,
            self.span.value(),
        );
        let _ = write!(
            out,
            "\"latency\":{{\"count\":{},\"p50_us\":{:.3},\"p95_us\":{:.3},\
             \"p99_us\":{:.3},\"mean_us\":{:.3},\"max_us\":{:.3}}},",
            l.count,
            l.p50.value() * 1e6,
            l.p95.value() * 1e6,
            l.p99.value() * 1e6,
            l.mean.value() * 1e6,
            l.max.value() * 1e6,
        );
        let _ = write!(
            out,
            "\"cache\":{{\"evals\":{},\"hit_rate\":{:.6},\
             \"screen_hits\":{},\"screen_misses\":{}}},",
            self.cache.evals(),
            self.cache.hit_rate(),
            self.cache.screen_hits,
            self.cache.screen_misses,
        );
        out.push_str("\"shard_cache\":[");
        for (i, g) in self.shard_cache.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_cache_json(&mut out, g);
        }
        out.push_str("],");
        let f = &self.fast_path;
        let _ = write!(
            out,
            "\"fast_path\":{{\"fast_accepts\":{},\"fast_rejects\":{},\
             \"fallbacks\":{},\"hit_rate\":{:.6},\"no_context\":{},",
            f.fast_accepts,
            f.fast_rejects,
            f.fallbacks,
            f.hit_rate(),
            f.no_context,
        );
        out.push_str("\"fallback_causes\":{");
        let causes = hetnet_cac::incremental::FALLBACK_CAUSES;
        for (i, (name, n)) in causes.iter().zip(&f.fallback_causes).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{n}");
        }
        out.push_str("},\"skip_causes\":{");
        let skips = hetnet_cac::incremental::SKIP_CAUSES;
        for (i, (name, n)) in skips.iter().zip(&f.skip_causes).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{n}");
        }
        out.push_str("}},");
        let _ = write!(
            out,
            "\"peak_active\":{},\"final_active\":{},\"audit_len\":{},",
            self.peak_active, self.final_active, self.audit_len,
        );
        out.push_str("\"ring_utilization\":[");
        for (i, (mean, peak)) in self.ring_utilization.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"mean\":{mean:.6},\"peak\":{peak:.6}}}");
        }
        out.push_str("],");
        out.push_str("\"topology\":");
        push_json_str(&mut out, &self.topology);
        let d = &self.delay_attribution;
        let b = &d.bindings;
        let _ = write!(
            out,
            ",\"delay_attribution\":{{\"traced\":{},\"rejects_with_binding\":{},\
             \"bindings\":{{\"source_bandwidth\":{},\"dest_bandwidth\":{},\
             \"deadline\":{},\"unstable\":{},\"component_down\":{},\"other\":{}}},\
             \"stages\":{{",
            d.traced,
            d.rejects_with_binding,
            b.source_bandwidth,
            b.dest_bandwidth,
            b.deadline,
            b.unstable,
            b.component_down,
            b.other,
        );
        for (i, (name, s)) in d.sections().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_stage_json(&mut out, name, s);
        }
        out.push_str("}},");
        let r = &self.recovery;
        let _ = write!(
            out,
            "\"recovery\":{{\"faults_injected\":{},\"components_downed\":{},\
             \"components_restored\":{},\"connections_dropped\":{},\
             \"reclaimed_s\":{:.12e},\"reclaimed_r\":{:.12e},\
             \"readmit_attempts\":{},\"readmitted\":{},\"expired_in_park\":{},\
             \"max_time_to_drain_s\":{:.6},\"undrained\":{}}}",
            r.faults_injected,
            r.components_downed,
            r.components_restored,
            r.connections_dropped,
            r.reclaimed_s,
            r.reclaimed_r,
            r.readmit_attempts,
            r.readmitted,
            r.expired_in_park,
            r.max_time_to_drain,
            r.undrained,
        );
        let rc = &self.reconfig;
        let _ = write!(
            out,
            ",\"reconfig\":{{\"reconfigs\":{},\"renegotiated\":{},\
             \"unchanged\":{},\"dropped\":{},\
             \"reclaimed_s\":{:.12e},\"reclaimed_r\":{:.12e}}}",
            rc.reconfigs, rc.renegotiated, rc.unchanged, rc.dropped, rc.reclaimed_s, rc.reclaimed_r,
        );
        out.push_str(",\"flight_recorder\":");
        if self.flight_recorder.is_empty() {
            out.push_str("null");
        } else {
            out.push_str(&self.flight_recorder);
        }
        out.push('}');
        out
    }
}

/// One evaluator's cache lookups as a JSON object (used for the
/// per-shard list).
fn push_cache_json(out: &mut String, g: &CacheStats) {
    let _ = write!(
        out,
        "{{\"stage1_hits\":{},\"stage1_misses\":{},\"mux_hits\":{},\
         \"mux_misses\":{},\"receive_hits\":{},\"receive_misses\":{},\
         \"screen_hits\":{},\"screen_misses\":{},\
         \"evals\":{},\"hit_rate\":{:.6}}}",
        g.stage1_hits,
        g.stage1_misses,
        g.mux_hits,
        g.mux_misses,
        g.receive_hits,
        g.receive_misses,
        g.screen_hits,
        g.screen_misses,
        g.evals(),
        g.hit_rate(),
    );
}

/// One stage summary as `"name":{...}`, in milliseconds (worst-case
/// path delays live in the 1–100 ms range of the paper's deadlines).
fn push_stage_json(out: &mut String, name: &str, s: &LatencySummary) {
    let _ = write!(
        out,
        "\"{name}\":{{\"count\":{},\"p50_ms\":{:.6},\"p95_ms\":{:.6},\
         \"p99_ms\":{:.6},\"mean_ms\":{:.6},\"max_ms\":{:.6}}}",
        s.count,
        s.p50.value() * 1e3,
        s.p95.value() * 1e3,
        s.p99.value() * 1e3,
        s.mean.value() * 1e3,
        s.max.value() * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observability::{CacheCounters, Commit, DecisionFacts, EngineMetrics};
    use hetnet_cac::cac::{Decision, RejectReason};
    use hetnet_cac::connection::ConnectionId;
    use hetnet_cac::delay::PathReport;
    use hetnet_cac::network::RingId;
    use hetnet_cac::trace::{BindingConstraint, ConnectionTrace, DecisionTrace};
    use hetnet_fddi::ring::SyncBandwidth;
    use hetnet_obs::MetricsRegistry;
    use hetnet_traffic::units::Bits;
    use std::sync::Arc;

    fn trace(
        seq: u64,
        admitted: bool,
        candidate: Option<([f64; 5], f64)>,
        binding: Option<BindingConstraint>,
    ) -> DecisionTrace {
        let connections = candidate.map(|(terms, deadline_ms)| {
            let [fddi_s, id_s, atm, id_r, fddi_r] = terms.map(Seconds::new);
            let report = PathReport {
                fddi_s,
                id_s,
                atm,
                id_r,
                fddi_r,
                total: fddi_s + id_s + atm + id_r + fddi_r,
                buffer_mac_s: Bits::new(1000.0),
                buffer_mac_r: Bits::new(2000.0),
            };
            let id = admitted.then_some(ConnectionId(0));
            ConnectionTrace::new(id, report, Seconds::from_millis(deadline_ms))
        });
        DecisionTrace {
            seq,
            at: Seconds::new(seq as f64),
            admitted,
            scheduler: "fifo".into(),
            allocation: None,
            connections: connections.into_iter().collect(),
            binding,
            cache: CacheStats::default(),
            fast_path: FastPathStats::default(),
        }
    }

    /// Three decisions written through `EngineMetrics` and read back:
    /// an admit, a traced deadline reject, and a bandwidth reject that
    /// never evaluated a path.
    #[test]
    fn report_reads_the_registry_and_renders_valid_shaped_json() {
        let reg = Arc::new(MetricsRegistry::new());
        let mx = EngineMetrics::register(&reg, true, true);
        CacheCounters::register(&reg, SHARD_CACHE_LOOKUPS, &[("shard", "0")]).add(&CacheStats {
            stage1_hits: 1,
            stage1_misses: 1,
            ..CacheStats::default()
        });
        let h = SyncBandwidth::new(Seconds::from_millis(1.0));
        let admit = Decision::Admitted {
            id: ConnectionId(0),
            h_s: h,
            h_r: h,
            delay_bound: Seconds::from_millis(54.0),
        };
        let mut fast = FastPathStats {
            fast_accepts: 6,
            fast_rejects: 2,
            fallbacks: 2,
            ..FastPathStats::default()
        };
        fast.fallback_causes[0] = 1;
        fast.fallback_causes[6] = 1;
        let admit_trace = trace(
            0,
            true,
            Some(([0.01, 0.002, 0.03, 0.002, 0.01], 80.0)),
            None,
        );
        mx.on_decision(&DecisionFacts {
            decision: &admit,
            latency_seconds: 2e-5,
            closure: 3,
            cache: CacheStats {
                stage1_hits: 2,
                stage1_misses: 2,
                receive_hits: 1,
                receive_misses: 1,
                screen_hits: 3,
                screen_misses: 1,
                ..CacheStats::default()
            },
            fast,
            trace: Some(&admit_trace),
            commit: None,
        });
        let deadline = BindingConstraint::DeadlineExceeded {
            connection: None,
            stage: ServerStage::Atm,
            delay: Seconds::from_millis(94.0),
            deadline: Seconds::from_millis(60.0),
            excess: Seconds::from_millis(34.0),
        };
        let reject_trace = trace(
            1,
            false,
            Some(([0.02, 0.002, 0.05, 0.002, 0.02], 60.0)),
            Some(deadline),
        );
        let mut skipped = FastPathStats::default();
        skipped.record_skip("non-feedforward");
        mx.on_decision(&DecisionFacts {
            decision: &Decision::Rejected(RejectReason::InfeasibleAtMaximum { detail: "x".into() }),
            latency_seconds: 4e-5,
            closure: 1,
            cache: CacheStats::default(),
            fast: skipped,
            trace: Some(&reject_trace),
            commit: Some(Commit {
                speculated_at: None,
                inline: true,
            }),
        });
        let bare_trace = trace(
            2,
            false,
            None,
            Some(BindingConstraint::SourceBandwidth {
                ring: RingId(0),
                available: Seconds::from_millis(1.0),
                required: Seconds::from_millis(2.0),
            }),
        );
        mx.on_decision(&DecisionFacts {
            decision: &Decision::Rejected(RejectReason::SourceBandwidthExhausted {
                available: Seconds::from_millis(1.0),
                required: Seconds::from_millis(2.0),
            }),
            latency_seconds: 3e-5,
            closure: 0,
            cache: CacheStats::default(),
            fast: FastPathStats::default(),
            trace: Some(&bare_trace),
            commit: Some(Commit {
                speculated_at: None,
                inline: true,
            }),
        });

        let report = ServiceReport::from_registry(
            &reg.snapshot(),
            1,
            RunFacts {
                wall_seconds: 0.003,
                span: Seconds::new(1.5),
                peak_active: 1,
                final_active: 1,
                ring_utilization: vec![(0.25, 0.5), (0.0, 0.0)],
                audit_len: 3,
                topology: "3 rings x 4 hosts, 3 switches, 6 links".into(),
                recovery: RecoveryMetrics {
                    faults_injected: 3,
                    max_time_to_drain: 12.5,
                    ..RecoveryMetrics::default()
                },
                reconfig: ReconfigMetrics {
                    reconfigs: 1,
                    renegotiated: 3,
                    unchanged: 1,
                    dropped: 1,
                    ..ReconfigMetrics::default()
                },
                flight_recorder: "{\"seen\":3,\"captured\":1}".into(),
            },
        );
        assert_eq!(report.counters.rejected_infeasible, 1);
        assert_eq!(report.counters.rejected_source_exhausted, 1);
        assert_eq!(report.fast_path.no_context, 1);
        assert_eq!(report.fast_path.skip_causes, [0, 0, 1, 0]);
        let d = &report.delay_attribution;
        assert_eq!(d.bindings.total(), 2);
        // Two candidates had paths; only the admit recorded slack.
        assert_eq!((d.fddi_s.count, d.total.count, d.slack.count), (2, 2, 1));
        assert!((d.atm.max.value() - 0.05).abs() < 1e-12);
        assert!((d.slack.max.value() - (0.08 - 0.054)).abs() < 1e-12);

        let j = report.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for needle in [
            "\"requests\":3",
            "\"admitted\":1",
            "\"rejected\":2",
            "\"source_exhausted\":1,\"dest_exhausted\":0,\"infeasible\":1,\"component_down\":0",
            "\"blocking_probability\":0.666667",
            "\"requests_per_sec\":1000.000",
            "\"latency\":{\"count\":3,",
            "\"evals\":3",
            "\"screen_hits\":3,\"screen_misses\":1",
            "\"shard_cache\":[{\"stage1_hits\":1,\"stage1_misses\":1,",
            "\"flight_recorder\":{\"seen\":3,",
            "\"fast_path\":{\"fast_accepts\":6,\"fast_rejects\":2,\"fallbacks\":2,\"hit_rate\":0.800000,\"no_context\":1,",
            "\"fallback_causes\":{\"mux-saturated\":1,\"mux-horizon\":0,\"mux-window\":0,\
             \"receive-saturated\":0,\"receive-horizon\":0,\"receive-buffer\":0,\"ambiguous\":1}",
            "\"skip_causes\":{\"stage1-unavailable\":0,\"stale-active-set\":0,\"non-feedforward\":1,\
             \"non-fifo-scheduler\":0}",
            "\"ring_utilization\":[{\"mean\":0.25",
            "\"topology\":\"3 rings x 4 hosts, 3 switches, 6 links\"",
            "\"delay_attribution\":{\"traced\":3,\"rejects_with_binding\":2,",
            "\"bindings\":{\"source_bandwidth\":1,\"dest_bandwidth\":0,\"deadline\":1,",
            "\"stages\":{\"fddi_s\":{\"count\":2,",
            "\"slack\":{\"count\":1,",
            "\"recovery\":{\"faults_injected\":3,",
            "\"max_time_to_drain_s\":12.500000",
            "\"undrained\":0",
            "\"reconfig\":{\"reconfigs\":1,\"renegotiated\":3,\"unchanged\":1,\"dropped\":1,",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        // Balanced braces / brackets — cheap structural sanity.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn untraced_runs_report_an_empty_attribution() {
        let reg = Arc::new(MetricsRegistry::new());
        let mx = EngineMetrics::register(&reg, false, false);
        mx.on_decision(&DecisionFacts {
            decision: &Decision::Rejected(RejectReason::InfeasibleAtMaximum { detail: "x".into() }),
            latency_seconds: 1e-5,
            closure: 0,
            cache: CacheStats::default(),
            fast: FastPathStats::default(),
            trace: None,
            commit: None,
        });
        let snap = reg.snapshot();
        assert!(snap.find(obs::STAGE_DELAY, &[("stage", "atm")]).is_none());
        let d = StageDelaySummary::read(&snap, 1);
        assert_eq!((d.traced, d.rejects_with_binding, d.total.count), (0, 0, 0));
    }
}
