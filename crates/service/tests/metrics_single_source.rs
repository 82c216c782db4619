//! The metrics registry is the single source of every per-decision
//! figure: a run's report must equal what its registry snapshot says,
//! series by series, and both must agree with the audit log.
//!
//! The registry is read here independently of the service's own
//! readers — by family name and label, summing labelled parts where a
//! report field is a total — over a faulted grid run through both
//! engines and a traced paper-style run.

use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::delay::CacheStats;
use hetnet_cac::incremental::{FALLBACK_CAUSES, SKIP_CAUSES};
use hetnet_cac::network::HetNetwork;
use hetnet_cac::trace::ServerStage;
use hetnet_obs::registry::SeriesValue;
use hetnet_obs::{GeometricHistogram, RegistrySnapshot};
use hetnet_service::audit::AuditOutcome;
use hetnet_service::{AuditLog, TelemetryFrame};
use hetnet_service::{
    LatencySummary, ObsOptions, ServiceConfig, ServiceEngine, ServiceReport, ShardedEngine,
};
use hetnet_sim::churn::{TopologyShape, TrafficPattern};
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::units::Seconds;

const REJECT_CLASSES: [&str; 5] = [
    "source_exhausted",
    "dest_exhausted",
    "infeasible",
    "component_down",
    "other",
];

fn histogram(snap: &RegistrySnapshot, name: &str, labels: &[(&str, &str)]) -> GeometricHistogram {
    match snap.find(name, labels) {
        Some(SeriesValue::Histogram(h)) => h.clone(),
        other => panic!("{name}{labels:?} is not a histogram: {other:?}"),
    }
}

fn assert_summary(name: &str, got: &LatencySummary, h: &GeometricHistogram) {
    assert_eq!(got.count, h.count(), "{name} count");
    for (q, v) in [(0.5, got.p50), (0.95, got.p95), (0.99, got.p99)] {
        assert_eq!(v.value().to_bits(), h.quantile(q).to_bits(), "{name} q{q}");
    }
    assert_eq!(
        got.mean.value().to_bits(),
        h.mean().to_bits(),
        "{name} mean"
    );
    assert_eq!(got.max.value().to_bits(), h.max().to_bits(), "{name} max");
}

fn assert_cache(
    what: &str,
    got: &CacheStats,
    snap: &RegistrySnapshot,
    family: &str,
    extra: &[(&str, &str)],
) {
    let fields = [
        ("stage1", got.stage1_hits, got.stage1_misses),
        ("mux", got.mux_hits, got.mux_misses),
        ("receive", got.receive_hits, got.receive_misses),
        ("screen", got.screen_hits, got.screen_misses),
        ("grid", got.grid_hits, got.grid_misses),
    ];
    for (stage, hits, misses) in fields {
        for (result, want) in [("hit", hits), ("miss", misses)] {
            let mut labels = vec![("stage", stage), ("result", result)];
            labels.extend_from_slice(extra);
            assert_eq!(
                snap.counter_sum(family, &labels),
                want,
                "{what}: {family}{labels:?}"
            );
        }
    }
}

/// Every registry-backed report field equals the snapshot, and the
/// decision counters equal the audit log's tally.
fn assert_single_source(
    report: &ServiceReport,
    snap: &RegistrySnapshot,
    audit: &AuditLog,
    workers: usize,
) {
    // Decisions, by outcome and rejection class, against the registry
    // and against the audit log.
    let decisions = "hetnet_decisions_total";
    let c = &report.counters;
    let by_class = [
        c.rejected_source_exhausted,
        c.rejected_dest_exhausted,
        c.rejected_infeasible,
        c.rejected_component_down,
        c.rejected_other,
    ];
    assert_eq!(
        snap.counter_sum(decisions, &[("outcome", "admit")]),
        c.admitted
    );
    assert_eq!(
        snap.counter_sum(decisions, &[("outcome", "reject")]),
        c.rejected()
    );
    let mut tally = [0u64; 5];
    let mut admitted = 0;
    for e in audit.entries() {
        match &e.outcome {
            AuditOutcome::Admitted { .. } => admitted += 1,
            AuditOutcome::Rejected { class, .. } => {
                let i = REJECT_CLASSES
                    .iter()
                    .position(|c| c == class)
                    .expect("known class");
                tally[i] += 1;
            }
            AuditOutcome::Reconfigured { .. } => {}
        }
    }
    assert_eq!(admitted, c.admitted, "admissions vs audit");
    for ((class, want), audited) in REJECT_CLASSES.iter().zip(by_class).zip(tally) {
        let labels = [("outcome", "reject"), ("class", *class)];
        assert_eq!(snap.counter_sum(decisions, &labels), want, "{class}");
        assert_eq!(audited, want, "{class} vs audit");
    }
    assert_eq!(report.requests, c.total());
    assert_eq!(report.latency.count, report.audit_len as u64);
    assert_summary(
        "latency",
        &report.latency,
        &histogram(snap, "hetnet_decision_latency_seconds", &[]),
    );

    assert_cache(
        "cache",
        &report.cache,
        snap,
        "hetnet_cache_lookups_total",
        &[],
    );
    let shards: Vec<String> = (0..workers)
        .map(|w| w.to_string())
        .chain((workers > 0).then(|| "inline".to_string()))
        .collect();
    assert_eq!(report.shard_cache.len(), shards.len());
    for (got, shard) in report.shard_cache.iter().zip(&shards) {
        assert_cache(
            shard,
            got,
            snap,
            "hetnet_shard_cache_lookups_total",
            &[("shard", shard)],
        );
    }

    let fast = "hetnet_fast_path_probes_total";
    let f = &report.fast_path;
    assert_eq!(
        snap.counter_sum(fast, &[("outcome", "accept")]),
        f.fast_accepts
    );
    assert_eq!(
        snap.counter_sum(fast, &[("outcome", "reject")]),
        f.fast_rejects
    );
    assert_eq!(
        snap.counter_sum(fast, &[("outcome", "fallback")]),
        f.fallbacks
    );
    assert_eq!(snap.counter_sum(fast, &[("outcome", "skip")]), f.no_context);
    for (cause, n) in FALLBACK_CAUSES.iter().zip(f.fallback_causes) {
        assert_eq!(
            snap.counter_sum(fast, &[("outcome", "fallback"), ("cause", cause)]),
            n
        );
    }
    for (cause, n) in SKIP_CAUSES.iter().zip(f.skip_causes) {
        assert_eq!(
            snap.counter_sum(fast, &[("outcome", "skip"), ("cause", cause)]),
            n
        );
    }
    assert_eq!(f.fallback_causes.iter().sum::<u64>(), f.fallbacks);
    assert_eq!(f.skip_causes.iter().sum::<u64>(), f.no_context);

    let d = &report.delay_attribution;
    if snap.find("hetnet_path_delay_seconds", &[]).is_none() {
        assert_eq!((d.traced, d.rejects_with_binding, d.total.count), (0, 0, 0));
        return;
    }
    assert_eq!(
        d.traced, report.requests,
        "a traced run traces every decision"
    );
    let b = &d.bindings;
    let bindings = [
        ("source_bandwidth", b.source_bandwidth),
        ("dest_bandwidth", b.dest_bandwidth),
        ("deadline", b.deadline),
        ("unstable", b.unstable),
        ("component_down", b.component_down),
        ("other", b.other),
    ];
    for (binding, n) in bindings {
        let labels = [("binding", binding)];
        assert_eq!(
            snap.counter_sum("hetnet_reject_bindings_total", &labels),
            n,
            "{binding}"
        );
    }
    assert_eq!(d.rejects_with_binding, b.total());
    let stages = [&d.fddi_s, &d.id_s, &d.atm, &d.id_r, &d.fddi_r];
    for (stage, got) in ServerStage::ALL.iter().zip(stages) {
        let h = histogram(
            snap,
            "hetnet_stage_delay_seconds",
            &[("stage", stage.name())],
        );
        assert_summary(stage.name(), got, &h);
    }
    assert_summary(
        "total",
        &d.total,
        &histogram(snap, "hetnet_path_delay_seconds", &[]),
    );
    assert_summary(
        "slack",
        &d.slack,
        &histogram(snap, "hetnet_deadline_slack_seconds", &[]),
    );
}

/// The last telemetry frame is cut after the last decision, so it
/// carries the report's decision counts.
fn assert_final_frame(report: &ServiceReport, frames: &[TelemetryFrame]) {
    let last = &frames.last().expect("telemetry is on").snapshot;
    let decisions = |outcome| last.counter_sum("hetnet_decisions_total", &[("outcome", outcome)]);
    assert_eq!(decisions("admit"), report.counters.admitted);
    assert_eq!(decisions("reject"), report.counters.rejected());
}

fn grid_cfg() -> ServiceConfig {
    let mut cfg = ServiceConfig::paper_style(2.0, 150, 41);
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    cfg.churn.shape = TopologyShape {
        rings: 8,
        hosts_per_ring: 3,
    };
    cfg.churn.pattern = TrafficPattern::Paired;
    cfg.trace_decisions = false;
    cfg.faults = Some(FaultConfig {
        mean_gap: Seconds::new(8.0),
        mean_outage: Seconds::new(4.0),
        max_outage: Seconds::new(8.0),
        shrink_factor: Some(0.85),
        seed: 41 ^ 0x5eed,
    });
    cfg.obs = ObsOptions {
        telemetry_period: Some(Seconds::new(10.0)),
        ..ObsOptions::default()
    };
    cfg
}

#[test]
fn faulted_grid_reports_read_the_registry() {
    let cfg = grid_cfg();
    let engine = ServiceEngine::new(HetNetwork::grid(8, 3), &cfg).expect("grid config");
    let registry = engine.registry();
    let sequential = engine.finish().expect("sequential run");
    assert_single_source(
        &sequential.report,
        &registry.snapshot(),
        &sequential.audit,
        0,
    );
    assert_final_frame(&sequential.report, &sequential.telemetry);
    let c = &sequential.report.counters;
    assert!(c.admitted > 0 && c.rejected_component_down > 0, "{c:?}");

    let engine = ShardedEngine::new(HetNetwork::grid(8, 3), &cfg, 2).expect("grid config");
    let registry = engine.registry();
    let (sharded, _) = engine.run().expect("sharded run");
    assert_single_source(&sharded.report, &registry.snapshot(), &sharded.audit, 2);
    assert_final_frame(&sharded.report, &sharded.telemetry);
    assert_eq!(sharded.report.counters, sequential.report.counters);
}

#[test]
fn traced_paper_style_report_reads_the_registry() {
    let mut cfg = ServiceConfig::paper_style(2.0, 120, 17);
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    assert!(cfg.trace_decisions);
    let engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).expect("paper config");
    let registry = engine.registry();
    let run = engine.finish().expect("traced run");
    assert_single_source(&run.report, &registry.snapshot(), &run.audit, 0);
    let d = &run.report.delay_attribution;
    assert!(d.rejects_with_binding > 0 && d.slack.count > 0, "{d:?}");
}
