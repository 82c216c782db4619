//! Golden-file schema check for the observability JSON-lines formats.
//!
//! A pinned admission scenario (two admits, a deadline reject, a
//! bandwidth reject, an unstable-server reject, a component failure
//! with teardown, a component-down reject, and a restore) is run with
//! decision tracing on under an installed `hetnet-obs` collector. Every
//! [`DecisionTrace::to_json_line`] line and every obs record from
//! [`Trace::to_json_lines`] is reduced to its *shape* — keys,
//! structure, and deterministic string values verbatim, every number
//! replaced by `N` — deduplicated, sorted, and compared against
//! `tests/golden/obs_schema.txt`.
//!
//! The same file also pins the [`hetnet_obs::MetricsRegistry`]
//! OpenMetrics exposition format (`registry` prefix) and the
//! [`hetnet_obs::FlightRecorder`] JSON shape (`flight` prefix),
//! including the span-timeline envelope
//! (`{phase, shard, ledger_version, record}`) embedded in a captured
//! outlier.
//!
//! The shape set is insensitive to timings and eval counts, but any
//! key rename, field addition/removal, or structural change shows up
//! as a diff. After an *intentional* schema change, regenerate with:
//!
//! ```text
//! OBS_SCHEMA_WRITE=1 cargo test -p hetnet-cac --test obs_schema
//! ```

use hetnet_cac::cac::{AdmissionOptions, CacConfig, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::network::{Component, HetNetwork, HostId, RingId};
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

fn spec(src: (usize, usize), dst: (usize, usize), deadline_ms: f64) -> ConnectionSpec {
    ConnectionSpec {
        source: HostId {
            ring: src.0,
            station: src.1,
        },
        dest: HostId {
            ring: dst.0,
            station: dst.1,
        },
        envelope: Arc::new(
            DualPeriodicEnvelope::new(
                Bits::from_mbits(2.0),
                Seconds::from_millis(100.0),
                Bits::from_mbits(0.25),
                Seconds::from_millis(10.0),
                BitsPerSec::from_mbps(100.0),
            )
            .unwrap(),
        ),
        deadline: Seconds::from_millis(deadline_ms),
        class: 0,
    }
}

/// Reduces one JSON (or OpenMetrics) line to its schema shape: strings
/// stay verbatim (they are deterministic in the pinned scenario),
/// every number — including inside OpenMetrics label-free values —
/// becomes `N`.
fn shape(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.push_str(&line[start..i]);
            }
            b'0'..=b'9' | b'-' => {
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                out.push('N');
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

#[test]
fn exporter_schemas_match_golden_file() {
    let beta = AdmissionOptions::beta_search(CacConfig::fast());
    let whole = SyncBandwidth::new(Seconds::from_millis(8.0));
    let tiny = SyncBandwidth::new(Seconds::from_micros(200.0));
    let fixed_big = AdmissionOptions::fixed(CacConfig::fast(), whole, whole);
    let fixed_tiny = AdmissionOptions::fixed(CacConfig::fast(), tiny, tiny);

    let (decision_lines, trace) = hetnet_obs::collect(1 << 14, || {
        let mut s = NetworkState::new(HetNetwork::paper_topology());
        s.set_decision_tracing(true);
        s.set_fast_path(true).expect("empty state");
        let mut lines = Vec::new();
        // Admit, admit, deadline reject, bandwidth reject, unstable.
        for (sp, opts) in [
            (spec((0, 0), (1, 0), 100.0), &beta),
            (spec((1, 0), (2, 0), 120.0), &beta),
            (spec((0, 1), (1, 1), 1.0), &beta),
            (spec((0, 2), (2, 1), 100.0), &fixed_big),
            (spec((0, 3), (2, 2), 100.0), &fixed_tiny),
        ] {
            s.admit(sp, opts).expect("well-formed request");
            lines.push(
                s.last_decision_trace()
                    .expect("tracing is on")
                    .to_json_line(),
            );
        }
        // Fail ring 1 (tears down both admitted connections), observe a
        // component-down reject, then restore.
        let report = s
            .set_component_down(Component::Ring(RingId(1)))
            .expect("known component");
        assert_eq!(report.torn.len(), 2);
        s.admit(spec((1, 2), (2, 3), 100.0), &beta)
            .expect("well-formed request");
        lines.push(
            s.last_decision_trace()
                .expect("tracing is on")
                .to_json_line(),
        );
        s.set_component_up(Component::Ring(RingId(1)))
            .expect("known component");
        lines
    });
    assert_eq!(trace.dropped(), 0, "capacity too small for the scenario");

    let mut shapes: BTreeSet<String> = BTreeSet::new();
    for line in &decision_lines {
        shapes.insert(format!("decision {}", shape(line)));
    }
    for line in trace.to_json_lines().lines() {
        shapes.insert(format!("obs {}", shape(line)));
    }

    // Registry exposition schema: one family of each kind, labelled
    // and label-free, so every header/sample form appears.
    let registry = hetnet_obs::MetricsRegistry::new();
    registry
        .counter(
            "hetnet_decisions_total",
            "Admission decisions, by outcome.",
            &[("outcome", "admit")],
        )
        .add(3);
    registry
        .gauge(
            "hetnet_active_connections",
            "Connections currently admitted.",
            &[],
        )
        .set(2.0);
    let latency = registry.histogram(
        "hetnet_decision_latency_seconds",
        "Wall-clock admission decision latency.",
        &[],
    );
    latency.observe(1e-4);
    latency.observe(2e-4);
    for line in registry.to_openmetrics().lines() {
        shapes.insert(format!("registry {}", shape(line)));
    }

    // Flight-recorder schema: one conflict outlier carrying both
    // payloads — a real decision trace and a span-timeline envelope.
    let flight = hetnet_obs::FlightRecorder::new(4, 1_000_000);
    flight.observe(
        &hetnet_obs::FlightObservation {
            correlation: 7,
            shard: Some(1),
            at_seconds: 3.5,
            latency_seconds: 2e-4,
            conflict: true,
            reconfig: false,
            reject_class: Some("deadline"),
        },
        || {
            (
                decision_lines[0].clone(),
                "[{\"phase\":\"speculate\",\"shard\":1,\"ledger_version\":7,\
                 \"record\":{\"seq\":0,\"at_ns\":1,\"kind\":\"event\",\
                 \"name\":\"probe\",\"span\":0,\"fields\":{}}}]"
                    .to_string(),
            )
        },
    );
    shapes.insert(format!("flight {}", shape(&flight.to_json())));

    let mut rendered = String::new();
    for s in &shapes {
        rendered.push_str(s);
        rendered.push('\n');
    }

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_schema.txt");
    if std::env::var_os("OBS_SCHEMA_WRITE").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden file");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with OBS_SCHEMA_WRITE=1",
            golden_path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "exporter schema drifted from {}; if the change is intentional, \
         regenerate with OBS_SCHEMA_WRITE=1",
        golden_path.display()
    );
}
