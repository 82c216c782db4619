//! `hetnet-top`: rendering for live run telemetry.
//!
//! The service layer cuts periodic snapshots of its
//! [`hetnet_obs::MetricsRegistry`] into a shared ring (see
//! `hetnet_service::ObsOptions::telemetry_period`). This module turns
//! one such frame into the aligned one-screen dashboard the
//! `hetnet_top` binary redraws while a sharded run is going
//! ([`render_frame`]), reading the snapshot directly: the dashboard,
//! the run's report, and the registry are one set of numbers.

use hetnet_obs::registry::SeriesValue;
use hetnet_obs::RegistrySnapshot;
use std::fmt::Write as _;

/// The value of a gauge series, 0 when absent.
fn gauge(snap: &RegistrySnapshot, name: &str) -> f64 {
    match snap.find(name, &[]) {
        Some(SeriesValue::Gauge(v)) => *v,
        _ => 0.0,
    }
}

/// `(p50, p95, p99, max)` of a histogram series in microseconds, zeros
/// when absent.
fn quantiles_us(snap: &RegistrySnapshot, name: &str) -> [f64; 4] {
    match snap.find(name, &[]) {
        Some(SeriesValue::Histogram(h)) => {
            [h.quantile(0.5), h.quantile(0.95), h.quantile(0.99), h.max()].map(|v| v * 1e6)
        }
        _ => [0.0; 4],
    }
}

fn hit_pct(snap: &RegistrySnapshot, stage: &str) -> f64 {
    let lookups = |result| {
        snap.counter_sum(
            "hetnet_cache_lookups_total",
            &[("stage", stage), ("result", result)],
        ) as f64
    };
    let (hits, misses) = (lookups("hit"), lookups("miss"));
    if hits + misses > 0.0 {
        hits / (hits + misses) * 100.0
    } else {
        0.0
    }
}

/// Renders one telemetry frame as the `hetnet-top` dashboard: a fixed
/// set of aligned lines covering decisions, latency quantiles, cache
/// hit rates, fast-path outcomes, per-shard speculation counts, and
/// the flight recorder. Families absent from the frame render as
/// zeros, so the dashboard is stable from the first frame on.
#[must_use]
pub fn render_frame(at: f64, snap: &RegistrySnapshot) -> String {
    let count = |name, labels: &[(&str, &str)]| snap.counter_sum(name, labels);
    let mut out = String::with_capacity(512);
    let _ = writeln!(out, "hetnet-top   t = {at:.1} s simulated");
    let _ = writeln!(
        out,
        "decisions    admitted {:>8}  rejected {:>8}  active {:>8}  ledger v{}",
        count("hetnet_decisions_total", &[("outcome", "admit")]),
        count("hetnet_decisions_total", &[("outcome", "reject")]),
        gauge(snap, "hetnet_active_connections"),
        gauge(snap, "hetnet_ledger_version"),
    );
    let [p50, p95, p99, max] = quantiles_us(snap, "hetnet_decision_latency_seconds");
    let _ = writeln!(
        out,
        "latency      p50 {p50:>8.1}us  p95 {p95:>8.1}us  p99 {p99:>8.1}us  max {max:>8.1}us",
    );
    let _ = writeln!(
        out,
        "cache        stage1 {:>5.1}%  mux {:>5.1}%  receive {:>5.1}%  screen {:>5.1}%",
        hit_pct(snap, "stage1"),
        hit_pct(snap, "mux"),
        hit_pct(snap, "receive"),
        hit_pct(snap, "screen"),
    );
    let fp = |o| count("hetnet_fast_path_probes_total", &[("outcome", o)]);
    let _ = writeln!(
        out,
        "fast path    accept {:>8}  reject {:>8}  fallback {:>6}  skip {:>8}",
        fp("accept"),
        fp("reject"),
        fp("fallback"),
        fp("skip"),
    );
    let mut shards: Vec<(&str, u64)> = snap
        .families
        .iter()
        .filter(|f| f.name == "hetnet_shard_speculations_total")
        .flat_map(|f| &f.series)
        .filter_map(|s| match s.value {
            SeriesValue::Counter(v) => s
                .labels
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, shard)| (shard.as_str(), v)),
            _ => None,
        })
        .collect();
    shards.sort_by_key(|(s, _)| s.parse::<u64>().unwrap_or(u64::MAX));
    out.push_str("shards       ");
    if shards.is_empty() {
        out.push_str("(sequential engine)");
    } else {
        for (s, v) in &shards {
            let _ = write!(out, "[{s}] {v:>7} ");
        }
    }
    let _ = writeln!(
        out,
        " conflicts {:>6}  inline {:>6}",
        count("hetnet_commit_conflicts_total", &[]),
        count("hetnet_inline_decisions_total", &[]),
    );
    let _ = writeln!(
        out,
        "flight       outliers {:>6}  telemetry frames {:>6}",
        count("hetnet_flight_outliers_total", &[]),
        count("hetnet_telemetry_frames_total", &[]),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet_obs::MetricsRegistry;

    #[test]
    fn renders_a_stable_dashboard() {
        let reg = MetricsRegistry::new();
        reg.counter("hetnet_decisions_total", "d", &[("outcome", "admit")])
            .add(12);
        for (class, n) in [("infeasible", 2), ("component_down", 1)] {
            reg.counter(
                "hetnet_decisions_total",
                "d",
                &[("outcome", "reject"), ("class", class)],
            )
            .add(n);
        }
        reg.gauge("hetnet_active_connections", "a", &[]).set(3.0);
        reg.histogram("hetnet_decision_latency_seconds", "l", &[])
            .observe(1e-4);
        reg.counter(
            "hetnet_cache_lookups_total",
            "c",
            &[("stage", "stage1"), ("result", "hit")],
        )
        .add(9);
        reg.counter(
            "hetnet_cache_lookups_total",
            "c",
            &[("stage", "stage1"), ("result", "miss")],
        )
        .add(1);
        for (cause, n) in [("mux-horizon", 4), ("ambiguous", 1)] {
            reg.counter(
                "hetnet_fast_path_probes_total",
                "f",
                &[("outcome", "fallback"), ("cause", cause)],
            )
            .add(n);
        }
        reg.counter("hetnet_shard_speculations_total", "s", &[("shard", "1")])
            .add(5);
        reg.counter("hetnet_shard_speculations_total", "s", &[("shard", "0")])
            .add(6);
        let frame = render_frame(42.0, &reg.snapshot());
        assert!(frame.contains("t = 42.0 s"));
        assert!(frame.contains("admitted       12"));
        // Rejections and fallbacks are the sums of their labelled parts.
        assert!(frame.contains("rejected        3"));
        assert!(frame.contains("fallback      5"));
        assert!(frame.contains("active        3"));
        assert!(frame.contains("max    100.0us"));
        assert!(frame.contains("stage1  90.0%"));
        assert!(frame.contains("[0]       6 [1]       5"));
        assert_eq!(frame.lines().count(), 7);
    }

    #[test]
    fn empty_frame_renders_zeros() {
        let frame = render_frame(0.0, &RegistrySnapshot::default());
        assert!(frame.contains("(sequential engine)"));
        assert!(frame.contains("admitted        0"));
    }
}
