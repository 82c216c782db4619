//! A shared, cross-thread metrics registry.
//!
//! The thread-local trace collector answers "what happened inside this
//! decision"; the registry answers "how is the whole run doing, right
//! now, from any thread". Engines, evaluator caches, fast-path
//! ladders, and every shard worker register named series once and then
//! update them lock-free: counters and gauges are single atomics,
//! histograms are [`AtomicHistogram`]s. The registry's mutex guards
//! only registration and snapshotting — never the hot update path.
//!
//! ```
//! use hetnet_obs::registry::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let admitted = reg.counter("demo_decisions_total", "Decisions.", &[("outcome", "admit")]);
//! admitted.inc();
//! let text = reg.to_openmetrics();
//! assert!(text.contains("demo_decisions_total{outcome=\"admit\"} 1"));
//! ```

use crate::export::{push_family_header, push_label_value};
use crate::hist::{AtomicHistogram, GeometricHistogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a registered family measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-decreasing integer.
    Counter,
    /// Instantaneous float value.
    Gauge,
    /// Geometric distribution of observations (exported as a summary).
    Histogram,
}

impl MetricKind {
    /// The exposition-format type name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::Histogram => "summary",
        }
    }
}

/// A registered counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registered gauge handle (an `f64` stored as bits). Cloning shares
/// the underlying cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (CAS loop; safe from any thread).
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A registered histogram handle. Cloning shares the underlying
/// buckets.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<AtomicHistogram>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        self.0.record(v);
    }

    /// A point-in-time copy.
    #[must_use]
    pub fn snapshot(&self) -> GeometricHistogram {
        self.0.snapshot()
    }
}

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<AtomicHistogram>),
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Keyed by the canonical (name-sorted) label set.
    series: BTreeMap<Vec<(String, String)>, Series>,
}

/// The shared registry. Wrap in an [`Arc`] to hand to worker threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

fn canonical(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| ((*k).to_string(), (*val).to_string()))
        .collect();
    v.sort();
    v
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn series(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        mk: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} registered as {} and {}",
            family.kind.name(),
            kind.name()
        );
        match family.series.entry(canonical(labels)).or_insert_with(mk) {
            Series::Counter(c) => Series::Counter(Arc::clone(c)),
            Series::Gauge(g) => Series::Gauge(Arc::clone(g)),
            Series::Histogram(h) => Series::Histogram(Arc::clone(h)),
        }
    }

    /// Registers (or re-attaches to) a counter series. The same
    /// `name` + label set from any thread returns a handle to the same
    /// cell.
    ///
    /// # Panics
    /// If `name` was registered with a different kind.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels, || {
            Series::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Series::Counter(c) => Counter(c),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or re-attaches to) a gauge series.
    ///
    /// # Panics
    /// If `name` was registered with a different kind.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels, || {
            Series::Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits())))
        }) {
            Series::Gauge(g) => Gauge(g),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or re-attaches to) a histogram series.
    ///
    /// # Panics
    /// If `name` was registered with a different kind.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels, || {
            Series::Histogram(Arc::new(AtomicHistogram::new()))
        }) {
            Series::Histogram(h) => Histogram(h),
            _ => unreachable!("kind checked above"),
        }
    }

    /// A point-in-time copy of every registered series, families and
    /// series in deterministic (sorted) order.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families = self.families.lock().expect("registry poisoned");
        RegistrySnapshot {
            families: families
                .iter()
                .map(|(name, fam)| FamilySnapshot {
                    name,
                    help: fam.help,
                    kind: fam.kind,
                    series: fam
                        .series
                        .iter()
                        .map(|(labels, series)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: match series {
                                Series::Counter(c) => {
                                    SeriesValue::Counter(c.load(Ordering::Relaxed))
                                }
                                Series::Gauge(g) => {
                                    SeriesValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                                }
                                Series::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// [`Self::snapshot`] rendered as OpenMetrics text.
    #[must_use]
    pub fn to_openmetrics(&self) -> String {
        self.snapshot().to_openmetrics()
    }
}

/// One series captured by [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug)]
pub struct SeriesSnapshot {
    /// Canonical (name-sorted) label set.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SeriesValue,
}

/// The captured value of one series.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram contents.
    Histogram(GeometricHistogram),
}

/// One family captured by [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug)]
pub struct FamilySnapshot {
    /// Family name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Family kind.
    pub kind: MetricKind,
    /// The family's series, label-sorted.
    pub series: Vec<SeriesSnapshot>,
}

/// A point-in-time copy of a whole registry.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// Captured families, name-sorted.
    pub families: Vec<FamilySnapshot>,
}

fn push_series_name(out: &mut String, name: &str, suffix: &str, labels: &[(String, String)]) {
    push_series_name_extra(out, name, suffix, labels, None);
}

fn push_series_name_extra(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) {
    out.push_str(name);
    out.push_str(suffix);
    if labels.is_empty() && extra.is_none() {
        out.push(' ');
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push('=');
        push_label_value(out, v);
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        push_label_value(out, v);
    }
    out.push_str("} ");
}

impl RegistrySnapshot {
    /// Renders the snapshot as OpenMetrics/Prometheus text. Histograms
    /// export as summaries: `{quantile="0.5|0.95|0.99"}` plus `_sum`,
    /// `_count`, and `_max` lines. Deterministic order (families and
    /// label sets sorted); label values escaped per the exposition
    /// format ([`crate::export::push_label_value`]).
    #[must_use]
    pub fn to_openmetrics(&self) -> String {
        let mut out = String::with_capacity(self.families.len() * 128);
        for fam in &self.families {
            push_family_header(&mut out, fam.name, fam.help, fam.kind.name());
            for s in &fam.series {
                match &s.value {
                    SeriesValue::Counter(v) => {
                        push_series_name(&mut out, fam.name, "", &s.labels);
                        let _ = writeln!(out, "{v}");
                    }
                    SeriesValue::Gauge(v) => {
                        push_series_name(&mut out, fam.name, "", &s.labels);
                        let _ = writeln!(out, "{v}");
                    }
                    SeriesValue::Histogram(h) => {
                        for (q, qs) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                            push_series_name_extra(
                                &mut out,
                                fam.name,
                                "",
                                &s.labels,
                                Some(("quantile", qs)),
                            );
                            let _ = writeln!(out, "{:.9}", h.quantile(q));
                        }
                        push_series_name(&mut out, fam.name, "_sum", &s.labels);
                        let _ = writeln!(out, "{:.9}", h.sum());
                        push_series_name(&mut out, fam.name, "_count", &s.labels);
                        let _ = writeln!(out, "{}", h.count());
                        push_series_name(&mut out, fam.name, "_max", &s.labels);
                        let _ = writeln!(out, "{:.9}", h.max());
                    }
                }
            }
        }
        out
    }

    /// The captured value of `name`'s series matching `labels`
    /// (order-insensitive), if present.
    #[must_use]
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesValue> {
        let want = canonical(labels);
        self.families
            .iter()
            .find(|f| f.name == name)?
            .series
            .iter()
            .find(|s| s.labels == want)
            .map(|s| &s.value)
    }

    /// Sum of `name`'s counter series whose labels include every pair
    /// of `subset` (an empty subset sums the whole family); 0 when
    /// nothing matches. This is how a total is read back from the
    /// labelled series that are its parts.
    #[must_use]
    pub fn counter_sum(&self, name: &str, subset: &[(&str, &str)]) -> u64 {
        let Some(family) = self.families.iter().find(|f| f.name == name) else {
            return 0;
        };
        family
            .series
            .iter()
            .filter(|s| {
                subset
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| match s.value {
                SeriesValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_across_registrations() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("c_total", "help", &[("shard", "0")]);
        let b = reg.counter("c_total", "ignored later help", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = reg.counter("c_total", "help", &[("shard", "1")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("m", "help", &[]);
        let _g = reg.gauge("m", "help", &[]);
    }

    #[test]
    fn gauge_set_add_get() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g", "help", &[]);
        g.set(1.5);
        g.add(0.25);
        assert!((g.get() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn openmetrics_rendering_is_deterministic_and_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", "Last family.", &[]).inc();
        reg.gauge("a_gauge", "First family.", &[("k", "v\"q\n")])
            .set(2.0);
        let h = reg.histogram("mid_seconds", "Latency.", &[("shard", "3")]);
        h.observe(1e-3);
        h.observe(2e-3);
        let text = reg.to_openmetrics();
        let a = text.find("# HELP a_gauge").unwrap();
        let m = text.find("# HELP mid_seconds").unwrap();
        let z = text.find("# HELP z_total").unwrap();
        assert!(a < m && m < z, "families sorted");
        assert!(text.contains("a_gauge{k=\"v\\\"q\\n\"} 2"));
        assert!(text.contains("# TYPE mid_seconds summary"));
        assert!(text.contains("mid_seconds{shard=\"3\",quantile=\"0.99\"} "));
        assert!(text.contains("mid_seconds_count{shard=\"3\"} 2"));
        assert!(text.contains("mid_seconds_max{shard=\"3\"} 0.002"));
        assert!(text.contains("z_total 1"));
    }

    #[test]
    fn snapshot_find_is_label_order_insensitive() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "h", &[("b", "2"), ("a", "1")]).inc();
        let snap = reg.snapshot();
        match snap.find("c_total", &[("a", "1"), ("b", "2")]) {
            Some(SeriesValue::Counter(1)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(snap.find("c_total", &[("a", "1")]).is_none());
        assert!(snap.find("missing", &[]).is_none());
    }

    #[test]
    fn counter_sum_adds_every_series_carrying_the_subset() {
        let reg = MetricsRegistry::new();
        reg.counter("d_total", "h", &[("outcome", "admit")]).add(4);
        for (class, n) in [("deadline", 2), ("bandwidth", 3)] {
            reg.counter("d_total", "h", &[("outcome", "reject"), ("class", class)])
                .add(n);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("d_total", &[("outcome", "reject")]), 5);
        assert_eq!(snap.counter_sum("d_total", &[("outcome", "admit")]), 4);
        assert_eq!(snap.counter_sum("d_total", &[]), 9);
        assert_eq!(
            snap.counter_sum("d_total", &[("outcome", "reject"), ("class", "deadline")]),
            2
        );
        assert_eq!(snap.counter_sum("d_total", &[("outcome", "other")]), 0);
        assert_eq!(snap.counter_sum("missing", &[]), 0);
    }

    #[test]
    fn concurrent_updates_from_many_threads() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    let shard = t.to_string();
                    let c = reg.counter("d_total", "h", &[("shard", &shard)]);
                    let all = reg.counter("all_total", "h", &[]);
                    let h = reg.histogram("lat_seconds", "h", &[]);
                    for i in 0..1000 {
                        c.inc();
                        all.inc();
                        h.observe(1e-6 * f64::from(i));
                    }
                });
            }
        });
        let snap = reg.snapshot();
        match snap.find("all_total", &[]) {
            Some(SeriesValue::Counter(4000)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        match snap.find("lat_seconds", &[]) {
            Some(SeriesValue::Histogram(h)) => assert_eq!(h.count(), 4000),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
