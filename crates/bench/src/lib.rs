//! Shared harness code for the figure-regeneration binaries and
//! benchmarks.
//!
//! The binaries reproduce the paper's evaluation section:
//!
//! * `fig7` — admission probability vs β at backbone utilizations
//!   U ∈ {0.3, 0.6, 0.9} (the paper's Figure 7);
//! * `fig8` — admission probability vs U at β ∈ {0, 0.5, 1} (Figure 8);
//! * `validation` — packet-level simulation vs analytic worst-case
//!   bounds (our addition; the paper relies on the bounds analytically);
//! * `ablation` — the paper's allocation rules vs the §5.3 "grab
//!   everything" strawman and naive FDDI-only local schemes (§5/§7's
//!   argument, quantified);
//! * `autotune` — the TTRT/β retuning campaign (grid sweep over ring
//!   parameters against seeded offered loads, plus capacity planning
//!   by bisection over the churn rate).
//!
//! Every experiment is a seeded churn schedule run through the service
//! engine by one driver, [`churn_admissions`]; the figures and the
//! ablation differ only in the offered load and the
//! [`AdmissionOptions`] they pass it. Results are printed as aligned
//! tables with Wilson 95% intervals and written as CSV into `results/`.

#![warn(missing_docs)]

pub mod retune;
pub mod top;

use hetnet_cac::cac::AdmissionOptions;
use hetnet_cac::network::HetNetwork;
use hetnet_service::{run as run_service, ServiceConfig};
use hetnet_sim::churn::ChurnConfig;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Number of independent replications (seeds) pooled per point.
pub const REPLICATIONS: u64 = 2;

/// Connection requests simulated per replication.
pub const REQUESTS_PER_RUN: usize = 150;

/// Runs the seeded paper-style churn workload at `(rate, requests,
/// seed)` on `net` through the service engine, admitting every request
/// under `options`; returns `(admitted, requests)`. This is the one
/// experiment driver: the figures, the ablation and the autotune
/// campaign all call it. Decision tracing is off: the experiments
/// measure admission outcomes, not the observability layer.
///
/// # Panics
///
/// Panics if the service run fails (the generated workloads are
/// well-formed by construction).
#[must_use]
pub fn churn_admissions(
    net: HetNetwork,
    rate: f64,
    requests: usize,
    seed: u64,
    options: AdmissionOptions,
) -> (u64, u64) {
    let mut cfg = ServiceConfig::paper_style(rate, requests, seed);
    cfg.options = options;
    cfg.trace_decisions = false;
    let report = run_service(net, &cfg)
        .expect("experiment workload is well-formed")
        .report;
    (report.counters.admitted, report.requests)
}

/// The churn arrival rate offering mean utilization `utilization` to
/// each of the paper backbone's three inter-switch links (§6:
/// `U = λ/(3μ) · ρ/C_link`).
#[must_use]
pub fn paper_rate(utilization: f64) -> f64 {
    let churn = ChurnConfig::paper_style(1.0, 0, 0);
    ChurnConfig::rate_for_utilization(
        utilization,
        3.0,
        HetNetwork::paper_topology().access_link().rate,
        churn.mean_holding,
        &churn.source,
    )
}

/// One measured point of an admission-probability curve: the pooled
/// counts of [`REPLICATIONS`] seeded runs.
#[derive(Clone, Copy, Debug)]
pub struct ApPoint {
    /// The swept parameter (β for fig. 7, U for fig. 8).
    pub x: f64,
    /// Requests admitted, pooled over the replications.
    pub admitted: u64,
    /// Requests offered, pooled over the replications.
    pub requests: u64,
}

impl ApPoint {
    /// The pooled admission probability `admitted / requests`.
    #[must_use]
    pub fn ap(&self) -> f64 {
        self.admitted as f64 / self.requests.max(1) as f64
    }

    /// The Wilson score 95% interval on the pooled admission
    /// probability (sound near 0 and 1, where the normal interval is
    /// not).
    #[must_use]
    pub fn wilson95(&self) -> (f64, f64) {
        const Z: f64 = 1.96;
        let n = self.requests.max(1) as f64;
        let p = self.ap();
        let denom = 1.0 + Z * Z / n;
        let center = (p + Z * Z / (2.0 * n)) / denom;
        let half = Z * (p * (1.0 - p) / n + Z * Z / (4.0 * n * n)).sqrt() / denom;
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// `"ap [lo,hi]"` for the printed tables.
    #[must_use]
    pub fn cell(&self) -> String {
        let (lo, hi) = self.wilson95();
        format!("{:.3} [{lo:.3},{hi:.3}]", self.ap())
    }
}

/// Measures admission probability at offered `utilization` under
/// `options`, pooling [`REPLICATIONS`] seeds run in parallel; `x` labels
/// the point.
#[must_use]
pub fn measure_ap(utilization: f64, options: &AdmissionOptions, x: f64) -> ApPoint {
    let rate = paper_rate(utilization);
    let runs: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..REPLICATIONS)
            .map(|k| {
                scope.spawn(move || {
                    let net = HetNetwork::paper_topology();
                    churn_admissions(net, rate, REQUESTS_PER_RUN, 1000 + k, options.clone())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replication panicked"))
            .collect()
    });
    ApPoint {
        x,
        admitted: runs.iter().map(|r| r.0).sum(),
        requests: runs.iter().map(|r| r.1).sum(),
    }
}

/// Writes a curve as CSV under `results/`.
///
/// # Panics
///
/// Panics on I/O errors (the harness runs in the repo checkout).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    println!("\nwrote {}", path.display());
}

/// Renders a crude ASCII plot of one or more curves (y in [0, 1]).
#[must_use]
pub fn ascii_plot(curves: &[(&str, &[ApPoint])]) -> String {
    let mut out = String::new();
    let height = 20;
    let width = 61;
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, pts) in curves {
        for p in *pts {
            xmin = xmin.min(p.x);
            xmax = xmax.max(p.x);
        }
    }
    if !xmin.is_finite() || xmax <= xmin {
        return out;
    }
    let mut grid = vec![vec![' '; width]; height + 1];
    let marks = ['o', '+', 'x', '*'];
    for (ci, (_, pts)) in curves.iter().enumerate() {
        for p in *pts {
            let col = ((p.x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let row = ((1.0 - p.ap().clamp(0.0, 1.0)) * height as f64).round() as usize;
            grid[row][col.min(width - 1)] = marks[ci % marks.len()];
        }
    }
    out.push_str("  AP\n");
    for (i, row) in grid.iter().enumerate() {
        let y = 1.0 - i as f64 / height as f64;
        let line: String = row.iter().collect();
        out.push_str(&format!("{y:4.2} |{line}\n"));
    }
    out.push_str(&format!(
        "      {}\n      {:<28}{:>28}\n",
        "-".repeat(width),
        format!("{xmin:.2}"),
        format!("{xmax:.2}")
    ));
    for (ci, (name, _)) in curves.iter().enumerate() {
        out.push_str(&format!("      {} = {}\n", marks[ci % marks.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet_cac::cac::CacConfig;

    #[test]
    fn ascii_plot_renders_curves() {
        let pts = [
            ApPoint {
                x: 0.0,
                admitted: 10,
                requests: 10,
            },
            ApPoint {
                x: 1.0,
                admitted: 5,
                requests: 10,
            },
        ];
        let plot = ascii_plot(&[("demo", &pts)]);
        assert!(plot.contains("o"));
        assert!(plot.contains("demo"));
        // One label per row, every one distinct (a row is 0.05 AP).
        let labels: Vec<&str> = plot
            .lines()
            .filter_map(|l| l.split_once(" |"))
            .map(|(y, _)| y)
            .collect();
        assert_eq!(labels.len(), 21);
        let distinct: std::collections::BTreeSet<&str> = labels.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            labels.len(),
            "repeated y labels: {labels:?}"
        );
        assert_eq!((labels[0], labels[20]), ("1.00", "0.00"));
    }

    #[test]
    fn wilson_interval_matches_known_values() {
        let point = |admitted, requests| ApPoint {
            x: 0.0,
            admitted,
            requests,
        };
        let (lo, hi) = point(5, 10).wilson95();
        assert!((lo - 0.2366).abs() < 1e-4 && (hi - 0.7634).abs() < 1e-4);
        let (lo, hi) = point(0, 10).wilson95();
        assert!(lo == 0.0 && (hi - 0.2775).abs() < 1e-4);
        let (lo, hi) = point(10, 10).wilson95();
        assert!((lo - 0.7225).abs() < 1e-4 && hi == 1.0);
        assert_eq!(point(45, 300).cell(), "0.150 [0.114,0.195]");
    }

    #[test]
    fn light_load_admits_more_than_heavy_load() {
        // The network carries only a few fat connections, so even light
        // offered load sees some blocking; the invariant worth testing is
        // the ordering of admission probabilities.
        let run = |u| {
            let opts = AdmissionOptions::beta_search(CacConfig::fast());
            churn_admissions(HetNetwork::paper_topology(), paper_rate(u), 60, 42, opts)
        };
        let (light, heavy) = (run(0.1), run(0.9));
        assert_eq!(light.1, 60);
        assert_eq!(heavy.1, 60);
        assert!(light.0 > 24, "AP at U=0.1 too low: {light:?}");
        assert!(light.0 > heavy.0, "light {light:?} vs heavy {heavy:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let opts = AdmissionOptions::beta_search(CacConfig::fast());
            churn_admissions(HetNetwork::paper_topology(), paper_rate(0.5), 25, 99, opts)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ascii_plot_empty_is_empty() {
        assert!(ascii_plot(&[]).is_empty());
    }
}
