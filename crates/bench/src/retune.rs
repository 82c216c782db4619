//! Shared harness for the TTRT/β autotune campaigns: wires the
//! engine-agnostic search scaffolding of [`hetnet_sim::autotune`] to
//! real service runs on retuned paper topologies.
//!
//! The sweep's evaluation closure builds a fresh
//! [`HetNetwork::paper_topology`] with every ring's TTRT replaced by
//! the grid value, runs the seeded churn workload through the shared
//! experiment driver ([`churn_admissions`]) at the grid β, and scores
//! the point by admission probability. Everything is fixed-seed, so
//! campaigns are exactly reproducible; the only machine-dependent
//! numbers an autotune campaign emits are wall-clock asides on stderr.

use crate::churn_admissions;
use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::network::HetNetwork;
use hetnet_fddi::ring::RingConfig;
use hetnet_sim::autotune::{bisect_capacity, sweep, SweepGrid, SweepOutcome, SweepPoint};
use hetnet_traffic::units::Seconds;

/// The paper's frozen TTRT default, milliseconds — the baseline every
/// campaign compares its winner against.
pub const DEFAULT_TTRT_MS: f64 = 8.0;

/// The default β the service workloads run at (the [`CacConfig`]
/// default).
pub const DEFAULT_BETA: f64 = 0.5;

/// The paper topology with every ring's TTRT replaced by `ttrt_ms`.
///
/// # Panics
///
/// Panics when `ttrt_ms` is not a valid ring parameter (grids are
/// authored, so an invalid value is a campaign-authoring bug).
#[must_use]
pub fn retuned_topology(ttrt_ms: f64) -> HetNetwork {
    let ring = RingConfig {
        ttrt: Seconds::from_millis(ttrt_ms),
        ..RingConfig::standard()
    };
    HetNetwork::paper_topology()
        .with_ring_configs(vec![ring; 3])
        .expect("grid TTRT must be a valid ring parameter")
}

/// The seeded churn workload at `(rate, requests, seed)` on the paper
/// topology retuned to `ttrt_ms`, admitted by the β-search at `beta`:
/// the sweep's evaluation closure, returning `(admitted, requests)`.
fn retuned_admissions(
    rate: f64,
    requests: usize,
    seed: u64,
    ttrt_ms: f64,
    beta: f64,
) -> (u64, u64) {
    let options = AdmissionOptions::beta_search(CacConfig::fast().with_beta(beta));
    churn_admissions(retuned_topology(ttrt_ms), rate, requests, seed, options)
}

/// The sweep outcome at one offered-load point, with the baseline /
/// winner comparison the campaign reports.
#[derive(Clone, Debug)]
pub struct LoadSweep {
    /// Churn arrival rate of this load point, requests per second.
    pub rate: f64,
    /// The full grid sweep at this load.
    pub outcome: SweepOutcome,
}

impl LoadSweep {
    /// The frozen-default point (8 ms, β 0.5); the campaign grids
    /// always contain it.
    ///
    /// # Panics
    ///
    /// Panics when the grid was authored without the default point.
    #[must_use]
    pub fn baseline(&self) -> &SweepPoint {
        self.outcome
            .baseline(DEFAULT_TTRT_MS, DEFAULT_BETA)
            .expect("campaign grids must contain the frozen default point")
    }

    /// The best point whose TTRT differs from the frozen 8 ms default
    /// — the "did retuning the *ring* actually help" winner, as
    /// opposed to a β-only improvement.
    #[must_use]
    pub fn retuned_best(&self) -> Option<&SweepPoint> {
        self.outcome
            .points
            .iter()
            .filter(|p| p.ttrt_ms.to_bits() != DEFAULT_TTRT_MS.to_bits())
            .reduce(|best, p| {
                if p.admission_probability() > best.admission_probability() {
                    p
                } else {
                    best
                }
            })
    }

    /// Admission-probability gain of [`Self::retuned_best`] over the
    /// frozen baseline (negative when the default wins).
    #[must_use]
    pub fn retuned_gain(&self) -> f64 {
        self.retuned_best().map_or(0.0, |p| {
            p.admission_probability() - self.baseline().admission_probability()
        })
    }
}

/// Sweeps the grid at every offered load, printing one stderr line per
/// load point.
#[must_use]
pub fn campaign(loads: &[f64], grid: &SweepGrid, requests: usize, seed: u64) -> Vec<LoadSweep> {
    loads
        .iter()
        .map(|&rate| {
            let outcome = sweep(grid, |ttrt_ms, beta| {
                retuned_admissions(rate, requests, seed, ttrt_ms, beta)
            });
            let ls = LoadSweep { rate, outcome };
            let best = ls.outcome.best().expect("non-empty campaign grid");
            eprintln!(
                "  load {rate:.2}/s: best ttrt {:.1} ms beta {:.2} (AP {:.3}), \
                 default 8 ms AP {:.3}, retuned gain {:+.3}",
                best.ttrt_ms,
                best.beta,
                best.admission_probability(),
                ls.baseline().admission_probability(),
                ls.retuned_gain(),
            );
            ls
        })
        .collect()
}

/// Renders one sweep point as a JSON object.
fn json_point(p: &SweepPoint) -> String {
    format!(
        concat!(
            "{{\"ttrt_ms\": {}, \"beta\": {}, \"admitted\": {}, \"requests\": {}, ",
            "\"admission_probability\": {:.6}}}"
        ),
        p.ttrt_ms,
        p.beta,
        p.admitted,
        p.requests,
        p.admission_probability(),
    )
}

/// Renders a whole campaign (grid, per-load sweeps, baselines and
/// winners) as the JSON object the `autotune` binary writes.
#[must_use]
pub fn campaign_json(grid: &SweepGrid, sweeps: &[LoadSweep], requests: usize, seed: u64) -> String {
    let grid_json = format!(
        "{{\"ttrts_ms\": [{}], \"betas\": [{}]}}",
        grid.ttrts_ms
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        grid.betas
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    let loads = sweeps
        .iter()
        .map(|ls| {
            let best = ls.outcome.best().expect("non-empty campaign grid");
            let retuned = ls.retuned_best().expect("grid has non-default TTRTs");
            format!(
                concat!(
                    "{{\"rate_per_sec\": {}, \"baseline\": {}, \"best\": {}, ",
                    "\"retuned_best\": {}, \"retuned_gain\": {:.6}, ",
                    "\"beats_default\": {}, \"points\": [{}]}}"
                ),
                ls.rate,
                json_point(ls.baseline()),
                json_point(best),
                json_point(retuned),
                ls.retuned_gain(),
                ls.retuned_gain() > 0.0,
                ls.outcome
                    .points
                    .iter()
                    .map(json_point)
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "{{\"requests_per_point\": {}, \"seed\": {}, \"grid\": {}, ",
            "\"default_ttrt_ms\": {}, \"default_beta\": {}, \"loads\": [{}]}}"
        ),
        requests, seed, grid_json, DEFAULT_TTRT_MS, DEFAULT_BETA, loads,
    )
}

/// One capacity-planning question: the admission floor to clear, the
/// churn-rate interval to search, and the workload scale to measure
/// each probe at.
#[derive(Clone, Copy, Debug)]
pub struct CapacityQuery {
    /// Minimum admission probability that still counts as "sustained".
    pub floor: f64,
    /// Lower end of the churn-rate search interval (requests/s).
    pub lo: f64,
    /// Upper end of the churn-rate search interval (requests/s).
    pub hi: f64,
    /// Bisection iterations (interval halvings).
    pub iters: u32,
    /// Requests per probe run.
    pub requests: usize,
    /// Workload seed shared by every probe.
    pub seed: u64,
}

/// Capacity planning by bisection: the highest churn arrival rate (in
/// `[q.lo, q.hi]`, `q.iters` halvings) at which the topology retuned
/// to `(ttrt_ms, beta)` still clears `q.floor` admission probability
/// on the seeded workload. Admission probability decreases with
/// offered load, so the bisection's monotonicity premise holds.
#[must_use]
pub fn churn_capacity(ttrt_ms: f64, beta: f64, q: &CapacityQuery) -> f64 {
    bisect_capacity(q.lo, q.hi, q.iters, |rate| {
        let (admitted, offered) = retuned_admissions(rate, q.requests, q.seed, ttrt_ms, beta);
        admitted as f64 / offered.max(1) as f64 >= q.floor
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_sweeps_the_whole_grid_around_the_default() {
        let grid = SweepGrid {
            ttrts_ms: vec![DEFAULT_TTRT_MS, 12.0],
            betas: vec![DEFAULT_BETA, 0.75],
        };
        let loads = [0.1, 0.3];
        let sweeps = campaign(&loads, &grid, 20, 42);
        assert_eq!(sweeps.len(), loads.len(), "one sweep per load");
        for (ls, &rate) in sweeps.iter().zip(&loads) {
            assert_eq!(ls.rate.to_bits(), rate.to_bits());
            assert_eq!(
                ls.outcome.points.len(),
                grid.len(),
                "load {rate}: partial grid"
            );
            let base = ls.baseline();
            assert_eq!(
                (base.ttrt_ms.to_bits(), base.beta.to_bits()),
                (DEFAULT_TTRT_MS.to_bits(), DEFAULT_BETA.to_bits()),
                "load {rate}: baseline is not the default point"
            );
        }
        let json = campaign_json(&grid, &sweeps, 20, 42);
        assert!(
            json.contains(&format!("\"default_ttrt_ms\": {DEFAULT_TTRT_MS}")),
            "campaign JSON does not name the default TTRT: {json}"
        );
    }
}
