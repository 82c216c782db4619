//! Affine `(σ, ρ)` envelope arithmetic for the fast admission path.
//!
//! The per-flow bounds at an aggregate FIFO server under piecewise-linear
//! arrival curves (Wildberger-Hamscher-Schmitt) reduce, in the
//! single-segment token-bucket case `A(t) ≤ σ + ρ·t`, to closed forms
//! with no busy-period search at all:
//!
//! * queueing delay `d ≤ Σσ / C`,
//! * busy period  `B ≤ Σσ / (C − Σρ)`,
//! * backlog      `q ≤ Σσ`,
//!
//! and the FIFO output of one flow is again affine: shifting by the delay
//! bound turns `(σ, ρ)` into `(σ + ρ·d, ρ)` (the link-rate cap is simply
//! dropped — sound, since dropping a `min` only raises the bound).
//!
//! The fast path in `hetnet-cac` derives an affine bound for each flow
//! from the dense evaluator's own flattened sample tables, pushes it
//! through these transforms instead of re-running the dense busy-period
//! analysis, and falls back to the dense path whenever the resulting
//! bound is not decisive. Everything here is therefore an
//! *over*-approximation: each helper documents the domination argument
//! its callers rely on.

use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};

/// A token-bucket upper bound `A(t) ≤ σ + ρ·t` (for `t ≥ 0`) on an
/// arrival envelope.
///
/// Validity is contextual: bounds derived from a flattened sample table
/// dominate the dense envelope only on the table's horizon, so callers
/// track the window on which the inequality holds and guard against
/// queries beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AffineBound {
    /// Burst term `σ` in bits (non-negative).
    pub sigma: f64,
    /// Sustained-rate term `ρ` in bits per second (non-negative).
    pub rho: f64,
}

impl AffineBound {
    /// A zero-traffic bound.
    pub const ZERO: Self = Self {
        sigma: 0.0,
        rho: 0.0,
    };

    /// The tightest affine bound of slope `rho` that dominates a sample
    /// table `(ts, vals)`: `σ = max_i (vals[i] − ρ·ts[i])`, clamped to
    /// be non-negative.
    ///
    /// Domination argument: `v − ρ·t` is affine in `t`, so its maximum
    /// over any segment between consecutive samples is attained at an
    /// endpoint; the returned bound therefore dominates the *linear
    /// interpolation* of the table everywhere on `[ts[0], ts[last]]`,
    /// and (because `σ ≥ vals[last] − ρ·ts[last]` and `ρ ≥ 0`) also any
    /// constant continuation of the last sample.
    #[must_use]
    pub fn from_samples(ts: &[f64], vals: &[f64], rho: BitsPerSec) -> Self {
        let r = rho.value();
        let mut sigma = 0.0_f64;
        for (t, v) in ts.iter().zip(vals.iter()) {
            sigma = sigma.max(v - r * t);
        }
        Self { sigma, rho: r }
    }

    /// Evaluates the bound at interval `t` (seconds).
    #[must_use]
    pub fn at(&self, t: f64) -> f64 {
        self.sigma + self.rho * t
    }

    /// The FIFO output transform: a flow bounded by `self` entering a
    /// server that delays it by at most `d` exits bounded by
    /// `(σ + ρ·d, ρ)`.
    ///
    /// Domination argument: the dense output is
    /// `min(C·I, A(I + d_dense))` with `d_dense ≤ d`; dropping the cap
    /// and using `A(I + d_dense) ≤ σ + ρ·(I + d)` keeps it an upper
    /// bound.
    #[must_use]
    pub fn delayed(&self, d: Seconds) -> Self {
        Self {
            sigma: self.sigma + self.rho * d.value(),
            rho: self.rho,
        }
    }

    /// The reassembly/packetization transform `(σ, ρ) ↦
    /// (scale·σ + pad, scale·ρ)`, matching `Padded(Scaled(·, scale),
    /// pad)` exactly on affine inputs.
    #[must_use]
    pub fn scaled_padded(&self, scale: f64, pad: Bits) -> Self {
        Self {
            sigma: scale * self.sigma + pad.value(),
            rho: scale * self.rho,
        }
    }

    /// Sums two bounds (aggregation of independent flows).
    #[must_use]
    pub fn plus(&self, other: &Self) -> Self {
        Self {
            sigma: self.sigma + other.sigma,
            rho: self.rho + other.rho,
        }
    }
}

/// Closed-form FIFO constant-rate server bounds for an affine aggregate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FifoBounds {
    /// Queueing delay upper bound `Σσ / C` (seconds).
    pub delay: f64,
    /// Busy-period upper bound `Σσ / (C − Σρ)` (seconds).
    pub busy: f64,
    /// Backlog upper bound `Σσ` (bits).
    pub backlog: f64,
}

/// Evaluates the closed-form FIFO bounds of an affine `aggregate` served
/// at `rate`, or `None` if the aggregate rate reaches the link rate
/// (no finite busy period — callers must fall back to the dense path,
/// which will also reject or exhaust its horizon).
///
/// Domination argument: for any arrival `A(t) ≤ σ + ρ·t` on `[0, B]`
/// with `B ≥ Σσ/(C−Σρ)`, the dense `max_t (A(t)/C − t)` over its busy
/// interval is at most `σ/C` (the affine gap `A(t) − C·t ≤ σ − (C−ρ)·t`
/// is largest at `t → 0⁺`), the last violation of `A(t) > C·t` is at
/// most `B`, and the backlog `A(t) − C·t ≤ σ`.
#[must_use]
pub fn fifo_bounds(aggregate: &AffineBound, rate: BitsPerSec) -> Option<FifoBounds> {
    let c = rate.value();
    // NaN-safe `!(rho < c)`: any incomparable pair must fall back too.
    let rho_below = matches!(
        aggregate.rho.partial_cmp(&c),
        Some(std::cmp::Ordering::Less)
    );
    if !rho_below || c <= 0.0 {
        return None;
    }
    Some(FifoBounds {
        delay: aggregate.sigma / c,
        busy: aggregate.sigma / (c - aggregate.rho),
        backlog: aggregate.sigma,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sched::{ClassedFlow, SchedReport, Scheduler, SchedulerAnalysis};
    use hetnet_traffic::analysis::AnalysisConfig;
    use hetnet_traffic::combinators::Sampled;
    use hetnet_traffic::envelope::{Envelope, SharedEnvelope};
    use hetnet_traffic::models::{LeakyBucketEnvelope, PeriodicEnvelope};
    use std::sync::Arc;

    /// The dense FIFO multiplexer analysis of one flow on `link`.
    fn dense_fifo(flow: SharedEnvelope, link: &LinkConfig) -> SchedReport {
        Scheduler::Fifo
            .analyze(
                &[ClassedFlow::new(flow, 0)],
                link,
                &AnalysisConfig::default(),
            )
            .unwrap()
    }

    fn periodic() -> SharedEnvelope {
        Arc::new(
            PeriodicEnvelope::new(
                Bits::from_mbits(1.0),
                Seconds::from_millis(100.0),
                BitsPerSec::from_mbps(100.0),
            )
            .unwrap(),
        )
    }

    #[test]
    fn from_samples_dominates_the_flattened_envelope() {
        let env = periodic();
        let flat = Sampled::flatten(Arc::clone(&env), Seconds::new(1.0), 2);
        let (ts, vals) = flat.samples();
        let aff = AffineBound::from_samples(ts, vals, env.sustained_rate());
        for k in 0..2000 {
            let t = 1.0 * k as f64 / 2000.0;
            let dense = flat.arrivals(Seconds::new(t)).value();
            assert!(
                aff.at(t) >= dense - 1e-9,
                "t={t}: affine {} < dense {dense}",
                aff.at(t)
            );
        }
    }

    #[test]
    fn fifo_bounds_match_leaky_bucket_closed_form() {
        // For a pure token bucket the affine forms are exact, so they
        // must agree with the dense mux analysis (within search slack).
        let sigma = 424_000.0;
        let flow: SharedEnvelope = Arc::new(
            LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::from_mbps(55.0)).unwrap(),
        );
        let link = LinkConfig::oc3(Seconds::ZERO);
        let dense = dense_fifo(Arc::clone(&flow), &link);
        let aff = AffineBound { sigma, rho: 55.0e6 };
        let fb = fifo_bounds(&aff, link.rate).unwrap();
        assert!(fb.delay >= dense.delay_bound.value() - 1e-12);
        assert!((fb.delay - dense.delay_bound.value()).abs() < 1e-9);
        assert!(fb.busy >= dense.busy_period.value() - 1e-9);
        assert!(fb.backlog >= dense.backlog_bound.value() - 1e-6);
    }

    #[test]
    fn fifo_bounds_dominate_dense_mux_for_shaped_traffic() {
        let env = periodic();
        let flat: SharedEnvelope =
            Arc::new(Sampled::flatten(Arc::clone(&env), Seconds::new(1.0), 2));
        let (ts, vals) = {
            let s = Sampled::flatten(Arc::clone(&env), Seconds::new(1.0), 2);
            (s.samples().0.to_vec(), s.samples().1.to_vec())
        };
        let aff = AffineBound::from_samples(&ts, &vals, env.sustained_rate());
        let link = LinkConfig::oc3(Seconds::ZERO);
        let dense = dense_fifo(flat, &link);
        let fb = fifo_bounds(&aff, link.rate).unwrap();
        assert!(fb.delay >= dense.delay_bound.value());
        assert!(fb.busy >= dense.busy_period.value());
        assert!(fb.backlog >= dense.backlog_bound.value());
    }

    #[test]
    fn delayed_transform_dominates_the_fifo_flow_output() {
        let env = periodic();
        let link = LinkConfig::oc3(Seconds::ZERO);
        let dense = dense_fifo(Arc::clone(&env), &link);
        let flat = Sampled::flatten(Arc::clone(&env), Seconds::new(1.0), 2);
        let (ts, vals) = flat.samples();
        let aff = AffineBound::from_samples(ts, vals, env.sustained_rate());
        let shifted = aff.delayed(dense.delay_bound);
        let out = Scheduler::Fifo.flow_output(Arc::clone(&env), dense.delay_bound, &link);
        for k in 0..500 {
            let t = 0.5 * k as f64 / 500.0;
            assert!(shifted.at(t) >= out.arrivals(Seconds::new(t)).value() - 1e-6);
        }
    }

    #[test]
    fn unstable_aggregate_has_no_finite_bounds() {
        let aff = AffineBound {
            sigma: 1000.0,
            rho: 160.0e6,
        };
        assert!(fifo_bounds(&aff, BitsPerSec::from_mbps(155.52)).is_none());
    }

    #[test]
    fn scaled_padded_matches_reassembly_shape() {
        let aff = AffineBound {
            sigma: 1.0e6,
            rho: 20.0e6,
        };
        let out = aff.scaled_padded(0.9, Bits::new(4096.0));
        assert!((out.sigma - (0.9e6 + 4096.0)).abs() < 1e-6);
        assert!((out.rho - 18.0e6).abs() < 1e-6);
    }
}
