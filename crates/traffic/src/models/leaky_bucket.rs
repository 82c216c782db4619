//! Leaky-bucket (σ, ρ) traffic characterization.

use crate::envelope::Envelope;
use crate::error::TrafficError;
use crate::units::{Bits, BitsPerSec, Seconds};
use serde::{Deserialize, Serialize};

/// Cruz's `(σ, ρ)` envelope, optionally capped by a peak rate:
/// `A(I) = min(peak · I, σ + ρ · I)` (without a peak cap, the first term
/// is absent and `A(0) = σ`).
///
/// # Examples
///
/// ```
/// use hetnet_traffic::models::LeakyBucketEnvelope;
/// use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
/// use hetnet_traffic::Envelope;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lb = LeakyBucketEnvelope::new(Bits::new(1000.0), BitsPerSec::new(500.0))?;
/// assert_eq!(lb.arrivals(Seconds::new(2.0)).value(), 2000.0);
/// assert_eq!(lb.burst().value(), 1000.0);
///
/// let shaped = lb.with_peak(BitsPerSec::new(10_000.0))?;
/// // Before the bucket empties the peak rate limits arrivals.
/// assert_eq!(shaped.arrivals(Seconds::new(0.05)).value(), 500.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeakyBucketEnvelope {
    sigma: Bits,
    rho: BitsPerSec,
    peak: Option<BitsPerSec>,
}

impl LeakyBucketEnvelope {
    /// Creates an uncapped `(σ, ρ)` envelope.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidParameter`] if `sigma` or `rho` is
    /// negative.
    pub fn new(sigma: Bits, rho: BitsPerSec) -> Result<Self, TrafficError> {
        if sigma.is_negative() {
            return Err(TrafficError::invalid("sigma", "must be non-negative"));
        }
        if rho.is_negative() {
            return Err(TrafficError::invalid("rho", "must be non-negative"));
        }
        Ok(Self {
            sigma,
            rho,
            peak: None,
        })
    }

    /// Returns a copy of this envelope additionally capped by `peak`.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidParameter`] if `peak < ρ` (the cap
    /// would dominate the sustained rate and the burst could never drain).
    pub fn with_peak(self, peak: BitsPerSec) -> Result<Self, TrafficError> {
        if peak < self.rho {
            return Err(TrafficError::invalid(
                "peak",
                "peak rate must be at least the sustained rate rho",
            ));
        }
        Ok(Self {
            peak: Some(peak),
            ..self
        })
    }

    /// The burst parameter σ.
    #[must_use]
    pub fn sigma(&self) -> Bits {
        self.sigma
    }

    /// The sustained-rate parameter ρ.
    #[must_use]
    pub fn rho(&self) -> BitsPerSec {
        self.rho
    }

    /// The peak-rate cap, if any.
    #[must_use]
    pub fn peak(&self) -> Option<BitsPerSec> {
        self.peak
    }

    /// The interval length at which the peak-rate segment meets the
    /// `σ + ρI` segment (`None` when uncapped or when the cap never
    /// binds).
    #[must_use]
    pub fn knee(&self) -> Option<Seconds> {
        let peak = self.peak?;
        let slope_gap = peak.value() - self.rho.value();
        if slope_gap <= 0.0 || self.sigma.value() == 0.0 {
            return None;
        }
        Some(Seconds::new(self.sigma.value() / slope_gap))
    }
}

impl Envelope for LeakyBucketEnvelope {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero();
        let bucket = self.sigma + self.rho * i;
        match self.peak {
            Some(peak) => (peak * i).min(bucket),
            None => bucket,
        }
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.rho
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.peak.unwrap_or(BitsPerSec::new(f64::MAX))
    }

    /// Always `true`. `A(I) = min(peak·I, σ + ρ·I)` (or `σ + ρ·I`
    /// uncapped) is a minimum of affine functions, hence concave on
    /// `[0, ∞)`, with `A(0) ≥ 0`. For `x, y > 0` concavity gives
    /// `A(x) ≥ x/(x+y)·A(x + y) + y/(x+y)·A(0) ≥ x/(x+y)·A(x + y)`, and
    /// likewise for `y`; adding the two gives `A(x) + A(y) ≥ A(x + y)`.
    /// As computed, the argument is exact and two products, a sum and a
    /// minimum round the value by at most two ulps, well inside the
    /// tolerances [`Envelope::is_subadditive`] allows.
    fn is_subadditive(&self) -> bool {
        true
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        if let Some(knee) = self.knee() {
            if knee > Seconds::ZERO && knee <= horizon {
                out.push(knee);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_is_affine_with_burst() {
        let lb = LeakyBucketEnvelope::new(Bits::new(100.0), BitsPerSec::new(10.0)).unwrap();
        assert_eq!(lb.burst().value(), 100.0);
        assert_eq!(lb.arrivals(Seconds::new(5.0)).value(), 150.0);
        assert_eq!(lb.sustained_rate().value(), 10.0);
        assert_eq!(lb.peak_rate().value(), f64::MAX);
        assert_eq!(lb.sigma().value(), 100.0);
        assert_eq!(lb.rho().value(), 10.0);
        assert!(lb.peak().is_none());
        assert!(lb.knee().is_none());
    }

    #[test]
    fn peak_cap_limits_early_arrivals() {
        let lb = LeakyBucketEnvelope::new(Bits::new(100.0), BitsPerSec::new(10.0))
            .unwrap()
            .with_peak(BitsPerSec::new(110.0))
            .unwrap();
        // knee at sigma/(peak-rho) = 100/100 = 1 s
        assert_eq!(lb.knee().unwrap().value(), 1.0);
        assert_eq!(lb.arrivals(Seconds::new(0.5)).value(), 55.0); // peak segment
        assert_eq!(lb.arrivals(Seconds::new(2.0)).value(), 120.0); // bucket segment
        assert_eq!(lb.burst(), Bits::ZERO);
        assert_eq!(lb.peak_rate().value(), 110.0);
    }

    #[test]
    fn breakpoints_report_knee() {
        let lb = LeakyBucketEnvelope::new(Bits::new(100.0), BitsPerSec::new(10.0))
            .unwrap()
            .with_peak(BitsPerSec::new(110.0))
            .unwrap();
        let mut pts = Vec::new();
        lb.breakpoints(Seconds::new(10.0), &mut pts);
        assert_eq!(pts, vec![Seconds::new(1.0)]);
        pts.clear();
        lb.breakpoints(Seconds::new(0.5), &mut pts);
        assert!(pts.is_empty());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(LeakyBucketEnvelope::new(Bits::new(-1.0), BitsPerSec::new(1.0)).is_err());
        assert!(LeakyBucketEnvelope::new(Bits::new(1.0), BitsPerSec::new(-1.0)).is_err());
        let lb = LeakyBucketEnvelope::new(Bits::new(1.0), BitsPerSec::new(10.0)).unwrap();
        assert!(lb.with_peak(BitsPerSec::new(5.0)).is_err());
    }

    #[test]
    fn monotone_nondecreasing() {
        let lb = LeakyBucketEnvelope::new(Bits::new(100.0), BitsPerSec::new(10.0))
            .unwrap()
            .with_peak(BitsPerSec::new(200.0))
            .unwrap();
        let mut prev = Bits::ZERO;
        for k in 0..200 {
            let a = lb.arrivals(Seconds::new(k as f64 * 0.01));
            assert!(a >= prev);
            prev = a;
        }
    }
}
