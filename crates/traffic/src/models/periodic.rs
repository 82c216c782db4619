//! Single-period source model.

use crate::approx::floor_div;
use crate::envelope::Envelope;
use crate::error::TrafficError;
use crate::units::{Bits, BitsPerSec, Seconds};
use serde::{Deserialize, Serialize};

/// A periodic source: at most `C` bits in any interval of length `P`,
/// emitted at a finite peak rate `R`:
///
/// `A(I) = ⌊I/P⌋·C + min(C, R · (I mod P))`
///
/// This is the "one period model" the paper's dual-periodic source
/// generalizes.
///
/// # Examples
///
/// ```
/// use hetnet_traffic::models::PeriodicEnvelope;
/// use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
/// use hetnet_traffic::Envelope;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let voice = PeriodicEnvelope::new(
///     Bits::from_bytes(160.0),         // one 160-byte sample frame
///     Seconds::from_millis(20.0),      // every 20 ms
///     BitsPerSec::from_mbps(10.0),     // emitted at 10 Mb/s
/// )?;
/// assert_eq!(voice.sustained_rate().as_mbps(), 0.064);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PeriodicEnvelope {
    c: Bits,
    p: Seconds,
    peak: BitsPerSec,
}

impl PeriodicEnvelope {
    /// Creates a periodic envelope.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidParameter`] unless `C > 0`, `P > 0`
    /// and `C ≤ R·P` (the burst must be emittable within one period at the
    /// peak rate).
    pub fn new(c: Bits, p: Seconds, peak: BitsPerSec) -> Result<Self, TrafficError> {
        if c.value() <= 0.0 {
            return Err(TrafficError::invalid("c", "must be positive"));
        }
        if p.value() <= 0.0 {
            return Err(TrafficError::invalid("p", "must be positive"));
        }
        if peak.value() <= 0.0 {
            return Err(TrafficError::invalid("peak", "must be positive"));
        }
        if c > peak * p {
            return Err(TrafficError::invalid(
                "c",
                "burst C must fit within one period at the peak rate (C <= R*P)",
            ));
        }
        Ok(Self { c, p, peak })
    }

    /// Bits per period.
    #[must_use]
    pub fn bits_per_period(&self) -> Bits {
        self.c
    }

    /// The period.
    #[must_use]
    pub fn period(&self) -> Seconds {
        self.p
    }
}

impl Envelope for PeriodicEnvelope {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero().value();
        let n = floor_div(i, self.p.value());
        let residue = (i - n * self.p.value()).max(0.0);
        let within = (self.peak.value() * residue).min(self.c.value());
        Bits::new(n * self.c.value() + within)
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.c / self.p
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.peak
    }

    fn period_hint(&self) -> Option<Seconds> {
        Some(self.p)
    }

    /// Always `true`. Write `I = aP + r` with `r ∈ [0, P)`, so
    /// `A(I) = aC + g(r)` with `g(r) = min(C, R·r)`, concave on `[0, P]`
    /// with `g(0) = 0` and `g(P) = C` (as `C ≤ R·P`). Take
    /// `x = aP + r` and `y = bP + s`:
    ///
    /// * if `r + s < P`, `A(x + y) = (a + b)·C + g(r + s)`, and a concave
    ///   `g` with `g(0) ≥ 0` is subadditive;
    /// * otherwise `A(x + y) = (a + b + 1)·C + g(q)` with
    ///   `q = r + s − P ≤ min(r, s)`. Then `r = λq + (1 − λ)P` and
    ///   `s = (1 − λ)q + λP` for `λ = (P − r)/(P − q)`, so concavity
    ///   gives `g(r) + g(s) ≥ g(q) + g(P) = g(q) + C`.
    ///
    /// [`PeriodicEnvelope::new`] checks `C ≤ R·P` against the rounded
    /// product, so `C` may exceed the real `R·P` by half an ulp; the model
    /// with `C` clipped to `R·P` is subadditive by the above and within an
    /// ulp of this one.
    ///
    /// As computed, `floor_div`'s `10⁻⁹` nudge may round `I` up to the
    /// next multiple of `P`, at most `10⁻⁹·max(I, P)` away, and the
    /// residue's roundings move it by a few ulps of `I`; the product and
    /// the sum round the value by a few ulps. Both stay inside the
    /// tolerances [`Envelope::is_subadditive`] allows.
    fn is_subadditive(&self) -> bool {
        true
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        let h = horizon.value();
        let p = self.p.value();
        let ramp = self.c.value() / self.peak.value();
        let mut base = 0.0;
        while base <= h {
            if base > 0.0 {
                out.push(Seconds::new(base));
            }
            let corner = base + ramp;
            if corner > 0.0 && corner <= h {
                out.push(Seconds::new(corner));
            }
            base += p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> PeriodicEnvelope {
        // 100 bits every 1 s, peak 1000 b/s (ramp takes 0.1 s).
        PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0)).unwrap()
    }

    #[test]
    fn arrivals_shape() {
        let e = env();
        let close = |i: f64, expect: f64| {
            let got = e.arrivals(Seconds::new(i)).value();
            assert!((got - expect).abs() < 1e-6, "A({i}) = {got}, want {expect}");
        };
        close(0.0, 0.0);
        close(0.05, 50.0); // mid-ramp
        close(0.1, 100.0); // ramp done
        close(0.9, 100.0); // flat
        close(1.0, 100.0); // period boundary
        close(1.05, 150.0); // next ramp
        close(2.35, 300.0); // saturated
    }

    #[test]
    fn continuity_at_period_boundary() {
        let e = env();
        let before = e.arrivals(Seconds::new(1.0 - 1e-9)).value();
        let after = e.arrivals(Seconds::new(1.0 + 1e-9)).value();
        assert!((after - before).abs() < 1.0e-3);
    }

    #[test]
    fn rates() {
        let e = env();
        assert_eq!(e.sustained_rate().value(), 100.0);
        assert_eq!(e.peak_rate().value(), 1000.0);
        assert_eq!(e.burst(), Bits::ZERO);
        assert_eq!(e.bits_per_period().value(), 100.0);
        assert_eq!(e.period().value(), 1.0);
    }

    #[test]
    fn breakpoints_are_period_grid_and_ramp_corners() {
        let e = env();
        let mut pts = Vec::new();
        e.breakpoints(Seconds::new(2.5), &mut pts);
        let vals: Vec<f64> = pts.iter().map(|s| s.value()).collect();
        for expect in [0.1, 1.0, 1.1, 2.0, 2.1] {
            assert!(
                vals.iter().any(|v| (v - expect).abs() < 1e-12),
                "missing breakpoint {expect}, got {vals:?}"
            );
        }
    }

    #[test]
    fn validation() {
        assert!(
            PeriodicEnvelope::new(Bits::new(0.0), Seconds::new(1.0), BitsPerSec::new(1.0)).is_err()
        );
        assert!(
            PeriodicEnvelope::new(Bits::new(1.0), Seconds::new(0.0), BitsPerSec::new(1.0)).is_err()
        );
        assert!(
            PeriodicEnvelope::new(Bits::new(1.0), Seconds::new(1.0), BitsPerSec::new(0.0)).is_err()
        );
        // C > R*P: burst cannot be emitted within one period.
        assert!(
            PeriodicEnvelope::new(Bits::new(10.0), Seconds::new(1.0), BitsPerSec::new(5.0))
                .is_err()
        );
    }

    #[test]
    fn monotone() {
        let e = env();
        let mut prev = Bits::ZERO;
        for k in 0..500 {
            let a = e.arrivals(Seconds::new(k as f64 * 0.011));
            assert!(a >= prev, "not monotone at k={k}");
            prev = a;
        }
    }
}
