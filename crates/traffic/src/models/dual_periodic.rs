//! Dual-periodic source model (paper eq. 37).

use crate::approx::floor_div;
use crate::envelope::Envelope;
use crate::error::TrafficError;
use crate::units::{Bits, BitsPerSec, Seconds};
use serde::{Deserialize, Serialize};

/// The dual-periodic source model used by the paper's performance
/// evaluation: the source never emits more than `C1` bits in any interval
/// of length `P1`, never more than `C2` bits in any interval of length
/// `P2 ≤ P1`, and never faster than a peak rate `R`. Equation 37 of the
/// paper gives its maximum-rate function; in arrival-envelope form,
///
/// ```text
/// A(I) = ⌊I/P1⌋·C1 + min(C1, ⌊r1/P2⌋·C2 + min(C2, R·r2))
///   r1 = I − ⌊I/P1⌋·P1,   r2 = r1 − ⌊r1/P2⌋·P2
/// ```
///
/// (the paper normalizes `R` to the link rate; we keep it explicit).
/// The long-term rate is `ρ = C1/P1` (eq. 38).
///
/// # Examples
///
/// ```
/// use hetnet_traffic::models::DualPeriodicEnvelope;
/// use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
/// use hetnet_traffic::Envelope;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = DualPeriodicEnvelope::new(
///     Bits::from_mbits(2.0), Seconds::from_millis(100.0),
///     Bits::from_mbits(0.25), Seconds::from_millis(10.0),
///     BitsPerSec::from_mbps(100.0),
/// )?;
/// assert_eq!(src.sustained_rate().as_mbps(), 20.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DualPeriodicEnvelope {
    c1: Bits,
    p1: Seconds,
    c2: Bits,
    p2: Seconds,
    peak: BitsPerSec,
}

impl DualPeriodicEnvelope {
    /// Creates a dual-periodic envelope.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidParameter`] unless all of the
    /// following hold:
    ///
    /// * `P1, P2 > 0` and `P2 ≤ P1`;
    /// * `0 < C2 ≤ C1`;
    /// * `C2 ≤ R·P2` (a `P2`-burst must be emittable at the peak rate);
    /// * `C1` is reachable within one `P1` period, i.e.
    ///   `C1 ≤ ⌊P1/P2⌋·C2 + min(C2, R·(P1 mod P2))` — this keeps the
    ///   envelope continuous and the model physically meaningful.
    pub fn new(
        c1: Bits,
        p1: Seconds,
        c2: Bits,
        p2: Seconds,
        peak: BitsPerSec,
    ) -> Result<Self, TrafficError> {
        if p1.value() <= 0.0 {
            return Err(TrafficError::invalid("p1", "must be positive"));
        }
        if p2.value() <= 0.0 {
            return Err(TrafficError::invalid("p2", "must be positive"));
        }
        if p2 > p1 {
            return Err(TrafficError::invalid("p2", "must satisfy P2 <= P1"));
        }
        if c2.value() <= 0.0 {
            return Err(TrafficError::invalid("c2", "must be positive"));
        }
        if c2 > c1 {
            return Err(TrafficError::invalid("c2", "must satisfy C2 <= C1"));
        }
        if peak.value() <= 0.0 {
            return Err(TrafficError::invalid("peak", "must be positive"));
        }
        if c2 > peak * p2 {
            return Err(TrafficError::invalid(
                "c2",
                "burst C2 must be emittable within P2 at the peak rate (C2 <= R*P2)",
            ));
        }
        let n_bursts = floor_div(p1.value(), p2.value());
        let tail = p1.value() - n_bursts * p2.value();
        let reachable = n_bursts * c2.value() + (peak.value() * tail).min(c2.value());
        if c1.value() > reachable * (1.0 + 1.0e-9) {
            return Err(TrafficError::invalid(
                "c1",
                format!(
                    "C1 = {} bits is not reachable within P1 (max {reachable} bits \
                     given C2, P2 and the peak rate)",
                    c1.value()
                ),
            ));
        }
        Ok(Self {
            c1,
            p1,
            c2,
            p2,
            peak,
        })
    }

    /// Bits per long period (`C1`).
    #[must_use]
    pub fn c1(&self) -> Bits {
        self.c1
    }

    /// The long period (`P1`).
    #[must_use]
    pub fn p1(&self) -> Seconds {
        self.p1
    }

    /// Bits per short period (`C2`).
    #[must_use]
    pub fn c2(&self) -> Bits {
        self.c2
    }

    /// The short period (`P2`).
    #[must_use]
    pub fn p2(&self) -> Seconds {
        self.p2
    }

    /// The peak emission rate (`R`).
    #[must_use]
    pub fn peak(&self) -> BitsPerSec {
        self.peak
    }

    /// Arrivals within a single long period, for `0 ≤ r1 ≤ P1`.
    fn within_period(&self, r1: f64) -> f64 {
        let n2 = floor_div(r1, self.p2.value());
        let r2 = (r1 - n2 * self.p2.value()).max(0.0);
        let inner = (self.peak.value() * r2).min(self.c2.value());
        (n2 * self.c2.value() + inner).min(self.c1.value())
    }
}

impl Envelope for DualPeriodicEnvelope {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero().value();
        let n1 = floor_div(i, self.p1.value());
        let r1 = (i - n1 * self.p1.value()).max(0.0);
        Bits::new(n1 * self.c1.value() + self.within_period(r1))
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.c1 / self.p1
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.peak
    }

    fn period_hint(&self) -> Option<Seconds> {
        Some(self.p1)
    }

    /// `true` when `C1 ≤ k·C2` with `k = ⌊P1/P2⌋`, checked exactly.
    ///
    /// Write `h` for the periodic model `(C2, P2, R)`, which is
    /// subadditive (see [`PeriodicEnvelope`](super::PeriodicEnvelope)),
    /// and `w = min(C1, h)`, so `A(aP1 + r) = aC1 + w(r)` for
    /// `r ∈ [0, P1)`. `w` is subadditive too: if `h(r)` or `h(s)` reaches
    /// `C1`, `w(r) + w(s) ≥ C1 ≥ w(r + s)`; otherwise
    /// `w(r) + w(s) = h(r) + h(s) ≥ h(r + s) ≥ w(r + s)`. Take `x = aP1 + r` and
    /// `y = bP1 + s`. If `r + s < P1`, subadditivity of `w` is all that
    /// is needed. Otherwise `A(x + y) = (a + b + 1)·C1 + w(q)` with
    /// `q = r + s − P1 ≤ min(r, s)`, and `C1 + w(q) ≤ w(r) + w(s)`
    /// holds in both cases:
    ///
    /// * if `w(r) = C1` (or `w(s) = C1`): `w(q) ≤ w(s)`, as `w` is
    ///   nondecreasing;
    /// * else `w(r) + w(s) = h(r) + h(s) ≥ h(q + P1) ≥ h(q + kP2)
    ///   = h(q) + kC2 ≥ w(q) + C1`, as `P1 ≥ kP2`.
    ///
    /// Without the condition the model is not subadditive: with
    /// `P2 = 1`, `C2 = 1`, `R = 10`, `P1 = 1.15` and `C1 = 2` (reachable
    /// through the `0.15` tail), `A(0.6) = 1` but `A(1.2) = 2.5`.
    ///
    /// [`DualPeriodicEnvelope::new`] checks `C2 ≤ R·P2` against the
    /// rounded product, so `C2` may exceed the real `R·P2` by half an ulp;
    /// the model with `C2` clipped to `R·P2` (and `C1` to `k` times that)
    /// is subadditive by the above and within a few ulps of this one.
    ///
    /// As computed, each of the two `floor_div`s may round its argument
    /// up to the next period boundary, `10⁻⁹·max(I, P1)` and
    /// `10⁻⁹·max(r, P2)` away, and the residues' roundings move it by a
    /// few ulps of `I`; three products and two sums round the value by a
    /// few ulps. Both stay inside the tolerances
    /// [`Envelope::is_subadditive`] allows.
    fn is_subadditive(&self) -> bool {
        let (p1, p2) = (self.p1.value(), self.p2.value());
        let mut k = (p1 / p2).floor();
        // A quotient rounded up onto an integer: `k·P2 − P1` has its
        // exact sign under a fused multiply-add.
        if k.mul_add(p2, -p1) > 0.0 {
            k -= 1.0;
        }
        k.mul_add(self.c2.value(), -self.c1.value()) >= 0.0
    }

    fn describe(&self) -> crate::envelope::EnvelopeDescriptor {
        crate::envelope::EnvelopeDescriptor::DualPeriodic {
            c1: self.c1,
            p1: self.p1,
            c2: self.c2,
            p2: self.p2,
            peak: self.peak,
        }
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        let h = horizon.value();
        let (p1, p2) = (self.p1.value(), self.p2.value());
        let ramp = self.c2.value() / self.peak.value();
        // Corner where the C1 cap binds within a period.
        let k_cap = floor_div(self.c1.value(), self.c2.value());
        let rem = self.c1.value() - k_cap * self.c2.value();
        let cap_corner = if rem > 0.0 {
            Some(k_cap * p2 + rem / self.peak.value())
        } else {
            None
        };

        let mut push = |t: f64| {
            if t > 0.0 && t <= h {
                out.push(Seconds::new(t));
            }
        };

        let n_periods = (h / p1).floor() as usize + 1;
        let bursts_per_period = (p1 / p2).floor() as usize + 1;
        for n1 in 0..=n_periods {
            let base = n1 as f64 * p1;
            if base > h {
                break;
            }
            push(base);
            for n2 in 0..=bursts_per_period {
                let t0 = base + n2 as f64 * p2;
                if t0 - base > p1 || t0 > h {
                    break;
                }
                push(t0);
                push(t0 + ramp);
            }
            if let Some(cc) = cap_corner {
                push(base + cc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// C1 = 300 bits / P1 = 1 s; C2 = 100 bits / P2 = 0.25 s; peak 1000 b/s.
    /// Ramp time per burst: 0.1 s. Cap: after 3 bursts (3*100 = C1).
    fn env() -> DualPeriodicEnvelope {
        DualPeriodicEnvelope::new(
            Bits::new(300.0),
            Seconds::new(1.0),
            Bits::new(100.0),
            Seconds::new(0.25),
            BitsPerSec::new(1000.0),
        )
        .unwrap()
    }

    #[test]
    fn hand_computed_values() {
        let e = env();
        let close = |i: f64, expect: f64| {
            let got = e.arrivals(Seconds::new(i)).value();
            assert!((got - expect).abs() < 1e-6, "A({i}) = {got}, want {expect}");
        };
        close(0.0, 0.0);
        close(0.05, 50.0); // first ramp
        close(0.1, 100.0); // ramp done
        close(0.2, 100.0); // flat
        close(0.3, 150.0); // second burst ramp
        close(0.5, 200.0);
        close(0.6, 300.0); // third burst done => C1 cap
        close(0.8, 300.0); // capped: 4th burst suppressed
        close(0.99, 300.0);
        close(1.05, 350.0); // next period ramp
        close(2.1, 700.0);
    }

    #[test]
    fn cap_suppresses_fourth_burst() {
        // Within one period only 3 of the 4 P2-bursts carry data (C1 = 3*C2).
        let e = env();
        let just_before_4th = e.arrivals(Seconds::new(0.75 - 1e-9)).value();
        let after_4th_ramp = e.arrivals(Seconds::new(0.85)).value();
        assert_eq!(just_before_4th, 300.0);
        assert_eq!(after_4th_ramp, 300.0);
    }

    #[test]
    fn long_term_rate_is_c1_over_p1() {
        let e = env();
        assert_eq!(e.sustained_rate().value(), 300.0);
        // Empirically: A(I)/I approaches rho for large I.
        let i = Seconds::new(1000.0);
        let gamma = e.arrivals(i).value() / i.value();
        assert!((gamma - 300.0).abs() / 300.0 < 1e-2);
    }

    #[test]
    fn continuity_everywhere() {
        let e = env();
        for k in 1..4000 {
            let t = k as f64 * 0.00061;
            let lo = e.arrivals(Seconds::new(t - 1e-9)).value();
            let hi = e.arrivals(Seconds::new(t + 1e-9)).value();
            assert!((hi - lo) < 1.0e-3, "discontinuity at t={t}: {lo} -> {hi}");
        }
    }

    #[test]
    fn monotone_nondecreasing() {
        let e = env();
        let mut prev = Bits::ZERO;
        for k in 0..3000 {
            let a = e.arrivals(Seconds::new(k as f64 * 0.00097));
            assert!(a >= prev, "not monotone at k={k}");
            prev = a;
        }
    }

    #[test]
    fn breakpoints_bracket_all_corners() {
        let e = env();
        let mut pts = Vec::new();
        e.breakpoints(Seconds::new(1.2), &mut pts);
        let vals: Vec<f64> = pts.iter().map(|s| s.value()).collect();
        for expect in [0.1, 0.25, 0.35, 0.5, 0.6, 0.75, 1.0, 1.1] {
            assert!(
                vals.iter().any(|v| (v - expect).abs() < 1e-9),
                "missing breakpoint {expect}"
            );
        }
        assert!(vals.iter().all(|&v| v > 0.0 && v <= 1.2));
    }

    #[test]
    fn accessors() {
        let e = env();
        assert_eq!(e.c1().value(), 300.0);
        assert_eq!(e.p1().value(), 1.0);
        assert_eq!(e.c2().value(), 100.0);
        assert_eq!(e.p2().value(), 0.25);
        assert_eq!(e.peak_rate().value(), 1000.0);
        assert_eq!(e.burst(), Bits::ZERO);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let ok = |c1: f64, p1: f64, c2: f64, p2: f64, r: f64| {
            DualPeriodicEnvelope::new(
                Bits::new(c1),
                Seconds::new(p1),
                Bits::new(c2),
                Seconds::new(p2),
                BitsPerSec::new(r),
            )
        };
        assert!(ok(300.0, 0.0, 100.0, 0.25, 1000.0).is_err()); // p1 = 0
        assert!(ok(300.0, 1.0, 100.0, 0.0, 1000.0).is_err()); // p2 = 0
        assert!(ok(300.0, 1.0, 100.0, 2.0, 1000.0).is_err()); // p2 > p1
        assert!(ok(300.0, 1.0, 0.0, 0.25, 1000.0).is_err()); // c2 = 0
        assert!(ok(100.0, 1.0, 300.0, 0.25, 1000.0).is_err()); // c2 > c1
        assert!(ok(300.0, 1.0, 100.0, 0.25, 10.0).is_err()); // c2 > R*p2
        assert!(ok(500.0, 1.0, 100.0, 0.25, 1000.0).is_err()); // c1 unreachable
        assert!(ok(300.0, 1.0, 100.0, 0.25, 1000.0).is_ok());
    }

    #[test]
    fn degenerates_to_periodic_when_p2_equals_p1() {
        let dual = DualPeriodicEnvelope::new(
            Bits::new(100.0),
            Seconds::new(1.0),
            Bits::new(100.0),
            Seconds::new(1.0),
            BitsPerSec::new(1000.0),
        )
        .unwrap();
        let single = crate::models::PeriodicEnvelope::new(
            Bits::new(100.0),
            Seconds::new(1.0),
            BitsPerSec::new(1000.0),
        )
        .unwrap();
        for k in 0..100 {
            let t = Seconds::new(k as f64 * 0.037);
            assert!(
                (dual.arrivals(t).value() - single.arrivals(t).value()).abs() < 1e-9,
                "mismatch at {t}"
            );
        }
    }
}
