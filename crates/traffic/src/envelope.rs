//! The traffic-envelope abstraction: the maximum rate function Γ(I) and
//! its integral form, the arrival envelope A(I).
//!
//! The paper describes a connection's traffic at any point in the network
//! by its *maximum rate function* `Γ(I)` — the maximum arrival rate over
//! any interval of length `I`. Every formula in the delay analysis
//! actually consumes the product `I·Γ(I)`, the maximum number of bits that
//! can arrive in any window of length `I`, so that is the primitive this
//! trait exposes ([`Envelope::arrivals`]); `Γ` itself is recovered by
//! [`Envelope::max_rate`].

use crate::approx;
use crate::units::{Bits, BitsPerSec, Seconds};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// A shared, immutable traffic envelope.
pub type SharedEnvelope = Arc<dyn Envelope>;

/// A model-level description of an envelope's parameters — the
/// serializable face of the `Arc<dyn Envelope>` trait object.
///
/// Snapshot and audit tooling cannot serialize a trait object, so every
/// envelope can instead *describe* itself ([`Envelope::describe`]) as
/// one of the known parametric models, which
/// [`EnvelopeDescriptor::reify`](crate::models) turns back into a live
/// envelope. Models without a parametric form fall back to
/// [`EnvelopeDescriptor::Opaque`], which round-trips as documentation
/// only.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum EnvelopeDescriptor {
    /// A fluid constant-bit-rate source.
    ConstantRate {
        /// The constant rate.
        rate: BitsPerSec,
    },
    /// The paper's eq.-37 dual-periodic model.
    DualPeriodic {
        /// Bits per long period.
        c1: Bits,
        /// The long period.
        p1: Seconds,
        /// Bits per short period.
        c2: Bits,
        /// The short period.
        p2: Seconds,
        /// Peak emission rate.
        peak: BitsPerSec,
    },
    /// An envelope with no known parametric form; `detail` is its
    /// `Debug` rendering, kept for humans, not for reconstruction.
    Opaque {
        /// Debug rendering of the underlying model.
        detail: String,
    },
}

impl EnvelopeDescriptor {
    /// Stable machine-readable tag of the descriptor kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::ConstantRate { .. } => "constant_rate",
            Self::DualPeriodic { .. } => "dual_periodic",
            Self::Opaque { .. } => "opaque",
        }
    }

    /// Renders the descriptor as one JSON object. Numeric fields use
    /// Rust's shortest-roundtrip `f64` formatting, so two descriptors
    /// render identically iff their parameters are bit-identical.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            Self::ConstantRate { rate } => {
                format!(
                    "{{\"model\":\"constant_rate\",\"rate_bps\":{}}}",
                    rate.value()
                )
            }
            Self::DualPeriodic {
                c1,
                p1,
                c2,
                p2,
                peak,
            } => format!(
                "{{\"model\":\"dual_periodic\",\"c1_bits\":{},\"p1_s\":{},\
                 \"c2_bits\":{},\"p2_s\":{},\"peak_bps\":{}}}",
                c1.value(),
                p1.value(),
                c2.value(),
                p2.value(),
                peak.value()
            ),
            Self::Opaque { detail } => {
                let escaped = detail.replace('\\', "\\\\").replace('"', "\\\"");
                format!("{{\"model\":\"opaque\",\"detail\":\"{escaped}\"}}")
            }
        }
    }
}

/// An upper bound on the traffic of a connection observed at some point in
/// the network.
///
/// # Contract
///
/// Implementations must guarantee, for all `0 ≤ i ≤ j`:
///
/// * `arrivals(i) ≥ 0` and `arrivals(i) ≤ arrivals(j)` (nondecreasing);
/// * `arrivals(0)` is the instantaneous burst the traffic may deliver
///   (zero for sources with a finite peak rate);
/// * `sustained_rate()` is an upper bound on `lim arrivals(I)/I`;
/// * `breakpoints` reports every interval length in `(0, horizon]` at
///   which the envelope's slope changes or jumps, so that optimizations
///   that scan candidate points see every extremum.
pub trait Envelope: fmt::Debug + Send + Sync {
    /// `A(I)`: the maximum number of bits arriving in any interval of
    /// length `interval`.
    fn arrivals(&self, interval: Seconds) -> Bits;

    /// Appends to `out` the value of `A` at each interval length of `ts`
    /// (in seconds), in order: exactly the floats [`Envelope::arrivals`]
    /// returns for them one at a time, bit for bit.
    ///
    /// `ts` must be nondecreasing (`ts[k] <= ts[k + 1]`). That lets a
    /// chain serve the whole batch with one sweep per layer: a table
    /// walks a cursor instead of searching per point, and each layer
    /// makes one call to its inner envelope instead of one per point. The
    /// default is the per-point loop. Every combinator overrides it, and
    /// a wrapper must forward it, or the chain below it falls back to
    /// that loop.
    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        out.extend(ts.iter().map(|&t| self.arrivals(Seconds::new(t)).value()));
    }

    /// The long-term average rate `ρ = lim_{I→∞} Γ(I)` (paper eq. 38).
    fn sustained_rate(&self) -> BitsPerSec;

    /// The peak instantaneous rate (an upper bound on the slope of `A`).
    fn peak_rate(&self) -> BitsPerSec;

    /// Appends to `out` the interval lengths in `(0, horizon]` at which
    /// `A` changes slope or jumps. Points may be unsorted and duplicated;
    /// callers normalize.
    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>);

    /// The smallest interval `I` with `A(I) ≥ bits`, or `None` if the
    /// envelope never delivers that much within `max_horizon`.
    ///
    /// The default is the generic bisection [`min_interval_for`].
    /// Envelopes with a cheaper way to evaluate the same midpoints may
    /// override it, but must return bit-identical results.
    fn min_interval(&self, bits: Bits, max_horizon: Seconds) -> Option<Seconds> {
        min_interval_for(self, bits, max_horizon)
    }

    /// The recurrence scale of the envelope, if any: the longest period
    /// after which the arrival pattern repeats (`P1` for the periodic
    /// models). Optimizers use it to size search horizons so that
    /// violations recurring in later periods are not missed. Affine
    /// envelopes return `None`.
    fn period_hint(&self) -> Option<Seconds> {
        None
    }

    /// The maximum rate function `Γ(I) = A(I)/I`.
    ///
    /// For `interval = 0` this returns the peak rate.
    fn max_rate(&self, interval: Seconds) -> BitsPerSec {
        if interval <= Seconds::ZERO {
            self.peak_rate()
        } else {
            self.arrivals(interval) / interval
        }
    }

    /// The instantaneous burst `A(0⁺)` (zero for finite-peak sources).
    fn burst(&self) -> Bits {
        self.arrivals(Seconds::ZERO)
    }

    /// The envelope's serializable parameter description. Parametric
    /// models override this; the default is an opaque `Debug` render
    /// (still deterministic, but not reconstructible).
    fn describe(&self) -> EnvelopeDescriptor {
        EnvelopeDescriptor::Opaque {
            detail: format!("{self:?}"),
        }
    }

    /// Whether this envelope is subadditive, as computed. `true`
    /// promises both of these, where `A` is the model the envelope
    /// states in exact arithmetic and `Â` is what [`Envelope::arrivals`]
    /// returns:
    ///
    /// * `A` is nondecreasing and subadditive: `A(x + y) ≤ A(x) + A(y)`
    ///   for all real `x, y ≥ 0`;
    /// * `Â` evaluates `A` to within [`SUBADDITIVE_VALUE_TOL`] of its
    ///   value at an argument within `δ(x) = SUBADDITIVE_ARG_TOL ·
    ///   max(x, P)` of `x`, where `P` is the [`Envelope::period_hint`]
    ///   (zero without one): for every float `x ≥ 0`,
    ///   `(1 − γ)·A(max(0, x − δ(x))) ≤ Â(x) ≤ (1 + γ)·A(x + δ(x))`.
    ///
    /// The Theorem-1.4 output envelope uses it to drop maximizer
    /// candidates that can never win (see
    /// [`ServerOutput`](crate::analysis::ServerOutput)). The default is
    /// `false`, which is always sound.
    fn is_subadditive(&self) -> bool {
        false
    }

    /// Whether what [`Envelope::arrivals`] computes is nonnegative and
    /// nondecreasing over `[0, horizon]` up to roundoff: `true` promises
    /// `0 ≤ Â(x) ≤ (1 + δ)·Â(y)` for all floats `0 ≤ x ≤ y ≤ horizon`,
    /// where `δ` is a few units of roundoff (`2⁻⁵³`) per layer of the
    /// envelope, and so far below `10⁻⁹` for any chain this workspace
    /// builds.
    ///
    /// The contract already asks this of `A` in exact arithmetic; the
    /// flag vouches for the floats, layer by layer: a `Sampled` table for
    /// its own range, and each combinator for what its rounding does to
    /// its inner envelope's. `RateCapped`'s crossing search uses it to
    /// decide a midpoint's side from the values at its bracket's ends,
    /// without evaluating it. The default is `false`, which is always
    /// sound.
    fn is_nondecreasing(&self, _horizon: Seconds) -> bool {
        false
    }
}

/// The relative value error `γ` an envelope declaring
/// [`Envelope::is_subadditive`] may have: about 900 units of roundoff,
/// far above the handful of roundings in the parametric models'
/// `arrivals`.
pub const SUBADDITIVE_VALUE_TOL: f64 = 1.0e-13;

/// The relative argument error `η` an envelope declaring
/// [`Envelope::is_subadditive`] may have, against `max(x, P)`: five
/// times the two [`QUOTIENT_NUDGE`](crate::approx::QUOTIENT_NUDGE)s by
/// which the dual-periodic model's floors may round an argument up to
/// the next period boundary.
pub const SUBADDITIVE_ARG_TOL: f64 = 1.0e-8;

impl<E: Envelope + ?Sized> Envelope for Arc<E> {
    fn arrivals(&self, interval: Seconds) -> Bits {
        (**self).arrivals(interval)
    }
    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        (**self).arrivals_sorted(ts, out);
    }
    fn period_hint(&self) -> Option<Seconds> {
        (**self).period_hint()
    }
    fn sustained_rate(&self) -> BitsPerSec {
        (**self).sustained_rate()
    }
    fn peak_rate(&self) -> BitsPerSec {
        (**self).peak_rate()
    }
    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        (**self).breakpoints(horizon, out);
    }
    fn min_interval(&self, bits: Bits, max_horizon: Seconds) -> Option<Seconds> {
        (**self).min_interval(bits, max_horizon)
    }
    fn describe(&self) -> EnvelopeDescriptor {
        (**self).describe()
    }
    fn is_subadditive(&self) -> bool {
        (**self).is_subadditive()
    }
    fn is_nondecreasing(&self, horizon: Seconds) -> bool {
        (**self).is_nondecreasing(horizon)
    }
}

impl<E: Envelope + ?Sized> Envelope for &E {
    fn arrivals(&self, interval: Seconds) -> Bits {
        (**self).arrivals(interval)
    }
    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        (**self).arrivals_sorted(ts, out);
    }
    fn period_hint(&self) -> Option<Seconds> {
        (**self).period_hint()
    }
    fn sustained_rate(&self) -> BitsPerSec {
        (**self).sustained_rate()
    }
    fn peak_rate(&self) -> BitsPerSec {
        (**self).peak_rate()
    }
    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        (**self).breakpoints(horizon, out);
    }
    fn min_interval(&self, bits: Bits, max_horizon: Seconds) -> Option<Seconds> {
        (**self).min_interval(bits, max_horizon)
    }
    fn describe(&self) -> EnvelopeDescriptor {
        (**self).describe()
    }
    fn is_subadditive(&self) -> bool {
        (**self).is_subadditive()
    }
    fn is_nondecreasing(&self, horizon: Seconds) -> bool {
        (**self).is_nondecreasing(horizon)
    }
}

/// Builds the sorted, deduplicated list of candidate evaluation times in
/// `[0, horizon]`, in seconds, for an optimization over the given
/// envelopes. The list is nondecreasing, so it can be evaluated as one
/// batch ([`Envelope::arrivals_sorted`]).
///
/// The list contains every reported breakpoint, the interval endpoints,
/// the `extra` points supplied by the caller (e.g. service-curve steps),
/// a small ±ε guard around each point (so that one-sided limits of
/// staircase functions are observed), and `subdivisions` uniform guard
/// points between consecutive natural points (defense in depth for
/// envelopes whose breakpoint lists are approximate).
#[must_use]
pub fn candidate_times(
    envelopes: &[&dyn Envelope],
    extra: &[Seconds],
    horizon: Seconds,
    subdivisions: usize,
) -> Vec<f64> {
    let h = horizon.value().max(0.0);
    let mut raw: Vec<Seconds> = Vec::with_capacity(64);
    for env in envelopes {
        env.breakpoints(horizon, &mut raw);
    }
    raw.extend_from_slice(extra);
    raw.push(Seconds::ZERO);
    raw.push(horizon);

    let mut points: Vec<f64> = raw
        .iter()
        .map(|s| s.value())
        .filter(|&v| (0.0..=h).contains(&v))
        .collect();
    // Breakpoint lists arrive as runs, which the stable sort merges
    // faster than the unstable one.
    points.sort_by(f64::total_cmp);
    points.dedup_by(|a, b| approx::approx_eq(*a, *b));

    let eps = (h * 1.0e-9).max(1.0e-12);
    let mut out: Vec<f64> = Vec::with_capacity(points.len() * (3 + subdivisions));
    for (idx, &p) in points.iter().enumerate() {
        if p - eps > 0.0 {
            out.push(p - eps);
        }
        out.push(p);
        if p + eps <= h {
            out.push(p + eps);
        }
        if subdivisions > 0 {
            if let Some(&next) = points.get(idx + 1) {
                let gap = next - p;
                if gap > 4.0 * eps {
                    for s in 1..=subdivisions {
                        out.push(p + gap * s as f64 / (subdivisions + 1) as f64);
                    }
                }
            }
        }
    }
    // Nearly sorted already. Floats equal under `total_cmp` have the same
    // bits, so an unstable sort leaves the sequence a stable one would.
    out.sort_unstable_by(f64::total_cmp);
    out.dedup_by(|a, b| *a == *b);
    out
}

thread_local! {
    /// Spare buffers for batch evaluations: a layer of a chain borrows
    /// one for the length of its call and hands it back, so a warm
    /// thread evaluates chains without allocating.
    static SCRATCH: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with an empty buffer borrowed from this thread's pool.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    let mut buf = SCRATCH
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    let result = f(&mut buf);
    SCRATCH.with(|pool| pool.borrow_mut().push(buf));
    result
}

/// Runs `f` on the nondecreasing batch `ts` with each point clamped at
/// zero, as [`Seconds::clamp_min_zero`] clamps it. Only a batch that
/// starts below zero needs a clamped copy: otherwise no point is
/// negative, and the clamp changes none of them.
pub(crate) fn with_clamped<R>(ts: &[f64], f: impl FnOnce(&[f64]) -> R) -> R {
    if ts.first().is_none_or(|&t| t >= 0.0) {
        return f(ts);
    }
    with_scratch(|clamped| {
        clamped.extend(ts.iter().map(|&t| Seconds::new(t).clamp_min_zero().value()));
        f(clamped)
    })
}

/// The smallest interval `I` with `A(I) ≥ bits`, or `None` if the
/// envelope never delivers that much within `max_horizon`.
///
/// Used to invert envelopes when locating level-crossing times (e.g. the
/// instants at which `A(t)` crosses a multiple of a server's per-period
/// quantum). This is the generic search behind [`Envelope::min_interval`].
#[must_use]
pub fn min_interval_for<E: Envelope + ?Sized>(
    env: &E,
    bits: Bits,
    max_horizon: Seconds,
) -> Option<Seconds> {
    min_interval_with(
        env,
        bits,
        max_horizon,
        || None,
        |mid| env.arrivals(Seconds::new(mid)) >= bits,
    )
}

/// [`min_interval_for`] with the search supplied by the caller: the hook
/// through which an envelope reaches the same answer more cheaply.
/// `exact` runs once the early returns have passed and may hand back the
/// bisection's converged result directly, or `None` to bisect; `reaches`
/// is the bisection's test and must return exactly what
/// `env.arrivals(mid) >= bits` would.
pub(crate) fn min_interval_with<E: Envelope + ?Sized>(
    env: &E,
    bits: Bits,
    max_horizon: Seconds,
    exact: impl FnOnce() -> Option<f64>,
    reaches: impl FnMut(f64) -> bool,
) -> Option<Seconds> {
    if bits.value() <= 0.0 || approx::approx_le(bits.value(), env.burst().value()) {
        return Some(Seconds::ZERO);
    }
    if env.arrivals(max_horizon) < bits {
        return None;
    }
    if let Some(t) = exact() {
        return Some(Seconds::new(t));
    }
    // Bisection on the nondecreasing function A. `lo = 0` was never
    // tested (only the burst was, approximately), so it starts untested.
    Some(Seconds::new(bisect(
        0.0,
        max_horizon.value(),
        80,
        false,
        reaches,
    )))
}

/// Bisects `[lo, hi]` with up to `steps` halvings and returns the final
/// `hi`. Each step moves `hi` to the midpoint where `to_hi(mid)` holds
/// and `lo` otherwise; the loop stops early once no later step can
/// change `hi`:
///
/// * `mid == hi`: whichever end moves, `hi` keeps its value, and every
///   later midpoint equals it again;
/// * `mid == lo` with `to_hi(lo)` already known to be false
///   (`lo_tested`): the step is the no-op `lo = mid`, and so is every
///   later one.
///
/// Either exit returns the bits the full `steps` halvings would. An
/// untested `lo` (the `0` of an envelope inversion) takes the original
/// path: it is evaluated like any other midpoint. `to_hi` must be a pure
/// function of its argument.
pub(crate) fn bisect(
    mut lo: f64,
    mut hi: f64,
    steps: u32,
    mut lo_tested: bool,
    mut to_hi: impl FnMut(f64) -> bool,
) -> f64 {
    for _ in 0..steps {
        let mid = 0.5 * (lo + hi);
        if mid == hi || (lo_tested && mid == lo) {
            break;
        }
        if to_hi(mid) {
            hi = mid;
        } else {
            lo = mid;
            lo_tested = true;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ConstantRateEnvelope;

    #[derive(Debug)]
    struct Step {
        at: Seconds,
        jump: Bits,
    }

    impl Envelope for Step {
        fn arrivals(&self, interval: Seconds) -> Bits {
            if interval >= self.at {
                self.jump
            } else {
                Bits::ZERO
            }
        }
        fn sustained_rate(&self) -> BitsPerSec {
            BitsPerSec::ZERO
        }
        fn peak_rate(&self) -> BitsPerSec {
            BitsPerSec::new(f64::MAX)
        }
        fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
            if self.at <= horizon {
                out.push(self.at);
            }
        }
    }

    #[test]
    fn max_rate_divides_arrivals() {
        let env = ConstantRateEnvelope::new(BitsPerSec::new(100.0));
        assert_eq!(env.max_rate(Seconds::new(2.0)).value(), 100.0);
        assert_eq!(env.arrivals(Seconds::new(2.0)).value(), 200.0);
    }

    #[test]
    fn max_rate_at_zero_is_peak() {
        let env = ConstantRateEnvelope::new(BitsPerSec::new(100.0));
        assert_eq!(env.max_rate(Seconds::ZERO).value(), 100.0);
    }

    #[test]
    fn candidate_times_cover_breakpoints_with_guards() {
        let step = Step {
            at: Seconds::new(0.5),
            jump: Bits::new(10.0),
        };
        let pts = candidate_times(&[&step], &[], Seconds::new(1.0), 0);
        // Must contain a point just below 0.5, 0.5 itself, and just above.
        assert!(pts.iter().any(|&p| p < 0.5 && p > 0.499));
        assert!(pts.contains(&0.5));
        assert!(pts.iter().any(|&p| p > 0.5 && p < 0.501));
        // Sorted, within range.
        for w in pts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(*pts.first().unwrap() >= 0.0);
        assert!(*pts.last().unwrap() <= 1.0);
    }

    #[test]
    fn candidate_times_include_extras_and_subdivisions() {
        let env = ConstantRateEnvelope::new(BitsPerSec::new(1.0));
        let pts = candidate_times(&[&env], &[Seconds::new(0.25)], Seconds::new(1.0), 3);
        assert!(pts.contains(&0.25));
        // Subdivision points between 0.25 and 1.0 should exist.
        assert!(pts.iter().any(|&p| p > 0.3 && p < 0.9));
    }

    #[test]
    fn candidate_times_filters_out_of_range() {
        let step = Step {
            at: Seconds::new(5.0),
            jump: Bits::new(1.0),
        };
        let pts = candidate_times(&[&step], &[], Seconds::new(1.0), 0);
        assert!(pts.iter().all(|&p| p <= 1.0));
    }

    #[test]
    fn min_interval_inverts_constant_rate() {
        let env = ConstantRateEnvelope::new(BitsPerSec::new(100.0));
        let t = min_interval_for(&env, Bits::new(50.0), Seconds::new(10.0)).unwrap();
        assert!((t.value() - 0.5).abs() < 1.0e-6);
    }

    #[test]
    fn min_interval_zero_for_trivial_demand() {
        let env = ConstantRateEnvelope::new(BitsPerSec::new(100.0));
        assert_eq!(
            min_interval_for(&env, Bits::ZERO, Seconds::new(1.0)),
            Some(Seconds::ZERO)
        );
    }

    #[test]
    fn min_interval_none_when_unreachable() {
        let env = ConstantRateEnvelope::new(BitsPerSec::new(1.0));
        assert_eq!(
            min_interval_for(&env, Bits::new(100.0), Seconds::new(1.0)),
            None
        );
    }

    #[test]
    fn envelope_object_safety_and_blanket_impls() {
        let inner = ConstantRateEnvelope::new(BitsPerSec::new(10.0));
        let arc: SharedEnvelope = Arc::new(inner);
        // Arc<dyn Envelope> itself implements Envelope.
        assert_eq!(arc.arrivals(Seconds::new(1.0)).value(), 10.0);
        let by_ref: &dyn Envelope = &arc;
        assert_eq!(by_ref.sustained_rate().value(), 10.0);
    }
}
