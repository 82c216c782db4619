//! Envelope combinators: transformed views of traffic as it moves through
//! the network.
//!
//! Each server a connection traverses changes how its traffic looks to the
//! next server. The paper expresses those changes as transformations of
//! the maximum-rate function; this module provides them as composable
//! wrappers over any [`Envelope`]:
//!
//! * [`Delayed`] — `A(I + d)`: the sound FIFO output transform for a
//!   server with worst-case delay `d` (Cruz).
//! * [`RateCapped`] — `min(A(I), C·I)`: traffic observed behind a link or
//!   medium of rate `C`.
//! * [`Aggregate`] — the sum of several flows multiplexed together.
//! * [`Scaled`] — `f·A(I)`: constant inflation, e.g. the 53/48 ATM
//!   cell-header overhead when payload envelopes are mapped to wire bits.
//! * [`Quantized`] — `⌈A(I)/q_in⌉·q_out`: packetization, the shape of the
//!   paper's Theorem 2 (frame → cell conversion) and of reassembly.
//! * [`MinOf`] — the pointwise minimum of two valid envelopes (both are
//!   upper bounds, so their minimum is too).

use crate::approx;
use crate::envelope::{
    bisect, min_interval_with, with_clamped, with_scratch, Envelope, SharedEnvelope,
};
use crate::units::{Bits, BitsPerSec, Seconds};

/// FIFO output transform: the traffic leaving a FIFO server whose delay is
/// at most `delay` is bounded by `A(I + delay)`.
#[derive(Debug, Clone)]
pub struct Delayed {
    inner: SharedEnvelope,
    delay: Seconds,
}

impl Delayed {
    /// Wraps `inner` with a worst-case FIFO delay of `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative.
    #[must_use]
    pub fn new(inner: SharedEnvelope, delay: Seconds) -> Self {
        assert!(!delay.is_negative(), "delay must be non-negative");
        Self { inner, delay }
    }

    /// The delay applied by this transform.
    #[must_use]
    pub fn delay(&self) -> Seconds {
        self.delay
    }
}

impl Envelope for Delayed {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.inner.arrivals(interval.clamp_min_zero() + self.delay)
    }

    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        with_scratch(|shifted| {
            shifted.extend(
                ts.iter()
                    .map(|&t| (Seconds::new(t).clamp_min_zero() + self.delay).value()),
            );
            self.inner.arrivals_sorted(shifted, out);
        });
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate()
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.inner.peak_rate()
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        let mut inner_points = Vec::new();
        self.inner
            .breakpoints(horizon + self.delay, &mut inner_points);
        out.extend(
            inner_points
                .into_iter()
                .map(|p| p.saturating_sub(self.delay))
                .filter(|p| *p > Seconds::ZERO),
        );
    }
}

/// Rate cap: `min(A(I), cap · I)` — what the traffic can look like after
/// any medium that physically cannot deliver faster than `cap`.
#[derive(Debug, Clone)]
pub struct RateCapped {
    inner: SharedEnvelope,
    cap: BitsPerSec,
}

impl RateCapped {
    /// Caps `inner` at `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not strictly positive.
    #[must_use]
    pub fn new(inner: SharedEnvelope, cap: BitsPerSec) -> Self {
        assert!(cap.value() > 0.0, "cap must be positive");
        Self { inner, cap }
    }
}

impl Envelope for RateCapped {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero();
        self.inner.arrivals(i).min(self.cap * i)
    }

    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        with_clamped(ts, |is| {
            self.inner.arrivals_sorted(is, out);
            for (a, &i) in out[start..].iter_mut().zip(is) {
                *a = Bits::new(*a).min(self.cap * Seconds::new(i)).value();
            }
        });
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn sustained_rate(&self) -> BitsPerSec {
        let inner = self.inner.sustained_rate();
        if inner <= self.cap {
            inner
        } else {
            self.cap
        }
    }

    fn peak_rate(&self) -> BitsPerSec {
        let inner = self.inner.peak_rate();
        if inner <= self.cap {
            inner
        } else {
            self.cap
        }
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        // Enumerate the inner envelope once and bracket from a copy:
        // asking it twice doubles the work at every hop of a chain, so a
        // chain of n capped hops would reach its root 2^n times.
        let start = out.len();
        self.inner.breakpoints(horizon, out);
        // The cap line `cap·I` may cross A between inner breakpoints; a
        // crossing is where min() switches branch (slope change). Locate it
        // by inverting A along the cap line via bisection on the sign of
        // A(I) − cap·I, bracketed by inner breakpoints.
        let above = |i: Seconds| self.inner.arrivals(i) > self.cap * i;
        let sides = |pts: &[f64], sides: &mut Vec<bool>| {
            with_scratch(|vals| {
                self.inner.arrivals_sorted(pts, vals);
                sides.extend(
                    pts.iter()
                        .zip(vals.iter())
                        .map(|(&i, &a)| Bits::new(a) > self.cap * Seconds::new(i)),
                );
            });
        };
        push_switch_points(out, start, horizon, sides, above);
    }
}

/// Appends to `out` where `side` changes value between consecutive
/// points of `out[start..] ∪ {0, horizon}`: each change is bracketed by
/// its two points and bisected 60 times (stopping early once converged,
/// see [`bisect`]) toward the first point on the new side. `sides`
/// appends `side` of every point of a sorted batch, as one batch
/// evaluation.
fn push_switch_points(
    out: &mut Vec<Seconds>,
    start: usize,
    horizon: Seconds,
    sides: impl FnOnce(&[f64], &mut Vec<bool>),
    side: impl Fn(Seconds) -> bool,
) {
    let mut pts: Vec<f64> = out[start..].iter().map(|p| p.value()).collect();
    pts.push(0.0);
    pts.push(horizon.value());
    pts.sort_by(f64::total_cmp);
    // A window between two copies of one point never brackets a switch,
    // so dropping the copies leaves every switching window as it was.
    pts.dedup_by(|a, b| a.total_cmp(b).is_eq());
    // Each point's side is evaluated once; adjacent windows share it.
    let mut at = Vec::with_capacity(pts.len());
    sides(&pts, &mut at);
    for (w, s) in pts.windows(2).zip(at.windows(2)) {
        if s[0] != s[1] {
            let from = s[0];
            let hi = bisect(w[0], w[1], 60, true, |mid| side(Seconds::new(mid)) != from);
            out.push(Seconds::new(hi));
        }
    }
}

/// The aggregate (sum) of several flows sharing a multiplexing point.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    parts: Vec<SharedEnvelope>,
}

impl Aggregate {
    /// Creates an aggregate of the given flows.
    #[must_use]
    pub fn new(parts: Vec<SharedEnvelope>) -> Self {
        Self { parts }
    }

    /// The number of component flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the aggregate has no component flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl FromIterator<SharedEnvelope> for Aggregate {
    fn from_iter<T: IntoIterator<Item = SharedEnvelope>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Extend<SharedEnvelope> for Aggregate {
    fn extend<T: IntoIterator<Item = SharedEnvelope>>(&mut self, iter: T) {
        self.parts.extend(iter);
    }
}

impl Envelope for Aggregate {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.parts.iter().map(|p| p.arrivals(interval)).sum()
    }

    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        // Part by part, each point's total in the order `arrivals` adds
        // it up, from the value `f64`'s `Sum` starts from.
        let start = out.len();
        out.resize(start + ts.len(), std::iter::empty::<f64>().sum());
        with_scratch(|vals| {
            for p in &self.parts {
                vals.clear();
                p.arrivals_sorted(ts, vals);
                for (total, &v) in out[start..].iter_mut().zip(vals.iter()) {
                    *total += v;
                }
            }
        });
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.parts
            .iter()
            .filter_map(|p| p.period_hint())
            .max_by(|a, b| a.total_cmp(b))
    }

    fn sustained_rate(&self) -> BitsPerSec {
        BitsPerSec::new(self.parts.iter().map(|p| p.sustained_rate().value()).sum())
    }

    fn peak_rate(&self) -> BitsPerSec {
        // Summing peaks can overflow f64::MAX sentinels; saturate instead.
        let total: f64 = self
            .parts
            .iter()
            .map(|p| p.peak_rate().value())
            .fold(0.0, |acc, v| (acc + v).min(f64::MAX / 2.0));
        BitsPerSec::new(total)
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        for p in &self.parts {
            p.breakpoints(horizon, out);
        }
    }
}

/// Constant inflation: `A_out(I) = factor · A_in(I)`.
///
/// Used to account for per-cell header overhead: an envelope counted in
/// ATM payload bits becomes wire bits after scaling by 53/48.
#[derive(Debug, Clone)]
pub struct Scaled {
    inner: SharedEnvelope,
    factor: f64,
}

impl Scaled {
    /// Scales `inner` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn new(inner: SharedEnvelope, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be finite and positive"
        );
        Self { inner, factor }
    }
}

impl Envelope for Scaled {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.inner.arrivals(interval) * self.factor
    }

    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        self.inner.arrivals_sorted(ts, out);
        for a in &mut out[start..] {
            *a = (Bits::new(*a) * self.factor).value();
        }
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate() * self.factor
    }

    fn peak_rate(&self) -> BitsPerSec {
        let p = self.inner.peak_rate().value();
        BitsPerSec::new((p * self.factor).min(f64::MAX / 2.0))
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        self.inner.breakpoints(horizon, out);
    }
}

/// Packetization: `A_out(I) = ⌈A_in(I) / unit_in⌉ · unit_out`.
///
/// This is the shape of the paper's Theorem 2: a frame of `F_S` bits is
/// converted into `F_C` cells carrying `C_S` payload bits each, so
/// `A_out(I) = ⌈A_in(I)/F_S⌉ · F_C · C_S` with `unit_in = F_S` and
/// `unit_out = F_C · C_S`. The same transform with roles swapped models
/// cell→frame reassembly.
#[derive(Debug, Clone)]
pub struct Quantized {
    inner: SharedEnvelope,
    unit_in: Bits,
    unit_out: Bits,
}

impl Quantized {
    /// Quantizes `inner` from `unit_in`-sized packets to `unit_out` bits
    /// emitted per packet.
    ///
    /// # Panics
    ///
    /// Panics if either unit is not strictly positive.
    #[must_use]
    pub fn new(inner: SharedEnvelope, unit_in: Bits, unit_out: Bits) -> Self {
        assert!(unit_in.value() > 0.0, "unit_in must be positive");
        assert!(unit_out.value() > 0.0, "unit_out must be positive");
        Self {
            inner,
            unit_in,
            unit_out,
        }
    }

    /// The output/input inflation ratio `unit_out / unit_in`.
    #[must_use]
    pub fn inflation(&self) -> f64 {
        self.unit_out.value() / self.unit_in.value()
    }

    /// `⌈a/unit_in⌉·unit_out`, zero for no input.
    fn quantize(&self, a: Bits) -> Bits {
        if a.value() <= 0.0 {
            return Bits::ZERO;
        }
        self.unit_out * approx::ceil_div(a.value(), self.unit_in.value())
    }
}

impl Envelope for Quantized {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.quantize(self.inner.arrivals(interval))
    }

    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        self.inner.arrivals_sorted(ts, out);
        for a in &mut out[start..] {
            *a = self.quantize(Bits::new(*a)).value();
        }
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate() * self.inflation()
    }

    fn peak_rate(&self) -> BitsPerSec {
        // Quantization introduces jumps, so the instantaneous rate is
        // unbounded at the jump points.
        BitsPerSec::new(f64::MAX)
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        self.inner.breakpoints(horizon, out);
        // Jumps occur where A_in crosses a multiple of unit_in.
        let total = self.inner.arrivals(horizon).value();
        let n_units = (total / self.unit_in.value()).ceil() as u64;
        // Bound the work: beyond a few thousand crossings, downstream guard
        // subdivisions have to carry the precision.
        let cap = 8192;
        for k in 1..=n_units.min(cap) {
            let level = self.unit_in * k as f64;
            if let Some(t) = self.inner.min_interval(level, horizon) {
                if t > Seconds::ZERO && t <= horizon {
                    out.push(t);
                }
            }
        }
    }
}

/// Additive padding: `A_out(I) = A_in(I) + pad` for every `I ≥ 0`.
///
/// Used for sound, cheap relaxations of quantization effects: rounding a
/// stream up to whole frames (`⌈A/u⌉·u`) is dominated by `A·(u'/u) + u'`,
/// which has no staircase corners to enumerate.
#[derive(Debug, Clone)]
pub struct Padded {
    inner: SharedEnvelope,
    pad: Bits,
}

impl Padded {
    /// Pads `inner` by a constant `pad` bits.
    ///
    /// # Panics
    ///
    /// Panics if `pad` is negative.
    #[must_use]
    pub fn new(inner: SharedEnvelope, pad: Bits) -> Self {
        assert!(!pad.is_negative(), "pad must be non-negative");
        Self { inner, pad }
    }
}

impl Envelope for Padded {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.inner.arrivals(interval) + self.pad
    }

    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        self.inner.arrivals_sorted(ts, out);
        for a in &mut out[start..] {
            *a = (Bits::new(*a) + self.pad).value();
        }
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate()
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.inner.peak_rate()
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        self.inner.breakpoints(horizon, out);
    }
}

/// A flattened piecewise-linear cache of another envelope.
///
/// Deeply nested envelope chains (a Theorem-1.4 output inside a Theorem-2
/// quantization inside an aggregate…) make every `arrivals` call walk the
/// whole chain. `Sampled` evaluates the chain once at its candidate
/// points within a horizon and serves interpolated lookups from the
/// table; queries beyond the horizon fall through to the inner envelope,
/// so the cache never changes results outside its sampled range by more
/// than the interpolation between adjacent candidate points.
#[derive(Debug, Clone)]
pub struct Sampled {
    inner: SharedEnvelope,
    ts: Vec<f64>,
    vals: Vec<f64>,
    /// The inner envelope's natural breakpoints (no guards or
    /// subdivisions) — what downstream optimizers should treat as this
    /// envelope's corners, keeping candidate sets from compounding.
    natural: Vec<f64>,
    horizon: f64,
    /// Whether the table is a valid envelope's: finite, `ts` strictly
    /// increasing, `vals` nonnegative and nondecreasing. Only then is the
    /// served function monotone, which the closed-form inversion needs.
    nondecreasing: bool,
}

/// Relative margin by which the sample below a level must stay under
/// it: far above the ulp or two by which an interpolated value may
/// overshoot the sample ending its segment.
pub(crate) const KNOT_MARGIN: f64 = 1.0e-12;
/// The smallest crossing, as a share of the search bracket, that 80
/// halvings from `[0, max_horizon]` certainly narrow down to adjacent
/// floats (20 halvings to reach its scale, 53 for its mantissa).
pub(crate) const CONVERGED_SHARE: f64 = 1.0 / 1_048_576.0;
/// The most ulps the closed-form estimate may be walked before the
/// inversion falls back to bisection.
pub(crate) const MAX_ULP_WALK: usize = 64;

impl Sampled {
    /// Flattens `inner` over `[0, horizon]`, sampling at its candidate
    /// points with `subdivisions` guard points per gap.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not strictly positive.
    #[must_use]
    pub fn flatten(inner: SharedEnvelope, horizon: Seconds, subdivisions: usize) -> Self {
        assert!(horizon.value() > 0.0, "horizon must be positive");
        let mut ts = crate::envelope::candidate_times(&[&inner], &[], horizon, subdivisions);
        if ts.first().is_none_or(|&t| t > 0.0) {
            ts.insert(0, 0.0);
        }
        let mut vals = Vec::with_capacity(ts.len());
        inner.arrivals_sorted(&ts, &mut vals);
        // Derive this envelope's corners from its own table: points where
        // the interpolated slope changes materially. This keeps the
        // reported breakpoint count proportional to the envelope's real
        // complexity instead of inheriting every ancestor's candidate
        // points (deep chains otherwise compound multiplicatively).
        let mut slopes = Vec::with_capacity(ts.len().saturating_sub(1));
        for w in 0..ts.len().saturating_sub(1) {
            let dt = ts[w + 1] - ts[w];
            slopes.push(if dt > 0.0 {
                (vals[w + 1] - vals[w]) / dt
            } else {
                0.0
            });
        }
        let max_slope = slopes.iter().fold(0.0_f64, |m, &s| m.max(s.abs()));
        let thresh = 1.0e-6 * (max_slope + 1.0e-30);
        let mut natural = Vec::new();
        for i in 1..slopes.len() {
            if (slopes[i] - slopes[i - 1]).abs() > thresh && ts[i] > 0.0 {
                natural.push(ts[i]);
            }
        }
        natural.dedup_by(|a, b| approx::approx_eq(*a, *b));
        let nondecreasing = ts.iter().chain(&vals).all(|x| x.is_finite())
            && vals.first().is_some_and(|&v| v >= 0.0)
            && ts.windows(2).all(|w| w[0] < w[1])
            && vals.windows(2).all(|w| w[0] <= w[1]);
        Self {
            inner,
            ts,
            vals,
            natural,
            horizon: horizon.value(),
            nondecreasing,
        }
    }

    /// The number of sample points held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// The sample table: interval points (seconds) paired with arrival
    /// values (bits). Within the horizon, `arrivals` is exactly the
    /// linear interpolation of this table (constant beyond the last
    /// sample), so any affine function dominating the table at its
    /// sample points dominates the served envelope on `[0, horizon]`.
    #[must_use]
    pub fn samples(&self) -> (&[f64], &[f64]) {
        (&self.ts, &self.vals)
    }

    /// The flattening horizon in seconds. Queries beyond it fall through
    /// to the inner envelope and are not covered by the sample table.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Whether the cache is empty (never true for a flattened envelope).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The served value at `i ≤ horizon`, given `i`'s position in the
    /// sample table as `binary_search` reports it.
    fn interpolate(&self, i: f64, at: Result<usize, usize>) -> f64 {
        match at {
            Ok(idx) => self.vals[idx],
            Err(0) => self.vals[0],
            Err(idx) if idx >= self.ts.len() => *self.vals.last().expect("non-empty"),
            Err(idx) => {
                let (t0, t1) = (self.ts[idx - 1], self.ts[idx]);
                let (v0, v1) = (self.vals[idx - 1], self.vals[idx]);
                let frac = if t1 > t0 { (i - t0) / (t1 - t0) } else { 0.0 };
                v0 + frac * (v1 - v0)
            }
        }
    }

    /// The smallest float `I` in `[0, max_horizon]` with `A(I) ≥ level`,
    /// solved inside the one table segment that straddles `level`, or
    /// `None` where that is not provably the converged bisection's
    /// answer. See [`Envelope::min_interval`] on `Sampled` for the guards.
    pub(crate) fn crossing(&self, level: f64, max_horizon: f64) -> Option<f64> {
        if !self.nondecreasing || max_horizon > self.horizon {
            return None;
        }
        let b = self.vals.partition_point(|&v| v < level);
        if b == 0 || b == self.vals.len() || self.vals[b - 1] * (1.0 + KNOT_MARGIN) >= level {
            return None;
        }
        let (t0, t1) = (self.ts[b - 1], self.ts[b]);
        let (v0, v1) = (self.vals[b - 1], self.vals[b]);
        // Inside `(t0, t1]` the lookup lands in segment `b` (or on its
        // end sample), where the interpolation is monotone in `I`.
        let reaches = |i: f64| self.interpolate(i, if i == t1 { Ok(b) } else { Err(b) }) >= level;
        let (first, top) = (t0.next_up(), t1.min(max_horizon));
        if first > top {
            return None;
        }
        let mut i = (t0 + (level - v0) / (v1 - v0) * (t1 - t0)).clamp(first, top);
        // Down while the float below still reaches (`t0` never does),
        // or up until one does: at most `MAX_ULP_WALK` ulps either way.
        let found = if reaches(i) {
            (0..=MAX_ULP_WALK).find_map(|_| {
                let below = i.next_down();
                if below > t0 && reaches(below) {
                    i = below;
                    None
                } else {
                    Some(i)
                }
            })
        } else {
            (0..MAX_ULP_WALK).find_map(|_| {
                i = i.next_up();
                (i <= top && reaches(i)).then_some(i)
            })
        };
        found.filter(|&i| i >= max_horizon * CONVERGED_SHARE)
    }
}

impl Envelope for Sampled {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero().value();
        if i > self.horizon || self.ts.is_empty() {
            return self.inner.arrivals(interval);
        }
        Bits::new(self.interpolate(i, self.ts.binary_search_by(|t| t.total_cmp(&i))))
    }

    /// One cursor walk over the table for the points inside the horizon,
    /// and one inner batch for the tail past it.
    ///
    /// A nondecreasing table is finite and strictly increasing, so no
    /// two of its entries are equal under `total_cmp`. For such a table
    /// `binary_search_by(total_cmp)` returns `Ok` at the one entry equal
    /// to the query, or `Err` at the number of entries below it: the
    /// `total_cmp` partition point, which [`seek`] finds. Other tables
    /// are looked up point by point.
    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        if !self.nondecreasing {
            out.extend(ts.iter().map(|&t| self.arrivals(Seconds::new(t)).value()));
            return;
        }
        let clamp = |t: f64| Seconds::new(t).clamp_min_zero().value();
        let split = ts.partition_point(|&t| clamp(t) <= self.horizon);
        let mut k = 0;
        for &t in &ts[..split] {
            let i = clamp(t);
            k = seek(&self.ts, k, i);
            let at = match self.ts.get(k) {
                Some(x) if x.total_cmp(&i).is_eq() => Ok(k),
                _ => Err(k),
            };
            out.push(self.interpolate(i, at));
        }
        if split < ts.len() {
            self.inner.arrivals_sorted(&ts[split..], out);
        }
    }

    /// The generic bisection's answer, bit for bit, solved in closed
    /// form where that is proven to equal it, and bisected otherwise.
    ///
    /// Within the table the served function is the linear interpolation
    /// of the samples, so a level's crossing lies inside the segment
    /// `(b − 1, b)` whose end sample `b` is the first to reach it. That
    /// segment's interpolation is solved for the crossing, and the
    /// estimate is walked ulp by ulp, with the lookup `arrivals` itself
    /// uses, to the smallest float that reaches the level. On a predicate
    /// monotone over `[0, max_horizon]` that float is where 80 halvings
    /// converge, provided they do converge. The closed form is taken only
    /// when all of these hold:
    ///
    /// * the table is nondecreasing (checked once, in [`Sampled::flatten`]);
    /// * `vals[b−1]·(1 + 1e−12) < level ≤ vals[b]`: exactly one segment
    ///   straddles the level, with margin for the interpolation's ulp
    ///   overshoot at a knot, so no earlier query reaches it;
    /// * `max_horizon` is within the table horizon, so every query is a
    ///   table lookup;
    /// * the crossing is at least `max_horizon·2⁻²⁰`, so the 80 halvings
    ///   from `[0, max_horizon]` would reach adjacent floats;
    /// * the smallest reaching float lies within 64 ulps of the estimate.
    ///
    /// Otherwise it bisects as [`min_interval_for`] does, each midpoint
    /// looked up exactly as `arrivals` does but searched for only inside
    /// the table range the current bracket already proves: a query's
    /// position in the sorted table is monotone in the query, so a
    /// midpoint's lies between its bracket ends'.
    ///
    /// [`min_interval_for`]: crate::envelope::min_interval_for
    fn min_interval(&self, bits: Bits, max_horizon: Seconds) -> Option<Seconds> {
        let (mut lo_idx, mut hi_idx) = (0, self.ts.len());
        let exact = || self.crossing(bits.value(), max_horizon.value());
        min_interval_with(self, bits, max_horizon, exact, |mid| {
            let interval = Seconds::new(mid);
            let i = interval.clamp_min_zero().value();
            if i > self.horizon || self.ts.is_empty() {
                return self.inner.arrivals(interval) >= bits;
            }
            let idx = lo_idx + self.ts[lo_idx..hi_idx].partition_point(|t| t.total_cmp(&i).is_lt());
            let at = match self.ts.get(idx) {
                Some(t) if t.total_cmp(&i).is_eq() => Ok(idx),
                _ => Err(idx),
            };
            let reaches = Bits::new(self.interpolate(i, at)) >= bits;
            if reaches {
                hi_idx = idx;
            } else {
                lo_idx = idx;
            }
            reaches
        })
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate()
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.inner.peak_rate()
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        let h = horizon.value();
        out.extend(
            self.natural
                .iter()
                .copied()
                .filter(|&t| t <= h)
                .map(Seconds::new),
        );
        if h > self.horizon {
            self.inner.breakpoints(horizon, out);
        }
    }
}

/// The number of entries of `table`, which is increasing under
/// `total_cmp`, that `total_cmp` puts below `x`, searched from `from`,
/// the answer for the previous query. For a query at or above that one
/// it gallops forward (1, 2, 4, … entries) and bisects the last stride,
/// so a sorted batch walks the table once; a query below it searches
/// `table[..from]` afresh, so the answer does not depend on the order of
/// the queries.
pub(crate) fn seek(table: &[f64], from: usize, x: f64) -> usize {
    let below = |t: &f64| t.total_cmp(&x).is_lt();
    if from > 0 && !below(&table[from - 1]) {
        return table[..from].partition_point(below);
    }
    let (mut lo, mut stride) = (from, 1);
    while lo + stride <= table.len() && below(&table[lo + stride - 1]) {
        lo += stride;
        stride *= 2;
    }
    lo + table[lo..(lo + stride).min(table.len())].partition_point(below)
}

/// Pointwise minimum of two envelopes (both bound the same traffic, so the
/// minimum is also a bound — e.g. a source model combined with a
/// regulator's contract).
#[derive(Debug, Clone)]
pub struct MinOf {
    a: SharedEnvelope,
    b: SharedEnvelope,
}

impl MinOf {
    /// Creates the pointwise minimum of `a` and `b`.
    #[must_use]
    pub fn new(a: SharedEnvelope, b: SharedEnvelope) -> Self {
        Self { a, b }
    }
}

impl Envelope for MinOf {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.a.arrivals(interval).min(self.b.arrivals(interval))
    }

    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        self.a.arrivals_sorted(ts, out);
        with_scratch(|bs| {
            self.b.arrivals_sorted(ts, bs);
            for (a, &b) in out[start..].iter_mut().zip(bs.iter()) {
                *a = Bits::new(*a).min(Bits::new(b)).value();
            }
        });
    }

    fn period_hint(&self) -> Option<Seconds> {
        match (self.a.period_hint(), self.b.period_hint()) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        }
    }

    fn sustained_rate(&self) -> BitsPerSec {
        let (ra, rb) = (self.a.sustained_rate(), self.b.sustained_rate());
        if ra <= rb {
            ra
        } else {
            rb
        }
    }

    fn peak_rate(&self) -> BitsPerSec {
        let (pa, pb) = (self.a.peak_rate(), self.b.peak_rate());
        if pa <= pb {
            pa
        } else {
            pb
        }
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        // One enumeration per operand, bracketed from a copy (see
        // `RateCapped::breakpoints`).
        let start = out.len();
        self.a.breakpoints(horizon, out);
        self.b.breakpoints(horizon, out);
        // Branch-switch points of the min are also slope changes.
        let a_below = |i: Seconds| self.a.arrivals(i) < self.b.arrivals(i);
        let sides = |pts: &[f64], sides: &mut Vec<bool>| {
            with_scratch(|avals| {
                with_scratch(|bvals| {
                    self.a.arrivals_sorted(pts, avals);
                    self.b.arrivals_sorted(pts, bvals);
                    sides.extend(avals.iter().zip(bvals.iter()).map(|(&a, &b)| a < b));
                });
            });
        };
        push_switch_points(out, start, horizon, sides, a_below);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ConstantRateEnvelope, LeakyBucketEnvelope, PeriodicEnvelope};
    use std::sync::Arc;

    fn lb(sigma: f64, rho: f64) -> SharedEnvelope {
        Arc::new(LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::new(rho)).unwrap())
    }

    #[test]
    fn delayed_shifts_interval() {
        let d = Delayed::new(lb(100.0, 10.0), Seconds::new(2.0));
        // A(I + 2) = 100 + 10*(I+2)
        assert_eq!(d.arrivals(Seconds::ZERO).value(), 120.0);
        assert_eq!(d.arrivals(Seconds::new(3.0)).value(), 150.0);
        assert_eq!(d.delay().value(), 2.0);
        assert_eq!(d.sustained_rate().value(), 10.0);
    }

    #[test]
    fn delayed_dominates_original() {
        let inner = lb(100.0, 10.0);
        let d = Delayed::new(Arc::clone(&inner), Seconds::new(0.5));
        for k in 0..50 {
            let i = Seconds::new(k as f64 * 0.3);
            assert!(d.arrivals(i) >= inner.arrivals(i));
        }
    }

    #[test]
    fn rate_capped_takes_min() {
        let c = RateCapped::new(lb(100.0, 10.0), BitsPerSec::new(50.0));
        // At small I the cap wins: 50*I < 100 + 10I for I < 2.5.
        assert_eq!(c.arrivals(Seconds::new(1.0)).value(), 50.0);
        // At large I the bucket wins.
        assert_eq!(c.arrivals(Seconds::new(10.0)).value(), 200.0);
        assert_eq!(c.sustained_rate().value(), 10.0);
        assert_eq!(c.peak_rate().value(), 50.0);
        assert_eq!(c.burst(), Bits::ZERO);
    }

    #[test]
    fn rate_capped_reports_crossing_breakpoint() {
        let c = RateCapped::new(lb(100.0, 10.0), BitsPerSec::new(50.0));
        let mut pts = Vec::new();
        c.breakpoints(Seconds::new(10.0), &mut pts);
        // crossing at 100 + 10I = 50I => I = 2.5
        assert!(
            pts.iter().any(|p| (p.value() - 2.5).abs() < 1e-6),
            "crossing breakpoint missing: {pts:?}"
        );
    }

    #[test]
    fn aggregate_sums_flows() {
        let agg: Aggregate = vec![lb(10.0, 1.0), lb(20.0, 2.0), lb(30.0, 3.0)]
            .into_iter()
            .collect();
        assert_eq!(agg.len(), 3);
        assert!(!agg.is_empty());
        assert_eq!(agg.arrivals(Seconds::new(1.0)).value(), 66.0);
        assert_eq!(agg.sustained_rate().value(), 6.0);
        assert_eq!(agg.burst().value(), 60.0);
    }

    #[test]
    fn aggregate_empty_is_zero() {
        let agg = Aggregate::default();
        assert!(agg.is_empty());
        assert_eq!(agg.arrivals(Seconds::new(5.0)), Bits::ZERO);
        assert_eq!(agg.sustained_rate(), BitsPerSec::ZERO);
    }

    #[test]
    fn aggregate_extend() {
        let mut agg = Aggregate::default();
        agg.extend([lb(1.0, 1.0)]);
        agg.extend([lb(2.0, 1.0)]);
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn aggregate_peak_saturates() {
        let a = Arc::new(ConstantRateEnvelope::new(BitsPerSec::new(1.0)));
        let b = lb(1.0, 1.0); // peak f64::MAX
        let agg = Aggregate::new(vec![a, b]);
        assert!(agg.peak_rate().value() <= f64::MAX / 2.0);
    }

    #[test]
    fn scaled_inflates() {
        let s = Scaled::new(lb(48.0, 48.0), 53.0 / 48.0);
        assert_eq!(s.arrivals(Seconds::ZERO).value(), 53.0);
        assert_eq!(s.arrivals(Seconds::new(1.0)).value(), 106.0);
        assert_eq!(s.sustained_rate().value(), 53.0);
    }

    #[test]
    fn quantized_matches_theorem2_shape() {
        // Frames of 1000 bits become 3 cells of 384 payload bits each.
        let inner = Arc::new(ConstantRateEnvelope::new(BitsPerSec::new(1000.0)));
        let q = Quantized::new(inner, Bits::new(1000.0), Bits::new(3.0 * 384.0));
        // A_in(0.5) = 500 -> ceil(0.5) = 1 frame -> 1152 bits.
        assert_eq!(q.arrivals(Seconds::new(0.5)).value(), 1152.0);
        // A_in(1.0) = 1000 -> exactly 1 frame.
        assert_eq!(q.arrivals(Seconds::new(1.0)).value(), 1152.0);
        // A_in(1.5) = 1500 -> 2 frames.
        assert_eq!(q.arrivals(Seconds::new(1.5)).value(), 2304.0);
        assert_eq!(q.arrivals(Seconds::ZERO), Bits::ZERO);
        assert!((q.inflation() - 1.152).abs() < 1e-12);
        assert_eq!(q.sustained_rate().value(), 1152.0);
    }

    #[test]
    fn quantized_breakpoints_cover_crossings() {
        let inner = Arc::new(ConstantRateEnvelope::new(BitsPerSec::new(1000.0)));
        let q = Quantized::new(inner, Bits::new(1000.0), Bits::new(1152.0));
        let mut pts = Vec::new();
        q.breakpoints(Seconds::new(3.5), &mut pts);
        for expect in [1.0, 2.0, 3.0] {
            assert!(
                pts.iter().any(|p| (p.value() - expect).abs() < 1e-6),
                "missing crossing at {expect}: {pts:?}"
            );
        }
    }

    #[test]
    fn quantized_dominates_input() {
        let inner: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(
                Bits::new(2500.0),
                Seconds::new(1.0),
                BitsPerSec::new(10_000.0),
            )
            .unwrap(),
        );
        let q = Quantized::new(Arc::clone(&inner), Bits::new(1000.0), Bits::new(1000.0));
        // With unit_out == unit_in, quantization only rounds up (modulo
        // the ~1e-9 relative nudge of ceil_div).
        for k in 0..100 {
            let i = Seconds::new(k as f64 * 0.03);
            assert!(q.arrivals(i) >= inner.arrivals(i) - Bits::new(1e-4));
        }
    }

    #[test]
    fn min_of_takes_pointwise_min() {
        let m = MinOf::new(lb(100.0, 10.0), lb(10.0, 50.0));
        // At I=0: min(100, 10) = 10. At I=10: min(200, 510) = 200.
        assert_eq!(m.arrivals(Seconds::ZERO).value(), 10.0);
        assert_eq!(m.arrivals(Seconds::new(10.0)).value(), 200.0);
        assert_eq!(m.sustained_rate().value(), 10.0);
        // Crossing at 100+10I = 10+50I => I = 2.25
        let mut pts = Vec::new();
        m.breakpoints(Seconds::new(10.0), &mut pts);
        assert!(pts.iter().any(|p| (p.value() - 2.25).abs() < 1e-6));
    }

    #[test]
    fn composition_chains() {
        // Delay, then cap, then quantize: a miniature server chain.
        let src = lb(1000.0, 100.0);
        let after_mac = Arc::new(Delayed::new(src, Seconds::new(0.1)));
        let on_ring = Arc::new(RateCapped::new(after_mac, BitsPerSec::new(5000.0)));
        let cells = Quantized::new(on_ring, Bits::new(500.0), Bits::new(530.0));
        let a = cells.arrivals(Seconds::new(1.0));
        // A_in(1.1) = 1000 + 110 = 1110; capped: min(1110, 5000) = 1110;
        // ceil(1110/500) = 3 frames -> 1590.
        assert_eq!(a.value(), 1590.0);
    }
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use crate::models::{DualPeriodicEnvelope, PeriodicEnvelope};
    use crate::units::BitsPerSec;
    use std::sync::Arc;

    fn dual() -> SharedEnvelope {
        Arc::new(
            DualPeriodicEnvelope::new(
                Bits::new(300.0),
                Seconds::new(1.0),
                Bits::new(100.0),
                Seconds::new(0.25),
                BitsPerSec::new(1000.0),
            )
            .unwrap(),
        )
    }

    #[test]
    fn matches_inner_at_and_between_samples() {
        let inner = dual();
        let s = Sampled::flatten(Arc::clone(&inner), Seconds::new(2.0), 2);
        assert!(!s.is_empty());
        assert!(s.len() > 10);
        for k in 0..400 {
            let i = Seconds::new(k as f64 * 0.005);
            let (a, b) = (s.arrivals(i).value(), inner.arrivals(i).value());
            // The dual-periodic envelope is PWL with corners in the
            // candidate set, so interpolation is exact.
            assert!((a - b).abs() < 1e-6, "mismatch at {i}: {a} vs {b}");
        }
    }

    #[test]
    fn falls_through_beyond_horizon() {
        let inner = dual();
        let s = Sampled::flatten(Arc::clone(&inner), Seconds::new(1.0), 0);
        let far = Seconds::new(5.3);
        assert_eq!(s.arrivals(far), inner.arrivals(far));
    }

    #[test]
    fn metadata_passthrough() {
        let inner = dual();
        let s = Sampled::flatten(Arc::clone(&inner), Seconds::new(1.0), 0);
        assert_eq!(s.sustained_rate(), inner.sustained_rate());
        assert_eq!(s.peak_rate(), inner.peak_rate());
        assert_eq!(s.period_hint(), inner.period_hint());
    }

    #[test]
    fn breakpoints_within_horizon_are_samples() {
        let inner: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(0.5), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let s = Sampled::flatten(inner, Seconds::new(1.0), 0);
        let mut pts = Vec::new();
        s.breakpoints(Seconds::new(0.8), &mut pts);
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|p| p.value() > 0.0 && p.value() <= 0.8));
    }

    #[test]
    fn monotone_lookup() {
        let s = Sampled::flatten(dual(), Seconds::new(2.0), 3);
        let mut prev = Bits::ZERO;
        for k in 0..500 {
            let v = s.arrivals(Seconds::new(k as f64 * 0.004));
            assert!(v >= prev - Bits::new(1e-9));
            prev = v;
        }
    }
}
