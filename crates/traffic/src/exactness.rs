//! Exactness tests for the envelope kernels' shortcuts.
//!
//! The kernels skip work that cannot change their results: bisections
//! stop once converged, `RateCapped` enumerates its inner envelope once,
//! keeps its last breakpoint list, and decides the midpoints of its
//! crossing searches that a nondecreasing inner envelope's bracket values
//! already decide, and `Sampled` inverts itself in closed form where
//! its guards prove that exact, with bracketed table searches where
//! they do not, and the Theorem-1.4 output envelope scans only the
//! maximizer candidates no other candidate dominates. Sorted batches are
//! evaluated with one call per layer (`arrivals_sorted`). The busy
//! search settles timed-token iterations from two probes per rotation
//! instead of its grid, and the Theorem-1.2/1.3 maximization skips the
//! quantum levels the grid proves cannot raise its maxima. Each test pins
//! one shortcut, bit for bit, against the straightforward code it
//! replaced, kept here as the reference.

use crate::analysis::{
    analyze_guaranteed_server, busy_maxima, grow, last_violation, step_window_iteration,
    undominated, AnalysisConfig, Iteration, ServerOutput, DOMINANCE_MARGIN,
};
use crate::approx;
use crate::combinators::{
    seek, Aggregate, Delayed, Padded, Quantized, RateCapped, Sampled, Scaled, CONVERGED_SHARE,
    KNOT_MARGIN, MAX_ULP_WALK,
};
use crate::envelope::{
    bisect, candidate_times, Envelope, EnvelopeDescriptor, SharedEnvelope, SUBADDITIVE_ARG_TOL,
};
use crate::models::{
    ConstantRateEnvelope, DualPeriodicEnvelope, LeakyBucketEnvelope, PeriodicEnvelope,
    PiecewiseLinearEnvelope,
};
use crate::service::{RateLatencyService, ServiceCurve, StaircaseService};
use crate::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The fixed-count bisection: every one of `steps` halvings evaluated.
fn bisect_reference(mut lo: f64, mut hi: f64, steps: u32, to_hi: impl Fn(f64) -> bool) -> f64 {
    for _ in 0..steps {
        let mid = 0.5 * (lo + hi);
        if to_hi(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// `min_interval_for` with the fixed 80-step bisection.
fn min_interval_reference(env: &dyn Envelope, bits: Bits, max_horizon: Seconds) -> Option<u64> {
    if bits.value() <= 0.0 || approx::approx_le(bits.value(), env.burst().value()) {
        return Some(0.0_f64.to_bits());
    }
    if env.arrivals(max_horizon) < bits {
        return None;
    }
    let t = bisect_reference(0.0, max_horizon.value(), 80, |mid| {
        env.arrivals(Seconds::new(mid)) >= bits
    });
    Some(t.to_bits())
}

/// The crossing search of `RateCapped` as it was: `pts` asked for a
/// second time, every window's sides re-evaluated, every one of 60
/// halvings evaluated.
fn switch_points_reference(
    mut pts: Vec<Seconds>,
    horizon: Seconds,
    side: impl Fn(Seconds) -> bool,
    out: &mut Vec<Seconds>,
) {
    pts.push(Seconds::ZERO);
    pts.push(horizon);
    pts.sort_by(|a, b| a.total_cmp(b));
    for w in pts.windows(2) {
        if side(w[0]) != side(w[1]) {
            let hi = bisect_reference(w[0].value(), w[1].value(), 60, |mid| {
                side(Seconds::new(mid)) != side(w[0])
            });
            out.push(Seconds::new(hi));
        }
    }
}

/// `RateCapped::breakpoints` as it was: the inner envelope enumerated
/// twice.
fn rate_capped_reference(inner: &dyn Envelope, cap: BitsPerSec, horizon: Seconds) -> Vec<u64> {
    let mut out = Vec::new();
    inner.breakpoints(horizon, &mut out);
    let mut pts = Vec::new();
    inner.breakpoints(horizon, &mut pts);
    switch_points_reference(pts, horizon, |i| inner.arrivals(i) > cap * i, &mut out);
    bits_of(&out)
}

/// `Quantized::breakpoints` as it was: the inner envelope's corners,
/// then every level inverted by the fixed 80-step bisection.
fn quantized_reference(inner: &dyn Envelope, unit_in: Bits, horizon: Seconds) -> Vec<u64> {
    let mut out = Vec::new();
    inner.breakpoints(horizon, &mut out);
    let mut pts = bits_of(&out);
    let n_units = (inner.arrivals(horizon).value() / unit_in.value()).ceil() as u64;
    for k in 1..=n_units.min(8192) {
        if let Some(t) = min_interval_reference(inner, unit_in * k as f64, horizon) {
            let t = f64::from_bits(t);
            if t > 0.0 && t <= horizon.value() {
                pts.push(t.to_bits());
            }
        }
    }
    pts
}

fn bits_of(pts: &[Seconds]) -> Vec<u64> {
    pts.iter().map(|p| p.value().to_bits()).collect()
}

fn breakpoint_bits(env: &dyn Envelope, horizon: Seconds) -> Vec<u64> {
    let mut out = Vec::new();
    env.breakpoints(horizon, &mut out);
    bits_of(&out)
}

/// A pure but erratic predicate: the early exits must not rely on
/// monotonicity, only on the predicate being a function.
fn scrambled(x: f64, salt: u64) -> bool {
    let mut z = x.to_bits() ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 1 == 1
}

/// A dual-periodic source drawn from three unit-interval parameters.
fn dual(a: f64, b: f64, c: f64) -> SharedEnvelope {
    let p2 = Seconds::from_millis(1.0 + 19.0 * a);
    let k = 1.0 + (b * 7.0).floor();
    let c2 = 1.0e3 + 1.0e5 * c;
    let peak = BitsPerSec::new(c2 / p2.value() * (1.1 + 2.9 * b));
    let c1 = c2 * (1.0 + a * (k - 1.0));
    Arc::new(
        DualPeriodicEnvelope::new(Bits::new(c1), p2 * k, Bits::new(c2), p2, peak)
            .expect("valid parameters"),
    )
}

/// One multiplexer hop as `SchedulerAnalysis::flow_output` builds it:
/// the flow delayed by the port's bound, capped at the link rate.
fn hop(flow: SharedEnvelope, delay: f64, cap: f64) -> SharedEnvelope {
    Arc::new(RateCapped::new(
        Arc::new(Delayed::new(flow, Seconds::new(delay))),
        BitsPerSec::new(cap),
    ))
}

/// A random monotone envelope: a leaky bucket, a dual-periodic source,
/// a very fast constant rate (crossings far below 1e-8 s), or a
/// dual-periodic source behind one or two multiplexer hops.
fn monotone_envelope(kind: usize, a: f64, b: f64, c: f64) -> SharedEnvelope {
    match kind {
        0 => Arc::new(
            LeakyBucketEnvelope::new(Bits::new(1.0e4 * a), BitsPerSec::new(1.0 + 1.0e8 * b))
                .expect("valid parameters"),
        ),
        1 => dual(a, b, c),
        2 => Arc::new(ConstantRateEnvelope::new(BitsPerSec::new(
            1.0e6 * 10f64.powf(6.0 * c),
        ))),
        3 => hop(dual(a, b, c), 0.05 * a, 1.0e5 + 1.0e8 * b),
        _ => hop(
            hop(dual(a, b, c), 0.02 * c, 1.0e6 + 1.0e8 * a),
            0.05 * a,
            1.0e5 + 1.0e8 * b,
        ),
    }
}

/// A level to invert: exactly the burst, a hair above it, a random
/// share of `A(horizon)`, one reached within nanoseconds, or one beyond
/// the horizon.
fn level_for(env: &dyn Envelope, sel: usize, frac: f64, horizon: Seconds) -> Bits {
    let burst = env.burst().value();
    let top = env.arrivals(horizon).value();
    Bits::new(match sel {
        0 => burst,
        1 => burst * (1.0 + 1.0e-6) + 1.0e-9,
        2 => burst + frac * (top - burst),
        3 => env
            .arrivals(Seconds::new(1.0e-9 * (1.0 + frac)))
            .value()
            .max(1.0e-300),
        _ => top * (1.0 + frac) + 1.0,
    })
}

/// The piecewise-linear function through `(ts, vals)`, constant past the
/// last knot. It need not be monotone (breaking the envelope contract on
/// purpose): flattened, it yields `Sampled` tables of any shape.
#[derive(Debug)]
struct Knots {
    ts: Vec<f64>,
    vals: Vec<f64>,
}

impl Knots {
    /// Knots at the running sums of `gaps` from 0, starting at `base` and
    /// moving by `steps` (zero for a plateau, negative for a dip).
    fn shared(base: f64, gaps: &[f64], steps: &[f64]) -> SharedEnvelope {
        let (mut ts, mut vals) = (vec![0.0], vec![base]);
        for (g, d) in gaps.iter().zip(steps) {
            ts.push(ts.last().expect("non-empty") + g);
            vals.push(vals.last().expect("non-empty") + d);
        }
        Arc::new(Self { ts, vals })
    }
}

impl Envelope for Knots {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.value();
        let k = self.ts.partition_point(|&t| t <= i);
        Bits::new(if k == 0 {
            self.vals[0]
        } else if k == self.ts.len() {
            self.vals[k - 1]
        } else {
            let (t0, t1, v0, v1) = (self.ts[k - 1], self.ts[k], self.vals[k - 1], self.vals[k]);
            v0 + (i - t0) / (t1 - t0) * (v1 - v0)
        })
    }
    fn sustained_rate(&self) -> BitsPerSec {
        BitsPerSec::ZERO
    }
    fn peak_rate(&self) -> BitsPerSec {
        BitsPerSec::new(f64::MAX)
    }
    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        let h = horizon.value();
        out.extend(
            self.ts
                .iter()
                .filter(|&&t| t > 0.0 && t <= h)
                .map(|&t| Seconds::new(t)),
        );
    }
}

/// `s.min_interval` and the fixed-count reference, as bits, asserted
/// equal; returns whether the closed form answered.
fn assert_inversion_exact(s: &Sampled, level: f64, max_horizon: f64) -> bool {
    let (level, h) = (Bits::new(level), Seconds::new(max_horizon));
    assert_eq!(
        s.min_interval(level, h).map(|t| t.value().to_bits()),
        min_interval_reference(s, level, h),
        "level {level:?} within {max_horizon}"
    );
    s.crossing(level.value(), max_horizon).is_some()
}

/// The table sample at knot time `t` (flattening keeps the knots).
fn sample_at(s: &Sampled, t: f64) -> f64 {
    let (ts, vals) = s.samples();
    vals[ts.iter().position(|&x| x == t).expect("knot sampled")]
}

#[test]
fn non_monotone_tables_take_the_bisection() {
    let gaps = [0.1, 0.1, 0.1, 0.1];
    let rising = Sampled::flatten(
        Knots::shared(0.0, &gaps, &[1.0e3, 1.0e3, 1.0e3, 1.0e3]),
        Seconds::new(0.5),
        1,
    );
    // The same table with a dip well past the crossing.
    let dipping = Sampled::flatten(
        Knots::shared(0.0, &gaps, &[1.0e3, 1.0e3, -5.0e2, 1.0e3]),
        Seconds::new(0.5),
        1,
    );
    for level in [250.0, 1_500.0] {
        assert!(assert_inversion_exact(&rising, level, 0.5));
        assert!(!assert_inversion_exact(&dipping, level, 0.5));
    }
}

#[test]
fn knot_margin_guard_holds_on_both_sides() {
    let s = Sampled::flatten(
        Knots::shared(0.0, &[0.1, 0.1, 0.1], &[1.0e3, 1.0e3, 1.0e3]),
        Seconds::new(0.4),
        0,
    );
    let v = sample_at(&s, 0.1);
    let edge = v * (1.0 + KNOT_MARGIN);
    // At the margin the sample below the level counts as reaching it…
    assert!(!assert_inversion_exact(&s, edge, 0.4));
    // …one ulp above it the level lies inside the next segment.
    assert!(assert_inversion_exact(&s, edge.next_up(), 0.4));
    // A level equal to a sample is that sample's segment's end.
    assert!(assert_inversion_exact(&s, v, 0.4));
}

#[test]
fn horizon_guard_holds_on_both_sides() {
    let s = Sampled::flatten(
        Knots::shared(0.0, &[0.1, 0.1, 0.1], &[1.0e3, 1.0e3, 1.0e3]),
        Seconds::new(0.25),
        1,
    );
    assert!(assert_inversion_exact(&s, 1_500.0, 0.25));
    // One ulp past the table, queries may fall through to the inner
    // envelope.
    assert!(!assert_inversion_exact(&s, 1_500.0, 0.25_f64.next_up()));
}

#[test]
fn convergence_guard_holds_on_both_sides() {
    // A steep first segment: the crossing of a micro-bit sits near
    // 2e-15 s.
    let s = Sampled::flatten(
        Knots::shared(0.0, &[1.0e-7, 0.5], &[50.0, 50.0]),
        Seconds::new(0.6),
        0,
    );
    let level = 1.0e-6;
    let at = s.crossing(level, 1.0e-9).expect("converges within 1 ns");
    // At the edge the crossing is a dyadic midpoint of the bracket; one
    // ulp below it, it is not, and the halvings must still converge.
    let edge = at / CONVERGED_SHARE;
    assert!(edge < 0.6);
    assert!(assert_inversion_exact(&s, level, edge.next_down()));
    assert!(assert_inversion_exact(&s, level, edge));
    assert!(!assert_inversion_exact(&s, level, edge.next_up()));
    // Far below the share, 80 halvings stop short of the crossing: the
    // bisection's answer is not the smallest reaching float, and the
    // inversion must return the bisection's.
    let wide = at * 2.0_f64.powi(45) * 1.37;
    assert!(wide < 0.6);
    assert!(!assert_inversion_exact(&s, level, wide));
    let bisected = min_interval_reference(&s, Bits::new(level), Seconds::new(wide));
    assert_ne!(bisected, Some(at.to_bits()));
}

#[test]
fn walk_bound_holds_on_both_sides() {
    // Nearly flat segments high above zero: one ulp of the value spans
    // tens to hundreds of ulps of the interval, so the first reaching
    // float sits that far from the solved crossing.
    let (mut near, mut far) = (0, 0);
    for slope in [4.0e3, 8.0e3, 1.6e4, 3.2e4, 6.4e4] {
        let s = Sampled::flatten(
            Knots::shared(1.0e6, &[0.3, 0.1, 0.1], &[0.0, slope * 0.1, 0.0]),
            Seconds::new(0.5),
            0,
        );
        let (ts, vals) = s.samples();
        let b = ts.iter().position(|&t| t > 0.35).expect("segment end");
        let (t0, t1, v0, v1) = (ts[b - 1], ts[b], vals[b - 1], vals[b]);
        for k in 1..40 {
            let level = v0 + (v1 - v0) * k as f64 / 40.0;
            let exact = assert_inversion_exact(&s, level, 0.5);
            let want =
                min_interval_reference(&s, Bits::new(level), Seconds::new(0.5)).expect("reachable");
            // The estimate `crossing` starts its walk from.
            let estimate = (t0 + (level - v0) / (v1 - v0) * (t1 - t0)).clamp(t0.next_up(), t1);
            let ulps = want.abs_diff(estimate.to_bits());
            assert_eq!(exact, ulps <= MAX_ULP_WALK as u64, "{ulps} ulps");
            if exact {
                near += usize::from(ulps > MAX_ULP_WALK as u64 / 2);
            } else {
                far += usize::from(ulps <= 2 * MAX_ULP_WALK as u64);
            }
        }
    }
    assert!(
        near > 0 && far > 0,
        "walks near the bound: {near} in, {far} out"
    );
}

#[test]
fn bisect_stops_once_converged_and_not_before() {
    let mut calls = 0;
    let t = bisect(0.0, 0.6, 80, false, |x| {
        calls += 1;
        x >= 0.1
    });
    assert_eq!(
        t.to_bits(),
        bisect_reference(0.0, 0.6, 80, |x| x >= 0.1).to_bits()
    );
    assert!(
        calls < 60,
        "a crossing at 0.1 s converges in {calls} halvings"
    );
    // A crossing at 1e-12 s of a 60 s bracket: 80 halvings never reach
    // adjacent floats, so every one of them runs.
    let mut calls = 0;
    bisect(0.0, 60.0, 80, false, |x| {
        calls += 1;
        x >= 1.0e-12
    });
    assert_eq!(calls, 80);
}

/// Counts how often it is asked for its breakpoints, for single values,
/// for batches of them and for inversions.
#[derive(Debug)]
struct Counting {
    inner: SharedEnvelope,
    breakpoint_calls: AtomicUsize,
    arrival_calls: AtomicUsize,
    batch_calls: AtomicUsize,
    inversion_calls: AtomicUsize,
}

impl Envelope for Counting {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.arrival_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.arrivals(interval)
    }
    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.arrivals_sorted(ts, out);
    }
    fn is_subadditive(&self) -> bool {
        self.inner.is_subadditive()
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
        self.breakpoint_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.breakpoints(horizon, out);
    }
    fn min_interval(&self, bits: Bits, max_horizon: Seconds) -> Option<Seconds> {
        self.inversion_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.min_interval(bits, max_horizon)
    }
    fn is_nondecreasing(&self, horizon: Seconds) -> bool {
        self.inner.is_nondecreasing(horizon)
    }
}

fn counting(inner: SharedEnvelope) -> Arc<Counting> {
    Arc::new(Counting {
        inner,
        breakpoint_calls: AtomicUsize::new(0),
        arrival_calls: AtomicUsize::new(0),
        batch_calls: AtomicUsize::new(0),
        inversion_calls: AtomicUsize::new(0),
    })
}

/// A chain of three multiplexer hops reaches its root once per new
/// horizon: each hop enumerates the one below once, and keeps its list,
/// so a repeated horizon reaches nothing below the top hop. A clone of
/// the top hop starts without its list (the counter under it sees the
/// clone's first call), while the hops below it keep theirs, and the
/// list is invisible to `Debug` and `describe`.
#[test]
fn three_hop_chain_enumerates_its_root_once() {
    let root = counting(dual(0.3, 0.6, 0.2));
    let mut chain: SharedEnvelope = root.clone();
    for (delay, cap) in [(0.004, 1.55e8), (0.002, 1.55e8)] {
        chain = hop(chain, delay, cap);
    }
    let below_top = counting(Arc::new(Delayed::new(chain, Seconds::new(0.003))));
    let top = RateCapped::new(below_top.clone(), BitsPerSec::new(1.55e8));
    let calls = |env: &RateCapped, h: f64| {
        let mut out = Vec::new();
        env.breakpoints(Seconds::new(h), &mut out);
        assert!(!out.is_empty());
        (
            root.breakpoint_calls.load(Ordering::Relaxed),
            below_top.breakpoint_calls.load(Ordering::Relaxed),
        )
    };
    assert_eq!(
        calls(&top, 0.6),
        (1, 1),
        "the root was enumerated once per path through the chain, not once"
    );
    assert_eq!(calls(&top, 0.6), (1, 1), "a repeated horizon");
    assert_eq!(calls(&top, 0.5), (2, 2), "a new horizon");
    assert_eq!(calls(&top, 0.5), (2, 2), "the new horizon repeated");
    let clone = top.clone();
    assert_eq!(calls(&clone, 0.5), (2, 3), "a clone's first call");
    assert_eq!(calls(&clone, 0.5), (2, 3), "a clone's repeated horizon");
    assert_eq!(calls(&top, 0.5), (2, 3), "the original after its clone");
    let capped = RateCapped::new(
        hop(dual(0.3, 0.6, 0.2), 0.004, 1.55e8),
        BitsPerSec::new(1.5e8),
    );
    let rendered = format!("{capped:?}");
    capped.breakpoints(Seconds::new(0.6), &mut Vec::new());
    for env in [&capped, &capped.clone()] {
        assert_eq!(format!("{env:?}"), rendered);
        assert_eq!(
            env.describe(),
            EnvelopeDescriptor::Opaque {
                detail: rendered.clone()
            }
        );
    }
    assert!(!rendered.contains("memo"), "{rendered}");
}

/// Answers every inversion with a sentinel, to see the hook reached
/// through the blanket impls.
#[derive(Debug)]
struct Sentinel;

impl Envelope for Sentinel {
    fn arrivals(&self, _: Seconds) -> Bits {
        Bits::ZERO
    }
    fn sustained_rate(&self) -> BitsPerSec {
        BitsPerSec::ZERO
    }
    fn peak_rate(&self) -> BitsPerSec {
        BitsPerSec::ZERO
    }
    fn breakpoints(&self, _: Seconds, _: &mut Vec<Seconds>) {}
    fn min_interval(&self, _: Bits, _: Seconds) -> Option<Seconds> {
        Some(Seconds::new(42.0))
    }
    fn is_subadditive(&self) -> bool {
        true
    }
}

#[test]
fn blanket_impls_forward_min_interval() {
    let shared: SharedEnvelope = Arc::new(Sentinel);
    let by_ref: &dyn Envelope = &shared;
    let want = Some(Seconds::new(42.0));
    assert_eq!(shared.min_interval(Bits::new(1.0), Seconds::new(1.0)), want);
    assert_eq!(by_ref.min_interval(Bits::new(1.0), Seconds::new(1.0)), want);
    assert_eq!(
        (&&Sentinel).min_interval(Bits::new(1.0), Seconds::new(1.0)),
        want
    );
}

#[test]
fn blanket_impls_forward_is_subadditive() {
    let shared: SharedEnvelope = Arc::new(Sentinel);
    let by_ref: &dyn Envelope = &shared;
    assert!(shared.is_subadditive());
    assert!(by_ref.is_subadditive());
    assert!((&&Sentinel).is_subadditive());
    assert!(!Knots::shared(0.0, &[1.0], &[1.0]).is_subadditive());
}

/// A random source the Theorem-1.4 pruning may take: dual-periodic,
/// periodic (at `b < 0.3` saturated, `C = R·P`, so `floor_div`'s nudge
/// moves its values), or a leaky bucket with or without a peak cap.
fn subadditive_source(kind: usize, a: f64, b: f64, c: f64) -> SharedEnvelope {
    let p = Seconds::from_millis(1.0 + 19.0 * a);
    let bits = Bits::new(1.0e3 + 1.0e5 * c);
    // The smallest float rate emitting `bits` within `p`.
    let mut rate = bits / p;
    while rate * p < bits {
        rate = BitsPerSec::new(rate.value().next_up());
    }
    let peak = if b < 0.3 {
        rate
    } else {
        rate * (1.1 + 2.9 * b)
    };
    match kind {
        0 => dual(a, b, c),
        1 => Arc::new(PeriodicEnvelope::new(bits, p, peak).expect("valid parameters")),
        2 => Arc::new(
            LeakyBucketEnvelope::new(bits, bits / p * 0.5)
                .expect("valid parameters")
                .with_peak(peak * 2.0)
                .expect("valid parameters"),
        ),
        _ => Arc::new(LeakyBucketEnvelope::new(bits, bits / p * 0.5).expect("valid parameters")),
    }
}

/// Hides the wrapped envelope's subadditivity and monotonicity flags,
/// and nothing else: a `ServerOutput` over it scans every candidate, as
/// before pruning, and a `RateCapped` over it evaluates every midpoint
/// of its crossing searches, as before the band.
#[derive(Debug)]
struct Unflagged(SharedEnvelope);

impl Envelope for Unflagged {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.0.arrivals(interval)
    }
    fn sustained_rate(&self) -> BitsPerSec {
        self.0.sustained_rate()
    }
    fn peak_rate(&self) -> BitsPerSec {
        self.0.peak_rate()
    }
    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        self.0.breakpoints(horizon, out);
    }
    fn period_hint(&self) -> Option<Seconds> {
        self.0.period_hint()
    }
}

/// The output of `source` through `service`, pruned, and the same
/// without pruning; `None` if the server is unstable or never drains.
fn outputs(
    source: &SharedEnvelope,
    service: Arc<dyn ServiceCurve>,
    cfg: &AnalysisConfig,
) -> Option<(ServerOutput, ServerOutput)> {
    let busy = analyze_guaranteed_server(source, &*service, cfg)
        .ok()?
        .busy_interval;
    let cap = Some(source.peak_rate().min(BitsPerSec::new(1.0e9)));
    let pruned = ServerOutput::new(Arc::clone(source), Arc::clone(&service), busy, cap, cfg);
    let unflagged: SharedEnvelope = Arc::new(Unflagged(Arc::clone(source)));
    let full = ServerOutput::new(unflagged, service, busy, cap, cfg);
    Some((pruned, full))
}

/// The paper-style 4 ms token rotation, granting `share` of it to the
/// source; most draws are stable.
fn staircase_for(source: &dyn Envelope, share: f64) -> Arc<dyn ServiceCurve> {
    let ttrt = Seconds::from_millis(4.0);
    let quantum = source.sustained_rate() * ttrt * (1.05 + 3.0 * share);
    Arc::new(StaircaseService::timed_token(ttrt, quantum))
}

/// The Theorem-1.4 maximum over `candidates` at `i`, as
/// `ServerOutput::arrivals` takes it (uncapped).
fn max_over(arrival: &dyn Envelope, candidates: &[(Seconds, Bits)], i: f64) -> f64 {
    let i = Seconds::new(i);
    let best = candidates.iter().fold(0.0_f64, |best, &(t, served)| {
        best.max((arrival.arrivals(t + i) - served).value())
    });
    best.max(0.0)
}

#[test]
fn non_subadditive_arrivals_keep_every_candidate() {
    // `Knots` rising from 0 to 1000 bits across `[0.9, 1.0]`, with
    // service steps of 5 bits every 0.25 s: candidates `0`, `0.25⁻`,
    // `0.5⁻` (5 bits served) and `B = 0.6` (10 bits).
    let knots = Knots::shared(0.0, &[0.9, 0.1], &[0.0, 1000.0]);
    let service = Arc::new(StaircaseService::new(Seconds::new(0.25), Bits::new(5.0), 1));
    let cfg = AnalysisConfig::default();
    let out = ServerOutput::new(Arc::clone(&knots), service, Seconds::new(0.6), None, &cfg);
    assert_eq!(out.candidate_counts(), (4, 4));
    // The dominance test alone would drop `0.5⁻` and `B`: over
    // `d ≤ 0.6` the envelope delivers nothing. Yet at `I = 0.45`, `B`'s
    // term is the maximum, `A(1.05) − 10 = 990`.
    let span = Seconds::new(0.6) + out.exact_to;
    let kept: Vec<_> = undominated(&knots, &out.t_candidates, span)
        .into_iter()
        .map(|k| out.t_candidates[k])
        .collect();
    assert_eq!(kept.len(), 2);
    assert_eq!(out.arrivals(Seconds::new(0.45)).value(), 990.0);
    assert_eq!(max_over(&knots, &kept, 0.45), 0.0);
}

#[test]
fn dual_periodic_flag_holds_on_both_sides_of_its_condition() {
    let peak = BitsPerSec::new(10.0);
    // `C2 = P2` bits at 10 b/s.
    let model = |c1: f64, p1: f64, p2: f64| {
        DualPeriodicEnvelope::new(
            Bits::new(c1),
            Seconds::new(p1),
            Bits::new(p2),
            Seconds::new(p2),
            peak,
        )
        .expect("valid parameters")
    };
    // `C1 > ⌊P1/P2⌋·C2`, reachable through the 0.15 s tail: not
    // subadditive, as `A(1.2) = 2.5 > 2·A(0.6)` shows.
    let tail = model(2.0, 1.15, 1.0);
    assert!(!tail.is_subadditive());
    let at = |x: f64| tail.arrivals(Seconds::new(x)).value();
    assert!(at(1.2) > 2.0 * at(0.6));
    assert!(model(1.0, 1.15, 1.0).is_subadditive());
    // `0.001 / (0.001 / 7)` rounds to 7, yet the real quotient of the two
    // floats is below it: `⌊P1/P2⌋` is 6, so `C1 = 7·C2` is refused and
    // `6·C2` taken.
    let p2 = 0.001 / 7.0;
    assert_eq!(0.001 / p2, 7.0);
    assert!(!model(7.0 * p2, 0.001, p2).is_subadditive());
    assert!(model(6.0 * p2, 0.001, p2).is_subadditive());
}

#[test]
fn dominance_margin_holds_on_both_sides() {
    let source = LeakyBucketEnvelope::new(Bits::new(1.0e4), BitsPerSec::new(1.0e6))
        .expect("valid parameters");
    let span = Seconds::new(2.0);
    let delta = SUBADDITIVE_ARG_TOL * 2.0 * span.value();
    let d = 0.01;
    let a = source.arrivals(Seconds::new(d + 4.0 * delta)).value();
    let top = source.arrivals(span + Seconds::new(3.0 * delta)).value();
    let keeps = |slack: f64| {
        let served = a + slack * DOMINANCE_MARGIN * (top + 2.0 * a);
        let cands = [
            (Seconds::ZERO, Bits::ZERO),
            (Seconds::new(d), Bits::new(served)),
        ];
        undominated(&source, &cands, span).len()
    };
    assert_eq!(keeps(2.0), 1, "a gap of twice the margin is dropped");
    assert_eq!(keeps(0.5), 2, "a gap of half the margin is kept");
    // Only an earlier candidate dominates.
    let late_first = [
        (Seconds::new(d), Bits::new(a + 1.0e3)),
        (Seconds::ZERO, Bits::ZERO),
    ];
    assert_eq!(undominated(&source, &late_first, span).len(), 2);
}

#[test]
fn pruned_scan_stops_at_exact_to() {
    let source = counting(dual(0.4, 0.7, 0.3));
    let service = staircase_for(&*source, 0.2);
    let cfg = AnalysisConfig {
        max_horizon: Seconds::new(1.0),
        ..AnalysisConfig::default()
    };
    let as_shared: SharedEnvelope = source.clone();
    let (pruned, full) = outputs(&as_shared, service, &cfg).expect("stable");
    let (kept, total) = pruned.candidate_counts();
    assert!(kept < total, "{kept} of {total} kept");
    let edge = pruned.exact_to;
    for (i, scanned) in [(edge, kept), (Seconds::new(edge.value().next_up()), total)] {
        source.arrival_calls.store(0, Ordering::Relaxed);
        let got = pruned.arrivals(i);
        assert_eq!(source.arrival_calls.load(Ordering::Relaxed), scanned);
        assert_eq!(got.value().to_bits(), full.arrivals(i).value().to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The early exits return the bits of the fixed-count loop, for
    /// crossings anywhere from 1e-14 of the bracket (where 80 halvings
    /// never converge) to its top, for a tested and an untested lower
    /// end, and for erratic predicates.
    #[test]
    fn bisect_early_exit_matches_fixed_count(
        exp in -14.0_f64..0.0,
        hi in 1.0e-3_f64..60.0,
        lo_share in 0.0_f64..1.0,
        salt in 0_u64..u64::MAX,
        steps_sel in 0_usize..2,
        erratic in 0_usize..2,
    ) {
        let steps = if steps_sel == 0 { 60 } else { 80 };
        let thr = hi * 10f64.powf(exp);
        let to_hi = |x: f64| if erratic == 1 { scrambled(x, salt) } else { x >= thr };
        // Untested lower end at 0, as in an envelope inversion.
        prop_assert_eq!(
            bisect(0.0, hi, steps, false, to_hi).to_bits(),
            bisect_reference(0.0, hi, steps, to_hi).to_bits()
        );
        // A lower end the predicate already sent low.
        let lo = lo_share * thr.min(hi);
        if !to_hi(lo) {
            prop_assert_eq!(
                bisect(lo, hi, steps, true, to_hi).to_bits(),
                bisect_reference(lo, hi, steps, to_hi).to_bits()
            );
        }
    }

    /// The default `min_interval` (the early-exit inversion) matches the
    /// fixed 80-step reference bit for bit.
    #[test]
    fn min_interval_matches_fixed_count_reference(
        kind in 0_usize..5,
        a in 0.0_f64..1.0,
        b in 0.0_f64..1.0,
        c in 0.0_f64..1.0,
        sel in 0_usize..5,
        frac in 0.0_f64..1.0,
        horizon in 1.0e-3_f64..2.0,
    ) {
        let env = monotone_envelope(kind, a, b, c);
        let h = Seconds::new(horizon);
        let level = level_for(&*env, sel, frac, h);
        prop_assert_eq!(
            env.min_interval(level, h).map(|t| t.value().to_bits()),
            min_interval_reference(&*env, level, h)
        );
    }

    /// `Sampled`'s bracketed-search inversion matches the fixed 80-step
    /// bisection over its own `arrivals`, inside the flattened range and
    /// past it, where lookups fall through to the inner envelope.
    #[test]
    fn sampled_min_interval_matches_fixed_count_reference(
        kind in 0_usize..5,
        a in 0.0_f64..1.0,
        b in 0.0_f64..1.0,
        c in 0.0_f64..1.0,
        sel in 0_usize..5,
        frac in 0.0_f64..1.0,
        flat_horizon in 0.05_f64..1.0,
        horizon in 1.0e-3_f64..2.0,
        subdivisions in 0_usize..3,
    ) {
        let env = monotone_envelope(kind, a, b, c);
        let s = Sampled::flatten(env, Seconds::new(flat_horizon), subdivisions);
        let h = Seconds::new(horizon);
        let level = level_for(&s, sel, frac, h);
        prop_assert_eq!(
            s.min_interval(level, h).map(|t| t.value().to_bits()),
            min_interval_reference(&s, level, h)
        );
    }

    /// The closed-form `Sampled` inversion matches the fixed 80-step
    /// bisection on tables with plateaus and dips, for levels at a
    /// sample, within ±4 ulps of one, inside the first gap, at the
    /// search horizon, and anywhere between, with the search horizon
    /// inside the table and past it. Non-monotone tables never take
    /// the closed form.
    #[test]
    fn sampled_closed_form_matches_fixed_count_reference(
        base in 0.0_f64..1.0e4,
        gaps in proptest::collection::vec(1.0e-4_f64..0.2, 1..10),
        // One step per gap; the surplus is ignored.
        steps in proptest::collection::vec((0_usize..4, 0.0_f64..1.0), 10..11),
        (dips, subdivisions) in (0_usize..2, 0_usize..3),
        (sel, pick, ulps, frac) in (0_usize..5, 0.0_f64..1.0, -4_i64..5, 0.0_f64..1.0),
        (flat_share, horizon_share) in (0.5_f64..1.2, 0.01_f64..1.5),
    ) {
        let steps: Vec<f64> = steps
            .iter()
            .map(|&(kind, x)| match kind {
                0 => 0.0,
                1 => 1.0e3 * x,
                2 => 1.0e6 * x,
                _ if dips == 1 => -1.0e5 * x,
                _ => 1.0e-3 * x,
            })
            .collect();
        let span: f64 = gaps.iter().sum();
        let knots = Knots::shared(base, &gaps, &steps);
        let s = Sampled::flatten(knots, Seconds::new(span * flat_share), subdivisions);
        let h = s.horizon() * horizon_share;
        let (ts, vals) = s.samples();
        // Mostly levels the search horizon reaches.
        let within = ts.partition_point(|&t| t <= h).max(1);
        let at = ((within - 1) as f64 * pick) as usize;
        let top = s.arrivals(Seconds::new(h)).value();
        let level = match sel {
            0 => vals[at],
            1 => f64::from_bits(vals[at].to_bits().saturating_add_signed(ulps)),
            2 => vals[0] + frac * (vals[1] - vals[0]),
            3 => top,
            _ => vals[0] + frac * (top - vals[0]),
        };
        let exact = assert_inversion_exact(&s, level, h);
        let monotone = vals.windows(2).all(|w| w[0] <= w[1]);
        prop_assert!(monotone || !exact, "a non-monotone table took the closed form");
    }

    /// `Quantized` over a flattened envelope — the shape of every
    /// stage-1 wire table — reports the jump points the per-level
    /// fixed-count bisection finds.
    #[test]
    fn quantized_over_sampled_matches_per_level_reference(
        kind in 0_usize..5,
        a in 0.0_f64..1.0,
        b in 0.0_f64..1.0,
        c in 0.0_f64..1.0,
        (units, flat_horizon, share) in (2.0_f64..400.0, 0.05_f64..1.0, 0.1_f64..1.2),
        subdivisions in 0_usize..3,
    ) {
        let flat = Arc::new(Sampled::flatten(
            monotone_envelope(kind, a, b, c),
            Seconds::new(flat_horizon),
            subdivisions,
        ));
        let h = Seconds::new(flat_horizon * share);
        let unit_in = Bits::new((flat.arrivals(h).value() / units).max(1.0e-3));
        let q = Quantized::new(Arc::clone(&flat) as SharedEnvelope, unit_in, unit_in * 1.1);
        prop_assert_eq!(breakpoint_bits(&q, h), quantized_reference(&*flat, unit_in, h));
    }

    /// One enumeration, shared side evaluations and early-exit
    /// crossings leave `RateCapped`'s breakpoint list element for
    /// element as the double-enumerating original had it.
    #[test]
    fn rate_capped_breakpoints_match_double_call_reference(
        kind in 0_usize..5,
        a in 0.0_f64..1.0,
        b in 0.0_f64..1.0,
        c in 0.0_f64..1.0,
        cap_share in 0.05_f64..2.0,
        horizon in 1.0e-3_f64..2.0,
    ) {
        let inner = monotone_envelope(kind, a, b, c);
        let h = Seconds::new(horizon);
        // Around the inner envelope's average rate over the horizon, so
        // the cap line crosses it.
        let cap = BitsPerSec::new((inner.arrivals(h).value() / horizon * cap_share).max(1.0));
        let capped = RateCapped::new(Arc::clone(&inner), cap);
        prop_assert_eq!(breakpoint_bits(&capped, h), rate_capped_reference(&*inner, cap, h));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Theorem-1.4 output over the kept candidates is the output
    /// over all of them, bit for bit: for dual-periodic, periodic and
    /// leaky-bucket sources under staircase and rate-latency service,
    /// at sample points of the flattened table, at random intervals on
    /// both sides of `exact_to`, and at `exact_to` and the float above.
    #[test]
    fn pruned_output_matches_unpruned(
        kind in 0_usize..4,
        a in 0.0_f64..1.0,
        b in 0.0_f64..1.0,
        c in 0.0_f64..1.0,
        staircase in proptest::bool::ANY,
        share in 0.0_f64..1.0,
        is in proptest::collection::vec(0.0_f64..2.2, 32..33),
    ) {
        let source = subadditive_source(kind, a, b, c);
        prop_assert!(source.is_subadditive() || kind == 0);
        let service: Arc<dyn ServiceCurve> = if staircase {
            staircase_for(&*source, share)
        } else {
            let rate = source.sustained_rate() * (1.2 + 3.0 * share);
            Arc::new(RateLatencyService::new(rate, Seconds::from_millis(1.0 + 9.0 * share)))
        };
        let cfg = AnalysisConfig {
            guard_subdivisions: 1,
            max_horizon: Seconds::new(0.5),
            ..AnalysisConfig::default()
        };
        let Some((pruned, full)) = outputs(&source, service, &cfg) else {
            return;
        };
        let edge = pruned.exact_to.value();
        let flat = Sampled::flatten(Arc::new(pruned.clone()), Seconds::new(0.6), 1);
        let points = flat.samples().0.iter().copied();
        for i in points.chain(is).chain([edge, edge.next_up()]) {
            let i = Seconds::new(i);
            prop_assert_eq!(
                pruned.arrivals(i).value().to_bits(),
                full.arrivals(i).value().to_bits(),
                "at I = {:?} ({:?} candidates kept)", i, pruned.candidate_counts()
            );
        }
    }
}

/// `env.arrivals_sorted(ts)` and per-point `arrivals`, as bits, asserted
/// equal; the batch must append behind what `out` already holds.
fn assert_batch_exact(env: &dyn Envelope, ts: &[f64], what: &str) {
    let mut got = vec![f64::NAN];
    env.arrivals_sorted(ts, &mut got);
    assert!(got[0].is_nan(), "{what}: the batch overwrote the buffer");
    let want: Vec<u64> = ts
        .iter()
        .map(|&t| env.arrivals(Seconds::new(t)).value().to_bits())
        .collect();
    let got: Vec<u64> = got[1..].iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "{what} at {ts:?}");
}

/// A nondecreasing batch of interval lengths on the scale of `span`:
/// `-0.0` and `0.0` (in either order, as a stable sort leaves equal
/// floats), negative lengths, lengths past `span`, points of `marks`
/// and the floats on either side of them, uniform draws, and a repeat
/// of every fourth point.
fn query_batch(picks: &[(usize, f64)], span: f64, marks: &[f64]) -> Vec<f64> {
    let mark = |x: f64| marks[(x * marks.len() as f64) as usize % marks.len()];
    let mut ts: Vec<f64> = picks
        .iter()
        .map(|&(kind, x)| match kind {
            0 => -0.0,
            1 => 0.0,
            2 => -x * span,
            3 => span * (1.0 + 2.0 * x),
            4 if !marks.is_empty() => mark(x),
            5 if !marks.is_empty() => mark(x).next_up(),
            6 if !marks.is_empty() => mark(x).next_down(),
            _ => x * span,
        })
        .collect();
    let repeats: Vec<f64> = ts.iter().copied().step_by(4).collect();
    ts.extend(repeats);
    ts.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    ts
}

/// A random leaf: one of `monotone_envelope`'s, a periodic source, a
/// concave piecewise-linear one, a non-monotone `Knots` function (its
/// flattened tables fail the `nondecreasing` check), an empty aggregate,
/// or an aggregate of parts that are all `-0.0` (both read the value
/// `f64`'s `Sum` starts from).
fn batch_leaf(kind: usize, a: f64, b: f64, c: f64) -> SharedEnvelope {
    match kind {
        0..=4 => monotone_envelope(kind, a, b, c),
        5 => {
            // At most one period's worth at the peak rate, as the model
            // requires.
            let (period, peak) = (
                Seconds::from_millis(1.0 + 19.0 * a),
                BitsPerSec::new(1.0e8 * (0.1 + b)),
            );
            let burst = Bits::new(1.0e3 + 1.0e5 * c).min(peak * period);
            Arc::new(PeriodicEnvelope::new(burst, period, peak).expect("valid parameters"))
        }
        6 => Arc::new(
            PiecewiseLinearEnvelope::new(
                vec![
                    (Seconds::ZERO, Bits::new(1.0e3 * a)),
                    (
                        Seconds::from_millis(5.0),
                        Bits::new(1.0e3 * a + 5.0e3 * (1.0 + b)),
                    ),
                    (
                        Seconds::from_millis(50.0),
                        Bits::new(1.0e3 * a + 5.0e3 * (1.0 + b) + 4.5e4),
                    ),
                ],
                BitsPerSec::new(1.0e6 * c),
            )
            .expect("concave"),
        ),
        7 => Knots::shared(
            1.0e3 * a,
            &[0.05, 0.1 * b + 1.0e-3, 0.2, 0.1],
            &[1.0e4, -5.0e3 * c, 0.0, 2.0e4],
        ),
        8 => Arc::new(Aggregate::default()),
        _ => Arc::new(Aggregate::new(vec![
            Knots::shared(-0.0, &[], &[]),
            Knots::shared(-0.0, &[], &[]),
        ])),
    }
}

/// `env` behind the layer `code` selects, with parameters from `x`, and
/// the points worth querying that layer at: its table samples, or its
/// `exact_to` and the float above it.
fn batch_layer(env: SharedEnvelope, code: usize, x: f64) -> (SharedEnvelope, Vec<f64>) {
    let rate = env.arrivals(Seconds::new(1.0)).value().max(1.0);
    let layer: SharedEnvelope = match code {
        0 => Arc::new(Delayed::new(env, Seconds::new(0.05 * x))),
        1 => Arc::new(RateCapped::new(
            env,
            BitsPerSec::new(rate * (0.2 + 2.0 * x)),
        )),
        2 => Arc::new(Scaled::new(env, 0.5 + x)),
        3 => Arc::new(Quantized::new(
            env,
            Bits::new(rate * (0.02 + 0.2 * x)),
            Bits::new(rate * 0.05),
        )),
        4 => Arc::new(Padded::new(env, Bits::new(1.0e3 * x))),
        5 => {
            let s = Sampled::flatten(env, Seconds::new(0.05 + 0.5 * x), (3.0 * x) as usize);
            let marks = s.samples().0.to_vec();
            return (Arc::new(s), marks);
        }
        6 => Arc::new(Aggregate::new(vec![
            Knots::shared(-0.0, &[], &[]),
            env,
            Arc::new(ConstantRateEnvelope::new(BitsPerSec::ZERO)),
            dual(x, 0.5, 0.5),
        ])),
        7 => {
            let cfg = AnalysisConfig {
                max_horizon: Seconds::new(0.05 + 0.2 * x),
                ..AnalysisConfig::default()
            };
            let service: Arc<dyn ServiceCurve> = if x < 0.5 {
                Arc::new(StaircaseService::timed_token(
                    Seconds::from_millis(4.0),
                    Bits::new(rate * 0.004 * (1.05 + 3.0 * x)),
                ))
            } else {
                Arc::new(RateLatencyService::new(
                    BitsPerSec::new(rate * 2.0),
                    Seconds::from_millis(2.0),
                ))
            };
            let cap = (x < 0.7).then(|| BitsPerSec::new(rate * 3.0));
            let out = ServerOutput::new(env, service, Seconds::new(0.01 + 0.1 * x), cap, &cfg);
            let edge = out.exact_to.value();
            return (Arc::new(out), vec![edge, edge.next_up()]);
        }
        _ => Arc::new(env),
    };
    (layer, Vec::new())
}

/// Puts a counting leaf behind each layer and asserts that a batch
/// reaches it as batches, never as per-point `arrivals`.
#[test]
fn batches_reach_the_leaf_as_one_call_per_layer() {
    fn calls_for<E: Envelope>(env: E, leaf: &Counting, ts: &[f64]) -> usize {
        leaf.arrival_calls.store(0, Ordering::Relaxed);
        leaf.batch_calls.store(0, Ordering::Relaxed);
        env.arrivals_sorted(ts, &mut Vec::new());
        assert_eq!(leaf.arrival_calls.load(Ordering::Relaxed), 0);
        leaf.batch_calls.load(Ordering::Relaxed)
    }
    let leaf = counting(dual(0.3, 0.6, 0.2));
    let shared: SharedEnvelope = leaf.clone();
    let ts: Vec<f64> = (0..50).map(|k| f64::from(k) * 0.01).collect();
    let cfg = AnalysisConfig {
        max_horizon: Seconds::new(1.0),
        ..AnalysisConfig::default()
    };
    let output = ServerOutput::new(
        Arc::clone(&shared),
        staircase_for(&*shared, 0.5),
        Seconds::new(0.05),
        None,
        &cfg,
    );
    let (kept, total) = output.candidate_counts();
    assert!(kept < total, "{kept} of {total} kept");
    let edge = output.exact_to.value();
    let nested = Arc::new(Padded::new(
        Arc::new(Scaled::new(
            hop(
                hop(hop(Arc::clone(&shared), 0.004, 1.5e8), 0.002, 1.5e8),
                0.003,
                1.5e8,
            ),
            0.9,
        )),
        Bits::new(1.0e3),
    ));
    let unit = Bits::new(1.0e4);
    let cases: Vec<(&str, SharedEnvelope, usize)> = vec![
        ("Arc<dyn Envelope>", Arc::clone(&shared), 1),
        (
            "Delayed",
            Arc::new(Delayed::new(Arc::clone(&shared), Seconds::new(0.01))),
            1,
        ),
        (
            "RateCapped",
            Arc::new(RateCapped::new(Arc::clone(&shared), BitsPerSec::new(1.0e6))),
            1,
        ),
        (
            "Aggregate",
            Arc::new(Aggregate::new(vec![Arc::clone(&shared)])),
            1,
        ),
        ("Scaled", Arc::new(Scaled::new(Arc::clone(&shared), 1.1)), 1),
        (
            "Quantized",
            Arc::new(Quantized::new(Arc::clone(&shared), unit, unit)),
            1,
        ),
        (
            "Padded",
            Arc::new(Padded::new(Arc::clone(&shared), unit)),
            1,
        ),
        // Its table serves the points up to 0.2 s, the inner batch the rest.
        (
            "Sampled",
            Arc::new(Sampled::flatten(Arc::clone(&shared), Seconds::new(0.2), 1)),
            1,
        ),
        ("ServerOutput", Arc::new(output.clone()), kept),
        ("a three-hop receive chain", nested, 1),
    ];
    for (name, env, batches) in cases {
        assert_eq!(calls_for(&env, &leaf, &ts), batches, "{name}");
    }
    // A table serves every point up to its horizon, the horizon included.
    let table = Sampled::flatten(Arc::clone(&shared), Seconds::new(0.49), 1);
    assert_eq!(
        calls_for(&table, &leaf, &ts),
        0,
        "Sampled within its horizon"
    );
    // The kept candidates up to `exact_to`, every candidate past it.
    assert_eq!(calls_for(&output, &leaf, &[edge]), kept, "at exact_to");
    assert_eq!(
        calls_for(&output, &leaf, &[edge.next_up()]),
        total,
        "past exact_to"
    );
    let straddling = [edge.next_down(), edge, edge.next_up()];
    assert_eq!(
        calls_for(&output, &leaf, &straddling),
        kept + total,
        "across exact_to"
    );
    assert_eq!(calls_for(Arc::clone(&leaf), &leaf, &ts), 1, "Arc<E>");
    assert_eq!(calls_for(&*leaf, &leaf, &ts), 1, "&E");
    let by_dyn: &dyn Envelope = &*leaf;
    assert_eq!(calls_for(by_dyn, &leaf, &ts), 1, "&dyn Envelope");
}

#[test]
fn seek_steps_back_across_signed_zeros() {
    // `total_cmp` puts `0.0` above a `-0.0` entry and `-0.0` on it, so
    // the nondecreasing batch `[0.0, -0.0]` moves the answer back.
    let table = [-0.0, 0.5, 1.0];
    let mut k = 0;
    for (x, want) in [(0.0, 1), (-0.0, 0), (0.0, 1), (0.5, 1), (0.75, 2), (2.0, 3)] {
        k = seek(&table, k, x);
        assert_eq!(k, want, "at {x:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cursor answers every query with the `total_cmp` partition
    /// point, the index `binary_search_by(total_cmp)` reports on a table
    /// without equal entries, whatever the order of the queries: sorted,
    /// as batches come, or shuffled.
    #[test]
    fn seek_is_the_partition_point_in_any_query_order(
        gaps in proptest::collection::vec(1.0e-3_f64..1.0, 0..40),
        (negative_zero, sorted) in (proptest::bool::ANY, proptest::bool::ANY),
        picks in proptest::collection::vec((0_usize..4, 0.0_f64..1.0), 1..60),
    ) {
        let mut table = vec![if negative_zero { -0.0 } else { 0.0 }];
        for g in &gaps {
            table.push(table.last().expect("non-empty") + g);
        }
        let top = *table.last().expect("non-empty");
        let mut queries: Vec<f64> = picks
            .iter()
            .map(|&(kind, x)| match kind {
                0 => if x < 0.5 { -0.0 } else { 0.0 },
                1 => table[(x * table.len() as f64) as usize % table.len()],
                2 => -x,
                _ => x * (top + 0.5),
            })
            .collect();
        if sorted {
            queries.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        }
        let mut k = 0;
        for &x in &queries {
            k = seek(&table, k, x);
            prop_assert_eq!(k, table.partition_point(|t| t.total_cmp(&x).is_lt()), "at {:?}", x);
            let found = table.binary_search_by(|t| t.total_cmp(&x));
            let at = if table.get(k).is_some_and(|t| t.total_cmp(&x).is_eq()) { Ok(k) } else { Err(k) };
            prop_assert_eq!(at, found);
        }
    }

    /// The chunked batch scan for the busy interval's last violation
    /// returns the index the per-point `rposition` scan from the end
    /// does, on candidate lists of a few to thousands of points, with
    /// the last violation anywhere or nowhere.
    #[test]
    fn last_violation_matches_rposition(
        kind in 0_usize..5,
        (a, b, c) in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
        (staircase, share, horizon) in (proptest::bool::ANY, 0.0_f64..1.0, 1.0e-3_f64..1.0),
        subdivisions in 0_usize..4,
    ) {
        let arrival = monotone_envelope(kind, a, b, c);
        let rate = arrival.sustained_rate().value().max(1.0);
        let service: Arc<dyn ServiceCurve> = if staircase {
            let quantum = Bits::new(rate * 0.004 * (0.5 + 3.0 * share));
            Arc::new(StaircaseService::timed_token(Seconds::from_millis(4.0), quantum))
        } else {
            let rate = BitsPerSec::new(rate * (0.5 + 3.0 * share));
            Arc::new(RateLatencyService::new(rate, Seconds::from_millis(10.0 * share)))
        };
        let h = Seconds::new(horizon);
        let mut steps = Vec::new();
        service.breakpoints(h, &mut steps);
        let ts = candidate_times(&[&arrival], &steps, h, subdivisions);
        let want = ts.iter().rposition(|&t| {
            let t = Seconds::new(t);
            t > Seconds::ZERO && arrival.arrivals(t) > service.provided(t)
        });
        prop_assert_eq!(last_violation(&arrival, &*service, &ts), want);
    }

    /// Every layer of a random chain of up to three layers over a random
    /// leaf returns per-point `arrivals`' bits for a sorted batch: tables
    /// queried at and beside their samples and past their horizon,
    /// non-monotone tables, Theorem-1.4 outputs on both sides of
    /// `exact_to`, aggregates of zero-valued parts, signed zeros,
    /// negative and repeated lengths.
    #[test]
    fn arrivals_sorted_matches_per_point_arrivals(
        kind in 0_usize..10,
        (a, b, c) in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
        layers in proptest::collection::vec((0_usize..9, 0.0_f64..1.0), 0..4),
        picks in proptest::collection::vec((0_usize..8, 0.0_f64..1.0), 1..40),
        span in 0.01_f64..1.5,
    ) {
        let mut env = batch_leaf(kind, a, b, c);
        assert_batch_exact(&*env, &query_batch(&picks, span, &[]), "the leaf");
        for (depth, &(code, x)) in layers.iter().enumerate() {
            let (layer, marks) = batch_layer(env, code, x);
            let what = format!("layer {depth} ({code}) over leaf {kind}");
            assert_batch_exact(&*layer, &query_batch(&picks, span, &marks), &what);
            env = layer;
        }
    }
}

/// `inner`, raised to the next float wherever `scrambled` picks the
/// point: an arrival nondecreasing only up to one ulp, the slack the
/// kernel's margins are there for, used to the full.
#[derive(Debug)]
struct Jittered(SharedEnvelope, u64);

impl Envelope for Jittered {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let a = self.0.arrivals(interval).value();
        Bits::new(if scrambled(interval.value(), self.1) {
            a.next_up()
        } else {
            a
        })
    }
    fn sustained_rate(&self) -> BitsPerSec {
        self.0.sustained_rate()
    }
    fn peak_rate(&self) -> BitsPerSec {
        self.0.peak_rate()
    }
    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        self.0.breakpoints(horizon, out);
    }
    fn is_nondecreasing(&self, horizon: Seconds) -> bool {
        self.0.is_nondecreasing(horizon)
    }
}

/// A source for one step-end draw: a model (a leaky bucket, dual-
/// periodic, constant-rate, periodic or concave piecewise-linear
/// source, or a dual-periodic one behind raw hops), or, `chained`, such a model
/// flattened into a `Sampled` table the search overruns, behind one to
/// three multiplexer hops and reassembly's `Padded(Scaled(·))`.
fn step_end_source(rng: &mut proptest::TestRng, chained: bool, max_horizon: f64) -> SharedEnvelope {
    use rand::Rng;
    let (a, b, c) = (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
    let leaf = match rng.gen_range(0_usize..7) {
        5 => subadditive_source(1, a, b, c),
        kind => batch_leaf(kind, a, b, c),
    };
    if !chained {
        return leaf;
    }
    let scale = leaf.arrivals(Seconds::new(1.0)).value().max(1.0);
    let table = Sampled::flatten(
        leaf,
        Seconds::new(max_horizon * (0.3 + 0.7 * rng.gen::<f64>())),
        rng.gen_range(0_usize..2),
    );
    let mut env: SharedEnvelope = Arc::new(table);
    for _ in 0..rng.gen_range(1_usize..4) {
        let cap = scale * (2.0 + 20.0 * rng.gen::<f64>());
        env = hop(env, 0.005 * rng.gen::<f64>(), cap);
    }
    let scaled = Arc::new(Scaled::new(env, 1.0 + 0.2 * rng.gen::<f64>()));
    Arc::new(Padded::new(
        scaled,
        Bits::new(1.0e-3 * scale * rng.gen::<f64>()),
    ))
}

/// A ramp of a few nanoseconds just below the step end `s`, up to
/// exactly the level `service` holds before `s` or above it, at times
/// jittered by an ulp. It puts the arrival's rise inside the windows
/// the step-end lemma's premises guard: between the grid's last point
/// and `s − ε`, inside the `approx_eq` allowance, and before a step
/// that `floor_div`'s nudge moves early.
fn step_end_ramp(
    rng: &mut proptest::TestRng,
    s: f64,
    service: &StaircaseService,
) -> SharedEnvelope {
    use rand::Rng;
    let (a, b, c) = (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
    let tau = approx::REL_TOL * s.max(1.0);
    let to = s - 5.0 * tau * a;
    let from = to - 1.2 * tau * b;
    let before = service.provided(Seconds::new(s - 10.0 * tau)).value();
    let level = if c < 0.4 {
        before
    } else {
        before + service.quantum().value() * (c - 0.3)
    };
    let ramp = Knots::shared(0.0, &[from, to - from], &[0.0, level]);
    Arc::new(Jittered(ramp, rng.gen::<u64>()))
}

/// One iteration of the busy search at horizon `h` as the grid takes
/// it: `find_busy_interval`'s loop body without the step-window kernel,
/// kept here as the reference.
fn grid_iteration(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    steps: &[Seconds],
    horizon: Seconds,
    subdivisions: usize,
    max_horizon: Seconds,
) -> Iteration {
    let ts = candidate_times(&[arrival], steps, horizon, subdivisions);
    let Some(idx) = last_violation(arrival, service, &ts) else {
        return Iteration::Closed(Seconds::ZERO);
    };
    let tv = ts[idx];
    match ts.get(idx + 1) {
        Some(&next) if tv <= horizon.value() * 0.5 => {
            Iteration::Closed(Seconds::new(bisect(tv, next, 60, true, |mid| {
                let t = Seconds::new(mid);
                !(t > Seconds::ZERO && arrival.arrivals(t) > service.provided(t))
            })))
        }
        _ => grow(horizon, Some(Seconds::new(tv)), max_horizon),
    }
}

/// An iteration as a variant tag and the bits of its horizon or busy
/// interval, so that equal outcomes compare equal bit for bit.
fn iteration_bits(it: Iteration) -> (u8, u64) {
    match it {
        Iteration::Closed(b) => (0, b.value().to_bits()),
        Iteration::Grow(h) => (1, h.value().to_bits()),
        Iteration::Exhausted => (2, 0),
    }
}

/// The step-end check the kernel replaced: whether one probe
/// `x = s − 2(τ + ε) > h/2` below a step end `s` of `steps ∪ {h}` has
/// `S(x) == S(s − ε)` and `A(x)` above `S(x)` beyond the tolerance.
/// Once `2h ≥ max_horizon` its firing settled the iteration as grown to
/// the cap, or exhausted; the kernel must settle every such iteration.
fn step_end_reference(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    steps: &[Seconds],
    horizon: Seconds,
) -> bool {
    let h = horizon.value();
    let eps = (h * 1.0e-9).max(1.0e-12);
    steps
        .iter()
        .map(|s| s.value())
        .chain(std::iter::once(h))
        .map(|s| (s - 2.0 * (approx::REL_TOL * s.max(1.0) + eps), s - eps))
        .filter(|&(x, _)| x > h * 0.5)
        .any(|(x, guard)| {
            let served = service.provided(Seconds::new(x));
            served == service.provided(Seconds::new(guard))
                && !approx::approx_le(arrival.arrivals(Seconds::new(x)).value(), served.value())
        })
}

/// The step-window kernel never settles an iteration otherwise than the
/// grid: whenever `step_window_iteration` decides, its outcome is the
/// grid iteration's, bit for bit (the busy interval its bisection
/// closes at, the horizon it grows to, or `HorizonExhausted`), and it
/// decides every iteration the step-end check it replaced settled.
/// Draws: timed-token staircases of 4–16 ms rotations with quanta from
/// barely stable to generous; models, chains and ramps
/// (`step_end_source`, `step_end_ramp`); horizons in `[max/2, max]`
/// (the cap itself, step ends as the staircase accumulates them, those
/// ±10⁻⁹ relative, products `k·TTRT`, and uniform draws) under a search
/// cap of `max` or of 2.5–10 times it, so that the grow target depends
/// on where the last violation lies; 0–3 guard subdivisions. Each
/// family must reach the cap a floor of times, and the kernel must
/// close searches and grow horizons short of the cap a floor of times
/// too, so the property is not vacuous.
#[test]
fn step_window_kernel_matches_the_grid_iteration() {
    use rand::Rng;
    // The step-end check's own test drew from this stream: the same
    // draws, so its firing floors carry over.
    let mut rng = proptest::test_rng("step_end_check_is_sound_against_the_grid");
    let mut caps = proptest::test_rng("step_window_kernel_caps");
    let mut fired = [0_usize; 3];
    let (mut capped, mut closed, mut grown, mut undecided) = (0_usize, 0_usize, 0_usize, 0_usize);
    for case in 0..2400 {
        let family = (case % 8).min(2);
        let ttrt = Seconds::new(4.0e-3 + 12.0e-3 * rng.gen::<f64>());
        let max = if rng.gen::<bool>() {
            0.6
        } else {
            0.08 + 0.52 * rng.gen::<f64>()
        };
        // Step ends depend on the rotation alone.
        let clock = StaircaseService::timed_token(ttrt, Bits::new(1.0));
        let mut ends = Vec::new();
        clock.breakpoints(Seconds::new(max), &mut ends);
        ends.retain(|s| s.value() >= 0.5 * max);
        let end = ends[rng.gen_range(0..ends.len())].value();
        let h = match rng.gen_range(0_usize..5) {
            0 => max,
            1 => end,
            2 if rng.gen::<bool>() => end * (1.0 + 1.0e-9),
            2 => end * (1.0 - 1.0e-9),
            3 => (end / ttrt.value()).round() * ttrt.value(),
            _ => max * (0.5 + 0.5 * rng.gen::<f64>()),
        }
        .clamp(0.5 * max, max);
        let horizon = Seconds::new(h);
        let mut steps = Vec::new();
        clock.breakpoints(horizon, &mut steps);
        let late: Vec<f64> = steps
            .iter()
            .map(|s| s.value())
            .filter(|&s| s > 0.5 * h)
            .collect();
        let s = if late.is_empty() || rng.gen::<bool>() {
            h
        } else {
            late[rng.gen_range(0..late.len())]
        };

        let source = (family < 2).then(|| step_end_source(&mut rng, family == 1, max));
        let rate = source
            .as_ref()
            .map_or(1.0e6, |a| a.sustained_rate().value().max(1.0));
        let share = 10f64.powf(-3.0 + 3.5 * rng.gen::<f64>());
        let service =
            StaircaseService::timed_token(ttrt, Bits::new(rate * ttrt.value() * (1.0 + share)));
        let arrival = source.unwrap_or_else(|| step_end_ramp(&mut rng, s, &service));
        let subdivisions = if rng.gen::<bool>() {
            0
        } else {
            rng.gen_range(1_usize..4)
        };
        let cap = Seconds::new(if caps.gen::<bool>() {
            max
        } else {
            max * (2.5 + 7.5 * caps.gen::<f64>())
        });

        let kernel = step_window_iteration(&*arrival, &service, &steps, horizon, cap);
        let fires = step_end_reference(&*arrival, &service, &steps, horizon);
        fired[family] += usize::from(fires);
        if fires && 2.0 * h >= cap.value() {
            prop_assert!(
                kernel.is_some(),
                "case {case}: the step-end check settles what the kernel does not \
                 (h = {h}, cap = {cap:?}, TTRT = {ttrt:?}, share = {share}, {arrival:?})"
            );
        }
        let Some(kernel) = kernel else {
            undecided += 1;
            continue;
        };
        let grid = grid_iteration(&*arrival, &service, &steps, horizon, subdivisions, cap);
        prop_assert_eq!(
            iteration_bits(kernel),
            iteration_bits(grid),
            "case {}: the kernel settles {:?}, the grid {:?} (h = {}, cap = {:?}, s = {}, \
             TTRT = {:?}, share = {}, {:?})",
            case,
            kernel,
            grid,
            h,
            cap,
            s,
            ttrt,
            share,
            arrival
        );
        match kernel {
            Iteration::Grow(next) if next != cap => grown += 1,
            Iteration::Closed(_) => closed += 1,
            _ => capped += 1,
        }
    }
    println!(
        "step-end check fired on {fired:?} of 300, 300 and 1,800 draws; the kernel \
         closed {closed} searches, grew {grown} horizons short of the cap, reached the cap \
         {capped} times and left {undecided} iterations to the grid"
    );
    for (family, floor) in [(0, 100), (1, 100), (2, 150)] {
        let n = fired[family];
        prop_assert!(n >= floor, "family {family} fired only {n} times");
    }
    for (what, n, floor) in [
        ("closed", closed, 100),
        ("grew", grown, 60),
        ("capped", capped, 200),
    ] {
        prop_assert!(n >= floor, "the kernel {what} only {n} times");
    }
}

/// The quantum-level skip leaves the Theorem-1.2/1.3 maxima unchanged,
/// bit for bit: `busy_maxima` against the maximization that inverts
/// every level, kept here as the reference, at the busy interval the
/// search finds. Draws: the step-window kernel's sources (`step_end_source`:
/// models and multiplexer chains over overrun tables) under timed-token
/// staircases of 4–16 ms rotations with quanta from barely stable to
/// generous, 0–3 guard subdivisions. The skip must fire on a floor of
/// the levels, so the property is not vacuous.
#[test]
fn level_skip_keeps_the_maxima() {
    use rand::Rng;
    let mut rng = proptest::test_rng("level_skip_keeps_the_maxima");
    let (mut skipped, mut levels) = (0_usize, 0_usize);
    for case in 0..600 {
        let ttrt = Seconds::new(4.0e-3 + 12.0e-3 * rng.gen::<f64>());
        let source = step_end_source(&mut rng, case % 2 == 1, 0.6);
        let rate = source.sustained_rate().value().max(1.0);
        let share = 10f64.powf(-2.0 + 2.5 * rng.gen::<f64>());
        let service =
            StaircaseService::timed_token(ttrt, Bits::new(rate * ttrt.value() * (1.0 + share)));
        let cfg = AnalysisConfig {
            guard_subdivisions: rng.gen_range(0_usize..4),
            max_horizon: Seconds::new(0.6),
            ..AnalysisConfig::default()
        };
        let Ok(report) = analyze_guaranteed_server(&*source, &service, &cfg) else {
            continue;
        };
        let busy = report.busy_interval;
        let counted = counting(Arc::clone(&source));
        let got = busy_maxima(&*counted, &service, busy, &cfg);

        let mut extra = Vec::new();
        service.breakpoints(busy, &mut extra);
        let mut ts = candidate_times(&[&*source], &extra, busy, cfg.guard_subdivisions);
        let mut values = Vec::new();
        source.arrivals_sorted(&ts, &mut values);
        let eps = (busy * 1.0e-9).max(Seconds::new(1.0e-12));
        let mut all = Vec::new();
        service.level_breakpoints(source.arrivals(busy), &mut all);
        levels += all.len();
        let skipped_here = all.len() - counted.inversion_calls.load(Ordering::Relaxed);
        for level in all {
            if let Some(t) = source.min_interval(level, busy) {
                for cand in [t, t + eps] {
                    if cand > Seconds::ZERO && cand <= busy {
                        ts.push(cand.value());
                        values.push(source.arrivals(cand).value());
                    }
                }
            }
        }
        let (mut backlog, mut delay) = (0.0_f64, 0.0_f64);
        for (&t, &a) in ts.iter().zip(&values) {
            let (t, a) = (Seconds::new(t), Bits::new(a));
            if t <= Seconds::ZERO {
                continue;
            }
            backlog = backlog.max((a - service.provided(t)).value());
            delay = delay.max((service.time_to_provide(a) - t).value());
        }
        prop_assert_eq!(
            [got.backlog.to_bits(), got.delay.to_bits()],
            [backlog.to_bits(), delay.to_bits()],
            "case {}: skipping {} levels moved the maxima (B = {:?}, TTRT = {:?}, {:?})",
            case,
            skipped_here,
            busy,
            ttrt,
            source
        );
        skipped += skipped_here;
    }
    println!("skipped {skipped} of {levels} level inversions");
    prop_assert!(skipped >= 1000, "only {skipped} of {levels} levels skipped");
}

/// `env` behind `hops` multiplexer hops drawn from `rng` (delays up to
/// 10 ms, caps 1.5–20 times `scale`), then delayed by a port's bound of
/// up to 5 ms: the inner envelope of one more hop's cap.
fn behind_hops(
    rng: &mut proptest::TestRng,
    mut env: SharedEnvelope,
    hops: usize,
    scale: f64,
) -> SharedEnvelope {
    use rand::Rng;
    for _ in 0..hops {
        env = hop(
            env,
            0.01 * rng.gen::<f64>(),
            scale * (1.5 + 18.5 * rng.gen::<f64>()),
        );
    }
    Arc::new(Delayed::new(env, Seconds::new(0.005 * rng.gen::<f64>())))
}

/// The banded crossing search returns the plain search's crossings, bit
/// for bit, and evaluates no more midpoints. Draws, as the multiplexer
/// builds its chains: a random monotone model flattened into a table
/// behind zero to two hops and a port delay, capped at random rates
/// (family 0), at a rate within `10⁻¹¹`–`10⁻³` of a leaky bucket's slope,
/// so that the cap line runs nearly parallel to the table for a long
/// stretch (1), and at the rate whose line passes through a breakpoint's
/// value, or an ulp beside it, so the crossing lies at a window end (2);
/// horizons mostly inside the table and sometimes past it, where the
/// table does not vouch for its values. Family 3 caps a table that dips
/// (not nondecreasing): there the search must evaluate every midpoint.
/// Family 4 caps a nondecreasing table through the dip of its inner
/// envelope past the table's horizon.
/// The band must decide a floor share of the midpoints, so the property
/// is not vacuous.
#[test]
fn banded_crossings_match_the_plain_bisection() {
    use rand::Rng;
    let mut rng = proptest::test_rng("banded_crossings_match_the_plain_bisection");
    let (mut plain_total, mut evaluated_total, mut claimed, mut dipping) = (0, 0, 0, 0);
    for case in 0..1000 {
        let family = case % 5;
        let (a, b, c) = (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
        let span = 0.1 + 0.9 * rng.gen::<f64>();
        let past = rng.gen_range(0_usize..5) == 0;
        let h = Seconds::new(
            span * if past {
                1.0 + rng.gen::<f64>()
            } else {
                0.1 + 0.8 * rng.gen::<f64>()
            },
        );
        let subdivisions = rng.gen_range(0_usize..3);
        let hops = rng.gen_range(0_usize..3);
        let (inner, h, cap) = match family {
            1 => {
                let rho = 1.0e6 * 10f64.powf(2.0 * a);
                let eps = 10f64.powf(-11.0 + 8.0 * b);
                let sigma = rho * eps * h.value() * (0.05 + 0.85 * c);
                let leaf = Arc::new(
                    LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::new(rho))
                        .expect("valid parameters"),
                );
                let table: SharedEnvelope =
                    Arc::new(Sampled::flatten(leaf, Seconds::new(span), subdivisions));
                (table, h, BitsPerSec::new(rho * (1.0 + eps)))
            }
            3 | 4 => {
                let dip = Knots::shared(
                    1.0e3 * a,
                    &[0.3 * span, 0.2 * span, 0.5 * span],
                    &[1.0e5 * (1.0 + b), -4.0e4 * (0.1 + c), 2.0e5],
                );
                // Family 4 flattens only the rise, a nondecreasing table
                // whose inner envelope dips past it, and puts the cap
                // line through the dip.
                let (flat, at) = if family == 3 {
                    (1.0, h.value())
                } else {
                    (0.3, 0.4 * span)
                };
                let table = Arc::new(Sampled::flatten(
                    dip,
                    Seconds::new(flat * span),
                    subdivisions,
                ));
                let inner = behind_hops(&mut rng, table, hops, 1.0e6);
                let h = if family == 3 { h } else { Seconds::new(span) };
                let rate = inner.arrivals(Seconds::new(at)).value() / at;
                (
                    inner,
                    h,
                    BitsPerSec::new(
                        (rate * if family == 3 { 0.2 + 1.5 * a } else { 1.0 }).max(1.0),
                    ),
                )
            }
            _ => {
                let leaf = monotone_envelope(rng.gen_range(0_usize..5), a, b, c);
                let scale = leaf.arrivals(Seconds::new(1.0)).value().max(1.0);
                let table = Arc::new(Sampled::flatten(leaf, Seconds::new(span), subdivisions));
                let inner = behind_hops(&mut rng, table, hops, scale);
                let mut points = Vec::new();
                inner.breakpoints(h, &mut points);
                points.retain(|p| p.value() > 0.0 && inner.arrivals(*p).value() > 0.0);
                let cap = if family == 2 && !points.is_empty() {
                    let p = points[rng.gen_range(0..points.len())];
                    let rate = inner.arrivals(p).value() / p.value();
                    match rng.gen_range(0_usize..3) {
                        0 => rate.next_down(),
                        1 => rate,
                        _ => rate.next_up(),
                    }
                } else {
                    inner.arrivals(h).value() / h.value()
                        * 10f64.powf(-1.0 + 3.5 * rng.gen::<f64>())
                };
                (inner, h, BitsPerSec::new(cap.max(1.0)))
            }
        };
        // The same search over the chain with its flag hidden evaluates
        // every midpoint `bisect` reaches.
        let [evaluated, plain] = [
            counting(Arc::clone(&inner)),
            counting(Arc::new(Unflagged(Arc::clone(&inner)))),
        ]
        .map(|counted| {
            let capped = RateCapped::new(counted.clone(), cap);
            assert_eq!(
                breakpoint_bits(&capped, h),
                rate_capped_reference(&*inner, cap, h),
                "case {case} (family {family}, h = {h:?}, cap = {cap:?})"
            );
            counted.arrival_calls.load(Ordering::Relaxed)
        });
        assert!(
            evaluated <= plain,
            "case {case}: {evaluated} of {plain} evaluated"
        );
        if family == 4 {
            assert!(!inner.is_nondecreasing(h));
        } else if family == 3 {
            assert!(!inner.is_nondecreasing(Seconds::ZERO));
            assert_eq!(
                evaluated, plain,
                "case {case}: a dipping table's midpoint was skipped"
            );
            dipping += plain;
        } else if inner.is_nondecreasing(h) {
            claimed += 1;
            if family != 1 {
                plain_total += plain;
                evaluated_total += evaluated;
            }
        }
    }
    let decided = 1.0 - evaluated_total as f64 / plain_total as f64;
    println!(
        "{claimed} of 600 monotone draws claimed nondecreasing; the band decided {decided:.3} \
         of their {plain_total} midpoints outside family 1; the dipping tables evaluated all \
         {dipping} of theirs"
    );
    assert!(claimed >= 350, "only {claimed} draws claimed nondecreasing");
    assert!(
        dipping >= 2000,
        "the dipping tables bisected only {dipping} midpoints"
    );
    assert!(
        decided >= 0.25,
        "the band decided only {decided:.3} of the midpoints"
    );
}

/// The band's margin covers the roundoff slack
/// [`Envelope::is_nondecreasing`] allows. Over a plateau raised by an
/// ulp at scattered points (`Jittered`, a table still nondecreasing up
/// to that slack), the cap line meets the plateau's value within an ulp
/// of a bracket end's at the last steps of every crossing search, where
/// a bound without the margin would decide sides the evaluation does
/// not.
#[test]
fn band_margin_absorbs_roundoff_slack() {
    use rand::Rng;
    let mut rng = proptest::test_rng("band_margin_absorbs_roundoff_slack");
    for case in 0..400 {
        let level = 1.0e3 + 1.0e6 * rng.gen::<f64>();
        let rise = 0.01 + 0.1 * rng.gen::<f64>();
        let h = Seconds::new(rise + 1.0);
        let plateau = Knots::shared(0.0, &[rise, 1.0], &[level, 0.0]);
        let table = Arc::new(Sampled::flatten(plateau, h, rng.gen_range(0_usize..2)));
        let env: SharedEnvelope = Arc::new(Jittered(table, rng.gen::<u64>()));
        assert!(env.is_nondecreasing(h));
        let cap = BitsPerSec::new(level / (rise + 0.001 + 0.998 * rng.gen::<f64>()));
        let capped = RateCapped::new(Arc::clone(&env), cap);
        assert_eq!(
            breakpoint_bits(&capped, h),
            rate_capped_reference(&*env, cap, h),
            "case {case} (level {level}, rise {rise}, cap {cap:?})"
        );
    }
}

/// One `RateCapped` shared by two threads, each asking it for a run of
/// horizons (repeated, new and revisited, in opposite orders), returns
/// the reference list at every call: whichever thread fills the memo,
/// it fills it with the same list.
#[test]
fn a_memo_shared_by_two_threads_stays_exact() {
    let table = Arc::new(Sampled::flatten(dual(0.4, 0.7, 0.3), Seconds::new(0.8), 1));
    let inner: SharedEnvelope =
        Arc::new(Delayed::new(hop(table, 0.004, 3.0e7), Seconds::new(0.002)));
    let cap = BitsPerSec::new(inner.arrivals(Seconds::new(0.3)).value() / 0.3);
    let capped = RateCapped::new(Arc::clone(&inner), cap);
    let horizons = [0.1, 0.1, 0.25, 0.5, 0.25, 0.6, 0.6, 0.1, 0.45];
    let want: Vec<Vec<u64>> = horizons
        .iter()
        .map(|&h| rate_capped_reference(&*inner, cap, Seconds::new(h)))
        .collect();
    std::thread::scope(|scope| {
        for reversed in [false, true] {
            let (capped, want) = (&capped, &want);
            scope.spawn(move || {
                for _ in 0..30 {
                    for k in 0..horizons.len() {
                        let k = if reversed { horizons.len() - 1 - k } else { k };
                        let got = breakpoint_bits(capped, Seconds::new(horizons[k]));
                        assert_eq!(got, want[k], "at {}", horizons[k]);
                    }
                }
            });
        }
    });
}

/// `Delayed` shifts its inner points in place behind whatever `out`
/// already holds, into the list the shift of a separate copy gave:
/// each point less the delay, in order, the nonpositive ones dropped.
#[test]
fn delayed_breakpoints_shift_in_place() {
    for (kind, delay) in [(1, 0.0), (3, 0.004), (4, 0.03), (1, 0.25)] {
        let inner = monotone_envelope(kind, 0.3, 0.6, 0.2);
        let delayed = Delayed::new(Arc::clone(&inner), Seconds::new(delay));
        let h = Seconds::new(0.5);
        let mut points = Vec::new();
        inner.breakpoints(h + delayed.delay(), &mut points);
        let want: Vec<Seconds> = points
            .into_iter()
            .map(|p| p.saturating_sub(delayed.delay()))
            .filter(|p| *p > Seconds::ZERO)
            .collect();
        let mut out = vec![Seconds::new(-1.0), Seconds::ZERO];
        delayed.breakpoints(h, &mut out);
        assert_eq!(out[..2], [Seconds::new(-1.0), Seconds::ZERO]);
        assert_eq!(bits_of(&out[2..]), bits_of(&want), "delay {delay}");
        assert!(want.len() > 1, "delay {delay}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A memoized `RateCapped` returns the double-enumerating original's
    /// list at every horizon of a sequence that repeats one, grows,
    /// shrinks or alternates between two, appended behind whatever `out`
    /// already holds, over models and over a delayed table.
    #[test]
    fn memoized_rate_capped_matches_the_reference_over_horizon_sequences(
        kind in 0_usize..5,
        (a, b, c) in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
        (tabled, cap_share, pattern) in (proptest::bool::ANY, 0.05_f64..2.0, 0_usize..4),
        mut hs in proptest::collection::vec(1.0e-3_f64..1.0, 2..6),
    ) {
        let leaf = monotone_envelope(kind, a, b, c);
        let inner: SharedEnvelope = if tabled {
            let table = Arc::new(Sampled::flatten(leaf, Seconds::new(1.2), 1));
            Arc::new(Delayed::new(table, Seconds::new(0.004)))
        } else {
            leaf
        };
        let top = hs.iter().fold(0.0_f64, |m, &h| m.max(h));
        let rate = inner.arrivals(Seconds::new(top)).value() / top * cap_share;
        let cap = BitsPerSec::new(rate.max(1.0));
        let capped = RateCapped::new(Arc::clone(&inner), cap);
        match pattern {
            0 => hs = vec![hs[0]; hs.len()],
            1 => hs.sort_by(f64::total_cmp),
            2 => hs.sort_by(|x, y| y.total_cmp(x)),
            _ => hs = (0..2 * hs.len()).map(|k| hs[k % 2]).collect(),
        }
        for (k, &h) in hs.iter().enumerate() {
            let h = Seconds::new(h);
            let mut out = vec![Seconds::new(-1.0); k % 2];
            capped.breakpoints(h, &mut out);
            prop_assert!(out[..k % 2].iter().all(|p| p.value() == -1.0));
            prop_assert_eq!(
                bits_of(&out[k % 2..]),
                rate_capped_reference(&*inner, cap, h),
                "call {} at {:?}", k, h
            );
        }
    }
}
