//! Exactness tests for the envelope kernels' shortcuts.
//!
//! The kernels skip work that cannot change their results: bisections
//! stop once converged, `RateCapped`/`MinOf` enumerate their inner
//! envelopes once, and `Sampled` inverts itself in closed form where
//! its guards prove that exact, with bracketed table searches where
//! they do not, and the Theorem-1.4 output envelope scans only the
//! maximizer candidates no other candidate dominates. Sorted batches are
//! evaluated with one call per layer (`arrivals_sorted`). Each test pins
//! one shortcut, bit for bit, against the straightforward code it
//! replaced, kept here as the reference.

use crate::analysis::{
    analyze_guaranteed_server, last_violation, undominated, AnalysisConfig, ServerOutput,
    DOMINANCE_MARGIN,
};
use crate::approx;
use crate::combinators::{
    seek, Aggregate, Delayed, MinOf, Padded, Quantized, RateCapped, Sampled, Scaled,
    CONVERGED_SHARE, KNOT_MARGIN, MAX_ULP_WALK,
};
use crate::envelope::{bisect, candidate_times, Envelope, SharedEnvelope, SUBADDITIVE_ARG_TOL};
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

/// The switch-point search of `RateCapped`/`MinOf` as it was: `pts`
/// asked for a second time, every window's sides re-evaluated, 60
/// fixed halvings.
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

/// `MinOf::breakpoints` as it was: both operands enumerated twice.
fn min_of_reference(a: &dyn Envelope, b: &dyn Envelope, horizon: Seconds) -> Vec<u64> {
    let mut out = Vec::new();
    a.breakpoints(horizon, &mut out);
    b.breakpoints(horizon, &mut out);
    let mut pts = Vec::new();
    a.breakpoints(horizon, &mut pts);
    b.breakpoints(horizon, &mut pts);
    switch_points_reference(pts, horizon, |i| a.arrivals(i) < b.arrivals(i), &mut out);
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

/// Counts how often it is asked for its breakpoints, for single values
/// and for batches of them.
#[derive(Debug)]
struct Counting {
    inner: SharedEnvelope,
    breakpoint_calls: AtomicUsize,
    arrival_calls: AtomicUsize,
    batch_calls: AtomicUsize,
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
}

fn counting(inner: SharedEnvelope) -> Arc<Counting> {
    Arc::new(Counting {
        inner,
        breakpoint_calls: AtomicUsize::new(0),
        arrival_calls: AtomicUsize::new(0),
        batch_calls: AtomicUsize::new(0),
    })
}

#[test]
fn three_hop_chain_enumerates_its_root_once() {
    let root = counting(dual(0.3, 0.6, 0.2));
    let mut chain: SharedEnvelope = root.clone();
    for (delay, cap) in [(0.004, 1.55e8), (0.002, 1.55e8), (0.003, 1.55e8)] {
        chain = hop(chain, delay, cap);
    }
    let mut out = Vec::new();
    chain.breakpoints(Seconds::new(0.6), &mut out);
    assert!(!out.is_empty());
    assert_eq!(
        root.breakpoint_calls.load(Ordering::Relaxed),
        1,
        "the root was enumerated once per path through the chain, not once"
    );
}

#[test]
fn min_of_enumerates_each_operand_once() {
    let (a, b) = (counting(dual(0.3, 0.6, 0.2)), counting(dual(0.7, 0.1, 0.9)));
    let m = MinOf::new(a.clone(), b.clone());
    m.breakpoints(Seconds::new(1.0), &mut Vec::new());
    assert_eq!(a.breakpoint_calls.load(Ordering::Relaxed), 1);
    assert_eq!(b.breakpoint_calls.load(Ordering::Relaxed), 1);
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

/// Hides the wrapped envelope's subadditivity, and nothing else: a
/// `ServerOutput` over it scans every candidate, as before pruning.
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
    let kept = undominated(&knots, &out.t_candidates, span);
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

    /// The same for `MinOf`.
    #[test]
    fn min_of_breakpoints_match_double_call_reference(
        kinds in (0_usize..5, 0_usize..5),
        a in 0.0_f64..1.0,
        b in 0.0_f64..1.0,
        c in 0.0_f64..1.0,
        horizon in 1.0e-3_f64..2.0,
    ) {
        let x = monotone_envelope(kinds.0, a, b, c);
        let y = monotone_envelope(kinds.1, c, a, b);
        let h = Seconds::new(horizon);
        let m = MinOf::new(Arc::clone(&x), Arc::clone(&y));
        prop_assert_eq!(breakpoint_bits(&m, h), min_of_reference(&*x, &*y, h));
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
        5 => Arc::new(
            PeriodicEnvelope::new(
                Bits::new(1.0e3 + 1.0e5 * c),
                Seconds::from_millis(1.0 + 19.0 * a),
                BitsPerSec::new(1.0e8 * (0.1 + b)),
            )
            .expect("valid parameters"),
        ),
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
        6 => {
            let other = LeakyBucketEnvelope::new(Bits::new(rate * x), BitsPerSec::new(rate))
                .expect("valid parameters");
            Arc::new(MinOf::new(env, Arc::new(other)))
        }
        7 => Arc::new(Aggregate::new(vec![
            Knots::shared(-0.0, &[], &[]),
            env,
            Arc::new(ConstantRateEnvelope::new(BitsPerSec::ZERO)),
            dual(x, 0.5, 0.5),
        ])),
        8 => {
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
        (
            "MinOf",
            Arc::new(MinOf::new(Arc::clone(&shared), Arc::clone(&shared))),
            2,
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
        layers in proptest::collection::vec((0_usize..10, 0.0_f64..1.0), 0..4),
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
