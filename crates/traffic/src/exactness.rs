//! Exactness tests for the envelope kernels' shortcuts.
//!
//! The kernels skip work that cannot change their results: bisections
//! stop once converged, `RateCapped`/`MinOf` enumerate their inner
//! envelopes once, and `Sampled` inverts itself with bracketed table
//! searches. Each test pins one shortcut, bit for bit, against the
//! straightforward code it replaced, kept here as the reference.

use crate::approx;
use crate::combinators::{Delayed, MinOf, RateCapped, Sampled};
use crate::envelope::{bisect, Envelope, SharedEnvelope};
use crate::models::{ConstantRateEnvelope, DualPeriodicEnvelope, LeakyBucketEnvelope};
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

/// Counts how often it is asked for its breakpoints.
#[derive(Debug)]
struct Counting {
    inner: SharedEnvelope,
    breakpoint_calls: AtomicUsize,
}

impl Envelope for Counting {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.inner.arrivals(interval)
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
