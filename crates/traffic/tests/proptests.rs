//! Property-based tests for traffic envelopes, service curves and the
//! guaranteed-server analysis.

use hetnet_traffic::analysis::{
    analyze_guaranteed_server, AnalysisConfig, OutputTableMemo, ServerOutput,
};
use hetnet_traffic::combinators::{Aggregate, Delayed, Quantized, RateCapped, Sampled, Scaled};
use hetnet_traffic::envelope::{
    Envelope, SharedEnvelope, SUBADDITIVE_ARG_TOL, SUBADDITIVE_VALUE_TOL,
};
use hetnet_traffic::models::{
    ConstantRateEnvelope, DualPeriodicEnvelope, LeakyBucketEnvelope, PeriodicEnvelope,
};
use hetnet_traffic::service::{RateLatencyService, ServiceCurve, StaircaseService};
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;
use std::sync::Arc;

/// A generated dual-periodic envelope with valid parameters.
fn dual_periodic_strategy() -> impl Strategy<Value = DualPeriodicEnvelope> {
    // p2 in [1, 20] ms, bursts per period in [1, 8], c2 in bits, peak high
    // enough that c2 always fits.
    (
        1.0_f64..20.0,    // p2 in ms
        1_usize..=8,      // p1 = k * p2
        1.0e3_f64..1.0e5, // c2 bits
        0.0_f64..1.0,     // c1 position between c2 and k*c2
        1.1_f64..4.0,     // peak multiplier over c2/p2
    )
        .prop_map(|(p2_ms, k, c2, c1_frac, peak_mul)| {
            let p2 = Seconds::from_millis(p2_ms);
            let p1 = Seconds::from_millis(p2_ms * k as f64);
            let peak = BitsPerSec::new(c2 / p2.value() * peak_mul);
            // c1 between c2 and k*c2 (reachable within p1).
            let c1 = c2 * (1.0 + c1_frac * (k as f64 - 1.0));
            DualPeriodicEnvelope::new(Bits::new(c1), p1, Bits::new(c2), p2, peak)
                .expect("generated parameters must be valid")
        })
}

fn interval_strategy() -> impl Strategy<Value = Seconds> {
    (0.0_f64..0.5).prop_map(Seconds::new)
}

/// A generated periodic envelope; about a third are saturated
/// (`C = R·P`, a constant rate), where `floor_div`'s nudge can move a
/// value.
fn periodic_strategy() -> impl Strategy<Value = PeriodicEnvelope> {
    (1.0_f64..20.0, 1.0e3_f64..1.0e5, 0.0_f64..3.0).prop_map(|(p_ms, c, peak_mul)| {
        let p = Seconds::from_millis(p_ms);
        // The smallest float rate emitting `c` within `p`.
        let mut rate = c / p.value();
        while rate * p.value() < c {
            rate = rate.next_up();
        }
        let peak = BitsPerSec::new(rate * peak_mul.max(1.0));
        PeriodicEnvelope::new(Bits::new(c), p, peak).expect("generated parameters must be valid")
    })
}

/// A generated leaky bucket, half of them peak-capped.
fn leaky_bucket_strategy() -> impl Strategy<Value = LeakyBucketEnvelope> {
    (0.0_f64..1.0e5, 1.0e3_f64..1.0e7, 0.0_f64..4.0).prop_map(|(sigma, rho, peak_mul)| {
        let lb = LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::new(rho))
            .expect("generated parameters must be valid");
        if peak_mul < 2.0 {
            lb
        } else {
            lb.with_peak(BitsPerSec::new(rho * peak_mul))
                .expect("generated parameters must be valid")
        }
    })
}

/// An interval `s` and a second one `t`, with `s` often placed within
/// the nudge of `floor_div` below a multiple of `period`.
fn interval_pair(period: f64, near: f64, n: f64, s: Seconds, t: Seconds) -> (Seconds, Seconds) {
    if near < 0.5 {
        let boundary = (n * period).max(period);
        (Seconds::new(boundary * (1.0 - near * 1.0e-9)), t)
    } else {
        (s, t)
    }
}

/// The subadditivity the Theorem-1.4 pruning relies on, as computed:
/// `Â(s + t) ≤ (1 + 3γ)·(Â(s) + Â(t + 4δ))` with `δ = η·max(s + t, P)`,
/// which follows from an exactly subadditive model evaluated within the
/// argument tolerance `η` and the value tolerance `γ` that
/// `Envelope::is_subadditive` allows.
fn computed_subadditivity_holds(env: &dyn Envelope, s: Seconds, t: Seconds) -> bool {
    let p = env.period_hint().map_or(0.0, Seconds::value);
    let delta = SUBADDITIVE_ARG_TOL * (s + t).value().max(p);
    let lhs = env.arrivals(s + t).value();
    let rhs = env.arrivals(s).value() + env.arrivals(t + Seconds::new(4.0 * delta)).value();
    lhs <= rhs * (1.0 + 3.0 * SUBADDITIVE_VALUE_TOL)
}

/// Asserts that `got` is `want`'s table bit for bit: the sample points,
/// the values, the corners it reports (its own within the horizon, its
/// inner envelope's past it) and the level crossings its closed-form
/// inversion finds, which it takes only from a table it found
/// nondecreasing.
fn assert_same_table(got: &Sampled, want: &Sampled, horizon: Seconds) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ((got_ts, got_vals), (want_ts, want_vals)) = (got.samples(), want.samples());
    assert_eq!(bits(got_ts), bits(want_ts), "sample points differ");
    assert_eq!(bits(got_vals), bits(want_vals), "sample values differ");
    for h in [horizon, horizon * 2.0] {
        let corners = |s: &Sampled| {
            let mut out = Vec::new();
            s.breakpoints(h, &mut out);
            out.iter().map(|t| t.value().to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(corners(got), corners(want), "corners up to {h} differ");
    }
    let top = want_vals.last().copied().unwrap_or(0.0);
    for share in [0.1, 0.37, 0.8] {
        let level = Bits::new(top * share);
        assert_eq!(
            got.min_interval(level, horizon),
            want.min_interval(level, horizon),
            "crossing of {level} differs"
        );
    }
}

/// A busy interval of `k` rotations of `ttrt`: on a multiple (`mode`
/// 0), just under one as the busy-period search lands (1), or a
/// fraction `frac` of a rotation past one (2).
fn busy_interval(ttrt: Seconds, k: usize, mode: usize, frac: f64) -> Seconds {
    let whole = ttrt * k as f64;
    match mode {
        0 => whole,
        1 => whole * (1.0 - 1.0e-9),
        _ => whole + ttrt * frac,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A(I) is nondecreasing for every generated dual-periodic envelope.
    #[test]
    fn dual_periodic_monotone(env in dual_periodic_strategy(), i in interval_strategy(), j in interval_strategy()) {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        prop_assert!(env.arrivals(lo) <= env.arrivals(hi) + Bits::new(1e-9));
    }

    /// A(I) never exceeds peak*I and never exceeds (⌊I/P1⌋+1)*C1.
    #[test]
    fn dual_periodic_bounded(env in dual_periodic_strategy(), i in interval_strategy()) {
        let a = env.arrivals(i).value();
        prop_assert!(a <= env.peak_rate().value() * i.value() + 1e-6);
        let periods = (i.value() / env.p1().value()).floor() + 1.0;
        prop_assert!(a <= periods * env.c1().value() + 1e-6);
    }

    /// Subadditivity: A(s + t) <= A(s) + A(t) — the defining property of a
    /// maximum-rate-function envelope.
    #[test]
    fn dual_periodic_subadditive(env in dual_periodic_strategy(), s in interval_strategy(), t in interval_strategy()) {
        let lhs = env.arrivals(s + t).value();
        let rhs = env.arrivals(s).value() + env.arrivals(t).value();
        prop_assert!(lhs <= rhs + 1e-6 + 1e-9 * rhs.abs());
    }

    /// The periodic model declares itself subadditive and is, within
    /// the tolerances the declaration allows, also where `s` sits just
    /// below a period boundary.
    #[test]
    fn periodic_subadditive(
        env in periodic_strategy(),
        near in 0.0_f64..1.0,
        n in 0.0_f64..40.0,
        s in interval_strategy(),
        t in interval_strategy(),
    ) {
        prop_assert!(env.is_subadditive());
        let (s, t) = interval_pair(env.period().value(), near, n.floor(), s, t);
        prop_assert!(computed_subadditivity_holds(&env, s, t), "s = {s}, t = {t}");
        prop_assert!(computed_subadditivity_holds(&env, t, s), "s = {t}, t = {s}");
    }

    /// The same for the leaky bucket, capped or not.
    #[test]
    fn leaky_bucket_subadditive(
        env in leaky_bucket_strategy(),
        s in interval_strategy(),
        t in interval_strategy(),
    ) {
        prop_assert!(env.is_subadditive());
        prop_assert!(computed_subadditivity_holds(&env, s, t), "s = {s}, t = {t}");
    }

    /// Γ(I) converges to ρ = C1/P1 from above for multiples of P1.
    #[test]
    fn dual_periodic_rate_convergence(env in dual_periodic_strategy()) {
        let rho = env.sustained_rate().value();
        for k in [1.0, 2.0, 5.0, 10.0] {
            let i = env.p1() * k;
            let gamma = env.arrivals(i).value() / i.value();
            prop_assert!(gamma >= rho - 1e-6);
            prop_assert!(gamma <= rho * (1.0 + 1.0) + 1e-6);
        }
        let long = env.p1() * 1000.0;
        let gamma = env.arrivals(long).value() / long.value();
        prop_assert!((gamma - rho).abs() / rho < 0.01);
    }

    /// The delay bound of the staircase (timed-token) analysis decreases
    /// (weakly) as the synchronous quantum grows.
    #[test]
    fn staircase_delay_monotone_in_quantum(env in dual_periodic_strategy()) {
        let cfg = AnalysisConfig::default();
        let ttrt = Seconds::from_millis(4.0);
        let rho = env.sustained_rate();
        let base_quantum = (rho * ttrt).value() * 1.3 + 1.0;
        let mut prev = f64::INFINITY;
        for mult in [1.0, 1.5, 2.5, 4.0] {
            let svc = StaircaseService::timed_token(ttrt, Bits::new(base_quantum * mult));
            let d = analyze_guaranteed_server(&env, &svc, &cfg)
                .expect("stable by construction")
                .delay_bound
                .value();
            prop_assert!(d <= prev + 1e-9, "delay increased: {d} > {prev}");
            prev = d;
        }
    }

    /// The analytic backlog bound dominates a direct arrival-minus-service
    /// evaluation on a dense grid (the analysis is an upper bound).
    #[test]
    fn backlog_bound_dominates_grid(env in dual_periodic_strategy()) {
        let cfg = AnalysisConfig::default();
        let ttrt = Seconds::from_millis(4.0);
        let quantum = Bits::new((env.sustained_rate() * ttrt).value() * 1.5 + 1.0);
        let svc = StaircaseService::timed_token(ttrt, quantum);
        let report = analyze_guaranteed_server(&env, &svc, &cfg).unwrap();
        for k in 0..400 {
            let t = Seconds::new(k as f64 * report.busy_interval.value().max(1e-6) / 399.0);
            let backlog = env.arrivals(t) - svc.provided(t);
            prop_assert!(
                backlog.value()
                    <= report.backlog_bound.value()
                        + 1e-6 * (1.0 + report.backlog_bound.value().abs()),
                "grid backlog {} exceeds bound {} at t={t}",
                backlog.value(),
                report.backlog_bound.value()
            );
        }
    }

    /// The delay bound dominates a dense-grid evaluation of the delay
    /// functional.
    #[test]
    fn delay_bound_dominates_grid(env in dual_periodic_strategy()) {
        let cfg = AnalysisConfig::default();
        let ttrt = Seconds::from_millis(4.0);
        let quantum = Bits::new((env.sustained_rate() * ttrt).value() * 1.5 + 1.0);
        let svc = StaircaseService::timed_token(ttrt, quantum);
        let report = analyze_guaranteed_server(&env, &svc, &cfg).unwrap();
        for k in 1..400 {
            let t = Seconds::new(k as f64 * report.busy_interval.value().max(1e-6) / 399.0);
            let d = (svc.time_to_provide(env.arrivals(t)) - t).value();
            prop_assert!(
                d <= report.delay_bound.value() + 1e-9,
                "grid delay {d} exceeds bound {} at t={t}",
                report.delay_bound.value()
            );
        }
    }

    /// The Theorem-1.4 output envelope dominates the input envelope
    /// (t = 0 in the maximizer) and is monotone.
    #[test]
    fn server_output_dominates_and_monotone(env in dual_periodic_strategy()) {
        let cfg = AnalysisConfig::default();
        let ttrt = Seconds::from_millis(4.0);
        let quantum = Bits::new((env.sustained_rate() * ttrt).value() * 1.5 + 1.0);
        let svc: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(ttrt, quantum));
        let arr: SharedEnvelope = Arc::new(env);
        let report = analyze_guaranteed_server(&arr, &*svc, &cfg).unwrap();
        let out = ServerOutput::new(Arc::clone(&arr), svc, report.busy_interval, None, &cfg);
        let mut prev = Bits::ZERO;
        for k in 0..100 {
            let i = Seconds::new(k as f64 * 0.002);
            let y = out.arrivals(i);
            prop_assert!(y >= arr.arrivals(i) - Bits::new(1e-6));
            prop_assert!(y >= prev - Bits::new(1e-9));
            prev = y;
        }
    }

    /// Combinator algebra: Delayed/RateCapped/Scaled/Quantized preserve
    /// monotonicity.
    #[test]
    fn combinators_preserve_monotonicity(env in dual_periodic_strategy(), delay_ms in 0.0_f64..10.0) {
        let base: SharedEnvelope = Arc::new(env);
        let chained: SharedEnvelope = Arc::new(Quantized::new(
            Arc::new(Scaled::new(
                Arc::new(RateCapped::new(
                    Arc::new(Delayed::new(Arc::clone(&base), Seconds::from_millis(delay_ms))),
                    BitsPerSec::from_mbps(100.0),
                )),
                53.0 / 48.0,
            )),
            Bits::new(424.0),
            Bits::new(424.0),
        ));
        let mut prev = Bits::ZERO;
        for k in 0..150 {
            let i = Seconds::new(k as f64 * 0.0013);
            let a = chained.arrivals(i);
            prop_assert!(a >= prev - Bits::new(1e-6), "k={k}");
            prev = a;
        }
    }

    /// Aggregating N identical flows scales arrivals by N.
    #[test]
    fn aggregate_scales(env in dual_periodic_strategy(), n in 1_usize..6, i in interval_strategy()) {
        let shared: SharedEnvelope = Arc::new(env);
        let agg: Aggregate = std::iter::repeat_with(|| Arc::clone(&shared))
            .take(n)
            .collect();
        let single = shared.arrivals(i).value();
        let total = agg.arrivals(i).value();
        prop_assert!((total - single * n as f64).abs() <= 1e-6 * (1.0 + total.abs()));
    }

    /// Leaky bucket with peak: arrivals always within both constraints.
    #[test]
    fn leaky_bucket_within_constraints(
        sigma in 0.0_f64..1e5,
        rho in 1.0_f64..1e6,
        peak_mul in 1.0_f64..100.0,
        i in interval_strategy(),
    ) {
        let peak = BitsPerSec::new(rho * peak_mul);
        let lb = LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::new(rho))
            .unwrap()
            .with_peak(peak)
            .unwrap();
        let a = lb.arrivals(i).value();
        prop_assert!(a <= sigma + rho * i.value() + 1e-6);
        prop_assert!(a <= peak.value() * i.value() + 1e-6);
    }

    /// Rate-latency analysis of a (σ,ρ) flow matches the closed form for
    /// random parameters.
    #[test]
    fn rate_latency_closed_form(
        sigma in 1.0_f64..1e5,
        rho in 1.0_f64..1e5,
        rate_mul in 1.1_f64..10.0,
        latency_ms in 0.0_f64..50.0,
    ) {
        let arr = LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::new(rho)).unwrap();
        let rate = rho * rate_mul;
        let svc = RateLatencyService::new(BitsPerSec::new(rate), Seconds::from_millis(latency_ms));
        // The busy period sigma/(rate-rho) can be enormous for slow flows;
        // give the search all the horizon it needs.
        let cfg = AnalysisConfig {
            max_horizon: Seconds::new(1.0e8),
            ..AnalysisConfig::default()
        };
        let r = analyze_guaranteed_server(&arr, &svc, &cfg).unwrap();
        let expect_delay = latency_ms * 1e-3 + sigma / rate;
        let expect_backlog = sigma + rho * latency_ms * 1e-3;
        prop_assert!((r.delay_bound.value() - expect_delay).abs() <= 1e-6 * (1.0 + expect_delay));
        prop_assert!(
            (r.backlog_bound.value() - expect_backlog).abs() <= 1e-3 * (1.0 + expect_backlog)
        );
    }

    /// Periodic is the P2 = P1 slice of dual-periodic.
    #[test]
    fn periodic_is_dual_special_case(
        c in 1.0e3_f64..1.0e5,
        p_ms in 1.0_f64..50.0,
        peak_mul in 1.1_f64..10.0,
        i in interval_strategy(),
    ) {
        let p = Seconds::from_millis(p_ms);
        let peak = BitsPerSec::new(c / p.value() * peak_mul);
        let single = PeriodicEnvelope::new(Bits::new(c), p, peak).unwrap();
        let dual =
            DualPeriodicEnvelope::new(Bits::new(c), p, Bits::new(c), p, peak).unwrap();
        let (a, b) = (single.arrivals(i).value(), dual.arrivals(i).value());
        prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()));
    }

    /// Constant-rate flows through a staircase: delay bound is at most
    /// latency_periods * period once stable.
    #[test]
    fn trickle_delay_bounded_by_two_rotations(
        rate in 1.0_f64..1000.0,
        ttrt_ms in 1.0_f64..20.0,
    ) {
        let arr = ConstantRateEnvelope::new(BitsPerSec::new(rate));
        let ttrt = Seconds::from_millis(ttrt_ms);
        let quantum = Bits::new(rate * ttrt.value() * 2.0 + 10.0);
        let svc = StaircaseService::timed_token(ttrt, quantum);
        let r = analyze_guaranteed_server(&arr, &svc, &AnalysisConfig::default()).unwrap();
        prop_assert!(r.delay_bound.value() <= 2.0 * ttrt.value() + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A table built from a warm [`OutputTableMemo`] is the table
    /// `Sampled::flatten` builds, bit for bit. One arrival and one busy
    /// interval are served at three staircase quanta, twice over, from
    /// one memo: the rows the first quanta filled serve the later ones,
    /// and the second pass fills none. The analysis horizon of 0.2 s puts
    /// the pruning edge (twice it) inside the 0.6 s table, so both the
    /// kept candidates' points and the every-candidate points past the
    /// edge are built from the memo. A memo built for another busy
    /// interval is rebuilt, not misread.
    #[test]
    fn memoized_output_table_matches_the_flattened_one(
        (which, dual, periodic, bucket) in (
            0_usize..3,
            dual_periodic_strategy(),
            periodic_strategy(),
            leaky_bucket_strategy(),
        ),
        (ttrt_ms, k, mode, frac) in (2.0_f64..10.0, 2_usize..12, 0_usize..3, 0.05_f64..0.95),
        quanta in proptest::collection::vec(0.6_f64..4.0, 3..4),
        capped in proptest::bool::ANY,
    ) {
        let arrival: SharedEnvelope = match which {
            0 => Arc::new(dual),
            1 => Arc::new(periodic),
            _ => Arc::new(bucket),
        };
        let cfg = AnalysisConfig {
            max_horizon: Seconds::new(0.2),
            ..AnalysisConfig::default()
        };
        let (horizon, subdivisions) = (Seconds::new(0.6), 1);
        let ttrt = Seconds::from_millis(ttrt_ms);
        let busy = busy_interval(ttrt, k, mode, frac);
        let cap = capped.then(|| BitsPerSec::new(1.0e8));
        let per_rotation = arrival.sustained_rate() * ttrt;
        let outputs: Vec<Arc<ServerOutput>> = quanta
            .iter()
            .map(|&m| {
                let svc = StaircaseService::timed_token(ttrt, per_rotation * m + Bits::new(1.0));
                Arc::new(ServerOutput::new(Arc::clone(&arrival), Arc::new(svc), busy, cap, &cfg))
            })
            .collect();
        let mut memo = OutputTableMemo::new(&outputs[0], horizon, subdivisions);
        let mut filled = Vec::new();
        for _ in 0..2 {
            for output in &outputs {
                let memoized = Arc::clone(output).flatten_with(&mut memo);
                let flat = Sampled::flatten(Arc::clone(output) as SharedEnvelope, horizon, subdivisions);
                assert_same_table(&memoized, &flat, horizon);
            }
            filled.push(memo.rows_filled());
        }
        prop_assert_eq!(filled[0], filled[1], "a warm memo filled more rows");

        let elsewhere = Arc::new(ServerOutput::new(
            Arc::clone(&arrival),
            Arc::new(StaircaseService::timed_token(ttrt, per_rotation * 2.0 + Bits::new(1.0))),
            busy + ttrt * 0.5,
            cap,
            &cfg,
        ));
        let mut stale = OutputTableMemo::new(&elsewhere, horizon, subdivisions);
        let rebuilt = Arc::clone(&outputs[0]).flatten_with(&mut stale);
        let flat = Sampled::flatten(Arc::clone(&outputs[0]) as SharedEnvelope, horizon, subdivisions);
        assert_same_table(&rebuilt, &flat, horizon);
    }
}
