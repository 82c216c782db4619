//! Worst-case analysis of a guaranteed-service server.
//!
//! This module implements, in the generic envelope/service-curve language
//! of this crate, the analysis that the paper's Theorem 1 performs for the
//! FDDI MAC:
//!
//! * the **maximum busy interval** `B = min{t > 0 : A(t) ≤ S(t)}`
//!   (Theorem 1.1, with `S = avail`),
//! * the **maximum backlog** `F = max_{0<t≤B} (A(t) − S(t))`
//!   (Theorem 1.2 — the buffer requirement),
//! * the **worst-case delay**
//!   `χ = max_{0<t≤B} min{d : S(t+d) ≥ A(t)}` (Theorem 1.3), and
//! * the **output-traffic envelope**
//!   `Υ(I) = min(cap·I, max_{0≤t≤B} (A(t+I) − S(t)))` (Theorem 1.4),
//!   provided by [`ServerOutput`].
//!
//! The same machinery, instantiated with other service curves, analyzes
//! the 802.5 token-ring MAC of the paper's §7 extension and any
//! rate-latency scheduler.

use crate::approx;
use crate::combinators::Sampled;
use crate::envelope::{
    bisect, candidate_times, with_clamped, with_scratch, Envelope, SharedEnvelope,
    SUBADDITIVE_ARG_TOL,
};
use crate::error::TrafficError;
use crate::service::ServiceCurve;
use crate::units::{Bits, BitsPerSec, Seconds};
use std::ops::Range;
use std::sync::Arc;

/// Tuning knobs for the candidate-point optimizations.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisConfig {
    /// Uniform guard points inserted between consecutive natural
    /// breakpoints, protecting against envelopes whose breakpoint lists
    /// are approximate. Higher is tighter but slower.
    pub guard_subdivisions: usize,
    /// Hard cap on the busy-interval search horizon; exceeding it yields
    /// [`TrafficError::HorizonExhausted`].
    pub max_horizon: Seconds,
    /// Relative margin by which the arrival rate must stay below the
    /// service rate to be considered stable.
    pub stability_margin: f64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            guard_subdivisions: 4,
            max_horizon: Seconds::new(60.0),
            stability_margin: 1.0e-9,
        }
    }
}

/// The result of analyzing a guaranteed-service server for one flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerAnalysis {
    /// Maximum length of a busy interval (Theorem 1.1).
    pub busy_interval: Seconds,
    /// Maximum backlog — the buffer required for loss-free operation
    /// (Theorem 1.2).
    pub backlog_bound: Bits,
    /// Worst-case queueing + transmission delay through the server
    /// (Theorem 1.3).
    pub delay_bound: Seconds,
}

/// Analyzes a flow with arrival envelope `arrival` served under the
/// guaranteed service curve `service`.
///
/// # Errors
///
/// * [`TrafficError::Unstable`] if the flow's sustained rate is not
///   strictly below the service rate;
/// * [`TrafficError::HorizonExhausted`] if the busy interval does not
///   close within `cfg.max_horizon`.
pub fn analyze_guaranteed_server(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    cfg: &AnalysisConfig,
) -> Result<ServerAnalysis, TrafficError> {
    let rho = arrival.sustained_rate();
    let srv = service.sustained_rate();
    if rho.value() >= srv.value() * (1.0 - cfg.stability_margin) {
        return Err(TrafficError::Unstable {
            arrival_rate: rho,
            service_rate: srv,
        });
    }

    let busy_interval = find_busy_interval(arrival, service, cfg)?;
    let maxima = busy_maxima(arrival, service, busy_interval, cfg);
    Ok(ServerAnalysis {
        busy_interval,
        backlog_bound: Bits::new(maxima.backlog.max(0.0)),
        delay_bound: Seconds::new(maxima.delay.max(0.0)),
    })
}

/// The backlog and delay maxima of Theorems 1.2 and 1.3 over `(0, B]`,
/// before their floor at zero.
#[derive(Debug)]
pub(crate) struct BusyMaxima {
    pub(crate) backlog: f64,
    pub(crate) delay: f64,
}

impl BusyMaxima {
    /// Folds the arrival `a` at the instant `t > 0` into both maxima.
    fn fold(&mut self, service: &dyn ServiceCurve, t: Seconds, a: Bits) {
        self.backlog = self.backlog.max((a - service.provided(t)).value());
        self.delay = self.delay.max((service.time_to_provide(a) - t).value());
    }
}

/// The maxima over the candidate grid of `(0, B]`, then over the
/// instants just past each quantum level the arrival crosses.
///
/// `time_to_provide` is discontinuous at the service's level breakpoints
/// (the quantum multiples of a staircase), so the delay maximum is
/// approached just past the arrival instants crossing those levels,
/// which are not breakpoints of `A` or `S`. Each level `L` adds the
/// candidates `t_L = min_interval(L, B)` and `t_L + ε`, unless
/// [`level_bounds`] proves from the grid that neither can raise the
/// maxima folded so far; then its inversion is skipped. The grid is
/// folded first and the levels in order, as when every level was
/// inverted, so skipping terms no larger than the running maxima leaves
/// both floats unchanged: a skip needs a positive backlog maximum, and
/// no delay term is `-0.0`, so no skipped term ties a maximum with other
/// bits.
pub(crate) fn busy_maxima(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    busy_interval: Seconds,
    cfg: &AnalysisConfig,
) -> BusyMaxima {
    // Candidate evaluation points within (0, B], sorted, evaluated as
    // one batch.
    let ts = busy_candidates(arrival, service, busy_interval, cfg);
    let mut values = Vec::with_capacity(ts.len());
    arrival.arrivals_sorted(&ts, &mut values);
    let mut maxima = BusyMaxima {
        backlog: 0.0,
        delay: 0.0,
    };
    for (&t, &a) in ts.iter().zip(&values) {
        if t > 0.0 {
            maxima.fold(service, Seconds::new(t), Bits::new(a));
        }
    }

    let eps = (busy_interval * 1.0e-9).max(Seconds::new(1.0e-12));
    let mut levels = Vec::new();
    service.level_breakpoints(arrival.arrivals(busy_interval), &mut levels);
    let burst = arrival.burst().value();
    for level in levels {
        let skip = maxima.backlog > 0.0
            && !approx::approx_le(level.value(), burst)
            && level_bounds(service, &ts, &values, level, eps)
                .is_some_and(|(b, d)| b <= maxima.backlog && d <= maxima.delay);
        if skip {
            continue;
        }
        if let Some(t) = arrival.min_interval(level, busy_interval) {
            for cand in [t, t + eps] {
                if cand > Seconds::ZERO && cand <= busy_interval {
                    maxima.fold(service, cand, arrival.arrivals(cand));
                }
            }
        }
    }
    maxima
}

/// Upper bounds on the backlog and delay terms at the two candidates
/// `t_L` and `t_L + ε` of the level `L`, read off the sorted grid `ts`
/// and its arrival values, or `None` where the grid does not bracket
/// `L`.
///
/// With `g⁻` a grid point with `A(g⁻) < L·(1 − 10⁻⁹)`, `g⁺` a later one
/// with `A(g⁺) ≥ L·(1 + 10⁻⁹)`, and `a⁺` the value at the first grid
/// point at or past `g⁺ + 2ε`, the bounds are
/// `a⁺·(1 + 10⁻⁹) − S(g⁻)` and `time_to_provide(a⁺·(1 + 10⁻⁹)) − g⁻`.
///
/// Proof, for a level with `L > 0` above the burst by more than the
/// `approx_le` tolerance, so that `min_interval` bisects `[0, B]` on
/// `A(t) ≥ L` (a `Sampled` closed form returns the same float). The
/// arrival is nondecreasing up to ulp-level slack, far below the
/// `10⁻⁹` margins, so `A < L` on `[0, g⁻]` and `A ≥ L` on `[g⁺, B]`.
///
/// 1. `t_L > g⁻`: the bisection's `hi` is `B ≥ g⁺` or a point that
///    reaches `L`.
/// 2. `t_L < g⁺ + ε`: every `lo` fails to reach `L`, so `lo < g⁺`, and
///    80 halvings of `[0, B]` (or convergence to adjacent floats) leave
///    `hi − lo` within a few ulps of `B`, far below `ε = 10⁻⁹·B`.
/// 3. So both candidates lie in `(g⁻, g⁺ + 2ε)`, below the grid point
///    `a⁺` is read at: `S(c) ≥ S(g⁻)`, `c > g⁻` and `A(c) ≤ a⁺·(1 + 10⁻⁹)`.
///    `S` and `time_to_provide` are nondecreasing and rounding is
///    monotone, so each term is at most its bound.
fn level_bounds(
    service: &dyn ServiceCurve,
    ts: &[f64],
    values: &[f64],
    level: Bits,
    eps: Seconds,
) -> Option<(f64, f64)> {
    let (below, above) = (
        level.value() * (1.0 - approx::REL_TOL),
        level.value() * (1.0 + approx::REL_TOL),
    );
    // The arrival values are nondecreasing up to ulps, so the partition
    // points are checked, not trusted.
    let low = values.partition_point(|&a| a < below).checked_sub(1)?;
    let high = values.partition_point(|&a| a < above);
    if !(values[low] < below && values.get(high).is_some_and(|&a| a >= above) && low < high) {
        return None;
    }
    let reach = ts[high] + 2.0 * eps.value();
    let top = Bits::new(values.get(ts.partition_point(|&t| t < reach))? * (1.0 + approx::REL_TOL));
    let g = Seconds::new(ts[low]);
    Some((
        (top - service.provided(g)).value(),
        (service.time_to_provide(top) - g).value(),
    ))
}

/// Candidate points in `[0, B]` for extremum searches at this server,
/// sorted, in seconds.
fn busy_candidates(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    busy: Seconds,
    cfg: &AnalysisConfig,
) -> Vec<f64> {
    let mut extra = Vec::new();
    service.breakpoints(busy, &mut extra);
    candidate_times(&[arrival], &extra, busy, cfg.guard_subdivisions)
}

/// Finds the end of the maximal backlogged horizon: the time after the
/// *last* instant at which `A(t) > S(t)`.
///
/// For service curves that start at zero (FDDI's `avail`) this coincides
/// with the paper's minimal busy interval `min{t > 0 : A(t) ≤ S(t)}`; for
/// curves with an instantaneous burst (a greedy shaper's `σ + ρt`) the
/// minimal definition would close at `t → 0⁺` and miss the real backlog,
/// so the last-violation form is the sound general choice. Backlog and
/// delay maximizations past this point contribute nothing (there
/// `A(t) ≤ S(t)`, so both extrema are non-positive).
fn find_busy_interval(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    cfg: &AnalysisConfig,
) -> Result<Seconds, TrafficError> {
    // Initial horizon: a few service "latencies" past the time the server
    // needs to clear the first burst.
    let seed = service
        .time_to_provide(arrival.burst() + Bits::new(1.0))
        .max(Seconds::from_micros(1.0));
    // Cover at least one full source period: for a subadditive arrival
    // envelope and a superadditive service curve, a violation-free period
    // implies a violation-free future (A(nP+s) <= n*A(P) + A(s) <=
    // n*S(P) + S(s) <= S(nP+s)). Curves with an up-front burst lack the
    // superadditivity step, so scan several periods before concluding.
    let periods = if service.is_superadditive() { 1.0 } else { 4.0 };
    let floor = arrival.period_hint().map_or(Seconds::ZERO, |p| p * periods);
    let mut horizon = (seed * 8.0).max(floor).min(cfg.max_horizon);

    loop {
        let mut steps = Vec::new();
        service.breakpoints(horizon, &mut steps);
        let settled = if service.is_piecewise_constant() {
            step_window_iteration(arrival, service, &steps, horizon, cfg.max_horizon)
        } else {
            None
        };
        let iteration = settled.unwrap_or_else(|| {
            let ts = candidate_times(&[arrival], &steps, horizon, cfg.guard_subdivisions);
            // Never backlogged within the horizon: the flow conforms to
            // the service everywhere.
            let Some(idx) = last_violation(arrival, service, &ts) else {
                return Iteration::Closed(Seconds::ZERO);
            };
            let tv = Seconds::new(ts[idx]);
            // Require a clean tail of at least half the horizon before
            // trusting that the backlog never reopens (stability makes
            // the service-arrival gap grow past this point).
            match ts.get(idx + 1) {
                Some(&next) if tv.value() <= horizon.value() * 0.5 => {
                    // Refine into (tv, next]; the result satisfies the
                    // condition and upper-bounds every violation, so it
                    // is a sound maximization range. `tv` itself was just
                    // found violated, so the bisection's lower end starts
                    // tested.
                    let violated =
                        |t: Seconds| t > Seconds::ZERO && arrival.arrivals(t) > service.provided(t);
                    let hi = bisect(tv.value(), next, 60, true, |mid| {
                        !violated(Seconds::new(mid))
                    });
                    Iteration::Closed(Seconds::new(hi))
                }
                _ => grow(horizon, Some(tv), cfg.max_horizon),
            }
        });
        match iteration {
            Iteration::Closed(busy) => return Ok(busy),
            Iteration::Grow(next) => horizon = next,
            Iteration::Exhausted => {
                return Err(TrafficError::HorizonExhausted {
                    horizon: cfg.max_horizon,
                })
            }
        }
    }
}

/// What one iteration of the busy-interval search at horizon `h` does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Iteration {
    /// The search ends with this busy interval.
    Closed(Seconds),
    /// The search goes on at this longer horizon.
    Grow(Seconds),
    /// The horizon is the cap and cannot grow: `HorizonExhausted`.
    Exhausted,
}

/// The iteration that grows the horizon `h` toward the cap `max`: past
/// `2.2` times the last violation `tv` (the clean-tail requirement) and
/// at least twice over, rather than blindly doubling. Nondecreasing in
/// `tv`. Exhausted once `h` is the cap.
pub(crate) fn grow(h: Seconds, tv: Option<Seconds>, max: Seconds) -> Iteration {
    if h.value() >= max.value() {
        return Iteration::Exhausted;
    }
    let want = tv.map_or(h.value() * 2.0, |t| (t.value() * 2.2).max(h.value() * 2.0));
    Iteration::Grow(Seconds::new(want.min(max.value())))
}

/// The busy search's iteration at horizon `h` under the piecewise-
/// constant `service`, settled from two arrival probes per step window
/// instead of the grid `candidate_times(&[arrival], steps, h, n)` (for
/// any `n`), or `None` where the probes do not prove what the grid
/// iteration does.
///
/// `steps` must be `service.breakpoints(h)`, the list the grid is built
/// from. The window ends `e_1 < … < e_m` are the steps and `h`; window
/// `j` is `[e_{j−1}, e_j]` (`e_0 = 0`), and the windows cover every grid
/// point. Per window, with `ε = 10⁻⁹·h` (the grid's guard, floored at
/// `10⁻¹²` as there) and `τ = fl(10⁻⁹·max(1, e_j))` (the
/// [`approx_eq`](crate::approx::approx_eq) tolerance at `e_j`), the
/// arrival is evaluated at the lower probe `x_j = e_j − 2(τ + ε)` and at
/// `e_j`, in sorted batches from the last window down, as far as the
/// tests below need. The arrival is nondecreasing
/// up to the ulp-level slack of float evaluation, and both tests below
/// carry a `10⁻⁹` relative margin, far above that slack.
///
/// * **Clean.** `A(e_j) < S(e_{j−1})·(1 − 10⁻⁹)`: `S` is nondecreasing,
///   so no grid point of the window is violated. The grid's last
///   violation `tv`, if any, lies below `e_k` for the last window `k`
///   not proven clean (or at most `h`, when that is the last window).
///   When every window is clean the grid holds no violation and the
///   search closes at zero.
/// * **Violated (the step-end lemma).** `x_j > 0`, `S(x_j) == S(e_j − ε)`
///   and `!approx_le(A(x_j), S(x_j))`: the grid holds a violated point
///   `g ∈ [x_j, fl(e_j − ε)]`, so `tv ≥ x_j`.
///   1. The grid's raw list holds `e_j`, sorted, then deduplicated under
///      `approx_eq` against the last point kept, so the point kept for
///      `e_j` is `p ≥ e_j − τ − ulp(e_j)`, and its left guard
///      `g = fl(p − ε)` is in the grid. Rounding is monotone, so
///      `g ≤ fl(e_j − ε)`, and `g > x_j`, since `τ + ε` dwarfs the ulps.
///   2. `S(x_j) ≤ S(g) ≤ S(fl(e_j − ε)) = S(x_j)`. The equality is
///      checked, not assumed: `floor_div`'s nudge moves a staircase step
///      up to `10⁻⁹·e_j` early, which can put `e_j − ε` on the next step
///      when `e_j` is the horizon.
///   3. `A(g) ≥ A(x_j) − slack > S(x_j) = S(g)`.
///
///   The same argument without the arrival puts a grid point in
///   `[x_j, e_j]` for every window.
///
/// With `tv` bracketed in `[x, e_k]` for the largest firing `x`:
///
/// 1. `x > h/2`: the grid grows the horizon past `tv` (or is exhausted).
///    [`grow`] is nondecreasing in `tv`, so where it gives the same
///    iteration at `x` and at `e_k` (`2h ≥ max`, `2.2·x ≥ max` or
///    `2.2·e_k ≤ 2h`), that is the grid's.
/// 2. `e_k ≤ h/2` and the lemma fires at window `k` itself: `tv < e_k`,
///    so the grid bisects from `tv` to the next grid point. Let
///    `L = S(x_k)` and `b` the first float with `S(b) > L`. The arrival
///    exceeds `S = L` on `[x_k, b)`; the window `k + 1` is clean, and
///    `S(b) == S(e_k)` is checked, so nothing is violated on
///    `[b, e_{k+1}]`. Hence `tv` is the last grid point below `b`, the
///    next one is at most `e_{k+1}` (a grid point lies in
///    `[x_{k+1}, e_{k+1}]`, past `b` since `S(x_{k+1}) > L` is checked),
///    and the grid's bisection tests exactly `t ≥ b`. So does a
///    bisection of `[x_k, x_{k+1}]` on `S` alone. Both brackets lie in
///    `[x_k, e_{k+1}]`, and `e_{k+1} ≤ 2·x_k` is checked: the brackets
///    hold at most `2⁵³` ulps of their lower end, each halving leaves at
///    most half the width plus half an ulp of the upper end, and so
///    both converge to the adjacent floats around `b` within 56 of the
///    60 steps. Both return `b`.
///
/// Anything else proves nothing, and the caller builds the grid.
pub(crate) fn step_window_iteration(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    steps: &[Seconds],
    horizon: Seconds,
    max_horizon: Seconds,
) -> Option<Iteration> {
    let h = horizon.value();
    let eps = (h * 1.0e-9).max(1.0e-12);
    let mut ends: Vec<f64> = steps.iter().map(|s| s.value()).collect();
    if ends.last() != Some(&h) {
        ends.push(h);
    }
    if ends[0] <= 0.0 || ends.windows(2).any(|w| w[0] >= w[1]) {
        return None;
    }
    let lower = |e: f64| e - 2.0 * (approx::REL_TOL * e.max(1.0) + eps);
    let served = |t: f64| service.provided(Seconds::new(t)).value();

    // Scan the windows from the last one down, evaluating `A(x_j)` and
    // `A(e_j)` in batches of 8 windows as far as the scan reaches. It
    // stops at the last window not proven clean, or below it once it has
    // the largest firing probe (the probes rise with `j`) or no probe
    // past `h/2` is left.
    let mut values = vec![0.0; 2 * ends.len()];
    let mut from = ends.len();
    let (mut last, mut low) = (None, None);
    for j in (0..ends.len()).rev() {
        if j < from {
            let start = from.saturating_sub(8);
            let probes: Vec<f64> = ends[start..from]
                .iter()
                .flat_map(|&e| [lower(e), e])
                .collect();
            values[2 * start..2 * from].copy_from_slice(&arrivals_in_order(arrival, &probes));
            from = start;
        }
        let (x, level) = (lower(ends[j]), served(lower(ends[j])));
        let fires =
            x > 0.0 && level == served(ends[j] - eps) && !approx::approx_le(values[2 * j], level);
        let floor = served(if j == 0 { 0.0 } else { ends[j - 1] });
        let clean = values[2 * j + 1] < floor * (1.0 - approx::REL_TOL);
        if fires && low.is_none() {
            low = Some(x);
        }
        if !clean && last.is_none() {
            last = Some((j, fires));
        }
        if last.is_some() && (low.is_some() || x <= h * 0.5) {
            break;
        }
    }
    let Some((k, k_fires)) = last else {
        return Some(Iteration::Closed(Seconds::ZERO));
    };
    let high = ends[k];
    if let Some(x) = low.filter(|&x| x > h * 0.5) {
        let settled = grow(horizon, Some(Seconds::new(x)), max_horizon);
        return (settled == grow(horizon, Some(Seconds::new(high)), max_horizon))
            .then_some(settled);
    }
    if !(high <= h * 0.5 && k_fires) {
        return None;
    }
    let (x, next) = (lower(high), lower(ends[k + 1]));
    let level = served(x);
    if !(served(next) > level && ends[k + 1] <= 2.0 * x) {
        return None;
    }
    let b = bisect(x, next, 60, true, |t| served(t) > level);
    (served(b) == served(high)).then_some(Iteration::Closed(Seconds::new(b)))
}

/// The arrival at each of the points `ts`, in their order, evaluated as
/// one sorted batch.
fn arrivals_in_order(arrival: &dyn Envelope, ts: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..ts.len()).collect();
    order.sort_by(|&i, &j| ts[i].total_cmp(&ts[j]));
    let sorted: Vec<f64> = order.iter().map(|&i| ts[i]).collect();
    let mut batch = Vec::with_capacity(ts.len());
    arrival.arrivals_sorted(&sorted, &mut batch);
    let mut values = vec![0.0; ts.len()];
    for (&i, v) in order.iter().zip(batch) {
        values[i] = v;
    }
    values
}

/// The index of the last of the sorted points `ts` (seconds) at which
/// the arrival exceeds the service, `A(t) > S(t)` with `t > 0`: what
/// `ts.iter().rposition(..)` returns. Only the last violation matters, so
/// the scan starts at the end, evaluating chunks of 32, 64, 128, …
/// points as batches, and stops in the first chunk holding a violation.
pub(crate) fn last_violation(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    ts: &[f64],
) -> Option<usize> {
    with_scratch(|values| {
        let (mut end, mut chunk) = (ts.len(), 32);
        while end > 0 {
            let start = end.saturating_sub(chunk);
            values.clear();
            arrival.arrivals_sorted(&ts[start..end], values);
            let found = ts[start..end]
                .iter()
                .zip(values.iter())
                .rposition(|(&t, &a)| {
                    let t = Seconds::new(t);
                    t > Seconds::ZERO && Bits::new(a) > service.provided(t)
                });
            if let Some(k) = found {
                return Some(start + k);
            }
            (end, chunk) = (start, chunk * 2);
        }
        None
    })
}

/// The envelope of the traffic *leaving* a guaranteed-service server —
/// the paper's Theorem 1.4:
///
/// `Υ(I) = min(cap · I, max_{0 ≤ t ≤ B} (A(t+I) − S(t)))`
///
/// where `cap` is the transmission rate of the medium the output is
/// observed on (`BW_FDDI` in Theorem 1).
///
/// The maximum runs over a fixed list of candidate instants `t_k`.
/// When the arrival envelope is subadditive
/// ([`Envelope::is_subadditive`]), [`ServerOutput::new`] drops, once,
/// every candidate another candidate dominates at every interval up to
/// twice the analysis horizon, and [`Envelope::arrivals`] scans only the
/// kept ones there: the same float, from fewer evaluations. Past that
/// it scans them all.
///
/// [`ServerOutput::flatten_with`] builds its flattened table from an
/// [`OutputTableMemo`] shared with the outputs of other service rates
/// at the same busy interval.
#[derive(Debug, Clone)]
pub struct ServerOutput {
    arrival: SharedEnvelope,
    service: Arc<dyn ServiceCurve>,
    busy_interval: Seconds,
    cap: Option<BitsPerSec>,
    /// Precomputed maximizer candidates `t ∈ [0, B]`, each paired with
    /// the service it has received, `S(t)`, which does not depend on the
    /// queried interval.
    pub(crate) t_candidates: Vec<(Seconds, Bits)>,
    /// The indices into `t_candidates` of the candidates no other
    /// candidate dominates up to `exact_to` (all of them when the arrival
    /// is not subadditive), in order.
    kept: Vec<usize>,
    /// The longest interval at which the maximum over `kept` is proven
    /// to be the maximum over `t_candidates`.
    pub(crate) exact_to: Seconds,
}

/// Relative margin of the dominance test, against the magnitudes of the
/// values it compares: `3γ` of the proof plus the test's own roundings,
/// with room to spare (`γ` is
/// [`SUBADDITIVE_VALUE_TOL`](crate::envelope::SUBADDITIVE_VALUE_TOL)).
pub(crate) const DOMINANCE_MARGIN: f64 = 1.0e-12;

impl ServerOutput {
    /// Builds the output envelope for `arrival` served under `service`
    /// with maximum busy interval `busy_interval` (from
    /// [`analyze_guaranteed_server`]), observed on a medium of rate `cap`
    /// (or unbounded when `None`).
    ///
    /// The pruning is proven exact for intervals up to twice
    /// `cfg.max_horizon`: searches stop at the horizon, and the delays
    /// downstream hops add to a query stay well below it again.
    #[must_use]
    pub fn new(
        arrival: SharedEnvelope,
        service: Arc<dyn ServiceCurve>,
        busy_interval: Seconds,
        cap: Option<BitsPerSec>,
        cfg: &AnalysisConfig,
    ) -> Self {
        // For a staircase service, S is flat between steps while A(t+I)
        // is nondecreasing in t, so the maximizer of A(t+I) − S(t) within
        // each step window sits at its right edge: the exact candidate
        // set is {0} ∪ {steps − ε} ∪ {B}.
        let mut t_candidates = if service.is_piecewise_constant() {
            let eps = (busy_interval * 1.0e-9).max(Seconds::new(1.0e-12));
            let mut steps = Vec::new();
            service.breakpoints(busy_interval, &mut steps);
            let mut v = vec![Seconds::ZERO];
            v.extend(steps.into_iter().map(|t| (t - eps).clamp_min_zero()));
            v.push(busy_interval);
            v
        } else {
            busy_candidates(&arrival, &*service, busy_interval, cfg)
                .into_iter()
                .map(Seconds::new)
                .collect()
        };
        if t_candidates.first() != Some(&Seconds::ZERO) {
            t_candidates.insert(0, Seconds::ZERO);
        }
        let t_candidates: Vec<(Seconds, Bits)> = t_candidates
            .into_iter()
            .map(|t| (t, service.provided(t)))
            .collect();
        let exact_to = cfg.max_horizon * 2.0;
        let kept = if arrival.is_subadditive() {
            undominated(&arrival, &t_candidates, busy_interval + exact_to)
        } else {
            (0..t_candidates.len()).collect()
        };
        Self {
            arrival,
            service,
            busy_interval,
            cap,
            t_candidates,
            kept,
            exact_to,
        }
    }

    /// The maximum busy interval used as the maximizer range.
    #[must_use]
    pub fn busy_interval(&self) -> Seconds {
        self.busy_interval
    }

    /// The Theorem-1.4 maximum `best` at interval `i`, floored at zero
    /// and capped at the medium's rate.
    fn capped(&self, best: f64, i: Seconds) -> Bits {
        let unbounded = Bits::new(best.max(0.0));
        match self.cap {
            Some(cap) => unbounded.min(cap * i),
            None => unbounded,
        }
    }

    /// The number of maximizer candidates kept, and of all of them.
    #[must_use]
    pub fn candidate_counts(&self) -> (usize, usize) {
        (self.kept.len(), self.t_candidates.len())
    }

    /// The indices of the candidates the maximum runs over, in order: the
    /// kept ones at intervals up to `exact_to` (`pruned`), every one past
    /// it.
    fn scan(&self, pruned: bool) -> impl Iterator<Item = usize> + '_ {
        let kept = pruned.then(|| self.kept.iter().copied());
        let all = (!pruned).then_some(0..self.t_candidates.len());
        kept.into_iter().flatten().chain(all.into_iter().flatten())
    }

    /// The terms of the maxima at the nondecreasing, nonnegative points
    /// `is`, in the order they are folded: each candidate the maximum
    /// scans, with the range of points it is scanned at (the kept ones
    /// for the points up to `exact_to`, then every one for those past
    /// it).
    fn terms(&self, is: &[f64]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let split = is.partition_point(|&i| Seconds::new(i) <= self.exact_to);
        [(0..split, true), (split..is.len(), false)]
            .into_iter()
            .filter(|(range, _)| !range.is_empty())
            .flat_map(move |(range, pruned)| self.scan(pruned).map(move |k| (k, range.clone())))
    }

    /// Caps the maxima `best` at the points `is` in place.
    fn cap_all(&self, is: &[f64], best: &mut [f64]) {
        for (b, &i) in best.iter_mut().zip(is) {
            *b = self.capped(*b, Seconds::new(i)).value();
        }
    }

    /// This output flattened over `memo`'s horizon and subdivisions:
    /// bit for bit [`Sampled::flatten`]'s table, sharing `memo`'s grid.
    ///
    /// Each point's maximum takes the candidates in the order
    /// [`Envelope::arrivals`] does, from the arrival values `memo` holds
    /// per candidate, which [`Envelope::arrivals_sorted`] evaluated over
    /// the whole grid the first time an output needed that candidate: the
    /// same floats, in the same order of operations. A memo built for
    /// another arrival, busy interval or step list is rebuilt first.
    #[must_use]
    pub fn flatten_with(self: Arc<Self>, memo: &mut OutputTableMemo) -> Sampled {
        if !memo.fits(&self) {
            *memo = OutputTableMemo::new(&self, memo.horizon, memo.subdivisions);
        }
        let grid = Arc::clone(&memo.grid);
        let mut vals = vec![0.0; grid.len()];
        for (k, range) in self.terms(&grid) {
            let (t, served) = self.t_candidates[k];
            let row = memo.row(k, t);
            fold_candidate(&mut vals[range.clone()], &row[range], served);
        }
        self.cap_all(&grid, &mut vals);
        let horizon = memo.horizon;
        Sampled::from_table(self, grid, vals, horizon)
    }

    /// The service's step instants up to the busy interval.
    fn steps(&self) -> Vec<Seconds> {
        let mut steps = Vec::new();
        self.service.breakpoints(self.busy_interval, &mut steps);
        steps
    }
}

/// Folds one candidate's term into the running maxima `best`, given its
/// arrival values `values` at the shifted points and its served bits.
fn fold_candidate(best: &mut [f64], values: &[f64], served: Bits) {
    for (b, &a) in best.iter_mut().zip(values) {
        *b = b.max((Bits::new(a) - served).value());
    }
}

/// The part of a flattened [`ServerOutput`] table that every output of
/// one arrival with one busy interval `B` and one service step list
/// shares, whatever the service's rate: the sample grid, and per
/// maximizer candidate `t_k` the arrival values `Â(fl(t_k + i))` at
/// every grid point `i`.
///
/// The grid is the output's candidate points, the arrival's corners
/// shifted by the service steps, and the candidates are `{0}`, the steps
/// and `B`; neither reads a served value. A row is evaluated the first
/// time some output keeps its candidate, so the memo holds only the rows
/// some rate needed. [`ServerOutput::flatten_with`] builds each table
/// from it.
#[derive(Debug)]
pub struct OutputTableMemo {
    /// The arrival the rows evaluate, compared by address and kept alive
    /// so the address cannot be reused.
    arrival: SharedEnvelope,
    busy_interval: Seconds,
    steps: Vec<Seconds>,
    /// The candidate instants `t_k`, in the order rows are indexed.
    times: Vec<Seconds>,
    horizon: Seconds,
    subdivisions: usize,
    grid: Arc<[f64]>,
    rows: Vec<Option<Box<[f64]>>>,
}

impl OutputTableMemo {
    /// An empty memo for the tables of outputs like `output`, flattened
    /// over `[0, horizon]` with `subdivisions` guard points per gap.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not strictly positive.
    #[must_use]
    pub fn new(output: &ServerOutput, horizon: Seconds, subdivisions: usize) -> Self {
        Self {
            arrival: Arc::clone(&output.arrival),
            busy_interval: output.busy_interval,
            steps: output.steps(),
            times: output.t_candidates.iter().map(|&(t, _)| t).collect(),
            horizon,
            subdivisions,
            grid: Sampled::grid(output, horizon, subdivisions),
            rows: vec![None; output.t_candidates.len()],
        }
    }

    /// Whether `output`'s grid and candidates are this memo's.
    fn fits(&self, output: &ServerOutput) -> bool {
        let addr = |e: &SharedEnvelope| Arc::as_ptr(e) as *const () as usize;
        addr(&self.arrival) == addr(&output.arrival)
            && self.busy_interval.value().to_bits() == output.busy_interval.value().to_bits()
            && self.times.len() == output.t_candidates.len()
            && self
                .times
                .iter()
                .zip(&output.t_candidates)
                .all(|(a, (b, _))| a.value().to_bits() == b.value().to_bits())
            && self.steps == output.steps()
    }

    /// Candidate `k`'s arrival values at `t + i` for every grid point
    /// `i`, evaluated on first use.
    fn row(&mut self, k: usize, t: Seconds) -> &[f64] {
        let (grid, arrival) = (&self.grid, &self.arrival);
        self.rows[k].get_or_insert_with(|| {
            with_scratch(|shifted| {
                shifted.extend(grid.iter().map(|&i| (t + Seconds::new(i)).value()));
                let mut row = Vec::with_capacity(grid.len());
                arrival.arrivals_sorted(shifted, &mut row);
                row.into_boxed_slice()
            })
        })
    }

    /// The number of candidate rows evaluated so far: at most the number
    /// of candidates, however many outputs the memo has served.
    #[must_use]
    pub fn rows_filled(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }
}

/// The indices of the candidates no kept candidate dominates, for
/// arguments `t + I ≤ span`.
///
/// Candidate `j` is dominated by an earlier kept `k` (`t_k ≤ t_j`) when
///
/// `Â(D) + m < Ŝ_j − Ŝ_k`, with `D = (t_j − t_k) + 4δ`,
/// `m = 10⁻¹²·(Â(span + 3δ) + Â(D) + Ŝ_j)`, `δ = η·max(2·span, P)`,
///
/// where `Â` is the arrival's computed `arrivals`, `Ŝ` the stored
/// service values and `η` [`SUBADDITIVE_ARG_TOL`]. Then `j`'s term,
/// `fl(Â(fl(t_j + I)) − Ŝ_j)`, is at most `k`'s at every `I` with
/// `t_j + I ≤ span`, so dropping `j` leaves the float maximum unchanged.
///
/// Proof, with `A` the exact model, `x_j = fl(t_j + I)` and
/// `x_k = fl(t_k + I)`. Every argument below is at most
/// `max(2·span, P)`, so `δ` bounds the contract's `δ(x)` at all of them,
/// and `δ` is over 10⁷ times `u·span` (`u = 2⁻⁵³`), which absorbs every
/// rounding of an argument.
///
/// 1. `Â(x_j) ≤ (1 + γ)·A(x_j + δ)` (the contract, `γ` =
///    [`SUBADDITIVE_VALUE_TOL`](crate::envelope::SUBADDITIVE_VALUE_TOL)).
/// 2. `A(x_j + δ) ≤ A(x_k⁻) + A(x_j − x_k + 2δ)` with
///    `x_k⁻ = max(0, x_k − δ)`, by subadditivity and monotonicity.
/// 3. `A(x_k⁻) ≤ Â(x_k)/(1 − γ)` (the contract's lower side).
/// 4. `x_j − x_k ≤ (t_j − t_k) + 2u·span ≤ fl(t_j − t_k) + 3u·span`,
///    so `x_j − x_k + 2δ ≤ D − δ(D)` and `A(x_j − x_k + 2δ) ≤
///    Â(D)/(1 − γ)`.
/// 5. Likewise `Â(x_k) ≤ (1 + γ)·A(span + δ) ≤ (1 + 3γ)·Â(span + 3δ)`.
///
/// Hence `Â(x_j) − Â(x_k) ≤ Â(D) + 3γ·(Â(x_k) + Â(D))
/// ≤ Â(D) + 3.1·10⁻¹³·(Â(span + 3δ) + Â(D)) < Ŝ_j − Ŝ_k`, the last step
/// from the test with `m` covering the test's own roundings. So
/// `Â(x_j) − Ŝ_j ≤ Â(x_k) − Ŝ_k` in exact arithmetic, and rounding the
/// two differences keeps the order.
pub(crate) fn undominated(
    arrival: &dyn Envelope,
    candidates: &[(Seconds, Bits)],
    span: Seconds,
) -> Vec<usize> {
    let p = arrival.period_hint().map_or(0.0, Seconds::value);
    let delta = SUBADDITIVE_ARG_TOL * (2.0 * span.value()).max(p);
    let top = arrival.arrivals(span + Seconds::new(3.0 * delta)).value();
    let mut kept: Vec<usize> = Vec::with_capacity(candidates.len());
    for (j, &(t_j, s_j)) in candidates.iter().enumerate() {
        let dominated = kept.iter().any(|&k| {
            let (t_k, s_k) = candidates[k];
            if t_k > t_j {
                return false;
            }
            let d = Seconds::new((t_j - t_k).value() + 4.0 * delta);
            let a = arrival.arrivals(d).value();
            let m = DOMINANCE_MARGIN * (top + a + s_j.value());
            a + m < (s_j - s_k).value()
        });
        if !dominated {
            kept.push(j);
        }
    }
    kept
}

impl Envelope for ServerOutput {
    fn period_hint(&self) -> Option<Seconds> {
        self.arrival.period_hint()
    }

    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero();
        let mut best = 0.0_f64;
        for k in self.scan(i <= self.exact_to) {
            let (t, served) = self.t_candidates[k];
            let v = (self.arrival.arrivals(t + i) - served).value();
            best = best.max(v);
        }
        self.capped(best, i)
    }

    /// One batch per kept candidate for the points up to `exact_to`, and
    /// one per candidate for those past it; each point's maximum runs over
    /// the candidates in the order `arrivals` takes them, and is capped
    /// last.
    fn arrivals_sorted(&self, ts: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        with_clamped(ts, |is| {
            out.resize(start + is.len(), 0.0);
            let best = &mut out[start..];
            with_scratch(|shifted| {
                with_scratch(|values| {
                    for (k, range) in self.terms(is) {
                        let (t, served) = self.t_candidates[k];
                        shifted.clear();
                        shifted.extend(
                            is[range.clone()]
                                .iter()
                                .map(|&i| (t + Seconds::new(i)).value()),
                        );
                        values.clear();
                        self.arrival.arrivals_sorted(shifted, values);
                        fold_candidate(&mut best[range], values, served);
                    }
                });
            });
            self.cap_all(is, best);
        });
    }

    fn sustained_rate(&self) -> BitsPerSec {
        let rho = self.arrival.sustained_rate();
        match self.cap {
            Some(cap) if cap < rho => cap,
            _ => rho,
        }
    }

    fn peak_rate(&self) -> BitsPerSec {
        let p = self.arrival.peak_rate();
        match self.cap {
            Some(cap) if cap < p => cap,
            _ => p,
        }
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        // Corners of Υ are (arrival corners) − t for maximizer candidates
        // t; we shift by the service-step candidates (the usual
        // maximizers) and by 0. Downstream guard subdivisions absorb the
        // residual inexactness.
        let mut arrival_pts = Vec::new();
        self.arrival
            .breakpoints(horizon + self.busy_interval, &mut arrival_pts);
        let mut shifts = vec![Seconds::ZERO];
        self.service.breakpoints(self.busy_interval, &mut shifts);
        for &p in &arrival_pts {
            for &s in &shifts {
                let x = p - s;
                if x > Seconds::ZERO && x <= horizon {
                    out.push(x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ConstantRateEnvelope, LeakyBucketEnvelope, PeriodicEnvelope};
    use crate::service::{RateLatencyService, StaircaseService};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn leaky_bucket_through_rate_latency_matches_closed_form() {
        // Classic network-calculus result: delay = latency + sigma/rate,
        // backlog = sigma + rho*latency.
        let arr = LeakyBucketEnvelope::new(Bits::new(1000.0), BitsPerSec::new(100.0)).unwrap();
        let srv = RateLatencyService::new(BitsPerSec::new(500.0), Seconds::new(0.2));
        let r = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap();
        let expected_delay = 0.2 + 1000.0 / 500.0;
        let expected_backlog = 1000.0 + 100.0 * 0.2;
        assert!(
            (r.delay_bound.value() - expected_delay).abs() < 1e-6,
            "delay {} != {expected_delay}",
            r.delay_bound
        );
        assert!(
            (r.backlog_bound.value() - expected_backlog).abs() < 1e-3,
            "backlog {} != {expected_backlog}",
            r.backlog_bound
        );
        // Busy period: sigma + rho t = rate (t - latency) => t = (sigma +
        // rate*latency)/(rate - rho) = (1000 + 100)/400 = 2.75
        assert!((r.busy_interval.value() - 2.75).abs() < 1e-6);
    }

    #[test]
    fn periodic_through_timed_token_hand_check() {
        // 100 bits every 1 s at peak 1000 b/s; token grants 60 bits per
        // 0.1 s rotation (avail starts at 0.2 s).
        let arr =
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap();
        let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(60.0));
        let r = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap();
        // A(t) <= avail(t): A(0.3) = 100, avail(0.3) = 120 >= 100; avail(0.2)=60 < A(0.2)=100.
        assert!((r.busy_interval.value() - 0.3).abs() < 1e-6);
        // Backlog: worst just before avail jumps at 0.2: A = 100, avail = 0 -> 100.
        assert!((r.backlog_bound.value() - 100.0).abs() < 1e-3);
        // Delay: the supremum is approached by the first bit past the
        // one-quantum level: at t = 0.06+ε, A = 60+ε needs ceil(60+/60) = 2
        // quanta, ready at 3*TTRT = 0.3, so d → 0.24.
        assert!(
            (r.delay_bound.value() - 0.24).abs() < 1e-4,
            "delay {}",
            r.delay_bound
        );
    }

    #[test]
    fn unstable_when_rate_exceeds_service() {
        let arr = ConstantRateEnvelope::new(BitsPerSec::new(100.0));
        let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(5.0));
        let err = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap_err();
        assert!(matches!(err, TrafficError::Unstable { .. }));
    }

    #[test]
    fn equal_rates_are_unstable() {
        let arr = ConstantRateEnvelope::new(BitsPerSec::new(50.0));
        let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(5.0));
        let err = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap_err();
        assert!(matches!(err, TrafficError::Unstable { .. }));
    }

    #[test]
    fn delay_decreases_with_larger_quantum() {
        let arr =
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap();
        let mut prev = f64::MAX;
        for quantum in [30.0, 60.0, 120.0, 240.0] {
            let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(quantum));
            let d = analyze_guaranteed_server(&arr, &srv, &cfg())
                .unwrap()
                .delay_bound
                .value();
            assert!(d <= prev + 1e-12, "quantum={quantum}: {d} > {prev}");
            prev = d;
        }
    }

    #[test]
    fn zero_burst_source_still_waits_for_token() {
        // Even an arbitrarily slow trickle waits up to 2 rotations.
        let arr = ConstantRateEnvelope::new(BitsPerSec::new(1.0));
        let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(100.0));
        let r = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap();
        assert!(r.delay_bound.value() <= 0.2 + 1e-9);
        assert!(r.delay_bound.value() > 0.19);
    }

    #[test]
    fn output_envelope_dominates_served_traffic_and_is_capped() {
        let arr: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let srv: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(
            Seconds::new(0.1),
            Bits::new(60.0),
        ));
        let analysis = analyze_guaranteed_server(&arr, &*srv, &cfg()).unwrap();
        let out = ServerOutput::new(
            Arc::clone(&arr),
            Arc::clone(&srv),
            analysis.busy_interval,
            Some(BitsPerSec::new(1.0e6)),
            &cfg(),
        );
        assert_eq!(out.busy_interval(), analysis.busy_interval);
        // Υ(I) >= A(I) (take t = 0 in the maximizer).
        for k in 0..60 {
            let i = Seconds::new(k as f64 * 0.05);
            assert!(
                out.arrivals(i) >= arr.arrivals(i) - Bits::new(1e-6),
                "Υ < A at {i}"
            );
        }
        // Cap binds at small I.
        let tiny = Seconds::from_micros(10.0);
        assert!(out.arrivals(tiny) <= BitsPerSec::new(1.0e6) * tiny + Bits::new(1e-9));
    }

    #[test]
    fn output_envelope_monotone() {
        let arr: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let srv: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(
            Seconds::new(0.1),
            Bits::new(60.0),
        ));
        let analysis = analyze_guaranteed_server(&arr, &*srv, &cfg()).unwrap();
        let out = ServerOutput::new(arr, srv, analysis.busy_interval, None, &cfg());
        let mut prev = Bits::ZERO;
        for k in 0..200 {
            let a = out.arrivals(Seconds::new(k as f64 * 0.013));
            assert!(a >= prev, "not monotone at k={k}");
            prev = a;
        }
    }

    #[test]
    fn output_envelope_sustained_rate_unchanged() {
        let arr: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let srv: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(
            Seconds::new(0.1),
            Bits::new(60.0),
        ));
        let analysis = analyze_guaranteed_server(&arr, &*srv, &cfg()).unwrap();
        let out = ServerOutput::new(
            arr,
            srv,
            analysis.busy_interval,
            Some(BitsPerSec::new(1.0e6)),
            &cfg(),
        );
        assert_eq!(out.sustained_rate().value(), 100.0);
        assert_eq!(out.peak_rate().value(), 1000.0);
    }

    #[test]
    fn output_breakpoints_within_horizon() {
        let arr: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let srv: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(
            Seconds::new(0.1),
            Bits::new(60.0),
        ));
        let analysis = analyze_guaranteed_server(&arr, &*srv, &cfg()).unwrap();
        let out = ServerOutput::new(arr, srv, analysis.busy_interval, None, &cfg());
        let mut pts = Vec::new();
        out.breakpoints(Seconds::new(2.0), &mut pts);
        assert!(!pts.is_empty());
        assert!(pts
            .iter()
            .all(|p| *p > Seconds::ZERO && *p <= Seconds::new(2.0)));
    }

    #[test]
    fn horizon_exhaustion_reported() {
        // Stable on paper but with a tiny max_horizon the search must bail.
        let arr = LeakyBucketEnvelope::new(Bits::new(1000.0), BitsPerSec::new(100.0)).unwrap();
        let srv = RateLatencyService::new(BitsPerSec::new(101.0), Seconds::new(0.0));
        let tight = AnalysisConfig {
            max_horizon: Seconds::from_micros(1.0),
            ..AnalysisConfig::default()
        };
        let err = analyze_guaranteed_server(&arr, &srv, &tight).unwrap_err();
        assert!(matches!(err, TrafficError::HorizonExhausted { .. }));
    }
}
