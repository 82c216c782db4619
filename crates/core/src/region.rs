//! The feasible region of allocations (paper §5.2, Theorems 3–4).
//!
//! For a requesting connection, an allocation pair `(H_S, H_R)` is
//! *feasible* if every existing connection's deadline (eq. 24) and the
//! newcomer's deadline (eq. 25) hold. Theorem 3 states each
//! connection's region `R_{f,g}` is closed and convex over the
//! allocation rectangle; Theorem 4 that the feasible region is their
//! intersection — empty exactly when the maximum allocation fails.
//!
//! This module materializes the region on a grid: it powers the
//! `feasible_region` example (the paper's Figure 6 as ASCII art) and
//! the empirical convexity tests backing the CAC's binary searches.
//!
//! Two public solvers produce the same map, evaluating cells through
//! one shared feasibility check:
//!
//! * the **frontier tracer** ([`sample_region`]) exploits the region's
//!   structure: each row is a single run of feasible cells whose
//!   endpoints move monotonically row to row (the staircase Theorems
//!   3–4 guarantee), so per row it finds one feasible pivot seeded from
//!   the previous row's run and bisects both endpoints — `O(G log G)`
//!   evaluations instead of `G²`. Every evaluation is memoized and the
//!   traced map is certified afterwards (recorded evaluations must
//!   match the reconstruction, feasible rows must form one contiguous
//!   band reaching the top row, and the runs must widen monotonically);
//!   any witnessed violation discards the trace and completes the map
//!   with the dense loop through the same memo and warm evaluator;
//! * the **dense sweep** ([`sample_region_seq`]) runs that same dense
//!   loop from an empty memo: all `G²` cells, one evaluator, row-major —
//!   the exhaustive oracle the tracer is tested against. The frontier
//!   map is bit-identical to it.

use crate::cac::CacConfig;
use crate::connection::ConnectionSpec;
use crate::delay::{CacheStats, CandidateOutcome, Evaluator, PathInput};
use crate::error::CacError;
use crate::network::HetNetwork;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_obs as obs;
use hetnet_traffic::units::Seconds;
use std::sync::Arc;

/// A sampled map of the feasible region on the `H_S`–`H_R` plane,
/// stored row-major (`h_r.len()` rows of `h_s.len()` cells).
#[derive(Clone, Debug)]
pub struct RegionMap {
    /// Sampled `H_S` values (columns), ascending.
    pub h_s: Vec<SyncBandwidth>,
    /// Sampled `H_R` values (rows), ascending.
    pub h_r: Vec<SyncBandwidth>,
    /// Row-major feasibility bits: cell `(row, col)` lives at
    /// `row * h_s.len() + col`.
    cells: Vec<bool>,
}

impl RegionMap {
    fn new(h_s: Vec<SyncBandwidth>, h_r: Vec<SyncBandwidth>, cells: Vec<bool>) -> Self {
        debug_assert_eq!(cells.len(), h_s.len() * h_r.len());
        Self { h_s, h_r, cells }
    }

    /// Number of rows (sampled `H_R` values).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.h_r.len()
    }

    /// Number of columns (sampled `H_S` values).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.h_s.len()
    }

    /// Whether `(h_s[col], h_r[row])` is feasible.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(col < self.cols(), "column {col} out of range");
        self.cells[row * self.cols() + col]
    }

    /// The flat row-major feasibility bits.
    #[must_use]
    pub fn cells(&self) -> &[bool] {
        &self.cells
    }

    /// One row of feasibility bits.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> &[bool] {
        let cols = self.cols();
        &self.cells[row * cols..(row + 1) * cols]
    }

    /// Whether any sampled point is feasible.
    #[must_use]
    pub fn any_feasible(&self) -> bool {
        self.cells.iter().any(|&c| c)
    }

    /// Fraction of sampled points that are feasible.
    #[must_use]
    pub fn feasible_fraction(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        let yes = self.cells.iter().filter(|&&c| c).count();
        yes as f64 / self.cells.len() as f64
    }

    /// Empirical convexity check along rows, columns and both diagonals:
    /// in a convex region every 1-D slice of the grid is a single run of
    /// feasible cells. Returns the number of slices violating that.
    #[must_use]
    pub fn convexity_violations(&self) -> usize {
        grid_convexity_violations(&self.cells, self.rows(), self.cols())
    }

    /// Renders the region as ASCII art (rows printed top-down with
    /// `H_R` decreasing, matching the paper's Figure 6 orientation).
    #[must_use]
    pub fn ascii(&self) -> String {
        let mut out = String::new();
        out.push_str("H_R\n");
        for ri in (0..self.rows()).rev() {
            let h_r = self.h_r[ri].per_rotation().as_millis();
            out.push_str(&format!("{h_r:5.2} |"));
            for &cell in self.row(ri) {
                out.push(if cell { '#' } else { '.' });
            }
            out.push('\n');
        }
        let cols = self.h_s.len();
        out.push_str(&format!("      +{}\n", "-".repeat(cols)));
        let lo = self
            .h_s
            .first()
            .map_or(0.0, |h| h.per_rotation().as_millis());
        let hi = self
            .h_s
            .last()
            .map_or(0.0, |h| h.per_rotation().as_millis());
        out.push_str(&format!(
            "       H_S: {lo:.2} .. {hi:.2} ms/rotation ('#' feasible)\n"
        ));
        out
    }
}

/// Whether a line of cells is a single run: `false* true* false*`.
fn single_run(line: impl Iterator<Item = bool>) -> bool {
    let mut seen_true = false;
    let mut ended = false;
    for c in line {
        if c {
            if ended {
                return false;
            }
            seen_true = true;
        } else if seen_true {
            ended = true;
        }
    }
    true
}

/// Number of grid lines (rows, columns, both diagonal orientations)
/// that are not a single run of feasible cells, walked in place.
fn grid_convexity_violations(cells: &[bool], rows: usize, cols: usize) -> usize {
    if rows == 0 || cols == 0 {
        return 0;
    }
    let at = |r: usize, c: usize| cells[r * cols + c];
    let mut violations = 0;
    for r in 0..rows {
        if !single_run(cells[r * cols..(r + 1) * cols].iter().copied()) {
            violations += 1;
        }
    }
    for c in 0..cols {
        if !single_run((0..rows).map(|r| at(r, c))) {
            violations += 1;
        }
    }
    // Diagonals (both orientations); only diagonals longer than one
    // cell can violate.
    for start in 0..rows + cols - 1 {
        // Anti-diagonal: col = start - row, so row ranges over
        // [start-cols+1, start] clamped to the grid.
        let a_lo = (start + 1).saturating_sub(cols);
        let a_hi = (rows - 1).min(start);
        if a_hi - a_lo >= 1 && !single_run((a_lo..=a_hi).map(|r| at(r, start - r))) {
            violations += 1;
        }
        // Main diagonal: col = row + start - (rows-1), so row ranges
        // over [rows-1-start, rows-1-start+cols-1] clamped to the grid.
        let m_lo = (rows - 1).saturating_sub(start);
        let m_hi = (rows - 1).min(rows + cols - 2 - start);
        if m_hi - m_lo >= 1 && !single_run((m_lo..=m_hi).map(|r| at(r, r + start + 1 - rows))) {
            violations += 1;
        }
    }
    violations
}

/// A sampled region plus how the sweep earned it: the evaluator's cache
/// statistics and the number of candidate evaluations performed.
#[derive(Clone, Debug)]
pub struct RegionSample {
    /// The sampled feasibility map.
    pub map: RegionMap,
    /// Cache hit/miss counters accumulated by the sweep.
    pub stats: CacheStats,
    /// Calls to `Evaluator::evaluate_candidate` the sweep performed
    /// (`grid²` for the dense sweep; typically a few per row for the
    /// frontier tracer).
    pub evals: u64,
    /// Whether a frontier trace failed certification and the map was
    /// recomputed by the dense sweep (always `false` for the dense sweep).
    pub fell_back: bool,
}

/// Samples the feasible region of `spec` against the currently `active`
/// connections on a `grid × grid` lattice spanning
/// `[min_abs, max_avail]` on both axes.
///
/// Uses the frontier tracer: `O(G log G)` evaluations on the staircase
/// regions the analysis produces, certified afterwards, with a fallback
/// to the dense sweep through the same warm evaluator — so the map is
/// always bit-identical to [`sample_region_seq`]'s.
///
/// # Errors
///
/// Returns [`CacError`] for malformed requests or networks, including
/// [`CacError::InvalidRequest`] if `grid < 2` (one sample per axis
/// cannot span a `[min, max]` interval).
pub fn sample_region(
    net: &HetNetwork,
    active: &[PathInput],
    spec: &ConnectionSpec,
    available_s: Seconds,
    available_r: Seconds,
    grid: usize,
    cfg: &CacConfig,
) -> Result<RegionSample, CacError> {
    let _span = obs::span("sample_region");
    sweep(net, active, spec, available_s, available_r, grid, cfg, true)
}

/// Dense sweep: one evaluator, all `grid²` cells in row-major order.
/// The exhaustive oracle the frontier tracer falls back to and is
/// bit-compared against.
///
/// # Errors
///
/// Identical to [`sample_region`].
pub fn sample_region_seq(
    net: &HetNetwork,
    active: &[PathInput],
    spec: &ConnectionSpec,
    available_s: Seconds,
    available_r: Seconds,
    grid: usize,
    cfg: &CacConfig,
) -> Result<RegionSample, CacError> {
    sweep(
        net,
        active,
        spec,
        available_s,
        available_r,
        grid,
        cfg,
        false,
    )
}

/// The sweep both solvers share: axis samples, an input vector whose
/// last slot is the candidate's (rewritten per cell), one evaluator, and
/// the one cell-feasibility check, handed to [`region_map`].
#[allow(clippy::too_many_arguments)]
fn sweep(
    net: &HetNetwork,
    active: &[PathInput],
    spec: &ConnectionSpec,
    available_s: Seconds,
    available_r: Seconds,
    grid: usize,
    cfg: &CacConfig,
    trace: bool,
) -> Result<RegionSample, CacError> {
    if grid < 2 {
        return Err(CacError::InvalidRequest(format!(
            "region grid must be at least 2x2, got {grid}x{grid}"
        )));
    }
    let ring_s = net.ring(spec.source.ring);
    let ring_r = net.ring(spec.dest.ring);
    let min_s = hetnet_fddi::frames::min_allocation(ring_s, cfg.min_frame_efficiency);
    let min_r = hetnet_fddi::frames::min_allocation(ring_r, cfg.min_frame_efficiency);
    let max_s = SyncBandwidth::new(available_s);
    let max_r = SyncBandwidth::new(available_r);

    let axis = |min: SyncBandwidth, max: SyncBandwidth| -> Vec<SyncBandwidth> {
        (0..grid)
            .map(|k| min.lerp(max, k as f64 / (grid - 1) as f64))
            .collect()
    };
    let h_s = axis(min_s, max_s);
    let h_r = axis(min_r, max_r);

    let mut inputs: Vec<PathInput> = active.to_vec();
    inputs.push(PathInput {
        source: spec.source,
        dest: spec.dest,
        envelope: Arc::clone(&spec.envelope),
        h_s: h_s[0],
        h_r: h_r[0],
        class: spec.class,
    });
    let mut ev = Evaluator::new(net, cfg.eval.clone());
    let (flat, evals, fell_back) = region_map(
        grid,
        |r, c| {
            let cand = inputs.last_mut().expect("candidate slot present");
            cand.h_s = h_s[c];
            cand.h_r = h_r[r];
            // Candidate-only feasibility: existing deadlines are
            // monotone in the newcomer's allocation, so the caller
            // checks them once at the maximum corner (as the CAC does);
            // here we map the newcomer's own constraint (eq. 25).
            Ok(match ev.evaluate_candidate(&inputs)? {
                CandidateOutcome::Feasible { candidate, .. } => candidate.total <= spec.deadline,
                CandidateOutcome::Infeasible(_) => false,
            })
        },
        trace,
    )?;
    Ok(RegionSample {
        map: RegionMap::new(h_s, h_r, flat),
        stats: ev.cache_stats(),
        evals,
        fell_back,
    })
}

/// A feasibility oracle: `oracle(row, col)` decides one grid cell.
/// Generic so the tracer can be exercised against synthetic
/// (adversarial) regions in tests.
trait Oracle: FnMut(usize, usize) -> Result<bool, CacError> {}
impl<T: FnMut(usize, usize) -> Result<bool, CacError>> Oracle for T {}

/// Memoized oracle call: each cell is evaluated at most once across
/// trace *and* fallback, and `evals` counts actual evaluations.
fn eval_memo(
    memo: &mut [Option<bool>],
    evals: &mut u64,
    oracle: &mut impl Oracle,
    grid: usize,
    r: usize,
    c: usize,
) -> Result<bool, CacError> {
    if let Some(v) = memo[r * grid + c] {
        return Ok(v);
    }
    let v = oracle(r, c)?;
    memo[r * grid + c] = Some(v);
    *evals += 1;
    Ok(v)
}

/// One gallop/bisect probe, narrated for the tracing layer.
fn step_event(name: &'static str, side: &'static str, r: usize, c: usize, feasible: bool) {
    obs::event(
        name,
        &[
            ("row", obs::FieldValue::U64(r as u64)),
            ("col", obs::FieldValue::U64(c as u64)),
            ("side", obs::FieldValue::Str(side)),
            ("feasible", obs::FieldValue::Bool(feasible)),
        ],
    );
}

/// Leftmost feasible column of row `r`, bracketed from the known
/// feasible `good`: gallop left with doubling steps to find an
/// infeasible cell (seeding from the previous row's endpoint makes the
/// first step land next to the answer in the common case), then bisect.
/// Both sides of the returned boundary end up evaluated.
fn left_end(
    memo: &mut [Option<bool>],
    evals: &mut u64,
    oracle: &mut impl Oracle,
    grid: usize,
    r: usize,
    mut good: usize,
) -> Result<usize, CacError> {
    if good == 0 {
        return Ok(0);
    }
    let mut step = 1usize;
    let mut bad = loop {
        let probe = good.saturating_sub(step);
        let feasible = eval_memo(memo, evals, oracle, grid, r, probe)?;
        step_event("gallop_step", "left", r, probe, feasible);
        if feasible {
            good = probe;
            if good == 0 {
                return Ok(0);
            }
            step = step.saturating_mul(2);
        } else {
            break probe;
        }
    };
    while good - bad > 1 {
        let mid = bad + (good - bad) / 2;
        let feasible = eval_memo(memo, evals, oracle, grid, r, mid)?;
        step_event("bisect_step", "left", r, mid, feasible);
        if feasible {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Ok(good)
}

/// Rightmost feasible column of row `r`, bracketed from the known
/// feasible `good`. The right edge is probed first: on the staircase
/// regions the analysis produces, more `H_S` never hurts the candidate,
/// so the run reaches the edge and this costs one (often memoized)
/// evaluation.
fn right_end(
    memo: &mut [Option<bool>],
    evals: &mut u64,
    oracle: &mut impl Oracle,
    grid: usize,
    r: usize,
    mut good: usize,
) -> Result<usize, CacError> {
    let edge = eval_memo(memo, evals, oracle, grid, r, grid - 1)?;
    step_event("gallop_step", "right", r, grid - 1, edge);
    if edge {
        return Ok(grid - 1);
    }
    let mut bad = grid - 1;
    let mut step = 1usize;
    while bad - good > 1 {
        let probe = (good + step).min(bad - 1);
        let feasible = eval_memo(memo, evals, oracle, grid, r, probe)?;
        step_event("gallop_step", "right", r, probe, feasible);
        if feasible {
            good = probe;
            step = step.saturating_mul(2);
        } else {
            bad = probe;
            break;
        }
    }
    while bad - good > 1 {
        let mid = good + (bad - good) / 2;
        let feasible = eval_memo(memo, evals, oracle, grid, r, mid)?;
        step_event("bisect_step", "right", r, mid, feasible);
        if feasible {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Ok(good)
}

/// Traces the feasible run `[lo, hi)` of every row bottom-up, seeding
/// each row's searches from the previous row's run.
fn trace_frontier(
    memo: &mut [Option<bool>],
    evals: &mut u64,
    oracle: &mut impl Oracle,
    grid: usize,
) -> Result<Vec<(usize, usize)>, CacError> {
    let mut runs = Vec::with_capacity(grid);
    let mut prev: Option<(usize, usize)> = None;
    for r in 0..grid {
        let evals_before = *evals;
        // Pivot discovery: the staircase widens upward, so the previous
        // row's run (left endpoint first — it anchors the cheap gallop)
        // is feasible here too; the right edge is the fallback seed and
        // covers the first nonempty row.
        let mut pivot = None;
        if let Some((plo, phi)) = prev {
            for c in [plo, phi - 1, plo + (phi - plo) / 2] {
                if eval_memo(memo, evals, oracle, grid, r, c)? {
                    pivot = Some(c);
                    break;
                }
            }
        }
        if pivot.is_none() && eval_memo(memo, evals, oracle, grid, r, grid - 1)? {
            pivot = Some(grid - 1);
        }
        let run = match pivot {
            Some(p) => {
                let lo = left_end(memo, evals, oracle, grid, r, p)?;
                let hi = right_end(memo, evals, oracle, grid, r, p)? + 1;
                (lo, hi)
            }
            None => (0, 0),
        };
        obs::event(
            "frontier_row",
            &[
                ("row", obs::FieldValue::U64(r as u64)),
                ("lo", obs::FieldValue::U64(run.0 as u64)),
                ("hi", obs::FieldValue::U64(run.1 as u64)),
                ("evals", obs::FieldValue::U64(*evals - evals_before)),
            ],
        );
        runs.push(run);
        prev = (run.1 > run.0).then_some(run);
    }
    Ok(runs)
}

/// Certifies a trace: reconstructs the map from the runs and accepts it
/// only if (1) every evaluation the trace recorded agrees with the
/// reconstruction — every run boundary is witnessed by evaluations on
/// both sides, so under Theorem 3's single-run rows this pins the whole
/// map — (2) nonempty rows form one contiguous band reaching the top
/// row, and (3) within the band the runs widen monotonically (`lo`
/// never grows, `hi` never shrinks with `H_R`) — the staircase shape
/// the per-row seeding relies on. Note this is deliberately weaker than
/// full grid convexity: sampled maps of the *analysis* can break the
/// diagonal single-run property (the run's left endpoint may jump many
/// columns between adjacent rows at a mux-regime threshold) while every
/// row remains a single run, and only the latter matters for the
/// trace's exactness. Returns the flat map, or `None` to demand the
/// dense fallback.
fn certify(grid: usize, runs: &[(usize, usize)], memo: &[Option<bool>]) -> Option<Vec<bool>> {
    let mut flat = vec![false; grid * grid];
    for (r, &(lo, hi)) in runs.iter().enumerate() {
        flat[r * grid + lo..r * grid + hi].fill(true);
    }
    if memo
        .iter()
        .enumerate()
        .any(|(i, m)| m.is_some_and(|v| v != flat[i]))
    {
        return None;
    }
    if let Some(first) = runs.iter().position(|&(lo, hi)| hi > lo) {
        let band = &runs[first..];
        if band.iter().any(|&(lo, hi)| hi <= lo) {
            return None;
        }
        if band.windows(2).any(|w| w[1].0 > w[0].0 || w[1].1 < w[0].1) {
            return None;
        }
    }
    Some(flat)
}

/// Fills the map through `oracle`. With `trace`, the frontier tracer
/// runs first and its certified map is returned; otherwise — or when
/// certification fails — the dense row-major loop completes the map
/// through the same memo (cells already evaluated are not re-evaluated,
/// and a deterministic oracle makes the outcome identical to a pure
/// dense sweep). Returns the flat map, the number of oracle
/// evaluations, and whether a trace fell back.
fn region_map(
    grid: usize,
    mut oracle: impl Oracle,
    trace: bool,
) -> Result<(Vec<bool>, u64, bool), CacError> {
    let mut memo = vec![None; grid * grid];
    let mut evals = 0u64;
    if trace {
        let runs = trace_frontier(&mut memo, &mut evals, &mut oracle, grid)?;
        if let Some(flat) = certify(grid, &runs, &memo) {
            return Ok((flat, evals, false));
        }
    }
    let mut flat = vec![false; grid * grid];
    for r in 0..grid {
        for c in 0..grid {
            flat[r * grid + c] = eval_memo(&mut memo, &mut evals, &mut oracle, grid, r, c)?;
        }
    }
    Ok((flat, evals, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::HostId;
    use hetnet_traffic::models::DualPeriodicEnvelope;
    use hetnet_traffic::units::{Bits, BitsPerSec};

    fn spec(deadline_ms: f64) -> ConnectionSpec {
        ConnectionSpec {
            source: HostId {
                ring: 0,
                station: 0,
            },
            dest: HostId {
                ring: 1,
                station: 0,
            },
            envelope: Arc::new(
                DualPeriodicEnvelope::new(
                    Bits::from_mbits(2.0),
                    Seconds::from_millis(100.0),
                    Bits::from_mbits(0.25),
                    Seconds::from_millis(10.0),
                    BitsPerSec::from_mbps(100.0),
                )
                .unwrap(),
            ),
            deadline: Seconds::from_millis(deadline_ms),
            class: 0,
        }
    }

    fn map(deadline_ms: f64, grid: usize) -> RegionMap {
        let net = HetNetwork::paper_topology();
        let cfg = CacConfig::fast();
        sample_region(
            &net,
            &[],
            &spec(deadline_ms),
            Seconds::from_millis(7.2),
            Seconds::from_millis(7.2),
            grid,
            &cfg,
        )
        .unwrap()
        .map
    }

    #[test]
    fn generous_deadline_has_large_feasible_region() {
        let m = map(150.0, 9);
        assert!(m.any_feasible());
        assert!(m.feasible_fraction() > 0.3, "{}", m.ascii());
        // The top-right corner (max allocations) is feasible.
        assert!(m.get(m.rows() - 1, m.cols() - 1), "{}", m.ascii());
    }

    #[test]
    fn impossible_deadline_has_empty_region() {
        let m = map(1.0, 6);
        assert!(!m.any_feasible());
        assert_eq!(m.feasible_fraction(), 0.0);
    }

    #[test]
    fn region_is_monotone_staircase() {
        // Theorem 3's convexity shows up on the grid as single-run rows,
        // columns and diagonals.
        let m = map(60.0, 9);
        assert!(m.any_feasible());
        assert!(!m.get(0, 0));
        assert_eq!(m.convexity_violations(), 0, "{}", m.ascii());
    }

    #[test]
    fn degenerate_grid_is_an_error_not_a_panic() {
        let net = HetNetwork::paper_topology();
        let cfg = CacConfig::fast();
        for grid in [0, 1] {
            let r = sample_region(
                &net,
                &[],
                &spec(100.0),
                Seconds::from_millis(7.2),
                Seconds::from_millis(7.2),
                grid,
                &cfg,
            );
            assert!(matches!(r, Err(CacError::InvalidRequest(_))), "grid {grid}");
        }
    }

    /// The frontier tracer narrates its work: one `frontier_row` event
    /// per row whose per-row eval counts sum to the sample's total, all
    /// inside a `sample_region` span.
    #[test]
    fn frontier_emits_row_and_step_events() {
        let net = HetNetwork::paper_topology();
        let cfg = CacConfig::fast();
        let grid = 7;
        let (sample, trace) = obs::collect(1 << 16, || {
            sample_region(
                &net,
                &[],
                &spec(60.0),
                Seconds::from_millis(7.2),
                Seconds::from_millis(7.2),
                grid,
                &cfg,
            )
            .unwrap()
        });
        let field = |r: &obs::TraceRecord, key: &str| -> u64 {
            r.fields
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (k, obs::FieldValue::U64(v)) if *k == key => Some(*v),
                    _ => None,
                })
                .expect("u64 field present")
        };
        let rows: Vec<&obs::TraceRecord> = trace
            .records()
            .iter()
            .filter(|r| r.name == "frontier_row")
            .collect();
        assert_eq!(rows.len(), grid);
        assert!(!sample.fell_back);
        assert_eq!(
            rows.iter().map(|r| field(r, "evals")).sum::<u64>(),
            sample.evals
        );
        // Boundary searches leave gallop/bisect breadcrumbs.
        assert!(trace.records().iter().any(|r| r.name == "gallop_step"));
        let span_started = trace
            .records()
            .iter()
            .any(|r| r.kind == obs::RecordKind::SpanStart && r.name == "sample_region");
        assert!(span_started);
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn frontier_matches_dense_and_is_cheaper() {
        let net = HetNetwork::paper_topology();
        let cfg = CacConfig::fast();
        for deadline_ms in [1.0, 60.0, 150.0] {
            let run = |frontier: bool| {
                let f = if frontier {
                    sample_region
                } else {
                    sample_region_seq
                };
                f(
                    &net,
                    &[],
                    &spec(deadline_ms),
                    Seconds::from_millis(7.2),
                    Seconds::from_millis(7.2),
                    9,
                    &cfg,
                )
                .unwrap()
            };
            let dense = run(false);
            let frontier = run(true);
            assert_eq!(
                frontier.map.cells(),
                dense.map.cells(),
                "deadline {deadline_ms}: {}",
                dense.map.ascii()
            );
            assert!(!frontier.fell_back, "deadline {deadline_ms}");
            assert!(
                frontier.evals < dense.evals,
                "deadline {deadline_ms}: {} !< {}",
                frontier.evals,
                dense.evals
            );
        }
    }

    /// Oracle over a fixed bit-grid, for exercising the tracer against
    /// shapes the physical analysis never produces.
    fn grid_oracle(cells: Vec<bool>, grid: usize) -> impl Oracle {
        move |r: usize, c: usize| Ok(cells[r * grid + c])
    }

    #[test]
    fn synthetic_staircases_trace_exactly() {
        // Monotone staircases of every flavor, including empty and full.
        let grid = 8;
        let shapes: Vec<Box<dyn Fn(usize, usize) -> bool>> = vec![
            Box::new(|_, _| false),
            Box::new(|_, _| true),
            Box::new(move |r, c| r + c >= grid),
            Box::new(move |r, c| c >= grid.saturating_sub(1 + r / 2)),
            Box::new(move |r, _| r == grid - 1),
            Box::new(move |r, c| r == grid - 1 && c == grid - 1),
        ];
        for (i, shape) in shapes.iter().enumerate() {
            let dense: Vec<bool> = (0..grid * grid)
                .map(|idx| shape(idx / grid, idx % grid))
                .collect();
            let (flat, evals, fell_back) =
                region_map(grid, grid_oracle(dense.clone(), grid), true).unwrap();
            assert_eq!(flat, dense, "shape {i}");
            assert!(!fell_back, "shape {i}");
            assert!(evals <= (grid * grid) as u64, "shape {i}: {evals}");
            // Untraced, the same loop is the dense sweep: every cell
            // once, never a fallback.
            let untraced = region_map(grid, grid_oracle(dense.clone(), grid), false).unwrap();
            assert_eq!(untraced, (dense, (grid * grid) as u64, false), "shape {i}");
        }
    }

    #[test]
    fn non_convex_oracle_falls_back_to_dense() {
        // Two disjoint runs in the bottom row: the trace's probes must
        // witness the violation and the fallback must return the exact
        // dense map, at no more than one evaluation per cell.
        let grid = 8;
        let dense: Vec<bool> = (0..grid * grid)
            .map(|idx| {
                let (r, c) = (idx / grid, idx % grid);
                if r == 0 {
                    c < 2 || c >= grid - 2
                } else {
                    r + c >= grid
                }
            })
            .collect();
        let (flat, evals, fell_back) =
            region_map(grid, grid_oracle(dense.clone(), grid), true).unwrap();
        assert!(fell_back);
        assert_eq!(flat, dense);
        assert_eq!(evals, (grid * grid) as u64);
    }

    #[test]
    fn shrinking_band_oracle_falls_back() {
        // A row that is nonempty below an empty row breaks the
        // contiguous-band certificate.
        let grid = 6;
        let dense: Vec<bool> = (0..grid * grid)
            .map(|idx| {
                let (r, c) = (idx / grid, idx % grid);
                r == 1 && c >= grid - 2
            })
            .collect();
        let (flat, _, fell_back) =
            region_map(grid, grid_oracle(dense.clone(), grid), true).unwrap();
        assert!(fell_back);
        assert_eq!(flat, dense);
    }

    #[test]
    fn ascii_renders_dimensions() {
        let m = map(150.0, 5);
        let art = m.ascii();
        assert!(art.contains('#'));
        assert!(art.lines().count() >= 7);
    }
}
