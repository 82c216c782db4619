//! The connection admission control algorithm (§5.3) and the network's
//! admission bookkeeping.
//!
//! Upon a request, the CAC:
//!
//! 1. computes the maximum available allocations
//!    `(H_S^{max_avai}, H_R^{max_avai})` from the rings' synchronous
//!    budgets (eqs. 26–27) — `NetworkState::allocation_line`;
//! 2. rejects if even the maximum allocation cannot satisfy every
//!    deadline (eqs. 24–25) — `Scope::step2_screen_at_max`;
//! 3. binary-searches along the line joining
//!    `(H_S^{min_abs}, H_R^{min_abs})` and the maximum point for the
//!    *minimum needed* allocation — the smallest point keeping all
//!    deadlines satisfied — `Scope::step3_min_need`;
//! 4. binary-searches the segment above it for the *maximum needed*
//!    allocation — the smallest point at which every connection's delay
//!    already equals its value at the maximum allocation (eqs. 31–33):
//!    beyond it, extra bandwidth buys nothing — `Scope::step4_max_useful`;
//! 5. allocates `H = H^{min_need} + β (H^{max_need} − H^{min_need})`
//!    (eqs. 35–36), verifies every deadline there and admits —
//!    `Scope::step5_verify`.
//!
//! One pipeline, `NetworkState::decide`, serves [`NetworkState::admit`]
//! and [`NetworkState::reconfigure`]. A non-searching policy (a fixed
//! pair, or a baseline's pair resolved at decision time) is step 1 with
//! the pair as the line's floor, then one dense `Scope::check` — the
//! only all-deadlines check, which steps 2 and 5 share.
//!
//! Monotonicity along the search line — the requesting connection's
//! delay is nonincreasing and existing connections' delays are
//! nondecreasing in the allocation scale (they only see the newcomer
//! through its burstiness at shared multiplexers) — is what makes both
//! searches correct; it follows from the convexity of the feasible
//! region (Theorems 3–4).

use crate::connection::{ActiveConnection, ConnectionId, ConnectionSpec};
use crate::delay::{
    evaluate_paths, CacheStats, CandidateOutcome, EvalCache, EvalConfig, EvalOutcome, Evaluator,
    PathInput, PathReport, ScreenedOutcome,
};
use crate::error::CacError;
use crate::incremental::{FastContext, FastPathStats, Membership};
use crate::network::{Component, HetNetwork, RingId};
use crate::reconfig::{ReconfigPlan, ReconfigReport};
use crate::snapshot::{ConnectionSnapshot, StateSnapshot, SNAPSHOT_VERSION};
use crate::trace::{BindingConstraint, ConnectionTrace, DecisionTrace, ServerStage};
use hetnet_fddi::alloc::{AllocationKey, SyncAllocationTable};
use hetnet_fddi::frames;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_fddi::schemes::AllocationScheme;
use hetnet_obs as obs;
use hetnet_traffic::envelope::Envelope as _;
use hetnet_traffic::units::Seconds;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Tuning parameters of the CAC.
#[derive(Clone, Debug)]
pub struct CacConfig {
    /// The allocation knob β ∈ [0, 1] of eqs. 35–36: 0 allocates the
    /// bare minimum, 1 the maximum useful amount. The paper finds
    /// β ∈ [0.4, 0.7] robust; 0.5 is the default.
    pub beta: f64,
    /// Iterations of each binary search along the allocation line.
    pub search_iterations: usize,
    /// Tolerance for the "maximum needed allocation" test. Eqs. 31–33
    /// define `H^{max_need}` as the smallest allocation whose delays
    /// *equal* those at the maximum; when delay curves saturate exactly
    /// (pure staircase effects) that point is found as-is, and when they
    /// keep creeping (burst-crossing times shift continuously with the
    /// quantum) the search settles for the point at which all but this
    /// fraction of the *achievable* improvement has been realized.
    pub equality_tolerance: f64,
    /// Minimum frame efficiency defining `H^{min_abs}` (§5.2: the
    /// allocation cannot be arbitrarily small or frame overheads swamp
    /// it).
    pub min_frame_efficiency: f64,
    /// End-to-end evaluation tuning.
    pub eval: EvalConfig,
}

impl Default for CacConfig {
    fn default() -> Self {
        Self {
            beta: 0.5,
            search_iterations: 14,
            equality_tolerance: 0.1,
            min_frame_efficiency: 0.9,
            eval: EvalConfig::default(),
        }
    }
}

impl CacConfig {
    /// A cheaper configuration for large simulation campaigns: fewer
    /// search iterations and the fast evaluation profile. Decisions are
    /// identical in kind, slightly coarser in the allocation split.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            search_iterations: 12,
            eval: EvalConfig::fast(),
            ..Self::default()
        }
    }

    /// A copy of this configuration with a different β.
    ///
    /// # Panics
    ///
    /// Panics unless `beta ∈ [0, 1]`.
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
        self.beta = beta;
        self
    }
}

/// How the admission engine picks the `(H_S, H_R)` allocation for a
/// request.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum AllocationPolicy {
    /// The paper's β-CAC line search (§5.3): find the minimum and
    /// maximum *needed* allocations and interpolate with β.
    #[default]
    BetaSearch,
    /// Admit at exactly this allocation pair if (and only if) every
    /// deadline holds there — no searching, no β.
    Fixed {
        /// Synchronous bandwidth to hold on the source ring.
        h_s: SyncBandwidth,
        /// Synchronous bandwidth to hold on the destination ring.
        h_r: SyncBandwidth,
    },
    /// The §5.3 strawman: hold `(H_S^{max_avai}, H_R^{max_avai})`
    /// outright. The paper predicts "this will result in the rejection
    /// of any future connection originated from or designated to these
    /// two rings simply because no bandwidth is available."
    GrabAvailable,
    /// A stand-alone-FDDI rule (refs. [1], [24]) applied independently
    /// on each ring — no end-to-end view — and scaled by `headroom`;
    /// the connection is admitted iff every deadline happens to hold
    /// there (the §5/§7 strawman).
    Local {
        /// Which classical rule computes each ring's allocation.
        scheme: AllocationScheme,
        /// Multiplier on the rule's output (local rules meet long-term
        /// demand exactly; headroom > 1 leaves room for token latency).
        headroom: f64,
    },
}

/// Everything an admission request needs besides the
/// [`ConnectionSpec`] itself: CAC tuning plus the allocation policy.
///
/// This is the option block of [`NetworkState::admit`], the single
/// entry point for every policy.
#[derive(Clone, Debug, Default)]
pub struct AdmissionOptions {
    /// CAC tuning parameters (β, search depth, evaluation profile).
    pub cac: CacConfig,
    /// Allocation policy: β-search or one of the non-searching floors.
    pub allocation: AllocationPolicy,
}

impl AdmissionOptions {
    /// β-search admission (the paper's algorithm) under `cac`.
    #[must_use]
    pub fn beta_search(cac: CacConfig) -> Self {
        Self {
            cac,
            allocation: AllocationPolicy::BetaSearch,
        }
    }

    /// Fixed-allocation admission at `(h_s, h_r)` under `cac`.
    #[must_use]
    pub fn fixed(cac: CacConfig, h_s: SyncBandwidth, h_r: SyncBandwidth) -> Self {
        Self {
            cac,
            allocation: AllocationPolicy::Fixed { h_s, h_r },
        }
    }
}

impl From<CacConfig> for AdmissionOptions {
    /// A bare [`CacConfig`] means β-search, the common case.
    fn from(cac: CacConfig) -> Self {
        Self::beta_search(cac)
    }
}

/// Why a request was rejected.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The source ring cannot even provide the minimum absolute
    /// allocation.
    SourceBandwidthExhausted {
        /// Synchronous time still available.
        available: Seconds,
        /// The minimum absolute requirement.
        required: Seconds,
    },
    /// The destination ring cannot provide the minimum absolute
    /// allocation.
    DestBandwidthExhausted {
        /// Synchronous time still available.
        available: Seconds,
        /// The minimum absolute requirement.
        required: Seconds,
    },
    /// Even `(H_S^{max_avai}, H_R^{max_avai})` violates some deadline or
    /// leaves a server unstable (the feasible region is empty,
    /// Theorem 4).
    InfeasibleAtMaximum {
        /// Human-readable detail (which constraint failed).
        detail: String,
    },
    /// A component on the request's path is down
    /// ([`NetworkState::set_component_down`]): no allocation exists
    /// until it is restored.
    ComponentUnavailable {
        /// The failed component.
        component: Component,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SourceBandwidthExhausted {
                available,
                required,
            } => write!(
                f,
                "source ring bandwidth exhausted (available {available}, need {required})"
            ),
            Self::DestBandwidthExhausted {
                available,
                required,
            } => write!(
                f,
                "destination ring bandwidth exhausted (available {available}, need {required})"
            ),
            Self::InfeasibleAtMaximum { detail } => {
                write!(f, "infeasible even at maximum allocation: {detail}")
            }
            Self::ComponentUnavailable { component } => {
                write!(f, "component {component} is down on the request's path")
            }
        }
    }
}

/// The CAC's verdict on a request.
#[derive(Clone, Debug)]
pub enum Decision {
    /// Admitted with the given allocations.
    Admitted {
        /// Identifier of the new connection.
        id: ConnectionId,
        /// Synchronous bandwidth allocated on the source ring.
        h_s: SyncBandwidth,
        /// Synchronous bandwidth allocated on the destination ring.
        h_r: SyncBandwidth,
        /// The connection's end-to-end worst-case delay at admission.
        delay_bound: Seconds,
    },
    /// Rejected; no state was changed.
    Rejected(RejectReason),
}

impl Decision {
    /// Whether the request was admitted.
    #[must_use]
    pub fn is_admitted(&self) -> bool {
        matches!(self, Self::Admitted { .. })
    }
}

/// What [`NetworkState::set_component_down`] tore down: the evicted
/// connections (with their full specs, so the caller can park and
/// later re-admit them) and the synchronous bandwidth reclaimed.
#[derive(Debug)]
pub struct TeardownReport {
    /// The component that failed.
    pub component: Component,
    /// `true` when the component was already down (nothing new torn).
    pub already_down: bool,
    /// The evicted connections, in admission order.
    pub torn: Vec<ActiveConnection>,
    /// Total `H_S` (source-ring synchronous time per rotation)
    /// reclaimed across the evictions.
    pub reclaimed_s: Seconds,
    /// Total `H_R` reclaimed across the evictions.
    pub reclaimed_r: Seconds,
}

/// Entry caps applied to a persisted evaluator cache at the start of
/// each search: when any tier exceeds its cap the whole cache is
/// cleared. Caps bound memory only — cache hits return exactly what the
/// miss path would compute, so decisions are identical at any setting.
/// Callers working repeatedly over large active subsets (the sharded
/// engine's closure states) raise them so a single big decision does
/// not evict the working set every iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheCaps {
    /// Max stage-1 (source MAC analysis) entries.
    pub stage1: usize,
    /// Max per-multiplexer analysis entries.
    pub mux: usize,
    /// Max receive-side analysis entries.
    pub receive: usize,
}

impl Default for EvalCacheCaps {
    fn default() -> Self {
        Self {
            stage1: 1024,
            mux: 8192,
            receive: 8192,
        }
    }
}

/// The live state of the network: active connections and per-ring
/// synchronous-bandwidth tables.
pub struct NetworkState {
    /// The immutable topology, shareable across states: the sharded
    /// engine builds one short-lived scoped state per decision, and an
    /// `Arc` makes that construction O(active subset) instead of a
    /// deep topology clone.
    net: Arc<HetNetwork>,
    active: Vec<ActiveConnection>,
    tables: Vec<SyncAllocationTable>,
    next_id: u64,
    last_cache_stats: Option<CacheStats>,
    persist_cache: bool,
    cache_caps: EvalCacheCaps,
    /// Evaluator cache carried across [`NetworkState::admit`] calls
    /// when persistence is on. Entries are always sound (keys capture
    /// everything a result depends on — envelope identity, allocations,
    /// and the full transform chain), so with persistence on the cache
    /// survives admissions and releases too; an entry cap at the start
    /// of each search bounds its memory. With persistence off it is
    /// dropped whenever the active set changes.
    eval_cache: Option<EvalCache>,
    /// Whether β-search probes may be decided by the fast ladder
    /// ([`NetworkState::set_fast_path`]).
    fast_path: bool,
    /// Per-multiplexer membership of `active`, maintained by deltas on
    /// admit/release/teardown: every admission decides over the
    /// candidate's closure read from it.
    members: Membership,
    last_fast_stats: Option<FastPathStats>,
    last_closure_len: Option<usize>,
    /// Components currently marked down by fault injection; requests
    /// whose path crosses one are rejected without evaluation.
    down: BTreeSet<Component>,
    /// Logical event clock stamped onto [`DecisionTrace`]s.
    clock: Seconds,
    /// Completed decisions (admit or reject) so far.
    decision_seq: u64,
    /// Whether [`NetworkState::admit`] assembles a [`DecisionTrace`]
    /// per decision. Off by default: the hot path stays allocation-free.
    trace_decisions: bool,
    last_trace: Option<DecisionTrace>,
}

/// The trace ingredients a decision hands back to
/// [`NetworkState::admit`] (which stamps seq/clock/cache onto them).
/// Built only when decision tracing is on.
struct TraceParts {
    allocation: Option<Pair>,
    connections: Vec<ConnectionTrace>,
    binding: Option<BindingConstraint>,
}

/// An `(H_S, H_R)` allocation pair.
type Pair = (SyncBandwidth, SyncBandwidth);

/// The allocation line of §5.3, from the policy's floor to the maximum
/// available pair (eqs. 26–27). A non-searching policy's floor is the
/// pair it admits at.
#[derive(Clone, Copy)]
struct Line {
    min: Pair,
    max: Pair,
}

impl Line {
    /// The point a fraction `lambda` of the way from `min` to `max`.
    fn at(&self, lambda: f64) -> Pair {
        (
            self.min.0.lerp(self.max.0, lambda),
            self.min.1.lerp(self.max.1, lambda),
        )
    }
}

/// Why a decision stopped short of an admission.
enum Stop {
    /// A reject, with its trace ingredients when tracing is on.
    Rejected(RejectReason, Option<TraceParts>),
    /// A malformed request or broken bookkeeping.
    Error(CacError),
}

impl From<CacError> for Stop {
    fn from(e: CacError) -> Self {
        Self::Error(e)
    }
}

impl Stop {
    fn into_decision(self) -> Result<(Decision, Option<TraceParts>), CacError> {
        match self {
            Self::Rejected(reason, parts) => Ok((Decision::Rejected(reason), parts)),
            Self::Error(e) => Err(e),
        }
    }
}

/// Why the all-deadlines check failed at one allocation pair.
enum Failed {
    /// No finite bound exists (some server unstable), verbatim detail.
    Unstable(String),
    /// A deadline is missed: `victim` indexes the first violated closure
    /// connection (`None` = the candidate). `reports` holds every path's
    /// report after the dense check, at most the candidate's after the
    /// screened one.
    Miss {
        victim: Option<usize>,
        reports: Vec<PathReport>,
    },
}

/// The [`BindingConstraint`] for a path that missed its deadline.
fn deadline_binding(
    connection: Option<ConnectionId>,
    report: &PathReport,
    deadline: Seconds,
) -> BindingConstraint {
    BindingConstraint::DeadlineExceeded {
        connection,
        stage: ServerStage::dominant(report),
        delay: report.total,
        deadline,
        excess: report.total - deadline,
    }
}

/// Reject detail for a deadline missed at the maximum allocation
/// (step 2), naming the victim (`None` = the candidate).
fn miss_at_max(victim: Option<ConnectionId>) -> String {
    match victim {
        Some(id) => format!("existing {id} would miss its deadline"),
        None => "requesting connection misses its deadline at (H_S^max, H_R^max)".into(),
    }
}

/// Bisects `[lo, 1]` for `iterations` rounds toward the smallest λ at
/// which `holds` (assumed monotone) is true; returns the upper end.
fn bisect(
    mut lo: f64,
    iterations: usize,
    mut holds: impl FnMut(f64) -> Result<bool, CacError>,
) -> Result<f64, CacError> {
    let mut hi = 1.0_f64;
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        if holds(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// The candidate's dependency closure in `active`, ascending id: every
/// connection an admission for `spec` reads (see
/// [`Membership::closure`]). Deciding over it is bit-identical to
/// deciding over the whole active set.
fn closure_of<'a>(
    members: &Membership,
    net: &HetNetwork,
    active: &'a [ActiveConnection],
    spec: &ConnectionSpec,
) -> Result<Vec<&'a ActiveConnection>, CacError> {
    members
        .closure(net, spec.source, spec.dest)?
        .ids
        .iter()
        .map(|id| match active.binary_search_by_key(id, |c| c.id) {
            Ok(i) => Ok(&active[i]),
            Err(_) => Err(CacError::Substrate(format!(
                "{id} indexed but not active (invariant violation)"
            ))),
        })
        .collect()
}

/// The evaluation inputs of `conns`, in order.
fn path_inputs<'a>(conns: impl IntoIterator<Item = &'a ActiveConnection>) -> Vec<PathInput> {
    conns
        .into_iter()
        .map(|c| PathInput::new(&c.spec, c.h_s, c.h_r))
        .collect()
}

/// Rebuilds the allocation tables of `connections` in their order — the
/// order a fresh state admitting them would use, so the tables come out
/// bit for bit. Ids must be strictly ascending below `next_id`.
fn replay_tables(
    net: &HetNetwork,
    connections: &[ActiveConnection],
    next_id: u64,
) -> Result<Vec<SyncAllocationTable>, CacError> {
    let mut tables = vec![SyncAllocationTable::new(); net.rings().len()];
    for (i, c) in connections.iter().enumerate() {
        if c.id.0 >= next_id || (i > 0 && connections[i - 1].id >= c.id) {
            return Err(CacError::SnapshotMismatch(format!(
                "{} not strictly id-ordered below next_id {next_id}",
                c.id
            )));
        }
        let key = AllocationKey(c.id.0);
        for (ring, h) in [(c.spec.source.ring, c.h_s), (c.spec.dest.ring, c.h_r)] {
            tables[ring]
                .allocate(key, h, net.ring(ring))
                .map_err(|e| CacError::SnapshotMismatch(format!("allocations do not fit: {e}")))?;
        }
    }
    Ok(tables)
}

/// One decision's working set: the candidate, its dependency closure,
/// the allocation line, and the one evaluator every step shares, so the
/// closure's sender-side analyses are computed once per request.
struct Scope<'a> {
    net: &'a HetNetwork,
    spec: &'a ConnectionSpec,
    closure: Vec<&'a ActiveConnection>,
    line: Line,
    /// The closure's evaluation inputs, then the candidate's, whose
    /// allocation pair each evaluation rewrites in place.
    inputs: Vec<PathInput>,
    /// The closure's deadlines, in input order.
    deadlines: Vec<Seconds>,
    ev: Evaluator<'a>,
    fast: FastPathStats,
    tracing: bool,
}

impl<'a> Scope<'a> {
    /// Places the candidate at `at` in the evaluation inputs.
    fn place(&mut self, (h_s, h_r): Pair) {
        let candidate = self.inputs.last_mut().expect("candidate slot");
        candidate.h_s = h_s;
        candidate.h_r = h_r;
    }

    /// The one all-deadlines check: does every closure deadline and the
    /// candidate's own hold with the candidate at `at`? `dense` returns
    /// every path's report. Otherwise existing paths go through the
    /// screened check (exact cache → monotone screening bound → dense):
    /// the accept set is identical, but only the candidate's report is
    /// materialized, which is all an untraced decision reads.
    fn check(
        &mut self,
        at: Pair,
        dense: bool,
    ) -> Result<Result<Vec<PathReport>, Failed>, CacError> {
        self.place(at);
        let (victim, reports) = if dense {
            match self.ev.evaluate_full(&self.inputs)? {
                EvalOutcome::Infeasible(detail) => return Ok(Err(Failed::Unstable(detail))),
                EvalOutcome::Feasible(reports) => {
                    let late = |(r, d): (&PathReport, &Seconds)| r.total > *d;
                    (reports.iter().zip(&self.deadlines).position(late), reports)
                }
            }
        } else {
            match self.ev.evaluate_screened(&self.inputs, &self.deadlines)? {
                ScreenedOutcome::Infeasible(detail) => return Ok(Err(Failed::Unstable(detail))),
                ScreenedOutcome::DeadlineMiss { index, .. } => (Some(index), Vec::new()),
                ScreenedOutcome::Feasible { candidate } => (None, vec![candidate]),
            }
        };
        // An existing victim first, then the candidate's own deadline.
        let miss = victim.map(Some).or_else(|| {
            let candidate = reports.last().expect("candidate included");
            (candidate.total > self.spec.deadline).then_some(None)
        });
        Ok(match miss {
            None => Ok(reports),
            Some(victim) => Err(Failed::Miss { victim, reports }),
        })
    }

    /// [`Scope::check`] at `at`, turning a failure into its reject.
    fn require(
        &mut self,
        at: Pair,
        dense: bool,
        miss_detail: impl FnOnce(Option<ConnectionId>) -> String,
    ) -> Result<Vec<PathReport>, Stop> {
        match self.check(at, dense)? {
            Ok(reports) => Ok(reports),
            Err(failed) => Err(self.reject(failed, at, miss_detail)),
        }
    }

    /// The reject for a check that failed at `at`. `miss_detail` words a
    /// missed deadline from its victim's id (`None` = the candidate).
    fn reject(
        &self,
        failed: Failed,
        at: Pair,
        miss_detail: impl FnOnce(Option<ConnectionId>) -> String,
    ) -> Stop {
        let (victim, reports) = match failed {
            Failed::Unstable(detail) => return self.unstable(at, &[], detail),
            Failed::Miss { victim, reports } => (victim, reports),
        };
        let id = victim.map(|i| self.closure[i].id);
        let parts = self.tracing.then(|| {
            let (report, deadline) = match victim {
                Some(i) => (&reports[i], self.closure[i].spec.deadline),
                None => (
                    reports.last().expect("candidate included"),
                    self.spec.deadline,
                ),
            };
            TraceParts {
                allocation: Some(at),
                connections: self.traces(&reports, None),
                binding: Some(deadline_binding(id, report, deadline)),
            }
        });
        Stop::Rejected(
            RejectReason::InfeasibleAtMaximum {
                detail: miss_detail(id),
            },
            parts,
        )
    }

    /// The reject when no finite bound exists at `at` (or the search
    /// failed to verify), tracing `reports`.
    fn unstable(&self, at: Pair, reports: &[PathReport], detail: String) -> Stop {
        let parts = self.tracing.then(|| TraceParts {
            allocation: Some(at),
            connections: self.traces(reports, None),
            binding: Some(BindingConstraint::ServerUnstable {
                detail: detail.clone(),
            }),
        });
        Stop::Rejected(RejectReason::InfeasibleAtMaximum { detail }, parts)
    }

    /// Trace entries for `reports` over the closure plus the candidate
    /// as the last path (`candidate` is its id once committed).
    fn traces(
        &self,
        reports: &[PathReport],
        candidate: Option<ConnectionId>,
    ) -> Vec<ConnectionTrace> {
        let mut v: Vec<ConnectionTrace> = self
            .closure
            .iter()
            .zip(reports)
            .map(|(c, r)| ConnectionTrace::new(Some(c.id), *r, c.spec.deadline))
            .collect();
        if let Some(last) = reports.get(self.closure.len()) {
            v.push(ConnectionTrace::new(candidate, *last, self.spec.deadline));
        }
        v
    }

    /// The trace ingredients of an admission at `at` as connection `id`.
    fn admitted(&self, at: Pair, reports: &[PathReport], id: ConnectionId) -> Option<TraceParts> {
        self.tracing.then(|| TraceParts {
            allocation: Some(at),
            connections: self.traces(reports, Some(id)),
            binding: None,
        })
    }

    /// Candidate-only evaluation at `at`: the candidate's report and the
    /// multiplexer-delay signature.
    fn signature(&mut self, at: Pair) -> Result<CandidateOutcome, CacError> {
        self.place(at);
        self.ev.evaluate_candidate(&self.inputs)
    }

    /// The candidate-only probe at λ: its total and signature when its
    /// own deadline holds there (existing deadlines are covered by step 2
    /// and monotonicity).
    fn probe(&mut self, lambda: f64) -> Result<Option<(Seconds, Vec<Seconds>)>, CacError> {
        Ok(match self.signature(self.line.at(lambda))? {
            CandidateOutcome::Feasible {
                candidate,
                mux_delays,
            } if candidate.total <= self.spec.deadline => Some((candidate.total, mux_delays)),
            _ => None,
        })
    }

    /// Steps 2–5 of §5.3 along the line: the verified allocation and its
    /// reports. `ladder` is the membership index when the fast path is on.
    fn beta_search(
        &mut self,
        cfg: &CacConfig,
        ladder: Option<&Membership>,
    ) -> Result<(Pair, Vec<PathReport>), Stop> {
        let at_max = self.step2_screen_at_max()?;
        // Reference signature at the maximum, for the eq.-31/32 test.
        // β = 0 never consumes it: λ* degenerates to λ_min, so the whole
        // step-4 signature search (the dense-probe storm of a loaded
        // closure) is skipped.
        let reference = if cfg.beta == 0.0 {
            None
        } else {
            match self.signature(self.line.max)? {
                CandidateOutcome::Feasible {
                    candidate,
                    mux_delays,
                } => Some((candidate.total, mux_delays)),
                CandidateOutcome::Infeasible(detail) => {
                    return Err(self.unstable(self.line.max, &at_max, detail));
                }
            }
        };
        let lambda_min = self.step3_min_need(cfg.search_iterations, ladder)?;
        let lambda_max = match &reference {
            None => lambda_min,
            Some(reference) => self.step4_max_useful(cfg, lambda_min, reference)?,
        };
        // Eqs. 35–36: H = H^{min_need} + β (H^{max_need} − H^{min_need}).
        let lambda_star = lambda_min + cfg.beta * (lambda_max - lambda_min);
        self.step5_verify([lambda_star, lambda_max, 1.0], &at_max)
    }

    /// Step 2: the feasible region is empty unless the maximum works —
    /// and because existing connections' delays are nondecreasing in the
    /// newcomer's allocation, verifying them here covers every smaller
    /// allocation the searches visit. Untraced, the check is screened.
    fn step2_screen_at_max(&mut self) -> Result<Vec<PathReport>, Stop> {
        self.require(self.line.max, self.tracing, miss_at_max)
    }

    /// Step 3: the minimum needed allocation — the smallest λ at which
    /// the candidate meets its deadline. With `ladder`, the fast decision
    /// ladder ([`crate::incremental`]) may decide a probe's boolean
    /// outright, falling back to the dense probe when no rung is
    /// decisive. Only these booleans ever come from the ladder — steps
    /// 4–5 consume dense values — so sound rungs keep the bisection path,
    /// and every committed number, bit-identical to the fast-off run.
    fn step3_min_need(
        &mut self,
        iterations: usize,
        ladder: Option<&Membership>,
    ) -> Result<f64, CacError> {
        let ctx = match ladder {
            Some(members) => match FastContext::assemble(
                &mut self.ev,
                self.net,
                members,
                &self.closure,
                self.spec.source,
                self.spec.dest,
            )? {
                Ok(ctx) => Some(ctx),
                Err(cause) => {
                    // The whole decision runs densely; count it so a
                    // depressed service-level hit rate is attributable
                    // to its cause.
                    self.fast.record_skip(cause);
                    obs::event(
                        "fast_path_skipped",
                        &[("cause", obs::FieldValue::Str(cause))],
                    );
                    None
                }
            },
            None => None,
        };
        let feasible = |s: &mut Self, lambda: f64| -> Result<bool, CacError> {
            if let Some(ctx) = &ctx {
                s.place(s.line.at(lambda));
                let candidate = s.inputs.last().expect("candidate slot");
                if let Some(decided) =
                    ctx.probe(&mut s.ev, candidate, s.spec.deadline, &mut s.fast)?
                {
                    return Ok(decided);
                }
            }
            Ok(s.probe(lambda)?.is_some())
        };
        if feasible(self, 0.0)? {
            return Ok(0.0);
        }
        bisect(0.0, iterations, |lambda| feasible(self, lambda))
    }

    /// Step 4: the maximum useful allocation — the smallest λ whose delay
    /// signature matches the `reference` taken at the maximum (eqs.
    /// 31–33). The "excess" of a point is the delay performance it still
    /// leaves on the table: the candidate's gap to its λ = 1 total plus
    /// every multiplexer-bound shift (equal mux delays imply equal
    /// existing-connection totals, since their sender sides are fixed and
    /// their receive sides then see identical inputs). When delays
    /// saturate the excess hits zero and this is the paper's exact
    /// criterion; when they improve continuously the point realizing all
    /// but `equality_tolerance` of the achievable improvement is taken.
    fn step4_max_useful(
        &mut self,
        cfg: &CacConfig,
        lambda_min: f64,
        (ref_total, ref_mux): &(Seconds, Vec<Seconds>),
    ) -> Result<f64, CacError> {
        let excess = |total: Seconds, mux: &[Seconds]| -> f64 {
            let mut e = (total.value() - ref_total.value()).abs();
            if mux.len() == ref_mux.len() {
                e += mux
                    .iter()
                    .zip(ref_mux)
                    .map(|(a, b)| (a.value() - b.value()).abs())
                    .sum::<f64>();
            } else {
                e += ref_total.value();
            }
            e
        };
        let at_min = self.probe(lambda_min)?;
        let improvement_scale = at_min
            .as_ref()
            .map_or(0.0, |(total, mux)| excess(*total, mux))
            .max(1.0e-9);
        let equals_max = |probe: Option<(Seconds, Vec<Seconds>)>| {
            probe.is_some_and(|(total, mux)| {
                excess(total, &mux) <= cfg.equality_tolerance * improvement_scale
            })
        };
        if equals_max(at_min) {
            return Ok(lambda_min);
        }
        bisect(lambda_min, cfg.search_iterations, |lambda| {
            Ok(equals_max(self.probe(lambda)?))
        })
    }

    /// Step 5: verify every deadline at the chosen point. Monotonicity is
    /// a theorem about the model, but numerics can chip at it, so the
    /// check falls back through `lambdas` (toward the maximum) before
    /// giving up. Untraced, the check is screened.
    fn step5_verify(
        &mut self,
        lambdas: [f64; 3],
        at_max: &[PathReport],
    ) -> Result<(Pair, Vec<PathReport>), Stop> {
        for lambda in lambdas {
            let at = self.line.at(lambda);
            if let Ok(reports) = self.check(at, self.tracing)? {
                return Ok((at, reports));
            }
        }
        Err(self.unstable(
            self.line.max,
            at_max,
            "allocation search failed to verify (numerical)".into(),
        ))
    }
}

impl fmt::Debug for NetworkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetworkState")
            .field("net", &self.net)
            .field("active", &self.active)
            .field("tables", &self.tables)
            .field("next_id", &self.next_id)
            .field("last_cache_stats", &self.last_cache_stats)
            .field("persist_cache", &self.persist_cache)
            .field("fast_path", &self.fast_path)
            .field("down", &self.down)
            .field("clock", &self.clock)
            .field("decision_seq", &self.decision_seq)
            .field("trace_decisions", &self.trace_decisions)
            .finish()
    }
}

impl NetworkState {
    /// A fresh state with no connections.
    #[must_use]
    pub fn new(net: HetNetwork) -> Self {
        Self::new_shared(Arc::new(net))
    }

    /// A fresh state over an already-shared topology. Equivalent to
    /// [`NetworkState::new`] but avoids duplicating the (route-table
    /// bearing) [`HetNetwork`] when many states are built over the same
    /// topology, as the sharded engine does per decision.
    #[must_use]
    pub fn new_shared(net: Arc<HetNetwork>) -> Self {
        let tables = vec![SyncAllocationTable::new(); net.rings().len()];
        Self {
            net,
            active: Vec::new(),
            tables,
            next_id: 0,
            last_cache_stats: None,
            persist_cache: false,
            cache_caps: EvalCacheCaps::default(),
            eval_cache: None,
            fast_path: false,
            members: Membership::default(),
            last_fast_stats: None,
            last_closure_len: None,
            down: BTreeSet::new(),
            clock: Seconds::ZERO,
            decision_seq: 0,
            trace_decisions: false,
            last_trace: None,
        }
    }

    /// Turns per-decision [`DecisionTrace`] assembly on or off. When
    /// on, every completed [`NetworkState::admit`] stores its trace
    /// ([`NetworkState::last_decision_trace`]); when off (the default)
    /// the admission path builds nothing.
    pub fn set_decision_tracing(&mut self, enabled: bool) {
        self.trace_decisions = enabled;
        if !enabled {
            self.last_trace = None;
        }
    }

    /// The trace of the most recent completed decision, if tracing is
    /// on and at least one decision has completed since.
    #[must_use]
    pub fn last_decision_trace(&self) -> Option<&DecisionTrace> {
        self.last_trace.as_ref()
    }

    /// Sets the logical clock stamped onto subsequent
    /// [`DecisionTrace`]s. Event-driven callers (the service layer)
    /// advance this to the event timestamp before each
    /// [`NetworkState::admit`]; it has no effect on decisions.
    pub fn set_clock(&mut self, now: Seconds) {
        self.clock = now;
    }

    /// The current logical clock.
    #[must_use]
    pub fn clock(&self) -> Seconds {
        self.clock
    }

    /// Number of completed admission decisions (admitted or rejected)
    /// since construction.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decision_seq
    }

    /// Enables (or disables) carrying the evaluator's caches across
    /// [`NetworkState::admit`] calls — including across admissions,
    /// releases, and teardowns: cache keys capture everything a result
    /// depends on (envelope identity, allocation bits, and the exact
    /// transform chain a flow went through), so entries stay sound when
    /// the active set changes and simply stop being hit once their
    /// flows are gone. An entry cap at the start of each search bounds
    /// the memory. Decisions are bit-identical either way, because
    /// cache hits return exactly what the miss path would compute.
    pub fn persist_eval_cache(&mut self, enabled: bool) {
        self.persist_cache = enabled;
        if !enabled {
            self.eval_cache = None;
        }
    }

    /// Enables (or disables) the incremental fast path: with it on, the
    /// β bisection's boolean feasible-at-λ probes may be decided by the
    /// closed-form decision ladder ([`crate::incremental`]) instead of
    /// the dense evaluator. Every quantity that reaches a decision, a
    /// trace, or an allocation table still comes from the dense
    /// evaluator, so decisions are bit-identical with the fast path on
    /// or off.
    ///
    /// # Errors
    ///
    /// Never fails: the membership index the ladder reads is always
    /// maintained. The `Result` keeps callers that propagate it
    /// compiling.
    pub fn set_fast_path(&mut self, enabled: bool) -> Result<(), CacError> {
        self.fast_path = enabled;
        Ok(())
    }

    /// Whether the incremental fast path is enabled.
    #[must_use]
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// Fast-path probe counters of the most recent
    /// [`NetworkState::admit`] call (`None` before the first; all-zero
    /// when the fast path is disabled, for a non-searching policy, and
    /// for a reject decided before the search).
    #[must_use]
    pub fn last_fast_path_stats(&self) -> Option<FastPathStats> {
        self.last_fast_stats
    }

    /// Number of active connections the most recent
    /// [`NetworkState::admit`] call decided over — its candidate's
    /// dependency closure (`None` before the first). A decision's cost
    /// scales with this, not with the active count.
    #[must_use]
    pub fn last_closure_len(&self) -> Option<usize> {
        self.last_closure_len
    }

    /// Cache hit/miss counters of the evaluator used by the most recent
    /// [`NetworkState::admit`] call (`None` before the first; all-zero
    /// for a non-searching policy and for a reject decided before the
    /// search).
    /// Benchmarks and the service engine use this to report how much
    /// of each admission's line search was served incrementally.
    #[must_use]
    pub fn last_cache_stats(&self) -> Option<CacheStats> {
        self.last_cache_stats
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &HetNetwork {
        &self.net
    }

    /// The shared handle to the underlying network, for building
    /// further states over the same topology without cloning it.
    #[must_use]
    pub fn shared_network(&self) -> &Arc<HetNetwork> {
        &self.net
    }

    /// Replaces the entry caps applied to a persisted evaluator cache
    /// (see [`EvalCacheCaps`]). Decision-neutral.
    pub fn set_cache_caps(&mut self, caps: EvalCacheCaps) {
        self.cache_caps = caps;
    }

    /// Removes and returns the persisted evaluator cache, if any. The
    /// sharded engine moves one long-lived cache between the short-lived
    /// scoped states a worker builds; keys are content-addressed, so a
    /// cache is sound under any active set over the same topology.
    #[must_use]
    pub fn take_eval_cache(&mut self) -> Option<EvalCache> {
        self.eval_cache.take()
    }

    /// Installs a previously taken evaluator cache (see
    /// [`NetworkState::take_eval_cache`]). Only meaningful with
    /// [`NetworkState::persist_eval_cache`] enabled, which governs
    /// whether the cache is carried forward after the next decision.
    pub fn inject_eval_cache(&mut self, cache: EvalCache) {
        self.eval_cache = Some(cache);
    }

    /// Currently active connections.
    #[must_use]
    pub fn active(&self) -> &[ActiveConnection] {
        &self.active
    }

    /// Synchronous time still allocatable on a ring.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is out of range.
    #[must_use]
    pub fn available_on(&self, ring: impl Into<RingId>) -> Seconds {
        let ring = ring.into();
        self.tables[ring.0].available(self.net.ring(ring))
    }

    /// Decides one admission request under `opts` — the single entry
    /// point for every allocation policy.
    /// On admission, the allocations are recorded and the connection
    /// becomes active. Either way the decision's evaluator statistics
    /// ([`NetworkState::last_cache_stats`],
    /// [`NetworkState::last_fast_path_stats`]) and, with tracing on,
    /// its [`DecisionTrace`] describe this decision afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] for malformed requests or networks;
    /// resource/deadline failures are reported as
    /// [`Decision::Rejected`].
    pub fn admit(
        &mut self,
        spec: ConnectionSpec,
        opts: &AdmissionOptions,
    ) -> Result<Decision, CacError> {
        let _admit_span = obs::span("admit");
        let (decision, parts) = match self.decide(spec, &opts.allocation, &opts.cac) {
            Ok(pair) => pair,
            Err(e) => {
                obs::event("admit_error", &[("kind", obs::FieldValue::Str(e.kind()))]);
                return Err(e);
            }
        };
        let seq = self.decision_seq;
        self.decision_seq += 1;
        // `parts` is `Some` iff tracing is on, so a disabled state never
        // retains a stale trace.
        self.last_trace = parts.map(|p| DecisionTrace {
            seq,
            at: self.clock,
            admitted: decision.is_admitted(),
            scheduler: self.net.scheduler().to_string(),
            allocation: p.allocation,
            connections: p.connections,
            binding: p.binding,
            cache: self.last_cache_stats.unwrap_or_default(),
            fast_path: self.last_fast_stats.unwrap_or_default(),
        });
        obs::event(
            "decision",
            &[
                ("seq", obs::FieldValue::U64(seq)),
                ("admitted", obs::FieldValue::Bool(decision.is_admitted())),
                (
                    "binding",
                    obs::FieldValue::Str(
                        self.last_trace
                            .as_ref()
                            .and_then(|t| t.binding.as_ref())
                            .map_or("", BindingConstraint::kind),
                    ),
                ),
            ],
        );
        Ok(decision)
    }

    /// The admission pipeline behind [`NetworkState::admit`] and
    /// [`NetworkState::reconfigure`]: the shared front end (step 1), then
    /// the β-search (steps 2–5) or a non-searching policy's one dense
    /// check, then the commit. The policies differ only in the line's
    /// floor.
    fn decide(
        &mut self,
        spec: ConnectionSpec,
        policy: &AllocationPolicy,
        cfg: &CacConfig,
    ) -> Result<(Decision, Option<TraceParts>), CacError> {
        // This decision's evaluator work starts at zero: an early reject
        // (and every non-searching policy, which runs no cached search)
        // reports none rather than the previous decision's.
        self.last_cache_stats = Some(CacheStats::default());
        self.last_fast_stats = Some(FastPathStats::default());
        self.validate_spec(&spec)?;
        let closure = closure_of(&self.members, &self.net, &self.active, &spec)?;
        self.last_closure_len = Some(closure.len());
        let line = match self.allocation_line(&spec, policy, cfg) {
            Ok(line) => line,
            Err(stop) => return stop.into_decision(),
        };
        let searching = matches!(policy, AllocationPolicy::BetaSearch);
        let ev = if searching {
            let mut carried = self.eval_cache.take().unwrap_or_default();
            // A persisted cache survives active-set changes (its keys are
            // content-addressed), so bound its growth here instead.
            let caps = self.cache_caps;
            if carried.stage1_entries() > caps.stage1
                || carried.mux_entries() > caps.mux
                || carried.receive_entries() > caps.receive
            {
                carried.clear();
            }
            Evaluator::with_cache(&self.net, cfg.eval.clone(), carried)
        } else {
            // A non-searching policy is one dense check on a fresh
            // evaluator, and reports no search work.
            Evaluator::new(&self.net, cfg.eval.clone())
        };
        let mut inputs = path_inputs(closure.iter().copied());
        inputs.push(PathInput::new(&spec, line.min.0, line.min.1));
        let mut scope = Scope {
            net: &self.net,
            spec: &spec,
            deadlines: closure.iter().map(|c| c.spec.deadline).collect(),
            closure,
            line,
            inputs,
            ev,
            fast: FastPathStats::default(),
            tracing: self.trace_decisions,
        };
        let verdict = if searching {
            scope.beta_search(cfg, self.fast_path.then_some(&self.members))
        } else {
            scope
                .require(line.min, true, |_| {
                    "deadline violated at the fixed allocation".into()
                })
                .map(|reports| (line.min, reports))
        };
        let id = ConnectionId(self.next_id);
        let verdict = verdict.map(|(at, reports)| {
            let delay_bound = reports.last().expect("candidate included").total;
            (at, delay_bound, scope.admitted(at, &reports, id))
        });
        // Recorded on every exit — admit, reject or error.
        if searching {
            self.last_cache_stats = Some(scope.ev.cache_stats());
            self.last_fast_stats = Some(scope.fast);
            if self.persist_cache {
                self.eval_cache = Some(scope.ev.into_cache());
            }
        }
        match verdict {
            Ok((at, delay_bound, parts)) => Ok((self.commit(spec, at, delay_bound)?, parts)),
            Err(stop) => stop.into_decision(),
        }
    }

    /// Step 1, shared by every policy: the allocation line from the
    /// policy's floor — `H^{min_abs}` (§5.2) for the β-search, the pair
    /// itself when fixed, everything available when grabbing, the
    /// scaled per-ring rule when local — to the maximum available pair,
    /// or the reject when a component on the path is down or a ring
    /// cannot hold the floor.
    fn allocation_line(
        &self,
        spec: &ConnectionSpec,
        policy: &AllocationPolicy,
        cfg: &CacConfig,
    ) -> Result<Line, Stop> {
        let reject = |reason, binding| {
            let parts = self.trace_decisions.then(|| TraceParts {
                allocation: None,
                connections: Vec::new(),
                binding: Some(binding),
            });
            Err(Stop::Rejected(reason, parts))
        };
        if let Some(component) = self.down_on_path(spec)? {
            return reject(
                RejectReason::ComponentUnavailable { component },
                BindingConstraint::ComponentDown { component },
            );
        }
        let (ring_s, ring_r) = (spec.source.ring, spec.dest.ring);
        let (avail_s, avail_r) = (self.available_on(ring_s), self.available_on(ring_r));
        let min = match *policy {
            AllocationPolicy::BetaSearch => (
                frames::min_allocation(self.net.ring(ring_s), cfg.min_frame_efficiency),
                frames::min_allocation(self.net.ring(ring_r), cfg.min_frame_efficiency),
            ),
            AllocationPolicy::Fixed { h_s, h_r } => (h_s, h_r),
            // An exhausted ring leaves nothing to grab: a 1 ns floor
            // makes the check below reject it as bandwidth-exhausted.
            AllocationPolicy::GrabAvailable if avail_s.value() <= 0.0 || avail_r.value() <= 0.0 => {
                let floor = SyncBandwidth::new(Seconds::from_nanos(1.0));
                (floor, floor)
            }
            AllocationPolicy::GrabAvailable => {
                (SyncBandwidth::new(avail_s), SyncBandwidth::new(avail_r))
            }
            AllocationPolicy::Local { scheme, headroom } => {
                let rho = spec.envelope.sustained_rate();
                let local = |ring| {
                    let h = scheme.allocate(self.net.ring(ring), &[rho])[0];
                    SyncBandwidth::new(Seconds::new(h.per_rotation().value() * headroom))
                };
                (local(ring_s), local(ring_r))
            }
        };
        let (required_s, required_r) = (min.0.per_rotation(), min.1.per_rotation());
        if avail_s < required_s {
            return reject(
                RejectReason::SourceBandwidthExhausted {
                    available: avail_s,
                    required: required_s,
                },
                BindingConstraint::SourceBandwidth {
                    ring: ring_s.into(),
                    available: avail_s,
                    required: required_s,
                },
            );
        }
        if avail_r < required_r {
            return reject(
                RejectReason::DestBandwidthExhausted {
                    available: avail_r,
                    required: required_r,
                },
                BindingConstraint::DestBandwidth {
                    ring: ring_r.into(),
                    available: avail_r,
                    required: required_r,
                },
            );
        }
        Ok(Line {
            min,
            max: (SyncBandwidth::new(avail_s), SyncBandwidth::new(avail_r)),
        })
    }

    /// Records an admitted connection: assigns its id, allocates both
    /// rings' tables, and indexes its multiplexers.
    fn commit(
        &mut self,
        spec: ConnectionSpec,
        (h_s, h_r): Pair,
        delay_bound: Seconds,
    ) -> Result<Decision, CacError> {
        // A non-persisted cache dies with the active-set change; a
        // persisted one stays valid — see `persist_eval_cache`.
        if !self.persist_cache {
            self.eval_cache = None;
        }
        let id = ConnectionId(self.next_id);
        self.next_id += 1;
        let key = AllocationKey(id.0);
        self.tables[spec.source.ring]
            .allocate(key, h_s, self.net.ring(spec.source.ring))
            .map_err(CacError::from)?;
        if let Err(e) =
            self.tables[spec.dest.ring].allocate(key, h_r, self.net.ring(spec.dest.ring))
        {
            // Roll back the source allocation before surfacing the error.
            let _ = self.tables[spec.source.ring].release(key);
            return Err(e.into());
        }
        self.members.admit(&self.net, id, spec.source, spec.dest)?;
        self.active.push(ActiveConnection {
            id,
            spec,
            h_s,
            h_r,
            delay_bound,
        });
        Ok(Decision::Admitted {
            id,
            h_s,
            h_r,
            delay_bound,
        })
    }

    /// Removes active connection `id`: releases both rings' allocations
    /// and its multiplexer memberships. `active` is strictly id-ordered.
    fn remove(&mut self, id: ConnectionId) -> Result<ActiveConnection, CacError> {
        let idx = self
            .active
            .binary_search_by_key(&id, |c| c.id)
            .map_err(|_| CacError::UnknownConnection(id))?;
        let conn = self.active.remove(idx);
        if !self.persist_cache {
            self.eval_cache = None;
        }
        self.members.release(id);
        for ring in [conn.spec.source.ring, conn.spec.dest.ring] {
            self.tables[ring].release(AllocationKey(id.0))?;
        }
        Ok(conn)
    }

    /// Tears down an active connection, releasing its allocations.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), CacError> {
        self.remove(id).map(drop)
    }

    /// Marks a component as failed, tearing down every active
    /// connection whose path crosses it and reclaiming their `H_S` /
    /// `H_R` allocations. Idempotent: downing an already-down component
    /// tears down nothing further (its connections are already gone).
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidNetwork`] for a component outside
    /// this topology; propagates bookkeeping errors from teardown.
    pub fn set_component_down(&mut self, component: Component) -> Result<TeardownReport, CacError> {
        self.validate_component(component)?;
        let newly = self.down.insert(component);
        let mut report = TeardownReport {
            component,
            already_down: !newly,
            torn: Vec::new(),
            reclaimed_s: Seconds::ZERO,
            reclaimed_r: Seconds::ZERO,
        };
        if newly {
            let victims: Vec<ConnectionId> = self
                .active
                .iter()
                .filter(|c| Self::crosses(&self.net, &c.spec, component))
                .map(|c| c.id)
                .collect();
            for id in victims {
                let conn = self.remove(id)?;
                report.reclaimed_s += conn.h_s.per_rotation();
                report.reclaimed_r += conn.h_r.per_rotation();
                report.torn.push(conn);
            }
        }
        obs::event(
            "component_down",
            &[
                ("kind", obs::FieldValue::Str(component.kind())),
                ("index", obs::FieldValue::U64(component.index() as u64)),
                ("torn", obs::FieldValue::U64(report.torn.len() as u64)),
            ],
        );
        Ok(report)
    }

    /// Restores a failed component. Returns whether it was down (a
    /// repeat restore is a no-op returning `false`). Torn-down
    /// connections do *not* come back automatically — re-admission is a
    /// policy decision left to the caller (the service layer's
    /// "re-admit greedily").
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidNetwork`] for a component outside
    /// this topology.
    pub fn set_component_up(&mut self, component: Component) -> Result<bool, CacError> {
        self.validate_component(component)?;
        let was_down = self.down.remove(&component);
        obs::event(
            "component_up",
            &[
                ("kind", obs::FieldValue::Str(component.kind())),
                ("index", obs::FieldValue::U64(component.index() as u64)),
                ("was_down", obs::FieldValue::Bool(was_down)),
            ],
        );
        Ok(was_down)
    }

    /// The components currently marked down, in sorted order.
    #[must_use]
    pub fn down_components(&self) -> Vec<Component> {
        self.down.iter().copied().collect()
    }

    /// The first down component on a request's path, if any — checked
    /// in a fixed order (source ring, source device, backbone links in
    /// route order, destination device, destination ring) so decisions
    /// stay deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] if the rings are out of range or unrouted.
    pub fn down_on_path(&self, spec: &ConnectionSpec) -> Result<Option<Component>, CacError> {
        if self.down.is_empty() {
            return Ok(None);
        }
        let (src, dst) = (RingId(spec.source.ring), RingId(spec.dest.ring));
        let down = |c: &Component| self.down.contains(c);
        if let Some(c) = [Component::Ring(src), Component::IfDev(src)]
            .into_iter()
            .find(down)
        {
            return Ok(Some(c));
        }
        let route = self.net.route_between(spec.source.ring, spec.dest.ring)?;
        Ok(route
            .iter()
            .map(|link| Component::Link(*link))
            .chain([Component::IfDev(dst), Component::Ring(dst)])
            .find(down))
    }

    /// Whether a spec's path crosses `component` (used to pick teardown
    /// victims).
    fn crosses(net: &HetNetwork, spec: &ConnectionSpec, component: Component) -> bool {
        match component {
            Component::Ring(r) | Component::IfDev(r) => {
                spec.source.ring == r.0 || spec.dest.ring == r.0
            }
            Component::Link(l) => net
                .route_between(spec.source.ring, spec.dest.ring)
                .is_ok_and(|route| route.contains(&l)),
        }
    }

    fn validate_component(&self, component: Component) -> Result<(), CacError> {
        let ok = match component {
            Component::Ring(r) | Component::IfDev(r) => r.0 < self.net.rings().len(),
            Component::Link(l) => l.0 < self.net.backbone().link_count(),
        };
        if ok {
            Ok(())
        } else {
            Err(CacError::InvalidNetwork(format!(
                "unknown component {component}"
            )))
        }
    }

    /// Captures the full admission state in a versioned, restorable
    /// form; see [`crate::snapshot`] for the lossless-ness contract.
    #[must_use]
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            version: SNAPSHOT_VERSION,
            topology: self.net.summary(),
            rings: self.net.rings().to_vec(),
            connections: self
                .active
                .iter()
                .map(|c| ConnectionSnapshot {
                    id: c.id,
                    source: c.spec.source,
                    dest: c.spec.dest,
                    envelope: Arc::clone(&c.spec.envelope),
                    deadline: c.spec.deadline,
                    class: c.spec.class,
                    h_s: c.h_s,
                    h_r: c.h_r,
                    delay_bound: c.delay_bound,
                })
                .collect(),
            down: self.down.iter().copied().collect(),
            next_id: self.next_id,
            clock: self.clock,
            decision_seq: self.decision_seq,
        }
    }

    /// Replaces this state's admission bookkeeping with the snapshot's:
    /// active set, allocation tables (rebuilt by re-allocating in
    /// admission order, which reproduces the original tables
    /// bit-for-bit), down set, id counter, clock and decision sequence.
    /// The snapshot's ring parameters are *adopted*: when they differ
    /// from this network's (the snapshot was taken after a live
    /// [`NetworkState::reconfigure`]), the rings are retuned to match
    /// before the tables are rebuilt, so recovery lands on the
    /// reconfigured timing. The evaluator cache and last-decision trace
    /// are cleared (both are decision-neutral); the tracing flag is
    /// left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::SnapshotMismatch`] for a wrong version,
    /// topology, or ring count, or if the snapshot's allocations do not
    /// fit the rings (a corrupted snapshot).
    pub fn restore(&mut self, snap: &StateSnapshot) -> Result<(), CacError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(CacError::SnapshotMismatch(format!(
                "snapshot version {} != supported {SNAPSHOT_VERSION}",
                snap.version
            )));
        }
        if snap.topology != self.net.summary() {
            return Err(CacError::SnapshotMismatch(format!(
                "snapshot topology ({}) != this network ({})",
                snap.topology,
                self.net.summary()
            )));
        }
        if snap.rings.as_slice() != self.net.rings() {
            self.net = Arc::new(
                self.net
                    .as_ref()
                    .with_ring_configs(snap.rings.clone())
                    .map_err(|e| {
                        CacError::SnapshotMismatch(format!("snapshot ring parameters: {e}"))
                    })?,
            );
        }
        let active: Vec<ActiveConnection> = snap
            .connections
            .iter()
            .map(|c| ActiveConnection {
                id: c.id,
                spec: c.spec(),
                h_s: c.h_s,
                h_r: c.h_r,
                delay_bound: c.delay_bound,
            })
            .collect();
        self.tables = replay_tables(&self.net, &active, snap.next_id)?;
        self.active = active;
        self.down = snap.down.iter().copied().collect();
        self.next_id = snap.next_id;
        self.clock = snap.clock;
        self.decision_seq = snap.decision_seq;
        self.eval_cache = None;
        self.forget_last_decision();
        self.members = Membership::rebuild(&self.net, &self.active)?;
        Ok(())
    }

    /// Builds a fresh state over `net` directly from a snapshot —
    /// [`NetworkState::new`] followed by [`NetworkState::restore`].
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::restore`].
    pub fn from_snapshot(net: HetNetwork, snap: &StateSnapshot) -> Result<Self, CacError> {
        let mut state = Self::new(net);
        state.restore(snap)?;
        Ok(state)
    }

    /// Applies a live reconfiguration: the ring parameters change in
    /// place per `plan`, and every admitted connection is renegotiated
    /// against the new parameters — in admission (id) order, *keeping
    /// its id* — under `opts` (with `plan.beta` substituted into the
    /// β-search when set). Connections that no longer fit are dropped
    /// and returned in the report for the caller to park and retry.
    ///
    /// Keeping ids makes the operation certifiable: a fresh state built
    /// at the new parameters and fed the surviving specs through
    /// [`NetworkState::admit`] in the same order computes bit-identical
    /// allocations — ids only order the allocation tables and
    /// multiplexer memberships, and an order-preserving renumbering
    /// never changes a sum — so post-reconfig decisions are
    /// bit-identical to that fresh engine's (pinned by the reconfig
    /// certification tests). It also keeps `next_id` monotone, so
    /// departure bookkeeping above the core never sees an id reused.
    ///
    /// The incremental fast-path state is rebuilt empty and then
    /// delta-maintained through the renegotiations; the evaluator cache
    /// is dropped wholesale (its keys do not span ring parameters). The
    /// reconfiguration consumes one decision sequence number, so audit
    /// logs built on the sequence stay gap-free. The renegotiations run
    /// the admission pipeline, but the last-decision accessors
    /// ([`NetworkState::last_cache_stats`] and the like) are cleared
    /// afterwards: they describe [`NetworkState::admit`] calls only.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidRequest`] for a malformed plan,
    /// [`CacError::InvalidNetwork`] if the resulting ring parameters
    /// are invalid (e.g. Δ ≥ TTRT), and propagates evaluator errors
    /// from the renegotiations — after which the state must be
    /// considered poisoned, like any bookkeeping error.
    pub fn reconfigure(
        &mut self,
        plan: &ReconfigPlan,
        opts: &AdmissionOptions,
    ) -> Result<ReconfigReport, CacError> {
        let _span = obs::span("reconfigure");
        let new_rings = plan.apply(self.net.rings())?;
        let net = Arc::new(self.net.as_ref().with_ring_configs(new_rings)?);
        let mut report = ReconfigReport {
            old_allocatable: self.net.rings().iter().map(|r| r.allocatable()).collect(),
            new_allocatable: net.rings().iter().map(|r| r.allocatable()).collect(),
            ..ReconfigReport::default()
        };
        let survivors = std::mem::take(&mut self.active);
        let saved_next_id = self.next_id;
        self.net = net;
        self.tables = vec![SyncAllocationTable::new(); self.net.rings().len()];
        self.eval_cache = None;
        self.members = Membership::default();
        let mut cac = opts.cac.clone();
        if let Some(beta) = plan.beta {
            cac.beta = beta;
        }
        for conn in survivors {
            // Renegotiate through the admission pipeline, but with
            // the id counter pinned to the connection's original id: the
            // commit then re-assigns exactly that id, and because the
            // survivors arrive in ascending id order the allocation
            // tables are rebuilt in the same summation order a fresh
            // engine would produce.
            self.next_id = conn.id.0;
            let (decision, _parts) = self.decide(conn.spec.clone(), &opts.allocation, &cac)?;
            match decision {
                Decision::Admitted { id, h_s, h_r, .. } => {
                    debug_assert_eq!(id, conn.id, "renegotiation must keep the id");
                    let bits = |h: SyncBandwidth| h.per_rotation().value().to_bits();
                    if (bits(h_s), bits(h_r)) == (bits(conn.h_s), bits(conn.h_r)) {
                        report.unchanged.push(id);
                    } else {
                        report.renegotiated.push(id);
                    }
                }
                Decision::Rejected(_) => {
                    report.reclaimed_s += conn.h_s.per_rotation();
                    report.reclaimed_r += conn.h_r.per_rotation();
                    report.dropped.push(conn);
                }
            }
        }
        self.next_id = saved_next_id;
        // The accessors describe the last `admit` call, not the
        // renegotiations.
        self.forget_last_decision();
        let seq = self.decision_seq;
        self.decision_seq += 1;
        obs::event(
            "reconfigure",
            &[
                ("seq", obs::FieldValue::U64(seq)),
                (
                    "renegotiated",
                    obs::FieldValue::U64(report.renegotiated.len() as u64),
                ),
                (
                    "unchanged",
                    obs::FieldValue::U64(report.unchanged.len() as u64),
                ),
                ("dropped", obs::FieldValue::U64(report.dropped.len() as u64)),
            ],
        );
        Ok(report)
    }

    /// Builds a state over a shared topology that holds exactly
    /// `connections` — a subset of some larger admitted set, in id
    /// order — with allocation tables replayed in that same order, the
    /// loop [`NetworkState::restore`] runs. `next_id` seeds the id
    /// counter so that an admission in this state is assigned the id
    /// the full sequential state would assign next, and `down` carries
    /// the failed-component set forward.
    ///
    /// The sharded engine builds one of these per decision from a
    /// dependency closure of the candidate: a set closed under
    /// "shares a multiplexer with". Over such a subset every quantity
    /// the admission computes — allocation-table availability on the
    /// endpoint rings, per-multiplexer aggregates, existing flows'
    /// delay bounds — is bit-identical to the full state's, because
    /// every flow that could contribute to them is present and in the
    /// same relative order (see `DESIGN.md` §12).
    ///
    /// # Errors
    ///
    /// Returns [`CacError::SnapshotMismatch`] if `connections` is not
    /// strictly id-ordered below `next_id`, or its allocations do not
    /// fit the rings (either means the caller's partitioned state is
    /// corrupt).
    pub fn scoped(
        net: Arc<HetNetwork>,
        connections: Vec<ActiveConnection>,
        down: BTreeSet<Component>,
        next_id: u64,
    ) -> Result<Self, CacError> {
        let mut state = Self::new_shared(net);
        state.tables = replay_tables(&state.net, &connections, next_id)?;
        state.members = Membership::rebuild(&state.net, &connections)?;
        state.active = connections;
        state.down = down;
        state.next_id = next_id;
        Ok(state)
    }

    /// Clears the last-decision accessors (stats, closure size, trace).
    fn forget_last_decision(&mut self) {
        self.last_cache_stats = None;
        self.last_fast_stats = None;
        self.last_closure_len = None;
        self.last_trace = None;
    }

    /// Recomputes every active connection's *slack*: deadline minus the
    /// current worst-case delay bound. Operators watch these to see how
    /// close the admitted set runs to its contracts (a β = 0 network
    /// shows slacks near zero; larger β buys headroom).
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] if the state is internally inconsistent.
    pub fn slacks(&self, cfg: &CacConfig) -> Result<Vec<(ConnectionId, Seconds)>, CacError> {
        let delays = self.current_delays(cfg)?;
        Ok(delays
            .into_iter()
            .zip(&self.active)
            .map(|((id, d), c)| (id, c.spec.deadline - d))
            .collect())
    }

    /// Recomputes every active connection's current delay bound.
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] if the state is internally inconsistent.
    pub fn current_delays(
        &self,
        cfg: &CacConfig,
    ) -> Result<Vec<(ConnectionId, Seconds)>, CacError> {
        let inputs = path_inputs(&self.active);
        match evaluate_paths(&self.net, &inputs, &cfg.eval)? {
            EvalOutcome::Feasible(reports) => Ok(self
                .active
                .iter()
                .zip(reports)
                .map(|(c, r)| (c.id, r.total))
                .collect()),
            EvalOutcome::Infeasible(detail) => Err(CacError::Substrate(format!(
                "admitted set became infeasible: {detail} (invariant violation)"
            ))),
        }
    }

    fn validate_spec(&self, spec: &ConnectionSpec) -> Result<(), CacError> {
        if !self.net.contains(spec.source) {
            return Err(CacError::InvalidRequest(format!(
                "unknown source {}",
                spec.source
            )));
        }
        if !self.net.contains(spec.dest) {
            return Err(CacError::InvalidRequest(format!(
                "unknown dest {}",
                spec.dest
            )));
        }
        if spec.source.ring == spec.dest.ring {
            return Err(CacError::InvalidRequest(
                "source and destination must be on different rings".into(),
            ));
        }
        if spec.deadline.value() <= 0.0 {
            return Err(CacError::InvalidRequest("deadline must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::HostId;
    use hetnet_fddi::ring::RingConfig;
    use hetnet_traffic::models::DualPeriodicEnvelope;
    use hetnet_traffic::units::{Bits, BitsPerSec};

    fn state() -> NetworkState {
        NetworkState::new(HetNetwork::paper_topology())
    }

    fn spec(src: (usize, usize), dst: (usize, usize), deadline_ms: f64) -> ConnectionSpec {
        ConnectionSpec {
            source: HostId {
                ring: src.0,
                station: src.1,
            },
            dest: HostId {
                ring: dst.0,
                station: dst.1,
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

    #[test]
    fn admits_a_reasonable_request() {
        let mut s = state();
        let cfg = CacConfig::default();
        let d = s
            .admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap();
        match d {
            Decision::Admitted {
                h_s,
                h_r,
                delay_bound,
                ..
            } => {
                assert!(delay_bound <= Seconds::from_millis(100.0));
                assert!(h_s.per_rotation().value() > 0.0);
                assert!(h_r.per_rotation().value() > 0.0);
                // The allocation is recorded on both rings.
                assert!(s.available_on(0) < Seconds::from_millis(7.2));
                assert!(s.available_on(1) < Seconds::from_millis(7.2));
                assert_eq!(s.active().len(), 1);
            }
            Decision::Rejected(r) => panic!("unexpected rejection: {r}"),
        }
    }

    #[test]
    fn rejects_impossible_deadline() {
        let mut s = state();
        let cfg = CacConfig::default();
        // Two token rotations alone exceed 1 ms.
        let d = s
            .admit(spec((0, 0), (1, 0), 1.0), &cfg.clone().into())
            .unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::InfeasibleAtMaximum { .. })
        ));
        assert!(s.active().is_empty());
        // Nothing was allocated.
        assert!((s.available_on(0).as_millis() - 7.2).abs() < 1e-9);
    }

    #[test]
    fn beta_interpolates_between_min_and_max() {
        let cfg0 = CacConfig::default().with_beta(0.0);
        let cfg1 = CacConfig::default().with_beta(1.0);
        let cfg_half = CacConfig::default().with_beta(0.5);
        let mut h = Vec::new();
        for cfg in [&cfg0, &cfg_half, &cfg1] {
            let mut s = state();
            match s
                .admit(spec((0, 0), (1, 0), 60.0), &cfg.clone().into())
                .unwrap()
            {
                Decision::Admitted { h_s, .. } => h.push(h_s.per_rotation().value()),
                Decision::Rejected(r) => panic!("rejected: {r}"),
            }
        }
        assert!(h[0] <= h[1] + 1e-12, "beta=0 gives the least: {h:?}");
        assert!(h[1] <= h[2] + 1e-12, "beta=1 gives the most: {h:?}");
        assert!(h[2] > h[0], "the spread is non-trivial: {h:?}");
    }

    fn with_policy(allocation: AllocationPolicy) -> AdmissionOptions {
        AdmissionOptions {
            cac: CacConfig::default(),
            allocation,
        }
    }

    #[test]
    fn beta_policy_admits() {
        let mut s = state();
        let opts = AdmissionOptions::beta_search(CacConfig::default().with_beta(0.5));
        let d = s.admit(spec((0, 0), (1, 0), 100.0), &opts).unwrap();
        assert!(d.is_admitted());
    }

    #[test]
    fn local_proportional_without_headroom_fails_tight_deadlines() {
        // ProportionalToRate meets the 20 Mb/s demand with zero headroom:
        // the MAC is then (borderline) unstable and the worst-case delay
        // unbounded, so the admission check must reject.
        let mut s = state();
        let opts = with_policy(AllocationPolicy::Local {
            scheme: AllocationScheme::ProportionalToRate,
            headroom: 1.0,
        });
        let d = s.admit(spec((0, 0), (1, 0), 100.0), &opts).unwrap();
        assert!(!d.is_admitted());
    }

    #[test]
    fn local_proportional_with_headroom_can_admit() {
        let mut s = state();
        let opts = with_policy(AllocationPolicy::Local {
            scheme: AllocationScheme::ProportionalToRate,
            headroom: 1.8,
        });
        let d = s.admit(spec((0, 0), (1, 0), 100.0), &opts).unwrap();
        assert!(d.is_admitted(), "{d:?}");
    }

    #[test]
    fn grab_available_starves_the_rings() {
        let mut s = state();
        let opts = with_policy(AllocationPolicy::GrabAvailable);
        let first = s.admit(spec((0, 0), (1, 0), 100.0), &opts).unwrap();
        assert!(first.is_admitted());
        // The whole budget of rings 0 and 1 is gone...
        assert!(s.available_on(0).value() < 1e-9);
        assert!(s.available_on(1).value() < 1e-9);
        // ...so anything touching those rings is rejected for want of
        // bandwidth, exactly as the paper predicts for this strawman.
        let second = s.admit(spec((0, 1), (2, 0), 100.0), &opts).unwrap();
        assert!(
            matches!(
                second,
                Decision::Rejected(RejectReason::SourceBandwidthExhausted { .. })
            ),
            "{second:?}"
        );
    }

    #[test]
    fn release_returns_bandwidth() {
        let mut s = state();
        let cfg = CacConfig::default();
        let Decision::Admitted { id, .. } = s
            .admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap()
        else {
            panic!("expected admission")
        };
        s.release(id).unwrap();
        assert!(s.active().is_empty());
        assert!((s.available_on(0).as_millis() - 7.2).abs() < 1e-9);
        assert!((s.available_on(1).as_millis() - 7.2).abs() < 1e-9);
        assert!(matches!(s.release(id), Err(CacError::UnknownConnection(_))));
    }

    #[test]
    fn existing_deadlines_are_protected() {
        let mut s = state();
        // Admit one connection with a deadline so tight that almost any
        // added disturbance would violate it; with beta=0 it is left with
        // a bare-minimum allocation and thus no slack.
        let cfg_tight = CacConfig::default().with_beta(0.0);
        let first = s
            .admit(spec((0, 0), (1, 0), 60.0), &cfg_tight.clone().into())
            .unwrap();
        let Decision::Admitted { delay_bound, .. } = first else {
            panic!("first must be admitted")
        };
        // Tighten: record how close the first connection runs.
        assert!(delay_bound <= Seconds::from_millis(60.0));
        // Request a second connection sharing both rings. Whatever the
        // decision, the first connection's deadline must still hold.
        let cfg = CacConfig::default();
        let _ = s
            .admit(spec((0, 1), (1, 1), 60.0), &cfg.clone().into())
            .unwrap();
        let delays = s.current_delays(&cfg).unwrap();
        for (i, (_, d)) in delays.iter().enumerate() {
            assert!(
                *d <= s.active()[i].spec.deadline,
                "connection {i} violated after admission"
            );
        }
    }

    #[test]
    fn fills_ring_until_exhausted() {
        let mut s = state();
        let cfg = CacConfig::default().with_beta(1.0);
        let mut admitted = 0;
        // Station indices cycle through ring 0's four hosts; allow
        // multiple per host for this capacity test.
        for k in 0..8 {
            let d = s
                .admit(
                    spec((0, k % 4), (1 + (k % 2), k % 4), 120.0),
                    &cfg.clone().into(),
                )
                .unwrap();
            if d.is_admitted() {
                admitted += 1;
            } else {
                break;
            }
        }
        // beta = 1 grabs everything useful; the ring saturates quickly.
        assert!(admitted >= 1);
        assert!(
            admitted < 8,
            "greedy allocation must eventually exhaust ring 0"
        );
    }

    #[test]
    fn request_reports_cache_hits() {
        let mut s = state();
        let cfg = CacConfig::fast();
        assert!(s.last_cache_stats().is_none());
        s.admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap();
        let first = s.last_cache_stats().expect("stats after a request");
        // Even a lone request reuses its stage-1 analyses and the muxes
        // untouched between the feasibility check and the searches.
        assert!(first.stage1_hits > 0, "{first:?}");
        // A second request runs its line search against the first as
        // background: the background-only muxes are analyzed once and
        // then served from cache on every probe.
        s.admit(spec((1, 0), (2, 0), 120.0), &cfg.clone().into())
            .unwrap();
        let second = s.last_cache_stats().expect("stats after a request");
        assert!(second.mux_hits > 0, "{second:?}");
        assert!(second.mux_hit_rate() > 0.0);
        assert!(second.stage1_hit_rate() > 0.0);
    }

    #[test]
    fn persistent_cache_warms_repeated_requests() {
        let cfg = CacConfig::fast();
        let mut s = state();
        s.persist_eval_cache(true);
        // An impossible deadline is rejected at step 2 without touching
        // the active set, so the carried cache stays valid.
        let sp = spec((0, 0), (1, 0), 1.0);
        assert!(!s
            .admit(sp.clone(), &cfg.clone().into())
            .unwrap()
            .is_admitted());
        // Retrying the identical request is served entirely from the
        // carried cache: zero misses in either stage.
        assert!(!s.admit(sp, &cfg.clone().into()).unwrap().is_admitted());
        let second = s.last_cache_stats().expect("stats recorded");
        assert_eq!(second.stage1_misses, 0, "{second:?}");
        assert_eq!(second.mux_misses, 0, "{second:?}");
        assert!(second.stage1_hits > 0 && second.mux_hits > 0, "{second:?}");
    }

    #[test]
    fn persistent_cache_does_not_change_decisions() {
        let cfg = CacConfig::fast();
        let mut plain = state();
        let mut warmed = state();
        warmed.persist_eval_cache(true);
        // A mix of admissions and rejections over shared envelopes; the
        // admitted allocations must agree bit-for-bit.
        let requests = [
            spec((0, 0), (1, 0), 100.0),
            spec((0, 1), (1, 1), 1.0),
            spec((0, 1), (1, 1), 80.0),
            spec((1, 0), (2, 0), 120.0),
        ];
        for (k, sp) in requests.into_iter().enumerate() {
            let a = plain.admit(sp.clone(), &cfg.clone().into()).unwrap();
            let b = warmed.admit(sp, &cfg.clone().into()).unwrap();
            match (a, b) {
                (
                    Decision::Admitted {
                        h_s: hs_a,
                        h_r: hr_a,
                        delay_bound: d_a,
                        ..
                    },
                    Decision::Admitted {
                        h_s: hs_b,
                        h_r: hr_b,
                        delay_bound: d_b,
                        ..
                    },
                ) => {
                    assert_eq!(
                        hs_a.per_rotation().value().to_bits(),
                        hs_b.per_rotation().value().to_bits(),
                        "request {k}: H_S diverged"
                    );
                    assert_eq!(
                        hr_a.per_rotation().value().to_bits(),
                        hr_b.per_rotation().value().to_bits(),
                        "request {k}: H_R diverged"
                    );
                    assert_eq!(
                        d_a.value().to_bits(),
                        d_b.value().to_bits(),
                        "request {k}: delay bound diverged"
                    );
                }
                (Decision::Rejected(_), Decision::Rejected(_)) => {}
                (a, b) => panic!("request {k}: decisions diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn request_fixed_respects_budget_and_deadline() {
        let mut s = state();
        let cfg = CacConfig::default();
        let h = SyncBandwidth::new(Seconds::from_millis(2.4));
        let d = s
            .admit(
                spec((0, 0), (1, 0), 100.0),
                &AdmissionOptions::fixed(cfg.clone(), h, h),
            )
            .unwrap();
        assert!(d.is_admitted());
        // Asking for more than remains on ring 0 is rejected outright.
        let whole = SyncBandwidth::new(Seconds::from_millis(7.0));
        let d = s
            .admit(
                spec((0, 1), (2, 0), 100.0),
                &AdmissionOptions::fixed(cfg.clone(), whole, h),
            )
            .unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::SourceBandwidthExhausted { .. })
        ));
        // An undersized fixed allocation fails the deadline check.
        let tiny = SyncBandwidth::new(Seconds::from_micros(200.0));
        let d = s
            .admit(
                spec((0, 1), (2, 0), 100.0),
                &AdmissionOptions::fixed(cfg.clone(), tiny, tiny),
            )
            .unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::InfeasibleAtMaximum { .. })
        ));
    }

    #[test]
    fn malformed_requests_rejected_as_errors() {
        let mut s = state();
        let cfg = CacConfig::default();
        let mut bad = spec((0, 0), (1, 0), 100.0);
        bad.dest.ring = 0;
        assert!(matches!(
            s.admit(bad, &cfg.clone().into()),
            Err(CacError::InvalidRequest(_))
        ));
        let mut bad = spec((0, 0), (1, 0), 100.0);
        bad.deadline = Seconds::ZERO;
        assert!(matches!(
            s.admit(bad, &cfg.clone().into()),
            Err(CacError::InvalidRequest(_))
        ));
        let mut bad = spec((0, 0), (1, 0), 100.0);
        bad.source.station = 77;
        assert!(matches!(
            s.admit(bad, &cfg.clone().into()),
            Err(CacError::InvalidRequest(_))
        ));
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn beta_validated() {
        let _ = CacConfig::default().with_beta(1.5);
    }

    #[test]
    fn slacks_are_nonnegative_and_deadline_bounded() {
        let mut s = state();
        let cfg = CacConfig::fast();
        s.admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap();
        s.admit(spec((1, 0), (2, 0), 120.0), &cfg.clone().into())
            .unwrap();
        let slacks = s.slacks(&cfg).unwrap();
        assert_eq!(slacks.len(), s.active().len());
        for ((id, slack), c) in slacks.iter().zip(s.active()) {
            assert_eq!(*id, c.id);
            assert!(!slack.is_negative(), "negative slack for {id}");
            assert!(*slack <= c.spec.deadline);
        }
    }

    #[test]
    fn fast_config_is_cheaper_but_same_kind() {
        let fast = CacConfig::fast();
        let full = CacConfig::default();
        assert!(fast.search_iterations <= full.search_iterations);
        assert!(fast.eval.flatten_subdivisions <= full.eval.flatten_subdivisions);
        assert_eq!(fast.beta, full.beta);
    }

    #[test]
    fn reject_reason_display() {
        let r = RejectReason::SourceBandwidthExhausted {
            available: Seconds::from_millis(1.0),
            required: Seconds::from_millis(2.0),
        };
        assert!(r.to_string().contains("source ring"));
        let r = RejectReason::DestBandwidthExhausted {
            available: Seconds::from_millis(1.0),
            required: Seconds::from_millis(2.0),
        };
        assert!(r.to_string().contains("destination ring"));
        let r = RejectReason::InfeasibleAtMaximum {
            detail: "why".into(),
        };
        assert!(r.to_string().contains("why"));
    }

    #[test]
    fn decision_is_admitted_helper() {
        let d = Decision::Rejected(RejectReason::InfeasibleAtMaximum {
            detail: String::new(),
        });
        assert!(!d.is_admitted());
    }

    #[test]
    fn buffer_limited_network_rejects_what_it_cannot_buffer() {
        use hetnet_traffic::units::Bits;
        // With per-host buffers far below the Theorem-1.2 requirement of
        // this source, admission must fail outright.
        let net = HetNetwork::paper_topology().with_buffers(Some(Bits::from_kbits(10.0)), None);
        let mut s = NetworkState::new(net);
        let d = s
            .admit(spec((0, 0), (1, 0), 100.0), &CacConfig::fast().into())
            .unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::InfeasibleAtMaximum { .. })
        ));
    }

    #[test]
    fn traces_carry_every_decisions_clock_and_seq() {
        let mut s = state();
        let cfg = CacConfig::fast();
        s.set_decision_tracing(true);
        s.set_clock(Seconds::new(1.5));
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap()
            .is_admitted());
        let t = s.last_decision_trace().expect("tracing is on");
        assert_eq!((t.seq, t.at.value(), t.admitted), (0, 1.5, true));
        s.set_clock(Seconds::new(2.5));
        assert!(!s
            .admit(spec((0, 1), (1, 1), 1.0), &cfg.clone().into())
            .unwrap()
            .is_admitted());
        let t = s.last_decision_trace().expect("tracing is on");
        assert_eq!((t.seq, t.at.value(), t.admitted), (1, 2.5, false));
        assert_eq!(s.decisions(), 2);
        assert_eq!(s.clock(), Seconds::new(2.5));
    }

    #[test]
    fn early_rejects_report_no_evaluator_work() {
        let mut s = state();
        s.set_fast_path(true).unwrap();
        s.set_decision_tracing(true);
        let opts: AdmissionOptions = CacConfig::fast().into();
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        let searched = s.last_cache_stats().expect("a search ran");
        assert!(searched.stage1_misses > 0, "{searched:?}");
        s.set_component_down(Component::Ring(RingId(2))).unwrap();
        let d = s.admit(spec((2, 0), (1, 1), 100.0), &opts).unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::ComponentUnavailable { .. })
        ));
        assert_eq!(s.last_cache_stats(), Some(CacheStats::default()));
        assert_eq!(s.last_fast_path_stats(), Some(FastPathStats::default()));
        let t = s.last_decision_trace().expect("tracing is on");
        assert_eq!(t.cache, CacheStats::default());
        assert_eq!(t.fast_path, FastPathStats::default());

        // A fixed allocation after a search reports no search work.
        s.set_component_up(Component::Ring(RingId(2))).unwrap();
        assert!(s
            .admit(spec((1, 1), (2, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s.last_cache_stats().expect("a search ran").stage1_misses > 0);
        let min = SyncBandwidth::new(Seconds::from_millis(0.5));
        s.admit(
            spec((0, 1), (2, 1), 100.0),
            &AdmissionOptions::fixed(CacConfig::fast(), min, min),
        )
        .unwrap();
        assert_eq!(s.last_cache_stats(), Some(CacheStats::default()));
        assert_eq!(s.last_fast_path_stats(), Some(FastPathStats::default()));
    }

    /// `spec` with a source sending `c1_mbit` per 100 ms (and an eighth
    /// of it per 10 ms) instead of 2 Mbit.
    fn heavy(
        src: (usize, usize),
        dst: (usize, usize),
        c1_mbit: f64,
        deadline_ms: f64,
    ) -> ConnectionSpec {
        ConnectionSpec {
            envelope: Arc::new(
                DualPeriodicEnvelope::new(
                    Bits::from_mbits(c1_mbit),
                    Seconds::from_millis(100.0),
                    Bits::from_mbits(c1_mbit / 8.0),
                    Seconds::from_millis(10.0),
                    BitsPerSec::from_mbps(100.0),
                )
                .unwrap(),
            ),
            ..spec(src, dst, deadline_ms)
        }
    }

    /// Admits `sp` into `s` and into its untraced twin `u`. Tracing
    /// swaps the screened checks for dense ones, which must not move a
    /// decision: both must decide the same, bit for bit and reject
    /// details included, and only `u` keeps no trace.
    fn admit_twins(
        s: &mut NetworkState,
        u: &mut NetworkState,
        sp: ConnectionSpec,
        opts: &AdmissionOptions,
    ) -> Decision {
        let d = s.admit(sp.clone(), opts).unwrap();
        assert_eq!(
            format!("{d:?}"),
            format!("{:?}", u.admit(sp, opts).unwrap())
        );
        assert!(u.last_decision_trace().is_none());
        d
    }

    fn binding(s: &NetworkState) -> &BindingConstraint {
        let t = s.last_decision_trace().expect("tracing is on");
        t.binding.as_ref().expect("reject names a constraint")
    }

    #[test]
    fn decision_tracing_explains_admits_and_rejects() {
        let mut s = state();
        let mut u = state();
        let cfg = CacConfig::fast();
        let opts: AdmissionOptions = cfg.clone().into();
        // Off by default: decisions leave no trace.
        assert!(admit_twins(&mut s, &mut u, spec((0, 0), (1, 0), 100.0), &opts).is_admitted());
        assert!(s.last_decision_trace().is_none());

        s.set_decision_tracing(true);
        // Admit: allocation recorded, candidate entry last with its id,
        // nonnegative slack, no binding constraint.
        let d = admit_twins(&mut s, &mut u, spec((1, 0), (2, 0), 120.0), &opts);
        let Decision::Admitted {
            id,
            h_s,
            delay_bound,
            ..
        } = d
        else {
            panic!("expected admission")
        };
        let t = s.last_decision_trace().expect("trace recorded").clone();
        assert!(t.admitted);
        assert_eq!(t.seq, 1);
        assert!(t.binding.is_none());
        let (th_s, _) = t.allocation.expect("allocation recorded");
        assert_eq!(
            th_s.per_rotation().value().to_bits(),
            h_s.per_rotation().value().to_bits()
        );
        assert_eq!(t.connections.len(), s.active().len());
        let cand = t.candidate().expect("candidate entry");
        assert_eq!(cand.id, Some(id));
        assert_eq!(
            cand.report.total.value().to_bits(),
            delay_bound.value().to_bits()
        );
        assert!(!cand.slack.is_negative());
        assert!(t.cache.stage1_hits > 0 || t.cache.stage1_misses > 0);

        // Reject (deadline): the binding constraint names the candidate
        // (no id) and a dominant stage, with positive excess.
        let d = admit_twins(&mut s, &mut u, spec((0, 1), (1, 1), 1.0), &opts);
        assert!(!d.is_admitted());
        let t = s.last_decision_trace().expect("trace recorded");
        assert!(!t.admitted);
        match binding(&s) {
            BindingConstraint::DeadlineExceeded {
                connection,
                excess,
                deadline,
                delay,
                ..
            } => {
                assert_eq!(*connection, None);
                assert!(excess.value() > 0.0);
                assert!((delay.value() - deadline.value() - excess.value()).abs() < 1e-12);
            }
            other => panic!("unexpected binding: {other:?}"),
        }
        assert_eq!(t.candidate().expect("evaluated paths").id, None);
        assert!(t.candidate().unwrap().slack.is_negative());
        assert!(!t.to_json_line().is_empty());

        // Reject (an existing deadline): β = 0 leaves connection 2 almost
        // no slack, and a heavy newcomer into its receive ring binds it.
        let tight: AdmissionOptions = cfg.clone().with_beta(0.0).into();
        assert!(admit_twins(&mut s, &mut u, spec((2, 0), (0, 1), 70.0), &tight).is_admitted());
        let d = admit_twins(&mut s, &mut u, heavy((1, 1), (0, 2), 2.0, 200.0), &opts);
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::InfeasibleAtMaximum { ref detail })
                if detail == "existing connection-2 would miss its deadline"
        ));
        assert!(matches!(
            binding(&s),
            BindingConstraint::DeadlineExceeded {
                connection: Some(ConnectionId(2)),
                ..
            }
        ));

        // Reject (unstable): no finite bound exists even at the maximum.
        let d = admit_twins(&mut s, &mut u, heavy((2, 2), (0, 3), 8.0, 100.0), &opts);
        assert!(!d.is_admitted());
        assert!(matches!(
            binding(&s),
            BindingConstraint::ServerUnstable { .. }
        ));

        // Reject (down component): decided before any evaluation.
        for st in [&mut s, &mut u] {
            st.set_component_down(Component::Ring(RingId(2))).unwrap();
        }
        let d = admit_twins(&mut s, &mut u, spec((2, 3), (1, 3), 100.0), &opts);
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::ComponentUnavailable { .. })
        ));
        assert!(matches!(
            binding(&s),
            BindingConstraint::ComponentDown { .. }
        ));

        // Disabling clears the stored trace.
        s.set_decision_tracing(false);
        assert!(s.last_decision_trace().is_none());
    }

    #[test]
    fn fixed_rejects_carry_bindings_too() {
        let mut s = state();
        s.set_decision_tracing(true);
        let mut u = state();
        let ms = |v: f64| SyncBandwidth::new(Seconds::from_millis(v));
        // A fixed pair is one dense check on a fresh evaluator in either
        // mode, so it reports no search work.
        let mut fixed = |sp: ConnectionSpec, h_s: SyncBandwidth, h_r: SyncBandwidth| {
            let opts = AdmissionOptions::fixed(CacConfig::default(), h_s, h_r);
            let d = admit_twins(&mut s, &mut u, sp, &opts);
            for st in [&s, &u] {
                assert_eq!(st.last_cache_stats(), Some(CacheStats::default()));
            }
            let trace = s.last_decision_trace().expect("tracing is on").clone();
            (d, trace)
        };
        // Oversized: source-bandwidth binding, then destination.
        let (d, t) = fixed(spec((0, 0), (1, 0), 100.0), ms(8.0), ms(8.0));
        assert!(!d.is_admitted());
        assert!(matches!(
            t.binding,
            Some(BindingConstraint::SourceBandwidth { .. })
        ));
        assert!(t.allocation.is_none());
        let (d, t) = fixed(spec((0, 0), (1, 0), 100.0), ms(2.4), ms(8.0));
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::DestBandwidthExhausted { .. })
        ));
        assert!(matches!(
            t.binding,
            Some(BindingConstraint::DestBandwidth { .. })
        ));

        // Undersized: at 200 us per rotation the source MAC can't even
        // keep up with the arrival rate — the binding pinpoints the
        // unstable server rather than a bare "infeasible".
        let tiny = SyncBandwidth::new(Seconds::from_micros(200.0));
        let (d, t) = fixed(spec((0, 0), (1, 0), 100.0), tiny, tiny);
        assert!(!d.is_admitted());
        match t.binding.as_ref().expect("binding named") {
            BindingConstraint::ServerUnstable { detail } => {
                assert!(detail.contains("unstable"), "{detail}");
            }
            other => panic!("unexpected binding: {other:?}"),
        }
        // Fixed admissions trace too, with all-zero cache counters.
        let (d, t) = fixed(spec((0, 0), (1, 0), 60.0), ms(2.4), ms(2.4));
        assert!(d.is_admitted());
        assert!(t.admitted && t.binding.is_none());
        assert_eq!(t.cache, CacheStats::default());
        assert!(t.candidate().unwrap().id.is_some());

        // Deadline misses name their victim: the candidate's own, then
        // connection 0's (55.5 ms of its 60) under a heavy newcomer.
        for (sp, h_s, h_r, victim) in [
            (spec((2, 2), (0, 1), 20.0), ms(2.4), ms(2.4), None),
            (
                heavy((2, 1), (1, 1), 2.0, 200.0),
                ms(5.0),
                ms(4.0),
                Some(ConnectionId(0)),
            ),
        ] {
            let (d, t) = fixed(sp, h_s, h_r);
            assert!(matches!(
                d,
                Decision::Rejected(RejectReason::InfeasibleAtMaximum { ref detail })
                    if detail == "deadline violated at the fixed allocation"
            ));
            assert!(matches!(
                t.binding,
                Some(BindingConstraint::DeadlineExceeded { connection, .. }) if connection == victim
            ));
        }
    }

    #[test]
    fn reconfigure_forgets_the_last_decision() {
        let mut s = state();
        s.set_decision_tracing(true);
        let opts: AdmissionOptions = CacConfig::fast().into();
        for sp in [spec((0, 0), (1, 0), 100.0), spec((1, 1), (2, 0), 90.0)] {
            assert!(s.admit(sp, &opts).unwrap().is_admitted());
        }
        assert!(s.last_closure_len().is_some() && s.last_decision_trace().is_some());
        s.reconfigure(&ReconfigPlan::default(), &opts).unwrap();
        // The accessors describe `admit` calls, not the renegotiations.
        assert_eq!(s.last_closure_len(), None);
        assert_eq!(s.last_cache_stats(), None);
        assert_eq!(s.last_fast_path_stats(), None);
        assert!(s.last_decision_trace().is_none());
    }

    #[test]
    fn traces_are_recorded_only_while_tracing() {
        let mut s = state();
        let cfg = CacConfig::fast();
        s.admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap();
        assert!(s.last_decision_trace().is_none());
        s.set_decision_tracing(true);
        s.admit(spec((0, 1), (1, 1), 1.0), &cfg.clone().into())
            .unwrap();
        let t = s.last_decision_trace().expect("tracing is on");
        assert_eq!(t.seq, 1);
        assert_eq!(
            t.binding.as_ref().map(BindingConstraint::kind),
            Some("deadline")
        );
    }

    #[test]
    fn ring_failure_tears_down_and_reclaims() {
        let mut s = state();
        let cfg = CacConfig::fast();
        let opts: AdmissionOptions = cfg.clone().into();
        // Two connections touch ring 1, one does not.
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s
            .admit(spec((1, 1), (2, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s
            .admit(spec((0, 1), (2, 1), 100.0), &opts)
            .unwrap()
            .is_admitted());
        let report = s.set_component_down(Component::Ring(RingId(1))).unwrap();
        assert!(!report.already_down);
        assert_eq!(report.torn.len(), 2);
        assert!(report.reclaimed_s.value() > 0.0);
        assert!(report.reclaimed_r.value() > 0.0);
        assert_eq!(s.active().len(), 1);
        // Ring 1's budget is fully back; ring 0 still carries the survivor.
        assert!((s.available_on(1).as_millis() - 7.2).abs() < 1e-9);
        assert!(s.available_on(0) < Seconds::from_millis(7.2));
        // Downing again is a no-op.
        let again = s.set_component_down(Component::Ring(RingId(1))).unwrap();
        assert!(again.already_down);
        assert!(again.torn.is_empty());
    }

    #[test]
    fn down_component_rejects_without_evaluation() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        s.set_component_down(Component::IfDev(RingId(2))).unwrap();
        s.set_decision_tracing(true);
        let d = s.admit(spec((0, 0), (2, 0), 100.0), &opts).unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::ComponentUnavailable {
                component: Component::IfDev(RingId(2))
            })
        ));
        let t = s.last_decision_trace().unwrap();
        assert_eq!(t.binding.as_ref().unwrap().kind(), "component_down");
        assert!(t.connections.is_empty());
        // A path avoiding ring 2 is unaffected.
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        // Restore; the previously blocked path admits again.
        assert!(s.set_component_up(Component::IfDev(RingId(2))).unwrap());
        assert!(!s.set_component_up(Component::IfDev(RingId(2))).unwrap());
        assert!(s
            .admit(spec((0, 1), (2, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
    }

    #[test]
    fn link_failure_hits_only_routed_pairs() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s
            .admit(spec((1, 1), (2, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        // Find the link carrying the 0->1 route and fail it.
        let link = s.network().route_between(0, 1).unwrap()[0];
        let report = s.set_component_down(Component::Link(link)).unwrap();
        assert_eq!(report.torn.len(), 1);
        assert_eq!(report.torn[0].spec.source.ring, 0);
        // The fully-meshed backbone routes 1->2 over a different link.
        assert_eq!(s.active().len(), 1);
        let d = s.admit(spec((0, 1), (1, 2), 100.0), &opts).unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::ComponentUnavailable { .. })
        ));
    }

    #[test]
    fn unknown_components_are_rejected() {
        let mut s = state();
        assert!(matches!(
            s.set_component_down(Component::Ring(RingId(9))),
            Err(CacError::InvalidNetwork(_))
        ));
        assert!(matches!(
            s.set_component_up(Component::Link(hetnet_atm::topology::LinkId(99))),
            Err(CacError::InvalidNetwork(_))
        ));
    }

    #[test]
    fn snapshot_restore_is_lossless_here() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        s.set_clock(Seconds::new(12.5));
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s
            .admit(spec((1, 1), (2, 0), 90.0), &opts)
            .unwrap()
            .is_admitted());
        s.set_component_down(Component::Ring(RingId(2))).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.version, crate::snapshot::SNAPSHOT_VERSION);
        assert_eq!(snap.connections.len(), 1); // ring-2 teardown removed one
        assert_eq!(snap.down, vec![Component::Ring(RingId(2))]);

        let mut restored =
            NetworkState::from_snapshot(HetNetwork::paper_topology(), &snap).unwrap();
        assert_eq!(restored.snapshot().to_json(), snap.to_json());
        assert_eq!(
            restored.available_on(0).value().to_bits(),
            s.available_on(0).value().to_bits()
        );
        assert_eq!(
            restored.clock().value().to_bits(),
            s.clock().value().to_bits()
        );
        assert_eq!(restored.decisions(), s.decisions());
        // Both copies now make bit-identical decisions.
        let sp = spec((0, 1), (1, 2), 100.0);
        match (
            s.admit(sp.clone(), &opts).unwrap(),
            restored.admit(sp, &opts).unwrap(),
        ) {
            (
                Decision::Admitted {
                    id: ia, h_s: ha, ..
                },
                Decision::Admitted {
                    id: ib, h_s: hb, ..
                },
            ) => {
                assert_eq!(ia, ib);
                assert_eq!(
                    ha.per_rotation().value().to_bits(),
                    hb.per_rotation().value().to_bits()
                );
            }
            (a, b) => panic!("diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn restore_rejects_mismatches() {
        let s = state();
        let mut snap = s.snapshot();
        snap.version = 99;
        assert!(matches!(
            NetworkState::new(HetNetwork::paper_topology()).restore(&snap),
            Err(CacError::SnapshotMismatch(_))
        ));
        let mut snap = s.snapshot();
        snap.topology.rings = 7;
        assert!(matches!(
            NetworkState::new(HetNetwork::paper_topology()).restore(&snap),
            Err(CacError::SnapshotMismatch(_))
        ));
    }

    #[test]
    fn reconfigure_noop_keeps_every_allocation_bit_identical() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        for sp in [spec((0, 0), (1, 0), 100.0), spec((1, 1), (2, 0), 90.0)] {
            assert!(s.admit(sp, &opts).unwrap().is_admitted());
        }
        let before: Vec<u64> = s
            .active()
            .iter()
            .map(|c| c.h_s.per_rotation().value().to_bits())
            .collect();
        let seq = s.decisions();
        let report = s.reconfigure(&ReconfigPlan::default(), &opts).unwrap();
        assert_eq!(report.unchanged.len(), 2);
        assert!(report.renegotiated.is_empty());
        assert!(report.dropped.is_empty());
        // Reconfiguration consumes exactly one decision sequence number.
        assert_eq!(s.decisions(), seq + 1);
        let after: Vec<u64> = s
            .active()
            .iter()
            .map(|c| c.h_s.per_rotation().value().to_bits())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn reconfigure_matches_fresh_engine_at_new_parameters() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        let specs = [
            spec((0, 0), (1, 0), 100.0),
            spec((1, 1), (2, 0), 90.0),
            spec((2, 2), (0, 1), 110.0),
        ];
        for sp in &specs {
            assert!(s.admit(sp.clone(), &opts).unwrap().is_admitted());
        }
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0));
        let report = s.reconfigure(&plan, &opts).unwrap();
        assert_eq!(report.survivors(), 3);
        assert!(report.dropped.is_empty());
        // A longer TTRT moves the allocation line: everything renegotiates.
        assert_eq!(report.renegotiated.len(), 3);
        assert!(report.new_allocatable[0] > report.old_allocatable[0]);

        // Fresh engine built at the new parameters, fed the survivors in
        // admission order, must land on the same bits.
        let rings = vec![
            RingConfig {
                ttrt: Seconds::from_millis(12.0),
                ..RingConfig::standard()
            };
            3
        ];
        let net = HetNetwork::paper_topology()
            .with_ring_configs(rings)
            .unwrap();
        let mut fresh = NetworkState::new(net);
        for sp in &specs {
            assert!(fresh.admit(sp.clone(), &opts).unwrap().is_admitted());
        }
        for (a, b) in s.active().iter().zip(fresh.active()) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.h_s.per_rotation().value().to_bits(),
                b.h_s.per_rotation().value().to_bits()
            );
            assert_eq!(
                a.h_r.per_rotation().value().to_bits(),
                b.h_r.per_rotation().value().to_bits()
            );
            assert_eq!(
                a.delay_bound.value().to_bits(),
                b.delay_bound.value().to_bits()
            );
        }
        for ring in 0..3 {
            assert_eq!(
                s.available_on(ring).value().to_bits(),
                fresh.available_on(ring).value().to_bits()
            );
        }
        // And the next decision is bit-identical too (admitted or not).
        let next = spec((0, 2), (2, 1), 100.0);
        let (da, db) = (
            s.admit(next.clone(), &opts).unwrap(),
            fresh.admit(next, &opts).unwrap(),
        );
        assert_eq!(format!("{da:?}"), format!("{db:?}"));
    }

    #[test]
    fn reconfigure_shrink_drops_victims_and_reclaims_budget() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        let mut admitted = 0usize;
        for station in 0..4 {
            for (src, dst) in [(0, 1), (1, 2), (2, 0)] {
                if s.admit(spec((src, station), (dst, station), 60.0), &opts)
                    .unwrap()
                    .is_admitted()
                {
                    admitted += 1;
                }
            }
        }
        assert!(admitted >= 3, "load generator admitted only {admitted}");
        // Shrink TTRT and grow the overhead until the allocatable budget
        // `TTRT − Δ` is a sliver: victims must fall out.
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(6.0))
            .with_overhead(Seconds::from_millis(5.5));
        let report = s.reconfigure(&plan, &opts).unwrap();
        assert!(
            !report.dropped.is_empty(),
            "expected drops: {}",
            report.summary()
        );
        assert_eq!(report.survivors() + report.dropped.len(), admitted);
        assert!(report.reclaimed_s.value() > 0.0);
        // Surviving state is internally consistent: the active set and the
        // snapshot agree and every remaining allocation fits the new budget.
        let snap = s.snapshot();
        assert_eq!(snap.connections.len(), report.survivors());
        assert_eq!(snap.rings[0].ttrt, Seconds::from_millis(6.0));
        for ring in 0..3 {
            assert!(s.available_on(ring).value() >= 0.0);
        }
    }

    #[test]
    fn reconfigure_snapshot_restores_onto_retuned_rings() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(10.0))
            .with_overhead(Seconds::from_millis(1.0));
        s.reconfigure(&plan, &opts).unwrap();
        let snap = s.snapshot();
        // Restoring onto a *stock* topology adopts the snapshot's rings.
        let mut restored = NetworkState::new(HetNetwork::paper_topology());
        restored.restore(&snap).unwrap();
        assert_eq!(restored.snapshot().to_json(), snap.to_json());
        let next = spec((1, 2), (2, 2), 100.0);
        match (
            s.admit(next.clone(), &opts).unwrap(),
            restored.admit(next, &opts).unwrap(),
        ) {
            (Decision::Admitted { h_s: ha, .. }, Decision::Admitted { h_s: hb, .. }) => {
                assert_eq!(
                    ha.per_rotation().value().to_bits(),
                    hb.per_rotation().value().to_bits()
                );
            }
            (a, b) => panic!("diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn reconfigure_rejects_invalid_plans_without_side_effects() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        let before = s.snapshot().to_json();
        let bad_beta = ReconfigPlan::default().with_beta(2.0);
        assert!(s.reconfigure(&bad_beta, &opts).is_err());
        // Overhead >= TTRT leaves no allocatable budget and is refused.
        let bad_overhead = ReconfigPlan::default().with_overhead(Seconds::from_millis(9.0));
        assert!(s.reconfigure(&bad_overhead, &opts).is_err());
        assert_eq!(s.snapshot().to_json(), before);
    }
}
