//! Pluggable worst-case analyses of an ATM output-port scheduler.
//!
//! The paper analyzes a FIFO multiplexer; a multi-tenant backbone
//! deploys per-class weighted schedulers instead. This module factors
//! the port analysis behind the [`SchedulerAnalysis`] trait — delay
//! bound, backlog, busy period and per-flow output transform for a flow
//! set with per-flow traffic classes — and ships three implementations:
//!
//! * [`Fifo`] — the paper's class-blind FIFO multiplexer (see its
//!   docs for the busy-period bounds);
//! * [`Iwrr`] — Interleaved Weighted Round-Robin. With fixed-size
//!   cells (`L` = [`crate::cell::CELL_BITS`]) and per-class weights
//!   `w_i`, a backlogged class is guaranteed the rate-latency service
//!   curve `β_i(t) = R_i·(t − T_i)⁺` with `R_i = C·w_i/W` and
//!   `T_i = (W − w_i + 1)·L/C`, where `W` sums the weights of the
//!   classes *present at the port*. This is the classic WRR guarantee
//!   for fixed-length packets; Tabatabaee, Le Boudec & Boyer
//!   (arXiv:2003.08372) prove IWRR's exact service curve dominates
//!   WRR's, so the bound is (conservatively) sound for IWRR.
//! * [`Drr`] — Deficit Round-Robin with per-class quanta `q_i` counted
//!   in cells. Each round serves class `i` up to `q_i·L` bits plus at
//!   most one cell of carried deficit, so a backlogged class is
//!   guaranteed `R_i = C·q_i/Q` with latency
//!   `T_i = (Q − q_i + n)·L/C` (`Q = Σ q_j` over the `n` present
//!   classes) — one cell of residual deficit per competitor plus one
//!   non-preemptable cell, dominating the Tabatabaee–Le Boudec
//!   (arXiv:2106.01034) strict service curve.
//!
//! Per class, the analysis aggregates the member envelopes and runs the
//! generic guaranteed-server busy-period search against the class's
//! service curve; the port-level report takes the worst class delay and
//! busy period and sums the class backlogs. FIFO degenerates to one
//! class-blind aggregate against the constant-rate curve `C·t`.
//!
//! # Contract
//!
//! [`SchedulerAnalysis::analyze`] is total over *non-empty* flow sets
//! on a valid link: an empty flow set is a caller bug and returns
//! [`AtmError::EmptyFlowSet`] (never a silent all-zero report), an
//! unstable class returns [`AtmError::Analysis`], and a flow whose
//! class has no configured weight returns [`AtmError::InvalidConfig`].

use crate::cell::CELL_BITS;
use crate::error::AtmError;
use crate::link::LinkConfig;
use hetnet_traffic::analysis::{analyze_guaranteed_server, AnalysisConfig};
use hetnet_traffic::combinators::{Aggregate, Delayed, RateCapped};
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::service::RateLatencyService;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::fmt;
use std::sync::Arc;

/// One flow offered to an output port: its envelope (in wire bits at
/// the port) and the traffic class the scheduler files it under.
/// Class-blind schedulers ignore `class`.
#[derive(Clone, Debug)]
pub struct ClassedFlow {
    /// Arrival envelope of the flow at this port, in wire bits.
    pub envelope: SharedEnvelope,
    /// Traffic class (index into the scheduler's weight map).
    pub class: u8,
}

impl ClassedFlow {
    /// A flow in the given class.
    #[must_use]
    pub fn new(envelope: SharedEnvelope, class: u8) -> Self {
        Self { envelope, class }
    }
}

/// Worst-case behaviour of a scheduled output port for a flow set.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedReport {
    /// End of the longest backlogged horizon over all classes.
    pub busy_period: Seconds,
    /// Worst-case queueing delay over all classes (fluid; callers add
    /// store-and-forward and switching latencies).
    pub delay_bound: Seconds,
    /// Total buffer requirement: the sum of per-class backlog bounds.
    pub backlog_bound: Bits,
    /// Per-class queueing delays, sorted by class and covering exactly
    /// the classes present in the flow set. Empty for class-blind
    /// schedulers (FIFO), where every class sees `delay_bound`.
    pub class_delays: Vec<(u8, Seconds)>,
}

impl SchedReport {
    /// The queueing delay a flow of `class` sees at this port; falls
    /// back to the port-wide bound for class-blind schedulers.
    #[must_use]
    pub fn delay_of_class(&self, class: u8) -> Seconds {
        match self.class_delays.binary_search_by_key(&class, |&(c, _)| c) {
            Ok(i) => self.class_delays[i].1,
            Err(_) => self.delay_bound,
        }
    }
}

/// Worst-case analysis of one output-port scheduling discipline.
///
/// Implementations must be deterministic: the same flow set (same
/// envelopes in the same order, same classes), link, and configuration
/// must reproduce bit-identical reports — the admission caches key on
/// exactly those inputs.
pub trait SchedulerAnalysis: fmt::Debug + Send + Sync {
    /// Stable lower-case name for traces, JSON, and bench sections.
    fn name(&self) -> &'static str;

    /// Analyzes the scheduling of `flows` onto `link`.
    ///
    /// # Errors
    ///
    /// [`AtmError::EmptyFlowSet`] for an empty `flows` (an idle port
    /// has no well-defined busy period — callers must not ask),
    /// [`AtmError::InvalidConfig`] for an invalid link or a flow class
    /// without a configured weight, and [`AtmError::Analysis`] when a
    /// class is unstable or the busy-period search fails.
    fn analyze(
        &self,
        flows: &[ClassedFlow],
        link: &LinkConfig,
        cfg: &AnalysisConfig,
    ) -> Result<SchedReport, AtmError>;

    /// The envelope of one flow after traversing the port, given the
    /// queueing delay `delay` its class is bounded by: the input
    /// shifted by the delay and capped at the link rate,
    /// `A'(I) = min(C·I, A(I + d))`.
    fn flow_output(
        &self,
        flow: SharedEnvelope,
        delay: Seconds,
        link: &LinkConfig,
    ) -> SharedEnvelope {
        Arc::new(RateCapped::new(
            Arc::new(Delayed::new(flow, delay)),
            link.rate,
        ))
    }
}

/// The paper's FIFO multiplexer: one class-blind aggregate against the
/// constant-rate service curve.
///
/// An ATM output port multiplexes the cells of many connections onto
/// one link of rate `C`, serving them FIFO. With per-connection
/// envelopes `A_k(I)` at the port, the standard busy-period argument
/// (Cruz; Raha-Kamat-Zhao) bounds:
///
/// * the busy period `B`: the last instant with `Σ_k A_k(t) > C·t`,
/// * the queueing delay of any cell:
///   `d = max_{0<t≤B} (Σ_k A_k(t)/C − t)⁺`,
/// * the port buffer: `max_{0<t≤B} (Σ_k A_k(t) − C·t)`,
///
/// and each connection's output envelope is its input envelope shifted
/// by the (FIFO, flow-independent) delay bound and capped at the link
/// rate ([`SchedulerAnalysis::flow_output`]). These are the fluid
/// bounds of the generic guaranteed-server analysis with the
/// constant-rate service curve `S(t) = C·t`, applied to the aggregate
/// arrival envelope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fifo;

impl SchedulerAnalysis for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn analyze(
        &self,
        flows: &[ClassedFlow],
        link: &LinkConfig,
        cfg: &AnalysisConfig,
    ) -> Result<SchedReport, AtmError> {
        link.validate().map_err(AtmError::InvalidConfig)?;
        if flows.is_empty() {
            return Err(AtmError::EmptyFlowSet);
        }
        // Aggregate in member order, constant-rate curve, one
        // busy-period search.
        let aggregate = Aggregate::new(flows.iter().map(|f| Arc::clone(&f.envelope)).collect());
        let service = RateLatencyService::constant_rate(link.rate);
        let report = analyze_guaranteed_server(&aggregate, &service, cfg)?;
        Ok(SchedReport {
            busy_period: report.busy_interval,
            delay_bound: report.delay_bound,
            backlog_bound: report.backlog_bound,
            class_delays: Vec::new(),
        })
    }
}

/// Interleaved Weighted Round-Robin with per-class `weights` (cells
/// served per round). See the module docs for the guaranteed per-class
/// rate-latency curve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Iwrr {
    /// Cells served per round for each class (indexed by class).
    pub weights: Vec<u32>,
}

impl SchedulerAnalysis for Iwrr {
    fn name(&self) -> &'static str {
        "iwrr"
    }

    fn analyze(
        &self,
        flows: &[ClassedFlow],
        link: &LinkConfig,
        cfg: &AnalysisConfig,
    ) -> Result<SchedReport, AtmError> {
        per_class_analysis(flows, link, cfg, &self.weights, RoundRobin::Iwrr)
    }
}

/// Deficit Round-Robin with per-class `quanta` counted in cells. See
/// the module docs for the guaranteed per-class rate-latency curve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Drr {
    /// Quantum in cells for each class (indexed by class).
    pub quanta: Vec<u32>,
}

impl SchedulerAnalysis for Drr {
    fn name(&self) -> &'static str {
        "drr"
    }

    fn analyze(
        &self,
        flows: &[ClassedFlow],
        link: &LinkConfig,
        cfg: &AnalysisConfig,
    ) -> Result<SchedReport, AtmError> {
        per_class_analysis(flows, link, cfg, &self.quanta, RoundRobin::Drr)
    }
}

/// Which round-robin latency term to charge a class.
#[derive(Clone, Copy, Debug)]
enum RoundRobin {
    Iwrr,
    Drr,
}

impl RoundRobin {
    /// Latency of class with weight `w` among `n` present classes whose
    /// weights sum to `wsum`, in cells.
    fn latency_cells(self, w: u32, wsum: u64, n: usize) -> f64 {
        match self {
            // One full round of the competitors plus one non-preemptable
            // cell in service.
            Self::Iwrr => (wsum - u64::from(w) + 1) as f64,
            // Competitors' quanta plus one cell of carried deficit each,
            // plus the cell in service.
            Self::Drr => (wsum - u64::from(w) + n as u64) as f64,
        }
    }
}

/// Shared per-class rate-latency analysis for the round-robin family.
fn per_class_analysis(
    flows: &[ClassedFlow],
    link: &LinkConfig,
    cfg: &AnalysisConfig,
    weights: &[u32],
    kind: RoundRobin,
) -> Result<SchedReport, AtmError> {
    link.validate().map_err(AtmError::InvalidConfig)?;
    if flows.is_empty() {
        return Err(AtmError::EmptyFlowSet);
    }
    // Distinct classes present, in ascending class order.
    let mut classes: Vec<u8> = flows.iter().map(|f| f.class).collect();
    classes.sort_unstable();
    classes.dedup();
    let weight_of = |class: u8| -> Result<u32, AtmError> {
        match weights.get(usize::from(class)) {
            Some(&w) if w >= 1 => Ok(w),
            Some(_) => Err(AtmError::InvalidConfig(format!(
                "scheduler weight for class {class} must be >= 1"
            ))),
            None => Err(AtmError::InvalidConfig(format!(
                "no scheduler weight configured for class {class} \
                 ({} classes configured)",
                weights.len()
            ))),
        }
    };
    let mut wsum: u64 = 0;
    for &c in &classes {
        wsum += u64::from(weight_of(c)?);
    }
    let n = classes.len();

    let mut busy = Seconds::ZERO;
    let mut delay = Seconds::ZERO;
    let mut backlog = Bits::ZERO;
    let mut class_delays = Vec::with_capacity(n);
    for &c in &classes {
        let w = weight_of(c)?;
        // Members of this class, in flow-set order (floating-point
        // addition is not associative; order is part of the identity).
        let members: Vec<SharedEnvelope> = flows
            .iter()
            .filter(|f| f.class == c)
            .map(|f| Arc::clone(&f.envelope))
            .collect();
        let rate = BitsPerSec::new(link.rate.value() * w as f64 / wsum as f64);
        let latency = Bits::new(kind.latency_cells(w, wsum, n) * CELL_BITS) / link.rate;
        let aggregate = Aggregate::new(members);
        let service = RateLatencyService::new(rate, latency);
        let report = analyze_guaranteed_server(&aggregate, &service, cfg)?;
        busy = busy.max(report.busy_interval);
        delay = delay.max(report.delay_bound);
        backlog += report.backlog_bound;
        class_delays.push((c, report.delay_bound));
    }
    Ok(SchedReport {
        busy_period: busy,
        delay_bound: delay,
        backlog_bound: backlog,
        class_delays,
    })
}

/// An output-port scheduling discipline, as carried by a network
/// configuration: the value both selects the analysis and (for the
/// weighted disciplines) maps traffic classes to weights.
///
/// The enum is `#[non_exhaustive]`: match with a wildcard arm so new
/// disciplines stay source-compatible.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Scheduler {
    /// The paper's class-blind FIFO multiplexer (the default).
    #[default]
    Fifo,
    /// Interleaved Weighted Round-Robin; `weights[class]` is the number
    /// of cells the class may send per round.
    Iwrr {
        /// Per-class weights, indexed by traffic class; every admitted
        /// class must have an entry `>= 1`.
        weights: Vec<u32>,
    },
    /// Deficit Round-Robin; `quanta[class]` is the class's quantum in
    /// cells.
    Drr {
        /// Per-class quanta in cells, indexed by traffic class; every
        /// admitted class must have an entry `>= 1`.
        quanta: Vec<u32>,
    },
}

impl Scheduler {
    /// Whether this is the class-blind FIFO discipline (the admission
    /// fast path only applies there).
    #[must_use]
    pub fn is_fifo(&self) -> bool {
        matches!(self, Self::Fifo)
    }

    /// The per-class weight map, if the discipline has one.
    #[must_use]
    pub fn weight_map(&self) -> Option<&[u32]> {
        match self {
            Self::Fifo => None,
            Self::Iwrr { weights } => Some(weights),
            Self::Drr { quanta } => Some(quanta),
        }
    }

    /// Checks the configuration is usable: weighted disciplines need a
    /// non-empty weight map with every entry `>= 1`.
    ///
    /// # Errors
    ///
    /// [`AtmError::InvalidConfig`] describing the offending entry.
    pub fn validate(&self) -> Result<(), AtmError> {
        match self.weight_map() {
            None => Ok(()),
            Some([]) => Err(AtmError::InvalidConfig(format!(
                "{} scheduler needs at least one class weight",
                SchedulerAnalysis::name(self)
            ))),
            Some(weights) => {
                if let Some(i) = weights.iter().position(|&w| w == 0) {
                    return Err(AtmError::InvalidConfig(format!(
                        "{} scheduler weight for class {i} must be >= 1",
                        SchedulerAnalysis::name(self)
                    )));
                }
                Ok(())
            }
        }
    }

    /// A stable 64-bit digest of the discipline and its weight map,
    /// used by evaluator caches to detect a scheduler change: two
    /// schedulers that could ever disagree on a bound have different
    /// fingerprints.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(PRIME)
        }
        let (tag, map): (u64, &[u32]) = match self {
            Self::Fifo => (1, &[]),
            Self::Iwrr { weights } => (2, weights),
            Self::Drr { quanta } => (3, quanta),
        };
        let mut h = mix(OFFSET, tag);
        for &w in map {
            h = mix(h, u64::from(w));
        }
        h
    }
}

impl SchedulerAnalysis for Scheduler {
    fn name(&self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::Iwrr { .. } => "iwrr",
            Self::Drr { .. } => "drr",
        }
    }

    fn analyze(
        &self,
        flows: &[ClassedFlow],
        link: &LinkConfig,
        cfg: &AnalysisConfig,
    ) -> Result<SchedReport, AtmError> {
        match self {
            Self::Fifo => Fifo.analyze(flows, link, cfg),
            Self::Iwrr { weights } => {
                per_class_analysis(flows, link, cfg, weights, RoundRobin::Iwrr)
            }
            Self::Drr { quanta } => per_class_analysis(flows, link, cfg, quanta, RoundRobin::Drr),
        }
    }
}

impl fmt::Display for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fifo => write!(f, "fifo"),
            Self::Iwrr { weights } => write!(f, "iwrr{weights:?}"),
            Self::Drr { quanta } => write!(f, "drr{quanta:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet_traffic::models::{LeakyBucketEnvelope, PeriodicEnvelope};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    fn oc3() -> LinkConfig {
        LinkConfig::oc3(Seconds::ZERO)
    }

    fn lb(sigma: f64, rho_mbps: f64) -> SharedEnvelope {
        Arc::new(
            LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::from_mbps(rho_mbps)).unwrap(),
        )
    }

    fn flows(specs: &[(f64, f64, u8)]) -> Vec<ClassedFlow> {
        specs
            .iter()
            .map(|&(sigma, rho, class)| ClassedFlow::new(lb(sigma, rho), class))
            .collect()
    }

    /// The FIFO report for `flows`, all in class 0.
    fn fifo(flows: &[SharedEnvelope]) -> Result<SchedReport, AtmError> {
        let classed: Vec<ClassedFlow> = flows
            .iter()
            .map(|f| ClassedFlow::new(Arc::clone(f), 0))
            .collect();
        Fifo.analyze(&classed, &oc3(), &cfg())
    }

    #[test]
    fn fifo_single_leaky_bucket_closed_form() {
        // d = sigma/C, backlog = sigma, busy = sigma/(C - rho).
        let sigma = 424_000.0;
        let r = fifo(&[lb(sigma, 55.0)]).unwrap();
        assert!((r.delay_bound.value() - sigma / 155.0e6).abs() < 1e-9);
        assert!((r.backlog_bound.value() - sigma).abs() < 1.0);
        assert!((r.busy_period.value() - sigma / 100.0e6).abs() < 1e-6);
        // FIFO is class-blind: every class sees the port-wide bound.
        assert!(r.class_delays.is_empty());
        assert_eq!(r.delay_of_class(7), r.delay_bound);
        // The enum dispatch is the same analysis, whatever the classes.
        let fs = flows(&[(sigma, 55.0, 3)]);
        assert_eq!(Scheduler::Fifo.analyze(&fs, &oc3(), &cfg()).unwrap(), r);
    }

    #[test]
    fn fifo_delay_grows_with_flow_count() {
        let mut prev = 0.0;
        for n in [1, 2, 4, 8] {
            let flows: Vec<SharedEnvelope> = (0..n).map(|_| lb(100_000.0, 155.0 / 16.0)).collect();
            let r = fifo(&flows).unwrap();
            assert!(r.delay_bound.value() >= prev, "n={n}");
            prev = r.delay_bound.value();
        }
        // n identical buckets: delay = n*sigma/C.
        assert!((prev - 8.0 * 100_000.0 / 155.0e6).abs() < 1e-9);
    }

    #[test]
    fn fifo_overloaded_link_is_unstable() {
        let flows: Vec<SharedEnvelope> = (0..3).map(|_| lb(1000.0, 60.0)).collect();
        assert!(matches!(fifo(&flows), Err(AtmError::Analysis(_))));
    }

    #[test]
    fn fifo_heterogeneous_flows_hand_check() {
        // Two periodic flows, 1 Mbit per 100 ms each at 100 Mb/s peak:
        // both bursts can land together -> delay ~ 2 Mbit / 155 Mb/s
        // (minus the overlap already being served during the arrival ramp).
        let mk = || -> SharedEnvelope {
            Arc::new(
                PeriodicEnvelope::new(
                    Bits::from_mbits(1.0),
                    Seconds::from_millis(100.0),
                    BitsPerSec::from_mbps(100.0),
                )
                .unwrap(),
            )
        };
        let r = fifo(&[mk(), mk()]).unwrap();
        // Aggregate ramp: 200 Mb/s for 10 ms -> backlog peaks at
        // (200-155) Mb/s * 10 ms = 0.45 Mbit; delay = backlog/C ~ 2.9 ms.
        assert!((r.backlog_bound.value() - 0.45e6).abs() < 2.0e3, "{r:?}");
        assert!((r.delay_bound.as_millis() - 0.45 / 155.0 * 1000.0).abs() < 0.05);
    }

    #[test]
    fn fifo_output_envelope_shifted_and_capped() {
        use hetnet_traffic::envelope::Envelope;
        let flow = lb(424_000.0, 55.0);
        let r = fifo(&[Arc::clone(&flow)]).unwrap();
        let out = Fifo.flow_output(Arc::clone(&flow), r.delay_bound, &oc3());
        // Capped at link rate for small intervals.
        let tiny = Seconds::from_micros(1.0);
        assert!(out.arrivals(tiny) <= oc3().rate * tiny + Bits::new(1e-6));
        // Dominates the input shifted by d at larger intervals.
        let i = Seconds::from_millis(50.0);
        assert!(out.arrivals(i) >= flow.arrivals(i) - Bits::new(1.0));
    }

    #[test]
    fn empty_flow_set_is_an_explicit_error_for_every_discipline() {
        let schedulers: [&dyn SchedulerAnalysis; 3] = [
            &Fifo,
            &Iwrr {
                weights: vec![1, 2],
            },
            &Drr { quanta: vec![4, 8] },
        ];
        for s in schedulers {
            assert!(
                matches!(s.analyze(&[], &oc3(), &cfg()), Err(AtmError::EmptyFlowSet)),
                "{} accepted an empty flow set",
                s.name()
            );
        }
    }

    #[test]
    fn heavier_class_gets_smaller_delay() {
        let fs = flows(&[(200_000.0, 10.0, 0), (200_000.0, 10.0, 1)]);
        let r = Iwrr {
            weights: vec![1, 7],
        }
        .analyze(&fs, &oc3(), &cfg())
        .unwrap();
        assert_eq!(r.class_delays.len(), 2);
        assert!(
            r.delay_of_class(1) < r.delay_of_class(0),
            "weight 7 vs 1: {r:?}"
        );
        assert_eq!(r.delay_bound, r.delay_of_class(0));
        assert!(r.busy_period > Seconds::ZERO);
        assert!(r.backlog_bound > Bits::ZERO);
    }

    #[test]
    fn drr_bound_dominates_iwrr_at_equal_weights() {
        // Same reserved rates, but DRR pays an extra deficit cell per
        // competitor: its latency — and so its delay bound — is larger.
        let fs = flows(&[
            (200_000.0, 12.0, 0),
            (150_000.0, 9.0, 1),
            (80_000.0, 6.0, 2),
        ]);
        let weights = vec![2, 3, 5];
        let iwrr = Iwrr {
            weights: weights.clone(),
        }
        .analyze(&fs, &oc3(), &cfg())
        .unwrap();
        let drr = Drr { quanta: weights }
            .analyze(&fs, &oc3(), &cfg())
            .unwrap();
        for (&(c, di), &(dc, dd)) in iwrr.class_delays.iter().zip(&drr.class_delays) {
            assert_eq!(c, dc);
            assert!(dd >= di, "class {c}: drr {dd} < iwrr {di}");
        }
        assert!(drr.delay_bound >= iwrr.delay_bound);
    }

    #[test]
    fn sole_class_keeps_almost_the_full_link() {
        // One present class owns every round: rate C, latency one cell.
        let fs = flows(&[(424_000.0, 55.0, 3)]);
        let r = Iwrr {
            weights: vec![1, 1, 1, 2],
        }
        .analyze(&fs, &oc3(), &cfg())
        .unwrap();
        let fifo = Fifo.analyze(&fs, &oc3(), &cfg()).unwrap();
        let cell = Bits::new(CELL_BITS) / oc3().rate;
        assert!(r.delay_bound >= fifo.delay_bound);
        assert!(r.delay_bound <= fifo.delay_bound + cell + Seconds::new(1e-12));
    }

    #[test]
    fn missing_or_zero_weight_is_invalid_config() {
        let fs = flows(&[(100_000.0, 5.0, 3)]);
        assert!(matches!(
            Iwrr {
                weights: vec![1, 1]
            }
            .analyze(&fs, &oc3(), &cfg()),
            Err(AtmError::InvalidConfig(_))
        ));
        let fs0 = flows(&[(100_000.0, 5.0, 0)]);
        assert!(matches!(
            Drr { quanta: vec![0, 4] }.analyze(&fs0, &oc3(), &cfg()),
            Err(AtmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn per_class_instability_is_an_analysis_error() {
        // 60 Mb/s into a class reserved 155/8 Mb/s: unstable even though
        // the aggregate fits the link.
        let fs = flows(&[(1000.0, 60.0, 0), (1000.0, 10.0, 1)]);
        assert!(matches!(
            Iwrr {
                weights: vec![1, 7]
            }
            .analyze(&fs, &oc3(), &cfg()),
            Err(AtmError::Analysis(_))
        ));
    }

    #[test]
    fn scheduler_validate_and_fingerprint() {
        assert!(Scheduler::Fifo.validate().is_ok());
        assert!(Scheduler::Iwrr { weights: vec![] }.validate().is_err());
        assert!(Scheduler::Drr { quanta: vec![1, 0] }.validate().is_err());
        let a = Scheduler::Fifo.fingerprint();
        let b = Scheduler::Iwrr {
            weights: vec![1, 2],
        }
        .fingerprint();
        let c = Scheduler::Drr { quanta: vec![1, 2] }.fingerprint();
        let d = Scheduler::Iwrr {
            weights: vec![2, 1],
        }
        .fingerprint();
        assert!(a != b && b != c && b != d && a != c);
        assert_eq!(
            b,
            Scheduler::Iwrr {
                weights: vec![1, 2]
            }
            .fingerprint()
        );
        assert_eq!(Scheduler::default(), Scheduler::Fifo);
        assert!(Scheduler::Fifo.is_fifo());
        assert_eq!(Scheduler::Fifo.to_string(), "fifo");
        assert!(Scheduler::Drr { quanta: vec![4] }
            .to_string()
            .starts_with("drr"));
    }

    /// `Scheduler` is `#[non_exhaustive]`, so downstream matches need a
    /// wildcard arm — which is what lets new disciplines ride in
    /// without a semver break. (Compile-time property; this test
    /// documents the match idiom and pins the safe default for unknown
    /// disciplines: treat them as "not FIFO" so no fast path or
    /// FIFO-only shortcut ever fires on a discipline it predates.)
    #[test]
    fn non_exhaustive_matching_idiom() {
        let s = Scheduler::Iwrr {
            weights: vec![2, 1],
        };
        // In the defining crate the wildcard is redundant (the compiler
        // sees all variants); downstream crates are *forced* to write it.
        #[allow(unreachable_patterns)]
        let class = match &s {
            Scheduler::Fifo => "fifo",
            Scheduler::Iwrr { .. } => "weighted",
            Scheduler::Drr { .. } => "weighted",
            _ => "unknown-treat-as-non-fifo",
        };
        assert_eq!(class, "weighted");
        assert!(!s.is_fifo(), "only the literal Fifo variant is FIFO");
    }
}
