//! The report-side shapes of a run's metrics — decision counters,
//! binding-constraint counters, recovery and reconfiguration
//! accounting — and the sampled ring-utilization time series.
//!
//! Per-decision facts are not accumulated here: both engines write
//! them once, into the run's metrics registry
//! ([`crate::observability`]), and the report's [`DecisionCounters`]
//! and [`BindingCounters`] are read back from its snapshot.

use hetnet_traffic::units::Seconds;
use serde::Serialize;

/// Admission-decision counters, split by
/// [`RejectReason`](hetnet_cac::cac::RejectReason) class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct DecisionCounters {
    /// Requests admitted.
    pub admitted: u64,
    /// Rejected: source ring out of synchronous bandwidth.
    pub rejected_source_exhausted: u64,
    /// Rejected: destination ring out of synchronous bandwidth.
    pub rejected_dest_exhausted: u64,
    /// Rejected: infeasible even at the maximum allocation.
    pub rejected_infeasible: u64,
    /// Rejected: a component on the request's path is down.
    pub rejected_component_down: u64,
    /// Rejected for a reason class this build does not know
    /// (`RejectReason` is `#[non_exhaustive]`).
    pub rejected_other: u64,
}

impl DecisionCounters {
    /// Total rejections across all classes.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_source_exhausted
            + self.rejected_dest_exhausted
            + self.rejected_infeasible
            + self.rejected_component_down
            + self.rejected_other
    }

    /// Total decisions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.admitted + self.rejected()
    }

    /// Fraction of requests rejected (connection blocking probability).
    #[must_use]
    pub fn blocking_probability(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.rejected() as f64 / self.total() as f64
        }
    }
}

/// Rejection counters keyed by the *binding constraint* of the
/// decision trace — the single check that failed — rather than the
/// coarser [`RejectReason`](hetnet_cac::cac::RejectReason) class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct BindingCounters {
    /// Source ring out of synchronous bandwidth.
    pub source_bandwidth: u64,
    /// Destination ring out of synchronous bandwidth.
    pub dest_bandwidth: u64,
    /// A connection's worst-case delay exceeded its deadline.
    pub deadline: u64,
    /// A server along some path cannot keep up (unbounded delay).
    pub unstable: u64,
    /// A component on the request's path is down.
    pub component_down: u64,
    /// A constraint class this build does not know
    /// (`BindingConstraint` is `#[non_exhaustive]`).
    pub other: u64,
}

impl BindingCounters {
    /// Total bindings tallied.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.source_bandwidth
            + self.dest_bandwidth
            + self.deadline
            + self.unstable
            + self.component_down
            + self.other
    }
}

/// Fault-recovery counters of one service run: what the fault schedule
/// did to the network and how the engine drained it. All zero for a
/// run without fault injection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct RecoveryMetrics {
    /// Fault events applied (downs + ups + deadline shrinks).
    pub faults_injected: u64,
    /// Components newly taken down (idempotent re-downs not counted).
    pub components_downed: u64,
    /// Components restored from a down state.
    pub components_restored: u64,
    /// Connections torn down by failures and deadline shrinks.
    pub connections_dropped: u64,
    /// Source-ring synchronous time reclaimed from drops, s/rotation.
    pub reclaimed_s: f64,
    /// Destination-ring synchronous time reclaimed from drops,
    /// s/rotation.
    pub reclaimed_r: f64,
    /// Re-admission attempts for dropped connections.
    pub readmit_attempts: u64,
    /// Dropped connections successfully re-admitted.
    pub readmitted: u64,
    /// Parked connections whose holding time expired before a
    /// re-admission window opened.
    pub expired_in_park: u64,
    /// Longest down-to-restored interval of any component, seconds.
    pub max_time_to_drain: f64,
    /// Components still down when the run ended (0 when every fault
    /// drained, which the generated schedules guarantee).
    pub undrained: u64,
}

/// Live-reconfiguration counters of one service run: what the
/// reconfiguration schedule did to the admitted set, summed over every
/// applied [`hetnet_cac::reconfig::ReconfigReport`]. All zero for a
/// run without reconfigurations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct ReconfigMetrics {
    /// Reconfiguration events applied.
    pub reconfigs: u64,
    /// Connections re-admitted at a bit-different allocation.
    pub renegotiated: u64,
    /// Connections re-admitted at a bit-identical allocation.
    pub unchanged: u64,
    /// Connections dropped (parked for greedy re-admission).
    pub dropped: u64,
    /// Source-ring synchronous time reclaimed from drops, s/rotation.
    pub reclaimed_s: f64,
    /// Destination-ring synchronous time reclaimed from drops,
    /// s/rotation.
    pub reclaimed_r: f64,
}

impl ReconfigMetrics {
    /// Folds one applied reconfiguration report in.
    pub fn absorb(&mut self, report: &hetnet_cac::reconfig::ReconfigReport) {
        self.reconfigs += 1;
        self.renegotiated += report.renegotiated.len() as u64;
        self.unchanged += report.unchanged.len() as u64;
        self.dropped += report.dropped.len() as u64;
        self.reclaimed_s += report.reclaimed_s.value();
        self.reclaimed_r += report.reclaimed_r.value();
    }
}

/// One sample of per-ring synchronous-bandwidth utilization.
#[derive(Clone, Debug, Serialize)]
pub struct UtilizationSample {
    /// Event-stream time of the sample.
    pub at: Seconds,
    /// Active connections at the sample instant.
    pub active: usize,
    /// Utilization (allocated / allocatable synchronous time) per ring.
    pub rings: Vec<f64>,
}

/// Append-only ring-utilization time series, sampled every `period`
/// processed events.
#[derive(Clone, Debug, Serialize)]
pub struct UtilizationSeries {
    period: usize,
    events_seen: usize,
    samples: Vec<UtilizationSample>,
}

impl UtilizationSeries {
    /// A series sampling every `period` events (`period == 0` is
    /// treated as 1).
    #[must_use]
    pub fn new(period: usize) -> Self {
        Self {
            period: period.max(1),
            events_seen: 0,
            samples: Vec::new(),
        }
    }

    /// Offers one event's post-state; kept if it falls on the period.
    pub fn offer(&mut self, at: Seconds, active: usize, rings: impl FnOnce() -> Vec<f64>) {
        self.events_seen += 1;
        if self.events_seen.is_multiple_of(self.period) {
            self.samples.push(UtilizationSample {
                at,
                active,
                rings: rings(),
            });
        }
    }

    /// The recorded samples, in time order.
    #[must_use]
    pub fn samples(&self) -> &[UtilizationSample] {
        &self.samples
    }

    /// Mean and peak utilization of ring `ring` over the series.
    #[must_use]
    pub fn ring_summary(&self, ring: usize) -> (f64, f64) {
        let mut sum = 0.0;
        let mut peak = 0.0_f64;
        let mut n = 0usize;
        for s in &self.samples {
            if let Some(&u) = s.rings.get(ring) {
                sum += u;
                peak = peak.max(u);
                n += 1;
            }
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (sum / n as f64, peak)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_total_and_block() {
        let c = DecisionCounters {
            admitted: 1,
            rejected_source_exhausted: 1,
            rejected_dest_exhausted: 1,
            rejected_infeasible: 1,
            rejected_component_down: 1,
            rejected_other: 0,
        };
        assert_eq!(c.rejected(), 4);
        assert_eq!(c.total(), 5);
        assert!((c.blocking_probability() - 0.8).abs() < 1e-12);
        assert_eq!(DecisionCounters::default().blocking_probability(), 0.0);
    }

    #[test]
    fn utilization_series_samples_on_period() {
        let mut s = UtilizationSeries::new(3);
        for i in 0..10 {
            s.offer(Seconds::new(i as f64), i, || vec![0.1 * i as f64, 0.0]);
        }
        assert_eq!(s.samples().len(), 3); // events 3, 6, 9
        assert_eq!(s.samples()[0].active, 2);
        let (mean, peak) = s.ring_summary(0);
        assert!((peak - 0.8).abs() < 1e-12);
        assert!((mean - (0.2 + 0.5 + 0.8) / 3.0).abs() < 1e-12);
    }
}
