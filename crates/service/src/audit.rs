//! Append-only decision audit log.
//!
//! Every admission decision the service makes — admitted or rejected —
//! is recorded here in decision order, with enough detail to replay the
//! run against a bare [`hetnet_cac::cac::NetworkState`] and check
//! bit-identical outcomes. Entries derive `Serialize` and also render
//! to JSON through [`AuditLog::to_json`] (the workspace's serde is an
//! offline no-op shim, so the JSON path is hand-written like the rest
//! of the bench tooling).

use hetnet_cac::cac::{Decision, RejectReason};
use hetnet_cac::connection::ConnectionId;
use hetnet_traffic::units::Seconds;
use serde::Serialize;
use std::fmt::Write as _;

/// Why the engine made a decision: a scheduled churn arrival, or a
/// re-admission attempt for a connection torn down by a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum AuditKind {
    /// A scheduled arrival from the churn workload.
    Arrival,
    /// A fault-recovery re-admission attempt (the `arrival` field names
    /// the original schedule index the connection came from).
    Readmit,
    /// A live reconfiguration renegotiated the whole admitted set (the
    /// `arrival` field names the index in the reconfiguration
    /// schedule).
    Reconfig,
}

impl AuditKind {
    /// Stable lowercase tag for JSON.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Arrival => "arrival",
            Self::Readmit => "readmit",
            Self::Reconfig => "reconfig",
        }
    }
}

/// The decided outcome, flattened for logging.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum AuditOutcome {
    /// Admitted with these allocations.
    Admitted {
        /// Connection id assigned at admission.
        id: ConnectionId,
        /// Source-ring synchronous allocation, seconds per rotation.
        h_s: f64,
        /// Destination-ring synchronous allocation, seconds per rotation.
        h_r: f64,
        /// Worst-case end-to-end delay at admission, seconds.
        delay_bound: f64,
    },
    /// Rejected, with the reason class and its rendered detail.
    Rejected {
        /// Stable reason-class tag (`"source_exhausted"`, …).
        class: &'static str,
        /// Human-readable rendering of the full reason.
        detail: String,
    },
    /// A live reconfiguration was applied: the admitted set was
    /// renegotiated against new ring parameters.
    Reconfigured {
        /// Connections re-admitted at a bit-different allocation.
        renegotiated: u64,
        /// Connections that no longer fit and were dropped (parked at
        /// the service layer for greedy re-admission).
        dropped: u64,
        /// Connections re-admitted at a bit-identical allocation.
        unchanged: u64,
    },
}

impl AuditOutcome {
    /// Flattens a CAC decision.
    #[must_use]
    pub fn from_decision(decision: &Decision) -> Self {
        match decision {
            Decision::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            } => Self::Admitted {
                id: *id,
                h_s: h_s.per_rotation().value(),
                h_r: h_r.per_rotation().value(),
                delay_bound: delay_bound.value(),
            },
            Decision::Rejected(reason) => Self::Rejected {
                class: reason_class(reason),
                detail: reason.to_string(),
            },
        }
    }

    /// Whether this outcome is an admission.
    #[must_use]
    pub fn is_admitted(&self) -> bool {
        matches!(self, Self::Admitted { .. })
    }
}

/// Stable machine-readable tag for a rejection class.
#[must_use]
pub fn reason_class(reason: &RejectReason) -> &'static str {
    match reason {
        RejectReason::SourceBandwidthExhausted { .. } => "source_exhausted",
        RejectReason::DestBandwidthExhausted { .. } => "dest_exhausted",
        RejectReason::InfeasibleAtMaximum { .. } => "infeasible",
        RejectReason::ComponentUnavailable { .. } => "component_down",
        // `RejectReason` is non_exhaustive; unknown classes still log.
        _ => "other",
    }
}

/// One audit-log line: a decision in its event context. Entries
/// compare by [`entries_equivalent`].
#[derive(Clone, Debug, Serialize)]
pub struct AuditEntry {
    /// Decision sequence number (0-based, gap-free).
    pub seq: u64,
    /// Event-stream time of the decision.
    pub at: Seconds,
    /// What triggered the decision.
    pub kind: AuditKind,
    /// Index of the arrival in the churn schedule.
    pub arrival: usize,
    /// Requesting `(ring, station)`.
    pub source: (usize, usize),
    /// Destination `(ring, station)`.
    pub dest: (usize, usize),
    /// Requested end-to-end deadline, seconds.
    pub deadline: f64,
    /// The verdict.
    pub outcome: AuditOutcome,
}

impl PartialEq for AuditEntry {
    fn eq(&self, other: &Self) -> bool {
        entries_equivalent(self, other)
    }
}

/// The one audit equality, behind `AuditEntry`'s `==` and so behind
/// `AuditLog`'s: every field of both entries, floats by bit pattern,
/// and a rejection by its class *and* its detail. Recovery, the
/// sharded engine's certificates and every decision-neutrality suite
/// (warm vs cold cache, fast path on/off, traced vs untraced) compare
/// decisions with it.
#[must_use]
pub fn entries_equivalent(a: &AuditEntry, b: &AuditEntry) -> bool {
    let outcomes_match = match (&a.outcome, &b.outcome) {
        (
            AuditOutcome::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            },
            AuditOutcome::Admitted {
                id: id2,
                h_s: h_s2,
                h_r: h_r2,
                delay_bound: delay_bound2,
            },
        ) => {
            id == id2
                && h_s.to_bits() == h_s2.to_bits()
                && h_r.to_bits() == h_r2.to_bits()
                && delay_bound.to_bits() == delay_bound2.to_bits()
        }
        // The other outcomes hold no floats: derived equality is exact.
        (x, y) => x == y,
    };
    outcomes_match
        && a.seq == b.seq
        && a.at.value().to_bits() == b.at.value().to_bits()
        && a.kind == b.kind
        && a.arrival == b.arrival
        && a.source == b.source
        && a.dest == b.dest
        && a.deadline.to_bits() == b.deadline.to_bits()
}

/// Append-only, decision-ordered audit log.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
    start: u64,
}

impl AuditLog {
    /// An empty log starting at sequence 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log whose first entry must carry sequence `start` — the
    /// tail of a longer log, as written by an engine recovered from a
    /// snapshot taken after `start` decisions.
    #[must_use]
    pub fn starting_at(start: u64) -> Self {
        Self {
            entries: Vec::new(),
            start,
        }
    }

    /// The sequence number the log starts at (0 for a full-run log).
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Appends one entry.
    ///
    /// # Panics
    ///
    /// Panics if `entry.seq` is not the next sequence number — the log
    /// is append-only and gap-free by construction.
    pub fn append(&mut self, entry: AuditEntry) {
        assert_eq!(
            entry.seq,
            self.start + self.entries.len() as u64,
            "audit log must stay gap-free and ordered"
        );
        self.entries.push(entry);
    }

    /// The entries, in decision order.
    #[must_use]
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the log as a JSON array (one object per decision).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"at\":{:.9},\"kind\":\"{}\",\"arrival\":{},\
                 \"source\":[{},{}],\"dest\":[{},{}],\"deadline\":{:.9},",
                e.seq,
                e.at.value(),
                e.kind.name(),
                e.arrival,
                e.source.0,
                e.source.1,
                e.dest.0,
                e.dest.1,
                e.deadline,
            );
            match &e.outcome {
                AuditOutcome::Admitted {
                    id,
                    h_s,
                    h_r,
                    delay_bound,
                } => {
                    let _ = write!(
                        out,
                        "\"outcome\":\"admitted\",\"id\":{},\"h_s\":{:.12e},\
                         \"h_r\":{:.12e},\"delay_bound\":{:.9}}}",
                        id.0, h_s, h_r, delay_bound
                    );
                }
                AuditOutcome::Rejected { class, detail } => {
                    let _ = write!(
                        out,
                        "\"outcome\":\"rejected\",\"class\":\"{}\",\"detail\":\"{}\"}}",
                        class,
                        detail.replace('\\', "\\\\").replace('"', "\\\"")
                    );
                }
                AuditOutcome::Reconfigured {
                    renegotiated,
                    dropped,
                    unchanged,
                } => {
                    let _ = write!(
                        out,
                        "\"outcome\":\"reconfigured\",\"renegotiated\":{renegotiated},\
                         \"dropped\":{dropped},\"unchanged\":{unchanged}}}",
                    );
                }
            }
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, admitted: bool) -> AuditEntry {
        AuditEntry {
            seq,
            at: Seconds::new(seq as f64),
            kind: AuditKind::Arrival,
            arrival: seq as usize,
            source: (0, 1),
            dest: (1, 0),
            deadline: 0.1,
            outcome: if admitted {
                AuditOutcome::Admitted {
                    id: ConnectionId(seq),
                    h_s: 1e-4,
                    h_r: 2e-4,
                    delay_bound: 0.05,
                }
            } else {
                AuditOutcome::Rejected {
                    class: "infeasible",
                    detail: "beyond \"max\"".into(),
                }
            },
        }
    }

    #[test]
    fn log_is_append_only_and_ordered() {
        let mut log = AuditLog::new();
        log.append(entry(0, true));
        log.append(entry(1, false));
        assert_eq!(log.len(), 2);
        assert!(log.entries()[0].outcome.is_admitted());
        assert!(!log.entries()[1].outcome.is_admitted());
    }

    #[test]
    #[should_panic(expected = "gap-free")]
    fn log_rejects_gaps() {
        let mut log = AuditLog::new();
        log.append(entry(1, true));
    }

    #[test]
    fn tail_log_starts_at_its_offset() {
        let mut log = AuditLog::starting_at(7);
        assert_eq!(log.start(), 7);
        log.append(entry(7, true));
        log.append(entry(8, false));
        assert_eq!(log.len(), 2);
    }

    #[test]
    #[should_panic(expected = "gap-free")]
    fn tail_log_rejects_wrong_offset() {
        let mut log = AuditLog::starting_at(7);
        log.append(entry(0, true));
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut log = AuditLog::new();
        log.append(entry(0, true));
        log.append(entry(1, false));
        let j = log.to_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"kind\":\"arrival\""));
        assert!(j.contains("\"outcome\":\"admitted\""));
        assert!(j.contains("\"class\":\"infeasible\""));
        // The quoted word inside the detail must be escaped.
        assert!(j.contains("beyond \\\"max\\\""));
        assert_eq!(j.matches("\"seq\":").count(), 2);
    }

    #[test]
    fn reason_classes_are_stable() {
        use hetnet_traffic::units::Seconds;
        assert_eq!(
            reason_class(&RejectReason::SourceBandwidthExhausted {
                available: Seconds::ZERO,
                required: Seconds::new(1.0),
            }),
            "source_exhausted"
        );
        assert_eq!(
            reason_class(&RejectReason::InfeasibleAtMaximum { detail: "d".into() }),
            "infeasible"
        );
        assert_eq!(
            reason_class(&RejectReason::ComponentUnavailable {
                component: hetnet_cac::network::Component::Ring(hetnet_cac::network::RingId(1)),
            }),
            "component_down"
        );
        assert_eq!(AuditKind::Arrival.name(), "arrival");
        assert_eq!(AuditKind::Readmit.name(), "readmit");
        assert_eq!(AuditKind::Reconfig.name(), "reconfig");
    }

    #[test]
    fn reconfig_entries_render_and_are_not_admissions() {
        let mut log = AuditLog::new();
        log.append(AuditEntry {
            seq: 0,
            at: Seconds::new(3.5),
            kind: AuditKind::Reconfig,
            arrival: 0,
            source: (0, 0),
            dest: (0, 0),
            deadline: 0.0,
            outcome: AuditOutcome::Reconfigured {
                renegotiated: 4,
                dropped: 1,
                unchanged: 2,
            },
        });
        assert!(!log.entries()[0].outcome.is_admitted());
        let j = log.to_json();
        assert!(j.contains("\"kind\":\"reconfig\""));
        assert!(j.contains("\"outcome\":\"reconfigured\""));
        assert!(j.contains("\"renegotiated\":4,\"dropped\":1,\"unchanged\":2"));
    }
}
