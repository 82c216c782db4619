//! Structured decision traces: every [`crate::cac::NetworkState::admit`]
//! call produces a [`DecisionTrace`] explaining *why* the verdict came
//! out the way it did — the eq.-7 delay decomposition and deadline
//! slack of every connection the decision touched, and, on reject, the
//! [`BindingConstraint`] that exhausted the budget.
//!
//! The trace is the observability counterpart of [`crate::cac::Decision`]:
//! the decision says *what*, the trace says *why*, in terms an operator
//! can act on ("connection-3's ATM term ate the budget", "ring 0 is out
//! of synchronous bandwidth").

use crate::connection::ConnectionId;
use crate::delay::{CacheStats, PathReport};
use crate::incremental::FastPathStats;
use crate::network::{Component, RingId};
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_obs::export::push_json_str;
use hetnet_traffic::units::Seconds;
use std::fmt;
use std::fmt::Write as _;

/// One server term of the paper's eq.-7 decomposition
/// `d^wc = d^wc_FDDI_S + d^wc_ID_S + d^wc_ATM + d^wc_ID_R + d^wc_FDDI_R`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServerStage {
    /// Source-ring MAC delay plus ring propagation.
    FddiS,
    /// Sender-side interface device.
    IdS,
    /// ATM backbone.
    Atm,
    /// Receiver-side interface device.
    IdR,
    /// Destination-ring MAC delay plus ring propagation.
    FddiR,
}

impl ServerStage {
    /// All five stages in path order.
    pub const ALL: [Self; 5] = [Self::FddiS, Self::IdS, Self::Atm, Self::IdR, Self::FddiR];

    /// Stable lowercase name matching the [`PathReport`] field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FddiS => "fddi_s",
            Self::IdS => "id_s",
            Self::Atm => "atm",
            Self::IdR => "id_r",
            Self::FddiR => "fddi_r",
        }
    }

    /// This stage's term of a report.
    #[must_use]
    pub fn of(self, report: &PathReport) -> Seconds {
        match self {
            Self::FddiS => report.fddi_s,
            Self::IdS => report.id_s,
            Self::Atm => report.atm,
            Self::IdR => report.id_r,
            Self::FddiR => report.fddi_r,
        }
    }

    /// The stage contributing the largest term (first in path order on
    /// ties) — the natural "where did the budget go" attribution.
    #[must_use]
    pub fn dominant(report: &PathReport) -> Self {
        let mut best = Self::FddiS;
        for stage in Self::ALL {
            if stage.of(report) > best.of(report) {
                best = stage;
            }
        }
        best
    }
}

impl fmt::Display for ServerStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One connection's worth of a [`DecisionTrace`]: its eq.-7
/// decomposition at the evaluated allocation, its deadline, and the
/// slack left under it.
#[derive(Clone, Debug)]
pub struct ConnectionTrace {
    /// The connection's id; `None` for a candidate that was not
    /// admitted (it never received one).
    pub id: Option<ConnectionId>,
    /// The eq.-7 delay decomposition.
    pub report: PathReport,
    /// The connection's deadline.
    pub deadline: Seconds,
    /// `deadline − total` (negative when the deadline is missed).
    pub slack: Seconds,
    /// The largest of the five stage terms.
    pub dominant: ServerStage,
}

impl ConnectionTrace {
    /// Builds a trace entry from a report and deadline.
    #[must_use]
    pub fn new(id: Option<ConnectionId>, report: PathReport, deadline: Seconds) -> Self {
        Self {
            id,
            report,
            deadline,
            slack: deadline - report.total,
            dominant: ServerStage::dominant(&report),
        }
    }
}

/// The constraint that decided a rejection — a refinement of
/// [`crate::cac::RejectReason`] that names the responsible connection
/// and server term where one exists.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum BindingConstraint {
    /// The source ring's synchronous budget cannot cover the request.
    SourceBandwidth {
        /// The exhausted ring.
        ring: RingId,
        /// Synchronous time still available there.
        available: Seconds,
        /// What the request needed at minimum.
        required: Seconds,
    },
    /// The destination ring's synchronous budget cannot cover the
    /// request.
    DestBandwidth {
        /// The exhausted ring.
        ring: RingId,
        /// Synchronous time still available there.
        available: Seconds,
        /// What the request needed at minimum.
        required: Seconds,
    },
    /// A deadline is missed even at the maximum available allocation:
    /// the named connection's delay exceeds its deadline, and `stage`
    /// is the dominant term of its decomposition.
    DeadlineExceeded {
        /// The violated connection (`None` when it is the requesting
        /// candidate, which has no id yet).
        connection: Option<ConnectionId>,
        /// The dominant server term of the violated path.
        stage: ServerStage,
        /// The violated path's end-to-end bound.
        delay: Seconds,
        /// Its deadline.
        deadline: Seconds,
        /// `delay − deadline` (positive).
        excess: Seconds,
    },
    /// Some server is unstable (or the numerical verification failed)
    /// at the evaluated allocations — no finite bound exists.
    ServerUnstable {
        /// Which server, verbatim from the evaluator.
        detail: String,
    },
    /// A component on the request's path is marked down (fault
    /// injection / operational failure): no allocation can help until
    /// it is restored.
    ComponentDown {
        /// The failed component.
        component: Component,
    },
}

impl BindingConstraint {
    /// Stable kind tag used by exporters and metrics
    /// (`"source_bandwidth"`, `"dest_bandwidth"`, `"deadline"`,
    /// `"unstable"`, `"component_down"`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::SourceBandwidth { .. } => "source_bandwidth",
            Self::DestBandwidth { .. } => "dest_bandwidth",
            Self::DeadlineExceeded { .. } => "deadline",
            Self::ServerUnstable { .. } => "unstable",
            Self::ComponentDown { .. } => "component_down",
        }
    }
}

impl fmt::Display for BindingConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SourceBandwidth {
                ring,
                available,
                required,
            } => write!(
                f,
                "source {ring} out of synchronous bandwidth ({available} available, {required} required)"
            ),
            Self::DestBandwidth {
                ring,
                available,
                required,
            } => write!(
                f,
                "destination {ring} out of synchronous bandwidth ({available} available, {required} required)"
            ),
            Self::DeadlineExceeded {
                connection,
                stage,
                delay,
                deadline,
                excess,
            } => {
                match connection {
                    Some(id) => write!(f, "{id}")?,
                    None => f.write_str("the requesting connection")?,
                }
                write!(
                    f,
                    " misses its deadline ({delay} > {deadline}, excess {excess}); dominant term {stage}"
                )
            }
            Self::ServerUnstable { detail } => write!(f, "server unstable: {detail}"),
            Self::ComponentDown { component } => {
                write!(f, "component {component} is down on the request's path")
            }
        }
    }
}

/// The full explanation of one admission decision.
#[derive(Clone, Debug)]
pub struct DecisionTrace {
    /// Decision sequence number (counts every completed
    /// [`crate::cac::NetworkState::admit`], admitted or rejected).
    pub seq: u64,
    /// The state's logical clock at decision time.
    pub at: Seconds,
    /// The verdict.
    pub admitted: bool,
    /// Display form of the backbone scheduler the decision was analyzed
    /// under (`"fifo"`, `"iwrr[..]"`, `"drr[..]"`) — bounds from
    /// different disciplines are not comparable, so every trace names
    /// its discipline.
    pub scheduler: String,
    /// The `(H_S, H_R)` pair the verdict was reached at — the committed
    /// allocation on admit, `None` when the reject happened before any
    /// allocation was evaluated (bandwidth pre-checks).
    pub allocation: Option<(SyncBandwidth, SyncBandwidth)>,
    /// Per-connection decompositions at the decided allocation: the
    /// existing connections of the candidate's dependency closure (the
    /// only ones a decision evaluates) in admission order, the
    /// candidate last.
    /// Empty when the reject happened before any path was evaluated.
    pub connections: Vec<ConnectionTrace>,
    /// What decided a rejection; `None` on admit.
    pub binding: Option<BindingConstraint>,
    /// Evaluator cache counters of the decision's searches (all-zero
    /// for fixed-allocation decisions, which run uncached).
    pub cache: CacheStats,
    /// How the decision's β-search probes were resolved by the fast
    /// decision ladder (all-zero when the fast path is disabled or for
    /// fixed-allocation decisions, which never probe).
    pub fast_path: FastPathStats,
}

impl DecisionTrace {
    /// The requesting connection's entry (the last one), if any path
    /// was evaluated.
    #[must_use]
    pub fn candidate(&self) -> Option<&ConnectionTrace> {
        self.connections.last()
    }

    /// One-line JSON rendering, shaped like the `hetnet-obs` JSON-lines
    /// stream so the two can be interleaved in one log:
    ///
    /// ```text
    /// {"seq":4,"at_s":12.5,"admitted":false,"scheduler":"fifo","allocation":null,
    ///  "binding":{"kind":"deadline","connection":2,"stage":"atm",...},
    ///  "cache":{...},"connections":[{"id":2,"fddi_s_s":...,...},...]}
    /// ```
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256 + self.connections.len() * 224);
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_s\":{},\"admitted\":{},\"scheduler\":\"{}\",",
            self.seq,
            json_f64(self.at.value()),
            self.admitted,
            self.scheduler
        );
        match self.allocation {
            Some((h_s, h_r)) => {
                let _ = write!(
                    out,
                    "\"allocation\":{{\"h_s_s\":{},\"h_r_s\":{}}},",
                    json_f64(h_s.per_rotation().value()),
                    json_f64(h_r.per_rotation().value())
                );
            }
            None => out.push_str("\"allocation\":null,"),
        }
        out.push_str("\"binding\":");
        match &self.binding {
            None => out.push_str("null"),
            Some(b) => push_binding_json(&mut out, b),
        }
        let _ = write!(
            out,
            concat!(
                ",\"cache\":{{\"stage1_hits\":{},\"stage1_misses\":{},",
                "\"mux_hits\":{},\"mux_misses\":{},",
                "\"receive_hits\":{},\"receive_misses\":{}}}"
            ),
            self.cache.stage1_hits,
            self.cache.stage1_misses,
            self.cache.mux_hits,
            self.cache.mux_misses,
            self.cache.receive_hits,
            self.cache.receive_misses
        );
        let _ = write!(
            out,
            ",\"fast_path\":{{\"fast_accepts\":{},\"fast_rejects\":{},\"fallbacks\":{}}}",
            self.fast_path.fast_accepts, self.fast_path.fast_rejects, self.fast_path.fallbacks
        );
        out.push_str(",\"connections\":[");
        for (i, c) in self.connections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_connection_json(&mut out, c);
        }
        out.push_str("]}");
        out
    }
}

/// Formats a float as a JSON value (`null` when non-finite).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn push_connection_json(out: &mut String, c: &ConnectionTrace) {
    match c.id {
        Some(id) => {
            let _ = write!(out, "{{\"id\":{},", id.0);
        }
        None => out.push_str("{\"id\":null,"),
    }
    for stage in ServerStage::ALL {
        let _ = write!(
            out,
            "\"{}_s\":{},",
            stage.name(),
            json_f64(stage.of(&c.report).value())
        );
    }
    let _ = write!(
        out,
        concat!(
            "\"total_s\":{},\"deadline_s\":{},\"slack_s\":{},\"dominant\":\"{}\",",
            "\"buffer_mac_s_bits\":{},\"buffer_mac_r_bits\":{}}}"
        ),
        json_f64(c.report.total.value()),
        json_f64(c.deadline.value()),
        json_f64(c.slack.value()),
        c.dominant.name(),
        json_f64(c.report.buffer_mac_s.value()),
        json_f64(c.report.buffer_mac_r.value()),
    );
}

fn push_binding_json(out: &mut String, b: &BindingConstraint) {
    let _ = write!(out, "{{\"kind\":\"{}\",", b.kind());
    match b {
        BindingConstraint::SourceBandwidth {
            ring,
            available,
            required,
        }
        | BindingConstraint::DestBandwidth {
            ring,
            available,
            required,
        } => {
            let _ = write!(
                out,
                "\"ring\":{},\"available_s\":{},\"required_s\":{}}}",
                ring.0,
                json_f64(available.value()),
                json_f64(required.value())
            );
        }
        BindingConstraint::DeadlineExceeded {
            connection,
            stage,
            delay,
            deadline,
            excess,
        } => {
            match connection {
                Some(id) => {
                    let _ = write!(out, "\"connection\":{},", id.0);
                }
                None => out.push_str("\"connection\":null,"),
            }
            let _ = write!(
                out,
                "\"stage\":\"{}\",\"delay_s\":{},\"deadline_s\":{},\"excess_s\":{}}}",
                stage.name(),
                json_f64(delay.value()),
                json_f64(deadline.value()),
                json_f64(excess.value())
            );
        }
        BindingConstraint::ServerUnstable { detail } => {
            out.push_str("\"detail\":");
            push_json_str(out, detail);
            out.push('}');
        }
        BindingConstraint::ComponentDown { component } => {
            let _ = write!(
                out,
                "\"component\":\"{}\",\"component_kind\":\"{}\",\"component_index\":{}}}",
                component,
                component.kind(),
                component.index()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(terms: [f64; 5]) -> PathReport {
        use hetnet_traffic::units::Bits;
        let [fddi_s, id_s, atm, id_r, fddi_r] = terms.map(Seconds::new);
        PathReport {
            fddi_s,
            id_s,
            atm,
            id_r,
            fddi_r,
            total: fddi_s + id_s + atm + id_r + fddi_r,
            buffer_mac_s: Bits::new(1000.0),
            buffer_mac_r: Bits::new(2000.0),
        }
    }

    #[test]
    fn dominant_picks_the_largest_term_first_on_ties() {
        let r = report([0.01, 0.002, 0.03, 0.002, 0.01]);
        assert_eq!(ServerStage::dominant(&r), ServerStage::Atm);
        let tie = report([0.01, 0.01, 0.01, 0.01, 0.01]);
        assert_eq!(ServerStage::dominant(&tie), ServerStage::FddiS);
        for stage in ServerStage::ALL {
            assert_eq!(stage.of(&r), stage.of(&r));
            assert!(!stage.name().is_empty());
        }
    }

    #[test]
    fn connection_trace_computes_slack() {
        let c = ConnectionTrace::new(
            Some(ConnectionId(3)),
            report([0.01, 0.002, 0.03, 0.002, 0.01]),
            Seconds::from_millis(60.0),
        );
        assert!((c.slack.value() - (0.06 - c.report.total.value())).abs() < 1e-15);
        assert_eq!(c.dominant, ServerStage::Atm);
    }

    #[test]
    fn binding_kinds_and_display() {
        let cases = [
            (
                BindingConstraint::SourceBandwidth {
                    ring: RingId(0),
                    available: Seconds::from_millis(1.0),
                    required: Seconds::from_millis(2.0),
                },
                "source_bandwidth",
            ),
            (
                BindingConstraint::DestBandwidth {
                    ring: RingId(1),
                    available: Seconds::from_millis(1.0),
                    required: Seconds::from_millis(2.0),
                },
                "dest_bandwidth",
            ),
            (
                BindingConstraint::DeadlineExceeded {
                    connection: Some(ConnectionId(7)),
                    stage: ServerStage::Atm,
                    delay: Seconds::from_millis(90.0),
                    deadline: Seconds::from_millis(80.0),
                    excess: Seconds::from_millis(10.0),
                },
                "deadline",
            ),
            (
                BindingConstraint::ServerUnstable {
                    detail: "uplink 2".into(),
                },
                "unstable",
            ),
            (
                BindingConstraint::ComponentDown {
                    component: Component::Ring(RingId(1)),
                },
                "component_down",
            ),
        ];
        for (b, kind) in cases {
            assert_eq!(b.kind(), kind);
            assert!(!b.to_string().is_empty());
        }
    }

    #[test]
    fn json_line_shape() {
        let trace = DecisionTrace {
            seq: 4,
            at: Seconds::new(12.5),
            admitted: false,
            scheduler: "fifo".into(),
            allocation: Some((
                SyncBandwidth::new(Seconds::from_millis(2.0)),
                SyncBandwidth::new(Seconds::from_millis(2.5)),
            )),
            connections: vec![
                ConnectionTrace::new(
                    Some(ConnectionId(2)),
                    report([0.01, 0.002, 0.03, 0.002, 0.01]),
                    Seconds::from_millis(40.0),
                ),
                ConnectionTrace::new(
                    None,
                    report([0.02, 0.002, 0.05, 0.002, 0.02]),
                    Seconds::from_millis(60.0),
                ),
            ],
            binding: Some(BindingConstraint::DeadlineExceeded {
                connection: None,
                stage: ServerStage::Atm,
                delay: Seconds::from_millis(94.0),
                deadline: Seconds::from_millis(60.0),
                excess: Seconds::from_millis(34.0),
            }),
            cache: CacheStats {
                stage1_hits: 5,
                stage1_misses: 1,
                mux_hits: 10,
                mux_misses: 2,
                receive_hits: 3,
                receive_misses: 1,
                ..CacheStats::default()
            },
            fast_path: FastPathStats {
                fast_accepts: 6,
                fast_rejects: 2,
                fallbacks: 1,
                ..FastPathStats::default()
            },
        };
        let line = trace.to_json_line();
        assert!(
            line.starts_with("{\"seq\":4,\"at_s\":12.5,\"admitted\":false,\"scheduler\":\"fifo\",")
        );
        assert!(line.contains("\"allocation\":{\"h_s_s\":0.002,\"h_r_s\":0.0025}"));
        assert!(line
            .contains("\"binding\":{\"kind\":\"deadline\",\"connection\":null,\"stage\":\"atm\""));
        assert!(line.contains(
            "\"cache\":{\"stage1_hits\":5,\"stage1_misses\":1,\"mux_hits\":10,\"mux_misses\":2,\
             \"receive_hits\":3,\"receive_misses\":1}"
        ));
        assert!(
            line.contains("\"fast_path\":{\"fast_accepts\":6,\"fast_rejects\":2,\"fallbacks\":1}")
        );
        assert!(line.contains("\"id\":2,"));
        assert!(line.contains("\"id\":null,"));
        assert!(line.contains("\"dominant\":\"atm\""));
        assert!(line.ends_with("]}"));
        assert!(!line.contains('\n'));
        assert_eq!(trace.candidate().unwrap().id, None);
    }

    #[test]
    fn component_down_binding_json() {
        use hetnet_atm::topology::LinkId;
        let b = BindingConstraint::ComponentDown {
            component: Component::Link(LinkId(4)),
        };
        let mut out = String::new();
        push_binding_json(&mut out, &b);
        assert_eq!(
            out,
            "{\"kind\":\"component_down\",\"component\":\"link-4\",\
             \"component_kind\":\"link\",\"component_index\":4}"
        );
    }

    #[test]
    fn unstable_binding_escapes_detail() {
        let b = BindingConstraint::ServerUnstable {
            detail: "a \"quoted\" reason".into(),
        };
        let mut out = String::new();
        push_binding_json(&mut out, &b);
        assert_eq!(
            out,
            "{\"kind\":\"unstable\",\"detail\":\"a \\\"quoted\\\" reason\"}"
        );
    }
}
