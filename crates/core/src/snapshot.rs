//! Versioned snapshots of the admission state.
//!
//! A [`StateSnapshot`] captures everything [`NetworkState`] decides
//! from — the active connections with their allocations, the
//! component-health set, the id counter, the logical clock, and the
//! decision sequence number — in a plain-data form that can be stored,
//! rendered as JSON, and restored *losslessly*:
//! `restore(snapshot(s))` reproduces a state whose every future
//! decision is bit-identical to `s`'s (proven by the proptest in
//! `tests/snapshot_roundtrip.rs`).
//!
//! Bit-identity rests on two properties. First, the snapshot keeps the
//! connections in admission order and carries their `f64` fields
//! verbatim; re-allocating them in that order reproduces the per-ring
//! allocation tables' internal summation order, so
//! [`NetworkState::available_on`] returns the *same bits* after a
//! restore. Second, the JSON rendering formats every float with Rust's
//! shortest-roundtrip `{}` formatting, which is injective on bit
//! patterns (NaN aside) — equal JSON strings mean equal states, which
//! is what the pinned golden snapshot in the test suite locks down.
//!
//! A snapshot is plain data anyone can edit, so
//! [`NetworkState::restore`] trusts none of it. It checks the version
//! and topology, then hands the connections, down set and id counter
//! to the one validated loader the sharded engine's speculations use
//! too: every connection passes the check an admission request does,
//! every down component must exist, ids must ascend below `next_id`,
//! and every allocation must be finite and fit its ring. Only then is
//! anything adopted, so a refused snapshot leaves the target state
//! exactly as it was.
//!
//! The evaluator cache is deliberately *not* part of a snapshot: cache
//! hits return exactly what the miss path would compute, so a restored
//! state with a cold cache makes the same decisions (only marginally
//! slower at first).

#[cfg(doc)]
use crate::cac::NetworkState;
use crate::connection::{ConnectionId, ConnectionSpec};
use crate::network::{Component, HostId, TopologySummary};
use hetnet_fddi::ring::{RingConfig, SyncBandwidth};
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::units::Seconds;
use std::fmt;
use std::fmt::Write as _;

/// Format version stamped into every snapshot. Bump on any change to
/// the snapshot's field set or meaning; [`NetworkState::restore`]
/// refuses other versions rather than guessing.
///
/// v2 added the per-connection backbone traffic `class` (scheduler
/// support); v3 added the per-ring parameters (`rings`), so a snapshot
/// taken after a live reconfiguration restores onto the *reconfigured*
/// ring timing rather than whatever the base topology was built with.
/// Older versions are refused.
pub const SNAPSHOT_VERSION: u32 = 3;

/// One active connection as captured by a snapshot: the admission-time
/// contract plus the committed allocations.
#[derive(Clone)]
pub struct ConnectionSnapshot {
    /// The id assigned at admission.
    pub id: ConnectionId,
    /// Sending host.
    pub source: HostId,
    /// Receiving host.
    pub dest: HostId,
    /// The source traffic envelope (shared, not copied: envelopes are
    /// immutable, so the snapshot and the live state can alias).
    pub envelope: SharedEnvelope,
    /// The connection's end-to-end deadline.
    pub deadline: Seconds,
    /// Backbone scheduler traffic class.
    pub class: u8,
    /// Synchronous bandwidth held on the source ring.
    pub h_s: SyncBandwidth,
    /// Synchronous bandwidth held on the destination ring.
    pub h_r: SyncBandwidth,
    /// The worst-case delay bound at admission time.
    pub delay_bound: Seconds,
}

impl fmt::Debug for ConnectionSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnectionSnapshot")
            .field("id", &self.id)
            .field("source", &self.source)
            .field("dest", &self.dest)
            .field("envelope", &self.envelope.describe())
            .field("deadline", &self.deadline)
            .field("class", &self.class)
            .field("h_s", &self.h_s)
            .field("h_r", &self.h_r)
            .field("delay_bound", &self.delay_bound)
            .finish()
    }
}

impl ConnectionSnapshot {
    /// The connection spec this snapshot entry restores to.
    #[must_use]
    pub fn spec(&self) -> ConnectionSpec {
        ConnectionSpec {
            source: self.source,
            dest: self.dest,
            envelope: std::sync::Arc::clone(&self.envelope),
            deadline: self.deadline,
            class: self.class,
        }
    }
}

/// A versioned, restorable capture of a [`NetworkState`].
///
/// Produced by [`NetworkState::snapshot`]; consumed by
/// [`NetworkState::restore`] and [`NetworkState::from_snapshot`].
#[derive(Clone, Debug)]
pub struct StateSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`] when produced by this
    /// build).
    pub version: u32,
    /// Shape of the network the snapshot was taken from; restore
    /// refuses a state whose topology differs.
    pub topology: TopologySummary,
    /// Ring parameters at capture time. [`NetworkState::restore`]
    /// *adopts* these — a snapshot taken after a live reconfiguration
    /// carries the retuned TTRT/overhead with it, so restoring onto a
    /// stock topology still reproduces the reconfigured state
    /// bit-for-bit.
    pub rings: Vec<RingConfig>,
    /// Active connections in admission order (ascending id).
    pub connections: Vec<ConnectionSnapshot>,
    /// Components marked down at capture time, in sorted order.
    pub down: Vec<Component>,
    /// The next connection id the state would assign.
    pub next_id: u64,
    /// The logical clock.
    pub clock: Seconds,
    /// Completed decisions so far.
    pub decision_seq: u64,
}

impl StateSnapshot {
    /// Hand-written JSON rendering. Every float uses Rust's
    /// shortest-roundtrip formatting, so two snapshots render equal
    /// strings iff their numeric fields are bit-identical — string
    /// comparison of `to_json()` outputs is a bit-identity check.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.connections.len() * 256);
        let _ = write!(
            out,
            "{{\"version\":{},\"topology\":{{\"rings\":{},\"hosts_per_ring\":{},\
             \"switches\":{},\"links\":{}}},",
            self.version,
            self.topology.rings,
            self.topology.hosts_per_ring,
            self.topology.switches,
            self.topology.links
        );
        out.push_str("\"rings\":[");
        for (i, r) in self.rings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"bandwidth_bps\":{},\"ttrt_s\":{},\"overhead_s\":{},\"propagation_s\":{}}}",
                json_f64(r.bandwidth.value()),
                json_f64(r.ttrt.value()),
                json_f64(r.overhead.value()),
                json_f64(r.propagation.value()),
            );
        }
        out.push_str("],");
        let _ = write!(
            out,
            "\"next_id\":{},\"clock_s\":{},\"decision_seq\":{},",
            self.next_id,
            json_f64(self.clock.value()),
            self.decision_seq
        );
        out.push_str("\"down\":[");
        for (i, c) in self.down.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"kind\":\"{}\",\"index\":{}}}", c.kind(), c.index());
        }
        out.push_str("],\"connections\":[");
        for (i, c) in self.connections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"source\":[{},{}],\"dest\":[{},{}],\"deadline_s\":{},\
                 \"class\":{},\"h_s_s\":{},\"h_r_s\":{},\"delay_bound_s\":{},\"envelope\":",
                c.id.0,
                c.source.ring,
                c.source.station,
                c.dest.ring,
                c.dest.station,
                json_f64(c.deadline.value()),
                c.class,
                json_f64(c.h_s.per_rotation().value()),
                json_f64(c.h_r.per_rotation().value()),
                json_f64(c.delay_bound.value()),
            );
            out.push_str(&c.envelope.describe().to_json());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Formats a float as a JSON value (`null` when non-finite); the same
/// convention as the decision-trace exporter.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
