//! The pinned admission state of the snapshot tests, and the
//! corruptions the snapshot robustness fuzz applies to its snapshot.
//! `tests/snapshot_roundtrip.rs` runs them through
//! `NetworkState::restore` and `ShardedState::from_snapshot`; the
//! service crate includes this file by path to run them through
//! `ServiceEngine::recover`.

use hetnet_cac::cac::{AdmissionOptions, CacConfig, NetworkState};
use hetnet_cac::connection::{ConnectionId, ConnectionSpec};
use hetnet_cac::network::{Component, HetNetwork, HostId, LinkId, RingId};
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::collections::BTreeSet;
use std::sync::Arc;

pub fn spec(
    src: (usize, usize),
    dst: (usize, usize),
    deadline_ms: f64,
    c1_mbit: f64,
) -> ConnectionSpec {
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
                Bits::from_mbits(c1_mbit),
                Seconds::from_millis(100.0),
                Bits::from_mbits(c1_mbit / 8.0),
                Seconds::from_millis(12.5),
                BitsPerSec::from_mbps(100.0),
            )
            .expect("valid source"),
        ),
        deadline: Seconds::from_millis(deadline_ms),
        class: 0,
    }
}

/// Drives a deterministic mixed scenario (admits, a teardown, a
/// failure) and returns the state.
pub fn pinned_state() -> NetworkState {
    let mut s = NetworkState::new(HetNetwork::paper_topology());
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    s.set_clock(Seconds::new(3.25));
    assert!(s
        .admit(spec((0, 0), (1, 0), 100.0, 2.0), &opts)
        .unwrap()
        .is_admitted());
    s.set_clock(Seconds::new(7.5));
    assert!(s
        .admit(spec((1, 1), (2, 0), 90.0, 1.5), &opts)
        .unwrap()
        .is_admitted());
    s.set_clock(Seconds::new(11.0));
    assert!(s
        .admit(spec((2, 1), (0, 2), 120.0, 1.0), &opts)
        .unwrap()
        .is_admitted());
    // One infeasible request (counted in decision_seq, no state change).
    assert!(!s
        .admit(spec((0, 3), (2, 3), 1.0, 2.0), &opts)
        .unwrap()
        .is_admitted());
    s.set_component_down(Component::IfDev(RingId(1))).unwrap();
    s
}

/// The pinned state plus one more admission, so that its snapshot has
/// the two connections [`mutate`] needs (the pinned failure tears the
/// first two down).
pub fn fuzz_state() -> NetworkState {
    let mut s = pinned_state();
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    s.set_clock(Seconds::new(13.5));
    assert!(s
        .admit(spec((0, 1), (2, 2), 110.0, 1.0), &opts)
        .unwrap()
        .is_admitted());
    s
}

/// Corruptions [`mutate`] applies, by `op % MUTATIONS`.
pub const MUTATIONS: usize = 14;

/// A copy of `snap` with one field corrupted, chosen by `op` and
/// parameterized by `pick` and `k`, and whether a restore must accept
/// it (`Some(true)`), refuse it (`Some(false)`), or may do either
/// (`None`: whether retuned allocations still fit depends on the
/// numbers). `snap` needs at least two connections.
pub fn mutate(
    snap: &StateSnapshot,
    op: usize,
    pick: usize,
    k: u64,
) -> (StateSnapshot, Option<bool>) {
    let mut s = snap.clone();
    let n = s.connections.len();
    assert!(n >= 2, "the mutations need two connections");
    let i = pick % n;
    let j = (i + 1 + (pick / n) % (n - 1)) % n;
    let (rings, hosts, links) = (
        s.topology.rings,
        s.topology.hosts_per_ring,
        s.topology.links,
    );
    let small = (k % 7) as usize;
    let mut down: BTreeSet<Component> = s.down.iter().copied().collect();
    let verdict = match op % MUTATIONS {
        // Ids: a duplicate, one at or past `next_id`, two out of order.
        0 => {
            s.connections[j].id = s.connections[i].id;
            Some(false)
        }
        1 => {
            s.connections[i].id = ConnectionId(s.next_id + k % 3);
            Some(false)
        }
        2 => {
            s.connections.swap(i, j);
            Some(false)
        }
        // Hosts: a ring or station outside the network, both ends on
        // one ring.
        3 => {
            s.connections[i].source.ring = rings + small;
            Some(false)
        }
        4 => {
            s.connections[i].dest.station = hosts + small;
            Some(false)
        }
        5 => {
            let c = &mut s.connections[i];
            c.dest.ring = c.source.ring;
            Some(false)
        }
        // Allocations: more than a ring can carry, NaN.
        6 => {
            s.connections[i].h_r = SyncBandwidth::new(Seconds::new(0.5 + k as f64));
            Some(false)
        }
        7 => {
            // Units refuse a NaN, but overflowing arithmetic makes one.
            let huge = Seconds::new(f64::MAX);
            s.connections[i].h_s = SyncBandwidth::new((huge + huge) - (huge + huge + huge));
            Some(false)
        }
        // Down components outside the network, repeated, or valid.
        8 => {
            down.insert(match k % 3 {
                0 => Component::Ring(RingId(rings + small)),
                1 => Component::IfDev(RingId(rings + small)),
                _ => Component::Link(LinkId(links + small)),
            });
            s.down = down.into_iter().collect();
            Some(false)
        }
        9 => {
            let first = *s
                .down
                .first()
                .expect("the pinned state has a down component");
            s.down.push(first);
            Some(false)
        }
        // A valid down component: accepted unless an admitted
        // connection crosses it, which `set_component_down` would have
        // torn down.
        10 => {
            let added = match k % 2 {
                0 => Component::Ring(RingId(small % rings)),
                _ => Component::Link(LinkId(small % links)),
            };
            let net = HetNetwork::paper_topology();
            assert_eq!(
                s.topology,
                net.summary(),
                "routes read from the paper topology"
            );
            let crossed = s.connections.iter().any(|c| match added {
                Component::Link(l) => net
                    .route_between(c.source.ring, c.dest.ring)
                    .expect("routed pair")
                    .contains(&l),
                _ => c.source.ring == small % rings || c.dest.ring == small % rings,
            });
            down.insert(added);
            s.down = down.into_iter().collect();
            Some(!crossed)
        }
        // `next_id`: at or below an admitted id, or further ahead.
        11 => {
            s.next_id = s.connections[i].id.0;
            Some(false)
        }
        12 => {
            s.next_id += 1 + k;
            Some(true)
        }
        // Rings: a retune the admitted allocations may not fit.
        _ => {
            let ring = s.connections[i].source.ring;
            s.rings[ring].ttrt = Seconds::from_millis(1.0 + small as f64);
            None
        }
    };
    (s, verdict)
}
