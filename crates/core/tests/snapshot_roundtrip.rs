//! Snapshot losslessness: `restore(snapshot(s))` reproduces a state
//! observably identical to `s` — same JSON rendering (bit-identical
//! numeric fields), same per-ring availability bits, and the same
//! admit/reject outcome on a randomized churn replay. A pinned golden
//! snapshot locks the JSON format (and, through shortest-roundtrip
//! float formatting, the exact bits) against drift.
//!
//! Regenerate the golden file with `SNAPSHOT_WRITE=1 cargo test -p
//! hetnet-cac --test snapshot_roundtrip` after an intentional format
//! change, and say why in the commit.
//!
//! The second half is robustness: a corrupted snapshot is refused with
//! [`CacError::SnapshotMismatch`], never a panic, and a refused restore
//! leaves the target state exactly as it was.

#[path = "support/snapshot_cases.rs"]
mod snapshot_cases;

use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::error::CacError;
use hetnet_cac::network::{Component, HetNetwork, HostId, RingId};
use hetnet_cac::shard::ShardedState;
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_traffic::units::Seconds;
use proptest::prelude::*;
use snapshot_cases::{fuzz_state, mutate, pinned_state, spec, MUTATIONS};
use std::path::Path;
use std::sync::Arc;

#[test]
fn pinned_snapshot_matches_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/state_snapshot.json");
    let json = pinned_state().snapshot().to_json();
    if std::env::var_os("SNAPSHOT_WRITE").is_some() {
        std::fs::write(&golden, format!("{json}\n")).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden snapshot missing; regenerate with SNAPSHOT_WRITE=1");
    assert_eq!(
        json,
        want.trim_end(),
        "snapshot JSON drifted from the pinned golden; if intentional, \
         regenerate with SNAPSHOT_WRITE=1 and explain in the commit"
    );
}

#[test]
fn pinned_snapshot_restores_bit_identically() {
    let s = pinned_state();
    let snap = s.snapshot();
    let restored = NetworkState::from_snapshot(HetNetwork::paper_topology(), &snap).unwrap();
    assert_eq!(restored.snapshot().to_json(), snap.to_json());
    for ring in 0..3 {
        assert_eq!(
            restored.available_on(ring).value().to_bits(),
            s.available_on(ring).value().to_bits(),
            "ring {ring} availability drifted through restore"
        );
    }
    assert_eq!(restored.down_components(), s.down_components());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized round-trip: after a random admission history (some of
    /// which reject) and an optional component failure, the restored
    /// state matches bit-for-bit and decides the next request
    /// identically.
    #[test]
    fn restore_reproduces_state_and_decisions(
        seed in 0_u64..1_000_000,
        n_requests in 2_usize..10,
        // 0..3 fail that ring; 3 injects no fault.
        fail_ring in 0_usize..4,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = AdmissionOptions::beta_search(CacConfig::fast());
        let mut s = NetworkState::new(HetNetwork::paper_topology());
        for i in 0..n_requests {
            let src_ring = rng.gen_range(0..3usize);
            let mut dst_ring = rng.gen_range(0..3usize);
            if dst_ring == src_ring {
                dst_ring = (dst_ring + 1) % 3;
            }
            let sp = spec(
                (src_ring, rng.gen_range(0..4usize)),
                (dst_ring, rng.gen_range(0..4usize)),
                rng.gen_range(40.0..160.0),
                rng.gen_range(0.5..2.5),
            );
            s.set_clock(Seconds::new(i as f64));
            let _ = s.admit(sp, &opts).unwrap();
        }
        if fail_ring < 3 {
            s.set_component_down(Component::Ring(RingId(fail_ring)))
                .unwrap();
        }
        let snap = s.snapshot();
        let mut restored =
            NetworkState::from_snapshot(HetNetwork::paper_topology(), &snap).unwrap();
        prop_assert_eq!(restored.snapshot().to_json(), snap.to_json());
        for ring in 0..3 {
            prop_assert_eq!(
                restored.available_on(ring).value().to_bits(),
                s.available_on(ring).value().to_bits()
            );
        }
        // The next decision (chosen to cross rings that may be down or
        // loaded) is identical in both copies, including allocations.
        let probe = spec(
            (0, rng.gen_range(0..4usize)),
            (rng.gen_range(1..3usize), 0),
            rng.gen_range(40.0..160.0),
            rng.gen_range(0.5..2.5),
        );
        let a = s.admit(probe.clone(), &opts).unwrap();
        let b = restored.admit(probe, &opts).unwrap();
        match (a, b) {
            (
                Decision::Admitted { id: ia, h_s: ha, h_r: ra, delay_bound: da },
                Decision::Admitted { id: ib, h_s: hb, h_r: rb, delay_bound: db },
            ) => {
                prop_assert_eq!(ia, ib);
                prop_assert_eq!(
                    ha.per_rotation().value().to_bits(),
                    hb.per_rotation().value().to_bits()
                );
                prop_assert_eq!(
                    ra.per_rotation().value().to_bits(),
                    rb.per_rotation().value().to_bits()
                );
                prop_assert_eq!(da.value().to_bits(), db.value().to_bits());
            }
            (Decision::Rejected(ra), Decision::Rejected(rb)) => {
                prop_assert_eq!(ra.to_string(), rb.to_string());
            }
            (a, b) => prop_assert!(false, "decisions diverged: {:?} vs {:?}", a, b),
        }
    }
}

fn refused(result: Result<NetworkState, CacError>) -> bool {
    matches!(result, Err(CacError::SnapshotMismatch(_)))
}

/// A connection on a ring the network does not have is refused; it
/// used to index the allocation tables out of bounds.
#[test]
fn restore_refuses_a_connection_on_an_unknown_ring() {
    let mut snap = pinned_state().snapshot();
    snap.connections[0].dest.ring = 7;
    assert!(refused(NetworkState::from_snapshot(
        HetNetwork::paper_topology(),
        &snap
    )));
}

/// A station past the ring's hosts is refused, as an admission request
/// naming it would be.
#[test]
fn restore_refuses_an_unknown_station() {
    let mut snap = pinned_state().snapshot();
    assert_ne!(snap.connections[0].source.ring, 1);
    snap.connections[0].dest = HostId {
        ring: 1,
        station: 99,
    };
    assert!(refused(NetworkState::from_snapshot(
        HetNetwork::paper_topology(),
        &snap
    )));
}

/// A connection crossing one of the snapshot's own down components is
/// refused: `set_component_down` tears such connections down, so no
/// state could have saved one.
#[test]
fn restore_refuses_a_connection_crossing_a_down_component() {
    let mut state = NetworkState::new(HetNetwork::paper_topology());
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    assert!(state
        .admit(spec((2, 0), (0, 1), 100.0, 2.0), &opts)
        .unwrap()
        .is_admitted());
    let mut snap = state.snapshot();
    snap.down.push(Component::Ring(RingId(0)));
    let before = state.snapshot().to_json();
    assert!(matches!(
        state.restore(&snap),
        Err(CacError::SnapshotMismatch(_))
    ));
    assert_eq!(state.snapshot().to_json(), before);
    // The same down set over a connection it does not cross restores.
    snap.down = vec![Component::Ring(RingId(1))];
    state.restore(&snap).expect("ring 1 carries no connection");
}

/// A refused restore changes nothing, not even the ring parameters the
/// snapshot would have adopted.
#[test]
fn failed_restore_leaves_the_state_unchanged() {
    let mut state = pinned_state();
    let before = state.snapshot().to_json();
    let mut snap = state.snapshot();
    snap.rings[2].ttrt = Seconds::from_millis(6.0);
    snap.connections[0].h_s = SyncBandwidth::new(Seconds::new(1.0));
    assert!(matches!(
        state.restore(&snap),
        Err(CacError::SnapshotMismatch(_))
    ));
    assert_eq!(state.snapshot().to_json(), before);
}

/// A restore target unlike the pinned state: ring 2 retuned, one
/// connection admitted, so a restore that adopted anything before
/// failing would show in its snapshot.
fn restore_target() -> NetworkState {
    let mut rings = HetNetwork::paper_topology().rings().to_vec();
    rings[2].ttrt = Seconds::from_millis(6.0);
    let net = HetNetwork::paper_topology()
        .with_ring_configs(rings)
        .expect("valid retune");
    let mut state = NetworkState::new(net);
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    assert!(state
        .admit(spec((2, 2), (1, 3), 110.0, 1.0), &opts)
        .unwrap()
        .is_admitted());
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(70))]

    /// Corrupted snapshots: `restore` never panics, refuses exactly
    /// what `admit` could not have committed, leaves its target
    /// unchanged when it refuses, and round-trips losslessly when it
    /// accepts; the sharded state agrees on every case.
    #[test]
    fn corrupted_snapshots_are_refused_atomically(
        op in 0_usize..MUTATIONS,
        pick in 0_usize..64,
        k in 0_u64..1000,
    ) {
        let (snap, verdict) = mutate(&fuzz_snapshot(), op, pick, k);
        let mut target = restore_target();
        let before = target.snapshot().to_json();
        let restored = target.restore(&snap);
        if let Some(accept) = verdict {
            prop_assert_eq!(restored.is_ok(), accept, "mutation {}: {:?}", op, restored);
        }
        match &restored {
            Ok(()) => prop_assert_eq!(target.snapshot().to_json(), snap.to_json()),
            Err(e) => {
                prop_assert!(matches!(e, CacError::SnapshotMismatch(_)), "mutation {}: {}", op, e);
                prop_assert_eq!(target.snapshot().to_json(), before);
            }
        }
        let sharded = ShardedState::from_snapshot(Arc::new(HetNetwork::paper_topology()), &snap);
        prop_assert_eq!(sharded.is_ok(), restored.is_ok(), "mutation {}", op);
        if let Ok(sharded) = sharded {
            prop_assert_eq!(
                sharded.snapshot(snap.clock, snap.decision_seq).to_json(),
                snap.to_json()
            );
        }
    }
}

/// The fuzz state's snapshot, built once.
fn fuzz_snapshot() -> StateSnapshot {
    static SNAP: std::sync::OnceLock<StateSnapshot> = std::sync::OnceLock::new();
    SNAP.get_or_init(|| fuzz_state().snapshot()).clone()
}
