//! Certification of live reconfiguration: a state retuned by
//! [`NetworkState::reconfigure`] must be *indistinguishable* from a
//! fresh engine built at the new parameters and fed the surviving
//! connections in admission order. The property test holds that over
//! randomized sources, deadlines and plans; the pinned golden snapshot
//! locks one deterministic reconfigured state bit for bit; the
//! directed tests cover the ugly corners — a TTRT shrink forcing
//! victims while a component is down, and a grow that turns a
//! just-rejected request admissible. A fuzz over malformed and extreme
//! plans holds that a plan is applied whole or refused with the state
//! untouched, and never panics.
//!
//! Regenerate the golden file with `RECONFIG_WRITE=1 cargo test -p
//! hetnet-cac --test reconfig` after an intentional change to the
//! snapshot format or the admission arithmetic, and say why in the
//! commit.

use hetnet_cac::cac::{AdmissionOptions, CacConfig, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::network::{Component, HetNetwork, HostId, RingId};
use hetnet_cac::reconfig::ReconfigPlan;
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_fddi::ring::RingConfig;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

fn spec(
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

/// The paper topology with every ring retuned to `ttrt_ms`.
fn retuned_net(ttrt_ms: f64) -> HetNetwork {
    let ring = RingConfig {
        ttrt: Seconds::from_millis(ttrt_ms),
        ..RingConfig::standard()
    };
    HetNetwork::paper_topology()
        .with_ring_configs(vec![ring; 3])
        .expect("valid retuned ring")
}

/// Every observable allocation field of the two states must agree bit
/// for bit (ids, allocations, delay bounds — the full snapshot JSON is
/// the strictest practical equality). The decision sequence is
/// normalized away: the reconfiguration itself consumes one sequence
/// number the fresh engine never saw, by design.
fn assert_states_bit_identical(a: &NetworkState, b: &NetworkState) {
    let strip = |s: &NetworkState| {
        let json = s.snapshot().to_json();
        let start = json.find("\"decision_seq\":").expect("snapshot has a seq");
        let end = start + json[start..].find(',').expect("seq is not last");
        format!("{}{}", &json[..start], &json[end..])
    };
    assert_eq!(strip(a), strip(b));
}

#[test]
fn pinned_reconfigured_snapshot_matches_golden() {
    let mut s = NetworkState::new(HetNetwork::paper_topology());
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    s.set_clock(Seconds::new(2.0));
    assert!(s
        .admit(spec((0, 0), (1, 0), 100.0, 2.0), &opts)
        .unwrap()
        .is_admitted());
    s.set_clock(Seconds::new(4.0));
    assert!(s
        .admit(spec((1, 1), (2, 0), 90.0, 1.5), &opts)
        .unwrap()
        .is_admitted());
    s.set_clock(Seconds::new(6.0));
    assert!(s
        .admit(spec((2, 1), (0, 2), 120.0, 1.0), &opts)
        .unwrap()
        .is_admitted());
    s.set_clock(Seconds::new(8.0));
    let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0)).with_beta(0.3);
    let report = s.reconfigure(&plan, &opts).expect("valid plan");
    assert_eq!(report.survivors(), 3);

    let rendered = s.snapshot().to_json();
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reconfig_snapshot.json");
    if std::env::var_os("RECONFIG_WRITE").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden file");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with RECONFIG_WRITE=1",
            golden_path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "reconfigured snapshot drifted from the pinned golden; if the change is \
         intentional, regenerate with RECONFIG_WRITE=1 and say why in the commit"
    );
}

#[test]
fn shrink_forces_victims_while_a_component_is_down() {
    let mut s = NetworkState::new(HetNetwork::paper_topology());
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    // Fill all three rings; the ring-1 paths die with the component,
    // the rest stay up as reconfiguration candidates.
    let specs = [
        spec((0, 0), (2, 0), 100.0, 1.4),
        spec((2, 1), (0, 1), 110.0, 1.2),
        spec((0, 2), (1, 0), 100.0, 1.0),
        spec((2, 2), (0, 3), 120.0, 0.8),
    ];
    for sp in &specs {
        assert!(s.admit(sp.clone(), &opts).unwrap().is_admitted());
    }
    let torn = s
        .set_component_down(Component::Ring(RingId(1)))
        .expect("known component")
        .torn
        .len();
    assert_eq!(torn, 1, "exactly the ring-1 path dies with the component");
    let live_before = s.active().len();

    // Shrink to a sliver of synchronous budget while ring 1 is still
    // down: survivors must renegotiate into the tightened budget, and
    // whatever no longer fits is dropped — not silently squeezed.
    let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(6.0))
        .with_overhead(Seconds::from_millis(5.5));
    let report = s.reconfigure(&plan, &opts).expect("valid plan");
    assert!(
        !report.dropped.is_empty(),
        "a 0.5 ms allocatable budget must shed load: {}",
        report.summary()
    );
    assert!(report.reclaimed_s.value() > 0.0);
    assert_eq!(report.survivors() + report.dropped.len(), live_before);
    assert_eq!(s.active().len(), report.survivors());

    // The downed component stays down through the reconfiguration: a
    // request over ring 1 is still refused, and restoring it afterwards
    // works against the retuned rings.
    assert!(!s
        .admit(spec((0, 1), (1, 2), 100.0, 0.1), &opts)
        .unwrap()
        .is_admitted());
    s.set_component_up(Component::Ring(RingId(1)))
        .expect("known component");
    assert_eq!(s.network().rings()[0].ttrt, Seconds::from_millis(6.0));
}

#[test]
fn grow_turns_a_rejected_request_admissible() {
    let mut s = NetworkState::new(HetNetwork::paper_topology());
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    // Two heavy flows squeeze ring 0's per-rotation budget until a
    // third, lighter request no longer clears the MAC stability check
    // at the standard 0.8 ms per-rotation overhead.
    for station in 0..2 {
        assert!(s
            .admit(spec((0, station), (1, station), 150.0, 2.2), &opts)
            .unwrap()
            .is_admitted());
    }
    let candidate = spec((0, 2), (1, 2), 150.0, 1.2);
    assert!(
        !s.admit(candidate.clone(), &opts).unwrap().is_admitted(),
        "the third request must not fit under the standard overhead"
    );

    // Grow the usable budget by shrinking the token-passing overhead
    // (faster hardware, same TTRT): every rotation gains dead time
    // back, so survivors renegotiate and the identical request fits.
    let plan = ReconfigPlan::default().with_overhead(Seconds::from_micros(100.0));
    let report = s.reconfigure(&plan, &opts).expect("valid plan");
    assert_eq!(report.survivors(), 2, "growth never drops anyone");
    assert!(report.dropped.is_empty());
    assert!(
        s.admit(candidate, &opts).unwrap().is_admitted(),
        "reclaiming 0.7 ms of per-rotation overhead must admit the previously \
         rejected request"
    );
}

proptest! {
    // Each case runs several full admissions plus a reconfiguration on
    // two engines; a handful of cases is plenty to catch an arithmetic
    // or ordering divergence.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The certification property: reconfigure-then-admit equals
    /// fresh-engine-at-new-parameters admit, bit for bit — including
    /// the decision taken on the next candidate request.
    #[test]
    fn reconfigure_then_admit_matches_fresh_engine(
        c1_mbit in 0.8_f64..2.0,
        deadline_ms in 60.0_f64..150.0,
        ttrt_ms in 5.0_f64..16.0,
        beta in 0.0_f64..1.0,
        candidate_c1 in 0.5_f64..2.5,
    ) {
        let opts = AdmissionOptions::beta_search(CacConfig::fast());
        let specs = [
            spec((0, 0), (1, 0), deadline_ms, c1_mbit),
            spec((1, 1), (2, 0), deadline_ms + 10.0, c1_mbit * 0.8),
            spec((2, 2), (0, 1), deadline_ms + 20.0, c1_mbit * 0.6),
        ];
        let mut live = NetworkState::new(HetNetwork::paper_topology());
        for sp in &specs {
            prop_assert!(live.admit(sp.clone(), &opts).unwrap().is_admitted());
        }
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(ttrt_ms)).with_beta(beta);
        let report = live.reconfigure(&plan, &opts).expect("valid plan");
        if !report.dropped.is_empty() {
            // A shrink that sheds load breaks the prefix correspondence
            // below; the victim path is certified by the directed tests.
            return;
        }

        // The fresh engine at the new parameters admits the survivors
        // in admission order under the post-reconfig options, and must
        // land on the same bits everywhere.
        let new_opts = AdmissionOptions::beta_search(CacConfig::fast().with_beta(beta));
        let mut fresh = NetworkState::new(retuned_net(ttrt_ms));
        for sp in &specs {
            prop_assert!(fresh.admit(sp.clone(), &new_opts).unwrap().is_admitted());
        }
        assert_states_bit_identical(&live, &fresh);

        // And the *next* decision must be the same decision, admitted
        // or rejected, byte for byte.
        let candidate = spec((0, 2), (2, 3), deadline_ms, candidate_c1);
        let da = live.admit(candidate.clone(), &new_opts).unwrap();
        let db = fresh.admit(candidate, &new_opts).unwrap();
        prop_assert_eq!(format!("{da:?}"), format!("{db:?}"));
        assert_states_bit_identical(&live, &fresh);
    }
}

/// Three admitted connections on the paper topology, one per ring.
fn fuzz_base() -> StateSnapshot {
    static SNAP: std::sync::OnceLock<StateSnapshot> = std::sync::OnceLock::new();
    SNAP.get_or_init(|| {
        let opts = AdmissionOptions::beta_search(CacConfig::fast());
        let mut s = NetworkState::new(HetNetwork::paper_topology());
        for sp in [
            spec((0, 0), (1, 0), 100.0, 1.0),
            spec((1, 1), (2, 0), 110.0, 0.8),
            spec((2, 2), (0, 1), 120.0, 0.6),
        ] {
            assert!(s.admit(sp, &opts).unwrap().is_admitted());
        }
        s.snapshot()
    })
    .clone()
}

/// A duration drawn log-uniformly from `[1e-9, 1e300]` when `wide`, and
/// otherwise from the band around the standard 8 ms TTRT where the
/// survivors are really renegotiated.
fn duration(wide: bool, at: f64) -> Seconds {
    let exponent = if wide {
        -9.0 + 309.0 * at
    } else {
        -3.0 + 1.5 * at
    };
    Seconds::new(10.0_f64.powf(exponent).clamp(1.0e-9, 1.0e300))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random plans, valid or not: TTRT and overhead Δ anywhere in
    /// `[1e-9, 1e300]` (Δ ≥ TTRT included), per-ring overrides naming
    /// rings past the network's three, and β inside and outside `[0, 1]`
    /// or NaN. Applied to a state holding admitted connections, a plan
    /// either succeeds, accounting for every connection, or is refused
    /// with the state's snapshot unchanged; it never panics.
    #[test]
    fn reconfig_plans_apply_whole_or_leave_the_state_unchanged(
        (ttrt, overhead, beta) in (
            (0_usize..3, proptest::bool::ANY, 0.0_f64..1.0),
            (0_usize..3, proptest::bool::ANY, 0.0_f64..1.0),
            (0_usize..6, -0.5_f64..1.5),
        ),
        overrides in proptest::collection::vec(
            (0_usize..4, proptest::bool::ANY, 0.0_f64..1.0),
            0..3,
        ),
    ) {
        // Each optional field is absent in one draw of three.
        let pick = |(present, wide, at): (usize, bool, f64)| (present > 0).then(|| duration(wide, at));
        let plan = ReconfigPlan {
            ttrt: pick(ttrt),
            ring_ttrt: overrides
                .iter()
                .map(|&(ring, wide, at)| (ring, duration(wide, at)))
                .collect(),
            overhead: pick(overhead),
            beta: match beta.0 {
                0 => None,
                1 => Some(f64::NAN),
                2 => Some(beta.1),
                _ => Some((beta.1 + 0.5) / 2.0),
            },
        };
        let base = fuzz_base();
        let mut state = NetworkState::from_snapshot(HetNetwork::paper_topology(), &base).unwrap();
        let before = state.snapshot().to_json();
        let opts = AdmissionOptions::beta_search(CacConfig::fast());
        match state.reconfigure(&plan, &opts) {
            Ok(report) => {
                prop_assert_eq!(
                    report.survivors() + report.dropped.len(),
                    base.connections.len(),
                    "{:?} lost a connection",
                    plan
                );
                prop_assert_eq!(state.active().len(), report.survivors());
            }
            Err(e) => prop_assert_eq!(
                state.snapshot().to_json(),
                before,
                "{:?} was refused ({}) but changed the state",
                plan,
                e
            ),
        }
    }
}
