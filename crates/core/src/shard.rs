//! The sharded engine's admission state: the flat
//! [`crate::cac::NetworkState`] behind an optimistic-concurrency
//! ledger.
//!
//! [`NetworkState`] decides each admission over the candidate's
//! dependency closure — the small slice of the network it shares
//! multiplexers with — but one decision at a time. [`ShardedState`]
//! lets decisions over disjoint closures run concurrently. It keeps the
//! admission state in one bookkeeping `NetworkState` (active set,
//! allocation tables, down-set, id counter and `Membership` index, with
//! no evaluator cache and no tracing), so both engines hold the same
//! state, and adds only a **ledger**: a version counter, a conflict
//! barrier, and a bounded log of the multiplexer footprints committed
//! at each version.
//!
//! A decision runs in three steps:
//!
//! 1. **Speculate** ([`ShardedState::speculate`]): read the candidate's
//!    *dependency closure* — the least set of active connections
//!    containing every flow on the candidate's endpoint rings and
//!    closed under "shares a multiplexer with" — from the flat state,
//!    together with the ledger version it was read at.
//! 2. **Decide** ([`Speculation::load_into`]): load just that closure
//!    into a long-lived [`NetworkState`] — through the same validated
//!    loader a restore runs — and run the ordinary β-CAC admission on
//!    it. Decisions over the closure are
//!    *bit-identical* to decisions over the full state (the §12
//!    argument in `DESIGN.md`): the closure carries every flow that
//!    contributes to any quantity the admission reads, in the same
//!    relative (id) order, so allocation-table sums, multiplexer
//!    aggregates, and existing-flow delay bounds come out to the same
//!    bits, and flows outside the closure are unaffected by the
//!    candidate and already feasible.
//! 3. **Commit** ([`ShardedState::commit_admit`]): re-validate the
//!    speculation against the ledger ([`ShardedState::conflicts`] — any
//!    committed footprint since the speculation's version intersecting
//!    its closure invalidates it) and record the decided pair through
//!    the flat state's own commit. Conflicted speculations are
//!    recomputed sequentially by the committer, so the committed
//!    decision stream is always the sequential one.
//!
//! Departures, faults, reconfigurations and restores run the flat
//! state's own methods. A departure logs its footprint; a down-set
//! change, a reconfiguration or a restore raises a *barrier* (every
//! in-flight speculation conflicts), because each gates decisions
//! globally. Snapshots are the flat state's.

use crate::cac::{AdmissionOptions, NetworkState, TeardownReport};
use crate::connection::{ActiveConnection, ConnectionId, ConnectionSpec};
use crate::delay::MuxKey;
use crate::error::CacError;
use crate::network::{Component, HetNetwork, HostId};
use crate::reconfig::{ReconfigPlan, ReconfigReport};
use crate::snapshot::StateSnapshot;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_traffic::units::Seconds;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Footprint-log entries kept before old versions become unverifiable
/// (speculations older than the log window conservatively conflict).
const LOG_WINDOW: usize = 1024;

/// One committed mutation's footprint, for conflict checks.
#[derive(Debug)]
struct LogEntry {
    version: u64,
    muxes: Vec<MuxKey>,
}

/// The admission state of [`NetworkState`] behind a commit ledger.
/// Holds no decision logic of its own: decisions run on worker
/// [`NetworkState`]s that [`Speculation`]s are loaded into, and the
/// ledger tells the committer whether what such a state computed is
/// still what the flat state would compute.
#[derive(Debug)]
pub struct ShardedState {
    /// The one admission state, kept for bookkeeping only.
    flat: NetworkState,
    /// Bumped by every committed mutation.
    version: u64,
    /// Speculations read at a version below this always conflict (set
    /// by down-set changes, reconfigurations and restores).
    barrier: u64,
    /// Recent commit footprints, ascending version.
    log: VecDeque<LogEntry>,
    /// Oldest version still verifiable through the log.
    log_floor: u64,
}

/// A candidate's dependency closure, read at a ledger version: the
/// inputs of one optimistic admission decision.
#[derive(Clone, Debug)]
pub struct Speculation {
    net: Arc<HetNetwork>,
    /// Ledger version the closure was read at.
    pub version: u64,
    /// The id an admission committed from this speculation would get if
    /// no commit intervenes (the committer reassigns on conflict-free
    /// commit anyway; decisions never depend on the candidate's own
    /// id).
    pub next_id: u64,
    connections: Vec<ActiveConnection>,
    down: BTreeSet<Component>,
    muxes: BTreeSet<MuxKey>,
}

/// An opaque multiplexer footprint, for conflict checks across crate
/// boundaries (multiplexer keys are internal to the delay analysis).
#[derive(Clone, Debug)]
pub struct Footprint(BTreeSet<MuxKey>);

impl Speculation {
    /// Loads this speculation into `state`, which then decides on
    /// exactly the closure's connections over the topology they were
    /// read under, with the down set and id counter carried from the
    /// read. `state`'s flags and, over an unchanged topology, its
    /// evaluator cache carry over from its previous decisions.
    ///
    /// # Errors
    ///
    /// Propagates [`CacError::SnapshotMismatch`] from the validated
    /// loader (impossible unless the admission state is corrupt); on
    /// error `state` is unchanged.
    pub fn load_into(self, state: &mut NetworkState) -> Result<(), CacError> {
        state.load(self.net, self.connections, self.down, self.next_id)
    }

    /// Number of connections in the closure (what the decision's cost
    /// scales with, instead of the global active count).
    #[must_use]
    pub fn closure_len(&self) -> usize {
        self.connections.len()
    }

    /// The multiplexer footprint commits are validated against.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        Footprint(self.muxes.clone())
    }
}

impl ShardedState {
    /// An empty state over a shared topology.
    #[must_use]
    pub fn new(net: Arc<HetNetwork>) -> Self {
        Self {
            flat: NetworkState::new_shared(net),
            version: 0,
            barrier: 0,
            log: VecDeque::new(),
            log_floor: 0,
        }
    }

    /// The shared topology handle (retuned by a reconfiguration).
    #[must_use]
    pub fn net(&self) -> &Arc<HetNetwork> {
        self.flat.shared_network()
    }

    /// The admission state the ledger guards: active set, allocation
    /// tables, down-set and id counter.
    #[must_use]
    pub fn flat(&self) -> &NetworkState {
        &self.flat
    }

    /// Current ledger version (bumped by every committed mutation).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    fn bump(&mut self, muxes: Vec<MuxKey>) {
        self.version += 1;
        self.log.push_back(LogEntry {
            version: self.version,
            muxes,
        });
        while self.log.len() > LOG_WINDOW {
            let dropped = self.log.pop_front().expect("log non-empty");
            self.log_floor = dropped.version;
        }
    }

    fn raise_barrier(&mut self) {
        self.version += 1;
        self.barrier = self.version;
    }

    /// Reads the dependency closure of a `source → dest` candidate from
    /// the flat state, in id order, with the ledger version it was read
    /// at.
    ///
    /// # Errors
    ///
    /// Propagates routing errors for hosts whose rings are out of range
    /// or unrouted (the admission would reject such a spec anyway).
    pub fn speculate(&self, source: HostId, dest: HostId) -> Result<Speculation, CacError> {
        let (closure, muxes) = self.flat.closure(source, dest)?;
        Ok(Speculation {
            net: Arc::clone(self.net()),
            version: self.version,
            next_id: self.flat.next_id(),
            connections: closure.into_iter().cloned().collect(),
            down: self.flat.down_set().clone(),
            muxes,
        })
    }

    /// Whether a speculation read at `version` with this footprint has
    /// been invalidated: a barrier was raised since, the version has
    /// aged out of the footprint log, or some committed mutation since
    /// touched a multiplexer in the footprint.
    #[must_use]
    pub fn conflicts(&self, version: u64, footprint: &Footprint) -> bool {
        if version < self.barrier || version < self.log_floor {
            return true;
        }
        self.log
            .iter()
            .rev()
            .take_while(|e| e.version > version)
            .any(|e| e.muxes.iter().any(|m| footprint.0.contains(m)))
    }

    /// Commits an admitted decision through the flat state, which
    /// assigns the id the sequential engine would assign and allocates
    /// both rings' tables, and logs the new flow's footprint for
    /// conflict checks.
    ///
    /// # Errors
    ///
    /// Propagates bookkeeping errors from the flat state's commit
    /// (impossible for a pair that was just decided over the same
    /// state).
    pub fn commit_admit(
        &mut self,
        spec: &ConnectionSpec,
        h_s: SyncBandwidth,
        h_r: SyncBandwidth,
        delay_bound: Seconds,
    ) -> Result<ConnectionId, CacError> {
        let id = self.flat.commit(spec.clone(), (h_s, h_r), delay_bound)?;
        let hops = self.flat.hops(id).expect("committed flow indexed").to_vec();
        self.bump(hops);
        Ok(id)
    }

    /// Tears down an active connection ([`NetworkState::release`]) and
    /// logs its footprint.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), CacError> {
        let hops = self
            .flat
            .hops(id)
            .ok_or(CacError::UnknownConnection(id))?
            .to_vec();
        self.flat.release(id)?;
        self.bump(hops);
        Ok(())
    }

    /// Marks a component as failed ([`NetworkState::set_component_down`])
    /// and, when it was up, raises the barrier: down-set changes gate
    /// every decision, so all in-flight speculations are invalidated.
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::set_component_down`].
    pub fn set_component_down(&mut self, component: Component) -> Result<TeardownReport, CacError> {
        let report = self.flat.set_component_down(component)?;
        if !report.already_down {
            self.raise_barrier();
        }
        Ok(report)
    }

    /// Restores a failed component ([`NetworkState::set_component_up`])
    /// and, when it was down, raises the barrier (the repair may flip
    /// in-flight `ComponentUnavailable` outcomes). Returns whether it
    /// was down.
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::set_component_up`].
    pub fn set_component_up(&mut self, component: Component) -> Result<bool, CacError> {
        let was_down = self.flat.set_component_up(component)?;
        if was_down {
            self.raise_barrier();
        }
        Ok(was_down)
    }

    /// The flat state's snapshot, with the engine's `clock` and
    /// `decision_seq` written in (the engine owns both).
    #[must_use]
    pub fn snapshot(&self, clock: Seconds, decision_seq: u64) -> StateSnapshot {
        let mut snap = self.flat.snapshot();
        snap.clock = clock;
        snap.decision_seq = decision_seq;
        snap
    }

    /// Rebuilds the state from a snapshot ([`NetworkState::restore`])
    /// and raises the barrier, so no speculation from before the
    /// restore can commit.
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::restore`].
    pub fn from_snapshot(net: Arc<HetNetwork>, snap: &StateSnapshot) -> Result<Self, CacError> {
        let mut state = Self::new(net);
        state.flat.restore(snap)?;
        state.raise_barrier();
        Ok(state)
    }

    /// Applies a live reconfiguration in place
    /// ([`NetworkState::reconfigure`]) and raises the barrier past every
    /// version read before it, so no speculation made under the old
    /// ring parameters or β can commit.
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::reconfigure`].
    pub fn reconfigure(
        &mut self,
        plan: &ReconfigPlan,
        opts: &AdmissionOptions,
    ) -> Result<ReconfigReport, CacError> {
        let report = self.flat.reconfigure(plan, opts)?;
        self.raise_barrier();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cac::{AdmissionOptions, CacConfig, Decision};
    use crate::network::RingId;
    use hetnet_traffic::models::ConstantRateEnvelope;
    use hetnet_traffic::units::BitsPerSec;

    fn spec(source: (usize, usize), dest: (usize, usize), mbps: f64) -> ConnectionSpec {
        ConnectionSpec::builder()
            .source(source)
            .dest(dest)
            .envelope(Arc::new(ConstantRateEnvelope::new(BitsPerSec::from_mbps(
                mbps,
            ))))
            .deadline(Seconds::from_millis(80.0))
            .build()
            .unwrap()
    }

    /// Admits `specs` in order through both the flat state and the
    /// speculate/decide/commit path, asserting every decision matches
    /// bitwise, and returns both ending states.
    fn run_both(
        net: HetNetwork,
        specs: &[ConnectionSpec],
    ) -> (NetworkState, ShardedState, Vec<Decision>) {
        let mut flat = NetworkState::new(net);
        let shared = Arc::clone(flat.shared_network());
        let mut sharded = ShardedState::new(Arc::clone(&shared));
        let mut worker = NetworkState::new_shared(shared);
        worker.persist_eval_cache(true);
        let opts = AdmissionOptions::beta_search(CacConfig::default());
        let mut decisions = Vec::new();
        for s in specs {
            let flat_decision = flat.admit(s.clone(), &opts).unwrap();
            let spec_view = sharded.speculate(s.source, s.dest).unwrap();
            spec_view.load_into(&mut worker).unwrap();
            let scoped_decision = worker.admit(s.clone(), &opts).unwrap();
            match (&flat_decision, &scoped_decision) {
                (
                    Decision::Admitted {
                        id: fid,
                        h_s: fs,
                        h_r: fr,
                        delay_bound: fb,
                    },
                    Decision::Admitted {
                        id: sid,
                        h_s: ss,
                        h_r: sr,
                        delay_bound: sb,
                    },
                ) => {
                    assert_eq!(fid, sid);
                    assert_eq!(
                        fs.per_rotation().value().to_bits(),
                        ss.per_rotation().value().to_bits()
                    );
                    assert_eq!(
                        fr.per_rotation().value().to_bits(),
                        sr.per_rotation().value().to_bits()
                    );
                    assert_eq!(fb.value().to_bits(), sb.value().to_bits());
                    sharded.commit_admit(s, *ss, *sr, *sb).unwrap();
                }
                (Decision::Rejected(f), Decision::Rejected(g)) => {
                    assert_eq!(f.to_string(), g.to_string());
                }
                other => panic!("decisions diverge: {other:?}"),
            }
            decisions.push(flat_decision);
        }
        (flat, sharded, decisions)
    }

    #[test]
    fn scoped_decisions_match_flat_state_bitwise() {
        let net = HetNetwork::paper_topology();
        let rings = net.rings().len();
        let mut specs = Vec::new();
        for i in 0..24 {
            let s = i % rings;
            let d = (i + 1 + i / rings) % rings;
            if s == d {
                continue;
            }
            specs.push(spec(
                (s, i % 4),
                (d, (i + 2) % 4),
                6.0 + (i % 5) as f64 * 3.0,
            ));
        }
        let (flat, sharded, decisions) = run_both(net, &specs);
        assert!(decisions.iter().any(Decision::is_admitted));
        let seq = flat.decisions();
        assert_eq!(
            flat.snapshot().to_json(),
            sharded.snapshot(flat.clock(), seq).to_json(),
            "committed sharded state must merge to the flat snapshot"
        );
    }

    #[test]
    fn closure_excludes_unrelated_ring_pairs() {
        // grid(4, ..) routes 0↔1 and 2↔3 over disjoint links, so the
        // two pairs share no multiplexer and each closure sees only its
        // own pair's flows.
        let net = HetNetwork::grid(4, 4);
        let mut sharded = ShardedState::new(Arc::new(net));
        for (s, d) in [(0usize, 1usize), (2, 3), (0, 1), (3, 2)] {
            let sp = spec((s, 0), (d, 1), 5.0);
            sharded
                .commit_admit(&sp, sync(0.5), sync(0.5), Seconds::from_millis(10.0))
                .unwrap();
        }
        let view = sharded
            .speculate(
                HostId {
                    ring: 0,
                    station: 2,
                },
                HostId {
                    ring: 1,
                    station: 3,
                },
            )
            .unwrap();
        assert_eq!(view.closure_len(), 2, "only the 0↔1 flows are dependencies");
        let all = sharded
            .speculate(
                HostId {
                    ring: 2,
                    station: 2,
                },
                HostId {
                    ring: 3,
                    station: 3,
                },
            )
            .unwrap();
        assert_eq!(all.closure_len(), 2, "only the 2↔3 flows are dependencies");
    }

    /// A reconfiguration through the sharded state lands on the
    /// flat state's bits and report, and acts as a barrier: the ledger
    /// version stays monotone and a speculation read before it
    /// conflicts.
    #[test]
    fn reconfigure_mirrors_the_flat_state_behind_a_barrier() {
        let specs: Vec<ConnectionSpec> = (0..12)
            .map(|i| spec((i % 3, i % 4), ((i + 1) % 3, (i + 2) % 4), 8.0))
            .collect();
        let (mut flat, mut sharded, _) = run_both(HetNetwork::paper_topology(), &specs);
        let host = |ring| HostId { ring, station: 0 };
        let before = sharded.speculate(host(0), host(1)).unwrap();
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(5.0)).with_beta(0.3);
        let opts = AdmissionOptions::beta_search(CacConfig::default());
        let want = flat.reconfigure(&plan, &opts).unwrap();
        let got = sharded.reconfigure(&plan, &opts).unwrap();
        assert_eq!(got.summary(), want.summary());
        assert!(!want.renegotiated.is_empty(), "the retune must renegotiate");
        assert_eq!(
            sharded.snapshot(flat.clock(), flat.decisions()).to_json(),
            flat.snapshot().to_json()
        );
        assert!(
            sharded.version() > before.version,
            "version must stay monotone"
        );
        assert!(
            sharded.conflicts(before.version, &before.footprint()),
            "a speculation read before the reconfiguration must conflict"
        );
    }

    fn sync(ms: f64) -> SyncBandwidth {
        SyncBandwidth::new(Seconds::from_millis(ms))
    }

    /// A snapshot whose allocations do not fit the rings is corrupt:
    /// the sharded state refuses to restore it, exactly as the flat
    /// state does, instead of adopting allocations no ring can carry.
    #[test]
    fn restore_rejects_allocations_that_do_not_fit() {
        let specs: Vec<ConnectionSpec> = (0..4)
            .map(|i| spec((i % 3, 0), ((i + 1) % 3, 1), 8.0))
            .collect();
        let (flat, _, _) = run_both(HetNetwork::paper_topology(), &specs);
        let mut snap = flat.snapshot();
        assert!(!snap.connections.is_empty(), "need an admitted connection");
        snap.connections[0].h_s = SyncBandwidth::new(Seconds::new(1.0));
        assert!(matches!(
            NetworkState::from_snapshot(HetNetwork::paper_topology(), &snap),
            Err(CacError::SnapshotMismatch(_))
        ));
        assert!(matches!(
            ShardedState::from_snapshot(Arc::clone(flat.shared_network()), &snap),
            Err(CacError::SnapshotMismatch(_))
        ));
    }

    #[test]
    fn conflicts_track_footprint_intersection_and_barriers() {
        let net = HetNetwork::grid(4, 4);
        let mut sharded = ShardedState::new(Arc::new(net));
        let view = sharded
            .speculate(
                HostId {
                    ring: 0,
                    station: 0,
                },
                HostId {
                    ring: 1,
                    station: 0,
                },
            )
            .unwrap();
        let fp = view.footprint();
        assert!(
            !sharded.conflicts(view.version, &fp),
            "nothing committed yet"
        );

        // A disjoint commit (2→3) does not invalidate a 0→1 speculation.
        sharded
            .commit_admit(
                &spec((2, 0), (3, 0), 5.0),
                sync(0.4),
                sync(0.4),
                Seconds::from_millis(9.0),
            )
            .unwrap();
        assert!(!sharded.conflicts(view.version, &fp));

        // An overlapping commit (0→1) does.
        sharded
            .commit_admit(
                &spec((0, 1), (1, 1), 5.0),
                sync(0.4),
                sync(0.4),
                Seconds::from_millis(9.0),
            )
            .unwrap();
        assert!(sharded.conflicts(view.version, &fp));

        // Down-set changes are a barrier: every older speculation dies.
        let fresh = sharded
            .speculate(
                HostId {
                    ring: 2,
                    station: 1,
                },
                HostId {
                    ring: 3,
                    station: 1,
                },
            )
            .unwrap();
        let fresh_fp = fresh.footprint();
        assert!(!sharded.conflicts(fresh.version, &fresh_fp));
        sharded
            .set_component_down(Component::Ring(RingId(0)))
            .unwrap();
        assert!(sharded.conflicts(fresh.version, &fresh_fp));
    }

    #[test]
    fn release_and_teardown_mirror_the_flat_state() {
        let net = HetNetwork::paper_topology();
        let specs: Vec<ConnectionSpec> = (0..8)
            .map(|i| spec((i % 3, i % 3), ((i + 1) % 3, (i + 2) % 3), 8.0))
            .collect();
        let (mut flat, mut sharded, decisions) = run_both(net, &specs);
        let admitted: Vec<ConnectionId> = decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Admitted { id, .. } => Some(*id),
                Decision::Rejected(_) => None,
            })
            .collect();
        assert!(admitted.len() >= 3, "need a few admissions: {decisions:?}");

        flat.release(admitted[0]).unwrap();
        sharded.release(admitted[0]).unwrap();
        assert!(
            sharded.release(admitted[0]).is_err(),
            "double release errors"
        );

        let fr = flat.set_component_down(Component::Ring(RingId(1))).unwrap();
        let sr = sharded
            .set_component_down(Component::Ring(RingId(1)))
            .unwrap();
        assert_eq!(fr.already_down, sr.already_down);
        assert_eq!(
            fr.torn.iter().map(|c| c.id).collect::<Vec<_>>(),
            sr.torn.iter().map(|c| c.id).collect::<Vec<_>>()
        );
        assert_eq!(
            fr.reclaimed_s.value().to_bits(),
            sr.reclaimed_s.value().to_bits()
        );
        assert_eq!(
            fr.reclaimed_r.value().to_bits(),
            sr.reclaimed_r.value().to_bits()
        );

        flat.set_component_up(Component::Ring(RingId(1))).unwrap();
        sharded
            .set_component_up(Component::Ring(RingId(1)))
            .unwrap();
        assert_eq!(
            flat.snapshot().to_json(),
            sharded.snapshot(flat.clock(), flat.decisions()).to_json()
        );
    }
}
