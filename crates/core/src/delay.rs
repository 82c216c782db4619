//! End-to-end worst-case delay of connections in the heterogeneous
//! network — the decomposition analysis of §4, eq. 7:
//!
//! `d^wc = d^wc_FDDI_S + d^wc_ID_S + d^wc_ATM + d^wc_ID_R + d^wc_FDDI_R`
//!
//! Connections couple at the shared FIFO multiplexers of the backbone:
//! a connection's envelope at a port depends on the delays at its
//! *earlier* ports, so ports are resolved in dependency order (the
//! access/backbone/access layering makes the dependency graph acyclic
//! for minimum-hop routes).
//!
//! The CAC's binary searches evaluate the same connection set dozens of
//! times while only the candidate's allocation changes, so the
//! [`Evaluator`] caches two stages of the work:
//!
//! * **Stage 1** (per connection): source-MAC analysis + segmentation +
//!   flattening — expensive, allocation-dependent, but independent of
//!   cross traffic. Keyed by (envelope identity, ring, `H_S`).
//! * **Stage 2** (per multiplexer): the aggregate FIFO analysis of one
//!   port, keyed by the port plus the exact *member set* — each
//!   member's wire-envelope identity and the chain of (delay, rate)
//!   transforms its envelope accumulated on earlier hops. During a line
//!   search only the muxes the candidate traverses (and their
//!   downstream dependents) change; every background-only mux is
//!   analyzed once per admission request and then served from cache.
//! * **Stage 3** (per receive side): reassembly plus the destination
//!   ring's MAC analysis, keyed by the arrived flow's interned
//!   signature, the frame size, the destination ring, and `H_R`. A
//!   connection whose arrived envelope is unchanged (every mux on its
//!   path hit) skips the second busy-period search entirely.
//!
//! Cache hits return the identical reports the miss path would compute,
//! so cached and uncached evaluations are bit-identical. [`CacheStats`]
//! exposes hit/miss counters for benchmarks and observability.
//!
//! Two further mechanisms keep the hot path cheap without changing any
//! result:
//!
//! * **Scratch buffers.** Per-evaluation working state (stage-1 results,
//!   hop tables, the multiplexer worklist) lives in reusable buffers
//!   inside the [`Evaluator`], so a warm evaluator resolves a candidate
//!   without heap allocation; flow identities are interned to small
//!   integer ids ([`EvalCache`]) so stage-2 cache probes hash a slice of
//!   `u32`s instead of cloning envelope-chain descriptions.
//! * **Detachable caches.** Both caches (and the interner) live in an
//!   [`EvalCache`] that can be taken out of one evaluator
//!   ([`Evaluator::into_cache`]) and handed to the next
//!   ([`Evaluator::with_cache`]), which lets an admission engine keep
//!   background analyses warm across requests
//!   (see `NetworkState::persist_eval_cache`).
//!
//! The evaluator also offers a candidate-only mode that skips the
//! receive-side analysis of existing connections; the paper's
//! monotonicity argument (existing delays are nondecreasing in the
//! newcomer's allocation, so checking them at the maximum suffices)
//! makes that sound.

use crate::connection::ConnectionSpec;
use crate::error::CacError;
use crate::network::{HetNetwork, HostId};
use hetnet_atm::affine::AffineBound;
use hetnet_atm::sched::{ClassedFlow, SchedReport, Scheduler, SchedulerAnalysis};
use hetnet_atm::{AtmError, LinkConfig};
use hetnet_fddi::mac::{analyze_fddi_mac, DelayOutcome};
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_fddi::{frames, FddiError};
use hetnet_ifdev::{reassemble_envelope, segment_envelope};
use hetnet_obs as obs;
use hetnet_traffic::analysis::AnalysisConfig;
use hetnet_traffic::combinators::Sampled;
use hetnet_traffic::envelope::{Envelope, SharedEnvelope};
use hetnet_traffic::units::{Bits, Seconds};
use std::collections::HashMap;
use std::sync::Arc;

/// Tuning for the end-to-end evaluation.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Server-analysis knobs.
    pub analysis: AnalysisConfig,
    /// Horizon over which deep envelope chains are flattened into lookup
    /// tables before entering multiplexer analyses. Must comfortably
    /// exceed the longest busy period in the network.
    pub flatten_horizon: Seconds,
    /// Guard subdivisions used when flattening.
    pub flatten_subdivisions: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            analysis: AnalysisConfig::default(),
            flatten_horizon: Seconds::new(1.0),
            flatten_subdivisions: 2,
        }
    }
}

impl EvalConfig {
    /// A cheaper configuration for large simulation campaigns: fewer
    /// guard points and a tighter flattening horizon. Bounds remain
    /// bounds; they are just a little less tight.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            analysis: AnalysisConfig {
                guard_subdivisions: 1,
                ..AnalysisConfig::default()
            },
            flatten_horizon: Seconds::new(0.6),
            flatten_subdivisions: 1,
        }
    }
}

/// One connection (existing or candidate) with its allocations.
#[derive(Clone, Debug)]
pub struct PathInput {
    /// Sending host.
    pub source: HostId,
    /// Receiving host.
    pub dest: HostId,
    /// Source traffic envelope at the MAC entrance.
    pub envelope: SharedEnvelope,
    /// Synchronous allocation on the source ring.
    pub h_s: SyncBandwidth,
    /// Synchronous allocation on the destination ring.
    pub h_r: SyncBandwidth,
    /// Traffic class at the backbone scheduler (ignored under FIFO).
    pub class: u8,
}

impl PathInput {
    /// The input for `spec` at the allocation pair `(h_s, h_r)`.
    #[must_use]
    pub fn new(spec: &ConnectionSpec, h_s: SyncBandwidth, h_r: SyncBandwidth) -> Self {
        Self {
            source: spec.source,
            dest: spec.dest,
            envelope: Arc::clone(&spec.envelope),
            h_s,
            h_r,
            class: spec.class,
        }
    }
}

/// Per-connection worst-case delay decomposition (eq. 7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathReport {
    /// `d^wc_FDDI_S`: source MAC delay χ_S plus ring propagation.
    pub fddi_s: Seconds,
    /// `d^wc_ID_S`: sender-side constant stages plus output-port
    /// queueing.
    pub id_s: Seconds,
    /// `d^wc_ATM`: backbone links (queueing, propagation, switching) up
    /// to and including the egress port toward the receiving device.
    pub atm: Seconds,
    /// `d^wc_ID_R`: receiver-side constant stages.
    pub id_r: Seconds,
    /// `d^wc_FDDI_R`: the device's MAC delay χ_R on the destination ring
    /// plus ring propagation.
    pub fddi_r: Seconds,
    /// The end-to-end bound (the sum of the five terms).
    pub total: Seconds,
    /// Transmit buffer required at the source MAC (Theorem 1.2).
    pub buffer_mac_s: Bits,
    /// Buffer required at the receiving device's MAC.
    pub buffer_mac_r: Bits,
}

/// The outcome of evaluating a set of connections at given allocations.
#[derive(Clone, Debug)]
pub enum EvalOutcome {
    /// Every server is stable; per-connection reports in input order.
    Feasible(Vec<PathReport>),
    /// Some server is unstable or unbounded at these allocations (the
    /// CAC treats this as "delay exceeds every deadline").
    Infeasible(String),
}

impl EvalOutcome {
    /// The reports, if feasible.
    #[must_use]
    pub fn feasible(self) -> Option<Vec<PathReport>> {
        match self {
            Self::Feasible(r) => Some(r),
            Self::Infeasible(_) => None,
        }
    }
}

/// Result of a candidate-only evaluation: the last path's full report
/// and the queueing-delay signature of every multiplexer (used by the
/// CAC's eq.-31/32 equality test).
#[derive(Clone, Debug)]
pub enum CandidateOutcome {
    /// All touched servers are stable.
    Feasible {
        /// Report for the candidate (the last input path).
        candidate: PathReport,
        /// Queueing delays of all multiplexers, ordered by an internal
        /// canonical key; signatures from evaluations over the *same
        /// path set* are comparable element-wise.
        mux_delays: Vec<Seconds>,
    },
    /// Some server is unstable at these allocations.
    Infeasible(String),
}

/// Result of a screened evaluation: existing paths are only checked
/// against their deadlines — exactly when cached, via the monotone
/// screening bound otherwise — while the candidate (the last path)
/// always gets a dense, exact report. The accept/reject outcome is
/// identical to a dense evaluation's in every case.
#[derive(Clone, Debug)]
pub enum ScreenedOutcome {
    /// All servers stable and every existing deadline holds.
    Feasible {
        /// Report for the candidate (the last input path).
        candidate: PathReport,
    },
    /// Some server is unstable or unbounded at these allocations.
    Infeasible(String),
    /// An existing connection's deadline is violated.
    DeadlineMiss {
        /// Index of the first path (in input order) whose deadline fails.
        index: usize,
        /// Its exact end-to-end bound.
        total: Seconds,
    },
}

/// Outcome of one existing-path deadline check.
#[derive(Clone, Copy, Debug)]
enum DeadlineCheck {
    Pass,
    Miss { total: Seconds },
}

/// Receive-independent delay terms of one path, read off the resolved
/// scratch (every term of the end-to-end total except `fddi_r`).
#[derive(Clone, Copy, Debug)]
struct FixedParts {
    fddi_s: Seconds,
    id_s: Seconds,
    atm: Seconds,
    id_r: Seconds,
    buffer_s: Bits,
    frame_size: Bits,
}

impl FixedParts {
    fn sum(&self) -> Seconds {
        self.fddi_s + self.id_s + self.atm + self.id_r
    }
}

/// Which multiplexer a hop refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum MuxKey {
    /// The sender-side device's output port onto its access link.
    Uplink(usize),
    /// A backbone link's output port.
    Backbone(usize),
    /// The egress switch's port onto the access link toward a device.
    Downlink(usize),
}

impl MuxKey {
    /// `(kind, index)` as stable trace labels.
    pub(crate) fn parts(self) -> (&'static str, usize) {
        match self {
            Self::Uplink(i) => ("uplink", i),
            Self::Backbone(i) => ("backbone", i),
            Self::Downlink(i) => ("downlink", i),
        }
    }
}

/// Cached sender-side analysis of one (envelope, ring, H_S) triple.
#[derive(Clone, Debug)]
enum Stage1 {
    Ready {
        chi_s: Seconds,
        buffer: Bits,
        frame_size: Bits,
        wire: Arc<Sampled>,
        /// Tightest affine `(σ, ρ)` dominating `wire`'s sample table —
        /// derived once per stage-1 computation for the admission fast
        /// path, valid on the flattening horizon.
        wire_affine: AffineBound,
    },
    Infeasible(String),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Stage1Key {
    env_ptr: usize,
    h_bits: u64,
    ring: usize,
}

/// A stage-1 cache slot. `pin` keeps the keyed envelope's allocation
/// alive for the evaluator's lifetime: the key uses the `Arc`'s address,
/// and without the pin a dropped-then-reallocated envelope at the same
/// address would silently alias a stale entry (the ABA hazard).
#[derive(Clone, Debug)]
struct Stage1Entry {
    _pin: SharedEnvelope,
    result: Stage1,
}

/// Interned identity of one flow *as it enters a multiplexer*: the
/// stage-1 wire envelope it started from (by pinned `Arc` address) plus
/// the exact chain of `(delay, rate)` transforms earlier hops applied to
/// it. Two flows share an id iff those coincide, i.e. iff their arrival
/// functions are identical, so a mux analysis keyed by member ids may be
/// reused across evaluations.
type SigId = u32;

/// One stage-2 cache-key element: a member flow's interned signature
/// plus the traffic class it presents to the port's scheduler (the
/// per-class disciplines produce different bounds for different class
/// assignments of the very same envelopes).
type MemberKey = (SigId, u8);

/// A cached stage-2 outcome.
#[derive(Clone, Debug)]
enum MuxCached {
    Ready(SchedReport),
    Infeasible(String),
}

/// Key of a cached receive-side (stage-3) analysis: reassembly and the
/// destination MAC depend only on the arrived flow (by interned
/// signature — signatures are never recycled while the cache lives), the
/// frame size it is reassembled into, the destination ring, and `H_R`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct ReceiveKey {
    arrived_sig: SigId,
    frame_bits: u64,
    h_bits: u64,
    ring: usize,
}

/// A cached stage-3 outcome.
#[derive(Clone, Debug)]
enum ReceiveCached {
    Ready { chi_r: Seconds, buffer: Bits },
    Infeasible(String),
}

/// Key of a receive-side *screening* bound: the flow's root (wire)
/// signature instead of its arrived signature. One entry serves every
/// arrival of the same wire flow whose per-hop queueing bounds are
/// dominated by the entry's, because the chained arrival envelope —
/// `min(C·I, A(I + d))` per hop — and the receive-MAC delay behind it
/// are pointwise nondecreasing in each hop's delay bound `d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct ScreenKey {
    root_sig: SigId,
    frame_bits: u64,
    h_bits: u64,
    ring: usize,
    /// Traffic class: per-class schedulers give different hop delays to
    /// different classes of the same wire flow, so entries must not be
    /// shared across classes (under FIFO every path carries class 0 or
    /// its own class consistently, so the key is simply finer).
    class: u8,
}

/// A receive analysis recorded together with the per-hop delay bounds
/// it was computed at, reusable as an upper bound whenever the current
/// path traverses the *same multiplexer sequence* (each hop's link rate
/// shapes the chained envelope, so the muxes must match exactly) with
/// every delay bound dominated hop for hop.
#[derive(Clone, Debug)]
struct ScreenEntry {
    /// `(multiplexer, its queueing-delay bound)` for each hop, in path
    /// order, at the time `chi_r` was computed.
    hops: Box<[(MuxKey, Seconds)]>,
    /// The exact receive-MAC delay at those bounds.
    chi_r: Seconds,
}

/// The [`EvalConfig`] a cache's entries were computed under, as exact
/// bit patterns: a cache attached to an evaluator with any other
/// configuration is cleared instead of consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CfgFingerprint {
    guard_subdivisions: usize,
    max_horizon: u64,
    stability_margin: u64,
    flatten_horizon: u64,
    flatten_subdivisions: usize,
    /// Digest of the network's backbone scheduler (discipline + weight
    /// map): a cache filled under one discipline must never serve an
    /// evaluator analyzing under another.
    scheduler: u64,
}

impl CfgFingerprint {
    fn of(cfg: &EvalConfig, scheduler: &Scheduler) -> Self {
        Self {
            guard_subdivisions: cfg.analysis.guard_subdivisions,
            max_horizon: cfg.analysis.max_horizon.value().to_bits(),
            stability_margin: cfg.analysis.stability_margin.to_bits(),
            flatten_horizon: cfg.flatten_horizon.value().to_bits(),
            flatten_subdivisions: cfg.flatten_subdivisions,
            scheduler: scheduler.fingerprint(),
        }
    }
}

/// Detachable cache state of an [`Evaluator`]: the stage-1 and stage-2
/// caches plus the flow-signature interner backing stage-2 keys.
///
/// A cache can outlive the evaluator that filled it
/// ([`Evaluator::into_cache`]) and seed a later one over the same
/// network ([`Evaluator::with_cache`]). Reuse is sound by the same
/// argument as within one evaluator: every entry pins the envelopes its
/// key refers to (no ABA hazard), keys capture everything the cached
/// result depends on, and a cache built under a different [`EvalConfig`]
/// is cleared on attach rather than consulted.
#[derive(Debug, Default)]
pub struct EvalCache {
    stage1: HashMap<Stage1Key, Stage1Entry>,
    /// Stage-2 analyses: per port, keyed by the member flows' interned
    /// `(signature, class)` pairs *in member order* (order matters — the
    /// aggregates sum envelopes in member order, and floating-point
    /// addition is not associative; class matters because the per-class
    /// schedulers partition the members by it).
    mux: HashMap<MuxKey, HashMap<Box<[MemberKey]>, MuxCached>>,
    /// Wire-envelope identity (pinned `Arc` address) → root signature.
    root_sigs: HashMap<usize, SigId>,
    /// `(parent signature, delay bits, link-rate bits)` → signature of
    /// the flow after that hop.
    chained_sigs: HashMap<(SigId, u64, u64), SigId>,
    /// Receive-side (stage-3) analyses.
    receive: HashMap<ReceiveKey, ReceiveCached>,
    /// Receive-side screening bounds (see [`ScreenKey`]): consulted by
    /// [`Evaluator::evaluate_screened`] to certify an existing path's
    /// deadline without re-running its receive analysis after every
    /// upstream multiplexer change.
    screen: HashMap<ScreenKey, ScreenEntry>,
    /// The envelope each signature denotes, indexed by [`SigId`]. Also
    /// the pin keeping every interned envelope (and hence every
    /// signature's `Arc` address) alive for the cache's lifetime.
    sig_envs: Vec<SharedEnvelope>,
    fingerprint: Option<CfgFingerprint>,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every entry and interned signature.
    pub fn clear(&mut self) {
        self.stage1.clear();
        self.mux.clear();
        self.root_sigs.clear();
        self.chained_sigs.clear();
        self.receive.clear();
        self.screen.clear();
        self.sig_envs.clear();
        self.fingerprint = None;
    }

    /// Number of cached sender-side (stage-1) analyses.
    #[must_use]
    pub fn stage1_entries(&self) -> usize {
        self.stage1.len()
    }

    /// Number of cached multiplexer (stage-2) analyses.
    #[must_use]
    pub fn mux_entries(&self) -> usize {
        self.mux.values().map(HashMap::len).sum()
    }

    /// Number of cached receive-side (stage-3) analyses.
    #[must_use]
    pub fn receive_entries(&self) -> usize {
        self.receive.len()
    }

    /// The signature of a wire envelope fresh out of stage 1.
    fn root_sig(&mut self, wire: &SharedEnvelope) -> SigId {
        let ptr = Arc::as_ptr(wire) as *const () as usize;
        if let Some(&id) = self.root_sigs.get(&ptr) {
            return id;
        }
        let id = SigId::try_from(self.sig_envs.len()).expect("interner overflow");
        self.root_sigs.insert(ptr, id);
        self.sig_envs.push(Arc::clone(wire));
        id
    }

    /// The signature of `parent`'s flow after traversing a port that
    /// bounds its class's queueing by `delay` on `link`; interns (and
    /// builds, exactly once) the scheduler's per-flow output envelope.
    fn chained_sig(
        &mut self,
        sched: &Scheduler,
        parent: SigId,
        delay: Seconds,
        link: &LinkConfig,
    ) -> SigId {
        let key = (parent, delay.value().to_bits(), link.rate.value().to_bits());
        if let Some(&id) = self.chained_sigs.get(&key) {
            return id;
        }
        let id = SigId::try_from(self.sig_envs.len()).expect("interner overflow");
        let env = sched.flow_output(Arc::clone(&self.sig_envs[parent as usize]), delay, link);
        self.chained_sigs.insert(key, id);
        self.sig_envs.push(env);
        id
    }

    /// The envelope a signature denotes.
    fn env(&self, sig: SigId) -> &SharedEnvelope {
        &self.sig_envs[sig as usize]
    }
}

/// Cache hit/miss counters of an [`Evaluator`] (monotone over its
/// lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Sender-side (stage-1) analyses served from cache.
    pub stage1_hits: u64,
    /// Sender-side (stage-1) analyses computed.
    pub stage1_misses: u64,
    /// Multiplexer (stage-2) analyses served from cache.
    pub mux_hits: u64,
    /// Multiplexer (stage-2) analyses computed.
    pub mux_misses: u64,
    /// Receive-side (stage-3) analyses served from cache.
    pub receive_hits: u64,
    /// Receive-side (stage-3) analyses computed.
    pub receive_misses: u64,
    /// Existing-path deadline checks certified by a screening bound
    /// (no receive analysis run at all).
    pub screen_hits: u64,
    /// Screened checks that fell through to a dense receive analysis.
    pub screen_misses: u64,
}

impl CacheStats {
    /// Fraction of stage-1 lookups that hit, or 0 with no lookups.
    #[must_use]
    pub fn stage1_hit_rate(&self) -> f64 {
        let total = self.stage1_hits + self.stage1_misses;
        if total == 0 {
            0.0
        } else {
            self.stage1_hits as f64 / total as f64
        }
    }

    /// Fraction of stage-2 (mux) lookups that hit, or 0 with no lookups.
    #[must_use]
    pub fn mux_hit_rate(&self) -> f64 {
        let total = self.mux_hits + self.mux_misses;
        if total == 0 {
            0.0
        } else {
            self.mux_hits as f64 / total as f64
        }
    }

    /// Fraction of stage-3 (receive) lookups that hit, or 0 with no
    /// lookups.
    #[must_use]
    pub fn receive_hit_rate(&self) -> f64 {
        let total = self.receive_hits + self.receive_misses;
        if total == 0 {
            0.0
        } else {
            self.receive_hits as f64 / total as f64
        }
    }

    /// Adds `other`'s counters into `self` (for aggregating per-worker
    /// evaluators after a parallel sweep).
    pub fn merge(&mut self, other: &CacheStats) {
        self.stage1_hits += other.stage1_hits;
        self.stage1_misses += other.stage1_misses;
        self.mux_hits += other.mux_hits;
        self.mux_misses += other.mux_misses;
        self.receive_hits += other.receive_hits;
        self.receive_misses += other.receive_misses;
        self.screen_hits += other.screen_hits;
        self.screen_misses += other.screen_misses;
    }

    /// Fraction of screened deadline checks decided without a dense
    /// receive analysis, or 0 with no screened checks.
    #[must_use]
    pub fn screen_hit_rate(&self) -> f64 {
        let total = self.screen_hits + self.screen_misses;
        if total == 0 {
            0.0
        } else {
            self.screen_hits as f64 / total as f64
        }
    }

    /// Delay analyses actually computed (the paper's dominant cost):
    /// cache misses at all three stages.
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.stage1_misses + self.mux_misses + self.receive_misses
    }

    /// Hit rate across the three cached stages, or 0 with no lookups.
    /// Screening is not a lookup and is reported by
    /// [`Self::screen_hit_rate`] instead.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.stage1_hits + self.mux_hits + self.receive_hits;
        let total = hits + self.evals();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// A reusable, caching end-to-end delay evaluator.
///
/// Both caches are keyed by envelope `Arc` identity; every entry pins
/// the envelope it was keyed by, so entries can never alias a
/// reallocated envelope. Use one evaluator per admission request or per
/// region sweep — exactly how [`crate::cac::NetworkState`] and
/// [`crate::region::sample_region`] use it — and it will amortize
/// stage-1 across search iterations and stage-2 across every evaluation
/// in which a mux's member set is unchanged.
#[derive(Debug)]
pub struct Evaluator<'a> {
    net: &'a HetNetwork,
    cfg: EvalConfig,
    cache: EvalCache,
    scratch: Scratch,
    stats: CacheStats,
}

/// Reusable per-evaluation working state. Everything here is cleared
/// (but not deallocated) at the start of each `resolve`, so a warm
/// evaluator's hot path performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// Per path: chi_s, buffer, frame size.
    stage1: Vec<(Seconds, Bits, Bits)>,
    /// Per path: the multiplexers it traverses, in hop order.
    hop_keys: Vec<Vec<MuxKey>>,
    /// Per path: the interned signature of its flow entering each hop
    /// (index h = entering hop h; index len = delivered to the device).
    hop_sigs: Vec<Vec<SigId>>,
    /// All `(mux, path, hop)` memberships, sorted by mux key so each
    /// port's members appear in canonical (path, hop) order.
    members: Vec<(MuxKey, u32, u32)>,
    /// Range of `members` per distinct mux: `(key, start, end)`.
    groups: Vec<(MuxKey, u32, u32)>,
    /// Worklist of group indices for the dependency-order loop.
    unresolved: Vec<u32>,
    remaining: Vec<u32>,
    /// Resolved port-wide queueing delay per mux, sorted by key (the
    /// canonical order the CAC's mux-delay signature relies on).
    mux_delay: Vec<(MuxKey, Seconds)>,
    /// Per path: the queueing delay *its class* sees at each of its hops
    /// (equal to the port-wide bound under FIFO).
    hop_delay: Vec<Vec<Seconds>>,
    /// Member `(signature, class)` pairs of the mux currently probed.
    key_sigs: Vec<MemberKey>,
    /// Member flows of the mux currently being analyzed.
    flows: Vec<ClassedFlow>,
}

/// Clears a nested buffer down to `n` empty inner vectors, reusing the
/// inner allocations already present.
fn reset_nested<T>(v: &mut Vec<Vec<T>>, n: usize) {
    v.truncate(n);
    for inner in v.iter_mut() {
        inner.clear();
    }
    while v.len() < n {
        v.push(Vec::new());
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `net` with a fresh cache. The
    /// busy-interval search horizon is clamped as in
    /// [`Evaluator::with_cache`].
    #[must_use]
    pub fn new(net: &'a HetNetwork, cfg: EvalConfig) -> Self {
        Self::with_cache(net, cfg, EvalCache::new())
    }

    /// Creates an evaluator over `net` seeded with a previously filled
    /// [`EvalCache`]. If the cache was built under a different
    /// [`EvalConfig`] it is cleared first, so results never depend on
    /// where the cache came from.
    ///
    /// The busy-interval search horizon is clamped to the flattening
    /// horizon: a server still backlogged beyond it cannot meet any
    /// deadline of interest (it is reported infeasible instead). The
    /// clamp keeps a search's own points inside the flattened range,
    /// but not what its hops ask of the tables below them. Behind
    /// multiplexer hops, each `Delayed` shifts its points, and asks for
    /// breakpoints, `delay` further out, so a receive-side search whose
    /// horizon comes within the hops' total delay of the table's end
    /// reaches past the flattened wire table into its unflattened inner
    /// chain, the `Quantized` wire envelope over the flattened MAC
    /// output. There, for each candidate list of the search whose
    /// horizon reaches that far, `Sampled::breakpoints` enumerates
    /// every frame level of that
    /// envelope, and each level is inverted by bisection: the closed
    /// form needs a search range inside the MAC table. The values past
    /// the wire table are served by the same chain, one batch per layer
    /// ([`Envelope::arrivals_sorted`]), and the MAC table in turn hands
    /// the points past its own horizon to the Theorem-1.4 output.
    #[must_use]
    pub fn with_cache(net: &'a HetNetwork, mut cfg: EvalConfig, mut cache: EvalCache) -> Self {
        cfg.analysis.max_horizon = cfg.analysis.max_horizon.min(cfg.flatten_horizon);
        let fingerprint = CfgFingerprint::of(&cfg, net.scheduler());
        if cache.fingerprint != Some(fingerprint) {
            cache.clear();
            cache.fingerprint = Some(fingerprint);
        }
        Self {
            net,
            cfg,
            cache,
            scratch: Scratch::default(),
            stats: CacheStats::default(),
        }
    }

    /// Consumes the evaluator, handing back its cache for reuse by a
    /// later evaluator (see [`Evaluator::with_cache`]).
    #[must_use]
    pub fn into_cache(self) -> EvalCache {
        self.cache
    }

    /// Hit/miss counters of both caches, accumulated over this
    /// evaluator's lifetime.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    fn flatten(&self, env: SharedEnvelope) -> Arc<Sampled> {
        Arc::new(Sampled::flatten(
            env,
            self.cfg.flatten_horizon,
            self.cfg.flatten_subdivisions,
        ))
    }

    fn validate(&self, paths: &[PathInput]) -> Result<(), CacError> {
        for p in paths {
            if !self.net.contains(p.source) {
                return Err(CacError::InvalidRequest(format!(
                    "unknown source {}",
                    p.source
                )));
            }
            if !self.net.contains(p.dest) {
                return Err(CacError::InvalidRequest(format!("unknown dest {}", p.dest)));
            }
            if p.source.ring == p.dest.ring {
                return Err(CacError::InvalidRequest(
                    "source and destination must be on different rings".into(),
                ));
            }
        }
        Ok(())
    }

    fn stage1_for(&mut self, p: &PathInput) -> Result<Stage1, CacError> {
        let key = Stage1Key {
            env_ptr: Arc::as_ptr(&p.envelope) as *const () as usize,
            h_bits: p.h_s.per_rotation().value().to_bits(),
            ring: p.source.ring,
        };
        if let Some(hit) = self.cache.stage1.get(&key) {
            self.stats.stage1_hits += 1;
            obs::event(
                "stage1",
                &[
                    ("ring", obs::FieldValue::U64(p.source.ring as u64)),
                    ("hit", obs::FieldValue::Bool(true)),
                ],
            );
            return Ok(hit.result.clone());
        }
        self.stats.stage1_misses += 1;
        obs::event(
            "stage1",
            &[
                ("ring", obs::FieldValue::U64(p.source.ring as u64)),
                ("hit", obs::FieldValue::Bool(false)),
            ],
        );
        let ring = self.net.ring(p.source.ring);
        let computed = if p.h_s.per_rotation().value() <= 0.0 {
            Stage1::Infeasible("zero synchronous allocation".into())
        } else {
            match analyze_fddi_mac(
                Arc::clone(&p.envelope),
                ring,
                p.h_s,
                self.net.host_buffer(),
                &self.cfg.analysis,
            ) {
                Ok(mac) => match mac.delay {
                    DelayOutcome::Bounded(chi_s) => {
                        let f_s = frames::frame_size(ring, p.h_s);
                        let seg = segment_envelope(self.flatten(mac.output), f_s, self.net.ifdev());
                        let wire = self.flatten(seg.output_wire);
                        let (ts, vals) = wire.samples();
                        let wire_affine =
                            AffineBound::from_samples(ts, vals, wire.sustained_rate());
                        Stage1::Ready {
                            chi_s,
                            buffer: mac.buffer_required,
                            frame_size: f_s,
                            wire,
                            wire_affine,
                        }
                    }
                    DelayOutcome::BufferOverflow { .. } => {
                        Stage1::Infeasible(format!("source MAC buffer overflow at {}", p.source))
                    }
                },
                Err(FddiError::Analysis(e)) => {
                    Stage1::Infeasible(format!("source MAC at {}: {e}", p.source))
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.cache.stage1.insert(
            key,
            Stage1Entry {
                _pin: Arc::clone(&p.envelope),
                result: computed.clone(),
            },
        );
        Ok(computed)
    }

    /// Resolves all stage-1 analyses and multiplexers of `paths` into
    /// `self.scratch`. Returns `Ok(Some(message))` on infeasibility,
    /// `Ok(None)` when everything resolved.
    fn resolve(&mut self, paths: &[PathInput]) -> Result<Option<String>, CacError> {
        // Detach the scratch so its buffers can be filled while the
        // caches (also behind `&mut self`) are being consulted.
        let mut s = std::mem::take(&mut self.scratch);
        let out = self.resolve_into(paths, &mut s);
        self.scratch = s;
        out
    }

    fn resolve_into(
        &mut self,
        paths: &[PathInput],
        s: &mut Scratch,
    ) -> Result<Option<String>, CacError> {
        s.stage1.clear();
        reset_nested(&mut s.hop_keys, paths.len());
        reset_nested(&mut s.hop_sigs, paths.len());
        reset_nested(&mut s.hop_delay, paths.len());
        s.members.clear();
        s.groups.clear();
        s.mux_delay.clear();

        // Stage 1 (cached): source MAC + segmentation per path.
        for (pi, p) in paths.iter().enumerate() {
            let s1 = self.stage1_for(p)?;
            let (chi_s, buffer, frame_size, wire): (_, _, _, SharedEnvelope) = match s1 {
                Stage1::Ready {
                    chi_s,
                    buffer,
                    frame_size,
                    wire,
                    ..
                } => (chi_s, buffer, frame_size, wire),
                Stage1::Infeasible(msg) => return Ok(Some(msg)),
            };
            if p.h_r.per_rotation().value() <= 0.0 {
                return Ok(Some(
                    "zero synchronous allocation on the destination ring".into(),
                ));
            }
            s.stage1.push((chi_s, buffer, frame_size));
            let route = self.net.route_between(p.source.ring, p.dest.ring)?;
            let keys = &mut s.hop_keys[pi];
            keys.push(MuxKey::Uplink(p.source.ring));
            keys.extend(route.iter().map(|l| MuxKey::Backbone(l.0)));
            keys.push(MuxKey::Downlink(p.dest.ring));
            // The wire envelope is pinned by the interner (and the
            // stage-1 cache), so its address identifies it.
            s.hop_sigs[pi].push(self.cache.root_sig(&wire));
        }

        // Stage 2: resolve multiplexers in dependency order, consulting
        // the mux cache: a port whose member set (by flow signature) was
        // analyzed before returns its recorded report verbatim. Sorting
        // the membership triples groups each port's members in canonical
        // (path, hop) order — the order the aggregate is summed in.
        for (pi, keys) in s.hop_keys.iter().enumerate() {
            for (hi, &k) in keys.iter().enumerate() {
                s.members.push((k, pi as u32, hi as u32));
            }
        }
        s.members.sort_unstable();
        let mut i = 0;
        while i < s.members.len() {
            let key = s.members[i].0;
            let start = i;
            while i < s.members.len() && s.members[i].0 == key {
                i += 1;
            }
            s.groups.push((key, start as u32, i as u32));
        }

        s.unresolved.clear();
        s.unresolved.extend(0..s.groups.len() as u32);
        while !s.unresolved.is_empty() {
            let mut progressed = false;
            s.remaining.clear();
            for u in 0..s.unresolved.len() {
                let gi = s.unresolved[u] as usize;
                let (key, start, end) = s.groups[gi];
                let (start, end) = (start as usize, end as usize);
                let mut ready = true;
                for &(_, pi, hi) in &s.members[start..end] {
                    if s.hop_sigs[pi as usize].len() <= hi as usize {
                        ready = false;
                        break;
                    }
                }
                if !ready {
                    s.remaining.push(gi as u32);
                    continue;
                }
                let link = match key {
                    MuxKey::Uplink(_) | MuxKey::Downlink(_) => *self.net.access_link(),
                    MuxKey::Backbone(l) => *self.net.backbone().link(hetnet_atm::LinkId(l)),
                };
                s.key_sigs.clear();
                for &(_, pi, hi) in &s.members[start..end] {
                    let sig = s.hop_sigs[pi as usize][hi as usize];
                    s.key_sigs.push((sig, paths[pi as usize].class));
                }
                let (mux_kind, mux_index) = key.parts();
                let mux_event = |hit: bool, delay: Option<Seconds>| {
                    obs::event(
                        if delay.is_some() {
                            "mux"
                        } else {
                            "mux_infeasible"
                        },
                        &[
                            ("kind", obs::FieldValue::Str(mux_kind)),
                            ("index", obs::FieldValue::U64(mux_index as u64)),
                            ("hit", obs::FieldValue::Bool(hit)),
                            (
                                "delay_s",
                                obs::FieldValue::F64(delay.map_or(f64::NAN, Seconds::value)),
                            ),
                        ],
                    );
                };
                let report = match self
                    .cache
                    .mux
                    .get(&key)
                    .and_then(|port| port.get(s.key_sigs.as_slice()))
                {
                    Some(MuxCached::Ready(r)) => {
                        self.stats.mux_hits += 1;
                        mux_event(true, Some(r.delay_bound));
                        r.clone()
                    }
                    Some(MuxCached::Infeasible(msg)) => {
                        self.stats.mux_hits += 1;
                        mux_event(true, None);
                        return Ok(Some(msg.clone()));
                    }
                    None => {
                        self.stats.mux_misses += 1;
                        s.flows.clear();
                        for &(sig, class) in &s.key_sigs {
                            s.flows
                                .push(ClassedFlow::new(Arc::clone(self.cache.env(sig)), class));
                        }
                        match self
                            .net
                            .scheduler()
                            .analyze(&s.flows, &link, &self.cfg.analysis)
                        {
                            Ok(r) => {
                                self.cache.mux.entry(key).or_default().insert(
                                    Box::from(s.key_sigs.as_slice()),
                                    MuxCached::Ready(r.clone()),
                                );
                                mux_event(false, Some(r.delay_bound));
                                r
                            }
                            Err(AtmError::Analysis(e)) => {
                                let msg = format!("{key:?}: {e}");
                                self.cache.mux.entry(key).or_default().insert(
                                    Box::from(s.key_sigs.as_slice()),
                                    MuxCached::Infeasible(msg.clone()),
                                );
                                mux_event(false, None);
                                return Ok(Some(msg));
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                };
                s.mux_delay.push((key, report.delay_bound));
                let sched = self.net.scheduler();
                for &(_, pi, hi) in &s.members[start..end] {
                    let (pi, hi) = (pi as usize, hi as usize);
                    debug_assert_eq!(s.hop_sigs[pi].len(), hi + 1);
                    let class_delay = report.delay_of_class(paths[pi].class);
                    let parent = s.hop_sigs[pi][hi];
                    let sig = self.cache.chained_sig(sched, parent, class_delay, &link);
                    s.hop_sigs[pi].push(sig);
                    s.hop_delay[pi].push(class_delay);
                }
                progressed = true;
            }
            if !progressed && !s.remaining.is_empty() {
                return Err(CacError::InvalidNetwork(
                    "cyclic multiplexer dependencies (routes are not feedforward)".into(),
                ));
            }
            std::mem::swap(&mut s.unresolved, &mut s.remaining);
        }
        // Canonical order for the CAC's mux-delay signature comparison.
        s.mux_delay.sort_unstable_by_key(|&(k, _)| k);
        Ok(None)
    }

    /// The receive-independent delay pieces of path `pi`, read off the
    /// resolved scratch: every term of the total except `fddi_r`.
    fn fixed_parts(&self, p: &PathInput, s: &Scratch, pi: usize) -> FixedParts {
        let net = self.net;
        let ring_s = net.ring(p.source.ring);
        let keys = &s.hop_keys[pi];
        let (chi_s, buffer_s, frame_size) = s.stage1[pi];

        let fddi_s = chi_s + ring_s.propagation;
        let uplink_q = s.hop_delay[pi][0];
        let id_s = net.ifdev().sender_fixed_delay() + uplink_q;

        let mut atm = net.access_link().propagation
            + net
                .backbone()
                .switch(net.switch_of(p.source.ring))
                .fabric_latency;
        for (hi, k) in keys.iter().enumerate().skip(1) {
            atm += s.hop_delay[pi][hi];
            match k {
                MuxKey::Backbone(l) => {
                    let link = net.backbone().link(hetnet_atm::LinkId(*l));
                    let target = net.backbone().link_target(hetnet_atm::LinkId(*l));
                    atm += link.propagation + net.backbone().switch(target).fabric_latency;
                }
                MuxKey::Downlink(_) => {
                    atm += net.access_link().propagation;
                }
                MuxKey::Uplink(_) => unreachable!("uplink only at hop 0"),
            }
        }

        let id_r = net.ifdev().receiver_fixed_delay();
        FixedParts {
            fddi_s,
            id_s,
            atm,
            id_r,
            buffer_s,
            frame_size,
        }
    }

    /// The receive-side (stage-3) analysis for path `pi`'s arrived flow,
    /// served from (and filling) the exact receive cache.
    fn receive_for(
        &mut self,
        p: &PathInput,
        arrived_sig: SigId,
        frame_size: Bits,
    ) -> Result<ReceiveCached, CacError> {
        let net = self.net;
        let ring_r = net.ring(p.dest.ring);
        let key = ReceiveKey {
            arrived_sig,
            frame_bits: frame_size.value().to_bits(),
            h_bits: p.h_r.per_rotation().value().to_bits(),
            ring: p.dest.ring,
        };
        let receive_event = |hit: bool| {
            obs::event(
                "receive",
                &[
                    ("ring", obs::FieldValue::U64(p.dest.ring as u64)),
                    ("hit", obs::FieldValue::Bool(hit)),
                ],
            );
        };
        if let Some(hit) = self.cache.receive.get(&key) {
            self.stats.receive_hits += 1;
            receive_event(true);
            return Ok(hit.clone());
        }
        self.stats.receive_misses += 1;
        receive_event(false);
        let arrived = Arc::clone(self.cache.env(arrived_sig));
        let rea = reassemble_envelope(arrived, frame_size, net.ifdev());
        let computed = match analyze_fddi_mac(
            rea.output_frames,
            ring_r,
            p.h_r,
            net.device_buffer(),
            &self.cfg.analysis,
        ) {
            Ok(m) => match m.delay {
                DelayOutcome::Bounded(chi_r) => ReceiveCached::Ready {
                    chi_r,
                    buffer: m.buffer_required,
                },
                DelayOutcome::BufferOverflow { .. } => ReceiveCached::Infeasible(format!(
                    "receive MAC buffer overflow on ring {}",
                    p.dest.ring
                )),
            },
            Err(FddiError::Analysis(e)) => {
                ReceiveCached::Infeasible(format!("receive MAC on ring {}: {e}", p.dest.ring))
            }
            Err(e) => return Err(e.into()),
        };
        self.cache.receive.insert(key, computed.clone());
        Ok(computed)
    }

    /// Completes the receive side of path `pi` and assembles its report.
    /// Needs `&mut self` for the stage-3 cache; callers detach the
    /// scratch first (see [`Evaluator::resolve`]).
    fn finish_path(
        &mut self,
        p: &PathInput,
        s: &Scratch,
        pi: usize,
    ) -> Result<Result<PathReport, String>, CacError> {
        let fixed = self.fixed_parts(p, s, pi);
        let arrived_sig = *s.hop_sigs[pi].last().expect("route has hops");
        let cached = self.receive_for(p, arrived_sig, fixed.frame_size)?;
        let (chi_r, buffer_r) = match cached {
            ReceiveCached::Ready { chi_r, buffer } => (chi_r, buffer),
            ReceiveCached::Infeasible(msg) => return Ok(Err(msg)),
        };
        let fddi_r = chi_r + self.net.ring(p.dest.ring).propagation;
        let total = fixed.sum() + fddi_r;
        Ok(Ok(PathReport {
            fddi_s: fixed.fddi_s,
            id_s: fixed.id_s,
            atm: fixed.atm,
            id_r: fixed.id_r,
            fddi_r,
            total,
            buffer_mac_s: fixed.buffer_s,
            buffer_mac_r: buffer_r,
        }))
    }

    /// Checks `total ≤ deadline` for existing path `pi`, trying in
    /// order: the exact receive cache, the monotone screening bound,
    /// and only then a dense receive analysis (whose result refreshes
    /// the screening entry). The boolean outcome is identical to the
    /// dense check's in every case — the screening bound only ever
    /// *passes* a path, and a bound passing implies the exact total
    /// passes — so decisions never depend on the cache's history.
    fn deadline_check(
        &mut self,
        p: &PathInput,
        s: &Scratch,
        pi: usize,
        deadline: Seconds,
    ) -> Result<Result<DeadlineCheck, String>, CacError> {
        let fixed = self.fixed_parts(p, s, pi);
        let before_receive = fixed.sum() + self.net.ring(p.dest.ring).propagation;
        let arrived_sig = *s.hop_sigs[pi].last().expect("route has hops");
        let exact_key = ReceiveKey {
            arrived_sig,
            frame_bits: fixed.frame_size.value().to_bits(),
            h_bits: p.h_r.per_rotation().value().to_bits(),
            ring: p.dest.ring,
        };
        // Exact result already known: no bound needed.
        if let Some(hit) = self.cache.receive.get(&exact_key) {
            self.stats.receive_hits += 1;
            return Ok(match hit {
                ReceiveCached::Ready { chi_r, .. } => {
                    let total = before_receive + *chi_r;
                    Ok(if total <= deadline {
                        DeadlineCheck::Pass
                    } else {
                        DeadlineCheck::Miss { total }
                    })
                }
                ReceiveCached::Infeasible(msg) => Err(msg.clone()),
            });
        }
        let screen_key = ScreenKey {
            root_sig: s.hop_sigs[pi][0],
            frame_bits: exact_key.frame_bits,
            h_bits: exact_key.h_bits,
            ring: p.dest.ring,
            class: p.class,
        };
        let keys = &s.hop_keys[pi];
        if let Some(entry) = self.cache.screen.get(&screen_key) {
            let dominated = entry.hops.len() == keys.len()
                && keys
                    .iter()
                    .zip(&s.hop_delay[pi])
                    .zip(entry.hops.iter())
                    .all(|((k, d), (ek, bound))| k == ek && *d <= *bound);
            if dominated && before_receive + entry.chi_r <= deadline {
                self.stats.screen_hits += 1;
                return Ok(Ok(DeadlineCheck::Pass));
            }
        }
        self.stats.screen_misses += 1;
        let cached = self.receive_for(p, arrived_sig, fixed.frame_size)?;
        let chi_r = match cached {
            ReceiveCached::Ready { chi_r, .. } => chi_r,
            ReceiveCached::Infeasible(msg) => return Ok(Err(msg)),
        };
        // Refresh the screening entry whenever the new bounds dominate
        // the recorded ones (hop bounds grow as the closure fills, so
        // the dominant analysis is also the most recent in practice).
        let hops: Box<[(MuxKey, Seconds)]> = keys
            .iter()
            .zip(&s.hop_delay[pi])
            .map(|(k, d)| (*k, *d))
            .collect();
        match self.cache.screen.entry(screen_key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(ScreenEntry { hops, chi_r });
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let old = o.get();
                let dominates = old.hops.len() != hops.len()
                    || old
                        .hops
                        .iter()
                        .zip(hops.iter())
                        .any(|((ok, _), (nk, _))| ok != nk)
                    || old
                        .hops
                        .iter()
                        .zip(hops.iter())
                        .all(|((_, a), (_, b))| a <= b);
                if dominates {
                    o.insert(ScreenEntry { hops, chi_r });
                }
            }
        }
        let total = before_receive + chi_r;
        Ok(Ok(if total <= deadline {
            DeadlineCheck::Pass
        } else {
            DeadlineCheck::Miss { total }
        }))
    }

    /// Evaluates the worst-case delays of all `paths`.
    ///
    /// # Errors
    ///
    /// [`CacError`] for malformed inputs; instability yields
    /// `Ok(EvalOutcome::Infeasible)`.
    pub fn evaluate_full(&mut self, paths: &[PathInput]) -> Result<EvalOutcome, CacError> {
        let _span = obs::span("evaluate_full");
        self.validate(paths)?;
        if paths.is_empty() {
            return Ok(EvalOutcome::Feasible(Vec::new()));
        }
        if let Some(msg) = self.resolve(paths)? {
            return Ok(EvalOutcome::Infeasible(msg));
        }
        let s = std::mem::take(&mut self.scratch);
        let out = (|| {
            let mut reports = Vec::with_capacity(paths.len());
            for (pi, p) in paths.iter().enumerate() {
                match self.finish_path(p, &s, pi)? {
                    Ok(r) => reports.push(r),
                    Err(msg) => return Ok(EvalOutcome::Infeasible(msg)),
                }
            }
            Ok(EvalOutcome::Feasible(reports))
        })();
        self.scratch = s;
        out
    }

    /// Evaluates like [`Evaluator::evaluate_full`] but verifies existing
    /// paths' deadlines without materializing their reports: each is
    /// checked against the exact receive cache, then the monotone
    /// screening bound, and only densely when both miss (the dense
    /// result then refreshes the screening entry). The candidate (last
    /// path) always gets a dense, exact report. Because the screening
    /// bound only ever *passes* a path — and a bound passing implies the
    /// exact check passes — the outcome never depends on cache history.
    ///
    /// # Errors
    ///
    /// [`CacError`] for malformed inputs.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty or `deadlines` does not hold exactly
    /// one deadline per existing (non-candidate) path.
    pub fn evaluate_screened(
        &mut self,
        paths: &[PathInput],
        deadlines: &[Seconds],
    ) -> Result<ScreenedOutcome, CacError> {
        let _span = obs::span("evaluate_screened");
        assert!(!paths.is_empty(), "screened evaluation needs paths");
        assert_eq!(
            deadlines.len(),
            paths.len() - 1,
            "one deadline per existing path"
        );
        self.validate(paths)?;
        if let Some(msg) = self.resolve(paths)? {
            return Ok(ScreenedOutcome::Infeasible(msg));
        }
        let last = paths.len() - 1;
        let s = std::mem::take(&mut self.scratch);
        let out = (|| {
            for (pi, (p, deadline)) in paths[..last].iter().zip(deadlines).enumerate() {
                match self.deadline_check(p, &s, pi, *deadline)? {
                    Ok(DeadlineCheck::Pass) => {}
                    Ok(DeadlineCheck::Miss { total }) => {
                        return Ok(ScreenedOutcome::DeadlineMiss { index: pi, total });
                    }
                    Err(msg) => return Ok(ScreenedOutcome::Infeasible(msg)),
                }
            }
            match self.finish_path(&paths[last], &s, last)? {
                Ok(candidate) => Ok(ScreenedOutcome::Feasible { candidate }),
                Err(msg) => Ok(ScreenedOutcome::Infeasible(msg)),
            }
        })();
        self.scratch = s;
        out
    }

    /// Evaluates only the *last* path's full report (the CAC's search
    /// candidate), plus the multiplexer-delay signature. Existing paths'
    /// receive sides are skipped — sound inside the CAC's searches
    /// because existing deadlines are verified at the maximum allocation
    /// and are monotone in the candidate's allocation.
    ///
    /// # Errors
    ///
    /// [`CacError`] for malformed inputs.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty.
    pub fn evaluate_candidate(
        &mut self,
        paths: &[PathInput],
    ) -> Result<CandidateOutcome, CacError> {
        let _span = obs::span("evaluate_candidate");
        assert!(!paths.is_empty(), "candidate evaluation needs paths");
        self.validate(paths)?;
        if let Some(msg) = self.resolve(paths)? {
            return Ok(CandidateOutcome::Infeasible(msg));
        }
        let last = paths.len() - 1;
        let s = std::mem::take(&mut self.scratch);
        let out = match self.finish_path(&paths[last], &s, last) {
            Ok(Ok(candidate)) => Ok(CandidateOutcome::Feasible {
                candidate,
                mux_delays: s.mux_delay.iter().map(|&(_, d)| d).collect(),
            }),
            Ok(Err(msg)) => Ok(CandidateOutcome::Infeasible(msg)),
            Err(e) => Err(e),
        };
        self.scratch = s;
        out
    }

    /// Sender-side quantities the admission fast path needs for one path
    /// at one allocation, served from (and filling) the stage-1 cache:
    /// the exact `χ_S`, the frame size, and the affine wire bound.
    /// `None` when stage 1 is infeasible at this allocation.
    ///
    /// # Errors
    ///
    /// Propagates hard configuration errors exactly like
    /// [`Evaluator::evaluate_candidate`].
    pub(crate) fn fast_stage1(&mut self, p: &PathInput) -> Result<Option<FastStage1>, CacError> {
        Ok(match self.stage1_for(p)? {
            Stage1::Ready {
                chi_s,
                frame_size,
                wire,
                wire_affine,
                ..
            } => Some(FastStage1 {
                chi_s,
                frame_size,
                wire_affine,
                window: wire.horizon(),
            }),
            Stage1::Infeasible(_) => None,
        })
    }

    /// The (clamped) configuration this evaluator analyzes under.
    pub(crate) fn config(&self) -> &EvalConfig {
        &self.cfg
    }
}

/// Sender-side stage-1 summary for the admission fast path.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FastStage1 {
    /// Exact source-MAC delay `χ_S` (identical to the dense path's).
    pub(crate) chi_s: Seconds,
    /// Frame size `F_S` on the source ring at this allocation.
    pub(crate) frame_size: Bits,
    /// Affine bound dominating the dense wire envelope on `[0, window]`.
    pub(crate) wire_affine: AffineBound,
    /// Horizon (seconds) of the wire envelope's sample table.
    pub(crate) window: f64,
}

/// Evaluates the worst-case delays of all `paths` simultaneously
/// (stateless convenience wrapper over [`Evaluator`]).
///
/// # Errors
///
/// Returns [`CacError`] only for malformed inputs (unknown hosts,
/// same-ring connections, broken topology); resource exhaustion and
/// instability yield `Ok(EvalOutcome::Infeasible)`.
pub fn evaluate_paths(
    net: &HetNetwork,
    paths: &[PathInput],
    cfg: &EvalConfig,
) -> Result<EvalOutcome, CacError> {
    Evaluator::new(net, cfg.clone()).evaluate_full(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet_traffic::models::DualPeriodicEnvelope;
    use hetnet_traffic::units::BitsPerSec;

    fn net() -> HetNetwork {
        HetNetwork::paper_topology()
    }

    fn source() -> SharedEnvelope {
        Arc::new(
            DualPeriodicEnvelope::new(
                Bits::from_mbits(2.0),
                Seconds::from_millis(100.0),
                Bits::from_mbits(0.25),
                Seconds::from_millis(10.0),
                BitsPerSec::from_mbps(100.0),
            )
            .unwrap(),
        )
    }

    fn h(ms: f64) -> SyncBandwidth {
        SyncBandwidth::new(Seconds::from_millis(ms))
    }

    fn path(src: (usize, usize), dst: (usize, usize), hs: f64, hr: f64) -> PathInput {
        PathInput {
            source: HostId {
                ring: src.0,
                station: src.1,
            },
            dest: HostId {
                ring: dst.0,
                station: dst.1,
            },
            envelope: source(),
            h_s: h(hs),
            h_r: h(hr),
            class: 0,
        }
    }

    #[test]
    fn single_connection_decomposition_sums() {
        let reports = evaluate_paths(
            &net(),
            &[path((0, 0), (1, 0), 2.4, 2.4)],
            &EvalConfig::default(),
        )
        .unwrap()
        .feasible()
        .expect("feasible at generous allocation");
        let r = &reports[0];
        let sum = r.fddi_s + r.id_s + r.atm + r.id_r + r.fddi_r;
        assert!((r.total.value() - sum.value()).abs() < 1e-12);
        // FDDI MACs dominate; ATM contributes a small but positive part.
        assert!(r.fddi_s.as_millis() > 10.0, "{r:?}");
        assert!(r.fddi_r.as_millis() > 10.0, "{r:?}");
        assert!(r.atm.value() > 0.0);
        assert!(r.id_s.value() > 0.0);
        assert!(r.id_r.value() > 0.0);
        assert!(r.buffer_mac_s.value() > 0.0);
        assert!(r.buffer_mac_r.value() > 0.0);
    }

    #[test]
    fn empty_input_is_trivially_feasible() {
        let out = evaluate_paths(&net(), &[], &EvalConfig::default()).unwrap();
        assert!(matches!(out, EvalOutcome::Feasible(v) if v.is_empty()));
    }

    #[test]
    fn more_source_bandwidth_reduces_own_delay() {
        let cfg = EvalConfig::default();
        let mut prev = f64::INFINITY;
        for hs in [1.8, 2.4, 3.6] {
            let r = evaluate_paths(&net(), &[path((0, 0), (1, 0), hs, 2.4)], &cfg)
                .unwrap()
                .feasible()
                .unwrap();
            let total = r[0].total.value();
            assert!(total <= prev + 1e-9, "hs={hs}: {total} > {prev}");
            prev = total;
        }
    }

    #[test]
    fn cross_traffic_inflates_existing_delay() {
        let cfg = EvalConfig::default();
        let solo = evaluate_paths(&net(), &[path((0, 0), (1, 0), 2.4, 2.4)], &cfg)
            .unwrap()
            .feasible()
            .unwrap()[0]
            .total;
        let duo = evaluate_paths(
            &net(),
            &[
                path((0, 0), (1, 0), 2.4, 2.4),
                path((0, 1), (1, 1), 2.4, 2.4),
            ],
            &cfg,
        )
        .unwrap()
        .feasible()
        .unwrap();
        assert!(
            duo[0].total >= solo,
            "sharing cannot reduce the bound: {} < {solo}",
            duo[0].total
        );
        assert!(duo[0].atm.value() > 0.0);
    }

    #[test]
    fn undersized_allocation_reports_infeasible() {
        let out = evaluate_paths(
            &net(),
            &[path((0, 0), (1, 0), 1.0, 2.4)],
            &EvalConfig::default(),
        )
        .unwrap();
        assert!(matches!(out, EvalOutcome::Infeasible(_)));
        let out = evaluate_paths(
            &net(),
            &[path((0, 0), (1, 0), 2.4, 1.0)],
            &EvalConfig::default(),
        )
        .unwrap();
        assert!(matches!(out, EvalOutcome::Infeasible(_)));
    }

    #[test]
    fn zero_allocation_is_infeasible_not_error() {
        let out = evaluate_paths(
            &net(),
            &[path((0, 0), (1, 0), 0.0, 2.4)],
            &EvalConfig::default(),
        )
        .unwrap();
        assert!(matches!(out, EvalOutcome::Infeasible(_)));
        let out = evaluate_paths(
            &net(),
            &[path((0, 0), (1, 0), 2.4, 0.0)],
            &EvalConfig::default(),
        )
        .unwrap();
        assert!(matches!(out, EvalOutcome::Infeasible(_)));
    }

    #[test]
    fn malformed_requests_are_errors() {
        let cfg = EvalConfig::default();
        let mut p = path((0, 0), (1, 0), 2.4, 2.4);
        p.dest.ring = 0;
        assert!(matches!(
            evaluate_paths(&net(), &[p], &cfg),
            Err(CacError::InvalidRequest(_))
        ));
        let mut p = path((0, 0), (1, 0), 2.4, 2.4);
        p.source.station = 99;
        assert!(matches!(
            evaluate_paths(&net(), &[p], &cfg),
            Err(CacError::InvalidRequest(_))
        ));
    }

    #[test]
    fn overload_on_receive_ring_is_infeasible() {
        // Four flows converging on ring 1, each needing ~20 Mb/s of
        // synchronous service at the receiving device, with receive
        // allocations adding to more than TTRT can offer.
        let mut paths: Vec<PathInput> =
            (0..4).map(|s| path((0, s), (1, s % 4), 2.0, 0.9)).collect();
        paths.extend((0..3).map(|s| path((2, s), (1, (s + 1) % 4), 2.0, 0.9)));
        let out = evaluate_paths(&net(), &paths, &EvalConfig::default()).unwrap();
        assert!(matches!(out, EvalOutcome::Infeasible(_)));
    }

    #[test]
    fn undersized_buffers_make_paths_infeasible() {
        // A generous allocation is feasible with unlimited buffers…
        let generous = path((0, 0), (1, 0), 2.4, 2.4);
        let unlimited = evaluate_paths(
            &net(),
            std::slice::from_ref(&generous),
            &EvalConfig::default(),
        )
        .unwrap()
        .feasible()
        .expect("feasible without buffer limits");
        let needed = unlimited[0].buffer_mac_s;
        // …but a host buffer below the Theorem-1.2 requirement overflows.
        let tiny = net().with_buffers(Some(Bits::new(needed.value() * 0.5)), None);
        let out = evaluate_paths(
            &tiny,
            std::slice::from_ref(&generous),
            &EvalConfig::default(),
        )
        .unwrap();
        assert!(matches!(out, EvalOutcome::Infeasible(_)));
        // A buffer at least the requirement keeps the path feasible.
        let enough = net().with_buffers(Some(Bits::new(needed.value() * 1.2)), None);
        let out = evaluate_paths(
            &enough,
            std::slice::from_ref(&generous),
            &EvalConfig::default(),
        )
        .unwrap();
        assert!(matches!(out, EvalOutcome::Feasible(_)));
        // Same on the device side.
        let needed_r = unlimited[0].buffer_mac_r;
        let tiny_dev = net().with_buffers(None, Some(Bits::new(needed_r.value() * 0.5)));
        let out = evaluate_paths(&tiny_dev, &[generous], &EvalConfig::default()).unwrap();
        assert!(matches!(out, EvalOutcome::Infeasible(_)));
    }

    #[test]
    fn evaluator_cache_hits_across_calls() {
        let network = net();
        let mut ev = Evaluator::new(&network, EvalConfig::default());
        let p0 = path((0, 0), (1, 0), 2.4, 2.4);
        let _ = ev.evaluate_full(std::slice::from_ref(&p0)).unwrap();
        let first = ev.cache_stats();
        assert_eq!(first.stage1_misses, 1);
        assert_eq!(first.stage1_hits, 0);
        assert!(first.mux_misses > 0);
        assert_eq!(first.mux_hits, 0);
        // Same envelope Arc, H_S, and member sets: all three stages hit.
        let _ = ev.evaluate_full(std::slice::from_ref(&p0)).unwrap();
        let second = ev.cache_stats();
        assert_eq!(second.stage1_hits, 1);
        assert_eq!(second.stage1_misses, 1);
        assert_eq!(second.mux_hits, first.mux_misses);
        assert_eq!(second.mux_misses, first.mux_misses);
        assert_eq!(second.receive_hits, 1);
        assert_eq!(second.receive_misses, 1);
        assert!(second.stage1_hit_rate() > 0.0);
        assert!(second.mux_hit_rate() > 0.0);
        assert!(second.receive_hit_rate() > 0.0);
        // Different H_S: a new wire envelope, so stage 1 misses and
        // every traversed mux's member set changes (misses again).
        let mut p1 = p0.clone();
        p1.h_s = h(3.0);
        let _ = ev.evaluate_full(&[p1]).unwrap();
        let third = ev.cache_stats();
        assert_eq!(third.stage1_misses, 2);
        assert!(third.mux_misses > second.mux_misses);
    }

    #[test]
    fn cached_evaluations_are_bit_identical() {
        let network = net();
        let paths = [
            path((0, 0), (1, 0), 2.4, 2.4),
            path((1, 1), (2, 1), 2.4, 2.4),
        ];
        let mut warm = Evaluator::new(&network, EvalConfig::default());
        let a = warm.evaluate_full(&paths).unwrap().feasible().unwrap();
        let b = warm.evaluate_full(&paths).unwrap().feasible().unwrap();
        assert!(warm.cache_stats().mux_hits > 0);
        let fresh = evaluate_paths(&network, &paths, &EvalConfig::default())
            .unwrap()
            .feasible()
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, fresh);
    }

    #[test]
    fn cache_survives_envelope_reallocation() {
        // Regression: both caches are keyed by envelope Arc addresses.
        // Entries pin their envelope, so a dropped envelope's address
        // cannot be reused while the evaluator lives; without the pin,
        // an unlucky reallocation would serve a different connection's
        // analysis (the ABA hazard).
        let network = net();
        let cfg = EvalConfig::default();
        let mut long_lived = Evaluator::new(&network, cfg.clone());
        let rounds = 16;
        for round in 0..rounds {
            // A fresh, slightly different envelope each round, dropped
            // at the end of the round: the allocator is free to hand a
            // later round the same address.
            let mut p = path((0, 0), (1, 0), 2.4, 2.4);
            p.envelope = Arc::new(
                DualPeriodicEnvelope::new(
                    Bits::from_mbits(1.0 + 0.05 * round as f64),
                    Seconds::from_millis(100.0),
                    Bits::from_mbits(0.25),
                    Seconds::from_millis(10.0),
                    BitsPerSec::from_mbps(100.0),
                )
                .unwrap(),
            );
            let cached = long_lived
                .evaluate_full(std::slice::from_ref(&p))
                .unwrap()
                .feasible()
                .unwrap();
            let fresh = evaluate_paths(&network, std::slice::from_ref(&p), &cfg)
                .unwrap()
                .feasible()
                .unwrap();
            assert_eq!(cached, fresh, "round {round}");
        }
        // Every round used a distinct envelope, so a correct cache sees
        // all misses; any hit would have been a false (aliased) one.
        assert_eq!(long_lived.cache_stats().stage1_hits, 0);
        assert_eq!(long_lived.cache_stats().stage1_misses, rounds);
        assert_eq!(long_lived.cache_stats().mux_hits, 0);
    }

    #[test]
    fn candidate_mode_matches_full_mode() {
        let network = net();
        let mut ev = Evaluator::new(&network, EvalConfig::default());
        let paths = [
            path((0, 0), (1, 0), 2.4, 2.4),
            path((1, 1), (2, 1), 2.4, 2.4),
            path((2, 2), (0, 2), 2.4, 2.4),
        ];
        let full = ev.evaluate_full(&paths).unwrap().feasible().unwrap();
        let CandidateOutcome::Feasible {
            candidate,
            mux_delays,
        } = ev.evaluate_candidate(&paths).unwrap()
        else {
            panic!("feasible")
        };
        // The candidate (last path) must agree exactly with full mode.
        assert!((candidate.total.value() - full[2].total.value()).abs() < 1e-12);
        assert!(!mux_delays.is_empty());
    }

    #[test]
    fn detached_cache_seeds_a_later_evaluator() {
        let network = net();
        let cfg = EvalConfig::default();
        let paths = [
            path((0, 0), (1, 0), 2.4, 2.4),
            path((1, 1), (2, 1), 2.4, 2.4),
        ];
        let mut first = Evaluator::new(&network, cfg.clone());
        let a = first.evaluate_full(&paths).unwrap().feasible().unwrap();
        let cache = first.into_cache();
        assert!(cache.stage1_entries() > 0);
        assert!(cache.mux_entries() > 0);
        // A second evaluator over the same cache serves everything from
        // it — zero misses — and returns bit-identical reports.
        let mut second = Evaluator::with_cache(&network, cfg, cache);
        let b = second.evaluate_full(&paths).unwrap().feasible().unwrap();
        let stats = second.cache_stats();
        assert_eq!(stats.stage1_misses, 0, "{stats:?}");
        assert_eq!(stats.mux_misses, 0, "{stats:?}");
        assert_eq!(stats.receive_misses, 0, "{stats:?}");
        assert!(stats.stage1_hits > 0 && stats.mux_hits > 0, "{stats:?}");
        assert!(stats.receive_hits > 0, "{stats:?}");
        assert_eq!(a, b);
    }

    #[test]
    fn config_change_invalidates_a_detached_cache() {
        let network = net();
        let p = path((0, 0), (1, 0), 2.4, 2.4);
        let mut first = Evaluator::new(&network, EvalConfig::default());
        let _ = first.evaluate_full(std::slice::from_ref(&p)).unwrap();
        let cache = first.into_cache();
        assert!(cache.stage1_entries() > 0);
        // Attaching under a different config clears the cache: results
        // must come from the new configuration, not the old entries.
        let mut second = Evaluator::with_cache(&network, EvalConfig::fast(), cache);
        let cached = second
            .evaluate_full(std::slice::from_ref(&p))
            .unwrap()
            .feasible()
            .unwrap();
        let stats = second.cache_stats();
        assert_eq!(stats.stage1_hits, 0, "{stats:?}");
        assert_eq!(stats.mux_hits, 0, "{stats:?}");
        let fresh = evaluate_paths(&network, std::slice::from_ref(&p), &EvalConfig::fast())
            .unwrap()
            .feasible()
            .unwrap();
        assert_eq!(cached, fresh);
    }

    #[test]
    fn candidate_mode_detects_infeasibility() {
        let network = net();
        let mut ev = Evaluator::new(&network, EvalConfig::default());
        let paths = [path((0, 0), (1, 0), 1.0, 2.4)];
        assert!(matches!(
            ev.evaluate_candidate(&paths).unwrap(),
            CandidateOutcome::Infeasible(_)
        ));
    }

    /// With zero lookups the hit rates are a well-defined 0.0, not the
    /// 0/0 NaN that would poison every JSON report they feed.
    #[test]
    fn hit_rates_are_zero_not_nan_without_lookups() {
        let stats = CacheStats::default();
        assert_eq!(stats.stage1_hit_rate(), 0.0);
        assert_eq!(stats.mux_hit_rate(), 0.0);
        // A fresh evaluator that never evaluated reports the same.
        let network = net();
        let ev = Evaluator::new(&network, EvalConfig::default());
        let fresh = ev.cache_stats();
        assert!(!fresh.stage1_hit_rate().is_nan());
        assert!(!fresh.mux_hit_rate().is_nan());
        // One-sided counters stay finite and in range too.
        let hits_only = CacheStats {
            stage1_hits: 3,
            ..CacheStats::default()
        };
        assert_eq!(hits_only.stage1_hit_rate(), 1.0);
        assert_eq!(hits_only.mux_hit_rate(), 0.0);
        let misses_only = CacheStats {
            mux_misses: 4,
            ..CacheStats::default()
        };
        assert_eq!(misses_only.mux_hit_rate(), 0.0);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    /// `evals` counts the three cached stages' misses; the overall hit
    /// rate covers those stages and leaves screening out.
    #[test]
    fn evals_and_overall_hit_rate_accumulate() {
        let mut total = CacheStats {
            stage1_hits: 3,
            stage1_misses: 1,
            mux_hits: 10,
            mux_misses: 2,
            receive_hits: 4,
            receive_misses: 1,
            screen_hits: 7,
            ..CacheStats::default()
        };
        total.merge(&CacheStats {
            stage1_hits: 1,
            stage1_misses: 1,
            mux_misses: 2,
            receive_misses: 1,
            screen_misses: 5,
            ..CacheStats::default()
        });
        assert_eq!(total.evals(), 8);
        assert!((total.hit_rate() - 18.0 / 26.0).abs() < 1e-12);
    }

    /// The evaluator narrates its cache behaviour: one `stage1` event
    /// per lookup and one `mux` event per port probe, each tagged with
    /// hit/miss, matching [`CacheStats`] exactly.
    #[test]
    fn evaluator_emits_cache_attribution_events() {
        let network = net();
        let p = path((0, 0), (1, 0), 2.4, 2.4);
        let (stats, trace) = obs::collect(4096, || {
            let mut ev = Evaluator::new(&network, EvalConfig::fast());
            let _ = ev.evaluate_full(std::slice::from_ref(&p)).unwrap();
            let _ = ev.evaluate_full(std::slice::from_ref(&p)).unwrap();
            ev.cache_stats()
        });
        let count = |name: &str, hit: bool| {
            trace
                .records()
                .iter()
                .filter(|r| {
                    r.name == name
                        && r.fields
                            .iter()
                            .any(|(k, v)| *k == "hit" && *v == obs::FieldValue::Bool(hit))
                })
                .count() as u64
        };
        assert_eq!(count("stage1", true), stats.stage1_hits);
        assert_eq!(count("stage1", false), stats.stage1_misses);
        assert_eq!(count("mux", true), stats.mux_hits);
        assert_eq!(count("mux", false), stats.mux_misses);
        assert_eq!(count("receive", true), stats.receive_hits);
        assert_eq!(count("receive", false), stats.receive_misses);
        assert!(stats.receive_hits > 0 && stats.receive_misses > 0);
        // Both evaluations ran under an `evaluate_full` span.
        let spans = trace
            .records()
            .iter()
            .filter(|r| r.kind == obs::RecordKind::SpanStart && r.name == "evaluate_full")
            .count();
        assert_eq!(spans, 2);
    }
}
