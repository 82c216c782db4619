//! Churn-workload generation: the connection-level arrival process the
//! admission *service* consumes.
//!
//! The paper's β-CAC (§5) is an online algorithm — connections arrive
//! and depart continuously. This module pre-draws the whole request
//! stream deterministically from a seed: Poisson arrivals (exponential
//! interarrivals), uniformly random inter-ring endpoint pairs, uniform
//! deadlines, and *bounded* exponential holding times (an admitted
//! connection departs `holding` after its admission, and `holding`
//! never exceeds the truncation bound, so every run has a finite event
//! horizon).
//!
//! The generator deliberately knows nothing about `NetworkState` or
//! admission outcomes: the schedule is a pure function of the config,
//! which is what makes service-layer runs replayable — the same
//! [`ChurnSchedule`] driven through the service or through bare
//! `NetworkState` calls in event order must produce bit-identical
//! decisions.

use crate::rng::{bounded_exponential, pick_index, poisson_interarrival};
use hetnet_traffic::envelope::Envelope as _;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The structural shape of the target topology: enough for endpoint
/// sampling without depending on the CAC crate's `HetNetwork` (which
/// sits *above* this crate in the dependency order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologyShape {
    /// Number of FDDI rings.
    pub rings: usize,
    /// Hosts per ring (the interface device is not a host).
    pub hosts_per_ring: usize,
}

impl TopologyShape {
    /// The paper's evaluation topology: three rings of four hosts.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            rings: 3,
            hosts_per_ring: 4,
        }
    }
}

/// How destination endpoints are drawn relative to the source ring.
///
/// [`TrafficPattern::Uniform`] reproduces the original draw sequence
/// bit-for-bit; the other patterns exist for scaled-out topologies,
/// where destination locality controls how widely backbone multiplexers
/// couple otherwise-independent rings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Destination uniform over the hosts of every other ring (the
    /// paper-style default).
    Uniform,
    /// Destination on the source ring's partner ring (`2i ↔ 2i+1`;
    /// an odd trailing ring partners downward). Traffic decomposes
    /// into disjoint ring pairs — the fully-parallel admission case.
    Paired,
    /// Destination uniform over the `k` rings on either side of the
    /// source ring (wrapping), bounding mux coupling to a
    /// neighborhood without fully decoupling it.
    Local(usize),
}

/// Parameters of the churn workload.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Shape of the network the stream targets.
    pub shape: TopologyShape,
    /// Destination-locality pattern (see [`TrafficPattern`]).
    pub pattern: TrafficPattern,
    /// Per-ring relative source load; `None` is uniform. When set, the
    /// length must equal `shape.rings` and the weights must be
    /// non-negative with a positive sum — source rings are drawn from
    /// this distribution (stations stay uniform within the ring), which
    /// is how heterogeneous per-ring offered load is expressed.
    pub source_weights: Option<Vec<f64>>,
    /// Poisson arrival rate λ (requests per second).
    pub arrival_rate: f64,
    /// Mean holding time `1/μ` of an admitted connection.
    pub mean_holding: Seconds,
    /// Hard upper bound on holding times (truncated exponential).
    pub max_holding: Seconds,
    /// End-to-end deadline range; each request draws uniformly.
    pub deadline: (Seconds, Seconds),
    /// Source traffic model shared by every connection (eq. 37).
    pub source: DualPeriodicEnvelope,
    /// Number of connection requests to draw.
    pub requests: usize,
    /// RNG seed; the schedule is a pure function of this config.
    pub seed: u64,
}

impl ChurnConfig {
    /// A workload in the spirit of §6 on the paper topology: 20 Mb/s
    /// dual-periodic sources (2 Mbit / 100 ms, bursts of 0.25 Mbit /
    /// 10 ms at ring speed), deadlines of 80–160 ms, 100 s mean holding
    /// truncated at 300 s.
    ///
    /// # Panics
    ///
    /// Never — the paper-style source parameters are valid.
    #[must_use]
    pub fn paper_style(arrival_rate: f64, requests: usize, seed: u64) -> Self {
        Self {
            shape: TopologyShape::paper(),
            pattern: TrafficPattern::Uniform,
            source_weights: None,
            arrival_rate,
            mean_holding: Seconds::new(100.0),
            max_holding: Seconds::new(300.0),
            deadline: (Seconds::from_millis(80.0), Seconds::from_millis(160.0)),
            source: DualPeriodicEnvelope::new(
                Bits::from_mbits(2.0),
                Seconds::from_millis(100.0),
                Bits::from_mbits(0.25),
                Seconds::from_millis(10.0),
                BitsPerSec::from_mbps(100.0),
            )
            .expect("paper-style source parameters are valid"),
            requests,
            seed,
        }
    }

    /// Checks every parameter [`generate`] relies on: at least two rings
    /// of at least one host, a positive non-inverted deadline range, a
    /// positive arrival rate and holding bounds, one non-negative weight
    /// per ring with a positive sum, and `k ≥ 1` for
    /// [`TrafficPattern::Local`].
    ///
    /// # Errors
    ///
    /// Names the first malformed parameter.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |x: f64| x > 0.0;
        if self.shape.rings < 2 {
            return Err(
                "churn needs at least two rings (intra-ring traffic is out of CAC scope)".into(),
            );
        }
        if self.shape.hosts_per_ring == 0 {
            return Err("need at least one host per ring".into());
        }
        if !(positive(self.deadline.0.value()) && self.deadline.0 <= self.deadline.1) {
            return Err("bad deadline range".into());
        }
        if !positive(self.arrival_rate) {
            return Err("arrival rate must be positive".into());
        }
        if !(positive(self.mean_holding.value()) && positive(self.max_holding.value())) {
            return Err("holding-time mean and bound must be positive".into());
        }
        if let Some(w) = &self.source_weights {
            if w.len() != self.shape.rings {
                return Err("one source weight per ring".into());
            }
            if !(w.iter().all(|&x| x >= 0.0) && positive(w.iter().sum())) {
                return Err("source weights must be non-negative with a positive sum".into());
            }
        }
        if self.pattern == TrafficPattern::Local(0) {
            return Err("Local pattern needs k >= 1".into());
        }
        Ok(())
    }

    /// The arrival rate λ realizing a target mean utilization `U` of one
    /// backbone link: `λ = U · L · μ · C_link / ρ` (the §6 formula; `L`
    /// inter-switch links share the offered load, `ρ` is the source's
    /// sustained rate).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not strictly positive.
    #[must_use]
    pub fn rate_for_utilization(
        utilization: f64,
        links: f64,
        link_rate: BitsPerSec,
        mean_holding: Seconds,
        source: &DualPeriodicEnvelope,
    ) -> f64 {
        assert!(utilization > 0.0, "utilization must be positive");
        let rho = source.sustained_rate().value();
        let mu = 1.0 / mean_holding.value();
        utilization * links * mu * link_rate.value() / rho
    }

    /// The arrival rate λ that drives the *hottest ring* to a target
    /// mean synchronous utilization `U`, under per-ring source weights
    /// `weights` (relative load; pass all-equal for uniform). A ring
    /// with load share `w` sources `λ·w` requests/s, each holding a
    /// mean `alloc_fraction` of the ring's allocatable synchronous
    /// capacity for `mean_holding` seconds, so
    /// `U = λ · max_share · alloc_fraction · mean_holding` and the
    /// returned rate inverts that. For uniform weights over `n` rings
    /// this reduces to `λ = U · n / (alloc_fraction · mean_holding)`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` or `alloc_fraction` is not strictly
    /// positive, or `weights` is empty, negative, or sums to zero.
    #[must_use]
    pub fn rate_for_ring_utilization(
        utilization: f64,
        weights: &[f64],
        alloc_fraction: f64,
        mean_holding: Seconds,
    ) -> f64 {
        assert!(utilization > 0.0, "utilization must be positive");
        assert!(alloc_fraction > 0.0, "allocation fraction must be positive");
        assert!(!weights.is_empty(), "need at least one ring weight");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "ring weights must be non-negative"
        );
        let sum: f64 = weights.iter().sum();
        assert!(sum > 0.0, "ring weights must not all be zero");
        let max_share = weights.iter().cloned().fold(0.0_f64, f64::max) / sum;
        utilization / (max_share * alloc_fraction * mean_holding.value())
    }
}

/// One connection request in the churn stream. Endpoints are raw
/// `(ring, station)` pairs — the service layer maps them onto its
/// network's host ids.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnArrival {
    /// Arrival (request) time.
    pub at: Seconds,
    /// Sending host as `(ring, station)`.
    pub source: (usize, usize),
    /// Receiving host as `(ring, station)`, always on another ring.
    pub dest: (usize, usize),
    /// End-to-end deadline of the request.
    pub deadline: Seconds,
    /// Lifetime if admitted: the connection disconnects at
    /// `at + holding`.
    pub holding: Seconds,
}

/// A fully pre-drawn churn schedule: the arrival stream plus the shared
/// source model.
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    /// Source traffic model shared by every request.
    pub source: DualPeriodicEnvelope,
    /// Requests in nondecreasing time order.
    pub arrivals: Vec<ChurnArrival>,
}

impl ChurnSchedule {
    /// Event-time span from zero to the last arrival.
    #[must_use]
    pub fn span(&self) -> Seconds {
        self.arrivals.last().map_or(Seconds::ZERO, |a| a.at)
    }
}

/// Draws the schedule for `cfg`. Deterministic: equal configs produce
/// bit-identical schedules.
///
/// # Panics
///
/// Panics if [`ChurnConfig::validate`] rejects `cfg`.
#[must_use]
pub fn generate(cfg: &ChurnConfig) -> ChurnSchedule {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let hpr = cfg.shape.hosts_per_ring;
    let hosts = cfg.shape.rings * hpr;
    let mut arrivals = Vec::with_capacity(cfg.requests);
    let mut now = 0.0_f64;
    for _ in 0..cfg.requests {
        now += poisson_interarrival(&mut rng, cfg.arrival_rate).value();
        // Source: uniform over all hosts — or ring-by-weight, station
        // uniform, when heterogeneous load is configured. The unweighted
        // draw is kept verbatim so legacy schedules stay bit-identical.
        let source = match &cfg.source_weights {
            None => {
                let s = pick_index(&mut rng, hosts).expect("hosts > 0");
                (s / hpr, s % hpr)
            }
            Some(w) => {
                let total: f64 = w.iter().sum();
                let mut x = rng.gen_range(0.0..total);
                let mut ring = w.len() - 1;
                for (i, &wi) in w.iter().enumerate() {
                    if x < wi {
                        ring = i;
                        break;
                    }
                    x -= wi;
                }
                (ring, pick_index(&mut rng, hpr).expect("hosts > 0"))
            }
        };
        // Destination: uniform over the pattern's candidate rings.
        let dest = match cfg.pattern {
            TrafficPattern::Uniform => {
                let others = hosts - hpr;
                let mut d = pick_index(&mut rng, others).expect("two or more rings");
                // Skip over the source ring's block of stations.
                if d / hpr >= source.0 {
                    d += hpr;
                }
                (d / hpr, d % hpr)
            }
            TrafficPattern::Paired => {
                let partner = match source.0 % 2 {
                    0 if source.0 + 1 < cfg.shape.rings => source.0 + 1,
                    _ => source.0 - 1,
                };
                (partner, pick_index(&mut rng, hpr).expect("hosts > 0"))
            }
            TrafficPattern::Local(k) => {
                let n = cfg.shape.rings;
                let mut candidates = Vec::with_capacity(2 * k);
                for d in 1..=k.min(n - 1) {
                    for r in [(source.0 + d) % n, (source.0 + n - d) % n] {
                        if r != source.0 && !candidates.contains(&r) {
                            candidates.push(r);
                        }
                    }
                }
                let ring = candidates
                    [pick_index(&mut rng, candidates.len()).expect("at least one neighbor")];
                (ring, pick_index(&mut rng, hpr).expect("hosts > 0"))
            }
        };
        let (dlo, dhi) = (cfg.deadline.0.value(), cfg.deadline.1.value());
        let deadline = Seconds::new(rng.gen_range(dlo..=dhi));
        let holding = bounded_exponential(&mut rng, cfg.mean_holding, cfg.max_holding);
        arrivals.push(ChurnArrival {
            at: Seconds::new(now),
            source,
            dest,
            deadline,
            holding,
        });
    }
    ChurnSchedule {
        source: cfg.source,
        arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChurnConfig {
        ChurnConfig::paper_style(2.0, 200, 11)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&cfg());
        let b = generate(&cfg());
        assert_eq!(a.arrivals, b.arrivals);
        let mut other = cfg();
        other.seed = 12;
        assert_ne!(generate(&other).arrivals, a.arrivals);
    }

    #[test]
    fn arrivals_are_ordered_and_inter_ring() {
        let s = generate(&cfg());
        assert_eq!(s.arrivals.len(), 200);
        for w in s.arrivals.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for a in &s.arrivals {
            assert_ne!(a.source.0, a.dest.0, "same-ring pair generated");
            assert!(a.source.0 < 3 && a.dest.0 < 3);
            assert!(a.source.1 < 4 && a.dest.1 < 4);
            assert!(a.deadline >= Seconds::from_millis(80.0));
            assert!(a.deadline <= Seconds::from_millis(160.0));
            assert!(a.holding.value() > 0.0);
            assert!(a.holding <= Seconds::new(300.0));
        }
        assert_eq!(s.span(), s.arrivals.last().unwrap().at);
    }

    #[test]
    fn interarrival_mean_tracks_rate() {
        let mut c = cfg();
        c.arrival_rate = 10.0;
        c.requests = 5000;
        let s = generate(&c);
        let mean = s.span().value() / s.arrivals.len() as f64;
        assert!((mean - 0.1).abs() < 0.01, "mean interarrival {mean}");
    }

    #[test]
    fn destination_rings_are_roughly_uniform() {
        let mut c = cfg();
        c.requests = 3000;
        let s = generate(&c);
        let mut by_ring = [0usize; 3];
        for a in &s.arrivals {
            by_ring[a.dest.0] += 1;
        }
        for (ring, n) in by_ring.iter().enumerate() {
            assert!((800..1200).contains(n), "ring {ring}: {n} dests");
        }
    }

    #[test]
    fn utilization_rate_formula() {
        let c = cfg();
        let rate = ChurnConfig::rate_for_utilization(
            0.6,
            3.0,
            BitsPerSec::from_mbps(155.0),
            c.mean_holding,
            &c.source,
        );
        // U * L * mu * C / rho = 0.6 * 3 * 0.01 * 155e6 / 20e6
        assert!((rate - 0.6 * 3.0 * 0.01 * 155.0e6 / 20.0e6).abs() < 1e-9);
    }

    #[test]
    fn paired_pattern_decomposes_into_ring_pairs() {
        let mut c = cfg();
        c.shape = TopologyShape {
            rings: 7,
            hosts_per_ring: 3,
        };
        c.pattern = TrafficPattern::Paired;
        c.requests = 500;
        for a in &generate(&c).arrivals {
            let (s, d) = (a.source.0, a.dest.0);
            assert_ne!(s, d);
            if s < 6 {
                assert_eq!(d, s ^ 1, "source {s} left its pair");
            } else {
                assert_eq!(d, 5, "trailing odd ring partners downward");
            }
            assert!(a.source.1 < 3 && a.dest.1 < 3);
        }
    }

    #[test]
    fn local_pattern_stays_in_the_neighborhood() {
        let mut c = cfg();
        c.shape = TopologyShape {
            rings: 10,
            hosts_per_ring: 2,
        };
        c.pattern = TrafficPattern::Local(2);
        c.requests = 500;
        for a in &generate(&c).arrivals {
            let (s, d) = (a.source.0 as isize, a.dest.0 as isize);
            let dist = (s - d).rem_euclid(10).min((d - s).rem_euclid(10));
            assert!((1..=2).contains(&dist), "{s} -> {d} outside Local(2)");
        }
    }

    #[test]
    fn source_weights_skew_the_offered_load() {
        let mut c = cfg();
        c.source_weights = Some(vec![8.0, 1.0, 1.0]);
        c.requests = 2000;
        let mut by_ring = [0usize; 3];
        for a in &generate(&c).arrivals {
            by_ring[a.source.0] += 1;
        }
        assert!(by_ring[0] > 1400, "hot ring underweighted: {by_ring:?}");
        assert!(by_ring[1] > 50 && by_ring[2] > 50, "{by_ring:?}");
    }

    #[test]
    fn ring_utilization_rate_formula() {
        let holding = Seconds::new(100.0);
        // Uniform weights over 4 rings reduce to U * n / (f * T).
        let uniform = ChurnConfig::rate_for_ring_utilization(0.5, &[1.0; 4], 0.02, holding);
        assert!((uniform - 0.5 * 4.0 / (0.02 * 100.0)).abs() < 1e-12);
        // A hot ring holding half the load halves the safe rate.
        let skewed =
            ChurnConfig::rate_for_ring_utilization(0.5, &[3.0, 1.0, 1.0, 1.0], 0.02, holding);
        assert!((skewed - 0.5 / (0.5 * 0.02 * 100.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "two rings")]
    fn one_ring_rejected() {
        let mut c = cfg();
        c.shape.rings = 1;
        let _ = generate(&c);
    }
}
