//! The churn workloads: their networks, schedules, and why each was
//! chosen (see `perfbench/README.md`).

use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::network::HetNetwork;
use hetnet_service::ServiceConfig;
use hetnet_sim::churn::{ChurnConfig, TopologyShape, TrafficPattern};
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};

/// Rings of the grid topology.
const GRID_RINGS: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §6 setting on the 3-ring topology, sequential engine.
    PaperChurn,
    /// 64-ring grid with faults and readmission, sequential engine;
    /// certified against (and traced through) the sharded engine.
    GridChurn,
}

impl Workload {
    pub const ALL: [Self; 2] = [Self::PaperChurn, Self::GridChurn];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperChurn => "paper_churn",
            Self::GridChurn => "grid_churn",
        }
    }

    /// The seed used when `--seed` is not given: 42 is the seed of the
    /// paper-style runs throughout the repository (figures, examples,
    /// `churn_replay`); 424242 is the seed of `bench_json`'s
    /// `shard_scale` and `obs_sharded` sections, whose grid schedule
    /// `grid_churn` replays at 64 rings.
    pub fn default_seed(self) -> u64 {
        match self {
            Self::PaperChurn => 42,
            Self::GridChurn => 424_242,
        }
    }

    /// Arrivals in one replay pass. `paper_churn` needs 1000 so that
    /// ten samples lie beyond its p99 in a single pass, and 1200 narrow
    /// the seed-to-seed spread of its step mix. The grid
    /// workload holds ~800 connections at steady state (10 arrivals/s,
    /// 80 s mean holding, 240 s cap); 3000 arrivals span ~300 s, so the
    /// second half of a pass runs above 90% of that occupancy.
    pub fn arrivals(self) -> usize {
        match self {
            Self::PaperChurn => 1200,
            Self::GridChurn => 3000,
        }
    }

    pub fn network(self) -> HetNetwork {
        match self {
            Self::PaperChurn => HetNetwork::paper_topology(),
            Self::GridChurn => HetNetwork::grid(GRID_RINGS, 3),
        }
    }

    pub fn config(self, seed: u64) -> ServiceConfig {
        let arrivals = self.arrivals();
        match self {
            Self::PaperChurn => {
                let mut cfg = ServiceConfig::paper_style(0.1, arrivals, seed);
                cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
                cfg.trace_decisions = false;
                cfg
            }
            Self::GridChurn => grid_config(seed, arrivals),
        }
    }
}

/// The grid schedule of `bench_json`'s `shard_scale` section at 64
/// rings and 10 arrivals/s, plus the paper-style fault schedule.
fn grid_config(seed: u64, arrivals: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::paper_style(1.0, arrivals, seed);
    cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings: GRID_RINGS,
            hosts_per_ring: 3,
        },
        pattern: TrafficPattern::Paired,
        source_weights: None,
        arrival_rate: 10.0,
        mean_holding: Seconds::new(80.0),
        max_holding: Seconds::new(240.0),
        deadline: (Seconds::from_millis(300.0), Seconds::from_millis(500.0)),
        source: DualPeriodicEnvelope::new(
            Bits::from_mbits(0.002),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.0005),
            Seconds::from_millis(25.0),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid grid envelope"),
        requests: arrivals,
        seed,
    };
    let mut cac = CacConfig::fast().with_beta(0.0);
    cac.min_frame_efficiency = 0.8;
    cfg.options = AdmissionOptions::beta_search(cac);
    cfg.sample_period = 64;
    cfg.trace_decisions = false;
    cfg.faults = Some(FaultConfig::paper_style(seed));
    cfg.readmit = true;
    cfg
}
