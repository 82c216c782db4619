//! Closure-scoped admission against a full-network oracle.
//!
//! The sequential and sharded engines both decide each request over its
//! dependency closure, so their replay equivalence
//! (`sharded_replay.rs`) no longer compares against an unscoped
//! computation. These faulted, readmitting grid runs check every
//! arrival decision against the stateless evaluator over the entire
//! active set instead (see `support/closure.rs`).

#[path = "support/closure.rs"]
mod closure;

use hetnet_cac::network::HetNetwork;
use hetnet_sim::churn::TrafficPattern;

const RINGS: usize = 8;
const ARRIVALS: usize = 200;

fn check(pattern: TrafficPattern, seed: u64) {
    let cfg = closure::grid_config(RINGS, pattern, ARRIVALS, seed);
    let checked = closure::check(HetNetwork::grid(RINGS, 3), &cfg);
    eprintln!("{pattern:?} seed {seed}: {checked:?}");
    assert!(checked.admissions > 0, "no admission was checked");
    assert!(
        checked.narrowed > 0,
        "no admission was decided over less than the whole network"
    );
    assert!(
        checked.infeasible_rejects > 0,
        "no reject at the maximum allocation was checked"
    );
}

#[test]
fn paired_grid_decisions_match_the_full_network() {
    check(TrafficPattern::Paired, 7);
}

#[test]
fn local_grid_decisions_match_the_full_network() {
    check(TrafficPattern::Local(1), 11);
}
