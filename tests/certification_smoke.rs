//! Tier-1 smoke tests for the dense evaluator's envelope kernels and
//! for closure-scoped admission.
//!
//! The first replays the first 40 arrivals of the paper-style churn
//! workload pinned by `crates/service/tests/dense_golden.rs`, once with
//! the fast admission ladder and once with every decision on the dense
//! eq.-7 evaluator. Both audits must be identical and must equal the
//! golden file's first 40 lines bit for bit, so a kernel change that
//! moves a decision fails plain `cargo test`, not only the per-crate
//! gates.
//!
//! The second runs 40 arrivals of the full-network closure oracle
//! (`crates/service/tests/closure_oracle.rs`) on a grid with
//! neighbour-ring traffic, so a wrong dependency closure fails plain
//! `cargo test` too.

#[path = "../crates/service/tests/support/closure.rs"]
mod closure;
#[path = "../crates/service/tests/support/dense.rs"]
mod dense;

use hetnet_cac::network::HetNetwork;
use hetnet_sim::churn::TrafficPattern;
use std::path::Path;

const ARRIVALS: usize = 40;

#[test]
fn fast_and_dense_audits_match_the_golden_prefix() {
    let fast = dense::run(ARRIVALS, true);
    let dense_only = dense::run(ARRIVALS, false);
    assert_eq!(fast.len(), ARRIVALS, "one audit entry per arrival");
    assert_eq!(fast, dense_only, "the fast path changed a decision");

    let golden = dense::read_golden(
        &Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/service/tests/golden/dense_decisions.txt"),
    );
    assert!(
        golden.len() >= ARRIVALS,
        "golden shorter than the smoke run"
    );
    for (i, (got, want)) in fast.iter().zip(&golden).enumerate() {
        assert_eq!(got, want, "decision {i} drifted from the dense golden");
    }
}

#[test]
fn grid_decisions_match_the_full_network_oracle() {
    let cfg = closure::grid_config(8, TrafficPattern::Local(1), ARRIVALS, 11);
    let checked = closure::check(HetNetwork::grid(8, 3), &cfg);
    assert!(checked.admissions > 0, "no admission was checked");
    assert!(
        checked.narrowed > 0,
        "no admission was decided over less than the whole network"
    );
}
