//! Decision golden at scale for the dense evaluator.
//!
//! Pins the audit of the first 150 arrivals of a paper-style churn run
//! (seed 42, β-search under `CacConfig::fast()`, tracing off): the
//! `to_bits` hex of every admitted `h_s`/`h_r`/delay bound and every
//! rejection's class and detail. Most of these decisions run β-search
//! probes through the dense eq.-7 evaluator (Theorem-1 busy-interval
//! searches, Theorem-2 segmentation, mux analysis), so an envelope-kernel
//! change that moves a single float shows up here as a diff.
//!
//! Regenerate after an intentional behaviour change:
//!
//! ```text
//! DENSE_GOLDEN_WRITE=1 cargo test --release -p hetnet-service --test dense_golden
//! ```

#[path = "support/dense.rs"]
mod dense;

use std::path::Path;

const ARRIVALS: usize = 150;

#[test]
fn dense_decisions_match_golden() {
    let rendered = dense::run(ARRIVALS, true);
    assert_eq!(rendered.len(), ARRIVALS, "one audit entry per arrival");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dense_decisions.txt");
    if std::env::var_os("DENSE_GOLDEN_WRITE").is_some() {
        let mut text = rendered.join("\n");
        text.push('\n');
        std::fs::write(&path, text).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = dense::read_golden(&path);
    for (i, (got, want)) in rendered.iter().zip(&golden).enumerate() {
        assert_eq!(
            got,
            want,
            "decision {i} drifted from {}; if intentional, regenerate with DENSE_GOLDEN_WRITE=1",
            path.display()
        );
    }
    assert_eq!(rendered.len(), golden.len(), "golden length");
}
