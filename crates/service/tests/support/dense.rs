//! Bit-exact rendering of a paper-style churn run's audit log, shared by
//! the dense-evaluator golden (`crates/service/tests/dense_golden.rs`)
//! and the workspace-root certification smoke test, which checks its
//! shorter run against a prefix of the same golden file.
//!
//! Every float is pinned by its `to_bits` hex, so any change in the
//! envelope kernels that moves a single decision bit shows up as a diff.

use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::network::HetNetwork;
use hetnet_service::{AuditLog, AuditOutcome, ServiceConfig};
use std::fmt::Write as _;
use std::path::Path;

/// The golden's workload: the paper topology under paper-style churn at
/// 0.1 arrivals/s (seed 42), β-search with `CacConfig::fast()`, decision
/// tracing off.
pub fn config(arrivals: usize, fast_path: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig::paper_style(0.1, arrivals, 42);
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    cfg.trace_decisions = false;
    cfg.fast_path = fast_path;
    cfg
}

/// Runs `arrivals` arrivals of the golden workload and renders the audit.
pub fn run(arrivals: usize, fast_path: bool) -> Vec<String> {
    let cfg = config(arrivals, fast_path);
    let run = hetnet_service::run(HetNetwork::paper_topology(), &cfg).expect("churn run");
    render(&run.audit)
}

/// One line per audit entry, floats as `to_bits` hex.
pub fn render(log: &AuditLog) -> Vec<String> {
    log.entries()
        .iter()
        .map(|e| {
            let mut line = format!(
                "seq={} {} arrival={} at={:016x} src={}.{} dst={}.{} deadline={:016x} ",
                e.seq,
                e.kind.name(),
                e.arrival,
                e.at.value().to_bits(),
                e.source.0,
                e.source.1,
                e.dest.0,
                e.dest.1,
                e.deadline.to_bits(),
            );
            match &e.outcome {
                AuditOutcome::Admitted {
                    id,
                    h_s,
                    h_r,
                    delay_bound,
                } => {
                    let _ = write!(
                        line,
                        "admitted id={} h_s={:016x} h_r={:016x} delay={:016x}",
                        id.0,
                        h_s.to_bits(),
                        h_r.to_bits(),
                        delay_bound.to_bits()
                    );
                }
                AuditOutcome::Rejected { class, detail } => {
                    let _ = write!(line, "rejected class={class} detail={detail}");
                }
                AuditOutcome::Reconfigured {
                    renegotiated,
                    dropped,
                    unchanged,
                } => {
                    let _ = write!(
                        line,
                        "reconfigured renegotiated={renegotiated} dropped={dropped} \
                         unchanged={unchanged}"
                    );
                }
            }
            line
        })
        .collect()
}

/// Reads the golden file's lines.
pub fn read_golden(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with DENSE_GOLDEN_WRITE=1",
            path.display()
        )
    });
    text.lines().map(str::to_owned).collect()
}
