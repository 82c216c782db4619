//! Event-driven admission *service* over the β-CAC.
//!
//! The core crate decides one request at a time; a deployed controller
//! lives with *churn* — a continuous stream of connection requests and
//! teardowns. This crate closes that gap:
//!
//! * [`engine`] — consumes a seeded churn schedule
//!   ([`hetnet_sim::churn`]) as a merged connect/disconnect/fault
//!   event stream, driving one [`hetnet_cac::cac::NetworkState`] with
//!   a persistent evaluator cache; supports checkpointing a run to a
//!   [`hetnet_cac::snapshot::StateSnapshot`] and deterministically
//!   recovering it against the audit-log tail
//!   ([`engine::verify_recovery`]);
//! * [`observability`] — the run's metrics registry, the only store of
//!   per-decision metrics: each engine writes every decision once
//!   (outcome and rejection class, latency, closure size, evaluator
//!   cache lookups, fast-ladder probes and their causes, and — when
//!   tracing — the eq.-7 delay attribution), and the report, the
//!   telemetry frames, and `hetnet-top` all read it back;
//! * [`metrics`] — the report-side shapes read back from it, the fault
//!   and reconfiguration accounting, and a sampled ring-utilization
//!   time series;
//! * [`audit`] — an append-only, decision-ordered audit log detailed
//!   enough to replay the run and check bit-identical outcomes;
//! * [`report`] — the aggregate [`report::ServiceReport`] with a
//!   hand-written JSON rendering for the bench tooling.
//!
//! Every decision the service makes is exactly the decision the bare
//! state machine would make in the same event order — the engine adds
//! scheduling and observability, never policy. The
//! `churn_replay` integration test holds this as a property over
//! random seeds and rates.
//!
//! ```
//! use hetnet_cac::network::HetNetwork;
//! use hetnet_service::{run, ServiceConfig};
//!
//! let cfg = ServiceConfig::paper_style(0.5, 20, 42);
//! let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
//! assert_eq!(run.report.requests, 20);
//! assert_eq!(run.audit.len(), 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod engine;
pub mod metrics;
pub mod observability;
pub mod report;
pub mod sharded;

pub use audit::{AuditEntry, AuditKind, AuditLog, AuditOutcome};
pub use engine::{
    entries_equivalent, run, verify_recovery, EngineCheckpoint, ReconfigEvent, ServiceConfig,
    ServiceEngine, ServiceRun,
};
pub use metrics::{
    BindingCounters, DecisionCounters, ReconfigMetrics, RecoveryMetrics, UtilizationSample,
    UtilizationSeries,
};
pub use observability::{ObsOptions, TelemetryFrame};
pub use report::{LatencySummary, ServiceReport, StageDelaySummary};
pub use sharded::{
    run_sharded, runs_equivalent, sharded_runs_equivalent, ShardedEngine, ShardedRun, ShardingStats,
};
