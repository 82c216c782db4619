//! ATM backbone substrate for the FDDI-ATM-FDDI heterogeneous network.
//!
//! The ATM backbone interconnects the legacy LAN segments: a collection
//! of switches joined by point-to-point links, moving fixed-size 53-byte
//! cells. Cells of different connections multiplex FIFO onto shared
//! output links; bounding the delay of that multiplexing — given each
//! connection's traffic envelope at the port — is the core analysis the
//! paper adopts from Raha-Kamat-Zhao (refs. [2, 14, 15]).
//!
//! * [`cell`] — the 53/48-byte cell format and payload↔wire conversions;
//! * [`link`] — link rate/propagation parameters;
//! * [`sched`] — worst-case output-port analyses behind the
//!   [`SchedulerAnalysis`] trait (busy period, delay bound, backlog,
//!   per-flow output envelopes): the paper's FIFO multiplexer, IWRR,
//!   and DRR;
//! * [`affine`] — closed-form `(σ, ρ)` over-approximations of the mux
//!   analysis used by the admission fast path;
//! * [`switch`] — switch parameters (the fixed fabric latency a cell
//!   pays besides port queueing and store-and-forward);
//! * [`topology`] — backbone graphs (the paper's three-switch backbone,
//!   lines, fully-meshed rings) and minimum-hop routing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affine;
pub mod cell;
pub mod error;
pub mod link;
pub mod sched;
pub mod switch;
pub mod topology;

pub use affine::{fifo_bounds, AffineBound, FifoBounds};
pub use error::AtmError;
pub use link::LinkConfig;
pub use sched::{ClassedFlow, SchedReport, Scheduler, SchedulerAnalysis};
pub use switch::SwitchConfig;
pub use topology::{Backbone, LinkId, SwitchId};
