//! Traffic envelopes, service curves, and worst-case server analysis for
//! real-time communication networks.
//!
//! This crate implements the traffic-description and server-analysis
//! machinery that the FDDI-ATM-FDDI connection admission control of
//! Chen, Sahoo, Zhao and Raha (ICDCS 1997) is built on:
//!
//! * **Traffic envelopes** — the *maximum rate function* Γ(I), the maximum
//!   arrival rate of a connection in any interval of length `I`. We work
//!   with the equivalent *arrival envelope* `A(I) = I · Γ(I)` (maximum
//!   number of bits arriving in any interval of length `I`), which is the
//!   form every calculation in the paper actually consumes. See
//!   [`Envelope`].
//! * **Traffic models** — the dual-periodic source model of the paper's
//!   evaluation (eq. 37), plus the single-periodic, leaky-bucket and
//!   constant-rate models it generalizes. See [`models`].
//! * **Envelope combinators** — sums, delay shifts, rate caps, scalings and
//!   frame/cell quantizations used to describe a connection's traffic *as
//!   seen inside the network*, after it has traversed servers. See
//!   [`combinators`].
//! * **Service curves** — lower bounds on the service a network element
//!   guarantees, e.g. the timed-token staircase `(⌊t/TTRT⌋ − 1)·H·BW` of
//!   an FDDI MAC. See [`service`].
//! * **Server analysis** — the busy-interval / backlog / delay analysis of
//!   a guaranteed-service server (the generic form of the paper's
//!   Theorem 1) and the envelope of its output traffic. See [`analysis`].
//!
//! # Example
//!
//! Worst-case delay of a dual-periodic source served by a timed-token MAC:
//!
//! ```
//! use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
//! use hetnet_traffic::models::DualPeriodicEnvelope;
//! use hetnet_traffic::service::StaircaseService;
//! use hetnet_traffic::analysis::{analyze_guaranteed_server, AnalysisConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 2 Mbit in every 100 ms, bursts of 0.25 Mbit in every 10 ms,
//! // emitted at a 100 Mb/s peak rate.
//! let source = DualPeriodicEnvelope::new(
//!     Bits::new(2.0e6), Seconds::from_millis(100.0),
//!     Bits::new(0.25e6), Seconds::from_millis(10.0),
//!     BitsPerSec::from_mbps(100.0),
//! )?;
//! // A synchronous allocation worth 0.4 Mbit of transmission each 8 ms
//! // token rotation, available from the second rotation onwards.
//! let mac = StaircaseService::timed_token(Seconds::from_millis(8.0), Bits::new(0.4e6));
//! let report = analyze_guaranteed_server(&source, &mac, &AnalysisConfig::default())?;
//! assert!(report.delay_bound > Seconds::ZERO);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod approx;
pub mod combinators;
pub mod envelope;
pub mod error;
pub mod models;
pub mod service;
pub mod units;

#[cfg(test)]
mod exactness;

pub use analysis::{analyze_guaranteed_server, AnalysisConfig, ServerAnalysis};
pub use envelope::{Envelope, EnvelopeDescriptor, SharedEnvelope};
pub use error::TrafficError;
pub use service::ServiceCurve;
pub use units::{Bits, BitsPerSec, Seconds};
