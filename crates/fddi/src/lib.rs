//! Timed-token FDDI substrate for the FDDI-ATM-FDDI heterogeneous
//! network.
//!
//! FDDI is a 100 Mb/s fiber-optic token ring whose *timed-token* medium
//! access protocol supports hard real-time communication: each station is
//! assigned a *synchronous bandwidth* `H` — a slice of transmission time
//! it may use on every token visit — and the protocol guarantees that the
//! token rotates within `2 · TTRT` (the target token rotation time), so a
//! station is assured at least `(⌊t/TTRT⌋ − 1) · H · BW` bits of service
//! in any backlogged window of length `t`.
//!
//! This crate provides:
//!
//! * [`ring::RingConfig`] — ring parameters (bandwidth, TTRT, the
//!   protocol overhead Δ, walk/propagation times; the propagation time
//!   is the whole of the constant-delay Delay_Line server, §4.3.1);
//! * [`alloc::SyncAllocationTable`] — per-station synchronous-bandwidth
//!   bookkeeping enforcing the protocol constraint `Σ H ≤ TTRT − Δ`
//!   (paper eqs. 26–27);
//! * [`mac`] — the paper's **Theorem 1**: busy interval, buffer
//!   requirement, worst-case delay (∞ on buffer overflow), and output
//!   traffic envelope of the FDDI MAC;
//! * [`frames`] — FDDI frame-format constants and the minimum usable
//!   synchronous allocation;
//! * [`schemes`] — classical FDDI-only synchronous-bandwidth allocation
//!   schemes (used as baselines against the paper's heterogeneous
//!   allocation);
//! * [`ieee8025`] — the §7 extension to IEEE 802.5 token rings.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod error;
pub mod frames;
pub mod ieee8025;
pub mod mac;
pub mod ring;
pub mod schemes;

pub use alloc::SyncAllocationTable;
pub use error::FddiError;
pub use mac::{analyze_fddi_mac, DelayOutcome, MacReport};
pub use ring::{RingConfig, StationId, SyncBandwidth};
