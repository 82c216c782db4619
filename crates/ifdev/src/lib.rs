//! Interface devices: the LAN–ATM edge of the heterogeneous network.
//!
//! An interface device (ID) bridges an FDDI ring and the ATM backbone.
//! The paper decomposes the sender-side device (ID_S, §4.3.2) into four
//! simple servers — an input port, a frame switch, a
//! frame→cell-conversion server (Theorem 2), and an ATM output port —
//! and the receiver-side device (ID_R, §4.3.3) into the mirror image,
//! with cells reassembled into FDDI frames and transmitted onto the
//! destination ring using the device's synchronous allocation.
//!
//! * [`config::IfDevConfig`] — the constant per-stage delays ("measured
//!   or specified by the manufacturer", as the paper puts it);
//! * [`segmentation`] — Theorem 2: the envelope of the cell stream
//!   produced from a frame stream;
//! * [`reassembly`] — the cell→frame transform on the receive side.
//!
//! The ATM output port of ID_S is an ordinary switch output port and is
//! analyzed by [`hetnet_atm::sched`]; the FDDI transmission of ID_R is an
//! ordinary timed-token MAC and is analyzed by [`hetnet_fddi::mac`]. The
//! end-to-end composition lives in the `hetnet-cac` crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod reassembly;
pub mod segmentation;

pub use config::IfDevConfig;
pub use reassembly::{reassemble_envelope, ReassemblyReport};
pub use segmentation::{segment_envelope, SegmentationReport};
