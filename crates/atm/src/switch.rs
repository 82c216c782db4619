//! ATM switch parameters.
//!
//! A cell crossing a switch pays (1) a fixed switching latency through
//! the fabric, (2) queueing at the output port (analyzed by the port's
//! scheduler, [`crate::sched`]), (3) one store-and-forward cell
//! transmission time, and (4) the link's propagation delay. This module
//! holds the switch's own part, the fabric latency.

use hetnet_traffic::units::Seconds;
use serde::{Deserialize, Serialize};

/// Fixed parameters of one switch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// Fixed fabric latency from input port to output queue.
    pub fabric_latency: Seconds,
}

impl SwitchConfig {
    /// A typical mid-1990s ATM switch with 10 µs fabric latency.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            fabric_latency: Seconds::from_micros(10.0),
        }
    }
}

impl Default for SwitchConfig {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_switch_is_typical() {
        assert_eq!(SwitchConfig::default(), SwitchConfig::typical());
    }
}
