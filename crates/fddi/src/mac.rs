//! The FDDI_MAC server — the paper's Theorem 1.
//!
//! A host's FDDI MAC, holding a synchronous allocation `H` on a ring with
//! target token rotation time `TTRT` and bandwidth `BW`, guarantees the
//! availability function
//!
//! `avail(t) = max(0, (⌊t/TTRT⌋ − 1) · H · BW)`.
//!
//! Feeding a connection with envelope `Γ_{i,j,A}` into this service
//! yields (Theorem 1): the maximum busy interval `B`, the maximum buffer
//! requirement `F`, the worst-case delay `χ` — **infinite** if `F`
//! exceeds the MAC's transmit buffer — and the envelope `Υ` of the
//! traffic as it leaves the host onto the ring, capped by the ring rate.

use crate::error::FddiError;
use crate::ring::{RingConfig, SyncBandwidth};
use hetnet_traffic::analysis::{analyze_guaranteed_server, AnalysisConfig, ServerOutput};
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::service::StaircaseService;
use hetnet_traffic::units::{Bits, Seconds};
use std::sync::Arc;

/// The worst-case delay of the MAC: bounded, or infinite because the
/// transmit buffer would overflow (Theorem 1.3's `∞` branch).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayOutcome {
    /// The worst-case delay χ.
    Bounded(Seconds),
    /// The buffer requirement exceeds the available buffer, so packets
    /// can be lost and the delay is unbounded.
    BufferOverflow {
        /// Bits of buffer required for loss-free operation.
        required: Bits,
        /// Bits of buffer available.
        available: Bits,
    },
}

impl DelayOutcome {
    /// The bounded delay, or `None` on overflow.
    #[must_use]
    pub fn bounded(self) -> Option<Seconds> {
        match self {
            Self::Bounded(d) => Some(d),
            Self::BufferOverflow { .. } => None,
        }
    }
}

/// Result of analyzing one connection at its FDDI MAC (Theorem 1).
#[derive(Debug, Clone)]
pub struct MacReport {
    /// Maximum busy interval `B` (Theorem 1.1).
    pub busy_interval: Seconds,
    /// Maximum buffer requirement `F` (Theorem 1.2).
    pub buffer_required: Bits,
    /// Worst-case delay `χ`, or overflow (Theorem 1.3).
    pub delay: DelayOutcome,
    /// Output traffic envelope `Υ`, capped at the ring bandwidth
    /// (Theorem 1.4).
    pub output: Arc<ServerOutput>,
}

/// The availability curve of a MAC holding allocation `h` on `ring`.
#[must_use]
pub fn mac_service(ring: &RingConfig, h: SyncBandwidth) -> StaircaseService {
    StaircaseService::timed_token(ring.ttrt, h.quantum(ring.bandwidth))
}

/// Analyzes connection traffic `input` at an FDDI MAC holding synchronous
/// allocation `h` on `ring`, with transmit buffer `buffer` (use `None`
/// for an unbounded buffer).
///
/// # Errors
///
/// Returns [`FddiError::Analysis`] if the flow is unstable at this
/// allocation (`ρ ≥ H·BW/TTRT`) or the busy-interval search fails, and
/// [`FddiError::InvalidConfig`] for degenerate inputs (`h = 0`).
pub fn analyze_fddi_mac(
    input: SharedEnvelope,
    ring: &RingConfig,
    h: SyncBandwidth,
    buffer: Option<Bits>,
    cfg: &AnalysisConfig,
) -> Result<MacReport, FddiError> {
    if h.per_rotation().value() <= 0.0 {
        return Err(FddiError::InvalidConfig(
            "synchronous allocation must be positive".into(),
        ));
    }
    ring.validate().map_err(FddiError::InvalidConfig)?;

    let service = mac_service(ring, h);
    let report = analyze_guaranteed_server(&input, &service, cfg)?;

    let delay = match buffer {
        Some(avail) if report.backlog_bound > avail => DelayOutcome::BufferOverflow {
            required: report.backlog_bound,
            available: avail,
        },
        _ => DelayOutcome::Bounded(report.delay_bound),
    };

    let output = Arc::new(ServerOutput::new(
        input,
        Arc::new(service),
        report.busy_interval,
        Some(ring.bandwidth),
        cfg,
    ));

    Ok(MacReport {
        busy_interval: report.busy_interval,
        buffer_required: report.backlog_bound,
        delay,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet_traffic::envelope::Envelope;
    use hetnet_traffic::models::{DualPeriodicEnvelope, PeriodicEnvelope};
    use hetnet_traffic::units::BitsPerSec;
    use hetnet_traffic::TrafficError;

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    fn ring() -> RingConfig {
        RingConfig::standard()
    }

    /// The paper-style dual-periodic source: 2 Mbit / 100 ms with
    /// 0.25 Mbit / 10 ms bursts at ring speed.
    fn source() -> SharedEnvelope {
        Arc::new(
            DualPeriodicEnvelope::new(
                Bits::from_mbits(2.0),
                Seconds::from_millis(100.0),
                Bits::from_mbits(0.25),
                Seconds::from_millis(10.0),
                BitsPerSec::from_mbps(100.0),
            )
            .unwrap(),
        )
    }

    #[test]
    fn paper_source_at_generous_allocation() {
        // H = 2.4 ms/rotation -> 0.24 Mbit per 8 ms = 30 Mb/s > 20 Mb/s.
        let h = SyncBandwidth::new(Seconds::from_millis(2.4));
        let r = analyze_fddi_mac(source(), &ring(), h, None, &cfg()).unwrap();
        let d = r.delay.bounded().expect("no buffer limit given");
        // Sanity: a couple of rotations at least (token latency), well
        // under the 100 ms period.
        assert!(d.as_millis() >= 16.0, "delay {d}");
        assert!(d.as_millis() < 60.0, "delay {d}");
        assert!(r.buffer_required.value() > 0.0);
        assert!(r.busy_interval.value() > 0.0);
    }

    #[test]
    fn delay_shrinks_with_more_bandwidth() {
        let mut prev = f64::INFINITY;
        for ms in [1.8, 2.4, 3.6, 4.8] {
            let h = SyncBandwidth::new(Seconds::from_millis(ms));
            let r = analyze_fddi_mac(source(), &ring(), h, None, &cfg()).unwrap();
            let d = r.delay.bounded().unwrap().value();
            assert!(d <= prev + 1e-9, "H={ms}ms: {d} > {prev}");
            prev = d;
        }
    }

    #[test]
    fn undersized_allocation_is_unstable() {
        // 20 Mb/s long-term demand vs 1 ms/rotation = 12.5 Mb/s service.
        let h = SyncBandwidth::new(Seconds::from_millis(1.0));
        let err = analyze_fddi_mac(source(), &ring(), h, None, &cfg()).unwrap_err();
        assert!(matches!(
            err,
            FddiError::Analysis(TrafficError::Unstable { .. })
        ));
    }

    #[test]
    fn buffer_overflow_reported_as_unbounded_delay() {
        let h = SyncBandwidth::new(Seconds::from_millis(2.4));
        let unbounded = analyze_fddi_mac(source(), &ring(), h, None, &cfg()).unwrap();
        let needed = unbounded.buffer_required;
        // A buffer smaller than required flips the outcome to overflow.
        let small = Bits::new(needed.value() * 0.5);
        let r = analyze_fddi_mac(source(), &ring(), h, Some(small), &cfg()).unwrap();
        assert!(matches!(r.delay, DelayOutcome::BufferOverflow { .. }));
        assert_eq!(r.delay.bounded(), None);
        // A buffer at least as large keeps it bounded.
        let big = Bits::new(needed.value() * 1.5);
        let r = analyze_fddi_mac(source(), &ring(), h, Some(big), &cfg()).unwrap();
        assert!(r.delay.bounded().is_some());
    }

    #[test]
    fn output_capped_at_ring_bandwidth() {
        let h = SyncBandwidth::new(Seconds::from_millis(2.4));
        let r = analyze_fddi_mac(source(), &ring(), h, None, &cfg()).unwrap();
        for k in 1..50 {
            let i = Seconds::from_micros(k as f64 * 37.0);
            let max = ring().bandwidth * i;
            assert!(
                r.output.arrivals(i) <= max + Bits::new(1e-6),
                "output exceeds ring rate at {i}"
            );
        }
    }

    #[test]
    fn zero_allocation_rejected() {
        let err =
            analyze_fddi_mac(source(), &ring(), SyncBandwidth::ZERO, None, &cfg()).unwrap_err();
        assert!(matches!(err, FddiError::InvalidConfig(_)));
    }

    #[test]
    fn tighter_ttrt_lowers_token_latency_delay() {
        // Same service rate (H/TTRT fixed), smaller TTRT => smaller delay
        // for a light periodic flow.
        let src: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(
                Bits::from_kbits(10.0),
                Seconds::from_millis(50.0),
                BitsPerSec::from_mbps(100.0),
            )
            .unwrap(),
        );
        let mut prev = f64::INFINITY;
        for ttrt_ms in [16.0, 8.0, 4.0] {
            let ring = RingConfig {
                ttrt: Seconds::from_millis(ttrt_ms),
                overhead: Seconds::from_millis(0.1 * ttrt_ms),
                ..RingConfig::standard()
            };
            let h = SyncBandwidth::new(Seconds::from_millis(0.25 * ttrt_ms));
            let d = analyze_fddi_mac(Arc::clone(&src), &ring, h, None, &cfg())
                .unwrap()
                .delay
                .bounded()
                .unwrap()
                .value();
            assert!(d <= prev + 1e-12, "TTRT={ttrt_ms}ms: {d} > {prev}");
            prev = d;
        }
    }
}
