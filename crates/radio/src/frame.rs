//! 802.11ad PPDU framing and airtime.
//!
//! A video frame is not one giant transmission: it is fragmented into
//! PPDUs, each paying fixed preamble/header overhead before its payload
//! bits flow at the MCS rate. At multi-Gb/s rates this overhead is what
//! separates PHY rate from goodput, so the session simulator uses these
//! airtimes rather than the bare ladder rate.
//!
//! Durations follow the 802.11ad single-carrier PHY structure: a short
//! training field + channel estimation (~1.9 µs together), a header
//! (~0.6 µs), then payload symbol blocks, plus a short inter-frame space
//! between PPDUs.

use crate::mcs::McsEntry;
use movr_math::convert::{f64_to_u64, u64_to_f64};
use movr_sim::SimTime;

/// Fixed per-PPDU overhead and limits.
#[derive(Debug, Clone, Copy)]
pub struct FrameConfig {
    /// Preamble (STF + CEF) duration, ns.
    pub preamble_ns: u64,
    /// PHY header duration, ns.
    pub header_ns: u64,
    /// Short inter-frame space between PPDUs, ns.
    pub sifs_ns: u64,
    /// Maximum PPDU payload, bits.
    pub max_psdu_bits: u64,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig {
            preamble_ns: 1_891,
            header_ns: 582,
            sifs_ns: 3_000,
            // 262 143 octets is the standard's PSDU cap.
            max_psdu_bits: 262_143 * 8,
        }
    }
}

impl FrameConfig {
    /// Airtime of a single PPDU carrying `payload_bits` at `mcs`.
    pub fn ppdu_airtime(&self, mcs: &McsEntry, payload_bits: u64) -> SimTime {
        debug_assert!(payload_bits <= self.max_psdu_bits);
        let payload_ns = f64_to_u64((u64_to_f64(payload_bits) / mcs.rate_mbps * 1_000.0).ceil());
        SimTime::from_nanos(self.preamble_ns + self.header_ns + payload_ns)
    }

    /// Number of PPDUs needed for `total_bits`.
    pub fn ppdu_count(&self, total_bits: u64) -> u64 {
        total_bits.div_ceil(self.max_psdu_bits)
    }

    /// Total airtime to move `total_bits` at `mcs`, including per-PPDU
    /// overhead and inter-frame spacing.
    pub fn burst_airtime(&self, mcs: &McsEntry, total_bits: u64) -> SimTime {
        if total_bits == 0 {
            return SimTime::ZERO;
        }
        let n = self.ppdu_count(total_bits);
        let full = n - 1;
        let rem = total_bits - full * self.max_psdu_bits;
        let mut total = 0u64;
        for _ in 0..full {
            total += self.ppdu_airtime(mcs, self.max_psdu_bits).as_nanos();
        }
        total += self.ppdu_airtime(mcs, rem).as_nanos();
        total += self.sifs_ns * (n - 1);
        SimTime::from_nanos(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::RateTable;

    fn top_mcs() -> &'static McsEntry {
        RateTable.entries().last().unwrap()
    }

    #[test]
    fn single_ppdu_airtime_is_overhead_plus_payload() {
        let cfg = FrameConfig::default();
        let m = top_mcs();
        let t = cfg.ppdu_airtime(m, 1_000_000);
        let payload_ns = (1_000_000.0 / m.rate_mbps * 1000.0).ceil() as u64;
        assert_eq!(
            t.as_nanos(),
            cfg.preamble_ns + cfg.header_ns + payload_ns
        );
    }

    #[test]
    fn ppdu_count_rounds_up() {
        let cfg = FrameConfig::default();
        assert_eq!(cfg.ppdu_count(1), 1);
        assert_eq!(cfg.ppdu_count(cfg.max_psdu_bits), 1);
        assert_eq!(cfg.ppdu_count(cfg.max_psdu_bits + 1), 2);
        assert_eq!(cfg.ppdu_count(3 * cfg.max_psdu_bits), 3);
    }

    #[test]
    fn burst_airtime_exceeds_ideal() {
        let cfg = FrameConfig::default();
        let m = top_mcs();
        // A 44.4 Mbit VR frame.
        let bits = 44_400_000u64;
        let t = cfg.burst_airtime(m, bits);
        let ideal = bits as f64 / (m.rate_mbps * 1e6);
        assert!(t.as_secs_f64() > ideal);
        // ...but the overhead stays modest (< 10 %).
        assert!(t.as_secs_f64() < ideal * 1.10, "t={t} ideal={ideal}");
    }

    #[test]
    fn zero_bits_zero_airtime() {
        let cfg = FrameConfig::default();
        assert_eq!(cfg.burst_airtime(top_mcs(), 0), SimTime::ZERO);
    }
}
