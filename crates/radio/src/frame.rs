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
//! between PPDUs. They are the standard's, so they are constants.

use crate::mcs::McsEntry;
use movr_math::convert::{f64_to_u64, u64_to_f64};
use movr_sim::SimTime;

/// Preamble (STF + CEF) duration, ns.
pub const PREAMBLE_NS: u64 = 1_891;
/// PHY header duration, ns.
pub const HEADER_NS: u64 = 582;
/// Short inter-frame space between PPDUs, ns.
pub const SIFS_NS: u64 = 3_000;
/// Maximum PPDU payload, bits: the standard's PSDU cap of 262 143
/// octets.
pub const MAX_PSDU_BITS: u64 = 262_143 * 8;

/// Airtime of a single PPDU carrying `payload_bits` at `mcs`.
pub fn ppdu_airtime(mcs: &McsEntry, payload_bits: u64) -> SimTime {
    debug_assert!(payload_bits <= MAX_PSDU_BITS);
    let payload_ns = f64_to_u64((u64_to_f64(payload_bits) / mcs.rate_mbps * 1_000.0).ceil());
    SimTime::from_nanos(PREAMBLE_NS + HEADER_NS + payload_ns)
}

/// Number of PPDUs needed for `total_bits`.
pub fn ppdu_count(total_bits: u64) -> u64 {
    total_bits.div_ceil(MAX_PSDU_BITS)
}

/// Total airtime to move `total_bits` at `mcs`, including per-PPDU
/// overhead and inter-frame spacing: every PPDU but the last is full,
/// and each of those is followed by a SIFS.
pub fn burst_airtime(mcs: &McsEntry, total_bits: u64) -> SimTime {
    if total_bits == 0 {
        return SimTime::ZERO;
    }
    let full = ppdu_count(total_bits) - 1;
    let rem = total_bits - full * MAX_PSDU_BITS;
    let full_ns = ppdu_airtime(mcs, MAX_PSDU_BITS).as_nanos() + SIFS_NS;
    SimTime::from_nanos(full * full_ns + ppdu_airtime(mcs, rem).as_nanos())
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
        let m = top_mcs();
        let t = ppdu_airtime(m, 1_000_000);
        let payload_ns = (1_000_000.0 / m.rate_mbps * 1000.0).ceil() as u64;
        assert_eq!(t.as_nanos(), PREAMBLE_NS + HEADER_NS + payload_ns);
    }

    #[test]
    fn ppdu_count_rounds_up() {
        assert_eq!(ppdu_count(1), 1);
        assert_eq!(ppdu_count(MAX_PSDU_BITS), 1);
        assert_eq!(ppdu_count(MAX_PSDU_BITS + 1), 2);
        assert_eq!(ppdu_count(3 * MAX_PSDU_BITS), 3);
    }

    #[test]
    fn burst_airtime_exceeds_ideal() {
        let m = top_mcs();
        // A 44.4 Mbit VR frame.
        let bits = 44_400_000u64;
        let t = burst_airtime(m, bits);
        let ideal = bits as f64 / (m.rate_mbps * 1e6);
        assert!(t.as_secs_f64() > ideal);
        // ...but the overhead stays modest (< 10 %).
        assert!(t.as_secs_f64() < ideal * 1.10, "t={t} ideal={ideal}");
    }

    /// The per-PPDU loop `burst_airtime` ran before it became one
    /// product, kept as the reference the product must match.
    fn looped_burst_airtime(mcs: &McsEntry, total_bits: u64) -> SimTime {
        if total_bits == 0 {
            return SimTime::ZERO;
        }
        let n = ppdu_count(total_bits);
        let full = n - 1;
        let rem = total_bits - full * MAX_PSDU_BITS;
        let mut total = 0u64;
        for _ in 0..full {
            total += ppdu_airtime(mcs, MAX_PSDU_BITS).as_nanos();
        }
        total += ppdu_airtime(mcs, rem).as_nanos();
        total += SIFS_NS * (n - 1);
        SimTime::from_nanos(total)
    }

    #[test]
    fn burst_airtime_matches_the_per_ppdu_loop() {
        // Sizes on, just off and at a seeded offset from every multiple of
        // the PSDU cap up to 64 PPDUs, at every MCS.
        let psdu = MAX_PSDU_BITS;
        let mut rng = movr_math::SimRng::seed_from_u64(0xF4A3E);
        for mcs in RateTable.entries() {
            for k in 0..64 {
                let offset = rng.next_u64() % psdu;
                for bits in [
                    k * psdu,
                    k * psdu + 1,
                    (k * psdu).saturating_sub(1),
                    k * psdu + offset,
                ] {
                    assert_eq!(
                        burst_airtime(mcs, bits),
                        looped_burst_airtime(mcs, bits),
                        "MCS {} at {bits} bits",
                        mcs.index
                    );
                }
            }
        }
    }

    #[test]
    fn the_largest_frame_size_is_one_product() {
        // 2^53 bits, the largest bit count an `f64` holds exactly, is
        // about 4.3e9 full PPDUs: the airtime is one product over them,
        // not a loop, and it fits a `SimTime` at every MCS, within one
        // preamble, header, SIFS and rounding nanosecond per PPDU of the
        // bare payload time.
        let bits = 1u64 << 53;
        let n = ppdu_count(bits) as f64;
        for mcs in RateTable.entries() {
            let t = burst_airtime(mcs, bits).as_secs_f64();
            let ideal = bits as f64 / (mcs.rate_mbps * 1e6);
            let overhead = n * (PREAMBLE_NS + HEADER_NS + SIFS_NS + 1) as f64 * 1e-9;
            assert!(t >= ideal && t <= ideal + overhead, "MCS {}: t={t} ideal={ideal}", mcs.index);
        }
    }

    #[test]
    fn zero_bits_zero_airtime() {
        assert_eq!(burst_airtime(top_mcs(), 0), SimTime::ZERO);
    }
}
