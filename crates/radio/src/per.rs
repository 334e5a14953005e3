//! Packet-error-rate model.
//!
//! The rate ladder's thresholds are "decodes at acceptable error rate"
//! points; real decoding degrades smoothly around them. The end-to-end VR
//! session simulation needs that smoothness to count glitches fairly: a
//! link sitting 0.2 dB above threshold drops an occasional frame, one
//! 5 dB above drops essentially none.
//!
//! The model is the standard logistic waterfall: PER = 1/2 at the MCS
//! threshold, falling by roughly a decade per [`SLOPE_DB`] of extra SNR,
//! down to a residual [`FLOOR`].

use crate::mcs::McsEntry;

/// SNR margin over which PER falls by about a decade, dB.
pub const SLOPE_DB: f64 = 0.75;
/// Residual error floor (implementation imperfections).
pub const FLOOR: f64 = 1e-7;

/// Packet error rate at `snr_db` for a given MCS.
#[expect(
    clippy::manual_clamp,
    reason = "a NaN SNR's error rate reads as the floor through `max`; `clamp` would pass the NaN on"
)]
pub fn packet_error_rate(mcs: &McsEntry, snr_db: f64) -> f64 {
    let margin = snr_db - mcs.min_snr_db;
    // ln(10) per decade: logistic in log-odds space.
    let log_odds = margin / SLOPE_DB * std::f64::consts::LN_10;
    let per = 1.0 / (1.0 + log_odds.exp());
    per.max(FLOOR).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::RateTable;

    fn mcs10() -> &'static McsEntry {
        &RateTable.entries()[10]
    }

    #[test]
    fn half_at_threshold() {
        let per = packet_error_rate(mcs10(), mcs10().min_snr_db);
        assert!((per - 0.5).abs() < 1e-9);
    }

    #[test]
    fn decade_per_slope() {
        let at_1 = packet_error_rate(mcs10(), mcs10().min_snr_db + SLOPE_DB);
        // One slope unit above threshold: odds 10:1 → PER ≈ 1/11.
        assert!((at_1 - 1.0 / 11.0).abs() < 1e-6, "per={at_1}");
    }

    #[test]
    fn monotone_decreasing_in_snr() {
        let mut prev = 1.1;
        let mut snr = mcs10().min_snr_db - 5.0;
        while snr < mcs10().min_snr_db + 8.0 {
            let p = packet_error_rate(mcs10(), snr);
            assert!(p <= prev);
            prev = p;
            snr += 0.1;
        }
    }

    #[test]
    fn floor_applies_far_above_threshold() {
        assert_eq!(packet_error_rate(mcs10(), mcs10().min_snr_db + 50.0), FLOOR);
    }

    #[test]
    fn far_below_threshold_loses_everything() {
        assert!(packet_error_rate(mcs10(), mcs10().min_snr_db - 10.0) > 0.9999);
    }
}
