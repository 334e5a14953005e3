//! Packet-error-rate model.
//!
//! The rate ladder's thresholds are "decodes at acceptable error rate"
//! points; real decoding degrades smoothly around them. The end-to-end VR
//! session simulation needs that smoothness to count glitches fairly: a
//! link sitting 0.2 dB above threshold drops an occasional frame, one
//! 5 dB above drops essentially none.
//!
//! The model is the standard logistic waterfall: PER = 1/2 at the MCS
//! threshold, falling by roughly a decade per `slope_db` dB of extra SNR.

use crate::mcs::McsEntry;

/// Logistic PER waterfall around MCS thresholds.
#[derive(Debug, Clone, Copy)]
pub struct PerModel {
    /// SNR margin over which PER falls by ~a decade, dB.
    pub slope_db: f64,
    /// Residual error floor (implementation imperfections).
    pub floor: f64,
}

impl Default for PerModel {
    fn default() -> Self {
        PerModel {
            slope_db: 0.75,
            floor: 1e-7,
        }
    }
}

impl PerModel {
    /// Packet error rate at `snr_db` for a given MCS.
    pub fn per(&self, mcs: &McsEntry, snr_db: f64) -> f64 {
        let margin = snr_db - mcs.min_snr_db;
        // ln(10) per decade: logistic in log-odds space.
        let log_odds = margin / self.slope_db * std::f64::consts::LN_10;
        let per = 1.0 / (1.0 + log_odds.exp());
        per.max(self.floor).min(1.0)
    }
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
        let m = PerModel::default();
        let per = m.per(mcs10(), mcs10().min_snr_db);
        assert!((per - 0.5).abs() < 1e-9);
    }

    #[test]
    fn decade_per_slope() {
        let m = PerModel::default();
        let at_1 = m.per(mcs10(), mcs10().min_snr_db + m.slope_db);
        // One slope unit above threshold: odds 10:1 → PER ≈ 1/11.
        assert!((at_1 - 1.0 / 11.0).abs() < 1e-6, "per={at_1}");
    }

    #[test]
    fn monotone_decreasing_in_snr() {
        let m = PerModel::default();
        let mut prev = 1.1;
        let mut snr = mcs10().min_snr_db - 5.0;
        while snr < mcs10().min_snr_db + 8.0 {
            let p = m.per(mcs10(), snr);
            assert!(p <= prev);
            prev = p;
            snr += 0.1;
        }
    }

    #[test]
    fn floor_applies_far_above_threshold() {
        let m = PerModel::default();
        assert_eq!(m.per(mcs10(), mcs10().min_snr_db + 50.0), m.floor);
    }

    #[test]
    fn far_below_threshold_loses_everything() {
        let m = PerModel::default();
        assert!(m.per(mcs10(), mcs10().min_snr_db - 10.0) > 0.9999);
    }
}
