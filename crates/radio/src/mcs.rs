//! The 802.11ad rate ladder.
//!
//! A merged SC/OFDM modulation-and-coding ladder for one 2.16 GHz channel,
//! indexed by the minimum SNR needed to decode at an acceptable error
//! rate. Rates are the standard's PHY rates (MCS 1–12 single carrier,
//! then the high OFDM rates up to 6756.75 Mb/s). Thresholds follow the
//! usual link-abstraction values used in the mmWave literature, anchored
//! at both ends by the paper itself:
//!
//! * §3 — a clear LOS link at ~25 dB SNR delivers "almost 7 Gb/s";
//! * §5.2 — "the 20 dB needed for the maximum data rate".
//!
//! The VR requirement line in Fig. 3 is modelled as
//! [`VR_REQUIRED_RATE_MBPS`] (4 Gb/s — between the 1080p and 2160p
//! uncompressed HDMI rates the introduction discusses) with its matching
//! SNR threshold [`VR_REQUIRED_SNR_DB`].

/// One rung of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McsEntry {
    /// Ladder index (0 = control PHY).
    pub index: usize,
    /// Human-readable modulation/coding label.
    pub label: &'static str,
    /// PHY rate, Mb/s.
    pub rate_mbps: f64,
    /// Minimum SNR to decode, dB.
    pub min_snr_db: f64,
}

/// The merged 802.11ad ladder, lowest rate first.
const LADDER: &[McsEntry] = &[
    McsEntry { index: 0, label: "CTRL DBPSK 1/2", rate_mbps: 27.5, min_snr_db: -1.0 },
    McsEntry { index: 1, label: "SC BPSK 1/2", rate_mbps: 385.0, min_snr_db: 1.0 },
    McsEntry { index: 2, label: "SC BPSK 1/2 x2", rate_mbps: 770.0, min_snr_db: 3.0 },
    McsEntry { index: 3, label: "SC BPSK 5/8", rate_mbps: 962.5, min_snr_db: 4.0 },
    McsEntry { index: 4, label: "SC BPSK 3/4", rate_mbps: 1155.0, min_snr_db: 5.0 },
    McsEntry { index: 5, label: "SC BPSK 13/16", rate_mbps: 1251.25, min_snr_db: 5.5 },
    McsEntry { index: 6, label: "SC QPSK 1/2", rate_mbps: 1540.0, min_snr_db: 6.5 },
    McsEntry { index: 7, label: "SC QPSK 5/8", rate_mbps: 1925.0, min_snr_db: 8.0 },
    McsEntry { index: 8, label: "SC QPSK 3/4", rate_mbps: 2310.0, min_snr_db: 9.5 },
    McsEntry { index: 9, label: "SC QPSK 13/16", rate_mbps: 2502.5, min_snr_db: 10.5 },
    McsEntry { index: 10, label: "SC 16QAM 1/2", rate_mbps: 3080.0, min_snr_db: 12.0 },
    McsEntry { index: 11, label: "SC 16QAM 5/8", rate_mbps: 3850.0, min_snr_db: 13.5 },
    McsEntry { index: 12, label: "SC 16QAM 3/4", rate_mbps: 4620.0, min_snr_db: 15.0 },
    McsEntry { index: 13, label: "OFDM 16QAM 13/16", rate_mbps: 5197.5, min_snr_db: 16.5 },
    McsEntry { index: 14, label: "OFDM 64QAM 5/8", rate_mbps: 6237.0, min_snr_db: 18.0 },
    McsEntry { index: 15, label: "OFDM 64QAM 13/16", rate_mbps: 6756.75, min_snr_db: 20.0 },
];

/// Data rate a high-quality untethered VR headset needs, Mb/s.
pub const VR_REQUIRED_RATE_MBPS: f64 = 4000.0;

/// The SNR at which the ladder first meets [`VR_REQUIRED_RATE_MBPS`]
/// (the dashed "Required SNR by VR headset" line of Fig. 3).
pub const VR_REQUIRED_SNR_DB: f64 = 15.0;

/// The 802.11ad rate table.
///
/// ```
/// use movr_radio::RateTable;
///
/// let t = RateTable;
/// // The paper's anchors: ~7 Gb/s at a clear-LOS 25 dB, the top rate
/// // needs 20 dB, and a hand-blocked link can no longer carry VR.
/// assert_eq!(t.rate_mbps(25.0), 6756.75);
/// assert_eq!(t.rate_mbps(20.0), 6756.75);
/// assert!(t.supports_vr(25.0));
/// assert!(!t.supports_vr(25.0 - 17.0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RateTable;

impl RateTable {
    /// All ladder entries, lowest rate first.
    pub fn entries(&self) -> &'static [McsEntry] {
        LADDER
    }

    /// The highest-rate entry decodable at `snr_db`, or `None` if even the
    /// control PHY cannot decode (link outage).
    pub fn best_mcs(&self, snr_db: f64) -> Option<&'static McsEntry> {
        LADDER
            .iter()
            .rev()
            .find(|e| snr_db >= e.min_snr_db)
    }

    /// Achievable PHY rate at `snr_db`, Mb/s (0 in outage) — the mapping
    /// that produces Fig. 3's bottom panel from its top panel.
    pub fn rate_mbps(&self, snr_db: f64) -> f64 {
        self.best_mcs(snr_db).map_or(0.0, |e| e.rate_mbps)
    }

    /// True if `snr_db` sustains the VR-required data rate.
    pub fn supports_vr(&self, snr_db: f64) -> bool {
        self.rate_mbps(snr_db) >= VR_REQUIRED_RATE_MBPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone() {
        for w in LADDER.windows(2) {
            assert!(w[1].rate_mbps > w[0].rate_mbps, "rates must increase");
            assert!(w[1].min_snr_db > w[0].min_snr_db, "thresholds must increase");
            assert_eq!(w[1].index, w[0].index + 1);
        }
    }

    #[test]
    fn paper_anchor_max_rate_at_20db() {
        let t = RateTable;
        assert_eq!(t.rate_mbps(20.0), 6756.75);
        assert!(t.rate_mbps(19.9) < 6756.75);
    }

    #[test]
    fn paper_anchor_los_25db_is_almost_7gbps() {
        let t = RateTable;
        let r = t.rate_mbps(25.0);
        assert!((6500.0..7000.0).contains(&r), "r={r}");
    }

    #[test]
    fn outage_below_control_phy() {
        let t = RateTable;
        assert_eq!(t.rate_mbps(-1.1), 0.0);
        assert!(t.best_mcs(-5.0).is_none());
        assert_eq!(t.rate_mbps(-1.0), 27.5);
    }

    #[test]
    fn vr_requirement_consistency() {
        let t = RateTable;
        // The declared SNR threshold is exactly where the ladder first
        // meets the requirement.
        assert!(t.supports_vr(VR_REQUIRED_SNR_DB));
        assert!(!t.supports_vr(VR_REQUIRED_SNR_DB - 0.1));
        assert!(t.rate_mbps(VR_REQUIRED_SNR_DB) >= VR_REQUIRED_RATE_MBPS);
    }

    #[test]
    fn hand_blockage_kills_vr_rate() {
        // §3: LOS ≈ 25 dB works; a >14 dB hand-blockage drop does not.
        let t = RateTable;
        assert!(t.supports_vr(25.0));
        assert!(!t.supports_vr(25.0 - 14.0));
    }

    #[test]
    fn best_mcs_picks_highest_decodable() {
        let t = RateTable;
        let e = t.best_mcs(12.3).unwrap();
        assert_eq!(e.index, 10);
        let e = t.best_mcs(1.0).unwrap();
        assert_eq!(e.index, 1);
    }

    #[test]
    fn rate_is_monotone_in_snr() {
        let t = RateTable;
        let mut prev = -1.0;
        let mut snr = -5.0;
        while snr <= 30.0 {
            let r = t.rate_mbps(snr);
            assert!(r >= prev);
            prev = r;
            snr += 0.25;
        }
    }
}
