//! Rate adaptation.
//!
//! The paper converts SNR to rate through the standard tables; a real
//! link must *choose* an MCS from noisy SNR estimates, and the choice
//! policy affects how gracefully the link rides through partial blockage
//! (the taper region of a hand entering the beam). One [`RateAdapter`]
//! runs whichever [`RatePolicy`] it was built from:
//!
//! * [`RatePolicy::Oracle`] — picks from the true SNR (upper bound for
//!   comparisons).
//! * [`RatePolicy::Threshold`] — pick the highest MCS whose threshold the
//!   current SNR estimate clears, minus a safety backoff. Memoryless.
//! * [`RatePolicy::HysteresisPolicy`] — the same, but an upgrade requires
//!   the SNR to cross the next boundary by a margin and stay there for
//!   several reports, suppressing flapping at scenario edges.

use crate::mcs::{McsEntry, RateTable};

/// How the transmitter picks its MCS from SNR reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RatePolicy {
    /// Exact lookup on the true SNR (idealised upper bound).
    Oracle,
    /// Highest decodable MCS from a noisy report, minus a backoff.
    Threshold {
        /// Backoff subtracted from the reported SNR, dB.
        backoff_db: f64,
    },
    /// Threshold with upgrade hysteresis (downgrades immediate).
    HysteresisPolicy {
        /// Extra SNR margin required before upgrading, dB.
        up_margin_db: f64,
        /// Consecutive qualifying reports required before upgrading.
        up_count: usize,
        /// Backoff subtracted from the reported SNR, dB.
        backoff_db: f64,
    },
}

/// Error restoring a rate-adapter checkpoint: the stored MCS index does
/// not exist in the rate table (snapshot corruption or a table change).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadMcsIndex {
    /// The stored index.
    pub index: usize,
    /// Number of entries in the current rate table.
    pub table_len: usize,
}

impl std::fmt::Display for BadMcsIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MCS index {} out of range for a {}-entry rate table",
            self.index, self.table_len
        )
    }
}

impl std::error::Error for BadMcsIndex {}

/// MCS selection from periodic SNR reports under one [`RatePolicy`].
///
/// Its whole mutable state is the selected MCS and, under the hysteresis
/// policy, the run of consecutive reports that qualified for an upgrade
/// ([`RateAdapter::state`]).
#[derive(Debug, Clone)]
pub struct RateAdapter {
    policy: RatePolicy,
    current: Option<&'static McsEntry>,
    up_streak: usize,
}

impl RateAdapter {
    /// An adapter running `policy`, starting in outage (no MCS chosen).
    pub fn new(policy: RatePolicy) -> Self {
        if let RatePolicy::HysteresisPolicy { up_count, .. } = policy {
            assert!(up_count >= 1, "up_count must be at least 1"); // constructor contract — a zero threshold is a caller bug, not runtime input
        }
        RateAdapter {
            policy,
            current: None,
            up_streak: 0,
        }
    }

    /// Feeds one SNR report and returns the MCS to use next
    /// (`None` = link outage, don't transmit).
    pub fn on_snr_report(&mut self, snr_db: f64) -> Option<&'static McsEntry> {
        match self.policy {
            RatePolicy::Oracle => self.current = RateTable.best_mcs(snr_db),
            RatePolicy::Threshold { backoff_db } => {
                self.current = RateTable.best_mcs(snr_db - backoff_db);
            }
            RatePolicy::HysteresisPolicy {
                up_margin_db,
                up_count,
                backoff_db,
            } => {
                let snr = snr_db - backoff_db;
                let ideal = RateTable.best_mcs(snr);
                match (self.current, ideal) {
                    (Some(cur), Some(want)) if want.index > cur.index => {
                        // Upgrade only with sustained margin above the
                        // next rung.
                        let next = &RateTable.entries()[cur.index + 1];
                        if snr >= next.min_snr_db + up_margin_db {
                            self.up_streak += 1;
                            if self.up_streak >= up_count {
                                self.current = Some(next);
                                self.up_streak = 0;
                            }
                        } else {
                            self.up_streak = 0;
                        }
                    }
                    // Everything else takes the ideal rung at once: an
                    // outage, a downgrade, holding the rung, or joining
                    // from outage (no rung-by-rung climb).
                    _ => {
                        self.current = ideal;
                        self.up_streak = 0;
                    }
                }
            }
        }
        self.current
    }

    /// The currently selected MCS.
    pub fn current(&self) -> Option<&'static McsEntry> {
        self.current
    }

    /// The adapter's whole mutable state, for checkpointing: the selected
    /// MCS index and the hysteresis up-streak (always zero under the
    /// other policies).
    pub fn state(&self) -> (Option<usize>, usize) {
        (self.current.map(|m| m.index), self.up_streak)
    }

    /// Restores a [`RateAdapter::state`] capture. The up-streak is
    /// restored only under the hysteresis policy; the others keep none.
    /// Errors on an MCS index outside the rate table (snapshot bytes are
    /// external input).
    pub fn restore_state(
        &mut self,
        current: Option<usize>,
        up_streak: usize,
    ) -> Result<(), BadMcsIndex> {
        self.current = match current {
            None => None,
            Some(i) => {
                let entries = RateTable.entries();
                Some(entries.get(i).ok_or(BadMcsIndex {
                    index: i,
                    table_len: entries.len(),
                })?)
            }
        };
        if let RatePolicy::HysteresisPolicy { .. } = self.policy {
            self.up_streak = up_streak;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threshold(backoff_db: f64) -> RateAdapter {
        RateAdapter::new(RatePolicy::Threshold { backoff_db })
    }

    fn hysteresis() -> RateAdapter {
        RateAdapter::new(RatePolicy::HysteresisPolicy {
            up_margin_db: 1.0,
            up_count: 3,
            backoff_db: 0.0,
        })
    }

    #[test]
    fn threshold_tracks_snr() {
        let mut a = threshold(0.0);
        assert_eq!(a.on_snr_report(25.0).unwrap().rate_mbps, 6756.75);
        assert_eq!(a.on_snr_report(12.5).unwrap().index, 10);
        assert!(a.on_snr_report(-5.0).is_none());
    }

    #[test]
    fn backoff_is_conservative() {
        let p = threshold(0.0).on_snr_report(20.5).unwrap();
        let s = threshold(2.0).on_snr_report(20.5).unwrap();
        assert!(s.rate_mbps < p.rate_mbps);
    }

    #[test]
    fn hysteresis_downgrades_immediately() {
        let mut h = hysteresis();
        h.on_snr_report(25.0);
        assert_eq!(h.current().unwrap().index, 15);
        // One bad report drops the rate at once (10.0 dB decodes MCS 8,
        // whose threshold is 9.5; MCS 9 needs 10.5).
        h.on_snr_report(10.0);
        assert_eq!(h.current().unwrap().index, 8);
    }

    #[test]
    fn hysteresis_upgrades_slowly() {
        let mut h = hysteresis();
        h.on_snr_report(10.0);
        let start = h.current().unwrap().index;
        // SNR recovers to 25: the ideal is the top, but we climb one rung
        // per 3 sustained reports.
        for _ in 0..3 {
            h.on_snr_report(25.0);
        }
        assert_eq!(h.current().unwrap().index, start + 1);
        for _ in 0..3 {
            h.on_snr_report(25.0);
        }
        assert_eq!(h.current().unwrap().index, start + 2);
    }

    #[test]
    fn hysteresis_streak_resets_on_dip() {
        let mut h = hysteresis();
        h.on_snr_report(12.0);
        let start = h.current().unwrap().index;
        h.on_snr_report(25.0);
        h.on_snr_report(25.0);
        h.on_snr_report(12.0); // dip resets the streak (same rung keeps)
        h.on_snr_report(25.0);
        h.on_snr_report(25.0);
        assert_eq!(h.current().unwrap().index, start, "streak must reset");
        h.on_snr_report(25.0);
        assert_eq!(h.current().unwrap().index, start + 1);
    }

    #[test]
    fn hysteresis_joins_from_outage_directly() {
        let mut h = hysteresis();
        assert!(h.on_snr_report(-5.0).is_none());
        let m = h.on_snr_report(18.5).unwrap();
        assert_eq!(m.index, 14, "no rung-by-rung climb out of outage");
    }

    #[test]
    fn oracle_is_exact() {
        let mut o = RateAdapter::new(RatePolicy::Oracle);
        assert_eq!(o.on_snr_report(20.0).unwrap().rate_mbps, 6756.75);
        assert_eq!(o.on_snr_report(19.99).unwrap().index, 14);
    }

    #[test]
    fn restore_keeps_a_streak_only_under_hysteresis() {
        let mut h = hysteresis();
        h.restore_state(Some(9), 2).unwrap();
        assert_eq!(h.state(), (Some(9), 2));
        let mut t = threshold(1.0);
        t.restore_state(Some(9), 2).unwrap();
        assert_eq!(t.state(), (Some(9), 0));
        let len = RateTable.entries().len();
        assert_eq!(
            t.restore_state(Some(len), 0),
            Err(BadMcsIndex {
                index: len,
                table_len: len
            })
        );
    }

    #[test]
    fn flapping_snr_flaps_threshold_but_not_hysteresis() {
        // SNR oscillating across an MCS boundary.
        let reports = [15.2, 14.8, 15.2, 14.8, 15.2, 14.8];
        let mut t = threshold(0.0);
        let mut h = hysteresis();
        let mut t_changes = 0;
        let mut h_changes = 0;
        let mut t_prev = None;
        let mut h_prev = None;
        for &s in &reports {
            let tc = t.on_snr_report(s).map(|m| m.index);
            let hc = h.on_snr_report(s).map(|m| m.index);
            if t_prev.is_some() && Some(tc) != t_prev {
                t_changes += 1;
            }
            if h_prev.is_some() && Some(hc) != h_prev {
                h_changes += 1;
            }
            t_prev = Some(tc);
            h_prev = Some(hc);
        }
        assert!(t_changes >= 4, "threshold policy should flap: {t_changes}");
        assert!(h_changes <= 1, "hysteresis should hold: {h_changes}");
    }
}
