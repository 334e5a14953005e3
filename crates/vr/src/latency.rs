//! The motion-to-photon latency budget.
//!
//! "The headset updates the display every 10ms. In principle, all
//! components of our design work much faster than this time scale" (§6).
//! [`LatencyBudget`] itemises a frame's wireless delivery: render hand-off,
//! link airtime, and any beam-realignment stall, and checks the total
//! against the budget. The paper's latency argument — beam steering is
//! sub-µs, so only a full sweep threatens the deadline — is directly
//! checkable here.

use movr_sim::SimTime;

/// One frame's delivery timeline.
#[derive(Debug, Clone, Copy)]
pub struct LatencyBudget {
    /// The end-to-end budget (paper: ~10 ms).
    pub budget: SimTime,
    /// Fixed per-frame processing before the link (scan-out, packing).
    pub processing: SimTime,
}

impl Default for LatencyBudget {
    fn default() -> Self {
        LatencyBudget {
            budget: SimTime::from_millis(10),
            processing: SimTime::from_micros(500),
        }
    }
}

impl LatencyBudget {
    /// Total delivery latency for a frame that spends `airtime` on the
    /// link after `stall` of beam-management delay.
    pub fn total(&self, airtime: SimTime, stall: SimTime) -> SimTime {
        self.processing + airtime + stall
    }

    /// True if the frame makes the display refresh.
    pub fn meets_deadline(&self, airtime: SimTime, stall: SimTime) -> bool {
        self.total(airtime, stall) <= self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstalled_fast_link_meets_deadline() {
        let b = LatencyBudget::default();
        // 44.4 Mbit at 6.76 Gb/s ≈ 6.6 ms of airtime.
        let airtime = SimTime::from_secs_f64(44.4e6 / 6.76e9);
        assert!(b.meets_deadline(airtime, SimTime::ZERO));
    }

    #[test]
    fn sub_microsecond_steering_never_matters() {
        // §6's argument: electronic steering is so fast it cannot threaten
        // the budget.
        let b = LatencyBudget::default();
        let airtime = SimTime::from_millis(7);
        let steering = SimTime::from_nanos(500);
        assert!(b.meets_deadline(airtime, steering));
    }

    #[test]
    fn full_sweep_stall_busts_deadline() {
        // A full 101×101 beam sweep at even 10 µs per probe is ~100 ms —
        // way over budget. This is why §6 wants tracking-assisted
        // realignment.
        let b = LatencyBudget::default();
        let airtime = SimTime::from_millis(7);
        let sweep = SimTime::from_millis(100);
        assert!(!b.meets_deadline(airtime, sweep));
    }

    #[test]
    fn total_is_sum() {
        let b = LatencyBudget::default();
        let t = b.total(SimTime::from_millis(3), SimTime::from_millis(2));
        assert_eq!(t, SimTime::from_micros(5500));
    }
}
