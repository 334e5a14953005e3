//! The motion-to-photon latency budget.
//!
//! "The headset updates the display every 10ms. In principle, all
//! components of our design work much faster than this time scale" (§6).
//! A frame's wireless delivery is itemised as render hand-off
//! ([`PROCESSING`]), link airtime and any beam-realignment stall, and
//! the total is checked against the [`BUDGET`]. The paper's latency
//! argument — beam steering is sub-µs, so only a full sweep threatens
//! the deadline — is directly checkable here.

use movr_sim::SimTime;

/// The end-to-end budget (paper: ~10 ms).
pub const BUDGET: SimTime = SimTime::from_millis(10);
/// Fixed per-frame processing before the link (scan-out, packing).
pub const PROCESSING: SimTime = SimTime::from_micros(500);

/// Total delivery latency for a frame that spends `airtime` on the link
/// after `stall` of beam-management delay.
pub fn total(airtime: SimTime, stall: SimTime) -> SimTime {
    PROCESSING + airtime + stall
}

/// True if the frame makes the display refresh.
pub fn meets_deadline(airtime: SimTime, stall: SimTime) -> bool {
    total(airtime, stall) <= BUDGET
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstalled_fast_link_meets_deadline() {
        // 44.4 Mbit at 6.76 Gb/s ≈ 6.6 ms of airtime.
        let airtime = SimTime::from_secs_f64(44.4e6 / 6.76e9);
        assert!(meets_deadline(airtime, SimTime::ZERO));
    }

    #[test]
    fn sub_microsecond_steering_never_matters() {
        // §6's argument: electronic steering is so fast it cannot threaten
        // the budget.
        let airtime = SimTime::from_millis(7);
        let steering = SimTime::from_nanos(500);
        assert!(meets_deadline(airtime, steering));
    }

    #[test]
    fn full_sweep_stall_busts_deadline() {
        // A full 101×101 beam sweep at even 10 µs per probe is ~100 ms —
        // way over budget. This is why §6 wants tracking-assisted
        // realignment.
        let airtime = SimTime::from_millis(7);
        let sweep = SimTime::from_millis(100);
        assert!(!meets_deadline(airtime, sweep));
    }

    #[test]
    fn total_is_sum() {
        let t = total(SimTime::from_millis(3), SimTime::from_millis(2));
        assert_eq!(t, SimTime::from_micros(5500));
    }
}
