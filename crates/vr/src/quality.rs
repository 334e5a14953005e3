//! Player-facing experience quality.
//!
//! Frame statistics are engineering numbers; what matters to the player
//! is whether the session feels *solid*. This module maps a
//! [`GlitchReport`] to a quality grade using fixed
//! thresholds from the VR comfort literature the paper's motivation
//! leans on: sustained 90 Hz feels native; occasional single-frame drops
//! are barely visible; multi-frame stalls break presence; frequent
//! stalls (or >1 % loss) make sessions nauseating.

use crate::glitch::GlitchReport;

/// A coarse experience grade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QualityGrade {
    /// Unusable: the player takes the headset off.
    Unplayable,
    /// Frequent visible interruptions.
    Poor,
    /// Noticeable but tolerable hitches.
    Fair,
    /// Rare, minor hitches.
    Good,
    /// Indistinguishable from a cable.
    Excellent,
}

/// Loss rate at or above which a session is unplayable.
pub const UNPLAYABLE_LOSS: f64 = 0.10;
/// Loss rate at or above which a session is poor.
pub const POOR_LOSS: f64 = 0.02;
/// Stall length (frames) that alone demotes a session below Good: 100 ms
/// at 90 Hz.
pub const STALL_LIMIT_FRAMES: usize = 9;
/// Glitch events per minute above which a session is at most Fair.
pub const EVENTS_PER_MINUTE_LIMIT: f64 = 6.0;

/// Grades a session of `duration_s` seconds.
pub fn grade(report: &GlitchReport, duration_s: f64) -> QualityGrade {
    assert!(duration_s > 0.0, "duration must be positive");
    if report.loss_rate >= UNPLAYABLE_LOSS {
        return QualityGrade::Unplayable;
    }
    let events_per_minute = movr_math::convert::usize_to_f64(report.glitch_events) * 60.0 / duration_s;
    if report.loss_rate >= POOR_LOSS {
        return QualityGrade::Poor;
    }
    if report.longest_stall_frames > STALL_LIMIT_FRAMES
        || events_per_minute > EVENTS_PER_MINUTE_LIMIT
    {
        return QualityGrade::Fair;
    }
    if report.glitch_events > 0 {
        return QualityGrade::Good;
    }
    QualityGrade::Excellent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glitch::GlitchTracker;

    fn report(pattern: &[bool]) -> GlitchReport {
        let mut t = GlitchTracker::new();
        for &d in pattern {
            t.record(d);
        }
        t.report()
    }

    #[test]
    fn perfect_is_excellent() {
        let r = report(&[true; 900]);
        assert_eq!(grade(&r, 10.0), QualityGrade::Excellent);
    }

    #[test]
    fn single_short_hitch_is_good() {
        let mut p = vec![true; 900];
        p[450] = false;
        let r = report(&p);
        assert_eq!(grade(&r, 10.0), QualityGrade::Good);
    }

    #[test]
    fn long_stall_is_fair_at_best() {
        let mut p = vec![true; 900];
        for slot in p.iter_mut().skip(400).take(12) {
            *slot = false; // 133 ms freeze
        }
        let r = report(&p);
        assert_eq!(grade(&r, 10.0), QualityGrade::Fair);
    }

    #[test]
    fn frequent_events_are_fair() {
        // 12 separate one-frame hitches in 10 s = 72/min.
        let mut p = vec![true; 900];
        for k in 0..12 {
            p[k * 70 + 5] = false;
        }
        let r = report(&p);
        assert_eq!(grade(&r, 10.0), QualityGrade::Fair);
    }

    #[test]
    fn heavy_loss_is_poor_then_unplayable() {
        // ~4.4% loss → Poor.
        let mut p = vec![true; 900];
        for slot in p.iter_mut().skip(200).take(40) {
            *slot = false;
        }
        let r = report(&p);
        assert_eq!(grade(&r, 10.0), QualityGrade::Poor);
        // ~22% loss → Unplayable.
        let mut p = vec![true; 900];
        for slot in p.iter_mut().skip(100).take(200) {
            *slot = false;
        }
        let r = report(&p);
        assert_eq!(
            grade(&r, 10.0),
            QualityGrade::Unplayable
        );
    }

    #[test]
    fn grades_order() {
        assert!(QualityGrade::Excellent > QualityGrade::Good);
        assert!(QualityGrade::Good > QualityGrade::Fair);
        assert!(QualityGrade::Fair > QualityGrade::Poor);
        assert!(QualityGrade::Poor > QualityGrade::Unplayable);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_rejected() {
        grade(&report(&[true]), 0.0);
    }
}
