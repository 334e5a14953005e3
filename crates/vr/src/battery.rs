//! Battery life for a fully untethered headset (§6).
//!
//! Cutting the HDMI cable still leaves the USB power cable. The paper's
//! arithmetic: the HTC Vive draws at most 1500 mA, so a small 5200 mAh
//! pack "can run the headset for 4-5 hours" — at *typical* draw; at the
//! absolute maximum it is ~3.5 h. [`Battery`] reproduces that arithmetic
//! with a usable-capacity derating and supports the mmWave receiver's
//! extra draw.

/// Maximum current the HTC Vive headset draws, amperes (§6).
pub const VIVE_MAX_DRAW_A: f64 = 1.5;

/// Typical in-game draw of the headset, amperes (well under the max —
/// the display and electronics rarely peak together).
pub const VIVE_TYPICAL_DRAW_A: f64 = 1.1;

/// A rechargeable battery pack.
///
/// ```
/// use movr_vr::battery::{Battery, VIVE_TYPICAL_DRAW_A};
///
/// // §6's arithmetic: the 5200 mAh pack runs the headset 4-5 hours.
/// let pack = Battery::anker_5200();
/// let hours = pack.runtime_hours(VIVE_TYPICAL_DRAW_A);
/// assert!((4.0..5.0).contains(&hours));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Battery {
    /// Rated capacity, milliamp-hours.
    pub capacity_mah: f64,
    /// Fraction of the rated capacity actually deliverable.
    pub usable_fraction: f64,
}

impl Battery {
    /// The paper's example pack: Anker Astro 5200 mAh
    /// (3.8 × 1.7 × 0.9 in).
    pub fn anker_5200() -> Self {
        Battery {
            capacity_mah: 5200.0,
            usable_fraction: 0.95,
        }
    }

    /// Usable charge, milliamp-hours.
    pub fn usable_mah(&self) -> f64 {
        self.capacity_mah * self.usable_fraction
    }

    /// Runtime in hours at a constant draw.
    ///
    /// # Panics
    /// Panics on non-positive draw.
    pub fn runtime_hours(&self, draw_a: f64) -> f64 {
        assert!(draw_a > 0.0, "draw must be positive");
        self.usable_mah() / (draw_a * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arithmetic_4_to_5_hours() {
        // §6: a 5200 mAh pack runs the headset 4–5 hours. That holds at
        // the typical draw.
        let b = Battery::anker_5200();
        let h = b.runtime_hours(VIVE_TYPICAL_DRAW_A);
        assert!((4.0..5.0).contains(&h), "h={h}");
    }

    #[test]
    fn worst_case_draw_is_about_3_hours() {
        let b = Battery::anker_5200();
        let h = b.runtime_hours(VIVE_MAX_DRAW_A);
        assert!((3.0..3.6).contains(&h), "h={h}");
    }

    #[test]
    fn mmwave_receiver_overhead_still_gives_hours() {
        // Adding a ~300 mA mmWave receiver keeps multi-hour sessions.
        let b = Battery::anker_5200();
        let h = b.runtime_hours(VIVE_TYPICAL_DRAW_A + 0.3);
        assert!(h > 3.0, "h={h}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_draw_rejected() {
        Battery::anker_5200().runtime_hours(0.0);
    }
}
