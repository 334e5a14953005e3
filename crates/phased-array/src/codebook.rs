//! Beam codebooks for sweep protocols.
//!
//! The paper's alignment procedure "tries every possible combination of θ₁
//! and θ₂ ... with 1 degree increments" (§3, §4.1). A [`Codebook`] is that
//! finite set of steerable beams; protocols iterate it.

/// A finite, ordered set of beam directions (absolute bearings, degrees).
#[derive(Debug, Clone)]
pub struct Codebook {
    beams: Vec<f64>,
}

impl Codebook {
    /// Builds a codebook sweeping `[start, end]` (degrees) inclusive with
    /// the given step.
    ///
    /// # Panics
    /// Panics if `step <= 0` or `end < start`.
    pub fn sweep(start_deg: f64, end_deg: f64, step_deg: f64) -> Self {
        Codebook {
            beams: movr_math::angle::sweep_deg(start_deg, end_deg, step_deg),
        }
    }

    /// The paper's sweep: 40°–140° at 1° — the range of Figs. 7 and 8.
    pub fn paper_sweep() -> Self {
        Codebook::sweep(40.0, 140.0, 1.0)
    }

    /// Builds a codebook from explicit beam directions.
    pub fn from_beams(beams: Vec<f64>) -> Self {
        assert!(!beams.is_empty(), "codebook must contain at least one beam");
        Codebook { beams }
    }

    /// Number of beams.
    pub fn len(&self) -> usize {
        self.beams.len()
    }

    /// True if the codebook is empty (only possible via `sweep` misuse;
    /// `from_beams` rejects empties).
    pub fn is_empty(&self) -> bool {
        self.beams.is_empty()
    }

    /// The beam directions in sweep order.
    pub fn beams(&self) -> &[f64] {
        &self.beams
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_is_101_beams() {
        let cb = Codebook::paper_sweep();
        assert_eq!(cb.len(), 101);
        assert_eq!(cb.beams()[0], 40.0);
        assert_eq!(*cb.beams().last().unwrap(), 140.0);
    }

    #[test]
    fn from_beams_preserves_order() {
        let cb = Codebook::from_beams(vec![100.0, 40.0, 70.0]);
        assert_eq!(cb.beams(), &[100.0, 40.0, 70.0]);
    }

    #[test]
    #[should_panic(expected = "at least one beam")]
    fn empty_from_beams_rejected() {
        Codebook::from_beams(vec![]);
    }
}
