//! Codebook-resolution pattern tables.
//!
//! A beam sweep steers the same array to every codebook entry, over and
//! over (each alignment round, each probe). [`PatternTable`] performs
//! the steer — and therefore the DAC quantisation — once per beam up
//! front, storing a fully-steered [`SteeredArray`] copy per entry. Each
//! stored copy carries its own cached steering vector, so a sweep's
//! inner loop is pure gain lookups.

use crate::array::SteeredArray;
use crate::codebook::Codebook;

/// Pre-steered array states, one per codebook beam.
#[derive(Debug, Clone)]
pub struct PatternTable {
    beams: Vec<f64>,
    arrays: Vec<SteeredArray>,
}

impl PatternTable {
    /// Steers a copy of `base` to every beam of `codebook` (commands are
    /// clamped exactly as [`SteeredArray::steer_to`] clamps them) and
    /// stores the results. `base` itself is not modified.
    pub fn new(base: &SteeredArray, codebook: &Codebook) -> Self {
        let mut beams = Vec::with_capacity(codebook.len());
        let mut arrays = Vec::with_capacity(codebook.len());
        for &beam in codebook.beams() {
            let mut steered = *base;
            steered.steer_to(beam);
            beams.push(beam);
            arrays.push(steered);
        }
        PatternTable { beams, arrays }
    }

    /// Number of entries (== codebook length).
    pub fn len(&self) -> usize {
        self.beams.len()
    }

    /// True if the codebook was empty.
    pub fn is_empty(&self) -> bool {
        self.beams.is_empty()
    }

    /// Iterates `(commanded beam, pre-steered array)` in codebook order.
    /// The commanded beam is the codebook value, which may differ from
    /// the applied steering if the command was clamped.
    pub fn entries(&self) -> impl Iterator<Item = (f64, &SteeredArray)> {
        self.beams.iter().copied().zip(self.arrays.iter())
    }

    /// The commanded beam of entry `i` (codebook value, degrees).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn beam_deg(&self, i: usize) -> f64 {
        self.beams[i]
    }

    /// Evaluates every entry's gain toward every bearing in one pass:
    /// row `i` of the returned page is entry `i`'s
    /// [`SteeredArray::gain_dbi_batch`] over `bearings_deg`. A sweep
    /// computes its observation-angle page once and the inner loop
    /// becomes a slice lookup.
    pub fn fill_page(&self, bearings_deg: &[f64]) -> GainPage {
        let cols = bearings_deg.len();
        let mut data = vec![0.0; self.arrays.len() * cols];
        if cols > 0 {
            for (arr, row) in self.arrays.iter().zip(data.chunks_mut(cols)) {
                arr.gain_dbi_batch_into(bearings_deg, row);
            }
        }
        GainPage { rows: self.arrays.len(), cols, data }
    }
}

/// A dense `entries × bearings` gain matrix produced by
/// [`PatternTable::fill_page`]: one row per codebook entry, one column
/// per observation bearing, values in dBi. Bit-identical to calling
/// [`SteeredArray::gain_dbi`] per cell.
#[derive(Debug, Clone)]
pub struct GainPage {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl GainPage {
    /// Number of codebook entries (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of observation bearings (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `i`'s gains over the page's bearings, in dBi.
    ///
    /// # Panics
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "GainPage row {i} out of range ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_sequential_steering() {
        let base = SteeredArray::paper_array(90.0);
        let codebook = Codebook::sweep(40.0, 140.0, 10.0);
        let table = PatternTable::new(&base, &codebook);
        assert_eq!(table.len(), codebook.len());
        let mut live = base;
        for (beam, steered) in table.entries() {
            live.steer_to(beam);
            assert_eq!(live.steering_deg(), steered.steering_deg());
            for theta in [40.0, 77.0, 90.0, 120.5, 140.0, 200.0] {
                assert_eq!(live.gain_dbi(theta), steered.gain_dbi(theta), "beam={beam}");
            }
        }
    }

    #[test]
    fn base_is_untouched_and_commands_recorded_unclamped() {
        let base = SteeredArray::paper_array(90.0);
        // 200° is outside the scan range and gets clamped when applied.
        let codebook = Codebook::from_beams(vec![200.0]);
        let table = PatternTable::new(&base, &codebook);
        assert_eq!(base.steering_deg(), 90.0);
        assert_eq!(table.beam_deg(0), 200.0);
        let (_, applied) = table.entries().next().expect("one entry");
        assert!((applied.steering_deg() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn single_beam_table() {
        let base = SteeredArray::paper_array(0.0);
        let table = PatternTable::new(&base, &Codebook::from_beams(vec![10.0]));
        assert!(!table.is_empty());
        assert_eq!(table.entries().count(), 1);
    }

    #[test]
    fn page_is_bit_identical_to_per_cell_queries() {
        let base = SteeredArray::paper_array(90.0);
        let codebook = Codebook::sweep(40.0, 140.0, 7.0);
        let table = PatternTable::new(&base, &codebook);
        // 13 bearings: exercises a remainder lane group inside the
        // batch kernel as well as back-hemisphere wraps.
        let bearings: Vec<f64> = (0..13).map(|k| -40.0 + f64::from(k) * 23.5).collect();
        let page = table.fill_page(&bearings);
        assert_eq!(page.rows(), table.len());
        assert_eq!(page.cols(), bearings.len());
        for (i, (_, arr)) in table.entries().enumerate() {
            let row = page.row(i);
            for (&b, g) in bearings.iter().zip(row) {
                assert_eq!(g.to_bits(), arr.gain_dbi(b).to_bits(), "entry={i} bearing={b}");
            }
        }
    }

    #[test]
    fn empty_page_dimensions() {
        let base = SteeredArray::paper_array(0.0);
        let table = PatternTable::new(&base, &Codebook::from_beams(vec![10.0, 20.0]));
        let page = table.fill_page(&[]);
        assert_eq!(page.rows(), 2);
        assert_eq!(page.cols(), 0);
        assert!(page.row(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_row_out_of_range_rejected() {
        let base = SteeredArray::paper_array(0.0);
        let table = PatternTable::new(&base, &Codebook::from_beams(vec![10.0]));
        table.fill_page(&[0.0]).row(1);
    }
}
