//! Codebook-resolution pattern tables.
//!
//! A beam sweep steers the same array to every codebook entry, over and
//! over (each alignment round, each probe). [`PatternTable`] performs
//! the steer — and therefore the DAC quantisation — once per beam up
//! front, storing one entry per beam: the commanded beam and a
//! [`SteeredArray`] copy holding that command's phases beside the
//! array's own slopes, so a sweep's inner loop is pure gain lookups.

use crate::array::SteeredArray;
use crate::codebook::Codebook;

/// Pre-steered array states, one per codebook beam.
#[derive(Debug, Clone)]
pub struct PatternTable {
    /// `(commanded beam, pre-steered array)` in codebook order.
    entries: Vec<(f64, SteeredArray)>,
}

impl PatternTable {
    /// Steers a copy of `base` to every beam of `codebook` (commands are
    /// clamped exactly as [`SteeredArray::steer_to`] clamps them) and
    /// stores the results. `base` itself is not modified.
    pub fn new(base: &SteeredArray, codebook: &Codebook) -> Self {
        let mut entries = Vec::with_capacity(codebook.len());
        for &beam in codebook.beams() {
            let mut steered = *base;
            steered.steer_to(beam);
            entries.push((beam, steered));
        }
        PatternTable { entries }
    }

    /// Number of entries (== codebook length).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the codebook was empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(commanded beam, pre-steered array)` in codebook order.
    /// The commanded beam is the codebook value, which may differ from
    /// the applied steering if the command was clamped.
    pub fn entries(&self) -> impl Iterator<Item = (f64, &SteeredArray)> {
        self.entries.iter().map(|(beam, array)| (*beam, array))
    }

    /// The commanded beam of entry `i` (codebook value, degrees).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn beam_deg(&self, i: usize) -> f64 {
        self.entries[i].0
    }

    /// True when both tables hold the same pattern entry by entry
    /// ([`SteeredArray::same_pattern`]), so that one page serves both.
    pub fn same_patterns(&self, other: &PatternTable) -> bool {
        self.len() == other.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|((_, a), (_, b))| a.same_pattern(b))
    }

    /// Evaluates every entry's gain toward every bearing in one pass:
    /// row `i` of the returned page is entry `i`'s
    /// [`SteeredArray::gain_dbi_batch`] over `bearings_deg`, bit for bit.
    /// A sweep computes its observation-angle page once and the inner
    /// loop becomes a slice lookup.
    ///
    /// Each distinct cell is computed once. The steering-free terms of a
    /// query (wrapped local angle, ground-plane test, element gain,
    /// sin θ) are taken once per distinct bearing, since every entry
    /// shares the base's mount. Only entries whose pattern differs from
    /// the previous entry's fold them; the rest, such as commands clamped
    /// at the scan edge, copy the previous row. A bearing that repeats an
    /// earlier one bit for bit copies that column.
    pub fn fill_page(&self, bearings_deg: &[f64]) -> GainPage {
        let (rows, cols) = (self.entries.len(), bearings_deg.len());
        let mut data = vec![0.0; rows * cols];
        let Some((_, first)) = self.entries.first() else {
            return GainPage { rows, cols, data };
        };
        // Each column is folded, or copies the first column with its bits
        // (a scan per column: bearing lists are one link's paths).
        let mut folded = Vec::with_capacity(cols);
        let mut copied = Vec::new();
        for (c, b) in bearings_deg.iter().enumerate() {
            match bearings_deg[..c]
                .iter()
                .position(|e| e.to_bits() == b.to_bits())
            {
                Some(source) => copied.push((c, source)),
                None => folded.push((c, first.terms(*b))),
            }
        }
        let mut previous: Option<&SteeredArray> = None;
        for (i, (_, arr)) in self.entries.iter().enumerate() {
            let start = i * cols;
            if previous.is_some_and(|p| p.same_pattern(arr)) {
                data.copy_within(start - cols..start, start);
            } else {
                let row = &mut data[start..start + cols];
                for (c, terms) in &folded {
                    row[*c] = arr.fold(terms);
                }
                for &(c, source) in &copied {
                    row[c] = row[source];
                }
            }
            previous = Some(arr);
        }
        GainPage { rows, cols, data }
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
    use crate::{PatchElement, PhaseShifter, UniformLinearArray};

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
        // 13 bearings, front and back hemisphere, with wraps past 180°.
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

    /// Every cell of `table.fill_page(bearings)` against
    /// [`SteeredArray::gain_dbi`] on the cell's entry, by its bits.
    fn assert_page_matches(table: &PatternTable, bearings: &[f64], case: &str) {
        let page = table.fill_page(bearings);
        assert_eq!(
            (page.rows(), page.cols()),
            (table.len(), bearings.len()),
            "{case}"
        );
        for (i, (beam, arr)) in table.entries().enumerate() {
            for (&b, g) in bearings.iter().zip(page.row(i)) {
                assert_eq!(
                    g.to_bits(),
                    arr.gain_dbi(b).to_bits(),
                    "{case}: entry {i} (beam {beam}), bearing {b}"
                );
            }
        }
    }

    #[test]
    fn page_kernel_is_bit_identical_on_repeats_zeros_and_clamped_runs() {
        // At boresight 90° the scan range is 20°…160°. Bearings repeat
        // (including +0.0 and −0.0, which differ by bits), wrap past
        // ±180°, and sit on and behind the ground plane (local |θ| ≥ 90°
        // at 0°, 180°, −90° and 270°).
        let bearings = [
            0.0, -0.0, 17.3, 90.0, 0.0, 180.0, -180.0, 17.3, -0.0, 270.0, 359.9, 500.0, 123.4,
            90.0, -90.0, 179.999, 45.0, 45.0,
        ];
        let codebooks = [
            ("clamped at the start", Codebook::sweep(0.0, 40.0, 2.0)),
            ("clamped at the end", Codebook::sweep(140.0, 200.0, 3.0)),
            (
                "clamped runs inside",
                Codebook::from_beams(vec![
                    100.0, 170.0, 175.0, 180.0, 30.0, 10.0, 5.0, 60.0, 60.0, 0.0,
                ]),
            ),
            ("one beam", Codebook::from_beams(vec![-30.0])),
        ];
        for boresight in [90.0, -0.0, 179.5] {
            let base = SteeredArray::paper_array(boresight);
            for (name, codebook) in &codebooks {
                // The codebooks are written for boresight 90°; shift them.
                let shifted = codebook
                    .beams()
                    .iter()
                    .map(|b| b + boresight - 90.0)
                    .collect();
                let table = PatternTable::new(&base, &Codebook::from_beams(shifted));
                assert_page_matches(&table, &bearings, &format!("boresight {boresight}, {name}"));
            }
        }
        // The clamped runs do repeat a pattern, so the copies are taken.
        let table = PatternTable::new(&SteeredArray::paper_array(90.0), &codebooks[2].1);
        let entries: Vec<&SteeredArray> = table.entries().map(|(_, a)| a).collect();
        assert!(entries[1].same_pattern(entries[2]) && entries[5].same_pattern(entries[6]));
    }

    #[test]
    fn page_kernel_is_bit_identical_over_random_arrays() {
        let mut rng = movr_math::SimRng::seed_from_u64(0x9A6E);
        for case in 0..200 {
            let n = rng.uniform_usize(1, crate::MAX_ELEMENTS);
            let spacing = rng.uniform(0.1, 1.5);
            let bits = u32::try_from(rng.uniform_usize(1, 16)).expect("at most 16 bits");
            let element = PatchElement {
                peak_gain_dbi: rng.uniform(0.0, 8.0),
                exponent: rng.uniform(0.5, 4.0),
                back_lobe_dbi: rng.uniform(-30.0, -10.0),
            };
            let boresight = rng.uniform(-180.0, 180.0);
            let array = UniformLinearArray::new(n, spacing, element, PhaseShifter::with_bits(bits));
            let base = SteeredArray::new(array, boresight);
            // Beams out to ±100° off broadside, so some clamp, in runs.
            let mut beams: Vec<f64> = (0..rng.uniform_usize(1, 40))
                .map(|_| boresight + rng.uniform(-100.0, 100.0))
                .collect();
            if rng.chance(0.5) {
                beams.sort_by(f64::total_cmp);
            }
            // Bearings all round, with repeats of earlier ones.
            let mut bearings: Vec<f64> = Vec::new();
            for _ in 0..rng.uniform_usize(0, 24) {
                let b = if !bearings.is_empty() && rng.chance(0.3) {
                    bearings[rng.uniform_usize(0, bearings.len() - 1)]
                } else {
                    rng.uniform(-360.0, 360.0)
                };
                bearings.push(b);
            }
            let table = PatternTable::new(&base, &Codebook::from_beams(beams));
            let name = format!("case {case}: n {n}, d {spacing}, {bits} bits, at {boresight}");
            assert_page_matches(&table, &bearings, &name);
            // The array's one-off queries at each entry's command equal a
            // broadside mount of the array steered to it, bit for bit. The
            // array factor is checked through the gain it gives in front
            // of the ground plane: (directivity + element) + |AF| in dB.
            let directivity_db = movr_math::linear_to_db(movr_math::convert::usize_to_f64(n));
            for (_, entry) in table.entries() {
                let command = entry.steer_local_deg();
                let mut mount = SteeredArray::new(array, 0.0);
                mount.steer_to(command);
                let at = format!("{name}: command {command}");
                let peak = mount.gain_dbi(command);
                assert_eq!(
                    array.peak_gain_dbi(command).to_bits(),
                    peak.to_bits(),
                    "{at}"
                );
                for &b in &bearings {
                    let gain = mount.gain_dbi(b);
                    assert_eq!(
                        array.gain_dbi(command, b).to_bits(),
                        gain.to_bits(),
                        "{at}, {b}"
                    );
                    if b.abs() < 90.0 {
                        let af = array.array_factor(command, b).abs();
                        let af_db = movr_math::amplitude_to_db(af);
                        let base_db = directivity_db + element.gain_dbi(b);
                        assert_eq!((base_db + af_db).to_bits(), gain.to_bits(), "{at}, AF {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn same_patterns_compares_entry_by_entry() {
        let codebook = Codebook::sweep(40.0, 140.0, 5.0);
        let a = PatternTable::new(&SteeredArray::paper_array(90.0), &codebook);
        let mut steered = SteeredArray::paper_array(90.0);
        steered.steer_to(123.0);
        // The base's own steering does not matter, only each entry's.
        assert!(a.same_patterns(&PatternTable::new(&steered, &codebook)));
        let tilted = PatternTable::new(&SteeredArray::paper_array(91.0), &codebook);
        assert!(!a.same_patterns(&tilted));
        let fewer = Codebook::sweep(40.0, 135.0, 5.0);
        assert!(!a.same_patterns(&PatternTable::new(&SteeredArray::paper_array(90.0), &fewer)));
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
