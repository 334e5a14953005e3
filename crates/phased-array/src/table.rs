//! Codebook-resolution pattern tables.
//!
//! A beam sweep steers the same array to every codebook entry, over and
//! over (each alignment round, each probe). [`PatternTable`] performs
//! the steer — and therefore the DAC quantisation — once per beam up
//! front, storing one entry per beam: the commanded beam and a
//! [`SteeredArray`] copy holding that command's phases beside the
//! array's own slopes, so a sweep's inner loop is pure gain lookups.

use crate::array::{BearingTerms, SteeredArray};
use crate::codebook::Codebook;
use std::cell::OnceCell;
use std::sync::Arc;

/// Pre-steered array states, one per codebook beam.
#[derive(Debug, Clone)]
pub struct PatternTable {
    /// `(commanded beam, pre-steered array)` in codebook order, shared
    /// with the pages filled from the table.
    entries: Arc<[(f64, SteeredArray)]>,
}

impl PatternTable {
    /// Steers a copy of `base` to every beam of `codebook` (commands are
    /// clamped exactly as [`SteeredArray::steer_to`] clamps them) and
    /// stores the results. `base` itself is not modified.
    pub fn new(base: &SteeredArray, codebook: &Codebook) -> Self {
        let entries = codebook
            .beams()
            .iter()
            .map(|&beam| {
                let mut steered = *base;
                steered.steer_to(beam);
                (beam, steered)
            })
            .collect();
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

    /// Every entry's gains toward `bearings_deg`: row `i` of the returned
    /// page is entry `i`'s [`SteeredArray::gain_dbi_batch`] over
    /// `bearings_deg`, bit for bit. A sweep fills its observation-angle
    /// page once and the inner loop becomes a slice lookup.
    ///
    /// Rows fold on demand: a row is computed the first time
    /// [`GainPage::row`] reads it, so a sweep that skips most probes folds
    /// only the rows its read probes need. Each distinct cell of a read
    /// row is computed once. The steering-free terms of a query (wrapped
    /// local angle, ground-plane test, element gain, sin θ) are taken here,
    /// once per distinct bearing, since every entry shares the base's
    /// mount. A bearing that repeats an earlier one bit for bit copies
    /// that column, and a row whose entry holds the same pattern as the
    /// previous entry copies that row once it is folded, as commands
    /// clamped at the scan edge do.
    pub fn fill_page(&self, bearings_deg: &[f64]) -> GainPage {
        let columns = match self.entries.first() {
            Some((_, first)) => Columns::new(bearings_deg, |b| first.terms(b)),
            // No entry, so no row to fold.
            None => Columns {
                computed: Vec::new(),
                copied: Vec::new(),
            },
        };
        GainPage {
            entries: Arc::clone(&self.entries),
            cols: bearings_deg.len(),
            columns,
            rows: vec![OnceCell::new(); self.entries.len()],
        }
    }

    /// An upper bound on every cell's field amplitude `10^(g/20)`, for
    /// the gain `g` that [`PatternTable::fill_page`] gives it:
    /// `bounds[i·n + c]` bounds entry `i` toward `bearings_deg[c]`, for
    /// `n = bearings_deg.len()`. Behind the ground plane the bound is the
    /// cell's exact amplitude. In front of it, it is `10^(base/20)` times
    /// `min(1, |sin(Nψ/2)| / (N·|sin(ψ/2)|) + Δ/2)`, plus 1e-9 for
    /// rounding, with ψ = k·d·(sin θ − sin θ₀) for the entry's clamped
    /// command θ₀ and the DAC step Δ in radians: each quantised phase is
    /// off the ideal one by at most Δ/2, which moves the array factor by
    /// at most Δ/2 (module docs of [`crate::array`]).
    ///
    /// It costs one `powf` per distinct bearing and a few sines per
    /// entry, where converting a page's gains costs one `powf` per cell.
    /// An entry that holds the same command as the previous one, such as
    /// a command clamped at the scan edge, copies its row.
    pub fn amplitude_bounds(&self, bearings_deg: &[f64]) -> Vec<f64> {
        let cols = bearings_deg.len();
        let mut bounds = vec![0.0; self.entries.len() * cols];
        let Some((_, first)) = self.entries.first() else {
            return bounds;
        };
        let array = first.array();
        let columns = Columns::new(bearings_deg, |b| array.bearing_bound(&first.terms(b)));
        let mut previous: Option<f64> = None;
        for (i, (_, arr)) in self.entries.iter().enumerate() {
            let (start, command) = (i * cols, arr.steer_local_deg());
            if previous.is_some_and(|p| p.to_bits() == command.to_bits()) {
                bounds.copy_within(start - cols..start, start);
            } else {
                let steer = array.steer_half_phase(command);
                let row = &mut bounds[start..start + cols];
                columns.fill(row, |bearing| array.amplitude_bound(&steer, bearing));
            }
            previous = Some(command);
        }
        bounds
    }
}

/// A page's columns: those computed, each with its bearing's terms, and
/// those that copy an earlier column repeating their bearing bit for bit,
/// as `(column, source)`.
#[derive(Debug, Clone)]
struct Columns<T> {
    computed: Vec<(usize, T)>,
    copied: Vec<(usize, usize)>,
}

impl<T> Columns<T> {
    /// The columns of `bearings_deg`, taking `terms` once per distinct
    /// bearing (a scan per column: bearing lists are one link's paths).
    fn new(bearings_deg: &[f64], terms: impl Fn(f64) -> T) -> Self {
        let mut columns = Columns {
            computed: Vec::with_capacity(bearings_deg.len()),
            copied: Vec::new(),
        };
        for (c, b) in bearings_deg.iter().enumerate() {
            match bearings_deg[..c]
                .iter()
                .position(|e| e.to_bits() == b.to_bits())
            {
                Some(source) => columns.copied.push((c, source)),
                None => columns.computed.push((c, terms(*b))),
            }
        }
        columns
    }

    /// Fills `row` from `cell`, which gives each computed column's value
    /// from its terms, then copies the repeated columns.
    fn fill(&self, row: &mut [f64], cell: impl Fn(&T) -> f64) {
        for (c, terms) in &self.computed {
            row[*c] = cell(terms);
        }
        for &(c, source) in &self.copied {
            row[c] = row[source];
        }
    }
}

/// An `entries × bearings` gain matrix produced by
/// [`PatternTable::fill_page`]: one row per codebook entry, one column
/// per observation bearing, values in dBi, each row folded the first
/// time it is read. Bit-identical to calling [`SteeredArray::gain_dbi`]
/// per cell. The page shares its table's entries, so it outlives the
/// table.
#[derive(Debug, Clone)]
pub struct GainPage {
    entries: Arc<[(f64, SteeredArray)]>,
    cols: usize,
    columns: Columns<BearingTerms>,
    rows: Vec<OnceCell<Box<[f64]>>>,
}

impl GainPage {
    /// Number of codebook entries (rows).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of observation bearings (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `i`'s gains over the page's bearings, in dBi, folded on the
    /// first read.
    ///
    /// # Panics
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        let rows = self.rows.len();
        assert!(i < rows, "GainPage row {i} out of range ({rows} rows)");
        self.rows[i].get_or_init(|| {
            let arr = &self.entries[i].1;
            if let Some(previous) = i.checked_sub(1).and_then(|p| self.rows[p].get()) {
                if self.entries[i - 1].1.same_pattern(arr) {
                    return previous.clone();
                }
            }
            let mut row = vec![0.0; self.cols];
            self.columns.fill(&mut row, |terms| arr.fold(terms));
            row.into_boxed_slice()
        })
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
        // The base's own steering does not matter, only each entry's.
        live.steer_to(123.0);
        let from_steered = PatternTable::new(&live, &codebook);
        assert_eq!(from_steered.len(), table.len());
        let mut pairs = table.entries().zip(from_steered.entries());
        assert!(pairs.all(|((_, a), (_, b))| a.same_pattern(b)));
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

    /// Entry `i`'s page row against [`SteeredArray::gain_dbi`] on the
    /// entry, by its bits.
    fn assert_row_matches(
        table: &PatternTable,
        page: &GainPage,
        bearings: &[f64],
        i: usize,
        case: &str,
    ) {
        let (beam, arr) = table.entries().nth(i).expect("a row of the table");
        for (&b, g) in bearings.iter().zip(page.row(i)) {
            assert_eq!(
                g.to_bits(),
                arr.gain_dbi(b).to_bits(),
                "{case}: entry {i} (beam {beam}), bearing {b}"
            );
        }
    }

    /// Every cell of `table.fill_page(bearings)`, read in row order.
    fn assert_page_matches(table: &PatternTable, bearings: &[f64], case: &str) {
        let page = table.fill_page(bearings);
        assert_eq!(
            (page.rows(), page.cols()),
            (table.len(), bearings.len()),
            "{case}"
        );
        for i in 0..table.len() {
            assert_row_matches(table, &page, bearings, i, case);
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

    /// One random array of the page and bound tests: `(case name, array,
    /// element count, element, pattern table, bearings)`.
    type RandomCase = (String, UniformLinearArray, usize, PatchElement, PatternTable, Vec<f64>);

    /// 200 random arrays (1–32 elements, 0.1–1.5 λ, 1–16 DAC bits, any
    /// boresight), each with a codebook out to ±100° off broadside, so
    /// that some commands clamp, in runs when sorted, and bearings all
    /// round with repeats, +0.0, −0.0 and the boresight itself.
    fn random_cases() -> Vec<RandomCase> {
        let mut rng = movr_math::SimRng::seed_from_u64(0x9A6E);
        (0..200)
            .map(|case| {
                let n = rng.uniform_usize(1, crate::MAX_ELEMENTS);
                let spacing = rng.uniform(0.1, 1.5);
                let bits = u32::try_from(rng.uniform_usize(1, 16)).expect("at most 16 bits");
                let element = PatchElement {
                    peak_gain_dbi: rng.uniform(0.0, 8.0),
                    exponent: rng.uniform(0.5, 4.0),
                    back_lobe_dbi: rng.uniform(-30.0, -10.0),
                };
                let boresight = rng.uniform(-180.0, 180.0);
                let array =
                    UniformLinearArray::new(n, spacing, element, PhaseShifter::with_bits(bits));
                let base = SteeredArray::new(array, boresight);
                let mut beams: Vec<f64> = (0..rng.uniform_usize(1, 40))
                    .map(|_| boresight + rng.uniform(-100.0, 100.0))
                    .collect();
                if rng.chance(0.5) {
                    beams.sort_by(f64::total_cmp);
                }
                let mut bearings: Vec<f64> = vec![0.0, -0.0, boresight];
                for _ in 0..rng.uniform_usize(0, 24) {
                    let b = if rng.chance(0.3) {
                        bearings[rng.uniform_usize(0, bearings.len() - 1)]
                    } else {
                        rng.uniform(-360.0, 360.0)
                    };
                    bearings.push(b);
                }
                let table = PatternTable::new(&base, &Codebook::from_beams(beams));
                let name = format!("case {case}: n {n}, d {spacing}, {bits} bits, at {boresight}");
                (name, array, n, element, table, bearings)
            })
            .collect()
    }

    #[test]
    fn page_kernel_is_bit_identical_over_random_arrays() {
        let mut order_rng = movr_math::SimRng::seed_from_u64(0x0DE5);
        for (name, array, n, element, table, bearings) in random_cases() {
            assert_page_matches(&table, &bearings, &name);
            // Rows fold on demand, so every read order gives the same bits:
            // reversed, shuffled, and every third row alone.
            let rows = table.len();
            let mut shuffled: Vec<usize> = (0..rows).collect();
            for k in (1..rows).rev() {
                shuffled.swap(k, order_rng.uniform_usize(0, k));
            }
            let orders = [
                ("reversed", (0..rows).rev().collect::<Vec<_>>()),
                ("shuffled", shuffled),
                ("every third", (0..rows).step_by(3).collect()),
            ];
            for (order, rows) in &orders {
                let page = table.fill_page(&bearings);
                for &i in rows {
                    assert_row_matches(&table, &page, &bearings, i, &format!("{name}, {order}"));
                }
            }
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

    /// The skip bound of the §4.1 sweeps: every cell's amplitude bound is
    /// at least the amplitude of its exact gain, and equal to it behind the
    /// ground plane, on clamped codebooks and at ±0.0 bearings too. With
    /// the half DAC step dropped from the bound, this fails.
    #[test]
    fn amplitude_bounds_hold_over_random_arrays() {
        for (name, _, _, _, table, bearings) in random_cases() {
            let bounds = table.amplitude_bounds(&bearings);
            assert_eq!(bounds.len(), table.len() * bearings.len(), "{name}");
            let page = table.fill_page(&bearings);
            let cols = bearings.len();
            for (i, (beam, arr)) in table.entries().enumerate() {
                let row = &bounds[i * cols..(i + 1) * cols];
                for ((&b, &g), &bound) in bearings.iter().zip(page.row(i)).zip(row) {
                    let exact = movr_math::db_to_amplitude(g);
                    let at = format!("{name}: entry {i} (beam {beam}), bearing {b}");
                    if movr_math::wrap_deg_180(b - arr.boresight_deg()).abs() >= 90.0 {
                        assert_eq!(bound.to_bits(), exact.to_bits(), "{at}: behind the plane");
                    } else {
                        assert!(bound >= exact, "{at}: bound {bound} below {exact}");
                    }
                }
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
