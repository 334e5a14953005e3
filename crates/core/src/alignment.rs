//! Backscatter beam alignment (§4.1).
//!
//! The reflector must aim its receive beam at the AP and its transmit
//! beam at the headset — but it can neither transmit nor receive, so it
//! cannot run any standard beam-training handshake. The paper's protocol
//! delegates measurement to the AP:
//!
//! 1. The reflector sets *both* beams to a candidate θ₁ and on/off
//!    modulates its amplifier at f₂.
//! 2. The AP sets both of its beams to a candidate θ₂, transmits a tone
//!    at f₁, and measures the power of the *reflected* tone — which the
//!    modulation has shifted to f₁+f₂, separating it from the AP's own
//!    TX→RX leakage at f₁.
//! 3. The (θ₁, θ₂) pair with the highest sideband power is the alignment:
//!    θ₁ is the incidence angle at the reflector, θ₂ the AP's bearing to
//!    the reflector.
//!
//! The reflection angle (reflector → headset) is found analogously: the
//! AP feeds the reflector from the now-known incidence angle, the
//! reflector sweeps only its transmit beam, and the headset — which *does*
//! have a receive chain — reports SNR per candidate over the control
//! channel.
//!
//! Both searches keep only the argmax of their noisy readings, so each
//! sweep skips every probe that provably reads below the best one: the
//! triangle inequality bounds each probe's coherent folds from gain rows
//! the sweep already holds, and a probe whose reading bound falls below a
//! lower bound on the best reading runs neither its folds nor its jitter,
//! only advancing the RNG past its draw. Results, probe counts, elapsed
//! time and the RNG state are bit-identical to reading every probe
//! (DESIGN.md, "Performance: the sweep-rate link engine"). A sweep's
//! elapsed time is its [`sweep_cost`]: one beam command per outer beam,
//! at the BLE link's [`BLE_LATENCY`], and one [`PROBE_DWELL`] per probe.
//! The sweeps record no events; a caller that owns a recorder records
//! their results.

use crate::gain_control::{run_gain_control, GainControlConfig};
use crate::reflector::MovrReflector;
use crate::relay::{relay_end_snr_batched, relay_input_noise, round_trip_reflection_batched};
use movr_control::BLE_LATENCY;
use movr_math::{amplitude_to_db, convert, db_to_amplitude, SimRng};
use movr_phased_array::{Codebook, GainPage, PatternTable};
use movr_radio::{RadioEndpoint, ToneProbe, SNR_REPORT_SIGMA_DB};
use movr_rfsim::{LinkBatch, Scene};
use movr_sim::SimTime;

/// The AP's or headset's dwell per probe of a sweep: 50 µs.
pub const PROBE_DWELL: SimTime = SimTime::from_micros(50);

/// The skip test's rounding slack, dB: a probe is skipped only when its
/// reading bound plus this slack stays below the lower bound on the best
/// reading. The rounding between gain rows and a reading is about 1e-13
/// relative, under 1e-12 dB, so the slack dominates it by six orders of
/// magnitude (DESIGN.md, "Performance: the sweep-rate link engine").
const SKIP_SLACK_DB: f64 = 1e-6;

/// Alignment-protocol parameters.
#[derive(Debug, Clone)]
pub struct AlignmentConfig {
    /// The AP's beam sweep (θ₂ candidates, absolute bearings).
    pub ap_codebook: Codebook,
    /// The reflector's beam sweep (θ₁ candidates, absolute bearings).
    pub reflector_codebook: Codebook,
    /// The AP-side tone measurement chain.
    pub probe: ToneProbe,
    /// Amplifier gain during probing, dB — a conservative value safely
    /// below the minimum leakage attenuation so no probe posture can
    /// saturate the loop.
    pub probe_gain_db: f64,
    /// Whether the reflector modulates (true = the paper's protocol;
    /// false = the ablation that shows why modulation is necessary).
    pub modulated: bool,
}

impl Default for AlignmentConfig {
    fn default() -> Self {
        AlignmentConfig {
            ap_codebook: Codebook::paper_sweep(),
            reflector_codebook: Codebook::paper_sweep(),
            probe: ToneProbe::default(),
            probe_gain_db: 20.0,
            modulated: true,
        }
    }
}

/// The outcome of an alignment sweep.
#[derive(Debug, Clone, Copy)]
pub struct AlignmentResult {
    /// Best reflector beam (θ₁), absolute bearing in degrees.
    pub reflector_angle_deg: f64,
    /// Best AP beam (θ₂), absolute bearing in degrees.
    pub ap_angle_deg: f64,
    /// Sideband power at the peak, dBm.
    pub peak_power_dbm: f64,
    /// Number of (θ₁, θ₂) measurements taken.
    pub measurements: usize,
    /// Wall-clock cost of the sweep: its [`sweep_cost`], or
    /// [`SimTime::MAX`] when that does not fit.
    pub elapsed: SimTime,
}

/// Runs the incidence-angle estimation: full (θ₁ × θ₂) sweep with the
/// reflector echoing back to the AP.
///
/// `ap` and `reflector` are taken by value (the protocol steers them
/// freely); callers keep their own copies of the operational settings.
pub fn estimate_incidence(
    scene: &Scene,
    ap: RadioEndpoint,
    mut reflector: MovrReflector,
    config: &AlignmentConfig,
    rng: &mut SimRng,
) -> AlignmentResult {
    reflector.set_gain_db(config.probe_gain_db);
    reflector.set_modulating(config.modulated);

    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    let mut measurements = 0usize;

    // Path geometry is frozen for the whole sweep: trace both legs of
    // the round trip once, freeze them into tap batches, and take the
    // AP's whole codebook against the fixed path bearings of both legs
    // as one page, whose rows fold the first time a probe reads them;
    // the back leg's arrivals mostly repeat the forward leg's departures
    // bit for bit, and a row computes each distinct cell once. Each probe
    // below is then two multiply-accumulate passes over the taps —
    // bit-identical to steering and re-tracing per probe, at a fraction
    // of the cost.
    let fwd = scene.trace_link(ap.position(), reflector.position()).batch();
    let bck = scene.trace_link(reflector.position(), ap.position()).batch();
    let ap_table = PatternTable::new(ap.array(), &config.ap_codebook);
    let ap_rows = LegRows::new(&ap_table, fwd.departure_deg(), bck.arrival_deg());
    // The probe's leakage and floor terms are fixed for the sweep too.
    let meter = if config.modulated {
        config.probe.modulated_meter(ap.tx_power_dbm())
    } else {
        config.probe.unmodulated_meter(ap.tx_power_dbm())
    };
    // Both of the reflector's beams take θ₁, and its two arrays share one
    // mount, so one table serves both, and one page over both legs'
    // bearings gives both posture rows. A posture draws nothing from
    // `rng`, so every θ₁'s relay gain is taken before the first probe,
    // and its gain rows fold when a probe first reads them.
    let posture_table = PatternTable::new(reflector.rx_array(), &config.reflector_codebook);
    let posture_rows = LegRows::new(&posture_table, fwd.arrival_deg(), bck.departure_deg());
    let relay_gains: Vec<Option<f64>> = posture_table
        .entries()
        .map(|(_, posture)| {
            reflector.adopt_steering(posture, posture);
            reflector.effective_gain_db()
        })
        .collect();
    let round_trip_dbm = |i: usize, j: usize| {
        round_trip_reflection_batched(
            &fwd,
            &bck,
            ap_rows.first(j),
            ap_rows.second(j),
            ap.tx_power_dbm(),
            relay_gains[i],
            posture_rows.first(i),
            posture_rows.second(i),
        )
        .unwrap_or(f64::NEG_INFINITY)
    };

    // The skip test. `lower` never exceeds the sweep's best reading: it
    // is a reading taken, or the pre-jitter reading of the probe with the
    // largest bound less the jitter. A probe at posture i is skipped when
    // its round-trip bound is below the amplitude whose carrier would
    // read `lower` less the jitter and the slack.
    let bounds = round_trip_bounds(&ap_table, &posture_table, &fwd, &bck, &relay_gains);
    let ap_beams = ap_table.len();
    let jitter_db = meter.jitter_bound_db();
    let mut lower = f64::NEG_INFINITY;
    let best_bounded = first_max(relay_gains.iter().enumerate().filter_map(|(i, gain_db)| {
        let gain_db = (*gain_db)?;
        let row = &bounds[i * ap_beams..(i + 1) * ap_beams];
        let (j, b) = first_max(row.iter().copied().enumerate())?;
        Some(((i, j), gain_db + amplitude_to_db(b)))
    }));
    if let Some(((i, j), _)) = best_bounded {
        lower = lower.max(meter.pre_jitter_dbm(round_trip_dbm(i, j)) - jitter_db);
    }
    let skip_below = |lower: f64, relay_gain_db: Option<f64>| {
        relay_gain_db.map_or(0.0, |gain_db| {
            let carrier_dbm = meter.carrier_at_dbm(lower - jitter_db - SKIP_SLACK_DB);
            db_to_amplitude(carrier_dbm - ap.tx_power_dbm() - gain_db)
        })
    };

    let beams = config.reflector_codebook.beams().iter();
    for (i, (&theta1, &relay_gain_db)) in beams.zip(&relay_gains).enumerate() {
        let row_bounds = &bounds[i * ap_beams..(i + 1) * ap_beams];
        let mut threshold = skip_below(lower, relay_gain_db);
        for (j, (theta2, _)) in ap_table.entries().enumerate() {
            measurements += 1;
            if row_bounds[j] < threshold {
                rng.skip_std_normal();
                continue;
            }
            let reading = meter.measure(round_trip_dbm(i, j), rng);
            if reading.power_dbm > best.0 {
                best = (reading.power_dbm, theta1, theta2);
                if best.0 > lower {
                    lower = best.0;
                    threshold = skip_below(lower, relay_gain_db);
                }
            }
        }
    }

    let elapsed = sweep_cost(
        convert::usize_to_u64(config.reflector_codebook.len()),
        convert::usize_to_u64(config.ap_codebook.len()),
    );
    AlignmentResult {
        reflector_angle_deg: best.1,
        ap_angle_deg: best.2,
        peak_power_dbm: best.0,
        measurements,
        elapsed: elapsed.unwrap_or(SimTime::MAX),
    }
}

/// The cost of a sweep of `commands` beam commands, each followed by
/// `dwells_per_command` probes: `commands` [`BLE_LATENCY`]s plus
/// `commands · dwells_per_command` [`PROBE_DWELL`]s, or `None` when it
/// does not fit in a [`SimTime`].
pub fn sweep_cost(commands: u64, dwells_per_command: u64) -> Option<SimTime> {
    let commands = u128::from(commands);
    let command_ns = commands * u128::from(BLE_LATENCY.as_nanos());
    let dwell_ns = (commands * u128::from(dwells_per_command))
        .checked_mul(u128::from(PROBE_DWELL.as_nanos()))?;
    let total = command_ns.checked_add(dwell_ns)?;
    u64::try_from(total).ok().map(SimTime::from_nanos)
}

/// The outcome of the reflection-angle (reflector → headset) estimation.
#[derive(Debug, Clone, Copy)]
pub struct ReflectionResult {
    /// Best reflector transmit beam, absolute bearing in degrees.
    pub tx_angle_deg: f64,
    /// Best headset receive beam, absolute bearing in degrees.
    pub headset_angle_deg: f64,
    /// End-to-end SNR at the peak, dB.
    pub peak_snr_db: f64,
    /// Number of measurements taken.
    pub measurements: usize,
    /// Wall-clock cost of the sweep: its [`sweep_cost`], or
    /// [`SimTime::MAX`] when that does not fit.
    pub elapsed: SimTime,
}

/// What the reflection-angle search sweeps over: the reflector's
/// transmit-beam candidates, the headset's receive-beam candidates, and
/// the shared protocol knobs.
#[derive(Debug, Clone, Copy)]
pub struct SweepParams<'a> {
    /// Reflector transmit-beam candidates (absolute bearings, degrees).
    pub tx_codebook: &'a Codebook,
    /// Headset receive-beam candidates (absolute bearings, degrees).
    pub headset_codebook: &'a Codebook,
    /// The incidence stage's protocol knobs. The search reads none of
    /// them: its commands and dwells cost [`BLE_LATENCY`] and
    /// [`PROBE_DWELL`] like the incidence sweep's.
    pub config: &'a AlignmentConfig,
}

/// Estimates the reflection angle: the reflector's receive beam stays on
/// the (already estimated) AP bearing; its transmit beam sweeps
/// `sweep.tx_codebook` while the headset sweeps `sweep.headset_codebook`
/// and reports SNR. SNR reports carry [`SNR_REPORT_SIGMA_DB`] of
/// measurement noise. Each candidate TX beam first runs the §4.2 gain
/// loop.
pub fn estimate_reflection(
    scene: &Scene,
    ap: &RadioEndpoint,
    mut reflector: MovrReflector,
    headset: RadioEndpoint,
    sweep: &SweepParams<'_>,
    rng: &mut SimRng,
) -> ReflectionResult {
    let SweepParams {
        tx_codebook,
        headset_codebook,
        config: _,
    } = *sweep;
    reflector.set_modulating(false);
    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    let mut measurements = 0usize;

    // Geometry is frozen for the sweep: trace both relay hops once and
    // freeze them into tap batches. The AP's and the reflector's RX
    // steering never change, so hop 1 — received power and front-end
    // SNR — is one loop invariant computed up front; the headset's
    // candidates are paged against hop 2's arrival bearings and the
    // reflector's TX candidates against its departures, each row folded
    // when a probe first reads it. Per TX candidate only the
    // (gain-controlled) amplifier setting varies.
    let hop1 = scene
        .trace_link(ap.position(), reflector.position())
        .batch()
        .with_noise(&relay_input_noise(scene));
    let hop2 = scene.trace_link(reflector.position(), headset.position()).batch();
    let hs_table = PatternTable::new(headset.array(), headset_codebook);
    let hs_page = hs_table.fill_page(hop2.arrival_deg());
    let tx_table = PatternTable::new(reflector.tx_array(), tx_codebook);
    let tx_page = tx_table.fill_page(hop2.departure_deg());
    let ap_gains = ap.array().gain_dbi_batch(hop1.departure_deg());
    let rx_gains = reflector.rx_array().gain_dbi_batch(hop1.arrival_deg());
    let hop1_received_dbm = hop1.received_dbm(ap.tx_power_dbm(), &ap_gains, &rx_gains);
    let hop1_snr_db = hop1.snr_db(hop1_received_dbm);

    // The skip test, as in the incidence sweep, on the end SNR: every
    // report lies within `jitter_db` of its end SNR, which is at most
    // hop 1's SNR and at most hop 2's. `lower` is raised per TX beam by
    // the end SNR of its best-bounded headset beam less the jitter, where
    // that beam's bound shows it could.
    let hop2_paths = hop2.tap_magnitudes().len();
    let hs_amplitudes = hs_table.amplitude_bounds(hop2.arrival_deg());
    let hs_bounds = BoundPage::new(
        hs_table.len(),
        |j| &hs_amplitudes[j * hop2_paths..(j + 1) * hop2_paths],
        hop2.tap_magnitudes(),
    );
    let tx_bounds = tx_table.amplitude_bounds(hop2.departure_deg());
    let mut hop2_bounds = vec![0.0; hs_table.len()];
    let jitter_db = SNR_REPORT_SIGMA_DB * SimRng::STD_NORMAL_MAX;
    let mut lower = f64::NEG_INFINITY;
    let skip_below = |lower: f64, relay_gain_db: Option<f64>| {
        let level = lower - jitter_db - SKIP_SLACK_DB;
        relay_gain_db.map_or(0.0, |gain_db| {
            if hop1_snr_db < level {
                f64::INFINITY
            } else {
                db_to_amplitude(level - hop2.snr_db(hop1_received_dbm + gain_db))
            }
        })
    };

    let rx = *reflector.rx_array();
    for (i, (tx_deg, tx)) in tx_table.entries().enumerate() {
        reflector.adopt_steering(&rx, tx);
        // Each beam pair has its own leakage; re-run the §4.2 loop so the
        // candidate is evaluated at the gain it would actually be served
        // with.
        run_gain_control(&mut reflector, &GainControlConfig::default());
        let relay_gain_db = reflector.effective_gain_db();
        let end_snr_db = |j: usize| {
            relay_end_snr_batched(
                hop1_received_dbm,
                hop1_snr_db,
                relay_gain_db,
                &hop2,
                tx_page.row(i),
                hs_page.row(j),
            )
        };
        let tx_row = &tx_bounds[i * hop2_paths..(i + 1) * hop2_paths];
        hs_bounds.fold_bounds(tx_row, &mut hop2_bounds);
        // Below this bound, the beam's end SNR less the jitter stays
        // below `lower` by the slack, and the update leaves it as is.
        let raises = skip_below(lower + 2.0 * jitter_db, relay_gain_db);
        if let Some((j, b)) = first_max(hop2_bounds.iter().copied().enumerate()) {
            if b >= raises {
                lower = lower.max(end_snr_db(j) - jitter_db);
            }
        }
        let mut threshold = skip_below(lower, relay_gain_db);
        for (j, (rx_deg, _)) in hs_table.entries().enumerate() {
            measurements += 1;
            if hop2_bounds[j] < threshold {
                rng.skip_std_normal();
                continue;
            }
            let reported = end_snr_db(j) + rng.normal(0.0, SNR_REPORT_SIGMA_DB);
            if reported > best.0 {
                best = (reported, tx_deg, rx_deg);
                if best.0 > lower {
                    lower = best.0;
                    threshold = skip_below(lower, relay_gain_db);
                }
            }
        }
    }

    let elapsed = sweep_cost(
        convert::usize_to_u64(tx_codebook.len()),
        convert::usize_to_u64(headset_codebook.len()),
    );
    ReflectionResult {
        tx_angle_deg: best.1,
        headset_angle_deg: best.2,
        peak_snr_db: best.0,
        measurements,
        elapsed: elapsed.unwrap_or(SimTime::MAX),
    }
}

/// One table's gain rows toward the bearings of a round trip's two legs:
/// one page over the first leg's bearings followed by the second's, each
/// leg read as a column range of it. No row is copied per leg.
struct LegRows {
    page: GainPage,
    split: usize,
}

impl LegRows {
    fn new(table: &PatternTable, first_deg: &[f64], second_deg: &[f64]) -> Self {
        LegRows {
            page: table.fill_page(&both_legs(first_deg, second_deg)),
            split: first_deg.len(),
        }
    }

    /// Entry `i`'s gains toward the first leg's bearings.
    fn first(&self, i: usize) -> &[f64] {
        &self.page.row(i)[..self.split]
    }

    /// Entry `i`'s gains toward the second leg's bearings.
    fn second(&self, i: usize) -> &[f64] {
        &self.page.row(i)[self.split..]
    }
}

/// The first leg's bearings followed by the second's.
fn both_legs(first_deg: &[f64], second_deg: &[f64]) -> Vec<f64> {
    first_deg.iter().chain(second_deg).copied().collect()
}

/// Per θ₁ index `i`, the bound on each probe's round trip as an
/// amplitude, at `bounds[i·m + j]` for θ₂ index `j` of `m`: the product
/// of both legs' fold bounds, so the probe's carrier is at most
/// `P + G + 20·log10(bound)` for transmit power P and relay gain G. Each
/// table is bounded over both legs at once, as for its page: the AP
/// toward the forward departures and from the back arrivals, the
/// reflector's posture from the forward arrivals and toward the back
/// departures. Each posture's row is computed once, and none for a
/// posture whose amplifier is off or saturated, whose probes are all
/// read; its row stays 0.
fn round_trip_bounds(
    ap: &PatternTable,
    posture: &PatternTable,
    fwd: &LinkBatch,
    bck: &LinkBatch,
    relay_gains: &[Option<f64>],
) -> Vec<f64> {
    let m = ap.len();
    let split = fwd.tap_magnitudes().len();
    let cols = split + bck.tap_magnitudes().len();
    let ap_bounds = ap.amplitude_bounds(&both_legs(fwd.departure_deg(), bck.arrival_deg()));
    let ap_row = |j: usize| &ap_bounds[j * cols..(j + 1) * cols];
    let fwd_page = BoundPage::new(m, |j| &ap_row(j)[..split], fwd.tap_magnitudes());
    let bck_page = BoundPage::new(m, |j| &ap_row(j)[split..], bck.tap_magnitudes());
    let posture_bounds =
        posture.amplitude_bounds(&both_legs(fwd.arrival_deg(), bck.departure_deg()));
    let mut bounds = vec![0.0; relay_gains.len() * m];
    let mut back = vec![0.0; m];
    for (i, gain_db) in relay_gains.iter().enumerate() {
        if gain_db.is_none() {
            continue;
        }
        let ends = &posture_bounds[i * cols..(i + 1) * cols];
        let row = &mut bounds[i * m..(i + 1) * m];
        fwd_page.fold_bounds(&ends[..split], row);
        bck_page.fold_bounds(&ends[split..], &mut back);
        for (o, b) in row.iter_mut().zip(&back) {
            *o *= b;
        }
    }
    bounds
}

/// A codebook's amplitude bounds, each weighted by its path's tap
/// magnitude and laid out path-major, so that one posture's fold bounds
/// against every codebook entry are a pass of multiply-adds down one
/// contiguous column per path.
struct BoundPage {
    entries: usize,
    /// `weights[k·entries + j] = |tapₖ|·a_jk` for entry j, path k.
    weights: Vec<f64>,
}

impl BoundPage {
    /// `row(j)` is entry j's amplitude bounds toward the paths of
    /// `tap_magnitudes` ([`PatternTable::amplitude_bounds`]).
    fn new<'a>(entries: usize, row: impl Fn(usize) -> &'a [f64], tap_magnitudes: &[f64]) -> Self {
        let mut weights = Vec::with_capacity(entries * tap_magnitudes.len());
        for (k, tap) in tap_magnitudes.iter().enumerate() {
            weights.extend((0..entries).map(|j| tap * row(j)[k]));
        }
        BoundPage { entries, weights }
    }

    /// `out[j] = Σₖ |tapₖ|·a_jk·bₖ` for every entry j, where the other end
    /// bounds path k's field amplitude by `bₖ = other_end[k]`: by the
    /// triangle inequality, a bound on the magnitude of the coherent fold
    /// between entry j and that end (see
    /// [`movr_rfsim::LinkBatch::tap_magnitudes`]).
    fn fold_bounds(&self, other_end: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        if self.entries == 0 {
            return;
        }
        for (column, b) in self.weights.chunks_exact(self.entries).zip(other_end) {
            for (o, w) in out.iter_mut().zip(column) {
                *o += w * b;
            }
        }
    }
}

/// The first item with the largest value; a NaN value never wins.
fn first_max<T>(items: impl Iterator<Item = (T, f64)>) -> Option<(T, f64)> {
    let mut best: Option<(T, f64)> = None;
    for (item, value) in items {
        if best.as_ref().map_or(!value.is_nan(), |&(_, b)| value > b) {
            best = Some((item, value));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::Vec2;

    /// Shortest-arc angular difference, degrees.
    fn arc(a: f64, b: f64) -> f64 {
        movr_math::wrap_deg_180(a - b).abs()
    }

    fn setup() -> (Scene, RadioEndpoint, MovrReflector) {
        let scene = Scene::paper_office();
        let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
        let reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 5);
        (scene, ap, reflector)
    }

    /// Coarse codebooks keep unit tests fast; the benches run the paper's
    /// full 1° sweeps. Truth bearings: reflector → AP ≈ −102.5°, AP →
    /// reflector ≈ 77.5°.
    fn coarse_config() -> AlignmentConfig {
        AlignmentConfig {
            ap_codebook: Codebook::sweep(47.0, 107.0, 3.0),
            reflector_codebook: Codebook::sweep(-132.0, -72.0, 3.0),
            ..Default::default()
        }
    }

    #[test]
    fn incidence_estimate_close_to_truth() {
        let (scene, ap, reflector) = setup();
        let truth_refl = reflector.position().bearing_deg_to(ap.position());
        let truth_ap = ap.position().bearing_deg_to(reflector.position());
        let mut rng = SimRng::seed_from_u64(1);
        let r = estimate_incidence(&scene, ap, reflector, &coarse_config(), &mut rng);
        assert!(
            arc(r.reflector_angle_deg, truth_refl) <= 3.0,
            "θ1 est {} truth {truth_refl}",
            r.reflector_angle_deg
        );
        assert!(
            arc(r.ap_angle_deg, truth_ap) <= 3.0,
            "θ2 est {} truth {truth_ap}",
            r.ap_angle_deg
        );
        assert_eq!(r.measurements, 21 * 21);
    }

    #[test]
    fn unmodulated_sweep_fails() {
        // Without modulation the AP's own leakage swamps the echo and the
        // argmax is noise — the estimate is effectively random, which is
        // exactly why §4.1 needs the f₂ modulation.
        let (scene, ap, reflector) = setup();
        let truth_refl = reflector.position().bearing_deg_to(ap.position());
        let cfg = AlignmentConfig {
            modulated: false,
            ..coarse_config()
        };
        // Across seeds, the unmodulated estimator must be wildly wrong at
        // least most of the time.
        let mut gross_errors = 0;
        for seed in 0..8 {
            let mut rng = SimRng::seed_from_u64(seed);
            let r = estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng);
            if arc(r.reflector_angle_deg, truth_refl) > 6.0 {
                gross_errors += 1;
            }
        }
        assert!(gross_errors >= 6, "only {gross_errors}/8 gross errors");
    }

    #[test]
    fn elapsed_accounts_for_sweep_size() {
        let (scene, ap, reflector) = setup();
        let cfg = coarse_config();
        let mut rng = SimRng::seed_from_u64(2);
        let r = estimate_incidence(&scene, ap, reflector, &cfg, &mut rng);
        let expect =
            SimTime::from_nanos(21 * BLE_LATENCY.as_nanos() + 21 * 21 * PROBE_DWELL.as_nanos());
        assert_eq!(r.elapsed, expect);
    }

    #[test]
    fn reflection_estimate_finds_headset() {
        let (scene, mut ap, mut reflector) = setup();
        let hs_pos = Vec2::new(3.5, 1.0);
        let headset =
            RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(reflector.position()));
        // Incidence already known: aim AP and reflector RX at each other.
        ap.steer_toward(reflector.position());
        reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));

        let truth_tx = reflector.position().bearing_deg_to(headset.position());
        let truth_hs = headset.position().bearing_deg_to(reflector.position());

        let tx_cb = Codebook::sweep(truth_tx - 30.0, truth_tx + 30.0, 3.0);
        let hs_cb = Codebook::sweep(truth_hs - 30.0, truth_hs + 30.0, 3.0);
        let mut rng = SimRng::seed_from_u64(3);
        let cfg = AlignmentConfig::default();
        let sweep = SweepParams {
            tx_codebook: &tx_cb,
            headset_codebook: &hs_cb,
            config: &cfg,
        };
        let r = estimate_reflection(&scene, &ap, reflector, headset, &sweep, &mut rng);
        assert!(
            arc(r.tx_angle_deg, truth_tx) <= 3.0,
            "tx est {} truth {truth_tx}",
            r.tx_angle_deg
        );
        assert!(
            arc(r.headset_angle_deg, truth_hs) <= 3.0,
            "hs est {} truth {truth_hs}",
            r.headset_angle_deg
        );
        assert!(r.peak_snr_db > 15.0);
    }

    #[test]
    fn a_sweep_too_long_for_sim_time_saturates() {
        // At most ⌊(2^64 − 1) ns / 7.5 ms⌋ command latencies fit in a
        // `SimTime`; one more does not, and a sweep reports that as
        // `SimTime::MAX`.
        let most = u64::MAX / BLE_LATENCY.as_nanos();
        let cost = sweep_cost(most, 0).expect("fits");
        assert_eq!(cost.as_nanos(), most * BLE_LATENCY.as_nanos());
        assert_eq!(sweep_cost(most + 1, 0), None);
        // Codebook counts whose product of dwells overflows, in 128-bit
        // arithmetic too, do not fit either.
        assert_eq!(sweep_cost(1 << 32, 1 << 32), None);
        assert_eq!(sweep_cost(u64::MAX, u64::MAX), None);
        // The paper's 101 × 101 install sweep: 101 commands and 10,201
        // dwells, 1.268 s.
        let paper = sweep_cost(101, 101).expect("fits");
        assert_eq!(paper, SimTime::from_micros(101 * 7_500 + 101 * 101 * 50));
    }

    #[test]
    fn deterministic_given_seed() {
        let (scene, ap, reflector) = setup();
        let cfg = coarse_config();
        let mut r1 = SimRng::seed_from_u64(11);
        let mut r2 = SimRng::seed_from_u64(11);
        let a = estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut r1);
        let b = estimate_incidence(&scene, ap, reflector, &cfg, &mut r2);
        assert_eq!(a.reflector_angle_deg, b.reflector_angle_deg);
        assert_eq!(a.ap_angle_deg, b.ap_angle_deg);
        assert_eq!(a.peak_power_dbm, b.peak_power_dbm);
    }
}
