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
//! Both searches keep only the argmax of their noisy readings, so an
//! unrecorded sweep skips every probe that provably reads below the best
//! one: the triangle inequality bounds each probe's coherent folds from
//! gain rows the sweep already holds, and a probe whose reading bound
//! falls below a lower bound on the best reading runs neither its folds
//! nor its jitter, only advancing the RNG past its draw. Results, probe
//! counts, elapsed time and the RNG state are bit-identical to reading
//! every probe (DESIGN.md, "Performance: the sweep-rate link engine").
//! A recorded sweep reads every probe, since each probe event carries its
//! reading.

use crate::reflector::MovrReflector;
use crate::relay::{relay_end_snr_batched, relay_input_noise, round_trip_reflection_batched};
use movr_math::{amplitude_to_db, convert, db_to_amplitude, SimRng};
use movr_obs::{Event, NullRecorder, Recorder};
use movr_phased_array::{Codebook, GainPage, PatternTable};
use movr_radio::{RadioEndpoint, ToneProbe};
use movr_rfsim::Scene;
use movr_sim::SimTime;

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
    /// AP-side dwell per (θ₁, θ₂) measurement.
    pub dwell: SimTime,
    /// Control-channel latency to command each reflector beam change.
    pub beam_command_latency: SimTime,
}

impl Default for AlignmentConfig {
    fn default() -> Self {
        AlignmentConfig {
            ap_codebook: Codebook::paper_sweep(),
            reflector_codebook: Codebook::paper_sweep(),
            probe: ToneProbe::default(),
            probe_gain_db: 20.0,
            modulated: true,
            dwell: SimTime::from_micros(50),
            beam_command_latency: SimTime::from_micros(7_500),
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
    /// Wall-clock cost of the sweep.
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
    reflector: MovrReflector,
    config: &AlignmentConfig,
    rng: &mut SimRng,
) -> AlignmentResult {
    estimate_incidence_recorded(
        scene,
        ap,
        reflector,
        config,
        rng,
        SimTime::ZERO,
        &mut NullRecorder,
    )
}

/// [`estimate_incidence`] with observability. The sweep is wrapped in an
/// `alignment_sweep` span starting at `start`; a sim-time cursor
/// advances by `beam_command_latency` per reflector beam change and by
/// `dwell` per (θ₁, θ₂) probe, so every `beam_probe` event
/// (`theta1_deg`, `theta2_deg`, `power_dbm`) is stamped with the instant
/// its measurement completes. The winning pair is announced as
/// `alignment_chosen`. The estimate itself is bit-identical to the plain
/// function: the recorder draws nothing from `rng`, and the plain
/// function's skipped probes read below its peak.
pub fn estimate_incidence_recorded(
    scene: &Scene,
    ap: RadioEndpoint,
    mut reflector: MovrReflector,
    config: &AlignmentConfig,
    rng: &mut SimRng,
    start: SimTime,
    rec: &mut dyn Recorder,
) -> AlignmentResult {
    reflector.set_gain_db(config.probe_gain_db);
    reflector.set_modulating(config.modulated);

    let span = if rec.enabled() {
        Some(rec.start_span(start, "alignment_sweep"))
    } else {
        None
    };
    let mut cursor = start;
    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    let mut measurements = 0usize;

    // Path geometry is frozen for the whole sweep: trace both legs of
    // the round trip once, freeze them into tap batches, and evaluate
    // the AP's whole codebook page against the fixed path bearings up
    // front. Per θ₁ the reflector's own gain rows are computed once;
    // each probe below is then two multiply-accumulate passes over the
    // taps — bit-identical to steering and re-tracing per probe, at a
    // fraction of the cost.
    let fwd = scene.trace_link(ap.position(), reflector.position()).batch();
    let bck = scene.trace_link(reflector.position(), ap.position()).batch();
    let ap_table = PatternTable::new(ap.array(), &config.ap_codebook);
    let ap_fwd_page = ap_table.fill_page(fwd.departure_deg());
    let ap_bck_page = ap_table.fill_page(bck.arrival_deg());
    // The probe's leakage and floor terms are fixed for the sweep too.
    let meter = if config.modulated {
        config.probe.modulated_meter(ap.tx_power_dbm())
    } else {
        config.probe.unmodulated_meter(ap.tx_power_dbm())
    };
    // A posture draws nothing from `rng`, so every θ₁'s relay gain and
    // gain rows are taken before the first probe.
    let postures: Vec<Posture> = config
        .reflector_codebook
        .beams()
        .iter()
        .map(|&theta1| {
            reflector.steer_both(theta1);
            Posture {
                relay_gain_db: reflector.effective_gain_db(),
                rx_gains: reflector.rx_array().gain_dbi_batch(fwd.arrival_deg()),
                tx_gains: reflector.tx_array().gain_dbi_batch(bck.departure_deg()),
            }
        })
        .collect();
    let round_trip_dbm = |i: usize, j: usize| {
        let posture = &postures[i];
        round_trip_reflection_batched(
            &fwd,
            &bck,
            ap_fwd_page.row(j),
            ap_bck_page.row(j),
            ap.tx_power_dbm(),
            posture.relay_gain_db,
            &posture.rx_gains,
            &posture.tx_gains,
        )
        .unwrap_or(f64::NEG_INFINITY)
    };

    // The skip test. `lower` never exceeds the sweep's best reading: it
    // is a reading taken, or the pre-jitter reading of the probe with the
    // largest bound less the jitter. A probe at posture i is skipped when
    // its round-trip bound is below the amplitude whose carrier would
    // read `lower` less the jitter and the slack.
    let mut bounds = (!rec.enabled()).then(|| RoundTripBounds {
        fwd: BoundPage::new(&ap_fwd_page, fwd.tap_magnitudes()),
        bck: BoundPage::new(&ap_bck_page, bck.tap_magnitudes()),
        rx: postures.iter().map(|p| amplitudes(&p.rx_gains)).collect(),
        tx: postures.iter().map(|p| amplitudes(&p.tx_gains)).collect(),
        back: vec![0.0; ap_table.len()],
    });
    let mut row_bounds = vec![0.0; ap_table.len()];
    let jitter_db = meter.jitter_bound_db();
    let mut lower = f64::NEG_INFINITY;
    if let Some(bounds) = &mut bounds {
        let best_bounded = first_max(postures.iter().enumerate().filter_map(|(i, posture)| {
            let gain_db = posture.relay_gain_db?;
            bounds.row(i, &mut row_bounds);
            let (j, b) = first_max(row_bounds.iter().copied().enumerate())?;
            Some(((i, j), gain_db + amplitude_to_db(b)))
        }));
        if let Some(((i, j), _)) = best_bounded {
            lower = lower.max(meter.pre_jitter_dbm(round_trip_dbm(i, j)) - jitter_db);
        }
    }
    let skip_below = |lower: f64, posture: &Posture| {
        posture.relay_gain_db.map_or(0.0, |gain_db| {
            let carrier_dbm = meter.carrier_at_dbm(lower - jitter_db - SKIP_SLACK_DB);
            db_to_amplitude(carrier_dbm - ap.tx_power_dbm() - gain_db)
        })
    };

    let beams = config.reflector_codebook.beams().iter();
    for (i, (&theta1, posture)) in beams.zip(&postures).enumerate() {
        cursor += config.beam_command_latency;
        if let Some(bounds) = &mut bounds {
            bounds.row(i, &mut row_bounds);
        }
        let mut threshold = skip_below(lower, posture);
        for (j, (theta2, _)) in ap_table.entries().enumerate() {
            measurements += 1;
            cursor += config.dwell;
            if bounds.is_some() && row_bounds[j] < threshold {
                rng.skip_std_normal();
                continue;
            }
            let reading = meter.measure(round_trip_dbm(i, j), rng);
            if rec.enabled() {
                rec.record(
                    Event::new(cursor, "beam_probe")
                        .with("theta1_deg", theta1)
                        .with("theta2_deg", theta2)
                        .with("power_dbm", reading.power_dbm),
                );
            }
            if reading.power_dbm > best.0 {
                best = (reading.power_dbm, theta1, theta2);
                if best.0 > lower {
                    lower = best.0;
                    threshold = skip_below(lower, posture);
                }
            }
        }
    }

    let n1 = convert::usize_to_u64(config.reflector_codebook.len());
    let n2 = convert::usize_to_u64(config.ap_codebook.len());
    let elapsed = SimTime::from_nanos(
        n1 * config.beam_command_latency.as_nanos() + n1 * n2 * config.dwell.as_nanos(),
    );
    debug_assert_eq!(start + elapsed, cursor, "cursor must mirror the cost model");

    if let Some(id) = span {
        rec.record(
            Event::new(cursor, "alignment_chosen")
                .with("reflector_deg", best.1)
                .with("ap_deg", best.2)
                .with("peak_dbm", best.0)
                .with("measurements", measurements),
        );
        rec.end_span(cursor, "alignment_sweep", id);
    }

    AlignmentResult {
        reflector_angle_deg: best.1,
        ap_angle_deg: best.2,
        peak_power_dbm: best.0,
        measurements,
        elapsed,
    }
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
    /// Wall-clock cost of the sweep.
    pub elapsed: SimTime,
}

/// What the reflection-angle search sweeps over: the reflector's
/// transmit-beam candidates, the headset's receive-beam candidates, and
/// the shared protocol knobs (dwell, command latency, probe chain).
#[derive(Debug, Clone, Copy)]
pub struct SweepParams<'a> {
    /// Reflector transmit-beam candidates (absolute bearings, degrees).
    pub tx_codebook: &'a Codebook,
    /// Headset receive-beam candidates (absolute bearings, degrees).
    pub headset_codebook: &'a Codebook,
    /// Protocol knobs shared with the incidence stage.
    pub config: &'a AlignmentConfig,
}

/// Estimates the reflection angle: the reflector's receive beam stays on
/// the (already estimated) AP bearing; its transmit beam sweeps
/// `sweep.tx_codebook` while the headset sweeps `sweep.headset_codebook`
/// and reports SNR. SNR reports carry `snr_sigma_db` of measurement
/// noise.
pub fn estimate_reflection(
    scene: &Scene,
    ap: &RadioEndpoint,
    reflector: MovrReflector,
    headset: RadioEndpoint,
    sweep: &SweepParams<'_>,
    rng: &mut SimRng,
) -> ReflectionResult {
    estimate_reflection_recorded(
        scene,
        ap,
        reflector,
        headset,
        sweep,
        rng,
        SimTime::ZERO,
        &mut NullRecorder,
    )
}

/// [`estimate_reflection`] with observability: a `reflection_sweep` span
/// starting at `start` wraps the search; each candidate TX beam first
/// runs the recorded §4.2 gain loop (so its `gain_ramp` span nests
/// inside), then each headset probe emits `reflect_probe` (`tx_deg`,
/// `rx_deg`, `snr_db`); the winner is announced as `reflection_chosen`.
/// The estimate is bit-identical to the plain function, which skips
/// only probes that report below its peak.
#[expect(
    clippy::too_many_arguments,
    reason = "the sweep inputs plus the (start, recorder) pair every `_recorded` fn takes"
)]
pub fn estimate_reflection_recorded(
    scene: &Scene,
    ap: &RadioEndpoint,
    mut reflector: MovrReflector,
    headset: RadioEndpoint,
    sweep: &SweepParams<'_>,
    rng: &mut SimRng,
    start: SimTime,
    rec: &mut dyn Recorder,
) -> ReflectionResult {
    let SweepParams {
        tx_codebook,
        headset_codebook,
        config,
    } = *sweep;
    reflector.set_modulating(false);
    let span = if rec.enabled() {
        Some(rec.start_span(start, "reflection_sweep"))
    } else {
        None
    };
    let mut cursor = start;
    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    let mut measurements = 0usize;
    let snr_sigma_db = 0.5;

    // Geometry is frozen for the sweep: trace both relay hops once and
    // freeze them into tap batches. The AP's and the reflector's RX
    // steering never change, so hop 1 — received power and front-end
    // SNR — is one loop invariant computed up front; the headset's whole
    // candidate page is batched against hop 2's arrival bearings once.
    // Per TX candidate only the reflector's TX gain row and the (gain-
    // controlled) amplifier setting vary.
    let hop1 = scene
        .trace_link(ap.position(), reflector.position())
        .batch()
        .with_noise(&relay_input_noise(scene));
    let hop2 = scene.trace_link(reflector.position(), headset.position()).batch();
    let hs_table = PatternTable::new(headset.array(), headset_codebook);
    let hs_page = hs_table.fill_page(hop2.arrival_deg());
    let ap_gains = ap.array().gain_dbi_batch(hop1.departure_deg());
    let rx_gains = reflector.rx_array().gain_dbi_batch(hop1.arrival_deg());
    let hop1_received_dbm = hop1.received_dbm(ap.tx_power_dbm(), &ap_gains, &rx_gains);
    let hop1_snr_db = hop1.snr_db(hop1_received_dbm);

    // The skip test, as in the incidence sweep, on the end SNR: every
    // report lies within `jitter_db` of its end SNR, which is at most
    // hop 1's SNR and at most hop 2's. `lower` is raised per TX beam by
    // the end SNR of its best-bounded headset beam less the jitter.
    let hs_bounds = (!rec.enabled()).then(|| BoundPage::new(&hs_page, hop2.tap_magnitudes()));
    let mut hop2_bounds = vec![0.0; hs_table.len()];
    let jitter_db = snr_sigma_db * SimRng::STD_NORMAL_MAX;
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

    for &tx_deg in tx_codebook.beams() {
        reflector.steer_tx(tx_deg);
        cursor += config.beam_command_latency;
        // Each beam pair has its own leakage; re-run the §4.2 loop so the
        // candidate is evaluated at the gain it would actually be served
        // with.
        crate::gain_control::run_gain_control_recorded(
            &mut reflector,
            &crate::gain_control::GainControlConfig::default(),
            cursor,
            rec,
        );
        let relay_gain_db = reflector.effective_gain_db();
        let tx_gains = reflector.tx_array().gain_dbi_batch(hop2.departure_deg());
        let end_snr_db = |j: usize| {
            relay_end_snr_batched(
                hop1_received_dbm,
                hop1_snr_db,
                relay_gain_db,
                &hop2,
                &tx_gains,
                hs_page.row(j),
            )
        };
        if let Some(hs_bounds) = &hs_bounds {
            hs_bounds.fold_bounds(&amplitudes(&tx_gains), &mut hop2_bounds);
            if let Some((j, _)) = first_max(hop2_bounds.iter().copied().enumerate()) {
                lower = lower.max(end_snr_db(j) - jitter_db);
            }
        }
        let mut threshold = skip_below(lower, relay_gain_db);
        for (j, (rx_deg, _)) in hs_table.entries().enumerate() {
            measurements += 1;
            cursor += config.dwell;
            if hs_bounds.is_some() && hop2_bounds[j] < threshold {
                rng.skip_std_normal();
                continue;
            }
            let reported = end_snr_db(j) + rng.normal(0.0, snr_sigma_db);
            if rec.enabled() {
                rec.record(
                    Event::new(cursor, "reflect_probe")
                        .with("tx_deg", tx_deg)
                        .with("rx_deg", rx_deg)
                        .with("snr_db", reported),
                );
            }
            if reported > best.0 {
                best = (reported, tx_deg, rx_deg);
                if best.0 > lower {
                    lower = best.0;
                    threshold = skip_below(lower, relay_gain_db);
                }
            }
        }
    }

    let n1 = convert::usize_to_u64(tx_codebook.len());
    let n2 = convert::usize_to_u64(headset_codebook.len());
    let elapsed = SimTime::from_nanos(
        n1 * config.beam_command_latency.as_nanos() + n1 * n2 * config.dwell.as_nanos(),
    );
    debug_assert_eq!(start + elapsed, cursor, "cursor must mirror the cost model");

    if let Some(id) = span {
        rec.record(
            Event::new(cursor, "reflection_chosen")
                .with("tx_deg", best.1)
                .with("rx_deg", best.2)
                .with("peak_snr_db", best.0)
                .with("measurements", measurements),
        );
        rec.end_span(cursor, "reflection_sweep", id);
    }

    ReflectionResult {
        tx_angle_deg: best.1,
        headset_angle_deg: best.2,
        peak_snr_db: best.0,
        measurements,
        elapsed,
    }
}

/// One reflector posture of the incidence sweep: both beams on one θ₁,
/// the relay gain there, and the gains toward the forward leg's arrivals
/// and the back leg's departures.
struct Posture {
    relay_gain_db: Option<f64>,
    rx_gains: Vec<f64>,
    tx_gains: Vec<f64>,
}

/// An incidence sweep's fold bounds: the AP's two pages as
/// [`BoundPage`]s and every posture's gain rows as field amplitudes.
struct RoundTripBounds {
    /// The AP toward the forward departures and from the back arrivals.
    fwd: BoundPage,
    bck: BoundPage,
    /// Per θ₁: the reflector's receive and transmit gains.
    rx: Vec<Vec<f64>>,
    tx: Vec<Vec<f64>>,
    /// The back leg's bounds of the row being computed.
    back: Vec<f64>,
}

impl RoundTripBounds {
    /// Sets `out[j]` to the bound on probe (θ₁ index `i`, θ₂ index `j`)'s
    /// round trip as an amplitude: the product of both legs' fold bounds,
    /// so the probe's carrier is at most `P + G + 20·log10(out[j])` for
    /// transmit power P and relay gain G.
    fn row(&mut self, i: usize, out: &mut [f64]) {
        self.fwd.fold_bounds(&self.rx[i], out);
        self.bck.fold_bounds(&self.tx[i], &mut self.back);
        for (o, b) in out.iter_mut().zip(&self.back) {
            *o *= b;
        }
    }
}

/// Field amplitudes `10^(g/20)` of a row of gains in dB.
fn amplitudes(gains_db: &[f64]) -> Vec<f64> {
    gains_db.iter().map(|&g| db_to_amplitude(g)).collect()
}

/// A codebook page's gains as field amplitudes, each weighted by its
/// path's tap magnitude and laid out path-major, so that one posture's
/// fold bounds against every codebook entry are a pass of multiply-adds
/// down one contiguous column per path.
struct BoundPage {
    entries: usize,
    /// `weights[k·entries + j] = |tapₖ|·10^(g_jk/20)` for entry j, path k.
    weights: Vec<f64>,
}

impl BoundPage {
    fn new(page: &GainPage, tap_magnitudes: &[f64]) -> Self {
        let entries = page.rows();
        let weights = tap_magnitudes
            .iter()
            .enumerate()
            .flat_map(|(k, tap)| (0..entries).map(move |j| tap * db_to_amplitude(page.row(j)[k])))
            .collect();
        BoundPage { entries, weights }
    }

    /// `out[j] = Σₖ |tapₖ|·a_jk·bₖ` for every entry j, where the other end
    /// weights path k by the field amplitude `bₖ = other_end[k]`: by the
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
        let expect = SimTime::from_nanos(
            21 * cfg.beam_command_latency.as_nanos() + 21 * 21 * cfg.dwell.as_nanos(),
        );
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
    fn recorded_sweep_timeline_matches_cost_model() {
        use movr_obs::MemoryRecorder;
        let (scene, ap, reflector) = setup();
        let cfg = coarse_config();
        let start = SimTime::from_millis(100);

        let mut rng_a = SimRng::seed_from_u64(4);
        let plain = estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng_a);

        let mut rng_b = SimRng::seed_from_u64(4);
        let mut rec = MemoryRecorder::new();
        let rich =
            estimate_incidence_recorded(&scene, ap, reflector, &cfg, &mut rng_b, start, &mut rec);

        // Observability must not change the answer.
        assert_eq!(plain.reflector_angle_deg, rich.reflector_angle_deg);
        assert_eq!(plain.ap_angle_deg, rich.ap_angle_deg);
        assert_eq!(plain.peak_power_dbm, rich.peak_power_dbm);

        // One probe event per measurement, all inside the sweep span,
        // which covers exactly the cost model's elapsed time.
        assert_eq!(rec.of_kind("beam_probe").count(), rich.measurements);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        let (name, t0, t1) = spans[0];
        assert_eq!(name, "alignment_sweep");
        assert_eq!(t0, start);
        assert_eq!(t1, start + rich.elapsed);
        assert!(rec
            .of_kind("beam_probe")
            .all(|e| t0 < e.t && e.t <= t1), "probes inside the span");
        assert_eq!(rec.of_kind("alignment_chosen").count(), 1);
    }

    #[test]
    fn recorded_reflection_nests_gain_ramps() {
        use movr_obs::MemoryRecorder;
        let (scene, mut ap, mut reflector) = setup();
        let hs_pos = Vec2::new(3.5, 1.0);
        let headset =
            RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(reflector.position()));
        ap.steer_toward(reflector.position());
        reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));
        let truth_tx = reflector.position().bearing_deg_to(headset.position());
        let truth_hs = headset.position().bearing_deg_to(reflector.position());
        let tx_cb = Codebook::sweep(truth_tx - 9.0, truth_tx + 9.0, 3.0);
        let hs_cb = Codebook::sweep(truth_hs - 9.0, truth_hs + 9.0, 3.0);
        let mut rng = SimRng::seed_from_u64(3);
        let mut rec = MemoryRecorder::new();
        let cfg = AlignmentConfig::default();
        let sweep = SweepParams {
            tx_codebook: &tx_cb,
            headset_codebook: &hs_cb,
            config: &cfg,
        };
        let r = estimate_reflection_recorded(
            &scene,
            &ap,
            reflector,
            headset,
            &sweep,
            &mut rng,
            SimTime::ZERO,
            &mut rec,
        );
        assert_eq!(rec.of_kind("reflect_probe").count(), r.measurements);
        // One §4.2 gain ramp per candidate TX beam, inside the sweep.
        let spans = rec.spans();
        let ramps = spans.iter().filter(|s| s.0 == "gain_ramp").count();
        assert_eq!(ramps, tx_cb.len());
        assert_eq!(
            spans.iter().filter(|s| s.0 == "reflection_sweep").count(),
            1
        );
        assert_eq!(rec.of_kind("reflection_chosen").count(), 1);
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
