//! Current-sensing gain control (§4.2).
//!
//! The amplifier gain must stay below the TX→RX leakage attenuation or
//! the feedback loop saturates — but the reflector has no receive chain
//! to measure the leakage, and the leakage moves by ~20 dB as the beams
//! steer (Fig. 7). The paper's solution exploits the amplifier's supply
//! current, which "suddenly goes high" approaching saturation:
//!
//! > set the gain to the minimum, then increase it step by step while
//! > monitoring the amplifier's current consumption ... keep the
//! > amplification gain just below this point.
//!
//! [`run_gain_control`] is that loop, operating only on what the firmware
//! can actually observe (the quantised, noisy current sensor). Each read
//! of that sensor costs the reflector's microcontroller one
//! [`ADC_READ`], so a ramp takes [`GainControlConfig::ramp_time`].

use crate::reflector::MovrReflector;
use movr_analog::{CurrentSensor, VariableGainAmplifier};
use movr_obs::{Event, Key, Kind, NullRecorder, Recorder};
use movr_sim::SimTime;

/// One current-sensor read on the reflector's microcontroller: 10 µs of
/// ADC conversion.
pub const ADC_READ: SimTime = SimTime::from_micros(10);

/// Gain-control loop parameters.
#[derive(Debug, Clone, Copy)]
pub struct GainControlConfig {
    /// Gain increase per step, dB.
    pub step_db: f64,
    /// Current jump (amperes) between consecutive steps that signals the
    /// saturation knee. Must clear sensor noise by a wide margin.
    pub jump_threshold_a: f64,
    /// Extra gain backed off below the detected knee, dB.
    pub backoff_db: f64,
    /// Sensor reads averaged per step (noise suppression).
    pub reads_per_step: usize,
}

impl Default for GainControlConfig {
    fn default() -> Self {
        GainControlConfig {
            step_db: 0.5,
            jump_threshold_a: 0.03,
            backoff_db: 1.0,
            reads_per_step: 3,
        }
    }
}

impl GainControlConfig {
    /// The reflector's time to ramp through `steps` gain steps: each takes
    /// `reads_per_step` sensor reads of [`ADC_READ`].
    pub fn ramp_time(&self, steps: usize) -> SimTime {
        let reads = movr_math::convert::usize_to_u64(steps)
            .saturating_mul(movr_math::convert::usize_to_u64(self.reads_per_step));
        SimTime::from_nanos(reads.saturating_mul(ADC_READ.as_nanos()))
    }
}

/// The outcome of one gain-control run.
#[derive(Debug, Clone)]
pub struct GainControlResult {
    /// The gain finally applied, dB.
    pub chosen_gain_db: f64,
    /// True if the loop stopped because it detected the saturation knee
    /// (false = it ran into the amplifier's own gain ceiling first).
    pub knee_detected: bool,
    /// The probed gains in ramp order, dB: one per step. Each step's mean
    /// current read is in its `gain_step` event.
    pub trace: Vec<f64>,
}

/// Runs the §4.2 loop on the reflector *in place*: on return, the
/// amplifier is set to the chosen safe gain.
///
/// ```
/// use movr::gain_control::{run_gain_control, GainControlConfig};
/// use movr::reflector::MovrReflector;
/// use movr_math::Vec2;
///
/// let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 1);
/// reflector.steer_rx(-102.0);
/// reflector.steer_tx(-45.0);
/// let result = run_gain_control(&mut reflector, &GainControlConfig::default());
/// // The invariant the whole design rests on: G stays below the loop
/// // leakage, without the firmware ever measuring the leakage.
/// assert!(result.chosen_gain_db < reflector.loop_attenuation_db());
/// assert!(!reflector.is_saturated());
/// ```
pub fn run_gain_control(
    reflector: &mut MovrReflector,
    config: &GainControlConfig,
) -> GainControlResult {
    run_gain_control_recorded(reflector, config, SimTime::ZERO, &mut NullRecorder)
}

/// What a ramp keeps of the step before the one it is on.
#[derive(Clone, Copy)]
enum Prev {
    /// The step's mean read.
    Read(f64),
    /// The step's reads were skipped; the sensor state they started from.
    Skipped([u64; 4]),
}

/// [`run_gain_control`] with observability: wraps the ramp in a
/// `gain_ramp` span at `now`, emits one `gain_step` event per probed
/// gain setting (`gain_db`, `current_a`), and closes with either
/// `gain_backoff` (knee found; `chosen_gain_db`, `knee_gain_db`) or
/// `gain_ceiling` (`chosen_gain_db`). The loop itself is modelled as
/// instantaneous, so every event carries the same timestamp — the span
/// conveys structure, not duration.
///
/// The loop attenuation is computed once per ramp (no step moves a beam)
/// and the amplifier's true current once per step. Every `gain_step`
/// event carries its step's mean read, so a recorded ramp takes every
/// read. An unrecorded ramp skips the reads of a *quiet* step, one whose
/// true current rises so little over the step before that no reads of
/// the two can fire the knee test; it still advances the sensor's noise
/// stream by the draws those reads make. When a step that could fire
/// follows a quiet one, the sensor is rewound to take the quiet step's
/// reads first. The run of quiet steps that a closed form in the gain
/// proves (`quiet_limit_db`) is jumped: the ramp walks its gains and
/// skips its reads without computing the current of any but the last.
/// Either way the chosen gain, the knee flag, the trace and the sensor's
/// noise stream come out bit-identical.
pub fn run_gain_control_recorded(
    reflector: &mut MovrReflector,
    config: &GainControlConfig,
    now: SimTime,
    rec: &mut dyn Recorder,
) -> GainControlResult {
    assert!(
        config.step_db.is_finite() && config.step_db > 0.0,
        "gain step must be positive and finite"
    );
    assert!(config.reads_per_step >= 1, "need at least one read per step");
    assert!(
        config.jump_threshold_a.is_finite() && config.jump_threshold_a >= 0.0,
        "jump threshold must be finite and non-negative"
    );
    assert!(
        config.backoff_db.is_finite() && config.backoff_db >= 0.0,
        "backoff must be finite and non-negative"
    );

    let min_gain = reflector.amplifier().min_gain_db;
    let max_gain = reflector.amplifier().max_gain_db;
    let loop_db = reflector.loop_attenuation_db();
    let reads = config.reads_per_step;
    let mean_read = |sensor: &mut CurrentSensor, true_a: f64| -> f64 {
        let mut acc = 0.0;
        for _ in 0..reads {
            acc += sensor.measure_a(true_a);
        }
        acc / movr_math::convert::usize_to_f64(reads)
    };
    let skip = |sensor: &mut CurrentSensor| -> Prev {
        let start = sensor.rng_state();
        for _ in 0..reads {
            sensor.skip_read();
        }
        Prev::Skipped(start)
    };

    // A read of a true current in the ADC range lands within
    // `max_read_error_a` of it, and so does a step's mean. `slack` covers
    // the rounding in the reads (a few ulps of full scale each), in their
    // sum (one per addition) and in the knee test's difference.
    let sensor = reflector.current_sensor_mut();
    let full_scale = sensor.full_scale_a;
    let slack = (movr_math::convert::usize_to_f64(reads) + 8.0) * f64::EPSILON * full_scale;
    let quiet_rise_a = config.jump_threshold_a - 2.0 * sensor.max_read_error_a() - slack;
    let skipping = !rec.enabled();
    let quiet = |prev_a: f64, true_a: f64| {
        skipping
            && true_a - prev_a <= quiet_rise_a
            && (0.0..=full_scale).contains(&prev_a)
            && (0.0..=full_scale).contains(&true_a)
    };

    let span = if rec.enabled() {
        Some(rec.start_span(now, "gain_ramp"))
    } else {
        None
    };
    let step = |rec: &mut dyn Recorder, gain: f64, current: f64| {
        if rec.enabled() {
            rec.record(
                Event::new(now, Kind::GainStep)
                    .with(Key::GainDb, gain)
                    .with(Key::CurrentA, current),
            );
        }
    };

    let mut gain = reflector.set_gain_db(min_gain);
    // An unrecorded ramp jumps the steps after the first that a closed
    // form proves quiet (`quiet_limit_db`): it walks their gains with the
    // ramp's clamped additions and skips their reads, then takes the true
    // current once, at the last of them.
    let quiet_to = if skipping {
        quiet_limit_db(reflector.amplifier(), loop_db, config.step_db, quiet_rise_a, full_scale)
    } else {
        None
    };
    let amplifier = *reflector.amplifier();
    let quiet_run = |from: f64| {
        let mut amplifier = amplifier;
        std::iter::successors(Some(from), move |&g| {
            let next = amplifier.set_gain_db(g + config.step_db);
            (g < max_gain && quiet_to.is_some_and(|limit| next <= limit)).then_some(next)
        })
        .skip(1)
    };
    let mut trace = Vec::with_capacity(1 + quiet_run(gain).count());
    trace.push(gain);
    let sensor = reflector.current_sensor_mut();
    // The first step has no knee test of its own.
    let mut prev = if skipping {
        skip(sensor)
    } else {
        let current = mean_read(sensor, amplifier.supply_current_a(loop_db));
        step(rec, gain, current);
        Prev::Read(current)
    };
    for next in quiet_run(gain) {
        gain = next;
        trace.push(gain);
        prev = skip(sensor);
    }
    reflector.set_gain_db(gain);
    let mut prev_a = reflector.amplifier().supply_current_a(loop_db);

    loop {
        if gain >= max_gain {
            // Ceiling reached without a knee: the leakage is deeper than
            // the amplifier can chase; the maximum gain is safe.
            if let Some(id) = span {
                rec.record(Event::new(now, Kind::GainCeiling).with(Key::ChosenGainDb, gain));
                rec.end_span(now, "gain_ramp", id);
            }
            return GainControlResult {
                chosen_gain_db: gain,
                knee_detected: false,
                trace,
            };
        }
        gain = reflector.set_gain_db(gain + config.step_db);
        let true_a = reflector.amplifier().supply_current_a(loop_db);
        trace.push(gain);
        let sensor = reflector.current_sensor_mut();
        if quiet(prev_a, true_a) {
            prev = skip(sensor);
            prev_a = true_a;
            continue;
        }
        let prev_mean = match prev {
            Prev::Read(mean) => mean,
            Prev::Skipped(start) => {
                let end = sensor.rng_state();
                sensor.restore_rng_state(start);
                let mean = mean_read(sensor, prev_a);
                debug_assert_eq!(
                    sensor.rng_state(),
                    end,
                    "a rewound step redraws only its own reads"
                );
                mean
            }
        };
        let current = mean_read(sensor, true_a);
        step(rec, gain, current);

        if current - prev_mean > config.jump_threshold_a {
            // Knee: step back below the last safe gain with margin.
            let safe = (gain - config.step_db - config.backoff_db).max(min_gain);
            let chosen = reflector.set_gain_db(safe);
            if let Some(id) = span {
                rec.record(
                    Event::new(now, Kind::GainBackoff)
                        .with(Key::ChosenGainDb, chosen)
                        .with(Key::KneeGainDb, gain),
                );
                rec.end_span(now, "gain_ramp", id);
            }
            return GainControlResult {
                chosen_gain_db: chosen,
                knee_detected: true,
                trace,
            };
        }
        prev = Prev::Read(current);
        prev_a = true_a;
    }
}

/// How far below `quiet_rise_a` a jumped step's rise is held, amperes:
/// far above the rounding of the currents (a few ulps of full scale).
const QUIET_MARGIN_A: f64 = 1e-9;

/// The highest gain up to which every step of an unrecorded ramp is
/// quiet, or `None` where the closed form does not apply: the amplifier
/// is off, no rise is quiet, the currents could leave the ADC range, or
/// the bound is not finite.
///
/// With `x = (knee_margin − (L − g)) / knee_width` and `Δ = step /
/// knee_width`, the supply current rises over a step that ends at gain g
/// by `(I_sat − I_q)·(σ(x) − σ(x − Δ)) ≤ (I_sat − I_q)·Δ·σ(x) ≤
/// (I_sat − I_q)·Δ·eˣ`, since `σ' = σ·(1 − σ) ≤ σ` and `σ(x) ≤ eˣ`. That
/// is at most `q = quiet_rise_a − QUIET_MARGIN_A` for every gain up to
/// `L − knee_margin + knee_width·ln(q / ((I_sat − I_q)·Δ))`. `Δ` and the
/// limit are widened by a few ulps of the largest gain-domain term, which
/// cover the rounding of the gains, the loop margin and the limit itself.
fn quiet_limit_db(
    amplifier: &VariableGainAmplifier,
    loop_db: f64,
    step_db: f64,
    quiet_rise_a: f64,
    full_scale_a: f64,
) -> Option<f64> {
    let (i_q, i_sat) = (amplifier.quiescent_current_a, amplifier.saturated_current_a);
    let quiet = quiet_rise_a - QUIET_MARGIN_A;
    // Every true current then lies in [I_q, I_sat] up to rounding.
    let in_range =
        0.0 <= i_q && i_q <= i_sat && i_sat * (1.0 + 4.0 * f64::EPSILON) <= full_scale_a;
    if !amplifier.is_enabled() || quiet <= 0.0 || !in_range {
        return None;
    }
    let top = amplifier.min_gain_db.abs().max(amplifier.max_gain_db.abs());
    let scale = loop_db.abs() + amplifier.knee_margin_db.abs() + top;
    let delta = (step_db + 8.0 * f64::EPSILON * scale) / amplifier.knee_width_db;
    let ratio = quiet / ((i_sat - i_q) * delta);
    let ln = ratio.ln();
    if !ratio.is_finite() || !ln.is_finite() {
        return None;
    }
    let rise_db = amplifier.knee_width_db * ln;
    let guard = 8.0 * f64::EPSILON * (scale + rise_db.abs());
    Some(loop_db - amplifier.knee_margin_db + rise_db - guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::Vec2;

    fn device(seed: u64) -> MovrReflector {
        let mut r = MovrReflector::wall_mounted(Vec2::new(4.5, 4.5), 225.0, seed);
        r.steer_both(225.0);
        r
    }

    #[test]
    fn chosen_gain_is_stable() {
        // The §4.2 invariant: the loop must land strictly below the
        // leakage attenuation, without ever having been told what it is.
        for seed in 0..20 {
            let mut r = device(seed);
            let res = run_gain_control(&mut r, &GainControlConfig::default());
            let leak = r.loop_attenuation_db();
            assert!(
                res.chosen_gain_db < leak,
                "seed={seed}: chose {} vs leakage {leak}",
                res.chosen_gain_db
            );
            assert!(!r.is_saturated());
        }
    }

    #[test]
    fn lands_close_below_the_knee() {
        // Not just safe but *efficient*: within a few dB of the leakage
        // (the algorithm maximises SNR subject to stability).
        let mut r = device(3);
        let res = run_gain_control(&mut r, &GainControlConfig::default());
        let leak = r.loop_attenuation_db();
        if res.knee_detected {
            let margin = leak - res.chosen_gain_db;
            assert!(
                (0.5..6.0).contains(&margin),
                "margin {margin} dB (leak {leak}, chose {})",
                res.chosen_gain_db
            );
        }
    }

    #[test]
    fn detects_knee_when_leakage_within_range() {
        // Default VGA tops out at 45 dB; leakage surfaces bottom out at
        // 45 dB, so most beam pairs put the knee inside the sweep.
        let mut any_knee = false;
        for seed in 0..10 {
            let mut r = device(seed);
            let res = run_gain_control(&mut r, &GainControlConfig::default());
            any_knee |= res.knee_detected;
        }
        assert!(any_knee, "expected at least one knee detection");
    }

    #[test]
    fn trace_is_monotone_in_gain() {
        let mut r = device(7);
        let res = run_gain_control(&mut r, &GainControlConfig::default());
        for w in res.trace.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(res.trace.len() >= 2);
    }

    #[test]
    fn rerun_after_beam_change_adapts() {
        // Fig. 7's point: change the beams, the leakage changes, and the
        // safe gain changes with it.
        let mut r = device(9);
        let g1 = run_gain_control(&mut r, &GainControlConfig::default()).chosen_gain_db;
        r.steer_tx(255.0);
        let g2 = run_gain_control(&mut r, &GainControlConfig::default()).chosen_gain_db;
        // Both safe...
        assert!(!r.is_saturated());
        // ...and generally different (the surfaces differ by several dB).
        assert!(
            (g1 - g2).abs() > 0.25,
            "g1={g1} g2={g2} — expected the safe gain to move"
        );
    }

    #[test]
    fn respects_gain_ceiling() {
        let mut r = device(11);
        let res = run_gain_control(&mut r, &GainControlConfig::default());
        assert!(res.chosen_gain_db <= r.amplifier().max_gain_db);
        assert!(res.chosen_gain_db >= r.amplifier().min_gain_db);
    }

    #[test]
    fn recorded_run_matches_plain_and_traces_every_step() {
        use movr_obs::MemoryRecorder;
        use movr_sim::SimTime;
        // Same seed: the recorded run must reproduce the plain run's
        // trajectory exactly, and emit one gain_step per trace point.
        let plain = run_gain_control(&mut device(5), &GainControlConfig::default());
        let mut rec = MemoryRecorder::new();
        let recorded = run_gain_control_recorded(
            &mut device(5),
            &GainControlConfig::default(),
            SimTime::from_millis(20),
            &mut rec,
        );
        assert_eq!(plain.chosen_gain_db, recorded.chosen_gain_db);
        assert_eq!(plain.knee_detected, recorded.knee_detected);
        assert_eq!(plain.trace, recorded.trace);
        let stepped: Vec<_> = rec
            .of_kind(Kind::GainStep)
            .map(|e| e.field(Key::GainDb).copied())
            .collect();
        let traced: Vec<_> = recorded.trace.iter().map(|&g| Some(g.into())).collect();
        assert_eq!(stepped, traced);
        let spans = rec.spans();
        assert_eq!(spans, [("gain_ramp", SimTime::from_millis(20), SimTime::from_millis(20))]);
        let terminal = if recorded.knee_detected {
            Kind::GainBackoff
        } else {
            Kind::GainCeiling
        };
        assert_eq!(rec.of_kind(terminal).count(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let mut r = device(0);
        run_gain_control(
            &mut r,
            &GainControlConfig {
                step_db: 0.0,
                ..Default::default()
            },
        );
    }

    // What each config below would do at device 3's 225° beams, whose loop
    // attenuation is 44.3 dB: an infinite step jumps straight to the 53 dB
    // ceiling, saturating the amplifier, and then backs off to 0 dB; a NaN
    // or infinite threshold never fires, so the ramp ends saturated at the
    // ceiling; a −3 dB backoff "backs off" to 45 dB, above the loop.

    #[test]
    #[should_panic(expected = "gain step must be positive and finite")]
    fn infinite_step_rejected() {
        run_gain_control(
            &mut device(3),
            &GainControlConfig {
                step_db: f64::INFINITY,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "jump threshold must be finite")]
    fn nan_threshold_rejected() {
        run_gain_control(
            &mut device(3),
            &GainControlConfig {
                jump_threshold_a: f64::NAN,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "jump threshold must be finite")]
    fn infinite_threshold_rejected() {
        run_gain_control(
            &mut device(3),
            &GainControlConfig {
                jump_threshold_a: f64::INFINITY,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "backoff must be finite and non-negative")]
    fn negative_backoff_rejected() {
        run_gain_control(
            &mut device(3),
            &GainControlConfig {
                backoff_db: -3.0,
                ..Default::default()
            },
        );
    }
}
