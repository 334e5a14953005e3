//! Ablation — *predictive beam tracking (§6 future work).*
//!
//! A beam command takes one control latency (~7.5 ms) to reach the
//! reflector, so the beam in effect always lags the player. With the
//! prototype's ~10° beam the lag is harmless; the question §6 leaves
//! open is whether prediction matters. Answer: it becomes load-bearing
//! exactly when arrays grow and beams narrow. This ablation measures the
//! beam-pointing error (commanded beam vs true bearing at effect time)
//! with and without prediction, across player speeds, and converts it to
//! gain loss for the 10-element (10°) and 32-element (3.2°) arrays.
//!
//! ```sh
//! cargo run -p movr-bench --release --bin ablation_prediction
//! ```

use movr::tracking::BeamPredictor;
use movr_bench::{figure_header, reflector_position};
use movr_math::{wrap_deg_180, Summary, Vec2};
use movr_motion::{LighthouseTracker, PlayerState};
use movr_phased_array::{PatchElement, PhaseShifter, UniformLinearArray};

/// The player's true pose while strafing across the play area, passing
/// ~1.25 m under the reflector — the close-range geometry where angular
/// rates are highest.
fn truth_at(t_s: f64, speed_mps: f64) -> PlayerState {
    let x = 1.5 + speed_mps * t_s;
    PlayerState::standing(Vec2::new(x.min(4.5), 3.5), 190.0)
}

fn main() {
    print!("{}", figure_header(
        "Ablation: prediction",
        "beam-pointing error and gain loss vs player speed, with/without §6 prediction",
    ));

    let latency_s = 0.0075;
    let frame_s = 1.0 / 90.0;
    let arr10 = UniformLinearArray::paper_array();
    let arr32 = UniformLinearArray::new(
        32,
        0.5,
        PatchElement::default(),
        PhaseShifter::default(),
    );

    println!(
        "\n{:>10} {:>12} {:>12} {:>14} {:>14}",
        "speed", "lag err", "pred err", "10-el loss", "32-el loss"
    );
    println!("{}", "-".repeat(68));

    for speed in [0.5, 1.0, 2.0, 4.0] {
        let mut tracker = LighthouseTracker::new(5);
        let mut predictor = BeamPredictor::new();
        let mut lag_err = Summary::new();
        let mut pred_err = Summary::new();
        let mut lag_loss10 = Summary::new();
        let mut lag_loss32 = Summary::new();
        let mut pred_loss10 = Summary::new();
        let mut pred_loss32 = Summary::new();

        let origin = reflector_position();
        let steps = movr_math::convert::f64_to_usize(2.0 / frame_s);
        // Skip the predictor's warm-up (it needs two observations for a
        // velocity estimate); a real system carries history from before
        // the crossing.
        let warmup = 5;
        for k in 0..steps {
            let t = movr_math::convert::usize_to_f64(k) * frame_s;
            let truth = truth_at(t, speed);
            let tracked = tracker.track(t, &truth);
            predictor.observe(t, tracked);

            // The command issued now lands after one control latency and
            // then serves until the next command lands, one frame later:
            // its mean-serving instant is t + latency + frame/2.
            let effect_t = t + latency_s + frame_s / 2.0;
            let true_bearing =
                origin.bearing_deg_to(truth_at(effect_t, speed).receiver_position());

            // Without prediction the command aims at the pose as tracked
            // *now*; with prediction, at the extrapolated pose.
            let lag_cmd = origin.bearing_deg_to(tracked.receiver_position());
            let pred_cmd = predictor
                .predict_bearing_from(origin, effect_t)
                .unwrap_or(lag_cmd);

            if k < warmup {
                continue;
            }
            let e_lag = wrap_deg_180(lag_cmd - true_bearing).abs();
            let e_pred = wrap_deg_180(pred_cmd - true_bearing).abs();
            lag_err.push(e_lag);
            pred_err.push(e_pred);

            // Gain cost: pattern value at the miss angle vs at the peak.
            let loss = |arr: &UniformLinearArray, err: f64| {
                arr.gain_dbi(0.0, 0.0) - arr.gain_dbi(0.0, err)
            };
            lag_loss10.push(loss(&arr10, e_lag));
            lag_loss32.push(loss(&arr32, e_lag));
            pred_loss10.push(loss(&arr10, e_pred));
            pred_loss32.push(loss(&arr32, e_pred));
        }

        // Worst case is what matters: one badly-pointed beam is a
        // dropped frame, regardless of how good the average was.
        println!(
            "{:>7} m/s {:>10.2}° {:>10.2}° {:>6.2}/{:<5.2}dB {:>6.2}/{:<5.2}dB",
            speed,
            lag_err.max(),
            pred_err.max(),
            lag_loss10.max(),
            pred_loss10.max(),
            lag_loss32.max(),
            pred_loss32.max(),
        );
    }
    println!("\n(columns: lag = aim at last tracked pose; pred = §6 extrapolation;");
    println!(" errors/losses are WORST-CASE over a close-range crossing)");

    println!(
        "\n--- conclusion ---\n\
         With the paper's 10° beam, command lag costs well under a dB even\n\
         at a 4 m/s sprint — §6's instinct that tracking suffices is right.\n\
         Narrow the beam to 3.2° (32 elements) and the lag penalty grows\n\
         while prediction holds it near zero: the §6 'fast beam-tracking\n\
         algorithm' is what makes *sharper* arrays usable."
    );
}
