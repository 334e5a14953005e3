//! Ablation — *rate adaptation under blockage transients.*
//!
//! When a hand sweeps through the beam the SNR ramps down through the
//! diffraction taper and back up; the MCS selection policy decides how
//! many frames die at the edges. Oracle selection is the bound; a plain
//! threshold policy flaps on noisy reports; hysteresis holds the rate
//! steady and downgrades instantly.
//!
//! ```sh
//! cargo run -p movr-bench --release --bin ablation_adaptation
//! ```

use movr::session::{run_session, RatePolicy, SessionConfig, Strategy};
use movr_bench::figure_header;
use movr_math::Vec2;
use movr_motion::{HandRaise, MotionTrace, PlayerState, RandomWalk};
use movr_rfsim::Room;

fn main() {
    print!("{}", figure_header(
        "Ablation: rate adaptation",
        "frame loss by MCS-selection policy under blockage transients",
    ));

    let base = {
        let center = Vec2::new(4.0, 2.5);
        let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
        PlayerState::standing(center, yaw)
    };
    let room = Room::paper_office();
    let traces: Vec<(&str, Box<dyn MotionTrace>)> = vec![
        (
            "hand raise (2 s)",
            Box::new(HandRaise {
                base,
                raise_at_s: 2.0,
                lower_at_s: 4.0,
                duration_s: 6.0,
            }),
        ),
        (
            "gaze walk (30 s)",
            Box::new(RandomWalk::with_gaze(&room, 99, 30.0, Vec2::new(0.5, 2.5))),
        ),
    ];

    let policies: [(&str, RatePolicy); 4] = [
        ("oracle", RatePolicy::Oracle),
        ("threshold 0 dB", RatePolicy::Threshold { backoff_db: 0.0 }),
        ("threshold 2 dB", RatePolicy::Threshold { backoff_db: 2.0 }),
        (
            "hysteresis",
            RatePolicy::HysteresisPolicy {
                up_margin_db: 1.0,
                up_count: 3,
                backoff_db: 0.5,
            },
        ),
    ];

    println!(
        "\n{:<18} {:<16} {:>8} {:>9} {:>12}",
        "trace", "policy", "loss %", "glitches", "stall (ms)"
    );
    println!("{}", "-".repeat(68));
    // Per trace, each policy's (loss %, glitch events) in table order.
    let mut rows: Vec<Vec<(f64, usize)>> = Vec::new();
    for (tname, trace) in &traces {
        let mut trace_rows = Vec::new();
        for (pname, policy) in &policies {
            let mut cfg =
                SessionConfig::with_strategy(Strategy::Movr { tracking: true });
            cfg.rate_policy = *policy;
            let out = run_session(trace.as_ref(), &cfg);
            let loss_pct = out.glitches.loss_rate * 100.0;
            println!(
                "{:<18} {:<16} {:>8.2} {:>9} {:>12.0}",
                tname,
                pname,
                loss_pct,
                out.glitches.glitch_events,
                out.glitches.longest_stall_ms(90.0)
            );
            trace_rows.push((loss_pct, out.glitches.glitch_events));
        }
        println!();
        rows.push(trace_rows);
    }

    // The oracle bounds the loss; the zero-backoff threshold is the policy
    // the others refine, so glitch events are counted against it.
    println!("--- conclusion (computed from the rows above) ---");
    println!(
        "{:<18} {:<16} {:>16} {:>22}",
        "trace", "policy", "loss over oracle", "glitches vs thr 0 dB"
    );
    for ((tname, _), trace_rows) in traces.iter().zip(&rows) {
        let (oracle_loss, _) = trace_rows[0];
        let (_, base_glitches) = trace_rows[1];
        for ((pname, _), &(loss, glitches)) in policies.iter().zip(trace_rows) {
            println!(
                "{:<18} {:<16} {:>13.1} pt {:>15} vs {}",
                tname,
                pname,
                loss - oracle_loss,
                glitches,
                base_glitches
            );
        }
    }
}
