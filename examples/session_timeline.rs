//! Session timeline: run a MoVR session with the observability layer
//! attached, write every structured event as one JSONL line, and print
//! the final metrics table.
//!
//! ```sh
//! cargo run --release --example session_timeline [out.jsonl]
//! ```
//!
//! The timeline is deterministic: the same binary writes a byte-identical
//! file on every run (events are stamped with *simulation* time, and the
//! recorder never touches the simulation's RNG streams).

use movr::session::{run_session_recorded, RatePolicy, SessionConfig, Strategy};
use movr_math::Vec2;
use movr_motion::{HandRaise, PlayerState};
use movr_obs::JsonlWriter;

#[expect(
    clippy::disallowed_types,
    reason = "an example front end: it writes the timeline to the file it is given"
)]
fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "session_timeline.jsonl".to_string());

    // The canonical §3 scenario: a player facing the AP raises a hand in
    // front of the headset from t=4 s to t=6 s of a 10 s session.
    let center = Vec2::new(4.0, 2.5);
    let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
    let trace = HandRaise {
        base: PlayerState::standing(center, yaw),
        raise_at_s: 4.0,
        lower_at_s: 6.0,
        duration_s: 10.0,
    };
    let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    cfg.rate_policy = RatePolicy::HysteresisPolicy {
        up_margin_db: 1.0,
        up_count: 3,
        backoff_db: 0.5,
    };

    let file = std::fs::File::create(&path).expect("create timeline file");
    let mut rec = JsonlWriter::new(std::io::BufWriter::new(file));
    let out = run_session_recorded(&trace, &cfg, &mut rec);
    let lines = rec.lines();
    rec.finish().expect("timeline sink failed");

    println!("=== MoVR session timeline ===");
    println!("wrote {lines} events to {path}\n");
    println!(
        "frames: {}/{} delivered, {} glitch events, longest stall {:.0} ms, grade {:?}",
        out.glitches.frames_delivered,
        out.glitches.frames_total,
        out.glitches.glitch_events,
        out.glitches.longest_stall_ms(90.0),
        out.grade(),
    );
    println!(
        "link:   mean SNR {:.1} dB (min {:.1}), {} mode switches, {} realignments, {:.0}% via reflector\n",
        out.mean_snr_db,
        out.min_snr_db,
        out.mode_switches,
        out.realignments,
        100.0 * out.reflector_fraction,
    );
    println!("{}", out.metrics.render_table());
}
