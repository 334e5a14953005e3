//! Checkpoint/resume across two processes: run the first half of a VR
//! session in one invocation, snapshot it to a file, then resume from
//! those bytes in a *second* invocation — and get the byte-identical
//! JSONL timeline the uninterrupted run would have written.
//!
//! ```sh
//! cargo run --example checkpoint_resume -- part1 snap.bin part1.jsonl
//! cargo run --example checkpoint_resume -- part2 snap.bin part2.jsonl
//! cargo run --example checkpoint_resume -- full  full.jsonl
//! cat part1.jsonl part2.jsonl | cmp - full.jsonl   # identical
//! ```
//!
//! The snapshot carries the session's *mutable* state only (RNG streams,
//! link state, metrics, pending events); the config and motion trace are
//! reconstructed by the resuming process and must match — a mismatch is
//! rejected by the config fingerprint in the snapshot header. Recorder
//! state (the next span id) is not session state, so part1 leaves it in a
//! tiny sidecar file for part2 to continue the timeline's id sequence.

use movr::session::{RatePolicy, Session, SessionConfig, SessionOutcome, Strategy};
use movr_math::Vec2;
use movr_motion::{HandRaise, MotionTrace, PlayerState};
use movr_obs::JsonlWriter;

/// Frames processed before the part1 snapshot is taken.
const CUT_FRAMES: usize = 90;

/// The scenario both processes reconstruct: the §3 hand-raise blockage,
/// full MoVR with tracking, threshold rate control, seed 42.
fn scenario() -> (HandRaise, SessionConfig) {
    let center = Vec2::new(4.0, 2.5);
    let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
    let trace = HandRaise {
        base: PlayerState::standing(center, yaw),
        raise_at_s: 0.8,
        lower_at_s: 1.6,
        duration_s: 2.0,
    };
    let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    cfg.rate_policy = RatePolicy::Threshold { backoff_db: 1.0 };
    cfg.system.seed = 42;
    (trace, cfg)
}

/// A timeline file at `path` whose span ids start at `next_span_id`.
#[expect(
    clippy::disallowed_types,
    reason = "an example front end: it writes the timeline to the file it is given"
)]
fn jsonl_writer(path: &str, next_span_id: u64) -> JsonlWriter<std::io::BufWriter<std::fs::File>> {
    let file = std::fs::File::create(path)
        .unwrap_or_else(|e| die(&format!("create {path}: {e}")));
    JsonlWriter::with_next_span_id(std::io::BufWriter::new(file), next_span_id)
}

fn die(msg: &str) -> ! {
    eprintln!("checkpoint_resume: {msg}");
    std::process::exit(2);
}

fn report(label: &str, out: &SessionOutcome) {
    println!(
        "{label}: {}/{} frames delivered, mean SNR {:.1} dB, \
         {} mode switches, grade {:?}",
        out.glitches.frames_delivered,
        out.glitches.frames_total,
        out.mean_snr_db,
        out.mode_switches,
        out.grade(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace, cfg) = scenario();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["full", jsonl_path] => {
            let mut rec = jsonl_writer(jsonl_path, 0);
            let mut session = Session::new(&cfg);
            while session.step_frame_recorded(&trace, &mut rec) {}
            rec.finish().unwrap_or_else(|e| die(&format!("timeline sink: {e}")));
            report("full run", &session.outcome(trace.duration_s()));
        }
        ["part1", snap_path, jsonl_path] => {
            let mut rec = jsonl_writer(jsonl_path, 0);
            let mut session = Session::new(&cfg);
            for _ in 0..CUT_FRAMES {
                if !session.step_frame_recorded(&trace, &mut rec) {
                    die("session ended before the cut point");
                }
            }
            std::fs::write(snap_path, session.snapshot())
                .unwrap_or_else(|e| die(&format!("write {snap_path}: {e}")));
            std::fs::write(format!("{snap_path}.spanid"), rec.next_span_id().to_string())
                .unwrap_or_else(|e| die(&format!("write span-id sidecar: {e}")));
            rec.finish().unwrap_or_else(|e| die(&format!("timeline sink: {e}")));
            println!(
                "part1: stopped after {} frames at t={:.3} s; snapshot in {snap_path}",
                session.frames(),
                session.now().as_secs_f64(),
            );
        }
        ["part2", snap_path, jsonl_path] => {
            let bytes = std::fs::read(snap_path)
                .unwrap_or_else(|e| die(&format!("read {snap_path}: {e}")));
            let next_span_id: u64 = std::fs::read_to_string(format!("{snap_path}.spanid"))
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or_else(|| die("missing or unreadable span-id sidecar"));
            let mut session = Session::restore(&bytes, &cfg)
                .unwrap_or_else(|e| die(&format!("restore failed: {e}")));
            println!(
                "part2: resumed at frame {} (t={:.3} s) from {} snapshot bytes",
                session.frames(),
                session.now().as_secs_f64(),
                bytes.len(),
            );
            let mut rec = jsonl_writer(jsonl_path, next_span_id);
            while session.step_frame_recorded(&trace, &mut rec) {}
            rec.finish().unwrap_or_else(|e| die(&format!("timeline sink: {e}")));
            report("resumed run", &session.outcome(trace.duration_s()));
        }
        _ => {
            eprintln!(
                "usage: checkpoint_resume full <out.jsonl>\n\
                 \x20      checkpoint_resume part1 <snapshot.bin> <out.jsonl>\n\
                 \x20      checkpoint_resume part2 <snapshot.bin> <out.jsonl>"
            );
            std::process::exit(64);
        }
    }
}
