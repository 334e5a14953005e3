//! Fleet timelines: record a fleet of seeded VR sessions, one JSONL
//! file per session, ready for `movr-obs reduce`.
//!
//! ```sh
//! cargo run --release --example fleet_timelines -- OUT_DIR [SESSIONS] [DURATION_S]
//! ```
//!
//! Defaults: 8 sessions of 1 s each. Session `i` runs on seed `i`; see
//! `movr_system::fleet` for the exact scenario. Each timeline streams
//! through a `JsonlWriter` (bounded memory however long the session)
//! and is only reported once `finish()` confirmed every line reached
//! the file — a timeline with a silent hole would poison every rollup
//! built from it. The files are byte-identical to
//! `movr_system::fleet::session_jsonl`, which is what the golden-rollup
//! test pins.

use movr_obs::JsonlWriter;
use movr_system::fleet::run_fleet_session;

fn die(msg: &str) -> ! {
    eprintln!("fleet_timelines: {msg}");
    std::process::exit(1);
}

#[expect(
    clippy::disallowed_types,
    reason = "an example front end: it writes one timeline file per session"
)]
fn main() {
    let mut args = std::env::args().skip(1);
    let out_dir = args
        .next()
        .unwrap_or_else(|| die("usage: fleet_timelines OUT_DIR [SESSIONS] [DURATION_S]"));
    let sessions: u64 = args.next().map_or(8, |s| {
        s.parse()
            .unwrap_or_else(|_| die(&format!("SESSIONS is not a number: {s}")))
    });
    let duration_s: f64 = args.next().map_or(1.0, |s| {
        s.parse()
            .unwrap_or_else(|_| die(&format!("DURATION_S is not a number: {s}")))
    });

    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| die(&format!("create {out_dir}: {e}")));

    let mut total_lines = 0u64;
    for id in 0..sessions {
        let path = format!("{out_dir}/session-{id}.jsonl");
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("create {path}: {e}")));
        let mut rec = JsonlWriter::new(std::io::BufWriter::new(file));
        let out = run_fleet_session(id, duration_s, &mut rec);
        let lines = rec.lines();
        rec.finish()
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        total_lines += lines;
        println!(
            "session {id}: {lines} events, {}/{} frames delivered, grade {:?} -> {path}",
            out.glitches.frames_delivered,
            out.glitches.frames_total,
            out.grade(),
        );
    }
    println!("wrote {total_lines} events across {sessions} session timeline(s) in {out_dir}");
}
