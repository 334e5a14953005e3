//! Deterministic session fleets for the analytics pipeline.
//!
//! The `movr-obs reduce` tooling operates on *fleets* of recorded
//! sessions: many seeded VR sessions, each emitting one JSONL timeline
//! tagged with its session id. This module is the canonical generator —
//! the golden-rollup integration test, the `fleet_timelines` example,
//! and the verify-script stage all build their fleets here, so they
//! agree byte for byte.
//!
//! Session `i` of a fleet walks the paper's 5 m × 5 m office on RNG
//! seed `i` (gaze pinned to the AP wall, the posture of a real VR
//! player) under the full MoVR strategy with motion tracking, mirroring
//! the multi-seed fleet the `sweep` bench times. Timelines are stamped
//! with simulation time only, so a fleet is a pure function of
//! `(sessions, duration_s)`.

use movr::session::{run_session_recorded, SessionConfig, SessionOutcome, Strategy};
use movr_math::Vec2;
use movr_motion::RandomWalk;
use movr_obs::{JsonlWriter, Recorder, SessionTagged};
use movr_rfsim::Room;

/// The gaze focus every fleet session uses: the AP on the west wall.
pub const AP_FOCUS: Vec2 = Vec2 { x: 0.5, y: 2.5 };

/// Runs fleet session `session` (which is also its RNG seed) for
/// `duration_s` simulated seconds, recording its timeline — every event
/// tagged `"session": session` — into `rec`.
pub fn run_fleet_session(
    session: u64,
    duration_s: f64,
    rec: &mut dyn Recorder,
) -> SessionOutcome {
    let room = Room::paper_office();
    let trace = RandomWalk::with_gaze(&room, session, duration_s, AP_FOCUS);
    let cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    let mut tagged = SessionTagged::new(rec, session);
    run_session_recorded(&trace, &cfg, &mut tagged)
}

/// Fleet session `session`'s timeline as JSONL (one event per line,
/// trailing newline), streamed through a [`JsonlWriter`] into memory as
/// the benchmark's recorded fleet is.
pub fn session_jsonl(session: u64, duration_s: f64) -> String {
    let mut writer = JsonlWriter::new(Vec::new());
    run_fleet_session(session, duration_s, &mut writer);
    let bytes = writer.finish().expect("an in-memory sink cannot fail");
    String::from_utf8(bytes).expect("event lines are UTF-8")
}

/// All `sessions` timelines of a fleet, fanned out over `threads`
/// threads with [`movr_sim::pool_map`] (the calling thread runs the
/// first chunk). Output is byte-identical for every `threads` value
/// (sessions are independent and returned in session order).
pub fn fleet_jsonl(sessions: u64, duration_s: f64, threads: usize) -> Vec<String> {
    let ids: Vec<u64> = (0..sessions).collect();
    movr_sim::pool_map(ids, threads, move |_, &id| session_jsonl(id, duration_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timelines_are_deterministic_and_session_tagged() {
        let a = session_jsonl(3, 0.2);
        let b = session_jsonl(3, 0.2);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for line in a.lines() {
            assert!(line.ends_with(",\"session\":3}"), "{line}");
        }
    }

    #[test]
    fn sessions_differ_by_seed() {
        let a = session_jsonl(0, 0.2);
        let b = session_jsonl(1, 0.2);
        assert_ne!(
            a.replace("\"session\":0", "\"session\":1"),
            b,
            "different seeds must produce different timelines"
        );
    }

    #[test]
    fn fan_out_is_thread_count_invariant() {
        let one = fleet_jsonl(4, 0.2, 1);
        let four = fleet_jsonl(4, 0.2, 4);
        assert_eq!(one, four);
        assert_eq!(one.len(), 4);
    }
}
