//! Fleet analytics gate: the streaming reducer's rollup over the
//! canonical 8-session fleet is pinned byte-for-byte, and the fold is
//! invariant to how streams are grouped or fanned out.
//!
//! The golden fixture (`tests/fixtures/fleet_rollup.golden.json`) is
//! the `movr-obs reduce` output for the fleet
//! `movr_system::fleet::fleet_jsonl(8, 1.0, _)`. Regenerate after an
//! intentional schema or simulation change with:
//!
//! ```sh
//! cargo run --release --example fleet_timelines -- out/fleet 8 1.0
//! cargo run --release -p movr-obs -- reduce --out tests/fixtures/fleet_rollup.golden.json out/fleet/session-*.jsonl
//! ```

use movr::session::{RatePolicy, Session, SessionConfig, SessionOutcome, Strategy};
use movr_math::json::FlatObject;
use movr_math::{Summary, Vec2};
use movr_motion::{HandRaise, MotionTrace, PlayerState};
use movr_obs::{diff_json, reduce_one_stream, reduce_streams, Json, MemoryRecorder, Rollup};
use movr_system::fleet::fleet_jsonl;
use movr_testkit::{choice, prop_assert_eq, property, u64_range, usize_range, PropError};

const GOLDEN: &str = include_str!("fixtures/fleet_rollup.golden.json");

fn reduce_fleet(timelines: &[String]) -> Rollup {
    let mut rollup = Rollup::new();
    reduce_streams(
        timelines
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("session-{i}"), t.as_bytes())),
        &mut rollup,
    )
    .expect("fleet timelines are well-formed");
    rollup
}

#[test]
fn fleet_rollup_matches_the_golden_fixture() {
    let rollup = reduce_fleet(&fleet_jsonl(8, 1.0, 1));
    let got = rollup.to_json();
    let want = GOLDEN.trim_end();
    if got != want {
        // Byte mismatch: fail with the structural diff, which names the
        // diverging paths instead of dumping two 3 kB lines.
        let a = Json::parse(want).expect("golden fixture parses");
        let b = Json::parse(&got).expect("rollup JSON parses");
        let diff: Vec<String> = diff_json(&a, &b).iter().map(ToString::to_string).collect();
        panic!(
            "fleet rollup diverged from the golden fixture at {} path(s):\n{}",
            diff.len(),
            diff.join("\n"),
        );
    }
}

#[test]
fn the_fallback_reader_alone_reproduces_the_golden_fixture() {
    // `"t\u005fns"` is `"t_ns"` spelled with an escape: `Json::parse`
    // reads it back as `t_ns`, and the reducer's flat reader declines it,
    // so every line of this fleet is folded through the fallback.
    let timelines: Vec<String> = fleet_jsonl(8, 1.0, 1)
        .iter()
        .map(|t| t.replace("\"t_ns\":", "\"t\\u005fns\":"))
        .collect();
    for line in timelines.iter().flat_map(|t| t.lines()) {
        assert!(
            FlatObject::parse(line).is_none(),
            "the flat reader took {line:?}"
        );
    }
    assert_eq!(reduce_fleet(&timelines).to_json(), GOLDEN.trim_end());
}

/// The recorded bytes themselves, not only what the reducer pulls out
/// of them: FNV-1a of each of the eight streams, so a writer change that
/// moves one byte of one float fails here even where the rollup would
/// not notice. The fleet is recorded at 1, 2, 3 and 8 threads: 3 splits
/// the sessions into uneven chunks, and 8 gives one session per chunk,
/// more threads than most hosts have cores.
#[test]
fn fleet_streams_match_their_pinned_hashes() {
    const PINS: [u64; 8] = [
        0x4482_3ef0_2970_a652,
        0x94df_4b90_cdba_b519,
        0x9fee_8d92_dc62_6ddf,
        0x2cfe_5dc5_1a8a_3a3d,
        0x89b9_9814_135e_a336,
        0x6f61_c6b2_c929_b7ee,
        0xa0b6_92fa_af4f_efff,
        0xab3a_2360_76a3_b8bc,
    ];
    for threads in [1, 2, 3, 8] {
        let got: Vec<u64> = fleet_jsonl(8, 1.0, threads)
            .iter()
            .map(|t| movr_math::fnv1a64(t.as_bytes()))
            .collect();
        assert_eq!(got, PINS, "stream bytes moved on {threads} threads");
    }
}

#[test]
fn rollup_is_invariant_to_thread_count_and_stream_grouping() {
    let sequential = reduce_fleet(&fleet_jsonl(8, 1.0, 1)).to_json();
    let fanned = reduce_fleet(&fleet_jsonl(8, 1.0, 4)).to_json();
    assert_eq!(sequential, fanned, "thread fan-out changed the rollup bytes");

    // Reducing each stream separately and merging in order — the shape
    // the parallel binary uses — matches the sequential fold exactly.
    let timelines = fleet_jsonl(8, 1.0, 1);
    let mut merged = Rollup::new();
    for (i, t) in timelines.iter().enumerate() {
        let (part, _) = reduce_one_stream(&format!("session-{i}"), t.as_bytes())
            .expect("well-formed");
        merged.merge(&part).expect("same schema");
    }
    assert_eq!(merged.to_json(), sequential);
}

#[test]
fn golden_fixture_is_internally_consistent() {
    let doc = Json::parse(GOLDEN.trim_end()).expect("fixture parses");
    let fleet = doc.get("fleet").expect("fleet section");
    assert_eq!(fleet.get("sessions").and_then(Json::as_u64), Some(8));
    let sessions = doc.get("sessions").and_then(Json::fields).expect("sessions map");
    assert_eq!(sessions.len(), 8);
    // The fleet counters are the column sums of the per-session ones.
    for key in ["events", "frames_total", "frames_delivered", "realigns"] {
        let total: u64 = sessions
            .iter()
            .map(|(_, s)| s.get(key).and_then(Json::as_u64).expect("counter"))
            .sum();
        assert_eq!(fleet.get(key).and_then(Json::as_u64), Some(total), "{key}");
    }
}

#[test]
fn mode_names_from_the_stream_are_escaped_in_the_rollup() {
    let line = r#"{"t_ns":0,"kind":"mode_switch","to":"lo\"s","session":1}"#;
    let (rollup, _) = reduce_one_stream("quoted.jsonl", line.as_bytes()).expect("valid line");
    let text = rollup.to_json();
    let doc = Json::parse(&text).expect("the rollup parses");
    let transitions = doc
        .get("sessions")
        .and_then(|s| s.get("1"))
        .and_then(|s| s.get("transitions"))
        .and_then(Json::fields)
        .expect("session 1 transitions");
    assert_eq!(transitions.len(), 1);
    assert_eq!(transitions[0].0, "start->lo\"s");
    assert!(diff_json(&doc, &doc).is_empty());
}

#[test]
fn reducer_folds_a_100k_event_fleet_in_one_pass() {
    // A synthetic 100 000-event fleet with exactly known aggregates:
    // 40 sessions × 2500 events (2497 frames + a realign span pair +
    // one mode switch). Exercises the bounded-memory path at the scale
    // the acceptance criterion names, with every counter checkable in
    // closed form.
    let sessions = 40u64;
    let per_session = 2500u64;
    let frames = per_session - 3;
    let mut timelines = Vec::new();
    for s in 0..sessions {
        let mut t = String::new();
        t.push_str(&format!(
            "{{\"t_ns\":0,\"kind\":\"mode_switch\",\"to\":\"direct\",\"session\":{s}}}\n"
        ));
        t.push_str(&format!(
            "{{\"t_ns\":1000,\"kind\":\"span_start\",\"span\":\"realign_stall\",\"span_id\":0,\"session\":{s}}}\n\
             {{\"t_ns\":2500000,\"kind\":\"span_end\",\"span\":\"realign_stall\",\"span_id\":0,\"session\":{s}}}\n"
        ));
        for f in 0..frames {
            let snr = 5.0 + 0.01 * (f % 1000) as f64;
            let delivered = f % 10 != 0;
            t.push_str(&format!(
                "{{\"t_ns\":{},\"kind\":\"frame\",\"delivered\":{delivered},\"snr_db\":{snr},\"airtime_ns\":450000,\"session\":{s}}}\n",
                3_000_000 + f * 11_111_111,
            ));
        }
        timelines.push(t);
    }
    let rollup = reduce_fleet(&timelines);
    let totals = rollup.fleet_totals();
    assert_eq!(totals.events, sessions * per_session);
    assert!(totals.events >= 100_000, "{} events", totals.events);
    assert_eq!(totals.frames_total, sessions * frames);
    assert_eq!(
        totals.frames_delivered,
        sessions * (frames - frames.div_ceil(10)),
    );
    assert_eq!(totals.stall_spans, sessions);
    assert_eq!(totals.stall_time_ns, sessions * 2_499_000);
    let snr = rollup.sketch("snr_db").expect("snr sketch");
    assert_eq!(snr.count(), sessions * frames);
    // All SNRs lie in [5, 15): p50 must too, within one 0.5 dB bucket.
    let p50 = snr.quantile(0.5).expect("non-empty");
    assert!((4.5..15.5).contains(&p50), "{p50}");
    // And the fold matches the grouped/merged shape at 100k scale too.
    let mut merged = Rollup::new();
    for (i, t) in timelines.iter().enumerate() {
        let (part, _) =
            reduce_one_stream(&format!("s{i}"), t.as_bytes()).expect("well-formed");
        merged.merge(&part).expect("same schema");
    }
    assert_eq!(merged.to_json(), rollup.to_json());
}

// ---------------- observability oracle ----------------

/// Runs a hand-raise session to the end on a `MemoryRecorder` and returns
/// its outcome and JSONL timeline. With `cut`, the session goes through a
/// snapshot round trip after that many frames and the two halves of the
/// timeline are stitched, span ids carried on as
/// `examples/checkpoint_resume` does.
fn recorded_session(cfg: &SessionConfig, cut: Option<usize>) -> (SessionOutcome, String) {
    let center = Vec2::new(4.0, 2.5);
    let trace = HandRaise {
        base: PlayerState::standing(center, center.bearing_deg_to(Vec2::new(0.5, 2.5))),
        raise_at_s: 0.4,
        lower_at_s: 0.9,
        duration_s: 1.2,
    };
    let mut session = Session::new(cfg);
    let mut rec = MemoryRecorder::new();
    let mut jsonl = String::new();
    if let Some(cut) = cut {
        for _ in 0..cut {
            assert!(
                session.step_frame_recorded(&trace, &mut rec),
                "cut {cut} past the end"
            );
        }
        session = Session::restore(&session.snapshot(), cfg).expect("fresh snapshot restores");
        jsonl = rec.to_jsonl();
        rec = MemoryRecorder::with_next_span_id(rec.next_span_id());
    }
    while session.step_frame_recorded(&trace, &mut rec) {}
    jsonl.push_str(&rec.to_jsonl());
    (session.outcome(trace.duration_s()), jsonl)
}

/// A summary's exact accumulator bits, for bit-level comparison.
fn summary_bits(s: &Summary) -> (usize, [u64; 4]) {
    let (n, mean, m2, min, max) = s.welford_state();
    (
        n,
        [mean.to_bits(), m2.to_bits(), min.to_bits(), max.to_bits()],
    )
}

/// Reducing a session's JSONL must reproduce its `MetricsSnapshot`: the
/// event stream and the typed accounting are independent paths to the
/// same counts.
fn reduced_timeline_matches_metrics(out: &SessionOutcome, jsonl: &str) -> Result<(), PropError> {
    let (rollup, _) = match reduce_one_stream("session", jsonl.as_bytes()) {
        Ok(r) => r,
        Err(e) => return Err(PropError::failed(format!("timeline does not reduce: {e}"))),
    };
    let m = &out.metrics;
    let counter = |name: &str| m.counter(name).unwrap_or(0);
    // A histogram the session never created reads as an empty one.
    let hist = |name: &str| {
        m.histogram(name)
            .map_or((0, summary_bits(&Summary::new())), |h| {
                (h.count(), summary_bits(h.summary()))
            })
    };
    let sketch = |name: &str| {
        let s = rollup.sketch(name).expect("fleet sketch");
        (s.count(), summary_bits(s.histogram().summary()))
    };
    let s = rollup.sessions().get(&0).cloned().unwrap_or_default();
    prop_assert_eq!(s.frames_total, counter("frames_total"));
    prop_assert_eq!(s.frames_delivered, counter("frames_delivered"));
    prop_assert_eq!(s.mode_switches, counter("mode_switches"));
    prop_assert_eq!(s.realigns, counter("realignments"));
    // The reducer sees only finite SNRs (JSON has no infinities).
    let snr = m
        .histogram("frame_snr_db")
        .map_or(0, |h| h.summary().count());
    prop_assert_eq!(sketch("snr_db").0, movr_math::convert::usize_to_u64(snr));
    prop_assert_eq!(sketch("airtime_ns"), hist("frame_airtime_ns"));
    prop_assert_eq!(sketch("stall_ns"), hist("realign_stall_ns"));
    prop_assert_eq!(s.stall_spans, hist("realign_stall_ns").0);
    prop_assert_eq!(sketch("realign_cost_ns").0, counter("realignments"));
    Ok(())
}

property! {
    cases = 16,
    /// Over random seeds, strategies and rate policies, uninterrupted and
    /// cut at a random frame: `movr-obs reduce` over the session's JSONL
    /// agrees with the session's own metrics.
    fn reduced_session_timeline_reproduces_its_metrics(
        strategy in choice(vec![
            Strategy::Tethered,
            Strategy::DirectOnly,
            Strategy::Movr { tracking: true },
            Strategy::Movr { tracking: false },
        ]),
        policy in choice(vec![
            RatePolicy::Oracle,
            RatePolicy::Threshold { backoff_db: 1.0 },
            RatePolicy::HysteresisPolicy { up_margin_db: 2.0, up_count: 3, backoff_db: 1.0 },
        ]),
        seed in u64_range(0, u64::MAX),
        cut_raw in usize_range(0, 1000),
    ) {
        let mut cfg = SessionConfig::with_strategy(strategy);
        cfg.rate_policy = policy;
        cfg.system.seed = seed;
        let (out, jsonl) = recorded_session(&cfg, None);
        reduced_timeline_matches_metrics(&out, &jsonl)?;
        let frames = out.glitches.frames_total;
        let (cut_out, cut_jsonl) = recorded_session(&cfg, Some(1 + cut_raw % (frames - 1)));
        prop_assert_eq!(&cut_jsonl, &jsonl);
        reduced_timeline_matches_metrics(&cut_out, &cut_jsonl)?;
    }
}
