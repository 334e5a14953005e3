//! Checkpoint/restore: snapshot a session mid-run, round-trip it through
//! bytes, resume, and demand **bit identity** with the uninterrupted run.
//!
//! These are the gate tests for the snapshot subsystem
//! (`movr::snapshot`): the property runs random (strategy, rate policy,
//! seed, cut frame) tuples and asserts the resumed half reproduces the
//! remaining frames, the final [`SessionOutcome`], its metrics,
//! and the recorded JSONL timeline byte-for-byte; the corruption
//! properties assert that *no* byte-level damage — truncation, bit flips,
//! version skew, config mismatch — ever panics or slips through as a
//! successful restore.
//!
//! Two sweeps hold the decoder to "an error, never a panic" on bytes that
//! pass the checksum: every edge value at every body offset of real
//! snapshots, resealed, must be rejected or restore a session that steps;
//! and every fingerprinted config field at its edge values, written into
//! the header and resealed, must restore or be rejected without a panic.
//!
//! A golden fixture (`tests/fixtures/snapshot_seed42_v2.bin`) pins the
//! on-disk format: if the encoder's byte layout drifts without a
//! [`FORMAT_VERSION`] bump, the fixture tests fail.

use movr::session::{RatePolicy, Session, SessionConfig, SessionOutcome, Strategy};
use movr::snapshot::{config_fingerprint, SnapshotError, FORMAT_VERSION};
use movr::{GainControlConfig, SystemConfig};
use movr_math::fnv1a64;
use movr_motion::{HandRaise, MotionTrace, PlayerState};
use movr_obs::{Key, Kind, MemoryRecorder};
use movr_math::Vec2;
use movr_radio::FrameConfig;
use movr_sim::SimTime;
use movr_testkit::{
    choice, prop_assert, prop_assert_eq, property, u64_range, usize_range,
};
use movr_vr::{LatencyBudget, VrTrafficModel};
use std::panic;

/// The scenario every test here runs: a hand-raise blockage mid-session,
/// short enough for debug-mode property runs (~108 frames at Vive rate).
fn scenario(strategy: Strategy, policy: RatePolicy, seed: u64) -> (HandRaise, SessionConfig) {
    let trace = HandRaise {
        base: PlayerState::standing(
            Vec2::new(4.0, 2.5),
            Vec2::new(4.0, 2.5).bearing_deg_to(Vec2::new(0.5, 2.5)),
        ),
        raise_at_s: 0.4,
        lower_at_s: 0.9,
        duration_s: 1.2,
    };
    let mut cfg = SessionConfig::with_strategy(strategy);
    cfg.rate_policy = policy;
    cfg.system.seed = seed;
    (trace, cfg)
}

const STRATEGIES: [Strategy; 3] = [
    Strategy::Tethered,
    Strategy::DirectOnly,
    Strategy::Movr { tracking: true },
];

const POLICIES: [RatePolicy; 3] = [
    RatePolicy::Oracle,
    RatePolicy::Threshold { backoff_db: 1.0 },
    RatePolicy::HysteresisPolicy {
        up_margin_db: 2.0,
        up_count: 3,
        backoff_db: 1.0,
    },
];

/// Runs the whole session uninterrupted; returns the frame count, the
/// final outcome, and the recorded JSONL.
fn uninterrupted(trace: &HandRaise, cfg: &SessionConfig) -> (usize, SessionOutcome, String) {
    let mut rec = MemoryRecorder::new();
    let mut session = Session::new(cfg);
    while session.step_frame_recorded(trace, &mut rec) {}
    let frames = session.frames();
    let outcome = session.outcome(trace.duration_s());
    (frames, outcome, rec.to_jsonl())
}

/// Runs the session to `cut` frames, snapshots to bytes, restores from
/// those bytes, resumes to the end on a fresh recorder. Returns the
/// resumed session's frame count, outcome, and the concatenated JSONL of
/// the two halves.
fn cut_and_resume(
    trace: &HandRaise,
    cfg: &SessionConfig,
    cut: usize,
) -> Result<(usize, SessionOutcome, String), SnapshotError> {
    let mut rec_a = MemoryRecorder::new();
    let mut first = Session::new(cfg);
    for _ in 0..cut {
        assert!(
            first.step_frame_recorded(trace, &mut rec_a),
            "cut point {cut} is past the end of the session"
        );
    }
    let bytes = first.snapshot();
    drop(first); // the resumed half must live off the bytes alone

    let mut resumed = Session::restore(&bytes, cfg)?;
    // Continue the recorded timeline where the first process left off.
    let mut rec_b = MemoryRecorder::with_next_span_id(rec_a.next_span_id());
    while resumed.step_frame_recorded(trace, &mut rec_b) {}
    let frames = resumed.frames();
    let outcome = resumed.outcome(trace.duration_s());
    Ok((frames, outcome, rec_a.to_jsonl() + &rec_b.to_jsonl()))
}

/// Bit-level equality of two outcomes: exact f64 bit patterns, equal
/// glitch accounting, and identical metrics JSON.
fn assert_outcomes_bit_identical(full: &SessionOutcome, resumed: &SessionOutcome) {
    assert_eq!(full.duration_s.to_bits(), resumed.duration_s.to_bits());
    assert_eq!(full.glitches, resumed.glitches);
    assert_eq!(full.mean_snr_db.to_bits(), resumed.mean_snr_db.to_bits());
    assert_eq!(full.min_snr_db.to_bits(), resumed.min_snr_db.to_bits());
    assert_eq!(full.mode_switches, resumed.mode_switches);
    assert_eq!(full.realignments, resumed.realignments);
    assert_eq!(
        full.reflector_fraction.to_bits(),
        resumed.reflector_fraction.to_bits()
    );
    assert_eq!(full.metrics.to_json(), resumed.metrics.to_json());
}

// ---------------- the headline gate ----------------

property! {
    cases = 24,
    /// Cut at a random frame under a random (strategy, policy, seed):
    /// the resumed run must be bit-identical to the uninterrupted one.
    fn resume_from_random_cut_is_bit_identical(
        strategy in choice(STRATEGIES.to_vec()),
        policy in choice(POLICIES.to_vec()),
        seed in u64_range(0, u64::MAX),
        cut_raw in usize_range(1, 1000),
    ) {
        let (trace, cfg) = scenario(strategy, policy, seed);
        let (frames, full_out, full_jsonl) = uninterrupted(&trace, &cfg);
        prop_assert!(frames > 2, "scenario too short to cut");
        let cut = 1 + cut_raw % (frames - 1);

        let (resumed_frames, resumed_out, stitched_jsonl) =
            match cut_and_resume(&trace, &cfg, cut) {
                Ok(r) => r,
                Err(e) => {
                    return Err(movr_testkit::PropError::failed(format!(
                        "restore of a freshly captured snapshot failed: {e}"
                    )))
                }
            };
        prop_assert_eq!(resumed_frames, frames);
        prop_assert_eq!(
            full_out.mean_snr_db.to_bits(),
            resumed_out.mean_snr_db.to_bits()
        );
        prop_assert_eq!(
            full_out.min_snr_db.to_bits(),
            resumed_out.min_snr_db.to_bits()
        );
        prop_assert_eq!(full_out.glitches, resumed_out.glitches);
        prop_assert_eq!(full_out.mode_switches, resumed_out.mode_switches);
        prop_assert_eq!(full_out.realignments, resumed_out.realignments);
        prop_assert_eq!(
            full_out.reflector_fraction.to_bits(),
            resumed_out.reflector_fraction.to_bits()
        );
        prop_assert_eq!(full_out.metrics.to_json(), resumed_out.metrics.to_json());
        prop_assert_eq!(full_jsonl, stitched_jsonl);
    }
}

#[test]
fn every_strategy_policy_pair_resumes_bit_identically() {
    // The property samples the 3×3 grid randomly; this covers it
    // exhaustively at one fixed seed and cut point so no combination can
    // dodge the gate.
    for strategy in STRATEGIES {
        for policy in POLICIES {
            let (trace, cfg) = scenario(strategy, policy, 11);
            let (frames, full_out, full_jsonl) = uninterrupted(&trace, &cfg);
            assert!(frames > 30, "{strategy:?}/{policy:?}: short run");
            let (resumed_frames, resumed_out, stitched) =
                cut_and_resume(&trace, &cfg, 25).unwrap_or_else(|e| {
                    panic!("{strategy:?}/{policy:?}: restore failed: {e}")
                });
            assert_eq!(resumed_frames, frames, "{strategy:?}/{policy:?}");
            assert_outcomes_bit_identical(&full_out, &resumed_out);
            assert_eq!(full_jsonl, stitched, "{strategy:?}/{policy:?}");
        }
    }
}

#[test]
fn snapshot_at_frame_zero_and_last_frame_round_trips() {
    // Degenerate cut points: before the first frame is processed, and
    // after the last (nothing left to resume).
    let (trace, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[1], 3);
    let (frames, full_out, _) = uninterrupted(&trace, &cfg);

    // Cut at zero: the snapshot captures a pristine session.
    let fresh = Session::new(&cfg);
    let bytes = fresh.snapshot();
    let mut resumed = Session::restore(&bytes, &cfg).expect("fresh snapshot restores");
    while resumed.step_frame(&trace) {}
    assert_eq!(resumed.frames(), frames);
    assert_outcomes_bit_identical(&full_out, &resumed.outcome(trace.duration_s()));

    // Cut at the end: restore succeeds and the session stays finished.
    let mut done = Session::new(&cfg);
    while done.step_frame(&trace) {}
    let bytes = done.snapshot();
    let mut resumed = Session::restore(&bytes, &cfg).expect("final snapshot restores");
    assert!(!resumed.step_frame(&trace), "finished session must not step");
    assert_eq!(resumed.frames(), frames);
    assert_outcomes_bit_identical(&full_out, &resumed.outcome(trace.duration_s()));
}

// ---------------- corruption and mismatch rejection ----------------

/// A small captured session for the corruption tests.
fn snapshot_under(cfg: &SessionConfig, frames: usize) -> Vec<u8> {
    let (trace, _) = scenario(cfg.strategy, cfg.rate_policy, cfg.system.seed);
    let mut s = Session::new(cfg);
    for _ in 0..frames {
        s.step_frame(&trace);
    }
    s.snapshot()
}

property! {
    cases = 64,
    /// Any single flipped bit anywhere in the snapshot must surface as a
    /// structured error — never a panic, never a silent success.
    fn single_bit_corruption_is_always_rejected(
        seed in u64_range(0, u64::MAX),
        frames in usize_range(0, 12),
        pos_sel in usize_range(0, usize::MAX / 2),
        bit in usize_range(0, 7),
    ) {
        let (_, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[2], seed);
        let mut bytes = snapshot_under(&cfg, frames);
        let pos = pos_sel % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            Session::restore(&bytes, &cfg).is_err(),
            "flipping bit {} of byte {} went unnoticed",
            bit,
            pos
        );
    }
}

#[test]
fn every_truncation_length_is_rejected() {
    // Exhaustive, not sampled: all proper prefixes of a real snapshot
    // must fail with a structured error (TooShort, checksum, or a body
    // decode error — anything but Ok or a panic).
    let (_, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[1], 5);
    let bytes = snapshot_under(&cfg, 8);
    for len in 0..bytes.len() {
        assert!(
            Session::restore(&bytes[..len], &cfg).is_err(),
            "truncation to {len} of {} bytes restored successfully",
            bytes.len()
        );
    }
}

#[test]
fn flipped_checksum_is_a_checksum_mismatch() {
    let (_, cfg) = scenario(Strategy::DirectOnly, RatePolicy::Oracle, 1);
    let mut bytes = snapshot_under(&cfg, 4);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    match Session::restore(&bytes, &cfg) {
        Err(SnapshotError::ChecksumMismatch) => {}
        Err(other) => panic!("expected ChecksumMismatch, got {other:?}"),
        Ok(_) => panic!("corrupted checksum restored successfully"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let (_, cfg) = scenario(Strategy::DirectOnly, RatePolicy::Oracle, 1);
    let mut bytes = snapshot_under(&cfg, 4);
    bytes.extend_from_slice(&[0, 0, 0, 0]);
    assert!(Session::restore(&bytes, &cfg).is_err());
}

#[test]
fn future_format_version_is_rejected_by_name_even_with_a_valid_checksum() {
    // Version skew must be diagnosed *as* version skew: rewrite the
    // version field and re-seal the checksum so nothing else can trip
    // first, then check the error names both versions.
    let (_, cfg) = scenario(Strategy::Movr { tracking: false }, RatePolicy::Oracle, 9);
    let mut bytes = snapshot_under(&cfg, 3);
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    let payload_len = bytes.len() - 8;
    let digest = fnv1a64(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&digest.to_le_bytes());

    let Err(err) = Session::restore(&bytes, &cfg) else {
        panic!("future-version snapshot restored successfully");
    };
    match &err {
        SnapshotError::UnsupportedVersion { found: 7 } => {}
        other => panic!("expected UnsupportedVersion {{ found: 7 }}, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("version 7"), "error must name the found version: {msg}");
    assert!(
        msg.contains(&format!("format version {FORMAT_VERSION}")),
        "error must name the supported format version: {msg}"
    );
}

/// Rewrites the checksum footer so edited bytes pass the integrity check
/// and reach the check under test.
fn reseal(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 8;
    let digest = fnv1a64(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&digest.to_le_bytes());
}

#[test]
fn restore_under_a_zero_refresh_rate_is_an_invalid_config() {
    // A resealed snapshot whose header fingerprints a config with
    // `refresh_hz = 0`: restored under that config, its frame clock would
    // never advance. No session can capture such a snapshot, since
    // `Session::on_system` rejects the rate.
    let (_, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[1], 4);
    let mut bytes = snapshot_under(&cfg, 5);
    let mut zero = cfg;
    zero.traffic.refresh_hz = 0.0;
    bytes[12..20].copy_from_slice(&config_fingerprint(&zero).to_le_bytes());
    reseal(&mut bytes);
    match Session::restore(&bytes, &zero) {
        Err(SnapshotError::InvalidConfig { what }) => {
            assert!(what.contains("refresh_hz = 0 Hz"), "{what}");
        }
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("a snapshot restored under refresh_hz = 0"),
    }
}

#[test]
fn restore_under_a_zero_up_count_is_an_invalid_config() {
    // The rate adapter cannot run a hysteresis policy that upgrades after
    // zero qualifying reports; `Session::on_system` panics on it, and a
    // restore under a resealed fingerprint of such a config is an error.
    let (_, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[2], 4);
    let mut bytes = snapshot_under(&cfg, 5);
    let mut zero = cfg;
    zero.rate_policy = RatePolicy::HysteresisPolicy {
        up_margin_db: 2.0,
        up_count: 0,
        backoff_db: 1.0,
    };
    bytes[12..20].copy_from_slice(&config_fingerprint(&zero).to_le_bytes());
    reseal(&mut bytes);
    match Session::restore(&bytes, &zero) {
        Err(SnapshotError::InvalidConfig { what }) => {
            assert!(what.contains("up_count = 0"), "{what}");
        }
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("a snapshot restored under up_count = 0"),
    }
}

#[test]
fn restore_under_an_unbounded_frame_size_is_an_invalid_config() {
    // `f64::MAX` bits is about 8.8e12 full PPDUs a frame; a restore under
    // a resealed fingerprint of such a config is an error, as
    // `Session::on_system` panics on it.
    let (_, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[1], 4);
    let mut bytes = snapshot_under(&cfg, 5);
    for frame_bits in [
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        -1.0,
        9_007_199_254_740_994.0,
    ] {
        let mut unbounded = cfg;
        unbounded.traffic.frame_bits = frame_bits;
        bytes[12..20].copy_from_slice(&config_fingerprint(&unbounded).to_le_bytes());
        reseal(&mut bytes);
        match Session::restore(&bytes, &unbounded) {
            Err(SnapshotError::InvalidConfig { what }) => {
                assert!(
                    what.contains(&format!("frame_bits = {frame_bits:?}")),
                    "{what}"
                );
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("a snapshot restored under frame_bits = {frame_bits:?}"),
        }
    }
}

#[test]
fn restore_under_a_silently_wrong_fault_threshold_or_noise_is_an_invalid_config() {
    // Each of these ran a session that was wrong without a sign: a loss
    // probability that `SimRng::chance` clamps (or reads NaN as "never
    // lost"), a NaN threshold no direct SNR reaches, and report noise
    // that is negative or makes every report NaN.
    let (_, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[1], 4);
    let mut bytes = snapshot_under(&cfg, 5);
    let mut cases = Vec::new();
    for x in [1.5, -0.1, f64::NAN] {
        let mut bad = cfg;
        bad.system.command_loss_probability = x;
        cases.push((format!("command_loss_probability = {x:?}"), bad));
    }
    let mut bad = cfg;
    bad.system.snr_switch_threshold_db = f64::NAN;
    cases.push(("snr_switch_threshold_db = NaN".to_string(), bad));
    for x in [-1.0, f64::INFINITY] {
        let mut bad = cfg;
        bad.snr_report_sigma_db = x;
        cases.push((format!("snr_report_sigma_db = {x:?}"), bad));
    }
    for (expect, bad) in cases {
        bytes[12..20].copy_from_slice(&config_fingerprint(&bad).to_le_bytes());
        reseal(&mut bytes);
        match Session::restore(&bytes, &bad) {
            Err(SnapshotError::InvalidConfig { what }) => {
                assert!(what.contains(&expect), "{expect}: {what}");
            }
            Err(other) => panic!("{expect}: expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("a snapshot restored under {expect}"),
        }
    }
}

#[test]
fn restore_under_a_free_or_overflowing_re_sweep_is_an_invalid_config() {
    // A NaN or negative window made the no-tracking re-sweep cost 0 ns; a
    // window, command latency or dwell whose cost reaches 2^64 ns made it
    // overflow (a panic in debug, a wrapped cost in release).
    let (_, cfg) = scenario(Strategy::Movr { tracking: false }, POLICIES[1], 4);
    let mut bytes = snapshot_under(&cfg, 5);
    let mut cases = Vec::new();
    for x in [f64::NAN, -0.4, 1e7] {
        let mut bad = cfg;
        bad.system.realign_window_deg = x;
        cases.push(bad);
    }
    let mut slow = cfg;
    slow.system.beam_command_latency = SimTime::from_nanos(u64::MAX);
    let mut long = cfg;
    long.system.sweep_dwell = SimTime::from_nanos(u64::MAX / 900);
    cases.extend([slow, long]);
    for bad in cases {
        let expect = format!("realign_window_deg = {:?} with", bad.system.realign_window_deg);
        bytes[12..20].copy_from_slice(&config_fingerprint(&bad).to_le_bytes());
        reseal(&mut bytes);
        match Session::restore(&bytes, &bad) {
            Err(SnapshotError::InvalidConfig { what }) => {
                assert!(what.contains(&expect), "{expect}: {what}");
                assert!(what.contains("gives no re-sweep cost"), "{what}");
            }
            Err(other) => panic!("{expect}: expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("a snapshot restored under {:?}", bad.system),
        }
    }
}

#[test]
fn version_1_snapshot_is_rejected_as_unsupported() {
    // Version 1 stored metric names, bucket edges and duplicated counters;
    // this build has no reader for it.
    let (_, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[1], 4);
    let mut bytes = snapshot_under(&cfg, 5);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut bytes);
    match Session::restore(&bytes, &cfg) {
        Err(SnapshotError::UnsupportedVersion { found: 1 }) => {}
        Err(other) => panic!("expected UnsupportedVersion {{ found: 1 }}, got {other:?}"),
        Ok(_) => panic!("a version 1 snapshot restored successfully"),
    }
}

#[test]
fn inconsistent_histogram_section_is_malformed_not_a_panic() {
    // A tethered session's only histogram is the SNR one, every frame an
    // overflowing +inf, so the body ends with: SNR histogram present,
    // 62 bucket counts, Welford (n, mean, m2, min, max), airtime and
    // stall histograms absent, then the checksum footer.
    let frames = 6u64;
    let (_, cfg) = scenario(Strategy::Tethered, RatePolicy::Oracle, 8);
    let bytes = snapshot_under(&cfg, 6);
    let len = bytes.len();
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let welford_n = len - 8 - 2 - 5 * 8;
    let overflow_bucket = welford_n - 8;
    assert_eq!(
        &bytes[len - 10..len - 8],
        &[0, 0],
        "airtime and stall absent"
    );
    assert_eq!(u64_at(&bytes, welford_n), 0, "no finite SNR on a cable");
    assert_eq!(
        u64_at(&bytes, overflow_bucket),
        frames,
        "every frame overflows"
    );
    assert_eq!(
        bytes[overflow_bucket - 61 * 8 - 1],
        1,
        "SNR histogram present"
    );

    // More finite observations than observations.
    let mut more_finite = bytes.clone();
    more_finite[welford_n..welford_n + 8].copy_from_slice(&(frames + 1).to_le_bytes());
    // Bucket counts whose sum overflows u64.
    let mut overflowing = bytes.clone();
    overflowing[overflow_bucket - 8..overflow_bucket].copy_from_slice(&u64::MAX.to_le_bytes());
    // A presence byte that is neither 0 nor 1.
    let mut bad_flag = bytes.clone();
    bad_flag[len - 9] = 2;
    for (what, mut corrupt) in [
        ("summary larger than the buckets", more_finite),
        ("bucket sum overflow", overflowing),
        ("presence byte", bad_flag),
    ] {
        reseal(&mut corrupt);
        match Session::restore(&corrupt, &cfg) {
            Err(SnapshotError::Malformed { .. }) => {}
            Err(other) => panic!("{what}: expected Malformed, got {other:?}"),
            Ok(_) => panic!("{what}: an inconsistent histogram restored"),
        }
    }
    assert!(
        Session::restore(&bytes, &cfg).is_ok(),
        "the untouched bytes restore"
    );
}

#[test]
fn more_delivered_than_total_frames_is_malformed_not_a_panic() {
    // The body opens with the clock, one pending frame event (count, time,
    // tag), then the glitch tracker's total and delivered frame counts.
    let (_, cfg) = scenario(Strategy::DirectOnly, RatePolicy::Oracle, 2);
    let mut bytes = snapshot_under(&cfg, 7);
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let (pending, total, delivered) = (28, 28 + 8 + 9, 28 + 8 + 9 + 8);
    assert_eq!(u64_at(&bytes, pending), 1, "one frame event pending");
    assert_eq!(u64_at(&bytes, total), 7, "seven frames seen");
    assert!(u64_at(&bytes, delivered) <= 7);
    bytes[delivered..delivered + 8].copy_from_slice(&8u64.to_le_bytes());
    reseal(&mut bytes);
    match Session::restore(&bytes, &cfg) {
        Err(SnapshotError::Malformed { .. }) => {}
        Err(other) => panic!("expected Malformed, got {other:?}"),
        Ok(_) => panic!("a tracker with more delivered than total frames restored"),
    }
}

/// Writes `value` over the eight bytes at `at`, reseals, and requires
/// `Malformed` from the restore; the untouched `bytes` must restore.
fn assert_malformed_at(bytes: &[u8], cfg: &SessionConfig, at: usize, value: u64, what: &str) {
    assert!(Session::restore(bytes, cfg).is_ok(), "{what}: the untouched bytes restore");
    let mut corrupt = bytes.to_vec();
    corrupt[at..at + 8].copy_from_slice(&value.to_le_bytes());
    reseal(&mut corrupt);
    match Session::restore(&corrupt, cfg) {
        Err(SnapshotError::Malformed { .. }) => {}
        Err(other) => panic!("{what} = {value}: expected Malformed, got {other:?}"),
        Ok(_) => panic!("{what} = {value}: restored"),
    }
}

/// Offsets of the accounting block, which follows the clock (20), the
/// pending-frame count (28), its instant (36) and tag (44): the glitch
/// tracker's total, delivered, events, current and longest stall, the
/// SNR sum, then the session counters.
const FRAMES_TOTAL: usize = 45;
const GLITCH_EVENTS: usize = 61;
const LONGEST_STALL: usize = 77;
const REFLECTOR_FRAMES: usize = 109;

#[test]
fn a_glitch_count_above_the_frame_count_is_malformed_not_a_panic() {
    // A tracker opens at most one glitch event and extends a stall by at
    // most one frame per frame; near `usize::MAX` the next missed frame
    // would overflow `GlitchTracker::record`.
    let (_, cfg) = scenario(Strategy::DirectOnly, RatePolicy::Oracle, 2);
    let bytes = snapshot_under(&cfg, 7);
    let frames = u64::from_le_bytes(bytes[FRAMES_TOTAL..FRAMES_TOTAL + 8].try_into().unwrap());
    assert_eq!(frames, 7);
    for value in [frames + 1, u64::MAX] {
        assert_malformed_at(&bytes, &cfg, GLITCH_EVENTS, value, "glitch events");
        assert_malformed_at(&bytes, &cfg, LONGEST_STALL, value, "longest stall");
    }
    // So is a frame count the frame clock cannot have reached.
    assert_malformed_at(&bytes, &cfg, FRAMES_TOTAL, u64::MAX, "frames");
}

#[test]
fn a_session_counter_above_the_frame_count_is_malformed_not_a_panic() {
    // MoVR serves each frame through at most one reflector; a count near
    // `usize::MAX` would overflow on the next reflector frame.
    let (_, cfg) = scenario(Strategy::Movr { tracking: true }, RatePolicy::Oracle, 2);
    let bytes = snapshot_under(&cfg, 7);
    for value in [8, u64::MAX] {
        assert_malformed_at(&bytes, &cfg, REFLECTOR_FRAMES, value, "reflector frames");
    }
}

#[test]
fn a_histogram_total_above_the_frame_count_is_malformed_not_a_panic() {
    // A tethered session's SNR histogram ends the body (see
    // `inconsistent_histogram_section_is_malformed_not_a_panic`), and its
    // overflow bucket holds every frame. Each frame observes it once, so
    // a total above the frame count cannot come from a session, and a
    // bucket near `u64::MAX` would overflow `Histogram::observe`.
    let (_, cfg) = scenario(Strategy::Tethered, RatePolicy::Oracle, 8);
    let bytes = snapshot_under(&cfg, 6);
    let overflow_bucket = bytes.len() - 8 - 2 - 5 * 8 - 8;
    let count = u64::from_le_bytes(bytes[overflow_bucket..overflow_bucket + 8].try_into().unwrap());
    assert_eq!(count, 6, "every frame overflows");
    for value in [7, u64::MAX] {
        assert_malformed_at(&bytes, &cfg, overflow_bucket, value, "SNR overflow bucket");
    }
}

#[test]
fn restore_under_a_different_config_is_a_config_mismatch() {
    let (_, cfg) = scenario(Strategy::Movr { tracking: true }, POLICIES[1], 21);
    let bytes = snapshot_under(&cfg, 6);

    // A different seed is a different session: the fingerprint differs.
    let mut other = cfg;
    other.system.seed = 22;
    match Session::restore(&bytes, &other) {
        Err(SnapshotError::ConfigMismatch { expected, found }) => {
            assert_eq!(expected, config_fingerprint(&other));
            assert_eq!(found, config_fingerprint(&cfg));
        }
        Err(other) => panic!("expected ConfigMismatch, got {other:?}"),
        Ok(_) => panic!("snapshot restored under a mismatched config"),
    }

    // And so is a different rate policy under the same seed.
    let mut other = cfg;
    other.rate_policy = RatePolicy::Oracle;
    assert!(matches!(
        Session::restore(&bytes, &other),
        Err(SnapshotError::ConfigMismatch { .. })
    ));
}

// ---------------- decoder panics: resealed edge values ----------------

/// Runs `f`, returning its panic message if it panics.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = panic::catch_unwind(panic::AssertUnwindSafe(f)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().map_or("?", |m| m).to_string(),
    })
}

/// The sweeps' base snapshots, one per strategy under the hysteresis
/// policy, which between them hold each optional body section both
/// present and absent: a cable session before its first frame (no
/// histogram, serving mode, tracked pose or MCS), a direct session on a
/// clear link (SNR and airtime histograms and an MCS, but no stall
/// histogram, serving mode or pose) and a MoVR session past its
/// realignment under the raised hand (all three histograms, a serving
/// mode, a tracked pose and an MCS).
fn sweep_bases() -> Vec<(HandRaise, SessionConfig, Vec<u8>)> {
    let cuts = [
        (Strategy::Tethered, 0, [false, false, false, false, false]),
        (Strategy::DirectOnly, 20, [true, true, false, false, true]),
        (Strategy::Movr { tracking: true }, 60, [true, true, true, true, true]),
    ];
    let mut bases = Vec::new();
    for (strategy, frames, sections) in cuts {
        let (trace, cfg) = scenario(strategy, POLICIES[2], 13);
        let mut rec = MemoryRecorder::new();
        let mut session = Session::new(&cfg);
        for _ in 0..frames {
            assert!(session.step_frame_recorded(&trace, &mut rec));
        }
        let metrics = session.outcome(trace.duration_s()).metrics;
        let held = ["frame_snr_db", "frame_airtime_ns", "realign_stall_ns"]
            .map(|h| metrics.histogram(h).is_some());
        // Only MoVR frames set the serving mode (announced by the first
        // `mode_switch`) and the tracked pose.
        let mode = rec.of_kind(Kind::ModeSwitch).next().is_some();
        let mcs = rec.of_kind(Kind::Frame).last().is_some_and(|e| e.field(Key::Mcs).is_some());
        assert_eq!(
            [held[0], held[1], held[2], mode, mcs],
            sections,
            "{strategy:?} at frame {frames}: [SNR, airtime, stall, mode and pose, MCS]"
        );
        bases.push((trace, cfg, session.snapshot()));
    }
    bases
}

#[test]
fn every_edge_value_at_every_body_offset_is_rejected_or_steps() {
    // Each pattern overwrites the body at each offset where it fits, and
    // the checksum is resealed so the decoder, not the footer, meets it.
    let patterns: [&[u8]; 6] = [
        &u64::MAX.to_le_bytes(),
        &0u64.to_le_bytes(),
        &f64::NAN.to_le_bytes(),
        &f64::INFINITY.to_le_bytes(),
        &(-1.0f64).to_le_bytes(),
        &[0xFF],
    ];
    let mut cases = 0;
    let mut panics = Vec::new();
    for (trace, cfg, base) in sweep_bases() {
        let body_end = base.len() - 8;
        for at in 20..body_end {
            for pattern in patterns.iter().filter(|p| at + p.len() <= body_end) {
                let mut bytes = base.clone();
                bytes[at..at + pattern.len()].copy_from_slice(pattern);
                reseal(&mut bytes);
                cases += 1;
                let panicked = panic_message(|| {
                    if let Ok(mut session) = Session::restore(&bytes, &cfg) {
                        for _ in 0..3 {
                            session.step_frame(&trace);
                        }
                    }
                });
                if let Some(msg) = panicked {
                    panics.push(format!("{:?}, {pattern:02x?} at byte {at}: {msg}", cfg.strategy));
                }
            }
        }
    }
    assert!(cases > 15_000, "only {cases} mutants; did the bases shrink?");
    assert!(
        panics.is_empty(),
        "{} of {cases} resealed mutants panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
}

/// Edge values of a float config field.
const F64_EDGES: [f64; 8] = [
    0.0,
    -0.0,
    -1.0,
    5e-324,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Edge values of an integer config field.
const U64_EDGES: [u64; 3] = [0, 1, u64::MAX];
const USIZE_EDGES: [usize; 3] = [0, 1, usize::MAX];

/// A config field: its name and where it lives in a `SessionConfig`.
type Field<T> = (&'static str, fn(&mut SessionConfig) -> &mut T);

/// `base` with one fingerprinted field at one edge value, for every field
/// [`config_fingerprint`] covers and every edge value of its type.
fn edge_configs(base: SessionConfig) -> Vec<(String, SessionConfig)> {
    // The field table below. Naming every field of every config struct
    // here, without `..`, stops this file compiling when a field is
    // added, until the field joins the table.
    let SessionConfig {
        strategy: _,
        traffic: VrTrafficModel { refresh_hz: _, frame_bits: _ },
        latency: LatencyBudget { budget: _, processing: _ },
        system:
            SystemConfig {
                snr_switch_threshold_db: _,
                use_tracking: _,
                use_prediction: _,
                gain_control:
                    GainControlConfig {
                        step_db: _,
                        jump_threshold_a: _,
                        backoff_db: _,
                        reads_per_step: _,
                    },
                realign_window_deg: _,
                beam_command_latency: _,
                sweep_dwell: _,
                command_loss_probability: _,
                seed: _,
            },
        rate_policy: _,
        framing: FrameConfig { preamble_ns: _, header_ns: _, sifs_ns: _, max_psdu_bits: _ },
        snr_report_sigma_db: _,
    } = base;
    let floats: [Field<f64>; 9] = [
        ("refresh_hz", |c| &mut c.traffic.refresh_hz),
        ("frame_bits", |c| &mut c.traffic.frame_bits),
        ("snr_switch_threshold_db", |c| &mut c.system.snr_switch_threshold_db),
        ("gain step_db", |c| &mut c.system.gain_control.step_db),
        ("jump_threshold_a", |c| &mut c.system.gain_control.jump_threshold_a),
        ("gain backoff_db", |c| &mut c.system.gain_control.backoff_db),
        ("realign_window_deg", |c| &mut c.system.realign_window_deg),
        ("command_loss_probability", |c| &mut c.system.command_loss_probability),
        ("snr_report_sigma_db", |c| &mut c.snr_report_sigma_db),
    ];
    let times: [Field<SimTime>; 4] = [
        ("latency budget", |c| &mut c.latency.budget),
        ("latency processing", |c| &mut c.latency.processing),
        ("beam_command_latency", |c| &mut c.system.beam_command_latency),
        ("sweep_dwell", |c| &mut c.system.sweep_dwell),
    ];
    let ints: [Field<u64>; 5] = [
        ("seed", |c| &mut c.system.seed),
        ("preamble_ns", |c| &mut c.framing.preamble_ns),
        ("header_ns", |c| &mut c.framing.header_ns),
        ("sifs_ns", |c| &mut c.framing.sifs_ns),
        ("max_psdu_bits", |c| &mut c.framing.max_psdu_bits),
    ];
    let flags: [Field<bool>; 2] = [
        ("use_tracking", |c| &mut c.system.use_tracking),
        ("use_prediction", |c| &mut c.system.use_prediction),
    ];
    let mut out = Vec::new();
    let mut edit = |what: String, set: &dyn Fn(&mut SessionConfig)| {
        let mut c = base;
        set(&mut c);
        out.push((what, c));
    };
    for (name, field) in floats {
        for x in F64_EDGES {
            edit(format!("{name} = {x:?}"), &|c| *field(c) = x);
        }
    }
    for (name, field) in times {
        for n in U64_EDGES {
            edit(format!("{name} = {n} ns"), &|c| *field(c) = SimTime::from_nanos(n));
        }
    }
    for (name, field) in ints {
        for n in U64_EDGES {
            edit(format!("{name} = {n}"), &|c| *field(c) = n);
        }
    }
    for n in USIZE_EDGES {
        edit(format!("reads_per_step = {n}"), &|c| c.system.gain_control.reads_per_step = n);
    }
    for (name, field) in flags {
        edit(format!("{name} flipped"), &|c| *field(c) = !*field(c));
    }
    for strategy in [
        Strategy::Tethered,
        Strategy::DirectOnly,
        Strategy::Movr { tracking: false },
        Strategy::Movr { tracking: true },
    ] {
        edit(format!("{strategy:?}"), &|c| c.strategy = strategy);
    }
    let hysteresis = |up_margin_db, up_count, backoff_db| RatePolicy::HysteresisPolicy {
        up_margin_db,
        up_count,
        backoff_db,
    };
    let mut policies = vec![RatePolicy::Oracle];
    for x in F64_EDGES {
        policies.push(RatePolicy::Threshold { backoff_db: x });
        policies.push(hysteresis(x, 3, 1.0));
        policies.push(hysteresis(2.0, 3, x));
    }
    for n in USIZE_EDGES {
        policies.push(hysteresis(2.0, n, 1.0));
    }
    for policy in policies {
        edit(format!("{policy:?}"), &|c| c.rate_policy = policy);
    }
    out
}

#[test]
fn every_config_field_at_its_edge_values_restores_without_a_panic() {
    // The header fingerprint is rewritten to the edited config's and the
    // checksum resealed, so restore gets past the fingerprint check and
    // must judge the config itself.
    let mut cases = 0;
    let mut panics = Vec::new();
    for (_, cfg, base) in sweep_bases() {
        for (what, edited) in edge_configs(cfg) {
            let mut bytes = base.clone();
            bytes[12..20].copy_from_slice(&config_fingerprint(&edited).to_le_bytes());
            reseal(&mut bytes);
            cases += 1;
            if let Some(msg) = panic_message(|| drop(Session::restore(&bytes, &edited))) {
                panics.push(format!("{:?}, {what}: {msg}", cfg.strategy));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {cases} edge configs panicked in restore:\n{}",
        panics.len(),
        panics.join("\n")
    );
}

// ---------------- the pending frame ----------------

#[test]
fn equal_timestamp_events_round_trip_in_pop_order() {
    // A session has exactly one pending frame. The body stores it where
    // format version 2 has always kept a one-entry event list, right after
    // the clock (offset 20): count (28), frame instant (36), tag 0 (44).
    // A second frame at the same instant, no frame, an unknown tag and a
    // frame before the clock are all malformed.
    let (_, cfg) = scenario(Strategy::DirectOnly, RatePolicy::Oracle, 3);
    let bytes = snapshot_under(&cfg, 7);
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let (clock, count, instant, tag) = (20, 28, 36, 44);
    assert_eq!(u64_at(&bytes, count), 1, "one frame pending");
    assert_eq!(bytes[tag], 0, "a frame");
    let now = u64_at(&bytes, clock);
    assert!(
        now > 0 && u64_at(&bytes, instant) > now,
        "the next frame follows the clock"
    );

    let set_count = |b: &mut Vec<u8>, n: u64| b[count..count + 8].copy_from_slice(&n.to_le_bytes());
    let mut two = bytes.clone();
    two.splice(tag + 1..tag + 1, bytes[instant..=tag].to_vec());
    set_count(&mut two, 2);
    let mut none = bytes.clone();
    none.drain(instant..=tag);
    set_count(&mut none, 0);
    let mut tag_1 = bytes.clone();
    tag_1[tag] = 1;
    let mut early = bytes.clone();
    early[instant..instant + 8].copy_from_slice(&(now - 1).to_le_bytes());
    // Seven frames put the clock at the seventh and the next frame one
    // interval on; one nanosecond off either is a clock no session keeps.
    let mut late = bytes.clone();
    late[instant..instant + 8].copy_from_slice(&(u64_at(&bytes, instant) + 1).to_le_bytes());
    let mut skewed = bytes.clone();
    skewed[clock..clock + 8].copy_from_slice(&(now + 1).to_le_bytes());

    for (what, mut body) in [
        ("a second frame at the same instant", two),
        ("no pending frame", none),
        ("an unknown event tag", tag_1),
        ("a frame before the clock", early),
        ("a frame off the frame interval", late),
        ("a clock off the frame interval", skewed),
    ] {
        reseal(&mut body);
        match Session::restore(&body, &cfg) {
            Err(SnapshotError::Malformed { .. }) => {}
            Err(other) => panic!("{what}: expected Malformed, got {other:?}"),
            Ok(_) => panic!("{what}: restored"),
        }
    }
    assert!(
        Session::restore(&bytes, &cfg).is_ok(),
        "the untouched bytes restore"
    );
}

// ---------------- golden fixture ----------------

/// The fixture's scenario: seed 42, full MoVR with tracking, threshold
/// rate policy, captured 30 frames in. Changing this invalidates the
/// checked-in blob — regenerate with `regenerate_golden_fixture`.
fn golden_scenario() -> (HandRaise, SessionConfig) {
    scenario(
        Strategy::Movr { tracking: true },
        RatePolicy::Threshold { backoff_db: 1.0 },
        42,
    )
}

const GOLDEN_CUT_FRAMES: usize = 30;
const GOLDEN: &[u8] = include_bytes!("fixtures/snapshot_seed42_v2.bin");

#[test]
fn golden_fixture_header_pins_version_and_fingerprint() {
    let (_, cfg) = golden_scenario();
    assert!(GOLDEN.len() >= 28, "fixture is truncated or missing");
    assert_eq!(&GOLDEN[..8], b"MOVRSNAP");
    let version = u32::from_le_bytes(GOLDEN[8..12].try_into().unwrap());
    assert_eq!(
        version, FORMAT_VERSION,
        "fixture was written by format version {version}; this build \
         reads format version {FORMAT_VERSION} — regenerate the fixture \
         alongside a version bump"
    );
    let fp = u64::from_le_bytes(GOLDEN[12..20].try_into().unwrap());
    assert_eq!(
        fp,
        config_fingerprint(&cfg),
        "the golden scenario's config fingerprint changed: either the \
         fingerprint algorithm or SessionConfig encoding drifted without \
         a format version bump"
    );
}

#[test]
fn golden_fixture_restores_and_reencodes_byte_identically() {
    let (trace, cfg) = golden_scenario();
    let session = Session::restore(GOLDEN, &cfg).unwrap_or_else(|e| {
        panic!(
            "checked-in fixture no longer restores ({e}); the snapshot \
             byte layout changed without a FORMAT_VERSION bump"
        )
    });
    assert_eq!(session.frames(), GOLDEN_CUT_FRAMES);
    // Capturing the restored session must reproduce the exact blob: the
    // encoder and decoder are inverses down to the byte.
    assert_eq!(session.snapshot(), GOLDEN, "re-encoded fixture drifted");

    // And resuming it matches the uninterrupted run bit-for-bit.
    let (frames, full_out, _) = uninterrupted(&trace, &cfg);
    let mut resumed = session;
    while resumed.step_frame(&trace) {}
    assert_eq!(resumed.frames(), frames);
    assert_outcomes_bit_identical(&full_out, &resumed.outcome(trace.duration_s()));
}

/// Rewrites the golden fixture from the current encoder. Run after an
/// intentional format change (with its version bump):
/// `cargo test --test checkpoint regenerate_golden_fixture -- --ignored`
#[test]
#[ignore = "writes tests/fixtures/snapshot_seed42_v2.bin; run by hand on format changes"]
fn regenerate_golden_fixture() {
    let (trace, cfg) = golden_scenario();
    let mut session = Session::new(&cfg);
    for _ in 0..GOLDEN_CUT_FRAMES {
        assert!(session.step_frame(&trace));
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/snapshot_seed42_v2.bin"
    );
    std::fs::write(path, session.snapshot()).expect("write fixture");
}
