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
//! A golden fixture (`tests/fixtures/snapshot_seed42_v2.bin`) pins the
//! on-disk format: if the encoder's byte layout drifts without a
//! [`FORMAT_VERSION`] bump, the fixture tests fail.

use movr::session::{RatePolicy, Session, SessionConfig, SessionOutcome, Strategy};
use movr::snapshot::{config_fingerprint, SnapshotError, FORMAT_VERSION};
use movr_math::fnv1a64;
use movr_motion::{HandRaise, MotionTrace, PlayerState};
use movr_obs::MemoryRecorder;
use movr_math::Vec2;
use movr_testkit::{
    choice, prop_assert, prop_assert_eq, property, u64_range, usize_range,
};

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

    for (what, mut body) in [
        ("a second frame at the same instant", two),
        ("no pending frame", none),
        ("an unknown event tag", tag_1),
        ("a frame before the clock", early),
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
