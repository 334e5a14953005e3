//! Cross-crate determinism regression tests.
//!
//! The paper's evaluation depends on bit-reproducible stochastic
//! simulation: the same seed must reproduce the same SNR/rate traces
//! through the whole stack (tracker noise, fault injection, alignment
//! measurement noise, SNR-report noise), and different seeds must
//! actually exercise different randomness. A regression here means some
//! subsystem started drawing from ambient, unseeded state.

use movr::session::{
    run_session, run_session_recorded, RatePolicy, Session, SessionConfig, Strategy,
};
use movr::system::{MovrSystem, SystemConfig};
use movr_math::Vec2;
use movr_motion::{HandRaise, PlayerState, WorldState};
use movr_obs::{JsonlWriter, Key, Kind, MemoryRecorder, NullRecorder};

fn moving_world(t_s: f64) -> WorldState {
    // A player orbiting the room centre: the pose changes every frame, so
    // the tracker and beam-command machinery stay busy.
    let center = Vec2::new(2.5 + 1.2 * (0.7 * t_s).cos(), 2.5 + 1.2 * (0.7 * t_s).sin());
    let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
    WorldState::player_only(PlayerState::standing(center, yaw))
}

fn config_with_seed(seed: u64) -> SystemConfig {
    SystemConfig {
        seed,
        // Make the seed matter: lossy control plane exercises the fault
        // RNG on every beam command.
        command_loss_probability: 0.25,
        ..SystemConfig::default()
    }
}

/// One simulated second of frame-by-frame link decisions.
fn snr_rate_trace(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut sys = MovrSystem::paper_setup(config_with_seed(seed));
    let mut snrs = Vec::new();
    let mut rates = Vec::new();
    for frame in 0..90 {
        let t_s = frame as f64 / 90.0;
        let d = sys.evaluate_at(t_s, &moving_world(t_s));
        snrs.push(d.snr_db);
        rates.push(d.rate_mbps);
    }
    (snrs, rates)
}

#[test]
fn same_seed_reproduces_identical_snr_and_rate_traces() {
    let (snr_a, rate_a) = snr_rate_trace(42);
    let (snr_b, rate_b) = snr_rate_trace(42);
    // Bit-identical, not approximately equal: the whole point.
    assert_eq!(snr_a, snr_b);
    assert_eq!(rate_a, rate_b);
}

#[test]
fn different_seeds_diverge() {
    let (snr_a, _) = snr_rate_trace(1);
    let (snr_b, _) = snr_rate_trace(2);
    assert_eq!(snr_a.len(), snr_b.len());
    let differing = snr_a
        .iter()
        .zip(&snr_b)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        differing > 0,
        "seeds 1 and 2 produced identical 90-frame SNR traces; \
         the seed no longer reaches the stochastic subsystems"
    );
}

#[test]
fn full_session_outcome_is_reproducible() {
    // End-to-end through movr::session with a noisy (non-oracle) rate
    // policy, so the report-noise RNG is also on the hook.
    let trace = HandRaise {
        base: PlayerState::standing(
            Vec2::new(4.0, 2.5),
            Vec2::new(4.0, 2.5).bearing_deg_to(Vec2::new(0.5, 2.5)),
        ),
        raise_at_s: 0.5,
        lower_at_s: 1.5,
        duration_s: 2.0,
    };
    let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    cfg.rate_policy = RatePolicy::Threshold { backoff_db: 1.0 };
    cfg.system.seed = 7;

    let a = run_session(&trace, &cfg);
    let b = run_session(&trace, &cfg);
    assert_eq!(a.glitches, b.glitches);
    assert_eq!(a.mean_snr_db, b.mean_snr_db);
    assert_eq!(a.min_snr_db, b.min_snr_db);
    assert_eq!(a.mode_switches, b.mode_switches);
    assert_eq!(a.realignments, b.realignments);
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
}

/// The canonical recorded scenario for the timeline tests below.
fn recorded_scenario() -> (HandRaise, SessionConfig) {
    let trace = HandRaise {
        base: PlayerState::standing(
            Vec2::new(4.0, 2.5),
            Vec2::new(4.0, 2.5).bearing_deg_to(Vec2::new(0.5, 2.5)),
        ),
        raise_at_s: 0.5,
        lower_at_s: 1.5,
        duration_s: 2.0,
    };
    let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    cfg.rate_policy = RatePolicy::Threshold { backoff_db: 1.0 };
    cfg.system.seed = 7;
    (trace, cfg)
}

#[test]
fn same_seed_produces_byte_identical_jsonl_stream() {
    // The observability tentpole's determinism guarantee: two runs of the
    // same seeded session serialize the *same bytes*, so timelines can be
    // diffed across machines and commits.
    let (trace, cfg) = recorded_scenario();
    let stream = || {
        let mut rec = JsonlWriter::new(Vec::new());
        run_session_recorded(&trace, &cfg, &mut rec);
        rec.finish().expect("in-memory sink cannot fail")
    };
    let a = stream();
    let b = stream();
    assert!(!a.is_empty());
    assert_eq!(a, b, "JSONL timeline must be byte-identical per seed");

    // And the in-memory recorder serializes to the identical stream.
    let mut mem = MemoryRecorder::new();
    run_session_recorded(&trace, &cfg, &mut mem);
    assert_eq!(a, mem.to_jsonl().into_bytes());
}

#[test]
fn recording_does_not_perturb_the_session() {
    // Every plain entry point is its `_recorded` twin observed by a
    // `NullRecorder`, so observation must not change the run: not the
    // outcome of the plain `run_session`, a `NullRecorder` run or a
    // `MemoryRecorder` run, and not the state the two recorded runs leave
    // behind. The snapshot holds every RNG stream and counter, so a draw
    // or a state change made only while a recorder listens shows up in
    // its digest even when the outcome hides it.
    let (trace, _) = recorded_scenario();
    let strategies = [
        Strategy::Tethered,
        Strategy::DirectOnly,
        Strategy::Movr { tracking: false },
        Strategy::Movr { tracking: true },
    ];
    for strategy in strategies {
        for policy in RATE_EVENT_POLICIES {
            for (seed, loss) in [(7, 0.0), (11, 0.2)] {
                let mut cfg = SessionConfig::with_strategy(strategy);
                cfg.rate_policy = policy;
                cfg.system.seed = seed;
                cfg.system.command_loss_probability = loss;
                let case = format!("{strategy:?}, {policy:?}, seed {seed}, loss {loss}");

                let plain = run_session(&trace, &cfg);
                let mut nulled = Session::new(&cfg);
                while nulled.step_frame_recorded(&trace, &mut NullRecorder) {}
                let mut mem = MemoryRecorder::new();
                let mut memed = Session::new(&cfg);
                while memed.step_frame_recorded(&trace, &mut mem) {}

                for other in [&nulled, &memed].map(|s| s.outcome(trace.duration_s)) {
                    assert_eq!(plain.glitches, other.glitches, "{case}");
                    assert_eq!(plain.mean_snr_db.to_bits(), other.mean_snr_db.to_bits(), "{case}");
                    assert_eq!(plain.min_snr_db.to_bits(), other.min_snr_db.to_bits(), "{case}");
                    assert_eq!(plain.mode_switches, other.mode_switches, "{case}");
                    assert_eq!(plain.realignments, other.realignments, "{case}");
                    assert_eq!(
                        plain.reflector_fraction.to_bits(),
                        other.reflector_fraction.to_bits(),
                        "{case}"
                    );
                    assert_eq!(plain.metrics.to_json(), other.metrics.to_json(), "{case}");
                }
                assert_eq!(
                    movr_math::fnv1a64(&nulled.snapshot()),
                    movr_math::fnv1a64(&memed.snapshot()),
                    "{case}: the recorded run left different state"
                );
                assert!(!mem.is_empty(), "{case}: the memory recorder observed the run");
            }
        }
    }
}

#[test]
fn resume_from_snapshot_is_equivalent_to_the_uninterrupted_run() {
    // Determinism across a checkpoint boundary: cutting the canonical
    // recorded scenario mid-run, round-tripping through snapshot bytes,
    // and resuming must reproduce the uninterrupted run's outcome and
    // JSONL timeline byte-for-byte. (The randomized version of this gate
    // lives in tests/checkpoint.rs; this pins the canonical scenario.)
    use movr::session::Session;
    use movr_motion::MotionTrace;

    let (trace, cfg) = recorded_scenario();
    let mut full_rec = MemoryRecorder::new();
    let mut full = Session::new(&cfg);
    while full.step_frame_recorded(&trace, &mut full_rec) {}
    let full_out = full.outcome(trace.duration_s());

    let mut rec_a = MemoryRecorder::new();
    let mut first = Session::new(&cfg);
    for _ in 0..60 {
        assert!(first.step_frame_recorded(&trace, &mut rec_a));
    }
    let bytes = first.snapshot();
    drop(first);

    let mut resumed = Session::restore(&bytes, &cfg).expect("snapshot restores");
    let mut rec_b = MemoryRecorder::with_next_span_id(rec_a.next_span_id());
    while resumed.step_frame_recorded(&trace, &mut rec_b) {}
    let resumed_out = resumed.outcome(trace.duration_s());

    assert_eq!(full.frames(), resumed.frames());
    assert_eq!(full_out.glitches, resumed_out.glitches);
    assert_eq!(full_out.mean_snr_db.to_bits(), resumed_out.mean_snr_db.to_bits());
    assert_eq!(full_out.min_snr_db.to_bits(), resumed_out.min_snr_db.to_bits());
    assert_eq!(full_out.mode_switches, resumed_out.mode_switches);
    assert_eq!(full_out.realignments, resumed_out.realignments);
    assert_eq!(full_out.metrics.to_json(), resumed_out.metrics.to_json());
    assert_eq!(
        full_rec.to_jsonl(),
        rec_a.to_jsonl() + &rec_b.to_jsonl(),
        "stitched timeline must be byte-identical to the one-process run"
    );
}

/// The rate-event scenario: the player stands at (4.0, 2.5) facing the
/// AP while a torso walks across the direct path, from (2.2, 0.6) to
/// (2.2, 4.4) at 1.2 m/s from 0.5 s, over a 4 s trace. Under `DirectOnly`
/// it drives the link through every kind of MCS change: up, down, outage
/// and restore.
fn rate_event_trace() -> movr_motion::WalkerCrossing {
    let player = Vec2::new(4.0, 2.5);
    movr_motion::WalkerCrossing {
        player: PlayerState::standing(player, player.bearing_deg_to(Vec2::new(0.5, 2.5))),
        from: Vec2::new(2.2, 0.6),
        to: Vec2::new(2.2, 4.4),
        start_s: 0.5,
        speed_mps: 1.2,
        duration_s: 4.0,
    }
}

const RATE_EVENT_POLICIES: [RatePolicy; 3] = [
    RatePolicy::Oracle,
    RatePolicy::Threshold { backoff_db: 1.0 },
    RatePolicy::HysteresisPolicy {
        up_margin_db: 1.0,
        up_count: 3,
        backoff_db: 0.5,
    },
];

const RATE_EVENT_STRATEGIES: [Strategy; 2] =
    [Strategy::DirectOnly, Strategy::Movr { tracking: true }];

/// Runs one rate-event session recorded in memory.
fn rate_event_session(
    strategy: Strategy,
    policy: RatePolicy,
) -> (movr::session::SessionOutcome, MemoryRecorder) {
    let mut cfg = SessionConfig::with_strategy(strategy);
    cfg.rate_policy = policy;
    let mut rec = MemoryRecorder::new();
    let out = run_session_recorded(&rate_event_trace(), &cfg, &mut rec);
    (out, rec)
}

#[test]
fn rate_event_sessions_match_their_pinned_digests() {
    // FNV-1a 64 of each session's JSONL timeline and of its metrics JSON,
    // for (DirectOnly, MoVR) x (Oracle, Threshold, Hysteresis). These pin
    // the content and the stream position of every `rate_*` event, which
    // neither the fleet rollup nor the reducer looks at.
    const PINNED: [(u64, u64); 6] = [
        (0x1f97_70df_c709_93bc, 0xff4d_ba04_06dc_579f),
        (0x65e7_647d_8b13_5c27, 0x6a64_5332_b626_b15a),
        (0xef86_20a2_ad64_6169, 0xfa69_4c99_5639_1618),
        (0x1d1c_632e_5f1e_9e68, 0x4547_a2ac_2ad7_f100),
        (0x0f82_83a3_33a0_2414, 0x71ee_819b_d4ed_4404),
        (0x0537_29ef_cf21_2bdd, 0x7a2d_ca88_ff0a_d976),
    ];
    let mut got = Vec::new();
    for strategy in RATE_EVENT_STRATEGIES {
        for policy in RATE_EVENT_POLICIES {
            let (out, rec) = rate_event_session(strategy, policy);
            if strategy == Strategy::DirectOnly {
                for kind in [Kind::RateUp, Kind::RateDown, Kind::RateOutage, Kind::RateRestore] {
                    assert!(
                        rec.of_kind(kind).count() > 0,
                        "{policy:?}: the DirectOnly stream holds no {kind:?}"
                    );
                }
            }
            got.push((
                movr_math::fnv1a64(rec.to_jsonl().as_bytes()),
                movr_math::fnv1a64(out.metrics.to_json().as_bytes()),
            ));
        }
    }
    assert_eq!(got, PINNED);
}

#[test]
fn rate_events_match_their_counters() {
    // Each MCS change is classified once per frame: the `rate_up`,
    // `rate_down` and `rate_outage` events agree with their counters, and
    // each event's MCS fields say which way the rate moved.
    use movr_obs::Value;
    for policy in RATE_EVENT_POLICIES {
        let (out, rec) = rate_event_session(Strategy::DirectOnly, policy);
        for kind in [Kind::RateUp, Kind::RateDown, Kind::RateOutage] {
            assert_eq!(
                rec.of_kind(kind).count() as u64,
                out.metrics.counter(kind.name()).unwrap_or(0),
                "{policy:?}: {kind:?} events vs counter"
            );
        }
        let mcs = |e: &movr_obs::Event, key: Key| match e.field(key) {
            Some(&Value::U64(i)) => Some(i),
            None => None,
            Some(other) => panic!("{key:?} is not an index: {other:?}"),
        };
        let rated = |e: &&movr_obs::Event| e.kind.name().starts_with("rate_");
        for e in rec.events().iter().filter(rated) {
            let (from, to) = (mcs(e, Key::FromMcs), mcs(e, Key::ToMcs));
            assert!(
                e.field(Key::SnrReportDb).is_some(),
                "{policy:?}: {:?} has no report",
                e.kind
            );
            match e.kind {
                Kind::RateUp => assert!(
                    to > from && from.is_some(),
                    "{policy:?}: {from:?} -> {to:?}"
                ),
                Kind::RateDown => {
                    assert!(to < from && to.is_some(), "{policy:?}: {from:?} -> {to:?}");
                }
                Kind::RateOutage => assert!(from.is_some() && to.is_none()),
                Kind::RateRestore => assert!(from.is_none() && to.is_some()),
                other => panic!("unknown rate event {other:?}"),
            }
        }
    }
}
