//! The `session` workload: one operation is one 90 fps frame
//! (`Session::step_frame`) of a seeded scenario mix.
//!
//! Sixteen sessions run side by side, one per combination of motion ×
//! strategy × rate policy:
//!
//! * motion — a free-gaze `RandomWalk` (about 40% reflector frames), a
//!   held `HandRaise` and a `StaticScene` (every frame repeats the
//!   previous frame's geometry), and a `WalkerCrossing` bystander;
//! * strategy — MoVR with and without §6 tracking;
//! * rate policy — `Oracle` and `Hysteresis` on noisy SNR reports.
//!
//! Every simulated second each session is saved with
//! `Session::snapshot`, reloaded with `Session::restore` and continued
//! from the restored copy. One timed batch is one simulated second of
//! all sixteen, so every batch has the same mix. A generation of
//! scenarios lasts four simulated seconds; then each session is checked
//! against an untimed uninterrupted run of the same scenario and a fresh
//! generation is drawn. The recorder is `NullRecorder` throughout.

use crate::frame::FrameTwin;
use crate::spans::{Ledger, Tracer};
use crate::stats::{calibration_ns, median, quantile, tail_quantile, Digest, CALIBRATION_REF_NS};
use crate::{
    calibration_note, end_to_end, finish_traced, rng_for, time_setup, Budget, Metric, Options,
    Outcome, MAX_SPANS,
};
use movr::session::{RatePolicy, Session, SessionConfig, SessionOutcome, Strategy};
use movr_math::{SimRng, Vec2};
use movr_motion::{
    HandRaise, MotionTrace, PlayerState, RandomWalk, StaticScene, WalkerCrossing, WorldState,
};
use movr_rfsim::Room;
use movr_testkit::Timer;

/// Sessions per generation: 4 motions × 2 strategies × 2 rate policies.
const SLOTS: usize = 16;
/// Simulated seconds per generation; one batch per second.
const SECONDS: usize = 4;
/// Display refresh rate (`VrTrafficModel::vive`).
const FPS: usize = 90;
/// RNG stream label of this workload's inputs.
const STREAM: u64 = 0x5E55;
/// The AP of the paper's deployment.
const AP: Vec2 = Vec2 { x: 0.5, y: 2.5 };

/// Scenario length: half a frame short of [`SECONDS`], so each session
/// steps exactly `SECONDS × FPS` frames and each second holds `FPS`.
fn duration_s() -> f64 {
    ((SECONDS * FPS) as f64 - 0.5) / FPS as f64
}

struct Scenario {
    trace: Box<dyn MotionTrace>,
    config: SessionConfig,
    /// Host time of the `RandomWalk` construction, ns (walks only).
    walk_build_ns: Option<u64>,
}

fn scenario(seed: u64, generation: u64, slot: usize) -> Scenario {
    let mut r = rng_for(seed, STREAM, generation * SLOTS as u64 + slot as u64);
    let d = duration_s();
    let tracking = slot % 8 < 4;
    let mut config = SessionConfig::with_strategy(Strategy::Movr { tracking });
    if slot >= 8 {
        config.rate_policy = RatePolicy::HysteresisPolicy {
            up_margin_db: 1.0,
            up_count: 3,
            backoff_db: 1.0,
        };
    }
    config.system.seed = r.next_u64();
    let facing_ap = |r: &mut SimRng, spread_deg: f64| {
        let pos = Vec2::new(r.uniform(2.5, 4.5), r.uniform(1.0, 4.0));
        let yaw = pos.bearing_deg_to(AP) + r.uniform(-spread_deg, spread_deg);
        PlayerState::standing(pos, yaw)
    };
    let mut walk_build_ns = None;
    let trace: Box<dyn MotionTrace> = match slot % 4 {
        0 => {
            let walk_seed = r.next_u64();
            let clock = Timer::start();
            let walk = RandomWalk::new(&Room::paper_office(), walk_seed, d);
            walk_build_ns = Some(clock.elapsed_ns());
            Box::new(walk)
        }
        1 => Box::new(HandRaise {
            base: facing_ap(&mut r, 10.0),
            raise_at_s: 0.0,
            lower_at_s: d + 1.0,
            duration_s: d,
        }),
        2 => Box::new(StaticScene::new(facing_ap(&mut r, 20.0), d)),
        _ => {
            let player = facing_ap(&mut r, 0.0);
            let x = r.uniform(1.2, 2.4);
            Box::new(WalkerCrossing {
                player,
                from: Vec2::new(x, 0.3),
                to: Vec2::new(x, 4.7),
                start_s: r.uniform(0.3, 1.5),
                speed_mps: 1.2,
                duration_s: d,
            })
        }
    };
    Scenario {
        trace,
        config,
        walk_build_ns,
    }
}

fn generation(seed: u64, gen: u64) -> (Vec<Scenario>, Vec<Session>) {
    let scenarios: Vec<Scenario> = (0..SLOTS).map(|s| scenario(seed, gen, s)).collect();
    let sessions = scenarios.iter().map(|s| Session::new(&s.config)).collect();
    (scenarios, sessions)
}

/// Host time of one session's simulated second.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    frames: usize,
    step_ns: u64,
    checkpoint_ns: u64,
}

/// One simulated second of every session, with the calibration kernel's
/// time measured just before it.
struct Second {
    blocks: Vec<Block>,
    calibration_ns: f64,
}

/// One pass over a generation: each second, every session steps its
/// frames and then round-trips a checkpoint. Returns the finished
/// sessions, the seconds and per-slot errors.
fn untraced_pass(
    scenarios: &[Scenario],
    mut sessions: Vec<Session>,
) -> (Vec<Session>, Vec<Second>, Vec<Option<String>>) {
    let mut errors: Vec<Option<String>> = vec![None; scenarios.len()];
    let mut seconds = Vec::with_capacity(SECONDS);
    for _ in 0..SECONDS {
        let calibration_ns = calibration_ns();
        let mut second = Vec::with_capacity(scenarios.len());
        for ((sc, session), err) in scenarios
            .iter()
            .zip(sessions.iter_mut())
            .zip(errors.iter_mut())
        {
            let trace = sc.trace.as_ref();
            let clock = Timer::start();
            let mut frames = 0;
            while frames < FPS && session.step_frame(trace) {
                frames += 1;
            }
            let step_ns = clock.elapsed_ns();
            let clock = Timer::start();
            let restored = Session::restore(&session.snapshot(), &sc.config);
            let checkpoint_ns = clock.elapsed_ns();
            match restored {
                Ok(s) => *session = s,
                Err(e) => *err = Some(format!("restore failed: {e}")),
            }
            second.push(Block {
                frames,
                step_ns,
                checkpoint_ns,
            });
        }
        seconds.push(Second {
            blocks: second,
            calibration_ns,
        });
    }
    (sessions, seconds, errors)
}

/// Per-frame replay state of a traced pass.
#[derive(Default)]
struct Traced {
    /// Layer sum, untraced and traced time per session second.
    ledger: Ledger,
    /// `step_frame` minus the twin's `evaluate_at`, ns, per frame.
    self_ns: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    links: usize,
    frames: usize,
    ramps: usize,
    ramp_steps: usize,
}

/// The traced pass: the same scenarios on fresh sessions, with spans
/// around every frame, world sample and checkpoint call, and a twin
/// replay of each frame's decision.
fn traced_pass(
    tr: &mut Tracer,
    acc: &mut Traced,
    scenarios: &[Scenario],
    untimed: &[Second],
    op_base: u64,
) -> (Vec<Session>, Vec<Option<String>>) {
    let mut sessions: Vec<Session> = scenarios.iter().map(|s| Session::new(&s.config)).collect();
    let mut twins: Vec<FrameTwin> = scenarios
        .iter()
        .map(|s| FrameTwin::new(s.config.system))
        .collect();
    let mut errors: Vec<Option<String>> = vec![None; scenarios.len()];
    for (second, Second { blocks, .. }) in untimed.iter().enumerate() {
        for (slot, ((sc, session), twin)) in scenarios
            .iter()
            .zip(sessions.iter_mut())
            .zip(twins.iter_mut())
            .enumerate()
        {
            let trace = sc.trace.as_ref();
            let op = op_base + (slot * SECONDS * FPS + second * FPS) as u64;
            let (mut layer_sum, mut traced) = (0u64, 0u64);
            for k in 0..FPS as u64 {
                let start = tr.now();
                let alive = session.step_frame(trace);
                let end = tr.now();
                if !alive {
                    break;
                }
                let step = tr.push("session.step", op + k, (start, end), None);
                let t_s = session.now().as_secs_f64();
                let world = tr.time("motion.world_at", op + k, || trace.world_at(t_s));
                layer_sum += tr.last_ns();
                let (decision, root) = twin.frame(tr, op + k, t_s, &world);
                let spans = tr.spans();
                layer_sum += spans[root].child_ns;
                traced += spans[step].ns();
                acc.self_ns
                    .push(spans[step].ns() as f64 - spans[decision].ns() as f64);
            }
            let bytes = tr.time("snapshot.capture", op, || session.snapshot());
            let capture = tr.last_ns();
            let restored = tr.time("snapshot.restore", op, || {
                Session::restore(&bytes, &sc.config)
            });
            let checkpoint = capture + tr.last_ns();
            acc.snapshot_bytes.push(bytes.len() as f64);
            match restored {
                Ok(s) => *session = s,
                Err(e) => errors[slot] = Some(format!("restore failed: {e}")),
            }
            let untraced = blocks[slot].step_ns + blocks[slot].checkpoint_ns;
            acc.ledger.push(
                (layer_sum + checkpoint) as f64,
                untraced as f64,
                (traced + checkpoint) as f64,
            );
        }
    }
    for ((twin, session), err) in twins.iter().zip(&sessions).zip(errors.iter_mut()) {
        let o = session.outcome(duration_s());
        let reflector = o.metrics.counter("reflector_frames").unwrap_or(0) as usize;
        if err.is_none()
            && (twin.realignments != o.realignments
                || twin.mode_switches != o.mode_switches
                || twin.reflector_frames != reflector)
        {
            *err = Some(format!(
                "twin replay decided {}/{}/{} realignments/switches/reflector frames, the session counted {}/{}/{}",
                twin.realignments, twin.mode_switches, twin.reflector_frames,
                o.realignments, o.mode_switches, reflector
            ));
        }
        acc.links += twin.links;
        acc.frames += twin.frames;
        acc.ramps += twin.ramps;
        acc.ramp_steps += twin.ramp_steps;
    }
    (sessions, errors)
}

/// A session outcome as exact bits plus its metrics JSON.
fn outcome_key(o: &SessionOutcome) -> (Vec<u64>, String) {
    let g = &o.glitches;
    let words = vec![
        o.duration_s.to_bits(),
        g.frames_total as u64,
        g.frames_delivered as u64,
        g.glitch_events as u64,
        g.longest_stall_frames as u64,
        g.loss_rate.to_bits(),
        o.mean_snr_db.to_bits(),
        o.min_snr_db.to_bits(),
        o.mode_switches as u64,
        o.realignments as u64,
        o.reflector_fraction.to_bits(),
    ];
    (words, o.metrics.to_json())
}

/// The session's metrics counters must agree with its outcome.
fn counters_agree(o: &SessionOutcome) -> Result<(), String> {
    let c = |name: &str| o.metrics.counter(name).unwrap_or(0);
    let frames = o.glitches.frames_total as u64;
    let reflector_share = if frames == 0 {
        0.0
    } else {
        c("reflector_frames") as f64 / frames as f64
    };
    let agree = c("frames_total") == frames
        && c("frames_delivered") == o.glitches.frames_delivered as u64
        && c("frames_delivered") + c("frames_missed") == frames
        && c("realignments") == o.realignments as u64
        && c("mode_switches") == o.mode_switches as u64
        && reflector_share.to_bits() == o.reflector_fraction.to_bits();
    if agree {
        Ok(())
    } else {
        Err(format!(
            "metrics counters disagree with the outcome: {}",
            o.metrics.to_json()
        ))
    }
}

/// What the warm-up generation contributes to the exact statistics.
#[derive(Default)]
struct WarmStats {
    frames: u64,
    reflector_frames: u64,
    repeated_worlds: u64,
    realigns: u64,
}

/// Checks one checkpointed session against an untimed uninterrupted run
/// of its scenario.
fn check(sc: &Scenario, session: &Session, stats: Option<&mut WarmStats>) -> Result<(), String> {
    let trace = sc.trace.as_ref();
    let mut reference = Session::new(&sc.config);
    let mut previous: Option<WorldState> = None;
    let mut repeated = 0u64;
    while reference.step_frame(trace) {
        if stats.is_some() {
            let world = trace.world_at(reference.now().as_secs_f64());
            repeated += u64::from(previous.as_ref() == Some(&world));
            previous = Some(world);
        }
    }
    let want = reference.outcome(duration_s());
    let got = session.outcome(duration_s());
    if let Some(st) = stats {
        st.frames += got.glitches.frames_total as u64;
        st.reflector_frames += got.metrics.counter("reflector_frames").unwrap_or(0);
        st.repeated_worlds += repeated;
        st.realigns += got.realignments as u64;
    }
    if outcome_key(&want) != outcome_key(&got) {
        return Err(
            "restored-and-continued session differs from the uninterrupted run".to_string(),
        );
    }
    counters_agree(&got)
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let (first, setup) = time_setup(|| generation(opts.seed, 0));
    let mut next = Some(first);

    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let mut warm = WarmStats::default();
    let mut tracer = Tracer::default();
    let mut acc = Traced::default();
    let mut walk_builds = Vec::new();
    let mut raw_rates = Vec::new();
    let mut calibrations = Vec::new();
    let mut main_rates = Vec::new();
    let mut aux_rates = Vec::new();
    let mut checkpoints_us = Vec::new();
    let mut budget: Option<Budget> = None;

    let mut gen = 0u64;
    loop {
        if gen > 0 {
            let budget = budget.get_or_insert_with(|| Budget::start(opts.seconds));
            if budget.spent() || tracer.spans().len() > MAX_SPANS {
                break;
            }
        }
        let (scenarios, sessions) = next.take().unwrap_or_else(|| generation(opts.seed, gen));
        walk_builds.extend(
            scenarios
                .iter()
                .filter_map(|s| s.walk_build_ns)
                .map(|ns| ns as f64),
        );
        let (mut sessions, blocks, mut errors) = untraced_pass(&scenarios, sessions);
        if opts.trace {
            let op_base = gen * (SLOTS * SECONDS * FPS) as u64;
            let (traced, traced_errors) =
                traced_pass(&mut tracer, &mut acc, &scenarios, &blocks, op_base);
            for (slot, (a, b)) in sessions.iter().zip(&traced).enumerate() {
                if errors[slot].is_none()
                    && outcome_key(&a.outcome(duration_s()))
                        != outcome_key(&b.outcome(duration_s()))
                {
                    errors[slot] =
                        Some("traced session diverged from the untraced one".to_string());
                }
                if errors[slot].is_none() {
                    errors[slot] = traced_errors[slot].clone();
                }
            }
            sessions = traced;
        } else if gen > 0 {
            for second in &blocks {
                let b = &second.blocks;
                let factor = second.calibration_ns / CALIBRATION_REF_NS;
                calibrations.push(second.calibration_ns);
                let frames: usize = b.iter().map(|b| b.frames).sum();
                let step: u64 = b.iter().map(|b| b.step_ns + b.checkpoint_ns).sum();
                let round_trips: u64 = b.iter().map(|b| b.checkpoint_ns).sum();
                raw_rates.push(frames as f64 / (step as f64 * 1e-9));
                main_rates.push(frames as f64 / (step as f64 * 1e-9) * factor);
                aux_rates.push(b.len() as f64 / (round_trips as f64 * 1e-9) * factor);
                checkpoints_us.extend(b.iter().map(|b| b.checkpoint_ns as f64 * 1e-3));
            }
        }
        for (slot, (sc, session)) in scenarios.iter().zip(&sessions).enumerate() {
            let stats = if gen == 0 { Some(&mut warm) } else { None };
            let verdict = match errors[slot].take() {
                Some(e) => Err(e),
                None => check(sc, session, stats),
            };
            let frames = session.frames() as u64;
            out.attempted += frames;
            if let Err(why) = verdict {
                out.failed += frames.max(1);
                if out.notes.len() < 3 {
                    out.notes
                        .push(format!("generation {gen} session {slot} failed: {why}"));
                }
            }
            if gen == 0 {
                let (words, json) = outcome_key(&session.outcome(duration_s()));
                words.iter().for_each(|&w| digest.word(w));
                digest.bytes(json.as_bytes());
            }
        }
        gen += 1;
    }

    out.digest = digest.value();
    let frames = warm.frames.max(1) as f64;
    out.stats = vec![
        Metric::new(
            "session.reflector_frame_share",
            warm.reflector_frames as f64 / frames,
            "share",
        ),
        Metric::new(
            "session.repeat_world_share",
            warm.repeated_worlds as f64 / frames,
            "share",
        ),
        Metric::new("session.realigns", warm.realigns as f64, "count"),
    ];
    if opts.trace {
        let line = format!(
            "{} (unit: one session's simulated second, {FPS} frames and a checkpoint)",
            acc.ledger.line("session", "blocks")
        );
        let metrics = traced_metrics(&tracer, &acc, &walk_builds);
        finish_traced(&mut out, opts, &tracer, metrics, line);
    } else {
        out.metrics = end_to_end(
            setup.calibrated_s(),
            median(&main_rates),
            median(&aux_rates),
        );
        out.named = vec![
            Metric::new("setup_s", setup.raw_s(), "s"),
            Metric::new("frames_per_s", median(&raw_rates), "frames/s"),
            Metric::new("checkpoint_us", median(&checkpoints_us), "us"),
        ];
        out.notes.push(format!(
            "{} timed batches of {SLOTS} sessions x 1 simulated s; frames_per_s quartiles {:.0} / {:.0}; calibrated main_per_s quartiles {:.0} / {:.0}; {} checkpoint round trips",
            raw_rates.len(),
            quantile(&raw_rates, 0.25),
            quantile(&raw_rates, 0.75),
            quantile(&main_rates, 0.25),
            quantile(&main_rates, 0.75),
            checkpoints_us.len()
        ));
        out.notes.push(calibration_note(&calibrations));
    }
    out
}

fn traced_metrics(tr: &Tracer, acc: &Traced, walk_builds: &[f64]) -> Vec<Metric> {
    let us = |name: &str| median(&tr.durations(name)) * 1e-3;
    let steps = tr.durations("session.step");
    let mut metrics = vec![
        Metric::new("session.step_us_p50", median(&steps) * 1e-3, "us"),
        Metric::new(
            "session.step_us_p99",
            quantile(&steps, tail_quantile(steps.len())) * 1e-3,
            "us",
        ),
        Metric::new("session.self_us", median(&acc.self_ns) * 1e-3, "us"),
        Metric::new("system.direct_frame_us", us("system.direct_frame"), "us"),
        Metric::new(
            "system.reflector_frame_us",
            us("system.reflector_frame"),
            "us",
        ),
        Metric::new("radio.evaluate_link_us", us("radio.evaluate_link"), "us"),
        Metric::new("rfsim.trace_link_us", us("rfsim.trace_link"), "us"),
        Metric::new(
            "rfsim.links_per_op",
            acc.links as f64 / acc.frames.max(1) as f64,
            "count",
        ),
        Metric::new("gain_control.ramp_us", us("gain_control.ramp"), "us"),
        Metric::new(
            "gain_control.steps_per_ramp",
            acc.ramp_steps as f64 / acc.ramps.max(1) as f64,
            "count",
        ),
        Metric::new("relay.link_on_us", us("relay.link_on"), "us"),
        Metric::new(
            "motion.world_at_ns",
            median(&tr.durations("motion.world_at")),
            "ns",
        ),
        Metric::new("motion.trace_build_ms", median(walk_builds) * 1e-6, "ms"),
        Metric::new("snapshot.capture_us", us("snapshot.capture"), "us"),
        Metric::new("snapshot.restore_us", us("snapshot.restore"), "us"),
        Metric::new("snapshot.bytes", median(&acc.snapshot_bytes), "bytes"),
    ];
    metrics.extend(acc.ledger.metrics("session"));
    metrics
}
