//! The `fleet` workload: one operation is one canonical fleet session
//! (`movr_system::fleet::run_fleet_session`: a gaze walk under MoVR with
//! tracking) recorded to an in-memory JSONL stream.
//!
//! Sixteen sessions fan out over the worker pool with one worker per
//! core. Each fleet is then reduced on the same pool — one
//! `reduce_one_stream` per stream, merged in stream order with
//! `Rollup::merge`, which is the `movr-obs reduce` path without disk —
//! and its buffers are dropped. The physics is the session workload's,
//! but frames are mostly direct; event writing, JSONL parsing and
//! folding, and the pool do the work. This is the one workload where
//! observability writes sit beside reads and where pool balance shows.

use crate::frame::FrameTwin;
use crate::spans::{Ledger, Tracer};
use crate::stats::{calibration_ns, median, quantile, Digest, CALIBRATION_REF_NS};
use crate::{
    calibration_note, end_to_end, finish_traced, rng_for, time_setup, Budget, Metric, Options,
    Outcome, MAX_SPANS,
};
use movr::session::{SessionConfig, SessionOutcome, Strategy};
use movr_motion::{MotionTrace, RandomWalk};
use movr_obs::{
    reduce_lines, reduce_one_stream, Event, Json, JsonlWriter, Recorder, Rollup, SpanId,
};
use movr_rfsim::Room;
use movr_sim::{SimTime, WorkerPool};
use movr_system::fleet::{run_fleet_session, AP_FOCUS};
use movr_testkit::Timer;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;

/// Sessions per fleet: enough that one fleet's mix of costly
/// (blocked) and cheap sessions, and its split over the workers, varies
/// little from fleet to fleet.
const FLEET_SESSIONS: usize = 32;
/// Simulated seconds per session, as in the repository's golden fleet.
const SESSION_S: f64 = 1.0;
/// Fleets in the warm-up, whose rollups the digest covers.
const WARMUP_FLEETS: u64 = 2;
/// RNG stream label of this workload's inputs.
const STREAM: u64 = 0xF1EE;
/// Bytes reserved per JSONL stream up front (a 1 s session writes well
/// under this), so a growing buffer is never copied and peak memory
/// follows the bytes written rather than power-of-two growth steps.
const STREAM_CAPACITY: usize = 1 << 20;

/// Distinct session ids (each also its session's RNG seed) of fleet
/// `fleet`, below 2³² so they survive the JSON round trip exactly.
fn fleet_ids(seed: u64, fleet: u64) -> Vec<u64> {
    let mut r = rng_for(seed, STREAM, fleet);
    let mut seen = BTreeSet::new();
    let mut ids = Vec::with_capacity(FLEET_SESSIONS);
    while ids.len() < FLEET_SESSIONS {
        let id = u64::from(r.next_u32());
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// Forwards every `Recorder` call to the JSONL writer and times it.
struct TimedRecorder<'a> {
    inner: &'a mut JsonlWriter<Vec<u8>>,
    epoch: Timer,
    spans: &'a mut Vec<(u64, u64)>,
}

impl Recorder for TimedRecorder<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn record(&mut self, event: Event) {
        let start = self.epoch.elapsed_ns();
        self.inner.record(event);
        self.spans.push((start, self.epoch.elapsed_ns()));
    }
    fn start_span(&mut self, t: SimTime, name: &'static str) -> SpanId {
        let start = self.epoch.elapsed_ns();
        let id = self.inner.start_span(t, name);
        self.spans.push((start, self.epoch.elapsed_ns()));
        id
    }
    fn end_span(&mut self, t: SimTime, name: &'static str, id: SpanId) {
        let start = self.epoch.elapsed_ns();
        self.inner.end_span(t, name, id);
        self.spans.push((start, self.epoch.elapsed_ns()));
    }
}

/// One pool item's result with its start, end and thread.
struct Item<T> {
    value: T,
    start_ns: u64,
    end_ns: u64,
    thread: ThreadId,
}

/// One recorded session: outcome, JSONL bytes and event lines, and the
/// timed recorder calls when traced.
type Recording = Result<(SessionOutcome, Vec<u8>, u64), String>;

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// A pool map whose items record their own start, end and thread.
/// Returns the items and the `(dispatch, return)` instants.
fn timed_map<T, R, F>(
    pool: &WorkerPool,
    workers: usize,
    items: Vec<T>,
    epoch: Timer,
    f: F,
) -> (Vec<Item<R>>, (u64, u64))
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    let dispatch = epoch.elapsed_ns();
    let out = pool.map(items, workers, move |_, item| {
        let start_ns = epoch.elapsed_ns();
        let value = f(item);
        Item {
            value,
            start_ns,
            end_ns: epoch.elapsed_ns(),
            thread: std::thread::current().id(),
        }
    });
    (out, (dispatch, epoch.elapsed_ns()))
}

type RecordOut = (Recording, Vec<(u64, u64)>);

fn record(
    pool: &WorkerPool,
    workers: usize,
    ids: Vec<u64>,
    epoch: Timer,
    timed: bool,
) -> (Vec<Item<RecordOut>>, (u64, u64)) {
    timed_map(pool, workers, ids, epoch, move |&id| {
        let mut calls = Vec::new();
        let recording = catch_unwind(AssertUnwindSafe(|| {
            let mut writer = JsonlWriter::new(Vec::with_capacity(STREAM_CAPACITY));
            let outcome = if timed {
                let mut rec = TimedRecorder {
                    inner: &mut writer,
                    epoch,
                    spans: &mut calls,
                };
                run_fleet_session(id, SESSION_S, &mut rec)
            } else {
                run_fleet_session(id, SESSION_S, &mut writer)
            };
            let lines = writer.lines();
            writer
                .finish()
                .map(|buf| (outcome, buf, lines))
                .map_err(|e| format!("JSONL sink failed: {e}"))
        }))
        .unwrap_or_else(|p| Err(format!("pool item panicked: {}", panic_text(p.as_ref()))));
        (recording, calls)
    })
}

/// Reduces each stream on the pool and merges the parts in stream
/// order. Returns the fleet rollup (or the first error), the event
/// lines folded, and the `(dispatch, merged)` instants.
fn reduce(
    pool: &WorkerPool,
    workers: usize,
    streams: Vec<(u64, Vec<u8>)>,
    epoch: Timer,
) -> (Result<Rollup, String>, u64, (u64, u64)) {
    let (parts, (dispatch, _)) = timed_map(pool, workers, streams, epoch, |(id, buf)| {
        catch_unwind(AssertUnwindSafe(|| {
            reduce_one_stream(&format!("session-{id}"), &buf[..])
        }))
        .unwrap_or_else(|p| {
            Err(movr_obs::ReduceError {
                stream: format!("session-{id}"),
                line: 0,
                what: format!("pool item panicked: {}", panic_text(p.as_ref())),
            })
        })
    });
    let mut rollup = Ok(Rollup::new());
    let mut events = 0;
    for p in parts {
        match (p.value, &mut rollup) {
            (Ok((part, n)), Ok(r)) => {
                events += n;
                if let Err(e) = r.merge(&part) {
                    rollup = Err(format!("rollup merge failed: {e}"));
                }
            }
            (Err(e), Ok(_)) => rollup = Err(format!("reduce failed: {e}")),
            (_, Err(_)) => {}
        }
    }
    (rollup, events, (dispatch, epoch.elapsed_ns()))
}

/// Busy share, items, idle share, imbalance and dispatch latency of
/// every record map.
#[derive(Default)]
struct PoolStats {
    busy_share: [Vec<f64>; 2],
    items: [Vec<f64>; 2],
    idle_share: Vec<f64>,
    imbalance: Vec<f64>,
    dispatch_us: Vec<f64>,
}

impl PoolStats {
    fn observe<T>(&mut self, items: &[Item<T>], (dispatch, returned): (u64, u64), workers: usize) {
        // Chunk i goes to worker i, so workers are numbered by the first
        // item each one ran.
        let mut threads: Vec<ThreadId> = Vec::new();
        for it in items {
            if !threads.contains(&it.thread) {
                threads.push(it.thread);
            }
        }
        let n = workers.max(threads.len()).max(1);
        let wall = returned.saturating_sub(dispatch).max(1) as f64;
        let mut busy = vec![0.0; n];
        let mut count = vec![0.0; n];
        for it in items {
            let w = threads.iter().position(|t| *t == it.thread).unwrap_or(0);
            busy[w] += it.end_ns.saturating_sub(it.start_ns) as f64;
            count[w] += 1.0;
        }
        for w in 0..2 {
            self.busy_share[w].push(busy.get(w).copied().unwrap_or(0.0) / wall);
            self.items[w].push(count.get(w).copied().unwrap_or(0.0));
        }
        let total: f64 = busy.iter().sum();
        let max = busy.iter().copied().fold(0.0, f64::max);
        self.idle_share.push(1.0 - total / (n as f64 * wall));
        self.imbalance.push(if total > 0.0 {
            max / (total / n as f64)
        } else {
            1.0
        });
        let first = items.iter().map(|i| i.start_ns).min().unwrap_or(dispatch);
        self.dispatch_us
            .push(first.saturating_sub(dispatch) as f64 * 1e-3);
    }
}

/// The fleet's checks: every session recorded and reduced, and the
/// rollup's per-session counters equal to that session's outcome.
fn check(
    rec: &[Item<RecordOut>],
    ids: &[u64],
    rollup: &Result<Rollup, String>,
) -> Vec<Option<String>> {
    rec.iter()
        .zip(ids)
        .map(|(item, id)| {
            let (outcome, _, lines) = match &item.value.0 {
                Ok(v) => v,
                Err(e) => return Some(e.clone()),
            };
            let rollup = match rollup {
                Ok(r) => r,
                Err(e) => return Some(e.clone()),
            };
            let Some(s) = rollup.sessions().get(id) else {
                return Some(format!("session {id} missing from the rollup"));
            };
            let agree = s.frames_total == outcome.glitches.frames_total as u64
                && s.frames_delivered == outcome.glitches.frames_delivered as u64
                && s.mode_switches == outcome.mode_switches as u64
                && s.realigns == outcome.realignments as u64
                && s.events == *lines;
            (!agree).then(|| {
                format!(
                    "session {id}: rollup counts {}/{}/{}/{} frames/delivered/switches/realigns, outcome {}/{}/{}/{}",
                    s.frames_total, s.frames_delivered, s.mode_switches, s.realigns,
                    outcome.glitches.frames_total, outcome.glitches.frames_delivered,
                    outcome.mode_switches, outcome.realignments
                )
            })
        })
        .collect()
}

/// What the traced passes accumulate.
#[derive(Default)]
struct Traced {
    /// Layer sum, untraced and traced time per recorded session.
    ledger: Ledger,
    frames: usize,
    lines: u64,
    links: usize,
    ramps: usize,
    ramp_steps: usize,
    parse_ns: u64,
    reduce_ns: u64,
    walk_builds: Vec<f64>,
}

/// Replays one traced fleet: each session's physics on a twin from its
/// recorded frame times, then the reduction of its stream line by line.
/// Returns per-session errors and the replayed fleet rollup JSON.
fn replay(
    tr: &mut Tracer,
    acc: &mut Traced,
    untraced: &[Item<RecordOut>],
    traced: &[Item<RecordOut>],
    ids: &[u64],
) -> (Vec<Option<String>>, String) {
    let config = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    let mut errors = vec![None; ids.len()];
    let mut fleet = Rollup::new();
    for ((slot, (plain, item)), &id) in untraced.iter().zip(traced).enumerate().zip(ids) {
        let (Ok((outcome, buf, lines)), Ok(_)) = (&item.value.0, &plain.value.0) else {
            continue;
        };
        let session = tr.push("fleet.session", id, (item.start_ns, item.end_ns), None);
        for &call in &item.value.1 {
            tr.push("obs.record", id, call, Some(session));
        }
        let record_ns: u64 = item.value.1.iter().map(|(a, b)| b - a).sum();

        let root = tr.begin("fleet.replay", id);
        let walk = tr.time("motion.trace_build", id, || {
            RandomWalk::with_gaze(&Room::paper_office(), id, SESSION_S, AP_FOCUS)
        });
        acc.walk_builds.push(tr.last_ns() as f64);
        let mut twin = FrameTwin::new(config.system);
        let text = String::from_utf8_lossy(buf);
        for line in text.lines() {
            let Ok(doc) = Json::parse(line) else { continue };
            if doc.get("kind").and_then(Json::as_str) != Some("frame") {
                continue;
            }
            let Some(t_ns) = doc.get("t_ns").and_then(Json::as_u64) else {
                continue;
            };
            let t_s = SimTime::from_nanos(t_ns).as_secs_f64();
            let world = tr.time("motion.world_at", id, || walk.world_at(t_s));
            twin.frame(tr, id, t_s, &world);
        }
        tr.end(root);
        let reflector = outcome.metrics.counter("reflector_frames").unwrap_or(0) as usize;
        if errors[slot].is_none()
            && (twin.realignments != outcome.realignments
                || twin.mode_switches != outcome.mode_switches
                || twin.reflector_frames != reflector)
        {
            errors[slot] = Some(format!(
                "twin replay of session {id} disagrees with its counters"
            ));
        }
        acc.frames += twin.frames;
        acc.links += twin.links;
        acc.ramps += twin.ramps;
        acc.ramp_steps += twin.ramp_steps;
        acc.lines += lines;

        // The layer sum counts the replayed calls, not the twin's
        // decisions that contain them.
        let leaves: u64 = tr.spans()[root + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| match s.name {
                "system.replay" => s.child_ns,
                "system.direct_frame" | "system.reflector_frame" => 0,
                _ => s.ns(),
            })
            .sum();
        acc.ledger.push(
            (leaves + record_ns) as f64,
            plain.end_ns.saturating_sub(plain.start_ns) as f64,
            item.end_ns.saturating_sub(item.start_ns) as f64,
        );

        let stream: Vec<&str> = text.lines().collect();
        let parsed = tr.time("obs.parse_stream", id, || {
            stream
                .iter()
                .filter(|l| std::hint::black_box(Json::parse(l)).is_ok())
                .count()
        });
        acc.parse_ns += tr.last_ns();
        let mut part = Rollup::new();
        let folded = tr.time("obs.reduce_lines", id, || {
            reduce_lines(&format!("session-{id}"), stream.iter().copied(), &mut part)
        });
        acc.reduce_ns += tr.last_ns();
        let merged = tr.time("obs.merge", id, || fleet.merge(&part));
        if errors[slot].is_none() && (parsed != stream.len() || folded.is_err() || merged.is_err())
        {
            errors[slot] = Some(format!("replayed reduction of session {id} failed"));
        }
    }
    (errors, fleet.to_json())
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let workers = opts.workers.max(1);
    let mut spawn_ns = Vec::new();
    let (pool, setup) = time_setup(|| {
        let pool = WorkerPool::new();
        let spawn = Timer::start();
        pool.map((0..workers).collect(), workers, |_, &w: &usize| w);
        spawn_ns.push(spawn.elapsed_ns() as f64);
        pool
    });

    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let mut warm_events = 0u64;
    let mut tracer = Tracer::default();
    let epoch = tracer.epoch();
    let mut acc = Traced::default();
    let mut pool_stats = PoolStats::default();
    let mut raw_rates: Vec<(f64, f64)> = Vec::new();
    let mut calibrations = Vec::new();
    let mut main_rates = Vec::new();
    let mut aux_rates = Vec::new();
    let mut budget: Option<Budget> = None;

    let mut f = 0u64;
    loop {
        let warm = f < WARMUP_FLEETS;
        if !warm {
            let budget = budget.get_or_insert_with(|| Budget::start(opts.seconds));
            if budget.spent() || tracer.spans().len() > MAX_SPANS {
                break;
            }
        }
        let ids = fleet_ids(opts.seed, f);
        // Every worker runs the calibration kernel once. A fleet waits
        // for its slowest worker, so the slowest kernel time calibrates it.
        let cal = pool.map((0..workers).collect(), workers, |_, _: &usize| {
            calibration_ns()
        });
        let factor = cal.iter().copied().fold(0.0, f64::max) / CALIBRATION_REF_NS;
        calibrations.extend(cal);
        let (mut recorded, record_wall) = record(&pool, workers, ids.clone(), epoch, false);
        pool_stats.observe(&recorded, record_wall, workers);
        let frames: usize = recorded
            .iter()
            .filter_map(|r| r.value.0.as_ref().ok())
            .map(|(o, _, _)| o.glitches.frames_total)
            .sum();

        let traced = opts
            .trace
            .then(|| record(&pool, workers, ids.clone(), epoch, true).0);
        // Tracing must not change a byte of the recorded streams.
        let diverged: Vec<bool> = match &traced {
            Some(t) => recorded
                .iter()
                .zip(t)
                .map(|(a, b)| match (&a.value.0, &b.value.0) {
                    (Ok((_, x, _)), Ok((_, y, _))) => x != y,
                    _ => false,
                })
                .collect(),
            None => vec![false; ids.len()],
        };
        // The streams move to the reducer, which drops them.
        let streams: Vec<(u64, Vec<u8>)> = recorded
            .iter_mut()
            .zip(&ids)
            .filter_map(|(r, &id)| {
                r.value
                    .0
                    .as_mut()
                    .ok()
                    .map(|(_, buf, _)| (id, std::mem::take(buf)))
            })
            .collect();
        let (rollup, events, reduce_wall) = reduce(&pool, workers, streams, epoch);

        let mut errors = check(&recorded, &ids, &rollup);
        for (e, &d) in errors.iter_mut().zip(&diverged) {
            if d && e.is_none() {
                *e = Some("traced recording diverged from the untraced one".to_string());
            }
        }
        if let Some(traced) = &traced {
            let (replay_errors, replayed) = replay(&mut tracer, &mut acc, &recorded, traced, &ids);
            for (e, r) in errors.iter_mut().zip(replay_errors) {
                if e.is_none() {
                    *e = r;
                }
            }
            if rollup.as_ref().is_ok_and(|r| r.to_json() != replayed) {
                out.notes.push(format!(
                    "fleet {f}: replayed reduction differs from the pool's"
                ));
            }
        }
        out.attempted += ids.len() as u64;
        for (slot, e) in errors.iter().enumerate() {
            if let Some(why) = e {
                out.failed += 1;
                if out.notes.len() < 3 {
                    out.notes
                        .push(format!("fleet {f} session {slot} failed: {why}"));
                }
            }
        }
        if warm {
            if let Ok(r) = &rollup {
                digest.bytes(r.to_json().as_bytes());
            }
            warm_events += events;
        } else if !opts.trace {
            let secs = |(a, b): (u64, u64)| b.saturating_sub(a).max(1) as f64 * 1e-9;
            raw_rates.push((
                frames as f64 / secs(record_wall),
                events as f64 / secs(reduce_wall),
            ));
            main_rates.push(frames as f64 / secs(record_wall) * factor);
            aux_rates.push(events as f64 / secs(reduce_wall) * factor);
        }
        f += 1;
    }

    out.digest = digest.value();
    out.stats = vec![Metric::new("fleet.events", warm_events as f64, "count")];
    if opts.trace {
        let line = format!(
            "{} (unit: one recorded session as a pool item)",
            acc.ledger.line("fleet", "sessions")
        );
        let metrics = traced_metrics(&tracer, &acc, &pool_stats, &spawn_ns);
        finish_traced(&mut out, opts, &tracer, metrics, line);
    } else {
        let raw_frames: Vec<f64> = raw_rates.iter().map(|r| r.0).collect();
        let raw_events: Vec<f64> = raw_rates.iter().map(|r| r.1).collect();
        out.metrics = end_to_end(
            setup.calibrated_s(),
            median(&main_rates),
            median(&aux_rates),
        );
        out.named = vec![
            Metric::new("setup_s", setup.raw_s(), "s"),
            Metric::new("fleet_frames_per_s", median(&raw_frames), "frames/s"),
            Metric::new("reduce_events_per_s", median(&raw_events), "events/s"),
        ];
        out.notes.push(format!(
            "{} timed fleets of {FLEET_SESSIONS} x {SESSION_S} s sessions on {workers} workers; fleet_frames_per_s quartiles {:.0} / {:.0}; calibrated main_per_s quartiles {:.0} / {:.0}",
            main_rates.len(),
            quantile(&raw_frames, 0.25),
            quantile(&raw_frames, 0.75),
            quantile(&main_rates, 0.25),
            quantile(&main_rates, 0.75)
        ));
        out.notes.push(calibration_note(&calibrations));
    }
    out
}

fn traced_metrics(tr: &Tracer, acc: &Traced, pool: &PoolStats, spawn_ns: &[f64]) -> Vec<Metric> {
    let us = |name: &str| median(&tr.durations(name)) * 1e-3;
    let lines = acc.lines.max(1) as f64;
    let mut metrics = vec![
        Metric::new("obs.record_ns", median(&tr.durations("obs.record")), "ns"),
        Metric::new(
            "obs.events_per_frame",
            acc.lines as f64 / acc.frames.max(1) as f64,
            "count",
        ),
        Metric::new("obs.parse_ns", acc.parse_ns as f64 / lines, "ns"),
        Metric::new(
            "obs.fold_ns",
            acc.reduce_ns.saturating_sub(acc.parse_ns) as f64 / lines,
            "ns",
        ),
        Metric::new("obs.merge_us", us("obs.merge"), "us"),
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
        Metric::new(
            "motion.trace_build_ms",
            median(&acc.walk_builds) * 1e-6,
            "ms",
        ),
        Metric::new("sim.busy_share.w0", median(&pool.busy_share[0]), "share"),
        Metric::new("sim.busy_share.w1", median(&pool.busy_share[1]), "share"),
        Metric::new("sim.items.w0", median(&pool.items[0]), "count"),
        Metric::new("sim.items.w1", median(&pool.items[1]), "count"),
        Metric::new("sim.idle_share", median(&pool.idle_share), "share"),
        Metric::new("sim.imbalance", median(&pool.imbalance), "ratio"),
        Metric::new("sim.dispatch_us", median(&pool.dispatch_us), "us"),
        Metric::new("sim.pool_spawn_ms", median(spawn_ns) * 1e-6, "ms"),
    ];
    metrics.extend(acc.ledger.metrics("fleet"));
    metrics
}
