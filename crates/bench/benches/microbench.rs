//! Micro-benchmarks: the computational hot paths of the simulator
//! (per-frame link evaluation, the alignment sweep's inner measurement,
//! the gain-control loop) and the end-to-end frame step.
//!
//! These are *performance* benches (how fast the simulator runs), not
//! figure regenerators — those are the `fig*`/`ablation_*` binaries.
//!
//! Runs on the in-tree `movr-testkit` runner: each bench prints one JSON
//! line with median/p95/mean per-iteration nanoseconds. Invoke with
//! `cargo bench -p movr-bench` (full) or
//! `cargo bench -p movr-bench -- --quick` (smoke profile).

use movr::gain_control::{run_gain_control, GainControlConfig};
use movr::reflector::MovrReflector;
use movr::relay::{relay_link_on, round_trip_reflection_batched};
use movr::system::{MovrSystem, SystemConfig};
use movr_math::Vec2;
use movr_motion::{PlayerState, WorldState};
use movr_radio::{evaluate_link, RadioEndpoint};
use movr_rfsim::{BodyPart, Obstacle, Scene};
use movr_testkit::{bench_fn, bench_with_setup, BenchOptions, BenchReport};

fn bench_link_budget(opts: &BenchOptions) -> Vec<BenchReport> {
    let scene = Scene::paper_office();
    let mut ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let mut hs = RadioEndpoint::paper_radio(Vec2::new(4.0, 2.5), 180.0);
    ap.steer_toward(hs.position());
    hs.steer_toward(ap.position());
    vec![bench_fn("link_budget_direct", opts, || {
        evaluate_link(&scene, &ap, &hs)
    })]
}

fn bench_relay_budget(opts: &BenchOptions) -> Vec<BenchReport> {
    let scene = Scene::paper_office();
    let mut ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, movr::system::PAPER_DEVICE_SEED);
    let mut hs = RadioEndpoint::paper_radio(Vec2::new(4.0, 2.5), 180.0);
    ap.steer_toward(reflector.position());
    reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));
    reflector.steer_tx(reflector.position().bearing_deg_to(hs.position()));
    reflector.set_gain_db(40.0);
    hs.steer_toward(reflector.position());
    vec![
        // Both hops traced afresh, then the relay budget.
        bench_fn("relay_budget", opts, || {
            let hop1 = scene.trace_link(ap.position(), reflector.position());
            let hop2 = scene.trace_link(reflector.position(), hs.position());
            relay_link_on(&hop1, &hop2, &ap, &reflector, hs.array())
        }),
        // One backscatter probe at the live beams from scratch: trace
        // both legs, batch them, compute the four gain rows, fold.
        bench_fn("round_trip_probe", opts, || {
            let fwd = scene.trace_link(ap.position(), reflector.position()).batch();
            let bck = scene.trace_link(reflector.position(), ap.position()).batch();
            round_trip_reflection_batched(
                &fwd,
                &bck,
                &ap.array().gain_dbi_batch(fwd.departure_deg()),
                &ap.array().gain_dbi_batch(bck.arrival_deg()),
                ap.tx_power_dbm(),
                reflector.effective_gain_db(),
                &reflector.rx_array().gain_dbi_batch(fwd.arrival_deg()),
                &reflector.tx_array().gain_dbi_batch(bck.departure_deg()),
            )
        }),
    ]
}

fn bench_gain_control(opts: &BenchOptions) -> Vec<BenchReport> {
    vec![bench_with_setup(
        "gain_control_loop",
        opts,
        || {
            let mut r = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, movr::system::PAPER_DEVICE_SEED);
            r.steer_rx(-102.0);
            r.steer_tx(-45.0);
            r
        },
        |mut r| run_gain_control(&mut r, &GainControlConfig::default()),
    )]
}

fn bench_system_step(opts: &BenchOptions) -> Vec<BenchReport> {
    let center = Vec2::new(4.0, 2.5);
    let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
    let player = PlayerState::standing(center, yaw);
    let world = WorldState::player_only(player);
    // A raised hand blocks the direct path, so every frame also weighs
    // the reflector's two hops.
    let held = WorldState::player_only(player.with_hand(true));
    let mut warmed = MovrSystem::paper_setup(SystemConfig::default());
    warmed.evaluate(&held);
    let bystander = [Vec2::new(2.5, 1.0), Vec2::new(2.6, 1.3)].map(|at| {
        let mut world = held.clone();
        world.others.push(Obstacle::new(BodyPart::Torso, at));
        world
    });
    let mut crowded = MovrSystem::paper_setup(SystemConfig::default());
    crowded.evaluate(&bystander[0]);
    crowded.evaluate(&bystander[1]);
    let mut side = 1;
    vec![
        // A cold frame: a fresh deployment traces and weighs its link.
        bench_with_setup(
            "system_evaluate_frame",
            opts,
            || MovrSystem::paper_setup(SystemConfig::default()),
            |mut sys| sys.evaluate(&world),
        ),
        // A held frame: the same world again on a warmed deployment, so
        // every trace and the headset and hop-1 gain rows are reused; the
        // AP's direct row follows the noisy tracked pose.
        bench_fn("system_evaluate_held_frame", opts, || warmed.evaluate(&held)),
        // A bystander frame: the hand-blocked pose with a bystander who
        // alternates between two spots, neither of which changes the
        // paths any link admits, so each frame re-shades all three
        // links' remembered paths and keeps their gain rows.
        bench_fn("system_evaluate_bystander_frame", opts, || {
            side ^= 1;
            crowded.evaluate(&bystander[side])
        }),
    ]
}

fn bench_trace_paths(opts: &BenchOptions) -> Vec<BenchReport> {
    use movr_rfsim::{trace_paths, Room, TraceConfig};
    let bare = Room::paper_office();
    let furnished = Room::furnished_office();
    let lshape = Room::l_shaped_studio();
    let tx = Vec2::new(1.0, 2.5);
    let rx = Vec2::new(4.0, 2.0);
    let cfg = TraceConfig::default();
    vec![
        bench_fn("trace_paths_bare", opts, || {
            trace_paths(&bare, &[], tx, rx, &cfg)
        }),
        bench_fn("trace_paths_furnished", opts, || {
            trace_paths(&furnished, &[], tx, rx, &cfg)
        }),
        bench_fn("trace_paths_lshaped", opts, || {
            trace_paths(&lshape, &[], Vec2::new(1.0, 1.0), Vec2::new(1.0, 4.0), &cfg)
        }),
    ]
}

fn bench_alignment_sweep(opts: &BenchOptions) -> Vec<BenchReport> {
    use movr::alignment::{estimate_incidence, AlignmentConfig};
    use movr_math::SimRng;
    use movr_phased_array::Codebook;
    let scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, movr::system::PAPER_DEVICE_SEED);
    let truth = reflector.position().bearing_deg_to(ap.position());
    let truth_ap = ap.position().bearing_deg_to(reflector.position());
    let cfg = AlignmentConfig {
        ap_codebook: Codebook::sweep(truth_ap - 10.0, truth_ap + 10.0, 1.0),
        reflector_codebook: Codebook::sweep(truth - 10.0, truth + 10.0, 1.0),
        ..Default::default()
    };
    vec![bench_with_setup(
        "alignment_sweep_21x21",
        opts,
        || SimRng::seed_from_u64(1),
        |mut rng| estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng),
    )]
}

fn bench_session_second(opts: &BenchOptions) -> Vec<BenchReport> {
    use movr::session::{run_session, SessionConfig, Strategy};
    use movr_motion::StaticScene;
    let center = Vec2::new(4.0, 2.5);
    let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
    let trace = StaticScene::new(PlayerState::standing(center, yaw), 1.0);
    let cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    vec![bench_fn("session_one_second_90fps", opts, || {
        run_session(&trace, &cfg)
    })]
}

fn bench_obs_overhead(opts: &BenchOptions) -> Vec<BenchReport> {
    // The observability tax on a 60 s session (5 400 frames). The null
    // recorder is the always-on configuration: its cost over the plain
    // session (`session_one_second_90fps` × 60) must stay within noise —
    // one virtual `enabled()` call per would-be event. The memory
    // recorder builds every event and writes none; the JSONL row also
    // writes every line, session-tagged, which is what a recorded fleet
    // session pays.
    use movr::session::{run_session_recorded, SessionConfig, Strategy};
    use movr_motion::StaticScene;
    use movr_obs::{JsonlWriter, MemoryRecorder, NullRecorder, SessionTagged};
    let center = Vec2::new(4.0, 2.5);
    let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
    let trace = StaticScene::new(PlayerState::standing(center, yaw), 60.0);
    let cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    vec![
        bench_fn("obs_session_60s_null", opts, || {
            run_session_recorded(&trace, &cfg, &mut NullRecorder)
        }),
        bench_fn("obs_session_60s_memory", opts, || {
            let mut rec = MemoryRecorder::new();
            let out = run_session_recorded(&trace, &cfg, &mut rec);
            (out, rec.len())
        }),
        bench_fn("obs_session_60s_jsonl", opts, || {
            let mut writer = JsonlWriter::new(Vec::new());
            let out = run_session_recorded(&trace, &cfg, &mut SessionTagged::new(&mut writer, 0));
            (
                out,
                writer.finish().expect("in-memory sink never fails").len(),
            )
        }),
    ]
}

fn bench_obs_reduce(opts: &BenchOptions) -> Vec<BenchReport> {
    // `movr-obs reduce` without the disk: the canonical 8 x 1 s fleet
    // (gaze walks under MoVR with tracking, seeds 0..8), each session
    // recorded through `SessionTagged` into an in-memory `JsonlWriter`
    // once in setup. The timed body parses and folds every line, about
    // 12k of them, most `gain_step`s.
    use movr::session::{run_session_recorded, SessionConfig, Strategy};
    use movr_motion::RandomWalk;
    use movr_obs::{reduce_lines, JsonlWriter, Rollup, SessionTagged};
    use movr_rfsim::Room;
    let room = Room::paper_office();
    let cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    let streams: Vec<String> = (0..8u64)
        .map(|id| {
            let trace = RandomWalk::with_gaze(&room, id, 1.0, Vec2::new(0.5, 2.5));
            let mut writer = JsonlWriter::new(Vec::new());
            run_session_recorded(&trace, &cfg, &mut SessionTagged::new(&mut writer, id));
            let bytes = writer.finish().expect("in-memory sink never fails");
            String::from_utf8(bytes).expect("JSONL is UTF-8")
        })
        .collect();
    vec![bench_fn("obs_reduce_fleet_8x1s", opts, || {
        let mut rollup = Rollup::new();
        for text in &streams {
            reduce_lines("fleet", text.lines(), &mut rollup).expect("recorded fleet reduces");
        }
        rollup
    })]
}

fn bench_array_gain(opts: &BenchOptions) -> Vec<BenchReport> {
    // One steered array, one full 101-bearing probe row (what a single
    // θ₁ of the alignment sweep asks for), queried bearing by bearing:
    // the loop `SteeredArray::gain_dbi_batch` and every `PatternTable`
    // page run.
    use movr_phased_array::SteeredArray;
    let mut array = SteeredArray::paper_array(-70.0);
    array.steer_to(-102.0);
    let bearings: Vec<f64> = (0..101).map(|i| -152.0 + f64::from(i)).collect();
    // Mounting arrays, as every deployment, reflector and radio does at
    // set-up: 300 `SteeredArray::paper_array` calls at distinct
    // boresights. Each array starts at broadside, whose phases the
    // optimiser folds to a constant when it sees them computed for 0.0;
    // computed at run time, the row reads about 15x.
    let boresights: Vec<f64> = (0..300).map(|k| -180.0 + 1.2 * f64::from(k)).collect();
    vec![
        bench_fn("array_gain_scalar_101", opts, || {
            bearings.iter().map(|&b| array.gain_dbi(b)).sum::<f64>()
        }),
        bench_fn("array_mount_300", opts, || {
            for &b in &boresights {
                std::hint::black_box(SteeredArray::paper_array(b));
            }
        }),
    ]
}

fn bench_pool_overhead(opts: &BenchOptions) -> Vec<BenchReport> {
    // `pool_map`'s fan-out cost: 8 near-free items on 2 threads, so the
    // timing is almost entirely one scoped spawn and its join, with the
    // caller running chunk 0. The thread count is pinned at 2 — not
    // `available_threads()` — so the row measures the same fan-out shape
    // on every box, including single-core CI containers (where
    // `available_threads()` would take the serial fast path and measure
    // nothing).
    use movr_sim::pool_map;
    fn tiny(_i: usize, x: &u64) -> u64 {
        x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13)
    }
    let items: Vec<u64> = (0..8).collect();
    vec![bench_fn("par_tiny_worker_pool", opts, || {
        pool_map(items.clone(), 2, tiny)
    })]
}

fn bench_lint_workspace(opts: &BenchOptions) -> Vec<BenchReport> {
    // Cost of the static-analysis gate itself over the real workspace:
    // lexing alone vs the full semantic pipeline (parse + unit-flow +
    // RNG dataflow). The gap is the price of the semantic analyses.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    vec![
        bench_fn("lint_workspace_lex_only", opts, || {
            movr_lint::lex_workspace(&root).expect("workspace readable")
        }),
        bench_fn("lint_workspace_semantic", opts, || {
            movr_lint::analyze(&root)
                .expect("workspace readable")
                .diagnostics
                .len()
        }),
    ]
}

fn main() {
    let opts = BenchOptions::from_args(std::env::args().skip(1));
    let suites: [fn(&BenchOptions) -> Vec<BenchReport>; 12] = [
        bench_link_budget,
        bench_relay_budget,
        bench_gain_control,
        bench_system_step,
        bench_trace_paths,
        bench_alignment_sweep,
        bench_session_second,
        bench_obs_overhead,
        bench_obs_reduce,
        bench_array_gain,
        bench_pool_overhead,
        bench_lint_workspace,
    ];
    for suite in suites {
        for report in suite(&opts) {
            println!("{}", report.json_line());
        }
    }
}
