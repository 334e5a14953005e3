//! Sweep-rate benches: the §4.1 alignment sweep on the batched engine,
//! on the paper's default window and on a window that can see its
//! reflector, and a multi-seed session fleet fanned out with `pool_map`
//! on an explicit thread-scaling ladder.
//!
//! The paper's default 40°–140° reflector window points the bench's
//! −70° mount behind its ground plane: every probe reads the −94.6 dBm
//! background of leakage and floor plus jitter (the "peak" is −92.9
//! dBm), so the batched sweep can skip no probe. That row is the skip
//! test's worst case. The second row sweeps fixed 1° windows that
//! contain the true bearings off centre (reflector −150°…−50°, AP
//! 30°…130°), where nearly every probe provably reads below the peak.
//! `tests/batch_equivalence.rs` checks the sweep on both windows bit for
//! bit against a scalar reference.
//!
//! Every row is pinned by the perf ratchet (`bench-baseline.toml`) as
//! its `kernel_ratio`: its time over the testkit's calibration kernel,
//! run for as long as a sample just before each one.
//! `sweep_skip_speedup`, the default row's kernel ratio over the visible
//! row's, is gated there too.
//!
//! One claim is *asserted*, not just timed: the parallel session fleet
//! is **byte-identical** to the same fleet on one thread, at every
//! probed thread count. `fleet_speedup` is the median of 15 paired
//! 1-thread / all-cores ratios. Before and after each pair the bench
//! measures the parallelism two plain OS threads actually get, and the
//! line's `threads` is the median over the pairs of the lower reading,
//! rounded: a box whose second core is busy, or comes and goes, reports
//! `threads: 1`, and the ratchet skips the pin. The probe stays off the
//! pool, so a pool that stops fanning out still reads two threads and
//! fails the pin.
//!
//! Runs on the in-tree `movr-testkit` runner: one JSON line per bench
//! plus `sweep_skip_speedup` / `fleet_speedup` / `fleet_speedup_4t`
//! summary lines. Invoke with `cargo bench -p movr-bench --bench sweep`
//! (full) or `... -- --quick` (smoke profile; CI writes this to
//! `out/BENCH_sweep.json`).

use movr::alignment::{estimate_incidence, AlignmentConfig};
use movr::reflector::MovrReflector;
use movr::session::{run_session, SessionConfig, Strategy};
use movr_math::convert::f64_to_usize;
use movr_math::{SimRng, Vec2};
use movr_motion::RandomWalk;
use movr_phased_array::Codebook;
use movr_radio::RadioEndpoint;
use movr_rfsim::{Room, Scene};
use movr_sim::{available_threads, pool_map};
use movr_testkit::{bench_with_setup, calibration_ns, BenchOptions, BenchReport, Timer};
use std::hint::black_box;

fn sweep_setup() -> (Scene, RadioEndpoint, MovrReflector, AlignmentConfig) {
    let scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let reflector =
        MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, movr::system::PAPER_DEVICE_SEED);
    // The paper's full sweep: 101 × 101 probes at 1°, both windows
    // 40°–140°. The reflector's window points behind its ground plane
    // (see the module docs): the sweep where no probe can be skipped.
    (scene, ap, reflector, AlignmentConfig::default())
}

/// The paper's full sweep on fixed 1° windows that contain, but are not
/// centred on, the true bearings (reflector → AP ≈ −102.5°, AP →
/// reflector ≈ 77.5°).
fn visible_config() -> AlignmentConfig {
    AlignmentConfig {
        reflector_codebook: Codebook::sweep(-150.0, -50.0, 1.0),
        ap_codebook: Codebook::sweep(30.0, 130.0, 1.0),
        ..AlignmentConfig::default()
    }
}

/// The batched full alignment sweep on the default and the visible
/// window. Returns the rows and `sweep_skip_speedup`, the first row's
/// kernel ratio over the second's.
fn bench_alignment_sweep(opts: &BenchOptions) -> (Vec<BenchReport>, f64) {
    let (scene, ap, reflector, cfg) = sweep_setup();
    let visible = visible_config();
    let r_batched = bench_with_setup(
        "alignment_sweep_101x101_batched",
        opts,
        || SimRng::seed_from_u64(7),
        |mut rng| estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng),
    );
    let r_visible = bench_with_setup(
        "alignment_sweep_101x101_visible",
        opts,
        || SimRng::seed_from_u64(7),
        |mut rng| estimate_incidence(&scene, ap, reflector.clone(), &visible, &mut rng),
    );
    let skip_speedup = r_batched.kernel_ratio / r_visible.kernel_ratio;
    (vec![r_batched, r_visible], skip_speedup)
}

/// The upper median of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The parallelism two cores give right now, measured off the pool the
/// fleet rows test: five calibration kernels on this thread, their time
/// doubled, over the wall time of five on this thread and five on a
/// plain OS thread at once. About 2 with a second core free, about 1
/// when the two share one, whatever `pool_map` does. Five kernels last
/// about as long as one fleet run, so a thread that waits for its core
/// costs the probe what it costs the fleet.
#[expect(clippy::disallowed_methods, reason = "the probe must stay off the pool it checks")]
fn measured_parallelism() -> f64 {
    let kernels = || (0..5).map(|_| calibration_ns()).sum::<f64>();
    let one_s = secs(kernels);
    let two_s = secs(|| {
        std::thread::scope(|s| {
            let other = s.spawn(kernels);
            black_box(kernels());
            black_box(other.join().expect("the probe's kernels do not panic"));
        });
    });
    2.0 * one_s / two_s
}

/// Host seconds one call of `f` takes.
fn secs<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Timer::start();
    black_box(f());
    t.elapsed_secs_f64()
}

/// Runs one seeded VR session and returns a byte-exact fingerprint of
/// everything the fleet aggregates.
fn session_fingerprint(seed: u64) -> String {
    let room = Room::paper_office();
    let trace = RandomWalk::with_gaze(&room, seed, 1.0, Vec2::new(0.5, 2.5));
    let cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    let out = run_session(&trace, &cfg);
    format!(
        "{:x}:{:x}:{}:{}:{:x}:{:?}",
        out.mean_snr_db.to_bits(),
        out.min_snr_db.to_bits(),
        out.mode_switches,
        out.realignments,
        out.reflector_fraction.to_bits(),
        out.glitches
    )
}

fn run_fleet(seeds: &[u64], threads: usize) -> Vec<String> {
    pool_map(seeds.to_vec(), threads, |_, &seed| session_fingerprint(seed))
}

/// What the fleet bench reports beside its rows.
struct FleetSummary {
    /// Median of paired 1-thread / all-cores ratios.
    speedup: f64,
    /// The 4-thread rung over the 1-thread row; 1.0 (vacuous) below 4 cores.
    speedup_4t: f64,
    /// Median over the pairs of the lower [`measured_parallelism`]
    /// reading on either side of each.
    parallelism: f64,
    /// Detected cores, the all-cores fleet's thread count.
    cores: usize,
}

/// Multi-seed session fleet through `pool_map`, sequential vs fanned
/// out. Asserts the parallel fleet is byte-identical to the
/// single-threaded one at every probed thread count, and — where the
/// machine has the cores — times an explicit 1/2/4/8-thread scaling
/// ladder so the recorded numbers say what parallelism actually bought
/// rather than implying a speedup a small box cannot show.
fn bench_session_fleet(opts: &BenchOptions) -> (Vec<BenchReport>, FleetSummary) {
    let seeds: Vec<u64> = (0..8).collect();
    let cores = available_threads();

    let seq = run_fleet(&seeds, 1);
    for probe in [2, 3, 4, 8, cores] {
        assert_eq!(
            run_fleet(&seeds, probe),
            seq,
            "fleet output must be byte-identical on {probe} threads"
        );
    }

    let mut reports = vec![bench_with_setup(
        "session_fleet_8x1s_1thread",
        opts,
        || (),
        |()| run_fleet(&seeds, 1),
    )];
    // The scaling ladder: only thread counts the hardware can actually
    // schedule concurrently; an 8-thread row timed on 1 core would be
    // context-switch noise published as data.
    let mut median_4t = None;
    for (name, t) in [
        ("session_fleet_8x1s_2threads", 2usize),
        ("session_fleet_8x1s_4threads", 4usize),
        ("session_fleet_8x1s_8threads", 8usize),
    ] {
        if cores >= t {
            let r = bench_with_setup(name, opts, || (), |()| run_fleet(&seeds, t));
            if t == 4 {
                median_4t = Some(r.median_ns);
            }
            reports.push(r);
        }
    }
    let r_par = bench_with_setup(
        "session_fleet_8x1s_par",
        opts,
        || (),
        |()| run_fleet(&seeds, cores),
    );
    // Paired, not a ratio of the rows above: machine load drifts on
    // second scales, and the two halves of a pair see the same machine
    // state. A pair's parallelism is the lower of the readings taken
    // just before and just after it, so a host that hands the second
    // core back or takes it away mid-pair does not count as two cores.
    let mut readings = vec![measured_parallelism()];
    let speedups: Vec<f64> = (0..15)
        .map(|_| {
            let par_s = secs(|| run_fleet(&seeds, cores));
            let speedup = secs(|| run_fleet(&seeds, 1)) / par_s;
            readings.push(measured_parallelism());
            speedup
        })
        .collect();
    let speedup_4t = median_4t.map_or(1.0, |m| reports[0].median_ns / m);
    if cores >= 4 {
        assert!(
            speedup_4t >= 3.0,
            "4-thread fleet must buy >= 3x on a >= 4-core box, got {speedup_4t:.2}x"
        );
    }
    reports.push(r_par);
    let summary = FleetSummary {
        speedup: median(speedups),
        speedup_4t,
        parallelism: median(readings.windows(2).map(|w| w[0].min(w[1])).collect()),
        cores,
    };
    (reports, summary)
}

fn main() {
    let opts = BenchOptions::from_args(std::env::args().skip(1));

    let (sweep_reports, skip_speedup) = bench_alignment_sweep(&opts);
    for r in &sweep_reports {
        println!("{}", r.json_line());
    }
    println!("{{\"name\":\"sweep_skip_speedup\",\"speedup\":{skip_speedup:.2},\"threshold\":2.0}}");

    let (fleet_reports, fleet) = bench_session_fleet(&opts);
    for r in &fleet_reports {
        println!("{}", r.json_line());
    }
    // `threads` is the parallelism two threads measurably got, rounded:
    // a `threads: 1` line is an honest "this box could not demonstrate
    // the fan-out during this run", which the ratchet skips explicitly.
    println!(
        "{{\"name\":\"fleet_speedup\",\"speedup\":{:.2},\"threads\":{},\"cores\":{},\
         \"parallelism\":{:.2},\"byte_identical\":true}}",
        fleet.speedup,
        f64_to_usize(fleet.parallelism.round()),
        fleet.cores,
        fleet.parallelism,
    );
    // The 4-thread rung of the ladder, pinned separately: `threads` is
    // the rung actually timed (capped by the hardware), so the ratchet's
    // `skip_below_threads = 4` skips this pin on smaller boxes instead
    // of passing a vacuous 1.0.
    println!(
        "{{\"name\":\"fleet_speedup_4t\",\"speedup\":{:.2},\
         \"threads\":{},\"cores\":{},\"byte_identical\":true}}",
        fleet.speedup_4t,
        fleet.cores.min(4),
        fleet.cores,
    );
}
