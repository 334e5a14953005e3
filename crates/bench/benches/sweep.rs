//! Sweep-rate benches: the §4.1 alignment sweep across three engine
//! generations (seed-era uncached, memoized scalar, batched SoA), the
//! batched sweep on a window that can see its reflector, and a
//! multi-seed session fleet on the persistent worker pool with an
//! explicit thread-scaling ladder.
//!
//! Only the batched generation is library code. The other two are
//! frozen replicas kept here as timing baselines: each repeats its
//! generation's per-probe work with private copies of what the library
//! no longer ships — the gain memo, the scalar round trip with its
//! per-call path taps, and the per-call tone reading — so the speedups
//! keep measuring the same ratios.
//!
//! The paper's default 40°–140° reflector window points the bench's
//! −70° mount behind its ground plane: every probe reads the −94.6 dBm
//! background of leakage and floor plus jitter (the "peak" is −92.9
//! dBm), so the batched sweep can skip no probe. That row is the skip
//! test's worst case. The second batched row sweeps fixed 1° windows
//! that contain the true bearings off centre (reflector −150°…−50°, AP
//! 30°…130°), where nearly every probe provably reads below the peak.
//!
//! Three claims are *asserted*, not just timed:
//!
//! * the batched full 101×101 incidence sweep is **bit-identical** to
//!   both the memoized-scalar reference and the seed-era uncached
//!   reference (re-trace + steering-vector rebuild per probe), and on
//!   the visible window to the memoized reference;
//! * the memoized path is at least 5× faster than uncached, and the
//!   batched path at least 2.5× faster again than memoized on the
//!   default window, where it skips nothing (it measures ≈3.3× here;
//!   the gate sits below the measurement because the two paths share a
//!   bit-pinned per-probe `powf` stream that bounds the ratio near 4×
//!   when every probe is read, and a loaded single-core box compresses
//!   it further — see DESIGN.md § "Performance, round 2");
//! * the parallel session fleet is **byte-identical** to the same fleet
//!   on one thread, at every probed thread count.
//!
//! `sweep_skip_speedup`, the default row's median over the visible
//! row's, is gated by the ratchet (`bench-baseline.toml`), not here.
//!
//! Runs on the in-tree `movr-testkit` runner: one JSON line per bench
//! plus `sweep_speedup` / `batch_speedup` / `sweep_skip_speedup` /
//! `fleet_speedup` / `fleet_speedup_4t` summary lines. Invoke with
//! `cargo bench -p movr-bench --bench sweep` (full) or
//! `... -- --quick` (smoke profile; CI writes this to
//! `out/BENCH_sweep.json`).

use movr::alignment::{estimate_incidence, AlignmentConfig};
use movr::reflector::MovrReflector;
use movr::session::{run_session, SessionConfig, Strategy};
use movr_math::db::sum_dbm;
use movr_math::{linear_to_db, wrap_deg_180, SimRng, Vec2};
use movr_motion::RandomWalk;
use movr_phased_array::{Codebook, PatternTable, SteeredArray};
use movr_radio::{ArrayPattern, RadioEndpoint, ToneProbe};
use movr_rfsim::{Pattern, Room, Scene, TracedLink};
use movr_sim::{available_threads, pool_map};
use movr_testkit::{bench_with_setup, BenchOptions, BenchReport, Timer};
use std::cell::RefCell;

/// Seed-era pattern adapter: every gain query rebuilds the full
/// steering vector from the element geometry, exactly what
/// `SteeredArray::gain_dbi` did before the cache. Bit-identical to the
/// cached path (same float op order), so the uncached sweep below is a
/// faithful "before" both in cost and in output.
struct UncachedPattern<'a>(&'a SteeredArray);

impl Pattern for UncachedPattern<'_> {
    fn gain_dbi(&self, direction_deg: f64) -> f64 {
        let local = wrap_deg_180(direction_deg - self.0.boresight_deg());
        self.0.array().gain_dbi(self.0.steer_local_deg(), local)
    }
}

/// Seed-era round trip: re-traces both legs of the AP ↔ reflector loop
/// per call and rebuilds every steering vector per gain query.
fn uncached_round_trip(
    scene: &Scene,
    ap: &RadioEndpoint,
    reflector: &MovrReflector,
) -> Option<f64> {
    let ap_pat = UncachedPattern(ap.array());
    let hop1 = scene.link_budget(
        ap.position(),
        &ap_pat,
        ap.tx_power_dbm(),
        reflector.position(),
        &UncachedPattern(reflector.rx_array()),
    );
    let out_dbm = hop1.received_dbm + reflector.effective_gain_db()?;
    let hop2 = scene.link_budget(
        reflector.position(),
        &UncachedPattern(reflector.tx_array()),
        out_dbm,
        ap.position(),
        &ap_pat,
    );
    Some(hop2.received_dbm)
}

/// The per-call modulated tone reading both replica generations take per
/// probe: the three powers converted to watts and summed on every call,
/// then one jitter draw. Bit-identical to the library's hoisted
/// `ToneMeter`, at the old per-probe cost.
fn measure_modulated(
    probe: &ToneProbe,
    reflected_dbm: f64,
    tx_power_dbm: f64,
    rng: &mut SimRng,
) -> f64 {
    let sideband = reflected_dbm - probe.modulation_loss_db;
    let residual_leak = probe.ap_leakage_dbm(tx_power_dbm) - probe.filter_rejection_db;
    sum_dbm(&[sideband, residual_leak, probe.noise_floor_dbm]) + rng.normal(0.0, probe.sigma_db)
}

/// The full (θ₁ × θ₂) incidence sweep exactly as the seed evaluated it:
/// steer the live AP per candidate, re-trace per probe. Returns
/// `(peak_dbm, theta1, theta2)` — comparable bit-for-bit with
/// [`estimate_incidence`] on the same RNG seed.
fn uncached_incidence(
    scene: &Scene,
    mut ap: RadioEndpoint,
    mut reflector: MovrReflector,
    config: &AlignmentConfig,
    rng: &mut SimRng,
) -> (f64, f64, f64) {
    assert!(config.modulated, "reference implements the modulated protocol");
    reflector.set_gain_db(config.probe_gain_db);
    reflector.set_modulating(true);
    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    for &theta1 in config.reflector_codebook.beams() {
        reflector.steer_both(theta1);
        for &theta2 in config.ap_codebook.beams() {
            ap.steer_to(theta2);
            let reflected =
                uncached_round_trip(scene, &ap, &reflector).unwrap_or(f64::NEG_INFINITY);
            let reading = measure_modulated(&config.probe, reflected, ap.tx_power_dbm(), rng);
            if reading > best.0 {
                best = (reading, theta1, theta2);
            }
        }
    }
    best
}

/// Memoizes the gain queries of an inner pattern, as the memoized
/// generation did: a sweep with frozen path geometry queries the same
/// handful of bearings once per beam combination, so all but the first
/// query per bearing become a lookup in a linear-scanned table keyed by
/// the bearing's bit pattern. Replays the exact `f64` the inner pattern
/// produced.
struct MemoPattern<'a> {
    inner: &'a dyn Pattern,
    memo: RefCell<Vec<(u64, f64)>>,
}

impl<'a> MemoPattern<'a> {
    fn new(inner: &'a dyn Pattern) -> Self {
        MemoPattern {
            inner,
            memo: RefCell::new(Vec::new()),
        }
    }
}

impl Pattern for MemoPattern<'_> {
    fn gain_dbi(&self, direction_deg: f64) -> f64 {
        let key = direction_deg.to_bits();
        let mut memo = self.memo.borrow_mut();
        if let Some(&(_, gain)) = memo.iter().find(|&&(k, _)| k == key) {
            return gain;
        }
        let gain = self.inner.gain_dbi(direction_deg);
        memo.push((key, gain));
        gain
    }
}

/// The memoized generation's per-call link evaluation: one pattern
/// query per path and end, and every path's tap recomputed on every call
/// (`Channel::combined_gain`), as that generation did before traced
/// links stored their taps. Same fold, so same bits as
/// `TracedLink::evaluate`.
fn received_dbm_per_call(
    link: &TracedLink<'_>,
    tx_pattern: &dyn Pattern,
    tx_power_dbm: f64,
    rx_pattern: &dyn Pattern,
) -> f64 {
    let sum = link.scene().channel().combined_gain(
        link.paths(),
        |deg| tx_pattern.gain_dbi(deg),
        |deg| rx_pattern.gain_dbi(deg),
    );
    tx_power_dbm + linear_to_db(sum.norm_sq())
}

/// The memoized generation's scalar round trip over already-traced
/// legs: both legs reweighted one pattern query per path, the AP's
/// pattern on both ends.
fn round_trip_with(
    forward: &TracedLink<'_>,
    back: &TracedLink<'_>,
    ap_pattern: &dyn Pattern,
    ap_tx_power_dbm: f64,
    relay_gain_db: Option<f64>,
    relay_rx: &dyn Pattern,
    relay_tx: &dyn Pattern,
) -> Option<f64> {
    let hop1_dbm = received_dbm_per_call(forward, ap_pattern, ap_tx_power_dbm, relay_rx);
    let out_dbm = hop1_dbm + relay_gain_db?;
    Some(received_dbm_per_call(back, relay_tx, out_dbm, ap_pattern))
}

/// The memoized generation of the sweep: traced links, pre-steered
/// tables, and per-pattern gain memos, but still one scalar gain query,
/// one scalar round trip and one per-call tone reading per probe. This
/// is the "cached" row the batched engine is measured against.
fn memoized_incidence(
    scene: &Scene,
    ap: &RadioEndpoint,
    mut reflector: MovrReflector,
    config: &AlignmentConfig,
    rng: &mut SimRng,
) -> (f64, f64, f64) {
    assert!(config.modulated, "reference implements the modulated protocol");
    reflector.set_gain_db(config.probe_gain_db);
    reflector.set_modulating(true);
    let forward = scene.trace_link(ap.position(), reflector.position());
    let back = scene.trace_link(reflector.position(), ap.position());
    let ap_table = PatternTable::new(ap.array(), &config.ap_codebook);
    let ap_patterns: Vec<ArrayPattern<'_>> =
        ap_table.entries().map(|(_, arr)| ArrayPattern(arr)).collect();
    let ap_memos: Vec<MemoPattern<'_>> =
        ap_patterns.iter().map(|p| MemoPattern::new(p)).collect();
    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    for &theta1 in config.reflector_codebook.beams() {
        reflector.steer_both(theta1);
        let relay_gain_db = reflector.effective_gain_db();
        let rx_pattern = ArrayPattern(reflector.rx_array());
        let tx_pattern = ArrayPattern(reflector.tx_array());
        let rx_memo = MemoPattern::new(&rx_pattern);
        let tx_memo = MemoPattern::new(&tx_pattern);
        for ((theta2, _), ap_memo) in ap_table.entries().zip(&ap_memos) {
            let reflected = round_trip_with(
                &forward,
                &back,
                ap_memo,
                ap.tx_power_dbm(),
                relay_gain_db,
                &rx_memo,
                &tx_memo,
            )
            .unwrap_or(f64::NEG_INFINITY);
            let reading = measure_modulated(&config.probe, reflected, ap.tx_power_dbm(), rng);
            if reading > best.0 {
                best = (reading, theta1, theta2);
            }
        }
    }
    best
}

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

/// Batched vs memoized vs uncached full alignment sweep, plus the
/// batched sweep on the visible window. Asserts bit-identity across all
/// three generations first (the visible window against the memoized
/// one), then times them. Returns the rows and the `sweep_speedup`,
/// `batch_speedup` and `sweep_skip_speedup` ratios; `main` asserts the
/// first two.
fn bench_alignment_sweep(opts: &BenchOptions) -> (Vec<BenchReport>, f64, f64, f64) {
    let (scene, ap, reflector, cfg) = sweep_setup();
    let visible = visible_config();

    // Equivalence gate: same seed, same argmax, same peak power bits.
    let mut rng_b = SimRng::seed_from_u64(7);
    let batched = estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng_b);
    let mut rng_m = SimRng::seed_from_u64(7);
    let (m_peak, m_t1, m_t2) =
        memoized_incidence(&scene, &ap, reflector.clone(), &cfg, &mut rng_m);
    let mut rng_u = SimRng::seed_from_u64(7);
    let (peak, t1, t2) = uncached_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng_u);
    assert_eq!(
        batched.peak_power_dbm.to_bits(),
        m_peak.to_bits(),
        "batched sweep must be bit-identical to the memoized reference"
    );
    assert_eq!(batched.reflector_angle_deg, m_t1);
    assert_eq!(batched.ap_angle_deg, m_t2);
    assert_eq!(
        batched.peak_power_dbm.to_bits(),
        peak.to_bits(),
        "batched sweep must be bit-identical to the uncached reference"
    );
    assert_eq!(batched.reflector_angle_deg, t1);
    assert_eq!(batched.ap_angle_deg, t2);
    let mut rng_v = SimRng::seed_from_u64(7);
    let seen = estimate_incidence(&scene, ap, reflector.clone(), &visible, &mut rng_v);
    let mut rng_v = SimRng::seed_from_u64(7);
    let (v_peak, v_t1, v_t2) = memoized_incidence(&scene, &ap, reflector.clone(), &visible, &mut rng_v);
    assert_eq!(
        seen.peak_power_dbm.to_bits(),
        v_peak.to_bits(),
        "batched sweep on the visible window must be bit-identical to the memoized reference"
    );
    assert_eq!(seen.reflector_angle_deg, v_t1);
    assert_eq!(seen.ap_angle_deg, v_t2);

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
    let r_cached = bench_with_setup(
        "alignment_sweep_101x101_cached",
        opts,
        || SimRng::seed_from_u64(7),
        |mut rng| memoized_incidence(&scene, &ap, reflector.clone(), &cfg, &mut rng),
    );
    let r_uncached = bench_with_setup(
        "alignment_sweep_101x101_uncached",
        opts,
        || SimRng::seed_from_u64(7),
        |mut rng| uncached_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng),
    );
    let sweep_speedup = r_uncached.median_ns / r_cached.median_ns;
    // Paired ratios, not a ratio of the rows above: machine load
    // drifts on second scales, so dividing two independently-taken
    // aggregates mixes different load regimes and swings wildly for a
    // gap this size (the ≥ 5× uncached/cached gap shrugs it off).
    // Timing the two generations back-to-back inside each rep shows
    // both the same machine state; the median of per-rep ratios is
    // what the gate can rely on.
    let mut ratios: Vec<f64> = (0..7)
        .map(|_| {
            let mut rng = SimRng::seed_from_u64(7);
            let t = Timer::start();
            std::hint::black_box(estimate_incidence(
                &scene,
                ap,
                reflector.clone(),
                &cfg,
                &mut rng,
            ));
            let batched_s = t.elapsed_secs_f64();
            let mut rng = SimRng::seed_from_u64(7);
            let t = Timer::start();
            std::hint::black_box(memoized_incidence(&scene, &ap, reflector.clone(), &cfg, &mut rng));
            t.elapsed_secs_f64() / batched_s
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let batch_speedup = ratios[ratios.len() / 2];
    let skip_speedup = r_batched.median_ns / r_visible.median_ns;
    (
        vec![r_batched, r_visible, r_cached, r_uncached],
        sweep_speedup,
        batch_speedup,
        skip_speedup,
    )
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

/// Multi-seed session fleet on the persistent pool, sequential vs
/// fanned out. Asserts the parallel fleet is byte-identical to the
/// single-threaded one at every probed thread count, and — where the
/// machine has the cores — times an explicit 1/2/4/8-thread scaling
/// ladder so the recorded numbers say what parallelism actually bought
/// rather than implying a speedup a small box cannot show. Returns the
/// reports plus `(all-cores speedup, 4-thread speedup, cores)`; the
/// 4-thread figure is 1.0 (vacuous) below 4 cores, and the summary line
/// carries the real thread count so the ratchet can skip honestly.
fn bench_session_fleet(opts: &BenchOptions) -> (Vec<BenchReport>, f64, f64, usize) {
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

    let r_seq = bench_with_setup(
        "session_fleet_8x1s_1thread",
        opts,
        || (),
        |()| run_fleet(&seeds, 1),
    );
    let mut reports = vec![r_seq];
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
    let speedup = reports[0].median_ns / r_par.median_ns;
    let speedup_4t = median_4t.map_or(1.0, |m| reports[0].median_ns / m);
    if cores >= 4 {
        assert!(
            speedup_4t >= 3.0,
            "4-thread fleet must buy >= 3x on a >= 4-core box, got {speedup_4t:.2}x"
        );
    }
    reports.push(r_par);
    (reports, speedup, speedup_4t, cores)
}

fn main() {
    let opts = BenchOptions::from_args(std::env::args().skip(1));

    let (sweep_reports, sweep_speedup, batch_speedup, skip_speedup) = bench_alignment_sweep(&opts);
    for r in &sweep_reports {
        println!("{}", r.json_line());
    }
    println!(
        "{{\"name\":\"sweep_speedup\",\"speedup\":{sweep_speedup:.2},\"threshold\":5.0,\
         \"bit_identical\":true}}"
    );
    println!(
        "{{\"name\":\"batch_speedup\",\"speedup\":{batch_speedup:.2},\"threshold\":2.5,\
         \"bit_identical\":true}}"
    );
    println!(
        "{{\"name\":\"sweep_skip_speedup\",\"speedup\":{skip_speedup:.2},\"threshold\":2.0,\
         \"bit_identical\":true}}"
    );
    // Gate after the rows are out so a failing run still shows its data.
    assert!(
        sweep_speedup >= 5.0,
        "tracing once and memoizing must buy >= 5x on the full sweep, got {sweep_speedup:.2}x"
    );
    assert!(
        batch_speedup >= 2.5,
        "batch kernels must buy >= 2.5x over the memoized sweep, got {batch_speedup:.2}x"
    );

    let (fleet_reports, fleet_speedup, fleet_speedup_4t, cores) = bench_session_fleet(&opts);
    for r in &fleet_reports {
        println!("{}", r.json_line());
    }
    // `cores` is the detected parallelism the fleet actually ran on; a
    // `threads: 1` line is an honest "this box cannot demonstrate the
    // fan-out", which downstream ratchets must tolerate explicitly.
    println!(
        "{{\"name\":\"fleet_speedup\",\"speedup\":{fleet_speedup:.2},\"threads\":{cores},\
         \"cores\":{cores},\"byte_identical\":true}}"
    );
    // The 4-thread rung of the ladder, pinned separately: `threads` is
    // the rung actually timed (capped by the hardware), so the ratchet's
    // `skip_below_threads = 4` skips this pin on smaller boxes instead
    // of passing a vacuous 1.0.
    println!(
        "{{\"name\":\"fleet_speedup_4t\",\"speedup\":{fleet_speedup_4t:.2},\
         \"threads\":{threads},\"cores\":{cores},\"byte_identical\":true}}",
        threads = cores.min(4),
    );
}
