//! Batched vs scalar evaluation must be **bit-identical**.
//!
//! The batched sweep engine (`GainPage` codebook pages, `LinkBatch` tap
//! rows, the hoisted `ToneMeter`) is a pure restructuring of the scalar
//! sweep it replaced, which queried each antenna pattern once per traced
//! path per probe. These tests pin that
//! promise for the three load-bearing sweeps — `estimate_incidence`,
//! `estimate_reflection`, and the `opt_nlos` baseline — by re-running
//! each against a scalar reference built on `TracedLink::evaluate`, with
//! its own copy of the tone-probe formula and of the relay cascade. (The
//! scalar generation also memoized its gain queries; a memo replays the
//! exact `f64` it stored, so the references query the patterns
//! directly.)
//!
//! An alignment sweep skips every probe whose reading bound falls below a
//! lower bound on its best reading, and the scalar reference reads every
//! probe. So the two alignment tests run each case both ways over seeded
//! mounts and headset poses, codebook windows that are centred on the
//! truth, fixed off the truth's grid, or miss the reflector, jitter on
//! and off, both tone meters, the amplifier off, and a probe gain that
//! saturates some postures, plus the paper's full 101×101 windows on the
//! paper's mount. Both must agree on the result's bits, the measurement
//! count, the elapsed time and the next RNG draw. The incidence sweep
//! reads both of the reflector's posture rows from one page, since its
//! two arrays share one mount; a separate test checks that page against
//! each steered array.

use movr::alignment::{
    estimate_incidence, estimate_reflection, AlignmentConfig, SweepParams, PROBE_DWELL,
};
use movr::baselines::opt_nlos;
use movr::gain_control::{run_gain_control, GainControlConfig};
use movr::reflector::MovrReflector;
use movr::system::PAPER_DEVICE_SEED;
use movr_control::BLE_LATENCY;
use movr_math::db::sum_dbm;
use movr_math::{wrap_deg_180, SimRng, Vec2};
use movr_phased_array::{Codebook, PatternTable};
use movr_radio::{ArrayPattern, RadioEndpoint, ToneProbe, SNR_REPORT_SIGMA_DB};
use movr_rfsim::{NoiseModel, Scene};
use movr_sim::SimTime;

/// What a sweep reports, compared bit for bit: the peak and both angles,
/// the measurement count, the elapsed nanoseconds, and the caller's next
/// RNG draw.
type Outcome = ([u64; 3], usize, u64, u64);

fn outcome(best: (f64, f64, f64), measurements: usize, elapsed: SimTime, rng: &mut SimRng) -> Outcome {
    (
        [best.0.to_bits(), best.1.to_bits(), best.2.to_bits()],
        measurements,
        elapsed.as_nanos(),
        rng.next_u64(),
    )
}

/// The AP of the paper's deployment.
fn paper_ap() -> RadioEndpoint {
    RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0)
}

/// The paper's mount, then seeded mounts on the north wall facing the
/// play area, as perfbench's `align` workload draws them.
fn mounts() -> Vec<MovrReflector> {
    let mut mounts = vec![MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 5)];
    for seed in 1..3 {
        let mut r = SimRng::seed_from_u64(seed);
        let pos = Vec2::new(r.uniform(0.8, 3.5), 4.75);
        let bore = pos.bearing_deg_to(Vec2::new(1.8, 2.2)) + r.uniform(-10.0, 10.0);
        mounts.push(MovrReflector::wall_mounted(pos, bore, r.next_u64()));
    }
    mounts
}

/// Three 21-beam windows: centred on `truth_deg` at 1°, 2° steps from
/// `fixed_start_deg` (which callers set off the truth's grid), and 5°
/// steps around `away_deg` (behind the reflector's ground plane, or away
/// from the reflector).
fn windows(truth_deg: f64, fixed_start_deg: f64, away_deg: f64) -> [(&'static str, Codebook); 3] {
    [
        ("centred", Codebook::sweep(truth_deg - 10.0, truth_deg + 10.0, 1.0)),
        ("fixed", Codebook::sweep(fixed_start_deg, fixed_start_deg + 40.0, 2.0)),
        ("missing", Codebook::sweep(away_deg - 50.0, away_deg + 50.0, 5.0)),
    ]
}

/// One sideband reading computed whole per call: the reflection (after
/// conversion loss when modulated), the AP leakage (filtered when
/// modulated, in-band otherwise) and the noise floor summed in watts,
/// plus the jitter draw.
fn tone_reading(
    probe: &ToneProbe,
    modulated: bool,
    reflected_dbm: f64,
    tx_power_dbm: f64,
    rng: &mut SimRng,
) -> f64 {
    let (signal, leak) = if modulated {
        (
            reflected_dbm - probe.modulation_loss_db,
            probe.ap_leakage_dbm(tx_power_dbm) - probe.filter_rejection_db,
        )
    } else {
        (reflected_dbm, probe.ap_leakage_dbm(tx_power_dbm))
    };
    sum_dbm(&[signal, leak, probe.noise_floor_dbm]) + rng.normal(0.0, probe.sigma_db)
}

/// Scalar reference for the `estimate_incidence` core: traced links and
/// a pre-steered AP table, evaluating both legs of every (θ₁, θ₂) round
/// trip one pattern query per path, and taking every reading.
fn memoized_incidence(
    scene: &Scene,
    ap: &RadioEndpoint,
    mut reflector: MovrReflector,
    config: &AlignmentConfig,
    rng: &mut SimRng,
) -> Outcome {
    reflector.set_gain_db(config.probe_gain_db);
    reflector.set_modulating(config.modulated);
    let forward = scene.trace_link(ap.position(), reflector.position());
    let back = scene.trace_link(reflector.position(), ap.position());
    let ap_table = PatternTable::new(ap.array(), &config.ap_codebook);

    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    let (mut measurements, mut elapsed) = (0, SimTime::ZERO);
    for &theta1 in config.reflector_codebook.beams() {
        reflector.steer_both(theta1);
        elapsed += BLE_LATENCY;
        let relay_gain_db = reflector.effective_gain_db();
        let rx_pattern = ArrayPattern(reflector.rx_array());
        let tx_pattern = ArrayPattern(reflector.tx_array());
        for (theta2, ap_array) in ap_table.entries() {
            let ap_pattern = ArrayPattern(ap_array);
            let reflected = relay_gain_db.map_or(f64::NEG_INFINITY, |gain_db| {
                let hop1 = forward.evaluate(&ap_pattern, ap.tx_power_dbm(), &rx_pattern);
                back.evaluate(&tx_pattern, hop1.received_dbm + gain_db, &ap_pattern)
                    .received_dbm
            });
            let reading =
                tone_reading(&config.probe, config.modulated, reflected, ap.tx_power_dbm(), rng);
            measurements += 1;
            elapsed += PROBE_DWELL;
            if reading > best.0 {
                best = (reading, theta1, theta2);
            }
        }
    }
    outcome(best, measurements, elapsed, rng)
}

/// One incidence case run both ways, the sweep and the scalar
/// reference, each from RNG seed `seed`.
fn incidence_both_ways(
    scene: &Scene,
    reflector: &MovrReflector,
    cfg: &AlignmentConfig,
    seed: u64,
) -> [Outcome; 2] {
    let ap = paper_ap();
    let mut rng = SimRng::seed_from_u64(seed);
    let r = estimate_incidence(scene, ap, reflector.clone(), cfg, &mut rng);
    let swept = outcome(
        (r.peak_power_dbm, r.reflector_angle_deg, r.ap_angle_deg),
        r.measurements,
        r.elapsed,
        &mut rng,
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let scalar = memoized_incidence(scene, &ap, reflector.clone(), cfg, &mut rng);
    [swept, scalar]
}

#[test]
fn batched_incidence_sweep_is_bit_identical_to_memoized_scalar() {
    let scene = Scene::paper_office();
    let ap = paper_ap();
    let mut seed = 42;
    for (m, reflector) in mounts().iter().enumerate() {
        let truth_refl = reflector.position().bearing_deg_to(ap.position());
        let truth_ap = ap.position().bearing_deg_to(reflector.position());
        // 21×21 windows keep the case sweep fast; the paper's 101×101
        // windows run once each below. The fixed windows hold the paper
        // mount's truth off their 2° grid; the missing reflector window
        // points behind its ground plane.
        let refl_windows = windows(truth_refl, -125.3, reflector.rx_array().boresight_deg() + 180.0);
        let ap_windows = windows(truth_ap, 57.7, truth_ap);
        for ((name, refl_cb), (_, ap_cb)) in refl_windows.into_iter().zip(ap_windows) {
            for (sigma_db, modulated) in [(0.5, true), (0.0, true), (0.5, false), (0.0, false)] {
                let cfg = AlignmentConfig {
                    ap_codebook: ap_cb.clone(),
                    reflector_codebook: refl_cb.clone(),
                    probe: ToneProbe {
                        sigma_db,
                        ..ToneProbe::default()
                    },
                    modulated,
                    ..AlignmentConfig::default()
                };
                let [swept, scalar] = incidence_both_ways(&scene, reflector, &cfg, seed);
                let case = format!("mount {m}, {name} window, σ {sigma_db}, modulated {modulated}");
                assert_eq!(swept, scalar, "{case}");
                seed += 1;
            }
        }
    }

    // The amplifier off (every posture's relay gain is `None`), and a
    // probe gain at the amplifier's maximum, which saturates some of the
    // centred window's postures but not all.
    let reflector = &mounts()[0];
    let truth_refl = reflector.position().bearing_deg_to(ap.position());
    let truth_ap = ap.position().bearing_deg_to(reflector.position());
    let centred = AlignmentConfig {
        ap_codebook: windows(truth_ap, 0.0, 0.0)[0].1.clone(),
        reflector_codebook: windows(truth_refl, 0.0, 0.0)[0].1.clone(),
        ..AlignmentConfig::default()
    };
    let mut off = reflector.clone();
    off.set_amplifier_enabled(false);
    let [swept, scalar] = incidence_both_ways(&scene, &off, &centred, 7);
    assert_eq!(swept, scalar, "amplifier off");

    let saturating = AlignmentConfig {
        probe_gain_db: reflector.amplifier().max_gain_db,
        ..centred
    };
    let mut probe = reflector.clone();
    probe.set_gain_db(saturating.probe_gain_db);
    let saturated = saturating
        .reflector_codebook
        .beams()
        .iter()
        .filter(|&&theta1| {
            probe.steer_both(theta1);
            probe.is_saturated()
        })
        .count();
    assert!(
        saturated > 0 && saturated < saturating.reflector_codebook.len(),
        "{saturated} saturated postures"
    );
    for seed in 8..11 {
        let [swept, scalar] = incidence_both_ways(&scene, reflector, &saturating, seed);
        assert_eq!(swept, scalar, "saturating probe gain, seed {seed}");
    }

    // The paper's full 101×101 sweep at 1° on the paper's mount and
    // device (`mounts()[0]` uses device seed 5, so it is not this one).
    // The default 40°–140° windows point the reflector behind its ground
    // plane, so no probe can be skipped; fixed windows that hold both
    // true bearings off centre let the sweep skip nearly every probe.
    let paper = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, PAPER_DEVICE_SEED);
    let visible = AlignmentConfig {
        reflector_codebook: Codebook::sweep(-150.0, -50.0, 1.0),
        ap_codebook: Codebook::sweep(30.0, 130.0, 1.0),
        ..AlignmentConfig::default()
    };
    for (name, cfg) in [("default", AlignmentConfig::default()), ("visible", visible)] {
        let [swept, scalar] = incidence_both_ways(&scene, &paper, &cfg, 7);
        assert_eq!(scalar.1, 101 * 101, "{name} window");
        assert_eq!(swept, scalar, "paper mount, {name} 101×101 window");
    }
}

/// The incidence sweep reads each posture's two gain rows as column
/// ranges of one page over the forward arrivals and the back departures,
/// filled from a table on the receive array: a reflector's two arrays
/// share one mount, so the table's entries are the transmit array's too.
/// The rows must be those that steering the reflector and querying each
/// array gives.
#[test]
fn shared_reflector_page_matches_both_steered_arrays() {
    let scene = Scene::paper_office();
    let ap = paper_ap();
    let wall = mounts().swap_remove(0);
    let truth = wall.position().bearing_deg_to(ap.position());
    let fwd = scene.trace_link(ap.position(), wall.position()).batch();
    let bck = scene.trace_link(wall.position(), ap.position()).batch();
    // A window that runs past the scan edge at one end, so rows clamp.
    let codebook = Codebook::sweep(truth - 50.0, truth + 50.0, 1.0);
    let rx = PatternTable::new(wall.rx_array(), &codebook);
    let both: Vec<f64> = fwd
        .arrival_deg()
        .iter()
        .chain(bck.departure_deg())
        .copied()
        .collect();
    let page = rx.fill_page(&both);
    let split = fwd.arrival_deg().len();
    let bits = |row: &[f64]| row.iter().map(|g| g.to_bits()).collect::<Vec<u64>>();
    let mut steered = wall.clone();
    for (i, &theta1) in codebook.beams().iter().enumerate() {
        steered.steer_both(theta1);
        let rx_row = steered.rx_array().gain_dbi_batch(fwd.arrival_deg());
        let tx_row = steered.tx_array().gain_dbi_batch(bck.departure_deg());
        assert_eq!(
            bits(&page.row(i)[..split]),
            bits(&rx_row),
            "rx row at θ₁ {theta1}"
        );
        assert_eq!(
            bits(&page.row(i)[split..]),
            bits(&tx_row),
            "tx row at θ₁ {theta1}"
        );
    }
}

/// Scalar reference for the `estimate_reflection` core: the reflector's
/// RX beam stays put, its TX beam sweeps the codebook (with the §4.2
/// gain loop re-run per candidate), and the headset reports a noisy SNR
/// per receive beam. Each probe evaluates both hops one pattern query
/// per path and applies the amplify-and-forward cascade itself: hop-1
/// SNR against the reflector's low-noise front end, end SNR the minimum
/// of the two hops, −∞ when the amplifier is off or saturated. Every
/// report is taken.
fn memoized_reflection(
    scene: &Scene,
    ap: &RadioEndpoint,
    mut reflector: MovrReflector,
    headset: &RadioEndpoint,
    sweep: &SweepParams<'_>,
    rng: &mut SimRng,
) -> Outcome {
    reflector.set_modulating(false);
    let front_end = NoiseModel {
        bandwidth_hz: scene.noise().bandwidth_hz,
        noise_figure_db: 4.0,
        implementation_loss_db: 0.0,
        temperature_k: scene.noise().temperature_k,
    };
    let hop1 = scene.trace_link(ap.position(), reflector.position());
    let hop2 = scene.trace_link(reflector.position(), headset.position());
    let hs_table = PatternTable::new(headset.array(), sweep.headset_codebook);
    let ap_pattern = ArrayPattern(ap.array());

    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    let (mut measurements, mut elapsed) = (0, SimTime::ZERO);
    for &tx_deg in sweep.tx_codebook.beams() {
        reflector.steer_tx(tx_deg);
        elapsed += BLE_LATENCY;
        run_gain_control(&mut reflector, &GainControlConfig::default());
        let rx_pattern = ArrayPattern(reflector.rx_array());
        let tx_pattern = ArrayPattern(reflector.tx_array());
        for (rx_deg, hs_array) in hs_table.entries() {
            let hop1_eval = hop1.evaluate(&ap_pattern, ap.tx_power_dbm(), &rx_pattern);
            let hop1_snr_db = front_end.snr_db(hop1_eval.received_dbm);
            let end_snr_db = reflector.effective_gain_db().map_or(f64::NEG_INFINITY, |gain_db| {
                let out_dbm = hop1_eval.received_dbm + gain_db;
                let hop2_eval = hop2.evaluate(&tx_pattern, out_dbm, &ArrayPattern(hs_array));
                hop1_snr_db.min(hop2_eval.snr_db)
            });
            let reported = end_snr_db + rng.normal(0.0, SNR_REPORT_SIGMA_DB);
            measurements += 1;
            elapsed += PROBE_DWELL;
            if reported > best.0 {
                best = (reported, tx_deg, rx_deg);
            }
        }
    }
    outcome(best, measurements, elapsed, rng)
}

#[test]
fn batched_reflection_sweep_is_bit_identical_to_memoized_scalar() {
    let scene = Scene::paper_office();
    let mut ap = paper_ap();
    let config = AlignmentConfig::default();
    let mut seed = 7;
    for (m, mount) in mounts().iter().enumerate() {
        // Incidence already known: AP and reflector RX aimed at each other.
        let mut reflector = mount.clone();
        ap.steer_toward(reflector.position());
        reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));
        let mut poses = SimRng::seed_from_u64(100 + seed);
        for _ in 0..2 {
            let hs_pos = Vec2::new(poses.uniform(2.0, 4.5), poses.uniform(0.5, 3.5));
            let headset = RadioEndpoint::paper_radio(
                hs_pos,
                hs_pos.bearing_deg_to(reflector.position()) + poses.uniform(-20.0, 20.0),
            );
            let to_hs = reflector.position().bearing_deg_to(hs_pos);
            let to_reflector = hs_pos.bearing_deg_to(reflector.position());
            // 11×11 windows: the TX window misses the headset behind the
            // reflector's ground plane, the headset's points away from
            // the reflector.
            let tx_windows = windows(to_hs, -135.3, reflector.tx_array().boresight_deg() + 180.0);
            let hs_windows = windows(to_reflector, to_reflector - 27.7, to_reflector + 180.0);
            let thin = |cb: &Codebook| Codebook::from_beams(cb.beams().iter().step_by(2).copied().collect());
            for ((name, tx_cb), (_, hs_cb)) in tx_windows.into_iter().zip(hs_windows) {
                let (tx_codebook, headset_codebook) = (thin(&tx_cb), thin(&hs_cb));
                let sweep = SweepParams {
                    tx_codebook: &tx_codebook,
                    headset_codebook: &headset_codebook,
                    config: &config,
                };
                let case = format!("mount {m}, headset at {hs_pos:?}, {name} windows");
                let [swept, scalar] =
                    reflection_both_ways(&scene, &ap, &reflector, &headset, &sweep, seed);
                assert_eq!(swept, scalar, "{case}");
                seed += 1;
            }
        }
    }

    // The amplifier off: every end SNR is −∞.
    let mut reflector = mounts()[0].clone();
    ap.steer_toward(reflector.position());
    reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));
    reflector.set_amplifier_enabled(false);
    let hs_pos = Vec2::new(3.5, 1.5);
    let headset = RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(reflector.position()));
    let to_hs = reflector.position().bearing_deg_to(hs_pos);
    let tx_codebook = Codebook::sweep(to_hs - 10.0, to_hs + 10.0, 2.0);
    let headset_codebook = Codebook::sweep(-10.0, 10.0, 2.0);
    let sweep = SweepParams {
        tx_codebook: &tx_codebook,
        headset_codebook: &headset_codebook,
        config: &config,
    };
    let [swept, scalar] = reflection_both_ways(&scene, &ap, &reflector, &headset, &sweep, 3);
    assert_eq!(swept, scalar, "amplifier off");
}

/// One reflection case run both ways, the sweep and the scalar
/// reference, each from RNG seed `seed`.
fn reflection_both_ways(
    scene: &Scene,
    ap: &RadioEndpoint,
    reflector: &MovrReflector,
    headset: &RadioEndpoint,
    sweep: &SweepParams<'_>,
    seed: u64,
) -> [Outcome; 2] {
    let mut rng = SimRng::seed_from_u64(seed);
    let r = estimate_reflection(scene, ap, reflector.clone(), *headset, sweep, &mut rng);
    let swept = outcome(
        (r.peak_snr_db, r.tx_angle_deg, r.headset_angle_deg),
        r.measurements,
        r.elapsed,
        &mut rng,
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let scalar = memoized_reflection(scene, ap, reflector.clone(), headset, sweep, &mut rng);
    [swept, scalar]
}

#[test]
fn batched_opt_nlos_is_bit_identical_to_memoized_scalar() {
    use movr_rfsim::{BodyPart, Obstacle};

    let mut scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let hs_pos = Vec2::new(3.5, 1.5);
    let headset = RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(ap.position()));
    scene.add_obstacle(Obstacle::new(
        BodyPart::Torso,
        ap.position().lerp(hs_pos, 0.55),
    ));
    let hs_bore = headset.array().boresight_deg();
    let ap_codebook = Codebook::sweep(-50.0, 90.0, 4.0);
    let hs_codebook = Codebook::sweep(hs_bore - 50.0, hs_bore + 50.0, 4.0);
    let exclude_cone_deg = 7.0;

    let batched = opt_nlos(&scene, &ap, &headset, &ap_codebook, &hs_codebook, exclude_cone_deg);

    // Scalar reference for the search: pre-steered tables, each
    // candidate pair evaluated through the traced link one pattern
    // query per path.
    let direct_ap = ap.position().bearing_deg_to(hs_pos);
    let direct_hs = hs_pos.bearing_deg_to(ap.position());
    let link = scene.trace_link(ap.position(), hs_pos);
    let ap_table = PatternTable::new(ap.array(), &ap_codebook);
    let hs_table = PatternTable::new(headset.array(), &hs_codebook);

    let mut best = (f64::NEG_INFINITY, direct_ap, direct_hs);
    let mut combinations = 0usize;
    for (a, ap_array) in ap_table.entries() {
        let ap_is_direct = wrap_deg_180(a - direct_ap).abs() <= exclude_cone_deg;
        for (h, hs_array) in hs_table.entries() {
            let hs_is_direct = wrap_deg_180(h - direct_hs).abs() <= exclude_cone_deg;
            if ap_is_direct && hs_is_direct {
                continue;
            }
            combinations += 1;
            let snr = link
                .evaluate(&ArrayPattern(ap_array), ap.tx_power_dbm(), &ArrayPattern(hs_array))
                .snr_db;
            if snr > best.0 {
                best = (snr, a, h);
            }
        }
    }

    assert_eq!(batched.snr_db.to_bits(), best.0.to_bits());
    assert_eq!(batched.ap_deg.to_bits(), best.1.to_bits());
    assert_eq!(batched.headset_deg.to_bits(), best.2.to_bits());
    assert_eq!(batched.combinations, combinations);
}
