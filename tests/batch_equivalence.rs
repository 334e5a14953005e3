//! Batched vs scalar evaluation must be **bit-identical**.
//!
//! The batched sweep engine (SoA gain kernels, `GainPage` codebook
//! pages, `LinkBatch` tap rows, the hoisted `ToneMeter`) is a pure
//! restructuring of the scalar sweep it replaced, which queried each
//! antenna pattern once per traced path per probe. These tests pin that
//! promise on the paper setup for the three load-bearing sweeps —
//! `estimate_incidence`, `estimate_reflection`, and the `opt_nlos`
//! baseline — by re-running each against a scalar reference built on
//! `TracedLink::evaluate`, with its own copy of the tone-probe formula
//! and of the relay cascade. (The scalar generation also memoized its
//! gain queries; a memo replays the exact `f64` it stored, so the
//! references query the patterns directly.)

use movr::alignment::{
    estimate_incidence, estimate_reflection, AlignmentConfig, SweepParams,
};
use movr::baselines::opt_nlos;
use movr::gain_control::{run_gain_control, GainControlConfig};
use movr::reflector::MovrReflector;
use movr_math::db::sum_dbm;
use movr_math::{wrap_deg_180, SimRng, Vec2};
use movr_phased_array::{Codebook, PatternTable};
use movr_radio::{ArrayPattern, RadioEndpoint, ToneProbe};
use movr_rfsim::{NoiseModel, Scene};

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
/// a pre-steered AP table, evaluating both legs of each (θ₁, θ₂) round
/// trip one pattern query per path.
fn memoized_incidence(
    scene: &Scene,
    ap: &RadioEndpoint,
    mut reflector: MovrReflector,
    config: &AlignmentConfig,
    rng: &mut SimRng,
) -> (f64, f64, f64) {
    reflector.set_gain_db(config.probe_gain_db);
    reflector.set_modulating(config.modulated);
    let forward = scene.trace_link(ap.position(), reflector.position());
    let back = scene.trace_link(reflector.position(), ap.position());
    let ap_table = PatternTable::new(ap.array(), &config.ap_codebook);

    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    for &theta1 in config.reflector_codebook.beams() {
        reflector.steer_both(theta1);
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
            if reading > best.0 {
                best = (reading, theta1, theta2);
            }
        }
    }
    best
}

#[test]
fn batched_incidence_sweep_is_bit_identical_to_memoized_scalar() {
    let scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 5);
    let truth_refl = reflector.position().bearing_deg_to(ap.position());
    let truth_ap = ap.position().bearing_deg_to(reflector.position());
    // 21×21 keeps the double sweep fast; the bench runs the 101×101
    // version of this same comparison.
    let cfg = AlignmentConfig {
        ap_codebook: Codebook::sweep(truth_ap - 10.0, truth_ap + 10.0, 1.0),
        reflector_codebook: Codebook::sweep(truth_refl - 10.0, truth_refl + 10.0, 1.0),
        ..Default::default()
    };

    for modulated in [true, false] {
        let cfg = AlignmentConfig { modulated, ..cfg.clone() };
        let mut rng_b = SimRng::seed_from_u64(42);
        let batched = estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng_b);
        let mut rng_s = SimRng::seed_from_u64(42);
        let (peak, t1, t2) = memoized_incidence(&scene, &ap, reflector.clone(), &cfg, &mut rng_s);

        assert_eq!(batched.peak_power_dbm.to_bits(), peak.to_bits());
        assert_eq!(batched.reflector_angle_deg.to_bits(), t1.to_bits());
        assert_eq!(batched.ap_angle_deg.to_bits(), t2.to_bits());
        // Same number of RNG draws: the next sample from each matches.
        assert_eq!(rng_b.uniform(0.0, 1.0).to_bits(), rng_s.uniform(0.0, 1.0).to_bits());
    }
}

/// Scalar reference for the `estimate_reflection` core: the reflector's
/// RX beam stays put, its TX beam sweeps the codebook (with the §4.2
/// gain loop re-run per candidate), and the headset reports a noisy SNR
/// per receive beam. Each probe evaluates both hops one pattern query
/// per path and applies the amplify-and-forward cascade itself: hop-1
/// SNR against the reflector's low-noise front end, end SNR the minimum
/// of the two hops, −∞ when the amplifier is off or saturated.
fn memoized_reflection(
    scene: &Scene,
    ap: &RadioEndpoint,
    mut reflector: MovrReflector,
    headset: &RadioEndpoint,
    sweep: &SweepParams<'_>,
    rng: &mut SimRng,
) -> (f64, f64, f64) {
    reflector.set_modulating(false);
    let snr_sigma_db = 0.5;
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
    for &tx_deg in sweep.tx_codebook.beams() {
        reflector.steer_tx(tx_deg);
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
            let reported = end_snr_db + rng.normal(0.0, snr_sigma_db);
            if reported > best.0 {
                best = (reported, tx_deg, rx_deg);
            }
        }
    }
    best
}

#[test]
fn batched_reflection_sweep_is_bit_identical_to_memoized_scalar() {
    let scene = Scene::paper_office();
    let mut ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 7);
    let hs_pos = Vec2::new(3.5, 1.5);
    let headset = RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(reflector.position()));
    ap.steer_toward(reflector.position());
    reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));

    let to_hs = reflector.position().bearing_deg_to(hs_pos);
    let hs_bore = headset.array().boresight_deg();
    let tx_codebook = Codebook::sweep(to_hs - 10.0, to_hs + 10.0, 2.0);
    let headset_codebook = Codebook::sweep(hs_bore - 10.0, hs_bore + 10.0, 2.0);
    let config = AlignmentConfig::default();
    let sweep = SweepParams {
        tx_codebook: &tx_codebook,
        headset_codebook: &headset_codebook,
        config: &config,
    };

    let mut rng_b = SimRng::seed_from_u64(7);
    let batched =
        estimate_reflection(&scene, &ap, reflector.clone(), headset, &sweep, &mut rng_b);
    let mut rng_s = SimRng::seed_from_u64(7);
    let (peak, tx, rx) =
        memoized_reflection(&scene, &ap, reflector, &headset, &sweep, &mut rng_s);

    assert_eq!(batched.peak_snr_db.to_bits(), peak.to_bits());
    assert_eq!(batched.tx_angle_deg.to_bits(), tx.to_bits());
    assert_eq!(batched.headset_angle_deg.to_bits(), rx.to_bits());
    assert_eq!(rng_b.uniform(0.0, 1.0).to_bits(), rng_s.uniform(0.0, 1.0).to_bits());
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
