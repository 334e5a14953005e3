//! Traced-once vs re-traced evaluation must be **bit-identical**.
//!
//! Tracing a link once and reweighting it per query is a pure
//! restructuring: every entry point that takes traced hops promises the
//! same float-op order as re-tracing on every call. These tests pin that
//! promise on the paper setup for the three load-bearing evaluators —
//! `relay_link_on` (over hops traced directly and through a `LinkMemo`),
//! the backscatter round trip, and the full `estimate_incidence` sweep —
//! against references that re-trace per call through `Scene::link_budget`
//! and carry their own copy of the relay cascade and the tone-probe
//! formula.

use movr::alignment::{estimate_incidence, AlignmentConfig};
use movr::reflector::MovrReflector;
use movr::relay::{relay_link_on, round_trip_reflection_batched, RelayBudget};
use movr_math::db::sum_dbm;
use movr_math::{SimRng, Vec2};
use movr_phased_array::Codebook;
use movr_radio::{ArrayPattern, RadioEndpoint, ToneProbe};
use movr_rfsim::{BodyPart, LinkMemo, NoiseModel, Obstacle, Scene};

/// The canonical relay layout: AP mid-west wall, reflector on the north
/// wall, headset in the play area, beams aimed, gain safely below leak.
fn relay_setup() -> (Scene, RadioEndpoint, MovrReflector, RadioEndpoint) {
    let scene = Scene::paper_office();
    let mut ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 7);
    let hs_pos = Vec2::new(3.5, 1.5);
    let mut headset =
        RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(Vec2::new(1.0, 4.75)));
    ap.steer_toward(reflector.position());
    reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));
    reflector.steer_tx(reflector.position().bearing_deg_to(headset.position()));
    headset.steer_toward(reflector.position());
    reflector.set_gain_db(reflector.loop_attenuation_db() - 6.0);
    (scene, ap, reflector, headset)
}

/// Re-traced relay budget: each hop traced and evaluated per call, hop-1
/// SNR against the reflector's low-noise front end, end SNR the minimum
/// of the two hops, −∞ when the amplifier is off or saturated.
fn retraced_relay(
    scene: &Scene,
    ap: &RadioEndpoint,
    reflector: &MovrReflector,
    headset: &RadioEndpoint,
) -> RelayBudget {
    let front_end = NoiseModel {
        bandwidth_hz: scene.noise().bandwidth_hz,
        noise_figure_db: 4.0,
        implementation_loss_db: 0.0,
        temperature_k: scene.noise().temperature_k,
    };
    let hop1 = scene.link_budget(
        ap.position(),
        &ArrayPattern(ap.array()),
        ap.tx_power_dbm(),
        reflector.position(),
        &ArrayPattern(reflector.rx_array()),
    );
    let hop1_snr_db = front_end.snr_db(hop1.received_dbm);
    let out_dbm = reflector.effective_gain_db().map(|g| hop1.received_dbm + g);
    let (hop2_received_dbm, hop2_snr_db) = match out_dbm {
        Some(out_dbm) => {
            let hop2 = scene.link_budget(
                reflector.position(),
                &ArrayPattern(reflector.tx_array()),
                out_dbm,
                headset.position(),
                &ArrayPattern(headset.array()),
            );
            (hop2.received_dbm, hop2.snr_db)
        }
        None => (f64::NEG_INFINITY, f64::NEG_INFINITY),
    };
    RelayBudget {
        hop1_received_dbm: hop1.received_dbm,
        hop1_snr_db,
        relay_output_dbm: out_dbm,
        hop2_received_dbm,
        hop2_snr_db,
        end_snr_db: if out_dbm.is_some() {
            hop1_snr_db.min(hop2_snr_db)
        } else {
            f64::NEG_INFINITY
        },
        saturated: reflector.is_saturated(),
    }
}

/// Re-traced round trip: both legs of the AP ↔ reflector loop traced
/// and evaluated per call, the AP's array on both ends.
fn retraced_round_trip(
    scene: &Scene,
    ap: &RadioEndpoint,
    reflector: &MovrReflector,
) -> Option<f64> {
    let ap_pattern = ArrayPattern(ap.array());
    let hop1 = scene.link_budget(
        ap.position(),
        &ap_pattern,
        ap.tx_power_dbm(),
        reflector.position(),
        &ArrayPattern(reflector.rx_array()),
    );
    let out_dbm = hop1.received_dbm + reflector.effective_gain_db()?;
    let hop2 = scene.link_budget(
        reflector.position(),
        &ArrayPattern(reflector.tx_array()),
        out_dbm,
        ap.position(),
        &ap_pattern,
    );
    Some(hop2.received_dbm)
}

/// One modulated sideband reading, computed whole per call: reflection
/// after conversion loss, filtered leakage residual and noise floor
/// summed in watts, plus the jitter draw.
fn modulated_reading(
    probe: &ToneProbe,
    reflected_dbm: f64,
    tx_power_dbm: f64,
    rng: &mut SimRng,
) -> f64 {
    let sideband = reflected_dbm - probe.modulation_loss_db;
    let residual_leak = probe.ap_leakage_dbm(tx_power_dbm) - probe.filter_rejection_db;
    sum_dbm(&[sideband, residual_leak, probe.noise_floor_dbm]) + rng.normal(0.0, probe.sigma_db)
}

#[test]
fn relay_link_on_is_bit_identical_to_relay_link() {
    let (mut scene, ap, mut reflector, headset) = relay_setup();
    let mut memos = [LinkMemo::new(), LinkMemo::new()];
    // Exercise clear and obstructed geometry, then the amplifier off.
    let torso = Obstacle::new(BodyPart::Torso, Vec2::new(2.2, 2.2));
    for (obstacles, amp_on) in [(vec![], true), (vec![torso], true), (vec![torso], false)] {
        scene.set_obstacles(obstacles);
        reflector.set_amplifier_enabled(amp_on);
        let plain = retraced_relay(&scene, &ap, &reflector, &headset);
        let hop1 = scene.trace_link(ap.position(), reflector.position());
        let hop2 = scene.trace_link(reflector.position(), headset.position());
        let traced = relay_link_on(&hop1, &hop2, &ap, &reflector, headset.array());
        // Through memos: the first call of a geometry traces, the
        // second replays the remembered hops.
        let mut remembered = Vec::new();
        for _ in 0..2 {
            let [m1, m2] = &mut memos;
            let (hop1, _) = m1.trace(&scene, ap.position(), reflector.position());
            let (hop2, _) = m2.trace(&scene, reflector.position(), headset.position());
            remembered.push(relay_link_on(
                &hop1,
                &hop2,
                &ap,
                &reflector,
                headset.array(),
            ));
        }
        for cached in std::iter::once(traced).chain(remembered) {
            assert_eq!(
                plain.hop1_received_dbm.to_bits(),
                cached.hop1_received_dbm.to_bits()
            );
            assert_eq!(plain.hop1_snr_db.to_bits(), cached.hop1_snr_db.to_bits());
            assert_eq!(
                plain.relay_output_dbm.map(f64::to_bits),
                cached.relay_output_dbm.map(f64::to_bits)
            );
            assert_eq!(
                plain.hop2_received_dbm.to_bits(),
                cached.hop2_received_dbm.to_bits()
            );
            assert_eq!(plain.hop2_snr_db.to_bits(), cached.hop2_snr_db.to_bits());
            assert_eq!(plain.end_snr_db.to_bits(), cached.end_snr_db.to_bits());
            assert_eq!(plain.saturated, cached.saturated);
        }
    }
}

#[test]
fn round_trip_on_is_bit_identical_to_plain() {
    let (scene, ap, mut reflector, _hs) = relay_setup();
    let to_ap = reflector.position().bearing_deg_to(ap.position());
    // Traced once, as the alignment sweep does: both legs frozen into
    // batches, the AP's rows computed once, the reflector's per posture.
    let forward = scene.trace_link(ap.position(), reflector.position()).batch();
    let back = scene.trace_link(reflector.position(), ap.position()).batch();
    let ap_forward = ap.array().gain_dbi_batch(forward.departure_deg());
    let ap_back = ap.array().gain_dbi_batch(back.arrival_deg());
    let traced = |reflector: &MovrReflector| {
        round_trip_reflection_batched(
            &forward,
            &back,
            &ap_forward,
            &ap_back,
            ap.tx_power_dbm(),
            reflector.effective_gain_db(),
            &reflector.rx_array().gain_dbi_batch(forward.arrival_deg()),
            &reflector.tx_array().gain_dbi_batch(back.departure_deg()),
        )
    };
    for offset in [0.0, 7.0, -13.0, 31.0] {
        reflector.steer_both(to_ap + offset);
        reflector.set_gain_db(reflector.loop_attenuation_db() - 6.0);
        let plain = retraced_round_trip(&scene, &ap, &reflector);
        assert!(plain.is_some(), "amplifier on at offset={offset}");
        assert_eq!(
            plain.map(f64::to_bits),
            traced(&reflector).map(f64::to_bits),
            "offset={offset}"
        );
    }
    reflector.set_amplifier_enabled(false);
    assert_eq!(retraced_round_trip(&scene, &ap, &reflector), None);
    assert_eq!(traced(&reflector), None);
}

/// The seed-era incidence sweep: steer the live AP per candidate and
/// re-trace per probe. The traced-once `estimate_incidence` must
/// reproduce its argmax and peak bit-for-bit.
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
                retraced_round_trip(scene, &ap, &reflector).unwrap_or(f64::NEG_INFINITY);
            let reading = modulated_reading(&config.probe, reflected, ap.tx_power_dbm(), rng);
            if reading > best.0 {
                best = (reading, theta1, theta2);
            }
        }
    }
    best
}

#[test]
fn estimate_incidence_is_bit_identical_to_uncached_sweep() {
    let scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 5);
    let truth_refl = reflector.position().bearing_deg_to(ap.position());
    let truth_ap = ap.position().bearing_deg_to(reflector.position());
    // A 21×21 window keeps the double sweep fast; the bench runs the
    // full 101×101 version of this same check.
    let cfg = AlignmentConfig {
        ap_codebook: Codebook::sweep(truth_ap - 10.0, truth_ap + 10.0, 1.0),
        reflector_codebook: Codebook::sweep(truth_refl - 10.0, truth_refl + 10.0, 1.0),
        ..Default::default()
    };

    let mut rng_c = SimRng::seed_from_u64(42);
    let cached = estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng_c);
    let mut rng_u = SimRng::seed_from_u64(42);
    let (peak, t1, t2) = uncached_incidence(&scene, ap, reflector, &cfg, &mut rng_u);

    assert_eq!(cached.peak_power_dbm.to_bits(), peak.to_bits());
    assert_eq!(cached.reflector_angle_deg.to_bits(), t1.to_bits());
    assert_eq!(cached.ap_angle_deg.to_bits(), t2.to_bits());
    // Both RNGs must have consumed the same draws: the next sample from
    // each is identical.
    assert_eq!(rng_c.uniform(0.0, 1.0).to_bits(), rng_u.uniform(0.0, 1.0).to_bits());
}
