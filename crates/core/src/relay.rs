//! Physics of the AP → reflector → headset two-hop link.
//!
//! MoVR is an *analog* relay: whatever RF lands in its receive beam is
//! amplified (by the closed-loop gain of the amplify-leak feedback loop)
//! and re-radiated through the transmit beam. Two consequences the
//! budgets here capture:
//!
//! * When the amplifier saturates (`G ≥ L`) the output is garbage — the
//!   relayed link delivers **no** signal, not a stronger one.
//! * The amplifier amplifies its own front-end noise along with the
//!   signal, so the end-to-end SNR cannot exceed the SNR at the
//!   reflector's *input*. We model this as
//!   `SNR_end = min(SNR_hop1, SNR_hop2)` — the standard cascade bound for
//!   an amplify-and-forward relay.
//!
//! The relayed-link budget has one scalar form, which queries the
//! antenna patterns per traced path and serves the per-frame decision
//! ([`relay_link_on`]), and one batched form over precomputed gain rows,
//! which serves the reflection sweep ([`relay_end_snr_batched`]). Both
//! apply the same cascade and end in the same coherent fold in
//! `movr-rfsim`, so they agree bit for bit. The backscatter round trip
//! is only ever taken inside a sweep, so it has the batched form alone
//! ([`round_trip_reflection_batched`]).

use crate::reflector::MovrReflector;
use movr_phased_array::SteeredArray;
use movr_radio::{ArrayPattern, RadioEndpoint};
use movr_rfsim::{LinkBatch, LinkEval, NoiseModel, Scene, TracedLink};

/// The reflector front end's noise model in `scene` — the budget hop-1
/// SNR is computed against. The front end is a low-noise amplifier chain
/// with no baseband processing: a better noise figure and none of the
/// headset's implementation loss. Its input SNR, which bounds the
/// end-to-end SNR of the relayed link, is therefore computed against
/// this model, not the headset's. Batched sweeps fold it into a
/// [`LinkBatch`] once with [`LinkBatch::with_noise`].
pub fn relay_input_noise(scene: &Scene) -> NoiseModel {
    NoiseModel {
        bandwidth_hz: scene.noise().bandwidth_hz,
        noise_figure_db: 4.0,
        implementation_loss_db: 0.0,
        temperature_k: scene.noise().temperature_k,
    }
}

/// The budget of a relayed link.
#[derive(Debug, Clone, Copy)]
pub struct RelayBudget {
    /// Power arriving at the reflector's receive array, dBm.
    pub hop1_received_dbm: f64,
    /// SNR at the reflector input, dB.
    pub hop1_snr_db: f64,
    /// Power re-radiated by the reflector, dBm (`None` when the amplifier
    /// is off or saturated).
    pub relay_output_dbm: Option<f64>,
    /// Power arriving at the headset, dBm (−∞ when no output).
    pub hop2_received_dbm: f64,
    /// SNR of hop 2 alone at the headset, dB.
    pub hop2_snr_db: f64,
    /// End-to-end SNR, dB: `min(hop1, hop2)`, −∞ when saturated/off.
    pub end_snr_db: f64,
    /// True when the amplifier was saturated at these settings.
    pub saturated: bool,
}

/// Evaluates the relayed link with the current beam/gain settings of all
/// three nodes over traced hops: `hop1` must be AP → reflector and
/// `hop2` reflector → headset in the same scene. The caller owns the
/// tracing, so a caller that evaluates several beam candidates, or keeps
/// each hop in a [`movr_rfsim::LinkMemo`] across frames as `MovrSystem`
/// does, pays only the O(paths) reweighting per call.
pub fn relay_link_on(
    hop1: &TracedLink<'_>,
    hop2: &TracedLink<'_>,
    ap: &RadioEndpoint,
    reflector: &MovrReflector,
    headset_array: &SteeredArray,
) -> RelayBudget {
    let hop1_eval = hop1.evaluate(
        &ArrayPattern(ap.array()),
        ap.tx_power_dbm(),
        &ArrayPattern(reflector.rx_array()),
    );
    let hop1_snr_db = relay_input_noise(hop1.scene()).snr_db(hop1_eval.received_dbm);
    let relay_tx = ArrayPattern(reflector.tx_array());
    let headset = ArrayPattern(headset_array);
    cascade(
        hop1_eval.received_dbm,
        hop1_snr_db,
        reflector.effective_gain_db(),
        reflector.is_saturated(),
        |out_dbm| hop2.evaluate(&relay_tx, out_dbm, &headset),
    )
}

/// The amplify-and-forward cascade shared by the scalar and batched
/// relay budgets: the amplifier re-radiates hop 1's received power at
/// `relay_gain_db` (`None` when it is off or saturated), `hop2` carries
/// that output to the receiver, and the end SNR is `min(hop1, hop2)` —
/// or −∞ when there is no output, in which case hop 2 is not evaluated.
#[inline]
fn cascade(
    hop1_received_dbm: f64,
    hop1_snr_db: f64,
    relay_gain_db: Option<f64>,
    saturated: bool,
    hop2: impl FnOnce(f64) -> LinkEval,
) -> RelayBudget {
    match relay_gain_db {
        Some(gain_db) => {
            let out_dbm = hop1_received_dbm + gain_db;
            let hop2 = hop2(out_dbm);
            RelayBudget {
                hop1_received_dbm,
                hop1_snr_db,
                relay_output_dbm: Some(out_dbm),
                hop2_received_dbm: hop2.received_dbm,
                hop2_snr_db: hop2.snr_db,
                end_snr_db: hop1_snr_db.min(hop2.snr_db),
                saturated,
            }
        }
        None => RelayBudget {
            hop1_received_dbm,
            hop1_snr_db,
            relay_output_dbm: None,
            hop2_received_dbm: f64::NEG_INFINITY,
            hop2_snr_db: f64::NEG_INFINITY,
            end_snr_db: f64::NEG_INFINITY,
            saturated,
        },
    }
}

/// Round-trip reflection power back at the AP, dBm — what the AP's
/// backscatter probe measures (before modulation conversion): AP →
/// reflector → amplifier → back toward the AP → AP's receive array.
/// `None` when the amplifier is off or saturated (`relay_gain_db` is
/// `None`).
///
/// `forward`/`back` are the two legs as [`LinkBatch`]es, and each gain
/// slice weights that leg's paths in path order: AP gains over the
/// forward departures and back arrivals, reflector RX over the forward
/// arrivals, reflector TX over the back departures. A sweep computes the
/// AP rows once per codebook page and the reflector rows once per
/// posture, so each probe is two multiply-accumulate passes. Both legs
/// end in the same coherent fold as [`TracedLink::evaluate`], so the
/// result is bit-identical to evaluating the legs one pattern query per
/// path.
///
/// # Panics
/// Panics if a gain row's length differs from its leg's tap count. With
/// no relay gain the rows are not read, so they are not checked either.
#[expect(clippy::too_many_arguments, reason = "the four gain rows are the point of this entry")]
pub fn round_trip_reflection_batched(
    forward: &LinkBatch,
    back: &LinkBatch,
    ap_forward_gains: &[f64],
    ap_back_gains: &[f64],
    ap_tx_power_dbm: f64,
    relay_gain_db: Option<f64>,
    relay_rx_gains: &[f64],
    relay_tx_gains: &[f64],
) -> Option<f64> {
    let gain_db = relay_gain_db?;
    let hop1_dbm = forward.received_dbm(ap_tx_power_dbm, ap_forward_gains, relay_rx_gains);
    let out_dbm = hop1_dbm + gain_db;
    Some(back.received_dbm(out_dbm, relay_tx_gains, ap_back_gains))
}

/// End-to-end relay SNR for one headset-beam candidate of a reflection
/// sweep whose hop-1 weighting is fixed: the caller evaluates hop 1 once
/// (received power plus front-end SNR against [`relay_input_noise`],
/// both loop invariants) and this folds in the per-candidate hop 2.
/// `hop2` must carry the scene's receiver noise (the default from
/// [`TracedLink::batch`]); `relay_tx_gains` weight its departures and
/// `headset_gains` its arrivals. Bit-identical to [`relay_link_on`]'s
/// `end_snr_db` for faithful rows: both apply the same cascade.
///
/// # Panics
/// Panics if a gain row's length differs from `hop2`'s tap count while
/// the amplifier is on.
pub fn relay_end_snr_batched(
    hop1_received_dbm: f64,
    hop1_snr_db: f64,
    relay_gain_db: Option<f64>,
    hop2: &LinkBatch,
    relay_tx_gains: &[f64],
    headset_gains: &[f64],
) -> f64 {
    // Only the end SNR is read, so the saturation flag is immaterial.
    cascade(
        hop1_received_dbm,
        hop1_snr_db,
        relay_gain_db,
        false,
        |out_dbm| hop2.eval(out_dbm, relay_tx_gains, headset_gains),
    )
    .end_snr_db
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::Vec2;

    /// The canonical layout: AP mid-west wall, reflector high on the
    /// north wall (short AP–reflector hop, both within every array's scan
    /// range), headset in the south-east play area, everything aimed
    /// sensibly.
    fn setup() -> (Scene, RadioEndpoint, MovrReflector, RadioEndpoint) {
        let scene = Scene::paper_office();
        let mut ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
        let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 7);
        let hs_pos = Vec2::new(3.5, 1.5);
        let mut headset =
            RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(Vec2::new(1.0, 4.75)));

        ap.steer_toward(reflector.position());
        let to_ap = reflector.position().bearing_deg_to(ap.position());
        let to_hs = reflector.position().bearing_deg_to(headset.position());
        reflector.steer_rx(to_ap);
        reflector.steer_tx(to_hs);
        headset.steer_toward(reflector.position());

        // Safe gain: well below the leakage at these beams.
        let safe = reflector.loop_attenuation_db() - 6.0;
        reflector.set_gain_db(safe);
        (scene, ap, reflector, headset)
    }

    /// The relayed budget over hops traced afresh.
    fn traced_relay(
        scene: &Scene,
        ap: &RadioEndpoint,
        reflector: &MovrReflector,
        headset: &RadioEndpoint,
    ) -> RelayBudget {
        let hop1 = scene.trace_link(ap.position(), reflector.position());
        let hop2 = scene.trace_link(reflector.position(), headset.position());
        relay_link_on(&hop1, &hop2, ap, reflector, headset.array())
    }

    /// The AP's backscatter probe at the live beams, the way the
    /// alignment sweep takes it: two traced legs, gain rows, one fold.
    fn round_trip(scene: &Scene, ap: &RadioEndpoint, reflector: &MovrReflector) -> Option<f64> {
        let fwd = scene
            .trace_link(ap.position(), reflector.position())
            .batch();
        let bck = scene
            .trace_link(reflector.position(), ap.position())
            .batch();
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
    }

    /// Scalar reference for the round trip: both legs evaluated one
    /// pattern query per traced path, as the per-call probe did before
    /// the sweep went batched.
    fn scalar_round_trip(
        forward: &TracedLink<'_>,
        back: &TracedLink<'_>,
        ap: &RadioEndpoint,
        reflector: &MovrReflector,
    ) -> Option<f64> {
        let ap_pattern = ArrayPattern(ap.array());
        let hop1 = forward.evaluate(
            &ap_pattern,
            ap.tx_power_dbm(),
            &ArrayPattern(reflector.rx_array()),
        );
        let out_dbm = hop1.received_dbm + reflector.effective_gain_db()?;
        let hop2 = back.evaluate(&ArrayPattern(reflector.tx_array()), out_dbm, &ap_pattern);
        Some(hop2.received_dbm)
    }

    #[test]
    fn relayed_link_is_vr_grade() {
        let (scene, ap, reflector, headset) = setup();
        let b = traced_relay(&scene, &ap, &reflector, &headset);
        assert!(!b.saturated);
        assert!(b.relay_output_dbm.is_some());
        assert!(
            b.end_snr_db > 15.0,
            "relayed SNR should be VR-grade, got {}",
            b.end_snr_db
        );
    }

    #[test]
    fn end_snr_is_min_of_hops() {
        let (scene, ap, reflector, headset) = setup();
        let b = traced_relay(&scene, &ap, &reflector, &headset);
        assert_eq!(b.end_snr_db, b.hop1_snr_db.min(b.hop2_snr_db));
    }

    #[test]
    fn saturated_amplifier_kills_the_link() {
        let (scene, ap, mut reflector, headset) = setup();
        reflector.set_gain_db(reflector.amplifier().max_gain_db);
        // Max gain (48 dB) exceeds the loop attenuation when the antenna
        // coupling sits near its 35 dB floor (loop ≈ 43 dB), so some beam
        // pairs saturate at full gain.
        if reflector.is_saturated() {
            let b = traced_relay(&scene, &ap, &reflector, &headset);
            assert!(b.saturated);
            assert_eq!(b.end_snr_db, f64::NEG_INFINITY);
            assert!(b.relay_output_dbm.is_none());
        }
    }

    #[test]
    fn amplifier_off_kills_the_link() {
        let (scene, ap, mut reflector, headset) = setup();
        reflector.set_amplifier_enabled(false);
        let b = traced_relay(&scene, &ap, &reflector, &headset);
        assert!(!b.saturated);
        assert_eq!(b.end_snr_db, f64::NEG_INFINITY);
    }

    #[test]
    fn more_gain_more_snr_until_hop1_limits() {
        let (scene, ap, mut reflector, headset) = setup();
        let leak = reflector.loop_attenuation_db();
        let g_low = reflector.set_gain_db(leak - 20.0);
        let eff_low = reflector.effective_gain_db().unwrap();
        let low = traced_relay(&scene, &ap, &reflector, &headset);
        let g_high = reflector.set_gain_db(leak - 6.0);
        let eff_high = reflector.effective_gain_db().unwrap();
        let high = traced_relay(&scene, &ap, &reflector, &headset);
        assert!(g_high - g_low > 3.0, "gain range too small to test");
        // hop2 tracks the *effective* (closed-loop) gain difference
        // exactly — regeneration at the tighter margin included.
        let delta = high.hop2_snr_db - low.hop2_snr_db;
        let expected = eff_high - eff_low;
        assert!(
            (delta - expected).abs() < 1e-9,
            "hop2 delta {delta} vs effective gain delta {expected}"
        );
        assert!(expected > g_high - g_low, "regeneration must add on top");
        // hop1 is unaffected by the gain setting.
        assert!((high.hop1_snr_db - low.hop1_snr_db).abs() < 1e-9);
        // And the end SNR never exceeds hop1's.
        assert!(high.end_snr_db <= high.hop1_snr_db + 1e-9);
    }

    #[test]
    fn misaimed_reflector_tx_loses_headset() {
        let (scene, ap, mut reflector, headset) = setup();
        let aligned = traced_relay(&scene, &ap, &reflector, &headset).end_snr_db;
        let to_hs = reflector.position().bearing_deg_to(headset.position());
        reflector.steer_tx(to_hs + 40.0);
        // Re-apply a safe gain for the new beam pair.
        reflector.set_gain_db(reflector.loop_attenuation_db() - 6.0);
        let misaimed = traced_relay(&scene, &ap, &reflector, &headset).end_snr_db;
        assert!(aligned - misaimed > 10.0, "aligned={aligned} misaimed={misaimed}");
    }

    #[test]
    fn round_trip_reflection_exists_and_tracks_beams() {
        let (scene, ap, mut reflector, _headset) = setup();
        // Point both reflector beams back at the AP (probe posture).
        let to_ap = reflector.position().bearing_deg_to(ap.position());
        reflector.steer_both(to_ap);
        reflector.set_gain_db(reflector.loop_attenuation_db() - 6.0);
        let aimed = round_trip(&scene, &ap, &reflector).unwrap();
        // Swing the beams away: the echo collapses.
        reflector.steer_both(to_ap + 35.0);
        reflector.set_gain_db(reflector.loop_attenuation_db() - 6.0);
        let away = round_trip(&scene, &ap, &reflector).unwrap();
        assert!(aimed - away > 15.0, "aimed={aimed} away={away}");
    }

    #[test]
    fn round_trip_none_when_off() {
        let (scene, ap, mut reflector, _hs) = setup();
        reflector.set_amplifier_enabled(false);
        assert!(round_trip(&scene, &ap, &reflector).is_none());
    }

    #[test]
    fn batched_round_trip_bit_identical_to_scalar() {
        let (scene, ap, mut reflector, _hs) = setup();
        let to_ap = reflector.position().bearing_deg_to(ap.position());
        let forward = scene.trace_link(ap.position(), reflector.position());
        let back = scene.trace_link(reflector.position(), ap.position());
        let fwd = forward.batch();
        let bck = back.batch();
        let ap_fwd = ap.array().gain_dbi_batch(fwd.departure_deg());
        let ap_bck = ap.array().gain_dbi_batch(bck.arrival_deg());
        for offset in [0.0, 3.0, 35.0] {
            reflector.steer_both(to_ap + offset);
            reflector.set_gain_db(reflector.loop_attenuation_db() - 6.0);
            let rx = reflector.rx_array().gain_dbi_batch(fwd.arrival_deg());
            let tx = reflector.tx_array().gain_dbi_batch(bck.departure_deg());
            let scalar = scalar_round_trip(&forward, &back, &ap, &reflector).expect("amplifier on");
            let batched = round_trip_reflection_batched(
                &fwd,
                &bck,
                &ap_fwd,
                &ap_bck,
                ap.tx_power_dbm(),
                reflector.effective_gain_db(),
                &rx,
                &tx,
            )
            .expect("amplifier on");
            assert_eq!(batched.to_bits(), scalar.to_bits(), "offset={offset}");
        }
        reflector.set_amplifier_enabled(false);
        assert!(round_trip_reflection_batched(
            &fwd,
            &bck,
            &ap_fwd,
            &ap_bck,
            ap.tx_power_dbm(),
            reflector.effective_gain_db(),
            &[],
            &[],
        )
        .is_none());
    }

    #[test]
    fn batched_relay_end_snr_bit_identical_to_scalar() {
        let (scene, ap, reflector, headset) = setup();
        let scalar = traced_relay(&scene, &ap, &reflector, &headset);
        let hop1 = scene.trace_link(ap.position(), reflector.position());
        let hop2 = scene.trace_link(reflector.position(), headset.position());
        let h1 = hop1.batch().with_noise(&relay_input_noise(&scene));
        let h2 = hop2.batch();
        let ap_g = ap.array().gain_dbi_batch(h1.departure_deg());
        let rx_g = reflector.rx_array().gain_dbi_batch(h1.arrival_deg());
        let tx_g = reflector.tx_array().gain_dbi_batch(h2.departure_deg());
        let hs_g = headset.array().gain_dbi_batch(h2.arrival_deg());
        let r1 = h1.received_dbm(ap.tx_power_dbm(), &ap_g, &rx_g);
        let s1 = h1.snr_db(r1);
        assert_eq!(r1.to_bits(), scalar.hop1_received_dbm.to_bits());
        assert_eq!(s1.to_bits(), scalar.hop1_snr_db.to_bits());
        let end = relay_end_snr_batched(
            r1,
            s1,
            reflector.effective_gain_db(),
            &h2,
            &tx_g,
            &hs_g,
        );
        assert_eq!(end.to_bits(), scalar.end_snr_db.to_bits());
        // Amplifier off: the batched form must report the same dead link.
        assert_eq!(
            relay_end_snr_batched(r1, s1, None, &h2, &tx_g, &hs_g),
            f64::NEG_INFINITY
        );
    }
}
