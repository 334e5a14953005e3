//! Ablation — *is the f₂ on/off modulation actually necessary?*
//!
//! The §4.1 protocol works because the reflector modulates its amplifier,
//! shifting the echo to f₁+f₂ where the AP can filter it apart from its
//! own TX→RX leakage. This ablation runs identical alignment sweeps with
//! and without the modulation and compares the angle error.
//!
//! ```sh
//! cargo run -p movr-bench --release --bin ablation_modulation
//! ```

use movr::alignment::{estimate_incidence, AlignmentConfig};
use movr::reflector::MovrReflector;
use movr_bench::{ap_position, figure_header};
use movr_math::{wrap_deg_180, Cdf, SimRng, Summary, Vec2};
use movr_phased_array::Codebook;
use movr_radio::RadioEndpoint;
use movr_rfsim::Scene;

fn main() {
    figure_header(
        "Ablation: modulation",
        "alignment error with vs without the f2 on/off modulation",
    );
    let scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(ap_position(), 20.0);
    let mut rng = SimRng::seed_from_u64(41);
    let runs = 30u64;

    let mut with = Summary::new();
    let mut without = Summary::new();
    let mut with_ok = 0;
    let mut without_ok = 0;
    // AP self-leakage over the echo, dB: the probe model's leakage at
    // the AP's transmit power against each run's reflected carrier (the
    // modulated peak plus the conversion loss the sideband paid).
    let mut leak_over_echo_db = Vec::new();

    for run in 0..runs {
        let pos = Vec2::new(rng.uniform(0.8, 3.5), 4.75);
        let bore = pos.bearing_deg_to(Vec2::new(1.8, 2.2)) + rng.uniform(-10.0, 10.0);
        let reflector = MovrReflector::wall_mounted(pos, bore, 4000 + run);
        let truth = pos.bearing_deg_to(ap.position());
        let truth_ap = ap.position().bearing_deg_to(pos);
        let base = AlignmentConfig {
            ap_codebook: Codebook::sweep(truth_ap - 20.0, truth_ap + 20.0, 1.0),
            reflector_codebook: Codebook::sweep(truth - 20.0, truth + 20.0, 1.0),
            ..Default::default()
        };
        let m = estimate_incidence(&scene, ap, reflector.clone(), &base, &mut rng);
        let echo_dbm = m.peak_power_dbm + base.probe.modulation_loss_db;
        leak_over_echo_db.push(base.probe.ap_leakage_dbm(ap.tx_power_dbm()) - echo_dbm);
        let u = estimate_incidence(
            &scene,
            ap,
            reflector,
            &AlignmentConfig {
                modulated: false,
                ..base
            },
            &mut rng,
        );
        let em = wrap_deg_180(m.reflector_angle_deg - truth).abs();
        let eu = wrap_deg_180(u.reflector_angle_deg - truth).abs();
        with.push(em);
        without.push(eu);
        if em <= 2.0 {
            with_ok += 1;
        }
        if eu <= 2.0 {
            without_ok += 1;
        }
    }

    println!("\n{:<28} {:>10} {:>10} {:>12}", "variant", "mean err", "max err", "within 2°");
    println!(
        "{:<28} {:>9.2}° {:>9.2}° {:>9}/{runs}",
        "with modulation (§4.1)",
        with.mean(),
        with.max(),
        with_ok
    );
    println!(
        "{:<28} {:>9.2}° {:>9.2}° {:>9}/{runs}",
        "without modulation",
        without.mean(),
        without.max(),
        without_ok
    );

    println!("\n--- conclusion ---");
    println!(
        "Without modulation the AP's self-leakage (median {:.1} dB above the\n\
         echo over the {runs} runs) dominates the in-band measurement; the argmax\n\
         degenerates to noise and the protocol cannot find the reflector. The\n\
         modulation is load-bearing, not an optimisation.",
        Cdf::new(leak_over_echo_db).median()
    );
}
