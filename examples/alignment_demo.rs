//! Watch the §4.1 backscatter alignment protocol work — and watch it fail
//! without the on/off modulation that separates the reflection from the
//! AP's own TX→RX leakage.
//!
//! ```sh
//! cargo run --release --example alignment_demo
//! ```

use movr::alignment::{estimate_incidence, AlignmentConfig};
use movr::gain_control::{run_gain_control_recorded, GainControlConfig};
use movr::reflector::MovrReflector;
use movr_math::{wrap_deg_180, SimRng, Vec2};
use movr_obs::{Key, Kind, MemoryRecorder, Value};
use movr_phased_array::Codebook;
use movr_radio::RadioEndpoint;
use movr_rfsim::Scene;
use movr_sim::SimTime;

fn main() {
    let scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 9);

    let truth_refl = reflector.position().bearing_deg_to(ap.position());
    let truth_ap = ap.position().bearing_deg_to(reflector.position());
    println!("ground truth: reflector→AP bearing {truth_refl:.1}°, AP→reflector {truth_ap:.1}°\n");

    // The paper's sweep: both codebooks at 1° steps around each node's
    // field of view.
    let config = AlignmentConfig {
        ap_codebook: Codebook::sweep(truth_ap - 25.0, truth_ap + 25.0, 1.0),
        reflector_codebook: Codebook::sweep(truth_refl - 25.0, truth_refl + 25.0, 1.0),
        ..Default::default()
    };

    let mut rng = SimRng::seed_from_u64(1);
    let r = estimate_incidence(&scene, ap, reflector.clone(), &config, &mut rng);
    println!("WITH modulation (the paper's protocol):");
    println!(
        "  estimate: reflector {:.1}° (err {:.1}°), AP {:.1}° (err {:.1}°)",
        r.reflector_angle_deg,
        wrap_deg_180(r.reflector_angle_deg - truth_refl).abs(),
        r.ap_angle_deg,
        wrap_deg_180(r.ap_angle_deg - truth_ap).abs(),
    );
    println!(
        "  {} measurements, sweep took {} (sideband peak {:.1} dBm)\n",
        r.measurements, r.elapsed, r.peak_power_dbm
    );

    let unmod = AlignmentConfig {
        modulated: false,
        ..config
    };
    let r2 = estimate_incidence(&scene, ap, reflector.clone(), &unmod, &mut rng);
    println!("WITHOUT modulation (ablation — leakage swamps the echo):");
    println!(
        "  estimate: reflector {:.1}° (err {:.1}°), AP {:.1}° (err {:.1}°)\n",
        r2.reflector_angle_deg,
        wrap_deg_180(r2.reflector_angle_deg - truth_refl).abs(),
        r2.ap_angle_deg,
        wrap_deg_180(r2.ap_angle_deg - truth_ap).abs(),
    );

    // With the angles known, run the §4.2 gain-control loop and show the
    // current trace the firmware saw.
    let mut dev = reflector;
    dev.steer_rx(truth_refl);
    dev.steer_tx(truth_refl + 40.0);
    let mut rec = MemoryRecorder::new();
    let g = run_gain_control_recorded(
        &mut dev,
        &GainControlConfig::default(),
        SimTime::ZERO,
        &mut rec,
    );
    println!(
        "gain control at serving beams: chose {:.1} dB ({}), loop leakage is {:.1} dB",
        g.chosen_gain_db,
        if g.knee_detected {
            "stopped at the current knee"
        } else {
            "hit the amplifier ceiling"
        },
        dev.loop_attenuation_db()
    );
    println!("  last gain steps (gain dB -> supply current A):");
    let steps: Vec<_> = rec.of_kind(Kind::GainStep).collect();
    for e in &steps[steps.len().saturating_sub(6)..] {
        if let (Some(Value::F64(gain)), Some(Value::F64(current))) =
            (e.field(Key::GainDb), e.field(Key::CurrentA))
        {
            println!("    {gain:>5.1} -> {current:.3}");
        }
    }
}
