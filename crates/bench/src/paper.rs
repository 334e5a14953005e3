//! The paper's evaluation, one function per experiment: Figures 3, 7, 8
//! and 9 and §6's battery and latency numbers.
//!
//! Each function runs its experiment at the canonical seeds and returns an
//! [`Experiment`]: the report its bin prints, byte for byte, and the paper's
//! claims evaluated on that report's data. The figure bins print the report,
//! `repro_all` tabulates every claim, and `tests/figure_shapes.rs` asserts
//! them, so no two programs can measure one claim differently.

use std::fmt::Write as _;

use crate::{ap_position, cdf_series, figure_header, random_headset_pose, reflector_position, series};
use movr::alignment::{estimate_incidence, sweep_cost, AlignmentConfig};
use movr::baselines::{aligned_direct_snr, opt_nlos};
use movr::gain_control::GainControlConfig;
use movr::reflector::MovrReflector;
use movr::system::{MovrSystem, SystemConfig};
use movr_control::BLE_LATENCY;
use movr_math::angle::sweep_deg;
use movr_math::{wrap_deg_180, Cdf, SimRng, Summary, Vec2};
use movr_motion::{PlayerState, WorldState};
use movr_phased_array::array::STEERING_LATENCY_S;
use movr_phased_array::Codebook;
use movr_radio::{RadioEndpoint, RateTable, VR_REQUIRED_RATE_MBPS, VR_REQUIRED_SNR_DB};
use movr_rfsim::{BodyPart, Obstacle, Scene};
use movr_sim::SimTime;
use movr_vr::battery::{Battery, VIVE_MAX_DRAW_A, VIVE_TYPICAL_DRAW_A};
use movr_vr::latency;
use movr_vr::traffic::frame_airtime;
use Kind::{Calibrated, Reproduced};

/// What a claim's statistic says about the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The statistic is an output of the simulated system.
    Reproduced,
    /// The statistic is set by a constant the simulator was tuned to or
    /// given (a calibration anchor, a device constant, datasheet
    /// arithmetic), so it checks an input, not a reproduction.
    Calibrated,
}

/// One statement of the paper, checked against an experiment's data.
#[derive(Debug)]
pub struct Claim {
    /// Stable identifier, `<experiment>.<statistic>`.
    pub id: &'static str,
    /// What the paper says, with the bound the check applies.
    pub paper: &'static str,
    /// The measured statistic, as the report rounds it.
    pub measured: String,
    /// Whether the measured statistic meets the bound.
    pub pass: bool,
    /// Whether the statistic is an output or an input.
    pub kind: Kind,
}

fn claim(kind: Kind, id: &'static str, paper: &'static str, measured: String, pass: bool) -> Claim {
    Claim { id, paper, measured, pass, kind }
}

/// An experiment's printed report and the claims checked on its data.
#[derive(Debug)]
pub struct Experiment {
    /// Everything the experiment's bin prints.
    pub report: String,
    /// The paper's claims about this experiment.
    pub claims: Vec<Claim>,
}

/// Runs the six experiments in the paper's order.
pub fn all() -> Vec<Experiment> {
    vec![fig3(), fig7(), fig8(), fig9(), battery(), latency()]
}

/// Figure 3 — *Blockage impact on data rate.*
///
/// Top panel: SNR for {LOS, LOS blocked by hand, LOS blocked by head,
/// LOS blocked by body, best NLOS}. Bottom panel: the same scenarios
/// through the 802.11ad rate table. Paper anchors: LOS mean ≈ 25 dB and
/// ≈ 7 Gb/s; hand blockage degrades SNR by > 14 dB; the best NLOS beam
/// pair averages ~16 dB below LOS; every blocked/NLOS scenario falls
/// below the VR requirement. Seed 3, 20 placements.
///
/// ```sh
/// cargo run -p movr-bench --release --bin fig3
/// ```
pub fn fig3() -> Experiment {
    let mut out = figure_header("Figure 3", "SNR and data rate: LOS, three blockages, and best NLOS");
    let mut rng = SimRng::seed_from_u64(3);
    let rate = RateTable;
    let runs = 20;

    let labels = ["LOS", "LOS blocked by hand", "LOS blocked by head", "LOS blocked by body",
                  "NLOS (bare walls)", "NLOS (furnished, §5)"];
    let mut snr_stats = vec![Summary::new(); labels.len()];
    let mut rate_stats = vec![Summary::new(); labels.len()];

    for _ in 0..runs {
        let mut scene = Scene::paper_office();
        let mut ap = RadioEndpoint::paper_radio(ap_position(), 20.0);
        let (hs_pos, _) = random_headset_pose(&mut rng);
        let mut hs = RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(ap_position()));

        // The blocker sits on the LOS, slightly toward the headset — the
        // player's own hand/head, or a bystander mid-way.
        let mid = ap_position().lerp(hs_pos, rng.uniform(0.4, 0.7));
        let blockers = [
            None,
            Some(Obstacle::new(BodyPart::Hand, mid)),
            Some(Obstacle::new(BodyPart::Head, mid)),
            Some(Obstacle::new(BodyPart::Torso, mid)),
        ];
        for (i, blocker) in blockers.iter().enumerate() {
            scene.clear_obstacles();
            if let Some(o) = blocker {
                scene.add_obstacle(*o);
            }
            let snr = aligned_direct_snr(&scene, &mut ap, &mut hs);
            snr_stats[i].push(snr);
            rate_stats[i].push(rate.rate_mbps(snr));
        }

        // Best NLOS: "we repeat the measurements for all blocking
        // scenarios" (§3) — exhaustive beam sweep at both ends under each
        // blocker (paper: 1° steps; 2° here keeps the run fast and is
        // well inside one beamwidth).
        let ap_cb = Codebook::sweep(-50.0, 90.0, 2.0);
        let bore = hs.array().boresight_deg();
        let hs_cb = Codebook::sweep(bore - 50.0, bore + 50.0, 2.0);
        let mut furnished = Scene::furnished_office();
        for kind in [BodyPart::Hand, BodyPart::Head, BodyPart::Torso] {
            scene.clear_obstacles();
            scene.add_obstacle(Obstacle::new(kind, mid));
            let nl = opt_nlos(&scene, &ap, &hs, &ap_cb, &hs_cb, 7.0);
            snr_stats[4].push(nl.snr_db);
            rate_stats[4].push(rate.rate_mbps(nl.snr_db));
            // The paper's actual room had furniture: metal whiteboard and
            // cabinet faces reflect far better than drywall.
            furnished.clear_obstacles();
            furnished.add_obstacle(Obstacle::new(kind, mid));
            let nf = opt_nlos(&furnished, &ap, &hs, &ap_cb, &hs_cb, 7.0);
            snr_stats[5].push(nf.snr_db);
            rate_stats[5].push(rate.rate_mbps(nf.snr_db));
        }
    }

    let head = format!("{:<24} {:>8} {:>8} {:>8}", "scenario", "mean", "min", "max");
    let _ = writeln!(out, "\n--- top panel: SNR (dB), {runs} placements ---");
    let _ = writeln!(out, "{head}   required SNR: {VR_REQUIRED_SNR_DB:.0} dB");
    for (label, s) in labels.iter().zip(&snr_stats) {
        let _ = writeln!(out, "{label:<24} {:>8.1} {:>8.1} {:>8.1}", s.mean(), s.min(), s.max());
    }
    let _ = writeln!(out, "\n--- bottom panel: data rate (Gb/s) ---");
    let _ = writeln!(out, "{head}   required rate: {:.1} Gb/s", VR_REQUIRED_RATE_MBPS / 1000.0);
    for (label, s) in labels.iter().zip(&rate_stats) {
        let (mean, min, max) = (s.mean() / 1000.0, s.min() / 1000.0, s.max() / 1000.0);
        let _ = writeln!(out, "{label:<24} {mean:>8.2} {min:>8.2} {max:>8.2}");
    }

    let snr: Vec<f64> = snr_stats.iter().map(Summary::mean).collect();
    let gbps: Vec<f64> = rate_stats.iter().map(|s| s.mean() / 1000.0).collect();
    let los = snr[0];
    let _ = writeln!(out, "\n--- paper-shape checks ---");
    let _ = writeln!(
        out,
        "LOS mean SNR {los:.1} dB (paper ~25); LOS mean rate {:.2} Gb/s (paper ~7)",
        gbps[0]
    );
    let _ = writeln!(out, "hand-blockage drop {:.1} dB (paper >14)", los - snr[1]);
    let _ = writeln!(
        out,
        "best-NLOS drop: bare walls {:.1} dB, furnished {:.1} dB (paper ~16 mean)",
        los - snr[4],
        los - snr[5]
    );
    let all_blocked_fail = (1..6).all(|i| rate_stats[i].mean() < VR_REQUIRED_RATE_MBPS);
    let _ = writeln!(
        out,
        "every blocked/NLOS scenario below the VR rate: {}",
        if all_blocked_fail { "yes" } else { "NO" }
    );

    let highest_blocked = gbps[1..].iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let claims = vec![
        claim(Calibrated, "fig3.los", "~25 dB, ~7 Gb/s: [22, 28) dB, VR rate",
              format!("{los:.1} dB, {:.2} Gb/s", gbps[0]),
              (22.0..28.0).contains(&los) && rate.supports_vr(los)),
        claim(Calibrated, "fig3.hand-drop", "hand drop > 14 dB, below VR rate",
              format!("drop {:.1} dB, mean {:.1} dB", los - snr[1], snr[1]),
              los - snr[1] > 14.0 && !rate.supports_vr(snr[1])),
        claim(Calibrated, "fig3.blocker-order", "SNR: hand > head > body",
              format!("{:.1} > {:.1} > {:.1} dB", snr[1], snr[2], snr[3]),
              snr[1] > snr[2] && snr[2] > snr[3]),
        claim(Reproduced, "fig3.nlos-drop", "NLOS ~16 dB down: > 12 dB, below VR",
              format!("drop {:.1} dB, mean {:.1} dB", los - snr[4], snr[4]),
              los - snr[4] > 12.0 && !rate.supports_vr(snr[4])),
        // Both readings of a bar: its mean rate, and the rate at its mean SNR.
        claim(Reproduced, "fig3.blocked-below-vr", "every blocked/NLOS bar < 4 Gb/s",
              format!("highest {highest_blocked:.2} Gb/s"),
              all_blocked_fail && snr[1..].iter().all(|&s| !rate.supports_vr(s))),
    ];
    Experiment { report: out, claims }
}

/// Figure 7 — *Leakage between TX and RX antennas.*
///
/// The reflector's terminal-to-terminal TX→RX leakage across transmit
/// beam angles 40°–140°, for two receive beam angles (50° and 65°).
/// Paper shape: leakage gain between roughly −50 and −80 dB, varying by
/// up to ~20 dB across the sweep, with a curve that reshapes (not just
/// shifts) when the receive beam moves. Device seed 7.
///
/// ```sh
/// cargo run -p movr-bench --release --bin fig7
/// ```
pub fn fig7() -> Experiment {
    let caption = "TX->RX leakage vs TX beam angle, for RX beam at 50 and 65 deg";
    let mut out = figure_header("Figure 7", caption);

    // A reflector whose boresight is 90° so the paper's 40°–140° sweep
    // maps exactly onto the array's ±50° scan range.
    let mut device = MovrReflector::wall_mounted(Vec2::new(2.5, 0.25), 90.0, 7);

    let mut swings = Vec::new();
    for rx_angle in [50.0, 65.0] {
        let mut points = Vec::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for tx_angle in sweep_deg(40.0, 140.0, 1.0) {
            device.steer_rx(rx_angle);
            device.steer_tx(tx_angle);
            // What a VNA on the amplifier terminals reads: the (negative)
            // gain of the leakage loop.
            let gain_db = -device.loop_attenuation_db();
            min = min.min(gain_db);
            max = max.max(gain_db);
            points.push((tx_angle, gain_db));
        }
        out.push_str(&series(&format!("Rx angle {rx_angle}"), &points));
        let _ = writeln!(
            out,
            "  range: {min:.1} .. {max:.1} dB  (swing {:.1} dB; paper: -50..-80, up to ~20 dB)",
            max - min
        );
        swings.push(max - min);
    }

    let _ = writeln!(
        out,
        "\nThe swing across beam angles is why the amplifier gain must adapt\n\
         per beam pair (§4.2) — a fixed gain is either unstable at the\n\
         leakiest posture or wastes SNR everywhere else."
    );

    let claims = vec![claim(
        Calibrated, "fig7.swing", "~20-30 dB swing: >= 12 dB per RX angle",
        format!("{:.1} and {:.1} dB", swings[0], swings[1]),
        swings.iter().all(|&s| s >= 12.0),
    )];
    Experiment { report: out, claims }
}

/// Figure 8 — *Beam Alignment Accuracy.*
///
/// 100 runs: the reflector is placed at a random location and orientation,
/// the §4.1 backscatter protocol estimates the incidence angle, and the
/// estimate is compared to the ground truth computed from the (laser-
/// measured, here exact) positions. Paper result: error within 2°, a
/// negligible SNR cost against the ~10° beamwidth. Seed 8, ±20° windows;
/// the figure and its claim read the reflector side only.
///
/// ```sh
/// cargo run -p movr-bench --release --bin fig8
/// ```
pub fn fig8() -> Experiment {
    let mut out = figure_header("Figure 8", "estimated vs ground-truth incidence angle, 100 runs");
    let scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(ap_position(), 20.0);
    let mut rng = SimRng::seed_from_u64(8);

    let runs = 100u64;
    let mut errors = Summary::new();
    let mut within_2 = 0;
    let _ = writeln!(out, "\nseries: estimated vs actual (deg)");
    let _ = writeln!(out, "{:>12} {:>12} {:>8}", "actual", "estimated", "error");

    for run in 0..runs {
        // Random wall mount: along the north or east wall segments that
        // keep both the AP and the play area inside the scan range.
        let pos = if rng.chance(0.6) {
            Vec2::new(rng.uniform(0.8, 3.5), 4.75)
        } else {
            Vec2::new(rng.uniform(0.6, 2.2), rng.uniform(3.8, 4.75))
        };
        let bore = pos.bearing_deg_to(Vec2::new(1.8, 2.2)) + rng.uniform(-10.0, 10.0);
        let reflector = MovrReflector::wall_mounted(pos, bore, 1000 + run);

        let truth = pos.bearing_deg_to(ap.position());
        let truth_ap = ap.position().bearing_deg_to(pos);
        // The paper's 1°-increment sweep, windowed to each node's field
        // of view around the mount's coverage.
        let config = AlignmentConfig {
            ap_codebook: Codebook::sweep(truth_ap - 20.0, truth_ap + 20.0, 1.0),
            reflector_codebook: Codebook::sweep(truth - 20.0, truth + 20.0, 1.0),
            ..Default::default()
        };
        let r = estimate_incidence(&scene, ap, reflector, &config, &mut rng);
        let err = wrap_deg_180(r.reflector_angle_deg - truth).abs();
        errors.push(err);
        if err <= 2.0 {
            within_2 += 1;
        }
        if run % 10 == 0 {
            let _ = writeln!(out, "{truth:>12.1} {:>12.1} {err:>8.2}", r.reflector_angle_deg);
        }
    }

    let _ = writeln!(out, "\n--- paper-shape checks ---");
    let _ = writeln!(
        out,
        "alignment error: mean {:.2}°, max {:.2}° over {runs} runs",
        errors.mean(),
        errors.max()
    );
    let _ = writeln!(out, "runs within 2°: {within_2}/{runs} (paper: estimates within 2° of truth)");
    let _ = writeln!(
        out,
        "with a ~10° half-power beamwidth, a ≤2° error costs a negligible\n\
         fraction of a dB of SNR (§5.1)."
    );

    let claims = vec![claim(
        Reproduced, "fig8.worst-error", "reflector-side error <= 2°",
        format!("worst {:.2}° over {runs} runs", errors.max()),
        errors.max() <= 2.0,
    )];
    Experiment { report: out, claims }
}

/// Figure 9 — *SNR Performance.*
///
/// 20 runs with random headset placement and orientation. For each run:
/// 1) LOS SNR with no blockage; 2) a bystander blocks the LOS and the
///    best non-line-of-sight beam pair is found by exhaustive sweep
///    (Opt. NLOS); 3) MoVR serves the same blocked scenario through the
///    reflector. The figure is the CDF of SNR improvement relative to LOS.
///
/// Paper shape: Opt. NLOS loses 17 dB on average (up to 27 dB); MoVR is
/// mostly *above* LOS (the AP→reflector hop is short and amplified) with
/// a worst case around −3 dB, occurring only where the headset is so
/// close to the AP that SNR headroom is large. Seed 9.
///
/// ```sh
/// cargo run -p movr-bench --release --bin fig9
/// ```
pub fn fig9() -> Experiment {
    let mut out = figure_header("Figure 9", "CDF of SNR improvement vs LOS: {LOS, Opt. NLOS, MoVR}");
    let mut rng = SimRng::seed_from_u64(9);
    let runs = 20;

    let mut nlos_improvement = Vec::new();
    let mut movr_improvement = Vec::new();

    let _ = writeln!(out, "\n{:>4} {:>18} {:>8} {:>10} {:>8}", "run", "headset", "LOS", "OptNLOS", "MoVR");
    for run in 0..runs {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());

        // Random placement within the reflector's installed coverage:
        // gaze within ±20° of the scene (AP) direction, resampled until
        // both the AP and the reflector fall inside the receiver's
        // electronic scan. Poses outside a reflector's coverage are the
        // multi-reflector deployment of §4 (see examples/multi_reflector).
        let player = loop {
            let pos = Vec2::new(rng.uniform(2.0, 4.5), rng.uniform(0.8, 4.2));
            let yaw = pos.bearing_deg_to(ap_position()) + rng.uniform(-20.0, 20.0);
            let candidate = PlayerState::standing(pos, yaw);
            let hs = RadioEndpoint::paper_radio(candidate.receiver_position(), yaw);
            let sees_ap = hs.array().can_steer_to(pos.bearing_deg_to(ap_position()));
            let sees_refl = hs.array().can_steer_to(pos.bearing_deg_to(reflector_position()));
            if sees_ap && sees_refl {
                break candidate;
            }
        };
        let (pos, yaw) = (player.center, player.yaw_deg);

        // 1) Unblocked LOS.
        let clear = WorldState::player_only(player);
        let los = sys.evaluate_direct(&clear);

        // 2) + 3) A bystander torso on the AP↔headset line.
        let mid = ap_position().lerp(player.receiver_position(), rng.uniform(0.35, 0.65));
        let mut blocked = WorldState::player_only(player);
        blocked.others.push(Obstacle::new(BodyPart::Torso, mid));

        // Opt. NLOS: exhaustive sweep of both ends, LOS cone excluded.
        let _ = sys.evaluate_direct(&blocked); // sync obstacles into the scene
        let hs = RadioEndpoint::paper_radio(player.receiver_position(), player.yaw_deg);
        let ap_cb = Codebook::sweep(-50.0, 90.0, 2.0);
        let hs_cb = Codebook::sweep(player.yaw_deg - 50.0, player.yaw_deg + 50.0, 2.0);
        let nlos = opt_nlos(sys.scene(), sys.ap(), &hs, &ap_cb, &hs_cb, 7.0);

        // MoVR in the same blockage.
        let movr = sys.evaluate_via_reflector(0, &blocked).end_snr_db;

        nlos_improvement.push(nlos.snr_db - los);
        movr_improvement.push(movr - los);
        let _ = writeln!(
            out,
            "{run:>4} ({:>4.1},{:>4.1}) yaw {:>4.0} {los:>8.1} {:>10.1} {movr:>8.1}",
            pos.x, pos.y, yaw, nlos.snr_db
        );
    }
    let nlos_stats = Summary::from_slice(&nlos_improvement);
    let movr_stats = Summary::from_slice(&movr_improvement);

    // The LOS scenario's improvement over itself is identically zero — a
    // step CDF at 0, as the paper plots it.
    out.push_str(&cdf_series("LOS", &Cdf::new(vec![0.0; runs]), 5));
    out.push_str(&cdf_series("Opt. NLOS", &Cdf::new(nlos_improvement), 20));
    out.push_str(&cdf_series("MoVR", &Cdf::new(movr_improvement.clone()), 20));

    let (movr, nlos, worst) = (movr_stats.mean(), nlos_stats.mean(), movr_stats.min());
    let _ = writeln!(out, "\n--- paper-shape checks ---");
    let _ = writeln!(
        out,
        "Opt. NLOS improvement: mean {nlos:.1} dB (paper ≈ -17), worst {:.1} dB (paper ≈ -27)",
        nlos_stats.min()
    );
    let _ = writeln!(
        out,
        "MoVR improvement: mean {movr:+.1} dB (paper: a few dB above LOS), worst {worst:+.1} dB (paper ≈ -3)"
    );
    let above = movr_improvement.iter().filter(|&&v| v >= 0.0).count();
    let _ = writeln!(out, "MoVR at or above LOS in {above}/{runs} runs (paper: 'for most cases')");

    let claims = vec![
        claim(Reproduced, "fig9.movr-mean", "a few dB above LOS: mean > -3 dB",
              format!("{movr:+.1} dB"), movr > -3.0),
        claim(Reproduced, "fig9.movr-worst", "worst ≈ -3 dB: worst > -10 dB",
              format!("{worst:+.1} dB"), worst > -10.0),
        claim(Reproduced, "fig9.nlos-mean", "Opt. NLOS ≈ -17 dB: mean < -12 dB",
              format!("{nlos:.1} dB"), nlos < -12.0),
        claim(Reproduced, "fig9.movr-over-nlos", "MoVR - Opt. NLOS mean > 10 dB",
              format!("{:.1} dB", movr - nlos), movr - nlos > 10.0),
    ];
    Experiment { report: out, claims }
}

/// §6 (battery) — *cutting the power cord too.*
///
/// "The maximum current drawn by the HTC Vive headset is 1500mA. Hence, a
/// small battery (3.8x1.7x0.9in) with 5200mA capacity can run the headset
/// for 4-5 hours."
///
/// ```sh
/// cargo run -p movr-bench --release --bin battery
/// ```
pub fn battery() -> Experiment {
    let mut out = figure_header("§6 battery", "headset runtime on the paper's 5200 mAh pack");

    let pack = Battery::anker_5200();
    let usable = pack.usable_mah();
    let _ = writeln!(out, "\npack: {} mAh rated, {usable:.0} mAh usable", pack.capacity_mah);

    let _ = writeln!(out, "\n{:<34} {:>10} {:>10}", "draw scenario", "current", "runtime");
    let rows = [
        ("Vive, typical in-game", VIVE_TYPICAL_DRAW_A),
        ("Vive, maximum (paper's figure)", VIVE_MAX_DRAW_A),
        ("Vive + mmWave receiver (+300 mA)", VIVE_TYPICAL_DRAW_A + 0.3),
        ("Vive + mmWave, worst case", VIVE_MAX_DRAW_A + 0.3),
    ];
    for (label, draw) in rows {
        let _ = writeln!(out, "{label:<34} {draw:>8.2} A {:>8.1} h", pack.runtime_hours(draw));
    }

    let _ = writeln!(out, "\n--- paper-shape checks ---");
    let typical = pack.runtime_hours(VIVE_TYPICAL_DRAW_A);
    let with_mmwave = pack.runtime_hours(VIVE_TYPICAL_DRAW_A + 0.3);
    let yes = |pass: bool| if pass { "yes" } else { "NO" };
    let _ = writeln!(
        out,
        "typical-draw runtime {typical:.1} h — inside the paper's '4-5 hours' claim: {}",
        yes((4.0..=5.0).contains(&typical))
    );
    let _ = writeln!(
        out,
        "even with the mmWave receiver's draw the pack sustains multi-hour sessions: {}",
        yes(with_mmwave > 3.0)
    );

    let claims = vec![
        claim(Calibrated, "battery.typical", "4-5 hours at the typical draw",
              format!("{typical:.1} h"), (4.0..=5.0).contains(&typical)),
        claim(Calibrated, "battery.with-mmwave", "multi-hour with the receiver: > 3 h",
              format!("{with_mmwave:.1} h"), with_mmwave > 3.0),
    ];
    Experiment { report: out, claims }
}

/// §6 (latency) — *does everything fit in the 10 ms display budget?*
///
/// "The headset updates the display every 10ms. In principle, all
/// components of our design work much faster than this time scale ...
/// Finding the best beam alignment is the most time consuming process."
///
/// Itemises every latency in the design — electronic steering,
/// control-channel commands, the gain-control loop, windowed and full
/// alignment sweeps, and the tracking-assisted §6 realignment — and
/// checks each against the frame budget.
///
/// ```sh
/// cargo run -p movr-bench --release --bin latency
/// ```
pub fn latency() -> Experiment {
    let mut out = figure_header("§6 latency", "component latencies vs the 10 ms frame budget");

    let sys = MovrSystem::paper_setup(SystemConfig::default());

    // Gain control: a ramp over the whole gain range, ~ (max_gain / step)
    // steps, each of `reads_per_step` ADC reads on the Arduino.
    let gc = GainControlConfig::default();
    let steps = movr_math::convert::f64_to_usize((53.0 / gc.step_db).ceil());
    let gain_control = gc.ramp_time(steps);

    // Full install-time sweep: 101 × 101 beams.
    let full_sweep = sweep_cost(101, 101).unwrap_or(SimTime::MAX);

    let airtime = frame_airtime(6756.75).expect("max rate");
    let (track, sweep) = (sys.tracking_realignment_cost(), sys.sweep_realignment_cost());

    let rows: [(&str, SimTime, bool); 7] = [
        ("electronic beam steering", SimTime::from_secs_f64(STEERING_LATENCY_S), true),
        ("one control command (BLE)", BLE_LATENCY, true),
        ("gain-control loop", gain_control, true),
        ("tracking-assisted realignment (§6)", track, true),
        ("windowed re-sweep (no tracking)", sweep, false),
        ("full install-time sweep (101x101)", full_sweep, false),
        ("frame airtime at max MCS", airtime, true),
    ];

    let _ = writeln!(out, "\n{:<36} {:>14} {:>14}", "component", "latency", "fits 10 ms?");
    let _ = writeln!(out, "{}", "-".repeat(66));
    let mut as_expected = 0;
    for (label, t, expect_fits) in &rows {
        let fits = latency::meets_deadline(*t, SimTime::ZERO);
        as_expected += usize::from(fits == *expect_fits);
        let _ = writeln!(out, "{label:<36} {:>14} {:>14}", format!("{t}"), if fits { "yes" } else { "NO" });
    }
    let all_consistent = as_expected == rows.len();

    let _ = writeln!(out, "\n--- paper-shape checks ---");
    let _ = writeln!(
        out,
        "steering + control + gain control all fit the frame budget: {}",
        if all_consistent { "as expected" } else { "UNEXPECTED" }
    );
    let _ = writeln!(
        out,
        "the only over-budget items are beam *sweeps* — exactly the paper's\n\
         'finding the best beam alignment is the most time consuming process',\n\
         and why §6 proposes leveraging the VR tracking data ({sweep} vs {track})."
    );

    let claims = vec![
        claim(Reproduced, "latency.tracking", "tracking realignment < 10 ms",
              format!("{track}"), track.as_millis_f64() < 10.0),
        claim(Reproduced, "latency.sweep", "beam search is slowest: > 10 ms",
              format!("{sweep}"), sweep.as_millis_f64() > 10.0),
        claim(Reproduced, "latency.budget", "all but sweeps fit the 10 ms frame",
              format!("{as_expected}/{} rows as expected", rows.len()), all_consistent),
    ];
    Experiment { report: out, claims }
}
