//! Blockage survey: reproduce the paper's §3 measurement campaign.
//!
//! Places the headset at random LOS positions in the office, measures the
//! SNR, then re-measures under each blockage scenario (hand, head, body)
//! and with the best non-line-of-sight beam pair — the experiment behind
//! Fig. 3.
//!
//! Headset positions are drawn sequentially from the seeded RNG (so the
//! campaign is the same regardless of parallelism), then the independent
//! runs are fanned out over every core with [`movr_sim::pool_map`] and
//! folded back in run order: the output is byte-identical for any thread
//! count.
//!
//! ```sh
//! cargo run --release --example blockage_survey
//! ```

use movr::baselines::{aligned_direct_snr, opt_nlos};
use movr_math::{SimRng, Summary, Vec2};
use movr_phased_array::Codebook;
use movr_radio::{RadioEndpoint, RateTable};
use movr_rfsim::{BodyPart, Obstacle, Scene};
use movr_sim::{available_threads, pool_map};

/// Per-run measurements: SNR (dB) for LOS, hand, head, body, best NLOS.
fn survey_run(hs_pos: Vec2) -> [f64; 5] {
    let mut scene = Scene::paper_office();
    let ap_pos = Vec2::new(0.5, 2.5);
    let mut ap = RadioEndpoint::paper_radio(ap_pos, 20.0);
    let mut hs = RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(ap_pos));

    let mid = ap_pos.lerp(hs_pos, 0.55);
    let scenarios: [Option<Obstacle>; 4] = [
        None,
        Some(Obstacle::new(BodyPart::Hand, mid)),
        Some(Obstacle::new(BodyPart::Head, mid)),
        Some(Obstacle::new(BodyPart::Torso, mid)),
    ];
    let mut snr = [0.0; 5];
    for (idx, obstacle) in scenarios.into_iter().enumerate() {
        scene.clear_obstacles();
        if let Some(o) = obstacle {
            scene.add_obstacle(o);
        }
        snr[idx] = aligned_direct_snr(&scene, &mut ap, &mut hs);
    }

    // Best NLOS: body blockage in place, sweep every beam pair.
    scene.clear_obstacles();
    scene.add_obstacle(Obstacle::new(BodyPart::Torso, mid));
    let cb_ap = Codebook::sweep(-50.0, 90.0, 2.0);
    let hs_bore = hs.array().boresight_deg();
    let cb_hs = Codebook::sweep(hs_bore - 50.0, hs_bore + 50.0, 2.0);
    snr[4] = opt_nlos(&scene, &ap, &hs, &cb_ap, &cb_hs, 7.0).snr_db;
    snr
}

fn main() {
    let mut rng = SimRng::seed_from_u64(2016);
    let rate = RateTable;
    let runs = 12;

    let mut stats: Vec<(&str, Summary, Summary)> = vec![
        ("LOS", Summary::new(), Summary::new()),
        ("LOS blocked by hand", Summary::new(), Summary::new()),
        ("LOS blocked by head", Summary::new(), Summary::new()),
        ("LOS blocked by body", Summary::new(), Summary::new()),
        ("best NLOS", Summary::new(), Summary::new()),
    ];

    // Random headset placements with a clear LOS, in the AP's scan —
    // drawn up-front so the RNG sequence matches the sequential survey.
    let positions: Vec<Vec2> = (0..runs)
        .map(|_| Vec2::new(rng.uniform(2.0, 4.5), rng.uniform(1.0, 4.0)))
        .collect();

    let results =
        pool_map(positions.clone(), available_threads(), |_, &hs_pos| survey_run(hs_pos));

    for (run, (hs_pos, snrs)) in positions.iter().zip(&results).enumerate() {
        for (idx, &snr) in snrs.iter().enumerate() {
            stats[idx].1.push(snr);
            stats[idx].2.push(rate.rate_mbps(snr) / 1000.0);
        }
        println!("run {run:>2}: headset at {hs_pos}");
    }

    println!("\n{:<22} {:>10} {:>12} {:>12}", "scenario", "SNR (dB)", "rate (Gb/s)", "VR-ok?");
    println!("{}", "-".repeat(60));
    for (name, snr, gbps) in &stats {
        println!(
            "{:<22} {:>10.1} {:>12.2} {:>12}",
            name,
            snr.mean(),
            gbps.mean(),
            if rate.supports_vr(snr.mean()) { "yes" } else { "NO" }
        );
    }
    println!(
        "\nVR requires {:.1} Gb/s (SNR ≥ {:.0} dB). Blocking the LOS or falling\n\
         back to wall reflections drops the link below the requirement — the\n\
         paper's motivation for a programmable reflector.",
        movr_radio::VR_REQUIRED_RATE_MBPS / 1000.0,
        movr_radio::VR_REQUIRED_SNR_DB
    );
}
