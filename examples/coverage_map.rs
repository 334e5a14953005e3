//! Coverage map: an ASCII heatmap of delivered SNR over the room, with
//! and without the reflector, for a player facing the AP — the spatial
//! picture behind Figs. 3 and 9.
//!
//! Cells are independent, so they are fanned out over every core with
//! [`movr_sim::pool_map`]; the map is byte-identical for any thread
//! count.
//!
//! ```sh
//! cargo run --release --example coverage_map
//! ```

use movr::system::{MovrSystem, SystemConfig};
use movr_math::Vec2;
use movr_motion::{PlayerState, WorldState};
use movr_radio::{RateTable, VR_REQUIRED_SNR_DB};
use movr_sim::{available_threads, pool_map};

/// Grid resolution, metres.
const STEP: f64 = 0.25;

fn snr_char(snr: f64) -> char {
    // One character per ~5 dB band.
    match snr {
        s if s >= 25.0 => '#',
        s if s >= VR_REQUIRED_SNR_DB => '+',
        s if s >= 8.0 => ':',
        s if s >= 0.0 => '.',
        _ => ' ',
    }
}

fn render(with_hand: bool) {
    let rate = RateTable;

    // Enumerate cells in render order (north row first), then evaluate
    // them in parallel: every cell builds a fresh system, so persistent
    // beam state cannot leak between unrelated positions and the result
    // does not depend on evaluation order.
    let steps = (5.0 / STEP) as i32;
    let mut grid = Vec::new();
    for gy in (1..steps).rev() {
        for gx in 1..steps {
            grid.push(Vec2::new(f64::from(gx) * STEP, f64::from(gy) * STEP));
        }
    }
    let snrs = pool_map(grid, available_threads(), move |_, &pos| {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        let yaw = pos.bearing_deg_to(Vec2::new(0.5, 2.5));
        let player = PlayerState::standing(pos, yaw).with_hand(with_hand);
        sys.evaluate(&WorldState::player_only(player)).snr_db
    });

    let width = (steps - 1) as usize;
    let cells = snrs.len();
    let vr_cells = snrs.iter().filter(|&&s| rate.supports_vr(s)).count();
    let rows: Vec<String> = snrs
        .chunks(width)
        .map(|row| row.iter().map(|&s| snr_char(s)).collect())
        .collect();

    println!(
        "\n=== player facing the AP{} ===",
        if with_hand { ", hand raised" } else { "" }
    );
    println!("legend: '#' ≥25 dB, '+' ≥{VR_REQUIRED_SNR_DB:.0} dB (VR-grade), ':' ≥8, '.' ≥0, ' ' outage");
    println!("A = AP (west wall), R = reflector (north wall)\n");
    for (i, row) in rows.iter().enumerate() {
        let mut line = row.clone();
        // Mark the AP and reflector rows approximately.
        if i == 0 {
            line.insert(3, 'R');
        }
        if i == rows.len() / 2 {
            line.insert(0, 'A');
        }
        println!("  {line}");
    }
    println!(
        "\nVR-grade cells: {vr_cells}/{cells} ({:.0}%)",
        vr_cells as f64 / cells as f64 * 100.0
    );
}

fn main() {
    println!("SNR coverage of the 5m x 5m office (player gaze toward the AP).");
    render(false);
    render(true);
    println!(
        "\nWith the hand raised the direct cone dies but the reflector keeps\n\
         most of the room VR-grade — the spatial version of the Fig. 9 CDFs."
    );
}
