//! Extension — *around-the-corner coverage in a non-convex room.*
//!
//! In an L-shaped studio, a player in one leg has **no** line of sight to
//! an AP in the other — no beam sweep can fix a wall. A MoVR reflector
//! mounted within sight of both legs relays around the corner: coverage
//! that simply does not exist without it. (Fig. 2's blockage scenarios
//! are transient; a corner is permanent.)
//!
//! ```sh
//! cargo run -p movr-bench --release --bin lshape
//! ```

use movr::reflector::MovrReflector;
use movr::system::{LinkMode, MovrSystem, SystemConfig};
use movr_bench::figure_header;
use movr_math::Vec2;
use movr_motion::{PlayerState, WorldState};
use movr_radio::{RadioEndpoint, RateTable};
use movr_rfsim::{Channel, NoiseModel, Room, Scene};

fn main() {
    print!("{}", figure_header(
        "Extension: L-shaped studio",
        "around-the-corner service via a corner-mounted reflector",
    ));

    // AP in the north leg; the east leg is behind the notch corner.
    let scene = Scene::new(
        Room::l_shaped_studio(),
        Channel::new(24.0e9),
        NoiseModel::ieee_802_11ad(),
    );
    let ap = RadioEndpoint::paper_radio(Vec2::new(1.5, 4.5), -70.0);
    let mut sys = MovrSystem::new(scene, ap, SystemConfig::default());
    // South-wall mount that sees both legs, boresight split between the
    // AP direction and the deepest east-leg spots.
    sys.add_reflector(MovrReflector::wall_mounted(Vec2::new(3.0, 0.25), 75.0, 3));

    let rate = RateTable;
    // Players in the east leg, gazing generally south-west (the reflector
    // side — in this room the scene anchor would be placed there too).
    let spots = [
        Vec2::new(3.8, 1.5),
        Vec2::new(4.2, 2.0),
        Vec2::new(4.5, 1.0),
        Vec2::new(4.3, 2.5),
    ];

    println!(
        "\n{:>12} {:>12} {:>12} {:>10} {:>8}",
        "player", "direct SNR", "MoVR SNR", "mode", "VR-ok?"
    );
    println!("{}", "-".repeat(60));
    let mut rescued = 0;
    for pos in spots {
        let yaw = pos.bearing_deg_to(Vec2::new(3.0, 0.25));
        let player = PlayerState::standing(pos, yaw);
        let world = WorldState::player_only(player);
        let direct = sys.evaluate_direct(&world);
        let d = sys.evaluate(&world);
        if rate.supports_vr(d.snr_db) {
            rescued += 1;
        }
        println!(
            "({:>3.1},{:>3.1}) {:>9.1} dB {:>9.1} dB {:>10} {:>8}",
            pos.x,
            pos.y,
            direct,
            d.snr_db,
            match d.mode {
                LinkMode::Direct => "direct",
                LinkMode::Reflector(_) => "reflector",
            },
            if rate.supports_vr(d.snr_db) { "yes" } else { "NO" }
        );
    }

    println!("\n--- conclusion ---");
    println!(
        "The corner leaves every east-leg spot far below VR grade on the\n\
         direct path (outage, or a weak wall bounce at best); the single\n\
         reflector serves {rescued}/{} at VR grade — the holdout sits at the\n\
         mount's scan edge, which a second mount (see the `coverage`\n\
         planner) covers. Programmable reflectors generalise MoVR from\n\
         blockage *mitigation* to coverage *construction*.",
        spots.len()
    );
}
