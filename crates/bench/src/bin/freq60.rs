//! Extension — *24 GHz prototype vs 60 GHz 802.11ad deployment.*
//!
//! The paper's prototype runs in the 24 GHz ISM band, but the target
//! radio (802.11ad) lives at 60 GHz, where free-space loss is 8 dB
//! higher for the same aperture count. This bin quantifies what that
//! does to the link budget and how far larger arrays, which the shorter
//! wavelength packs into the same aperture, win it back on each path.
//! The conclusion is computed from the table: per path, the smallest
//! 60 GHz array that reaches VR grade and its gap to the 24 GHz row.
//!
//! ```sh
//! cargo run -p movr-bench --release --bin freq60
//! ```

use movr::reflector::MovrReflector;
use movr::relay::relay_link_on;
use movr_bench::{ap_position, figure_header, reflector_position};
use movr_math::{amplitude_to_db, Vec2};
use movr_phased_array::{PatchElement, PhaseShifter, SteeredArray, UniformLinearArray};
use movr_radio::{evaluate_link, RadioEndpoint, RateTable, VR_REQUIRED_SNR_DB};
use movr_rfsim::{Channel, NoiseModel, Room, Scene};

fn endpoint(pos: Vec2, bore: f64, elements: usize) -> RadioEndpoint {
    let arr = UniformLinearArray::new(
        elements,
        0.5,
        PatchElement::default(),
        PhaseShifter::default(),
    );
    RadioEndpoint::new(pos, SteeredArray::new(arr, bore), 0.0)
}

fn scenario(freq_hz: f64, elements: usize) -> (f64, f64) {
    let scene = Scene::new(
        Room::paper_office(),
        Channel::new(freq_hz),
        NoiseModel::ieee_802_11ad(),
    );
    let mut ap = endpoint(ap_position(), 20.0, elements);
    let hs_pos = Vec2::new(4.0, 2.5);
    let mut hs = endpoint(hs_pos, hs_pos.bearing_deg_to(ap_position()), elements);
    ap.steer_toward(hs.position());
    hs.steer_toward(ap.position());
    let direct = evaluate_link(&scene, &ap, &hs).snr_db;

    // MoVR path with the canonical reflector (same element count).
    let mut reflector = MovrReflector::wall_mounted(reflector_position(), -70.0, movr::system::PAPER_DEVICE_SEED);
    let mut ap_r = ap;
    ap_r.steer_toward(reflector.position());
    reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));
    reflector.steer_tx(reflector.position().bearing_deg_to(hs.position()));
    movr::gain_control::run_gain_control(
        &mut reflector,
        &movr::gain_control::GainControlConfig::default(),
    );
    let mut hs_r = hs;
    hs_r.steer_toward(reflector.position());
    let hop1 = scene.trace_link(ap_r.position(), reflector.position());
    let hop2 = scene.trace_link(reflector.position(), hs_r.position());
    let via = relay_link_on(&hop1, &hop2, &ap_r, &reflector, hs_r.array()).end_snr_db;
    (direct, via)
}

fn main() {
    print!("{}", figure_header(
        "Extension: carrier frequency",
        "the 24 GHz prototype vs a 60 GHz 802.11ad deployment",
    ));
    let rate = RateTable;

    println!(
        "\n{:<34} {:>10} {:>10} {:>8}",
        "configuration", "direct", "via MoVR", "VR-ok?"
    );
    println!("{}", "-".repeat(66));
    // 60 GHz rows in ascending element count, so the first one at VR
    // grade is the smallest array that gets there.
    let rows = [
        ("24 GHz, 10-element arrays", 24.0e9, 10),
        ("60.48 GHz, 10-element arrays", 60.48e9, 10),
        ("60.48 GHz, 16-element arrays", 60.48e9, 16),
        ("60.48 GHz, 24-element arrays", 60.48e9, 24),
    ];
    // (elements, [direct, via MoVR] SNR) per row, in table order.
    let mut measured = Vec::new();
    for (label, f, n) in rows {
        let (direct, via) = scenario(f, n);
        println!(
            "{:<34} {:>7.1} dB {:>7.1} dB {:>8}",
            label,
            direct,
            via,
            if rate.supports_vr(direct.max(via)) {
                "yes"
            } else {
                "NO"
            }
        );
        measured.push((n, [direct, via]));
    }

    println!("\n--- conclusion ---");
    println!(
        "Moving 24 → 60.48 GHz adds {:.1} dB of Friis loss per hop; VR grade\n\
         needs SNR ≥ {VR_REQUIRED_SNR_DB:.0} dB.",
        amplitude_to_db(60.48e9 / 24.0e9)
    );
    let (base_n, base) = measured[0];
    let at_60 = &measured[1..];
    for (p, path) in ["direct", "via MoVR"].into_iter().enumerate() {
        let (verdict, (n, snr)) = match at_60.iter().find(|(_, snr)| rate.supports_vr(snr[p])) {
            Some(&row) => ("the smallest 60 GHz array at VR grade has", row),
            None => (
                "no 60 GHz array reaches VR grade; the largest has",
                *at_60.last().expect("the table has 60 GHz rows"),
            ),
        };
        let gap = base[p] - snr[p];
        println!(
            "{path}: {verdict} {n} elements ({:.1} dB),\n  {:.1} dB {} the 24 GHz {base_n}-element row ({:.1} dB).",
            snr[p],
            gap.abs(),
            if gap >= 0.0 { "below" } else { "above" },
            base[p]
        );
    }
}
