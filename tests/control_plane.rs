//! Control-plane integration: driving a reflector's knobs through the
//! Bluetooth-class channel with simulated time, the way the AP's
//! controller actually talks to the Arduino.

use movr::reflector::MovrReflector;
use movr_control::{ControlChannel, ControlMessage};
use movr_math::Vec2;
use movr_sim::SimTime;

/// Apply a delivered message to the device, as the Arduino firmware would.
fn apply(reflector: &mut MovrReflector, msg: ControlMessage) {
    match msg {
        ControlMessage::SetReflectorBeams { rx_deg, tx_deg } => {
            reflector.steer_rx(rx_deg);
            reflector.steer_tx(tx_deg);
        }
        ControlMessage::SetAmplifierGain { gain_db } => {
            reflector.set_gain_db(gain_db);
        }
        ControlMessage::StartModulation { .. } => reflector.set_modulating(true),
        ControlMessage::StopModulation => reflector.set_modulating(false),
        _ => {}
    }
}

#[test]
fn commands_arrive_in_order_and_take_effect() {
    let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 1);
    let mut channel = ControlChannel::ideal();

    let t0 = SimTime::ZERO;
    channel.send(t0, ControlMessage::SetReflectorBeams { rx_deg: -102.0, tx_deg: -45.0 });
    channel.send(t0, ControlMessage::SetAmplifierGain { gain_db: 25.0 });
    channel.send(t0, ControlMessage::StartModulation { freq_hz: 100e3 });

    // The controller drains the channel 100 ms later.
    let now = SimTime::from_millis(100);
    for (_, msg) in channel.deliveries(now) {
        apply(&mut reflector, msg);
    }
    assert!(movr_math::wrap_deg_180(reflector.rx_array().steering_deg() + 102.0).abs() < 1e-9);
    assert!(movr_math::wrap_deg_180(reflector.tx_array().steering_deg() + 45.0).abs() < 1e-9);
    assert_eq!(reflector.amplifier().gain_db(), 25.0);
    assert!(reflector.is_modulating());
}

#[test]
fn lossy_channel_just_delays_convergence() {
    // Commands may drop; a re-send loop still converges, and nothing is
    // applied before its delivery time.
    let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 2);
    let mut channel = ControlChannel::bluetooth(7);
    let target = ControlMessage::SetAmplifierGain { gain_db: 30.0 };

    let mut now;
    let mut applied_at = None;
    for round in 0..50 {
        now = SimTime::from_millis(round * 20);
        channel.send(now, target);
        let check = now + SimTime::from_millis(15);
        for (at, msg) in channel.deliveries(check) {
            assert!(at >= SimTime::from_millis(round * 20).saturating_since(SimTime::from_millis(20)));
            apply(&mut reflector, msg);
            applied_at.get_or_insert(at);
        }
        if reflector.amplifier().gain_db() == 30.0 {
            break;
        }
    }
    assert_eq!(reflector.amplifier().gain_db(), 30.0, "command never converged");
    let at = applied_at.expect("some delivery");
    // BLE-class latency: nothing arrives instantly.
    assert!(at >= SimTime::from_micros(7_500));
}

#[test]
fn sweep_command_traffic_fits_the_protocol_budget() {
    // A 21-beam windowed re-sweep sends 21 beam commands; at BLE latency
    // that is the dominant cost, matching the system's accounting.
    let mut channel = ControlChannel::ideal();
    channel.latency = SimTime::from_micros(7_500);
    let mut last_delivery = SimTime::ZERO;
    let mut t = SimTime::ZERO;
    for k in 0..21 {
        let deg = -80.0 + k as f64;
        // Next command goes out when the previous one was delivered
        // (stop-and-wait, as the Arduino protocol runs).
        let at = channel
            .send(t, ControlMessage::SetReflectorBeams { rx_deg: -102.0, tx_deg: deg })
            .expect("lossless");
        last_delivery = at;
        t = at;
    }
    let total = last_delivery.as_millis_f64();
    assert!((total - 21.0 * 7.5).abs() < 0.1, "total={total} ms");
    // Well beyond a 10 ms frame budget — the quantitative reason §6 wants
    // tracking-assisted realignment.
    assert!(total > 10.0);
}
