//! The installation procedure, end to end.
//!
//! What actually happens when you stick a MoVR reflector to the wall
//! (§4.1: "the angle of incidence is measured once at installation"):
//!
//! 1. The AP pairs with the reflector over Bluetooth and commands it to
//!    start modulating (reliable stop-and-wait commands — the install
//!    runs over the real lossy control link).
//! 2. The backscatter sweep estimates the incidence angle; every
//!    reflector beam change is a control command with latency, loss and
//!    retries.
//! 3. The reflector's receive beam is parked on the estimated angle and
//!    the §4.2 gain-control loop finds the safe gain for a default
//!    transmit posture.
//! 4. The AP records the calibration; the link manager takes over.
//!
//! [`install_reflector`] returns both the calibration and an audit of
//! what it cost (wall-clock, command counts, retries) — the numbers an
//! installer cares about.

use crate::alignment::{estimate_incidence, AlignmentConfig, AlignmentResult};
use crate::gain_control::{run_gain_control, GainControlConfig, GainControlResult};
use crate::reflector::MovrReflector;
use movr_control::{CommandSession, ControlMessage, SessionStatus};
use movr_math::SimRng;
use movr_radio::RadioEndpoint;
use movr_rfsim::Scene;
use movr_sim::SimTime;

/// The outcome of installing one reflector.
#[derive(Debug, Clone)]
pub struct InstallReport {
    /// The §4.1 estimate (incidence + AP bearing + sweep audit).
    pub alignment: AlignmentResult,
    /// The §4.2 result at the parked posture.
    pub gain: GainControlResult,
    /// Wall-clock from pairing to ready.
    pub elapsed: SimTime,
    /// Control commands submitted (including the sweep's beam commands).
    pub commands: usize,
    /// Retransmissions the lossy link forced.
    pub retries: usize,
    /// True if every command was eventually acknowledged.
    pub converged: bool,
}

/// Installation knobs.
#[derive(Debug, Clone)]
pub struct InstallConfig {
    /// Alignment-sweep knobs (§4.1).
    pub alignment: AlignmentConfig,
    /// Gain-control knobs (§4.2).
    pub gain_control: GainControlConfig,
    /// Retries per control command before declaring the install failed.
    pub max_retries: u32,
}

impl Default for InstallConfig {
    fn default() -> Self {
        InstallConfig {
            alignment: AlignmentConfig::default(),
            gain_control: GainControlConfig::default(),
            max_retries: 5,
        }
    }
}

/// Sends one command through the session, driving it to resolution.
/// Returns the resolution time, or `None` if the command failed.
fn command(
    session: &mut CommandSession,
    now: SimTime,
    msg: ControlMessage,
) -> Option<SimTime> {
    assert!(session.submit(now, msg), "stop-and-wait misuse");
    let step = SimTime::from_millis(1);
    let deadline = now + SimTime::from_secs_f64(5.0);
    match session.drive_until_resolved(now, step, deadline) {
        (SessionStatus::Acked(at), _) => Some(at),
        _ => None,
    }
}

/// Runs the full installation of `reflector` against `ap` in `scene`,
/// over the control session `link`. On success the reflector is left
/// parked: receive beam on the estimated incidence angle, amplifier at
/// the safe gain.
pub fn install_reflector(
    scene: &Scene,
    ap: &RadioEndpoint,
    reflector: &mut MovrReflector,
    link: &mut CommandSession,
    config: &InstallConfig,
    rng: &mut SimRng,
) -> InstallReport {
    let mut now = SimTime::ZERO;
    let mut converged = true;

    // 1. Start modulation for the backscatter sweep.
    match command(link, now, ControlMessage::StartModulation { freq_hz: 100e3 }) {
        Some(at) => now = at,
        None => converged = false,
    }
    reflector.set_modulating(true);

    // 2. The sweep itself. `estimate_incidence` models the AP-side
    //    measurement; its beam commands ride the same control link, so
    //    the wall-clock is the sweep's own accounting plus the per-beam
    //    command traffic actually measured on the session.
    let alignment = estimate_incidence(scene, *ap, reflector.clone(), &config.alignment, rng);
    for &theta1 in config.alignment.reflector_codebook.beams() {
        match command(
            link,
            now,
            ControlMessage::SetReflectorBeams {
                rx_deg: theta1,
                tx_deg: theta1,
            },
        ) {
            Some(at) => now = at,
            None => {
                converged = false;
                now += SimTime::from_millis(50);
            }
        }
    }

    // 3. Stop modulating, park the beams on the estimate, run gain
    //    control.
    if let Some(at) = command(link, now, ControlMessage::StopModulation) {
        now = at;
    } else {
        converged = false;
    }
    reflector.set_modulating(false);
    match command(
        link,
        now,
        ControlMessage::SetReflectorBeams {
            rx_deg: alignment.reflector_angle_deg,
            tx_deg: alignment.reflector_angle_deg,
        },
    ) {
        Some(at) => now = at,
        None => converged = false,
    }
    reflector.steer_rx(alignment.reflector_angle_deg);
    reflector.steer_tx(alignment.reflector_angle_deg);

    if let Some(at) = command(link, now, ControlMessage::RunGainControl) {
        now = at;
    } else {
        converged = false;
    }
    let gain = run_gain_control(reflector, &config.gain_control);
    // The gain loop runs on the Arduino, one ADC read at a time.
    now += config.gain_control.ramp_time(gain.trace.len());
    if let Some(at) = command(
        link,
        now,
        ControlMessage::GainControlDone {
            gain_db: gain.chosen_gain_db,
        },
    ) {
        now = at;
    } else {
        converged = false;
    }

    let stats = link.stats();
    InstallReport {
        alignment,
        gain,
        elapsed: now,
        commands: stats.submitted,
        retries: stats.retries,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain_control::ADC_READ;
    use movr_control::ControlChannel;
    use movr_math::{wrap_deg_180, Vec2};
    use movr_phased_array::Codebook;

    fn setup() -> (Scene, RadioEndpoint, MovrReflector, InstallConfig) {
        let scene = Scene::paper_office();
        let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
        let reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 6);
        let truth = reflector.position().bearing_deg_to(ap.position());
        let truth_ap = ap.position().bearing_deg_to(reflector.position());
        let config = InstallConfig {
            alignment: AlignmentConfig {
                ap_codebook: Codebook::sweep(truth_ap - 8.0, truth_ap + 8.0, 1.0),
                reflector_codebook: Codebook::sweep(truth - 8.0, truth + 8.0, 1.0),
                ..Default::default()
            },
            ..Default::default()
        };
        (scene, ap, reflector, config)
    }

    #[test]
    fn install_over_clean_link_converges() {
        let (scene, ap, mut reflector, config) = setup();
        let mut link = CommandSession::new(ControlChannel::ideal(), ControlChannel::ideal(), 3);
        let mut rng = SimRng::seed_from_u64(1);
        let truth = reflector.position().bearing_deg_to(ap.position());

        let report = install_reflector(&scene, &ap, &mut reflector, &mut link, &config, &mut rng);
        assert!(report.converged);
        assert_eq!(report.retries, 0);
        assert!(
            wrap_deg_180(report.alignment.reflector_angle_deg - truth).abs() <= 2.0,
            "install estimate {} vs truth {truth}",
            report.alignment.reflector_angle_deg
        );
        // Device left parked and stable.
        assert!(!reflector.is_saturated());
        assert!(
            wrap_deg_180(reflector.rx_array().steering_deg() - report.alignment.reflector_angle_deg)
                .abs()
                < 1e-9
        );
        // 17 beam commands + 5 housekeeping commands.
        assert_eq!(report.commands, 17 + 5);
    }

    #[test]
    fn install_over_bluetooth_still_converges_and_costs_time() {
        let (scene, ap, mut reflector, config) = setup();
        let mut link = CommandSession::bluetooth(42, 5);
        let mut rng = SimRng::seed_from_u64(2);

        let report = install_reflector(&scene, &ap, &mut reflector, &mut link, &config, &mut rng);
        assert!(report.converged, "1% loss with 5 retries must converge");
        // ~22 commands × a BLE round trip (~17-20 ms) ≥ 350 ms.
        assert!(
            report.elapsed > SimTime::from_millis(300),
            "elapsed {}",
            report.elapsed
        );
        assert!(report.elapsed < SimTime::from_secs_f64(5.0));
    }

    #[test]
    fn the_ramp_is_charged_per_sensor_read() {
        // The same install with one sensor read per ramp step and with
        // three: the link draws and every command are the same, so the
        // two differ in elapsed time only by their ramps, each step
        // charged one ADC read per read it takes.
        let run = |reads_per_step| {
            let (scene, ap, mut reflector, mut config) = setup();
            config.gain_control.reads_per_step = reads_per_step;
            let mut link = CommandSession::bluetooth(42, 5);
            let mut rng = SimRng::seed_from_u64(2);
            install_reflector(&scene, &ap, &mut reflector, &mut link, &config, &mut rng)
        };
        let (one, three) = (run(1), run(3));
        let (steps_1, steps_3) = (one.gain.trace.len() as u64, three.gain.trace.len() as u64);
        assert!(steps_1 > 0 && steps_3 > 0);
        let read_ns = ADC_READ.as_nanos();
        assert_eq!(read_ns, 10_000);
        assert_eq!(
            i128::from(one.elapsed.as_nanos()) - i128::from(three.elapsed.as_nanos()),
            (i128::from(steps_1) - 3 * i128::from(steps_3)) * i128::from(read_ns),
            "{steps_1} steps of one read against {steps_3} of three"
        );
    }

    #[test]
    fn lossy_link_forces_retries_but_install_survives() {
        let (scene, ap, mut reflector, config) = setup();
        let mut forward = ControlChannel::bluetooth(9);
        forward.loss_probability = 0.30;
        let mut link = CommandSession::new(forward, ControlChannel::bluetooth(10), 8);
        let mut rng = SimRng::seed_from_u64(3);

        let report = install_reflector(&scene, &ap, &mut reflector, &mut link, &config, &mut rng);
        assert!(report.retries > 0, "30% loss must force retransmissions");
        assert!(report.converged);
        assert!(!reflector.is_saturated());
    }
}
