//! Control-protocol messages.
//!
//! The vocabulary exchanged over the AP↔reflector Bluetooth link and the
//! AP↔headset side channel. Messages are deliberately small and concrete:
//! each corresponds to an action the paper's protocol takes.

/// A control-plane message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlMessage {
    /// AP → reflector: steer the receive and transmit beams (absolute
    /// bearings, degrees). Used at every step of the alignment sweep and
    /// when switching to serve the headset.
    SetReflectorBeams {
        /// Receive-beam bearing, degrees.
        rx_deg: f64,
        /// Transmit-beam bearing, degrees.
        tx_deg: f64,
    },
    /// AP → reflector: command the amplifier gain (dB).
    SetAmplifierGain {
        /// Commanded amplifier gain, dB.
        gain_db: f64,
    },
    /// AP → reflector: start on/off modulating the amplifier at `freq_hz`
    /// for the backscatter measurement.
    StartModulation {
        /// On/off modulation frequency, Hz.
        freq_hz: f64,
    },
    /// AP → reflector: stop modulating (serve data).
    StopModulation,
    /// AP → reflector: run the current-sensing gain-control loop now.
    RunGainControl,
    /// Reflector → AP: gain control finished; the chosen safe gain.
    GainControlDone {
        /// The safe gain the loop settled on, dB.
        gain_db: f64,
    },
    /// Headset → AP: periodic SNR report (the §4.1 trigger for
    /// re-measurement when SNR degrades).
    SnrReport {
        /// Measured link SNR at the headset, dB.
        snr_db: f64,
    },
    /// AP → headset: steer the headset's receive beam.
    SetHeadsetBeam {
        /// Receive-beam bearing for the headset array, degrees.
        rx_deg: f64,
    },
    /// Either direction: positive acknowledgement of the last command.
    Ack,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_carries_payload() {
        assert_eq!(
            ControlMessage::SnrReport { snr_db: 1.0 },
            ControlMessage::SnrReport { snr_db: 1.0 }
        );
        assert_ne!(
            ControlMessage::SnrReport { snr_db: 1.0 },
            ControlMessage::SnrReport { snr_db: 2.0 }
        );
    }
}
