//! Analog front-end component models.
//!
//! MoVR's reflector is *analog only*: two phased arrays joined by a
//! variable-gain amplifier and a DC current sensor — no transmit or
//! receive baseband chains (paper §4). Everything the gain control
//! algorithm can observe and actuate is modelled here:
//!
//! * [`amplifier`] — the PA/LNA/attenuator chain as one variable-gain
//!   amplifier with a saturation knee and the supply-current signature the
//!   paper's algorithm exploits: amplifiers "draw significantly higher
//!   current as they get close to saturation mode" (§4.2).
//! * [`sensor`] — the INA169-class DC current sensor with quantisation
//!   and measurement noise.
//! * [`leakage`] — the TX→RX antenna leakage surface, which varies by
//!   ~20 dB with the beam angles (Fig. 7).
//! * [`feedback`] — closed-loop analysis of the amplify-leak-feedback
//!   loop: stable iff `G_dB − L_dB < 0`.

pub mod amplifier;
pub mod feedback;
pub mod leakage;
pub mod sensor;

pub use amplifier::VariableGainAmplifier;
pub use feedback::FeedbackLoop;
pub use leakage::LeakageSurface;
pub use sensor::CurrentSensor;
