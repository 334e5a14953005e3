//! Bluetooth-LE-class message delivery.
//!
//! A BLE connection delivers small PDUs once per connection event; with a
//! short connection interval that is a per-message latency of a few
//! milliseconds to ~10 ms, with jitter and occasional loss. The channel
//! model is a delay queue: `send` stamps a delivery time (or drops the
//! message), `deliveries` hands back everything due, in delivery order.
//!
//! Latency here is what makes control-plane round trips *expensive*
//! relative to the 10 ms frame budget — the quantitative reason §6 wants
//! tracking-assisted realignment instead of chatty full sweeps.

use crate::message::ControlMessage;
use movr_math::SimRng;
use movr_sim::SimTime;

/// A lossy, delayed control link.
///
/// ```
/// use movr_control::{ControlChannel, ControlMessage};
/// use movr_sim::SimTime;
///
/// let mut ch = ControlChannel::bluetooth(1);
/// let sent_at = SimTime::ZERO;
/// if let Some(arrives) = ch.send(sent_at, ControlMessage::StopModulation) {
///     // BLE-class latency: several milliseconds, never instant.
///     assert!(arrives >= SimTime::from_micros(7_500));
///     assert!(ch.deliveries(arrives).len() == 1);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ControlChannel {
    /// Median one-way latency.
    pub latency: SimTime,
    /// Uniform jitter added on top, up to this much.
    pub jitter: SimTime,
    /// Probability a message is lost outright.
    pub loss_probability: f64,
    rng: SimRng,
    in_flight: Vec<(SimTime, u64, ControlMessage)>,
    seq: u64,
}

impl ControlChannel {
    /// A BLE-class link: 7.5 ms latency, up to 2.5 ms jitter, 1 % loss.
    pub fn bluetooth(seed: u64) -> Self {
        ControlChannel {
            latency: SimTime::from_micros(7_500),
            jitter: SimTime::from_micros(2_500),
            loss_probability: 0.01,
            rng: SimRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            seq: 0,
        }
    }

    /// A perfect, instant link (for oracles and unit tests).
    pub fn ideal() -> Self {
        ControlChannel {
            latency: SimTime::ZERO,
            jitter: SimTime::ZERO,
            loss_probability: 0.0,
            rng: SimRng::seed_from_u64(0),
            in_flight: Vec::new(),
            seq: 0,
        }
    }

    /// Sends a message at `now`. Returns the delivery time, or `None` if
    /// the message was lost.
    pub fn send(&mut self, now: SimTime, msg: ControlMessage) -> Option<SimTime> {
        if self.rng.chance(self.loss_probability) {
            return None;
        }
        let jitter_ns = if self.jitter == SimTime::ZERO {
            0
        } else {
            movr_math::convert::f64_to_u64(
                self.rng
                    .uniform(0.0, movr_math::convert::u64_to_f64(self.jitter.as_nanos())),
            )
        };
        let at = now + self.latency + SimTime::from_nanos(jitter_ns);
        self.in_flight.push((at, self.seq, msg));
        self.seq += 1;
        Some(at)
    }

    /// Messages due at or before `now`, in (time, send-order) order.
    pub fn deliveries(&mut self, now: SimTime) -> Vec<(SimTime, ControlMessage)> {
        let mut due: Vec<(SimTime, u64, ControlMessage)> = Vec::new();
        self.in_flight.retain(|&(at, seq, msg)| {
            if at <= now {
                due.push((at, seq, msg));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|&(at, seq, _)| (at, seq));
        due.into_iter().map(|(at, _, msg)| (at, msg)).collect()
    }

    /// The worst-case one-way latency (median + full jitter).
    pub fn max_latency(&self) -> SimTime {
        self.latency + self.jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_channel_delivers_instantly() {
        let mut ch = ControlChannel::ideal();
        let now = SimTime::from_millis(5);
        let at = ch.send(now, ControlMessage::Ack).unwrap();
        assert_eq!(at, now);
        let d = ch.deliveries(now);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, ControlMessage::Ack);
        // Nothing is left in flight.
        assert!(ch.deliveries(SimTime::from_nanos(u64::MAX)).is_empty());
    }

    #[test]
    fn bluetooth_latency_band() {
        // 1000 sends at 1% loss: expect ~10 drops. The band below is
        // ±6 sigma, so the test is robust to the particular seed rather
        // than pinned to one lucky draw sequence.
        let mut ch = ControlChannel::bluetooth(1);
        let total = 1000;
        let mut delivered = 0;
        for i in 0..total {
            let now = SimTime::from_millis(i * 50);
            if let Some(at) = ch.send(now, ControlMessage::Ack) {
                let lat = (at - now).as_secs_f64();
                assert!((0.0075..=0.0101).contains(&lat), "lat={lat}");
                delivered += 1;
            }
        }
        // ~1% loss: overwhelming majority delivered, but not all.
        assert!(delivered >= total - 30, "delivered={delivered}");
        assert!(delivered < total, "some loss expected at 1%");
    }

    #[test]
    fn not_due_until_latency_elapses() {
        let mut ch = ControlChannel::bluetooth(2);
        let now = SimTime::ZERO;
        ch.send(now, ControlMessage::StopModulation).unwrap();
        assert!(ch.deliveries(SimTime::from_millis(5)).is_empty());
        let d = ch.deliveries(SimTime::from_millis(15));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn deliveries_preserve_order() {
        let mut ch = ControlChannel::ideal();
        for i in 0..10 {
            ch.send(
                SimTime::from_millis(i),
                ControlMessage::SetAmplifierGain { gain_db: i as f64 },
            );
        }
        let d = ch.deliveries(SimTime::from_millis(100));
        assert_eq!(d.len(), 10);
        for (i, (_, msg)) in d.iter().enumerate() {
            assert_eq!(
                *msg,
                ControlMessage::SetAmplifierGain { gain_db: i as f64 }
            );
        }
    }

    #[test]
    fn lossless_when_probability_zero() {
        let mut ch = ControlChannel::ideal();
        for _ in 0..1000 {
            assert!(ch.send(SimTime::ZERO, ControlMessage::Ack).is_some());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut ch = ControlChannel::bluetooth(seed);
            (0..100)
                .map(|i| ch.send(SimTime::from_millis(i), ControlMessage::Ack))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn max_latency() {
        let ch = ControlChannel::bluetooth(0);
        assert_eq!(ch.max_latency(), SimTime::from_micros(10_000));
    }
}
