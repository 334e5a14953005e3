//! Reliable command delivery over the lossy control link.
//!
//! The Arduino protocol is stop-and-wait: the AP sends one command,
//! the firmware applies it and returns an [`ControlMessage::Ack`]; a
//! missing ack triggers a retransmission after a timeout, up to a retry
//! budget. Commands are idempotent (beam angles, gain values), so a
//! duplicated retransmission is harmless.
//!
//! [`CommandSession`] models both directions of the link and the
//! firmware's auto-ack, driven by explicit `poll(now)` calls from the
//! simulation loop — no hidden clocks.

use crate::channel::ControlChannel;
use crate::message::ControlMessage;
use movr_sim::SimTime;

/// The state of the in-flight command, as reported by `poll`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionStatus {
    /// Nothing in flight.
    Idle,
    /// A command is awaiting its ack.
    AwaitingAck,
    /// The command was acknowledged at this instant.
    Acked(SimTime),
    /// The retry budget is exhausted; the command failed.
    Failed,
}

/// Cumulative protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Commands submitted.
    pub submitted: usize,
    /// Transmissions (first sends + retransmissions).
    pub transmissions: usize,
    /// Retransmissions alone.
    pub retries: usize,
    /// Commands acknowledged.
    pub acked: usize,
    /// Commands failed after exhausting retries.
    pub failed: usize,
}

#[derive(Debug, Clone)]
struct Outstanding {
    msg: ControlMessage,
    sent_at: SimTime,
    retries_left: u32,
    acked_at: Option<SimTime>,
    failed: bool,
}

/// A bidirectional stop-and-wait command session AP ↔ reflector.
#[derive(Debug, Clone)]
pub struct CommandSession {
    forward: ControlChannel,
    reverse: ControlChannel,
    /// Retransmission timeout.
    pub timeout: SimTime,
    /// Retransmissions allowed per command.
    pub max_retries: u32,
    outstanding: Option<Outstanding>,
    /// Every command the firmware applied, in order (duplicates appear
    /// twice: commands are idempotent, the record is for inspection).
    applied: Vec<(SimTime, ControlMessage)>,
    stats: SessionStats,
}

impl CommandSession {
    /// A session over the given channels. A sensible timeout is a bit
    /// over twice the worst one-way latency.
    pub fn new(forward: ControlChannel, reverse: ControlChannel, max_retries: u32) -> Self {
        let timeout_ns =
            2 * forward.max_latency().as_nanos() + 2 * reverse.max_latency().as_nanos() + 1_000_000;
        CommandSession {
            forward,
            reverse,
            timeout: SimTime::from_nanos(timeout_ns),
            max_retries,
            outstanding: None,
            applied: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// A session over symmetric Bluetooth-class channels.
    pub fn bluetooth(seed: u64, max_retries: u32) -> Self {
        CommandSession::new(
            ControlChannel::bluetooth(seed),
            ControlChannel::bluetooth(seed.wrapping_add(1)),
            max_retries,
        )
    }

    /// Commands the firmware has applied so far.
    pub fn applied(&self) -> &[(SimTime, ControlMessage)] {
        &self.applied
    }

    /// Protocol counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Submits a command at `now`. Returns `false` (and does nothing) if
    /// another command is still in flight — stop-and-wait means one at a
    /// time.
    pub fn submit(&mut self, now: SimTime, msg: ControlMessage) -> bool {
        if matches!(
            self.outstanding,
            Some(Outstanding {
                acked_at: None,
                failed: false,
                ..
            })
        ) {
            return false;
        }
        self.stats.submitted += 1;
        self.stats.transmissions += 1;
        self.forward.send(now, msg);
        self.outstanding = Some(Outstanding {
            msg,
            sent_at: now,
            retries_left: self.max_retries,
            acked_at: None,
            failed: false,
        });
        true
    }

    /// Advances the protocol to `now`: delivers forward commands to the
    /// firmware (which acks), delivers acks back, retransmits on
    /// timeout. Returns the current status.
    pub fn poll(&mut self, now: SimTime) -> SessionStatus {
        // Firmware side: apply every delivered command, ack each.
        for (at, msg) in self.forward.deliveries(now) {
            self.applied.push((at, msg));
            self.reverse.send(at, ControlMessage::Ack);
        }
        // AP side: consume acks.
        let acks = self.reverse.deliveries(now);
        if let Some(out) = &mut self.outstanding {
            if out.acked_at.is_none() && !out.failed {
                if let Some(&(at, _)) = acks.first() {
                    out.acked_at = Some(at);
                    self.stats.acked += 1;
                } else if now.saturating_since(out.sent_at) >= self.timeout {
                    if out.retries_left == 0 {
                        out.failed = true;
                        self.stats.failed += 1;
                    } else {
                        out.retries_left -= 1;
                        out.sent_at = now;
                        self.stats.retries += 1;
                        self.stats.transmissions += 1;
                        self.forward.send(now, out.msg);
                    }
                }
            }
        }
        match &self.outstanding {
            None => SessionStatus::Idle,
            Some(o) if o.failed => SessionStatus::Failed,
            Some(o) => match o.acked_at {
                Some(at) => SessionStatus::Acked(at),
                None => SessionStatus::AwaitingAck,
            },
        }
    }

    /// Runs `poll` repeatedly at `step` intervals until the in-flight
    /// command resolves (acked/failed) or `deadline` passes. Returns the
    /// final status and the time of resolution.
    pub fn drive_until_resolved(
        &mut self,
        mut now: SimTime,
        step: SimTime,
        deadline: SimTime,
    ) -> (SessionStatus, SimTime) {
        loop {
            let status = self.poll(now);
            match status {
                SessionStatus::Acked(_) | SessionStatus::Failed | SessionStatus::Idle => {
                    return (status, now);
                }
                SessionStatus::AwaitingAck if now >= deadline => {
                    return (status, now);
                }
                _ => now += step,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_session() -> CommandSession {
        CommandSession::new(ControlChannel::ideal(), ControlChannel::ideal(), 3)
    }

    fn cmd() -> ControlMessage {
        ControlMessage::SetAmplifierGain { gain_db: 30.0 }
    }

    #[test]
    fn ideal_channel_acks_immediately() {
        let mut s = ideal_session();
        assert!(s.submit(SimTime::ZERO, cmd()));
        let status = s.poll(SimTime::ZERO);
        assert!(matches!(status, SessionStatus::Acked(_)));
        assert_eq!(s.applied().len(), 1);
        assert_eq!(s.stats().retries, 0);
    }

    #[test]
    fn stop_and_wait_rejects_concurrent_commands() {
        let mut s = CommandSession::bluetooth(1, 3);
        assert!(s.submit(SimTime::ZERO, cmd()));
        assert!(!s.submit(SimTime::from_millis(1), ControlMessage::StopModulation));
        // After the ack, a new command is accepted.
        let (status, t) = s.drive_until_resolved(
            SimTime::from_millis(1),
            SimTime::from_millis(1),
            SimTime::from_millis(500),
        );
        assert!(matches!(status, SessionStatus::Acked(_)), "{status:?}");
        assert!(s.submit(t + SimTime::from_millis(1), ControlMessage::StopModulation));
    }

    #[test]
    fn bluetooth_ack_takes_a_round_trip() {
        let mut s = CommandSession::bluetooth(2, 3);
        s.submit(SimTime::ZERO, cmd());
        let (status, _) = s.drive_until_resolved(
            SimTime::ZERO,
            SimTime::from_millis(1),
            SimTime::from_millis(500),
        );
        match status {
            SessionStatus::Acked(at) => {
                // Two BLE hops: at least 15 ms.
                assert!(at >= SimTime::from_millis(15), "at={at}");
                assert!(at <= SimTime::from_millis(25), "at={at}");
            }
            other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn lossy_link_retries_until_acked() {
        // Very lossy forward channel: retries must kick in, and with a
        // generous budget every command still lands. Several commands run
        // back-to-back so the test doesn't hinge on one 40 % first-try
        // success: at 60 % loss, the odds all eight first sends get
        // through are under 0.1 %.
        let mut forward = ControlChannel::bluetooth(7);
        forward.loss_probability = 0.6;
        let mut s = CommandSession::new(forward, ControlChannel::ideal(), 50);
        let mut now = SimTime::ZERO;
        for _ in 0..8 {
            assert!(s.submit(now, cmd()));
            let (status, resolved_at) = s.drive_until_resolved(
                now,
                SimTime::from_millis(1),
                now + SimTime::from_secs_f64(10.0),
            );
            assert!(matches!(status, SessionStatus::Acked(_)), "{status:?}");
            now = resolved_at + SimTime::from_millis(1);
        }
        let stats = s.stats();
        assert!(stats.retries > 0, "loss at 60% must force retries");
        assert_eq!(stats.transmissions, stats.submitted + stats.retries);
        assert_eq!(stats.acked, stats.submitted);
        assert!(s.applied().len() >= 8);
    }

    #[test]
    fn exhausted_retries_fail() {
        let mut forward = ControlChannel::bluetooth(3);
        forward.loss_probability = 1.0; // black hole
        let mut s = CommandSession::new(forward, ControlChannel::ideal(), 2);
        s.submit(SimTime::ZERO, cmd());
        let (status, _) = s.drive_until_resolved(
            SimTime::ZERO,
            SimTime::from_millis(5),
            SimTime::from_secs_f64(5.0),
        );
        assert_eq!(status, SessionStatus::Failed);
        let stats = s.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.transmissions, 3); // 1 send + 2 retries
        assert_eq!(stats.transmissions, stats.submitted + stats.retries);
        assert_eq!(stats.acked, 0);
        assert!(s.applied().is_empty());
    }

    #[test]
    fn duplicates_are_possible_but_recorded() {
        // Lossy *reverse* channel: the command applies but the ack dies,
        // forcing a retransmission the firmware applies again — which is
        // fine because commands are idempotent.
        let mut reverse = ControlChannel::bluetooth(4);
        reverse.loss_probability = 1.0;
        let mut s = CommandSession::new(ControlChannel::ideal(), reverse, 2);
        s.submit(SimTime::ZERO, cmd());
        let (status, _) = s.drive_until_resolved(
            SimTime::ZERO,
            SimTime::from_millis(5),
            SimTime::from_secs_f64(5.0),
        );
        assert_eq!(status, SessionStatus::Failed, "acks never return");
        assert!(s.applied().len() >= 2, "retransmissions re-apply");
        let first = s.applied()[0].1;
        assert!(s.applied().iter().all(|&(_, m)| m == first));
    }

    #[test]
    fn sweep_of_commands_completes() {
        // Sequence 21 beam commands through the reliable layer, as the
        // install sweep does, and verify all arrive in order.
        let mut s = CommandSession::bluetooth(9, 5);
        let mut now = SimTime::ZERO;
        for k in 0..21 {
            let msg = ControlMessage::SetReflectorBeams {
                rx_deg: -102.0,
                tx_deg: -80.0 + k as f64,
            };
            assert!(s.submit(now, msg));
            let (status, t) = s.drive_until_resolved(
                now,
                SimTime::from_millis(1),
                now + SimTime::from_secs_f64(2.0),
            );
            assert!(matches!(status, SessionStatus::Acked(_)));
            now = t + SimTime::from_millis(1);
        }
        // All 21 applied (duplicates allowed), in non-decreasing tx order.
        let applied = s.applied();
        assert!(applied.len() >= 21);
        let mut last_tx = f64::NEG_INFINITY;
        for &(_, m) in applied {
            if let ControlMessage::SetReflectorBeams { tx_deg, .. } = m {
                assert!(tx_deg >= last_tx - 1e-9);
                last_tx = last_tx.max(tx_deg);
            }
        }
    }
}
