//! The event queue.
//!
//! [`EventQueue`] orders typed events by time with FIFO tie-breaking (two
//! events scheduled for the same instant pop in scheduling order — this
//! keeps simulations deterministic). The caller owns the dispatch loop:
//!
//! ```
//! use movr_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { FrameDeadline, BeamRealigned }
//!
//! let mut q = EventQueue::new();
//! q.schedule_in(SimTime::from_millis(11), Ev::FrameDeadline);
//! q.schedule_in(SimTime::from_micros(2), Ev::BeamRealigned);
//!
//! let (t, ev) = q.next().unwrap();
//! assert_eq!(ev, Ev::BeamRealigned);
//! assert_eq!(t, SimTime::from_micros(2));
//! assert_eq!(q.now(), t); // the clock advanced
//! ```

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // among equal times, lowest sequence number first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue with a monotonic clock.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event
    /// (or zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — an event that should already have
    /// happened is a simulation bug, not a recoverable condition.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    /// (Deliberately named like `Iterator::next`; the queue is the
    /// simulation's event source and this is its idiomatic verb.)
    #[allow(clippy::should_implement_trait)] // lint: Iterator would lose the (SimTime, E) clock-advance contract
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "heap produced a past event");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pops the earliest event only if it is due at or before `deadline`.
    /// The clock never advances past `deadline` via this method.
    pub fn next_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.next(),
            _ => None,
        }
    }

    /// Pending events in the exact order [`EventQueue::next`] would pop
    /// them: ascending timestamp, FIFO among equal timestamps. This is the
    /// canonical serialization order for checkpoints — a queue rebuilt
    /// from this list with [`EventQueue::restore`] pops identically.
    pub fn pending_in_pop_order(&self) -> Vec<(SimTime, &E)> {
        let mut entries: Vec<&Scheduled<E>> = self.heap.iter().collect();
        entries.sort_by_key(|s| (s.at, s.seq));
        entries.into_iter().map(|s| (s.at, &s.event)).collect()
    }

    /// Rebuilds a queue from a clock value and events listed in pop order
    /// (as produced by [`EventQueue::pending_in_pop_order`]). Sequence
    /// numbers are re-minted `0..n` in list order, so FIFO ties are
    /// preserved even though the original counters are not stored.
    ///
    /// Returns an error instead of panicking when an event predates `now`
    /// — restore input is external data (a snapshot file), not a
    /// simulation invariant.
    pub fn restore(
        now: SimTime,
        events: Vec<(SimTime, E)>,
    ) -> Result<Self, PastEventError> {
        let mut q = EventQueue {
            heap: BinaryHeap::with_capacity(events.len()),
            now,
            seq: 0,
        };
        for (at, event) in events {
            if at < now {
                return Err(PastEventError { at, now });
            }
            q.heap.push(Scheduled {
                at,
                seq: q.seq,
                event,
            });
            q.seq += 1;
        }
        Ok(q)
    }
}

/// Error from [`EventQueue::restore`]: an event timestamp predates the
/// restored clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PastEventError {
    /// The offending event's timestamp.
    pub at: SimTime,
    /// The clock value being restored.
    pub now: SimTime,
}

impl std::fmt::Display for PastEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pending event at {} predates restored clock {}",
            self.at, self.now
        )
    }
}

impl std::error::Error for PastEventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        assert_eq!(q.next().unwrap().1, "a");
        assert_eq!(q.next().unwrap().1, "b");
        assert_eq!(q.next().unwrap().1, "c");
        assert!(q.next().is_none());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.next().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.next();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "first");
        q.next();
        q.schedule_in(SimTime::from_millis(5), "second");
        let (t, _) = q.next().unwrap();
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.next();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn next_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "early");
        q.schedule_at(SimTime::from_millis(30), "late");
        assert_eq!(
            q.next_until(SimTime::from_millis(20)).unwrap().1,
            "early"
        );
        assert!(q.next_until(SimTime::from_millis(20)).is_none());
        assert_eq!(q.pending_in_pop_order().len(), 1);
        // Clock has not run past the deadline.
        assert_eq!(q.now(), SimTime::from_millis(10));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.pending_in_pop_order().len(), 1);
    }

    #[test]
    fn equal_time_events_serialize_in_fifo_order() {
        // Pin the tie-break before trusting serialization: events at one
        // instant must list (and round-trip) in scheduling order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(9);
        q.schedule_at(SimTime::from_millis(20), "late");
        for name in ["first", "second", "third"] {
            q.schedule_at(t, name);
        }
        let listed: Vec<&str> = q.pending_in_pop_order().iter().map(|&(_, &e)| e).collect();
        assert_eq!(listed, ["first", "second", "third", "late"]);
    }

    #[test]
    fn restore_round_trip_preserves_pop_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(4), "a");
        q.next(); // advance the clock so `now` is non-trivial
        let t = SimTime::from_millis(12);
        q.schedule_at(t, "x");
        q.schedule_at(SimTime::from_millis(30), "z");
        q.schedule_at(t, "y");

        let dumped: Vec<(SimTime, &str)> = q
            .pending_in_pop_order()
            .into_iter()
            .map(|(at, &e)| (at, e))
            .collect();
        let mut restored = EventQueue::restore(q.now(), dumped).unwrap();
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.pending_in_pop_order(), q.pending_in_pop_order());
        let mut orig_pops = Vec::new();
        let mut rest_pops = Vec::new();
        while let Some(p) = q.next() {
            orig_pops.push(p);
        }
        while let Some(p) = restored.next() {
            rest_pops.push(p);
        }
        assert_eq!(orig_pops, rest_pops);
    }

    #[test]
    fn restore_rejects_past_events_without_panicking() {
        let err = match EventQueue::restore(
            SimTime::from_millis(10),
            vec![(SimTime::from_millis(5), ())],
        ) {
            Ok(_) => panic!("past event must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.at, SimTime::from_millis(5));
        assert_eq!(err.now, SimTime::from_millis(10));
        // The message is actionable for snapshot debugging.
        assert!(format!("{err}").contains("predates"));
    }

    #[test]
    fn interleaved_scheduling_stays_deterministic() {
        // Simulate two periodic processes; order must be reproducible.
        let run = || {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            q.schedule_at(SimTime::ZERO, 'a');
            q.schedule_at(SimTime::ZERO, 'b');
            while let Some((t, ev)) = q.next() {
                log.push((t, ev));
                if log.len() >= 20 {
                    break;
                }
                let period = if ev == 'a' { 3 } else { 5 };
                q.schedule_in(SimTime::from_millis(period), ev);
            }
            log
        };
        assert_eq!(run(), run());
    }
}
