//! Virtual-time event queue.
//!
//! A minimal, allocation-friendly priority queue of `(Time, E)` pairs. Events
//! scheduled for the same instant fire in the order they were scheduled
//! (FIFO), which keeps simulations deterministic without requiring the event
//! payload itself to be ordered.

use crate::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the queue. Ordered by `(time, seq)` ascending; `BinaryHeap` is
/// a max-heap, so the `Ord` implementation is reversed.
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: the entry with the *smallest* (time, seq) must be the
        // heap maximum so that `pop` yields events in chronological order.
        other
            .at
            .partial_cmp(&self.at)
            .expect("event times must not be NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue advancing a virtual clock.
///
/// ```
/// use cynthia_sim::events::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule_at(2.0, "b");
/// q.schedule_at(1.0, "a");
/// q.schedule_after(1.0, "a2"); // also at t=1.0, but after "a"
/// assert_eq!(q.pop(), Some((1.0, "a")));
/// assert_eq!(q.pop(), Some((1.0, "a2")));
/// assert_eq!(q.now(), 1.0);
/// assert_eq!(q.pop(), Some((2.0, "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Time,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at `0.0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is not finite or earlier than the current clock.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(at.is_finite(), "event time must be finite, got {at}");
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` `delay` seconds from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative or `now + delay` is not finite.
    pub fn schedule_after(&mut self, delay: Time, event: E) {
        // A NaN delay passes here and fails `schedule_at`'s finiteness check.
        assert!(
            delay >= 0.0 || delay.is_nan(),
            "delay must be non-negative, got {delay}"
        );
        self.schedule_at(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (the clock holds).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        crate::obs::event_popped();
        Some((entry.at, entry.event))
    }

    /// Timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Advances the clock to `t` without firing anything. Used by fluid-flow
    /// integration when the next state change is not queue-driven.
    ///
    /// # Panics
    /// Panics if `t` is in the past or beyond the next pending event.
    pub fn advance_to(&mut self, t: Time) {
        assert!(
            t >= self.now,
            "advance_to into the past: {t} < {}",
            self.now
        );
        if let Some(next) = self.peek_time() {
            assert!(
                t <= next + crate::EPS,
                "advance_to({t}) would skip a pending event at {next}"
            );
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_chronological_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, 3);
        q.schedule_at(1.0, 1);
        q.schedule_at(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(1.5, ());
        q.schedule_at(4.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 1.5);
        q.pop();
        assert_eq!(q.now(), 4.0);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, "first");
        q.pop();
        q.schedule_after(3.0, "second");
        assert_eq!(q.pop(), Some((5.0, "second")));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, ());
        q.pop();
        q.schedule_at(1.0, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn scheduling_at_infinity_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn scheduling_an_infinite_delay_panics() {
        let mut q = EventQueue::new();
        q.schedule_after(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn scheduling_at_nan_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(f64::NAN, ());
    }

    #[test]
    fn advance_to_moves_clock_without_firing() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(10.0, ());
        q.advance_to(7.0);
        assert_eq!(q.now(), 7.0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "skip a pending event")]
    fn advance_past_pending_event_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(1.0, ());
        q.advance_to(2.0);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 7u8);
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((1.0, 7u8)));
        assert!(q.is_empty());
    }
}
