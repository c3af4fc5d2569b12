//! Bounded ring-buffer trace log: the newest `capacity` events survive;
//! older ones are overwritten (and counted) rather than growing memory.

use std::sync::Mutex;

use crate::event::{Event, TimedEvent};

/// Default event capacity of a [`TraceLog`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

#[derive(Debug, Default)]
struct Ring {
    buf: Vec<TimedEvent>,
    /// Index of the oldest retained event once the buffer is full.
    head: usize,
    /// Total events ever pushed (monotone; doubles as the next seq).
    pushed: u64,
    /// Events overwritten by wraparound.
    dropped: u64,
}

/// A bounded, thread-safe log of [`TimedEvent`]s.
#[derive(Debug)]
pub struct TraceLog {
    capacity: usize,
    ring: Mutex<Ring>,
}

/// Recover the guard from a poisoned mutex: the protected state is plain
/// data (no invariants spanning a panic), so continuing is always safe and
/// keeps the observer from ever aborting the observed system.
fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl TraceLog {
    /// A log retaining at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> TraceLog {
        TraceLog {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Append an event stamped `at_us`.
    pub fn push(&self, at_us: u64, event: Event) {
        let mut ring = lock_or_recover(&self.ring);
        let seq = ring.pushed;
        ring.pushed = ring.pushed.saturating_add(1);
        let ev = TimedEvent { at_us, seq, event };
        if ring.buf.len() < self.capacity {
            ring.buf.push(ev);
        } else {
            let head = ring.head;
            if let Some(slot) = ring.buf.get_mut(head) {
                *slot = ev;
            }
            // head < capacity <= usize::MAX, so the increment cannot wrap;
            // the modulo (capacity >= 1) keeps the cursor in range.
            ring.head = head.wrapping_add(1).checked_rem(self.capacity).unwrap_or(0);
            ring.dropped = ring.dropped.saturating_add(1);
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        let ring = lock_or_recover(&self.ring);
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(ring.buf.get(ring.head..).unwrap_or(&[]));
        out.extend_from_slice(ring.buf.get(..ring.head).unwrap_or(&[]));
        out
    }

    /// Total events ever pushed (retained + overwritten).
    pub fn pushed(&self) -> u64 {
        lock_or_recover(&self.ring).pushed
    }

    /// Events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        lock_or_recover(&self.ring).dropped
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Render the retained events as JSONL, one event per line, oldest
    /// first (trailing newline included when nonempty).
    pub fn to_jsonl(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len().saturating_mul(96));
        for ev in events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> Event {
        Event::SplitEnd {
            bucket: n,
            new_bucket: n,
        }
    }

    #[test]
    fn retains_everything_below_capacity() {
        let log = TraceLog::with_capacity(8);
        for i in 0..5 {
            log.push(i, ev(i));
        }
        let events = log.events();
        assert_eq!(events.len(), 5);
        assert_eq!(log.pushed(), 5);
        assert_eq!(log.dropped(), 0);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn wraparound_keeps_the_newest_in_order() {
        let log = TraceLog::with_capacity(4);
        for i in 0..10 {
            log.push(i * 10, ev(i));
        }
        let events = log.events();
        assert_eq!(events.len(), 4);
        assert_eq!(log.pushed(), 10);
        assert_eq!(log.dropped(), 6);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, newest retained");
        assert_eq!(events[0].at_us, 60);
    }

    #[test]
    fn jsonl_has_one_line_per_retained_event() {
        let log = TraceLog::with_capacity(2);
        for i in 0..3 {
            log.push(i, ev(i));
        }
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let log = TraceLog::with_capacity(0);
        log.push(1, ev(1));
        log.push(2, ev(2));
        assert_eq!(log.events().len(), 1);
        assert_eq!(log.events()[0].seq, 1);
    }
}
