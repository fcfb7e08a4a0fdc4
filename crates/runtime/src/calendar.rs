//! The event calendar and its canonical event key.
//!
//! Same-cycle events are ordered by [`EvKey`], a *canonical* total order
//! computed from the event's own identity: time, home processor, lane, and
//! per-(processor, lane) sequence counters that advance only while the
//! home processor's events execute. An order by global insertion sequence
//! (a FIFO tie-break) would be an artifact of one particular interleaving
//! of pushes: restoring a snapshot, or changing the order in which one
//! handler schedules its follow-ups, would reorder same-cycle events. With
//! the canonical key, an event's position depends only on what it is, not
//! on when it was pushed.
//!
//! Keys are globally unique (the lane counters and the strictly monotone
//! OBU depart times guarantee it), so the heap order is total and a pop
//! sequence is a pure function of the pushed set. Snapshots record the
//! pending set in this order, and the trace and report digests rely on it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use emx_core::{Cycle, PeId, SimError};

/// Lane of EXU dispatch events.
pub(crate) const LANE_DISPATCH: u8 = 0;
/// Lane of local (non-network) packet arrivals.
pub(crate) const LANE_LOCAL: u8 = 1;
/// Lane of retry-protocol timer events.
pub(crate) const LANE_RETRY: u8 = 2;
/// Lane of network packet arrivals.
pub(crate) const LANE_NET: u8 = 3;

/// Canonical identity and ordering of one scheduled event.
///
/// Ordering is lexicographic over the fields in declaration order: time,
/// then home processor, then lane, then the lane-specific discriminants.
/// Lanes separate the event sources on one processor at one cycle:
///
/// * lane 0 — dispatch events, `a` = the PE's dispatch push counter;
/// * lane 1 — local (non-network) arrivals, `a` = the PE's local counter;
/// * lane 2 — retry timers, `a` = the PE's retry counter;
/// * lane 3 — network arrivals, `a` = source PE, `b` = `2 * depart + dup`
///   (the sender's OBU depart cycle is strictly monotone per source, so the
///   pair is unique; `dup` distinguishes a duplicated delivery's copies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EvKey {
    /// Simulation time of the event.
    pub at: Cycle,
    /// Processor the event executes on.
    pub pe: u16,
    /// Event source lane; see the type docs.
    pub lane: u8,
    /// First lane discriminant.
    pub a: u64,
    /// Second lane discriminant.
    pub b: u64,
}

impl EvKey {
    /// The canonical key of a network arrival at `dst`, sent by `src` at
    /// OBU depart cycle `depart`; `dup` distinguishes the copies of a
    /// fault-duplicated delivery (0 for the first, 1 for the second).
    pub(crate) fn net(at: Cycle, dst: PeId, src: PeId, depart: Cycle, dup: u64) -> EvKey {
        EvKey {
            at,
            pe: dst.0,
            lane: LANE_NET,
            a: u64::from(src.0),
            b: depart.get() * 2 + dup,
        }
    }
}

/// One scheduled entry: key plus payload. Ordered by key alone.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: EvKey,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we pop the smallest key first.
        other.key.cmp(&self.key)
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event calendar ordered by [`EvKey`].
///
/// Mirrors the `EventQueue` contract: pops never go backwards in time, and
/// scheduling strictly before the last popped time is reported as
/// [`SimError::EventInPast`].
#[derive(Debug, Clone)]
pub(crate) struct Calendar<T> {
    heap: BinaryHeap<Entry<T>>,
    now: Cycle,
}

impl<T> Calendar<T> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            now: Cycle::ZERO,
        }
    }

    /// Schedule `payload` under `key`.
    pub fn push(&mut self, key: EvKey, payload: T) -> Result<(), SimError> {
        self.push_uncounted(key, payload)?;
        emx_hostprof::bump(emx_hostprof::Sim::CalPushes);
        Ok(())
    }

    /// [`Calendar::push`] without the hostprof counter — for re-inserting
    /// events restored from a snapshot, which were counted when first
    /// scheduled.
    fn push_uncounted(&mut self, key: EvKey, payload: T) -> Result<(), SimError> {
        if key.at < self.now {
            return Err(SimError::EventInPast {
                at: key.at.get(),
                now: self.now.get(),
            });
        }
        self.heap.push(Entry { key, payload });
        Ok(())
    }

    /// Remove and return the smallest-keyed event, advancing the clock.
    /// Counts the pop and classifies the event by lane when host
    /// profiling is enabled.
    pub fn pop(&mut self) -> Option<(EvKey, T)> {
        let e = self.heap.pop()?;
        debug_assert!(e.key.at >= self.now, "calendar time went backwards");
        self.now = e.key.at;
        emx_hostprof::count_lane(e.key.lane);
        Some((e.key, e.payload))
    }

    /// Key of the next event, if any.
    pub fn peek_key(&self) -> Option<EvKey> {
        self.heap.peek().map(|e| e.key)
    }

    /// The time of the most recently popped event.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// A sorted, non-consuming copy of every pending entry — the canonical
    /// pop order a snapshot records.
    pub fn entries_sorted(&self) -> Vec<(EvKey, T)>
    where
        T: Clone,
    {
        let mut v: Vec<(EvKey, T)> = self
            .heap
            .iter()
            .map(|e| (e.key, e.payload.clone()))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Rebuild a calendar mid-run: clock at `now`, `entries` pending.
    pub fn restore(now: Cycle, entries: Vec<(EvKey, T)>) -> Result<Calendar<T>, SimError> {
        let mut cal = Calendar {
            heap: BinaryHeap::new(),
            now,
        };
        for (key, payload) in entries {
            cal.push_uncounted(key, payload)?;
        }
        Ok(cal)
    }
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, pe: u16, lane: u8, a: u64, b: u64) -> EvKey {
        EvKey {
            at: Cycle::new(at),
            pe,
            lane,
            a,
            b,
        }
    }

    #[test]
    fn pops_in_canonical_key_order() {
        let mut c = Calendar::new();
        // Same cycle, shuffled push order: must come out sorted by
        // (pe, lane, a, b), not by insertion.
        c.push(key(5, 1, 3, 0, 9), "pe1-net").unwrap();
        c.push(key(5, 0, 1, 2, 0), "pe0-local-2").unwrap();
        c.push(key(5, 0, 0, 7, 0), "pe0-dispatch").unwrap();
        c.push(key(5, 0, 1, 1, 0), "pe0-local-1").unwrap();
        c.push(key(3, 9, 3, 4, 4), "earlier").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| c.pop().map(|(_, v)| v)).collect();
        assert_eq!(
            order,
            vec![
                "earlier",
                "pe0-dispatch",
                "pe0-local-1",
                "pe0-local-2",
                "pe1-net"
            ]
        );
    }

    #[test]
    fn rejects_events_in_the_past() {
        let mut c = Calendar::new();
        c.push(key(10, 0, 0, 0, 0), ()).unwrap();
        assert_eq!(c.pop().unwrap().0.at, Cycle::new(10));
        assert!(matches!(
            c.push(key(9, 0, 0, 1, 0), ()),
            Err(SimError::EventInPast { at: 9, now: 10 })
        ));
        // Scheduling exactly at `now` is allowed.
        c.push(key(10, 0, 0, 2, 0), ()).unwrap();
        assert_eq!(c.now(), Cycle::new(10));
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut c = Calendar::new();
        c.push(key(7, 2, 0, 0, 0), 'x').unwrap();
        c.push(key(4, 3, 2, 1, 0), 'y').unwrap();
        let head = c.peek_key().unwrap();
        assert_eq!((head.at, head.pe), (Cycle::new(4), 3));
        assert_eq!(c.pop().unwrap().1, 'y');
    }
}
