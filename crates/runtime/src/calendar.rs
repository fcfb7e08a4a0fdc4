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
//! OBU depart times guarantee it), so the key order is total and a pop
//! sequence is a pure function of the pushed set. Snapshots record the
//! pending set in this order, and the trace and report digests rely on it.
//!
//! # Three tiers
//!
//! The calendar is a calendar queue (Brown, CACM 1988) with one-cycle
//! buckets. A pending event lives in exactly one of three tiers, chosen
//! when it is pushed by how far ahead of `now` (the last popped cycle) it
//! is:
//!
//! * **`cur`** — the events at `now`, kept sorted by descending key so the
//!   smallest pops from the end. A push at `now` is a binary-search
//!   insert.
//! * **The ring** — [`WINDOW`] buckets covering the cycles
//!   `(now, now + WINDOW)`, one cycle per bucket, with an occupancy
//!   bitmap. A push appends to its cycle's bucket, unsorted. The entries
//!   live in one node slab whose vacated nodes are reused, so a run
//!   allocates only while the ring grows past its largest size so far.
//! * **The overflow heap** — a `BinaryHeap` of the events pushed at
//!   `now + WINDOW` or later: long compute bursts, far OBU departures and
//!   retry timers. They stay there until their cycle comes up.
//!
//! When `cur` is empty, a pop advances `now` to the earlier of the ring's
//! next occupied cycle (the first set bit of the bitmap after `now`) and
//! the overflow's smallest cycle. Every event of that cycle, from the
//! bucket and from the top of the heap, moves into `cur`, and `cur` is
//! sorted.
//!
//! The pop order is exactly the key order, as with one heap: the cycle
//! `now` advances to is the earliest pending one, every event of it is in
//! `cur` before the first of them pops, and `cur` is in key order. So no
//! trace, report or counter digest depends on the tiers, and the unit
//! tests check the calendar against a `BinaryHeap` oracle through random
//! interleavings.

use std::cmp::{Ordering, Reverse};
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

/// Cycles covered by the ring of one-cycle buckets: `(now, now + WINDOW)`.
/// A power of two, so a cycle's bucket is its low bits.
const WINDOW: u64 = 1024;
/// Words in the ring's occupancy bitmap.
const WORDS: usize = WINDOW as usize / 64;

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// The ring bucket holding the events of cycle `at`.
#[inline]
fn slot(at: Cycle) -> usize {
    (at.get() & (WINDOW - 1)) as usize
}

/// A ring node: a pending entry linked into its cycle's bucket, or a
/// vacant node (`entry` is `None`) linked into the free list.
#[derive(Debug, Clone)]
struct Node<T> {
    entry: Option<Entry<T>>,
    next: u32,
}

/// A deterministic event calendar ordered by [`EvKey`].
///
/// Mirrors the `EventQueue` contract: pops never go backwards in time, and
/// scheduling strictly before the last popped time is reported as
/// [`SimError::EventInPast`]. The three tiers are described in the module
/// docs; every pending event lives in exactly one of them.
#[derive(Debug, Clone)]
pub(crate) struct Calendar<T> {
    /// The events at `now`, sorted by descending key: the next pop is the
    /// last element.
    cur: Vec<Entry<T>>,
    /// Storage of the ring's entries. Vacated nodes are reused, so the
    /// ring allocates only when it holds more entries than ever before.
    nodes: Vec<Node<T>>,
    /// Head of the list of vacant nodes.
    free: u32,
    /// One bucket per cycle of `(now, now + WINDOW)`, indexed by [`slot`]:
    /// the head of an unsorted list of nodes. The bucket of `now` itself
    /// is always empty.
    heads: Box<[u32]>,
    /// Bit `i` is set when bucket `i` is non-empty.
    occupied: [u64; WORDS],
    /// Events that were at `now + WINDOW` or later when pushed.
    overflow: BinaryHeap<Entry<T>>,
    now: Cycle,
}

impl<T> Calendar<T> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Self::empty_at(Cycle::ZERO)
    }

    fn empty_at(now: Cycle) -> Self {
        Calendar {
            cur: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; WINDOW as usize].into_boxed_slice(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            now,
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
        let e = Entry { key, payload };
        if key.at == self.now {
            let i = self.cur.partition_point(|c| c.key > key);
            self.cur.insert(i, e);
        } else if key.at.get() - self.now.get() < WINDOW {
            self.file_in_ring(e);
        } else {
            self.overflow.push(e);
        }
        Ok(())
    }

    /// File an entry of `(now, now + WINDOW)` in its cycle's bucket.
    #[inline]
    fn file_in_ring(&mut self, e: Entry<T>) {
        let i = slot(e.key.at);
        let node = Node {
            entry: Some(e),
            next: self.heads[i],
        };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        self.heads[i] = n;
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// The entries of bucket `i`, in list order.
    fn bucket(&self, i: usize) -> impl Iterator<Item = &Entry<T>> {
        let mut n = self.heads[i];
        std::iter::from_fn(move || {
            let node = self.nodes.get(n as usize)?;
            n = node.next;
            node.entry.as_ref()
        })
    }

    /// The earliest cycle with a ring entry, if the ring holds any.
    fn next_ring_cycle(&self) -> Option<Cycle> {
        // Scan the bitmap from the bucket after `now`'s, wrapping once;
        // the first word is visited again at the end for its low bits.
        let start = slot(self.now + 1);
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0u64 << (start % 64));
        for _ in 0..=WORDS {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                let ahead = (i + WINDOW as usize - start) % WINDOW as usize;
                return Some(self.now + 1 + ahead as u64);
            }
            w = (w + 1) % WORDS;
            bits = self.occupied[w];
        }
        None
    }

    /// Move the clock to the next occupied cycle and fill `cur` with its
    /// events, sorted; `false` when nothing is pending. Requires an
    /// empty `cur`.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        let ring = self.next_ring_cycle();
        let overflow = self.overflow.peek().map(|e| e.key.at);
        let Some(next) = ring.into_iter().chain(overflow).min() else {
            return false;
        };
        self.now = next;
        if ring == Some(next) {
            let i = slot(next);
            self.occupied[i / 64] &= !(1 << (i % 64));
            let mut n = std::mem::replace(&mut self.heads[i], NIL);
            while n != NIL {
                let node = &mut self.nodes[n as usize];
                self.cur
                    .push(node.entry.take().expect("a listed node holds an entry"));
                let next = node.next;
                node.next = self.free;
                self.free = n;
                n = next;
            }
        }
        // Overflow entries stay in the heap until their cycle comes up:
        // moving them into the ring as the window slides would handle a
        // burst of far arrivals twice.
        while self.overflow.peek().is_some_and(|e| e.key.at == next) {
            self.cur.push(self.overflow.pop().expect("peeked"));
        }
        self.cur.sort_unstable_by_key(|e| Reverse(e.key));
        true
    }

    /// Remove and return the smallest-keyed event, advancing the clock.
    /// Counts the pop and classifies the event by lane when host
    /// profiling is enabled.
    pub fn pop(&mut self) -> Option<(EvKey, T)> {
        if self.cur.is_empty() && !self.advance() {
            return None;
        }
        let e = self.cur.pop()?;
        debug_assert_eq!(e.key.at, self.now, "calendar bucket out of place");
        emx_hostprof::count_lane(e.key.lane);
        Some((e.key, e.payload))
    }

    /// Key of the next event, if any.
    pub fn peek_key(&self) -> Option<EvKey> {
        if let Some(e) = self.cur.last() {
            return Some(e.key);
        }
        let ring = self
            .next_ring_cycle()
            .and_then(|t| self.bucket(slot(t)).map(|e| e.key).min());
        ring.into_iter()
            .chain(self.overflow.peek().map(|e| e.key))
            .min()
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
            .cur
            .iter()
            .chain(self.nodes.iter().filter_map(|n| n.entry.as_ref()))
            .chain(self.overflow.iter())
            .map(|e| (e.key, e.payload.clone()))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Rebuild a calendar mid-run: clock at `now`, `entries` pending.
    pub fn restore(now: Cycle, entries: Vec<(EvKey, T)>) -> Result<Calendar<T>, SimError> {
        let mut cal = Self::empty_at(now);
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
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};

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

    /// The tier transitions one differential run went through.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Pushes at `now`, into the sorted `cur` tier.
        at_now: u64,
        /// Pushes into the ring of one-cycle buckets.
        in_window: u64,
        /// Of those, pushes whose bucket lies before `now`'s in the ring.
        wrapped: u64,
        /// Pushes at `now + WINDOW` or later, into the overflow heap.
        beyond: u64,
        /// Pops that found `cur` and the ring empty and the overflow not.
        overflow_only: u64,
        /// Pops that found `cur` empty and the next cycle both in the ring
        /// and on top of the overflow.
        both_tiers: u64,
        /// Pushes rejected as [`SimError::EventInPast`].
        rejected: u64,
        /// Calendars rebuilt from their own `entries_sorted`.
        restored: u64,
    }

    /// Drive a [`Calendar`] and a `BinaryHeap` oracle through the same
    /// interleaving and assert they agree at every step. Each op is
    /// `(what, x, y)`:
    ///
    /// * 0 — push at `now`; 1 — push 1..=8 cycles ahead; 2 — push anywhere
    ///   in the window; 3 — push at the overflow's earliest cycle once the
    ///   window covers it, else at `now + WINDOW - 1` or `now + WINDOW`;
    ///   4 — push up to four windows beyond it; 5 — push in the past;
    /// * 6..=11 — pop one; 12 — restore from `entries_sorted`;
    /// * 13..=15 — pop up to `y % 32`.
    ///
    /// Keys vary in PE, lane and `a`; `b` is a serial number, which keeps
    /// them unique. Both sides are drained at the end.
    fn differential(ops: &[(u8, u64, u16)]) -> Coverage {
        let mut cal: Calendar<u64> = Calendar::new();
        let mut oracle: BinaryHeap<Reverse<(EvKey, u64)>> = BinaryHeap::new();
        let mut cov = Coverage::default();
        let mut serial = 0u64;
        let pop_both = |cal: &mut Calendar<u64>,
                        oracle: &mut BinaryHeap<Reverse<(EvKey, u64)>>,
                        cov: &mut Coverage| {
            assert_eq!(cal.peek_key(), oracle.peek().map(|e| e.0 .0));
            if cal.cur.is_empty() {
                let overflow = cal.overflow.peek().map(|e| e.key.at);
                match cal.next_ring_cycle() {
                    None if overflow.is_some() => cov.overflow_only += 1,
                    Some(t) if overflow == Some(t) => cov.both_tiers += 1,
                    _ => {}
                }
            }
            let got = cal.pop();
            let want = oracle.pop().map(|Reverse(e)| e);
            assert_eq!(got, want);
            if let Some((k, _)) = got {
                assert_eq!(cal.now(), k.at);
            }
        };
        for &(what, x, y) in ops {
            let now = cal.now().get();
            let at = match what {
                0 => Some(now),
                1 => Some(now + 1 + x % 8),
                2 => Some(now + 1 + x % (WINDOW - 1)),
                3 => match cal.overflow.peek() {
                    Some(e) if e.key.at.get() - now < WINDOW => Some(e.key.at.get()),
                    _ => Some(now + WINDOW - 1 + x % 2),
                },
                4 => Some(now + WINDOW + x % (4 * WINDOW)),
                5 if now > 0 => {
                    let at = now - 1 - x % now;
                    let k = key(at, 0, 0, 0, 0);
                    assert!(matches!(
                        cal.push(k, 0),
                        Err(SimError::EventInPast { at: a, now: n }) if a == at && n == now
                    ));
                    cov.rejected += 1;
                    None
                }
                6..=11 => {
                    pop_both(&mut cal, &mut oracle, &mut cov);
                    None
                }
                12 => {
                    let entries = cal.entries_sorted();
                    let mut want: Vec<(EvKey, u64)> = oracle.iter().map(|e| e.0).collect();
                    want.sort();
                    assert_eq!(entries, want);
                    cal = Calendar::restore(cal.now(), entries).unwrap();
                    cov.restored += 1;
                    None
                }
                13..=15 => {
                    for _ in 0..y % 32 {
                        pop_both(&mut cal, &mut oracle, &mut cov);
                    }
                    None
                }
                _ => None,
            };
            if let Some(at) = at {
                match at - now {
                    0 => cov.at_now += 1,
                    d if d < WINDOW => {
                        cov.in_window += 1;
                        if slot(Cycle::new(at)) < slot(Cycle::new(now)) {
                            cov.wrapped += 1;
                        }
                    }
                    _ => cov.beyond += 1,
                }
                serial += 1;
                let k = key(at, y % 4, (y >> 2) as u8 % 4, x % 3, serial);
                cal.push(k, serial).unwrap();
                oracle.push(Reverse((k, serial)));
            }
        }
        while !oracle.is_empty() {
            pop_both(&mut cal, &mut oracle, &mut cov);
        }
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.peek_key(), None);
        cov
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any interleaving of pushes, pops and restores pops exactly the
        /// oracle's sequence.
        #[test]
        fn matches_a_binary_heap_oracle(
            ops in proptest::collection::vec((0u8..16, any::<u64>(), any::<u16>()), 1..400),
        ) {
            differential(&ops);
        }
    }

    #[test]
    fn oracle_runs_cover_every_tier_transition() {
        let mut rng = StdRng::seed_from_u64(0xCA1E);
        for _ in 0..8 {
            let ops: Vec<(u8, u64, u16)> = (0..5_000)
                .map(|_| {
                    let r = rng.next_u64();
                    ((r % 16) as u8, rng.next_u64(), (r >> 32) as u16)
                })
                .collect();
            let cov = differential(&ops);
            assert!(
                cov.at_now > 0
                    && cov.in_window > 0
                    && cov.wrapped > 0
                    && cov.beyond > 0
                    && cov.overflow_only > 0
                    && cov.both_tiers > 0
                    && cov.rejected > 0
                    && cov.restored > 0,
                "{cov:?}"
            );
        }
    }
}
