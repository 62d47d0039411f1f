//! The timed event queue.
//!
//! A two-level **hierarchical timing wheel** keyed by `(time, sequence)`.
//! The sequence number is a monotonically increasing counter assigned at
//! insertion, which makes the dispatch order a *total* order: two events at
//! the same timestamp are always dispatched in the order they were
//! scheduled. This is the property every determinism test in the workspace
//! leans on.
//!
//! # Structure
//!
//! * **Near level** — a ring of `NBUCKETS` per-tick buckets covering the
//!   next `NBUCKETS << TICK_SHIFT` femtoseconds past `base`. Scheduling
//!   into the ring is an O(1) `Vec::push`; because `seq` is monotone, a
//!   ring bucket is already in insertion (= dispatch) order.
//! * **Active bucket** — the bucket currently being drained, held sorted in
//!   *reverse* `(time, seq)` order so `pop` is an O(1) `Vec::pop` from the
//!   back. Late arrivals for the current tick binary-insert here.
//! * **Far heap** — a `BinaryHeap` for everything at or beyond the horizon
//!   (`base + NBUCKETS` buckets). Whenever `base` advances, eligible far
//!   entries are eagerly refilled into the ring, restoring the invariant
//!   that every far entry sorts after every wheel entry.
//!
//! An occupancy bitmap (`occ`) lets bucket advance skip empty ticks in
//! word-sized strides, so sparse timelines don't pay a linear scan.
//!
//! Storage: an empty ring slot owns no buffer. A slot borrows a drained
//! vector from a small pool on its first push and each rotation returns
//! the drained `active` vector, so the queue holds at most one buffer per
//! simultaneously occupied slot plus one, and stops allocating once pool
//! and far heap reach the run's peak. What still allocates per event is
//! the payload side: boxed message payloads and read-data vectors.
//!
//! `set_legacy(true)` collapses the queue back to the plain binary heap —
//! kept as a reference implementation for the wheel-vs-heap determinism
//! proptest in `tests/determinism.rs`.

use std::collections::BinaryHeap;

use crate::event::Delivery;
use crate::time::SimTime;

/// log2 of the tick width in femtoseconds: 2^20 fs ≈ 1.05 ns per bucket.
const TICK_SHIFT: u32 = 20;
/// Ring size; horizon = `NBUCKETS << TICK_SHIFT` ≈ 1.07 µs.
const NBUCKETS: usize = 1024;
/// Words in the occupancy bitmap.
const OCC_WORDS: usize = NBUCKETS / 64;

pub(crate) struct TimedEntry {
    pub time: SimTime,
    pub seq: u64,
    pub delivery: Delivery,
}

impl PartialEq for TimedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for TimedEntry {}

impl PartialOrd for TimedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. This also makes `sort_unstable` produce reverse (time, seq)
        // order, which is exactly the active-bucket layout.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[inline]
fn key(e: &TimedEntry) -> (SimTime, u64) {
    (e.time, e.seq)
}

#[inline]
fn bucket_of(t: SimTime) -> u64 {
    t.0 >> TICK_SHIFT
}

/// Deterministic future-event queue.
pub(crate) struct EventQueue {
    /// Absolute bucket index of the active bucket.
    base: u64,
    /// The bucket being drained, reverse-sorted by `(time, seq)` so the
    /// earliest entry is at the back.
    active: Vec<TimedEntry>,
    /// Near-future ring; slot `b % NBUCKETS` holds absolute bucket `b` for
    /// `b` in `(base, base + NBUCKETS)`. Empty slots hold no buffer.
    buckets: Vec<Vec<TimedEntry>>,
    /// Drained bucket vectors (empty, capacity retained) waiting to be
    /// lent to the next slot that receives an entry.
    pool: Vec<Vec<TimedEntry>>,
    /// Occupancy bitmap over ring slots.
    occ: [u64; OCC_WORDS],
    /// Far-future overflow: entries with bucket `>= base + NBUCKETS`.
    far: BinaryHeap<TimedEntry>,
    /// Total entries across active + ring + far.
    len: usize,
    /// Count of non-background entries, maintained incrementally so the
    /// kernel can answer "is any foreground work pending?" in O(1).
    foreground: usize,
    /// Reference mode: single binary heap, no wheel.
    legacy: bool,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            base: 0,
            active: Vec::with_capacity(32),
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            pool: Vec::new(),
            occ: [0; OCC_WORDS],
            far: BinaryHeap::with_capacity(128),
            len: 0,
            foreground: 0,
            legacy: false,
        }
    }

    /// Switch between the timing wheel (default) and the reference binary
    /// heap. Pending entries are migrated, so the toggle is safe mid-run.
    pub fn set_legacy(&mut self, legacy: bool) {
        if self.legacy == legacy {
            return;
        }
        self.legacy = legacy;
        if legacy {
            // Drain the wheel into the heap.
            self.far.extend(self.active.drain(..));
            for slot in 0..NBUCKETS {
                let mut v = std::mem::take(&mut self.buckets[slot]);
                self.far.extend(v.drain(..));
                self.recycle(v);
            }
            self.occ = [0; OCC_WORDS];
        } else {
            // Re-distribute heap entries through the wheel's placement rule.
            let drained: Vec<TimedEntry> = std::mem::take(&mut self.far).into_vec();
            for e in drained {
                self.place(e);
            }
        }
    }

    /// Grow internal storage so roughly `n` pending entries fit without
    /// reallocation (the between-runs high-water pre-reserve).
    pub fn reserve(&mut self, n: usize) {
        let extra = n.saturating_sub(self.far.len() + self.active.len());
        self.far.reserve(extra);
        self.active
            .reserve(n.min(256).saturating_sub(self.active.capacity()));
    }

    /// Place an entry into wheel storage (never touches counters).
    #[inline]
    fn place(&mut self, entry: TimedEntry) {
        let b = bucket_of(entry.time);
        if b >= self.base + NBUCKETS as u64 {
            self.far.push(entry);
        } else if b <= self.base {
            // Current tick (or, rarely, an earlier bucket reached while the
            // active front sits later than `now` — a clock edge can advance
            // `now` past `base`'s rotation point). Keep `active` the sorted
            // front run.
            let at = self.active.partition_point(|e| key(e) > key(&entry));
            self.active.insert(at, entry);
            // Neighbor check: the insert must not break the reverse
            // (time, seq) layout even mid-drain.
            debug_assert!(at == 0 || key(&self.active[at - 1]) > key(&self.active[at]));
            debug_assert!(
                at + 1 >= self.active.len() || key(&self.active[at]) > key(&self.active[at + 1])
            );
        } else {
            self.push_slot(b, entry);
        }
    }

    /// Append to the ring slot of bucket `b`, borrowing a pooled vector if
    /// the slot holds none yet.
    #[inline]
    fn push_slot(&mut self, b: u64, entry: TimedEntry) {
        let slot = (b % NBUCKETS as u64) as usize;
        let v = &mut self.buckets[slot];
        if v.capacity() == 0 {
            *v = self.pool.pop().unwrap_or_default();
        }
        v.push(entry);
        self.occ[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Empty `v` into the pool (capacity-less vectors are dropped).
    #[inline]
    fn recycle(&mut self, mut v: Vec<TimedEntry>) {
        v.clear();
        if v.capacity() != 0 {
            self.pool.push(v);
        }
    }

    pub fn push(&mut self, entry: TimedEntry) {
        if !entry.delivery.background {
            self.foreground += 1;
        }
        self.len += 1;
        if self.legacy {
            self.far.push(entry);
        } else {
            self.place(entry);
        }
    }

    /// Next occupied ring slot strictly after the active slot, as a
    /// distance in `1..NBUCKETS`, or `None` when the ring is empty.
    fn next_occupied_distance(&self) -> Option<u64> {
        let cur = (self.base % NBUCKETS as u64) as usize;
        let start = (cur + 1) % NBUCKETS;
        let mut w = start / 64;
        let mut mask = !0u64 << (start % 64);
        // Scan at most one full wrap of the bitmap.
        for _ in 0..=OCC_WORDS {
            let bits = self.occ[w] & mask;
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                let d = (slot + NBUCKETS - cur) % NBUCKETS;
                // slot == cur is impossible (that slot drained into active),
                // so d is never 0 here; guard anyway for safety.
                if d != 0 {
                    return Some(d as u64);
                }
            }
            w = (w + 1) % OCC_WORDS;
            mask = !0;
        }
        None
    }

    /// Move far entries that now fall inside the horizon into the wheel.
    fn refill_from_far(&mut self) {
        let horizon = self.base + NBUCKETS as u64;
        while let Some(top) = self.far.peek() {
            let b = bucket_of(top.time);
            if b >= horizon {
                break;
            }
            let e = match self.far.pop() {
                Some(e) => e,
                None => break,
            };
            if b <= self.base {
                // Lands in the active bucket; caller sorts afterwards.
                self.active.push(e);
            } else {
                self.push_slot(b, e);
            }
        }
    }

    /// Sort `active` into reverse `(time, seq)` order. The common case — a
    /// ring bucket appended in seq order with monotone times — is already
    /// ascending, so a reverse suffices.
    fn sort_active(&mut self) {
        let ascending = self.active.windows(2).all(|w| key(&w[0]) < key(&w[1]));
        if ascending {
            self.active.reverse();
        } else {
            // TimedEntry's inverted Ord makes plain sort produce reverse
            // (time, seq) order.
            self.active.sort_unstable();
        }
    }

    /// Ensure `active` holds the queue front (non-legacy mode). After this,
    /// `active` is empty iff the queue is empty.
    fn ensure_active(&mut self) {
        if self.legacy || !self.active.is_empty() || self.len == 0 {
            return;
        }
        if let Some(d) = self.next_occupied_distance() {
            self.base += d;
            let slot = (self.base % NBUCKETS as u64) as usize;
            let next = std::mem::take(&mut self.buckets[slot]);
            let drained = std::mem::replace(&mut self.active, next);
            self.recycle(drained);
            self.occ[slot / 64] &= !(1u64 << (slot % 64));
            self.refill_from_far();
        } else {
            // Ring empty: jump straight to the earliest far bucket.
            let front = match self.far.peek() {
                Some(e) => bucket_of(e.time),
                None => return,
            };
            self.base = front;
            self.refill_from_far();
        }
        self.sort_active();
        self.debug_assert_active_sorted();
    }

    /// Debug-build audit: `active` must be in strict reverse `(time, seq)`
    /// order whenever a rotation completes (the invariant `pop`/`peek` and
    /// mid-drain `place` inserts rely on).
    fn debug_assert_active_sorted(&self) {
        debug_assert!(
            self.active.windows(2).all(|w| key(&w[0]) > key(&w[1])),
            "active bucket lost reverse (time, seq) order after rotation"
        );
    }

    /// Iterate every pending entry, in no particular order (snapshot
    /// support; callers sort by `(time, seq)`).
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = &TimedEntry> {
        self.iter_all()
    }

    pub fn pop(&mut self) -> Option<TimedEntry> {
        let e = if self.legacy {
            self.far.pop()?
        } else {
            self.ensure_active();
            self.active.pop()?
        };
        self.len -= 1;
        if !e.delivery.background {
            self.foreground -= 1;
        }
        Some(e)
    }

    /// Time of the earliest pending entry.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(t, _)| t)
    }

    /// `(time, seq)` of the earliest pending entry. The dispatch loop uses
    /// the sequence number to merge queue entries with the per-clock
    /// next-edge slots while preserving the global `(time, seq)` order.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        if self.legacy {
            return self.far.peek().map(|e| (e.time, e.seq));
        }
        self.ensure_active();
        self.active.last().map(|e| (e.time, e.seq))
    }

    /// Time of the earliest pending *foreground* entry. O(n) but only
    /// consulted when deciding whether to stop, never in the hot loop.
    #[allow(dead_code)]
    pub fn peek_foreground_time(&self) -> Option<SimTime> {
        self.iter_all()
            .filter(|e| !e.delivery.background)
            .map(|e| e.time)
            .min()
    }

    fn iter_all(&self) -> impl Iterator<Item = &TimedEntry> {
        self.active
            .iter()
            .chain(self.buckets.iter().flatten())
            .chain(self.far.iter())
    }

    pub fn has_foreground(&self) -> bool {
        self.foreground > 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every pending entry and reset the foreground counter. Bucket
    /// capacity is retained in the pool for reuse.
    #[allow(dead_code)]
    pub fn clear(&mut self) {
        self.debug_assert_foreground_consistent();
        self.active.clear();
        for slot in 0..NBUCKETS {
            let v = std::mem::take(&mut self.buckets[slot]);
            self.recycle(v);
        }
        self.occ = [0; OCC_WORDS];
        self.far.clear();
        self.base = 0;
        self.len = 0;
        self.foreground = 0;
    }

    /// Recount foreground entries the slow way (audit for the incremental
    /// counter).
    pub fn foreground_recount(&self) -> usize {
        self.iter_all().filter(|e| !e.delivery.background).count()
    }

    /// Debug-build audit: the incrementally maintained `foreground` counter
    /// must always equal a from-scratch recount. O(n), so it is only called
    /// at run-termination decisions and in tests, never per event.
    pub fn debug_assert_foreground_consistent(&self) {
        debug_assert_eq!(
            self.foreground,
            self.foreground_recount(),
            "incremental foreground counter diverged from recount"
        );
        debug_assert_eq!(
            self.len,
            self.iter_all().count(),
            "incremental len counter diverged from recount"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Msg, MsgKind};

    fn entry(time_fs: u64, seq: u64, background: bool) -> TimedEntry {
        TimedEntry {
            time: SimTime(time_fs),
            seq,
            delivery: Delivery {
                target: 0,
                msg: Msg {
                    source: None,
                    kind: MsgKind::Timer(seq),
                },
                background,
            },
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(entry(30, 0, false));
        q.push(entry(10, 1, false));
        q.push(entry(20, 2, false));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for seq in 0..50 {
            q.push(entry(100, seq, false));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn foreground_count_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(!q.has_foreground());
        q.push(entry(10, 0, true));
        assert!(!q.has_foreground());
        q.push(entry(20, 1, false));
        assert!(q.has_foreground());
        assert_eq!(q.peek_foreground_time(), Some(SimTime(20)));
        q.pop(); // background at t=10
        assert!(q.has_foreground());
        q.pop(); // foreground at t=20
        assert!(!q.has_foreground());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_sees_background_too() {
        let mut q = EventQueue::new();
        q.push(entry(5, 0, true));
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        assert_eq!(q.peek_foreground_time(), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek(), Some((SimTime(5), 0)));
    }

    #[test]
    fn clear_resets_len_and_foreground() {
        let mut q = EventQueue::new();
        for seq in 0..10 {
            q.push(entry(seq * 3, seq, seq % 2 == 0));
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.foreground_recount(), 5);
        q.debug_assert_foreground_consistent();
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert!(!q.has_foreground());
        q.debug_assert_foreground_consistent();
        // Usable after clear.
        q.push(entry(1, 100, false));
        assert!(q.has_foreground());
        assert_eq!(q.pop().unwrap().seq, 100);
    }

    #[test]
    fn foreground_counter_matches_recount_under_churn() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        for round in 0..20u64 {
            for k in 0..(round % 5 + 1) {
                q.push(entry(round * 10 + k, seq, (seq * 7).is_multiple_of(3)));
                seq += 1;
            }
            if round % 3 == 0 {
                q.pop();
            }
            q.debug_assert_foreground_consistent();
        }
        while q.pop().is_some() {
            q.debug_assert_foreground_consistent();
        }
    }

    /// Cross-bucket and past-horizon traffic pops in global (time, seq)
    /// order, both in wheel and legacy mode.
    #[test]
    fn wheel_orders_across_buckets_and_horizon() {
        const TICK: u64 = 1 << TICK_SHIFT;
        let horizon = TICK * NBUCKETS as u64;
        for legacy in [false, true] {
            let mut q = EventQueue::new();
            q.set_legacy(legacy);
            // Same bucket, same tick, far future, next bucket, mid-ring.
            let times = [
                3,
                7,
                horizon * 3 + 5, // far heap
                TICK + 1,        // next bucket
                TICK * 500,      // mid-ring
                horizon * 3 + 5, // far, same time, later seq
            ];
            for (seq, t) in times.iter().enumerate() {
                q.push(entry(*t, seq as u64, false));
            }
            let mut popped: Vec<(u64, u64)> = Vec::new();
            while let Some(e) = q.pop() {
                popped.push((e.time.0, e.seq));
            }
            let mut expect: Vec<(u64, u64)> = times
                .iter()
                .enumerate()
                .map(|(s, t)| (*t, s as u64))
                .collect();
            expect.sort_unstable();
            assert_eq!(popped, expect, "legacy={legacy}");
        }
    }

    /// Entries pushed for a bucket the wheel has already rotated past (time
    /// moved forward through a clock slot while the queue front sat later)
    /// still pop before the previously queued front.
    #[test]
    fn late_push_before_active_front_pops_first() {
        const TICK: u64 = 1 << TICK_SHIFT;
        let mut q = EventQueue::new();
        q.push(entry(TICK * 800 + 3, 0, false));
        // Rotate: peek advances base to bucket 800.
        assert_eq!(q.peek_time(), Some(SimTime(TICK * 800 + 3)));
        // Now a component schedules something earlier (bucket 10 < base).
        q.push(entry(TICK * 10, 1, false));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.is_empty());
    }

    /// Toggling legacy mode mid-stream keeps every pending entry and the
    /// global order.
    #[test]
    fn legacy_toggle_migrates_entries() {
        const TICK: u64 = 1 << TICK_SHIFT;
        let horizon = TICK * NBUCKETS as u64;
        let mut q = EventQueue::new();
        q.push(entry(5, 0, false));
        q.push(entry(horizon + 17, 1, true));
        q.push(entry(TICK * 3, 2, false));
        q.set_legacy(true);
        q.debug_assert_foreground_consistent();
        q.push(entry(6, 3, false));
        q.set_legacy(false);
        q.debug_assert_foreground_consistent();
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 3, 2, 1]);
    }

    /// The far heap refills the ring when the wheel rotates across the
    /// horizon repeatedly (multi-horizon sweep).
    #[test]
    fn far_refill_across_many_horizons() {
        const TICK: u64 = 1 << TICK_SHIFT;
        let horizon = TICK * NBUCKETS as u64;
        let mut q = EventQueue::new();
        let mut times: Vec<u64> = Vec::new();
        for i in 0..40u64 {
            // Scatter across 5 horizons, some colliding in one bucket.
            let t = (i % 5) * horizon + (i * 37 % 900) * TICK + (i % 3);
            times.push(t);
            q.push(entry(t, i, false));
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, t)| (*t, s as u64))
            .collect();
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.0, e.seq))
            .collect();
        assert_eq!(got, expect);
    }

    /// Pop from `q` and a parallel legacy-heap oracle simultaneously; the
    /// streams must match element for element.
    fn drain_against_oracle(q: &mut EventQueue, oracle: &mut EventQueue) {
        loop {
            let got = q.pop().map(|e| (e.time.0, e.seq));
            let want = oracle.pop().map(|e| (e.time.0, e.seq));
            assert_eq!(got, want, "wheel diverged from legacy heap oracle");
            if want.is_none() {
                break;
            }
        }
    }

    /// Satellite regression (ISSUE 5): events scheduled mid-drain with
    /// `b <= base` — exactly at the rotation point and at
    /// `base + NBUCKETS ± 1` — keep global (time, seq) order. The wheel is
    /// checked against the legacy binary heap fed the identical schedule.
    #[test]
    fn mid_drain_push_at_rotation_point_and_horizon_edges() {
        const TICK: u64 = 1 << TICK_SHIFT;
        // Rotate base to bucket 700 by parking two entries there and
        // peeking; then drain one so `active` is mid-drain.
        let rot = 700 * TICK;
        let mut q = EventQueue::new();
        let mut oracle = EventQueue::new();
        oracle.set_legacy(true);
        for (t, s) in [(rot + 9, 0u64), (rot + 20, 1)] {
            q.push(entry(t, s, false));
            oracle.push(entry(t, s, false));
        }
        assert_eq!(q.peek(), Some((SimTime(rot + 9), 0)));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert_eq!(oracle.pop().map(|e| e.seq), Some(0));
        // Mid-drain arrivals at every boundary the placement rule branches
        // on: the rotation point itself (start of the active bucket, i.e.
        // earlier than the remaining front), the last ring slot, the
        // horizon, and one past it. Plus one earlier-than-base straggler.
        let horizon = NBUCKETS as u64 * TICK;
        let late = [
            rot,                  // rotation point, before remaining front
            rot + 10,             // active bucket, before remaining front
            rot + 21,             // active bucket, after remaining front
            rot + horizon - TICK, // base + NBUCKETS - 1 (last ring slot)
            rot + horizon - 1,    // last fs of the ring
            rot + horizon,        // exactly the horizon -> far heap
            rot + horizon + 1,    // one past the horizon
            rot + horizon + TICK, // base + NBUCKETS + 1
            rot - TICK,           // bucket base - 1 (time moved past it)
        ];
        for (k, &t) in late.iter().enumerate() {
            q.push(entry(t, 2 + k as u64, false));
            oracle.push(entry(t, 2 + k as u64, false));
        }
        drain_against_oracle(&mut q, &mut oracle);
    }

    /// Satellite regression (ISSUE 5): `refill_from_far` entries landing on
    /// the *current* bucket (`b <= base`) after a `peek`-driven base advance
    /// must interleave correctly with entries already placed there. Far
    /// entries sharing one bucket arrive out of (time, seq) order relative
    /// to ring contents; the drain must still match the legacy heap.
    #[test]
    fn refill_from_far_onto_current_bucket_keeps_order() {
        const TICK: u64 = 1 << TICK_SHIFT;
        let horizon = NBUCKETS as u64 * TICK;
        // Target bucket far beyond the first horizon so the entries start
        // life in the far heap.
        let b = horizon * 2 + 37 * TICK;
        let mut q = EventQueue::new();
        let mut oracle = EventQueue::new();
        oracle.set_legacy(true);
        // Same far bucket, times deliberately not in seq order.
        let seed = [(b + 7, 0u64), (b + 2, 1), (b + 7, 2), (b, 3)];
        // And one a full horizon later, so the refill loop has a stop case.
        let tail = (b + horizon + 5, 4u64);
        for &(t, s) in seed.iter().chain([&tail]) {
            q.push(entry(t, s, false));
            oracle.push(entry(t, s, false));
        }
        // peek() advances base straight to bucket `b` (far jump) and pulls
        // the four eligible far entries into the active bucket.
        assert_eq!(q.peek(), Some((SimTime(b), 3)));
        // Mid-drain: schedule more traffic landing on the current bucket,
        // both before and after the remaining front.
        assert_eq!(q.pop().map(|e| e.seq), Some(3));
        assert_eq!(oracle.pop().map(|e| e.seq), Some(3));
        for &(t, s) in &[(b + 1, 5u64), (b + 7, 6), (b + 2, 7)] {
            q.push(entry(t, s, false));
            oracle.push(entry(t, s, false));
        }
        drain_against_oracle(&mut q, &mut oracle);
    }

    /// Vectors that own heap storage anywhere in the queue.
    fn buffers_with_capacity(q: &EventQueue) -> usize {
        q.buckets
            .iter()
            .chain(&q.pool)
            .chain(std::iter::once(&q.active))
            .filter(|v| v.capacity() != 0)
            .count()
    }

    /// A sparse timeline walks the ring through far more distinct slots
    /// than are ever occupied at once; drained vectors must be pooled and
    /// re-lent rather than left behind in every slot the run touched.
    #[test]
    fn sparse_schedule_reuses_pooled_bucket_vectors() {
        const TICK: u64 = 1 << TICK_SHIFT;
        let horizon = TICK * NBUCKETS as u64;
        let mut q = EventQueue::new();
        let mut oracle = EventQueue::new();
        oracle.set_legacy(true);
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue, oracle: &mut EventQueue, t: u64| {
            q.push(entry(t, seq, false));
            oracle.push(entry(t, seq, false));
            seq += 1;
        };
        let occupied =
            |q: &EventQueue| -> usize { q.occ.iter().map(|w| w.count_ones() as usize).sum() };
        let mut now = 0u64;
        let mut peak_occupied = 0usize;
        let mut slots_touched = std::collections::HashSet::new();
        for step in 0..3000u64 {
            // One entry ~1.3 ticks ahead, plus an occasional far entry
            // that later refills into a cold slot.
            push(&mut q, &mut oracle, now + TICK + TICK * 3 / 10);
            if step % 97 == 0 {
                push(&mut q, &mut oracle, now + 2 * horizon + step * 13);
            }
            peak_occupied = peak_occupied.max(occupied(&q));
            let e = q.pop().expect("queue holds the entry just pushed");
            assert_eq!(oracle.pop().map(|o| (o.time, o.seq)), Some((e.time, e.seq)));
            slots_touched.insert(q.base % NBUCKETS as u64);
            now = e.time.0;
        }
        // Drain the far tail too; its refills land in cold slots.
        while let Some(e) = q.pop() {
            peak_occupied = peak_occupied.max(occupied(&q));
            assert_eq!(oracle.pop().map(|o| (o.time, o.seq)), Some((e.time, e.seq)));
        }
        assert!(oracle.pop().is_none());
        assert_eq!(slots_touched.len(), NBUCKETS, "every ring slot is visited");
        assert!(q.base > 3 * NBUCKETS as u64, "the ring wraps several times");
        let held = buffers_with_capacity(&q);
        assert!(
            held <= peak_occupied + 1,
            "{held} buffers held, peak occupancy {peak_occupied}"
        );
    }

    #[test]
    fn reserve_is_harmless() {
        let mut q = EventQueue::new();
        q.reserve(10_000);
        q.push(entry(1, 0, false));
        assert_eq!(q.pop().unwrap().seq, 0);
    }
}
