//! Flat struct-of-arrays mailbox storage.
//!
//! The seed engine kept one `Vec<Envelope>` per actor for inboxes and one
//! per actor for outbox staging — 3·n vectors resized and walked every
//! phase, with routing moving envelopes between them one `push` at a time.
//! This module replaces that per-actor Vec dance with two arenas:
//!
//! * [`Inboxes`] — all of a phase's deliveries in **one** contiguous
//!   buffer, partitioned by an `offsets` table so actor `i`'s inbox is the
//!   slice `slots[offsets[i]..offsets[i + 1]]`. The actor-facing API is
//!   unchanged (`&[Envelope<P>]`).
//! * [`Segment`] — one per worker: every envelope the worker's actors
//!   staged this phase, appended to a single buffer in (actor, send-seq)
//!   order, with a per-actor table of end offsets and omitted counts.
//!   An actor's `Outbox` writes straight into the segment buffer
//!   ([`Outbox`](crate::actor::Outbox) resumes over it), so staging does
//!   no per-actor allocation at all.
//!
//! The deterministic merge every phase driver depends on falls out of the
//! layout: workers own contiguous ascending actor ranges, so walking
//! segments in worker order and each segment in staging order visits every
//! envelope in exactly the `(sender, seq)` order a sequential run would
//! produce — routing, metrics, trace and delivery order are byte-identical
//! at any thread count.
//!
//! Scattering staged envelopes into the next phase's inbox arena is the
//! one `unsafe` block in the crate, and there is one scatter for both
//! kinds of arrival. The phase core's route pass decides each envelope's
//! fate; `Inboxes::fill` then moves every surviving envelope into its
//! reserved slot, either in staging order (lock-step: a per-recipient
//! cursor, nothing materialised) or in the order a wire says the frames
//! arrived (a destination table built from link indices before any
//! envelope is touched). The block's precondition — every reserved slot
//! written exactly once — is checked, not assumed: see `Inboxes::fill`.

use crate::actor::{Envelope, Payload};
use ba_crypto::ProcessId;
use std::any::Any;

/// A directed link, `(from, to)`: all a wire ever learns about a frame.
pub(crate) type Link = (ProcessId, ProcessId);

/// One phase's deliveries for all `n` actors, in one contiguous buffer.
#[derive(Debug)]
pub struct Inboxes<P> {
    slots: Vec<Envelope<P>>,
    /// `n + 1` entries; actor `i` owns `slots[offsets[i]..offsets[i+1]]`.
    offsets: Vec<usize>,
    /// Scatter scratch, recycled across phases: the next free slot of each
    /// recipient's inbox.
    cursors: Vec<usize>,
    /// Scatter scratch, recycled across phases: each surviving frame's
    /// destination slot, or `FAILED` (wire-order arrival only; empty
    /// otherwise).
    dest: Vec<usize>,
}

/// Destination of a surviving frame its wire never delivered.
const FAILED: usize = usize::MAX;

impl<P: Payload> Inboxes<P> {
    /// An empty arena for `n` actors.
    pub fn new(n: usize) -> Self {
        Inboxes {
            slots: Vec::new(),
            offsets: vec![0; n + 1],
            cursors: Vec::new(),
            dest: Vec::new(),
        }
    }

    /// Actor `i`'s inbox for the current phase.
    pub fn of(&self, i: usize) -> &[Envelope<P>] {
        &self.slots[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total envelopes currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no envelopes are held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over every held envelope in delivery order (recipient-major
    /// — used by the engine's barrier-verification pass).
    pub fn iter(&self) -> impl Iterator<Item = &Envelope<P>> {
        self.slots.iter()
    }

    /// Drops all envelopes, keeping the arena's capacity for the next
    /// phase.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.offsets.fill(0);
    }

    /// Rebuilds this arena from the phase's staged segments — the one fill
    /// routine, for both kinds of arrival. `fates[k]` tells whether the
    /// `k`-th staged envelope (in segment-major staging order, the
    /// deterministic merge order) survived the route pass. Consumes every
    /// segment's staged buffer: `on_delivered` sees each delivered envelope
    /// as it moves into its slot, every other envelope is dropped here.
    ///
    /// * `wire == None` — every survivor arrives, in staging order.
    ///   `counts[i]` is the number of survivors addressed to recipient `i`
    ///   (the route pass counted them); each takes its recipient's next
    ///   cursor position, so nothing is materialised.
    /// * `wire == Some((links, order))` — `links` lists the survivors'
    ///   `(from, to)` in staging order and `order` is the sequence in which
    ///   a wire delivered them, as indices into `links`; a survivor absent
    ///   from `order` permanently failed and is dropped. `counts` is
    ///   recomputed from `order`, and each recipient's inbox ends up in
    ///   arrival order.
    ///
    /// # Panics
    /// Before anything is written, if an index in `order` is out of range
    /// or appears twice. While scattering (envelopes already written leak,
    /// nothing is dropped twice and the arena stays empty), if `fates`,
    /// `counts` or `links` do not describe the segments.
    pub(crate) fn fill(
        &mut self,
        segments: &mut [Segment<P>],
        fates: &[bool],
        counts: &mut [usize],
        wire: Option<(&[Link], &[usize])>,
        mut on_delivered: impl FnMut(&Envelope<P>),
    ) {
        let n = self.offsets.len() - 1;
        assert_eq!(counts.len(), n, "one count per recipient");
        self.slots.clear();
        self.dest.clear();
        if let Some((links, order)) = wire {
            // Validate the order and count arrivals per recipient, without
            // touching an envelope.
            self.dest.resize(links.len(), FAILED);
            counts.fill(0);
            for &k in order {
                let Some(seen) = self.dest.get_mut(k) else {
                    panic!("arrival index {k} out of range ({} links)", links.len());
                };
                assert!(*seen == FAILED, "link {k} arrived twice");
                *seen = 0; // arrived; its slot is dealt below
                counts[links[k].1.index()] += 1;
            }
        }
        let mut total = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            self.offsets[i] = total;
            total += c;
        }
        self.offsets[n] = total;
        self.slots.reserve(total);
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..n]);
        if let Some((links, order)) = wire {
            // Arrival `k` is the next message of its recipient's inbox.
            for &k in order {
                let cursor = &mut self.cursors[links[k].1.index()];
                self.dest[k] = *cursor;
                *cursor += 1;
            }
        }

        let spare = self.slots.spare_capacity_mut();
        let mut fates = fates.iter();
        let mut dest = self.dest.iter();
        let mut written = 0usize;
        for seg in segments.iter_mut() {
            for env in seg.staged.drain(..) {
                // A `continue` drops the envelope right here. If a drop or
                // `on_delivered` panics, already-written envelopes leak
                // (len is still 0, so they are never touched again) — a
                // leak, never a double drop.
                if !fates.next().expect("one fate per staged envelope") {
                    continue;
                }
                let slot = match wire {
                    None => {
                        let to = env.to.index();
                        let slot = self.cursors[to];
                        assert!(slot < self.offsets[to + 1], "recipient {to} is full");
                        self.cursors[to] = slot + 1;
                        slot
                    }
                    Some(_) => *dest.next().expect("one link per survivor"),
                };
                if slot == FAILED {
                    continue;
                }
                on_delivered(&env);
                spare[slot].write(env);
                written += 1;
            }
        }
        assert!(fates.next().is_none(), "one staged envelope per fate");
        assert_eq!(written, total, "every reserved slot is filled");
        // SAFETY: every index in `0..total` was written exactly once: the
        // `written` writes went to distinct slots below `total`, and
        // `written == total` (asserted). In staging order a slot comes from
        // its recipient's cursor, which starts at `offsets[to]`, only
        // increments and is asserted to stay below `offsets[to + 1]` — so
        // it stays inside that recipient's half-open range, and the ranges
        // partition `0..total`. In wire order a slot comes from `dest`,
        // whose non-`FAILED` entries were dealt by the same cursors to the
        // distinct (checked above) indices of `order`, exactly `counts[i]`
        // of them to recipient `i`; each entry is consumed at most once.
        unsafe { self.slots.set_len(total) };
    }
}

/// One worker's staged output for a phase: all of its actors' sends in one
/// buffer, plus a per-actor table recording where each actor's run of
/// envelopes ends and how many sends adversary wrappers suppressed.
#[derive(Debug)]
pub struct Segment<P> {
    /// Envelopes in (actor, send-seq) order within this worker's actor
    /// range.
    pub(crate) staged: Vec<Envelope<P>>,
    /// Per actor (in ascending id order within the worker's range):
    /// exclusive end offset into `staged`, and the actor's
    /// [`Outbox::note_omitted`](crate::actor::Outbox::note_omitted) count.
    pub(crate) per_actor: Vec<(usize, u64)>,
    /// The payload of the panic that cut this chunk's step short, if one
    /// did; the staging above is then incomplete and must not be routed.
    pub(crate) panic: Option<Box<dyn Any + Send>>,
}

impl<P: Payload> Segment<P> {
    /// An empty segment.
    pub fn new() -> Self {
        Segment {
            staged: Vec::new(),
            per_actor: Vec::new(),
            panic: None,
        }
    }

    /// Clears the segment for a new phase, retaining capacity.
    pub(crate) fn begin_phase(&mut self) {
        self.staged.clear();
        self.per_actor.clear();
        self.panic = None;
    }

    /// Number of envelopes currently staged.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Iterates `(actor_offset, envelopes, omitted)` per actor, in actor
    /// order: `actor_offset` is the actor's position within the worker's
    /// range.
    pub(crate) fn per_actor_runs(&self) -> impl Iterator<Item = (usize, &[Envelope<P>], u64)> + '_ {
        let mut start = 0usize;
        self.per_actor
            .iter()
            .enumerate()
            .map(move |(j, &(end, omitted))| {
                let run = &self.staged[start..end];
                start = end;
                (j, run, omitted)
            })
    }
}

impl<P: Payload> Default for Segment<P> {
    fn default() -> Self {
        Segment::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::{ProcessId, Value};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn env(from: u32, to: u32, v: u64) -> Envelope<Value> {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            payload: Value(v),
        }
    }

    #[test]
    fn empty_arena_has_empty_inboxes() {
        let inboxes: Inboxes<Value> = Inboxes::new(3);
        for i in 0..3 {
            assert!(inboxes.of(i).is_empty());
        }
        assert!(inboxes.is_empty());
    }

    #[test]
    fn fill_from_scatters_in_merge_order() {
        // Two segments (workers over actors {0,1} and {2,3}); envelopes
        // to shared recipients must land in segment-major staging order.
        let mut seg_a: Segment<Value> = Segment::new();
        seg_a.staged = vec![env(0, 3, 10), env(0, 2, 11), env(1, 3, 12)];
        seg_a.per_actor = vec![(2, 0), (3, 1)];
        let mut seg_b: Segment<Value> = Segment::new();
        seg_b.staged = vec![env(2, 3, 13), env(3, 0, 14)];
        seg_b.per_actor = vec![(1, 0), (2, 0)];

        let mut inboxes: Inboxes<Value> = Inboxes::new(4);
        let fates = vec![true, true, true, true, false];
        let mut counts = vec![0, 0, 1, 3];
        inboxes.fill(&mut [seg_a, seg_b], &fates, &mut counts, None, |_| {});

        assert_eq!(inboxes.len(), 4);
        assert!(inboxes.of(0).is_empty(), "fate=false envelope dropped");
        assert!(inboxes.of(1).is_empty());
        assert_eq!(inboxes.of(2), &[env(0, 2, 11)]);
        assert_eq!(
            inboxes.of(3),
            &[env(0, 3, 10), env(1, 3, 12), env(2, 3, 13)],
            "recipient 3 sees senders in (sender, seq) order"
        );
    }

    /// A payload that counts its drops, so a test can tell "dropped once"
    /// from "leaked" and from "dropped twice".
    #[derive(Clone, Debug)]
    struct Counted(u64, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Payload for Counted {}

    /// Two segments (actors {0, 1} and {2}) holding seven envelopes with
    /// payload ids 0..7 in staging order; id 2 is fated out by the route
    /// pass, so the six survivors' link indices are 0, 1, 2, 3, 4, 5 for
    /// ids 0, 1, 3, 4, 5, 6.
    fn counted_phase(drops: &Arc<AtomicUsize>) -> ([Segment<Counted>; 2], Vec<bool>, Vec<Link>) {
        let env = |from: u32, to: u32, id: u64| Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            payload: Counted(id, drops.clone()),
        };
        let mut seg_a = Segment::new();
        seg_a.staged = vec![
            env(0, 2, 0),
            env(0, 1, 1),
            env(0, 1, 2),
            env(1, 2, 3),
            env(1, 0, 4),
        ];
        seg_a.per_actor = vec![(3, 0), (5, 0)];
        let mut seg_b = Segment::new();
        seg_b.staged = vec![env(2, 1, 5), env(2, 0, 6)];
        seg_b.per_actor = vec![(2, 0)];
        let fates = vec![true, true, false, true, true, true, true];
        let links = [(0, 2), (0, 1), (1, 2), (1, 0), (2, 1), (2, 0)]
            .map(|(from, to)| (ProcessId(from), ProcessId(to)))
            .to_vec();
        ([seg_a, seg_b], fates, links)
    }

    #[test]
    fn wire_order_fills_each_inbox_in_arrival_order_and_drops_the_rest_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut segments, fates, links) = counted_phase(&drops);
        let mut inboxes: Inboxes<Counted> = Inboxes::new(3);
        // Arrival order interleaves both segments, back to front; link 2
        // (id 3) never arrives.
        let order = [5, 4, 3, 1, 0];
        let mut counts = vec![9; 3];
        let mut delivered = Vec::new();
        inboxes.fill(
            &mut segments,
            &fates,
            &mut counts,
            Some((&links, &order)),
            |env| delivered.push(env.payload.0),
        );

        let ids = |i: usize| -> Vec<u64> { inboxes.of(i).iter().map(|e| e.payload.0).collect() };
        assert_eq!(ids(0), vec![6, 4], "p0: link 5 arrived before link 3");
        assert_eq!(ids(1), vec![5, 1], "p1: link 4 arrived before link 1");
        assert_eq!(ids(2), vec![0], "p2: link 2 failed, link 0 arrived");
        assert_eq!(counts, vec![2, 2, 1], "counts recomputed from the order");
        assert_eq!(delivered, vec![0, 1, 4, 5, 6], "recorded in staging order");
        assert!(segments.iter().all(|seg| seg.staged.is_empty()));
        assert_eq!(
            drops.load(Ordering::Relaxed),
            2,
            "the fated-out and the failed envelope, once each"
        );
        drop(inboxes);
        assert_eq!(drops.load(Ordering::Relaxed), 7, "and the rest once");
    }

    /// Runs a wire-order fill that must be refused, checks that nothing
    /// was touched, and re-raises the refusal.
    fn refused_fill(order: &[usize]) {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut segments, fates, links) = counted_phase(&drops);
        let mut inboxes: Inboxes<Counted> = Inboxes::new(3);
        let mut delivered = 0usize;
        let refusal = catch_unwind(AssertUnwindSafe(|| {
            inboxes.fill(
                &mut segments,
                &fates,
                &mut [0; 3],
                Some((&links, order)),
                |_| delivered += 1,
            );
        }))
        .expect_err("the order is invalid");
        assert!(inboxes.is_empty(), "nothing written");
        assert_eq!(delivered, 0, "nothing recorded");
        assert_eq!(segments[0].staged.len() + segments[1].staged.len(), 7);
        assert_eq!(drops.load(Ordering::Relaxed), 0, "nothing dropped");
        resume_unwind(refusal);
    }

    #[test]
    #[should_panic(expected = "link 4 arrived twice")]
    fn duplicate_arrival_index_is_refused_before_the_first_write() {
        refused_fill(&[0, 4, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "arrival index 6 out of range (6 links)")]
    fn out_of_range_arrival_index_is_refused_before_the_first_write() {
        refused_fill(&[0, 1, 6]);
    }

    #[test]
    fn clear_retains_capacity_and_empties_inboxes() {
        let mut seg: Segment<Value> = Segment::new();
        seg.staged = vec![env(0, 1, 1), env(0, 1, 2)];
        seg.per_actor = vec![(2, 0)];
        let mut inboxes: Inboxes<Value> = Inboxes::new(2);
        inboxes.fill(&mut [seg], &[true, true], &mut [0, 2], None, |_| {});
        assert_eq!(inboxes.of(1).len(), 2);
        let cap = inboxes.slots.capacity();
        inboxes.clear();
        assert!(inboxes.of(1).is_empty());
        assert_eq!(inboxes.slots.capacity(), cap);
    }

    #[test]
    fn per_actor_runs_splits_staging() {
        let mut seg: Segment<Value> = Segment::new();
        seg.staged = vec![env(0, 1, 1), env(1, 0, 2), env(1, 2, 3)];
        seg.per_actor = vec![(1, 0), (3, 5)];
        let runs: Vec<_> = seg.per_actor_runs().collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs[0].1.len(), 1);
        assert_eq!(runs[0].2, 0);
        assert_eq!(runs[1].0, 1);
        assert_eq!(runs[1].1, &[env(1, 0, 2), env(1, 2, 3)]);
        assert_eq!(runs[1].2, 5);
    }
}
