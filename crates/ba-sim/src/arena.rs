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
//! The deterministic merge the engine depends on falls out of the layout:
//! workers own contiguous ascending actor ranges, so walking segments in
//! worker order and each segment in staging order visits every envelope in
//! exactly the `(sender, seq)` order a sequential run would produce —
//! routing, metrics, trace and delivery order are byte-identical at any
//! thread count.
//!
//! Scattering staged envelopes into the next phase's inbox arena is the
//! one `unsafe` block in the crate: pass A (the engine's routing loop)
//! decides each envelope's fate and counts deliveries per recipient, pass
//! B turns counts into prefix-sum offsets, and `Inboxes::fill_from`
//! (pass C) moves every delivered envelope into its reserved slot with no
//! user code running between the writes and the final `set_len`.

use crate::actor::{Envelope, Payload};

/// One phase's deliveries for all `n` actors, in one contiguous buffer.
#[derive(Debug)]
pub struct Inboxes<P> {
    slots: Vec<Envelope<P>>,
    /// `n + 1` entries; actor `i` owns `slots[offsets[i]..offsets[i+1]]`.
    offsets: Vec<usize>,
}

impl<P: Payload> Inboxes<P> {
    /// An empty arena for `n` actors.
    pub fn new(n: usize) -> Self {
        Inboxes {
            slots: Vec::new(),
            offsets: vec![0; n + 1],
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

    /// Rebuilds this arena from the phase's staged segments: `counts[i]`
    /// deliverable envelopes per recipient `i` (computed by the engine's
    /// routing pass), `fates[k]` telling whether the `k`-th staged envelope
    /// (in segment-major, staging order — the deterministic merge order) is
    /// delivered. Consumes every segment's staged buffer; envelopes with a
    /// `false` fate are dropped here. `cursors` is caller-provided scratch
    /// (recycled across phases).
    pub(crate) fn fill_from(
        &mut self,
        segments: &mut [Segment<P>],
        fates: &[bool],
        counts: &[usize],
        cursors: &mut Vec<usize>,
    ) {
        let n = self.offsets.len() - 1;
        debug_assert_eq!(counts.len(), n);
        self.slots.clear();
        let mut total = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            self.offsets[i] = total;
            total += c;
        }
        self.offsets[n] = total;
        self.slots.reserve(total);
        cursors.clear();
        cursors.extend_from_slice(&self.offsets[..n]);

        let spare = self.slots.spare_capacity_mut();
        let mut ord = 0usize;
        for seg in segments.iter_mut() {
            for env in seg.staged.drain(..) {
                if fates[ord] {
                    let to = env.to.index();
                    spare[cursors[to]].write(env);
                    cursors[to] += 1;
                }
                // A false fate drops the envelope right here. If its drop
                // panics, already-written envelopes leak (len is still 0,
                // so they are never touched again) — a leak, never a
                // double drop.
                ord += 1;
            }
        }
        debug_assert_eq!(ord, fates.len());
        // SAFETY: every index in `0..total` was written exactly once:
        // pass A counted, per recipient `i`, exactly `counts[i]` envelopes
        // with a true fate, and `cursors[i]` walked the half-open range
        // `offsets[i]..offsets[i + 1]` — ranges that partition `0..total`.
        unsafe { self.slots.set_len(total) };
        debug_assert!((0..n).all(|i| self.offsets[i] <= self.offsets[i + 1]));
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
}

impl<P: Payload> Segment<P> {
    /// An empty segment.
    pub fn new() -> Self {
        Segment {
            staged: Vec::new(),
            per_actor: Vec::new(),
        }
    }

    /// Clears the segment for a new phase, retaining capacity.
    pub(crate) fn begin_phase(&mut self) {
        self.staged.clear();
        self.per_actor.clear();
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
        let counts = vec![0, 0, 1, 3];
        let mut cursors = Vec::new();
        inboxes.fill_from(&mut [seg_a, seg_b], &fates, &counts, &mut cursors);

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

    #[test]
    fn clear_retains_capacity_and_empties_inboxes() {
        let mut seg: Segment<Value> = Segment::new();
        seg.staged = vec![env(0, 1, 1), env(0, 1, 2)];
        seg.per_actor = vec![(2, 0)];
        let mut inboxes: Inboxes<Value> = Inboxes::new(2);
        let mut cursors = Vec::new();
        inboxes.fill_from(&mut [seg], &[true, true], &[0, 2], &mut cursors);
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
