//! Flat mailbox storage: frames staged once, inboxes as slices of indices.
//!
//! The paper counts a broadcast as `n − 1` messages and [`Metrics`] does
//! too, but nothing in the model says a simulator has to *move* `n − 1`
//! copies. A `send` or `broadcast` call is staged once, as a *frame* —
//! the sender, the payload, and to whom: a run of target ids in a side
//! buffer, or, for [`Outbox::broadcast_all`](crate::actor::Outbox::broadcast_all),
//! just the `n` of "every id in `0..n` but the sender" — and stays one
//! object until it is dropped:
//!
//! * [`Segment`] — one per worker: every frame the worker's actors staged
//!   this phase, in (actor, send-seq) order, with each frame's targets in
//!   the order the caller listed them (ascending, for a `broadcast_all`).
//!   "Frames in staging order × targets in listed order" is the
//!   `(sender, seq)` *message* order every fate, link index, trace line and
//!   arrival index is expressed in. An actor's
//!   [`Outbox`](crate::actor::Outbox) writes straight into the segment's
//!   buffers, so staging does no per-actor allocation at all.
//! * [`Inboxes`] — one phase's deliveries: the frames that reached at least
//!   one recipient, plus `idx`, one `u32` per delivered message naming its
//!   frame, partitioned by an `offsets` table so actor `i`'s inbox is the
//!   index slice `idx[offsets[i]..offsets[i + 1]]` over the shared frames —
//!   or, after an all-to-all phase, no index at all: actor `i`'s inbox is
//!   every frame but its own. Actors read it through the borrowed [`Inbox`]
//!   view.
//!
//! The deterministic merge every phase driver depends on falls out of the
//! layout: workers own contiguous ascending actor ranges, so walking
//! segments in worker order and each segment in staging order visits every
//! message in exactly the order a sequential run would produce — routing,
//! metrics, trace and delivery order are byte-identical at any thread
//! count.
//!
//! There are three kinds of arrival, and every fill is safe code. The
//! phase core's route pass decides each message's fate; `Inboxes::fill`
//! then *moves the frames* (O(frames)) and *writes indices* (O(messages),
//! four bytes each), either in staging order (lock-step: a per-recipient
//! cursor, nothing materialised) or in the order a wire says the messages
//! arrived (a destination table built from link indices before any frame
//! is touched). The third kind needs no fate and no index: a lock-step
//! phase is *all-to-all* when no link drop is scheduled in it and every
//! frame says so itself — a `broadcast_all` over the run's `n`. Then
//! `Inboxes::fill_dense` only moves the frames, and actor `i`'s inbox is
//! the frames before its own run and the frames after it (staged in actor
//! order, a sender's frames are one run). Nothing on the way from `step`
//! to the inbox is then written per message. The same pass lists the
//! sorted, distinct values of the frames' chains
//! ([`Payload::batch_chain`]) when every frame carries one, and every
//! recipient's view hands that one list out as
//! [`Inbox::chain_values`](crate::actor::Inbox::chain_values): a superset
//! of what the recipient hears, since its own frames are cut out but
//! their values are not. A frame none of whose targets
//! was reached is dropped at the fill; every other frame is dropped once,
//! at [`Inboxes::clear`].
//!
//! [`Metrics`]: crate::metrics::Metrics

#![forbid(unsafe_code)]

use crate::actor::{Envelope, Inbox, Payload};
use ba_crypto::{Chain, ProcessId, Value};
use std::any::Any;

/// A directed link, `(from, to)`: all a wire ever learns about a message.
pub(crate) type Link = (ProcessId, ProcessId);

/// One `send` or `broadcast` call: who sent what. To whom lives beside it —
/// in [`Staging`] while staged, in the index slices of [`Inboxes`] once
/// delivered.
#[derive(Debug)]
pub(crate) struct Frame<P> {
    pub(crate) from: ProcessId,
    pub(crate) payload: P,
}

/// Where a staged frame's targets are: `ids[start..end]` of its staging,
/// or every id in `0..n` but the sender.
#[derive(Clone, Copy, Debug)]
enum Run {
    Ids(u32, u32),
    All(u32),
}

/// One staged frame's targets, in listed order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Targets<'a> {
    /// As the caller listed them, the sender already left out.
    Ids(&'a [ProcessId]),
    /// `broadcast_all(n, ..)`: every id in `0..n` but `from`, ascending.
    All { from: ProcessId, n: u32 },
}

impl<'a> Targets<'a> {
    fn of(run: Run, from: ProcessId, ids: &'a [ProcessId]) -> Self {
        match run {
            Run::Ids(start, end) => Targets::Ids(&ids[start as usize..end as usize]),
            Run::All(n) => Targets::All { from, n },
        }
    }

    /// Number of messages.
    pub(crate) fn len(self) -> usize {
        match self {
            Targets::Ids(ids) => ids.len(),
            Targets::All { from, n } => n as usize - usize::from(from.0 < n),
        }
    }

    /// Whether this is `broadcast_all` over exactly `n` processors.
    pub(crate) fn is_all(self, n: usize) -> bool {
        matches!(self, Targets::All { n: m, .. } if m as usize == n)
    }

    /// Calls `visit` on each target in listed order — what
    /// [`iter`](Self::iter) yields, walked per variant: the per-message
    /// loops (routing, the link visitor, the indexed fill) run this rather
    /// than step a chain of three iterators.
    #[inline]
    pub(crate) fn for_each(self, mut visit: impl FnMut(ProcessId)) {
        match self {
            Targets::Ids(ids) => ids.iter().for_each(|&to| visit(to)),
            Targets::All { from, n } => {
                (0..from.0.min(n)).for_each(|to| visit(ProcessId(to)));
                (from.0.saturating_add(1).min(n)..n).for_each(|to| visit(ProcessId(to)));
            }
        }
    }

    /// The targets in listed order: the ids, or the ranges on either side
    /// of the sender.
    pub(crate) fn iter(self) -> impl DoubleEndedIterator<Item = ProcessId> + 'a {
        let (ids, below, above) = match self {
            Targets::Ids(ids) => (ids, 0..0, 0..0),
            Targets::All { from, n } => (
                &[][..],
                0..from.0.min(n),
                from.0.saturating_add(1).min(n)..n,
            ),
        };
        ids.iter().copied().chain(below.chain(above).map(ProcessId))
    }
}

/// Staged frames and to whom each goes, in staging order.
#[derive(Debug)]
pub(crate) struct Staging<P> {
    frames: Vec<Frame<P>>,
    /// Per frame: its targets.
    runs: Vec<Run>,
    /// The explicit runs' ids, back to back.
    ids: Vec<ProcessId>,
    /// Messages staged: every frame's target count, summed.
    messages: usize,
}

/// Empty: an adversary's scratch outbox, a worker's segment, or the
/// placeholder a segment leaves while its staging is out with an outbox.
impl<P> Default for Staging<P> {
    fn default() -> Self {
        Staging {
            frames: Vec::new(),
            runs: Vec::new(),
            ids: Vec::new(),
            messages: 0,
        }
    }
}

impl<P> Staging<P> {
    /// Stages one frame from `from` to every id in `targets` but `from`
    /// itself (the model has no self-edges). A frame left with no target
    /// is not staged at all.
    pub(crate) fn push(
        &mut self,
        from: ProcessId,
        targets: impl IntoIterator<Item = ProcessId>,
        payload: P,
    ) {
        let start = self.ids.len();
        self.ids
            .extend(targets.into_iter().filter(|&to| to != from));
        let end = u32::try_from(self.ids.len()).expect("under 2^32 messages per segment");
        self.stage(Frame { from, payload }, Run::Ids(start as u32, end));
    }

    /// Stages one frame from `from` to every id in `0..n` but `from`,
    /// writing no id: what [`push`](Self::push) of `0..n` stages.
    pub(crate) fn push_all(&mut self, from: ProcessId, n: usize, payload: P) {
        let n = u32::try_from(n).expect("under 2^32 processors");
        self.stage(Frame { from, payload }, Run::All(n));
    }

    fn stage(&mut self, frame: Frame<P>, run: Run) {
        let messages = Targets::of(run, frame.from, &self.ids).len();
        if messages > 0 {
            self.messages += messages;
            self.frames.push(frame);
            self.runs.push(run);
        }
    }

    /// Number of staged messages (targets, not frames).
    pub(crate) fn messages(&self) -> usize {
        self.messages
    }

    /// Drops everything staged, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.frames.clear();
        self.runs.clear();
        self.ids.clear();
        self.messages = 0;
    }

    /// Every staged frame with its targets, in staging order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Frame<P>, Targets<'_>)> {
        let runs = self.runs.iter();
        (self.frames.iter().zip(runs))
            .map(|(frame, &run)| (frame, Targets::of(run, frame.from, &self.ids)))
    }

    /// Moves the frames out in staging order, each with its targets; the
    /// caller [`clear`](Self::clear)s what is left.
    fn drain(&mut self) -> impl Iterator<Item = (Frame<P>, Targets<'_>)> {
        let (runs, ids) = (&self.runs, &self.ids);
        self.frames.drain(..).zip(runs).map(move |(frame, &run)| {
            let targets = Targets::of(run, frame.from, ids);
            (frame, targets)
        })
    }

    /// Consumes the staging, expanding every frame into one owned
    /// [`Envelope`] per target, in message order; the last target of a
    /// frame takes the payload itself.
    pub(crate) fn into_envelopes(mut self) -> Vec<Envelope<P>>
    where
        P: Clone,
    {
        let mut envelopes = Vec::with_capacity(self.messages);
        for (Frame { from, payload }, targets) in self.drain() {
            let mut to = targets.iter();
            let last = to.next_back().expect("a staged frame has a target");
            envelopes.extend(to.map(|to| Envelope {
                from,
                to,
                payload: payload.clone(),
            }));
            envelopes.push(Envelope {
                from,
                to: last,
                payload,
            });
        }
        envelopes
    }
}

/// One phase's deliveries for all `n` actors: shared frames, and per actor
/// a slice of indices into them.
#[derive(Debug)]
pub struct Inboxes<P> {
    /// The frames that reached at least one recipient, in staging order.
    frames: Vec<Frame<P>>,
    /// One entry per delivered message: its frame's position in `frames`.
    idx: Vec<u32>,
    /// `n + 1` entries; actor `i` owns `idx[offsets[i]..offsets[i+1]]`.
    offsets: Vec<usize>,
    /// Fill scratch, recycled across phases: the next free slot of each
    /// recipient's inbox.
    cursors: Vec<usize>,
    /// Fill scratch, recycled across phases: each surviving message's
    /// destination slot, or `FAILED` (wire-order arrival only; empty
    /// otherwise).
    dest: Vec<usize>,
    /// Filled all-to-all ([`fill_dense`](Self::fill_dense)): `idx` and
    /// `offsets` are unused, and actor `i`'s inbox is every frame but its
    /// own.
    dense: bool,
    /// Filled all-to-all with a chain in every frame: `values` lists the
    /// chains' values, sorted and deduplicated — what
    /// [`Inbox::chain_values`] hands every recipient.
    chained: bool,
    /// The all-to-all fill's chain values, recycled across phases.
    values: Vec<Value>,
}

/// Destination of a surviving message its wire never delivered.
const FAILED: usize = usize::MAX;

impl<P: Payload> Inboxes<P> {
    /// An empty arena for `n` actors.
    pub fn new(n: usize) -> Self {
        Inboxes {
            frames: Vec::new(),
            idx: Vec::new(),
            offsets: vec![0; n + 1],
            cursors: Vec::new(),
            dest: Vec::new(),
            dense: false,
            chained: false,
            values: Vec::new(),
        }
    }

    /// Actor `i`'s inbox for the current phase.
    pub fn of(&self, i: usize) -> Inbox<'_, P> {
        let to = ProcessId(i as u32);
        if self.dense {
            // Frames sit in actor order, so `to`'s own are one run.
            let own = self.frames.partition_point(|f| f.from < to);
            let end = own + self.frames[own..].partition_point(|f| f.from == to);
            let values = self.chained.then_some(&self.values[..]);
            return Inbox::all_but(to, &self.frames[..own], &self.frames[end..], values);
        }
        let idx = &self.idx[self.offsets[i]..self.offsets[i + 1]];
        Inbox::over_frames(to, &self.frames, idx)
    }

    /// Total messages currently held.
    pub fn len(&self) -> usize {
        if self.dense {
            // Each frame reached all n − 1 others (`offsets` has n + 1).
            return self.frames.len() * self.offsets.len().saturating_sub(2);
        }
        self.idx.len()
    }

    /// Whether no messages are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload of every held frame, in staging order — each frame once,
    /// however many inboxes index it (the engine's barrier-verification
    /// pass walks this).
    pub fn payloads(&self) -> impl Iterator<Item = &P> {
        self.frames.iter().map(|frame| &frame.payload)
    }

    /// Drops all frames, keeping the arena's capacity for the next phase.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.idx.clear();
        self.offsets.fill(0);
        self.dense = false;
        self.chained = false;
        self.values.clear();
    }

    /// The all-to-all fill: the route pass found every staged frame a
    /// `broadcast_all` over this arena's `n`, so each reaches all `n − 1`
    /// others and nothing is written per message. The frames move into the
    /// arena once, in staging order, each passed to `on_delivered` as
    /// [`fill`](Self::fill) does; actor `i`'s inbox is then every frame but
    /// its own, which is what the staging-order fill would have indexed.
    /// The same pass lists the values of the frames'
    /// [`batch_chain`](Payload::batch_chain)s, for
    /// [`Inbox::chain_values`], unless a frame carries none.
    pub(crate) fn fill_dense(
        &mut self,
        segments: &mut [Segment<P>],
        mut on_delivered: impl FnMut(&Frame<P>, usize, &mut dyn Iterator<Item = ProcessId>),
    ) {
        self.clear();
        self.dense = true;
        self.chained = true;
        for seg in segments.iter_mut() {
            for (frame, targets) in seg.staged.drain() {
                on_delivered(&frame, targets.len(), &mut targets.iter());
                match frame.payload.batch_chain().map(Chain::value) {
                    // Relays of one value arrive in runs: skip the repeats.
                    Some(v) if self.values.last() == Some(&v) => {}
                    Some(v) => self.values.push(v),
                    None => self.chained = false,
                }
                self.frames.push(frame);
            }
            seg.staged.clear();
        }
        self.values.sort_unstable();
        self.values.dedup();
    }

    /// Rebuilds this arena from the phase's staged segments — the indexed
    /// fill, for both kinds of per-message arrival. `fates[k]` tells whether
    /// the `k`-th staged message (in segment-major staging order, the
    /// deterministic merge order) survived the route pass; on return it
    /// tells whether the message was *delivered*. Consumes every segment's
    /// staging: `on_delivered` sees each frame that reached anyone, with
    /// the number of recipients it reached and their ids in listed order,
    /// as the frame moves into the arena; a frame that reached no one is
    /// dropped here.
    ///
    /// * `wire == None` — every survivor arrives, in staging order.
    ///   `counts[i]` is the number of survivors addressed to recipient `i`
    ///   (the route pass counted them); each takes its recipient's next
    ///   cursor position, so nothing is materialised.
    /// * `wire == Some((links, order))` — `links` lists the survivors'
    ///   `(from, to)` in staging order and `order` is the sequence in which
    ///   a wire delivered them, as indices into `links`; a survivor absent
    ///   from `order` permanently failed. `counts` is recomputed from
    ///   `order`, and each recipient's inbox ends up in arrival order.
    ///
    /// # Panics
    /// Before anything is written, if an index in `order` is out of range
    /// or appears twice. While filling (the arena is left holding indices
    /// that mean nothing and must not be read), if `fates`, `counts` or
    /// `links` do not describe the segments.
    pub(crate) fn fill(
        &mut self,
        segments: &mut [Segment<P>],
        fates: &mut [bool],
        counts: &mut [usize],
        wire: Option<(&[Link], &[usize])>,
        mut on_delivered: impl FnMut(&Frame<P>, usize, &mut dyn Iterator<Item = ProcessId>),
    ) {
        let n = self.offsets.len() - 1;
        assert_eq!(counts.len(), n, "one count per recipient");
        self.frames.clear();
        self.idx.clear();
        self.dense = false;
        self.dest.clear();
        if let Some((links, order)) = wire {
            // Validate the order and count arrivals per recipient, without
            // touching a frame.
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
        self.idx.resize(total, 0);
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

        let mut dest = self.dest.iter();
        let mut written = 0usize;
        let mut first = 0usize; // the current frame's first message
        for seg in segments.iter_mut() {
            for (frame, targets) in seg.staged.drain() {
                let run_fates = fates
                    .get_mut(first..first + targets.len())
                    .expect("one fate per staged message");
                first += targets.len();
                let f = u32::try_from(self.frames.len()).expect("under 2^32 frames per phase");
                let mut reached = 0usize;
                let mut fates = run_fates.iter_mut();
                targets.for_each(|to| {
                    let fate = fates.next().expect("one fate per target");
                    if !*fate {
                        return;
                    }
                    let slot = match wire {
                        None => {
                            let to = to.index();
                            let slot = self.cursors[to];
                            assert!(slot < self.offsets[to + 1], "recipient {to} is full");
                            self.cursors[to] = slot + 1;
                            slot
                        }
                        Some(_) => *dest.next().expect("one link per survivor"),
                    };
                    if slot == FAILED {
                        *fate = false;
                        return;
                    }
                    self.idx[slot] = f;
                    reached += 1;
                });
                if reached == 0 {
                    continue; // drops the frame
                }
                let arrived = targets.iter().zip(run_fates.iter());
                let mut arrived = arrived.filter(|(_, &ok)| ok).map(|(to, _)| to);
                on_delivered(&frame, reached, &mut arrived);
                self.frames.push(frame);
                written += reached;
            }
            seg.staged.clear();
        }
        assert_eq!(first, fates.len(), "one staged message per fate");
        // With distinct slots — a recipient's cursor only increments inside
        // its own range, and `dest` was dealt by those same cursors to the
        // distinct indices of `order` — this says every index was written.
        assert_eq!(written, total, "every reserved slot is filled");
    }
}

/// One worker's staged output for a phase: all of its actors' frames in
/// staging order, plus how many sends adversary wrappers suppressed.
#[derive(Debug)]
pub struct Segment<P> {
    /// Frames in (actor, send-seq) order within this worker's actor range.
    pub(crate) staged: Staging<P>,
    /// The summed
    /// [`Outbox::note_omitted`](crate::actor::Outbox::note_omitted) counts
    /// of this worker's actors.
    pub(crate) omitted: u64,
    /// The payload of the panic that cut this chunk's step short, if one
    /// did; the staging above is then incomplete and must not be routed.
    pub(crate) panic: Option<Box<dyn Any + Send>>,
}

impl<P: Payload> Segment<P> {
    /// An empty segment.
    pub fn new() -> Self {
        Segment {
            staged: Staging::default(),
            omitted: 0,
            panic: None,
        }
    }

    /// Clears the segment for a new phase, retaining capacity.
    pub(crate) fn begin_phase(&mut self) {
        self.staged.clear();
        self.omitted = 0;
        self.panic = None;
    }

    /// Number of messages currently staged.
    pub fn staged_len(&self) -> usize {
        self.staged.messages()
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

    fn ids(ids: impl IntoIterator<Item = u32>) -> impl Iterator<Item = ProcessId> {
        ids.into_iter().map(ProcessId)
    }

    /// A segment holding `frames`, each `(from, targets, payload)`.
    fn segment<P: Payload, const K: usize>(frames: [(u32, &[u32], P); K]) -> Segment<P> {
        let mut seg = Segment::new();
        for (from, targets, payload) in frames {
            seg.staged
                .push(ProcessId(from), ids(targets.iter().copied()), payload);
        }
        seg
    }

    /// Recipient `i`'s inbox as `(from, payload)` pairs.
    fn inbox<P: Payload>(inboxes: &Inboxes<P>, i: usize) -> Vec<(u32, P)> {
        let inbox = inboxes.of(i);
        assert!(inbox.iter().all(|m| m.to == ProcessId(i as u32)));
        inbox
            .iter()
            .map(|m| (m.from.0, m.payload.clone()))
            .collect()
    }

    #[test]
    fn staging_skips_the_sender_and_stages_no_targetless_frame() {
        let mut staged: Staging<Value> = Staging::default();
        staged.push(ProcessId(1), ids([0, 1, 2, 1]), Value(7));
        staged.push(ProcessId(1), ids([1]), Value(8));
        staged.push(ProcessId(1), ids([]), Value(9));
        staged.push_all(ProcessId(0), 1, Value(11));
        staged.push_all(ProcessId(1), 3, Value(12));
        staged.push(ProcessId(2), ids([0, 0]), Value(10));
        staged.push_all(ProcessId(5), 2, Value(13));
        assert_eq!(staged.messages(), 8);
        let runs: Vec<_> = staged
            .iter()
            .map(|(frame, run)| (frame.from.0, frame.payload.0, run.iter().collect()))
            .collect();
        assert_eq!(
            runs,
            vec![
                (1, 7, ids([0, 2]).collect::<Vec<_>>()),
                (1, 12, ids([0, 2]).collect()),
                (2, 10, ids([0, 0]).collect()),
                (5, 13, ids([0, 1]).collect()),
            ],
            "a duplicate target is two messages; `0..n` skips only its sender"
        );
        let links: Vec<_> = staged.into_envelopes().iter().map(|e| e.to.0).collect();
        assert_eq!(links, vec![0, 2, 0, 2, 0, 0, 0, 1]);
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
        // Two segments (workers over actors {0,1} and {2,3}); messages to
        // shared recipients must land in segment-major staging order,
        // whether they were staged as a send or inside a broadcast.
        let seg_a = segment([
            (0, &[3, 2], Value(10)),
            (1, &[3], Value(12)),
            (1, &[9], Value(99)),
        ]);
        let seg_b = segment([(2, &[3], Value(13)), (3, &[0], Value(14))]);

        let mut inboxes: Inboxes<Value> = Inboxes::new(4);
        let mut fates = vec![true, true, true, false, true, false];
        let mut counts = vec![0, 0, 1, 3];
        let mut recorded = Vec::new();
        inboxes.fill(
            &mut [seg_a, seg_b],
            &mut fates,
            &mut counts,
            None,
            |frame, reached, to| recorded.push((frame.payload.0, reached, to.count())),
        );

        assert_eq!(inboxes.len(), 4);
        assert!(inbox(&inboxes, 0).is_empty(), "fate=false message dropped");
        assert!(inbox(&inboxes, 1).is_empty());
        assert_eq!(inbox(&inboxes, 2), vec![(0, Value(10))]);
        assert_eq!(
            inbox(&inboxes, 3),
            vec![(0, Value(10)), (1, Value(12)), (2, Value(13))],
            "recipient 3 sees senders in (sender, seq) order"
        );
        assert_eq!(recorded, vec![(10, 2, 2), (12, 1, 1), (13, 1, 1)]);
        let held: Vec<_> = inboxes.payloads().copied().collect();
        assert_eq!(held, vec![Value(10), Value(12), Value(13)]);
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

    /// Two segments (actors {0, 1} and {2}) holding five frames, ids 0..5
    /// in staging order, seven messages in all. Frame 1's only message is
    /// fated out by the route pass, so the six survivors' link indices
    /// are 0, 1 (frame 0), 2 (frame 2), 3 (frame 3), 4, 5 (frame 4).
    fn counted_phase(drops: &Arc<AtomicUsize>) -> ([Segment<Counted>; 2], Vec<bool>, Vec<Link>) {
        let frame = |id: u64| Counted(id, drops.clone());
        let seg_a = segment([
            (0, &[2, 1], frame(0)),
            (0, &[1], frame(1)),
            (1, &[2], frame(2)),
            (1, &[0], frame(3)),
        ]);
        let seg_b = segment([(2, &[1, 0], frame(4))]);
        let fates = vec![true, true, false, true, true, true, true];
        let links = [(0, 2), (0, 1), (1, 2), (1, 0), (2, 1), (2, 0)]
            .map(|(from, to)| (ProcessId(from), ProcessId(to)))
            .to_vec();
        ([seg_a, seg_b], fates, links)
    }

    #[test]
    fn wire_order_fills_each_inbox_in_arrival_order_and_drops_the_rest_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut segments, mut fates, links) = counted_phase(&drops);
        let mut inboxes: Inboxes<Counted> = Inboxes::new(3);
        // Arrival order interleaves both segments, back to front; link 2
        // (all of frame 2) never arrives.
        let order = [5, 4, 3, 1, 0];
        let mut counts = vec![9; 3];
        let mut delivered = Vec::new();
        inboxes.fill(
            &mut segments,
            &mut fates,
            &mut counts,
            Some((&links, &order)),
            |frame, reached, to| {
                let to: Vec<u32> = to.map(|to| to.0).collect();
                assert_eq!(to.len(), reached);
                delivered.push((frame.payload.0, to));
            },
        );

        let ids = |i: usize| -> Vec<u64> { inboxes.of(i).iter().map(|m| m.payload.0).collect() };
        assert_eq!(ids(0), vec![4, 3], "p0: link 5 arrived before link 3");
        assert_eq!(ids(1), vec![4, 0], "p1: link 4 arrived before link 1");
        assert_eq!(ids(2), vec![0], "p2: link 2 failed, link 0 arrived");
        assert_eq!(counts, vec![2, 2, 1], "counts recomputed from the order");
        assert_eq!(
            delivered,
            vec![(0, vec![2, 1]), (3, vec![0]), (4, vec![1, 0])],
            "recorded once per frame, in staging order"
        );
        assert_eq!(
            fates,
            vec![true, true, false, false, true, true, true],
            "fates now say delivered"
        );
        assert!(segments.iter().all(|seg| seg.staged_len() == 0));
        assert_eq!(
            drops.load(Ordering::Relaxed),
            2,
            "the fated-out and the failed frame, once each"
        );
        let held: Vec<u64> = inboxes.payloads().map(|p| p.0).collect();
        assert_eq!(
            held,
            vec![0, 3, 4],
            "a frame that reached no one is not held"
        );
        inboxes.clear();
        assert_eq!(drops.load(Ordering::Relaxed), 5, "and the rest once");
        drop(inboxes);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn dense_fill_gives_each_recipient_every_frame_but_its_own() {
        // Two segments (actors {0, 1} and {2}): p1 broadcasts twice, p2
        // not at all.
        let drops = Arc::new(AtomicUsize::new(0));
        let frame = |id: u64| Counted(id, drops.clone());
        let mut seg_a = Segment::new();
        for (from, id) in [(0, 0), (1, 1), (1, 2)] {
            seg_a.staged.push_all(ProcessId(from), 3, frame(id));
        }
        let mut inboxes: Inboxes<Counted> = Inboxes::new(3);
        let mut delivered = Vec::new();
        inboxes.fill_dense(&mut [seg_a, Segment::new()], |frame, reached, to| {
            let to: Vec<u32> = to.map(|to| to.0).collect();
            delivered.push((frame.payload.0, reached, to));
        });
        let recorded = [(0, 2, vec![1, 2]), (1, 2, vec![0, 2]), (2, 2, vec![0, 2])];
        assert_eq!(delivered, recorded, "once per frame, listed order");
        let heard = |i: usize| -> Vec<(u32, u64)> {
            let inbox = inboxes.of(i);
            assert!(inbox.iter().all(|m| m.to == ProcessId(i as u32)));
            inbox.iter().map(|m| (m.from.0, m.payload.0)).collect()
        };
        assert_eq!(heard(0), [(1, 1), (1, 2)]);
        assert_eq!(heard(1), [(0, 0)], "both of p1's own frames cut out");
        assert_eq!(heard(2), [(0, 0), (1, 1), (1, 2)]);
        assert_eq!(inboxes.len(), 6);
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        inboxes.clear();
        assert!(inboxes.is_empty() && inboxes.of(2).is_empty());
        assert_eq!(drops.load(Ordering::Relaxed), 3, "each frame once");
    }

    /// Runs a wire-order fill that must be refused, checks that nothing
    /// was touched, and re-raises the refusal.
    fn refused_fill(order: &[usize]) {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut segments, mut fates, links) = counted_phase(&drops);
        let mut inboxes: Inboxes<Counted> = Inboxes::new(3);
        let mut delivered = 0usize;
        let refusal = catch_unwind(AssertUnwindSafe(|| {
            inboxes.fill(
                &mut segments,
                &mut fates,
                &mut [0; 3],
                Some((&links, order)),
                |_, _, _| delivered += 1,
            );
        }))
        .expect_err("the order is invalid");
        assert!(inboxes.is_empty(), "nothing written");
        assert_eq!(delivered, 0, "nothing recorded");
        assert_eq!(segments[0].staged_len() + segments[1].staged_len(), 7);
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
        let seg = segment([(0, &[1], Value(1)), (0, &[1], Value(2))]);
        let mut inboxes: Inboxes<Value> = Inboxes::new(2);
        inboxes.fill(
            &mut [seg],
            &mut [true, true],
            &mut [0, 2],
            None,
            |_, _, _| {},
        );
        assert_eq!(inboxes.of(1).len(), 2);
        let cap = (inboxes.frames.capacity(), inboxes.idx.capacity());
        inboxes.clear();
        assert!(inboxes.of(1).is_empty());
        assert_eq!((inboxes.frames.capacity(), inboxes.idx.capacity()), cap);
    }
}
