//! The actor abstraction: protocol roles as state machines stepped once per
//! phase.
//!
//! An actor reads an [`Inbox`] — a borrowed view of the phase's deliveries
//! whose iterator walks the view's own slices — and stages sends into an
//! [`Outbox`]: `send` to one processor, `broadcast` to a list, and
//! `broadcast_all(n, ..)` to every processor of an `n`-processor run but
//! itself. The last is `broadcast` of `0..n` by definition, and the only
//! spelling of "everyone" the engine can deliver without touching a target
//! id (see [`crate::arena`]).
//!
//! After such an all-to-all phase an inbox also says which values its
//! chains carry, without a walk: [`Inbox::chain_values`], a sorted list
//! that may name more than the recipient hears but never less. A
//! receiver that would turn away every listed value can skip the inbox
//! unread; every other view returns `None`.

use crate::arena::{Frame, Staging};
use ba_crypto::{ProcessId, Value};
use core::fmt;

/// A message payload that the metrics subsystem can account for.
///
/// Implemented for any clonable debug-printable type; override
/// [`signature_count`](Payload::signature_count) for payloads carrying
/// signatures so the engine can reproduce the paper's signature counts, and
/// [`weight_bytes`](Payload::weight_bytes) when encoded size is meaningful.
///
/// `Send + Sync` is required so the engine can step actors across scoped
/// worker threads (see [`Simulation::with_threads`]); every payload in the
/// workspace is plain data, so the bound costs nothing in practice.
///
/// [`Simulation::with_threads`]: crate::engine::Simulation::with_threads
pub trait Payload: Clone + fmt::Debug + Send + Sync {
    /// Number of signatures appended to this message (the paper's second
    /// cost measure). Defaults to zero for unauthenticated payloads.
    fn signature_count(&self) -> usize {
        0
    }

    /// Approximate encoded size in bytes, for bandwidth accounting.
    /// Defaults to zero (unknown).
    fn weight_bytes(&self) -> usize {
        0
    }

    /// The portion of [`weight_bytes`](Payload::weight_bytes) that is
    /// application payload — user data being agreed on, as opposed to
    /// protocol control (framing, signatures, digests). The single-value
    /// targets carry none; the extension layer's coded chunks report
    /// their data slices here so metrics can split wire volume into
    /// payload vs control. Must never exceed `weight_bytes`.
    fn payload_bytes(&self) -> usize {
        0
    }

    /// A short label classifying this message for the per-kind metrics
    /// breakdown (e.g. Algorithm 5 reports "activate" / "grid" /
    /// "chain"). Defaults to `"message"`.
    fn kind(&self) -> &'static str {
        "message"
    }

    /// The signature chain this payload carries, if any: what the default
    /// [`verify_at_barrier`](Payload::verify_at_barrier) hands the barrier,
    /// and what [`Inbox::chain_values`] lists. Defaults to `None`.
    fn batch_chain(&self) -> Option<&ba_crypto::Chain> {
        None
    }

    /// Hands every signed object this payload carries to the phase
    /// barrier's one verification pass (see [`ba_crypto::stamp`]): each is
    /// checked once per unique object, and each recipient's own check is
    /// then a stamp comparison. What is not handed over, recipients verify
    /// in full. Defaults to the [`batch_chain`](Payload::batch_chain), if
    /// any.
    fn verify_at_barrier(&self, barrier: &mut ba_crypto::Barrier<'_>) {
        if let Some(chain) = self.batch_chain() {
            barrier.chain(chain);
        }
    }
}

impl Payload for Value {}
impl Payload for u64 {}
impl Payload for () {}

impl Payload for ba_crypto::Chain {
    fn signature_count(&self) -> usize {
        self.len()
    }
    fn weight_bytes(&self) -> usize {
        16 + self
            .signatures()
            .iter()
            .map(|s| s.encoded_len())
            .sum::<usize>()
    }
    fn kind(&self) -> &'static str {
        "chain"
    }
    fn batch_chain(&self) -> Option<&ba_crypto::Chain> {
        Some(self)
    }
}

/// A message in flight: source, destination and payload.
///
/// Per the paper's model, the receiver always knows the true source of an
/// edge — "no processor can send a message to `p` claiming to be somebody
/// else" — so `from` is stamped by the engine, never by the sender.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope<P> {
    /// The sending processor (stamped by the engine).
    pub from: ProcessId,
    /// The receiving processor.
    pub to: ProcessId,
    /// The message contents.
    pub payload: P,
}

/// One received message, borrowed from wherever the phase's deliveries
/// live: an [`Envelope`] whose payload is a reference. A broadcast reaches
/// all of its recipients as the *same* payload, staged once.
#[derive(PartialEq, Eq, Debug)]
pub struct Received<'a, P> {
    /// The sending processor (stamped by the engine).
    pub from: ProcessId,
    /// The receiving processor.
    pub to: ProcessId,
    /// The message contents.
    pub payload: &'a P,
}

impl<P> Clone for Received<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for Received<'_, P> {}

impl<'a, P> Received<'a, P> {
    /// `frame`, as received by `to`.
    fn of(to: ProcessId, frame: &'a Frame<P>) -> Self {
        Received {
            from: frame.from,
            to,
            payload: &frame.payload,
        }
    }

    /// `env`, borrowed.
    fn from_envelope(env: &'a Envelope<P>) -> Self {
        Received {
            from: env.from,
            to: env.to,
            payload: &env.payload,
        }
    }
}

impl<P: Clone> Received<'_, P> {
    /// An owned copy of this message.
    pub fn to_envelope(&self) -> Envelope<P> {
        Envelope {
            from: self.from,
            to: self.to,
            payload: self.payload.clone(),
        }
    }
}

/// The messages delivered to one actor for one phase, in delivery order: a
/// borrowed view, cheap to copy. The engine hands out views over its arena
/// ([`Inboxes`](crate::arena::Inboxes): a slice of indices into the
/// phase's shared frames, or — after an all-to-all phase — every frame but
/// the actor's own); anyone else builds one over a slice of owned
/// envelopes with [`Inbox::of`].
#[derive(Debug)]
pub struct Inbox<'a, P>(Repr<'a, P>);

#[derive(Debug)]
enum Repr<'a, P> {
    Envelopes(&'a [Envelope<P>]),
    Frames {
        to: ProcessId,
        frames: &'a [Frame<P>],
        idx: &'a [u32],
    },
    /// `before`, then `after`: the phase's frames with `to`'s own cut out;
    /// `values` is what [`Inbox::chain_values`] returns.
    AllBut {
        to: ProcessId,
        before: &'a [Frame<P>],
        after: &'a [Frame<P>],
        values: Option<&'a [Value]>,
    },
}

impl<P> Clone for Inbox<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for Inbox<'_, P> {}

impl<P> Clone for Repr<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for Repr<'_, P> {}

impl<'a, P> Inbox<'a, P> {
    /// An inbox holding exactly `envelopes`, in order.
    pub fn of(envelopes: &'a [Envelope<P>]) -> Self {
        Inbox(Repr::Envelopes(envelopes))
    }

    /// Processor `to`'s inbox: for each entry of `idx`, that frame.
    pub(crate) fn over_frames(to: ProcessId, frames: &'a [Frame<P>], idx: &'a [u32]) -> Self {
        Inbox(Repr::Frames { to, frames, idx })
    }

    /// Processor `to`'s inbox: every frame of `before`, then of `after`,
    /// whose chains' values `values` lists, if it is given.
    pub(crate) fn all_but(
        to: ProcessId,
        before: &'a [Frame<P>],
        after: &'a [Frame<P>],
        values: Option<&'a [Value]>,
    ) -> Self {
        Inbox(Repr::AllBut {
            to,
            before,
            after,
            values,
        })
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        match self.0 {
            Repr::Envelopes(envelopes) => envelopes.len(),
            Repr::Frames { idx, .. } => idx.len(),
            Repr::AllBut { before, after, .. } => before.len() + after.len(),
        }
    }

    /// Whether there are no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th message in delivery order.
    pub fn get(&self, k: usize) -> Option<Received<'a, P>> {
        match self.0 {
            Repr::Envelopes(envelopes) => envelopes.get(k).map(Received::from_envelope),
            Repr::Frames { to, frames, idx } => {
                idx.get(k).map(|&f| Received::of(to, &frames[f as usize]))
            }
            Repr::AllBut {
                to, before, after, ..
            } => before
                .get(k)
                .or_else(|| after.get(k - before.len()))
                .map(|frame| Received::of(to, frame)),
        }
    }

    /// The first message, if any.
    pub fn first(&self) -> Option<Received<'a, P>> {
        self.get(0)
    }

    /// The values this inbox's chains carry, when the engine listed them
    /// without a walk. `Some(vs)` says every message here is a chain (its
    /// payload's [`Payload::batch_chain`]) whose value is in `vs`, sorted
    /// and deduplicated; `vs` may name a value that only other recipients
    /// of the phase hear. `None` says nothing: it is what every view but
    /// an all-to-all lock-step phase's gives (see [`crate::arena`]), and
    /// what that one gives when a payload carries no chain.
    pub fn chain_values(&self) -> Option<&'a [Value]> {
        match self.0 {
            Repr::AllBut { values, .. } => values,
            _ => None,
        }
    }

    /// The messages in delivery order.
    pub fn iter(&self) -> InboxIter<'a, P> {
        InboxIter(match self.0 {
            Repr::Envelopes(envelopes) => IterRepr::Envelopes(envelopes.iter()),
            Repr::Frames { to, frames, idx } => IterRepr::Frames {
                to,
                frames,
                idx: idx.iter(),
            },
            Repr::AllBut {
                to, before, after, ..
            } => IterRepr::AllBut {
                to,
                before: before.iter(),
                after: after.iter(),
            },
        })
    }
}

/// Iterator over an [`Inbox`]: walks the view's own slices.
#[derive(Debug)]
pub struct InboxIter<'a, P>(IterRepr<'a, P>);

#[derive(Debug)]
enum IterRepr<'a, P> {
    Envelopes(std::slice::Iter<'a, Envelope<P>>),
    Frames {
        to: ProcessId,
        frames: &'a [Frame<P>],
        idx: std::slice::Iter<'a, u32>,
    },
    AllBut {
        to: ProcessId,
        before: std::slice::Iter<'a, Frame<P>>,
        after: std::slice::Iter<'a, Frame<P>>,
    },
}

impl<'a, P> Iterator for InboxIter<'a, P> {
    type Item = Received<'a, P>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            IterRepr::Envelopes(envelopes) => envelopes.next().map(Received::from_envelope),
            IterRepr::Frames { to, frames, idx } => {
                idx.next().map(|&f| Received::of(*to, &frames[f as usize]))
            }
            IterRepr::AllBut { to, before, after } => before
                .next()
                .or_else(|| after.next())
                .map(|frame| Received::of(*to, frame)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.0 {
            IterRepr::Envelopes(envelopes) => envelopes.len(),
            IterRepr::Frames { idx, .. } => idx.len(),
            IterRepr::AllBut { before, after, .. } => before.len() + after.len(),
        };
        (left, Some(left))
    }
}

impl<P> ExactSizeIterator for InboxIter<'_, P> {}

impl<'a, P> IntoIterator for Inbox<'a, P> {
    type Item = Received<'a, P>;
    type IntoIter = InboxIter<'a, P>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Collects the messages an actor sends during one phase.
///
/// Obtained only from the engine; actors cannot fabricate the `from` field.
#[derive(Debug)]
pub struct Outbox<P> {
    from: ProcessId,
    staged: Staging<P>,
    /// Messages `staged` already held when this outbox took it over.
    base: usize,
    omitted: u64,
}

impl<P: Payload> Outbox<P> {
    /// Creates an outbox sending as `from`.
    ///
    /// The engine creates the real outbox each step; adversary wrappers may
    /// create *scratch* outboxes to intercept an honest actor's sends
    /// before forwarding a filtered subset (only the engine's own outbox
    /// reaches the network, so this cannot spoof identities).
    pub fn new(from: ProcessId) -> Self {
        Outbox::resume(from, Staging::default())
    }

    /// Creates an outbox sending as `from` that appends to `staged`
    /// *without* clearing it. The engine's segment arena stages every
    /// actor in a worker's range into one shared set of buffers, so
    /// steady-state phases allocate nothing.
    pub(crate) fn resume(from: ProcessId, staged: Staging<P>) -> Self {
        Outbox {
            from,
            base: staged.messages(),
            staged,
            omitted: 0,
        }
    }

    /// Hands this outbox to the next actor of a worker's range: it sends
    /// as `from` from here on, appending to what is already staged;
    /// [`omitted_count`](Self::omitted_count) keeps running.
    pub(crate) fn pass_to(&mut self, from: ProcessId) {
        self.from = from;
        self.base = self.staged.messages();
    }

    /// The identity this outbox sends as.
    pub fn sender(&self) -> ProcessId {
        self.from
    }

    /// Queues `payload` for delivery to `to` at the start of the next
    /// phase: a broadcast to one target. Self-sends are ignored (the model
    /// has no self-edges).
    pub fn send(&mut self, to: ProcessId, payload: P) {
        self.broadcast([to], payload);
    }

    /// Queues `payload` for every identity in `targets` except the sender,
    /// delivered in the order listed.
    ///
    /// It counts as one message per target, but it is staged, routed and
    /// dropped as one frame: the payload is moved in and never cloned,
    /// however many recipients read it.
    pub fn broadcast<I>(&mut self, targets: I, payload: P)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        self.staged.push(self.from, targets, payload);
    }

    /// Queues `payload` for every processor of an `n`-processor run but the
    /// sender: by definition `broadcast((0..n).map(ProcessId), payload)`,
    /// and counted, delivered and expanded by
    /// [`into_staged`](Self::into_staged) exactly as that call is.
    ///
    /// It is staged as one frame that names no target, so it costs the same
    /// at any `n`; a lock-step phase in which every frame is a
    /// `broadcast_all` over the run's `n` and no link drop is scheduled is
    /// delivered without writing anything per message (see
    /// [`crate::arena`]). `n` is the caller's to give because a scratch
    /// outbox does not know the run it will be forwarded into.
    pub fn broadcast_all(&mut self, n: usize, payload: P) {
        self.staged.push_all(self.from, n, payload);
    }

    /// Number of messages (targets, not `send`/`broadcast` calls) staged so
    /// far this phase.
    pub fn staged_len(&self) -> usize {
        self.staged.messages() - self.base
    }

    /// Records that `count` messages the wrapped honest actor wanted to
    /// send were suppressed before reaching the network. Adversary
    /// wrappers ([`OmitTo`](crate::adversary::OmitTo), …) call this when
    /// they filter a scratch outbox, so
    /// [`Metrics::omitted_messages`](crate::metrics::Metrics::omitted_messages)
    /// can distinguish a *quiet* run (nothing was ever sent) from a
    /// *censored* one (traffic was produced and then suppressed).
    pub fn note_omitted(&mut self, count: u64) {
        self.omitted += count;
    }

    /// Number of suppressed sends recorded via
    /// [`note_omitted`](Outbox::note_omitted).
    pub fn omitted_count(&self) -> u64 {
        self.omitted
    }

    /// Consumes the outbox, returning what it staged as one owned envelope
    /// per message — a broadcast expands into one per target, so a wrapper
    /// inspecting a scratch outbox filters per link.
    pub fn into_staged(self) -> Vec<Envelope<P>> {
        self.staged.into_envelopes()
    }

    /// Consumes the outbox, handing the engine its buffers back.
    pub(crate) fn into_staging(self) -> Staging<P> {
        self.staged
    }
}

/// A protocol role driven by the synchronous engine.
///
/// The engine calls [`step`](Actor::step) once per phase `k = 1, 2, …` with
/// the messages sent to this actor during phase `k − 1` (empty at phase 1),
/// and [`finalize`](Actor::finalize) once after the last phase with the
/// last phase's messages. [`decision`](Actor::decision) is read after
/// `finalize`.
///
/// Byzantine processors are simply different implementations of this trait
/// (or honest implementations wrapped by the combinators in
/// [`adversary`](crate::adversary)); the engine is oblivious. What a
/// Byzantine actor *cannot* do is forge signatures — it only ever holds its
/// own [`Signer`](ba_crypto::Signer) handle.
///
/// The `Send` supertrait lets the engine move actors to scoped worker
/// threads for intra-phase parallel stepping
/// ([`Simulation::with_threads`](crate::engine::Simulation::with_threads));
/// actor state in this workspace is owned plain data, so the bound is free.
pub trait Actor<P: Payload>: fmt::Debug + Send {
    /// Executes phase `phase` given the previous phase's inbox, staging
    /// sends into `out`.
    fn step(&mut self, phase: usize, inbox: Inbox<'_, P>, out: &mut Outbox<P>);

    /// Consumes the final phase's inbox. Default: re-dispatches to a
    /// phase-numbered [`step`](Actor::step) with a dead outbox is *not*
    /// done automatically — override when the protocol decides on
    /// last-phase messages.
    fn finalize(&mut self, inbox: Inbox<'_, P>) {
        let _ = inbox;
    }

    /// The decision value, once reached. The checker treats `None` from a
    /// correct processor after the final phase as a violation.
    fn decision(&self) -> Option<Value>;

    /// Whether this actor models a correct processor (used by metrics and
    /// the checker). Honest protocol implementations keep the default
    /// `true`; adversarial implementations and wrappers report `false`.
    fn is_correct(&self) -> bool {
        true
    }
}

impl<P: Payload> Actor<P> for Box<dyn Actor<P>> {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        (**self).step(phase, inbox, out)
    }
    fn finalize(&mut self, inbox: Inbox<'_, P>) {
        (**self).finalize(inbox)
    }
    fn decision(&self) -> Option<Value> {
        (**self).decision()
    }
    fn is_correct(&self) -> bool {
        (**self).is_correct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_drops_self_sends() {
        let mut out: Outbox<Value> = Outbox::new(ProcessId(2));
        out.send(ProcessId(2), Value::ONE);
        out.send(ProcessId(3), Value::ONE);
        assert_eq!(out.staged_len(), 1);
        let staged = out.into_staged();
        assert_eq!(staged[0].to, ProcessId(3));
        assert_eq!(staged[0].from, ProcessId(2));
    }

    #[test]
    fn broadcast_skips_sender() {
        let mut out: Outbox<Value> = Outbox::new(ProcessId(0));
        out.broadcast([0, 1, 2, 3].map(ProcessId), Value::ZERO);
        assert_eq!(out.staged_len(), 3);
    }

    #[derive(Debug)]
    struct CountingPayload(std::sync::Arc<std::sync::atomic::AtomicUsize>);
    impl Clone for CountingPayload {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CountingPayload(self.0.clone())
        }
    }
    impl Payload for CountingPayload {}

    #[test]
    fn broadcast_moves_payload_into_final_send() {
        let clones = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut out: Outbox<CountingPayload> = Outbox::new(ProcessId(0));
        out.broadcast([0, 1, 2, 3].map(ProcessId), CountingPayload(clones.clone()));
        // Four targets, one of which is the sender: three messages staged
        // as one frame, the payload moved in — no clone at all.
        assert_eq!(out.staged_len(), 3);
        assert_eq!(clones.load(std::sync::atomic::Ordering::Relaxed), 0);

        // Without the sender among the targets: k targets, still no clone.
        let mut out: Outbox<CountingPayload> = Outbox::new(ProcessId(9));
        out.broadcast([0, 1, 2, 3].map(ProcessId), CountingPayload(clones.clone()));
        assert_eq!(out.staged_len(), 4);
        assert_eq!(clones.load(std::sync::atomic::Ordering::Relaxed), 0);

        // Only an owned per-link view of a scratch outbox clones: k − 1
        // times, the last target taking the payload itself.
        let staged = out.into_staged();
        let targets: Vec<_> = staged.iter().map(|env| env.to).collect();
        assert_eq!(targets, (0..4).map(ProcessId).collect::<Vec<_>>());
        assert_eq!(clones.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn broadcast_all_is_broadcast_of_its_id_list() {
        for m in [0, 1, 5] {
            let ids: Vec<ProcessId> = (0..m as u32).map(ProcessId).collect();
            // Inside `0..m` (when it is not empty), and outside it.
            for from in [0, 3, 7] {
                let staged = |out: Outbox<Value>| (out.staged_len(), out.into_staged());
                let mut all: Outbox<Value> = Outbox::new(ProcessId(from));
                let mut list = Outbox::new(ProcessId(from));
                all.send(ProcessId(1), Value(1));
                list.send(ProcessId(1), Value(1));
                all.broadcast_all(m, Value(2));
                list.broadcast(ids.iter().copied(), Value(2));
                let (len, envelopes) = staged(all);
                assert_eq!((len, envelopes), staged(list), "m={m} from={from}");
                let inside = (from as usize) < m;
                assert_eq!(len, 1 + m - usize::from(inside), "m={m} from={from}");
            }
        }
    }

    #[test]
    fn broadcast_to_empty_target_list_is_a_no_op() {
        let mut out: Outbox<Value> = Outbox::new(ProcessId(0));
        out.broadcast(std::iter::empty(), Value::ONE);
        assert_eq!(out.staged_len(), 0);
    }

    #[test]
    fn resumed_outbox_appends_and_counts_only_its_own_messages() {
        let mut first: Outbox<Value> = Outbox::new(ProcessId(0));
        first.broadcast([0, 1, 2].map(ProcessId), Value::ONE);
        let mut second = Outbox::resume(ProcessId(5), first.into_staging());
        assert_eq!(second.staged_len(), 0);
        assert_eq!(second.sender(), ProcessId(5));
        second.send(ProcessId(1), Value::ZERO);
        assert_eq!(second.staged_len(), 1);
        let links: Vec<_> = second
            .into_staged()
            .iter()
            .map(|env| (env.from.0, env.to.0, env.payload))
            .collect();
        assert_eq!(
            links,
            vec![(0, 1, Value::ONE), (0, 2, Value::ONE), (5, 1, Value::ZERO)]
        );
    }

    #[test]
    fn inbox_views_read_the_same_over_envelopes_and_frames() {
        let envelopes = [
            Envelope {
                from: ProcessId(3),
                to: ProcessId(1),
                payload: Value(7),
            },
            Envelope {
                from: ProcessId(0),
                to: ProcessId(1),
                payload: Value(8),
            },
        ];
        let frames = [
            Frame {
                from: ProcessId(0),
                payload: Value(8),
            },
            Frame {
                from: ProcessId(3),
                payload: Value(7),
            },
        ];
        let owned = Inbox::of(&envelopes);
        let shared = Inbox::over_frames(ProcessId(1), &frames, &[1, 0]);
        assert_eq!(owned.len(), 2);
        assert_eq!(owned.first(), shared.first());
        assert!(owned.iter().eq(shared.iter()));
        assert_eq!(shared.iter().len(), 2);
        let cut = Inbox::all_but(ProcessId(1), &frames[1..], &frames[..1], None);
        assert!(owned.iter().eq(cut.iter()));
        assert_eq!((cut.len(), cut.get(1), cut.get(2)), (2, owned.get(1), None));
        let values = [Value(7), Value(8)];
        let listed = Inbox::all_but(ProcessId(1), &frames[1..], &frames[..1], Some(&values));
        assert!(owned.iter().eq(listed.iter()), "the list changes no read");
        assert_eq!(listed.chain_values(), Some(&values[..]));
        for view in [owned, shared, cut] {
            assert_eq!(view.chain_values(), None);
        }
        let copies: Vec<_> = shared.iter().map(|m| m.to_envelope()).collect();
        assert_eq!(copies, envelopes);
        let empty: Inbox<'_, Value> = Inbox::of(&[]);
        assert!(empty.is_empty() && empty.first().is_none());
    }

    #[test]
    fn default_payload_counts() {
        assert_eq!(Value::ONE.signature_count(), 0);
        assert_eq!(Value::ONE.weight_bytes(), 0);
        assert_eq!(().signature_count(), 0);
    }

    #[test]
    fn envelope_is_plain_data() {
        let env = Envelope {
            from: ProcessId(0),
            to: ProcessId(1),
            payload: Value(4),
        };
        let clone = env.clone();
        assert_eq!(env, clone);
        assert!(format!("{env:?}").contains("payload"));
    }
}
