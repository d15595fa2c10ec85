//! The actor abstraction: protocol roles as state machines stepped once per
//! phase.

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

    /// The signature chain this payload carries, if any — what a phase
    /// driver hands to
    /// [`Chain::verify_at_barrier`](ba_crypto::Chain::verify_at_barrier):
    /// payloads that return `Some` are verified once per unique chain at
    /// the barrier, and each recipient's own `verify` is then a stamp
    /// comparison. Defaults to `None` (recipients verify in full).
    fn batch_chain(&self) -> Option<&ba_crypto::Chain> {
        None
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

/// Collects the messages an actor sends during one phase.
///
/// Obtained only from the engine; actors cannot fabricate the `from` field.
#[derive(Debug)]
pub struct Outbox<P> {
    from: ProcessId,
    staged: Vec<Envelope<P>>,
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
        Outbox {
            from,
            staged: Vec::new(),
            omitted: 0,
        }
    }

    /// Creates an outbox sending as `from`, recycling `buf` as the staging
    /// storage. The buffer is cleared but its capacity is kept — the
    /// engine's mailbox pool uses this so steady-state phases allocate
    /// nothing.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn with_buffer(from: ProcessId, mut buf: Vec<Envelope<P>>) -> Self {
        buf.clear();
        Outbox {
            from,
            staged: buf,
            omitted: 0,
        }
    }

    /// Creates an outbox sending as `from` that appends to `buf` *without*
    /// clearing it. The engine's segment arena stages every actor in a
    /// worker's range into one shared buffer; the caller records the
    /// buffer length before and after each actor's step to recover the
    /// per-actor runs.
    pub(crate) fn resume(from: ProcessId, buf: Vec<Envelope<P>>) -> Self {
        Outbox {
            from,
            staged: buf,
            omitted: 0,
        }
    }

    /// The identity this outbox sends as.
    pub fn sender(&self) -> ProcessId {
        self.from
    }

    /// Queues `payload` for delivery to `to` at the start of the next
    /// phase. Self-sends are ignored (the model has no self-edges).
    pub fn send(&mut self, to: ProcessId, payload: P) {
        if to == self.from {
            return;
        }
        self.staged.push(Envelope {
            from: self.from,
            to,
            payload,
        });
    }

    /// Queues `payload` for every identity in `targets` except the sender.
    ///
    /// The payload is moved into the last send rather than cloned for every
    /// target, so a broadcast to `k` recipients costs `k − 1` clones. With
    /// [`Chain`](ba_crypto::Chain)'s shared signature storage each of those
    /// clones is O(1), making chain fan-out effectively zero-copy.
    pub fn broadcast<I>(&mut self, targets: I, payload: P)
    where
        I: IntoIterator<Item = ProcessId>,
        P: Clone,
    {
        let mut iter = targets.into_iter();
        // Hold one target in `pending` so the final send can consume the
        // payload by value.
        let Some(mut pending) = iter.next() else {
            return;
        };
        for next in iter {
            self.send(pending, payload.clone());
            pending = next;
        }
        self.send(pending, payload);
    }

    /// Number of messages staged so far this phase.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Records that `count` messages the wrapped honest actor wanted to
    /// send were suppressed before reaching the network. Adversary
    /// wrappers ([`OmitTo`](crate::adversary::OmitTo),
    /// [`RandomOmit`](crate::random::RandomOmit), …) call this when they
    /// filter a scratch outbox, so
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

    /// Consumes the outbox, returning the staged envelopes (used by the
    /// engine and by adversary wrappers inspecting a scratch outbox).
    pub fn into_staged(self) -> Vec<Envelope<P>> {
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
    fn step(&mut self, phase: usize, inbox: &[Envelope<P>], out: &mut Outbox<P>);

    /// Consumes the final phase's inbox. Default: re-dispatches to a
    /// phase-numbered [`step`](Actor::step) with a dead outbox is *not*
    /// done automatically — override when the protocol decides on
    /// last-phase messages.
    fn finalize(&mut self, inbox: &[Envelope<P>]) {
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
    fn step(&mut self, phase: usize, inbox: &[Envelope<P>], out: &mut Outbox<P>) {
        (**self).step(phase, inbox, out)
    }
    fn finalize(&mut self, inbox: &[Envelope<P>]) {
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
        out.broadcast((0..4).map(ProcessId), Value::ZERO);
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
        out.broadcast((0..4).map(ProcessId), CountingPayload(clones.clone()));
        // Four targets, one of which is the sender: three envelopes staged,
        // and the payload moved into the last send — so exactly three
        // clones total (the sender's copy is cloned then dropped by the
        // self-send filter, the final target receives the original).
        assert_eq!(out.staged_len(), 3);
        assert_eq!(clones.load(std::sync::atomic::Ordering::Relaxed), 3);

        // Without the sender among the targets: k targets, k − 1 clones.
        clones.store(0, std::sync::atomic::Ordering::Relaxed);
        let mut out: Outbox<CountingPayload> = Outbox::new(ProcessId(9));
        out.broadcast((0..4).map(ProcessId), CountingPayload(clones.clone()));
        assert_eq!(out.staged_len(), 4);
        assert_eq!(clones.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn broadcast_to_empty_target_list_is_a_no_op() {
        let mut out: Outbox<Value> = Outbox::new(ProcessId(0));
        out.broadcast(std::iter::empty(), Value::ONE);
        assert_eq!(out.staged_len(), 0);
    }

    #[test]
    fn with_buffer_recycles_capacity() {
        let mut out: Outbox<Value> = Outbox::new(ProcessId(0));
        out.send(ProcessId(1), Value::ONE);
        out.send(ProcessId(2), Value::ONE);
        let buf = out.into_staged();
        let cap = buf.capacity();
        assert!(cap >= 2);
        let recycled: Outbox<Value> = Outbox::with_buffer(ProcessId(5), buf);
        assert_eq!(recycled.staged_len(), 0);
        assert_eq!(recycled.sender(), ProcessId(5));
        assert_eq!(recycled.staged.capacity(), cap);
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
