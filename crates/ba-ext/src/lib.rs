//! Extension-protocol layer: Byzantine Agreement on arbitrary ℓ-byte
//! payloads.
//!
//! The paper's algorithms (and every other target in this workspace) agree
//! on single values; real traffic agrees on blocks. Following the
//! digest-then-disseminate construction from the extension-protocol
//! literature (Chen, *Fundamental Limits of Byzantine Agreement*), this
//! crate splits the problem:
//!
//! 1. **Digest agreement** — the sender hashes the payload into
//!    [`payload_digest`] (SHA-256 over the digests of its `k` data
//!    slices, 32 bytes) and the digest's four 64-bit words are agreed
//!    through an existing *multi-valued* checkable target
//!    ([`ba_algos::checkable`], Dolev–Strong by default) as pluggable
//!    inner-BA. Everything downstream can now *verify* the payload, so
//!    dissemination needs no further agreement rounds — and a node
//!    checks its reconstruction with the chunk digests the signature
//!    checks already computed. The phase barrier checks each distinct
//!    chunk once per agreement (every recipient's check is a stamp hit),
//!    so each payload byte is hashed once at the barrier, plus the
//!    sender's signing pass.
//! 2. **Coded dissemination** — the payload is erasure-coded
//!    ([`coding::Coder`], systematic RS-lite over GF(256)) into `n`
//!    sender-signed chunks, `k = n − 2t` of which reconstruct. The chunks
//!    flow over Algorithm 4's √n × √n grid ([`GridLayout`], the
//!    workspace's one grid geometry): disperse one chunk per node,
//!    broadcast along rows, bundle rows down columns, then a
//!    demand-driven repair round along rows. Fault-free, the column-bundle
//!    phase dominates at `ℓ·n²/k ≤ 2ℓn` bytes — within a constant factor
//!    of the `ℓn` lower bound — and the repair phases are silent.
//! 3. **Agreement on the outcome itself** — reconstruction alone leaves
//!    `Decide`/`Abort` unagreed: a withholding sender can hand `k` chunks
//!    to some correct nodes and `k − 1` to others. So after the grid
//!    exchange every node casts an *availability vote*: `n` parallel
//!    one-word instances of the inner-BA, instance `v` transmitted by node
//!    `v`, carrying 1 iff `v` provisionally reconstructed a digest-matching
//!    payload. Inner agreement makes every correct node derive the same
//!    availability set; the collective outcome is `Decide` iff at least
//!    `t + 1` nodes voted available (any `t + 1` voters include a correct
//!    one, which really holds the payload). Nodes that lack the payload
//!    then fetch it from voters — first a single deterministically-ranked
//!    voter, escalating to `t + 1` distinct voters, so at least one
//!    responder is a correct holder — and verify it against the agreed
//!    digest. Every correct node therefore lands on the same
//!    [`ExtDecision`]: all `Decide(payload)`, or all `Abort` with the
//!    identical structured [`AbortReason`]. A Byzantine sender can force a
//!    collective abort, never a wrong payload and never a split outcome;
//!    Byzantine relays (up to `t ≤ √n − 1`, withholding or garbling
//!    chunks) can force nothing at all.
//!
//! The fault-schedule surface mirroring `ba-check`'s explorer lives in
//! [`check`]; the stage sequence is written once in the private `pipeline`
//! module and driven either by the lock-step engine ([`run_extension`]) or
//! by the `ba-net` chaos runtime with structured degradation verdicts
//! ([`net`]); wire-volume accounting rides the engine's
//! [`Metrics`] (`bytes_by_correct` / `payload_bytes_by_correct`), so the
//! bits-exchanged figures are schedule-independent and byte-identical at
//! any worker count like every other counter.

// The one `unsafe fn` (the SSSE3 GF(256) kernel in `coding`) must spell
// out each unsafe operation and why it is sound.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod check;
pub mod coding;
pub mod net;
pub(crate) mod pipeline;

use ba_algos::algorithm4::GridLayout;
use ba_algos::checkable::{find_target, CheckConfig, CheckTarget};
use ba_algos::common::Board;
use ba_crypto::sha256::{Sha256, DIGEST_LEN};
use ba_crypto::{
    Barrier, Bytes, KeyRegistry, ProcessId, SchemeKind, Signature, Signer, Value, Verifier,
    WindowStamp,
};
use ba_sim::schedule::{ScheduleError, ScheduleSpec};
use ba_sim::{Actor, Inbox, Metrics, Outbox, Payload};
use coding::Coder;
use std::sync::Arc;

/// Signing domain for extension-layer chunks (disjoint from
/// [`ba_algos::common::domains`]).
const DOMAIN_EXT_CHUNK: u32 = 6;

/// Hashing domain of the agreed payload digest ([`payload_digest`]).
const DOMAIN_EXT_PAYLOAD: u32 = 7;

/// The 32-byte value an agreement on `payload` agrees on, for `k` data
/// chunks: `SHA-256(domain 7 ‖ len ‖ H(c₀) ‖ … ‖ H(c_{k−1}))`, where the
/// `c_i` are the payload's canonical systematic slices
/// ([`coding::data_ranges`]), `len` is a big-endian `u64` and the domain
/// a big-endian `u32`. Two payloads share it only if they are equal
/// (modulo SHA-256 collisions), exactly as with a flat hash — but a node
/// already holding a data chunk's digest from its signature check need
/// not hash those bytes again.
pub fn payload_digest(k: usize, payload: &[u8]) -> [u8; DIGEST_LEN] {
    payload_root(
        payload.len(),
        coding::data_ranges(k, payload.len()).map(|range| Sha256::digest(&payload[range])),
    )
}

/// [`payload_digest`] from the slice digests themselves.
fn payload_root(len: usize, digests: impl Iterator<Item = [u8; DIGEST_LEN]>) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha256::new();
    hasher.update(&DOMAIN_EXT_PAYLOAD.to_be_bytes());
    hasher.update(&(len as u64).to_be_bytes());
    for digest in digests {
        hasher.update(&digest);
    }
    hasher.finalize()
}

/// Dissemination phases: disperse, row broadcast, column bundles, repair
/// requests, designated repair responses, escalation re-requests, full-row
/// escalation responses (finalize consumes the last responses). Fault-free
/// the four repair phases are silent.
pub const DISSEMINATION_PHASES: usize = 7;

/// Payload-fetch phases after the availability vote: request to the
/// designated available voter, full-payload response, escalation request
/// to the next `t` voters, escalation responses. Silent whenever every
/// correct node already reconstructed (in particular fault-free).
pub const FETCH_PHASES: usize = 4;

/// One erasure-coded chunk, signed by the sender.
///
/// The signature binds the chunk index, the payload length and the chunk
/// bytes (through their digest), so relays can authenticate chunks without
/// any further agreement: a garbled or re-indexed chunk fails verification
/// and is dropped at the first correct hop.
///
/// A chunk is a signed window ([`WindowStamp`]): its clones share one
/// barrier-verification stamp, so a phase barrier that checked the chunk
/// once answers every recipient's [`verify`](Self::verify) with the digest
/// it computed. Equality and `Debug` ignore the stamp — it is verification
/// state, not content.
#[derive(Clone)]
pub struct SignedChunk {
    /// Position in the coded-chunk vector (also the id of the node the
    /// chunk was dispersed to).
    pub index: u16,
    /// Total payload length in bytes, as claimed by the sender.
    pub payload_len: u64,
    /// The chunk bytes — a zero-copy slice of the sender's payload
    /// allocation for systematic chunks.
    pub data: Bytes,
    /// The sender's signature over `(index, payload_len, H(data))`.
    pub sig: Signature,
    /// Shared by every clone; written by the phase barrier alone.
    stamp: WindowStamp,
}

impl PartialEq for SignedChunk {
    fn eq(&self, other: &Self) -> bool {
        (self.index, self.payload_len, &self.data, &self.sig)
            == (other.index, other.payload_len, &other.data, &other.sig)
    }
}

impl Eq for SignedChunk {}

impl std::fmt::Debug for SignedChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignedChunk")
            .field("index", &self.index)
            .field("payload_len", &self.payload_len)
            .field("data", &self.data)
            .field("sig", &self.sig)
            .finish()
    }
}

impl SignedChunk {
    /// The signed header: domain, index and payload length as big-endian
    /// `u32`/`u32`/`u64`. The signature covers it followed by `H(data)`.
    fn header(index: u16, payload_len: u64) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..4].copy_from_slice(&DOMAIN_EXT_CHUNK.to_be_bytes());
        out[4..8].copy_from_slice(&u32::from(index).to_be_bytes());
        out[8..].copy_from_slice(&payload_len.to_be_bytes());
        out
    }

    /// Signs `data` as chunk `index` of a `payload_len`-byte payload.
    pub fn sign(signer: &Signer, index: u16, payload_len: u64, data: Bytes) -> SignedChunk {
        let digest = Sha256::digest(&data);
        Self::sign_digested(signer, index, payload_len, data, &digest)
    }

    /// [`sign`](Self::sign) with `H(data)` already in hand.
    fn sign_digested(
        signer: &Signer,
        index: u16,
        payload_len: u64,
        data: Bytes,
        data_digest: &[u8; DIGEST_LEN],
    ) -> SignedChunk {
        let sig = WindowStamp::sign(signer, &Self::header(index, payload_len), data_digest);
        SignedChunk {
            index,
            payload_len,
            data,
            sig,
            stamp: WindowStamp::default(),
        }
    }

    /// `H(data)` when this chunk carries a valid signature by `sender`,
    /// `None` otherwise — and a holder reuses the digest for the payload
    /// root ([`payload_digest`]). A stamp hit when the phase barrier
    /// checked this exact chunk under `verifier`'s registry (no hashing),
    /// a full check otherwise.
    pub fn verify(&self, verifier: &Verifier, sender: ProcessId) -> Option<[u8; DIGEST_LEN]> {
        if self.sig.signer() != sender {
            return None;
        }
        self.stamp.verify(
            verifier,
            &Self::header(self.index, self.payload_len),
            &self.data,
            &self.sig,
        )
    }

    /// Hands this chunk to the phase barrier's verification pass.
    fn verify_at_barrier(&self, barrier: &mut Barrier<'_>) {
        barrier.window(
            &self.stamp,
            &Self::header(self.index, self.payload_len),
            &self.data,
            &self.sig,
        );
    }

    /// Encoded wire size: index + payload length + data length prefix +
    /// data + signature.
    pub fn encoded_len(&self) -> usize {
        4 + 8 + 4 + self.data.len() + self.sig.encoded_len()
    }
}

/// A dissemination or payload-fetch message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExtMsg {
    /// A single chunk (disperse and row-broadcast phases).
    Chunk(SignedChunk),
    /// Several chunks at once (column bundles and repair responses).
    Bundle(Vec<SignedChunk>),
    /// Chunk indices the requester is missing (repair round).
    Repair(Vec<u16>),
    /// Full-payload request to an available voter (fetch round).
    Fetch,
    /// Full-payload response. Unsigned: the requester verifies the bytes
    /// against the agreed digest, which no signature could strengthen.
    Full(Bytes),
}

impl Payload for ExtMsg {
    fn signature_count(&self) -> usize {
        match self {
            ExtMsg::Chunk(_) => 1,
            ExtMsg::Bundle(chunks) => chunks.len(),
            ExtMsg::Repair(_) | ExtMsg::Fetch | ExtMsg::Full(_) => 0,
        }
    }

    fn weight_bytes(&self) -> usize {
        // One discriminant byte, then the body.
        1 + match self {
            ExtMsg::Chunk(c) => c.encoded_len(),
            ExtMsg::Bundle(chunks) => {
                4 + chunks.iter().map(SignedChunk::encoded_len).sum::<usize>()
            }
            ExtMsg::Repair(missing) => 4 + 2 * missing.len(),
            ExtMsg::Fetch => 0,
            ExtMsg::Full(payload) => 4 + payload.len(),
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            ExtMsg::Chunk(c) => c.data.len(),
            ExtMsg::Bundle(chunks) => chunks.iter().map(|c| c.data.len()).sum(),
            ExtMsg::Repair(_) | ExtMsg::Fetch => 0,
            ExtMsg::Full(payload) => payload.len(),
        }
    }

    fn verify_at_barrier(&self, barrier: &mut Barrier<'_>) {
        match self {
            ExtMsg::Chunk(chunk) => chunk.verify_at_barrier(barrier),
            ExtMsg::Bundle(chunks) => {
                for chunk in chunks {
                    chunk.verify_at_barrier(barrier);
                }
            }
            ExtMsg::Repair(_) | ExtMsg::Fetch | ExtMsg::Full(_) => {}
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            ExtMsg::Chunk(_) => "ext-chunk",
            ExtMsg::Bundle(_) => "ext-bundle",
            ExtMsg::Repair(_) => "ext-repair",
            ExtMsg::Fetch => "ext-fetch",
            ExtMsg::Full(_) => "ext-full",
        }
    }
}

/// Why a node could not decide a payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// The node's inner-BA runs did not yield a digest.
    MissingDigest,
    /// Fewer than `needed` authenticated chunks arrived.
    InsufficientChunks {
        /// Verified chunks held at finalize.
        held: usize,
        /// Chunks required to reconstruct (`k`).
        needed: usize,
    },
    /// Reconstruction succeeded but hashed to something other than the
    /// agreed digest (a Byzantine sender signed inconsistent chunks).
    DigestMismatch,
    /// The availability vote fell short: fewer than `needed` nodes voted
    /// that they hold the digest-matching payload. This is the *agreed*
    /// abort — every correct node derives the same vote tally, so every
    /// correct node carries this identical reason. Attributed to the
    /// sender: only a faulty sender (or an over-budget schedule) can keep
    /// availability below `t + 1`.
    InsufficientAvailability {
        /// Nodes whose availability-vote instance decided 1.
        available: usize,
        /// Votes required for a collective decide (`t + 1`).
        needed: usize,
    },
    /// The vote decided but this node's payload fetch from `asked`
    /// available voters produced no digest-matching payload. Unreachable
    /// within budget on a reliable wire (any `t + 1` voters include a
    /// correct holder); kept structured for defense in depth.
    FetchFailed {
        /// Distinct available voters this node asked.
        asked: usize,
    },
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::MissingDigest => write!(f, "no agreed digest"),
            AbortReason::InsufficientChunks { held, needed } => {
                write!(f, "only {held} of {needed} required chunks")
            }
            AbortReason::DigestMismatch => write!(f, "reconstruction contradicts agreed digest"),
            AbortReason::InsufficientAvailability { available, needed } => write!(
                f,
                "sender failed to make the payload available: {available} of {needed} required votes"
            ),
            AbortReason::FetchFailed { asked } => {
                write!(f, "no digest-matching payload from {asked} available voters")
            }
        }
    }
}

/// A node's extension-protocol outcome: the payload, or a structured
/// abort. Never a payload whose digest differs from the agreed one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExtDecision {
    /// Decided this exact payload (digest-verified).
    Decide(Bytes),
    /// Gave up, with the reason.
    Abort(AbortReason),
}

impl ExtDecision {
    /// The decided payload, when there is one.
    pub fn payload(&self) -> Option<&Bytes> {
        match self {
            ExtDecision::Decide(p) => Some(p),
            ExtDecision::Abort(_) => None,
        }
    }
}

/// One dissemination participant.
///
/// Node 0 is the sender: it encodes, signs and disperses the chunks.
/// Every node (sender included) then runs the same grid exchange:
/// row-broadcast its own chunk, bundle its row's chunks down its column,
/// request repairs from row mates, answer repair requests. Repair replies
/// are load-balanced: for each `(requester, chunk)` a single row mate is
/// designated by deterministic rank rotation, and only if its reply never
/// lands does the requester escalate to the full row. `finalize`
/// reconstructs and checks the reconstruction against the agreed
/// [`payload_digest`] into a *provisional* decision — the availability
/// vote and fetch round turn it into the agreed one.
#[derive(Debug)]
pub struct ExtActor {
    id: ProcessId,
    grid: GridLayout,
    coder: Coder,
    digest: Option<[u8; DIGEST_LEN]>,
    payload_len: Option<u64>,
    verifier: Verifier,
    chunks: Vec<Option<SignedChunk>>,
    /// `H(data)` of each held chunk, from its signature check (or, at the
    /// sender, from signing).
    chunk_digests: Vec<Option<[u8; DIGEST_LEN]>>,
    /// Sender only: chunks staged for the disperse phase, with their data
    /// digests.
    outgoing: Option<Outgoing>,
    repair_requests: Vec<(ProcessId, Vec<u16>)>,
    decision: Option<ExtDecision>,
    board: Arc<Board<ExtDecision>>,
}

impl ExtActor {
    const SENDER: ProcessId = ProcessId(0);

    fn try_store(&mut self, chunk: SignedChunk) {
        let idx = chunk.index as usize;
        if idx >= self.chunks.len() || self.chunks[idx].is_some() {
            return;
        }
        let Some(digest) = chunk.verify(&self.verifier, Self::SENDER) else {
            return;
        };
        if self.payload_len.is_none() {
            self.payload_len = Some(chunk.payload_len);
        }
        self.chunks[idx] = Some(chunk);
        self.chunk_digests[idx] = Some(digest);
    }

    fn absorb(&mut self, inbox: Inbox<'_, ExtMsg>) {
        for env in inbox {
            match &env.payload {
                ExtMsg::Chunk(chunk) => self.try_store(chunk.clone()),
                ExtMsg::Bundle(chunks) => {
                    for chunk in chunks {
                        self.try_store(chunk.clone());
                    }
                }
                ExtMsg::Repair(missing) => {
                    self.repair_requests.push((env.from, missing.clone()));
                }
                // Fetch traffic belongs to the post-vote round; a chunk
                // actor receiving it (only possible from a faulty peer)
                // ignores it.
                ExtMsg::Fetch | ExtMsg::Full(_) => {}
            }
        }
    }

    fn held(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    fn missing(&self) -> Vec<u16> {
        (0..self.chunks.len())
            .filter(|&i| self.chunks[i].is_none())
            .map(|i| i as u16)
            .collect()
    }

    /// The row mate designated to answer `requester`'s repair request for
    /// `chunk`: rank `(requester + chunk) mod (m − 1)` among its row mates
    /// in id order, so repair load spreads across the row instead of every
    /// mate answering every request (up to m× duplicate traffic).
    fn designated_responder(grid: GridLayout, requester: ProcessId, chunk: usize) -> ProcessId {
        let rank = (requester.index() + chunk) % (grid.m() - 1);
        let mut mates = grid.row_mates(requester);
        mates.nth(rank).expect("a row of m ≥ 2 has m − 1 mates")
    }

    /// Answers the buffered repair requests. In the designated round each
    /// `(requester, chunk)` pair is served by exactly one row mate; in the
    /// escalation round every holder answers.
    fn answer_repairs(&mut self, designated_only: bool, out: &mut Outbox<ExtMsg>) {
        let requests = std::mem::take(&mut self.repair_requests);
        for (requester, wanted) in requests {
            let available: Vec<SignedChunk> = wanted
                .iter()
                .filter(|&&i| {
                    !designated_only
                        || Self::designated_responder(self.grid, requester, i as usize) == self.id
                })
                .filter_map(|&i| self.chunks.get(i as usize).cloned().flatten())
                .collect();
            if !available.is_empty() {
                out.send(requester, ExtMsg::Bundle(available));
            }
        }
    }

    fn decide(&mut self) {
        let decision = self.compute_decision();
        self.board.post(self.id, decision.clone());
        self.decision = Some(decision);
    }

    fn compute_decision(&self) -> ExtDecision {
        let Some(digest) = self.digest else {
            return ExtDecision::Abort(AbortReason::MissingDigest);
        };
        let held = self.held();
        if held < self.coder.k() {
            return ExtDecision::Abort(AbortReason::InsufficientChunks {
                held,
                needed: self.coder.k(),
            });
        }
        let Some(len) = self.payload_len else {
            return ExtDecision::Abort(AbortReason::InsufficientChunks {
                held: 0,
                needed: self.coder.k(),
            });
        };
        let data: Vec<Option<Bytes>> = self
            .chunks
            .iter()
            .map(|c| c.as_ref().map(|chunk| chunk.data.clone()))
            .collect();
        match self.coder.reconstruct(&data, len as usize) {
            Some(payload) if self.reconstruction_root(&payload) == digest => {
                ExtDecision::Decide(payload)
            }
            Some(_) => ExtDecision::Abort(AbortReason::DigestMismatch),
            None => ExtDecision::Abort(AbortReason::InsufficientChunks {
                held,
                needed: self.coder.k(),
            }),
        }
    }

    /// [`payload_digest`] of `payload`, this node's reconstruction. A held
    /// data chunk of exactly its slice's length *is* that slice, so its
    /// digest from the signature check stands in for hashing the slice
    /// again; every other slice (a missing data chunk, or one the sender
    /// signed too short or too long, which reconstruction padded or cut)
    /// is hashed from the reconstruction.
    fn reconstruction_root(&self, payload: &[u8]) -> [u8; DIGEST_LEN] {
        let slices = coding::data_ranges(self.coder.k(), payload.len());
        payload_root(
            payload.len(),
            slices.enumerate().map(
                |(i, range)| match (&self.chunks[i], self.chunk_digests[i]) {
                    (Some(chunk), Some(digest)) if chunk.data.len() == range.len() => digest,
                    _ => Sha256::digest(&payload[range]),
                },
            ),
        )
    }
}

impl Actor<ExtMsg> for ExtActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, ExtMsg>, out: &mut Outbox<ExtMsg>) {
        self.absorb(inbox);
        let id = self.id.index();
        match phase {
            // Disperse: the sender hands chunk i to node i.
            1 => {
                if let Some(outgoing) = self.outgoing.take() {
                    for (chunk, digest) in outgoing.chunks.into_iter().zip(outgoing.digests) {
                        let owner = ProcessId(u32::from(chunk.index));
                        if owner != self.id {
                            out.send(owner, ExtMsg::Chunk(chunk.clone()));
                        }
                        // The sender keeps every chunk (it can answer any
                        // repair). It signed them itself, so they skip the
                        // verification every received chunk goes through,
                        // and their digests come from signing.
                        self.chunks[owner.index()] = Some(chunk);
                        self.chunk_digests[owner.index()] = Some(digest);
                    }
                }
            }
            // Row broadcast: own chunk to row mates.
            2 => {
                if let Some(own) = self.chunks[id].clone() {
                    out.broadcast(self.grid.row_mates(self.id), ExtMsg::Chunk(own));
                }
            }
            // Column bundles: my row's chunks to my column mates. After
            // this phase a fault-free node holds every chunk: column mate
            // r delivered row r's chunks.
            3 => {
                let bundle: Vec<SignedChunk> = self
                    .grid
                    .row(id / self.grid.m())
                    .filter_map(|owner| self.chunks[owner.index()].clone())
                    .collect();
                if !bundle.is_empty() {
                    out.broadcast(self.grid.col_mates(self.id), ExtMsg::Bundle(bundle));
                }
            }
            // Repair requests: ask row mates for whatever is missing
            // (fault-free: nothing, and the round is free).
            4 => {
                let missing = self.missing();
                if !missing.is_empty() {
                    out.broadcast(self.grid.row_mates(self.id), ExtMsg::Repair(missing));
                }
            }
            // Designated repair responses: one responder per (requester,
            // chunk), so a repairable fault costs one reply, not m.
            5 => self.answer_repairs(true, out),
            // Escalation re-requests, only for chunks whose designated
            // reply never landed (its responder was faulty or withheld).
            6 => {
                let missing = self.missing();
                if !missing.is_empty() {
                    out.broadcast(self.grid.row_mates(self.id), ExtMsg::Repair(missing));
                }
            }
            // Full-row escalation responses: every holder answers.
            7 => self.answer_repairs(false, out),
            _ => {}
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, ExtMsg>) {
        self.absorb(inbox);
        self.decide();
    }

    fn decision(&self) -> Option<Value> {
        // The engine's decision channel is a single `Value`; the payload
        // itself is read from the board. Deciding nodes report the first
        // agreed-digest word, aborting nodes report nothing.
        match &self.decision {
            Some(ExtDecision::Decide(_)) => {
                let digest = self.digest.expect("decided without digest");
                Some(Value(u64::from_be_bytes(
                    digest[..8].try_into().expect("digest has 8-byte prefix"),
                )))
            }
            _ => None,
        }
    }
}

/// One payload-fetch participant (the round after the availability vote).
///
/// Built from a node's post-vote state: its provisional reconstruction,
/// its (agreed) availability set and the collective outcome. When the
/// vote decided and this node lacks the payload, it asks one
/// deterministically-ranked available voter, then escalates to the next
/// `t` — `t + 1` distinct voters include a correct holder, so within
/// budget the fetch always lands. Responses are verified against the
/// agreed [`payload_digest`] before acceptance. When the vote aborted,
/// every node finalizes the identical
/// [`AbortReason::InsufficientAvailability`].
#[derive(Debug)]
pub struct FetchActor {
    id: ProcessId,
    digest: Option<[u8; DIGEST_LEN]>,
    /// Data chunks the agreed digest is taken over.
    k: usize,
    /// The provisionally reconstructed payload, if any; fetched bytes
    /// land here after digest verification.
    payload: Option<Bytes>,
    /// The agreed availability set, as this node derived it from the vote
    /// instances (identical at every correct node).
    available: Vec<ProcessId>,
    /// Whether the collective vote decided (`|available| ≥ t + 1`).
    outcome_decide: bool,
    t: usize,
    fetch_requests: Vec<ProcessId>,
    asked: usize,
    decision: Option<ExtDecision>,
    board: Arc<Board<ExtDecision>>,
}

impl FetchActor {
    /// Voters this node would ask, in order: the availability set rotated
    /// by the node's own id (spreading fetch load across voters), self
    /// excluded.
    fn fetch_order(&self) -> Vec<ProcessId> {
        let len = self.available.len();
        if len == 0 {
            return Vec::new();
        }
        let start = self.id.index() % len;
        (0..len)
            .map(|j| self.available[(start + j) % len])
            .filter(|&p| p != self.id)
            .collect()
    }

    fn needs_payload(&self) -> bool {
        self.outcome_decide && self.payload.is_none()
    }

    fn absorb(&mut self, inbox: Inbox<'_, ExtMsg>) {
        for env in inbox {
            match &env.payload {
                ExtMsg::Fetch => self.fetch_requests.push(env.from),
                ExtMsg::Full(bytes) => {
                    if self.payload.is_none()
                        && self
                            .digest
                            .is_some_and(|d| payload_digest(self.k, bytes) == d)
                    {
                        self.payload = Some(bytes.clone());
                    }
                }
                // Chunk traffic belongs to the dissemination round.
                ExtMsg::Chunk(_) | ExtMsg::Bundle(_) | ExtMsg::Repair(_) => {}
            }
        }
    }

    fn respond(&mut self, out: &mut Outbox<ExtMsg>) {
        let requests = std::mem::take(&mut self.fetch_requests);
        if let Some(payload) = &self.payload {
            for requester in requests {
                out.send(requester, ExtMsg::Full(payload.clone()));
            }
        }
    }
}

impl Actor<ExtMsg> for FetchActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, ExtMsg>, out: &mut Outbox<ExtMsg>) {
        self.absorb(inbox);
        match phase {
            // Ask the designated voter.
            1 if self.needs_payload() => {
                if let Some(&designated) = self.fetch_order().first() {
                    self.asked = 1;
                    out.send(designated, ExtMsg::Fetch);
                }
            }
            // Holders answer.
            2 => self.respond(out),
            // Escalate to the next t voters if the designated reply never
            // landed (its voter was faulty or withheld).
            3 if self.needs_payload() => {
                let order = self.fetch_order();
                let escalation = &order[1.min(order.len())..(1 + self.t).min(order.len())];
                self.asked += escalation.len();
                for &voter in escalation {
                    out.send(voter, ExtMsg::Fetch);
                }
            }
            // Escalation responses.
            4 => self.respond(out),
            _ => {}
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, ExtMsg>) {
        self.absorb(inbox);
        let decision = if !self.outcome_decide {
            ExtDecision::Abort(AbortReason::InsufficientAvailability {
                available: self.available.len(),
                needed: self.t + 1,
            })
        } else {
            match &self.payload {
                Some(payload) => ExtDecision::Decide(payload.clone()),
                None => ExtDecision::Abort(AbortReason::FetchFailed { asked: self.asked }),
            }
        };
        self.board.post(self.id, decision.clone());
        self.decision = Some(decision);
    }

    fn decision(&self) -> Option<Value> {
        match (&self.decision, self.digest) {
            (Some(ExtDecision::Decide(_)), Some(digest)) => Some(Value(u64::from_be_bytes(
                digest[..8].try_into().expect("digest has 8-byte prefix"),
            ))),
            _ => None,
        }
    }
}

/// Options for [`agree_on_payload`]. Construct with
/// [`ExtOptions::new`]/[`default`](ExtOptions::default) and the `with_*`
/// builders (the same convention as `SvcConfig`, `NetConfig` and
/// `RunOptions`).
///
/// Defaults: `n = 16`, `t = 2`, seed 0, sequential stepping,
/// `ds-broadcast` inner target, `ds-relay` vote target. Chunks are signed
/// under [`SchemeKind::Fast`].
#[derive(Clone, Debug)]
pub struct ExtOptions {
    /// Number of processors; must be a perfect square `m² ≥ 4` (the grid).
    pub n: usize,
    /// Fault budget. Dissemination tolerates `t ≤ m − 1` (each missing
    /// chunk must be repairable through some fully-honest column pair)
    /// and coding requires `k = n − 2t ≥ 1`.
    pub t: usize,
    /// Run seed (keys, inner-BA seeds).
    pub seed: u64,
    /// Worker threads for intra-phase stepping on the process-wide worker
    /// pool (results byte-identical at any count).
    pub threads: usize,
    /// Name of the inner-BA target for digest agreement (must be
    /// multi-valued; see [`ba_algos::checkable::targets`]).
    pub inner: &'static str,
    /// Name of the inner-BA target for the `n` availability-vote
    /// instances (must be multi-valued — each instance transmits from a
    /// different node). Defaults to the committee-relay variant: the vote
    /// runs `n` parallel one-word instances, so its O(nt)-message shape
    /// keeps total vote traffic at O(n²t) instead of O(n³).
    pub vote_inner: &'static str,
}

impl Default for ExtOptions {
    fn default() -> Self {
        ExtOptions {
            n: 16,
            t: 2,
            seed: 0,
            threads: 1,
            inner: "ds-broadcast",
            vote_inner: "ds-relay",
        }
    }
}

impl ExtOptions {
    /// The default options; chain `with_*` builders to customize.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the processor count (must be a perfect square `m² ≥ 4`).
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the fault budget.
    pub fn with_t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Sets the run seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count for intra-phase stepping.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the inner-BA target for digest agreement.
    pub fn with_inner(mut self, inner: &'static str) -> Self {
        self.inner = inner;
        self
    }

    /// Sets the inner-BA target for the availability vote.
    pub fn with_vote_inner(mut self, vote_inner: &'static str) -> Self {
        self.vote_inner = vote_inner;
        self
    }

    /// Chunks required to reconstruct: `k = n − 2t`.
    pub fn data_chunks(&self) -> usize {
        self.n - 2 * self.t
    }

    /// Availability votes required for a collective decide: `t + 1`, so
    /// any quorum contains at least one correct holder.
    pub fn vote_needed(&self) -> usize {
        self.t + 1
    }

    /// Validates the geometry and inner-target choice.
    ///
    /// # Errors
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let Some(grid) = GridLayout::new(self.n).filter(|grid| grid.m() >= 2) else {
            return Err(format!("n = {} is not a perfect square ≥ 4", self.n));
        };
        if self.t >= grid.m() {
            return Err(format!(
                "t = {} exceeds the grid bound √n − 1 = {}",
                self.t,
                grid.m() - 1
            ));
        }
        if 2 * self.t >= self.n {
            return Err(format!(
                "k = n − 2t would be ≤ 0 (n = {}, t = {})",
                self.n, self.t
            ));
        }
        for (role, name) in [("inner", self.inner), ("vote inner", self.vote_inner)] {
            let Some(target) = find_target(name) else {
                return Err(format!("unknown {role} target {name:?}"));
            };
            if !target.multi_valued {
                return Err(format!(
                    "{role} target {name:?} is binary-only; the extension layer needs a \
                     multi-valued target (digest words / per-node vote transmitters)",
                ));
            }
            if self.t >= 1 && !target.supports(self.n, self.t) {
                return Err(format!(
                    "{role} target {name:?} rejects n = {}, t = {}",
                    self.n, self.t
                ));
            }
        }
        Ok(())
    }

    fn inner_target(&self) -> &'static CheckTarget {
        find_target(self.inner).expect("validated inner target")
    }

    fn vote_target(&self) -> &'static CheckTarget {
        find_target(self.vote_inner).expect("validated vote target")
    }
}

/// What one extension-protocol run produced.
#[derive(Debug, PartialEq)]
pub struct ExtReport {
    /// Payload length ℓ in bytes.
    pub payload_len: usize,
    /// Data chunks `k = n − 2t`: how many slices `digest` is taken over.
    pub data_chunks: usize,
    /// What honest runs agree on: the sender's
    /// [`payload_digest`]`(data_chunks, payload)`, a hash over the
    /// digests of the payload's `k` data slices.
    pub digest: [u8; DIGEST_LEN],
    /// Per-node *agreed* outcomes (index = processor id; `None` only if a
    /// faulty actor never posted). Every correct node's entry carries the
    /// same variant — all `Decide(payload)` or all `Abort` with the
    /// identical reason.
    pub decisions: Vec<Option<ExtDecision>>,
    /// Which processors were modeled correct.
    pub correct: Vec<bool>,
    /// The agreed availability set (nodes whose vote instance decided 1),
    /// as derived by the lowest-id correct node; empty when no node is
    /// correct.
    pub availability: Vec<ProcessId>,
    /// Merged metrics of the four digest-word inner-BA runs.
    pub inner_metrics: Metrics,
    /// Dissemination-phase metrics (chunk traffic).
    pub dissemination: Metrics,
    /// Merged metrics of the `n` availability-vote inner-BA runs.
    pub vote: Metrics,
    /// Payload-fetch round metrics.
    pub fetch: Metrics,
    /// Repair/fetch requests sent by correct nodes (dissemination repair
    /// phases 4 and 6, fetch phases 1 and 3). Fault-free: zero.
    pub repair_requests: u64,
    /// Bytes of repair/fetch responses sent by correct nodes
    /// (dissemination phases 5 and 7, fetch phases 2 and 4).
    pub repair_response_bytes: u64,
}

impl ExtReport {
    /// Total wire bytes sent by correct processors, across digest
    /// agreement, dissemination, the availability vote and the fetch
    /// round.
    pub fn total_wire_bytes(&self) -> u64 {
        self.inner_metrics.wire_bytes()
            + self.dissemination.wire_bytes()
            + self.vote.wire_bytes()
            + self.fetch.wire_bytes()
    }

    /// The payload portion of [`total_wire_bytes`](Self::total_wire_bytes).
    pub fn payload_wire_bytes(&self) -> u64 {
        self.inner_metrics.payload_bytes_by_correct
            + self.dissemination.payload_bytes_by_correct
            + self.vote.payload_bytes_by_correct
            + self.fetch.payload_bytes_by_correct
    }

    /// Correct-sender wire volume relative to the `ℓ·n` lower-bound
    /// regime (the figure the overhead gate bounds).
    pub fn overhead_ratio(&self) -> f64 {
        let floor = (self.payload_len as u64).max(1) * self.correct.len() as u64;
        self.total_wire_bytes() as f64 / floor as f64
    }

    /// Outcomes of correct processors only, with their ids.
    pub fn correct_decisions(
        &self,
    ) -> impl Iterator<Item = (ProcessId, Option<&ExtDecision>)> + '_ {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(i, _)| self.correct[*i])
            .map(|(i, d)| (ProcessId(i as u32), d.as_ref()))
    }
}

/// Errors from [`agree_on_payload`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExtError {
    /// The options failed [`ExtOptions::validate`].
    BadOptions(String),
    /// The fault schedule could not be compiled onto the actors.
    Schedule(ScheduleError),
}

impl std::fmt::Display for ExtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtError::BadOptions(msg) => write!(f, "bad options: {msg}"),
            ExtError::Schedule(err) => write!(f, "schedule error: {err}"),
        }
    }
}

impl std::error::Error for ExtError {}

/// Agrees on `payload` across `opts.n` processors with node 0 as sender,
/// fault-free. See [`run_extension`] for the schedule-driven variant the
/// checker explores.
///
/// # Errors
/// [`ExtError::BadOptions`] when the geometry or inner target is invalid.
pub fn agree_on_payload(payload: &Bytes, opts: &ExtOptions) -> Result<ExtReport, ExtError> {
    run_extension(payload, opts, &ScheduleSpec::default(), |actors| actors)
}

/// Seed for the `w`-th digest-word inner-BA run.
pub(crate) fn word_seed(seed: u64, w: usize) -> u64 {
    seed ^ (0xE87_0000 + w as u64)
}

/// Seed shared by the `n` availability-vote inner-BA runs (one cluster
/// identity — the instances differ only by transmitter and vote value).
pub(crate) fn vote_seed(seed: u64) -> u64 {
    seed ^ 0xA0BA_0001
}

/// Seed for the dissemination/fetch chunk-signature registry.
pub(crate) fn chunk_seed(seed: u64) -> u64 {
    seed ^ 0xD15E_0001
}

/// Compiles a schedule onto the extension's honest actors. The hook maps
/// nothing: the sender's "equivocation" is signing inconsistent chunks,
/// which the check layer injects through the rewrite hook.
pub(crate) fn apply_spec_faults(
    actors: Vec<Box<dyn Actor<ExtMsg>>>,
    spec: &ScheduleSpec,
) -> Result<Vec<Box<dyn Actor<ExtMsg>>>, ScheduleError> {
    let mut honest: Vec<_> = actors.into_iter().map(Some).collect();
    let n = honest.len();
    spec.compile(
        n,
        |p| honest[p.index()].take().expect("one actor per processor"),
        |_, _| None,
    )
}

/// Per-node digest views assembled from each node's OWN word decisions —
/// agreement on the full digest follows from agreement on every word.
pub(crate) fn assemble_digest_views(
    word_views: &[Vec<Option<Value>>],
    n: usize,
) -> Vec<Option<[u8; DIGEST_LEN]>> {
    (0..n)
        .map(|i| {
            let mut out = [0u8; DIGEST_LEN];
            let mut complete = true;
            for (w, view) in word_views.iter().enumerate() {
                match view[i] {
                    Some(word) => out[w * 8..(w + 1) * 8].copy_from_slice(&word.0.to_be_bytes()),
                    None => complete = false,
                }
            }
            complete.then_some(out)
        })
        .collect()
}

/// The sender's signed chunks, each chunk's data digest, and the payload
/// digest taken over the first `k` of them.
#[derive(Clone, Debug)]
pub(crate) struct Outgoing {
    chunks: Vec<SignedChunk>,
    digests: Vec<[u8; DIGEST_LEN]>,
    pub(crate) payload_digest: [u8; DIGEST_LEN],
}

/// The state the two grid stages share: chunk-signing registry, signed
/// outgoing chunks, and the dissemination / fetch actor builders.
pub(crate) struct ExtSetup {
    pub(crate) grid: GridLayout,
    pub(crate) coder: Coder,
    pub(crate) registry: KeyRegistry,
}

impl ExtSetup {
    pub(crate) fn new(opts: &ExtOptions) -> ExtSetup {
        ExtSetup {
            grid: GridLayout::new(opts.n).expect("validated geometry"),
            coder: Coder::new(opts.data_chunks(), opts.n),
            registry: KeyRegistry::new(opts.n, chunk_seed(opts.seed), SchemeKind::Fast),
        }
    }

    /// Encodes and signs `payload`, hashing each chunk once: the `k` data
    /// digests give the payload digest and sign the data chunks, so only
    /// the parity chunks are hashed for signing alone.
    pub(crate) fn sign_chunks(&self, payload: &Bytes) -> Outgoing {
        let sender_signer = self.registry.signer(ExtActor::SENDER);
        let data = self.coder.encode(payload);
        let digests: Vec<[u8; DIGEST_LEN]> =
            data.iter().map(|chunk| Sha256::digest(chunk)).collect();
        let chunks = data
            .into_iter()
            .zip(&digests)
            .enumerate()
            .map(|(i, (data, digest))| {
                SignedChunk::sign_digested(
                    &sender_signer,
                    i as u16,
                    payload.len() as u64,
                    data,
                    digest,
                )
            })
            .collect();
        Outgoing {
            chunks,
            payload_digest: payload_root(payload.len(), digests[..self.coder.k()].iter().copied()),
            digests,
        }
    }

    /// The dissemination (run A) actors, posting provisional decisions to
    /// `board`.
    pub(crate) fn dissemination_actors(
        &self,
        opts: &ExtOptions,
        payload: &Bytes,
        digest_views: &[Option<[u8; DIGEST_LEN]>],
        outgoing: &Outgoing,
        board: &Arc<Board<ExtDecision>>,
    ) -> Vec<Box<dyn Actor<ExtMsg>>> {
        (0..opts.n)
            .map(|i| {
                Box::new(ExtActor {
                    id: ProcessId(i as u32),
                    grid: self.grid,
                    coder: self.coder,
                    digest: digest_views[i],
                    payload_len: (i == 0).then_some(payload.len() as u64),
                    verifier: self.registry.verifier(),
                    chunks: vec![None; opts.n],
                    chunk_digests: vec![None; opts.n],
                    outgoing: (i == 0).then(|| outgoing.clone()),
                    repair_requests: Vec::new(),
                    decision: None,
                    board: Arc::clone(board),
                }) as Box<dyn Actor<ExtMsg>>
            })
            .collect()
    }

    /// The post-vote fetch (run B) actors, posting the agreed decisions
    /// to `board`. `provisional` is run A's board snapshot; `vote_views`
    /// holds per-instance per-node vote decisions
    /// (`vote_views[instance][node]`).
    pub(crate) fn fetch_actors(
        &self,
        opts: &ExtOptions,
        digest_views: &[Option<[u8; DIGEST_LEN]>],
        provisional: &[Option<ExtDecision>],
        vote_views: &[Vec<Option<Value>>],
        board: &Arc<Board<ExtDecision>>,
    ) -> Vec<Box<dyn Actor<ExtMsg>>> {
        (0..opts.n)
            .map(|i| {
                let available = available_at(vote_views, i);
                let outcome_decide = available.len() >= opts.vote_needed();
                Box::new(FetchActor {
                    id: ProcessId(i as u32),
                    digest: digest_views[i],
                    k: self.coder.k(),
                    payload: provisional[i].as_ref().and_then(|d| d.payload().cloned()),
                    available,
                    outcome_decide,
                    t: opts.t,
                    fetch_requests: Vec::new(),
                    asked: 0,
                    decision: None,
                    board: Arc::clone(board),
                }) as Box<dyn Actor<ExtMsg>>
            })
            .collect()
    }
}

/// Availability votes derived from run A's provisional board: node `v`
/// votes 1 iff it provisionally decided (reconstructed a digest-matching
/// payload). Faulty nodes that never posted vote 0.
pub(crate) fn vote_inputs(provisional: &[Option<ExtDecision>]) -> Vec<Value> {
    provisional
        .iter()
        .map(|d| match d {
            Some(ExtDecision::Decide(_)) => Value::ONE,
            _ => Value::ZERO,
        })
        .collect()
}

/// The availability set as `node` derived it: the voters whose instance
/// decided 1 in `node`'s view (`vote_views[instance][node]`).
pub(crate) fn available_at(vote_views: &[Vec<Option<Value>>], node: usize) -> Vec<ProcessId> {
    (0..vote_views.len())
        .filter(|&v| vote_views[v][node] == Some(Value::ONE))
        .map(|v| ProcessId(v as u32))
        .collect()
}

/// The inner-BA config for availability-vote instance `v`: node `v`
/// transmits its own vote.
pub(crate) fn vote_cfg(
    opts: &ExtOptions,
    spec: &ScheduleSpec,
    threads: usize,
    v: usize,
    vote: Value,
) -> CheckConfig {
    let mut cfg = CheckConfig::new(
        opts.n,
        opts.t.max(1),
        vote,
        vote_seed(opts.seed),
        threads,
        spec.clone(),
    );
    cfg.transmitter = ProcessId(v as u32);
    cfg
}

/// Sums the demand-driven request messages (dissemination phases 4 and 6,
/// fetch phases 1 and 3) sent by correct nodes.
pub(crate) fn count_repair_requests(dissemination: &Metrics, fetch: &Metrics) -> u64 {
    let phase = |m: &Metrics, p: usize| {
        m.per_phase
            .get(p - 1)
            .map_or(0, |ph| ph.messages_by_correct)
    };
    phase(dissemination, 4) + phase(dissemination, 6) + phase(fetch, 1) + phase(fetch, 3)
}

/// Sums the response bytes (dissemination phases 5 and 7, fetch phases 2
/// and 4) sent by correct nodes.
pub(crate) fn count_repair_response_bytes(dissemination: &Metrics, fetch: &Metrics) -> u64 {
    let phase = |m: &Metrics, p: usize| m.per_phase.get(p - 1).map_or(0, |ph| ph.bytes_by_correct);
    phase(dissemination, 5) + phase(dissemination, 7) + phase(fetch, 2) + phase(fetch, 4)
}

/// [`agree_on_payload`] with a fault schedule compiled onto every stage
/// (the spec's faulty processors are faulty for digest agreement,
/// dissemination, the availability vote *and* the fetch round), plus a
/// hook rewriting the dissemination and fetch actors (the check layer
/// injects chunk-withholding / garbling adversaries there; it is invoked
/// once per stage, so it must be callable twice).
///
/// # Errors
/// [`ExtError::BadOptions`] on invalid geometry, [`ExtError::Schedule`]
/// when the spec cannot be mapped onto the actors.
pub fn run_extension(
    payload: &Bytes,
    opts: &ExtOptions,
    spec: &ScheduleSpec,
    rewrite: impl Fn(Vec<Box<dyn Actor<ExtMsg>>>) -> Vec<Box<dyn Actor<ExtMsg>>>,
) -> Result<ExtReport, ExtError> {
    let mut runner = pipeline::LockStep {
        threads: opts.threads,
    };
    pipeline::run(&mut runner, payload, opts, spec, rewrite)
}

/// Placeholder actor used while splicing fault wrappers in.
#[derive(Debug)]
pub(crate) struct NullActor;

impl Actor<ExtMsg> for NullActor {
    fn step(&mut self, _: usize, _: Inbox<'_, ExtMsg>, _: &mut Outbox<ExtMsg>) {}
    fn decision(&self) -> Option<Value> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize, seed: u64) -> Bytes {
        let mut rng = ba_crypto::rng::SimRng::new(seed);
        Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn signed_chunks_verify_and_reject_tampering() {
        let reg = KeyRegistry::new(4, 9, SchemeKind::Fast);
        let signer = reg.signer(ProcessId(0));
        let chunk = SignedChunk::sign(&signer, 3, 100, Bytes::from(vec![1, 2, 3]));
        // A valid chunk hands back the digest of its bytes.
        assert_eq!(
            chunk.verify(&reg.verifier(), ProcessId(0)),
            Some(Sha256::digest(&[1, 2, 3]))
        );
        // Wrong claimed sender.
        assert!(chunk.verify(&reg.verifier(), ProcessId(1)).is_none());
        // Garbled data.
        let mut garbled = chunk.clone();
        garbled.data = Bytes::from(vec![1, 2, 4]);
        assert!(garbled.verify(&reg.verifier(), ProcessId(0)).is_none());
        // Re-indexed.
        let mut moved = chunk.clone();
        moved.index = 2;
        assert!(moved.verify(&reg.verifier(), ProcessId(0)).is_none());
        // Signed by a non-sender identity.
        let fake = SignedChunk::sign(
            &reg.signer(ProcessId(2)),
            3,
            100,
            Bytes::from(vec![1, 2, 3]),
        );
        assert!(fake.verify(&reg.verifier(), ProcessId(0)).is_none());
    }

    #[test]
    fn ext_msg_accounting_is_consistent() {
        let reg = KeyRegistry::new(4, 9, SchemeKind::Fast);
        let chunk = SignedChunk::sign(&reg.signer(ProcessId(0)), 0, 8, Bytes::from(vec![0; 8]));
        let msg = ExtMsg::Chunk(chunk.clone());
        assert!(msg.payload_bytes() <= msg.weight_bytes());
        assert_eq!(msg.payload_bytes(), 8);
        assert_eq!(msg.signature_count(), 1);
        let bundle = ExtMsg::Bundle(vec![chunk.clone(), chunk]);
        assert_eq!(bundle.payload_bytes(), 16);
        assert_eq!(bundle.signature_count(), 2);
        let repair = ExtMsg::Repair(vec![1, 2, 3]);
        assert_eq!(repair.payload_bytes(), 0);
        assert!(repair.weight_bytes() > 0);
    }

    #[test]
    fn fault_free_run_decides_everywhere() {
        let p = payload(10_000, 42);
        let report = agree_on_payload(&p, &ExtOptions::default()).unwrap();
        assert_eq!(report.payload_len, 10_000);
        for (id, decision) in report.correct_decisions() {
            match decision {
                Some(ExtDecision::Decide(bytes)) => assert_eq!(bytes, &p, "{id}"),
                other => panic!("{id} did not decide: {other:?}"),
            }
        }
        // Fault-free repair rounds are silent: phases 4–7 carry no
        // correct-sender traffic, and the counters agree.
        let per_phase = &report.dissemination.per_phase;
        for (repair_phase, metrics) in per_phase.iter().enumerate().skip(3) {
            assert_eq!(metrics.messages_by_correct, 0, "phase {}", repair_phase + 1);
        }
        assert_eq!(report.repair_requests, 0);
        assert_eq!(report.repair_response_bytes, 0);
        // Everyone reconstructed, so every node is in the availability set
        // and the fetch round is silent.
        assert_eq!(report.availability.len(), report.correct.len());
        assert_eq!(report.fetch.messages_by_correct, 0);
        // The vote ran: n inner-BA instances moved real traffic.
        assert!(report.vote.messages_by_correct > 0);
        // The column-bundle phase dominates the byte volume.
        assert!(per_phase[2].bytes_by_correct > per_phase[1].bytes_by_correct);
        // Wire volume is within the gated constant of ℓ·n.
        assert!(
            report.overhead_ratio() < 4.0,
            "overhead {}",
            report.overhead_ratio()
        );
        // Payload/control split is sane: chunk data dominates.
        assert!(report.dissemination.payload_bytes_by_correct > 0);
        assert!(
            report.dissemination.payload_bytes_by_correct < report.dissemination.bytes_by_correct
        );
    }

    #[test]
    fn sender_stores_its_own_chunks_without_verifying_them() {
        // Chunk authentication is one digest + one signature check per
        // *distinct* chunk, paid once at the phase barrier that first
        // delivers it; every recipient's check is a stamp hit handing back
        // that digest. The sender holds all n chunks from phase 1 on — it
        // signed them, and was handed their digests — so its disperse
        // phase does no crypto (the barrier's work is carried into the
        // phase that consumes it), and the run's totals are the n chunks'
        // checks plus one root hash per node (every data chunk's digest is
        // already in hand). The same ledger over `ba_ext::net`.
        let p = payload(10_000, 42);
        let opts = ExtOptions::default();
        let n = opts.n as u64;
        let lockstep = agree_on_payload(&p, &opts).unwrap();
        let net = net::run_extension_net(
            &p,
            &opts,
            &ba_net::NetConfig::new(),
            &ba_net::ChaosProfile::reliable(),
            &ScheduleSpec::default(),
            |actors| actors,
        )
        .unwrap()
        .report;
        for (runner, report) in [("lock-step", &lockstep), ("net", &net)] {
            let m = &report.dissemination;
            assert_eq!(m.per_phase[0].hash_invocations, 0, "{runner}");
            assert_eq!(m.per_phase[0].sig_verifications, 0, "{runner}");
            assert_eq!(m.crypto.sig_verifications, n, "{runner}");
            assert_eq!(m.crypto.tag_ops, n, "{runner}");
            assert_eq!(m.crypto.hash_invocations, 2 * n, "{runner}");
            // Each of the n − 1 receivers stores all n chunks through a
            // stamp hit (the barrier's own re-checks of a chunk it meets
            // again in a later phase are hits too).
            assert!(m.crypto.cache_hits >= (n - 1) * n, "{runner}");
            // What the sender disperses is untouched: n − 1 signed chunks.
            assert_eq!(m.per_phase[0].messages_by_correct, n - 1, "{runner}");
            assert_eq!(m.per_phase[0].signatures_by_correct, n - 1, "{runner}");
            assert_eq!(report.availability.len(), opts.n, "{runner}");
        }
        assert_eq!(lockstep, net);
    }

    /// A faulty relay: its honest dissemination actor, except that in the
    /// row-broadcast phase its own chunk goes out as `forge(chunk)`. Logs
    /// the honest chunk and the forgery.
    #[derive(Debug)]
    struct Forger {
        honest: Box<dyn Actor<ExtMsg>>,
        id: ProcessId,
        forge: fn(&SignedChunk) -> SignedChunk,
        log: Arc<std::sync::Mutex<Option<(SignedChunk, SignedChunk)>>>,
    }

    impl Actor<ExtMsg> for Forger {
        fn step(&mut self, phase: usize, inbox: Inbox<'_, ExtMsg>, out: &mut Outbox<ExtMsg>) {
            let mut staged = Outbox::new(self.id);
            self.honest.step(phase, inbox, &mut staged);
            for env in staged.into_staged() {
                let payload = match (phase, env.payload) {
                    (2, ExtMsg::Chunk(own)) => {
                        let mut log = self.log.lock().expect("unpoisoned");
                        let (_, forged) = log.get_or_insert_with(|| {
                            let forged = (self.forge)(&own);
                            (own, forged)
                        });
                        ExtMsg::Chunk(forged.clone())
                    }
                    (_, other) => other,
                };
                out.send(env.to, payload);
            }
        }

        fn finalize(&mut self, inbox: Inbox<'_, ExtMsg>) {
            self.honest.finalize(inbox);
        }

        fn decision(&self) -> Option<Value> {
            None
        }

        fn is_correct(&self) -> bool {
            false
        }
    }

    /// `chunk` with its first byte flipped, on a clone that shares its
    /// stamp.
    fn garbled_clone(chunk: &SignedChunk) -> SignedChunk {
        let mut garbled = chunk.clone();
        let mut data = chunk.data.to_vec();
        data[0] ^= 0xFF;
        garbled.data = Bytes::from(data);
        garbled
    }

    /// A chunk at `chunk`'s index over garbled bytes, signed in the
    /// sender's name under another registry seed.
    fn foreign_signed(chunk: &SignedChunk) -> SignedChunk {
        let foreign = KeyRegistry::new(16, 0xF0E1, SchemeKind::Fast);
        let garbled = garbled_clone(chunk);
        SignedChunk::sign(
            &foreign.signer(ExtActor::SENDER),
            chunk.index,
            chunk.payload_len,
            garbled.data,
        )
    }

    #[derive(Clone, Copy, Debug)]
    enum Runner {
        Reference,
        LockStep,
        Net,
    }

    /// What one forged dissemination run left behind.
    struct ForgedRun {
        provisional: Vec<Option<ExtDecision>>,
        correct: Vec<bool>,
        metrics: Metrics,
        honest: SignedChunk,
        forged: SignedChunk,
        verifier: Verifier,
    }

    /// The dissemination stage of a fault-free 16-node, t = 3 run, except
    /// that node 1 hands its row mates `forge` of its chunk — a data chunk
    /// (k = 10), which no row mate can hold any earlier, so each consumes
    /// the forgery first — on `runner`.
    fn disseminate_with_forger(
        payload: &Bytes,
        forge: fn(&SignedChunk) -> SignedChunk,
        runner: Runner,
    ) -> ForgedRun {
        let opts = ExtOptions::new().with_t(3);
        let setup = ExtSetup::new(&opts);
        let outgoing = setup.sign_chunks(payload);
        let views = vec![Some(outgoing.payload_digest); opts.n];
        let board = Board::new(opts.n);
        let mut actors = setup.dissemination_actors(&opts, payload, &views, &outgoing, &board);
        let log = Arc::default();
        let id = ProcessId(1);
        let honest = std::mem::replace(&mut actors[id.index()], Box::new(NullActor));
        actors[id.index()] = Box::new(Forger {
            honest,
            id,
            forge,
            log: Arc::clone(&log),
        });
        let spec = ba_sim::InstanceSpec {
            actors,
            phases: DISSEMINATION_PHASES,
            fault_budget: opts.t,
            link_drops: Vec::new(),
            registry: Some(setup.registry.clone()),
        };
        let (correct, metrics) = match runner {
            Runner::Reference => {
                let run = ba_sim::Simulation::from(spec)
                    .with_batched_verification(false)
                    .run(DISSEMINATION_PHASES);
                (run.correct, run.metrics)
            }
            Runner::LockStep => {
                let run = spec.run_lockstep(1);
                (run.correct, run.metrics)
            }
            Runner::Net => {
                let run = ba_net::NetRuntime::new(spec, ba_net::NetConfig::new())
                    .run()
                    .expect("reliable wire, one faulty relay");
                (run.correct, run.metrics)
            }
        };
        let (honest, forged) = log.lock().expect("unpoisoned").take().expect("forged");
        ForgedRun {
            provisional: board.snapshot(),
            correct,
            metrics,
            honest,
            forged,
            verifier: setup.registry.verifier(),
        }
    }

    #[test]
    fn chunk_failing_barrier_verification_is_rejected_by_every_recipient() {
        // Two forgeries of a data chunk: a garbled clone that shares the
        // stamp the barrier wrote for the honest chunk (accepted through
        // that stamp, it would come with the honest digest, and the
        // reconstruction root would wave a wrong payload through), and a
        // chunk signed in the sender's name under another registry seed.
        let p = payload(4_096, 31);
        for (label, forge) in [
            (
                "garbled clone",
                garbled_clone as fn(&SignedChunk) -> SignedChunk,
            ),
            ("foreign registry", foreign_signed),
        ] {
            let reference = disseminate_with_forger(&p, forge, Runner::Reference);
            for (i, decision) in reference.provisional.iter().enumerate() {
                if reference.correct[i] {
                    assert_eq!(
                        decision.as_ref(),
                        Some(&ExtDecision::Decide(p.clone())),
                        "{label}: node {i}"
                    );
                }
            }
            for runner in [Runner::LockStep, Runner::Net] {
                let run = disseminate_with_forger(&p, forge, runner);
                assert_eq!(run.provisional, reference.provisional, "{label} {runner:?}");
                assert_eq!(run.correct, reference.correct, "{label} {runner:?}");
                assert_eq!(
                    run.metrics.without_crypto(),
                    reference.metrics.without_crypto(),
                    "{label} {runner:?}"
                );
                // The honest chunk was stamped at a barrier: its check is
                // a hit. The forgery, had the barrier stamped it (or had
                // the garbled clone ridden the honest stamp), would be one
                // too.
                let before = ba_crypto::stats::CryptoStats::snapshot();
                assert!(run.honest.verify(&run.verifier, ExtActor::SENDER).is_some());
                let hit = ba_crypto::stats::CryptoStats::snapshot().since(&before);
                assert_eq!((hit.hash_invocations, hit.cache_hits), (0, 1), "{label}");
                assert!(
                    run.forged.verify(&run.verifier, ExtActor::SENDER).is_none(),
                    "{label} {runner:?}"
                );
                assert!(
                    run.metrics.crypto.sig_verifications
                        < reference.metrics.crypto.sig_verifications,
                    "{label} {runner:?}: the barrier is on"
                );
            }
        }
    }

    /// `chunk` as signed, its bytes copied into an allocation of their own.
    fn copied_clone(chunk: &SignedChunk) -> SignedChunk {
        let mut copied = chunk.clone();
        copied.data = Bytes::copy_from_slice(&chunk.data);
        copied
    }

    #[test]
    fn data_chunks_that_are_not_payload_windows_take_the_copy_path_and_still_decide() {
        let p = payload(4_096, 32);
        // Node 1 relays its genuine data chunk from an allocation of its
        // own; its row mates 2 and 3 hold that copy, so their data chunks
        // are no adjacent windows and reconstruction copies. The sender
        // holds its own windows.
        for runner in [Runner::LockStep, Runner::Net] {
            let run = disseminate_with_forger(&p, copied_clone, runner);
            let mut copied = Vec::new();
            for (i, decision) in run.provisional.iter().enumerate() {
                if run.correct[i] {
                    let decided = decision.as_ref().and_then(ExtDecision::payload);
                    assert_eq!(decided, Some(&p), "{runner:?} node {i}");
                    if !decided.is_some_and(|d| d.shares_allocation(&p)) {
                        copied.push(i);
                    }
                }
            }
            assert!(
                copied.contains(&2) && copied.contains(&3),
                "{runner:?} {copied:?}"
            );
            assert!(!copied.contains(&0), "{runner:?} {copied:?}");
        }
        // A withheld data chunk: parity stands in, decoded into a copy.
        let opts = ExtOptions::new().with_n(9).with_t(2);
        let signed = ExtSetup::new(&opts).sign_chunks(&p).chunks;
        let mut held = signed.clone();
        held.remove(2);
        let node = node_holding(&opts, &p, &held);
        let decision = node.compute_decision();
        assert_eq!(decision, ExtDecision::Decide(p.clone()));
        assert!(!decision.payload().expect("decided").shares_allocation(&p));
        // Every data chunk held: the payload's own window.
        let node = node_holding(&opts, &p, &signed);
        let decision = node.compute_decision();
        assert!(decision.payload().expect("decided").shares_allocation(&p));
    }

    /// Node 1 of an `(n, t)` run that agreed on `payload`'s digest, holding
    /// every chunk of `chunks` that verifies (in order).
    fn node_holding(opts: &ExtOptions, payload: &Bytes, chunks: &[SignedChunk]) -> ExtActor {
        let setup = ExtSetup::new(opts);
        let mut node = ExtActor {
            id: ProcessId(1),
            grid: setup.grid,
            coder: setup.coder,
            digest: Some(setup.sign_chunks(payload).payload_digest),
            payload_len: None,
            verifier: setup.registry.verifier(),
            chunks: vec![None; opts.n],
            chunk_digests: vec![None; opts.n],
            outgoing: None,
            repair_requests: Vec::new(),
            decision: None,
            board: Board::new(opts.n),
        };
        for chunk in chunks {
            node.try_store(chunk.clone());
        }
        node
    }

    /// The verdict under the flat digest this layer agreed on before:
    /// decide the reconstruction iff it hashes like the payload.
    fn flat_digest_verdict(node: &ExtActor, payload: &Bytes) -> ExtDecision {
        let data: Vec<Option<Bytes>> = node
            .chunks
            .iter()
            .map(|c| c.as_ref().map(|chunk| chunk.data.clone()))
            .collect();
        let len = node.payload_len.expect("a chunk was stored") as usize;
        let reconstruction = node.coder.reconstruct(&data, len).expect("k chunks held");
        if Sha256::digest(&reconstruction) == Sha256::digest(payload) {
            ExtDecision::Decide(reconstruction)
        } else {
            ExtDecision::Abort(AbortReason::DigestMismatch)
        }
    }

    #[test]
    fn a_root_from_cached_digests_equals_the_payload_digest() {
        ba_crypto::testkit::run_cases(48, 0x2007, |gen| {
            let (n, t) = [(4, 1), (9, 1), (9, 2), (16, 1), (16, 3)][gen.usize_in(0, 5)];
            let opts = ExtOptions::new().with_n(n).with_t(t).with_seed(gen.u64());
            let k = opts.data_chunks();
            let len = match gen.usize_in(0, 5) {
                0 => 0,
                1 => 1,
                2 => gen.usize_in(1, k),
                3 => k * gen.usize_in(1, 300) + gen.usize_in(1, k),
                _ => 64 * 1024 + gen.usize_in(0, 2 * k),
            };
            let payload = Bytes::from(gen.rng().bytes(len));
            let signed = ExtSetup::new(&opts).sign_chunks(&payload).chunks;
            // A random k-subset; half the time every parity chunk first.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, gen.usize_in(0, i + 1));
            }
            if gen.bool() {
                order.sort_by_key(|&i| i < k);
            }
            let held: Vec<SignedChunk> = order[..k].iter().map(|&i| signed[i].clone()).collect();
            let node = node_holding(&opts, &payload, &held);
            let oracle = flat_digest_verdict(&node, &payload);
            assert_eq!(oracle, ExtDecision::Decide(payload.clone()), "len {len}");
            let reconstruction = oracle.payload().expect("decided");
            let before = ba_crypto::stats::CryptoStats::snapshot();
            let root = node.reconstruction_root(reconstruction);
            let hashes = ba_crypto::stats::CryptoStats::snapshot()
                .since(&before)
                .hash_invocations;
            assert_eq!(
                root,
                payload_digest(k, &payload),
                "n {n} t {t} len {len} held {:?}",
                &order[..k]
            );
            // Held data chunks are not hashed again: one hash per missing
            // data slice, plus the root itself.
            let missing = order[k..].iter().filter(|&&i| i < k).count() as u64;
            assert_eq!(hashes, missing + 1, "len {len} held {:?}", &order[..k]);
            assert_eq!(node.compute_decision(), oracle, "n {n} t {t} len {len}");
        });
    }

    #[test]
    fn a_data_chunk_signed_at_the_wrong_length_is_judged_like_the_flat_digest() {
        let opts = ExtOptions::new().with_n(9).with_t(2);
        let k = opts.data_chunks();
        let setup = ExtSetup::new(&opts);
        let signer = setup.registry.signer(ExtActor::SENDER);
        // k = 5 slices: four of 25 bytes and a last one of 22. Slice 1 and
        // the last slice end in zero bytes, so trimming them loses nothing.
        let len = 122;
        let ranges: Vec<_> = coding::data_ranges(k, len).collect();
        let mut bytes = payload(len, 3).to_vec();
        bytes[ranges[1].end - 5..ranges[1].end].fill(0);
        bytes[len - 3..].fill(0);
        let payload = Bytes::from(bytes);
        let honest = setup.sign_chunks(&payload).chunks;
        let resign = |i: usize, data: Vec<u8>| {
            SignedChunk::sign(&signer, i as u16, len as u64, Bytes::from(data))
        };
        let with_extra = |i: usize| {
            let mut data = payload[ranges[i].clone()].to_vec();
            data.push(0xA5);
            resign(i, data)
        };
        let trimmed = |i: usize, zeros: usize| {
            let data = &payload[ranges[i].clone()];
            resign(i, data[..data.len() - zeros].to_vec())
        };
        let flipped = |i: usize| {
            let mut data = payload[ranges[i].clone()].to_vec();
            data[0] ^= 1;
            resign(i, data)
        };
        for (label, forged, decides) in [
            ("one extra byte, full slice", with_extra(0), true),
            ("one extra byte, last slice", with_extra(k - 1), true),
            ("trailing zeros trimmed", trimmed(1, 5), true),
            ("last slice trimmed", trimmed(k - 1, 3), true),
            ("a flipped byte", flipped(2), false),
        ] {
            let index = forged.index as usize;
            // Only the data chunks, and the forged one in its own slot.
            let mut held = honest[..k].to_vec();
            held[index] = forged;
            let node = node_holding(&opts, &payload, &held);
            let oracle = flat_digest_verdict(&node, &payload);
            assert_eq!(matches!(oracle, ExtDecision::Decide(_)), decides, "{label}");
            assert_eq!(node.compute_decision(), oracle, "{label}");
        }
    }

    #[test]
    fn designated_responder_is_the_rank_rotation_over_row_mates() {
        for n in [4, 9, 16] {
            let grid = GridLayout::new(n).expect("square");
            for requester in 0..n {
                let mates: Vec<ProcessId> = grid.row_mates(ProcessId(requester as u32)).collect();
                for chunk in 0..n {
                    assert_eq!(
                        ExtActor::designated_responder(grid, ProcessId(requester as u32), chunk),
                        mates[(requester + chunk) % mates.len()],
                        "n {n} requester {requester} chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn options_validation_catches_bad_geometry() {
        // The grid needs m ≥ 2: a 1×1 "grid" has no row mates to repair from.
        for n in [1, 3, 15] {
            let opts = ExtOptions::new().with_n(n).with_t(0);
            let expected = format!("n = {n} is not a perfect square ≥ 4");
            assert_eq!(opts.validate(), Err(expected));
        }
        let mut opts = ExtOptions {
            n: 15,
            ..ExtOptions::default()
        };
        assert!(opts.validate().is_err(), "non-square n");
        opts.n = 16;
        opts.t = 4;
        assert!(opts.validate().is_err(), "t ≥ √n");
        opts.t = 3;
        assert!(opts.validate().is_ok());
        opts.inner = "algorithm1";
        assert!(opts.validate().is_err(), "binary-only inner target");
        opts.inner = "nope";
        assert!(opts.validate().is_err(), "unknown inner target");
        opts.inner = "ds-broadcast";
        opts.vote_inner = "algorithm1";
        assert!(opts.validate().is_err(), "binary-only vote target");
        opts.vote_inner = "nope";
        assert!(opts.validate().is_err(), "unknown vote target");
        opts.vote_inner = "ds-broadcast";
        assert!(opts.validate().is_ok(), "any multi-valued vote target");
    }

    #[test]
    fn tiny_and_empty_payloads_round_trip() {
        for len in [0usize, 1, 15, 16, 17] {
            let p = payload(len, len as u64 + 7);
            let report = agree_on_payload(&p, &ExtOptions::default()).unwrap();
            for (id, decision) in report.correct_decisions() {
                assert_eq!(
                    decision.and_then(|d| d.payload()),
                    Some(&p),
                    "{id} at len {len}"
                );
            }
        }
    }

    /// Section 2's locality audit over the two grid stages: every
    /// correct node sends and decides from its own subhistory alone,
    /// fault-free at n = 4 and with a silent node at n = 9, and in the
    /// fetch stage a node that lacks the payload pulls it. Each build
    /// signs the chunks under fresh keys, so no stamp from the recorded
    /// run reaches the replayed one.
    #[test]
    fn grid_stages_follow_their_rules() {
        use ba_model::locality::audit;
        use ba_sim::{FaultBehavior, InstanceSpec};
        let p = payload(3_000, 5);
        for (n, t, silent) in [(4, 1, None), (9, 2, Some(ProcessId(4)))] {
            let opts = ExtOptions::new().with_n(n).with_t(t);
            let spec = ScheduleSpec::each(silent, FaultBehavior::Silent);
            let digest = ExtSetup::new(&opts).sign_chunks(&p).payload_digest;
            let views = vec![Some(digest); n];
            type Actors = Vec<Box<dyn Actor<ExtMsg>>>;
            let stage = |phases, actors: &dyn Fn(&ExtSetup, &Outgoing) -> Actors| {
                let setup = ExtSetup::new(&opts);
                let outgoing = setup.sign_chunks(&p);
                let actors = actors(&setup, &outgoing);
                InstanceSpec {
                    actors: apply_spec_faults(actors, &spec).unwrap(),
                    phases,
                    fault_budget: t,
                    link_drops: Vec::new(),
                    registry: Some(setup.registry),
                }
            };
            let disseminate = |board: &Arc<Board<ExtDecision>>| {
                stage(DISSEMINATION_PHASES, &|setup, outgoing| {
                    setup.dissemination_actors(&opts, &p, &views, outgoing, board)
                })
            };
            assert_eq!(audit(|| disseminate(&Board::new(n))), Ok(()), "n = {n}");

            // The fetch stage starts from the provisional decisions, with
            // node 2's dropped so that it has to fetch the payload, and
            // the views a vote that decides every voter's input yields.
            let board = Board::new(n);
            disseminate(&board).run_lockstep(1);
            let mut provisional = board.snapshot();
            provisional[2] = None;
            let votes = vote_inputs(&provisional);
            let vote_views: Vec<_> = votes.iter().map(|&v| vec![Some(v); n]).collect();
            let fetch = || {
                stage(FETCH_PHASES, &|setup, _| {
                    setup.fetch_actors(&opts, &views, &provisional, &vote_views, &Board::new(n))
                })
            };
            assert_eq!(audit(fetch), Ok(()), "n = {n}");
        }
    }

    #[test]
    fn threading_is_byte_identical() {
        let p = payload(5_000, 7);
        let base = agree_on_payload(&p, &ExtOptions::default()).unwrap();
        for threads in [4, 8] {
            let opts = ExtOptions {
                threads,
                ..ExtOptions::default()
            };
            let report = agree_on_payload(&p, &opts).unwrap();
            assert_eq!(report, base, "threads {threads}");
        }
    }
}
