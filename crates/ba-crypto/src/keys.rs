//! Per-processor keys, signer handles and verification.
//!
//! The simulation models the paper's signature scheme with symmetric keys
//! held by a trusted [`KeyRegistry`] (the simulator itself):
//!
//! * each processor `p` owns a secret derived from the run seed;
//! * a [`Signer`] handle is bound to exactly one identity — the simulator
//!   gives each actor only its own handle, so Byzantine actors cannot mint
//!   other processors' signatures on new content (they may freely *replay*
//!   signatures they have observed, which is all the paper's adversary is
//!   allowed);
//! * a [`Verifier`] checks any signature against the registry.
//!
//! Two tag constructions are provided: [`SchemeKind::Hmac`] (HMAC-SHA-256,
//! 32-byte tags) and [`SchemeKind::Fast`] (64-bit keyed-mix tags) for large
//! parameter sweeps where hashing would dominate runtime. Both are
//! deterministic in the run seed.
//!
//! Each registry also carries a shared [`VerifierCache`] memoizing the
//! prefix digests of signature chains that have already fully verified, so
//! a receiver seeing a chain extended by `k` signatures re-verifies only
//! the `k` new ones (the Dolev-Strong relay pattern). See
//! [`chain`](crate::chain) for how the digests are formed.

use crate::error::CryptoError;
use crate::hmac::HmacKey;
use crate::rng::splitmix64;
use crate::sha256::{Sha256, DIGEST_LEN};
use crate::wire::{Decoder, Encoder};
use crate::ProcessId;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which tag construction a [`KeyRegistry`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SchemeKind {
    /// HMAC-SHA-256, 32-byte tags. The default; cryptographically faithful.
    #[default]
    Hmac,
    /// 64-bit keyed mixing, 8-byte tags. Fast mode for big sweeps; still
    /// unforgeable against the scripted adversaries in this workspace.
    Fast,
}

/// A signature: the claimed signer plus an authentication tag over the
/// signed content.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    signer: ProcessId,
    tag: Tag,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Tag {
    Hmac([u8; 32]),
    Fast(u64),
}

impl Signature {
    /// The identity that (claims to have) produced this signature.
    pub fn signer(&self) -> ProcessId {
        self.signer
    }

    /// Length in bytes of the encoded signature.
    pub fn encoded_len(&self) -> usize {
        match self.tag {
            Tag::Hmac(_) => 4 + 1 + 32,
            Tag::Fast(_) => 4 + 1 + 8,
        }
    }

    /// Appends the canonical encoding of this signature to `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.process_id(self.signer);
        match &self.tag {
            Tag::Hmac(t) => {
                enc.u8(0);
                enc.raw(t);
            }
            Tag::Fast(t) => {
                enc.u8(1);
                enc.u64(*t);
            }
        }
    }

    /// Feeds `hasher` exactly the bytes [`encode`](Self::encode) appends,
    /// without materializing them (the chain prefix digests hash one
    /// signature per link).
    pub(crate) fn hash_into(&self, hasher: &mut Sha256) {
        hasher.update(&self.signer.0.to_be_bytes());
        match &self.tag {
            Tag::Hmac(t) => {
                hasher.update(&[0]);
                hasher.update(t);
            }
            Tag::Fast(t) => {
                hasher.update(&[1]);
                hasher.update(&t.to_be_bytes());
            }
        }
    }

    /// Decodes a signature from `dec`.
    ///
    /// # Errors
    /// Returns [`CryptoError::Truncated`] on short input and
    /// [`CryptoError::BadDiscriminant`] on an unknown tag kind.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, CryptoError> {
        let signer = dec.process_id()?;
        let kind = dec.u8()?;
        let tag = match kind {
            0 => {
                let raw = dec.raw(32)?;
                let mut t = [0u8; 32];
                t.copy_from_slice(raw);
                Tag::Hmac(t)
            }
            1 => Tag::Fast(dec.u64()?),
            other => return Err(CryptoError::BadDiscriminant { found: other }),
        };
        Ok(Signature { signer, tag })
    }

    /// Produces a deliberately invalid signature claiming to be from
    /// `signer` — used by adversaries attempting forgery and by tests that
    /// check forged signatures are rejected.
    pub fn forged(signer: ProcessId, kind: SchemeKind) -> Self {
        let tag = match kind {
            SchemeKind::Hmac => Tag::Hmac([0xAB; 32]),
            SchemeKind::Fast => Tag::Fast(0xDEAD_BEEF_DEAD_BEEF),
        };
        Signature { signer, tag }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig({})", self.signer)
    }
}

/// Memoization of fully verified signature-chain prefixes.
///
/// The cache stores the *rolling prefix digests* of chains that a
/// [`Verifier`] over the same registry has already accepted. A digest
/// collision-resistantly binds the chain's domain, value and every
/// signature in the prefix, so finding a digest in the cache proves that
/// exact prefix verified before — re-verification can resume after it and
/// pay only for the new signatures.
///
/// The cache is shared by every `Verifier` cloned from one
/// [`KeyRegistry`] (all actors of one simulated run), which is sound
/// because signature validity depends only on the registry's keys, never
/// on who is asking. It is a pure runtime optimization: accept/reject
/// behavior is bit-identical with or without it.
///
/// A cache may additionally be shared *across* registries via
/// [`KeyRegistry::with_shared_cache`], but only when every participating
/// registry is built from the same `(n, seed, kind)` — keys are derived
/// purely from the seed, so such registries agree on which chains verify
/// and a digest cached by one is a sound skip for all. The service layer
/// uses this to verify repeated signer prefixes once fleet-wide across
/// concurrent BA instances of one cluster identity. Sharing across
/// *different* seeds would be unsound (a digest valid under one key set
/// would skip verification under another) and must not be done.
///
/// # Deferred (phase-snapshot) mode
///
/// With immediate writes, the cache's hit/miss pattern — and therefore the
/// per-run work counters — depends on the order in which actors verify
/// chains *within* one simulation phase. A parallel engine stepping actors
/// on worker threads cannot reproduce the sequential order, so the
/// counters would become schedule-dependent. [`Self::set_deferred`]
/// switches the cache to snapshot semantics: lookups see only the state
/// the cache had at the last [`Self::flush_pending`] (the engine flushes
/// at every phase barrier), and inserts accumulate in a pending buffer
/// until that flush. Every actor in a phase then observes the same cache
/// state no matter how the phase is scheduled, making
/// hit/miss/verification counts byte-identical for any thread count.
/// Deferred mode never changes accept/reject outcomes — only which
/// verifications are skipped as redundant.
///
/// # Sharding
///
/// The digest set is split across [`CACHE_SHARDS`] independently locked
/// shards so that worker threads verifying different chains in the same
/// phase do not serialize on one mutex. A digest's shard is a pure
/// function of its bytes (an XOR fold), so which shard holds which digest
/// — and therefore every hit/miss decision and every per-shard cap-clear
/// decision — is schedule-independent: sharding changes contention, never
/// counters.
#[derive(Debug)]
pub struct VerifierCache {
    shards: Vec<CacheShard>,
    /// Whether inserts are currently buffered instead of applied.
    deferred: AtomicBool,
    /// Per-shard entry bound; a shard at its cap is cleared before the next
    /// insert (the cheap whole-shard eviction). Configurable so long
    /// multi-instance runs can trade hit rate for memory.
    shard_cap: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Total digests discarded by cap-clears since creation.
    evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheShard {
    verified: Mutex<HashSet<[u8; DIGEST_LEN]>>,
    /// Inserts buffered while in deferred mode, applied at the next flush.
    /// Duplicates are fine (the target is a set); only the *multiset* of
    /// buffered digests must be schedule-independent, which it is because
    /// each actor's verifications are deterministic.
    pending: Mutex<Vec<[u8; DIGEST_LEN]>>,
    /// Digests a lookup reused since the last flush: the *hot* prefixes.
    /// A cap-clear retains these instead of wiping the whole shard, so
    /// eviction under cap pressure can no longer discard a digest that the
    /// very next verification in the same tick would redundantly re-hash.
    /// The set is schedule independent (a phase's reused prefixes are a
    /// deterministic union over actors) and is reset at every flush
    /// boundary, so it pins at most one flush window's working set.
    touched: Mutex<HashSet<[u8; DIGEST_LEN]>>,
}

impl CacheShard {
    /// Evicts down to the touched-this-flush pin set, charging the removed
    /// entries to `evictions`. The pin set survives the clear (repeated
    /// overflow within one flush window must not strip the pins) and is
    /// reset only at flush boundaries — except when it has itself grown to
    /// `cap`, where everything is wiped so the cap keeps bounding memory
    /// even for immediate-mode callers that never flush.
    fn evict_keeping_touched(
        &self,
        verified: &mut HashSet<[u8; DIGEST_LEN]>,
        evictions: &AtomicU64,
        cap: usize,
    ) {
        let mut touched = self.touched.lock().expect("verifier cache poisoned");
        let before = verified.len();
        if touched.is_empty() || touched.len() >= cap {
            verified.clear();
            touched.clear();
        } else {
            verified.retain(|d| touched.contains(d));
        }
        evictions.fetch_add((before - verified.len()) as u64, Ordering::Relaxed);
    }
}

/// Number of independently locked cache shards.
pub const CACHE_SHARDS: usize = 16;

/// Default bound on cached digests; a shard is cleared when full so a long
/// sweep cannot grow memory without bound (32 B/entry → ≤ 2 MiB total).
const CACHE_CAP: usize = 1 << 16;

/// Default per-shard digest bound (see
/// [`VerifierCache::set_shard_cap`] for overriding it).
const SHARD_CAP: usize = CACHE_CAP / CACHE_SHARDS;

/// A digest's home shard: XOR fold of all bytes. Content-determined, so
/// shard placement is identical for any scheduling of the inserts.
fn shard_of(digest: &[u8; DIGEST_LEN]) -> usize {
    digest.iter().fold(0u8, |acc, b| acc ^ b) as usize % CACHE_SHARDS
}

impl Default for VerifierCache {
    fn default() -> Self {
        VerifierCache::new()
    }
}

impl VerifierCache {
    /// Creates an empty cache with the default per-shard cap.
    pub fn new() -> Self {
        Self::with_shard_cap(SHARD_CAP)
    }

    /// Creates an empty cache whose shards each hold at most `cap` digests
    /// (clamped to at least 1).
    pub fn with_shard_cap(cap: usize) -> Self {
        VerifierCache {
            shards: (0..CACHE_SHARDS).map(|_| CacheShard::default()).collect(),
            deferred: AtomicBool::new(false),
            shard_cap: AtomicUsize::new(cap.max(1)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Reconfigures the per-shard entry bound (clamped to at least 1).
    /// Shards over the new cap are cleared lazily on their next insert, so
    /// this is O(1) and safe to call mid-run.
    pub fn set_shard_cap(&self, cap: usize) {
        self.shard_cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// The current per-shard entry bound.
    pub fn shard_cap(&self) -> usize {
        self.shard_cap.load(Ordering::Relaxed)
    }

    /// Returns the largest index `i` such that `digests[i]` is a known
    /// verified prefix, scanning longest-first. Records a hit (some prefix
    /// was reusable) or a miss on this cache *and* on the thread-local
    /// [`CryptoStats`](crate::stats::CryptoStats) counters.
    pub fn longest_verified_prefix(&self, digests: &[[u8; DIGEST_LEN]]) -> Option<usize> {
        let found = digests.iter().rposition(|d| {
            self.shards[shard_of(d)]
                .verified
                .lock()
                .expect("verifier cache poisoned")
                .contains(d)
        });
        match found {
            Some(i) => {
                // Pin the reused prefix against cap-clears until the next
                // flush: evicting a digest that lookups in the same tick
                // still depend on would force a redundant re-hash.
                let d = &digests[i];
                self.shards[shard_of(d)]
                    .touched
                    .lock()
                    .expect("verifier cache poisoned")
                    .insert(*d);
                self.hits.fetch_add(1, Ordering::Relaxed);
                crate::stats::record_cache_hit();
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                crate::stats::record_cache_miss();
            }
        }
        found
    }

    /// Marks every digest in `digests` as a verified prefix. In deferred
    /// mode the digests only become visible to lookups at the next
    /// [`flush_pending`](Self::flush_pending).
    pub fn insert_verified(&self, digests: &[[u8; DIGEST_LEN]]) {
        let deferred = self.deferred.load(Ordering::Acquire);
        for d in digests {
            let shard = &self.shards[shard_of(d)];
            if deferred {
                shard
                    .pending
                    .lock()
                    .expect("verifier cache poisoned")
                    .push(*d);
                continue;
            }
            let cap = self.shard_cap();
            let mut verified = shard.verified.lock().expect("verifier cache poisoned");
            if verified.len() >= cap {
                shard.evict_keeping_touched(&mut verified, &self.evictions, cap);
            }
            verified.insert(*d);
        }
    }

    /// Records a barrier-verification stamp hit (see
    /// [`Chain::verify_at_barrier`](crate::Chain::verify_at_barrier)) on this
    /// cache's hit counter and the thread-local
    /// [`CryptoStats`](crate::stats::CryptoStats) counters: the stamp is
    /// this cache's O(1) front end, so its reuse counts as cache reuse.
    pub(crate) fn note_stamp_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        crate::stats::record_cache_hit();
    }

    /// Switches between immediate writes (the default) and deferred
    /// phase-snapshot writes (see the type docs). Turning deferred mode
    /// *off* flushes any buffered inserts.
    pub fn set_deferred(&self, deferred: bool) {
        self.deferred.store(deferred, Ordering::Release);
        if !deferred {
            self.flush_pending();
        }
    }

    /// Whether inserts are currently deferred.
    pub fn is_deferred(&self) -> bool {
        self.deferred.load(Ordering::Acquire)
    }

    /// Publishes all buffered inserts to lookups — the simulation engine's
    /// phase barrier. Each shard's buffer is applied as one batch so the
    /// cap-clear decision depends only on the (schedule-independent)
    /// per-shard buffered digests, never on intra-phase ordering.
    pub fn flush_pending(&self) {
        for shard in &self.shards {
            let mut pending = shard.pending.lock().expect("verifier cache poisoned");
            if pending.is_empty() {
                // Flush is still a tick boundary: expire the shard's pins
                // so a quiet phase does not extend their lifetime.
                shard
                    .touched
                    .lock()
                    .expect("verifier cache poisoned")
                    .clear();
                continue;
            }
            let cap = self.shard_cap();
            let mut verified = shard.verified.lock().expect("verifier cache poisoned");
            if verified.len() + pending.len() > cap {
                shard.evict_keeping_touched(&mut verified, &self.evictions, cap);
            }
            // Flush is the pin boundary: the window's pins expire here.
            shard
                .touched
                .lock()
                .expect("verifier cache poisoned")
                .clear();
            verified.extend(pending.drain(..));
        }
    }

    /// Number of lookups that found a reusable verified prefix (including
    /// O(1) stamp hits).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total digests discarded by per-shard cap-clears. A steadily climbing
    /// value means the working set exceeds the configured bound and the
    /// cap (see [`set_shard_cap`](Self::set_shard_cap)) is costing hits.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Fraction of lookups that hit (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Number of digests currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.verified.lock().expect("verifier cache poisoned").len())
            .sum()
    }

    /// Whether the cache holds no digests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug)]
struct RegistryInner {
    /// The identities' HMAC secrets, prepared for tagging (ipad/opad
    /// midstates) so a tag does not re-compress the key blocks. Filled
    /// under [`SchemeKind::Hmac`] only — the one scheme that reads it.
    hmac_keys: Vec<HmacKey>,
    fast_keys: Vec<u64>,
    kind: SchemeKind,
    cache: Arc<VerifierCache>,
    /// Process-unique instance token; the barrier-verification stamp on a
    /// signature-chain buffer (see
    /// [`Chain::verify_at_barrier`](crate::Chain::verify_at_barrier)) mixes it in
    /// so a stamp written under one registry can never satisfy a verifier
    /// over another — even one built from the same seed.
    token: u64,
}

/// Identity `id`'s HMAC secret under registry seed `seed`.
fn hmac_secret(seed: u64, id: usize) -> [u8; 32] {
    let mut enc = Encoder::with_capacity(16);
    enc.u64(seed).u32(id as u32).raw(b"ba-key");
    Sha256::digest(&enc.finish())
}

/// Source of registry instance tokens. Starts at 1 so a token of 0 never
/// exists (chain stamps use 0 as "unstamped").
static NEXT_REGISTRY_TOKEN: AtomicU64 = AtomicU64::new(1);

/// The trusted key registry: one secret per processor, derived from a seed.
///
/// Cloning is cheap (`Arc` inside). See the [module docs](self) for the
/// threat model.
///
/// ```
/// use ba_crypto::keys::{KeyRegistry, SchemeKind};
/// use ba_crypto::ProcessId;
///
/// let reg = KeyRegistry::new(3, 7, SchemeKind::Fast);
/// let sig = reg.signer(ProcessId(0)).sign(b"msg");
/// assert!(reg.verifier().verify(&sig, b"msg"));
/// ```
#[derive(Clone, Debug)]
pub struct KeyRegistry {
    inner: Arc<RegistryInner>,
}

impl KeyRegistry {
    /// Creates a registry for `n` processors with secrets derived from
    /// `seed`.
    pub fn new(n: usize, seed: u64, kind: SchemeKind) -> Self {
        Self::with_shared_cache(n, seed, kind, Arc::new(VerifierCache::new()))
    }

    /// Like [`new`](Self::new) but installing `cache` as the registry's
    /// chain-verification cache instead of a fresh one.
    ///
    /// Sharing one cache across registries is sound **only** when every
    /// registry handed the cache is built with the same `(n, seed, kind)`
    /// (see the cross-registry paragraph in [`VerifierCache`]'s docs); the
    /// caller owns that invariant. Barrier-verification stamps never cross
    /// registries regardless — each registry keeps its own token.
    pub fn with_shared_cache(
        n: usize,
        seed: u64,
        kind: SchemeKind,
        cache: Arc<VerifierCache>,
    ) -> Self {
        let mut hmac_keys = Vec::new();
        let mut fast_keys = Vec::with_capacity(n);
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        for id in 0..n {
            let secret = hmac_secret(seed, id);
            if kind == SchemeKind::Hmac {
                hmac_keys.push(HmacKey::new(&secret));
            }
            fast_keys.push(splitmix64(&mut state) | 1);
        }
        KeyRegistry {
            inner: Arc::new(RegistryInner {
                hmac_keys,
                fast_keys,
                kind,
                cache,
                token: NEXT_REGISTRY_TOKEN.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }

    /// Number of registered identities.
    pub fn len(&self) -> usize {
        self.inner.fast_keys.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.fast_keys.is_empty()
    }

    /// The tag construction in use.
    pub fn kind(&self) -> SchemeKind {
        self.inner.kind
    }

    /// Returns the signing handle for `id`.
    ///
    /// # Panics
    /// Panics if `id` is outside `0..n`; handing out handles for
    /// nonexistent identities would mask configuration bugs.
    pub fn signer(&self, id: ProcessId) -> Signer {
        assert!(
            id.index() < self.len(),
            "signer {id} outside registry of {} identities",
            self.len()
        );
        Signer {
            registry: self.clone(),
            id,
        }
    }

    /// Returns a verifier over this registry.
    pub fn verifier(&self) -> Verifier {
        Verifier {
            registry: self.clone(),
        }
    }

    /// The chain-verification cache shared by every verifier over this
    /// registry.
    pub fn cache(&self) -> &VerifierCache {
        &self.inner.cache
    }

    /// An owned handle to the same cache, for installing it into further
    /// registries via [`with_shared_cache`](Self::with_shared_cache).
    pub fn shared_cache(&self) -> Arc<VerifierCache> {
        Arc::clone(&self.inner.cache)
    }

    /// This registry instance's unique barrier-verification token (see
    /// [`RegistryInner::token`]).
    pub(crate) fn batch_token(&self) -> u64 {
        self.inner.token
    }

    fn tag_for(&self, id: ProcessId, content: &[u8]) -> Tag {
        crate::stats::record_tag_op();
        match self.inner.kind {
            SchemeKind::Hmac => Tag::Hmac(self.inner.hmac_keys[id.index()].tag(content)),
            SchemeKind::Fast => {
                // Keyed FNV-style absorb followed by a splitmix finalizer:
                // fast, and distinct keys give unrelated tag functions.
                let key = self.inner.fast_keys[id.index()];
                let mut acc = key ^ 0xcbf2_9ce4_8422_2325;
                for &b in content {
                    acc ^= b as u64;
                    acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
                }
                let mut s = acc ^ key.rotate_left(17);
                Tag::Fast(splitmix64(&mut s))
            }
        }
    }
}

/// A signing handle bound to a single identity.
///
/// This is the only way to produce valid signatures, and the simulator hands
/// each actor the handle for its own identity only — the mechanical
/// enforcement of the paper's "no one can forge another's signature".
#[derive(Clone, Debug)]
pub struct Signer {
    registry: KeyRegistry,
    id: ProcessId,
}

impl Signer {
    /// The identity this handle signs as.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs `content`, returning a signature verifiable by any
    /// [`Verifier`] over the same registry.
    pub fn sign(&self, content: &[u8]) -> Signature {
        Signature {
            signer: self.id,
            tag: self.registry.tag_for(self.id, content),
        }
    }
}

/// Verifies signatures against a [`KeyRegistry`].
#[derive(Clone, Debug)]
pub struct Verifier {
    registry: KeyRegistry,
}

impl Verifier {
    /// Returns `true` when `sig` is a valid signature of `content` by its
    /// claimed signer.
    pub fn verify(&self, sig: &Signature, content: &[u8]) -> bool {
        self.check(sig, content).is_ok()
    }

    /// Like [`verify`](Self::verify) but reporting why verification failed.
    ///
    /// # Errors
    /// [`CryptoError::UnknownSigner`] for out-of-range identities and
    /// [`CryptoError::BadSignature`] for tag mismatches (including tags of
    /// the wrong scheme kind).
    pub fn check(&self, sig: &Signature, content: &[u8]) -> Result<(), CryptoError> {
        crate::stats::record_sig_verification();
        if sig.signer.index() >= self.registry.len() {
            return Err(CryptoError::UnknownSigner {
                signer: sig.signer,
                registered: self.registry.len(),
            });
        }
        let expected = self.registry.tag_for(sig.signer, content);
        // Compare variants structurally; a Fast tag never matches an Hmac
        // expectation and vice versa.
        let ok = match (&sig.tag, &expected) {
            (Tag::Hmac(a), Tag::Hmac(b)) => crate::hmac::tags_equal(a, b),
            (Tag::Fast(a), Tag::Fast(b)) => a == b,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(CryptoError::BadSignature { signer: sig.signer })
        }
    }

    /// Number of identities the underlying registry holds.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether the underlying registry is empty.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }

    /// The chain-verification cache shared with every verifier over the
    /// same registry.
    pub fn cache(&self) -> &VerifierCache {
        self.registry.cache()
    }

    /// The underlying registry's barrier-verification token.
    pub(crate) fn batch_token(&self) -> u64 {
        self.registry.batch_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registries() -> [KeyRegistry; 2] {
        [
            KeyRegistry::new(5, 42, SchemeKind::Hmac),
            KeyRegistry::new(5, 42, SchemeKind::Fast),
        ]
    }

    #[test]
    fn sign_verify_roundtrip_both_kinds() {
        for reg in registries() {
            let sig = reg.signer(ProcessId(1)).sign(b"content");
            assert!(reg.verifier().verify(&sig, b"content"));
            assert_eq!(sig.signer(), ProcessId(1));
        }
    }

    #[test]
    fn tampered_content_rejected() {
        for reg in registries() {
            let sig = reg.signer(ProcessId(2)).sign(b"content");
            assert!(!reg.verifier().verify(&sig, b"Content"));
            assert_eq!(
                reg.verifier().check(&sig, b"other"),
                Err(CryptoError::BadSignature {
                    signer: ProcessId(2)
                })
            );
        }
    }

    #[test]
    fn forged_signatures_rejected() {
        for reg in registries() {
            let forged = Signature::forged(ProcessId(3), reg.kind());
            assert!(!reg.verifier().verify(&forged, b"anything"));
        }
    }

    #[test]
    fn cross_identity_signatures_do_not_verify() {
        for reg in registries() {
            let sig_by_0 = reg.signer(ProcessId(0)).sign(b"m");
            // An adversary re-labeling the signer must fail: rebuild a
            // signature claiming p1 with p0's tag via encode/decode surgery.
            let mut enc = Encoder::new();
            sig_by_0.encode(&mut enc);
            let buf = enc.finish();
            let mut forged_buf = buf.to_vec();
            forged_buf[3] = 1; // signer id low byte: 0 -> 1
            let forged = Signature::decode(&mut Decoder::new(&forged_buf)).unwrap();
            assert_eq!(forged.signer(), ProcessId(1));
            assert!(!reg.verifier().verify(&forged, b"m"));
        }
    }

    #[test]
    fn unknown_signer_reported() {
        let reg = KeyRegistry::new(3, 1, SchemeKind::Fast);
        let other = KeyRegistry::new(10, 1, SchemeKind::Fast);
        let sig = other.signer(ProcessId(7)).sign(b"m");
        assert_eq!(
            reg.verifier().check(&sig, b"m"),
            Err(CryptoError::UnknownSigner {
                signer: ProcessId(7),
                registered: 3
            })
        );
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = KeyRegistry::new(2, 1, SchemeKind::Hmac);
        let b = KeyRegistry::new(2, 2, SchemeKind::Hmac);
        let sig = a.signer(ProcessId(0)).sign(b"m");
        assert!(!b.verifier().verify(&sig, b"m"));
    }

    #[test]
    fn same_seed_reproducible() {
        let a = KeyRegistry::new(2, 9, SchemeKind::Fast);
        let b = KeyRegistry::new(2, 9, SchemeKind::Fast);
        let sig = a.signer(ProcessId(1)).sign(b"m");
        assert!(b.verifier().verify(&sig, b"m"));
    }

    #[test]
    fn scheme_kind_mismatch_rejected() {
        let hmac = KeyRegistry::new(2, 5, SchemeKind::Hmac);
        let fast = KeyRegistry::new(2, 5, SchemeKind::Fast);
        let sig = fast.signer(ProcessId(0)).sign(b"m");
        assert!(!hmac.verifier().verify(&sig, b"m"));
    }

    #[test]
    fn signature_encode_decode_roundtrip() {
        for reg in registries() {
            let sig = reg.signer(ProcessId(4)).sign(b"payload");
            let mut enc = Encoder::new();
            sig.encode(&mut enc);
            let buf = enc.finish();
            assert_eq!(buf.len(), sig.encoded_len());
            let decoded = Signature::decode(&mut Decoder::new(&buf)).unwrap();
            assert_eq!(decoded, sig);
            assert!(reg.verifier().verify(&decoded, b"payload"));
        }
    }

    #[test]
    fn decode_bad_discriminant() {
        let buf = [0, 0, 0, 1, 9];
        assert_eq!(
            Signature::decode(&mut Decoder::new(&buf)),
            Err(CryptoError::BadDiscriminant { found: 9 })
        );
    }

    #[test]
    #[should_panic(expected = "outside registry")]
    fn signer_out_of_range_panics() {
        let reg = KeyRegistry::new(2, 0, SchemeKind::Fast);
        let _ = reg.signer(ProcessId(2));
    }

    #[test]
    fn cache_tracks_prefixes_and_hit_rate() {
        let cache = VerifierCache::new();
        let d1 = [1u8; 32];
        let d2 = [2u8; 32];
        let d3 = [3u8; 32];
        assert!(cache.is_empty());
        assert_eq!(cache.longest_verified_prefix(&[d1, d2]), None);
        cache.insert_verified(&[d1, d2]);
        assert_eq!(cache.len(), 2);
        // Longest cached prefix wins, even when a shorter one is also cached.
        assert_eq!(cache.longest_verified_prefix(&[d1, d2, d3]), Some(1));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hit_rate(), 0.5);
    }

    #[test]
    fn cache_clears_when_full_instead_of_growing() {
        // The bounded-memory invariant, now per shard: no matter how many
        // distinct digests are inserted, no shard exceeds its cap (so the
        // whole cache never exceeds CACHE_CAP entries).
        let cache = VerifierCache::new();
        let mut digest = [0u8; 32];
        for i in 0..(2 * CACHE_CAP as u64) {
            digest[..8].copy_from_slice(&i.to_be_bytes());
            cache.insert_verified(&[digest]);
            if i % 4096 == 0 {
                assert!(cache.len() <= CACHE_CAP, "after {} inserts", i + 1);
            }
        }
        assert!(cache.len() <= CACHE_CAP);
        assert!(!cache.is_empty());

        // A shard at its cap clears and keeps only the overflowing digest:
        // hammer one shard (constant XOR fold) past SHARD_CAP.
        let cache = VerifierCache::new();
        let mut digest = [0u8; 32];
        for i in 0..(SHARD_CAP as u16) {
            digest[..2].copy_from_slice(&i.to_be_bytes());
            digest[2] = (i & 0xFF) as u8 ^ (i >> 8) as u8; // keep fold 0
            cache.insert_verified(&[digest]);
        }
        assert_eq!(cache.len(), SHARD_CAP);
        let i = SHARD_CAP as u16;
        digest[..2].copy_from_slice(&i.to_be_bytes());
        digest[2] = (i & 0xFF) as u8 ^ (i >> 8) as u8;
        cache.insert_verified(&[digest]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn deferred_inserts_invisible_until_flush() {
        let cache = VerifierCache::new();
        cache.set_deferred(true);
        assert!(cache.is_deferred());
        let d = [9u8; 32];
        cache.insert_verified(&[d]);
        // Buffered, not published: lookups still miss.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.longest_verified_prefix(&[d]), None);
        cache.flush_pending();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.longest_verified_prefix(&[d]), Some(0));
    }

    #[test]
    fn disabling_deferred_mode_flushes() {
        let cache = VerifierCache::new();
        cache.set_deferred(true);
        cache.insert_verified(&[[4u8; 32]]);
        assert_eq!(cache.len(), 0);
        cache.set_deferred(false);
        assert!(!cache.is_deferred());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn deferred_flush_applies_cap_as_one_batch() {
        // Fill one shard (constant XOR fold of 0) to its cap…
        let fold0 = |i: u16| {
            let mut d = [0u8; 32];
            d[..2].copy_from_slice(&i.to_be_bytes());
            d[2] = (i & 0xFF) as u8 ^ (i >> 8) as u8;
            d
        };
        let cache = VerifierCache::new();
        for i in 0..(SHARD_CAP as u16) {
            cache.insert_verified(&[fold0(i)]);
        }
        assert_eq!(cache.len(), SHARD_CAP);
        cache.set_deferred(true);
        // …then buffer two more for the same shard; combined they overflow
        // its cap, so the flush clears the shard once and then applies the
        // whole batch.
        cache.insert_verified(&[fold0(SHARD_CAP as u16)]);
        cache.insert_verified(&[fold0(SHARD_CAP as u16 + 1)]);
        cache.flush_pending();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharding_never_changes_lookup_outcomes() {
        // Digests land in content-determined shards; lookups agree with a
        // reference (unsharded) set over many mixed inserts.
        let cache = VerifierCache::new();
        let mut reference = HashSet::new();
        let digest = |i: u64| {
            let mut d = [0u8; 32];
            d[..8].copy_from_slice(&i.to_be_bytes());
            d[8..16].copy_from_slice(&i.wrapping_mul(0x9E37_79B9).to_be_bytes());
            d
        };
        for i in 0..512u64 {
            if i % 3 != 0 {
                cache.insert_verified(&[digest(i)]);
                reference.insert(digest(i));
            }
        }
        for i in 0..512u64 {
            let found = cache.longest_verified_prefix(&[digest(i)]).is_some();
            assert_eq!(found, reference.contains(&digest(i)), "digest {i}");
        }
    }

    #[test]
    fn cap_clears_count_as_evictions() {
        let cache = VerifierCache::with_shard_cap(4);
        assert_eq!(cache.shard_cap(), 4);
        // Hammer one shard (constant XOR fold of 0) well past its cap.
        let fold0 = |i: u16| {
            let mut d = [0u8; 32];
            d[..2].copy_from_slice(&i.to_be_bytes());
            d[2] = (i & 0xFF) as u8 ^ (i >> 8) as u8;
            d
        };
        for i in 0..9 {
            cache.insert_verified(&[fold0(i)]);
        }
        // Inserts 5 and 9 each found the shard full: two clears of 4.
        assert_eq!(cache.evictions(), 8);
        assert_eq!(cache.len(), 1);

        // The deferred flush path counts its clear too.
        cache.set_deferred(true);
        for i in 9..13 {
            cache.insert_verified(&[fold0(i)]);
        }
        cache.flush_pending();
        assert_eq!(cache.evictions(), 9);
    }

    #[test]
    fn cap_clear_retains_digests_touched_this_flush() {
        // Regression: a shard at its cap used to clear *everything*,
        // including a digest a lookup had reused moments earlier in the
        // same flush window — the next verification depending on that
        // prefix then redundantly re-verified the whole chain. A reused
        // digest is now pinned until the next flush boundary.
        let cache = VerifierCache::with_shard_cap(2);
        let fold0 = |i: u16| {
            let mut d = [0u8; 32];
            d[..2].copy_from_slice(&i.to_be_bytes());
            d[2] = (i & 0xFF) as u8 ^ (i >> 8) as u8; // keep fold 0
            d
        };
        let hot = fold0(0);
        cache.insert_verified(&[hot]);
        // A lookup reuses `hot`, pinning it for this flush window.
        assert_eq!(cache.longest_verified_prefix(&[hot]), Some(0));
        // Cap pressure in the same window: the shard overflows and
        // clears — but must keep the pinned digest.
        cache.insert_verified(&[fold0(1)]);
        cache.insert_verified(&[fold0(2)]);
        assert!(cache.evictions() > 0);
        assert_eq!(
            cache.longest_verified_prefix(&[hot]),
            Some(0),
            "cap-clear evicted a digest reused this flush"
        );
        // The pin expires at the flush boundary, so the cap still bounds
        // memory: after a flush an untouched `hot` is evictable again.
        cache.flush_pending();
        cache.insert_verified(&[fold0(3)]);
        assert_eq!(cache.longest_verified_prefix(&[hot]), None);
    }

    #[test]
    fn shard_cap_reconfigurable_mid_run() {
        let cache = VerifierCache::new();
        assert_eq!(cache.shard_cap(), SHARD_CAP);
        cache.set_shard_cap(0); // clamped
        assert_eq!(cache.shard_cap(), 1);
        let fold0 = |i: u16| {
            let mut d = [0u8; 32];
            d[..2].copy_from_slice(&i.to_be_bytes());
            d[2] = (i & 0xFF) as u8 ^ (i >> 8) as u8;
            d
        };
        cache.insert_verified(&[fold0(0)]);
        cache.insert_verified(&[fold0(1)]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn shared_cache_spans_same_seed_registries() {
        let a = KeyRegistry::new(3, 11, SchemeKind::Fast);
        let b = KeyRegistry::with_shared_cache(3, 11, SchemeKind::Fast, a.shared_cache());
        a.cache().insert_verified(&[[5u8; 32]]);
        assert_eq!(b.cache().len(), 1);
        // Distinct registries still get distinct batch tokens, so chain
        // stamps cannot cross even with a shared cache.
        assert_ne!(a.batch_token(), b.batch_token());
    }

    #[test]
    fn cache_is_shared_across_verifier_clones() {
        let reg = KeyRegistry::new(2, 0, SchemeKind::Fast);
        let v1 = reg.verifier();
        let v2 = reg.verifier();
        v1.cache().insert_verified(&[[7u8; 32]]);
        assert_eq!(v2.cache().len(), 1);
        assert_eq!(reg.cache().len(), 1);
    }

    mod props {
        use super::*;
        use crate::stats::CryptoStats;
        use crate::testkit::run_cases;

        #[test]
        fn prop_sign_verify() {
            run_cases(48, 0x21, |gen| {
                let seed = gen.u64();
                let id = gen.u32_in(0, 8);
                let msg = gen.vec_u8(0, 128);
                for kind in [SchemeKind::Hmac, SchemeKind::Fast] {
                    let reg = KeyRegistry::new(8, seed, kind);
                    let sig = reg.signer(ProcessId(id)).sign(&msg);
                    assert!(reg.verifier().verify(&sig, &msg));
                }
            });
        }

        #[test]
        fn prop_hmac_tags_equal_the_free_function() {
            // The registry tags from per-key midstates; the tag must be
            // HMAC-SHA-256 of the content under the identity's key, at the
            // unchanged cost of one tag op and two digests.
            run_cases(48, 0x24, |gen| {
                let seed = gen.u64();
                let reg = KeyRegistry::new(8, seed, SchemeKind::Hmac);
                let id = ProcessId(gen.u32_in(0, 8));
                let msg = gen.vec_u8(0, 300);
                let before = CryptoStats::snapshot();
                let tag = reg.tag_for(id, &msg);
                let work = CryptoStats::snapshot().since(&before);
                assert_eq!((work.tag_ops, work.hash_invocations), (1, 2));
                let key = hmac_secret(seed, id.index());
                assert_eq!(tag, Tag::Hmac(crate::hmac::hmac_sha256(&key, &msg)));
            });
        }

        #[test]
        fn prop_wrong_message_rejected() {
            run_cases(48, 0x22, |gen| {
                let seed = gen.u64();
                let msg = gen.vec_u8(1, 64);
                let flip = gen.usize();
                for kind in [SchemeKind::Hmac, SchemeKind::Fast] {
                    let reg = KeyRegistry::new(4, seed, kind);
                    let sig = reg.signer(ProcessId(0)).sign(&msg);
                    let mut tampered = msg.clone();
                    tampered[flip % msg.len()] ^= 1;
                    assert!(!reg.verifier().verify(&sig, &tampered));
                }
            });
        }

        #[test]
        fn prop_decode_garbage_never_panics() {
            run_cases(48, 0x23, |gen| {
                let data = gen.vec_u8(0, 48);
                let _ = Signature::decode(&mut Decoder::new(&data));
            });
        }
    }
}
