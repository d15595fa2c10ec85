//! Signature chains: a value plus an ordered list of signatures, each
//! covering the value and all preceding signatures.
//!
//! Chains are the information currency of the paper's authenticated
//! algorithms: a "correct 1-message" in Algorithm 1 is a chain whose signers
//! form a simple path from the transmitter; an "increasing message" in
//! Algorithm 2 is a chain with ascending signer labels; a "valid message" in
//! Algorithm 5 is a chain with at least `t + 1` active-processor signatures.
//!
//! Because every signature covers the whole prefix, an adversary can only
//! *truncate* a chain it has observed or *extend* it with signatures of
//! colluding faulty processors — it can never splice a correct processor's
//! signature onto different content. The unit tests exercise exactly those
//! attacks.
//!
//! # Rolling prefix digests
//!
//! Signature `i` does not cover the re-encoded prefix bytes directly (that
//! would make verifying a length-`L` chain O(L²) hashing). Instead each
//! signature covers a constant-size *prefix digest*:
//!
//! ```text
//! d_0     = H("ba-chain" || domain || value)
//! d_{i+1} = H(d_i || encode(sig_i))
//! sig_i covers d_i
//! ```
//!
//! Collision resistance of `H` makes `d_i` bind the domain, the value and
//! every signature before position `i`, so the unforgeability argument is
//! unchanged while full verification costs exactly `L` hash invocations
//! (`d_0 ..= d_{L−1}`: the digests a signature covers) plus `L`
//! constant-content signature checks — O(L) total. Both preimages are
//! written on the stack, and all but an `Hmac` link's are one padded
//! SHA-256 block. The chain keeps the running `d_L` ("tip") so appending a
//! signature is O(1); verification always recomputes the digests from the
//! fields and never reads the tip, so a tampered chain can never ride a
//! stale one.
//!
//! # Shared signature storage
//!
//! The signature buffer lives behind an [`Arc`]: `Chain::clone` is O(1)
//! (a refcount bump), so broadcasting a length-`L` chain to `n − 1`
//! recipients costs one allocation instead of `n − 1` signature-vector
//! copies. [`sign_and_append`](Chain::sign_and_append) is copy-on-write —
//! it copies the buffer exactly once when clones still share it — which
//! moves the relay pattern's per-hop cost from `O(n·L)` copied signatures
//! to `O(L)`. Sharing is an ownership optimization only: chains remain
//! value types (cloning then mutating never aliases), enforced by the
//! copy-on-write tests.
//!
//! # What a verification costs
//!
//! [`verify`](Chain::verify) is one of two things. If the phase barrier
//! already verified this exact signature buffer under the asking
//! verifier's registry (see [`Chain::verify_at_barrier`]), it is an O(1)
//! stamp comparison. Otherwise it is a full check, rolling the prefix
//! digest forward signature by signature: `L` hashes and `L` signature
//! checks, stopping at the first bad signature. Nothing else is remembered
//! between calls; within one barrier pass, chains of one domain and value
//! share the `d_0` the pass computed ([`Barrier`]).
//! [`Chain::verify_uncached`] is the full check alone, and
//! [`Chain::verify_reference`] is a deliberately naive O(L²)
//! implementation retained as the oracle for the equivalence property
//! tests.

use crate::error::CryptoError;
use crate::keys::{Signature, Signer, Verifier};
use crate::sha256::{Sha256, DIGEST_LEN};
use crate::stamp::{Barrier, BarrierSeen, Stamp};
use crate::stats::CryptoStats;
use crate::wire::{Decoder, Encoder};
use crate::{ProcessId, Value};
use std::fmt;
use std::sync::Arc;

/// The shared signature buffer plus its barrier-verification stamp.
///
/// The stamp implements *barrier verification*, the way every phase driver
/// verifies what it delivers (see [`crate::stamp`]): a [`Barrier`] pass
/// verifies each unique delivered chain once and, on success, stamps the
/// buffer for the verifying registry, the chain's domain and its value.
/// Every clone sharing the buffer (a broadcast fan-out) then short-circuits
/// [`Chain::verify`] to an O(1) stamp comparison. The stamp can never
/// validate the wrong content: it is compared against a word recomputed
/// from the *asking* chain's domain/value and the *asking* verifier's
/// registry token, and any mutation of the buffer (append, copy-on-write,
/// test surgery) resets it to the never-valid `0`.
#[derive(Clone)]
struct SigBuf {
    sigs: Vec<Signature>,
    /// Stamped for the registry that verified this exact buffer under the
    /// owning chain's domain/value ([`Chain::stamp_key`]). Cloning the
    /// buffer (the copy-on-write path, *not* `Chain::clone`, which only
    /// bumps the [`Arc`]) starts unstamped: the clone exists to be mutated.
    stamp: Stamp,
}

impl SigBuf {
    fn new(sigs: Vec<Signature>) -> Self {
        SigBuf {
            sigs,
            stamp: Stamp::new(),
        }
    }
}

/// The stamp is process-local verification state, not content: printing it
/// would make a trace dump depend on which driver delivered the chain.
impl fmt::Debug for SigBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SigBuf")
            .field("sigs", &self.sigs)
            .finish_non_exhaustive()
    }
}

/// A signed chain: `domain`-tagged value plus ordered signatures.
///
/// The `domain` separates the message spaces of different protocols (and
/// protocol roles) so a signature produced inside one algorithm cannot be
/// replayed into another.
///
/// ```
/// use ba_crypto::keys::{KeyRegistry, SchemeKind};
/// use ba_crypto::{Chain, ProcessId, Value};
///
/// let reg = KeyRegistry::new(3, 1, SchemeKind::Hmac);
/// let mut chain = Chain::new(7, Value::ONE);
/// chain.sign_and_append(&reg.signer(ProcessId(0)));
/// chain.sign_and_append(&reg.signer(ProcessId(2)));
/// chain.verify(&reg.verifier())?;
/// assert_eq!(chain.len(), 2);
/// assert!(chain.contains_signer(ProcessId(2)));
/// # Ok::<(), ba_crypto::CryptoError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Chain {
    domain: u32,
    value: Value,
    /// Shared signature buffer. `Chain::clone` bumps a refcount instead of
    /// copying `L` signatures, so a broadcast of a length-`L` chain to
    /// `n − 1` peers costs one allocation total rather than `n − 1`
    /// signature-vector copies. [`sign_and_append`](Self::sign_and_append)
    /// is copy-on-write: it copies the buffer only when another chain still
    /// shares it (the relay pattern — receive, clone, extend — pays exactly
    /// one copy at the extension point, where the seed engine paid one copy
    /// per recipient at the broadcast point). The buffer also carries the
    /// barrier-verification stamp (see [`SigBuf`]).
    sigs: Arc<SigBuf>,
    /// Rolling digest over everything above (`d_L`); makes
    /// [`sign_and_append`](Self::sign_and_append) O(1). Never trusted by
    /// verification, which recomputes digests from the other fields.
    tip: [u8; DIGEST_LEN],
}

/// Equality ignores the cached tip: it is derived state, and test code
/// deliberately constructs field-tampered chains whose tip is stale.
impl PartialEq for Chain {
    fn eq(&self, other: &Self) -> bool {
        self.domain == other.domain
            && self.value == other.value
            // Chains cloned from one another share the buffer; compare the
            // pointer first so the common broadcast case is O(1).
            && (Arc::ptr_eq(&self.sigs, &other.sigs) || self.sigs.sigs == other.sigs.sigs)
    }
}

impl Eq for Chain {}

/// `d_0 = H("ba-chain" || domain || value)`: binds the protocol domain and
/// the carried value. The 20-byte preimage is one padded block.
pub(crate) fn seed_digest(domain: u32, value: Value) -> [u8; DIGEST_LEN] {
    let mut pre = [0u8; 8 + 4 + 8];
    pre[..8].copy_from_slice(b"ba-chain");
    pre[8..12].copy_from_slice(&domain.to_be_bytes());
    pre[12..].copy_from_slice(&value.0.to_be_bytes());
    Sha256::digest(&pre)
}

/// `d_{i+1} = H(d_i || encode(sig_i))`, the preimage written on the stack:
/// 37 or 45 bytes (one padded block) for an `Oral` or `Fast` signature, 69
/// for an `Hmac` one.
fn extend_digest(prev: &[u8; DIGEST_LEN], sig: &Signature) -> [u8; DIGEST_LEN] {
    let mut pre = [0u8; DIGEST_LEN + Signature::MAX_ENCODED_LEN];
    pre[..DIGEST_LEN].copy_from_slice(prev);
    let len = DIGEST_LEN + sig.encode_to(&mut pre[DIGEST_LEN..]);
    Sha256::digest(&pre[..len])
}

impl Chain {
    /// Creates an unsigned chain carrying `value` in protocol `domain`.
    pub fn new(domain: u32, value: Value) -> Self {
        Chain {
            domain,
            value,
            sigs: Arc::new(SigBuf::new(Vec::new())),
            tip: seed_digest(domain, value),
        }
    }

    /// The protocol domain tag.
    pub fn domain(&self) -> u32 {
        self.domain
    }

    /// The carried value.
    pub fn value(&self) -> Value {
        self.value
    }

    /// Number of signatures on the chain.
    pub fn len(&self) -> usize {
        self.sigs.sigs.len()
    }

    /// Whether the chain carries no signatures yet.
    pub fn is_empty(&self) -> bool {
        self.sigs.sigs.is_empty()
    }

    /// The signatures, oldest first.
    pub fn signatures(&self) -> &[Signature] {
        &self.sigs.sigs
    }

    /// Iterator over signer identities, oldest first.
    pub fn signers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.sigs.sigs.iter().map(|s| s.signer())
    }

    /// The most recent signer, if any.
    pub fn last_signer(&self) -> Option<ProcessId> {
        self.sigs.sigs.last().map(|s| s.signer())
    }

    /// The first signer (the chain's originator), if any.
    pub fn first_signer(&self) -> Option<ProcessId> {
        self.sigs.sigs.first().map(|s| s.signer())
    }

    /// An address identifying this chain's shared signature buffer —
    /// chains cloned from one another (a broadcast fan-out) report the
    /// same id. [`verify_at_barrier`](Self::verify_at_barrier) uses it to
    /// verify each unique buffer once per phase. Only meaningful while
    /// the chains are alive (it is the buffer's heap address).
    pub fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.sigs) as usize
    }

    /// Whether `id` has signed this chain.
    pub fn contains_signer(&self, id: ProcessId) -> bool {
        self.signers().any(|s| s == id)
    }

    /// Signs the current chain state with `signer` and appends the
    /// signature. O(1) thanks to the rolling tip digest — except when the
    /// signature buffer is still shared with a clone (copy-on-write: the
    /// buffer is copied once, then this chain owns it exclusively).
    /// Returns `&mut self` for chaining.
    pub fn sign_and_append(&mut self, signer: &Signer) -> &mut Self {
        let sig = signer.sign(&self.tip);
        self.tip = extend_digest(&self.tip, &sig);
        let buf = Arc::make_mut(&mut self.sigs);
        // The buffer's content changes: any barrier-verification stamp no
        // longer describes it. (The copy-on-write clone already starts
        // unstamped; this covers the sole-owner fast path.)
        buf.stamp.reset();
        buf.sigs.push(sig);
        self
    }

    /// Whether this chain's signature buffer is shared with another chain
    /// (diagnostics and tests; a shared buffer is what makes
    /// [`Clone`] O(1)).
    pub fn shares_storage_with(&self, other: &Chain) -> bool {
        Arc::ptr_eq(&self.sigs, &other.sigs)
    }

    /// Verifies every signature against its prefix digest: an O(1)
    /// barrier-stamp hit when the phase barrier already verified this
    /// buffer under `verifier`'s registry for this domain and value (see
    /// [`verify_at_barrier`](Self::verify_at_barrier)), a full
    /// [`verify_uncached`](Self::verify_uncached) otherwise. The stamp
    /// changes cost only, never outcome: only a buffer that passed the full
    /// check carries one, and any mutation resets it.
    ///
    /// # Errors
    /// [`CryptoError::EmptyChain`] when no signatures are present, or the
    /// first failing signature's error.
    pub fn verify(&self, verifier: &Verifier) -> Result<(), CryptoError> {
        if self.stamp_hit(verifier) {
            return Ok(());
        }
        self.verify_uncached(verifier)
    }

    /// Whether the barrier stamped this buffer under `verifier`'s registry
    /// for this domain and value; a hit is counted.
    pub(crate) fn stamp_hit(&self, verifier: &Verifier) -> bool {
        let hit = !self.is_empty()
            && self
                .sigs
                .stamp
                .holds(verifier.batch_token(), self.stamp_key());
        if hit {
            crate::stats::record_cache_hit();
        }
        hit
    }

    /// The full check, ignoring any stamp: rolls the prefix digest forward
    /// from `d_0`, checking each signature against the digest of what
    /// precedes it — `L` hashes (`d_0 ..= d_{L−1}`, the digests a
    /// signature covers) and `L` signature checks on a valid chain, fewer
    /// when a signature fails.
    ///
    /// # Errors
    /// As [`verify`](Self::verify).
    pub fn verify_uncached(&self, verifier: &Verifier) -> Result<(), CryptoError> {
        self.verify_from(verifier, || seed_digest(self.domain, self.value))
    }

    /// The full check from the `d_0` that `seed` returns, which must be
    /// this chain's `seed_digest` — a [`Barrier`] pass hands every chain of
    /// one domain and value the `d_0` it already computed. `d_L` covers
    /// nothing, so it is never computed.
    pub(crate) fn verify_from(
        &self,
        verifier: &Verifier,
        seed: impl FnOnce() -> [u8; DIGEST_LEN],
    ) -> Result<(), CryptoError> {
        let Some((last, before)) = self.sigs.sigs.split_last() else {
            return Err(CryptoError::EmptyChain);
        };
        crate::stats::record_cache_miss();
        let mut d = seed();
        for sig in before {
            verifier.check(sig, &d)?;
            d = extend_digest(&d, sig);
        }
        verifier.check(last, &d)
    }

    /// Barrier verification of `chains` alone: one [`Barrier`] pass that
    /// meets each of them through [`Barrier::chain`] — each *unique* chain
    /// (by shared signature buffer, domain and value, so a broadcast
    /// fan-out is one entry) is [`verify`](Self::verify)-ed once and, on
    /// success, its buffer is stamped, so every recipient's own `verify`
    /// of a clone sharing that buffer is an O(1) stamp comparison. A chain
    /// that fails stays unstamped, so each recipient's `verify` still
    /// rejects it in full; unsigned chains are skipped.
    ///
    /// `seen` is a set the caller recycles across barriers. Returns the
    /// calling thread's [`CryptoStats`] delta for the pass.
    pub fn verify_at_barrier<'a>(
        chains: impl IntoIterator<Item = &'a Chain>,
        verifier: &Verifier,
        seen: &mut BarrierSeen,
    ) -> CryptoStats {
        let mut barrier = Barrier::new(verifier, seen);
        for chain in chains {
            barrier.chain(chain);
        }
        barrier.finish()
    }

    /// The stamp on this chain's shared signature buffer — written by a
    /// [`Barrier`] alone, after a successful [`verify`](Self::verify).
    pub(crate) fn stamp(&self) -> &Stamp {
        &self.sigs.stamp
    }

    /// The content a buffer stamp stands for besides the buffer itself:
    /// this chain's domain and value.
    pub(crate) fn stamp_key(&self) -> u64 {
        (u64::from(self.domain) << 32) ^ self.value.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// A deliberately naive O(L²) verification retained as the oracle for
    /// the equivalence property tests: each signature's prefix digest is
    /// re-derived from scratch instead of rolled forward, and no stamp is
    /// consulted.
    ///
    /// # Errors
    /// As [`verify`](Self::verify).
    pub fn verify_reference(&self, verifier: &Verifier) -> Result<(), CryptoError> {
        if self.sigs.sigs.is_empty() {
            return Err(CryptoError::EmptyChain);
        }
        for i in 0..self.sigs.sigs.len() {
            let mut d = seed_digest(self.domain, self.value);
            for sig in &self.sigs.sigs[..i] {
                d = extend_digest(&d, sig);
            }
            verifier.check(&self.sigs.sigs[i], &d)?;
        }
        Ok(())
    }

    /// Verifies the chain *and* that the signers are pairwise distinct
    /// (a simple path, as Algorithm 1's "correct 1-message" requires).
    ///
    /// # Errors
    /// As [`verify`](Self::verify), plus [`CryptoError::DuplicateSigner`].
    pub fn verify_simple_path(&self, verifier: &Verifier) -> Result<(), CryptoError> {
        self.verify(verifier)?;
        for (i, a) in self.sigs.sigs.iter().enumerate() {
            for b in &self.sigs.sigs[..i] {
                if a.signer() == b.signer() {
                    return Err(CryptoError::DuplicateSigner { signer: a.signer() });
                }
            }
        }
        Ok(())
    }

    /// Returns a copy truncated to the first `len` signatures — the only
    /// chain mutation (besides extension) available to an adversary.
    /// A no-op truncation (`len >= self.len()`) shares storage with `self`.
    pub fn truncated(&self, len: usize) -> Chain {
        if len >= self.sigs.sigs.len() {
            return self.clone();
        }
        let sigs = self.sigs.sigs[..len].to_vec();
        let mut tip = seed_digest(self.domain, self.value);
        for sig in &sigs {
            tip = extend_digest(&tip, sig);
        }
        Chain {
            domain: self.domain,
            value: self.value,
            sigs: Arc::new(SigBuf::new(sigs)),
            tip,
        }
    }

    /// Appends the canonical encoding of the whole chain to `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.u32(self.domain)
            .value(self.value)
            .u32(self.sigs.sigs.len() as u32);
        for sig in self.sigs.sigs.iter() {
            sig.encode(enc);
        }
    }

    /// Decodes a chain, rebuilding the rolling tip digest.
    ///
    /// # Errors
    /// Wire errors from malformed input; the decoded chain still needs
    /// [`verify`](Self::verify).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, CryptoError> {
        let domain = dec.u32()?;
        let value = dec.value()?;
        let count = dec.u32()? as usize;
        // Cap pre-allocation: adversarial counts must not trigger OOM.
        let mut sigs = Vec::with_capacity(count.min(1024));
        let mut tip = seed_digest(domain, value);
        for _ in 0..count {
            let sig = Signature::decode(dec)?;
            tip = extend_digest(&tip, &sig);
            sigs.push(sig);
        }
        Ok(Chain {
            domain,
            value,
            sigs: Arc::new(SigBuf::new(sigs)),
            tip,
        })
    }
}

impl fmt::Display for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chain[{} {}", self.domain, self.value)?;
        for s in self.signers() {
            write!(f, " {s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyRegistry, SchemeKind};
    use crate::stats::CryptoStats;

    fn reg() -> KeyRegistry {
        KeyRegistry::new(6, 99, SchemeKind::Hmac)
    }

    /// Direct access to the signature buffer for building tampered chains
    /// (an adversary re-assembling observed signatures; real code only ever
    /// goes through [`Chain::sign_and_append`] / [`Chain::truncated`]).
    fn sigs_mut(c: &mut Chain) -> &mut Vec<Signature> {
        let buf = Arc::make_mut(&mut c.sigs);
        // Buffer surgery invalidates any batched-verification stamp, just
        // as sign_and_append does.
        buf.stamp.reset();
        &mut buf.sigs
    }

    fn signed_chain(reg: &KeyRegistry, ids: &[u32]) -> Chain {
        let mut c = Chain::new(1, Value::ONE);
        for &id in ids {
            c.sign_and_append(&reg.signer(ProcessId(id)));
        }
        c
    }

    #[test]
    fn build_and_verify() {
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1, 2]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.first_signer(), Some(ProcessId(0)));
        assert_eq!(c.last_signer(), Some(ProcessId(2)));
        c.verify(&reg.verifier()).unwrap();
        c.verify_simple_path(&reg.verifier()).unwrap();
    }

    #[test]
    fn prefix_digest_preimages_are_the_documented_encoding() {
        // d_0 = H("ba-chain" || domain || value) and
        // d_{i+1} = H(d_i || encode(sig_i)), byte for byte: the stack
        // preimages and the encoder spell the same bytes.
        for kind in [SchemeKind::Hmac, SchemeKind::Fast, SchemeKind::Oral] {
            let reg = KeyRegistry::new(6, 99, kind);
            let c = signed_chain(&reg, &[0, 4, 2]);
            let mut enc = Encoder::new();
            enc.raw(b"ba-chain").u32(c.domain).value(c.value);
            let mut expected = vec![Sha256::digest(enc.as_slice())];
            for sig in c.signatures() {
                let mut enc = Encoder::new();
                enc.raw(expected.last().expect("seeded"));
                sig.encode(&mut enc);
                expected.push(Sha256::digest(enc.as_slice()));
            }
            // Signature i covers d_i, and the tip is d_L.
            let v = reg.verifier();
            for (sig, d) in c.signatures().iter().zip(&expected) {
                v.check(sig, d).unwrap();
            }
            assert_eq!(Some(&c.tip), expected.last());
        }
    }

    #[test]
    fn prefix_digests_of_fixed_inputs_are_pinned() {
        // d_0 and d_{i+1} for fixed domains, values, prefixes and
        // signatures of each tag kind (decoded from fixed bytes, so no tag
        // function is involved): the stack preimages hash the bytes the
        // field-by-field hashers did.
        let hex =
            |d: [u8; DIGEST_LEN]| -> String { d.iter().map(|b| format!("{b:02x}")).collect() };
        let seeds = [
            (
                (0, 0),
                "513cf1822d793d677dc75e7481ecc00bade99230cc65d008b9de8844de504f05",
            ),
            (
                (1, 1),
                "acfe5d83dde19d82cf4baff809e569cf83f7407685c8eb6acf4a7c4d9b33f67a",
            ),
            (
                (7, 0x0123_4567_89ab_cdef),
                "acd587e9915b4c077a6af180b0bc641686f01da7dbe6bf404936846cd76d5b44",
            ),
            (
                (u32::MAX, u64::MAX),
                "8a8f78098c49ad663611cb3b1639d8ab34509ce2b31b0efc092c746bdfc35918",
            ),
        ];
        for ((domain, value), expected) in seeds {
            assert_eq!(
                hex(seed_digest(domain, Value(value))),
                expected,
                "d_0({domain}, {value})"
            );
        }
        let prev: [u8; DIGEST_LEN] =
            std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(5));
        let mut hmac = vec![0, 0, 0, 3, 0];
        hmac.extend((0..32u8).map(|i| i ^ 0xA5));
        let fast = vec![
            0, 0, 1, 2, 1, 0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10,
        ];
        let oral = vec![0, 0, 0, 9, 2];
        let extended = [
            (
                hmac,
                "a3659e35e9ba0a9e40bc515ad77a7c68c272938b89d8f52ff07cb93f2c1cff37",
                "e5aa2ccf0fb61f81803b89ba6857612118e47893d27906f53a19b9b295e29d7e",
            ),
            (
                fast,
                "15aa95876379fbc66d4ad6d551ae8343839ba8a4cea6743d1fac8d0dbc9eb169",
                "75293911fbf1de370939bfad8be91b2e66758b07fa14853d40962f0a4168149c",
            ),
            (
                oral,
                "ad636f2e4986fd365cffc96d9750ae90c7848033ce37f8bb39210a7fa5b9ea9d",
                "fceb2a47de5e66ad052578160815464181761133d24b700b98ea831ef9c60596",
            ),
        ];
        for (bytes, from_prev, from_seed) in extended {
            let sig = Signature::decode(&mut Decoder::new(&bytes)).unwrap();
            assert_eq!(hex(extend_digest(&prev, &sig)), from_prev, "{bytes:?}");
            let d0 = seed_digest(3, Value::ONE);
            assert_eq!(hex(extend_digest(&d0, &sig)), from_seed, "{bytes:?}");
        }
    }

    #[test]
    fn empty_chain_rejected() {
        let reg = reg();
        let c = Chain::new(1, Value::ZERO);
        assert!(c.is_empty());
        assert_eq!(c.verify(&reg.verifier()), Err(CryptoError::EmptyChain));
        assert_eq!(
            c.verify_reference(&reg.verifier()),
            Err(CryptoError::EmptyChain)
        );
    }

    #[test]
    fn value_tamper_detected() {
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1]);
        let mut tampered = c.clone();
        tampered.value = Value(9);
        assert!(tampered.verify(&reg.verifier()).is_err());
    }

    #[test]
    fn domain_tamper_detected() {
        let reg = reg();
        let c = signed_chain(&reg, &[0]);
        let mut tampered = c;
        tampered.domain = 2;
        assert!(tampered.verify(&reg.verifier()).is_err());
    }

    #[test]
    fn reorder_attack_detected() {
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1, 2]);
        let mut tampered = c.clone();
        sigs_mut(&mut tampered).swap(1, 2);
        assert!(tampered.verify(&reg.verifier()).is_err());
    }

    #[test]
    fn splice_attack_detected() {
        // Take p1's signature from a chain on value ONE and splice it onto a
        // chain carrying value ZERO: must fail.
        let reg = reg();
        let good = signed_chain(&reg, &[0, 1]);
        let mut fake = Chain::new(1, Value::ZERO);
        fake.sign_and_append(&reg.signer(ProcessId(0)));
        let spliced = good.sigs.sigs[1].clone();
        sigs_mut(&mut fake).push(spliced);
        assert!(fake.verify(&reg.verifier()).is_err());
    }

    #[test]
    fn truncation_keeps_validity_of_prefix() {
        // Truncation is the one manipulation an adversary CAN do; the
        // truncated prefix remains a valid chain, as in the real scheme.
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1, 2, 3]);
        let t = c.truncated(2);
        assert_eq!(t.len(), 2);
        t.verify(&reg.verifier()).unwrap();
        let over = c.truncated(10);
        assert_eq!(over.len(), 4);
    }

    #[test]
    fn truncated_chain_can_be_extended() {
        // The rebuilt tip must let signing continue from the cut point.
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1, 2]);
        let mut t = c.truncated(1);
        t.sign_and_append(&reg.signer(ProcessId(3)));
        t.verify(&reg.verifier()).unwrap();
    }

    #[test]
    fn duplicate_signer_rejected_for_simple_path() {
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1, 0]);
        // Plain verification passes (the chain is honestly signed)...
        c.verify(&reg.verifier()).unwrap();
        // ...but the simple-path requirement fails.
        assert_eq!(
            c.verify_simple_path(&reg.verifier()),
            Err(CryptoError::DuplicateSigner {
                signer: ProcessId(0)
            })
        );
    }

    #[test]
    fn extension_by_faulty_processor_is_fine_but_forgery_is_not() {
        let reg = reg();
        // Faulty p5 extends a correct chain: allowed (it has its own key).
        let mut c = signed_chain(&reg, &[0, 1]);
        c.sign_and_append(&reg.signer(ProcessId(5)));
        c.verify(&reg.verifier()).unwrap();

        // Faulty p5 forges p2's signature: rejected.
        let mut f = signed_chain(&reg, &[0, 1]);
        sigs_mut(&mut f).push(Signature::forged(ProcessId(2), SchemeKind::Hmac));
        assert!(f.verify(&reg.verifier()).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let reg = reg();
        let c = signed_chain(&reg, &[3, 4, 5]);
        let mut enc = Encoder::new();
        c.encode(&mut enc);
        let buf = enc.finish();
        let d = Chain::decode(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(d, c);
        d.verify(&reg.verifier()).unwrap();
        // The decoded chain's rebuilt tip supports further signing.
        let mut d = d;
        d.sign_and_append(&reg.signer(ProcessId(0)));
        d.verify(&reg.verifier()).unwrap();
    }

    #[test]
    fn decode_truncated_errors() {
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1]);
        let mut enc = Encoder::new();
        c.encode(&mut enc);
        let buf = enc.finish();
        for cut in [0, 3, 12, buf.len() - 1] {
            assert!(
                Chain::decode(&mut Decoder::new(&buf[..cut])).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn display_lists_signers() {
        let reg = reg();
        let c = signed_chain(&reg, &[0, 2]);
        assert_eq!(c.to_string(), "chain[1 v1 p0 p2]");
    }

    #[test]
    fn clone_shares_signature_storage() {
        // The zero-copy fan-out contract: cloning is a refcount bump, so a
        // broadcast of one chain to n − 1 peers performs no signature
        // copies at all.
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1, 2]);
        let copies: Vec<Chain> = (0..8).map(|_| c.clone()).collect();
        for copy in &copies {
            assert!(copy.shares_storage_with(&c));
            assert_eq!(copy, &c);
        }
        c.verify(&reg.verifier()).unwrap();
    }

    #[test]
    fn append_after_clone_is_copy_on_write() {
        // The relay pattern: receive a chain, clone it, extend the clone.
        // The extension must not disturb the original (or any other clone),
        // and the extended chain stops sharing storage.
        let reg = reg();
        let original = signed_chain(&reg, &[0, 1]);
        let mut relay = original.clone();
        relay.sign_and_append(&reg.signer(ProcessId(2)));
        assert!(!relay.shares_storage_with(&original));
        assert_eq!(original.len(), 2, "original untouched by the COW append");
        assert_eq!(relay.len(), 3);
        original.verify(&reg.verifier()).unwrap();
        relay.verify(&reg.verifier()).unwrap();

        // Unshared append keeps the O(1) push path (no reallocation of a
        // fresh buffer per signature): the buffer pointer is stable while
        // capacity suffices.
        let mut solo = signed_chain(&reg, &[0]);
        let before = solo.clone();
        solo.sign_and_append(&reg.signer(ProcessId(1)));
        assert!(!solo.shares_storage_with(&before));
        assert_eq!(before.len(), 1);
    }

    #[test]
    fn noop_truncation_shares_storage() {
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1, 2]);
        assert!(c.truncated(3).shares_storage_with(&c));
        assert!(c.truncated(10).shares_storage_with(&c));
        assert!(!c.truncated(2).shares_storage_with(&c));
    }

    #[test]
    fn verify_hashing_is_linear_in_chain_length() {
        // With SchemeKind::Fast the only hashing is the prefix-digest
        // chain, so verifying L signatures costs exactly L hash
        // invocations (d_0 ..= d_{L-1}, one per signature; d_L covers
        // nothing and is not computed) — the O(L) guarantee.
        let reg = KeyRegistry::new(40, 7, SchemeKind::Fast);
        for l in [1usize, 4, 8, 32] {
            let mut c = Chain::new(3, Value::ONE);
            for id in 0..l as u32 {
                c.sign_and_append(&reg.signer(ProcessId(id)));
            }
            let before = CryptoStats::snapshot();
            c.verify_uncached(&reg.verifier()).unwrap();
            let delta = CryptoStats::snapshot().since(&before);
            assert_eq!(delta.hash_invocations, l as u64, "length {l}");
            assert_eq!(delta.sig_verifications, l as u64, "length {l}");
        }
    }

    #[test]
    fn cache_never_rescues_a_tampered_chain() {
        // Stamp a good chain at the barrier, then tamper with a *suffix*
        // signature on a clone: the copy-on-write drops the stamp, so the
        // bad signature is caught — every time, the stamp never moves to
        // the tampered buffer.
        let reg = KeyRegistry::new(6, 11, SchemeKind::Fast);
        let v = reg.verifier();
        let c = signed_chain(&reg, &[0, 1, 2, 3]);
        Chain::verify_at_barrier([&c], &v, &mut BarrierSeen::new());
        let mut bad = c.clone();
        sigs_mut(&mut bad).push(Signature::forged(ProcessId(5), SchemeKind::Fast));
        assert!(bad.verify(&v).is_err());
        Chain::verify_at_barrier([&bad], &v, &mut BarrierSeen::new());
        assert!(bad.verify(&v).is_err());
        // The untampered chain is still a stamp hit.
        let before = CryptoStats::snapshot();
        c.verify(&v).unwrap();
        let delta = CryptoStats::snapshot().since(&before);
        assert_eq!((delta.cache_hits, delta.sig_verifications), (1, 0));
    }

    #[test]
    fn stamp_short_circuits_shared_clones() {
        let reg = KeyRegistry::new(6, 3, SchemeKind::Fast);
        let v = reg.verifier();
        let c = signed_chain(&reg, &[0, 1, 2]);
        Chain::verify_at_barrier([&c], &v, &mut BarrierSeen::new());
        // Every clone shares the stamped buffer: verify is pure stamp
        // comparison — zero hashes, zero signature checks.
        let clone = c.clone();
        assert_eq!(clone.storage_id(), c.storage_id());
        let before = CryptoStats::snapshot();
        clone.verify(&v).unwrap();
        let delta = CryptoStats::snapshot().since(&before);
        assert_eq!(delta.hash_invocations, 0);
        assert_eq!(delta.sig_verifications, 0);
        assert_eq!(delta.cache_hits, 1, "the stamp hit is accounted");
    }

    #[test]
    fn stamp_is_reset_by_any_buffer_mutation() {
        let reg = KeyRegistry::new(6, 4, SchemeKind::Fast);
        let v = reg.verifier();
        let mut c = signed_chain(&reg, &[0, 1]);
        Chain::verify_at_barrier([&c], &v, &mut BarrierSeen::new());

        // Relay extension (copy-on-write): the extended chain's new
        // signature is actually checked, not waved through.
        let mut relayed = c.clone();
        relayed.sign_and_append(&reg.signer(ProcessId(2)));
        let before = CryptoStats::snapshot();
        relayed.verify(&v).unwrap();
        let delta = CryptoStats::snapshot().since(&before);
        assert!(delta.sig_verifications >= 1, "stamp did not survive COW");

        // Sole-owner extension resets too.
        c.sign_and_append(&reg.signer(ProcessId(3)));
        let before = CryptoStats::snapshot();
        c.verify(&v).unwrap();
        let delta = CryptoStats::snapshot().since(&before);
        assert!(
            delta.sig_verifications >= 1,
            "stamp did not survive in-place append"
        );
    }

    #[test]
    fn stamp_binds_registry_domain_and_value() {
        let reg = KeyRegistry::new(6, 5, SchemeKind::Fast);
        let other = KeyRegistry::new(6, 5, SchemeKind::Fast);
        let c = signed_chain(&reg, &[0, 1]);
        Chain::verify_at_barrier([&c], &reg.verifier(), &mut BarrierSeen::new());

        // A different registry's verifier must not honor the stamp (it
        // never verified anything) — and signature checks really run.
        let before = CryptoStats::snapshot();
        let _ = c.verify(&other.verifier());
        let delta = CryptoStats::snapshot().since(&before);
        assert!(delta.sig_verifications >= 1);

        // A clone whose value was tampered shares the stamped buffer but
        // must still be rejected: the stamp binds the value.
        let mut tampered = c.clone();
        tampered.value = Value(77);
        assert!(tampered.verify(&reg.verifier()).is_err());
        let mut wrong_domain = c.clone();
        wrong_domain.domain ^= 1;
        assert!(wrong_domain.verify(&reg.verifier()).is_err());
    }

    #[test]
    fn storage_id_tracks_sharing() {
        let reg = reg();
        let c = signed_chain(&reg, &[0, 1]);
        let shared = c.clone();
        assert_eq!(shared.storage_id(), c.storage_id());
        let mut extended = c.clone();
        extended.sign_and_append(&reg.signer(ProcessId(2)));
        assert_ne!(extended.storage_id(), c.storage_id());
    }

    mod props {
        use super::*;
        use crate::testkit::{run_cases, Gen};

        fn random_chain(gen: &mut Gen, reg: &KeyRegistry, domain: u32, value: Value) -> Chain {
            let mut c = Chain::new(domain, value);
            let len = gen.usize_in(0, 9);
            for _ in 0..len {
                let id = gen.u32_in(0, 8);
                c.sign_and_append(&reg.signer(ProcessId(id)));
            }
            c
        }

        #[test]
        fn prop_roundtrip_preserves_verification() {
            run_cases(48, 0x31, |gen| {
                let reg = KeyRegistry::new(8, gen.u64(), SchemeKind::Fast);
                let domain = gen.u32();
                let value = Value(gen.u64());
                let mut c = random_chain(gen, &reg, domain, value);
                if c.is_empty() {
                    c.sign_and_append(&reg.signer(ProcessId(0)));
                }
                c.verify(&reg.verifier()).unwrap();
                let mut enc = Encoder::new();
                c.encode(&mut enc);
                let buf = enc.finish();
                let d = Chain::decode(&mut Decoder::new(&buf)).unwrap();
                assert_eq!(&d, &c);
                d.verify(&reg.verifier()).unwrap();
            });
        }

        #[test]
        fn prop_any_prefix_verifies() {
            run_cases(48, 0x32, |gen| {
                let reg = KeyRegistry::new(8, gen.u64(), SchemeKind::Fast);
                let ids = gen.vec_u32_in(0, 8, 1, 8);
                let cut = gen.usize();
                let mut c = Chain::new(0, Value::ONE);
                for &id in &ids {
                    c.sign_and_append(&reg.signer(ProcessId(id)));
                }
                let t = c.truncated(1 + cut % ids.len());
                t.verify(&reg.verifier()).unwrap();
            });
        }

        #[test]
        fn prop_garbage_decode_never_panics() {
            run_cases(48, 0x33, |gen| {
                let data = gen.vec_u8(0, 128);
                let _ = Chain::decode(&mut Decoder::new(&data));
            });
        }

        /// The equivalence oracle: the full check and the stamped path must
        /// accept and reject *exactly* the same chains — with the same
        /// error — as the naive O(L²) reference, across honest chains and
        /// truncate/splice/extend/tamper attacks.
        #[test]
        fn prop_cached_and_incremental_match_reference() {
            run_cases(96, 0x34, |gen| {
                let kind = if gen.bool() {
                    SchemeKind::Fast
                } else {
                    SchemeKind::Hmac
                };
                let seed = gen.u64();
                let reg = KeyRegistry::new(8, seed, kind);
                let foreign = KeyRegistry::new(8, seed ^ 0x5555, kind);
                let domain = gen.u32_in(0, 4);
                let value = Value(gen.u64_in(0, 4));
                let mut c = random_chain(gen, &reg, domain, value);

                // One random manipulation drawn from the attack repertoire.
                match gen.usize_in(0, 8) {
                    0 => {} // honest chain, untouched
                    1 => c = c.truncated(gen.usize_in(0, c.len() + 2)),
                    2 => c.value = Value(gen.u64()), // value tamper
                    3 => c.domain = gen.u32(),       // domain tamper
                    4 => {
                        // reorder
                        if c.len() >= 2 {
                            let i = gen.usize_in(0, c.len());
                            let j = gen.usize_in(0, c.len());
                            sigs_mut(&mut c).swap(i, j);
                        }
                    }
                    5 => {
                        // forged extension
                        let id = gen.u32_in(0, 10);
                        sigs_mut(&mut c).push(Signature::forged(ProcessId(id), kind));
                    }
                    6 => {
                        // splice a signature minted under a different
                        // registry (wrong keys) onto this chain
                        let mut o = Chain::new(domain, value);
                        o.sign_and_append(&foreign.signer(ProcessId(gen.u32_in(0, 8))));
                        let spliced = o.sigs.sigs[0].clone();
                        sigs_mut(&mut c).push(spliced);
                    }
                    _ => {
                        // honest extension
                        c.sign_and_append(&reg.signer(ProcessId(gen.u32_in(0, 8))));
                    }
                }

                let v = reg.verifier();
                let reference = c.verify_reference(&v);
                assert_eq!(c.verify_uncached(&v), reference);
                // Before and after the barrier pass: unstamped, then
                // stamped when (and only when) the chain is valid.
                assert_eq!(c.verify(&v), reference);
                Chain::verify_at_barrier([&c], &v, &mut BarrierSeen::new());
                assert_eq!(c.verify(&v), reference);
            });
        }
    }
}
