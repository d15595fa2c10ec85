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
//! 32-byte tags) and [`SchemeKind::Fast`] (64-bit keyed word-wise tags)
//! for large parameter sweeps where hashing would dominate runtime. Both are
//! deterministic in the run seed. [`SchemeKind::Oral`] is the
//! unauthenticated model (Corollary 1): a signature only names its signer,
//! so anyone can produce anyone's.

use crate::error::CryptoError;
use crate::hmac::HmacKey;
use crate::rng::splitmix64;
use crate::sha256::Sha256;
use crate::wire::{Decoder, Encoder};
use crate::ProcessId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which tag construction a [`KeyRegistry`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SchemeKind {
    /// HMAC-SHA-256, 32-byte tags. The default; cryptographically faithful.
    #[default]
    Hmac,
    /// 8-byte tags: the content absorbed eight bytes at a time into a
    /// keyed 64-bit accumulator (XOR, odd multiply, rotate), then a keyed
    /// splitmix finalizer. Fast mode for big sweeps — a 32-byte prefix
    /// digest is four absorb steps; still unforgeable against the scripted
    /// adversaries in this workspace.
    Fast,
    /// No tag at all: a signature names its signer and nothing else, so
    /// every in-range signature verifies and
    /// [`Signature::forged`] is as good as a real one. Oral messages
    /// (`OM(t)`) carry their relay path as such a chain.
    Oral,
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
    Oral,
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
            Tag::Oral => 4 + 1,
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
            Tag::Oral => {
                enc.u8(2);
            }
        }
    }

    /// The most bytes [`encode`](Self::encode) appends: an HMAC
    /// signature's.
    pub(crate) const MAX_ENCODED_LEN: usize = 4 + 1 + 32;

    /// Writes exactly the bytes [`encode`](Self::encode) appends to the
    /// front of `out`, returning how many — the encoding on the stack, for
    /// the chain prefix digests, which hash one signature per link.
    ///
    /// # Panics
    /// If `out` is shorter than the signature's
    /// [`encoded_len`](Self::encoded_len).
    pub(crate) fn encode_to(&self, out: &mut [u8]) -> usize {
        out[..4].copy_from_slice(&self.signer.0.to_be_bytes());
        match &self.tag {
            Tag::Hmac(t) => {
                out[4] = 0;
                out[5..37].copy_from_slice(t);
            }
            Tag::Fast(t) => {
                out[4] = 1;
                out[5..13].copy_from_slice(&t.to_be_bytes());
            }
            Tag::Oral => out[4] = 2,
        }
        self.encoded_len()
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
            2 => Tag::Oral,
            other => return Err(CryptoError::BadDiscriminant { found: other }),
        };
        Ok(Signature { signer, tag })
    }

    /// Produces a signature claiming to be from `signer` without its key —
    /// used by adversaries attempting forgery and by tests that check
    /// forged signatures are rejected. Under [`SchemeKind::Oral`] it
    /// verifies: there is no key to lack.
    pub fn forged(signer: ProcessId, kind: SchemeKind) -> Self {
        let tag = match kind {
            SchemeKind::Hmac => Tag::Hmac([0xAB; 32]),
            SchemeKind::Fast => Tag::Fast(0xDEAD_BEEF_DEAD_BEEF),
            SchemeKind::Oral => Tag::Oral,
        };
        Signature { signer, tag }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig({})", self.signer)
    }
}

/// A stand-in for the verified-prefix memo [`Chain::verify`](crate::Chain::verify)
/// no longer has: a verify is a barrier-stamp hit or a full O(L) check.
/// `benchmark/` still constructs one; the `benchmark` PR that drops those
/// calls deletes it.
#[deprecated(note = "there is no verifier cache; remove the call")]
#[derive(Debug, Default)]
pub struct VerifierCache;

#[allow(deprecated)]
impl VerifierCache {
    /// The stand-in; it holds nothing.
    pub fn new() -> Self {
        VerifierCache
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
    /// Process-unique instance token; a barrier-verification stamp (on a
    /// signature-chain buffer or a signed window, see [`crate::stamp`])
    /// mixes it in
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

/// The [`SchemeKind::Fast`] tag of `content` under `key`: a keyed word-wise
/// absorb, then a keyed splitmix finalizer. Each 8-byte little-endian word
/// is XORed into the accumulator, which is then multiplied by an odd
/// constant and rotated; the tail's bytes are absorbed one at a time, and
/// the length last. Every step is a bijection of the accumulator, so
/// changing any one word or byte, all else equal, changes the tag; the
/// rotation carries a word's high bits into the next word's multiply.
fn fast_tag(key: u64, content: &[u8]) -> u64 {
    const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    const BYTE_MUL: u64 = 0x0000_0100_0000_01B3;
    let mut acc = key ^ 0xcbf2_9ce4_8422_2325;
    let mut words = content.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        acc = (acc ^ word).wrapping_mul(WORD_MUL).rotate_left(29);
    }
    for &b in words.remainder() {
        acc = (acc ^ u64::from(b)).wrapping_mul(BYTE_MUL);
    }
    acc = (acc ^ content.len() as u64).wrapping_mul(WORD_MUL);
    let mut s = acc ^ key.rotate_left(17);
    splitmix64(&mut s)
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
    /// `seed`. Only [`SchemeKind::Hmac`] derives HMAC secrets (one SHA-256
    /// per identity); a [`SchemeKind::Fast`] registry never reads them.
    pub fn new(n: usize, seed: u64, kind: SchemeKind) -> Self {
        let hmac_keys = match kind {
            SchemeKind::Hmac => (0..n)
                .map(|id| HmacKey::new(&hmac_secret(seed, id)))
                .collect(),
            SchemeKind::Fast | SchemeKind::Oral => Vec::new(),
        };
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let fast_keys = (0..n).map(|_| splitmix64(&mut state) | 1).collect();
        KeyRegistry {
            inner: Arc::new(RegistryInner {
                hmac_keys,
                fast_keys,
                kind,
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

    /// This registry instance's unique barrier-verification token (see
    /// [`RegistryInner::token`]).
    pub(crate) fn batch_token(&self) -> u64 {
        self.inner.token
    }

    /// `id`'s tag over `content` under this registry's scheme: HMAC-SHA-256
    /// from the identity's prepared key, the word-wise [`fast_tag`] under
    /// its 64-bit key, or no tag. One tag op, except under `Oral`.
    fn tag_for(&self, id: ProcessId, content: &[u8]) -> Tag {
        if self.inner.kind != SchemeKind::Oral {
            crate::stats::record_tag_op();
        }
        match self.inner.kind {
            SchemeKind::Hmac => Tag::Hmac(self.inner.hmac_keys[id.index()].tag(content)),
            SchemeKind::Fast => Tag::Fast(fast_tag(self.inner.fast_keys[id.index()], content)),
            SchemeKind::Oral => Tag::Oral,
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
    /// claimed signer — under [`SchemeKind::Oral`], when it names an
    /// in-range signer and carries no tag.
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
            (Tag::Oral, Tag::Oral) => true,
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
    fn oral_signature_roundtrips_in_five_bytes() {
        let reg = KeyRegistry::new(5, 42, SchemeKind::Oral);
        let sig = reg.signer(ProcessId(4)).sign(b"payload");
        let mut enc = Encoder::new();
        sig.encode(&mut enc);
        let buf = enc.finish();
        assert_eq!((buf.len(), sig.encoded_len()), (5, 5));
        assert_eq!(&buf[4..], [2]);
        let decoded = Signature::decode(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(decoded, sig);
        // No tag binds the content: any content verifies.
        assert!(reg.verifier().verify(&decoded, b"anything"));
    }

    #[test]
    fn oral_and_keyed_signatures_reject_each_other() {
        let oral = KeyRegistry::new(3, 5, SchemeKind::Oral);
        for keyed in registries() {
            let sig = oral.signer(ProcessId(1)).sign(b"m");
            assert!(!keyed.verifier().verify(&sig, b"m"), "{:?}", keyed.kind());
            let sig = keyed.signer(ProcessId(1)).sign(b"m");
            assert!(!oral.verifier().verify(&sig, b"m"), "{:?}", keyed.kind());
        }
    }

    #[test]
    fn forged_oral_signatures_verify_only_under_oral() {
        let oral = KeyRegistry::new(5, 42, SchemeKind::Oral);
        let forged = Signature::forged(ProcessId(3), SchemeKind::Oral);
        assert!(oral.verifier().verify(&forged, b"anything"));
        for keyed in registries() {
            assert!(!keyed.verifier().verify(&forged, b"anything"));
        }
        // Still only in-range signers.
        let stranger = Signature::forged(ProcessId(5), SchemeKind::Oral);
        assert_eq!(
            oral.verifier().check(&stranger, b"m"),
            Err(CryptoError::UnknownSigner {
                signer: ProcessId(5),
                registered: 5
            })
        );
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
    fn the_stack_encoding_is_the_wire_encoding() {
        let oral = KeyRegistry::new(5, 42, SchemeKind::Oral);
        let [hmac, fast] = registries();
        for reg in [hmac, fast, oral] {
            for id in 0..5 {
                let sig = reg.signer(ProcessId(id)).sign(b"m");
                let mut enc = Encoder::new();
                sig.encode(&mut enc);
                let mut out = [0xEE; Signature::MAX_ENCODED_LEN];
                let len = sig.encode_to(&mut out);
                assert_eq!(&out[..len], enc.as_slice(), "{:?} p{id}", reg.kind());
            }
        }
        let widest = Signature::forged(ProcessId(u32::MAX), SchemeKind::Hmac);
        assert_eq!(widest.encoded_len(), Signature::MAX_ENCODED_LEN);
    }

    #[test]
    fn every_one_byte_change_moves_the_fast_tag() {
        // The word-wise absorb at every length across the 8-byte words and
        // their tails: flipping any byte, appending or dropping one, and
        // changing the key each change the tag.
        let key = 0x0123_4567_89AB_CDEF | 1;
        let content: Vec<u8> = (0..=80u8).map(|i| i.wrapping_mul(151) ^ 0x5A).collect();
        for len in 0..=80 {
            let msg = &content[..len];
            let tag = fast_tag(key, msg);
            for i in 0..len {
                for bit in [0x01, 0x80, 0xFF] {
                    let mut flipped = msg.to_vec();
                    flipped[i] ^= bit;
                    assert_ne!(
                        fast_tag(key, &flipped),
                        tag,
                        "len {len} byte {i} bit {bit:#x}"
                    );
                }
            }
            for extra in [0, 0xFF] {
                let mut longer = msg.to_vec();
                longer.push(extra);
                assert_ne!(fast_tag(key, &longer), tag, "len {len} + {extra:#x}");
            }
            if let Some((_, shorter)) = msg.split_last() {
                assert_ne!(fast_tag(key, shorter), tag, "len {len} - 1");
            }
            assert_ne!(fast_tag(key ^ 2, msg), tag, "len {len} other key");
        }
    }

    #[test]
    #[should_panic(expected = "outside registry")]
    fn signer_out_of_range_panics() {
        let reg = KeyRegistry::new(2, 0, SchemeKind::Fast);
        let _ = reg.signer(ProcessId(2));
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
