//! Barrier-verification stamps: how one check at the phase barrier answers
//! every recipient's later check of the same signed object.
//!
//! A phase loop hands everything its next phase will consume to one
//! [`Barrier`] pass. The pass checks each *unique* signed object once, in
//! full, and on success writes a stamp into storage that every clone of
//! the object shares — a broadcast fan-out, a relay's copy, a bundle that
//! repeats it. A recipient's own check of a clone then compares the stamp
//! in O(1) instead of hashing and checking signatures again.
//!
//! The stamp is one word: `0` is unstamped; otherwise it is the odd word
//! derived from the verifying registry's token and a key over the content
//! the stamp stands for. A verifier honours it only if the word it
//! recomputes from *its own* registry and the *asking* object's content is
//! the one stored, so a stamp never validates content it was not written
//! for, nor content under a registry that never checked it.
//!
//! Two kinds of object carry one:
//!
//! * a [`Chain`]'s shared signature buffer, keyed by the chain's domain and
//!   value (any change to the buffer itself resets the word);
//! * a [`WindowStamp`], the stamp of a *signed window*: a signature over
//!   `header ‖ H(window)`, where the window is a range of a shared
//!   [`Bytes`] allocation (`ba-ext`'s erasure-coded chunks are these). Its
//!   cell also records exactly what was checked — header, window and
//!   signature, the window's allocation kept alive by the record — and the
//!   `H(window)` the check computed, which a stamp hit hands back.
//!
//! Only a [`Barrier`] writes a stamp, and only after a full check; the pass
//! runs serially on the phase loop's thread, so which stamps exist never
//! depends on how the phase's actors were scheduled.

use crate::chain::seed_digest;
use crate::keys::{Signature, Signer, Verifier};
use crate::rng::splitmix64;
use crate::sha256::{Sha256, DIGEST_LEN};
use crate::stats::CryptoStats;
use crate::wire::Bytes;
use crate::{Chain, Value};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The stamp word of an object that passed a full check under the registry
/// with `token`, for content `key`. Always odd, hence never the unstamped
/// `0`.
fn stamp_word(token: u64, key: u64) -> u64 {
    let mut s = token ^ key;
    splitmix64(&mut s) | 1
}

/// One barrier-verification stamp word (see the [module docs](self)).
///
/// Cloning yields an unstamped word: a copy of the storage it lives in
/// exists to be changed. The word is process-local verification state,
/// not content, so `Debug` does not print it.
pub(crate) struct Stamp(AtomicU64);

impl Stamp {
    pub(crate) const fn new() -> Self {
        Stamp(AtomicU64::new(0))
    }

    /// Whether a barrier under the registry with `token` stamped this
    /// storage for content `key`.
    pub(crate) fn holds(&self, token: u64, key: u64) -> bool {
        self.0.load(Ordering::Acquire) == stamp_word(token, key)
    }

    /// Marks the storage unstamped: its content is about to change.
    pub(crate) fn reset(&mut self) {
        *self.0.get_mut() = 0;
    }

    /// Written by [`Barrier`] alone, after a full check.
    fn write(&self, token: u64, key: u64) {
        self.0.store(stamp_word(token, key), Ordering::Release);
    }
}

impl Default for Stamp {
    fn default() -> Self {
        Stamp::new()
    }
}

impl Clone for Stamp {
    fn clone(&self) -> Self {
        Stamp::new()
    }
}

impl fmt::Debug for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Stamp")
    }
}

/// The content key of a window stamp. The record beside the word binds the
/// content exactly, so the word itself binds only the registry.
const WINDOW_KEY: u64 = 0x5749_4E44_4F57; // "WINDOW"

/// The stamp a signed window carries: a signature over `header ‖
/// H(window)`. Cloning shares it, as cloning a [`Chain`] shares its
/// signature buffer, so every copy of a window the barrier checked is a
/// stamp hit — unless the copy's header, window or signature was changed
/// after cloning: those are compared against what the barrier checked, and
/// a changed copy is checked in full.
///
/// ```
/// use ba_crypto::keys::{KeyRegistry, SchemeKind};
/// use ba_crypto::sha256::Sha256;
/// use ba_crypto::stamp::{Barrier, WindowStamp};
/// use ba_crypto::{Bytes, ProcessId};
///
/// let reg = KeyRegistry::new(2, 1, SchemeKind::Fast);
/// let window = Bytes::from(vec![7u8; 64]);
/// let sig = WindowStamp::sign(&reg.signer(ProcessId(0)), b"hdr", &Sha256::digest(&window));
/// let stamp = WindowStamp::default();
/// let verifier = reg.verifier();
/// let mut seen = Default::default();
/// let mut barrier = Barrier::new(&verifier, &mut seen);
/// barrier.window(&stamp, b"hdr", &window, &sig);
/// barrier.finish();
/// // A clone's check is now a stamp hit handing back H(window).
/// let copy = stamp.clone();
/// assert_eq!(copy.verify(&verifier, b"hdr", &window, &sig), Some(Sha256::digest(&window)));
/// ```
#[derive(Clone, Default)]
pub struct WindowStamp(Arc<WindowCell>);

#[derive(Default)]
struct WindowCell {
    stamp: Stamp,
    /// What the first successful barrier check covered, set once.
    checked: OnceLock<Checked>,
}

struct Checked {
    header: Box<[u8]>,
    /// Holds the window's allocation, so a window that is the same range
    /// of the same allocation has the same bytes.
    window: Bytes,
    sig: Signature,
    /// `H(window)`, handed out on a stamp hit.
    digest: [u8; DIGEST_LEN],
}

impl Checked {
    fn covers(&self, header: &[u8], window: &Bytes, sig: &Signature) -> bool {
        self.window.same_window(window) && *self.header == *header && self.sig == *sig
    }
}

/// What a signed window's signature covers: `header ‖ digest`.
fn signed_content(header: &[u8], digest: &[u8; DIGEST_LEN]) -> Vec<u8> {
    let mut content = Vec::with_capacity(header.len() + DIGEST_LEN);
    content.extend_from_slice(header);
    content.extend_from_slice(digest);
    content
}

impl WindowStamp {
    /// Signs a window whose digest `H(window)` is `digest`, under `header`.
    pub fn sign(signer: &Signer, header: &[u8], digest: &[u8; DIGEST_LEN]) -> Signature {
        signer.sign(&signed_content(header, digest))
    }

    /// `H(window)` when `sig` is a valid signature over `header ‖
    /// H(window)`: a stamp hit when a barrier under `verifier`'s registry
    /// checked exactly this header, window and signature (no hashing, no
    /// signature check), a full check (hash the window, check the
    /// signature) otherwise. Which signer `sig` names is the caller's to
    /// check.
    pub fn verify(
        &self,
        verifier: &Verifier,
        header: &[u8],
        window: &Bytes,
        sig: &Signature,
    ) -> Option<[u8; DIGEST_LEN]> {
        let cell = &self.0;
        if cell.stamp.holds(verifier.batch_token(), WINDOW_KEY) {
            if let Some(checked) = cell.checked.get().filter(|c| c.covers(header, window, sig)) {
                crate::stats::record_cache_hit();
                return Some(checked.digest);
            }
        }
        Self::verify_uncached(verifier, header, window, sig)
    }

    /// The full check, ignoring any stamp: hashes the window and checks
    /// `sig` over `header ‖ H(window)`.
    fn verify_uncached(
        verifier: &Verifier,
        header: &[u8],
        window: &Bytes,
        sig: &Signature,
    ) -> Option<[u8; DIGEST_LEN]> {
        crate::stats::record_cache_miss();
        let digest = Sha256::digest(window);
        verifier
            .verify(sig, &signed_content(header, &digest))
            .then_some(digest)
    }
}

/// The stamp belongs to the cell, not to the content: `Debug` names it
/// only.
impl fmt::Debug for WindowStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WindowStamp")
    }
}

/// The set a phase loop recycles across barriers: the unique objects one pass
/// has already checked, by storage address and content.
pub type BarrierSeen = HashSet<(usize, u64, u64)>;

/// One barrier pass: checks each unique signed object handed to it once
/// and stamps those that pass (see the [module docs](self)). A phase
/// loop runs one per phase, serially, over everything it is about to
/// deliver.
///
/// A chain's full check starts from `d_0 = H("ba-chain" ‖ domain ‖
/// value)`, a hash of public fields alone. The pass keeps the last `d_0`
/// it computed, keyed on the exact domain and value, so the chains of one
/// broadcast — every relay of one value — hash their seed once. That
/// skips no signature check and no tag: every chain the pass has not met
/// is still checked signature by signature, and nothing outlives the pass.
pub struct Barrier<'a> {
    verifier: &'a Verifier,
    seen: &'a mut BarrierSeen,
    /// The last chain seed computed: domain, value, `d_0`.
    seed: Option<(u32, Value, [u8; DIGEST_LEN])>,
    before: CryptoStats,
}

impl<'a> Barrier<'a> {
    /// Starts a pass under `verifier`'s registry. `seen` is cleared here:
    /// storage addresses only identify objects that are alive.
    pub fn new(verifier: &'a Verifier, seen: &'a mut BarrierSeen) -> Self {
        seen.clear();
        Barrier {
            verifier,
            seen,
            seed: None,
            before: CryptoStats::snapshot(),
        }
    }

    /// Checks `chain` unless this pass already met it (by shared signature
    /// buffer, domain and value, so a broadcast fan-out is one entry) and
    /// stamps its buffer when it passes. Unsigned chains are skipped. A
    /// full check takes `d_0` from the pass when the last seed it computed
    /// has this chain's domain and value (see [`Barrier`]).
    pub fn chain(&mut self, chain: &Chain) {
        if chain.is_empty() {
            return;
        }
        let (domain, value) = (chain.domain(), chain.value());
        if !self
            .seen
            .insert((chain.storage_id(), u64::from(domain), value.0))
        {
            return;
        }
        let last = &mut self.seed;
        let seed = || match *last {
            Some((d, v, digest)) if (d, v) == (domain, value) => digest,
            _ => {
                let digest = seed_digest(domain, value);
                *last = Some((domain, value, digest));
                digest
            }
        };
        if chain.stamp_hit(self.verifier) || chain.verify_from(self.verifier, seed).is_ok() {
            chain
                .stamp()
                .write(self.verifier.batch_token(), chain.stamp_key());
        }
    }

    /// Checks the signed window `sig` over `header ‖ H(window)` unless
    /// this pass already met it (by stamp cell and window), and stamps
    /// `stamp` when it passes. The first window a cell's stamp is written
    /// for is the one it stands for: a later, different copy sharing the
    /// cell stays unstamped and is checked in full by whoever asks.
    pub fn window(&mut self, stamp: &WindowStamp, header: &[u8], window: &Bytes, sig: &Signature) {
        let key = (
            Arc::as_ptr(&stamp.0) as usize,
            window.as_ptr() as u64,
            window.len() as u64,
        );
        if !self.seen.insert(key) {
            return;
        }
        let Some(digest) = stamp.verify(self.verifier, header, window, sig) else {
            return;
        };
        let cell = &stamp.0;
        let checked = cell.checked.get_or_init(|| Checked {
            header: header.into(),
            window: window.clone(),
            sig: sig.clone(),
            digest,
        });
        if checked.covers(header, window, sig) {
            cell.stamp.write(self.verifier.batch_token(), WINDOW_KEY);
        }
    }

    /// Ends the pass, returning the calling thread's [`CryptoStats`] delta
    /// for it; attributing it to a phase stays with the caller.
    pub fn finish(self) -> CryptoStats {
        CryptoStats::snapshot().since(&self.before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyRegistry, SchemeKind};
    use crate::ProcessId;

    fn signed(reg: &KeyRegistry, header: &[u8], window: &Bytes) -> Signature {
        WindowStamp::sign(&reg.signer(ProcessId(0)), header, &Sha256::digest(window))
    }

    fn barrier_pass(v: &Verifier, windows: &[(&WindowStamp, &[u8], &Bytes, &Signature)]) {
        let mut seen = BarrierSeen::new();
        let mut barrier = Barrier::new(v, &mut seen);
        for &(stamp, header, window, sig) in windows {
            barrier.window(stamp, header, window, sig);
        }
        barrier.finish();
    }

    /// `(hash_invocations, sig_verifications, cache_hits)` of `f`.
    fn cost<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
        let before = CryptoStats::snapshot();
        let out = f();
        let d = CryptoStats::snapshot().since(&before);
        (out, (d.hash_invocations, d.sig_verifications, d.cache_hits))
    }

    #[test]
    fn a_stamped_window_is_a_free_hit_for_every_clone() {
        let reg = KeyRegistry::new(2, 1, SchemeKind::Fast);
        let v = reg.verifier();
        let window = Bytes::from(vec![3u8; 100]).slice(10..90);
        let sig = signed(&reg, b"h", &window);
        let stamp = WindowStamp::default();
        let (_, barrier) = cost(|| barrier_pass(&v, &[(&stamp, b"h", &window, &sig)]));
        assert_eq!(barrier, (1, 1, 0), "one full check at the barrier");
        // A second pass over the same window is a stamp hit.
        let (_, again) = cost(|| barrier_pass(&v, &[(&stamp, b"h", &window, &sig)]));
        assert_eq!(again, (0, 0, 1));
        let copy = stamp.clone();
        let (digest, hit) = cost(|| copy.verify(&v, b"h", &window.clone(), &sig));
        assert_eq!(digest, Some(Sha256::digest(&window)));
        assert_eq!(hit, (0, 0, 1));
    }

    #[test]
    fn a_stamp_binds_registry_header_window_and_signature() {
        let reg = KeyRegistry::new(2, 1, SchemeKind::Fast);
        let same_seed = KeyRegistry::new(2, 1, SchemeKind::Fast);
        let v = reg.verifier();
        let data = Bytes::from((0..64u8).collect::<Vec<u8>>());
        let window = data.slice(0..32);
        let sig = signed(&reg, b"h", &window);
        let stamp = WindowStamp::default();
        barrier_pass(&v, &[(&stamp, b"h", &window, &sig)]);

        // Another registry never checked it: a full check, which passes
        // (same seed, same keys) but is not a hit.
        let (ok, full) = cost(|| stamp.verify(&same_seed.verifier(), b"h", &window, &sig));
        assert!(ok.is_some());
        assert_eq!(full, (1, 1, 0));
        // Equal bytes in another allocation, another range of the same
        // allocation, another header, another signature: full checks.
        let equal_elsewhere = Bytes::from(window.to_vec());
        let (ok, full) = cost(|| stamp.verify(&v, b"h", &equal_elsewhere, &sig));
        assert!(ok.is_some());
        assert_eq!(full, (1, 1, 0));
        for (header, window) in [(&b"h"[..], data.slice(1..33)), (&b"x"[..], window.clone())] {
            let (ok, full) = cost(|| stamp.verify(&v, header, &window, &sig));
            assert!(ok.is_none());
            assert_eq!(full, (1, 1, 0));
        }
        let other_sig = signed(&reg, b"h", &data.slice(1..33));
        let (ok, full) = cost(|| stamp.verify(&v, b"h", &window, &other_sig));
        assert!(ok.is_none());
        assert_eq!(full, (1, 1, 0));
    }

    #[test]
    fn a_changed_copy_sharing_the_cell_is_never_stamped() {
        let reg = KeyRegistry::new(2, 1, SchemeKind::Fast);
        let foreign = KeyRegistry::new(2, 2, SchemeKind::Fast);
        let v = reg.verifier();
        let window = Bytes::from(vec![1u8; 16]);
        let sig = signed(&reg, b"h", &window);
        let stamp = WindowStamp::default();
        // A garbled copy checked first, in the same pass: it fails and the
        // honest window still gets its stamp.
        let garbled = Bytes::from(vec![2u8; 16]);
        barrier_pass(
            &v,
            &[
                (&stamp, b"h", &garbled, &sig),
                (&stamp, b"h", &window, &sig),
            ],
        );
        assert!(stamp.verify(&v, b"h", &garbled, &sig).is_none());
        assert_eq!(cost(|| stamp.verify(&v, b"h", &window, &sig)).1, (0, 0, 1));
        // A copy carrying another valid window and signature passes the
        // barrier but cannot take over the cell: it stays a full check.
        let other = Bytes::from(vec![9u8; 16]);
        let other_sig = signed(&reg, b"h", &other);
        barrier_pass(&v, &[(&stamp, b"h", &other, &other_sig)]);
        assert_eq!(
            cost(|| stamp.verify(&v, b"h", &other, &other_sig)).1,
            (1, 1, 0)
        );
        // A window signed under another registry never gets a stamp.
        let forged_sig = signed(&foreign, b"h", &window);
        let forged = WindowStamp::default();
        barrier_pass(&v, &[(&forged, b"h", &window, &forged_sig)]);
        assert!(forged.verify(&v, b"h", &window, &forged_sig).is_none());
    }

    /// `(hash_invocations, sig_verifications, cache_hits)` of one barrier
    /// pass over `chains`, in order.
    fn chain_pass(v: &Verifier, chains: &[Chain]) -> (u64, u64, u64) {
        let mut seen = BarrierSeen::new();
        let mut barrier = Barrier::new(v, &mut seen);
        for chain in chains {
            barrier.chain(chain);
        }
        let d = barrier.finish();
        (d.hash_invocations, d.sig_verifications, d.cache_hits)
    }

    fn chain_of(reg: &KeyRegistry, domain: u32, value: Value, signers: &[u32]) -> Chain {
        let mut c = Chain::new(domain, value);
        for &id in signers {
            c.sign_and_append(&reg.signer(ProcessId(id)));
        }
        c
    }

    #[test]
    fn a_pass_hashes_each_chain_seed_once() {
        // Fresh chains of one domain and value (the relays of one
        // broadcast): d_0 once for the pass, then L_i − 1 links each, and
        // every signature checked.
        let reg = KeyRegistry::new(8, 3, SchemeKind::Fast);
        let v = reg.verifier();
        let lens = [1usize, 3, 5, 2, 8];
        let chains: Vec<Chain> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let signers: Vec<u32> = (0..l as u32).map(|k| (k + i as u32) % 8).collect();
                chain_of(&reg, 4, Value::ONE, &signers)
            })
            .collect();
        let total: u64 = lens.iter().map(|&l| l as u64).sum();
        let links: u64 = lens.iter().map(|&l| l as u64 - 1).sum();
        assert_eq!(chain_pass(&v, &chains), (1 + links, total, 0));
        // A second pass finds every buffer stamped: hits, nothing hashed.
        assert_eq!(chain_pass(&v, &chains), (0, 0, lens.len() as u64));

        // Two values alternating: the pass keeps one seed, so each switch
        // recomputes d_0, and a run of one value reuses it.
        let order = [0u64, 1, 1, 0, 1, 0, 0];
        let chains: Vec<Chain> = order
            .iter()
            .map(|&x| chain_of(&reg, 4, Value(x), &[0, 1]))
            .collect();
        let switches = 1 + order.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        let n = order.len() as u64;
        assert_eq!(chain_pass(&v, &chains), (switches + n, 2 * n, 0));
        // Another domain with the same value is another seed.
        let chains = [
            chain_of(&reg, 4, Value::ONE, &[2]),
            chain_of(&reg, 5, Value::ONE, &[2]),
        ];
        assert_eq!(chain_pass(&v, &chains), (2, 2, 0));
    }

    #[test]
    fn a_shared_seed_never_validates_another_value() {
        // An honest chain for 0 and a copy of its signatures claiming 1
        // (its own buffer), honest first: the copy's check starts from its
        // own d_0, fails, and stays unstamped.
        let reg = KeyRegistry::new(4, 9, SchemeKind::Fast);
        let v = reg.verifier();
        let honest = chain_of(&reg, 2, Value::ZERO, &[0, 1, 2]);
        let mut enc = crate::wire::Encoder::new();
        honest.encode(&mut enc);
        let mut bytes = enc.finish().to_vec();
        bytes[4..12].copy_from_slice(&1u64.to_be_bytes());
        let copy = Chain::decode(&mut crate::wire::Decoder::new(&bytes)).unwrap();
        assert_eq!(
            (copy.value(), copy.signatures()),
            (Value::ONE, honest.signatures())
        );
        chain_pass(&v, &[honest.clone(), copy.clone()]);
        assert!(honest.verify(&v).is_ok());
        let (verdict, (_, checks, hits)) = cost(|| copy.verify(&v));
        assert!(verdict.is_err());
        assert_eq!((checks, hits), (1, 0), "a full check, not a stamp hit");
    }

    #[test]
    fn the_stamped_path_matches_the_full_check() {
        crate::testkit::run_cases(64, 0x5A11, |gen| {
            let reg = KeyRegistry::new(3, gen.u64(), SchemeKind::Fast);
            let foreign = KeyRegistry::new(3, gen.u64() | 1, SchemeKind::Fast);
            let v = reg.verifier();
            let data = Bytes::from(gen.vec_u8(1, 64));
            let end = gen.usize_in(0, data.len() + 1);
            let window = data.slice(0..end);
            let header = [gen.u32_in(0, 3) as u8; 4];
            let signer = if gen.bool() { &reg } else { &foreign };
            let sig = signed(signer, &header, &window);
            let stamp = WindowStamp::default();
            let reference = WindowStamp::verify_uncached(&v, &header, &window, &sig);
            assert_eq!(stamp.verify(&v, &header, &window, &sig), reference);
            barrier_pass(&v, &[(&stamp, &header, &window, &sig)]);
            assert_eq!(stamp.verify(&v, &header, &window, &sig), reference);
            // A tampered clone sharing the cell: the full check's verdict.
            let (header2, window2) = match gen.usize_in(0, 3) {
                0 => ([header[0] ^ 1; 4], window.clone()),
                1 => (header, data.slice(0..end.saturating_sub(1))),
                _ => (header, Bytes::from(window.to_vec())),
            };
            let copy = stamp.clone();
            assert_eq!(
                copy.verify(&v, &header2, &window2, &sig),
                WindowStamp::verify_uncached(&v, &header2, &window2, &sig)
            );
        });
    }
}
