//! Thread-local instrumentation counters for the crypto hot path.
//!
//! Signature-chain verification dominates every simulated run, so the
//! substrate counts its own work: SHA-256 digest computations, tag
//! operations (sign + verify), and how each chain verification went —
//! barrier-stamp hit or full check. The counters
//! are **thread-local**: a parameter sweep running cells on worker threads
//! gets exact per-cell deltas with no cross-cell interference, which keeps
//! the printed per-run numbers byte-identical between sequential and
//! parallel sweeps.
//!
//! The simulation engine snapshots these around every phase and folds the
//! deltas into `ba_sim::Metrics`-style accounting; tests use them to
//! assert the asymptotics (an L-signature chain must verify in O(L) hash
//! invocations, and a stamped one in none).

use std::cell::Cell;

thread_local! {
    static HASHES: Cell<u64> = const { Cell::new(0) };
    static TAG_OPS: Cell<u64> = const { Cell::new(0) };
    static SIG_VERIFICATIONS: Cell<u64> = const { Cell::new(0) };
    static CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static CACHE_MISSES: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn record_hash() {
    HASHES.with(|c| c.set(c.get() + 1));
}

pub(crate) fn record_tag_op() {
    TAG_OPS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn record_sig_verification() {
    SIG_VERIFICATIONS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn record_cache_hit() {
    CACHE_HITS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn record_cache_miss() {
    CACHE_MISSES.with(|c| c.set(c.get() + 1));
}

/// A snapshot (or difference) of the crypto work counters on the current
/// thread.
///
/// ```
/// use ba_crypto::stats::CryptoStats;
/// use ba_crypto::sha256::Sha256;
///
/// let before = CryptoStats::snapshot();
/// let _ = Sha256::digest(b"content");
/// let delta = CryptoStats::snapshot().since(&before);
/// assert_eq!(delta.hash_invocations, 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CryptoStats {
    /// SHA-256 digest computations (one per `Sha256::finalize` or
    /// one-shot `Sha256::digest`).
    pub hash_invocations: u64,
    /// Tag computations: every sign and every verification recomputes one
    /// authentication tag (none under `SchemeKind::Oral`, which has no tag).
    pub tag_ops: u64,
    /// Individual signature verifications performed by a `Verifier`.
    pub sig_verifications: u64,
    /// Chain and signed-window verifications answered by a barrier stamp
    /// in O(1) (see `ba_crypto::stamp`). The name predates the stamp: it
    /// counted verifier-cache hits when there was a cache.
    pub cache_hits: u64,
    /// Full verifications: a chain's every signature checked against its
    /// prefix digest (`Chain::verify_uncached`, and `Chain::verify`
    /// without a stamp), or a signed window hashed and checked
    /// (`WindowStamp::verify` without a stamp).
    pub cache_misses: u64,
}

impl CryptoStats {
    /// Reads the current thread's counters.
    pub fn snapshot() -> Self {
        CryptoStats {
            hash_invocations: HASHES.with(Cell::get),
            tag_ops: TAG_OPS.with(Cell::get),
            sig_verifications: SIG_VERIFICATIONS.with(Cell::get),
            cache_hits: CACHE_HITS.with(Cell::get),
            cache_misses: CACHE_MISSES.with(Cell::get),
        }
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &CryptoStats) -> CryptoStats {
        CryptoStats {
            hash_invocations: self
                .hash_invocations
                .saturating_sub(earlier.hash_invocations),
            tag_ops: self.tag_ops.saturating_sub(earlier.tag_ops),
            sig_verifications: self
                .sig_verifications
                .saturating_sub(earlier.sig_verifications),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
        }
    }

    /// Counter-wise sum.
    pub fn add(&self, other: &CryptoStats) -> CryptoStats {
        CryptoStats {
            hash_invocations: self.hash_invocations + other.hash_invocations,
            tag_ops: self.tag_ops + other.tag_ops,
            sig_verifications: self.sig_verifications + other.sig_verifications,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
        }
    }

    /// Fraction of chain verifications answered by a stamp (`0.0` when no
    /// verification ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Sha256;

    #[test]
    fn snapshot_delta_tracks_hashing() {
        let before = CryptoStats::snapshot();
        let _ = Sha256::digest(b"a");
        let _ = Sha256::digest(b"b");
        let delta = CryptoStats::snapshot().since(&before);
        assert_eq!(delta.hash_invocations, 2);
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(CryptoStats::default().cache_hit_rate(), 0.0);
        let s = CryptoStats {
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.cache_hit_rate(), 0.75);
    }

    #[test]
    fn add_and_since_are_inverse() {
        let a = CryptoStats {
            hash_invocations: 5,
            tag_ops: 2,
            sig_verifications: 2,
            cache_hits: 1,
            cache_misses: 0,
        };
        let b = CryptoStats {
            hash_invocations: 7,
            ..Default::default()
        };
        assert_eq!(a.add(&b).since(&b), a);
    }
}
