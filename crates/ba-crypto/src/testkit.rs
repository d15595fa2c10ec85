//! A minimal deterministic property-test harness.
//!
//! The workspace previously used `proptest` for randomized tests, but the
//! crates-io registry is unreachable in the build environments this
//! reproduction targets — even *optional* external dependencies fail to
//! resolve. This module replaces it with the smallest thing that preserves
//! the tests' value: a seeded case runner over [`SimRng`]
//! generators. Failures print the case seed so a failing case can be
//! replayed exactly.
//!
//! Set `BA_TESTKIT_CASES` to override every property's case count (each
//! test passes its own default) for a deeper run.
//!
//! ```
//! use ba_crypto::testkit::run_cases;
//!
//! run_cases(8, 0xC0FFEE, |gen| {
//!     let v: Vec<u8> = gen.vec_u8(0, 32);
//!     assert!(v.len() < 32);
//! });
//! ```

use crate::rng::{derive_seed, SimRng};

/// Per-case value generator handed to the property closure.
#[derive(Debug)]
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    /// Creates a generator for one case.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: SimRng::new(seed),
        }
    }

    /// An arbitrary `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// An arbitrary `u32`.
    pub fn u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    /// An arbitrary `usize`.
    pub fn usize(&mut self) -> usize {
        self.rng.next_u64() as usize
    }

    /// An arbitrary `bool`.
    pub fn bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    /// A draw from `lo..hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.range_usize(lo, hi)
    }

    /// A draw from `lo..hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.range_u64(lo, hi)
    }

    /// A draw from `lo..hi`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.range_u32(lo, hi)
    }

    /// A byte vector with length drawn from `min_len..max_len`.
    pub fn vec_u8(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        let len = self.rng.range_usize(min_len, max_len);
        self.rng.bytes(len)
    }

    /// A vector of draws from `lo..hi`, with length from `min_len..max_len`.
    pub fn vec_u32_in(&mut self, lo: u32, hi: u32, min_len: usize, max_len: usize) -> Vec<u32> {
        let len = self.rng.range_usize(min_len, max_len);
        (0..len).map(|_| self.rng.range_u32(lo, hi)).collect()
    }

    /// Direct access to the underlying RNG for bespoke draws.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// Number of cases to run, honoring `BA_TESTKIT_CASES`.
pub fn case_count(default: usize) -> usize {
    std::env::var("BA_TESTKIT_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `property` against `cases` deterministically-seeded generators.
/// The effective case count is scaled by `BA_TESTKIT_CASES` when set.
///
/// # Panics
/// Propagates the property's panic, prefixed with the failing case seed
/// (replay with `Gen::new(seed)`).
pub fn run_cases(cases: usize, base_seed: u64, mut property: impl FnMut(&mut Gen)) {
    let cases = case_count(cases);
    for case in 0..cases {
        let seed = derive_seed(base_seed, case as u64);
        let mut gen = Gen::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut gen);
        }));
        if let Err(payload) = outcome {
            eprintln!("testkit: property failed at case {case} (replay seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let mut seen = Vec::new();
            run_cases(5, 99, |gen| seen.push(gen.u64()));
            seen
        };
        assert_eq!(collect(), collect());
        assert_eq!(collect().len(), case_count(5));
    }

    #[test]
    fn failure_seed_is_reported_and_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_cases(3, 1, |gen| {
                let _ = gen.u64();
                panic!("intentional");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn generators_cover_helpers() {
        run_cases(4, 2, |gen| {
            assert!(gen.usize_in(1, 5) < 5);
            assert!(gen.u64_in(0, 9) < 9);
            assert!(gen.u32_in(0, 3) < 3);
            let v = gen.vec_u8(2, 6);
            assert!((2..6).contains(&v.len()));
            let ids = gen.vec_u32_in(0, 8, 1, 4);
            assert!(ids.iter().all(|&i| i < 8));
            let _ = gen.bool();
            let _ = gen.u32();
            let _ = gen.rng().next_u8();
        });
    }
}
