//! Systematic Reed–Solomon–style erasure coding over GF(256), in-tree.
//!
//! A payload is split into `k` *data chunks* — zero-copy
//! [`Bytes`] slices of the one payload allocation — and extended with
//! `n − k` *parity chunks* so that **any** `k` of the `n` coded chunks
//! reconstruct the payload exactly. Chunk `i` is the value of a degree
//! `< k` polynomial (per byte position) at the field point `i`: points
//! `0..k` carry the data itself (systematic — fault-free decoding hands
//! back the window the data chunks already are, with no field arithmetic
//! and no copy), points `k..n` carry Lagrange-interpolated parity.
//!
//! The field is GF(2⁸) with the usual AES-adjacent reduction polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D), log/exp tables built once. Addition
//! is XOR, so "any `k` chunks suffice" costs one multiply and one XOR per
//! byte per support chunk — and nothing at all on the systematic fast
//! path.
//!
//! # The multiply-accumulate kernels
//!
//! A coefficient multiplies a chunk through two 16-entry tables, its
//! products with every low and every high nibble. The **SSSE3** kernel
//! looks up 16 bytes a step with `pshufb`; the **scalar** nibble loop is
//! its fallback and finishes its tail. The CPU picks, as for
//! `ba_crypto::sha256`'s compressors: asked once, cached, and nothing
//! else selects a kernel. The unit tests hold both to the plain `gf_mul`
//! loop. **Safety:** the kernel is the crate's only `unsafe` code; the
//! private `Kernel::Ssse3` value only comes out of the detection, and the
//! kernel touches memory through unaligned 16-byte loads and stores
//! inside its slices.

use ba_crypto::Bytes;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Reduction polynomial for GF(2⁸).
const GF_POLY: u16 = 0x11D;

struct Tables {
    /// `exp[i] = g^i` for generator `g = 2`, doubled so products of logs
    /// (each `< 255`) index without a modulo.
    exp: [u8; 512],
    log: [u8; 256],
}

static TABLES: OnceLock<Tables> = OnceLock::new();

fn tables() -> &'static Tables {
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= GF_POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

fn gf_div(a: u8, b: u8) -> u8 {
    debug_assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    t.exp[255 + t.log[a as usize] as usize - t.log[b as usize] as usize]
}

/// The Lagrange coefficient `∏_{u≠j} (e − xs[u]) / (xs[j] − xs[u])`
/// (subtraction is XOR): the weight of support point `xs[j]` when
/// evaluating the interpolating polynomial at `e`.
fn lagrange_coeff(e: u8, xs: &[u8], j: usize) -> u8 {
    let mut num = 1u8;
    let mut den = 1u8;
    for (u, &x) in xs.iter().enumerate() {
        if u == j {
            continue;
        }
        num = gf_mul(num, e ^ x);
        den = gf_mul(den, xs[j] ^ x);
    }
    gf_div(num, den)
}

/// `coeff · x` for every low nibble `x` (`lo`) and every high nibble
/// `x << 4` (`hi`). Multiplication distributes over XOR, so
/// `coeff · s = lo[s & 15] ^ hi[s >> 4]` — two 16-entry lookups per byte,
/// and 32 field products to build instead of 256.
struct NibbleTables {
    lo: [u8; 16],
    hi: [u8; 16],
}

impl NibbleTables {
    fn new(coeff: u8) -> NibbleTables {
        let mut tables = NibbleTables {
            lo: [0; 16],
            hi: [0; 16],
        };
        for x in 0..16u8 {
            tables.lo[x as usize] = gf_mul(coeff, x);
            tables.hi[x as usize] = gf_mul(coeff, x << 4);
        }
        tables
    }
}

/// Which multiply-accumulate kernel [`fma_bytes`] runs — the same dispatch
/// rule as `ba_crypto::sha256`'s backends: the CPU is asked once
/// (`is_x86_feature_detected!("ssse3")`, cached in a static) and nothing
/// else selects a kernel — no cargo feature, environment variable or
/// option.
///
/// Private, and `Ssse3` is only ever produced by [`Kernel::detect`] after
/// the CPU reported SSSE3 — the invariant the `unsafe` call in
/// [`Kernel::fma_prefix`] relies on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Ssse3,
}

impl Kernel {
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            static DETECTED: OnceLock<Kernel> = OnceLock::new();
            *DETECTED.get_or_init(|| {
                if is_x86_feature_detected!("ssse3") {
                    Kernel::Ssse3
                } else {
                    Kernel::Scalar
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Scalar
    }

    /// Accumulates `tables`' products into the longest prefix of `acc` the
    /// kernel covers in whole steps (`acc` and `src` of equal length) and
    /// returns its length; the scalar kernel covers nothing here.
    fn fma_prefix(self, acc: &mut [u8], src: &[u8], tables: &NibbleTables) -> usize {
        match self {
            Kernel::Scalar => 0,
            // SAFETY: `Ssse3` only comes out of `detect`, which saw the CPU
            // report SSSE3; the kernel touches memory only through
            // unaligned 16-byte loads and stores inside `acc` and `src`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Ssse3 => unsafe { fma_ssse3(acc, src, tables) },
        }
    }
}

/// Accumulates `coeff · src[b]` into `acc[b]` for every byte position.
/// `src` shorter than `acc` is implicitly zero-padded (the tail
/// contributes nothing). The SSSE3 kernel, where the CPU has it, takes 16
/// bytes a step; the scalar nibble loop is its fallback and finishes its
/// tail.
fn fma_bytes(acc: &mut [u8], coeff: u8, src: &[u8]) {
    fma_on(Kernel::detect(), acc, coeff, src);
}

/// [`fma_bytes`] through `kernel`.
fn fma_on(kernel: Kernel, acc: &mut [u8], coeff: u8, src: &[u8]) {
    if coeff == 0 {
        return;
    }
    let len = acc.len().min(src.len());
    let (acc, src) = (&mut acc[..len], &src[..len]);
    let tables = NibbleTables::new(coeff);
    let done = kernel.fma_prefix(acc, src, &tables);
    fma_scalar(&mut acc[done..], &src[done..], &tables);
}

/// The portable kernel: one nibble-table pair lookup and one XOR per byte.
fn fma_scalar(acc: &mut [u8], src: &[u8], tables: &NibbleTables) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a ^= tables.lo[(s & 0x0F) as usize] ^ tables.hi[(s >> 4) as usize];
    }
}

/// The SSSE3 kernel: `pshufb` looks up 16 low nibbles and 16 high nibbles
/// at once. Covers the longest multiple of 16 of `acc.len()` (which must
/// equal `src.len()`) and returns it; the caller finishes the rest.
///
/// # Safety
/// The CPU must support SSSE3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn fma_ssse3(acc: &mut [u8], src: &[u8], tables: &NibbleTables) -> usize {
    use core::arch::x86_64::*;

    debug_assert_eq!(acc.len(), src.len());
    let whole = acc.len() / 16 * 16;
    // SAFETY: the caller guarantees SSSE3. Every pointer comes from a live
    // slice and is used for one unaligned 16-byte access inside it: the
    // two 16-byte tables, and the `chunks_exact` pieces of `acc` and `src`.
    unsafe {
        let lo = _mm_loadu_si128(tables.lo.as_ptr().cast());
        let hi = _mm_loadu_si128(tables.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        for (a, s) in acc[..whole]
            .chunks_exact_mut(16)
            .zip(src[..whole].chunks_exact(16))
        {
            let s = _mm_loadu_si128(s.as_ptr().cast());
            let low = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            let high = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi16(s, 4), mask));
            let sum = _mm_xor_si128(_mm_loadu_si128(a.as_ptr().cast()), _mm_xor_si128(low, high));
            _mm_storeu_si128(a.as_mut_ptr().cast(), sum);
        }
    }
    whole
}

/// The canonical systematic slices of a `len`-byte payload split `k`
/// ways: slice `i` is `i·cs .. (i + 1)·cs` clipped to `len`, with
/// `cs = ⌈len / k⌉` (at least 1), so the last slices may be short or
/// empty. Data chunk `i` is slice `i` of the payload, and
/// [`payload_digest`](crate::payload_digest) hashes exactly these slices.
pub fn data_ranges(k: usize, len: usize) -> impl Iterator<Item = Range<usize>> {
    let cs = chunk_size(k, len);
    (0..k).map(move |i| (i * cs).min(len)..((i + 1) * cs).min(len))
}

fn chunk_size(k: usize, len: usize) -> usize {
    len.div_ceil(k).max(1)
}

/// A systematic `(n, k)` erasure coder: `k` data chunks, `n − k` parity
/// chunks, any `k` of the `n` reconstruct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coder {
    k: usize,
    n: usize,
}

impl Coder {
    /// Creates an `(n, k)` coder.
    ///
    /// # Panics
    /// When `k` is zero, `k > n`, or `n > 256` (chunk indices must be
    /// distinct GF(256) points).
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k >= 1, "at least one data chunk is required");
        assert!(k <= n, "cannot need more chunks ({k}) than exist ({n})");
        assert!(n <= 256, "chunk indices must be distinct GF(256) points");
        Coder { k, n }
    }

    /// Chunks needed to reconstruct.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total coded chunks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes per chunk for an `len`-byte payload (the last data chunk may
    /// be shorter on the wire; it is implicitly zero-padded for coding).
    pub fn chunk_size(&self, len: usize) -> usize {
        chunk_size(self.k, len)
    }

    /// Splits `payload` into `n` coded chunks. The first `k` are zero-copy
    /// slices of `payload`'s allocation; the parity chunks are fresh
    /// `chunk_size`-byte allocations.
    pub fn encode(&self, payload: &Bytes) -> Vec<Bytes> {
        let cs = self.chunk_size(payload.len());
        let mut chunks = Vec::with_capacity(self.n);
        chunks.extend(data_ranges(self.k, payload.len()).map(|range| payload.slice(range)));
        let xs: Vec<u8> = (0..self.k as u16).map(|x| x as u8).collect();
        for p in self.k..self.n {
            let mut parity = vec![0u8; cs];
            for (j, chunk) in chunks.iter().enumerate().take(self.k) {
                let coeff = lagrange_coeff(p as u8, &xs, j);
                fma_bytes(&mut parity, coeff, chunk);
            }
            chunks.push(Bytes::from(parity));
        }
        chunks
    }

    /// Reconstructs the `len`-byte payload from any `k` of the coded
    /// chunks (`chunks[i]` holds the chunk at point `i`, `None` when
    /// missing). Returns `None` when fewer than `k` chunks are present.
    ///
    /// When every data chunk is present at its [`data_ranges`] length and
    /// each starts where the one before it ends in the same allocation —
    /// the windows [`encode`](Coder::encode) cut, as a fault-free run
    /// delivers them — the payload is that one window
    /// ([`Bytes::joined`]): no bytes move. Otherwise each data slice is
    /// written into one fresh `len`-byte allocation: chunks shorter than
    /// their slice are treated as zero-padded, longer ones as cut to it,
    /// present data chunks are copied through unchanged and only missing
    /// ones are decoded from the support chunks. Both paths return the
    /// same bytes, and neither does field arithmetic while every data
    /// chunk is present.
    pub fn reconstruct(&self, chunks: &[Option<Bytes>], len: usize) -> Option<Bytes> {
        assert_eq!(chunks.len(), self.n, "one slot per coded chunk expected");
        let present = chunks.iter().filter(|c| c.is_some()).count();
        if present < self.k {
            return None;
        }
        Some(
            self.data_window(chunks, len)
                .unwrap_or_else(|| self.copied(chunks, len)),
        )
    }

    /// The copy path of [`reconstruct`](Coder::reconstruct): every data
    /// slice written into one fresh `len`-byte allocation, from `chunks`
    /// holding at least `k` present chunks.
    fn copied(&self, chunks: &[Option<Bytes>], len: usize) -> Bytes {
        // Support set: the first k present chunks (deterministic, so every
        // node reconstructs identically from identical chunk sets).
        let support: Vec<usize> = (0..self.n)
            .filter(|&i| chunks[i].is_some())
            .take(self.k)
            .collect();
        let xs: Vec<u8> = support.iter().map(|&i| i as u8).collect();
        let mut payload: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        let buf = Arc::get_mut(&mut payload).expect("a fresh allocation is unshared");
        for (i, range) in data_ranges(self.k, len).enumerate() {
            let out = &mut buf[range];
            if let Some(chunk) = &chunks[i] {
                let copied = chunk.len().min(out.len());
                out[..copied].copy_from_slice(&chunk[..copied]);
                continue;
            }
            for (j, &s) in support.iter().enumerate() {
                let coeff = lagrange_coeff(i as u8, &xs, j);
                fma_bytes(
                    out,
                    coeff,
                    chunks[s].as_ref().expect("support chunk present"),
                );
            }
        }
        Bytes::from(payload)
    }

    /// The window the `k` data chunks already are — each present at its
    /// canonical length, adjacent to the one before in one allocation —
    /// or `None` when reconstruction has to copy.
    fn data_window(&self, chunks: &[Option<Bytes>], len: usize) -> Option<Bytes> {
        let mut data = chunks
            .iter()
            .zip(data_ranges(self.k, len))
            .map(|(chunk, range)| chunk.as_ref().filter(|c| c.len() == range.len()));
        let first = data.next()??.clone();
        data.try_fold(first, |window, chunk| window.joined(chunk?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::rng::SimRng;

    fn payload(len: usize, seed: u64) -> Bytes {
        let mut rng = SimRng::new(seed);
        Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
    }

    /// The multiply-accumulate loop before the nibble tables: one full
    /// field multiplication per byte.
    fn fma_reference(acc: &mut [u8], coeff: u8, src: &[u8]) {
        for (a, &s) in acc.iter_mut().zip(src) {
            *a ^= gf_mul(coeff, s);
        }
    }

    /// The scalar kernel, and SSSE3 where this CPU has it.
    fn kernels() -> Vec<Kernel> {
        let mut out = vec![Kernel::Scalar];
        if Kernel::detect() != Kernel::Scalar {
            out.push(Kernel::detect());
        }
        out
    }

    #[test]
    fn every_kernel_matches_the_field_multiplication() {
        // Two buffers read at every offset in 0..4 and a few far ones, so
        // the kernels see misaligned sub-slices of a larger allocation.
        let base = payload(200, 17).to_vec();
        let start = payload(200, 18).to_vec();
        for coeff in 0..=255u8 {
            for acc_len in 0..=80usize {
                for (offset, short) in [(0, 0), (1, 0), (3, 1), (7, 5), (13, 16), (15, 80)] {
                    let src = &base[offset + 2..offset + 2 + acc_len.saturating_sub(short)];
                    let mut expected = start[offset..offset + acc_len].to_vec();
                    fma_reference(&mut expected, coeff, src);
                    for kernel in kernels() {
                        let mut buf = start.clone();
                        fma_on(kernel, &mut buf[offset..offset + acc_len], coeff, src);
                        assert_eq!(
                            &buf[offset..offset + acc_len],
                            &expected[..],
                            "{kernel:?} coeff {coeff} len {acc_len} offset {offset} short {short}"
                        );
                        // Nothing outside `acc` moved.
                        assert_eq!(&buf[..offset], &start[..offset]);
                        assert_eq!(&buf[offset + acc_len..], &start[offset + acc_len..]);
                    }
                }
            }
        }
    }

    #[test]
    fn parity_alone_reconstructs_a_length_off_the_kernel_step() {
        // 597 = 4 · 150 − 3: chunks of 150 bytes (nine kernel steps and a
        // 6-byte tail) and a 147-byte last data slice.
        let coder = Coder::new(4, 12);
        let p = payload(597, 19);
        let chunks = coder.encode(&p);
        let mut have: Vec<Option<Bytes>> = vec![None; 12];
        for i in [5, 7, 10, 11] {
            have[i] = Some(chunks[i].clone());
        }
        assert_eq!(coder.reconstruct(&have, 597).expect("4 chunks held"), p);
    }

    #[test]
    fn gf_tables_are_consistent() {
        for a in 1..=255u8 {
            assert_eq!(gf_div(gf_mul(a, 7), 7), a);
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // 2·x^7 overflows to x^8, which reduces to 0x11D's low byte.
        assert_eq!(gf_mul(2, 0x80), 0x1D);
    }

    #[test]
    fn systematic_chunks_are_zero_copy() {
        let coder = Coder::new(4, 6);
        let p = payload(64, 1);
        let chunks = coder.encode(&p);
        assert_eq!(chunks.len(), 6);
        for chunk in &chunks[..4] {
            assert!(chunk.shares_allocation(&p));
        }
        assert!(!chunks[4].shares_allocation(&p));
        assert_eq!(
            chunks[..4]
                .iter()
                .flat_map(|c| c.iter())
                .copied()
                .collect::<Vec<u8>>(),
            p.to_vec()
        );
    }

    #[test]
    fn fault_free_reconstruction_is_zero_copy() {
        for (len, k, n) in [(64, 4, 6), (100, 3, 6), (2, 4, 9), (0, 3, 5)] {
            let coder = Coder::new(k, n);
            let p = payload(len, len as u64);
            let have: Vec<Option<Bytes>> = coder.encode(&p).into_iter().map(Some).collect();
            let out = coder.reconstruct(&have, len).expect("every chunk held");
            assert_eq!(out, p, "len {len} k {k} n {n}");
            assert!(out.shares_allocation(&p), "len {len} k {k} n {n}");
            assert_eq!(out.as_ptr(), p.as_ptr(), "len {len} k {k} n {n}");
        }
        // Without its parity chunks too, and inside a larger allocation.
        let coder = Coder::new(3, 7);
        let outer = payload(40, 9);
        let p = outer.slice(5..35);
        let mut have: Vec<Option<Bytes>> = coder.encode(&p).into_iter().map(Some).collect();
        have[3..].fill(None);
        let out = coder.reconstruct(&have, 30).expect("the data chunks held");
        assert_eq!(out, p);
        assert_eq!(out.as_ptr(), p.as_ptr());
        assert_eq!(out.len(), 30);
    }

    /// What one data slot holds in [`prop_reconstruct_equals_the_copy_path`].
    #[derive(Clone, Copy, Debug)]
    enum Slot {
        /// The window `encode` cut.
        Window,
        /// The same bytes in an allocation of their own.
        Copy,
        /// One byte short: a shorter window of the same allocation.
        Short,
        /// One byte long, in an allocation of its own.
        Long,
        /// Missing, for parity to stand in.
        Missing,
    }

    #[test]
    fn prop_reconstruct_equals_the_copy_path() {
        ba_crypto::testkit::run_cases(256, 0x2C0D, |gen| {
            let n = gen.usize_in(1, 13);
            let k = gen.usize_in(1, n + 1);
            let len = match gen.usize_in(0, 5) {
                0 => 0,
                1 => 1,
                2 => gen.usize_in(0, k),
                // Not a multiple of k (when k > 1).
                3 => k * gen.usize_in(1, 9) + if k > 1 { gen.usize_in(1, k) } else { 0 },
                _ => gen.usize_in(0, 301),
            };
            let p = payload(len, gen.u64());
            let coder = Coder::new(k, n);
            let chunks = coder.encode(&p);
            let mut have: Vec<Option<Bytes>> = chunks.iter().cloned().map(Some).collect();
            // Half the cases hold every window `encode` cut; the rest
            // tamper with each data slot at random.
            let tamper = gen.bool();
            let mut zero_copy = true;
            for (i, range) in data_ranges(k, len).enumerate() {
                let chunk = &chunks[i];
                let slot = match gen.usize_in(0, 8) {
                    _ if !tamper => Slot::Window,
                    0 => Slot::Copy,
                    1 if !chunk.is_empty() => Slot::Short,
                    2 => Slot::Long,
                    3 => Slot::Missing,
                    _ => Slot::Window,
                };
                have[i] = match slot {
                    Slot::Window => Some(chunk.clone()),
                    Slot::Copy => Some(Bytes::copy_from_slice(chunk)),
                    Slot::Short => Some(chunk.slice(0..chunk.len() - 1)),
                    Slot::Long => Some(Bytes::from([&chunk[..], &[0xA5]].concat())),
                    Slot::Missing => None,
                };
                // An empty copy joins like an empty window: nothing to move.
                zero_copy &= match slot {
                    Slot::Window => true,
                    Slot::Copy => range.is_empty(),
                    Slot::Short | Slot::Long | Slot::Missing => false,
                };
            }
            // Parity chunks drop out at random, at times below k present.
            for parity in &mut have[k..] {
                if gen.bool() {
                    *parity = None;
                }
            }
            let present = have.iter().filter(|c| c.is_some()).count();
            let out = coder.reconstruct(&have, len);
            if present < k {
                assert_eq!(out, None);
                return;
            }
            let out = out.expect("k chunks held");
            assert_eq!(out, coder.copied(&have, len), "len {len} k {k} n {n}");
            assert_eq!(out.len(), len);
            if len > 0 {
                assert_eq!(
                    out.shares_allocation(&p),
                    zero_copy,
                    "len {len} k {k} n {n}"
                );
            }
        });
    }

    #[test]
    fn any_k_chunks_reconstruct() {
        let coder = Coder::new(3, 6);
        let p = payload(100, 2);
        let chunks = coder.encode(&p);
        // Every 3-subset of the 6 chunks reconstructs the exact payload.
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let mut have: Vec<Option<Bytes>> = vec![None; 6];
                    for i in [a, b, c] {
                        have[i] = Some(chunks[i].clone());
                    }
                    let out = coder.reconstruct(&have, 100).expect("3 chunks suffice");
                    assert_eq!(out, p, "subset {{{a},{b},{c}}}");
                }
            }
        }
    }

    #[test]
    fn below_k_chunks_fail() {
        let coder = Coder::new(3, 6);
        let p = payload(50, 3);
        let chunks = coder.encode(&p);
        let mut have: Vec<Option<Bytes>> = vec![None; 6];
        have[1] = Some(chunks[1].clone());
        have[5] = Some(chunks[5].clone());
        assert_eq!(coder.reconstruct(&have, 50), None);
    }

    #[test]
    fn uneven_and_tiny_payloads_roundtrip() {
        for (len, k, n) in [
            (1, 4, 9),
            (7, 3, 5),
            (97, 16, 25),
            (256, 1, 4),
            (13, 13, 16),
        ] {
            let coder = Coder::new(k, n);
            let p = payload(len, len as u64);
            let chunks = coder.encode(&p);
            // Parity-only support (hardest case: every data chunk missing
            // where possible).
            let mut have: Vec<Option<Bytes>> = vec![None; n];
            let parity = n - k;
            for i in (0..n).rev().take(k.min(parity) + k.saturating_sub(parity)) {
                have[i] = Some(chunks[i].clone());
            }
            let mut count = have.iter().filter(|c| c.is_some()).count();
            for i in 0..n {
                if count >= k {
                    break;
                }
                if have[i].is_none() {
                    have[i] = Some(chunks[i].clone());
                    count += 1;
                }
            }
            assert_eq!(
                coder.reconstruct(&have, len).expect("k chunks held"),
                p,
                "len {len} k {k} n {n}"
            );
        }
    }
}
