//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! Written in-tree so the reproduction has no external crypto dependency;
//! validated against the FIPS/NIST test vectors in the unit tests and
//! against an independent bit-by-bit reference in the property tests.
//!
//! The implementation is an allocation-free streaming hasher; it is not
//! constant-time and must not be used outside this simulation.
//!
//! # Compression backends
//!
//! [`Sha256`] buffers at most one partial block and hands every run of
//! whole 64-byte blocks — straight from the caller's slice — to one of two
//! compressors that produce bit-identical states:
//!
//! * **`sha-ni`** (x86-64 only): the SHA extensions' `sha256rnds2` /
//!   `sha256msg1` / `sha256msg2` instructions, two rounds per instruction.
//! * **`scalar`**: the portable FIPS round function over a 16-word rolling
//!   message schedule.
//!
//! [`Sha256::digest`] of an input under 56 bytes skips the hasher: it
//! pads the input into one block on the stack and compresses it once.
//!
//! **Dispatch rule.** The first hasher created asks the CPU once
//! (`is_x86_feature_detected!` for `sha`, `sse2`, `ssse3` and `sse4.1`,
//! cached in a static) and every hasher after it takes the same answer:
//! `sha-ni` when all four are present, `scalar` otherwise and on every
//! other architecture. Nothing else selects a backend — no cargo feature,
//! environment variable or option — and [`backend`] reports the choice so
//! measurements can be labelled with it.
//!
//! **Why scalar stays.** It is the only path on hosts without the SHA
//! extensions, and it is the oracle: the unit tests run both compressors
//! over the same inputs (every length, split point and misalignment) and
//! require equal digests, which is what "bit-identical on both backends"
//! rests on.
//!
//! **Safety.** The kernel is the crate's only `unsafe` code. Calling it is
//! sound exactly when the CPU has the four features; the private `Backend`
//! type can only hold `ShaNi` out of `Backend::detect`, which checked them,
//! and the single call site matches on it. Inside, every memory access is
//! an unaligned load or store (`loadu`/`storeu`) at an in-bounds offset of
//! a live slice, so no alignment is assumed of the caller's input.

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of a SHA-256 message block in bytes.
pub const BLOCK_LEN: usize = 64;

/// Inputs shorter than this fit one padded block (see
/// [`Sha256::digest`]): a block less the padding's `0x80` and the 8-byte
/// bit length.
const ONE_BLOCK_LIMIT: usize = BLOCK_LEN - 8;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which compressor a hasher runs (see the module docs).
///
/// Private, and `ShaNi` is only ever produced by [`Backend::detect`] after
/// the CPU reported the features the kernel needs — the invariant the
/// `unsafe` call in [`Backend::compress`] relies on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Backend {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Backend {
    /// The backend this host runs: asked of the CPU once, then cached.
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            static DETECTED: std::sync::OnceLock<Backend> = std::sync::OnceLock::new();
            *DETECTED.get_or_init(|| {
                if is_x86_feature_detected!("sha")
                    && is_x86_feature_detected!("sse2")
                    && is_x86_feature_detected!("ssse3")
                    && is_x86_feature_detected!("sse4.1")
                {
                    Backend::ShaNi
                } else {
                    Backend::Scalar
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Scalar
    }

    fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => "sha-ni",
        }
    }

    /// Folds `blocks` (a whole number of 64-byte blocks) into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        match self {
            Backend::Scalar => compress_scalar(state, blocks),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `ShaNi` only comes out of `detect`, which saw the CPU
            // report `sha`, `sse2`, `ssse3` and `sse4.1` before this call;
            // the kernel reads and writes memory through `loadu`/`storeu`
            // only, so it needs nothing of `blocks` beyond its bounds.
            Backend::ShaNi => unsafe { compress_sha_ni(state, blocks) },
        }
    }
}

/// The compression backend every [`Sha256`] in this process runs:
/// `"sha-ni"` or `"scalar"` (see the module docs for the dispatch rule).
/// Read-only — it exists so benchmarks can label their rows.
///
/// ```
/// let name = ba_crypto::sha256::backend();
/// assert!(name == "sha-ni" || name == "scalar");
/// ```
pub fn backend() -> &'static str {
    Backend::detect().name()
}

/// [`Sha256::digest`] forced through the portable compressor, whatever the
/// host: the oracle the hardware kernel is compared against, exposed so the
/// per-backend bench rows can time it and check digest equality from
/// outside the crate. Not a way to configure hashing — nothing else can
/// route a hasher here.
#[doc(hidden)]
pub fn scalar_digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    Sha256::digest_with(Backend::Scalar, data)
}

/// Streaming SHA-256 hasher.
///
/// ```
/// use ba_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self::with_backend(Backend::detect())
    }

    fn with_backend(backend: Backend) -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
            backend,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            if self.buf_len < BLOCK_LEN {
                return;
            }
            rest = &rest[take..];
            let block = self.buf;
            self.compress_blocks(&block);
        }
        // Whole blocks are compressed where they lie; only the tail is
        // copied, to wait for the next call.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            self.compress_blocks(blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        crate::stats::record_hash();
        // Padding: the buffered tail, 0x80, zeros, and the 64-bit
        // big-endian bit length closing a block — one block when the tail
        // leaves room for the nine mandatory bytes, two otherwise.
        let mut padded = [0u8; 2 * BLOCK_LEN];
        padded[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        padded[self.buf_len] = 0x80;
        let end = if self.buf_len < ONE_BLOCK_LIMIT {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        let bit_len = self.total_len.wrapping_mul(8);
        padded[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_blocks(&padded[..end]);
        digest_bytes(self.state)
    }

    /// One-shot digest of a byte slice. An input under 56 bytes (a chain's
    /// prefix digest, a key derivation) is one padded block on the stack
    /// and one compression, with no hasher state around it; a longer one
    /// streams.
    ///
    /// ```
    /// use ba_crypto::sha256::Sha256;
    /// let d = Sha256::digest(b"");
    /// assert_eq!(d[0], 0xe3);
    /// ```
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        Self::digest_with(Backend::detect(), data)
    }

    /// [`digest`](Self::digest) on `backend`. An input under
    /// [`ONE_BLOCK_LIMIT`] bytes leaves room in its block for the padding's
    /// `0x80` and 8-byte length, so it is padded on the stack and
    /// compressed once; a longer one streams through a hasher. The length
    /// alone picks the path, and both give the same digest.
    fn digest_with(backend: Backend, data: &[u8]) -> [u8; DIGEST_LEN] {
        if data.len() >= ONE_BLOCK_LIMIT {
            let mut h = Sha256::with_backend(backend);
            h.update(data);
            return h.finalize();
        }
        crate::stats::record_hash();
        let mut block = [0u8; BLOCK_LEN];
        block[..data.len()].copy_from_slice(data);
        block[data.len()] = 0x80;
        let bit_len = (data.len() as u64) * 8;
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let mut state = H0;
        backend.compress(&mut state, &block);
        digest_bytes(state)
    }

    /// Folds a whole number of 64-byte blocks, read in place from
    /// `blocks`, into the state — the one way input reaches a compressor.
    fn compress_blocks(&mut self, blocks: &[u8]) {
        self.backend.compress(&mut self.state, blocks);
    }
}

/// The big-endian bytes of a final state.
fn digest_bytes(state: [u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable compressor: FIPS 180-4 §6.2.2 with the message schedule
/// kept as a 16-word ring (`W[i]` lives in `w[i % 16]`) filled straight
/// from the input block.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte word"));
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            if i >= 16 {
                let w15 = w[(i + 1) % 16];
                let w2 = w[(i + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i % 16] = w[i % 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) % 16])
                    .wrapping_add(s1);
            }
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i % 16]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// The SHA-NI compressor: the same function as [`compress_scalar`], four
/// rounds per loop step.
///
/// `sha256rnds2` wants the working variables as the lane pairs `ABEF` and
/// `CDGH`; the state is permuted into that layout once, every block runs
/// on it, and it is permuted back at the end. `w0..w3` hold the last four
/// 4-word vectors of the message schedule, kept in registers.
///
/// # Safety
/// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use core::arch::x86_64::*;

    // SAFETY: the caller guarantees the target features. Every pointer
    // below comes from a live slice and is used for one unaligned 16-byte
    // access inside it: words 0..4 and 4..8 of the 8-word `state`, the
    // four 16-byte `chunks_exact` pieces of a 64-byte block, and words
    // `4g..4g + 4` (g < 16) of the 64-word `K`.
    unsafe {
        // Big-endian words from little-endian lanes.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        let dcba = _mm_loadu_si128(state[..4].as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        // Four rounds on `W[4g..4g + 4]` (`$w`), two per instruction.
        macro_rules! rounds4 {
            ($w:expr, $g:expr) => {{
                let k = _mm_loadu_si128(K[4 * $g..4 * $g + 4].as_ptr().cast());
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        // The next schedule vector from the four before it, oldest first.
        macro_rules! schedule {
            ($w4:expr, $w3:expr, $w2:expr, $w1:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(
                        _mm_sha256msg1_epu32($w4, $w3),
                        _mm_alignr_epi8::<4>($w1, $w2),
                    ),
                    $w1,
                )
            };
        }

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [_mm_setzero_si128(); 4];
            for (w, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
                *w = _mm_shuffle_epi8(_mm_loadu_si128(bytes.as_ptr().cast()), byte_swap);
            }
            let [mut w0, mut w1, mut w2, mut w3] = w;
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for g in [4, 8, 12] {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(w0, g);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(w1, g + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(w2, g + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(w3, g + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        _mm_storeu_si128(
            state[..4].as_mut_ptr().cast(),
            _mm_blend_epi16::<0xF0>(feba, dchg),
        );
        _mm_storeu_si128(
            state[4..].as_mut_ptr().cast(),
            _mm_alignr_epi8::<8>(dchg, feba),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn fips_vector_one_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let whole = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"x"), Sha256::digest(b"y"));
        assert_ne!(Sha256::digest(b"ab"), Sha256::digest(b"a"));
    }

    #[test]
    fn default_equals_new() {
        let a = Sha256::default();
        let b = Sha256::new();
        assert_eq!(a.finalize(), b.finalize());
    }

    /// Independent reference: a direct, non-streaming transliteration of the
    /// FIPS pseudocode used to cross-check the production implementation.
    #[allow(clippy::needless_range_loop)]
    fn reference_sha256(msg: &[u8]) -> [u8; 32] {
        let mut padded = msg.to_vec();
        let bit_len = (msg.len() as u64) * 8;
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&bit_len.to_be_bytes());
        let mut state = super::H0;
        for block in padded.chunks_exact(64) {
            let mut w = [0u32; 64];
            for i in 0..16 {
                w[i] = u32::from_be_bytes([
                    block[4 * i],
                    block[4 * i + 1],
                    block[4 * i + 2],
                    block[4 * i + 3],
                ]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let mut v = state;
            for i in 0..64 {
                let s1 = v[4].rotate_right(6) ^ v[4].rotate_right(11) ^ v[4].rotate_right(25);
                let ch = (v[4] & v[5]) ^ (!v[4] & v[6]);
                let t1 = v[7]
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(super::K[i])
                    .wrapping_add(w[i]);
                let s0 = v[0].rotate_right(2) ^ v[0].rotate_right(13) ^ v[0].rotate_right(22);
                let maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
                let t2 = s0.wrapping_add(maj);
                v = [
                    t1.wrapping_add(t2),
                    v[0],
                    v[1],
                    v[2],
                    v[3].wrapping_add(t1),
                    v[4],
                    v[5],
                    v[6],
                ];
            }
            for i in 0..8 {
                state[i] = state[i].wrapping_add(v[i]);
            }
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn matches_reference_on_varied_lengths() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            assert_eq!(Sha256::digest(&data), reference_sha256(&data), "len {len}");
        }
    }

    /// Every compressor this host can run: the portable one always, the
    /// hardware one when detection picked it (the hardware half of each
    /// test below skips itself elsewhere).
    fn backends() -> Vec<Backend> {
        let mut all = vec![Backend::Scalar];
        if Backend::detect() != Backend::Scalar {
            all.push(Backend::detect());
        }
        all
    }

    /// `parts`, absorbed one `update` per part, on `backend`.
    fn digest_on(backend: Backend, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_backend(backend);
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 251) as u8).collect()
    }

    #[test]
    fn backend_name_and_scalar_oracle_are_exposed() {
        assert!(["scalar", "sha-ni"].contains(&backend()));
        assert_eq!(Sha256::digest(b"abc"), scalar_digest(b"abc"));
    }

    #[test]
    fn every_backend_matches_reference_at_every_short_length() {
        // 0..=300 crosses the one-block/two-block padding boundary
        // (55 | 56) in each of the first five blocks.
        let data = pattern(300);
        for len in 0..=data.len() {
            let expected = reference_sha256(&data[..len]);
            for backend in backends() {
                assert_eq!(
                    digest_on(backend, &[&data[..len]]),
                    expected,
                    "{backend:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn the_one_shot_digest_is_the_streamed_one_at_every_length() {
        // 0..=130 crosses the one-block limit (55 | 56) and the first two
        // block boundaries: the stack block and the hasher must agree.
        let data = pattern(130);
        for len in 0..=data.len() {
            let expected = reference_sha256(&data[..len]);
            for backend in backends() {
                let before = crate::stats::CryptoStats::snapshot();
                let one_shot = Sha256::digest_with(backend, &data[..len]);
                let hashes = crate::stats::CryptoStats::snapshot()
                    .since(&before)
                    .hash_invocations;
                assert_eq!(one_shot, expected, "{backend:?} len {len}");
                assert_eq!(hashes, 1, "{backend:?} len {len}: one digest counted");
                assert_eq!(
                    digest_on(backend, &[&data[..len]]),
                    expected,
                    "{backend:?} len {len} streamed"
                );
            }
        }
    }

    #[test]
    fn every_backend_streams_three_blocks_at_every_split() {
        let data = pattern(3 * BLOCK_LEN);
        let expected = reference_sha256(&data);
        for backend in backends() {
            for i in 0..=data.len() {
                assert_eq!(
                    digest_on(backend, &[&data[..i], &data[i..]]),
                    expected,
                    "{backend:?} split {i}"
                );
                for j in i..=data.len() {
                    assert_eq!(
                        digest_on(backend, &[&data[..i], &data[i..j], &data[j..]]),
                        expected,
                        "{backend:?} splits {i}, {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_backend_reads_input_at_every_misalignment() {
        // Slices starting 1..=15 bytes past a 16-byte boundary: the
        // kernel's loads must not assume alignment.
        let buf = pattern(16 + 15 + 4 * BLOCK_LEN + 5);
        let aligned = buf.as_ptr().align_offset(16);
        for shift in 1..=15 {
            let data = &buf[aligned + shift..][..4 * BLOCK_LEN + 5];
            assert_eq!(data.as_ptr() as usize % 16, shift);
            let expected = reference_sha256(data);
            for backend in backends() {
                assert_eq!(
                    digest_on(backend, &[data]),
                    expected,
                    "{backend:?} shift {shift}"
                );
            }
        }
    }

    mod props {
        use super::*;
        use crate::testkit::run_cases;

        #[test]
        fn prop_every_backend_matches_reference_up_to_a_mebibyte() {
            run_cases(8, 0x5C, |gen| {
                let data = gen.vec_u8(0, (1 << 20) + 1);
                let cut = gen.usize_in(0, data.len() + 1);
                let expected = reference_sha256(&data);
                for backend in backends() {
                    assert_eq!(digest_on(backend, &[&data]), expected, "{backend:?}");
                    assert_eq!(
                        digest_on(backend, &[&data[..cut], &data[cut..]]),
                        expected,
                        "{backend:?} cut {cut}"
                    );
                }
            });
        }

        #[test]
        fn prop_matches_reference() {
            run_cases(48, 0x5A, |gen| {
                let data = gen.vec_u8(0, 512);
                assert_eq!(Sha256::digest(&data), reference_sha256(&data));
            });
        }

        #[test]
        fn prop_streaming_equals_oneshot() {
            run_cases(48, 0x5B, |gen| {
                let a = gen.vec_u8(0, 200);
                let b = gen.vec_u8(0, 200);
                let mut h = Sha256::new();
                h.update(&a);
                h.update(&b);
                let mut joined = a.clone();
                joined.extend_from_slice(&b);
                assert_eq!(h.finalize(), Sha256::digest(&joined));
            });
        }
    }
}
