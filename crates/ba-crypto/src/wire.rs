//! Deterministic binary encoding used as the canonical byte representation
//! that signatures cover, plus the [`Bytes`] buffer type it produces.
//!
//! Signing a structured message requires a canonical serialization: two
//! correct processors must produce the *same* bytes for the same logical
//! content, and a tampered encoding must fail to decode or verify. The
//! format is intentionally minimal: fixed-width big-endian integers and
//! length-prefixed byte strings, with no self-description.
//!
//! The traits are sealed by construction (plain functions over `Vec<u8>` /
//! byte slices) so the format cannot diverge between crates.
//!
//! [`Bytes`] is an in-tree replacement for the `bytes` crate's type of the
//! same name: an immutable, cheaply clonable byte string backed by
//! `Arc<[u8]>`. The workspace builds in offline environments where the
//! crates-io registry is unreachable, so core crates carry no external
//! dependencies at all.

use crate::error::CryptoError;
use crate::{ProcessId, Value};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable byte string: a shared `Arc<[u8]>`
/// allocation plus a window `[start, end)` into it.
///
/// Equality, ordering and hashing follow the *visible* window contents, so
/// a slice compares equal to an owned copy of the same bytes.
///
/// ```
/// use ba_crypto::wire::Bytes;
///
/// let b = Bytes::from(vec![1u8, 2, 3]);
/// let c = b.clone(); // O(1), shares the allocation
/// assert_eq!(&b[..2], &[1, 2]);
/// assert_eq!(b, c);
/// let s = b.slice(1..3); // O(1), still shares the allocation
/// assert_eq!(s, &[2u8, 3][..]);
/// ```
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty byte string.
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
            start: 0,
            end: 0,
        }
    }

    fn whole(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Copies a static slice into a buffer (the in-tree type always owns
    /// its storage; the name matches the `bytes` crate for drop-in use).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::whole(Arc::from(data))
    }

    /// Copies an arbitrary slice into a buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::whole(Arc::from(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// A zero-copy sub-window: the returned `Bytes` shares this buffer's
    /// allocation and exposes `range` of it. O(1) — no bytes move. This is
    /// what lets a megabyte payload be framed into erasure-coded chunks
    /// that are all views of the one payload allocation.
    ///
    /// # Panics
    /// Panics when `range` is out of bounds or decreasing, matching slice
    /// indexing semantics.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {}..{} out of range for {} bytes",
            range.start,
            range.end,
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// The inverse of [`slice`](Bytes::slice): `self` followed by `next`
    /// as one window, when that window already exists — `next` starts
    /// where `self` ends in the same allocation, or either side is empty.
    /// O(1) — no bytes move; `None` otherwise (a gap, an overlap, another
    /// allocation), where joining would take a copy.
    ///
    /// ```
    /// use ba_crypto::wire::Bytes;
    ///
    /// let b = Bytes::from((0u8..8).collect::<Vec<u8>>());
    /// let joined = b.slice(0..3).joined(&b.slice(3..8)).expect("adjacent");
    /// assert_eq!(joined, b);
    /// assert!(joined.shares_allocation(&b));
    /// assert_eq!(b.slice(0..3).joined(&b.slice(4..8)), None); // a gap
    /// let copy = Bytes::copy_from_slice(&b[3..8]);
    /// assert_eq!(b.slice(0..3).joined(&copy), None); // another allocation
    /// ```
    pub fn joined(&self, next: &Bytes) -> Option<Bytes> {
        if next.is_empty() {
            Some(self.clone())
        } else if self.is_empty() {
            Some(next.clone())
        } else if self.shares_allocation(next) && self.end == next.start {
            Some(Bytes {
                data: Arc::clone(&self.data),
                start: self.start,
                end: next.end,
            })
        } else {
            None
        }
    }

    /// Whether `other` is a view of the same underlying allocation —
    /// diagnostic for zero-copy invariants in tests.
    pub fn shares_allocation(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Whether `other` is the same range of the same allocation — so, the
    /// allocation being immutable, the same bytes without reading them.
    pub(crate) fn same_window(&self, other: &Bytes) -> bool {
        self.shares_allocation(other) && (self.start, self.end) == (other.start, other.end)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::whole(Arc::from(v))
    }
}

/// Zero-copy: the `Bytes` takes over the allocation (a `Vec` is copied
/// into a fresh one, since `Arc` keeps its counts beside the bytes).
impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Self {
        Bytes::whole(data)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &byte in self.iter().take(32) {
            write!(f, "{byte:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

/// Incremental encoder producing a canonical byte string.
///
/// ```
/// use ba_crypto::wire::Encoder;
/// use ba_crypto::{ProcessId, Value};
///
/// let mut enc = Encoder::new();
/// enc.u8(3).process_id(ProcessId(7)).value(Value::ONE);
/// let bytes = enc.finish();
/// assert_eq!(bytes.len(), 1 + 4 + 8);
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Creates an encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a processor identity (4 bytes).
    pub fn process_id(&mut self, id: ProcessId) -> &mut Self {
        self.u32(id.0)
    }

    /// Appends a value (8 bytes).
    pub fn value(&mut self, v: Value) -> &mut Self {
        self.u64(v.0)
    }

    /// Appends a length-prefixed byte string (`u32` length + data).
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.u32(data.len() as u32);
        self.buf.extend_from_slice(data);
        self
    }

    /// Appends raw bytes with no length prefix (caller knows the framing).
    pub fn raw(&mut self, data: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(data);
        self
    }

    /// Consumes the encoder, returning the immutable byte string.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Borrows the bytes written so far without consuming the encoder.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-style decoder over a byte slice.
///
/// Every accessor returns [`CryptoError::Truncated`] when the input is too
/// short, so malformed (possibly adversarial) messages surface as errors
/// rather than panics.
///
/// ```
/// use ba_crypto::wire::{Decoder, Encoder};
///
/// let mut enc = Encoder::new();
/// enc.u32(42).bytes(b"hi");
/// let buf = enc.finish();
/// let mut dec = Decoder::new(&buf);
/// assert_eq!(dec.u32()?, 42);
/// assert_eq!(dec.bytes()?, b"hi");
/// assert!(dec.is_exhausted());
/// # Ok::<(), ba_crypto::CryptoError>(())
/// ```
#[derive(Debug)]
pub struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { rest: data }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CryptoError> {
        if self.rest.len() < n {
            return Err(CryptoError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`CryptoError::Truncated`] if no bytes remain.
    pub fn u8(&mut self) -> Result<u8, CryptoError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    /// Returns [`CryptoError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CryptoError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    /// Returns [`CryptoError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CryptoError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a processor identity.
    ///
    /// # Errors
    /// Returns [`CryptoError::Truncated`] on short input.
    pub fn process_id(&mut self) -> Result<ProcessId, CryptoError> {
        Ok(ProcessId(self.u32()?))
    }

    /// Reads a value.
    ///
    /// # Errors
    /// Returns [`CryptoError::Truncated`] on short input.
    pub fn value(&mut self) -> Result<Value, CryptoError> {
        Ok(Value(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`CryptoError::Truncated`] if the prefix or body is short.
    pub fn bytes(&mut self) -> Result<&'a [u8], CryptoError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    /// Returns [`CryptoError::Truncated`] if fewer than `n` bytes remain.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CryptoError> {
        self.take(n)
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.rest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut enc = Encoder::with_capacity(64);
        enc.u8(7)
            .u32(0xdead_beef)
            .u64(0x0123_4567_89ab_cdef)
            .process_id(ProcessId(9))
            .value(Value(55))
            .bytes(b"payload")
            .raw(&[1, 2, 3]);
        let buf = enc.finish();

        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(dec.process_id().unwrap(), ProcessId(9));
        assert_eq!(dec.value().unwrap(), Value(55));
        assert_eq!(dec.bytes().unwrap(), b"payload");
        assert_eq!(dec.raw(3).unwrap(), &[1, 2, 3]);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let mut enc = Encoder::new();
        enc.bytes(b"abcdef");
        let buf = enc.finish();

        // Cut the body short.
        let mut dec = Decoder::new(&buf[..buf.len() - 1]);
        assert_eq!(dec.bytes(), Err(CryptoError::Truncated));

        // Cut the length prefix short.
        let mut dec = Decoder::new(&buf[..2]);
        assert_eq!(dec.bytes(), Err(CryptoError::Truncated));

        let mut dec = Decoder::new(&[]);
        assert_eq!(dec.u8(), Err(CryptoError::Truncated));
        assert_eq!(dec.u32(), Err(CryptoError::Truncated));
        assert_eq!(dec.u64(), Err(CryptoError::Truncated));
    }

    #[test]
    fn adversarial_length_prefix_is_rejected() {
        // Length prefix claims 4 GiB of data.
        let buf = [0xff, 0xff, 0xff, 0xff, 1, 2, 3];
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.bytes(), Err(CryptoError::Truncated));
    }

    #[test]
    fn encoder_len_tracks_writes() {
        let mut enc = Encoder::new();
        assert!(enc.is_empty());
        enc.u8(1);
        assert_eq!(enc.len(), 1);
        enc.bytes(b"xy");
        assert_eq!(enc.len(), 1 + 4 + 2);
        assert_eq!(enc.as_slice().len(), enc.len());
    }

    #[test]
    fn encoding_is_deterministic() {
        let build = || {
            let mut e = Encoder::new();
            e.process_id(ProcessId(3)).value(Value(4)).bytes(b"zz");
            e.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn bytes_type_behaves_like_a_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(&b[1..3], &[2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(b.as_ref(), &[1u8, 2, 3, 4][..]);
        let clone = b.clone();
        assert_eq!(b, clone);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"xy"), Bytes::copy_from_slice(b"xy"));
        assert_eq!(Bytes::default(), Bytes::new());
        // Ordering and hashing follow the byte content (BTreeSet keys).
        let mut set = std::collections::BTreeSet::new();
        set.insert(Bytes::from_static(b"b"));
        set.insert(Bytes::from_static(b"a"));
        assert_eq!(set.iter().next().unwrap(), &Bytes::from_static(b"a"));
    }

    #[test]
    fn an_arc_becomes_bytes_without_a_copy() {
        let data: Arc<[u8]> = Arc::from(&[7u8, 8, 9][..]);
        let b = Bytes::from(Arc::clone(&data));
        assert_eq!(b, &[7u8, 8, 9][..]);
        assert_eq!(b.as_ptr(), data.as_ptr());
    }

    #[test]
    fn slices_are_zero_copy_views() {
        let b = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let s = b.slice(4..12);
        assert_eq!(s.len(), 8);
        assert_eq!(&s[..], &(4u8..12).collect::<Vec<u8>>()[..]);
        assert!(b.shares_allocation(&s), "slice must not reallocate");
        // Slices of slices compose and stay views.
        let ss = s.slice(2..5);
        assert_eq!(&ss[..], &[6u8, 7, 8]);
        assert!(b.shares_allocation(&ss));
        // Content equality ignores provenance.
        assert_eq!(ss, Bytes::copy_from_slice(&[6, 7, 8]));
        assert!(!ss.shares_allocation(&Bytes::copy_from_slice(&[6, 7, 8])));
        // Empty and full-range slices behave.
        assert!(b.slice(3..3).is_empty());
        assert_eq!(b.slice(0..b.len()), b);
        // Hash/order follow content: a slice keys the same as its copy.
        let mut set = std::collections::BTreeSet::new();
        set.insert(b.slice(4..12));
        assert!(set.contains(&Bytes::copy_from_slice(&(4u8..12).collect::<Vec<u8>>())));
    }

    #[test]
    fn joined_is_the_inverse_of_slice() {
        let b = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let s = b.slice(4..20);
        // Adjacent windows join into the window they cover, at any depth.
        let whole = b.slice(0..4).joined(&s).expect("adjacent");
        let whole = whole.joined(&s.slice(16..16)).expect("empty next");
        let whole = whole.joined(&b.slice(20..32)).expect("adjacent");
        assert_eq!(whole, b);
        assert!(whole.same_window(&b));
        let inner = s.slice(0..5).joined(&s.slice(5..16)).expect("adjacent");
        assert!(inner.same_window(&s));
        // A gap, an overlap, the wrong order: no shared window.
        assert_eq!(b.slice(0..4).joined(&b.slice(5..9)), None);
        assert_eq!(b.slice(0..6).joined(&b.slice(5..9)), None);
        assert_eq!(b.slice(5..9).joined(&b.slice(0..5)), None);
        // The same bytes in another allocation do not join.
        let copy = Bytes::copy_from_slice(&b[4..8]);
        assert_eq!(b.slice(0..4).joined(&copy), None);
        assert_eq!(copy.joined(&b.slice(8..12)), None);
        // Empty on either side: the other side, whatever its allocation.
        let empty = Bytes::new();
        assert!(empty.joined(&s).expect("empty self").same_window(&s));
        assert!(s.joined(&empty).expect("empty next").same_window(&s));
        assert!(b
            .slice(3..3)
            .joined(&copy)
            .expect("empty self")
            .same_window(&copy));
        assert!(empty.joined(&Bytes::new()).expect("both empty").is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let _ = b.slice(1..5);
    }

    #[test]
    fn bytes_debug_truncates_long_buffers() {
        let short = format!("{:?}", Bytes::from_static(&[0xAB, 0xCD]));
        assert_eq!(short, "b\"abcd\"");
        let long = format!("{:?}", Bytes::from(vec![0u8; 100]));
        assert!(long.contains("(100 bytes)"));
    }

    mod props {
        use super::*;
        use crate::testkit::run_cases;

        #[test]
        fn prop_bytes_roundtrip() {
            run_cases(48, 0x11, |gen| {
                let data = gen.vec_u8(0, 256);
                let mut enc = Encoder::new();
                enc.bytes(&data);
                let buf = enc.finish();
                let mut dec = Decoder::new(&buf);
                assert_eq!(dec.bytes().unwrap(), &data[..]);
                assert!(dec.is_exhausted());
            });
        }

        #[test]
        fn prop_mixed_roundtrip() {
            run_cases(48, 0x12, |gen| {
                let (a, b, c) = (gen.u32(), gen.u64(), gen.rng().next_u8());
                let mut enc = Encoder::new();
                enc.u32(a).u64(b).u8(c);
                let buf = enc.finish();
                let mut dec = Decoder::new(&buf);
                assert_eq!(dec.u32().unwrap(), a);
                assert_eq!(dec.u64().unwrap(), b);
                assert_eq!(dec.u8().unwrap(), c);
            });
        }

        #[test]
        fn prop_random_garbage_never_panics() {
            run_cases(48, 0x13, |gen| {
                let data = gen.vec_u8(0, 64);
                let mut dec = Decoder::new(&data);
                // Exercise every accessor; none may panic.
                let _ = dec.u8();
                let _ = dec.u32();
                let _ = dec.bytes();
                let _ = dec.u64();
                let _ = dec.process_id();
                let _ = dec.value();
            });
        }
    }
}
