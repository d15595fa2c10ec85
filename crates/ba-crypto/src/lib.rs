//! Cryptographic substrate for the Dolev–Reischuk Byzantine Agreement
//! reproduction.
//!
//! The paper ("Bounds on Information Exchange for Byzantine Agreement",
//! PODC 1982 / JACM 1985) assumes an authentication (signature) scheme with
//! the following properties:
//!
//! * every receiver recognizes a message as signed by its signer;
//! * nobody can change the contents of a signed message or the signature
//!   undetectably;
//! * faulty processors may collude, so any message carrying only signatures
//!   of faulty processors can be produced by them — but they can never forge
//!   a *correct* processor's signature on new content.
//!
//! This crate provides that abstraction for an in-process simulation:
//!
//! * [`sha256`] — a from-scratch FIPS 180-4 SHA-256 implementation (SHA-NI
//!   kernel where the CPU has one, portable compressor elsewhere);
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104);
//! * [`keys`] — a [`KeyRegistry`] holding one secret per
//!   processor. Actors receive a [`Signer`] handle bound to a
//!   single identity, so a Byzantine actor can replay signatures it has seen
//!   but cannot mint another identity's signature on new content;
//! * [`chain`] — signature chains (value + ordered list of signatures, each
//!   covering the value and all previous signatures), the workhorse of the
//!   paper's authenticated algorithms;
//! * [`stamp`] — barrier verification: a phase barrier's one check of a
//!   chain or a signed byte window, stamped so every recipient's copy is
//!   an O(1) hit;
//! * [`wire`] — a tiny deterministic binary encoding used as the canonical
//!   byte representation that signatures cover, plus the internal
//!   [`Bytes`] buffer type;
//! * [`rng`], [`testkit`], [`stats`] — a seedable splitmix64 generator, a
//!   deterministic property-test harness, and thread-local work counters
//!   (hash invocations, signature verifications, stamp hits) so the
//!   simulation can account for cryptographic cost precisely.
//!
//! Two interchangeable schemes are offered (see [`keys::SchemeKind`]):
//! `Hmac` (full 256-bit tags) and `Fast` (64-bit keyed-mix tags) for large
//! parameter sweeps. Both enforce the unforgeability contract above; the
//! substitution from real public-key signatures is documented in DESIGN.md.
//! A third, `Oral`, drops it on purpose: its signatures carry no tag, which
//! is the unauthenticated model of the paper's Corollary 1.
//!
//! # Example
//!
//! ```
//! use ba_crypto::keys::{KeyRegistry, SchemeKind};
//! use ba_crypto::{ProcessId, Value};
//!
//! let registry = KeyRegistry::new(4, 0xfeed, SchemeKind::Hmac);
//! let signer = registry.signer(ProcessId(2));
//! let sig = signer.sign(b"hello");
//! assert!(registry.verifier().verify(&sig, b"hello"));
//! assert!(!registry.verifier().verify(&sig, b"tampered"));
//! ```

// The one `unsafe fn` (the SHA-NI kernel in `sha256`) must spell out each
// unsafe operation and why it is sound.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod chain;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod rng;
pub mod sha256;
pub mod stamp;
pub mod stats;
pub mod testkit;
pub mod wire;

pub use chain::Chain;
pub use error::CryptoError;
#[allow(deprecated)]
pub use keys::VerifierCache;
pub use keys::{KeyRegistry, SchemeKind, Signature, Signer, Verifier};
pub use stamp::{Barrier, WindowStamp};
pub use stats::CryptoStats;
pub use wire::Bytes;

use core::fmt;

/// Identity of a participating processor.
///
/// Processors are numbered `0..n`. By convention in this workspace the
/// transmitter (the paper's distinguished sender) is processor `0` unless a
/// run configures otherwise. The identity doubles as the signing identity in
/// the [`keys::KeyRegistry`].
///
/// ```
/// use ba_crypto::ProcessId;
/// let p = ProcessId(3);
/// assert_eq!(p.to_string(), "p3");
/// assert_eq!(p.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Returns the identity as a `usize` index, convenient for vector
    /// indexing in the simulator.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

/// A value the transmitter may send.
///
/// The paper's lower bounds use binary values; the algorithms generalize to
/// any finite value set `W`, so the reproduction uses a 64-bit payload.
/// `Value(0)` and `Value(1)` play the role of the paper's `0` and `1`.
///
/// ```
/// use ba_crypto::Value;
/// assert_eq!(Value::ZERO.0, 0);
/// assert_eq!(Value::ONE.0, 1);
/// assert_eq!(Value(7).to_string(), "v7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Value(pub u64);

impl Value {
    /// The paper's value `0` (also the fallback decision of Algorithm 1).
    pub const ZERO: Value = Value(0);
    /// The paper's value `1`.
    pub const ONE: Value = Value(1);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip_and_order() {
        let a = ProcessId(1);
        let b = ProcessId::from(2);
        assert!(a < b);
        assert_eq!(b.index(), 2);
        assert_eq!(format!("{a:?}"), "ProcessId(1)");
    }

    #[test]
    fn value_constants() {
        assert_ne!(Value::ZERO, Value::ONE);
        assert_eq!(Value::from(9), Value(9));
        assert_eq!(Value::default(), Value::ZERO);
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProcessId>();
        assert_send_sync::<Value>();
    }
}
