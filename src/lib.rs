//! A complete Rust reproduction of Dolev & Reischuk, *Bounds on
//! Information Exchange for Byzantine Agreement* (PODC 1982 / JACM 1985).
//!
//! This facade re-exports the four subsystem crates:
//!
//! * [`crypto`] ([`ba_crypto`]) — SHA-256/HMAC from scratch, the key
//!   registry modeling unforgeable signatures, signature chains;
//! * [`sim`] ([`ba_sim`]) — the deterministic synchronous phase engine,
//!   adversary combinators, metrics and the agreement checker;
//! * [`algos`] ([`ba_algos`]) — the paper's Algorithms 1–5, the
//!   Dolev–Strong and `OM(t)` baselines, closed-form bounds, the `agree`
//!   facade, multi-valued agreement and interactive consistency;
//! * [`model`] ([`ba_model`]) — the Section-2 formal model and the
//!   Theorem 1/2 lower-bound attacks, runnable;
//! * [`net`] ([`ba_net`]) — the multi-threaded message-passing runtime
//!   over an unreliable wire: retransmission with backoff, phase
//!   watchdogs, and graceful-degradation verdicts, equivalence-checked
//!   against the lock-step engine;
//! * [`ext`] ([`ba_ext`]) — the extension-protocol layer: agreement on
//!   arbitrary ℓ-byte payloads via digest agreement (a multi-valued
//!   checkable target as inner-BA) plus erasure-coded grid dissemination,
//!   with a schedule-independent bits-exchanged budget.
//!
//! # Example
//!
//! ```
//! use byzantine_agreement::algos::{agree, RunOptions};
//! use byzantine_agreement::crypto::Value;
//!
//! let report = agree(25, 2, Value::ONE, RunOptions::default())?;
//! assert_eq!(report.verdict.agreed, Some(Value::ONE));
//! # Ok::<(), byzantine_agreement::sim::AgreementViolation>(())
//! ```

pub use ba_algos as algos;
pub use ba_crypto as crypto;
pub use ba_ext as ext;
pub use ba_model as model;
pub use ba_net as net;
pub use ba_sim as sim;
