//! The Dolev–Reischuk Byzantine Agreement algorithms.
//!
//! This crate implements the paper's primary contribution — the five
//! algorithms of *Bounds on Information Exchange for Byzantine Agreement*
//! (PODC 1982 / JACM 1985) — plus the baselines it compares against and the
//! closed-form bounds it proves:
//!
//! * [`algorithm1`] — the bipartite signature-chain algorithm for
//!   `n = 2t + 1`: `t + 2` phases, at most `2t² + 2t` messages (Theorem 3);
//! * [`algorithm2`] — Algorithm 1 plus a label-ordered accumulation stage
//!   giving every correct processor a *transferable proof* (the common
//!   value with at least `t` other signatures) within `3t + 3` phases and
//!   `5t² + 5t` messages (Theorem 4);
//! * [`algorithm3`] — the active/passive architecture for large `n`:
//!   `t + 2s + 3` phases and `≤ 2n + 4tn/s + 3t²s` messages (Lemma 1),
//!   yielding `O(n + t³)` messages for `s = 4t` (Theorem 5) and the intro's
//!   phases-versus-messages trade-off;
//! * [`algorithm4`] — the 3-phase `√N × √N` grid exchange in which all but
//!   `2t` correct processors mutually exchange values using `O(N^1.5)`
//!   messages (Theorem 6);
//! * [`algorithm5`] — binary-tree dissemination with activation
//!   certificates ("proofs of work"), `O(t² + nt/s)` messages; `s = t`
//!   matches the `Ω(n + t²)` lower bound (Theorem 7);
//! * [`dolev_strong`] — the authenticated baseline of Dolev & Strong
//!   (reference 9 of the paper): `t + 1` phases, `O(n²)`/`O(nt)`
//!   messages;
//! * [`om`] — the unauthenticated Lamport–Shostak–Pease oral-messages
//!   baseline `OM(t)` (reference 14), used for the Corollary 1
//!   experiment;
//! * [`bounds`] — every closed-form bound the paper states, as plain
//!   functions the experiments print next to measured counts.
//!
//! Beyond the paper's letter, the crate ships what a downstream user
//! needs:
//!
//! * [`agree`](crate::agree()) — a one-call facade encoding Section 5's
//!   regime map (`n = 2t+1` → Algorithm 1; `n < α` → the Algorithm 2 +
//!   hand-off extension; `n ≥ α` → Algorithm 5);
//! * [`algorithm1_multi`] — the paper's "more than two values"
//!   modification of Algorithm 1;
//! * [`ic`] — interactive consistency (vector agreement) from parallel
//!   Dolev–Strong instances;
//! * [`checkable`] — the named target registry the `ba-check` model
//!   checker drives: each target compiles a declarative fault schedule
//!   onto one algorithm configuration and reports the agreement verdict
//!   next to the paper's message-bound predicate;
//! * [`trees`] — the complete-binary-tree bookkeeping behind Algorithm 5;
//! * [`fuzz`] — chain-aware payload fuzzers, what a schedule's `forge`
//!   behaviour sends to prove the validators hold up under arbitrary
//!   Byzantine bytes.
//!
//! All algorithms run on the [`ba_sim`] synchronous engine and sign with
//! [`ba_crypto`] chains. Every single-instance BA `run` takes one
//! [`RunOptions`] — fault schedule, key seed, signature scheme, worker
//! threads, trace switch — and compiles its [`ba_sim::ScheduleSpec`]
//! through [`ScheduleSpec::compile`](ba_sim::ScheduleSpec::compile)
//! with the module's adversary hook, which maps the protocol-specific
//! behaviours onto the adversaries relevant to its worst case
//! (equivocating transmitters, chain-withholding coalitions, corrupt group
//! roots, …).
//!
//! # Quickstart
//!
//! ```
//! use ba_algos::{algorithm1, RunOptions};
//! use ba_crypto::Value;
//!
//! // n = 2t + 1 = 9 processors, fault-free, transmitter sends 1.
//! let report = algorithm1::run(4, Value::ONE, RunOptions::default())?;
//! assert_eq!(report.verdict.agreed, Some(Value::ONE));
//! assert!(report.outcome.metrics.messages_by_correct <= ba_algos::bounds::alg1_max_messages(4));
//! # Ok::<(), ba_sim::AgreementViolation>(())
//! ```

pub mod agree;
pub mod algorithm1;
pub mod algorithm1_multi;
pub mod algorithm2;
pub mod algorithm3;
pub mod algorithm4;
pub mod algorithm5;
pub mod bounds;
pub mod checkable;
pub mod common;
pub mod dolev_strong;
pub mod fuzz;
pub mod ic;
pub mod om;
pub mod trees;

pub use agree::{agree, AgreeReport, Selected};
pub use checkable::{find_target, targets, CheckConfig, CheckOutcome, CheckSetup, CheckTarget};
pub use common::{domains, AlgoReport, RunOptions};
