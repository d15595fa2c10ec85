//! Executable version of the paper's formal model (Section 2) and its
//! lower-bound proofs (Theorems 1 and 2).
//!
//! The Dolev–Reischuk lower bounds are proved by *history splicing*: take
//! the fault-free histories `H` (transmitter sends 0) and `G` (transmitter
//! sends 1), then build a hybrid in which a faulty coalition behaves toward
//! a victim `p` exactly as in one history and toward everyone else as in
//! the other. If the coalition is small enough — which is exactly what an
//! algorithm exchanging too few signatures (Theorem 1) or too few messages
//! (Theorem 2) permits — the victim cannot distinguish the hybrid from the
//! fault-free history and disagrees with the rest.
//!
//! This crate makes those proofs *runnable*:
//!
//! The paper's *history* is [`ba_sim::Trace`], the type the
//! simulator records: a sequence of labeled phase graphs whose audits
//! (individual subhistories and their equality, sender sets, receipt
//! counts) are its methods, so every module here reads a run's trace as
//! it stands.
//!
//! * [`rules`] — Section 2's correctness rules `R_p` and decision
//!   functions `F_p`, and a generator that grows a history from them;
//! * [`replay`] — [`ReplayActor`](replay::ReplayActor), a faulty processor
//!   that replays scripted traffic, plus the split-world script
//!   construction used by both theorems;
//! * [`frugal`] — deliberately under-communicating protocols (a
//!   `k`-relay signed broadcast and a one-shot "quiet" broadcast) that sit
//!   below the bounds and are therefore attackable;
//! * [`theorem1`] — the signature-bound attack: audit `A(p)` (the set of
//!   processors `p` exchanged signatures with), corrupt it, splice `H`
//!   into `G`, and watch agreement break — and watch the same attack fail
//!   against Algorithm 1, whose every `A(p)` exceeds `t`;
//! * [`theorem2`] — the message-bound attack: starve a victim of all its
//!   incoming messages when its sender set is at most `t`, plus the
//!   `B`-set extraction experiment showing every faulty "ignorer" is owed
//!   `⌈1 + t/2⌉` messages by any correct algorithm.

pub mod frugal;
pub mod replay;
pub mod rules;
pub mod theorem1;
pub mod theorem2;
