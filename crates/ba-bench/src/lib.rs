//! Benchmark harness: regenerates every quantitative claim of the paper.
//!
//! The paper has no numbered tables or figures — its evaluation content is
//! the set of theorem bounds. Each experiment `E1..E16` (see DESIGN.md's
//! experiment index) reruns the relevant algorithm/attack sweep and prints
//! a markdown table of *paper bound vs measured count*:
//!
//! | Id | Claim |
//! |----|-------|
//! | E1 | Theorem 1 — `≥ n(t+1)/4` signatures (authenticated) |
//! | E2 | Corollary 1 — `≥ n(t+1)/4` messages (unauthenticated) |
//! | E3 | Theorem 2 — `≥ max{⌈(n−1)/2⌉, (1+t/2)²}` messages |
//! | E4 | Theorem 3 — Algorithm 1: `t+2` phases, `≤ 2t²+2t` messages |
//! | E5 | Theorem 4 — Algorithm 2: `3t+3` phases, `≤ 5t²+5t` messages, proofs |
//! | E6 | Lemma 1 / Theorem 5 — Algorithm 3 sweep, `s = 4t` ⇒ `O(n+t³)` |
//! | E7 | Theorem 6 — Algorithm 4: 3 phases, `≤ 3(m−1)m²`, `≥ N−2t` succeed |
//! | E8 | Lemma 5 / Theorem 7 — Algorithm 5 sweep, `s = t` ⇒ `O(n+t²)` |
//! | E9 | Intro trade-off — phases vs messages via Algorithm 3 group size |
//! | E10 | Who wins — message comparison across all algorithms |
//! | E11 | Lemma 4 — Algorithm 5 activation audit |
//! | E12 | Ablation — proof-of-work activation gating vs always-activate |
//! | E13 | Algorithm 1 decision latency vs the `t+2` bound |
//! | E14 | Crypto cost — hashes, signature checks, barrier-stamp hit rate |
//! | E15 | Engine scaling — sequential vs parallel stepping, byte-identical |
//! | E16 | `ba-net` runtime under chaos vs the lock-step baseline |
//!
//! Run them with `cargo run -p ba-bench --bin experiments -- all` (or a
//! single id); ids fan out across worker threads by default (`--seq` /
//! `--threads N` to control it) with byte-identical stdout either way.
//! Wall-clock is timed in one place: the four `bench_*` binaries
//! (`cargo run -p ba-bench --release --bin bench_engine`, and
//! `bench_chain_verify`, `bench_service`, `bench_ext`) time their rows
//! with the in-tree [`microbench`] harness (no external dependency; the
//! registry is unreachable in the environments this workspace targets)
//! and regenerate the committed `BENCH_*.json` files through one
//! [`report`] writer and one [`cli::BenchArgs`] parser. The per-algorithm
//! runtimes are `bench_engine --section algorithms`; signing is the
//! `signing` table of `bench_chain_verify`.

pub mod cli;
pub mod experiments;
pub mod microbench;
pub mod report;
pub mod table;

pub use table::Table;
