//! Deterministic parallel parameter sweeps.
//!
//! Every experiment cell in this workspace — one `(n, t, scheme, seed)`
//! simulation — is self-contained: it builds its own
//! [`KeyRegistry`](ba_crypto::KeyRegistry), actors and engine, and shares
//! no mutable state with other cells. That makes a sweep embarrassingly
//! parallel, and the persistent [`WorkerPool`] lets us exploit it with no
//! external dependency (the crates-io registry is unreachable in this
//! environment, so a rayon-style crate is not an option) and without
//! spawning fresh threads per sweep: cells fan out over the same parked
//! workers the engine's intra-phase stepping uses.
//!
//! Determinism is preserved by construction:
//!
//! * each cell's seed is derived from the sweep base seed and the cell
//!   *index* ([`derive_seed`]), never from scheduling order;
//! * workers pull cell indices from the pool's dispenser but every result
//!   is written into the slot for its index, so the output `Vec` is
//!   identical for any thread count — including `threads == 1`, which runs
//!   inline with no threads at all;
//! * the crypto work counters ([`ba_crypto::stats`]) are thread-local and
//!   each cell runs wholly on one worker thread, so per-cell
//!   [`Metrics`](crate::metrics::Metrics) deltas are exact.
//!
//! Cells are free to use intra-phase parallelism themselves (nested
//! [`WorkerPool::run_chunks`] cannot deadlock — see the
//! [`pool`](crate::pool) docs), though sweeps usually saturate the machine
//! with cell-level parallelism alone.
//!
//! ```
//! use ba_sim::sweep::{run_sweep, derive_seed};
//!
//! let cells: Vec<u64> = (0..8).collect();
//! let seq = run_sweep(&cells, 1, |i, &c| c + derive_seed(7, i as u64) % 10);
//! let par = run_sweep(&cells, 4, |i, &c| c + derive_seed(7, i as u64) % 10);
//! assert_eq!(seq, par);
//! ```

use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

pub use ba_crypto::rng::derive_seed;

use crate::pool::WorkerPool;

/// Number of worker threads a sweep should use by default: the
/// `BA_SWEEP_THREADS` environment variable when set, otherwise the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("BA_SWEEP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `run_cell` over every cell, fanning across the shared
/// [`WorkerPool`] with at most `threads` concurrent executors (the caller
/// participates), and returns the results in cell order.
///
/// `run_cell` receives the cell's index (use it with [`derive_seed`] for a
/// schedule-independent per-cell seed) and a reference to the cell. With
/// `threads <= 1` (or fewer than two cells) everything runs inline on the
/// calling thread; the returned vector is identical either way.
///
/// # Panics
/// Propagates a panic from any cell.
pub fn run_sweep<I, R, F>(cells: &[I], threads: usize, run_cell: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    if threads <= 1 || cells.len() <= 1 {
        return cells
            .iter()
            .enumerate()
            .map(|(i, c)| run_cell(i, c))
            .collect();
    }

    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        WorkerPool::shared().run_chunks_capped(cells.len(), threads, |i| {
            let r = run_cell(i, &cells[i]);
            *slots[i].lock().expect("sweep slot poisoned") = Some(r);
        });
    }));
    if result.is_err() {
        // Keep the historical panic contract (scoped-thread join wording)
        // that callers and tests match on.
        panic!("sweep worker panicked");
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every cell index was dispensed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Inbox, Outbox};
    use crate::engine::Simulation;
    use ba_crypto::keys::{KeyRegistry, SchemeKind};
    use ba_crypto::{Chain, ProcessId, Value};

    #[test]
    fn parallel_results_match_sequential_in_order() {
        let cells: Vec<u64> = (0..37).collect();
        let run = |threads| run_sweep(&cells, threads, |i, &c| (i as u64) * 1000 + c);
        let seq = run(1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
        assert_eq!(seq[5], 5005);
    }

    #[test]
    fn empty_and_single_cell_sweeps() {
        let none: Vec<u32> = Vec::new();
        assert!(run_sweep(&none, 4, |_, &c| c).is_empty());
        assert_eq!(run_sweep(&[9u32], 4, |i, &c| (i, c)), vec![(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn cell_panic_propagates() {
        let cells: Vec<u32> = (0..8).collect();
        run_sweep(&cells, 4, |_, &c| {
            assert!(c < 4, "boom");
            c
        });
    }

    #[test]
    fn derive_seed_is_schedule_independent() {
        let cells: Vec<()> = vec![(); 16];
        let seeds = |threads| run_sweep(&cells, threads, |i, _| derive_seed(99, i as u64));
        assert_eq!(seeds(1), seeds(8));
    }

    /// A relay actor driving real chain verification, to check that
    /// parallel cells produce byte-identical metrics (including the
    /// crypto counters) to a sequential run.
    #[derive(Debug)]
    struct Relay {
        registry: KeyRegistry,
        id: ProcessId,
        n: u32,
        best: Option<Chain>,
    }

    impl Actor<Chain> for Relay {
        fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
            if phase == 1 && self.id == ProcessId(0) {
                let mut c = Chain::new(1, Value::ONE);
                c.sign_and_append(&self.registry.signer(self.id));
                out.broadcast_all(self.n as usize, c.clone());
                self.best = Some(c);
                return;
            }
            for env in inbox {
                if env.payload.verify(&self.registry.verifier()).is_ok()
                    && !env.payload.contains_signer(self.id)
                {
                    let mut relay = env.payload.clone();
                    relay.sign_and_append(&self.registry.signer(self.id));
                    out.broadcast_all(self.n as usize, relay);
                }
                self.best.get_or_insert_with(|| env.payload.clone());
            }
        }
        fn decision(&self) -> Option<Value> {
            self.best.as_ref().map(|c| c.value())
        }
    }

    fn run_cell(seed: u64) -> (Vec<Option<Value>>, u64, u64, u64) {
        let n = 4u32;
        let registry = KeyRegistry::new(n as usize, seed, SchemeKind::Fast);
        let actors: Vec<Box<dyn Actor<Chain>>> = (0..n)
            .map(|i| {
                Box::new(Relay {
                    registry: registry.clone(),
                    id: ProcessId(i),
                    n,
                    best: None,
                }) as Box<dyn Actor<Chain>>
            })
            .collect();
        let outcome = Simulation::new(actors).run(3);
        (
            outcome.decisions,
            outcome.metrics.crypto.hash_invocations,
            outcome.metrics.crypto.cache_hits,
            outcome.metrics.crypto.cache_misses,
        )
    }

    #[test]
    fn simulation_cells_are_deterministic_across_thread_counts() {
        let cells: Vec<u64> = (0..6).collect();
        let run = |threads| run_sweep(&cells, threads, |i, _| run_cell(derive_seed(5, i as u64)));
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq, par);
        // The relay pattern must actually verify chains — in full, every
        // time: a registry-less run has no barrier to stamp them.
        assert!(seq
            .iter()
            .all(|(_, hashes, hits, full)| *hashes > 0 && *hits == 0 && *full > 0));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
