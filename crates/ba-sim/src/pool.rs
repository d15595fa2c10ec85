//! A persistent worker pool shared by the engine, parameter sweeps and the
//! `ba-net` runtime.
//!
//! The seed engine spawned fresh scoped threads for every phase of every
//! run, so a 10-phase simulation at 4 threads paid 40 thread creations —
//! and `BENCH_engine.json` showed parallel stepping *losing* to sequential
//! on every workload because of it. This pool replaces spawn-per-phase with
//! long-lived threads that park on a condition variable between dispatches:
//! a phase barrier costs one lock + notify instead of `threads` clones of a
//! whole OS thread.
//!
//! # Dispatch model
//!
//! [`run_chunks`](WorkerPool::run_chunks) executes `f(0), f(1), …,
//! f(count − 1)` with the *calling thread participating as a worker*:
//! chunk indices are handed out from a shared atomic dispenser
//! (generation-free work stealing — each call carries its own dispenser,
//! so no cross-call state to stamp), helper tasks are enqueued for parked
//! workers, and the caller drains the dispenser itself. Three properties
//! follow by construction:
//!
//! * **Progress without workers.** If every pool thread is busy (or the
//!   pool is empty), the caller simply runs all chunks inline; helper
//!   tasks that were never picked up are cancelled before returning. The
//!   pool can therefore be used re-entrantly — a simulation cell running
//!   inside a sweep worker can itself call `run_chunks` — with no
//!   deadlock possible, because no participant ever waits for a task that
//!   has not started.
//! * **Determinism is untouched.** The pool only decides *where* a chunk
//!   runs, never *what* it computes or in which order results are
//!   combined; callers keep all order-sensitive work on their own thread
//!   (the engine routes envelopes in actor-id order after the barrier, a
//!   sweep re-sorts results by cell index).
//! * **Panics propagate.** A panic in any chunk is captured, the dispenser
//!   is drained so other participants stop early, and the panic resumes on
//!   the caller after every participant has quiesced — matching
//!   `std::thread::scope` semantics.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on pool threads: far above any useful parallelism in this
/// workspace, low enough that a runaway caller cannot exhaust the host.
const MAX_POOL_WORKERS: usize = 64;

/// Handle to a worker pool. Cloning shares the same workers (`Arc`
/// inside); the process-wide instance from [`WorkerPool::shared`] is what
/// the engine, sweeps and `ba-net` use unless a specific pool is injected.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock().expect("pool state poisoned");
        f.debug_struct("WorkerPool")
            .field("max_workers", &self.inner.max_workers)
            .field("live", &st.live)
            .field("idle", &st.idle)
            .field("queued", &st.queue.len())
            .finish()
    }
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    max_workers: usize,
}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<ChunkTask>,
    /// Worker threads spawned so far (they never exit).
    live: usize,
    /// Workers currently parked on `work_ready`.
    idle: usize,
}

/// One helper's share of a `run_chunks` call: a lifetime-erased pointer to
/// the caller's chunk closure plus the call's control block.
struct ChunkTask {
    job: RawChunkFn,
    ctl: Arc<ChunkCtl>,
}

/// Lifetime-erased `&(dyn Fn(usize) + Sync)`.
///
/// Soundness: the pointee lives on the `run_chunks` caller's stack, and
/// `run_chunks` does not return (or unwind) until every `ChunkTask`
/// holding this pointer has either finished executing or been cancelled
/// while still queued — enforced by the `outstanding` latch in
/// [`ChunkCtl`]. No dereference can outlive the closure.
#[derive(Clone, Copy)]
struct RawChunkFn(*const (dyn Fn(usize) + Sync));

// The pointee is `Sync` (required by `run_chunks`' bound), so sharing the
// pointer across threads is safe; see `RawChunkFn` for the lifetime
// argument.
unsafe impl Send for RawChunkFn {}

/// Per-`run_chunks` control block: the chunk-index dispenser, the
/// helper-completion latch and the first captured panic.
struct ChunkCtl {
    /// Next chunk index to hand out; `>= count` means drained (or
    /// poisoned by a panic to stop other participants early).
    next: AtomicUsize,
    count: usize,
    /// Helper tasks enqueued and neither finished nor cancelled. The
    /// caller waits for this to reach zero before returning, which is what
    /// makes the lifetime erasure in [`RawChunkFn`] sound.
    outstanding: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ChunkCtl {
    fn new(count: usize) -> Self {
        ChunkCtl {
            next: AtomicUsize::new(0),
            count,
            outstanding: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Claims chunk indices until the dispenser runs dry, running `f` on
    /// each. On panic the dispenser is poisoned so other participants stop
    /// handing out work, and the first panic payload is kept for the
    /// caller to resume.
    fn drain(&self, f: &(dyn Fn(usize) + Sync)) {
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                break;
            }
            f(i);
        }));
        if let Err(payload) = result {
            self.next.store(self.count, Ordering::Relaxed);
            let mut slot = self.panic.lock().expect("chunk panic slot poisoned");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }

    fn finish_helpers(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut outstanding = self.outstanding.lock().expect("chunk latch poisoned");
        *outstanding -= n;
        if *outstanding == 0 {
            self.done.notify_all();
        }
    }
}

fn run_chunk_task(task: ChunkTask) {
    // SAFETY: see `RawChunkFn` — the caller of `run_chunks` is still
    // blocked in its completion wait, so the closure is alive.
    let f = unsafe { &*task.job.0 };
    task.ctl.drain(f);
    task.ctl.finish_helpers(1);
}

fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let task = {
            let mut st = inner.state.lock().expect("pool state poisoned");
            loop {
                if let Some(task) = st.queue.pop_front() {
                    break task;
                }
                st.idle += 1;
                st = inner.work_ready.wait(st).expect("pool state poisoned");
                st.idle -= 1;
            }
        };
        run_chunk_task(task);
    }
}

impl WorkerPool {
    /// Creates a pool that will grow on demand up to `max_workers`
    /// threads (clamped to a hard cap of 64). Workers are spawned lazily
    /// on first use and live for the rest of the process — prefer
    /// [`shared`](Self::shared) unless a test needs an isolated pool.
    pub fn new(max_workers: usize) -> Self {
        WorkerPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState::default()),
                work_ready: Condvar::new(),
                max_workers: max_workers.min(MAX_POOL_WORKERS),
            }),
        }
    }

    /// The process-wide pool. Sized to the machine's available parallelism
    /// (at least 8, so oversubscribed determinism tests still get real
    /// helpers), overridable with the `BA_POOL_MAX_WORKERS` environment
    /// variable.
    pub fn shared() -> WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED
            .get_or_init(|| {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                let cap = std::env::var("BA_POOL_MAX_WORKERS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| cores.max(8));
                WorkerPool::new(cap)
            })
            .clone()
    }

    /// Maximum number of worker threads this pool may grow to.
    pub fn max_workers(&self) -> usize {
        self.inner.max_workers
    }

    /// Worker threads currently alive (diagnostics).
    pub fn live_workers(&self) -> usize {
        self.inner.state.lock().expect("pool state poisoned").live
    }

    /// Spawns up to `wanted` additional workers, bounded by the cap and by
    /// how many parked workers already exist.
    fn grow_locked(&self, st: &mut PoolState, wanted: usize) {
        let deficit = wanted.saturating_sub(st.idle);
        let room = self.inner.max_workers.saturating_sub(st.live);
        for _ in 0..deficit.min(room) {
            st.live += 1;
            let inner = self.inner.clone();
            std::thread::Builder::new()
                .name("ba-pool".into())
                .spawn(move || worker_loop(inner))
                .expect("spawn pool worker");
        }
    }

    /// Runs `f(0) … f(count − 1)` exactly once each, fanning across parked
    /// pool workers with the calling thread participating. Returns after
    /// every chunk has completed. See the [module docs](self) for the
    /// progress, determinism and panic guarantees.
    ///
    /// # Panics
    /// Resumes the first panic raised by any chunk, after all
    /// participants have quiesced.
    pub fn run_chunks<F>(&self, count: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_chunks_capped(count, usize::MAX, f);
    }

    /// [`run_chunks`](Self::run_chunks) with at most `participants`
    /// concurrent executors (the caller plus up to `participants − 1`
    /// pool helpers). Lets a caller with its own thread-count contract —
    /// a sweep asked to use `threads` workers — fan out on the shared
    /// pool without oversubscribing past what it promised.
    ///
    /// # Panics
    /// As [`run_chunks`](Self::run_chunks).
    pub fn run_chunks_capped<F>(&self, count: usize, participants: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if count == 0 {
            return;
        }
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        if count == 1 || participants <= 1 || self.inner.max_workers == 0 {
            let ctl = ChunkCtl::new(count);
            ctl.drain(f_ref);
            if let Some(payload) = ctl.panic.lock().expect("chunk panic slot poisoned").take() {
                resume_unwind(payload);
            }
            return;
        }

        let ctl = Arc::new(ChunkCtl::new(count));
        // SAFETY: lifetime erasure justified at `RawChunkFn`: this
        // function cancels or awaits every task holding the pointer before
        // returning or unwinding.
        let raw = RawChunkFn(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                f_ref as *const _,
            )
        });
        let helpers = (count - 1)
            .min(self.inner.max_workers)
            .min(participants - 1);
        {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            *ctl.outstanding.lock().expect("chunk latch poisoned") = helpers;
            for _ in 0..helpers {
                st.queue.push_back(ChunkTask {
                    job: raw,
                    ctl: ctl.clone(),
                });
            }
            self.grow_locked(&mut st, helpers);
        }
        self.inner.work_ready.notify_all();

        // Participate: the caller drains the dispenser alongside any
        // helpers, so progress never depends on a worker being free.
        ctl.drain(f_ref);

        // Cancel helper tasks that no worker picked up (their chunks have
        // already been executed by whoever drained the dispenser).
        {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            let before = st.queue.len();
            st.queue.retain(|task| !Arc::ptr_eq(&task.ctl, &ctl));
            let cancelled = before - st.queue.len();
            drop(st);
            ctl.finish_helpers(cancelled);
        }

        // Wait for helpers that did start; after this no reference to `f`
        // survives anywhere.
        let mut outstanding = ctl.outstanding.lock().expect("chunk latch poisoned");
        while *outstanding > 0 {
            outstanding = ctl.done.wait(outstanding).expect("chunk latch poisoned");
        }
        drop(outstanding);

        let payload = ctl.panic.lock().expect("chunk panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for count in [0usize, 1, 2, 7, 64, 300] {
            let hits: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
            pool.run_chunks(count, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i} of {count}");
            }
        }
    }

    #[test]
    fn zero_capacity_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let sum = AtomicU64::new(0);
        pool.run_chunks(10, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        assert_eq!(pool.live_workers(), 0, "no threads ever spawned");
    }

    #[test]
    fn workers_persist_across_dispatches() {
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let sum = AtomicU64::new(0);
            pool.run_chunks(6, |i| {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 21);
        }
        assert!(
            pool.live_workers() <= 3,
            "pool never exceeds its cap: {:?}",
            pool
        );
    }

    #[test]
    fn nested_run_chunks_does_not_deadlock() {
        // Every outer chunk re-enters the pool; with 2 workers most inner
        // calls find no one free and must make progress inline.
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        pool.run_chunks(4, |_| {
            pool.run_chunks(4, |j| {
                total.fetch_add(j as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10);
    }

    #[test]
    fn chunk_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(8, |i| {
                assert!(i != 3, "chunk exploded");
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("chunk exploded"), "payload: {msg}");
        // The pool survives a panicked dispatch.
        let sum = AtomicU64::new(0);
        pool.run_chunks(4, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn shared_pool_is_one_instance() {
        let a = WorkerPool::shared();
        let b = WorkerPool::shared();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        assert!(a.max_workers() >= 1);
    }

    #[test]
    fn results_are_visible_after_return() {
        // The completion latch must publish worker writes to the caller.
        let pool = WorkerPool::new(4);
        for _ in 0..100 {
            let cells: Vec<Mutex<u64>> = (0..16).map(|_| Mutex::new(0)).collect();
            pool.run_chunks(16, |i| {
                *cells[i].lock().unwrap() = (i as u64) * 3;
            });
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(*c.lock().unwrap(), (i as u64) * 3);
            }
        }
    }
}
