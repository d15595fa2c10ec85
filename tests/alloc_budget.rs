//! Integration: what the phase engine allocates, counted — a broadcast is
//! one frame plus a four-byte index per recipient (nothing per recipient at
//! all in an all-to-all phase, whose frames name no target), a warm phase
//! reuses every buffer, an all-to-all run asks for no message-count-sized
//! buffer even cold, building a checkable target costs a bounded number of
//! allocations per processor, a service session's ticks run on buffers it
//! keeps — and an agreement on a payload holds no copy of it. The numbers
//! DESIGN §7.4, §7.5, §10.4, §11.3 and ROADMAP state, asserted.
//!
//! The counting allocator only counts the thread that asked it to, so the
//! test harness's own threads never show up in a window.

use byzantine_agreement::algos::checkable::{find_target, targets, CheckConfig, CheckSetup};
use byzantine_agreement::crypto::{Bytes, Chain, Value};
use byzantine_agreement::ext::{agree_on_payload, ExtDecision, ExtOptions};
use byzantine_agreement::net::{BaService, InstanceSpec, SvcConfig};
use byzantine_agreement::sim::{PhaseCore, ScheduleSpec, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A mebibyte: a block this big would be one of a run's message-count-sized
/// buffers.
const MIB: usize = 1 << 20;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Notes one allocator call on the counting thread: `grown` bytes came
/// alive (negative: were freed), through `calls` allocations of a block of
/// `size` bytes.
fn note(grown: isize, calls: usize, size: usize) {
    if !COUNTING.with(Cell::get) {
        return;
    }
    ALLOCATIONS.with(|a| a.set(a.get() + calls));
    LARGEST.with(|l| l.set(l.get().max(size)));
    REQUESTED.with(|r| r.set(r.get() + grown.max(0) as usize));
    let live = LIVE.with(|l| {
        l.set(l.get() + grown);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised, destructor-free thread-locals and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1, layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), 0, 0);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, 1, new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` and returns its result with what this thread's allocator
/// calls did meanwhile: `(allocations, peak live bytes above the start)`.
fn counted<R>(work: impl FnOnce() -> R) -> (R, usize, usize) {
    ALLOCATIONS.with(|a| a.set(0));
    REQUESTED.with(|r| r.set(0));
    LARGEST.with(|l| l.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|c| c.set(true));
    let result = work();
    COUNTING.with(|c| c.set(false));
    let peak = PEAK.with(Cell::get).max(0) as usize;
    (result, ALLOCATIONS.with(Cell::get), peak)
}

fn fault_free(target: &str, n: usize, t: usize) -> CheckSetup {
    let target = find_target(target).expect("a registered target");
    let cfg = CheckConfig::new(n, t, Value::ONE, 7, 1, ScheduleSpec::default());
    target.build(&cfg).expect("a fault-free schedule compiles")
}

/// One all-to-all signed broadcast run holds, at its peak, a few bytes per
/// delivered message — what a protocol keeps of what it heard — not an
/// owned envelope apiece (which read ≈ 128 here), nor an inbox index and a
/// routing fate (11.3 with them), nor a staged target id (6.2 with one;
/// 2.2 without): a `broadcast_all` frame names no target, and an
/// all-to-all phase writes nothing per message.
#[test]
fn ds_broadcast_peaks_at_a_few_bytes_per_delivered_message() {
    let setup = fault_free("ds-broadcast", 256, 1);
    let phases = setup.phases;
    let mut sim = Simulation::from(InstanceSpec::from(setup));
    let (outcome, _, peak) = counted(|| sim.run(phases));
    let delivered = outcome.metrics.messages_total();
    assert_eq!(delivered, 255 * 256);
    assert!(outcome.decisions.iter().all(|d| *d == Some(Value::ONE)));
    let per_message = peak as f64 / delivered as f64;
    assert!(
        per_message <= 3.0,
        "peak {peak} B over {delivered} delivered messages = {per_message:.1} B each"
    );
}

/// Two fault-free `ds-broadcast` runs at n = 1024 back to back on this
/// thread — `engine_wide`'s run. Both of its phases are all-to-all and
/// every frame is a `broadcast_all`, so no run stages a target id or needs
/// a delivery index or route fates: not even the first, cold run asks the
/// allocator for a block of 1 MiB (it asked for three or more when it
/// staged 4 MiB of ids).
#[test]
fn an_all_to_all_run_asks_for_no_large_block() {
    let run = || {
        let outcome = InstanceSpec::from(fault_free("ds-broadcast", 1024, 1)).run_lockstep(1);
        assert_eq!(outcome.metrics.messages_total(), 1023 * 1024);
    };
    let ((), _, _) = counted(run);
    let first = LARGEST.with(Cell::get);
    let ((), _, _) = counted(run);
    let second = LARGEST.with(Cell::get);
    assert!(first < MIB, "a block of {first} B in a cold run");
    assert!(second < MIB, "a block of {second} B in a warm run");
}

/// Building any checkable target — keys, registry, one boxed actor per
/// processor, the setup itself — makes at most two allocator calls per
/// processor, at any `n` (n + 6 … n + 13 when measured), so a service pays
/// a linear, not quadratic, price per submission.
#[test]
fn building_a_target_allocates_at_most_twice_per_processor() {
    for target in targets() {
        for n in [16, 64, 256] {
            let (n, t) = target.dims_from(n, 1);
            let cfg = CheckConfig::new(n, t, Value::ONE, 7, 1, ScheduleSpec::default());
            let (setup, calls, _) = counted(|| target.build(&cfg));
            let setup = setup.expect("a fault-free schedule compiles");
            assert_eq!(setup.actors.len(), n);
            assert!(
                calls <= 2 * n,
                "{} n = {n}: {calls} allocator calls to build",
                target.name
            );
        }
    }
}

/// One phase the way every driver advances it: step, then deliver (route,
/// fill, verify at the barrier).
fn phase(core: &mut PhaseCore<Chain>) {
    assert!(core.step(1).is_empty());
    core.deliver(None);
}

/// On a core that has run the protocol once, a phase that carries traffic
/// allocates nothing that grows with `n`, and a phase that only reads
/// allocates nothing at all: no per-actor allocation on the serving path.
#[test]
fn warm_ds_relay_phase_allocates_nothing_per_actor() {
    let warm_phase_allocations = |n: usize| {
        let mut setup = fault_free("ds-relay", n, 3);
        let actors = std::mem::take(&mut setup.actors);
        let mut core = PhaseCore::new(actors, [], Some(setup.registry));
        for _ in 0..setup.phases {
            phase(&mut core);
        }
        assert!(core.finalize(1).is_empty());
        let first = core.finish();
        assert!(first.decisions.iter().all(|d| *d == Some(Value::ONE)));
        assert!(first.metrics.messages_total() > 4 * n as u64);

        // The reused core, phase 1: the transmitter signs and broadcasts a
        // new chain to n − 1 recipients; it is staged, routed, indexed
        // into n − 1 inboxes and verified at the barrier.
        let ((), traffic, _) = counted(|| phase(&mut core));
        // Phase 2: every processor reads its inbox — the stamped chain it
        // has already extracted — and stays quiet.
        let ((), reading, _) = counted(|| phase(&mut core));
        let second = core.finish();
        assert_eq!(second.metrics.messages_total(), n as u64 - 1);
        (traffic, reading)
    };
    let (small, small_reading) = warm_phase_allocations(64);
    let (large, large_reading) = warm_phase_allocations(256);
    assert_eq!((small_reading, large_reading), (0, 0), "a reading phase");
    // What is left is the transmitter's own chain (its buffer, its one
    // signature), that chain's barrier verification, and a fresh run's
    // first `Metrics` rows.
    assert_eq!(small, large, "a traffic-bearing phase, n = 64 vs n = 256");
    assert!(small <= 8, "{small} allocations in a warm phase");
}

/// A reliable session's allocator traffic per delivered message: a ticket's
/// phase core and its report, plus whatever a tick still allocates — the
/// flush table, the wire's slots and event buffers are the session's own
/// and warm after the first tick.
#[test]
fn svc_session_allocates_a_bounded_amount_per_delivered_message() {
    let instances = 200;
    let specs: Vec<InstanceSpec<Chain>> = (0..instances)
        .map(|_| fault_free("ds-broadcast", 16, 1).into())
        .collect();
    let config = SvcConfig::new()
        .with_max_inflight(8)
        .with_queue_capacity(instances);
    let (report, blocks, _) = counted(|| {
        let mut session = BaService::new(config).session();
        for spec in specs {
            session.submit(spec).expect("the queue holds the fleet");
        }
        session.drain()
    });
    let bytes = REQUESTED.with(Cell::get);
    assert_eq!(report.decided(), instances);
    let delivered: u64 = report
        .outcomes
        .iter()
        .map(|o| o.result.as_ref().expect("decided").metrics.messages_total())
        .sum();
    assert_eq!(delivered, 240 * instances as u64);
    let (bytes, blocks) = (
        bytes as f64 / delivered as f64,
        blocks as f64 / delivered as f64,
    );
    // 1.25 × the 112.5 B and 0.652 blocks measured; with a flush map and
    // the wire's slots, event maps and order built anew for every instance
    // every tick they read 187.0 B and 0.824 blocks.
    assert!(bytes <= 141.0, "{bytes:.2} B per delivered message");
    assert!(blocks <= 0.815, "{blocks:.4} blocks per delivered message");
}

/// One fault-free `agree_on_payload` at ℓ = 256 KiB, n = 16, t = 3 —
/// `ext_bulk`'s agreement — run warm: every correct node decides on the
/// window its k data chunks already are, which is the caller's payload, so
/// no block of ℓ bytes is asked for and fewer than ℓ bytes are live at any
/// point (with a copy per node: 16 blocks of ℓ, ≈ 4.4 MB peak; without,
/// ≈ 0.22 MB).
#[test]
fn a_fault_free_payload_agreement_makes_no_copy_of_the_payload() {
    const LEN: usize = 256 * 1024;
    let payload = Bytes::from(
        (0..LEN)
            .map(|i| (i * 7 + i / 251) as u8)
            .collect::<Vec<u8>>(),
    );
    let opts = ExtOptions::new().with_n(16).with_t(3).with_threads(1);
    let agree = || agree_on_payload(&payload, &opts).expect("valid options");
    let _cold = agree();
    let (report, _, peak) = counted(agree);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest < LEN,
        "a block of {largest} B for a {LEN} B payload"
    );
    assert!(peak < LEN, "peak live {peak} B for a {LEN} B payload");
    let decided: Vec<&Bytes> = report
        .correct_decisions()
        .filter_map(|(_, d)| d.and_then(ExtDecision::payload))
        .collect();
    assert_eq!(decided.len(), 16);
    for payload_at_node in decided {
        assert!(payload_at_node.shares_allocation(&payload));
    }
}
