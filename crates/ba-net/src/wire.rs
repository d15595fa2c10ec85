//! The virtual-tick wire: deterministic unreliable delivery with
//! retransmission, exponential backoff, acks and receiver-side dedup.
//!
//! Within one phase the phase driver hands the wire the *links* of every
//! frame that survived routing — `(from, to)` in staging order, i.e.
//! sender-id order — and the wire plays out delivery over *virtual ticks*.
//! A frame is its index in that list: the wire never sees a payload, and
//! answers with the order in which the indices arrived.
//!
//! * tick `k`: every frame whose retransmission timer expires is put on the
//!   wire; the chaos profile rolls loss, delay and duplication per attempt;
//! * tick `k + 1 + delay`: surviving copies arrive; the receiver dedups by
//!   frame id, delivers the first copy, and acks every copy (the ack
//!   itself may be lost);
//! * a sender stops retransmitting when the ack arrives or when its retry
//!   budget (`1 + max_retries` transmissions, backoff 3, 6, 12, … ticks)
//!   is exhausted — an undelivered frame at that point is a permanently
//!   **failed link**;
//! * if frames are still unsettled when `deadline_ticks` expires, the
//!   phase's synchrony assumption is broken and the caller turns the
//!   pending count into a [`DeadlineBlown`] verdict.
//!
//! The wire runs entirely on the driver's calling thread with one seeded
//! [`SimRng`], so a chaos campaign is bit-reproducible from the seed — at
//! any worker-thread count. Under a reliable profile no RNG draw is ever
//! consumed and delivery order equals staging order: the answer is known
//! before a tick is played, so the phase driver does not play it —
//! [`deliver_reliable`] writes its statistics and the phase is delivered
//! in lock step, as the lock-step engine delivers it. The tests hold that
//! closed form to what [`deliver`] plays.
//!
//! [`DeadlineBlown`]: crate::verdict::DegradationReason::DeadlineBlown

use crate::chaos::ChaosProfile;
use crate::verdict::{FailedLink, NetStats};
use ba_crypto::rng::SimRng;
use ba_crypto::ProcessId;

/// Retry policy for one phase of wire delivery.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WirePolicy {
    /// Retransmissions allowed after the first attempt.
    pub max_retries: u32,
    /// Virtual ticks a phase may use before it is declared blown.
    pub deadline_ticks: u64,
}

impl WirePolicy {
    /// The policy every phase driver plays: four retransmissions after the
    /// first attempt, 128 virtual ticks per phase. Only the seeded oracle
    /// tests below vary it.
    pub const STANDARD: WirePolicy = WirePolicy {
        max_retries: 4,
        deadline_ticks: 128,
    };
}

/// First retransmission timeout in ticks: one tick to arrive, one for the
/// ack, one of slack. Doubles per retry, capped at [`BACKOFF_CAP`].
const INITIAL_BACKOFF: u64 = 3;
const BACKOFF_CAP: u64 = 64;

/// What one phase of wire delivery produced.
pub(crate) struct WireReport<'a> {
    /// The frames that reached their receiver, in arrival order, as
    /// indices into the phase's link list.
    pub order: &'a [usize],
    /// Links that permanently failed (frame never delivered).
    pub failed: Vec<FailedLink>,
    /// Frames neither delivered nor given up on when the deadline expired;
    /// non-zero means the phase is blown. (Ticks consumed are folded into
    /// [`NetStats::max_ticks_in_phase`].)
    pub pending: usize,
}

#[derive(Clone)]
struct Slot {
    attempts: u32,
    backoff: u64,
    next_send: u64,
    delivered: bool,
    done: bool,
}

/// The buffers [`deliver`] plays a phase out on. The caller keeps one and
/// hands it to every call, so a warm wire allocates nothing; a call leaves
/// nothing in it that the next one reads.
#[derive(Default)]
pub(crate) struct WireScratch {
    /// One per frame.
    slots: Vec<Slot>,
    /// Frame copies in flight, by arrival tick modulo the ring's length.
    /// A copy is at most `2 + max_delay_ticks` ticks away and the bucket
    /// of the current tick is emptied before anything is sent, so that
    /// many buckets never hold two ticks at once.
    ring: Vec<Vec<u32>>,
    /// Acks on their way back. An ack takes exactly one tick and a tick
    /// consumes the acks due before it sends any, so one buffer holds
    /// either last tick's or this tick's, never both.
    acks: Vec<u32>,
    /// [`WireReport::order`].
    order: Vec<usize>,
}

fn roll(rng: &mut SimRng, per_mille: u16) -> bool {
    per_mille > 0 && rng.range_u64(0, 1000) < u64::from(per_mille)
}

/// Deterministic Fisher–Yates shuffle for same-tick arrival reordering.
fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        let j = rng.range_usize(0, i + 1);
        items.swap(i, j);
    }
}

/// Plays out one phase's frames — one per entry of `links`, `(from, to)`
/// in staging order — over the unreliable wire.
///
/// Same-tick arrivals are handled in the order they were put on the wire
/// and transmissions in frame order, whatever holds the events: that
/// order is the order of the rng draws, and so of every fate.
pub(crate) fn deliver<'a>(
    phase: usize,
    links: &[(ProcessId, ProcessId)],
    profile: &ChaosProfile,
    rng: &mut SimRng,
    policy: WirePolicy,
    stats: &mut NetStats,
    scratch: &'a mut WireScratch,
) -> WireReport<'a> {
    let WireScratch {
        slots,
        ring,
        acks,
        order,
    } = scratch;
    assert!(
        u32::try_from(links.len()).is_ok(),
        "the wire indexes a phase's frames with u32"
    );
    slots.clear();
    slots.resize(
        links.len(),
        Slot {
            attempts: 0,
            backoff: INITIAL_BACKOFF,
            next_send: 0,
            delivered: false,
            done: false,
        },
    );
    // A call that blew its deadline left events behind.
    ring.iter_mut().for_each(Vec::clear);
    let horizon = 2 + usize::from(profile.max_delay_ticks());
    if ring.len() < horizon {
        ring.resize_with(horizon, Vec::new);
    }
    let buckets = ring.len() as u64;
    acks.clear();
    order.clear();

    let mut failed: Vec<FailedLink> = Vec::new();
    let mut unresolved = slots.len();
    // The earliest retransmission timer among the unsettled slots (an ack
    // may have settled its owner since: then the scan finds nothing).
    let mut timer_due = 0u64;
    let mut tick = 0u64;

    while unresolved > 0 && tick <= policy.deadline_ticks {
        // Acks first: an ack arriving this tick cancels a retransmission
        // timer that would fire this same tick.
        for idx in acks.drain(..) {
            let slot = &mut slots[idx as usize];
            if !slot.done {
                slot.done = true;
                unresolved -= 1;
            }
        }

        // Frame copies arriving this tick.
        let arrivals = &mut ring[(tick % buckets) as usize];
        if profile.reorder && arrivals.len() > 1 {
            shuffle(arrivals, rng);
        }
        for idx in arrivals.drain(..) {
            let (from, to) = links[idx as usize];
            let link = profile.link(from, to);
            let slot = &mut slots[idx as usize];
            if slot.delivered {
                stats.duplicates_suppressed += 1;
            } else {
                slot.delivered = true;
                stats.frames_delivered += 1;
                order.push(idx as usize);
            }
            // The receiver acks every copy it sees; a lost ack keeps
            // the sender's retransmission timer armed.
            if roll(rng, link.ack_drop_per_mille) {
                stats.acks_lost += 1;
            } else {
                acks.push(idx);
            }
        }

        // Transmissions whose timer expires this tick, in frame order.
        if tick == timer_due {
            timer_due = u64::MAX;
            for (idx, slot) in slots.iter_mut().enumerate() {
                if slot.done {
                    continue;
                }
                if slot.next_send != tick {
                    timer_due = timer_due.min(slot.next_send);
                    continue;
                }
                let (from, to) = links[idx];
                if slot.attempts > policy.max_retries {
                    // Retry budget exhausted. A frame that did arrive (ack
                    // losses only) is settled; one that never arrived is a
                    // permanently failed link.
                    slot.done = true;
                    unresolved -= 1;
                    if !slot.delivered {
                        stats.frames_failed += 1;
                        failed.push(FailedLink {
                            phase,
                            from,
                            to,
                            attempts: slot.attempts,
                        });
                    }
                    continue;
                }
                slot.attempts += 1;
                stats.physical_transmissions += 1;
                if slot.attempts > 1 {
                    stats.retransmissions += 1;
                }
                let link = profile.link(from, to);
                if !roll(rng, link.drop_per_mille) {
                    let delay = if link.max_delay_ticks > 0 {
                        rng.range_u64(0, u64::from(link.max_delay_ticks) + 1)
                    } else {
                        0
                    };
                    ring[((tick + 1 + delay) % buckets) as usize].push(idx as u32);
                    if roll(rng, link.dup_per_mille) {
                        ring[((tick + 2 + delay) % buckets) as usize].push(idx as u32);
                    }
                }
                slot.next_send = tick + slot.backoff;
                slot.backoff = (slot.backoff * 2).min(BACKOFF_CAP);
                timer_due = timer_due.min(slot.next_send);
            }
        }

        tick += 1;
    }

    stats.max_ticks_in_phase = stats.max_ticks_in_phase.max(tick);
    // Anything unsettled and undelivered at the deadline blew the phase;
    // unsettled-but-delivered frames were only waiting for an ack.
    let pending = slots.iter().filter(|s| !s.done && !s.delivered).count();
    WireReport {
        order,
        failed,
        pending,
    }
}

/// What [`deliver`] answers for `links` frames under a reliable profile,
/// without playing a tick: every frame arrives on its first attempt, in
/// staging order, so nothing fails or is pending and no rng is drawn. Each
/// frame is one transmission and one delivery; a phase that sent anything
/// takes three ticks — out at tick 0, in at 1, acked at 2 — and an empty
/// one none.
pub(crate) fn deliver_reliable(links: usize, stats: &mut NetStats) {
    if links == 0 {
        return;
    }
    stats.physical_transmissions += links as u64;
    stats.frames_delivered += links as u64;
    stats.max_ticks_in_phase = stats.max_ticks_in_phase.max(3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::LinkChaos;
    use ba_crypto::testkit::{run_cases, Gen};
    use std::collections::BTreeMap;

    /// The wire as it was written first — fresh slots and two ordered maps
    /// of events per call, every slot looked at on every tick — kept as
    /// the oracle [`deliver`] is held to: `(order, failed, pending)`.
    fn deliver_reference(
        phase: usize,
        links: &[(ProcessId, ProcessId)],
        profile: &ChaosProfile,
        rng: &mut SimRng,
        policy: WirePolicy,
        stats: &mut NetStats,
    ) -> (Vec<usize>, Vec<FailedLink>, usize) {
        let mut slots: Vec<Slot> = links
            .iter()
            .map(|_| Slot {
                attempts: 0,
                backoff: INITIAL_BACKOFF,
                next_send: 0,
                delivered: false,
                done: false,
            })
            .collect();

        // Event queues keyed by arrival tick; BTreeMap iteration order plus
        // in-tick push order keeps everything deterministic.
        let mut arrivals: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut acks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut order: Vec<usize> = Vec::new();
        let mut failed: Vec<FailedLink> = Vec::new();
        let mut unresolved = slots.len();
        let mut tick = 0u64;

        while unresolved > 0 && tick <= policy.deadline_ticks {
            if let Some(list) = acks.remove(&tick) {
                for idx in list {
                    if !slots[idx].done {
                        slots[idx].done = true;
                        unresolved -= 1;
                    }
                }
            }

            if let Some(mut list) = arrivals.remove(&tick) {
                if profile.reorder && list.len() > 1 {
                    shuffle(&mut list, rng);
                }
                for idx in list {
                    let (from, to) = links[idx];
                    let link = profile.link(from, to);
                    if slots[idx].delivered {
                        stats.duplicates_suppressed += 1;
                    } else {
                        slots[idx].delivered = true;
                        stats.frames_delivered += 1;
                        order.push(idx);
                    }
                    if roll(rng, link.ack_drop_per_mille) {
                        stats.acks_lost += 1;
                    } else {
                        acks.entry(tick + 1).or_default().push(idx);
                    }
                }
            }

            for idx in 0..slots.len() {
                let slot = &mut slots[idx];
                if slot.done || slot.next_send != tick {
                    continue;
                }
                if slot.attempts > policy.max_retries {
                    slot.done = true;
                    unresolved -= 1;
                    if !slot.delivered {
                        let (from, to) = links[idx];
                        stats.frames_failed += 1;
                        failed.push(FailedLink {
                            phase,
                            from,
                            to,
                            attempts: slot.attempts,
                        });
                    }
                    continue;
                }
                slot.attempts += 1;
                stats.physical_transmissions += 1;
                if slot.attempts > 1 {
                    stats.retransmissions += 1;
                }
                let (from, to) = links[idx];
                let link = profile.link(from, to);
                if !roll(rng, link.drop_per_mille) {
                    let delay = if link.max_delay_ticks > 0 {
                        rng.range_u64(0, u64::from(link.max_delay_ticks) + 1)
                    } else {
                        0
                    };
                    arrivals.entry(tick + 1 + delay).or_default().push(idx);
                    if roll(rng, link.dup_per_mille) {
                        arrivals.entry(tick + 2 + delay).or_default().push(idx);
                    }
                }
                let slot = &mut slots[idx];
                slot.next_send = tick + slot.backoff;
                slot.backoff = (slot.backoff * 2).min(BACKOFF_CAP);
            }

            tick += 1;
        }

        stats.max_ticks_in_phase = stats.max_ticks_in_phase.max(tick);
        let pending = slots.iter().filter(|s| !s.done && !s.delivered).count();
        (order, failed, pending)
    }

    /// 0–300 links over a handful of processors: repeats of one link,
    /// runs of one sender, and self-links all occur.
    fn seeded_links(gen: &mut Gen) -> Vec<(ProcessId, ProcessId)> {
        let n = gen.u32_in(1, 9);
        let len = match gen.usize_in(0, 4) {
            0 => gen.usize_in(0, 4),
            _ => gen.usize_in(0, 301),
        };
        let mut links: Vec<(ProcessId, ProcessId)> = Vec::with_capacity(len);
        for _ in 0..len {
            let link = match (links.last(), gen.usize_in(0, 4)) {
                (Some(&(from, to)), 0) => (from, to),
                (Some(&(from, _)), 1) => (from, from),
                _ => (ProcessId(gen.u32_in(0, n)), ProcessId(gen.u32_in(0, n))),
            };
            links.push(link);
        }
        links
    }

    fn seeded_profile(gen: &mut Gen) -> ChaosProfile {
        let seed = gen.u64();
        match gen.usize_in(0, 6) {
            0 => ChaosProfile::reliable(),
            1 => ChaosProfile::jitter(seed),
            2 => ChaosProfile::lossy(seed, 300),
            3 => ChaosProfile::stress(seed),
            4 => ChaosProfile::stress(seed)
                .with_link(ProcessId(0), ProcessId(1), LinkChaos::dead())
                .with_link(
                    ProcessId(1),
                    ProcessId(0),
                    LinkChaos {
                        max_delay_ticks: 7,
                        ..LinkChaos::RELIABLE
                    },
                ),
            _ => {
                let mut acks_only_lost = ChaosProfile::reliable();
                acks_only_lost.base = LinkChaos {
                    ack_drop_per_mille: 700,
                    ..LinkChaos::RELIABLE
                };
                acks_only_lost
            }
        }
    }

    fn seeded_policy(gen: &mut Gen) -> WirePolicy {
        match gen.usize_in(0, 4) {
            0 => POLICY,
            // Too short for the backoff schedule to settle a lost frame.
            1 => WirePolicy {
                max_retries: 10,
                deadline_ticks: gen.u64_in(0, 9),
            },
            _ => WirePolicy {
                max_retries: gen.u32_in(0, 7),
                deadline_ticks: gen.u64_in(0, 200),
            },
        }
    }

    /// Everything a call of the wire can be observed by: arrival order,
    /// failed links, pending count, statistics, and the rng's next draw.
    type Played = (Vec<usize>, Vec<FailedLink>, usize, NetStats, u64);

    fn play(
        links: &[(ProcessId, ProcessId)],
        profile: &ChaosProfile,
        policy: WirePolicy,
        seed: u64,
        scratch: &mut WireScratch,
    ) -> Played {
        let mut rng = SimRng::new(seed);
        let mut stats = NetStats::default();
        let report = deliver(3, links, profile, &mut rng, policy, &mut stats, scratch);
        let (order, pending) = (report.order.to_vec(), report.pending);
        (order, report.failed, pending, stats, rng.next_u64())
    }

    #[test]
    fn deliver_matches_the_reference_loop() {
        // Each case plays on a fresh scratch and on one the whole property
        // shares, which holds whatever the cases before left in it: a
        // longer ring, the events of a blown deadline.
        let mut shared = WireScratch::default();
        let mut blown = 0usize;
        run_cases(256, 0x317E, |gen| {
            let links = seeded_links(gen);
            let profile = seeded_profile(gen);
            let policy = seeded_policy(gen);
            let seed = gen.u64();

            let mut rng = SimRng::new(seed);
            let mut stats = NetStats::default();
            let (order, failed, pending) =
                deliver_reference(3, &links, &profile, &mut rng, policy, &mut stats);
            let expected = (order, failed, pending, stats, rng.next_u64());
            blown += usize::from(pending > 0);

            for scratch in [&mut WireScratch::default(), &mut shared] {
                assert_eq!(play(&links, &profile, policy, seed, scratch), expected);
            }
        });
        assert!(blown > 0, "no case blew its deadline");
    }

    #[test]
    fn the_reliable_closed_form_is_what_the_wire_plays() {
        // Statistics carried in from earlier phases, a tick maximum below
        // and above the three a reliable phase takes among them.
        let profile = ChaosProfile::reliable();
        let mut shared = WireScratch::default();
        let mut empty = 0usize;
        run_cases(256, 0xC105_ED5E, |gen| {
            let links = seeded_links(gen);
            let before = NetStats {
                frames_delivered: gen.u64_in(0, 1000),
                physical_transmissions: gen.u64_in(0, 1000),
                max_ticks_in_phase: gen.u64_in(0, 7),
                ..NetStats::default()
            };
            let seed = gen.u64();
            let mut played = before.clone();
            let mut rng = SimRng::new(seed);
            let report = deliver(
                3,
                &links,
                &profile,
                &mut rng,
                POLICY,
                &mut played,
                &mut shared,
            );
            let identity: Vec<usize> = (0..links.len()).collect();
            assert_eq!(report.order, identity, "arrival order is staging order");
            assert!(report.failed.is_empty());
            assert_eq!(report.pending, 0);
            assert_eq!(rng.next_u64(), SimRng::new(seed).next_u64(), "no draw");

            let mut closed = before.clone();
            deliver_reliable(links.len(), &mut closed);
            assert_eq!(closed, played);
            if links.is_empty() {
                assert_eq!(closed, before, "an empty phase moves nothing");
                empty += 1;
            }
        });
        assert!(empty > 0, "no case was an empty phase");
    }

    #[test]
    fn a_blown_call_leaves_nothing_the_next_one_reads() {
        let profile = ChaosProfile::stress(5);
        let links = frames(40);
        let short = WirePolicy {
            max_retries: 10,
            deadline_ticks: 2,
        };
        let mut dirty = WireScratch::default();
        let blown = play(&links, &profile, short, 8, &mut dirty);
        assert!(blown.2 > 0, "frames still pending at the deadline");
        assert!(
            dirty.ring.iter().any(|bucket| !bucket.is_empty()) || !dirty.acks.is_empty(),
            "the blown call left events in flight"
        );
        assert_eq!(
            play(&links, &profile, POLICY, 9, &mut dirty),
            play(&links, &profile, POLICY, 9, &mut WireScratch::default())
        );
    }

    #[test]
    fn warm_scratch_allocates_nothing_on_a_reliable_wire() {
        let profile = ChaosProfile::reliable();
        let links = frames(240);
        let mut scratch = WireScratch::default();
        let footprint = |scratch: &WireScratch| {
            let mut buffers = vec![
                (scratch.slots.as_ptr() as usize, scratch.slots.capacity()),
                (scratch.ring.as_ptr() as usize, scratch.ring.capacity()),
                (scratch.order.as_ptr() as usize, scratch.order.capacity()),
                (scratch.acks.as_ptr() as usize, scratch.acks.capacity()),
            ];
            buffers.extend(
                scratch
                    .ring
                    .iter()
                    .map(|bucket| (bucket.as_ptr() as usize, bucket.capacity())),
            );
            buffers
        };
        let settle = |scratch: &mut WireScratch, links: &[(ProcessId, ProcessId)]| {
            let (order, failed, pending, ..) = play(links, &profile, POLICY, 1, scratch);
            assert_eq!((order.len(), pending), (links.len(), 0));
            assert_eq!(failed.capacity(), 0);
        };
        settle(&mut scratch, &links);
        let warm = footprint(&scratch);
        // Same buffers, same capacities: no call to the allocator.
        settle(&mut scratch, &links);
        settle(&mut scratch, &links[..100]);
        assert_eq!(footprint(&scratch), warm);
    }

    const POLICY: WirePolicy = WirePolicy::STANDARD;

    fn frames(n: u32) -> Vec<(ProcessId, ProcessId)> {
        (0..n)
            .map(|i| (ProcessId(i), ProcessId((i + 1) % n)))
            .collect()
    }

    #[test]
    fn reliable_wire_delivers_in_staging_order_without_retransmission() {
        let profile = ChaosProfile::reliable();
        let mut rng = SimRng::new(1);
        let mut stats = NetStats::default();
        let mut scratch = WireScratch::default();
        let report = deliver(
            1,
            &frames(5),
            &profile,
            &mut rng,
            POLICY,
            &mut stats,
            &mut scratch,
        );
        assert_eq!(report.failed.len(), 0);
        assert_eq!(report.pending, 0);
        assert_eq!(
            report.order,
            vec![0, 1, 2, 3, 4],
            "delivery order = staging order"
        );
        assert_eq!(stats.physical_transmissions, 5);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.duplicates_suppressed, 0);
        // Send at tick 0, arrive at 1, ack at 2 -> 3 ticks.
        assert_eq!(stats.max_ticks_in_phase, 3);
        // A reliable wire consumes no randomness at all.
        assert_eq!(rng.next_u64(), SimRng::new(1).next_u64());
    }

    #[test]
    fn dead_link_fails_after_retry_budget() {
        let profile =
            ChaosProfile::reliable().with_link(ProcessId(0), ProcessId(1), LinkChaos::dead());
        let mut rng = SimRng::new(2);
        let mut stats = NetStats::default();
        let mut scratch = WireScratch::default();
        let report = deliver(
            4,
            &frames(3),
            &profile,
            &mut rng,
            POLICY,
            &mut stats,
            &mut scratch,
        );
        assert_eq!(report.order.len(), 2, "other links deliver");
        assert_eq!(report.failed.len(), 1);
        let link = report.failed[0];
        assert_eq!(
            (link.phase, link.from, link.to),
            (4, ProcessId(0), ProcessId(1))
        );
        assert_eq!(
            link.attempts,
            POLICY.max_retries + 1,
            "1 original + retries"
        );
        assert_eq!(stats.frames_failed, 1);
        assert_eq!(report.pending, 0, "a failed link is settled, not pending");
        assert!(stats.max_ticks_in_phase <= POLICY.deadline_ticks);
    }

    #[test]
    fn lost_acks_cause_retransmission_and_dedup_but_single_delivery() {
        // Frames always arrive, acks never do: every retry is spurious and
        // every extra copy must be suppressed by the receiver.
        let mut profile = ChaosProfile::reliable();
        profile.base = LinkChaos {
            ack_drop_per_mille: 1000,
            ..LinkChaos::RELIABLE
        };
        let mut rng = SimRng::new(3);
        let mut stats = NetStats::default();
        let mut scratch = WireScratch::default();
        let report = deliver(
            1,
            &frames(2),
            &profile,
            &mut rng,
            POLICY,
            &mut stats,
            &mut scratch,
        );
        assert_eq!(report.order.len(), 2, "delivered exactly once each");
        assert_eq!(report.failed.len(), 0, "delivered frames never fail");
        assert_eq!(report.pending, 0);
        assert_eq!(stats.retransmissions, 2 * u64::from(POLICY.max_retries));
        assert_eq!(stats.duplicates_suppressed, stats.retransmissions);
        assert_eq!(stats.acks_lost, stats.physical_transmissions);
    }

    #[test]
    fn chaos_is_seed_deterministic() {
        let profile = ChaosProfile::stress(9);
        let run = |seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut stats = NetStats::default();
            let mut scratch = WireScratch::default();
            let report = deliver(
                2,
                &frames(8),
                &profile,
                &mut rng,
                POLICY,
                &mut stats,
                &mut scratch,
            );
            (report.order.to_vec(), report.failed, stats)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds behave differently");
    }

    #[test]
    fn blown_deadline_reports_pending_frames() {
        let profile =
            ChaosProfile::reliable().with_link(ProcessId(0), ProcessId(1), LinkChaos::dead());
        // A deadline too short for the backoff schedule to exhaust retries:
        // the dead link's frame is still unsettled when time runs out.
        let policy = WirePolicy {
            max_retries: 10,
            deadline_ticks: 8,
        };
        let mut rng = SimRng::new(4);
        let mut stats = NetStats::default();
        let mut scratch = WireScratch::default();
        let report = deliver(
            1,
            &frames(2),
            &profile,
            &mut rng,
            policy,
            &mut stats,
            &mut scratch,
        );
        assert_eq!(report.pending, 1);
        assert_eq!(report.order.len(), 1);
        assert!(report.failed.is_empty(), "pending, not yet failed");
    }

    #[test]
    fn jitter_reorders_but_loses_nothing() {
        let profile = ChaosProfile::jitter(11);
        let mut rng = SimRng::new(profile.seed);
        let mut stats = NetStats::default();
        let mut scratch = WireScratch::default();
        let report = deliver(
            1,
            &frames(16),
            &profile,
            &mut rng,
            POLICY,
            &mut stats,
            &mut scratch,
        );
        assert_eq!(report.order.len(), 16);
        assert_eq!(report.failed.len(), 0);
        assert_eq!(report.pending, 0);
        let order = report.order.to_vec();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "every frame arrives");
        assert_ne!(order, sorted, "but not in staging order");
    }
}
