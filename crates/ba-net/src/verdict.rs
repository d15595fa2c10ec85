//! Structured outcomes of a runtime run: wire statistics, the
//! graceful-degradation verdict emitted when the fault budget is exceeded,
//! and the admission vocabulary of the open-loop service layer
//! ([`Ticket`], [`AdmissionVerdict`], [`AdmissionError`], [`ShedOutcome`]).

use ba_crypto::ProcessId;
use core::fmt;

/// Handle for one submission accepted by a service session
/// ([`SvcSession::submit`](crate::svc::SvcSession::submit)): pass it back
/// to [`try_outcome`](crate::svc::SvcSession::try_outcome) to poll for the
/// instance's settlement. Tickets are dense from 0 in submission order and
/// double as the instance id the chaos seed is derived from
/// ([`instance_seed`](crate::svc::instance_seed)).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ticket(pub u64);

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why a submission was not accepted. Admission failures are ordinary
/// values, never panics: the caller decides whether to retry, back off, or
/// drop the work — the session never decides for it and never drops
/// silently.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum AdmissionError {
    /// The admission queue is at capacity and the session's policy is
    /// [`AdmissionPolicy::Reject`](crate::svc::AdmissionPolicy::Reject).
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The policy was
    /// [`AdmissionPolicy::BlockWithDeadline`](crate::svc::AdmissionPolicy::BlockWithDeadline)
    /// and no queue slot freed within the deadline.
    DeadlineExpired {
        /// Service ticks the submission waited before giving up.
        waited_ticks: u64,
        /// The configured queue capacity that stayed full throughout.
        capacity: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            AdmissionError::DeadlineExpired {
                waited_ticks,
                capacity,
            } => write!(
                f,
                "admission deadline expired after {waited_ticks} ticks \
                 (queue capacity {capacity} never freed)"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What one [`submit`](crate::svc::SvcSession::submit) call did — the
/// structured audit record the session appends to its admission log for
/// *every* submission, accepted or not. Together with [`ShedOutcome`] this
/// makes the backpressure account exact: every ticket ever issued is
/// settled, shed, or still in the session; nothing is dropped silently.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum AdmissionVerdict {
    /// The submission was enqueued with free capacity to spare.
    Enqueued {
        /// The ticket issued.
        ticket: Ticket,
        /// Queue depth right after the enqueue (including this ticket).
        depth: usize,
    },
    /// The queue was full; the oldest queued ticket was shed to make room
    /// (policy [`ShedOldest`](crate::svc::AdmissionPolicy::ShedOldest)).
    /// The victim's [`ShedOutcome`] is recorded in the session.
    EnqueuedAfterShed {
        /// The ticket issued to the new submission.
        ticket: Ticket,
        /// The queued ticket that was evicted to make room.
        victim: Ticket,
    },
    /// The queue was full; the submission waited inside `submit` while the
    /// session ticked, and a slot freed before the deadline (policy
    /// [`BlockWithDeadline`](crate::svc::AdmissionPolicy::BlockWithDeadline)).
    EnqueuedAfterWait {
        /// The ticket issued.
        ticket: Ticket,
        /// Service ticks executed while the submission waited.
        waited_ticks: u64,
    },
    /// The submission was refused; no ticket was issued. Mirrors the
    /// [`AdmissionError`] returned from `submit`.
    Refused {
        /// Why admission failed.
        error: AdmissionError,
        /// Queue depth at refusal time.
        depth: usize,
    },
}

impl AdmissionVerdict {
    /// The ticket this verdict issued, if any.
    pub fn ticket(&self) -> Option<Ticket> {
        match self {
            AdmissionVerdict::Enqueued { ticket, .. }
            | AdmissionVerdict::EnqueuedAfterShed { ticket, .. }
            | AdmissionVerdict::EnqueuedAfterWait { ticket, .. } => Some(*ticket),
            AdmissionVerdict::Refused { .. } => None,
        }
    }
}

impl fmt::Display for AdmissionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionVerdict::Enqueued { ticket, depth } => {
                write!(f, "{ticket} enqueued (depth {depth})")
            }
            AdmissionVerdict::EnqueuedAfterShed { ticket, victim } => {
                write!(f, "{ticket} enqueued, shed {victim}")
            }
            AdmissionVerdict::EnqueuedAfterWait {
                ticket,
                waited_ticks,
            } => write!(f, "{ticket} enqueued after {waited_ticks} ticks"),
            AdmissionVerdict::Refused { error, depth } => {
                write!(f, "refused at depth {depth}: {error}")
            }
        }
    }
}

/// The structured record of one queued instance evicted by a shed-oldest
/// admission — the backpressure analogue of [`DegradationVerdict`]: the
/// work was not done, and here is exactly when and why.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShedOutcome {
    /// The evicted ticket.
    pub ticket: Ticket,
    /// Service tick at which the victim was submitted.
    pub submitted_tick: u64,
    /// Service tick at which it was shed.
    pub shed_tick: u64,
    /// The ticket whose admission displaced it.
    pub displaced_by: Ticket,
}

impl fmt::Display for ShedOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shed at tick {} (submitted tick {}, displaced by {})",
            self.ticket, self.shed_tick, self.submitted_tick, self.displaced_by
        )
    }
}

/// One permanently failed link: the sender exhausted its retransmission
/// budget without the frame ever reaching the receiver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FailedLink {
    /// The phase whose frame was lost.
    pub phase: usize,
    /// The sending processor (the runtime attributes the fault here).
    pub from: ProcessId,
    /// The receiver that never got the frame.
    pub to: ProcessId,
    /// Transmission attempts made before giving up.
    pub attempts: u32,
}

impl fmt::Display for FailedLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase {} {} -> {} ({} attempts)",
            self.phase, self.from, self.to, self.attempts
        )
    }
}

/// Wire-level statistics for one run — the physical story underneath the
/// logical [`Metrics`](ba_sim::Metrics). Logical counts (one per message,
/// however many times it was retransmitted) live in `Metrics`; these
/// counters expose what the unreliable wire actually cost.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NetStats {
    /// Logical frames delivered at least once.
    pub frames_delivered: u64,
    /// Logical frames never delivered (retries exhausted).
    pub frames_failed: u64,
    /// Physical transmission attempts (including retransmissions).
    pub physical_transmissions: u64,
    /// Retransmission attempts (physical minus first attempts).
    pub retransmissions: u64,
    /// Frame copies the receiver discarded as duplicates (wire duplication
    /// or retransmission after a lost ack).
    pub duplicates_suppressed: u64,
    /// Acks lost on the return path.
    pub acks_lost: u64,
    /// The largest number of virtual ticks any phase needed to settle.
    pub max_ticks_in_phase: u64,
    /// Wire sends issued: one per flush of a directed link. The runtime
    /// flushes every frame on its own (all solo); the service layer
    /// coalesces every instance's frames for one link into one flush.
    pub flushes: u64,
    /// Flushes that carried exactly one frame.
    pub solo_flushes: u64,
    /// Flushes that carried two or more frames (the coalescing win).
    pub batched_flushes: u64,
    /// Total frames carried across all flushes.
    pub coalesced_frames: u64,
    /// The largest number of frames any single flush carried.
    pub max_frames_per_flush: u64,
    /// Every permanently failed link, in detection order.
    pub failed_links: Vec<FailedLink>,
}

impl NetStats {
    /// Records one flush of a directed link carrying `frames` frames.
    pub fn note_flush(&mut self, frames: u64) {
        self.flushes += 1;
        self.coalesced_frames += frames;
        if frames > 1 {
            self.batched_flushes += 1;
        } else {
            self.solo_flushes += 1;
        }
        self.max_frames_per_flush = self.max_frames_per_flush.max(frames);
    }

    /// Records `count` flushes of one frame each — the runtime's
    /// one-wire-send-per-frame behaviour.
    pub fn note_solo_flushes(&mut self, count: u64) {
        self.flushes += count;
        self.solo_flushes += count;
        self.coalesced_frames += count;
        if count > 0 {
            self.max_frames_per_flush = self.max_frames_per_flush.max(1);
        }
    }

    /// Mean frames carried per flush (`0.0` before any flush).
    pub fn frames_per_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.coalesced_frames as f64 / self.flushes as f64
        }
    }

    /// Folds `other`'s counters into `self`: sums everything summable,
    /// maxes the maxima, appends the failed links. The service layer uses
    /// this to aggregate per-instance wire statistics into one fleet view.
    pub fn absorb(&mut self, other: &NetStats) {
        self.frames_delivered += other.frames_delivered;
        self.frames_failed += other.frames_failed;
        self.physical_transmissions += other.physical_transmissions;
        self.retransmissions += other.retransmissions;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.acks_lost += other.acks_lost;
        self.max_ticks_in_phase = self.max_ticks_in_phase.max(other.max_ticks_in_phase);
        self.flushes += other.flushes;
        self.solo_flushes += other.solo_flushes;
        self.batched_flushes += other.batched_flushes;
        self.coalesced_frames += other.coalesced_frames;
        self.max_frames_per_flush = self.max_frames_per_flush.max(other.max_frames_per_flush);
        self.failed_links.extend(other.failed_links.iter().copied());
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delivered={} failed={} physical={} retx={} dups={} acks_lost={} max_ticks={} \
             flushes={} (solo={} batched={} frames/flush={:.2})",
            self.frames_delivered,
            self.frames_failed,
            self.physical_transmissions,
            self.retransmissions,
            self.duplicates_suppressed,
            self.acks_lost,
            self.max_ticks_in_phase,
            self.flushes,
            self.solo_flushes,
            self.batched_flushes,
            self.frames_per_flush()
        )
    }
}

/// Why the runtime gave up on the run.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum DegradationReason {
    /// More processors are observably faulty (scheduled plus suspected via
    /// failed links) than the budget `t` tolerates; continuing could let a
    /// correct-looking run decide wrongly, so the runtime refuses.
    FaultBudgetExceeded {
        /// Size of the union of scheduled-faulty and suspected processors.
        observed: usize,
        /// The budget `t` the run was configured with.
        budget: usize,
    },
    /// Frames were still undelivered when the phase's virtual-tick deadline
    /// expired — the synchrony assumption broke outright.
    DeadlineBlown {
        /// Frames that never settled.
        pending_frames: usize,
        /// The deadline that expired.
        deadline_ticks: u64,
    },
    /// A chunk of actors was lost while being stepped: one of its actors
    /// panicked, or (standalone runs) the step fan-out overran the
    /// wall-clock watchdog.
    WorkerStalled {
        /// The watchdog timeout in force, in milliseconds (`0` for a
        /// service instance, which runs without one and only reports
        /// panics).
        waited_ms: u64,
    },
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::FaultBudgetExceeded { observed, budget } => {
                write!(f, "fault budget exceeded: {observed} observed faults > t = {budget}")
            }
            DegradationReason::DeadlineBlown {
                pending_frames,
                deadline_ticks,
            } => write!(
                f,
                "phase deadline blown: {pending_frames} frames unsettled after {deadline_ticks} ticks"
            ),
            DegradationReason::WorkerStalled { waited_ms } => {
                write!(f, "worker stalled: no reply within {waited_ms} ms")
            }
        }
    }
}

/// The structured report the runtime emits instead of a result when it
/// aborts: which phase broke, why, which links failed, who is suspected,
/// and which workers (if any) stalled. The runtime's contract is that it
/// *never* panics and *never* returns decisions it cannot stand behind —
/// when the observable fault set outgrows the budget, this verdict is the
/// entire output.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DegradationVerdict {
    /// The phase during which the run was abandoned (1-based).
    pub phase: usize,
    /// What specifically broke.
    pub reason: DegradationReason,
    /// Processors suspected faulty from failed links (senders).
    pub suspected: Vec<ProcessId>,
    /// Indices of the actor chunks lost to a panic or the watchdog.
    pub stalled_workers: Vec<usize>,
    /// Wire statistics accumulated up to the abort, every permanently
    /// failed link among them ([`NetStats::failed_links`]).
    pub stats: NetStats,
}

impl fmt::Display for DegradationVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "degraded at phase {}: {}", self.phase, self.reason)?;
        if !self.suspected.is_empty() {
            write!(f, "; suspected ")?;
            for (i, p) in self.suspected.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
        }
        if !self.stats.failed_links.is_empty() {
            write!(f, "; failed links ")?;
            for (i, link) in self.stats.failed_links.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "[{link}]")?;
            }
        }
        if !self.stalled_workers.is_empty() {
            write!(f, "; stalled workers {:?}", self.stalled_workers)?;
        }
        Ok(())
    }
}

impl std::error::Error for DegradationVerdict {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_display_names_phase_links_and_suspects() {
        let verdict = DegradationVerdict {
            phase: 3,
            reason: DegradationReason::FaultBudgetExceeded {
                observed: 2,
                budget: 1,
            },
            suspected: vec![ProcessId(1), ProcessId(2)],
            stalled_workers: vec![],
            stats: NetStats {
                failed_links: vec![FailedLink {
                    phase: 3,
                    from: ProcessId(1),
                    to: ProcessId(0),
                    attempts: 5,
                }],
                ..NetStats::default()
            },
        };
        let text = verdict.to_string();
        assert!(text.contains("phase 3"), "{text}");
        assert!(text.contains("fault budget exceeded"), "{text}");
        assert!(text.contains("p1"), "{text}");
        assert!(text.contains("5 attempts"), "{text}");
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<DegradationVerdict>();
    }

    #[test]
    fn flush_counters_distinguish_solo_from_batched() {
        let mut stats = NetStats::default();
        stats.note_flush(1);
        stats.note_flush(3);
        stats.note_solo_flushes(2);
        assert_eq!(stats.flushes, 4);
        assert_eq!(stats.solo_flushes, 3);
        assert_eq!(stats.batched_flushes, 1);
        assert_eq!(stats.coalesced_frames, 6);
        assert_eq!(stats.max_frames_per_flush, 3);
        assert_eq!(stats.frames_per_flush(), 1.5);
        let text = stats.to_string();
        assert!(text.contains("flushes=4"), "{text}");
        assert!(text.contains("batched=1"), "{text}");
    }

    #[test]
    fn absorb_sums_counters_and_maxes_maxima() {
        let mut a = NetStats {
            frames_delivered: 2,
            max_ticks_in_phase: 5,
            ..NetStats::default()
        };
        a.note_flush(2);
        let mut b = NetStats {
            frames_delivered: 3,
            max_ticks_in_phase: 9,
            failed_links: vec![FailedLink {
                phase: 1,
                from: ProcessId(0),
                to: ProcessId(1),
                attempts: 5,
            }],
            ..NetStats::default()
        };
        b.note_flush(7);
        a.absorb(&b);
        assert_eq!(a.frames_delivered, 5);
        assert_eq!(a.max_ticks_in_phase, 9);
        assert_eq!(a.flushes, 2);
        assert_eq!(a.coalesced_frames, 9);
        assert_eq!(a.max_frames_per_flush, 7);
        assert_eq!(a.failed_links.len(), 1);
    }

    #[test]
    fn admission_vocabulary_displays_and_tickets() {
        let enqueued = AdmissionVerdict::Enqueued {
            ticket: Ticket(3),
            depth: 2,
        };
        assert_eq!(enqueued.ticket(), Some(Ticket(3)));
        assert!(enqueued.to_string().contains("#3"));
        let shed = AdmissionVerdict::EnqueuedAfterShed {
            ticket: Ticket(9),
            victim: Ticket(4),
        };
        assert!(shed.to_string().contains("shed #4"), "{shed}");
        let refused = AdmissionVerdict::Refused {
            error: AdmissionError::QueueFull { capacity: 8 },
            depth: 8,
        };
        assert_eq!(refused.ticket(), None);
        assert!(refused.to_string().contains("capacity 8"), "{refused}");
        let deadline = AdmissionError::DeadlineExpired {
            waited_ticks: 16,
            capacity: 8,
        };
        assert!(deadline.to_string().contains("16 ticks"), "{deadline}");
        let outcome = ShedOutcome {
            ticket: Ticket(4),
            submitted_tick: 1,
            shed_tick: 7,
            displaced_by: Ticket(9),
        };
        assert!(outcome.to_string().contains("displaced by #9"), "{outcome}");
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<AdmissionError>();
    }

    #[test]
    fn reason_displays_are_specific() {
        let deadline = DegradationReason::DeadlineBlown {
            pending_frames: 4,
            deadline_ticks: 128,
        };
        assert!(deadline.to_string().contains("4 frames"));
        let stalled = DegradationReason::WorkerStalled { waited_ms: 250 };
        assert!(stalled.to_string().contains("250 ms"));
    }
}
