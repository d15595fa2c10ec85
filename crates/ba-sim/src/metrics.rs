//! Message, signature and phase accounting.
//!
//! The paper measures "the total number of messages the participating
//! processors have to send in the worst case" and, for authenticated
//! algorithms, "the number of signatures appended to messages", in both
//! cases restricted to traffic sent by *correct* processors (a faulty
//! processor could inflate any count arbitrarily). [`Metrics`] therefore
//! tracks correct-sender counts as the primary figures and total counts for
//! diagnostics.
//!
//! Beyond the paper's message/signature counts, the engine folds in the
//! cryptographic work counters from [`ba_crypto::stats`] — hash
//! invocations, signature verifications, and barrier-stamp hits vs full
//! chain checks — per phase and per run, so the effect of barrier
//! verification is visible in experiment output and not just wall-clock.

use crate::actor::Payload;
use ba_crypto::stats::CryptoStats;
use core::fmt;
use std::collections::BTreeMap;

/// Per-phase traffic snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhaseMetrics {
    /// Messages sent by correct processors during this phase.
    pub messages_by_correct: u64,
    /// Signatures carried by those messages.
    pub signatures_by_correct: u64,
    /// Wire bytes sent by correct processors during this phase.
    pub bytes_by_correct: u64,
    /// The application-payload portion of those bytes (see
    /// [`Metrics::payload_bytes_by_correct`]).
    pub payload_bytes_by_correct: u64,
    /// Messages sent by faulty processors during this phase.
    pub messages_by_faulty: u64,
    /// SHA-256 invocations performed while executing this phase.
    pub hash_invocations: u64,
    /// Individual signature verifications performed this phase.
    pub sig_verifications: u64,
    /// Messages suppressed during this phase — by an adversary wrapper
    /// filtering an honest actor's outbox, or by a scheduled link drop in
    /// the engine.
    pub omitted: u64,
}

/// Aggregated run statistics.
///
/// ```
/// use ba_sim::Metrics;
/// let m = Metrics::default();
/// assert_eq!(m.messages_total(), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Metrics {
    /// Number of phases executed.
    pub phases: usize,
    /// The last phase in which any correct processor sent a message
    /// (`0` when no correct processor ever sent).
    pub last_active_phase: usize,
    /// Messages sent by correct processors — the paper's message count.
    pub messages_by_correct: u64,
    /// Signatures appended to messages sent by correct processors — the
    /// paper's signature count.
    pub signatures_by_correct: u64,
    /// Approximate bytes sent by correct processors — the *bits exchanged*
    /// figure, with the same correct-sender restriction as the message
    /// count. Like the crypto counters this is schedule-independent: it
    /// depends only on what each correct actor sends, never on how a phase
    /// was threaded or which runtime carried the traffic.
    pub bytes_by_correct: u64,
    /// The application-payload portion of [`Self::bytes_by_correct`]: bytes
    /// of user data being agreed on, as reported by
    /// [`Payload::payload_bytes`].
    /// Zero for the single-value targets; the extension layer's coded
    /// chunks report their data slices here, so
    /// `bytes_by_correct - payload_bytes_by_correct` is the
    /// protocol-control overhead.
    pub payload_bytes_by_correct: u64,
    /// Messages sent by faulty processors (diagnostic only).
    pub messages_by_faulty: u64,
    /// Messages suppressed by adversaries or scheduled link drops: traffic
    /// an honest behaviour produced that never reached the network.
    /// Distinguishes a *quiet* run from a *censored* one in checker
    /// reports.
    pub omitted_messages: u64,
    /// Per-phase breakdown.
    pub per_phase: Vec<PhaseMetrics>,
    /// Correct-sender message counts by payload kind (see
    /// [`Payload::kind`]).
    pub by_kind_correct: BTreeMap<&'static str, u64>,
    /// Cryptographic work performed over the whole run (all actors): hash
    /// invocations, signature verifications, stamp hits vs full checks.
    pub crypto: CryptoStats,
}

impl Metrics {
    /// Messages sent by anyone.
    pub fn messages_total(&self) -> u64 {
        self.messages_by_correct + self.messages_by_faulty
    }

    /// Total wire bytes sent by correct processors — the headline
    /// bits-exchanged figure (bench rows report it as `bytes_sent`).
    pub fn wire_bytes(&self) -> u64 {
        self.bytes_by_correct
    }

    /// The control (non-payload) portion of the correct senders' wire
    /// bytes: framing, signatures, digests, repair requests.
    pub fn control_bytes_by_correct(&self) -> u64 {
        self.bytes_by_correct - self.payload_bytes_by_correct
    }

    /// These metrics with every crypto work counter zeroed — the run
    /// totals and each phase's hashes and signature checks: what a run
    /// verifying at the phase barrier and the per-recipient reference
    /// ([`with_batched_verification(false)`](crate::Simulation::with_batched_verification))
    /// must agree on.
    pub fn without_crypto(&self) -> Metrics {
        let mut m = self.clone();
        m.crypto = CryptoStats::default();
        for phase in &mut m.per_phase {
            (phase.hash_invocations, phase.sig_verifications) = (0, 0);
        }
        m
    }

    /// Records `count` sent copies of `payload` — a frame and the number
    /// of recipients it reached. The phase core's fill
    /// ([`PhaseCore::deliver`](crate::engine::PhaseCore::deliver)) is the
    /// one caller in the workspace, for every driver.
    pub fn record_send<P: Payload>(
        &mut self,
        phase: usize,
        correct_sender: bool,
        count: u64,
        payload: &P,
    ) {
        let (bytes, payload_bytes) = (payload.weight_bytes(), payload.payload_bytes());
        debug_assert!(
            payload_bytes <= bytes,
            "payload portion ({payload_bytes}) exceeds wire bytes ({bytes})"
        );
        if self.per_phase.len() < phase {
            self.per_phase.resize(phase, PhaseMetrics::default());
        }
        let slot = &mut self.per_phase[phase - 1];
        if correct_sender {
            let signatures = count * payload.signature_count() as u64;
            let bytes = count * bytes as u64;
            let payload_bytes = count * payload_bytes as u64;
            slot.messages_by_correct += count;
            slot.signatures_by_correct += signatures;
            slot.bytes_by_correct += bytes;
            slot.payload_bytes_by_correct += payload_bytes;
            self.messages_by_correct += count;
            self.signatures_by_correct += signatures;
            self.bytes_by_correct += bytes;
            self.payload_bytes_by_correct += payload_bytes;
            *self.by_kind_correct.entry(payload.kind()).or_insert(0) += count;
            self.last_active_phase = self.last_active_phase.max(phase);
        } else {
            slot.messages_by_faulty += count;
            self.messages_by_faulty += count;
        }
    }

    /// Records `count` suppressed messages during `phase` (1-based) — see
    /// [`omitted_messages`](Metrics::omitted_messages).
    pub fn record_omitted(&mut self, phase: usize, count: u64) {
        if count == 0 {
            return;
        }
        if self.per_phase.len() < phase {
            self.per_phase.resize(phase, PhaseMetrics::default());
        }
        self.per_phase[phase - 1].omitted += count;
        self.omitted_messages += count;
    }

    /// Attributes a phase's cryptographic work delta to `phase` (1-based)
    /// and to the run totals.
    pub fn record_phase_crypto(&mut self, phase: usize, delta: CryptoStats) {
        if self.per_phase.len() < phase {
            self.per_phase.resize(phase, PhaseMetrics::default());
        }
        let slot = &mut self.per_phase[phase - 1];
        slot.hash_invocations += delta.hash_invocations;
        slot.sig_verifications += delta.sig_verifications;
        self.crypto = self.crypto.add(&delta);
    }

    /// Adds cryptographic work to the run totals without a phase
    /// attribution (used for finalize-time delivery).
    pub fn absorb_crypto(&mut self, delta: CryptoStats) {
        self.crypto = self.crypto.add(&delta);
    }

    /// Folds `other` into `self`: counters add, phase counts take the
    /// maximum, per-phase rows add element-wise. Used by parameter sweeps
    /// to aggregate independent cells into one run-level summary.
    pub fn merge(&mut self, other: &Metrics) {
        self.phases = self.phases.max(other.phases);
        self.last_active_phase = self.last_active_phase.max(other.last_active_phase);
        self.messages_by_correct += other.messages_by_correct;
        self.signatures_by_correct += other.signatures_by_correct;
        self.bytes_by_correct += other.bytes_by_correct;
        self.payload_bytes_by_correct += other.payload_bytes_by_correct;
        self.messages_by_faulty += other.messages_by_faulty;
        self.omitted_messages += other.omitted_messages;
        if self.per_phase.len() < other.per_phase.len() {
            self.per_phase
                .resize(other.per_phase.len(), PhaseMetrics::default());
        }
        for (slot, theirs) in self.per_phase.iter_mut().zip(&other.per_phase) {
            slot.messages_by_correct += theirs.messages_by_correct;
            slot.signatures_by_correct += theirs.signatures_by_correct;
            slot.bytes_by_correct += theirs.bytes_by_correct;
            slot.payload_bytes_by_correct += theirs.payload_bytes_by_correct;
            slot.messages_by_faulty += theirs.messages_by_faulty;
            slot.hash_invocations += theirs.hash_invocations;
            slot.sig_verifications += theirs.sig_verifications;
            slot.omitted += theirs.omitted;
        }
        for (kind, count) in &other.by_kind_correct {
            *self.by_kind_correct.entry(kind).or_insert(0) += count;
        }
        self.crypto = self.crypto.add(&other.crypto);
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phases={} msgs(correct)={} sigs(correct)={} msgs(faulty)={}",
            self.phases,
            self.messages_by_correct,
            self.signatures_by_correct,
            self.messages_by_faulty
        )
    }
}

/// Admission-queue accounting for an open-loop serving layer.
///
/// [`Metrics`] counts what a single agreement costs; a service admitting a
/// *stream* of agreements also has to account for the work it refused or
/// shed, and for how deep the waiting line got while it refused. These
/// counters are the queue-side complement: every submission ends up in
/// exactly one of `admitted` (eventually ran), `shed` (evicted from the
/// queue by a later arrival) — and `rejected` submissions never received a
/// ticket at all, so `submitted = admitted + shed + still-queued` holds at
/// any instant.
///
/// Depth is sampled once per service tick (after admission), so
/// [`mean_depth`](QueueStats::mean_depth) is a tick-weighted average, not a
/// per-submission one.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueueStats {
    /// Submissions that received a ticket (enqueued or directly admitted).
    pub submitted: u64,
    /// Tickets moved from the queue into flight.
    pub admitted: u64,
    /// Queued tickets evicted by a shed-oldest admission.
    pub shed: u64,
    /// Submissions refused outright (no ticket issued).
    pub rejected: u64,
    /// Submissions that had to wait for queue space (block-with-deadline).
    pub blocked_submits: u64,
    /// Service ticks spent inside blocking submissions, in total.
    pub blocked_ticks: u64,
    /// The deepest the queue ever got.
    pub peak_depth: usize,
    /// Sum of sampled queue depths (numerator of the mean).
    pub depth_sum: u64,
    /// Number of depth samples taken (denominator of the mean).
    pub depth_samples: u64,
}

impl QueueStats {
    /// Records one per-tick queue-depth sample.
    pub fn record_depth(&mut self, depth: usize) {
        self.peak_depth = self.peak_depth.max(depth);
        self.depth_sum += depth as u64;
        self.depth_samples += 1;
    }

    /// Tick-weighted mean queue depth (`0.0` before any sample).
    pub fn mean_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }
}

impl fmt::Display for QueueStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "submitted={} admitted={} shed={} rejected={} blocked={}({} ticks) \
             depth(peak={} mean={:.2})",
            self.submitted,
            self.admitted,
            self.shed,
            self.rejected,
            self.blocked_submits,
            self.blocked_ticks,
            self.peak_depth,
            self.mean_depth()
        )
    }
}

/// A test payload weighing what it is told to: `(signatures, bytes,
/// payload bytes, kind)`.
#[cfg(test)]
#[derive(Clone, Debug)]
pub(crate) struct Weighed(pub usize, pub usize, pub usize, pub &'static str);

#[cfg(test)]
impl Payload for Weighed {
    fn signature_count(&self) -> usize {
        self.0
    }
    fn weight_bytes(&self) -> usize {
        self.1
    }
    fn payload_bytes(&self) -> usize {
        self.2
    }
    fn kind(&self) -> &'static str {
        self.3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_aggregates_by_correctness() {
        let mut m = Metrics::default();
        m.record_send(1, true, 1, &Weighed(2, 10, 6, "a"));
        m.record_send(1, false, 1, &Weighed(5, 99, 0, "a"));
        m.record_send(3, true, 1, &Weighed(0, 4, 0, "b"));
        assert_eq!(m.messages_by_correct, 2);
        assert_eq!(m.signatures_by_correct, 2);
        assert_eq!(m.messages_by_faulty, 1);
        assert_eq!(m.bytes_by_correct, 14);
        assert_eq!(m.messages_total(), 3);
        assert_eq!(m.last_active_phase, 3);
        assert_eq!(m.per_phase.len(), 3);
        assert_eq!(m.per_phase[0].messages_by_correct, 1);
        assert_eq!(m.per_phase[0].messages_by_faulty, 1);
        assert_eq!(m.per_phase[1], PhaseMetrics::default());
        assert_eq!(m.per_phase[2].messages_by_correct, 1);
        assert_eq!(m.by_kind_correct.get("a"), Some(&1));
        assert_eq!(m.by_kind_correct.get("b"), Some(&1));
    }

    #[test]
    fn queue_stats_depth_sampling_and_display() {
        let mut q = QueueStats::default();
        assert_eq!(q.mean_depth(), 0.0);
        q.record_depth(3);
        q.record_depth(5);
        q.record_depth(0);
        q.submitted = 4;
        q.admitted = 3;
        q.shed = 1;
        assert_eq!(q.peak_depth, 5);
        assert_eq!(q.depth_samples, 3);
        assert!((q.mean_depth() - 8.0 / 3.0).abs() < 1e-12);
        let text = q.to_string();
        assert!(text.contains("submitted=4"), "{text}");
        assert!(text.contains("shed=1"), "{text}");
        assert!(text.contains("peak=5"), "{text}");
    }

    #[test]
    fn faulty_sends_do_not_advance_last_active_phase() {
        let mut m = Metrics::default();
        m.record_send(5, false, 1, &Weighed(0, 0, 0, "a"));
        assert_eq!(m.last_active_phase, 0);
    }

    #[test]
    fn phase_crypto_and_merge_accumulate() {
        let delta = CryptoStats {
            hash_invocations: 10,
            tag_ops: 4,
            sig_verifications: 3,
            cache_hits: 1,
            cache_misses: 2,
        };
        let mut a = Metrics::default();
        a.record_send(1, true, 1, &Weighed(1, 8, 2, "x"));
        a.record_phase_crypto(2, delta);
        assert_eq!(a.per_phase[1].hash_invocations, 10);
        assert_eq!(a.per_phase[1].sig_verifications, 3);
        assert_eq!(a.crypto.cache_hits, 1);
        a.absorb_crypto(delta);
        assert_eq!(a.crypto.hash_invocations, 20);

        let mut b = Metrics {
            phases: 5,
            ..Default::default()
        };
        b.record_send(3, false, 1, &Weighed(0, 0, 0, "x"));
        b.record_send(1, true, 1, &Weighed(2, 4, 4, "y"));
        b.record_phase_crypto(1, delta);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.phases, 5);
        assert_eq!(merged.messages_by_correct, 2);
        assert_eq!(merged.messages_by_faulty, 1);
        assert_eq!(merged.per_phase.len(), 3);
        assert_eq!(merged.per_phase[0].hash_invocations, 10);
        assert_eq!(merged.crypto.hash_invocations, 30);
        assert_eq!(merged.by_kind_correct.get("x"), Some(&1));
        assert_eq!(merged.by_kind_correct.get("y"), Some(&1));
    }

    #[test]
    fn omitted_counts_accumulate_and_merge() {
        let mut m = Metrics::default();
        m.record_omitted(2, 3);
        m.record_omitted(2, 0); // zero is a no-op: no phase row materialized beyond 2
        assert_eq!(m.omitted_messages, 3);
        assert_eq!(m.per_phase.len(), 2);
        assert_eq!(m.per_phase[1].omitted, 3);
        assert_eq!(m.per_phase[0].omitted, 0);

        let mut other = Metrics::default();
        other.record_omitted(1, 5);
        m.merge(&other);
        assert_eq!(m.omitted_messages, 8);
        assert_eq!(m.per_phase[0].omitted, 5);
    }

    #[test]
    fn display_summarizes() {
        let mut m = Metrics {
            phases: 4,
            ..Default::default()
        };
        m.record_send(2, true, 1, &Weighed(1, 0, 0, "a"));
        let s = m.to_string();
        assert!(s.contains("phases=4"));
        assert!(s.contains("msgs(correct)=1"));
    }
}
