//! Algorithm 4 — the 3-phase `√N × √N` grid exchange (Lemma 2, Theorem 6).
//!
//! `N = m²` processors `p(i, j)` each hold a value and want (almost) all
//! correct processors to learn (almost) all correct values while sending
//! only `O(N^1.5)` messages — far below the `Ω(Nt)` needed for *full*
//! mutual exchange:
//!
//! * **Phase 1** — `p(i, j)` signs its value and sends it along row `i`.
//!   `M1(i, j, k)` is the correctly-formatted value received from
//!   `p(i, k)`.
//! * **Phase 2** — `p(i, j)` sends `[M1(i, j, 1), …, M1(i, j, m)]` down
//!   column `j`. `M2(i, j, l)` is the correctly-formatted row bundle
//!   received from `p(l, j)`.
//! * **Phase 3** — `p(i, j)` sends `[M2(i, j, 1), …, M2(i, j, m)]` along
//!   row `i`; `M3(i, j)` is everything received.
//!
//! Lemma 2: with at most `t` faults there is a set `P` of at least
//! `N − 2t` correct processors (those whose row has fewer than `m/2`
//! faults) such that every member of `P` ends up holding every other
//! member's signed value. Total messages: at most `3(m − 1)m²`.
//!
//! The state machine ([`Alg4State`]) is deliberately embeddable: the active
//! processors of Algorithm 5 run one instance per block, with a per-block
//! `tag` separating the signature spaces.

use crate::common::{domains, instance, run_instance, Board, RunOptions};
use ba_crypto::wire::Encoder;
use ba_crypto::Bytes;
use ba_crypto::{KeyRegistry, ProcessId, Signature, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox, Payload};
use ba_sim::engine::{InstanceSpec, RunOutcome};
use ba_sim::schedule::{ScheduleError, ScheduleSpec};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A value (opaque bytes) signed by one grid member.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedItem {
    /// The carried value.
    pub body: Bytes,
    /// Signature over `(GRID domain, tag, body)`.
    pub sig: Signature,
}

impl SignedItem {
    /// Canonical bytes the signature covers.
    fn content(tag: u64, body: &[u8]) -> Bytes {
        let mut enc = Encoder::with_capacity(16 + body.len());
        enc.u32(domains::GRID).u64(tag).bytes(body);
        enc.finish()
    }

    /// Signs `body` under `tag`.
    pub fn new(tag: u64, body: Bytes, signer: &Signer) -> Self {
        let sig = signer.sign(&Self::content(tag, &body));
        SignedItem { body, sig }
    }

    /// The claimed signer.
    pub fn signer(&self) -> ProcessId {
        self.sig.signer()
    }

    /// Encoded size: the body, then the signature at its scheme's
    /// [`encoded_len`](Signature::encoded_len).
    pub fn encoded_len(&self) -> usize {
        self.body.len() + self.sig.encoded_len()
    }

    /// Whether the signature verifies under `tag`.
    pub fn verifies(&self, tag: u64, verifier: &Verifier) -> bool {
        verifier.verify(&self.sig, &Self::content(tag, &self.body))
    }
}

/// Grid messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GridMsg {
    /// Phase 1: one signed value.
    Item(SignedItem),
    /// Phase 2: a row bundle.
    Row(Vec<SignedItem>),
    /// Phase 3: bundles of row bundles.
    Rows(Vec<Vec<SignedItem>>),
}

impl Payload for GridMsg {
    fn signature_count(&self) -> usize {
        match self {
            GridMsg::Item(_) => 1,
            GridMsg::Row(items) => items.len(),
            GridMsg::Rows(rows) => rows.iter().map(Vec::len).sum(),
        }
    }
    fn weight_bytes(&self) -> usize {
        match self {
            GridMsg::Item(item) => item.encoded_len(),
            GridMsg::Row(items) => items.iter().map(SignedItem::encoded_len).sum(),
            GridMsg::Rows(rows) => rows.iter().flatten().map(SignedItem::encoded_len).sum(),
        }
    }
    fn kind(&self) -> &'static str {
        "grid"
    }
}

/// The `m × m` grid over processors `0..m²`, row-major: `p` sits at row
/// `p / m`, column `p % m`. The workspace's one grid geometry (Algorithms
/// 4 and 5, `ba-ext`'s dissemination); arithmetic only, so every lookup
/// is O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridLayout {
    m: usize,
}

impl GridLayout {
    /// The grid over processors `0..n`, when `n = m²` with `m ≥ 1`.
    pub fn new(n: usize) -> Option<Self> {
        let m = n.isqrt();
        (m >= 1 && m * m == n).then_some(GridLayout { m })
    }

    /// Side length `m`.
    pub fn m(self) -> usize {
        self.m
    }

    /// The processor at 0-based `(row, col)`.
    pub fn id(self, row: usize, col: usize) -> ProcessId {
        ProcessId((row * self.m + col) as u32)
    }

    /// The 0-based `(row, col)` of `p`, if on the grid.
    pub fn pos(self, p: ProcessId) -> Option<(usize, usize)> {
        let i = p.index();
        (i < self.m * self.m).then_some((i / self.m, i % self.m))
    }

    /// All members of `row`, in id order.
    pub fn row(self, row: usize) -> impl Iterator<Item = ProcessId> {
        (0..self.m).map(move |c| self.id(row, c))
    }

    /// The other members of `p`'s row, in id order (`p` on the grid).
    pub fn row_mates(self, p: ProcessId) -> impl Iterator<Item = ProcessId> {
        self.row(p.index() / self.m).filter(move |&q| q != p)
    }

    /// The other members of `p`'s column, in id order (`p` on the grid).
    pub fn col_mates(self, p: ProcessId) -> impl Iterator<Item = ProcessId> {
        let col = p.index() % self.m;
        (0..self.m)
            .map(move |r| self.id(r, col))
            .filter(move |&q| q != p)
    }

    /// Whether `p` is on the grid, in `row`.
    fn in_row(self, p: ProcessId, row: usize) -> bool {
        self.pos(p).is_some_and(|(r, _)| r == row)
    }
}

/// The per-processor Algorithm 4 state machine.
///
/// Callers drive it with exactly four calls in successive phases:
/// [`phase1_sends`](Self::phase1_sends), [`phase2_sends`](Self::phase2_sends)
/// (with phase 1's inbox), [`phase3_sends`](Self::phase3_sends) (with
/// phase 2's inbox), and [`finish`](Self::finish) (with phase 3's inbox);
/// then [`result`](Self::result) is the set `M3`.
#[derive(Debug)]
pub struct Alg4State {
    layout: GridLayout,
    verifier: Verifier,
    me: ProcessId,
    row: usize,
    col: usize,
    tag: u64,
    my_item: SignedItem,
    /// Valid row items (own first).
    m1: Vec<SignedItem>,
    /// Valid row bundles received down the column (own bundle included).
    m2: Vec<Vec<SignedItem>>,
    /// Final harvested set, deduplicated by `(signer, body)`.
    m3: Vec<SignedItem>,
    m3_seen: BTreeSet<(u32, Bytes)>,
}

impl Alg4State {
    /// Creates the state for `me` holding `body`, signing with `signer`.
    ///
    /// # Panics
    /// Panics if `me` is not on the grid or `signer` is for a different
    /// identity.
    pub fn new(
        layout: GridLayout,
        me: ProcessId,
        body: Bytes,
        signer: &Signer,
        verifier: Verifier,
        tag: u64,
    ) -> Self {
        assert_eq!(signer.id(), me, "signer must belong to the grid member");
        let (row, col) = layout.pos(me).expect("processor must be on the grid");
        let my_item = SignedItem::new(tag, body, signer);
        let mut state = Alg4State {
            layout,
            verifier,
            me,
            row,
            col,
            tag,
            my_item: my_item.clone(),
            m1: vec![my_item.clone()],
            m2: Vec::new(),
            m3: Vec::new(),
            m3_seen: BTreeSet::new(),
        };
        state.harvest(std::iter::once(my_item));
        state
    }

    /// The grid member this state belongs to.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    fn harvest(&mut self, items: impl IntoIterator<Item = SignedItem>) {
        for item in items {
            let key = (item.signer().0, item.body.clone());
            if self.m3_seen.insert(key) {
                self.m3.push(item);
            }
        }
    }

    /// Phase 1: send the signed value along my row.
    pub fn phase1_sends(&self, mut send: impl FnMut(ProcessId, GridMsg)) {
        for target in self.layout.row_mates(self.me) {
            send(target, GridMsg::Item(self.my_item.clone()));
        }
    }

    /// Phase 2: absorb phase-1 row items, then send the bundle down my
    /// column.
    pub fn phase2_sends(
        &mut self,
        inbox: Inbox<'_, GridMsg>,
        mut send: impl FnMut(ProcessId, GridMsg),
    ) {
        for env in inbox {
            if let GridMsg::Item(item) = &env.payload {
                // Correct format: signed by the actual row sender.
                if self.layout.in_row(env.from, self.row)
                    && item.signer() == env.from
                    && item.verifies(self.tag, &self.verifier)
                {
                    self.m1.push(item.clone());
                }
            }
        }
        self.harvest(self.m1.clone());
        self.m2.push(self.m1.clone()); // my own row bundle
        for target in self.layout.col_mates(self.me) {
            send(target, GridMsg::Row(self.m1.clone()));
        }
    }

    /// Phase 3: absorb phase-2 column bundles, then send everything along
    /// my row.
    pub fn phase3_sends(
        &mut self,
        inbox: Inbox<'_, GridMsg>,
        mut send: impl FnMut(ProcessId, GridMsg),
    ) {
        for env in inbox {
            if let GridMsg::Row(items) = &env.payload {
                let Some((l, c)) = self.layout.pos(env.from) else {
                    continue;
                };
                if c != self.col || items.len() > self.layout.m() {
                    continue;
                }
                // Correct format: every item signed by a member of row l.
                let ok = items.iter().all(|item| {
                    self.layout.in_row(item.signer(), l) && item.verifies(self.tag, &self.verifier)
                });
                if ok {
                    self.m2.push(items.clone());
                    self.harvest(items.iter().cloned());
                }
            }
        }
        for target in self.layout.row_mates(self.me) {
            send(target, GridMsg::Rows(self.m2.clone()));
        }
    }

    /// Final absorption of phase-3 bundles into `M3`.
    pub fn finish(&mut self, inbox: Inbox<'_, GridMsg>) {
        for env in inbox {
            if let GridMsg::Rows(rows) = &env.payload {
                if !self.layout.in_row(env.from, self.row) || rows.len() > 2 * self.layout.m() {
                    continue;
                }
                for items in rows {
                    if items.len() > self.layout.m() {
                        continue;
                    }
                    // Each inner list must be one row's signatures.
                    let mut rows_of_signers = items
                        .iter()
                        .filter_map(|i| self.layout.pos(i.signer()).map(|(r, _)| r));
                    let first = rows_of_signers.next();
                    if rows_of_signers.any(|r| Some(r) != first) {
                        continue;
                    }
                    let valid: Vec<SignedItem> = items
                        .iter()
                        .filter(|i| {
                            self.layout.pos(i.signer()).is_some()
                                && i.verifies(self.tag, &self.verifier)
                        })
                        .cloned()
                        .collect();
                    self.harvest(valid);
                }
            }
        }
    }

    /// The harvested set `M3`: every signed value this processor ended up
    /// holding.
    pub fn result(&self) -> &[SignedItem] {
        &self.m3
    }
}

/// A standalone grid actor for the Theorem 6 experiment: exchanges its own
/// id as the value and deposits `M3` on a board.
#[derive(Debug)]
pub struct GridActor {
    state: Alg4State,
    results: Arc<Board<Vec<SignedItem>>>,
}

impl GridActor {
    /// Creates the actor; its exchanged value is its own id.
    pub fn new(
        layout: GridLayout,
        me: ProcessId,
        signer: &Signer,
        verifier: Verifier,
        tag: u64,
        results: Arc<Board<Vec<SignedItem>>>,
    ) -> Self {
        let mut enc = Encoder::with_capacity(4);
        enc.process_id(me);
        let state = Alg4State::new(layout, me, enc.finish(), signer, verifier, tag);
        GridActor { state, results }
    }
}

impl Actor<GridMsg> for GridActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, GridMsg>, out: &mut Outbox<GridMsg>) {
        match phase {
            1 => self.state.phase1_sends(|to, msg| out.send(to, msg)),
            2 => self.state.phase2_sends(inbox, |to, msg| out.send(to, msg)),
            3 => self.state.phase3_sends(inbox, |to, msg| out.send(to, msg)),
            _ => {}
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, GridMsg>) {
        self.state.finish(inbox);
        self.results
            .post(self.state.me(), self.state.result().to_vec());
    }

    fn decision(&self) -> Option<Value> {
        // The exchange primitive has no agreement decision; report a
        // constant so the engine's decision slot is well-defined.
        Some(Value::ZERO)
    }
}

/// Outcome of a standalone Algorithm 4 run.
#[derive(Debug)]
pub struct Alg4Report {
    /// Raw engine outcome.
    pub outcome: RunOutcome<GridMsg>,
    /// Each processor's harvested `M3` (by processor index).
    pub results: Vec<Option<Vec<SignedItem>>>,
    /// Side length.
    pub m: usize,
}

impl Alg4Report {
    /// Lemma 2's set `P`: correct processors whose row contains fewer than
    /// `m/2` faulty processors.
    pub fn lemma2_set(&self) -> Vec<ProcessId> {
        let (grid, m) = (GridLayout { m: self.m }, self.m);
        let faulty = |p: &ProcessId| !self.outcome.correct[p.index()];
        let sparse_row = |p: &ProcessId| 2 * grid.row(p.index() / m).filter(faulty).count() < m;
        let all = (0..(m * m) as u32).map(ProcessId);
        all.filter(|p| !faulty(p) && sparse_row(p)).collect()
    }

    /// Whether every member of `P` holds every other member's value.
    pub fn mutual_exchange_holds(&self) -> bool {
        all_hold(&self.results, &self.lemma2_set())
    }
}

/// Whether every member of `members` holds a value signed by every member.
fn all_hold(results: &[Option<Vec<SignedItem>>], members: &[ProcessId]) -> bool {
    members.iter().all(|holder| {
        results[holder.index()].as_ref().is_some_and(|items| {
            let signers: BTreeSet<ProcessId> = items.iter().map(SignedItem::signer).collect();
            members.iter().all(|p| signers.contains(p))
        })
    })
}

/// Runs a standalone `m × m` grid exchange tolerating `t` faults. Faults
/// are `options.schedule`'s generic behaviours (`silent`, `crash-at`,
/// `omit-to`, `passive`); the grid maps no protocol-specific one.
///
/// ```
/// use ba_algos::algorithm4::run;
/// use ba_algos::common::RunOptions;
///
/// let report = run(3, 1, RunOptions::new());
/// assert!(report.mutual_exchange_holds());
/// ```
///
/// # Panics
/// Panics if `m == 0`, or on a malformed schedule or one with a
/// protocol-specific behaviour.
pub fn run(m: usize, t: usize, options: RunOptions) -> Alg4Report {
    assert!(m >= 1);
    let n = m * m;
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let results = Board::new(n);
    let built = build(m, t, &registry, &options.schedule, &results);
    Alg4Report {
        outcome: run_instance(built, &options),
        results: results.snapshot(),
        m,
    }
}

/// Builds one `m × m` grid exchange tolerating `t` faults, signing under
/// `registry`: `schedule`'s faults are applied, every processor posts
/// what it harvested on `results`, and delivered items are verified at
/// the phase barrier. [`run`] builds through it.
///
/// # Errors
/// [`ScheduleError::Unmapped`] for a protocol-specific behaviour.
///
/// # Panics
/// On a schedule malformed for `m²` processors and `t`.
pub fn build(
    m: usize,
    t: usize,
    registry: &KeyRegistry,
    schedule: &ScheduleSpec,
    results: &Arc<Board<Vec<SignedItem>>>,
) -> Result<InstanceSpec<GridMsg>, ScheduleError> {
    let layout = GridLayout { m };
    let honest = |id| -> Box<dyn Actor<GridMsg>> {
        let (signer, verifier) = (registry.signer(id), registry.verifier());
        Box::new(GridActor::new(
            layout,
            id,
            &signer,
            verifier,
            0xA164,
            results.clone(),
        ))
    };
    instance(schedule, (m * m, t, 3), registry, honest, |_, _| None)
}

/// The paper's naive two-phase full-exchange baseline (Section 6 intro):
/// "Select `t + 1` processors; they will play the role of relay
/// processors. At phase 1 each processor signs and sends its value to
/// every relay processor. A relay processor combines all the incoming
/// messages and its own value to one long message and sends it to every
/// nonrelay processor at phase 2."
///
/// Guarantees *full* mutual exchange among correct processors (unlike
/// Algorithm 4's `N − 2t` subset) at a cost of
/// `(N−1)(t+1) + (N−t−1)(t+1) = O(Nt)` messages — the `Ω(Nt)` regime
/// Theorem 6 undercuts when only a high percentage of processors need to
/// succeed.
#[derive(Debug)]
pub struct RelayExchangeActor {
    n: usize,
    t: usize,
    me: ProcessId,
    my_item: SignedItem,
    verifier: Verifier,
    tag: u64,
    /// Values this processor ended up holding.
    harvested: Vec<SignedItem>,
    seen: BTreeSet<(u32, Bytes)>,
    results: Arc<Board<Vec<SignedItem>>>,
}

impl RelayExchangeActor {
    /// Creates the actor; its exchanged value is its own id. Relays are
    /// processors `0..=t`.
    pub fn new(
        n: usize,
        t: usize,
        me: ProcessId,
        signer: &Signer,
        verifier: Verifier,
        tag: u64,
        results: Arc<Board<Vec<SignedItem>>>,
    ) -> Self {
        let mut enc = Encoder::with_capacity(4);
        enc.process_id(me);
        let my_item = SignedItem::new(tag, enc.finish(), signer);
        let mut actor = RelayExchangeActor {
            n,
            t,
            me,
            my_item: my_item.clone(),
            verifier,
            tag,
            harvested: Vec::new(),
            seen: BTreeSet::new(),
            results,
        };
        actor.harvest(std::iter::once(my_item));
        actor
    }

    fn is_relay(&self, p: ProcessId) -> bool {
        p.index() <= self.t
    }

    /// Keeps each new `(signer, body)` whose signature verifies. An item
    /// already held is not checked again, and a forgery is never recorded
    /// as seen, so it cannot shadow a genuine copy that arrives later.
    fn harvest(&mut self, items: impl IntoIterator<Item = SignedItem>) {
        for item in items {
            let key = (item.signer().0, item.body.clone());
            if !self.seen.contains(&key) && item.verifies(self.tag, &self.verifier) {
                self.seen.insert(key);
                self.harvested.push(item);
            }
        }
    }

    fn absorb(&mut self, inbox: Inbox<'_, GridMsg>) {
        let mut collected: Vec<SignedItem> = Vec::new();
        for env in inbox {
            match &env.payload {
                GridMsg::Item(item) if item.signer() == env.from => {
                    collected.push(item.clone());
                }
                GridMsg::Row(items) if self.is_relay(env.from) => {
                    collected.extend(items.iter().cloned());
                }
                _ => {}
            }
        }
        self.harvest(collected);
    }
}

impl Actor<GridMsg> for RelayExchangeActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, GridMsg>, out: &mut Outbox<GridMsg>) {
        match phase {
            1 => {
                // Everyone sends its signed value to every relay.
                for r in 0..=self.t as u32 {
                    out.send(ProcessId(r), GridMsg::Item(self.my_item.clone()));
                }
            }
            2 => {
                self.absorb(inbox);
                if self.is_relay(self.me) {
                    // Combine everything into one long message for the
                    // non-relays.
                    let bundle = GridMsg::Row(self.harvested.clone());
                    for p in self.t as u32 + 1..self.n as u32 {
                        out.send(ProcessId(p), bundle.clone());
                    }
                }
            }
            _ => {}
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, GridMsg>) {
        self.absorb(inbox);
        self.results.post(self.me, self.harvested.clone());
    }

    fn decision(&self) -> Option<Value> {
        Some(Value::ZERO) // exchange primitive: no agreement decision
    }
}

/// Outcome of a [`relay_exchange`] run.
#[derive(Debug)]
pub struct RelayExchangeReport {
    /// Raw engine outcome.
    pub outcome: RunOutcome<GridMsg>,
    /// Each processor's harvested values (by processor index).
    pub results: Vec<Option<Vec<SignedItem>>>,
}

impl RelayExchangeReport {
    /// Whether every correct processor holds every correct processor's
    /// value — the *full* exchange this baseline guarantees.
    pub fn full_exchange_holds(&self) -> bool {
        let correct: Vec<ProcessId> = (0..)
            .zip(&self.outcome.correct)
            .filter_map(|(p, &correct)| correct.then_some(ProcessId(p)))
            .collect();
        all_hold(&self.results, &correct)
    }
}

/// Runs the two-phase relay full exchange over `n` processors tolerating
/// `t` faults (relays are processors `0..=t`), with faults as [`run`]
/// takes them.
///
/// # Panics
/// Panics unless `t + 1 < n`, or as [`run`] does on the schedule.
pub fn relay_exchange(n: usize, t: usize, options: RunOptions) -> RelayExchangeReport {
    assert!(t + 1 < n, "need at least one non-relay");
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let results = Board::new(n);
    let honest = |id| -> Box<dyn Actor<GridMsg>> {
        let signer = registry.signer(id);
        let (verifier, board) = (registry.verifier(), results.clone());
        Box::new(RelayExchangeActor::new(
            n, t, id, &signer, verifier, 0xE0_E1, board,
        ))
    };
    let built = instance(&options.schedule, (n, t, 2), &registry, honest, |_, _| None);
    RelayExchangeReport {
        outcome: run_instance(built, &options),
        results: results.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use ba_crypto::stats::CryptoStats;
    use ba_crypto::SchemeKind;
    use ba_sim::{FaultBehavior, ScheduleSpec};

    /// `faulty` silent, keys from `seed` under the fast scheme.
    fn silent(faulty: impl IntoIterator<Item = u32>, seed: u64) -> RunOptions {
        let schedule = ScheduleSpec::each(faulty.into_iter().map(ProcessId), FaultBehavior::Silent);
        let options = RunOptions::new().with_schedule(schedule).with_seed(seed);
        options.with_scheme(SchemeKind::Fast)
    }

    #[test]
    fn layout_indexing() {
        let layout = GridLayout::new(9).unwrap();
        assert_eq!(layout.m(), 3);
        assert_eq!(layout.id(1, 2), ProcessId(5));
        assert_eq!(layout.pos(ProcessId(5)), Some((1, 2)));
        assert_eq!(layout.pos(ProcessId(9)), None);
        let row: Vec<ProcessId> = layout.row(2).collect();
        assert_eq!(row, vec![ProcessId(6), ProcessId(7), ProcessId(8)]);
        let mates: Vec<ProcessId> = layout.row_mates(ProcessId(4)).collect();
        assert_eq!(mates, vec![ProcessId(3), ProcessId(5)]);
        let mates: Vec<ProcessId> = layout.col_mates(ProcessId(4)).collect();
        assert_eq!(mates, vec![ProcessId(1), ProcessId(7)]);
    }

    #[test]
    fn non_square_layout_rejected() {
        for n in [0usize, 2, 3, 8, 15, 24, 26] {
            assert_eq!(GridLayout::new(n), None, "n = {n}");
        }
        for m in 1usize..=64 {
            assert_eq!(GridLayout::new(m * m).map(GridLayout::m), Some(m));
        }
    }

    #[test]
    fn fault_free_full_exchange_within_message_bound() {
        for m in [2usize, 3, 4, 5] {
            let report = run(m, 0, silent([], 1));
            assert!(report.mutual_exchange_holds(), "m={m}");
            // Everyone is in P when there are no faults.
            assert_eq!(report.lemma2_set().len(), m * m);
            let msgs = report.outcome.metrics.messages_by_correct;
            assert_eq!(msgs, bounds::alg4_max_messages(m as u64), "m={m}");
            assert_eq!(report.outcome.metrics.phases, 3);
        }
    }

    #[test]
    fn lemma2_holds_with_concentrated_row_faults() {
        // Kill a whole row: its members leave P, everyone else exchanges.
        let m = 4;
        let report = run(m, 4, silent(4..8, 2));
        let p_set = report.lemma2_set();
        assert_eq!(p_set.len(), m * m - 4);
        assert!(report.mutual_exchange_holds());
    }

    #[test]
    fn lemma2_holds_with_scattered_faults() {
        let m = 5;
        let t = 4;
        let report = run(m, t, silent([0, 7, 13, 21], 3));
        let p_set = report.lemma2_set();
        assert!(p_set.len() >= bounds::alg4_min_successful((m * m) as u64, t as u64) as usize);
        assert!(report.mutual_exchange_holds());
    }

    #[test]
    fn signed_item_tamper_detection() {
        let registry = KeyRegistry::new(4, 9, SchemeKind::Hmac);
        let signer = registry.signer(ProcessId(1));
        let item = SignedItem::new(5, Bytes::from_static(b"value"), &signer);
        assert!(item.verifies(5, &registry.verifier()));
        // Wrong tag (a different Algorithm 5 block, say).
        assert!(!item.verifies(6, &registry.verifier()));
        // Tampered body.
        let tampered = SignedItem {
            body: Bytes::from_static(b"other"),
            sig: item.sig.clone(),
        };
        assert!(!tampered.verifies(5, &registry.verifier()));
        assert_eq!(item.signer(), ProcessId(1));
    }

    #[test]
    fn grid_msg_signature_counts() {
        let registry = KeyRegistry::new(4, 9, SchemeKind::Fast);
        let item = SignedItem::new(0, Bytes::new(), &registry.signer(ProcessId(0)));
        assert_eq!(GridMsg::Item(item.clone()).signature_count(), 1);
        assert_eq!(GridMsg::Row(vec![item.clone(); 3]).signature_count(), 3);
        assert_eq!(
            GridMsg::Rows(vec![vec![item.clone(); 2], vec![item; 3]]).signature_count(),
            5
        );
    }

    #[test]
    fn o_n_1_5_beats_full_exchange_for_t_at_least_m() {
        // 3(m-1)m² < N·t when t >= m (Theorem 6's point).
        for m in [3u64, 5, 8] {
            let n_grid = m * m;
            let t = m;
            assert!(bounds::alg4_max_messages(m) < n_grid * t * (t + 1));
        }
    }

    #[test]
    fn relay_exchange_is_full_and_costs_nt() {
        for (n, t) in [(9usize, 2usize), (25, 4), (49, 6)] {
            let r = relay_exchange(n, t, silent([], 1));
            assert!(r.full_exchange_holds(), "n={n} t={t}");
            // (n-1)(t+1) + (t+1)(n-t-1) messages exactly, fault-free.
            let expected = ((n - 1) * (t + 1) + (t + 1) * (n - t - 1)) as u64;
            assert_eq!(r.outcome.metrics.messages_by_correct, expected);
            // Each processor checks each of the n − 1 other items once:
            // a relay as it arrives, a non-relay from the first bundle.
            let checks = r.outcome.metrics.crypto.sig_verifications;
            assert_eq!(checks, (n * (n - 1)) as u64, "n={n} t={t}");
        }
    }

    #[test]
    fn relay_harvest_checks_an_item_once_and_a_forgery_shadows_nothing() {
        let registry = KeyRegistry::new(4, 5, SchemeKind::Fast);
        let tag = 0xE0_E1;
        let mut actor = RelayExchangeActor::new(
            4,
            1,
            ProcessId(0),
            &registry.signer(ProcessId(0)),
            registry.verifier(),
            tag,
            Board::new(4),
        );
        let genuine = SignedItem::new(
            tag,
            Bytes::from_static(b"two"),
            &registry.signer(ProcessId(2)),
        );
        let forged = SignedItem {
            sig: Signature::forged(ProcessId(2), SchemeKind::Fast),
            ..genuine.clone()
        };
        let checks = |actor: &mut RelayExchangeActor, items: Vec<SignedItem>| {
            let before = CryptoStats::snapshot();
            actor.harvest(items);
            CryptoStats::snapshot().since(&before).sig_verifications
        };
        // The forgery is checked and dropped; the genuine item that follows
        // is checked and kept.
        assert_eq!(checks(&mut actor, vec![forged.clone(), genuine.clone()]), 2);
        assert_eq!(actor.harvested.len(), 2);
        assert_eq!(actor.harvested[1], genuine);
        // Held now: neither copy is checked again, nor kept twice.
        assert_eq!(checks(&mut actor, vec![genuine.clone(), forged]), 0);
        assert_eq!(actor.harvested.len(), 2);
    }

    #[test]
    fn relay_exchange_survives_t_silent_relays_minus_one() {
        // t faults, all aimed at relays: one correct relay remains.
        let (n, t) = (16usize, 3usize);
        let r = relay_exchange(n, t, silent(0..t as u32, 2));
        assert!(r.full_exchange_holds());
    }

    #[test]
    fn relay_exchange_survives_silent_non_relays() {
        let (n, t) = (12usize, 2usize);
        let r = relay_exchange(n, t, silent([5, 9], 3));
        assert!(r.full_exchange_holds());
    }

    #[test]
    fn grid_beats_relay_exchange_at_the_crossover() {
        // Grid costs 3(m-1)N; the relay baseline ~2N(t+1). The grid wins
        // once t+1 > 1.5(m-1): for m = 5 that is t >= 7.
        let m = 5; // N = 25
        let t = 7;
        let grid = run(m, 0, silent([], 4));
        let relay = relay_exchange(m * m, t, silent([], 4));
        assert!(
            grid.outcome.metrics.messages_by_correct < relay.outcome.metrics.messages_by_correct
        );
        // And below the crossover the relay baseline is cheaper.
        let cheap_relay = relay_exchange(m * m, 2, silent([], 4));
        assert!(
            cheap_relay.outcome.metrics.messages_by_correct
                < grid.outcome.metrics.messages_by_correct
        );
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_lemma2_random_faults() {
            run_cases(12, 0x65, |gen| {
                let m = gen.usize_in(2, 6);
                let seed = gen.u64();
                let mask = gen.u64();
                let n = m * m;
                let faulty = (0..n as u32)
                    .filter(|i| mask & (1 << (i % 63)) != 0)
                    .take(m - 1);
                let report = run(m, m - 1, silent(faulty, seed));
                assert!(report.mutual_exchange_holds());
                assert!(
                    report.outcome.metrics.messages_by_correct
                        <= bounds::alg4_max_messages(m as u64)
                );
            });
        }
    }
}
