//! Algorithm 3 — the active/passive architecture for large `n`
//! (Lemma 1, Theorem 5 and the intro's phases/messages trade-off).
//!
//! The first `2t + 1` processors (including the transmitter, processor 0)
//! are *active*; the remaining `m = n − (2t+1)` are *passive*, divided into
//! `r = ⌈m/s⌉` groups of size `s` (the last group may be smaller). The
//! first member of each group is its *root* `c(1)`.
//!
//! * **Phases `1..=t+2`** — the actives run Algorithm 1.
//! * **Phase `t+3`** — each active signs and sends the agreed value to
//!   every root; a root sets `m(1)` to the unique value received from at
//!   least `t + 1` actives.
//! * **Phases `t+2j`, `t+2j+1`** (`2 ≤ j ≤ s`) — the root sends `m(j−1)`
//!   to `c(j)`; if `c(j)` received exactly one value from its root it signs
//!   and returns it, and the root upgrades to `m(j)`.
//! * **Phase `t+2s+2`** — each root sends `m(s)` to every active.
//! * **Phase `t+2s+3`** — each active sends the signed value directly to
//!   every group member whose signature was missing from the root's report.
//! * **Decision** — actives per Algorithm 1; roots on `m(1)`; members on a
//!   value received from `≥ t+1` actives in the last phase, else on the
//!   value their root sent them.
//!
//! Lemma 1: `t + 2s + 3` phases and at most `2n + 4tn/s + 3t²s` messages.
//! Theorem 5: `s = 4t` gives `O(n + t³)`. Choosing `s = ⌈t/α⌉` gives the
//! intro's trade-off of `t + 3 + 2⌈t/α⌉` phases and `O(αn)` messages.

use crate::algorithm1::{Algo1Actor, Algo1Params};
use crate::common::{chain_adversary, domains, instance, run_report, AlgoReport, RunOptions};
use ba_crypto::{Chain, KeyRegistry, ProcessId, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox};
use ba_sim::schedule::{FaultBehavior, ScheduleError, ScheduleSpec};
use ba_sim::{AgreementViolation, InstanceSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Domain for one-signature direct value messages (active → root and
/// active → member).
const DIRECT: u32 = domains::ALG3_GROUP_BASE - 1;

/// A passive group: its index and its members, consecutive ids in
/// position order (the first is the root `c(1)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Group {
    /// Group index (0-based).
    pub index: usize,
    /// The root's id.
    first: usize,
    /// Number of members, the root included.
    size: usize,
}

impl Group {
    /// The root `c(1)`.
    pub fn root(&self) -> ProcessId {
        ProcessId(self.first as u32)
    }

    /// The chain domain for this group's collection messages.
    pub fn domain(&self) -> u32 {
        domains::ALG3_GROUP_BASE + self.index as u32
    }

    /// The member at 1-based position `j` (`c(j)`).
    pub fn member(&self, j: usize) -> Option<ProcessId> {
        (1..=self.size)
            .contains(&j)
            .then(|| ProcessId((self.first + j - 1) as u32))
    }

    /// 1-based position of `p` in this group.
    pub fn position(&self, p: ProcessId) -> Option<usize> {
        let offset = p.index().checked_sub(self.first)?;
        (offset < self.size).then_some(offset + 1)
    }

    /// All members in position order, the root first.
    pub fn members(&self) -> impl ExactSizeIterator<Item = ProcessId> {
        (self.first..self.first + self.size).map(|i| ProcessId(i as u32))
    }
}

/// Static parameters of an Algorithm 3 run.
#[derive(Debug)]
pub struct Alg3Params {
    /// Total processors.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Nominal group size.
    pub s: usize,
    /// Verifier over the run registry.
    pub verifier: Verifier,
    /// Algorithm 1 parameters for the active prefix.
    pub alg1: Arc<Algo1Params>,
}

impl Alg3Params {
    /// Creates the parameter block.
    pub fn new(n: usize, t: usize, s: usize, verifier: Verifier) -> Self {
        assert!(t >= 1, "algorithm 3 needs t >= 1");
        assert!(s >= 1, "group size must be positive");
        assert!(
            n >= 2 * t + 2,
            "algorithm 3 needs passive processors (n >= 2t + 2)"
        );
        let alg1 = Arc::new(Algo1Params {
            t,
            verifier: verifier.clone(),
        });
        Alg3Params {
            n,
            t,
            s,
            verifier,
            alg1,
        }
    }

    /// Number of active processors (`2t + 1`).
    pub fn active_count(&self) -> usize {
        2 * self.t + 1
    }

    /// Whether `p` is active.
    pub fn is_active(&self, p: ProcessId) -> bool {
        p.index() < self.active_count()
    }

    /// Number of passive processors.
    pub fn passive_count(&self) -> usize {
        self.n - self.active_count()
    }

    /// Group `index`: up to `s` consecutive passive ids, the last group
    /// possibly short.
    fn group(&self, index: usize) -> Group {
        let first = self.active_count() + index * self.s;
        Group {
            index,
            first,
            size: self.s.min(self.n - first),
        }
    }

    /// The passive groups in index order.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = Group> + '_ {
        (0..self.passive_count().div_ceil(self.s)).map(|index| self.group(index))
    }

    /// The group containing passive `p`, with `p`'s 1-based position.
    pub fn group_of(&self, p: ProcessId) -> Option<(Group, usize)> {
        if self.is_active(p) || p.index() >= self.n {
            return None;
        }
        let offset = p.index() - self.active_count();
        Some((self.group(offset / self.s), offset % self.s + 1))
    }

    /// Total phases of the schedule.
    pub fn phases(&self) -> usize {
        self.t + 2 * self.s + 3
    }

    /// Whether `chain` is a valid one-signature direct value message from
    /// an active processor.
    pub fn is_direct(&self, chain: &Chain) -> bool {
        chain.domain() == DIRECT
            && chain.len() == 1
            && chain.first_signer().is_some_and(|s| self.is_active(s))
            && chain.verify(&self.verifier).is_ok()
    }

    /// The values the actives' direct messages in `inbox` carry with more
    /// than `t` distinct signers, each message signed by its own sender,
    /// in increasing order.
    pub(crate) fn direct_quorum(&self, inbox: Inbox<'_, Chain>) -> Vec<Value> {
        let mut by_value: BTreeMap<Value, BTreeSet<ProcessId>> = BTreeMap::new();
        for env in inbox {
            if self.is_direct(env.payload) && env.payload.first_signer() == Some(env.from) {
                by_value
                    .entry(env.payload.value())
                    .or_default()
                    .insert(env.from);
            }
        }
        by_value
            .into_iter()
            .filter(|(_, signers)| signers.len() > self.t)
            .map(|(v, _)| v)
            .collect()
    }

    /// Whether `chain` is a well-formed collection chain for `group`:
    /// signatures (possibly none) of members at positions `2..` in
    /// increasing position order.
    pub fn is_collection_chain(&self, chain: &Chain, group: &Group) -> bool {
        if chain.domain() != group.domain() {
            return false;
        }
        if !chain.is_empty() && chain.verify(&self.verifier).is_err() {
            return false;
        }
        let mut prev = 1usize;
        for signer in chain.signers() {
            match group.position(signer) {
                Some(pos) if pos > prev => prev = pos,
                _ => return false,
            }
        }
        true
    }
}

/// An active processor: Algorithm 1 participant, then group supervisor.
#[derive(Debug)]
pub struct Alg3Active {
    params: Arc<Alg3Params>,
    signer: Signer,
    algo1: Algo1Actor,
    committed: Option<Value>,
    /// Reports received from roots at the penultimate phase, by group.
    reports: BTreeMap<usize, Vec<Chain>>,
}

impl Alg3Active {
    /// Creates the active actor (`own_value` only for the transmitter).
    pub fn new(
        params: Arc<Alg3Params>,
        me: ProcessId,
        signer: Signer,
        own_value: Option<Value>,
    ) -> Self {
        let algo1 = Algo1Actor::new(params.alg1.clone(), me, signer.clone(), own_value);
        Alg3Active {
            params,
            signer,
            algo1,
            committed: None,
            reports: BTreeMap::new(),
        }
    }
}

impl Actor<Chain> for Alg3Active {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        let t = self.params.t;

        if phase <= t + 2 {
            self.algo1.step(phase, inbox, out);
            return;
        }

        if phase == t + 3 {
            // Commit (the inbox still carries phase-(t+2) Algorithm 1
            // traffic), then inform every root.
            self.algo1.finalize(inbox);
            self.committed = self.algo1.decision();
            let v = self.committed.expect("algorithm 1 always decides");
            let mut chain = Chain::new(DIRECT, v);
            chain.sign_and_append(&self.signer);
            for group in self.params.groups() {
                out.send(group.root(), chain.clone());
            }
            return;
        }

        if phase == self.params.phases() {
            // The inbox holds the roots' reports (sent at t+2s+2); cover
            // every member whose signature is missing.
            let v = self.committed.expect("committed at t+3");
            for env in inbox {
                if let Some((group, 1)) = self.params.group_of(env.from) {
                    if self.params.is_collection_chain(env.payload, &group) {
                        self.reports
                            .entry(group.index)
                            .or_default()
                            .push(env.payload.clone());
                    }
                }
            }
            let mut direct = Chain::new(DIRECT, v);
            direct.sign_and_append(&self.signer);
            for group in self.params.groups() {
                let covered: BTreeSet<ProcessId> = self
                    .reports
                    .get(&group.index)
                    .map(|reports| {
                        reports
                            .iter()
                            .filter(|c| c.value() == v)
                            .flat_map(|c| c.signers())
                            .collect()
                    })
                    .unwrap_or_default();
                for member in group.members().skip(1) {
                    if !covered.contains(&member) {
                        out.send(member, direct.clone());
                    }
                }
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.committed.or_else(|| self.algo1.decision())
    }
}

/// A group root: collects member signatures sequentially, then reports.
#[derive(Debug)]
pub struct Alg3Root {
    params: Arc<Alg3Params>,
    group: Group,
    /// The current collection chain `m(j)`.
    m: Option<Chain>,
    /// Injected wrong value (adversarial roots only).
    lie: Option<Value>,
}

impl Alg3Root {
    /// Creates an honest root for `group`.
    pub fn new(params: Arc<Alg3Params>, group: Group) -> Self {
        Alg3Root {
            params,
            group,
            m: None,
            lie: None,
        }
    }

    /// Creates a root that ignores the active quorum and pushes `wrong`
    /// to its members (a faulty root).
    pub fn new_lying(params: Arc<Alg3Params>, group: Group, wrong: Value) -> Self {
        Alg3Root {
            params,
            group,
            m: None,
            lie: Some(wrong),
        }
    }
}

impl Actor<Chain> for Alg3Root {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        let t = self.params.t;
        let s_g = self.group.members().len();

        if phase == t + 4 {
            // Active value messages (sent at t+3): take the unique value
            // with >= t+1 distinct active signers.
            if let [v] = self.params.direct_quorum(inbox)[..] {
                self.m = Some(Chain::new(self.group.domain(), v));
            }
            if let Some(wrong) = self.lie {
                self.m = Some(Chain::new(self.group.domain(), wrong));
            }
        } else if phase >= t + 6 && phase <= t + 2 * s_g + 2 && (phase - t).is_multiple_of(2) {
            // Phase t+2j: c(j-1)'s signed return (sent at t+2(j-1)+1) is in
            // the inbox; upgrade m(j-2) to m(j-1) if it checks out.
            let j = (phase - t) / 2;
            if let (Some(m), Some(prev_member)) = (&self.m, self.group.member(j - 1)) {
                for env in inbox {
                    let ret = env.payload;
                    if env.from == prev_member
                        && ret.len() == m.len() + 1
                        && ret.last_signer() == Some(prev_member)
                        && ret.signatures()[..m.len()] == *m.signatures()
                        && ret.value() == m.value()
                        && ret.domain() == m.domain()
                        && ret.verify(&self.params.verifier).is_ok()
                    {
                        self.m = Some(ret.clone());
                        break;
                    }
                }
            }
        }

        // Sends: m(j-1) to c(j) at phase t+2j (j = 2..=s_g).
        if phase >= t + 4 && phase <= t + 2 * s_g && (phase - t).is_multiple_of(2) {
            let j = (phase - t) / 2;
            if let (Some(m), Some(target)) = (&self.m, self.group.member(j)) {
                out.send(target, m.clone());
            }
        }

        // Report m(s) to every active at phase t+2s+2 (global s; smaller
        // groups finished collecting earlier and just report).
        if phase == t + 2 * self.params.s + 2 {
            if let Some(m) = &self.m {
                out.broadcast(
                    (0..self.params.active_count() as u32).map(ProcessId),
                    m.clone(),
                );
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.m.as_ref().map(|m| m.value())
    }

    fn is_correct(&self) -> bool {
        self.lie.is_none()
    }
}

/// A passive group member `c(j)` with `j ≥ 2`.
#[derive(Debug)]
pub struct Alg3Member {
    params: Arc<Alg3Params>,
    group: Group,
    /// My 1-based position `j`.
    pos: usize,
    signer: Signer,
    /// Value received from the root (the fallback decision).
    from_root: Option<Value>,
    /// Value received from `>= t+1` actives at the last phase.
    from_actives: Option<Value>,
    phase: usize,
}

impl Alg3Member {
    /// Creates the member at position `pos` (≥ 2) of `group`.
    pub fn new(params: Arc<Alg3Params>, group: Group, pos: usize, signer: Signer) -> Self {
        assert!(pos >= 2, "position 1 is the root");
        Alg3Member {
            params,
            group,
            pos,
            signer,
            from_root: None,
            from_actives: None,
            phase: 0,
        }
    }
}

impl Actor<Chain> for Alg3Member {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        self.phase = phase;
        let t = self.params.t;
        // The root's m(j-1) (sent at t+2j) arrives at phase t+2j+1.
        if phase == t + 2 * self.pos + 1 {
            let root = self.group.root();
            let candidates: Vec<&Chain> = inbox
                .iter()
                .filter(|env| env.from == root)
                .map(|env| env.payload)
                .filter(|c| {
                    self.params.is_collection_chain(c, &self.group)
                        && c.signers()
                            .all(|s| self.group.position(s).is_some_and(|p| p < self.pos))
                })
                .collect();
            // "Exactly one value from its root": sign and return.
            if let [only] = candidates[..] {
                self.from_root = Some(only.value());
                let mut signed = only.clone();
                signed.sign_and_append(&self.signer);
                out.send(root, signed);
            }
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        if self.phase == self.params.phases() {
            // The largest value received from >= t+1 actives.
            self.from_actives = self.params.direct_quorum(inbox).last().copied();
        }
    }

    fn decision(&self) -> Option<Value> {
        self.from_actives.or(self.from_root)
    }
}

/// The root `c(1)` of passive group `g`: processor `2t + 1 + g·s`.
pub fn group_root(t: usize, s: usize, g: usize) -> ProcessId {
    ProcessId((2 * t + 1 + g * s) as u32)
}

/// `p`'s honest Algorithm 3 actor — active, group root or group member;
/// the transmitter (processor 0) sends `value`.
fn honest(
    params: &Arc<Alg3Params>,
    registry: &KeyRegistry,
    p: ProcessId,
    value: Value,
) -> Box<dyn Actor<Chain>> {
    match params.group_of(p) {
        None => {
            let own = (p == ProcessId(0)).then_some(value);
            Box::new(Alg3Active::new(params.clone(), p, registry.signer(p), own))
        }
        Some((group, 1)) => Box::new(Alg3Root::new(params.clone(), group)),
        Some((group, pos)) => Box::new(Alg3Member::new(
            params.clone(),
            group,
            pos,
            registry.signer(p),
        )),
    }
}

/// Builds and runs an Algorithm 3 scenario. The schedule's `Lie { value }`
/// on a group root is a lying [`Alg3Root`] pushing `value`; `Equivocate`
/// and `Forge` are Algorithm 1's (see
/// [`algorithm1::run`](crate::algorithm1::run)), since the transmitter
/// signs only in the actives' Algorithm 1 prefix.
///
/// ```
/// use ba_algos::algorithm3::run;
/// use ba_algos::common::RunOptions;
/// use ba_crypto::Value;
///
/// let r = run(20, 1, 4, Value::ONE, RunOptions::default())?;
/// assert_eq!(r.verdict.agreed, Some(Value::ONE));
/// # Ok::<(), ba_sim::AgreementViolation>(())
/// ```
///
/// # Errors
/// Propagates any [`AgreementViolation`].
///
/// # Panics
/// Panics on invalid parameters (`t == 0`, `n < 2t + 2`, a malformed
/// schedule, non-binary value).
pub fn run(
    n: usize,
    t: usize,
    s: usize,
    value: Value,
    options: RunOptions,
) -> Result<AlgoReport<Chain>, AgreementViolation> {
    assert!(
        value == Value::ZERO || value == Value::ONE,
        "algorithm 3 is binary"
    );
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let params = Alg3Params::new(n, t, s, registry.verifier());
    let spec = build(params, &registry, value, &options.schedule);
    run_report(spec, &options, value)
}

/// Builds one Algorithm 3 instance over `params`: the transmitter sends
/// `value`, `schedule`'s faults are applied, and delivered chains are
/// verified at the phase barrier against `registry`. [`run`] and the
/// `algorithm3-s2` check target both build through it.
///
/// # Errors
/// [`ScheduleError::Unmapped`] for a `withhold` fault, or a `lie` fault
/// on anything but a group root.
///
/// # Panics
/// On a schedule malformed for `params.n` and `params.t`.
pub fn build(
    params: Alg3Params,
    registry: &KeyRegistry,
    value: Value,
    schedule: &ScheduleSpec,
) -> Result<InstanceSpec<Chain>, ScheduleError> {
    let params = Arc::new(params);
    let adversary = |p, behavior: &FaultBehavior| -> Option<Box<dyn Actor<Chain>>> {
        let FaultBehavior::Lie { value } = *behavior else {
            return chain_adversary(registry, domains::ALG1, p, behavior);
        };
        match params.group_of(p)? {
            (group, 1) => Some(Box::new(Alg3Root::new_lying(params.clone(), group, value))),
            _ => None,
        }
    };
    let honest = |p| honest(&params, registry, p, value);
    let dims = (params.n, params.t, params.phases());
    instance(schedule, dims, registry, honest, adversary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use ba_crypto::SchemeKind;
    use ba_sim::ScheduleSpec;

    #[test]
    fn group_layout() {
        let registry = KeyRegistry::new(16, 0, SchemeKind::Fast);
        let params = Alg3Params::new(16, 2, 4, registry.verifier());
        // Actives 0..=4; passives 5..=15 in groups of 4: [5-8], [9-12], [13-15].
        let groups: Vec<Group> = params.groups().collect();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].root(), ProcessId(5));
        assert_eq!(groups[1].root(), ProcessId(9));
        assert_eq!(groups[2].members().len(), 3);
        let (g, pos) = params.group_of(ProcessId(10)).unwrap();
        assert_eq!(g.index, 1);
        assert_eq!(pos, 2);
        assert!(params.group_of(ProcessId(3)).is_none());
        assert_eq!(groups[0].member(4), Some(ProcessId(8)));
        assert_eq!(groups[0].member(5), None);
    }

    #[test]
    fn group_of_is_the_listed_group_and_position_for_every_passive() {
        // Even split, short last group (3 of 4, then 1 of 7), s > passives.
        for (n, t, s) in [(13, 2, 4), (16, 2, 4), (30, 3, 7), (24, 3, 7), (9, 1, 10)] {
            let registry = KeyRegistry::new(n, 0, SchemeKind::Fast);
            let params = Alg3Params::new(n, t, s, registry.verifier());
            let groups: Vec<Group> = params.groups().collect();
            let listed: usize = groups.iter().map(|g| g.members().len()).sum();
            assert_eq!(listed, params.passive_count(), "n={n} t={t} s={s}");
            for p in (0..n as u32 + 2).map(ProcessId) {
                let expected = groups
                    .iter()
                    .find_map(|g| g.position(p).map(|pos| (*g, pos)));
                assert_eq!(params.group_of(p), expected, "n={n} t={t} s={s} {p:?}");
            }
        }
    }

    #[test]
    fn fault_free_agrees_within_bounds() {
        for (n, t, s) in [(10, 1, 2), (16, 2, 4), (30, 2, 5), (41, 3, 8)] {
            for v in [Value::ZERO, Value::ONE] {
                let r = run(n, t, s, v, RunOptions::default()).unwrap();
                assert_eq!(r.verdict.agreed, Some(v), "n={n} t={t} s={s}");
                assert_eq!(r.verdict.correct_count, n);
                let msgs = r.outcome.metrics.messages_by_correct;
                let bound = bounds::alg3_max_messages(n as u64, t as u64, s as u64);
                assert!(msgs <= bound, "n={n} t={t} s={s}: {msgs} > {bound}");
                assert_eq!(
                    r.outcome.metrics.phases as u64,
                    bounds::alg3_phases(t as u64, s as u64)
                );
            }
        }
    }

    #[test]
    fn silent_roots_are_covered_by_actives() {
        let (n, t, s) = (20, 2, 4);
        let r = run(
            n,
            t,
            s,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each(
                    [0, 2].map(|g| group_root(t, s, g)),
                    FaultBehavior::Silent,
                ),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn lying_roots_are_overridden_by_active_quorum() {
        let (n, t, s) = (20, 2, 4);
        let r = run(
            n,
            t,
            s,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each(
                    [group_root(t, s, 1)],
                    FaultBehavior::Lie { value: Value::ZERO },
                ),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn selective_roots_leave_no_member_behind() {
        let (n, t, s) = (24, 2, 5);
        // Each root omits its even-position members.
        let faults = [0, 1]
            .map(|g| {
                let root = group_root(t, s, g).0;
                let members = (root + 1..root + s as u32).step_by(2);
                let targets = members.map(ProcessId).collect();
                (ProcessId(root), FaultBehavior::OmitTo { targets })
            })
            .to_vec();
        let schedule = ScheduleSpec {
            faults,
            link_drops: vec![],
        };
        let r = run(
            n,
            t,
            s,
            Value::ONE,
            RunOptions::new().with_schedule(schedule),
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn silent_members_only_cost_extra_messages() {
        let (n, t, s) = (16, 2, 4);
        let clean = run(n, t, s, Value::ONE, RunOptions::default()).unwrap();
        let r = run(
            n,
            t,
            s,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each([ProcessId(6), ProcessId(10)], FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
        // Actives cover the silent members directly in the last phase.
        assert!(r.outcome.metrics.messages_by_correct > clean.outcome.metrics.messages_by_correct);
    }

    #[test]
    fn silent_actives_tolerated() {
        let (n, t, s) = (20, 2, 4);
        let r = run(
            n,
            t,
            s,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each([ProcessId(1), ProcessId(3)], FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn equivocating_transmitter_agrees_within_bounds() {
        let s = 2;
        for t in 1..=4 {
            // Two full groups and a short one.
            let n = 2 * t + 1 + 2 * s + 1;
            for ones in [vec![], (1..n).step_by(2).collect(), (1..n).collect()] {
                let ones: Vec<ProcessId> = ones.into_iter().map(|p| ProcessId(p as u32)).collect();
                let at = format!("t={t} ones={ones:?}");
                let behavior = FaultBehavior::Equivocate { ones };
                let schedule = ScheduleSpec::each([ProcessId(0)], behavior);
                let options = RunOptions::new().with_schedule(schedule);
                let r = run(n, t, s, Value::ONE, options).unwrap_or_else(|v| panic!("{at}: {v}"));
                assert!(r.verdict.agreed.is_some(), "{at}");
                let msgs = r.outcome.metrics.messages_by_correct;
                let bound = bounds::alg3_max_messages(n as u64, t as u64, s as u64);
                assert!(msgs <= bound, "{at}: {msgs} > {bound}");
            }
        }
    }

    #[test]
    fn single_member_groups_work() {
        // s = 1: every passive is a root; no collection loop at all.
        let (n, t, s) = (12, 2, 1);
        let r = run(n, t, s, Value::ONE, RunOptions::default()).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn theorem5_choice_stays_linear_in_n() {
        // s = 4t: message count within 2n + 4tn/s + 3t²s = O(n + t³).
        let t = 2;
        let s = 4 * t;
        for n in [30usize, 60, 120] {
            let r = run(n, t, s, Value::ONE, RunOptions::default()).unwrap();
            let msgs = r.outcome.metrics.messages_by_correct;
            assert!(msgs <= bounds::thm5_envelope(n as u64, t as u64), "n={n}");
        }
    }

    #[test]
    fn collection_chain_validation() {
        let registry = KeyRegistry::new(12, 1, SchemeKind::Hmac);
        let params = Alg3Params::new(12, 2, 4, registry.verifier());
        let mut groups = params.groups();
        let group = groups.next().unwrap(); // members 5,6,7,8
        let mut chain = Chain::new(group.domain(), Value::ONE);
        assert!(params.is_collection_chain(&chain, &group), "bare value ok");
        chain.sign_and_append(&registry.signer(ProcessId(6)));
        chain.sign_and_append(&registry.signer(ProcessId(8)));
        assert!(
            params.is_collection_chain(&chain, &group),
            "increasing positions ok"
        );
        // Wrong domain.
        let other = groups.next().unwrap();
        assert!(!params.is_collection_chain(&chain, &other));
        // Out-of-order positions.
        let mut bad = Chain::new(group.domain(), Value::ONE);
        bad.sign_and_append(&registry.signer(ProcessId(8)));
        bad.sign_and_append(&registry.signer(ProcessId(6)));
        assert!(!params.is_collection_chain(&bad, &group));
        // Root signature is not a member signature (position 1 not > 1).
        let mut rooted = Chain::new(group.domain(), Value::ONE);
        rooted.sign_and_append(&registry.signer(ProcessId(5)));
        assert!(!params.is_collection_chain(&rooted, &group));
        // Non-member signature.
        let mut alien = Chain::new(group.domain(), Value::ONE);
        alien.sign_and_append(&registry.signer(ProcessId(2)));
        assert!(!params.is_collection_chain(&alien, &group));
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_agreement_under_random_root_faults() {
            run_cases(12, 0x69, |gen| {
                let t = gen.usize_in(1, 3);
                let s = gen.usize_in(1, 6);
                let extra_groups = gen.usize_in(1, 5);
                let seed = gen.u64();
                let lying = gen.bool();
                let which = gen.u32() as u8;
                let n = 2 * t + 1 + s * extra_groups;
                let bad_group = (which as usize) % extra_groups;
                let behavior = if lying {
                    FaultBehavior::Lie { value: Value::ZERO }
                } else {
                    FaultBehavior::Silent
                };
                let r = run(
                    n,
                    t,
                    s,
                    Value::ONE,
                    RunOptions {
                        schedule: ScheduleSpec::each([group_root(t, s, bad_group)], behavior),
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(r.verdict.agreed, Some(Value::ONE));
                assert!(
                    r.outcome.metrics.messages_by_correct
                        <= bounds::alg3_max_messages(n as u64, t as u64, s as u64)
                );
            });
        }
    }
}
