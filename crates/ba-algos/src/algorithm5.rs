//! Algorithm 5 — binary-tree dissemination with activation certificates
//! (Lemmas 3–5, Theorem 7): Byzantine Agreement with `O(t² + nt/s)`
//! messages; `s = t` matches the `Ω(n + t²)` lower bound of Theorem 2.
//!
//! Roles: the first `α` processors are *active*, where `α` is the smallest
//! perfect square exceeding `6t` ([`crate::bounds::alpha`]); the remaining
//! `n − α` *passive* processors form complete binary trees of size
//! `s = 2^λ − 1` ([`crate::trees::Forest`]).
//!
//! Outline (this reproduction uses a non-overlapping schedule; phase
//! arithmetic is in [`Alg5Config`]):
//!
//! 1. **Phases `1..=3t+3`** — the first `2t + 1` actives run Algorithm 2;
//!    each ends holding a *valid message*: the common value with at least
//!    `t + 1` active signatures.
//! 2. **Phase `3t+4`** — the first `t + 1` actives hand valid messages to
//!    the remaining `α − 2t − 1` actives.
//! 3. **Blocks `x = λ, λ−1, …, 1`** — each block activates the depth-`x`
//!    subtrees that still need work: every active sends (valid message,
//!    *proof of work*) to the roots it believes need activation; an
//!    activated root walks its subtree collecting member signatures onto
//!    the valid message, then reports to all actives; the actives then run
//!    one Algorithm 4 grid round exchanging *strings* `[F(p, x−1), x−1]` —
//!    their lists of still-unserved processors — which yields the support
//!    counts `π` used to build the next block's proofs of work.
//! 4. **Final phase (block 0)** — every active sends the valid message
//!    directly to each processor in its `B(p, 0)` set.
//!
//! A *proof of work* for a depth-`x` subtree (`x < λ`) is a set of strings
//! in which either the subtree's root is reported unserved by at least
//! `α − 2t` distinct actives, or both child subtrees contain such a
//! processor — the condition that keeps activations (and hence messages)
//! amortized per Lemma 4.

use crate::algorithm1::Algo1Params;
use crate::algorithm2::Algo2Actor;
use crate::algorithm4::{Alg4State, GridLayout, GridMsg, SignedItem};
use crate::bounds;
use crate::common::{domains, instance, lift, project, run_report, AlgoReport, Board, RunOptions};
use crate::fuzz::Msg5Fuzzer;
use crate::trees::Forest;
use ba_crypto::wire::{Decoder, Encoder};
use ba_crypto::Bytes;
use ba_crypto::{Barrier, Chain, KeyRegistry, ProcessId, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox, Payload};
use ba_sim::schedule::{FaultBehavior, ScheduleError, ScheduleSpec};
use ba_sim::{AgreementViolation, InstanceSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Signature tag base for per-index grid rounds: strings with index `i`
/// are signed under tag `GRID_TAG_BASE + i`.
const GRID_TAG_BASE: u64 = 0x5000;

/// Messages of Algorithm 5.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Msg5 {
    /// A signature chain: Algorithm 2 prefix traffic, valid messages,
    /// collection messages and returns, reports, and block-0 deliveries.
    Chain(Chain),
    /// Root activation: a valid message plus a proof of work.
    Activate {
        /// The valid message (common value, `≥ t+1` active signatures).
        valid: Chain,
        /// Supporting strings (index `x`, signed by distinct actives).
        proof: Vec<SignedItem>,
    },
    /// One Algorithm 4 grid message.
    Grid(GridMsg),
}

impl Msg5 {
    /// The chain this message is, if it is one.
    fn chain(&self) -> Option<&Chain> {
        match self {
            Msg5::Chain(c) => Some(c),
            _ => None,
        }
    }

    /// The grid message this message carries, if it carries one.
    fn grid(&self) -> Option<&GridMsg> {
        match self {
            Msg5::Grid(g) => Some(g),
            _ => None,
        }
    }
}

impl Payload for Msg5 {
    fn signature_count(&self) -> usize {
        match self {
            Msg5::Chain(c) => c.len(),
            Msg5::Activate { valid, proof } => valid.len() + proof.len(),
            Msg5::Grid(g) => g.signature_count(),
        }
    }
    /// A chain weighs what [`Chain`]'s own accounting says, and a proof
    /// item its [`encoded_len`](SignedItem::encoded_len): signatures are
    /// charged at their scheme's encoded length.
    fn weight_bytes(&self) -> usize {
        match self {
            Msg5::Chain(c) => c.weight_bytes(),
            Msg5::Activate { valid, proof } => {
                valid.weight_bytes() + proof.iter().map(SignedItem::encoded_len).sum::<usize>()
            }
            Msg5::Grid(g) => g.weight_bytes(),
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            Msg5::Chain(_) => "chain",
            Msg5::Activate { .. } => "activate",
            Msg5::Grid(_) => "grid",
        }
    }
    /// Hands the barrier the chain a message is, or an activation's valid
    /// message. Proof strings and grid items are [`SignedItem`]s, which
    /// carry no stamp: their recipients check them.
    fn verify_at_barrier(&self, barrier: &mut Barrier<'_>) {
        match self {
            Msg5::Chain(chain) | Msg5::Activate { valid: chain, .. } => barrier.chain(chain),
            Msg5::Grid(_) => {}
        }
    }
}

/// Whether `chain` is a *valid message*: a binary value under the
/// Algorithm 2 domain carrying at least `t + 1` distinct signatures of the
/// first `2t + 1` processors (the Algorithm 2 participants; passive
/// signatures may follow).
pub fn is_valid_message(chain: &Chain, t: usize, verifier: &Verifier) -> bool {
    if chain.domain() != domains::ALG2
        || (chain.value() != Value::ZERO && chain.value() != Value::ONE)
        || chain.verify(verifier).is_err()
    {
        return false;
    }
    let actives: BTreeSet<ProcessId> = chain.signers().filter(|p| p.index() < 2 * t + 1).collect();
    actives.len() > t
}

/// The first valid message among `chains`: how a processor outside the
/// core picks up the hand-off.
pub(crate) fn first_valid_message<'a>(
    chains: impl IntoIterator<Item = &'a Chain>,
    t: usize,
    verifier: &Verifier,
) -> Option<&'a Chain> {
    chains
        .into_iter()
        .find(|c| is_valid_message(c, t, verifier))
}

/// Encodes a string `[index, members]` body.
pub fn encode_string(index: u32, members: &BTreeSet<ProcessId>) -> Bytes {
    let mut enc = Encoder::with_capacity(8 + 4 * members.len());
    enc.u32(index).u32(members.len() as u32);
    for &m in members {
        enc.process_id(m);
    }
    enc.finish()
}

/// Decodes a string body into `(index, members)`.
pub fn decode_string(body: &[u8]) -> Option<(u32, Vec<ProcessId>)> {
    let mut dec = Decoder::new(body);
    let index = dec.u32().ok()?;
    let count = dec.u32().ok()? as usize;
    let mut members = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        members.push(dec.process_id().ok()?);
    }
    dec.is_exhausted().then_some((index, members))
}

/// Support counts: for each passive processor, the set of distinct active
/// signers whose index-`i` string lists it.
pub fn support_counts(
    items: &[SignedItem],
    index: u32,
    alpha: usize,
    verifier: &Verifier,
) -> BTreeMap<ProcessId, BTreeSet<ProcessId>> {
    let mut pi: BTreeMap<ProcessId, BTreeSet<ProcessId>> = BTreeMap::new();
    for item in items {
        let signer = item.signer();
        if signer.index() >= alpha || !item.verifies(GRID_TAG_BASE + index as u64, verifier) {
            continue;
        }
        if let Some((i, members)) = decode_string(&item.body) {
            if i == index {
                for q in members {
                    pi.entry(q).or_default().insert(signer);
                }
            }
        }
    }
    pi
}

/// One scheduled block.
#[derive(Clone, Copy, Debug)]
pub struct BlockSchedule {
    /// Subtree depth handled by this block.
    pub x: u32,
    /// First global phase of the block.
    pub start: usize,
    /// Full subtree size `l(x) = 2^x − 1`.
    pub l: usize,
}

impl BlockSchedule {
    /// Number of phases in this block (`2 l(x) + 3`).
    pub fn len(&self) -> usize {
        2 * self.l + 3
    }

    /// Blocks are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Where a global phase falls in the Algorithm 5 schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseSlot {
    /// Algorithm 2 among the first `2t + 1` actives.
    Prefix,
    /// Phase `3t + 4`: valid-message hand-off to the remaining actives.
    Handoff,
    /// Local phase `local` (1-based) of the block handling depth `x`.
    Block {
        /// Subtree depth.
        x: u32,
        /// 1-based local phase.
        local: usize,
    },
    /// The final direct-delivery phase (block 0).
    Final,
}

/// Static parameters and schedule of an Algorithm 5 run.
#[derive(Debug)]
pub struct Alg5Config {
    /// Total processors.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Tree size (`2^λ − 1`).
    pub s: usize,
    /// Active count (smallest perfect square `> 6t`).
    pub alpha: usize,
    /// Tree depth.
    pub lambda: u32,
    /// Verifier over the run registry.
    pub verifier: Verifier,
    /// The passive forest.
    pub forest: Forest,
    /// Grid layout over the actives.
    pub grid: GridLayout,
    /// Blocks in execution order (`x = λ` first).
    pub blocks: Vec<BlockSchedule>,
    /// The final (block 0) phase; also the run length.
    pub last_phase: usize,
    /// Algorithm 1 parameters for the embedded Algorithm 2.
    pub alg1: Arc<Algo1Params>,
    /// Whether subtrees wait for a proof of work before activating.
    pub activation: Activation,
}

/// How [`Alg5Config::proof_of_work_holds`] activates subtrees.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activation {
    /// Algorithm 5 as stated: a subtree activates on a proof of work.
    Gated,
    /// Ablation: every subtree of every block activates unconditionally.
    /// Correctness is unaffected; message counts blow up — the experiments
    /// use this to quantify what Lemma 4's certificates save.
    Naive,
}

impl Alg5Config {
    /// Builds the configuration.
    ///
    /// # Panics
    /// Panics if `t == 0`, `s` is not `2^λ − 1`, or `n < α`.
    pub fn new(n: usize, t: usize, s: usize, verifier: Verifier) -> Self {
        assert!(t >= 1, "algorithm 5 needs t >= 1");
        let alpha = bounds::alpha(t as u64) as usize;
        assert!(
            n >= alpha,
            "algorithm 5 needs n >= alpha = {alpha} (the paper extends Algorithm 1 otherwise)"
        );
        let forest = Forest::new(alpha, n, s);
        let lambda = forest.lambda();
        let grid = GridLayout::new(alpha).expect("alpha is a perfect square");
        let mut blocks = Vec::new();
        let mut start = 3 * t + 5;
        for x in (1..=lambda).rev() {
            let l = (1usize << x) - 1;
            blocks.push(BlockSchedule { x, start, l });
            start += 2 * l + 3;
        }
        let alg1 = Arc::new(Algo1Params {
            t,
            verifier: verifier.clone(),
        });
        Alg5Config {
            n,
            t,
            s,
            alpha,
            lambda,
            verifier,
            forest,
            grid,
            blocks,
            last_phase: start,
            alg1,
            activation: Activation::Gated,
        }
    }

    /// Number of Algorithm 2 participants (`2t + 1`).
    pub fn core_count(&self) -> usize {
        2 * self.t + 1
    }

    /// Maps a global phase to its slot in the schedule.
    ///
    /// # Panics
    /// Panics for phases beyond the schedule.
    pub fn slot(&self, phase: usize) -> PhaseSlot {
        if phase <= 3 * self.t + 3 {
            return PhaseSlot::Prefix;
        }
        if phase == 3 * self.t + 4 {
            return PhaseSlot::Handoff;
        }
        if phase == self.last_phase {
            return PhaseSlot::Final;
        }
        for block in &self.blocks {
            if phase >= block.start && phase < block.start + block.len() {
                return PhaseSlot::Block {
                    x: block.x,
                    local: phase - block.start + 1,
                };
            }
        }
        panic!("phase {phase} beyond schedule (last {})", self.last_phase);
    }

    /// The block handling depth `x`.
    pub fn block(&self, x: u32) -> &BlockSchedule {
        self.blocks
            .iter()
            .find(|b| b.x == x)
            .expect("block exists for every 1 <= x <= lambda")
    }

    /// The support threshold `α − 2t`.
    pub fn threshold(&self) -> usize {
        self.alpha - 2 * self.t
    }

    /// Whether the strings in `pi` prove work for the depth-`x` subtree at
    /// `(tree, root_pos)`: the root itself is reported unserved by
    /// `≥ α − 2t` actives, or both child subtrees contain such a processor
    /// (`x = λ` needs no proof).
    pub fn proof_of_work_holds(
        &self,
        pi: &BTreeMap<ProcessId, BTreeSet<ProcessId>>,
        tree: usize,
        root_pos: usize,
        x: u32,
    ) -> bool {
        if x == self.lambda || self.activation == Activation::Naive {
            return true;
        }
        let threshold = self.threshold();
        let supported = |q: ProcessId| pi.get(&q).map(|s| s.len()).unwrap_or(0) >= threshold;
        let Some(root_id) = self.forest.processor(tree, root_pos) else {
            return false;
        };
        if supported(root_id) {
            return true;
        }
        let mut child_ok = [false, false];
        for (i, child) in [2 * root_pos, 2 * root_pos + 1].into_iter().enumerate() {
            if child <= self.s {
                child_ok[i] = self
                    .forest
                    .subtree_members(tree, child)
                    .into_iter()
                    .any(supported);
            }
        }
        child_ok[0] && child_ok[1]
    }
}

/// An active processor.
#[derive(Debug)]
pub struct Alg5Active {
    cfg: Arc<Alg5Config>,
    me: ProcessId,
    signer: Signer,
    /// Algorithm 2 and the hand-off (first `2t + 1` actives only).
    core: Option<Algo2Actor>,
    /// My valid message.
    valid: Option<Chain>,
    /// `B(p, x)` for the block about to run / running.
    b_set: BTreeSet<ProcessId>,
    /// Roots contacted in the current block (`C(p, x)` roots).
    contacted: BTreeSet<ProcessId>,
    /// Signers harvested from this block's reports.
    harvested: BTreeSet<ProcessId>,
    /// `F(p, x−1)` computed at this block's grid start.
    f_set: BTreeSet<ProcessId>,
    /// The in-flight grid exchange.
    grid_state: Option<Alg4State>,
    /// Strings harvested from the last *finished* grid round.
    strings: Vec<SignedItem>,
}

impl Alg5Active {
    /// Creates the active actor (`own_value` only for the transmitter).
    pub fn new(
        cfg: Arc<Alg5Config>,
        me: ProcessId,
        signer: Signer,
        own_value: Option<Value>,
        scratch: Arc<Board<Chain>>,
    ) -> Self {
        let core = (me.index() < cfg.core_count())
            .then(|| Algo2Actor::new(cfg.alg1.clone(), me, signer.clone(), own_value, scratch));
        Alg5Active {
            cfg,
            me,
            signer,
            core,
            valid: None,
            b_set: BTreeSet::new(),
            contacted: BTreeSet::new(),
            harvested: BTreeSet::new(),
            f_set: BTreeSet::new(),
            grid_state: None,
            strings: Vec::new(),
        }
    }

    /// Finishes the previous block's grid round on `inbox`, then sets
    /// `B(p, x)`: the members of `F(p, x)` that at least `α − 2t` actives'
    /// index-`x` strings list. Returns those support counts `π`.
    fn finish_grid(
        &mut self,
        inbox: Inbox<'_, Msg5>,
        x: u32,
    ) -> BTreeMap<ProcessId, BTreeSet<ProcessId>> {
        if let Some(grid) = &mut self.grid_state {
            grid.finish(Inbox::of(&project(inbox, Msg5::grid)));
            self.strings = grid.result().to_vec();
        }
        let pi = support_counts(&self.strings, x, self.cfg.alpha, &self.cfg.verifier);
        let threshold = self.cfg.threshold();
        let supported = |q: &ProcessId| pi.get(q).map_or(0, BTreeSet::len) >= threshold;
        self.b_set = self.f_set.iter().copied().filter(supported).collect();
        pi
    }

    /// Sends activations for every depth-`x` subtree supported by `pi`,
    /// updating `contacted`.
    fn send_activations(
        &mut self,
        x: u32,
        pi: &BTreeMap<ProcessId, BTreeSet<ProcessId>>,
        out: &mut Outbox<Msg5>,
    ) {
        let Some(valid) = &self.valid else { return };
        self.contacted.clear();
        self.harvested.clear();
        let proof: Vec<SignedItem> = if x == self.cfg.lambda {
            Vec::new()
        } else {
            self.strings
                .iter()
                .filter(|item| decode_string(&item.body).is_some_and(|(i, _)| i == x))
                .cloned()
                .collect()
        };
        for (tree, root_pos) in self.cfg.forest.subtree_roots_at_height(x) {
            if !self.cfg.proof_of_work_holds(pi, tree, root_pos, x) {
                continue;
            }
            let root_id = self
                .cfg
                .forest
                .processor(tree, root_pos)
                .expect("roots at height are real");
            self.contacted.insert(root_id);
            out.send(
                root_id,
                Msg5::Activate {
                    valid: valid.clone(),
                    proof: proof.clone(),
                },
            );
        }
    }
}

impl Actor<Msg5> for Alg5Active {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Msg5>, out: &mut Outbox<Msg5>) {
        let cfg = self.cfg.clone();
        let t = cfg.t;
        match cfg.slot(phase) {
            PhaseSlot::Prefix => {
                if let Some(core) = &mut self.core {
                    let chains = project(inbox, Msg5::chain);
                    let mut scratch = Outbox::new(self.me);
                    core.step(phase, Inbox::of(&chains), &mut scratch);
                    lift(scratch, out, Msg5::Chain);
                }
            }
            PhaseSlot::Handoff => {
                if let Some(core) = &mut self.core {
                    let chains = project(inbox, Msg5::chain);
                    let to = cfg.core_count()..cfg.alpha;
                    let sent = core.hand_off(Inbox::of(&chains), to, |p, valid| {
                        out.send(p, Msg5::Chain(valid))
                    });
                    self.valid = Some(sent.unwrap_or_else(|| core.valid_message()));
                }
            }
            PhaseSlot::Block { x, local } => {
                let l = cfg.block(x).l;
                if local == 1 {
                    if x == cfg.lambda {
                        // Non-core actives pick up the hand-off valid
                        // message from the inbox.
                        if self.core.is_none() && self.valid.is_none() {
                            let chains = inbox.iter().filter_map(|e| e.payload.chain());
                            self.valid = first_valid_message(chains, t, &cfg.verifier).cloned();
                        }
                        // B(p, λ) = all passive processors; every tree is
                        // activated with an empty proof.
                        self.b_set = (cfg.alpha..cfg.n).map(|i| ProcessId(i as u32)).collect();
                        let pi = BTreeMap::new();
                        self.send_activations(x, &pi, out);
                    } else {
                        // B(p, x) and C(p, x) come from the strings.
                        let pi = self.finish_grid(inbox, x);
                        self.send_activations(x, &pi, out);
                    }
                } else if local == 2 * l + 1 {
                    // Reports from activated roots are in the inbox.
                    let reports = inbox.iter().filter(|e| self.contacted.contains(&e.from));
                    for c in reports.filter_map(|e| e.payload.chain()) {
                        if is_valid_message(c, t, &cfg.verifier) {
                            self.harvested.extend(c.signers());
                        }
                    }
                    // F(p, x−1): still-unserved processors, roots excluded.
                    self.f_set = self
                        .b_set
                        .iter()
                        .copied()
                        .filter(|q| !self.harvested.contains(q) && !self.contacted.contains(q))
                        .collect();
                    // Start the grid round over [F(p, x−1), x−1].
                    let index = x - 1;
                    let body = encode_string(index, &self.f_set);
                    let grid = Alg4State::new(
                        cfg.grid,
                        self.me,
                        body,
                        &self.signer,
                        cfg.verifier.clone(),
                        GRID_TAG_BASE + index as u64,
                    );
                    grid.phase1_sends(|to, msg| out.send(to, Msg5::Grid(msg)));
                    self.grid_state = Some(grid);
                } else if local > 2 * l + 1 {
                    if let Some(grid) = &mut self.grid_state {
                        let grids = project(inbox, Msg5::grid);
                        let send = |to, msg| out.send(to, Msg5::Grid(msg));
                        if local == 2 * l + 2 {
                            grid.phase2_sends(Inbox::of(&grids), send);
                        } else {
                            grid.phase3_sends(Inbox::of(&grids), send);
                        }
                    }
                }
                // Collection phases (other locals) are passive-only.
            }
            PhaseSlot::Final => {
                // Block 0: deliver the valid message directly to B(p, 0).
                self.finish_grid(inbox, 0);
                if let Some(valid) = &self.valid {
                    for &q in &self.b_set {
                        out.send(q, Msg5::Chain(valid.clone()));
                    }
                }
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.valid
            .as_ref()
            .map(Chain::value)
            .or_else(|| self.core.as_ref().and_then(|a| a.decision()))
    }
}

/// A passive processor: subtree member in blocks above its height, subtree
/// root in the block at its height.
#[derive(Debug)]
pub struct Alg5Passive {
    cfg: Arc<Alg5Config>,
    me: ProcessId,
    signer: Signer,
    tree: usize,
    pos: usize,
    height: u32,
    /// First valid message received (decision source).
    decided: Option<Chain>,
    /// Collection state while activated as a root.
    coll: Option<Collection>,
    /// Audit board: posts `true` when activated as a root (Lemma 4's
    /// count, read by [`run_audited`]).
    audit: Arc<Board<bool>>,
}

#[derive(Debug)]
struct Collection {
    m: Chain,
    /// Real members in BFS order; `nodes[0]` is me.
    nodes: Vec<ProcessId>,
}

impl Alg5Passive {
    /// Creates the passive actor, which posts `true` to its slot on
    /// `audit` the first time it activates as a subtree root.
    ///
    /// # Panics
    /// Panics if `me` is not a passive processor of this configuration.
    pub fn new(
        cfg: Arc<Alg5Config>,
        me: ProcessId,
        signer: Signer,
        audit: Arc<Board<bool>>,
    ) -> Self {
        let (tree, pos) = cfg.forest.locate(me).expect("passive processor");
        let height = cfg.forest.height(pos);
        Alg5Passive {
            cfg,
            me,
            signer,
            tree,
            pos,
            height,
            decided: None,
            coll: None,
            audit,
        }
    }

    fn consider(&mut self, chain: &Chain) {
        if self.decided.is_none() && is_valid_message(chain, self.cfg.t, &self.cfg.verifier) {
            self.decided = Some(chain.clone());
        }
    }

    /// Root behaviour for block `x == height`, local phase `local = 2k`.
    fn root_step(&mut self, x: u32, local: usize, inbox: Inbox<'_, Msg5>, out: &mut Outbox<Msg5>) {
        let cfg = self.cfg.clone();
        let l = cfg.block(x).l;
        if !local.is_multiple_of(2) || local > 2 * l {
            return;
        }
        let k = local / 2;

        if k == 1 {
            // Activation: first well-supported activation wins.
            self.coll = None;
            for env in inbox {
                if let Msg5::Activate { valid, proof } = &env.payload {
                    if !is_valid_message(valid, cfg.t, &cfg.verifier) {
                        continue;
                    }
                    self.consider(valid);
                    if env.from.index() >= cfg.alpha {
                        continue;
                    }
                    let pi = support_counts(proof, x, cfg.alpha, &cfg.verifier);
                    if cfg.proof_of_work_holds(&pi, self.tree, self.pos, x) {
                        let mut m = valid.clone();
                        m.sign_and_append(&self.signer);
                        let nodes = cfg.forest.subtree_members(self.tree, self.pos);
                        self.coll = Some(Collection { m, nodes });
                        self.audit.post(self.me, true);
                        break;
                    }
                }
            }
        } else if let Some(coll) = &mut self.coll {
            // Absorb the return from nodes[k-1], if any.
            if let Some(&expected) = coll.nodes.get(k - 1) {
                for env in inbox {
                    if env.from != expected {
                        continue;
                    }
                    if let Msg5::Chain(ret) = &env.payload {
                        if ret.len() == coll.m.len() + 1
                            && ret.last_signer() == Some(expected)
                            && ret.signatures()[..coll.m.len()] == *coll.m.signatures()
                            && ret.value() == coll.m.value()
                            && ret.domain() == coll.m.domain()
                            && ret.verify(&cfg.verifier).is_ok()
                        {
                            coll.m = ret.clone();
                            break;
                        }
                    }
                }
            }
        }

        if let Some(coll) = &self.coll {
            // Send m to the next member, and report at the block's end.
            if let Some(&next) = coll.nodes.get(k) {
                out.send(next, Msg5::Chain(coll.m.clone()));
            }
            if k == l {
                for a in 0..cfg.alpha {
                    out.send(ProcessId(a as u32), Msg5::Chain(coll.m.clone()));
                }
            }
        }
    }

    /// Member behaviour for block `x > height`.
    fn member_step(
        &mut self,
        x: u32,
        local: usize,
        inbox: Inbox<'_, Msg5>,
        out: &mut Outbox<Msg5>,
    ) {
        let cfg = self.cfg.clone();
        let anc = cfg.forest.ancestor_at_height(self.pos, x);
        let Some(root_id) = cfg.forest.processor(self.tree, anc) else {
            return;
        };
        let nodes = cfg.forest.subtree_members(self.tree, anc);
        let Some(idx) = nodes.iter().position(|&q| q == self.me) else {
            return;
        };
        if idx == 0 || local != 2 * idx + 1 {
            return;
        }
        // "Exactly one valid message from the root of my subtree."
        let candidates: Vec<&Chain> = inbox
            .iter()
            .filter(|env| env.from == root_id)
            .filter_map(|env| env.payload.chain())
            .filter(|c| is_valid_message(c, cfg.t, &cfg.verifier))
            .collect();
        if let [only] = candidates[..] {
            self.consider(only);
            let mut signed = (*only).clone();
            signed.sign_and_append(&self.signer);
            out.send(root_id, Msg5::Chain(signed));
        }
    }
}

impl Actor<Msg5> for Alg5Passive {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Msg5>, out: &mut Outbox<Msg5>) {
        // Opportunistically decide on any valid chain that reaches us.
        for env in inbox {
            match &env.payload {
                Msg5::Chain(c) => self.consider(&c.clone()),
                Msg5::Activate { valid, .. } => self.consider(&valid.clone()),
                Msg5::Grid(_) => {}
            }
        }
        if let PhaseSlot::Block { x, local } = self.cfg.slot(phase) {
            match x.cmp(&self.height) {
                std::cmp::Ordering::Equal => self.root_step(x, local, inbox, out),
                std::cmp::Ordering::Greater => self.member_step(x, local, inbox, out),
                std::cmp::Ordering::Less => {}
            }
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Msg5>) {
        for env in inbox {
            if let Msg5::Chain(c) = &env.payload {
                self.consider(&c.clone());
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decided.as_ref().map(Chain::value)
    }
}

/// The root (heap position 1) of passive tree `tree` in the forest
/// [`run`] builds for `(n, t, s)`, unless that slot is padding.
pub fn tree_root(n: usize, t: usize, s: usize, tree: usize) -> Option<ProcessId> {
    Forest::new(bounds::alpha(t as u64) as usize, n, s).processor(tree, 1)
}

/// Builds and runs an Algorithm 5 scenario with gated activation. The
/// schedule's `Forge` is a [`Msg5Fuzzer`] spammer.
///
/// ```
/// use ba_algos::algorithm5::run;
/// use ba_algos::common::RunOptions;
/// use ba_crypto::Value;
///
/// let r = run(20, 1, 3, Value::ONE, RunOptions::default())?;
/// assert_eq!(r.verdict.agreed, Some(Value::ONE));
/// # Ok::<(), ba_sim::AgreementViolation>(())
/// ```
///
/// # Errors
/// Propagates any [`AgreementViolation`].
///
/// # Panics
/// Panics on invalid parameters (see [`Alg5Config::new`]) or a malformed
/// schedule.
pub fn run(
    n: usize,
    t: usize,
    s: usize,
    value: Value,
    options: RunOptions,
) -> Result<AlgoReport<Msg5>, AgreementViolation> {
    run_audited(n, t, s, value, Activation::Gated, options).map(|(report, _)| report)
}

/// Like [`run`] under `activation`, and also returns, per passive
/// processor, whether it ever activated as a subtree root — the quantity
/// Lemma 4 bounds by `2·b(C) + 1` activated-or-faulty processors per tree
/// `C` with `b(C)` faults.
///
/// # Errors
/// Propagates any [`AgreementViolation`].
///
/// # Panics
/// As [`run`].
pub fn run_audited(
    n: usize,
    t: usize,
    s: usize,
    value: Value,
    activation: Activation,
    options: RunOptions,
) -> Result<(AlgoReport<Msg5>, Vec<bool>), AgreementViolation> {
    assert!(
        value == Value::ZERO || value == Value::ONE,
        "algorithm 5 is binary"
    );
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let cfg = Alg5Config {
        activation,
        ..Alg5Config::new(n, t, s, registry.verifier())
    };
    let activated = Board::new(n);
    let spec = build(cfg, &registry, value, &options.schedule, &activated);
    let report = run_report(spec, &options, value)?;
    let activated: Vec<bool> = activated
        .snapshot()
        .into_iter()
        .map(|slot| slot.unwrap_or(false))
        .collect();
    Ok((report, activated))
}

/// Builds one Algorithm 5 instance over `cfg`: the transmitter `p0` sends
/// `value`, `schedule`'s faults are applied, every passive that activates
/// as a subtree root posts `true` on `activated`, and delivered chains are
/// verified at the phase barrier against `registry`. [`run`] and
/// [`run_audited`] build through it.
///
/// # Errors
/// [`ScheduleError::Unmapped`] for any fault but `forge`, which is a
/// [`Msg5Fuzzer`] spammer.
///
/// # Panics
/// On a schedule malformed for `cfg.n` and `cfg.t`.
pub fn build(
    cfg: Alg5Config,
    registry: &KeyRegistry,
    value: Value,
    schedule: &ScheduleSpec,
    activated: &Arc<Board<bool>>,
) -> Result<InstanceSpec<Msg5>, ScheduleError> {
    let cfg = Arc::new(cfg);
    let scratch = Board::new(cfg.core_count());
    let honest = |p: ProcessId| -> Box<dyn Actor<Msg5>> {
        let signer = registry.signer(p);
        if p.index() < cfg.alpha {
            let own = (p == ProcessId(0)).then_some(value);
            Box::new(Alg5Active::new(
                cfg.clone(),
                p,
                signer,
                own,
                scratch.clone(),
            ))
        } else {
            Box::new(Alg5Passive::new(cfg.clone(), p, signer, activated.clone()))
        }
    };
    let adversary = |p, behavior: &FaultBehavior| match *behavior {
        FaultBehavior::Forge { seed, per_phase } => {
            Some(Msg5Fuzzer::spammer(registry, p, seed, per_phase))
        }
        _ => None,
    };
    let dims = (cfg.n, cfg.t, cfg.last_phase);
    instance(schedule, dims, registry, honest, adversary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::SchemeKind;
    use ba_sim::ScheduleSpec;

    #[test]
    fn schedule_shape() {
        let registry = KeyRegistry::new(40, 0, SchemeKind::Fast);
        let cfg = Alg5Config::new(40, 1, 7, registry.verifier());
        assert_eq!(cfg.alpha, 9);
        assert_eq!(cfg.lambda, 3);
        assert_eq!(cfg.blocks.len(), 3);
        // Prefix 1..=6, handoff 7, block 3 starts at 8 (len 17), block 2 at
        // 25 (len 9), block 1 at 34 (len 5), final at 39.
        assert_eq!(cfg.slot(1), PhaseSlot::Prefix);
        assert_eq!(cfg.slot(6), PhaseSlot::Prefix);
        assert_eq!(cfg.slot(7), PhaseSlot::Handoff);
        assert_eq!(cfg.slot(8), PhaseSlot::Block { x: 3, local: 1 });
        assert_eq!(cfg.slot(24), PhaseSlot::Block { x: 3, local: 17 });
        assert_eq!(cfg.slot(25), PhaseSlot::Block { x: 2, local: 1 });
        assert_eq!(cfg.slot(34), PhaseSlot::Block { x: 1, local: 1 });
        assert_eq!(cfg.slot(38), PhaseSlot::Block { x: 1, local: 5 });
        assert_eq!(cfg.slot(39), PhaseSlot::Final);
        assert_eq!(cfg.last_phase, 39);
        assert_eq!(
            cfg.last_phase as u64,
            bounds::alg5_phases_schedule(1, 7),
            "closed form matches the schedule"
        );
    }

    #[test]
    fn string_roundtrip() {
        let members: BTreeSet<ProcessId> = [ProcessId(9), ProcessId(12)].into_iter().collect();
        let body = encode_string(2, &members);
        let (index, decoded) = decode_string(&body).unwrap();
        assert_eq!(index, 2);
        assert_eq!(decoded, vec![ProcessId(9), ProcessId(12)]);
        assert!(decode_string(&body[..3]).is_none());
        assert!(decode_string(b"garbage!").is_none());
    }

    #[test]
    fn valid_message_checks() {
        let t = 1;
        let registry = KeyRegistry::new(10, 5, SchemeKind::Hmac);
        let v = registry.verifier();
        let mut chain = Chain::new(domains::ALG2, Value::ONE);
        chain.sign_and_append(&registry.signer(ProcessId(0)));
        assert!(
            !is_valid_message(&chain, t, &v),
            "needs t+1 = 2 active sigs"
        );
        chain.sign_and_append(&registry.signer(ProcessId(2)));
        assert!(is_valid_message(&chain, t, &v));
        // Passive signatures extend but do not count toward the quorum.
        chain.sign_and_append(&registry.signer(ProcessId(9)));
        assert!(is_valid_message(&chain, t, &v));
        // Wrong domain.
        let mut wrong = Chain::new(domains::ALG1, Value::ONE);
        wrong.sign_and_append(&registry.signer(ProcessId(0)));
        wrong.sign_and_append(&registry.signer(ProcessId(1)));
        assert!(!is_valid_message(&wrong, t, &v));
        // Non-binary value.
        let mut nb = Chain::new(domains::ALG2, Value(7));
        nb.sign_and_append(&registry.signer(ProcessId(0)));
        nb.sign_and_append(&registry.signer(ProcessId(1)));
        assert!(!is_valid_message(&nb, t, &v));
    }

    #[test]
    fn fault_free_agrees_small() {
        // t=1: alpha=9, s=3 (λ=2), n=9+6=15.
        for v in [Value::ZERO, Value::ONE] {
            let r = run(15, 1, 3, v, RunOptions::default()).unwrap();
            assert_eq!(r.verdict.agreed, Some(v));
            assert_eq!(r.verdict.correct_count, 15);
        }
    }

    #[test]
    fn fault_free_agrees_with_padding() {
        // 13 passives over trees of size 7: one full, one padded.
        let r = run(22, 1, 7, Value::ONE, RunOptions::default()).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn fault_free_larger_t() {
        // t=2: alpha=16, n=16+30=46, s=3.
        let r = run(46, 2, 3, Value::ONE, RunOptions::default()).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
        // Theorem 7 envelope.
        assert!(r.outcome.metrics.messages_by_correct <= bounds::alg5_message_envelope(46, 2, 3));
    }

    #[test]
    fn silent_tree_roots_recovered_via_subtree_activation() {
        // t=1, s=7: silencing one tree root forces the proof-of-work path.
        let r = run(
            30,
            1,
            7,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each(tree_root(30, 1, 7, 0), FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn withholding_roots_only_cost_messages() {
        let r = run(
            30,
            1,
            7,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each(
                    tree_root(30, 1, 7, 1),
                    FaultBehavior::OmitTo {
                        targets: (0..9).map(ProcessId).collect(),
                    },
                ),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn silent_passives_tolerated() {
        let r = run(
            24,
            1,
            3,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each([ProcessId(11)], FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn silent_core_active_tolerated() {
        let r = run(
            24,
            1,
            3,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each([ProcessId(2)], FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn no_passives_degenerates_to_core() {
        // n == alpha: every processor is active.
        let r = run(9, 1, 3, Value::ONE, RunOptions::default()).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn theorem7_envelope_holds_across_sizes() {
        let t = 2; // alpha = 16
        for (n, s) in [(50usize, 3usize), (100, 7), (200, 7)] {
            let r = run(n, t, s, Value::ONE, RunOptions::default()).unwrap();
            let msgs = r.outcome.metrics.messages_by_correct;
            let envelope = bounds::alg5_message_envelope(n as u64, t as u64, s as u64);
            assert!(msgs <= envelope, "n={n} s={s}: {msgs} > {envelope}");
        }
    }

    /// Lemma 4 audit: per tree `C` with `b(C)` faults, the number of
    /// activated-or-faulty processors is at most `2*b(C) + 1`.
    fn assert_lemma4(n: usize, t: usize, s: usize, faulty_ids: &[ProcessId]) {
        let (report, activated) = run_audited(
            n,
            t,
            s,
            Value::ONE,
            Activation::Gated,
            RunOptions {
                schedule: ScheduleSpec::each(faulty_ids.iter().copied(), FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.verdict.agreed, Some(Value::ONE));
        let registry = KeyRegistry::new(n, 0, SchemeKind::Fast);
        let cfg = Alg5Config::new(n, t, s, registry.verifier());
        for tree in 0..cfg.forest.tree_count() {
            let members = cfg.forest.subtree_members(tree, 1);
            let b = members.iter().filter(|m| faulty_ids.contains(m)).count();
            let activated_or_faulty = members
                .iter()
                .filter(|m| activated[m.index()] || faulty_ids.contains(m))
                .count();
            assert!(
                activated_or_faulty <= 2 * b + 1,
                "tree {tree}: {activated_or_faulty} > 2*{b}+1"
            );
        }
    }

    #[test]
    fn lemma4_fault_free_only_tree_roots_activate() {
        assert_lemma4(30, 1, 7, &[]);
    }

    #[test]
    fn lemma4_silent_root_bounds_activations() {
        // The silent root of tree 0 (p9 with alpha = 9) forces child
        // activations; Lemma 4 caps the total at 2*1 + 1 = 3.
        assert_eq!(tree_root(30, 1, 7, 0), Some(ProcessId(9)));
        assert_lemma4(30, 1, 7, &[ProcessId(9)]);
    }

    #[test]
    fn lemma4_with_larger_t_and_silent_passives() {
        // alpha = 16 at t = 2; passives start at id 16.
        assert_lemma4(46, 2, 7, &[ProcessId(17), ProcessId(30)]);
    }

    #[test]
    fn naive_activation_still_agrees_but_costs_more() {
        let (n, t, s) = (120usize, 3usize, 7usize);
        let schedule = || ScheduleSpec::each(tree_root(n, t, s, 0), FaultBehavior::Silent);
        let gated = run(
            n,
            t,
            s,
            Value::ONE,
            RunOptions {
                schedule: schedule(),
                ..Default::default()
            },
        )
        .unwrap();
        let (naive, _) = run_audited(
            n,
            t,
            s,
            Value::ONE,
            Activation::Naive,
            RunOptions {
                schedule: schedule(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(gated.verdict.agreed, Some(Value::ONE));
        assert_eq!(naive.verdict.agreed, Some(Value::ONE));
        let g = gated.outcome.metrics.messages_by_correct;
        let na = naive.outcome.metrics.messages_by_correct;
        assert!(
            na > g + g / 4,
            "ablation should cost visibly more: naive {na} vs gated {g}"
        );
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_agreement_under_random_passive_faults() {
            run_cases(8, 0x64, |gen| {
                let lambda = gen.u32_in(1, 3);
                let trees = gen.usize_in(1, 4);
                let seed = gen.u64();
                let victim = gen.u32();
                let t = 1;
                let alpha = 9;
                let s = (1usize << lambda) - 1;
                let n = alpha + trees * s;
                let passive = alpha as u32 + victim % (trees * s) as u32;
                let r = run(
                    n,
                    t,
                    s,
                    Value::ONE,
                    RunOptions {
                        schedule: ScheduleSpec::each([ProcessId(passive)], FaultBehavior::Silent),
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(r.verdict.agreed, Some(Value::ONE));
            });
        }
    }

    #[test]
    fn chains_failing_barrier_verification_are_rejected_by_every_recipient() {
        // A faulty passive broadcasts, in phase 1, a valid message for 0
        // signed by the first t + 1 actives under a *different* registry
        // seed: once as a chain, once as an activation's valid message.
        // Every passive decides on the first valid message it reads, so
        // one recipient waved through by a stamp would decide 0.
        use crate::common::{barrier_matches_reference, OneShot};
        let (n, t, s) = (30, 1, 7);
        let registry = KeyRegistry::new(n, 6, SchemeKind::Fast);
        let foreign = KeyRegistry::new(n, 7, SchemeKind::Fast);
        let mut forged = Chain::new(domains::ALG2, Value::ZERO);
        for p in 0..=t as u32 {
            forged.sign_and_append(&foreign.signer(ProcessId(p)));
        }
        let activate = Msg5::Activate {
            valid: forged.clone(),
            proof: Vec::new(),
        };
        for payload in [Msg5::Chain(forged.clone()), activate] {
            let outcome = barrier_matches_reference(|| {
                let cfg = Alg5Config::new(n, t, s, registry.verifier());
                let schedule = ScheduleSpec::default();
                let spec = build(cfg, &registry, Value::ONE, &schedule, &Board::new(n));
                let mut spec = spec.expect("fault-free schedule");
                spec.actors[n - 1] = Box::new(OneShot {
                    n,
                    phase: 1,
                    payload: payload.clone(),
                });
                spec
            });
            let mut expected = vec![Some(Value::ONE); n];
            expected[n - 1] = None;
            assert_eq!(outcome.decisions, expected, "{payload:?}");
            // `forged` shares its buffer with every delivered copy: had
            // the barrier stamped it, this would be a stamp hit.
            assert!(forged.verify(&registry.verifier()).is_err());
        }
    }
}
