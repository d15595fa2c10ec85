//! Every fault scenario the per-algorithm fault enums, the two fuzz
//! harnesses and the hand-built `Spammer` runs used to spell, as a
//! [`ScheduleSpec`] through the algorithm's ordinary `run`.
//!
//! Each row pins SHA-256 of `format!("{:?}", (decisions, correct,
//! metrics))`. The digests were captured on the enum path before it was
//! deleted, so a row passing means the schedule reproduces the old
//! scenario's decisions and whole `Metrics` (per-phase and crypto
//! counters included) byte for byte. The two lossy-relay rows were pinned
//! against a hand-built `OmitTo(honest, [])` run with the same seeded link
//! drops, since the old random-omission wrapper has no schedule form.
//! The `small-n/*` and `agree/*` rows pin an `AgreeReport`'s verdict and
//! metrics instead (see `agree_digest`). The four `om/*` rows were
//! re-pinned when `OM(t)` moved onto oral-scheme chains: decisions, the
//! correct set and every count but signatures, bytes, the kind label and
//! the crypto counters equal the old payload's.

use byzantine_agreement::algos::agree::run_small_n;
use byzantine_agreement::algos::algorithm3::{self, group_root};
use byzantine_agreement::algos::algorithm5::{self, tree_root};
use byzantine_agreement::algos::dolev_strong::{self, DsOptions, Variant};
use byzantine_agreement::algos::{
    agree, algorithm1, algorithm1_multi, algorithm2, bounds, fuzz, ic, om, AgreeReport, RunOptions,
};
use byzantine_agreement::crypto::rng::SimRng;
use byzantine_agreement::crypto::sha256::Sha256;
use byzantine_agreement::crypto::{ProcessId, SchemeKind, Value};
use byzantine_agreement::sim::engine::RunOutcome;
use byzantine_agreement::sim::{FaultBehavior, LinkDrop, Payload, ScheduleSpec};

fn sha_hex(text: &str) -> String {
    Sha256::digest(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn digest<P: Payload>(o: &RunOutcome<P>) -> String {
    sha_hex(&format!("{:?}", (&o.decisions, &o.correct, &o.metrics)))
}

/// What an [`AgreeReport`] carried before it had per-processor decisions:
/// its verdict and metrics.
fn agree_digest(r: &AgreeReport) -> String {
    sha_hex(&format!("{:?} {:?}", r.verdict, r.metrics))
}

fn each(ids: &[u32], behavior: FaultBehavior) -> ScheduleSpec {
    ScheduleSpec::each(ids.iter().copied().map(ProcessId), behavior)
}

fn silent(ids: &[u32]) -> ScheduleSpec {
    each(ids, FaultBehavior::Silent)
}

fn equivocate(ids: &[u32], ones: &[u32]) -> ScheduleSpec {
    let ones = ones.iter().copied().map(ProcessId).collect();
    each(ids, FaultBehavior::Equivocate { ones })
}

/// Every odd processor id below `n`.
fn odd(n: u32) -> Vec<u32> {
    (1..n).step_by(2).collect()
}

fn forge(seed: u64, per_phase: usize) -> FaultBehavior {
    FaultBehavior::Forge { seed, per_phase }
}

/// `from`'s links in phases `1..=phases`, each dropped with probability
/// `per_mille / 1000`.
fn lossy_links(from: u32, n: usize, phases: usize, per_mille: u32, seed: u64) -> Vec<LinkDrop> {
    let mut rng = SimRng::new(seed);
    let links = (1..=phases).flat_map(|phase| (0..n as u32).map(move |to| (phase, to)));
    links
        .filter(|&(_, to)| to != from)
        .filter(|_| rng.range_u32(0, 1000) < per_mille)
        .map(|(phase, to)| LinkDrop {
            phase,
            from: ProcessId(from),
            to: ProcessId(to),
        })
        .collect()
}

fn ds(n: usize, t: usize, variant: Variant, schedule: ScheduleSpec) -> String {
    let o = DsOptions::new()
        .with_variant(variant)
        .with_schedule(schedule)
        .with_seed(3);
    digest(&dolev_strong::run(n, t, Value::ONE, o).unwrap().outcome)
}

fn a1(t: usize, value: Value, schedule: ScheduleSpec) -> String {
    let o = RunOptions {
        schedule,
        seed: 5,
        ..Default::default()
    };
    digest(&algorithm1::run(t, value, o).unwrap().outcome)
}

fn a2(t: usize, schedule: ScheduleSpec) -> String {
    let o = RunOptions {
        schedule,
        seed: 2,
        ..Default::default()
    };
    digest(&algorithm2::run(t, Value::ONE, o).unwrap().report.outcome)
}

fn a3(n: usize, t: usize, s: usize, schedule: ScheduleSpec) -> String {
    let o = RunOptions::new().with_schedule(schedule).with_seed(4);
    digest(&algorithm3::run(n, t, s, Value::ONE, o).unwrap().outcome)
}

fn a5(n: usize, t: usize, s: usize, schedule: ScheduleSpec) -> String {
    let o = RunOptions {
        schedule,
        seed: 6,
        ..Default::default()
    };
    digest(&algorithm5::run(n, t, s, Value::ONE, o).unwrap().outcome)
}

fn icr(n: usize, t: usize, schedule: ScheduleSpec, seed: u64) -> String {
    let vals: Vec<Value> = (0..n as u64).map(|i| Value(i * 10 + 1)).collect();
    digest(&ic::run(n, t, &vals, &schedule, seed).outcome)
}

fn multi(t: usize, value: Value, schedule: ScheduleSpec, seed: u64) -> String {
    let o = RunOptions::new().with_schedule(schedule).with_seed(seed);
    let r = algorithm1_multi::run(t, value, o.with_scheme(SchemeKind::Fast));
    digest(&r.unwrap().outcome)
}

fn omr(n: usize, t: usize, schedule: ScheduleSpec) -> String {
    let options = RunOptions::new().with_schedule(schedule);
    digest(&om::run(n, t, Value::ONE, options).unwrap().outcome)
}

/// Algorithm 1 with the top `count` processors forging, registry and
/// spammers seeded from `seed` (the old Algorithm 1 fuzz harness).
fn fuzz1(t: usize, value: Value, count: usize, per_phase: usize, seed: u64) -> String {
    let o = RunOptions {
        schedule: fuzz::spammers(2 * t + 1, count, per_phase, seed),
        seed,
        scheme: SchemeKind::Fast,
        ..Default::default()
    };
    digest(&algorithm1::run(t, value, o).unwrap().outcome)
}

/// Algorithm 5 with the top `count` processors forging (the old
/// Algorithm 5 fuzz harness).
fn fuzz5(n: usize, t: usize, s: usize, value: Value, count: usize, per_phase: usize) -> String {
    let seed = 4096;
    let o = RunOptions {
        schedule: fuzz::spammers(n, count, per_phase, seed),
        seed,
        scheme: SchemeKind::Fast,
        ..Default::default()
    };
    digest(&algorithm5::run(n, t, s, value, o).unwrap().outcome)
}

/// `tests/mixed_faults.rs`' Algorithm 1 mixes: p1 silent, p2 forging,
/// p3 lossy, and (when given) p4 omitting toward `omit4`.
fn mixed1(
    t: usize,
    value: Value,
    seed: u64,
    spam: (u64, usize),
    lossy: (u32, u64),
    omit4: &[u32],
) -> String {
    let n = 2 * t + 1;
    let mut faults = vec![
        (ProcessId(1), FaultBehavior::Silent),
        (ProcessId(2), forge(spam.0, spam.1)),
        (ProcessId(3), FaultBehavior::Passive),
    ];
    if !omit4.is_empty() {
        let targets = omit4.iter().copied().map(ProcessId).collect();
        faults.push((ProcessId(4), FaultBehavior::OmitTo { targets }));
    }
    let schedule = ScheduleSpec {
        faults,
        link_drops: lossy_links(3, n, t + 2, lossy.0, lossy.1),
    };
    let o = RunOptions {
        schedule,
        seed,
        scheme: SchemeKind::Fast,
        ..Default::default()
    };
    digest(&algorithm1::run(t, value, o).unwrap().outcome)
}

/// `tests/mixed_faults.rs`' Algorithm 5 mix: a silent core active, a
/// report-withholding tree root and a forging leaf.
fn mixed5() -> String {
    let (n, t, s) = (60usize, 3usize, 3usize);
    let actives = (0..bounds::alpha(t as u64) as u32).map(ProcessId).collect();
    let schedule = ScheduleSpec {
        faults: vec![
            (ProcessId(2), FaultBehavior::Silent),
            (
                tree_root(n, t, s, 1).unwrap(),
                FaultBehavior::OmitTo { targets: actives },
            ),
            (ProcessId(n as u32 - 1), forge(13, 5)),
        ],
        link_drops: vec![],
    };
    let o = RunOptions {
        schedule,
        seed: 9,
        scheme: SchemeKind::Fast,
        ..Default::default()
    };
    digest(&algorithm5::run(n, t, s, Value::ONE, o).unwrap().outcome)
}

fn small_n(n: usize, t: usize, schedule: ScheduleSpec) -> String {
    let o = RunOptions::new().with_schedule(schedule).with_seed(8);
    agree_digest(&run_small_n(n, t, Value::ONE, o).unwrap())
}

fn agreed(n: usize, t: usize, schedule: ScheduleSpec) -> String {
    let o = RunOptions::new().with_schedule(schedule).with_seed(8);
    agree_digest(&agree(n, t, Value::ONE, o).unwrap())
}

/// Algorithm 3's `groups` roots each omitting their even-position members.
fn selective_roots(n: usize, t: usize, s: usize, groups: &[usize]) -> ScheduleSpec {
    let faults = groups
        .iter()
        .map(|&g| {
            let root = group_root(t, s, g).0;
            let members = (root + 1..(root + s as u32).min(n as u32)).step_by(2);
            let targets = members.map(ProcessId).collect();
            (ProcessId(root), FaultBehavior::OmitTo { targets })
        })
        .collect();
    ScheduleSpec {
        faults,
        link_drops: vec![],
    }
}

#[test]
fn schedules_reproduce_the_deleted_scenarios_byte_for_byte() {
    let lie0 = FaultBehavior::Lie { value: Value::ZERO };
    let alg5_actives = (0..9).map(ProcessId).collect();
    let rows: Vec<(&str, &str, String)> = vec![
        (
            "ds/none",
            "b5dd118033d538e4b0c6469a45463a9e94814b97c4c528984c2b9ff2dd5d6fce",
            ds(7, 2, Variant::Broadcast, ScheduleSpec::default()),
        ),
        (
            "ds/silent-transmitter",
            "b508af6bba0ddf7c4545e8a8d99a1c9bfe42d19e4e7a7ce2df80b80407bbbf5d",
            ds(7, 2, Variant::Broadcast, silent(&[0])),
        ),
        (
            "ds/equivocate",
            "fc02e3dee23951be9b5e63b898c5d30b61aae1bff861ff5264a07fcf4adedf94",
            ds(9, 3, Variant::Relay, equivocate(&[0], &[1, 2, 3, 4])),
        ),
        (
            "ds/silent-relays",
            "5435371603e22d2d3515aaabc864a8239ecf5510be68f3626a413596caa2c98d",
            ds(12, 3, Variant::Relay, silent(&[1, 2, 3])),
        ),
        (
            "algorithm1/none",
            "75770491280883e81487f60776cf6b5a2371245837adff9d5a2433e2f9d2ad9c",
            a1(3, Value::ONE, ScheduleSpec::default()),
        ),
        (
            "algorithm1/silent-transmitter",
            "2cee26ffdcc613b8719ea5d24a46c4050ac2abf1cf521b3f650982d193c0f923",
            a1(3, Value::ONE, silent(&[0])),
        ),
        (
            "algorithm1/equivocate",
            "d8aaea230f0abbb68aed442922f23aac2f65852de03cca1da21a31ce605761c9",
            a1(3, Value::ONE, equivocate(&[0], &[1, 4])),
        ),
        (
            "algorithm1/withhold",
            "fe6f5bd6cc0f1b3a0265baa26587acafdfeb430080544b59551a20a8491467cf",
            a1(
                4,
                Value::ONE,
                each(&[0, 1, 5, 2], FaultBehavior::Withhold { release: 4 }),
            ),
        ),
        (
            "algorithm1/crashed-relays",
            "97c8c10e1db8c810109a9aaea38d4a3f034014d1af785f928e75563ffa4f2ae6",
            a1(3, Value::ZERO, silent(&[1, 4, 6])),
        ),
        (
            "algorithm2/none",
            "4bec7e4fdcf9497ba604c8681048fd6b2cafa294fd5ccf8460648994064d4cfb",
            a2(3, ScheduleSpec::default()),
        ),
        (
            "algorithm2/silent",
            "5428da5a09adcaea27d8c7d4886e3f14ba3c1e0ba781370c562db44740a9e9e4",
            a2(3, silent(&[1, 3, 5])),
        ),
        (
            "algorithm2/crash-after-commit",
            "ffe64fafed96efb649fd4890726cc9c4a96433aa3db9266fb40f9d34a6864503",
            // Crash at t + 4, once the Algorithm 1 prefix has committed.
            a2(4, each(&[2, 4, 7], FaultBehavior::CrashAt { phase: 4 + 4 })),
        ),
        (
            "algorithm2/wrong-value-gossip",
            "d2a9508a75ddcd188631adb1c8fb769aa51df781f0c058468129d9634d34d04a",
            a2(3, each(&[2, 5], lie0.clone())),
        ),
        (
            "algorithm3/none",
            "e3ce645b6a865d9e467ec9e1eaa65d31c623fc31770ede700a87babd17bcf967",
            a3(20, 2, 4, ScheduleSpec::default()),
        ),
        (
            "algorithm3/silent-roots",
            "9bac3fc14b8fee7a9b154e6ac52cacb465a5efc7cfaa55ee0dff371e9240f5d9",
            a3(
                20,
                2,
                4,
                ScheduleSpec::each([0, 2].map(|g| group_root(2, 4, g)), FaultBehavior::Silent),
            ),
        ),
        (
            "algorithm3/lying-roots",
            "856eedc21fac4b4b928948f3a1d4083c1f8f974390e4174a1d8c3f4187d9d1e2",
            a3(
                20,
                2,
                4,
                ScheduleSpec::each([1, 2].map(|g| group_root(2, 4, g)), lie0.clone()),
            ),
        ),
        (
            "algorithm3/selective-roots",
            "5f17802493d99fa5b7e53f373a3162451afa7a6058abbba9c5a339e0c74d9ec3",
            a3(24, 2, 5, selective_roots(24, 2, 5, &[0, 1])),
        ),
        (
            "algorithm3/silent-members",
            "ef210ff76e4130c17ab5554c26758fab5f4951657b8a299ff2984dfb6dc9553f",
            a3(16, 2, 4, silent(&[6, 10])),
        ),
        (
            "algorithm3/silent-actives",
            "20aaeab12ae2899008bdb55766d439398e4af7c3f3393bd364b42232565b72dd",
            a3(20, 2, 4, silent(&[1, 3])),
        ),
        (
            "algorithm5/none",
            "4598d3c979c93bab82091442a130fb560472a0cbb1aef197e801f453873b3b2b",
            a5(30, 1, 7, ScheduleSpec::default()),
        ),
        (
            "algorithm5/silent-passives",
            "00e63350eb35eddde009e06f9709607d07ce7f04cfb464bb95bb898974274a60",
            a5(46, 2, 7, silent(&[17, 30])),
        ),
        (
            "algorithm5/silent-tree-roots",
            "fc7045724767d6634de4575fe2c5c614ec8c11d2efa4e4acad0f8600c4e12fae",
            a5(
                120,
                3,
                7,
                ScheduleSpec::each(
                    (0..3).filter_map(|tree| tree_root(120, 3, 7, tree)),
                    FaultBehavior::Silent,
                ),
            ),
        ),
        (
            "algorithm5/withholding-tree-roots",
            "b025b1f29936077aeeb59ab06f5f62c1c03d2aeaedcf98e94f016b89fb96bd4b",
            a5(
                30,
                1,
                7,
                ScheduleSpec::each(
                    tree_root(30, 1, 7, 1),
                    FaultBehavior::OmitTo {
                        targets: alg5_actives,
                    },
                ),
            ),
        ),
        (
            "algorithm5/silent-actives",
            "4e7c48fecb1338359f2cde2010c12ceedcf690590f1b56912ddf78f81adf665f",
            a5(24, 1, 3, silent(&[2])),
        ),
        (
            "ic/none",
            "37124f1f9bf43b5e1417d51cf988421d2e44e8a2ab8fde928c2730c495dd5a07",
            icr(6, 2, ScheduleSpec::default(), 1),
        ),
        (
            "ic/silent",
            "12e7c8abcc50e2677d21a30d32b34ba3e1a233c6394b0777dc38cac47f84b7ba",
            icr(6, 2, silent(&[2, 4]), 3),
        ),
        (
            "ic/equivocate-own-instance",
            "ffa122038005458aef7c627b0d3d1d39f1c6a3238c52adadaf1c33836e8703fb",
            icr(7, 2, equivocate(&[1, 5], &odd(7)), 7),
        ),
        (
            "algorithm1-multi/none",
            "2bc381fa63f3165e0ea4e392f9bb7128f089fa0001e09eeb46c572587ab4bdc0",
            multi(3, Value(42), ScheduleSpec::default(), 1),
        ),
        (
            "algorithm1-multi/rainbow",
            "bf195337bdd6583d813e15db9f48fd9db9ffcaac1bda06f59d479636794cd8bd",
            multi(3, Value(42), equivocate(&[0], &[1, 2, 3, 4, 5, 6]), 3),
        ),
        (
            "algorithm1-multi/silent-relays",
            "60fa3eab8c5bd46afe012530a13b310f3292f5e45914348bf3b9c1f5a5b29e64",
            multi(3, Value(555), silent(&[2, 5]), 9),
        ),
        (
            "om/none",
            "7595cd0181630056fef434b9483ab42cb556a848f9ac145eb79cf644002be1fb",
            omr(7, 2, ScheduleSpec::default()),
        ),
        (
            "om/equivocate",
            "fb9a121843247f23232ddf668a11953295db8928e65806dc6d391287626f4d78",
            omr(7, 2, equivocate(&[0], &[1, 2, 3])),
        ),
        (
            "om/flipping-relays",
            "2de39b3a7a22233a2ab64afba6c028c16064dd18d2519b9a1520f47ba1b43276",
            omr(7, 2, equivocate(&[2, 5], &odd(7))),
        ),
        (
            "om/silent-relays",
            "71ad406c89459234b4fe4c30835f2a6f79bbde102d6662dc416fc5211b797865",
            omr(10, 3, silent(&[3, 6, 9])),
        ),
        (
            "fuzz/algorithm1",
            "a9e554a2a621522d3f865f29870af52daa7eff275a8c3222f4f5b79fdb4133a3",
            fuzz1(3, Value::ONE, 2, 12, 99),
        ),
        (
            "fuzz/algorithm5",
            "2aefb12f04155f4746f379fbd430795fb53fe308ec5e9c85a00cd4e35966d78d",
            fuzz5(30, 1, 3, Value::ZERO, 1, 8),
        ),
        (
            "mixed/algorithm1-silent-spam-lossy",
            "0e0924b7b751aae54677348046fcab6a6c66cc892b0896bbbaa33d0b642c7f1d",
            mixed1(3, Value::ONE, 77, (77, 6), (500, 77), &[]),
        ),
        (
            "mixed/algorithm5-three-classes",
            "ff868f06b2ed3b1870a0d258044deb0605b9d88d207c79585f3bb4ba18aea291",
            mixed5(),
        ),
        (
            "mixed/algorithm1-exactly-t",
            "892a44b64d7cf27a68ed97299e4f46b83a48e7e6c92d10bfae6388282c30aea2",
            mixed1(4, Value::ZERO, 21, (3, 10), (900, 3), &[7, 8]),
        ),
        // The small-n extension and the facade in each regime, pinned
        // before the small-n actor and Algorithm 5's actives shared one
        // Algorithm 2 core and valid-message hand-off.
        (
            "small-n/none",
            "6e816204073b8987b1f7f33ddfeff7e54d82e4258072c100eeb5bb2ca44dda14",
            small_n(7, 1, ScheduleSpec::default()),
        ),
        // p2 is in the core but hands nothing off (only p0 and p1 do).
        (
            "small-n/silent-core",
            "f6d26880c8a3e1ce7eed1e7998dcc0386469168c29ae01ae5da0ee7b998bdc35",
            small_n(7, 1, silent(&[2])),
        ),
        (
            "small-n/none-t3",
            "2f6eeea54c6925f78dd232ed972fb98625602427f8c441ea648acc4718f2d162",
            small_n(12, 3, ScheduleSpec::default()),
        ),
        // p2 is one of the t + 1 = 4 hand-off senders.
        (
            "small-n/silent-sender-t3",
            "2479f502c9e912ff79a2b607fce8ec816d5654340a42fe427f4b46442c22081e",
            small_n(12, 3, silent(&[2])),
        ),
        (
            "agree/algorithm1",
            "4ccaac5f5d00cec54200ff78dae8ebc9358d4b766d7dec0e9976523a08c9bfe2",
            agreed(5, 2, silent(&[4])),
        ),
        (
            "agree/small-n",
            "8a45626f9a2dbd38f36436d3a449b5512befc8c707a7b2808b7bd6b0aecf6b12",
            agreed(10, 2, silent(&[9])),
        ),
        (
            "agree/algorithm5",
            "09e320ac506692d4360e6dfd37597bc996504e0b63cf3f7c152035c78a7e80d8",
            agreed(30, 1, silent(&[3])),
        ),
    ];
    let moved: Vec<&str> = rows
        .iter()
        .filter(|(_, pinned, got)| pinned != got)
        .map(|(name, _, _)| *name)
        .collect();
    assert!(moved.is_empty(), "rows whose run moved: {moved:?}");
}
