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
//! the crypto counters equal the old payload's. The `algorithm2/*`,
//! `small-n/*` and `agree/small-n` rows were re-pinned when
//! `Algo2Actor` stopped verifying each chain twice: only the crypto
//! counters moved. The `algorithm5/*`, `fuzz/algorithm5`,
//! `mixed/algorithm5-three-classes` and `agree/algorithm5` rows were
//! re-pinned by the same change and by `Msg5` charging each signature at
//! its scheme's encoded length instead of 40 bytes: only the crypto
//! counters and the byte counts moved. Every `algorithm1/*` row but
//! `silent-transmitter`, and the `algorithm2/*`, `algorithm5/*`, `ic/*`,
//! `algorithm1-multi/*`, `fuzz/*`, `mixed/*`, `small-n/*` and `agree/*`
//! rows, were re-pinned when every BA instance began carrying its keys,
//! so that every chain is verified at the phase barrier: only the crypto
//! counters moved. The `algorithm5/*`, `ic/*`, `fuzz/algorithm5`,
//! `mixed/algorithm5-three-classes` and `agree/algorithm5` rows also
//! moved in their byte counts, when grid items and `ic` messages began
//! charging each signature at its scheme's encoded length. The
//! `ic/equivocate-own-instance` row was re-pinned when a faulty `ic`
//! processor began running `common::chain_adversary`'s split transmitter
//! in its own instance, signing each split value once rather than once
//! per recipient: decisions, the correct set and `Metrics` without crypto
//! are unchanged, and hashes went 300 → 264, tag operations 210 → 192,
//! signature checks 137 → 129 and stamp misses 71 → 63 (hits stay 54).
//!
//! Every row but `ds/silent-transmitter` and
//! `algorithm1/silent-transmitter` was re-pinned when a chain's full check
//! stopped hashing the digest no signature covers (L hashes, not L + 1), a
//! barrier pass began hashing each chain seed once, and the `Fast` tag
//! became word-wise: decisions, the correct set and every `Metrics` field
//! but the hash counts (per phase and in total) are unchanged. Total
//! hashes, old → new: `ds/none` 68 → 56; `ds/equivocate` 200 → 170;
//! `ds/silent-relays` 88 → 72; `algorithm1/none` 68 → 56;
//! `algorithm1/equivocate` 88 → 76; `algorithm1/withhold` 148 → 136;
//! `algorithm1/crashed-relays` 8 → 7; `algorithm2/none` 181 → 162;
//! `algorithm2/silent` 85 → 75; `algorithm2/crash-after-commit` 176 → 154;
//! `algorithm2/wrong-value-gossip` 150 → 131; `algorithm3/none` 219 → 191;
//! `algorithm3/silent-roots` 177 → 146; `algorithm3/lying-roots` 241 → 204;
//! `algorithm3/selective-roots` 242 → 205; `algorithm3/silent-members` 182
//! → 150; `algorithm3/silent-actives` 175 → 155; `algorithm5/none` 2528 →
//! 2486; `algorithm5/silent-passives` 8666 → 8607;
//! `algorithm5/silent-tree-roots` 26259 → 26066;
//! `algorithm5/withholding-tree-roots` 2678 → 2627;
//! `algorithm5/silent-actives` 1188 → 1157; `ic/none` 144 → 108;
//! `ic/silent` 64 → 48; `ic/equivocate-own-instance` 264 → 201;
//! `algorithm1-multi/none` 28 → 16; `algorithm1-multi/rainbow` 78 → 56;
//! `algorithm1-multi/silent-relays` 20 → 12; `om/none` 178 → 107;
//! `om/equivocate` 182 → 122; `om/flipping-relays` 368 → 284;
//! `om/silent-relays` 898 → 588; `fuzz/algorithm1` 471 → 427;
//! `fuzz/algorithm5` 718 → 625; `mixed/algorithm1-silent-spam-lossy` 121 →
//! 104; `mixed/algorithm5-three-classes` 853 → 726;
//! `mixed/algorithm1-exactly-t` 259 → 237; `small-n/none` 59 → 52;
//! `small-n/silent-core` 36 → 32; `small-n/none-t3` 181 → 162;
//! `small-n/silent-sender-t3` 146 → 130; `agree/algorithm1` 38 → 32;
//! `agree/small-n` 114 → 101; `agree/algorithm5` 851 → 803.

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
    let o = RunOptions::new().with_schedule(schedule).with_seed(seed);
    digest(&ic::run(n, t, &vals, o.with_scheme(SchemeKind::Fast)).outcome)
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
            "2aa5899867a95f0b4494034ac240598e6a6d5da123c15ea066d9086258f3c4c4",
            ds(7, 2, Variant::Broadcast, ScheduleSpec::default()),
        ),
        (
            "ds/silent-transmitter",
            "b508af6bba0ddf7c4545e8a8d99a1c9bfe42d19e4e7a7ce2df80b80407bbbf5d",
            ds(7, 2, Variant::Broadcast, silent(&[0])),
        ),
        (
            "ds/equivocate",
            "da5479da3edb29c1d18daca93f65e59ab36d11c8d809b43da93ae2134ed0c22b",
            ds(9, 3, Variant::Relay, equivocate(&[0], &[1, 2, 3, 4])),
        ),
        (
            "ds/silent-relays",
            "136e07c303b154a086527f56628f5ce4b03cb35d82e15442f2f768b49be053f4",
            ds(12, 3, Variant::Relay, silent(&[1, 2, 3])),
        ),
        (
            "algorithm1/none",
            "4dd9f3f3fd099e73d0ae19a588cdd26f0d3e016e17bb25d35a2157f088b4e93f",
            a1(3, Value::ONE, ScheduleSpec::default()),
        ),
        (
            "algorithm1/silent-transmitter",
            "2cee26ffdcc613b8719ea5d24a46c4050ac2abf1cf521b3f650982d193c0f923",
            a1(3, Value::ONE, silent(&[0])),
        ),
        (
            "algorithm1/equivocate",
            "f9ee70dcac98b048edd12f7ea4260510aa0b3fc045e390b15f92dd80845aa00f",
            a1(3, Value::ONE, equivocate(&[0], &[1, 4])),
        ),
        (
            "algorithm1/withhold",
            "756a9215b7bd7df633e4eff46c538cf9990997d5bcc2a429367e148b0e152714",
            a1(
                4,
                Value::ONE,
                each(&[0, 1, 5, 2], FaultBehavior::Withhold { release: 4 }),
            ),
        ),
        (
            "algorithm1/crashed-relays",
            "93507c97b664c30bf203fb576bcc5c7273e94cc4167c8f8a6713eb6d89807406",
            a1(3, Value::ZERO, silent(&[1, 4, 6])),
        ),
        (
            "algorithm2/none",
            "ea6d93febfa29d9c7785adfc21f39f245c15a9873a22783e4349dfcda2361bc1",
            a2(3, ScheduleSpec::default()),
        ),
        (
            "algorithm2/silent",
            "71801dc4fbf4fca5c273bc5df32512ef65b7f8be39019016b91a8106b1387edb",
            a2(3, silent(&[1, 3, 5])),
        ),
        (
            "algorithm2/crash-after-commit",
            "516cb21942be299971d33f1e9ba99af73d38e1823c9290ad4ecf4c78a479b37c",
            // Crash at t + 4, once the Algorithm 1 prefix has committed.
            a2(4, each(&[2, 4, 7], FaultBehavior::CrashAt { phase: 4 + 4 })),
        ),
        (
            "algorithm2/wrong-value-gossip",
            "6f51ccc4441a2addba4ee4b786607e3d69f8f7c886aa74ed0da3c451c60310f2",
            a2(3, each(&[2, 5], lie0.clone())),
        ),
        (
            "algorithm3/none",
            "2159b06319d655eb1ed74db9a3fb78c5048e4a05b4037e060076f884542280d3",
            a3(20, 2, 4, ScheduleSpec::default()),
        ),
        (
            "algorithm3/silent-roots",
            "2bc5e8619f22a1bc80e3d2b08fb81d05e5bfb9073547e7cc7a6a9a22036fc74f",
            a3(
                20,
                2,
                4,
                ScheduleSpec::each([0, 2].map(|g| group_root(2, 4, g)), FaultBehavior::Silent),
            ),
        ),
        (
            "algorithm3/lying-roots",
            "24fcbc3986cd630f1718dc46e5c3260bb1a00afaeaae38f94b9784730c212e41",
            a3(
                20,
                2,
                4,
                ScheduleSpec::each([1, 2].map(|g| group_root(2, 4, g)), lie0.clone()),
            ),
        ),
        (
            "algorithm3/selective-roots",
            "534d64357ce06b56fd2c895fe90fe9ab915715b725c5a5847cf650d989b39551",
            a3(24, 2, 5, selective_roots(24, 2, 5, &[0, 1])),
        ),
        (
            "algorithm3/silent-members",
            "e8618ebaa327837d893ad60471e293604d68252d68511d276db024566752b3a2",
            a3(16, 2, 4, silent(&[6, 10])),
        ),
        (
            "algorithm3/silent-actives",
            "8c4cc063adf2e35bb9da76f1b0808284362aad4ae81c3a7dafb7110013b9b553",
            a3(20, 2, 4, silent(&[1, 3])),
        ),
        (
            "algorithm5/none",
            "bd58b15925de77bc8e3df5e77f0dc082cc4be3ba0de572c31164c5e3f774f365",
            a5(30, 1, 7, ScheduleSpec::default()),
        ),
        (
            "algorithm5/silent-passives",
            "9d28f9c763c1be2a7eaf9a94a4d8a52c1137bf16a3250ac0d470c8e69c9f8beb",
            a5(46, 2, 7, silent(&[17, 30])),
        ),
        (
            "algorithm5/silent-tree-roots",
            "a5522da8c28736a9a034de9d621a1404a5d5109ecb9cebf90ac43fde96a711b3",
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
            "f18209713abf3dd9c3d4197481eb70dabf73ff863c54bea3962cadfbc86e882c",
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
            "2e949404219fdae3c1e924c615363e8f5cafe3a19d49f8be9d949cbac159b73c",
            a5(24, 1, 3, silent(&[2])),
        ),
        (
            "ic/none",
            "6242e002102fc79e79759af61257e9446bb91bae0cf208c159e5c10db59e38b4",
            icr(6, 2, ScheduleSpec::default(), 1),
        ),
        (
            "ic/silent",
            "85435e23b87a704883c259b08cc7f9250d5d5c8b1ade367cd03a3e5a293034dc",
            icr(6, 2, silent(&[2, 4]), 3),
        ),
        (
            "ic/equivocate-own-instance",
            "e28649786c02457dc2aa13eee3c21ed765d482b36f32ae8d1e97fd15aeb3f28a",
            icr(7, 2, equivocate(&[1, 5], &odd(7)), 7),
        ),
        (
            "algorithm1-multi/none",
            "e5950ef700ea0e932f7943938cd558492c79c38e39bbf2399a0b6fb80b2779b8",
            multi(3, Value(42), ScheduleSpec::default(), 1),
        ),
        (
            "algorithm1-multi/rainbow",
            "f4c0a6028a14df71a4962cf8c4387b5abd81b4693420af3f7bfaa6c25f4994ef",
            multi(3, Value(42), equivocate(&[0], &[1, 2, 3, 4, 5, 6]), 3),
        ),
        (
            "algorithm1-multi/silent-relays",
            "09488967dacf070467cac2d802bda04a926e2c67f0e414d368812f255a1eec95",
            multi(3, Value(555), silent(&[2, 5]), 9),
        ),
        (
            "om/none",
            "b7896580132e9109cf3bc9a7885f229ac0d2ad0e42c8c0750ed02418980e52c1",
            omr(7, 2, ScheduleSpec::default()),
        ),
        (
            "om/equivocate",
            "a66bbe30a37dc27ea8a4204f271858309fc8a855f292a14496eec51cef7d25cb",
            omr(7, 2, equivocate(&[0], &[1, 2, 3])),
        ),
        (
            "om/flipping-relays",
            "169450aa0be67a8c77fc8c02de94835b3cdc07aa5789477717d1fa8709f6c928",
            omr(7, 2, equivocate(&[2, 5], &odd(7))),
        ),
        (
            "om/silent-relays",
            "8a3910b0607823b5392565037d65223eed5b9f9354e048d23fc993f4159cd466",
            omr(10, 3, silent(&[3, 6, 9])),
        ),
        (
            "fuzz/algorithm1",
            "496be005ff6826431ff6b9193e2afd6b0170d1516591a9b001a2b3799b327aaa",
            fuzz1(3, Value::ONE, 2, 12, 99),
        ),
        (
            "fuzz/algorithm5",
            "f4c70bfcca1cf71447b491d88df0ba8a22b22fabeee244e1aaef3494c27384c5",
            fuzz5(30, 1, 3, Value::ZERO, 1, 8),
        ),
        (
            "mixed/algorithm1-silent-spam-lossy",
            "de735a4d9ecbed0134bb16d1cdf5a5af00f9b2b5f2f82d735400ee103621cd23",
            mixed1(3, Value::ONE, 77, (77, 6), (500, 77), &[]),
        ),
        (
            "mixed/algorithm5-three-classes",
            "c702670c7a828ccd7e02da64625468e01f1e3b3c0512d70ec44479eeaf44c72c",
            mixed5(),
        ),
        (
            "mixed/algorithm1-exactly-t",
            "01392aa7ab6e91fb4640243526bde19d5e406d8fe90c671e1200cc07c0952fc3",
            mixed1(4, Value::ZERO, 21, (3, 10), (900, 3), &[7, 8]),
        ),
        // The small-n extension and the facade in each regime, pinned
        // before the small-n actor and Algorithm 5's actives shared one
        // Algorithm 2 core and valid-message hand-off.
        (
            "small-n/none",
            "a39b7a0818863ef3baeb0451e0ecc7a4109de02c3b9cf59eebc2904231beac85",
            small_n(7, 1, ScheduleSpec::default()),
        ),
        // p2 is in the core but hands nothing off (only p0 and p1 do).
        (
            "small-n/silent-core",
            "23ac5726c4b220ef5492728dc73d701a9dc7d1429abc25773ed71ad016fb2cbb",
            small_n(7, 1, silent(&[2])),
        ),
        (
            "small-n/none-t3",
            "b7f58a4ec63a59f0dc1553a63eb2e014b877f2f5168725d3c8b6596dd9c2d41d",
            small_n(12, 3, ScheduleSpec::default()),
        ),
        // p2 is one of the t + 1 = 4 hand-off senders.
        (
            "small-n/silent-sender-t3",
            "165b651cc46a64003aab4e89426562538761141d5511355e764d3344971230a8",
            small_n(12, 3, silent(&[2])),
        ),
        (
            "agree/algorithm1",
            "ee0a73c51233acd6072f5f3dc8b19dbb93be04add068cfff1df35bea91fe4090",
            agreed(5, 2, silent(&[4])),
        ),
        (
            "agree/small-n",
            "d4ddee5aeb82a0484d2c27231198c6202b4ba6685c1f74ce27aa5b0dedfbf66a",
            agreed(10, 2, silent(&[9])),
        ),
        (
            "agree/algorithm5",
            "22475d0607481a5cf8eb161c7c938ea66ab3fe3d3d8a5b957a71d3edb469dc0a",
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
