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
            "f65c8b29fad922f7f98ad34c00b5f914d38a4eabc1318d1deb26d98299af2cd3",
            a1(3, Value::ONE, ScheduleSpec::default()),
        ),
        (
            "algorithm1/silent-transmitter",
            "2cee26ffdcc613b8719ea5d24a46c4050ac2abf1cf521b3f650982d193c0f923",
            a1(3, Value::ONE, silent(&[0])),
        ),
        (
            "algorithm1/equivocate",
            "7ace1ea11cb1607f3dafbcc370f78a219d65916cc00a06c12698a04ec9997c07",
            a1(3, Value::ONE, equivocate(&[0], &[1, 4])),
        ),
        (
            "algorithm1/withhold",
            "4cee68b6db5c721270bb3bb463ebfb4ba4703df1818500e4bea9886db6f9cb2d",
            a1(
                4,
                Value::ONE,
                each(&[0, 1, 5, 2], FaultBehavior::Withhold { release: 4 }),
            ),
        ),
        (
            "algorithm1/crashed-relays",
            "7ed7f3b291101daa46c3bd0fb007d54186a4936e4c7142e8298ece43715c72b8",
            a1(3, Value::ZERO, silent(&[1, 4, 6])),
        ),
        (
            "algorithm2/none",
            "52455ca261567d3ad174f11279d1893d6652709d12b52e061e4bda7bda361a60",
            a2(3, ScheduleSpec::default()),
        ),
        (
            "algorithm2/silent",
            "d6c38e56d999c27225508e4d800fa0c117592a03efa4b286d99361a679400067",
            a2(3, silent(&[1, 3, 5])),
        ),
        (
            "algorithm2/crash-after-commit",
            "29eda92c7cd1fe65f9df1fb31309ffa8efe16b547e8a6aea28e6059fa95a3eae",
            // Crash at t + 4, once the Algorithm 1 prefix has committed.
            a2(4, each(&[2, 4, 7], FaultBehavior::CrashAt { phase: 4 + 4 })),
        ),
        (
            "algorithm2/wrong-value-gossip",
            "8e5d8f6d3d3cd8f2fa27ff7c46ac25d3f33d1d3fcee37d53786a0275c321948b",
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
            "7463bed34328eadfb1a8540351a7e76132d2a7cbb5f1139ed932b63ecd0b02fc",
            a5(30, 1, 7, ScheduleSpec::default()),
        ),
        (
            "algorithm5/silent-passives",
            "263642dfe7c4a434718b05d5dc8669f8403eafe4eca7932ff073b678b036fd96",
            a5(46, 2, 7, silent(&[17, 30])),
        ),
        (
            "algorithm5/silent-tree-roots",
            "85042023fb08623fd54bebea1f42b376ab2f885703dd82997b2765e71f23e9b7",
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
            "b0a5cc4782fb4896bfe909e11b32ccf2afc4af6e216f1b89d01a61a7a0dccd9d",
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
            "3f38e7e13cebdb810d486647ad9cbe0902bd963b8fa7deb1e4973505c064314d",
            a5(24, 1, 3, silent(&[2])),
        ),
        (
            "ic/none",
            "34406bbd779057cab1e0a87cbea9845f2386c69b5f59081585d11f24fd36e62b",
            icr(6, 2, ScheduleSpec::default(), 1),
        ),
        (
            "ic/silent",
            "db62f0dc921bbfe86d26fd11f9123f2a23f7bb06c070a0794a298081327598bc",
            icr(6, 2, silent(&[2, 4]), 3),
        ),
        (
            "ic/equivocate-own-instance",
            "87ec259104eeb574a42eea4ca38567bda05cd32e30ed6ad62b5a24548c0bdf60",
            icr(7, 2, equivocate(&[1, 5], &odd(7)), 7),
        ),
        (
            "algorithm1-multi/none",
            "83911700ba869040114df3213d1afbbd7840c60795fadd55d7b7f03d9fb137a2",
            multi(3, Value(42), ScheduleSpec::default(), 1),
        ),
        (
            "algorithm1-multi/rainbow",
            "0895bc84ab3522310909742d35533125ca9b188f0217a5a2de0e8e74ad8129ff",
            multi(3, Value(42), equivocate(&[0], &[1, 2, 3, 4, 5, 6]), 3),
        ),
        (
            "algorithm1-multi/silent-relays",
            "da44d9b76aaaa40be5c8a0a76d4c364132e77748263cdabe1c97f0d75e53173d",
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
            "59429992bffcc91aee928bcd4acf9556bfd0941558ee1bd0b134c2f5f95742b1",
            fuzz1(3, Value::ONE, 2, 12, 99),
        ),
        (
            "fuzz/algorithm5",
            "4baebc334ce51f739b8771529ea6d536f0fc4b48a778b95235f93dcf49ac724a",
            fuzz5(30, 1, 3, Value::ZERO, 1, 8),
        ),
        (
            "mixed/algorithm1-silent-spam-lossy",
            "e78b21993902827278bef5425dae05ef595ca6b522d749ecdf0ddc9ddf40158c",
            mixed1(3, Value::ONE, 77, (77, 6), (500, 77), &[]),
        ),
        (
            "mixed/algorithm5-three-classes",
            "cf77bea85bfb0c3e2ff0eb2267f051c22ae8f360f58490d0510926bbca40d5c2",
            mixed5(),
        ),
        (
            "mixed/algorithm1-exactly-t",
            "713e02d28f4c93b064dbb84d5609c65ac2270dfbb86b3ff80545a62f7fd3645d",
            mixed1(4, Value::ZERO, 21, (3, 10), (900, 3), &[7, 8]),
        ),
        // The small-n extension and the facade in each regime, pinned
        // before the small-n actor and Algorithm 5's actives shared one
        // Algorithm 2 core and valid-message hand-off.
        (
            "small-n/none",
            "61ed0b40c9ed1dae756c3c5ad402dca312dbbc39d1831adc55be64dbf64ffcbc",
            small_n(7, 1, ScheduleSpec::default()),
        ),
        // p2 is in the core but hands nothing off (only p0 and p1 do).
        (
            "small-n/silent-core",
            "ec563f3abb91cef9be0c92d4e35350e1b688ef01233308a2b1fc9e7673aa8244",
            small_n(7, 1, silent(&[2])),
        ),
        (
            "small-n/none-t3",
            "67f75afebb670347511eac5d5087d6aa47c0b8b47bf567083ddc3cf46a5a4692",
            small_n(12, 3, ScheduleSpec::default()),
        ),
        // p2 is one of the t + 1 = 4 hand-off senders.
        (
            "small-n/silent-sender-t3",
            "4e5783b5f938863b15ec429c57302d5ad13bccaf0f8a8249511becb7a6be00e4",
            small_n(12, 3, silent(&[2])),
        ),
        (
            "agree/algorithm1",
            "fdc6a7a65ebf13ba71cd258c0393906b25934cc9d7b12e1bf1e6cc61227fa8e3",
            agreed(5, 2, silent(&[4])),
        ),
        (
            "agree/small-n",
            "b6fa720690bd16ad4035f252fecfc93f83f63c397ae775cdbe4bb57ae9d33b55",
            agreed(10, 2, silent(&[9])),
        ),
        (
            "agree/algorithm5",
            "ae9f336382dada83cdd8794650807a544db556c18e850012e6a356e686ee0c74",
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
