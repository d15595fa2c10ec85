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
//! counters and the byte counts moved.

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
            "0be347d5742b7226580dec6c53639f40958fa6eb78e35c40094837df6b9c1400",
            a2(3, ScheduleSpec::default()),
        ),
        (
            "algorithm2/silent",
            "f5dedc10e02b0cfc08ee90be4e6cf2043cbf424d3a32eb6fbbf8b4694060ab03",
            a2(3, silent(&[1, 3, 5])),
        ),
        (
            "algorithm2/crash-after-commit",
            "6dfe88b33ef8a744ab9add7b0c3acc820cb042aebf9b436112efd1396785e827",
            // Crash at t + 4, once the Algorithm 1 prefix has committed.
            a2(4, each(&[2, 4, 7], FaultBehavior::CrashAt { phase: 4 + 4 })),
        ),
        (
            "algorithm2/wrong-value-gossip",
            "fb041be0464a335fec9dd571f1eb3c0ff4bf55bf8b3cf82a0a2ec7ac7032adc3",
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
            "904477b19e00b5c79d153083cce63e3759f7a02a0bbcfe39cc586c3f1b224458",
            a5(30, 1, 7, ScheduleSpec::default()),
        ),
        (
            "algorithm5/silent-passives",
            "f149a84f4355bee8dc0095ce399ca5a4cf642b34069ca256d2cb2e3e63efc3e0",
            a5(46, 2, 7, silent(&[17, 30])),
        ),
        (
            "algorithm5/silent-tree-roots",
            "c5417dd80974129c02705ec027971013c719b42c3c1762304e83b10c90f146be",
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
            "0e3315cc65f3adfebde7e1d46505058236858824a57060bd64e3d88a28d6b1b0",
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
            "3c658c03befe666d7711caac54656547501e471bf801b3fa9779b4176ccda101",
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
            "98eb6e712578e958ba0e45fbbbd65fa677741f6ae156728a23488c7776cb6c78",
            fuzz5(30, 1, 3, Value::ZERO, 1, 8),
        ),
        (
            "mixed/algorithm1-silent-spam-lossy",
            "0e0924b7b751aae54677348046fcab6a6c66cc892b0896bbbaa33d0b642c7f1d",
            mixed1(3, Value::ONE, 77, (77, 6), (500, 77), &[]),
        ),
        (
            "mixed/algorithm5-three-classes",
            "f0376df197587b7aa4959da6815c0e25263b109b2c72e77f77f643c5e6dba88e",
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
            "6edf1801e688dcb5c02dc0a28dec8bf9ce5d47c0f273d33cf2cda813bfc8068e",
            small_n(7, 1, ScheduleSpec::default()),
        ),
        // p2 is in the core but hands nothing off (only p0 and p1 do).
        (
            "small-n/silent-core",
            "d9717ea8c5d1dd6c2cbdda22c41060bc2724745a87112461886e81bf1276a234",
            small_n(7, 1, silent(&[2])),
        ),
        (
            "small-n/none-t3",
            "015fa285c87aadc6a38b95e0b0b6b31ba90821f500b41c47a939bc8b42eb6624",
            small_n(12, 3, ScheduleSpec::default()),
        ),
        // p2 is one of the t + 1 = 4 hand-off senders.
        (
            "small-n/silent-sender-t3",
            "45cab396ecc093c22cf2251234a287d6d0cf0e5119d10bcee5f80c3f09ca979d",
            small_n(12, 3, silent(&[2])),
        ),
        (
            "agree/algorithm1",
            "4ccaac5f5d00cec54200ff78dae8ebc9358d4b766d7dec0e9976523a08c9bfe2",
            agreed(5, 2, silent(&[4])),
        ),
        (
            "agree/small-n",
            "fcc4ab49bbff6cbea048de07d1d5df9ca8f1113e0ed54e6e160dac0d984081a4",
            agreed(10, 2, silent(&[9])),
        ),
        (
            "agree/algorithm5",
            "01b18db244cf477459e07f27be84a81c267db824c0953d4f72e0f4b0167751b0",
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
