//! Integration: the crypto substrate's unforgeability contract holds
//! end-to-end — chains survive transport through the simulator, and no
//! combination of replay/truncation/forgery lets a wrong value acquire a
//! valid quorum.

use byzantine_agreement::algos::dolev_strong::{self, DsOptions, Variant};
use byzantine_agreement::algos::{
    agree, algorithm1, algorithm1_multi, algorithm2, algorithm3, algorithm5, domains, ic, om,
    RunOptions, Selected,
};
use byzantine_agreement::crypto::wire::{Decoder, Encoder};
use byzantine_agreement::crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Signature, Value};
use byzantine_agreement::sim::Metrics;

#[test]
fn proofs_survive_serialization_and_reverification() {
    // Run Algorithm 2, serialize every proof, decode, and verify with a
    // fresh verifier over the same registry parameters — the "auditor"
    // path an external consumer would take.
    let t = 3;
    let seed = 77;
    let r = algorithm2::run(
        t,
        Value::ONE,
        RunOptions {
            seed,
            scheme: SchemeKind::Hmac,
            ..Default::default()
        },
    )
    .unwrap();
    let auditor_registry = KeyRegistry::new(2 * t + 1, seed, SchemeKind::Hmac);
    let auditor = auditor_registry.verifier();
    for (i, proof) in r.proofs.iter().enumerate() {
        let proof = proof.as_ref().expect("every correct processor holds one");
        let mut enc = Encoder::new();
        proof.encode(&mut enc);
        let buf = enc.finish();
        let decoded = Chain::decode(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(&decoded, proof);
        assert!(
            algorithm2::is_transferable_proof(
                &decoded,
                Value::ONE,
                ProcessId(i as u32),
                t,
                &auditor
            ),
            "auditor rejects p{i}'s proof"
        );
    }
}

#[test]
fn a_coalition_cannot_assemble_a_wrong_value_quorum() {
    // t faulty processors pool everything they can sign and every
    // manipulation the chain API allows; they still cannot make a chain
    // with t+1 distinct signers on a value no correct processor signed.
    let t = 3;
    let n = 2 * t + 1;
    let registry = KeyRegistry::new(n, 5, SchemeKind::Hmac);
    let coalition: Vec<ProcessId> = (1..=t as u32).map(ProcessId).collect();

    let mut best = Chain::new(domains::ALG2, Value(99));
    for &member in &coalition {
        best.sign_and_append(&registry.signer(member));
    }
    // All coalition members signed; distinct signers = t < t + 1.
    let distinct: std::collections::BTreeSet<ProcessId> = best.signers().collect();
    assert_eq!(distinct.len(), t);
    assert!(best.verify(&registry.verifier()).is_ok());

    // Forging an extra signature fails verification.
    let mut forged = best.clone();
    {
        // Simulate the strongest splice available: copy a *real* signature
        // by an honest processor from a different chain.
        let mut other = Chain::new(domains::ALG2, Value::ONE);
        other.sign_and_append(&registry.signer(ProcessId(6)));
        let mut enc = Encoder::new();
        other.signatures()[0].encode(&mut enc);
        let buf = enc.finish();
        let stolen = Signature::decode(&mut Decoder::new(&buf)).unwrap();
        // No public constructor mutates a chain's signature list, so the
        // splice has to go through encode/decode of a crafted buffer.
        let mut enc = Encoder::new();
        forged.encode(&mut enc);
        let mut raw = enc.finish().to_vec();
        // Bump the signature count and append the stolen signature bytes.
        let count_off = 4 + 8; // domain + value
        let count = u32::from_be_bytes(raw[count_off..count_off + 4].try_into().unwrap());
        raw[count_off..count_off + 4].copy_from_slice(&(count + 1).to_be_bytes());
        let mut enc2 = Encoder::new();
        stolen.encode(&mut enc2);
        raw.extend_from_slice(&enc2.finish());
        forged = Chain::decode(&mut Decoder::new(&raw)).unwrap();
    }
    assert_eq!(forged.len(), t + 1);
    assert!(
        forged.verify(&registry.verifier()).is_err(),
        "spliced honest signature must not verify on the wrong chain"
    );
}

#[test]
fn truncation_cannot_change_a_chain_value() {
    let registry = KeyRegistry::new(5, 1, SchemeKind::Fast);
    let mut chain = Chain::new(domains::ALG2, Value::ONE);
    for p in 0..4u32 {
        chain.sign_and_append(&registry.signer(ProcessId(p)));
    }
    for keep in 1..=4 {
        let t = chain.truncated(keep);
        assert_eq!(t.value(), Value::ONE, "value is under every signature");
        assert!(t.verify(&registry.verifier()).is_ok());
    }
}

#[test]
fn cross_domain_replay_is_rejected() {
    // A signature minted for one protocol domain must not verify when the
    // chain is re-labeled for another.
    let registry = KeyRegistry::new(3, 8, SchemeKind::Hmac);
    let mut alg1_chain = Chain::new(domains::ALG1, Value::ONE);
    alg1_chain.sign_and_append(&registry.signer(ProcessId(0)));
    let mut enc = Encoder::new();
    alg1_chain.encode(&mut enc);
    let mut raw = enc.finish().to_vec();
    raw[..4].copy_from_slice(&domains::ALG2.to_be_bytes());
    let relabeled = Chain::decode(&mut Decoder::new(&raw)).unwrap();
    assert_eq!(relabeled.domain(), domains::ALG2);
    assert!(relabeled.verify(&registry.verifier()).is_err());
}

#[test]
fn every_ba_module_verifies_its_chains_at_the_phase_barrier() {
    // Every BA instance carries its keys and every payload hands the
    // chains it carries to the barrier, so a fault-free run's recipients
    // read stamps: a payload that forgets to hand its chains over shows
    // here as zero stamp hits.
    let opts = || RunOptions::new().with_seed(1).with_scheme(SchemeKind::Fast);
    let ds = |variant| {
        let o = DsOptions::new()
            .with_variant(variant)
            .with_seed(1)
            .with_scheme(SchemeKind::Fast);
        dolev_strong::run(7, 2, Value::ONE, o)
            .unwrap()
            .outcome
            .metrics
    };
    let agreed = |n, t, selected| {
        let r = agree(n, t, Value::ONE, opts()).unwrap();
        assert_eq!(r.selected, selected, "agree at n = {n}, t = {t}");
        r.metrics
    };
    let values: Vec<Value> = (0..6).map(Value).collect();
    let runs: Vec<(&str, Metrics)> = vec![
        ("dolev-strong broadcast", ds(Variant::Broadcast)),
        ("dolev-strong relay", ds(Variant::Relay)),
        (
            "algorithm1",
            algorithm1::run(3, Value::ONE, opts())
                .unwrap()
                .outcome
                .metrics,
        ),
        (
            "algorithm1_multi",
            algorithm1_multi::run(3, Value(42), opts())
                .unwrap()
                .outcome
                .metrics,
        ),
        (
            "algorithm2",
            algorithm2::run(3, Value::ONE, opts())
                .unwrap()
                .report
                .outcome
                .metrics,
        ),
        (
            "algorithm3",
            algorithm3::run(20, 2, 3, Value::ONE, opts())
                .unwrap()
                .outcome
                .metrics,
        ),
        (
            "algorithm5",
            algorithm5::run(30, 1, 7, Value::ONE, opts())
                .unwrap()
                .outcome
                .metrics,
        ),
        ("agree (algorithm 1)", agreed(5, 2, Selected::Algorithm1)),
        ("agree (small n)", agreed(10, 2, Selected::SmallN)),
        ("agree (algorithm 5)", agreed(30, 1, Selected::Algorithm5)),
        ("ic", ic::run(6, 2, &values, opts()).outcome.metrics),
        (
            "om",
            om::run(7, 2, Value::ONE, opts()).unwrap().outcome.metrics,
        ),
    ];
    let unstamped: Vec<&str> = runs
        .iter()
        .filter(|(_, metrics)| metrics.crypto.cache_hits == 0)
        .map(|(name, _)| *name)
        .collect();
    assert!(
        unstamped.is_empty(),
        "no stamp hit, so nothing was verified at the barrier: {unstamped:?}"
    );
}
