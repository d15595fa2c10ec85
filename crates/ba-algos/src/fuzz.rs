//! Chain-aware payload fuzzers: what [`FaultBehavior::Forge`] sends.
//!
//! The paper's adversary can send *anything* — malformed chains, forged
//! signatures, replayed prefixes, wrong domains. These fuzzers generate
//! exactly that traffic (deterministically, per seed). `Forge` compiles
//! into a [`Spammer`] over the fuzzer for the protocol's payload type —
//! [`ChainFuzzer`] through the hook every signature-chain protocol
//! shares, [`Msg5Fuzzer`] through Algorithm 5's — so forged traffic is
//! one more schedule entry that runs, the checker and the shrinker all
//! share.

use crate::algorithm4::SignedItem;
use crate::algorithm5::Msg5;
use crate::common::domains;
use ba_crypto::rng::SimRng;
use ba_crypto::Bytes;
use ba_crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Signature, Signer, Value};
use ba_sim::actor::Actor;
use ba_sim::adversary::{PayloadFuzzer, Spammer};
use ba_sim::schedule::{FaultBehavior, ScheduleSpec};

/// Generates adversarial [`Chain`]s: unsigned, self-signed under random
/// domains/values, forged-signature, over-long, and duplicate-signer
/// chains.
#[derive(Debug)]
pub struct ChainFuzzer {
    signer: Signer,
    kind: SchemeKind,
}

impl ChainFuzzer {
    /// Creates a fuzzer signing (when it signs at all) as the spammer's
    /// own identity — the only signing power a Byzantine processor has.
    pub fn new(signer: Signer, kind: SchemeKind) -> Self {
        ChainFuzzer { signer, kind }
    }

    /// `p`'s [`FaultBehavior::Forge`] on a chain-payload algorithm over
    /// `registry`.
    pub fn spammer(
        registry: &KeyRegistry,
        p: ProcessId,
        seed: u64,
        per_phase: usize,
    ) -> Box<dyn Actor<Chain>> {
        let fuzzer = ChainFuzzer::new(registry.signer(p), registry.kind());
        Box::new(Spammer::new(registry.len(), per_phase, seed, fuzzer))
    }

    fn random_chain(&mut self, rng: &mut SimRng) -> Chain {
        let domain = match rng.range_u32(0, 4) {
            0 => domains::ALG1,
            1 => domains::ALG2,
            2 => domains::DOLEV_STRONG,
            _ => rng.next_u32(),
        };
        let value = Value(rng.range_u64(0, 4));
        let mut chain = Chain::new(domain, value);
        match rng.range_u32(0, 5) {
            0 => {} // unsigned
            1 => {
                chain.sign_and_append(&self.signer);
            }
            2 => {
                // Forged signature claiming a random identity.
                let fake = ProcessId(rng.range_u32(0, 16));
                chain = with_forged(&chain, fake, self.kind);
            }
            3 => {
                // Over-long self-signed chain (duplicate signer).
                for _ in 0..rng.range_u32(2, 6) {
                    chain.sign_and_append(&self.signer);
                }
            }
            _ => {
                chain.sign_and_append(&self.signer);
                chain = chain.truncated(0);
            }
        }
        chain
    }
}

/// `chain` extended by a [`Signature::forged`] claiming `signer` under
/// `kind`: what a processor without `signer`'s key can append. A chain
/// only takes a signature its signer made, so the forgery goes in through
/// the decode path: encode, splice, re-decode.
pub(crate) fn with_forged(chain: &Chain, signer: ProcessId, kind: SchemeKind) -> Chain {
    let mut enc = ba_crypto::wire::Encoder::new();
    chain.encode(&mut enc);
    let mut raw = enc.finish().to_vec();
    let off = 4 + 8;
    let count = u32::from_be_bytes(raw[off..off + 4].try_into().expect("u32"));
    raw[off..off + 4].copy_from_slice(&(count + 1).to_be_bytes());
    let mut enc = ba_crypto::wire::Encoder::new();
    Signature::forged(signer, kind).encode(&mut enc);
    raw.extend_from_slice(&enc.finish());
    Chain::decode(&mut ba_crypto::wire::Decoder::new(&raw)).expect("crafted buffer decodes")
}

impl PayloadFuzzer<Chain> for ChainFuzzer {
    fn next(&mut self, rng: &mut SimRng, _phase: usize, _target: ProcessId) -> Chain {
        self.random_chain(rng)
    }
}

/// Generates adversarial [`Msg5`] payloads (chains, activations with
/// garbage proofs, malformed grid messages).
#[derive(Debug)]
pub struct Msg5Fuzzer {
    chains: ChainFuzzer,
}

impl Msg5Fuzzer {
    /// Creates the fuzzer.
    pub fn new(signer: Signer, kind: SchemeKind) -> Self {
        Msg5Fuzzer {
            chains: ChainFuzzer::new(signer, kind),
        }
    }

    /// `p`'s [`FaultBehavior::Forge`] on Algorithm 5 over `registry`.
    pub fn spammer(
        registry: &KeyRegistry,
        p: ProcessId,
        seed: u64,
        per_phase: usize,
    ) -> Box<dyn Actor<Msg5>> {
        let fuzzer = Msg5Fuzzer::new(registry.signer(p), registry.kind());
        Box::new(Spammer::new(registry.len(), per_phase, seed, fuzzer))
    }
}

impl PayloadFuzzer<Msg5> for Msg5Fuzzer {
    fn next(&mut self, rng: &mut SimRng, phase: usize, target: ProcessId) -> Msg5 {
        match rng.range_u32(0, 3) {
            0 => Msg5::Chain(self.chains.next(rng, phase, target)),
            1 => {
                let proof: Vec<SignedItem> = (0..rng.range_u32(0, 3))
                    .map(|_| {
                        let len = rng.range_usize(0, 16);
                        SignedItem::new(
                            rng.next_u64(),
                            Bytes::from(rng.bytes(len)),
                            &self.chains.signer,
                        )
                    })
                    .collect();
                Msg5::Activate {
                    valid: self.chains.next(rng, phase, target),
                    proof,
                }
            }
            _ => Msg5::Grid(crate::algorithm4::GridMsg::Row(
                (0..rng.range_u32(0, 4))
                    .map(|_| {
                        SignedItem::new(
                            rng.next_u64(),
                            Bytes::from_static(b"junk"),
                            &self.chains.signer,
                        )
                    })
                    .collect(),
            )),
        }
    }
}

/// The spam scenario: the top `count` of `n` processors forge
/// `per_phase` payloads a phase, processor `p` seeded with `seed ^ p`.
pub fn spammers(n: usize, count: usize, per_phase: usize, seed: u64) -> ScheduleSpec {
    ScheduleSpec {
        faults: (n - count..n)
            .map(|p| {
                let seed = seed ^ p as u64;
                (
                    ProcessId(p as u32),
                    FaultBehavior::Forge { seed, per_phase },
                )
            })
            .collect(),
        link_drops: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algorithm1, algorithm1_multi, algorithm5, AlgoReport, RunOptions};
    use ba_sim::AgreementViolation;

    fn algorithm1_spam(
        t: usize,
        value: Value,
        count: usize,
        per_phase: usize,
        seed: u64,
    ) -> Result<AlgoReport<Chain>, AgreementViolation> {
        let options = RunOptions {
            schedule: spammers(2 * t + 1, count, per_phase, seed),
            seed,
            scheme: SchemeKind::Fast,
            ..Default::default()
        };
        algorithm1::run(t, value, options)
    }

    #[test]
    fn algorithm1_survives_chain_spam() {
        for t in [2usize, 4] {
            for count in 1..=t.min(2) {
                let r = algorithm1_spam(t, Value::ONE, count, 8, 31).unwrap();
                assert_eq!(r.verdict.agreed, Some(Value::ONE), "t={t} spammers={count}");
                assert!(r.outcome.metrics.messages_by_faulty > 0);
            }
        }
    }

    #[test]
    fn algorithm1_spam_cannot_fake_value_one() {
        // Transmitter honestly sends 0; spammers push garbage 1-chains.
        let r = algorithm1_spam(3, Value::ZERO, 2, 10, 7).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ZERO));
    }

    #[test]
    fn algorithm1_multi_survives_chain_spam() {
        for t in [2usize, 3] {
            let options = RunOptions {
                schedule: spammers(2 * t + 1, t, 8, 19),
                seed: 19,
                scheme: SchemeKind::Fast,
                ..Default::default()
            };
            let r = algorithm1_multi::run(t, Value(42), options).unwrap();
            assert_eq!(r.verdict.agreed, Some(Value(42)), "t={t}");
            assert!(r.outcome.metrics.messages_by_faulty > 0);
        }
    }

    #[test]
    fn algorithm5_survives_msg5_spam() {
        let options = RunOptions {
            schedule: spammers(30, 1, 6, 11),
            seed: 11,
            scheme: SchemeKind::Fast,
            ..Default::default()
        };
        let r = algorithm5::run(30, 1, 3, Value::ONE, options).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_algorithm1_fuzz() {
            run_cases(10, 0x63, |gen| {
                let t = gen.usize_in(2, 5);
                let seed = gen.u64();
                let v = gen.u64_in(0, 2);
                let r = algorithm1_spam(t, Value(v), 2, 6, seed).unwrap();
                assert_eq!(r.verdict.agreed, Some(Value(v)));
            });
        }
    }
}
