//! The one-call facade: pick the paper's right algorithm for `(n, t)`.
//!
//! Section 5 of the paper lays out the regime map this module encodes:
//!
//! * `n = 2t + 1` — Algorithm 1 (or Algorithm 2 when transferable proofs
//!   are wanted);
//! * `2t + 1 < n < α` (with `α` the smallest square above `6t`) — "one can
//!   extend the first Algorithm by 1 phase and `(t+1)(n−2t−1) = O(t²)`
//!   messages and still achieve an `O(n + t²)` upper bound": the first
//!   `2t + 1` processors agree, then the first `t + 1` of them hand every
//!   remaining processor a *valid message* (the common value with `t + 1`
//!   signatures, which no faulty coalition can fabricate for another
//!   value). Implemented by [`run_small_n`] with Algorithm 5's own core
//!   and hand-off code.
//! * `n ≥ α` — Algorithm 5 with tree size `s ≈ t` (Theorem 7's
//!   `O(n + t²)`).
//!
//! [`agree`] dispatches accordingly and returns a uniform summary.

use crate::algorithm1::Algo1Params;
use crate::algorithm2::Algo2Actor;
use crate::algorithm5::{self, first_valid_message};
use crate::bounds;
use crate::common::{instance, run_report, AlgoReport, Board, RunOptions};
use ba_crypto::{Chain, KeyRegistry, ProcessId, Signer, Value};
use ba_sim::actor::{Actor, Inbox, Outbox, Payload};
use ba_sim::{AgreementViolation, Metrics, RunVerdict};
use std::sync::Arc;

/// Which algorithm the facade selected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Selected {
    /// `n = 2t + 1`: Algorithm 1.
    Algorithm1,
    /// `2t + 1 < n < α`: the Algorithm 2 + hand-off extension.
    SmallN,
    /// `n ≥ α`: Algorithm 5.
    Algorithm5,
}

/// Uniform result of [`agree`]: what every regime reports whatever its
/// message type (no trace — see [`agree`]).
#[derive(Debug)]
pub struct AgreeReport {
    /// Which algorithm ran.
    pub selected: Selected,
    /// Each processor's decision, by index.
    pub decisions: Vec<Option<Value>>,
    /// Which processors were correct, by index.
    pub correct: Vec<bool>,
    /// The checked agreement verdict.
    pub verdict: RunVerdict,
    /// Traffic accounting.
    pub metrics: Metrics,
}

impl AgreeReport {
    fn new<P: Payload>(selected: Selected, report: AlgoReport<P>) -> Self {
        let outcome = report.outcome;
        AgreeReport {
            selected,
            decisions: outcome.decisions,
            correct: outcome.correct,
            verdict: report.verdict,
            metrics: outcome.metrics,
        }
    }
}

/// A processor of the small-`n` extension: the first `2t + 1` run
/// Algorithm 2; at phase `3t + 4` the first `t + 1` send their valid
/// message to processors `2t + 1 .. n`, who decide on the first valid
/// message received. The core runs the hand-off Algorithm 5's actives
/// run (`Algo2Actor::hand_off`) and decides Algorithm 2's value there.
#[derive(Debug)]
pub struct SmallNActor {
    n: usize,
    t: usize,
    core: Option<Algo2Actor>,
    params: Arc<Algo1Params>,
    decided: Option<Value>,
}

impl SmallNActor {
    /// Creates the actor (`own_value` only for the transmitter).
    pub fn new(
        n: usize,
        t: usize,
        me: ProcessId,
        signer: Signer,
        own_value: Option<Value>,
        params: Arc<Algo1Params>,
        scratch: Arc<Board<Chain>>,
    ) -> Self {
        let core = (me.index() < 2 * t + 1)
            .then(|| Algo2Actor::new(params.clone(), me, signer, own_value, scratch));
        SmallNActor {
            n,
            t,
            core,
            params,
            decided: None,
        }
    }

    /// Total phases: Algorithm 2 plus the hand-off.
    pub fn phases(t: usize) -> usize {
        3 * t + 4
    }
}

impl Actor<Chain> for SmallNActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        let Some(core) = &mut self.core else { return };
        if phase <= 3 * self.t + 3 {
            core.step(phase, inbox, out);
        } else {
            core.hand_off(inbox, 2 * self.t + 1..self.n, |p, valid| out.send(p, valid));
            self.decided = core.decision();
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        if self.core.is_none() {
            let chains = inbox.iter().map(|e| e.payload);
            let valid = first_valid_message(chains, self.t, &self.params.verifier);
            self.decided = valid.map(Chain::value);
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }
}

/// Runs the small-`n` extension (`n ≥ 2t + 1`). The schedule's
/// behaviours are the generic ones (silence, crashes, link drops): the
/// extension maps no protocol-specific fault. `options.trace` is
/// ignored: an [`AgreeReport`] carries no trace.
///
/// # Errors
/// Propagates any [`AgreementViolation`].
///
/// # Panics
/// Panics if `t == 0`, `n < 2t + 1`, or `value` is not binary.
pub fn run_small_n(
    n: usize,
    t: usize,
    value: Value,
    mut options: RunOptions,
) -> Result<AgreeReport, AgreementViolation> {
    assert!(t >= 1 && n > 2 * t, "small-n extension needs n >= 2t + 1");
    assert!(value == Value::ZERO || value == Value::ONE);
    options.trace = false;
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let params = Arc::new(Algo1Params {
        t,
        verifier: registry.verifier(),
    });
    let scratch = Board::new(2 * t + 1);

    let honest = |p: ProcessId| -> Box<dyn Actor<Chain>> {
        Box::new(SmallNActor::new(
            n,
            t,
            p,
            registry.signer(p),
            (p == ProcessId(0)).then_some(value),
            params.clone(),
            scratch.clone(),
        ))
    };
    let dims = (n, t, SmallNActor::phases(t));
    let spec = instance(&options.schedule, dims, &registry, honest, |_, _| None);
    let report = run_report(spec, &options, value)?;
    Ok(AgreeReport::new(Selected::SmallN, report))
}

/// Reaches Byzantine Agreement with the paper's regime-appropriate
/// algorithm (see the module docs), which runs with `options` as given
/// except `trace`, which is ignored: the regimes' traces have different
/// message types, so an [`AgreeReport`] carries none.
///
/// ```
/// use ba_algos::{agree, RunOptions, Selected};
/// use ba_crypto::Value;
///
/// let r = agree(12, 1, Value::ONE, RunOptions::default())?;
/// assert_eq!(r.verdict.agreed, Some(Value::ONE));
/// assert_eq!(r.selected, Selected::Algorithm5); // 12 >= alpha(1) = 9
/// # Ok::<(), ba_sim::AgreementViolation>(())
/// ```
///
/// # Errors
/// Propagates any [`AgreementViolation`].
///
/// # Panics
/// Panics if `t == 0`, `n < 2t + 1`, or `value` is not binary.
pub fn agree(
    n: usize,
    t: usize,
    value: Value,
    mut options: RunOptions,
) -> Result<AgreeReport, AgreementViolation> {
    assert!(t >= 1 && n > 2 * t, "byzantine agreement needs n >= 2t + 1");
    options.trace = false;
    let alpha = bounds::alpha(t as u64) as usize;
    if n == 2 * t + 1 {
        let r = crate::algorithm1::run(t, value, options)?;
        Ok(AgreeReport::new(Selected::Algorithm1, r))
    } else if n < alpha {
        run_small_n(n, t, value, options)
    } else {
        let s = bounds::alg5_tree_size(t as u64) as usize;
        let r = algorithm5::run(n, t, s, value, options)?;
        Ok(AgreeReport::new(Selected::Algorithm5, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::SchemeKind;

    #[test]
    fn small_n_extension_agrees_with_bounded_extra_messages() {
        for t in [1usize, 2, 3] {
            let core = 2 * t + 1;
            for extra in [1usize, 3, 2 * t] {
                let n = core + extra;
                for v in [Value::ZERO, Value::ONE] {
                    let r = run_small_n(n, t, v, RunOptions::default()).unwrap();
                    assert_eq!(r.verdict.agreed, Some(v), "n={n} t={t}");
                    // Algorithm 2 bound plus the hand-off term.
                    let bound = bounds::alg2_max_messages(t as u64)
                        + (t as u64 + 1) * (n as u64 - core as u64);
                    assert!(r.metrics.messages_by_correct <= bound);
                    assert_eq!(r.metrics.phases, 3 * t + 4);
                }
            }
        }
    }

    #[test]
    fn facade_selects_per_regime() {
        let t = 1; // alpha = 9
        let a = agree(3, t, Value::ONE, RunOptions::default()).unwrap();
        assert_eq!(a.selected, Selected::Algorithm1);
        let b = agree(5, t, Value::ONE, RunOptions::default()).unwrap();
        assert_eq!(b.selected, Selected::SmallN);
        let c = agree(20, t, Value::ONE, RunOptions::default()).unwrap();
        assert_eq!(c.selected, Selected::Algorithm5);
        for r in [a, b, c] {
            assert_eq!(r.verdict.agreed, Some(Value::ONE));
        }
    }

    #[test]
    fn facade_message_counts_are_o_n_plus_t_squared() {
        // Across the regime map the counts stay within a uniform
        // c·(n + t²) envelope (the paper's O(n + t²) claim end to end).
        for (n, t) in [(3usize, 1usize), (7, 1), (9, 4), (12, 4), (30, 1), (60, 3)] {
            let r = agree(n, t, Value::ONE, RunOptions::default()).unwrap();
            assert_eq!(r.verdict.agreed, Some(Value::ONE));
            let budget = 30 * (n as u64 + (t * t) as u64) + 200;
            assert!(
                r.metrics.messages_by_correct <= budget,
                "n={n} t={t}: {} > {budget}",
                r.metrics.messages_by_correct
            );
        }
    }

    #[test]
    #[should_panic(expected = "n >= 2t + 1")]
    fn facade_rejects_too_many_faults() {
        let _ = agree(6, 3, Value::ONE, RunOptions::default());
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_facade_always_agrees() {
            run_cases(12, 0x6D, |gen| {
                let t = gen.usize_in(1, 4);
                let extra = gen.usize_in(0, 30);
                let seed = gen.u64();
                let v = gen.u64_in(0, 2);
                let n = 2 * t + 1 + extra;
                let r = agree(
                    n,
                    t,
                    Value(v),
                    RunOptions {
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(r.verdict.agreed, Some(Value(v)));
            });
        }
    }
}
