//! Every closed-form bound the paper states, as plain functions.
//!
//! The experiment harness prints these next to measured message and
//! signature counts; the test suites assert that the implementations never
//! exceed the upper bounds and that the lower bounds never exceed the
//! measured traffic of a correct algorithm.

/// Theorem 1: any authenticated Byzantine Agreement algorithm tolerating
/// `t < n − 1` faults has a fault-free history in which correct processors
/// send at least `n(t + 1) / 4` signatures.
pub fn thm1_signature_lower_bound(n: u64, t: u64) -> u64 {
    n * (t + 1) / 4
}

/// Corollary 1: without authentication the Theorem 1 bound applies to the
/// number of messages.
pub fn cor1_message_lower_bound(n: u64, t: u64) -> u64 {
    thm1_signature_lower_bound(n, t)
}

/// Theorem 2: any Byzantine Agreement algorithm has a history in which
/// correct processors send at least `max{⌈(n−1)/2⌉, (1 + t/2)²}` messages.
///
/// The second term is `⌈1 + t/2⌉ · ⌊1 + t/2⌋` in the paper's proof (the
/// `⌊1 + t/2⌋` faulty processors in `B` each receive `⌈1 + t/2⌉` messages).
pub fn thm2_message_lower_bound(n: u64, t: u64) -> u64 {
    let half = n.saturating_sub(1).div_ceil(2);
    let b = 1 + t / 2; // ⌊1 + t/2⌋
    let per = 1 + t.div_ceil(2); // ⌈1 + t/2⌉
    half.max(b * per)
}

/// Theorem 3: Algorithm 1 (`n = 2t + 1`) sends at most `2t² + 2t` messages.
pub fn alg1_max_messages(t: u64) -> u64 {
    2 * t * t + 2 * t
}

/// Theorem 3: Algorithm 1 finishes within `t + 2` phases.
pub fn alg1_phases(t: u64) -> u64 {
    t + 2
}

/// Theorem 4: Algorithm 2 sends at most `5t² + 5t` messages.
pub fn alg2_max_messages(t: u64) -> u64 {
    5 * t * t + 5 * t
}

/// Theorem 4: Algorithm 2 finishes within `3t + 3` phases.
pub fn alg2_phases(t: u64) -> u64 {
    3 * t + 3
}

/// Lemma 1: Algorithm 3 with group size `s` sends at most
/// `2n + 4tn/s + 3t²s` messages.
pub fn alg3_max_messages(n: u64, t: u64, s: u64) -> u64 {
    2 * n + 4 * t * n / s.max(1) + 3 * t * t * s
}

/// Lemma 1: Algorithm 3 with group size `s` runs `t + 2s + 3` phases.
pub fn alg3_phases(t: u64, s: u64) -> u64 {
    t + 2 * s + 3
}

/// Theorem 6: Algorithm 4 over `N = m²` processors sends at most
/// `3(m − 1)m²` messages.
pub fn alg4_max_messages(m: u64) -> u64 {
    3 * (m.saturating_sub(1)) * m * m
}

/// Theorem 6 guarantee: at least `N − 2t` correct processors mutually
/// exchange values.
pub fn alg4_min_successful(n_grid: u64, t: u64) -> u64 {
    n_grid.saturating_sub(2 * t)
}

/// The paper's `α`: the smallest perfect square strictly bigger than `6t`
/// (the number of active processors in Algorithm 5).
pub fn alpha(t: u64) -> u64 {
    let mut root = 1u64;
    while root * root <= 6 * t {
        root += 1;
    }
    root * root
}

/// The tree size Algorithm 5 runs with for Theorem 7's `s ≈ t`: the
/// largest `2^λ − 1` not exceeding `max(t, 1)`.
pub fn alg5_tree_size(t: u64) -> u64 {
    (1 << (t.max(1) + 1).ilog2()) - 1
}

/// Lemma 5: Algorithm 5 with tree size `s` runs at most `3t + 4s + 2`
/// phases (this reproduction's non-overlapping schedule adds `O(log s)`
/// bookkeeping phases; see [`alg5_phases_schedule`]).
pub fn alg5_phases_paper(t: u64, s: u64) -> u64 {
    3 * t + 4 * s + 2
}

/// The exact phase count of this reproduction's Algorithm 5 schedule:
/// `3t + 4` phases of Algorithm 2 plus the active hand-off, then for each
/// block `x = λ..1` one activation phase, `2(l(x) − 1)` collection phases,
/// one report phase and three Algorithm 4 phases, then the single block-0
/// phase. `λ = log₂(s + 1)`.
pub fn alg5_phases_schedule(t: u64, s: u64) -> u64 {
    let lambda = (s + 1).ilog2() as u64;
    let mut phases = 3 * t + 4;
    for x in (1..=lambda).rev() {
        let l = (1u64 << x) - 1;
        phases += 1 + 2 * (l - 1) + 1 + 3;
    }
    phases + 1
}

/// Lemma 5: Algorithm 5 sends `O(t² + nt/s)` messages; this returns the
/// dominant-term envelope `c₁t² + c₂nt/s` with the constants worked out in
/// the paper's accounting (Section 7): `5t² + 5t + (t+1)(α−2t−1)` for the
/// prefix, `3(α−1)α²`-per-block grid traffic amortized over blocks, plus
/// dissemination terms `2α(2b+1)` and `2s(1 + log(2b+1))` summed over
/// trees. The experiments report measured counts against this envelope.
pub fn alg5_message_envelope(n: u64, t: u64, s: u64) -> u64 {
    let a = alpha(t);
    let lambda = ((s + 1).ilog2()) as u64;
    let prefix = 5 * t * t + 5 * t + (t + 1) * (a.saturating_sub(2 * t + 1));
    // Activation traffic: every active may contact every tree root once per
    // block, and block-0 direct sends are bounded by the same term.
    let r = n.saturating_sub(a).div_ceil(s.max(1));
    let activation = a * r * (lambda + 1);
    // Grid traffic: one Algorithm 4 round per block among α actives.
    let grid = (lambda + 1) * 3 * (a.isqrt().saturating_sub(1)) * a;
    // Tree-internal and report traffic (Lemma 4 accounting).
    let trees = 2 * a * (2 * t + r) + 2 * s * (r + 2 * t);
    prefix + activation + grid + trees
}

/// Theorem 5 headline: `O(n + t³)` with `s = 4t` in Algorithm 3.
pub fn thm5_envelope(n: u64, t: u64) -> u64 {
    alg3_max_messages(n, t, 4 * t.max(1))
}

/// Theorem 7 headline: `O(n + t²)` with `s = t` in Algorithm 5.
pub fn thm7_envelope(n: u64, t: u64) -> u64 {
    alg5_message_envelope(n, t, t.max(1))
}

/// Dolev–Strong baseline: at most `2n²` messages (each processor relays at
/// most two distinct values to everyone).
pub fn dolev_strong_max_messages(n: u64) -> u64 {
    2 * n * n
}

/// OM(t) oral-messages baseline: exactly
/// `(n−1) + (n−1)(n−2) + … + (n−1)···(n−t−1)` messages.
pub fn om_messages(n: u64, t: u64) -> u64 {
    let mut total = 0u64;
    let mut term = 1u64;
    for k in 0..=t {
        term = term.saturating_mul(n - 1 - k);
        total = total.saturating_add(term);
    }
    total
}

/// Intro trade-off: Algorithm 3 with `s = ⌈t/α⌉` gives about `t + 3 + t/α`
/// phases... inverted here: for a phase budget multiplier `alpha_knob`,
/// returns the group size realizing the trade-off point.
pub fn tradeoff_group_size(t: u64, alpha_knob: u64) -> u64 {
    t.div_ceil(alpha_knob.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thm1_examples() {
        assert_eq!(thm1_signature_lower_bound(8, 3), 8);
        assert_eq!(thm1_signature_lower_bound(100, 9), 250);
        assert_eq!(cor1_message_lower_bound(100, 9), 250);
    }

    #[test]
    fn thm2_takes_the_max() {
        // Large n, small t: first term dominates.
        assert_eq!(thm2_message_lower_bound(101, 2), 50);
        // Small n, large t: second term dominates. t = 10: 6 * 6 = 36.
        assert_eq!(thm2_message_lower_bound(21, 10), 36);
        // Odd t: ⌊1+3/2⌋·⌈1+3/2⌉ = 2·3 = 6 vs ⌈6/2⌉ = 3.
        assert_eq!(thm2_message_lower_bound(7, 3), 6);
    }

    #[test]
    fn alg_bounds_match_paper_forms() {
        assert_eq!(alg1_max_messages(3), 24);
        assert_eq!(alg1_phases(3), 5);
        assert_eq!(alg2_max_messages(3), 60);
        assert_eq!(alg2_phases(3), 12);
        assert_eq!(alg3_phases(3, 5), 16);
        assert_eq!(alg3_max_messages(100, 3, 5), 200 + 240 + 135);
        assert_eq!(alg4_max_messages(4), 3 * 3 * 16);
    }

    #[test]
    fn alpha_is_smallest_square_above_6t() {
        assert_eq!(alpha(1), 9); // 6*1=6 -> 9
        assert_eq!(alpha(2), 16); // 12 -> 16
        assert_eq!(alpha(4), 25); // 24 -> 25
        assert_eq!(alpha(6), 49); // 36 -> 49 (strictly bigger)
        for t in 1..50 {
            let a = alpha(t);
            let r = a.isqrt();
            assert_eq!(r * r, a);
            assert!(a > 6 * t);
            assert!((r - 1) * (r - 1) <= 6 * t);
        }
    }

    #[test]
    fn alg5_tree_size_is_largest_full_tree_within_t() {
        assert_eq!(alg5_tree_size(0), 1);
        for t in 1..200u64 {
            let s = alg5_tree_size(t);
            assert!(
                (s + 1).is_power_of_two() && s <= t && 2 * s + 1 > t,
                "t={t}"
            );
        }
    }

    #[test]
    fn om_counts() {
        // n=4, t=1: 3 + 3*2 = 9.
        assert_eq!(om_messages(4, 1), 9);
        // n=7, t=2: 6 + 6*5 + 6*5*4 = 156.
        assert_eq!(om_messages(7, 2), 156);
    }

    #[test]
    fn alg5_schedule_is_close_to_paper_count() {
        for t in [1u64, 2, 4, 8] {
            for s in [1u64, 3, 7, 15] {
                let lambda = (s + 1).ilog2() as u64;
                let paper = alg5_phases_paper(t, s);
                let ours = alg5_phases_schedule(t, s);
                assert!(
                    ours <= paper + 3 * lambda + 2,
                    "t={t} s={s}: ours={ours} paper={paper}"
                );
            }
        }
    }

    #[test]
    fn tradeoff_group_size_monotone() {
        assert_eq!(tradeoff_group_size(16, 1), 16);
        assert_eq!(tradeoff_group_size(16, 4), 4);
        assert_eq!(tradeoff_group_size(16, 16), 1);
        assert_eq!(tradeoff_group_size(16, 100), 1);
    }
}
