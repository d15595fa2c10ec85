//! Chaos profiles: seeded, per-link unreliability for the wire.
//!
//! A [`ChaosProfile`] describes how the network misbehaves — per-link loss,
//! ack loss, duplication, delay, and whether same-tick arrivals may be
//! reordered. Everything is driven by one `u64` seed through
//! [`SimRng`](ba_crypto::rng::SimRng), so a chaos campaign is exactly
//! reproducible from `(profile, seed)` alone: the `check --chaos` campaigns
//! can replay a failing run and the shrinker can re-execute candidates
//! deterministically.
//!
//! Profiles compose with the fault-schedule vocabulary from `ba-sim`: a
//! [`ScheduleSpec`](ba_sim::schedule::ScheduleSpec) says which *processors*
//! misbehave, a profile says how the *wire* misbehaves underneath all of
//! them. The named profiles ([`ChaosProfile::from_name`]) are what the
//! `check` binary's `--chaos` flag accepts.

use ba_crypto::ProcessId;
use std::collections::BTreeMap;

/// Unreliability parameters for one directed link (or the whole wire).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkChaos {
    /// Chance (in 1/1000) that one transmission attempt is lost.
    pub drop_per_mille: u16,
    /// Chance (in 1/1000) that the receiver's ack is lost — the frame
    /// arrived, but the sender retransmits and the receiver must dedup.
    pub ack_drop_per_mille: u16,
    /// Chance (in 1/1000) that a successful transmission is duplicated on
    /// the wire (the copy arrives one tick later and is deduplicated).
    pub dup_per_mille: u16,
    /// Maximum extra delivery delay in virtual ticks (uniform in
    /// `0..=max_delay_ticks`).
    pub max_delay_ticks: u8,
}

impl LinkChaos {
    /// A perfectly reliable link: first attempt always arrives, ack always
    /// returns, no duplication, no delay.
    pub const RELIABLE: LinkChaos = LinkChaos {
        drop_per_mille: 0,
        ack_drop_per_mille: 0,
        dup_per_mille: 0,
        max_delay_ticks: 0,
    };

    /// A link that loses every attempt — retransmission cannot save it, so
    /// the sender exhausts its budget and the link is reported failed.
    pub fn dead() -> LinkChaos {
        LinkChaos {
            drop_per_mille: 1000,
            ..LinkChaos::RELIABLE
        }
    }

    /// Whether this link never misbehaves (no RNG draws are consumed).
    pub fn is_reliable(&self) -> bool {
        *self == LinkChaos::RELIABLE
    }
}

/// A seeded description of how the whole wire misbehaves.
#[derive(Clone, Debug)]
pub struct ChaosProfile {
    /// Seed driving every probabilistic decision the wire makes.
    pub seed: u64,
    /// Default behaviour of every link.
    pub base: LinkChaos,
    /// Whether frame copies arriving in the same virtual tick may be
    /// delivered in shuffled order.
    pub reorder: bool,
    overrides: BTreeMap<(ProcessId, ProcessId), LinkChaos>,
}

impl ChaosProfile {
    /// The names accepted by [`ChaosProfile::from_name`], in the order
    /// `check --chaos` lists them.
    pub const NAMES: &'static [&'static str] = &["reliable", "jitter", "lossy", "stress"];

    /// A perfectly reliable wire — the profile the equivalence harness uses
    /// to prove the runtime matches the lock-step engine byte-for-byte.
    pub fn reliable() -> Self {
        ChaosProfile {
            seed: 0,
            base: LinkChaos::RELIABLE,
            reorder: false,
            overrides: BTreeMap::new(),
        }
    }

    /// Delay and reordering but no loss: every frame arrives on the first
    /// attempt, just not when (or in the order) it was sent.
    pub fn jitter(seed: u64) -> Self {
        ChaosProfile {
            seed,
            base: LinkChaos {
                max_delay_ticks: 3,
                ..LinkChaos::RELIABLE
            },
            reorder: true,
            overrides: BTreeMap::new(),
        }
    }

    /// Moderate loss in both directions plus mild delay — recoverable by
    /// the retransmission budget in the overwhelming majority of frames.
    pub fn lossy(seed: u64, drop_per_mille: u16) -> Self {
        ChaosProfile {
            seed,
            base: LinkChaos {
                drop_per_mille,
                ack_drop_per_mille: drop_per_mille / 2,
                dup_per_mille: 0,
                max_delay_ticks: 1,
            },
            reorder: false,
            overrides: BTreeMap::new(),
        }
    }

    /// Everything at once: loss, ack loss, duplication, delay, reordering.
    pub fn stress(seed: u64) -> Self {
        ChaosProfile {
            seed,
            base: LinkChaos {
                drop_per_mille: 250,
                ack_drop_per_mille: 150,
                dup_per_mille: 100,
                max_delay_ticks: 3,
            },
            reorder: true,
            overrides: BTreeMap::new(),
        }
    }

    /// Resolves a named profile (see [`ChaosProfile::NAMES`]).
    pub fn from_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "reliable" => Some(ChaosProfile::reliable()),
            "jitter" => Some(ChaosProfile::jitter(seed)),
            "lossy" => Some(ChaosProfile::lossy(seed, 300)),
            "stress" => Some(ChaosProfile::stress(seed)),
            _ => None,
        }
    }

    /// The same misbehaviour envelope under a different seed — how the
    /// service layer derives each BA instance's private chaos stream from
    /// one fleet profile (see [`svc::instance_seed`](crate::svc::instance_seed)).
    pub fn reseeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the behaviour of the directed link `from → to`.
    pub fn with_link(mut self, from: ProcessId, to: ProcessId, chaos: LinkChaos) -> Self {
        self.overrides.insert((from, to), chaos);
        self
    }

    /// The behaviour of the directed link `from → to`.
    pub fn link(&self, from: ProcessId, to: ProcessId) -> LinkChaos {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.base)
    }

    /// The largest delay any link may add — what sizes the wire's ring of
    /// arrival buckets.
    pub(crate) fn max_delay_ticks(&self) -> u8 {
        let overrides = self.overrides.values().map(|link| link.max_delay_ticks);
        overrides.fold(self.base.max_delay_ticks, u8::max)
    }

    /// Whether no link ever misbehaves and no reordering happens — the wire
    /// will consume no RNG draws at all.
    pub fn is_reliable(&self) -> bool {
        !self.reorder
            && self.base.is_reliable()
            && self.overrides.values().all(LinkChaos::is_reliable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_resolve() {
        for name in ChaosProfile::NAMES {
            assert!(ChaosProfile::from_name(name, 7).is_some(), "{name}");
        }
        assert!(ChaosProfile::from_name("nope", 7).is_none());
        assert!(ChaosProfile::from_name("reliable", 7)
            .unwrap()
            .is_reliable());
        assert!(!ChaosProfile::from_name("stress", 7).unwrap().is_reliable());
        // Jitter loses nothing but is not "reliable": it reorders.
        let jitter = ChaosProfile::jitter(7);
        assert_eq!(jitter.base.drop_per_mille, 0);
        assert!(!jitter.is_reliable());
    }

    #[test]
    fn link_overrides_take_precedence() {
        let profile =
            ChaosProfile::reliable().with_link(ProcessId(1), ProcessId(3), LinkChaos::dead());
        assert!(profile.link(ProcessId(0), ProcessId(1)).is_reliable());
        assert_eq!(
            profile.link(ProcessId(1), ProcessId(3)).drop_per_mille,
            1000
        );
        // The reverse direction is untouched.
        assert!(profile.link(ProcessId(3), ProcessId(1)).is_reliable());
        assert!(!profile.is_reliable());
    }
}
