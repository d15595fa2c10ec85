//! The routing fate of a staged envelope, and the one policy that decides
//! it: scheduled link drops.
//!
//! The phase core ([`crate::engine::PhaseCore`]) stages every envelope an
//! actor sends and routes the staged traffic in actor-id order on its
//! calling thread. An envelope addressed to an existing processor either
//! survives routing ([`Fate::Deliver`]) or matches a scheduled
//! [`LinkDrop`] ([`Fate::Omit`]); [`ScheduledDrops`] is that lookup,
//! compiled from
//! [`ScheduleSpec::link_drops`](crate::schedule::ScheduleSpec). Anything
//! less reliable than that — loss, delay, duplication, reordering — is a
//! wire's business and lives in `ba-net`, which tells the core in what
//! order the survivors arrived.

use crate::schedule::LinkDrop;
use ba_crypto::ProcessId;
use std::collections::BTreeSet;

/// The fate of one staged envelope at the routing barrier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fate {
    /// Deliver at the next phase barrier.
    Deliver,
    /// Suppress: the send still happened but nothing reaches the wire;
    /// accounted under
    /// [`Metrics::omitted_messages`](crate::metrics::Metrics::omitted_messages).
    Omit,
}

/// Suppresses exactly the scheduled `(phase, from, to)` links.
#[derive(Clone, Default, Debug)]
pub struct ScheduledDrops {
    drops: BTreeSet<LinkDrop>,
}

impl ScheduledDrops {
    /// Builds the policy from any collection of link drops.
    pub fn new(drops: impl IntoIterator<Item = LinkDrop>) -> Self {
        ScheduledDrops {
            drops: drops.into_iter().collect(),
        }
    }

    /// Whether any link is scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
    }

    /// Whether any link is scheduled to drop during `phase` (drops order by
    /// phase first, so this is one range query).
    pub fn any_at(&self, phase: usize) -> bool {
        let first = LinkDrop {
            phase,
            from: ProcessId(0),
            to: ProcessId(0),
        };
        self.drops
            .range(first..)
            .next()
            .is_some_and(|d| d.phase == phase)
    }

    /// Decides the fate of the envelope `from → to` staged during `phase`.
    pub fn admit(&self, phase: usize, from: ProcessId, to: ProcessId) -> Fate {
        if self.drops.contains(&LinkDrop { phase, from, to }) {
            Fate::Omit
        } else {
            Fate::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_drops_match_exactly() {
        let t = ScheduledDrops::new([LinkDrop {
            phase: 2,
            from: ProcessId(0),
            to: ProcessId(1),
        }]);
        assert!(!t.is_empty());
        assert_eq!(t.admit(2, ProcessId(0), ProcessId(1)), Fate::Omit);
        assert_eq!(t.admit(1, ProcessId(0), ProcessId(1)), Fate::Deliver);
        assert_eq!(t.admit(2, ProcessId(1), ProcessId(0)), Fate::Deliver);
        assert_eq!(t.admit(2, ProcessId(0), ProcessId(2)), Fate::Deliver);
        assert!(ScheduledDrops::default().is_empty());
        let at: Vec<bool> = (0..4).map(|phase| t.any_at(phase)).collect();
        assert_eq!(at, [false, false, true, false]);
    }
}
