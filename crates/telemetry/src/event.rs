//! The probe event vocabulary.

/// One observation from a clocked fabric simulation.
///
/// Events are deliberately small `Copy` values: a probe site builds one
/// inside a closure handed to [`crate::TraceSink::emit`], so a disabled
/// sink never even constructs it. Cycle numbers are the simulation's
/// own 1-based clock; lane/switch indices identify virtual neurons and
/// multiplier switches within the run being traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// Words injected at the distribution-tree root this cycle
    /// (a multicast counts once — the simple switches replicate it).
    DistIssue {
        /// Simulation cycle.
        cycle: u64,
        /// Unique words injected.
        words: u64,
    },
    /// A distribution flit was lost on a faulty link and will be
    /// retransmitted; the injection slot is burned.
    FlitDropped {
        /// Simulation cycle.
        cycle: u64,
    },
    /// One closed-form delivery through the distribution tree
    /// (recorded by the bandwidth-counting [`Distributor`] model).
    ///
    /// [`Distributor`]: https://docs.rs/maeri
    DistDelivery {
        /// Distinct values delivered.
        unique_words: u64,
        /// Cycles the delivery cost.
        cycles: u64,
    },
    /// A packet moved into a tree level, occupying `links` links there
    /// (recorded by the packet-level NoC simulation).
    LinkHop {
        /// Simulation cycle.
        cycle: u64,
        /// Tree level entered (1 = just below the root).
        level: u32,
        /// Links of that level occupied by the move.
        links: u64,
    },
    /// A packet reached its last destination leaf.
    PacketDelivered {
        /// Simulation cycle.
        cycle: u64,
        /// Packet id.
        id: u32,
    },
    /// A lane (virtual neuron) sat idle this cycle waiting for inputs —
    /// distribution was the limiter.
    DistStall {
        /// Simulation cycle.
        cycle: u64,
        /// Stalled lane.
        lane: u32,
    },
    /// A lane had a ready wave but the ART entrance was blocked by
    /// collection back-pressure.
    CollectStall {
        /// Simulation cycle.
        cycle: u64,
        /// Blocked lane.
        lane: u32,
    },
    /// A lane fired a reduction wave into the ART pipeline.
    VnReduceStart {
        /// Simulation cycle.
        cycle: u64,
        /// Firing lane.
        lane: u32,
    },
    /// A reduction wave left the ART root; `latency` is the cycles from
    /// firing to collection (pipeline depth plus queueing).
    VnReduceComplete {
        /// Simulation cycle of collection.
        cycle: u64,
        /// Completing lane.
        lane: u32,
        /// Cycles from [`TraceEvent::VnReduceStart`] to collection.
        latency: u64,
    },
    /// A multiplier switch performed one multiply.
    MultFire {
        /// Simulation cycle.
        cycle: u64,
        /// Leaf index of the switch.
        switch_id: u32,
    },
    /// The ART was (re)configured for a run: how much of the adder
    /// fabric the mapping uses.
    ArtConfigured {
        /// Adder switches performing arithmetic.
        active_adders: u64,
        /// Same-level forwarding links activated by the configuration.
        forward_links: u64,
    },
    /// The traced run finished at `cycle` (frame marker).
    RunEnd {
        /// Final simulation cycle.
        cycle: u64,
    },
}

impl TraceEvent {
    /// A stable snake_case tag for counting and display.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::DistIssue { .. } => "dist_issue",
            TraceEvent::FlitDropped { .. } => "flit_dropped",
            TraceEvent::DistDelivery { .. } => "dist_delivery",
            TraceEvent::LinkHop { .. } => "link_hop",
            TraceEvent::PacketDelivered { .. } => "packet_delivered",
            TraceEvent::DistStall { .. } => "dist_stall",
            TraceEvent::CollectStall { .. } => "collect_stall",
            TraceEvent::VnReduceStart { .. } => "vn_reduce_start",
            TraceEvent::VnReduceComplete { .. } => "vn_reduce_complete",
            TraceEvent::MultFire { .. } => "mult_fire",
            TraceEvent::ArtConfigured { .. } => "art_configured",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }

    /// The simulation cycle the event is stamped with, when it has one
    /// (configuration and closed-form events are cycle-free).
    #[must_use]
    pub fn cycle(&self) -> Option<u64> {
        match *self {
            TraceEvent::DistIssue { cycle, .. }
            | TraceEvent::FlitDropped { cycle }
            | TraceEvent::LinkHop { cycle, .. }
            | TraceEvent::PacketDelivered { cycle, .. }
            | TraceEvent::DistStall { cycle, .. }
            | TraceEvent::CollectStall { cycle, .. }
            | TraceEvent::VnReduceStart { cycle, .. }
            | TraceEvent::VnReduceComplete { cycle, .. }
            | TraceEvent::MultFire { cycle, .. }
            | TraceEvent::RunEnd { cycle } => Some(cycle),
            TraceEvent::DistDelivery { .. } | TraceEvent::ArtConfigured { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let events = [
            TraceEvent::DistIssue { cycle: 1, words: 2 },
            TraceEvent::FlitDropped { cycle: 1 },
            TraceEvent::DistDelivery {
                unique_words: 4,
                cycles: 1,
            },
            TraceEvent::LinkHop {
                cycle: 1,
                level: 1,
                links: 2,
            },
            TraceEvent::PacketDelivered { cycle: 3, id: 0 },
            TraceEvent::DistStall { cycle: 1, lane: 0 },
            TraceEvent::CollectStall { cycle: 1, lane: 0 },
            TraceEvent::VnReduceStart { cycle: 1, lane: 0 },
            TraceEvent::VnReduceComplete {
                cycle: 7,
                lane: 0,
                latency: 6,
            },
            TraceEvent::MultFire {
                cycle: 1,
                switch_id: 5,
            },
            TraceEvent::ArtConfigured {
                active_adders: 60,
                forward_links: 3,
            },
            TraceEvent::RunEnd { cycle: 100 },
        ];
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len(), "duplicate event kind tag");
    }

    #[test]
    fn cycle_extraction() {
        assert_eq!(TraceEvent::RunEnd { cycle: 9 }.cycle(), Some(9));
        assert_eq!(
            TraceEvent::ArtConfigured {
                active_adders: 1,
                forward_links: 0
            }
            .cycle(),
            None
        );
        assert_eq!(
            TraceEvent::VnReduceComplete {
                cycle: 12,
                lane: 3,
                latency: 6
            }
            .cycle(),
            Some(12)
        );
    }
}
