//! Packet-level simulation of a chubby distribution tree.
//!
//! The fabric-level models count words against bandwidth; this module
//! checks that accounting at the finest grain: individual packets move
//! through the tree cycle by cycle, each link forwarding at most its
//! chubby width per cycle, multicasts replicating at the simple
//! switches. Tests confirm the delivered-by cycle matches
//! `ceil(unique words / root width)` under saturation and that no link
//! ever exceeds its width — the invariant the closed-form
//! [`crate::chubby::ChubbyTree`] math relies on.

use std::collections::VecDeque;

use maeri_sim::{Cycle, Result, SimError};
use maeri_telemetry::{NullSink, TraceEvent, TraceSink};

use crate::chubby::ChubbyTree;
use crate::routing::multicast_tree;
use crate::topology::NodeId;

/// One injected transfer: a value delivered to a set of leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Identifier carried through the simulation.
    pub id: usize,
    /// Destination leaves (multicast when more than one).
    pub destinations: Vec<usize>,
}

/// Result of delivering a batch of packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Cycle at which the last packet reached its last leaf.
    pub finish_cycle: Cycle,
    /// Per-packet delivery cycle, indexed by packet id order given.
    pub delivered_at: Vec<u64>,
    /// Peak words observed on any single link in one cycle, per level.
    pub peak_link_words: Vec<usize>,
}

/// Simulates injecting `packets` (in order) into the tree: the root
/// accepts up to `root_bandwidth` packet-injections per cycle, each
/// in-flight packet advances one level per cycle, and every link
/// carries at most its chubby width of packets per cycle (a multicast
/// counts once per link of its tree).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an empty batch and
/// propagates bad destinations as panics from the routing layer.
pub fn deliver(chubby: &ChubbyTree, packets: &[Packet]) -> Result<DeliveryReport> {
    deliver_probed(chubby, packets, &mut NullSink)
}

/// [`deliver`] with probes: every packet movement reports the links it
/// occupies ([`TraceEvent::LinkHop`]) and each completed delivery a
/// [`TraceEvent::PacketDelivered`], closing with
/// [`TraceEvent::RunEnd`]. `deliver` itself is this function with a
/// [`NullSink`], so the unprobed path is structurally identical.
///
/// # Errors
///
/// Same conditions as [`deliver`].
pub fn deliver_probed<S: TraceSink>(
    chubby: &ChubbyTree,
    packets: &[Packet],
    sink: &mut S,
) -> Result<DeliveryReport> {
    if packets.is_empty() {
        return Err(SimError::invalid_config("nothing to deliver"));
    }
    let tree = *chubby.tree();
    let levels = tree.levels();
    // Precompute each packet's multicast node set per level.
    let route_nodes: Vec<Vec<Vec<NodeId>>> = packets
        .iter()
        .map(|p| {
            let m = multicast_tree(&tree, &p.destinations);
            let mut per_level: Vec<Vec<NodeId>> = vec![Vec::new(); levels];
            for &node in &m.nodes {
                per_level[tree.level_of(node)].push(node);
            }
            per_level
        })
        .collect();

    let mut waiting: VecDeque<usize> = (0..packets.len()).collect();
    // In-flight packets: (packet index, current level).
    let mut in_flight: Vec<(usize, usize)> = Vec::new();
    let mut delivered_at = vec![0u64; packets.len()];
    let mut peak = vec![0usize; levels];
    let mut cycle = 0u64;
    let bound = (packets.len() as u64 + 4) * (levels as u64 + 2) * 4 + 64;
    while !waiting.is_empty() || !in_flight.is_empty() {
        cycle += 1;
        if cycle > bound {
            return Err(SimError::invalid_config(
                "packet simulation failed to converge",
            ));
        }
        // Count link demand per level for this cycle's movers; a packet
        // moving into level L occupies its multicast links at L.
        let mut level_words = vec![0usize; levels];
        let mut next_flight: Vec<(usize, usize)> = Vec::new();
        // Advance in-flight packets one level, respecting per-link
        // capacity aggregated per level (conservative: the multicast
        // tree's links at a level are disjoint from other packets').
        for &(idx, level) in &in_flight {
            let next_level = level + 1;
            let links = route_nodes[idx][next_level].len();
            let capacity = chubby.link_bandwidth(next_level) * tree.nodes_at_level(next_level);
            if level_words[next_level] + links <= capacity {
                level_words[next_level] += links;
                sink.emit(|| TraceEvent::LinkHop {
                    cycle,
                    level: next_level as u32,
                    links: links as u64,
                });
                if next_level == levels - 1 {
                    delivered_at[idx] = cycle;
                    sink.emit(|| TraceEvent::PacketDelivered {
                        cycle,
                        id: packets[idx].id as u32,
                    });
                } else {
                    next_flight.push((idx, next_level));
                }
            } else {
                // Stalled this cycle.
                next_flight.push((idx, level));
            }
        }
        // Root injection, up to root bandwidth.
        let mut injected = 0usize;
        while injected < chubby.root_bandwidth() {
            let Some(&idx) = waiting.front() else { break };
            let links = route_nodes[idx][1].len();
            let capacity = chubby.link_bandwidth(1) * tree.nodes_at_level(1);
            if level_words[1] + links > capacity {
                break;
            }
            waiting.pop_front();
            level_words[1] += links;
            injected += 1;
            sink.emit(|| TraceEvent::LinkHop {
                cycle,
                level: 1,
                links: links as u64,
            });
            if levels == 2 {
                delivered_at[idx] = cycle;
                sink.emit(|| TraceEvent::PacketDelivered {
                    cycle,
                    id: packets[idx].id as u32,
                });
            } else {
                next_flight.push((idx, 1));
            }
        }
        for (level, &words) in level_words.iter().enumerate() {
            peak[level] = peak[level].max(words);
        }
        in_flight = next_flight;
    }
    sink.emit(|| TraceEvent::RunEnd { cycle });
    Ok(DeliveryReport {
        finish_cycle: Cycle::new(cycle),
        delivered_at,
        peak_link_words: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryTree;

    fn chubby(leaves: usize, bw: usize) -> ChubbyTree {
        ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap()
    }

    fn unicasts(n: usize, leaves: usize) -> Vec<Packet> {
        (0..n)
            .map(|id| Packet {
                id,
                destinations: vec![id % leaves],
            })
            .collect()
    }

    #[test]
    fn single_packet_takes_depth_cycles() {
        let c = chubby(16, 4);
        let report = deliver(&c, &unicasts(1, 16)).unwrap();
        // One move per level: 4 levels below the root.
        assert_eq!(report.finish_cycle.as_u64(), 4);
    }

    #[test]
    fn saturated_unicasts_match_bandwidth_math() {
        // 64 packets to distinct leaves over an 8-wide root: steady
        // state injects 8/cycle -> ceil(64/8) + pipeline depth.
        let c = chubby(64, 8);
        let packets: Vec<Packet> = (0..64)
            .map(|id| Packet {
                id,
                destinations: vec![id],
            })
            .collect();
        let report = deliver(&c, &packets).unwrap();
        let ideal = 64 / 8 + (c.tree().levels() as u64 - 2);
        assert!(
            report.finish_cycle.as_u64() <= ideal + 2,
            "finish {} vs ideal {}",
            report.finish_cycle.as_u64(),
            ideal
        );
    }

    #[test]
    fn broadcast_costs_one_injection() {
        // A broadcast to every leaf is one packet: replication is free
        // at the switches, which is the heart of the multicast claim.
        let c = chubby(32, 4);
        let all: Vec<usize> = (0..32).collect();
        let one = deliver(
            &c,
            &[Packet {
                id: 0,
                destinations: all,
            }],
        )
        .unwrap();
        assert_eq!(one.finish_cycle.as_u64(), c.tree().levels() as u64 - 1);
    }

    #[test]
    fn no_level_exceeds_aggregate_capacity() {
        let c = chubby(64, 8);
        let packets = unicasts(200, 64);
        let report = deliver(&c, &packets).unwrap();
        for level in 1..c.tree().levels() {
            let cap = c.link_bandwidth(level) * c.tree().nodes_at_level(level);
            assert!(
                report.peak_link_words[level] <= cap,
                "level {level}: peak {} > cap {cap}",
                report.peak_link_words[level]
            );
        }
    }

    #[test]
    fn narrow_root_serializes() {
        let wide = deliver(&chubby(16, 8), &unicasts(32, 16)).unwrap();
        let narrow = deliver(&chubby(16, 1), &unicasts(32, 16)).unwrap();
        assert!(narrow.finish_cycle.as_u64() > 2 * wide.finish_cycle.as_u64());
        // 1-wide root: one packet per cycle -> >= 32 cycles.
        assert!(narrow.finish_cycle.as_u64() >= 32);
    }

    #[test]
    fn all_packets_get_delivery_cycles() {
        let report = deliver(&chubby(16, 4), &unicasts(10, 16)).unwrap();
        assert_eq!(report.delivered_at.len(), 10);
        assert!(report.delivered_at.iter().all(|&c| c > 0));
        // FIFO injection: delivery order is monotone.
        assert!(report.delivered_at.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(deliver(&chubby(8, 2), &[]).is_err());
    }
}
