//! Distribution-network cost model (Section 3.1).
//!
//! The distribution tree is a binary tree of bufferless simple switches
//! with chubby links near the root and single-cycle traversal from the
//! prefetch buffer to the multiplier switches. Its steady-state cost
//! model is therefore bandwidth-counting:
//!
//! * the prefetch buffer injects at most `root_bandwidth` words/cycle,
//! * a multicast (one value to many switches) costs one injection — the
//!   simple switches replicate it for free,
//! * each multiplier switch accepts at most one word per cycle,
//! * leaf forwarding links move one word per cycle between adjacent
//!   switches, which is what lets a CONV window slide without refetching
//!   overlapping inputs.

use maeri_noc::ChubbyTree;
use maeri_sim::util::ceil_div;
use maeri_sim::Cycle;

/// Bandwidth-counting model of the distribution tree.
///
/// # Example
///
/// ```
/// use maeri::dist::Distributor;
/// use maeri::MaeriConfig;
///
/// let cfg = MaeriConfig::paper_64();
/// let dist = Distributor::new(cfg.distribution_chubby());
/// // 63 distinct weights over an 8-wide root: 8 cycles.
/// assert_eq!(dist.delivery_cycles(63, 1).as_u64(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Distributor {
    chubby: ChubbyTree,
    drop_permille: u16,
    delay_cycles: u16,
}

impl Distributor {
    /// Creates a distributor over the given chubby profile.
    #[must_use]
    pub fn new(chubby: ChubbyTree) -> Self {
        Distributor::degraded(chubby, 0, 0)
    }

    /// Creates a distributor over a faulty tree: a `drop_permille`
    /// fraction of flits is lost and must be retransmitted (modeled in
    /// expectation, deterministically), and every delivery pays an
    /// extra `delay_cycles` of rerouting latency.
    ///
    /// # Panics
    ///
    /// Panics if `drop_permille >= 1000` — a tree that drops every flit
    /// delivers nothing (callers validate via
    /// [`crate::fault::FaultSpec::validate`]).
    #[must_use]
    pub fn degraded(chubby: ChubbyTree, drop_permille: u16, delay_cycles: u16) -> Self {
        assert!(
            drop_permille < 1000,
            "a distribution tree dropping every flit delivers nothing"
        );
        Distributor {
            chubby,
            drop_permille,
            delay_cycles,
        }
    }

    /// Words per cycle at the prefetch buffer.
    #[must_use]
    pub fn bandwidth(&self) -> usize {
        self.chubby.root_bandwidth()
    }

    /// Inflates a delivery by the expected retransmission overhead of
    /// dropped flits, plus the fixed rerouting delay. Zero-cycle
    /// deliveries stay free.
    fn derate(&self, cycles: u64) -> u64 {
        if cycles == 0 {
            return 0;
        }
        let resent = ceil_div(cycles * 1000, 1000 - u64::from(self.drop_permille));
        resent + u64::from(self.delay_cycles)
    }

    /// Cycles to deliver `unique_words` distinct values when the most
    /// heavily loaded multiplier switch receives `max_per_leaf` of them.
    ///
    /// Both limits apply: the root can inject only `bandwidth()` words
    /// per cycle, and each leaf FIFO accepts one word per cycle. On a
    /// degraded tree ([`Distributor::degraded`]) the total is further
    /// inflated by retransmissions and rerouting delay.
    #[must_use]
    pub fn delivery_cycles(&self, unique_words: u64, max_per_leaf: u64) -> Cycle {
        if unique_words == 0 {
            return Cycle::ZERO;
        }
        let by_root = ceil_div(unique_words, self.bandwidth() as u64);
        Cycle::new(self.derate(by_root.max(max_per_leaf)))
    }

    /// Cycles for a multicast round: `unique_words` distinct values,
    /// each replicated to any number of destinations. Replication is
    /// free; only unique injections count (and the per-leaf limit of the
    /// widest destination).
    #[must_use]
    pub fn multicast_cycles(&self, unique_words: u64) -> Cycle {
        self.delivery_cycles(unique_words, 1)
    }

    /// [`Distributor::delivery_cycles`] that additionally reports the
    /// delivery to a telemetry sink as one [`DistDelivery`] event
    /// (a no-op for a disabled sink).
    ///
    /// [`DistDelivery`]: maeri_telemetry::TraceEvent::DistDelivery
    pub fn delivery_cycles_probed<S: maeri_telemetry::TraceSink>(
        &self,
        unique_words: u64,
        max_per_leaf: u64,
        sink: &mut S,
    ) -> Cycle {
        let cycles = self.delivery_cycles(unique_words, max_per_leaf);
        sink.emit(|| maeri_telemetry::TraceEvent::DistDelivery {
            unique_words,
            cycles: cycles.as_u64(),
        });
        cycles
    }

    /// [`Distributor::multicast_cycles`] with a [`DistDelivery`] probe.
    ///
    /// [`DistDelivery`]: maeri_telemetry::TraceEvent::DistDelivery
    pub fn multicast_cycles_probed<S: maeri_telemetry::TraceSink>(
        &self,
        unique_words: u64,
        sink: &mut S,
    ) -> Cycle {
        self.delivery_cycles_probed(unique_words, 1, sink)
    }

    /// SRAM reads charged for a delivery: one read per unique word (a
    /// multicast reads its value once).
    #[must_use]
    pub fn sram_reads(&self, unique_words: u64) -> u64 {
        unique_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaeriConfig;

    fn dist(bw: usize) -> Distributor {
        let cfg = MaeriConfig::builder(64)
            .distribution_bandwidth(bw)
            .build()
            .unwrap();
        Distributor::new(cfg.distribution_chubby())
    }

    #[test]
    fn root_bandwidth_limits() {
        let d = dist(8);
        assert_eq!(d.delivery_cycles(64, 1).as_u64(), 8);
        assert_eq!(d.delivery_cycles(65, 1).as_u64(), 9);
        assert_eq!(d.delivery_cycles(1, 1).as_u64(), 1);
        assert_eq!(d.delivery_cycles(0, 0).as_u64(), 0);
    }

    #[test]
    fn leaf_port_limits() {
        let d = dist(64);
        // 16 words all to one switch: 16 cycles even with a wide root.
        assert_eq!(d.delivery_cycles(16, 16).as_u64(), 16);
        // Spread out, the root width dominates.
        assert_eq!(d.delivery_cycles(16, 1).as_u64(), 1);
    }

    #[test]
    fn multicast_counts_unique_words_once() {
        let d = dist(8);
        // Fig. 8 stage 2.1: four weights multicast to every VN cost
        // one injection each.
        assert_eq!(d.multicast_cycles(4).as_u64(), 1);
        assert_eq!(d.sram_reads(4), 4);
    }

    #[test]
    fn narrow_tree_is_slower() {
        let wide = dist(8).multicast_cycles(56).as_u64();
        let narrow = dist(2).multicast_cycles(56).as_u64();
        assert_eq!(wide, 7);
        assert_eq!(narrow, 28);
    }

    #[test]
    fn degraded_tree_pays_retransmission_and_delay() {
        let cfg = MaeriConfig::builder(64)
            .distribution_bandwidth(8)
            .build()
            .unwrap();
        let clean = Distributor::new(cfg.distribution_chubby());
        // 10% drops: 8 cycles of traffic -> ceil(8000/900) = 9, +2 delay.
        let flaky = Distributor::degraded(cfg.distribution_chubby(), 100, 2);
        assert_eq!(clean.delivery_cycles(64, 1).as_u64(), 8);
        assert_eq!(flaky.delivery_cycles(64, 1).as_u64(), 11);
        // Zero traffic stays free even with a rerouting delay.
        assert_eq!(flaky.delivery_cycles(0, 0).as_u64(), 0);
        // A zero-rate degraded tree is exactly the clean one.
        assert_eq!(
            Distributor::degraded(cfg.distribution_chubby(), 0, 0),
            clean
        );
    }

    #[test]
    #[should_panic(expected = "delivers nothing")]
    fn total_drop_rate_rejected() {
        let cfg = MaeriConfig::builder(64).build().unwrap();
        let _ = Distributor::degraded(cfg.distribution_chubby(), 1000, 0);
    }
}
