//! MAERI fabric configuration.

use maeri_noc::{BinaryTree, ChubbyTree};
use maeri_sim::util::is_pow2;
use maeri_sim::{Result, SimError};

use crate::art::VnRange;
use crate::dist::Distributor;
use crate::fault::{FaultPlan, FaultSpec};

/// Configuration of one MAERI instance.
///
/// Mirrors the knobs of the paper's implementation (Section 5): the
/// number of multiplier switches, the chubby bandwidth at the root of
/// the distribution tree and of the ART, and the depth of the local
/// buffers in each multiplier switch (which bounds folding).
///
/// Use [`MaeriConfig::builder`] to construct one:
///
/// ```
/// use maeri::MaeriConfig;
///
/// let cfg = MaeriConfig::builder(64)
///     .distribution_bandwidth(8)
///     .collection_bandwidth(8)
///     .build()?;
/// assert_eq!(cfg.num_mult_switches(), 64);
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaeriConfig {
    num_mult_switches: usize,
    dist_bandwidth: usize,
    collect_bandwidth: usize,
    ms_local_buffers: usize,
    faults: Option<FaultSpec>,
    // Cached topology, constructed once in `build()` so the accessors
    // below are infallible field reads instead of re-validating
    // constructors.
    tree: BinaryTree,
    dist_chubby: ChubbyTree,
    collect_chubby: ChubbyTree,
}

impl MaeriConfig {
    /// Starts building a configuration with `num_mult_switches` leaves.
    #[must_use]
    pub fn builder(num_mult_switches: usize) -> MaeriConfigBuilder {
        MaeriConfigBuilder {
            num_mult_switches,
            dist_bandwidth: 8,
            collect_bandwidth: 8,
            ms_local_buffers: 4,
            faults: None,
        }
    }

    /// The paper's 64-multiplier evaluation fabric with an 8x chubby
    /// distribution tree (Sections 6.1-6.3).
    #[must_use]
    pub fn paper_64() -> Self {
        MaeriConfig::builder(64)
            .build()
            .expect("paper configuration is valid")
    }

    /// Number of multiplier switches (leaves of both trees).
    #[must_use]
    pub fn num_mult_switches(&self) -> usize {
        self.num_mult_switches
    }

    /// Words per cycle the prefetch buffer injects into the
    /// distribution tree (root chubby bandwidth).
    #[must_use]
    pub fn dist_bandwidth(&self) -> usize {
        self.dist_bandwidth
    }

    /// Words per cycle the ART can deliver back to the prefetch buffer
    /// (root chubby bandwidth of the reduce/collect network).
    #[must_use]
    pub fn collect_bandwidth(&self) -> usize {
        self.collect_bandwidth
    }

    /// Local buffer slots per multiplier switch; a virtual neuron can be
    /// folded at most this many ways (Section 4.8).
    #[must_use]
    pub fn ms_local_buffers(&self) -> usize {
        self.ms_local_buffers
    }

    /// The shared tree skeleton of both networks (cached at build
    /// time; this is an infallible field read).
    #[must_use]
    pub fn tree(&self) -> BinaryTree {
        self.tree
    }

    /// The distribution network's chubby bandwidth profile (cached at
    /// build time; this is an infallible field read).
    #[must_use]
    pub fn distribution_chubby(&self) -> ChubbyTree {
        self.dist_chubby
    }

    /// The ART's chubby bandwidth profile (cached at build time; this
    /// is an infallible field read).
    #[must_use]
    pub fn collection_chubby(&self) -> ChubbyTree {
        self.collect_chubby
    }

    /// Pipeline depth of the ART (adder levels), which bounds the fill
    /// latency of a reduction wave.
    #[must_use]
    pub fn art_depth(&self) -> usize {
        maeri_sim::util::log2(self.num_mult_switches) as usize
    }

    /// The injected fault description, if any.
    #[must_use]
    pub fn faults(&self) -> Option<FaultSpec> {
        self.faults
    }

    /// Materializes the fault plan for this fabric, if faults are
    /// configured. The plan is a pure function of the spec and the
    /// fabric size, so repeated calls agree.
    #[must_use]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults
            .map(|spec| FaultPlan::materialize(spec, self.num_mult_switches))
    }

    /// Maximal contiguous runs of healthy multiplier leaves. Without
    /// faults this is the whole array; the mappers pack virtual neurons
    /// into these spans.
    #[must_use]
    pub fn healthy_spans(&self) -> Vec<VnRange> {
        match self.fault_plan() {
            Some(plan) => plan.healthy_spans(),
            None => vec![VnRange::new(0, self.num_mult_switches)],
        }
    }

    /// The distribution-tree cost model for this fabric, derated by the
    /// configured flit drop/delay faults when present.
    #[must_use]
    pub fn distributor(&self) -> Distributor {
        match self.faults {
            Some(spec) => Distributor::degraded(
                self.distribution_chubby(),
                spec.flit_drop_permille,
                spec.flit_delay_cycles,
            ),
            None => Distributor::new(self.distribution_chubby()),
        }
    }

    /// Validates a virtual-neuron size against the array.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `vn_size` is zero or
    /// exceeds the multiplier count.
    pub fn validate_vn_size(&self, vn_size: usize) -> Result<()> {
        if vn_size == 0 || vn_size > self.num_mult_switches {
            return Err(SimError::invalid_config(format!(
                "vn_size {vn_size} out of range 1..={} (num_mult_switches = {})",
                self.num_mult_switches, self.num_mult_switches
            )));
        }
        Ok(())
    }
}

/// Builder for [`MaeriConfig`].
#[derive(Debug, Clone)]
pub struct MaeriConfigBuilder {
    num_mult_switches: usize,
    dist_bandwidth: usize,
    collect_bandwidth: usize,
    ms_local_buffers: usize,
    faults: Option<FaultSpec>,
}

impl MaeriConfigBuilder {
    /// Sets the distribution-tree root bandwidth (words/cycle).
    #[must_use]
    pub fn distribution_bandwidth(mut self, words_per_cycle: usize) -> Self {
        self.dist_bandwidth = words_per_cycle;
        self
    }

    /// Sets the ART root (collection) bandwidth (words/cycle).
    #[must_use]
    pub fn collection_bandwidth(mut self, words_per_cycle: usize) -> Self {
        self.collect_bandwidth = words_per_cycle;
        self
    }

    /// Sets the per-multiplier-switch local buffer depth.
    #[must_use]
    pub fn ms_local_buffers(mut self, slots: usize) -> Self {
        self.ms_local_buffers = slots;
        self
    }

    /// Injects a deterministic fault description into the fabric.
    #[must_use]
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the multiplier count is
    /// not a power of two >= 4, a bandwidth is zero or not a power of
    /// two within the leaf count, the buffer depth is zero, or a fault
    /// rate is out of range.
    pub fn build(self) -> Result<MaeriConfig> {
        if !is_pow2(self.num_mult_switches) || self.num_mult_switches < 4 {
            return Err(SimError::invalid_config(format!(
                "multiplier switches must be a power of two >= 4, got {}",
                self.num_mult_switches
            )));
        }
        for (label, bw) in [
            ("distribution", self.dist_bandwidth),
            ("collection", self.collect_bandwidth),
        ] {
            if bw == 0 {
                return Err(SimError::invalid_config(format!(
                    "{label} bandwidth must be nonzero (a zero-width link moves no words)"
                )));
            }
            if !is_pow2(bw) || bw > self.num_mult_switches {
                return Err(SimError::invalid_config(format!(
                    "{label} bandwidth must be a power of two <= {}, got {bw}",
                    self.num_mult_switches
                )));
            }
        }
        if self.ms_local_buffers == 0 {
            return Err(SimError::invalid_config(
                "multiplier switches need at least one local buffer slot",
            ));
        }
        if let Some(spec) = self.faults {
            spec.validate()?;
        }
        // Construct the topology once; the checks above guarantee
        // these succeed, and the accessors become plain field reads.
        let tree = BinaryTree::with_leaves(self.num_mult_switches)?;
        let dist_chubby = ChubbyTree::new(tree, self.dist_bandwidth)?;
        let collect_chubby = ChubbyTree::new(tree, self.collect_bandwidth)?;
        Ok(MaeriConfig {
            num_mult_switches: self.num_mult_switches,
            dist_bandwidth: self.dist_bandwidth,
            collect_bandwidth: self.collect_bandwidth,
            ms_local_buffers: self.ms_local_buffers,
            faults: self.faults,
            tree,
            dist_chubby,
            collect_chubby,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config() {
        let cfg = MaeriConfig::paper_64();
        assert_eq!(cfg.num_mult_switches(), 64);
        assert_eq!(cfg.dist_bandwidth(), 8);
        assert_eq!(cfg.collect_bandwidth(), 8);
        assert_eq!(cfg.art_depth(), 6);
        assert_eq!(cfg.tree().num_leaves(), 64);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = MaeriConfig::builder(256)
            .distribution_bandwidth(16)
            .collection_bandwidth(4)
            .ms_local_buffers(8)
            .build()
            .unwrap();
        assert_eq!(cfg.num_mult_switches(), 256);
        assert_eq!(cfg.dist_bandwidth(), 16);
        assert_eq!(cfg.collect_bandwidth(), 4);
        assert_eq!(cfg.ms_local_buffers(), 8);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(MaeriConfig::builder(0).build().is_err());
        assert!(MaeriConfig::builder(2).build().is_err());
        assert!(MaeriConfig::builder(48).build().is_err());
        assert!(MaeriConfig::builder(64)
            .distribution_bandwidth(3)
            .build()
            .is_err());
        assert!(MaeriConfig::builder(64)
            .collection_bandwidth(128)
            .build()
            .is_err());
        assert!(MaeriConfig::builder(64)
            .ms_local_buffers(0)
            .build()
            .is_err());
    }

    #[test]
    fn zero_bandwidth_rejected_with_specific_message() {
        let err = MaeriConfig::builder(64)
            .distribution_bandwidth(0)
            .build()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("distribution bandwidth must be nonzero"),
            "{err}"
        );
        let err = MaeriConfig::builder(64)
            .collection_bandwidth(0)
            .build()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("collection bandwidth must be nonzero"),
            "{err}"
        );
    }

    #[test]
    fn vn_size_validation() {
        let cfg = MaeriConfig::paper_64();
        assert!(cfg.validate_vn_size(1).is_ok());
        assert!(cfg.validate_vn_size(64).is_ok());
        assert!(cfg.validate_vn_size(65).is_err());
        assert!(cfg.validate_vn_size(0).is_err());
    }

    /// Snapshot: the message names the offending field and its bounds
    /// in the same `<knob> <value> out of range <min>..=<max>` shape as
    /// `maeri-verify`'s structured errors.
    #[test]
    fn vn_size_messages_name_field_and_bounds() {
        let cfg = MaeriConfig::paper_64();
        assert_eq!(
            cfg.validate_vn_size(65).unwrap_err().to_string(),
            "invalid configuration: vn_size 65 out of range 1..=64 (num_mult_switches = 64)"
        );
        assert_eq!(
            cfg.validate_vn_size(0).unwrap_err().to_string(),
            "invalid configuration: vn_size 0 out of range 1..=64 (num_mult_switches = 64)"
        );
        let small = MaeriConfig::builder(16)
            .distribution_bandwidth(8)
            .collection_bandwidth(8)
            .build()
            .unwrap();
        assert_eq!(
            small.validate_vn_size(17).unwrap_err().to_string(),
            "invalid configuration: vn_size 17 out of range 1..=16 (num_mult_switches = 16)"
        );
    }

    #[test]
    fn fault_spec_rides_the_config() {
        let spec = FaultSpec::new(42).dead_multipliers(250);
        let cfg = MaeriConfig::builder(64).faults(spec).build().unwrap();
        assert_eq!(cfg.faults(), Some(spec));
        let plan = cfg.fault_plan().unwrap();
        assert_eq!(plan.dead_leaves().len(), 16);
        let spans = cfg.healthy_spans();
        assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), 48);
        // Fault-free configs expose the whole array as one span.
        assert_eq!(
            MaeriConfig::paper_64().healthy_spans(),
            vec![VnRange::new(0, 64)]
        );
        assert!(MaeriConfig::paper_64().fault_plan().is_none());
    }

    #[test]
    fn invalid_fault_rates_rejected_at_build() {
        assert!(MaeriConfig::builder(64)
            .faults(FaultSpec::new(0).dead_multipliers(1001))
            .build()
            .is_err());
        assert!(MaeriConfig::builder(64)
            .faults(FaultSpec::new(0).flit_drops(1000))
            .build()
            .is_err());
        assert!(MaeriConfig::builder(64)
            .faults(FaultSpec::new(0).flit_drops(500).flit_delay(3))
            .build()
            .is_ok());
    }

    #[test]
    fn chubby_profiles_match_bandwidths() {
        let cfg = MaeriConfig::builder(64)
            .distribution_bandwidth(16)
            .collection_bandwidth(2)
            .build()
            .unwrap();
        assert_eq!(cfg.distribution_chubby().root_bandwidth(), 16);
        assert_eq!(cfg.collection_chubby().root_bandwidth(), 2);
    }
}
