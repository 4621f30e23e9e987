//! Chip specification: the Siracusa-class SoC the paper deploys on.

use crate::{DmaSpec, MemorySpec};
use mtp_kernels::{CalibratedCostModel, ClusterCostModel, Kernel};
pub use mtp_link::{LinkPortSpec, LinkRegime, QueueDiscipline};

/// Full specification of one MCU in the multi-chip system.
///
/// Defaults ([`ChipSpec::siracusa`]) model the Siracusa SoC: an octa-core
/// RISC-V cluster at 500 MHz, 256 KiB of L1 TCDM, 2 MiB of L2, off-chip L3
/// behind an I/O DMA, and a MIPI chip-to-chip port.
///
/// ```
/// let chip = mtp_sim::ChipSpec::siracusa();
/// assert_eq!(chip.l2.capacity_bytes, 2 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSpec {
    /// Cluster clock frequency in hertz.
    pub freq_hz: f64,
    /// Average active power of one cluster core in watts (13 mW).
    pub core_power_w: f64,
    /// Kernel cycle-cost model for the compute cluster.
    pub cost_model: ClusterCostModel,
    /// Optional measured kernel-cost model that overrides
    /// [`Self::cost_model`] for cycle counts when present (the
    /// `--cost-source calibrated` sweep axis). Everything else — core
    /// count, energy parameters — still reads the analytic model.
    pub cost_override: Option<CalibratedCostModel>,
    /// L1 TCDM (16 banks, single-cycle from the cluster).
    pub l1: MemorySpec,
    /// L2 scratchpad.
    pub l2: MemorySpec,
    /// Off-chip L3 memory.
    pub l3: MemorySpec,
    /// Cluster DMA moving data between L2 and L1.
    pub cluster_dma: DmaSpec,
    /// I/O DMA moving data between L3 and L2.
    pub io_dma: DmaSpec,
    /// Chip-to-chip link port.
    pub link: LinkPortSpec,
    /// Timing regime of the link port (affine, queued, or lossy). The
    /// regime alters when messages arrive, never which messages are
    /// exchanged; [`LinkRegime::Affine`] reproduces the paper's model
    /// bit-for-bit and is the default.
    pub link_regime: LinkRegime,
    /// Fraction of L2 usable for weights/KV-cache; the remainder holds the
    /// runtime, code, I/O buffers, and activation scratch. This threshold
    /// determines the paper's fit crossovers (streamed vs double-buffered
    /// vs resident weight regimes).
    pub l2_usable_fraction: f64,
}

impl ChipSpec {
    /// The Siracusa-calibrated chip specification.
    ///
    /// Calibration notes (see `DESIGN.md` §3):
    /// - I/O DMA: 2 bytes/cycle sustained (1 GB/s HyperRAM-class) with a
    ///   4000-cycle per-transfer setup — bulk prefetches run near peak,
    ///   while fine-grained synchronous streaming of 4 KiB weight tiles is
    ///   latency-dominated (~0.68 B/cycle effective), reproducing the
    ///   off-chip-bound single-chip regime of the paper.
    /// - Cluster DMA: 16 bytes/cycle, 50-cycle setup (on-chip AXI burst).
    /// - MIPI: 1 byte/cycle, 500-cycle message latency, 100 pJ/B.
    #[must_use]
    pub fn siracusa() -> Self {
        ChipSpec {
            freq_hz: 500.0e6,
            core_power_w: 13.0e-3,
            cost_model: ClusterCostModel::siracusa(),
            cost_override: None,
            l1: MemorySpec::new(256 * 1024, 0.5),
            l2: MemorySpec::new(2 * 1024 * 1024, 2.0),
            l3: MemorySpec::new(u64::MAX, 100.0),
            cluster_dma: DmaSpec::new(16.0, 50),
            io_dma: DmaSpec::new(2.0, 4000),
            link: LinkPortSpec::mipi(),
            link_regime: LinkRegime::Affine,
            l2_usable_fraction: 0.75,
        }
    }

    /// Usable L2 bytes for model data (weights, KV-cache) after reserving
    /// runtime overhead.
    #[must_use]
    pub fn l2_usable_bytes(&self) -> u64 {
        (self.l2.capacity_bytes as f64 * self.l2_usable_fraction) as u64
    }

    /// Cycle cost of one kernel on this chip's cluster: the measured
    /// calibrated model when one is installed, the analytic cluster model
    /// otherwise.
    #[must_use]
    pub fn kernel_cycles(&self, kernel: &Kernel) -> u64 {
        match &self.cost_override {
            Some(m) => m.cycles(kernel),
            None => self.cost_model.cycles(kernel),
        }
    }

    /// Number of cluster cores (from the cost model).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cost_model.params().cores
    }

    /// Converts cycles at this chip's clock to seconds.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz
    }
}

impl Default for ChipSpec {
    fn default() -> Self {
        ChipSpec::siracusa()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siracusa_parameters() {
        let c = ChipSpec::siracusa();
        assert_eq!(c.l1.capacity_bytes, 256 * 1024);
        assert_eq!(c.cores(), 8);
        assert!((c.cycles_to_seconds(500_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn l2_usable_is_a_fraction() {
        let c = ChipSpec::siracusa();
        assert!(c.l2_usable_bytes() < c.l2.capacity_bytes);
        assert!(c.l2_usable_bytes() > c.l2.capacity_bytes / 2);
    }

    #[test]
    fn mipi_link_timing() {
        let l = LinkPortSpec::mipi();
        assert_eq!(l.transfer_cycles(0), 0);
        assert_eq!(l.transfer_cycles(1000), 500 + 1000);
    }
}
