//! DMA engine timing model.

/// Timing model of a DMA engine: per-transfer setup latency plus a
/// bandwidth term.
///
/// The setup latency is what makes fine-grained synchronous streaming from
/// off-chip memory so much slower than bulk asynchronous prefetch — the
/// mechanism behind the paper's super-linear speedups once weights fit
/// on-chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaSpec {
    /// Sustained bandwidth in bytes per cluster cycle.
    pub bytes_per_cycle: f64,
    /// Fixed cycles per transfer (descriptor setup, protocol overhead,
    /// off-chip wake-up for the I/O DMA).
    pub setup_cycles: u64,
}

impl DmaSpec {
    /// A DMA engine with the given bandwidth and per-transfer setup cost.
    #[must_use]
    pub const fn new(bytes_per_cycle: f64, setup_cycles: u64) -> Self {
        DmaSpec { bytes_per_cycle, setup_cycles }
    }

    /// Cycles to move `bytes` in a single transfer.
    ///
    /// Zero-byte transfers are free (no descriptor is issued); the
    /// bandwidth term is [`mtp_link::payload_cycles`].
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        debug_assert!(
            self.bytes_per_cycle > 0.0,
            "DMA bandwidth must be positive, got {}",
            self.bytes_per_cycle
        );
        if bytes == 0 {
            return 0;
        }
        self.setup_cycles.saturating_add(mtp_link::payload_cycles(bytes, self.bytes_per_cycle))
    }

    /// Effective bandwidth (bytes/cycle) achieved when moving `bytes` per
    /// transfer — approaches `bytes_per_cycle` for large transfers.
    #[must_use]
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        bytes as f64 / self.transfer_cycles(bytes) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_free() {
        let d = DmaSpec::new(2.0, 1000);
        assert_eq!(d.transfer_cycles(0), 0);
    }

    #[test]
    fn setup_plus_bandwidth() {
        let d = DmaSpec::new(2.0, 1000);
        assert_eq!(d.transfer_cycles(4096), 1000 + 2048);
    }

    #[test]
    fn effective_bandwidth_saturates() {
        let d = DmaSpec::new(2.0, 1000);
        let small = d.effective_bandwidth(1024);
        let large = d.effective_bandwidth(1 << 20);
        assert!(small < 1.0);
        assert!(large > 1.9);
    }

    #[test]
    fn rounding_up() {
        let d = DmaSpec::new(3.0, 0);
        assert_eq!(d.transfer_cycles(10), 4); // ceil(10/3)
    }

    #[test]
    fn integral_bandwidth_is_exact_above_float_precision() {
        let d = DmaSpec::new(1.0, 0);
        let huge = (1u64 << 53) + 1;
        assert_eq!(d.transfer_cycles(huge), huge);
    }
}
