//! Analytical model of the MIPI chip-to-chip serial port.

/// Specification of a chip-to-chip link port.
///
/// The paper's MIPI interface: 0.5 GB/s (1 byte per 500 MHz cluster cycle)
/// and 100 pJ per transferred byte.
///
/// ```
/// let mipi = mtp_link::LinkPortSpec::mipi();
/// assert_eq!(mipi.transfer_cycles(1000), 500 + 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPortSpec {
    /// Sustained link bandwidth in bytes per cluster cycle.
    pub bytes_per_cycle: f64,
    /// Fixed per-message latency in cycles (packetization, protocol).
    pub latency_cycles: u64,
    /// Transfer energy in picojoules per byte.
    pub energy_pj_per_byte: f64,
}

/// Cycles to move `bytes` at `bytes_per_cycle`: `ceil(bytes / rate)`,
/// `0` for zero bytes. The link port and the DMA engines price every
/// transfer through this.
///
/// Integral rates take an exact `div_ceil` path; the historical
/// `as f64 … ceil()` round-trip loses precision above 2^53 bytes and is
/// kept only for fractional rates.
#[must_use]
pub fn payload_cycles(bytes: u64, bytes_per_cycle: f64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    if bytes_per_cycle >= 1.0 && bytes_per_cycle.fract() == 0.0 {
        bytes.div_ceil(bytes_per_cycle as u64)
    } else {
        (bytes as f64 / bytes_per_cycle).ceil() as u64
    }
}

impl LinkPortSpec {
    /// The MIPI link model used throughout the paper (0.5 GB/s at a
    /// 500 MHz cluster clock, 100 pJ/B). The 500-cycle (1 µs) per-message
    /// latency models lane wake-up and packetization of the serial PHY.
    #[must_use]
    pub const fn mipi() -> Self {
        LinkPortSpec { bytes_per_cycle: 1.0, latency_cycles: 500, energy_pj_per_byte: 100.0 }
    }

    /// Cycles to deliver one `bytes`-sized message over this port.
    /// Zero-byte messages are free.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.latency_cycles.saturating_add(self.payload_cycles(bytes))
    }

    /// Cycles the payload alone occupies the link (the bandwidth term of
    /// [`Self::transfer_cycles`], without the per-message latency), as
    /// [`payload_cycles`] prices it.
    #[must_use]
    pub fn payload_cycles(&self, bytes: u64) -> u64 {
        debug_assert!(
            self.bytes_per_cycle > 0.0,
            "link bandwidth must be positive, got {}",
            self.bytes_per_cycle
        );
        payload_cycles(bytes, self.bytes_per_cycle)
    }

    /// Energy in millijoules to move `bytes` over the link once.
    #[must_use]
    pub fn transfer_energy_mj(&self, bytes: u64) -> f64 {
        bytes as f64 * self.energy_pj_per_byte * 1e-9
    }
}

impl Default for LinkPortSpec {
    fn default() -> Self {
        LinkPortSpec::mipi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mipi_constants_match_paper() {
        let m = LinkPortSpec::mipi();
        assert_eq!(m.energy_pj_per_byte, 100.0);
        assert_eq!(m.bytes_per_cycle, 1.0);
    }

    #[test]
    fn zero_byte_message_free() {
        assert_eq!(LinkPortSpec::mipi().transfer_cycles(0), 0);
    }

    #[test]
    fn energy_scales_linearly() {
        let m = LinkPortSpec::mipi();
        assert!((m.transfer_energy_mj(1_000_000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn integral_bandwidth_is_exact_above_float_precision() {
        // 2^53 + 1 is not representable as f64; the integer path must not
        // round it away.
        let m = LinkPortSpec { bytes_per_cycle: 1.0, latency_cycles: 0, ..LinkPortSpec::mipi() };
        let huge = (1u64 << 53) + 1;
        assert_eq!(m.transfer_cycles(huge), huge);
    }

    #[test]
    fn fractional_bandwidth_keeps_float_semantics() {
        let m = LinkPortSpec { bytes_per_cycle: 0.5, latency_cycles: 10, ..LinkPortSpec::mipi() };
        assert_eq!(m.transfer_cycles(7), 10 + 14);
    }
}
