//! Result reporting: latency, runtime breakdown, energy.

use crate::WeightResidency;
use mtp_energy::EnergyReport;
use mtp_model::InferenceMode;
use mtp_sim::{Breakdown, RunStats};

/// The result of simulating one workload on the distributed system —
/// everything the paper's figures plot.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Number of chips used.
    pub n_chips: usize,
    /// Inference mode simulated.
    pub mode: InferenceMode,
    /// Number of Transformer blocks simulated.
    pub n_blocks: usize,
    /// Weight residency regime the memory plan selected.
    pub residency: WeightResidency,
    /// Raw simulator statistics.
    pub stats: RunStats,
    /// Energy according to the paper's analytical model.
    pub energy: EnergyReport,
    /// Cluster clock in hertz (for time conversions).
    pub freq_hz: f64,
}

impl SystemReport {
    /// Runtime in cycles per simulated block.
    #[must_use]
    pub fn cycles_per_block(&self) -> u64 {
        self.stats.makespan / self.n_blocks.max(1) as u64
    }

    /// End-to-end runtime in milliseconds.
    #[must_use]
    pub fn runtime_ms(&self) -> f64 {
        self.stats.makespan as f64 / self.freq_hz * 1e3
    }

    /// Total energy in millijoules.
    #[must_use]
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Energy-delay product in millijoule-milliseconds.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy_mj() * self.runtime_ms()
    }

    /// Runtime breakdown of the critical chip (the paper's stacked bars).
    #[must_use]
    pub fn breakdown(&self) -> Breakdown {
        self.stats.critical_breakdown()
    }

    /// Speedup of this report relative to a baseline (typically the
    /// single-chip system): `baseline.makespan / self.makespan`.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SystemReport) -> f64 {
        baseline.stats.makespan as f64 / self.stats.makespan.max(1) as f64
    }

    /// Energy-delay-product improvement over a baseline.
    #[must_use]
    pub fn edp_improvement_over(&self, baseline: &SystemReport) -> f64 {
        baseline.edp() / self.edp().max(f64::MIN_POSITIVE)
    }

    /// Total cycles sends spent queued on remote ingress ports or buffer
    /// credit (queued link regimes; 0 under the default affine model).
    /// Per-chip values live in `stats.per_chip[i].c2c_queue_cycles`.
    #[must_use]
    pub fn queueing_delay_cycles(&self) -> u64 {
        self.stats.total_queueing_cycles()
    }

    /// Peak link ingress-buffer occupancy observed on any chip, in bytes.
    #[must_use]
    pub fn peak_queue_bytes(&self) -> u64 {
        self.stats.peak_queue_bytes()
    }

    /// Total dropped messages/packets (drop-tail and lossy link regimes).
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.stats.total_drops()
    }

    /// Total retransmitted packets (drop-tail and lossy link regimes).
    #[must_use]
    pub fn retransmits(&self) -> u64 {
        self.stats.total_retransmits()
    }
}

/// Builds a [`SystemReport`] from raw run statistics plus the chip spec
/// the machine was built from (shared by the main system and the
/// baselines).
#[must_use]
pub(crate) fn from_stats(
    chip: &mtp_sim::ChipSpec,
    n_chips: usize,
    mode: InferenceMode,
    n_blocks: usize,
    residency: WeightResidency,
    stats: RunStats,
) -> SystemReport {
    let traffic = mtp_energy::Traffic {
        l3_l2_bytes: stats.total_l3_l2_bytes(),
        l2_l1_bytes: stats.total_l2_l1_bytes(),
        c2c_bytes: stats.total_c2c_bytes(),
        compute_cycles_per_chip: stats.per_chip.iter().map(|c| c.compute_cycles).collect(),
    };
    let params = mtp_energy::EnergyParams {
        l3_pj_per_byte: chip.l3.energy_pj_per_byte,
        l2_pj_per_byte: chip.l2.energy_pj_per_byte,
        c2c_pj_per_byte: chip.link.energy_pj_per_byte,
        core_power_w: chip.core_power_w,
        cores: chip.cores(),
        freq_hz: chip.freq_hz,
    };
    let energy = params.energy(&traffic);
    SystemReport { n_chips, mode, n_blocks, residency, stats, energy, freq_hz: chip.freq_hz }
}

impl std::fmt::Display for SystemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} chip(s), {} mode, {}: {} cycles/block ({:.3} ms total), {}",
            self.n_chips,
            self.mode,
            self.residency,
            self.cycles_per_block(),
            self.runtime_ms(),
            self.energy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_sim::ChipStats;

    fn report(makespan: u64, energy_mj: f64) -> SystemReport {
        let chip = ChipStats { finish_cycles: makespan, ..ChipStats::default() };
        SystemReport {
            n_chips: 1,
            mode: InferenceMode::Autoregressive,
            n_blocks: 1,
            residency: WeightResidency::Streamed,
            stats: RunStats { makespan, per_chip: vec![chip], sync_phases: 2 },
            energy: mtp_energy::EnergyReport {
                compute_mj: energy_mj,
                ..mtp_energy::EnergyReport::default()
            },
            freq_hz: 500.0e6,
        }
    }

    #[test]
    fn speedup_and_edp() {
        let single = report(1_000_000, 0.6);
        let multi = report(100_000, 0.3);
        assert!((multi.speedup_over(&single) - 10.0).abs() < 1e-9);
        // EDP single = 0.6 * 2ms, multi = 0.3 * 0.2ms => 20x improvement.
        assert!((multi.edp_improvement_over(&single) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn runtime_conversion() {
        let r = report(500_000, 0.1);
        assert!((r.runtime_ms() - 1.0).abs() < 1e-12);
        assert_eq!(r.cycles_per_block(), 500_000);
    }

    #[test]
    fn display_mentions_mode_and_residency() {
        let s = report(1000, 0.5).to_string();
        assert!(s.contains("autoregressive"));
        assert!(s.contains("streamed"));
    }
}
