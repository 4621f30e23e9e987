//! Analytical energy model for multi-MCU transformer inference.
//!
//! Implements the total-system energy formula of the paper (Sec. V-A):
//!
//! ```text
//! E_total = N_C2C * E_C2C
//!         + sum_j [ P * T_comp,j
//!                 + N_L3<->L2,j * E_L3<->L2
//!                 + N_L2<->L1,j * E_L2<->L1 ]
//! ```
//!
//! where `P` is the average cluster power, `T_comp,j` the computation time
//! of chip `j`, and the `N` terms are the byte counts the simulator
//! reports. Constants default to the paper's: 100 pJ/B for L3 and for the
//! MIPI link, 2 pJ/B for L2, 13 mW per core at 500 MHz.
//!
//! # Examples
//!
//! ```
//! use mtp_energy::{EnergyParams, Traffic};
//!
//! let params = EnergyParams::paper();
//! let traffic = Traffic {
//!     l3_l2_bytes: 3_150_000,          // one TinyLlama block of weights
//!     l2_l1_bytes: 3_150_000,
//!     c2c_bytes: 4_096,
//!     compute_cycles_per_chip: vec![150_000; 8],
//! };
//! let report = params.energy(&traffic);
//! assert!(report.total_mj() > 0.3 && report.total_mj() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Traffic and compute-time summary of one inference run — the observables
/// the energy formula consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Total bytes moved between L3 and L2 across all chips.
    pub l3_l2_bytes: u64,
    /// Total bytes moved between L2 and L1 across all chips.
    pub l2_l1_bytes: u64,
    /// Total bytes sent over chip-to-chip links.
    pub c2c_bytes: u64,
    /// Per-chip cluster-busy cycles (`T_comp,j` in cycles).
    pub compute_cycles_per_chip: Vec<u64>,
}

/// Constants of the analytical energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// L3 (off-chip) access energy, picojoules per byte.
    pub l3_pj_per_byte: f64,
    /// L2 access energy, picojoules per byte.
    pub l2_pj_per_byte: f64,
    /// Chip-to-chip transfer energy, picojoules per byte.
    pub c2c_pj_per_byte: f64,
    /// Average active power of one core, watts.
    pub core_power_w: f64,
    /// Active cores per cluster.
    pub cores: usize,
    /// Cluster clock frequency, hertz.
    pub freq_hz: f64,
}

impl EnergyParams {
    /// The constants used in the paper: 100 pJ/B L3, 2 pJ/B L2, 100 pJ/B
    /// MIPI, 13 mW/core, 8 cores, 500 MHz.
    #[must_use]
    pub const fn paper() -> Self {
        EnergyParams {
            l3_pj_per_byte: 100.0,
            l2_pj_per_byte: 2.0,
            c2c_pj_per_byte: 100.0,
            core_power_w: 13.0e-3,
            cores: 8,
            freq_hz: 500.0e6,
        }
    }

    /// Evaluates the energy formula over a traffic summary.
    #[must_use]
    pub fn energy(&self, traffic: &Traffic) -> EnergyReport {
        let pj_to_mj = 1e-9;
        let l3_mj = traffic.l3_l2_bytes as f64 * self.l3_pj_per_byte * pj_to_mj;
        let l2_mj = traffic.l2_l1_bytes as f64 * self.l2_pj_per_byte * pj_to_mj;
        let c2c_mj = traffic.c2c_bytes as f64 * self.c2c_pj_per_byte * pj_to_mj;
        let cluster_power = self.core_power_w * self.cores as f64;
        let compute_mj = traffic
            .compute_cycles_per_chip
            .iter()
            .map(|&cycles| cluster_power * (cycles as f64 / self.freq_hz) * 1e3)
            .sum();
        EnergyReport { compute_mj, l3_mj, l2_mj, c2c_mj }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::paper()
    }
}

/// Energy broken down by the four terms of the formula, in millijoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// `sum_j P * T_comp,j`.
    pub compute_mj: f64,
    /// `sum_j N_L3<->L2,j * E_L3<->L2`.
    pub l3_mj: f64,
    /// `sum_j N_L2<->L1,j * E_L2<->L1`.
    pub l2_mj: f64,
    /// `N_C2C * E_C2C`.
    pub c2c_mj: f64,
}

impl EnergyReport {
    /// Total energy in millijoules.
    #[must_use]
    pub fn total_mj(&self) -> f64 {
        self.compute_mj + self.l3_mj + self.l2_mj + self.c2c_mj
    }
}

impl std::fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} mJ (compute {:.3}, L3 {:.3}, L2 {:.3}, C2C {:.3})",
            self.total_mj(),
            self.compute_mj,
            self.l3_mj,
            self.l2_mj,
            self.c2c_mj
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l3_term_matches_hand_calculation() {
        let p = EnergyParams::paper();
        let t = Traffic { l3_l2_bytes: 1_000_000, ..Traffic::default() };
        // 1e6 B * 100 pJ/B = 1e8 pJ = 0.1 mJ.
        assert!((p.energy(&t).l3_mj - 0.1).abs() < 1e-12);
    }

    #[test]
    fn l2_is_fifty_times_cheaper_than_l3() {
        let p = EnergyParams::paper();
        let l3 = p.energy(&Traffic { l3_l2_bytes: 1 << 20, ..Traffic::default() });
        let l2 = p.energy(&Traffic { l2_l1_bytes: 1 << 20, ..Traffic::default() });
        assert!((l3.total_mj() / l2.total_mj() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn compute_term_scales_with_chips() {
        let p = EnergyParams::paper();
        let one =
            p.energy(&Traffic { compute_cycles_per_chip: vec![500_000], ..Traffic::default() });
        let eight =
            p.energy(&Traffic { compute_cycles_per_chip: vec![500_000; 8], ..Traffic::default() });
        assert!((eight.compute_mj / one.compute_mj - 8.0).abs() < 1e-9);
        // 500k cycles at 500 MHz = 1 ms at 104 mW = 0.104 mJ.
        assert!((one.compute_mj - 0.104).abs() < 1e-9);
    }

    #[test]
    fn total_is_sum_of_terms() {
        let p = EnergyParams::paper();
        let t = Traffic {
            l3_l2_bytes: 123,
            l2_l1_bytes: 456,
            c2c_bytes: 789,
            compute_cycles_per_chip: vec![1000, 2000],
        };
        let r = p.energy(&t);
        assert!((r.total_mj() - (r.compute_mj + r.l3_mj + r.l2_mj + r.c2c_mj)).abs() < 1e-15);
    }

    #[test]
    fn empty_traffic_is_zero_energy() {
        let r = EnergyParams::paper().energy(&Traffic::default());
        assert_eq!(r.total_mj(), 0.0);
    }

    #[test]
    fn display_formats() {
        let r = EnergyReport { compute_mj: 0.5, l3_mj: 0.25, l2_mj: 0.01, c2c_mj: 0.04 };
        let s = r.to_string();
        assert!(s.starts_with("0.800 mJ"));
    }
}
