//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section as printed series.
//!
//! Each `figN` module exposes a `run()` that produces the figure's data
//! (chip-count sweeps of [`mtp_core::SystemReport`]s) and a `print()` that
//! renders the same rows/series the paper plots. The modules are consumed
//! by the `examples/paper_figures.rs` binary and the `mtp` CLI, and
//! [`mod@bench`] times the simulations behind them.
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Fig. 4(a) TinyLlama autoregressive, 1–8 chips | [`fig4`] |
//! | Fig. 4(b) TinyLlama prompt, 1–8 chips | [`fig4`] |
//! | Fig. 4(c) MobileBERT, 1–4 chips | [`fig4`] |
//! | Fig. 5 energy vs runtime (incl. scaled model) | [`fig5`] |
//! | Fig. 6 scaled-up speedups, 2–64 chips | [`fig6`] |
//! | Table I strategy comparison | [`table1`] |
//! | Abstract headline numbers | [`headline`] |
//! | Extension: ablations (topology, double-buffering, baselines) | [`ablation`] |
//!
//! Since the sweep-engine refactor, every module above is a thin view
//! over [`sweep::SweepEngine`] — one declarative, parallel, cached code
//! path produces every number (see `DESIGN.md` §7). New scenario studies
//! should declare a [`sweep::SweepGrid`] instead of hand-rolling loops.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablation;
pub mod advisor;
pub mod bench;
pub mod fig4;
pub mod fig5;
pub mod fig6;
mod fxhash;
pub mod headline;
mod record;
pub mod serve;
pub mod sweep;
pub mod table;
pub mod table1;

use mtp_core::{CoreError, SystemReport};
use mtp_model::{InferenceMode, TransformerConfig};
use sweep::{Scenario, SweepEngine, SweepGrid};

/// One swept point: a chip count and its simulation report.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Number of chips.
    pub n_chips: usize,
    /// Simulation result.
    pub report: SystemReport,
}

/// Sweeps a workload over chip counts, reporting one steady-state block
/// per point (what the paper's figures show).
///
/// A thin view over [`sweep::SweepEngine`]: points are simulated in
/// parallel and deduplicated through the scenario cache; results come
/// back in the order of `chip_counts`.
///
/// # Errors
///
/// Propagates partitioning/simulation errors.
pub fn sweep(
    cfg: &TransformerConfig,
    mode: InferenceMode,
    chip_counts: &[usize],
) -> Result<Vec<SweepPoint>, CoreError> {
    let grid = SweepGrid::single(cfg.clone(), mode, chip_counts.to_vec());
    let scenarios: Vec<Scenario> = grid.scenarios();
    let reports = SweepEngine::new().reports(&scenarios)?;
    Ok(scenarios
        .into_iter()
        .zip(reports)
        .map(|(s, report)| SweepPoint { n_chips: s.n_chips, report })
        .collect())
}

/// Speedup of each sweep point relative to the first (single-chip) point.
#[must_use]
pub fn speedups(points: &[SweepPoint]) -> Vec<f64> {
    let Some(base) = points.first() else { return Vec::new() };
    points.iter().map(|p| p.report.speedup_over(&base.report)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_point_per_count() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let pts = sweep(&cfg, InferenceMode::Autoregressive, &[1, 2]).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].n_chips, 1);
        let s = speedups(&pts);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!(s[1] > 1.5);
    }

    #[test]
    fn speedups_of_empty_sweep() {
        assert!(speedups(&[]).is_empty());
    }
}
