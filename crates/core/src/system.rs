//! The distributed multi-MCU inference system: partitioning + scheduling +
//! timing simulation + energy in one façade.

use std::sync::{Arc, OnceLock};

use crate::serve::{ServeMemo, SlotShape};
use crate::{CoreError, PartitionSpec, Result, SystemReport, WeightResidency};
use mtp_energy::EnergyParams;
use mtp_link::Topology;
use mtp_model::{BatchWorkload, InferenceMode, TransformerConfig};
use mtp_sim::{ChipSpec, Lowered, Machine, RunStats};

/// A system of `N` Siracusa-class chips running one partitioned
/// Transformer model.
///
/// ```
/// use mtp_core::DistributedSystem;
/// use mtp_model::{InferenceMode, TransformerConfig};
///
/// let cfg = TransformerConfig::tiny_llama_42m();
/// let single = DistributedSystem::paper_default(cfg.clone(), 1)?;
/// let eight = DistributedSystem::paper_default(cfg, 8)?;
/// let s1 = single.simulate_block(InferenceMode::Autoregressive)?;
/// let s8 = eight.simulate_block(InferenceMode::Autoregressive)?;
/// assert!(s8.speedup_over(&s1) > 8.0, "super-linear speedup");
/// # Ok::<(), mtp_core::CoreError>(())
/// ```
///
/// A system owns one memo (`DESIGN.md` §12): the compiled slot schedules
/// its block spans, batches and serving passes run, and the serving pass
/// makespans, each computed once for the system and its clones, which
/// share the memo.
#[derive(Debug)]
pub struct DistributedSystem {
    cfg: TransformerConfig,
    chip: ChipSpec,
    n_chips: usize,
    topology: Option<Topology>,
    /// The slot and pass memo, allocated on first use so that building
    /// a system that never simulates allocates nothing for it.
    memo: OnceLock<Arc<ServeMemo>>,
}

impl Clone for DistributedSystem {
    /// The clone shares the memo, which is allocated here if no
    /// run has needed it yet.
    fn clone(&self) -> Self {
        DistributedSystem {
            cfg: self.cfg.clone(),
            chip: self.chip,
            n_chips: self.n_chips,
            topology: self.topology.clone(),
            memo: OnceLock::from(Arc::clone(self.serve_memo())),
        }
    }
}

impl DistributedSystem {
    /// A system of `n_chips` default Siracusa chips with the paper's
    /// hierarchical group-of-4 topology.
    ///
    /// # Errors
    ///
    /// Propagates partition-divisibility errors (the chip count must
    /// divide both the head count and the FFN dimension).
    pub fn paper_default(cfg: TransformerConfig, n_chips: usize) -> Result<Self> {
        Self::with_chip(cfg, n_chips, ChipSpec::siracusa())
    }

    /// A system with an explicit chip specification.
    ///
    /// # Errors
    ///
    /// Propagates partition-divisibility errors.
    pub fn with_chip(cfg: TransformerConfig, n_chips: usize, chip: ChipSpec) -> Result<Self> {
        // Validate the partition up front so construction fails early.
        let _ = PartitionSpec::new(&cfg, n_chips)?;
        Ok(DistributedSystem { cfg, chip, n_chips, topology: None, memo: OnceLock::new() })
    }

    /// Overrides the reduction topology (used by the flat-all-reduce
    /// ablation). Another reduction tree is another machine, so the
    /// system starts a fresh memo.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self.memo = OnceLock::new();
        self
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Number of chips.
    #[must_use]
    pub fn n_chips(&self) -> usize {
        self.n_chips
    }

    /// The chip specification.
    #[must_use]
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }

    /// The reduction-topology override, if any.
    pub(crate) fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// The slot and pass memo this system shares with its clones.
    pub(crate) fn serve_memo(&self) -> &Arc<ServeMemo> {
        self.memo.get_or_init(Arc::default)
    }

    /// Energy-model constants derived from the chip specification.
    #[must_use]
    pub fn energy_params(&self) -> EnergyParams {
        EnergyParams {
            l3_pj_per_byte: self.chip.l3.energy_pj_per_byte,
            l2_pj_per_byte: self.chip.l2.energy_pj_per_byte,
            c2c_pj_per_byte: self.chip.link.energy_pj_per_byte,
            core_power_w: self.chip.core_power_w,
            cores: self.chip.cores(),
            freq_hz: self.chip.freq_hz,
        }
    }

    /// Simulates one steady-state Transformer block (what the paper's
    /// figures report).
    ///
    /// # Errors
    ///
    /// Propagates partitioning and simulation errors.
    pub fn simulate_block(&self, mode: InferenceMode) -> Result<SystemReport> {
        self.simulate_blocks(mode, 1)
    }

    /// Simulates `n_blocks` consecutive blocks: one request slot at the
    /// model's own context, repeated `n_blocks` times
    /// (`DistributedSystem::run_slots`).
    ///
    /// The periodic steady-state engine
    /// ([`mtp_sim::Machine::run_periodic_lowered`]) runs the block until
    /// the machine state provably repeats and extrapolates the remaining
    /// blocks, with results identical to simulating every block (locked
    /// by `tests/periodic_lockstep.rs`).
    ///
    /// # Errors
    ///
    /// Propagates partitioning and simulation errors; `n_blocks` must be
    /// at least 1.
    pub fn simulate_blocks(&self, mode: InferenceMode, n_blocks: usize) -> Result<SystemReport> {
        if n_blocks == 0 {
            return Err(CoreError::InvalidConfig("n_blocks must be at least 1".into()));
        }
        let (stats, residency) = self.run_slots(&[(mode, self.cfg.seq_len)], n_blocks)?;
        Ok(self.report(mode, n_blocks, residency, stats))
    }

    /// Simulates a full forward pass over all `n_layers` blocks of the
    /// configured model.
    ///
    /// # Errors
    ///
    /// Propagates partitioning and simulation errors.
    pub fn simulate_model(&self, mode: InferenceMode) -> Result<SystemReport> {
        self.simulate_blocks(mode, self.cfg.n_layers)
    }

    /// Simulates a full model pass serving a multi-request batch: every
    /// block runs each request's slot back to back (requests are
    /// independent streams time-multiplexed over the same chips, each
    /// with its own KV-cache state), so the pass is
    /// `DistributedSystem::run_slots` over `n_layers` blocks.
    ///
    /// In prompt mode each request's slot processes its own prompt
    /// length; in autoregressive mode every slot is one decode step
    /// against the model's full cached context, exactly as the
    /// single-request path simulates it. Arrival offsets shape the
    /// functional KV-cache trajectories, not the saturated steady-state
    /// schedule, so they do not enter the timing model.
    ///
    /// A batch of one request is the single-request path: for a workload
    /// whose prompt length matches `cfg.seq_len`, the report's stats are
    /// identical to [`DistributedSystem::simulate_model`] (locked by
    /// `tests/batch_lockstep.rs`). The report's `n_blocks` counts block
    /// instances (`n_layers * n_requests`), and its residency regime is
    /// the first request's: a longer prompt's larger KV working set can
    /// shift another slot's plan.
    ///
    /// # Errors
    ///
    /// Rejects workloads exceeding the model's KV capacity and
    /// propagates partitioning and simulation errors.
    pub fn simulate_batch(
        &self,
        mode: InferenceMode,
        workload: &BatchWorkload,
    ) -> Result<SystemReport> {
        workload.validate_for(&self.cfg).map_err(CoreError::InvalidConfig)?;
        let shapes: Vec<SlotShape> = workload
            .requests()
            .iter()
            .map(|spec| match mode {
                InferenceMode::Autoregressive => (mode, self.cfg.seq_len),
                InferenceMode::Prompt => (mode, spec.prompt_len),
            })
            .collect();
        let n_blocks = self.cfg.n_layers.checked_mul(shapes.len()).ok_or_else(block_overflow)?;
        let (stats, residency) = self.run_slots(&shapes, self.cfg.n_layers)?;
        Ok(self.report(mode, n_blocks, residency, stats))
    }

    fn report(
        &self,
        mode: InferenceMode,
        n_blocks: usize,
        residency: WeightResidency,
        stats: RunStats,
    ) -> SystemReport {
        crate::report::from_stats(&self.chip, self.n_chips, mode, n_blocks, residency, stats)
    }

    /// A machine of this system's chips, with no fault plan.
    pub(crate) fn machine(&self) -> Machine {
        Machine::homogeneous(self.chip, self.n_chips)
    }

    /// `n_blocks` blocks of one pass over request slots of the given
    /// `(mode, context)` shapes (at least one), in slot order, with the
    /// first slot's residency regime. Every slot's compiled one-block
    /// schedule comes from the system's memo ([`DistributedSystem::slot_form`]), so block
    /// spans, batches and serving passes share one slot path
    /// (`DESIGN.md` §10).
    ///
    /// Uniform shapes run one slot's form `n_blocks x slots` times: each
    /// request slot is one more block with shifted ids. Mixed shapes
    /// concatenate the slots' forms on every chip into one interleaved
    /// block ([`Lowered::concat`]), each slot's message and sync ids
    /// shifted past the spans of the slots before it, and run that block
    /// `n_blocks` times. Either way the periodic engine
    /// ([`Machine::run_periodic_lowered`]) proves the fixed point or
    /// falls back to the exact full run by itself.
    pub(crate) fn run_slots(
        &self,
        shapes: &[SlotShape],
        n_blocks: usize,
    ) -> Result<(RunStats, WeightResidency)> {
        let uniform = shapes.iter().all(|shape| shape == &shapes[0]);
        let forms = if uniform { &shapes[..1] } else { shapes }
            .iter()
            .map(|&(mode, seq)| self.slot_form(mode, seq))
            .collect::<Result<Vec<_>>>()?;
        let stats = if uniform {
            let blocks = n_blocks.checked_mul(shapes.len()).ok_or_else(block_overflow)?;
            self.machine().run_periodic_lowered(forms[0].lowered(), blocks)?
        } else {
            let block = Lowered::concat(forms.iter().map(|form| form.lowered()));
            self.machine().run_periodic_lowered(&block, n_blocks)?
        };
        Ok((stats, forms[0].residency()))
    }
}

/// The error of a block count that does not fit in `usize`.
fn block_overflow() -> CoreError {
    CoreError::InvalidConfig("batched block count overflows usize".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::CompiledSchedule;

    #[test]
    fn single_vs_eight_chip_autoregressive() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let s1 = DistributedSystem::paper_default(cfg.clone(), 1)
            .unwrap()
            .simulate_block(InferenceMode::Autoregressive)
            .unwrap();
        let s8 = DistributedSystem::paper_default(cfg, 8)
            .unwrap()
            .simulate_block(InferenceMode::Autoregressive)
            .unwrap();
        let speedup = s8.speedup_over(&s1);
        assert!(speedup > 8.0, "super-linear expected, got {speedup:.1}");
        assert_eq!(s1.residency, WeightResidency::Streamed);
        assert_eq!(s8.residency, WeightResidency::DoubleBuffered);
    }

    #[test]
    fn report_traffic_reconciles_with_energy() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let r = DistributedSystem::paper_default(cfg.clone(), 8)
            .unwrap()
            .simulate_block(InferenceMode::Autoregressive)
            .unwrap();
        // L3 term: slice prefetch = one block of weights across chips.
        let expect_l3_mj = cfg.block_weight_bytes() as f64 * 100.0 * 1e-9;
        assert!((r.energy.l3_mj - expect_l3_mj).abs() < 1e-9);
        assert!(r.energy.total_mj() > 0.0);
    }

    #[test]
    fn model_pass_is_n_layers_blocks() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let sys = DistributedSystem::paper_default(cfg.clone(), 8).unwrap();
        let one = sys.simulate_block(InferenceMode::Autoregressive).unwrap();
        let all = sys.simulate_model(InferenceMode::Autoregressive).unwrap();
        assert_eq!(all.n_blocks, cfg.n_layers);
        let per_block = all.cycles_per_block() as f64;
        let single = one.stats.makespan as f64;
        assert!((per_block / single - 1.0).abs() < 0.05, "steady-state per-block stable");
    }

    #[test]
    fn invalid_chip_count_fails_at_construction() {
        let cfg = TransformerConfig::tiny_llama_42m();
        assert!(DistributedSystem::paper_default(cfg, 3).is_err());
    }

    #[test]
    fn batch_of_one_equals_simulate_model() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let sys = DistributedSystem::paper_default(cfg.clone(), 8).unwrap();
        for mode in [InferenceMode::Autoregressive, InferenceMode::Prompt] {
            let workload = BatchWorkload::uniform(1, cfg.seq_len, 0);
            let batched = sys.simulate_batch(mode, &workload).unwrap();
            let single = sys.simulate_model(mode).unwrap();
            assert_eq!(batched.stats, single.stats, "{mode}");
            assert_eq!(batched.n_blocks, single.n_blocks);
            assert_eq!(batched.residency, single.residency);
        }
    }

    #[test]
    fn uniform_batch_scales_counters_linearly() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let sys = DistributedSystem::paper_default(cfg.clone(), 8).unwrap();
        let one = sys
            .simulate_batch(InferenceMode::Autoregressive, &BatchWorkload::uniform(1, 128, 0))
            .unwrap();
        let four = sys
            .simulate_batch(InferenceMode::Autoregressive, &BatchWorkload::uniform(4, 128, 0))
            .unwrap();
        assert_eq!(four.n_blocks, 4 * one.n_blocks);
        // Steady-state periodicity: byte counters scale exactly with the
        // number of request slots.
        assert_eq!(4 * one.stats.total_c2c_bytes(), four.stats.total_c2c_bytes());
        assert!(four.stats.makespan > 3 * one.stats.makespan);
    }

    #[test]
    fn mixed_prompt_batch_simulates_every_slot() {
        use mtp_model::RequestSpec;
        let cfg = TransformerConfig::tiny_llama_42m();
        let sys = DistributedSystem::paper_default(cfg.clone(), 4).unwrap();
        let mixed = BatchWorkload::new(vec![
            RequestSpec { prompt_len: 8, decode_len: 0, arrival: 0 },
            RequestSpec { prompt_len: 16, decode_len: 0, arrival: 2 },
        ])
        .unwrap();
        let report = sys.simulate_batch(InferenceMode::Prompt, &mixed).unwrap();
        assert_eq!(report.n_blocks, 2 * cfg.n_layers);
        // Two syncs per block instance, all distinct.
        assert_eq!(report.stats.sync_phases, 2 * 2 * cfg.n_layers);
        // The interleaved batch costs at least as much as each request
        // alone.
        for p in [8usize, 16] {
            let solo = sys
                .simulate_batch(InferenceMode::Prompt, &BatchWorkload::uniform(1, p, 0))
                .unwrap();
            assert!(report.stats.makespan > solo.stats.makespan, "prompt {p}");
        }
    }

    #[test]
    fn mixed_prompt_batch_equals_its_result_before_the_slot_memo() {
        // Figures captured before the batch path took its slots from the
        // system's memo, when every request compiled its own schedule.
        use mtp_model::RequestSpec;
        let prompts = [8usize, 16, 5, 16];
        let mixed = BatchWorkload::new(
            prompts
                .iter()
                .zip(0..)
                .map(|(&prompt_len, arrival)| RequestSpec { prompt_len, decode_len: 0, arrival })
                .collect(),
        )
        .unwrap();
        for (chips, makespan, c2c, residency) in [
            (4usize, 81_171_552u64, 2_211_840u64, WeightResidency::Streamed),
            (8, 24_148_520, 5_160_960, WeightResidency::DoubleBuffered),
        ] {
            let cfg = TransformerConfig::tiny_llama_42m();
            let sys = DistributedSystem::paper_default(cfg.clone(), chips).unwrap();
            let report = sys.simulate_batch(InferenceMode::Prompt, &mixed).unwrap();
            assert_eq!(report.stats.makespan, makespan, "{chips} chips");
            assert_eq!(report.stats.total_c2c_bytes(), c2c);
            assert_eq!(report.stats.sync_phases, 2 * prompts.len() * cfg.n_layers);
            assert_eq!(report.residency, residency);
            // The same pass built the old way, one compile per request.
            let machine = sys.machine();
            let compiled: Vec<CompiledSchedule> = prompts
                .iter()
                .map(|&p| {
                    let slot_cfg = cfg.clone().with_seq_len(p);
                    CompiledSchedule::compile(
                        &slot_cfg,
                        chips,
                        sys.chip(),
                        None,
                        InferenceMode::Prompt,
                    )
                    .unwrap()
                })
                .collect();
            let block = Lowered::concat(compiled.iter().map(CompiledSchedule::lowered));
            assert_eq!(report.stats, machine.run_periodic_lowered(&block, cfg.n_layers).unwrap());
            // Asked again, the memo answers with the same stats.
            let again = sys.simulate_batch(InferenceMode::Prompt, &mixed).unwrap();
            assert_eq!(again.stats, report.stats);
            assert_eq!(again.residency, report.residency);
        }
    }

    #[test]
    fn oversized_batch_context_is_rejected() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let sys = DistributedSystem::paper_default(cfg.clone(), 8).unwrap();
        let too_long = BatchWorkload::uniform(2, cfg.seq_len, 1);
        let err = sys.simulate_batch(InferenceMode::Autoregressive, &too_long).unwrap_err();
        assert!(err.to_string().contains("context"), "{err}");
    }
}
