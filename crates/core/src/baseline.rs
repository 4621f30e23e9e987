//! Baseline partitioning strategies the paper compares against (Table I).
//!
//! - [`pipeline`]: PipeEdge/Hermes-style **pipeline parallelism** — whole
//!   layers assigned to chips, activations handed chip to chip. No weight
//!   replication, but a single real-time request cannot use more than one
//!   chip at a time, so request latency does not improve (the paper's
//!   argument against pipelining for smart glasses).
//! - [`replicated`]: Hu & Li-style **sequence parallelism with replicated
//!   weights** — every chip holds the *full* model and processes a slice
//!   of the sequence rows. Compute parallelizes, but the on-chip memory
//!   problem is untouched: every chip streams the full weights from L3.
//!
//! Both baselines run through the same simulator and produce the same
//! [`SystemReport`] as the paper's scheme, so the ablation bench can plot
//! all three side by side.

use crate::{report, CoreError, Result, SystemReport, WeightResidency};
use mtp_kernels::Kernel;
use mtp_model::{AttentionKind, InferenceMode, NormKind, TransformerConfig};
use mtp_sim::{ChipSpec, Instr, Machine, MemPath, Program};

/// Qualitative properties of a partitioning strategy (the rows of the
/// paper's Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyProperties {
    /// Strategy name.
    pub name: String,
    /// Whether the strategy relies on pipelining across requests.
    pub pipelining: bool,
    /// Weight replication factor (1 = no duplication).
    pub weight_replication: usize,
    /// Chip synchronizations per Transformer block for one request.
    pub syncs_per_block: usize,
}

/// Properties of the paper's scheme for an `n`-chip system.
#[must_use]
pub fn ours_properties(_n_chips: usize) -> StrategyProperties {
    StrategyProperties {
        name: "Ours (head/FFN tensor parallelism)".to_owned(),
        pipelining: false,
        weight_replication: 1,
        syncs_per_block: 2,
    }
}

/// Properties of the pipeline baseline.
#[must_use]
pub fn pipeline_properties(_n_chips: usize) -> StrategyProperties {
    StrategyProperties {
        name: "Pipeline parallel (PipeEdge/Hermes-style)".to_owned(),
        pipelining: true,
        weight_replication: 1,
        syncs_per_block: 0,
    }
}

/// Properties of the replicated-weights baseline.
#[must_use]
pub fn replicated_properties(n_chips: usize) -> StrategyProperties {
    StrategyProperties {
        name: "Sequence parallel, replicated weights".to_owned(),
        pipelining: false,
        weight_replication: n_chips,
        syncs_per_block: 1,
    }
}

/// Per-chip weight residency when each chip stores `blocks_per_chip` whole
/// (unsliced) blocks.
fn full_block_residency(
    cfg: &TransformerConfig,
    blocks_per_chip: usize,
    chip: &ChipSpec,
) -> WeightResidency {
    let l2 = chip.l2_usable_bytes();
    let block = cfg.block_weight_bytes();
    let kv = if cfg.attention == AttentionKind::CausalRope {
        cfg.kv_cache_bytes_per_block(cfg.seq_len)
    } else {
        0
    };
    if (block + kv) * blocks_per_chip as u64 <= l2 {
        WeightResidency::Resident
    } else if 2 * block + kv <= l2 {
        WeightResidency::DoubleBuffered
    } else {
        WeightResidency::Streamed
    }
}

/// Emits one *full-width* (unsliced) Transformer block on a single chip:
/// the kernel sequence a non-tensor-parallel chip executes.
///
/// `sq` is the number of query tokens, `skv` the context length.
fn emit_full_block(
    prog: &mut Program,
    cfg: &TransformerConfig,
    sq: usize,
    skv: usize,
    residency: WeightResidency,
    stream_tile: u64,
) {
    let dt = cfg.dtype.size_bytes();
    let e = cfg.embed_dim;
    let f = cfg.ffn_dim;
    let hd = cfg.head_dim();
    let h = cfg.n_heads;
    let decoder = cfg.attention == AttentionKind::CausalRope;
    let stream = |prog: &mut Program, bytes: u64| {
        if residency == WeightResidency::Streamed {
            prog.push_stream(MemPath::L3ToL2, bytes, stream_tile);
        }
    };
    let linear = |prog: &mut Program, kernel: Kernel| {
        prog.push(Instr::Dma { path: MemPath::L2ToL1, bytes: kernel.l2_l1_traffic_bytes(dt) });
        prog.push(Instr::Compute(kernel));
    };
    // QKV.
    for _ in 0..3 {
        stream(prog, (e * e * dt) as u64);
        linear(prog, Kernel::linear(sq, e, e));
    }
    if decoder {
        prog.push(Instr::Compute(Kernel::Rope { seq: sq * h, dim: hd }));
        prog.push(Instr::Compute(Kernel::Rope { seq: sq * h, dim: hd }));
        prog.push(Instr::Dma { path: MemPath::L2ToL1, bytes: (2 * skv * e * dt) as u64 });
    }
    for _ in 0..h {
        prog.push(Instr::Compute(Kernel::linear(sq, hd, skv)));
        prog.push(Instr::Compute(Kernel::Softmax { rows: sq, cols: skv }));
        prog.push(Instr::Compute(Kernel::linear(sq, skv, hd)));
    }
    stream(prog, (e * e * dt) as u64);
    linear(prog, Kernel::linear(sq, e, e));
    // Skip + norm 1.
    prog.push(Instr::Compute(Kernel::Add { n: sq * e }));
    prog.push(Instr::Compute(match cfg.norm {
        NormKind::LayerNorm => Kernel::LayerNorm { rows: sq, cols: e },
        NormKind::RmsNorm => Kernel::RmsNorm { rows: sq, cols: e },
    }));
    // FFN.
    stream(prog, (e * f * dt) as u64);
    linear(prog, Kernel::linear(sq, e, f));
    prog.push(Instr::Compute(Kernel::Gelu { n: sq * f }));
    stream(prog, (f * e * dt) as u64);
    linear(prog, Kernel::linear(sq, f, e));
    prog.push(Instr::Compute(Kernel::Add { n: sq * e }));
    prog.push(Instr::Compute(match cfg.norm {
        NormKind::LayerNorm => Kernel::LayerNorm { rows: sq, cols: e },
        NormKind::RmsNorm => Kernel::RmsNorm { rows: sq, cols: e },
    }));
}

/// Pipeline-parallel baseline: layers distributed over chips, one
/// real-time request traversing them sequentially.
pub mod pipeline {
    use super::*;

    /// Simulates one full model pass of a single request through an
    /// `n_chips` pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoChips`] for zero chips and propagates
    /// simulator errors.
    pub fn simulate_model(
        cfg: &TransformerConfig,
        n_chips: usize,
        chip: &ChipSpec,
        mode: InferenceMode,
    ) -> Result<SystemReport> {
        if n_chips == 0 {
            return Err(CoreError::NoChips);
        }
        let sq = cfg.tokens_per_pass(mode);
        let decoder = cfg.attention == AttentionKind::CausalRope;
        let skv = if decoder && mode == InferenceMode::Autoregressive { cfg.seq_len } else { sq };
        let blocks_per_chip = cfg.n_layers.div_ceil(n_chips);
        let residency = full_block_residency(cfg, blocks_per_chip, chip);
        let act_bytes = (sq * cfg.embed_dim * cfg.dtype.size_bytes()) as u64;

        let mut progs = vec![Program::new(); n_chips];
        let mut layer = 0usize;
        // The stage index is semantically meaningful here (message ids and
        // neighbours derive from it), so a range loop reads best.
        #[allow(clippy::needless_range_loop)]
        for c in 0..n_chips {
            if c > 0 {
                // Stage c waits for the activations of stage c-1
                // (message id = index of the sending stage).
                progs[c].push(Instr::recv(c - 1, (c - 1) as u64));
            }
            let assigned = blocks_per_chip.min(cfg.n_layers - layer);
            for _ in 0..assigned {
                emit_full_block(&mut progs[c], cfg, sq, skv, residency, 2048);
                layer += 1;
            }
            if c + 1 < n_chips {
                progs[c].push(Instr::send(c + 1, c as u64, act_bytes));
            }
        }
        let machine = Machine::homogeneous(*chip, n_chips);
        let stats = machine.run(&progs)?;
        Ok(report::from_stats(chip, n_chips, mode, cfg.n_layers, residency, stats))
    }
}

/// Replicated-weights sequence-parallel baseline.
pub mod replicated {
    use super::*;

    /// Simulates one full model pass with the sequence rows split over
    /// `n_chips`, each holding the complete weights.
    ///
    /// In autoregressive mode there is a single query row, so this
    /// baseline degenerates to single-chip execution — exactly the
    /// real-time limitation the paper points out.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoChips`] for zero chips and propagates
    /// simulator errors.
    pub fn simulate_model(
        cfg: &TransformerConfig,
        n_chips: usize,
        chip: &ChipSpec,
        mode: InferenceMode,
    ) -> Result<SystemReport> {
        if n_chips == 0 {
            return Err(CoreError::NoChips);
        }
        let s_total = cfg.tokens_per_pass(mode);
        let rows_split = s_total >= n_chips && mode == InferenceMode::Prompt;
        let active = if rows_split { n_chips } else { 1 };
        let sq = if rows_split { s_total.div_ceil(n_chips) } else { s_total };
        let decoder = cfg.attention == AttentionKind::CausalRope;
        let skv =
            if decoder && mode == InferenceMode::Autoregressive { cfg.seq_len } else { s_total };
        // Full weights on every chip: residency decided for one block set.
        let residency = full_block_residency(cfg, cfg.n_layers, chip);
        let kv_gather_bytes = (2 * sq * cfg.embed_dim * cfg.dtype.size_bytes()) as u64;

        let mut progs = vec![Program::new(); n_chips];
        let mut msg = 0u64;
        for _ in 0..cfg.n_layers {
            for prog in progs.iter_mut().take(active) {
                // Every chip computes its rows of the full-width block.
                emit_full_block(prog, cfg, sq, skv, residency, 2048);
            }
            if active > 1 {
                // K/V all-gather: everyone ships its rows to chip 0, which
                // redistributes (one sync per block).
                for p in progs.iter_mut().take(active) {
                    p.push(Instr::Sync(msg as u32));
                }
                for c in 1..active {
                    progs[c].push(Instr::send(0, msg, kv_gather_bytes));
                    progs[0].push(Instr::recv(c, msg));
                    msg += 1;
                }
                for c in 1..active {
                    progs[0].push(Instr::send(c, msg, kv_gather_bytes * (active as u64 - 1)));
                    progs[c].push(Instr::recv(0, msg));
                    msg += 1;
                }
            }
        }
        let machine = Machine::homogeneous(*chip, n_chips);
        let stats = machine.run(&progs)?;
        Ok(report::from_stats(chip, n_chips, mode, cfg.n_layers, residency, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properties_table() {
        assert_eq!(ours_properties(8).weight_replication, 1);
        assert_eq!(ours_properties(8).syncs_per_block, 2);
        assert!(pipeline_properties(8).pipelining);
        assert_eq!(replicated_properties(8).weight_replication, 8);
    }

    #[test]
    fn pipeline_latency_does_not_beat_single_chip_compute() {
        // For one real-time request, an N-stage pipeline is sequential.
        let cfg = TransformerConfig::tiny_llama_42m();
        let chip = ChipSpec::siracusa();
        let one = pipeline::simulate_model(&cfg, 1, &chip, InferenceMode::Autoregressive).unwrap();
        let four = pipeline::simulate_model(&cfg, 4, &chip, InferenceMode::Autoregressive).unwrap();
        // Pipelining may gain from better residency, but never the
        // super-linear factors tensor parallelism reaches.
        let speedup = four.speedup_over(&one);
        assert!(speedup < 4.0, "pipeline speedup {speedup:.1} should stay sub-linear");
    }

    #[test]
    fn replicated_autoregressive_degenerates_to_single_chip() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let chip = ChipSpec::siracusa();
        let one =
            replicated::simulate_model(&cfg, 1, &chip, InferenceMode::Autoregressive).unwrap();
        let four =
            replicated::simulate_model(&cfg, 4, &chip, InferenceMode::Autoregressive).unwrap();
        assert_eq!(one.stats.makespan, four.stats.makespan);
    }

    #[test]
    fn replicated_keeps_streaming_weights() {
        // Replication means every chip still streams the full model: the
        // L3 bottleneck is untouched (total L3 traffic grows with chips).
        let cfg = TransformerConfig::tiny_llama_42m().with_seq_len(16);
        let chip = ChipSpec::siracusa();
        let one = replicated::simulate_model(&cfg, 1, &chip, InferenceMode::Prompt).unwrap();
        let four = replicated::simulate_model(&cfg, 4, &chip, InferenceMode::Prompt).unwrap();
        assert_eq!(four.residency, WeightResidency::Streamed);
        assert!(four.stats.makespan > one.stats.makespan / 4, "no super-linear scaling");
        assert!(
            four.energy.l3_mj > 3.0 * one.energy.l3_mj,
            "replication multiplies off-chip traffic"
        );
    }

    #[test]
    fn zero_chips_rejected() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let chip = ChipSpec::siracusa();
        assert!(pipeline::simulate_model(&cfg, 0, &chip, InferenceMode::Prompt).is_err());
        assert!(replicated::simulate_model(&cfg, 0, &chip, InferenceMode::Prompt).is_err());
    }
}
