//! Weight-residency policy: where a chip's weights live and how they move.
//!
//! The regime a configuration falls into is what produces the paper's
//! speedup shapes:
//!
//! - **Streamed**: one block's slice (double-buffered) does not fit in
//!   usable L2. Weights are fetched synchronously from L3 in small tiles
//!   during execution — the latency-exposed, off-chip-bound regime of the
//!   single-chip baseline (and of 2/4-chip TinyLlama).
//! - **Double-buffered**: two block slices fit. The next block's slice is
//!   prefetched asynchronously while the current block runs; L3 traffic is
//!   unchanged but off the critical path unless the prefetch is longer
//!   than the block's compute.
//! - **Resident**: every layer's slice fits at once. After a one-time
//!   load, steady-state execution performs **zero** off-chip transfers
//!   (the paper's 32/64-chip scaled-up result).

use crate::{PartitionSpec, Result};
use mtp_model::{AttentionKind, TransformerConfig};
use mtp_sim::ChipSpec;

/// Steady-state residency of a chip's weight slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightResidency {
    /// Slices streamed synchronously from L3 each block.
    Streamed,
    /// Next block's slice prefetched asynchronously (double buffering).
    DoubleBuffered,
    /// All layers' slices stay in on-chip memory; no steady-state L3
    /// traffic.
    Resident,
}

impl WeightResidency {
    /// The regime's name in tables and output rows: `streamed`,
    /// `double-buffered` or `resident` (also its `Display` form).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WeightResidency::Streamed => "streamed",
            WeightResidency::DoubleBuffered => "double-buffered",
            WeightResidency::Resident => "resident",
        }
    }
}

impl std::fmt::Display for WeightResidency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The memory plan for one chip of the distributed system.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// Chosen residency regime.
    pub residency: WeightResidency,
    /// One block's weight-slice bytes per chip.
    pub slice_bytes_per_block: u64,
    /// Per-chip KV-cache bytes (0 for encoders).
    pub kv_bytes: u64,
    /// Usable L2 bytes the plan was computed against.
    pub l2_usable_bytes: u64,
    /// Tile size (bytes) for synchronous streaming in the streamed regime.
    pub stream_tile_bytes: u64,
}

impl MemoryPlan {
    /// Decides the residency regime for `cfg` partitioned over
    /// `spec.n_chips()` chips of type `chip`.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid specs; returns `Result` for forward
    /// compatibility with heterogeneous-chip plans.
    pub fn decide(cfg: &TransformerConfig, spec: &PartitionSpec, chip: &ChipSpec) -> Result<Self> {
        let l2 = chip.l2_usable_bytes();
        let slice = spec.slice_bytes_per_block();
        let kv = if cfg.attention == AttentionKind::CausalRope {
            spec.kv_slice_bytes(cfg.seq_len)
        } else {
            0
        };
        let all_layers = slice * cfg.n_layers as u64;
        let residency = if all_layers + kv * cfg.n_layers as u64 <= l2 {
            WeightResidency::Resident
        } else if 2 * slice + kv <= l2 {
            WeightResidency::DoubleBuffered
        } else {
            WeightResidency::Streamed
        };
        Ok(MemoryPlan {
            residency,
            slice_bytes_per_block: slice,
            kv_bytes: kv,
            l2_usable_bytes: l2,
            stream_tile_bytes: 4 * 1024,
        })
    }

    /// L3 bytes a chip moves per block in steady state.
    #[must_use]
    pub fn l3_bytes_per_block(&self) -> u64 {
        match self.residency {
            WeightResidency::Resident => 0,
            _ => self.slice_bytes_per_block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_model::TransformerConfig;

    fn plan(cfg: &TransformerConfig, n: usize) -> MemoryPlan {
        let spec = PartitionSpec::new(cfg, n).unwrap();
        MemoryPlan::decide(cfg, &spec, &ChipSpec::siracusa()).unwrap()
    }

    #[test]
    fn tiny_llama_regimes_match_paper() {
        // Paper: super-linear only at 8 chips; 1/2/4 chips must stream.
        let cfg = TransformerConfig::tiny_llama_42m();
        assert_eq!(plan(&cfg, 1).residency, WeightResidency::Streamed);
        assert_eq!(plan(&cfg, 2).residency, WeightResidency::Streamed);
        assert_eq!(plan(&cfg, 4).residency, WeightResidency::Streamed);
        assert_eq!(plan(&cfg, 8).residency, WeightResidency::DoubleBuffered);
    }

    #[test]
    fn scaled_model_resident_at_32_chips() {
        // Paper Sec. V-C: "with 32 chips, all model weights fit on-chip,
        // and double-buffering is no longer required".
        let cfg = TransformerConfig::tiny_llama_scaled_64h();
        assert_eq!(plan(&cfg, 8).residency, WeightResidency::DoubleBuffered);
        assert_eq!(plan(&cfg, 16).residency, WeightResidency::DoubleBuffered);
        assert_eq!(plan(&cfg, 32).residency, WeightResidency::Resident);
        assert_eq!(plan(&cfg, 64).residency, WeightResidency::Resident);
    }

    #[test]
    fn mobile_bert_regimes_match_paper() {
        // Paper: MobileBERT super-linear at 4 chips (off-chip transfers
        // suppressed); single chip cannot double-buffer.
        let cfg = TransformerConfig::mobile_bert();
        assert_eq!(plan(&cfg, 1).residency, WeightResidency::Streamed);
        assert_eq!(plan(&cfg, 4).residency, WeightResidency::DoubleBuffered);
    }

    #[test]
    fn resident_plans_have_zero_l3() {
        let cfg = TransformerConfig::tiny_llama_scaled_64h();
        assert_eq!(plan(&cfg, 64).l3_bytes_per_block(), 0);
        assert!(plan(&cfg, 8).l3_bytes_per_block() > 0);
    }

    #[test]
    fn encoder_has_no_kv() {
        let cfg = TransformerConfig::mobile_bert();
        assert_eq!(plan(&cfg, 4).kv_bytes, 0);
        let cfg = TransformerConfig::tiny_llama_42m();
        assert!(plan(&cfg, 8).kv_bytes > 0);
    }
}
