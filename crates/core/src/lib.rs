//! The paper's contribution: tensor-parallel partitioning of Transformer
//! blocks across a network of low-power MCUs with **no weight replication**
//! and exactly **two synchronizations per block**, enabling execution with
//! stationary on-chip weights and, once a block's weights fit in aggregate
//! on-chip memory, super-linear speedups.
//!
//! # Scheme (paper Sec. IV)
//!
//! - `W_Q`, `W_K`, `W_V` are split along the **head** dimension: each of
//!   `N` chips holds `E x (H·P/N)` slices and computes its own heads'
//!   Q/K/V — head computations are fully independent.
//! - `W_O` is split along its **rows** (`H·P/N x E`): each chip produces a
//!   *partial* `S x E` MHSA output, combined by a hierarchical all-reduce
//!   (groups of four, Fig. 1) that also folds in the skip connection.
//! - The FFN matrices are split along the intermediate dimension `F`
//!   (`E x F/N` and `F/N x E`), again yielding partial `S x E` outputs and
//!   one more all-reduce.
//! - The block input is broadcast to all chips; per-chip KV-caches hold
//!   only the chip's own heads' columns.
//!
//! # Crate layout
//!
//! - [`slicing`]: weight slicing with the zero-duplication invariant;
//! - [`placement`]: the weight-residency policy (streamed / double-buffered
//!   / resident) that decides off-chip traffic;
//! - [`functional`]: value-level distributed execution, verified against
//!   the golden model in `mtp-model`;
//! - [`schedule`]: lowers one block into per-chip [`mtp_sim::Program`]s;
//! - [`system`]: ties everything together and produces [`report`]s with
//!   latency, runtime breakdown, and energy;
//! - [`baseline`]: pipeline-parallel and weight-replicated baselines for
//!   Table I and the ablation study.
//!
//! # Examples
//!
//! ```
//! use mtp_core::DistributedSystem;
//! use mtp_model::{InferenceMode, TransformerConfig};
//!
//! let cfg = TransformerConfig::tiny_llama_42m();
//! let system = DistributedSystem::paper_default(cfg, 8)?;
//! let report = system.simulate_block(InferenceMode::Autoregressive)?;
//! assert!(report.stats.makespan > 0);
//! assert_eq!(report.stats.sync_phases, 2); // two syncs per block
//! # Ok::<(), mtp_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
mod error;
pub mod failover;
pub mod functional;
pub mod placement;
pub mod quantized;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod slicing;
pub mod system;

pub use error::{CoreError, Result};
pub use failover::FailPolicy;
pub use placement::{MemoryPlan, WeightResidency};
pub use report::SystemReport;
pub use serve::{
    BatchPolicy, Billing, FaultProfile, PassRecord, RequestLatency, RequestOutcome, ServeReport,
    SlotPhase, MAX_SERVE_RETRIES,
};
pub use slicing::{slice_block, PartitionSpec, SlicedBlockWeights};
pub use system::DistributedSystem;
