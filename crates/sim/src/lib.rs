//! Event-driven multi-chip MCU simulator (Siracusa-class).
//!
//! This crate is the GVSoC-equivalent substrate of the reproduction: it
//! simulates a network of low-power MCUs, each with an octa-core compute
//! cluster, a two-level scratchpad hierarchy (L1 TCDM / L2), an off-chip L3
//! memory reached through an I/O DMA, and a MIPI-class chip-to-chip port.
//!
//! The simulator consumes per-chip [`Program`]s — straight-line instruction
//! sequences of kernels, DMA transfers, sends/receives and synchronization
//! markers — and produces [`RunStats`]: the end-to-end makespan, a per-chip
//! runtime breakdown into the same four categories the paper plots
//! (computation, L3↔L2 DMA, L2↔L1 DMA, chip-to-chip link), and the byte
//! counters the analytical energy model consumes.
//!
//! Fidelity matches what the paper extracts from GVSoC: latencies and
//! per-memory-level access counts. See `DESIGN.md` for the substitution
//! statement and the calibration notes.
//!
//! # Examples
//!
//! ```
//! use mtp_sim::{ChipSpec, Instr, Machine, MemPath, Program};
//! use mtp_kernels::Kernel;
//!
//! let machine = Machine::homogeneous(ChipSpec::siracusa(), 2);
//! let p0 = Program::from_instrs([
//!     Instr::compute(Kernel::gemv(64, 64)),
//!     Instr::send(1, 0, 256),
//! ]);
//! let p1 = Program::from_instrs([Instr::recv(0, 0)]);
//! let stats = machine.run(&[p0, p1])?;
//! assert!(stats.makespan > 0);
//! # Ok::<(), mtp_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chip;
mod dma;
mod error;
mod exec;
mod fault;
mod gantt;
mod lower;
mod memory;
mod periodic;
mod program;
mod sink;
mod symbolic;
mod trace;

pub use chip::{ChipSpec, LinkPortSpec, LinkRegime, QueueDiscipline};
pub use dma::DmaSpec;
pub use error::{Result, SimError};
pub use exec::Machine;
pub use fault::{FaultEvent, FaultPlan, DEFAULT_SEEDED_HORIZON, MAX_SEEDED_FAULTS};
pub use gantt::{Trace, TraceEvent, TraceKind};
pub use lower::Lowered;
pub use memory::{MemPath, MemorySpec};
pub use periodic::{WarmupCheckpoint, FULL_RUN_THRESHOLD, MAX_FULL_RUN_OPS};
pub use program::{id_span, ChipId, DmaTag, Instr, MsgId, Program};
pub use sink::{MakespanOnly, TraceCollector, TraceSink};
pub use symbolic::SymbolicMakespan;
pub use trace::{Breakdown, ChipStats, RunStats};
