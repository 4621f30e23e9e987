//! MIPI chip-to-chip link model, hierarchical group-of-4 topology, and
//! collective communication plans.
//!
//! The paper connects Siracusa chips with MIPI serial links (0.5 GB/s,
//! 100 pJ/B) and performs all-reduce operations *hierarchically in groups
//! of four* to limit contention (Fig. 1). This crate provides:
//!
//! - [`LinkPortSpec`]: the analytical MIPI port model;
//! - [`Topology`]: the logical reduction tree over `n` chips;
//! - [`CommStep`] sequences for reduce ([`Topology::reduce_steps`]) and
//!   broadcast ([`Topology::broadcast_steps`]), plus flat all-to-one
//!   variants used as an ablation baseline.
//!
//! The plans are *purely structural* — which chip sends to which, in what
//! dependency order. Timing is applied by the simulator in `mtp-sim`, and
//! values are applied by the functional executor in `mtp-core`.
//!
//! # Examples
//!
//! ```
//! use mtp_link::Topology;
//! let t = Topology::hierarchical(8, 4)?;
//! // 7 point-to-point messages reduce 8 partial tensors onto the root.
//! assert_eq!(t.reduce_steps().len(), 7);
//! assert_eq!(t.root(), 0);
//! # Ok::<(), mtp_link::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod collective;
mod mipi;
mod regime;
mod topology;

pub use collective::CommStep;
pub use mipi::{payload_cycles, LinkPortSpec};
pub use regime::{
    go_back_n_overhead, GoBackNOutcome, LinkRegime, QueueDiscipline, GO_BACK_N_WINDOW,
    LOSSY_MAX_ATTEMPTS, LOSSY_MTU_BYTES,
};
pub use topology::{Topology, TopologyError};
