//! Simulator error type.

use crate::{ChipId, DmaTag, MsgId};

/// Convenient alias for `Result<T, SimError>`.
pub type Result<T> = std::result::Result<T, SimError>;

/// Errors produced while executing programs on the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The number of programs does not match the number of chips.
    ProgramCountMismatch {
        /// Chips in the machine.
        chips: usize,
        /// Programs supplied.
        programs: usize,
    },
    /// Execution stalled: every unfinished chip is blocked on a receive
    /// whose message is never sent.
    Deadlock {
        /// Chips blocked at deadlock detection time.
        blocked: Vec<ChipId>,
    },
    /// A `DmaWait` referenced a tag with no matching `DmaAsync`.
    UnknownDmaTag {
        /// The offending chip.
        chip: ChipId,
        /// The unknown tag.
        tag: DmaTag,
    },
    /// Two sends used the same message id.
    DuplicateMessage {
        /// The duplicated id.
        msg: MsgId,
    },
    /// A send targeted a chip outside the machine.
    InvalidChip {
        /// The offending target.
        chip: ChipId,
        /// Number of chips in the machine.
        chips: usize,
    },
    /// A chip hit a fail-stop fault event from the machine's
    /// [`FaultPlan`](crate::FaultPlan) while it still had work to do.
    ChipFailed {
        /// The failed chip.
        chip: ChipId,
        /// Local cycle of the fail-stop event.
        at: u64,
    },
    /// A receive named a different source than the matching send.
    SenderMismatch {
        /// Message in question.
        msg: MsgId,
        /// Source the receiver expected.
        expected: ChipId,
        /// Chip that actually sent the message.
        actual: ChipId,
    },
    /// An extrapolated run's cycle or byte counters do not fit in `u64`
    /// at this depth.
    CycleOverflow {
        /// The block count whose counters overflow.
        n_blocks: usize,
    },
    /// A chip's clock, a transfer's end time or a byte counter left
    /// `u64` while the executor ran (a huge transfer, stall or fault
    /// window), instead of wrapping to a wrong answer.
    CounterOverflow {
        /// The chip whose counter overflowed.
        chip: ChipId,
    },
    /// A lowered form was replayed on a machine whose chip prices
    /// kernels or DMA differently from the chip it was lowered for.
    FormPricingMismatch {
        /// The first chip whose pricing differs.
        chip: ChipId,
    },
    /// No steady state was proven, and the full run of `n_blocks`
    /// template copies would materialize more executor ops than
    /// [`crate::MAX_FULL_RUN_OPS`].
    FullRunBudget {
        /// The block count asked for.
        n_blocks: usize,
        /// Executor ops in one copy of the template.
        ops_per_block: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProgramCountMismatch { chips, programs } => {
                write!(f, "machine has {chips} chips but {programs} programs were supplied")
            }
            SimError::Deadlock { blocked } => {
                write!(f, "deadlock: {} chip(s) blocked on unmatched receives", blocked.len())
            }
            SimError::UnknownDmaTag { chip, tag } => {
                write!(f, "{chip} waited on unknown dma tag {}", tag.0)
            }
            SimError::DuplicateMessage { msg } => {
                write!(f, "message id {} sent more than once", msg.0)
            }
            SimError::InvalidChip { chip, chips } => {
                write!(f, "{chip} is outside the {chips}-chip machine")
            }
            SimError::ChipFailed { chip, at } => {
                write!(f, "{chip} fail-stopped at cycle {at}")
            }
            SimError::SenderMismatch { msg, expected, actual } => {
                write!(f, "message {} expected from {expected} but sent by {actual}", msg.0)
            }
            SimError::CycleOverflow { n_blocks } => {
                write!(f, "cycle counters overflow u64 at {n_blocks} blocks")
            }
            SimError::CounterOverflow { chip } => {
                write!(f, "{chip} cycle or byte counters overflow u64")
            }
            SimError::FormPricingMismatch { chip } => {
                write!(f, "{chip} prices kernels or DMA differently from the lowered form")
            }
            SimError::FullRunBudget { n_blocks, ops_per_block } => write!(
                f,
                "a full run of {n_blocks} blocks of {ops_per_block} ops each exceeds the budget \
                 of {} ops (MAX_FULL_RUN_OPS)",
                crate::MAX_FULL_RUN_OPS
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::ProgramCountMismatch { chips: 4, programs: 2 };
        assert!(e.to_string().contains("4 chips"));
        let e = SimError::Deadlock { blocked: vec![ChipId(0)] };
        assert!(e.to_string().contains("deadlock"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<SimError>();
    }
}
