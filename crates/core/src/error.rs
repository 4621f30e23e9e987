//! Error type for the partitioning library.

/// Convenient alias for `Result<T, CoreError>`.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors produced while partitioning, scheduling, or simulating.
#[derive(Debug)]
pub enum CoreError {
    /// The chip count does not divide the head count (MHSA slicing).
    HeadsNotDivisible {
        /// Attention heads in the model.
        heads: usize,
        /// Requested chips.
        chips: usize,
    },
    /// The chip count does not divide the key/value head count
    /// (grouped-query attention): zero-duplication K/V slicing would be
    /// impossible.
    KvHeadsNotDivisible {
        /// Key/value heads in the model.
        kv_heads: usize,
        /// Requested chips.
        chips: usize,
    },
    /// The chip count does not divide the FFN intermediate dimension.
    FfnNotDivisible {
        /// FFN intermediate dimension.
        ffn_dim: usize,
        /// Requested chips.
        chips: usize,
    },
    /// Zero chips requested.
    NoChips,
    /// The model configuration is internally inconsistent.
    InvalidConfig(String),
    /// An underlying tensor operation failed (indicates a bug in the
    /// schedule or slicing logic rather than user error).
    Tensor(mtp_tensor::TensorError),
    /// The timing simulation failed.
    Sim(mtp_sim::SimError),
    /// Topology construction failed.
    Topology(mtp_link::TopologyError),
    /// The serving clock left `u64` (a pass end or a retry's backed-off
    /// ready time), instead of wrapping to a wrong answer.
    ServeClockOverflow {
        /// The clock the overflowing addition started from.
        clock: u64,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::HeadsNotDivisible { heads, chips } => {
                write!(f, "{chips} chips cannot evenly share {heads} attention heads")
            }
            CoreError::KvHeadsNotDivisible { kv_heads, chips } => {
                write!(
                    f,
                    "{chips} chips cannot share {kv_heads} key/value heads without replication"
                )
            }
            CoreError::FfnNotDivisible { ffn_dim, chips } => {
                write!(f, "{chips} chips cannot evenly share an FFN dimension of {ffn_dim}")
            }
            CoreError::NoChips => write!(f, "at least one chip is required"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid model configuration: {msg}"),
            CoreError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            CoreError::Sim(e) => write!(f, "simulation failed: {e}"),
            CoreError::Topology(e) => write!(f, "topology construction failed: {e}"),
            CoreError::ServeClockOverflow { clock } => {
                write!(f, "serving clock overflows u64 past cycle {clock}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mtp_tensor::TensorError> for CoreError {
    fn from(e: mtp_tensor::TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<mtp_sim::SimError> for CoreError {
    fn from(e: mtp_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<mtp_link::TopologyError> for CoreError {
    fn from(e: mtp_link::TopologyError) -> Self {
        CoreError::Topology(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::HeadsNotDivisible { heads: 8, chips: 3 };
        assert!(e.to_string().contains("3 chips"));
        let e = CoreError::Tensor(mtp_tensor::TensorError::UnevenSplit { axis_len: 5, parts: 2 });
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
