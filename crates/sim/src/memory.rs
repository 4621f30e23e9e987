//! Memory-level specifications and transfer paths.

/// Specification of one memory level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySpec {
    /// Usable capacity in bytes (`u64::MAX` for unbounded off-chip memory).
    pub capacity_bytes: u64,
    /// Access energy in picojoules per byte (used by the energy model).
    pub energy_pj_per_byte: f64,
}

impl MemorySpec {
    /// A memory level with the given capacity and access energy.
    #[must_use]
    pub const fn new(capacity_bytes: u64, energy_pj_per_byte: f64) -> Self {
        MemorySpec { capacity_bytes, energy_pj_per_byte }
    }
}

/// A directed transfer path between adjacent memory levels.
///
/// The simulator attributes exposed DMA time and byte counters per path
/// *pair* (direction does not change cost), matching the paper's
/// `N_{L3<->L2}` / `N_{L2<->L1}` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemPath {
    /// Off-chip L3 into on-chip L2 (weight streaming / prefetch).
    L3ToL2,
    /// On-chip L2 out to L3 (KV-cache spill, intermediate spill).
    L2ToL3,
    /// L2 into the cluster's L1 TCDM (kernel operand staging).
    L2ToL1,
    /// L1 back to L2 (kernel results).
    L1ToL2,
}

impl MemPath {
    /// `true` when this path crosses the chip boundary (touches L3).
    #[must_use]
    pub const fn is_off_chip(self) -> bool {
        matches!(self, MemPath::L3ToL2 | MemPath::L2ToL3)
    }
}

impl std::fmt::Display for MemPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MemPath::L3ToL2 => "L3->L2",
            MemPath::L2ToL3 => "L2->L3",
            MemPath::L2ToL1 => "L2->L1",
            MemPath::L1ToL2 => "L1->L2",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_chip_classification() {
        assert!(MemPath::L3ToL2.is_off_chip());
        assert!(MemPath::L2ToL3.is_off_chip());
        assert!(!MemPath::L2ToL1.is_off_chip());
        assert!(!MemPath::L1ToL2.is_off_chip());
    }

    #[test]
    fn display() {
        assert_eq!(MemPath::L3ToL2.to_string(), "L3->L2");
        assert_eq!(MemPath::L1ToL2.to_string(), "L1->L2");
    }
}
