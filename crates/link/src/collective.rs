//! Structural steps of collective operations.

/// One point-to-point message within a collective.
///
/// Steps are emitted in *dependency order*: for a reduction, every step at
/// `level` k may require the destination to have already received its
/// level-(k-1) messages; executing steps in slice order (and matching
/// receive order at each destination) is always correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommStep {
    /// Sending chip.
    pub from: usize,
    /// Receiving chip.
    pub to: usize,
    /// Tree level of this step (0 = leaf groups).
    pub level: usize,
}

impl CommStep {
    /// A step at a given tree level.
    #[must_use]
    pub const fn new(from: usize, to: usize, level: usize) -> Self {
        CommStep { from, to, level }
    }

    /// The same step with direction reversed (used to derive broadcast
    /// trees from reduction trees).
    #[must_use]
    pub const fn reversed(self) -> Self {
        CommStep { from: self.to, to: self.from, level: self.level }
    }
}

impl std::fmt::Display for CommStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chip{} -> chip{} (level {})", self.from, self.to, self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversal_swaps_endpoints() {
        let s = CommStep::new(3, 0, 1);
        let r = s.reversed();
        assert_eq!(r, CommStep::new(0, 3, 1));
        assert_eq!(r.reversed(), s);
    }

    #[test]
    fn display() {
        assert_eq!(CommStep::new(1, 0, 0).to_string(), "chip1 -> chip0 (level 0)");
    }
}
