//! Hierarchical group-of-4 reduction topology (paper Fig. 1).

use crate::CommStep;

/// Error building a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Zero chips requested.
    NoChips,
    /// Group size must be at least two.
    GroupTooSmall {
        /// The offending group size.
        group_size: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoChips => write!(f, "a topology needs at least one chip"),
            TopologyError::GroupTooSmall { group_size } => {
                write!(f, "group size {group_size} is too small (minimum 2)")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Shape of the collective: hierarchical tree or flat all-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    Hierarchical { group_size: usize },
    Flat,
}

/// Logical interconnection of the chips for collective operations.
///
/// The paper reduces partial outputs hierarchically in groups of four: each
/// group's members send to the group leader, which accumulates; group
/// leaders then form groups of four one level up, until the final output
/// lands on the root (chip 0). Broadcast retraces the same tree downward.
///
/// ```
/// use mtp_link::Topology;
/// let t = Topology::hierarchical(16, 4)?;
/// assert_eq!(t.depth(), 2);
/// assert_eq!(t.reduce_steps().len(), 15);
/// # Ok::<(), mtp_link::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n_chips: usize,
    scheme: Scheme,
    reduce: Vec<CommStep>,
    depth: usize,
}

impl Topology {
    /// A hierarchical tree over `n_chips` with the given `group_size`
    /// (the paper uses 4).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoChips`] when `n_chips == 0` and
    /// [`TopologyError::GroupTooSmall`] when `group_size < 2`.
    pub fn hierarchical(n_chips: usize, group_size: usize) -> Result<Self, TopologyError> {
        if n_chips == 0 {
            return Err(TopologyError::NoChips);
        }
        if group_size < 2 {
            return Err(TopologyError::GroupTooSmall { group_size });
        }
        let mut reduce = Vec::new();
        let mut active: Vec<usize> = (0..n_chips).collect();
        let mut level = 0;
        while active.len() > 1 {
            let mut next = Vec::with_capacity(active.len().div_ceil(group_size));
            for group in active.chunks(group_size) {
                let leader = group[0];
                for &member in &group[1..] {
                    reduce.push(CommStep::new(member, leader, level));
                }
                next.push(leader);
            }
            active = next;
            level += 1;
        }
        Ok(Topology { n_chips, scheme: Scheme::Hierarchical { group_size }, reduce, depth: level })
    }

    /// The paper's default: hierarchical groups of four.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoChips`] when `n_chips == 0`.
    pub fn paper_default(n_chips: usize) -> Result<Self, TopologyError> {
        Topology::hierarchical(n_chips, 4)
    }

    /// A flat all-to-one reduction (every chip sends directly to the root).
    /// The paper rejects this for its poor scalability; it is kept as an
    /// ablation baseline.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoChips`] when `n_chips == 0`.
    pub fn flat(n_chips: usize) -> Result<Self, TopologyError> {
        if n_chips == 0 {
            return Err(TopologyError::NoChips);
        }
        let reduce: Vec<CommStep> = (1..n_chips).map(|i| CommStep::new(i, 0, 0)).collect();
        let depth = usize::from(n_chips > 1);
        Ok(Topology { n_chips, scheme: Scheme::Flat, reduce, depth })
    }

    /// Number of chips.
    #[must_use]
    pub const fn n_chips(&self) -> usize {
        self.n_chips
    }

    /// The chip on which reductions terminate and broadcasts originate.
    #[must_use]
    pub const fn root(&self) -> usize {
        0
    }

    /// Number of tree levels (0 for a single chip).
    #[must_use]
    pub const fn depth(&self) -> usize {
        self.depth
    }

    /// Reduction steps in dependency order (leaf level first).
    #[must_use]
    pub fn reduce_steps(&self) -> &[CommStep] {
        &self.reduce
    }

    /// Broadcast steps in dependency order (root level first): the reduce
    /// tree reversed.
    #[must_use]
    pub fn broadcast_steps(&self) -> Vec<CommStep> {
        self.reduce.iter().rev().map(|s| s.reversed()).collect()
    }

    /// Total messages of one all-reduce (reduce + broadcast).
    #[must_use]
    pub fn all_reduce_message_count(&self) -> usize {
        2 * self.reduce.len()
    }

    /// `true` when this is the hierarchical (paper) scheme.
    #[must_use]
    pub fn is_hierarchical(&self) -> bool {
        matches!(self.scheme, Scheme::Hierarchical { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chip_has_no_steps() {
        let t = Topology::paper_default(1).unwrap();
        assert!(t.reduce_steps().is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn eight_chips_matches_paper_figure() {
        let t = Topology::paper_default(8).unwrap();
        let steps = t.reduce_steps();
        // Two leaf groups [0..4) and [4..8), then leaders 0 and 4.
        let expect = [
            CommStep::new(1, 0, 0),
            CommStep::new(2, 0, 0),
            CommStep::new(3, 0, 0),
            CommStep::new(5, 4, 0),
            CommStep::new(6, 4, 0),
            CommStep::new(7, 4, 0),
            CommStep::new(4, 0, 1),
        ];
        assert_eq!(steps, expect);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn reduce_has_n_minus_one_steps() {
        for n in [1usize, 2, 3, 4, 5, 8, 16, 31, 64] {
            let t = Topology::paper_default(n).unwrap();
            assert_eq!(t.reduce_steps().len(), n - 1, "n={n}");
        }
    }

    #[test]
    fn sixty_four_chips_has_depth_three() {
        let t = Topology::paper_default(64).unwrap();
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn broadcast_is_reverse_of_reduce() {
        let t = Topology::paper_default(8).unwrap();
        let bc = t.broadcast_steps();
        assert_eq!(bc.len(), 7);
        assert_eq!(bc[0], CommStep::new(0, 4, 1));
        assert_eq!(bc.last().copied().unwrap(), CommStep::new(0, 1, 0));
    }

    #[test]
    fn every_non_root_receives_broadcast_exactly_once() {
        for n in [2usize, 4, 8, 13, 16, 64] {
            let t = Topology::paper_default(n).unwrap();
            let mut received = vec![0usize; n];
            for s in t.broadcast_steps() {
                received[s.to] += 1;
            }
            assert_eq!(received[0], 0, "root never receives");
            assert!(received[1..].iter().all(|&c| c == 1), "n={n}");
        }
    }

    #[test]
    fn flat_topology() {
        let t = Topology::flat(8).unwrap();
        assert_eq!(t.reduce_steps().len(), 7);
        assert!(t.reduce_steps().iter().all(|s| s.to == 0 && s.level == 0));
        assert!(!t.is_hierarchical());
    }

    #[test]
    fn errors() {
        assert_eq!(Topology::paper_default(0), Err(TopologyError::NoChips));
        assert_eq!(
            Topology::hierarchical(4, 1),
            Err(TopologyError::GroupTooSmall { group_size: 1 })
        );
        assert_eq!(Topology::flat(0), Err(TopologyError::NoChips));
    }

    #[test]
    fn non_power_of_group_sizes() {
        // 6 chips in groups of 4: [0,1,2,3] and [4,5], then [0,4].
        let t = Topology::paper_default(6).unwrap();
        assert_eq!(t.reduce_steps().len(), 5);
        assert_eq!(t.reduce_steps()[4], CommStep::new(4, 0, 1));
    }

    #[test]
    fn all_reduce_message_count() {
        let t = Topology::paper_default(8).unwrap();
        assert_eq!(t.all_reduce_message_count(), 14);
    }

    #[test]
    fn binary_tree_with_odd_chip_counts_at_every_level() {
        // group_size == 2 halves (rounding up) per level, so odd counts
        // leave a lone survivor that passes through unpaired. 11 chips:
        // 11 -> 6 -> 3 -> 2 -> 1, and chip 10 stays active (unpaired)
        // through level 0.
        for n in [3usize, 5, 7, 11, 23] {
            let t = Topology::hierarchical(n, 2).unwrap();
            assert_eq!(t.reduce_steps().len(), n - 1, "n={n}");
            let mut expected_depth = 0;
            let mut active = n;
            while active > 1 {
                active = active.div_ceil(2);
                expected_depth += 1;
            }
            assert_eq!(t.depth(), expected_depth, "n={n}");
        }
        let t = Topology::hierarchical(11, 2).unwrap();
        assert_eq!(t.depth(), 4);
        // Level 0 pairs (1,0) (3,2) (5,4) (7,6) (9,8); chip 10 survives
        // alone and first sends at level 1 (to leader 8).
        let level0: Vec<_> = t.reduce_steps().iter().filter(|s| s.level == 0).collect();
        assert_eq!(level0.len(), 5);
        assert!(level0.iter().all(|s| s.from == s.to + 1));
        let chip10 = t.reduce_steps().iter().find(|s| s.from == 10).unwrap();
        assert_eq!((chip10.to, chip10.level), (8, 1));
    }

    #[test]
    fn per_level_fan_in_never_exceeds_group_size_minus_one() {
        for (n, g) in
            [(64usize, 2usize), (11, 2), (64, 4), (37, 4), (100, 7), (6, 5), (200, 3), (16, 16)]
        {
            let t = Topology::hierarchical(n, g).unwrap();
            let mut fan_in: std::collections::HashMap<(usize, usize), usize> =
                std::collections::HashMap::new();
            for s in t.reduce_steps() {
                *fan_in.entry((s.to, s.level)).or_default() += 1;
            }
            for (&(to, level), &count) in &fan_in {
                assert!(
                    count < g,
                    "n={n} g={g}: leader {to} receives {count} messages at level {level} \
                     (max {})",
                    g - 1
                );
            }
        }
    }

    #[test]
    fn levels_are_monotone_and_leaders_persist_upward() {
        // Steps come in dependency order: levels never decrease, and a
        // chip that has already sent (been reduced into its leader) can
        // never reappear as a sender or receiver at a later level.
        for (n, g) in [(64usize, 2usize), (11, 2), (37, 4), (100, 7)] {
            let t = Topology::hierarchical(n, g).unwrap();
            let mut last_level = 0;
            let mut retired = vec![false; n];
            for s in t.reduce_steps() {
                assert!(s.level >= last_level, "n={n} g={g}: levels must be monotone");
                last_level = s.level;
                assert!(!retired[s.from], "n={n} g={g}: chip {} sends twice", s.from);
                assert!(!retired[s.to], "n={n} g={g}: retired leader {} receives", s.to);
                retired[s.from] = true;
            }
            assert!(!retired[t.root()], "the root is never reduced away");
        }
    }
}
