//! Run statistics: makespan, per-chip breakdowns, byte counters.

/// Per-chip counters accumulated by the executor.
///
/// *Exposed* cycles are time on the chip's critical path (blocking
/// transfers, stalls at `DmaWait`/`Recv`); bytes are counted for every
/// transfer regardless of overlap, because the energy model charges bytes,
/// not time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChipStats {
    /// Cycles the cluster spent executing kernels.
    pub compute_cycles: u64,
    /// Exposed cycles of L3↔L2 transfers (off-chip DMA).
    pub dma_l3_l2_exposed_cycles: u64,
    /// Exposed cycles of L2↔L1 transfers (cluster DMA).
    pub dma_l2_l1_exposed_cycles: u64,
    /// Exposed cycles blocked on the chip-to-chip link.
    pub c2c_exposed_cycles: u64,
    /// Bytes moved between L3 and L2 (both directions).
    pub dma_l3_l2_bytes: u64,
    /// Bytes moved between L2 and L1 (both directions).
    pub dma_l2_l1_bytes: u64,
    /// Bytes this chip pushed onto the chip-to-chip link.
    pub c2c_bytes_sent: u64,
    /// Number of `Sync` markers this chip executed.
    pub sync_marks: u64,
    /// Local clock when the chip finished its program.
    pub finish_cycles: u64,
    /// Cycles this chip's sends waited for the remote ingress port or
    /// buffer credit beyond the chip's own readiness (queued link regimes
    /// only; a sub-category of [`Self::c2c_exposed_cycles`], so it does
    /// not enter the breakdown or idle residual).
    pub c2c_queue_cycles: u64,
    /// Peak occupancy of this chip's ingress queue in bytes (queued link
    /// regimes only).
    pub c2c_peak_queue_bytes: u64,
    /// Messages or packets this chip's sends had dropped (drop-tail and
    /// lossy link regimes).
    pub c2c_drops: u64,
    /// Packets this chip retransmitted (drop-tail and lossy link
    /// regimes).
    pub c2c_retransmits: u64,
    /// Packets whose go-back-N retry budget was exhausted and were forced
    /// through (lossy link regime only) — delivery despite this counter
    /// being non-zero means the modeling safety valve engaged, not that
    /// the link succeeded.
    pub c2c_gave_up: u64,
    /// Cycles this chip was frozen by transient stall faults
    /// ([`FaultEvent::Stall`](crate::FaultEvent::Stall)). Stall time is
    /// not an exposed work category, so it surfaces in the idle residual
    /// of the breakdown.
    pub fault_stall_cycles: u64,
    /// Extra compute cycles charged by slowdown-window faults
    /// ([`FaultEvent::Slow`](crate::FaultEvent::Slow)); a sub-category of
    /// [`Self::compute_cycles`], so it does not enter the breakdown or
    /// idle residual separately.
    pub fault_slow_cycles: u64,
    /// Extra link cycles charged by link-degrade faults
    /// ([`FaultEvent::Flap`](crate::FaultEvent::Flap)); a sub-category of
    /// [`Self::c2c_exposed_cycles`], so it does not enter the breakdown
    /// or idle residual separately.
    pub fault_link_cycles: u64,
    /// Number of this chip's sends stretched by a link-degrade window.
    pub fault_transfers_affected: u64,
    /// Cycles of work lost to a fail-stop and replayed elsewhere
    /// (attributed by the failover policies in `mtp-core`; the executor
    /// itself reports fail-stop as a typed error and leaves this zero).
    pub fault_downtime_cycles: u64,
}

impl ChipStats {
    /// Adds another run's counters for the same chip into this one —
    /// the merge used when two runs of the same machine compose
    /// sequentially (periodic extrapolation, failover replay).
    ///
    /// All additive counters sum; `c2c_peak_queue_bytes` takes the max.
    /// `finish_cycles` is deliberately **not** touched: wall-clock
    /// composition depends on the gap between the runs, so the caller
    /// sets it.
    pub fn accumulate(&mut self, other: &ChipStats) {
        self.compute_cycles += other.compute_cycles;
        self.dma_l3_l2_exposed_cycles += other.dma_l3_l2_exposed_cycles;
        self.dma_l2_l1_exposed_cycles += other.dma_l2_l1_exposed_cycles;
        self.c2c_exposed_cycles += other.c2c_exposed_cycles;
        self.dma_l3_l2_bytes += other.dma_l3_l2_bytes;
        self.dma_l2_l1_bytes += other.dma_l2_l1_bytes;
        self.c2c_bytes_sent += other.c2c_bytes_sent;
        self.sync_marks += other.sync_marks;
        self.c2c_queue_cycles += other.c2c_queue_cycles;
        self.c2c_peak_queue_bytes = self.c2c_peak_queue_bytes.max(other.c2c_peak_queue_bytes);
        self.c2c_drops += other.c2c_drops;
        self.c2c_retransmits += other.c2c_retransmits;
        self.c2c_gave_up += other.c2c_gave_up;
        self.fault_stall_cycles += other.fault_stall_cycles;
        self.fault_slow_cycles += other.fault_slow_cycles;
        self.fault_link_cycles += other.fault_link_cycles;
        self.fault_transfers_affected += other.fault_transfers_affected;
        self.fault_downtime_cycles += other.fault_downtime_cycles;
    }

    /// This chip's runtime breakdown (compute / DMA / link / idle).
    #[must_use]
    pub fn breakdown(&self) -> Breakdown {
        Breakdown {
            compute: self.compute_cycles,
            dma_l3_l2: self.dma_l3_l2_exposed_cycles,
            dma_l2_l1: self.dma_l2_l1_exposed_cycles,
            c2c: self.c2c_exposed_cycles,
            idle: self.idle_cycles(),
        }
    }

    /// Idle cycles: finish time minus all accounted exposed categories.
    #[must_use]
    pub fn idle_cycles(&self) -> u64 {
        self.finish_cycles.saturating_sub(
            self.compute_cycles
                + self.dma_l3_l2_exposed_cycles
                + self.dma_l2_l1_exposed_cycles
                + self.c2c_exposed_cycles,
        )
    }
}

/// Runtime breakdown into the four categories of the paper's Fig. 4, plus
/// idle time (cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Cluster computation.
    pub compute: u64,
    /// DMA transfers between L3 and L2 (exposed).
    pub dma_l3_l2: u64,
    /// DMA transfers between L2 and L1 (exposed).
    pub dma_l2_l1: u64,
    /// Chip-to-chip link time (exposed).
    pub c2c: u64,
    /// Idle / load-imbalance time.
    pub idle: u64,
}

impl Breakdown {
    /// Sum of all categories.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.compute + self.dma_l3_l2 + self.dma_l2_l1 + self.c2c + self.idle
    }
}

impl std::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compute={} l3l2={} l2l1={} c2c={} idle={}",
            self.compute, self.dma_l3_l2, self.dma_l2_l1, self.c2c, self.idle
        )
    }
}

/// Result of executing one set of programs on a [`crate::Machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// End-to-end runtime in cycles (max finish over chips).
    pub makespan: u64,
    /// Per-chip counters, indexed by chip id.
    pub per_chip: Vec<ChipStats>,
    /// Number of distinct collective synchronization phases observed.
    pub sync_phases: usize,
}

impl RunStats {
    pub(crate) fn new(per_chip: Vec<ChipStats>, sync_phases: usize) -> Self {
        let makespan = per_chip.iter().map(|c| c.finish_cycles).max().unwrap_or(0);
        RunStats { makespan, per_chip, sync_phases }
    }

    /// Index of the chip that finishes last (the critical chip).
    #[must_use]
    pub fn critical_chip(&self) -> usize {
        self.per_chip
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.finish_cycles)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Runtime breakdown of the critical chip (what the paper's stacked
    /// bars show).
    #[must_use]
    pub fn critical_breakdown(&self) -> Breakdown {
        self.per_chip.get(self.critical_chip()).map(ChipStats::breakdown).unwrap_or_default()
    }

    /// Total bytes moved between L3 and L2 across all chips
    /// (`N_{L3<->L2}` in the paper's energy formula).
    #[must_use]
    pub fn total_l3_l2_bytes(&self) -> u64 {
        self.per_chip.iter().map(|c| c.dma_l3_l2_bytes).sum()
    }

    /// Total bytes moved between L2 and L1 across all chips.
    #[must_use]
    pub fn total_l2_l1_bytes(&self) -> u64 {
        self.per_chip.iter().map(|c| c.dma_l2_l1_bytes).sum()
    }

    /// Total bytes sent over the chip-to-chip link (`N_{C2C}`).
    #[must_use]
    pub fn total_c2c_bytes(&self) -> u64 {
        self.per_chip.iter().map(|c| c.c2c_bytes_sent).sum()
    }

    /// Sum of cluster-busy compute cycles over chips (for the `P * T_comp`
    /// energy term).
    #[must_use]
    pub fn total_compute_cycles(&self) -> u64 {
        self.per_chip.iter().map(|c| c.compute_cycles).sum()
    }

    /// Total cycles sends spent waiting on remote ingress ports or buffer
    /// credit across all chips (queued link regimes; 0 under affine).
    #[must_use]
    pub fn total_queueing_cycles(&self) -> u64 {
        self.per_chip.iter().map(|c| c.c2c_queue_cycles).sum()
    }

    /// Maximum ingress-queue occupancy observed on any chip, in bytes.
    #[must_use]
    pub fn peak_queue_bytes(&self) -> u64 {
        self.per_chip.iter().map(|c| c.c2c_peak_queue_bytes).max().unwrap_or(0)
    }

    /// Total dropped messages/packets across all chips (drop-tail and
    /// lossy link regimes; 0 otherwise).
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.per_chip.iter().map(|c| c.c2c_drops).sum()
    }

    /// Total retransmitted packets across all chips.
    #[must_use]
    pub fn total_retransmits(&self) -> u64 {
        self.per_chip.iter().map(|c| c.c2c_retransmits).sum()
    }

    /// Total cycles chips were frozen by transient stall faults.
    #[must_use]
    pub fn total_fault_stall_cycles(&self) -> u64 {
        self.per_chip.iter().map(|c| c.fault_stall_cycles).sum()
    }

    /// Total extra compute cycles charged by slowdown-window faults.
    #[must_use]
    pub fn total_fault_slow_cycles(&self) -> u64 {
        self.per_chip.iter().map(|c| c.fault_slow_cycles).sum()
    }

    /// Total extra link cycles charged by link-degrade faults.
    #[must_use]
    pub fn total_fault_link_cycles(&self) -> u64 {
        self.per_chip.iter().map(|c| c.fault_link_cycles).sum()
    }

    /// Total cycles of work lost to fail-stops and replayed elsewhere
    /// (attributed by `mtp-core` failover; 0 on fault-free runs).
    #[must_use]
    pub fn total_downtime_cycles(&self) -> u64 {
        self.per_chip.iter().map(|c| c.fault_downtime_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip(compute: u64, finish: u64) -> ChipStats {
        ChipStats { compute_cycles: compute, finish_cycles: finish, ..ChipStats::default() }
    }

    #[test]
    fn makespan_is_max_finish() {
        let stats = RunStats::new(vec![chip(10, 50), chip(10, 80)], 0);
        assert_eq!(stats.makespan, 80);
        assert_eq!(stats.critical_chip(), 1);
    }

    #[test]
    fn idle_is_residual() {
        let c = chip(30, 100);
        assert_eq!(c.idle_cycles(), 70);
    }

    #[test]
    fn breakdown_total_matches_finish() {
        let stats = RunStats::new(vec![chip(30, 100)], 0);
        let b = stats.critical_breakdown();
        assert_eq!(b.total(), 100);
        assert_eq!(b.compute, 30);
        assert_eq!(b.idle, 70);
    }

    #[test]
    fn totals_sum_over_chips() {
        let mut a = chip(5, 10);
        a.dma_l3_l2_bytes = 100;
        a.c2c_bytes_sent = 7;
        let mut b = chip(6, 12);
        b.dma_l3_l2_bytes = 50;
        b.dma_l2_l1_bytes = 20;
        let stats = RunStats::new(vec![a, b], 0);
        assert_eq!(stats.total_l3_l2_bytes(), 150);
        assert_eq!(stats.total_l2_l1_bytes(), 20);
        assert_eq!(stats.total_c2c_bytes(), 7);
        assert_eq!(stats.total_compute_cycles(), 11);
    }

    #[test]
    fn empty_run_stats() {
        let stats = RunStats::new(vec![], 0);
        assert_eq!(stats.makespan, 0);
        assert_eq!(stats.critical_breakdown(), Breakdown::default());
    }
}
