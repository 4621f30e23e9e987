//! Periodic steady-state execution: simulate warmup repetitions of a
//! block template until the machine state *provably* repeats, then
//! extrapolate the remaining repetitions in O(1).
//!
//! Model-span workloads are `n_blocks` back-to-back instantiations of one
//! identical per-chip instruction template (only message/sync identifiers
//! differ, and identifiers never affect timing). The executor's dynamics
//! are shift-invariant max-plus recurrences over the machine's time-like
//! state — chip clocks, TX/RX port frees, DMA-engine frees: every update
//! is a `max` of state components plus a constant, so advancing the whole
//! state by a constant advances every future event by the same constant.
//!
//! [`Machine::run_periodic`] therefore runs the template segment by
//! segment, carrying the machine state across boundaries, until one
//! segment advances **every active state component by the same delta**
//! (the *uniform-delta fixed point*). From that point on, each further
//! block replays the last segment shifted by the delta, exactly — so the
//! remaining `n_blocks - k` blocks reduce to one multiply-add per
//! counter. Detection is an exact fixed-point test on executor state, not
//! a heuristic; whenever any proof obligation fails, the engine falls
//! back to full simulation. See `DESIGN.md` §9 for the soundness
//! argument, and `tests/periodic_lockstep.rs` for the exact-equality
//! lockstep suites.
//!
//! Proof obligations checked per segment (any failure → full simulation):
//!
//! 1. **Clean boundary** — every chip finished its segment program with
//!    no async DMA in flight, and no chip is parked on a missing message.
//! 2. **Send-order separation** — the latest send issue time of segment
//!    `j` is strictly earlier than the earliest send issue time of
//!    segment `j+1`. Cross-segment coupling flows only through RX/TX port
//!    arbitration, which the executor resolves in global issue-time
//!    order; separated segments therefore arbitrate identically whether
//!    the blocks are simulated jointly or one segment at a time.
//! 3. **Uniform delta** — every time-like component either advanced by
//!    one common `delta`, or stayed put while already at or below the
//!    segment-start minimum clock (an *inactive* component: it is never
//!    selected by any `max` again, so it behaves as minus infinity).

use crate::{trace::ChipStats, Machine, Program, Result, RunStats};

/// Snapshot of the machine's time-like state at a segment boundary, also
/// used as the carried starting state of the next segment.
#[derive(Debug, Clone)]
pub(crate) struct MachineState {
    /// Per-chip local clocks.
    pub(crate) t: Vec<u64>,
    /// Per-chip TX-port frees.
    pub(crate) tx_free: Vec<u64>,
    /// Per-chip I/O-DMA engine frees.
    pub(crate) io_dma_free: Vec<u64>,
    /// Per-chip cluster-DMA engine frees.
    pub(crate) cluster_dma_free: Vec<u64>,
    /// Per-chip RX-port frees.
    pub(crate) rx_free: Vec<u64>,
}

impl MachineState {
    pub(crate) fn zero(n: usize) -> Self {
        MachineState {
            t: vec![0; n],
            tx_free: vec![0; n],
            io_dma_free: vec![0; n],
            cluster_dma_free: vec![0; n],
            rx_free: vec![0; n],
        }
    }

    /// All time-like components in a fixed order.
    fn components(&self) -> impl Iterator<Item = u64> + '_ {
        self.t
            .iter()
            .chain(&self.tx_free)
            .chain(&self.io_dma_free)
            .chain(&self.cluster_dma_free)
            .chain(&self.rx_free)
            .copied()
    }

    /// The earliest chip clock (segment-start minimum for the inactive
    /// rule).
    fn min_clock(&self) -> u64 {
        self.t.iter().copied().min().unwrap_or(0)
    }
}

/// Everything one segment execution reports back to the periodic engine.
#[derive(Debug)]
pub(crate) struct SegmentRun {
    /// Machine state at the segment boundary.
    pub(crate) state: MachineState,
    /// Per-chip counters accumulated by this segment alone.
    pub(crate) stats: Vec<ChipStats>,
    /// `(min, max)` send issue times, `None` when the segment sent
    /// nothing.
    pub(crate) send_issue: Option<(u64, u64)>,
    /// Distinct sync ids the segment observed.
    pub(crate) distinct_syncs: usize,
    /// `true` when every chip finished with no async DMA in flight.
    pub(crate) clean: bool,
}

/// `n_blocks` at or below this run as one plain simulation: the warmup
/// needs at least two segments before extrapolation can save anything.
const FULL_RUN_THRESHOLD: usize = 4;

/// Warmup bound: if the state has not reached its uniform-delta fixed
/// point after this many segments, the workload is treated as aperiodic
/// and simulated in full.
pub(crate) const MAX_WARMUP_SEGMENTS: usize = 24;

/// Checks the uniform-delta fixed-point condition between two boundary
/// states: every component either advances by one common delta or is
/// inactive (unchanged and at or below the segment-start minimum clock).
/// Returns the proven per-block delta.
pub(crate) fn uniform_delta(prev: &MachineState, next: &MachineState) -> Option<u64> {
    let m = prev.min_clock();
    let mut delta: Option<u64> = None;
    for (old, new) in prev.components().zip(next.components()) {
        let d = new - old;
        if d == 0 && new <= m {
            continue;
        }
        match delta {
            None => delta = Some(d),
            Some(found) if found == d => {}
            Some(_) => return None,
        }
    }
    // A fully inactive machine (empty template) repeats with delta 0.
    Some(delta.unwrap_or(0))
}

/// Scales every additive counter of a per-segment [`ChipStats`] by the
/// number of extrapolated repetitions. Peak queue occupancy is a maximum,
/// not a sum: the steady-state segment repeats the same occupancy
/// trajectory, so its peak carries over unscaled.
pub(crate) fn scaled(stats: &ChipStats, reps: u64) -> ChipStats {
    ChipStats {
        compute_cycles: stats.compute_cycles * reps,
        dma_l3_l2_exposed_cycles: stats.dma_l3_l2_exposed_cycles * reps,
        dma_l2_l1_exposed_cycles: stats.dma_l2_l1_exposed_cycles * reps,
        c2c_exposed_cycles: stats.c2c_exposed_cycles * reps,
        dma_l3_l2_bytes: stats.dma_l3_l2_bytes * reps,
        dma_l2_l1_bytes: stats.dma_l2_l1_bytes * reps,
        c2c_bytes_sent: stats.c2c_bytes_sent * reps,
        sync_marks: stats.sync_marks * reps,
        finish_cycles: 0,
        c2c_queue_cycles: stats.c2c_queue_cycles * reps,
        c2c_peak_queue_bytes: stats.c2c_peak_queue_bytes,
        c2c_drops: stats.c2c_drops * reps,
        c2c_retransmits: stats.c2c_retransmits * reps,
        c2c_gave_up: stats.c2c_gave_up * reps,
        fault_stall_cycles: stats.fault_stall_cycles * reps,
        fault_slow_cycles: stats.fault_slow_cycles * reps,
        fault_link_cycles: stats.fault_link_cycles * reps,
        fault_transfers_affected: stats.fault_transfers_affected * reps,
        fault_downtime_cycles: stats.fault_downtime_cycles * reps,
    }
}

fn add_assign(into: &mut ChipStats, from: &ChipStats) {
    into.accumulate(from);
}

/// A proven uniform-delta fixed point of one `(machine, template)` pair,
/// reusable across every block count simulated on that pair.
///
/// [`Machine::warmup`] runs the warmup segments once and captures the
/// steady state; [`Machine::run_periodic_from`] then answers any depth in
/// O(1) from the checkpoint instead of re-simulating the warmup. The
/// sweep engine uses this to make depth variants (d96, d192, ...) of one
/// schedule share a single warmup trajectory per link bandwidth.
///
/// A checkpoint is only meaningful for the exact machine and template it
/// was taken from — resuming with a different pair is a contract
/// violation (the result would be deterministic nonsense). The resume
/// path re-checks every cheap precondition (chip count, block count,
/// contention-free regime) and falls back to [`Machine::run_periodic`]
/// whenever the checkpoint does not apply, so results are always exact.
#[derive(Debug, Clone)]
pub struct WarmupCheckpoint {
    n_chips: usize,
    fixed: Option<FixedPoint>,
}

/// The captured steady state: everything the extrapolation arm of
/// [`Machine::run_periodic`] reads after its fixed-point test passes.
#[derive(Debug, Clone)]
struct FixedPoint {
    /// Warmup segments simulated before the fixed point held.
    segments: usize,
    /// Per-chip counters accumulated over those segments.
    totals: Vec<ChipStats>,
    /// The steady-state segment's own counters (the per-block delta).
    last: Vec<ChipStats>,
    /// Chip clocks at the fixed-point boundary...
    t_now: Vec<u64>,
    /// ...and one segment earlier (their difference is the per-block
    /// clock advance of each chip; inactive chips advance by zero).
    t_prev: Vec<u64>,
    /// Distinct sync ids per segment.
    distinct_syncs: usize,
}

impl WarmupCheckpoint {
    /// `true` when the warmup proved a fixed point; a non-converged
    /// checkpoint makes [`Machine::run_periodic_from`] fall back to
    /// [`Machine::run_periodic`] (aperiodic template, contention-bearing
    /// link regime, or a template error).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.fixed.is_some()
    }

    /// Number of warmup segments the proof consumed (`None` when not
    /// converged) — the per-depth simulation cost the checkpoint saves.
    #[must_use]
    pub fn warmup_segments(&self) -> Option<usize> {
        self.fixed.as_ref().map(|f| f.segments)
    }
}

/// Builds the concatenated programs the periodic contract is defined
/// against: `n_blocks` copies of the template with per-block message and
/// sync identifier shifts (stride = the template's [`crate::id_span`]),
/// exactly the id-disjoint instantiation a schedule builder would emit.
fn concat_shifted(template: &[Program], n_blocks: usize) -> Vec<Program> {
    let (msg_stride, sync_stride) = crate::id_span(template);
    let mut out: Vec<Program> = (0..template.len()).map(|_| Program::new()).collect();
    for (o, t) in out.iter_mut().zip(template) {
        o.reserve(t.len() * n_blocks);
    }
    for block in 0..n_blocks as u64 {
        for (o, t) in out.iter_mut().zip(template) {
            o.extend_shifted(t, block * msg_stride, block as u32 * sync_stride);
        }
    }
    out
}

impl Machine {
    /// Executes `n_blocks` back-to-back repetitions of the per-chip
    /// `template` programs — each repetition with fresh message and sync
    /// identifiers, exactly as a schedule builder chains steady-state
    /// blocks — and returns aggregates **identical** to
    /// [`Machine::run`] on the equivalent concatenated programs.
    ///
    /// Once the machine state provably repeats (see the module docs for
    /// the fixed-point criterion), the remaining blocks are extrapolated
    /// in O(1), making deep-model simulations cost a few warmup blocks
    /// instead of `n_blocks`. Whenever periodicity is not proven, the
    /// whole workload is simulated in full — the result is the same
    /// either way, only slower.
    ///
    /// One caveat under a contention-free queued link regime (infinite
    /// buffers): the extrapolated `c2c_peak_queue_bytes` is the
    /// per-segment peak, which can undercount a monolithic run where
    /// ingress occupancy from adjacent blocks overlaps in time. Timing
    /// and every additive counter remain identical; regimes where
    /// occupancy can affect timing never extrapolate at all.
    ///
    /// ```
    /// use mtp_sim::{ChipSpec, Instr, Machine, Program};
    /// use mtp_kernels::Kernel;
    ///
    /// let machine = Machine::homogeneous(ChipSpec::siracusa(), 1);
    /// let block = Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))]);
    /// let stats = machine.run_periodic(std::slice::from_ref(&block), 1000)?;
    /// let one = machine.run(std::slice::from_ref(&block))?;
    /// assert_eq!(stats.makespan, 1000 * one.makespan);
    /// # Ok::<(), mtp_sim::SimError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`] on the concatenated programs:
    /// [`crate::SimError::ProgramCountMismatch`], deadlocks, and
    /// malformed-program errors.
    pub fn run_periodic(&self, template: &[Program], n_blocks: usize) -> Result<RunStats> {
        if template.len() != self.len() {
            return Err(crate::SimError::ProgramCountMismatch {
                chips: self.len(),
                programs: template.len(),
            });
        }
        if n_blocks == 0 {
            return self.run(&vec![Program::new(); self.len()]);
        }
        if n_blocks == 1 {
            // One repetition needs no id shifting: the template runs
            // as-is (this is every block-span scenario of a sweep).
            return self.run(template);
        }
        if n_blocks <= FULL_RUN_THRESHOLD {
            return self.run(&concat_shifted(template, n_blocks));
        }
        // Non-affine link timing voids the shift-invariance proof: a
        // finite ingress buffer couples segments through occupancy carried
        // across boundaries, and the lossy drop pattern depends on the
        // per-block message ids the segment re-uses. Only regimes that
        // provably never depart from affine timing (affine itself, or a
        // queue that can never fill) may extrapolate; everything else is
        // simulated in full — same result, only slower (`DESIGN.md` §11).
        if self.chips().iter().any(|c| !c.link_regime.contention_free()) {
            return self.run(&concat_shifted(template, n_blocks));
        }
        // A non-empty fault plan likewise voids the proof: faults are
        // pinned to absolute cycles, so segments are not shift-invariant.
        // Faulted workloads always run the exact full simulation.
        if !self.faults().is_empty() {
            return self.run(&concat_shifted(template, n_blocks));
        }
        let n = self.len();
        let mut carry = MachineState::zero(n);
        let mut totals: Vec<ChipStats> = vec![ChipStats::default(); n];
        let mut prev_send_issue: Option<Option<(u64, u64)>> = None;
        for seg in 1..=n_blocks.min(MAX_WARMUP_SEGMENTS) {
            let Ok(run) = self.run_segment(template, &carry) else {
                // Malformed template: the full run reproduces the exact
                // error the concatenated simulation would report.
                return self.run(&concat_shifted(template, n_blocks));
            };
            if !run.clean {
                return self.run(&concat_shifted(template, n_blocks));
            }
            // Send-order separation from the previous segment.
            if let Some(prev) = prev_send_issue {
                let separated = match (prev, run.send_issue) {
                    (Some((_, prev_max)), Some((next_min, _))) => prev_max < next_min,
                    _ => true,
                };
                if !separated {
                    return self.run(&concat_shifted(template, n_blocks));
                }
            }
            for (total, seg_stats) in totals.iter_mut().zip(&run.stats) {
                add_assign(total, seg_stats);
            }
            if let Some(delta) = uniform_delta(&carry, &run.state) {
                // Send-order separation must keep holding at every
                // extrapolated boundary: the next segment's sends are this
                // segment's shifted by delta.
                let separated_forever = match run.send_issue {
                    Some((min, max)) => max < min.saturating_add(delta),
                    None => true,
                };
                if separated_forever {
                    let reps = (n_blocks - seg) as u64;
                    let per_chip = totals
                        .iter()
                        .zip(&run.stats)
                        .zip(run.state.t.iter().zip(&carry.t))
                        .map(|((total, seg_stats), (&t_now, &t_prev))| {
                            let mut chip = total.clone();
                            add_assign(&mut chip, &scaled(seg_stats, reps));
                            // Inactive chips (delta 0) stay parked at
                            // their clock; active chips advance by delta
                            // per block.
                            chip.finish_cycles = t_now + reps * (t_now - t_prev);
                            chip
                        })
                        .collect();
                    return Ok(RunStats::new(per_chip, run.distinct_syncs * n_blocks));
                }
            }
            if seg == n_blocks {
                // Every block simulated segment by segment with all
                // boundary obligations holding: the totals are exact.
                let per_chip = totals
                    .iter()
                    .zip(&run.state.t)
                    .map(|(total, &t)| {
                        let mut chip = total.clone();
                        chip.finish_cycles = t;
                        chip
                    })
                    .collect();
                return Ok(RunStats::new(per_chip, run.distinct_syncs * n_blocks));
            }
            prev_send_issue = Some(run.send_issue);
            carry = run.state;
        }
        // No fixed point within the warmup bound: aperiodic workload.
        self.run(&concat_shifted(template, n_blocks))
    }

    /// Runs the warmup phase of [`Machine::run_periodic`] once —
    /// independent of any block count — and captures the proven
    /// uniform-delta fixed point as a reusable [`WarmupCheckpoint`].
    ///
    /// The warmup loop is exactly `run_periodic`'s: segment-by-segment
    /// execution with clean-boundary and send-order-separation checks,
    /// stopping at the first segment whose state advance is a uniform
    /// delta that also keeps future sends separated. Because that loop
    /// never reads the block count, one checkpoint answers *every* depth:
    /// [`Machine::run_periodic_from`] replays only the O(1) extrapolation
    /// arm. Any proof failure (contention-bearing link regime, unclean
    /// boundary, aperiodic state, segment error) yields a non-converged
    /// checkpoint whose resume path falls back to the full engine.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::ProgramCountMismatch`] when `template` does not
    /// provide one program per chip. All other template problems are
    /// deferred: they surface from the fallback inside
    /// [`Machine::run_periodic_from`], which reproduces the exact error
    /// [`Machine::run_periodic`] would report.
    pub fn warmup(&self, template: &[Program]) -> Result<WarmupCheckpoint> {
        if template.len() != self.len() {
            return Err(crate::SimError::ProgramCountMismatch {
                chips: self.len(),
                programs: template.len(),
            });
        }
        let unconverged = || Ok(WarmupCheckpoint { n_chips: self.len(), fixed: None });
        if self.chips().iter().any(|c| !c.link_regime.contention_free())
            || !self.faults().is_empty()
        {
            return unconverged();
        }
        let n = self.len();
        let mut carry = MachineState::zero(n);
        let mut totals: Vec<ChipStats> = vec![ChipStats::default(); n];
        let mut prev_send_issue: Option<Option<(u64, u64)>> = None;
        for seg in 1..=MAX_WARMUP_SEGMENTS {
            let Ok(run) = self.run_segment(template, &carry) else {
                return unconverged();
            };
            if !run.clean {
                return unconverged();
            }
            if let Some(prev) = prev_send_issue {
                let separated = match (prev, run.send_issue) {
                    (Some((_, prev_max)), Some((next_min, _))) => prev_max < next_min,
                    _ => true,
                };
                if !separated {
                    return unconverged();
                }
            }
            for (total, seg_stats) in totals.iter_mut().zip(&run.stats) {
                add_assign(total, seg_stats);
            }
            if let Some(delta) = uniform_delta(&carry, &run.state) {
                let separated_forever = match run.send_issue {
                    Some((min, max)) => max < min.saturating_add(delta),
                    None => true,
                };
                if separated_forever {
                    return Ok(WarmupCheckpoint {
                        n_chips: n,
                        fixed: Some(FixedPoint {
                            segments: seg,
                            totals,
                            last: run.stats,
                            t_now: run.state.t.clone(),
                            t_prev: carry.t.clone(),
                            distinct_syncs: run.distinct_syncs,
                        }),
                    });
                }
            }
            prev_send_issue = Some(run.send_issue);
            carry = run.state;
        }
        unconverged()
    }

    /// [`Machine::run_periodic`], resuming from a [`WarmupCheckpoint`]
    /// taken by [`Machine::warmup`] on the **same machine and template**:
    /// when the checkpoint applies, the answer is one multiply-add per
    /// counter with zero simulation.
    ///
    /// Falls back to [`Machine::run_periodic`] — same result, only slower
    /// — whenever the checkpoint cannot prove the extrapolation:
    /// non-converged warmup, chip-count mismatch, `n_blocks` at or below
    /// the full-run threshold, fewer blocks than warmup segments (the
    /// engine would have finished exactly before reaching the fixed
    /// point), or a contention-bearing link regime.
    ///
    /// ```
    /// use mtp_sim::{ChipSpec, Instr, Machine, Program};
    /// use mtp_kernels::Kernel;
    ///
    /// let machine = Machine::homogeneous(ChipSpec::siracusa(), 1);
    /// let block = Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))]);
    /// let ckpt = machine.warmup(std::slice::from_ref(&block))?;
    /// let warm = machine.run_periodic_from(std::slice::from_ref(&block), 192, &ckpt)?;
    /// let cold = machine.run_periodic(std::slice::from_ref(&block), 192)?;
    /// assert_eq!(warm, cold);
    /// # Ok::<(), mtp_sim::SimError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run_periodic`]; the extrapolation arm
    /// itself is infallible.
    pub fn run_periodic_from(
        &self,
        template: &[Program],
        n_blocks: usize,
        ckpt: &WarmupCheckpoint,
    ) -> Result<RunStats> {
        if template.len() != self.len() {
            return Err(crate::SimError::ProgramCountMismatch {
                chips: self.len(),
                programs: template.len(),
            });
        }
        let Some(fixed) = &ckpt.fixed else {
            return self.run_periodic(template, n_blocks);
        };
        if ckpt.n_chips != self.len()
            || n_blocks <= FULL_RUN_THRESHOLD
            || n_blocks < fixed.segments
            || self.chips().iter().any(|c| !c.link_regime.contention_free())
            || !self.faults().is_empty()
        {
            return self.run_periodic(template, n_blocks);
        }
        // From here on this is `run_periodic`'s extrapolation arm
        // verbatim, with the loop-carried values read from the
        // checkpoint instead of recomputed.
        let reps = (n_blocks - fixed.segments) as u64;
        let per_chip = fixed
            .totals
            .iter()
            .zip(&fixed.last)
            .zip(fixed.t_now.iter().zip(&fixed.t_prev))
            .map(|((total, seg_stats), (&t_now, &t_prev))| {
                let mut chip = total.clone();
                add_assign(&mut chip, &scaled(seg_stats, reps));
                chip.finish_cycles = t_now + reps * (t_now - t_prev);
                chip
            })
            .collect();
        Ok(RunStats::new(per_chip, fixed.distinct_syncs * n_blocks))
    }

    /// Executes `n_blocks` Transformer blocks each serving a uniform
    /// batch of `n_requests` interleaved requests, where every request's
    /// per-block work lowers to the same per-chip `template` (the
    /// *request slot*).
    ///
    /// A uniform batched block is the request-slot template instantiated
    /// `n_requests` times with fresh message/sync identifiers — requests
    /// are independent, so nothing else distinguishes them at the timing
    /// level ("same shape, different data") — and a batched model pass is
    /// therefore `n_blocks * n_requests` back-to-back instantiations of
    /// one template. That is exactly the workload
    /// [`Machine::run_periodic`]'s uniform-delta fixed point already
    /// covers, so **request-level periodicity needs no new proof**: the
    /// warmup cost is identical to the single-request pass and the
    /// remaining `(n_blocks * n_requests) - k` repetitions extrapolate in
    /// O(1), which is what makes batched sweeps cost the same as
    /// single-request ones. With `n_requests == 1` this is
    /// [`Machine::run_periodic`] verbatim — the batch=1 lockstep
    /// guarantee, by construction.
    ///
    /// Like `run_periodic` (and deliberately unlike the validating
    /// wrappers in `mtp-core`, which reject empty batches with a
    /// configuration error), zero blocks *or* zero requests is the
    /// machine-level degenerate case: an empty run with makespan 0.
    ///
    /// ```
    /// use mtp_sim::{ChipSpec, Instr, Machine, Program};
    /// use mtp_kernels::Kernel;
    ///
    /// let machine = Machine::homogeneous(ChipSpec::siracusa(), 1);
    /// let slot = Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))]);
    /// let batched = machine.run_batched(std::slice::from_ref(&slot), 24, 16)?;
    /// let single = machine.run_periodic(std::slice::from_ref(&slot), 24)?;
    /// assert_eq!(batched.makespan, 16 * single.makespan);
    /// # Ok::<(), mtp_sim::SimError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`crate::SimError::BlockCountOverflow`] when `n_blocks * n_requests`
    /// overflows `usize`; otherwise the same conditions as
    /// [`Machine::run_periodic`] on the concatenated programs.
    pub fn run_batched(
        &self,
        template: &[Program],
        n_blocks: usize,
        n_requests: usize,
    ) -> Result<RunStats> {
        let total = n_blocks
            .checked_mul(n_requests)
            .ok_or(crate::SimError::BlockCountOverflow { n_blocks, n_requests })?;
        self.run_periodic(template, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChipSpec, DmaTag, Instr, MemPath};
    use mtp_kernels::Kernel;

    fn machine(n: usize) -> Machine {
        Machine::homogeneous(ChipSpec::siracusa(), n)
    }

    #[test]
    fn program_count_mismatch_detected() {
        let m = machine(2);
        assert!(matches!(
            m.run_periodic(&[Program::new()], 10),
            Err(crate::SimError::ProgramCountMismatch { chips: 2, programs: 1 })
        ));
    }

    #[test]
    fn zero_blocks_is_an_empty_run() {
        let m = machine(2);
        let template = vec![Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))]); 2];
        let stats = m.run_periodic(&template, 0).unwrap();
        assert_eq!(stats.makespan, 0);
        assert_eq!(stats.sync_phases, 0);
    }

    #[test]
    fn single_chip_compute_extrapolates_linearly() {
        let m = machine(1);
        let template =
            [Program::from_instrs([Instr::compute(Kernel::gemv(256, 256)), Instr::Sync(0)])];
        let one = m.run(&template).unwrap();
        let big = m.run_periodic(&template, 10_000).unwrap();
        assert_eq!(big.makespan, 10_000 * one.makespan);
        assert_eq!(big.per_chip[0].compute_cycles, 10_000 * one.per_chip[0].compute_cycles);
        assert_eq!(big.sync_phases, 10_000);
    }

    #[test]
    fn matches_concatenated_run_exactly() {
        // Two chips with a ping-pong dependency and async DMA: the
        // periodic result must equal the explicit concatenation.
        let m = machine(2);
        let p0 = Program::from_instrs([
            Instr::DmaAsync { path: MemPath::L3ToL2, bytes: 40_000, tag: DmaTag(0) },
            Instr::compute(Kernel::gemm(16, 128, 128)),
            Instr::DmaWait(DmaTag(0)),
            Instr::send(1, 0, 2048),
            Instr::recv(1, 1),
        ]);
        let p1 = Program::from_instrs([
            Instr::compute(Kernel::gemv(512, 128)),
            Instr::recv(0, 0),
            Instr::Compute(Kernel::Add { n: 1024 }),
            Instr::send(0, 1, 2048),
        ]);
        let template = [p0, p1];
        for n_blocks in [1usize, 3, 5, 9, 40] {
            let fast = m.run_periodic(&template, n_blocks).unwrap();
            let full = m.run(&concat_shifted(&template, n_blocks)).unwrap();
            assert_eq!(fast, full, "n_blocks={n_blocks}");
        }
    }

    #[test]
    fn aperiodic_template_falls_back_to_full_simulation() {
        // A template that leaves a DMA in flight at the boundary can
        // never prove a clean boundary; the fallback must still be exact.
        let m = machine(1);
        let template = [Program::from_instrs([
            Instr::DmaAsync { path: MemPath::L3ToL2, bytes: 1 << 20, tag: DmaTag(0) },
            Instr::compute(Kernel::Add { n: 64 }),
        ])];
        let n_blocks = 7;
        let fast = m.run_periodic(&template, n_blocks).unwrap();
        let full = m.run(&concat_shifted(&template, n_blocks)).unwrap();
        assert_eq!(fast, full);
    }

    #[test]
    fn deadlocking_template_reports_deadlock() {
        let m = machine(2);
        let template =
            [Program::from_instrs([Instr::recv(1, 99)]), Program::from_instrs([Instr::Sync(0)])];
        assert!(matches!(m.run_periodic(&template, 8), Err(crate::SimError::Deadlock { .. })));
    }

    #[test]
    fn batched_run_equals_concatenated_interleaving() {
        // A 2-chip ping-pong template: a batch of B requests over N
        // blocks must equal the full simulation of N*B id-shifted
        // instantiations (block-major, request-interleaved — the same
        // stream either way).
        let m = machine(2);
        let p0 = Program::from_instrs([
            Instr::compute(Kernel::gemm(16, 128, 128)),
            Instr::send(1, 0, 2048),
            Instr::recv(1, 1),
        ]);
        let p1 = Program::from_instrs([
            Instr::compute(Kernel::gemv(512, 128)),
            Instr::recv(0, 0),
            Instr::send(0, 1, 2048),
        ]);
        let template = [p0, p1];
        for (n_blocks, n_requests) in [(1usize, 1usize), (3, 2), (2, 5), (8, 4)] {
            let fast = m.run_batched(&template, n_blocks, n_requests).unwrap();
            let full = m.run(&concat_shifted(&template, n_blocks * n_requests)).unwrap();
            assert_eq!(fast, full, "n_blocks={n_blocks} n_requests={n_requests}");
        }
    }

    #[test]
    fn batch_of_one_is_run_periodic_verbatim() {
        let m = machine(1);
        let template =
            [Program::from_instrs([Instr::compute(Kernel::gemv(256, 256)), Instr::Sync(0)])];
        for n_blocks in [1usize, 5, 100] {
            assert_eq!(
                m.run_batched(&template, n_blocks, 1).unwrap(),
                m.run_periodic(&template, n_blocks).unwrap(),
                "n_blocks={n_blocks}"
            );
        }
    }

    #[test]
    fn empty_batch_is_an_empty_run() {
        let m = machine(1);
        let template = [Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))])];
        let stats = m.run_batched(&template, 10, 0).unwrap();
        assert_eq!(stats.makespan, 0);
    }

    #[test]
    fn overflowing_batch_is_a_typed_error() {
        let m = machine(1);
        let template = [Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))])];
        assert_eq!(
            m.run_batched(&template, usize::MAX, 2),
            Err(crate::SimError::BlockCountOverflow { n_blocks: usize::MAX, n_requests: 2 })
        );
        // The product, not either factor alone, decides.
        assert!(m.run_batched(&template, usize::MAX, 0).is_ok());
    }

    fn machine_with_regime(n: usize, regime: crate::LinkRegime) -> Machine {
        let mut spec = ChipSpec::siracusa();
        spec.link_regime = regime;
        Machine::homogeneous(spec, n)
    }

    fn ping_pong_template() -> [Program; 2] {
        let p0 = Program::from_instrs([
            Instr::compute(Kernel::gemm(16, 128, 128)),
            Instr::send(1, 0, 2048),
            Instr::recv(1, 1),
        ]);
        let p1 = Program::from_instrs([
            Instr::compute(Kernel::gemv(512, 128)),
            Instr::recv(0, 0),
            Instr::send(0, 1, 2048),
        ]);
        [p0, p1]
    }

    #[test]
    fn infinite_queue_extrapolates_and_matches_affine_makespan() {
        let template = ping_pong_template();
        let queued = machine_with_regime(
            2,
            crate::LinkRegime::Queued {
                buffer_bytes: u64::MAX,
                discipline: crate::QueueDiscipline::Backpressure,
            },
        );
        for n_blocks in [1usize, 5, 9, 40, 200] {
            let q = queued.run_periodic(&template, n_blocks).unwrap();
            let a = machine(2).run_periodic(&template, n_blocks).unwrap();
            assert_eq!(q.makespan, a.makespan, "n_blocks={n_blocks}");
            // Timing-independent aggregates match the affine run too.
            for (qc, ac) in q.per_chip.iter().zip(&a.per_chip) {
                assert_eq!(qc.finish_cycles, ac.finish_cycles);
                assert_eq!(qc.c2c_bytes_sent, ac.c2c_bytes_sent);
                assert_eq!(qc.c2c_exposed_cycles, ac.c2c_exposed_cycles);
            }
        }
    }

    #[test]
    fn finite_queue_and_lossy_regimes_fall_back_exactly() {
        let template = ping_pong_template();
        let regimes = [
            crate::LinkRegime::Queued {
                buffer_bytes: 4096,
                discipline: crate::QueueDiscipline::Backpressure,
            },
            crate::LinkRegime::Lossy { drop_per_mille: 100, nack_cycles: 500 },
        ];
        for regime in regimes {
            let m = machine_with_regime(2, regime);
            for n_blocks in [5usize, 9, 40] {
                let fast = m.run_periodic(&template, n_blocks).unwrap();
                let full = m.run(&concat_shifted(&template, n_blocks)).unwrap();
                assert_eq!(fast, full, "{regime:?} n_blocks={n_blocks}");
            }
        }
    }

    #[test]
    fn faulted_machine_falls_back_to_exact_full_simulation() {
        // A non-empty plan voids shift-invariance: the periodic answer
        // must equal the concatenated full run, and warmup must refuse
        // to converge.
        let template = ping_pong_template();
        let plan = crate::FaultPlan::parse("stall:0:5000:2000+slow:1:0:20000:150").unwrap();
        let m = machine(2).with_faults(plan);
        for n_blocks in [5usize, 9, 40] {
            let fast = m.run_periodic(&template, n_blocks).unwrap();
            let full = m.run(&concat_shifted(&template, n_blocks)).unwrap();
            assert_eq!(fast, full, "n_blocks={n_blocks}");
        }
        let ckpt = m.warmup(&template).unwrap();
        assert!(!ckpt.converged(), "faulted machines never extrapolate");
        let warm = m.run_periodic_from(&template, 40, &ckpt).unwrap();
        assert_eq!(warm, m.run_periodic(&template, 40).unwrap());
    }

    #[test]
    fn warm_resume_matches_cold_periodic_across_depths() {
        // One warmup checkpoint answers every depth bit-identically.
        let m = machine(2);
        let template = ping_pong_template();
        let ckpt = m.warmup(&template).unwrap();
        assert!(ckpt.converged());
        assert!(ckpt.warmup_segments().unwrap() <= MAX_WARMUP_SEGMENTS);
        for n_blocks in [1usize, 3, 5, 9, 40, 96, 192, 10_000] {
            let warm = m.run_periodic_from(&template, n_blocks, &ckpt).unwrap();
            let cold = m.run_periodic(&template, n_blocks).unwrap();
            assert_eq!(warm, cold, "n_blocks={n_blocks}");
        }
    }

    #[test]
    fn warmup_on_aperiodic_template_resumes_via_fallback() {
        // The in-flight-DMA template never proves a clean boundary: the
        // checkpoint is unconverged and the resume path must reproduce
        // the full simulation exactly.
        let m = machine(1);
        let template = [Program::from_instrs([
            Instr::DmaAsync { path: MemPath::L3ToL2, bytes: 1 << 20, tag: DmaTag(0) },
            Instr::compute(Kernel::Add { n: 64 }),
        ])];
        let ckpt = m.warmup(&template).unwrap();
        assert!(!ckpt.converged());
        assert_eq!(ckpt.warmup_segments(), None);
        let warm = m.run_periodic_from(&template, 7, &ckpt).unwrap();
        let cold = m.run_periodic(&template, 7).unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn warmup_under_contention_regime_is_unconverged() {
        let template = ping_pong_template();
        let m = machine_with_regime(
            2,
            crate::LinkRegime::Lossy { drop_per_mille: 100, nack_cycles: 500 },
        );
        let ckpt = m.warmup(&template).unwrap();
        assert!(!ckpt.converged());
        for n_blocks in [5usize, 40] {
            let warm = m.run_periodic_from(&template, n_blocks, &ckpt).unwrap();
            let cold = m.run_periodic(&template, n_blocks).unwrap();
            assert_eq!(warm, cold, "n_blocks={n_blocks}");
        }
    }

    #[test]
    fn warmup_program_count_mismatch_detected() {
        let m = machine(2);
        assert!(matches!(
            m.warmup(&[Program::new()]),
            Err(crate::SimError::ProgramCountMismatch { chips: 2, programs: 1 })
        ));
        let ckpt = m.warmup(&ping_pong_template()).unwrap();
        assert!(matches!(
            m.run_periodic_from(&[Program::new()], 10, &ckpt),
            Err(crate::SimError::ProgramCountMismatch { chips: 2, programs: 1 })
        ));
    }

    #[test]
    fn uniform_delta_rejects_mixed_advances() {
        let prev = MachineState {
            t: vec![100, 100],
            tx_free: vec![90, 95],
            io_dma_free: vec![0, 0],
            cluster_dma_free: vec![80, 85],
            rx_free: vec![70, 75],
        };
        let mut next = prev.clone();
        next.t = vec![150, 150];
        next.tx_free = vec![140, 145];
        next.cluster_dma_free = vec![130, 135];
        next.rx_free = vec![120, 125];
        // io_dma_free untouched at 0 <= min clock: inactive, ignored.
        assert_eq!(uniform_delta(&prev, &next), Some(50));
        next.t[1] = 151;
        assert_eq!(uniform_delta(&prev, &next), None);
    }
}
