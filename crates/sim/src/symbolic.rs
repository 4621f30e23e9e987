//! The steady-state walk and its closed-form result.
//!
//! [`walk`] is the one place the simulator proves periodicity: it runs
//! the block template segment by segment and checks the proof
//! obligations of `DESIGN.md` §9 at every boundary (see
//! [`crate::periodic`]), ending in one of the three [`Walk`] outcomes.
//!
//! A [`SymbolicMakespan`] answers *any* block count with zero further
//! simulation:
//!
//! ```text
//! makespan(n) = startup + (n - warm_blocks) * delta      for n >= warm_blocks
//! ```
//!
//! where `startup` is the latest chip clock at the fixed-point boundary,
//! `warm_blocks` is the number of warmup segments the proof consumed, and
//! `delta` is the per-block clock advance. Block counts inside the warmup
//! window sum the stored per-segment counters, which is exact for the
//! same reason [`Walk::Exact`] is: every boundary up to there satisfied
//! the clean-boundary and send-order-separation obligations, so the
//! concatenated simulation would have produced the identical state
//! (`DESIGN.md` §9 and §15). Every extrapolated counter is checked: a
//! depth whose counters do not fit in `u64` is
//! [`crate::SimError::CycleOverflow`], never a wrapped number.
//!
//! Under the affine link regime a walk reads the link only through
//! [`crate::LinkPortSpec::transfer_cycles`] of the template's send sizes,
//! so chips that price every send alike share one model (`DESIGN.md`
//! §15).

use crate::exec::Executor;
use crate::periodic::{uniform_delta, MachineState, MAX_WARMUP_SEGMENTS};
use crate::trace::ChipStats;
use crate::{Lowered, Machine, Program, Result, RunStats, SimError};

/// How a [`walk`] ended.
#[derive(Debug)]
pub(crate) enum Walk {
    /// The uniform-delta fixed point was proven.
    Proven(SymbolicMakespan),
    /// `limit` segments ran with every obligation holding but no fixed
    /// point yet; the stats are exact for `limit` blocks.
    Exact(RunStats),
    /// The proof does not go through; only a full simulation is exact.
    Refused,
}

/// Runs `template` segment by segment on `machine` for at most `limit`
/// segments (and never more than [`MAX_WARMUP_SEGMENTS`]), checking the
/// proof obligations at every boundary. One executor runs every segment,
/// rewound in place between them, and each segment's counters and
/// boundary clocks are moved into the result: this loop is the serving
/// hot path.
pub(crate) fn walk(machine: &Machine, template: &Lowered, limit: usize) -> Walk {
    // Non-affine link timing voids the shift-invariance proof: a finite
    // ingress buffer couples segments through occupancy carried across
    // boundaries, and the lossy drop pattern depends on the per-block
    // message ids the segment re-uses. Only regimes that provably never
    // depart from affine timing (affine itself, or a queue that can never
    // fill) may extrapolate (`DESIGN.md` §11). Faults are pinned to
    // absolute cycles, so a non-empty plan voids the proof too.
    if machine.chips().iter().any(|c| !c.link_regime.contention_free())
        || !machine.faults().is_empty()
    {
        return Walk::Refused;
    }
    let n = machine.len();
    let bound = limit.min(MAX_WARMUP_SEGMENTS);
    let mut carry = MachineState::zero(n);
    let mut totals = vec![ChipStats::default(); n];
    let mut segments: Vec<Vec<ChipStats>> = Vec::with_capacity(bound);
    let mut clocks: Vec<Vec<u64>> = Vec::with_capacity(bound + 1);
    let mut prev_send: Option<(u64, u64)> = None;
    let mut executor = Executor::for_walk(machine, template);
    for seg in 1..=bound {
        let Ok(run) = executor.run_segment() else {
            return Walk::Refused;
        };
        if !run.clean {
            return Walk::Refused;
        }
        // Send-order separation from the previous segment.
        if let (Some((_, prev_max)), Some((next_min, _))) = (prev_send, run.send_issue) {
            if prev_max >= next_min {
                return Walk::Refused;
            }
        }
        for (total, seg_stats) in totals.iter_mut().zip(&run.stats) {
            total.accumulate(seg_stats);
        }
        // Send-order separation must keep holding at every extrapolated
        // boundary: the next segment's sends are this segment's shifted
        // by delta.
        let proven = uniform_delta(&carry, &run.state).is_some_and(|delta| {
            run.send_issue.is_none_or(|(min, max)| max < min.saturating_add(delta))
        });
        if proven {
            // The makespan slope is the clock advance, which is the
            // uniform delta when any chip clock is active and zero when
            // every chip is parked.
            let delta =
                run.state.t.iter().zip(&carry.t).map(|(&now, &prev)| now - prev).max().unwrap_or(0);
            segments.push(run.stats);
            clocks.push(carry.t);
            clocks.push(run.state.t);
            return Walk::Proven(SymbolicMakespan {
                n_chips: n,
                segments,
                clocks,
                totals,
                delta,
                distinct_syncs: template.distinct_syncs,
            });
        }
        if seg == limit {
            for (chip, &t) in totals.iter_mut().zip(&run.state.t) {
                chip.finish_cycles = t;
            }
            return Walk::Exact(RunStats::new(totals, template.distinct_syncs * seg));
        }
        segments.push(run.stats);
        prev_send = run.send_issue;
        clocks.push(std::mem::replace(&mut carry, run.state).t);
    }
    Walk::Refused
}

/// `total` plus `reps` further copies of the steady-state segment `seg`,
/// with every addition and multiplication checked. Peak queue occupancy
/// is a maximum, not a sum: the steady-state segment repeats the same
/// occupancy trajectory, so its peak carries over unscaled.
fn extrapolate(total: &ChipStats, seg: &ChipStats, reps: u64) -> Option<ChipStats> {
    let f = |t: u64, s: u64| s.checked_mul(reps)?.checked_add(t);
    Some(ChipStats {
        compute_cycles: f(total.compute_cycles, seg.compute_cycles)?,
        dma_l3_l2_exposed_cycles: f(total.dma_l3_l2_exposed_cycles, seg.dma_l3_l2_exposed_cycles)?,
        dma_l2_l1_exposed_cycles: f(total.dma_l2_l1_exposed_cycles, seg.dma_l2_l1_exposed_cycles)?,
        c2c_exposed_cycles: f(total.c2c_exposed_cycles, seg.c2c_exposed_cycles)?,
        dma_l3_l2_bytes: f(total.dma_l3_l2_bytes, seg.dma_l3_l2_bytes)?,
        dma_l2_l1_bytes: f(total.dma_l2_l1_bytes, seg.dma_l2_l1_bytes)?,
        c2c_bytes_sent: f(total.c2c_bytes_sent, seg.c2c_bytes_sent)?,
        sync_marks: f(total.sync_marks, seg.sync_marks)?,
        finish_cycles: 0,
        c2c_queue_cycles: f(total.c2c_queue_cycles, seg.c2c_queue_cycles)?,
        c2c_peak_queue_bytes: total.c2c_peak_queue_bytes.max(seg.c2c_peak_queue_bytes),
        c2c_drops: f(total.c2c_drops, seg.c2c_drops)?,
        c2c_retransmits: f(total.c2c_retransmits, seg.c2c_retransmits)?,
        c2c_gave_up: f(total.c2c_gave_up, seg.c2c_gave_up)?,
        fault_stall_cycles: f(total.fault_stall_cycles, seg.fault_stall_cycles)?,
        fault_slow_cycles: f(total.fault_slow_cycles, seg.fault_slow_cycles)?,
        fault_link_cycles: f(total.fault_link_cycles, seg.fault_link_cycles)?,
        fault_transfers_affected: f(total.fault_transfers_affected, seg.fault_transfers_affected)?,
        fault_downtime_cycles: f(total.fault_downtime_cycles, seg.fault_downtime_cycles)?,
    })
}

/// A symbolically solved `(machine, template)` steady state: exact
/// [`RunStats`] for **every** block count from one warmup trajectory.
///
/// This is the simulator's only fixed-point type: the steady-state walk
/// builds it, [`crate::Machine::run_periodic`] evaluates it at one depth,
/// and [`crate::WarmupCheckpoint`] keeps it for many. It is a pure data
/// structure: [`SymbolicMakespan::eval`] sums stored segments or applies
/// one multiply-add per counter, and [`SymbolicMakespan::makespan`] is
/// the closed form `startup + (n - warm_blocks) * delta`. Exactness
/// against the full concatenated simulation is locked by
/// `tests/symbolic_lockstep.rs`.
///
/// ```
/// use mtp_sim::{ChipSpec, Instr, Machine, Program, SymbolicMakespan};
/// use mtp_kernels::Kernel;
///
/// let machine = Machine::homogeneous(ChipSpec::siracusa(), 1);
/// let block = Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))]);
/// let sym = SymbolicMakespan::derive(&machine, std::slice::from_ref(&block))?.unwrap();
/// let direct = machine.run_periodic(std::slice::from_ref(&block), 10_000)?;
/// assert_eq!(sym.eval(10_000)?, direct);
/// assert_eq!(sym.makespan(10_000)?, direct.makespan);
/// # Ok::<(), mtp_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicMakespan {
    n_chips: usize,
    /// Each warmup segment's own per-chip counters, in order; the last
    /// is the steady-state segment (the per-block increment).
    segments: Vec<Vec<ChipStats>>,
    /// Chip clocks at every boundary: `clocks[j]` after `j` segments,
    /// from the zero start to the fixed-point boundary.
    clocks: Vec<Vec<u64>>,
    /// Per-chip counters accumulated over all warmup segments.
    totals: Vec<ChipStats>,
    /// Per-block advance of the latest chip clock — the slope of the
    /// makespan in blocks. Equals the proven uniform state delta whenever
    /// any chip is active (inactive chips never hold the maximum clock).
    delta: u64,
    /// Distinct sync ids per segment (the same for every segment of one
    /// template).
    distinct_syncs: usize,
}

impl SymbolicMakespan {
    /// Walks `(machine, template)` up to the warmup bound and returns
    /// the proven steady state.
    ///
    /// Returns `Ok(None)` whenever the proof does not go through — a
    /// contention-bearing link regime, a non-empty fault plan, an unclean
    /// or unseparated boundary, an aperiodic template, or a template
    /// error — exactly the conditions under which
    /// [`crate::Machine::run_periodic`] simulates in full. Callers then
    /// simulate exactly instead.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::ProgramCountMismatch`] when `template` does not
    /// provide one program per chip; every other template problem yields
    /// `Ok(None)` so the caller's exact fallback reports it.
    pub fn derive(machine: &Machine, template: &[Program]) -> Result<Option<Self>> {
        Self::derive_lowered(machine, &machine.lower(template)?)
    }

    /// [`SymbolicMakespan::derive`] on an already lowered template.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SymbolicMakespan::derive`], plus
    /// [`SimError::FormPricingMismatch`] when `template` was priced for
    /// other chips.
    pub fn derive_lowered(machine: &Machine, template: &Lowered) -> Result<Option<Self>> {
        machine.check_form(template)?;
        Ok(match walk(machine, template, MAX_WARMUP_SEGMENTS) {
            Walk::Proven(model) => Some(model),
            Walk::Exact(_) | Walk::Refused => None,
        })
    }

    /// Exact [`RunStats`] for `n_blocks` repetitions — bit-identical to
    /// [`crate::Machine::run_periodic`] on the same pair, with zero
    /// simulation: warmup-window depths sum the stored segments, deeper
    /// ones apply one multiply-add per counter.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::CycleOverflow`] when a counter of the
    /// `n_blocks`-deep run does not fit in `u64`.
    pub fn eval(&self, n_blocks: usize) -> Result<RunStats> {
        let overflow = || SimError::CycleOverflow { n_blocks };
        let syncs = self.distinct_syncs.checked_mul(n_blocks).ok_or_else(overflow)?;
        let warm = self.warm_blocks();
        if n_blocks <= warm {
            let mut per_chip = vec![ChipStats::default(); self.n_chips];
            for seg in &self.segments[..n_blocks] {
                for (chip, seg_stats) in per_chip.iter_mut().zip(seg) {
                    chip.accumulate(seg_stats);
                }
            }
            for (chip, &t) in per_chip.iter_mut().zip(&self.clocks[n_blocks]) {
                chip.finish_cycles = t;
            }
            return Ok(RunStats::new(per_chip, syncs));
        }
        let reps = (n_blocks - warm) as u64;
        let last = &self.segments[warm - 1];
        let (t_prev, t_now) = (&self.clocks[warm - 1], &self.clocks[warm]);
        let mut per_chip = Vec::with_capacity(self.n_chips);
        for ((total, seg_stats), (&now, &prev)) in
            self.totals.iter().zip(last).zip(t_now.iter().zip(t_prev))
        {
            let mut chip = extrapolate(total, seg_stats, reps).ok_or_else(overflow)?;
            // Inactive chips (delta 0) stay parked at their clock;
            // active chips advance by delta per block.
            chip.finish_cycles = (now - prev)
                .checked_mul(reps)
                .and_then(|d| d.checked_add(now))
                .ok_or_else(overflow)?;
            per_chip.push(chip);
        }
        Ok(RunStats::new(per_chip, syncs))
    }

    /// The closed-form makespan: `startup + (n - warm_blocks) * delta`
    /// beyond the warmup window, the stored boundary maximum inside it,
    /// `0` for an empty run. Equals `self.eval(n_blocks)?.makespan`
    /// whenever that evaluation fits.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::CycleOverflow`] when the makespan does not fit
    /// in `u64`.
    pub fn makespan(&self, n_blocks: usize) -> Result<u64> {
        let warm = self.warm_blocks();
        if n_blocks <= warm {
            return Ok(self.clocks[n_blocks].iter().copied().max().unwrap_or(0));
        }
        ((n_blocks - warm) as u64)
            .checked_mul(self.delta)
            .and_then(|d| d.checked_add(self.startup()))
            .ok_or(SimError::CycleOverflow { n_blocks })
    }

    /// Makespan of the whole warmup window (the `startup` term of the
    /// closed form): the latest chip clock at the fixed-point boundary.
    #[must_use]
    pub fn startup(&self) -> u64 {
        self.clocks[self.warm_blocks()].iter().copied().max().unwrap_or(0)
    }

    /// Per-block makespan slope in cycles (the `delta` term of the closed
    /// form).
    #[must_use]
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Warmup segments the fixed-point proof consumed (the `warm_blocks`
    /// term of the closed form).
    #[must_use]
    pub fn warm_blocks(&self) -> usize {
        self.segments.len()
    }

    /// Number of chips the model spans.
    #[must_use]
    pub fn n_chips(&self) -> usize {
        self.n_chips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChipSpec, Instr, LinkRegime};
    use mtp_kernels::Kernel;

    fn machine(n: usize) -> Machine {
        Machine::homogeneous(ChipSpec::siracusa(), n)
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

    /// The oracle: a full simulation of `n_blocks` id-shifted copies.
    fn full(m: &Machine, template: &[Program], n_blocks: usize) -> RunStats {
        m.run(&crate::periodic::concat_shifted(template, n_blocks)).unwrap()
    }

    #[test]
    fn eval_matches_run_periodic_at_every_depth() {
        let m = machine(2);
        let template = ping_pong_template();
        let sym = SymbolicMakespan::derive(&m, &template).unwrap().unwrap();
        for n_blocks in [0usize, 1, 2, 3, 4, 5, 9, 40, 96, 10_000] {
            let direct = full(&m, &template, n_blocks);
            assert_eq!(sym.eval(n_blocks).unwrap(), direct, "n_blocks={n_blocks}");
            assert_eq!(sym.makespan(n_blocks).unwrap(), direct.makespan, "n_blocks={n_blocks}");
            assert_eq!(m.run_periodic(&template, n_blocks).unwrap(), direct, "n_blocks={n_blocks}");
        }
    }

    /// A three-chip template whose sends straddle segment boundaries:
    /// chip 0 sends at the start of its program, chip 1 only after a long
    /// compute, so the next segment's first send precedes this segment's
    /// last one.
    fn overlapping_sends_template() -> [Program; 3] {
        [
            Program::from_instrs([Instr::send(2, 0, 64)]),
            Program::from_instrs([
                Instr::compute(Kernel::gemm(64, 256, 256)),
                Instr::send(2, 1, 64),
            ]),
            Program::from_instrs([Instr::recv(0, 0), Instr::recv(1, 1)]),
        ]
    }

    #[test]
    fn walk_proves_the_fixed_point() {
        let m = machine(2);
        let template = ping_pong_template();
        let Walk::Proven(model) = walk(&m, &m.lower(&template).unwrap(), MAX_WARMUP_SEGMENTS)
        else {
            panic!("the ping-pong template is periodic");
        };
        assert_eq!(model.warm_blocks(), derive_warm(&m, &template));
        for n_blocks in [model.warm_blocks(), 40] {
            assert_eq!(model.eval(n_blocks).unwrap(), full(&m, &template, n_blocks));
        }
    }

    fn derive_warm(m: &Machine, template: &[Program]) -> usize {
        SymbolicMakespan::derive(m, template).unwrap().unwrap().warm_blocks()
    }

    #[test]
    fn walk_below_the_fixed_point_is_exact() {
        // A limit short of the warmup leaves no fixed point, yet the
        // segment-by-segment totals equal the full run of that many
        // blocks.
        let m = machine(2);
        let template = ping_pong_template();
        let warm = derive_warm(&m, &template);
        assert!(warm >= 2, "the template needs a warmup longer than one segment");
        for limit in 1..warm {
            let Walk::Exact(stats) = walk(&m, &m.lower(&template).unwrap(), limit) else {
                panic!("limit {limit} < warm {warm} must stop exact");
            };
            assert_eq!(stats, full(&m, &template, limit), "limit={limit}");
        }
    }

    #[test]
    fn walk_refuses_every_unprovable_case() {
        // Unclean boundary: a DMA still in flight when the segment ends.
        let one = machine(1);
        let in_flight = [Program::from_instrs([
            Instr::DmaAsync { path: crate::MemPath::L3ToL2, bytes: 1 << 20, tag: crate::DmaTag(0) },
            Instr::compute(Kernel::Add { n: 64 }),
        ])];
        assert!(matches!(
            walk(&one, &one.lower(&in_flight).unwrap(), MAX_WARMUP_SEGMENTS),
            Walk::Refused
        ));
        // Send overlap between consecutive segments.
        let three = machine(3);
        let overlap = overlapping_sends_template();
        assert!(
            matches!(walk(&three, &three.lower(&overlap).unwrap(), 1), Walk::Exact(_)),
            "one segment is clean"
        );
        assert!(matches!(
            walk(&three, &three.lower(&overlap).unwrap(), MAX_WARMUP_SEGMENTS),
            Walk::Refused
        ));
        assert_eq!(three.run_periodic(&overlap, 9).unwrap(), full(&three, &overlap, 9));
        // A contention-bearing link regime.
        let template = ping_pong_template();
        let mut spec = ChipSpec::siracusa();
        spec.link_regime = LinkRegime::Lossy { drop_per_mille: 100, nack_cycles: 500 };
        let lossy = Machine::homogeneous(spec, 2);
        assert!(matches!(
            walk(&lossy, &lossy.lower(&template).unwrap(), MAX_WARMUP_SEGMENTS),
            Walk::Refused
        ));
        // A fault plan.
        let plan = crate::FaultPlan::parse("stall:0:5000:2000").unwrap();
        let faulted = machine(2).with_faults(plan);
        assert!(matches!(
            walk(&faulted, &faulted.lower(&template).unwrap(), MAX_WARMUP_SEGMENTS),
            Walk::Refused
        ));
        // A segment error (a receive nobody sends).
        let deadlock =
            [Program::from_instrs([Instr::recv(1, 99)]), Program::from_instrs([Instr::Sync(0)])];
        let two = machine(2);
        assert!(matches!(
            walk(&two, &two.lower(&deadlock).unwrap(), MAX_WARMUP_SEGMENTS),
            Walk::Refused
        ));
    }

    #[test]
    fn deepest_fitting_depth_is_exact_and_one_more_is_a_typed_error() {
        // One compute-only chip: every block adds the same cycles, so the
        // makespan and the compute counter are the same line, and the
        // first depth past u64 is where both overflow.
        let m = machine(1);
        let template = [Program::from_instrs([Instr::compute(Kernel::gemv(256, 256))])];
        let sym = SymbolicMakespan::derive(&m, &template).unwrap().unwrap();
        let per_block = u128::from(m.run(&template).unwrap().makespan);
        let warm = sym.warm_blocks() as u128;
        let reference = |n: u128| u128::from(sym.startup()) + (n - warm) * u128::from(sym.delta());
        assert_eq!(u128::from(sym.delta()), per_block);
        let deepest = warm + (u128::from(u64::MAX) - u128::from(sym.startup())) / per_block;
        assert!(reference(deepest) <= u128::from(u64::MAX));
        assert!(reference(deepest + 1) > u128::from(u64::MAX));
        let n = usize::try_from(deepest).unwrap();
        let stats = sym.eval(n).unwrap();
        assert_eq!(u128::from(stats.makespan), reference(deepest));
        assert_eq!(u128::from(stats.per_chip[0].compute_cycles), reference(deepest));
        assert_eq!(u128::from(sym.makespan(n).unwrap()), reference(deepest));
        let overflow = crate::SimError::CycleOverflow { n_blocks: n + 1 };
        assert_eq!(sym.eval(n + 1), Err(overflow.clone()));
        assert_eq!(sym.makespan(n + 1), Err(overflow.clone()));
        assert_eq!(m.run_periodic(&template, n + 1), Err(overflow));
    }

    #[test]
    fn closed_form_terms_are_consistent() {
        let m = machine(2);
        let template = ping_pong_template();
        let sym = SymbolicMakespan::derive(&m, &template).unwrap().unwrap();
        let warm = sym.warm_blocks();
        assert!(warm >= 1);
        assert_eq!(sym.makespan(warm).unwrap(), sym.startup());
        assert_eq!(sym.makespan(warm + 7).unwrap(), sym.startup() + 7 * sym.delta());
        assert_eq!(sym.n_chips(), 2);
    }

    #[test]
    fn program_count_mismatch_detected() {
        let m = machine(2);
        assert!(matches!(
            SymbolicMakespan::derive(&m, &[Program::new()]),
            Err(crate::SimError::ProgramCountMismatch { chips: 2, programs: 1 })
        ));
    }

    #[test]
    fn aperiodic_template_yields_none() {
        // A boundary with DMA in flight never proves clean.
        let m = machine(1);
        let template = [Program::from_instrs([
            Instr::DmaAsync { path: crate::MemPath::L3ToL2, bytes: 1 << 20, tag: crate::DmaTag(0) },
            Instr::compute(Kernel::Add { n: 64 }),
        ])];
        assert!(SymbolicMakespan::derive(&m, &template).unwrap().is_none());
    }

    #[test]
    fn contention_regime_and_faults_yield_none() {
        let template = ping_pong_template();
        let mut spec = ChipSpec::siracusa();
        spec.link_regime = LinkRegime::Lossy { drop_per_mille: 100, nack_cycles: 500 };
        let lossy = Machine::homogeneous(spec, 2);
        assert!(SymbolicMakespan::derive(&lossy, &template).unwrap().is_none());

        let plan = crate::FaultPlan::parse("stall:0:5000:2000").unwrap();
        let faulted = machine(2).with_faults(plan);
        assert!(SymbolicMakespan::derive(&faulted, &template).unwrap().is_none());
    }

    #[test]
    fn empty_template_is_delta_zero() {
        let m = machine(1);
        let template = [Program::new()];
        let sym = SymbolicMakespan::derive(&m, &template).unwrap().unwrap();
        assert_eq!(sym.delta(), 0);
        assert_eq!(sym.makespan(1_000_000).unwrap(), sym.startup());
    }
}
