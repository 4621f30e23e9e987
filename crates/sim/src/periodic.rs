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
//! back to full simulation. The segment loop itself is the crate's one
//! steady-state walk ([`crate::symbolic`]); [`Machine::run_periodic`]
//! stops it at `n_blocks` segments, [`SymbolicMakespan::derive`] at the
//! warmup bound. See `DESIGN.md` §9 for the soundness argument, and
//! `tests/periodic_lockstep.rs` for the exact-equality lockstep suites.
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

use crate::symbolic::{walk, Walk};
use crate::{trace::ChipStats, Lowered, Machine, Program, Result, RunStats, SymbolicMakespan};

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
    /// `true` when every chip finished with no async DMA in flight and
    /// no ingress buffer holds an unconsumed message.
    pub(crate) clean: bool,
}

/// `n_blocks` at or below this run as one plain simulation: the warmup
/// needs at least two segments before extrapolation can save anything.
/// Callers answering depths from a kept [`SymbolicMakespan`] apply it too.
pub const FULL_RUN_THRESHOLD: usize = 4;

/// Executor ops a full run may materialize: when no steady state is
/// proven, [`Machine::run_periodic`] concatenates `n_blocks` copies of
/// the template (about 16 bytes per op, plus the executor's per-message
/// state), and past this many ops it refuses with
/// [`crate::SimError::FullRunBudget`] instead of allocating without
/// bound. 2^22 ops is about 120 times the largest full run any test or
/// benchmark asks for.
pub const MAX_FULL_RUN_OPS: usize = 1 << 22;

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

/// A proven steady state kept for one `(machine, template)` pair,
/// reusable across every block count simulated on that pair.
///
/// It holds the [`SymbolicMakespan`] when the proof went through and
/// nothing otherwise (aperiodic template, contention-bearing link
/// regime, fault plan, or a template error); callers simulate exactly
/// in that case. Built from [`SymbolicMakespan::derive`]'s result.
#[derive(Debug, Clone)]
pub struct WarmupCheckpoint(Option<SymbolicMakespan>);

impl From<Option<SymbolicMakespan>> for WarmupCheckpoint {
    fn from(model: Option<SymbolicMakespan>) -> Self {
        WarmupCheckpoint(model)
    }
}

impl WarmupCheckpoint {
    /// `true` when the warmup proved a fixed point.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.0.is_some()
    }

    /// Number of warmup segments the proof consumed (`None` when not
    /// converged) — the per-depth simulation cost the checkpoint saves.
    #[must_use]
    pub fn warmup_segments(&self) -> Option<usize> {
        self.0.as_ref().map(SymbolicMakespan::warm_blocks)
    }

    /// The proven steady state, `None` when not converged.
    #[must_use]
    pub fn model(&self) -> Option<&SymbolicMakespan> {
        self.0.as_ref()
    }
}

/// Builds the concatenated programs the periodic contract is defined
/// against: `n_blocks` copies of the template with per-block message and
/// sync identifier shifts (stride = the template's [`crate::id_span`]),
/// exactly the id-disjoint instantiation a schedule builder would emit.
/// The tests' oracle for `Lowered::repeat`, which the engine runs.
#[cfg(test)]
pub(crate) fn concat_shifted(template: &[Program], n_blocks: usize) -> Vec<Program> {
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
    /// malformed-program errors; plus [`crate::SimError::CycleOverflow`]
    /// when an extrapolated counter does not fit in `u64`, and
    /// [`crate::SimError::FullRunBudget`] when no steady state is proven
    /// and the full run would pass [`MAX_FULL_RUN_OPS`].
    pub fn run_periodic(&self, template: &[Program], n_blocks: usize) -> Result<RunStats> {
        self.run_periodic_lowered(&self.lower(template)?, n_blocks)
    }

    /// [`Machine::run_periodic`] on an already lowered template: the
    /// walk and the full-run fallback both replay `template` without
    /// re-lowering it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run_periodic`], plus
    /// [`crate::SimError::FormPricingMismatch`] when `template` was
    /// priced for other chips.
    pub fn run_periodic_lowered(&self, template: &Lowered, n_blocks: usize) -> Result<RunStats> {
        self.check_form(template)?;
        if n_blocks == 1 {
            // One repetition needs no id shifting: the template runs
            // as-is (this is every block-span scenario of a sweep).
            return self.run_lowered(template);
        }
        if n_blocks > FULL_RUN_THRESHOLD {
            match walk(self, template, n_blocks) {
                Walk::Proven(model) => return model.eval(n_blocks),
                Walk::Exact(stats) => return Ok(stats),
                // The full run reproduces the exact result, or the exact
                // error the concatenated simulation reports.
                Walk::Refused => {}
            }
        }
        let ops_per_block = template.ops.len();
        if ops_per_block.checked_mul(n_blocks).is_none_or(|ops| ops > MAX_FULL_RUN_OPS) {
            return Err(crate::SimError::FullRunBudget { n_blocks, ops_per_block });
        }
        self.run_lowered(&template.repeat(n_blocks))
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
    fn full_run_past_the_op_budget_is_a_typed_error() {
        // A contention-bearing regime proves no steady state, so every
        // block count past the threshold falls back to the full run.
        let mut chip = ChipSpec::siracusa();
        chip.link_regime = crate::LinkRegime::Lossy { drop_per_mille: 10, nack_cycles: 100 };
        let m = Machine::homogeneous(chip, 2);
        let template = [
            Program::from_instrs([Instr::compute(Kernel::gemv(64, 64)), Instr::send(1, 0, 256)]),
            Program::from_instrs([Instr::recv(0, 0)]),
        ];
        let ops = m.lower(&template).unwrap().ops.len();
        let fits = MAX_FULL_RUN_OPS / ops;
        assert!(m.run_periodic(&template, 10).is_ok());
        // Refused before anything is materialized, however large.
        for n_blocks in [fits + 1, usize::MAX] {
            assert_eq!(
                m.run_periodic(&template, n_blocks),
                Err(crate::SimError::FullRunBudget { n_blocks, ops_per_block: ops })
            );
        }
        let err = m.run_periodic(&template, usize::MAX).unwrap_err().to_string();
        assert!(err.contains("MAX_FULL_RUN_OPS"), "{err}");
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
        let ckpt = WarmupCheckpoint::from(SymbolicMakespan::derive(&m, &template).unwrap());
        assert!(!ckpt.converged(), "faulted machines never extrapolate");
        assert!(ckpt.model().is_none());
    }

    #[test]
    fn warm_resume_matches_cold_periodic_across_depths() {
        // One warmup checkpoint answers every depth bit-identically, and
        // every depth equals the full concatenated simulation.
        let m = machine(2);
        let template = ping_pong_template();
        let ckpt = WarmupCheckpoint::from(SymbolicMakespan::derive(&m, &template).unwrap());
        assert!(ckpt.converged());
        assert!(ckpt.warmup_segments().unwrap() <= MAX_WARMUP_SEGMENTS);
        let model = ckpt.model().unwrap();
        assert_eq!(ckpt.warmup_segments(), Some(model.warm_blocks()));
        for n_blocks in [1usize, 3, 5, 9, 40, 96, 192] {
            let warm = model.eval(n_blocks).unwrap();
            let full = m.run(&concat_shifted(&template, n_blocks)).unwrap();
            assert_eq!(warm, full, "n_blocks={n_blocks}");
        }
        assert_eq!(model.eval(10_000).unwrap(), m.run_periodic(&template, 10_000).unwrap());
    }

    #[test]
    fn warmup_on_aperiodic_template_resumes_via_fallback() {
        // The in-flight-DMA template never proves a clean boundary: the
        // checkpoint is unconverged and the periodic engine must
        // reproduce the full simulation exactly.
        let m = machine(1);
        let template = [Program::from_instrs([
            Instr::DmaAsync { path: MemPath::L3ToL2, bytes: 1 << 20, tag: DmaTag(0) },
            Instr::compute(Kernel::Add { n: 64 }),
        ])];
        let ckpt = WarmupCheckpoint::from(SymbolicMakespan::derive(&m, &template).unwrap());
        assert!(!ckpt.converged());
        assert_eq!(ckpt.warmup_segments(), None);
        assert!(ckpt.model().is_none());
        let cold = m.run_periodic(&template, 7).unwrap();
        assert_eq!(cold, m.run(&concat_shifted(&template, 7)).unwrap());
    }

    #[test]
    fn warmup_under_contention_regime_is_unconverged() {
        let template = ping_pong_template();
        let m = machine_with_regime(
            2,
            crate::LinkRegime::Lossy { drop_per_mille: 100, nack_cycles: 500 },
        );
        let ckpt = WarmupCheckpoint::from(SymbolicMakespan::derive(&m, &template).unwrap());
        assert!(!ckpt.converged());
        for n_blocks in [5usize, 40] {
            let cold = m.run_periodic(&template, n_blocks).unwrap();
            let full = m.run(&concat_shifted(&template, n_blocks)).unwrap();
            assert_eq!(cold, full, "n_blocks={n_blocks}");
        }
    }

    #[test]
    fn warmup_program_count_mismatch_detected() {
        let m = machine(2);
        assert!(matches!(
            SymbolicMakespan::derive(&m, &[Program::new()]),
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
