//! Discrete-event execution of lowered per-chip programs on a multi-chip
//! machine.
//!
//! The executor advances chips in global-time order (a conservative
//! discrete-event scheme): at every step the chip with the smallest local
//! clock executes its next op. Sends occupy the sender's TX port and the
//! receiver's RX port first-come-first-served, receives block until the
//! matching message has fully arrived, and asynchronous DMA transfers
//! overlap compute until the matching wait. A blocking weight stream
//! advances by whole runs of equal tiles, stopping only at tile
//! boundaries where a fault event ripens.
//!
//! It runs only the [`Lowered`] form: kernels and DMA transfers arrive
//! priced, and message ids index a plain vector. [`Machine::run`] lowers
//! and runs in one call; callers that replay one template many times
//! (walk segments, serving passes, sweep depths) lower it once. The
//! steady-state walk rewinds one executor per segment instead of
//! building a new one. Every clock advance, transfer end and byte
//! counter goes through one checked addition ([`add`]), so a run whose
//! counters leave `u64` is [`SimError::CounterOverflow`].
//!
//! The executor is generic over a [`TraceSink`]; the aggregate-only entry
//! point ([`Machine::run`]) instantiates it with [`MakespanOnly`], which
//! compiles event recording — including event-label formatting — down to
//! nothing.

use crate::{
    gantt::TraceKind,
    lower::{Lowered, Op, SendOp, StreamOp, Xfer},
    periodic::{MachineState, SegmentRun},
    sink::{MakespanOnly, TraceCollector, TraceSink},
    trace::ChipStats,
    ChipId, ChipSpec, DmaTag, FaultEvent, FaultPlan, Instr, MemPath, Program, Result, RunStats,
    SimError, Trace,
};
use mtp_link::{go_back_n_overhead, LinkRegime, QueueDiscipline, LOSSY_MTU_BYTES};

/// `a + b` for a clock, transfer end or counter of `chip`: the checked
/// step every executor advance goes through.
///
/// # Errors
///
/// [`SimError::CounterOverflow`] when the sum does not fit in `u64`.
#[inline]
fn add(a: u64, b: u64, chip: usize) -> Result<u64> {
    a.checked_add(b).ok_or(SimError::CounterOverflow { chip: ChipId(chip) })
}

/// `a * b` for a run of equal transfers of `chip`, checked like [`add`].
#[inline]
fn mul(a: u64, b: u64, chip: usize) -> Result<u64> {
    a.checked_mul(b).ok_or(SimError::CounterOverflow { chip: ChipId(chip) })
}

/// A multi-chip machine: a set of chips plus the (implicit, fully-connected
/// logical) chip-to-chip link fabric.
///
/// Physical topology constraints (hierarchical groups of four) are encoded
/// by *which* sends the schedule performs, exactly as in the paper; the
/// machine itself times any point-to-point message over the sender's and
/// receiver's MIPI ports.
#[derive(Debug, Clone)]
pub struct Machine {
    chips: Vec<ChipSpec>,
    faults: FaultPlan,
}

impl Machine {
    /// A machine built from per-chip specifications (no fault plan).
    #[must_use]
    pub fn new(chips: Vec<ChipSpec>) -> Self {
        Machine { chips, faults: FaultPlan::none() }
    }

    /// A machine of `n` identical chips (no fault plan).
    #[must_use]
    pub fn homogeneous(spec: ChipSpec, n: usize) -> Self {
        Machine { chips: vec![spec; n], faults: FaultPlan::none() }
    }

    /// This machine with `faults` attached: every subsequent run injects
    /// the plan's events. An empty plan is bit-identical to a machine
    /// that never had one, and a non-empty plan disables periodic
    /// extrapolation (see [`crate::FaultPlan`]).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The machine's fault plan (empty unless [`Machine::with_faults`]
    /// installed one).
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The chip specifications.
    #[must_use]
    pub fn chips(&self) -> &[ChipSpec] {
        &self.chips
    }

    /// Number of chips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// `true` for a machine with no chips.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Lowers one program per chip into the pre-costed form the executor
    /// runs ([`Lowered`]), priced with each chip's kernel cost model and
    /// DMA engines. The form replays on any machine whose chips price
    /// the same way, whatever their link bandwidth, regime or faults.
    ///
    /// # Errors
    ///
    /// [`SimError::ProgramCountMismatch`] when `programs.len()` differs
    /// from the chip count.
    pub fn lower(&self, programs: &[Program]) -> Result<Lowered> {
        self.check_count(programs.len())?;
        Ok(Lowered::new(&self.chips, programs))
    }

    fn check_count(&self, programs: usize) -> Result<()> {
        if programs == self.chips.len() {
            Ok(())
        } else {
            Err(SimError::ProgramCountMismatch { chips: self.chips.len(), programs })
        }
    }

    /// Executes one program per chip to completion, reporting aggregates
    /// only (the [`MakespanOnly`] sink: no trace event is materialized).
    ///
    /// # Errors
    ///
    /// - [`SimError::ProgramCountMismatch`] when `programs.len()` differs
    ///   from the chip count.
    /// - [`SimError::Deadlock`] when every unfinished chip waits on a
    ///   message that is never sent.
    /// - [`SimError::DuplicateMessage`], [`SimError::InvalidChip`],
    ///   [`SimError::SenderMismatch`], [`SimError::UnknownDmaTag`] on
    ///   malformed programs.
    /// - [`SimError::ChipFailed`] when a fail-stop fault stops a chip
    ///   with work left, and [`SimError::CounterOverflow`] when a chip's
    ///   clock or byte counters do not fit in `u64`.
    pub fn run(&self, programs: &[Program]) -> Result<RunStats> {
        self.run_with_sink(programs, MakespanOnly).map(|(stats, _)| stats)
    }

    /// Like [`Machine::run`], but also records a per-chip [`Trace`] of
    /// every busy interval (tracing never changes timing).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`].
    pub fn run_traced(&self, programs: &[Program]) -> Result<(RunStats, Trace)> {
        // One event per instruction at most, except that a stream records
        // one per tile: a reservation hint, not a bound.
        let events_hint: usize = programs.iter().map(Program::len).sum();
        let sink = TraceCollector::with_capacity(events_hint);
        let (stats, sink) = self.run_with_sink(programs, sink)?;
        Ok((stats, sink.into_trace()))
    }

    /// Executes the programs, delivering busy intervals to an arbitrary
    /// [`TraceSink`]. This is the generic entry point [`Machine::run`] and
    /// [`Machine::run_traced`] specialize; custom sinks (sampling,
    /// streaming to disk, live dashboards) plug in here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`].
    pub fn run_with_sink<S: TraceSink>(
        &self,
        programs: &[Program],
        sink: S,
    ) -> Result<(RunStats, S)> {
        let form = self.lower(programs)?;
        let mut executor = Executor::new(self, &form, sink);
        executor.source = programs;
        executor.run()
    }

    /// [`Machine::run`] on an already lowered form.
    ///
    /// # Errors
    ///
    /// [`SimError::ProgramCountMismatch`] when the form spans a different
    /// chip count, [`SimError::FormPricingMismatch`] when it was priced
    /// for other chips; otherwise the same conditions as [`Machine::run`].
    pub fn run_lowered(&self, form: &Lowered) -> Result<RunStats> {
        self.check_form(form)?;
        Executor::new(self, form, MakespanOnly).run().map(|(stats, _)| stats)
    }

    /// Checks that `form` may run on this machine: one chip per lowered
    /// program, each pricing kernels and DMA as the form was priced.
    ///
    /// # Errors
    ///
    /// [`SimError::ProgramCountMismatch`] or
    /// [`SimError::FormPricingMismatch`].
    pub(crate) fn check_form(&self, form: &Lowered) -> Result<()> {
        self.check_count(form.n_chips())?;
        match form.mispriced_chip(self) {
            Some(chip) => Err(SimError::FormPricingMismatch { chip: ChipId(chip) }),
            None => Ok(()),
        }
    }
}

/// One chip's expanded fault schedule, materialized from the machine's
/// [`FaultPlan`] at executor construction. All lists are sorted by start
/// cycle; stalls are consumed once each through a cursor, and each window
/// list keeps a cursor past its prefix of already-closed windows.
#[derive(Debug, Clone, Default)]
struct ChipFaults {
    /// Earliest fail-stop cycle, if any.
    fail_at: Option<u64>,
    /// Transient stalls as `(at, cycles)`.
    stalls: Vec<(u64, u64)>,
    /// Index of the next unconsumed stall.
    next_stall: usize,
    /// Compute-slowdown windows as `(from, until, factor_pct)`.
    slows: Windows,
    /// Outgoing-link degrade windows as `(from, until, factor_pct)`.
    flaps: Windows,
}

impl ChipFaults {
    /// Applies ripe fault events to the chip at an op boundary: consumes
    /// every transient stall whose start has been reached (freezing the
    /// clock for its duration), then checks fail-stop.
    ///
    /// # Errors
    ///
    /// [`SimError::ChipFailed`] when the chip's clock has reached its
    /// fail-stop cycle while an op remains to execute, and
    /// [`SimError::CounterOverflow`] when a stall pushes the clock past
    /// `u64`.
    fn apply(&mut self, st: &mut ChipState, chip: usize) -> Result<()> {
        while let Some(&(at, cycles)) = self.stalls.get(self.next_stall) {
            if at > st.t {
                break;
            }
            self.next_stall += 1;
            st.t = add(st.t, cycles, chip)?;
            st.stats.fault_stall_cycles += cycles;
        }
        match self.fail_at {
            Some(at) if st.t >= at => Err(SimError::ChipFailed { chip: ChipId(chip), at }),
            _ => Ok(()),
        }
    }

    /// The cycle of this chip's next boundary event (an unconsumed stall
    /// or the fail-stop), if any.
    fn next_event(&self) -> Option<u64> {
        let stall = self.stalls.get(self.next_stall).map(|&(at, _)| at);
        match (stall, self.fail_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// How many of `left` back-to-back `cycles`-long tiles starting at
    /// `start` can run before a tile boundary reaches the next event:
    /// every boundary strictly inside the returned run lies before the
    /// event, so the fault checks there are no-ops.
    fn tiles_before_event(&self, start: u64, cycles: u64, left: u64) -> u64 {
        match self.next_event() {
            None => left,
            Some(e) if e <= start => 1,
            Some(_) if cycles == 0 => left,
            Some(e) => ((e - start - 1) / cycles + 1).min(left),
        }
    }
}

/// A sorted degrade-window list with a cursor past the prefix of windows
/// already closed. Exact because each chip queries its windows at
/// non-decreasing times (its clock for slowdowns, its send start for
/// link flaps), so a window closed once stays closed.
#[derive(Debug, Clone, Default)]
struct Windows {
    /// `(from, until, factor_pct)`, sorted.
    list: Vec<(u64, u64, u32)>,
    /// Every window before this index has `until <= ` the last query time.
    closed: usize,
}

impl Windows {
    /// Sum of degrade-window surcharges for an action of `base` cycles
    /// issued at local time `t` (non-decreasing across calls), or `None`
    /// when it does not fit in `u64`. The scan starts past the closed
    /// prefix and stops at the first window opening after `t`. Factors
    /// at or below 100 percent contribute nothing (the parser rejects
    /// them; programmatic events are clamped here).
    fn extra(&mut self, t: u64, base: u64) -> Option<u64> {
        while self.list.get(self.closed).is_some_and(|&(_, until, _)| until <= t) {
            self.closed += 1;
        }
        let mut extra = 0u64;
        for &(from, until, pct) in &self.list[self.closed..] {
            if from > t {
                break;
            }
            if t < until {
                let surcharge = u128::from(base) * u128::from(pct.saturating_sub(100)) / 100;
                extra = extra.checked_add(u64::try_from(surcharge).ok()?)?;
            }
        }
        Some(extra)
    }
}

/// Expands a fault plan into per-chip schedules; `None` for the empty
/// plan, so the fault-free hot path stays branch-cheap.
fn expand_faults(plan: &FaultPlan, n: usize) -> Option<Vec<ChipFaults>> {
    if plan.is_empty() {
        return None;
    }
    let mut per_chip = vec![ChipFaults::default(); n];
    for event in plan.events_for(n) {
        match event {
            FaultEvent::FailStop { chip, at } => {
                let f = &mut per_chip[chip];
                f.fail_at = Some(f.fail_at.map_or(at, |cur| cur.min(at)));
            }
            FaultEvent::Stall { chip, at, cycles } => per_chip[chip].stalls.push((at, cycles)),
            FaultEvent::Slow { chip, from, cycles, factor_pct } => {
                per_chip[chip].slows.list.push((from, from.saturating_add(cycles), factor_pct));
            }
            FaultEvent::Flap { chip, from, cycles, factor_pct } => {
                per_chip[chip].flaps.list.push((from, from.saturating_add(cycles), factor_pct));
            }
        }
    }
    for f in &mut per_chip {
        f.stalls.sort_unstable();
        f.slows.list.sort_unstable();
        f.flaps.list.sort_unstable();
    }
    Some(per_chip)
}

/// Charges a DMA transfer's bytes and exposed cycles to `stats`. Exposed
/// cycles are part of a clock advance that already passed [`add`], so
/// only the byte counter needs checking.
fn charge_dma(
    stats: &mut ChipStats,
    path: MemPath,
    bytes: u64,
    exposed: u64,
    chip: usize,
) -> Result<()> {
    if path.is_off_chip() {
        stats.dma_l3_l2_bytes = add(stats.dma_l3_l2_bytes, bytes, chip)?;
        stats.dma_l3_l2_exposed_cycles += exposed;
    } else {
        stats.dma_l2_l1_bytes = add(stats.dma_l2_l1_bytes, bytes, chip)?;
        stats.dma_l2_l1_exposed_cycles += exposed;
    }
    Ok(())
}

/// Per-chip mutable execution state: the chip's program counter, clock
/// and engines, the RX port and ingress buffer it owns, and its
/// queued-regime bookkeeping as a sender. One vector of these keeps a
/// run's set-up to a handful of allocations.
#[derive(Debug, Default)]
struct ChipState {
    /// Index of the next op in the form's flat op list.
    pc: usize,
    /// One past this chip's last op.
    end: usize,
    t: u64,
    tx_free: u64,
    io_dma_free: u64,
    cluster_dma_free: u64,
    rx_free: u64,
    /// Ingress-buffer occupancy in bytes (queued regimes; stays zero
    /// under affine).
    rx_occ: u64,
    /// Peak ingress occupancy, folded into
    /// [`ChipStats::c2c_peak_queue_bytes`] at run end.
    rx_peak: u64,
    /// FIFO of senders parked on this chip's buffer credit.
    credit_waiters: Vec<usize>,
    /// Earliest next transmit time a credit wake granted this chip as a
    /// sender (reset to 0 once its send executes).
    send_floor: u64,
    /// Credit parks since this chip's last successful send (drop-tail
    /// accounting: one park = one dropped+NACKed attempt).
    stall_parks: u32,
    /// This chip's asynchronous transfers not yet waited on, one per
    /// tag. Small (the schedule keeps at most a few transfers in
    /// flight), so a linear-scanned vector beats a map.
    in_flight: Vec<InFlight>,
    stats: ChipStats,
    done: bool,
}

/// One in-flight asynchronous DMA transfer.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    tag: DmaTag,
    done: u64,
    path: MemPath,
}

/// One slot of the dense message table.
#[derive(Debug, Clone, Copy)]
struct Msg {
    /// The sending chip, [`NOBODY`] until sent.
    sender: usize,
    delivery: u64,
    /// Rides along so queued regimes can return buffer credit at
    /// consumption time.
    bytes: u64,
    /// The chip parked on this message, [`NOBODY`] when none.
    waiter: usize,
}

/// The runnable chips, as a bit set.
///
/// A chip is inserted when it becomes runnable (at the start, after each
/// send, when a send it yields to is due, and when a message or buffer
/// credit it waits on arrives) and removed when it runs, so it is never
/// in the set twice and waits there at the clock it left with. Taking
/// the runnable chip with the smallest `(clock, index)` is therefore
/// exactly the pop order of a `(time, chip)` min-heap of those entries,
/// with no sift per wake-up: a chip-count scan over set bits, and the
/// set rarely holds more than a few chips.
#[derive(Debug)]
struct Ready(Vec<u64>);

impl Ready {
    fn new(n: usize) -> Self {
        Ready(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, chip: usize) {
        let (word, bit) = (chip / 64, 1u64 << (chip % 64));
        debug_assert!(self.0[word] & bit == 0, "chip{chip} queued twice");
        self.0[word] |= bit;
    }

    /// Removes and returns the runnable chip with the smallest
    /// `(clock, index)`.
    fn pop_min(&mut self, state: &[ChipState]) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (w, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let chip = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let t = state[chip].t;
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, chip));
                }
            }
        }
        let (_, chip) = best?;
        self.0[chip / 64] &= !(1u64 << (chip % 64));
        Some(chip)
    }
}

/// No chip: an unsent message's sender, an unwatched message's waiter.
const NOBODY: usize = usize::MAX;

const UNSENT: Msg = Msg { sender: NOBODY, delivery: 0, bytes: 0, waiter: NOBODY };

pub(crate) struct Executor<'a, S: TraceSink> {
    machine: &'a Machine,
    form: &'a Lowered,
    /// The programs `form` was lowered from, where a recording sink reads
    /// kernel labels (op `i` of a chip lowers its instruction `i`); empty
    /// for forms that only ever run aggregate-only.
    source: &'a [Program],
    state: Vec<ChipState>,
    /// `true` when any chip uses a queued regime — gates all ingress
    /// bookkeeping so the affine hot path stays untouched.
    queued_any: bool,
    /// Indexed by dense message id.
    msgs: Vec<Msg>,
    /// Bit set of the runnable chips: those neither parked nor done.
    /// Each waits at its own clock, so the next chip to run is the
    /// runnable one with the smallest `(t, chip)` (see [`Ready`]).
    ready: Ready,
    /// Whether in-flight async DMA is retired when a program ends (true
    /// for complete runs; false for walk segments, which instead require
    /// the boundary to be DMA-clean).
    drain_at_end: bool,
    /// Smallest send issue time observed (chip-local clock at the moment
    /// the send executed); `u64::MAX` when no send ran.
    send_issue_min: u64,
    /// Largest send issue time observed; 0 when no send ran.
    send_issue_max: u64,
    /// Per-chip fault schedules; `None` when the machine's plan is empty
    /// (the common case — one pointer-sized check per op).
    faults: Option<Vec<ChipFaults>>,
    sink: S,
}

impl<'a, S: TraceSink> Executor<'a, S> {
    /// An executor at the zero state, ready to run `form` to completion.
    fn new(machine: &'a Machine, form: &'a Lowered, sink: S) -> Self {
        let n = machine.len();
        let mut ready = Ready::new(n);
        (0..n).for_each(|c| ready.insert(c));
        let queued_any =
            machine.chips().iter().any(|c| matches!(c.link_regime, LinkRegime::Queued { .. }));
        Executor {
            machine,
            form,
            source: &[],
            state: (0..n)
                .map(|c| ChipState {
                    pc: form.starts[c],
                    end: form.starts[c + 1],
                    ..ChipState::default()
                })
                .collect(),
            queued_any,
            msgs: vec![UNSENT; form.msg_ids.len()],
            ready,
            drain_at_end: true,
            send_issue_min: u64::MAX,
            send_issue_max: 0,
            faults: expand_faults(&machine.faults, n),
            sink,
        }
    }

    /// Drives the ready heap until every chip is done or parked.
    fn run_loop(&mut self) -> Result<()> {
        while let Some(chip) = self.ready.pop_min(&self.state) {
            self.run_chip(chip, self.state[chip].t)?;
        }
        Ok(())
    }

    /// Folds the ingress-queue peaks into the per-chip stats (a no-op
    /// under affine regimes, where the peaks stay zero).
    fn fold_link_stats(&mut self) {
        for st in &mut self.state {
            st.stats.c2c_peak_queue_bytes = st.stats.c2c_peak_queue_bytes.max(st.rx_peak);
        }
    }

    fn run(mut self) -> Result<(RunStats, S)> {
        self.run_loop()?;
        if self.state.iter().any(|s| !s.done) {
            let blocked =
                (0..self.state.len()).filter(|&c| !self.state[c].done).map(ChipId).collect();
            return Err(SimError::Deadlock { blocked });
        }
        self.fold_link_stats();
        let per_chip = self
            .state
            .into_iter()
            .map(|st| ChipStats { finish_cycles: st.t, ..st.stats })
            .collect();
        Ok((RunStats::new(per_chip, self.form.distinct_syncs), self.sink))
    }

    /// Retires `chip`'s in-flight async DMA at program end in
    /// deterministic completion order (ties broken by tag), so
    /// exposed-stall attribution per memory path never depends on issue
    /// order.
    fn drain_pending_dma(&mut self, chip: usize) {
        let st = &mut self.state[chip];
        st.in_flight.sort_unstable_by_key(|f| (f.done, f.tag.0));
        for f in std::mem::take(&mut st.in_flight) {
            if f.done > st.t {
                let exposed = f.done - st.t;
                if f.path.is_off_chip() {
                    st.stats.dma_l3_l2_exposed_cycles += exposed;
                } else {
                    st.stats.dma_l2_l1_exposed_cycles += exposed;
                }
                st.t = f.done;
            }
        }
    }

    /// Executes a stream exactly as the run of per-tile blocking
    /// transfers it stands for, in O(1) without a fault plan: the full
    /// tiles and the remainder tile each fold into one step
    /// (`start = max(t, engine_free)`, `done = start + k·tc(tile)`).
    ///
    /// Faults apply at tile boundaries, before each tile, as they would
    /// before each expanded instruction. A step folds only the tiles that
    /// finish before the chip's next stall or fail-stop cycle, so every
    /// ripe event still lands on the boundary where the expanded run
    /// meets it. A recording sink still gets one event per tile.
    ///
    /// # Errors
    ///
    /// [`SimError::ChipFailed`] when a tile boundary reaches the chip's
    /// fail-stop cycle; [`SimError::CounterOverflow`] as in [`add`].
    fn run_stream(&mut self, chip: usize, stream: &StreamOp) -> Result<()> {
        let path = stream.path;
        let groups = [
            (stream.tiles, stream.tile, stream.tile_cycles),
            (u64::from(stream.rest > 0), stream.rest, stream.rest_cycles),
        ];
        let st = &mut self.state[chip];
        let mut faults = self.faults.as_mut().map(|f| &mut f[chip]);
        for (mut left, size, cycles) in groups {
            while left > 0 {
                if let Some(f) = faults.as_deref_mut() {
                    f.apply(st, chip)?;
                }
                let engine_free =
                    if path.is_off_chip() { &mut st.io_dma_free } else { &mut st.cluster_dma_free };
                let start = st.t.max(*engine_free);
                let n = match faults.as_deref() {
                    Some(f) => f.tiles_before_event(start, cycles, left),
                    None => left,
                };
                let done = add(start, mul(cycles, n, chip)?, chip)?;
                if S::RECORDS {
                    let mut issue = st.t;
                    for k in 1..=n {
                        let end = start + k * cycles;
                        self.sink.record(chip, issue, end, || TraceKind::Dma { path, bytes: size });
                        issue = end;
                    }
                }
                *engine_free = done;
                charge_dma(&mut st.stats, path, size * n, done - st.t, chip)?;
                st.t = done;
                left -= n;
            }
        }
        Ok(())
    }

    /// Runs `chip` from its current pc until it parks on a missing
    /// message, must yield before a send, or finishes.
    ///
    /// Chip-local ops (compute, DMA, sync marks) only touch the chip's
    /// own state, so they execute back to back without going through the
    /// ready set, on borrowed fields the compiler can keep in registers.
    /// Only sends interact across chips — TX/RX port arbitration is
    /// first-come-first-served by chip-local time — so a send executes
    /// only while the chip holds the globally minimal clock `t_pop`; once
    /// local work has advanced past it, the chip re-queues and the send
    /// runs when its turn comes. This preserves the strict interleaved
    /// scheme's send order (and therefore its exact timing) while
    /// skipping the ready set for every local op.
    fn run_chip(&mut self, chip: usize, t_pop: u64) -> Result<()> {
        let form = self.form;
        loop {
            let Executor { state, faults, sink, source, .. } = self;
            let st = &mut state[chip];
            let mut faults = faults.as_mut().map(|f| &mut f[chip]);
            let next = loop {
                if st.pc == st.end {
                    break None;
                }
                let op = form.ops[st.pc];
                // Faults apply at op boundaries, before the fetched op
                // executes: ripe stalls freeze the clock, and a chip at or
                // past its fail-stop cycle with work remaining surfaces as
                // a typed error (never a hang). A chip that issues its
                // final op before the fail cycle completes it and
                // survives. A stream applies them itself, before each of
                // its tiles.
                if let Some(f) = faults.as_deref_mut() {
                    if !matches!(op, Op::Stream(_)) {
                        f.apply(st, chip)?;
                    }
                }
                match op {
                    Op::Compute { cycles } => {
                        // Slowdown windows stretch kernels issued inside
                        // them.
                        let extra = match faults.as_deref_mut() {
                            Some(f) => f
                                .slows
                                .extra(st.t, cycles)
                                .ok_or(SimError::CounterOverflow { chip: ChipId(chip) })?,
                            None => 0,
                        };
                        let busy = add(cycles, extra, chip)?;
                        let start = st.t;
                        st.t = add(start, busy, chip)?;
                        st.stats.compute_cycles += busy;
                        st.stats.fault_slow_cycles += extra;
                        let (source, at) = (*source, st.pc - form.starts[chip]);
                        sink.record(chip, start, start + busy, || {
                            let Instr::Compute(kernel) = source[chip].instrs()[at] else {
                                unreachable!("a compute op lowers a compute instruction")
                            };
                            TraceKind::Compute { kernel: kernel.to_string() }
                        });
                    }
                    Op::Dma(x) => {
                        let Xfer { cycles, bytes, path } = form.xfers[x as usize];
                        let engine_free = if path.is_off_chip() {
                            &mut st.io_dma_free
                        } else {
                            &mut st.cluster_dma_free
                        };
                        let start = st.t.max(*engine_free);
                        let done = add(start, cycles, chip)?;
                        *engine_free = done;
                        let issue = st.t;
                        charge_dma(&mut st.stats, path, bytes, done - issue, chip)?;
                        st.t = done;
                        sink.record(chip, issue, done, || TraceKind::Dma { path, bytes });
                    }
                    Op::DmaAsync { xfer, tag } => {
                        let Xfer { cycles, bytes, path } = form.xfers[xfer as usize];
                        let engine_free = if path.is_off_chip() {
                            &mut st.io_dma_free
                        } else {
                            &mut st.cluster_dma_free
                        };
                        let start = st.t.max(*engine_free);
                        let done = add(start, cycles, chip)?;
                        *engine_free = done;
                        // Bytes are counted at issue; only the stall at
                        // the wait is exposed time.
                        charge_dma(&mut st.stats, path, bytes, 0, chip)?;
                        let entry = InFlight { tag, done, path };
                        match st.in_flight.iter_mut().find(|f| f.tag == tag) {
                            Some(f) => *f = entry,
                            None => st.in_flight.push(entry),
                        }
                    }
                    Op::DmaWait(tag) => {
                        let Some(pos) = st.in_flight.iter().position(|f| f.tag == tag) else {
                            return Err(SimError::UnknownDmaTag { chip: ChipId(chip), tag });
                        };
                        let InFlight { done, path, .. } = st.in_flight.swap_remove(pos);
                        if done > st.t {
                            let start = st.t;
                            charge_dma(&mut st.stats, path, 0, done - start, chip)?;
                            st.t = done;
                            sink.record(chip, start, done, || TraceKind::Dma { path, bytes: 0 });
                        }
                    }
                    Op::Sync => st.stats.sync_marks += 1,
                    Op::Stream(_) | Op::Send(_) | Op::Recv { .. } => break Some(op),
                }
                st.pc += 1;
            };
            match next {
                None => {
                    // Account for async DMA still in flight at program
                    // end (segments leave it to the boundary cleanliness
                    // check).
                    st.done = true;
                    if self.drain_at_end && !st.in_flight.is_empty() {
                        self.drain_pending_dma(chip);
                    }
                    return Ok(());
                }
                Some(Op::Stream(stream)) => {
                    self.run_stream(chip, &form.streams[stream as usize])?
                }
                Some(Op::Send(s)) => {
                    let SendOp { bytes, to, msg } = form.sends[s as usize];
                    return self.send(chip, t_pop, to, msg, bytes);
                }
                Some(Op::Recv { from, msg }) => {
                    if !self.recv(chip, from, msg)? {
                        return Ok(());
                    }
                }
                Some(_) => unreachable!("chip-local ops run above"),
            }
            self.state[chip].pc += 1;
        }
    }

    /// Executes `chip`'s receive of dense message `msg` from `from`;
    /// `false` when the message has not been sent yet and the chip parks
    /// on it (its pc stays, so the receive re-executes on wake-up).
    fn recv(&mut self, chip: usize, from: usize, msg: u32) -> Result<bool> {
        let m = &mut self.msgs[msg as usize];
        if m.sender == NOBODY {
            m.waiter = chip;
            return Ok(false);
        }
        let Msg { sender, delivery, bytes, .. } = *m;
        if sender != from {
            return Err(SimError::SenderMismatch {
                msg: self.form.msg_ids[msg as usize],
                expected: ChipId(from),
                actual: ChipId(sender),
            });
        }
        let st = &mut self.state[chip];
        if delivery > st.t {
            let start = st.t;
            st.stats.c2c_exposed_cycles += delivery - start;
            st.t = delivery;
            self.sink.record(chip, start, delivery, || TraceKind::RecvWait { from });
        }
        if self.queued_any {
            // Consuming the message returns its bytes to this chip's
            // ingress buffer; senders parked on credit re-contend from
            // their own clocks, floored at the consumption instant (the
            // ready set's clock order keeps this deterministic and FIFO
            // by arrival time).
            let st = &mut self.state[chip];
            let consume_t = st.t;
            st.rx_occ = st.rx_occ.saturating_sub(bytes);
            for w in std::mem::take(&mut st.credit_waiters) {
                let waiter = &mut self.state[w];
                waiter.send_floor = waiter.send_floor.max(consume_t);
                self.ready.insert(w);
            }
        }
        Ok(true)
    }

    /// Executes `chip`'s send of dense message `msg` (or re-queues or
    /// parks the chip when it may not send yet), then yields.
    fn send(&mut self, chip: usize, t_pop: u64, to: usize, msg: u32, bytes: u64) -> Result<()> {
        let spec = &self.machine.chips[chip];
        let t = self.state[chip].t;
        if t > t_pop {
            // The local clock ran ahead of the pop priority: another chip
            // may now hold an earlier send to the same port. Re-queue and
            // retry in global order.
            self.ready.insert(chip);
            return Ok(());
        }
        if to >= self.state.len() {
            return Err(SimError::InvalidChip { chip: ChipId(to), chips: self.state.len() });
        }
        // Queued regimes: a message that does not fit in the receiver's
        // ingress buffer parks the sender until a receive returns credit.
        // An oversized message is admitted alone (occupancy 0) so a
        // single flow can never wedge itself.
        if let LinkRegime::Queued { buffer_bytes, .. } = spec.link_regime {
            let occ = self.state[to].rx_occ;
            if occ > 0 && occ.saturating_add(bytes) > buffer_bytes {
                self.state[to].credit_waiters.push(chip);
                self.state[chip].stall_parks += 1;
                return Ok(());
            }
        }
        self.send_issue_min = self.send_issue_min.min(t);
        self.send_issue_max = self.send_issue_max.max(t);
        let (tx_free, floor) = (self.state[chip].tx_free, self.state[chip].send_floor);
        let start = t.max(tx_free).max(self.state[to].rx_free).max(floor);
        let mut done = add(start, spec.link.transfer_cycles(bytes), chip)?;
        // Link-degrade windows stretch transfers issued inside them
        // (before any regime surcharge, which compounds on top of the
        // degraded transfer time).
        if let Some(faults) = &mut self.faults {
            let extra = faults[chip]
                .flaps
                .extra(start, done - start)
                .ok_or(SimError::CounterOverflow { chip: ChipId(chip) })?;
            if extra > 0 {
                done = add(done, extra, chip)?;
                let st = &mut self.state[chip].stats;
                st.fault_link_cycles += extra;
                st.fault_transfers_affected += 1;
            }
        }
        match spec.link_regime {
            LinkRegime::Affine => {}
            LinkRegime::Queued { discipline, .. } => {
                let receiver = &mut self.state[to];
                receiver.rx_occ += bytes;
                receiver.rx_peak = receiver.rx_peak.max(receiver.rx_occ);
                let st = &mut self.state[chip];
                let parks = u64::from(std::mem::take(&mut st.stall_parks));
                st.send_floor = 0;
                st.stats.c2c_queue_cycles += start - t.max(tx_free);
                if let QueueDiscipline::DropTail { nack_cycles } = discipline {
                    // Each park was a dropped attempt: the retransmission
                    // pays one NACK round-trip on top of the wait for
                    // buffer credit.
                    done = add(done, mul(nack_cycles, parks, chip)?, chip)?;
                    st.stats.c2c_drops += parks;
                    st.stats.c2c_retransmits += parks;
                }
            }
            LinkRegime::Lossy { drop_per_mille, nack_cycles } => {
                // The drop pattern is seeded by the original message id,
                // which lowering keeps next to the dense one.
                let loss = go_back_n_overhead(
                    self.form.msg_ids[msg as usize].0,
                    bytes,
                    spec.link.payload_cycles(LOSSY_MTU_BYTES),
                    drop_per_mille,
                    nack_cycles,
                );
                done = add(done, loss.extra_cycles, chip)?;
                let st = &mut self.state[chip].stats;
                st.c2c_drops += loss.drops;
                st.c2c_retransmits += loss.retransmits;
                st.c2c_gave_up += loss.gave_up;
            }
        }
        let m = &mut self.msgs[msg as usize];
        if m.sender != NOBODY {
            return Err(SimError::DuplicateMessage { msg: self.form.msg_ids[msg as usize] });
        }
        m.sender = chip;
        m.delivery = done;
        m.bytes = bytes;
        let waiter = std::mem::replace(&mut m.waiter, NOBODY);
        self.state[to].rx_free = done;
        let st = &mut self.state[chip];
        st.stats.c2c_bytes_sent = add(st.stats.c2c_bytes_sent, bytes, chip)?;
        st.stats.c2c_exposed_cycles += done - t;
        st.tx_free = done;
        st.t = done;
        // Yield after every send, even a zero-cycle one: a woken (or
        // same-time) lower-index chip must get the next port slot exactly
        // as under the strict per-instruction heap's (time, chip)
        // tie-break.
        st.pc += 1;
        self.sink.record(chip, t, done, || TraceKind::Send { to, bytes });
        if waiter != NOBODY {
            self.ready.insert(waiter);
        }
        self.ready.insert(chip);
        Ok(())
    }
}

impl<'a> Executor<'a, MakespanOnly> {
    /// An executor for the steady-state walk: it starts at the zero
    /// state and leaves in-flight DMA to the boundary cleanliness check.
    pub(crate) fn for_walk(machine: &'a Machine, form: &'a Lowered) -> Self {
        let mut ex = Executor::new(machine, form, MakespanOnly);
        ex.drain_at_end = false;
        ex
    }

    /// Runs one more repetition of the form from the machine state the
    /// previous one left (chip clocks, port and DMA-engine frees carry
    /// over; everything else starts afresh), and reports the boundary.
    pub(crate) fn run_segment(&mut self) -> Result<SegmentRun> {
        debug_assert!(self.faults.is_none(), "walks never run fault plans");
        self.ready.0.fill(0);
        for (c, st) in self.state.iter_mut().enumerate() {
            st.pc = self.form.starts[c];
            st.done = false;
            st.rx_occ = 0;
            st.rx_peak = 0;
            st.credit_waiters.clear();
            st.send_floor = 0;
            st.stall_parks = 0;
            st.in_flight.clear();
            st.stats = ChipStats::default();
            self.ready.insert(c);
        }
        self.msgs.fill(UNSENT);
        self.send_issue_min = u64::MAX;
        self.send_issue_max = 0;

        self.run_loop()?;
        let clean = self.state.iter().all(|s| s.done && s.rx_occ == 0 && s.in_flight.is_empty());
        self.fold_link_stats();
        let send_issue = (self.send_issue_min <= self.send_issue_max)
            .then_some((self.send_issue_min, self.send_issue_max));
        let field = |f: fn(&ChipState) -> u64| self.state.iter().map(f).collect();
        Ok(SegmentRun {
            state: MachineState {
                t: field(|s| s.t),
                tx_free: field(|s| s.tx_free),
                io_dma_free: field(|s| s.io_dma_free),
                cluster_dma_free: field(|s| s.cluster_dma_free),
                rx_free: field(|s| s.rx_free),
            },
            stats: self.state.iter().map(|s| s.stats.clone()).collect(),
            send_issue,
            clean,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_kernels::Kernel;

    fn machine(n: usize) -> Machine {
        Machine::homogeneous(ChipSpec::siracusa(), n)
    }

    #[test]
    fn empty_programs_finish_at_zero() {
        let m = machine(2);
        let stats = m.run(&[Program::new(), Program::new()]).unwrap();
        assert_eq!(stats.makespan, 0);
    }

    #[test]
    fn program_count_mismatch() {
        let m = machine(2);
        assert!(matches!(
            m.run(&[Program::new()]),
            Err(SimError::ProgramCountMismatch { chips: 2, programs: 1 })
        ));
    }

    #[test]
    fn forms_priced_for_other_chips_are_refused() {
        let fast = ChipSpec::siracusa();
        let mut slow = fast;
        slow.cost_model = mtp_kernels::ClusterCostModel::new(mtp_kernels::CostParams {
            cores: 2,
            ..mtp_kernels::CostParams::siracusa()
        });
        let block = Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))]);
        let programs = vec![block; 2];
        let form = Machine::homogeneous(fast, 2).lower(&programs).unwrap();
        let other = Machine::new(vec![fast, slow]);
        let refused = Err(SimError::FormPricingMismatch { chip: ChipId(1) });
        assert_eq!(other.run_lowered(&form), refused);
        assert_eq!(other.run_periodic_lowered(&form, 1), refused);
        assert_eq!(other.run_periodic_lowered(&form, 64), refused);
        assert_eq!(
            crate::SymbolicMakespan::derive_lowered(&other, &form).map(|_| ()),
            refused.map(|_| ())
        );
        assert!(matches!(
            crate::SymbolicMakespan::derive_lowered(&Machine::homogeneous(slow, 2), &form),
            Err(SimError::FormPricingMismatch { chip: ChipId(0) })
        ));
        // Link bandwidth is priced per run, so a faster link still fits.
        let mut wide = fast;
        wide.link.bytes_per_cycle *= 4.0;
        let wide = Machine::homogeneous(wide, 2);
        assert_eq!(wide.run_lowered(&form), wide.run(&programs));
        assert!(matches!(
            machine(1).run_lowered(&form),
            Err(SimError::ProgramCountMismatch { chips: 1, programs: 2 })
        ));
    }

    #[test]
    fn compute_advances_time() {
        let m = machine(1);
        let p = Program::from_instrs([Instr::compute(Kernel::gemv(512, 512))]);
        let stats = m.run(&[p]).unwrap();
        assert!(stats.makespan > 0);
        assert_eq!(stats.per_chip[0].compute_cycles, stats.makespan);
    }

    #[test]
    fn send_recv_synchronizes() {
        let m = machine(2);
        let work = Instr::compute(Kernel::gemv(512, 512));
        let p0 = Program::from_instrs([work, Instr::send(1, 7, 1024)]);
        let p1 = Program::from_instrs([Instr::recv(0, 7)]);
        let stats = m.run(&[p0, p1]).unwrap();
        // Receiver cannot finish before sender's compute + transfer.
        let link = ChipSpec::siracusa().link.transfer_cycles(1024);
        assert_eq!(stats.per_chip[1].finish_cycles, stats.per_chip[0].compute_cycles + link);
        assert_eq!(stats.per_chip[0].c2c_bytes_sent, 1024);
    }

    #[test]
    fn recv_before_send_parks_and_wakes() {
        // Receiver reaches Recv long before the sender sends.
        let m = machine(2);
        let p0 = Program::from_instrs([
            Instr::compute(Kernel::gemm(64, 512, 512)),
            Instr::send(1, 1, 64),
        ]);
        let p1 = Program::from_instrs([Instr::recv(0, 1), Instr::compute(Kernel::gemv(64, 64))]);
        let stats = m.run(&[p0, p1]).unwrap();
        assert!(stats.per_chip[1].finish_cycles > stats.per_chip[0].compute_cycles);
    }

    #[test]
    fn rx_port_serializes_concurrent_senders() {
        // Chips 1 and 2 both send to chip 0 at t=0; the RX port must
        // serialize them.
        let m = machine(3);
        let bytes = 10_000;
        let p0 = Program::from_instrs([Instr::recv(1, 1), Instr::recv(2, 2)]);
        let p1 = Program::from_instrs([Instr::send(0, 1, bytes)]);
        let p2 = Program::from_instrs([Instr::send(0, 2, bytes)]);
        let stats = m.run(&[p0, p1, p2]).unwrap();
        let one = ChipSpec::siracusa().link.transfer_cycles(bytes);
        assert!(stats.per_chip[0].finish_cycles >= 2 * one);
    }

    #[test]
    fn deadlock_detected() {
        let m = machine(2);
        let p0 = Program::from_instrs([Instr::recv(1, 1)]);
        let p1 = Program::from_instrs([Instr::recv(0, 2)]);
        match m.run(&[p0, p1]) {
            Err(SimError::Deadlock { blocked }) => assert_eq!(blocked.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_message_rejected() {
        let m = machine(2);
        let p0 = Program::from_instrs([Instr::send(1, 5, 8), Instr::send(1, 5, 8)]);
        let p1 = Program::from_instrs([Instr::recv(0, 5)]);
        assert!(matches!(m.run(&[p0, p1]), Err(SimError::DuplicateMessage { .. })));
    }

    #[test]
    fn sender_mismatch_rejected() {
        let m = machine(3);
        let p0 = Program::from_instrs([Instr::send(2, 5, 8)]);
        let p1 = Program::new();
        let p2 = Program::from_instrs([Instr::recv(1, 5)]);
        assert!(matches!(m.run(&[p0, p1, p2]), Err(SimError::SenderMismatch { .. })));
    }

    #[test]
    fn invalid_chip_rejected() {
        let m = machine(1);
        let p0 = Program::from_instrs([Instr::send(9, 5, 8)]);
        assert!(matches!(m.run(&[p0]), Err(SimError::InvalidChip { .. })));
    }

    #[test]
    fn async_dma_overlaps_compute() {
        let m = machine(1);
        let spec = ChipSpec::siracusa();
        let kernel = Kernel::gemm(64, 512, 512);
        let kcycles = spec.cost_model.cycles(&kernel);
        let bytes = 100_000u64;
        let dcycles = spec.io_dma.transfer_cycles(bytes);
        assert!(dcycles < kcycles, "test premise: dma hides behind compute");
        let p = Program::from_instrs([
            Instr::DmaAsync { path: MemPath::L3ToL2, bytes, tag: DmaTag(0) },
            Instr::compute(kernel),
            Instr::DmaWait(DmaTag(0)),
        ]);
        let stats = m.run(&[p]).unwrap();
        assert_eq!(stats.makespan, kcycles, "prefetch fully hidden");
        assert_eq!(stats.per_chip[0].dma_l3_l2_bytes, bytes);
        assert_eq!(stats.per_chip[0].dma_l3_l2_exposed_cycles, 0);
    }

    #[test]
    fn async_dma_stall_is_exposed() {
        let m = machine(1);
        let spec = ChipSpec::siracusa();
        let bytes = 4_000_000u64;
        let kernel = Kernel::Add { n: 64 };
        let kcycles = spec.cost_model.cycles(&kernel);
        let dcycles = spec.io_dma.transfer_cycles(bytes);
        assert!(dcycles > kcycles);
        let p = Program::from_instrs([
            Instr::DmaAsync { path: MemPath::L3ToL2, bytes, tag: DmaTag(1) },
            Instr::compute(kernel),
            Instr::DmaWait(DmaTag(1)),
        ]);
        let stats = m.run(&[p]).unwrap();
        assert_eq!(stats.makespan, dcycles);
        assert_eq!(stats.per_chip[0].dma_l3_l2_exposed_cycles, dcycles - kcycles);
    }

    #[test]
    fn unknown_dma_tag_rejected() {
        let m = machine(1);
        let p = Program::from_instrs([Instr::DmaWait(DmaTag(9))]);
        assert!(matches!(m.run(&[p]), Err(SimError::UnknownDmaTag { .. })));
    }

    #[test]
    fn blocking_dma_counts_bytes_and_time() {
        let m = machine(1);
        let spec = ChipSpec::siracusa();
        let p = Program::from_instrs([Instr::Dma { path: MemPath::L2ToL1, bytes: 4096 }]);
        let stats = m.run(&[p]).unwrap();
        assert_eq!(stats.makespan, spec.cluster_dma.transfer_cycles(4096));
        assert_eq!(stats.per_chip[0].dma_l2_l1_bytes, 4096);
    }

    #[test]
    fn stream_times_and_traces_like_its_tiles() {
        let m = machine(1);
        let io = ChipSpec::siracusa().io_dma;
        let stream = Instr::DmaStream { path: MemPath::L3ToL2, bytes: 3 * 4096 + 100, tile: 4096 };
        let tiles =
            [4096, 4096, 4096, 100].map(|bytes| Instr::Dma { path: MemPath::L3ToL2, bytes });
        let (stats, trace) = m.run_traced(&[Program::from_instrs([stream])]).unwrap();
        let (per_tile, tile_trace) = m.run_traced(&[Program::from_instrs(tiles)]).unwrap();
        assert_eq!(stats, per_tile);
        assert_eq!(trace, tile_trace, "one traced event per tile");
        assert_eq!(trace.events().len(), 4);
        assert_eq!(stats.makespan, 3 * io.transfer_cycles(4096) + io.transfer_cycles(100));
        assert_eq!(stats.per_chip[0].dma_l3_l2_bytes, 3 * 4096 + 100);
        assert_eq!(stats.per_chip[0].dma_l3_l2_exposed_cycles, stats.makespan);
    }

    #[test]
    fn stall_on_a_tile_boundary_lands_between_tiles() {
        let tc = ChipSpec::siracusa().io_dma.transfer_cycles(4096);
        let p = Program::from_instrs([Instr::DmaStream {
            path: MemPath::L3ToL2,
            bytes: 4 * 4096,
            tile: 4096,
        }]);
        let plan = format!("stall:0:{}:777", 2 * tc);
        let (stats, trace) = machine_with_faults(1, &plan).run_traced(&[p]).unwrap();
        assert_eq!(stats.makespan, 4 * tc + 777);
        assert_eq!(stats.per_chip[0].fault_stall_cycles, 777);
        assert_eq!(stats.per_chip[0].dma_l3_l2_exposed_cycles, 4 * tc, "stalls are not DMA time");
        let ends: Vec<u64> = trace.events().iter().map(|e| e.end).collect();
        assert_eq!(ends, [tc, 2 * tc, 3 * tc + 777, 4 * tc + 777]);
    }

    #[test]
    fn fail_stop_mid_stream_fails_at_the_next_tile_boundary() {
        let tc = ChipSpec::siracusa().io_dma.transfer_cycles(4096);
        let p = Program::from_instrs([Instr::DmaStream {
            path: MemPath::L3ToL2,
            bytes: 4 * 4096,
            tile: 4096,
        }]);
        let plan = format!("failstop:0:{}", tc + 1);
        let err = machine_with_faults(1, &plan).run(std::slice::from_ref(&p)).unwrap_err();
        assert_eq!(err, SimError::ChipFailed { chip: ChipId(0), at: tc + 1 });
        // A fail cycle after the last tile issues is survived.
        let late = format!("failstop:0:{}", 3 * tc + 1);
        assert!(machine_with_faults(1, &late).run(&[p]).is_ok());
    }

    #[test]
    fn zero_byte_stream_is_not_an_instruction_boundary() {
        // A zero-byte stream has no tiles: like the empty tile run it
        // stands for, it neither waits for the engine nor meets faults.
        let work = Instr::compute(Kernel::gemv(256, 256));
        let empty = Instr::DmaStream { path: MemPath::L3ToL2, bytes: 0, tile: 4096 };
        let p = Program::from_instrs([work, empty]);
        let base = machine(1).run(&[Program::from_instrs([work])]).unwrap();
        assert_eq!(machine(1).run(std::slice::from_ref(&p)).unwrap(), base);
        let faulted = machine_with_faults(1, "failstop:0:1+stall:0:1:500");
        assert_eq!(faulted.run(&[p]).unwrap(), base, "no boundary after the final compute");
    }

    #[test]
    fn in_flight_dma_drains_at_program_end() {
        let m = machine(1);
        let spec = ChipSpec::siracusa();
        let bytes = 123_456u64;
        let p = Program::from_instrs([Instr::DmaAsync {
            path: MemPath::L3ToL2,
            bytes,
            tag: DmaTag(0),
        }]);
        let stats = m.run(&[p]).unwrap();
        assert_eq!(stats.makespan, spec.io_dma.transfer_cycles(bytes));
    }

    #[test]
    fn end_of_program_drain_is_issue_order_independent() {
        // Two async DMAs on *different* engines are still in flight when
        // the program ends. Their completion times do not depend on issue
        // order (each engine is idle), so the per-path stall attribution —
        // which walks pending transfers in completion order — must be
        // identical for both issue orders. The old HashMap-backed drain
        // walked map iteration order instead, which made the per-path
        // split (though not the makespan) depend on hash state.
        let m = machine(1);
        let io = Instr::DmaAsync { path: MemPath::L3ToL2, bytes: 1 << 20, tag: DmaTag(0) };
        let cluster = Instr::DmaAsync { path: MemPath::L2ToL1, bytes: 1 << 14, tag: DmaTag(1) };
        let a = m.run(&[Program::from_instrs([io, cluster])]).unwrap();
        let b = m.run(&[Program::from_instrs([cluster, io])]).unwrap();
        assert_eq!(a.per_chip, b.per_chip, "drain attribution must not depend on issue order");
        // Attribution by completion order: the cluster DMA finishes first
        // and is charged its full stall; the IO DMA is charged only the
        // remainder — never the other way around.
        let spec = ChipSpec::siracusa();
        let io_done = spec.io_dma.transfer_cycles(1 << 20);
        let cl_done = spec.cluster_dma.transfer_cycles(1 << 14);
        assert!(cl_done < io_done, "test premise: cluster DMA completes first");
        assert_eq!(a.per_chip[0].dma_l2_l1_exposed_cycles, cl_done);
        assert_eq!(a.per_chip[0].dma_l3_l2_exposed_cycles, io_done - cl_done);
        assert_eq!(a.makespan, io_done);
    }

    #[test]
    fn sync_phases_counted_across_chips() {
        let m = machine(2);
        let p0 = Program::from_instrs([Instr::Sync(1), Instr::Sync(2)]);
        let p1 = Program::from_instrs([Instr::Sync(1), Instr::Sync(2)]);
        let stats = m.run(&[p0, p1]).unwrap();
        assert_eq!(stats.sync_phases, 2);
    }

    #[test]
    fn traced_run_matches_untraced_timing() {
        let m = machine(2);
        let p0 =
            Program::from_instrs([Instr::compute(Kernel::gemv(256, 256)), Instr::send(1, 0, 4096)]);
        let p1 = Program::from_instrs([Instr::recv(0, 0), Instr::compute(Kernel::Add { n: 64 })]);
        let programs = [p0, p1];
        let plain = m.run(&programs).unwrap();
        let (traced, trace) = m.run_traced(&programs).unwrap();
        assert_eq!(plain, traced, "tracing must not change timing");
        assert!(!trace.events().is_empty());
        assert!(trace.find_overlap().is_none(), "per-chip events must not overlap");
        // Every event ends no later than its chip's finish time.
        for e in trace.events() {
            assert!(e.end <= traced.per_chip[e.chip].finish_cycles);
        }
    }

    #[test]
    fn trace_records_stalls_and_sends() {
        let m = machine(2);
        let p0 = Program::from_instrs([
            Instr::compute(Kernel::gemm(64, 256, 256)),
            Instr::send(1, 0, 1 << 16),
        ]);
        let p1 = Program::from_instrs([Instr::recv(0, 0)]);
        let (_, trace) = m.run_traced(&[p0, p1]).unwrap();
        let kinds: Vec<_> = trace.events().iter().map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, crate::TraceKind::Send { .. })));
        assert!(kinds.iter().any(|k| matches!(k, crate::TraceKind::RecvWait { .. })));
        assert!(trace.render().contains("send -> chip1"));
    }

    #[test]
    fn deterministic_across_runs() {
        let m = machine(4);
        let mk = |i: usize| {
            Program::from_instrs([
                Instr::compute(Kernel::gemv(128, 128 + i * 16)),
                Instr::send((i + 1) % 4, i as u64, 2048),
                Instr::recv((i + 3) % 4, ((i + 3) % 4) as u64),
            ])
        };
        let programs: Vec<Program> = (0..4).map(mk).collect();
        let a = m.run(&programs).unwrap();
        let b = m.run(&programs).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.per_chip, b.per_chip);
    }

    fn machine_with_regime(n: usize, regime: LinkRegime) -> Machine {
        let mut spec = ChipSpec::siracusa();
        spec.link_regime = regime;
        Machine::homogeneous(spec, n)
    }

    /// Two concurrent senders into one receiver that drains slowly — the
    /// canonical contended-ingress workload the queued regimes act on.
    fn contended_fan_in() -> Vec<Program> {
        let p0 = Program::from_instrs([
            Instr::compute(Kernel::gemm(64, 512, 512)),
            Instr::recv(1, 1),
            Instr::compute(Kernel::Add { n: 1024 }),
            Instr::recv(2, 2),
        ]);
        let p1 = Program::from_instrs([Instr::send(0, 1, 10_000)]);
        let p2 = Program::from_instrs([Instr::send(0, 2, 10_000)]);
        vec![p0, p1, p2]
    }

    #[test]
    fn queued_infinite_buffer_matches_affine_makespan_exactly() {
        let programs = contended_fan_in();
        let affine = machine(3).run(&programs).unwrap();
        let queued = machine_with_regime(
            3,
            LinkRegime::Queued {
                buffer_bytes: u64::MAX,
                discipline: QueueDiscipline::Backpressure,
            },
        )
        .run(&programs)
        .unwrap();
        assert_eq!(queued.makespan, affine.makespan, "infinite buffer must be affine-identical");
        for (q, a) in queued.per_chip.iter().zip(&affine.per_chip) {
            assert_eq!(q.finish_cycles, a.finish_cycles);
            assert_eq!(q.c2c_exposed_cycles, a.c2c_exposed_cycles);
            assert_eq!(q.c2c_bytes_sent, a.c2c_bytes_sent);
            assert_eq!(q.c2c_drops, 0);
        }
        // The second sender waits for the shared RX port: under the
        // queued regime that wait is reported as queueing delay.
        assert!(queued.total_queueing_cycles() > 0, "rx-port serialization must be visible");
        assert_eq!(queued.peak_queue_bytes(), 20_000, "both messages sit in the ingress queue");
        assert_eq!(affine.total_queueing_cycles(), 0, "affine reports no queue metrics");
        assert_eq!(affine.peak_queue_bytes(), 0);
    }

    #[test]
    fn finite_buffer_backpressure_stalls_second_sender() {
        let programs = contended_fan_in();
        let affine = machine(3).run(&programs).unwrap();
        // Buffer fits one 10 kB message but not two: the second sender
        // parks until the first receive returns credit.
        let queued = machine_with_regime(
            3,
            LinkRegime::Queued { buffer_bytes: 12_000, discipline: QueueDiscipline::Backpressure },
        )
        .run(&programs)
        .unwrap();
        assert!(queued.makespan >= affine.makespan, "backpressure can only delay");
        assert!(queued.makespan > affine.makespan, "this workload must actually stall");
        assert!(queued.total_queueing_cycles() > affine.total_queueing_cycles());
        assert!(queued.peak_queue_bytes() <= 12_000, "occupancy respects the buffer");
        assert_eq!(queued.total_drops(), 0, "backpressure never drops");
        let again = machine_with_regime(
            3,
            LinkRegime::Queued { buffer_bytes: 12_000, discipline: QueueDiscipline::Backpressure },
        )
        .run(&programs)
        .unwrap();
        assert_eq!(queued, again, "queued timing must be deterministic");
    }

    #[test]
    fn droptail_counts_drops_and_pays_nack() {
        let programs = contended_fan_in();
        let bp = machine_with_regime(
            3,
            LinkRegime::Queued { buffer_bytes: 12_000, discipline: QueueDiscipline::Backpressure },
        )
        .run(&programs)
        .unwrap();
        let dt = machine_with_regime(
            3,
            LinkRegime::Queued {
                buffer_bytes: 12_000,
                discipline: QueueDiscipline::DropTail { nack_cycles: 700 },
            },
        )
        .run(&programs)
        .unwrap();
        assert!(dt.total_drops() > 0, "the parked attempt is a drop under drop-tail");
        assert_eq!(dt.total_retransmits(), dt.total_drops());
        assert_eq!(
            dt.makespan,
            bp.makespan + 700 * dt.total_drops(),
            "drop-tail is backpressure plus one NACK round-trip per drop (tail send is critical)"
        );
    }

    #[test]
    fn oversized_message_passes_an_empty_buffer() {
        // A single flow larger than the buffer is admitted alone instead
        // of wedging forever.
        let m = machine_with_regime(
            2,
            LinkRegime::Queued { buffer_bytes: 1024, discipline: QueueDiscipline::Backpressure },
        );
        let p0 = Program::from_instrs([Instr::send(1, 0, 1 << 20)]);
        let p1 = Program::from_instrs([Instr::recv(0, 0)]);
        let stats = m.run(&[p0, p1]).unwrap();
        assert_eq!(stats.makespan, ChipSpec::siracusa().link.transfer_cycles(1 << 20));
    }

    #[test]
    fn credit_starvation_is_reported_as_deadlock() {
        // Chip 1 fills chip 0's buffer, then parks on credit that never
        // comes because chip 0 is itself parked on a message nobody sends.
        let m = machine_with_regime(
            2,
            LinkRegime::Queued { buffer_bytes: 4096, discipline: QueueDiscipline::Backpressure },
        );
        let p0 = Program::from_instrs([Instr::recv(1, 99)]);
        let p1 = Program::from_instrs([Instr::send(0, 1, 4096), Instr::send(0, 2, 4096)]);
        match m.run(&[p0, p1]) {
            Err(SimError::Deadlock { blocked }) => assert_eq!(blocked.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    fn machine_with_faults(n: usize, plan: &str) -> Machine {
        Machine::homogeneous(ChipSpec::siracusa(), n)
            .with_faults(crate::FaultPlan::parse(plan).expect("plan"))
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let programs = contended_fan_in();
        let bare = machine(3).run(&programs).unwrap();
        let with_none = machine(3).with_faults(crate::FaultPlan::none()).run(&programs).unwrap();
        assert_eq!(bare, with_none, "empty plan must not perturb anything");
        assert_eq!(bare.total_fault_stall_cycles(), 0);
        assert_eq!(bare.total_downtime_cycles(), 0);
    }

    #[test]
    fn stall_fault_freezes_chip_into_the_idle_residual() {
        let p = Program::from_instrs([
            Instr::compute(Kernel::gemv(256, 256)),
            Instr::compute(Kernel::gemv(256, 256)),
        ]);
        let base = machine(1).run(std::slice::from_ref(&p)).unwrap();
        let faulted =
            machine_with_faults(1, "stall:0:0:9000").run(std::slice::from_ref(&p)).unwrap();
        assert_eq!(faulted.makespan, base.makespan + 9000);
        assert_eq!(faulted.per_chip[0].fault_stall_cycles, 9000);
        assert_eq!(faulted.per_chip[0].compute_cycles, base.per_chip[0].compute_cycles);
        assert_eq!(faulted.per_chip[0].idle_cycles(), base.per_chip[0].idle_cycles() + 9000);
    }

    #[test]
    fn fail_stop_surfaces_as_typed_error_never_a_hang() {
        let p = Program::from_instrs([
            Instr::compute(Kernel::gemv(256, 256)),
            Instr::compute(Kernel::gemv(256, 256)),
        ]);
        match machine_with_faults(1, "failstop:0:1").run(std::slice::from_ref(&p)) {
            Err(SimError::ChipFailed { chip, at }) => {
                assert_eq!(chip, ChipId(0));
                assert_eq!(at, 1);
            }
            other => panic!("expected ChipFailed, got {other:?}"),
        }
    }

    #[test]
    fn fail_stop_after_the_last_instruction_issues_is_survived() {
        let p = Program::from_instrs([Instr::compute(Kernel::gemv(256, 256))]);
        let base = machine(1).run(std::slice::from_ref(&p)).unwrap();
        // The only instruction issues at t=0, before the fail cycle.
        let faulted = machine_with_faults(1, "failstop:0:1")
            .run(std::slice::from_ref(&p))
            .expect("final instruction already issued");
        assert_eq!(faulted, base);
    }

    #[test]
    fn slowdown_window_stretches_kernels_inside_it() {
        let p = Program::from_instrs([Instr::compute(Kernel::gemv(256, 256))]);
        let base = machine(1).run(std::slice::from_ref(&p)).unwrap();
        let faulted =
            machine_with_faults(1, "slow:0:0:100000000:200").run(std::slice::from_ref(&p)).unwrap();
        assert_eq!(faulted.makespan, 2 * base.makespan, "200% duration factor doubles kernels");
        assert_eq!(faulted.per_chip[0].fault_slow_cycles, base.per_chip[0].compute_cycles);
        assert_eq!(faulted.per_chip[0].compute_cycles, 2 * base.per_chip[0].compute_cycles);
    }

    #[test]
    fn link_flap_stretches_sends_inside_the_window() {
        let p0 = Program::from_instrs([Instr::send(1, 0, 1 << 16)]);
        let p1 = Program::from_instrs([Instr::recv(0, 0)]);
        let programs = [p0, p1];
        let base = machine(2).run(&programs).unwrap();
        let faulted = machine_with_faults(2, "flap:0:0:100000000:300").run(&programs).unwrap();
        let transfer = ChipSpec::siracusa().link.transfer_cycles(1 << 16);
        assert_eq!(faulted.makespan, base.makespan + 2 * transfer, "300% triples the transfer");
        assert_eq!(faulted.per_chip[0].fault_link_cycles, 2 * transfer);
        assert_eq!(faulted.per_chip[0].fault_transfers_affected, 1);
        assert_eq!(faulted.total_fault_link_cycles(), 2 * transfer);
    }

    #[test]
    fn seeded_fault_runs_are_cold_rerun_deterministic() {
        let plan = crate::FaultPlan::parse("seeded:7:8:1000").unwrap();
        assert!(
            plan.events_for(2).iter().any(|e| matches!(e, crate::FaultEvent::Stall { .. })),
            "test premise: this seed draws at least one stall"
        );
        let m = Machine::homogeneous(ChipSpec::siracusa(), 2).with_faults(plan);
        let mk = |i: usize| {
            Program::from_instrs(
                (0..32usize)
                    .flat_map(|b| {
                        [
                            Instr::compute(Kernel::gemv(128, 128)),
                            Instr::send((i + 1) % 2, (i + 2 * b) as u64, 2048),
                            Instr::recv((i + 1) % 2, ((i + 1) % 2 + 2 * b) as u64),
                        ]
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let programs: Vec<Program> = (0..2).map(mk).collect();
        let a = m.run(&programs).unwrap();
        let b = m.run(&programs).unwrap();
        assert_eq!(a, b, "same plan, same programs => identical stats");
        let bare = machine(2).run(&programs).unwrap();
        assert!(a.makespan > bare.makespan, "the ripe stalls must cost time");
        assert!(a.total_fault_stall_cycles() > 0);
    }

    #[test]
    fn lossy_regime_extends_transfers_deterministically() {
        let m = machine(2);
        let p0 = Program::from_instrs([Instr::send(1, 0, 1 << 16)]);
        let p1 = Program::from_instrs([Instr::recv(0, 0)]);
        let programs = [p0, p1];
        let affine = m.run(&programs).unwrap();
        let lossy =
            machine_with_regime(2, LinkRegime::Lossy { drop_per_mille: 200, nack_cycles: 500 });
        let a = lossy.run(&programs).unwrap();
        let b = lossy.run(&programs).unwrap();
        assert_eq!(a, b, "drop pattern must be a pure function of the program");
        assert!(a.total_drops() > 0, "20% loss over 256 packets must drop");
        assert!(a.total_retransmits() >= a.total_drops());
        assert!(a.makespan > affine.makespan, "retransmissions extend the transfer");
        assert_eq!(a.total_queueing_cycles(), 0, "lossy keeps affine port arbitration");
    }

    fn overflow(chip: usize) -> SimError {
        SimError::CounterOverflow { chip: ChipId(chip) }
    }

    #[test]
    fn checked_add_is_the_only_way_a_counter_advances() {
        assert_eq!(add(u64::MAX - 1, 1, 0), Ok(u64::MAX));
        assert_eq!(add(u64::MAX, 1, 3), Err(overflow(3)));
        assert_eq!(mul(u64::MAX / 2, 2, 0), Ok(u64::MAX - 1));
        assert_eq!(mul(u64::MAX / 2, 3, 1), Err(overflow(1)));
    }

    #[test]
    fn huge_transfers_overflow_instead_of_wrapping() {
        // Forty blocking transfers of u64::MAX bytes used to wrap the
        // clock to a small, plausible makespan.
        let dma = Instr::Dma { path: MemPath::L3ToL2, bytes: u64::MAX };
        let p = Program::from_instrs(vec![dma; 40]);
        assert_eq!(machine(1).run(&[p]), Err(overflow(0)));
        // The byte counter overflows first on the fast on-chip engine.
        let half = 1u64 << 63;
        let onchip = Instr::Dma { path: MemPath::L2ToL1, bytes: half };
        let p = Program::from_instrs([onchip, onchip]);
        assert_eq!(machine(1).run(&[p]), Err(overflow(0)));
        // Async transfers and streams go through the same check.
        let tag = DmaTag(0);
        let asyncs = Instr::DmaAsync { path: MemPath::L2ToL1, bytes: half, tag };
        let p = Program::from_instrs([asyncs, Instr::DmaWait(tag), asyncs, Instr::DmaWait(tag)]);
        assert_eq!(machine(1).run(&[p]), Err(overflow(0)));
        let stream = Instr::DmaStream { path: MemPath::L3ToL2, bytes: u64::MAX, tile: 1 };
        assert_eq!(machine(1).run(&[Program::from_instrs([stream])]), Err(overflow(0)));
        // So do sends: chip 1's clock and byte counter.
        let sends = Program::from_instrs([Instr::send(0, 0, half), Instr::send(0, 1, half)]);
        let recvs = Program::from_instrs([Instr::recv(1, 0), Instr::recv(1, 1)]);
        let mut wide = ChipSpec::siracusa();
        wide.link.bytes_per_cycle = 4.0;
        assert_eq!(Machine::homogeneous(wide, 2).run(&[recvs, sends]), Err(overflow(1)));
    }

    #[test]
    fn fault_windows_overflow_instead_of_wrapping() {
        let work = Program::from_instrs([
            Instr::compute(Kernel::gemv(256, 256)),
            Instr::compute(Kernel::gemv(256, 256)),
        ]);
        // A stall that carries the clock past u64 (the fault-free answer
        // used to come back).
        let stall = machine_with_faults(1, "stall:0:1:18446744073709551000");
        assert_eq!(stall.run(std::slice::from_ref(&work)), Err(overflow(0)));
        // A slowdown whose surcharge does not fit.
        let slow = machine_with_faults(1, &format!("slow:0:0:100:{}", u32::MAX));
        let long = Program::from_instrs(vec![Instr::compute(Kernel::gemm(4096, 4096, 4096)); 4096]);
        assert_eq!(slow.run(std::slice::from_ref(&long)), Err(overflow(0)));
        // A surcharge whose u64 product would wrap but whose value fits
        // is exact.
        let base = 1u64 << 62;
        let mut w = Windows { list: vec![(0, u64::MAX, 300)], closed: 0 };
        assert_eq!(w.extra(0, base), Some(2 * base));
        assert_eq!(w.extra(0, u64::MAX), None);
        // A link flap whose stretched transfer leaves u64.
        let p0 = Program::from_instrs([Instr::send(1, 0, 1 << 62)]);
        let p1 = Program::from_instrs([Instr::recv(0, 0)]);
        let flap = machine_with_faults(2, "flap:0:0:100:500");
        assert_eq!(flap.run(&[p0, p1]), Err(overflow(0)));
    }
}
