//! Discrete-event execution of per-chip programs on a multi-chip machine.
//!
//! The executor advances chips in global-time order (a conservative
//! discrete-event scheme): at every step the chip with the smallest local
//! clock executes its next instruction. Sends occupy the sender's TX port
//! and the receiver's RX port first-come-first-served, receives block until
//! the matching message has fully arrived, and asynchronous DMA transfers
//! overlap compute until the matching [`Instr::DmaWait`]. A blocking
//! weight stream ([`Instr::DmaStream`]) advances by whole runs of equal
//! tiles, stopping only at tile boundaries where a fault event ripens.
//!
//! The executor is generic over a [`TraceSink`]; the aggregate-only entry
//! point ([`Machine::run`]) instantiates it with [`MakespanOnly`], which
//! compiles event recording — including event-label formatting — down to
//! nothing. Hot-path state uses a dense per-chip layout plus
//! multiply-hashed message maps; the per-chip in-flight DMA set is a small
//! vector drained in deterministic completion order.

use crate::{
    gantt::TraceKind,
    periodic::{MachineState, SegmentRun},
    sink::{MakespanOnly, TraceCollector, TraceSink},
    trace::ChipStats,
    ChipId, ChipSpec, DmaTag, FaultEvent, FaultPlan, Instr, MemPath, MsgId, Program, Result,
    RunStats, SimError, Trace,
};
use mtp_kernels::{CalibratedCostModel, ClusterCostModel, Kernel};
use mtp_link::{go_back_n_overhead, LinkRegime, QueueDiscipline, LOSSY_MTU_BYTES};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher (FxHash-style) for the small integer keys the
/// executor indexes by. The default SipHash is DoS-resistant but costs a
/// significant fraction of per-instruction time in the event loop; message
/// ids come from the schedule builder, not from untrusted input.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Message state: sends seen and receivers parked, keyed by [`MsgId`].
///
/// Schedule builders allocate message ids sequentially, so the common
/// case is a dense id range — stored as flat vectors indexed by id and
/// grown on demand (no hashing and no program pre-scan on the send/recv
/// path). Ids beyond a sanity cap (4x the total instruction count, which
/// only hand-written programs with arbitrary id spaces exceed) go to
/// hashed overflow storage instead, so a wild id cannot balloon the
/// dense vectors.
struct MsgTable {
    /// id -> (sender, delivery time, bytes); `None` until sent. Dense ids
    /// only. Bytes ride along so queued regimes can return buffer credit
    /// at consumption time.
    messages: Vec<Option<(ChipId, u64, u64)>>,
    /// id -> parked chip (`usize::MAX` when nobody waits). Dense ids only.
    waiting: Vec<usize>,
    /// First id handled by the overflow maps instead of the vectors.
    dense_cap: u64,
    /// Sparse-id sends.
    over_messages: FxHashMap<MsgId, (ChipId, u64, u64)>,
    /// Sparse-id parks.
    over_waiting: FxHashMap<MsgId, usize>,
}

impl MsgTable {
    /// An empty table whose dense range is sized to the programs' total
    /// instruction count (an upper bound on distinct message ids any
    /// schedule builder emits).
    fn for_programs(programs: &[Program]) -> Self {
        let total: usize = programs.iter().map(Program::len).sum();
        MsgTable {
            messages: Vec::new(),
            waiting: Vec::new(),
            dense_cap: 4 * total as u64 + 64,
            over_messages: FxHashMap::default(),
            over_waiting: FxHashMap::default(),
        }
    }

    /// Grows the dense vectors to cover `idx` (amortized doubling).
    fn ensure(&mut self, idx: usize) {
        if idx >= self.messages.len() {
            self.messages.resize(idx + 1, None);
            self.waiting.resize(idx + 1, usize::MAX);
        }
    }

    /// Records a send; returns `false` when the id was already used.
    fn insert(&mut self, msg: MsgId, sender: ChipId, delivery: u64, bytes: u64) -> bool {
        if msg.0 < self.dense_cap {
            self.ensure(msg.0 as usize);
            let slot = &mut self.messages[msg.0 as usize];
            if slot.is_some() {
                return false;
            }
            *slot = Some((sender, delivery, bytes));
            true
        } else {
            self.over_messages.insert(msg, (sender, delivery, bytes)).is_none()
        }
    }

    fn get(&self, msg: MsgId) -> Option<(ChipId, u64, u64)> {
        if msg.0 < self.dense_cap {
            self.messages.get(msg.0 as usize).copied().flatten()
        } else {
            self.over_messages.get(&msg).copied()
        }
    }

    /// Parks `chip` on `msg` until the matching send arrives.
    fn park(&mut self, msg: MsgId, chip: usize) {
        if msg.0 < self.dense_cap {
            self.ensure(msg.0 as usize);
            self.waiting[msg.0 as usize] = chip;
        } else {
            self.over_waiting.insert(msg, chip);
        }
    }

    /// Removes and returns the chip parked on `msg`, if any.
    fn take_waiter(&mut self, msg: MsgId) -> Option<usize> {
        if msg.0 < self.dense_cap {
            let slot = self.waiting.get_mut(msg.0 as usize)?;
            let chip = std::mem::replace(slot, usize::MAX);
            (chip != usize::MAX).then_some(chip)
        } else {
            self.over_waiting.remove(&msg)
        }
    }
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
        if programs.len() != self.chips.len() {
            return Err(SimError::ProgramCountMismatch {
                chips: self.chips.len(),
                programs: programs.len(),
            });
        }
        Executor::new(self, programs, sink).run()
    }

    /// Executes one repetition of `template` starting from the carried
    /// machine state, without the end-of-program DMA drain, and reports
    /// the boundary state plus the segment metadata the periodic engine's
    /// fixed-point detection needs. See [`crate::periodic`].
    pub(crate) fn run_segment(
        &self,
        template: &[Program],
        carry: &MachineState,
    ) -> Result<SegmentRun> {
        let mut ex = Executor::for_segment(self, template, MakespanOnly, carry);
        ex.run_loop()?;
        let clean = ex.state.iter().all(|s| s.done && s.dma_tags.is_empty())
            && ex.rx_occ.iter().all(|&occ| occ == 0);
        ex.fold_link_stats();
        ex.sync_ids.sort_unstable();
        ex.sync_ids.dedup();
        let send_issue = (ex.send_issue_min <= ex.send_issue_max)
            .then_some((ex.send_issue_min, ex.send_issue_max));
        Ok(SegmentRun {
            state: MachineState {
                t: ex.state.iter().map(|s| s.t).collect(),
                tx_free: ex.state.iter().map(|s| s.tx_free).collect(),
                io_dma_free: ex.state.iter().map(|s| s.io_dma_free).collect(),
                cluster_dma_free: ex.state.iter().map(|s| s.cluster_dma_free).collect(),
                rx_free: ex.rx_free,
            },
            stats: ex.state.into_iter().map(|s| s.stats).collect(),
            send_issue,
            distinct_syncs: ex.sync_ids.len(),
            clean,
        })
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
    /// issued at local time `t` (non-decreasing across calls). The scan
    /// starts past the closed prefix and stops at the first window
    /// opening after `t`. Factors at or below 100 percent contribute
    /// nothing (the parser rejects them; programmatic events are clamped
    /// here).
    fn extra(&mut self, t: u64, base: u64) -> u64 {
        while self.list.get(self.closed).is_some_and(|&(_, until, _)| until <= t) {
            self.closed += 1;
        }
        let mut extra = 0u64;
        for &(from, until, pct) in &self.list[self.closed..] {
            if from > t {
                break;
            }
            if t < until {
                extra += base * u64::from(pct).saturating_sub(100) / 100;
            }
        }
        extra
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

/// Per-chip mutable execution state.
#[derive(Debug)]
struct ChipState {
    pc: usize,
    t: u64,
    tx_free: u64,
    io_dma_free: u64,
    cluster_dma_free: u64,
    /// In-flight async DMA transfers: `(tag, completion time, path)`.
    /// Small (the schedule keeps at most a few transfers in flight), so a
    /// linear-scanned vector beats a hash map and — unlike one — has a
    /// deterministic drain order.
    dma_tags: Vec<(DmaTag, u64, MemPath)>,
    stats: ChipStats,
    done: bool,
}

impl ChipState {
    fn new() -> Self {
        ChipState {
            pc: 0,
            t: 0,
            tx_free: 0,
            io_dma_free: 0,
            cluster_dma_free: 0,
            dma_tags: Vec::new(),
            stats: ChipStats::default(),
            done: false,
        }
    }

    /// Retires every in-flight async DMA at program end in deterministic
    /// completion order (ties broken by tag), so exposed-stall attribution
    /// per memory path never depends on container iteration order.
    fn drain_pending_dma(&mut self) {
        self.dma_tags.sort_unstable_by_key(|&(tag, done, _)| (done, tag.0));
        for i in 0..self.dma_tags.len() {
            let (_, done, path) = self.dma_tags[i];
            if done > self.t {
                self.stats.add_dma(path, 0, done - self.t);
                self.t = done;
            }
        }
        self.dma_tags.clear();
    }
}

struct Executor<'a, S: TraceSink> {
    machine: &'a Machine,
    programs: &'a [Program],
    state: Vec<ChipState>,
    rx_free: Vec<u64>,
    /// Per-receiver ingress-buffer occupancy in bytes (queued regimes;
    /// stays zero under affine).
    rx_occ: Vec<u64>,
    /// Per-receiver peak ingress occupancy, folded into
    /// [`ChipStats::c2c_peak_queue_bytes`] at run end.
    rx_peak: Vec<u64>,
    /// Per-receiver FIFO of senders parked on buffer credit.
    credit_waiters: Vec<Vec<usize>>,
    /// Per-sender earliest next transmit time granted by a credit wake
    /// (reset to 0 once the send executes).
    send_floor: Vec<u64>,
    /// Per-sender count of credit parks since its last successful send
    /// (drop-tail accounting: one park = one dropped+NACKed attempt).
    stall_parks: Vec<u32>,
    /// `true` when any chip uses a queued regime — gates all ingress
    /// bookkeeping so the affine hot path stays untouched.
    queued_any: bool,
    msgs: MsgTable,
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    sync_ids: Vec<u32>,
    /// Chip -> index of its cost-model equivalence class (homogeneous
    /// machines have exactly one class).
    cost_class: Vec<u32>,
    /// Direct-mapped kernel-cost memo per (cost class, kernel): schedules
    /// repeat the same few kernel shapes across chips and blocks, so the
    /// cost model's float evaluation (several long-latency divides) runs
    /// once per distinct shape. Collisions simply recompute.
    cycle_memo: Box<[Option<(u32, Kernel, u64)>; CYCLE_MEMO_SLOTS]>,
    /// Whether in-flight async DMA is retired when a program ends (true
    /// for complete runs; false for periodic-engine segments, which
    /// instead require the boundary to be DMA-clean).
    drain_at_end: bool,
    /// Smallest send issue time observed (chip-local clock at the moment
    /// the send executed); `u64::MAX` when no send ran.
    send_issue_min: u64,
    /// Largest send issue time observed; 0 when no send ran.
    send_issue_max: u64,
    /// Per-chip fault schedules; `None` when the machine's plan is empty
    /// (the common case — one pointer-sized check per instruction).
    faults: Option<Vec<ChipFaults>>,
    sink: S,
}

/// Size of the executor's direct-mapped kernel-cost memo (power of two;
/// real schedules use a few dozen distinct kernel shapes).
const CYCLE_MEMO_SLOTS: usize = 128;

/// A cheap structural fingerprint of a kernel (variant + dimensions),
/// used to index the cost memo. Quality only affects the collision rate.
#[inline]
fn kernel_fingerprint(kernel: &Kernel, class: u32) -> usize {
    let (d, a, b, c) = match *kernel {
        Kernel::Gemm { m, k, n } => (1usize, m, k, n),
        Kernel::Gemv { k, n } => (2, 1, k, n),
        Kernel::Softmax { rows, cols } => (3, rows, cols, 0),
        Kernel::LayerNorm { rows, cols } => (4, rows, cols, 0),
        Kernel::RmsNorm { rows, cols } => (5, rows, cols, 0),
        Kernel::Gelu { n } => (6, n, 0, 0),
        Kernel::Silu { n } => (7, n, 0, 0),
        Kernel::Rope { seq, dim } => (8, seq, dim, 0),
        Kernel::Add { n } => (9, n, 0, 0),
        Kernel::Requant { n } => (10, n, 0, 0),
    };
    let mix = (d ^ (class as usize) << 4)
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(a.wrapping_mul(0x85eb_ca6b))
        .wrapping_add(b.wrapping_mul(0xc2b2_ae35))
        .wrapping_add(c.wrapping_mul(0x27d4_eb2f));
    (mix ^ (mix >> 15)) & (CYCLE_MEMO_SLOTS - 1)
}

impl<'a, S: TraceSink> Executor<'a, S> {
    fn new(machine: &'a Machine, programs: &'a [Program], sink: S) -> Self {
        let n = machine.len();
        let mut ready = BinaryHeap::with_capacity(n + 1);
        for i in 0..n {
            ready.push(Reverse((0, i)));
        }
        let mut classes: Vec<(ClusterCostModel, Option<CalibratedCostModel>)> = Vec::new();
        let cost_class = machine
            .chips()
            .iter()
            .map(|c| {
                let key = (c.cost_model, c.cost_override);
                match classes.iter().position(|m| *m == key) {
                    Some(i) => i as u32,
                    None => {
                        classes.push(key);
                        (classes.len() - 1) as u32
                    }
                }
            })
            .collect();
        let queued_any =
            machine.chips().iter().any(|c| matches!(c.link_regime, LinkRegime::Queued { .. }));
        Executor {
            machine,
            programs,
            state: (0..n).map(|_| ChipState::new()).collect(),
            rx_free: vec![0; n],
            rx_occ: vec![0; n],
            rx_peak: vec![0; n],
            credit_waiters: vec![Vec::new(); n],
            send_floor: vec![0; n],
            stall_parks: vec![0; n],
            queued_any,
            msgs: MsgTable::for_programs(programs),
            ready,
            sync_ids: Vec::new(),
            cost_class,
            cycle_memo: Box::new([None; CYCLE_MEMO_SLOTS]),
            drain_at_end: true,
            send_issue_min: u64::MAX,
            send_issue_max: 0,
            faults: expand_faults(&machine.faults, n),
            sink,
        }
    }

    /// An executor resuming from a carried machine state (the periodic
    /// engine's segment mode): chip clocks, port frees, and DMA-engine
    /// frees are seeded from `carry`, the ready heap is re-seeded with the
    /// carried clocks, and the end-of-program DMA drain is disabled.
    fn for_segment(
        machine: &'a Machine,
        programs: &'a [Program],
        sink: S,
        carry: &MachineState,
    ) -> Self {
        let mut ex = Executor::new(machine, programs, sink);
        ex.drain_at_end = false;
        ex.ready.clear();
        for (i, st) in ex.state.iter_mut().enumerate() {
            st.t = carry.t[i];
            st.tx_free = carry.tx_free[i];
            st.io_dma_free = carry.io_dma_free[i];
            st.cluster_dma_free = carry.cluster_dma_free[i];
            ex.ready.push(Reverse((st.t, i)));
        }
        ex.rx_free.copy_from_slice(&carry.rx_free);
        ex
    }

    /// Drives the ready heap until every chip is done or parked.
    fn run_loop(&mut self) -> Result<()> {
        while let Some(Reverse((t_pop, chip))) = self.ready.pop() {
            if self.state[chip].done {
                continue;
            }
            self.run_chip(chip, t_pop)?;
        }
        Ok(())
    }

    /// Folds the executor-level ingress-queue peaks into the per-chip
    /// stats (a no-op under affine regimes, where the peaks stay zero).
    fn fold_link_stats(&mut self) {
        for (st, &peak) in self.state.iter_mut().zip(&self.rx_peak) {
            st.stats.c2c_peak_queue_bytes = st.stats.c2c_peak_queue_bytes.max(peak);
        }
    }

    fn run(mut self) -> Result<(RunStats, S)> {
        self.run_loop()?;
        if let Some(blocked) = self.deadlocked() {
            return Err(SimError::Deadlock { blocked });
        }
        self.fold_link_stats();
        let mut per_chip = Vec::with_capacity(self.state.len());
        for st in &mut self.state {
            st.stats.finish_cycles = st.t;
            per_chip.push(st.stats.clone());
        }
        self.sync_ids.sort_unstable();
        self.sync_ids.dedup();
        Ok((RunStats::new(per_chip, self.sync_ids.len()), self.sink))
    }

    fn deadlocked(&self) -> Option<Vec<ChipId>> {
        let blocked: Vec<ChipId> = self
            .state
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(i, _)| ChipId(i))
            .collect();
        if blocked.is_empty() {
            None
        } else {
            Some(blocked)
        }
    }

    /// Applies ripe fault events for `chip` at an instruction boundary:
    /// consumes every transient stall whose start has been reached
    /// (freezing the clock for its duration), then checks fail-stop.
    ///
    /// # Errors
    ///
    /// [`SimError::ChipFailed`] when the chip's clock has reached its
    /// fail-stop cycle while an instruction remains to execute.
    fn apply_chip_faults(&mut self, chip: usize) -> Result<()> {
        let Some(faults) = &mut self.faults else { return Ok(()) };
        let f = &mut faults[chip];
        while let Some(&(at, cycles)) = f.stalls.get(f.next_stall) {
            if at > self.state[chip].t {
                break;
            }
            f.next_stall += 1;
            let st = &mut self.state[chip];
            st.stats.fault_stall_cycles += cycles;
            st.t += cycles;
        }
        if let Some(at) = f.fail_at {
            if self.state[chip].t >= at {
                return Err(SimError::ChipFailed { chip: ChipId(chip), at });
            }
        }
        Ok(())
    }

    /// Executes an [`Instr::DmaStream`] exactly as the run of per-tile
    /// blocking [`Instr::Dma`]s it stands for, in O(1) without a fault
    /// plan: the full tiles and the remainder tile each fold into one
    /// step (`start = max(t, engine_free)`, `done = start + k·tc(tile)`).
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
    /// fail-stop cycle.
    fn run_stream(
        &mut self,
        chip: usize,
        spec: &ChipSpec,
        path: MemPath,
        bytes: u64,
        tile: u64,
    ) -> Result<()> {
        let tile = tile.max(1);
        let dma = if path.is_off_chip() { &spec.io_dma } else { &spec.cluster_dma };
        let rest = bytes % tile;
        let groups = [
            (bytes / tile, tile, dma.transfer_cycles(tile)),
            (u64::from(rest > 0), rest, dma.transfer_cycles(rest)),
        ];
        for (mut left, size, cycles) in groups {
            while left > 0 {
                self.apply_chip_faults(chip)?;
                let st = &mut self.state[chip];
                let engine_free =
                    if path.is_off_chip() { &mut st.io_dma_free } else { &mut st.cluster_dma_free };
                let start = st.t.max(*engine_free);
                let n = match &self.faults {
                    Some(faults) => faults[chip].tiles_before_event(start, cycles, left),
                    None => left,
                };
                let done = start.saturating_add(cycles.saturating_mul(n));
                if S::RECORDS {
                    let mut issue = st.t;
                    for k in 1..=n {
                        let end = start.saturating_add(k.saturating_mul(cycles));
                        self.sink.record(chip, issue, end, || TraceKind::Dma { path, bytes: size });
                        issue = end;
                    }
                }
                *engine_free = done;
                st.stats.add_dma(path, size * n, done - st.t);
                st.t = done;
                left -= n;
            }
        }
        Ok(())
    }

    /// Runs `chip` from its current pc until it parks on a missing
    /// message, must yield before a [`Instr::Send`], or finishes.
    ///
    /// Chip-local instructions (compute, DMA, sync marks) only touch the
    /// chip's own state, so they execute back to back without going
    /// through the ready heap. Only sends interact across chips — TX/RX
    /// port arbitration is first-come-first-served by chip-local time —
    /// so a send executes only while the chip holds the globally minimal
    /// clock `t_pop`; once local work has advanced past it, the chip
    /// re-queues and the send runs when its turn comes. This preserves
    /// the strict interleaved scheme's send order (and therefore its
    /// exact timing) while skipping two heap operations per local
    /// instruction.
    fn run_chip(&mut self, chip: usize, t_pop: u64) -> Result<()> {
        // Borrow the spec through the machine reference (not `self`) so
        // the hot loop never copies the full ChipSpec per instruction.
        let machine = self.machine;
        let spec = &machine.chips[chip];
        let program = &self.programs[chip];
        let instrs = program.instrs();
        loop {
            let Some(&instr) = instrs.get(self.state[chip].pc) else {
                let st = &mut self.state[chip];
                // Account for async DMA still in flight at program end
                // (segments leave it to the boundary cleanliness check).
                if self.drain_at_end {
                    st.drain_pending_dma();
                }
                st.done = true;
                return Ok(());
            };
            // Faults apply at instruction boundaries, before the fetched
            // instruction executes: ripe stalls freeze the clock, and a
            // chip at or past its fail-stop cycle with work remaining
            // surfaces as a typed error (never a hang). A chip that
            // issues its final instruction before the fail cycle
            // completes it and survives. A stream applies them itself,
            // before each of its tiles.
            if self.faults.is_some() && !matches!(instr, Instr::DmaStream { .. }) {
                self.apply_chip_faults(chip)?;
            }
            match instr {
                Instr::Compute(kernel) => {
                    let class = self.cost_class[chip];
                    let slot = &mut self.cycle_memo[kernel_fingerprint(&kernel, class)];
                    let cycles = match slot {
                        Some((c, k, cycles)) if *c == class && *k == kernel => *cycles,
                        _ => {
                            let cycles = spec.kernel_cycles(&kernel);
                            *slot = Some((class, kernel, cycles));
                            cycles
                        }
                    };
                    // Slowdown windows stretch kernels issued inside them;
                    // the surcharge stays outside the memo (the memo is
                    // time-independent).
                    let extra = match &mut self.faults {
                        Some(faults) => faults[chip].slows.extra(self.state[chip].t, cycles),
                        None => 0,
                    };
                    let st = &mut self.state[chip];
                    let start = st.t;
                    st.stats.compute_cycles += cycles + extra;
                    st.stats.fault_slow_cycles += extra;
                    st.t += cycles + extra;
                    self.sink.record(chip, start, start + cycles + extra, || TraceKind::Compute {
                        kernel: kernel.to_string(),
                    });
                }
                Instr::Dma { path, bytes } => {
                    let st = &mut self.state[chip];
                    let (engine_free, dma) = if path.is_off_chip() {
                        (&mut st.io_dma_free, &spec.io_dma)
                    } else {
                        (&mut st.cluster_dma_free, &spec.cluster_dma)
                    };
                    let start = st.t.max(*engine_free);
                    let done = start + dma.transfer_cycles(bytes);
                    *engine_free = done;
                    let exposed = done - st.t;
                    st.stats.add_dma(path, bytes, exposed);
                    let issue = st.t;
                    st.t = done;
                    self.sink.record(chip, issue, done, || TraceKind::Dma { path, bytes });
                }
                Instr::DmaStream { path, bytes, tile } => {
                    self.run_stream(chip, spec, path, bytes, tile)?;
                }
                Instr::DmaAsync { path, bytes, tag } => {
                    let st = &mut self.state[chip];
                    let (engine_free, dma) = if path.is_off_chip() {
                        (&mut st.io_dma_free, &spec.io_dma)
                    } else {
                        (&mut st.cluster_dma_free, &spec.cluster_dma)
                    };
                    let start = st.t.max(*engine_free);
                    let done = start + dma.transfer_cycles(bytes);
                    *engine_free = done;
                    match st.dma_tags.iter_mut().find(|(t, _, _)| *t == tag) {
                        Some(slot) => *slot = (tag, done, path),
                        None => st.dma_tags.push((tag, done, path)),
                    }
                    // Bytes are counted at issue; only the stall at
                    // DmaWait is exposed time.
                    st.stats.add_dma(path, bytes, 0);
                }
                Instr::DmaWait(tag) => {
                    let st = &mut self.state[chip];
                    let Some(pos) = st.dma_tags.iter().position(|(t, _, _)| *t == tag) else {
                        return Err(SimError::UnknownDmaTag { chip: ChipId(chip), tag });
                    };
                    let (_, done, path) = st.dma_tags.remove(pos);
                    if done > st.t {
                        let start = st.t;
                        st.stats.add_dma(path, 0, done - st.t);
                        st.t = done;
                        self.sink.record(chip, start, done, || TraceKind::Dma { path, bytes: 0 });
                    }
                }
                Instr::Send { to, msg, bytes } => {
                    if self.state[chip].t > t_pop {
                        // The local clock ran ahead of the pop priority:
                        // another chip may now hold an earlier send to the
                        // same port. Re-queue and retry in global order.
                        self.ready.push(Reverse((self.state[chip].t, chip)));
                        return Ok(());
                    }
                    if to.0 >= machine.len() {
                        return Err(SimError::InvalidChip { chip: to, chips: machine.len() });
                    }
                    let t = self.state[chip].t;
                    // Queued regimes: a message that does not fit in the
                    // receiver's ingress buffer parks the sender until a
                    // receive returns credit. An oversized message is
                    // admitted alone (occupancy 0) so a single flow can
                    // never wedge itself.
                    if let LinkRegime::Queued { buffer_bytes, .. } = spec.link_regime {
                        let occ = self.rx_occ[to.0];
                        if occ > 0 && occ.saturating_add(bytes) > buffer_bytes {
                            self.credit_waiters[to.0].push(chip);
                            self.stall_parks[chip] += 1;
                            return Ok(());
                        }
                    }
                    self.send_issue_min = self.send_issue_min.min(t);
                    self.send_issue_max = self.send_issue_max.max(t);
                    let start = t
                        .max(self.state[chip].tx_free)
                        .max(self.rx_free[to.0])
                        .max(self.send_floor[chip]);
                    let mut done = start + spec.link.transfer_cycles(bytes);
                    // Link-degrade windows stretch transfers issued inside
                    // them (before any regime surcharge, which compounds
                    // on top of the degraded transfer time).
                    if let Some(faults) = &mut self.faults {
                        let extra = faults[chip].flaps.extra(start, done - start);
                        if extra > 0 {
                            done += extra;
                            let st = &mut self.state[chip].stats;
                            st.fault_link_cycles += extra;
                            st.fault_transfers_affected += 1;
                        }
                    }
                    match spec.link_regime {
                        LinkRegime::Affine => {}
                        LinkRegime::Queued { discipline, .. } => {
                            let parks = u64::from(std::mem::take(&mut self.stall_parks[chip]));
                            self.send_floor[chip] = 0;
                            let occ = self.rx_occ[to.0] + bytes;
                            self.rx_occ[to.0] = occ;
                            self.rx_peak[to.0] = self.rx_peak[to.0].max(occ);
                            let ready_at = t.max(self.state[chip].tx_free);
                            let st = &mut self.state[chip].stats;
                            st.c2c_queue_cycles += start - ready_at;
                            if let QueueDiscipline::DropTail { nack_cycles } = discipline {
                                // Each park was a dropped attempt: the
                                // retransmission pays one NACK round-trip
                                // on top of the wait for buffer credit.
                                done = done.saturating_add(nack_cycles.saturating_mul(parks));
                                st.c2c_drops += parks;
                                st.c2c_retransmits += parks;
                            }
                        }
                        LinkRegime::Lossy { drop_per_mille, nack_cycles } => {
                            let packet_cycles = spec.link.payload_cycles(LOSSY_MTU_BYTES);
                            let loss = go_back_n_overhead(
                                msg.0,
                                bytes,
                                packet_cycles,
                                drop_per_mille,
                                nack_cycles,
                            );
                            done = done.saturating_add(loss.extra_cycles);
                            let st = &mut self.state[chip].stats;
                            st.c2c_drops += loss.drops;
                            st.c2c_retransmits += loss.retransmits;
                            st.c2c_gave_up += loss.gave_up;
                        }
                    }
                    if !self.msgs.insert(msg, ChipId(chip), done, bytes) {
                        return Err(SimError::DuplicateMessage { msg });
                    }
                    self.rx_free[to.0] = done;
                    {
                        let st = &mut self.state[chip];
                        st.tx_free = done;
                        st.stats.c2c_bytes_sent += bytes;
                        st.stats.c2c_exposed_cycles += done - t;
                        st.t = done;
                    }
                    self.sink.record(chip, t, done, || TraceKind::Send { to: to.0, bytes });
                    if let Some(waiter) = self.msgs.take_waiter(msg) {
                        let wt = self.state[waiter].t;
                        self.ready.push(Reverse((wt, waiter)));
                    }
                    // Yield after every send, even a zero-cycle one: a
                    // woken (or same-time) lower-index chip must get the
                    // next port slot exactly as under the strict
                    // per-instruction heap's (time, chip) tie-break.
                    self.state[chip].pc += 1;
                    self.ready.push(Reverse((self.state[chip].t, chip)));
                    return Ok(());
                }
                Instr::Recv { from, msg } => {
                    match self.msgs.get(msg) {
                        Some((sender, delivery, bytes)) => {
                            if sender != from {
                                return Err(SimError::SenderMismatch {
                                    msg,
                                    expected: from,
                                    actual: sender,
                                });
                            }
                            let st = &mut self.state[chip];
                            if delivery > st.t {
                                let start = st.t;
                                st.stats.c2c_exposed_cycles += delivery - st.t;
                                st.t = delivery;
                                self.sink.record(chip, start, delivery, || TraceKind::RecvWait {
                                    from: from.0,
                                });
                            }
                            if self.queued_any {
                                // Consuming the message returns its bytes
                                // to this chip's ingress buffer; senders
                                // parked on credit re-contend from their
                                // own clocks, floored at the consumption
                                // instant (heap order keeps this
                                // deterministic and FIFO by arrival time).
                                let consume_t = self.state[chip].t;
                                self.rx_occ[chip] = self.rx_occ[chip].saturating_sub(bytes);
                                if !self.credit_waiters[chip].is_empty() {
                                    let waiters = std::mem::take(&mut self.credit_waiters[chip]);
                                    for w in waiters {
                                        self.send_floor[w] = self.send_floor[w].max(consume_t);
                                        self.ready.push(Reverse((self.state[w].t, w)));
                                    }
                                }
                            }
                        }
                        None => {
                            // Park; the matching send will wake us. pc is
                            // not advanced, so the Recv re-executes on
                            // wake-up.
                            self.msgs.park(msg, chip);
                            return Ok(());
                        }
                    }
                }
                Instr::Sync(id) => {
                    self.sync_ids.push(id);
                    self.state[chip].stats.sync_marks += 1;
                }
            }
            self.state[chip].pc += 1;
        }
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
}
