//! Lowers one partitioned Transformer block into per-chip instruction
//! programs for the timing simulator.
//!
//! This plays the role Deeploy plays in the paper: a static, fully-unrolled
//! schedule per chip, with explicit DMA staging, weight streaming or
//! prefetching according to the [`MemoryPlan`], and the two collective
//! phases per block.
//!
//! Phase structure per block (paper Sec. IV):
//!
//! 1. per-chip Q/K/V projections on the chip's heads (+ RoPE, KV-cache);
//! 2. per-head attention kernels;
//! 3. partial output projection `W_O` slice;
//! 4. **sync 1**: hierarchical all-reduce of partial `S x E` outputs
//!    (32-bit partial sums), skip-add + normalization + requantization on
//!    the root, broadcast of the int8 result;
//! 5. per-chip FFN slice (`E x F/N`, activation, `F/N x E`);
//! 6. **sync 2**: same all-reduce / norm / broadcast.

use crate::{CoreError, MemoryPlan, PartitionSpec, Result, WeightResidency};
use mtp_kernels::Kernel;
use mtp_link::Topology;
use mtp_model::{AttentionKind, InferenceMode, NormKind, TransformerConfig};
use mtp_sim::{
    ChipId, ChipSpec, DmaTag, Instr, LinkRegime, Lowered, Machine, MemPath, MsgId, Program,
    SymbolicMakespan, WarmupCheckpoint, FULL_RUN_THRESHOLD,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

// Partial outputs are requantized to the deployment dtype before hitting
// the wire (the energy-optimal choice for a 100 pJ/B link), so reduce and
// broadcast payloads are both `S x E` at `dtype` width. The functional
// executor keeps full precision; the small wire-precision loss is a
// deployment knob, not a correctness concern for the timing model.

/// L2→L1 bytes staged synchronously before a kernel; the rest is
/// double-buffered by the cluster DMA and overlaps the kernel.
const L1_STAGE_BYTES: u64 = 32 * 1024;

/// Builds per-chip [`Program`]s for consecutive Transformer blocks.
///
/// The scheduler owns the message/sync/tag counters, so several blocks can
/// be chained into one run without id collisions.
///
/// ```
/// use mtp_core::schedule::Scheduler;
/// use mtp_model::{InferenceMode, TransformerConfig};
/// use mtp_sim::ChipSpec;
///
/// let cfg = TransformerConfig::tiny_llama_42m();
/// let mut s = Scheduler::new(&cfg, 8, &ChipSpec::siracusa())?;
/// let programs = s.block_programs(InferenceMode::Autoregressive);
/// assert_eq!(programs.len(), 8);
/// # Ok::<(), mtp_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    cfg: TransformerConfig,
    spec: PartitionSpec,
    plan: MemoryPlan,
    topology: Topology,
    chip: ChipSpec,
    msg_next: u64,
    sync_next: u32,
}

impl Scheduler {
    /// Builds a scheduler for `cfg` over `n_chips` chips of type `chip`,
    /// using the paper's hierarchical group-of-4 topology.
    ///
    /// # Errors
    ///
    /// Propagates partition-divisibility and topology errors.
    pub fn new(cfg: &TransformerConfig, n_chips: usize, chip: &ChipSpec) -> Result<Self> {
        let spec = PartitionSpec::new(cfg, n_chips)?;
        let plan = MemoryPlan::decide(cfg, &spec, chip)?;
        let topology = Topology::paper_default(n_chips)?;
        Ok(Scheduler {
            cfg: cfg.clone(),
            spec,
            plan,
            topology,
            chip: *chip,
            msg_next: 0,
            sync_next: 0,
        })
    }

    /// Replaces the reduction topology (used by the flat-all-reduce
    /// ablation).
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The partition specification.
    #[must_use]
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// The memory plan (residency regime).
    #[must_use]
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// The reduction topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Emits a linear kernel with its L2→L1 operand staging: a small
    /// synchronous head start plus an asynchronous remainder that overlaps
    /// the kernel (cluster-DMA double buffering). `tags` is the block's
    /// chip-local DMA-tag counter — tags only need to be unique among a
    /// chip's in-flight transfers, which lets the SPMD phase bodies be
    /// identical on every chip.
    fn emit_linear(&self, prog: &mut Program, tags: &mut u32, kernel: Kernel) {
        let dt = self.cfg.dtype.size_bytes();
        let bytes = kernel.l2_l1_traffic_bytes(dt);
        let first = bytes.min(L1_STAGE_BYTES);
        if first > 0 {
            prog.push(Instr::Dma { path: MemPath::L2ToL1, bytes: first });
        }
        let rest = bytes - first;
        let tag = if rest > 0 {
            let tag = DmaTag(*tags);
            *tags += 1;
            prog.push(Instr::DmaAsync { path: MemPath::L2ToL1, bytes: rest, tag });
            Some(tag)
        } else {
            None
        };
        prog.push(Instr::Compute(kernel));
        if let Some(tag) = tag {
            prog.push(Instr::DmaWait(tag));
        }
    }

    /// Streams a weight slice from L3 first when the plan says so, then
    /// runs the linear kernel.
    fn emit_weighted_linear(
        &self,
        prog: &mut Program,
        tags: &mut u32,
        kernel: Kernel,
        weight_bytes: u64,
    ) {
        if self.plan.residency == WeightResidency::Streamed {
            // Synchronous L3→L2 streaming in plan-sized tiles, the
            // latency-exposed path of the streamed regime.
            prog.push_stream(MemPath::L3ToL2, weight_bytes, self.plan.stream_tile_bytes);
        }
        self.emit_linear(prog, tags, kernel);
    }

    fn norm_kernel(&self, rows: usize) -> Kernel {
        let cols = self.cfg.embed_dim;
        match self.cfg.norm {
            NormKind::LayerNorm => Kernel::LayerNorm { rows, cols },
            NormKind::RmsNorm => Kernel::RmsNorm { rows, cols },
        }
    }

    /// Emits one collective phase: hierarchical reduce of requantized
    /// partials, skip-add + norm + requant on the root, broadcast.
    ///
    /// Message ids for the whole phase are reserved as one contiguous
    /// range up front (reduce steps first, broadcast steps after — the
    /// same order `fresh_msg` would hand them out), which lets the loops
    /// borrow the topology's step slices directly instead of cloning
    /// them per collective.
    fn emit_all_reduce(&mut self, progs: &mut [Program], sq: usize) {
        let e = self.cfg.embed_dim;
        let n_elems = sq * e;
        let reduce_bytes = (n_elems * self.cfg.dtype.size_bytes()) as u64;
        let bc_bytes = (n_elems * self.cfg.dtype.size_bytes()) as u64;
        let sync_id = self.sync_next;
        self.sync_next += 1;
        for p in progs.iter_mut() {
            p.push(Instr::Sync(sync_id));
        }
        let reduce_count = self.topology.reduce_steps().len() as u64;
        let mut msg = self.msg_next;
        self.msg_next += reduce_count + self.topology.broadcast_steps().len() as u64;
        for step in self.topology.reduce_steps() {
            progs[step.from].push(Instr::Send {
                to: ChipId(step.to),
                msg: MsgId(msg),
                bytes: reduce_bytes,
            });
            progs[step.to].push(Instr::Recv { from: ChipId(step.from), msg: MsgId(msg) });
            progs[step.to].push(Instr::Compute(Kernel::Add { n: n_elems }));
            msg += 1;
        }
        let root = self.topology.root();
        // Skip connection folds into the reduction (all chips hold the
        // input), then the root normalizes and requantizes.
        progs[root].push(Instr::Compute(Kernel::Add { n: n_elems }));
        progs[root].push(Instr::Compute(self.norm_kernel(sq)));
        progs[root].push(Instr::Compute(Kernel::Requant { n: n_elems }));
        for step in self.topology.broadcast_steps() {
            progs[step.from].push(Instr::Send {
                to: ChipId(step.to),
                msg: MsgId(msg),
                bytes: bc_bytes,
            });
            progs[step.to].push(Instr::Recv { from: ChipId(step.from), msg: MsgId(msg) });
            msg += 1;
        }
    }

    /// Estimated per-chip instruction count of one block, used to size
    /// program buffers up front (a small overestimate is fine; it only
    /// rounds the allocation up).
    fn block_instrs_estimate(&self) -> usize {
        // One stream per weighted linear in the streamed regime.
        let streams = if self.plan.residency == WeightResidency::Streamed { 6 } else { 0 };
        40 + 3 * self.spec.heads_per_chip() + streams
    }

    /// Per-chip programs for one Transformer block in the given mode.
    #[must_use]
    pub fn block_programs(&mut self, mode: InferenceMode) -> Vec<Program> {
        let n = self.spec.n_chips();
        let estimate = self.block_instrs_estimate();
        let dt = self.cfg.dtype.size_bytes();
        let e = self.cfg.embed_dim;
        let w = self.spec.qkv_slice_width();
        let fc = self.spec.ffn_per_chip();
        let hd = self.spec.head_dim();
        let hc = self.spec.heads_per_chip();
        let decoder = self.cfg.attention == AttentionKind::CausalRope;
        let sq = self.cfg.tokens_per_pass(mode);
        // Steady-state context length: a full KV-cache in autoregressive
        // mode, the pass itself otherwise.
        let skv =
            if decoder && mode == InferenceMode::Autoregressive { self.cfg.seq_len } else { sq };

        // DMA tags are chip-scoped, and the SPMD phases are identical on
        // every chip (weights are sliced evenly), so each phase body is
        // built once and replicated; only the collective phases are
        // emitted per chip. Tags restart per block — every transfer is
        // awaited within its block, so ids never collide in flight.
        let mut tags = 0u32;

        // Next-block weight prefetch (double-buffered regime): issued
        // first, awaited at block end.
        let prefetch = (self.plan.residency == WeightResidency::DoubleBuffered).then(|| {
            let t = DmaTag(tags);
            tags += 1;
            t
        });

        // --- MHSA phase body: query projection on the chip's heads, K/V
        // projections on its (possibly grouped) K/V heads.
        let kvw = self.spec.kv_slice_width();
        let kv_hc = self.spec.kv_heads_per_chip();
        let mut mhsa = Program::new();
        mhsa.reserve(estimate);
        self.emit_weighted_linear(
            &mut mhsa,
            &mut tags,
            Kernel::linear(sq, e, w),
            (e * w * dt) as u64,
        );
        for _ in 0..2 {
            self.emit_weighted_linear(
                &mut mhsa,
                &mut tags,
                Kernel::linear(sq, e, kvw),
                (e * kvw * dt) as u64,
            );
        }
        if decoder {
            // RoPE on Q (all local heads) and K (local K/V heads).
            mhsa.push(Instr::Compute(Kernel::Rope { seq: sq * hc, dim: hd }));
            mhsa.push(Instr::Compute(Kernel::Rope { seq: sq * kv_hc, dim: hd }));
            // KV-cache write-back of the new rows.
            mhsa.push(Instr::Dma { path: MemPath::L1ToL2, bytes: (2 * sq * kvw * dt) as u64 });
            // Stage the cached context for attention.
            mhsa.push(Instr::Dma { path: MemPath::L2ToL1, bytes: (2 * skv * kvw * dt) as u64 });
        }
        // Per-head attention: scores, softmax, probs @ V.
        for _ in 0..hc {
            mhsa.push(Instr::Compute(Kernel::linear(sq, hd, skv)));
            mhsa.push(Instr::Compute(Kernel::Softmax { rows: sq, cols: skv }));
            mhsa.push(Instr::Compute(Kernel::linear(sq, skv, hd)));
        }
        // Partial output projection.
        self.emit_weighted_linear(
            &mut mhsa,
            &mut tags,
            Kernel::linear(sq, w, e),
            (w * e * dt) as u64,
        );

        // --- FFN phase body.
        let mut ffn = Program::new();
        self.emit_weighted_linear(
            &mut ffn,
            &mut tags,
            Kernel::linear(sq, e, fc),
            (e * fc * dt) as u64,
        );
        ffn.push(Instr::Compute(Kernel::Gelu { n: sq * fc }));
        self.emit_weighted_linear(
            &mut ffn,
            &mut tags,
            Kernel::linear(sq, fc, e),
            (fc * e * dt) as u64,
        );

        // --- Assemble per chip: prefetch + MHSA, sync 1, FFN, sync 2.
        let mut progs = vec![Program::new(); n];
        for p in &mut progs {
            p.reserve(estimate);
            if let Some(tag) = prefetch {
                p.push(Instr::DmaAsync {
                    path: MemPath::L3ToL2,
                    bytes: self.plan.slice_bytes_per_block,
                    tag,
                });
            }
            p.extend(mhsa.instrs().iter().copied());
        }
        self.emit_all_reduce(&mut progs, sq);
        for p in &mut progs {
            p.extend(ffn.instrs().iter().copied());
        }
        self.emit_all_reduce(&mut progs, sq);
        if let Some(tag) = prefetch {
            for p in &mut progs {
                p.push(Instr::DmaWait(tag));
            }
        }
        progs
    }

    /// Programs for `n_blocks` consecutive blocks (steady-state layers
    /// chained back to back).
    ///
    /// Every steady-state block lowers to the *same* instruction stream
    /// except for its message and sync identifiers, which the per-block
    /// counters advance by a fixed stride (DMA tags are chip-scoped and
    /// restart per block). So the schedule is built once as a template and
    /// instantiated `n_blocks` times with shifted ids — bit-identical to
    /// deriving each block from scratch (locked by
    /// `model_programs_match_per_block_derivation`), at a fraction of the
    /// cost for model-span simulations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `n_blocks` is zero.
    pub fn model_programs(&mut self, mode: InferenceMode, n_blocks: usize) -> Result<Vec<Program>> {
        if n_blocks == 0 {
            return Err(CoreError::InvalidConfig("n_blocks must be at least 1".into()));
        }
        let (msg0, sync0) = (self.msg_next, self.sync_next);
        let template = self.block_programs(mode);
        if n_blocks == 1 {
            return Ok(template);
        }
        // Per-block id strides: how far one block advanced each counter.
        let msg_stride = self.msg_next - msg0;
        let sync_stride = self.sync_next - sync0;
        let mut progs = template.clone();
        for p in &mut progs {
            p.reserve(p.len() * (n_blocks - 1));
        }
        for block in 1..n_blocks as u64 {
            for (prog, tmpl) in progs.iter_mut().zip(&template) {
                prog.extend_shifted(tmpl, block * msg_stride, block as u32 * sync_stride);
            }
        }
        // Advance the counters past the instantiated blocks so chained
        // calls keep allocating fresh ids, exactly as per-block derivation
        // would have.
        self.msg_next = msg0 + msg_stride * n_blocks as u64;
        self.sync_next = sync0 + sync_stride * n_blocks as u32;
        Ok(progs)
    }

    /// The chip specification this scheduler targets.
    #[must_use]
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }
}

/// What one steady-state walk of a template reads from the chip, in two
/// parts: the chip with its link bandwidth left out, and a link
/// signature — under the affine link regime the priced cycles of every
/// distinct template send size (`send_sizes`; sends of one size price
/// alike), under any other regime the bandwidth itself. Chips of one
/// class walk identically and share one model (`DESIGN.md` §15).
fn timing_class(chip: &ChipSpec, send_sizes: &[u64]) -> (ChipSpec, Vec<u64>) {
    let link = if chip.link_regime == LinkRegime::Affine {
        send_sizes.iter().map(|&bytes| chip.link.transfer_cycles(bytes)).collect()
    } else {
        vec![chip.link.bytes_per_cycle.to_bits()]
    };
    let mut rest = *chip;
    rest.link.bytes_per_cycle = 0.0;
    (rest, link)
}

/// Timing classes one schedule keeps models for. A sweep streaming
/// thousands of distinct link settings through one schedule starts the
/// memo afresh past this, so it never grows with the grid.
const MAX_TIMING_CLASSES: usize = 256;

/// One timing class's walk, run once however many threads ask for it:
/// it holds `None` when the walk proved no fixed point.
type Walked = Arc<OnceLock<Option<Arc<SymbolicMakespan>>>>;

#[derive(Debug, Default)]
struct Memo {
    /// Each timing class's walk, by link signature and then by chip: a
    /// design space has many link settings but few chips.
    classes: HashMap<Vec<u64>, Vec<(ChipSpec, Walked)>>,
    /// Walks run: the memo's misses.
    walks: usize,
}

impl Memo {
    fn len(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// The class's walk, added unwalked if the memo holds none.
    fn class(&mut self, chip: ChipSpec, link: Vec<u64>) -> Walked {
        let mut chips = self.classes.get(&link).into_iter().flatten();
        if let Some((_, kept)) = chips.find(|(c, _)| *c == chip) {
            return Arc::clone(kept);
        }
        if self.len() == MAX_TIMING_CLASSES {
            self.classes.clear();
        }
        let walked = Walked::default();
        self.classes.entry(link).or_default().push((chip, Arc::clone(&walked)));
        walked
    }
}

/// A one-block schedule compiled once and reusable across every scenario
/// that shares its structure: the template lowered once, for the
/// compile chip's pricing, into the executor's form
/// ([`mtp_sim::Lowered`]), the scheduler it was built from, the mode,
/// and a steady-state memo. It keeps no instruction template;
/// [`CompiledSchedule::template`] rebuilds one on demand.
///
/// [`CompiledSchedule::simulate`] is the one evaluator the sweep engine,
/// the advisor and serving call. The memo keeps one walk per *timing
/// class* ([`CompiledSchedule::steady_state`]), so depth variants,
/// bandwidths that price every send alike, placements sharing a template
/// and the one-chip topology collapse reuse one walk with no grouping by
/// the caller. The sweep engine keys its store on exactly the fields
/// that reach this compilation: model structure, mode, chip count,
/// topology, placement, cost source, and the residency regime the memory
/// plan selects (the only path through which model depth shapes the
/// template).
///
/// ```
/// use mtp_core::schedule::CompiledSchedule;
/// use mtp_model::{InferenceMode, TransformerConfig};
/// use mtp_sim::ChipSpec;
///
/// let cfg = TransformerConfig::tiny_llama_42m();
/// let chip = ChipSpec::siracusa();
/// let compiled =
///     CompiledSchedule::compile(&cfg, 8, &chip, None, InferenceMode::Autoregressive)?;
/// let deep = compiled.simulate(&chip, 96)?;
/// assert_eq!(deep.n_blocks, 96);
/// let deeper = compiled.simulate(&chip, 192)?;
/// assert_eq!(deeper.n_blocks, 192);
/// assert_eq!(compiled.walks(), 1);
/// # Ok::<(), mtp_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    /// The scheduler as it stood before building the template.
    scheduler: Scheduler,
    mode: InferenceMode,
    /// The template lowered for the compile chip, shared with clones.
    lowered: Arc<Lowered>,
    /// The template's distinct send sizes, ascending: all a walk reads
    /// of the link under the affine link regime.
    send_sizes: Vec<u64>,
    /// The steady-state memo, shared with clones (they walk alike).
    memo: Arc<Mutex<Memo>>,
}

impl CompiledSchedule {
    /// Builds one steady-state block of `cfg` over `n_chips` chips of
    /// type `chip` and lowers it for `chip`'s pricing; `topology`
    /// overrides the paper's default reduction tree.
    ///
    /// # Errors
    ///
    /// Propagates partition-divisibility and topology errors.
    pub fn compile(
        cfg: &TransformerConfig,
        n_chips: usize,
        chip: &ChipSpec,
        topology: Option<Topology>,
        mode: InferenceMode,
    ) -> Result<Self> {
        let mut scheduler = Scheduler::new(cfg, n_chips, chip)?;
        if let Some(t) = topology {
            scheduler = scheduler.with_topology(t);
        }
        let template = scheduler.clone().block_programs(mode);
        let mut send_sizes: Vec<u64> = template
            .iter()
            .flat_map(Program::instrs)
            .filter_map(|i| match *i {
                Instr::Send { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        send_sizes.sort_unstable();
        send_sizes.dedup();
        let lowered = Arc::new(Machine::homogeneous(*chip, n_chips).lower(&template)?);
        Ok(CompiledSchedule { scheduler, mode, lowered, send_sizes, memo: Arc::default() })
    }

    /// The per-chip one-block instruction template, rebuilt from the
    /// scheduler: the programs [`CompiledSchedule::lowered`] was
    /// lowered from.
    #[must_use]
    pub fn template(&self) -> Vec<Program> {
        self.scheduler.clone().block_programs(self.mode)
    }

    /// The template's executor form, priced for the compile chip.
    #[must_use]
    pub fn lowered(&self) -> &Lowered {
        &self.lowered
    }

    /// The residency regime the template was built for.
    #[must_use]
    pub fn residency(&self) -> WeightResidency {
        self.scheduler.plan().residency
    }

    /// The inference mode the template was built for.
    #[must_use]
    pub fn mode(&self) -> InferenceMode {
        self.mode
    }

    /// Number of chips the template spans.
    #[must_use]
    pub fn n_chips(&self) -> usize {
        self.lowered.n_chips()
    }

    /// The steady state of this template on a machine of `chip`s, from
    /// the memo: one walk to the warmup bound per timing class — the chip
    /// with its link bandwidth left out, plus under the affine regime the
    /// priced cycles of every template send size — and `None` when that walk
    /// proves no fixed point. Contention-bearing link regimes never prove
    /// one, walk nothing and keep no entry.
    ///
    /// # Errors
    ///
    /// [`mtp_sim::SimError::FormPricingMismatch`] when `chip` prices
    /// kernels or DMA unlike the compile chip, under every link regime.
    pub fn steady_state(&self, chip: &ChipSpec) -> Result<Option<Arc<SymbolicMakespan>>> {
        let machine = Machine::homogeneous(*chip, self.n_chips());
        machine.check_form(&self.lowered)?;
        if !chip.link_regime.contention_free() {
            return Ok(None);
        }
        let (rest, link) = timing_class(chip, &self.send_sizes);
        // Walk outside the memo's lock, once per class: a thread asking
        // for a class another one is walking waits for that walk.
        let walked = self.memo().class(rest, link);
        let model = walked.get_or_init(|| {
            self.memo().walks += 1;
            SymbolicMakespan::derive_lowered(&machine, &self.lowered)
                .expect("the form's pricing was checked above")
                .map(Arc::new)
        });
        Ok(model.clone())
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        // Entries are pushed whole, so a panicking holder leaves none
        // half written.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Steady-state walks this schedule has run: the memo's misses.
    #[must_use]
    pub fn walks(&self) -> usize {
        self.memo().walks
    }

    /// Simulates `n_blocks` consecutive blocks on a machine of `chip`s:
    /// past [`mtp_sim::FULL_RUN_THRESHOLD`] blocks from the memo's
    /// steady state ([`CompiledSchedule::steady_state`]), otherwise —
    /// and whenever no fixed point is proven — through the periodic
    /// engine. Bit-identical to [`mtp_sim::Machine::run_periodic`] on the
    /// template either way.
    ///
    /// `chip` may differ from the compile chip only in its link:
    /// bandwidth and regime, which the sweep engine and the advisor vary
    /// without recompiling. The form is priced once, so another cost
    /// source or DMA engine is another schedule.
    ///
    /// # Errors
    ///
    /// [`mtp_sim::SimError::FormPricingMismatch`] when `chip` prices
    /// kernels or DMA unlike the compile chip; otherwise propagates
    /// simulation errors; `n_blocks` must be at least 1.
    pub fn simulate(&self, chip: &ChipSpec, n_blocks: usize) -> Result<crate::SystemReport> {
        let model = if n_blocks > FULL_RUN_THRESHOLD { self.steady_state(chip)? } else { None };
        self.simulate_with(chip, n_blocks, model.as_deref())
    }

    /// [`CompiledSchedule::simulate`] plus whether the memo holds a
    /// steady state for `chip` ([`CompiledSchedule::steady_state`]),
    /// both from one memo lookup. Unlike `simulate` it consults the memo
    /// at every depth, walking the timing class if no call has yet.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledSchedule::simulate`].
    pub fn simulate_and_state(
        &self,
        chip: &ChipSpec,
        n_blocks: usize,
    ) -> Result<(crate::SystemReport, bool)> {
        let model = self.steady_state(chip)?;
        Ok((self.simulate_with(chip, n_blocks, model.as_deref())?, model.is_some()))
    }

    /// Simulates `n_blocks` blocks from `model` past the full-run
    /// threshold, through the periodic engine otherwise.
    fn simulate_with(
        &self,
        chip: &ChipSpec,
        n_blocks: usize,
        model: Option<&SymbolicMakespan>,
    ) -> Result<crate::SystemReport> {
        if n_blocks == 0 {
            return Err(CoreError::InvalidConfig("n_blocks must be at least 1".into()));
        }
        let stats = match model.filter(|_| n_blocks > FULL_RUN_THRESHOLD) {
            Some(model) => model.eval(n_blocks)?,
            None => Machine::homogeneous(*chip, self.n_chips())
                .run_periodic_lowered(&self.lowered, n_blocks)?,
        };
        Ok(crate::report::from_stats(
            chip,
            self.n_chips(),
            self.mode,
            n_blocks,
            self.residency(),
            stats,
        ))
    }

    /// The memo's steady state for `chip` as a [`WarmupCheckpoint`]
    /// ([`CompiledSchedule::steady_state`]): walks only when no earlier
    /// call on this schedule walked the same timing class.
    /// [`CompiledSchedule::simulate_from`] answers any depth from it.
    ///
    /// # Errors
    ///
    /// [`mtp_sim::SimError::FormPricingMismatch`] only, as
    /// [`CompiledSchedule::steady_state`]; template problems yield a non-converged checkpoint and surface
    /// from the exact simulation [`CompiledSchedule::simulate_from`]
    /// falls back to.
    pub fn warmup(&self, chip: &ChipSpec) -> Result<WarmupCheckpoint> {
        Ok(self.steady_state(chip)?.map(Arc::unwrap_or_clone).into())
    }

    /// [`CompiledSchedule::simulate`] after a [`CompiledSchedule::warmup`]
    /// on the **same chip spec**: the memo already holds the checkpoint's
    /// model, so this is `simulate` itself.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledSchedule::simulate`].
    pub fn simulate_from(
        &self,
        chip: &ChipSpec,
        n_blocks: usize,
        _ckpt: &WarmupCheckpoint,
    ) -> Result<crate::SystemReport> {
        self.simulate(chip, n_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_sim::Machine;

    fn sched(cfg: &TransformerConfig, n: usize) -> Scheduler {
        Scheduler::new(cfg, n, &ChipSpec::siracusa()).unwrap()
    }

    #[test]
    fn two_syncs_per_block() {
        let cfg = TransformerConfig::tiny_llama_42m();
        for n in [1usize, 2, 4, 8] {
            let mut s = sched(&cfg, n);
            let progs = s.block_programs(InferenceMode::Autoregressive);
            for p in &progs {
                assert_eq!(p.sync_phase_count(), 2, "n={n}");
            }
        }
    }

    #[test]
    fn programs_execute_without_deadlock() {
        let cfg = TransformerConfig::tiny_llama_42m();
        for n in [1usize, 2, 4, 8] {
            let mut s = sched(&cfg, n);
            let progs = s.block_programs(InferenceMode::Autoregressive);
            let machine = Machine::homogeneous(ChipSpec::siracusa(), n);
            let stats = machine.run(&progs).unwrap();
            assert!(stats.makespan > 0, "n={n}");
            assert_eq!(stats.sync_phases, 2);
        }
    }

    #[test]
    fn single_chip_sends_nothing() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let mut s = sched(&cfg, 1);
        let progs = s.block_programs(InferenceMode::Autoregressive);
        assert_eq!(progs[0].sent_bytes(), 0);
    }

    #[test]
    fn multi_chip_c2c_volume_matches_topology() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let mut s = sched(&cfg, 8);
        let progs = s.block_programs(InferenceMode::Autoregressive);
        let e = cfg.embed_dim as u64;
        // Two syncs, each: 7 reduce messages + 7 broadcasts, both int8.
        let expect = 2 * (7 * e + 7 * e);
        let total: u64 = progs.iter().map(Program::sent_bytes).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn streamed_regime_streams_weight_slice() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let mut s = sched(&cfg, 1);
        assert_eq!(s.plan().residency, WeightResidency::Streamed);
        let progs = s.block_programs(InferenceMode::Autoregressive);
        let l3_bytes: u64 = progs[0]
            .instrs()
            .iter()
            .map(|i| match i {
                Instr::Dma { path: MemPath::L3ToL2, bytes }
                | Instr::DmaStream { path: MemPath::L3ToL2, bytes, .. } => *bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(l3_bytes, cfg.block_weight_bytes());
        // One stream instruction per weighted linear (Q, K, V, output,
        // two FFN), each in plan-sized tiles; no per-tile Dma.
        let streams: Vec<_> = progs[0]
            .instrs()
            .iter()
            .filter_map(|i| match *i {
                Instr::DmaStream { path: MemPath::L3ToL2, tile, .. } => Some(tile),
                _ => None,
            })
            .collect();
        assert_eq!(streams, vec![s.plan().stream_tile_bytes; 6]);
        assert!(!progs[0]
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Dma { path: MemPath::L3ToL2, .. })));
    }

    #[test]
    fn double_buffered_prefetches_async() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let mut s = sched(&cfg, 8);
        assert_eq!(s.plan().residency, WeightResidency::DoubleBuffered);
        let progs = s.block_programs(InferenceMode::Autoregressive);
        for p in &progs {
            let async_l3: u64 = p
                .instrs()
                .iter()
                .map(|i| match i {
                    Instr::DmaAsync { path: MemPath::L3ToL2, bytes, .. } => *bytes,
                    _ => 0,
                })
                .sum();
            assert_eq!(async_l3, cfg.block_weight_bytes() / 8);
            // No synchronous L3 streaming in this regime.
            assert!(!p.instrs().iter().any(|i| matches!(
                i,
                Instr::Dma { path: MemPath::L3ToL2, .. }
                    | Instr::DmaStream { path: MemPath::L3ToL2, .. }
            )));
        }
    }

    #[test]
    fn resident_regime_has_no_l3_instructions() {
        let cfg = TransformerConfig::tiny_llama_scaled_64h();
        let mut s = sched(&cfg, 64);
        assert_eq!(s.plan().residency, WeightResidency::Resident);
        let progs = s.block_programs(InferenceMode::Autoregressive);
        for p in &progs {
            assert!(!p.instrs().iter().any(|i| matches!(
                i,
                Instr::Dma { path: MemPath::L3ToL2, .. }
                    | Instr::DmaStream { path: MemPath::L3ToL2, .. }
                    | Instr::DmaAsync { path: MemPath::L3ToL2, .. }
            )));
        }
    }

    #[test]
    fn model_programs_chain_blocks() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let mut s = sched(&cfg, 8);
        let one = s.block_programs(InferenceMode::Autoregressive)[0].len();
        let mut s = sched(&cfg, 8);
        let four = s.model_programs(InferenceMode::Autoregressive, 4).unwrap();
        assert_eq!(four[0].len(), 4 * one);
        assert!(s.model_programs(InferenceMode::Autoregressive, 0).is_err());
    }

    #[test]
    fn model_programs_match_per_block_derivation() {
        // The template-instantiation fast path must emit exactly the
        // instruction streams that deriving every block from scratch
        // would, for every residency regime and mode.
        let cases = [
            (TransformerConfig::tiny_llama_42m(), 8, InferenceMode::Autoregressive),
            (TransformerConfig::tiny_llama_42m(), 1, InferenceMode::Autoregressive),
            (TransformerConfig::tiny_llama_42m().with_seq_len(16), 4, InferenceMode::Prompt),
            (TransformerConfig::mobile_bert(), 4, InferenceMode::Prompt),
        ];
        for (cfg, n, mode) in cases {
            let mut fast = sched(&cfg, n);
            let templated = fast.model_programs(mode, 3).unwrap();
            let mut slow = sched(&cfg, n);
            let mut derived = vec![Program::new(); n];
            for _ in 0..3 {
                for (p, b) in derived.iter_mut().zip(slow.block_programs(mode)) {
                    p.extend(b.instrs().iter().copied());
                }
            }
            assert_eq!(templated, derived, "{} x{n} {mode}", cfg.name);
            // Counters must land in the same place so chained scheduling
            // keeps allocating fresh ids.
            assert_eq!(fast.msg_next, slow.msg_next);
            assert_eq!(fast.sync_next, slow.sync_next);
        }
    }

    /// One block serving `n_requests` request slots, derived slot by
    /// slot: each slot is the block body with fresh message and sync ids.
    fn request_slots(s: &mut Scheduler, mode: InferenceMode, n_requests: usize) -> Vec<Program> {
        let mut progs = vec![Program::new(); s.spec().n_chips()];
        for _ in 0..n_requests {
            for (p, slot) in progs.iter_mut().zip(s.block_programs(mode)) {
                p.extend(slot.instrs().iter().copied());
            }
        }
        progs
    }

    #[test]
    fn batch_of_one_is_block_programs_verbatim() {
        // Across all three residency regimes and both modes: one block
        // of one request slot is the block programs, with identical
        // counter state.
        let cases = [
            (TransformerConfig::tiny_llama_42m(), 1, InferenceMode::Autoregressive),
            (TransformerConfig::tiny_llama_42m(), 8, InferenceMode::Autoregressive),
            (TransformerConfig::tiny_llama_scaled_64h(), 64, InferenceMode::Autoregressive),
            (TransformerConfig::mobile_bert(), 4, InferenceMode::Prompt),
        ];
        for (cfg, n, mode) in cases {
            let mut batched = sched(&cfg, n);
            let b = batched.model_programs(mode, 1).unwrap();
            let mut single = sched(&cfg, n);
            let s = single.block_programs(mode);
            assert_eq!(b, s, "{} x{n} {mode}", cfg.name);
            assert_eq!(batched.msg_next, single.msg_next);
            assert_eq!(batched.sync_next, single.sync_next);
        }
    }

    #[test]
    fn batch_block_programs_concatenate_request_slots() {
        // A block of three request slots is three blocks.
        let cfg = TransformerConfig::tiny_llama_42m();
        let batched = sched(&cfg, 8).model_programs(InferenceMode::Autoregressive, 3).unwrap();
        let expect = request_slots(&mut sched(&cfg, 8), InferenceMode::Autoregressive, 3);
        assert_eq!(batched, expect);
    }

    #[test]
    fn batch_model_programs_match_per_block_interleaving() {
        // Block-major request interleaving: emitting each block's B
        // request slots in order, block after block, must equal the
        // templated stream of blocks x B blocks exactly.
        let cfg = TransformerConfig::tiny_llama_42m();
        let mode = InferenceMode::Autoregressive;
        let mut fast = sched(&cfg, 8);
        let templated = fast.model_programs(mode, 2 * 3).unwrap();
        let mut slow = sched(&cfg, 8);
        let mut derived = vec![Program::new(); 8];
        for _block in 0..2 {
            for (p, b) in derived.iter_mut().zip(request_slots(&mut slow, mode, 3)) {
                p.extend(b.instrs().iter().copied());
            }
        }
        assert_eq!(templated, derived);
        assert_eq!(fast.msg_next, slow.msg_next);
        assert_eq!(fast.sync_next, slow.sync_next);
    }

    fn scaled(pct: u32) -> ChipSpec {
        let mut chip = ChipSpec::siracusa();
        chip.link.bytes_per_cycle *= f64::from(pct) / 100.0;
        chip
    }

    #[test]
    fn memo_walks_once_for_a_no_send_template_at_five_bandwidths() {
        // One chip sends nothing, so every bandwidth prices the template
        // alike: one timing class, one walk, every depth answered.
        let cfg = TransformerConfig::tiny_llama_42m();
        let ar = InferenceMode::Autoregressive;
        let compiled = CompiledSchedule::compile(&cfg, 1, &ChipSpec::siracusa(), None, ar).unwrap();
        for pct in [10, 25, 50, 75, 100] {
            let chip = scaled(pct);
            let machine = Machine::homogeneous(chip, 1);
            for n in [5, 8, 96] {
                let report = compiled.simulate(&chip, n).unwrap();
                assert_eq!(report.stats, machine.run_periodic(&compiled.template(), n).unwrap());
            }
        }
        assert_eq!(compiled.walks(), 1);
        assert_eq!(compiled.memo().len(), 1);
        let a = compiled.steady_state(&scaled(10)).unwrap().unwrap();
        let b = compiled.steady_state(&scaled(100)).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "both bandwidths read one model");
        assert!(compiled.warmup(&scaled(50)).unwrap().converged());
        assert_eq!(compiled.walks(), 1);
    }

    #[test]
    fn memo_race_on_two_threads_gives_the_serial_results() {
        let (cfg, ar) = (TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive);
        let compile = || CompiledSchedule::compile(&cfg, 8, &ChipSpec::siracusa(), None, ar);
        let (serial, shared) = (compile().unwrap(), Arc::new(compile().unwrap()));
        let queries: Vec<(u32, usize)> =
            [25, 50, 100].iter().flat_map(|&pct| [5, 8, 96].map(|n| (pct, n))).collect();
        let answer = |c: &CompiledSchedule, &(pct, n): &(u32, usize)| {
            c.simulate(&scaled(pct), n).unwrap().stats
        };
        let expect: Vec<_> = queries.iter().map(|q| answer(&serial, q)).collect();
        let (forward, mut backward): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
            let fwd = scope.spawn(|| queries.iter().map(|q| answer(&shared, q)).collect());
            let bwd = scope.spawn(|| queries.iter().rev().map(|q| answer(&shared, q)).collect());
            (fwd.join().unwrap(), bwd.join().unwrap())
        });
        backward.reverse();
        assert_eq!((forward, backward), (expect.clone(), expect));
        // Racing threads walk each class once and keep one entry.
        assert_eq!(shared.memo().len(), serial.memo().len());
        assert_eq!(shared.walks(), serial.walks());
    }

    #[test]
    fn memo_keeps_at_most_its_class_bound() {
        // Each link latency is its own timing class; the memo starts
        // afresh once the bound is reached, and answers stay exact.
        let cfg = TransformerConfig::tiny_llama_42m();
        let ar = InferenceMode::Autoregressive;
        let compiled = CompiledSchedule::compile(&cfg, 2, &ChipSpec::siracusa(), None, ar).unwrap();
        let mut chip = ChipSpec::siracusa();
        for latency in 0..MAX_TIMING_CLASSES as u64 + 8 {
            chip.link.latency_cycles = latency;
            compiled.steady_state(&chip).unwrap();
            assert!(compiled.memo().len() <= MAX_TIMING_CLASSES);
        }
        assert_eq!(compiled.memo().len(), 8);
        assert_eq!(compiled.walks(), MAX_TIMING_CLASSES + 8);
        chip.link.latency_cycles = 0;
        let direct = Machine::homogeneous(chip, 2).run_periodic(&compiled.template(), 9).unwrap();
        assert_eq!(compiled.simulate(&chip, 9).unwrap().stats, direct);
        assert_eq!(compiled.walks(), MAX_TIMING_CLASSES + 9, "class 0 was forgotten");
    }

    #[test]
    fn prompt_mode_uses_gemm_kernels() {
        let cfg = TransformerConfig::tiny_llama_42m().with_seq_len(16);
        let mut s = sched(&cfg, 8);
        let progs = s.block_programs(InferenceMode::Prompt);
        let has_gemm = progs[0]
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Compute(Kernel::Gemm { m: 16, .. })));
        assert!(has_gemm);
        let has_gemv =
            progs[0].instrs().iter().any(|i| matches!(i, Instr::Compute(Kernel::Gemv { .. })));
        assert!(!has_gemv, "prompt mode must not emit GEMV");
    }

    #[test]
    fn encoder_blocks_have_no_rope_or_kv() {
        let cfg = TransformerConfig::mobile_bert();
        let mut s = sched(&cfg, 4);
        let progs = s.block_programs(InferenceMode::Prompt);
        assert!(!progs[0]
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Compute(Kernel::Rope { .. }))));
    }
}
