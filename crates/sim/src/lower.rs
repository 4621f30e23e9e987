//! The lowered form: per-chip programs resolved once into dense,
//! pre-costed ops that the executor replays without re-pricing.
//!
//! Lowering does, once per `(programs, cost class)`, the work that
//! would otherwise repeat on every run and every walk segment:
//!
//! - **Pricing.** Each kernel carries its cycle count for its chip's cost
//!   model, and each DMA transfer and stream tile its engine cycles.
//!   Kernels repeat across chips and heads, so each distinct shape is
//!   priced once per cost class, and transfers of one class, path and
//!   size share one entry of the form's transfer table. Send cycles
//!   depend on the link bandwidth, which sweeps vary without
//!   re-lowering, so the executor still prices sends from their bytes.
//! - **Message ids.** Ids index a plain vector, the executor's message
//!   table: a compact id range (what schedule builders emit) as it is,
//!   any other id set renumbered `0..m` by rank. Each dense id keeps its
//!   original [`MsgId`]: the lossy link regime seeds its drop pattern
//!   from it, and errors report it.
//! - **Sync phases.** A run that finishes has executed every `Sync`, so
//!   the distinct sync-id count is a property of the programs, counted
//!   here rather than collected per run.
//!
//! A lowered form composes without going back to [`Program`]s:
//! [`Lowered::concat`] interleaves request slots into one serving pass and
//! `repeat` instantiates a block template `n` times, each copy's ids
//! shifted exactly as [`Program::extend_shifted`] would (`DESIGN.md` §8).

use crate::{ChipSpec, DmaSpec, DmaTag, Instr, MemPath, MsgId, Program};
use mtp_kernels::{CalibratedCostModel, ClusterCostModel, Kernel};

/// One lowered instruction. Cycle counts are resolved for the chip the op
/// runs on; 16 bytes against the 40 of an [`Instr`]. Transfers and sends
/// keep their wider payloads in side tables of the form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// A kernel of `cycles`. Op `i` of a chip lowers instruction `i` of
    /// its program, which is where a recording sink reads the label.
    Compute { cycles: u64 },
    /// A blocking transfer; indexes [`Lowered::xfers`].
    Dma(u32),
    /// A blocking tile stream; indexes [`Lowered::streams`].
    Stream(u32),
    /// An asynchronous transfer; `xfer` indexes [`Lowered::xfers`].
    DmaAsync { xfer: u32, tag: DmaTag },
    /// Waits for an asynchronous transfer.
    DmaWait(DmaTag),
    /// A send; indexes [`Lowered::sends`].
    Send(u32),
    /// Receives dense message `msg` from chip `from`.
    Recv { from: usize, msg: u32 },
    /// A sync mark.
    Sync,
}

/// A priced DMA transfer. Programs repeat a few transfer sizes many
/// times, so ops share one entry per `(cost class, path, bytes)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Xfer {
    pub(crate) cycles: u64,
    pub(crate) bytes: u64,
    pub(crate) path: MemPath,
}

/// A send of `bytes` to chip `to` carrying dense message `msg`. Its
/// cycles depend on the link bandwidth, which the executor prices per
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SendOp {
    pub(crate) bytes: u64,
    pub(crate) to: usize,
    pub(crate) msg: u32,
}

/// A priced [`Instr::DmaStream`]: `tiles` full tiles of `tile` bytes,
/// then one `rest`-byte tile when `rest > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamOp {
    pub(crate) path: MemPath,
    pub(crate) tile: u64,
    pub(crate) tiles: u64,
    pub(crate) tile_cycles: u64,
    pub(crate) rest: u64,
    pub(crate) rest_cycles: u64,
}

/// Everything lowering reads from a chip: its kernel cost model and its
/// two DMA engines. Chips with equal pricing form one cost class.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pricing {
    cost_model: ClusterCostModel,
    cost_override: Option<CalibratedCostModel>,
    io_dma: DmaSpec,
    cluster_dma: DmaSpec,
}

impl Pricing {
    fn of(chip: &ChipSpec) -> Self {
        Pricing {
            cost_model: chip.cost_model,
            cost_override: chip.cost_override,
            io_dma: chip.io_dma,
            cluster_dma: chip.cluster_dma,
        }
    }
}

/// A direct-mapped cache used while lowering: programs repeat the same
/// kernel shapes and transfer sizes across chips, heads and blocks, so
/// each distinct `(cost class, shape)` is priced about once. The caller
/// hashes the key; a collision only costs a re-pricing (and, for
/// transfers, a duplicate table entry).
struct PriceMemo<K> {
    slots: [Option<(K, u64)>; 64],
}

impl<K: Copy + PartialEq> PriceMemo<K> {
    fn new() -> Self {
        PriceMemo { slots: [None; 64] }
    }

    /// The value of `key`, computed by `price` on a miss. The slot is
    /// the top six bits of `hash` times the 64-bit golden ratio, which
    /// depend on every bit of `hash`: kernel dimensions and transfer
    /// sizes are mostly multiples of large powers of two, and slots
    /// taken from the low bits would make them collide.
    fn get(&mut self, key: K, hash: usize, price: impl FnOnce() -> u64) -> u64 {
        let slot =
            &mut self.slots[((hash as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize];
        match *slot {
            Some((k, value)) if k == key => value,
            _ => {
                let value = price();
                *slot = Some((key, value));
                value
            }
        }
    }
}

/// A cheap fingerprint of `(cost class, kernel)` for [`PriceMemo`].
fn kernel_hash(kernel: &Kernel, class: usize) -> usize {
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
    (d ^ class << 4)
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(a.wrapping_mul(0x85eb_ca6b))
        .wrapping_add(b.wrapping_mul(0xc2b2_ae35))
        .wrapping_add(c.wrapping_mul(0x27d4_eb2f))
}

/// Per-chip programs lowered for one machine's cost classes: the only
/// form the executor runs.
///
/// Build one with [`crate::Machine::lower`] and replay it with
/// [`crate::Machine::run_lowered`] or
/// [`crate::Machine::run_periodic_lowered`] on any machine whose chips
/// price kernels and DMA the same way, whatever their link bandwidth,
/// link regime or fault plan.
///
/// ```
/// use mtp_sim::{ChipSpec, Instr, Lowered, Machine, Program};
/// use mtp_kernels::Kernel;
///
/// let machine = Machine::homogeneous(ChipSpec::siracusa(), 2);
/// let slot = vec![
///     Program::from_instrs([Instr::compute(Kernel::gemv(64, 64)), Instr::send(1, 0, 256)]),
///     Program::from_instrs([Instr::recv(0, 0)]),
/// ];
/// let lowered = machine.lower(&slot)?;
/// assert_eq!(machine.run_lowered(&lowered)?, machine.run(&slot)?);
/// // Two slots interleave into one pass without rebuilding programs.
/// let pass = Lowered::concat([&lowered, &lowered]);
/// assert_eq!(machine.run_lowered(&pass)?, machine.run_periodic(&slot, 2)?);
/// # Ok::<(), mtp_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// Chip `c` runs `ops[starts[c]..starts[c + 1]]`.
    pub(crate) starts: Vec<usize>,
    pub(crate) ops: Vec<Op>,
    pub(crate) xfers: Vec<Xfer>,
    pub(crate) streams: Vec<StreamOp>,
    /// One entry per send op, in lowering order.
    pub(crate) sends: Vec<SendOp>,
    /// Original id of each dense message id.
    pub(crate) msg_ids: Vec<MsgId>,
    /// The source programs' [`crate::id_span`]: the id shift between
    /// consecutive copies.
    span: (u64, u32),
    /// Distinct sync ids across all chips.
    pub(crate) distinct_syncs: usize,
    /// The cost classes the form was priced with, and each chip's class.
    classes: Vec<Pricing>,
    class_of: Vec<usize>,
}

impl Lowered {
    /// Lowers one program per chip of `chips`. The caller checks the
    /// counts match.
    pub(crate) fn new(chips: &[ChipSpec], programs: &[Program]) -> Self {
        debug_assert_eq!(chips.len(), programs.len());
        let mut classes: Vec<Pricing> = Vec::with_capacity(1);
        let mut class_of = Vec::with_capacity(chips.len());
        let mut kernel_prices = PriceMemo::new();
        let mut xfer_index = PriceMemo::new();
        let mut xfers = Vec::new();
        let mut starts = Vec::with_capacity(chips.len() + 1);
        let mut ops = Vec::with_capacity(programs.iter().map(Program::len).sum());
        let mut streams = Vec::new();
        let mut sends = Vec::new();
        let mut sync_ids = Vec::with_capacity(2 * chips.len());
        let (mut max_id, mut refs) = (0u64, 0usize);
        for (spec, program) in chips.iter().zip(programs) {
            starts.push(ops.len());
            let pricing = Pricing::of(spec);
            let class = classes.iter().position(|p| *p == pricing).unwrap_or_else(|| {
                classes.push(pricing);
                classes.len() - 1
            });
            class_of.push(class);
            // The shared table entry of a transfer, priced on first use,
            // and its cycles.
            let mut xfer = |path: MemPath, bytes: u64| {
                let hash = (bytes as usize).wrapping_mul(0x9e37_79b9) ^ class << 3 ^ path as usize;
                let at = xfer_index.get((class, path, bytes), hash, || {
                    let engine = if path.is_off_chip() { &spec.io_dma } else { &spec.cluster_dma };
                    xfers.push(Xfer { cycles: engine.transfer_cycles(bytes), bytes, path });
                    xfers.len() as u64 - 1
                }) as usize;
                (at as u32, xfers[at].cycles)
            };
            // Message ids go in as they are; a sparse id set is
            // renumbered below, once every id is known.
            let mut id = |msg: MsgId| {
                max_id = max_id.max(msg.0);
                refs += 1;
                msg.0 as u32
            };
            ops.extend(program.instrs().iter().map(|&instr| match instr {
                Instr::Compute(kernel) => Op::Compute {
                    cycles: kernel_prices.get((class, kernel), kernel_hash(&kernel, class), || {
                        spec.kernel_cycles(&kernel)
                    }),
                },
                Instr::Dma { path, bytes } => Op::Dma(xfer(path, bytes).0),
                Instr::DmaStream { path, bytes, tile } => {
                    let tile = tile.max(1);
                    let rest = bytes % tile;
                    streams.push(StreamOp {
                        path,
                        tile,
                        tiles: bytes / tile,
                        tile_cycles: xfer(path, tile).1,
                        rest,
                        rest_cycles: xfer(path, rest).1,
                    });
                    Op::Stream((streams.len() - 1) as u32)
                }
                Instr::DmaAsync { path, bytes, tag } => {
                    Op::DmaAsync { xfer: xfer(path, bytes).0, tag }
                }
                Instr::DmaWait(tag) => Op::DmaWait(tag),
                Instr::Send { to, msg, bytes } => {
                    sends.push(SendOp { bytes, to: to.0, msg: id(msg) });
                    Op::Send((sends.len() - 1) as u32)
                }
                Instr::Recv { from, msg } => Op::Recv { from: from.0, msg: id(msg) },
                Instr::Sync(sync) => {
                    sync_ids.push(sync);
                    Op::Sync
                }
            }));
        }
        starts.push(ops.len());
        sync_ids.sort_unstable();
        sync_ids.dedup();
        // Schedule builders allocate ids sequentially, so they already
        // index a compact table. Any other id set is renumbered by rank
        // among its distinct ids, keeping the table as long as the number
        // of distinct messages.
        let msg_ids = if max_id < 4 * refs as u64 + 64 {
            (0..if refs > 0 { max_id + 1 } else { 0 }).map(MsgId).collect()
        } else {
            let source = || programs.iter().flat_map(Program::instrs);
            let mut ids: Vec<u64> = source()
                .filter_map(|i| match *i {
                    Instr::Send { msg, .. } | Instr::Recv { msg, .. } => Some(msg.0),
                    _ => None,
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let rank =
                |msg: MsgId| ids.binary_search(&msg.0).expect("every id was collected") as u32;
            for (op, instr) in ops.iter_mut().zip(source()) {
                match (op, *instr) {
                    (Op::Send(s), Instr::Send { msg: id, .. }) => {
                        sends[*s as usize].msg = rank(id);
                    }
                    (Op::Recv { msg, .. }, Instr::Recv { msg: id, .. }) => *msg = rank(id),
                    _ => {}
                }
            }
            ids.into_iter().map(MsgId).collect()
        };
        // Ids are labels, so like `Program::extend_shifted` the shifts of
        // ids at the top of the range wrap instead of failing.
        let span = (
            if refs > 0 { max_id.wrapping_add(1) } else { 0 },
            sync_ids.last().map_or(0, |&s| s.wrapping_add(1)),
        );
        let distinct_syncs = sync_ids.len();
        Lowered {
            starts,
            ops,
            xfers,
            streams,
            sends,
            msg_ids,
            span,
            distinct_syncs,
            classes,
            class_of,
        }
    }

    /// Concatenates lowered forms chip by chip into one: each part's
    /// message and sync ids are shifted past the spans of the parts
    /// before it, exactly like appending each part's programs with
    /// [`Program::extend_shifted`]. This is how a mixed serving pass
    /// interleaves its request slots.
    ///
    /// # Panics
    ///
    /// Panics when the parts span different chip counts or were priced
    /// for different chips, and on an empty iterator.
    #[must_use]
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Lowered>) -> Lowered {
        let parts: Vec<&Lowered> = parts.into_iter().collect();
        let first = parts.first().expect("concatenating no lowered forms");
        assert!(
            parts.iter().all(|p| p.classes == first.classes && p.class_of == first.class_of),
            "concatenated parts must be priced for the same chips"
        );
        let n = first.n_chips();
        let mut out = Lowered {
            starts: Vec::with_capacity(n + 1),
            ops: Vec::with_capacity(parts.iter().map(|p| p.ops.len()).sum()),
            xfers: Vec::new(),
            streams: Vec::new(),
            sends: Vec::with_capacity(parts.iter().map(|p| p.sends.len()).sum()),
            msg_ids: Vec::with_capacity(parts.iter().map(|p| p.msg_ids.len()).sum()),
            span: (0, 0),
            distinct_syncs: 0,
            classes: first.classes.clone(),
            class_of: first.class_of.clone(),
        };
        // Per-part offsets into the concatenated tables. The priced
        // tables hold no ids, so a part that recurs within the last
        // eight parts (every copy of a repeated block, a serving pass's
        // recurring slot shapes) shares the entries of that copy; any
        // other part brings its own.
        let mut offsets: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(parts.len());
        for (i, part) in parts.iter().enumerate() {
            let recurs = (i.saturating_sub(8)..i).rev().find(|&j| std::ptr::eq(parts[j], *part));
            let (xfer, stream) = match recurs {
                Some(j) => (offsets[j].0, offsets[j].1),
                None => {
                    let at = (out.xfers.len() as u32, out.streams.len() as u32);
                    out.xfers.extend_from_slice(&part.xfers);
                    out.streams.extend_from_slice(&part.streams);
                    at
                }
            };
            let (send, msg) = (out.sends.len() as u32, out.msg_ids.len() as u32);
            out.sends.extend(part.sends.iter().map(|s| SendOp { msg: s.msg + msg, ..*s }));
            let shift = out.span.0;
            out.msg_ids.extend(part.msg_ids.iter().map(|id| MsgId(id.0.wrapping_add(shift))));
            out.span.0 = out.span.0.wrapping_add(part.span.0);
            out.span.1 = out.span.1.wrapping_add(part.span.1);
            out.distinct_syncs += part.distinct_syncs;
            offsets.push((xfer, stream, send, msg));
        }
        for chip in 0..n {
            out.starts.push(out.ops.len());
            for (part, &(xfer, stream, send, msg)) in parts.iter().zip(&offsets) {
                let body = &part.ops[part.starts[chip]..part.starts[chip + 1]];
                out.ops.extend(body.iter().map(|&op| match op {
                    Op::Dma(x) => Op::Dma(x + xfer),
                    Op::Stream(s) => Op::Stream(s + stream),
                    Op::DmaAsync { xfer: x, tag } => Op::DmaAsync { xfer: x + xfer, tag },
                    Op::Send(s) => Op::Send(s + send),
                    Op::Recv { from, msg: m } => Op::Recv { from, msg: m + msg },
                    other => other,
                }));
            }
        }
        out.starts.push(out.ops.len());
        out
    }

    /// `n` back-to-back copies of this form, the way a schedule builder
    /// chains steady-state blocks (`n = 0` is the empty form).
    pub(crate) fn repeat(&self, n: usize) -> Lowered {
        if n == 0 {
            return Lowered {
                starts: vec![0; self.starts.len()],
                ops: Vec::new(),
                xfers: Vec::new(),
                streams: Vec::new(),
                sends: Vec::new(),
                msg_ids: Vec::new(),
                span: (0, 0),
                distinct_syncs: 0,
                classes: self.classes.clone(),
                class_of: self.class_of.clone(),
            };
        }
        Lowered::concat(std::iter::repeat_n(self, n))
    }

    /// Whether this form was priced for `machine`'s chips: same chip
    /// count, and every chip with the kernel cost model and DMA engines
    /// the form was lowered with. Only then may it run there.
    #[must_use]
    pub fn priced_for(&self, machine: &crate::Machine) -> bool {
        self.class_of.len() == machine.len() && self.mispriced_chip(machine).is_none()
    }

    /// The first chip of `machine` (of those the form spans) that prices
    /// kernels or DMA differently from the form.
    pub(crate) fn mispriced_chip(&self, machine: &crate::Machine) -> Option<usize> {
        self.class_of
            .iter()
            .zip(machine.chips())
            .position(|(&c, chip)| self.classes[c] != Pricing::of(chip))
    }

    /// Number of chips the form spans.
    #[must_use]
    pub fn n_chips(&self) -> usize {
        self.starts.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    fn machine(n: usize) -> Machine {
        Machine::homogeneous(ChipSpec::siracusa(), n)
    }

    #[test]
    fn ops_are_small() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn compact_ids_index_the_table_directly() {
        let programs = [
            Program::from_instrs([Instr::send(1, 40, 8), Instr::recv(1, 7), Instr::Sync(3)]),
            Program::from_instrs([Instr::recv(0, 40), Instr::send(0, 7, 8), Instr::Sync(3)]),
        ];
        let lowered = machine(2).lower(&programs).unwrap();
        assert_eq!(lowered.msg_ids, (0..41).map(MsgId).collect::<Vec<_>>());
        assert_eq!(lowered.ops[0], Op::Send(0));
        assert_eq!(lowered.ops[4], Op::Send(1));
        assert_eq!(
            lowered.sends,
            [SendOp { bytes: 8, to: 1, msg: 40 }, SendOp { bytes: 8, to: 0, msg: 7 }]
        );
        assert_eq!(lowered.distinct_syncs, 1);
        assert_eq!(lowered.span, crate::id_span(&programs));
    }

    #[test]
    fn sparse_ids_renumber_by_rank() {
        let programs = [
            Program::from_instrs([Instr::send(1, u64::MAX - 1, 8), Instr::send(1, 1 << 40, 8)]),
            Program::from_instrs([Instr::recv(0, 1 << 40), Instr::recv(0, u64::MAX - 1)]),
        ];
        let lowered = machine(2).lower(&programs).unwrap();
        assert_eq!(lowered.msg_ids, [MsgId(1 << 40), MsgId(u64::MAX - 1)]);
        assert_eq!(lowered.sends[0], SendOp { bytes: 8, to: 1, msg: 1 });
    }

    #[test]
    fn kernels_are_priced_per_cost_class() {
        let fast = ChipSpec::siracusa();
        let mut slow = fast;
        slow.cost_model = ClusterCostModel::new(mtp_kernels::CostParams {
            cores: 2,
            ..mtp_kernels::CostParams::siracusa()
        });
        let kernel = Kernel::gemv(256, 256);
        let programs = vec![Program::from_instrs([Instr::compute(kernel)]); 2];
        let lowered = Machine::new(vec![fast, slow]).lower(&programs).unwrap();
        assert_eq!(
            lowered.ops,
            [
                Op::Compute { cycles: fast.kernel_cycles(&kernel) },
                Op::Compute { cycles: slow.kernel_cycles(&kernel) },
            ]
        );
        assert!(lowered.priced_for(&Machine::new(vec![fast, slow])));
        assert!(!lowered.priced_for(&Machine::homogeneous(fast, 2)));
        let mut wide = slow;
        wide.link.bytes_per_cycle *= 4.0;
        assert!(lowered.priced_for(&Machine::new(vec![fast, wide])), "links are priced per run");
    }

    /// One op with its side-table entries resolved: what the executor
    /// reads, whichever table layout the form uses.
    #[derive(Debug, PartialEq)]
    enum Resolved {
        Op(Op),
        Xfer(Xfer, Option<DmaTag>),
        Stream(StreamOp),
        Send(u64, usize, MsgId),
        Recv(usize, MsgId),
    }

    fn resolved(l: &Lowered) -> Vec<Vec<Resolved>> {
        (0..l.n_chips())
            .map(|c| {
                l.ops[l.starts[c]..l.starts[c + 1]]
                    .iter()
                    .map(|&op| match op {
                        Op::Dma(x) => Resolved::Xfer(l.xfers[x as usize], None),
                        Op::DmaAsync { xfer, tag } => {
                            Resolved::Xfer(l.xfers[xfer as usize], Some(tag))
                        }
                        Op::Stream(s) => Resolved::Stream(l.streams[s as usize]),
                        Op::Send(s) => {
                            let SendOp { bytes, to, msg } = l.sends[s as usize];
                            Resolved::Send(bytes, to, l.msg_ids[msg as usize])
                        }
                        Op::Recv { from, msg } => Resolved::Recv(from, l.msg_ids[msg as usize]),
                        other => Resolved::Op(other),
                    })
                    .collect()
            })
            .collect()
    }

    /// `concat` of `parts` behaves exactly like lowering their programs
    /// appended with [`Program::extend_shifted`].
    fn assert_concat_matches_direct(m: &Machine, parts: &[&[Program]]) {
        let mut shifted = vec![Program::new(); m.len()];
        for part in parts {
            let (dm, ds) = crate::id_span(&shifted);
            for (out, body) in shifted.iter_mut().zip(*part) {
                out.extend_shifted(body, dm, ds);
            }
        }
        let direct = m.lower(&shifted).unwrap();
        let lowered: Vec<Lowered> = parts.iter().map(|p| m.lower(p).unwrap()).collect();
        let concat = Lowered::concat(&lowered);
        assert_eq!(resolved(&concat), resolved(&direct));
        assert_eq!(concat.msg_ids, direct.msg_ids);
        assert_eq!((concat.span, concat.distinct_syncs), (direct.span, direct.distinct_syncs));
    }

    #[test]
    fn concat_shifts_like_extend_shifted() {
        let slot = vec![
            Program::from_instrs([
                Instr::compute(Kernel::gemv(64, 64)),
                Instr::send(1, 2, 64),
                Instr::Sync(1),
            ]),
            Program::from_instrs([
                Instr::recv(0, 2),
                Instr::DmaStream { path: MemPath::L3ToL2, bytes: 9000, tile: 4096 },
                Instr::Sync(1),
            ]),
        ];
        let other = vec![
            Program::from_instrs([
                Instr::Dma { path: MemPath::L2ToL1, bytes: 512 },
                Instr::DmaAsync { path: MemPath::L3ToL2, bytes: 4096, tag: DmaTag(3) },
                Instr::recv(1, 0),
                Instr::DmaWait(DmaTag(3)),
            ]),
            Program::from_instrs([
                Instr::Dma { path: MemPath::L3ToL2, bytes: 512 },
                Instr::send(0, 0, 32),
                Instr::Sync(4),
            ]),
        ];
        let m = machine(2);
        assert_concat_matches_direct(&m, &[&slot, &slot]);
        assert_concat_matches_direct(&m, &[&slot, &other, &slot]);
        assert_concat_matches_direct(&m, &[&other, &other, &slot, &other]);
        let lowered = m.lower(&slot).unwrap();
        let twice = Lowered::concat([&lowered, &lowered]);
        assert_eq!(lowered.repeat(2), twice);
        assert_eq!(twice.xfers, lowered.xfers, "a repeated part shares its priced tables");
        assert_eq!(twice.streams, lowered.streams);
        let many = lowered.repeat(20);
        assert_eq!((many.xfers.len(), many.streams.len()), (lowered.xfers.len(), 1));
        assert_eq!(lowered.repeat(1), lowered);
        let empty = lowered.repeat(0);
        assert!(empty.ops.is_empty());
        assert_eq!(empty.n_chips(), 2);
        assert_eq!(empty, m.lower(&[Program::new(), Program::new()]).unwrap());
    }
}
