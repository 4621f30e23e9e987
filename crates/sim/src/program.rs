//! Per-chip instruction programs consumed by the simulator.

use crate::MemPath;
use mtp_kernels::Kernel;

/// Identifier of one chip in the multi-chip system (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChipId(pub usize);

impl std::fmt::Display for ChipId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chip{}", self.0)
    }
}

/// Globally-unique identifier of one chip-to-chip message.
///
/// The schedule builder assigns these; a [`Instr::Recv`] matches the
/// [`Instr::Send`] carrying the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

/// Identifier of an in-flight asynchronous DMA transfer within one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmaTag(pub u32);

/// One instruction of a per-chip program.
///
/// Programs are straight-line: control flow (layer loops, head loops) is
/// unrolled by the schedule builder in `mtp-core`, exactly as a deployment
/// compiler like Deeploy emits a static schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Run a kernel on the compute cluster (blocking).
    Compute(Kernel),
    /// A blocking DMA transfer of `bytes` along `path`.
    Dma {
        /// Transfer path (determines which DMA engine and byte counter).
        path: MemPath,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A blocking transfer of `bytes` along `path` as `⌈bytes / tile⌉`
    /// back-to-back tiles of `tile` bytes (the last one holds the
    /// remainder), each paying the engine's setup cost — the synchronous
    /// weight streaming of the streamed regime.
    ///
    /// One instruction behaves exactly like the run of per-tile
    /// [`Instr::Dma`]s it stands for: the same timing, counters, fault
    /// boundaries (between tiles) and one trace event per tile. A
    /// zero-byte stream has no tiles and is a no-op; a `tile` of 0 is read
    /// as 1. Build it with [`Program::push_stream`].
    DmaStream {
        /// Transfer path (determines which DMA engine and byte counter).
        path: MemPath,
        /// Total payload in bytes.
        bytes: u64,
        /// Bytes per tile.
        tile: u64,
    },
    /// Start an asynchronous DMA transfer; completion is awaited by
    /// [`Instr::DmaWait`] with the same tag. Used for double-buffered
    /// weight prefetch.
    DmaAsync {
        /// Transfer path.
        path: MemPath,
        /// Payload size in bytes.
        bytes: u64,
        /// Tag to wait on.
        tag: DmaTag,
    },
    /// Block until the async transfer `tag` has completed.
    DmaWait(DmaTag),
    /// Send `bytes` to chip `to` as message `msg` (occupies this chip's TX
    /// port and the receiver's RX port; the sender blocks until the message
    /// is on the wire).
    Send {
        /// Destination chip.
        to: ChipId,
        /// Message identifier.
        msg: MsgId,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Block until message `msg` from chip `from` has fully arrived.
    Recv {
        /// Source chip.
        from: ChipId,
        /// Message identifier.
        msg: MsgId,
    },
    /// Marks entry into collective synchronization phase `id`.
    ///
    /// Purely an annotation: the executor counts distinct ids so tests can
    /// assert the paper's "only two synchronizations per Transformer block"
    /// invariant.
    Sync(u32),
}

impl Instr {
    /// Convenience constructor for [`Instr::Compute`].
    #[must_use]
    pub const fn compute(kernel: Kernel) -> Self {
        Instr::Compute(kernel)
    }

    /// Convenience constructor for [`Instr::Send`].
    #[must_use]
    pub const fn send(to: usize, msg: u64, bytes: u64) -> Self {
        Instr::Send { to: ChipId(to), msg: MsgId(msg), bytes }
    }

    /// Convenience constructor for [`Instr::Recv`].
    #[must_use]
    pub const fn recv(from: usize, msg: u64) -> Self {
        Instr::Recv { from: ChipId(from), msg: MsgId(msg) }
    }
}

/// The id span of a per-chip template: one past the largest message id
/// and one past the largest sync id any of its programs uses (`0` for a
/// kind it never uses). Shifting each further copy of the template by
/// the span keeps every copy's ids disjoint from the earlier ones.
#[must_use]
pub fn id_span(template: &[Program]) -> (u64, u32) {
    let (mut msg, mut sync) = (0u64, 0u32);
    for i in template.iter().flat_map(Program::instrs) {
        match *i {
            Instr::Send { msg: id, .. } | Instr::Recv { msg: id, .. } => msg = msg.max(id.0 + 1),
            Instr::Sync(id) => sync = sync.max(id + 1),
            _ => {}
        }
    }
    (msg, sync)
}

/// A straight-line instruction sequence for one chip.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// An empty program.
    #[must_use]
    pub fn new() -> Self {
        Program::default()
    }

    /// Builds a program from an instruction sequence.
    #[must_use]
    pub fn from_instrs(instrs: impl IntoIterator<Item = Instr>) -> Self {
        Program { instrs: instrs.into_iter().collect() }
    }

    /// Appends one instruction.
    pub fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    /// Pre-reserves room for `additional` further instructions (schedule
    /// builders know the total up front when instantiating templates).
    pub fn reserve(&mut self, additional: usize) {
        self.instrs.reserve(additional);
    }

    /// Appends a blocking [`Instr::DmaStream`] of `bytes` along `path` in
    /// `tile`-byte tiles (`tile` clamped to at least 1). A zero-byte
    /// stream has no tiles and appends nothing.
    pub fn push_stream(&mut self, path: MemPath, bytes: u64, tile: u64) {
        if bytes > 0 {
            self.instrs.push(Instr::DmaStream { path, bytes, tile: tile.max(1) });
        }
    }

    /// Appends `body` with every message id moved up by `msg` and every
    /// sync id by `sync`; other instructions are copied unchanged. One
    /// id-disjoint instantiation of a template.
    pub fn extend_shifted(&mut self, body: &Program, msg: u64, sync: u32) {
        self.instrs.extend(body.instrs.iter().map(|&instr| match instr {
            Instr::Send { to, msg: id, bytes } => Instr::Send { to, msg: MsgId(id.0 + msg), bytes },
            Instr::Recv { from, msg: id } => Instr::Recv { from, msg: MsgId(id.0 + msg) },
            Instr::Sync(id) => Instr::Sync(id + sync),
            other => other,
        }));
    }

    /// The instructions in program order.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Total bytes this program sends over the chip-to-chip link.
    #[must_use]
    pub fn sent_bytes(&self) -> u64 {
        self.instrs.iter().map(|i| if let Instr::Send { bytes, .. } = i { *bytes } else { 0 }).sum()
    }

    /// Number of distinct [`Instr::Sync`] phase ids in this program.
    #[must_use]
    pub fn sync_phase_count(&self) -> usize {
        let mut ids: Vec<u32> = self
            .instrs
            .iter()
            .filter_map(|i| if let Instr::Sync(id) = i { Some(*id) } else { None })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

impl Extend<Instr> for Program {
    fn extend<T: IntoIterator<Item = Instr>>(&mut self, iter: T) {
        self.instrs.extend(iter);
    }
}

impl FromIterator<Instr> for Program {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        Program::from_instrs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sent_bytes_sums_sends_only() {
        let p = Program::from_instrs([
            Instr::send(1, 0, 100),
            Instr::Dma { path: MemPath::L3ToL2, bytes: 999 },
            Instr::send(2, 1, 50),
        ]);
        assert_eq!(p.sent_bytes(), 150);
    }

    #[test]
    fn sync_phases_deduplicate() {
        let p = Program::from_instrs([Instr::Sync(1), Instr::Sync(1), Instr::Sync(2)]);
        assert_eq!(p.sync_phase_count(), 2);
    }

    #[test]
    fn collect_from_iterator() {
        let p: Program = [Instr::Sync(0)].into_iter().collect();
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn id_span_and_shifted_copies_are_disjoint() {
        let body = Program::from_instrs([
            Instr::Sync(2),
            Instr::send(1, 4, 64),
            Instr::recv(1, 7),
            Instr::Dma { path: MemPath::L3ToL2, bytes: 8 },
        ]);
        let template = [body.clone(), Program::from_instrs([Instr::Sync(0)])];
        assert_eq!(id_span(&template), (8, 3));
        assert_eq!(id_span(&[Program::new()]), (0, 0));
        let mut out = body.clone();
        out.extend_shifted(&body, 8, 3);
        assert_eq!(
            &out.instrs()[4..],
            &[
                Instr::Sync(5),
                Instr::send(1, 12, 64),
                Instr::recv(1, 15),
                Instr::Dma { path: MemPath::L3ToL2, bytes: 8 },
            ]
        );
    }

    #[test]
    fn push_stream_skips_empty_streams_and_clamps_the_tile() {
        let mut p = Program::new();
        p.push_stream(MemPath::L3ToL2, 0, 4096);
        assert!(p.is_empty(), "a zero-byte stream has no tiles");
        p.push_stream(MemPath::L3ToL2, 10, 0);
        assert_eq!(p.instrs(), &[Instr::DmaStream { path: MemPath::L3ToL2, bytes: 10, tile: 1 }]);
    }

    #[test]
    fn chip_id_display() {
        assert_eq!(ChipId(3).to_string(), "chip3");
    }
}
