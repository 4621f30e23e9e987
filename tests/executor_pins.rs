//! Pins of the event-driven executor's exact output over a corpus that
//! reaches every executor path:
//!
//! 1. **Transformer blocks** — the 8-chip TinyLlama autoregressive and
//!    prompt blocks under the affine, drop-tail (with credit parks) and
//!    lossy link regimes.
//! 2. **Heterogeneous machines** — two cost classes with different
//!    kernel and DMA pricing on one machine.
//! 3. **Faults** — stall, slowdown, link-flap and fail-stop events that
//!    land inside a `DmaStream`.
//! 4. **Edge programs** — async DMA still in flight at program end, and
//!    hand-written message ids far above any dense range.
//! 5. **Typed errors** — each error variant with its exact payload,
//!    including which of two errors a run reports first.
//! 6. **A lossy mixed serving pass** — continuous batching on a `lossy:5`
//!    fleet, whose drop pattern depends on the interleaved message ids.
//! 7. **Periodic runs** — `run_periodic` depths that stop exact inside
//!    the warmup, extrapolate, or fall back to the full run.
//!
//! Each pin is an FNV-1a 64 digest of the full [`RunStats`] (makespan,
//! sync phases and every `ChipStats` field of every chip) and of the
//! `run_traced` event list. An intentional change to executor timing
//! must recompute the constants and say so.

use mtp::core::schedule::Scheduler;
use mtp::core::{BatchPolicy, Billing, DistributedSystem, ServeReport, SlotPhase};
use mtp::kernels::{ClusterCostModel, CostParams, Kernel};
use mtp::model::{InferenceMode, ServeRequest, ServeWorkload, TransformerConfig};
use mtp::sim::{
    ChipId, ChipSpec, DmaSpec, DmaTag, FaultPlan, Instr, LinkRegime, Machine, MemPath, MsgId,
    Program, RunStats, SimError, Trace,
};

/// FNV-1a 64 state fed with little-endian words and byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Digest of every counter a run reports.
fn stats_digest(stats: &RunStats) -> u64 {
    let mut h = Fnv::new();
    h.word(stats.makespan);
    h.word(stats.sync_phases as u64);
    for c in &stats.per_chip {
        for w in [
            c.compute_cycles,
            c.dma_l3_l2_exposed_cycles,
            c.dma_l2_l1_exposed_cycles,
            c.c2c_exposed_cycles,
            c.dma_l3_l2_bytes,
            c.dma_l2_l1_bytes,
            c.c2c_bytes_sent,
            c.sync_marks,
            c.finish_cycles,
            c.c2c_queue_cycles,
            c.c2c_peak_queue_bytes,
            c.c2c_drops,
            c.c2c_retransmits,
            c.c2c_gave_up,
            c.fault_stall_cycles,
            c.fault_slow_cycles,
            c.fault_link_cycles,
            c.fault_transfers_affected,
            c.fault_downtime_cycles,
        ] {
            h.word(w);
        }
    }
    h.0
}

/// Digest of every traced event: chip, interval and labelled kind.
fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    for e in trace.events() {
        h.bytes(format!("{} {} {} {:?}\n", e.chip, e.start, e.end, e.kind).as_bytes());
    }
    h.0
}

/// Runs `programs` traced and untraced, checks they agree, and returns
/// `(stats digest, trace digest, stats)`.
fn pin(machine: &Machine, programs: &[Program]) -> (u64, u64, RunStats) {
    let (stats, trace) = machine.run_traced(programs).expect("run_traced");
    assert_eq!(machine.run(programs).expect("run"), stats, "tracing must not change timing");
    (stats_digest(&stats), trace_digest(&trace), stats)
}

fn chip_with(regime: &str) -> ChipSpec {
    ChipSpec { link_regime: LinkRegime::parse(regime).unwrap(), ..ChipSpec::siracusa() }
}

fn tinyllama_block(chip: &ChipSpec, mode: InferenceMode) -> Vec<Program> {
    let cfg = TransformerConfig::tiny_llama_42m();
    Scheduler::new(&cfg, 8, chip).unwrap().block_programs(mode)
}

/// `(mode, regime, stats digest, trace digest)`.
const BLOCK_PINS: [(InferenceMode, &str, u64, u64); 6] = [
    (
        InferenceMode::Autoregressive,
        "affine",
        13_254_485_671_112_620_537,
        13_789_075_720_533_556_527,
    ),
    (
        InferenceMode::Autoregressive,
        "queued",
        4_797_942_084_604_373_865,
        13_789_075_720_533_556_527,
    ),
    (
        InferenceMode::Autoregressive,
        "lossy:5",
        13_254_485_671_112_620_537,
        13_789_075_720_533_556_527,
    ),
    (InferenceMode::Prompt, "affine", 9_489_778_221_166_535_378, 11_848_328_496_721_814_677),
    (InferenceMode::Prompt, "queued", 7_452_939_099_293_354_062, 11_848_328_496_721_814_677),
    (InferenceMode::Prompt, "lossy:5", 17_140_321_076_557_366_980, 908_858_786_965_452_488),
];

#[test]
fn tinyllama_blocks_are_pinned_under_every_regime() {
    for (mode, regime, stats_pin, trace_pin) in BLOCK_PINS {
        let chip = chip_with(regime);
        let (stats, trace, run) =
            pin(&Machine::homogeneous(chip, 8), &tinyllama_block(&chip, mode));
        if regime.starts_with("lossy") && mode == InferenceMode::Prompt {
            assert!(run.total_drops() > 0, "{mode} {regime}: the link must drop packets");
        }
        assert_eq!((stats, trace), (stats_pin, trace_pin), "{mode} {regime}");
    }
}

#[test]
fn tinyllama_blocks_starve_a_small_drop_tail_buffer() {
    // The all-reduce receives in a fixed order, so a sender parked on
    // credit behind another flow wedges the block: credit starvation is
    // reported as a deadlock of every chip.
    let all: Vec<ChipId> = (0..8).map(ChipId).collect();
    for mode in [InferenceMode::Autoregressive, InferenceMode::Prompt] {
        let chip = chip_with("droptail:1000:700");
        assert_eq!(
            Machine::homogeneous(chip, 8).run(&tinyllama_block(&chip, mode)),
            Err(SimError::Deadlock { blocked: all.clone() }),
            "{mode}"
        );
    }
}

/// Three senders into one receiver that drains slowly: the canonical
/// contended ingress the queued regimes act on.
fn contended_fan_in() -> Vec<Program> {
    let p0 = Program::from_instrs([
        Instr::compute(Kernel::gemm(64, 512, 512)),
        Instr::recv(1, 1),
        Instr::compute(Kernel::Add { n: 1024 }),
        Instr::recv(2, 2),
        Instr::recv(3, 3),
        Instr::compute(Kernel::Add { n: 4096 }),
        Instr::recv(3, 4),
    ]);
    let p1 = Program::from_instrs([Instr::send(0, 1, 10_000)]);
    let p2 = Program::from_instrs([Instr::send(0, 2, 10_000)]);
    let p3 = Program::from_instrs([
        Instr::compute(Kernel::Add { n: 64 }),
        Instr::send(0, 3, 5_000),
        Instr::send(0, 4, 7_000),
    ]);
    vec![p0, p1, p2, p3]
}

/// `(regime, stats digest, trace digest)`.
const CREDIT_PINS: [(&str, u64, u64); 2] = [
    ("queued:12000", 6_223_701_879_836_818_635, 5_608_130_686_533_811_737),
    ("droptail:12000:700", 401_212_918_517_011_540, 15_937_385_932_813_005_429),
];

#[test]
fn credit_parks_are_pinned() {
    for (regime, stats_pin, trace_pin) in CREDIT_PINS {
        let (stats, trace, run) =
            pin(&Machine::homogeneous(chip_with(regime), 4), &contended_fan_in());
        assert!(run.total_queueing_cycles() > 0, "{regime}: senders must queue");
        if regime.starts_with("droptail") {
            assert!(run.total_drops() > 0, "{regime}: parked attempts are drops");
        }
        assert_eq!((stats, trace), (stats_pin, trace_pin), "{regime}");
    }
}

const HETERO_PINS: (u64, u64) = (4_179_401_387_165_739_230, 1_303_202_661_302_049_001);

#[test]
fn heterogeneous_cost_classes_are_pinned() {
    let fast = ChipSpec::siracusa();
    let slow = ChipSpec {
        cost_model: ClusterCostModel::new(CostParams { cores: 4, ..CostParams::siracusa() }),
        io_dma: DmaSpec::new(1.5, 6000),
        cluster_dma: DmaSpec::new(8.0, 80),
        ..fast
    };
    let chips: Vec<ChipSpec> = (0..8).map(|i| if i % 2 == 0 { fast } else { slow }).collect();
    let machine = Machine::new(chips);
    let programs = tinyllama_block(&fast, InferenceMode::Autoregressive);
    let (stats, trace, run) = pin(&machine, &programs);
    let homogeneous = Machine::homogeneous(fast, 8).run(&programs).unwrap();
    assert!(run.makespan > homogeneous.makespan, "the slow class must cost time");
    assert_eq!((stats, trace), HETERO_PINS);
}

/// Two chips: chip 0 streams ten 4 KiB tiles, computes and sends; chip 1
/// computes, receives and computes again.
fn streaming_pair() -> Vec<Program> {
    let mut p0 = Program::new();
    p0.push(Instr::compute(Kernel::gemv(256, 256)));
    p0.push_stream(MemPath::L3ToL2, 10 * 4096 + 123, 4096);
    p0.push(Instr::compute(Kernel::gemm(8, 256, 256)));
    p0.push(Instr::send(1, 0, 1 << 14));
    p0.push(Instr::Sync(0));
    let p1 = Program::from_instrs([
        Instr::compute(Kernel::gemv(512, 256)),
        Instr::recv(0, 0),
        Instr::compute(Kernel::Add { n: 4096 }),
        Instr::Sync(0),
    ]);
    vec![p0, p1]
}

/// The cycle at which chip 0's stream starts its fourth tile, fault-free.
fn fourth_tile_start() -> u64 {
    let spec = ChipSpec::siracusa();
    spec.kernel_cycles(&Kernel::gemv(256, 256)) + 3 * spec.io_dma.transfer_cycles(4096)
}

const FAULT_PINS: (u64, u64) = (11_698_822_813_142_321_072, 16_988_956_269_103_139_775);

#[test]
fn faults_inside_a_stream_are_pinned() {
    let mid = fourth_tile_start() - 10;
    let plan = format!(
        "stall:0:{mid}:777+slow:0:0:100000:150+slow:1:0:1000000:300+flap:0:0:10000000:250\
         +failstop:1:10000000000"
    );
    let machine =
        Machine::homogeneous(ChipSpec::siracusa(), 2).with_faults(FaultPlan::parse(&plan).unwrap());
    let (stats, trace, run) = pin(&machine, &streaming_pair());
    assert_eq!(run.per_chip[0].fault_stall_cycles, 777);
    assert!(run.per_chip[0].fault_link_cycles > 0);
    assert!(run.per_chip[1].fault_slow_cycles > 0);
    assert_eq!((stats, trace), FAULT_PINS);
}

#[test]
fn fail_stop_inside_a_stream_is_pinned() {
    let at = fourth_tile_start() + 5;
    let machine = Machine::homogeneous(ChipSpec::siracusa(), 2)
        .with_faults(FaultPlan::parse(&format!("stall:0:100:50+failstop:0:{at}")).unwrap());
    assert_eq!(machine.run(&streaming_pair()), Err(SimError::ChipFailed { chip: ChipId(0), at }));
}

const IN_FLIGHT_PINS: (u64, u64) = (3_159_640_129_538_343_605, 5_447_581_102_989_054_577);

#[test]
fn in_flight_async_dma_at_program_end_is_pinned() {
    let p0 = Program::from_instrs([
        Instr::DmaAsync { path: MemPath::L3ToL2, bytes: 1 << 20, tag: DmaTag(3) },
        Instr::DmaAsync { path: MemPath::L2ToL1, bytes: 1 << 15, tag: DmaTag(1) },
        Instr::compute(Kernel::gemv(256, 256)),
        Instr::DmaAsync { path: MemPath::L1ToL2, bytes: 1 << 12, tag: DmaTag(2) },
        Instr::DmaWait(DmaTag(1)),
        Instr::send(1, 5, 2048),
    ]);
    let p1 = Program::from_instrs([
        Instr::DmaAsync { path: MemPath::L2ToL3, bytes: 1 << 18, tag: DmaTag(0) },
        Instr::recv(0, 5),
    ]);
    let (stats, trace, _) = pin(&Machine::homogeneous(ChipSpec::siracusa(), 2), &[p0, p1]);
    assert_eq!((stats, trace), IN_FLIGHT_PINS);
}

/// A three-chip ring whose message ids lie far above any dense range.
fn sparse_id_ring() -> Vec<Program> {
    let ids = [1u64 << 40, u64::MAX - 1, 1_000_000_000_007];
    (0..3)
        .map(|i| {
            let prev = (i + 2) % 3;
            Program::from_instrs([
                Instr::compute(Kernel::gemv(128, 128 + 64 * i)),
                Instr::Send { to: ChipId((i + 1) % 3), msg: MsgId(ids[i]), bytes: 8192 },
                Instr::Recv { from: ChipId(prev), msg: MsgId(ids[prev]) },
                Instr::Sync(7),
                Instr::Send { to: ChipId((i + 1) % 3), msg: MsgId(ids[i] - 3), bytes: 600 },
                Instr::Recv { from: ChipId(prev), msg: MsgId(ids[prev] - 3) },
                Instr::Sync(u32::MAX),
            ])
        })
        .collect()
}

const SPARSE_ID_PINS: [(&str, u64, u64); 2] = [
    ("affine", 16_672_591_396_672_390_807, 10_214_111_203_555_951_147),
    ("lossy:50", 8_916_869_594_377_414_565, 12_969_772_334_222_191_622),
];

#[test]
fn sparse_message_ids_are_pinned() {
    for (regime, stats_pin, trace_pin) in SPARSE_ID_PINS {
        let (stats, trace, run) =
            pin(&Machine::homogeneous(chip_with(regime), 3), &sparse_id_ring());
        assert_eq!(run.sync_phases, 2);
        assert_eq!((stats, trace), (stats_pin, trace_pin), "{regime}");
    }
}

#[test]
fn typed_errors_keep_their_payloads() {
    let m = |n| Machine::homogeneous(ChipSpec::siracusa(), n);
    let work = Instr::compute(Kernel::gemv(256, 256));
    // Deadlock: chips 0 and 2 wait on messages nobody sends.
    let deadlock = [
        Program::from_instrs([work, Instr::recv(1, 40)]),
        Program::from_instrs([Instr::send(2, 41, 64)]),
        Program::from_instrs([Instr::recv(1, 41), Instr::recv(0, 42)]),
    ];
    assert_eq!(
        m(3).run(&deadlock),
        Err(SimError::Deadlock { blocked: vec![ChipId(0), ChipId(2)] })
    );
    // Duplicate message id, far above the dense range.
    let big = u64::MAX - 9;
    let dup = [
        Program::from_instrs([Instr::send(1, big, 8), work, Instr::send(1, big, 8)]),
        Program::from_instrs([Instr::recv(0, big)]),
    ];
    assert_eq!(m(2).run(&dup), Err(SimError::DuplicateMessage { msg: MsgId(big) }));
    // Sender mismatch.
    let mismatch = [
        Program::from_instrs([Instr::send(2, 5, 8)]),
        Program::new(),
        Program::from_instrs([Instr::recv(1, 5)]),
    ];
    assert_eq!(
        m(3).run(&mismatch),
        Err(SimError::SenderMismatch { msg: MsgId(5), expected: ChipId(1), actual: ChipId(0) })
    );
    // Unknown DMA tag.
    let tag = [Program::from_instrs([work, Instr::DmaWait(DmaTag(9))])];
    assert_eq!(m(1).run(&tag), Err(SimError::UnknownDmaTag { chip: ChipId(0), tag: DmaTag(9) }));
    // Send to a chip outside the machine.
    let invalid = [Program::from_instrs([work, Instr::send(9, 5, 8)]), Program::new()];
    assert_eq!(m(2).run(&invalid), Err(SimError::InvalidChip { chip: ChipId(9), chips: 2 }));
    // Fail-stop before the second kernel issues.
    let failed = Machine::homogeneous(ChipSpec::siracusa(), 1)
        .with_faults(FaultPlan::parse("failstop:0:1").unwrap());
    assert_eq!(
        failed.run(&[Program::from_instrs([work, work])]),
        Err(SimError::ChipFailed { chip: ChipId(0), at: 1 })
    );
    // Two malformed chips: the error that executes first is reported.
    let first = [
        Program::from_instrs([work, work, Instr::send(7, 1, 8)]),
        Program::from_instrs([work, Instr::DmaWait(DmaTag(4))]),
    ];
    assert_eq!(m(2).run(&first), Err(SimError::UnknownDmaTag { chip: ChipId(1), tag: DmaTag(4) }));
    // Chip-local instructions run back to back, so chip 1 reaches its
    // bad wait before chip 0's earlier send gets its turn.
    let local = [
        Program::from_instrs([work, Instr::send(7, 1, 8)]),
        Program::from_instrs([work, work, Instr::DmaWait(DmaTag(4))]),
    ];
    assert_eq!(m(2).run(&local), Err(SimError::UnknownDmaTag { chip: ChipId(1), tag: DmaTag(4) }));
    let send_first = [
        Program::from_instrs([Instr::send(7, 1, 8)]),
        Program::from_instrs([work, Instr::DmaWait(DmaTag(4))]),
    ];
    assert_eq!(m(2).run(&send_first), Err(SimError::InvalidChip { chip: ChipId(7), chips: 2 }));
}

/// Digest of a serving report: every pass and every request record.
fn serve_digest(report: &ServeReport) -> u64 {
    let mut h = Fnv::new();
    h.word(report.makespan);
    for p in &report.passes {
        h.word(p.start);
        h.word(p.cycles);
        for &(req, phase) in &p.slots {
            h.word(req as u64);
            h.word(u64::from(phase == SlotPhase::Decode));
        }
    }
    for r in &report.requests {
        for w in [r.arrival, r.admitted, r.first_token, r.finish] {
            h.word(w);
        }
    }
    h.0
}

const LOSSY_SERVE_PIN: u64 = 12_373_241_208_171_968_981;

#[test]
fn lossy_mixed_serving_pass_is_pinned() {
    let cfg = TransformerConfig::tiny_llama_42m();
    let sys = DistributedSystem::with_chip(cfg, 4, chip_with("lossy:5")).unwrap();
    let requests = (0..6)
        .map(|i| ServeRequest {
            prompt_len: 8 + 4 * (i % 3),
            decode_len: 3 + i % 4,
            arrival_cycles: 150_000 * i as u64,
        })
        .collect();
    let workload = ServeWorkload::new(requests).unwrap();
    let report = sys
        .simulate_serve(&workload, BatchPolicy::Continuous { max_slots: 4 }, Billing::PerRequest)
        .unwrap();
    let mixed = report.passes.iter().any(|p| {
        p.slots.iter().any(|s| s.1 == SlotPhase::Prefill)
            && p.slots.iter().any(|s| s.1 == SlotPhase::Decode)
    });
    assert!(mixed, "the workload must mix prefill and decode slots in one pass");
    let affine = DistributedSystem::paper_default(TransformerConfig::tiny_llama_42m(), 4)
        .unwrap()
        .simulate_serve(&workload, BatchPolicy::Continuous { max_slots: 4 }, Billing::PerRequest)
        .unwrap();
    assert!(report.makespan > affine.makespan, "lossy links must cost time");
    assert_eq!(serve_digest(&report), LOSSY_SERVE_PIN);
}

/// `(mode, regime, blocks, stats digest)` of `run_periodic`.
const PERIODIC_PINS: [(InferenceMode, &str, usize, u64); 6] = [
    (InferenceMode::Autoregressive, "affine", 3, 17_146_509_842_332_955_867),
    (InferenceMode::Autoregressive, "affine", 96, 6_941_980_374_760_957_247),
    (InferenceMode::Autoregressive, "lossy:5", 8, 13_498_245_560_959_832_887),
    (InferenceMode::Prompt, "affine", 8, 6_726_431_784_340_936_746),
    (InferenceMode::Prompt, "queued", 40, 9_455_864_930_527_250_636),
    (InferenceMode::Prompt, "lossy:5", 8, 5_963_137_529_034_752_963),
];

#[test]
fn periodic_runs_are_pinned() {
    for (mode, regime, blocks, pin) in PERIODIC_PINS {
        let chip = chip_with(regime);
        let stats = Machine::homogeneous(chip, 8)
            .run_periodic(&tinyllama_block(&chip, mode), blocks)
            .unwrap();
        assert_eq!(stats_digest(&stats), pin, "{mode} {regime} {blocks}");
    }
}
