//! Exactness suite for the multi-request batching subsystem (see
//! DESIGN.md §10), in two halves:
//!
//! **Batch=1 lockstep** — a batch of one request must be *bit-identical*
//! to the pre-batching single-request path at every layer: schedule
//! programs (one block of [`Scheduler::model_programs`] vs
//! [`Scheduler::block_programs`]), simulation (`RunStats` equality of
//! [`DistributedSystem::simulate_batch`] vs `simulate_model` vs
//! [`CompiledSchedule::simulate`], batched sweep scenarios vs unbatched
//! ones) — across the default sweep grid, the deep presets, and all
//! three residency regimes.
//!
//! **Batch exactness and isolation** — uniform batches must equal full
//! event-driven simulation of the interleaved block-major program
//! stream (no periodicity shortcut may change a counter); heterogeneous
//! prompt batches, which run one interleaved block through the periodic
//! engine, must equal a full run of an independently mirrored
//! per-block interleaving;
//! and at the functional level, randomized batches must leave every
//! request's outputs bit-identical to running it alone (per-request
//! KV-cache isolation), whatever the batch composition, arrival
//! offsets, and interleaving.

use mtp::core::schedule::{CompiledSchedule, Scheduler};
use mtp::core::{DistributedSystem, SystemReport};
use mtp::harness::sweep::{Span, SweepEngine, SweepGrid};
use mtp::model::generate::generate_greedy;
use mtp::model::{
    generate_greedy_batch, BatchDecoder, BatchWorkload, Decoder, Embedding, InferenceMode,
    ModelWeights, RequestSpec, TransformerConfig,
};
use mtp::sim::{ChipSpec, Instr, LinkRegime, Machine, MsgId, Program, QueueDiscipline};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Batch=1 lockstep: the single-request path, bit for bit.
// ---------------------------------------------------------------------

/// Batch=1 equals the single-request path across every valid scenario of
/// the default sweep grid: identical schedule programs and identical
/// `RunStats` from the batched façade at full model depth.
#[test]
fn default_grid_batch1_lockstep() {
    let chip = ChipSpec::siracusa();
    for scenario in SweepGrid::paper_default().scenarios() {
        let cfg = &scenario.config;
        if Scheduler::new(cfg, scenario.n_chips, &chip).is_err() {
            continue; // invalid partition for this chip count
        }
        let schip = scenario.chip();
        // Schedule level: one block of one request slot is the block
        // programs.
        let mut batched = Scheduler::new(cfg, scenario.n_chips, &schip).unwrap();
        let mut single = Scheduler::new(cfg, scenario.n_chips, &schip).unwrap();
        assert_eq!(
            batched.model_programs(scenario.mode, 1).unwrap(),
            single.block_programs(scenario.mode),
            "{} x{}",
            cfg.name,
            scenario.n_chips
        );
        // System level: a uniform batch of one request over the model's
        // own context reports exactly what simulate_model reports.
        let sys = DistributedSystem::with_chip(cfg.clone(), scenario.n_chips, schip).unwrap();
        let workload = BatchWorkload::uniform(1, cfg.seq_len, 0);
        let batched = sys.simulate_batch(scenario.mode, &workload).unwrap();
        let single = sys.simulate_model(scenario.mode).unwrap();
        assert_eq!(batched.stats, single.stats, "{} x{}", cfg.name, scenario.n_chips);
        assert_eq!(batched.n_blocks, single.n_blocks);
        assert_eq!(batched.residency, single.residency);
    }
}

/// Batch=1 lockstep on the deep presets and across all three residency
/// regimes (streamed, double-buffered, resident).
#[test]
fn deep_presets_and_regimes_batch1_lockstep() {
    let chip = ChipSpec::siracusa();
    let ar = InferenceMode::Autoregressive;
    let pr = InferenceMode::Prompt;
    let cases = [
        // Streamed: one chip cannot hold a block.
        (TransformerConfig::tiny_llama_deep(96), 1, ar),
        // Double-buffered: eight chips prefetch slices.
        (TransformerConfig::tiny_llama_deep(96), 8, ar),
        (TransformerConfig::tiny_llama_deep(192), 8, ar),
        (TransformerConfig::mobile_bert_deep(96), 4, pr),
        // Resident: the scaled model's slices fit entirely on 64 chips.
        (TransformerConfig::tiny_llama_scaled_64h(), 64, ar),
    ];
    for (cfg, n_chips, mode) in cases {
        let sys = DistributedSystem::with_chip(cfg.clone(), n_chips, chip).unwrap();
        let workload = BatchWorkload::uniform(1, cfg.seq_len, 0);
        let batched = sys.simulate_batch(mode, &workload).unwrap();
        let single = sys.simulate_model(mode).unwrap();
        assert_eq!(batched.stats, single.stats, "{} x{n_chips} {mode}", cfg.name);
        assert_eq!(batched.residency, single.residency);
        // The sweep's evaluator, with its steady-state memo, agrees.
        let compiled = CompiledSchedule::compile(&cfg, n_chips, &chip, None, mode).unwrap();
        assert_eq!(
            compiled.simulate(&chip, cfg.n_layers).unwrap().stats,
            single.stats,
            "{} x{n_chips}",
            cfg.name
        );
    }
}

/// Batched sweep scenarios at batch=1 report byte-for-byte what the
/// pre-batching engine reports (the whole-engine form of the lockstep).
#[test]
fn engine_batch1_rows_equal_unbatched_rows() {
    let grid = SweepGrid::single(
        TransformerConfig::tiny_llama_42m(),
        InferenceMode::Autoregressive,
        vec![1, 2, 4, 8],
    )
    .with_span(Span::Model);
    let unbatched = SweepEngine::new().run(&grid);
    let explicit = SweepEngine::new().run(&grid.clone().with_batch_sizes(vec![1]));
    assert_eq!(unbatched.to_csv(), explicit.to_csv());
    assert_eq!(unbatched.to_json(), explicit.to_json());
}

// ---------------------------------------------------------------------
// Uniform batches: periodic fast path == full interleaved simulation.
// ---------------------------------------------------------------------

/// Uniform batches across sizes, chip counts, modes, and residency
/// regimes: a batch of B requests over n blocks is n x B blocks, and the
/// periodic engine on that count must equal full event-driven
/// simulation of the interleaved block-major stream.
#[test]
fn uniform_batches_equal_full_interleaved_simulation() {
    let chip = ChipSpec::siracusa();
    let ar = InferenceMode::Autoregressive;
    let pr = InferenceMode::Prompt;
    let cases = [
        (TransformerConfig::tiny_llama_42m(), 1usize, ar, 2usize, 4usize),
        (TransformerConfig::tiny_llama_42m(), 8, ar, 3, 3),
        (TransformerConfig::tiny_llama_42m().with_seq_len(16), 4, pr, 2, 5),
        (TransformerConfig::mobile_bert(), 4, pr, 2, 2),
        (TransformerConfig::tiny_llama_scaled_64h(), 64, ar, 2, 3),
    ];
    for (cfg, n_chips, mode, n_blocks, batch) in cases {
        let template = Scheduler::new(&cfg, n_chips, &chip).unwrap().block_programs(mode);
        let full_programs = Scheduler::new(&cfg, n_chips, &chip)
            .unwrap()
            .model_programs(mode, n_blocks * batch)
            .unwrap();
        let machine = Machine::homogeneous(chip, n_chips);
        let fast = machine.run_periodic(&template, n_blocks * batch).unwrap();
        let full = machine.run(&full_programs).unwrap();
        assert_eq!(fast, full, "{} x{n_chips} {mode} blocks={n_blocks} batch={batch}", cfg.name);
    }
}

/// The deep batched façade equals explicit full simulation of every
/// block instance (96 blocks x 4 requests, scheduled and run end to
/// end).
#[test]
fn deep_batched_system_matches_explicit_full_simulation() {
    let cfg = TransformerConfig::tiny_llama_deep(96);
    let chip = ChipSpec::siracusa();
    let sys = DistributedSystem::paper_default(cfg.clone(), 8).unwrap();
    let fast = sys
        .simulate_batch(InferenceMode::Autoregressive, &BatchWorkload::uniform(4, 128, 0))
        .unwrap();
    let programs = Scheduler::new(&cfg, 8, &chip)
        .unwrap()
        .model_programs(InferenceMode::Autoregressive, 96 * 4)
        .unwrap();
    let full = Machine::homogeneous(chip, 8).run(&programs).unwrap();
    assert_eq!(fast.stats, full);
    assert_eq!(fast.n_blocks, 96 * 4);
}

// ---------------------------------------------------------------------
// Heterogeneous batches: the fallback, mirrored independently.
// ---------------------------------------------------------------------

/// Mirrors the heterogeneous interleaving contract independently of the
/// implementation: per-request schedules (each prompt length its own
/// body), disjoint id spaces, block-major request interleaving.
fn mirror_mixed_batch(
    cfg: &TransformerConfig,
    n_chips: usize,
    chip: &ChipSpec,
    prompt_lens: &[usize],
) -> Vec<Program> {
    // Emit each request's full per-block body sequence from its own
    // scheduler, then compute each request's id-space size.
    let mut streams: Vec<Vec<Vec<Program>>> = Vec::new();
    let mut sizes: Vec<(u64, u32)> = Vec::new();
    for &p in prompt_lens {
        let rcfg = cfg.clone().with_seq_len(p);
        let mut s = Scheduler::new(&rcfg, n_chips, chip).unwrap();
        let blocks: Vec<Vec<Program>> =
            (0..cfg.n_layers).map(|_| s.block_programs(InferenceMode::Prompt)).collect();
        let (mut max_msg, mut max_sync) = (0u64, 0u32);
        for progs in &blocks {
            for prog in progs {
                for i in prog.instrs() {
                    match *i {
                        Instr::Send { msg, .. } | Instr::Recv { msg, .. } => {
                            max_msg = max_msg.max(msg.0 + 1);
                        }
                        Instr::Sync(id) => max_sync = max_sync.max(id + 1),
                        _ => {}
                    }
                }
            }
        }
        streams.push(blocks);
        sizes.push((max_msg, max_sync));
    }
    let mut out = vec![Program::new(); n_chips];
    for block in 0..cfg.n_layers {
        let (mut msg_base, mut sync_base) = (0u64, 0u32);
        for (stream, &(dm, ds)) in streams.iter().zip(&sizes) {
            for (o, body) in out.iter_mut().zip(&stream[block]) {
                o.extend(body.instrs().iter().map(|&instr| match instr {
                    Instr::Send { to, msg, bytes } => {
                        Instr::Send { to, msg: MsgId(msg.0 + msg_base), bytes }
                    }
                    Instr::Recv { from, msg } => Instr::Recv { from, msg: MsgId(msg.0 + msg_base) },
                    Instr::Sync(id) => Instr::Sync(id + sync_base),
                    other => other,
                }));
            }
            msg_base += dm;
            sync_base += ds;
        }
    }
    out
}

#[test]
fn mixed_prompt_batches_equal_mirrored_interleaving() {
    let chip = ChipSpec::siracusa();
    // A finite ingress buffer is not contention-free: the periodic
    // engine must fall back to the full run on the interleaved block.
    // It holds a whole reduce fan-in, so no sender parks (DESIGN.md §11).
    let queued = ChipSpec {
        link_regime: LinkRegime::Queued {
            buffer_bytes: 262_144,
            discipline: QueueDiscipline::Backpressure,
        },
        ..chip
    };
    let cases: [(TransformerConfig, usize, ChipSpec, Vec<usize>); 5] = [
        (TransformerConfig::tiny_llama_42m(), 1, chip, vec![8, 16]),
        (TransformerConfig::tiny_llama_42m(), 4, chip, vec![16, 8, 32]),
        (TransformerConfig::mobile_bert(), 4, chip, vec![64, 268]),
        (TransformerConfig::mobile_bert(), 2, chip, vec![128, 16, 200]),
        (TransformerConfig::tiny_llama_42m(), 8, queued, vec![16, 100, 40]),
    ];
    for (cfg, n_chips, chip, prompt_lens) in cases {
        let sys = DistributedSystem::with_chip(cfg.clone(), n_chips, chip).unwrap();
        let workload = BatchWorkload::new(
            prompt_lens
                .iter()
                .map(|&p| RequestSpec { prompt_len: p, decode_len: 0, arrival: 0 })
                .collect(),
        )
        .unwrap();
        let report = sys.simulate_batch(InferenceMode::Prompt, &workload).unwrap();
        let mirrored = mirror_mixed_batch(&cfg, n_chips, &chip, &prompt_lens);
        let full = Machine::homogeneous(chip, n_chips).run(&mirrored).unwrap();
        assert_eq!(
            report.stats,
            full,
            "{} x{n_chips} {} {prompt_lens:?}",
            cfg.name,
            chip.link_regime.label()
        );
        assert_eq!(report.n_blocks, cfg.n_layers * prompt_lens.len());
    }
}

/// A "mixed" batch whose prompt lengths all agree is uniform, and the
/// uniform fast path must agree with the mirrored full interleaving —
/// the two regimes meet exactly at that boundary.
#[test]
fn regime_boundary_uniform_equals_mirrored() {
    let chip = ChipSpec::siracusa();
    let cfg = TransformerConfig::tiny_llama_42m();
    let sys = DistributedSystem::paper_default(cfg.clone(), 4).unwrap();
    let workload = BatchWorkload::uniform(3, 16, 0);
    let report = sys.simulate_batch(InferenceMode::Prompt, &workload).unwrap();
    let mirrored = mirror_mixed_batch(&cfg, 4, &chip, &[16, 16, 16]);
    let full = Machine::homogeneous(chip, 4).run(&mirrored).unwrap();
    assert_eq!(report.stats, full);
}

// ---------------------------------------------------------------------
// Pins: block spans and batches, byte for byte, under every regime.
// ---------------------------------------------------------------------

/// FNV-1a 64 of a report's makespan, sync phases, every chip's timing,
/// traffic and link counters (these runs inject no faults), block
/// count, residency regime and energy total.
fn report_digest(report: &SystemReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let stats = &report.stats;
    word(stats.makespan);
    word(stats.sync_phases as u64);
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
        ] {
            word(w);
        }
    }
    word(report.n_blocks as u64);
    word(report.residency as u64);
    word(report.energy.total_mj().to_bits());
    h
}

/// The link regimes every pin runs under: the paper's affine link, an
/// infinite queue, a finite queue holding a whole reduce fan-in, and a
/// lossy link, whose drop draws hash the message ids and so pin the id
/// layout of every repeated block.
const PIN_REGIMES: [&str; 4] = ["affine", "queued", "queued:262144", "lossy:5"];

/// `(case, digest per regime in PIN_REGIMES order)`.
const SLOT_PINS: [(&str, [u64; 4]); 13] = [
    (
        "batch ar b4 x8",
        [
            18_151_088_586_560_650_908,
            10_210_027_107_867_029_404,
            10_210_027_107_867_029_404,
            9_551_070_411_511_005_763,
        ],
    ),
    (
        "batch prompt b3 p16 x4",
        [
            6_217_654_796_267_047_532,
            14_756_623_704_569_470_398,
            14_756_623_704_569_470_398,
            12_146_356_904_895_840_337,
        ],
    ),
    (
        "batch prompt [8,16,5] x4",
        [
            8_490_060_151_705_846_988,
            15_874_339_631_351_672_237,
            15_874_339_631_351_672_237,
            17_240_203_153_342_551_736,
        ],
    ),
    (
        "blocks 1 x1",
        [
            13_567_832_478_173_425_633,
            13_567_832_478_173_425_633,
            13_567_832_478_173_425_633,
            13_567_832_478_173_425_633,
        ],
    ),
    (
        "blocks 4 x1",
        [
            7_976_525_234_422_118_993,
            7_976_525_234_422_118_993,
            7_976_525_234_422_118_993,
            7_976_525_234_422_118_993,
        ],
    ),
    (
        "blocks 5 x1",
        [
            14_218_506_754_569_492_288,
            14_218_506_754_569_492_288,
            14_218_506_754_569_492_288,
            14_218_506_754_569_492_288,
        ],
    ),
    (
        "blocks 24 x1",
        [
            15_709_973_230_205_042_381,
            15_709_973_230_205_042_381,
            15_709_973_230_205_042_381,
            15_709_973_230_205_042_381,
        ],
    ),
    (
        "blocks 96 x1",
        [
            15_958_521_178_767_726_881,
            15_958_521_178_767_726_881,
            15_958_521_178_767_726_881,
            15_958_521_178_767_726_881,
        ],
    ),
    (
        "blocks 1 x8",
        [
            3_298_816_512_976_953_457,
            18_078_102_876_885_307_489,
            18_078_102_876_885_307_489,
            3_298_816_512_976_953_457,
        ],
    ),
    (
        "blocks 4 x8",
        [
            7_150_934_913_667_838_283,
            854_189_546_916_863_067,
            854_189_546_916_863_067,
            7_150_934_913_667_838_283,
        ],
    ),
    (
        "blocks 5 x8",
        [
            11_002_449_357_434_988_528,
            14_331_997_078_177_988_336,
            14_331_997_078_177_988_336,
            11_002_449_357_434_988_528,
        ],
    ),
    (
        "blocks 24 x8",
        [
            9_098_802_323_473_423_450,
            15_053_097_615_006_843_914,
            15_053_097_615_006_843_914,
            17_839_274_830_699_884_720,
        ],
    ),
    (
        "blocks 96 x8",
        [
            11_929_611_171_391_770_792,
            12_917_991_156_007_085_596,
            12_917_991_156_007_085_596,
            12_040_866_750_947_787_342,
        ],
    ),
];

/// The pinned cases on TinyLlama under one link regime: three batches
/// and a block span at five depths on one streaming chip and on eight.
/// Each chip count shares one system, so spans and batches also meet
/// each other's slot forms.
fn slot_pin_reports(chip: ChipSpec) -> Vec<(String, SystemReport)> {
    let cfg = TransformerConfig::tiny_llama_42m();
    let sys = |n| DistributedSystem::with_chip(cfg.clone(), n, chip).unwrap();
    let (one, four, eight) = (sys(1), sys(4), sys(8));
    let prompts = |lens: &[usize]| {
        BatchWorkload::new(
            lens.iter()
                .map(|&p| RequestSpec { prompt_len: p, decode_len: 0, arrival: 0 })
                .collect(),
        )
        .unwrap()
    };
    let (ar, pr) = (InferenceMode::Autoregressive, InferenceMode::Prompt);
    let mut out = vec![
        ("batch ar b4 x8".to_owned(), eight.simulate_batch(ar, &BatchWorkload::uniform(4, 128, 0))),
        ("batch prompt b3 p16 x4".to_owned(), four.simulate_batch(pr, &prompts(&[16; 3]))),
        ("batch prompt [8,16,5] x4".to_owned(), four.simulate_batch(pr, &prompts(&[8, 16, 5]))),
    ];
    for (n_chips, sys) in [(1, &one), (8, &eight)] {
        for depth in [1usize, 4, 5, 24, 96] {
            out.push((format!("blocks {depth} x{n_chips}"), sys.simulate_blocks(ar, depth)));
        }
    }
    out.into_iter().map(|(case, report)| (case, report.unwrap())).collect()
}

/// Block spans and batches report exactly what they reported before
/// they shared one slot path, under every link regime.
#[test]
fn block_spans_and_batches_are_pinned_under_every_regime() {
    let mut actual: Vec<(String, [u64; 4])> = Vec::new();
    for (r, regime) in PIN_REGIMES.iter().enumerate() {
        let chip =
            ChipSpec { link_regime: LinkRegime::parse(regime).unwrap(), ..ChipSpec::siracusa() };
        for (i, (case, report)) in slot_pin_reports(chip).into_iter().enumerate() {
            if r == 0 {
                actual.push((case, [0; 4]));
            }
            actual[i].1[r] = report_digest(&report);
        }
    }
    let pinned: Vec<(String, [u64; 4])> =
        SLOT_PINS.iter().map(|(case, pins)| ((*case).to_owned(), *pins)).collect();
    assert_eq!(actual, pinned, "\nactual:\n{}", {
        actual.iter().map(|(case, d)| format!("    (\"{case}\", {d:?}),\n")).collect::<String>()
    });
}

// ---------------------------------------------------------------------
// Functional isolation: randomized batches, bit-identical per request.
// ---------------------------------------------------------------------

fn tiny_cfg() -> TransformerConfig {
    let mut cfg = TransformerConfig::tiny_llama_42m();
    cfg.embed_dim = 16;
    cfg.ffn_dim = 24;
    cfg.n_heads = 2;
    cfg.n_kv_heads = 2;
    cfg.n_layers = 2;
    cfg.seq_len = 12;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-request KV-cache isolation: for random batch compositions
    /// (sizes, prompts, decode lengths, arrival offsets), every
    /// request's greedy output through the interleaved batch driver is
    /// bit-identical to running that request alone through the
    /// single-request driver on a fresh decoder.
    #[test]
    fn prop_batched_requests_equal_solo_runs(
        n_requests in 1usize..5,
        seed in 0u64..500,
        weight_seed in 0u64..8,
    ) {
        let cfg = tiny_cfg();
        let weights = ModelWeights::seeded(&cfg, weight_seed);
        let emb = Embedding::seeded(&cfg, 20, weight_seed + 1);
        // Deterministic per-case request shapes from the seed.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut specs = Vec::new();
        let mut prompts = Vec::new();
        for _ in 0..n_requests {
            let prompt_len = next(4) as usize + 1;
            let decode_len = next(5) as usize;
            let arrival = next(4) as usize;
            specs.push(RequestSpec { prompt_len, decode_len, arrival });
            prompts.push((0..prompt_len).map(|_| next(20) as u32).collect::<Vec<_>>());
        }
        let workload = BatchWorkload::new(specs).unwrap();
        prop_assume!(workload.validate_for(&cfg).is_ok());

        let mut batch = BatchDecoder::new(cfg.clone(), weights.clone(), n_requests);
        let batched =
            generate_greedy_batch(&emb, &workload, &prompts, |r, x| batch.step(r, x)).unwrap();

        for (r, prompt) in prompts.iter().enumerate() {
            let spec = workload.requests()[r];
            let mut solo = Decoder::new(cfg.clone(), weights.clone());
            let alone = if spec.decode_len == 0 {
                // The solo driver rejects zero-token generation only in
                // that it still feeds the prompt; mirror by feeding it
                // manually.
                for &t in prompt {
                    let x = emb.embed(t).unwrap();
                    solo.step(&x).unwrap();
                }
                Vec::new()
            } else {
                generate_greedy(&emb, prompt, spec.decode_len, |x| solo.step(x)).unwrap()
            };
            prop_assert_eq!(&batched[r], &alone, "request {} diverged from its solo run", r);
            // The batch's cache for this request matches the solo cache
            // fill (prompt + decoded tokens).
            prop_assert_eq!(batch.cached_len(r), spec.prompt_len + spec.decode_len);
            prop_assert_eq!(solo.cached_len(), spec.prompt_len + spec.decode_len);
        }
    }
}
