//! Exact-equality lockstep suite for the periodic steady-state engine
//! (see DESIGN.md §9): [`mtp::sim::Machine::run_periodic`] must be
//! **indistinguishable** from [`mtp::sim::Machine::run`] on the
//! equivalent concatenated programs — makespan, every per-chip counter,
//! and the sync-phase count — across:
//!
//! 1. every valid scenario of the default sweep grid at full model depth
//!    (all workloads, chip counts, topologies, placements, bandwidths);
//! 2. deep-model passes (96+ blocks), where extrapolation carries almost
//!    the entire span;
//! 3. randomized model configurations (architecture, partitioning, mode,
//!    depth, link bandwidth, shrunken L2) via proptest;
//! 4. randomized raw program templates, which exercise the fallback
//!    paths (unclean boundaries, aperiodic dynamics) as well as the fast
//!    path.

use mtp::core::schedule::Scheduler;
use mtp::core::DistributedSystem;
use mtp::harness::sweep::SweepGrid;
use mtp::kernels::Kernel;
use mtp::model::{InferenceMode, TransformerConfig};
use mtp::sim::{ChipSpec, Instr, Machine, MemPath, MsgId, Program};
use proptest::prelude::*;

/// Concatenates a template `n_blocks` times with fresh ids per block
/// (stride = largest template id + 1) — the contract `run_periodic` is
/// defined against, mirrored here independently of the implementation.
fn concat_shifted(template: &[Program], n_blocks: usize) -> Vec<Program> {
    let mut max_msg = 0u64;
    let mut max_sync = 0u32;
    let mut any_msg = false;
    let mut any_sync = false;
    for p in template {
        for i in p.instrs() {
            match *i {
                Instr::Send { msg, .. } | Instr::Recv { msg, .. } => {
                    max_msg = max_msg.max(msg.0);
                    any_msg = true;
                }
                Instr::Sync(id) => {
                    max_sync = max_sync.max(id);
                    any_sync = true;
                }
                _ => {}
            }
        }
    }
    let msg_stride = if any_msg { max_msg + 1 } else { 0 };
    let sync_stride = if any_sync { max_sync + 1 } else { 0 };
    let mut out = vec![Program::new(); template.len()];
    for block in 0..n_blocks as u64 {
        let (dm, ds) = (block * msg_stride, block as u32 * sync_stride);
        for (o, t) in out.iter_mut().zip(template) {
            o.extend(t.instrs().iter().map(|&instr| match instr {
                Instr::Send { to, msg, bytes } => Instr::Send { to, msg: MsgId(msg.0 + dm), bytes },
                Instr::Recv { from, msg } => Instr::Recv { from, msg: MsgId(msg.0 + dm) },
                Instr::Sync(id) => Instr::Sync(id + ds),
                other => other,
            }));
        }
    }
    out
}

/// Asserts periodic == full for one schedule, via both the raw machine
/// API and the scheduler's own chained id allocation.
fn assert_lockstep(
    cfg: &TransformerConfig,
    n_chips: usize,
    chip: &ChipSpec,
    mode: InferenceMode,
    n_blocks: usize,
) {
    let template = Scheduler::new(cfg, n_chips, chip).unwrap().block_programs(mode);
    let full_programs =
        Scheduler::new(cfg, n_chips, chip).unwrap().model_programs(mode, n_blocks).unwrap();
    let machine = Machine::homogeneous(*chip, n_chips);
    let fast = machine.run_periodic(&template, n_blocks).unwrap();
    let full = machine.run(&full_programs).unwrap();
    assert_eq!(fast, full, "{} x{n_chips} {mode} n_blocks={n_blocks}", cfg.name);
}

#[test]
fn default_grid_scenarios_lockstep_at_model_depth() {
    let chip = ChipSpec::siracusa();
    for scenario in SweepGrid::paper_default().scenarios() {
        let cfg = &scenario.config;
        if Scheduler::new(cfg, scenario.n_chips, &chip).is_err() {
            continue; // invalid partition for this chip count
        }
        assert_lockstep(cfg, scenario.n_chips, &scenario.chip(), scenario.mode, cfg.n_layers);
    }
}

#[test]
fn deep_models_lockstep_across_regimes() {
    let chip = ChipSpec::siracusa();
    let ar = InferenceMode::Autoregressive;
    let pr = InferenceMode::Prompt;
    // Streamed (1 chip), double-buffered (8 chips), and the deep variant
    // of the resident-at-8-layers scaled model (which 96 layers push back
    // to double-buffered at 32 chips).
    assert_lockstep(&TransformerConfig::tiny_llama_deep(96), 1, &chip, ar, 96);
    assert_lockstep(&TransformerConfig::tiny_llama_deep(96), 8, &chip, ar, 96);
    assert_lockstep(&TransformerConfig::tiny_llama_deep(96).with_seq_len(16), 4, &chip, pr, 96);
    assert_lockstep(&TransformerConfig::mobile_bert_deep(96), 4, &chip, pr, 96);
    assert_lockstep(
        &TransformerConfig::tiny_llama_scaled_64h().with_n_layers(64),
        32,
        &chip,
        ar,
        64,
    );
}

#[test]
fn distributed_system_reports_match_explicit_full_simulation() {
    // The façade (CompiledSchedule + run_periodic) must report exactly
    // what scheduling and fully simulating every block reports.
    let cfg = TransformerConfig::tiny_llama_deep(96);
    let sys = DistributedSystem::paper_default(cfg.clone(), 8).unwrap();
    let fast = sys.simulate_model(InferenceMode::Autoregressive).unwrap();
    let chip = ChipSpec::siracusa();
    let programs = Scheduler::new(&cfg, 8, &chip)
        .unwrap()
        .model_programs(InferenceMode::Autoregressive, 96)
        .unwrap();
    let full = Machine::homogeneous(chip, 8).run(&programs).unwrap();
    assert_eq!(fast.stats, full);
    assert_eq!(fast.n_blocks, 96);
}

/// Ring-exchange program template (same generator family as
/// `perf_lockstep.rs`): compute, both DMA engines, blocking streams
/// (including partial last tiles), async DMA sometimes
/// left in flight at the template boundary (forcing fallback), syncs,
/// and a send/recv ring.
fn random_template(n_chips: usize, seed: u64) -> Vec<Program> {
    let mut programs = Vec::with_capacity(n_chips);
    for c in 0..n_chips {
        let mut p = Program::new();
        let mut state = seed.wrapping_add(c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..(next() % 7 + 1) {
            match next() % 6 {
                0 => p.push(Instr::compute(Kernel::gemv(
                    (next() % 256 + 1) as usize,
                    (next() % 256 + 1) as usize,
                ))),
                1 => p.push(Instr::Dma { path: MemPath::L2ToL1, bytes: next() % 100_000 }),
                2 => p.push(Instr::Dma { path: MemPath::L3ToL2, bytes: next() % 100_000 }),
                3 => {
                    let tag = mtp::sim::DmaTag(i as u32);
                    let path = if next() % 2 == 0 { MemPath::L3ToL2 } else { MemPath::L2ToL1 };
                    p.push(Instr::DmaAsync { path, bytes: next() % 500_000 + 1, tag });
                    if next() % 2 == 0 {
                        p.push(Instr::DmaWait(tag));
                    }
                }
                4 => {
                    let path = if next() % 2 == 0 { MemPath::L3ToL2 } else { MemPath::L2ToL1 };
                    p.push_stream(path, next() % 100_000, [256, 4096][(next() % 2) as usize]);
                }
                _ => p.push(Instr::Sync((next() % 3) as u32)),
            }
        }
        if n_chips > 1 {
            p.push(Instr::send((c + 1) % n_chips, c as u64, next() % 10_000 + 1));
            p.push(Instr::recv((c + n_chips - 1) % n_chips, ((c + n_chips - 1) % n_chips) as u64));
        }
        programs.push(p);
    }
    programs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Periodic == full on randomized model configurations: random
    /// architecture, chip count, mode, depth, link bandwidth, and L2
    /// budget (which moves the residency crossovers).
    #[test]
    fn prop_scheduled_models_lockstep(
        embed_i in 0usize..3,
        heads in prop::sample::select(vec![2usize, 4, 8]),
        kv_div in prop::sample::select(vec![1usize, 2]),
        ffn_mul in prop::sample::select(vec![1usize, 2, 4]),
        seq in prop::sample::select(vec![8usize, 32, 128]),
        chips in prop::sample::select(vec![1usize, 2, 4, 8]),
        prompt in prop::sample::select(vec![false, true]),
        n_blocks in 1usize..40,
        bw_pct in prop::sample::select(vec![25u32, 50, 100]),
        l2_fraction in prop::sample::select(vec![0.2f64, 0.75]),
    ) {
        let embed = [128usize, 256, 512][embed_i];
        prop_assume!(heads <= embed && embed.is_multiple_of(heads));
        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.name = "randomized".to_owned();
        cfg.embed_dim = embed;
        cfg.n_heads = heads;
        cfg.n_kv_heads = heads / kv_div;
        cfg.ffn_dim = embed * ffn_mul;
        cfg.seq_len = seq;
        prop_assume!(cfg.validate().is_ok());
        let mode = if prompt { InferenceMode::Prompt } else { InferenceMode::Autoregressive };
        let mut chip = ChipSpec::siracusa();
        chip.link.bytes_per_cycle *= f64::from(bw_pct) / 100.0;
        chip.l2_usable_fraction = l2_fraction;
        prop_assume!(Scheduler::new(&cfg, chips, &chip).is_ok());
        let template = Scheduler::new(&cfg, chips, &chip).unwrap().block_programs(mode);
        let full_programs =
            Scheduler::new(&cfg, chips, &chip).unwrap().model_programs(mode, n_blocks).unwrap();
        let machine = Machine::homogeneous(chip, chips);
        let fast = machine.run_periodic(&template, n_blocks).unwrap();
        let full = machine.run(&full_programs).unwrap();
        prop_assert_eq!(fast, full);
    }

    /// Periodic == full on arbitrary raw templates, including ones that
    /// can never prove periodicity (in-flight DMA at the boundary,
    /// irregular send patterns): the fallback must keep exact equality.
    #[test]
    fn prop_raw_templates_lockstep(
        n_chips in 1usize..6,
        n_blocks in 1usize..30,
        seed in 0u64..10_000,
    ) {
        let template = random_template(n_chips, seed);
        let machine = Machine::homogeneous(ChipSpec::siracusa(), n_chips);
        let fast = machine.run_periodic(&template, n_blocks).unwrap();
        let full = machine.run(&concat_shifted(&template, n_blocks)).unwrap();
        prop_assert_eq!(fast, full);
    }
}
