//! Exact-equality lockstep suite for the symbolic makespan model
//! (see DESIGN.md §15): [`mtp::sim::SymbolicMakespan::eval`] must be
//! **indistinguishable** — makespan, every per-chip counter, the
//! sync-phase count, all exact `u64` equality — from a full
//! [`mtp::sim::Machine::run`] of the concatenated programs (the oracle)
//! and from [`mtp::sim::Machine::run_periodic`] (which evaluates the same
//! model past four blocks, so that check guards its shortcuts), across:
//!
//! 1. every valid scenario of the default sweep grid;
//! 2. the deep grid (96+ blocks) and the batch grid (uniform batches as
//!    extra blocks);
//! 3. randomized model configurations via proptest;
//! 4. the closed form itself: `makespan(n) = startup + reps * delta`
//!    must equal the evaluated stats' makespan at every depth;
//! 5. the steady-state memo of a compiled schedule: every `(bandwidth,
//!    depth)` answer equals `run_periodic`, and chips priced by different
//!    kernel cost models never share a schedule.
//!
//! Scenarios whose fixed point is not provable (the symbolic model
//! returns `None`) are skipped here — the periodic lockstep suite
//! already covers their fallback path — but the default grid must prove
//! a fixed point for most of its scenarios, which the tests assert.

use mtp::core::schedule::{CompiledSchedule, Scheduler};
use mtp::core::CoreError;
use mtp::harness::sweep::{CostSourceKind, Scenario, Span, SweepGrid};
use mtp::model::{InferenceMode, TransformerConfig};
use mtp::sim::{ChipSpec, Instr, Machine, MsgId, Program, SimError, SymbolicMakespan};
use proptest::prelude::*;

/// Concatenates a template `n_blocks` times with fresh ids per block —
/// the contract `run_periodic` (and therefore the symbolic model) is
/// defined against, mirrored independently of the implementation.
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

/// Asserts symbolic == periodic == full at every given depth. Returns
/// `false` when no fixed point is provable for this template (skipped).
fn assert_symbolic_lockstep(
    chip: &ChipSpec,
    n_chips: usize,
    template: &[Program],
    depths: &[usize],
    context: &str,
) -> bool {
    let machine = Machine::homogeneous(*chip, n_chips);
    let Some(model) = SymbolicMakespan::derive(&machine, template).unwrap() else {
        return false;
    };
    for &n in depths {
        let sym = model.eval(n).unwrap();
        let fast = machine.run_periodic(template, n).unwrap();
        let full = machine.run(&concat_shifted(template, n)).unwrap();
        assert_eq!(sym, fast, "symbolic != periodic: {context} n_blocks={n}");
        assert_eq!(sym, full, "symbolic != full: {context} n_blocks={n}");
        assert_eq!(
            model.makespan(n).unwrap(),
            sym.makespan,
            "closed form != evaluated stats: {context} n_blocks={n}"
        );
    }
    true
}

/// Depths that straddle every regime of the closed form: the exact
/// prefix (n at or below the warm segment count), the first
/// extrapolated block, and the target depth.
fn probe_depths(model_depth: usize) -> Vec<usize> {
    let mut d = vec![1, 2, 3, 5, model_depth];
    d.sort_unstable();
    d.dedup();
    d.retain(|&n| n >= 1);
    d
}

fn assert_grid_symbolic(grid: &SweepGrid, min_proven: usize) {
    let mut proven = 0usize;
    for scenario in grid.scenarios() {
        let Ok(compiled) = scenario.compile_schedule() else {
            continue; // invalid partition for this chip count
        };
        let chip = scenario.chip();
        let context = format!(
            "{} x{} {} {}",
            scenario.config.name,
            scenario.n_chips,
            scenario.mode,
            scenario.topology.label()
        );
        if assert_symbolic_lockstep(
            &chip,
            scenario.n_chips,
            &compiled.template(),
            &probe_depths(scenario.n_blocks()),
            &context,
        ) {
            proven += 1;
        }
    }
    assert!(
        proven >= min_proven,
        "only {proven} scenarios proved a fixed point (expected at least {min_proven})"
    );
}

#[test]
fn default_grid_scenarios_symbolic_lockstep() {
    assert_grid_symbolic(&SweepGrid::paper_default(), 20);
}

#[test]
fn deep_grid_scenarios_symbolic_lockstep() {
    assert_grid_symbolic(&SweepGrid::deep_default(), 4);
}

#[test]
fn batch_grid_scenarios_symbolic_lockstep() {
    assert_grid_symbolic(&SweepGrid::batch_default(), 4);
}

#[test]
fn memo_matches_run_periodic_at_every_bandwidth_and_depth() {
    // One compiled schedule answers the whole `bandwidth x depth` plane
    // of the 8-chip schedules; every cell must be indistinguishable from
    // deriving it from scratch, with at most one walk per bandwidth. The
    // per-block slope never rises as the link gets faster, and the
    // prompt schedule's slowest link is link-bound (the compute/link
    // crossover) while the AR schedule stays compute-bound throughout.
    let cfg = TransformerConfig::tiny_llama_42m();
    let chip = ChipSpec::siracusa();
    let pcts = [10u32, 25, 50, 75, 100];
    for mode in [InferenceMode::Autoregressive, InferenceMode::Prompt] {
        let compiled = CompiledSchedule::compile(&cfg, 8, &chip, None, mode).unwrap();
        let mut deltas = Vec::new();
        for &pct in &pcts {
            let mut scaled = chip;
            scaled.link.bytes_per_cycle *= f64::from(pct) / 100.0;
            let machine = Machine::homogeneous(scaled, 8);
            let model = compiled.steady_state(&scaled).unwrap().expect("every bandwidth proves");
            deltas.push(model.delta());
            for n in [1, 3, 5, 8, 96, 300] {
                assert_eq!(
                    compiled.simulate(&scaled, n).unwrap().stats,
                    machine.run_periodic(&compiled.template(), n).unwrap(),
                    "{mode} bw {pct}% n_blocks={n}"
                );
            }
        }
        assert!(compiled.walks() <= pcts.len());
        assert!(deltas.windows(2).all(|w| w[0] >= w[1]), "{mode} {deltas:?}");
        let link_bound = deltas[0] > deltas[pcts.len() - 1];
        assert_eq!(link_bound, mode == InferenceMode::Prompt, "{mode} {deltas:?}");
    }
}

#[test]
fn analytic_and_calibrated_chips_get_separate_entries() {
    // Each cost source keys its own schedule, priced once: each walks
    // its own steady state, and the other source's chip is refused
    // rather than priced again.
    let model = |cost| {
        Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 2)
            .with_span(Span::Model)
            .with_cost_source(cost)
    };
    let analytic = model(CostSourceKind::Analytic);
    let calibrated = model(CostSourceKind::Calibrated);
    assert_ne!(analytic.schedule_key().unwrap(), calibrated.schedule_key().unwrap());
    let mut makespans = Vec::new();
    for (s, other) in [(&analytic, &calibrated), (&calibrated, &analytic)] {
        let compiled = s.compile_schedule().unwrap();
        let (chip, n) = (s.chip(), s.n_blocks());
        let cold = Machine::homogeneous(chip, 2).run_periodic(&compiled.template(), n).unwrap();
        for _ in 0..2 {
            assert_eq!(compiled.simulate(&chip, n).unwrap().stats, cold, "{:?}", s.cost_source);
        }
        // The repeat answers from the schedule's own entry.
        assert_eq!(compiled.walks(), 1);
        assert!(matches!(
            compiled.simulate(&other.chip(), n),
            Err(CoreError::Sim(SimError::FormPricingMismatch { .. }))
        ));
        makespans.push(cold.makespan);
    }
    assert_ne!(makespans[0], makespans[1], "the cost sources price kernels differently");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Symbolic == periodic == full on randomized model configurations:
    /// random architecture, chip count, mode, depth, link bandwidth, and
    /// L2 budget (which moves the residency crossovers).
    #[test]
    fn prop_randomized_models_symbolic_lockstep(
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
        let machine = Machine::homogeneous(chip, chips);
        let Some(model) = SymbolicMakespan::derive(&machine, &template).unwrap() else {
            // Unprovable fixed point: covered by the periodic fallback suite.
            return Ok(());
        };
        let sym = model.eval(n_blocks).unwrap();
        let fast = machine.run_periodic(&template, n_blocks).unwrap();
        let full = machine.run(&concat_shifted(&template, n_blocks)).unwrap();
        prop_assert_eq!(&sym, &fast);
        prop_assert_eq!(&sym, &full);
        prop_assert_eq!(model.makespan(n_blocks).unwrap(), sym.makespan);
    }
}
