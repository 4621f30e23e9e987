//! Integration suite for the scenario-sweep engine (see DESIGN.md §7):
//!
//! 1. **Determinism** — two cold runs of the same grid produce
//!    byte-identical CSV and JSON.
//! 2. **Cache correctness** — a cached re-run answers every scenario from
//!    the cache and matches the cold run byte-for-byte; serial and
//!    parallel engines agree.
//! 3. **Functional equivalence** — the sweep-engine code path reproduces
//!    the pre-refactor harness numbers exactly: every fig4/fig5/fig6
//!    point, the Table I "ours" row, and the headline numbers equal
//!    direct `DistributedSystem` simulation of the same configuration.
//! 4. **Grid scale** — the default `mtp sweep` grid yields at least 48
//!    valid scenarios end to end.

use mtp::core::{
    CoreError, DistributedSystem, FailPolicy, MemoryPlan, PartitionSpec, WeightResidency,
};
use mtp::harness::sweep::{
    CostSourceKind, ModelPreset, PlacementPolicy, Scenario, Span, SweepEngine, SweepGrid,
    SweepResults, TopologySpec, CSV_HEADER,
};
use mtp::harness::{fig4, fig5, fig6, headline, table1};
use mtp::model::{InferenceMode, TransformerConfig};
use mtp::sim::{Machine, SimError};
use proptest::prelude::*;

fn mixed_grid() -> SweepGrid {
    SweepGrid::new(
        vec![
            (TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive),
            (TransformerConfig::tiny_llama_42m().with_seq_len(16), InferenceMode::Prompt),
            (TransformerConfig::mobile_bert(), InferenceMode::Prompt),
        ],
        vec![1, 2, 4, 8],
    )
    .with_topologies(vec![TopologySpec::PaperDefault, TopologySpec::Flat])
    .with_link_bw_pcts(vec![100, 50])
}

/// Pre-PR checksum of the mixed grid's CSV bytes (see
/// [`sweep_output_checksums_are_pinned`]).
const PINNED_CSV_FNV64: u64 = 2_412_179_117_525_011_204;
/// Pre-PR checksum of the mixed grid's JSON bytes.
const PINNED_JSON_FNV64: u64 = 10_638_090_856_799_012_347;

/// FNV-1a 64-bit hash (stable, dependency-free) used to pin sweep output.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the exact bytes of the mixed grid's CSV and JSON output.
///
/// These checksums were captured on the pre-perf-rewrite code (PR 2), so
/// they prove the zero-alloc kernels, trace sinks, program templating,
/// cache-key rework, and the batching subsystem (whose batch=1 rows must
/// serialize exactly as the pre-batching engine did) change *nothing*
/// about what the sweep reports. If an intentional semantic change ever
/// touches sweep output, recompute both constants and say so in the
/// commit message.
#[test]
fn sweep_output_checksums_are_pinned() {
    let results = SweepEngine::new().run(&mixed_grid());
    assert_eq!(
        fnv1a64(results.to_csv().as_bytes()),
        PINNED_CSV_FNV64,
        "sweep CSV bytes changed; the perf rewrite must be output-preserving"
    );
    assert_eq!(
        fnv1a64(results.to_json().as_bytes()),
        PINNED_JSON_FNV64,
        "sweep JSON bytes changed; the perf rewrite must be output-preserving"
    );
}

/// The row-streaming CSV sink must emit byte-identical output to the
/// materialized path — locked against the same pinned pre-PR checksum,
/// so streaming can never drift from what `to_csv` reports.
#[test]
fn streamed_csv_bytes_match_pinned_checksum() {
    let engine = SweepEngine::new();
    let mut streamed = Vec::new();
    let summary = engine.run_streamed(&mixed_grid().scenarios(), &mut streamed).unwrap();
    assert_eq!(
        fnv1a64(&streamed),
        PINNED_CSV_FNV64,
        "streamed CSV bytes diverged from the pinned materialized output"
    );
    let materialized = SweepEngine::new().run(&mixed_grid());
    assert_eq!(summary.rows, materialized.rows.len());
    assert_eq!(summary.skipped, materialized.skipped.len());
    // Flat memory: the persistent report cache holds nothing afterwards.
    assert_eq!(engine.cached_len(), 0);
}

#[test]
fn two_cold_runs_are_byte_identical() {
    let grid = mixed_grid();
    let a = SweepEngine::new().run(&grid);
    let b = SweepEngine::new().run(&grid);
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.render(), b.render());
}

#[test]
fn cached_rerun_matches_cold_run() {
    let grid = mixed_grid();
    let engine = SweepEngine::new();
    let cold = engine.run(&grid);
    assert_eq!(cold.cache_hits + cold.unique_simulated, cold.rows.len());
    let warm = engine.run(&grid);
    assert_eq!(warm.unique_simulated, 0, "everything must come from the cache");
    assert_eq!(warm.cache_hits, warm.rows.len());
    assert_eq!(cold.to_csv(), warm.to_csv());
    assert_eq!(cold.to_json(), warm.to_json());
}

#[test]
fn serial_and_parallel_engines_agree() {
    let grid = mixed_grid();
    let serial = SweepEngine::serial().run(&grid);
    let parallel = SweepEngine::with_threads(8).run(&grid);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());
}

/// Analytic and calibrated scenarios key separate compiled schedules,
/// each lowered once for its own pricing: a two-source grid caches one
/// schedule per source for each structure, and every row of a
/// many-thread two-source sweep equals the row of a serial single-source
/// sweep (the calibrated model is measured once per process, so both
/// runs price with the same one).
#[test]
fn mixed_cost_sources_on_many_threads_match_serial_single_source_runs() {
    let grid = |sources| {
        SweepGrid::new(
            vec![
                (TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive),
                (TransformerConfig::tiny_llama_42m().with_seq_len(16), InferenceMode::Prompt),
            ],
            vec![1, 2, 4, 8],
        )
        .with_link_bw_pcts(vec![100, 50, 25])
        .with_cost_sources(sources)
    };
    let both = grid(vec![CostSourceKind::Analytic, CostSourceKind::Calibrated]);
    // Fresh engines start with empty schedule caches, so every round
    // races the first compilation of each schedule again.
    for _ in 0..4 {
        let engine = SweepEngine::with_threads(8);
        let mixed = engine.run(&both);
        for source in [CostSourceKind::Analytic, CostSourceKind::Calibrated] {
            let single = SweepEngine::serial();
            let serial = single.run(&grid(vec![source]));
            assert_eq!(2 * single.cached_schedules_len(), engine.cached_schedules_len());
            let rows: Vec<_> =
                mixed.rows.iter().filter(|r| r.scenario.cost_source == source).collect();
            assert_eq!(rows.len(), serial.rows.len());
            for (got, want) in rows.iter().zip(&serial.rows) {
                assert_eq!(got.scenario, want.scenario);
                assert_eq!(format!("{:?}", got.report), format!("{:?}", want.report));
            }
        }
    }
}

/// Invalid points skip with the reasons and overflow flags the engine
/// reported when it re-ran each one outside its schedule cache; the
/// uncached `Scenario::run` and `SweepEngine::run_one` return the same
/// errors. An invalid partition wins over an invalid topology.
#[test]
fn invalid_points_skip_with_pinned_reasons() {
    let ar = InferenceMode::Autoregressive;
    let hier1 = TopologySpec::Hierarchical { group_size: 1 };
    let tiny = |n| Scenario::new(TransformerConfig::tiny_llama_42m(), ar, n);
    let bert = Scenario::new(TransformerConfig::mobile_bert(), InferenceMode::Prompt, 8);
    let mut zero_bw = tiny(4);
    zero_bw.link_bw_pct = 0;
    let partition = "8 chips cannot evenly share 4 attention heads";
    let topology = "topology construction failed: group size 1 is too small (minimum 2)";
    let cases = [
        (bert.clone(), partition, false),
        (tiny(4).with_topology(hier1), topology, false),
        (bert.with_topology(hier1), partition, false),
        (tiny(1).with_topology(hier1), topology, false),
        (
            tiny(4)
                .with_topology(hier1)
                .with_faults(mtp::sim::FaultPlan::parse("stall:0:1000:5000").unwrap()),
            topology,
            false,
        ),
        (
            zero_bw,
            "invalid model configuration: link bandwidth must be positive: 0% of the MIPI port \
             is a zero-rate link with unbounded transfer time",
            false,
        ),
        (
            tiny(8)
                .with_faults(mtp::sim::FaultPlan::parse("stall:0:1:18446744073709551000").unwrap()),
            "simulation failed: chip0 cycle or byte counters overflow u64",
            true,
        ),
    ];
    let all: Vec<Scenario> = cases.iter().map(|(s, ..)| s.clone()).collect();
    for threads in [1, 4] {
        let together = SweepEngine::with_threads(threads).run_scenarios(&all);
        assert!(together.rows.is_empty());
        assert_eq!(together.skipped.len(), cases.len());
        for (skip, (scenario, reason, overflow)) in together.skipped.iter().zip(&cases) {
            assert_eq!(&skip.scenario, scenario);
            assert_eq!((skip.reason.as_str(), skip.overflow), (*reason, *overflow));
        }
    }
    for (scenario, reason, overflow) in &cases {
        let alone = SweepEngine::serial().run_scenarios(std::slice::from_ref(scenario));
        let skip = &alone.skipped[0];
        assert_eq!((skip.reason.as_str(), skip.overflow), (*reason, *overflow));
        assert_eq!(scenario.run().unwrap_err().to_string(), *reason);
        assert_eq!(SweepEngine::new().run_one(scenario).unwrap_err().to_string(), *reason);
    }
}

/// A topology that does not build never shares a valid topology's
/// schedule, even on one chip, where every valid topology does: the
/// invalid point skips whichever point the engine meets first.
#[test]
fn an_invalid_one_chip_topology_skips_beside_a_valid_one() {
    let valid =
        Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 1);
    let invalid = valid.clone().with_topology(TopologySpec::Hierarchical { group_size: 1 });
    for pair in [[valid.clone(), invalid.clone()], [invalid.clone(), valid.clone()]] {
        let results = SweepEngine::serial().run_scenarios(&pair);
        assert_eq!(results.rows.len(), 1);
        assert_eq!(results.rows[0].scenario, valid);
        assert_eq!(results.skipped.len(), 1);
        assert_eq!(results.skipped[0].scenario, invalid);
    }
}

/// A compiled schedule's form is its template lowered for the compile
/// chip, over every model preset, chip count, topology, placement and
/// cost source.
#[test]
fn compiled_form_equals_lowering_its_template() {
    let presets = [
        ModelPreset::TinyLlama,
        ModelPreset::TinyLlamaScaled64h,
        ModelPreset::TinyLlamaGqa(2),
        ModelPreset::TinyLlamaDeep(24),
        ModelPreset::MobileBert,
        ModelPreset::MobileBertDeep(4),
    ];
    let mut compiled_count = 0;
    for preset in presets {
        for mode in [InferenceMode::Autoregressive, InferenceMode::Prompt] {
            for n in [1usize, 2, 4, 8] {
                for topology in [TopologySpec::PaperDefault, TopologySpec::Flat] {
                    for placement in [PlacementPolicy::Auto, PlacementPolicy::ForceStreamed] {
                        for cost in [CostSourceKind::Analytic, CostSourceKind::Calibrated] {
                            let s = Scenario::new(preset.config(mode), mode, n)
                                .with_topology(topology)
                                .with_placement(placement)
                                .with_cost_source(cost);
                            let Ok(compiled) = s.compile_schedule() else { continue };
                            let machine = Machine::homogeneous(s.chip(), n);
                            let direct = machine.lower(&compiled.template()).unwrap();
                            assert_eq!(compiled.lowered(), &direct, "{}", s.key());
                            compiled_count += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(compiled_count >= 300, "only {compiled_count} schedules compiled");
}

/// A schedule is priced once: a chip that prices kernels differently is
/// a typed error from every evaluator, never a panic or a re-lowering.
#[test]
fn differently_priced_chips_are_refused_by_every_evaluator() {
    // Under every link regime, the contention-bearing ones included,
    // whose steady state walks nothing.
    let ar = InferenceMode::Autoregressive;
    let analytic = Scenario::new(TransformerConfig::tiny_llama_42m(), ar, 4);
    let compiled = analytic.compile_schedule().unwrap();
    let refused = |r: Result<_, CoreError>| {
        matches!(r, Err(CoreError::Sim(SimError::FormPricingMismatch { .. })))
    };
    for regime in ["affine", "queued:262144", "lossy:5"] {
        let other = analytic
            .clone()
            .with_cost_source(CostSourceKind::Calibrated)
            .with_link_regime(mtp::sim::LinkRegime::parse(regime).unwrap())
            .chip();
        for n in [1, 96] {
            assert!(refused(compiled.simulate(&other, n).map(drop)), "simulate at {n}, {regime}");
        }
        assert!(refused(compiled.steady_state(&other).map(drop)), "steady_state, {regime}");
        for faults in ["none", "stall:0:1000:5000", "failstop:1:50000"] {
            let plan = mtp::sim::FaultPlan::parse(faults).unwrap();
            for policy in [FailPolicy::Abort, FailPolicy::SpareChip] {
                let r = compiled.simulate_faulted(&other, 8, &plan, policy).map(drop);
                assert!(refused(r), "simulate_faulted under {faults}, {regime}");
            }
        }
    }
    assert_eq!(compiled.walks(), 0, "a refused chip walks nothing");
}

/// The pre-refactor fig4/fig5/fig6 harness simulated each point as
/// `DistributedSystem::paper_default(cfg, n).simulate_block(mode)`. The
/// sweep engine must reproduce those numbers exactly.
#[test]
fn fig4_rows_equal_pre_refactor_simulation() {
    let cases = [
        (TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, fig4::fig4a()),
        (
            TransformerConfig::tiny_llama_42m().with_seq_len(16),
            InferenceMode::Prompt,
            fig4::fig4b(),
        ),
        (TransformerConfig::mobile_bert(), InferenceMode::Prompt, fig4::fig4c()),
    ];
    for (cfg, mode, points) in cases {
        for p in points.unwrap() {
            let direct = DistributedSystem::paper_default(cfg.clone(), p.n_chips)
                .unwrap()
                .simulate_block(mode)
                .unwrap();
            assert_eq!(p.report.stats, direct.stats, "{} x{}", cfg.name, p.n_chips);
            assert_eq!(p.report.residency, direct.residency);
            assert!((p.report.energy_mj() - direct.energy_mj()).abs() < 1e-12);
        }
    }
}

#[test]
fn fig5_and_fig6_rows_equal_pre_refactor_simulation() {
    let panel = fig5::fig5a().unwrap();
    let scaled_cfg = TransformerConfig::tiny_llama_scaled_64h();
    for p in &panel.scaled {
        let direct = DistributedSystem::paper_default(scaled_cfg.clone(), p.n_chips)
            .unwrap()
            .simulate_block(InferenceMode::Autoregressive)
            .unwrap();
        assert_eq!(p.report.stats, direct.stats);
    }
    let fig = fig6::run().unwrap();
    let prompt_cfg = TransformerConfig::tiny_llama_scaled_64h().with_seq_len(16);
    for p in &fig.prompt {
        let direct = DistributedSystem::paper_default(prompt_cfg.clone(), p.n_chips)
            .unwrap()
            .simulate_block(InferenceMode::Prompt)
            .unwrap();
        assert_eq!(p.report.stats, direct.stats);
    }
}

#[test]
fn table1_ours_row_equals_pre_refactor_model_pass() {
    let rows = table1::run(4, InferenceMode::Autoregressive).unwrap();
    let ours = rows[0].measured.as_ref().unwrap();
    let direct = DistributedSystem::paper_default(TransformerConfig::tiny_llama_42m(), 4)
        .unwrap()
        .simulate_model(InferenceMode::Autoregressive)
        .unwrap();
    assert_eq!(ours.stats, direct.stats);
    assert_eq!(ours.n_blocks, direct.n_blocks);
}

#[test]
fn headline_numbers_equal_pre_refactor_simulation() {
    let h = headline::run().unwrap();
    let cfg = TransformerConfig::tiny_llama_42m();
    let ar = InferenceMode::Autoregressive;
    let ar1 = DistributedSystem::paper_default(cfg.clone(), 1).unwrap().simulate_block(ar).unwrap();
    let ar8 = DistributedSystem::paper_default(cfg, 8).unwrap().simulate_block(ar).unwrap();
    assert!((h.tinyllama_ar_speedup_8 - ar8.speedup_over(&ar1)).abs() < 1e-12);
    assert!((h.tinyllama_ar_latency_ms - ar8.runtime_ms()).abs() < 1e-12);
    assert!((h.tinyllama_ar_energy_mj - ar8.energy_mj()).abs() < 1e-12);
}

#[test]
fn default_cli_grid_runs_at_least_48_scenarios() {
    let grid = SweepGrid::paper_default();
    let results = SweepEngine::new().run(&grid);
    assert!(results.rows.len() >= 48, "only {} valid scenarios", results.rows.len());
    let csv = results.to_csv();
    assert_eq!(csv.lines().next().unwrap(), CSV_HEADER);
    assert_eq!(csv.lines().count(), results.rows.len() + 1);
    // Every skip is an explained divisibility violation.
    for s in &results.skipped {
        assert!(s.reason.contains("share"), "unexpected skip reason: {}", s.reason);
    }
}

/// The deep grid is where steady-state reuse engages (its depth variants
/// share one block template per chip count, so the template's memo walks
/// once per timing class and answers every depth from that model).
/// Every engine row must still equal the direct, uncached simulation of
/// its scenario — warm resume is an optimization, never a semantic.
#[test]
fn deep_grid_warm_resume_rows_equal_direct_simulation() {
    let results = SweepEngine::serial().run(&SweepGrid::deep_default());
    assert!(!results.rows.is_empty());
    for row in &results.rows {
        let direct = row.scenario.run().unwrap();
        assert_eq!(
            row.report.stats, direct.stats,
            "{} x{} diverged from its cold run",
            row.scenario.config.name, row.scenario.n_chips
        );
        assert_eq!(row.report.n_blocks, direct.n_blocks);
        assert_eq!(row.report.residency, direct.residency);
    }
}

/// `run_one` takes its schedule from the engine's store, so a following
/// run over the same schedule key compiles nothing new.
#[test]
fn run_one_leaves_its_schedule_in_the_store() {
    let engine = SweepEngine::new();
    let base = Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 8);
    let one = engine.run_one(&base).unwrap();
    assert_eq!(engine.cached_schedules_len(), 1);
    let same_key = [
        base.clone(),
        base.clone().with_link_bw_pct(50).unwrap(),
        base.clone().with_span(Span::Model),
    ];
    let results = engine.run_scenarios(&same_key);
    assert_eq!(engine.cached_schedules_len(), 1, "the run compiled its key again");
    assert_eq!(results.rows[0].report.stats, one.stats);
    assert_eq!((results.unique_simulated, results.cache_hits), (2, 1));
}

#[test]
fn model_span_scenarios_simulate_all_layers() {
    let engine = SweepEngine::new();
    let cfg = TransformerConfig::tiny_llama_42m();
    let block =
        engine.run_one(&Scenario::new(cfg.clone(), InferenceMode::Autoregressive, 8)).unwrap();
    let model = engine
        .run_one(
            &Scenario::new(cfg.clone(), InferenceMode::Autoregressive, 8).with_span(Span::Model),
        )
        .unwrap();
    assert_eq!(block.n_blocks, 1);
    assert_eq!(model.n_blocks, cfg.n_layers);
    assert!(model.stats.makespan > block.stats.makespan);
}

/// The residency regime a scenario's memory plan selects (the only path
/// through which model depth may legitimately shape a block template).
fn residency_of(s: &Scenario) -> WeightResidency {
    let spec = PartitionSpec::new(&s.config, s.n_chips).unwrap();
    MemoryPlan::decide(&s.config, &spec, &s.chip()).unwrap().residency
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled-schedule cache-key hygiene: scenarios differing in any
    /// structural field never share a key; depth-only variants always
    /// share one while the residency regime is unchanged (and never when
    /// depth flips the regime); bandwidth, span, and uniform batch size
    /// never split a key (any uniform batch — including batch 1, the
    /// single-request path — reuses the same request-slot template).
    #[test]
    fn prop_schedule_key_hygiene(
        preset_i in 0usize..4,
        chips in prop::sample::select(vec![1usize, 2, 4, 8]),
        prompt in prop::sample::select(vec![false, true]),
        topo_i in 0usize..3,
        streamed in prop::sample::select(vec![false, true]),
        bw in prop::sample::select(vec![25u32, 50, 100]),
        model_span in prop::sample::select(vec![false, true]),
        batch in prop::sample::select(vec![1usize, 2, 16, 64]),
        depth in 1usize..300,
        mutation in 0usize..5,
    ) {
        let preset = [
            ModelPreset::TinyLlama,
            ModelPreset::TinyLlamaScaled64h,
            ModelPreset::TinyLlamaGqa(2),
            ModelPreset::MobileBert,
        ][preset_i];
        let mode = if prompt { InferenceMode::Prompt } else { InferenceMode::Autoregressive };
        let mut base = Scenario::new(preset.config(mode), mode, chips)
            .with_topology(
                [TopologySpec::PaperDefault, TopologySpec::Flat,
                 TopologySpec::Hierarchical { group_size: 2 }][topo_i],
            )
            .with_link_bw_pct(bw)
            .unwrap()
            .with_batch(batch);
        if streamed {
            base = base.with_placement(PlacementPolicy::ForceStreamed);
        }
        if model_span {
            base = base.with_span(Span::Model);
        }
        let Ok(key) = base.schedule_key() else {
            // Invalid partition: no schedule, nothing to share.
            return Ok(());
        };

        // Depth-only variants share exactly while the residency regime is
        // unchanged.
        let mut deep = base.clone();
        deep.config = deep.config.clone().with_n_layers(depth);
        deep.config.name = format!("{}-d{depth}", base.config.name);
        let deep_key = deep.schedule_key().unwrap();
        if residency_of(&base) == residency_of(&deep) {
            prop_assert_eq!(&deep_key, &key, "depth-only variant must share the template");
        } else {
            prop_assert!(deep_key != key, "residency-changing depth must not share");
        }

        // Bandwidth, link regime, span, and uniform batch size are
        // non-structural: never split.
        prop_assert_eq!(base.clone().with_link_bw_pct(if bw == 100 { 50 } else { 100 })
            .unwrap().schedule_key().unwrap(), key.clone());
        prop_assert_eq!(
            base.clone()
                .with_link_regime(mtp::sim::LinkRegime::Queued {
                    buffer_bytes: u64::MAX,
                    discipline: mtp::sim::QueueDiscipline::Backpressure,
                })
                .schedule_key()
                .unwrap(),
            key.clone()
        );
        prop_assert_eq!(
            base.clone().with_span(if model_span { Span::Block } else { Span::Model })
                .schedule_key().unwrap(),
            key.clone()
        );
        prop_assert_eq!(
            base.clone().with_batch(if batch == 1 { 32 } else { 1 }).schedule_key().unwrap(),
            key.clone()
        );
        // The batch size still multiplies the simulated block instances
        // and distinguishes the scenario itself.
        let rebatched = base.clone().with_batch(batch + 1);
        prop_assert_eq!(rebatched.n_blocks(), base.n_blocks() / batch * (batch + 1));
        prop_assert!(rebatched.key() != base.key());

        // A change to any structural field never shares. Exception: with
        // a single chip no communication is emitted, so the topology is
        // not structural there and the key deliberately collapses it.
        let expect_shared = mutation == 2 && chips == 1;
        let mutated = match mutation {
            0 => {
                let other = if prompt { InferenceMode::Autoregressive } else { InferenceMode::Prompt };
                Scenario { mode: other, ..base.clone() }
            }
            1 => Scenario { n_chips: if chips == 8 { 4 } else { chips * 2 }, ..base.clone() },
            2 => base.clone().with_topology(if base.topology == TopologySpec::Flat {
                TopologySpec::PaperDefault
            } else {
                TopologySpec::Flat
            }),
            3 => base.clone().with_placement(if streamed {
                PlacementPolicy::Auto
            } else {
                PlacementPolicy::ForceStreamed
            }),
            _ => {
                let mut s = base.clone();
                s.config.seq_len += 1;
                s
            }
        };
        if let Ok(mutated_key) = mutated.schedule_key() {
            if expect_shared {
                prop_assert_eq!(mutated_key, key, "single-chip topology is not structural");
            } else {
                prop_assert!(mutated_key != key, "structural change must split the key");
            }
        }
    }
}

/// The differential pool of [`prop_run_scenarios_equals_one_engine_per_scenario`]:
/// valid block and model spans sharing and splitting schedules, a
/// queued link, a faulted point, and two invalid points (a chip count
/// that divides no head count and a zero-rate link, which only a
/// literal construction can smuggle in).
fn differential_pool() -> Vec<Scenario> {
    let ar = InferenceMode::Autoregressive;
    let tiny = || TransformerConfig::tiny_llama_42m();
    let base = Scenario::new(tiny(), ar, 2);
    vec![
        Scenario::new(tiny(), ar, 1),
        base.clone(),
        base.clone().with_topology(TopologySpec::Flat),
        base.clone().with_link_bw_pct(50).unwrap(),
        Scenario::new(tiny().with_seq_len(16), InferenceMode::Prompt, 4),
        base.clone().with_span(Span::Model).with_batch(2),
        base.clone().with_link_regime(mtp::sim::LinkRegime::Queued {
            buffer_bytes: u64::MAX,
            discipline: mtp::sim::QueueDiscipline::Backpressure,
        }),
        base.clone().with_faults(mtp::sim::FaultPlan::parse("stall:0:100:500").unwrap()),
        Scenario::new(tiny(), ar, 3),
        Scenario { link_bw_pct: 0, ..base },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One engine run over a random list (duplicates and invalid points
    /// included) gives exactly what a fresh engine per scenario gives:
    /// the same rows and skips in input order, one simulation per
    /// distinct valid scenario and a cache hit for every repeat. The
    /// same engine then answers the list again entirely from its cache.
    #[test]
    fn prop_run_scenarios_equals_one_engine_per_scenario(
        len in 0usize..10,
        seed in 0..=u64::MAX,
        threads in 1usize..3,
    ) {
        let pool = differential_pool();
        let mut rng = mtp::tensor::SplitMix64::new(seed);
        let list: Vec<Scenario> =
            (0..len).map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize].clone()).collect();

        let mut rows = Vec::new();
        let mut skipped = Vec::new();
        let mut distinct_rows: Vec<&Scenario> = Vec::new();
        for s in &list {
            let alone = SweepEngine::serial().run_scenarios(std::slice::from_ref(s));
            prop_assert_eq!(alone.rows.len() + alone.skipped.len(), 1);
            if !alone.rows.is_empty() && !distinct_rows.contains(&s) {
                distinct_rows.push(s);
            }
            rows.extend(alone.rows);
            skipped.extend(alone.skipped);
        }
        let expected = SweepResults {
            cache_hits: rows.len() - distinct_rows.len(),
            unique_simulated: distinct_rows.len(),
            rows,
            skipped,
            elapsed: std::time::Duration::ZERO,
        };

        let engine = SweepEngine::with_threads(threads);
        for run in 0..2 {
            let got = engine.run_scenarios(&list);
            prop_assert_eq!(got.to_csv(), expected.to_csv(), "run {}", run);
            prop_assert_eq!(got.to_json(), expected.to_json(), "run {}", run);
            let skips = |r: &SweepResults| -> Vec<(Scenario, String, bool)> {
                r.skipped.iter().map(|s| (s.scenario.clone(), s.reason.clone(), s.overflow)).collect()
            };
            prop_assert_eq!(skips(&got), skips(&expected), "run {}", run);
            if run == 0 {
                prop_assert_eq!(got.unique_simulated, expected.unique_simulated);
                prop_assert_eq!(got.cache_hits, expected.cache_hits);
            } else {
                prop_assert_eq!(got.unique_simulated, 0);
                prop_assert_eq!(got.cache_hits, got.rows.len());
            }
        }
    }
}

#[test]
fn placement_axis_reproduces_buffering_ablation() {
    // The forced-streaming scenario equals the pre-refactor ablation's
    // hand-built shrunken-L2 system.
    let engine = SweepEngine::new();
    let cfg = TransformerConfig::tiny_llama_42m();
    let forced = engine
        .run_one(
            &Scenario::new(cfg.clone(), InferenceMode::Autoregressive, 8)
                .with_placement(PlacementPolicy::ForceStreamed),
        )
        .unwrap();
    let mut chip = mtp::sim::ChipSpec::siracusa();
    chip.l2_usable_fraction = 0.2;
    let direct = DistributedSystem::with_chip(cfg, 8, chip)
        .unwrap()
        .simulate_block(InferenceMode::Autoregressive)
        .unwrap();
    assert_eq!(forced.stats, direct.stats);
    assert_eq!(forced.residency, direct.residency);
}
