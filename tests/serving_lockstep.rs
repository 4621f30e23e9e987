//! Exactness suite for the open-loop serving frontend (DESIGN.md §12),
//! in six proofs:
//!
//! 1. **Saturated lockstep** — with every request already queued at
//!    cycle 0, static gang scheduling under full-context billing must
//!    reproduce the PR 5 batch path *bit for bit*: the serving makespan
//!    is exactly the composed batch-pass makespans, every request's
//!    TTFT is the prefill-batch makespan, every TPOT is the
//!    decode-batch makespan.
//! 2. **Seed determinism** — the same grid on two cold engines and on a
//!    warm (cached) rerun produces byte-identical CSV and JSON rows.
//! 3. **KV isolation** — a proptest over random request mixes, arrival
//!    offsets, policies, and billing models replays the serving
//!    engine's slot-membership trace through the functional
//!    [`BatchDecoder`] and checks every request's greedy tokens are
//!    bit-identical to its solo run on a fresh decoder: continuous
//!    batching may change *when* a request computes, never *what*.
//! 4. **Load monotonicity** — raising the offered load under the same
//!    arrival seed never lowers p99 TTFT at fixed capacity (the SLO
//!    cliff only ever moves toward the caller).
//! 5. **Full-simulation oracle** — a proptest over random per-request-
//!    billed request sets checks every pass the serving loop charged
//!    (uniform or mixed, each through the periodic engine) against a
//!    full event-driven run of the per-block-derived interleaving.
//! 6. **One memo per system** — a system's serving memo, shared by every
//!    run on it and on its clones, answers exactly as a fresh system:
//!    in any case order, on two threads at once, and afresh after
//!    `with_topology`.

use mtp::core::schedule::Scheduler;
use mtp::core::{BatchPolicy, Billing, DistributedSystem, ServeReport, SlotPhase};
use mtp::harness::bench::serve_study;
use mtp::harness::serve::{percentile, ServeEngine, ServeGrid, ServeScenario};
use mtp::harness::sweep::ModelPreset;
use mtp::link::Topology;
use mtp::model::generate::generate_greedy;
use mtp::model::{
    ArrivalProcess, BatchDecoder, BatchWorkload, Decoder, Embedding, InferenceMode, ModelWeights,
    ServeRequest, ServeWorkload, TransformerConfig,
};
use mtp::sim::{ChipSpec, Instr, LinkRegime, Machine, MsgId, Program, QueueDiscipline};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// 1. Saturated-arrival lockstep with the batch path.
// ---------------------------------------------------------------------

/// All requests at cycle 0 + static gang + full-context billing ==
/// composed `simulate_batch` passes, as exact u64 cycle counts, across
/// chip counts and batch sizes.
#[test]
fn saturated_static_serving_reproduces_batch_path() {
    let cfg = TransformerConfig::tiny_llama_42m();
    let (prompt_len, decode_len) = (16usize, 4usize);
    for n_chips in [2usize, 4, 8] {
        for batch in [2usize, 8] {
            let sys = DistributedSystem::paper_default(cfg.clone(), n_chips).unwrap();
            let requests = (0..batch)
                .map(|_| ServeRequest { prompt_len, decode_len, arrival_cycles: 0 })
                .collect();
            let workload = ServeWorkload::new(requests).unwrap();
            let report = sys
                .simulate_serve(&workload, BatchPolicy::Static { batch }, Billing::FullContext)
                .unwrap();

            // The PR 5 batch path, composed by hand: one prompt-mode
            // batch over the prompt length, then decode batches over the
            // model's full context.
            let prefill = sys
                .simulate_batch(
                    InferenceMode::Prompt,
                    &BatchWorkload::uniform(batch, prompt_len, 0),
                )
                .unwrap()
                .stats
                .makespan;
            let decode = sys
                .simulate_batch(
                    InferenceMode::Autoregressive,
                    &BatchWorkload::uniform(batch, cfg.seq_len, 0),
                )
                .unwrap()
                .stats
                .makespan;

            let expect = prefill + (decode_len as u64 - 1) * decode;
            assert_eq!(report.makespan, expect, "x{n_chips} b{batch}");
            assert_eq!(report.passes.len(), decode_len, "x{n_chips} b{batch}");
            assert_eq!(report.peak_concurrency(), batch);
            for (r, lat) in report.requests.iter().enumerate() {
                assert_eq!(lat.ttft(), prefill, "x{n_chips} b{batch} request {r}");
                assert_eq!(lat.tpot(), decode, "x{n_chips} b{batch} request {r}");
                assert_eq!(lat.e2e(), expect, "x{n_chips} b{batch} request {r}");
            }
        }
    }
}

/// In the saturated limit the two policies coincide: continuous
/// batching with `max_slots == batch` admits the same gang and runs the
/// same passes.
#[test]
fn saturated_continuous_equals_static_gang() {
    let cfg = TransformerConfig::tiny_llama_42m();
    let sys = DistributedSystem::paper_default(cfg, 4).unwrap();
    let requests =
        (0..6).map(|_| ServeRequest { prompt_len: 16, decode_len: 3, arrival_cycles: 0 }).collect();
    let workload = ServeWorkload::new(requests).unwrap();
    let st = sys
        .simulate_serve(&workload, BatchPolicy::Static { batch: 6 }, Billing::FullContext)
        .unwrap();
    let ct = sys
        .simulate_serve(&workload, BatchPolicy::Continuous { max_slots: 6 }, Billing::FullContext)
        .unwrap();
    assert_eq!(st, ct);
}

// ---------------------------------------------------------------------
// 2. Arrival-seed determinism, cold and warm, byte for byte.
// ---------------------------------------------------------------------

fn small_grid() -> ServeGrid {
    ServeGrid::paper_default()
        .with_chip_counts(vec![4])
        .with_arrivals(vec![
            ArrivalProcess::Poisson { rate_per_mcycle: 1.0 },
            ArrivalProcess::Bursty { rate_per_mcycle: 1.0, burst: 4 },
        ])
        .with_requests(12, 16, 3)
}

#[test]
fn serving_rows_are_seed_deterministic_cold_and_warm() {
    let grid = small_grid();
    let mut a = ServeEngine::new();
    let cold_a = a.run(&grid);
    let cold_b = ServeEngine::new().run(&grid);
    assert!(!cold_a.rows.is_empty());
    assert!(cold_a.skipped.is_empty());
    assert_eq!(cold_a.to_csv(), cold_b.to_csv(), "two cold engines diverged");
    assert_eq!(cold_a.to_json(), cold_b.to_json());

    // Warm rerun: everything from the cache, still the same bytes.
    let warm = a.run(&grid);
    assert_eq!(warm.unique_simulated, 0);
    assert_eq!(warm.cache_hits, cold_a.rows.len());
    assert_eq!(cold_a.to_csv(), warm.to_csv(), "warm rerun diverged from cold run");
    assert_eq!(cold_a.to_json(), warm.to_json());

    // The seed is load-bearing: a different seed draws different
    // arrivals, hence different latency records.
    let other = ServeEngine::new().run(&grid.with_seed(7));
    assert_ne!(cold_a.rows[0].report.requests, other.rows[0].report.requests);
}

// ---------------------------------------------------------------------
// 3. KV isolation under continuous batching (functional replay).
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replays the serving engine's pass trace (which request computed
    /// in which pass, in what phase) through the functional batch
    /// decoder and checks every request's greedy output — and its
    /// KV-cache fill — is bit-identical to running that request alone.
    #[test]
    fn prop_served_requests_equal_solo_runs(
        n_requests in 1usize..5,
        seed in 0u64..400,
        weight_seed in 0u64..6,
        flags in 0u64..4,
        max_slots in 1usize..4,
    ) {
        let (continuous, per_request) = (flags & 1 != 0, flags & 2 != 0);
        let cfg = tiny_cfg();
        let weights = ModelWeights::seeded(&cfg, weight_seed);
        let emb = Embedding::seeded(&cfg, 20, weight_seed + 1);
        let sys = DistributedSystem::paper_default(cfg.clone(), 2).unwrap();

        // Deterministic per-case request mix from the seed.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut mix: Vec<(ServeRequest, Vec<u32>)> = Vec::new();
        for _ in 0..n_requests {
            let prompt_len = next(4) as usize + 1;
            let decode_len = next(5) as usize;
            let arrival_cycles = next(4) * 40_000;
            let prompt = (0..prompt_len).map(|_| next(20) as u32).collect::<Vec<_>>();
            mix.push((ServeRequest { prompt_len, decode_len, arrival_cycles }, prompt));
        }
        // The workload constructor stable-sorts by arrival; pre-sort the
        // pairs the same way so request index r always owns prompts[r].
        mix.sort_by_key(|(spec, _)| spec.arrival_cycles);
        let prompts: Vec<Vec<u32>> = mix.iter().map(|(_, p)| p.clone()).collect();
        let workload = ServeWorkload::new(mix.into_iter().map(|(s, _)| s).collect()).unwrap();
        prop_assume!(workload.validate_for(&cfg).is_ok());

        let policy = if continuous {
            BatchPolicy::Continuous { max_slots }
        } else {
            BatchPolicy::Static { batch: max_slots }
        };
        let billing = if per_request { Billing::PerRequest } else { Billing::FullContext };
        let report = sys.simulate_serve(&workload, policy, billing).unwrap();

        // Replay the trace functionally: same joins, same interleaving.
        let n = workload.n_requests();
        let mut batch = BatchDecoder::new(cfg.clone(), weights.clone(), n);
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut last: Vec<Option<u32>> = vec![None; n];
        for pass in &report.passes {
            for &(r, phase) in &pass.slots {
                let spec = workload.requests()[r];
                match phase {
                    SlotPhase::Prefill => {
                        let mut hidden = None;
                        for &t in &prompts[r] {
                            let x = emb.embed(t).unwrap();
                            hidden = Some(batch.step(r, &x).unwrap());
                        }
                        if spec.decode_len >= 1 {
                            let tok = emb.greedy_next(&hidden.unwrap()).unwrap();
                            outputs[r].push(tok);
                            last[r] = Some(tok);
                        }
                    }
                    SlotPhase::Decode => {
                        let x = emb.embed(last[r].expect("decode before prefill")).unwrap();
                        let hidden = batch.step(r, &x).unwrap();
                        let tok = emb.greedy_next(&hidden).unwrap();
                        outputs[r].push(tok);
                        last[r] = Some(tok);
                    }
                }
            }
        }

        for r in 0..n {
            let spec = workload.requests()[r];
            // Trace sanity: exactly the passes the lifecycle implies.
            let appearances =
                report.passes.iter().flat_map(|p| &p.slots).filter(|(q, _)| *q == r).count();
            prop_assert_eq!(appearances, 1 + spec.decode_len.saturating_sub(1));
            prop_assert_eq!(outputs[r].len(), spec.decode_len);

            // Solo run on a fresh decoder: bit-identical tokens and
            // cache fill.
            let mut solo = Decoder::new(cfg.clone(), weights.clone());
            let alone = if spec.decode_len == 0 {
                for &t in &prompts[r] {
                    let x = emb.embed(t).unwrap();
                    solo.step(&x).unwrap();
                }
                Vec::new()
            } else {
                generate_greedy(&emb, &prompts[r], spec.decode_len, |x| solo.step(x)).unwrap()
            };
            prop_assert_eq!(&outputs[r], &alone, "request {} diverged from its solo run", r);
            // The serving trace never runs a pass for the final emitted
            // token (the request retires with it), so the replay caches
            // one position fewer than the solo driver, which always
            // steps its last token.
            prop_assert_eq!(batch.cached_len(r), spec.prompt_len + spec.decode_len.saturating_sub(1));
            if spec.decode_len >= 1 {
                prop_assert_eq!(solo.cached_len(), spec.prompt_len + spec.decode_len);
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. Load monotonicity: the SLO cliff only moves toward the caller.
// ---------------------------------------------------------------------

/// Under the same seed, a higher Poisson rate moves every arrival
/// earlier (rounded exponential gaps are monotone in the rate), so p99
/// TTFT at fixed capacity must be non-decreasing in the offered load.
#[test]
fn offered_load_up_means_p99_ttft_non_decreasing() {
    for policy in [BatchPolicy::Static { batch: 4 }, BatchPolicy::Continuous { max_slots: 4 }] {
        let mut prev = 0u64;
        for rate in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let scenario = ServeScenario {
                model: ModelPreset::TinyLlama,
                n_chips: 4,
                process: ArrivalProcess::Poisson { rate_per_mcycle: rate },
                policy,
                billing: Billing::FullContext,
                n_requests: 16,
                prompt_len: 16,
                decode_len: 2,
                seed: 42,
                faults: mtp::core::FaultProfile::none(),
            };
            let (report, _solo) = scenario.run().unwrap();
            let mut ttfts: Vec<u64> = report.requests.iter().map(|r| r.ttft()).collect();
            ttfts.sort_unstable();
            let p99 = percentile(&ttfts, 99);
            assert!(
                p99 >= prev,
                "{}: rate {rate}: p99 TTFT {p99} fell below {prev}",
                policy.label(),
            );
            prev = p99;
        }
    }
}

// ---------------------------------------------------------------------
// 5. Every charged pass equals a full simulation of the per-block
//    interleaving.
// ---------------------------------------------------------------------

type Shape = Vec<(InferenceMode, usize)>;

/// The slot shapes of every pass, rebuilt from the pass trace the way
/// per-request billing charges them: prefill slots at their prompt
/// length, decode slots at prompt plus tokens emitted so far.
fn per_request_pass_shapes(report: &ServeReport, seq_len: usize) -> Vec<Shape> {
    let mut emitted = vec![0usize; report.requests.len()];
    report
        .passes
        .iter()
        .map(|p| {
            p.slots
                .iter()
                .map(|&(req, phase)| {
                    let r = &report.requests[req];
                    match phase {
                        SlotPhase::Prefill => {
                            emitted[req] = usize::from(r.decode_len >= 1);
                            (InferenceMode::Prompt, r.prompt_len)
                        }
                        SlotPhase::Decode => {
                            let billed = (r.prompt_len + emitted[req]).min(seq_len);
                            emitted[req] += 1;
                            (InferenceMode::Autoregressive, billed)
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Reference pass makespan: every slot derives each of its `n_layers`
/// block bodies from its own scheduler at its billed context, the
/// streams interleave block-major (block 0's slots, then block 1's, ...)
/// with per-slot disjoint id ranges, and the whole pass runs through
/// the full event-driven simulator — no template, no periodicity.
fn reference_pass_makespan(
    cfg: &TransformerConfig,
    n_chips: usize,
    chip: &ChipSpec,
    topology: &Topology,
    shapes: &[(InferenceMode, usize)],
) -> u64 {
    let mut bodies: Vec<Vec<Vec<Program>>> = Vec::with_capacity(shapes.len());
    let mut strides: Vec<(u64, u32)> = Vec::with_capacity(shapes.len());
    for &(mode, seq) in shapes {
        let slot_cfg = cfg.clone().with_seq_len(seq);
        let mut scheduler =
            Scheduler::new(&slot_cfg, n_chips, chip).unwrap().with_topology(topology.clone());
        let per_block: Vec<Vec<Program>> =
            (0..cfg.n_layers).map(|_| scheduler.block_programs(mode)).collect();
        let (mut max_msg, mut max_sync) = (0u64, 0u32);
        for i in per_block.iter().flatten().flat_map(Program::instrs) {
            match *i {
                Instr::Send { msg, .. } | Instr::Recv { msg, .. } => {
                    max_msg = max_msg.max(msg.0 + 1);
                }
                Instr::Sync(id) => max_sync = max_sync.max(id + 1),
                _ => {}
            }
        }
        bodies.push(per_block);
        strides.push((max_msg, max_sync));
    }
    let mut bases = Vec::with_capacity(strides.len());
    let (mut msg_base, mut sync_base) = (0u64, 0u32);
    for &(dm, ds) in &strides {
        bases.push((msg_base, sync_base));
        msg_base += dm;
        sync_base += ds;
    }
    let mut progs = vec![Program::new(); n_chips];
    for block in 0..cfg.n_layers {
        for (per_block, &(dm, ds)) in bodies.iter().zip(&bases) {
            for (out, body) in progs.iter_mut().zip(&per_block[block]) {
                out.extend(body.instrs().iter().map(|&instr| match instr {
                    Instr::Send { to, msg, bytes } => {
                        Instr::Send { to, msg: MsgId(msg.0 + dm), bytes }
                    }
                    Instr::Recv { from, msg } => Instr::Recv { from, msg: MsgId(msg.0 + dm) },
                    Instr::Sync(id) => Instr::Sync(id + ds),
                    other => other,
                }));
            }
        }
    }
    Machine::homogeneous(*chip, n_chips).run(&progs).unwrap().makespan
}

/// A chip whose finite ingress buffer is not contention-free, so the
/// periodic engine must refuse the fixed point and run in full. The
/// buffer holds a whole reduce fan-in of the largest prompt message, so
/// no sender parks (a smaller one can deadlock, DESIGN.md §11).
fn queued_chip() -> ChipSpec {
    ChipSpec {
        link_regime: LinkRegime::Queued {
            buffer_bytes: 262_144,
            discipline: QueueDiscipline::Backpressure,
        },
        ..ChipSpec::siracusa()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random per-request-billed request sets on TinyLlama (4 or 8
    /// chips, hierarchical group-of-4 or flat reduction, affine or
    /// finite-buffer links) under both policies: every pass record's
    /// cycles equal the full simulation of that pass's per-block
    /// interleaving, whatever mix of prefill and decode slots it held.
    #[test]
    fn prop_serve_passes_equal_full_per_block_simulation(
        n_requests in 1usize..10,
        seed in 0u64..1000,
        slots in 2usize..9,
        system in 0usize..6,
        continuous in 0usize..2,
    ) {
        let cfg = TransformerConfig::tiny_llama_42m();
        let n_chips = if system % 2 == 0 { 4 } else { 8 };
        let topology = if system / 2 == 1 {
            Topology::flat(n_chips).unwrap()
        } else {
            Topology::paper_default(n_chips).unwrap()
        };
        let chip = if system / 2 == 2 { queued_chip() } else { ChipSpec::siracusa() };
        let sys = DistributedSystem::with_chip(cfg.clone(), n_chips, chip)
            .unwrap()
            .with_topology(topology.clone());

        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let requests = (0..n_requests)
            .map(|_| {
                let prompt_len = next(cfg.seq_len as u64 - 1) as usize + 1;
                let decode_len = (next(64) as usize).min(cfg.seq_len - prompt_len);
                ServeRequest { prompt_len, decode_len, arrival_cycles: next(8) * 150_000 }
            })
            .collect();
        let workload = ServeWorkload::new(requests).unwrap();
        let policy = if continuous == 1 {
            BatchPolicy::Continuous { max_slots: slots }
        } else {
            BatchPolicy::Static { batch: slots }
        };
        let report = sys.simulate_serve(&workload, policy, Billing::PerRequest).unwrap();

        let mut reference: HashMap<Shape, u64> = HashMap::new();
        for (shape, pass) in per_request_pass_shapes(&report, cfg.seq_len).into_iter().zip(&report.passes) {
            let full = *reference.entry(shape.clone()).or_insert_with(|| {
                reference_pass_makespan(&cfg, n_chips, &chip, &topology, &shape)
            });
            prop_assert_eq!(pass.cycles, full, "pass of {:?}", shape);
        }
    }
}

// ---------------------------------------------------------------------
// 6. One serving memo per system: shared runs answer as fresh ones.
// ---------------------------------------------------------------------

fn study_system() -> DistributedSystem {
    DistributedSystem::paper_default(TransformerConfig::tiny_llama_42m(), 8).unwrap()
}

fn serve(
    sys: &DistributedSystem,
    (policy, workload): &(BatchPolicy, ServeWorkload),
) -> ServeReport {
    sys.simulate_serve(workload, *policy, Billing::PerRequest).unwrap()
}

/// Every case served on a fresh system of its own.
fn fresh_reports(cases: &[(BatchPolicy, ServeWorkload)]) -> Vec<ServeReport> {
    cases.iter().map(|case| serve(&study_system(), case)).collect()
}

/// One system serves the repository benchmark's six study cases
/// (`serve_study`) forward, another backward (so each memo fills in
/// another order), and the study's solo prefill on the warm system
/// matches a cold one: every report equals the fresh system's.
#[test]
fn one_system_serves_every_case_as_fresh_systems_do() {
    let (cases, solo) = serve_study(11);
    let fresh = fresh_reports(&cases);
    let forward = study_system();
    for (case, expect) in cases.iter().zip(&fresh) {
        assert_eq!(&serve(&forward, case), expect);
    }
    let backward = study_system();
    for (case, expect) in cases.iter().zip(&fresh).rev() {
        assert_eq!(&serve(&backward, case), expect);
    }
    assert_eq!(
        forward.simulate_batch(InferenceMode::Prompt, &solo).unwrap().stats,
        study_system().simulate_batch(InferenceMode::Prompt, &solo).unwrap().stats
    );
}

/// Two threads serve every case on two clones of one system — one
/// forward, one backward — racing on the shared memo; both give the
/// serial fresh-system reports.
#[test]
fn clones_serving_on_two_threads_give_the_serial_reports() {
    let (cases, _) = serve_study(12);
    let fresh = fresh_reports(&cases);
    let shared = study_system();
    std::thread::scope(|scope| {
        let runs: Vec<_> = [false, true]
            .into_iter()
            .map(|backward| {
                let (sys, cases) = (shared.clone(), &cases);
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..cases.len()).collect();
                    if backward {
                        order.reverse();
                    }
                    order.into_iter().map(|i| (i, serve(&sys, &cases[i]))).collect::<Vec<_>>()
                })
            })
            .collect();
        for run in runs {
            for (i, report) in run.join().unwrap() {
                assert_eq!(report, fresh[i], "case {i}");
            }
        }
    });
}

/// A flat reduction tree is another machine: `with_topology` after a
/// hierarchical serve starts a fresh memo and answers as a fresh flat
/// system, although the two trees charge different passes.
#[test]
fn a_new_topology_serves_as_a_fresh_system_of_it() {
    let (cases, _) = serve_study(13);
    let flat = || Topology::flat(8).unwrap();
    let hier = study_system();
    let hier_reports: Vec<ServeReport> = cases.iter().map(|case| serve(&hier, case)).collect();
    let rewired = hier.with_topology(flat());
    let mut differs = false;
    for (case, hier_report) in cases.iter().zip(&hier_reports) {
        let report = serve(&rewired, case);
        assert_eq!(report, serve(&study_system().with_topology(flat()), case));
        differs |= report != *hier_report;
    }
    assert!(differs, "flat and hierarchical reductions charge the same passes");
}
