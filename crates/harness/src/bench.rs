//! The repo's wall-clock benchmark runner (`mtp bench`).
//!
//! This module runs a fixed, versioned set of **hot-path benchmarks** —
//! the blocked tensor kernels, the event-driven simulator, and the
//! cold-cache scenario sweep — and serializes the results as one small
//! JSON document. Each PR that touches a hot path appends its numbers to
//! the repo as `BENCH_<pr>.json` (before/after), so the performance
//! trajectory is reviewable like any other artefact. See DESIGN.md §8
//! for the methodology (best-of-N wall clock, in-process, cold scenario
//! caches).
//!
//! The `--quick` profile cuts repetitions to keep CI smoke runs in the
//! low seconds; it measures the same benchmarks with the same method, so
//! quick numbers are comparable to each other (but noisier than full
//! ones).

use crate::advisor::{self, Constraints, DesignSpace};
use crate::sweep::{PlacementPolicy, SweepEngine, SweepGrid, TopologySpec};
use mtp_core::schedule::Scheduler;
use mtp_kernels::{CalibratedCostModel, ClusterCostModel, Kernel};
use mtp_model::reference::{AttnMask, AttnScratch};
use mtp_model::{
    reference, ArrivalProcess, BatchWorkload, InferenceMode, ServeRequest, ServeWorkload,
    TransformerConfig,
};
use mtp_sim::{ChipSpec, LinkRegime, Machine, QueueDiscipline};
use mtp_tensor::{quantize_symmetric, Backend, ScalarBackend, Tensor};
use std::time::Instant;

/// Benchmark schema identifier emitted into the JSON document.
pub const SCHEMA: &str = "mtp-bench-v1";

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable benchmark name (`kernel/...`, `sim/...`, `sweep/...`).
    pub name: String,
    /// Best (minimum) wall-clock time of one iteration, in nanoseconds.
    pub min_ns: u64,
    /// Iterations measured.
    pub reps: usize,
    /// Bytes one iteration writes, for throughput entries
    /// (`serialize/...`); `None` for the rest.
    pub bytes: Option<u64>,
}

impl BenchResult {
    /// Throughput of a throughput entry: [`BenchResult::bytes`] per
    /// best iteration, in MB/s.
    #[must_use]
    pub fn mb_per_s(&self) -> Option<f64> {
        self.bytes.map(|bytes| bytes as f64 * 1e3 / self.min_ns.max(1) as f64)
    }
}

/// A complete `mtp bench` run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"full"` or `"quick"`.
    pub profile: &'static str,
    /// Results in execution order.
    pub results: Vec<BenchResult>,
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_nanos() as u64;
        best = best.min(dt);
    }
    best
}

/// Runs the benchmark suite. `quick` trades precision for runtime (CI
/// smoke profile).
#[must_use]
pub fn run(quick: bool) -> BenchReport {
    let profile = if quick { "quick" } else { "full" };
    // Kernel reps are deliberately the highest: single-iteration GEMM
    // timings on shared hosts swing by 2-3x under interference, and
    // best-of-N only converges to the true cost once N outlasts the
    // noise bursts (see DESIGN.md §8).
    let (k_reps, s_reps, g_reps) = if quick { (12, 20, 2) } else { (60, 200, 8) };
    let mut results = Vec::new();
    let mut push = |name: &str, min_ns: u64, reps: usize| {
        results.push(BenchResult { name: name.to_owned(), min_ns, reps, bytes: None });
    };

    // --- Tensor kernels: the golden model's matmul-bound hot paths.
    let x = reference::synthetic_input(64, 512, 1);
    let w = reference::synthetic_input(512, 512, 2);
    push(
        "kernel/matmul_64x512x512",
        best_of(k_reps, || {
            std::hint::black_box(x.try_matmul(&w).expect("matmul"));
        }),
        k_reps,
    );
    push(
        "kernel/matmul_t_64x512x512",
        best_of(k_reps, || {
            std::hint::black_box(x.try_matmul_t(&w).expect("matmul_t"));
        }),
        k_reps,
    );
    let mut scratch = Tensor::default();
    push(
        "kernel/matmul_into_64x512x512",
        best_of(k_reps, || {
            x.matmul_into(&w, &mut scratch).expect("matmul_into");
            std::hint::black_box(&scratch);
        }),
        k_reps,
    );

    // --- Backend/dtype axes (PR 8): the same GEMM shape through the
    // always-available scalar backend (the SIMD speedup's denominator),
    // the f16 storage path (widen + f32 accumulate), and the int8
    // quantized path; the entries above measure whatever backend
    // `mtp_tensor::active()` selected (SIMD where the host supports it,
    // `MTP_BACKEND=scalar` to force the fallback).
    let scalar = ScalarBackend;
    let mut scalar_out = vec![0.0f32; 64 * 512];
    push(
        "kernel/matmul_scalar_64x512x512",
        best_of(k_reps, || {
            scalar.matmul_f32(x.as_slice(), w.as_slice(), &mut scalar_out, 64, 512, 512);
            std::hint::black_box(&scalar_out);
        }),
        k_reps,
    );
    let (xh, wh) = (x.to_f16(), w.to_f16());
    push(
        "kernel/matmul_f16_64x512x512",
        best_of(k_reps, || {
            std::hint::black_box(xh.try_matmul(&wh).expect("f16 matmul"));
        }),
        k_reps,
    );
    let (xq, wq) = (quantize_symmetric(&x), quantize_symmetric(&w));
    push(
        "kernel/matmul_i8_64x512x512",
        best_of(k_reps, || {
            std::hint::black_box(xq.matmul_i32(&wq).expect("i8 matmul"));
        }),
        k_reps,
    );

    // --- Decode shapes: one token's matvec through a 512x2048 weight and
    // the 32000-token tied LM head (`x · table^T`), each next to the
    // scalar backend on the same shape. Both are weight-bandwidth bound:
    // the SIMD kernels stream `b` row by row (GEMV) or in 8-row blocks
    // transposed in registers (LM head), with no `k x n` scratch.
    let x1 = reference::synthetic_input(1, 512, 6);
    let w_up = reference::synthetic_input(512, 2048, 7);
    let mut gemv_out = Tensor::default();
    push(
        "kernel/gemv_1x512x2048",
        best_of(k_reps, || {
            x1.matmul_into(&w_up, &mut gemv_out).expect("gemv");
            std::hint::black_box(&gemv_out);
        }),
        k_reps,
    );
    let mut gemv_scalar_out = vec![0.0f32; 2048];
    push(
        "kernel/gemv_scalar_1x512x2048",
        best_of(k_reps, || {
            scalar.matmul_f32(x1.as_slice(), w_up.as_slice(), &mut gemv_scalar_out, 1, 512, 2048);
            std::hint::black_box(&gemv_scalar_out);
        }),
        k_reps,
    );
    let table = reference::synthetic_input(32000, 512, 8);
    let mut logits = Tensor::default();
    push(
        "kernel/lm_head_1x512x32000",
        best_of(k_reps, || {
            x1.matmul_t_into(&table, &mut logits).expect("lm head");
            std::hint::black_box(&logits);
        }),
        k_reps,
    );
    let mut logits_scalar = vec![0.0f32; 32000];
    push(
        "kernel/lm_head_scalar_1x512x32000",
        best_of(k_reps, || {
            scalar.matmul_t_f32(x1.as_slice(), table.as_slice(), &mut logits_scalar, 1, 512, 32000);
            std::hint::black_box(&logits_scalar);
        }),
        k_reps,
    );
    drop(table);

    // --- Fused attention hot path: 8 heads of dim 64 over 64 causal
    // positions — scores GEMM + softmax + value GEMM exactly as the
    // model layer runs them (backend-routed since PR 8).
    let aq = reference::synthetic_input(64, 512, 3);
    let ak = reference::synthetic_input(64, 512, 4);
    let av = reference::synthetic_input(64, 512, 5);
    let mut attn_scratch = AttnScratch::default();
    let mut attn_out = Tensor::default();
    push(
        "kernel/attention_64t_h8_d64",
        best_of(k_reps, || {
            reference::attention_heads_into(
                &aq,
                &ak,
                &av,
                64,
                AttnMask::Causal { q_offset: 0 },
                &mut attn_scratch,
                &mut attn_out,
            );
            std::hint::black_box(&attn_out);
        }),
        k_reps,
    );

    // --- Simulator: the paper's 8-chip autoregressive block, aggregates
    // only (MakespanOnly sink).
    let chip = ChipSpec::siracusa();
    let cfg = TransformerConfig::tiny_llama_42m();
    let mut scheduler = Scheduler::new(&cfg, 8, &chip).expect("scheduler");
    let programs = scheduler.model_programs(InferenceMode::Autoregressive, 1).expect("programs");
    let machine = Machine::homogeneous(chip, 8);
    push(
        "sim/8chip_ar_block",
        best_of(s_reps, || {
            std::hint::black_box(machine.run(&programs).expect("run"));
        }),
        s_reps,
    );

    // --- The streamed regime: one chip streams every weight slice from
    // L3 in 4 KiB tiles, the baseline the paper's speedups are measured
    // against. Six `DmaStream` instructions carry the tiles.
    let streamed_programs = Scheduler::new(&cfg, 1, &chip)
        .expect("scheduler")
        .model_programs(InferenceMode::Autoregressive, 1)
        .expect("programs");
    let one_chip = Machine::homogeneous(chip, 1);
    push(
        "sim/1chip_streamed_block",
        best_of(s_reps, || {
            std::hint::black_box(one_chip.run(&streamed_programs).expect("run"));
        }),
        s_reps,
    );

    // --- Periodic steady-state engine: the same machine over a 96-block
    // deep-model pass — full event-driven simulation of every block vs.
    // warmup-and-extrapolate (`Machine::run_periodic`), which pins the
    // tentpole speedup of PR 4 on every host.
    let deep_cfg = TransformerConfig::tiny_llama_deep(96);
    let deep_programs = Scheduler::new(&deep_cfg, 8, &chip)
        .expect("scheduler")
        .model_programs(InferenceMode::Autoregressive, 96)
        .expect("programs");
    let template = Scheduler::new(&deep_cfg, 8, &chip)
        .expect("scheduler")
        .block_programs(InferenceMode::Autoregressive);
    let d_reps = if quick { 3 } else { 20 };
    push(
        "sim/8chip_ar_deep96_full",
        best_of(d_reps, || {
            std::hint::black_box(machine.run(&deep_programs).expect("run"));
        }),
        d_reps,
    );
    push(
        "sim/8chip_ar_deep96_periodic",
        best_of(s_reps, || {
            std::hint::black_box(machine.run_periodic(&template, 96).expect("run_periodic"));
        }),
        s_reps,
    );

    // --- Sweep: the default `mtp sweep` grid, cold scenario cache every
    // iteration (a fresh engine), serial so the number is comparable
    // across machines with different core counts.
    let grid = SweepGrid::paper_default();
    push(
        "sweep/default_grid_cold_serial",
        best_of(g_reps, || {
            let engine = SweepEngine::serial();
            std::hint::black_box(engine.run(&grid).rows.len());
        }),
        g_reps,
    );

    // --- Deep sweep: the `mtp sweep --deep` model-span grid (hundreds of
    // blocks per scenario), cold caches every iteration — the workload
    // periodic extrapolation plus the compiled-schedule cache make
    // practical.
    let deep_grid = SweepGrid::deep_default();
    push(
        "sweep/deep_grid_cold_serial",
        best_of(g_reps, || {
            let engine = SweepEngine::serial();
            std::hint::black_box(engine.run(&deep_grid).rows.len());
        }),
        g_reps,
    );

    // --- Batched simulator entry: the same 8-chip machine serving a
    // uniform batch of 8 requests over 8 blocks. A batch is a block
    // count: 64 block instances of one template, so the periodic path
    // should sit near the single-request deep numbers; the full path
    // simulates every instance.
    let batch_programs = Scheduler::new(&cfg, 8, &chip)
        .expect("scheduler")
        .model_programs(InferenceMode::Autoregressive, 8 * 8)
        .expect("programs");
    let block_template = Scheduler::new(&cfg, 8, &chip)
        .expect("scheduler")
        .block_programs(InferenceMode::Autoregressive);
    push(
        "sim/8chip_ar_8blk_b8_full",
        best_of(d_reps, || {
            std::hint::black_box(machine.run(&batch_programs).expect("run"));
        }),
        d_reps,
    );
    push(
        "sim/8chip_ar_8blk_b8_periodic",
        best_of(s_reps, || {
            std::hint::black_box(machine.run_periodic(&block_template, 8 * 8).expect("periodic"));
        }),
        s_reps,
    );

    // --- Batched deep sweep: the deep grid again with four interleaved
    // requests per scenario (4x the block instances). The acceptance
    // gate for the batching subsystem: within ~2x of the single-request
    // deep sweep above, because every batch size shares the
    // single-request template and warmup.
    let batch_grid = SweepGrid::deep_default().with_batch_sizes(vec![4]);
    push(
        "sweep/deep_grid_batch4_cold_serial",
        best_of(g_reps, || {
            let engine = SweepEngine::serial();
            std::hint::black_box(engine.run(&batch_grid).rows.len());
        }),
        g_reps,
    );

    // --- Queued link regime: the same 8-chip block through the
    // packet-level arbitration path. The infinite buffer guards the
    // affine hot path (timing-identical by the lockstep suite, so the
    // delta is pure queue bookkeeping); the finite buffer adds credit
    // tracking and waiter wakeups on top.
    let qinf_machine = Machine::homogeneous(
        ChipSpec {
            link_regime: LinkRegime::Queued {
                buffer_bytes: u64::MAX,
                discipline: QueueDiscipline::Backpressure,
            },
            ..chip
        },
        8,
    );
    push(
        "sim/8chip_ar_block_qinf",
        best_of(s_reps, || {
            std::hint::black_box(qinf_machine.run(&programs).expect("run"));
        }),
        s_reps,
    );
    let qbuf_machine = Machine::homogeneous(
        ChipSpec {
            link_regime: LinkRegime::Queued {
                buffer_bytes: 1 << 20,
                discipline: QueueDiscipline::Backpressure,
            },
            ..chip
        },
        8,
    );
    push(
        "sim/8chip_ar_block_q1m",
        best_of(s_reps, || {
            std::hint::black_box(qbuf_machine.run(&programs).expect("run"));
        }),
        s_reps,
    );

    // --- Warm-resume across depths: the proven steady state evaluated
    // at 192 blocks vs. a cold run_periodic of the same depth.
    // Evaluation skips the whole warmup walk, so it should be near free
    // next to the cold path.
    let model = mtp_sim::SymbolicMakespan::derive(&machine, &template)
        .expect("warmup")
        .expect("deep template must converge in warmup");
    push(
        "sim/8chip_ar_d192_periodic_cold",
        best_of(s_reps, || {
            std::hint::black_box(machine.run_periodic(&template, 192).expect("run_periodic"));
        }),
        s_reps,
    );
    push(
        "sim/8chip_ar_d192_periodic_warm",
        best_of(s_reps, || {
            std::hint::black_box(model.eval(192).expect("eval"));
        }),
        s_reps,
    );

    // --- Serving: the default `mtp serve` grid, cold engine (and so
    // cold systems and serving memos) every iteration — the open-loop
    // continuous-batching frontend end to end.
    let serve_grid = crate::serve::ServeGrid::paper_default();
    push(
        "serve/default_grid_cold",
        best_of(g_reps, || {
            let mut engine = crate::serve::ServeEngine::new();
            std::hint::black_box(engine.run(&serve_grid).rows.len());
        }),
        g_reps,
    );

    // --- Per-request-billed continuous serving: each decode slot bills
    // its own filled context, so a pass holding several requests is
    // mixed unless every slot bills the same context, and each distinct
    // mixed shape runs one interleaved block through the periodic engine.
    let per_request_grid = crate::serve::ServeGrid::paper_default()
        .with_chip_counts(vec![8])
        .with_policies(vec![mtp_core::BatchPolicy::Continuous { max_slots: 8 }])
        .with_billings(vec![mtp_core::Billing::PerRequest])
        .with_requests(64, 16, 32);
    push(
        "serve/per_request_continuous",
        best_of(g_reps, || {
            let mut engine = crate::serve::ServeEngine::new();
            std::hint::black_box(engine.run(&per_request_grid).rows.len());
        }),
        g_reps,
    );

    // --- The repository benchmark's serving study on one fresh system
    // per iteration: six per-request-billed runs plus the solo-prefill
    // baseline, sharing the system's serving memo.
    let (study, solo) = serve_study(11);
    push(
        "serve/study_one_system",
        best_of(d_reps, || {
            let sys = mtp_core::DistributedSystem::paper_default(cfg.clone(), 8).expect("8 chips");
            for (policy, workload) in &study {
                let report = sys
                    .simulate_serve(workload, *policy, mtp_core::Billing::PerRequest)
                    .expect("serve");
                std::hint::black_box(report.makespan);
            }
            let solo = sys.simulate_batch(InferenceMode::Prompt, &solo).expect("solo prefill");
            std::hint::black_box(solo.stats.makespan);
        }),
        d_reps,
    );

    // --- Design-space advisor: the `advise` query of the repository
    // benchmark's design loop (TinyLlama AR, every valid chip count up
    // to 8, both topologies and placements, a 30-point bandwidth range),
    // symbolic scoring from a handful of compiles.
    let advise_space = DesignSpace {
        topologies: vec![TopologySpec::PaperDefault, TopologySpec::Flat],
        placements: vec![PlacementPolicy::Auto, PlacementPolicy::ForceStreamed],
        chip_counts: advisor::valid_chip_counts(&cfg, 8),
        link_bw_pcts: (10..40).collect(),
    };
    let advise_limits = Constraints { max_latency_ms: Some(5.0), max_energy_mj: None };
    push(
        "advise/tinyllama_ar_30bw",
        best_of(d_reps, || {
            let advice =
                advisor::advise(&cfg, InferenceMode::Autoregressive, advise_limits, &advise_space)
                    .expect("advise");
            std::hint::black_box(advice.candidates.len());
        }),
        d_reps,
    );

    // --- Serialization: the CSV and JSON tables of one fixed sweep
    // result (the paper grid at three bandwidths and both placements,
    // simulated once outside the timed loop), in MB/s of output.
    let paper = SweepEngine::serial().run(
        &SweepGrid::paper_default()
            .with_link_bw_pcts(vec![50, 100, 200])
            .with_placements(vec![PlacementPolicy::Auto, PlacementPolicy::ForceStreamed]),
    );
    let bytes = (paper.to_csv().len() + paper.to_json().len()) as u64;
    results.push(BenchResult {
        name: "serialize/paper_grid".to_owned(),
        min_ns: best_of(s_reps, || {
            std::hint::black_box((paper.to_csv(), paper.to_json()));
        }),
        reps: s_reps,
        bytes: Some(bytes),
    });

    BenchReport { profile, results }
}

/// The serving study of the repository benchmark's `serve_open_loop`
/// workload, for TinyLlama on 8 chips under per-request billing: 16
/// requests (prompts of 4..=64 tokens, 1..=64 decoded) drawn from `seed`,
/// served under `continuous:8` and `static:8`, each at 0.007, 0.013 and
/// 0.03 requests per megacycle from one arrival draw, plus the
/// solo-prefill batch at the mean prompt.
#[must_use]
pub fn serve_study(seed: u64) -> (Vec<(mtp_core::BatchPolicy, ServeWorkload)>, BatchWorkload) {
    const REQUESTS: usize = 16;
    let mut rng = mtp_tensor::SplitMix64::new(seed);
    let mut draw = |lo: u64, hi: u64| (lo + rng.next_u64() % (hi - lo + 1)) as usize;
    let shapes: Vec<(usize, usize)> = (0..REQUESTS).map(|_| (draw(4, 64), draw(1, 64))).collect();
    let arrival_seed = rng.next_u64();
    let mut cases = Vec::new();
    for policy in [
        mtp_core::BatchPolicy::Continuous { max_slots: 8 },
        mtp_core::BatchPolicy::Static { batch: 8 },
    ] {
        for rate_per_mcycle in [0.007, 0.013, 0.03] {
            let arrivals =
                ArrivalProcess::Poisson { rate_per_mcycle }.sample(REQUESTS, arrival_seed);
            let requests = shapes
                .iter()
                .zip(arrivals)
                .map(|(&(prompt_len, decode_len), arrival_cycles)| ServeRequest {
                    prompt_len,
                    decode_len,
                    arrival_cycles,
                })
                .collect();
            cases.push((policy, ServeWorkload::new(requests).expect("non-empty prompts")));
        }
    }
    let mean_prompt = shapes.iter().map(|s| s.0).sum::<usize>() / REQUESTS;
    (cases, BatchWorkload::uniform(1, mean_prompt, 0))
}

/// Parses the benchmark entries of a committed `BENCH_*.json` baseline
/// (or an `mtp bench --json` report): each entry's `name` paired with its
/// nanosecond figure — `after_ns` for trajectory files, `min_ns` for raw
/// reports. Entries without a numeric figure (e.g. a `null` before/after)
/// are skipped. The scanner is schema-tolerant on purpose: the repo
/// vendors no JSON parser, and the two formats share only these keys.
///
/// # Errors
///
/// Returns a message when no benchmark entry can be extracted.
pub fn parse_baseline(json: &str) -> Result<Vec<(String, u64)>, String> {
    fn number_after(scope: &str, key: &str) -> Option<u64> {
        let at = scope.find(key)?;
        let value = scope[at + key.len()..]
            .trim_start_matches(|c: char| c == '"' || c == ':' || c.is_whitespace());
        let digits: &str =
            &value[..value.find(|c: char| !c.is_ascii_digit()).unwrap_or(value.len())];
        digits.parse().ok()
    }
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"name\"") {
        rest = &rest[pos + "\"name\"".len()..];
        let open = rest.find('"').ok_or("malformed baseline: unterminated name")?;
        let value = &rest[open + 1..];
        let close = value.find('"').ok_or("malformed baseline: unterminated name")?;
        let name = value[..close].to_owned();
        rest = &value[close + 1..];
        let scope = &rest[..rest.find("\"name\"").unwrap_or(rest.len())];
        if let Some(ns) =
            number_after(scope, "\"after_ns\"").or_else(|| number_after(scope, "\"min_ns\""))
        {
            out.push((name, ns));
        }
    }
    if out.is_empty() {
        return Err("no benchmark entries found in baseline".to_owned());
    }
    Ok(out)
}

/// A fresh run diffed against a committed baseline (`mtp bench
/// --compare`).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// `(name, baseline_ns, current_ns)` for every benchmark present in
    /// both, in current-run order.
    pub rows: Vec<(String, u64, u64)>,
    /// Benchmarks of the current run absent from the baseline.
    pub unmatched: Vec<String>,
}

impl BenchReport {
    /// Diffs this run against parsed baseline entries (see
    /// [`parse_baseline`]).
    #[must_use]
    pub fn compare(&self, baseline: &[(String, u64)]) -> Comparison {
        let mut rows = Vec::new();
        let mut unmatched = Vec::new();
        for r in &self.results {
            match baseline.iter().find(|(name, _)| *name == r.name) {
                Some(&(_, base_ns)) => rows.push((r.name.clone(), base_ns, r.min_ns)),
                None => unmatched.push(r.name.clone()),
            }
        }
        Comparison { rows, unmatched }
    }
}

impl Comparison {
    /// Renders the per-bench speedup table (`baseline / current`; above
    /// 1.0 means the current tree is faster).
    #[must_use]
    pub fn render(&self) -> String {
        self.render_table(None)
    }

    /// Renders the speedup table with an explicit per-row verdict against
    /// `tolerance`: every matched row ends in `ok (within <tol>x)` or
    /// `REGRESSION`. The CI guard prints this form so a log reader (or a
    /// grep) never has to re-derive which rows the gate actually flagged —
    /// noisy-but-in-tolerance rows are marked ok, not left ambiguous.
    #[must_use]
    pub fn render_checked(&self, tolerance: f64) -> String {
        self.render_table(Some(tolerance))
    }

    fn render_table(&self, tolerance: Option<f64>) -> String {
        let mut out = String::from("vs baseline (speedup = baseline/current; >1 is faster):\n");
        for (name, base, cur) in &self.rows {
            let verdict = match tolerance {
                Some(tol) if *cur as f64 > tol * (*base).max(1) as f64 => "   REGRESSION".into(),
                Some(tol) => format!("   ok (within {tol}x)"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {:<34} {:>12} -> {:>12} ns   {:>6.2}x{}\n",
                name,
                base,
                cur,
                *base as f64 / (*cur).max(1) as f64,
                verdict,
            ));
        }
        for name in &self.unmatched {
            out.push_str(&format!("  {name:<34} (not in baseline)\n"));
        }
        out
    }

    /// The worst slowdown factor across matched benchmarks
    /// (`current / baseline`; 1.0 when nothing matched).
    #[must_use]
    pub fn worst_slowdown(&self) -> f64 {
        self.rows
            .iter()
            .map(|(_, base, cur)| *cur as f64 / (*base).max(1) as f64)
            .fold(1.0, f64::max)
    }

    /// Fails when any matched benchmark is more than `tolerance` times
    /// slower than its baseline. The CI guard runs this with a generous
    /// tolerance so shared-runner noise never trips it — only
    /// order-of-magnitude regressions do.
    ///
    /// # Errors
    ///
    /// Returns a message naming the worst offender, or an error when no
    /// benchmark matched the baseline at all (a renamed suite or an
    /// incompatible baseline must fail loudly, not gate vacuously).
    pub fn check(&self, tolerance: f64) -> Result<(), String> {
        if self.rows.is_empty() {
            return Err("no benchmark matches the baseline; the perf gate cannot run (renamed \
                 benches or an incompatible baseline file?)"
                .to_owned());
        }
        let worst = self.worst_slowdown();
        if worst > tolerance {
            let (name, base, cur) = self
                .rows
                .iter()
                .max_by(|a, b| {
                    let sa = a.2 as f64 / a.1.max(1) as f64;
                    let sb = b.2 as f64 / b.1.max(1) as f64;
                    sa.total_cmp(&sb)
                })
                .expect("worst > 1.0 implies a row");
            return Err(format!(
                "perf regression: `{name}` is {worst:.1}x slower than baseline \
                 ({base} ns -> {cur} ns; tolerance {tolerance}x)"
            ));
        }
        Ok(())
    }
}

impl BenchReport {
    /// Renders an aligned text summary (what `mtp bench` prints).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("mtp bench ({} profile)\n", self.profile);
        for r in &self.results {
            out.push_str(&format!(
                "  {:<34} min {:>12.3?}   ({} reps)",
                r.name,
                std::time::Duration::from_nanos(r.min_ns),
                r.reps
            ));
            if let Some(mb_per_s) = r.mb_per_s() {
                out.push_str(&format!("   {mb_per_s:.1} MB/s"));
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the report as the committed `BENCH_*.json` "after"
    /// fragment: `{"schema", "profile", "benches": [{name, min_ns,
    /// reps}]}`, throughput entries adding `mb_per_s`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"profile\": \"{}\",\n  \"benches\": [\n",
            self.profile
        );
        for (i, r) in self.results.iter().enumerate() {
            let throughput =
                r.mb_per_s().map(|mb| format!(", \"mb_per_s\": {mb:.1}")).unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"min_ns\": {}, \"reps\": {}{throughput}}}{}\n",
                r.name,
                r.min_ns,
                r.reps,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the host-timing calibration (`mtp bench --calibrate`): measures
/// the real kernels best-of-N, fits a [`CalibratedCostModel`] at the
/// Siracusa 500 MHz clock, and renders the fitted cycle counts next to
/// the analytic model's for representative kernels. The two columns are
/// *expected* to differ — host SIMD throughput is not an MCU cluster —
/// but their relative shape across kernels is the sanity check the
/// calibrated [`mtp_kernels::CostSource`] variant exists for.
#[must_use]
pub fn render_calibration(quick: bool) -> String {
    let reps = if quick { 5 } else { 20 };
    let clock_hz = 500e6;
    let calibrated = CalibratedCostModel::measure(clock_hz, reps);
    let analytic = ClusterCostModel::siracusa();
    let mut out =
        format!("calibrated cost model ({reps} reps, clock {:.0} MHz):\n", clock_hz / 1e6);
    out.push_str(&format!("  {:<26} {:>16} {:>18}\n", "kernel", "analytic_cyc", "calibrated_cyc"));
    let kernels = [
        Kernel::gemm(64, 512, 512),
        Kernel::gemv(512, 512),
        Kernel::Softmax { rows: 64, cols: 512 },
        Kernel::LayerNorm { rows: 64, cols: 512 },
        Kernel::Gelu { n: 64 * 512 },
    ];
    for k in &kernels {
        out.push_str(&format!(
            "  {:<26} {:>16} {:>18}\n",
            k.to_string(),
            analytic.cycles(k),
            calibrated.cycles(k)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_runs_every_bench() {
        let report = run(true);
        assert_eq!(report.profile, "quick");
        assert_eq!(report.results.len(), 29);
        for r in &report.results {
            assert!(r.min_ns > 0, "{} measured nothing", r.name);
        }
        // The periodic path must beat full simulation of the same deep
        // workload by a wide margin even under quick-profile noise.
        let ns =
            |name: &str| report.results.iter().find(|r| r.name == name).map(|r| r.min_ns).unwrap();
        assert!(
            ns("sim/8chip_ar_deep96_periodic") * 5 <= ns("sim/8chip_ar_deep96_full"),
            "periodic {} ns vs full {} ns",
            ns("sim/8chip_ar_deep96_periodic"),
            ns("sim/8chip_ar_deep96_full")
        );
        // Request-level periodicity: the batched periodic path must beat
        // full simulation of every block instance.
        assert!(
            ns("sim/8chip_ar_8blk_b8_periodic") * 5 <= ns("sim/8chip_ar_8blk_b8_full"),
            "batched periodic {} ns vs full {} ns",
            ns("sim/8chip_ar_8blk_b8_periodic"),
            ns("sim/8chip_ar_8blk_b8_full")
        );
        // Resuming from a warmup checkpoint skips the whole warmup loop,
        // so the warm path must clearly beat the cold periodic run.
        assert!(
            ns("sim/8chip_ar_d192_periodic_warm") * 2 <= ns("sim/8chip_ar_d192_periodic_cold"),
            "warm resume {} ns vs cold periodic {} ns",
            ns("sim/8chip_ar_d192_periodic_warm"),
            ns("sim/8chip_ar_d192_periodic_cold")
        );
        // The batched deep sweep shares templates and warmups with the
        // single-request deep sweep, so it must land within a small
        // factor of it (the ~2x acceptance gate, with headroom for
        // quick-profile noise on shared runners).
        assert!(
            ns("sweep/deep_grid_batch4_cold_serial") <= 3 * ns("sweep/deep_grid_cold_serial"),
            "batched deep sweep {} ns vs single-request {} ns",
            ns("sweep/deep_grid_batch4_cold_serial"),
            ns("sweep/deep_grid_cold_serial")
        );
    }

    #[test]
    fn baseline_parsing_reads_both_schemas() {
        let trajectory = r#"{"benches": [
            {"name": "kernel/a", "before_ns": 100, "after_ns": 50, "speedup": 2.0},
            {"name": "kernel/b", "before_ns": null, "after_ns": 70, "note": "new"},
            {"name": "kernel/skipped", "before_ns": 5, "after_ns": null}
        ]}"#;
        assert_eq!(
            parse_baseline(trajectory).unwrap(),
            vec![("kernel/a".to_owned(), 50), ("kernel/b".to_owned(), 70)]
        );
        let raw = r#"{"benches": [{"name": "sim/x", "min_ns": 42, "reps": 3}]}"#;
        assert_eq!(parse_baseline(raw).unwrap(), vec![("sim/x".to_owned(), 42)]);
        assert!(parse_baseline("{}").is_err());
    }

    #[test]
    fn comparison_flags_only_order_of_magnitude_regressions() {
        let report = BenchReport {
            profile: "quick",
            results: vec![
                BenchResult { name: "kernel/a".into(), min_ns: 200, reps: 1, bytes: None },
                BenchResult { name: "kernel/new".into(), min_ns: 7, reps: 1, bytes: None },
            ],
        };
        let baseline = vec![("kernel/a".to_owned(), 100)];
        let cmp = report.compare(&baseline);
        assert_eq!(cmp.rows, vec![("kernel/a".to_owned(), 100, 200)]);
        assert_eq!(cmp.unmatched, vec!["kernel/new".to_owned()]);
        assert!((cmp.worst_slowdown() - 2.0).abs() < 1e-12);
        // 2x slower passes a 10x gate but fails a 1.5x gate.
        cmp.check(10.0).unwrap();
        let err = cmp.check(1.5).unwrap_err();
        assert!(err.contains("kernel/a"), "{err}");
        let rendered = cmp.render();
        assert!(rendered.contains("kernel/a"));
        assert!(rendered.contains("0.50x"));
        assert!(rendered.contains("not in baseline"));
        // A comparison with zero matched rows must fail the gate loudly
        // rather than pass vacuously.
        let disjoint = report.compare(&[("kernel/renamed".to_owned(), 1)]);
        assert!(disjoint.check(10.0).unwrap_err().contains("no benchmark matches"));
    }

    #[test]
    fn checked_render_marks_every_row_explicitly() {
        let report = BenchReport {
            profile: "quick",
            results: vec![
                BenchResult { name: "kernel/noisy".into(), min_ns: 180, reps: 1, bytes: None },
                BenchResult { name: "kernel/bad".into(), min_ns: 5000, reps: 1, bytes: None },
            ],
        };
        let baseline = vec![("kernel/noisy".to_owned(), 100), ("kernel/bad".to_owned(), 100)];
        let rendered = report.compare(&baseline).render_checked(10.0);
        // The 1.8x-slower row is explicitly in tolerance; only the 50x
        // row is flagged — a log grep for REGRESSION matches exactly the
        // rows the gate would fail on.
        let noisy = rendered.lines().find(|l| l.contains("kernel/noisy")).unwrap();
        assert!(noisy.contains("ok (within 10x)"), "{noisy}");
        assert!(!noisy.contains("REGRESSION"), "{noisy}");
        let bad = rendered.lines().find(|l| l.contains("kernel/bad")).unwrap();
        assert!(bad.contains("REGRESSION"), "{bad}");
        // The unchecked render carries no verdict column at all.
        assert!(!report.compare(&baseline).render().contains("ok (within"));
    }

    #[test]
    fn calibration_renders_all_op_classes() {
        let rendered = render_calibration(true);
        for label in ["gemm[64x512x512]", "gemv[512x512]", "softmax", "layernorm", "gelu"] {
            assert!(rendered.contains(label), "missing {label} in:\n{rendered}");
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let report = BenchReport {
            profile: "quick",
            results: vec![
                BenchResult { name: "kernel/x".into(), min_ns: 42, reps: 3, bytes: None },
                BenchResult {
                    name: "serialize/y".into(),
                    min_ns: 2000,
                    reps: 3,
                    bytes: Some(5000),
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"mtp-bench-v1\""));
        assert!(json.contains("\"name\": \"kernel/x\", \"min_ns\": 42, \"reps\": 3},"));
        assert!(json.contains("\"min_ns\": 2000, \"reps\": 3, \"mb_per_s\": 2500.0}"));
        assert!(report.render().contains("2500.0 MB/s"));
        assert!(json.ends_with("}\n"));
        assert!(report.render().contains("kernel/x"));
    }
}
