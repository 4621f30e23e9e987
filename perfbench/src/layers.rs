//! The traced run and its per-layer metrics.
//!
//! The traced run repeats the workload's inputs with spans around every
//! layer call the benchmark makes (see `trace.rs`), then runs a small
//! fixed probe of the other two workloads so every layer metric is a
//! measurement on every workload, the tensor kernels at the workloads'
//! own shapes, the FMA peak probe, and (for the CLI layer) the
//! CLI-expressible design queries as `mtp` processes.

use crate::golden::random_tensor;
use crate::trace::Tracer;
use crate::{design, golden, host, serve, Args, Check};
use mtp_model::reference::{attention_heads_into, AttnMask, AttnScratch};
use mtp_tensor::Tensor;
use std::time::Instant;

/// Every per-layer metric with its unit, in report order.
pub const NAMES: [(&str, &str); 52] = [
    ("sweep.run_ms", "ms"),
    ("sweep.self_ms", "ms"),
    ("sweep.scenarios", "count"),
    ("sweep.unique_simulated", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.dedup_ratio", "ratio"),
    ("serialize.ms", "ms"),
    ("serialize.mb", "MB"),
    ("schedule.compile_ms", "ms"),
    ("schedule.compiles", "count"),
    ("schedule.reuse_ratio", "ratio"),
    ("schedule.template_instrs", "count"),
    ("exec.full_ms", "ms"),
    ("exec.instrs", "count"),
    ("exec.ns_per_instr", "ns"),
    ("periodic.warmup_ms", "ms"),
    ("periodic.resume_ms", "ms"),
    ("periodic.warm_groups", "count"),
    ("periodic.unconverged", "count"),
    ("advise.run_ms", "ms"),
    ("advise.points", "count"),
    ("advise.compiled", "count"),
    ("advise.warmups", "count"),
    ("advise.symbolic_share", "ratio"),
    ("headline.run_ms", "ms"),
    ("fault.sim_ms", "ms"),
    ("fault.events", "count"),
    ("fault.ns_per_event", "ns"),
    ("serve.sim_ms", "ms"),
    ("serve.passes", "count"),
    ("serve.mixed_pass_share", "ratio"),
    ("serve.distinct_shapes", "count"),
    ("serve.us_per_pass", "us"),
    ("serve.solo_prefill_ms", "ms"),
    ("functional.step_ms", "ms"),
    ("functional.block_ms", "ms"),
    ("functional.encode_ms", "ms"),
    ("functional.fanout_ms", "ms"),
    ("generate.lm_head_ms", "ms"),
    ("generate.lm_head_share", "ratio"),
    ("kv.gather_ms", "ms"),
    ("tensor.gemv_gflops", "GFLOP/s"),
    ("tensor.gemv_peak_pct", "%"),
    ("tensor.lm_head_gflops", "GFLOP/s"),
    ("tensor.lm_head_peak_pct", "%"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_peak_pct", "%"),
    ("tensor.attention_us", "us"),
    ("tensor.peak_gflops", "GFLOP/s"),
    ("tensor.ws_allocs_per_token", "count"),
    ("cli.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Median host time of `[m x k] · [k x n]` (or `· [n x k]^T` when
/// `transposed`) in ms, and its GFLOP/s.
pub fn time_matmul(m: usize, k: usize, n: usize, transposed: bool) -> (f64, f64) {
    let a = random_tensor(m, k, 1);
    let b = if transposed { random_tensor(n, k, 2) } else { random_tensor(k, n, 2) };
    let mut out = Tensor::default();
    let call = |out: &mut Tensor| {
        if transposed {
            a.matmul_t_into(&b, out).expect("shapes agree");
        } else {
            a.matmul_into(&b, out).expect("shapes agree");
        }
    };
    call(&mut out);
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || (started.elapsed().as_secs_f64() < 0.05 && samples.len() < 2000) {
        let t0 = Instant::now();
        call(&mut out);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let ms = crate::stats::median(&samples);
    (ms, 2.0 * (m * k * n) as f64 / (ms * 1e-3) / 1e9)
}

/// Median host time of one decode-step attention call in µs: a
/// `[1 x q_width]` query over `ctx` cached positions.
pub fn attention_us(q_width: usize, kv_width: usize, head_dim: usize, ctx: usize) -> f64 {
    let q = random_tensor(1, q_width, 3);
    let k = random_tensor(ctx, kv_width, 4);
    let v = random_tensor(ctx, kv_width, 5);
    let (mut scratch, mut out) = (AttnScratch::default(), Tensor::default());
    let mask = AttnMask::Causal { q_offset: ctx - 1 };
    let mut samples = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        attention_heads_into(&q, &k, &v, head_dim, mask, &mut scratch, &mut out);
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&samples)
}

/// Kernel throughput at the workloads' own shapes against the FMA peak.
fn tensor_probes(t: &mut Tracer) -> &'static str {
    let (peak, isa) = host::fma_peak_gflops();
    let gemv = (time_matmul(1, 512, 512, false).1 + time_matmul(1, 512, 2048, false).1) / 2.0;
    let lm_head = time_matmul(1, 512, golden::VOCAB, true).1;
    let gemm = time_matmul(268, 512, 512, false).1;
    for (name, v) in [
        ("tensor.peak_gflops", peak),
        ("tensor.gemv_gflops", gemv),
        ("tensor.lm_head_gflops", lm_head),
        ("tensor.gemm_gflops", gemm),
        ("tensor.attention_us", attention_us(64, 64, 64, 128)),
    ] {
        t.count(name, v);
    }
    isa
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics from the spans and counters of a traced run.
pub fn metrics(t: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let c = |n: &str| t.counter(n);
    let ms = |n: &str| t.total_ms(n);
    let replay_ms = ms("schedule.compile")
        + ms("periodic.sim")
        + ms("periodic.warmup")
        + ms("periodic.resume")
        + ms("fault.sim");
    let peak = c("tensor.peak_gflops");
    let step_mean = ratio(ms("functional.step"), t.n("functional.step") as f64);
    let lm_head = ms("generate.lm_head");
    let value = |name: &str| -> f64 {
        match name {
            "sweep.run_ms" => ms("sweep.run"),
            "sweep.self_ms" => ms("sweep.run") - replay_ms,
            "sweep.scenarios" => c("sweep.scenarios"),
            "sweep.unique_simulated" => c("sweep.unique_simulated"),
            "sweep.cache_hits" => c("sweep.cache_hits"),
            "sweep.dedup_ratio" => ratio(c("sweep.rows"), c("sweep.unique_simulated")),
            "serialize.ms" => ms("serialize"),
            "serialize.mb" => c("serialize.bytes") / 1e6,
            "schedule.compile_ms" => ms("schedule.compile"),
            "schedule.compiles" => t.n("schedule.compile") as f64,
            "schedule.reuse_ratio" => {
                ratio(c("schedule.scenarios"), t.n("schedule.compile") as f64)
            }
            "schedule.template_instrs" => c("schedule.template_instrs"),
            "exec.full_ms" => ms("exec.full"),
            "exec.instrs" => c("exec.instrs"),
            "exec.ns_per_instr" => ratio(ms("exec.full") * 1e6, c("exec.instrs")),
            "periodic.warmup_ms" => ms("periodic.warmup"),
            "periodic.resume_ms" => ms("periodic.resume"),
            "periodic.warm_groups" => c("periodic.warm_groups"),
            "periodic.unconverged" => c("periodic.unconverged"),
            "advise.run_ms" => ms("advise.run"),
            "advise.points" => c("advise.points"),
            "advise.compiled" => c("advise.compiled"),
            "advise.warmups" => c("advise.warmups"),
            "advise.symbolic_share" => ratio(c("advise.symbolic"), c("advise.points")),
            "headline.run_ms" => ms("headline.run"),
            "fault.sim_ms" => ms("fault.sim"),
            "fault.events" => c("fault.events"),
            "fault.ns_per_event" => ratio(ms("fault.sim") * 1e6, c("fault.events")),
            "serve.sim_ms" => ms("serve.sim"),
            "serve.passes" => c("serve.passes"),
            "serve.mixed_pass_share" => ratio(c("serve.mixed"), c("serve.passes")),
            "serve.distinct_shapes" => c("serve.distinct_shapes"),
            "serve.us_per_pass" => ratio(ms("serve.sim") * 1e3, c("serve.passes")),
            "serve.solo_prefill_ms" => ms("serve.solo_prefill"),
            "functional.step_ms" => ms("functional.step"),
            "functional.block_ms" => ms("functional.block"),
            "functional.encode_ms" => ms("functional.encode"),
            "functional.fanout_ms" => {
                ms("functional.block")
                    - t.n("functional.block") as f64 * c("functional.kernel_ms_per_block")
            }
            "generate.lm_head_ms" => lm_head,
            "generate.lm_head_share" => {
                ratio(lm_head, lm_head + t.n("generate.lm_head") as f64 * step_mean)
            }
            "kv.gather_ms" => ms("kv.gather"),
            "tensor.gemv_peak_pct" => ratio(c("tensor.gemv_gflops"), peak) * 100.0,
            "tensor.lm_head_peak_pct" => ratio(c("tensor.lm_head_gflops"), peak) * 100.0,
            "tensor.gemm_peak_pct" => ratio(c("tensor.gemm_gflops"), peak) * 100.0,
            "tensor.ws_allocs_per_token" => ratio(c("ws.allocs"), c("generate.tokens")),
            "cli.overhead_ms" => ratio(ms("cli.process") - ms("cli.inproc"), c("cli.queries")),
            "trace.overhead_pct" => {
                (ratio(c("trace.traced_ms"), c("trace.untraced_ms")) - 1.0) * 100.0
            }
            other => c(other),
        }
    };
    NAMES.iter().map(|&(n, u)| (n, value(n), u)).collect()
}

/// Wall time of the first `n` traced ops (op ids `0..n`).
fn first_ops_ms(t: &Tracer, n: usize) -> f64 {
    t.spans_named("op").filter(|s| s.op < n).map(crate::trace::Span::ms).sum()
}

pub fn traced(args: &Args) -> Result<(), String> {
    let mut t = Tracer::new();
    let mut check = Check::new("traced", args);
    let mtp = args.mtp.clone().ok_or("the traced run needs --mtp (the mtp CLI binary)")?;
    const PROBE: usize = 1_000_000;
    match args.workload.as_str() {
        "design_space" => {
            // The untraced side of the overhead: the first cycle of
            // queries, timed on its second pass so neither side runs cold.
            let queries = design::plan(args.seed, design::CYCLE.len());
            let mut pass_ms = 0.0;
            for _ in 0..2 {
                let started = Instant::now();
                for q in &queries {
                    design::answer(q, 1, &args.out)?;
                }
                pass_ms = started.elapsed().as_secs_f64() * 1e3;
            }
            t.count("trace.untraced_ms", pass_ms);
            check.merge(design::traced(args, &mut t, args.seconds, 0)?);
            t.count("trace.traced_ms", first_ops_ms(&t, design::CYCLE.len()));
            check.merge(serve::traced(args, &mut t, 0.0, 8, PROBE));
            check.merge(golden::traced(args, &mut t, 0.0, Some(1), 2 * PROBE)?);
        }
        "serve_open_loop" => {
            t.count("trace.untraced_ms", serve::untraced_ms(args, 2));
            check.merge(serve::traced(args, &mut t, args.seconds.max(1.0), serve::REQUESTS, 0));
            t.count("trace.traced_ms", first_ops_ms(&t, 2));
            check.merge(design::traced(args, &mut t, 0.0, PROBE)?);
            check.merge(golden::traced(args, &mut t, 0.0, Some(1), 2 * PROBE)?);
        }
        _ => {
            check.merge(golden::traced(args, &mut t, args.seconds, None, 0)?);
            check.merge(design::traced(args, &mut t, 0.0, PROBE)?);
            check.merge(serve::traced(args, &mut t, 0.0, 8, 2 * PROBE));
        }
    }
    t.set_op(3 * PROBE);
    if let Err(e) = t.span("op", |t| design::cli_overhead(args, t, &mtp)) {
        check.fail(3 * PROBE, &e);
    }
    let isa = tensor_probes(&mut t);
    if let Err(e) = t.check_nesting() {
        check.fail(0, &e);
    }
    let path = args.out.join(format!("trace_{}.jsonl", args.workload));
    t.write(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let metrics = metrics(&t);
    println!("host: {}", host::fingerprint());
    println!("spans written to {}", path.display());
    println!("tensor figures are shares of a single-thread {isa} FMA peak measured on this host");
    for m in &check.messages {
        println!("note: {m}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let attempted = t.n("op") as u64;
    let failed = check.n_failed();
    println!("{}", crate::result_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}
