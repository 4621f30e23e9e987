//! `mtp` — command-line front end for the distributed-inference simulator.
//!
//! ```text
//! mtp simulate --model tinyllama --chips 8 --mode ar [--blocks N] [--trace]
//! mtp sweep        # declarative scenario grid, parallel + cached
//! mtp figures      # regenerate every paper figure/table
//! mtp headline     # paper-vs-measured headline numbers
//! mtp ablation     # design-choice ablations
//! mtp table1       # strategy comparison (ours vs baselines)
//! ```

use mtp::core::{schedule::Scheduler, DistributedSystem};
use mtp::core::{BatchPolicy, Billing, FailPolicy, FaultProfile};
use mtp::harness::serve::{ServeEngine, ServeGrid};
use mtp::harness::sweep::{
    CostSourceKind, ModelPreset, PlacementPolicy, SkippedScenario, Span, SweepEngine, SweepGrid,
    TopologySpec,
};
use mtp::harness::{ablation, advisor, bench, fig4, fig5, fig6, headline, table1};
use mtp::model::{ArrivalProcess, InferenceMode, TransformerConfig};
use mtp::sim::{ChipSpec, FaultPlan, LinkRegime, Machine};
use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

const USAGE: &str = "\
mtp — distributed Transformer inference on low-power MCU networks

USAGE:
    mtp simulate [--model NAME] [--chips N] [--mode ar|prompt] [--blocks N]
                 [--trace] [--chrome-trace FILE]
    mtp sweep    [--deep | --batch] [--models A,B] [--modes ar,prompt]
                 [--chips 1,2,4,8] [--topologies hier4,flat]
                 [--placements auto,streamed] [--link-bw 100,50]
                 [--link-regime affine,queued:65536,...] [--span block|model]
                 [--batches 1,4,16] [--threads N]
                 [--faults none;failstop:0:50000] [--fail-policy abort|restart|spare]
                 [--cost-source analytic,calibrated]
                 [--csv FILE] [--json FILE] [--stream] [--serial]
                 [--compare-serial]
    mtp serve    [--models A,B] [--chips 4,8] [--arrivals poisson:0.5;bursty:2:8]
                 [--policies static:8,continuous:8] [--billing full,per-request]
                 [--requests N] [--prompt-len P] [--decode-len D] [--seed S]
                 [--faults none,fail:25:3:500:64] [--csv FILE] [--json FILE]
    mtp advise   [--model NAME] [--mode ar|prompt] [--latency-ms X] [--energy-mj X]
                 [--max-chips N] [--chips 1,2,4,8] [--topologies hier4,flat]
                 [--placements auto,streamed] [--link-bw 25,50..100:5]
                 [--csv FILE] [--json FILE]
    mtp figures
    mtp headline
    mtp ablation
    mtp table1 [--chips N]
    mtp bench  [--quick] [--json FILE] [--compare BENCH_N.json] [--check TOL]
               [--calibrate]

MODELS:
    tinyllama       TinyLlama-42M (default; S=128 ar / S=16 prompt)
    tinyllama-64h   the scalability-study variant (64 heads)
    tinyllama-gqaK  grouped-query variant with K kv heads (K in 1,2,4,8)
    tinyllama-dN    depth-scaled TinyLlama with N layers (e.g. -d96)
    mobilebert      MobileBERT encoder (S=268, prompt mode only)
    mobilebert-dN   depth-scaled MobileBERT with N layers

BENCH:
    `mtp bench` times the hot paths (blocked matmul kernels, the 8-chip
    simulator block and its 96-block deep pass — full vs. periodic
    steady-state extrapolation — plus the cold-cache default and deep
    sweeps) as best-of-N wall clock and prints one line per benchmark;
    --json also writes the machine-readable report (the BENCH_*.json
    format, see the README's Benchmarks section). --quick is the CI
    smoke profile. --compare diffs the run against a committed
    BENCH_*.json baseline as a per-bench speedup table, and --check TOL
    exits non-zero when any benchmark runs more than TOL times slower
    than that baseline, marking every row `ok (within TOLx)` or
    `REGRESSION` (the CI perf-regression guard,
    scripts/bench_compare.sh). Since PR 8 the kernel section also covers
    the scalar-backend, f16, int8, and fused-attention paths;
    --calibrate instead times the real kernels and fits the measured
    cost model (mtp_kernels::CalibratedCostModel) at the Siracusa clock.

SWEEP:
    With no flags, `mtp sweep` runs the default paper grid: all three
    workloads in both modes x chips 1-64 x {hier4, flat} topologies
    (>= 48 valid scenarios; invalid chip counts are skipped with a
    reason). Grid axes multiply, duplicates are answered from the
    scenario cache, and unique points run on one worker thread per CPU.
    --deep starts from the deep-model grid instead: 96- and 192-block
    full-model passes x chips 1-8 x {100%, 50%} link bandwidth, made
    cheap by periodic steady-state extrapolation and the shared
    compiled-schedule cache (other grid flags still override its axes).
    --batch starts from the multi-request grid: full-model passes x
    chips 1-8 x uniform batches of {1, 4, 16} interleaved requests per
    block — request-level periodicity reuses the single-request
    template, so batched sweeps cost about the same as batch=1 ones.
    --batches overrides the batch-size axis on any grid. --link-regime
    sets the link timing-model axis: `affine` (the paper's model,
    default), `queued[:BYTES]` (per-receiver ingress queue, infinite
    buffer when BYTES is omitted), `droptail:BYTES[:NACK]` (finite
    queue that drops and NACK-retransmits instead of stalling), and
    `lossy:PERMILLE[:NACK]` (deterministic per-packet loss with
    go-back-N retransmission). Non-affine rows tag the link column as
    `pct@regime`, e.g. `100@q65536`. --stream writes rows one by one
    with flat memory (CSV to --csv FILE or stdout; with --json FILE,
    the same streamed bytes as the materialized JSON array) instead of
    building the result table — the mode for grids far beyond what a
    table is useful for.

SERVE:
    `mtp serve` runs the open-loop serving study: requests arrive on
    their own clock, join the fleet's batch when the admission policy
    lets them, decode token by token, and leave. Arrival processes are
    seeded and replayable — `poisson:RATE` and `bursty:RATE:BURST`
    (RATE in requests per megacycle), or `trace:C1,C2,...` (explicit
    arrival cycles). --arrivals separates specs with `;` (trace specs
    embed commas). Policies: `static:BATCH` gang-schedules (a batch
    drains fully before the next is admitted); `continuous:SLOTS`
    fills free slots at every pass boundary. Billing: `full` charges
    every decode step the model's full context (the saturated batch
    convention, bit-identical to the batch path in the saturated
    limit); `per-request` charges prompt_len + decoded tokens. Each
    grid point reports per-request TTFT/TPOT percentiles (p50/p95/p99),
    SLO attainment (TTFT within 3x the unloaded solo prefill), and
    goodput (within-SLO completions per second) — sweep --arrivals to
    trace the goodput-vs-offered-load curve and the SLO cliff. Output
    is deterministic: same seed, same rows, byte for byte. --requests
    takes at most 100000 requests per scenario.

FAULTS:
    Both studies take a seeded, replayable fault axis; at a fixed seed
    every faulted run is byte-deterministic, and the default `none`
    plans leave fault-free outputs byte-identical to earlier versions.
    `mtp sweep --faults` takes `;`-separated chip-level fault plans —
    `none`, `failstop:CHIP:AT`, `stall:CHIP:AT:DUR`,
    `slow:CHIP:FROM:DUR:PCT` (kernels stretched to PCT% of nominal
    duration, PCT > 100), `flap:CHIP:FROM:DUR:PCT` (sends stretched
    likewise), explicit events joined with `+`, or
    `seeded:SEED:COUNT[:HORIZON]` for a reproducible random plan. --fail-policy picks the fail-stop
    response: `abort` (the row becomes a typed skip), `restart` (redo
    the in-flight block), or `spare` (migrate to a cold spare chip).
    Faulted rows tag the span column as `span#plan` (plus `!policy`
    when not abort) and add fault cycle counters to the JSON sink.
    `mtp serve --faults` takes `,`-separated request-level profiles:
    `none` or `fail:PERMILLE[:RETRIES[:TIMEOUT_KCYC[:QCAP]]]` —
    per-attempt completion failures with seeded retry draws (at most
    100 retries per request), a
    per-request deadline in kilocycles from arrival, and an
    admission-queue cap that sheds newest-first. Faulted serving rows
    report availability, retries, sheds, timeouts, and failures next
    to the latency percentiles (percentiles sample completed requests
    only).

COST SOURCE:
    `mtp sweep --cost-source calibrated` swaps the analytic kernel cost
    model for the measured one (`mtp bench --calibrate` fitted at the
    Siracusa clock) as a sweep axis; calibrated rows tag the model
    column as `model@cal`. The default `analytic` keeps published
    outputs reproducible — calibrated timings depend on the host.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let result = match args.first().map(String::as_str) {
        Some("simulate") => simulate(&args[1..], &mut out),
        Some("sweep") => sweep_cmd(&args[1..], &mut out),
        Some("serve") => serve_cmd(&args[1..], &mut out),
        Some("advise") => advise(&args[1..], &mut out),
        Some("figures") => figures(&mut out),
        Some("headline") => headline_cmd(&mut out),
        Some("ablation") => ablation_cmd(&mut out),
        Some("table1") => table1_cmd(&args[1..], &mut out),
        Some("bench") => bench_cmd(&args[1..], &mut out),
        Some("--help" | "-h") | None => write!(out, "{USAGE}").map_err(Into::into),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}").into()),
    }
    .and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed stdout early (`mtp ... | head -1`) wanted
        // no more output: that ends the run cleanly, not as an error.
        Err(e)
            if e.downcast_ref::<io::Error>().is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_model(name: &str, mode: InferenceMode) -> Result<TransformerConfig, String> {
    Ok(ModelPreset::parse(name)?.config(mode))
}

fn parse_mode(name: &str) -> Result<InferenceMode, String> {
    match name {
        "ar" | "autoregressive" => Ok(InferenceMode::Autoregressive),
        "prompt" => Ok(InferenceMode::Prompt),
        other => Err(format!("unknown mode `{other}` (ar|prompt)")),
    }
}

/// Splits a comma-separated flag value (`--chips 1,2,4`) into items.
fn list_flag<'a>(args: &'a [String], name: &str) -> Option<Vec<&'a str>> {
    flag_value(args, name).map(|v| v.split(',').filter(|s| !s.is_empty()).collect())
}

fn simulate(args: &[String], out: &mut impl Write) -> CliResult {
    let mode = parse_mode(flag_value(args, "--mode").unwrap_or("ar"))?;
    let model = flag_value(args, "--model").unwrap_or("tinyllama");
    let cfg = parse_model(model, mode)?;
    let chips: usize = flag_value(args, "--chips").unwrap_or("8").parse()?;
    let blocks: usize = flag_value(args, "--blocks").unwrap_or("1").parse()?;

    let sys = DistributedSystem::paper_default(cfg.clone(), chips)?;
    let report = sys.simulate_blocks(mode, blocks)?;
    writeln!(out, "{report}")?;
    let b = report.breakdown();
    writeln!(
        out,
        "breakdown (critical chip): compute {} | L3<->L2 {} | L2<->L1 {} | C2C {} | idle {}",
        b.compute, b.dma_l3_l2, b.dma_l2_l1, b.c2c, b.idle
    )?;
    if chips > 1 {
        let single =
            DistributedSystem::paper_default(cfg.clone(), 1)?.simulate_blocks(mode, blocks)?;
        writeln!(
            out,
            "vs single chip: speedup {:.1}x, EDP improvement {:.1}x",
            report.speedup_over(&single),
            report.edp_improvement_over(&single)
        )?;
    }
    let want_text_trace = has_flag(args, "--trace");
    let chrome_path = flag_value(args, "--chrome-trace");
    if want_text_trace || chrome_path.is_some() {
        let chip = ChipSpec::siracusa();
        let mut scheduler = Scheduler::new(&cfg, chips, &chip)?;
        let programs = scheduler.model_programs(mode, 1)?;
        let machine = Machine::homogeneous(chip, chips);
        let (_, trace) = machine.run_traced(&programs)?;
        if want_text_trace {
            writeln!(out, "\nexecution trace (1 block):\n{}", trace.render())?;
        }
        if let Some(path) = chrome_path {
            std::fs::write(path, trace.to_chrome_json())?;
            writeln!(out, "chrome trace written to {path} (open in chrome://tracing or Perfetto)")?;
        }
    }
    Ok(())
}

/// Builds the sweep grid from CLI flags: explicit `--models`/`--modes`
/// cross-multiply; with neither given, the default paper grid's
/// workload pairs are used (MobileBERT paired with prompt mode only).
fn build_sweep_grid(args: &[String]) -> Result<SweepGrid, String> {
    let models = list_flag(args, "--models");
    let modes = list_flag(args, "--modes");
    let deep = has_flag(args, "--deep");
    let batch = has_flag(args, "--batch");
    if deep && batch {
        return Err("--deep and --batch are mutually exclusive base grids \
                    (use --deep --batches N,M for a batched deep sweep)"
            .to_owned());
    }
    let mut grid = if deep {
        SweepGrid::deep_default()
    } else if batch {
        SweepGrid::batch_default()
    } else {
        SweepGrid::paper_default()
    };
    if models.is_some() || modes.is_some() {
        // With `--modes` but no `--models` (or vice versa), the omitted
        // axis defaults to the active grid's own model vocabulary, so
        // `--deep --modes ar` still sweeps the deep presets.
        let default_models = if deep {
            vec!["tinyllama-d96", "tinyllama-d192", "mobilebert-d96"]
        } else if batch {
            vec!["tinyllama", "mobilebert"]
        } else {
            vec!["tinyllama", "tinyllama-64h", "mobilebert"]
        };
        let presets: Vec<ModelPreset> = models
            .unwrap_or(default_models)
            .into_iter()
            .map(ModelPreset::parse)
            .collect::<Result<_, _>>()?;
        let modes: Vec<InferenceMode> = modes
            .unwrap_or_else(|| vec!["ar", "prompt"])
            .into_iter()
            .map(parse_mode)
            .collect::<Result<_, _>>()?;
        grid.workloads =
            presets.iter().flat_map(|&p| modes.iter().map(move |&m| (p.config(m), m))).collect();
    }
    if let Some(chips) = list_flag(args, "--chips") {
        grid.chip_counts = chips
            .into_iter()
            .map(|c| c.parse::<usize>().map_err(|_| format!("bad chip count `{c}`")))
            .collect::<Result<_, _>>()?;
    }
    if let Some(topologies) = list_flag(args, "--topologies") {
        grid.topologies =
            topologies.into_iter().map(TopologySpec::parse).collect::<Result<_, _>>()?;
    }
    if let Some(placements) = list_flag(args, "--placements") {
        grid.placements =
            placements.into_iter().map(PlacementPolicy::parse).collect::<Result<_, _>>()?;
    }
    if let Some(bws) = list_flag(args, "--link-bw") {
        grid.link_bw_pcts = bws
            .into_iter()
            .map(|b| match b.parse::<u32>() {
                Ok(pct) if pct > 0 => Ok(pct),
                _ => Err(format!("bad link bandwidth percentage `{b}`")),
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(regimes) = list_flag(args, "--link-regime") {
        grid.link_regimes = regimes.into_iter().map(LinkRegime::parse).collect::<Result<_, _>>()?;
    }
    if let Some(span) = flag_value(args, "--span") {
        grid = grid.with_span(Span::parse(span)?);
    }
    if let Some(batches) = list_flag(args, "--batches") {
        grid.batch_sizes = batches
            .into_iter()
            .map(|b| match b.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("bad batch size `{b}` (need a positive integer)")),
            })
            .collect::<Result<_, _>>()?;
    }
    // Fault plans separate with `;` — explicit plans embed `+`-joined
    // `kind:chip:...` events whose spellings must keep their colons.
    if let Some(faults) = list_flag_semicolon(args, "--faults") {
        grid.fault_plans = faults.into_iter().map(FaultPlan::parse).collect::<Result<_, _>>()?;
    }
    if let Some(policy) = flag_value(args, "--fail-policy") {
        grid.fail_policy = FailPolicy::parse(policy)?;
    }
    if let Some(sources) = list_flag(args, "--cost-source") {
        grid.cost_sources =
            sources.into_iter().map(CostSourceKind::parse).collect::<Result<_, _>>()?;
    }
    if grid.is_empty() {
        return Err("the grid is empty (every axis needs at least one value)".to_owned());
    }
    Ok(grid)
}

/// The typed error of a sweep point whose counters overflowed.
fn overflow_error(s: &SkippedScenario) -> Box<dyn std::error::Error> {
    format!("scenario {}: {}", s.scenario.key(), s.reason).into()
}

fn sweep_cmd(args: &[String], out: &mut impl Write) -> CliResult {
    let grid = build_sweep_grid(args)?;
    let engine = if has_flag(args, "--serial") {
        SweepEngine::serial()
    } else if let Some(threads) = flag_value(args, "--threads") {
        let n: usize = threads.parse()?;
        if n > MAX_SWEEP_THREADS {
            return Err(format!(
                "--threads {n} exceeds the budget of {MAX_SWEEP_THREADS} threads \
                 (MAX_SWEEP_THREADS)"
            )
            .into());
        }
        SweepEngine::with_threads(n)
    } else {
        SweepEngine::new()
    };

    if has_flag(args, "--stream") {
        // Row-streaming mode: flat memory, no result table. One sink at
        // a time (each sink consumes the rows as they are produced).
        if has_flag(args, "--json") && has_flag(args, "--csv") {
            return Err("--stream writes one sink at a time (drop --csv or --json)".into());
        }
        let scenarios = grid.scenarios();
        let summary = if let Some(path) = flag_value(args, "--json") {
            let file = std::fs::File::create(path)?;
            let summary = engine.run_streamed_json(&scenarios, &mut io::BufWriter::new(file))?;
            writeln!(out, "JSON streamed to {path}")?;
            summary
        } else if let Some(path) = flag_value(args, "--csv") {
            let file = std::fs::File::create(path)?;
            let summary = engine.run_streamed(&scenarios, &mut io::BufWriter::new(file))?;
            writeln!(out, "CSV streamed to {path}")?;
            summary
        } else {
            engine.run_streamed(&scenarios, &mut io::BufWriter::new(&mut *out))?
        };
        // stderr, so `mtp sweep --stream > out.csv` stays pure CSV.
        eprintln!("{} ({} worker thread(s))", summary.summary(), engine.threads());
        return match summary.first_overflow {
            Some(s) => Err(overflow_error(&s)),
            None => Ok(()),
        };
    }

    let results = engine.run(&grid);
    // An overflowing point has an answer no row can hold: fail with the
    // typed error instead of listing it among the invalid points.
    if let Some(s) = results.skipped.iter().find(|s| s.overflow) {
        return Err(overflow_error(s));
    }
    write!(out, "{}", results.render())?;
    if !results.skipped.is_empty() {
        writeln!(out, "\nskipped scenarios:")?;
        for s in &results.skipped {
            writeln!(
                out,
                "  {} {} x{} {}: {}",
                s.scenario.config.name,
                s.scenario.mode,
                s.scenario.n_chips,
                s.scenario.topology.label(),
                s.reason
            )?;
        }
    }
    writeln!(out, "\n{} ({} worker thread(s))", results.summary(), engine.threads())?;

    if has_flag(args, "--compare-serial") {
        // Cold engines on both sides so the cache cannot flatter either.
        let serial = SweepEngine::serial().run(&grid);
        let parallel = SweepEngine::new().run(&grid);
        let speedup = serial.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64().max(1e-9);
        writeln!(
            out,
            "serial {:.1} ms vs parallel {:.1} ms on {} thread(s): {speedup:.2}x",
            serial.elapsed.as_secs_f64() * 1e3,
            parallel.elapsed.as_secs_f64() * 1e3,
            SweepEngine::new().threads(),
        )?;
    }

    if let Some(path) = flag_value(args, "--csv") {
        std::fs::write(path, results.to_csv())?;
        writeln!(out, "CSV written to {path}")?;
    }
    if let Some(path) = flag_value(args, "--json") {
        std::fs::write(path, results.to_json())?;
        writeln!(out, "JSON written to {path}")?;
    }
    Ok(())
}

/// Builds the serving grid from CLI flags (each axis flag overrides the
/// default grid's axis; shared request-shape flags override in place).
fn build_serve_grid(args: &[String]) -> Result<ServeGrid, String> {
    let mut grid = ServeGrid::paper_default();
    if let Some(models) = list_flag(args, "--models") {
        grid.models = models.into_iter().map(ModelPreset::parse).collect::<Result<_, _>>()?;
    }
    if let Some(chips) = list_flag(args, "--chips") {
        grid.chip_counts = chips
            .into_iter()
            .map(|c| c.parse::<usize>().map_err(|_| format!("bad chip count `{c}`")))
            .collect::<Result<_, _>>()?;
    }
    if let Some(arrivals) = list_flag_semicolon(args, "--arrivals") {
        grid.arrivals =
            arrivals.into_iter().map(ArrivalProcess::parse).collect::<Result<_, _>>()?;
    }
    if let Some(policies) = list_flag(args, "--policies") {
        grid.policies = policies.into_iter().map(BatchPolicy::parse).collect::<Result<_, _>>()?;
    }
    if let Some(billings) = list_flag(args, "--billing") {
        grid.billings = billings.into_iter().map(Billing::parse).collect::<Result<_, _>>()?;
    }
    let positive = |name: &str, v: &str| {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad {name} `{v}` (need a positive integer)"))
    };
    if let Some(n) = flag_value(args, "--requests") {
        grid.n_requests = positive("request count", n)?;
        if grid.n_requests > MAX_SERVE_REQUESTS {
            return Err(format!(
                "--requests {n} exceeds the budget of {MAX_SERVE_REQUESTS} requests \
                 (MAX_SERVE_REQUESTS)"
            ));
        }
    }
    if let Some(p) = flag_value(args, "--prompt-len") {
        grid.prompt_len = positive("prompt length", p)?;
    }
    if let Some(d) = flag_value(args, "--decode-len") {
        grid.decode_len = d
            .parse::<usize>()
            .map_err(|_| format!("bad decode length `{d}` (need a non-negative integer)"))?;
    }
    if let Some(s) = flag_value(args, "--seed") {
        grid.seed = s.parse::<u64>().map_err(|_| format!("bad seed `{s}`"))?;
    }
    if let Some(faults) = list_flag(args, "--faults") {
        grid.faults = faults.into_iter().map(FaultProfile::parse).collect::<Result<_, _>>()?;
    }
    if grid.models.is_empty()
        || grid.chip_counts.is_empty()
        || grid.arrivals.is_empty()
        || grid.policies.is_empty()
        || grid.billings.is_empty()
        || grid.faults.is_empty()
    {
        return Err("the serving grid is empty (every axis needs at least one value)".to_owned());
    }
    Ok(grid)
}

/// Like [`list_flag`] but splits on `;` — arrival specs embed commas
/// (`trace:100,200`), so the axis separator must be something else.
fn list_flag_semicolon<'a>(args: &'a [String], name: &str) -> Option<Vec<&'a str>> {
    flag_value(args, name).map(|v| v.split(';').filter(|s| !s.is_empty()).collect())
}

fn serve_cmd(args: &[String], out: &mut impl Write) -> CliResult {
    let grid = build_serve_grid(args)?;
    let mut engine = ServeEngine::new();
    let results = engine.run(&grid);
    write!(out, "{}", results.render())?;
    if !results.skipped.is_empty() {
        writeln!(out, "\nskipped scenarios:")?;
        for s in &results.skipped {
            writeln!(
                out,
                "  {} x{} {} {}: {}",
                s.scenario.model.cli_name(),
                s.scenario.n_chips,
                s.scenario.process.label(),
                s.scenario.policy.label(),
                s.reason
            )?;
        }
    }
    writeln!(out, "\n{}", results.summary())?;
    if let Some(path) = flag_value(args, "--csv") {
        std::fs::write(path, results.to_csv())?;
        writeln!(out, "CSV written to {path}")?;
    }
    if let Some(path) = flag_value(args, "--json") {
        std::fs::write(path, results.to_json())?;
        writeln!(out, "JSON written to {path}")?;
    }
    Ok(())
}

/// Most requests one `mtp serve` scenario may simulate: every request
/// keeps its arrival and latency records for the whole run, so the
/// budget bounds the run's time and memory.
const MAX_SERVE_REQUESTS: usize = 100_000;

/// Most worker threads one `mtp sweep --threads` run may start: each is
/// an OS thread, so the budget bounds what one flag can ask of the host.
const MAX_SWEEP_THREADS: usize = 256;

/// Most bandwidth points one `--link-bw` list may expand to: each point
/// is scored in every design group, so the budget bounds the search's
/// time and memory.
const MAX_LINK_BW_POINTS: u64 = 10_000;

/// Parses one `--link-bw` item: either a plain percent (`75`) or an
/// inclusive range `LO..HI[:STEP]` (`50..100:5`, step defaults to 1).
/// The list's points, `out` included, must stay within
/// [`MAX_LINK_BW_POINTS`].
fn parse_bw_item(item: &str, out: &mut Vec<u32>) -> Result<(), String> {
    let bad = || format!("bad link bandwidth `{item}` (want PCT or LO..HI[:STEP])");
    if let Some((range, step)) =
        item.split_once("..").map(|(lo, rest)| match rest.split_once(':') {
            Some((hi, step)) => ((lo, hi), step),
            None => ((lo, rest), "1"),
        })
    {
        let lo: u32 = range.0.parse().map_err(|_| bad())?;
        let hi: u32 = range.1.parse().map_err(|_| bad())?;
        let step: u32 = step.parse().map_err(|_| bad())?;
        if lo == 0 || hi < lo || step == 0 {
            return Err(bad());
        }
        let points = u64::from((hi - lo) / step) + 1;
        if out.len() as u64 + points > MAX_LINK_BW_POINTS {
            return Err(format!(
                "--link-bw `{item}` expands to {points} points; the list may hold at most \
                 {MAX_LINK_BW_POINTS} (MAX_LINK_BW_POINTS)"
            ));
        }
        out.extend((lo..=hi).step_by(step as usize));
    } else {
        match item.parse::<u32>() {
            Ok(pct) if pct > 0 => out.push(pct),
            _ => return Err(bad()),
        }
    }
    Ok(())
}

fn advise(args: &[String], out: &mut impl Write) -> CliResult {
    let mode = parse_mode(flag_value(args, "--mode").unwrap_or("ar"))?;
    let model = flag_value(args, "--model").unwrap_or("tinyllama");
    let cfg = parse_model(model, mode)?;
    let constraints = advisor::Constraints {
        max_latency_ms: flag_value(args, "--latency-ms").map(str::parse).transpose()?,
        max_energy_mj: flag_value(args, "--energy-mj").map(str::parse).transpose()?,
    };
    let max_chips: usize = flag_value(args, "--max-chips").unwrap_or("64").parse()?;
    let mut space = advisor::DesignSpace::default_for(&cfg, max_chips);
    if let Some(chips) = list_flag(args, "--chips") {
        space.chip_counts = chips
            .into_iter()
            .map(|c| c.parse::<usize>().map_err(|_| format!("bad chip count `{c}`")))
            .collect::<Result<_, _>>()?;
    }
    if let Some(topologies) = list_flag(args, "--topologies") {
        space.topologies =
            topologies.into_iter().map(TopologySpec::parse).collect::<Result<_, _>>()?;
    }
    if let Some(placements) = list_flag(args, "--placements") {
        space.placements =
            placements.into_iter().map(PlacementPolicy::parse).collect::<Result<_, _>>()?;
    }
    if let Some(bws) = list_flag(args, "--link-bw") {
        let mut pcts = Vec::new();
        for item in bws {
            parse_bw_item(item, &mut pcts)?;
        }
        space.link_bw_pcts = pcts;
    }
    let advice = advisor::advise(&cfg, mode, constraints, &space)?;
    write!(out, "{}", advisor::render(&advice, &constraints))?;
    if let Some(path) = flag_value(args, "--csv") {
        std::fs::write(path, advice.to_csv())?;
        writeln!(out, "CSV written to {path}")?;
    }
    if let Some(path) = flag_value(args, "--json") {
        std::fs::write(path, advice.to_json())?;
        writeln!(out, "JSON written to {path}")?;
    }
    Ok(())
}

fn figures(out: &mut impl Write) -> CliResult {
    writeln!(
        out,
        "{}",
        fig4::render("Fig 4(a): TinyLlama autoregressive (S=128)", &fig4::fig4a()?)
    )?;
    writeln!(out, "{}", fig4::render("Fig 4(b): TinyLlama prompt (S=16)", &fig4::fig4b()?))?;
    writeln!(out, "{}", fig4::render("Fig 4(c): MobileBERT (S=268)", &fig4::fig4c()?))?;
    for panel in fig5::run()? {
        writeln!(out, "{}", fig5::render(&panel))?;
    }
    writeln!(out, "{}", fig6::render(&fig6::run()?))?;
    writeln!(out, "{}", table1::render(&table1::run(4, InferenceMode::Autoregressive)?))?;
    writeln!(out, "{}", headline::render(&headline::run()?))?;
    Ok(())
}

fn headline_cmd(out: &mut impl Write) -> CliResult {
    writeln!(out, "{}", headline::render(&headline::run()?))?;
    Ok(())
}

fn ablation_cmd(out: &mut impl Write) -> CliResult {
    writeln!(out, "{}", ablation::render_all()?)?;
    Ok(())
}

fn bench_cmd(args: &[String], out: &mut impl Write) -> CliResult {
    if has_flag(args, "--calibrate") {
        write!(out, "{}", bench::render_calibration(has_flag(args, "--quick")))?;
        return Ok(());
    }
    let report = bench::run(has_flag(args, "--quick"));
    write!(out, "{}", report.render())?;
    if let Some(path) = flag_value(args, "--json") {
        std::fs::write(path, report.to_json())?;
        writeln!(out, "JSON written to {path}")?;
    }
    if let Some(path) = flag_value(args, "--compare") {
        let baseline = bench::parse_baseline(&std::fs::read_to_string(path)?)?;
        let comparison = report.compare(&baseline);
        if has_flag(args, "--check") {
            let tolerance: f64 =
                flag_value(args, "--check").ok_or("--check requires a tolerance value")?.parse()?;
            write!(out, "{}", comparison.render_checked(tolerance))?;
            comparison.check(tolerance)?;
            writeln!(
                out,
                "perf check passed (worst slowdown {:.2}x)",
                comparison.worst_slowdown()
            )?;
        } else {
            write!(out, "{}", comparison.render())?;
        }
    } else if has_flag(args, "--check") {
        return Err("--check requires --compare <BENCH_N.json>".into());
    }
    Ok(())
}

fn table1_cmd(args: &[String], out: &mut impl Write) -> CliResult {
    let chips: usize = flag_value(args, "--chips").unwrap_or("4").parse()?;
    writeln!(out, "{}", table1::render(&table1::run(chips, InferenceMode::Autoregressive)?))?;
    Ok(())
}
