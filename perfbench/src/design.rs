//! `design_space`: the designer's loop. A seeded sequence of cold-engine
//! sweep grids, advisor searches and the headline study, each result
//! serialized to CSV and JSON.

use crate::host::Stamp;
use crate::stats::{Digest, Rng};
use crate::trace::Tracer;
use crate::{Args, Check, Run};
use mtp_core::schedule::{CompiledSchedule, Scheduler};
use mtp_core::{FailPolicy, SystemReport};
use mtp_harness::advisor::{self, Constraints, DesignSpace};
use mtp_harness::headline::{self, Headline};
use mtp_harness::sweep::{
    CostSourceKind, ModelPreset, PlacementPolicy, Scenario, Span, SweepEngine, SweepGrid,
    SweepResults, TopologySpec,
};
use mtp_link::Topology;
use mtp_model::{InferenceMode, TransformerConfig};
use mtp_sim::{FaultPlan, LinkRegime, Machine, RunStats};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Query kinds, cycled in this order. The link-regime query runs twice
/// per cycle so the median op falls inside one kind's latency cluster
/// (between two clusters it would swing with the mix).
pub const CYCLE: [&str; 7] =
    ["paper", "regimes", "deep", "faults", "advise", "headline", "regimes"];

/// Link bandwidths per advise search (consecutive percentages).
const ADVISE_BWS: u32 = 30;

/// Queries generated per plan; a run that outlasts them starts over.
const PLAN_LEN: usize = 600;

/// The nine abstract-level claims, in [`claims`] order.
const PAPER: [f64; 9] = [26.1, 0.54, 0.64, 27.2, 9.9, 4.7, 38.8, 60.1, 1.3];

pub enum Query {
    Sweep {
        kind: &'static str,
        scenarios: Vec<Scenario>,
        cli: Option<Vec<String>>,
    },
    Advise {
        cfg: TransformerConfig,
        constraints: Constraints,
        space: DesignSpace,
        cli: Vec<String>,
    },
    Headline,
}

impl Query {
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Sweep { kind, .. } => kind,
            Query::Advise { .. } => "advise",
            Query::Headline => "headline",
        }
    }
}

/// One answered query: the digest of its simulated outputs, the design
/// points it answered, and its serialized sinks.
pub struct Answer {
    pub digest: u64,
    pub points: usize,
    pub csv: String,
    pub json: String,
    sweep: Option<SweepResults>,
    advice: Option<advisor::Advice>,
    headline: Option<Headline>,
}

fn ar() -> InferenceMode {
    InferenceMode::Autoregressive
}

fn pr() -> InferenceMode {
    InferenceMode::Prompt
}

/// The seeded query sequence.
pub fn plan(seed: u64, len: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    (0..len).map(|i| query(CYCLE[i % CYCLE.len()], &mut rng)).collect()
}

fn query(kind: &'static str, rng: &mut Rng) -> Query {
    let tiny = ModelPreset::TinyLlama;
    match kind {
        "paper" => {
            let bws = rng.subset(&[25u32, 50, 75, 100, 150, 200], 3);
            let grid = SweepGrid::paper_default()
                .with_link_bw_pcts(bws.clone())
                .with_placements(vec![PlacementPolicy::Auto, PlacementPolicy::ForceStreamed]);
            let bw_list = bws.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
            let cli = ["sweep", "--link-bw", &bw_list, "--placements", "auto,streamed"]
                .map(str::to_owned)
                .to_vec();
            Query::Sweep { kind, scenarios: grid.scenarios(), cli: Some(cli) }
        }
        "regimes" => {
            let buffer = *rng.pick(&[4096u64, 65_536, 262_144]);
            let queued = LinkRegime::parse(&format!("queued:{buffer}")).expect("valid regime");
            let lossy =
                LinkRegime::parse(&format!("lossy:{}", rng.range(5, 50))).expect("valid regime");
            let affine = SweepGrid::new(
                vec![
                    (tiny.config(ar()), ar()),
                    (tiny.config(pr()), pr()),
                    (ModelPreset::MobileBert.config(pr()), pr()),
                ],
                vec![1, 2, 4, 8],
            )
            .with_span(Span::Model)
            .with_link_bw_pcts(vec![*rng.pick(&[50u32, 100])]);
            // The designer re-asks the affine baseline next to the queued
            // regime: the repeated points are the engine's cache hits.
            let mut scenarios = affine
                .clone()
                .with_link_regimes(vec![LinkRegime::Affine, queued, lossy])
                .scenarios();
            scenarios.extend(affine.scenarios());
            Query::Sweep { kind, scenarios, cli: None }
        }
        "deep" => {
            let depth = *rng.pick(&[64usize, 96, 128]);
            let bert = *rng.pick(&[48usize, 72, 96]);
            let grid = SweepGrid::new(
                vec![
                    (ModelPreset::TinyLlamaDeep(depth).config(ar()), ar()),
                    (ModelPreset::TinyLlamaDeep(depth).config(pr()), pr()),
                    (ModelPreset::MobileBertDeep(bert).config(pr()), pr()),
                ],
                vec![1, 2, 4, 8],
            )
            .with_span(Span::Model)
            .with_batch_sizes(vec![1, 4, 16])
            .with_link_bw_pcts(vec![100, *rng.pick(&[25u32, 50, 75])]);
            Query::Sweep { kind, scenarios: grid.scenarios(), cli: None }
        }
        "faults" => {
            let mut seeded =
                || FaultPlan::seeded(rng.next_u64() % 1000, rng.range(900, 1100) as u32, 1_000_000);
            let (first, second) = (seeded(), seeded());
            let failstop = FaultPlan::parse(&format!(
                "failstop:{}:{}",
                rng.range(0, 1),
                rng.range(100_000, 900_000)
            ))
            .expect("valid plan");
            let policy = *rng.pick(&[FailPolicy::Restart, FailPolicy::SpareChip]);
            let grid = SweepGrid::new(
                vec![(tiny.config(ar()), ar()), (tiny.config(pr()), pr())],
                vec![2, 4, 8],
            )
            .with_span(Span::Model)
            .with_fault_plans(vec![FaultPlan::none(), first, second, failstop])
            .with_fail_policy(policy);
            Query::Sweep { kind, scenarios: grid.scenarios(), cli: None }
        }
        "advise" => {
            let cfg = tiny.config(ar());
            let lo = rng.range(10, 40) as u32;
            let latency = *rng.pick(&[2.0f64, 5.0, 10.0]);
            let space = DesignSpace {
                topologies: vec![TopologySpec::PaperDefault, TopologySpec::Flat],
                placements: vec![PlacementPolicy::Auto, PlacementPolicy::ForceStreamed],
                chip_counts: advisor::valid_chip_counts(&cfg, 8),
                link_bw_pcts: (lo..lo + ADVISE_BWS).collect(),
            };
            let cli = [
                "advise".to_owned(),
                "--latency-ms".to_owned(),
                latency.to_string(),
                "--chips".to_owned(),
                "1,2,4,8".to_owned(),
                "--topologies".to_owned(),
                "hier4,flat".to_owned(),
                "--placements".to_owned(),
                "auto,streamed".to_owned(),
                "--link-bw".to_owned(),
                format!("{lo}..{}:1", lo + ADVISE_BWS - 1),
            ]
            .to_vec();
            let constraints = Constraints { max_latency_ms: Some(latency), max_energy_mj: None };
            Query::Advise { cfg, constraints, space, cli }
        }
        _ => Query::Headline,
    }
}

/// The nine headline claims in the order of [`PAPER`].
fn claims(h: &Headline) -> [f64; 9] {
    [
        h.tinyllama_ar_speedup_8,
        h.tinyllama_ar_latency_ms,
        h.tinyllama_ar_energy_mj,
        h.tinyllama_ar_edp_improvement,
        h.tinyllama_prompt_speedup_8,
        h.mobilebert_speedup_4,
        h.mobilebert_runtime_ms,
        h.scaled_ar_speedup_64,
        h.scaled_ar_energy_reduction_64,
    ]
}

/// Mean |measured / paper - 1| over the nine claims, in percent.
pub fn paper_err_pct(h: &Headline) -> f64 {
    let c = claims(h);
    c.iter().zip(PAPER).map(|(m, p)| (m / p - 1.0).abs()).sum::<f64>() / 9.0 * 100.0
}

/// Answers one query on a cold engine and writes its CSV and JSON sinks
/// into `out`.
pub fn answer(q: &Query, threads: usize, out: &Path) -> Result<Answer, String> {
    let mut digest = Digest::default();
    let mut a = match q {
        Query::Sweep { scenarios, .. } => {
            let res = SweepEngine::with_threads(threads).run_scenarios(scenarios);
            let (csv, json) = (res.to_csv(), res.to_json());
            for s in &res.skipped {
                digest.bytes(s.scenario.key().as_bytes());
                digest.bytes(s.reason.as_bytes());
            }
            let points = res.rows.len() + res.skipped.len();
            Answer { digest: 0, points, csv, json, sweep: Some(res), advice: None, headline: None }
        }
        Query::Advise { cfg, constraints, space, .. } => {
            let advice =
                advisor::advise(cfg, ar(), *constraints, space).map_err(|e| e.to_string())?;
            let (csv, json) = (advice.to_csv(), advice.to_json());
            let points = advice.candidates.len();
            Answer {
                digest: 0,
                points,
                csv,
                json,
                sweep: None,
                advice: Some(advice),
                headline: None,
            }
        }
        Query::Headline => {
            let h = headline::run().map_err(|e| e.to_string())?;
            let c = claims(&h);
            let mut csv = String::from("claim,paper,measured\n");
            let mut json = Vec::new();
            for (i, (m, p)) in c.iter().zip(PAPER).enumerate() {
                csv.push_str(&format!("{i},{p},{m}\n"));
                json.push(format!("{{\"claim\":{i},\"paper\":{p},\"measured\":{m}}}"));
            }
            let json = format!("[\n{}\n]\n", json.join(",\n"));
            Answer { digest: 0, points: 8, csv, json, sweep: None, advice: None, headline: Some(h) }
        }
    };
    std::fs::write(out.join(format!("design_{}.csv", q.kind())), &a.csv)
        .map_err(|e| e.to_string())?;
    std::fs::write(out.join(format!("design_{}.json", q.kind())), &a.json)
        .map_err(|e| e.to_string())?;
    digest.bytes(a.csv.as_bytes());
    a.digest = digest.finish();
    Ok(a)
}

fn topology(spec: TopologySpec, n_chips: usize) -> Result<Option<Topology>, String> {
    match spec {
        TopologySpec::PaperDefault => Ok(None),
        TopologySpec::Hierarchical { group_size } => {
            Topology::hierarchical(n_chips, group_size).map(Some).map_err(|e| e.to_string())
        }
        TopologySpec::Flat => Topology::flat(n_chips).map(Some).map_err(|e| e.to_string()),
    }
}

/// Full event-driven simulation of a scenario: `Machine::run` over the
/// scheduler's whole-span programs. Returns the instruction count too.
pub fn full_sim(s: &Scenario) -> Result<(RunStats, usize), String> {
    let chip = s.chip();
    let mut sched = Scheduler::new(&s.config, s.n_chips, &chip).map_err(|e| e.to_string())?;
    if let Some(t) = topology(s.topology, s.n_chips)? {
        sched = sched.with_topology(t);
    }
    let progs = sched.model_programs(s.mode, s.n_blocks()).map_err(|e| e.to_string())?;
    let instrs = progs.iter().map(mtp_sim::Program::len).sum();
    let machine = Machine::homogeneous(chip, s.n_chips).with_faults(s.faults.clone());
    Ok((machine.run(&progs).map_err(|e| e.to_string())?, instrs))
}

/// Sampled differential oracle: a few seeded points of the answer,
/// re-simulated in full. Returns how many points were checked.
fn oracle(
    q: &Query,
    a: &Answer,
    rng: &mut Rng,
    mut t: Option<&mut Tracer>,
) -> Result<usize, String> {
    let mut points: Vec<(Scenario, SystemReport)> = Vec::new();
    if let Some(res) = &a.sweep {
        // Fail-stop rows went through failover replay, which the plain
        // executor does not model; deep batched spans are too long to
        // re-simulate in full.
        let eligible: Vec<_> = res
            .rows
            .iter()
            .filter(|r| {
                r.scenario.n_blocks() <= 256 && !r.scenario.faults.label().starts_with("fs")
            })
            .collect();
        for _ in 0..2.min(eligible.len()) {
            let r = rng.pick(&eligible);
            points.push((r.scenario.clone(), SystemReport::clone(&r.report)));
        }
    }
    if let (Some(advice), Query::Advise { cfg, .. }) = (&a.advice, q) {
        for _ in 0..2 {
            let c = rng.pick(&advice.candidates);
            let s = Scenario::new(cfg.clone(), ar(), c.point.n_chips)
                .with_topology(c.point.topology)
                .with_placement(c.point.placement)
                .with_span(Span::Model)
                .with_link_bw_pct(c.point.link_bw_pct)
                .map_err(|e| e.to_string())?;
            points.push((s, c.report.clone()));
        }
    }
    for (s, report) in &points {
        let (stats, instrs) = match t.as_deref_mut() {
            Some(t) => t.span("exec.full", |_| full_sim(s))?,
            None => full_sim(s)?,
        };
        if let Some(t) = t.as_deref_mut() {
            t.count("exec.instrs", instrs as f64);
        }
        if stats != report.stats {
            return Err(format!(
                "oracle mismatch on `{}`: fast path {} cycles, full simulation {}",
                s.key(),
                report.stats.makespan,
                stats.makespan
            ));
        }
    }
    Ok(points.len())
}

/// The untraced workload.
pub fn run(args: &Args) -> Result<Run, String> {
    // One engine thread: the engine runs inline, so an op's host time is
    // the sum of its work and does not wait on the second vCPU (a shared
    // host slowed two-thread runs unevenly and spread peak RSS over
    // per-thread malloc arenas). The headline study keeps its own
    // `nproc`-thread engine.
    let threads = 1;
    let mut setups = Vec::new();
    let mut queries = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let started = Stamp::now();
        queries = plan(args.seed, PLAN_LEN);
        setups.push(started.elapsed_ms().1 / 1e3);
    }
    let mut check = Check::new("design_space", args);
    let mut run = Run::new(setups);
    let mut first: HashMap<usize, u64> = HashMap::new();
    let mut paper_err = None;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let started = Stamp::now();
    let mut i = 0;
    while Instant::now() < deadline {
        let q = &queries[i % queries.len()];
        let t0 = Stamp::now();
        let a = answer(q, threads, &args.out);
        let ms = t0.elapsed_ms();
        match a {
            Ok(a) => {
                run.op(ms, a.points as f64);
                check.digest(i, a.digest);
                if let Some(&d) = first.get(&(i % queries.len())) {
                    check.expect(i, d == a.digest, "repeated query changed its output");
                } else {
                    first.insert(i % queries.len(), a.digest);
                }
                if let Some(h) = &a.headline {
                    paper_err = Some(paper_err_pct(h));
                }
            }
            Err(e) => {
                run.op(ms, 0.0);
                check.fail(i, &e);
            }
        }
        i += 1;
    }
    run.timed_ms = started.elapsed_ms();

    // Outside the timed region: repeat the first cycle and check the
    // sampled points against full event-driven simulation.
    let mut rng = Rng::new(args.seed ^ 0x0AC1E);
    let mut checked = 0;
    for (j, q) in queries.iter().enumerate().take(CYCLE.len().min(i)) {
        match answer(q, threads, &args.out) {
            Ok(a) => {
                check.expect(j, first.get(&j) == Some(&a.digest), "repetition changed the output");
                match oracle(q, &a, &mut rng, None) {
                    Ok(n) => checked += n,
                    Err(e) => check.fail(j, &e),
                }
                if let Some(h) = &a.headline {
                    paper_err = Some(paper_err_pct(h));
                }
            }
            Err(e) => check.fail(j, &e),
        }
    }
    run.note(format!("oracle: {checked} sampled design points re-simulated in full"));
    run.extra("design_points_s", run.per_wall_s(), "points/s");
    match paper_err {
        Some(err) => {
            run.extra("paper_err_pct", err, "%");
            run.note(
                "paper_err_pct: all nine headline claims were calibration anchors (DESIGN.md §3); \
                 the repository holds no held-out reference"
                    .to_owned(),
            );
        }
        None => check.fail(0, "the run ended before the headline study"),
    }
    run.finish(check);
    Ok(run)
}

/// The traced workload: the same queries, each answered with spans
/// around the engine call and its serialization, followed by a replay of
/// what the engine hides (schedule compilation once per key, then the
/// simulate / warmup + resume / faulted call per unique point) whose
/// reports must equal the engine's.
pub fn traced(args: &Args, t: &mut Tracer, seconds: f64, base_op: usize) -> Result<Check, String> {
    let queries = plan(args.seed, PLAN_LEN);
    let mut check = Check::new("design_space", args);
    let mut rng = Rng::new(args.seed ^ 0x0AC1E);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < CYCLE.len() || Instant::now() < deadline {
        let q = &queries[i % queries.len()];
        t.set_op(base_op + i);
        let r = t.span("op", |t| traced_answer(q, t, &args.out, &mut rng));
        if let Err(e) = r {
            check.fail(base_op + i, &e);
        }
        i += 1;
    }
    Ok(check)
}

fn traced_answer(q: &Query, t: &mut Tracer, out: &Path, rng: &mut Rng) -> Result<(), String> {
    let a = match q {
        Query::Sweep { scenarios, .. } => {
            let res =
                t.span("sweep.run", |_| SweepEngine::with_threads(1).run_scenarios(scenarios));
            t.count("sweep.rows", res.rows.len() as f64);
            t.count("sweep.scenarios", scenarios.len() as f64);
            t.count("sweep.unique_simulated", res.unique_simulated as f64);
            t.count("sweep.cache_hits", res.cache_hits as f64);
            if res.unique_simulated + res.cache_hits != res.rows.len() {
                return Err("sweep counters do not reconcile: unique + hits != rows".to_owned());
            }
            let (csv, json) = t.span("serialize", |_| (res.to_csv(), res.to_json()));
            t.count("serialize.bytes", (csv.len() + json.len()) as f64);
            replay(scenarios, &res, t)?;
            Answer {
                digest: 0,
                points: 0,
                csv,
                json,
                sweep: Some(res),
                advice: None,
                headline: None,
            }
        }
        Query::Advise { cfg, constraints, space, .. } => {
            let advice = t
                .span("advise.run", |_| advisor::advise(cfg, ar(), *constraints, space))
                .map_err(|e| e.to_string())?;
            let per_group = space.link_bw_pcts.len();
            let groups = space.topologies.len() * space.placements.len() * space.chip_counts.len();
            if advice.candidates.len() + advice.skipped.len() * per_group != groups * per_group {
                return Err("advise candidates do not match the points searched".to_owned());
            }
            t.count("advise.points", advice.candidates.len() as f64);
            t.count("advise.compiled", advice.compiled as f64);
            t.count("advise.warmups", advice.warmups as f64);
            t.count(
                "advise.symbolic",
                advice.candidates.iter().filter(|c| c.symbolic).count() as f64,
            );
            let (csv, json) = t.span("serialize", |_| (advice.to_csv(), advice.to_json()));
            t.count("serialize.bytes", (csv.len() + json.len()) as f64);
            Answer {
                digest: 0,
                points: 0,
                csv,
                json,
                sweep: None,
                advice: Some(advice),
                headline: None,
            }
        }
        Query::Headline => {
            let h = t.span("headline.run", |_| headline::run()).map_err(|e| e.to_string())?;
            Answer {
                digest: 0,
                points: 0,
                csv: String::new(),
                json: String::new(),
                sweep: None,
                advice: None,
                headline: Some(h),
            }
        }
    };
    if !a.csv.is_empty() {
        std::fs::write(out.join("traced.csv"), &a.csv).map_err(|e| e.to_string())?;
    }
    oracle(q, &a, rng, Some(t)).map(|_| ())
}

type SimKey = (usize, u32, usize, LinkRegime, FaultPlan, FailPolicy, CostSourceKind);

/// Calls the layers the sweep engine hides, in the engine's order, and
/// checks every report against the engine's row for the same scenario.
fn replay(scenarios: &[Scenario], res: &SweepResults, t: &mut Tracer) -> Result<(), String> {
    let engine: HashMap<&Scenario, &Arc<SystemReport>> =
        res.rows.iter().map(|r| (&r.scenario, &r.report)).collect();
    let mut seen = HashSet::new();
    let unique: Vec<&Scenario> = scenarios.iter().filter(|s| seen.insert(*s)).collect();
    let keys: Vec<_> = unique.iter().map(|s| s.schedule_key().ok()).collect();

    // Warm groups: depth variants of one (template, bandwidth, regime).
    let mut slots = HashMap::new();
    let mut depths: HashMap<(usize, u32, LinkRegime), HashSet<usize>> = HashMap::new();
    for (s, key) in unique.iter().zip(&keys) {
        if let Some(key) = key {
            let n = slots.len();
            let slot = *slots.entry(key.clone()).or_insert(n);
            if s.faults.is_empty() && s.cost_source == CostSourceKind::Analytic {
                depths
                    .entry((slot, s.link_bw_pct, s.link_regime))
                    .or_default()
                    .insert(s.n_blocks());
            }
        }
    }

    let mut compiled: HashMap<usize, Option<CompiledSchedule>> = HashMap::new();
    let mut warm: HashMap<(usize, u32, LinkRegime), Option<mtp_sim::WarmupCheckpoint>> =
        HashMap::new();
    let mut simulated: HashSet<SimKey> = HashSet::new();
    for (s, key) in unique.iter().zip(&keys) {
        let Some(key) = key else { continue };
        let slot = slots[key];
        if let Entry::Vacant(e) = compiled.entry(slot) {
            let c = t.span("schedule.compile", |_| s.compile_schedule()).ok();
            if let Some(c) = &c {
                t.count(
                    "schedule.template_instrs",
                    c.template().iter().map(mtp_sim::Program::len).sum::<usize>() as f64,
                );
            }
            e.insert(c);
        }
        let Some(c) = &compiled[&slot] else { continue };
        t.count("schedule.scenarios", 1.0);
        let sim_key = (
            slot,
            s.link_bw_pct,
            s.n_blocks(),
            s.link_regime,
            s.faults.clone(),
            s.fail_policy,
            s.cost_source,
        );
        if !simulated.insert(sim_key) {
            continue;
        }
        let chip = s.chip();
        let group = (slot, s.link_bw_pct, s.link_regime);
        let warm_ok = depths.get(&group).is_some_and(|d| d.len() >= 2)
            && s.n_blocks() > 4
            && s.link_regime.contention_free()
            && s.faults.is_empty()
            && s.cost_source == CostSourceKind::Analytic;
        let report = if !s.faults.is_empty() {
            t.count("fault.events", s.faults.events_for(s.n_chips).len() as f64);
            t.span("fault.sim", |_| {
                c.simulate_faulted(&chip, s.n_blocks(), &s.faults, s.fail_policy)
            })
        } else if warm_ok {
            if let Entry::Vacant(e) = warm.entry(group) {
                let ckpt = t.span("periodic.warmup", |_| c.warmup(&chip).ok());
                t.count("periodic.warm_groups", 1.0);
                if ckpt.as_ref().is_none_or(|k| k.warmup_segments().is_none()) {
                    t.count("periodic.unconverged", 1.0);
                }
                e.insert(ckpt);
            }
            match &warm[&group] {
                Some(k) => t.span("periodic.resume", |_| c.simulate_from(&chip, s.n_blocks(), k)),
                None => t.span("periodic.sim", |_| c.simulate(&chip, s.n_blocks())),
            }
        } else {
            t.span("periodic.sim", |_| c.simulate(&chip, s.n_blocks()))
        };
        match (report, engine.get(s)) {
            (Ok(r), Some(e)) if r.stats == e.stats => {}
            (Err(_), None) => {}
            _ => return Err(format!("replayed layers disagree with the engine on `{}`", s.key())),
        }
    }
    Ok(())
}

/// Runs the CLI-expressible queries of the first cycle both in process
/// and as `mtp` processes; the CSV sinks must be byte-identical.
pub fn cli_overhead(args: &Args, t: &mut Tracer, mtp: &Path) -> Result<(), String> {
    let threads = crate::host::nproc();
    for q in plan(args.seed, CYCLE.len()) {
        let cli = match &q {
            Query::Sweep { cli: Some(cli), .. } | Query::Advise { cli, .. } => cli.clone(),
            _ => continue,
        };
        let a = t.span("cli.inproc", |_| answer(&q, threads, &args.out))?;
        let csv = args.out.join("cli.csv");
        let json = args.out.join("cli.json");
        let out = t.span("cli.process", |_| {
            std::process::Command::new(mtp)
                .args(&cli)
                .arg("--csv")
                .arg(&csv)
                .arg("--json")
                .arg(&json)
                .output()
        });
        let out = out.map_err(|e| format!("cannot run {}: {e}", mtp.display()))?;
        if !out.status.success() {
            return Err(format!(
                "`mtp {}` failed: {}",
                cli.join(" "),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let got = std::fs::read_to_string(&csv).map_err(|e| e.to_string())?;
        if got != a.csv {
            return Err(format!("`mtp {}` CSV differs from the in-process answer", cli.join(" ")));
        }
        t.count("cli.queries", 1.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(qs: &[Query]) -> Vec<String> {
        qs.iter()
            .map(|q| match q {
                Query::Sweep { scenarios, .. } => {
                    scenarios.iter().map(Scenario::key).collect::<Vec<_>>().join(";")
                }
                Query::Advise { space, constraints, .. } => {
                    format!("{:?}{:?}", space.link_bw_pcts, constraints.max_latency_ms)
                }
                Query::Headline => "headline".to_owned(),
            })
            .collect()
    }

    #[test]
    fn plan_is_a_function_of_the_seed() {
        assert_eq!(fingerprint(&plan(1, 12)), fingerprint(&plan(1, 12)));
        assert_ne!(fingerprint(&plan(1, 12)), fingerprint(&plan(2, 12)));
        let kinds: Vec<_> = plan(5, 14).iter().map(Query::kind).collect();
        assert_eq!(&kinds[..7], &CYCLE);
        assert_eq!(&kinds[7..], &CYCLE);
    }

    #[test]
    fn answers_are_deterministic_and_oracle_agrees() {
        let out = std::env::temp_dir();
        let mut rng = Rng::new(9);
        for q in &plan(3, CYCLE.len()) {
            let a = answer(q, 2, &out).unwrap();
            let b = answer(q, 1, &out).unwrap();
            assert_eq!(a.digest, b.digest, "{}", q.kind());
            assert!(a.points > 0);
            oracle(q, &a, &mut rng, None).unwrap();
        }
    }

    #[test]
    fn paper_error_is_zero_on_the_paper_itself() {
        let h = Headline {
            tinyllama_ar_speedup_8: 26.1,
            tinyllama_ar_latency_ms: 0.54,
            tinyllama_ar_energy_mj: 0.64,
            tinyllama_ar_edp_improvement: 27.2,
            tinyllama_prompt_speedup_8: 9.9,
            mobilebert_speedup_4: 4.7,
            mobilebert_runtime_ms: 38.8,
            scaled_ar_speedup_64: 60.1,
            scaled_ar_energy_reduction_64: 1.3,
        };
        assert!(paper_err_pct(&h) < 1e-9);
    }
}
