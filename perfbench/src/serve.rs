//! `serve_open_loop`: per-request-billed serving studies of TinyLlama-42M
//! on 8 chips. A study serves one seeded request set (prompt and decode
//! lengths) under `continuous:8` and `static:8`, each at three fixed
//! Poisson offered loads (below, near and above saturation), plus the
//! unloaded solo-prefill baseline. The open loop runs in simulated time;
//! the host loop is closed (one study after another).

use crate::host::Stamp;
use crate::stats::{Digest, Rng};
use crate::trace::Tracer;
use crate::{Args, Check, Run};
use mtp_core::schedule::Scheduler;
use mtp_core::{BatchPolicy, Billing, DistributedSystem, ServeReport, SlotPhase};
use mtp_model::{
    ArrivalProcess, BatchWorkload, InferenceMode, ServeRequest, ServeWorkload, TransformerConfig,
};
use mtp_sim::{Instr, Machine, MsgId, Program};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

pub const CHIPS: usize = 8;

/// Requests per served workload (a study serves six of them).
pub const REQUESTS: usize = 16;

/// Offered loads in requests per megacycle: below, near and above the
/// saturation point of `continuous:8` on this request mix (about 0.014;
/// see the `saturation_point` test).
pub const LOADS: [(&str, f64); 3] = [("below", 0.007), ("near", 0.013), ("above", 0.03)];

const POLICIES: [BatchPolicy; 2] =
    [BatchPolicy::Continuous { max_slots: 8 }, BatchPolicy::Static { batch: 8 }];

/// Studies generated per plan; a run that outlasts them starts over.
const PLAN_LEN: usize = 600;

pub struct Study {
    /// `(policy, workload)` per served case: every policy at every load.
    pub cases: Vec<(BatchPolicy, ServeWorkload)>,
    /// Prompt length of the unloaded solo-prefill baseline (the mean
    /// prompt of the request set).
    pub solo_prompt: usize,
}

impl Study {
    pub fn n_requests(&self) -> usize {
        self.cases.iter().map(|(_, w)| w.n_requests()).sum()
    }
}

pub fn config() -> TransformerConfig {
    TransformerConfig::tiny_llama_42m()
}

/// The seeded study sequence: request shapes and arrival times come
/// from the seed; one arrival draw is shared by the three loads, so a
/// higher load only moves every arrival earlier.
pub fn plan(seed: u64, len: usize, requests: usize) -> Vec<Study> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let shapes: Vec<(usize, usize)> = (0..requests)
                .map(|_| (rng.range(4, 64) as usize, rng.range(1, 64) as usize))
                .collect();
            let arrival_seed = rng.next_u64();
            let mut cases = Vec::new();
            for policy in POLICIES {
                for (_, rate) in LOADS {
                    let arrivals = ArrivalProcess::Poisson { rate_per_mcycle: rate }
                        .sample(requests, arrival_seed);
                    let reqs = shapes
                        .iter()
                        .zip(arrivals)
                        .map(|(&(prompt_len, decode_len), arrival_cycles)| ServeRequest {
                            prompt_len,
                            decode_len,
                            arrival_cycles,
                        })
                        .collect();
                    cases.push((policy, ServeWorkload::new(reqs).expect("non-empty prompts")));
                }
            }
            let solo_prompt = shapes.iter().map(|s| s.0).sum::<usize>() / requests;
            Study { cases, solo_prompt }
        })
        .collect()
}

/// One finished study: a serving report per case and the digest of
/// every simulated statistic (including the solo-prefill baseline).
pub struct Outcome {
    pub reports: Vec<ServeReport>,
    pub digest: u64,
}

impl Outcome {
    pub fn completed(&self) -> usize {
        self.reports.iter().map(ServeReport::completed).sum()
    }
}

fn percentiles(mut v: Vec<u64>) -> [u64; 3] {
    v.sort_unstable();
    if v.is_empty() {
        return [0; 3];
    }
    [50, 95, 99].map(|p| mtp_harness::serve::percentile(&v, p))
}

fn digest(d: &mut Digest, report: &ServeReport) {
    for r in &report.requests {
        for v in [r.arrival, r.admitted, r.first_token, r.finish, r.retries.into()] {
            d.u64(v);
        }
    }
    for p in &report.passes {
        d.u64(p.start);
        d.u64(p.cycles);
    }
    d.u64(report.makespan);
    for v in percentiles(report.requests.iter().map(|r| r.ttft()).collect())
        .into_iter()
        .chain(percentiles(report.requests.iter().map(|r| r.tpot()).collect()))
    {
        d.u64(v);
    }
}

/// Runs one study on a freshly built system, optionally tracing each
/// serving simulation and the solo-prefill baseline.
pub fn study(s: &Study, mut t: Option<&mut Tracer>) -> Result<Outcome, String> {
    let sys = DistributedSystem::paper_default(config(), CHIPS).map_err(|e| e.to_string())?;
    let mut d = Digest::default();
    let mut reports = Vec::with_capacity(s.cases.len());
    for (policy, workload) in &s.cases {
        let serve = || sys.simulate_serve(workload, *policy, Billing::PerRequest);
        let report = match t.as_deref_mut() {
            Some(t) => t.span("serve.sim", |_| serve()),
            None => serve(),
        }
        .map_err(|e| e.to_string())?;
        digest(&mut d, &report);
        reports.push(report);
    }
    let baseline = BatchWorkload::uniform(1, s.solo_prompt, 0);
    let solo = || sys.simulate_batch(InferenceMode::Prompt, &baseline);
    let solo = match t {
        Some(t) => t.span("serve.solo_prefill", |_| solo()),
        None => solo(),
    }
    .map_err(|e| e.to_string())?
    .stats
    .makespan;
    d.u64(solo);
    Ok(Outcome { reports, digest: d.finish() })
}

type Shape = Vec<(InferenceMode, usize)>;

/// The slot shapes of every pass, rebuilt from the pass trace the way
/// the serving loop bills them (prefill slots at their prompt length,
/// decode slots at prompt plus tokens emitted so far).
pub fn pass_shapes(report: &ServeReport, seq_len: usize) -> Vec<Shape> {
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

/// Full event-driven simulation of one pass: every slot lowers its own
/// block body and the bodies interleave block-major with disjoint
/// message and sync ids. Returns the makespan and instruction count.
pub fn full_pass(sys_cfg: &TransformerConfig, shape: &Shape) -> Result<(u64, usize), String> {
    let chip = mtp_sim::ChipSpec::siracusa();
    let n_layers = sys_cfg.n_layers;
    let mut progs = vec![Program::new(); CHIPS];
    let (mut msg_base, mut sync_base) = (0u64, 0u32);
    let mut bodies = Vec::new();
    for &(mode, seq) in shape {
        let cfg = sys_cfg.clone().with_seq_len(seq);
        let mut sched = Scheduler::new(&cfg, CHIPS, &chip).map_err(|e| e.to_string())?;
        let per_block: Vec<Vec<Program>> =
            (0..n_layers).map(|_| sched.block_programs(mode)).collect();
        let (mut max_msg, mut max_sync) = (0u64, 0u32);
        for p in per_block.iter().flatten() {
            for i in p.instrs() {
                match *i {
                    Instr::Send { msg, .. } | Instr::Recv { msg, .. } => {
                        max_msg = max_msg.max(msg.0 + 1)
                    }
                    Instr::Sync(id) => max_sync = max_sync.max(id + 1),
                    _ => {}
                }
            }
        }
        bodies.push((per_block, msg_base, sync_base));
        msg_base += max_msg;
        sync_base += max_sync;
    }
    for block in 0..n_layers {
        for (per_block, dm, ds) in &bodies {
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
    let instrs = progs.iter().map(Program::len).sum();
    let stats = Machine::homogeneous(chip, CHIPS).run(&progs).map_err(|e| e.to_string())?;
    Ok((stats.makespan, instrs))
}

/// Every distinct pass shape of a study with the cycles the serving
/// loop charged for it; a shape must cost the same wherever it occurs.
fn distinct_shapes(out: &Outcome) -> Result<Vec<(Shape, u64)>, String> {
    let seq_len = config().seq_len;
    let mut cycles: HashMap<Shape, u64> = HashMap::new();
    let mut distinct = Vec::new();
    for report in &out.reports {
        for (shape, pass) in pass_shapes(report, seq_len).into_iter().zip(&report.passes) {
            match cycles.get(&shape) {
                Some(&c) if c != pass.cycles => {
                    return Err("one pass shape took two different times".to_owned());
                }
                Some(_) => {}
                None => {
                    cycles.insert(shape.clone(), pass.cycles);
                    distinct.push((shape, pass.cycles));
                }
            }
        }
    }
    Ok(distinct)
}

/// Re-simulates the picked distinct pass shapes in full and compares
/// them with the cycles the serving loop charged; returns how many were
/// checked.
fn oracle(out: &Outcome, picks: &[usize], mut t: Option<&mut Tracer>) -> Result<usize, String> {
    let cfg = config();
    let distinct = distinct_shapes(out)?;
    for &i in picks {
        let (shape, charged) = &distinct[i % distinct.len()];
        let (makespan, instrs) = match t.as_deref_mut() {
            Some(t) => t.span("exec.full", |_| full_pass(&cfg, shape))?,
            None => full_pass(&cfg, shape)?,
        };
        if let Some(t) = t.as_deref_mut() {
            t.count("exec.instrs", instrs as f64);
        }
        if makespan != *charged {
            return Err(format!(
                "pass of {} slots: serve charged {charged} cycles, full simulation {makespan}",
                shape.len()
            ));
        }
    }
    Ok(picks.len())
}

pub fn run(args: &Args) -> Result<Run, String> {
    let mut setups = Vec::new();
    let mut studies = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let started = Stamp::now();
        studies = plan(args.seed, PLAN_LEN, REQUESTS);
        setups.push(started.elapsed_ms().1 / 1e3);
    }
    let mut check = Check::new("serve_open_loop", args);
    let mut run = Run::new(setups);
    let mut first: HashMap<usize, u64> = HashMap::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let started = Stamp::now();
    let mut i = 0;
    while Instant::now() < deadline {
        let s = &studies[i % studies.len()];
        let t0 = Stamp::now();
        let out = study(s, None);
        let ms = t0.elapsed_ms();
        match out {
            Ok(out) => {
                let completed = out.completed();
                run.op(ms, completed as f64);
                check.expect(i, completed == s.n_requests(), "a request did not complete");
                check.digest(i, out.digest);
                match first.get(&(i % studies.len())) {
                    Some(&d) => {
                        check.expect(i, d == out.digest, "repeated study changed its output")
                    }
                    None => {
                        first.insert(i % studies.len(), out.digest);
                    }
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

    // Outside the timed region: repeat the first studies and re-simulate
    // sampled pass shapes in full.
    let mut rng = Rng::new(args.seed ^ 0x5E7E);
    let mut checked = 0;
    for (j, s) in studies.iter().enumerate().take(3.min(i)) {
        match study(s, None) {
            Ok(out) => {
                check.expect(
                    j,
                    first.get(&j) == Some(&out.digest),
                    "repetition changed the output",
                );
                let picks = [0, 1, 2].map(|_| rng.next_u64() as usize);
                match oracle(&out, &picks, None) {
                    Ok(n) => checked += n,
                    Err(e) => check.fail(j, &e),
                }
            }
            Err(e) => check.fail(j, &e),
        }
    }
    run.note(format!("oracle: {checked} sampled pass shapes re-simulated in full"));
    run.extra("serve_req_s", run.per_wall_s(), "req/s");
    run.finish(check);
    Ok(run)
}

/// One traced study: classifies every pass as uniform or mixed (the
/// two must add up to the pass count) and re-simulates up to four
/// distinct shapes in full under `exec.full` spans.
fn traced_study(s: &Study, t: &mut Tracer) -> Result<(), String> {
    let out = study(s, Some(t))?;
    let seq_len = config().seq_len;
    for report in &out.reports {
        let shapes = pass_shapes(report, seq_len);
        let uniform = shapes.iter().filter(|sh| sh.iter().all(|x| *x == sh[0])).count();
        let mixed = shapes.iter().filter(|sh| sh.iter().any(|x| *x != sh[0])).count();
        if uniform + mixed != report.passes.len() {
            return Err("uniform plus mixed passes do not add up to the pass count".to_owned());
        }
        t.count("serve.passes", report.passes.len() as f64);
        t.count("serve.mixed", mixed as f64);
        let distinct: HashSet<&Shape> = shapes.iter().collect();
        t.count("serve.distinct_shapes", distinct.len() as f64);
    }
    let picks: Vec<usize> = (0..4).collect();
    oracle(&out, &picks, Some(t)).map(|_| ())
}

/// The traced workload: the same studies, with spans around each
/// serving simulation, the solo-prefill baseline and the full
/// re-simulations. Runs at least one study.
pub fn traced(args: &Args, t: &mut Tracer, seconds: f64, requests: usize, base_op: usize) -> Check {
    let studies = plan(args.seed, PLAN_LEN, requests);
    let mut check = Check::new("serve_open_loop", args);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        t.set_op(base_op + i);
        if let Err(e) = t.span("op", |t| traced_study(&studies[i % studies.len()], t)) {
            check.fail(base_op + i, &e);
        }
        i += 1;
    }
    check
}

/// Untraced time of the first `n` studies (after one warm-up pass over
/// them), for the tracing overhead.
pub fn untraced_ms(args: &Args, n: usize) -> f64 {
    let studies = plan(args.seed, n, REQUESTS);
    let pass = || {
        let started = Instant::now();
        for s in &studies {
            let _ = study(s, None);
        }
        started.elapsed().as_secs_f64() * 1e3
    };
    pass();
    pass()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(p: &[Study]) -> Vec<Vec<ServeRequest>> {
        p.iter().flat_map(|s| s.cases.iter().map(|(_, w)| w.requests().to_vec())).collect()
    }

    #[test]
    fn plan_is_a_function_of_the_seed() {
        assert_eq!(requests(&plan(1, 3, 8)), requests(&plan(1, 3, 8)));
        assert_ne!(requests(&plan(1, 3, 8)), requests(&plan(2, 3, 8)));
        for s in plan(4, 4, 16) {
            assert_eq!(s.cases.len(), LOADS.len() * POLICIES.len());
            for (_, w) in &s.cases {
                w.validate_for(&config()).unwrap();
            }
        }
    }

    #[test]
    fn studies_are_deterministic_and_match_full_simulation() {
        let studies = plan(7, 1, 6);
        let a = study(&studies[0], None).unwrap();
        let b = study(&studies[0], None).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.completed(), studies[0].n_requests());
        oracle(&a, &[0, 1, 2, 3], None).unwrap();
    }

    /// Prints served requests per megacycle against offered load for
    /// `continuous:8`; the flat top is the saturation point `LOADS`
    /// brackets. Run with `cargo test -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn saturation_point() {
        let sys = DistributedSystem::paper_default(config(), CHIPS).unwrap();
        let mut rng = Rng::new(0);
        for rate in [0.005, 0.01, 0.02, 0.03, 0.05, 0.08] {
            let arrivals = ArrivalProcess::Poisson { rate_per_mcycle: rate }.sample(64, 0);
            let reqs = arrivals
                .into_iter()
                .map(|arrival_cycles| ServeRequest {
                    prompt_len: rng.range(4, 64) as usize,
                    decode_len: rng.range(1, 64) as usize,
                    arrival_cycles,
                })
                .collect();
            let w = ServeWorkload::new(reqs).unwrap();
            let policy = BatchPolicy::Continuous { max_slots: 8 };
            let r = sys.simulate_serve(&w, policy, Billing::PerRequest).unwrap();
            println!(
                "offered {rate}/Mcycle: served {:.4}/Mcycle",
                64.0 / (r.makespan as f64 / 1e6)
            );
        }
    }
}
