//! The repository benchmark: one binary, three seeded workloads.
//!
//! ```text
//! perfbench --workload design_space|serve_open_loop|golden_decode \
//!           --seed N --seconds S --trace 0|1 [--out DIR] [--mtp PATH] [--pin]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with nothing
//! traced; with `--trace 1` it runs the same inputs with spans around
//! every layer call and reports per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `perfbench/README.md`.

mod design;
mod golden;
mod host;
mod layers;
mod serve;
mod stats;
mod trace;

use stats::{median, percentile, tail_percentile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Set-ups per run of the cheap workloads; `setup_s` is their median,
/// which lands past the first, page-faulting repetitions.
pub const SETUP_REPS: usize = 11;

/// The seed whose op digests are pinned in `pinned.txt`.
pub const DEFAULT_SEED: u64 = 1;

const PINNED: &str = include_str!("../pinned.txt");

pub const WORKLOADS: [&str; 3] = ["design_space", "serve_open_loop", "golden_decode"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub mtp: Option<PathBuf>,
    /// Print every op digest (the lines `pinned.txt` is made of).
    pub pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let workload = value("--workload").ok_or("missing --workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (expected one of {WORKLOADS:?})"));
    }
    let seed = value("--seed").unwrap_or("1").parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds").unwrap_or("10").parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
    };
    let out = PathBuf::from(value("--out").unwrap_or(".bench_out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mtp = value("--mtp").map(PathBuf::from);
    Ok(Args { workload, seed, seconds, trace, out, mtp, pin: argv.iter().any(|a| a == "--pin") })
}

/// Output checks of one run: failed op ids with their first messages,
/// plus the pinned-digest comparison for the default seed.
pub struct Check {
    workload: &'static str,
    seed: u64,
    pin: bool,
    pinned: BTreeMap<usize, u64>,
    digests: BTreeMap<usize, u64>,
    failed: BTreeSet<usize>,
    messages: Vec<String>,
}

impl Check {
    pub fn new(workload: &'static str, args: &Args) -> Self {
        let pinned = PINNED
            .lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                match (f.next(), f.next(), f.next()) {
                    (Some(w), Some(i), Some(d)) if w == workload => {
                        Some((i.parse().ok()?, u64::from_str_radix(d, 16).ok()?))
                    }
                    _ => None,
                }
            })
            .collect();
        Check {
            workload,
            seed: args.seed,
            pin: args.pin,
            pinned,
            digests: BTreeMap::new(),
            failed: BTreeSet::new(),
            messages: Vec::new(),
        }
    }

    /// Records op `i`'s output digest and compares it with the pinned
    /// value when the seed is the default one.
    pub fn digest(&mut self, i: usize, d: u64) {
        self.digests.entry(i).or_insert(d);
        if self.seed == DEFAULT_SEED {
            if let Some(&want) = self.pinned.get(&i) {
                self.expect(
                    i,
                    want == d,
                    &format!("digest {d:016x} differs from pinned {want:016x}"),
                );
            }
        }
    }

    pub fn expect(&mut self, i: usize, ok: bool, what: &str) {
        if !ok {
            self.fail(i, what);
        }
    }

    pub fn fail(&mut self, i: usize, what: &str) {
        self.failed.insert(i);
        if self.messages.len() < 8 {
            self.messages.push(format!("{} op {i}: {what}", self.workload));
        }
    }

    pub fn merge(&mut self, other: Check) {
        self.failed.extend(other.failed);
        self.messages.extend(other.messages);
    }

    pub fn n_failed(&self) -> u64 {
        self.failed.len() as u64
    }
}

/// What one untraced run measured. Times are `(wall, cpu)` pairs (see
/// [`host::Stamp`]).
pub struct Run {
    /// CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    pub items: f64,
    /// `(wall, cpu)` milliseconds of the whole timed loop.
    pub timed_ms: (f64, f64),
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub extras: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    pub fn new(setup_s: Vec<f64>) -> Self {
        Run {
            setup_s,
            wall_ms: Vec::new(),
            cpu_ms: Vec::new(),
            items: 0.0,
            timed_ms: (0.0, 0.0),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            extras: Vec::new(),
        }
    }

    pub fn op(&mut self, (wall_ms, cpu_ms): (f64, f64), items: f64) {
        self.wall_ms.push(wall_ms);
        self.cpu_ms.push(cpu_ms);
        self.items += items;
        self.attempted += 1;
    }

    /// Work items per wall second of the timed loop.
    pub fn per_wall_s(&self) -> f64 {
        self.items / (self.timed_ms.0 / 1e3)
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// A workload-specific figure printed with the result (not one of
    /// the gated end-to-end metrics).
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extras.push((name, value, unit));
    }

    pub fn finish(&mut self, check: Check) {
        if check.pin {
            for (i, d) in &check.digests {
                println!("{} {i} {d:016x}", check.workload);
            }
        }
        self.failed = check.n_failed();
        self.notes.extend(check.messages);
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    assert!(metrics.iter().all(|(n, _, _)| stats::valid_metric_name(n)), "bad metric name");
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

fn untraced(args: &Args) -> Result<(), String> {
    let mut run = match args.workload.as_str() {
        "design_space" => design::run(args)?,
        "serve_open_loop" => serve::run(args)?,
        _ => golden::run(args)?,
    };
    let n = run.wall_ms.len();
    if n == 0 {
        return Err("no op completed".to_owned());
    }
    run.wall_ms.sort_by(f64::total_cmp);
    run.cpu_ms.sort_by(f64::total_cmp);
    let tail = |sorted: &[f64]| match tail_percentile(n) {
        Some(p) => percentile(sorted, f64::from(p)),
        None => sorted[n - 1],
    };
    let (tail_name, beyond) = match tail_percentile(n) {
        Some(p) => (format!("p{p}"), n - stats::rank(n, f64::from(p))),
        None => ("max".to_owned(), 0),
    };
    // The gated metrics, exactly those `BENCHMARK.json` lists. Times are
    // process CPU time, which leaves out the host's steal.
    let metrics = [
        ("setup_s", median(&run.setup_s), "s"),
        ("peak_rss_mb", host::peak_rss_mib(), "MiB"),
        ("op_cpu_p50_ms", percentile(&run.cpu_ms, 50.0), "ms"),
        ("op_cpu_tail_ms", tail(&run.cpu_ms), "ms"),
        ("work_per_cpu_s", run.items / (run.timed_ms.1 / 1e3), "1/s"),
    ];
    // The same figures in wall time, reported but not gated: on a shared
    // host their run-to-run spread followed the steal.
    let wall = [
        ("op_p50_ms", percentile(&run.wall_ms, 50.0), "ms"),
        ("op_tail_ms", tail(&run.wall_ms), "ms"),
        ("work_per_s", run.per_wall_s(), "1/s"),
    ];
    println!("host: {}", host::fingerprint());
    println!(
        "workload {} seed {}: {n} ops in {:.3} s wall, {:.3} s CPU; the tail is the {tail_name} \
         of {n} samples, {beyond} beyond it",
        args.workload,
        args.seed,
        run.timed_ms.0 / 1e3,
        run.timed_ms.1 / 1e3,
    );
    let samples: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.6}")).collect();
    println!("setup_s is the median of {} set-ups: {}", samples.len(), samples.join(" "));
    for note in &run.notes {
        println!("note: {note}");
    }
    for (name, value, unit) in metrics.iter().chain(&wall).chain(run.extras.iter()) {
        println!("{name} = {value} {unit}");
    }
    let correct = run.failed == 0;
    println!("{}", result_line(correct, run.attempted, run.failed, &metrics));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace { layers::traced(&args) } else { untraced(&args) };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_digests_gate_the_default_seed_only() {
        let args = |seed| Args {
            workload: "design_space".to_owned(),
            seed,
            seconds: 1.0,
            trace: false,
            out: PathBuf::from("."),
            mtp: None,
            pin: false,
        };
        let pinned = u64::from_str_radix(
            PINNED.lines().find_map(|l| l.strip_prefix("design_space 0 ")).expect("op 0 is pinned"),
            16,
        )
        .unwrap();
        let mut ok = Check::new("design_space", &args(DEFAULT_SEED));
        ok.digest(0, pinned);
        assert_eq!(ok.n_failed(), 0);
        let mut bad = Check::new("design_space", &args(DEFAULT_SEED));
        bad.digest(0, pinned ^ 1);
        assert_eq!(bad.n_failed(), 1);
        let mut other_seed = Check::new("design_space", &args(DEFAULT_SEED + 1));
        other_seed.digest(0, pinned ^ 1);
        assert_eq!(other_seed.n_failed(), 0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[("op_p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn benchmark_json_names_are_valid_and_reported() {
        let spec = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> =
            spec.split("\"name\": \"").skip(1).map(|s| &s[..s.find('"').unwrap()]).collect();
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        for w in WORKLOADS {
            assert!(names.contains(&w), "{w} missing from BENCHMARK.json");
        }
        for m in ["setup_s", "peak_rss_mb", "op_cpu_p50_ms", "op_cpu_tail_ms", "work_per_cpu_s"] {
            assert!(names.contains(&m), "{m} missing from BENCHMARK.json");
        }
        for (m, _) in layers::NAMES {
            assert!(names.contains(&m), "per-layer metric {m} missing from BENCHMARK.json");
        }
    }
}
