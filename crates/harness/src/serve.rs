//! Serving-latency studies: grids of open-loop serving scenarios with
//! per-request TTFT/TPOT percentiles, SLO attainment, and
//! goodput-vs-offered-load curves.
//!
//! The sweep engine ([`mod@crate::sweep`]) answers throughput questions —
//! one makespan per scenario. This module is its latency-side sibling:
//! a [`ServeGrid`] enumerates arrival-rate × batch-policy × chip-count
//! scenarios, the [`ServeEngine`] runs each one through
//! [`mtp_core::DistributedSystem::simulate_serve`], and every
//! [`ServeRow`] reduces the per-request latency records to the
//! percentiles a serving evaluation reads (p50/p95/p99 TTFT and TPOT),
//! plus an SLO-attainment count and the resulting goodput. Sweeping the
//! arrival rate at fixed capacity traces the SLO cliff: the offered load
//! beyond which p99 TTFT departs the unloaded baseline and goodput
//! collapses.
//!
//! Definitions (`DESIGN.md` §12): TTFT is arrival→first-token
//! (queueing + prefill); TPOT is the mean inter-token gap after the
//! first; the SLO bound is `slo_factor ×` the *unloaded* solo prefill
//! makespan of the same model/chip-count, so attainment is judged
//! against what the fleet could do with zero contention; goodput counts
//! only within-SLO requests, per second of simulated serving time.
//!
//! Output is deterministic end to end — seeded arrivals, deterministic
//! pass simulation, stable float formatting — so same-seed grids
//! produce byte-identical CSV/JSON across engines and runs (locked by
//! `tests/serving_lockstep.rs`).

use crate::record::{self, Cell, Cells, Format, Record};
use crate::sweep::ModelPreset;
use crate::table::{fmt_cycles, TextTable};
use mtp_core::{
    BatchPolicy, Billing, DistributedSystem, FaultProfile, RequestOutcome, ServeReport,
};
use mtp_model::{ArrivalProcess, BatchWorkload, InferenceMode, ServeWorkload};
use mtp_sim::ChipSpec;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One serving grid point: the full recipe for a deterministic
/// open-loop serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScenario {
    /// Model preset (its autoregressive configuration fixes the KV
    /// capacity).
    pub model: ModelPreset,
    /// Fleet size in chips.
    pub n_chips: usize,
    /// Arrival process driving the open loop.
    pub process: ArrivalProcess,
    /// Admission policy.
    pub policy: BatchPolicy,
    /// Decode-billing model.
    pub billing: Billing,
    /// Number of requests to serve.
    pub n_requests: usize,
    /// Prompt length per request, in tokens.
    pub prompt_len: usize,
    /// Decoded tokens per request.
    pub decode_len: usize,
    /// Arrival-process seed.
    pub seed: u64,
    /// Request-level fault profile (failure rate, retry budget,
    /// deadline, admission-queue cap). [`FaultProfile::none`] takes the
    /// fault-free serving path bit for bit.
    pub faults: FaultProfile,
}

impl ServeScenario {
    /// The scenario's cache/identity key (every field, canonically
    /// labeled — two scenarios with equal keys run identical
    /// simulations).
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.model.cli_name(),
            self.n_chips,
            self.process.label(),
            self.policy.label(),
            self.billing.label(),
            self.n_requests,
            self.prompt_len,
            self.decode_len,
            self.seed,
            self.faults.label(),
        )
    }

    /// The system this scenario serves on.
    ///
    /// # Errors
    ///
    /// Propagates partition-divisibility errors as strings.
    fn system(&self) -> Result<DistributedSystem, String> {
        let cfg = self.model.config(InferenceMode::Autoregressive);
        DistributedSystem::paper_default(cfg, self.n_chips).map_err(|e| e.to_string())
    }

    /// Runs the serving simulation plus the unloaded solo-prefill
    /// baseline the SLO bound is derived from, on a fresh system.
    ///
    /// # Errors
    ///
    /// Returns a description for invalid workloads and propagates
    /// simulation errors as strings.
    pub fn run(&self) -> Result<(ServeReport, u64), String> {
        self.run_on(&self.system()?)
    }

    /// [`ServeScenario::run`] on `sys`, which must be this scenario's
    /// model on `n_chips` chips; its serving memo may already hold the
    /// slot schedules and pass makespans of earlier runs.
    fn run_on(&self, sys: &DistributedSystem) -> Result<(ServeReport, u64), String> {
        let workload = ServeWorkload::open_loop(
            &self.process,
            self.n_requests,
            self.prompt_len,
            self.decode_len,
            self.seed,
        )?;
        let report = sys
            .simulate_serve_faulted(&workload, self.policy, self.billing, &self.faults, self.seed)
            .map_err(|e| e.to_string())?;
        // The unloaded baseline: one solo request's prefill makespan on
        // the same fleet (what TTFT would be with zero queueing).
        let solo = sys
            .simulate_batch(InferenceMode::Prompt, &BatchWorkload::uniform(1, self.prompt_len, 0))
            .map_err(|e| e.to_string())?
            .stats
            .makespan;
        Ok((report, solo))
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `pct`% of the sample at or below it.
///
/// The percentile must be in `1..=100` — the nearest-rank definition
/// has no meaningful answer outside it, and a silently clamped
/// `percentile(s, 999)` would masquerade as a p99.
///
/// # Panics
///
/// Panics on an empty sample or a percentile outside `1..=100`.
#[must_use]
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range (want 1..=100)");
    // With pct <= 100 the rank is at most the sample length.
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// One completed serving scenario with its derived latency metrics.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// The scenario that produced this row.
    pub scenario: ServeScenario,
    /// The full serving report (latency records + pass trace).
    pub report: Arc<ServeReport>,
    /// TTFT percentiles `(p50, p95, p99)` in cycles.
    pub ttft: (u64, u64, u64),
    /// TPOT percentiles `(p50, p95, p99)` in cycles.
    pub tpot: (u64, u64, u64),
    /// p99 end-to-end latency in cycles.
    pub e2e_p99: u64,
    /// The SLO bound on TTFT, in cycles (`slo_factor ×` unloaded solo
    /// prefill).
    pub slo_cycles: u64,
    /// Requests whose TTFT met the SLO bound.
    pub slo_ok: usize,
    /// Within-SLO completions per second of serving time.
    pub goodput_rps: f64,
    /// Offered load in requests per second. Stochastic processes report
    /// their configured rate; traces report requests over the arrival
    /// window — last arrival plus one mean inter-arrival gap, so an
    /// `n`-request trace over `[0, last]` spans `n` gaps, not `n - 1`.
    /// An all-at-once trace (every arrival at cycle 0) has no window of
    /// its own and falls back to the serving makespan.
    pub offered_rps: f64,
}

impl ServeRow {
    /// Derives the latency metrics of one completed scenario.
    ///
    /// Percentiles sample **completed** requests only: a shed or
    /// timed-out request has no meaningful token latency, and counting
    /// its truncated record would make a lossy configuration look
    /// *faster*. A run where nothing completes reports all-zero
    /// percentiles (never panics), with `availability` telling the
    /// story.
    #[must_use]
    pub fn new(scenario: ServeScenario, report: Arc<ServeReport>, solo_prefill: u64) -> Self {
        let freq = ChipSpec::siracusa().freq_hz;
        let done: Vec<_> =
            report.requests.iter().filter(|r| r.outcome == RequestOutcome::Completed).collect();
        let mut ttfts: Vec<u64> = done.iter().map(|r| r.ttft()).collect();
        let mut tpots: Vec<u64> = done.iter().map(|r| r.tpot()).collect();
        let mut e2es: Vec<u64> = done.iter().map(|r| r.e2e()).collect();
        ttfts.sort_unstable();
        tpots.sort_unstable();
        e2es.sort_unstable();
        let pcts = |sorted: &[u64]| {
            if sorted.is_empty() {
                (0, 0, 0)
            } else {
                (percentile(sorted, 50), percentile(sorted, 95), percentile(sorted, 99))
            }
        };
        // SLO factors below keep the bound integral and deterministic.
        let slo_cycles = (SLO_FACTOR_PCT * solo_prefill) / 100;
        let slo_ok = ttfts.iter().filter(|&&t| t <= slo_cycles).count();
        let goodput_rps =
            if report.makespan == 0 { 0.0 } else { slo_ok as f64 * freq / report.makespan as f64 };
        let offered_rps = match scenario.process.rate_per_mcycle() {
            Some(rate) => rate * freq / 1.0e6,
            None => {
                // Trace window: last arrival plus one mean gap (n
                // arrivals span n gaps). A degenerate trace with every
                // arrival at cycle 0 — where the old `max(arrival)`
                // span of 1 cycle reported an absurd `n x freq` — is
                // rated over the serving makespan instead.
                let last = report.requests.iter().map(|r| r.arrival).max().unwrap_or(0);
                let n = report.requests.len() as u64;
                let span = if last > 0 && n > 1 { last + last / (n - 1) } else { report.makespan };
                if span == 0 {
                    0.0
                } else {
                    n as f64 * freq / span as f64
                }
            }
        };
        ServeRow {
            ttft: pcts(&ttfts),
            tpot: pcts(&tpots),
            e2e_p99: pcts(&e2es).2,
            slo_cycles,
            slo_ok,
            goodput_rps,
            offered_rps,
            scenario,
            report,
        }
    }

    /// One CSV line (no trailing newline), matching
    /// [`SERVE_CSV_HEADER`].
    #[must_use]
    pub fn to_csv_line(&self) -> String {
        record::csv_line(self)
    }
}

impl Record for ServeRow {
    const HEADER: &'static str = SERVE_CSV_HEADER;

    fn cells(&self, w: &mut Cells<'_>) {
        let s = &self.scenario;
        let r = &*self.report;
        w.cell(Cell::Str(&s.model.cli_name()));
        w.cell(Cell::Int(s.n_chips as u64));
        w.cell(Cell::Str(&s.process.label()));
        w.cell(Cell::Str(&s.policy.label()));
        w.cell(Cell::Str(s.billing.label()));
        w.cell(Cell::Int(s.n_requests as u64));
        w.cell(Cell::Int(s.prompt_len as u64));
        w.cell(Cell::Int(s.decode_len as u64));
        w.cell(Cell::Int(s.seed));
        w.cell(Cell::Str(&s.faults.label()));
        w.cell(Cell::Int(r.makespan));
        w.cell(Cell::Int(r.peak_concurrency() as u64));
        w.cell(Cell::Int(r.passes.len() as u64));
        for cycles in [self.ttft.0, self.ttft.1, self.ttft.2, self.tpot.0, self.tpot.1, self.tpot.2]
        {
            w.cell(Cell::Int(cycles));
        }
        w.cell(Cell::Int(self.e2e_p99));
        w.cell(Cell::Int(self.slo_cycles));
        w.cell(Cell::Int(self.slo_ok as u64));
        w.cell(Cell::Real(self.goodput_rps));
        w.cell(Cell::Real(self.offered_rps));
        // A zero-request run has no availability.
        w.cell(Cell::Maybe(r.availability()));
        for count in [r.retries, r.sheds, r.timeouts, r.failed] {
            w.cell(Cell::Int(count));
        }
    }
}

/// SLO factor in percent: the TTFT bound is `300%` of (three times) the
/// unloaded solo prefill makespan. Integer percent keeps the bound
/// exact.
pub const SLO_FACTOR_PCT: u64 = 300;

/// The serving table's column list, stable for downstream tooling: the
/// CSV header line of [`ServeResults::to_csv`] and the keys of each JSON
/// row.
pub const SERVE_CSV_HEADER: &str = "model,chips,arrival,policy,billing,requests,prompt_len,\
                                    decode_len,seed,faults,makespan_cycles,peak_slots,passes,\
                                    ttft_p50,ttft_p95,ttft_p99,tpot_p50,tpot_p95,tpot_p99,\
                                    e2e_p99,slo_cycles,slo_ok,goodput_rps,offered_rps,\
                                    availability,retries,sheds,timeouts,failed";

/// A serving scenario the engine could not run, with the reason.
#[derive(Debug, Clone)]
pub struct SkippedServe {
    /// The scenario that failed.
    pub scenario: ServeScenario,
    /// The underlying error message.
    pub reason: String,
}

/// Everything one serving-grid run produced.
#[derive(Debug, Clone)]
pub struct ServeResults {
    /// Successful rows, in grid-enumeration order.
    pub rows: Vec<ServeRow>,
    /// Skipped scenarios, in grid-enumeration order.
    pub skipped: Vec<SkippedServe>,
    /// Scenarios answered from the engine's cache.
    pub cache_hits: usize,
    /// Scenarios actually simulated by this run.
    pub unique_simulated: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl ServeResults {
    /// Serializes every row as CSV (header + one line per row, trailing
    /// newline). Byte-identical across runs of the same grid.
    #[must_use]
    pub fn to_csv(&self) -> String {
        record::render(Format::Csv, &self.rows)
    }

    /// Serializes every row as a JSON array (one object per row).
    /// Byte-identical across runs of the same grid.
    #[must_use]
    pub fn to_json(&self) -> String {
        record::render(Format::Json, &self.rows)
    }

    /// Renders the rows as an aligned text table (what `mtp serve`
    /// prints).
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            [
                "model",
                "chips",
                "arrival",
                "policy",
                "bill",
                "faults",
                "req",
                "ttft_p50",
                "ttft_p99",
                "tpot_p50",
                "slo_ok",
                "avail",
                "goodput/s",
            ]
            .map(String::from)
            .to_vec(),
        );
        for row in &self.rows {
            let s = &row.scenario;
            t.row(vec![
                s.model.cli_name(),
                s.n_chips.to_string(),
                s.process.label(),
                s.policy.label(),
                s.billing.label().to_owned(),
                s.faults.label(),
                s.n_requests.to_string(),
                fmt_cycles(row.ttft.0),
                fmt_cycles(row.ttft.2),
                fmt_cycles(row.tpot.0),
                format!("{}/{}", row.slo_ok, s.n_requests),
                row.report.availability().map_or_else(|| "-".to_owned(), |a| format!("{a:.2}")),
                format!("{:.1}", row.goodput_rps),
            ]);
        }
        t.render()
    }

    /// One-line run summary (scenario counts, cache hits, timing).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} serving scenario(s): {} simulated, {} from cache, {} skipped; {:.1} ms",
            self.rows.len() + self.skipped.len(),
            self.unique_simulated,
            self.cache_hits,
            self.skipped.len(),
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

/// A grid of serving scenarios: the cartesian product of the axes, with
/// shared request shape and seed.
#[derive(Debug, Clone)]
pub struct ServeGrid {
    /// Model presets.
    pub models: Vec<ModelPreset>,
    /// Fleet sizes.
    pub chip_counts: Vec<usize>,
    /// Arrival processes (the offered-load axis).
    pub arrivals: Vec<ArrivalProcess>,
    /// Admission policies.
    pub policies: Vec<BatchPolicy>,
    /// Billing models.
    pub billings: Vec<Billing>,
    /// Requests per scenario.
    pub n_requests: usize,
    /// Prompt length per request.
    pub prompt_len: usize,
    /// Decoded tokens per request.
    pub decode_len: usize,
    /// Arrival seed.
    pub seed: u64,
    /// Fault-profile axis (innermost). The default single
    /// [`FaultProfile::none`] keeps fault-free grids byte-identical to
    /// their pre-fault outputs.
    pub faults: Vec<FaultProfile>,
}

impl ServeGrid {
    /// The default serving study: TinyLlama on 4 and 8 chips, two
    /// Poisson rates spanning light and heavy load, static vs
    /// continuous batching under full-context billing.
    #[must_use]
    pub fn paper_default() -> Self {
        ServeGrid {
            models: vec![ModelPreset::TinyLlama],
            chip_counts: vec![4, 8],
            arrivals: vec![
                ArrivalProcess::Poisson { rate_per_mcycle: 0.5 },
                ArrivalProcess::Poisson { rate_per_mcycle: 4.0 },
            ],
            policies: vec![
                BatchPolicy::Static { batch: 8 },
                BatchPolicy::Continuous { max_slots: 8 },
            ],
            billings: vec![Billing::FullContext],
            n_requests: 24,
            prompt_len: 16,
            decode_len: 4,
            seed: 42,
            faults: vec![FaultProfile::none()],
        }
    }

    /// Replaces the chip-count axis.
    #[must_use]
    pub fn with_chip_counts(mut self, chip_counts: Vec<usize>) -> Self {
        self.chip_counts = chip_counts;
        self
    }

    /// Replaces the arrival-process axis.
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: Vec<ArrivalProcess>) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Replaces the policy axis.
    #[must_use]
    pub fn with_policies(mut self, policies: Vec<BatchPolicy>) -> Self {
        self.policies = policies;
        self
    }

    /// Replaces the billing axis.
    #[must_use]
    pub fn with_billings(mut self, billings: Vec<Billing>) -> Self {
        self.billings = billings;
        self
    }

    /// Replaces the request shape (`n` requests of `prompt_len` prompt
    /// and `decode_len` decoded tokens).
    #[must_use]
    pub fn with_requests(mut self, n: usize, prompt_len: usize, decode_len: usize) -> Self {
        self.n_requests = n;
        self.prompt_len = prompt_len;
        self.decode_len = decode_len;
        self
    }

    /// Replaces the arrival seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the fault-profile axis.
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<FaultProfile>) -> Self {
        self.faults = faults;
        self
    }

    /// Enumerates every scenario of the grid, models outermost, faults
    /// innermost (stable order — the row order of the outputs).
    #[must_use]
    pub fn scenarios(&self) -> Vec<ServeScenario> {
        let mut out = Vec::new();
        for &model in &self.models {
            for &n_chips in &self.chip_counts {
                for process in &self.arrivals {
                    for &policy in &self.policies {
                        for &billing in &self.billings {
                            for &faults in &self.faults {
                                out.push(ServeScenario {
                                    model,
                                    n_chips,
                                    process: process.clone(),
                                    policy,
                                    billing,
                                    n_requests: self.n_requests,
                                    prompt_len: self.prompt_len,
                                    decode_len: self.decode_len,
                                    seed: self.seed,
                                    faults,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// The caching serving-grid runner. Serial by design: one serving
/// scenario is itself a long chain of pass simulations. The engine keeps
/// one [`DistributedSystem`] per `(model, chip count)`, so every
/// scenario on that fleet — whatever its arrivals, policy, billing or
/// fault profile — and its solo-prefill baseline share the system's
/// serving memo of slot schedules and pass makespans. The engine's own cache
/// deduplicates repeated scenarios across runs (the warm engine of the
/// determinism proof answers without re-simulating).
#[derive(Debug, Default)]
pub struct ServeEngine {
    cache: HashMap<String, (Arc<ServeReport>, u64)>,
    systems: HashMap<(ModelPreset, usize), DistributedSystem>,
}

impl ServeEngine {
    /// An empty-cache engine.
    #[must_use]
    pub fn new() -> Self {
        ServeEngine::default()
    }

    /// Number of serving reports currently cached.
    #[must_use]
    pub fn cached_len(&self) -> usize {
        self.cache.len()
    }

    /// Runs every scenario of the grid. Never fails as a whole: invalid
    /// grid points come back in [`ServeResults::skipped`] with the
    /// underlying error message.
    pub fn run(&mut self, grid: &ServeGrid) -> ServeResults {
        self.run_scenarios(grid.scenarios())
    }

    /// Runs an explicit scenario list (deduplicated via the cache) and
    /// returns rows in input order.
    pub fn run_scenarios(&mut self, scenarios: Vec<ServeScenario>) -> ServeResults {
        let started = std::time::Instant::now();
        let mut rows = Vec::new();
        let mut skipped = Vec::new();
        let mut cache_hits = 0usize;
        let mut unique_simulated = 0usize;
        for scenario in scenarios {
            let key = scenario.key();
            let cached = self.cache.get(&key).cloned();
            let outcome = match cached {
                Some(hit) => {
                    cache_hits += 1;
                    Ok(hit)
                }
                None => match self.system(&scenario).and_then(|sys| scenario.run_on(sys)) {
                    Ok((report, solo)) => {
                        unique_simulated += 1;
                        let entry = (Arc::new(report), solo);
                        self.cache.insert(key, entry.clone());
                        Ok(entry)
                    }
                    Err(reason) => Err(reason),
                },
            };
            match outcome {
                Ok((report, solo)) => rows.push(ServeRow::new(scenario, report, solo)),
                Err(reason) => skipped.push(SkippedServe { scenario, reason }),
            }
        }
        ServeResults { rows, skipped, cache_hits, unique_simulated, elapsed: started.elapsed() }
    }

    /// The engine's system for `scenario`'s fleet, built on first use.
    fn system(&mut self, scenario: &ServeScenario) -> Result<&DistributedSystem, String> {
        Ok(match self.systems.entry((scenario.model, scenario.n_chips)) {
            Entry::Occupied(fleet) => fleet.into_mut(),
            Entry::Vacant(fleet) => fleet.insert(scenario.system()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> ServeGrid {
        ServeGrid::paper_default()
            .with_chip_counts(vec![4])
            .with_arrivals(vec![ArrivalProcess::Poisson { rate_per_mcycle: 1.0 }])
            .with_policies(vec![BatchPolicy::Continuous { max_slots: 4 }])
            .with_requests(6, 16, 2)
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10u64, 20, 30, 40];
        assert_eq!(percentile(&s, 50), 20);
        assert_eq!(percentile(&s, 95), 40);
        assert_eq!(percentile(&s, 99), 40);
        assert_eq!(percentile(&s, 1), 10);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn percentile_boundaries() {
        assert_eq!(percentile(&[7], 1), 7);
        assert_eq!(percentile(&[7], 100), 7);
        assert_eq!(percentile(&[1, 2], 1), 1);
        assert_eq!(percentile(&[1, 2], 50), 1);
        assert_eq!(percentile(&[1, 2], 51), 2);
        assert_eq!(percentile(&[1, 2], 100), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_zero() {
        let _ = percentile(&[1, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_above_one_hundred() {
        // Formerly clamped to the sample max, silently reporting a
        // "p999" as if it were meaningful.
        let _ = percentile(&[1, 2, 3], 101);
    }

    #[test]
    fn trace_offered_rps_uses_arrival_window() {
        let freq = ChipSpec::siracusa().freq_hz;
        let mut engine = ServeEngine::new();
        // Six arrivals over [0, 500]: the window is the last arrival
        // plus one mean gap (500/5), i.e. 600 cycles.
        let spread = ArrivalProcess::Trace { arrivals: vec![0, 100, 200, 300, 400, 500] };
        let out = engine.run(&tiny_grid().with_arrivals(vec![spread]));
        let row = &out.rows[0];
        assert!((row.offered_rps - 6.0 * freq / 600.0).abs() < 1e-9);
    }

    #[test]
    fn all_at_once_trace_rates_over_makespan() {
        let freq = ChipSpec::siracusa().freq_hz;
        let mut engine = ServeEngine::new();
        // Every request at cycle 0: the old span of `max(arrival).max(1)`
        // = 1 cycle reported n x freq (billions of rps). The window
        // falls back to the serving makespan.
        let burst = ArrivalProcess::Trace { arrivals: vec![0; 6] };
        let out = engine.run(&tiny_grid().with_arrivals(vec![burst]));
        let row = &out.rows[0];
        let expect = 6.0 * freq / row.report.makespan as f64;
        assert!((row.offered_rps - expect).abs() < 1e-9);
        assert!(row.offered_rps < freq, "must not report requests x clock frequency");
    }

    #[test]
    fn grid_enumerates_cartesian_product() {
        let g = ServeGrid::paper_default();
        assert_eq!(g.scenarios().len(), 2 * 2 * 2);
        let tiny = tiny_grid();
        assert_eq!(tiny.scenarios().len(), 1);
    }

    #[test]
    fn engine_runs_and_caches() {
        let mut engine = ServeEngine::new();
        let grid = tiny_grid();
        let first = engine.run(&grid);
        assert_eq!(first.rows.len(), 1);
        assert_eq!(first.unique_simulated, 1);
        assert_eq!(first.cache_hits, 0);
        let second = engine.run(&grid);
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.unique_simulated, 0);
        // Cold vs warm rows are byte-identical.
        assert_eq!(first.to_csv(), second.to_csv());
        assert_eq!(first.to_json(), second.to_json());
        assert_eq!(engine.cached_len(), 1);
    }

    #[test]
    fn engine_shares_one_system_per_fleet() {
        let mut engine = ServeEngine::new();
        let grid = ServeGrid::paper_default()
            .with_billings(vec![Billing::FullContext, Billing::PerRequest])
            .with_requests(6, 16, 3);
        let out = engine.run(&grid);
        assert_eq!(out.rows.len(), 16);
        assert_eq!(engine.systems.len(), 2, "one system per chip count");
        for row in &out.rows {
            let (report, solo) = row.scenario.run().unwrap();
            assert_eq!(*row.report, report, "{}", row.scenario.key());
            assert_eq!(row.slo_cycles, SLO_FACTOR_PCT * solo / 100);
        }
    }

    #[test]
    fn csv_and_json_carry_percentile_columns() {
        let mut engine = ServeEngine::new();
        let out = engine.run(&tiny_grid());
        let csv = out.to_csv();
        assert!(csv.starts_with("model,chips,arrival"));
        assert!(csv.contains("ttft_p99"));
        assert_eq!(csv.lines().count(), 2);
        let json = out.to_json();
        assert!(json.contains("\"ttft_p99\":"));
        assert!(json.contains("\"goodput_rps\":"));
        let rendered = out.render();
        assert!(rendered.contains("ttft_p50"));
        assert!(out.summary().contains("1 serving scenario(s)"));
    }

    #[test]
    fn invalid_chip_count_is_skipped_not_fatal() {
        let mut engine = ServeEngine::new();
        let grid = tiny_grid().with_chip_counts(vec![3]);
        let out = engine.run(&grid);
        assert!(out.rows.is_empty());
        assert_eq!(out.skipped.len(), 1);
        assert!(!out.skipped[0].reason.is_empty());
    }
}
