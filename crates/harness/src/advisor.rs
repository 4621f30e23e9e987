//! Design-space advisor: which deployment actually meets the product
//! constraints?
//!
//! Given a model, an inference mode, and real-time constraints (latency
//! per full-model pass, energy per pass), the advisor searches a
//! [`DesignSpace`] — reduction topology x weight placement x chip count
//! x link bandwidth — computes the Pareto frontier over (makespan,
//! energy, chips), and recommends the smallest feasible system: the
//! question a smart-glasses integrator asks before committing to a board
//! design.
//!
//! The search is built on the repo's two reuse layers, so it is
//! interactive even for thousand-point spaces:
//!
//! 1. **Schedule reuse** — candidates sharing a
//!    [`Scenario::schedule_key`] compile one [`CompiledSchedule`]
//!    (bandwidth never changes a template, and a single chip collapses
//!    every topology).
//! 2. **Symbolic scoring** — every point scores through
//!    [`CompiledSchedule::simulate`], whose steady-state memo walks once
//!    per timing class (bandwidths that price every template send alike
//!    share one), so every further `(bandwidth, depth)` cell is a
//!    closed-form lookup ([`mtp_sim::SymbolicMakespan::eval`],
//!    `DESIGN.md` §15). Candidates whose fixed point is not provable fall
//!    back to exact simulation — identical numbers either way.
//!
//! Output is deterministic: candidates enumerate in fixed axis order and
//! nothing in the report depends on wall clock, so two runs render, CSV,
//! and JSON byte-identically.

use crate::fxhash::FxHashMap;
use crate::record::{self, Cell, Cells, Format, Record};
use crate::sweep::{PlacementPolicy, Scenario, ScheduleKey, Span, TopologySpec};
use crate::table::TextTable;
use mtp_core::schedule::CompiledSchedule;
use mtp_core::{CoreError, SystemReport};
use mtp_model::{InferenceMode, TransformerConfig};
use std::collections::hash_map::Entry;

/// Real-time constraints for a full-model inference pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Maximum latency in milliseconds (`None` = unconstrained).
    pub max_latency_ms: Option<f64>,
    /// Maximum energy in millijoules (`None` = unconstrained).
    pub max_energy_mj: Option<f64>,
}

impl Constraints {
    /// `true` when `report` satisfies every set constraint.
    #[must_use]
    pub fn satisfied_by(&self, report: &SystemReport) -> bool {
        self.max_latency_ms.is_none_or(|lim| report.runtime_ms() <= lim)
            && self.max_energy_mj.is_none_or(|lim| report.energy_mj() <= lim)
    }
}

/// The search space of the advisor: a cross product of design axes.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// Reduction-topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Weight-placement axis.
    pub placements: Vec<PlacementPolicy>,
    /// Chip-count axis (the chip budget).
    pub chip_counts: Vec<usize>,
    /// Link-bandwidth axis (percent of the paper's MIPI port).
    pub link_bw_pcts: Vec<u32>,
}

impl DesignSpace {
    /// The default space for a config under a chip budget: every valid
    /// chip count, both topology families, both placement policies, and
    /// a coarse bandwidth ladder.
    #[must_use]
    pub fn default_for(cfg: &TransformerConfig, max_chips: usize) -> Self {
        DesignSpace {
            topologies: vec![TopologySpec::PaperDefault, TopologySpec::Flat],
            placements: vec![PlacementPolicy::Auto, PlacementPolicy::ForceStreamed],
            chip_counts: valid_chip_counts(cfg, max_chips),
            link_bw_pcts: vec![25, 50, 75, 100],
        }
    }

    /// Number of points in the cross product.
    #[must_use]
    pub fn len(&self) -> usize {
        self.topologies.len()
            * self.placements.len()
            * self.chip_counts.len()
            * self.link_bw_pcts.len()
    }

    /// `true` when any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One point of the design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Reduction topology.
    pub topology: TopologySpec,
    /// Weight-placement policy.
    pub placement: PlacementPolicy,
    /// Chip count.
    pub n_chips: usize,
    /// Link bandwidth (percent of the paper's MIPI port).
    pub link_bw_pct: u32,
}

impl DesignPoint {
    /// Compact display label (`8chips/hier4/auto/bw50`).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}chips/{}/{}/bw{}",
            self.n_chips,
            self.topology.label(),
            self.placement.label(),
            self.link_bw_pct
        )
    }
}

/// One evaluated design candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Where in the space this candidate sits.
    pub point: DesignPoint,
    /// Full-model report at this point.
    pub report: SystemReport,
    /// Whether this point is Pareto-optimal over (makespan, energy,
    /// chips).
    pub pareto: bool,
    /// Whether this point meets the constraints.
    pub feasible: bool,
    /// `true` when the schedule's memo holds a steady state for this
    /// point's chip, `false` when the exact-simulation fallback ran.
    pub symbolic: bool,
}

impl Candidate {
    /// End-to-end makespan in cycles (the first Pareto objective).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.report.stats.makespan
    }
}

/// A design-space group that could not be evaluated (typically an
/// invalid partition for that chip count), with its typed reason.
#[derive(Debug, Clone)]
pub struct SkippedGroup {
    /// Reduction topology of the group.
    pub topology: TopologySpec,
    /// Placement policy of the group.
    pub placement: PlacementPolicy,
    /// Chip count of the group.
    pub n_chips: usize,
    /// Why the group was skipped.
    pub reason: String,
}

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Model name the space was searched for (display only).
    pub model: String,
    /// Inference mode the space was searched for.
    pub mode: InferenceMode,
    /// All evaluated candidates, in fixed axis order (chips, topology,
    /// placement, bandwidth).
    pub candidates: Vec<Candidate>,
    /// Design groups skipped with a typed reason.
    pub skipped: Vec<SkippedGroup>,
    /// Index into `candidates` of the recommendation: the feasible point
    /// with the fewest chips, ties broken by makespan, then energy, then
    /// enumeration order.
    pub recommended: Option<usize>,
    /// Distinct schedule templates compiled (the [`ScheduleKey`] cache's
    /// hit rate is `candidates.len() - compiled` per bandwidth group).
    pub compiled: usize,
    /// Steady-state walks run (memo misses across all schedules) — the
    /// entire simulation cost of the symbolic candidates.
    pub warmups: usize,
}

/// Valid chip counts for a config: divisors of the head count that also
/// divide the FFN dimension, capped at `max_chips`.
#[must_use]
pub fn valid_chip_counts(cfg: &TransformerConfig, max_chips: usize) -> Vec<usize> {
    (1..=cfg.n_heads.min(max_chips))
        .filter(|n| cfg.n_heads.is_multiple_of(*n) && cfg.ffn_dim.is_multiple_of(*n))
        .collect()
}

/// Pareto flags over `(makespan, energy_mj, n_chips)` triples: `true`
/// for points no other point dominates (at or below on every objective,
/// strictly below on at least one). Exposed as a pure function so the
/// property suite can check it against a brute-force oracle.
#[must_use]
pub fn pareto_flags(points: &[(u64, f64, usize)]) -> Vec<bool> {
    let dominates = |a: &(u64, f64, usize), b: &(u64, f64, usize)| {
        a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
    };
    points.iter().map(|p| !points.iter().any(|q| dominates(q, p))).collect()
}

/// Searches the design space for the given model and mode, scoring every
/// point over a full-model pass and flagging the Pareto frontier over
/// (makespan, energy, chips).
///
/// Axes are normalized first (chip counts and bandwidths ascending,
/// duplicates removed everywhere), so equivalent spaces produce
/// byte-identical advice.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for a zero bandwidth setting and
/// propagates simulation errors; partition/topology errors for
/// individual groups become [`Advice::skipped`] entries instead.
pub fn advise(
    cfg: &TransformerConfig,
    mode: InferenceMode,
    constraints: Constraints,
    space: &DesignSpace,
) -> Result<Advice, CoreError> {
    let mut chip_counts = space.chip_counts.clone();
    chip_counts.sort_unstable();
    chip_counts.dedup();
    let mut link_bw_pcts = space.link_bw_pcts.clone();
    link_bw_pcts.sort_unstable();
    link_bw_pcts.dedup();
    if link_bw_pcts.first() == Some(&0) {
        return Err(CoreError::InvalidConfig(
            "link bandwidth must be positive: 0% of the MIPI port is a zero-rate link \
             with unbounded transfer time"
                .to_owned(),
        ));
    }
    let mut topologies = Vec::new();
    for &t in &space.topologies {
        if !topologies.contains(&t) {
            topologies.push(t);
        }
    }
    let mut placements = Vec::new();
    for &p in &space.placements {
        if !placements.contains(&p) {
            placements.push(p);
        }
    }

    let mut schedules: FxHashMap<ScheduleKey, CompiledSchedule> = FxHashMap::default();
    let mut candidates = Vec::new();
    let mut skipped = Vec::new();
    for &n_chips in &chip_counts {
        for &topology in &topologies {
            for &placement in &placements {
                // One group = one template; its memo answers every
                // bandwidth that prices its sends alike from one walk.
                let mut base = Scenario::new(cfg.clone(), mode, n_chips)
                    .with_topology(topology)
                    .with_placement(placement)
                    .with_span(Span::Model);
                let skip = |reason: String| SkippedGroup { topology, placement, n_chips, reason };
                let key = match base.schedule_key() {
                    Ok(k) => k,
                    Err(e) => {
                        skipped.push(skip(e.to_string()));
                        continue;
                    }
                };
                let compiled = match schedules.entry(key) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => match base.compile_schedule() {
                        Ok(c) => e.insert(c),
                        Err(err) => {
                            skipped.push(skip(err.to_string()));
                            continue;
                        }
                    },
                };
                for &link_bw_pct in &link_bw_pcts {
                    let point = DesignPoint { topology, placement, n_chips, link_bw_pct };
                    base.link_bw_pct = link_bw_pct;
                    let (report, symbolic) =
                        compiled.simulate_and_state(&base.chip(), base.n_blocks())?;
                    let feasible = constraints.satisfied_by(&report);
                    candidates.push(Candidate { point, report, pareto: false, feasible, symbolic });
                }
            }
        }
    }

    let objectives: Vec<(u64, f64, usize)> =
        candidates.iter().map(|c| (c.makespan(), c.report.energy_mj(), c.point.n_chips)).collect();
    for (c, flag) in candidates.iter_mut().zip(pareto_flags(&objectives)) {
        c.pareto = flag;
    }
    let recommended = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.feasible)
        .min_by(|(i, a), (j, b)| {
            a.point
                .n_chips
                .cmp(&b.point.n_chips)
                .then(a.makespan().cmp(&b.makespan()))
                .then(a.report.energy_mj().total_cmp(&b.report.energy_mj()))
                .then(i.cmp(j))
        })
        .map(|(i, _)| i);
    Ok(Advice {
        model: cfg.name.clone(),
        mode,
        candidates,
        skipped,
        recommended,
        compiled: schedules.len(),
        warmups: schedules.values().map(|c| c.walks()).sum(),
    })
}

/// The advise table's column list: the CSV header line of
/// [`Advice::to_csv`] and the keys of each [`Advice::to_json`] row.
pub const ADVISE_CSV_HEADER: &str = "model,mode,chips,topology,placement,link_bw_pct,\
makespan_cycles,latency_ms,energy_mj,residency,symbolic,pareto,feasible,recommended";

/// One candidate of an [`Advice`] as a table row.
struct AdviseRow<'a> {
    advice: &'a Advice,
    index: usize,
}

impl Record for AdviseRow<'_> {
    const HEADER: &'static str = ADVISE_CSV_HEADER;
    const JSON_INDENTED: bool = false;

    fn cells(&self, w: &mut Cells<'_>) {
        let a = self.advice;
        let c = &a.candidates[self.index];
        w.cell(Cell::Str(&a.model));
        w.cell(Cell::Str(a.mode.label()));
        w.cell(Cell::Int(c.point.n_chips as u64));
        w.text(|out| c.point.topology.write_label(out));
        w.cell(Cell::Str(c.point.placement.label()));
        w.cell(Cell::Int(u64::from(c.point.link_bw_pct)));
        w.cell(Cell::Int(c.makespan()));
        w.cell(Cell::Real(c.report.runtime_ms()));
        w.cell(Cell::Real(c.report.energy_mj()));
        w.cell(Cell::Str(c.report.residency.label()));
        w.cell(Cell::Bit(c.symbolic));
        w.cell(Cell::Bit(c.pareto));
        w.cell(Cell::Bit(c.feasible));
        w.cell(Cell::Bit(a.recommended == Some(self.index)));
    }
}

impl Advice {
    fn table(&self, format: Format) -> String {
        let rows: Vec<AdviseRow<'_>> =
            (0..self.candidates.len()).map(|index| AdviseRow { advice: self, index }).collect();
        record::render(format, &rows)
    }

    /// All candidates as CSV (header + one row per point, enumeration
    /// order) — deterministic byte-for-byte across runs.
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.table(Format::Csv)
    }

    /// All candidates as a JSON array (same order and values as the
    /// CSV) — deterministic byte-for-byte across runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.table(Format::Json)
    }

    /// One-line search summary (points, frontier size, reuse counters).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "searched {} points ({} schedules compiled, {} warmups simulated, {} skipped); \
             Pareto frontier: {} points",
            self.candidates.len(),
            self.compiled,
            self.warmups,
            self.skipped.len(),
            self.candidates.iter().filter(|c| c.pareto).count(),
        )
    }
}

/// Renders the Pareto frontier and the recommendation (the full space
/// goes to the CSV/JSON sinks; the table would drown in dominated
/// rows). Consecutive frontier points that differ only in link
/// bandwidth while scoring identically — the compute-bound side of the
/// crossover — collapse into one row with a `lo..hi` bandwidth range.
#[must_use]
pub fn render(advice: &Advice, constraints: &Constraints) -> String {
    let mut t = TextTable::new(
        ["chips", "topo", "place", "bw%", "latency(ms)", "energy(mJ)", "regime", "sym", "feasible"]
            .map(String::from)
            .to_vec(),
    );
    let pareto: Vec<&Candidate> = advice.candidates.iter().filter(|c| c.pareto).collect();
    let mut i = 0;
    while i < pareto.len() {
        let c = pareto[i];
        let mut j = i + 1;
        while j < pareto.len() {
            let d = pareto[j];
            let same = d.point.n_chips == c.point.n_chips
                && d.point.topology == c.point.topology
                && d.point.placement == c.point.placement
                && d.makespan() == c.makespan()
                && d.report.energy_mj() == c.report.energy_mj()
                && d.symbolic == c.symbolic
                && d.feasible == c.feasible;
            if !same {
                break;
            }
            j += 1;
        }
        let bw = if j - i == 1 {
            c.point.link_bw_pct.to_string()
        } else {
            format!("{}..{}", c.point.link_bw_pct, pareto[j - 1].point.link_bw_pct)
        };
        t.row(vec![
            c.point.n_chips.to_string(),
            c.point.topology.label(),
            c.point.placement.label().to_owned(),
            bw,
            format!("{:.3}", c.report.runtime_ms()),
            format!("{:.3}", c.report.energy_mj()),
            c.report.residency.to_string(),
            if c.symbolic { "*" } else { "" }.to_owned(),
            if c.feasible { "yes" } else { "no" }.to_owned(),
        ]);
        i = j;
    }
    let verdict = match advice.recommended {
        Some(i) => format!(
            "recommendation: {} — smallest feasible system (ties broken by \
             makespan, then energy)",
            advice.candidates[i].point.label()
        ),
        None => "recommendation: no evaluated design meets the constraints".to_owned(),
    };
    let limits = format!(
        "constraints: latency <= {}, energy <= {}",
        constraints.max_latency_ms.map_or("-".into(), |v| format!("{v} ms")),
        constraints.max_energy_mj.map_or("-".into(), |v| format!("{v} mJ")),
    );
    let mut out = format!(
        "{} [{}] — Pareto frontier over (makespan, energy, chips)\n{limits}\n{}\n{}\n{verdict}\n",
        advice.model,
        advice.mode,
        t.render(),
        advice.summary(),
    );
    if !advice.skipped.is_empty() {
        out.push_str("skipped groups:\n");
        for s in &advice.skipped {
            out.push_str(&format!(
                "  {}chips/{}/{}: {}\n",
                s.n_chips,
                s.topology.label(),
                s.placement.label(),
                s.reason
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(cfg: &TransformerConfig, max_chips: usize) -> DesignSpace {
        DesignSpace::default_for(cfg, max_chips)
    }

    fn unconstrained() -> Constraints {
        Constraints { max_latency_ms: None, max_energy_mj: None }
    }

    #[test]
    fn valid_counts_for_tiny_llama() {
        let cfg = TransformerConfig::tiny_llama_42m();
        assert_eq!(valid_chip_counts(&cfg, 64), vec![1, 2, 4, 8]);
        assert_eq!(valid_chip_counts(&cfg, 4), vec![1, 2, 4]);
    }

    #[test]
    fn advisor_recommends_smallest_feasible_system() {
        let cfg = TransformerConfig::tiny_llama_42m();
        // A 5 ms/token budget needs the 8-chip system (single chip is
        // ~85 ms/token, 8-chip ~3.2 ms).
        let advice = advise(
            &cfg,
            InferenceMode::Autoregressive,
            Constraints { max_latency_ms: Some(5.0), max_energy_mj: None },
            &space(&cfg, 8),
        )
        .unwrap();
        let rec = &advice.candidates[advice.recommended.expect("8 chips must be feasible")];
        assert_eq!(rec.point.n_chips, 8);
        assert!(rec.feasible);
    }

    #[test]
    fn unconstrained_recommends_single_chip() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let advice =
            advise(&cfg, InferenceMode::Autoregressive, unconstrained(), &space(&cfg, 8)).unwrap();
        assert_eq!(advice.candidates[advice.recommended.unwrap()].point.n_chips, 1);
    }

    #[test]
    fn infeasible_constraints_yield_no_recommendation() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let constraints = Constraints { max_latency_ms: Some(1e-6), max_energy_mj: None };
        let advice =
            advise(&cfg, InferenceMode::Autoregressive, constraints, &space(&cfg, 8)).unwrap();
        assert!(advice.recommended.is_none());
        assert!(render(&advice, &constraints).contains("no evaluated design"));
    }

    #[test]
    fn symbolic_scoring_matches_exact_simulation() {
        // Every candidate scored symbolically must equal the cold
        // per-scenario simulation bit for bit.
        let cfg = TransformerConfig::tiny_llama_42m();
        let advice =
            advise(&cfg, InferenceMode::Autoregressive, unconstrained(), &space(&cfg, 8)).unwrap();
        assert!(!advice.candidates.is_empty());
        assert!(advice.candidates.iter().all(|c| c.symbolic), "schedules are periodic");
        assert!(advice.warmups > 0);
        for c in &advice.candidates {
            let exact = Scenario::new(cfg.clone(), InferenceMode::Autoregressive, c.point.n_chips)
                .with_topology(c.point.topology)
                .with_placement(c.point.placement)
                .with_span(Span::Model)
                .with_link_bw_pct(c.point.link_bw_pct)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(c.report.stats, exact.stats, "{}", c.point.label());
        }
    }

    #[test]
    fn schedule_cache_collapses_bandwidth_and_one_chip_topologies() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let advice =
            advise(&cfg, InferenceMode::Autoregressive, unconstrained(), &space(&cfg, 8)).unwrap();
        // 4 chip counts x 2 topologies x 2 placements, minus the 1-chip
        // topology collapse: at most 14 distinct templates for 64 points.
        assert_eq!(advice.candidates.len(), 64);
        assert!(advice.compiled <= 14, "compiled {} schedules", advice.compiled);
    }

    #[test]
    fn pareto_flags_match_brute_force_semantics() {
        let pts =
            [(100u64, 1.0f64, 1usize), (50, 2.0, 1), (50, 2.0, 1), (40, 3.0, 2), (200, 5.0, 4)];
        let flags = pareto_flags(&pts);
        // Duplicates never dominate each other; (200,5.0,4) is dominated
        // by every other point on makespan+energy but not chips... it is
        // dominated by (40,3.0,2): 40<200, 3<5, 2<4.
        assert_eq!(flags, vec![true, true, true, true, false]);
    }

    #[test]
    fn csv_and_json_are_deterministic_and_consistent() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let constraints = Constraints { max_latency_ms: Some(5.0), max_energy_mj: None };
        let a = advise(&cfg, InferenceMode::Autoregressive, constraints, &space(&cfg, 8)).unwrap();
        let b = advise(&cfg, InferenceMode::Autoregressive, constraints, &space(&cfg, 8)).unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(render(&a, &constraints), render(&b, &constraints));
        let csv = a.to_csv();
        assert!(csv.starts_with(ADVISE_CSV_HEADER));
        assert_eq!(csv.lines().count(), a.candidates.len() + 1);
        assert_eq!(csv.matches(",1\n").count(), 1, "exactly one recommended row");
    }

    #[test]
    fn invalid_partitions_become_skips() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let mut s = space(&cfg, 8);
        s.chip_counts = vec![3, 8]; // 3 does not divide 8 heads
        let advice = advise(&cfg, InferenceMode::Autoregressive, unconstrained(), &s).unwrap();
        assert!(!advice.skipped.is_empty());
        assert!(advice.skipped.iter().all(|g| g.n_chips == 3));
        assert!(advice.candidates.iter().all(|c| c.point.n_chips == 8));
    }

    #[test]
    fn zero_bandwidth_is_a_typed_error() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let mut s = space(&cfg, 4);
        s.link_bw_pcts = vec![0, 100];
        assert!(advise(&cfg, InferenceMode::Autoregressive, unconstrained(), &s).is_err());
    }
}
