//! The unified scenario-sweep engine: every paper artefact (and every
//! future scaling/workload study) is a *view* over this module.
//!
//! A [`Scenario`] is one fully-specified experiment point — model
//! configuration, inference mode, chip count, reduction topology,
//! placement policy, link bandwidth, link timing regime (affine,
//! queued, or lossy), span (one steady-state block or the full model
//! pass), and uniform batch size (how many interleaved requests each
//! block serves). A [`SweepGrid`] declares a cross product
//! over those axes; the [`SweepEngine`] enumerates the grid, deduplicates
//! repeated configurations through a scenario-key cache, simulates the
//! unique points in parallel with `std::thread::scope`, and returns
//! [`SweepResults`] that render as a text table or serialize to CSV and
//! JSON rows (makespan, runtime breakdown, per-chip breakdown, bytes
//! moved, energy). For grids too large to materialize,
//! [`SweepEngine::run_streamed`] writes the same CSV bytes row by row
//! with flat memory.
//!
//! Determinism: grids enumerate in a fixed nested order, workers write
//! results into pre-assigned slots, and the underlying simulator is
//! bit-deterministic — so two runs of the same grid produce byte-identical
//! CSV/JSON (locked by `tests/sweep.rs`). See `DESIGN.md` §7.
//!
//! # Examples
//!
//! ```
//! use mtp_harness::sweep::{SweepEngine, SweepGrid};
//! use mtp_model::{InferenceMode, TransformerConfig};
//!
//! let cfg = TransformerConfig::tiny_llama_42m();
//! let grid = SweepGrid::single(cfg, InferenceMode::Autoregressive, vec![1, 8]);
//! let results = SweepEngine::new().run(&grid);
//! assert_eq!(results.rows.len(), 2);
//! assert!(results.rows[1].report.speedup_over(&results.rows[0].report) > 8.0);
//! ```

use crate::fxhash::{self, FxBuildHasher, FxHashMap};
use crate::record::{self, Cell, Cells, Format, Record, Table};
use crate::table::{fmt_cycles, TextTable};
use mtp_core::memo::Memo;
use mtp_core::schedule::CompiledSchedule;
use mtp_core::{CoreError, FailPolicy, MemoryPlan, PartitionSpec, SystemReport, WeightResidency};
use mtp_kernels::CalibratedCostModel;
use mtp_link::Topology;
use mtp_model::{InferenceMode, TransformerConfig};
use mtp_sim::{ChipSpec, ChipStats, FaultPlan, LinkRegime, SimError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The named model presets of the paper plus the in-repo extensions —
/// the `--models` vocabulary of `mtp sweep` and the model axis of
/// [`SweepGrid::paper_default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelPreset {
    /// TinyLlama-42M (S = 128 autoregressive / S = 16 prompt).
    TinyLlama,
    /// The scalability-study variant with 64 heads.
    TinyLlamaScaled64h,
    /// Grouped-query TinyLlama with the given number of K/V heads.
    TinyLlamaGqa(usize),
    /// Depth-scaled TinyLlama with the given layer count (the deep-stack
    /// workloads the periodic steady-state engine makes practical).
    TinyLlamaDeep(usize),
    /// The MobileBERT encoder (S = 268).
    MobileBert,
    /// Depth-scaled MobileBERT with the given layer count.
    MobileBertDeep(usize),
}

impl ModelPreset {
    /// Parses a CLI model name (`tinyllama`, `tinyllama-64h`,
    /// `tinyllama-gqaK`, `tinyllama-dN`, `mobilebert`, `mobilebert-dN`).
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted vocabulary on unknown names
    /// and of the constraint violated by bad `gqaK`/`dN` suffixes.
    pub fn parse(name: &str) -> Result<Self, String> {
        fn layers(suffix: &str, of: &str) -> Result<usize, String> {
            let n: usize = suffix.parse().map_err(|_| format!("bad layer count in `{of}`"))?;
            if n == 0 {
                return Err(format!("layer count must be at least 1 in `{of}`"));
            }
            Ok(n)
        }
        match name {
            "tinyllama" => Ok(ModelPreset::TinyLlama),
            "tinyllama-64h" => Ok(ModelPreset::TinyLlamaScaled64h),
            "mobilebert" => Ok(ModelPreset::MobileBert),
            other => {
                if let Some(k) = other.strip_prefix("tinyllama-gqa") {
                    let kv: usize =
                        k.parse().map_err(|_| format!("bad kv-head count in `{other}`"))?;
                    if kv == 0 || !8usize.is_multiple_of(kv) {
                        return Err(format!("kv heads must divide 8, got {kv}"));
                    }
                    return Ok(ModelPreset::TinyLlamaGqa(kv));
                }
                if let Some(d) = other.strip_prefix("tinyllama-d") {
                    return Ok(ModelPreset::TinyLlamaDeep(layers(d, other)?));
                }
                if let Some(d) = other.strip_prefix("mobilebert-d") {
                    return Ok(ModelPreset::MobileBertDeep(layers(d, other)?));
                }
                Err(format!(
                    "unknown model `{other}` (tinyllama|tinyllama-64h|tinyllama-gqaK|\
                     tinyllama-dN|mobilebert|mobilebert-dN)"
                ))
            }
        }
    }

    /// The CLI name this preset parses from.
    #[must_use]
    pub fn cli_name(self) -> String {
        match self {
            ModelPreset::TinyLlama => "tinyllama".to_owned(),
            ModelPreset::TinyLlamaScaled64h => "tinyllama-64h".to_owned(),
            ModelPreset::TinyLlamaGqa(kv) => format!("tinyllama-gqa{kv}"),
            ModelPreset::TinyLlamaDeep(n) => format!("tinyllama-d{n}"),
            ModelPreset::MobileBert => "mobilebert".to_owned(),
            ModelPreset::MobileBertDeep(n) => format!("mobilebert-d{n}"),
        }
    }

    /// The concrete configuration for this preset in the given mode
    /// (prompt-mode TinyLlama variants use the paper's S = 16).
    #[must_use]
    pub fn config(self, mode: InferenceMode) -> TransformerConfig {
        let cfg = match self {
            ModelPreset::TinyLlama => TransformerConfig::tiny_llama_42m(),
            ModelPreset::TinyLlamaScaled64h => TransformerConfig::tiny_llama_scaled_64h(),
            ModelPreset::TinyLlamaGqa(kv) => TransformerConfig::tiny_llama_gqa(kv),
            ModelPreset::TinyLlamaDeep(n) => TransformerConfig::tiny_llama_deep(n),
            ModelPreset::MobileBert => return TransformerConfig::mobile_bert(),
            ModelPreset::MobileBertDeep(n) => return TransformerConfig::mobile_bert_deep(n),
        };
        match mode {
            InferenceMode::Autoregressive => cfg,
            InferenceMode::Prompt => cfg.with_seq_len(16),
        }
    }
}

/// The reduction-topology axis of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// The paper's hierarchical groups of four
    /// ([`Topology::paper_default`]).
    PaperDefault,
    /// A hierarchical tree with an explicit group size.
    Hierarchical {
        /// Chips per reduction group (the paper uses 4).
        group_size: usize,
    },
    /// Flat all-to-one reduction (the ablation baseline).
    Flat,
}

impl TopologySpec {
    /// Parses a CLI topology name (`hier4`, `hierN`, `flat`).
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted vocabulary.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "hier4" => Ok(TopologySpec::PaperDefault),
            "flat" => Ok(TopologySpec::Flat),
            other => {
                if let Some(g) = other.strip_prefix("hier") {
                    let group_size: usize =
                        g.parse().map_err(|_| format!("bad group size in `{other}`"))?;
                    if group_size < 2 {
                        return Err(format!("group size must be at least 2, got {group_size}"));
                    }
                    return Ok(TopologySpec::Hierarchical { group_size });
                }
                Err(format!("unknown topology `{other}` (hier4|hierN|flat)"))
            }
        }
    }

    /// Short label (`hier4`, `hierN`, `flat`) used in keys, tables, and
    /// serialized rows.
    #[must_use]
    pub fn label(self) -> String {
        record::spelled(|out| self.write_label(out))
    }

    /// Appends [`TopologySpec::label`] to a row.
    pub(crate) fn write_label(self, out: &mut Vec<u8>) {
        match self {
            TopologySpec::PaperDefault => out.extend_from_slice(b"hier4"),
            TopologySpec::Hierarchical { group_size } => {
                out.extend_from_slice(b"hier");
                record::push_int(out, group_size as u64);
            }
            TopologySpec::Flat => out.extend_from_slice(b"flat"),
        }
    }

    /// Builds the concrete topology for `n_chips`; `None` means "let the
    /// system use its default" (which is the paper topology).
    fn build(self, n_chips: usize) -> Result<Option<Topology>, CoreError> {
        match self {
            TopologySpec::PaperDefault => Ok(None),
            TopologySpec::Hierarchical { group_size } => {
                Ok(Some(Topology::hierarchical(n_chips, group_size)?))
            }
            TopologySpec::Flat => Ok(Some(Topology::flat(n_chips)?)),
        }
    }
}

/// The weight-placement axis of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Let the memory plan pick the best residency regime that fits
    /// (streamed / double-buffered / resident) — the paper's policy.
    Auto,
    /// Force the streamed regime by shrinking usable L2 below the
    /// double-buffering threshold (the prefetch ablation's baseline).
    ForceStreamed,
}

impl PlacementPolicy {
    /// Parses a CLI placement name (`auto`, `streamed`).
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted vocabulary.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "auto" => Ok(PlacementPolicy::Auto),
            "streamed" => Ok(PlacementPolicy::ForceStreamed),
            other => Err(format!("unknown placement `{other}` (auto|streamed)")),
        }
    }

    /// Short label (`auto`, `streamed`) used in keys, tables, and
    /// serialized rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Auto => "auto",
            PlacementPolicy::ForceStreamed => "streamed",
        }
    }
}

/// How much of the workload a scenario simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// One steady-state Transformer block (what the paper's figures show).
    Block,
    /// A full forward pass over all layers (what Table I reports).
    Model,
}

impl Span {
    /// Parses a CLI span name (`block`, `model`).
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted vocabulary.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "block" => Ok(Span::Block),
            "model" => Ok(Span::Model),
            other => Err(format!("unknown span `{other}` (block|model)")),
        }
    }

    /// Short label (`block`, `model`) used in keys, tables, and serialized
    /// rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Span::Block => "block",
            Span::Model => "model",
        }
    }
}

/// The kernel-cost-model axis of a scenario: the analytical roofline
/// model (the default — machine-independent and bit-deterministic, what
/// every pinned checksum is computed against) or the host-calibrated
/// model fitted from measured kernel timings
/// ([`CalibratedCostModel::measure`]). Calibration runs once per
/// process and is shared by every calibrated scenario, so one sweep is
/// internally consistent; across machines the calibrated numbers
/// naturally differ (they are measurements), which is why calibrated
/// rows carry a distinct label and the analytic model stays the
/// default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CostSourceKind {
    /// The analytical roofline cost model (the paper's model).
    #[default]
    Analytic,
    /// Measured host kernel timings mapped to cluster cycles.
    Calibrated,
}

impl CostSourceKind {
    /// Parses a CLI cost-source name (`analytic`, `calibrated`).
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted vocabulary.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "analytic" => Ok(CostSourceKind::Analytic),
            "calibrated" => Ok(CostSourceKind::Calibrated),
            other => Err(format!("unknown cost source `{other}` (analytic|calibrated)")),
        }
    }

    /// Short label (`analytic`, `cal`) used in keys and row suffixes.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CostSourceKind::Analytic => "analytic",
            CostSourceKind::Calibrated => "cal",
        }
    }
}

/// The process-wide calibrated cost model: measured once on first use
/// (three timing reps per kernel class at the Siracusa clock) and
/// shared by every calibrated scenario, so all rows of a sweep price
/// kernels identically.
fn calibrated_model() -> &'static CalibratedCostModel {
    static MODEL: OnceLock<CalibratedCostModel> = OnceLock::new();
    MODEL.get_or_init(|| CalibratedCostModel::measure(ChipSpec::siracusa().freq_hz, 3))
}

/// One fully-specified experiment point of the sweep grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Model architecture (including sequence length and dtype — the
    /// quantization axis is `config.dtype`).
    pub config: TransformerConfig,
    /// Inference mode.
    pub mode: InferenceMode,
    /// Number of chips.
    pub n_chips: usize,
    /// Reduction topology.
    pub topology: TopologySpec,
    /// Weight-placement policy.
    pub placement: PlacementPolicy,
    /// Chip-to-chip link bandwidth as a percentage of the paper's MIPI
    /// port (100 = 1 byte per cycle).
    pub link_bw_pct: u32,
    /// Timing regime of the chip-to-chip link (affine, queued, lossy).
    /// A regime alters *when* messages arrive, never *which* — the
    /// compiled schedule is regime-independent, so this axis never
    /// splits a [`ScheduleKey`] (mirroring `link_bw_pct`).
    pub link_regime: LinkRegime,
    /// Simulated span.
    pub span: Span,
    /// Uniform batch size: how many interleaved requests of this
    /// workload's shape each block serves (1 = the single-request path,
    /// bit-identical to the pre-batching engine). Multiplies the number
    /// of simulated block instances; request-level periodicity keeps the
    /// simulation cost batch-size-independent.
    pub batch: usize,
    /// Fault plan injected into the simulated machine. Empty by default
    /// (bit-identical to the fault-free engine, as the pinned FNV
    /// checksums require); a non-empty plan routes the scenario through
    /// the exact faulted simulation path (no periodic extrapolation)
    /// and, like `link_bw_pct`, never splits a [`ScheduleKey`] — faults
    /// change *when* things happen, never *which* schedule runs.
    pub faults: FaultPlan,
    /// Failover policy applied when the fault plan fail-stops a chip:
    /// [`FailPolicy::Abort`] (the default) surfaces the typed
    /// [`mtp_sim::SimError::ChipFailed`] as a skip reason, `restart`
    /// replays the job from the top, `spare` replays from the last
    /// completed block boundary on a spare chip. Irrelevant (and
    /// unused) while the plan is empty.
    pub fail_policy: FailPolicy,
    /// Kernel cost model pricing the scenario's compute instructions.
    pub cost_source: CostSourceKind,
}

impl Scenario {
    /// A scenario with the paper's defaults on every non-mandatory axis
    /// (paper topology, automatic placement, 100% MIPI bandwidth, one
    /// steady-state block).
    #[must_use]
    pub fn new(config: TransformerConfig, mode: InferenceMode, n_chips: usize) -> Self {
        Scenario {
            config,
            mode,
            n_chips,
            topology: TopologySpec::PaperDefault,
            placement: PlacementPolicy::Auto,
            link_bw_pct: 100,
            link_regime: LinkRegime::Affine,
            span: Span::Block,
            batch: 1,
            faults: FaultPlan::none(),
            fail_policy: FailPolicy::Abort,
            cost_source: CostSourceKind::Analytic,
        }
    }

    /// The same scenario with a different fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The same scenario with a different failover policy.
    #[must_use]
    pub fn with_fail_policy(mut self, policy: FailPolicy) -> Self {
        self.fail_policy = policy;
        self
    }

    /// The same scenario with a different kernel cost model.
    #[must_use]
    pub fn with_cost_source(mut self, cost_source: CostSourceKind) -> Self {
        self.cost_source = cost_source;
        self
    }

    /// The same scenario with a different topology.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// The same scenario with a different placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// The same scenario with a different link bandwidth (percent of the
    /// paper's MIPI port).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `pct` is zero: a
    /// zero-rate link has unbounded transfer time, and letting it
    /// through used to overflow the cycle arithmetic deep inside the
    /// simulator instead of failing here with a typed error.
    pub fn with_link_bw_pct(mut self, pct: u32) -> Result<Self, CoreError> {
        self.link_bw_pct = pct;
        self.validate()?;
        Ok(self)
    }

    /// The same scenario with a different link timing regime.
    #[must_use]
    pub fn with_link_regime(mut self, regime: LinkRegime) -> Self {
        self.link_regime = regime;
        self
    }

    /// Checks axis values that the typed builders already reject but a
    /// literal construction (for example a grid axis) can still smuggle
    /// in. [`Scenario::run`] and [`Scenario::schedule_key`] call this,
    /// so an invalid point becomes a skip with a typed reason instead
    /// of an arithmetic overflow inside the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero link bandwidth,
    /// a zero-byte queue buffer, a lossy drop rate of 1000‰ or more, or
    /// a batch whose block count does not fit in `usize`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.block_count().is_none() {
            return Err(CoreError::InvalidConfig(format!(
                "batch {} of the {} span overflows the block count",
                self.batch,
                self.span.label()
            )));
        }
        if self.link_bw_pct == 0 {
            return Err(CoreError::InvalidConfig(
                "link bandwidth must be positive: 0% of the MIPI port is a zero-rate link \
                 with unbounded transfer time"
                    .to_owned(),
            ));
        }
        match self.link_regime {
            LinkRegime::Queued { buffer_bytes: 0, .. } => Err(CoreError::InvalidConfig(
                "queued link regime needs a non-zero buffer".to_owned(),
            )),
            LinkRegime::Lossy { drop_per_mille, .. } if drop_per_mille >= 1000 => {
                Err(CoreError::InvalidConfig(format!(
                    "lossy drop rate must stay below 1000 per mille, got {drop_per_mille}"
                )))
            }
            _ => Ok(()),
        }
    }

    /// The same scenario with a different span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// The same scenario with a different uniform batch size.
    ///
    /// # Panics
    ///
    /// Panics when `batch` is zero.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "a batch needs at least one request");
        self.batch = batch;
        self
    }

    /// Human-readable scenario label, used in skip reports and error
    /// messages. (The engine's cache no longer keys on this string: the
    /// [`Scenario`] value itself is the hashed key — every architectural
    /// dimension derives `Hash`/`Eq`, so distinct configurations cannot
    /// collide even when names match, and no per-lookup formatting
    /// happens on the sweep hot path.)
    #[must_use]
    pub fn key(&self) -> String {
        let c = &self.config;
        format!(
            "{}|e{}h{}kv{}f{}l{}s{}|{:?}|{:?}|{:?}|{}|{}|{}chips|{}|{}|bw{}|{}|{}|b{}|{}|{}|{}",
            c.name,
            c.embed_dim,
            c.n_heads,
            c.n_kv_heads,
            c.ffn_dim,
            c.n_layers,
            c.seq_len,
            c.norm,
            c.activation,
            c.attention,
            c.dtype,
            self.mode,
            self.n_chips,
            self.topology.label(),
            self.placement.label(),
            self.link_bw_pct,
            self.link_regime.label(),
            self.span.label(),
            self.batch,
            self.faults.label(),
            self.fail_policy.label(),
            self.cost_source.label(),
        )
    }

    /// Appends the span column value of serialized rows: the span label
    /// alone for single-request scenarios (keeping batch-free output
    /// byte-identical to the pre-batching engine, as the pinned FNV
    /// checksums require), suffixed with `@bN` for batched ones.
    /// Faulted scenarios further append `#<fault-label>` (and
    /// `!<policy>` for non-abort failover), so the fault axis rides in
    /// an existing column and fault-free rows serialize byte-identically
    /// under the pinned 21-column header.
    pub(crate) fn write_span_batch_label(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.span.label().as_bytes());
        if self.batch != 1 {
            out.extend_from_slice(b"@b");
            record::push_int(out, self.batch as u64);
        }
        if !self.faults.is_empty() {
            out.push(b'#');
            out.extend_from_slice(self.faults.label().as_bytes());
            if self.fail_policy != FailPolicy::Abort {
                out.push(b'!');
                out.extend_from_slice(self.fail_policy.label().as_bytes());
            }
        }
    }

    /// Appends the model column value of serialized rows and tables: the
    /// configuration name alone under the analytic cost model
    /// (byte-identical to the pre-calibration engine), suffixed with
    /// `@cal` for calibrated rows so the two cost sources never mix
    /// silently in one table.
    pub(crate) fn write_model_label(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.config.name.as_bytes());
        if self.cost_source == CostSourceKind::Calibrated {
            out.extend_from_slice(b"@cal");
        }
    }

    /// Appends the link column value of serialized rows and tables: the
    /// bare bandwidth percentage under the default affine regime
    /// (keeping affine output byte-identical to the pre-regime engine,
    /// as the pinned FNV checksums require), suffixed with `@<regime>`
    /// for every other regime (for example `100@q2048`).
    pub(crate) fn write_link_label(&self, out: &mut Vec<u8>) {
        record::push_int(out, u64::from(self.link_bw_pct));
        if self.link_regime != LinkRegime::Affine {
            out.push(b'@');
            out.extend_from_slice(self.link_regime.label().as_bytes());
        }
    }

    /// The chip specification this scenario simulates on: Siracusa with
    /// the link-bandwidth, link-regime, and placement axes applied.
    #[must_use]
    pub fn chip(&self) -> ChipSpec {
        let mut chip = ChipSpec::siracusa();
        chip.link.bytes_per_cycle *= f64::from(self.link_bw_pct) / 100.0;
        chip.link_regime = self.link_regime;
        if self.placement == PlacementPolicy::ForceStreamed {
            // No L2 headroom for a second weight buffer: the memory plan
            // must fall back to synchronous streaming.
            chip.l2_usable_fraction = 0.2;
        }
        if self.cost_source == CostSourceKind::Calibrated {
            chip.cost_override = Some(*calibrated_model());
        }
        chip
    }

    /// Runs the scenario once on a fresh serial engine
    /// ([`SweepEngine::run_one`]): the key's checks, then one compiled
    /// schedule. Span blocks times the uniform batch size: each block
    /// instance is one request slot, so a batched span is exactly a
    /// deeper single-request span over the same template (the
    /// request-level periodicity argument, DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// Propagates validation, partitioning, topology, and simulation
    /// errors, in that order.
    pub fn run(&self) -> Result<SystemReport, CoreError> {
        SweepEngine::serial().run_one(self)
    }

    /// Number of Transformer block instances this scenario simulates
    /// (span blocks times the uniform batch size). A count past `usize`
    /// saturates; [`Scenario::validate`] rejects it.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.block_count().unwrap_or(usize::MAX)
    }

    fn block_count(&self) -> Option<usize> {
        let span_blocks = match self.span {
            Span::Block => 1,
            Span::Model => self.config.n_layers,
        };
        span_blocks.checked_mul(self.batch)
    }

    /// The compiled-schedule cache key: exactly the scenario fields a
    /// block template depends on.
    ///
    /// The model's `name` and `n_layers` are normalized away (names are
    /// display-only; depth shapes the template only through the residency
    /// regime, which is computed from the real configuration and included
    /// in the key), and `link_bw_pct`, `link_regime`, `span`, `faults`,
    /// and `fail_policy` are excluded (the link speed, timing regime and
    /// fault plan change machine timing, never the schedule; the span
    /// only changes how many times the template runs). The cost source
    /// stays in: a compiled schedule is lowered once, for one pricing.
    /// Two scenarios with equal keys compile to bit-identical schedules,
    /// so the sweep engine compiles once per key. Hygiene is locked by
    /// the `schedule_key_hygiene` property suite in `tests/sweep.rs`.
    ///
    /// # Errors
    ///
    /// Propagates [`Scenario::validate`] failures (an invalid axis value
    /// has no simulation), then partition-divisibility errors (a scenario
    /// without a valid partition has no schedule), then, on one chip, the
    /// topology's construction error (more chips report it from
    /// [`Scenario::compile_schedule`]).
    pub fn schedule_key(&self) -> Result<ScheduleKey, CoreError> {
        self.validate()?;
        let chip = self.chip();
        let spec = PartitionSpec::new(&self.config, self.n_chips)?;
        let plan = MemoryPlan::decide(&self.config, &spec, &chip)?;
        let c = &self.config;
        // Field-by-field (not `clone()` + overwrite) so key construction
        // never allocates: every structural field is `Copy`.
        let structure = TransformerConfig {
            name: String::new(),
            embed_dim: c.embed_dim,
            n_heads: c.n_heads,
            n_kv_heads: c.n_kv_heads,
            ffn_dim: c.ffn_dim,
            n_layers: 0,
            seq_len: c.seq_len,
            norm: c.norm,
            activation: c.activation,
            attention: c.attention,
            dtype: c.dtype,
        };
        // A single chip emits no communication at all, so the reduction
        // topology is structurally irrelevant there: every topology that
        // builds lowers to the bit-identical template (locked by
        // `single_chip_topologies_share_template_and_simulation`). One
        // that does not build must not share a valid topology's key.
        let topology = if self.n_chips == 1 {
            self.topology.build(1)?;
            TopologySpec::PaperDefault
        } else {
            self.topology
        };
        Ok(ScheduleKey {
            structure,
            mode: self.mode,
            n_chips: self.n_chips,
            topology,
            placement: self.placement,
            residency: plan.residency,
            cost_source: self.cost_source,
        })
    }

    /// Compiles this scenario's one-block schedule template (what the
    /// engine shares across every scenario with an equal
    /// [`Scenario::schedule_key`]).
    ///
    /// # Errors
    ///
    /// Propagates partitioning and topology errors.
    pub fn compile_schedule(&self) -> Result<CompiledSchedule, CoreError> {
        let topology = self.topology.build(self.n_chips)?;
        CompiledSchedule::compile(&self.config, self.n_chips, &self.chip(), topology, self.mode)
    }
}

/// Cache key of the engine's compiled-schedule store: the structural
/// fields of a [`Scenario`] (model architecture with name and depth
/// normalized away, mode, chip count, topology, placement), the
/// weight-residency regime the memory plan selects, and the cost source
/// the schedule is priced with, so every cached schedule has exactly one
/// pricing. The chips a keyed schedule runs on may differ only in their
/// link bandwidth and regime. Batch size, like depth, only changes how
/// often the template runs, so it never splits a key. See
/// [`Scenario::schedule_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    structure: TransformerConfig,
    mode: InferenceMode,
    n_chips: usize,
    topology: TopologySpec,
    placement: PlacementPolicy,
    residency: WeightResidency,
    cost_source: CostSourceKind,
}

/// A declarative cross product of scenario axes.
///
/// Enumeration order is fixed (workloads, then chip counts, then
/// topologies, placements, bandwidths, link regimes, cost sources,
/// fault plans, batch sizes), which
/// makes sweep output deterministic row-for-row.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Model/mode pairs to sweep (a pair, not a cross product, so encoder
    /// models can be paired with prompt mode only where that is wanted).
    pub workloads: Vec<(TransformerConfig, InferenceMode)>,
    /// Chip-count axis.
    pub chip_counts: Vec<usize>,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Placement axis.
    pub placements: Vec<PlacementPolicy>,
    /// Link-bandwidth axis (percent of the paper's MIPI port).
    pub link_bw_pcts: Vec<u32>,
    /// Link timing-regime axis (the default affine-only axis reproduces
    /// the paper's link model bit-for-bit).
    pub link_regimes: Vec<LinkRegime>,
    /// Simulated span (one value, not an axis: mixing block- and
    /// model-span rows in one table is rarely meaningful).
    pub span: Span,
    /// Uniform batch-size axis (how many interleaved requests each block
    /// serves; `[1]` is the single-request grid).
    pub batch_sizes: Vec<usize>,
    /// Fault-plan axis (the default `[FaultPlan::none()]` reproduces the
    /// fault-free engine bit-for-bit).
    pub fault_plans: Vec<FaultPlan>,
    /// Failover policy applied to every faulted scenario (one value, not
    /// an axis: mixing failover semantics in one table is rarely
    /// meaningful — sweep it by running the grid per policy).
    pub fail_policy: FailPolicy,
    /// Kernel cost-model axis (the default `[CostSourceKind::Analytic]`
    /// is the paper's deterministic roofline model).
    pub cost_sources: Vec<CostSourceKind>,
}

impl SweepGrid {
    /// A grid over the given workloads and chip counts with the paper's
    /// defaults on every other axis.
    #[must_use]
    pub fn new(
        workloads: Vec<(TransformerConfig, InferenceMode)>,
        chip_counts: Vec<usize>,
    ) -> Self {
        SweepGrid {
            workloads,
            chip_counts,
            topologies: vec![TopologySpec::PaperDefault],
            placements: vec![PlacementPolicy::Auto],
            link_bw_pcts: vec![100],
            link_regimes: vec![LinkRegime::Affine],
            span: Span::Block,
            batch_sizes: vec![1],
            fault_plans: vec![FaultPlan::none()],
            fail_policy: FailPolicy::Abort,
            cost_sources: vec![CostSourceKind::Analytic],
        }
    }

    /// A single-model grid (the shape of every paper figure).
    #[must_use]
    pub fn single(config: TransformerConfig, mode: InferenceMode, chip_counts: Vec<usize>) -> Self {
        SweepGrid::new(vec![(config, mode)], chip_counts)
    }

    /// The default `mtp sweep` grid: all three paper workloads in both
    /// modes, chip counts 1–64, hierarchical and flat topologies — at
    /// least 48 valid scenarios (invalid chip counts are skipped with a
    /// reason at run time).
    #[must_use]
    pub fn paper_default() -> Self {
        let ar = InferenceMode::Autoregressive;
        let pr = InferenceMode::Prompt;
        let mut grid = SweepGrid::new(
            vec![
                (ModelPreset::TinyLlama.config(ar), ar),
                (ModelPreset::TinyLlama.config(pr), pr),
                (ModelPreset::TinyLlamaScaled64h.config(ar), ar),
                (ModelPreset::TinyLlamaScaled64h.config(pr), pr),
                (ModelPreset::MobileBert.config(pr), pr),
            ],
            vec![1, 2, 4, 8, 16, 32, 64],
        );
        grid.topologies = vec![TopologySpec::PaperDefault, TopologySpec::Flat];
        grid
    }

    /// The deep-model `mtp sweep --deep` grid: depth-scaled TinyLlama
    /// (96 and 192 blocks) and MobileBERT (96 blocks) full-model passes
    /// over chip counts 1–8 at full and half link bandwidth.
    ///
    /// Every scenario simulates hundreds of blocks, which the periodic
    /// steady-state engine reduces to a few warmup blocks each; the
    /// bandwidth axis exercises cross-scenario template reuse (halving
    /// the link changes machine timing but not the compiled schedule).
    /// Before periodic extrapolation and the schedule cache this grid
    /// was ~20x the cost of the default grid; now it is comparable.
    #[must_use]
    pub fn deep_default() -> Self {
        let ar = InferenceMode::Autoregressive;
        let pr = InferenceMode::Prompt;
        let mut grid = SweepGrid::new(
            vec![
                (ModelPreset::TinyLlamaDeep(96).config(ar), ar),
                (ModelPreset::TinyLlamaDeep(96).config(pr), pr),
                (ModelPreset::TinyLlamaDeep(192).config(ar), ar),
                (ModelPreset::MobileBertDeep(96).config(pr), pr),
            ],
            vec![1, 2, 4, 8],
        );
        grid.link_bw_pcts = vec![100, 50];
        grid.span = Span::Model;
        grid
    }

    /// The multi-request `mtp sweep --batch` grid: the paper workloads
    /// as full-model passes over chip counts 1–8, each block serving a
    /// uniform batch of 1, 4, or 16 interleaved requests (up to 384
    /// block instances per scenario).
    ///
    /// Request-level periodicity makes this grid cost roughly the same
    /// as its batch=1 slice: every batch size reuses the single-request
    /// schedule template, the warmup segments are identical, and the
    /// remaining block instances extrapolate in O(1) (DESIGN.md §10).
    #[must_use]
    pub fn batch_default() -> Self {
        let ar = InferenceMode::Autoregressive;
        let pr = InferenceMode::Prompt;
        let mut grid = SweepGrid::new(
            vec![
                (ModelPreset::TinyLlama.config(ar), ar),
                (ModelPreset::TinyLlama.config(pr), pr),
                (ModelPreset::MobileBert.config(pr), pr),
            ],
            vec![1, 2, 4, 8],
        );
        grid.span = Span::Model;
        grid.batch_sizes = vec![1, 4, 16];
        grid
    }

    /// The same grid with a different topology axis.
    #[must_use]
    pub fn with_topologies(mut self, topologies: Vec<TopologySpec>) -> Self {
        self.topologies = topologies;
        self
    }

    /// The same grid with a different placement axis.
    #[must_use]
    pub fn with_placements(mut self, placements: Vec<PlacementPolicy>) -> Self {
        self.placements = placements;
        self
    }

    /// The same grid with a different link-bandwidth axis (percent of the
    /// paper's MIPI port).
    #[must_use]
    pub fn with_link_bw_pcts(mut self, pcts: Vec<u32>) -> Self {
        self.link_bw_pcts = pcts;
        self
    }

    /// The same grid with a different link timing-regime axis.
    #[must_use]
    pub fn with_link_regimes(mut self, regimes: Vec<LinkRegime>) -> Self {
        self.link_regimes = regimes;
        self
    }

    /// The same grid with a different span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// The same grid with a different uniform batch-size axis.
    ///
    /// # Panics
    ///
    /// Panics when any size is zero (the same invariant
    /// [`Scenario::with_batch`] enforces).
    #[must_use]
    pub fn with_batch_sizes(mut self, batch_sizes: Vec<usize>) -> Self {
        assert!(batch_sizes.iter().all(|&b| b > 0), "a batch needs at least one request");
        self.batch_sizes = batch_sizes;
        self
    }

    /// The same grid with a different fault-plan axis.
    #[must_use]
    pub fn with_fault_plans(mut self, fault_plans: Vec<FaultPlan>) -> Self {
        self.fault_plans = fault_plans;
        self
    }

    /// The same grid with a different failover policy.
    #[must_use]
    pub fn with_fail_policy(mut self, policy: FailPolicy) -> Self {
        self.fail_policy = policy;
        self
    }

    /// The same grid with a different kernel cost-model axis.
    #[must_use]
    pub fn with_cost_sources(mut self, cost_sources: Vec<CostSourceKind>) -> Self {
        self.cost_sources = cost_sources;
        self
    }

    /// Number of scenarios the grid enumerates (before validity checks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.chip_counts.len()
            * self.topologies.len()
            * self.placements.len()
            * self.link_bw_pcts.len()
            * self.link_regimes.len()
            * self.batch_sizes.len()
            * self.fault_plans.len()
            * self.cost_sources.len()
    }

    /// `true` when the grid enumerates no scenario.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every scenario of the cross product in deterministic
    /// nested order.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for (cfg, mode) in &self.workloads {
            for &n_chips in &self.chip_counts {
                for &topology in &self.topologies {
                    for &placement in &self.placements {
                        for &link_bw_pct in &self.link_bw_pcts {
                            for &link_regime in &self.link_regimes {
                                for &cost_source in &self.cost_sources {
                                    for faults in &self.fault_plans {
                                        for &batch in &self.batch_sizes {
                                            out.push(Scenario {
                                                config: cfg.clone(),
                                                mode: *mode,
                                                n_chips,
                                                topology,
                                                placement,
                                                link_bw_pct,
                                                link_regime,
                                                span: self.span,
                                                batch,
                                                faults: faults.clone(),
                                                fail_policy: self.fail_policy,
                                                cost_source,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One successfully simulated grid point.
///
/// The report is shared with the engine's cache through an [`Arc`], so
/// assembling result rows — including duplicate grid points and cached
/// re-runs — never deep-copies a [`SystemReport`] (whose per-chip stats
/// grow with the chip count).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The scenario that produced the report.
    pub scenario: Scenario,
    /// The simulation result (shared with the engine cache).
    pub report: Arc<SystemReport>,
}

/// A grid point that could not run (with the reason — typically a
/// partition-divisibility violation for that chip count).
#[derive(Debug, Clone)]
pub struct SkippedScenario {
    /// The scenario that was skipped.
    pub scenario: Scenario,
    /// Human-readable reason (the underlying error's message).
    pub reason: String,
    /// `true` when the point is valid but its answer is past a bound:
    /// its cycle or byte counters left `u64`
    /// ([`mtp_sim::SimError::CounterOverflow`] or
    /// [`mtp_sim::SimError::CycleOverflow`]), or its full run would pass
    /// [`mtp_sim::MAX_FULL_RUN_OPS`] ([`mtp_sim::SimError::FullRunBudget`]).
    /// Unlike an invalid point, the grid asked for a number no row can
    /// hold.
    pub overflow: bool,
}

/// Everything one engine run produced.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Successful rows, in grid-enumeration order.
    pub rows: Vec<SweepRow>,
    /// Skipped scenarios, in grid-enumeration order.
    pub skipped: Vec<SkippedScenario>,
    /// Scenarios answered from the cache (duplicates within this run plus
    /// hits from earlier runs of the same engine).
    pub cache_hits: usize,
    /// Scenarios actually simulated by this run.
    pub unique_simulated: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// The sweep table's column list, stable for downstream tooling: the
/// CSV header line of [`SweepResults::to_csv`] and, in order, the keys
/// of each JSON row. Faulted JSON rows add their fault counters before
/// `energy_mj`, and every JSON row ends with its `per_chip` breakdowns.
pub const CSV_HEADER: &str = "model,mode,chips,topology,placement,link_bw_pct,span,blocks,\
                              residency,makespan_cycles,runtime_ms,compute_cycles,\
                              dma_l3_l2_cycles,dma_l2_l1_cycles,c2c_cycles,idle_cycles,\
                              l3_l2_bytes,l2_l1_bytes,c2c_bytes,energy_mj,edp_mj_ms";

impl Record for SweepRow {
    const HEADER: &'static str = CSV_HEADER;

    fn cells(&self, w: &mut Cells<'_>) {
        let s = &self.scenario;
        let r = &*self.report;
        let b = r.breakdown();
        w.text(|out| s.write_model_label(out));
        w.cell(Cell::Str(s.mode.label()));
        w.cell(Cell::Int(s.n_chips as u64));
        w.text(|out| s.topology.write_label(out));
        w.cell(Cell::Str(s.placement.label()));
        // A bare number under the affine regime (the pre-regime
        // spelling), a `pct@regime` string otherwise.
        if s.link_regime == LinkRegime::Affine {
            w.cell(Cell::Int(u64::from(s.link_bw_pct)));
        } else {
            w.text(|out| s.write_link_label(out));
        }
        w.text(|out| s.write_span_batch_label(out));
        w.cell(Cell::Int(r.n_blocks as u64));
        w.cell(Cell::Str(r.residency.label()));
        w.cell(Cell::Int(r.stats.makespan));
        w.cell(Cell::Real(r.runtime_ms()));
        for cycles in [b.compute, b.dma_l3_l2, b.dma_l2_l1, b.c2c, b.idle] {
            w.cell(Cell::Int(cycles));
        }
        w.cell(Cell::Int(r.stats.total_l3_l2_bytes()));
        w.cell(Cell::Int(r.stats.total_l2_l1_bytes()));
        w.cell(Cell::Int(r.stats.total_c2c_bytes()));
        // Fault counters appear only on faulted JSON rows, so fault-free
        // JSON stays byte-identical to the pre-fault engine (the pinned
        // checksum contract).
        if !s.faults.is_empty() {
            w.json_cell("faults", Cell::Str(&s.faults.label()));
            w.json_cell("fail_policy", Cell::Str(s.fail_policy.label()));
            w.json_cell("fault_stall_cycles", Cell::Int(r.stats.total_fault_stall_cycles()));
            w.json_cell("fault_slow_cycles", Cell::Int(r.stats.total_fault_slow_cycles()));
            w.json_cell("fault_link_cycles", Cell::Int(r.stats.total_fault_link_cycles()));
            w.json_cell("fault_downtime_cycles", Cell::Int(r.stats.total_downtime_cycles()));
        }
        w.cell(Cell::Real(r.energy_mj()));
        w.cell(Cell::Real(r.edp()));
        w.json_records("per_chip", r.stats.per_chip.iter().map(ChipStats::breakdown));
    }
}

impl SweepRow {
    /// One CSV line (no trailing newline), matching [`CSV_HEADER`].
    #[must_use]
    pub fn to_csv_line(&self) -> String {
        record::csv_line(self)
    }
}

impl SweepResults {
    /// Serializes every row as CSV (header + one line per row, trailing
    /// newline). Byte-identical across runs of the same grid.
    #[must_use]
    pub fn to_csv(&self) -> String {
        record::render(Format::Csv, &self.rows)
    }

    /// Serializes every row as a JSON array (one object per row, with
    /// the per-chip breakdown array and, on faulted rows, the fault
    /// counters). Byte-identical across runs of the same grid.
    #[must_use]
    pub fn to_json(&self) -> String {
        record::render(Format::Json, &self.rows)
    }

    /// Renders the rows as an aligned text table (what `mtp sweep`
    /// prints).
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            [
                "model",
                "mode",
                "chips",
                "topo",
                "place",
                "bw%",
                "batch",
                "faults",
                "regime",
                "runtime(cyc)",
                "ms",
                "energy(mJ)",
                "EDP",
            ]
            .map(String::from)
            .to_vec(),
        );
        for row in &self.rows {
            let s = &row.scenario;
            let r = &row.report;
            t.row(vec![
                record::spelled(|out| s.write_model_label(out)),
                s.mode.to_string(),
                s.n_chips.to_string(),
                s.topology.label(),
                s.placement.label().to_owned(),
                record::spelled(|out| s.write_link_label(out)),
                s.batch.to_string(),
                s.faults.label(),
                r.residency.to_string(),
                fmt_cycles(r.stats.makespan),
                format!("{:.3}", r.runtime_ms()),
                format!("{:.3}", r.energy_mj()),
                format!("{:.4}", r.edp()),
            ]);
        }
        t.render()
    }

    /// One-line run summary (scenario counts, cache hits, timing).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} scenario(s): {} simulated, {} from cache, {} skipped; {:.1} ms",
            self.rows.len() + self.skipped.len(),
            self.unique_simulated,
            self.cache_hits,
            self.skipped.len(),
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

/// Outcome of one simulated grid point, shared across scenarios that
/// provably produce the same report; a failure keeps its message and
/// whether it was an answer past a bound ([`SkippedScenario::overflow`]).
type SimOutcome = Result<Arc<SystemReport>, Skip>;

/// A skipped point's reason and overflow flag ([`SkippedScenario`]).
type Skip = (String, bool);

fn skip(e: CoreError) -> Skip {
    let overflow = matches!(
        e,
        CoreError::Sim(
            SimError::CounterOverflow { .. }
                | SimError::CycleOverflow { .. }
                | SimError::FullRunBudget { .. }
        )
    );
    (e.to_string(), overflow)
}

/// Scenarios per bounded batch of [`SweepEngine::run_streamed`]: large
/// enough to keep the workers saturated and the template reuse warm,
/// small enough that the in-flight row set never grows with the grid.
pub const STREAM_CHUNK: usize = 512;

/// Counters of a streamed sweep run ([`SweepEngine::run_streamed`]) —
/// the scalar half of a [`SweepResults`], without the per-row
/// materialization streaming exists to avoid.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// CSV rows written (successful scenarios).
    pub rows: usize,
    /// Scenarios that could not run (no row written).
    pub skipped: usize,
    /// Scenarios answered from a cache (within-batch duplicates).
    pub cache_hits: usize,
    /// Scenarios actually simulated.
    pub unique_simulated: usize,
    /// The first skipped scenario whose counters overflowed
    /// ([`SkippedScenario::overflow`]), if any: counted among the
    /// skipped, but an answer no row can hold rather than an invalid
    /// point.
    pub first_overflow: Option<SkippedScenario>,
    /// Wall-clock time of the whole streamed run.
    pub elapsed: Duration,
}

impl StreamSummary {
    /// One-line run summary (mirrors [`SweepResults::summary`]).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} scenario(s): {} simulated, {} from cache, {} skipped; {:.1} ms (streamed)",
            self.rows + self.skipped,
            self.unique_simulated,
            self.cache_hits,
            self.skipped,
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

/// Compiled schedules one engine keeps: over three times the 324 keys of
/// every named CLI value crossed (counted by a test below). Only grids of
/// many `hierN` group sizes reach it; past it the store starts afresh and
/// later keys compile again, with the same results.
const MAX_SCHEDULES: usize = 1024;

/// The parallel, caching sweep runner.
///
/// The engine owns two stores that persist across runs: a scenario
/// report cache (re-running an overlapping grid only simulates the new
/// points) and a [`ScheduleKey`]-keyed [`Memo`] of compiled schedules,
/// from which every run, [`SweepEngine::run_one`] and the advisor take
/// theirs (depth, bandwidth and repeated-structure variants compile
/// once). Within one run, `threads` scoped workers claim simulations:
/// points that differ only in display fields share one.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    cache: Mutex<FxHashMap<Scenario, Arc<SystemReport>>>,
    pub(crate) schedules: Memo<ScheduleKey, Arc<CompiledSchedule>, FxBuildHasher>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

impl SweepEngine {
    /// An engine with one worker per available CPU.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        SweepEngine::with_threads(threads)
    }

    /// An engine that simulates strictly one scenario at a time (the
    /// baseline `mtp sweep --compare-serial` measures against).
    #[must_use]
    pub fn serial() -> Self {
        SweepEngine::with_threads(1)
    }

    /// An engine with an explicit worker count (minimum 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        SweepEngine {
            threads: threads.max(1),
            cache: Mutex::default(),
            schedules: Memo::new(MAX_SCHEDULES),
        }
    }

    /// Worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of reports currently cached.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread poisoned the cache lock (a worker
    /// panicked mid-insert), which indicates a simulator bug.
    #[must_use]
    pub fn cached_len(&self) -> usize {
        self.cache.lock().expect("sweep cache poisoned").len()
    }

    /// Number of compiled block templates currently cached.
    #[must_use]
    pub fn cached_schedules_len(&self) -> usize {
        self.schedules.len()
    }

    /// `scenario`'s compiled schedule, by its `key`, from the engine's
    /// store: compiled on the first ask; an error keeps nothing.
    pub(crate) fn schedule(
        &self,
        scenario: &Scenario,
        key: &ScheduleKey,
    ) -> Result<Arc<CompiledSchedule>, CoreError> {
        self.schedules.get_or_try_insert_with(key, || scenario.compile_schedule().map(Arc::new))
    }

    /// Simulates `scenario`, keyed `key`, on its stored schedule, whose
    /// steady-state memo every scenario sharing the template reuses.
    fn simulate(&self, scenario: &Scenario, key: &ScheduleKey) -> Result<SystemReport, CoreError> {
        self.schedule(scenario, key)?.simulate_faulted(
            &scenario.chip(),
            scenario.n_blocks(),
            &scenario.faults,
            scenario.fail_policy,
        )
    }

    /// Runs every scenario of the grid. Never fails as a whole: invalid
    /// grid points come back in [`SweepResults::skipped`] with the
    /// underlying error message.
    #[must_use]
    pub fn run(&self, grid: &SweepGrid) -> SweepResults {
        self.run_scenarios(&grid.scenarios())
    }

    /// Runs an explicit scenario list (deduplicated via the cache) and
    /// returns rows in input order.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics, which indicates a simulator bug
    /// (simulation errors are reported as skips, not panics).
    #[must_use]
    pub fn run_scenarios(&self, scenarios: &[Scenario]) -> SweepResults {
        let started = std::time::Instant::now();

        // Phase 1: one hash per input point maps it to its first
        // occurrence, then one cache acquisition probes each distinct
        // point once. The scenario value itself is the key, so this
        // phase allocates nothing per point.
        let mut first: FxHashMap<&Scenario, usize> = fxhash::map_with_capacity(scenarios.len());
        let mut distinct: Vec<&Scenario> = Vec::new();
        let index: Vec<usize> = scenarios
            .iter()
            .map(|s| {
                *first.entry(s).or_insert_with(|| {
                    distinct.push(s);
                    distinct.len() - 1
                })
            })
            .collect();
        drop(first);
        let mut outcomes: Vec<Option<SimOutcome>> = {
            let cache = self.cache.lock().expect("sweep cache poisoned");
            distinct.iter().map(|s| cache.get(*s).map(|report| Ok(Arc::clone(report)))).collect()
        };
        let run_of: Vec<usize> = (0..distinct.len()).filter(|&d| outcomes[d].is_none()).collect();

        // Phase 2: route each point to a simulation. The schedule plus
        // the bandwidth-scaled, regime-tagged, fault-injected chip and the
        // depth fully determine a report (the other fields are
        // display-only), so points sharing them simulate once and share
        // the report through an `Arc`. A point without a key (an invalid
        // axis value, partition, or one-chip topology) gets its key's error.
        type SimKey<'s> = (ScheduleKey, u32, usize, LinkRegime, &'s FaultPlan, FailPolicy);
        let mut sim_of: FxHashMap<SimKey<'_>, usize> = fxhash::map_with_capacity(run_of.len());
        let mut sims: Vec<(&Scenario, ScheduleKey)> = Vec::new();
        let route: Vec<Result<usize, Skip>> = run_of
            .iter()
            .map(|&d| {
                let s = distinct[d];
                let key = s.schedule_key().map_err(skip)?;
                let sim =
                    (key, s.link_bw_pct, s.n_blocks(), s.link_regime, &s.faults, s.fail_policy);
                Ok(*sim_of.entry(sim).or_insert_with_key(|sim| {
                    sims.push((s, sim.0.clone()));
                    sims.len() - 1
                }))
            })
            .collect();
        drop(sim_of);

        // Phase 3: workers claim simulations from an atomic counter and
        // write pre-assigned slots, so the outcome is independent of
        // scheduling order; a single worker runs inline.
        let done: Vec<OnceLock<SimOutcome>> = sims.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((scenario, key)) = sims.get(i) else { break };
            let _ = done[i].set(self.simulate(scenario, key).map(Arc::new).map_err(skip));
        };
        let workers = self.threads.min(sims.len());
        if workers == 1 {
            worker();
        } else if workers > 1 {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        // Phase 4: fill the cache once per freshly simulated point (one
        // acquisition), then assemble rows in input order. A row counts
        // as "simulated" only for the first occurrence of a point this
        // run produced; every other successful row is a cache hit (a
        // prior run's report or a within-run duplicate). Failed points
        // are skipped wherever they occur, so `unique_simulated +
        // cache_hits == rows.len()` always holds.
        let mut fresh = vec![false; distinct.len()];
        let mut failed = 0;
        {
            let mut cache = self.cache.lock().expect("sweep cache poisoned");
            for (&d, route) in run_of.iter().zip(route) {
                let outcome = route.and_then(|sim| {
                    done[sim].get().expect("a worker ran every simulation").clone()
                });
                match &outcome {
                    Ok(report) => {
                        cache.insert(distinct[d].clone(), Arc::clone(report));
                        fresh[d] = true;
                    }
                    Err(_) => failed += 1,
                }
                outcomes[d] = Some(outcome);
            }
        }
        let mut rows = Vec::with_capacity(scenarios.len());
        let mut skipped = Vec::new();
        let mut cache_hits = 0usize;
        for (s, &d) in scenarios.iter().zip(&index) {
            match outcomes[d].as_ref().expect("every distinct point has an outcome") {
                Ok(report) => {
                    if !std::mem::take(&mut fresh[d]) {
                        cache_hits += 1;
                    }
                    rows.push(SweepRow { scenario: s.clone(), report: Arc::clone(report) });
                }
                Err((reason, overflow)) => skipped.push(SkippedScenario {
                    scenario: s.clone(),
                    reason: reason.clone(),
                    overflow: *overflow,
                }),
            }
        }
        SweepResults {
            rows,
            skipped,
            cache_hits,
            unique_simulated: run_of.len() - failed,
            elapsed: started.elapsed(),
        }
    }

    /// Runs a scenario list and streams CSV rows (header first, then one
    /// line per successful scenario in input order) into `out` as the
    /// worker loop produces them, instead of materializing a
    /// [`SweepResults`].
    ///
    /// The input is processed in bounded batches of [`STREAM_CHUNK`]
    /// scenarios — each batch runs through the full parallel engine
    /// (schedule-template reuse, within-batch dedup), its rows are
    /// written, and its reports are then evicted from the persistent
    /// report cache — so memory stays flat however many scenarios the
    /// grid enumerates (the ROADMAP's 10^5-scenario studies). The
    /// compiled-schedule cache, which is small and carries the real
    /// cross-batch reuse, persists as usual. Invalid scenarios are
    /// counted (and skipped), exactly as [`SweepResults::to_csv`] omits
    /// them, so the streamed bytes are identical to
    /// `run_scenarios(scenarios).to_csv()` — locked against the pinned
    /// FNV sweep checksums in `tests/sweep.rs`.
    ///
    /// # Errors
    ///
    /// Propagates `out`'s I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (see
    /// [`SweepEngine::run_scenarios`]).
    pub fn run_streamed<W: std::io::Write>(
        &self,
        scenarios: &[Scenario],
        out: &mut W,
    ) -> std::io::Result<StreamSummary> {
        self.stream(Format::Csv, scenarios, out)
    }

    /// The JSON twin of [`SweepEngine::run_streamed`]: streams the exact
    /// bytes of [`SweepResults::to_json`] (a pretty-printed row array)
    /// through the same bounded-chunk machinery, so arbitrarily large
    /// grids serialize to JSON with flat memory too. Byte-equivalence is
    /// locked by `streamed_json_rows_equal_materialized_json`.
    ///
    /// # Errors
    ///
    /// Propagates `out`'s I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (see
    /// [`SweepEngine::run_scenarios`]).
    pub fn run_streamed_json<W: std::io::Write>(
        &self,
        scenarios: &[Scenario],
        out: &mut W,
    ) -> std::io::Result<StreamSummary> {
        self.stream(Format::Json, scenarios, out)
    }

    /// Writes one table of `scenarios`' rows to `out` as the chunking
    /// loop produces them, draining the table's buffer after each row.
    fn stream<W: std::io::Write>(
        &self,
        format: Format,
        scenarios: &[Scenario],
        out: &mut W,
    ) -> std::io::Result<StreamSummary> {
        let mut table = Table::new(format);
        table.drain_to(out)?;
        let summary = self.stream_rows(scenarios, |row| {
            table.push(row);
            table.drain_to(out)
        })?;
        out.write_all(table.finish().as_bytes())?;
        out.flush()?;
        Ok(summary)
    }

    /// The shared chunking loop of the streaming sinks: runs the input
    /// in bounded batches of [`STREAM_CHUNK`] scenarios through the full
    /// parallel engine, hands each successful row to `emit` in input
    /// order, and evicts each chunk's reports from the persistent cache
    /// once emitted (the compiled-schedule cache persists and carries
    /// the cross-chunk reuse).
    fn stream_rows<F>(&self, scenarios: &[Scenario], mut emit: F) -> std::io::Result<StreamSummary>
    where
        F: FnMut(&SweepRow) -> std::io::Result<()>,
    {
        let started = std::time::Instant::now();
        let mut summary = StreamSummary {
            rows: 0,
            skipped: 0,
            cache_hits: 0,
            unique_simulated: 0,
            first_overflow: None,
            elapsed: Duration::ZERO,
        };
        for chunk in scenarios.chunks(STREAM_CHUNK) {
            let results = self.run_scenarios(chunk);
            for row in &results.rows {
                emit(row)?;
            }
            summary.rows += results.rows.len();
            summary.skipped += results.skipped.len();
            summary.cache_hits += results.cache_hits;
            summary.unique_simulated += results.unique_simulated;
            if summary.first_overflow.is_none() {
                summary.first_overflow = results.skipped.into_iter().find(|s| s.overflow);
            }
            // Keep memory flat: this chunk's reports leave the
            // persistent cache once their rows are written.
            let mut cache = self.cache.lock().expect("sweep cache poisoned");
            for s in chunk {
                cache.remove(s);
            }
        }
        summary.elapsed = started.elapsed();
        Ok(summary)
    }

    /// Runs (or recalls) a single scenario, on the engine's stored
    /// schedule for its key.
    ///
    /// # Errors
    ///
    /// Propagates the scenario's validation, partitioning, topology and
    /// simulation errors, in that order.
    pub fn run_one(&self, scenario: &Scenario) -> Result<SystemReport, CoreError> {
        if let Some(hit) = self.cache.lock().expect("sweep cache poisoned").get(scenario) {
            return Ok(SystemReport::clone(hit));
        }
        let report = self.simulate(scenario, &scenario.schedule_key()?)?;
        self.cache
            .lock()
            .expect("sweep cache poisoned")
            .insert(scenario.clone(), Arc::new(report.clone()));
        Ok(report)
    }

    /// Runs a scenario list where every point is expected to be valid;
    /// returns the reports in input order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the first skipped
    /// scenario if any point fails.
    pub fn reports(&self, scenarios: &[Scenario]) -> Result<Vec<SystemReport>, CoreError> {
        let results = self.run_scenarios(scenarios);
        if let Some(s) = results.skipped.first() {
            return Err(CoreError::InvalidConfig(format!(
                "scenario `{}` failed: {}",
                s.scenario.key(),
                s.reason
            )));
        }
        Ok(results.rows.into_iter().map(|r| Arc::unwrap_or_clone(r.report)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid::single(
            TransformerConfig::tiny_llama_42m(),
            InferenceMode::Autoregressive,
            vec![1, 2, 4, 8],
        )
    }

    #[test]
    fn grid_enumerates_cross_product_in_order() {
        let grid = small_grid()
            .with_topologies(vec![TopologySpec::PaperDefault, TopologySpec::Flat])
            .with_link_bw_pcts(vec![100, 50]);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 4 * 2 * 2);
        assert_eq!(grid.len(), scenarios.len());
        // Innermost axis varies fastest.
        assert_eq!(scenarios[0].link_bw_pct, 100);
        assert_eq!(scenarios[1].link_bw_pct, 50);
        assert_eq!(scenarios[0].topology, TopologySpec::PaperDefault);
        assert_eq!(scenarios[2].topology, TopologySpec::Flat);
        assert_eq!(scenarios[0].n_chips, 1);
        assert_eq!(scenarios[4].n_chips, 2);
    }

    #[test]
    fn engine_caches_and_dedups() {
        let engine = SweepEngine::new();
        let scenario =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 2);
        let twice = [scenario.clone(), scenario.clone()];
        let results = engine.run_scenarios(&twice);
        assert_eq!(results.rows.len(), 2);
        assert_eq!(results.unique_simulated, 1);
        assert_eq!(results.cache_hits, 1);
        assert_eq!(results.rows[0].report.stats, results.rows[1].report.stats);
        // A second run is answered entirely from the cache.
        let again = engine.run_scenarios(&twice);
        assert_eq!(again.unique_simulated, 0);
        assert_eq!(again.cache_hits, 2);
        assert_eq!(again.rows[0].report.stats, results.rows[0].report.stats);
    }

    #[test]
    fn invalid_points_are_skipped_with_reason() {
        let engine = SweepEngine::new();
        // MobileBERT has 4 heads: 8 chips cannot partition it.
        let grid =
            SweepGrid::single(TransformerConfig::mobile_bert(), InferenceMode::Prompt, vec![4, 8]);
        let results = engine.run(&grid);
        assert_eq!(results.rows.len(), 1);
        assert_eq!(results.skipped.len(), 1);
        assert_eq!(results.skipped[0].scenario.n_chips, 8);
        assert!(results.skipped[0].reason.contains("heads"), "{}", results.skipped[0].reason);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let grid = small_grid();
        let parallel = SweepEngine::with_threads(4).run(&grid);
        let serial = SweepEngine::serial().run(&grid);
        assert_eq!(parallel.to_csv(), serial.to_csv());
        assert_eq!(parallel.to_json(), serial.to_json());
    }

    #[test]
    fn csv_and_json_shape() {
        let results = SweepEngine::new().run(&small_grid());
        let csv = results.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 21);
        for line in lines {
            assert_eq!(line.split(',').count(), 21, "row: {line}");
        }
        let json = results.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"model\"").count(), 4);
        assert!(json.contains("\"per_chip\""));
    }

    #[test]
    fn forced_streaming_is_slower_than_auto() {
        let engine = SweepEngine::new();
        let auto =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 8);
        let streamed = auto.clone().with_placement(PlacementPolicy::ForceStreamed);
        let a = engine.run_one(&auto).unwrap();
        let s = engine.run_one(&streamed).unwrap();
        assert!(a.stats.makespan < s.stats.makespan);
    }

    #[test]
    fn slower_link_increases_multi_chip_makespan() {
        // Prompt mode moves S x E activations through the all-reduce, so
        // link bandwidth is on the critical path there (in autoregressive
        // mode a mild slowdown hides behind compute overlap).
        let engine = SweepEngine::new();
        let cfg = TransformerConfig::tiny_llama_42m().with_seq_len(16);
        let full = Scenario::new(cfg, InferenceMode::Prompt, 8);
        let half = full.clone().with_link_bw_pct(50).unwrap();
        let f = engine.run_one(&full).unwrap();
        let h = engine.run_one(&half).unwrap();
        assert!(h.stats.makespan > f.stats.makespan);
        assert!(h.breakdown().c2c > f.breakdown().c2c);
    }

    #[test]
    fn preset_parsing_round_trips() {
        for name in ["tinyllama", "tinyllama-64h", "tinyllama-gqa2", "mobilebert"] {
            assert_eq!(ModelPreset::parse(name).unwrap().cli_name(), name);
        }
        assert!(ModelPreset::parse("gpt4").is_err());
        assert!(ModelPreset::parse("tinyllama-gqa3").is_err());
        assert_eq!(TopologySpec::parse("hier4").unwrap(), TopologySpec::PaperDefault);
        assert_eq!(
            TopologySpec::parse("hier8").unwrap(),
            TopologySpec::Hierarchical { group_size: 8 }
        );
        assert!(TopologySpec::parse("ring").is_err());
        assert!(TopologySpec::parse("hier1").is_err());
        assert_eq!(PlacementPolicy::parse("streamed").unwrap(), PlacementPolicy::ForceStreamed);
        assert!(PlacementPolicy::parse("pinned").is_err());
        assert_eq!(Span::parse("model").unwrap(), Span::Model);
        assert!(Span::parse("layer").is_err());
    }

    #[test]
    fn paper_default_grid_is_at_least_48_valid_scenarios() {
        let grid = SweepGrid::paper_default();
        let results = SweepEngine::new().run(&grid);
        assert!(results.rows.len() >= 48, "only {} valid scenarios", results.rows.len());
        // Every skip names a divisibility problem, never a simulator bug.
        for s in &results.skipped {
            assert!(s.reason.contains("share"), "unexpected skip: {}", s.reason);
        }
    }

    #[test]
    fn failed_duplicates_do_not_count_as_cache_hits() {
        // Both enumerations of an invalid point share a key; neither may
        // inflate the cache-hit counter, and the subcounts must add up.
        let engine = SweepEngine::new();
        let bad = Scenario::new(TransformerConfig::mobile_bert(), InferenceMode::Prompt, 8);
        let results = engine.run_scenarios(&[bad.clone(), bad]);
        assert_eq!(results.rows.len(), 0);
        assert_eq!(results.skipped.len(), 2);
        assert_eq!(results.cache_hits, 0);
        assert_eq!(results.unique_simulated, 0);
    }

    #[test]
    fn schedule_keys_normalize_depth_name_bandwidth_and_span_only() {
        let ar = InferenceMode::Autoregressive;
        let base = Scenario::new(TransformerConfig::tiny_llama_42m(), ar, 8);
        let key = base.schedule_key().unwrap();
        // Non-structural axes collapse onto the same key.
        assert_eq!(base.clone().with_link_bw_pct(50).unwrap().schedule_key().unwrap(), key);
        assert_eq!(base.clone().with_span(Span::Model).schedule_key().unwrap(), key);
        let queued = LinkRegime::Queued {
            buffer_bytes: 4096,
            discipline: mtp_sim::QueueDiscipline::Backpressure,
        };
        assert_eq!(base.clone().with_link_regime(queued).schedule_key().unwrap(), key);
        let deep = Scenario::new(TransformerConfig::tiny_llama_deep(96), ar, 8);
        assert_eq!(deep.schedule_key().unwrap(), key, "depth-only variant must share");
        // Structural axes split.
        assert_ne!(base.clone().with_topology(TopologySpec::Flat).schedule_key().unwrap(), key);
        assert_ne!(
            base.clone().with_placement(PlacementPolicy::ForceStreamed).schedule_key().unwrap(),
            key
        );
        assert_ne!(
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Prompt, 8)
                .schedule_key()
                .unwrap(),
            key
        );
        assert_ne!(
            Scenario::new(TransformerConfig::tiny_llama_42m(), ar, 4).schedule_key().unwrap(),
            key
        );
        // A depth change that flips the residency regime must split too:
        // the scaled model is resident at 32 chips with 8 layers but not
        // with 96.
        let scaled = Scenario::new(TransformerConfig::tiny_llama_scaled_64h(), ar, 32);
        let scaled_deep =
            Scenario::new(TransformerConfig::tiny_llama_scaled_64h().with_n_layers(96), ar, 32);
        assert_ne!(
            scaled.schedule_key().unwrap(),
            scaled_deep.schedule_key().unwrap(),
            "residency-changing depth variant must not share a template"
        );
        // Invalid partitions have no key.
        assert!(Scenario::new(TransformerConfig::mobile_bert(), InferenceMode::Prompt, 8)
            .schedule_key()
            .is_err());
    }

    #[test]
    fn depth_variants_share_one_template_and_match_uncached_runs() {
        let ar = InferenceMode::Autoregressive;
        let engine = SweepEngine::new();
        let d96 =
            Scenario::new(TransformerConfig::tiny_llama_deep(96), ar, 8).with_span(Span::Model);
        let d192 =
            Scenario::new(TransformerConfig::tiny_llama_deep(192), ar, 8).with_span(Span::Model);
        let results = engine.run_scenarios(&[d96.clone(), d192.clone()]);
        assert_eq!(results.rows.len(), 2);
        assert_eq!(engine.cached_schedules_len(), 1, "one shared template");
        // The cached-template path must equal direct uncached simulation.
        assert_eq!(results.rows[0].report.stats, d96.run().unwrap().stats);
        assert_eq!(results.rows[1].report.stats, d192.run().unwrap().stats);
        assert_eq!(results.rows[0].report.n_blocks, 96);
        assert_eq!(results.rows[1].report.n_blocks, 192);
    }

    #[test]
    fn single_chip_topologies_share_template_and_simulation() {
        // With one chip no communication is emitted, so every topology
        // lowers to the bit-identical template: the key collapses them
        // and the engine simulates the group once.
        let ar = InferenceMode::Autoregressive;
        let hier = Scenario::new(TransformerConfig::tiny_llama_42m(), ar, 1);
        let flat = hier.clone().with_topology(TopologySpec::Flat);
        assert_eq!(hier.schedule_key().unwrap(), flat.schedule_key().unwrap());
        assert_eq!(
            hier.compile_schedule().unwrap().template(),
            flat.compile_schedule().unwrap().template(),
            "single-chip templates must be bit-identical across topologies"
        );
        // Multi-chip topologies stay distinct.
        let hier8 = Scenario::new(TransformerConfig::tiny_llama_42m(), ar, 8);
        assert_ne!(
            hier8.schedule_key().unwrap(),
            hier8.clone().with_topology(TopologySpec::Flat).schedule_key().unwrap()
        );
        let engine = SweepEngine::new();
        let results = engine.run_scenarios(&[hier.clone(), flat.clone()]);
        assert_eq!(engine.cached_schedules_len(), 1);
        assert_eq!(results.rows[0].report.stats, results.rows[1].report.stats);
        // Both rows still match uncached simulation of their own scenario.
        assert_eq!(results.rows[1].report.stats, flat.run().unwrap().stats);
    }

    #[test]
    fn deep_grid_runs_and_reuses_templates_across_bandwidths() {
        let engine = SweepEngine::new();
        let results = engine.run(&SweepGrid::deep_default());
        // 4 workloads x 4 chip counts x 2 bandwidths, minus MobileBERT at
        // 8 chips (4 heads cannot split 8 ways).
        assert_eq!(results.rows.len(), 30, "{:?}", results.skipped);
        assert_eq!(results.skipped.len(), 2);
        // Unique templates: bandwidth never splits a key, and the d192
        // workload shares every key with d96 (same structure and
        // residency), so 2 distinct TinyLlama workloads x 4 chip counts
        // + MobileBERT x 3 valid chip counts.
        assert_eq!(engine.cached_schedules_len(), 11);
        for row in &results.rows {
            assert_eq!(row.report.n_blocks, row.scenario.config.n_layers);
        }
    }

    #[test]
    fn streamed_deep_sweep_leaves_one_memo_entry_per_timing_class() {
        // Two stream chunks of the deep grid: the second re-simulates
        // evicted rows from the memos, which walk once per timing class
        // (one chip sends nothing, so its two bandwidths are one class).
        // On many threads, workers meeting one key must all simulate on
        // the schedule the store kept, or a class walks twice.
        let grid = SweepGrid::deep_default().scenarios();
        let scenarios: Vec<Scenario> =
            grid.iter().cycle().take(STREAM_CHUNK + grid.len()).cloned().collect();
        for threads in [1, 2, 8] {
            let engine = SweepEngine::with_threads(threads);
            let mut csv = Vec::new();
            engine.run_streamed(&scenarios, &mut csv).unwrap();
            let schedules = engine.schedules.values();
            assert_eq!(schedules.len(), 11);
            for compiled in schedules {
                // Each walk keeps at most one entry, so this bounds the memo.
                let classes = if compiled.n_chips() == 1 { 1 } else { 2 };
                assert_eq!(
                    compiled.walks(),
                    classes,
                    "{} chips, {threads} threads",
                    compiled.n_chips()
                );
            }
        }
    }

    #[test]
    fn every_named_cli_value_crossed_stays_under_the_schedule_bound() {
        // The largest grid of named CLI values: depth reaches a key only
        // through the residency regime, and depths past 64 add no key
        // (nor do chip counts past 64: no preset has more heads).
        use ModelPreset::{MobileBert, MobileBertDeep, TinyLlama, TinyLlamaDeep};
        let mut presets = vec![TinyLlama, ModelPreset::TinyLlamaScaled64h, MobileBert];
        presets.extend([1, 2, 4, 8].map(ModelPreset::TinyLlamaGqa));
        presets.extend((1..=64).flat_map(|n| [TinyLlamaDeep(n), MobileBertDeep(n)]));
        let mut keys = std::collections::HashSet::new();
        for (preset, mode) in presets.into_iter().flat_map(|p| {
            [InferenceMode::Autoregressive, InferenceMode::Prompt].map(move |m| (p, m))
        }) {
            let cfg = preset.config(mode);
            for chips in 1..=64 {
                for topology in [TopologySpec::PaperDefault, TopologySpec::Flat] {
                    for placement in [PlacementPolicy::Auto, PlacementPolicy::ForceStreamed] {
                        for cost in [CostSourceKind::Analytic, CostSourceKind::Calibrated] {
                            let key = Scenario::new(cfg.clone(), mode, chips)
                                .with_topology(topology)
                                .with_placement(placement)
                                .with_cost_source(cost)
                                .schedule_key();
                            keys.extend(key.ok());
                        }
                    }
                }
            }
        }
        // The count `MAX_SCHEDULES` cites.
        assert_eq!(keys.len(), 324);
        assert!(3 * keys.len() < MAX_SCHEDULES);
    }

    #[test]
    fn batch_axis_multiplies_blocks_and_shares_templates() {
        let engine = SweepEngine::new();
        let base =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 8)
                .with_span(Span::Model);
        let b4 = base.clone().with_batch(4);
        assert_eq!(b4.n_blocks(), 4 * base.n_blocks());
        // Uniform batches never split the schedule key.
        assert_eq!(base.schedule_key().unwrap(), b4.schedule_key().unwrap());
        let results = engine.run_scenarios(&[base.clone(), b4.clone()]);
        assert_eq!(results.rows.len(), 2);
        assert_eq!(engine.cached_schedules_len(), 1, "one shared template");
        // Engine rows equal uncached simulation of the batched scenario.
        assert_eq!(results.rows[1].report.stats, b4.run().unwrap().stats);
        assert_eq!(results.rows[1].report.n_blocks, 4 * 8);
    }

    #[test]
    fn batched_scenario_equals_depth_multiplied_single_request() {
        // A batch of B requests over a d-layer model is the same template
        // run d*B times — so it shares its *simulation* with the B*d-deep
        // single-request scenario and reports identical stats.
        let ar = InferenceMode::Autoregressive;
        let engine = SweepEngine::new();
        let batched = Scenario::new(TransformerConfig::tiny_llama_deep(96), ar, 8)
            .with_span(Span::Model)
            .with_batch(2);
        let deep =
            Scenario::new(TransformerConfig::tiny_llama_deep(192), ar, 8).with_span(Span::Model);
        let results = engine.run_scenarios(&[batched, deep]);
        assert_eq!(results.rows.len(), 2);
        assert_eq!(results.unique_simulated, 2);
        assert_eq!(results.rows[0].report.stats, results.rows[1].report.stats);
        assert_eq!(results.rows[0].report.n_blocks, 192);
    }

    #[test]
    fn batch_grid_axis_enumerates_and_labels() {
        let grid = small_grid().with_batch_sizes(vec![1, 4]);
        let scenarios = grid.scenarios();
        assert_eq!(grid.len(), 8);
        assert_eq!(scenarios.len(), 8);
        // Batch is the innermost axis.
        assert_eq!(scenarios[0].batch, 1);
        assert_eq!(scenarios[1].batch, 4);
        let span = |s: &Scenario| record::spelled(|out| s.write_span_batch_label(out));
        assert_eq!(span(&scenarios[0]), "block");
        assert_eq!(span(&scenarios[1]), "block@b4");
        assert_ne!(scenarios[0].key(), scenarios[1].key());
        let results = SweepEngine::new().run(&grid);
        let csv = results.to_csv();
        assert!(csv.contains(",block@b4,"), "batched rows must carry the batch label:\n{csv}");
        assert!(results.to_json().contains("\"span\":\"block@b4\""));
        assert!(results.render().contains("batch"));
    }

    #[test]
    fn batch_default_grid_runs() {
        let results = SweepEngine::new().run(&SweepGrid::batch_default());
        // 3 workloads x 4 chip counts x 3 batch sizes, minus MobileBERT
        // at 8 chips (4 heads cannot split 8 ways) x 3 batches.
        assert_eq!(results.rows.len(), 33, "{:?}", results.skipped);
        assert_eq!(results.skipped.len(), 3);
        for row in &results.rows {
            assert_eq!(row.report.n_blocks, row.scenario.config.n_layers * row.scenario.batch);
        }
    }

    #[test]
    fn streamed_rows_equal_materialized_csv() {
        let grid = small_grid().with_batch_sizes(vec![1, 2]);
        let scenarios = grid.scenarios();
        let engine = SweepEngine::new();
        let mut buf = Vec::new();
        let summary = engine.run_streamed(&scenarios, &mut buf).unwrap();
        let materialized = SweepEngine::new().run_scenarios(&scenarios);
        assert_eq!(String::from_utf8(buf).unwrap(), materialized.to_csv());
        assert_eq!(summary.rows, materialized.rows.len());
        assert_eq!(summary.skipped, 0);
        assert!(summary.summary().contains("streamed"));
        // Memory stays flat: no reports linger in the persistent cache.
        assert_eq!(engine.cached_len(), 0);
        // Templates persist (they are the cross-batch reuse carrier).
        assert!(engine.cached_schedules_len() > 0);
    }

    #[test]
    fn streaming_crosses_chunk_boundaries_in_input_order() {
        // More scenarios than one chunk, built from duplicates so the
        // run stays cheap: every chunk re-simulates its unique point
        // (reports are evicted between chunks) and rows stream in input
        // order regardless.
        let scenario =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 2);
        let scenarios = vec![scenario; STREAM_CHUNK + 7];
        let engine = SweepEngine::new();
        let mut buf = Vec::new();
        let summary = engine.run_streamed(&scenarios, &mut buf).unwrap();
        assert_eq!(summary.rows, STREAM_CHUNK + 7);
        assert_eq!(summary.unique_simulated, 2, "one fresh simulation per chunk");
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), STREAM_CHUNK + 7 + 1);
        let expected = SweepEngine::new().run_scenarios(&scenarios).to_csv();
        assert_eq!(text, expected);
    }

    #[test]
    fn key_distinguishes_architecture_beyond_name_and_shape() {
        // Same name and dimensions, different attention kind: the cache
        // must not serve one the other's report.
        let cfg = TransformerConfig::tiny_llama_42m();
        let mut bidi = cfg.clone();
        bidi.attention = mtp_model::AttentionKind::Bidirectional;
        let a = Scenario::new(cfg, InferenceMode::Prompt, 4);
        let b = Scenario::new(bidi, InferenceMode::Prompt, 4);
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn scenario_keys_distinguish_every_axis() {
        let base =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 4);
        let variants = [
            base.clone().with_topology(TopologySpec::Flat),
            base.clone().with_placement(PlacementPolicy::ForceStreamed),
            base.clone().with_link_bw_pct(50).unwrap(),
            base.clone().with_link_regime(LinkRegime::Queued {
                buffer_bytes: 2048,
                discipline: mtp_sim::QueueDiscipline::Backpressure,
            }),
            base.clone().with_span(Span::Model),
            base.clone().with_batch(4),
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Prompt, 4),
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 8),
            Scenario::new(TransformerConfig::tiny_llama_gqa(4), InferenceMode::Autoregressive, 4),
        ];
        let mut keys = vec![base.key()];
        for v in &variants {
            assert!(!keys.contains(&v.key()), "key collision: {}", v.key());
            keys.push(v.key());
        }
    }

    #[test]
    fn zero_link_bandwidth_is_a_typed_error() {
        let base =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 2);
        let err = base.clone().with_link_bw_pct(0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("bandwidth"), "{err}");
        // A grid axis smuggling the zero past the typed builder becomes
        // a skip with the same reason, never an overflow.
        let mut literal = base;
        literal.link_bw_pct = 0;
        assert!(literal.validate().is_err());
        assert!(literal.schedule_key().is_err());
        let results = SweepEngine::new().run_scenarios(&[literal]);
        assert_eq!(results.rows.len(), 0);
        assert_eq!(results.skipped.len(), 1);
        assert!(results.skipped[0].reason.contains("bandwidth"), "{}", results.skipped[0].reason);
    }

    #[test]
    fn a_batch_past_the_block_count_is_skipped_not_wrapped() {
        // Eight model blocks times 2^61 + 1 requests is 2^64 + 8 block
        // instances: a wrapping product would simulate eight.
        let batch = (1usize << 61) + 1;
        let huge =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 8)
                .with_span(Span::Model)
                .with_batch(batch);
        assert_eq!(huge.n_blocks(), usize::MAX);
        assert!(huge.schedule_key().is_err());
        let results = SweepEngine::new().run_scenarios(&[huge]);
        assert_eq!(results.rows.len(), 0);
        assert_eq!(
            results.skipped[0].reason,
            format!(
                "invalid model configuration: batch {batch} of the model span overflows the \
                 block count"
            )
        );
        assert!(!results.skipped[0].overflow);
    }

    #[test]
    fn invalid_regime_values_are_typed_errors() {
        let base =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 2);
        let zero_buffer = base.clone().with_link_regime(LinkRegime::Queued {
            buffer_bytes: 0,
            discipline: mtp_sim::QueueDiscipline::Backpressure,
        });
        assert!(zero_buffer.validate().is_err());
        let all_drop =
            base.with_link_regime(LinkRegime::Lossy { drop_per_mille: 1000, nack_cycles: 500 });
        assert!(all_drop.validate().unwrap_err().to_string().contains("1000"));
    }

    #[test]
    fn link_regime_axis_enumerates_labels_and_serializes() {
        // The buffer holds the full reduce fan-in (3 x 64 KiB messages
        // at 4 chips), so the finite-buffer run completes; an undersized
        // buffer would deadlock via head-of-line blocking (see the
        // `undersized_buffer_deadlocks_head_of_line` lockstep test).
        let queued = LinkRegime::Queued {
            buffer_bytes: 256 * 1024,
            discipline: mtp_sim::QueueDiscipline::Backpressure,
        };
        let grid =
            SweepGrid::single(TransformerConfig::tiny_llama_42m(), InferenceMode::Prompt, vec![4])
                .with_link_regimes(vec![LinkRegime::Affine, queued]);
        let scenarios = grid.scenarios();
        assert_eq!(grid.len(), 2);
        // The regime axis sits between bandwidth and batch (innermost
        // stays batch).
        assert_eq!(scenarios[0].link_regime, LinkRegime::Affine);
        assert_eq!(scenarios[1].link_regime, queued);
        let link = |s: &Scenario| record::spelled(|out| s.write_link_label(out));
        assert_eq!(link(&scenarios[0]), "100");
        assert_eq!(link(&scenarios[1]), "100@q262144");
        assert_ne!(scenarios[0].key(), scenarios[1].key());
        let results = SweepEngine::new().run(&grid);
        assert_eq!(results.rows.len(), 2, "{:?}", results.skipped);
        let csv = results.to_csv();
        assert!(csv.contains(",100,"), "affine rows keep the bare pct:\n{csv}");
        assert!(csv.contains(",100@q262144,"), "queued rows carry the regime label:\n{csv}");
        let json = results.to_json();
        assert!(json.contains("\"link_bw_pct\":100,"), "{json}");
        assert!(json.contains("\"link_bw_pct\":\"100@q262144\","), "{json}");
        assert!(results.render().contains("100@q262144"));
    }

    #[test]
    fn link_regime_splits_simulation_but_not_template() {
        let engine = SweepEngine::new();
        let affine = Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Prompt, 8);
        let queued_inf = affine.clone().with_link_regime(LinkRegime::Queued {
            buffer_bytes: u64::MAX,
            discipline: mtp_sim::QueueDiscipline::Backpressure,
        });
        assert_eq!(affine.schedule_key().unwrap(), queued_inf.schedule_key().unwrap());
        let results = engine.run_scenarios(&[affine, queued_inf]);
        assert_eq!(results.rows.len(), 2);
        assert_eq!(engine.cached_schedules_len(), 1, "regimes share one template");
        assert_eq!(results.unique_simulated, 2, "regimes must not share a simulation");
        // The infinite-buffer queued regime never parks, so its makespan
        // is bit-identical to the affine model's.
        assert_eq!(results.rows[0].report.stats.makespan, results.rows[1].report.stats.makespan);
        assert_eq!(results.rows[0].report.queueing_delay_cycles(), 0);
        assert!(results.rows[1].report.peak_queue_bytes() > 0);
    }

    #[test]
    fn streamed_json_rows_equal_materialized_json() {
        let grid = small_grid().with_batch_sizes(vec![1, 2]);
        let scenarios = grid.scenarios();
        let engine = SweepEngine::new();
        let mut buf = Vec::new();
        let summary = engine.run_streamed_json(&scenarios, &mut buf).unwrap();
        let materialized = SweepEngine::new().run_scenarios(&scenarios);
        assert_eq!(String::from_utf8(buf).unwrap(), materialized.to_json());
        assert_eq!(summary.rows, materialized.rows.len());
        assert_eq!(engine.cached_len(), 0, "streamed reports must not linger");
        // An empty input still produces a well-formed (empty) array.
        let mut empty = Vec::new();
        engine.run_streamed_json(&[], &mut empty).unwrap();
        assert_eq!(String::from_utf8(empty).unwrap(), "[\n]\n");
    }

    #[test]
    fn streamed_json_crosses_chunk_boundaries_with_correct_commas() {
        // The row separator is emitted by the callback across chunk
        // boundaries; a duplicate-heavy input keeps the run cheap while
        // forcing two chunks.
        let scenario =
            Scenario::new(TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive, 2);
        let scenarios = vec![scenario; STREAM_CHUNK + 3];
        let mut buf = Vec::new();
        let summary = SweepEngine::new().run_streamed_json(&scenarios, &mut buf).unwrap();
        assert_eq!(summary.rows, STREAM_CHUNK + 3);
        let text = String::from_utf8(buf).unwrap();
        let expected = SweepEngine::new().run_scenarios(&scenarios).to_json();
        assert_eq!(text, expected);
    }
}
