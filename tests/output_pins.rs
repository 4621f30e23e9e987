//! Byte pins for the CSV and JSON tables the CLI writes, beyond the
//! fault-free default sweep that `tests/sweep.rs` pins:
//!
//! 1. **Sweep** — non-affine link regimes (`queued`, `lossy:5`), a batch
//!    of 4, and faulted plans under spare failover, through both the
//!    materialized and the streamed sinks; and the deep and batch grids,
//!    whose depth variants answer from extrapolated steady states.
//! 2. **Serve** — continuous admission with per-request billing, with
//!    and without a request-failure profile.
//! 3. **Advise** — a dense bandwidth axis, plus the search that finds no
//!    candidate at all.
//!
//! Every checksum is FNV-1a 64 over the exact bytes. An intentional
//! change to any table must recompute the constants and say so. Each
//! pinned CSV also carries one value per header column on every line.

use mtp::core::{BatchPolicy, Billing, FailPolicy, FaultProfile};
use mtp::harness::advisor::{advise, Constraints, DesignSpace, ADVISE_CSV_HEADER};
use mtp::harness::serve::{ServeEngine, ServeGrid};
use mtp::harness::sweep::{PlacementPolicy, SweepEngine, SweepGrid, TopologySpec};
use mtp::link::LinkRegime;
use mtp::model::{ArrivalProcess, InferenceMode, TransformerConfig};
use mtp::sim::FaultPlan;

/// FNV-1a 64-bit hash of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_one_value_per_column(csv: &str) {
    let columns = csv.lines().next().unwrap().split(',').count();
    assert!(csv.lines().all(|line| line.split(',').count() == columns), "{csv}");
}

fn regime_batch_fault_grid() -> SweepGrid {
    let regimes = ["affine", "queued", "lossy:5"].map(|r| LinkRegime::parse(r).unwrap());
    let plans = ["none", "stall:0:1000:5000+slow:1:0:50000:150", "failstop:0:200000"]
        .map(|p| FaultPlan::parse(p).unwrap());
    SweepGrid::new(
        vec![
            (TransformerConfig::tiny_llama_42m(), InferenceMode::Autoregressive),
            (TransformerConfig::tiny_llama_42m().with_seq_len(16), InferenceMode::Prompt),
        ],
        vec![2, 4],
    )
    .with_link_regimes(regimes.to_vec())
    .with_batch_sizes(vec![1, 4])
    .with_fault_plans(plans.to_vec())
    .with_fail_policy(FailPolicy::SpareChip)
}

const SWEEP_CSV_FNV64: u64 = 7_174_277_717_836_317_234;
const SWEEP_JSON_FNV64: u64 = 1_287_421_383_659_060_706;

#[test]
fn regime_batch_fault_sweep_bytes_are_pinned() {
    let grid = regime_batch_fault_grid();
    let results = SweepEngine::new().run(&grid);
    // The grid reaches every JSON spelling the pins are meant to hold.
    let json = results.to_json();
    assert!(json.contains("\"link_bw_pct\":100,"));
    assert!(json.contains("\"link_bw_pct\":\"100@qinf\""));
    assert!(json.contains("\"link_bw_pct\":\"100@loss5n500\""));
    assert!(json.contains("@b4"));
    assert!(json.contains("\"fail_policy\":\"spare\""));
    assert_one_value_per_column(&results.to_csv());
    assert_eq!(fnv1a64(results.to_csv().as_bytes()), SWEEP_CSV_FNV64);
    assert_eq!(fnv1a64(json.as_bytes()), SWEEP_JSON_FNV64);

    let engine = SweepEngine::new();
    let (mut csv, mut json) = (Vec::new(), Vec::new());
    engine.run_streamed(&grid.scenarios(), &mut csv).unwrap();
    engine.run_streamed_json(&grid.scenarios(), &mut json).unwrap();
    assert_eq!(fnv1a64(&csv), SWEEP_CSV_FNV64);
    assert_eq!(fnv1a64(&json), SWEEP_JSON_FNV64);
}

const DEEP_CSV_FNV64: u64 = 9_732_279_991_841_179_441;
const DEEP_JSON_FNV64: u64 = 2_275_665_481_838_357_060;
const BATCH_CSV_FNV64: u64 = 1_716_607_602_953_500_698;
const BATCH_JSON_FNV64: u64 = 12_830_981_867_220_998_050;

/// The deep grid (96- and 192-block models at two bandwidths) and the
/// batch grid (uniform batches of 1, 4 and 16 as extra blocks): rows
/// deeper than the warmup window come from an extrapolated steady state.
#[test]
fn deep_and_batch_sweep_bytes_are_pinned() {
    for (grid, csv_pin, json_pin) in [
        (SweepGrid::deep_default(), DEEP_CSV_FNV64, DEEP_JSON_FNV64),
        (SweepGrid::batch_default(), BATCH_CSV_FNV64, BATCH_JSON_FNV64),
    ] {
        let results = SweepEngine::new().run(&grid);
        assert!(!results.rows.is_empty());
        assert_one_value_per_column(&results.to_csv());
        assert_eq!(fnv1a64(results.to_csv().as_bytes()), csv_pin);
        assert_eq!(fnv1a64(results.to_json().as_bytes()), json_pin);

        let engine = SweepEngine::serial();
        let (mut csv, mut json) = (Vec::new(), Vec::new());
        engine.run_streamed(&grid.scenarios(), &mut csv).unwrap();
        engine.run_streamed_json(&grid.scenarios(), &mut json).unwrap();
        assert_eq!(fnv1a64(&csv), csv_pin);
        assert_eq!(fnv1a64(&json), json_pin);
    }
}

const SERVE_CSV_FNV64: u64 = 16_669_310_936_941_681_869;
const SERVE_JSON_FNV64: u64 = 8_004_408_188_138_921_352;

#[test]
fn faulted_per_request_serve_bytes_are_pinned() {
    let grid = ServeGrid::paper_default()
        .with_chip_counts(vec![4])
        .with_arrivals(vec![
            ArrivalProcess::Poisson { rate_per_mcycle: 0.5 },
            ArrivalProcess::Poisson { rate_per_mcycle: 2.0 },
        ])
        .with_policies(vec![BatchPolicy::Continuous { max_slots: 4 }])
        .with_billings(vec![Billing::PerRequest])
        .with_requests(12, 16, 4)
        .with_faults(vec![FaultProfile::none(), FaultProfile::parse("fail:300:1:0:4").unwrap()]);
    let results = ServeEngine::new().run(&grid);
    assert_eq!(results.rows.len(), 4);
    assert_one_value_per_column(&results.to_csv());
    assert_eq!(fnv1a64(results.to_csv().as_bytes()), SERVE_CSV_FNV64);
    assert_eq!(fnv1a64(results.to_json().as_bytes()), SERVE_JSON_FNV64);
}

const ADVISE_CSV_FNV64: u64 = 9_446_544_010_687_990_159;
const ADVISE_JSON_FNV64: u64 = 17_629_845_990_632_794_526;

#[test]
fn dense_bandwidth_advise_bytes_are_pinned() {
    let cfg = TransformerConfig::tiny_llama_42m();
    let space = DesignSpace {
        topologies: vec![TopologySpec::PaperDefault, TopologySpec::Flat],
        placements: vec![PlacementPolicy::Auto, PlacementPolicy::ForceStreamed],
        chip_counts: vec![1, 2, 4, 8],
        link_bw_pcts: (10..=100).step_by(5).collect(),
    };
    let constraints = Constraints { max_latency_ms: Some(5.0), max_energy_mj: None };
    let advice = advise(&cfg, InferenceMode::Autoregressive, constraints, &space).unwrap();
    assert!(advice.recommended.is_some());
    assert_one_value_per_column(&advice.to_csv());
    assert_eq!(fnv1a64(advice.to_csv().as_bytes()), ADVISE_CSV_FNV64);
    assert_eq!(fnv1a64(advice.to_json().as_bytes()), ADVISE_JSON_FNV64);
}

/// A search whose every chip count is invalid writes the bare header and
/// an array with one empty line.
#[test]
fn empty_advise_tables_are_pinned() {
    let cfg = TransformerConfig::tiny_llama_42m();
    let space = DesignSpace {
        topologies: vec![TopologySpec::PaperDefault],
        placements: vec![PlacementPolicy::Auto],
        chip_counts: vec![3],
        link_bw_pcts: vec![100],
    };
    let constraints = Constraints { max_latency_ms: Some(5.0), max_energy_mj: None };
    let advice = advise(&cfg, InferenceMode::Autoregressive, constraints, &space).unwrap();
    assert!(advice.candidates.is_empty());
    assert_eq!(advice.to_csv(), format!("{ADVISE_CSV_HEADER}\n"));
    assert_eq!(advice.to_json(), "[\n\n]\n");
}
