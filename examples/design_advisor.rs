//! Design-space advisor walkthrough: which board design should a
//! smart-glasses integrator actually build?
//!
//! The advisor searches topology x placement x chip count x link
//! bandwidth for a model under real-time constraints, scores every
//! point with the closed-form symbolic makespan (DESIGN.md §15 — one
//! simulated warmup per schedule and timing class, then pure arithmetic),
//! and reports the Pareto frontier over (makespan, energy, chips) plus
//! the smallest feasible system.
//!
//! Run with: `cargo run --release --example design_advisor`

use mtp::harness::advisor::{advise, render, Constraints, DesignSpace};
use mtp::model::{InferenceMode, TransformerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = TransformerConfig::tiny_llama_42m();

    // A conversational token budget: 5 ms per autoregressive pass.
    let constraints = Constraints { max_latency_ms: Some(5.0), max_energy_mj: None };

    // The default space under an 8-chip budget, with a finer bandwidth
    // axis: every 5% from 10% to 100% of the paper's MIPI port.
    let mut space = DesignSpace::default_for(&cfg, 8);
    space.link_bw_pcts = (2..=20).map(|s| s * 5).collect();

    let advice = advise(&cfg, InferenceMode::Autoregressive, constraints, &space)?;
    print!("{}", render(&advice, &constraints));

    // The frontier table collapses bandwidth ranges that score
    // identically — the compute-bound side of the link/compute
    // crossover. How cheap can the link get before the 8-chip system
    // leaves its compute-bound plateau?
    let eight_chip_floor = advice
        .candidates
        .iter()
        .filter(|c| c.point.n_chips == 8 && c.feasible)
        .map(|c| c.point.link_bw_pct)
        .min();
    match eight_chip_floor {
        Some(pct) => println!(
            "\ncheapest feasible link for the 8-chip system: {pct}% of the paper's MIPI port"
        ),
        None => println!("\nno 8-chip design meets the constraints"),
    }
    println!(
        "({} design points, {} schedule compilations, {} simulated warmups)",
        advice.candidates.len(),
        advice.compiled,
        advice.warmups
    );
    Ok(())
}
