//! Failover: what the distributed system does when a chip fail-stops
//! mid-run.
//!
//! The executor reports a fail-stop as the typed error
//! [`mtp_sim::SimError::ChipFailed`] — never a hang, never a silent
//! wrong answer. This module decides what happens next. [`FailPolicy`]
//! names the three responses a real deployment has:
//!
//! - **abort** — no spare hardware: the job dies and the error
//!   propagates (the sweep engine maps it to a skip-with-reason row);
//! - **restart** — repair-and-restart: the whole job re-runs from
//!   scratch once the failure is detected, paying the detection time as
//!   lost wall-clock;
//! - **spare** — a homogeneous spare chip takes over: the block
//!   template is re-instantiated on the spare and the run replays from
//!   the last *completed* block boundary, losing only the block in
//!   flight.
//!
//! Both recovery paths charge the lost cycles to the failed chip's
//! [`fault_downtime_cycles`](mtp_sim::ChipStats::fault_downtime_cycles)
//! counter, so a report always accounts for where the wall-clock went.
//! Replays run fault-free: the fail-stop is consumed by the repair, and
//! the plan's transient events are pinned to absolute cycles of the
//! aborted epoch (see `DESIGN.md` §14).

use crate::schedule::CompiledSchedule;
use crate::{CoreError, Result, SystemReport};
use mtp_sim::{ChipSpec, ChipStats, FaultPlan, Machine, RunStats, SimError};

/// Response to a chip fail-stop surfaced during a faulted simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FailPolicy {
    /// No spare, no retry: the typed error propagates
    /// ([`CoreError::Sim`] wrapping [`SimError::ChipFailed`]).
    #[default]
    Abort,
    /// Repair-and-restart: the whole job replays from scratch on the
    /// repaired fleet. Wall-clock pays the full detection time `at`
    /// (every cycle up to the failure is lost work), charged to the
    /// failed chip as downtime.
    Restart,
    /// A homogeneous spare chip takes over: the block template is
    /// re-instantiated on the spare and the run replays from the last
    /// completed block boundary. Only the block in flight is lost;
    /// its cycles are charged to the failed chip as downtime.
    SpareChip,
}

impl FailPolicy {
    /// Parses a CLI spelling: `abort`, `restart`, or `spare`.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending spelling.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "abort" => Ok(FailPolicy::Abort),
            "restart" => Ok(FailPolicy::Restart),
            "spare" => Ok(FailPolicy::SpareChip),
            other => {
                Err(format!("unknown fail policy `{other}` (expected abort, restart, or spare)"))
            }
        }
    }

    /// Compact label for CSV/JSON rows: `abort`, `restart`, `spare`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FailPolicy::Abort => "abort",
            FailPolicy::Restart => "restart",
            FailPolicy::SpareChip => "spare",
        }
    }
}

impl CompiledSchedule {
    /// [`CompiledSchedule::simulate`] under a fault plan: the machine
    /// runs with `faults` injected, transient faults (stall / slowdown /
    /// link-degrade) surface in the per-chip fault counters, and a
    /// fail-stop triggers the failover `policy`.
    ///
    /// An empty plan takes exactly the fault-free path — bit-identical
    /// results, locked by `tests/fault_lockstep.rs`.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; a fail-stop under
    /// [`FailPolicy::Abort`] surfaces as [`CoreError::Sim`] wrapping
    /// [`SimError::ChipFailed`]; `n_blocks` must be at least 1.
    pub fn simulate_faulted(
        &self,
        chip: &ChipSpec,
        n_blocks: usize,
        faults: &FaultPlan,
        policy: FailPolicy,
    ) -> Result<SystemReport> {
        if n_blocks == 0 {
            return Err(CoreError::InvalidConfig("n_blocks must be at least 1".into()));
        }
        if faults.is_empty() {
            return self.simulate(chip, n_blocks);
        }
        let machine = Machine::homogeneous(*chip, self.n_chips()).with_faults(faults.clone());
        match machine.run_periodic_lowered(self.lowered(), n_blocks) {
            Ok(stats) => Ok(self.faulted_report(chip, n_blocks, stats)),
            Err(SimError::ChipFailed { chip: failed, at }) => {
                self.fail_over(chip, n_blocks, policy, failed.0, at)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Applies `policy` after chip `failed` fail-stopped at cycle `at`.
    fn fail_over(
        &self,
        chip: &ChipSpec,
        n_blocks: usize,
        policy: FailPolicy,
        failed: usize,
        at: u64,
    ) -> Result<SystemReport> {
        let healthy = Machine::homogeneous(*chip, self.n_chips());
        let template = self.lowered();
        match policy {
            FailPolicy::Abort => {
                Err(CoreError::Sim(SimError::ChipFailed { chip: mtp_sim::ChipId(failed), at }))
            }
            FailPolicy::Restart => {
                let mut stats = healthy.run_periodic_lowered(template, n_blocks)?;
                for c in &mut stats.per_chip {
                    c.finish_cycles += at;
                }
                stats.makespan += at;
                stats.per_chip[failed].fault_downtime_cycles += at;
                Ok(self.faulted_report(chip, n_blocks, stats))
            }
            FailPolicy::SpareChip => {
                // The last completed block boundary, estimated against
                // the fault-free per-block makespan (transient faults
                // can only stretch the timeline, so this never counts a
                // block the fleet had not finished *starting*; the
                // block in flight is lost either way).
                let per_block = healthy.run_periodic_lowered(template, 1)?.makespan.max(1);
                let completed =
                    usize::try_from(at / per_block).unwrap_or(usize::MAX).min(n_blocks - 1);
                let remaining = n_blocks - completed;
                let mut stats = if completed > 0 {
                    healthy.run_periodic_lowered(template, completed)?
                } else {
                    RunStats {
                        makespan: 0,
                        per_chip: vec![ChipStats::default(); self.n_chips()],
                        sync_phases: 0,
                    }
                };
                let replay = healthy.run_periodic_lowered(template, remaining)?;
                for (into, from) in stats.per_chip.iter_mut().zip(&replay.per_chip) {
                    into.accumulate(from);
                    into.finish_cycles = at + from.finish_cycles;
                }
                stats.sync_phases += replay.sync_phases;
                stats.makespan = at + replay.makespan;
                stats.per_chip[failed].fault_downtime_cycles +=
                    at.saturating_sub(completed as u64 * per_block);
                Ok(self.faulted_report(chip, n_blocks, stats))
            }
        }
    }

    fn faulted_report(&self, chip: &ChipSpec, n_blocks: usize, stats: RunStats) -> SystemReport {
        crate::report::from_stats(
            chip,
            self.n_chips(),
            self.mode(),
            n_blocks,
            self.residency(),
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistributedSystem;
    use mtp_model::{InferenceMode, TransformerConfig};

    fn sys(n: usize) -> DistributedSystem {
        DistributedSystem::paper_default(TransformerConfig::tiny_llama_42m(), n).unwrap()
    }

    /// The system's block schedule in `mode`, compiled as the sweep
    /// engine compiles it.
    fn compiled(sys: &DistributedSystem, mode: InferenceMode) -> CompiledSchedule {
        CompiledSchedule::compile(sys.config(), sys.n_chips(), sys.chip(), None, mode).unwrap()
    }

    #[test]
    fn policy_parse_round_trips() {
        for (spec, policy) in [
            ("abort", FailPolicy::Abort),
            ("restart", FailPolicy::Restart),
            ("spare", FailPolicy::SpareChip),
        ] {
            assert_eq!(FailPolicy::parse(spec), Ok(policy));
            assert_eq!(policy.label(), spec);
        }
        assert!(FailPolicy::parse("hope").is_err());
        assert_eq!(FailPolicy::default(), FailPolicy::Abort);
    }

    #[test]
    fn empty_plan_is_bit_identical_to_the_fault_free_path() {
        let sys = sys(4);
        let mode = InferenceMode::Autoregressive;
        let c = compiled(&sys, mode);
        let plain = sys.simulate_blocks(mode, 12).unwrap();
        for policy in [FailPolicy::Abort, FailPolicy::Restart, FailPolicy::SpareChip] {
            let faulted = c.simulate_faulted(sys.chip(), 12, &FaultPlan::none(), policy).unwrap();
            assert_eq!(faulted.stats, plain.stats);
        }
    }

    #[test]
    fn transient_faults_recover_without_failover() {
        let sys = sys(4);
        let mode = InferenceMode::Autoregressive;
        let c = compiled(&sys, mode);
        let plan = FaultPlan::parse("stall:0:10000:5000+slow:1:0:50000:150").unwrap();
        let plain = sys.simulate_blocks(mode, 8).unwrap();
        let faulted = c.simulate_faulted(sys.chip(), 8, &plan, FailPolicy::Abort).unwrap();
        assert!(faulted.stats.makespan > plain.stats.makespan);
        assert!(faulted.stats.total_fault_stall_cycles() > 0);
        assert_eq!(faulted.stats.total_downtime_cycles(), 0);
    }

    #[test]
    fn abort_surfaces_the_typed_fail_stop() {
        let sys = sys(4);
        let plan = FaultPlan::parse("failstop:2:50000").unwrap();
        let err = compiled(&sys, InferenceMode::Autoregressive)
            .simulate_faulted(sys.chip(), 64, &plan, FailPolicy::Abort)
            .unwrap_err();
        match err {
            CoreError::Sim(SimError::ChipFailed { chip, at }) => {
                assert_eq!(chip.0, 2);
                assert_eq!(at, 50_000);
            }
            other => panic!("expected ChipFailed, got {other}"),
        }
    }

    #[test]
    fn restart_pays_the_detection_time_as_downtime() {
        let sys = sys(4);
        let mode = InferenceMode::Autoregressive;
        let c = compiled(&sys, mode);
        let plan = FaultPlan::parse("failstop:1:80000").unwrap();
        let plain = sys.simulate_blocks(mode, 64).unwrap();
        let restarted = c.simulate_faulted(sys.chip(), 64, &plan, FailPolicy::Restart).unwrap();
        let at = match c.simulate_faulted(sys.chip(), 64, &plan, FailPolicy::Abort) {
            Err(CoreError::Sim(SimError::ChipFailed { at, .. })) => at,
            other => panic!("expected a fail-stop, got {other:?}"),
        };
        assert_eq!(restarted.stats.makespan, plain.stats.makespan + at);
        assert_eq!(restarted.stats.total_downtime_cycles(), at);
        assert_eq!(restarted.stats.per_chip[1].fault_downtime_cycles, at);
    }

    #[test]
    fn spare_chip_loses_only_the_block_in_flight() {
        let sys = sys(4);
        let mode = InferenceMode::Autoregressive;
        let c = compiled(&sys, mode);
        let n_blocks = 64usize;
        let plain = sys.simulate_blocks(mode, n_blocks).unwrap();
        // Fail mid-run so a healthy prefix of blocks exists to keep.
        let plan = FaultPlan::explicit(vec![mtp_sim::FaultEvent::FailStop {
            chip: 0,
            at: plain.stats.makespan / 2,
        }]);
        let restarted =
            c.simulate_faulted(sys.chip(), n_blocks, &plan, FailPolicy::Restart).unwrap();
        let spared =
            c.simulate_faulted(sys.chip(), n_blocks, &plan, FailPolicy::SpareChip).unwrap();
        // Replaying only the remaining blocks beats restarting from
        // scratch, and both recoveries cost at least the plain run.
        assert!(spared.stats.makespan < restarted.stats.makespan);
        assert!(spared.stats.makespan >= plain.stats.makespan);
        // The spare loses at most one block boundary's worth of work.
        let per_block = sys.simulate_blocks(mode, 1).unwrap().stats.makespan;
        assert!(spared.stats.total_downtime_cycles() <= per_block);
        assert_eq!(
            spared.stats.total_downtime_cycles(),
            spared.stats.per_chip[0].fault_downtime_cycles
        );
    }

    #[test]
    fn failover_is_deterministic() {
        let sys = sys(4);
        let mode = InferenceMode::Autoregressive;
        let c = compiled(&sys, mode);
        let plan = FaultPlan::parse("failstop:3:123456+stall:0:1000:2000").unwrap();
        for policy in [FailPolicy::Restart, FailPolicy::SpareChip] {
            let a = c.simulate_faulted(sys.chip(), 48, &plan, policy).unwrap();
            let b = c.simulate_faulted(sys.chip(), 48, &plan, policy).unwrap();
            assert_eq!(a.stats, b.stats);
        }
    }
}
