//! Seeded, replayable fault plans: chip fail-stop, transient stalls,
//! compute slowdowns, and link-degrade windows.
//!
//! A [`FaultPlan`] attaches to a [`Machine`](crate::Machine) via
//! [`Machine::with_faults`](crate::Machine::with_faults) and is consumed by
//! the executor: faults surface as typed outcomes
//! ([`SimError::ChipFailed`](crate::SimError::ChipFailed)) and per-chip
//! [`ChipStats`](crate::ChipStats) counters (stall cycles, slowdown cycles,
//! affected transfers) — never as hangs. The plan is either an explicit
//! event list or a deterministic SplitMix64-seeded draw, so every faulted
//! run is replayable bit-for-bit from `(plan, machine, programs)` alone.
//!
//! The periodic-extrapolation engine refuses to extrapolate whenever the
//! plan is non-empty (mirroring the
//! [`LinkRegime::contention_free`](crate::LinkRegime::contention_free)
//! gate): a fault pinned to an absolute cycle breaks the shift-invariance
//! the fixed-point proof rests on, so faulted workloads always run the
//! exact full simulation. See `DESIGN.md` §14.

use mtp_tensor::SplitMix64;

/// One injected fault. Cycle fields are absolute cycles on the affected
/// chip's local clock; faults take effect at instruction boundaries (the
/// executor never preempts an instruction mid-flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEvent {
    /// The chip stops executing permanently once its clock reaches `at`.
    /// Surfaced as [`SimError::ChipFailed`](crate::SimError::ChipFailed)
    /// — a typed error, never a hang — which the failover policies in
    /// `mtp-core` turn into restart or spare-chip replay.
    FailStop {
        /// The chip that fails.
        chip: usize,
        /// Local cycle at which it stops.
        at: u64,
    },
    /// The chip freezes for `cycles` once its clock reaches `at`, then
    /// resumes. Counted in
    /// [`ChipStats::fault_stall_cycles`](crate::ChipStats::fault_stall_cycles)
    /// and visible in the idle residual of the breakdown.
    Stall {
        /// The chip that stalls.
        chip: usize,
        /// Local cycle at which the stall begins.
        at: u64,
        /// Stall duration in cycles (must be positive).
        cycles: u64,
    },
    /// Kernels issued while `from <= t < from + cycles` run at
    /// `factor_pct` percent of their nominal duration (e.g. 150 = 1.5x
    /// slower; thermal throttling, DVFS dips). The surcharge is counted
    /// in [`ChipStats::fault_slow_cycles`](crate::ChipStats::fault_slow_cycles)
    /// as a sub-category of compute time.
    Slow {
        /// The chip that slows down.
        chip: usize,
        /// Local cycle at which the window opens.
        from: u64,
        /// Window length in cycles (must be positive).
        cycles: u64,
        /// Duration factor in percent of nominal (> 100).
        factor_pct: u32,
    },
    /// Sends issued by `chip` while `from <= t < from + cycles` take
    /// `factor_pct` percent of their nominal transfer time (link flap /
    /// degrade window). The surcharge is counted in
    /// [`ChipStats::fault_link_cycles`](crate::ChipStats::fault_link_cycles)
    /// as a sub-category of chip-to-chip time, and each stretched send
    /// increments
    /// [`ChipStats::fault_transfers_affected`](crate::ChipStats::fault_transfers_affected).
    Flap {
        /// The chip whose outgoing link degrades.
        chip: usize,
        /// Local cycle at which the window opens.
        from: u64,
        /// Window length in cycles (must be positive).
        cycles: u64,
        /// Duration factor in percent of nominal (> 100).
        factor_pct: u32,
    },
}

impl FaultEvent {
    /// Compact label in the sweep-output style: `fs2@40000`,
    /// `st0@1000x5000`, `sl1@0x9000p150`, `fl3@2000x4000p200`.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            FaultEvent::FailStop { chip, at } => format!("fs{chip}@{at}"),
            FaultEvent::Stall { chip, at, cycles } => format!("st{chip}@{at}x{cycles}"),
            FaultEvent::Slow { chip, from, cycles, factor_pct } => {
                format!("sl{chip}@{from}x{cycles}p{factor_pct}")
            }
            FaultEvent::Flap { chip, from, cycles, factor_pct } => {
                format!("fl{chip}@{from}x{cycles}p{factor_pct}")
            }
        }
    }
}

/// What kind of plan this is. Private: callers go through the
/// constructors so an empty event list and `none()` are the same value.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
enum PlanKind {
    /// No faults: simulation is bit-identical to a machine without a plan.
    #[default]
    None,
    /// An explicit, ordered event list.
    Explicit(Vec<FaultEvent>),
    /// `count` transient events (stall / slow / flap — never fail-stop,
    /// so seeded rows always complete) drawn deterministically from a
    /// SplitMix64 stream over `[0, horizon)` cycles.
    Seeded {
        /// SplitMix64 seed.
        seed: u64,
        /// Number of events to draw.
        count: u32,
        /// Event start times are drawn from `[0, horizon)`.
        horizon: u64,
    },
}

/// A deterministic, replayable fault plan for one simulation.
///
/// The default plan is empty and is guaranteed to leave simulation
/// bit-identical to a machine without any plan (`tests/fault_lockstep.rs`
/// locks this). Spellings parse and label in the established sweep-axis
/// style:
///
/// | spelling | meaning |
/// |---|---|
/// | `none` | empty plan |
/// | `failstop:CHIP:AT` | chip fail-stop at cycle `AT` |
/// | `stall:CHIP:AT:DUR` | chip freezes for `DUR` cycles at `AT` |
/// | `slow:CHIP:FROM:DUR:PCT` | kernels run at `PCT`% duration in window |
/// | `flap:CHIP:FROM:DUR:PCT` | sends take `PCT`% duration in window |
/// | `seeded:SEED:COUNT[:HORIZON]` | `COUNT` (at most [`MAX_SEEDED_FAULTS`]) seeded transient events |
///
/// Explicit events join with `+` (`failstop:2:40000+stall:0:0:5000`);
/// `seeded` stands alone.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    kind: PlanKind,
}

/// Default horizon (in cycles) for `seeded:SEED:COUNT` spellings that
/// omit one: 2 ms at the Siracusa clock.
pub const DEFAULT_SEEDED_HORIZON: u64 = 1_000_000;

/// Most events a `seeded:SEED:COUNT` spelling may ask for. Every
/// simulation under the plan materializes and scans its events, so the
/// budget bounds the time and memory one spelling can cost.
pub const MAX_SEEDED_FAULTS: u32 = 10_000;

impl FaultPlan {
    /// The empty plan (also [`FaultPlan::default`]).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan { kind: PlanKind::None }
    }

    /// A plan from an explicit event list; an empty list is the empty
    /// plan.
    #[must_use]
    pub fn explicit(events: Vec<FaultEvent>) -> Self {
        if events.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan { kind: PlanKind::Explicit(events) }
        }
    }

    /// A seeded plan of `count` transient events over `[0, horizon)`
    /// cycles; zero events (or a zero horizon) is the empty plan.
    #[must_use]
    pub fn seeded(seed: u64, count: u32, horizon: u64) -> Self {
        if count == 0 || horizon == 0 {
            FaultPlan::none()
        } else {
            FaultPlan { kind: PlanKind::Seeded { seed, count, horizon } }
        }
    }

    /// `true` for the empty plan — the executor's fault machinery is
    /// bypassed entirely and the periodic engine may extrapolate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kind == PlanKind::None
    }

    /// Compact human/CSV label: `none`, `fs2@40000+st0@0x5000`,
    /// `seed42c3h1000000`. Commas never appear, so the label is safe in
    /// one CSV field.
    #[must_use]
    pub fn label(&self) -> String {
        match &self.kind {
            PlanKind::None => "none".into(),
            PlanKind::Explicit(events) => {
                events.iter().map(FaultEvent::label).collect::<Vec<_>>().join("+")
            }
            PlanKind::Seeded { seed, count, horizon } => format!("seed{seed}c{count}h{horizon}"),
        }
    }

    /// Parse the sweep-axis spelling of a fault plan (see the type-level
    /// table).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown spellings, zero
    /// durations, slowdown factors at or below 100 percent, or a seeded
    /// COUNT above [`MAX_SEEDED_FAULTS`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec == "none" {
            return Ok(FaultPlan::none());
        }
        if let Some(rest) = spec.strip_prefix("seeded:") {
            if spec.contains('+') {
                return Err("seeded fault plans cannot combine with '+' events".into());
            }
            let parts: Vec<&str> = rest.split(':').collect();
            let (seed_s, count_s, horizon_s) = match parts.as_slice() {
                [s, c] => (*s, *c, None),
                [s, c, h] => (*s, *c, Some(*h)),
                _ => return Err(format!("seeded wants SEED:COUNT[:HORIZON], got '{spec}'")),
            };
            let seed = num(seed_s, "seeded SEED")?;
            let count = num::<u32>(count_s, "seeded COUNT")?;
            if count > MAX_SEEDED_FAULTS {
                return Err(format!(
                    "seeded COUNT {count} exceeds the budget of {MAX_SEEDED_FAULTS} events \
                     (MAX_SEEDED_FAULTS)"
                ));
            }
            let horizon = match horizon_s {
                Some(h) => {
                    let h = num(h, "seeded HORIZON")?;
                    if h == 0 {
                        return Err("seeded HORIZON must be positive".into());
                    }
                    h
                }
                None => DEFAULT_SEEDED_HORIZON,
            };
            return Ok(FaultPlan::seeded(seed, count, horizon));
        }
        let mut events = Vec::new();
        for part in spec.split('+') {
            events.push(parse_event(part)?);
        }
        Ok(FaultPlan::explicit(events))
    }

    /// Materializes the plan into explicit events for an `n_chips`-chip
    /// machine. Explicit events naming a chip outside the machine are
    /// dropped (the plan is machine-independent; a 2-chip plan applied to
    /// a 1-chip machine simply injects fewer faults). Seeded plans draw
    /// their chips modulo `n_chips`, so the same `(seed, count, horizon)`
    /// is deterministic per machine size.
    #[must_use]
    pub fn events_for(&self, n_chips: usize) -> Vec<FaultEvent> {
        match &self.kind {
            PlanKind::None => Vec::new(),
            PlanKind::Explicit(events) => {
                events.iter().copied().filter(|e| event_chip(e) < n_chips).collect()
            }
            PlanKind::Seeded { seed, count, horizon } => {
                if n_chips == 0 {
                    return Vec::new();
                }
                let mut rng = SplitMix64::new(*seed);
                let dur_cap = (horizon / 20).max(1);
                (0..*count)
                    .map(|_| {
                        let chip = (rng.next_u64() % n_chips as u64) as usize;
                        let kind = rng.next_u64() % 3;
                        let at = rng.next_u64() % horizon;
                        let cycles = 1 + rng.next_u64() % dur_cap;
                        // Drawn unconditionally so every event consumes a
                        // fixed-length slice of the stream regardless of
                        // its kind.
                        let factor_pct = 110 + 10 * (rng.next_u64() % 10) as u32;
                        match kind {
                            0 => FaultEvent::Stall { chip, at, cycles },
                            1 => FaultEvent::Slow { chip, from: at, cycles, factor_pct },
                            _ => FaultEvent::Flap { chip, from: at, cycles, factor_pct },
                        }
                    })
                    .collect()
            }
        }
    }
}

/// The chip an event targets.
fn event_chip(e: &FaultEvent) -> usize {
    match *e {
        FaultEvent::FailStop { chip, .. }
        | FaultEvent::Stall { chip, .. }
        | FaultEvent::Slow { chip, .. }
        | FaultEvent::Flap { chip, .. } => chip,
    }
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("{what} wants a number, got '{s}'"))
}

fn parse_event(part: &str) -> Result<FaultEvent, String> {
    let mut it = part.split(':');
    let head = it.next().unwrap_or("");
    let rest: Vec<&str> = it.collect();
    let window = |rest: &[&str], what: &str| -> Result<(usize, u64, u64, u32), String> {
        let [chip, from, dur, pct] = rest else {
            return Err(format!("{what} wants CHIP:FROM:DUR:PCT, got '{part}'"));
        };
        let dur = num::<u64>(dur, "window duration")?;
        if dur == 0 {
            return Err(format!("{what} duration must be positive"));
        }
        let pct = num::<u32>(pct, "duration factor")?;
        if pct <= 100 {
            return Err(format!(
                "{what} factor is percent of nominal duration and must exceed 100, got {pct}"
            ));
        }
        Ok((num(chip, "chip index")?, num(from, "window start")?, dur, pct))
    };
    match (head, rest.as_slice()) {
        ("failstop", [chip, at]) => Ok(FaultEvent::FailStop {
            chip: num(chip, "chip index")?,
            at: num(at, "fail-stop cycle")?,
        }),
        ("stall", [chip, at, dur]) => {
            let cycles = num::<u64>(dur, "stall duration")?;
            if cycles == 0 {
                return Err("stall duration must be positive".into());
            }
            Ok(FaultEvent::Stall {
                chip: num(chip, "chip index")?,
                at: num(at, "stall cycle")?,
                cycles,
            })
        }
        ("slow", _) => {
            let (chip, from, cycles, factor_pct) = window(&rest, "slow")?;
            Ok(FaultEvent::Slow { chip, from, cycles, factor_pct })
        }
        ("flap", _) => {
            let (chip, from, cycles, factor_pct) = window(&rest, "flap")?;
            Ok(FaultEvent::Flap { chip, from, cycles, factor_pct })
        }
        _ => Err(format!(
            "unknown fault event '{part}' (expected failstop:CHIP:AT, stall:CHIP:AT:DUR, \
             slow:CHIP:FROM:DUR:PCT, flap:CHIP:FROM:DUR:PCT, or seeded:SEED:COUNT[:HORIZON])"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_count_has_a_budget() {
        let at_budget = FaultPlan::parse(&format!("seeded:1:{MAX_SEEDED_FAULTS}")).unwrap();
        assert_eq!(at_budget.events_for(2).len(), MAX_SEEDED_FAULTS as usize);
        assert_eq!(
            FaultPlan::parse("seeded:1:10001"),
            Err("seeded COUNT 10001 exceeds the budget of 10000 events (MAX_SEEDED_FAULTS)".into())
        );
    }

    #[test]
    fn default_is_empty_and_labeled_none() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.label(), "none");
        assert_eq!(plan, FaultPlan::none());
        assert!(plan.events_for(8).is_empty());
    }

    #[test]
    fn empty_constructions_normalize_to_none() {
        assert!(FaultPlan::explicit(Vec::new()).is_empty());
        assert!(FaultPlan::seeded(42, 0, 1000).is_empty());
        assert!(FaultPlan::seeded(42, 3, 0).is_empty());
    }

    #[test]
    fn parse_round_trips_through_labels() {
        for (spec, label) in [
            ("none", "none"),
            ("failstop:2:40000", "fs2@40000"),
            ("stall:0:1000:5000", "st0@1000x5000"),
            ("slow:1:0:9000:150", "sl1@0x9000p150"),
            ("flap:3:2000:4000:200", "fl3@2000x4000p200"),
            ("failstop:2:40000+stall:0:0:5000", "fs2@40000+st0@0x5000"),
            ("seeded:42:3", "seed42c3h1000000"),
            ("seeded:42:3:500000", "seed42c3h500000"),
        ] {
            assert_eq!(FaultPlan::parse(spec).unwrap().label(), label, "{spec}");
        }
    }

    #[test]
    fn parse_rejects_bad_spellings() {
        for bad in [
            "",
            "fail",
            "failstop:2",
            "failstop:x:1",
            "stall:0:0:0",
            "slow:1:0:9000:100",
            "slow:1:0:0:150",
            "flap:1:0:100",
            "seeded:42",
            "seeded:42:3:0",
            "seeded:42:3+stall:0:0:5",
            "none+stall:0:0:5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn seeded_events_are_deterministic_and_in_bounds() {
        let plan = FaultPlan::seeded(42, 16, 100_000);
        let a = plan.events_for(4);
        let b = plan.events_for(4);
        assert_eq!(a, b, "same seed, same machine size => same events");
        assert_eq!(a.len(), 16);
        for e in &a {
            assert!(event_chip(e) < 4);
            match *e {
                FaultEvent::FailStop { .. } => panic!("seeded plans never fail-stop"),
                FaultEvent::Stall { at, cycles, .. } => {
                    assert!(at < 100_000 && cycles > 0);
                }
                FaultEvent::Slow { from, cycles, factor_pct, .. }
                | FaultEvent::Flap { from, cycles, factor_pct, .. } => {
                    assert!(from < 100_000 && cycles > 0);
                    assert!((101..=200).contains(&factor_pct));
                }
            }
        }
        assert_ne!(a, FaultPlan::seeded(43, 16, 100_000).events_for(4), "seed changes the draw");
    }

    #[test]
    fn explicit_events_outside_the_machine_are_dropped() {
        let plan = FaultPlan::parse("failstop:5:100+stall:0:0:10").unwrap();
        let events = plan.events_for(2);
        assert_eq!(events, vec![FaultEvent::Stall { chip: 0, at: 0, cycles: 10 }]);
        assert_eq!(plan.events_for(8).len(), 2);
    }

    #[test]
    fn zero_chip_machine_gets_no_events() {
        assert!(FaultPlan::seeded(7, 4, 1000).events_for(0).is_empty());
    }
}
