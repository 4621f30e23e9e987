//! Open-loop serving: continuous batching of arriving requests with
//! per-request latency accounting.
//!
//! PR 5's batch path answers "how fast does a *saturated* batch run?";
//! this module answers the serving question the roadmap's
//! "millions of users" axis actually needs: requests arrive on their own
//! clock ([`mtp_model::ServeWorkload`]), join the fleet's batch when a
//! slot frees up, decode token by token, and leave — and what we measure
//! is each request's time-to-first-token and time-per-output-token, not
//! one makespan.
//!
//! The engine is *iteration-level*: the unit of simulated time is one
//! full model pass over every active slot (the granularity real
//! continuous-batching servers schedule at). A pass is `n_layers` blocks
//! over the slots' `(mode, billed context)` shapes, which is exactly what
//! [`crate::DistributedSystem::simulate_batch`] runs for a batch: both
//! call one slot path (`DistributedSystem::run_slots`). A
//! **uniform** pass (every slot the same shape) is `n_layers x slots`
//! blocks of one slot's template, so the saturated-arrival limit
//! reproduces the batch path bit for bit, by construction; a **mixed**
//! pass (slots in different phases, or per-request billing diverging)
//! concatenates the slots' one-block templates into one interleaved
//! block with disjoint identifier ranges and repeats it `n_layers` times.
//! The periodic engine proves the fixed point or falls back to the exact
//! full run by itself.
//!
//! The slot templates and the pass makespans live in the system's
//! serving memo, shared by every serving run on the system and on its
//! clones, and by its block spans and batches: a pass makespan depends
//! only on the system and the pass's ordered slot shapes, never on the
//! workload, policy, billing or fault profile that produced them.
//!
//! Billing is the context length a decode slot pays attention over:
//! [`Billing::FullContext`] charges the model's full `seq_len` every step
//! (PR 5's steady-state convention), [`Billing::PerRequest`] charges
//! `prompt_len + decoded` — the KV positions the request has actually
//! filled — which is what makes short requests cheap and the SLO cliff
//! move with load. See `DESIGN.md` §12 for the slot lifecycle and the
//! latency definitions, and `tests/serving_lockstep.rs` for the proof
//! suite.

use std::sync::Arc;

use crate::memo::Memo;
use crate::schedule::CompiledSchedule;
use crate::{CoreError, DistributedSystem, Result};
use mtp_model::{InferenceMode, ServeWorkload};

/// How arriving requests are admitted into the fleet's batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchPolicy {
    /// Gang scheduling: wait until the current batch fully drains, then
    /// admit up to `batch` arrived requests as the next gang. The
    /// classic static-batching server.
    Static {
        /// Maximum requests per gang (at least 1).
        batch: usize,
    },
    /// Continuous batching: at every pass boundary, fill any free slot
    /// (up to `max_slots`) with the oldest arrived request — requests
    /// join and leave mid-flight.
    Continuous {
        /// Maximum concurrently active requests (at least 1).
        max_slots: usize,
    },
}

impl BatchPolicy {
    /// Parses a CLI spelling: `static:BATCH` or `continuous:SLOTS`.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        if let Some(b) = s.strip_prefix("static:") {
            let batch = b
                .parse()
                .ok()
                .filter(|&v| v > 0)
                .ok_or_else(|| format!("bad batch size `{b}` (need a positive integer)"))?;
            return Ok(BatchPolicy::Static { batch });
        }
        if let Some(m) = s.strip_prefix("continuous:") {
            let max_slots = m
                .parse()
                .ok()
                .filter(|&v| v > 0)
                .ok_or_else(|| format!("bad slot count `{m}` (need a positive integer)"))?;
            return Ok(BatchPolicy::Continuous { max_slots });
        }
        Err(format!("unknown batch policy `{s}` (expected static:BATCH or continuous:SLOTS)"))
    }

    /// Compact label for CSV/JSON rows: `static4`, `cont8`.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            BatchPolicy::Static { batch } => format!("static{batch}"),
            BatchPolicy::Continuous { max_slots } => format!("cont{max_slots}"),
        }
    }

    /// The concurrency cap the policy enforces.
    #[must_use]
    pub fn max_slots(&self) -> usize {
        match *self {
            BatchPolicy::Static { batch } => batch,
            BatchPolicy::Continuous { max_slots } => max_slots,
        }
    }
}

/// The context length a decode step is billed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Billing {
    /// Every decode step attends over the model's full `seq_len` — the
    /// saturated steady-state convention of the batch path (PR 5), and
    /// the setting under which serving reproduces it bit for bit.
    FullContext,
    /// A decode step attends over `prompt_len + decoded` positions — the
    /// KV entries the request has actually written (capped at
    /// `seq_len`). Early tokens are cheaper than late ones.
    PerRequest,
}

impl Billing {
    /// Parses a CLI spelling: `full` or `per-request`.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending spelling.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "full" => Ok(Billing::FullContext),
            "per-request" => Ok(Billing::PerRequest),
            other => Err(format!("unknown billing model `{other}` (expected full or per-request)")),
        }
    }

    /// Compact label for CSV/JSON rows: `full`, `perreq`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Billing::FullContext => "full",
            Billing::PerRequest => "perreq",
        }
    }
}

/// Base of the seeded exponential retry backoff: a retried request
/// rejoins the queue `RETRY_BACKOFF_BASE << attempt` cycles after its
/// failure was detected (131 µs at 500 MHz for the first retry).
pub const RETRY_BACKOFF_BASE: u64 = 65_536;

/// Most retries one [`FaultProfile`] may grant a request: every retry is
/// a full re-run of the request, so the budget bounds a serving run's
/// time.
pub const MAX_SERVE_RETRIES: u32 = 100;

/// Request-level robustness knobs for a faulted serving run: transient
/// completion failures with seeded retry, per-request timeouts, and
/// admission-queue load shedding.
///
/// The empty profile ([`FaultProfile::none`]) disables all three and
/// takes exactly the fault-free serving path — bit-identical reports,
/// locked by `tests/fault_lockstep.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultProfile {
    /// Per-mille probability that a request's attempt fails at
    /// completion and must be retried (0 = never; at most 1000). Draws
    /// are a seeded hash of `(seed, request, attempt)` — deterministic
    /// and process-independent.
    pub fail_per_mille: u32,
    /// Retries granted after the first attempt; a request whose budget
    /// is exhausted reports [`RequestOutcome::Failed`].
    pub max_retries: u32,
    /// Per-request deadline in kilocycles from *arrival* (0 = none).
    /// Checked at pass boundaries — for queued requests when they reach
    /// the head of the admission queue, for active requests when a pass
    /// completes — and reported as [`RequestOutcome::TimedOut`].
    pub timeout_kcycles: u64,
    /// Admission-queue capacity: arrived-but-unadmitted requests beyond
    /// this are shed newest-first at each pass boundary
    /// ([`RequestOutcome::Shed`]). `usize::MAX` disables shedding.
    pub queue_cap: usize,
}

impl FaultProfile {
    /// The empty profile: no failures, no timeouts, no shedding.
    #[must_use]
    pub fn none() -> Self {
        FaultProfile {
            fail_per_mille: 0,
            max_retries: 0,
            timeout_kcycles: 0,
            queue_cap: usize::MAX,
        }
    }

    /// Whether this profile changes anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fail_per_mille == 0 && self.timeout_kcycles == 0 && self.queue_cap == usize::MAX
    }

    /// Parses a CLI spelling: `none`, or
    /// `fail:PERMILLE[:RETRIES[:TIMEOUT_KCYC[:QCAP]]]` with defaults
    /// `RETRIES=3`, `TIMEOUT_KCYC=0` (no deadline), `QCAP=64`.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field, including a retry
    /// count above [`MAX_SERVE_RETRIES`].
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        if s == "none" {
            return Ok(FaultProfile::none());
        }
        let Some(rest) = s.strip_prefix("fail:") else {
            return Err(format!(
                "unknown fault profile `{s}` (expected none or fail:PERMILLE[:RETRIES[:TIMEOUT_KCYC[:QCAP]]])"
            ));
        };
        let fields: Vec<&str> = rest.split(':').collect();
        if fields.len() > 4 {
            return Err(format!("too many fields in fault profile `{s}`"));
        }
        let fail_per_mille: u32 =
            fields[0].parse().ok().filter(|&v| v <= 1000).ok_or_else(|| {
                format!("bad failure rate `{}` (need 0..=1000 per mille)", fields[0])
            })?;
        let max_retries: u32 = match fields.get(1) {
            None => 3,
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad retry count `{v}` (need a non-negative integer)"))?,
        };
        if max_retries > MAX_SERVE_RETRIES {
            return Err(format!(
                "retry count {max_retries} exceeds the budget of {MAX_SERVE_RETRIES} retries \
                 (MAX_SERVE_RETRIES)"
            ));
        }
        let timeout_kcycles: u64 = match fields.get(2) {
            None => 0,
            Some(v) => {
                v.parse().map_err(|_| format!("bad timeout `{v}` (need kilocycles, 0 for none)"))?
            }
        };
        let queue_cap: usize = match fields.get(3) {
            None => 64,
            Some(v) => v
                .parse()
                .ok()
                .filter(|&c| c > 0)
                .ok_or_else(|| format!("bad queue capacity `{v}` (need a positive integer)"))?,
        };
        let profile = FaultProfile { fail_per_mille, max_retries, timeout_kcycles, queue_cap };
        Ok(if profile.fail_per_mille == 0 && profile.timeout_kcycles == 0 {
            // A profile that cannot fail or expire anything only sheds
            // under a queue it cannot fill faster than it drains;
            // normalize the no-op spelling so labels stay canonical.
            if profile.queue_cap == usize::MAX {
                FaultProfile::none()
            } else {
                profile
            }
        } else {
            profile
        })
    }

    /// Compact label for CSV/JSON rows: `none`, `f25r3q64`,
    /// `f100r2t500q64`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.is_empty() {
            return "none".to_owned();
        }
        let mut out = format!("f{}r{}", self.fail_per_mille, self.max_retries);
        if self.timeout_kcycles > 0 {
            out.push_str(&format!("t{}", self.timeout_kcycles));
        }
        if self.queue_cap != usize::MAX {
            out.push_str(&format!("q{}", self.queue_cap));
        }
        out
    }
}

/// How a request's service ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RequestOutcome {
    /// All tokens served.
    #[default]
    Completed,
    /// Every attempt's completion draw failed and the retry budget ran
    /// out.
    Failed,
    /// The per-request deadline expired before service finished.
    TimedOut,
    /// Shed by admission control: the arrival queue was over capacity.
    Shed,
}

/// What a slot is doing during one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotPhase {
    /// Processing the request's whole prompt (and, when the request
    /// decodes at all, emitting its first output token).
    Prefill,
    /// One autoregressive decode step: one token in, one out.
    Decode,
}

/// Per-request latency record, all in simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestLatency {
    /// Cycle the request arrived at the fleet.
    pub arrival: u64,
    /// Cycle the request was admitted into a batch slot.
    pub admitted: u64,
    /// Cycle the first output token left the model (end of the prefill
    /// pass; equals `finish` for prefill-only requests).
    pub first_token: u64,
    /// Cycle the last output token left the model.
    pub finish: u64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Decoded tokens.
    pub decode_len: usize,
    /// How service ended ([`RequestOutcome::Completed`] on fault-free
    /// runs).
    pub outcome: RequestOutcome,
    /// Retries this request consumed (0 on fault-free runs). The
    /// latency clock always starts at the *original* arrival — retries
    /// lengthen TTFT, they never reset it.
    pub retries: u32,
}

impl RequestLatency {
    /// Time to first token: queueing delay plus prefill.
    #[must_use]
    pub fn ttft(&self) -> u64 {
        self.first_token - self.arrival
    }

    /// Mean time per output token after the first (0 for requests that
    /// decode at most one token — there is no inter-token gap to
    /// average).
    #[must_use]
    pub fn tpot(&self) -> u64 {
        if self.decode_len >= 2 {
            (self.finish - self.first_token) / (self.decode_len as u64 - 1)
        } else {
            0
        }
    }

    /// End-to-end latency from arrival to last token.
    #[must_use]
    pub fn e2e(&self) -> u64 {
        self.finish - self.arrival
    }
}

/// One model pass over the active slots: when it ran, how long it took,
/// and which request occupied each slot in what phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// Cycle the pass started.
    pub start: u64,
    /// Pass makespan in cycles.
    pub cycles: u64,
    /// `(request index, phase)` per active slot, in slot order.
    pub slots: Vec<(usize, SlotPhase)>,
}

/// The outcome of one open-loop serving simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Per-request latency records, in workload (arrival) order.
    pub requests: Vec<RequestLatency>,
    /// Every executed pass, in time order — the full slot-membership
    /// trace the KV-isolation proof replays.
    pub passes: Vec<PassRecord>,
    /// Cycle the last request finished.
    pub makespan: u64,
    /// Chips in the fleet.
    pub n_chips: usize,
    /// Total retries across all requests (0 on fault-free runs).
    pub retries: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Requests that hit their per-request deadline.
    pub timeouts: u64,
    /// Requests whose retry budget ran out.
    pub failed: u64,
}

impl ServeReport {
    /// The largest number of concurrently active slots any pass saw.
    #[must_use]
    pub fn peak_concurrency(&self) -> usize {
        self.passes.iter().map(|p| p.slots.len()).max().unwrap_or(0)
    }

    /// Requests that completed all their tokens.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.requests.iter().filter(|r| r.outcome == RequestOutcome::Completed).count()
    }

    /// Fraction of requests served to completion (1.0 on fault-free
    /// runs; the degraded-mode headline number).
    ///
    /// A zero-request run has no availability: `0/0` is not "perfectly
    /// available" (a config that sheds its whole queue before admission
    /// must not score 1.0), so the empty case is `None` and sinks render
    /// it explicitly (empty CSV field, JSON `null`, `-` in tables).
    #[must_use]
    pub fn availability(&self) -> Option<f64> {
        if self.requests.is_empty() {
            return None;
        }
        Some(self.completed() as f64 / self.requests.len() as f64)
    }
}

/// A request currently holding a batch slot.
struct Slot {
    req: usize,
    /// Output tokens emitted so far.
    emitted: usize,
    prefilled: bool,
    /// 0 for the first attempt, incremented per retry.
    attempt: u32,
}

/// Closes a request's latency record with a degraded outcome. The
/// latency clock still runs from the original arrival; a request that
/// never produced a token gets `first_token = finish` so TTFT degrades
/// to its queue-plus-service time instead of underflowing.
fn finalize(lat: &mut RequestLatency, outcome: RequestOutcome, attempt: u32, t: u64) {
    lat.outcome = outcome;
    lat.retries = attempt;
    lat.finish = t;
    if lat.first_token == 0 {
        lat.first_token = t;
    }
}

/// Seeded transient-failure draw for `(request, attempt)`: a SplitMix64
/// finalizer over the mixed inputs, so two processes (and two attempts)
/// agree bit for bit without sharing any RNG state.
fn fail_draw(seed: u64, req: usize, attempt: u32, per_mille: u32) -> bool {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    x = x.wrapping_add((req as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x = x.wrapping_add((u64::from(attempt) + 1).wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % 1000) < u64::from(per_mille)
}

/// The `(mode, billed context)` shape one slot contributes to the
/// current pass: prefill slots process their whole prompt in prompt
/// mode; decode slots take one autoregressive step billed at the chosen
/// context length.
fn slot_shape(
    spec: &mtp_model::ServeRequest,
    slot: &Slot,
    billing: Billing,
    seq_len: usize,
) -> SlotShape {
    if slot.prefilled {
        let billed = match billing {
            Billing::FullContext => seq_len,
            Billing::PerRequest => (spec.prompt_len + slot.emitted).min(seq_len),
        };
        (InferenceMode::Autoregressive, billed)
    } else {
        (InferenceMode::Prompt, spec.prompt_len)
    }
}

impl DistributedSystem {
    /// Serves an open-loop workload under the given admission policy and
    /// billing model, one iteration-level pass at a time, and returns
    /// per-request latencies plus the full pass trace.
    ///
    /// Deterministic: the workload fixes the arrivals, admission is
    /// oldest-first, and every pass makespan comes from the same
    /// deterministic simulators the batch path uses. In the saturated
    /// limit (all requests pre-arrived, [`BatchPolicy::Static`] with the
    /// batch size equal to the request count,
    /// [`Billing::FullContext`]) the pass sequence is one uniform prefill
    /// pass plus `decode_len - 1` uniform decode passes whose makespans
    /// are exactly [`DistributedSystem::simulate_batch`]'s — the
    /// serving-lockstep suite pins this bit for bit.
    ///
    /// # Errors
    ///
    /// Rejects workloads exceeding the model's KV capacity and
    /// propagates partitioning and simulation errors.
    pub fn simulate_serve(
        &self,
        workload: &ServeWorkload,
        policy: BatchPolicy,
        billing: Billing,
    ) -> Result<ServeReport> {
        self.simulate_serve_faulted(workload, policy, billing, &FaultProfile::none(), 0)
    }

    /// [`DistributedSystem::simulate_serve`] under a request-level
    /// [`FaultProfile`]: attempts can fail at completion (seeded by
    /// `seed`, retried with exponential backoff up to the profile's
    /// budget), requests can expire against a deadline, and admission
    /// control sheds the newest arrivals when the queue overflows. Every
    /// non-completed request still gets a latency record, tagged with
    /// its [`RequestOutcome`]; the report's `retries`/`sheds`/
    /// `timeouts`/`failed` counters and
    /// [`ServeReport::availability`] summarize the degradation.
    ///
    /// The empty profile takes exactly the fault-free path (bit-identical
    /// to [`DistributedSystem::simulate_serve`], whatever the seed), and
    /// a fixed `(profile, seed)` pair is deterministic across processes —
    /// both locked by `tests/fault_lockstep.rs`.
    ///
    /// # Errors
    ///
    /// Rejects workloads exceeding the model's KV capacity and
    /// propagates partitioning and simulation errors;
    /// [`CoreError::ServeClockOverflow`] when a pass end or a retry's
    /// ready time does not fit the `u64` serving clock.
    pub fn simulate_serve_faulted(
        &self,
        workload: &ServeWorkload,
        policy: BatchPolicy,
        billing: Billing,
        profile: &FaultProfile,
        seed: u64,
    ) -> Result<ServeReport> {
        workload.validate_for(self.config()).map_err(CoreError::InvalidConfig)?;
        let requests = workload.requests();
        let timeout = profile.timeout_kcycles.saturating_mul(1000);
        // Admission queue: `(request, attempt, ready cycle)`, FIFO.
        // Retries rejoin at the back with a backed-off ready cycle.
        let mut pending: std::collections::VecDeque<(usize, u32, u64)> =
            (0..requests.len()).map(|i| (i, 0, requests[i].arrival_cycles)).collect();
        let mut active: Vec<Slot> = Vec::new();
        let mut latencies: Vec<RequestLatency> = requests
            .iter()
            .map(|r| RequestLatency {
                arrival: r.arrival_cycles,
                admitted: 0,
                first_token: 0,
                finish: 0,
                prompt_len: r.prompt_len,
                decode_len: r.decode_len,
                outcome: RequestOutcome::Completed,
                retries: 0,
            })
            .collect();
        let mut passes: Vec<PassRecord> = Vec::new();
        let (mut retries, mut sheds, mut timeouts, mut failed) = (0u64, 0u64, 0u64, 0u64);
        let mut requeue: Vec<(usize, u32, u64)> = Vec::new();
        let mut t: u64 = 0;

        while !pending.is_empty() || !active.is_empty() {
            // Admission at the pass boundary. An idle fleet fast-forwards
            // to the next ready request (simulated time is
            // request-driven).
            let may_admit = match policy {
                BatchPolicy::Static { .. } => active.is_empty(),
                BatchPolicy::Continuous { .. } => true,
            };
            if may_admit {
                if active.is_empty() {
                    if let Some(&(_, _, ready)) = pending.front() {
                        t = t.max(ready);
                    }
                }
                while active.len() < policy.max_slots() {
                    let Some(&(next, attempt, ready)) = pending.front() else { break };
                    if ready > t {
                        break;
                    }
                    pending.pop_front();
                    // A queued request whose deadline already expired is
                    // timed out instead of admitted (lazily, when it
                    // reaches the head of the queue).
                    if timeout > 0 && t.saturating_sub(latencies[next].arrival) > timeout {
                        finalize(&mut latencies[next], RequestOutcome::TimedOut, attempt, t);
                        timeouts += 1;
                        continue;
                    }
                    latencies[next].admitted = t;
                    active.push(Slot { req: next, emitted: 0, prefilled: false, attempt });
                }
                // Load shedding: arrived-but-unadmitted requests beyond
                // the queue capacity are shed newest-first.
                if profile.queue_cap != usize::MAX {
                    let mut arrived = pending.iter().filter(|&&(_, _, ready)| ready <= t).count();
                    if arrived > profile.queue_cap {
                        let mut keep = std::collections::VecDeque::with_capacity(pending.len());
                        while let Some((req, attempt, ready)) = pending.pop_back() {
                            if arrived > profile.queue_cap && ready <= t {
                                arrived -= 1;
                                sheds += 1;
                                finalize(&mut latencies[req], RequestOutcome::Shed, attempt, t);
                            } else {
                                keep.push_front((req, attempt, ready));
                            }
                        }
                        pending = keep;
                    }
                }
            }
            if active.is_empty() {
                // Nothing ready yet; the loop condition guarantees
                // pending work, and the fast-forward above will admit it
                // next iteration.
                continue;
            }

            // One pass over the active slots.
            let shapes: Vec<SlotShape> = active
                .iter()
                .map(|s| slot_shape(&requests[s.req], s, billing, self.config().seq_len))
                .collect();
            let cycles = self.pass_makespan(&shapes)?;
            passes.push(PassRecord {
                start: t,
                cycles,
                slots: active
                    .iter()
                    .map(|s| {
                        (s.req, if s.prefilled { SlotPhase::Decode } else { SlotPhase::Prefill })
                    })
                    .collect(),
            });
            t = t.checked_add(cycles).ok_or(CoreError::ServeClockOverflow { clock: t })?;

            // Advance every slot by one pass and retire finished
            // requests (their slots free up at this boundary). Deadlines
            // are checked first — a pass that ends past the deadline is
            // wasted work — then the completion failure draw decides
            // whether a finishing attempt's output actually made it out.
            let mut overflow = None;
            active.retain_mut(|slot| {
                let lat = &mut latencies[slot.req];
                if timeout > 0 && t.saturating_sub(lat.arrival) > timeout {
                    finalize(lat, RequestOutcome::TimedOut, slot.attempt, t);
                    timeouts += 1;
                    return false;
                }
                if slot.prefilled {
                    slot.emitted += 1;
                } else {
                    slot.prefilled = true;
                    // The prefill pass emits the first output token
                    // (greedy argmax over the last prompt position) —
                    // prefill-only requests just fill their KV cache.
                    slot.emitted = usize::from(lat.decode_len >= 1);
                    lat.first_token = t;
                }
                if slot.emitted >= lat.decode_len {
                    if profile.fail_per_mille > 0
                        && fail_draw(seed, slot.req, slot.attempt, profile.fail_per_mille)
                    {
                        if slot.attempt < profile.max_retries {
                            retries += 1;
                            let backoff = RETRY_BACKOFF_BASE << slot.attempt.min(20);
                            match t.checked_add(backoff) {
                                Some(ready) => requeue.push((slot.req, slot.attempt + 1, ready)),
                                None => overflow = Some(CoreError::ServeClockOverflow { clock: t }),
                            }
                        } else {
                            finalize(lat, RequestOutcome::Failed, slot.attempt, t);
                            failed += 1;
                        }
                        return false;
                    }
                    lat.retries = slot.attempt;
                    lat.finish = t;
                    false
                } else {
                    true
                }
            });
            if let Some(e) = overflow {
                return Err(e);
            }
            pending.extend(requeue.drain(..));
        }

        Ok(ServeReport {
            requests: latencies,
            passes,
            makespan: t,
            n_chips: self.n_chips(),
            retries,
            sheds,
            timeouts,
            failed,
        })
    }

    /// Pass makespan for a slot-shape vector, from the system's memo:
    /// one pass over `n_layers` blocks of the slots
    /// ([`DistributedSystem::run_slots`]), simulated on the first ask.
    fn pass_makespan(&self, shapes: &[SlotShape]) -> Result<u64> {
        self.serve_memo().passes.get_or_try_insert_with(shapes, || {
            Ok(self.run_slots(shapes, self.config().n_layers)?.0.makespan)
        })
    }

    /// One slot's one-block schedule at `seq` tokens in `mode`, compiled
    /// for the system's chips on the first ask and kept in the system's
    /// memo. The only place a fault-free slot schedule is compiled: block
    /// spans, batches and serving passes all take their slots from here.
    pub(crate) fn slot_form(
        &self,
        mode: InferenceMode,
        seq: usize,
    ) -> Result<Arc<CompiledSchedule>> {
        debug_assert!((1..=self.config().seq_len).contains(&seq), "slot context {seq}");
        self.serve_memo().slots.get_or_try_insert_with(&(mode, seq), || {
            let cfg = self.config().clone().with_seq_len(seq);
            let topology = self.topology().cloned();
            CompiledSchedule::compile(&cfg, self.n_chips(), self.chip(), topology, mode)
                .map(Arc::new)
        })
    }
}

/// The `(mode, billed context)` shape of one slot in a pass.
pub(crate) type SlotShape = (InferenceMode, usize);

/// Pass shapes one system keeps makespans for. The repository
/// benchmark's serving study (six per-request-billed runs of 16 requests
/// on one system) meets about 630 distinct shapes; past this the pass
/// table starts afresh, so a long run of ever-new shapes never grows it
/// further.
const MAX_PASS_SHAPES: usize = 4096;

/// The memo a [`DistributedSystem`] owns, shared by its block spans,
/// batches and serving runs and by its clones: each slot's compiled
/// one-block schedule per `(mode, billed context)`, and each serving
/// pass makespan per *ordered* slot-shape vector (`DESIGN.md` §12). A
/// pass makespan is a function of the system and its slot shapes alone,
/// never of the workload, policy, billing or fault profile that produced
/// them, so sharing it across runs is exact. Validated contexts lie in
/// `1..=seq_len`, so the slot table never reaches its `2 x seq_len`
/// bound.
#[derive(Debug)]
pub(crate) struct ServeMemo {
    slots: Memo<SlotShape, Arc<CompiledSchedule>>,
    passes: Memo<Vec<SlotShape>, u64>,
}

impl ServeMemo {
    pub(crate) fn new(seq_len: usize) -> Self {
        ServeMemo { slots: Memo::new(2 * seq_len), passes: Memo::new(MAX_PASS_SHAPES) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_model::{BatchWorkload, ServeRequest, ServeWorkload, TransformerConfig};

    fn sys(n_chips: usize) -> DistributedSystem {
        DistributedSystem::paper_default(TransformerConfig::tiny_llama_42m(), n_chips).unwrap()
    }

    fn saturated(n: usize, prompt_len: usize, decode_len: usize) -> ServeWorkload {
        ServeWorkload::new(vec![ServeRequest { prompt_len, decode_len, arrival_cycles: 0 }; n])
            .unwrap()
    }

    #[test]
    fn policy_and_billing_parse() {
        assert_eq!(BatchPolicy::parse("static:4"), Ok(BatchPolicy::Static { batch: 4 }));
        assert_eq!(
            BatchPolicy::parse("continuous:8"),
            Ok(BatchPolicy::Continuous { max_slots: 8 })
        );
        assert_eq!(BatchPolicy::Static { batch: 4 }.label(), "static4");
        assert_eq!(BatchPolicy::Continuous { max_slots: 8 }.label(), "cont8");
        assert!(BatchPolicy::parse("static:0").is_err());
        assert!(BatchPolicy::parse("rolling:4").is_err());
        assert_eq!(Billing::parse("full"), Ok(Billing::FullContext));
        assert_eq!(Billing::parse("per-request"), Ok(Billing::PerRequest));
        assert!(Billing::parse("flat").is_err());
    }

    #[test]
    fn saturated_static_full_context_composes_batch_passes() {
        // All requests pre-arrived, gang-admitted, full-context billing:
        // the serve makespan must be exactly one uniform prefill batch
        // pass plus decode_len-1 uniform decode batch passes, each bit-
        // equal to the PR 5 batch path.
        let sys = sys(4);
        let (n, prompt, decode) = (4usize, 16usize, 4usize);
        let report = sys
            .simulate_serve(
                &saturated(n, prompt, decode),
                BatchPolicy::Static { batch: n },
                Billing::FullContext,
            )
            .unwrap();
        let prefill = sys
            .simulate_batch(InferenceMode::Prompt, &BatchWorkload::uniform(n, prompt, 0))
            .unwrap()
            .stats
            .makespan;
        let ar = sys
            .simulate_batch(InferenceMode::Autoregressive, &BatchWorkload::uniform(n, prompt, 0))
            .unwrap()
            .stats
            .makespan;
        assert_eq!(report.makespan, prefill + (decode as u64 - 1) * ar);
        assert_eq!(report.passes.len(), decode); // 1 prefill + (decode-1) decodes
        assert!(report.passes.iter().all(|p| p.slots.len() == n));
        for r in &report.requests {
            assert_eq!(r.ttft(), prefill);
            assert_eq!(r.tpot(), ar);
            assert_eq!(r.finish, report.makespan);
        }
        assert_eq!(report.peak_concurrency(), n);
    }

    #[test]
    fn idle_fleet_fast_forwards_to_arrival() {
        let sys = sys(4);
        let w = ServeWorkload::new(vec![ServeRequest {
            prompt_len: 16,
            decode_len: 1,
            arrival_cycles: 123_456,
        }])
        .unwrap();
        let report = sys
            .simulate_serve(&w, BatchPolicy::Continuous { max_slots: 2 }, Billing::FullContext)
            .unwrap();
        let r = report.requests[0];
        assert_eq!(r.admitted, 123_456);
        assert_eq!(r.first_token, r.finish); // decode_len 1: prefill emits it
        assert_eq!(r.ttft(), r.finish - 123_456);
        assert_eq!(report.passes.len(), 1);
    }

    #[test]
    fn prefill_only_request_finishes_at_prefill() {
        let sys = sys(4);
        let w = ServeWorkload::new(vec![ServeRequest {
            prompt_len: 16,
            decode_len: 0,
            arrival_cycles: 0,
        }])
        .unwrap();
        let report =
            sys.simulate_serve(&w, BatchPolicy::Static { batch: 1 }, Billing::FullContext).unwrap();
        assert_eq!(report.passes.len(), 1);
        assert_eq!(report.requests[0].first_token, report.requests[0].finish);
        assert_eq!(report.requests[0].tpot(), 0);
    }

    #[test]
    fn continuous_joins_mid_flight_static_waits() {
        // Request 1 arrives while request 0 decodes: continuous batching
        // admits it at the next pass boundary (mixed prefill+decode
        // pass); static batching makes it wait for the gang to drain.
        let sys = sys(4);
        let w = ServeWorkload::new(vec![
            ServeRequest { prompt_len: 16, decode_len: 6, arrival_cycles: 0 },
            ServeRequest { prompt_len: 16, decode_len: 1, arrival_cycles: 1 },
        ])
        .unwrap();
        let cont = sys
            .simulate_serve(&w, BatchPolicy::Continuous { max_slots: 2 }, Billing::FullContext)
            .unwrap();
        let stat =
            sys.simulate_serve(&w, BatchPolicy::Static { batch: 2 }, Billing::FullContext).unwrap();
        // Continuous: some pass holds both requests at once.
        assert!(cont.passes.iter().any(|p| p.slots.len() == 2));
        assert!(cont.passes.iter().any(|p| p.slots.contains(&(0, SlotPhase::Decode))
            && p.slots.contains(&(1, SlotPhase::Prefill))));
        // Static: request 1 is admitted only after request 0 finished.
        assert_eq!(stat.peak_concurrency(), 1);
        assert_eq!(stat.requests[1].admitted, stat.requests[0].finish);
        // Continuous serves request 1 strictly earlier.
        assert!(cont.requests[1].finish < stat.requests[1].finish);
    }

    #[test]
    fn per_request_billing_is_never_dearer_than_full_context() {
        let sys = sys(4);
        let w = saturated(2, 16, 5);
        let full =
            sys.simulate_serve(&w, BatchPolicy::Static { batch: 2 }, Billing::FullContext).unwrap();
        let per =
            sys.simulate_serve(&w, BatchPolicy::Static { batch: 2 }, Billing::PerRequest).unwrap();
        // prompt_len + decoded <= seq_len, so every per-request decode
        // pass attends over no more context than the full-context pass.
        assert!(per.makespan <= full.makespan);
        assert_eq!(per.passes.len(), full.passes.len());
    }

    #[test]
    fn serve_is_deterministic() {
        let sys = sys(4);
        let w = ServeWorkload::new(vec![
            ServeRequest { prompt_len: 8, decode_len: 3, arrival_cycles: 0 },
            ServeRequest { prompt_len: 16, decode_len: 2, arrival_cycles: 500 },
            ServeRequest { prompt_len: 8, decode_len: 1, arrival_cycles: 90_000 },
        ])
        .unwrap();
        let a = sys
            .simulate_serve(&w, BatchPolicy::Continuous { max_slots: 2 }, Billing::PerRequest)
            .unwrap();
        let b = sys
            .simulate_serve(&w, BatchPolicy::Continuous { max_slots: 2 }, Billing::PerRequest)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_profile_parse_round_trips() {
        assert_eq!(FaultProfile::parse("none"), Ok(FaultProfile::none()));
        assert_eq!(FaultProfile::none().label(), "none");
        let p = FaultProfile::parse("fail:25").unwrap();
        assert_eq!(
            p,
            FaultProfile { fail_per_mille: 25, max_retries: 3, timeout_kcycles: 0, queue_cap: 64 }
        );
        assert_eq!(p.label(), "f25r3q64");
        let p = FaultProfile::parse("fail:100:2:500:16").unwrap();
        assert_eq!(
            p,
            FaultProfile {
                fail_per_mille: 100,
                max_retries: 2,
                timeout_kcycles: 500,
                queue_cap: 16
            }
        );
        assert_eq!(p.label(), "f100r2t500q16");
        // A profile that can neither fail nor expire nor shed is none.
        assert!(FaultProfile::parse("fail:0").unwrap().label().starts_with("f0r3q"));
        for bad in ["fail:1001", "fail:-1", "fail:25:x", "fail:25:1:y", "fail:25:1:0:0", "drop:5"] {
            assert!(FaultProfile::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn empty_profile_is_bit_identical_to_the_fault_free_path() {
        let sys = sys(4);
        let w = ServeWorkload::new(vec![
            ServeRequest { prompt_len: 8, decode_len: 3, arrival_cycles: 0 },
            ServeRequest { prompt_len: 16, decode_len: 2, arrival_cycles: 500 },
        ])
        .unwrap();
        let policy = BatchPolicy::Continuous { max_slots: 2 };
        let plain = sys.simulate_serve(&w, policy, Billing::PerRequest).unwrap();
        for seed in [0u64, 42, u64::MAX] {
            let faulted = sys
                .simulate_serve_faulted(
                    &w,
                    policy,
                    Billing::PerRequest,
                    &FaultProfile::none(),
                    seed,
                )
                .unwrap();
            assert_eq!(faulted, plain, "seed {seed}");
        }
        assert_eq!(plain.retries + plain.sheds + plain.timeouts + plain.failed, 0);
        assert_eq!(plain.availability(), Some(1.0));
    }

    #[test]
    fn exhausted_retries_surface_as_failed() {
        let sys = sys(4);
        let w = saturated(3, 8, 2);
        let profile = FaultProfile::parse("fail:1000:2").unwrap();
        let report = sys
            .simulate_serve_faulted(
                &w,
                BatchPolicy::Continuous { max_slots: 4 },
                Billing::FullContext,
                &profile,
                7,
            )
            .unwrap();
        // Certain failure: every request burns its full retry budget.
        assert_eq!(report.failed, 3);
        assert_eq!(report.retries, 3 * 2);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.availability(), Some(0.0));
        assert!(report
            .requests
            .iter()
            .all(|r| r.outcome == RequestOutcome::Failed && r.retries == 2));
    }

    #[test]
    fn serving_clock_overflow_is_a_typed_error() {
        // One prefill-only request whose single pass ends one cycle short
        // of u64::MAX: the pass itself fits, its retry's backoff does not.
        let sys = sys(4);
        let policy = BatchPolicy::Continuous { max_slots: 4 };
        let at = |arrival_cycles| {
            ServeWorkload::new(vec![ServeRequest { prompt_len: 8, decode_len: 0, arrival_cycles }])
                .unwrap()
        };
        let pass = sys.simulate_serve(&at(0), policy, Billing::FullContext).unwrap().makespan;
        let profile = FaultProfile::parse("fail:1000:1").unwrap();
        let run = |arrival| {
            sys.simulate_serve_faulted(&at(arrival), policy, Billing::FullContext, &profile, 7)
        };
        let clock = u64::MAX - 1;
        assert!(matches!(
            run(clock - pass),
            Err(CoreError::ServeClockOverflow { clock: c }) if c == clock
        ));
        // A pass that would end past u64::MAX is refused too.
        assert!(matches!(
            run(u64::MAX - pass / 2),
            Err(CoreError::ServeClockOverflow { clock: c }) if c == u64::MAX - pass / 2
        ));
        assert!(FaultProfile::parse(&format!("fail:10:{MAX_SERVE_RETRIES}")).is_ok());
        assert_eq!(
            FaultProfile::parse("fail:10:101"),
            Err("retry count 101 exceeds the budget of 100 retries (MAX_SERVE_RETRIES)".into())
        );
    }

    #[test]
    fn retries_recover_and_lengthen_the_tail() {
        let sys = sys(4);
        let w = saturated(6, 8, 2);
        let policy = BatchPolicy::Continuous { max_slots: 8 };
        let plain = sys.simulate_serve(&w, policy, Billing::FullContext).unwrap();
        let profile = FaultProfile::parse("fail:900:100").unwrap();
        let report =
            sys.simulate_serve_faulted(&w, policy, Billing::FullContext, &profile, 42).unwrap();
        // A 100-deep retry budget outlasts 90% per-attempt failure.
        assert_eq!(report.availability(), Some(1.0));
        assert!(report.retries > 0);
        assert!(report.makespan > plain.makespan);
        assert!(report.requests.iter().any(|r| r.retries > 0));
        // TTFT runs from the original arrival even across retries.
        assert!(report.requests.iter().all(|r| r.first_token >= r.arrival));
    }

    #[test]
    fn deadlines_time_requests_out() {
        let sys = sys(4);
        let w = saturated(3, 16, 4);
        let profile = FaultProfile::parse("fail:0:0:1").unwrap(); // 1-kcycle deadline
        let report = sys
            .simulate_serve_faulted(
                &w,
                BatchPolicy::Static { batch: 1 },
                Billing::FullContext,
                &profile,
                0,
            )
            .unwrap();
        // Any real pass takes longer than 1000 cycles, so every request
        // expires — actives at the pass boundary, queued ones at the
        // head of the queue.
        assert_eq!(report.timeouts, 3);
        assert_eq!(report.completed(), 0);
        assert!(report.requests.iter().all(|r| r.outcome == RequestOutcome::TimedOut));
        // Degraded records still have coherent latency fields.
        assert!(report.requests.iter().all(|r| r.finish >= r.first_token));
    }

    #[test]
    fn overload_sheds_the_newest_arrivals() {
        let sys = sys(4);
        let w = saturated(4, 8, 6);
        let profile = FaultProfile::parse("fail:0:0:0:1").unwrap(); // queue cap 1
        let report = sys
            .simulate_serve_faulted(
                &w,
                BatchPolicy::Static { batch: 1 },
                Billing::FullContext,
                &profile,
                0,
            )
            .unwrap();
        // One slot busy, one queued: the two newest arrivals are shed.
        assert_eq!(report.sheds, 2);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.requests[2].outcome, RequestOutcome::Shed);
        assert_eq!(report.requests[3].outcome, RequestOutcome::Shed);
        assert_eq!(report.availability(), Some(0.5));
    }

    #[test]
    fn availability_is_monotone_in_fail_rate() {
        let sys = sys(4);
        let w = saturated(6, 8, 2);
        let policy = BatchPolicy::Continuous { max_slots: 8 };
        let mut last = f64::INFINITY;
        for rate in [0u32, 200, 500, 800, 1000] {
            let profile = FaultProfile {
                fail_per_mille: rate,
                max_retries: 1,
                timeout_kcycles: 0,
                queue_cap: usize::MAX,
            };
            let report =
                sys.simulate_serve_faulted(&w, policy, Billing::FullContext, &profile, 42).unwrap();
            let avail = report.availability().expect("non-empty run");
            assert!(avail <= last, "rate {rate}");
            last = avail;
        }
        assert!(last.abs() < f64::EPSILON, "certain failure means zero availability");
    }

    #[test]
    fn zero_request_run_has_no_availability() {
        // 0/0 must not read as "perfectly available" — a config that
        // sheds its whole queue before admission is not a healthy one.
        let report = ServeReport {
            requests: vec![],
            passes: vec![],
            makespan: 0,
            n_chips: 4,
            retries: 0,
            sheds: 0,
            timeouts: 0,
            failed: 0,
        };
        assert_eq!(report.availability(), None);
        assert_eq!(report.completed(), 0);
    }

    #[test]
    fn faulted_serve_is_cold_rerun_deterministic() {
        let sys = sys(4);
        let w = ServeWorkload::new(vec![
            ServeRequest { prompt_len: 8, decode_len: 3, arrival_cycles: 0 },
            ServeRequest { prompt_len: 16, decode_len: 2, arrival_cycles: 500 },
            ServeRequest { prompt_len: 8, decode_len: 1, arrival_cycles: 90_000 },
        ])
        .unwrap();
        let profile = FaultProfile::parse("fail:400:2:50000:2").unwrap();
        let policy = BatchPolicy::Continuous { max_slots: 2 };
        let a = sys.simulate_serve_faulted(&w, policy, Billing::PerRequest, &profile, 99).unwrap();
        let b = sys.simulate_serve_faulted(&w, policy, Billing::PerRequest, &profile, 99).unwrap();
        assert_eq!(a, b);
        // Outcomes partition the workload.
        let n = a.requests.len() as u64;
        let counted = a.completed() as u64 + a.sheds + a.timeouts + a.failed;
        assert_eq!(counted, n);
    }

    fn mixed_load() -> ServeWorkload {
        ServeWorkload::new(vec![
            ServeRequest { prompt_len: 8, decode_len: 5, arrival_cycles: 0 },
            ServeRequest { prompt_len: 16, decode_len: 3, arrival_cycles: 500 },
            ServeRequest { prompt_len: 12, decode_len: 4, arrival_cycles: 90_000 },
        ])
        .unwrap()
    }

    fn memo_len(sys: &DistributedSystem) -> (usize, usize) {
        let memo = sys.serve_memo();
        (memo.slots.len(), memo.passes.len())
    }

    #[test]
    fn clones_share_the_memo_and_a_new_topology_starts_afresh() {
        let sys = sys(4);
        assert!(format!("{sys:?}").contains("<uninit>"), "a new system allocates no memo");
        let policy = BatchPolicy::Continuous { max_slots: 2 };
        let clone = sys.clone();
        let report = clone.simulate_serve(&mixed_load(), policy, Billing::PerRequest).unwrap();
        let filled = memo_len(&sys);
        assert!(filled.0 > 0 && filled.1 > 0, "a clone's run fills the shared memo");
        assert_eq!(format!("{:?}", sys.serve_memo()), format!("{:?}", clone.serve_memo()));
        assert!(format!("{sys:?}")
            .contains(&format!("ServeMemo {{ slots: {}, passes: {} }}", filled.0, filled.1)));
        // A second run on the system answers every pass from the memo.
        assert_eq!(sys.simulate_serve(&mixed_load(), policy, Billing::PerRequest).unwrap(), report);
        assert_eq!(memo_len(&sys), filled);
        let flat = sys.with_topology(mtp_link::Topology::flat(4).unwrap());
        assert_eq!(memo_len(&flat), (0, 0));
        assert_eq!(memo_len(&clone), filled);
    }

    #[test]
    fn solo_prefill_baseline_takes_its_slot_from_the_memo() {
        // The unloaded baseline a serving study compares against leaves
        // its slot schedule in the memo and no pass entry (a batch
        // reports full stats, not one makespan); a serve meeting that
        // prompt length then reuses the very schedule.
        let (sys, p) = (sys(4), 16);
        sys.simulate_batch(InferenceMode::Prompt, &BatchWorkload::uniform(1, p, 0)).unwrap();
        assert_eq!(memo_len(&sys), (1, 0));
        let form = || sys.slot_form(InferenceMode::Prompt, p).unwrap();
        let baseline = form();
        assert_eq!(memo_len(&sys), (1, 0), "the baseline's lookup compiled a slot of its own");
        let policy = BatchPolicy::Continuous { max_slots: 2 };
        sys.simulate_serve(&saturated(3, p, 2), policy, Billing::PerRequest).unwrap();
        assert!(Arc::ptr_eq(&baseline, &form()), "the serve compiled its prefill slot again");
    }

    #[test]
    fn a_repeated_slot_compiles_once_and_clones_share_it() {
        let (sys, ar) = (sys(4), InferenceMode::Autoregressive);
        let first = sys.slot_form(ar, 32).unwrap();
        let clone = sys.clone();
        for asked in [sys.slot_form(ar, 32).unwrap(), clone.slot_form(ar, 32).unwrap()] {
            assert!(Arc::ptr_eq(&first, &asked), "the slot was compiled again");
        }
        assert_eq!(memo_len(&sys), (1, 0));
        assert_eq!(memo_len(&clone), (1, 0));
        // The kept schedule is the slot's own compilation.
        let cfg = sys.config().clone().with_seq_len(32);
        let fresh = CompiledSchedule::compile(&cfg, 4, sys.chip(), None, ar).unwrap();
        assert_eq!(first.lowered(), fresh.lowered());
        assert_eq!(first.residency(), fresh.residency());
    }

    #[test]
    fn a_full_pass_table_starts_afresh_and_changes_no_result() {
        // The bound DESIGN.md §12 documents, well above the ~630 shapes
        // of one benchmark study.
        assert_eq!(MAX_PASS_SHAPES, 4096);
        let policy = BatchPolicy::Continuous { max_slots: 2 };
        let fresh = sys(4).simulate_serve(&mixed_load(), policy, Billing::PerRequest).unwrap();
        let sys = sys(4);
        // Fill the table one short of the cap with shapes no two-slot
        // run meets: the run's first new shape fills it, the next one
        // starts it afresh.
        let passes = &sys.serve_memo().passes;
        let keep = |shape: &[SlotShape], cycles| {
            passes.get_or_try_insert_with(shape, || Ok::<_, CoreError>(cycles)).unwrap()
        };
        for i in 0..MAX_PASS_SHAPES - 1 {
            assert_eq!(keep(&[(InferenceMode::Prompt, i + 1); 3], 1), 1);
        }
        assert_eq!(memo_len(&sys).1, MAX_PASS_SHAPES - 1);
        let report = sys.simulate_serve(&mixed_load(), policy, Billing::PerRequest).unwrap();
        assert_eq!(report, fresh);
        assert!(passes.len() < MAX_PASS_SHAPES);
        let filler =
            |i| passes.get_or_try_insert_with(&[(InferenceMode::Prompt, i); 3][..], || Err(()));
        assert!((1..MAX_PASS_SHAPES).all(|i| filler(i).is_err()), "the filler is gone");
        assert!(memo_len(&sys).0 <= 2 * sys.config().seq_len);
        // The first insert of a shape wins.
        let shape = [(InferenceMode::Autoregressive, 9); 2];
        assert_eq!(keep(&shape, 7), 7);
        assert_eq!(keep(&shape, 8), 7);
    }

    #[test]
    fn oversized_context_is_rejected() {
        let sys = sys(4);
        let seq = sys.config().seq_len;
        let w = ServeWorkload::new(vec![ServeRequest {
            prompt_len: seq,
            decode_len: 1,
            arrival_cycles: 0,
        }])
        .unwrap();
        let err = sys
            .simulate_serve(&w, BatchPolicy::Static { batch: 1 }, Billing::FullContext)
            .unwrap_err();
        assert!(err.to_string().contains("context"), "{err}");
    }
}
