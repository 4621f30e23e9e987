//! Open-loop arrival processes: deterministic, seeded request-arrival
//! generators for the serving frontend.
//!
//! A closed-loop benchmark (PR 5's saturated batch) answers "how fast is
//! a full batch?"; a *serving* study needs open-loop arrivals — requests
//! show up on their own clock whether or not the fleet is ready — so that
//! queueing delay, time-to-first-token, and goodput-vs-offered-load
//! curves become measurable. This module is the workload side of that
//! story: an [`ArrivalProcess`] maps `(n, seed)` to a reproducible
//! non-decreasing vector of arrival cycles, and a [`ServeWorkload`]
//! bundles those arrivals with per-request prompt/decode shapes for the
//! timing layer in `mtp-core`.
//!
//! Everything is deterministic by construction: the only randomness is
//! the workspace's [`SplitMix64`] stream, so the same `(process, n,
//! seed)` triple replays the same workload bit-for-bit on every platform — the property the serving
//! lockstep suite (`tests/serving_lockstep.rs`) locks with byte-equality
//! over CSV/JSON sweep output.
//!
//! Rates are expressed **per megacycle** of simulated time: at the
//! paper's 360 MHz clock, 1 request per megacycle is 360 requests/s.
//!
//! # Examples
//!
//! ```
//! use mtp_model::arrivals::ArrivalProcess;
//!
//! let p = ArrivalProcess::parse("poisson:2.5")?;
//! let a = p.sample(100, 42);
//! let b = p.sample(100, 42);
//! assert_eq!(a, b); // seeded and replayable
//! assert!(a.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(p.label(), "poisson2.5");
//! # Ok::<(), String>(())
//! ```

use crate::TransformerConfig;
use mtp_tensor::SplitMix64;

/// How requests arrive at the fleet, as a function from `(n, seed)` to
/// `n` non-decreasing arrival cycles.
///
/// Three shapes cover the serving studies the roadmap asks for:
/// memoryless load ([`ArrivalProcess::Poisson`]), correlated load
/// ([`ArrivalProcess::Bursty`] — Poisson epochs that each deliver a whole
/// burst at once), and exact replay ([`ArrivalProcess::Trace`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: i.i.d. exponential inter-arrival gaps with
    /// mean `1e6 / rate_per_mcycle` cycles.
    Poisson {
        /// Offered load in requests per megacycle of simulated time.
        rate_per_mcycle: f64,
    },
    /// Bursty arrivals: burst *epochs* form a Poisson process of rate
    /// `rate_per_mcycle / burst`, and every epoch delivers `burst`
    /// requests at the same cycle — same average offered load as
    /// [`ArrivalProcess::Poisson`] at equal `rate_per_mcycle`, maximally
    /// clumped.
    Bursty {
        /// Average offered load in requests per megacycle (across
        /// bursts).
        rate_per_mcycle: f64,
        /// Requests per burst epoch (at least 1; 1 degenerates to
        /// Poisson).
        burst: usize,
    },
    /// Exact replay of recorded arrival cycles. When more requests are
    /// drawn than the trace holds, the final cycle repeats (the tail of
    /// the workload arrives "all at once" at the last recorded instant).
    Trace {
        /// Non-decreasing arrival cycles (sorted on construction).
        arrivals: Vec<u64>,
    },
}

impl ArrivalProcess {
    /// Parses a CLI spelling: `poisson:RATE`, `bursty:RATE:BURST`, or
    /// `trace:C1,C2,...` (rates are per megacycle and must be finite and
    /// positive; trace cycles are sorted).
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let bad_rate = |r: &str| {
            format!("bad arrival rate `{r}` (need a finite rate > 0 in requests per megacycle)")
        };
        let parse_rate = |r: &str| -> Result<f64, String> {
            match r.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
                _ => Err(bad_rate(r)),
            }
        };
        if let Some(rate) = s.strip_prefix("poisson:") {
            return Ok(ArrivalProcess::Poisson { rate_per_mcycle: parse_rate(rate)? });
        }
        if let Some(rest) = s.strip_prefix("bursty:") {
            let (rate, burst) = rest
                .split_once(':')
                .ok_or_else(|| format!("bad bursty spec `{rest}` (expected bursty:RATE:BURST)"))?;
            let burst: usize = burst
                .parse()
                .ok()
                .filter(|&b| b > 0)
                .ok_or_else(|| format!("bad burst size `{burst}` (need a positive integer)"))?;
            return Ok(ArrivalProcess::Bursty { rate_per_mcycle: parse_rate(rate)?, burst });
        }
        if let Some(list) = s.strip_prefix("trace:") {
            let mut arrivals = Vec::new();
            for c in list.split(',') {
                arrivals.push(
                    c.parse::<u64>().map_err(|_| {
                        format!("bad trace cycle `{c}` (need a non-negative integer)")
                    })?,
                );
            }
            if arrivals.is_empty() {
                return Err("an arrival trace needs at least one cycle".to_owned());
            }
            arrivals.sort_unstable();
            return Ok(ArrivalProcess::Trace { arrivals });
        }
        Err(format!(
            "unknown arrival process `{s}` (expected poisson:RATE, bursty:RATE:BURST, or \
             trace:C1,C2,...)"
        ))
    }

    /// Compact label for CSV/JSON rows and cache keys: `poisson2.5`,
    /// `bursty2.5x8`, `trace12` (trace length).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Poisson { rate_per_mcycle } => format!("poisson{rate_per_mcycle}"),
            ArrivalProcess::Bursty { rate_per_mcycle, burst } => {
                format!("bursty{rate_per_mcycle}x{burst}")
            }
            ArrivalProcess::Trace { arrivals } => format!("trace{}", arrivals.len()),
        }
    }

    /// Average offered load in requests per megacycle (`None` for a
    /// trace, whose rate is whatever was recorded).
    #[must_use]
    pub fn rate_per_mcycle(&self) -> Option<f64> {
        match *self {
            ArrivalProcess::Poisson { rate_per_mcycle }
            | ArrivalProcess::Bursty { rate_per_mcycle, .. } => Some(rate_per_mcycle),
            ArrivalProcess::Trace { .. } => None,
        }
    }

    /// Draws `n` arrival cycles, non-decreasing, deterministically from
    /// `seed`. The stochastic processes round each exponential gap to
    /// whole cycles; rounding is monotone, so scaling the rate up under
    /// the same seed can only move every arrival earlier (the property
    /// the load-monotonicity test leans on).
    #[must_use]
    pub fn sample(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate_per_mcycle } => {
                let mut rng = SplitMix64::new(seed);
                let mut t = 0u64;
                for _ in 0..n {
                    t += exponential_gap(&mut rng, rate_per_mcycle);
                    out.push(t);
                }
            }
            ArrivalProcess::Bursty { rate_per_mcycle, burst } => {
                let mut rng = SplitMix64::new(seed);
                let epoch_rate = rate_per_mcycle / burst as f64;
                let mut t = 0u64;
                while out.len() < n {
                    t += exponential_gap(&mut rng, epoch_rate);
                    for _ in 0..burst.min(n - out.len()) {
                        out.push(t);
                    }
                }
            }
            ArrivalProcess::Trace { ref arrivals } => {
                let last = *arrivals.last().expect("trace is non-empty by construction");
                for i in 0..n {
                    out.push(arrivals.get(i).copied().unwrap_or(last));
                }
            }
        }
        out
    }
}

/// One exponential inter-arrival gap in whole cycles at `rate` requests
/// per megacycle.
fn exponential_gap(rng: &mut SplitMix64, rate: f64) -> u64 {
    let u = rng.next_f64();
    let gap = -(1.0 - u).ln() * 1.0e6 / rate;
    // Arrivals beyond ~2^63 cycles are off any simulated horizon; the
    // saturating cast keeps pathological rates well-defined.
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        gap.round() as u64
    }
}

/// One open-loop request: shape plus the cycle it arrives at the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServeRequest {
    /// Prompt length in tokens (at least 1).
    pub prompt_len: usize,
    /// Tokens to decode after the prompt.
    pub decode_len: usize,
    /// Cycle at which the request arrives (the latency clock starts
    /// here).
    pub arrival_cycles: u64,
}

impl ServeRequest {
    /// KV-cache positions the request occupies once finished.
    #[must_use]
    pub fn context_len(&self) -> usize {
        self.prompt_len + self.decode_len
    }
}

/// An open-loop serving workload: requests in arrival order, each with
/// its shape and arrival cycle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ServeWorkload {
    requests: Vec<ServeRequest>,
}

impl ServeWorkload {
    /// A workload from explicit requests (sorted by arrival cycle,
    /// stably, so same-cycle requests keep their given order).
    ///
    /// # Errors
    ///
    /// Returns a description when the workload is empty or any request
    /// has an empty prompt.
    pub fn new(mut requests: Vec<ServeRequest>) -> Result<Self, String> {
        if requests.is_empty() {
            return Err("a serving workload needs at least one request".to_owned());
        }
        for (i, r) in requests.iter().enumerate() {
            if r.prompt_len == 0 {
                return Err(format!("request {i} has an empty prompt"));
            }
        }
        requests.sort_by_key(|r| r.arrival_cycles);
        Ok(ServeWorkload { requests })
    }

    /// The standard open-loop workload: `n` identical requests of shape
    /// `(prompt_len, decode_len)` arriving per `process.sample(n, seed)`.
    ///
    /// # Errors
    ///
    /// Returns a description when `n` or `prompt_len` is zero.
    pub fn open_loop(
        process: &ArrivalProcess,
        n: usize,
        prompt_len: usize,
        decode_len: usize,
        seed: u64,
    ) -> Result<Self, String> {
        if n == 0 {
            return Err("a serving workload needs at least one request".to_owned());
        }
        if prompt_len == 0 {
            return Err("requests need a non-empty prompt".to_owned());
        }
        let requests = process
            .sample(n, seed)
            .into_iter()
            .map(|arrival_cycles| ServeRequest { prompt_len, decode_len, arrival_cycles })
            .collect();
        Self::new(requests)
    }

    /// The requests in arrival order.
    #[must_use]
    pub fn requests(&self) -> &[ServeRequest] {
        &self.requests
    }

    /// Number of requests.
    #[must_use]
    pub fn n_requests(&self) -> usize {
        self.requests.len()
    }

    /// Checks every request fits the model's KV-cache capacity
    /// (`cfg.seq_len` positions per request slot).
    ///
    /// # Errors
    ///
    /// Returns a description naming the first over-long request.
    pub fn validate_for(&self, cfg: &TransformerConfig) -> Result<(), String> {
        for (i, r) in self.requests.iter().enumerate() {
            if r.context_len() > cfg.seq_len {
                return Err(format!(
                    "request {i} needs {} context positions but `{}` caches {}",
                    r.context_len(),
                    cfg.name,
                    cfg.seq_len
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_and_labels() {
        let p = ArrivalProcess::parse("poisson:2.5").unwrap();
        assert_eq!(p, ArrivalProcess::Poisson { rate_per_mcycle: 2.5 });
        assert_eq!(p.label(), "poisson2.5");
        assert_eq!(p.rate_per_mcycle(), Some(2.5));
        let b = ArrivalProcess::parse("bursty:4:8").unwrap();
        assert_eq!(b, ArrivalProcess::Bursty { rate_per_mcycle: 4.0, burst: 8 });
        assert_eq!(b.label(), "bursty4x8");
        let t = ArrivalProcess::parse("trace:30,10,20").unwrap();
        assert_eq!(t, ArrivalProcess::Trace { arrivals: vec![10, 20, 30] });
        assert_eq!(t.label(), "trace3");
        assert_eq!(t.rate_per_mcycle(), None);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "gauss:3",
            "poisson:0",
            "poisson:-1",
            "poisson:inf",
            "poisson:abc",
            "bursty:2",
            "bursty:2:0",
            "bursty:0:4",
            "trace:",
            "trace:1,x",
        ] {
            let err = ArrivalProcess::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
        }
    }

    #[test]
    fn samples_are_seeded_sorted_and_seed_sensitive() {
        let p = ArrivalProcess::parse("poisson:1.5").unwrap();
        let a = p.sample(200, 7);
        assert_eq!(a, p.sample(200, 7));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(a, p.sample(200, 8));
    }

    #[test]
    fn higher_rate_same_seed_arrives_no_later() {
        let lo = ArrivalProcess::Poisson { rate_per_mcycle: 1.0 }.sample(100, 3);
        let hi = ArrivalProcess::Poisson { rate_per_mcycle: 4.0 }.sample(100, 3);
        assert!(lo.iter().zip(&hi).all(|(l, h)| h <= l));
    }

    #[test]
    fn bursty_clumps_at_equal_average_rate() {
        let b = ArrivalProcess::Bursty { rate_per_mcycle: 2.0, burst: 4 }.sample(16, 5);
        // Every burst epoch delivers 4 identical cycles.
        for chunk in b.chunks(4) {
            assert!(chunk.iter().all(|&c| c == chunk[0]), "{chunk:?}");
        }
        // Partial final burst when n is not a multiple of the burst size.
        let odd = ArrivalProcess::Bursty { rate_per_mcycle: 2.0, burst: 4 }.sample(6, 5);
        assert_eq!(odd.len(), 6);
        assert_eq!(odd[..4], b[..4]);
    }

    #[test]
    fn trace_replays_and_clamps() {
        let t = ArrivalProcess::Trace { arrivals: vec![5, 10, 20] };
        assert_eq!(t.sample(2, 0), vec![5, 10]);
        assert_eq!(t.sample(5, 99), vec![5, 10, 20, 20, 20]);
    }

    #[test]
    fn workload_construction_and_validation() {
        let p = ArrivalProcess::parse("poisson:2").unwrap();
        let w = ServeWorkload::open_loop(&p, 10, 4, 3, 42).unwrap();
        assert_eq!(w.n_requests(), 10);
        assert!(w.requests().windows(2).all(|r| r[0].arrival_cycles <= r[1].arrival_cycles));
        assert!(ServeWorkload::open_loop(&p, 0, 4, 3, 42).is_err());
        assert!(ServeWorkload::open_loop(&p, 4, 0, 3, 42).is_err());
        assert!(ServeWorkload::new(vec![]).is_err());

        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.seq_len = 16;
        assert!(w.validate_for(&cfg).is_ok());
        let long = ServeWorkload::open_loop(&p, 2, 10, 10, 1).unwrap();
        let err = long.validate_for(&cfg).unwrap_err();
        assert!(err.contains("20 context positions"), "{err}");
    }
}
