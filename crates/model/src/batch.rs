//! Multi-request batching workloads: N interleaved requests with
//! independent KV-cache states.
//!
//! A production deployment serves many concurrent requests, not one.
//! This module is the model-level substrate for that workload dimension:
//! a [`BatchWorkload`] describes the *shape* of a batch (per-request
//! prompt/decode lengths and arrival offsets), a [`BatchDecoder`] runs N
//! requests through one shared weight set with strictly per-request
//! [`KvCache`] state, and [`generate_greedy_batch`] drives round-robin
//! interleaved greedy generation over any per-request step function.
//!
//! The central invariant — locked by the KV-isolation property suite in
//! `tests/batch_lockstep.rs` — is that batching is *time multiplexing,
//! not state sharing*: every request's outputs are bit-identical to
//! running that request alone, for any batch composition and any
//! interleaving the round-robin driver produces. Batch size 1 is
//! therefore exactly the existing single-request path.
//!
//! The timing-level counterpart (interleaved per-request block schedules,
//! request-level periodicity) lives in `mtp-core` and `mtp-sim`; see
//! `DESIGN.md` §10.
//!
//! # Examples
//!
//! ```
//! use mtp_model::{BatchWorkload, RequestSpec};
//!
//! let batch = BatchWorkload::uniform(4, 16, 8);
//! assert_eq!(batch.n_requests(), 4);
//! let mixed = BatchWorkload::new(vec![
//!     RequestSpec { prompt_len: 16, decode_len: 8, arrival: 0 },
//!     RequestSpec { prompt_len: 64, decode_len: 4, arrival: 2 },
//! ])?;
//! assert_eq!(mixed.max_context(), 68);
//! # Ok::<(), String>(())
//! ```

use crate::generate::{argmax_row, Embedding, TokenId};
use crate::{reference, KvCache, ModelWeights, TransformerConfig};
use mtp_tensor::{Result, Tensor, TensorError};

/// The shape of one request in a batch: how many prompt tokens it
/// conditions on, how many tokens it decodes, and when it joins the
/// batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestSpec {
    /// Prompt length in tokens (at least 1: a request needs something to
    /// condition on).
    pub prompt_len: usize,
    /// Number of tokens to decode after the prompt.
    pub decode_len: usize,
    /// Round offset at which the request joins the batch (0 = present
    /// from the start). Arrival shapes the functional interleaving (and
    /// therefore each request's KV-cache fill trajectory); the timing
    /// model simulates the saturated steady state where every request is
    /// active, so arrival does not enter the schedule (DESIGN.md §10).
    pub arrival: usize,
}

impl RequestSpec {
    /// Total KV-cache positions this request occupies once finished
    /// (every prompt and decoded token is appended).
    #[must_use]
    pub fn context_len(&self) -> usize {
        self.prompt_len + self.decode_len
    }
}

/// A batch of N requests served concurrently, each with its own
/// KV-cache state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchWorkload {
    requests: Vec<RequestSpec>,
}

impl BatchWorkload {
    /// A batch from explicit per-request specifications.
    ///
    /// # Errors
    ///
    /// Returns a description when the batch is empty or any request has
    /// a zero-length prompt.
    pub fn new(requests: Vec<RequestSpec>) -> std::result::Result<Self, String> {
        if requests.is_empty() {
            return Err("a batch needs at least one request".to_owned());
        }
        for (i, r) in requests.iter().enumerate() {
            if r.prompt_len == 0 {
                return Err(format!("request {i} has an empty prompt"));
            }
        }
        Ok(BatchWorkload { requests })
    }

    /// A uniform batch: `n` identical requests of `prompt_len` prompt
    /// tokens and `decode_len` decoded tokens, all present from round 0.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero or `prompt_len` is zero.
    #[must_use]
    pub fn uniform(n: usize, prompt_len: usize, decode_len: usize) -> Self {
        assert!(n > 0, "a batch needs at least one request");
        assert!(prompt_len > 0, "requests need a non-empty prompt");
        BatchWorkload { requests: vec![RequestSpec { prompt_len, decode_len, arrival: 0 }; n] }
    }

    /// Number of requests in the batch.
    #[must_use]
    pub fn n_requests(&self) -> usize {
        self.requests.len()
    }

    /// The per-request specifications.
    #[must_use]
    pub fn requests(&self) -> &[RequestSpec] {
        &self.requests
    }

    /// The longest per-request context any request reaches.
    #[must_use]
    pub fn max_context(&self) -> usize {
        self.requests.iter().map(RequestSpec::context_len).max().unwrap_or(0)
    }

    /// Checks the batch fits the model's KV-cache capacity
    /// (`cfg.seq_len` positions per request).
    ///
    /// # Errors
    ///
    /// Returns a description naming the first over-long request.
    pub fn validate_for(&self, cfg: &TransformerConfig) -> std::result::Result<(), String> {
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

/// A batched golden decoder: N requests time-multiplexed over one shared
/// weight set, each with its own per-layer [`KvCache`] stack.
///
/// Stepping request `r` touches only request `r`'s caches, so each
/// request's trajectory is bit-identical to a standalone
/// [`crate::Decoder`] fed the same tokens — the functional form of the
/// batching subsystem's isolation guarantee.
///
/// ```
/// use mtp_model::{BatchDecoder, Decoder, ModelWeights, TransformerConfig};
/// use mtp_model::synthetic_embeddings;
///
/// let mut cfg = TransformerConfig::tiny_llama_42m();
/// cfg.embed_dim = 32;
/// cfg.ffn_dim = 48;
/// cfg.n_heads = 4;
/// cfg.n_kv_heads = 4;
/// cfg.n_layers = 2;
/// cfg.seq_len = 8;
/// let weights = ModelWeights::seeded(&cfg, 1);
/// let mut batch = BatchDecoder::new(cfg.clone(), weights.clone(), 2);
/// let mut solo = Decoder::new(cfg.clone(), weights);
/// let x = synthetic_embeddings(&cfg, 1, 7);
/// // Interleave a foreign request between two steps of request 0: its
/// // output is unchanged.
/// let a = batch.step(0, &x)?;
/// let _ = batch.step(1, &x)?;
/// let b = batch.step(0, &x)?;
/// solo.step(&x)?;
/// assert_eq!(b, solo.step(&x)?);
/// assert_eq!(a, {
///     let mut fresh = Decoder::new(cfg, batch.weights().clone());
///     fresh.step(&x)?
/// });
/// # Ok::<(), mtp_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchDecoder {
    cfg: TransformerConfig,
    weights: ModelWeights,
    /// `caches[request][layer]`.
    caches: Vec<Vec<KvCache>>,
}

impl BatchDecoder {
    /// A batched decoder for `n_requests` requests; every request's
    /// KV-caches are sized to `cfg.seq_len`.
    ///
    /// # Panics
    ///
    /// Panics when `n_requests` is zero.
    #[must_use]
    pub fn new(cfg: TransformerConfig, weights: ModelWeights, n_requests: usize) -> Self {
        assert!(n_requests > 0, "a batch needs at least one request");
        let caches = (0..n_requests)
            .map(|_| (0..cfg.n_layers).map(|_| KvCache::new(cfg.kv_width(), cfg.seq_len)).collect())
            .collect();
        BatchDecoder { cfg, weights, caches }
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// The shared weight set.
    #[must_use]
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Number of requests the decoder multiplexes.
    #[must_use]
    pub fn n_requests(&self) -> usize {
        self.caches.len()
    }

    /// Number of positions currently cached for `request`.
    ///
    /// # Panics
    ///
    /// Panics when `request` is out of range.
    #[must_use]
    pub fn cached_len(&self, request: usize) -> usize {
        self.caches[request].first().map_or(0, KvCache::len)
    }

    /// One autoregressive step for `request`: a `[1 x E]` embedding row
    /// in, one out, updating only that request's KV-caches.
    ///
    /// # Panics
    ///
    /// Panics when `request` is out of range.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape mismatches.
    pub fn step(&mut self, request: usize, x: &Tensor) -> Result<Tensor> {
        assert!(request < self.caches.len(), "request index out of range");
        run_request(&self.cfg, &self.weights, &mut self.caches[request], x)
    }

    /// One synchronized decode round over all request slots: entry `r`
    /// of `xs` is request `r`'s `[1 x E]` embedding row, or `None` when
    /// the slot is idle this round. Returns one output row per active
    /// slot, in slot order.
    ///
    /// With `threads > 1` active slots run concurrently under
    /// [`std::thread::scope`]; because stepping a request touches only
    /// that request's caches (weights are shared read-only), the result
    /// is bit-identical to stepping the slots sequentially (tested).
    ///
    /// # Panics
    ///
    /// Panics when `xs.len()` differs from [`Self::n_requests`].
    ///
    /// # Errors
    ///
    /// Propagates tensor shape mismatches.
    pub fn step_batch(
        &mut self,
        xs: &[Option<Tensor>],
        threads: usize,
    ) -> Result<Vec<Option<Tensor>>> {
        assert_eq!(xs.len(), self.caches.len(), "one optional input row per request slot");
        let (cfg, weights) = (&self.cfg, &self.weights);
        let threads = threads.clamp(1, xs.len());
        if threads == 1 {
            return xs
                .iter()
                .zip(&mut self.caches)
                .map(|(x, caches)| {
                    x.as_ref().map(|x| run_request(cfg, weights, caches, x)).transpose()
                })
                .collect();
        }
        let chunk = xs.len().div_ceil(threads);
        let mut out: Vec<Option<Tensor>> = vec![None; xs.len()];
        std::thread::scope(|sc| -> Result<()> {
            let mut handles = Vec::with_capacity(threads);
            for ((cch, xch), och) in
                self.caches.chunks_mut(chunk).zip(xs.chunks(chunk)).zip(out.chunks_mut(chunk))
            {
                handles.push(sc.spawn(move || -> Result<()> {
                    for ((caches, x), o) in cch.iter_mut().zip(xch).zip(och.iter_mut()) {
                        if let Some(x) = x {
                            *o = Some(run_request(cfg, weights, caches, x)?);
                        }
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join().expect("batch worker panicked")?;
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Resets every request's KV-caches.
    pub fn reset(&mut self) {
        for request in &mut self.caches {
            for cache in request {
                cache.clear();
            }
        }
    }
}

/// One request's autoregressive step against the shared weights: the
/// per-slot unit of work [`BatchDecoder::step_batch`] distributes over
/// threads. `caches` is that request's per-layer stack.
fn run_request(
    cfg: &TransformerConfig,
    weights: &ModelWeights,
    caches: &mut [KvCache],
    x: &Tensor,
) -> Result<Tensor> {
    let mut h = x.clone();
    for (layer, cache) in caches.iter_mut().enumerate() {
        h = reference::block_forward(&h, weights.block(layer), cfg, Some(cache))?;
    }
    Ok(h)
}

/// Errors of [`generate_greedy_batch`].
#[derive(Debug)]
pub enum BatchGenerateError<E> {
    /// A prompt's token count does not match its request specification.
    PromptMismatch {
        /// The offending request index.
        request: usize,
        /// The specified prompt length.
        expected: usize,
        /// The provided token count.
        actual: usize,
    },
    /// The number of prompts does not match the workload's request count.
    RequestCountMismatch {
        /// The workload's request count.
        expected: usize,
        /// The number of prompts provided.
        actual: usize,
    },
    /// An embedding lookup failed.
    Embedding(TensorError),
    /// The underlying model step failed.
    Model {
        /// The request whose step failed.
        request: usize,
        /// The model's error.
        error: E,
    },
}

impl<E: std::fmt::Debug> std::fmt::Display for BatchGenerateError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchGenerateError::PromptMismatch { request, expected, actual } => write!(
                f,
                "request {request}: prompt has {actual} token(s) but the spec says {expected}"
            ),
            BatchGenerateError::RequestCountMismatch { expected, actual } => {
                write!(f, "workload has {expected} request(s) but {actual} prompt(s) were given")
            }
            BatchGenerateError::Embedding(e) => write!(f, "embedding lookup failed: {e}"),
            BatchGenerateError::Model { request, error } => {
                write!(f, "request {request}: model step failed: {error:?}")
            }
        }
    }
}

impl<E: std::fmt::Debug> std::error::Error for BatchGenerateError<E> {}

/// Per-request driver state of the round-robin generation loop.
struct RequestState {
    fed: usize,
    out: Vec<TokenId>,
    hidden: Option<Tensor>,
}

/// Round-robin greedy generation over a batch: one interleaved round
/// advances every active request by one token (prompt tokens first, then
/// greedy decode), and request `r` joins at round `requests()[r].arrival`.
///
/// `step(request, x)` is any per-request step function (the golden
/// [`BatchDecoder::step`], a distributed executor, …) mapping a
/// `[1 x E]` embedding row to the request's next hidden row. Because the
/// driver never mixes state across requests, each request's token
/// sequence is bit-identical to running it alone through
/// [`crate::generate::generate_greedy`] — the isolation contract the
/// batching property suite locks.
///
/// Returns the decoded tokens per request, in request order.
///
/// # Errors
///
/// Rejects prompt/workload mismatches and propagates embedding and model
/// errors.
pub fn generate_greedy_batch<E>(
    embedding: &Embedding,
    workload: &BatchWorkload,
    prompts: &[Vec<TokenId>],
    mut step: impl FnMut(usize, &Tensor) -> std::result::Result<Tensor, E>,
) -> std::result::Result<Vec<Vec<TokenId>>, BatchGenerateError<E>> {
    if prompts.len() != workload.n_requests() {
        return Err(BatchGenerateError::RequestCountMismatch {
            expected: workload.n_requests(),
            actual: prompts.len(),
        });
    }
    for (r, (spec, prompt)) in workload.requests().iter().zip(prompts).enumerate() {
        if prompt.len() != spec.prompt_len {
            return Err(BatchGenerateError::PromptMismatch {
                request: r,
                expected: spec.prompt_len,
                actual: prompt.len(),
            });
        }
    }
    let mut states: Vec<RequestState> = workload
        .requests()
        .iter()
        .map(|spec| RequestState { fed: 0, out: Vec::with_capacity(spec.decode_len), hidden: None })
        .collect();
    let mut x = Tensor::default();
    let mut logits = Tensor::default();
    let mut round = 0usize;
    loop {
        let mut any_pending = false;
        for (r, (spec, state)) in workload.requests().iter().zip(&mut states).enumerate() {
            let finished = state.fed == spec.prompt_len && state.out.len() == spec.decode_len;
            if finished {
                continue;
            }
            any_pending = true;
            if round < spec.arrival {
                continue;
            }
            let token = if state.fed < spec.prompt_len {
                let t = prompts[r][state.fed];
                state.fed += 1;
                t
            } else {
                let hidden = state.hidden.as_ref().expect("prompt_len >= 1 fed a first step");
                embedding
                    .logits_into(hidden, &mut logits)
                    .map_err(BatchGenerateError::Embedding)?;
                let next = argmax_row(&logits);
                state.out.push(next);
                // The final token is fed back too (mirroring the
                // single-request driver exactly), so a request's cache
                // state — not just its tokens — matches its solo run.
                next
            };
            embedding.embed_into(token, &mut x).map_err(BatchGenerateError::Embedding)?;
            state.hidden =
                Some(step(r, &x).map_err(|error| BatchGenerateError::Model { request: r, error })?);
        }
        if !any_pending {
            return Ok(states.into_iter().map(|s| s.out).collect());
        }
        round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_greedy;
    use crate::reference::synthetic_input;
    use crate::Decoder;

    fn small_cfg() -> TransformerConfig {
        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.embed_dim = 32;
        cfg.ffn_dim = 48;
        cfg.n_heads = 4;
        cfg.n_kv_heads = 4;
        cfg.n_layers = 2;
        cfg.seq_len = 16;
        cfg
    }

    #[test]
    fn workload_validation() {
        assert!(BatchWorkload::new(vec![]).is_err());
        assert!(BatchWorkload::new(vec![RequestSpec { prompt_len: 0, decode_len: 2, arrival: 0 }])
            .is_err());
        let w = BatchWorkload::uniform(3, 4, 2);
        assert_eq!(w.n_requests(), 3);
        assert_eq!(w.max_context(), 6);
        assert!(w.validate_for(&small_cfg()).is_ok());
        let long = BatchWorkload::uniform(1, 20, 8);
        let err = long.validate_for(&small_cfg()).unwrap_err();
        assert!(err.contains("28"), "{err}");
    }

    #[test]
    fn batch_step_is_bitwise_equal_to_solo_decoder() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 9);
        let mut batch = BatchDecoder::new(cfg.clone(), weights.clone(), 3);
        let mut solo = Decoder::new(cfg.clone(), weights);
        // Drive request 1 with a token stream while requests 0 and 2 see
        // unrelated traffic in between; request 1 must match the solo
        // decoder bit for bit at every step.
        for i in 0..5u64 {
            let noise = crate::synthetic_embeddings(&cfg, 1, 100 + i);
            let x = crate::synthetic_embeddings(&cfg, 1, i);
            batch.step(0, &noise).unwrap();
            let batched = batch.step(1, &x).unwrap();
            batch.step(2, &noise).unwrap();
            let alone = solo.step(&x).unwrap();
            assert_eq!(batched, alone, "step {i}");
        }
        assert_eq!(batch.cached_len(1), 5);
        batch.reset();
        assert_eq!(batch.cached_len(0), 0);
        assert_eq!(batch.cached_len(1), 0);
    }

    #[test]
    fn batch_of_one_equals_generate_greedy() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 4);
        let emb = Embedding::seeded(&cfg, 24, 5);
        let workload = BatchWorkload::uniform(1, 3, 6);
        let mut batch = BatchDecoder::new(cfg.clone(), weights.clone(), 1);
        let batched =
            generate_greedy_batch(&emb, &workload, &[vec![1, 2, 3]], |r, x| batch.step(r, x))
                .unwrap();
        let mut solo = Decoder::new(cfg, weights);
        let alone = generate_greedy(&emb, &[1, 2, 3], 6, |x| solo.step(x)).unwrap();
        assert_eq!(batched, vec![alone]);
    }

    #[test]
    fn arrivals_delay_but_do_not_change_outputs() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 4);
        let emb = Embedding::seeded(&cfg, 24, 5);
        let workload = BatchWorkload::new(vec![
            RequestSpec { prompt_len: 2, decode_len: 4, arrival: 0 },
            RequestSpec { prompt_len: 3, decode_len: 3, arrival: 4 },
        ])
        .unwrap();
        let prompts = vec![vec![7, 1], vec![2, 2, 9]];
        let mut batch = BatchDecoder::new(cfg.clone(), weights.clone(), 2);
        let batched =
            generate_greedy_batch(&emb, &workload, &prompts, |r, x| batch.step(r, x)).unwrap();
        for (r, prompt) in prompts.iter().enumerate() {
            let mut solo = Decoder::new(cfg.clone(), weights.clone());
            let alone =
                generate_greedy(&emb, prompt, workload.requests()[r].decode_len, |x| solo.step(x))
                    .unwrap();
            assert_eq!(batched[r], alone, "request {r}");
        }
    }

    #[test]
    fn driver_rejects_mismatched_prompts() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 4);
        let emb = Embedding::seeded(&cfg, 24, 5);
        let workload = BatchWorkload::uniform(2, 2, 1);
        let mut batch = BatchDecoder::new(cfg.clone(), weights.clone(), 2);
        let short =
            generate_greedy_batch(&emb, &workload, &[vec![1, 2], vec![3]], |r, x| batch.step(r, x));
        assert!(matches!(
            short,
            Err(BatchGenerateError::PromptMismatch { request: 1, expected: 2, actual: 1 })
        ));
        let mut batch = BatchDecoder::new(cfg, weights, 2);
        let few = generate_greedy_batch(&emb, &workload, &[vec![1, 2]], |r, x| batch.step(r, x));
        assert!(matches!(
            few,
            Err(BatchGenerateError::RequestCountMismatch { expected: 2, actual: 1 })
        ));
    }

    #[test]
    fn step_batch_threads_bit_match_sequential() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 9);
        let mut seq = BatchDecoder::new(cfg.clone(), weights.clone(), 5);
        let mut par = BatchDecoder::new(cfg, weights, 5);
        for round in 0..3u64 {
            // Slot 2 idles every round; slot 4 idles on round 1 — exercises
            // sparse batches and uneven chunking (5 slots over 3 workers).
            let xs: Vec<Option<Tensor>> = (0..5)
                .map(|r| {
                    (r != 2 && !(round == 1 && r == 4))
                        .then(|| synthetic_input(1, seq.config().embed_dim, 10 * round + r as u64))
                })
                .collect();
            let a = seq.step_batch(&xs, 1).unwrap();
            let b = par.step_batch(&xs, 3).unwrap();
            assert_eq!(a, b, "round {round}");
            assert!(a[2].is_none());
        }
        assert_eq!(seq.cached_len(0), 3);
        assert_eq!(seq.cached_len(2), 0);
        assert_eq!(seq.cached_len(4), 2);
        assert_eq!(par.cached_len(4), 2);
    }

    #[test]
    fn step_batch_matches_single_step() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 13);
        let mut batch = BatchDecoder::new(cfg.clone(), weights.clone(), 2);
        let mut solo = BatchDecoder::new(cfg, weights, 2);
        let x0 = synthetic_input(1, batch.config().embed_dim, 1);
        let x1 = synthetic_input(1, batch.config().embed_dim, 2);
        let out = batch.step_batch(&[Some(x0.clone()), Some(x1.clone())], 2).unwrap();
        assert_eq!(out[0].as_ref().unwrap(), &solo.step(0, &x0).unwrap());
        assert_eq!(out[1].as_ref().unwrap(), &solo.step(1, &x1).unwrap());
    }

    #[test]
    fn zero_decode_requests_only_prefill() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 4);
        let emb = Embedding::seeded(&cfg, 24, 5);
        let workload =
            BatchWorkload::new(vec![RequestSpec { prompt_len: 3, decode_len: 0, arrival: 0 }])
                .unwrap();
        let mut batch = BatchDecoder::new(cfg, weights, 1);
        let out = generate_greedy_batch(&emb, &workload, &[vec![1, 2, 3]], |r, x| batch.step(r, x))
            .unwrap();
        assert_eq!(out, vec![Vec::<TokenId>::new()]);
        assert_eq!(batch.cached_len(0), 3);
    }
}
