//! `golden_decode`: seeded greedy generation through an 8-chip
//! `FunctionalSystem` running TinyLlama-42M with a 32,000-token tied LM
//! head, interleaved with 4-chip MobileBERT encoder passes over 268-row
//! inputs. Simulated time is zero: all host time goes to the tensor
//! backend, the KV cache and the chip fan-out.

use crate::host::Stamp;
use crate::stats::{Digest, Rng};
use crate::trace::Tracer;
use crate::{Args, Check, Run};
use mtp_core::functional::FunctionalSystem;
use mtp_model::{
    generate_greedy, synthetic_embeddings, Decoder, Embedding, KvCache, ModelWeights, TokenId,
    TransformerConfig,
};
use mtp_tensor::{Shape, Tensor};
use std::time::{Duration, Instant};

pub const VOCAB: usize = 32_000;
const DECODE_CHIPS: usize = 8;
const ENCODE_CHIPS: usize = 4;
/// Distinct generations and encoder inputs generated per plan.
const PLAN_LEN: usize = 8;
/// Op key stride per generation: token `k` of generation `g` is op
/// `g * TOKEN_KEY + k` (contexts hold at most 128 positions).
const TOKEN_KEY: usize = 1000;

/// One seeded generation: a prompt, then tokens up to the 128-position
/// context.
pub struct Generation {
    pub prompt: Vec<TokenId>,
    pub n_tokens: usize,
}

/// Everything the workload builds before its first timed op.
pub struct Setup {
    pub decoder_cfg: TransformerConfig,
    pub weights: ModelWeights,
    pub embedding: Embedding,
    pub decoder: FunctionalSystem,
    pub encoder: FunctionalSystem,
    pub generations: Vec<Generation>,
    pub encoder_inputs: Vec<Tensor>,
}

/// Builds the inputs and both systems. `layers` overrides the depth of
/// both models (the small cross-workload probe of the traced run uses 1).
pub fn setup(seed: u64, layers: Option<usize>, threads: usize) -> Result<Setup, String> {
    let mut decoder_cfg = TransformerConfig::tiny_llama_42m();
    let mut encoder_cfg = TransformerConfig::mobile_bert();
    if let Some(n) = layers {
        decoder_cfg.n_layers = n;
        encoder_cfg.n_layers = n;
    }
    let mut rng = Rng::new(seed);
    let weights = ModelWeights::seeded(&decoder_cfg, rng.next_u64());
    let embedding = Embedding::seeded(&decoder_cfg, VOCAB, rng.next_u64());
    let mut decoder = FunctionalSystem::new(decoder_cfg.clone(), &weights, DECODE_CHIPS)
        .map_err(|e| e.to_string())?;
    decoder.set_threads(threads);
    let encoder_weights = ModelWeights::seeded(&encoder_cfg, rng.next_u64());
    let mut encoder = FunctionalSystem::new(encoder_cfg.clone(), &encoder_weights, ENCODE_CHIPS)
        .map_err(|e| e.to_string())?;
    encoder.set_threads(threads);
    let generations = (0..PLAN_LEN)
        .map(|_| {
            let p = rng.range(4, 32) as usize;
            let prompt = (0..p).map(|_| rng.range(0, VOCAB as u64 - 1) as TokenId).collect();
            Generation { prompt, n_tokens: decoder_cfg.seq_len - p }
        })
        .collect();
    let encoder_inputs = (0..2)
        .map(|_| synthetic_embeddings(&encoder_cfg, encoder_cfg.seq_len, rng.next_u64()))
        .collect();
    Ok(Setup { decoder_cfg, weights, embedding, decoder, encoder, generations, encoder_inputs })
}

fn token_digest(gen: usize, k: usize, token: TokenId) -> u64 {
    let mut d = Digest::default();
    d.u64(gen as u64);
    d.u64(k as u64);
    d.u64(u64::from(token));
    d.finish()
}

fn tensor_digest(t: &Tensor) -> u64 {
    let mut d = Digest::default();
    for v in t.as_slice() {
        d.bytes(&v.to_bits().to_le_bytes());
    }
    d.finish()
}

/// One timed generation: the tokens plus the `(wall, cpu)` host time of
/// each decoded token (from the end of the previous step to the end of
/// its own) and of the whole generation phase.
struct Decoded {
    tokens: Vec<TokenId>,
    token_ms: Vec<(f64, f64)>,
    decode_ms: (f64, f64),
}

fn decode(s: &mut Setup, g: &Generation, n_tokens: usize) -> Result<Decoded, String> {
    s.decoder.reset();
    let mut marks = Vec::with_capacity(g.prompt.len() + n_tokens);
    let decoder = &mut s.decoder;
    let tokens = generate_greedy(&s.embedding, &g.prompt, n_tokens, |x| {
        let r = decoder.step(x);
        marks.push(Stamp::now());
        r
    })
    .map_err(|e| e.to_string())?;
    let p = g.prompt.len();
    let token_ms = (p..marks.len()).map(|i| marks[i - 1].ms_to(marks[i])).collect();
    let decode_ms = marks[p - 1].ms_to(marks[marks.len() - 1]);
    Ok(Decoded { tokens, token_ms, decode_ms })
}

pub fn run(args: &Args) -> Result<Run, String> {
    let threads = crate::host::nproc().min(2);
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..3 {
        drop(s.take());
        let started = Stamp::now();
        s = Some(setup(args.seed, None, threads)?);
        setups.push(started.elapsed_ms().1 / 1e3);
    }
    let mut s = s.expect("three setups ran");
    let mut check = Check::new("golden_decode", args);
    let mut run = Run::new(setups);
    let (mut decode_s, mut tokens, mut encode_s, mut encodes) = (0.0, 0usize, 0.0, 0usize);
    let mut first_tokens: Vec<TokenId> = Vec::new();
    let mut encode_digests: Vec<Option<u64>> = vec![None; s.encoder_inputs.len()];
    let started = Stamp::now();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut est_token_s = 0.2f64;
    let mut op = 0usize;
    let mut g_idx = 0usize;
    while Instant::now() < deadline {
        // Fit the generation into the remaining time: a cut generation
        // is a prefix of the full one, so its digests stay comparable.
        let g = &s.generations[g_idx % s.generations.len()];
        let remaining = (deadline - Instant::now()).as_secs_f64();
        let n = g.n_tokens.min((remaining / est_token_s).floor() as usize);
        if n == 0 {
            break;
        }
        let g = Generation { prompt: g.prompt.clone(), n_tokens: g.n_tokens };
        match decode(&mut s, &g, n) {
            Ok(d) => {
                for (k, (&tok, &ms)) in d.tokens.iter().zip(&d.token_ms).enumerate() {
                    run.op(ms, 1.0);
                    // Ops are keyed by (generation, position), which a
                    // cut generation cannot shift.
                    op = g_idx * TOKEN_KEY + k;
                    check.digest(op, token_digest(g_idx % PLAN_LEN, k, tok));
                    check.expect(op, (tok as usize) < VOCAB, "token id out of vocabulary");
                }
                if g_idx == 0 {
                    first_tokens = d.tokens.clone();
                }
                tokens += d.tokens.len();
                decode_s += d.decode_ms.0 / 1e3;
                est_token_s = d.decode_ms.0 / 1e3 / d.tokens.len() as f64;
            }
            Err(e) => {
                run.op((0.0, 0.0), 0.0);
                check.fail(g_idx * TOKEN_KEY, &e);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
        let j = g_idx % s.encoder_inputs.len();
        let t0 = Instant::now();
        let out = s.encoder.prompt(&s.encoder_inputs[j]);
        encode_s += t0.elapsed().as_secs_f64();
        encodes += 1;
        match out {
            Ok(out) => {
                let d = tensor_digest(&out);
                let ok = out.as_slice().iter().all(|v| v.is_finite())
                    && encode_digests[j].is_none_or(|prev| prev == d);
                encode_digests[j] = Some(d);
                check.expect(op, ok, "encoder output not finite or not repeatable");
            }
            Err(e) => check.fail(op, &e.to_string()),
        }
        g_idx += 1;
    }
    run.timed_ms = started.elapsed_ms();

    // Outside the timed region: repeat the first generation's opening
    // tokens, and decode them on the single-chip golden Decoder.
    let n_check = first_tokens.len().min(8);
    if n_check > 0 {
        let g0 = Generation { prompt: s.generations[0].prompt.clone(), n_tokens: n_check };
        match decode(&mut s, &g0, n_check) {
            Ok(d) => check.expect(
                0,
                d.tokens == first_tokens[..n_check],
                "repetition changed the tokens",
            ),
            Err(e) => check.fail(0, &e),
        }
        let mut golden = Decoder::new(s.decoder_cfg.clone(), s.weights.clone());
        match generate_greedy(&s.embedding, &g0.prompt, n_check, |x| golden.step(x)) {
            Ok(want) => check.expect(
                0,
                want == first_tokens[..n_check],
                "distributed tokens differ from the golden Decoder",
            ),
            Err(e) => check.fail(0, &e.to_string()),
        }
        run.note(format!(
            "oracle: {n_check} tokens checked against the single-chip golden Decoder"
        ));
    }
    run.extra("decode_tok_s", tokens as f64 / decode_s.max(1e-9), "tok/s");
    if encodes > 0 {
        run.extra("encode_seq_s", encodes as f64 / encode_s, "seq/s");
    }
    run.note(format!("{tokens} tokens decoded, {encodes} encoder passes"));
    run.finish(check);
    Ok(run)
}

/// One traced autoregressive step: the per-layer `block_forward` calls
/// `FunctionalSystem::step` makes, each under its own span.
fn traced_step(sys: &mut FunctionalSystem, x: &Tensor, t: &mut Tracer) -> Result<Tensor, String> {
    let layers = sys.config().n_layers;
    t.span("functional.step", |t| {
        let mut h = x.clone();
        for layer in 0..layers {
            h = t
                .span("functional.block", |_| sys.block_forward(&h, layer, true))
                .map_err(|e| e.to_string())?;
        }
        Ok(h)
    })
}

fn argmax(logits: &Tensor) -> TokenId {
    let row = logits.row(0);
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best as TokenId
}

/// `generate_greedy` with its callees spanned: embedding lookups, the
/// per-layer blocks, the LM head. Per decoded token it also times the
/// KV-cache gathers the 8 chips x N layers make at that context length,
/// on a probe cache of the same shape.
fn traced_generate(
    s: &mut Setup,
    g: &Generation,
    n: usize,
    t: &mut Tracer,
    op0: usize,
) -> Result<Vec<TokenId>, String> {
    s.decoder.reset();
    let layers = s.decoder_cfg.n_layers;
    let width = s.decoder.spec().kv_slice_width();
    let mut probe = KvCache::new(width, s.decoder_cfg.seq_len);
    let row = vec![0.5f32; width];
    let (mut keys, mut values) = (Tensor::default(), Tensor::default());
    let mut x = Tensor::default();
    let mut logits = Tensor::default();
    let mut hidden = None;
    let allocs0 = mtp_tensor::thread_workspace_stats().allocations;
    for &tok in &g.prompt {
        s.embedding.embed_into(tok, &mut x).map_err(|e| e.to_string())?;
        hidden = Some(traced_step(&mut s.decoder, &x, t)?);
        probe.append(&row, &row);
    }
    let mut hidden = hidden.ok_or("empty prompt")?;
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        t.set_op(op0 + k);
        let next = t.span("op", |t| -> Result<TokenId, String> {
            t.span("generate.lm_head", |_| s.embedding.logits_into(&hidden, &mut logits))
                .map_err(|e| e.to_string())?;
            let next = argmax(&logits);
            s.embedding.embed_into(next, &mut x).map_err(|e| e.to_string())?;
            hidden = traced_step(&mut s.decoder, &x, t)?;
            probe.append(&row, &row);
            t.span("kv.gather", |_| {
                for _ in 0..DECODE_CHIPS * layers {
                    probe.keys_into(&mut keys);
                    probe.values_into(&mut values);
                }
            });
            Ok(next)
        })?;
        out.push(next);
    }
    t.count("generate.tokens", n as f64);
    t.count("ws.allocs", (mtp_tensor::thread_workspace_stats().allocations - allocs0) as f64);
    Ok(out)
}

/// The traced workload (or, with `layers`, the small probe other
/// workloads' traced runs use): the same generations and encoder passes
/// with every layer call spanned. The first generation's opening tokens
/// are decoded untraced first; the traced tokens must equal them, and
/// the two timings give the tracing overhead.
pub fn traced(
    args: &Args,
    t: &mut Tracer,
    seconds: f64,
    layers: Option<usize>,
    base_op: usize,
) -> Result<Check, String> {
    let threads = crate::host::nproc().min(2);
    let mut s = setup(args.seed, layers, threads)?;
    let mut check = Check::new("golden_decode", args);
    let short = layers.is_some();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let k = if short { 2 } else { 4 };
    let g0 = Generation { prompt: s.generations[0].prompt.clone(), n_tokens: k };
    decode(&mut s, &g0, k)?;
    let t0 = Instant::now();
    let plain = decode(&mut s, &g0, k)?;
    let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let traced = traced_generate(&mut s, &g0, k, t, base_op)?;
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    check.expect(base_op, traced == plain.tokens, "traced tokens differ from the untraced op");
    if !short {
        t.count("trace.untraced_ms", plain_ms);
        t.count("trace.traced_ms", traced_ms);
    }
    let mut op = base_op + k;
    let mut g_idx = 0;
    loop {
        let g = &s.generations[g_idx % s.generations.len()];
        let g = Generation { prompt: g.prompt.clone(), n_tokens: g.n_tokens };
        let n = if short { 2 } else { g.n_tokens };
        // Fit the generation into the remaining time at ~0.15 s per
        // traced token (a cut generation is a prefix of the full one).
        let remaining = deadline.saturating_duration_since(Instant::now()).as_secs_f64();
        let n = n.min((remaining / 0.15).ceil() as usize).max(1);
        traced_generate(&mut s, &g, n, t, op)?;
        op += n;
        let input = &s.encoder_inputs[g_idx % s.encoder_inputs.len()];
        let out =
            t.span("functional.encode", |_| s.encoder.prompt(input)).map_err(|e| e.to_string())?;
        t.count("functional.encodes", 1.0);
        check.expect(op, out.as_slice().iter().all(|v| v.is_finite()), "encoder output not finite");
        g_idx += 1;
        if short || Instant::now() >= deadline {
            break;
        }
    }
    kernel_estimate(&s, t);
    Ok(check)
}

/// Isolated time of the kernels one decode block runs at its shapes
/// (every chip's Q/K/V, output and FFN GEMVs plus its attention head),
/// as if the chips were spread evenly over the worker threads; recorded
/// as the `functional.kernel_ms_per_block` counter.
fn kernel_estimate(s: &Setup, t: &mut Tracer) {
    let spec = s.decoder.spec();
    let (e, q, kv) = (s.decoder_cfg.embed_dim, spec.qkv_slice_width(), spec.kv_slice_width());
    let f = s.decoder_cfg.ffn_dim / DECODE_CHIPS;
    let ctx = s.decoder_cfg.seq_len / 2;
    let gemv = |k: usize, n: usize| crate::layers::time_matmul(1, k, n, false).0;
    let chip_ms = gemv(e, q)
        + 2.0 * gemv(e, kv)
        + gemv(q, e)
        + gemv(e, f)
        + gemv(f, e)
        + crate::layers::attention_us(q, kv, spec.head_dim(), ctx) / 1e3;
    let threads = s.decoder.threads().min(DECODE_CHIPS) as f64;
    t.count("functional.kernel_ms_per_block", chip_ms * DECODE_CHIPS as f64 / threads);
}

/// A `[rows x cols]` tensor of seeded values in `[-1, 1)`.
pub fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::new(seed);
    let data = (0..rows * cols)
        .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect();
    Tensor::from_vec(Shape::mat(rows, cols), data).expect("consistent length")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_a_function_of_the_seed() {
        let a = setup(1, Some(1), 1).unwrap();
        let b = setup(1, Some(1), 1).unwrap();
        let c = setup(2, Some(1), 1).unwrap();
        let prompts =
            |s: &Setup| s.generations.iter().map(|g| g.prompt.clone()).collect::<Vec<_>>();
        assert_eq!(prompts(&a), prompts(&b));
        assert_ne!(prompts(&a), prompts(&c));
        assert_eq!(tensor_digest(&a.encoder_inputs[0]), tensor_digest(&b.encoder_inputs[0]));
        assert_ne!(tensor_digest(&a.encoder_inputs[0]), tensor_digest(&c.encoder_inputs[0]));
        for g in &a.generations {
            assert_eq!(g.prompt.len() + g.n_tokens, 128);
        }
    }

    #[test]
    fn distributed_decode_matches_golden_and_traced_path() {
        let mut s = setup(5, Some(1), 2).unwrap();
        let g = Generation { prompt: s.generations[0].prompt.clone(), n_tokens: 3 };
        let d = decode(&mut s, &g, 3).unwrap();
        let mut golden = Decoder::new(s.decoder_cfg.clone(), s.weights.clone());
        let want = generate_greedy(&s.embedding, &g.prompt, 3, |x| golden.step(x)).unwrap();
        assert_eq!(d.tokens, want);
        let mut t = Tracer::new();
        let traced = traced_generate(&mut s, &g, 3, &mut t, 0).unwrap();
        assert_eq!(traced, want);
        assert_eq!(t.n("generate.lm_head"), 3);
        assert!(t.check_nesting().is_ok());
    }
}
