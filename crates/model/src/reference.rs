//! Golden single-chip reference implementations of the Transformer block.
//!
//! These functions compute the *values* a correct execution must produce.
//! The distributed functional executor in `mtp-core` re-uses the same
//! per-head primitives on its weight slices and is verified to match
//! [`block_forward`] numerically — that equivalence is the correctness
//! argument for the partitioning scheme.

use crate::{Activation, AttentionKind, BlockWeights, KvCache, NormKind, TransformerConfig};
use mtp_kernels as kernels;
use mtp_tensor::{Result, Shape, Tensor};

/// Attention visibility mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttnMask {
    /// Every query sees every key (encoder).
    None,
    /// Query row `i` sees key rows `j <= q_offset + i` (decoder; with a
    /// KV-cache the single query row has `q_offset = kv_len - 1`).
    Causal {
        /// Absolute position of query row 0 within the key sequence.
        q_offset: usize,
    },
}

/// Multi-head scaled-dot-product attention over a *slab* of heads, with
/// grouped-query support.
///
/// `q` is `[S_q x (h*P)]` holding `h` contiguous query heads of width
/// `head_dim = P`; `k`/`v` are `[S_kv x (h_kv*P)]` holding `h_kv` key/value
/// heads, where `h_kv` divides `h` (classic multi-head attention is the
/// `h_kv == h` case). Query head `i` attends against K/V head
/// `i / (h / h_kv)`. Returns the `[S_q x (h*P)]` attention output.
///
/// This is the primitive both the golden model (all heads) and each chip of
/// the distributed system (its head slice) execute — head computations are
/// fully independent, which is why the paper partitions along `H`.
///
/// # Errors
///
/// Never fails (the `Result` is kept for call-site compatibility).
///
/// # Panics
///
/// Panics when a column count is not a multiple of `head_dim`, when the
/// K/V head count does not divide the query head count, or when `k` and
/// `v` shapes disagree.
pub fn attention_heads(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    head_dim: usize,
    mask: AttnMask,
) -> Result<Tensor> {
    let mut scratch = AttnScratch::default();
    let mut out = Tensor::default();
    attention_heads_into(q, k, v, head_dim, mask, &mut scratch, &mut out);
    Ok(out)
}

/// Reusable buffers for [`attention_heads_into`]: one `[S_q x S_kv]`
/// score matrix, recycled across heads, layers, and decode steps.
#[derive(Debug, Clone, Default)]
pub struct AttnScratch {
    scores: Tensor,
}

/// [`attention_heads`] into a caller-owned output, allocation-free in
/// steady state: head slabs are addressed in place (strided) instead of
/// being split into per-head copies, the score matrix lives in `scratch`,
/// and `out` is resized in place.
///
/// Every accumulation runs in the same ascending-`k` [`mtp_tensor::madd`]
/// order as the blocked matmul kernels, so the result is bit-identical to
/// the split/concat formulation this replaced.
///
/// # Panics
///
/// Panics when a column count is not a multiple of `head_dim`, when the
/// K/V head count does not divide the query head count, or when `k` and
/// `v` shapes disagree.
pub fn attention_heads_into(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    head_dim: usize,
    mask: AttnMask,
    scratch: &mut AttnScratch,
    out: &mut Tensor,
) {
    let width = q.shape().cols();
    let kv_width = k.shape().cols();
    assert_eq!(k.shape(), v.shape(), "k and v must share one [S_kv x width] shape");
    assert!(width.is_multiple_of(head_dim), "q columns must be a whole number of heads");
    assert!(kv_width.is_multiple_of(head_dim), "k/v columns must be a whole number of heads");
    let n_heads = width / head_dim;
    let n_kv_heads = kv_width / head_dim;
    assert!(
        n_kv_heads > 0 && n_heads.is_multiple_of(n_kv_heads),
        "k/v heads must divide query heads"
    );
    let group = n_heads / n_kv_heads;
    let (sq, skv) = (q.shape().rows(), k.shape().rows());
    let scale = 1.0 / (head_dim as f32).sqrt();
    // `out` accumulates (so it must start zeroed); the score matrix is
    // fully overwritten every head, so its resize skips the memset.
    out.resize_to(Shape::mat(sq, width));
    scratch.scores.resize_for_overwrite(Shape::mat(sq, skv));
    if sq == 0 || skv == 0 {
        return;
    }
    let be = mtp_tensor::active();
    for h in 0..n_heads {
        let q_off = h * head_dim;
        let kv_off = (h / group) * head_dim;
        // scores = scale * (q_h @ k_h^T): head slabs addressed in place
        // (strided), dispatched to the active backend. Chains stay in
        // ascending key order on every backend, so this is bit-identical
        // to the scalar loop it replaced.
        be.scaled_dot_t(
            &q.as_slice()[q_off..],
            width,
            &k.as_slice()[kv_off..],
            kv_width,
            scale,
            scratch.scores.as_mut_slice(),
            sq,
            head_dim,
            skv,
        );
        if let AttnMask::Causal { q_offset } = mask {
            for i in 0..sq {
                for j in (q_offset + i + 1)..skv {
                    scratch.scores.set(i, j, f32::NEG_INFINITY);
                }
            }
        }
        kernels::softmax_rows_inplace(&mut scratch.scores);
        // out_h += probs @ v_h, accumulated in ascending key order via the
        // backend's strided GEMM (accumulate = true onto the zeroed out).
        be.gemm_strided(
            scratch.scores.as_slice(),
            skv,
            &v.as_slice()[kv_off..],
            kv_width,
            &mut out.as_mut_slice()[q_off..],
            width,
            sq,
            skv,
            head_dim,
            true,
        );
    }
}

/// Row-wise normalization of `t` according to the model's [`NormKind`].
#[must_use]
pub fn normalize(t: &Tensor, kind: NormKind, gamma: &[f32], beta: &[f32]) -> Tensor {
    let mut out = t.clone();
    normalize_inplace(&mut out, kind, gamma, beta);
    out
}

/// In-place [`normalize`] (identical arithmetic, no output allocation).
pub fn normalize_inplace(t: &mut Tensor, kind: NormKind, gamma: &[f32], beta: &[f32]) {
    match kind {
        NormKind::LayerNorm => kernels::layer_norm_inplace(t, gamma, beta, 1e-5),
        NormKind::RmsNorm => kernels::rms_norm_inplace(t, gamma, 1e-6),
    }
}

/// The FFN: `act(y @ W1) @ W2`.
///
/// # Errors
///
/// Propagates matmul shape mismatches.
pub fn ffn(y: &Tensor, w: &BlockWeights, activation: Activation) -> Result<Tensor> {
    let h = y.try_matmul(&w.w1)?;
    let a = match activation {
        Activation::Gelu => kernels::gelu(&h),
        Activation::Silu => kernels::silu(&h),
    };
    a.try_matmul(&w.w2)
}

/// Full-width MHSA for input `x` (`[S x E]`), optionally updating a
/// KV-cache for autoregressive decoding.
///
/// With `cache = Some(..)`, `x` must be a single row (one new token); the
/// new key/value rows are appended and attention runs over the whole cache.
/// Without a cache, attention runs over `x` itself (prompt/encoder pass).
///
/// # Errors
///
/// Propagates tensor shape mismatches.
pub fn mhsa(
    x: &Tensor,
    w: &BlockWeights,
    cfg: &TransformerConfig,
    cache: Option<&mut KvCache>,
) -> Result<Tensor> {
    let head_dim = cfg.head_dim();
    let rope = cfg.attention == AttentionKind::CausalRope;
    let mut q = x.try_matmul(&w.wq)?;
    let mut k = x.try_matmul(&w.wk)?;
    let v = x.try_matmul(&w.wv)?;
    let pos0 = cache.as_deref().map_or(0, KvCache::len);
    if rope {
        kernels::rope_heads_inplace(&mut q, head_dim, pos0);
        kernels::rope_heads_inplace(&mut k, head_dim, pos0);
    }
    let attn = match cache {
        Some(cache) => {
            debug_assert_eq!(x.shape().rows(), 1, "cached decoding processes one token");
            cache.append(k.row(0), v.row(0));
            let mask = AttnMask::Causal { q_offset: cache.len() - 1 };
            attention_heads(&q, &cache.keys(), &cache.values(), head_dim, mask)?
        }
        None => {
            let mask = match cfg.attention {
                AttentionKind::Bidirectional => AttnMask::None,
                AttentionKind::CausalRope => AttnMask::Causal { q_offset: 0 },
            };
            attention_heads(&q, &k, &v, head_dim, mask)?
        }
    };
    attn.try_matmul(&w.wo)
}

/// One full Transformer block (post-norm, as described in the paper):
///
/// ```text
/// y = Norm(x + MHSA(x));  z = Norm(y + FFN(y))
/// ```
///
/// # Errors
///
/// Propagates tensor shape mismatches.
pub fn block_forward(
    x: &Tensor,
    w: &BlockWeights,
    cfg: &TransformerConfig,
    cache: Option<&mut KvCache>,
) -> Result<Tensor> {
    let attn = mhsa(x, w, cfg, cache)?;
    let y = normalize(&x.try_add(&attn)?, cfg.norm, &w.norm1_gamma, &w.norm1_beta);
    let f = ffn(&y, w, cfg.activation)?;
    Ok(normalize(&y.try_add(&f)?, cfg.norm, &w.norm2_gamma, &w.norm2_beta))
}

/// Deterministic pseudo-random activation matrix used by tests, examples,
/// and the harness as a stand-in for token embeddings.
#[must_use]
pub fn synthetic_input(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(Shape::mat(rows, cols), |(r, c)| {
        // A cheap splitmix-style hash for reproducible, well-spread values.
        let mut z =
            seed.wrapping_add(r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(c as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z >> 40) as f32 / (1 << 24) as f32) * 2.0 - 1.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TransformerConfig {
        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.embed_dim = 32;
        cfg.ffn_dim = 64;
        cfg.n_heads = 4;
        cfg.n_kv_heads = 4;
        cfg.n_layers = 2;
        cfg.seq_len = 8;
        cfg
    }

    #[test]
    fn attention_rows_are_convex_combinations_of_values() {
        // With mask None and any scores, output rows lie in the convex hull
        // of the value rows; with constant V the output equals V's row.
        let q = synthetic_input(3, 8, 1);
        let k = synthetic_input(5, 8, 2);
        let v = Tensor::from_fn(Shape::mat(5, 8), |(_, c)| c as f32);
        let out = attention_heads(&q, &k, &v, 4, AttnMask::None).unwrap();
        for r in 0..3 {
            for c in 0..8 {
                assert!((out.at(r, c) - c as f32).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        // Make value row 1 huge; query row 0 must not see it.
        let q = Tensor::zeros(Shape::mat(2, 4));
        let k = Tensor::zeros(Shape::mat(2, 4));
        let mut v = Tensor::zeros(Shape::mat(2, 4));
        for c in 0..4 {
            v.set(1, c, 1000.0);
        }
        let out = attention_heads(&q, &k, &v, 4, AttnMask::Causal { q_offset: 0 }).unwrap();
        assert_eq!(out.at(0, 0), 0.0, "row 0 only sees kv row 0");
        assert_eq!(out.at(1, 0), 500.0, "row 1 averages rows 0 and 1");
    }

    #[test]
    fn head_independence() {
        // Computing all heads at once equals computing head slabs
        // separately and concatenating — the partitioning scheme's premise.
        let q = synthetic_input(4, 16, 3);
        let k = synthetic_input(6, 16, 4);
        let v = synthetic_input(6, 16, 5);
        let all = attention_heads(&q, &k, &v, 4, AttnMask::None).unwrap();
        let (qs, ks, vs) =
            (q.split_cols(2).unwrap(), k.split_cols(2).unwrap(), v.split_cols(2).unwrap());
        let parts: Vec<Tensor> = (0..2)
            .map(|i| attention_heads(&qs[i], &ks[i], &vs[i], 4, AttnMask::None).unwrap())
            .collect();
        let glued = Tensor::concat_cols(&parts).unwrap();
        assert!(all.approx_eq(&glued, 1e-5).unwrap());
    }

    #[test]
    fn cached_decoding_matches_prompt_pass() {
        // Running S tokens one-by-one through the cache must equal the
        // single causal prompt pass, row for row.
        let cfg = small_cfg();
        let w = BlockWeights::seeded(&cfg, 9);
        let x = synthetic_input(6, cfg.embed_dim, 11);
        let prompt_out = mhsa(&x, &w, &cfg, None).unwrap();
        let mut cache = KvCache::new(cfg.embed_dim, 16);
        let mut step_rows = Vec::new();
        for r in 0..6 {
            let row = Tensor::from_vec(Shape::mat(1, cfg.embed_dim), x.row(r).to_vec()).unwrap();
            let out = mhsa(&row, &w, &cfg, Some(&mut cache)).unwrap();
            step_rows.push(out);
        }
        for (r, out) in step_rows.iter().enumerate() {
            let want =
                Tensor::from_vec(Shape::mat(1, cfg.embed_dim), prompt_out.row(r).to_vec()).unwrap();
            assert!(out.approx_eq(&want, 1e-4).unwrap(), "row {r} diverged");
        }
    }

    #[test]
    fn block_forward_is_finite_and_normalized() {
        let cfg = small_cfg();
        let w = BlockWeights::seeded(&cfg, 21);
        let x = synthetic_input(8, cfg.embed_dim, 13);
        let z = block_forward(&x, &w, &cfg, None).unwrap();
        assert_eq!(z.shape(), x.shape());
        assert!(z.as_slice().iter().all(|v| v.is_finite()));
        // Post-norm RMS ~ 1 per row.
        let ms: f32 = z.row(0).iter().map(|v| v * v).sum::<f32>() / cfg.embed_dim as f32;
        assert!((ms - 1.0).abs() < 0.1);
    }

    #[test]
    fn encoder_block_has_no_mask_effect_on_symmetry() {
        let mut cfg = small_cfg();
        cfg.attention = AttentionKind::Bidirectional;
        cfg.norm = NormKind::LayerNorm;
        let w = BlockWeights::seeded(&cfg, 2);
        let x = synthetic_input(5, cfg.embed_dim, 3);
        let out = block_forward(&x, &w, &cfg, None).unwrap();
        assert_eq!(out.shape(), x.shape());
    }

    #[test]
    fn synthetic_input_is_deterministic_and_bounded() {
        let a = synthetic_input(4, 4, 1);
        let b = synthetic_input(4, 4, 1);
        assert_eq!(a, b);
        assert!(a.max_abs() <= 1.0);
        assert_ne!(a, synthetic_input(4, 4, 2));
    }
}
