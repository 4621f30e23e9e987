//! End-to-end token generation: embedding table, LM head, greedy decoding.
//!
//! The paper evaluates per-block latency/energy; a downstream user runs
//! *tokens*. This module adds the missing ends of the pipeline — a token
//! embedding table and a (weight-tied) LM head — so whole-sequence
//! generation can be driven through either the golden [`crate::Decoder`]
//! or the distributed executor, and the two can be compared token by
//! token.

use crate::TransformerConfig;
use mtp_tensor::{Result, Shape, SplitMix64, Tensor, TensorError};

/// A token id.
pub type TokenId = u32;

/// Token embedding table (`vocab x E`), also used weight-tied as the LM
/// head (`logits = h @ table^T`), as TinyLlama-class models do.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    table: Tensor,
}

impl Embedding {
    /// A seeded random embedding table for `vocab` tokens of `cfg`'s
    /// embedding width.
    #[must_use]
    pub fn seeded(cfg: &TransformerConfig, vocab: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<f32> =
            (0..vocab * cfg.embed_dim).map(|_| (rng.next_f32() * 2.0 - 1.0) * 0.1).collect();
        let table = Tensor::from_vec(Shape::mat(vocab, cfg.embed_dim), data)
            .expect("consistent length by construction");
        Embedding { table }
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.table.shape().rows()
    }

    /// Embedding width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.table.shape().cols()
    }

    /// Looks up one token's embedding as a `[1 x E]` row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for out-of-vocabulary ids.
    pub fn embed(&self, token: TokenId) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.embed_into(token, &mut out)?;
        Ok(out)
    }

    /// [`Embedding::embed`] into a reusable row buffer (no allocation in
    /// steady state — the per-token generation loop's lookup path).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for out-of-vocabulary ids.
    pub fn embed_into(&self, token: TokenId, out: &mut Tensor) -> Result<()> {
        let row = token as usize;
        if row >= self.vocab() {
            return Err(TensorError::AxisOutOfRange { axis: row, rank: self.vocab() });
        }
        out.assign_from_slice(Shape::mat(1, self.width()), self.table.row(row))
    }

    /// Embeds a token sequence as an `[S x E]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for out-of-vocabulary ids.
    pub fn embed_sequence(&self, tokens: &[TokenId]) -> Result<Tensor> {
        let mut data = Vec::with_capacity(tokens.len() * self.width());
        for &t in tokens {
            if t as usize >= self.vocab() {
                return Err(TensorError::AxisOutOfRange { axis: t as usize, rank: self.vocab() });
            }
            data.extend_from_slice(self.table.row(t as usize));
        }
        Tensor::from_vec(Shape::mat(tokens.len(), self.width()), data)
    }

    /// Weight-tied LM head: logits for one hidden row (`[1 x E]`).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn logits(&self, hidden: &Tensor) -> Result<Tensor> {
        hidden.try_matmul_t(&self.table)
    }

    /// [`Embedding::logits`] into a reusable buffer (no allocation in
    /// steady state).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn logits_into(&self, hidden: &Tensor, out: &mut Tensor) -> Result<()> {
        hidden.matmul_t_into(&self.table, out)
    }

    /// Greedy (argmax) next token for one hidden row.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn greedy_next(&self, hidden: &Tensor) -> Result<TokenId> {
        let logits = self.logits(hidden)?;
        Ok(argmax_row(&logits))
    }
}

/// Row-0 argmax of a logits tensor (first maximal index wins). Shared
/// with the batched driver (`crate::batch`) so the greedy tie-break can
/// never diverge between the solo and batched paths.
pub(crate) fn argmax_row(logits: &Tensor) -> TokenId {
    let row = logits.row(0);
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best as TokenId
}

/// Greedy generation driver over any step function (`[1 x E]` in,
/// `[1 x E]` out): feeds `prompt` token by token, then generates
/// `n_tokens` more.
///
/// Works identically over the golden [`crate::Decoder::step`] and the
/// distributed executor's step — which is exactly how the end-to-end
/// equivalence test compares them. The embedding row and logits buffers
/// are reused across tokens, so the driver itself allocates nothing per
/// token in steady state (the model's `step` owns its output).
///
/// # Errors
///
/// Propagates embedding and model errors.
pub fn generate_greedy<E>(
    embedding: &Embedding,
    prompt: &[TokenId],
    n_tokens: usize,
    mut step: impl FnMut(&Tensor) -> std::result::Result<Tensor, E>,
) -> std::result::Result<Vec<TokenId>, GenerateError<E>> {
    let mut out = Vec::with_capacity(n_tokens);
    let mut x = Tensor::default();
    let mut logits = Tensor::default();
    let mut hidden = None;
    for &t in prompt {
        embedding.embed_into(t, &mut x).map_err(GenerateError::Embedding)?;
        hidden = Some(step(&x).map_err(GenerateError::Model)?);
    }
    let mut hidden = hidden.ok_or(GenerateError::EmptyPrompt)?;
    for _ in 0..n_tokens {
        embedding.logits_into(&hidden, &mut logits).map_err(GenerateError::Embedding)?;
        let next = argmax_row(&logits);
        out.push(next);
        embedding.embed_into(next, &mut x).map_err(GenerateError::Embedding)?;
        hidden = step(&x).map_err(GenerateError::Model)?;
    }
    Ok(out)
}

/// Errors of [`generate_greedy`].
#[derive(Debug)]
pub enum GenerateError<E> {
    /// The prompt was empty (nothing to condition on).
    EmptyPrompt,
    /// An embedding lookup failed.
    Embedding(TensorError),
    /// The underlying model step failed.
    Model(E),
}

impl<E: std::fmt::Debug> std::fmt::Display for GenerateError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::EmptyPrompt => write!(f, "prompt must contain at least one token"),
            GenerateError::Embedding(e) => write!(f, "embedding lookup failed: {e}"),
            GenerateError::Model(e) => write!(f, "model step failed: {e:?}"),
        }
    }
}

impl<E: std::fmt::Debug> std::error::Error for GenerateError<E> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decoder, ModelWeights};

    fn small_cfg() -> TransformerConfig {
        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.embed_dim = 32;
        cfg.ffn_dim = 48;
        cfg.n_heads = 4;
        cfg.n_kv_heads = 4;
        cfg.n_layers = 2;
        cfg.seq_len = 24;
        cfg
    }

    #[test]
    fn embedding_lookup_and_bounds() {
        let cfg = small_cfg();
        let e = Embedding::seeded(&cfg, 16, 1);
        assert_eq!(e.vocab(), 16);
        let row = e.embed(3).unwrap();
        assert_eq!(row.shape(), Shape::mat(1, 32));
        assert!(e.embed(16).is_err());
        assert!(e.embed_sequence(&[1, 2, 99]).is_err());
    }

    #[test]
    fn embed_sequence_stacks_rows() {
        let cfg = small_cfg();
        let e = Embedding::seeded(&cfg, 8, 2);
        let seq = e.embed_sequence(&[5, 1]).unwrap();
        assert_eq!(seq.row(0), e.embed(5).unwrap().row(0));
        assert_eq!(seq.row(1), e.embed(1).unwrap().row(0));
    }

    #[test]
    fn greedy_next_is_argmax() {
        let cfg = small_cfg();
        let e = Embedding::seeded(&cfg, 8, 3);
        // A hidden state equal to token 6's embedding has maximal dot
        // product with itself among near-orthogonal random rows.
        let h = e.embed(6).unwrap();
        assert_eq!(e.greedy_next(&h).unwrap(), 6);
    }

    #[test]
    fn generation_is_deterministic_and_in_vocab() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 4);
        let emb = Embedding::seeded(&cfg, 32, 5);
        let mut d1 = Decoder::new(cfg.clone(), weights.clone());
        let out1 = generate_greedy(&emb, &[1, 2, 3], 8, |x| d1.step(x)).unwrap();
        let mut d2 = Decoder::new(cfg, weights);
        let out2 = generate_greedy(&emb, &[1, 2, 3], 8, |x| d2.step(x)).unwrap();
        assert_eq!(out1, out2);
        assert_eq!(out1.len(), 8);
        assert!(out1.iter().all(|&t| (t as usize) < 32));
    }

    #[test]
    fn empty_prompt_rejected() {
        let cfg = small_cfg();
        let weights = ModelWeights::seeded(&cfg, 4);
        let emb = Embedding::seeded(&cfg, 32, 5);
        let mut d = Decoder::new(cfg, weights);
        let r = generate_greedy(&emb, &[], 4, |x| d.step(x));
        assert!(matches!(r, Err(GenerateError::EmptyPrompt)));
    }
}
