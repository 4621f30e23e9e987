//! Transformer architecture configurations.

use mtp_tensor::Dtype;

/// Row-wise normalization flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormKind {
    /// LayerNorm (BERT-family).
    LayerNorm,
    /// RMSNorm (Llama-family).
    RmsNorm,
}

/// FFN activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Gaussian Error Linear Unit (the paper's FC description).
    Gelu,
    /// SiLU (`x * sigmoid(x)`).
    Silu,
}

/// Attention variant: bidirectional encoder or causal decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionKind {
    /// Bidirectional (encoder-only models such as MobileBERT).
    Bidirectional,
    /// Causal with rotary position embeddings (decoder-only, Llama-style).
    CausalRope,
}

/// Inference mode of a decoder-only model (paper Sec. II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InferenceMode {
    /// Token-by-token generation with a KV-cache; GEMV-dominated.
    Autoregressive,
    /// All prompt tokens processed in one pass; GEMM-dominated.
    Prompt,
}

impl InferenceMode {
    /// The mode's name in tables and output rows: `autoregressive` or
    /// `prompt` (also its `Display` form).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InferenceMode::Autoregressive => "autoregressive",
            InferenceMode::Prompt => "prompt",
        }
    }
}

impl std::fmt::Display for InferenceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Architectural parameters of a Transformer model.
///
/// Dimension names follow the paper: sequence length `S`, embedding
/// dimension `E`, per-head projection dimension `P`, head count `H`,
/// FFN intermediate dimension `F`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransformerConfig {
    /// Human-readable model name.
    pub name: String,
    /// Embedding dimension `E`.
    pub embed_dim: usize,
    /// Number of query attention heads `H`.
    pub n_heads: usize,
    /// Number of key/value heads (grouped-query attention). Equal to
    /// `n_heads` for classic multi-head attention; smaller values shrink
    /// both the K/V projection weights and the KV-cache, which directly
    /// relaxes the on-chip residency thresholds.
    pub n_kv_heads: usize,
    /// FFN intermediate dimension `F`.
    pub ffn_dim: usize,
    /// Number of Transformer blocks.
    pub n_layers: usize,
    /// Default sequence length `S` for this workload.
    pub seq_len: usize,
    /// Normalization flavour.
    pub norm: NormKind,
    /// FFN activation.
    pub activation: Activation,
    /// Attention variant.
    pub attention: AttentionKind,
    /// Deployment precision of weights and activations.
    pub dtype: Dtype,
}

impl TransformerConfig {
    /// The TinyLlama-42M decoder the paper deploys: `E = 512`, `F = 2048`,
    /// 8 layers, 8 heads, int8, KV-cache sequence length 128 in
    /// autoregressive mode.
    #[must_use]
    pub fn tiny_llama_42m() -> Self {
        TransformerConfig {
            name: "TinyLlama-42M".to_owned(),
            embed_dim: 512,
            n_heads: 8,
            n_kv_heads: 8,
            ffn_dim: 2048,
            n_layers: 8,
            seq_len: 128,
            norm: NormKind::RmsNorm,
            activation: Activation::Gelu,
            attention: AttentionKind::CausalRope,
            dtype: Dtype::Int8,
        }
    }

    /// The scalability-study variant: 64 heads, everything else unchanged
    /// (paper Sec. V-C).
    #[must_use]
    pub fn tiny_llama_scaled_64h() -> Self {
        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.name = "TinyLlama-42M-64h".to_owned();
        cfg.n_heads = 64;
        cfg.n_kv_heads = 64;
        cfg
    }

    /// A grouped-query variant of TinyLlama (extension beyond the paper):
    /// 8 query heads sharing `n_kv_heads` key/value heads, shrinking the
    /// K/V weights and KV-cache by `8 / n_kv_heads`.
    ///
    /// # Panics
    ///
    /// Panics when `n_kv_heads` does not divide 8.
    #[must_use]
    pub fn tiny_llama_gqa(n_kv_heads: usize) -> Self {
        assert!(8 % n_kv_heads == 0, "kv heads must divide the 8 query heads");
        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.name = format!("TinyLlama-42M-gqa{n_kv_heads}");
        cfg.n_kv_heads = n_kv_heads;
        cfg
    }

    /// A depth-scaled TinyLlama variant (extension beyond the paper):
    /// the TinyLlama-42M block replicated `n_layers` times, modelling the
    /// deep decoder stacks (96+ blocks) that periodic steady-state
    /// simulation makes cheap to study.
    ///
    /// # Panics
    ///
    /// Panics when `n_layers` is zero.
    #[must_use]
    pub fn tiny_llama_deep(n_layers: usize) -> Self {
        assert!(n_layers > 0, "a model needs at least one layer");
        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.name = format!("TinyLlama-42M-d{n_layers}");
        cfg.n_layers = n_layers;
        cfg
    }

    /// A depth-scaled MobileBERT variant: the MobileBERT block replicated
    /// `n_layers` times.
    ///
    /// # Panics
    ///
    /// Panics when `n_layers` is zero.
    #[must_use]
    pub fn mobile_bert_deep(n_layers: usize) -> Self {
        assert!(n_layers > 0, "a model needs at least one layer");
        let mut cfg = TransformerConfig::mobile_bert();
        cfg.name = format!("MobileBERT-d{n_layers}");
        cfg.n_layers = n_layers;
        cfg
    }

    /// The MobileBERT encoder workload: `E = F = 512`, 4 heads, sequence
    /// length 268 (paper Sec. V-A).
    #[must_use]
    pub fn mobile_bert() -> Self {
        TransformerConfig {
            name: "MobileBERT".to_owned(),
            embed_dim: 512,
            n_heads: 4,
            n_kv_heads: 4,
            ffn_dim: 512,
            n_layers: 24,
            seq_len: 268,
            norm: NormKind::LayerNorm,
            activation: Activation::Gelu,
            attention: AttentionKind::Bidirectional,
            dtype: Dtype::Int8,
        }
    }

    /// Per-head projection dimension `P = E / H`.
    ///
    /// # Panics
    ///
    /// Panics when `n_heads` does not divide `embed_dim` (an invalid
    /// configuration; [`TransformerConfig::validate`] reports it as an
    /// error instead).
    #[must_use]
    pub fn head_dim(&self) -> usize {
        assert!(
            self.embed_dim.is_multiple_of(self.n_heads),
            "head count must divide the embedding dimension"
        );
        self.embed_dim / self.n_heads
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.embed_dim == 0 || self.n_heads == 0 || self.ffn_dim == 0 || self.n_layers == 0 {
            return Err("all dimensions must be non-zero".to_owned());
        }
        if !self.embed_dim.is_multiple_of(self.n_heads) {
            return Err(format!(
                "heads ({}) must divide embedding dim ({})",
                self.n_heads, self.embed_dim
            ));
        }
        if self.n_kv_heads == 0 || !self.n_heads.is_multiple_of(self.n_kv_heads) {
            return Err(format!(
                "kv heads ({}) must divide query heads ({})",
                self.n_kv_heads, self.n_heads
            ));
        }
        if self.attention == AttentionKind::CausalRope && !self.head_dim().is_multiple_of(2) {
            return Err("rotary embeddings need an even head dimension".to_owned());
        }
        Ok(())
    }

    /// Width of the K/V projections: `n_kv_heads * P` (equals `E` for
    /// classic multi-head attention).
    #[must_use]
    pub fn kv_width(&self) -> usize {
        self.n_kv_heads * self.head_dim()
    }

    /// The same configuration with a different sequence length (the paper
    /// uses `S = 128` for autoregressive TinyLlama but `S = 16` in prompt
    /// mode).
    #[must_use]
    pub fn with_seq_len(mut self, seq_len: usize) -> Self {
        self.seq_len = seq_len;
        self
    }

    /// The same configuration with a different layer count (the depth
    /// axis: per-block structure is unchanged, only the stack height —
    /// and therefore the weight-residency thresholds — move).
    #[must_use]
    pub fn with_n_layers(mut self, n_layers: usize) -> Self {
        self.n_layers = n_layers;
        self
    }

    /// Parameters in one Transformer block: `W_Q`/`W_O` at `E x E`,
    /// `W_K`/`W_V` at `E x kv_width`, plus the `2 E F` FFN. For classic
    /// multi-head attention (`kv_width == E`) this is the paper's
    /// `4 E^2 + 2 E F`.
    #[must_use]
    pub fn params_per_block(&self) -> usize {
        2 * self.embed_dim * self.embed_dim
            + 2 * self.embed_dim * self.kv_width()
            + 2 * self.embed_dim * self.ffn_dim
    }

    /// Weight bytes of one block at the deployment dtype.
    #[must_use]
    pub fn block_weight_bytes(&self) -> u64 {
        (self.params_per_block() * self.dtype.size_bytes()) as u64
    }

    /// Weight bytes of all blocks.
    #[must_use]
    pub fn total_weight_bytes(&self) -> u64 {
        self.block_weight_bytes() * self.n_layers as u64
    }

    /// KV-cache bytes per block at context length `s` (keys + values, at
    /// the K/V width — grouped-query attention shrinks this).
    #[must_use]
    pub fn kv_cache_bytes_per_block(&self, s: usize) -> u64 {
        (2 * s * self.kv_width() * self.dtype.size_bytes()) as u64
    }

    /// The sequence length a linear kernel processes in the given mode
    /// (1 for autoregressive steps, `seq_len` for prompt/encoder passes).
    #[must_use]
    pub fn tokens_per_pass(&self, mode: InferenceMode) -> usize {
        match mode {
            InferenceMode::Autoregressive => 1,
            InferenceMode::Prompt => self.seq_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_llama_matches_paper_dimensions() {
        let c = TransformerConfig::tiny_llama_42m();
        assert_eq!(c.embed_dim, 512);
        assert_eq!(c.ffn_dim, 2048);
        assert_eq!(c.n_layers, 8);
        assert_eq!(c.n_heads, 8);
        assert_eq!(c.head_dim(), 64);
        assert_eq!(c.seq_len, 128);
        c.validate().unwrap();
    }

    #[test]
    fn tiny_llama_block_is_3_15_mib_int8() {
        let c = TransformerConfig::tiny_llama_42m();
        // 4*512*512 + 2*512*2048 = 3_145_728 params = 3 MiB at int8.
        assert_eq!(c.block_weight_bytes(), 3_145_728);
        // Too big for a single chip's 2 MiB L2: the single-chip system must
        // stream from L3 (this is the crux of the paper).
        assert!(c.block_weight_bytes() > 2 * 1024 * 1024);
    }

    #[test]
    fn scaled_model_keeps_other_params() {
        let c = TransformerConfig::tiny_llama_scaled_64h();
        assert_eq!(c.n_heads, 64);
        assert_eq!(c.head_dim(), 8);
        assert_eq!(c.params_per_block(), TransformerConfig::tiny_llama_42m().params_per_block());
        c.validate().unwrap();
    }

    #[test]
    fn mobile_bert_matches_paper() {
        let c = TransformerConfig::mobile_bert();
        assert_eq!(c.embed_dim, 512);
        assert_eq!(c.ffn_dim, 512);
        assert_eq!(c.n_heads, 4);
        assert_eq!(c.seq_len, 268);
        assert_eq!(c.params_per_block(), 6 * 512 * 512);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = TransformerConfig::tiny_llama_42m();
        c.n_heads = 3;
        assert!(c.validate().is_err());
        c.n_heads = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn kv_cache_bytes() {
        let c = TransformerConfig::tiny_llama_42m();
        // 2 * 128 * 512 int8 bytes.
        assert_eq!(c.kv_cache_bytes_per_block(128), 131_072);
    }

    #[test]
    fn deep_variants_scale_depth_only() {
        let base = TransformerConfig::tiny_llama_42m();
        let deep = TransformerConfig::tiny_llama_deep(96);
        assert_eq!(deep.n_layers, 96);
        assert_eq!(deep.name, "TinyLlama-42M-d96");
        assert_eq!(deep.params_per_block(), base.params_per_block());
        assert_eq!(deep.total_weight_bytes(), 12 * base.total_weight_bytes());
        deep.validate().unwrap();
        let mb = TransformerConfig::mobile_bert_deep(48);
        assert_eq!(mb.n_layers, 48);
        assert_eq!(mb.name, "MobileBERT-d48");
        assert_eq!(TransformerConfig::mobile_bert().with_n_layers(48).n_layers, 48);
    }

    #[test]
    fn tokens_per_pass() {
        let c = TransformerConfig::tiny_llama_42m();
        assert_eq!(c.tokens_per_pass(InferenceMode::Autoregressive), 1);
        assert_eq!(c.tokens_per_pass(InferenceMode::Prompt), 128);
    }
}
