//! The transformer model zoo (reconstructed Table 1).
//!
//! Parameter counts are derived from the architecture shape with the
//! standard decoder-block accounting (12·h² weights plus biases and
//! layer-norms per block, plus token and position embeddings) and validated
//! in tests against the published totals.

use serde::{Deserialize, Serialize};

/// One named parameter tensor of a transformer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerShape {
    /// Name, e.g. `block17.attn.qkv` or `embed.token`.
    pub name: String,
    /// First parameter index (global, contiguous ordering).
    pub offset: u64,
    /// Parameter count.
    pub params: u64,
}

/// Architectural shape of a (decoder-style) transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Display name (matches the published model).
    pub name: &'static str,
    /// Transformer blocks.
    pub layers: u32,
    /// Hidden size.
    pub hidden: u32,
    /// Attention heads.
    pub heads: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// Maximum sequence length (also the position-embedding count).
    pub seq_len: u32,
}

impl TransformerConfig {
    /// Total trainable parameters.
    ///
    /// Per block: QKV + output projection (4·h²+4·h), MLP up/down
    /// (8·h²+5·h), and two layer-norms (4·h). Plus token embeddings
    /// (vocab·h), position embeddings (seq·h), and a final layer-norm.
    pub fn params(&self) -> u64 {
        let h = self.hidden as u64;
        let per_block = 12 * h * h + 13 * h;
        let blocks = self.layers as u64 * per_block;
        let embeddings = (self.vocab as u64 + self.seq_len as u64) * h;
        blocks + embeddings + 2 * h
    }

    /// Parameters in billions (for display).
    pub fn params_b(&self) -> f64 {
        self.params() as f64 / 1e9
    }

    /// FLOPs for one training iteration over `tokens` tokens, using the
    /// standard ≈6·N·D estimate (forward 2·N·D, backward 4·N·D).
    pub fn train_flops(&self, tokens: u64) -> u64 {
        6u64.saturating_mul(self.params()).saturating_mul(tokens)
    }
}

/// BERT-Large, 0.34 B.
pub fn bert_large() -> TransformerConfig {
    TransformerConfig {
        name: "bert-large",
        layers: 24,
        hidden: 1024,
        heads: 16,
        vocab: 30522,
        seq_len: 512,
    }
}

/// GPT-2 XL, 1.6 B.
pub fn gpt2_xl() -> TransformerConfig {
    TransformerConfig {
        name: "gpt2-xl",
        layers: 48,
        hidden: 1600,
        heads: 25,
        vocab: 50257,
        seq_len: 1024,
    }
}

/// GPT-3 2.7 B.
pub fn gpt3_2_7b() -> TransformerConfig {
    TransformerConfig {
        name: "gpt3-2.7b",
        layers: 32,
        hidden: 2560,
        heads: 32,
        vocab: 50257,
        seq_len: 2048,
    }
}

/// GPT-3 6.7 B.
pub fn gpt3_6_7b() -> TransformerConfig {
    TransformerConfig {
        name: "gpt3-6.7b",
        layers: 32,
        hidden: 4096,
        heads: 32,
        vocab: 50257,
        seq_len: 2048,
    }
}

/// GPT-3 13 B.
pub fn gpt3_13b() -> TransformerConfig {
    TransformerConfig {
        name: "gpt3-13b",
        layers: 40,
        hidden: 5140,
        heads: 40,
        vocab: 50257,
        seq_len: 2048,
    }
}

/// Turing-NLG, 17 B.
pub fn turing_nlg_17b() -> TransformerConfig {
    TransformerConfig {
        name: "turing-nlg-17b",
        layers: 78,
        hidden: 4256,
        heads: 28,
        vocab: 50257,
        seq_len: 1024,
    }
}

/// GPT-3 175 B.
pub fn gpt3_175b() -> TransformerConfig {
    TransformerConfig {
        name: "gpt3-175b",
        layers: 96,
        hidden: 12288,
        heads: 96,
        vocab: 50257,
        seq_len: 2048,
    }
}

/// The evaluation model set, smallest to largest (reconstructed Table 1).
pub fn evaluation_models() -> Vec<TransformerConfig> {
    vec![
        bert_large(),
        gpt2_xl(),
        gpt3_2_7b(),
        gpt3_6_7b(),
        gpt3_13b(),
        turing_nlg_17b(),
        gpt3_175b(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TransformerConfig {
        /// The model's parameter tensors in global order, with contiguous
        /// offsets. Layer-freezing drivers use this to map layers to parameter
        /// ranges (and therefore to update groups and dies).
        pub fn layer_table(&self) -> Vec<LayerShape> {
            let h = self.hidden as u64;
            let mut out = Vec::new();
            let mut offset = 0u64;
            let mut push = |out: &mut Vec<LayerShape>, name: String, params: u64| {
                out.push(LayerShape {
                    name,
                    offset,
                    params,
                });
                offset += params;
            };
            push(&mut out, "embed.token".into(), self.vocab as u64 * h);
            push(&mut out, "embed.position".into(), self.seq_len as u64 * h);
            for l in 0..self.layers {
                push(&mut out, format!("block{l}.ln1"), 2 * h);
                push(&mut out, format!("block{l}.attn.qkv"), 3 * h * h + 3 * h);
                push(&mut out, format!("block{l}.attn.out"), h * h + h);
                push(&mut out, format!("block{l}.ln2"), 2 * h);
                push(&mut out, format!("block{l}.mlp.up"), 4 * h * h + 4 * h);
                push(&mut out, format!("block{l}.mlp.down"), 4 * h * h + h);
            }
            push(&mut out, "final.ln".into(), 2 * h);
            out
        }

        /// A tiny model for functional tests (≈1.8 M parameters).
        pub fn tiny_1m() -> Self {
            TransformerConfig {
                name: "tiny-1m",
                layers: 2,
                hidden: 256,
                heads: 4,
                vocab: 1000,
                seq_len: 128,
            }
        }

        /// A small functional model (≈13 M parameters).
        pub fn mini_13m() -> Self {
            TransformerConfig {
                name: "mini-13m",
                layers: 6,
                hidden: 512,
                heads: 8,
                vocab: 8000,
                seq_len: 512,
            }
        }
    }

    /// Published parameter counts, in billions, with tolerated relative
    /// error: architecture-derived counts differ from marketing numbers by
    /// a few percent.
    const PUBLISHED: &[(&str, f64, f64)] = &[
        ("bert-large", 0.34, 0.05),
        ("gpt2-xl", 1.56, 0.05),
        ("gpt3-2.7b", 2.65, 0.05),
        ("gpt3-6.7b", 6.65, 0.05),
        ("gpt3-13b", 12.85, 0.05),
        ("turing-nlg-17b", 17.0, 0.05),
        ("gpt3-175b", 174.6, 0.05),
    ];

    #[test]
    fn parameter_counts_match_published_sizes() {
        for m in evaluation_models() {
            let (_, expect, tol) = PUBLISHED
                .iter()
                .find(|(n, _, _)| *n == m.name)
                .unwrap_or_else(|| panic!("no published size for {}", m.name));
            let got = m.params_b();
            let rel = (got - expect).abs() / expect;
            assert!(
                rel <= *tol,
                "{}: derived {got:.3} B vs published {expect} B (rel err {rel:.3})",
                m.name
            );
        }
    }

    #[test]
    fn zoo_is_sorted_by_size() {
        let sizes: Vec<u64> = evaluation_models().iter().map(|m| m.params()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn tiny_models_are_tiny() {
        assert!(TransformerConfig::tiny_1m().params() < 3_000_000);
        assert!(TransformerConfig::mini_13m().params() < 30_000_000);
    }

    #[test]
    fn layer_table_covers_every_parameter_exactly_once() {
        for m in [TransformerConfig::tiny_1m(), bert_large(), gpt3_13b()] {
            let table = m.layer_table();
            let mut expected_offset = 0u64;
            for layer in &table {
                assert_eq!(layer.offset, expected_offset, "{}: {}", m.name, layer.name);
                assert!(layer.params > 0);
                expected_offset = layer.offset + layer.params;
            }
            assert_eq!(expected_offset, m.params(), "{}", m.name);
        }
    }

    #[test]
    fn layer_table_names_are_unique() {
        let table = gpt2_xl().layer_table();
        let names: std::collections::HashSet<&str> =
            table.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names.len(), table.len());
    }

    #[test]
    fn train_flops_scale() {
        let m = gpt3_13b();
        let tokens = 2048u64;
        assert_eq!(m.train_flops(tokens), 6 * m.params() * tokens);
    }
}
