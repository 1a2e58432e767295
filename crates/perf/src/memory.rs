//! Peak-memory planner (paper §III, Fig. 5).
//!
//! Walks the U-Net execution order tracking the live activation set: the
//! current feature map, the skip-connection stash (alive from the down
//! path until consumed on the up path — the U-Net peculiarity the paper
//! highlights), and each layer's transient buffers. Attention score
//! matrices `[batch·heads, tokens, kv_tokens]` are modeled explicitly;
//! they are what makes Stable Diffusion's VRAM explode with batch size
//! (the paper's `(256, 4096, 4096)` tensor ≈ 17 GB example).

use fpdq_nn::UNetConfig;

/// Peak-memory estimate breakdown (bytes).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryReport {
    /// Model parameters.
    pub weights: f64,
    /// Peak live activation set (excluding attention transients).
    pub activations: f64,
    /// Largest attention transient (scores + softmax output).
    pub attention: f64,
}

impl MemoryReport {
    /// Total peak bytes.
    pub fn total(&self) -> f64 {
        self.weights + self.activations + self.attention
    }

    /// Total in GiB.
    pub fn total_gib(&self) -> f64 {
        self.total() / (1024.0 * 1024.0 * 1024.0)
    }
}

/// Estimates peak inference memory for a U-Net.
///
/// `weight_bytes` / `act_bytes` are bytes per element of the respective
/// representations (4.0 for FP32, 1.0 for FP8/INT8, 0.5 for FP4 — the
/// quantization lever of the paper's Fig. 5 discussion).
pub fn peak_memory(
    cfg: &UNetConfig,
    input: (usize, usize, usize),
    batch: usize,
    ctx_len: usize,
    weight_bytes: f64,
    act_bytes: f64,
) -> MemoryReport {
    let base = cfg.base_channels as f64;
    let b = batch as f64;
    let heads = cfg.heads.max(1) as f64;
    let levels = cfg.channel_mults.len();
    let (_, ih, iw) = input;

    // Parameters: reuse the census (exact).
    let weights =
        crate::census::census(cfg, input, 1, ctx_len).total_params() as f64 * weight_bytes;

    let mut h = ih as f64;
    let mut w = iw as f64;
    let mut ch = base;
    let mut stash = vec![base * h * w]; // conv_in output
    let mut peak_live = 0.0f64;
    let mut peak_attn = 0.0f64;

    let visit_feature = |live_stash: f64, feat: f64, peak_live: &mut f64| {
        // Live set: stash + current map + one working copy.
        *peak_live = (*peak_live).max(live_stash + 2.0 * feat);
    };
    let visit_attention = |feat: f64,
                           tokens: f64,
                           kv: f64,
                           peak_attn: &mut f64,
                           live_stash: f64,
                           peak_live: &mut f64| {
        // Scores and their softmax: [b·heads, tokens, kv] ×2.
        let scores = b * heads * tokens * kv * 2.0;
        *peak_attn = (*peak_attn).max(scores * act_bytes);
        *peak_live = (*peak_live).max(live_stash + 2.0 * feat);
    };

    for (i, &mult) in cfg.channel_mults.iter().enumerate() {
        let out_ch = base * mult as f64;
        for _ in 0..cfg.num_res_blocks {
            ch = out_ch;
            let feat = b * ch * h * w * act_bytes;
            let live_stash: f64 = stash.iter().sum::<f64>() * b * act_bytes;
            visit_feature(live_stash, feat, &mut peak_live);
            if cfg.attn_levels.contains(&i) {
                visit_attention(feat, h * w, h * w, &mut peak_attn, live_stash, &mut peak_live);
                if cfg.context_dim.is_some() {
                    visit_attention(
                        feat,
                        h * w,
                        ctx_len as f64,
                        &mut peak_attn,
                        live_stash,
                        &mut peak_live,
                    );
                }
            }
            stash.push(ch * h * w);
        }
        if i != levels - 1 {
            h = (h / 2.0).ceil();
            w = (w / 2.0).ceil();
            stash.push(ch * h * w);
        }
    }

    // Mid block (deepest resolution, full stash alive).
    let live_stash: f64 = stash.iter().sum::<f64>() * b * act_bytes;
    let feat = b * ch * h * w * act_bytes;
    visit_feature(live_stash, feat, &mut peak_live);
    if !cfg.attn_levels.is_empty() || cfg.context_dim.is_some() {
        visit_attention(feat, h * w, h * w, &mut peak_attn, live_stash, &mut peak_live);
    }

    for (i, &mult) in cfg.channel_mults.iter().enumerate().rev() {
        let out_ch = base * mult as f64;
        for _ in 0..cfg.num_res_blocks + 1 {
            let skip = stash.pop().unwrap_or(0.0);
            let live_stash: f64 = stash.iter().sum::<f64>() * b * act_bytes;
            // The concat input: trunk map plus the popped skip (elements).
            let feat = b * (ch * h * w + skip) * act_bytes;
            let feat = feat.max(b * out_ch * h * w * act_bytes);
            ch = out_ch;
            visit_feature(live_stash, feat, &mut peak_live);
            if cfg.attn_levels.contains(&i) {
                visit_attention(feat, h * w, h * w, &mut peak_attn, live_stash, &mut peak_live);
            }
        }
        if i != 0 {
            h *= 2.0;
            w *= 2.0;
        }
    }

    MemoryReport { weights, activations: peak_live, attention: peak_attn }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::{sd_scale_config, sd_scale_input, SD_CONTEXT_LEN};

    fn sd_mem(batch: usize, wb: f64, ab: f64) -> MemoryReport {
        peak_memory(&sd_scale_config(), sd_scale_input(), batch, SD_CONTEXT_LEN, wb, ab)
    }

    #[test]
    fn up_path_concat_counts_trunk_and_skip_elements() {
        // One level, 4 channels on a 2×2 map, batch 1, one byte per value:
        // every feature map holds 16 elements. The live set peaks at the
        // first up block, whose input concatenates the 16-element trunk
        // with a 16-element skip while one more skip (16) stays stashed:
        // 16 + 2·(16 + 16) = 80.
        let cfg = UNetConfig {
            in_channels: 1,
            out_channels: 1,
            base_channels: 4,
            channel_mults: vec![1],
            num_res_blocks: 1,
            attn_levels: vec![],
            heads: 1,
            context_dim: None,
            norm_groups: 4,
        };
        let m = peak_memory(&cfg, (1, 2, 2), 1, 0, 1.0, 1.0);
        assert_eq!(m.activations, 80.0);
        assert_eq!(m.attention, 0.0);
    }

    #[test]
    fn batch16_fp32_lands_in_tens_of_gib() {
        // Paper Fig. 5: 54.9 GB peak at batch 16 on an 80 GB A100.
        let m = sd_mem(16, 4.0, 4.0);
        assert!(
            (15.0..120.0).contains(&m.total_gib()),
            "batch-16 estimate {:.1} GiB",
            m.total_gib()
        );
    }

    #[test]
    fn batch1_fp32_lands_in_single_digit_gib() {
        // Paper: 8.37 GB at batch 1.
        let m = sd_mem(1, 4.0, 4.0);
        assert!((1.0..20.0).contains(&m.total_gib()), "batch-1 estimate {:.1} GiB", m.total_gib());
    }

    #[test]
    fn attention_dominates_at_large_batch() {
        // §III: "most of the memory consumed is largely due to ... the
        // attention layers".
        let m = sd_mem(16, 4.0, 4.0);
        assert!(m.attention > m.total() * 0.4, "attention share {:.2}", m.attention / m.total());
    }

    #[test]
    fn attention_transient_matches_paper_example() {
        // Paper: the (256, 4096, 4096) attention tensor needs ≥ 17 GB in
        // FP32 at batch 16 (256 = 16 batch × 16 heads in their count; we
        // model heads=8, so expect the same order).
        let m = sd_mem(16, 4.0, 4.0);
        let gib = m.attention / (1024f64 * 1024.0 * 1024.0);
        assert!((4.0..80.0).contains(&gib), "attention transient {gib:.1} GiB");
    }

    #[test]
    fn memory_is_monotone_in_batch() {
        let mut last = 0.0;
        for batch in [1, 2, 4, 8, 16] {
            let t = sd_mem(batch, 4.0, 4.0).total();
            assert!(t > last, "not monotone at batch {batch}");
            last = t;
        }
    }

    #[test]
    fn quantization_shrinks_memory_as_paper_claims() {
        // §III: "This VRAM requirement could be reduced by 4× and 8× by
        // quantizing data values to FP8 and FP4".
        let fp32 = sd_mem(16, 4.0, 4.0).total();
        let fp8 = sd_mem(16, 1.0, 1.0).total();
        let fp4 = sd_mem(16, 0.5, 0.5).total();
        let r8 = fp32 / fp8;
        let r4 = fp32 / fp4;
        assert!((3.5..4.5).contains(&r8), "FP8 reduction {r8:.2}");
        assert!((7.0..9.0).contains(&r4), "FP4 reduction {r4:.2}");
    }
}
