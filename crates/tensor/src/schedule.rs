//! Batched execution-regime selection for the GEMM/conv engines.
//!
//! Batch-1 sampling and batched multi-image sampling want opposite
//! parallel decompositions, and the boundary between them depends on the
//! actual work-grain counts, not on the batch size alone. This module
//! holds the (pure, unit-testable) decision functions that the GEMM
//! ([`crate::matmul::gemm_nt`]) and the convolution ([`crate::conv::conv2d`])
//! schedule by, for dense and packed weights alike (re-exported as
//! `fpdq_kernels::schedule`).
//!
//! # Why tile counts, not raw sizes
//!
//! The earlier heuristic in the conv path compared the batch size against
//! the worker count (`n < workers` → channel-parallel). That misschedules
//! two regions:
//!
//! * `n` slightly above `workers` (e.g. `n == workers + 1`): the
//!   batch-parallel split hands ⌈n/W⌉ = 2 images to roughly half the
//!   workers and leaves the rest idle — ~2× the wall time of one image
//!   when the channel grid could have kept every worker busy.
//! * `n` slightly below `workers` with few output-channel tiles: the
//!   channel-parallel split can only occupy `ctiles` workers per image,
//!   so wide batches of narrow layers serialize needlessly.
//!
//! Instead both candidate schedules are costed in *wall-clock tile
//! units* — the number of sequential output tiles the slowest worker
//! processes — and the cheaper one wins. Both schedules group output
//! rows in the same register-block tiles and accumulate each output
//! element in plain `k` order, so the choice never changes a single
//! output bit (the property `tests/batched_consistency.rs` pins).

/// Row-block height of the NT micro-kernel ([`crate::matmul::NT_MR`]) —
/// the tile grain of both the GEMM and the implicit-GEMM conv.
const BLOCK_ROWS: usize = 4;

/// Activation rows per quantize/stream block of the GEMM's
/// column-parallel schedule (the scratch grain of
/// [`crate::matmul::gemm_nt`]).
/// Below this the row-parallel schedule's whole activation panel bank is
/// cache-resident; above it the activation-stationary schedule streams
/// ~4× less (its hot block is a 4-panel stripe instead of an 8-row
/// weight tile) and skips the output transpose.
pub const ACT_BLOCK: usize = 32;

/// Multiply-adds below which a worker's share of a dense GEMM does not
/// pay for starting the worker: an empty two-worker parallel region costs
/// ~67 µs on a 2-vCPU AVX2 host (fpdqbench's
/// `tensor.parallel_region_us`), in which one worker runs ~1.3M
/// multiply-adds of the NT kernel.
const MIN_WORKER_MACS: usize = 1 << 20;

/// The workers worth starting for a call of `macs` multiply-adds: at
/// most `workers`, at most one per 2^20 multiply-adds, and at least one.
pub fn workers_for(macs: usize, workers: usize) -> usize {
    workers.min(macs / MIN_WORKER_MACS).max(1)
}

/// Parallel decomposition of the GEMM (`[m, k] × [n, k]ᵀ`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmRegime {
    /// Split the *weight rows* (`n`) across workers; each worker
    /// decodes only its own weight tiles and streams the shared
    /// pre-quantized activation panels (the weight-stationary schedule),
    /// into an `[n, m]` block transposed at the end.
    RowParallel,
    /// Split the *activation rows* (`m`) across workers against a shared
    /// decoded weight-panel bank; each weight tile is decoded exactly
    /// once per call, and the output is written in place (the
    /// activation-stationary schedule: every one-worker call, and batched
    /// sampling of narrow layers).
    ColParallel,
}

/// Parallel decomposition of the convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConvRegime {
    /// One batch image per work grain; each worker stages its images in
    /// its own scratch and sweeps the shared decoded filter bank.
    BatchParallel,
    /// Images in sequence; within one image the output channels split
    /// across workers on the 4-row block grid.
    ChannelParallel,
}

/// Number of `BLOCK_ROWS`-row output tiles for `rows` output rows.
fn tiles(rows: usize) -> usize {
    rows.div_ceil(BLOCK_ROWS)
}

/// Wall-clock cost, in tiles, of splitting `grains` work grains of
/// `tiles_per_grain` tiles each across `workers` (each grain is
/// indivisible).
fn wall_tiles(grains: usize, tiles_per_grain: usize, workers: usize) -> usize {
    grains.div_ceil(workers.max(1)) * tiles_per_grain
}

/// Picks the GEMM regime for an `[m, k] × [n, k]ᵀ` call on
/// `workers` threads.
///
/// On one worker (`0` counts as 1) there is nothing to split, and
/// column-parallel always wins: it writes the `[m, n]` output in place,
/// while row-parallel builds an `[n, m]` block and transposes it, which
/// costs a fifth of a 16×16×16 served linear. On several workers,
/// row-parallel offers `⌈n/4⌉` grains and column-parallel `⌈m/4⌉`. For
/// small activation matrices (`m ≤` [`ACT_BLOCK`] — the batch-1 latency
/// shapes) the weight-stationary row-parallel schedule then wins unless
/// it strictly under-fills the workers (narrow layers): its activation
/// panels are quantized once, not once per worker. At batched sizes
/// (`m >` [`ACT_BLOCK`]) the activation-stationary schedule streams less
/// memory per tile and skips the transpose, so it wins whenever it keeps
/// at least as many workers busy.
pub fn pick_gemm_regime(m: usize, n: usize, workers: usize) -> GemmRegime {
    if workers <= 1 {
        return GemmRegime::ColParallel;
    }
    let row_busy = workers.min(tiles(n));
    let col_busy = workers.min(tiles(m));
    let col_wins = if m > ACT_BLOCK { col_busy >= row_busy } else { col_busy > row_busy };
    if col_wins {
        GemmRegime::ColParallel
    } else {
        GemmRegime::RowParallel
    }
}

/// Picks the conv regime for a batch of `n` images with `o`
/// output channels on `workers` threads.
///
/// Compares the wall-clock tile cost of the two schedules directly:
/// batch-parallel runs `⌈n/W⌉` rounds of a full image (`⌈o/4⌉` tiles),
/// channel-parallel runs `n` images of `⌈⌈o/4⌉/W⌉` tiles each. Ties go
/// to batch-parallel (it also spawns one region per call, not one per
/// image). With one worker both costs coincide and the
/// batch-parallel (single pass) schedule is used.
///
/// The model deliberately counts tiles only. Channel-parallel spawns
/// one scoped-thread region per image (`n·W` spawns vs. `W`), an
/// overhead of microseconds per image that the model ignores; it is
/// only chosen when it saves at least one full image's worth of tile
/// imbalance (≥ the per-image GEMM time, orders of magnitude larger),
/// and `n` is bounded near the worker count in this regime, so the
/// uncounted spawns cannot flip the comparison's sign.
pub fn pick_conv_regime(n: usize, o: usize, workers: usize) -> ConvRegime {
    let ctiles = tiles(o);
    let batch_wall = wall_tiles(n, ctiles, workers);
    let channel_wall = n * wall_tiles(ctiles, 1, workers);
    if channel_wall < batch_wall {
        ConvRegime::ChannelParallel
    } else {
        ConvRegime::BatchParallel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_one_keeps_latency_schedules() {
        // The batch-1 sampling case must stay channel-parallel whenever
        // more than one channel tile exists (the pre-batching behavior).
        assert_eq!(pick_conv_regime(1, 32, 8), ConvRegime::ChannelParallel);
        // A single channel tile is a tie, which goes batch-parallel.
        assert_eq!(pick_conv_regime(1, 4, 8), ConvRegime::BatchParallel);
        // GEMM with one activation row stays weight-row-parallel.
        assert_eq!(pick_gemm_regime(1, 256, 8), GemmRegime::RowParallel);
    }

    #[test]
    fn conv_boundary_at_workers_minus_one() {
        // n == W - 1 with several channel tiles: the old `n < workers`
        // rule forced channel-parallel; the tile costs agree here
        // (channel: 7 × 2 = 14 < batch: ⌈7/8⌉ × 16 = 16).
        assert_eq!(pick_conv_regime(7, 64, 8), ConvRegime::ChannelParallel);
        // ... but with few channel tiles the channel grid under-fills
        // the workers and batch-parallel must win despite n < W
        // (channel: 7 × 1 = 7 > batch: ⌈7/8⌉ × 1 = 1).
        assert_eq!(pick_conv_regime(7, 4, 8), ConvRegime::BatchParallel);
    }

    #[test]
    fn conv_boundary_at_workers_exactly() {
        // n == W: one image per worker is a perfect batch-parallel fill.
        assert_eq!(pick_conv_regime(8, 64, 8), ConvRegime::BatchParallel);
        assert_eq!(pick_conv_regime(8, 4, 8), ConvRegime::BatchParallel);
    }

    #[test]
    fn conv_boundary_at_workers_plus_one() {
        // n == W + 1: the old `n >= workers` rule forced batch-parallel,
        // which runs 2 serial rounds with most workers idle in the
        // second (batch: 2 × 16 = 32); the channel grid keeps every
        // worker busy (channel: 9 × 2 = 18).
        assert_eq!(pick_conv_regime(9, 64, 8), ConvRegime::ChannelParallel);
        // With a single channel tile there is nothing to split within an
        // image, so the 2-round batch schedule still wins.
        assert_eq!(pick_conv_regime(9, 4, 8), ConvRegime::BatchParallel);
    }

    #[test]
    fn large_batches_go_batch_parallel() {
        assert_eq!(pick_conv_regime(64, 32, 8), ConvRegime::BatchParallel);
        assert_eq!(pick_conv_regime(1024, 256, 16), ConvRegime::BatchParallel);
    }

    #[test]
    fn single_worker_is_batch_parallel() {
        for n in [1usize, 2, 7, 8, 9] {
            assert_eq!(pick_conv_regime(n, 64, 1), ConvRegime::BatchParallel, "n = {n}");
        }
    }

    #[test]
    fn gemm_regime_flips_with_batch_scale_and_layer_width() {
        // n = 16 gives 4 weight-row grains; a batched m = 512 offers far
        // more — the under-filled workers flip to column-parallel.
        assert_eq!(pick_gemm_regime(512, 16, 8), GemmRegime::ColParallel);
        // Above ACT_BLOCK the activation-stationary schedule also wins
        // ties: it streams less and skips the transpose.
        assert_eq!(pick_gemm_regime(512, 256, 8), GemmRegime::ColParallel);
        // ... but not when its grains under-fill the workers.
        assert_eq!(pick_gemm_regime(40, 256, 16), GemmRegime::RowParallel);
        // At or below ACT_BLOCK (batch-1 latency shapes) ties stay
        // row-parallel.
        assert_eq!(pick_gemm_regime(32, 32, 8), GemmRegime::RowParallel);
        assert_eq!(pick_gemm_regime(32, 8, 8), GemmRegime::ColParallel); // strict win
    }

    #[test]
    fn small_calls_run_on_fewer_workers() {
        assert_eq!(workers_for(0, 8), 1);
        assert_eq!(workers_for(MIN_WORKER_MACS - 1, 8), 1);
        assert_eq!(workers_for(3 * MIN_WORKER_MACS, 8), 3);
        assert_eq!(workers_for(usize::MAX, 2), 2);
        assert_eq!(workers_for(usize::MAX, 0), 1);
    }

    #[test]
    fn degenerate_worker_counts_do_not_panic() {
        // Zero workers count as one, which always writes in place.
        assert_eq!(pick_gemm_regime(8, 8, 0), GemmRegime::ColParallel);
        assert_eq!(pick_conv_regime(2, 8, 0), ConvRegime::BatchParallel);
    }
}
