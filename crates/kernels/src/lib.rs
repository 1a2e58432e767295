//! # fpdq-kernels
//!
//! Bit-exact software kernels for the quantized representations — the
//! packed *execution engine* of the reproduction:
//!
//! * [`packed`] — [`PackedTensor`], bit-packed storage of arbitrary ExMy
//!   floating-point and INT formats (FP8 → 1 byte/element, FP4/INT4 → 2
//!   elements/byte), proving the memory-footprint claims of the paper's
//!   §III;
//! * [`gemm`] / [`conv`] — dequantize-on-the-fly matmul and convolution
//!   over packed weights (the compute pattern of weight-only-quantized
//!   inference): entry points of the one GEMM and the one conv of
//!   `fpdq-tensor`, which dense `matmul_nt` and `conv2d` run too;
//! * [`exec`] — the wiring layer that flips a quantized U-Net from dense
//!   fake-quantized execution to these packed kernels.
//!
//! The engine is dense: the zeros the paper's quantizer creates (§VI-G,
//! Fig. 11) are measured by `fpdq_core::sparsity`, not exploited here —
//! at FP4's ~11% zeros a sparse kernel loses to the dense one.
//!
//! # One entry point per kernel
//!
//! Every packed kernel has exactly one public call, all over the one
//! packed type [`PackedTensor`]: [`gemm_packed`], [`conv2d_packed`] and
//! the decode [`PackedTensor::decode_range_into_as`]. The GEMM and the
//! conv take the optional fused activation quantizer
//! (`Option<&PanelQuantizer>`, per tensor or per channel) and an
//! [`Exec`] naming the ISA path and the worker count; [`Exec::default`]
//! is the shipping configuration (dispatched ISA, process-wide workers).
//! Under the bit-identity contract the output never depends on the
//! `Exec`. The GEMM takes activations `[.., k]` and reads them in place
//! as `numel / k` rows of a `[m, k]` matrix, so a packed Linear runs a
//! transformer's `[b, l, d]` tokens without a flattening copy and
//! returns `[m, n]`.
//!
//! Each of the two is a thin call into one engine of `fpdq-tensor`:
//! [`fpdq_tensor::matmul::gemm_nt`] and [`fpdq_tensor::conv::conv2d`],
//! with the packed weight as their decoded weight operand
//! ([`fpdq_tensor::operand::Weights::Decoded`]) and the quantizer as
//! their activation stage ([`fpdq_tensor::operand::ActStage`]). Dense
//! `Tensor::matmul_nt` and `Tensor::conv2d` are the same engines on
//! `f32` weights read in place, so on a packed weight's decoded values
//! the dense and packed entry points return the same bits by
//! construction: the images the fake-quantized harnesses score and the
//! images the packed engine serves differ only where their weights or
//! activation quantizers do.
//!
//! # Fused-epilogue packed execution architecture
//!
//! The hot path is built from four layers, each independently tested for
//! bit-exactness against the simulated quantizers:
//!
//! 1. **LUT decode** ([`packed`]). Formats whose code width divides a byte
//!    (FP4/INT4, FP8/INT8 — everything the paper deploys) decode through a
//!    256-entry per-byte lookup table of pre-signed `f32` values: one
//!    table load per element, no bit twiddling. Encode goes through a
//!    precomputed boundary table (exact thresholds found by bit-level
//!    bisection against the reference quantizer), eliminating the
//!    per-element `log2`/`powf` + binary search. Odd widths fall back to
//!    word-level shift unpacking.
//! 2. **Fused activation quantization** ([`fpdq_core::BoundaryQuantizer`]
//!    / [`fpdq_core::PanelQuantizer`]). The weight+activation
//!    configuration no longer fake-quantizes the whole activation tensor
//!    up front: activations are quantized *inside* the engines as they
//!    are staged, through boundary tables (the sign folded off, then one
//!    magnitude-rank lookup and one compare per element — no
//!    transcendentals, no intermediate tensor; a conv's input lands
//!    straight in its zero-bordered operand), per tensor, per channel,
//!    or split at a skip-connection concatenation (trunk and skip halves
//!    each through their own table), bit-exact with the simulated
//!    quantizers.
//! 3. **One tiled GEMM and one implicit-GEMM conv, with batched regimes**
//!    ([`fpdq_tensor::matmul::gemm_nt`], [`fpdq_tensor::conv::conv2d`],
//!    [`schedule`]). Each engine takes its weight rows from either source
//!    — `f32` rows read in place, or packed rows decoded into per-thread
//!    scratch — so dense and packed execution share one code path. The
//!    GEMM stages activation micro-panels (quantizing as it packs — each
//!    row exactly once per call) into the `[k][8]` interleaved layout of
//!    the 4×8 NT panel micro-kernel
//!    ([`fpdq_tensor::matmul::gemm_nt_panel_as`]), and decodes packed
//!    weight rows through the LUT decoder 8 rows at a time — each weight
//!    tile decoded **once per call**, however many images the batched
//!    activation matrix stacks; packed weights therefore run at or below
//!    dense-FP32 latency while moving 4-8× fewer weight bytes, and the
//!    per-image cost *falls* with the batch. The convolution is
//!    *implicit GEMM on the same micro-kernel*: a stride-1 conv whose
//!    8-pixel output tiles are whole panels reads each tile in place from
//!    the staged, zero-bordered image
//!    ([`fpdq_tensor::matmul::gemm_nt_direct_as`], the direct path);
//!    every other conv lowers each tile's `im2col` columns into an NT
//!    micro-panel ([`fpdq_tensor::conv::im2col_panel_into`]) and feeds it
//!    to the panel kernel. Either way the tiles meet a filter bank read in
//!    place or decoded once per call, and the whole-image `im2col` matrix
//!    never materialises. Both engines pick their parallel regime per
//!    call from the worker count and the actual tile counts
//!    ([`schedule`]): the GEMM between activation-row-parallel (every
//!    one-worker call, and narrow layers under batched activations) and
//!    weight-row-parallel, the convolution between batch-parallel
//!    workers staging their own images and channel-parallel workers
//!    sharing one staged image. Because the micro-kernels accumulate
//!    every output element in plain `k` order in every code path, results
//!    are bit-identical across regimes, tile schedules, thread counts and
//!    weight sources, and the fused path is bit-exact against
//!    "fake-quantize first, then run the same kernel" — so batch-N
//!    sampling reproduces N batch-1 runs bit-for-bit
//!    (`tests/batched_consistency.rs`).
//! 4. **Model wiring** ([`exec`]). Each quantized Linear/Conv layer has
//!    one forward body, the same engine call for dense and packed
//!    weights. `pack_unet` re-encodes a PTQ'd model's baked weights into
//!    their searched formats and installs them ([`install_packed`], the
//!    one install path, which the container loader shares) into every
//!    quantized layer's [`fpdq_nn::PackedSlot`]: the packed weight, a
//!    bias copy, the conv spec and, for every layer whose tap quantizes,
//!    the fused activation stage — per tensor for a whole-input format,
//!    and for the layers consuming a skip-connection concatenation
//!    [`fpdq_core::PanelQuantizer::split`] (trunk format below the split
//!    channel, skip format from it on), without the tap's
//!    `narrow`/`concat` copies. The tap keeps its quantizer closures and
//!    skips quantizing while the slot holds a fused stage, so
//!    `unpack_unet` only clears the slots.
//!
//! # Runtime SIMD dispatch
//!
//! The three hot loops — the 4×8 NT micro-kernel
//! ([`fpdq_tensor::matmul::gemm_nt_panel_as`]), the per-byte LUT decode
//! ([`packed`]), and the folded boundary-table activation quantizer
//! ([`fpdq_core::BoundaryQuantizer`]) — carry explicit SIMD
//! implementations selected at *runtime* by [`fpdq_tensor::simd`]: AVX2
//! on x86-64 (4×8 accumulator blocks in 256-bit registers; 32-byte
//! gather/shuffle LUT decode; three gathers per 8 quantized elements), NEON
//! on aarch64 (micro-kernel only; decode and quantize run the scalar walk
//! there). CPU features are probed once per process and
//! `FPDQ_FORCE_SCALAR=1` pins everything to the scalar reference
//! kernels.
//!
//! **The bit-identity contract** (specified in [`fpdq_tensor::simd`]):
//! every ISA path produces bit-identical output to the scalar reference.
//! The SIMD kernels therefore perform the same IEEE-754 operations in the
//! same per-element order — mul-then-add per ascending `k`, never a fused
//! multiply-add, same operand order, same NaN/±∞ handling. Every
//! kernel takes its ISA explicitly (the packed kernels through [`Exec`];
//! [`PackedTensor::decode_range_into_as`], `quantize_slice_into_as` and
//! `gemm_nt_panel_as` directly) so the differential suite in
//! `tests/simd_consistency.rs` drives both sides of every dispatch in one
//! process; CI re-runs the whole workspace under `FPDQ_FORCE_SCALAR=1`,
//! under `RUSTFLAGS="-C target-feature=+avx2,+fma"`, and build-checks the
//! NEON path for `aarch64-unknown-linux-gnu`. To add a new ISA path,
//! follow the checklist in [`fpdq_tensor::simd`] — implement behind
//! runtime detection, obey the contract, route it in the ISA-taking
//! kernels (falling back to scalar when unsupported), and the
//! ISA-sweeping tests pick it up automatically.
//!
//! # Threading model
//!
//! Parallelism comes from `fpdq_tensor::parallel` scoped-thread helpers:
//! the GEMM splits packed weight rows or activation rows on the 4-row
//! register-block grid (`parallel_rows_aligned_in`), the conv splits
//! batches or output channels — regime chosen per call by [`schedule`]
//! from tile counts vs. workers — and every worker owns its scratch
//! (decoded weight tile, quantized activation block, quantized and
//! bordered image, `im2col` micro-panels), kept per thread across calls,
//! so no synchronisation happens inside a tile; the pre-quantized
//! activation panel bank, the decoded filter bank, and the
//! channel-parallel conv's staged image are built once per call and
//! shared read-only. Worker-chunk boundaries are
//! pinned to the block grid, which — together with the fixed-`k`-order
//! accumulation — makes multi-threaded output bit-identical to
//! single-threaded output. `FPDQ_THREADS` caps the default worker count;
//! an explicit [`Exec::workers`] lets tests and tuners sweep schedules in
//! one process.
//!
//! The pre-optimisation bit-loop implementations survive as `*_bitloop`
//! reference functions; property tests pin the fast paths to them, and the
//! `pack` group of the `fpdq-bench` criterion suite benchmarks both sides
//! (LUT-vs-bitloop decode) in one run and persists machine-readable
//! results to `BENCH_kernels.json`.

pub mod conv;
pub mod exec;
pub mod gemm;
pub mod packed;

/// Batched execution-regime selection of the GEMM and conv engines (which
/// live in `fpdq-tensor`, next to their decision functions).
pub use fpdq_tensor::schedule;

pub use conv::conv2d_packed;
pub use exec::{
    install_packed, pack_unet, try_pack_unet, unpack_unet, PackReport, PackedLayerInfo,
};
/// The execution context every packed kernel takes (defined next to the
/// worker-count helpers in `fpdq-tensor`).
pub use fpdq_tensor::parallel::Exec;
pub use gemm::gemm_packed;
pub use packed::PackedTensor;
pub use schedule::{pick_conv_regime, pick_gemm_regime, ConvRegime, GemmRegime};
