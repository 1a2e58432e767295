//! Primitive layers: [`Linear`], [`Conv2d`], [`GroupNorm`], [`LayerNorm`],
//! and the quantization tap machinery.

use fpdq_autograd::Param;
use fpdq_tensor::conv::{conv2d, Conv2dSpec};
use fpdq_tensor::matmul::gemm_nt;
use fpdq_tensor::operand::{ActStage, DecodeRows, Weights};
use fpdq_tensor::parallel::Exec;
use fpdq_tensor::simd::{self, Isa};
use fpdq_tensor::{Shape, Tensor};
use rand::Rng;
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

/// An activation fake-quantizer installed into a layer's [`Tap`].
///
/// Implemented by `fpdq-core`'s searched FP/INT quantizers; the nn crate
/// only knows the function shape.
pub type ActQuantFn = Rc<dyn Fn(&Tensor) -> Tensor>;

/// The packed execution state of a quantizable layer: its weight as a
/// packed low-bit tensor, the activation stage fused into the engine
/// (when the layer's activations are quantized there), a bias copy, and
/// the conv spec (`None` for a linear).
struct Packed {
    weight: Box<dyn DecodeRows>,
    act: Option<Box<dyn ActStage>>,
    bias: Option<Tensor>,
    spec: Option<Conv2dSpec>,
}

/// Slot on a quantizable layer holding its packed weight, once the
/// packing driver in `fpdq-kernels` has installed one. The layer then
/// runs the same forward body on the packed weight's decoded rows
/// ([`Weights::Decoded`]) instead of its `f32` weight. A fused activation
/// stage quantizes the input inside the engine, so the layer's [`Tap`]
/// captures but does not quantize; the tap keeps its quantizers for when
/// the slot is cleared.
#[derive(Default)]
pub struct PackedSlot {
    packed: RefCell<Option<Packed>>,
}

impl std::fmt::Debug for PackedSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedSlot")
            .field("installed", &self.is_installed())
            .field("fused_act", &self.fuses_act())
            .finish()
    }
}

impl PackedSlot {
    /// Installs a packed weight (`[out, in]` for a linear, with `spec`
    /// `None`; `[o, c, kh, kw]` for a conv), the optional fused activation
    /// stage and the bias, replacing any earlier install.
    pub fn install(
        &self,
        weight: Box<dyn DecodeRows>,
        act: Option<Box<dyn ActStage>>,
        bias: Option<Tensor>,
        spec: Option<Conv2dSpec>,
    ) {
        *self.packed.borrow_mut() = Some(Packed { weight, act, bias, spec });
    }

    /// Removes the packed weight, reverting to dense execution.
    pub fn clear(&self) {
        *self.packed.borrow_mut() = None;
    }

    /// Whether a packed weight is installed.
    pub fn is_installed(&self) -> bool {
        self.packed.borrow().is_some()
    }

    /// Whether the installed forward quantizes its input in the engine.
    fn fuses_act(&self) -> bool {
        self.packed.borrow().as_ref().is_some_and(|p| p.act.is_some())
    }

    /// Runs the layer body on the packed weight for a tapped input, if
    /// installed.
    pub fn run(&self, x: &Tensor) -> Option<Tensor> {
        let packed = self.packed.borrow();
        let p = packed.as_ref()?;
        let (w, act, bias) = (Weights::Decoded(&*p.weight), p.act.as_deref(), p.bias.as_ref());
        Some(match p.spec {
            None => linear_body(x, w, bias, act),
            Some(spec) => conv_body(x, w, bias, spec, act),
        })
    }
}

/// The one Linear forward, over dense and packed weights alike: the NT
/// GEMM reads a 2-D `[rows, in]` or 3-D `[b, l, in]` input as its rows in
/// place, the bias is added in place, and the `[rows, out]` result moves
/// into the input's leading dims ([`Tensor::into_shape`]). Both layer
/// bodies start only the workers their multiply-adds pay for
/// ([`Exec::for_macs`]).
fn linear_body(
    x: &Tensor,
    w: Weights<'_>,
    bias: Option<&Tensor>,
    act: Option<&dyn ActStage>,
) -> Tensor {
    let rank = x.ndim();
    assert!(matches!(rank, 2 | 3), "Linear expects 2-D or 3-D input, got rank {rank}");
    let out = w.dims()[0];
    let mut y = gemm_nt(x, w, act, Exec::for_macs(x.numel().saturating_mul(out)));
    if let Some(b) = bias {
        for row in y.data_mut().chunks_exact_mut(out.max(1)) {
            for (v, &bv) in row.iter_mut().zip(b.data()) {
                *v += bv;
            }
        }
    }
    let mut dims = x.dims().to_vec();
    dims[rank - 1] = out;
    y.into_shape(&dims)
}

/// The one Conv2d forward, over dense and packed weights alike.
fn conv_body(
    x: &Tensor,
    w: Weights<'_>,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    act: Option<&dyn ActStage>,
) -> Tensor {
    let macs = match (x.dims(), w.dims()) {
        (&[n, _, h, iw], &[o, c, kh, kw]) => {
            let ohow = spec.out_extent(h, kh) * spec.out_extent(iw, kw);
            n.saturating_mul(o).saturating_mul(ohow).saturating_mul(c * kh * kw)
        }
        _ => 0,
    };
    conv2d(x, w, bias, spec, act, Exec::for_macs(macs))
}

/// Runs `f` on the value of an optional bias parameter.
fn with_bias<R>(bias: &Option<Param>, f: impl FnOnce(Option<&Tensor>) -> R) -> R {
    match bias {
        Some(b) => b.with_value(|b| f(Some(b))),
        None => f(None),
    }
}

/// Which kind of quantizable layer (the paper quantizes convolution and
/// linear layers, leaving normalisation and SiLU in full precision, §VI-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuantKind {
    /// A 2-D convolution.
    Conv,
    /// A fully connected layer (including attention projections).
    Linear,
}

/// Post-training-quantization hooks on a quantizable layer's *input*.
///
/// * `capture` — when set, inference pushes a clone of each input here
///   (used to build the paper's initialization/calibration datasets).
/// * `act_quant` — fake-quantizes the input (whole tensor, or the trunk
///   half when `split` is set).
/// * `act_quant_skip` — independent quantizer for the skip-connection half
///   of a concatenated input (Q-Diffusion's split quantization, §VI-A).
#[derive(Clone, Default)]
pub struct Tap {
    /// Calibration capture buffer.
    pub capture: Option<Rc<RefCell<Vec<Tensor>>>>,
    /// Input activation quantizer (trunk half when split).
    pub act_quant: Option<ActQuantFn>,
    /// Skip-half activation quantizer (only used when the layer consumes a
    /// concatenation and a split point is configured).
    pub act_quant_skip: Option<ActQuantFn>,
}

impl std::fmt::Debug for Tap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tap")
            .field("capture", &self.capture.as_ref().map(|c| c.borrow().len()))
            .field("act_quant", &self.act_quant.is_some())
            .field("act_quant_skip", &self.act_quant_skip.is_some())
            .finish()
    }
}

impl Tap {
    /// Applies the tap to a layer input: capture first, then quantize
    /// unless `fused` (the layer's packed forward quantizes inside the
    /// engine). A tap that does not quantize passes the input through
    /// without copying it.
    ///
    /// `split` is the channel (conv) or feature (linear) index where the
    /// skip half of a concatenated input begins; `axis` is the channel axis.
    fn apply<'a>(
        &self,
        x: &'a Tensor,
        split: Option<usize>,
        axis: usize,
        fused: bool,
    ) -> Cow<'a, Tensor> {
        if let Some(buf) = &self.capture {
            buf.borrow_mut().push(x.clone());
        }
        if fused {
            return Cow::Borrowed(x);
        }
        match (&self.act_quant, split, &self.act_quant_skip) {
            (Some(q), Some(at), Some(qs)) if at < x.dim(axis) => {
                let trunk = x.narrow(axis, 0, at);
                let skip = x.narrow(axis, at, x.dim(axis) - at);
                Cow::Owned(Tensor::concat(&[&q(&trunk), &qs(&skip)], axis))
            }
            (Some(q), _, _) => Cow::Owned(q(x)),
            (None, _, _) => Cow::Borrowed(x),
        }
    }
}

/// Object-safe view of a quantizable layer, the coupling surface between
/// the model zoo and the quantization driver in `fpdq-core`.
pub trait QuantLayer {
    /// Hierarchical layer name (e.g. `"down0.res0.conv1"`).
    fn qname(&self) -> &str;
    /// Convolution or linear.
    fn kind(&self) -> QuantKind;
    /// The weight parameter (`[o,c,kh,kw]` or `[out,in]`).
    fn weight(&self) -> &Param;
    /// The bias parameter, if any.
    fn bias(&self) -> Option<&Param>;
    /// Mutable access to the input tap.
    fn tap(&self) -> &RefCell<Tap>;
    /// For convolutions, the stride/padding spec.
    fn conv_spec(&self) -> Option<Conv2dSpec>;
    /// If this layer consumes `concat(trunk, skip)`, the channel index
    /// where the skip half begins.
    fn concat_split(&self) -> Option<usize>;
    /// The layer's packed-execution slot, where the packing driver in
    /// `fpdq-kernels` installs a bit-packed weight for the inference
    /// forward to run on.
    fn packed(&self) -> &PackedSlot;
    /// Applies the layer to `x` with an explicit weight, bypassing the tap
    /// (used by rounding-learning reconstruction).
    fn forward_with_weight(&self, x: &Tensor, weight: &Tensor) -> Tensor;
}

// ---------------------------------------------------------------------------
// Parameter sources
// ---------------------------------------------------------------------------

/// The source of a layer's parameters, whose `P` is the layer's parameter
/// type: any [`Rng`] builds [`Param`]s from its draws, [`ShapeOnly`] bare
/// [`Shape`]s, so even an SD-scale model is built without a weight.
pub trait Init {
    /// The parameter type this source builds.
    type P;
    /// A Kaiming-normal weight of `dims` with fan-in `fan_in`.
    fn weight(&mut self, dims: &[usize], fan_in: usize) -> Self::P;
    /// A parameter of `dims` filled with `value` (biases, norm affines).
    fn constant(&mut self, dims: &[usize], value: f32) -> Self::P;
}

impl<R: Rng> Init for R {
    type P = Param;
    fn weight(&mut self, dims: &[usize], fan_in: usize) -> Param {
        Param::new(Tensor::kaiming(dims, fan_in, self))
    }
    fn constant(&mut self, dims: &[usize], value: f32) -> Param {
        Param::new(Tensor::full(dims, value))
    }
}

/// An [`Init`] that records parameter dims only (see [`Init`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShapeOnly;

impl Init for ShapeOnly {
    type P = Shape;
    fn weight(&mut self, dims: &[usize], _fan_in: usize) -> Shape {
        Shape::new(dims)
    }
    fn constant(&mut self, dims: &[usize], _value: f32) -> Shape {
        Shape::new(dims)
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// A fully connected layer `y = x Wᵀ + b` with weight `[out, in]`.
///
/// Accepts 2-D `[batch, in]` or 3-D `[batch, seq, in]` inputs.
#[derive(Debug)]
pub struct Linear<P = Param> {
    name: String,
    /// Weight `[out, in]`.
    pub weight: P,
    /// Bias `[out]`, if enabled.
    pub bias: Option<P>,
    tap: RefCell<Tap>,
    packed: PackedSlot,
    concat_split: Option<usize>,
}

impl<P> Linear<P> {
    /// Creates a linear layer with Kaiming-initialised weights.
    pub fn new(
        name: impl Into<String>,
        in_f: usize,
        out_f: usize,
        init: &mut impl Init<P = P>,
    ) -> Self {
        Linear {
            name: name.into(),
            weight: init.weight(&[out_f, in_f], in_f),
            bias: Some(init.constant(&[out_f], 0.0)),
            tap: RefCell::new(Tap::default()),
            packed: PackedSlot::default(),
            concat_split: None,
        }
    }

    /// Hierarchical layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Marks this layer as consuming `concat(trunk, skip)` with the skip
    /// half starting at feature `split`.
    pub fn set_concat_split(&mut self, split: usize) {
        self.concat_split = Some(split);
    }
}

impl Linear {
    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Inference forward: applies the tap, then the layer body on the
    /// packed weight (when installed) or the dense one.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let axis = x.ndim() - 1;
        let x = self.tap.borrow().apply(x, self.concat_split, axis, self.packed.fuses_act());
        if let Some(y) = self.packed.run(&x) {
            return y;
        }
        self.weight.with_value(|w| self.forward_with_weight(&x, w))
    }

    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        out.push((format!("{}.weight", self.name), self.weight.clone()));
        if let Some(b) = &self.bias {
            out.push((format!("{}.bias", self.name), b.clone()));
        }
    }
}

impl QuantLayer for Linear {
    fn qname(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> QuantKind {
        QuantKind::Linear
    }
    fn weight(&self) -> &Param {
        &self.weight
    }
    fn bias(&self) -> Option<&Param> {
        self.bias.as_ref()
    }
    fn tap(&self) -> &RefCell<Tap> {
        &self.tap
    }
    fn conv_spec(&self) -> Option<Conv2dSpec> {
        None
    }
    fn concat_split(&self) -> Option<usize> {
        self.concat_split
    }
    fn packed(&self) -> &PackedSlot {
        &self.packed
    }
    fn forward_with_weight(&self, x: &Tensor, weight: &Tensor) -> Tensor {
        with_bias(&self.bias, |b| linear_body(x, Weights::Dense(weight), b, None))
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// A 2-D convolution layer with weight `[out, in, kh, kw]`.
#[derive(Debug)]
pub struct Conv2d<P = Param> {
    name: String,
    /// Weight `[out, in, kh, kw]`.
    pub weight: P,
    /// Bias `[out]`, if enabled.
    pub bias: Option<P>,
    spec: Conv2dSpec,
    tap: RefCell<Tap>,
    packed: PackedSlot,
    concat_split: Option<usize>,
}

impl<P> Conv2d<P> {
    /// Creates a convolution with Kaiming-initialised weights.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init: &mut impl Init<P = P>,
    ) -> Self {
        let fan_in = in_c * kernel * kernel;
        Conv2d {
            name: name.into(),
            weight: init.weight(&[out_c, in_c, kernel, kernel], fan_in),
            bias: Some(init.constant(&[out_c], 0.0)),
            spec: Conv2dSpec::new(stride, padding),
            tap: RefCell::new(Tap::default()),
            packed: PackedSlot::default(),
            concat_split: None,
        }
    }

    /// Hierarchical layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stride/padding specification.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Marks this layer as consuming `concat(trunk, skip)` with the skip
    /// half starting at channel `split`.
    pub fn set_concat_split(&mut self, split: usize) {
        self.concat_split = Some(split);
    }
}

impl Conv2d {
    /// Inference forward: applies the tap, then the layer body on the
    /// packed weight (when installed) or the dense one.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let x = self.tap.borrow().apply(x, self.concat_split, 1, self.packed.fuses_act());
        if let Some(y) = self.packed.run(&x) {
            return y;
        }
        self.weight.with_value(|w| self.forward_with_weight(&x, w))
    }

    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        out.push((format!("{}.weight", self.name), self.weight.clone()));
        if let Some(b) = &self.bias {
            out.push((format!("{}.bias", self.name), b.clone()));
        }
    }
}

impl QuantLayer for Conv2d {
    fn qname(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> QuantKind {
        QuantKind::Conv
    }
    fn weight(&self) -> &Param {
        &self.weight
    }
    fn bias(&self) -> Option<&Param> {
        self.bias.as_ref()
    }
    fn tap(&self) -> &RefCell<Tap> {
        &self.tap
    }
    fn conv_spec(&self) -> Option<Conv2dSpec> {
        Some(self.spec)
    }
    fn concat_split(&self) -> Option<usize> {
        self.concat_split
    }
    fn packed(&self) -> &PackedSlot {
        &self.packed
    }
    fn forward_with_weight(&self, x: &Tensor, weight: &Tensor) -> Tensor {
        with_bias(&self.bias, |b| conv_body(x, Weights::Dense(weight), b, self.spec, None))
    }
}

// ---------------------------------------------------------------------------
// Normalisation layers (kept in full precision by the paper, §VI-A)
// ---------------------------------------------------------------------------

/// Reference (tensor-path) group-norm forward.
///
/// Each (batch, group)'s mean and variance are plain `f32` sums in
/// element order from `-0.0`, the fold of `Iterator::sum`, so the bits
/// are those of the one-chain loop; the sums run four groups' chains
/// side by side so their adds overlap instead of each waiting on the
/// last. The normalize pass `(x − μ)·is·γ + β` runs on the dispatched
/// ISA ([`group_norm_ref_as`]).
pub fn group_norm_ref(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    groups: usize,
    eps: f32,
) -> Tensor {
    group_norm_ref_as(simd::active(), x, gamma, beta, groups, eps)
}

/// [`group_norm_ref`] on an explicit ISA path: the normalize pass runs 8
/// lanes wide on AVX2, with the same subtract and three roundings per
/// element, so every path gives the scalar bits.
pub fn group_norm_ref_as(
    isa: Isa,
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    groups: usize,
    eps: f32,
) -> Tensor {
    assert_eq!(x.ndim(), 4, "group_norm input must be [n,c,h,w]");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(c % groups, 0, "channels {c} not divisible by {groups} groups");
    let gsz = c / groups;
    let m = gsz * h * w;
    let mut out = vec![0.0f32; x.numel()];
    let xd = x.data();
    // Group `r = b·groups + g` is the contiguous run `xd[r·m..(r+1)·m]`.
    let mut mu = vec![0.0f32; n * groups];
    row_sums(xd, m, &mut mu, |_, v| v);
    mu.iter_mut().for_each(|s| *s /= m as f32);
    let mut var = vec![0.0f32; n * groups];
    row_sums(xd, m, &mut var, |r, v| (v - mu[r]) * (v - mu[r]));
    for b in 0..n {
        for g in 0..groups {
            let r = b * groups + g;
            let is = 1.0 / (var[r] / m as f32 + eps).sqrt();
            for ci in 0..gsz {
                let ch = g * gsz + ci;
                let cstart = (b * c + ch) * h * w;
                let (gv, bv) = (gamma.data()[ch], beta.data()[ch]);
                let plane = cstart..cstart + h * w;
                normalize_as(isa, &xd[plane.clone()], &mut out[plane], mu[r], is, gv, bv);
            }
        }
    }
    Tensor::from_vec(out, x.dims())
}

/// `dst[i] = (src[i] - mu) * is * g + b`: one loop body, compiled a
/// second time with AVX2 enabled so LLVM vectorizes it 8 lanes wide. Rust
/// never fuses the multiply and add, so both copies round alike.
fn normalize_as(isa: Isa, src: &[f32], dst: &mut [f32], mu: f32, is: f32, g: f32, b: f32) {
    #[inline(always)]
    fn body(src: &[f32], dst: &mut [f32], mu: f32, is: f32, g: f32, b: f32) {
        for (o, &x) in dst.iter_mut().zip(src) {
            *o = (x - mu) * is * g + b;
        }
    }
    /// # Safety
    ///
    /// Requires AVX2 at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn body_avx2(src: &[f32], dst: &mut [f32], mu: f32, is: f32, g: f32, b: f32) {
        body(src, dst, mu, is, g, b)
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.is_supported() => {
            // Safety: AVX2 verified at runtime.
            unsafe { body_avx2(src, dst, mu, is, g, b) }
        }
        _ => body(src, dst, mu, is, g, b),
    }
}

/// `sums[r] = -0.0 + term(r, x[r·m]) + term(r, x[r·m + 1]) + …` in
/// element order for each `m`-element row `r` of `x`. Four rows run at a
/// time, each in its own accumulator, so four independent add chains
/// overlap; no row's order changes.
fn row_sums(x: &[f32], m: usize, sums: &mut [f32], term: impl Fn(usize, f32) -> f32) {
    let full = sums.len() / 4 * 4;
    let (quads, rest) = sums.split_at_mut(full);
    for (q, out) in quads.chunks_exact_mut(4).enumerate() {
        let r0 = 4 * q;
        let [x0, x1, x2, x3]: [&[f32]; 4] =
            std::array::from_fn(|j| &x[(r0 + j) * m..(r0 + j + 1) * m]);
        let mut acc = [-0.0f32; 4];
        for (((&v0, &v1), &v2), &v3) in x0.iter().zip(x1).zip(x2).zip(x3) {
            acc[0] += term(r0, v0);
            acc[1] += term(r0 + 1, v1);
            acc[2] += term(r0 + 2, v2);
            acc[3] += term(r0 + 3, v3);
        }
        out.copy_from_slice(&acc);
    }
    for (r, s) in (full..).zip(rest) {
        *s = x[r * m..(r + 1) * m].iter().fold(-0.0, |a, &v| a + term(r, v));
    }
}

/// Reference (tensor-path) layer-norm forward over the innermost dim.
///
/// Each row's mean and variance are `Iterator::sum` chains in element
/// order; the normalize pass zips the row with `γ` and `β`, so it runs
/// without index checks and vectorizes.
pub fn layer_norm_ref(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let d = *x.dims().last().expect("layer_norm on rank-0");
    let (g, b) = (&gamma.data()[..d], &beta.data()[..d]);
    let mut out = vec![0.0f32; x.numel()];
    for (row, orow) in x.data().chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let mu: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
        let is = 1.0 / (var + eps).sqrt();
        for (((o, &v), &gv), &bv) in orow.iter_mut().zip(row).zip(g).zip(b) {
            *o = (v - mu) * is * gv + bv;
        }
    }
    Tensor::from_vec(out, x.dims())
}

/// Group normalisation with learned affine parameters.
#[derive(Debug)]
pub struct GroupNorm<P = Param> {
    name: String,
    /// Scale `[c]`.
    pub gamma: P,
    /// Shift `[c]`.
    pub beta: P,
    pub(crate) groups: usize,
    pub(crate) eps: f32,
}

impl<P> GroupNorm<P> {
    /// Creates a group norm over `channels` split into `groups`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is not divisible by `groups`.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        groups: usize,
        init: &mut impl Init<P = P>,
    ) -> Self {
        assert_eq!(channels % groups, 0, "channels {channels} not divisible by {groups}");
        GroupNorm {
            name: name.into(),
            gamma: init.constant(&[channels], 1.0),
            beta: init.constant(&[channels], 0.0),
            groups,
            eps: 1e-5,
        }
    }

    /// Hierarchical layer name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl GroupNorm {
    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        out.push((format!("{}.gamma", self.name), self.gamma.clone()));
        out.push((format!("{}.beta", self.name), self.beta.clone()));
    }
}

/// Layer normalisation over the innermost dimension.
#[derive(Debug)]
pub struct LayerNorm<P = Param> {
    name: String,
    /// Scale `[d]`.
    pub gamma: P,
    /// Shift `[d]`.
    pub beta: P,
    pub(crate) eps: f32,
}

impl<P> LayerNorm<P> {
    /// Creates a layer norm over `dim` features.
    pub fn new(name: impl Into<String>, dim: usize, init: &mut impl Init<P = P>) -> Self {
        LayerNorm {
            name: name.into(),
            gamma: init.constant(&[dim], 1.0),
            beta: init.constant(&[dim], 0.0),
            eps: 1e-5,
        }
    }

    /// Hierarchical layer name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl LayerNorm {
    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        out.push((format!("{}.gamma", self.name), self.gamma.clone()));
        out.push((format!("{}.beta", self.name), self.beta.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Infer, Ops, Train};
    use fpdq_autograd::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-chain group norm `group_norm_ref` replaced, kept as the
    /// bit oracle of its side-by-side reductions.
    fn group_norm_one_chain(x: &Tensor, gamma: &Tensor, beta: &Tensor, groups: usize) -> Tensor {
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let gsz = c / groups;
        let m = gsz * h * w;
        let mut out = vec![0.0f32; x.numel()];
        let xd = x.data();
        for b in 0..n {
            for g in 0..groups {
                let start = (b * c + g * gsz) * h * w;
                let slice = &xd[start..start + m];
                let mu: f32 = slice.iter().sum::<f32>() / m as f32;
                let var: f32 = slice.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / m as f32;
                let is = 1.0 / (var + 1e-5).sqrt();
                for ci in 0..gsz {
                    let ch = g * gsz + ci;
                    let cstart = (b * c + ch) * h * w;
                    let (gv, bv) = (gamma.data()[ch], beta.data()[ch]);
                    for i in 0..h * w {
                        out[cstart + i] = (xd[cstart + i] - mu) * is * gv + bv;
                    }
                }
            }
        }
        Tensor::from_vec(out, x.dims())
    }

    #[test]
    fn group_norm_side_by_side_sums_keep_the_one_chain_bits() {
        let mut rng = StdRng::seed_from_u64(9);
        // Group counts that leave 0, 1, 2 and 3 rows past the last quad.
        for (dims, groups) in [
            ([2usize, 8, 8, 8], 4usize),
            ([1, 24, 8, 8], 4),
            ([3, 6, 2, 2], 3),
            ([1, 6, 3, 1], 2),
            ([1, 5, 2, 2], 5),
            ([2, 4, 1, 1], 1),
        ] {
            let mut vals = Tensor::randn(&dims, &mut rng).mul_scalar(3.0).data().to_vec();
            let m = dims[1] / groups * dims[2] * dims[3];
            // Group 0 all -0.0 (its sum must stay -0.0), and non-finite
            // values in the others.
            vals[..m].fill(-0.0);
            let n = vals.len();
            if n > 3 * m {
                vals[m + 1] = f32::NAN;
                vals[2 * m] = f32::INFINITY;
                vals[n - 1] = f32::NEG_INFINITY;
            }
            let x = Tensor::from_vec(vals, &dims);
            let gamma = Tensor::randn(&[dims[1]], &mut rng);
            let beta = Tensor::randn(&[dims[1]], &mut rng);
            let got = group_norm_ref(&x, &gamma, &beta, groups, 1e-5);
            let want = group_norm_one_chain(&x, &gamma, &beta, groups);
            for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{dims:?}/{groups} elem {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn linear_paths_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new("l", 4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y_tensor = lin.forward(&x);
        let tape = Tape::new();
        let y_var = Train(&tape).linear(&lin, &tape.constant(x.clone()));
        for (a, b) in y_tensor.data().iter().zip(y_var.value().data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn linear_3d_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new("l", 4, 6, &mut rng);
        let x = Tensor::randn(&[2, 5, 4], &mut rng);
        let y = lin.forward(&x);
        assert_eq!(y.dims(), &[2, 5, 6]);
        // Row independence: each (b, l) position is a separate affine map.
        let row = x.narrow(0, 1, 1).narrow(1, 3, 1).reshape(&[1, 4]);
        let yr = lin.forward(&row);
        for (a, b) in yr.data().iter().zip(y.narrow(0, 1, 1).narrow(1, 3, 1).data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_paths_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new("c", 3, 5, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let y_tensor = conv.forward(&x);
        let tape = Tape::new();
        let y_var = Train(&tape).conv(&conv, &tape.constant(x.clone()));
        assert_eq!(y_tensor.dims(), &[2, 5, 6, 6]);
        for (a, b) in y_tensor.data().iter().zip(y_var.value().data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn tap_capture_records_inputs() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new("c", 2, 2, 1, 1, 0, &mut rng);
        let buf = Rc::new(RefCell::new(Vec::new()));
        conv.tap().borrow_mut().capture = Some(buf.clone());
        let x = Tensor::randn(&[1, 2, 3, 3], &mut rng);
        conv.forward(&x);
        conv.forward(&x);
        assert_eq!(buf.borrow().len(), 2);
        assert_eq!(buf.borrow()[0].data(), x.data());
    }

    #[test]
    fn tap_act_quant_applies() {
        let mut rng = StdRng::seed_from_u64(5);
        let lin = Linear::new("l", 2, 2, &mut rng);
        // A "quantizer" that zeroes everything: output must equal bias.
        lin.tap().borrow_mut().act_quant = Some(Rc::new(|_x: &Tensor| Tensor::zeros(&[1, 2])));
        lin.bias
            .as_ref()
            .unwrap()
            .update(|b| b.data_mut().copy_from_slice(&[1.5, -2.5]));
        let y = lin.forward(&Tensor::ones(&[1, 2]));
        assert_eq!(y.data(), &[1.5, -2.5]);
    }

    #[test]
    fn tap_split_quantizes_halves_independently() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new("c", 4, 1, 1, 1, 0, &mut rng);
        conv.set_concat_split(2);
        conv.weight.replace(Tensor::ones(&[1, 4, 1, 1]));
        conv.bias.as_ref().unwrap().update(|b| b.data_mut()[0] = 0.0);
        // Trunk quantizer doubles; skip quantizer negates.
        conv.tap().borrow_mut().act_quant = Some(Rc::new(|x: &Tensor| x.mul_scalar(2.0)));
        conv.tap().borrow_mut().act_quant_skip = Some(Rc::new(|x: &Tensor| x.neg()));
        let x = Tensor::ones(&[1, 4, 1, 1]);
        let y = conv.forward(&x);
        // 2 trunk channels doubled (2+2) + 2 skip channels negated (-1-1) = 2
        assert_eq!(y.data(), &[2.0]);
    }

    #[test]
    fn group_norm_normalises() {
        let mut rng = StdRng::seed_from_u64(7);
        let gn = GroupNorm::new("gn", 8, 4, &mut rng);
        let x = Tensor::randn(&[2, 8, 4, 4], &mut rng).mul_scalar(5.0).add_scalar(3.0);
        let y = Infer.group_norm(&gn, &x);
        // With unit gamma / zero beta each group is standardised.
        assert!(y.mean().abs() < 1e-4);
        assert!((y.std() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn group_norm_paths_agree() {
        let mut rng = StdRng::seed_from_u64(8);
        let gn = GroupNorm::new("gn", 6, 3, &mut rng);
        gn.gamma.replace(Tensor::rand_uniform(&[6], 0.5, 1.5, &mut rng));
        gn.beta.replace(Tensor::randn(&[6], &mut rng));
        let x = Tensor::randn(&[2, 6, 3, 3], &mut rng);
        let y1 = Infer.group_norm(&gn, &x);
        let tape = Tape::new();
        let y2 = Train(&tape).group_norm(&gn, &tape.constant(x));
        for (a, b) in y1.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn layer_norm_paths_agree() {
        let mut rng = StdRng::seed_from_u64(9);
        let ln = LayerNorm::new("ln", 10, &mut rng);
        ln.gamma.replace(Tensor::rand_uniform(&[10], 0.5, 1.5, &mut rng));
        let x = Tensor::randn(&[4, 10], &mut rng);
        let y1 = Infer.layer_norm(&ln, &x);
        let tape = Tape::new();
        let y2 = Train(&tape).layer_norm(&ln, &tape.constant(x));
        for (a, b) in y1.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn params_are_collected_with_names() {
        let mut rng = StdRng::seed_from_u64(10);
        let lin = Linear::new("block.proj", 2, 2, &mut rng);
        let mut params = Vec::new();
        lin.collect_params(&mut params);
        let names: Vec<&str> = params.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["block.proj.weight", "block.proj.bias"]);
    }

    #[test]
    fn forward_with_weight_bypasses_tap() {
        let mut rng = StdRng::seed_from_u64(11);
        let lin = Linear::new("l", 2, 2, &mut rng);
        lin.tap().borrow_mut().act_quant = Some(Rc::new(|_x: &Tensor| panic!("tap must not run")));
        let x = Tensor::ones(&[1, 2]);
        let w = Tensor::eye(2);
        let y = lin.forward_with_weight(&x, &w);
        assert_eq!(y.dims(), &[1, 2]);
    }
}
