//! The [`Tensor`] type: a contiguous, row-major, `f32` n-d array.

use crate::shape::{broadcast_rows, broadcast_shapes, Shape};
use crate::simd::{self, Isa};

/// A contiguous row-major `f32` tensor.
///
/// All fpdq models, quantizers and metrics operate on this type. It is
/// deliberately simple — owned storage, derived strides — trading peak
/// performance for clarity and testability.
///
/// Shape errors panic with descriptive messages (like `ndarray`); fallible
/// I/O lives in [`crate::io`].
///
/// # Example
///
/// ```
/// use fpdq_tensor::Tensor;
/// let x = Tensor::ones(&[2, 3]);
/// let y = x.mul_scalar(2.0).add(&Tensor::ones(&[3]));
/// assert_eq!(y.data(), &[3.0; 6]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:?}, ... ; mean={:.4}, min={:.4}, max={:.4}]",
                &self.data[..8.min(self.data.len())],
                self.mean(),
                self.min(),
                self.max()
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape} ({} elements)",
            data.len(),
            shape.numel()
        );
        Tensor { shape, data }
    }

    /// Creates a rank-0-like `[1]` tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], &[1])
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a 1-D tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    /// Creates `n` evenly spaced values from `start` to `end` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n >= 2, "linspace requires n >= 2, got {n}");
        let step = (end - start) / (n - 1) as f32;
        Tensor::from_vec((0..n).map(|i| start + step * i as f32).collect(), &[n])
    }
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

impl Tensor {
    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Extent of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn dim(&self, d: usize) -> usize {
        self.shape.dims()[d]
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying storage (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor with {} elements", self.numel());
        self.data[0]
    }
}

// ---------------------------------------------------------------------------
// Elementwise maps
// ---------------------------------------------------------------------------

impl Tensor {
    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Broadcasting binary elementwise combine.
    ///
    /// A broadcast walks the output row by row: each innermost run pairs
    /// contiguous slices, or a slice with one repeated value, with no
    /// per-element offset table.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not broadcast-compatible.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape == other.shape {
            let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
            return Tensor { shape: self.shape.clone(), data };
        }
        let out_dims = broadcast_shapes(self.dims(), other.dims());
        let mut data = Vec::with_capacity(out_dims.iter().product());
        broadcast_rows(&out_dims, self.dims(), other.dims(), |r| {
            let a = &self.data[r.a..r.a + if r.a_step == 0 { 1 } else { r.len }];
            let b = &other.data[r.b..r.b + if r.b_step == 0 { 1 } else { r.len }];
            match (r.a_step, r.b_step) {
                (0, 0) => data.extend(std::iter::repeat_n(f(a[0], b[0]), r.len)),
                (0, _) => data.extend(b.iter().map(|&y| f(a[0], y))),
                (_, 0) => data.extend(a.iter().map(|&x| f(x, b[0]))),
                _ => data.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y))),
            }
        });
        Tensor { shape: Shape::from(out_dims), data }
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by `s`.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise natural exponential, through the dispatched vector
    /// exp ([`simd::exp_inplace_as`]): the bits of [`f32::exp`].
    pub fn exp(&self) -> Tensor {
        let mut out = self.clone();
        simd::exp_inplace_as(simd::active(), &mut out.data);
        out
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise power.
    pub fn powf(&self, p: f32) -> Tensor {
        self.map(|x| x.powf(p))
    }

    /// Clamps every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Elementwise logistic sigmoid `1 / (1 + e^-x)` on the dispatched
    /// ISA ([`Tensor::sigmoid_as`]).
    pub fn sigmoid(&self) -> Tensor {
        self.sigmoid_as(simd::active())
    }

    /// [`Tensor::sigmoid`] on an explicit ISA path: per element a negate,
    /// the vector exp ([`simd::exp_inplace_as`]), an add and a divide, each
    /// rounding as the scalar expression does, so every path gives the
    /// scalar bits.
    pub fn sigmoid_as(&self, isa: Isa) -> Tensor {
        self.logistic_as::<false>(isa)
    }

    /// Elementwise SiLU `x / (1 + e^-x)` (`x * sigmoid(x)`), the
    /// activation used throughout diffusion U-Nets, on the dispatched ISA
    /// ([`Tensor::silu_as`]).
    pub fn silu(&self) -> Tensor {
        self.silu_as(simd::active())
    }

    /// [`Tensor::silu`] on an explicit ISA path: per element a negate,
    /// the vector exp ([`simd::exp_inplace_as`]), an add and a divide, 8
    /// lanes at a time on AVX2, with the bits of the scalar expression.
    pub fn silu_as(&self, isa: Isa) -> Tensor {
        self.logistic_as::<true>(isa)
    }

    /// `x / (1 + e^-x)` (`SILU`) or `1 / (1 + e^-x)` of every element.
    fn logistic_as<const SILU: bool>(&self, isa: Isa) -> Tensor {
        let mut data = vec![0.0f32; self.numel()];
        match isa {
            #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
            Isa::Avx2 if isa.is_supported() => {
                // Safety: AVX2 and FMA verified at runtime; both slices
                // hold `numel` floats.
                unsafe { avx2::logistic::<SILU>(&self.data, &mut data) }
            }
            _ => {
                for (y, &x) in data.iter_mut().zip(&self.data) {
                    let d = 1.0 + (-x).exp();
                    *y = if SILU { x / d } else { 1.0 / d };
                }
            }
        }
        Tensor { shape: self.shape.clone(), data }
    }

    /// In-place fused multiply-add: `self = self + alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ (no broadcasting; this is an optimizer/axpy
    /// primitive).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy requires identical shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

impl Tensor {
    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.data.is_empty(), "mean of empty tensor");
        self.sum() / self.numel() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn min(&self) -> f32 {
        assert!(!self.data.is_empty(), "min of empty tensor");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn var(&self) -> f32 {
        let m = self.mean() as f64;
        let ss: f64 = self.data.iter().map(|&x| (x as f64 - m) * (x as f64 - m)).sum();
        (ss / self.numel() as f64) as f32
    }

    /// Population standard deviation.
    pub fn std(&self) -> f32 {
        self.var().sqrt()
    }

    /// Mean squared error against another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "mse requires identical shapes");
        let ss: f64 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| ((a - b) as f64) * ((a - b) as f64))
            .sum();
        (ss / self.numel() as f64) as f32
    }

    /// Fraction of elements that are exactly zero (the paper's sparsity
    /// metric, §VI-G).
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f32 / self.numel() as f32
    }

    /// Reduces one axis with `f` starting from `init`, removing the axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn reduce_axis(&self, axis: usize, init: f32, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let dims = self.dims();
        assert!(axis < dims.len(), "axis {axis} out of range for rank {}", dims.len());
        let outer: usize = dims[..axis].iter().product();
        let axis_len = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![init; outer * inner];
        for o in 0..outer {
            for a in 0..axis_len {
                let base = (o * axis_len + a) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out[obase + i] = f(out[obase + i], self.data[base + i]);
                }
            }
        }
        let mut new_dims: Vec<usize> = dims.to_vec();
        new_dims.remove(axis);
        if new_dims.is_empty() {
            new_dims.push(1);
        }
        Tensor::from_vec(out, &new_dims)
    }

    /// Sums along one axis, removing it.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        self.reduce_axis(axis, 0.0, |a, b| a + b)
    }

    /// Mean along one axis, removing it.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        self.sum_axis(axis).mul_scalar(1.0 / self.dim(axis) as f32)
    }

    /// Maximum along one axis, removing it.
    pub fn max_axis(&self, axis: usize) -> Tensor {
        self.reduce_axis(axis, f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element (ties broken by first occurrence).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Numerically stable softmax over the innermost dimension, on the
    /// dispatched ISA ([`Tensor::softmax_lastdim_as`]).
    pub fn softmax_lastdim(&self) -> Tensor {
        self.softmax_lastdim_as(simd::active())
    }

    /// [`Tensor::softmax_lastdim`] on an explicit ISA path. Per row: the
    /// max and the sum of the exponentials run in element order; the
    /// `exp(v - max)` pass goes through the vector exp
    /// ([`simd::exp_inplace_as`]) and the final divide runs 8 lanes wide
    /// on AVX2. Every path gives the scalar bits.
    pub fn softmax_lastdim_as(&self, isa: Isa) -> Tensor {
        let dims = self.dims();
        let inner = *dims.last().expect("softmax on rank-0 tensor");
        let mut out = self.clone();
        softmax_rows_inplace(isa, &mut out.data, inner);
        out
    }
}

/// Numerically stable softmax of every `len`-element row of `data`, in
/// place: the expressions of [`Tensor::softmax_lastdim_as`], shared with
/// the attention core ([`Tensor::attention_as`]) so both produce the same
/// bits. One dispatch covers all rows.
pub(crate) fn softmax_rows_inplace(isa: Isa, data: &mut [f32], len: usize) {
    match isa {
        #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
        Isa::Avx2 if isa.is_supported() => {
            // Safety: AVX2 and FMA verified at runtime.
            unsafe { avx2::softmax_rows(data, len) }
        }
        _ => {
            for row in data.chunks_exact_mut(len.max(1)) {
                softmax_row(
                    row,
                    |row, m| row.iter_mut().for_each(|v| *v = (*v - m).exp()),
                    |row, denom| row.iter_mut().for_each(|v| *v /= denom),
                );
            }
        }
    }
}

/// One softmax row: the max and the sum of `exp(v - max)` fold in element
/// order; `exp_minus(row, m)` and `div_by(row, denom)` are the
/// elementwise passes of the ISA path.
#[inline(always)]
fn softmax_row(
    row: &mut [f32],
    exp_minus: impl FnOnce(&mut [f32], f32),
    div_by: impl FnOnce(&mut [f32], f32),
) {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    exp_minus(row, m);
    let denom = row.iter().fold(0.0f32, |sum, &v| sum + v);
    div_by(row, denom);
}

/// `xs[i] *= s` for every element, 8 lanes wide on AVX2 (a multiply
/// rounds the same at any width): the attention core's score scaling.
pub(crate) fn mul_scalar_inplace_as(isa: Isa, xs: &mut [f32], s: f32) {
    match isa {
        #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
        Isa::Avx2 if isa.is_supported() => {
            // Safety: AVX2 verified at runtime.
            unsafe { avx2::mul_by(xs, s) }
        }
        _ => xs.iter_mut().for_each(|v| *v *= s),
    }
}

/// The AVX2 bodies of the exp-based elementwise ops. Each keeps the scalar
/// expression's operations and operand order per lane (`x / d`, `v - m`,
/// `v * s`): IEEE add, multiply and divide round the same at any width,
/// and the exp is [`simd::exp_inplace_as`]'s bit-identical port.
#[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
mod avx2 {
    use crate::simd::expf_fma::{exp8, map8};
    use core::arch::x86_64::*;

    /// `x / (1 + exp(-x))` (`SILU`) or `1 / (1 + exp(-x))` of `src` into
    /// `dst`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime; `dst.len() == src.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn logistic<const SILU: bool>(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        let (one, sign) = (_mm256_set1_ps(1.0), _mm256_set1_ps(-0.0));
        map8(src.as_ptr(), dst.as_mut_ptr(), src.len(), |x| {
            let d = _mm256_add_ps(one, exp8(_mm256_xor_ps(x, sign)));
            _mm256_div_ps(if SILU { x } else { one }, d)
        });
    }

    /// [`super::softmax_rows_inplace`]: each row's `exp(v - m)` and divide
    /// passes 8 lanes at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn softmax_rows(data: &mut [f32], len: usize) {
        for row in data.chunks_exact_mut(len.max(1)) {
            super::softmax_row(
                row,
                |row, m| {
                    let (p, mv) = (row.as_mut_ptr(), _mm256_set1_ps(m));
                    map8(p, p, row.len(), |v| exp8(_mm256_sub_ps(v, mv)));
                },
                |row, denom| {
                    let (p, dv) = (row.as_mut_ptr(), _mm256_set1_ps(denom));
                    map8(p, p, row.len(), |v| _mm256_div_ps(v, dv));
                },
            );
        }
    }

    /// `row[i] *= s`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_by(row: &mut [f32], s: f32) {
        let sv = _mm256_set1_ps(s);
        let p = row.as_mut_ptr();
        map8(p, p, row.len(), |v| _mm256_mul_ps(v, sv));
    }
}

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------

impl Tensor {
    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        self.clone().into_shape(dims)
    }

    /// [`Tensor::reshape`] by value: moves the storage instead of copying
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn into_shape(self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape from {} ({} elems) to {shape} ({} elems)",
            self.shape,
            self.numel(),
            shape.numel()
        );
        Tensor { shape, data: self.data }
    }

    /// Flattens to 1-D.
    pub fn flatten(&self) -> Tensor {
        Tensor { shape: Shape::new(&[self.numel()]), data: self.data.clone() }
    }

    /// Inserts a size-1 dimension at `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis > ndim`.
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        let mut dims = self.dims().to_vec();
        assert!(axis <= dims.len(), "unsqueeze axis {axis} out of range");
        dims.insert(axis, 1);
        self.reshape(&dims)
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires a 2-D tensor, got {}", self.shape);
        self.permute(&[1, 0])
    }

    /// General axis permutation.
    ///
    /// A permutation that only swaps the last two axes runs as a batched
    /// transpose; any other walks the output index by index.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..ndim`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let dims = self.dims();
        assert_eq!(perm.len(), dims.len(), "permute rank mismatch");
        let mut seen = vec![false; dims.len()];
        for &p in perm {
            assert!(p < dims.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let new_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        let nd = dims.len();
        if nd >= 2
            && perm[..nd - 2].iter().enumerate().all(|(i, &p)| i == p)
            && perm[nd - 2] == nd - 1
        {
            return Tensor::from_vec(self.transpose_last2(), &new_dims);
        }
        let old_strides = self.shape.strides();
        let n = self.numel();
        let mut out = vec![0.0f32; n];
        let mut idx = vec![0usize; dims.len()];
        for slot in out.iter_mut().take(n) {
            let mut src = 0;
            for (d, &i) in idx.iter().enumerate() {
                src += i * old_strides[perm[d]];
            }
            *slot = self.data[src];
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] < new_dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor::from_vec(out, &new_dims)
    }

    /// The data with the last two axes swapped: each `[r, c]` matrix of
    /// the batch transposed to `[c, r]`.
    fn transpose_last2(&self) -> Vec<f32> {
        let nd = self.ndim();
        let (r, c) = (self.dim(nd - 2), self.dim(nd - 1));
        let mut out = vec![0.0f32; self.numel()];
        if r * c == 0 {
            return out;
        }
        for (src, dst) in self.data.chunks_exact(r * c).zip(out.chunks_exact_mut(r * c)) {
            for (i, row) in src.chunks_exact(c).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    dst[j * r + i] = v;
                }
            }
        }
        out
    }

    /// Materialises a broadcast of this tensor to `dims`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn broadcast_to(&self, dims: &[usize]) -> Tensor {
        let out_dims = broadcast_shapes(self.dims(), dims);
        assert_eq!(out_dims, dims, "cannot broadcast {} to {dims:?}", self.shape);
        let mut data = Vec::with_capacity(dims.iter().product());
        broadcast_rows(dims, self.dims(), dims, |r| match r.a_step {
            0 => data.extend(std::iter::repeat_n(self.data[r.a], r.len)),
            _ => data.extend_from_slice(&self.data[r.a..r.a + r.len]),
        });
        Tensor { shape: Shape::new(dims), data }
    }
}

// ---------------------------------------------------------------------------
// Slicing / joining
// ---------------------------------------------------------------------------

impl Tensor {
    /// Returns the sub-tensor `[start, start+len)` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let dims = self.dims();
        assert!(axis < dims.len(), "narrow axis {axis} out of range");
        assert!(
            start + len <= dims[axis],
            "narrow [{start}, {}) out of bounds for axis {axis} of extent {}",
            start + len,
            dims[axis]
        );
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = (o * dims[axis] + start) * inner;
            out.extend_from_slice(&self.data[base..base + len * inner]);
        }
        let mut new_dims = dims.to_vec();
        new_dims[axis] = len;
        Tensor::from_vec(out, &new_dims)
    }

    /// Concatenates tensors along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes disagree outside `axis`.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let first = parts[0].dims();
        assert!(axis < first.len(), "concat axis {axis} out of range");
        let mut axis_total = 0;
        for p in parts {
            let d = p.dims();
            assert_eq!(d.len(), first.len(), "concat rank mismatch");
            for (i, (&a, &b)) in d.iter().zip(first.iter()).enumerate() {
                if i != axis {
                    assert_eq!(a, b, "concat shape mismatch at dim {i}");
                }
            }
            axis_total += d[axis];
        }
        let outer: usize = first[..axis].iter().product();
        let inner: usize = first[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * axis_total * inner);
        for o in 0..outer {
            for p in parts {
                let alen = p.dims()[axis];
                let base = o * alen * inner;
                out.extend_from_slice(&p.data[base..base + alen * inner]);
            }
        }
        let mut new_dims = first.to_vec();
        new_dims[axis] = axis_total;
        Tensor::from_vec(out, &new_dims)
    }

    /// Splits into equal chunks along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis extent is not divisible by `chunks`.
    pub fn chunk(&self, chunks: usize, axis: usize) -> Vec<Tensor> {
        let extent = self.dim(axis);
        assert_eq!(extent % chunks, 0, "axis extent {extent} not divisible into {chunks} chunks");
        let step = extent / chunks;
        (0..chunks).map(|c| self.narrow(axis, c * step, step)).collect()
    }

    /// Gathers sub-tensors along `axis` by index.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Tensor {
        let dims = self.dims();
        assert!(axis < dims.len(), "index_select axis {axis} out of range");
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * indices.len() * inner);
        for o in 0..outer {
            for &ix in indices {
                assert!(ix < dims[axis], "index {ix} out of bounds for axis extent {}", dims[axis]);
                let base = (o * dims[axis] + ix) * inner;
                out.extend_from_slice(&self.data[base..base + inner]);
            }
        }
        let mut new_dims = dims.to_vec();
        new_dims[axis] = indices.len();
        Tensor::from_vec(out, &new_dims)
    }

    /// Stacks equally shaped tensors along a new leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes differ.
    pub fn stack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack of zero tensors");
        let dims = parts[0].dims();
        let mut data = Vec::with_capacity(parts.len() * parts[0].numel());
        for p in parts {
            assert_eq!(p.dims(), dims, "stack shape mismatch");
            data.extend_from_slice(&p.data);
        }
        let mut new_dims = Vec::with_capacity(dims.len() + 1);
        new_dims.push(parts.len());
        new_dims.extend_from_slice(dims);
        Tensor::from_vec(data, &new_dims)
    }
}

// Operator sugar on references (tensors are large; operators never consume).
impl std::ops::Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs)
    }
}
impl std::ops::Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs)
    }
}
impl std::ops::Mul for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        Tensor::mul(self, rhs)
    }
}
impl std::ops::Div for &Tensor {
    type Output = Tensor;
    fn div(self, rhs: &Tensor) -> Tensor {
        Tensor::div(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        let mut t = t;
        t.set(&[1, 2], -1.0);
        assert_eq!(t.at(&[1, 2]), -1.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_mul_col() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]);
        let c = a.mul(&b);
        assert_eq!(c.data(), &[2.0, 4.0, 9.0, 12.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert!((t.var() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn axis_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.sum_axis(0).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(1).data(), &[6.0, 15.0]);
        assert_eq!(t.mean_axis(1).data(), &[2.0, 5.0]);
        assert_eq!(t.max_axis(0).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1001.0, 999.0], &[2, 3]);
        let s = t.softmax_lastdim();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Large logits must not overflow.
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn transpose_and_permute_agree() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        assert_eq!(t.transpose().data(), t.permute(&[1, 0]).data());
        assert_eq!(t.transpose().dims(), &[3, 2]);
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        // p[i,j,k] == t[j,k,i]
        assert_eq!(p.at(&[1, 1, 2]), t.at(&[1, 2, 1]));
        assert_eq!(p.at(&[3, 0, 0]), t.at(&[0, 0, 3]));
        // Permuting back restores the original.
        assert_eq!(p.permute(&[1, 2, 0]).data(), t.data());
    }

    #[test]
    fn last_two_axes_swap_matches_the_generic_walk() {
        // [2, 3, 5] → [2, 5, 3] on the batched-transpose fast path, against
        // the same permutation composed from two generic walks
        // ([2, 1, 0], then [2, 0, 1]) and against the index definition.
        let t = Tensor::from_vec((0..30).map(|i| i as f32 - 7.5).collect(), &[2, 3, 5]);
        let fast = t.permute(&[0, 2, 1]);
        let generic = t.permute(&[2, 1, 0]).permute(&[2, 0, 1]);
        assert_eq!(fast.dims(), &[2, 5, 3]);
        assert_eq!(fast, generic);
        for (b, i, j) in
            (0..2).flat_map(|b| (0..3).flat_map(move |i| (0..5).map(move |j| (b, i, j))))
        {
            assert_eq!(fast.at(&[b, j, i]), t.at(&[b, i, j]));
        }
        // 4-D: only the last two axes swap.
        let t4 = Tensor::from_vec((0..60).map(|i| i as f32).collect(), &[2, 2, 3, 5]);
        let generic4 = t4.permute(&[3, 1, 2, 0]).permute(&[3, 1, 0, 2]);
        assert_eq!(t4.permute(&[0, 1, 3, 2]), generic4);
        // Degenerate and 2-D cases.
        assert_eq!(Tensor::zeros(&[2, 0, 3]).permute(&[0, 2, 1]).dims(), &[2, 3, 0]);
        assert_eq!(t.reshape(&[6, 5]).transpose().dims(), &[5, 6]);
    }

    #[test]
    fn into_shape_moves_without_changing_the_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let moved = t.clone().into_shape(&[3, 1, 2]);
        assert_eq!(moved.dims(), &[3, 1, 2]);
        assert_eq!(moved.data(), t.data());
        assert_eq!(moved, t.reshape(&[3, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "reshape from")]
    fn into_shape_rejects_a_different_element_count() {
        let _ = Tensor::zeros(&[2, 3]).into_shape(&[4, 2]);
    }

    #[test]
    fn narrow_and_concat_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        for axis in 0..3 {
            let extent = t.dim(axis);
            let a = t.narrow(axis, 0, 1);
            let b = t.narrow(axis, 1, extent - 1);
            let joined = Tensor::concat(&[&a, &b], axis);
            assert_eq!(joined.data(), t.data(), "axis {axis}");
        }
    }

    #[test]
    fn chunk_splits_evenly() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]);
        let parts = t.chunk(2, 0);
        assert_eq!(parts[0].dims(), &[2, 3]);
        assert_eq!(parts[0].data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(parts[1].data(), &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn index_select_rows() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]);
        let sel = t.index_select(0, &[3, 0]);
        assert_eq!(sel.dims(), &[2, 3]);
        assert_eq!(sel.data(), &[9.0, 10.0, 11.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn stack_adds_leading_axis() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.narrow(0, 0, 1).reshape(&[2, 2]).data(), a.data());
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 0.0, -0.0], &[4]);
        assert!((t.sparsity() - 0.75).abs() < 1e-6); // -0.0 == 0.0
    }

    #[test]
    fn mse_basics() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        assert!((a.mse(&b) - 2.5).abs() < 1e-6);
        assert_eq!(a.mse(&a), 0.0);
    }

    #[test]
    fn broadcast_to_materialises() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = t.broadcast_to(&[2, 3]);
        assert_eq!(b.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn eye_linspace_arange() {
        assert_eq!(Tensor::eye(2).data(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Tensor::arange(3).data(), &[0.0, 1.0, 2.0]);
        let l = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(l.data(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn operator_sugar() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::full(&[2], 3.0);
        assert_eq!((&a + &b).data(), &[4.0, 4.0]);
        assert_eq!((&a - &b).data(), &[-2.0, -2.0]);
        assert_eq!((&a * &b).data(), &[3.0, 3.0]);
        assert_eq!((&b / &a).data(), &[3.0, 3.0]);
    }
}
