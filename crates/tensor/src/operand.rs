//! The two operands the NT GEMM ([`crate::matmul::gemm_nt`]) and the
//! convolution ([`crate::conv::conv2d`]) take besides their activations.
//! Each engine serves dense and packed weights alike through them:
//!
//! * [`Weights`] — where the `[rows, k]` weight rows come from: `f32`
//!   rows read where they lie, or rows decoded into per-thread scratch
//!   ([`DecodeRows`], implemented by `fpdq_kernels::PackedTensor`);
//! * [`ActStage`] — an optional stage that quantizes the activations on
//!   their way into the micro-kernel (implemented by
//!   `fpdq_core::PanelQuantizer`), writing through a [`Planes`] layout so
//!   a conv's input lands straight in its zero-bordered operand.

use crate::parallel::parallel_rows_in;
use crate::simd::Isa;
use crate::Tensor;

/// Where a `[planes, rows, width]` source lands in a strided destination:
/// row `y` of plane `i` starts at `dst[i * plane + y * pitch]`, and the
/// writers write nothing between rows or planes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planes {
    /// Rows per plane.
    pub rows: usize,
    /// Elements per row.
    pub width: usize,
    /// Destination distance between row starts (at least `width`).
    pub pitch: usize,
    /// Destination distance between plane starts (at least `rows *
    /// pitch`).
    pub plane: usize,
}

impl Planes {
    /// Contiguous planes of `len` elements each: source and destination
    /// share one layout.
    pub fn dense(len: usize) -> Self {
        Planes { rows: 1, width: len, pitch: len, plane: len }
    }

    /// The interior of `[rows + 2·pad, width + 2·pad]` planes: a
    /// `[rows, width]` image inside a border of `pad` elements on every
    /// side. The destination slice starts at the first interior element,
    /// `pad · (width + 2·pad) + pad` into the bordered buffer.
    pub fn bordered(rows: usize, width: usize, pad: usize) -> Self {
        let pitch = width + 2 * pad;
        Planes { rows, width, pitch, plane: (rows + 2 * pad) * pitch }
    }

    /// Source elements per plane.
    pub fn len(&self) -> usize {
        self.rows * self.width
    }

    /// Whether a plane holds no source element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that `src` is whole planes of this layout and that `dst`
    /// holds every row they land in; returns the plane count.
    ///
    /// # Panics
    ///
    /// Panics if the layout is inconsistent, `src` is not whole planes,
    /// or `dst` is too short for them.
    pub fn check(self, src: &[f32], dst: &[f32]) -> usize {
        let Planes { rows, width, pitch, plane } = self;
        assert!(pitch >= width && plane >= rows * pitch, "overlapping rows in {self:?}");
        let per_plane = self.len();
        if per_plane == 0 {
            assert!(src.is_empty(), "source is not whole planes of {self:?}");
            return 0;
        }
        assert_eq!(src.len() % per_plane, 0, "source is not whole planes of {self:?}");
        let planes = src.len() / per_plane;
        if planes > 0 {
            let reach = (planes - 1) * plane + (rows - 1) * pitch + width;
            assert!(dst.len() >= reach, "destination too short for {planes} planes of {self:?}");
        }
        planes
    }

    /// Writes `f` of every element of `src`'s planes into its place in
    /// `dst`.
    ///
    /// # Panics
    ///
    /// As [`Self::check`].
    pub fn map(self, src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32) {
        if self.check(src, dst) == 0 {
            return;
        }
        let Planes { rows, width, pitch, plane } = self;
        for (p, sp) in src.chunks_exact(rows * width).enumerate() {
            for (y, srow) in sp.chunks_exact(width).enumerate() {
                let drow = &mut dst[p * plane + y * pitch..][..width];
                for (d, &v) in drow.iter_mut().zip(srow) {
                    *d = f(v);
                }
            }
        }
    }

    /// Copies every row of `src`'s planes into its place in `dst` (the
    /// unquantized counterpart of [`ActStage::quantize_planes_into_as`]).
    ///
    /// # Panics
    ///
    /// As [`Self::check`].
    pub fn copy(self, src: &[f32], dst: &mut [f32]) {
        if self.check(src, dst) == 0 {
            return;
        }
        let Planes { rows, width, pitch, plane } = self;
        for (sp, dp) in src.chunks_exact(rows * width).zip(dst.chunks_mut(plane)) {
            for (s, d) in sp.chunks_exact(width).zip(dp.chunks_mut(pitch)) {
                d[..width].copy_from_slice(s);
            }
        }
    }
}

/// A weight whose rows are decoded on demand (a packed low-bit tensor).
pub trait DecodeRows: Sync {
    /// The weight's dims: `[n, k]` for a GEMM, `[o, c, kh, kw]` for a
    /// conv.
    fn dims(&self) -> &[usize];

    /// Decodes elements `[start, start + dst.len())` of the row-major
    /// weight into `dst`, on the `isa` path.
    fn decode_range_into_as(&self, isa: Isa, start: usize, dst: &mut [f32]);
}

/// The weight operand of an engine: its rows read where they lie, or
/// decoded into scratch. Every row-major element is the same `f32`
/// either way, so the engine's output bits do not depend on the source.
#[derive(Clone, Copy)]
pub enum Weights<'a> {
    /// `f32` rows, read in place.
    Dense(&'a Tensor),
    /// Rows decoded into per-thread scratch.
    Decoded(&'a dyn DecodeRows),
}

impl Weights<'_> {
    /// The weight's dims.
    pub fn dims(&self) -> &[usize] {
        match self {
            Weights::Dense(t) => t.dims(),
            Weights::Decoded(d) => d.dims(),
        }
    }

    /// The scratch elements [`Self::rows`] and [`Self::all`] need for
    /// `len` elements: none for dense rows.
    pub(crate) fn scratch_len(&self, len: usize) -> usize {
        match self {
            Weights::Dense(_) => 0,
            Weights::Decoded(_) => len,
        }
    }

    /// Elements `[start, start + len)`: dense rows where they lie, or
    /// decoded into the front of `scratch`.
    pub(crate) fn rows<'s>(
        &'s self,
        isa: Isa,
        start: usize,
        len: usize,
        scratch: &'s mut [f32],
    ) -> &'s [f32] {
        match self {
            Weights::Dense(t) => &t.data()[start..start + len],
            Weights::Decoded(d) => {
                d.decode_range_into_as(isa, start, &mut scratch[..len]);
                &scratch[..len]
            }
        }
    }

    /// The whole `[rows, k]` weight: dense rows where they lie, or
    /// decoded once into `scratch`, in parallel on the 8-row decode grid.
    pub(crate) fn all<'s>(
        &'s self,
        isa: Isa,
        workers: usize,
        rows: usize,
        k: usize,
        scratch: &'s mut [f32],
    ) -> &'s [f32] {
        match self {
            Weights::Dense(t) => t.data(),
            Weights::Decoded(d) => {
                parallel_rows_in(workers, scratch, rows, k, 8, |r0, chunk| {
                    d.decode_range_into_as(isa, r0 * k, chunk);
                });
                scratch
            }
        }
    }
}

/// A fused activation stage: quantizes activations as an engine stages
/// them for the micro-kernel, per tensor or per channel.
pub trait ActStage: Sync {
    /// The channels the stage tells apart (1 = per tensor).
    fn channels(&self) -> usize;

    /// Quantizes the planes of `src` into the strided rows of `dst` that
    /// `layout` names, plane `i` through channel `i % channels`, leaving
    /// every other element of `dst` as it is.
    fn quantize_planes_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32], layout: Planes);
}
