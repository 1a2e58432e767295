//! Shared references of the differential suites.

use fpdq::kernels::PackedTensor;
use fpdq::quant::{FpFormat, PanelQuantizer, TensorQuantizer};
use fpdq::tensor::conv::{im2col_panel_into, Conv2dSpec};
use fpdq::tensor::matmul::{gemm_nt_panel_as, NT_NR};
use fpdq::tensor::simd::Isa;
use fpdq::tensor::Tensor;

/// The packed conv's panel path rebuilt from its public pieces, on the
/// scalar ISA and one thread: decode the filter bank, quantize each image
/// through `act`, lower every 8-pixel tile with `im2col_panel_into`,
/// sweep it with `gemm_nt_panel_as`, then add the bias. The oracle of the
/// direct path, which must reproduce it bit for bit.
pub fn panel_conv(
    x: &Tensor,
    w: &PackedTensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    act: Option<&PanelQuantizer>,
) -> Tensor {
    let (n, c, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (o, kh, kw) = (w.dims()[0], w.dims()[2], w.dims()[3]);
    let (oh, ow) = (spec.out_extent(h, kh), spec.out_extent(wd, kw));
    let (ckk, ohow, chw) = (c * kh * kw, oh * ow, c * h * wd);
    let mut filters = vec![0.0f32; o * ckk];
    w.decode_range_into_as(Isa::Scalar, 0, &mut filters);
    let mut out = vec![0.0f32; n * o * ohow];
    let mut panel = vec![0.0f32; ckk * NT_NR];
    for (b, obatch) in out.chunks_mut(o * ohow).enumerate() {
        let src = &x.data()[b * chw..(b + 1) * chw];
        let mut img = src.to_vec();
        if let Some(pq) = act {
            pq.quantize_panel_into_as(Isa::Scalar, src, &mut img, h * wd);
        }
        for j0 in (0..ohow).step_by(NT_NR) {
            let nw = NT_NR.min(ohow - j0);
            im2col_panel_into(&img, c, h, wd, kh, kw, spec, j0, nw, &mut panel);
            gemm_nt_panel_as(Isa::Scalar, &filters, &panel, obatch, o, ckk, ohow, j0, nw);
        }
        if let Some(bias) = bias {
            for (plane, &bv) in obatch.chunks_mut(ohow).zip(bias.data()) {
                plane.iter_mut().for_each(|v| *v += bv);
            }
        }
    }
    Tensor::from_vec(out, &[n, o, oh, ow])
}

/// The direct path's conv shapes: 3×3 with padding 1 and 1×1 without,
/// on square maps whose width is 4, 8 or 16.
pub fn direct_shapes() -> Vec<(usize, Conv2dSpec, usize)> {
    let mut shapes = Vec::new();
    for (k, pad) in [(3usize, 1usize), (1, 0)] {
        for hw in [4usize, 8, 16] {
            shapes.push((k, Conv2dSpec::new(1, pad), hw));
        }
    }
    shapes
}

/// No activation quantizer, a per-tensor one, and a trunk/skip split at
/// half of `c` channels (per tensor when `c` is 1).
pub fn direct_act_quantizers(c: usize) -> Vec<Option<PanelQuantizer>> {
    let trunk = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let skip = TensorQuantizer::Fp(FpFormat::with_bias(2, 1, 2.5));
    vec![
        None,
        Some(PanelQuantizer::per_tensor(&trunk)),
        Some(PanelQuantizer::split(&trunk, &skip, c.div_ceil(2), c)),
    ]
}
