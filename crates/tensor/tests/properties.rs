//! Property-based tests for tensor algebra invariants.

use fpdq_tensor::{broadcast_shapes, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

/// An operand shape broadcastable to `out`: its trailing `rank` axes
/// (`rank` past `out.len()` adds leading 1s), each kept or replaced by 1
/// (`keep[d] == 0` broadcasts axis `d`).
fn operand_dims(out: &[usize], rank: usize, keep: &[u8]) -> Vec<usize> {
    let lead = rank.saturating_sub(out.len());
    let own = rank.min(out.len());
    let tail = (out.len() - own..out.len()).map(|d| if keep[d] == 0 { 1 } else { out[d] });
    std::iter::repeat_n(1, lead).chain(tail).collect()
}

/// Row-major multi-index of flat output position `i`.
fn unravel(mut i: usize, dims: &[usize]) -> Vec<usize> {
    let mut idx = vec![0; dims.len()];
    for d in (0..dims.len()).rev() {
        idx[d] = i % dims[d];
        i /= dims[d];
    }
    idx
}

/// The explicit-index broadcast reference: the flat offset into an
/// operand shaped `src` of output index `idx` (right-aligned, extent-1
/// axes pinned to 0).
fn operand_offset(idx: &[usize], src: &[usize]) -> usize {
    let pad = idx.len() - src.len();
    src.iter()
        .enumerate()
        .fold(0, |off, (d, &n)| off * n + if n == 1 { 0 } else { idx[pad + d] })
}

fn tensor_strategy() -> impl Strategy<Value = Tensor> {
    small_dims().prop_flat_map(|dims| {
        let n: usize = dims.iter().product();
        prop::collection::vec(-100.0f32..100.0, n)
            .prop_map(move |data| Tensor::from_vec(data, &dims))
    })
}

proptest! {
    #[test]
    fn add_commutes(t in tensor_strategy()) {
        let u = t.map(|x| x * 0.5 + 1.0);
        let lhs = t.add(&u); let rhs = u.add(&t);
        prop_assert_eq!(lhs.data(), rhs.data());
    }

    #[test]
    fn add_zero_is_identity(t in tensor_strategy()) {
        let z = Tensor::zeros(t.dims());
        let sum = t.add(&z);
        prop_assert_eq!(sum.data(), t.data());
    }

    #[test]
    fn mul_distributes_over_add(t in tensor_strategy()) {
        let a = t.map(|x| x.sin());
        let b = t.map(|x| x.cos());
        let lhs = t.mul(&a.add(&b));
        let rhs = t.mul(&a).add(&t.mul(&b));
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() <= 1e-2 + 1e-4 * x.abs().max(y.abs()) * 100.0);
        }
    }

    #[test]
    fn reshape_preserves_data(t in tensor_strategy()) {
        let flat = t.flatten();
        prop_assert_eq!(flat.data(), t.data());
        let back = flat.reshape(t.dims());
        prop_assert_eq!(back.data(), t.data());
    }

    #[test]
    fn double_transpose_is_identity(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
        let n = rows * cols;
        let data: Vec<f32> = (0..n).map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f32).collect();
        let t = Tensor::from_vec(data, &[rows, cols]);
        let tt = t.transpose().transpose();
        prop_assert_eq!(tt.data(), t.data());
    }

    #[test]
    fn sum_axis_total_matches_global_sum(t in tensor_strategy()) {
        let mut reduced = t.clone();
        while reduced.ndim() > 1 {
            reduced = reduced.sum_axis(0);
        }
        let total: f32 = reduced.data().iter().sum();
        prop_assert!((total - t.sum()).abs() < 1e-1 + t.sum().abs() * 1e-4);
    }

    #[test]
    fn softmax_is_distribution(t in tensor_strategy()) {
        let s = t.softmax_lastdim();
        let inner = *t.dims().last().unwrap();
        for row in s.data().chunks(inner) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn broadcast_is_symmetric(a in small_dims(), b in small_dims()) {
        // When broadcast succeeds in one order it must succeed in the other
        // with the same result.
        let r1 = std::panic::catch_unwind(|| broadcast_shapes(&a, &b));
        let r2 = std::panic::catch_unwind(|| broadcast_shapes(&b, &a));
        match (r1, r2) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "broadcast compatibility must be symmetric"),
        }
    }

    #[test]
    fn broadcast_walk_matches_explicit_indexing(
        out in prop::collection::vec(0usize..4, 0..5),
        ranks in prop::collection::vec(0usize..7, 2),
        keep in prop::collection::vec(0u8..3, 10),
    ) {
        // Rank mismatch, leading and trailing 1s, zero extents.
        let a_dims = operand_dims(&out, ranks[0], &keep[..5]);
        let b_dims = operand_dims(&out, ranks[1], &keep[5..]);
        let a_n: usize = a_dims.iter().product();
        let b_n: usize = b_dims.iter().product();
        let a = Tensor::from_vec((0..a_n).map(|i| i as f32 * 0.5 + 1.0).collect(), &a_dims);
        let b = Tensor::from_vec((0..b_n).map(|i| i as f32 * -0.25 - 3.0).collect(), &b_dims);
        let f = |x: f32, y: f32| x * 3.0 - y;
        let got = a.zip_map(&b, f);
        let dims = broadcast_shapes(&a_dims, &b_dims);
        prop_assert_eq!(got.dims(), dims.as_slice());
        let n: usize = dims.iter().product();
        let want: Vec<u32> = (0..n)
            .map(|i| {
                let idx = unravel(i, &dims);
                let x = a.data()[operand_offset(&idx, &a_dims)];
                let y = b.data()[operand_offset(&idx, &b_dims)];
                f(x, y).to_bits()
            })
            .collect();
        let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got_bits, want);
        // broadcast_to walks the same rows with one operand.
        let to = a.broadcast_to(&dims);
        let want_to: Vec<f32> =
            (0..n).map(|i| a.data()[operand_offset(&unravel(i, &dims), &a_dims)]).collect();
        prop_assert_eq!(to.data(), want_to.as_slice());
    }

    #[test]
    fn matmul_associates_with_identity(m in 1usize..6, k in 1usize..6) {
        let data: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.25 - 1.0).collect();
        let a = Tensor::from_vec(data, &[m, k]);
        let prod = a.matmul(&Tensor::eye(k));
        prop_assert_eq!(prod.data(), a.data());
    }

    #[test]
    fn concat_narrow_roundtrip(t in tensor_strategy(), axis_sel in 0usize..3) {
        let axis = axis_sel % t.ndim();
        let extent = t.dims()[axis];
        if extent >= 2 {
            let a = t.narrow(axis, 0, 1);
            let b = t.narrow(axis, 1, extent - 1);
            let joined = Tensor::concat(&[&a, &b], axis);
            prop_assert_eq!(joined.data(), t.data());
        }
    }
}
