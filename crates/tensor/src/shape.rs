//! Shape utilities: dimension bookkeeping and NumPy-style broadcasting.

/// A tensor shape: the extent of each dimension, outermost first.
///
/// `Shape` is a thin newtype over `Vec<usize>` providing the index
/// arithmetic used throughout the crate. Tensors are always contiguous
/// row-major, so strides are derived, never stored.
///
/// # Example
///
/// ```
/// use fpdq_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar shape).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            idx.len(),
            self.0.len()
        );
        let mut off = 0;
        let strides = self.strides();
        for (d, (&i, &s)) in idx.iter().zip(strides.iter()).enumerate() {
            assert!(i < self.0[d], "index {i} out of bounds for dim {d} of extent {}", self.0[d]);
            off += i * s;
        }
        off
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Computes the broadcast shape of two shapes under NumPy rules.
///
/// Dimensions are aligned from the innermost end; extents must match or one
/// of them must be 1.
///
/// # Panics
///
/// Panics if the shapes are not broadcast-compatible.
///
/// # Example
///
/// ```
/// use fpdq_tensor::broadcast_shapes;
/// assert_eq!(broadcast_shapes(&[4, 1, 3], &[2, 3]), vec![4, 2, 3]);
/// ```
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Vec<usize> {
    let ndim = a.len().max(b.len());
    let mut out = vec![0usize; ndim];
    for i in 0..ndim {
        let da = if i < ndim - a.len() { 1 } else { a[i - (ndim - a.len())] };
        let db = if i < ndim - b.len() { 1 } else { b[i - (ndim - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            panic!("shapes {a:?} and {b:?} are not broadcast-compatible at dim {i}");
        };
    }
    out
}

/// One innermost run of a two-operand broadcast: `len` output elements
/// whose operands start at flat offsets `a` and `b` and advance by
/// `a_step` / `b_step` (1 = contiguous, 0 = one value repeated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BroadcastRow {
    pub a: usize,
    pub a_step: usize,
    pub b: usize,
    pub b_step: usize,
    pub len: usize,
}

/// Walks the broadcast of operands shaped `a` and `b` (right-aligned) to
/// the output shape `out` in row-major order, calling `row` once per
/// innermost run. Outer indices advance by each operand's effective
/// strides (0 along a broadcast axis), and adjacent axes that are
/// contiguous for both operands merge into one, so a `[n, c, h, w] +
/// [n, c, 1, 1]` add runs `n·c` rows of `h·w` against one repeated value.
/// No per-element offset table is built.
pub(crate) fn broadcast_rows(
    out: &[usize],
    a: &[usize],
    b: &[usize],
    mut row: impl FnMut(BroadcastRow),
) {
    if out.iter().product::<usize>() == 0 {
        return;
    }
    // Effective strides in out-space: 0 where the operand has extent 1
    // or lacks the axis.
    let strides = |src: &[usize]| {
        let pad = out.len() - src.len();
        let raw = Shape::new(src).strides();
        (0..out.len())
            .map(|d| if d >= pad && src[d - pad] != 1 { raw[d - pad] } else { 0 })
            .collect::<Vec<_>>()
    };
    let (sa, sb) = (strides(a), strides(b));
    // (extent, a stride, b stride), extent-1 axes dropped, mergeable
    // neighbours merged; outermost first.
    let mut axes: Vec<(usize, usize, usize)> = Vec::with_capacity(out.len());
    for d in 0..out.len() {
        if out[d] == 1 {
            continue;
        }
        match axes.last_mut() {
            Some((n, pa, pb)) if *pa == sa[d] * out[d] && *pb == sb[d] * out[d] => {
                *n *= out[d];
                (*pa, *pb) = (sa[d], sb[d]);
            }
            _ => axes.push((out[d], sa[d], sb[d])),
        }
    }
    let (len, a_step, b_step) = axes.pop().unwrap_or((1, 0, 0));
    let mut idx = vec![0usize; axes.len()];
    let (mut oa, mut ob) = (0usize, 0usize);
    loop {
        row(BroadcastRow { a: oa, a_step, b: ob, b_step, len });
        // Advance the outer multi-index (row-major).
        let mut d = axes.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            let (n, pa, pb) = axes[d];
            idx[d] += 1;
            oa += pa;
            ob += pb;
            if idx[d] < n {
                break;
            }
            oa -= pa * n;
            ob -= pb * n;
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_math() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[1, 0, 1]), 13);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[1], &[7]), vec![7]);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn broadcast_incompatible_panics() {
        broadcast_shapes(&[2, 3], &[4, 3]);
    }

    fn rows(out: &[usize], a: &[usize], b: &[usize]) -> Vec<BroadcastRow> {
        let mut rows = Vec::new();
        broadcast_rows(out, a, b, |r| rows.push(r));
        rows
    }

    fn row(a: usize, a_step: usize, b: usize, b_step: usize, len: usize) -> BroadcastRow {
        BroadcastRow { a, a_step, b, b_step, len }
    }

    #[test]
    fn broadcast_row_walk() {
        // A row vector against a matrix: two contiguous rows, b repeats.
        assert_eq!(rows(&[2, 3], &[2, 3], &[3]), vec![row(0, 1, 0, 1, 3), row(3, 1, 0, 1, 3)]);
        // A column against a matrix: b is one value per row.
        assert_eq!(rows(&[2, 3], &[2, 3], &[2, 1]), vec![row(0, 1, 0, 0, 3), row(3, 1, 1, 0, 3)]);
        // Per-channel add over [n, c, h, w]: n·c merged rows of h·w.
        let per_channel = rows(&[2, 3, 2, 2], &[2, 3, 2, 2], &[2, 3, 1, 1]);
        assert_eq!(per_channel.len(), 6);
        assert_eq!(per_channel[4], row(16, 1, 4, 0, 4));
        // Scalar operand and all-1 output: one row.
        assert_eq!(rows(&[4], &[4], &[1]), vec![row(0, 1, 0, 0, 4)]);
        assert_eq!(rows(&[1, 1], &[1], &[1, 1]), vec![row(0, 0, 0, 0, 1)]);
        // Zero extent: no rows at all.
        assert!(rows(&[2, 0], &[2, 1], &[0]).is_empty());
    }
}
