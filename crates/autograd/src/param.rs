//! Trainable parameters: shared, identity-carrying tensors.

use fpdq_tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Globally unique identity of a [`Param`].
///
/// Optimizer state and gradient maps are keyed by `ParamId`, so cloning a
/// `Param` (which shares storage) preserves its identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(u64);

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(1);

/// A trainable tensor with shared interior-mutable storage.
///
/// Layers hold `Param`s; a [`crate::Tape`] binds them as graph leaves; the
/// optimizer mutates them in place between training steps. `Clone` is
/// shallow — both clones refer to the same storage and id.
///
/// # Example
///
/// ```
/// use fpdq_autograd::Param;
/// use fpdq_tensor::Tensor;
/// let p = Param::new(Tensor::zeros(&[2, 2]));
/// let alias = p.clone();
/// p.update(|t| t.data_mut()[0] = 5.0);
/// assert_eq!(alias.value().data()[0], 5.0);
/// ```
#[derive(Clone, Debug)]
pub struct Param {
    id: ParamId,
    value: Rc<RefCell<Tensor>>,
}

impl Param {
    /// Wraps a tensor as a trainable parameter with a fresh identity.
    pub fn new(value: Tensor) -> Self {
        Param {
            id: ParamId(NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed)),
            value: Rc::new(RefCell::new(value)),
        }
    }

    /// This parameter's unique identity.
    pub fn id(&self) -> ParamId {
        self.id
    }

    /// A clone of the current value.
    pub fn value(&self) -> Tensor {
        self.value.borrow().clone()
    }

    /// Runs `f` on the current value without cloning it.
    ///
    /// # Panics
    ///
    /// Panics if `f` updates or replaces this parameter (or an alias).
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.value.borrow())
    }

    /// Shape of the current value.
    pub fn dims(&self) -> Vec<usize> {
        self.value.borrow().dims().to_vec()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.value.borrow().numel()
    }

    /// Mutates the value in place.
    pub fn update(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.value.borrow_mut());
    }

    /// Replaces the value entirely.
    ///
    /// # Panics
    ///
    /// Panics if the new value's shape differs from the current one (that
    /// would silently invalidate optimizer state).
    pub fn replace(&self, value: Tensor) {
        let mut cur = self.value.borrow_mut();
        assert_eq!(cur.dims(), value.dims(), "Param::replace must preserve shape");
        *cur = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = Param::new(Tensor::zeros(&[1]));
        let b = Param::new(Tensor::zeros(&[1]));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn clone_shares_storage_and_id() {
        let a = Param::new(Tensor::zeros(&[2]));
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        a.update(|t| t.data_mut()[1] = 9.0);
        assert_eq!(b.value().data(), &[0.0, 9.0]);
    }

    #[test]
    fn with_value_reads_the_shared_storage() {
        let a = Param::new(Tensor::zeros(&[2]));
        a.clone().update(|t| t.data_mut()[0] = 3.0);
        assert_eq!(a.with_value(|t| t.data()[0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "preserve shape")]
    fn replace_shape_mismatch_panics() {
        let a = Param::new(Tensor::zeros(&[2]));
        a.replace(Tensor::zeros(&[3]));
    }
}
