//! Per-thread scratch of the engine's kernels, reused across calls.
//!
//! A served U-Net forward makes dozens of small kernel calls, and each
//! needs a decoded weight bank, a staged activation operand or an
//! attention head's operands for the length of the call. Allocating them
//! afresh per call cost more than some of the multiplies, so each role
//! owns one buffer per thread, grown on demand and kept for the next
//! call: at one worker a GEMM or conv call allocates only its output.
//! Buffers of the spawned workers of a multi-worker region live as long
//! as those threads.
//!
//! Roles that are live at the same time on one thread use distinct
//! slots. A nested take of a slot that is already taken still works: it
//! gets a fresh buffer, and the slot keeps whichever is returned last.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// A per-thread buffer of one role.
pub type Slot<T> = LocalKey<Cell<Vec<T>>>;

thread_local! {
    /// The engines' interleaved or decoded weights: a packed conv's filter
    /// bank, GEMM weight panels, or the row-parallel GEMM's activation
    /// panels.
    pub static WEIGHTS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// A quantized activation operand: one image, or a GEMM row block.
    pub static ACTS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// A staged operand: a zero-bordered image, im2col panels, or
    /// decoded weight rows awaiting interleave.
    pub static STAGED: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// The direct conv's tap offsets and panel bases.
    pub static INDEX: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
    /// The attention core's per-head operands: q, kᵀ, v, the scores and
    /// the head's output.
    pub(crate) static HEADS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// `len` elements of one slot of the calling thread, returned to the slot
/// on drop. The contents on entry are unspecified: callers overwrite
/// every element they read.
pub struct Scratch<T: 'static> {
    slot: &'static Slot<T>,
    buf: Vec<T>,
    len: usize,
}

impl<T: Copy + Default> Scratch<T> {
    /// Takes `slot`'s buffer, grown to at least `len` elements.
    pub fn take(slot: &'static Slot<T>, len: usize) -> Self {
        let mut buf = slot.take();
        if buf.len() < len {
            buf.resize(len, T::default());
        }
        Scratch { slot, buf, len }
    }
}

impl<T> Deref for Scratch<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T> DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T: 'static> Drop for Scratch<T> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // During thread teardown the slot may already be gone; the
        // buffer is then simply freed.
        let _ = self.slot.try_with(|cell| cell.set(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_returned_buffer_is_reused_and_nested_takes_stay_distinct() {
        let first = Scratch::<f32>::take(&ACTS, 64);
        let ptr = first.as_ptr();
        drop(first);
        let again = Scratch::<f32>::take(&ACTS, 16);
        assert_eq!(again.as_ptr(), ptr, "the slot's buffer was not reused");
        assert_eq!(again.len(), 16);
        let nested = Scratch::<f32>::take(&ACTS, 16);
        assert_ne!(nested.as_ptr(), again.as_ptr(), "a nested take aliased a live buffer");
    }
}
