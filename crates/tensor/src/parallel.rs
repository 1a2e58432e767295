//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! The workspace deliberately avoids a work-stealing runtime; the tensor
//! kernels only need "split this range across cores" parallelism, which
//! scoped threads provide with zero dependencies.

use crate::schedule::workers_for;
use crate::simd::{self, Isa};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where a kernel runs: the ISA path its inner loops take and the number
/// of workers its parallel regions (and regime decisions) use.
///
/// [`Exec::default`] is the shipping configuration — the dispatched ISA
/// ([`simd::active`]) on the process-wide [`num_threads`] workers. Tests
/// and tuners name both fields explicitly to sweep ISAs and schedules in
/// one process; under the bit-identity contract every `Exec` produces the
/// same output bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exec {
    /// ISA path of the inner loops; an unsupported ISA falls back to
    /// scalar.
    pub isa: Isa,
    /// Worker-count cap (`0` is treated as 1).
    pub workers: usize,
}

impl Exec {
    /// An explicit ISA and worker count.
    pub fn new(isa: Isa, workers: usize) -> Self {
        Exec { isa, workers }
    }

    /// [`Exec::default`] capped to the workers a call of `macs`
    /// multiply-adds pays for ([`workers_for`]): the worker policy of
    /// dense `Tensor::matmul_nt` and of the model layers.
    pub fn for_macs(macs: usize) -> Self {
        let Exec { isa, workers } = Exec::default();
        Exec::new(isa, workers_for(macs, workers))
    }
}

impl Default for Exec {
    fn default() -> Self {
        Exec { isa: simd::active(), workers: num_threads() }
    }
}

/// Returns the number of worker threads to use for parallel kernels.
///
/// Respects the `FPDQ_THREADS` environment variable when set (useful for
/// reproducible benchmarking); otherwise uses the machine's available
/// parallelism, capped at 16.
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("FPDQ_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Splits a mutable slice into `0..rows` row-chunks of `row` elements
/// each and processes them on up to `workers` scoped threads:
/// `body(row_start, rows_chunk)`. Each worker receives an exclusive
/// `&mut [f32]` window covering whole rows, so kernels write without
/// synchronisation. The split starts no more workers than give each
/// `min_rows` rows, and one worker runs inline.
///
/// The worker count is explicit: callers pass [`num_threads`] for the
/// process-wide default, while the engines thread their scheduling
/// decision and their execution through one [`Exec`], and the
/// differential test suite sweeps worker counts in one process (where
/// `FPDQ_THREADS` is cached and cannot vary). `workers == 0` is treated
/// as 1.
pub fn parallel_rows_in<F>(
    workers: usize,
    out: &mut [f32],
    rows: usize,
    row: usize,
    min_rows: usize,
    body: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    parallel_rows_aligned_in(workers, out, rows, row, min_rows, 1, body);
}

/// [`parallel_rows_in`] with chunk starts forced to multiples of `align`.
///
/// Tiled kernels want worker boundaries on their register-block grid
/// (e.g. the 4-row blocks of the NT micro-kernel): aligned chunks keep
/// every worker's block decomposition identical to the single-threaded
/// run, so blocked kernels that group rows (like `gemm_serial`'s 4-row
/// zero-skip) partition work exactly as the serial pass would. The chunk
/// decomposition for a given `(workers, rows, align)` is deterministic,
/// so callers that pin `workers` get a reproducible schedule regardless
/// of `FPDQ_THREADS`.
pub fn parallel_rows_aligned_in<F>(
    workers: usize,
    out: &mut [f32],
    rows: usize,
    row: usize,
    min_rows: usize,
    align: usize,
    body: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(out.len(), rows * row, "output length must equal rows * row");
    if rows == 0 {
        return;
    }
    let workers = workers.max(1).min(rows / min_rows.max(1)).max(1);
    if workers <= 1 {
        body(0, out);
        return;
    }
    let align = align.max(1);
    let rows_per = rows.div_ceil(workers).next_multiple_of(align);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut row_start = 0usize;
        while row_start < rows {
            let take = rows_per.min(rows - row_start);
            let (head, tail) = rest.split_at_mut(take * row);
            rest = tail;
            let body = &body;
            let rs = row_start;
            scope.spawn(move || body(rs, head));
            row_start += take;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn rows_partition_exclusive() {
        let mut out = vec![0.0f32; 7 * 5];
        parallel_rows_in(num_threads(), &mut out, 7, 5, 1, |row_start, chunk| {
            for (r, row) in chunk.chunks_mut(5).enumerate() {
                for v in row.iter_mut() {
                    *v = (row_start + r) as f32;
                }
            }
        });
        for r in 0..7 {
            for c in 0..5 {
                assert_eq!(out[r * 5 + c], r as f32);
            }
        }
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn explicit_worker_counts_cover_rows_exactly_once() {
        // The `_in` variants must partition identically for any worker
        // count, including 0 (treated as 1) and more workers than rows.
        for workers in [0usize, 1, 2, 3, 8, 64] {
            let mut out = vec![0.0f32; 13 * 2];
            parallel_rows_in(workers, &mut out, 13, 2, 1, |_, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1.0;
                }
            });
            assert!(out.iter().all(|&v| v == 1.0), "workers = {workers}");
        }
    }

    #[test]
    fn explicit_single_worker_gets_whole_slice() {
        let mut out = vec![0.0f32; 9 * 4];
        let calls = Mutex::new(0usize);
        parallel_rows_aligned_in(1, &mut out, 9, 4, 1, 4, |start, chunk| {
            *calls.lock().unwrap() += 1;
            assert_eq!(start, 0);
            assert_eq!(chunk.len(), 9 * 4);
        });
        assert_eq!(*calls.lock().unwrap(), 1);
    }

    #[test]
    fn aligned_rows_partition_on_grid() {
        // Chunk starts must land on multiples of the alignment and still
        // cover every row exactly once.
        let mut out = vec![0.0f32; 11 * 3];
        let starts = Mutex::new(Vec::new());
        parallel_rows_aligned_in(2, &mut out, 11, 3, 1, 4, |row_start, chunk| {
            starts.lock().unwrap().push((row_start, chunk.len() / 3));
            for v in chunk.iter_mut() {
                *v += 1.0;
            }
        });
        for (start, _) in starts.lock().unwrap().iter() {
            assert_eq!(start % 4, 0, "chunk start {start} off the 4-row grid");
        }
        assert!(out.iter().all(|&v| v == 1.0), "rows must be covered exactly once");
    }
}
