//! Deterministic data-parallel helpers built on `std::thread::scope`.
//!
//! The hermetic build environment has no `rayon`, so this module provides
//! the small slice-parallel surface the workspace's hot paths need:
//! indexed map over a shared slice ([`par_map`]) and in-place mutation
//! ([`par_for_each_mut`]).
//!
//! Design rules:
//!
//! - **Determinism:** results are returned in input order and every
//!   element is computed by a pure call of the supplied closure, so a
//!   parallel run is bit-identical to the serial one. The differential
//!   tests in `nemo-core` rely on this.
//! - **Small inputs stay serial:** below [`MIN_PARALLEL_ITEMS`] the
//!   closure runs inline — thread spawn costs would dominate the toy
//!   corpora used in unit tests.
//! - **Bounded threads:** worker count is `available_parallelism`
//!   clamped to [`MAX_THREADS`], overridable with the `NEMO_THREADS`
//!   environment variable (`NEMO_THREADS=1` forces serial execution
//!   everywhere, useful for profiling and bisection).

use std::num::NonZeroUsize;

/// Inputs smaller than this run serially.
pub const MIN_PARALLEL_ITEMS: usize = 2048;

/// Hard cap on worker threads (diminishing returns beyond this for the
/// memory-bound kernels here).
pub const MAX_THREADS: usize = 16;

/// Number of worker threads used for parallel sections.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("NEMO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, MAX_THREADS);
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1).min(MAX_THREADS)
}

/// Map `f(i, &items[i])` over a slice, returning results in input order.
///
/// Parallel when the input is large enough; always equivalent to
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_min(items, MIN_PARALLEL_ITEMS, f)
}

/// [`par_map`] with a caller-chosen parallelism threshold, for inputs with
/// few but individually heavy items (e.g. one labeling function per item,
/// each scanning its whole coverage list).
pub fn par_map_min<T, R, F>(items: &[T], min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = if items.len() < min_items.max(2) { 1 } else { num_threads().min(items.len()) };
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, slice)| {
                let f = &f;
                let base = c * chunk;
                scope.spawn(move || {
                    slice.iter().enumerate().map(|(j, x)| f(base + j, x)).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                // Re-raise with the original payload so assertion
                // messages from worker closures survive.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for p in parts {
        out.extend(p);
    }
    out
}

/// Partition `items` into at most [`num_threads`] contiguous chunks and
/// map each chunk with `f(base, chunk)` (`base` = index of the chunk's
/// first item), concatenating the per-chunk vectors in input order.
///
/// Unlike [`par_map`], the closure sees a whole partition at once, so
/// per-worker state (e.g. a distance scratch accumulator) is allocated
/// once per chunk instead of once per item. Inputs below `min_items` run
/// as a single serial chunk. Results are deterministic: the output equals
/// `f(0, items)` run serially whenever `f` itself is item-wise.
pub fn par_flat_map_chunks<T, R, F>(items: &[T], min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = if items.len() < min_items.max(2) { 1 } else { num_threads().min(items.len()) };
    if threads <= 1 {
        return f(0, items);
    }
    let chunk = items.len().div_ceil(threads);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, slice)| {
                let f = &f;
                scope.spawn(move || f(c * chunk, slice))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                // Re-raise with the original payload so assertion
                // messages from worker closures survive.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
    out
}

/// Apply `f(i, &mut items[i])` to every element in place.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = effective_threads(items.len());
    if threads <= 1 {
        for (i, x) in items.iter_mut().enumerate() {
            f(i, x);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, slice) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            let base = c * chunk;
            scope.spawn(move || {
                for (j, x) in slice.iter_mut().enumerate() {
                    f(base + j, x);
                }
            });
        }
    });
}

/// Split `items` into fixed-width `chunk_size` chunks and apply
/// `f(base, chunk)` to every chunk (`base` = index of the chunk's first
/// item), distributing whole chunks over workers.
///
/// The chunk grid depends only on `items.len()` and `chunk_size`, never on
/// the worker count, so any per-chunk state `f` derives from `base` (shard
/// boundaries, accumulator extents) is identical under `NEMO_THREADS=1`
/// and `NEMO_THREADS=16`. Chunks are disjoint `&mut` regions: workers
/// never share elements, and the serial path visits the same chunks in
/// the same order.
pub fn par_for_each_fixed_chunk_mut<T, F>(items: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    if items.is_empty() {
        return;
    }
    let n = items.len();
    let n_chunks = n.div_ceil(chunk_size);
    let threads = num_threads().min(n_chunks);
    if threads <= 1 {
        for (c, chunk) in items.chunks_mut(chunk_size).enumerate() {
            f(c * chunk_size, chunk);
        }
        return;
    }
    // Whole chunks per worker: region boundaries land on chunk boundaries,
    // so the per-chunk bases a worker sees match the serial enumeration.
    let per_worker = n_chunks.div_ceil(threads);
    let region = per_worker * chunk_size;
    std::thread::scope(|scope| {
        for (w, slice) in items.chunks_mut(region).enumerate() {
            let f = &f;
            let base = w * region;
            scope.spawn(move || {
                for (c, chunk) in slice.chunks_mut(chunk_size).enumerate() {
                    f(base + c * chunk_size, chunk);
                }
            });
        }
    });
}

/// Two-slice variant of [`par_for_each_fixed_chunk_mut`]: `a` and `b` must
/// be the same length and are chunked on the same fixed grid, so `f`
/// receives matching `(base, a_chunk, b_chunk)` triples. Used by the
/// sharded distance kernels, which update a scratch accumulator chunk and
/// an output chunk for the same row range in one pass.
pub fn par_for_each_fixed_chunk2_mut<A, B, F>(a: &mut [A], b: &mut [B], chunk_size: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    assert_eq!(a.len(), b.len(), "fixed-chunk slices must be the same length");
    if a.is_empty() {
        return;
    }
    let n = a.len();
    let n_chunks = n.div_ceil(chunk_size);
    let threads = num_threads().min(n_chunks);
    if threads <= 1 {
        for (c, (ca, cb)) in a.chunks_mut(chunk_size).zip(b.chunks_mut(chunk_size)).enumerate() {
            f(c * chunk_size, ca, cb);
        }
        return;
    }
    let per_worker = n_chunks.div_ceil(threads);
    let region = per_worker * chunk_size;
    std::thread::scope(|scope| {
        for (w, (ra, rb)) in a.chunks_mut(region).zip(b.chunks_mut(region)).enumerate() {
            let f = &f;
            let base = w * region;
            scope.spawn(move || {
                for (c, (ca, cb)) in
                    ra.chunks_mut(chunk_size).zip(rb.chunks_mut(chunk_size)).enumerate()
                {
                    f(base + c * chunk_size, ca, cb);
                }
            });
        }
    });
}

/// Apply `f(i, &mut items[i])` to every element, distributing items over
/// workers dynamically through a shared work queue (work stealing).
///
/// The chunked schedulers above pre-partition the slice into equal
/// contiguous regions, which is the right shape for uniform data-parallel
/// kernels but suffers head-of-line blocking when items are few, coarse,
/// and heterogeneous — e.g. one interactive session round per item, where
/// a cold session (restore + relearn) can cost 10× a warm one. Here idle
/// workers keep pulling the next unclaimed item, so stragglers no longer
/// serialize the batch.
///
/// Every item is still processed by exactly one pure `f` call, so results
/// are bit-identical to the serial loop under any worker count. There is
/// no [`MIN_PARALLEL_ITEMS`] threshold: callers hand this scheduler
/// coarse tasks where per-item work dwarfs the queue lock.
///
/// `workers` is clamped to `1..=`[`MAX_THREADS`]: callers manage their own
/// worker budget — e.g. a session pool pinning a determinism test to fixed
/// counts independent of the ambient `NEMO_THREADS` setting.
pub fn par_for_each_stealing_with<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = workers.clamp(1, MAX_THREADS).min(items.len());
    if threads <= 1 {
        for (i, x) in items.iter_mut().enumerate() {
            f(i, x);
        }
        return;
    }
    // The queue is the iterator itself: each `next()` hands a worker an
    // exclusive `&mut` to one item, so items never race and the lock is
    // held only for the handoff, not the work.
    let queue = std::sync::Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let queue = &queue;
                let f = &f;
                scope.spawn(move || loop {
                    // A worker panic poisons the queue; fellow workers
                    // then stop pulling and the panic is re-raised below.
                    let next = match queue.lock() {
                        Ok(mut guard) => guard.next(),
                        Err(_) => None,
                    };
                    match next {
                        Some((i, x)) => f(i, x),
                        None => break,
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                // Re-raise with the original payload so assertion
                // messages from worker closures survive.
                std::panic::resume_unwind(payload);
            }
        }
    });
}

fn effective_threads(n: usize) -> usize {
    if n < MIN_PARALLEL_ITEMS {
        1
    } else {
        num_threads().min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_small() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |i, &x| x * 2 + i as u64);
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * 2 + i as u64).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_matches_serial_large() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(&items, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_for_each_mut_touches_every_element() {
        let mut items: Vec<usize> = vec![0; 10_000];
        par_for_each_mut(&mut items, |i, x| *x = i + 1);
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, i + 1);
        }
    }

    #[test]
    fn par_flat_map_chunks_matches_serial() {
        let items: Vec<u64> = (0..10_000).collect();
        let map_chunk = |base: usize, chunk: &[u64]| -> Vec<u64> {
            chunk.iter().enumerate().map(|(j, &x)| x * 3 + (base + j) as u64).collect()
        };
        let out = par_flat_map_chunks(&items, 2, map_chunk);
        assert_eq!(out, map_chunk(0, &items));
    }

    #[test]
    fn par_flat_map_chunks_small_is_one_chunk() {
        let items: Vec<u32> = (0..5).collect();
        let out = par_flat_map_chunks(&items, 100, |base, chunk| {
            assert_eq!(base, 0);
            assert_eq!(chunk.len(), 5);
            chunk.to_vec()
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert!(par_flat_map_chunks(&empty, 0, |_, c| c.to_vec()).is_empty());
        let mut e2: Vec<u32> = Vec::new();
        par_for_each_mut(&mut e2, |_, _| {});
    }

    #[test]
    fn fixed_chunk_mut_visits_every_chunk_once() {
        for n in [0usize, 1, 7, 100, 4096, 10_000] {
            for chunk in [1usize, 3, 64, 4096] {
                let mut items: Vec<usize> = vec![0; n];
                par_for_each_fixed_chunk_mut(&mut items, chunk, |base, c| {
                    // The base must sit on the fixed grid and the chunk must
                    // be full-width except possibly the last.
                    assert_eq!(base % chunk, 0);
                    assert!(c.len() == chunk || base + c.len() == n);
                    for (j, x) in c.iter_mut().enumerate() {
                        *x += base + j + 1;
                    }
                });
                for (i, &x) in items.iter().enumerate() {
                    assert_eq!(x, i + 1, "n={n} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn fixed_chunk2_mut_pairs_same_ranges() {
        let n = 10_000;
        let mut a: Vec<usize> = vec![0; n];
        let mut b: Vec<usize> = vec![0; n];
        par_for_each_fixed_chunk2_mut(&mut a, &mut b, 257, |base, ca, cb| {
            assert_eq!(ca.len(), cb.len());
            for (j, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                *x = base + j;
                *y = 2 * (base + j);
            }
        });
        for i in 0..n {
            assert_eq!(a[i], i);
            assert_eq!(b[i], 2 * i);
        }
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn fixed_chunk2_rejects_mismatched_lengths() {
        let mut a = [0u8; 3];
        let mut b = [0u8; 4];
        par_for_each_fixed_chunk2_mut(&mut a, &mut b, 2, |_, _, _| {});
    }

    #[test]
    fn stealing_touches_every_element_once() {
        for workers in [1usize, 2, 4, 16] {
            for n in [0usize, 1, 5, 100, 3000] {
                let mut items: Vec<usize> = vec![0; n];
                par_for_each_stealing_with(&mut items, workers, |i, x| *x += i + 1);
                for (i, &x) in items.iter().enumerate() {
                    assert_eq!(x, i + 1, "workers={workers} n={n}");
                }
            }
        }
    }

    #[test]
    fn stealing_drains_heterogeneous_queue() {
        // Items with wildly uneven costs must all complete exactly once.
        let mut items: Vec<(u64, u64)> = (0..64).map(|i| (i, 0)).collect();
        par_for_each_stealing_with(&mut items, 4, |_, item| {
            let spins = if item.0 % 7 == 0 { 20_000 } else { 10 };
            let mut acc = item.0;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            item.1 = acc | 1;
        });
        assert!(items.iter().all(|&(_, done)| done != 0));
    }

    #[test]
    fn thread_count_is_bounded() {
        let n = num_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }
}
