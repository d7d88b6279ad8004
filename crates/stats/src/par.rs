//! The one order-preserving parallel executor.
//!
//! Every compute pool in the workspace — replications, sweeps, per-node
//! network maps, the scenario batch, fleet-file parsing, `wsnem check`'s
//! per-file checks and report rendering — runs through [`map_indexed`]:
//! evaluate `f(0..n)` on up to `threads` scoped workers and return the
//! results in index order. Callers key any randomness by the index (a
//! replication draws stream `i` of its master seed), so the output never
//! depends on which worker ran which index, nor on how many workers ran.
//!
//! Workers claim indices dynamically rather than splitting the range into
//! static contiguous chunks: costs vary wildly (a DES-heavy scenario runs
//! orders of magnitude longer than an analytic one, a cache hit costs a
//! file read), and static partitioning left every other worker idle at the
//! tail while one thread drained the expensive chunk. Claims are whole
//! blocks of `grain = max(1, n / (workers * 1024))` indices: a map of
//! fewer than 2048 indices per worker — in practice every batch,
//! replication set, sweep and explicit network — still claims one index
//! at a time, while a million-node map takes the shared lock once per
//! block instead of once per node.
//!
//! ```
//! use wsnem_stats::par::map_indexed;
//!
//! let squares = map_indexed(5, Some(2), |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

use std::sync::{Mutex, PoisonError};

/// Number of workers [`map_indexed`] runs `n` items on: `threads` when
/// pinned, else the available parallelism, clamped to `1..=max(n, 1)`.
pub fn workers(n: usize, threads: Option<usize>) -> usize {
    // One item needs one worker; skip the parallelism query, which reads
    // the cgroup's CPU quota on every call.
    if n <= 1 {
        return 1;
    }
    threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, n.max(1))
}

/// Threads for work nested under `outer` parallel workers: one each when
/// the outer level already runs in parallel, so nesting does not multiply
/// the thread count; all cores (`None`) under a single outer worker.
pub fn inner_threads(outer: usize) -> Option<usize> {
    (outer > 1).then_some(1)
}

/// Evaluate `f(i)` for every `i` in `0..n` on [`workers(n, threads)`]
/// workers and return the results in index order.
///
/// `threads = None` uses the available parallelism; callers that already
/// parallelize at a higher level pass `Some(1)`, which runs every index on
/// the calling thread. Each index runs exactly once. If `f` panics, the
/// other workers finish their claims and the first panic payload is
/// re-raised on the calling thread.
///
/// [`workers(n, threads)`]: workers
pub fn map_indexed<T, F>(n: usize, threads: Option<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers(n, threads);
    let grain = (n / (workers * 1024)).max(1);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        // The lock guards only the hand-out of the next block; taking the
        // next chunk cannot panic, so a poisoned lock still holds a valid
        // iterator.
        let blocks = Mutex::new(slots.chunks_mut(grain).enumerate());
        let work = || loop {
            let claim = blocks.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((b, block)) = claim else { break };
            for (j, slot) in block.iter_mut().enumerate() {
                *slot = Some(f(b * grain + j));
            }
        };
        if workers == 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                let mut panic = None;
                for handle in handles {
                    if let Err(payload) = handle.join() {
                        panic.get_or_insert(payload);
                    }
                }
                if let Some(payload) = panic {
                    std::panic::resume_unwind(payload);
                }
            });
        }
    }
    // The blocks partition the whole slice and every block is claimed
    // before the workers stop, so every slot was written.
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(value) => value,
            None => unreachable!("index left unevaluated"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order_and_runs_each_index_once() {
        for n in [0, 1, 7, 5000] {
            for threads in [None, Some(1), Some(2), Some(64)] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = map_indexed(n, threads, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * 3
                });
                assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "n = {n}, threads = {threads:?}: an index ran other than once"
                );
            }
        }
    }

    #[test]
    fn multi_index_blocks_cover_the_short_last_block() {
        // 2 workers × 1024 → grain 3 at n = 6145, whose last block holds
        // a single index.
        let n = 2 * 1024 * 3 + 1;
        assert_eq!(n / (workers(n, Some(2)) * 1024), 3);
        let out = map_indexed(n, Some(2), |i| i);
        assert_eq!(out.len(), n);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn worker_count_is_clamped_to_the_work() {
        assert_eq!(workers(0, Some(8)), 1);
        assert_eq!(workers(3, Some(8)), 3);
        assert_eq!(workers(3, Some(0)), 1);
        assert!(workers(100, None) >= 1);
    }

    #[test]
    fn nested_work_is_pinned_only_under_parallel_workers() {
        assert_eq!(inner_threads(1), None);
        assert_eq!(inner_threads(2), Some(1));
        assert_eq!(inner_threads(8), Some(1));
    }

    #[test]
    fn a_panic_re_raises_its_original_payload() {
        for threads in [Some(1), Some(2)] {
            let caught = std::panic::catch_unwind(|| {
                map_indexed(8, threads, |i| {
                    if i == 5 {
                        std::panic::panic_any("boom");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        }
    }
}
