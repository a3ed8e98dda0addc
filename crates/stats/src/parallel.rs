//! Deterministic scoped-thread work splitting with per-task seed derivation.
//!
//! Every parallel stage in the workspace (CV grid scoring, Monte Carlo
//! generation, the error-vs-n sweep) follows the same contract: each unit
//! of work owns an RNG seeded from a **root seed plus a stable task
//! index**, so the random stream a task consumes is a function of *what*
//! the task is, never of *which thread* runs it or in what order. Results
//! are therefore bit-identical for any thread count, including 1. This
//! module is the single implementation of that contract:
//!
//! * [`derive_seed`] — mixes `(root, stream, index)` into a task seed;
//! * [`scoped_map`] / [`scoped_map_range`] — run an indexed map over
//!   `std::thread::scope` workers (inline on the caller when one worker
//!   suffices), returning results in task order and converting worker
//!   panics into a [`WorkerPanic`] error instead of aborting the caller;
//! * [`available_threads`] / [`resolve_threads`] — the `--threads`
//!   default policy shared by every binary.
//!
//! No work-stealing: task `i` is statically assigned to worker
//! `i % threads` (round-robin striding). The workloads here are uniform
//! enough that static assignment wastes little, and it keeps the
//! scheduling — like the seeding — trivially deterministic.

/// Derives the seed of task `index` on logical stream `stream` from a
/// root seed, with SplitMix64-style avalanche mixing.
///
/// `stream` separates independent consumers under one root (e.g. the
/// early vs. late Monte Carlo stage, or the per-repeat fold shuffles of
/// one CV search) so that equal indices on different streams never
/// collide. The mix is bijective in `root` for fixed `(stream, index)`
/// and avalanches well enough that consecutive indices produce unrelated
/// seeds.
#[must_use]
pub fn derive_seed(root: u64, stream: u64, index: u64) -> u64 {
    let mut z = root
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The machine's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a `--threads` request: an explicit positive count wins,
/// otherwise the machine's available parallelism.
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(t) if t > 0 => t,
        _ => available_threads(),
    }
}

/// A worker thread panicked while executing [`scoped_map`] /
/// [`scoped_map_range`].
///
/// The panic is contained (joined, not propagated), its payload captured
/// here so callers can degrade gracefully instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the panicking worker (not task).
    pub worker: usize,
    /// The panic payload, when it was a string; a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f(index)` for every `index in 0..len` across at most `threads`
/// worker threads and returns the results in index order.
///
/// Task `i` runs on worker `i % threads`; `threads` is clamped to
/// `[1, len]` so requesting more workers than tasks (or 0) is safe. With
/// one effective worker the tasks run inline on the calling thread —
/// spawning a thread costs tens of microseconds, far more than many
/// small maps — under the same `parallel.worker` span and with the
/// same panic containment, so the contract below holds uniformly at
/// every thread count.
///
/// # Errors
///
/// Returns [`WorkerPanic`] if any worker panics; the first panicking
/// worker (by worker index) is reported and the panics of others are
/// contained.
pub fn scoped_map_range<U, F>(len: usize, threads: usize, f: F) -> Result<Vec<U>, WorkerPanic>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = threads.clamp(1, len.max(1));
    // One worker's share, tasks `worker, worker + threads, …`. Both the
    // inline and the spawned path run this one body, so `f` keeps a
    // single call site; a second one measurably slowed the spawned
    // workers of the Monte Carlo loop.
    let share = |worker: usize| -> Vec<(usize, U)> {
        (worker..len).step_by(threads).map(|i| (i, f(i))).collect()
    };
    if threads == 1 {
        // `f` only borrows what the caller lent it, and a panic discards
        // the partial results, so no broken state is observable.
        return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = bmf_obs::span("parallel.worker");
            share(0)
        }))
        .map(|pairs| pairs.into_iter().map(|(_, value)| value).collect())
        .map_err(|payload| WorkerPanic {
            worker: 0,
            message: panic_message(payload.as_ref()),
        });
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    let mut first_panic: Option<WorkerPanic> = None;
    // The workers' spans nest under the caller's open span, and the
    // caller's wait leaves that span's self time at the join.
    let fork = bmf_obs::span::fork();

    std::thread::scope(|scope| {
        let (share, fork) = (&share, &fork);
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    // Worker span closes before the thread exits, so its
                    // event rides the TLS-buffer merge at scope join.
                    let _span = fork.span("parallel.worker");
                    share(worker)
                })
            })
            .collect();
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(pairs) => {
                    for (i, value) in pairs {
                        slots[i] = Some(value);
                    }
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(WorkerPanic {
                            worker,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
        }
    });
    fork.join();

    if let Some(p) = first_panic {
        return Err(p);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every task index was assigned to exactly one worker"))
        .collect())
}

/// Runs `f(outer, inner)` for every pair in `0..outer_len × 0..inner_len`
/// across at most `threads` workers and returns the results grouped by
/// outer index, each group in inner order.
///
/// This is the fine-grained work split for stages whose outer axis alone
/// is too coarse to occupy the workers — e.g. a CV search's
/// fold-assignment repeats (outer) times their folds (inner): splitting
/// only over the outer axis strands workers whenever `outer_len < threads`
/// or the per-item cost is uneven, while the flattened product keeps every
/// worker busy. Scheduling stays deterministic (round-robin over the
/// flattened index) and the grouping restores a stable reduction order:
/// callers combine each group's inner results in inner order, so the
/// reduction — like the work itself — never depends on thread count.
///
/// # Errors
///
/// Returns [`WorkerPanic`] if any worker panics.
///
/// # Panics
///
/// Panics when `outer_len * inner_len` overflows `usize` (no realistic
/// workload approaches this).
pub fn scoped_map_product<U, F>(
    outer_len: usize,
    inner_len: usize,
    threads: usize,
    f: F,
) -> Result<Vec<Vec<U>>, WorkerPanic>
where
    U: Send,
    F: Fn(usize, usize) -> U + Sync,
{
    let total = outer_len
        .checked_mul(inner_len)
        .expect("work-item product overflows usize");
    if inner_len == 0 {
        return Ok((0..outer_len).map(|_| Vec::new()).collect());
    }
    let flat = scoped_map_range(total, threads, |idx| f(idx / inner_len, idx % inner_len))?;
    let mut it = flat.into_iter();
    Ok((0..outer_len)
        .map(|_| {
            (0..inner_len)
                .map(|_| it.next().expect("exact length"))
                .collect()
        })
        .collect())
}

/// Runs `f(index, &items[index])` over `items` across at most `threads`
/// workers and returns the results in item order.
///
/// Convenience wrapper over [`scoped_map_range`]; the same determinism
/// and clamping rules apply.
///
/// # Errors
///
/// Returns [`WorkerPanic`] if any worker panics.
pub fn scoped_map<T, U, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, WorkerPanic>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    scoped_map_range(items.len(), threads, |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_collision_free_locally() {
        // Pinned values: the sweep's historical per-(n, rep) streams are
        // derive_seed(base, n, rep) and must never drift.
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        let mut seen = std::collections::HashSet::new();
        for stream in 0..64u64 {
            for index in 0..256u64 {
                assert!(seen.insert(derive_seed(2015, stream, index)));
            }
        }
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
    }

    #[test]
    fn scoped_map_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [0, 1, 2, 3, 7, 64] {
            let par = scoped_map(&items, threads, |_, &x| x * x).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn scoped_map_range_handles_empty_input() {
        let out = scoped_map_range(0, 4, |i| i).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn scoped_map_product_groups_by_outer_in_inner_order() {
        let serial = scoped_map_product(5, 3, 1, |a, b| (a, b)).unwrap();
        assert_eq!(serial.len(), 5);
        for (a, group) in serial.iter().enumerate() {
            assert_eq!(group, &(0..3).map(|b| (a, b)).collect::<Vec<_>>());
        }
        for threads in [2, 3, 7, 64] {
            let par = scoped_map_product(5, 3, threads, |a, b| (a, b)).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
        // The flattened split occupies more workers than the outer axis
        // alone: 2 outer × 4 inner = 8 items still succeeds at 8 threads.
        let wide = scoped_map_product(2, 4, 8, |a, b| a * 10 + b).unwrap();
        assert_eq!(wide, vec![vec![0, 1, 2, 3], vec![10, 11, 12, 13]]);
        // Degenerate axes.
        assert_eq!(scoped_map_product(0, 3, 2, |a, _| a).unwrap().len(), 0);
        let empty_inner = scoped_map_product(3, 0, 2, |a, _| a).unwrap();
        assert_eq!(empty_inner, vec![Vec::<usize>::new(); 3]);
    }

    #[test]
    fn scoped_map_product_contains_worker_panics() {
        let err = scoped_map_product(3, 3, 2, |a, b| {
            assert!(!(a == 1 && b == 2), "pair exploded");
            a + b
        })
        .unwrap_err();
        assert!(err.message.contains("pair exploded"), "{err}");
    }

    #[test]
    fn worker_panic_is_converted_to_error() {
        let err = scoped_map_range(8, 3, |i| {
            assert!(i != 5, "task 5 exploded");
            i
        })
        .unwrap_err();
        assert!(err.message.contains("task 5 exploded"), "{err}");
        assert_eq!(err.worker, 5 % 3);
    }

    #[test]
    fn single_thread_panics_are_contained_too() {
        // One worker runs inline: on the caller's thread, in task order,
        // and a panic still comes back as an error instead of unwinding
        // into the caller.
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let out =
                scoped_map_range(5, threads, |i| (i + 1, std::thread::current().id())).unwrap();
            assert_eq!(
                out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
                vec![1, 2, 3, 4, 5]
            );
            assert!(
                out.iter().all(|&(_, id)| id == caller),
                "threads = {threads}"
            );
        }
        // One task resolves to one worker whatever the request.
        let one = scoped_map_range(1, 8, |_| std::thread::current().id()).unwrap();
        assert_eq!(one, vec![caller]);
        let err = scoped_map_range(5, 1, |i| {
            assert!(i != 4, "boom");
            i
        })
        .unwrap_err();
        assert_eq!(err.worker, 0);
        assert!(err.message.contains("boom"), "{err}");
    }

    #[test]
    fn resolve_threads_policy() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
        assert!(available_threads() >= 1);
    }
}
