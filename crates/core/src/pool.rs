//! Deterministic parallelism primitives: a crossbeam-channel worker pool
//! with an id-ordered merge, a fork/join helper, and the workspace-wide
//! worker-width policy.
//!
//! Parallel execution must not perturb replay: determinism tests compare
//! alarm traces and TSDB contents byte for byte across runs. The rule both
//! utilities follow is *sequence everywhere*: each unit of work carries its
//! submission index, workers race freely, and results are merged back into
//! submission order before any stateful consumer sees them. Scheduling
//! nondeterminism therefore never escapes the pool.
//!
//! This module lives in `ctt-core` (rather than the `ctt` root crate) so
//! lower layers — notably `ctt-tsdb`'s parallel per-shard query collection
//! — can reuse the same pool without a dependency cycle.

use crossbeam::channel::{self, Sender};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The machine's available parallelism clamped to `[lo, hi]` — the single
/// worker-width policy for every fixed-size pool in the workspace (the
/// pipeline's decode stage, sharded query collection, bench fan-outs), so a
/// fleet of test pipelines cannot oversubscribe the host. Falls back to
/// `lo` when the parallelism cannot be determined.
pub fn worker_width(lo: usize, hi: usize) -> usize {
    let par = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(lo);
    clamp_width(par, lo, hi)
}

/// The clamp behind [`worker_width`], split out so the boundary behavior
/// is testable independent of the host's core count. An inverted range
/// (`lo > hi`) is normalized by swapping rather than panicking — `clamp`
/// itself panics on `lo > hi`, and a misconfigured width bound must not
/// take down a pipeline.
fn clamp_width(par: usize, lo: usize, hi: usize) -> usize {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    par.clamp(lo, hi)
}

/// One unit of pool work: the caller's submission index, the input, and the
/// reply channel of the `map` call that submitted it.
type Job<I, O> = (usize, I, Sender<(usize, O)>);

/// A fixed pool of worker threads applying one pure function to batches of
/// jobs, returning results in submission order (deterministic merge).
///
/// The function must be pure (no shared mutable state): the pool guarantees
/// *ordering* of results, while purity is what guarantees their *values*
/// are schedule-independent.
///
/// `map` may be called from several threads at once: every call carries its
/// own reply channel with its jobs, so callers never see each other's
/// outputs.
pub struct OrderedPool<I, O> {
    jobs: Option<Sender<Job<I, O>>>,
    workers: Vec<JoinHandle<()>>,
    /// Kept for the single-item inline fast path in [`OrderedPool::map`].
    f: Arc<dyn Fn(I) -> O + Send + Sync>,
}

impl<I, O> fmt::Debug for OrderedPool<I, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<I: Send + 'static, O: Send + 'static> OrderedPool<I, O> {
    /// Spawn `workers` threads (clamped to at least 1) running `f`.
    pub fn new<F>(workers: usize, f: F) -> Self
    where
        F: Fn(I) -> O + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let (jobs_tx, jobs_rx) = channel::unbounded::<Job<I, O>>();
        let handles = (0..workers.max(1))
            .map(|_| {
                let rx = jobs_rx.clone();
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    while let Ok((seq, job, reply)) = rx.recv() {
                        // A caller that gave up only loses its own reply.
                        let _ = reply.send((seq, f(job)));
                    }
                })
            })
            .collect();
        OrderedPool {
            jobs: Some(jobs_tx),
            workers: handles,
            f,
        }
    }

    /// Apply the pool's function to every item, returning outputs in input
    /// order regardless of which worker finished first.
    ///
    /// Single-item batches run inline on the caller thread, skipping the
    /// channel round-trip: the function is pure, so where it runs cannot
    /// change the value, and one-item batches are the common shape for
    /// fleet slices that touch a single shard. (Empty batches take the
    /// same exit, so they never set up a reply channel.)
    pub fn map(&self, items: Vec<I>) -> Vec<O> {
        if items.len() <= 1 {
            return items.into_iter().map(|item| (self.f)(item)).collect();
        }
        let Some(jobs) = self.jobs.as_ref() else {
            return Vec::new();
        };
        // The reply channel is private to this call: concurrent callers on
        // one pool number their jobs from 0 too, and a shared receiver would
        // let them take (and discard) each other's outputs.
        let (reply, results) = channel::unbounded::<(usize, O)>();
        let mut submitted = 0usize;
        for (seq, item) in items.into_iter().enumerate() {
            if jobs.send((seq, item, reply.clone())).is_err() {
                break;
            }
            submitted += 1;
        }
        // Only the queued jobs hold reply senders now, so `recv` reports a
        // disconnect instead of blocking if a job dies without replying.
        drop(reply);
        let mut slots: Vec<Option<O>> = (0..submitted).map(|_| None).collect();
        for _ in 0..submitted {
            let Ok((seq, out)) = results.recv() else {
                break; // a job died without replying; return what arrived
            };
            if let Some(slot) = slots.get_mut(seq) {
                *slot = Some(out);
            }
        }
        slots.into_iter().flatten().collect()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl<I, O> Drop for OrderedPool<I, O> {
    fn drop(&mut self) {
        // Disconnect the job channel so workers fall out of recv, then join.
        self.jobs = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Run every closure on its own thread and return the results in input
/// order — fork/join with an id-ordered merge. Used to advance independent
/// city pipelines concurrently: each pipeline is self-contained and seeded,
/// so side-by-side execution is byte-identical to sequential execution.
pub fn join_all<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = channel::unbounded::<(usize, T)>();
    let handles: Vec<JoinHandle<()>> = tasks
        .into_iter()
        .enumerate()
        .map(|(seq, task)| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send((seq, task()));
            })
        })
        .collect();
    drop(tx);
    let mut slots: Vec<Option<T>> = (0..handles.len()).map(|_| None).collect();
    while let Ok((seq, value)) = rx.recv() {
        if let Some(slot) = slots.get_mut(seq) {
            *slot = Some(value);
        }
    }
    for h in handles {
        let _ = h.join();
    }
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_width_respects_bounds() {
        let w = worker_width(2, 8);
        assert!((2..=8).contains(&w), "width {w}");
        assert_eq!(worker_width(1, 1), 1);
        // Degenerate range still yields a usable width.
        assert!(worker_width(4, 4) == 4);
    }

    #[test]
    fn map_preserves_submission_order() {
        let pool: OrderedPool<u64, u64> = OrderedPool::new(4, |x| {
            // Uneven work so completion order differs from submission order.
            let spin = (x % 7) * 1000;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x * 2
        });
        let items: Vec<u64> = (0..500).collect();
        let out = pool.map(items.clone());
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, expect);
        // The pool is reusable across batches.
        assert_eq!(pool.map(vec![7, 3]), vec![14, 6]);
        // Single-item batches take the inline fast path; same contract.
        assert_eq!(pool.map(vec![5]), vec![10]);
        assert_eq!(pool.map(Vec::new()), Vec::<u64>::new());
    }

    /// Two threads inside `map` on one pool, forced to overlap: each job
    /// blocks until both callers have queued their batch. With a shared
    /// result channel the callers took each other's outputs (both number
    /// their jobs from 0) and the loser waited forever.
    #[test]
    fn concurrent_callers_get_exactly_their_own_outputs() {
        use std::sync::Barrier;
        let both_queued = Arc::new(Barrier::new(2));
        let gate = Arc::clone(&both_queued);
        let pool: Arc<OrderedPool<(u64, bool), u64>> =
            Arc::new(OrderedPool::new(2, move |(x, first): (u64, bool)| {
                if first {
                    gate.wait();
                }
                x * 10
            }));
        let callers: Vec<_> = (0..2u64)
            .map(|c| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    (0..50)
                        .map(|round| {
                            let base = c * 1000 + round * 3;
                            // Only the very first job of each caller waits at
                            // the barrier: both are then inside `map` at once.
                            pool.map(vec![
                                (base, round == 0),
                                (base + 1, false),
                                (base + 2, false),
                            ])
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (c, handle) in callers.into_iter().enumerate() {
            let rounds = handle.join().expect("caller thread");
            for (round, out) in rounds.iter().enumerate() {
                let base = (c * 1000 + round * 3) as u64;
                assert_eq!(
                    out,
                    &vec![base * 10, (base + 1) * 10, (base + 2) * 10],
                    "caller {c} round {round}"
                );
            }
        }
    }

    #[test]
    fn map_is_deterministic_across_runs() {
        let run = || {
            let pool: OrderedPool<u32, u32> =
                OrderedPool::new(8, |x: u32| x.wrapping_mul(2654435761));
            pool.map((0..2000).collect())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clamp_width_boundaries() {
        // Degenerate range lo == hi pins the width regardless of cores.
        assert_eq!(clamp_width(64, 4, 4), 4);
        assert_eq!(clamp_width(1, 4, 4), 4);
        // Inverted range is normalized, not a panic.
        assert_eq!(clamp_width(64, 8, 2), 8);
        assert_eq!(clamp_width(1, 8, 2), 2);
        assert_eq!(clamp_width(5, 8, 2), 5);
        // Single-core container: parallelism of 1 clamps up to lo.
        assert_eq!(clamp_width(1, 2, 8), 2);
        // Big host clamps down to hi.
        assert_eq!(clamp_width(128, 2, 8), 8);
        // In-range parallelism passes through.
        assert_eq!(clamp_width(4, 2, 8), 4);
    }

    #[test]
    fn worker_width_within_requested_bounds() {
        let w = worker_width(2, 8);
        assert!((2..=8).contains(&w), "width {w}");
        // Inverted bounds must not panic at the public entry point either.
        let w = worker_width(8, 2);
        assert!((2..=8).contains(&w), "width {w}");
    }

    #[test]
    fn join_all_merges_in_input_order() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16)
            .map(|i| {
                let f: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64 % 5));
                    i
                });
                f
            })
            .collect();
        assert_eq!(join_all(tasks), (0..16).collect::<Vec<_>>());
    }
}
