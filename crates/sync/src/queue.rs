//! The chunked atomic-cursor work queue.
//!
//! Every threaded scan in the workspace has the same shape: a list of
//! independent work units, worker threads that claim ascending ranges
//! of them off one shared [`AtomicUsize`] cursor (dynamic load
//! balancing — a worker stuck behind a heavy unit never strands the
//! rest of the list), and per-worker output buffers merged back **in
//! claim-index order** so the threaded result is bit-identical to the
//! serial one. [`WorkQueue`] is that shape, once.
//!
//! The claim protocol (`fetch_add` hands each chunk index to exactly
//! one worker; the merge sees every chunk exactly once) is
//! exhaustively model-checked across all 2–3-thread schedules by the
//! [`crate::check`] interleaving explorer — see the crate's
//! `interleavings` test suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A chunked atomic-cursor work queue over indexed work units.
///
/// `chunk` is the number of consecutive indices one cursor claim hands
/// a worker: large enough that the cursor stays cold, small enough
/// that stragglers rebalance. Chunking only changes *claim*
/// granularity — output order is always index order, identical to
/// serial execution.
///
/// ```
/// use sp_sync::WorkQueue;
///
/// let squares = WorkQueue::new().run(4, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkQueue {
    chunk: usize,
}

impl Default for WorkQueue {
    fn default() -> WorkQueue {
        WorkQueue::new()
    }
}

impl WorkQueue {
    /// A queue claiming one index per cursor fetch — the right
    /// granularity when each unit is already coarse (a grid row band,
    /// a sweep instance, a frontier chunk).
    pub const fn new() -> WorkQueue {
        WorkQueue { chunk: 1 }
    }

    /// A queue claiming `chunk` consecutive indices per cursor fetch —
    /// for fine-grained units (individual flows, movers) where a
    /// per-unit fetch would contend.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    // sp-analyze: allow(panic, construction-time parameter validation, documented above)
    pub const fn chunked(chunk: usize) -> WorkQueue {
        assert!(chunk >= 1, "work-queue chunk size must be at least 1");
        WorkQueue { chunk }
    }

    /// Runs `work` over every index in `0..count` on up to `threads`
    /// workers, returning the outputs **in index order** — the exact
    /// vector `(0..count).map(work).collect()` produces.
    ///
    /// `threads` is clamped to the number of chunks; `threads <= 1`
    /// (or a single chunk) runs inline without spawning.
    pub fn run<T, F>(&self, threads: usize, count: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with(threads, count, || (), move |_, i| work(i))
    }

    /// [`run`](Self::run) with worker-local scratch state: each worker
    /// (and the serial path) calls `init` once and threads the state
    /// through every unit it claims — how a routing worker reuses one
    /// warm `RouteBuffer` across its whole share of a flow batch.
    ///
    /// Output order is still index order: state affects only *how* a
    /// unit computes, never *where* its output lands, so implementors
    /// keep the bit-identity guarantee as long as `work` is
    /// deterministic given a warmed-up state (the workspace parity
    /// tests enforce exactly that).
    pub fn run_with<S, T, G, F>(&self, threads: usize, count: usize, init: G, work: F) -> Vec<T>
    where
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let chunks = count.div_ceil(self.chunk);
        let workers = threads.clamp(1, chunks.max(1));
        if workers <= 1 {
            let mut state = init();
            return (0..count).map(|i| work(&mut state, i)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<Vec<T>>> = (0..chunks).map(|_| None).collect();
        // sp-analyze: allow(concurrency, this IS the one blessed scope+cursor implementation)
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        let mut mine: Vec<(usize, Vec<T>)> = Vec::new();
                        loop {
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= chunks {
                                break;
                            }
                            let lo = c * self.chunk;
                            let hi = (lo + self.chunk).min(count);
                            let mut out = Vec::with_capacity(hi - lo);
                            for i in lo..hi {
                                out.push(work(&mut state, i));
                            }
                            mine.push((c, out));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                // sp-analyze: allow(panic, propagate a worker panic instead of losing output)
                for (c, out) in h.join().expect("work-queue worker panicked") {
                    slots[c] = Some(out);
                }
            }
        });
        slots
            .into_iter()
            .flat_map(|chunk| {
                // sp-analyze: allow(panic, the cursor hands every chunk index to exactly one worker — model-checked in check::tests)
                chunk.expect("every chunk index was claimed and produced output")
            })
            .collect()
    }

    /// Distributes *owned* work items: each item is claimed by exactly
    /// one worker, moved out, and mapped through `work`; outputs come
    /// back in item order.
    ///
    /// This is the entry point for work that cannot be expressed as a
    /// shared-`&self` scan — e.g. pre-partitioned disjoint `&mut`
    /// slices of a node array (the simulation engine's frontier
    /// chunks). Items are expected to be coarse, so claims are always
    /// one item per fetch regardless of [`chunked`](Self::chunked).
    ///
    /// `threads <= 1` (or a single item) consumes the items inline
    /// without spawning.
    pub fn run_owned<I, T, F>(&self, threads: usize, items: Vec<I>, work: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let count = items.len();
        let workers = threads.clamp(1, count.max(1));
        if workers <= 1 {
            return items.into_iter().map(work).collect();
        }

        // Each slot is locked exactly once, by the worker whose cursor
        // fetch returned its index; the mutex only exists to move the
        // item out under a shared reference.
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let cursor = AtomicUsize::new(0);
        let mut outs: Vec<Option<T>> = (0..count).map(|_| None).collect();
        // sp-analyze: allow(concurrency, this IS the one blessed scope+cursor implementation)
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine: Vec<(usize, T)> = Vec::new();
                        loop {
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            if k >= count {
                                break;
                            }
                            let item = slots[k]
                                .lock()
                                .expect("work-item slot poisoned") // sp-analyze: allow(panic, poisoning implies a sibling worker already panicked)
                                .take()
                                .expect("cursor hands each item index to exactly one worker"); // sp-analyze: allow(panic, claim uniqueness is model-checked in check::tests)
                            mine.push((k, work(item)));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                // sp-analyze: allow(panic, propagate a worker panic instead of losing output)
                for (k, out) in h.join().expect("work-queue worker panicked") {
                    outs[k] = Some(out);
                }
            }
        });
        outs.into_iter()
            .map(|out| {
                // sp-analyze: allow(panic, every item index is claimed exactly once — model-checked in check::tests)
                out.expect("every work item was claimed and produced output")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_matches_serial_map_at_any_thread_count() {
        let serial: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                WorkQueue::new().run(threads, 257, |i| i * 3 + 1),
                serial,
                "{threads} threads diverged"
            );
        }
    }

    #[test]
    fn chunked_claims_do_not_change_output_order() {
        let serial: Vec<usize> = (0..100).collect();
        for chunk in [1, 2, 7, 64, 1000] {
            for threads in [1, 2, 3, 8] {
                assert_eq!(WorkQueue::chunked(chunk).run(threads, 100, |i| i), serial);
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert_eq!(WorkQueue::new().run(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(
            WorkQueue::new().run_owned(8, Vec::<u32>::new(), |i| i),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn worker_state_is_initialized_per_worker() {
        let inits = AtomicUsize::new(0);
        let out = WorkQueue::chunked(4).run_with(
            3,
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, i| {
                *seen += 1;
                i
            },
        );
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let spawned = inits.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&spawned),
            "one init per live worker, got {spawned}"
        );
    }

    #[test]
    fn run_owned_moves_each_item_exactly_once() {
        let items: Vec<Vec<usize>> = (0..37).map(|i| vec![i; i % 5]).collect();
        let want: Vec<usize> = items.iter().map(Vec::len).collect();
        for threads in [1, 2, 3, 8] {
            let got = WorkQueue::new().run_owned(threads, items.clone(), |v| v.len());
            assert_eq!(got, want, "{threads} threads diverged");
        }
    }

    #[test]
    fn run_owned_supports_mutable_borrows_as_items() {
        let mut data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(3).collect();
        let sums = WorkQueue::new().run_owned(2, chunks, |chunk| {
            for x in chunk.iter_mut() {
                *x *= 10;
            }
            chunk.iter().sum::<u64>()
        });
        assert_eq!(sums, vec![60, 150, 150]);
        assert_eq!(data, [10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn zero_chunk_rejected() {
        let _ = WorkQueue::chunked(0);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            WorkQueue::new().run(2, 8, |i| {
                assert!(i != 5, "boom at {i}");
                i
            })
        });
        assert!(caught.is_err(), "a worker panic must not be swallowed");
    }
}
