//! A vendored mini-loom: a deterministic, exhaustive interleaving
//! explorer for the workspace's lock-free idioms.
//!
//! Real-thread tests only ever sample a handful of schedules; the bugs
//! that matter (a chunk claimed twice, a reader observing a
//! half-published snapshot, a generation stamp surviving an epoch
//! wrap) live in the schedules the OS rarely produces. This module
//! explores **all** of them: a model implements [`Interleave`] —
//! cloneable state plus a `step` function advancing one modeled thread
//! by one atomic action — and [`explore`] drives a depth-first
//! cooperative scheduler over every interleaving, checking
//! [`Interleave::invariants`] at every reachable state.
//!
//! Like loom, exploration is sequentially consistent: it proves the
//! *protocol* (claim/merge/publish ordering) correct, while the
//! `Ordering` arguments on the real atomics are reviewed by hand — the
//! single-cursor and single-publisher shapes used here are insensitive
//! to reordering weaker than SC for the invariants checked.
//!
//! The models for [`crate::WorkQueue`] chunk claiming, the routing
//! layer's `VisitedSet` generation-stamp wraparound, the
//! epoch-versioned `Arc` copy-on-write snapshot swap and the
//! [`crate::Admission`] shutdown protocol live in this crate's
//! `interleavings` integration tests.

/// A model of a small concurrent program, explored one atomic step at
/// a time.
///
/// Cloning must snapshot the *entire* modeled state (thread program
/// counters included): the explorer clones at every branch point to
/// walk sibling schedules.
pub trait Interleave: Clone {
    /// Ids of modeled threads currently able to take a step. Return an
    /// empty list only when the execution is [`done`](Self::done) —
    /// otherwise the explorer reports a deadlock. Blocking (e.g. a
    /// modeled lock) is expressed by omitting the blocked thread here.
    fn runnable(&self) -> Vec<usize>;

    /// Advances thread `tid` by exactly one atomic action. Called only
    /// with ids returned by [`runnable`](Self::runnable).
    fn step(&mut self, tid: usize);

    /// True when every modeled thread has finished.
    fn done(&self) -> bool;

    /// Safety invariants, checked at **every** reachable state (and
    /// once more at every completed schedule). Return the violation
    /// message to fail exploration with the offending schedule.
    fn invariants(&self) -> Result<(), String>;
}

/// Exploration statistics from a successful [`explore`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Complete schedules (maximal interleavings) explored.
    pub schedules: usize,
    /// Individual modeled steps executed across all schedules.
    pub steps: usize,
    /// Longest schedule, in steps.
    pub deepest: usize,
}

/// An invariant violation (or deadlock), with the exact schedule — the
/// sequence of thread ids stepped — that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Thread ids in step order reproducing the failure.
    pub schedule: Vec<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (schedule {:?})", self.message, self.schedule)
    }
}

/// Hard ceiling on explored steps: a model whose state space exceeds
/// this is a modeling bug (too many threads or too-fine steps), not
/// something CI should grind through.
pub const MAX_STEPS: usize = 50_000_000;

/// Exhaustively explores every schedule of `initial`, failing on the
/// first invariant violation or deadlock.
///
/// # Errors
///
/// Returns the [`Violation`] (with its reproducing schedule) when a
/// state fails [`Interleave::invariants`], when no thread is runnable
/// before [`Interleave::done`], or when exploration exceeds
/// [`MAX_STEPS`].
pub fn explore<M: Interleave>(initial: &M) -> Result<Report, Violation> {
    let mut report = Report::default();
    let mut trace = Vec::new();
    dfs(initial, &mut trace, &mut report)?;
    Ok(report)
}

fn dfs<M: Interleave>(
    state: &M,
    trace: &mut Vec<usize>,
    report: &mut Report,
) -> Result<(), Violation> {
    if let Err(message) = state.invariants() {
        return Err(Violation {
            schedule: trace.clone(),
            message,
        });
    }
    if state.done() {
        report.schedules += 1;
        return Ok(());
    }
    let runnable = state.runnable();
    if runnable.is_empty() {
        return Err(Violation {
            schedule: trace.clone(),
            message: "deadlock: no runnable thread before completion".to_owned(),
        });
    }
    for tid in runnable {
        if report.steps >= MAX_STEPS {
            return Err(Violation {
                schedule: trace.clone(),
                message: format!("state space exceeds {MAX_STEPS} steps; coarsen the model"),
            });
        }
        report.steps += 1;
        let mut next = state.clone();
        next.step(tid);
        trace.push(tid);
        report.deepest = report.deepest.max(trace.len());
        dfs(&next, trace, report)?;
        trace.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// N independent threads of `len` no-op steps each: schedule count
    /// is the multinomial coefficient, a closed form to validate the
    /// explorer against.
    #[derive(Clone)]
    struct Independent {
        pcs: Vec<usize>,
        len: usize,
    }

    impl Interleave for Independent {
        fn runnable(&self) -> Vec<usize> {
            (0..self.pcs.len())
                .filter(|&t| self.pcs[t] < self.len)
                .collect()
        }
        fn step(&mut self, tid: usize) {
            self.pcs[tid] += 1;
        }
        fn done(&self) -> bool {
            self.pcs.iter().all(|&pc| pc == self.len)
        }
        fn invariants(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn counts_interleavings_of_independent_threads() {
        // Two threads of 2 steps: C(4,2) = 6 schedules.
        let r = explore(&Independent {
            pcs: vec![0, 0],
            len: 2,
        })
        .unwrap();
        assert_eq!(r.schedules, 6);
        assert_eq!(r.deepest, 4);
        // Three threads of 2 steps: 6!/(2!2!2!) = 90 schedules.
        let r = explore(&Independent {
            pcs: vec![0, 0, 0],
            len: 2,
        })
        .unwrap();
        assert_eq!(r.schedules, 90);
    }

    /// A deliberately broken snapshot publication: the writer bumps the
    /// published epoch *before* writing the data; a reader stepping in
    /// between observes a torn snapshot. The explorer must find it.
    #[derive(Clone)]
    struct PublishBeforeInit {
        epoch: usize,
        data: usize,
        writer_pc: usize,
        reader_done: bool,
        observed: Option<(usize, usize)>,
    }

    impl Interleave for PublishBeforeInit {
        fn runnable(&self) -> Vec<usize> {
            let mut r = Vec::new();
            if self.writer_pc < 2 {
                r.push(0);
            }
            if !self.reader_done {
                r.push(1);
            }
            r
        }
        fn step(&mut self, tid: usize) {
            if tid == 0 {
                // BUG: publish (pc 0) precedes the data write (pc 1).
                match self.writer_pc {
                    0 => self.epoch = 1,
                    _ => self.data = 1,
                }
                self.writer_pc += 1;
            } else {
                self.observed = Some((self.epoch, self.data));
                self.reader_done = true;
            }
        }
        fn done(&self) -> bool {
            self.writer_pc == 2 && self.reader_done
        }
        fn invariants(&self) -> Result<(), String> {
            match self.observed {
                Some((epoch, data)) if epoch == 1 && data == 0 => {
                    Err("reader observed published epoch with unwritten data".to_owned())
                }
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn finds_publish_before_init_bug() {
        let err = explore(&PublishBeforeInit {
            epoch: 0,
            data: 0,
            writer_pc: 0,
            reader_done: false,
            observed: None,
        })
        .unwrap_err();
        assert!(err.message.contains("unwritten data"), "{err}");
        // The minimal witness: writer publishes, reader loads.
        assert_eq!(err.schedule, vec![0, 1]);
    }

    /// Two threads each waiting for the other to finish first.
    #[derive(Clone)]
    struct MutualWait {
        finished: [bool; 2],
    }

    impl Interleave for MutualWait {
        fn runnable(&self) -> Vec<usize> {
            (0..2).filter(|&t| self.finished[1 - t]).collect()
        }
        fn step(&mut self, tid: usize) {
            self.finished[tid] = true;
        }
        fn done(&self) -> bool {
            self.finished.iter().all(|&f| f)
        }
        fn invariants(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn reports_deadlock_with_schedule() {
        let err = explore(&MutualWait {
            finished: [false, false],
        })
        .unwrap_err();
        assert!(err.message.contains("deadlock"), "{err}");
        assert!(err.schedule.is_empty(), "deadlocks in the initial state");
    }
}
