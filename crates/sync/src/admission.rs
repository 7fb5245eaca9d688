//! The admission queue — the connection queue, close flag and drain
//! deadline a TCP front end's accept loop, workers and shutdown path
//! share.
//!
//! A serving pool needs one shutdown protocol: stop admitting, let the
//! workers drain what was already admitted, and give up on open
//! connections at a deadline. Split across a stop flag, a deadline and
//! a queue, each check-then-act races the close: a worker can check
//! the flag, miss the close's wakeup and sleep, and the accept loop can
//! check the flag, lose the last worker and push a connection nobody
//! pops. [`Admission`] keeps the waiting items and the drain deadline
//! (whose presence *is* the close) under one `Mutex`, and every check
//! and its act happen under that lock, so:
//!
//! * an item [`admit`](Admission::admit)ted before the close is always
//!   [`pop`](Admission::pop)ped: a worker sees the queue closed and
//!   empty only after every admitted item left it;
//! * [`close`](Admission::close) wakes every blocked `pop` under the
//!   lock, so a waiter cannot miss it and `pop` needs no timeout.
//!
//! The protocol (an acceptor, a worker that closes and then acks
//! `SHUTDOWN`, an idle worker) and three seeded races (an unlocked
//! close, an unlocked accept check, an ack before the close) are
//! model-checked schedule-exhaustively in this crate's `interleavings`
//! test suite.

use crate::lock_recover;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A FIFO of admitted items that closes once, with a drain deadline.
///
/// ```
/// use sp_sync::Admission;
/// use std::time::Duration;
///
/// let queue = Admission::new();
/// assert_eq!(queue.admit("early"), Ok(()));
/// assert!(queue.close(Duration::from_secs(5)));
/// assert_eq!(queue.admit("late"), Err("late"));
/// assert_eq!(queue.pop(), Some("early"));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug)]
pub struct Admission<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct State<T> {
    waiting: VecDeque<T>,
    /// End of the drain, set by the call that closes the queue.
    deadline: Option<Instant>,
}

impl<T> Default for Admission<T> {
    fn default() -> Admission<T> {
        Admission::new()
    }
}

impl<T> Admission<T> {
    /// An open, empty queue.
    pub const fn new() -> Admission<T> {
        Admission {
            state: Mutex::new(State {
                waiting: VecDeque::new(),
                deadline: None,
            }),
            ready: Condvar::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, State<T>> {
        lock_recover(&self.state)
    }

    /// Queues a new item and wakes one waiting [`pop`](Self::pop).
    ///
    /// # Errors
    ///
    /// Hands `item` back once the queue is closed.
    pub fn admit(&self, item: T) -> Result<(), T> {
        let mut state = self.state();
        if state.deadline.is_some() {
            return Err(item);
        }
        state.waiting.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Puts an item a worker yielded back in line. Accepted while
    /// draining too: the item was admitted before the close.
    pub fn requeue(&self, item: T) {
        self.state().waiting.push_back(item);
        self.ready.notify_one();
    }

    /// The oldest waiting item, blocking while the queue is open and
    /// empty. `None` once the queue is closed and empty.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state();
        loop {
            if let Some(item) = state.waiting.pop_front() {
                return Some(item);
            }
            if state.deadline.is_some() {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// True while items wait in the queue.
    pub fn crowded(&self) -> bool {
        !self.state().waiting.is_empty()
    }

    /// True once the queue is closed.
    pub fn closed(&self) -> bool {
        self.state().deadline.is_some()
    }

    /// True once the queue is closed and its drain deadline has passed.
    pub fn drained(&self) -> bool {
        self.state()
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Closes the queue: later [`admit`](Self::admit)s are refused, and
    /// the drain ends `drain` from now. Wakes every blocked
    /// [`pop`](Self::pop). True for the call that closed the queue,
    /// false if it already was.
    pub fn close(&self, drain: Duration) -> bool {
        let mut state = self.state();
        if state.deadline.is_some() {
            return false;
        }
        state.deadline = Some(Instant::now() + drain);
        self.ready.notify_all();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_closed_queue_refuses_new_items_but_drains_requeued_ones() {
        let queue = Admission::new();
        queue.admit(1).unwrap();
        queue.admit(2).unwrap();
        assert!(queue.crowded());
        assert!(queue.close(Duration::from_secs(60)));
        assert!(!queue.close(Duration::ZERO), "only the first close closes");
        assert_eq!(queue.admit(3), Err(3));
        assert_eq!(queue.pop(), Some(1));
        queue.requeue(1);
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(1));
        assert!(!queue.crowded());
        assert_eq!(queue.pop(), None);
        assert!(queue.closed());
        assert!(!queue.drained(), "the drain runs for a minute");
    }

    #[test]
    fn drained_reads_the_deadline_set_at_close() {
        let queue = Admission::<()>::new();
        assert!(!queue.closed());
        assert!(!queue.drained(), "an open queue is not draining");
        queue.close(Duration::ZERO);
        assert!(queue.closed());
        assert!(queue.drained());
    }

    /// The real `Condvar` wakeup; Model 6 in the `interleavings` suite
    /// covers every order of the pop's check, its wait and the close.
    #[test]
    fn close_wakes_a_blocked_pop() {
        let queue = Admission::<u32>::new();
        std::thread::scope(|s| {
            let popper = s.spawn(|| queue.pop());
            std::thread::sleep(Duration::from_millis(50));
            assert!(!popper.is_finished(), "an open, empty queue blocks pop");
            assert!(queue.close(Duration::from_secs(5)));
            assert_eq!(popper.join().unwrap(), None);
        });
    }
}
