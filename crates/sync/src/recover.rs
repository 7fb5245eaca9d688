//! Poison recovery for `std` locks.
//!
//! A thread that panics while holding a `Mutex` poisons it, and every
//! later `lock()` returns `Err`. Where each update leaves the guarded
//! data valid at every step (queues, plain counters), a panicked worker
//! must not wedge the others: these helpers take the guard back out of
//! the poison error instead.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Locks `m`, recovering the guard from a poisoned lock.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`Condvar::wait_timeout`] with the same poison recovery.
pub fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((guard, _)) => guard,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_mutex_still_hands_out_its_guard() {
        let m = Mutex::new(1);
        let _ = std::panic::catch_unwind(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        });
        assert!(m.is_poisoned());
        *lock_recover(&m) += 1;
        let cv = Condvar::new();
        let guard = wait_timeout_recover(&cv, lock_recover(&m), Duration::from_millis(1));
        assert_eq!(*guard, 2);
    }
}
