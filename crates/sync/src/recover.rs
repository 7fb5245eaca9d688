//! Poison recovery for `std` locks.
//!
//! A thread that panics while holding a `Mutex` poisons it, and every
//! later `lock()` returns `Err`. Where each update leaves the guarded
//! data valid at every step (queues, plain counters), a panicked worker
//! must not wedge the others: this helper takes the guard back out of
//! the poison error instead.

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard from a poisoned lock.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
        assert_eq!(*lock_recover(&m), 2);
    }
}
