//! Bounded spin-then-park for the application↔sentinel rendezvous.
//!
//! Every §4.2/§4.3 round trip is a pair of handoffs: the application waits
//! for the sentinel's reply, the sentinel (an executor worker) waits for
//! the next command. A handoff that parks on a condvar costs a futex wait
//! plus a futex wake, and on a virtualised host each wake restarts a
//! halted vCPU — several microseconds, which is more than the rest of a
//! small in-memory operation costs. The partner usually answers within a
//! few microseconds, so each wait first spins for a short, bounded
//! [`SPIN_BUDGET`], polling the state without holding its lock, and only
//! then falls back to its condvar loop.
//!
//! Spinning is wall-clock only: no virtual time is charged or synchronised
//! while spinning, and each wait keeps its charge-before-wait and
//! `clock::sync_to` order exactly as it was, so every virtual-clock result
//! is unchanged. On a single CPU spinning only delays the partner that
//! would make the state ready, so there the budget is zero.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

/// How long a waiter spins before it parks, on a host with at least two
/// CPUs. Long enough to cover a typical in-memory reply (a few µs), short
/// enough that an idle waiter gives its CPU back promptly.
pub const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// The spin budget for a host with `parallelism` CPUs: [`SPIN_BUDGET`],
/// or zero on one CPU, where the partner cannot run while we spin.
fn spin_budget_for(parallelism: usize) -> Duration {
    if parallelism < 2 {
        Duration::ZERO
    } else {
        SPIN_BUDGET
    }
}

/// The spin budget for this process, from the CPUs it may run on (read
/// once; an affinity mask such as `taskset -c 0` counts).
pub fn spin_budget() -> Duration {
    static BUDGET: OnceLock<Duration> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        spin_budget_for(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    })
}

/// Spins for at most [`spin_budget`] until `ready` returns `true`.
/// Returns whether it did; `false` means the budget ran out (at once, when
/// the budget is zero) and the caller should park.
pub fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    let budget = spin_budget();
    if budget.is_zero() {
        return false;
    }
    let start = Instant::now();
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= budget {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// Locks `lock` once its state satisfies `ready` or the spin budget runs
/// out, whichever is first. The state is polled with `try_lock`, so the
/// spinner never holds the lock across a poll and never blocks the
/// partner that is about to make it ready. The caller re-checks the state
/// under the returned guard and parks on its condvar as before if it is
/// still not ready.
pub(crate) fn lock_when<'a, T>(
    lock: &'a Mutex<T>,
    ready: impl Fn(&T) -> bool,
) -> MutexGuard<'a, T> {
    let mut hit = None;
    spin_until(|| match lock.try_lock() {
        Some(guard) if ready(&guard) => {
            hit = Some(guard);
            true
        }
        _ => false,
    });
    hit.unwrap_or_else(|| lock.lock())
}

/// Runs `wait` on a fresh thread and calls `close` the moment that thread
/// starts, so the closure lands while `wait` spins (or, at worst, just
/// before it or after it parks); returns what `wait` returned.
#[cfg(test)]
pub(crate) fn close_mid_spin<T: Send>(wait: impl FnOnce() -> T + Send, close: impl FnOnce()) -> T {
    use std::sync::atomic::{AtomicBool, Ordering};
    let started = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            started.store(true, Ordering::SeqCst);
            wait()
        });
        while !started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        close();
        waiter.join().expect("waiter thread")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cpu_gets_no_budget() {
        assert_eq!(spin_budget_for(0), Duration::ZERO);
        assert_eq!(spin_budget_for(1), Duration::ZERO);
        assert_eq!(spin_budget_for(2), SPIN_BUDGET);
        assert_eq!(spin_budget_for(64), SPIN_BUDGET);
    }

    #[test]
    fn spin_is_bounded_by_the_budget() {
        let start = Instant::now();
        assert!(!spin_until(|| false));
        // Generous slack for a descheduled spinner; the point is that a
        // never-ready state does not spin forever.
        assert!(start.elapsed() < spin_budget() + Duration::from_secs(1));
        assert!(spin_until(|| true) || spin_budget().is_zero());
    }

    #[test]
    fn lock_when_returns_the_ready_state_or_the_lock() {
        let lock = Mutex::new(7u32);
        assert_eq!(*lock_when(&lock, |v| *v == 7), 7);
        // Never ready: the budget runs out and the lock is taken anyway.
        assert_eq!(*lock_when(&lock, |v| *v == 8), 7);
    }
}
