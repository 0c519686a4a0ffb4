//! Cross-open write visibility for private wire sentinels over one
//! disk-backed file.
//!
//! Writes on the §4.2/§4.3 wires are acknowledged eagerly (write-behind):
//! `WriteFile` returns once the command is on the wire, before the
//! sentinel has applied it. Within one handle that is invisible — its
//! later commands queue behind the write. Across two *private* opens of
//! one disk-backed file it is not: each open has its own sentinel, and a
//! read through the second could reach the data part before the first
//! sentinel applied a write its application already saw succeed. Win32
//! promises the opposite, and a shared (multiplexed) open keeps the
//! promise by construction.
//!
//! [`PendingWrites`] restores it for private opens: each counts the
//! writes it has sent but its sentinel has not yet applied, summed per
//! file in [`FileWrites`]. Every command waits — in wall time only, no
//! virtual charge — until no *other* open of the file has writes in
//! flight, so reads see, and writes land after, every write whose
//! `WriteFile` already returned. An open's own writes stay pipelined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// The in-flight write count of every private open of one file.
#[derive(Debug, Default)]
pub(crate) struct FileWrites {
    pending: AtomicU64,
    waiters: AtomicU64,
    quiet: Mutex<()>,
    cv: Condvar,
}

impl FileWrites {
    fn release(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.pending.fetch_sub(n, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _quiet = self.quiet.lock();
            self.cv.notify_all();
        }
    }
}

/// One private open's share of its file's [`FileWrites`], held by both
/// the application handle and the sentinel task.
#[derive(Debug)]
pub(crate) struct PendingWrites {
    file: Arc<FileWrites>,
    own: AtomicU64,
}

impl PendingWrites {
    pub(crate) fn new(file: Arc<FileWrites>) -> Self {
        PendingWrites {
            file,
            own: AtomicU64::new(0),
        }
    }

    /// Application side, before a write goes on the wire.
    pub(crate) fn issued(&self) {
        self.own.fetch_add(1, Ordering::SeqCst);
        self.file.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// Sentinel side, once a write is applied (or has failed).
    pub(crate) fn applied(&self) {
        self.own.fetch_sub(1, Ordering::SeqCst);
        self.file.release(1);
    }

    /// Releases every write still counted: the sentinel is gone, or the
    /// wire broke before the write reached it. Either side may call it;
    /// the swap makes concurrent calls release each write once.
    pub(crate) fn settle(&self) {
        let n = self.own.swap(0, Ordering::SeqCst);
        self.file.release(n);
    }

    /// Application side, before a command: waits until no other open of
    /// the file has a write in flight. This open's own writes
    /// are ordered ahead of the op on its wire already.
    pub(crate) fn wait_for_others(&self) {
        let quiet = || self.file.pending.load(Ordering::SeqCst) <= self.own.load(Ordering::SeqCst);
        if quiet() {
            return;
        }
        self.file.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.file.quiet.lock();
        while !quiet() {
            self.file.cv.wait(&mut guard);
        }
        drop(guard);
        self.file.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reader_waits_only_for_other_opens() {
        let file = Arc::new(FileWrites::default());
        let a = Arc::new(PendingWrites::new(Arc::clone(&file)));
        let b = PendingWrites::new(Arc::clone(&file));
        a.issued();
        a.wait_for_others(); // its own write does not block it
        b.issued();
        let applier = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                a.applied();
            })
        };
        b.wait_for_others(); // returns once `a`'s write is applied
        assert_eq!(a.own.load(Ordering::SeqCst), 0);
        applier.join().expect("applier");
        b.settle();
        assert_eq!(file.pending.load(Ordering::SeqCst), 0);
        b.settle();
        assert_eq!(
            file.pending.load(Ordering::SeqCst),
            0,
            "settle is idempotent"
        );
    }
}
