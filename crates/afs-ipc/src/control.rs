//! The control channel of the process-plus-control strategy (§4.2).
//!
//! "All API requests from the application are first transmitted to the
//! sentinel process via the control channel" — a `read 50` or `write 30`
//! command precedes every data transfer, and every other file operation is
//! "passed to the sentinel process as commands with arguments".
//!
//! A [`ControlChannel`] is a typed, unbounded FIFO of command values. Each
//! send charges one syscall plus the fixed pipe-message overhead (control
//! messages are small; their payload cost is negligible next to the data
//! pipes), and timestamps the message with the sender's virtual clock; the
//! receiver synchronises forward when it dequeues.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use afs_sim::{clock, Cost, CostModel, SimTime};

use crate::{handoff, IpcError, Result};

/// Callback installed by a poll-driven consumer; invoked whenever the
/// channel transitions to "something to observe" (a new message, or the
/// last sender dropping). Fires on the *sender's* thread, so it must be
/// cheap and must not block on the consumer.
pub type ChannelWaker = Arc<dyn Fn() + Send + Sync>;

#[derive(Default)]
struct WakerCell(Option<ChannelWaker>);

impl std::fmt::Debug for WakerCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "WakerCell(set)"
        } else {
            "WakerCell(unset)"
        })
    }
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<(T, SimTime)>,
    senders: usize,
    receivers: usize,
    waker: WakerCell,
}

/// How sends are charged: over a kernel pipe (process strategies) or via
/// user-level events and shared memory (the DLL-with-thread strategy,
/// Appendix A.3: "these 'messages' are implemented using events and shared
/// memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChannelKind {
    Kernel,
    UserLevel,
}

#[derive(Debug)]
struct Inner<T> {
    model: CostModel,
    kind: ChannelKind,
    state: Mutex<State<T>>,
    available: Condvar,
}

/// Factory for control channel endpoint pairs.
#[derive(Debug)]
pub struct ControlChannel;

impl ControlChannel {
    /// Creates a typed control channel carried over a kernel pipe: each
    /// send charges one syscall plus the per-message pipe overhead.
    #[allow(clippy::new_ret_no_self)] // factory for an endpoint pair, like Pipe::anonymous
    pub fn new<T: Send>(model: CostModel) -> (ControlSender<T>, ControlReceiver<T>) {
        Self::with_kind(model, ChannelKind::Kernel)
    }

    /// Creates a typed control channel carried over user-level events and
    /// shared memory: each send charges only one event signal.
    pub fn user_level<T: Send>(model: CostModel) -> (ControlSender<T>, ControlReceiver<T>) {
        Self::with_kind(model, ChannelKind::UserLevel)
    }

    fn with_kind<T: Send>(
        model: CostModel,
        kind: ChannelKind,
    ) -> (ControlSender<T>, ControlReceiver<T>) {
        let inner = Arc::new(Inner {
            model,
            kind,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                waker: WakerCell(None),
            }),
            available: Condvar::new(),
        });
        (
            ControlSender {
                inner: Arc::clone(&inner),
            },
            ControlReceiver { inner },
        )
    }
}

/// Sending half of a control channel.
#[derive(Debug)]
pub struct ControlSender<T> {
    inner: Arc<Inner<T>>,
}

impl<T: Send> ControlSender<T> {
    /// Enqueues a command for the sentinel.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::BrokenPipe`] if the receiving end is gone.
    pub fn send(&self, msg: T) -> Result<()> {
        let inner = &*self.inner;
        match inner.kind {
            ChannelKind::Kernel => {
                inner.model.charge(Cost::Syscall);
                inner.model.charge(Cost::PipeMessage);
            }
            ChannelKind::UserLevel => {
                inner.model.charge(Cost::EventSignal);
            }
        }
        let stamp = clock::now();
        let mut state = inner.state.lock();
        if state.receivers == 0 {
            return Err(IpcError::BrokenPipe);
        }
        state.queue.push_back((msg, stamp));
        inner.available.notify_one();
        let waker = state.waker.0.clone();
        drop(state);
        if let Some(wake) = waker {
            wake();
        }
        Ok(())
    }

    /// Duplicates the sender handle.
    pub fn duplicate(&self) -> ControlSender<T> {
        self.inner.state.lock().senders += 1;
        ControlSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for ControlSender<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        state.senders -= 1;
        let waker = if state.senders == 0 {
            self.inner.available.notify_all();
            state.waker.0.clone()
        } else {
            None
        };
        drop(state);
        // Closure is an observable event too: a parked poll-driven
        // consumer must wake to notice the channel died.
        if let Some(wake) = waker {
            wake();
        }
    }
}

/// Receiving half of a control channel.
#[derive(Debug)]
pub struct ControlReceiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T: Send> ControlReceiver<T> {
    /// Dequeues the next command, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Closed`] once all senders are gone and the
    /// queue is drained — the sentinel's dispatch loop uses this to
    /// terminate.
    pub fn recv(&self) -> Result<T> {
        let inner = &*self.inner;
        if inner.kind == ChannelKind::Kernel {
            inner.model.charge(Cost::Syscall);
        }
        let mut state = handoff::lock_when(&inner.state, |s| !s.queue.is_empty() || s.senders == 0);
        loop {
            if let Some((msg, stamp)) = state.queue.pop_front() {
                clock::sync_to(stamp);
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(IpcError::Closed);
            }
            inner.available.wait(&mut state);
        }
    }

    /// Dequeues a command if one is already queued; never blocks.
    pub fn try_recv(&self) -> Result<Option<T>> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        if let Some((msg, stamp)) = state.queue.pop_front() {
            clock::sync_to(stamp);
            return Ok(Some(msg));
        }
        if state.senders == 0 {
            return Err(IpcError::Closed);
        }
        Ok(None)
    }

    /// Non-blocking receive that charges exactly what [`recv`] would.
    ///
    /// The blocking `recv` pays one kernel syscall per call, whether the
    /// message is already queued or arrives later; an empty poll in the
    /// executor corresponds to the interval `recv` would have spent
    /// blocked, which costs nothing. So: observing a message (or channel
    /// closure) charges the syscall, `Ok(None)` charges nothing. This
    /// keeps poll-driven sentinels bit-identical in virtual time to the
    /// dedicated-thread dispatch loop.
    ///
    /// [`recv`]: ControlReceiver::recv
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once all senders are gone and the queue is
    /// drained.
    pub fn poll_recv(&self) -> Result<Option<T>> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        if state.queue.is_empty() && state.senders > 0 {
            return Ok(None);
        }
        if inner.kind == ChannelKind::Kernel {
            inner.model.charge(Cost::Syscall);
        }
        match state.queue.pop_front() {
            Some((msg, stamp)) => {
                clock::sync_to(stamp);
                Ok(Some(msg))
            }
            None => Err(IpcError::Closed),
        }
    }

    /// Installs `waker`, invoked on every send and when the last sender
    /// drops. Replaces any previously installed waker.
    pub fn set_waker(&self, waker: ChannelWaker) {
        self.inner.state.lock().waker.0 = Some(waker);
    }
}

impl<T> Drop for ControlReceiver<T> {
    fn drop(&mut self) {
        self.inner.state.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::HardwareProfile;

    #[test]
    fn commands_arrive_in_order() {
        let (tx, rx) = ControlChannel::new::<u32>(CostModel::free());
        for i in 0..10 {
            tx.send(i).expect("send");
        }
        for i in 0..10 {
            assert_eq!(rx.recv().expect("recv"), i);
        }
    }

    #[test]
    fn recv_after_sender_drop_is_closed() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        tx.send(1).expect("send");
        drop(tx);
        assert_eq!(rx.recv().expect("last message"), 1);
        assert_eq!(rx.recv(), Err(IpcError::Closed));
    }

    #[test]
    fn last_sender_dropping_mid_spin_closes_recv() {
        for _ in 0..200 {
            let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
            let got = crate::handoff::close_mid_spin(|| rx.recv(), || drop(tx));
            assert_eq!(got, Err(IpcError::Closed));
        }
    }

    #[test]
    fn send_after_receiver_drop_is_broken() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        drop(rx);
        assert_eq!(tx.send(1), Err(IpcError::BrokenPipe));
    }

    #[test]
    fn try_recv_does_not_block() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        assert_eq!(rx.try_recv().expect("empty"), None);
        tx.send(9).expect("send");
        assert_eq!(rx.try_recv().expect("one"), Some(9));
    }

    #[test]
    fn timestamps_propagate() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::new(HardwareProfile::pentium_ii_300()));
        std::thread::spawn(move || {
            let _g = clock::install(5_000_000);
            tx.send(1).expect("send");
        })
        .join()
        .expect("join");
        let _g = clock::install(0);
        rx.recv().expect("recv");
        assert!(clock::now() >= 5_000_000);
    }

    #[test]
    fn duplicated_sender_keeps_channel_open() {
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        let tx2 = tx.duplicate();
        drop(tx);
        tx2.send(3).expect("send via dup");
        assert_eq!(rx.recv().expect("recv"), 3);
        drop(tx2);
        assert_eq!(rx.recv(), Err(IpcError::Closed));
    }

    #[test]
    fn waker_fires_on_send_and_on_last_sender_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (tx, rx) = ControlChannel::new::<u8>(CostModel::free());
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        rx.set_waker(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        tx.send(1).expect("send");
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let tx2 = tx.duplicate();
        drop(tx);
        // Not the last sender: no closure wakeup.
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        drop(tx2);
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert_eq!(rx.poll_recv().expect("queued"), Some(1));
        assert_eq!(rx.poll_recv(), Err(IpcError::Closed));
    }

    #[test]
    fn poll_recv_charges_like_recv_only_when_observing() {
        use afs_sim::Cost;
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let syscall = model.price(Cost::Syscall);
        let (tx, rx) = ControlChannel::new::<u8>(model);
        let _g = clock::install(0);
        // Empty poll: `recv` would have blocked — nothing charged.
        assert_eq!(rx.poll_recv().expect("empty"), None);
        assert_eq!(clock::now(), 0);
        tx.send(7).expect("send");
        let before = clock::now();
        assert_eq!(rx.poll_recv().expect("one"), Some(7));
        assert_eq!(clock::now() - before, syscall);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = ControlChannel::new::<u64>(CostModel::free());
        let t = std::thread::spawn(move || rx.recv().expect("recv"));
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42).expect("send");
        assert_eq!(t.join().expect("join"), 42);
    }
}
