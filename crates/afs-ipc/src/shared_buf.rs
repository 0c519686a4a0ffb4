//! Single-copy shared-memory handoff for the DLL-with-thread strategy.
//!
//! "File data is not copied from user space to kernel space and then to
//! user space (as is the case with pipes), instead using only one
//! user-level copy" (§4.3). A [`SharedBuffer`] is a one-slot mailbox
//! between the application thread and the in-process sentinel thread:
//!
//! * [`SharedBuffer::send`] copies the caller's bytes into the shared slot
//!   — *this is the single user-level copy and the only one charged*;
//! * [`SharedBuffer::recv_into`] hands the bytes to the receiver. In the
//!   real prototype the producing side copies directly into the consumer's
//!   buffer inside the shared address space, so the physical copy
//!   performed here is *not* charged a second time.
//!
//! The slot blocks a sender while occupied and a receiver while empty,
//! providing the same rendezvous the prototype builds from events.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use afs_sim::{clock, Cost, CostModel, SimTime};
use afs_telemetry::QueueGauges;

use crate::pool::BufferPool;
use crate::{handoff, IpcError, Result};

#[derive(Debug)]
struct State {
    slot: Option<(Vec<u8>, SimTime)>,
    closed: bool,
    /// Receiver's virtual clock when the slot was last emptied; a sender
    /// that had to wait for space synchronises to this, which is what
    /// turns the one-slot rendezvous into bandwidth backpressure (the
    /// same rule as the pipe's `last_drain`).
    last_take: SimTime,
}

#[derive(Debug)]
struct Inner {
    model: CostModel,
    /// Recycles slot buffers between transfers, mirroring the fixed
    /// shared-memory region of the prototype. Allocation-only; charges are
    /// unaffected.
    pool: BufferPool,
    /// Optional slot-occupancy gauges.
    gauges: Option<Arc<QueueGauges>>,
    state: Mutex<State>,
    filled: Condvar,
    emptied: Condvar,
}

/// A one-slot shared-memory mailbox (clones refer to the same slot).
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    inner: Arc<Inner>,
}

impl SharedBuffer {
    /// Creates an empty buffer.
    pub fn new(model: CostModel) -> Self {
        SharedBuffer::build(model, None)
    }

    /// Like [`SharedBuffer::new`], but reports slot occupancy to `gauges`.
    pub fn observed(model: CostModel, gauges: Arc<QueueGauges>) -> Self {
        SharedBuffer::build(model, Some(gauges))
    }

    fn build(model: CostModel, gauges: Option<Arc<QueueGauges>>) -> Self {
        SharedBuffer {
            inner: Arc::new(Inner {
                model,
                pool: BufferPool::new(),
                gauges,
                state: Mutex::new(State {
                    slot: None,
                    closed: false,
                    last_take: 0,
                }),
                filled: Condvar::new(),
                emptied: Condvar::new(),
            }),
        }
    }

    /// Copies `data` into the shared slot, blocking while the slot is
    /// occupied. Charges one user-level memcpy and one event signal.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Closed`] if the buffer has been closed.
    pub fn send(&self, data: &[u8]) -> Result<()> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        while state.slot.is_some() {
            if state.closed {
                return Err(IpcError::Closed);
            }
            inner.emptied.wait(&mut state);
            clock::sync_to(state.last_take);
        }
        if state.closed {
            return Err(IpcError::Closed);
        }
        inner.model.charge(Cost::Memcpy { bytes: data.len() });
        inner.model.charge(Cost::EventSignal);
        let mut staged = inner.pool.take_capacity(data.len());
        staged.extend_from_slice(data);
        state.slot = Some((staged, clock::now()));
        if let Some(gauges) = &inner.gauges {
            gauges.shm_filled();
        }
        inner.filled.notify_one();
        Ok(())
    }

    /// Takes the next message, copying as much as fits into `buf`, blocking
    /// until a message arrives.
    ///
    /// Returns the full message length; if it exceeds `buf.len()` the
    /// excess is discarded (callers size their buffers from the preceding
    /// control message, as the prototype does). The physical copy here is
    /// deliberately not charged — see the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Closed`] if the buffer is closed and empty.
    pub fn recv_into(&self, buf: &mut [u8]) -> Result<usize> {
        let inner = &*self.inner;
        let mut state = handoff::lock_when(&inner.state, |s| s.slot.is_some() || s.closed);
        loop {
            if let Some((data, stamp)) = state.slot.take() {
                clock::sync_to(stamp);
                let n = data.len().min(buf.len());
                buf[..n].copy_from_slice(&data[..n]);
                let len = data.len();
                inner.pool.put(data);
                state.last_take = state.last_take.max(clock::now());
                if let Some(gauges) = &inner.gauges {
                    gauges.shm_taken();
                }
                inner.emptied.notify_one();
                return Ok(len);
            }
            if state.closed {
                return Err(IpcError::Closed);
            }
            inner.filled.wait(&mut state);
        }
    }

    /// Takes the next message as an owned vector.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Closed`] if the buffer is closed and empty.
    pub fn recv(&self) -> Result<Vec<u8>> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        loop {
            if let Some((data, stamp)) = state.slot.take() {
                clock::sync_to(stamp);
                state.last_take = state.last_take.max(clock::now());
                if let Some(gauges) = &inner.gauges {
                    gauges.shm_taken();
                }
                inner.emptied.notify_one();
                return Ok(data);
            }
            if state.closed {
                return Err(IpcError::Closed);
            }
            inner.filled.wait(&mut state);
        }
    }

    /// Closes the buffer: pending and future operations fail with
    /// [`IpcError::Closed`] (a message already in the slot can still be
    /// received).
    pub fn close(&self) {
        let mut state = self.inner.state.lock();
        state.closed = true;
        self.inner.filled.notify_all();
        self.inner.emptied.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::HardwareProfile;

    #[test]
    fn send_then_recv_roundtrips() {
        let b = SharedBuffer::new(CostModel::free());
        b.send(b"payload").expect("send");
        let mut buf = [0u8; 16];
        let n = b.recv_into(&mut buf).expect("recv");
        assert_eq!(&buf[..n], b"payload");
    }

    #[test]
    fn recv_reports_full_length_on_short_buffer() {
        let b = SharedBuffer::new(CostModel::free());
        b.send(b"0123456789").expect("send");
        let mut buf = [0u8; 4];
        let n = b.recv_into(&mut buf).expect("recv");
        assert_eq!(n, 10);
        assert_eq!(&buf, b"0123");
    }

    #[test]
    fn exactly_one_copy_is_charged() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let b = SharedBuffer::new(model.clone());
        b.send(&[1u8; 256]).expect("send");
        let mut buf = [0u8; 256];
        b.recv_into(&mut buf).expect("recv");
        let snap = model.snapshot();
        assert_eq!(snap.memcpy_bytes, 256);
        assert_eq!(snap.copies, 1, "shared memory transfer is single-copy");
        assert_eq!(snap.pipe_copy_bytes, 0);
    }

    #[test]
    fn slot_buffers_recycle_through_the_pool() {
        let b = SharedBuffer::new(CostModel::free());
        let mut buf = [0u8; 8];
        for _ in 0..5 {
            b.send(&[9u8; 8]).expect("send");
            b.recv_into(&mut buf).expect("recv");
        }
        assert_eq!(b.inner.pool.allocations(), 1);
        assert_eq!(b.inner.pool.reuses(), 4);
    }

    #[test]
    fn sender_blocks_while_slot_full() {
        let b = SharedBuffer::new(CostModel::free());
        b.send(b"a").expect("first");
        let b2 = b.clone();
        let t = std::thread::spawn(move || b2.send(b"b"));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!t.is_finished(), "second send must block");
        let mut buf = [0u8; 1];
        b.recv_into(&mut buf).expect("recv a");
        t.join().expect("join").expect("send b");
        b.recv_into(&mut buf).expect("recv b");
        assert_eq!(&buf, b"b");
    }

    #[test]
    fn close_unblocks_receiver_with_closed() {
        let b = SharedBuffer::new(CostModel::free());
        let b2 = b.clone();
        let t = std::thread::spawn(move || b2.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        b.close();
        assert_eq!(t.join().expect("join"), Err(IpcError::Closed));
        assert_eq!(b.send(b"x"), Err(IpcError::Closed));
    }

    #[test]
    fn close_mid_spin_fails_recv_with_closed() {
        for _ in 0..200 {
            let b = SharedBuffer::new(CostModel::free());
            let rx = b.clone();
            let mut buf = [0u8; 8];
            let got = crate::handoff::close_mid_spin(|| rx.recv_into(&mut buf), || b.close());
            assert_eq!(got, Err(IpcError::Closed));
        }
    }

    #[test]
    fn message_in_slot_survives_close() {
        let b = SharedBuffer::new(CostModel::free());
        b.send(b"last").expect("send");
        b.close();
        assert_eq!(b.recv().expect("drain"), b"last".to_vec());
        assert_eq!(b.recv(), Err(IpcError::Closed));
    }

    #[test]
    fn observed_buffer_reports_slot_occupancy() {
        let gauges = Arc::new(QueueGauges::default());
        let b = SharedBuffer::observed(CostModel::free(), Arc::clone(&gauges));
        b.send(b"m").expect("send");
        assert_eq!(gauges.snapshot().shm_pending, 1);
        b.recv().expect("recv");
        let snap = gauges.snapshot();
        assert_eq!(snap.shm_pending, 0);
        assert_eq!(snap.shm_messages, 1);
    }

    #[test]
    fn virtual_time_propagates() {
        let b = SharedBuffer::new(CostModel::new(HardwareProfile::pentium_ii_300()));
        let b2 = b.clone();
        std::thread::spawn(move || {
            let _g = clock::install(9_000);
            b2.send(b"t").expect("send");
        })
        .join()
        .expect("join");
        let _g = clock::install(0);
        b.recv().expect("recv");
        assert!(clock::now() >= 9_000);
    }
}
