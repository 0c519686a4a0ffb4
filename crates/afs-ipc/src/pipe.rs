//! Anonymous pipes with virtual-time accounting.
//!
//! A [`Pipe`] is a bounded FIFO of bytes between one or more writers and
//! one or more readers (handles can be duplicated, mirroring NT's
//! `DuplicateHandle`). Physically the pipe is a segment queue guarded by a
//! mutex; *logically* it is an NT anonymous pipe, and it charges the cost
//! model accordingly:
//!
//! * a write charges one syscall, one fixed per-message overhead, and one
//!   user→kernel copy of the payload;
//! * a read charges one syscall and one kernel→user copy.
//!
//! Virtual time flows through the pipe: each enqueued segment carries the
//! writer's clock, a reader synchronises forward to the stamp of the data
//! it consumes, and a writer blocked on a full pipe synchronises forward to
//! the reader's clock at the moment space was freed. The last rule is what
//! turns the bounded capacity into *bandwidth backpressure*: a fast
//! application writing through a slow sentinel is throttled to the
//! sentinel's drain rate, which is exactly how the paper explains the
//! Write panels of Figure 6 ("any increase in the overhead of a write
//! stems from bandwidth restrictions imposed by the sentinel", §6).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use afs_sim::{clock, Cost, CostModel, CrossingKind, SimTime};
use afs_telemetry::QueueGauges;

use crate::pool::BufferPool;
use crate::{handoff, IpcError, Result};

/// Default pipe capacity, matching the small in-kernel buffer of NT
/// anonymous pipes.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

#[derive(Debug)]
struct Segment {
    data: Vec<u8>,
    pos: usize,
    ready: SimTime,
}

impl Segment {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

#[derive(Debug)]
struct State {
    segments: VecDeque<Segment>,
    buffered: usize,
    writers: usize,
    readers: usize,
    /// Reader's virtual clock when space was last freed; a writer that had
    /// to block for space synchronises to this.
    last_drain: SimTime,
}

#[derive(Debug)]
struct Inner {
    model: CostModel,
    crossing: CrossingKind,
    capacity: usize,
    /// Recycles segment buffers: the reader returns fully-consumed
    /// segments, the writer reuses them for subsequent chunks. Purely an
    /// allocation optimisation — charges are identical either way.
    pool: Arc<BufferPool>,
    /// Optional queue-depth gauges; always-on relaxed atomics when present.
    gauges: Option<Arc<QueueGauges>>,
    state: Mutex<State>,
    readable: Condvar,
    writable: Condvar,
}

/// Factory for pipe endpoint pairs.
#[derive(Debug)]
pub struct Pipe;

impl Pipe {
    /// Creates an anonymous pipe with the default capacity.
    ///
    /// `crossing` records which protection boundary the pipe spans; it is
    /// carried on the endpoints so strategy code can charge the right kind
    /// of context switch.
    pub fn anonymous(model: CostModel, crossing: CrossingKind) -> (PipeWriter, PipeReader) {
        Pipe::with_capacity(model, crossing, DEFAULT_CAPACITY)
    }

    /// Like [`Pipe::anonymous`], but reports queue depth to `gauges`.
    pub fn anonymous_observed(
        model: CostModel,
        crossing: CrossingKind,
        gauges: Arc<QueueGauges>,
    ) -> (PipeWriter, PipeReader) {
        Pipe::build(
            model,
            crossing,
            DEFAULT_CAPACITY,
            Arc::new(BufferPool::new()),
            Some(gauges),
        )
    }

    /// Creates an anonymous pipe with an explicit buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(
        model: CostModel,
        crossing: CrossingKind,
        capacity: usize,
    ) -> (PipeWriter, PipeReader) {
        Pipe::with_pool(model, crossing, capacity, Arc::new(BufferPool::new()))
    }

    /// Creates an anonymous pipe staging its segments in `pool`, so
    /// several pipes can share one free list (and tests can observe
    /// reuse).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_pool(
        model: CostModel,
        crossing: CrossingKind,
        capacity: usize,
        pool: Arc<BufferPool>,
    ) -> (PipeWriter, PipeReader) {
        Pipe::build(model, crossing, capacity, pool, None)
    }

    fn build(
        model: CostModel,
        crossing: CrossingKind,
        capacity: usize,
        pool: Arc<BufferPool>,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (PipeWriter, PipeReader) {
        assert!(capacity > 0, "pipe capacity must be positive");
        let inner = Arc::new(Inner {
            model,
            crossing,
            capacity,
            pool,
            gauges,
            state: Mutex::new(State {
                segments: VecDeque::new(),
                buffered: 0,
                writers: 1,
                readers: 1,
                last_drain: 0,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        });
        (
            PipeWriter {
                inner: Arc::clone(&inner),
            },
            PipeReader { inner },
        )
    }
}

/// The writing end of a pipe.
#[derive(Debug)]
pub struct PipeWriter {
    inner: Arc<Inner>,
}

/// The reading end of a pipe.
#[derive(Debug)]
pub struct PipeReader {
    inner: Arc<Inner>,
}

impl PipeWriter {
    /// Writes all of `buf` into the pipe, blocking while the pipe is full.
    ///
    /// Charges one syscall + message overhead per call and a user→kernel
    /// copy per byte. Payloads larger than the pipe capacity are moved in
    /// capacity-sized chunks, blocking between chunks, just as a real pipe
    /// would.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::BrokenPipe`] if every reader is gone (data
    /// written so far may have been discarded, as with a real pipe).
    pub fn write(&self, buf: &[u8]) -> Result<()> {
        let inner = &*self.inner;
        inner.model.charge(Cost::Syscall);
        inner.model.charge(Cost::PipeMessage);
        if buf.is_empty() {
            let state = inner.state.lock();
            return if state.readers == 0 {
                Err(IpcError::BrokenPipe)
            } else {
                Ok(())
            };
        }
        let mut offset = 0;
        while offset < buf.len() {
            // Writes no larger than the capacity are atomic (PIPE_BUF
            // semantics): wait until the whole chunk fits so that segments
            // from concurrent writers never interleave mid-write.
            let take = (buf.len() - offset).min(inner.capacity);
            let mut state = inner.state.lock();
            if state.readers == 0 {
                return Err(IpcError::BrokenPipe);
            }
            while inner.capacity - state.buffered < take {
                if state.readers == 0 {
                    return Err(IpcError::BrokenPipe);
                }
                inner.writable.wait(&mut state);
                // We only reach here after the reader drained; inherit its
                // clock so backpressure shows up as elapsed writer time.
                clock::sync_to(state.last_drain);
            }
            // Space is reserved by holding the lock through the enqueue;
            // the copy is the user→kernel copy of this chunk.
            inner.model.charge(Cost::PipeCopy { bytes: take });
            let mut chunk = inner.pool.take_capacity(take);
            chunk.extend_from_slice(&buf[offset..offset + take]);
            let ready = clock::now();
            state.buffered += take;
            state.segments.push_back(Segment {
                data: chunk,
                pos: 0,
                ready,
            });
            if let Some(gauges) = &inner.gauges {
                gauges.pipe_enqueued(take as u64);
            }
            offset += take;
            inner.readable.notify_one();
        }
        Ok(())
    }

    /// The protection boundary this pipe crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.inner.crossing
    }

    /// Duplicates the handle (NT `DuplicateHandle` semantics): the pipe
    /// stays writable until every writer handle is dropped.
    pub fn duplicate(&self) -> PipeWriter {
        self.inner.state.lock().writers += 1;
        PipeWriter {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        state.writers -= 1;
        if state.writers == 0 {
            self.inner.readable.notify_all();
        }
    }
}

impl PipeReader {
    /// Reads up to `buf.len()` bytes, blocking until at least one byte is
    /// available or every writer is gone.
    ///
    /// Returns the number of bytes read; `Ok(0)` means end-of-file (all
    /// writers closed and the pipe drained). Charges one syscall per call
    /// and a kernel→user copy per byte actually read.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize> {
        let inner = &*self.inner;
        inner.model.charge(Cost::Syscall);
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state =
            handoff::lock_when(&inner.state, |s| !s.segments.is_empty() || s.writers == 0);
        while state.segments.is_empty() {
            if state.writers == 0 {
                return Ok(0);
            }
            inner.readable.wait(&mut state);
        }
        let mut copied = 0;
        let mut newest: SimTime = 0;
        while copied < buf.len() {
            let Some(front) = state.segments.front_mut() else {
                break;
            };
            let take = front.remaining().min(buf.len() - copied);
            buf[copied..copied + take].copy_from_slice(&front.data[front.pos..front.pos + take]);
            front.pos += take;
            copied += take;
            newest = newest.max(front.ready);
            if front.remaining() == 0 {
                if let Some(spent) = state.segments.pop_front() {
                    inner.pool.put(spent.data);
                }
            }
        }
        state.buffered -= copied;
        if let Some(gauges) = &inner.gauges {
            gauges.pipe_drained(copied as u64);
        }
        // The data cannot be in the reader's hands before the writer put it
        // in the pipe.
        clock::sync_to(newest);
        inner.model.charge(Cost::PipeCopy { bytes: copied });
        state.last_drain = clock::now();
        inner.writable.notify_all();
        Ok(copied)
    }

    /// Reads exactly `buf.len()` bytes unless end-of-file intervenes.
    ///
    /// Returns the number of bytes read, which is less than `buf.len()`
    /// only if the pipe reached end-of-file.
    pub fn read_exact(&self, buf: &mut [u8]) -> Result<usize> {
        let mut total = 0;
        while total < buf.len() {
            let n = self.read(&mut buf[total..])?;
            if n == 0 {
                break;
            }
            total += n;
        }
        Ok(total)
    }

    /// The protection boundary this pipe crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.inner.crossing
    }

    /// Duplicates the handle; the pipe reports a broken pipe to writers
    /// only after every reader handle is dropped.
    pub fn duplicate(&self) -> PipeReader {
        self.inner.state.lock().readers += 1;
        PipeReader {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        state.readers -= 1;
        if state.readers == 0 {
            self.inner.writable.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::HardwareProfile;

    fn free_pipe() -> (PipeWriter, PipeReader) {
        Pipe::anonymous(CostModel::free(), CrossingKind::InterProcess)
    }

    #[test]
    fn roundtrip_bytes_in_order() {
        let (w, r) = free_pipe();
        w.write(b"hello ").expect("write");
        w.write(b"world").expect("write");
        let mut buf = [0u8; 16];
        let n = r.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"hello world");
    }

    #[test]
    fn read_blocks_until_data_arrives() {
        let (w, r) = free_pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            let n = r.read(&mut buf).expect("read");
            (n, buf)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        w.write(b"data").expect("write");
        let (n, buf) = t.join().expect("join");
        assert_eq!((n, &buf[..]), (4, &b"data"[..]));
    }

    #[test]
    fn eof_after_all_writers_drop() {
        let (w, r) = free_pipe();
        let w2 = w.duplicate();
        w.write(b"x").expect("write");
        drop(w);
        let mut buf = [0u8; 4];
        assert_eq!(r.read(&mut buf).expect("read"), 1);
        // Second writer still open: no EOF yet, write works.
        w2.write(b"y").expect("write");
        drop(w2);
        assert_eq!(r.read(&mut buf).expect("read"), 1);
        assert_eq!(r.read(&mut buf).expect("read"), 0);
        assert_eq!(r.read(&mut buf).expect("read"), 0);
    }

    #[test]
    fn last_writer_dropping_mid_spin_is_eof() {
        for _ in 0..200 {
            let (w, r) = Pipe::anonymous(CostModel::free(), CrossingKind::InterProcess);
            let mut buf = [0u8; 8];
            let got = crate::handoff::close_mid_spin(|| r.read(&mut buf), || drop(w));
            assert_eq!(got, Ok(0));
        }
    }

    #[test]
    fn write_to_closed_reader_is_broken_pipe() {
        let (w, r) = free_pipe();
        drop(r);
        assert_eq!(w.write(b"x"), Err(IpcError::BrokenPipe));
    }

    #[test]
    fn large_write_chunks_through_small_capacity() {
        let (w, r) = Pipe::with_capacity(CostModel::free(), CrossingKind::InterThread, 8);
        let payload: Vec<u8> = (0..100u8).collect();
        let expected = payload.clone();
        let t = std::thread::spawn(move || w.write(&payload));
        let mut got = vec![0u8; 100];
        let n = r.read_exact(&mut got).expect("read_exact");
        assert_eq!(n, 100);
        assert_eq!(got, expected);
        t.join().expect("join").expect("write");
    }

    #[test]
    fn zero_len_ops_are_cheap_and_ok() {
        let (w, r) = free_pipe();
        w.write(&[]).expect("empty write");
        let mut empty: [u8; 0] = [];
        assert_eq!(r.read(&mut empty).expect("empty read"), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Pipe::with_capacity(CostModel::free(), CrossingKind::None, 0);
    }

    #[test]
    fn charges_two_copies_per_transfer() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (w, r) = Pipe::anonymous(model.clone(), CrossingKind::InterProcess);
        w.write(&[7u8; 64]).expect("write");
        let mut buf = [0u8; 64];
        r.read(&mut buf).expect("read");
        let snap = model.snapshot();
        assert_eq!(snap.pipe_copy_bytes, 128, "one copy in, one copy out");
        assert_eq!(snap.copies, 2);
        assert_eq!(snap.syscalls, 2);
        assert_eq!(snap.pipe_messages, 1);
    }

    #[test]
    fn virtual_time_flows_writer_to_reader() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (w, r) = Pipe::anonymous(model.clone(), CrossingKind::InterProcess);
        // Writer at t=1_000_000 ns.
        let wt = std::thread::spawn(move || {
            let _g = clock::install(1_000_000);
            w.write(&[1u8; 8]).expect("write");
            clock::now()
        });
        let writer_after = wt.join().expect("join");
        // Reader starts at t=0; after reading it must be at least at the
        // writer's enqueue stamp plus its own read costs.
        let _g = clock::install(0);
        let mut buf = [0u8; 8];
        r.read(&mut buf).expect("read");
        assert!(clock::now() >= 1_000_000);
        assert!(writer_after >= 1_000_000);
    }

    #[test]
    fn backpressure_carries_reader_time_to_writer() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (w, r) = Pipe::with_capacity(model, CrossingKind::InterProcess, 8);
        // Reader thread consumes slowly in virtual time: it advances its
        // clock far ahead before draining.
        let rt = std::thread::spawn(move || {
            let _g = clock::install(0);
            std::thread::sleep(std::time::Duration::from_millis(30));
            clock::advance(50_000_000); // reader is at 50 ms virtual
            let mut buf = [0u8; 64];
            let mut total = 0;
            while total < 16 {
                total += r.read(&mut buf).expect("read");
            }
        });
        let _g = clock::install(0);
        // First 8 bytes fit; second 8 must wait for the drain at 50 ms.
        w.write(&[0u8; 8]).expect("write");
        let before_block = clock::now();
        assert!(before_block < 50_000_000);
        w.write(&[0u8; 8]).expect("write");
        assert!(
            clock::now() >= 50_000_000,
            "writer should inherit reader drain time, got {}",
            clock::now()
        );
        rt.join().expect("join");
    }

    #[test]
    fn segments_recycle_through_the_pool() {
        let pool = Arc::new(BufferPool::new());
        let (w, r) = Pipe::with_pool(
            CostModel::free(),
            CrossingKind::InterProcess,
            64,
            Arc::clone(&pool),
        );
        let mut buf = [0u8; 16];
        for _ in 0..10 {
            w.write(&[3u8; 16]).expect("write");
            assert_eq!(r.read(&mut buf).expect("read"), 16);
        }
        assert_eq!(pool.allocations(), 1, "only the first chunk allocates");
        assert_eq!(pool.reuses(), 9);
    }

    #[test]
    fn pooling_does_not_change_charges() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let (w, r) = Pipe::anonymous(model.clone(), CrossingKind::InterProcess);
        let mut buf = [0u8; 64];
        w.write(&[7u8; 64]).expect("warm write");
        r.read(&mut buf).expect("warm read");
        let before = model.snapshot();
        w.write(&[7u8; 64]).expect("pooled write");
        r.read(&mut buf).expect("pooled read");
        let delta = model.snapshot().since(&before);
        assert_eq!(
            delta.pipe_copy_bytes, 128,
            "reused buffer still charges both copies"
        );
        assert_eq!(delta.copies, 2);
        assert_eq!(delta.syscalls, 2);
    }

    #[test]
    fn observed_pipe_reports_queue_depth() {
        let gauges = Arc::new(QueueGauges::default());
        let (w, r) = Pipe::anonymous_observed(
            CostModel::free(),
            CrossingKind::InterProcess,
            Arc::clone(&gauges),
        );
        w.write(&[1u8; 32]).expect("write");
        assert_eq!(gauges.snapshot().pipe_buffered, 32);
        let mut buf = [0u8; 32];
        r.read(&mut buf).expect("read");
        let snap = gauges.snapshot();
        assert_eq!(snap.pipe_buffered, 0);
        assert_eq!(snap.pipe_buffered_peak, 32);
        assert_eq!(snap.pipe_messages, 1);
    }

    #[test]
    fn many_threads_interleave_without_loss() {
        let (w, r) = Pipe::with_capacity(CostModel::free(), CrossingKind::InterThread, 64);
        let writers: Vec<_> = (0..4)
            .map(|i| {
                let w = w.duplicate();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        w.write(&[i as u8; 16]).expect("write");
                    }
                })
            })
            .collect();
        drop(w);
        let mut counts = [0usize; 4];
        let mut buf = [0u8; 16];
        loop {
            let n = r.read_exact(&mut buf).expect("read");
            if n == 0 {
                break;
            }
            assert_eq!(
                n, 16,
                "pipe writes of one segment never interleave mid-chunk"
            );
            counts[buf[0] as usize] += 1;
        }
        assert_eq!(counts, [100; 4]);
        for t in writers {
            t.join().expect("join");
        }
    }
}
