//! The [`Transport`] abstraction: one call per operation over the IPC
//! substrates of §4.
//!
//! The paper's strategies differ in *what carries the bytes*, not in what
//! an operation means: §4.2 uses a control channel beside two data pipes,
//! §4.3 swaps the pipes for shared memory plus events, and §4.4 calls the
//! sentinel inline. A [`Transport`] is the application side of that
//! choice, shaped like the operation: one [`post`](Transport::post) per
//! write-behind write, one [`call`](Transport::call) per everything else.
//! [`PairTransport::kernel`] and [`PairTransport::shared`] build the
//! §4.2/§4.3 wirings, which a [`MuxHub`](crate::MuxHub) drives: its
//! sessions, the batched ring and the inline §4.4 path implement the
//! trait. The bare pipe pair of §4.1 ([`StreamTransport`]) carries no
//! commands and is not a `Transport`.
//!
//! A transport dropped without its close still delivers the writes it
//! acknowledged: whatever it staged goes to the sentinel on drop.
//!
//! The sentinel side of a pair wiring is a [`PairPort`], which the
//! dispatch loop drains. Both sides stage payloads through a
//! [`BufferPool`](crate::BufferPool) rather than allocating per message.

use std::sync::Arc;

use parking_lot::Mutex;

use afs_sim::{CostModel, CrossingKind};
use afs_telemetry::QueueGauges;

use crate::pool::BufferPool;
use crate::{
    ControlChannel, ControlReceiver, ControlSender, IpcError, MuxProtocol, Pipe, PipeReader,
    PipeWriter, Result, SharedBuffer,
};

/// Sink for one direction of the data lane.
pub trait DataTx: Send + Sync {
    /// Transfers one message of bytes.
    fn send(&self, data: &[u8]) -> Result<()>;
}

/// Source for one direction of the data lane.
pub trait DataRx: Send + Sync {
    /// Receives exactly `buf.len()` bytes (one logical message, possibly
    /// assembled from several physical ones). Returns the number of bytes
    /// received, which is less than `buf.len()` only at end-of-stream.
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize>;
}

impl DataTx for PipeWriter {
    fn send(&self, data: &[u8]) -> Result<()> {
        self.write(data)
    }
}

impl DataRx for PipeReader {
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize> {
        self.read_exact(buf)
    }
}

impl DataTx for SharedBuffer {
    fn send(&self, data: &[u8]) -> Result<()> {
        SharedBuffer::send(self, data)
    }
}

impl DataRx for SharedBuffer {
    /// Assembles `buf.len()` bytes from as many slot messages as needed.
    ///
    /// A message longer than the space left in `buf` would silently lose
    /// its tail (the slot hands over whole messages), so that case is a
    /// framing violation and fails with [`IpcError::BrokenPipe`] rather
    /// than corrupting the stream.
    fn recv_exact(&self, buf: &mut [u8]) -> Result<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.recv_into(&mut buf[filled..])?;
            if n > buf.len() - filled {
                return Err(IpcError::BrokenPipe);
            }
            filled += n;
        }
        Ok(filled)
    }
}

/// The application side of one strategy's wiring, shaped like the
/// operation rather than like the pipes: the handle makes one call per
/// operation and the wiring decides how the bytes cross. A write is a
/// [`post`](Transport::post) — write-behind, nothing comes back — and
/// everything else is a [`call`](Transport::call) whose reply bytes land
/// in the caller's buffer. `P` supplies the command and reply types and
/// how many payload bytes a reply carries.
pub trait Transport<P: MuxProtocol>: Send + Sync {
    /// Which protection boundary an operation round-trip crosses.
    fn crossing(&self) -> CrossingKind;

    /// Whether the transport charges its own protection-domain crossings.
    /// A wiring that batches or coalesces commands must, since an
    /// operation's crossing count is no longer a per-op constant; callers
    /// then skip their own round-trip charge.
    fn charges_own_crossings(&self) -> bool {
        false
    }

    /// Sends a write-behind command plus its payload bytes; nothing
    /// comes back. The bytes are delivered even if the transport is
    /// dropped before the sentinel has seen them.
    fn post(&self, cmd: P::Cmd, payload: &[u8]) -> Result<()>;

    /// Sends `cmd` and waits for its reply, whose payload bytes land in
    /// `out`. A reply announcing more bytes than `out` holds is drained
    /// and returned as is, so the lanes stay framed and the caller can
    /// reject it.
    fn call(&self, cmd: P::Cmd, out: &mut [u8]) -> Result<P::Reply>;
}

/// Application side of a control-capable wiring (§4.2/§4.3): a command
/// channel, a reply channel, and one data lane per direction. A
/// [`MuxHub`](crate::MuxHub) owns it and frames every op its sessions
/// send.
pub struct PairTransport<C: Send + 'static, R: Send + 'static> {
    commands: ControlSender<C>,
    replies: ControlReceiver<R>,
    data_tx: Box<dyn DataTx>,
    data_rx: Box<dyn DataRx>,
    crossing: CrossingKind,
}

/// Sentinel side of a [`PairTransport`] wiring, drained by the dispatch
/// loop.
pub struct PairPort<C: Send + 'static, R: Send + 'static> {
    commands: ControlReceiver<C>,
    replies: ControlSender<R>,
    data_rx: Box<dyn DataRx>,
    data_tx: Box<dyn DataTx>,
    pool: Arc<BufferPool>,
}

impl<C: Send + 'static, R: Send + 'static> PairTransport<C, R> {
    /// Builds the §4.2 wiring: kernel control channels and two anonymous
    /// pipes across the process boundary. Every transfer costs the pipes'
    /// two kernel copies and the round trip two process switches.
    pub fn kernel(model: CostModel) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::kernel_build(model, None)
    }

    /// Like [`PairTransport::kernel`], but reports pipe depth and pool
    /// reuse to `gauges`.
    pub fn kernel_observed(
        model: CostModel,
        gauges: Arc<QueueGauges>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::kernel_build(model, Some(gauges))
    }

    fn kernel_build(
        model: CostModel,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        let crossing = CrossingKind::InterProcess;
        let (cmd_tx, cmd_rx) = ControlChannel::new::<C>(model.clone());
        let (reply_tx, reply_rx) = ControlChannel::new::<R>(model.clone());
        let pipe = |model: CostModel| match &gauges {
            Some(g) => Pipe::anonymous_observed(model, crossing, Arc::clone(g)),
            None => Pipe::anonymous(model, crossing),
        };
        let (to_sentinel_tx, to_sentinel_rx) = pipe(model.clone());
        let (to_app_tx, to_app_rx) = pipe(model);
        let pool = match gauges {
            Some(g) => Arc::new(BufferPool::observed(g)),
            None => Arc::new(BufferPool::new()),
        };
        (
            PairTransport {
                commands: cmd_tx,
                replies: reply_rx,
                data_tx: Box::new(to_sentinel_tx),
                data_rx: Box::new(to_app_rx),
                crossing,
            },
            PairPort {
                commands: cmd_rx,
                replies: reply_tx,
                data_rx: Box::new(to_sentinel_rx),
                data_tx: Box::new(to_app_tx),
                pool,
            },
        )
    }

    /// Builds the §4.3 wiring: user-level control channels and one shared
    /// buffer per direction inside the process. Every transfer costs one
    /// user-level copy and the round trip two thread switches.
    pub fn shared(model: CostModel) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::shared_build(model, None)
    }

    /// Like [`PairTransport::shared`], but reports slot occupancy and pool
    /// reuse to `gauges`.
    pub fn shared_observed(
        model: CostModel,
        gauges: Arc<QueueGauges>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        PairTransport::shared_build(model, Some(gauges))
    }

    fn shared_build(
        model: CostModel,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (PairTransport<C, R>, PairPort<C, R>) {
        let crossing = CrossingKind::InterThread;
        let (cmd_tx, cmd_rx) = ControlChannel::user_level::<C>(model.clone());
        let (reply_tx, reply_rx) = ControlChannel::user_level::<R>(model.clone());
        let buffer = |model: CostModel| match &gauges {
            Some(g) => SharedBuffer::observed(model, Arc::clone(g)),
            None => SharedBuffer::new(model),
        };
        let to_sentinel = buffer(model.clone());
        let to_app = buffer(model);
        let pool = match gauges {
            Some(g) => Arc::new(BufferPool::observed(g)),
            None => Arc::new(BufferPool::new()),
        };
        (
            PairTransport {
                commands: cmd_tx,
                replies: reply_rx,
                data_tx: Box::new(to_sentinel.clone()),
                data_rx: Box::new(to_app.clone()),
                crossing,
            },
            PairPort {
                commands: cmd_rx,
                replies: reply_tx,
                data_rx: Box::new(to_sentinel),
                data_tx: Box::new(to_app),
                pool,
            },
        )
    }
}

impl<C: Send + 'static, R: Send + 'static> PairTransport<C, R> {
    /// The boundary the wiring crosses.
    pub fn crossing(&self) -> CrossingKind {
        self.crossing
    }

    /// Sends one command to the sentinel.
    pub(crate) fn send_cmd(&self, cmd: C) -> Result<()> {
        self.commands.send(cmd)
    }

    /// Receives the sentinel's next reply.
    pub(crate) fn recv_reply(&self) -> Result<R> {
        self.replies.recv()
    }

    /// Sends payload bytes to the sentinel.
    pub(crate) fn send_data(&self, data: &[u8]) -> Result<()> {
        self.data_tx.send(data)
    }

    /// Receives a reply's `n` payload bytes into `out[..n]`. When `n`
    /// exceeds `out` the bytes are drained into scratch instead, so the
    /// data lane stays aligned with the reply lane.
    pub(crate) fn recv_payload(&self, n: usize, out: &mut [u8]) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        match out.get_mut(..n) {
            Some(dest) => self.data_rx.recv_exact(dest)?,
            None => self.data_rx.recv_exact(&mut vec![0; n])?,
        };
        Ok(())
    }
}

impl<C: Send + 'static, R: Send + 'static> PairPort<C, R> {
    /// Receives the next command, blocking; fails with
    /// [`IpcError::Closed`] once the application side is gone.
    pub fn recv_cmd(&self) -> Result<C> {
        self.commands.recv()
    }

    /// Non-blocking receive with `recv_cmd`-equivalent charging: the
    /// kernel-syscall cost is paid when a command (or channel closure) is
    /// observed, never for an empty poll. This is what a poll-driven
    /// sentinel drains instead of blocking in `recv_cmd`.
    ///
    /// # Errors
    ///
    /// [`IpcError::Closed`] once the application side is gone.
    pub fn poll_cmd(&self) -> Result<Option<C>> {
        self.commands.poll_recv()
    }

    /// Installs a readiness waker on the command lane, invoked whenever a
    /// new command arrives or the application side drops its last sender.
    /// This is the hook the sentinel executor parks on: an idle sentinel
    /// is scheduled only when its transport has something to observe.
    pub fn set_wakeup(&self, waker: crate::ChannelWaker) {
        self.commands.set_waker(waker);
    }

    /// Sends a reply back to the application.
    pub fn send_reply(&self, reply: R) -> Result<()> {
        self.replies.send(reply)
    }

    /// Sends payload bytes to the application.
    pub fn send_data(&self, data: &[u8]) -> Result<()> {
        self.data_tx.send(data)
    }

    /// Receives exactly `buf.len()` payload bytes from the application.
    pub fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize> {
        self.data_rx.recv_exact(buf)
    }

    /// The scratch-buffer pool the dispatch loop stages payloads in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

/// Application side of the §4.1 wiring: two bare pipes, no control lane.
/// Reads and writes stream; there is no way to send a command, so this
/// is not a [`Transport`].
pub struct StreamTransport {
    to_sentinel: Mutex<Option<PipeWriter>>,
    from_sentinel: Mutex<Option<PipeReader>>,
}

impl StreamTransport {
    /// Builds the wiring, returning the transport plus the sentinel's
    /// `stdin` reader and `stdout` writer (the two anonymous pipes of
    /// Figure 2).
    pub fn new(model: CostModel) -> (StreamTransport, PipeReader, PipeWriter) {
        StreamTransport::build(model, None)
    }

    /// Like [`StreamTransport::new`], but reports pipe depth to `gauges`.
    pub fn new_observed(
        model: CostModel,
        gauges: Arc<QueueGauges>,
    ) -> (StreamTransport, PipeReader, PipeWriter) {
        StreamTransport::build(model, Some(gauges))
    }

    fn build(
        model: CostModel,
        gauges: Option<Arc<QueueGauges>>,
    ) -> (StreamTransport, PipeReader, PipeWriter) {
        let crossing = CrossingKind::InterProcess;
        let pipe = |model: CostModel| match &gauges {
            Some(g) => Pipe::anonymous_observed(model, crossing, Arc::clone(g)),
            None => Pipe::anonymous(model, crossing),
        };
        let (app_write, sentinel_stdin) = pipe(model.clone());
        let (sentinel_stdout, app_read) = pipe(model);
        (
            StreamTransport {
                to_sentinel: Mutex::new(Some(app_write)),
                from_sentinel: Mutex::new(Some(app_read)),
            },
            sentinel_stdin,
            sentinel_stdout,
        )
    }

    /// Streams `data` into the sentinel's stdin.
    pub fn send(&self, data: &[u8]) -> Result<()> {
        let guard = self.to_sentinel.lock();
        guard.as_ref().ok_or(IpcError::Closed)?.write(data)
    }

    /// Receives up to `buf.len()` bytes from the sentinel's stdout (0
    /// means end-of-stream).
    pub fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        let guard = self.from_sentinel.lock();
        guard.as_ref().ok_or(IpcError::Closed)?.read(buf)
    }

    /// Closes both pipes. Dropping the write end delivers EOF to the
    /// sentinel's stdin, and dropping the read end breaks any pump
    /// blocked on a full read pipe ("the CloseHandle call just shuts down
    /// the created pipes", Appendix A.2).
    pub fn shutdown(&self) {
        self.to_sentinel.lock().take();
        self.from_sentinel.lock().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pair_round_trips_commands_and_data() {
        let (app, port) = PairTransport::<u8, u8>::shared(CostModel::free());
        app.send_cmd(1).expect("cmd");
        assert_eq!(port.recv_cmd().expect("recv cmd"), 1);
        app.send_data(b"x").expect("data");
        let mut buf = [0u8; 1];
        port.recv_data_exact(&mut buf).expect("recv");
        assert_eq!(&buf, b"x");
        assert_eq!(app.crossing(), CrossingKind::InterThread);
    }

    #[test]
    fn shared_buffer_recv_exact_assembles_multiple_messages() {
        // Regression: the old implementation returned after one message,
        // silently leaving the buffer tail unfilled.
        let buffer = SharedBuffer::new(CostModel::free());
        let producer = buffer.clone();
        let t = std::thread::spawn(move || {
            producer.send(b"0123").expect("first");
            producer.send(b"456789").expect("second");
        });
        let mut buf = [0u8; 10];
        let n = DataRx::recv_exact(&buffer, &mut buf).expect("recv_exact");
        t.join().expect("join");
        assert_eq!(n, 10);
        assert_eq!(&buf, b"0123456789");
    }

    #[test]
    fn shared_buffer_recv_exact_rejects_overlong_message() {
        let buffer = SharedBuffer::new(CostModel::free());
        buffer.send(b"0123456789").expect("send");
        let mut buf = [0u8; 4];
        assert_eq!(
            DataRx::recv_exact(&buffer, &mut buf),
            Err(IpcError::BrokenPipe)
        );
    }

    #[test]
    fn stream_transport_has_no_control_lane() {
        // Only bytes stream; with no command lane the type offers no way
        // to send a command at all.
        let (app, stdin, stdout) = StreamTransport::new(CostModel::free());
        app.send(b"in").expect("send");
        let mut buf = [0u8; 2];
        stdin.read_exact(&mut buf).expect("sentinel read");
        assert_eq!(&buf, b"in");
        stdout.write(b"ou").expect("sentinel write");
        app.recv(&mut buf).expect("recv");
        assert_eq!(&buf, b"ou");
        app.shutdown();
        assert_eq!(app.send(b"x"), Err(IpcError::Closed));
        assert_eq!(stdin.read(&mut buf).expect("eof"), 0);
    }
}
