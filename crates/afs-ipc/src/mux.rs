//! Session multiplexing: many opens, one transport, one sentinel.
//!
//! The paper's §2.2 rule — one sentinel per open — costs N threads, N
//! transports, and N incoherent caches for N concurrent opens of the same
//! active file. A [`MuxHub`] shares one underlying control-capable
//! [`Transport`] among many *sessions*: each command and reply travels as
//! a [`Framed`] value carrying its session id, the hub demultiplexes
//! replies into per-session mailboxes, and back-to-back contiguous writes
//! from one session are *coalesced* into a single staged batch that
//! crosses the protection boundary once instead of once per write.
//!
//! Cost accounting stays honest: the hub charges the two crossing
//! switches per *transmitted frame* (so a coalesced write charges only
//! the user-level copy into its staging buffer), and every staging copy
//! is charged as a [`Cost::Memcpy`]. Because of that, transports handed
//! out by the hub report [`Transport::charges_own_crossings`], and the
//! strategy handle above must not add its own per-op round-trip charge.
//!
//! The hub is protocol-agnostic: a [`MuxProtocol`] implementation tells
//! it how many payload bytes follow a command or reply on the data lane,
//! which command is the terminal close, and when two payload-carrying
//! commands form one contiguous transfer.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use afs_sim::{clock, Cost, CostModel, CrossingKind, SimTime};
use afs_telemetry::SessionGauges;

use crate::pool::BufferPool;
use crate::{handoff, IpcError, Result, Transport};

/// Writes staged per session before a forced flush; bounds both memory
/// and the latency outlier of the flush-carrying operation.
pub const STAGE_CAPACITY: usize = 64 * 1024;

/// A command or reply framed with the session it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed<T> {
    /// The session the body belongs to.
    pub session: u32,
    /// The framed command or reply.
    pub body: T,
}

/// What the hub must know about the protocol it frames. The protocol
/// types themselves live above this crate (the core crate's `Op`/
/// `OpReply`); this trait carries just the wire-shape facts the hub
/// needs to route payload bytes and synthesise local close acks.
pub trait MuxProtocol: Send + Sync + 'static {
    /// Command type carried app → sentinel.
    type Cmd: Send + 'static;
    /// Reply type carried sentinel → app.
    type Reply: Send + 'static;

    /// Payload bytes that follow `cmd` on the data lane (a write's data).
    fn cmd_payload_len(cmd: &Self::Cmd) -> usize;

    /// Payload bytes that follow `reply` on the data lane (a read's data).
    fn reply_payload_len(reply: &Self::Reply) -> usize;

    /// Whether `cmd` is the terminal close. Only the last live session's
    /// close reaches the wire; earlier ones are acknowledged locally.
    fn is_close(cmd: &Self::Cmd) -> bool;

    /// The locally synthesised acknowledgement for a non-final close.
    fn close_ack() -> Self::Reply;

    /// Merges `next` into `acc` when the two commands form one contiguous
    /// payload transfer (adjacent writes); `None` when they do not.
    fn coalesce(acc: &Self::Cmd, next: &Self::Cmd) -> Option<Self::Cmd>;
}

/// One session's staged, not-yet-transmitted contiguous write batch.
struct WriteStage<C> {
    cmd: C,
    buf: Vec<u8>,
}

/// Send-side state, guarded by one lock so a command frame and its
/// payload bytes reach the underlying lanes back to back.
struct SendState<P: MuxProtocol> {
    stages: HashMap<u32, WriteStage<P::Cmd>>,
    live: Vec<u32>,
    /// The terminal close went out (or the wire died): no more sends.
    closed: bool,
}

/// A demultiplexed reply parked for its session: the reply frame plus
/// whatever payload bytes rode the data lane with it.
type Mailbox<R> = VecDeque<(R, Vec<u8>)>;

/// Receive-side state: demultiplexed replies waiting for their session.
struct RecvState<P: MuxProtocol> {
    mailboxes: HashMap<u32, Mailbox<P::Reply>>,
    /// Some session thread is blocked pulling from the underlying wire;
    /// everyone else waits on the condvar instead of contending.
    pulling: bool,
    dead: bool,
}

/// The application-side multiplexer: owns the single underlying
/// transport and hands out per-session [`MuxSession`] transports.
pub struct MuxHub<P, T>
where
    P: MuxProtocol,
    T: Transport<Cmd = Framed<P::Cmd>, Reply = Framed<P::Reply>>,
{
    under: T,
    model: CostModel,
    pool: BufferPool,
    send: Mutex<SendState<P>>,
    recv: Mutex<RecvState<P>>,
    recv_ready: Condvar,
    next_session: AtomicU32,
    gauges: Option<Arc<SessionGauges>>,
    /// Reaps the shared sentinel — joining a dedicated thread or waiting
    /// on an executor task's completion — and returns its final virtual
    /// time; the session that transmits the terminal close runs it and
    /// folds that time in.
    reaper: Mutex<Option<SentinelReaper>>,
}

/// Deferred reap of whatever executes the shared sentinel: blocks until
/// the sentinel has fully terminated and yields its final virtual time.
pub type SentinelReaper = Box<dyn FnOnce() -> SimTime + Send>;

impl<P, T> MuxHub<P, T>
where
    P: MuxProtocol,
    T: Transport<Cmd = Framed<P::Cmd>, Reply = Framed<P::Reply>>,
{
    /// Wraps `under`, charging crossings and staging copies to `model`.
    pub fn new(under: T, model: CostModel, gauges: Option<Arc<SessionGauges>>) -> Arc<Self> {
        Arc::new(MuxHub {
            under,
            model,
            pool: BufferPool::new(),
            send: Mutex::new(SendState {
                stages: HashMap::new(),
                live: Vec::new(),
                closed: false,
            }),
            recv: Mutex::new(RecvState {
                mailboxes: HashMap::new(),
                pulling: false,
                dead: false,
            }),
            recv_ready: Condvar::new(),
            next_session: AtomicU32::new(1),
            gauges,
            reaper: Mutex::new(None),
        })
    }

    /// Registers the reaper the terminal close will run.
    pub fn set_reaper(&self, reaper: SentinelReaper) {
        *self.reaper.lock() = Some(reaper);
    }

    /// Attaches a new session, or `None` once the hub has closed (the
    /// caller then spawns a fresh sentinel instead).
    pub fn attach(self: &Arc<Self>) -> Option<MuxSession<P, T>> {
        let id = {
            let mut s = self.send.lock();
            if s.closed {
                return None;
            }
            let id = self.next_session.fetch_add(1, Ordering::Relaxed);
            s.live.push(id);
            if let Some(g) = &self.gauges {
                g.attached(s.live.len() as u64);
            }
            id
        };
        self.recv.lock().mailboxes.insert(id, VecDeque::new());
        Some(MuxSession {
            hub: Arc::clone(self),
            id,
            pending: Mutex::new(None),
            inbound: Mutex::new(Inbound {
                buf: Vec::new(),
                pos: 0,
                direct: 0,
            }),
            closing: AtomicBool::new(false),
        })
    }

    /// Session ids currently attached.
    pub fn live_sessions(&self) -> Vec<u32> {
        self.send.lock().live.clone()
    }

    /// Whether the terminal close has gone out.
    pub fn is_closed(&self) -> bool {
        self.send.lock().closed
    }

    /// Runs the reaper and synchronises to the sentinel's final virtual
    /// time, exactly like a private handle's reap on close.
    fn reap(&self) {
        if let Some(reaper) = self.reaper.lock().take() {
            clock::sync_to(reaper());
        }
    }

    /// Charges the round trip and puts one frame (plus payload) on the
    /// wire. Must run under the send lock so the command and its payload
    /// stay adjacent on the data lane.
    fn transmit_locked(&self, session: u32, cmd: P::Cmd, payload: &[u8]) -> Result<()> {
        let crossing = self.under.crossing();
        for _ in 0..crossing.round_trip_switches() {
            self.model.charge(Cost::Crossing(crossing));
        }
        self.under.send_cmd(Framed { session, body: cmd })?;
        if !payload.is_empty() {
            self.under.send_data(payload)?;
        }
        Ok(())
    }

    /// Flushes every session's staged batch, lowest session id first (a
    /// deterministic order; concurrent sessions have no defined mutual
    /// order anyway). Any operation that the sentinel must observe
    /// *after* earlier writes — a read, a size query, a close — forces
    /// this, preserving cross-session read-your-writes.
    fn flush_stages_locked(&self, s: &mut SendState<P>) -> Result<()> {
        let mut ids: Vec<u32> = s.stages.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let stage = s.stages.remove(&id).expect("staged id");
            let result = self.transmit_locked(id, stage.cmd, &stage.buf);
            self.pool.put(stage.buf);
            result?;
            if let Some(g) = &self.gauges {
                g.flushed_batch();
            }
        }
        Ok(())
    }

    /// Sends a command that carries no payload and is not a close.
    fn send_plain(&self, session: u32, cmd: P::Cmd) -> Result<()> {
        let mut s = self.send.lock();
        if s.closed {
            return Err(IpcError::BrokenPipe);
        }
        self.flush_stages_locked(&mut s)?;
        self.transmit_locked(session, cmd, &[])
    }

    /// Sends (or stages) a payload-carrying command. With a single live
    /// session the frame goes straight to the wire — the paper-exact
    /// per-op profile; with contention it is staged and adjacent
    /// contiguous writes coalesce into one crossing.
    fn send_payload(&self, session: u32, cmd: P::Cmd, data: &[u8]) -> Result<()> {
        let mut s = self.send.lock();
        if s.closed {
            return Err(IpcError::BrokenPipe);
        }
        if s.live.len() <= 1 {
            self.flush_stages_locked(&mut s)?;
            return self.transmit_locked(session, cmd, data);
        }
        if let Some(stage) = s.stages.get_mut(&session) {
            if stage.buf.len() + data.len() <= STAGE_CAPACITY {
                if let Some(merged) = P::coalesce(&stage.cmd, &cmd) {
                    stage.cmd = merged;
                    stage.buf.extend_from_slice(data);
                    self.model.charge(Cost::Memcpy { bytes: data.len() });
                    if let Some(g) = &self.gauges {
                        g.coalesced_write();
                    }
                    return Ok(());
                }
            }
            // Full or non-contiguous: the old batch goes out first.
            let stage = s.stages.remove(&session).expect("stage");
            let result = self.transmit_locked(session, stage.cmd, &stage.buf);
            self.pool.put(stage.buf);
            result?;
            if let Some(g) = &self.gauges {
                g.flushed_batch();
            }
        }
        let mut buf = self.pool.take_capacity(data.len().min(STAGE_CAPACITY));
        buf.extend_from_slice(data);
        self.model.charge(Cost::Memcpy { bytes: data.len() });
        s.stages.insert(session, WriteStage { cmd, buf });
        Ok(())
    }

    /// Detaches `session` with close command `cmd`. A non-final close is
    /// acknowledged locally — the shared sentinel must keep running; the
    /// final close flushes, transmits, and marks the hub closed.
    fn send_close(&self, session: u32, cmd: P::Cmd, closing: &AtomicBool) -> Result<()> {
        let mut s = self.send.lock();
        if s.closed {
            return Err(IpcError::BrokenPipe);
        }
        self.flush_stages_locked(&mut s)?;
        s.live.retain(|&id| id != session);
        if let Some(g) = &self.gauges {
            g.detached();
        }
        if s.live.is_empty() {
            s.closed = true;
            closing.store(true, Ordering::SeqCst);
            if let Some(g) = &self.gauges {
                g.terminal_close();
            }
            self.transmit_locked(session, cmd, &[])
        } else {
            drop(s);
            let mut rs = self.recv.lock();
            if let Some(mailbox) = rs.mailboxes.get_mut(&session) {
                mailbox.push_back((P::close_ack(), Vec::new()));
            }
            self.recv_ready.notify_all();
            Ok(())
        }
    }

    /// Returns the next reply for `session`, demultiplexing on behalf of
    /// every waiter: whoever finds the wire idle pulls the next framed
    /// reply. A reply for *another* session has its payload drained into
    /// a staged buffer immediately (the data lane must stay aligned with
    /// the reply lane) and is deposited in that session's mailbox; the
    /// puller's *own* reply is returned [`Pulled::Direct`] instead — the
    /// data lane is handed to the caller, who drains the payload straight
    /// into its destination buffer with no staging copy, which keeps the
    /// uncontended profile identical to a private transport.
    fn recv_for(&self, session: u32) -> Result<Pulled<P::Reply>> {
        let mut rs = self.recv.lock();
        loop {
            match rs.mailboxes.get_mut(&session) {
                Some(mailbox) => {
                    if let Some((reply, buf)) = mailbox.pop_front() {
                        return Ok(Pulled::Staged(reply, buf));
                    }
                }
                None => return Err(IpcError::BrokenPipe),
            }
            if rs.dead {
                return Err(IpcError::BrokenPipe);
            }
            if rs.pulling {
                // Another waiter owns the wire: spin for its demux to
                // finish (or to deliver our reply) before parking.
                let settled = |rs: &RecvState<P>| {
                    !rs.pulling
                        || rs.dead
                        || rs.mailboxes.get(&session).is_none_or(|m| !m.is_empty())
                };
                drop(rs);
                rs = handoff::lock_when(&self.recv, settled);
                if !settled(&rs) {
                    self.recv_ready.wait(&mut rs);
                }
                continue;
            }
            rs.pulling = true;
            drop(rs);
            let frame = match self.under.recv_reply() {
                Ok(frame) => frame,
                Err(_) => {
                    rs = self.recv.lock();
                    rs.pulling = false;
                    rs.dead = true;
                    self.recv_ready.notify_all();
                    return Err(IpcError::BrokenPipe);
                }
            };
            let n = P::reply_payload_len(&frame.body);
            if frame.session == session {
                if n == 0 {
                    rs = self.recv.lock();
                    rs.pulling = false;
                    self.recv_ready.notify_all();
                    drop(rs);
                }
                // With payload pending, `pulling` stays set: the data
                // lane belongs to this session until it drains the
                // bytes (see `finish_direct`).
                return Ok(Pulled::Direct(frame.body, n));
            }
            let pulled = (|| {
                let mut buf = self.pool.take(n);
                if n > 0 {
                    self.under.recv_data_exact(&mut buf)?;
                }
                Ok::<_, IpcError>(buf)
            })();
            rs = self.recv.lock();
            rs.pulling = false;
            match pulled {
                Ok(buf) => {
                    if let Some(mailbox) = rs.mailboxes.get_mut(&frame.session) {
                        mailbox.push_back((frame.body, buf));
                    }
                }
                Err(_) => rs.dead = true,
            }
            self.recv_ready.notify_all();
        }
    }

    /// Releases the wire after a [`Pulled::Direct`] payload is drained
    /// (or failed to drain, in which case the wire is dead).
    fn finish_direct(&self, ok: bool) {
        let mut rs = self.recv.lock();
        rs.pulling = false;
        if !ok {
            rs.dead = true;
        }
        self.recv_ready.notify_all();
    }
}

/// How a reply reached the session: staged by a demultiplexing peer, or
/// pulled directly off the wire by the session itself (`usize` payload
/// bytes still on the data lane, owed to the caller).
enum Pulled<R> {
    Staged(R, Vec<u8>),
    Direct(R, usize),
}

/// Staged inbound payload for one session's `recv_data_exact` calls.
struct Inbound {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes of a directly-pulled reply still sitting on the underlying
    /// data lane, owned by this session until drained.
    direct: usize,
}

/// One session's view of a [`MuxHub`]: a complete control-capable
/// [`Transport`], indistinguishable in use from a private wiring.
pub struct MuxSession<P, T>
where
    P: MuxProtocol,
    T: Transport<Cmd = Framed<P::Cmd>, Reply = Framed<P::Reply>>,
{
    hub: Arc<MuxHub<P, T>>,
    id: u32,
    /// A payload-carrying command parked until its bytes arrive via
    /// `send_data`, so frame and payload hit the wire adjacently.
    pending: Mutex<Option<P::Cmd>>,
    inbound: Mutex<Inbound>,
    /// This session transmitted the terminal close; its acknowledgement
    /// reaps the sentinel thread.
    closing: AtomicBool,
}

impl<P, T> MuxSession<P, T>
where
    P: MuxProtocol,
    T: Transport<Cmd = Framed<P::Cmd>, Reply = Framed<P::Reply>>,
{
    /// This session's id on the hub.
    pub fn session_id(&self) -> u32 {
        self.id
    }

    /// The hub this session rides on.
    pub fn hub(&self) -> &Arc<MuxHub<P, T>> {
        &self.hub
    }
}

impl<P, T> Transport for MuxSession<P, T>
where
    P: MuxProtocol,
    T: Transport<Cmd = Framed<P::Cmd>, Reply = Framed<P::Reply>>,
{
    type Cmd = P::Cmd;
    type Reply = P::Reply;

    fn crossing(&self) -> CrossingKind {
        self.hub.under.crossing()
    }

    fn supports_control(&self) -> bool {
        true
    }

    fn charges_own_crossings(&self) -> bool {
        true
    }

    fn send_cmd(&self, cmd: P::Cmd) -> Result<()> {
        if P::cmd_payload_len(&cmd) > 0 {
            *self.pending.lock() = Some(cmd);
            return Ok(());
        }
        if P::is_close(&cmd) {
            return self.hub.send_close(self.id, cmd, &self.closing);
        }
        self.hub.send_plain(self.id, cmd)
    }

    fn recv_reply(&self) -> Result<P::Reply> {
        let result = self.hub.recv_for(self.id).map(|pulled| {
            let mut inbound = self.inbound.lock();
            match pulled {
                Pulled::Staged(reply, payload) => {
                    let drained = std::mem::replace(&mut inbound.buf, payload);
                    inbound.pos = 0;
                    inbound.direct = 0;
                    self.hub.pool.put(drained);
                    reply
                }
                Pulled::Direct(reply, pending) => {
                    let drained = std::mem::take(&mut inbound.buf);
                    inbound.pos = 0;
                    inbound.direct = pending;
                    self.hub.pool.put(drained);
                    reply
                }
            }
        });
        if self.closing.load(Ordering::SeqCst) {
            // Terminal close acknowledged (or wire gone): fold the
            // sentinel's final virtual time into this thread.
            self.hub.reap();
        }
        result
    }

    fn send_data(&self, data: &[u8]) -> Result<()> {
        let cmd = self.pending.lock().take().ok_or(IpcError::Unsupported)?;
        self.hub.send_payload(self.id, cmd, data)
    }

    fn recv_data(&self, buf: &mut [u8]) -> Result<usize> {
        self.recv_data_exact(buf)
    }

    fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize> {
        let mut inbound = self.inbound.lock();
        if inbound.direct > 0 {
            // This session pulled its own reply: the payload is still on
            // the underlying data lane and goes straight into `buf` — no
            // staging copy, exactly the private-transport profile.
            if buf.len() > inbound.direct {
                drop(inbound);
                self.hub.finish_direct(false);
                return Err(IpcError::BrokenPipe);
            }
            let pulled = self.hub.under.recv_data_exact(buf);
            inbound.direct -= buf.len();
            let done = inbound.direct == 0;
            drop(inbound);
            if pulled.is_err() {
                self.hub.finish_direct(false);
                return Err(IpcError::BrokenPipe);
            }
            if done {
                self.hub.finish_direct(true);
            }
            return Ok(buf.len());
        }
        let available = inbound.buf.len() - inbound.pos;
        if available < buf.len() {
            return Err(IpcError::BrokenPipe);
        }
        let start = inbound.pos;
        buf.copy_from_slice(&inbound.buf[start..start + buf.len()]);
        inbound.pos += buf.len();
        // The wire transfer was charged when a peer pulled this reply on
        // our behalf; the copy out of its staging buffer is an extra
        // user-level copy the demultiplexer really performs, so it is
        // charged too.
        self.hub.model.charge(Cost::Memcpy { bytes: buf.len() });
        Ok(buf.len())
    }

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairTransport;

    /// A toy protocol: `(tag, offset, len)` commands where tag 1 writes
    /// `len` payload bytes, tag 2 reads, tag 9 closes; replies `(n,)`
    /// carry `n` payload bytes.
    struct Toy;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct ToyCmd {
        tag: u8,
        offset: u64,
        len: u32,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct ToyReply {
        n: u32,
    }

    impl MuxProtocol for Toy {
        type Cmd = ToyCmd;
        type Reply = ToyReply;

        fn cmd_payload_len(cmd: &ToyCmd) -> usize {
            if cmd.tag == 1 {
                cmd.len as usize
            } else {
                0
            }
        }

        fn reply_payload_len(reply: &ToyReply) -> usize {
            reply.n as usize
        }

        fn is_close(cmd: &ToyCmd) -> bool {
            cmd.tag == 9
        }

        fn close_ack() -> ToyReply {
            ToyReply { n: 0 }
        }

        fn coalesce(acc: &ToyCmd, next: &ToyCmd) -> Option<ToyCmd> {
            if acc.tag == 1 && next.tag == 1 && acc.offset + acc.len as u64 == next.offset {
                return Some(ToyCmd {
                    tag: 1,
                    offset: acc.offset,
                    len: acc.len + next.len,
                });
            }
            None
        }
    }

    type ToyHub = Arc<MuxHub<Toy, PairTransport<Framed<ToyCmd>, Framed<ToyReply>>>>;

    fn hub() -> (ToyHub, crate::PairPort<Framed<ToyCmd>, Framed<ToyReply>>) {
        let (transport, port) = PairTransport::shared(CostModel::free());
        (MuxHub::new(transport, CostModel::free(), None), port)
    }

    #[test]
    fn frames_carry_session_ids_and_replies_demultiplex() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        let b = hub.attach().expect("b");
        a.send_cmd(ToyCmd {
            tag: 2,
            offset: 0,
            len: 4,
        })
        .expect("a read");
        b.send_cmd(ToyCmd {
            tag: 2,
            offset: 8,
            len: 4,
        })
        .expect("b read");
        let (id_a, id_b) = (a.session_id(), b.session_id());
        // The data lane is a rendezvous (one-slot / bounded), so the
        // sentinel side runs on its own thread, like the real loop.
        let sentinel = std::thread::spawn(move || {
            let fa = port.recv_cmd().expect("frame a");
            let fb = port.recv_cmd().expect("frame b");
            assert_eq!(fa.session, id_a);
            assert_eq!(fb.session, id_b);
            // Reply out of request order: b first.
            port.send_reply(Framed {
                session: fb.session,
                body: ToyReply { n: 4 },
            })
            .expect("reply b");
            port.send_data(b"BBBB").expect("data b");
            port.send_reply(Framed {
                session: fa.session,
                body: ToyReply { n: 4 },
            })
            .expect("reply a");
            port.send_data(b"AAAA").expect("data a");
        });
        // a pulls b's frame on the way to its own; b's lands in b's box.
        assert_eq!(a.recv_reply().expect("a reply"), ToyReply { n: 4 });
        let mut buf = [0u8; 4];
        a.recv_data_exact(&mut buf).expect("a data");
        assert_eq!(&buf, b"AAAA");
        assert_eq!(b.recv_reply().expect("b reply"), ToyReply { n: 4 });
        b.recv_data_exact(&mut buf).expect("b data");
        assert_eq!(&buf, b"BBBB");
        sentinel.join().expect("sentinel thread");
    }

    #[test]
    fn contiguous_writes_coalesce_into_one_frame_under_contention() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        let _b = hub.attach().expect("b"); // second session switches staging on
        for i in 0..4u64 {
            a.send_cmd(ToyCmd {
                tag: 1,
                offset: i * 4,
                len: 4,
            })
            .expect("cmd");
            a.send_data(b"wxyz").expect("payload");
        }
        // Nothing on the wire yet: all four writes sit in one stage.
        assert_eq!(port.try_recv_cmd().expect("empty"), None);
        // A read forces the flush: the batch frame precedes the read.
        a.send_cmd(ToyCmd {
            tag: 2,
            offset: 0,
            len: 1,
        })
        .expect("read");
        let flush = port.recv_cmd().expect("flush frame");
        assert_eq!(
            flush.body,
            ToyCmd {
                tag: 1,
                offset: 0,
                len: 16
            }
        );
        let mut payload = vec![0u8; 16];
        port.recv_data_exact(&mut payload).expect("batch payload");
        assert_eq!(&payload, b"wxyzwxyzwxyzwxyz");
        assert_eq!(port.recv_cmd().expect("read frame").body.tag, 2);
    }

    #[test]
    fn single_session_writes_go_straight_to_the_wire() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        a.send_cmd(ToyCmd {
            tag: 1,
            offset: 0,
            len: 3,
        })
        .expect("cmd");
        a.send_data(b"abc").expect("payload");
        let frame = port.recv_cmd().expect("frame");
        assert_eq!(frame.body.len, 3);
        let mut buf = [0u8; 3];
        port.recv_data_exact(&mut buf).expect("payload");
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn only_the_last_close_reaches_the_wire() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        let b = hub.attach().expect("b");
        a.send_cmd(ToyCmd {
            tag: 9,
            offset: 0,
            len: 0,
        })
        .expect("a close");
        // a's close was acknowledged locally, nothing on the wire.
        assert_eq!(a.recv_reply().expect("local ack"), ToyReply { n: 0 });
        assert_eq!(port.try_recv_cmd().expect("empty"), None);
        assert_eq!(hub.live_sessions(), vec![b.session_id()]);
        b.send_cmd(ToyCmd {
            tag: 9,
            offset: 0,
            len: 0,
        })
        .expect("b close");
        assert_eq!(port.recv_cmd().expect("wire close").body.tag, 9);
        assert!(hub.is_closed());
        assert!(hub.attach().is_none(), "closed hub refuses new sessions");
    }

    #[test]
    fn crossings_are_charged_per_frame_not_per_write() {
        let model = CostModel::new(afs_sim::HardwareProfile::pentium_ii_300());
        let (transport, port) =
            PairTransport::<Framed<ToyCmd>, Framed<ToyReply>>::shared(model.clone());
        let hub: ToyHub = MuxHub::new(transport, model.clone(), None);
        let a = hub.attach().expect("a");
        let _b = hub.attach().expect("b");
        let before = model.snapshot();
        for i in 0..8u64 {
            a.send_cmd(ToyCmd {
                tag: 1,
                offset: i * 2,
                len: 2,
            })
            .expect("cmd");
            a.send_data(b"hi").expect("payload");
        }
        let staged = model.snapshot().since(&before);
        assert_eq!(staged.thread_switches, 0, "coalesced writes cross nothing");
        a.send_cmd(ToyCmd {
            tag: 3,
            offset: 0,
            len: 0,
        })
        .expect("sync op");
        let flushed = model.snapshot().since(&before);
        // One batch frame + one sync frame: two round trips total.
        assert_eq!(flushed.thread_switches, 4);
        drop(port);
    }

    #[test]
    fn non_contiguous_writes_flush_the_stage() {
        let (hub, port) = hub();
        let a = hub.attach().expect("a");
        let _b = hub.attach().expect("b");
        a.send_cmd(ToyCmd {
            tag: 1,
            offset: 0,
            len: 2,
        })
        .expect("cmd");
        a.send_data(b"aa").expect("payload");
        a.send_cmd(ToyCmd {
            tag: 1,
            offset: 100,
            len: 2,
        })
        .expect("cmd");
        a.send_data(b"bb").expect("payload");
        // The non-contiguous second write pushed the first out.
        let frame = port.recv_cmd().expect("flushed first write");
        assert_eq!(frame.body.offset, 0);
        let mut buf = [0u8; 2];
        port.recv_data_exact(&mut buf).expect("payload");
        assert_eq!(&buf, b"aa");
        assert_eq!(port.try_recv_cmd().expect("second still staged"), None);
    }
}
