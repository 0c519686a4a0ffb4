//! Session multiplexing: many opens, one transport, one sentinel.
//!
//! The paper's §2.2 rule — one sentinel per open — costs N threads, N
//! transports, and N incoherent caches for N concurrent opens of the same
//! active file. A [`MuxHub`] shares one underlying control-capable
//! [`PairTransport`] among many *sessions*: each command and reply travels
//! as a [`Framed`] value carrying its session id, the hub demultiplexes
//! replies into per-session mailboxes, and back-to-back contiguous writes
//! from one session are *coalesced* into a single staged batch that
//! crosses the protection boundary once instead of once per write. A
//! private open is a hub with exactly one session, so this is the one
//! application-side wire of every unbatched §4.2/§4.3 open.
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
//! which command is the terminal close, when two payload-carrying
//! commands form one contiguous transfer, and what per-session record a
//! session's first frame carries to the sentinel.
//!
//! A session dropped without its close detaches: the hub flushes every
//! staged write to the sentinel before the session leaves, so a write it
//! acknowledged is never lost with the session. Its id is then free, and
//! the next attach takes the lowest free id.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use afs_sim::{clock, Cost, CostModel, CrossingKind, SimTime};
use afs_telemetry::SessionGauges;

use crate::pool::BufferPool;
use crate::{handoff, IpcError, PairPort, PairTransport, Result, Transport};

/// Writes staged per session before a forced flush; bounds both memory
/// and the latency outlier of the flush-carrying operation.
pub const STAGE_CAPACITY: usize = 64 * 1024;

/// A command or reply framed with the session it belongs to. A command
/// frame's `record` is its session's record on the session's first frame
/// and `None` after; a reply frame's is `()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed<T, S = ()> {
    /// The session the body belongs to.
    pub session: u32,
    /// The framed command or reply.
    pub body: T,
    /// The sending session's record, on its first command frame.
    pub record: S,
}

/// The wire-shape facts of a command protocol: what a [`Transport`]
/// needs to route reply bytes, and what the hub needs to frame sessions
/// and synthesise local close acks. The protocol types themselves live
/// above this crate (the core crate's `Op`/`OpReply`).
pub trait MuxProtocol: Send + Sync + 'static {
    /// Command type carried app → sentinel.
    type Cmd: Send + 'static;
    /// Reply type carried sentinel → app.
    type Reply: Send + 'static;
    /// The per-session state the sentinel serves a session's commands
    /// under. A session's first frame carries it, and the sentinel keeps
    /// it under the session's id until a later session with that id
    /// announces its own. An id is freed only once every frame of its
    /// session is on the wire, so the record the sentinel holds for an
    /// id is always the sending session's.
    type Record: Send + 'static;

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

/// A command frame of protocol `P`.
pub type CmdFrame<P> = Framed<<P as MuxProtocol>::Cmd, Option<<P as MuxProtocol>::Record>>;

/// A reply frame of protocol `P`.
pub type ReplyFrame<P> = Framed<<P as MuxProtocol>::Reply>;

/// The wire a hub multiplexes: a pair wiring carrying framed commands
/// and replies.
pub type MuxWire<P> = PairTransport<CmdFrame<P>, ReplyFrame<P>>;

/// The sentinel side of a [`MuxWire`].
pub type MuxPort<P> = PairPort<CmdFrame<P>, ReplyFrame<P>>;

/// One session's staged, not-yet-transmitted contiguous write batch.
struct WriteStage<C> {
    cmd: C,
    buf: Vec<u8>,
}

/// One session id's send-side state.
struct SendSlot<P: MuxProtocol> {
    /// Attached and not yet closed.
    live: bool,
    /// The session's record, until its first frame carries it.
    unsent: Option<P::Record>,
    stage: Option<WriteStage<P::Cmd>>,
}

/// Send-side state, guarded by one lock so a command frame and its
/// payload bytes reach the underlying lanes back to back.
struct SendState<P: MuxProtocol> {
    /// Indexed by session id.
    slots: Vec<SendSlot<P>>,
    /// Live sessions.
    live: usize,
    /// The terminal close went out (or the wire died): no more sends.
    closed: bool,
}

/// A demultiplexed reply parked for its session: the reply frame plus
/// whatever payload bytes rode the data lane with it.
type Mailbox<R> = VecDeque<(R, Vec<u8>)>;

/// The application-side multiplexer: owns the single underlying
/// transport and hands out per-session [`MuxSession`] transports.
pub struct MuxHub<P: MuxProtocol> {
    under: MuxWire<P>,
    model: CostModel,
    pool: BufferPool,
    send: Mutex<SendState<P>>,
    /// Demultiplexed replies, one mailbox per session id; `None` marks an
    /// id no session holds.
    mailboxes: Mutex<Vec<Option<Mailbox<P::Reply>>>>,
    recv_ready: Condvar,
    /// A session is pulling from the underlying wire; the others wait on
    /// `recv_ready` instead of contending.
    pulling: AtomicBool,
    /// The wire failed mid-reply: every later receive fails.
    dead: AtomicBool,
    /// Replies parked in mailboxes. While it is 0 a puller needs no lock.
    parked: AtomicUsize,
    /// Sessions parked on `recv_ready`. A notify costs a wake syscall
    /// even with nobody to wake, so it is sent only when this is nonzero.
    waiting: AtomicUsize,
    /// `None` for a private open, which is not an attach.
    gauges: Option<Arc<SessionGauges>>,
    /// Reaps the sentinel — waiting on an executor task's completion —
    /// and returns its final virtual time; the session that transmits
    /// the terminal close runs it and folds that time in.
    reaper: Mutex<Option<SentinelReaper>>,
}

/// Deferred reap of whatever executes the shared sentinel: blocks until
/// the sentinel has fully terminated and yields its final virtual time.
pub type SentinelReaper = Box<dyn FnOnce() -> SimTime + Send>;

impl<P: MuxProtocol> MuxHub<P> {
    /// Wraps `under`, charging crossings and staging copies to `model`;
    /// the terminal close runs `reaper`.
    pub fn new(
        under: MuxWire<P>,
        model: CostModel,
        gauges: Option<Arc<SessionGauges>>,
        reaper: SentinelReaper,
    ) -> Arc<Self> {
        Arc::new(MuxHub {
            under,
            model,
            pool: BufferPool::new(),
            send: Mutex::new(SendState {
                slots: Vec::new(),
                live: 0,
                closed: false,
            }),
            mailboxes: Mutex::new(Vec::new()),
            recv_ready: Condvar::new(),
            pulling: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            gauges,
            reaper: Mutex::new(Some(reaper)),
        })
    }

    /// Attaches a new session under the lowest free id, its first frame
    /// carrying `record(id)`; `None` once the hub has closed (the caller
    /// then spawns a fresh sentinel instead).
    pub fn attach(
        self: &Arc<Self>,
        record: impl FnOnce(u32) -> P::Record,
    ) -> Option<MuxSession<P>> {
        let mut s = self.send.lock();
        if s.closed {
            return None;
        }
        let id = {
            let mut mailboxes = self.mailboxes.lock();
            let free = mailboxes.iter().position(Option::is_none);
            let free = free.unwrap_or_else(|| {
                mailboxes.push(None);
                mailboxes.len() - 1
            });
            mailboxes[free] = Some(VecDeque::new());
            free as u32
        };
        let slot = SendSlot {
            live: true,
            unsent: Some(record(id)),
            stage: None,
        };
        match s.slots.get_mut(id as usize) {
            Some(free) => *free = slot,
            None => s.slots.push(slot),
        }
        s.live += 1;
        if let Some(g) = &self.gauges {
            g.attached(s.live as u64);
        }
        drop(s);
        Some(MuxSession {
            hub: Arc::clone(self),
            id,
            closing: AtomicBool::new(false),
        })
    }

    /// Session ids currently attached, lowest first.
    pub fn live_sessions(&self) -> Vec<u32> {
        let s = self.send.lock();
        (0..s.slots.len() as u32)
            .filter(|&id| s.slots[id as usize].live)
            .collect()
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
    fn transmit_locked(
        &self,
        s: &mut SendState<P>,
        session: u32,
        cmd: P::Cmd,
        payload: &[u8],
    ) -> Result<()> {
        let crossing = self.under.crossing();
        for _ in 0..crossing.round_trip_switches() {
            self.model.charge(Cost::Crossing(crossing));
        }
        self.under.send_cmd(Framed {
            session,
            body: cmd,
            record: s.slots[session as usize].unsent.take(),
        })?;
        if !payload.is_empty() {
            self.under.send_data(payload)?;
        }
        Ok(())
    }

    /// Transmits one session's staged batch.
    fn transmit_stage(
        &self,
        s: &mut SendState<P>,
        session: u32,
        stage: WriteStage<P::Cmd>,
    ) -> Result<()> {
        let result = self.transmit_locked(s, session, stage.cmd, &stage.buf);
        self.pool.put(stage.buf);
        result?;
        if let Some(g) = &self.gauges {
            g.flushed_batch();
        }
        Ok(())
    }

    /// Flushes every session's staged batch, lowest session id first (a
    /// deterministic order; concurrent sessions have no defined mutual
    /// order anyway). Any operation that the sentinel must observe
    /// *after* earlier writes — a read, a size query, a close — forces
    /// this, preserving cross-session read-your-writes.
    fn flush_stages_locked(&self, s: &mut SendState<P>) -> Result<()> {
        for id in 0..s.slots.len() {
            if let Some(stage) = s.slots[id].stage.take() {
                self.transmit_stage(s, id as u32, stage)?;
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
        self.transmit_locked(&mut s, session, cmd, &[])
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
        if s.live <= 1 {
            self.flush_stages_locked(&mut s)?;
            return self.transmit_locked(&mut s, session, cmd, data);
        }
        let slot = session as usize;
        if let Some(stage) = s.slots[slot].stage.as_mut() {
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
            let stage = s.slots[slot].stage.take().expect("stage");
            self.transmit_stage(&mut s, session, stage)?;
        }
        let mut buf = self.pool.take_capacity(data.len().min(STAGE_CAPACITY));
        buf.extend_from_slice(data);
        self.model.charge(Cost::Memcpy { bytes: data.len() });
        s.slots[slot].stage = Some(WriteStage { cmd, buf });
        Ok(())
    }

    /// Flushes every stage, then removes `session` from the live set.
    fn leave_locked(&self, s: &mut SendState<P>, session: u32) -> Result<()> {
        self.flush_stages_locked(s)?;
        s.slots[session as usize].live = false;
        s.live -= 1;
        if let Some(g) = &self.gauges {
            g.detached();
        }
        Ok(())
    }

    /// Detaches `session` with close command `cmd`. A non-final close is
    /// acknowledged locally — the shared sentinel must keep running; the
    /// final close flushes, transmits, and marks the hub closed.
    fn send_close(&self, session: &MuxSession<P>, cmd: P::Cmd) -> Result<()> {
        let mut s = self.send.lock();
        if s.closed {
            return Err(IpcError::BrokenPipe);
        }
        self.leave_locked(&mut s, session.id)?;
        if s.live == 0 {
            s.closed = true;
            session.closing.store(true, Ordering::SeqCst);
            if let Some(g) = &self.gauges {
                g.terminal_close();
            }
            self.transmit_locked(&mut s, session.id, cmd, &[])
        } else {
            drop(s);
            self.deposit(session.id, P::close_ack(), Vec::new());
            Ok(())
        }
    }

    /// Detaches a session dropped without its close, and frees its id.
    /// Its staged writes (and every other session's) go to the sentinel
    /// first: they were acknowledged, so they must not vanish with the
    /// session.
    fn detach(&self, session: u32) {
        let mut s = self.send.lock();
        if !s.closed && s.slots[session as usize].live {
            let _ = self.leave_locked(&mut s, session);
        }
        s.slots[session as usize].unsent = None;
        drop(s);
        if let Some(mailbox) = self.mailboxes.lock()[session as usize].take() {
            for (_, buf) in mailbox {
                self.parked.fetch_sub(1, Ordering::SeqCst);
                self.pool.put(buf);
            }
        }
    }

    /// Parks `reply` and its bytes in `session`'s mailbox (dropping them
    /// if the session is gone).
    fn deposit(&self, session: u32, reply: P::Reply, buf: Vec<u8>) {
        let mut mailboxes = self.mailboxes.lock();
        match mailboxes.get_mut(session as usize).and_then(Option::as_mut) {
            Some(mailbox) => {
                mailbox.push_back((reply, buf));
                self.parked.fetch_add(1, Ordering::SeqCst);
            }
            None => self.pool.put(buf),
        }
    }

    /// Takes `session`'s next parked reply, if any, its bytes landing in
    /// `out`.
    fn take_parked(&self, session: u32, out: &mut [u8]) -> Option<P::Reply> {
        let (reply, buf) = self.mailboxes.lock()[session as usize]
            .as_mut()?
            .pop_front()?;
        self.parked.fetch_sub(1, Ordering::SeqCst);
        if let Some(dest) = out.get_mut(..buf.len()).filter(|d| !d.is_empty()) {
            dest.copy_from_slice(&buf);
            // The wire transfer was charged when a peer pulled this reply
            // on our behalf; the copy out of its staging buffer is an
            // extra user-level copy the demultiplexer really performs, so
            // it is charged too.
            self.model.charge(Cost::Memcpy { bytes: buf.len() });
        }
        self.pool.put(buf);
        Some(reply)
    }

    /// Lets go of the wire, waking the sessions parked on it.
    fn release_wire(&self) {
        self.pulling.store(false, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) > 0 {
            let _mailboxes = self.mailboxes.lock();
            self.recv_ready.notify_all();
        }
    }

    /// Waits — spinning first, then parked — until no session owns the
    /// wire.
    fn await_wire(&self) {
        let idle = || !self.pulling.load(Ordering::SeqCst);
        if handoff::spin_until(idle) {
            return;
        }
        let mut mailboxes = self.mailboxes.lock();
        // Counted before the flag is re-read, so a release either sees
        // this waiter or is seen by it.
        self.waiting.fetch_add(1, Ordering::SeqCst);
        while !idle() {
            self.recv_ready.wait(&mut mailboxes);
        }
        self.waiting.fetch_sub(1, Ordering::SeqCst);
    }

    /// Returns the next reply for `session`, its payload bytes landing in
    /// `out`, demultiplexing on behalf of every waiter: whoever finds the
    /// wire idle pulls the next framed reply. A reply for *another*
    /// session has its payload drained into a staged buffer immediately
    /// (the data lane must stay aligned with the reply lane) and is
    /// deposited in that session's mailbox; the puller's *own* payload
    /// drains straight from the data lane into `out` with no staging
    /// copy, which keeps the uncontended profile identical to a private
    /// transport. While no reply is parked, a pull takes no lock at all.
    /// A reply announcing more bytes than `out` holds is returned without
    /// its bytes, for the caller to reject.
    fn recv_for(&self, session: u32, out: &mut [u8]) -> Result<P::Reply> {
        loop {
            if self.parked.load(Ordering::SeqCst) > 0 {
                if let Some(reply) = self.take_parked(session, out) {
                    return Ok(reply);
                }
            }
            if self
                .pulling
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                self.await_wire();
                continue;
            }
            let pulled = self.pull(session, out);
            self.release_wire();
            if let Some(result) = pulled {
                return result;
            }
        }
    }

    /// With the wire held: `session`'s reply, or `None` once another
    /// session's reply has been pulled and parked instead.
    fn pull(&self, session: u32, out: &mut [u8]) -> Option<Result<P::Reply>> {
        // Pullers park replies before they let go of the wire, so once we
        // hold it every reply parked for us is visible.
        if self.parked.load(Ordering::SeqCst) > 0 {
            if let Some(reply) = self.take_parked(session, out) {
                return Some(Ok(reply));
            }
        }
        if self.dead.load(Ordering::SeqCst) {
            return Some(Err(IpcError::BrokenPipe));
        }
        let pulled = self.under.recv_reply().and_then(|frame| {
            let n = P::reply_payload_len(&frame.body);
            if frame.session == session {
                self.under.recv_payload(n, out)?;
                return Ok(Pulled::Own(frame.body));
            }
            let mut buf = self.pool.take(n);
            self.under.recv_payload(n, &mut buf)?;
            Ok(Pulled::Other(frame.session, frame.body, buf))
        });
        match pulled {
            Ok(Pulled::Own(reply)) => Some(Ok(reply)),
            Ok(Pulled::Other(id, reply, buf)) => {
                self.deposit(id, reply, buf);
                None
            }
            Err(_) => {
                self.dead.store(true, Ordering::SeqCst);
                Some(Err(IpcError::BrokenPipe))
            }
        }
    }
}

/// A reply pulled off the wire: the puller's own (its bytes already in
/// the caller's buffer), or another session's with its staged bytes.
enum Pulled<R> {
    Own(R),
    Other(u32, R, Vec<u8>),
}

/// One session's view of a [`MuxHub`]: a complete [`Transport`],
/// indistinguishable in use from a private wiring. Dropping it without a
/// close detaches it (see [`MuxHub`]).
pub struct MuxSession<P: MuxProtocol> {
    hub: Arc<MuxHub<P>>,
    id: u32,
    /// This session transmitted the terminal close; its acknowledgement
    /// reaps the sentinel.
    closing: AtomicBool,
}

impl<P: MuxProtocol> MuxSession<P> {
    /// This session's id on the hub.
    pub fn session_id(&self) -> u32 {
        self.id
    }
}

impl<P: MuxProtocol> Transport<P> for MuxSession<P> {
    fn crossing(&self) -> CrossingKind {
        self.hub.under.crossing()
    }

    fn charges_own_crossings(&self) -> bool {
        true
    }

    fn post(&self, cmd: P::Cmd, payload: &[u8]) -> Result<()> {
        if P::cmd_payload_len(&cmd) == 0 {
            // Nothing to stage (a zero-length write): a plain frame.
            return self.hub.send_plain(self.id, cmd);
        }
        self.hub.send_payload(self.id, cmd, payload)
    }

    fn call(&self, cmd: P::Cmd, out: &mut [u8]) -> Result<P::Reply> {
        if P::is_close(&cmd) {
            self.hub.send_close(self, cmd)?;
        } else {
            self.hub.send_plain(self.id, cmd)?;
        }
        let reply = self.hub.recv_for(self.id, out);
        if self.closing.load(Ordering::SeqCst) {
            // Terminal close acknowledged (or wire gone): fold the
            // sentinel's final virtual time into this thread.
            self.hub.reap();
        }
        reply
    }
}

impl<P: MuxProtocol> Drop for MuxSession<P> {
    fn drop(&mut self) {
        self.hub.detach(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        type Record = u32;

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

    type ToyHub = Arc<MuxHub<Toy>>;
    type ToyPort = MuxPort<Toy>;

    fn hub_over(wire: (MuxWire<Toy>, ToyPort), model: CostModel) -> (ToyHub, ToyPort) {
        let (transport, port) = wire;
        (MuxHub::new(transport, model, None, Box::new(|| 0)), port)
    }

    fn hub() -> (ToyHub, ToyPort) {
        hub_over(PairTransport::shared(CostModel::free()), CostModel::free())
    }

    /// Attaches a session whose record is its id plus 100.
    fn attach(hub: &ToyHub) -> MuxSession<Toy> {
        hub.attach(|id| id + 100).expect("attach")
    }

    fn reply(session: u32, n: u32) -> ReplyFrame<Toy> {
        Framed {
            session,
            body: ToyReply { n },
            record: (),
        }
    }

    fn write(offset: u64, len: u32) -> ToyCmd {
        ToyCmd {
            tag: 1,
            offset,
            len,
        }
    }

    fn op(tag: u8) -> ToyCmd {
        ToyCmd {
            tag,
            offset: 0,
            len: 0,
        }
    }

    /// Queues the sentinel's reply to `session` ahead of the call that
    /// waits for it.
    fn reply_to(port: &ToyPort, session: u32) {
        port.send_reply(reply(session, 0)).expect("reply");
    }

    #[test]
    fn frames_carry_session_ids_and_replies_demultiplex() {
        let (hub, port) = hub();
        let a = attach(&hub);
        let b = attach(&hub);
        let (id_a, id_b) = (a.session_id(), b.session_id());
        // The data lane is a rendezvous (one-slot / bounded), so the
        // sentinel side runs on its own thread, like the real loop.
        let sentinel = std::thread::spawn(move || {
            let fa = port.recv_cmd().expect("frame a");
            assert_eq!(fa.session, id_a);
            // Reply out of request order: b's reply goes out before b
            // has even asked, and before a's.
            port.send_reply(reply(id_b, 4)).expect("reply b");
            port.send_data(b"BBBB").expect("data b");
            port.send_reply(reply(fa.session, 4)).expect("reply a");
            port.send_data(b"AAAA").expect("data a");
            let fb = port.recv_cmd().expect("frame b");
            assert_eq!(fb.session, id_b);
        });
        let mut buf = [0u8; 4];
        // a pulls b's frame on the way to its own; b's lands in b's box.
        let read = |offset| ToyCmd {
            tag: 2,
            offset,
            len: 4,
        };
        assert_eq!(a.call(read(0), &mut buf).expect("a"), ToyReply { n: 4 });
        assert_eq!(&buf, b"AAAA");
        assert_eq!(b.call(read(8), &mut buf).expect("b"), ToyReply { n: 4 });
        assert_eq!(&buf, b"BBBB");
        sentinel.join().expect("sentinel thread");
    }

    #[test]
    fn contiguous_writes_coalesce_into_one_frame_under_contention() {
        let (hub, port) = hub();
        let a = attach(&hub);
        let _b = attach(&hub); // second session switches staging on
        for i in 0..4u64 {
            a.post(write(i * 4, 4), b"wxyz").expect("write");
        }
        // Nothing on the wire yet: all four writes sit in one stage.
        assert_eq!(port.poll_cmd().expect("empty"), None);
        // A read forces the flush: the batch frame precedes the read.
        reply_to(&port, a.session_id());
        a.call(op(2), &mut []).expect("read");
        let flush = port.recv_cmd().expect("flush frame");
        assert_eq!(flush.body, write(0, 16));
        let mut payload = vec![0u8; 16];
        port.recv_data_exact(&mut payload).expect("batch payload");
        assert_eq!(&payload, b"wxyzwxyzwxyzwxyz");
        assert_eq!(port.recv_cmd().expect("read frame").body.tag, 2);
    }

    #[test]
    fn single_session_writes_go_straight_to_the_wire() {
        let (hub, port) = hub();
        let a = attach(&hub);
        a.post(write(0, 3), b"abc").expect("write");
        let frame = port.recv_cmd().expect("frame");
        assert_eq!(frame.body.len, 3);
        let mut buf = [0u8; 3];
        port.recv_data_exact(&mut buf).expect("payload");
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn only_the_last_close_reaches_the_wire() {
        let (hub, port) = hub();
        let a = attach(&hub);
        let b = attach(&hub);
        // a's close is acknowledged locally, nothing on the wire.
        assert_eq!(
            a.call(op(9), &mut []).expect("local ack"),
            ToyReply { n: 0 }
        );
        assert_eq!(port.poll_cmd().expect("empty"), None);
        assert_eq!(hub.live_sessions(), vec![b.session_id()]);
        reply_to(&port, b.session_id());
        b.call(op(9), &mut []).expect("b close");
        assert_eq!(port.recv_cmd().expect("wire close").body.tag, 9);
        assert!(hub.is_closed());
        assert!(
            hub.attach(|id| id).is_none(),
            "closed hub refuses new sessions"
        );
    }

    #[test]
    fn crossings_are_charged_per_frame_not_per_write() {
        let model = CostModel::new(afs_sim::HardwareProfile::pentium_ii_300());
        let (hub, port) = hub_over(PairTransport::shared(model.clone()), model.clone());
        let a = attach(&hub);
        let _b = attach(&hub);
        let before = model.snapshot();
        for i in 0..8u64 {
            a.post(write(i * 2, 2), b"hi").expect("write");
        }
        let staged = model.snapshot().since(&before);
        assert_eq!(staged.thread_switches, 0, "coalesced writes cross nothing");
        reply_to(&port, a.session_id());
        a.call(op(3), &mut []).expect("sync op");
        let flushed = model.snapshot().since(&before);
        // One batch frame + one sync frame: two round trips total.
        assert_eq!(flushed.thread_switches, 4);
    }

    #[test]
    fn non_contiguous_writes_flush_the_stage() {
        let (hub, port) = hub();
        let a = attach(&hub);
        let _b = attach(&hub);
        a.post(write(0, 2), b"aa").expect("write");
        a.post(write(100, 2), b"bb").expect("write");
        // The non-contiguous second write pushed the first out.
        let frame = port.recv_cmd().expect("flushed first write");
        assert_eq!(frame.body.offset, 0);
        let mut buf = [0u8; 2];
        port.recv_data_exact(&mut buf).expect("payload");
        assert_eq!(&buf, b"aa");
        assert_eq!(port.poll_cmd().expect("second still staged"), None);
    }

    #[test]
    fn a_dropped_session_delivers_its_staged_writes() {
        let (hub, port) = hub();
        let a = attach(&hub);
        let b = attach(&hub);
        a.post(write(0, 2), b"aa").expect("write");
        assert_eq!(port.poll_cmd().expect("staged"), None);
        drop(a);
        let frame = port.recv_cmd().expect("flushed on drop");
        assert_eq!(frame.body, write(0, 2));
        let mut buf = [0u8; 2];
        port.recv_data_exact(&mut buf).expect("payload");
        assert_eq!(&buf, b"aa");
        assert_eq!(hub.live_sessions(), vec![b.session_id()]);
    }

    #[test]
    fn a_freed_id_goes_to_the_next_attach() {
        let (hub, port) = hub();
        let a = attach(&hub);
        let b = attach(&hub);
        let freed = a.session_id();
        drop(a);
        let c = attach(&hub);
        assert_eq!(c.session_id(), freed, "the lowest free id is reused");
        assert_ne!(c.session_id(), b.session_id());
        assert_eq!(hub.live_sessions(), vec![freed, b.session_id()]);
        // The new holder of the id announces its own record on its first
        // frame, and only there.
        for record in [Some(freed + 100), None] {
            c.post(write(0, 0), &[]).expect("empty write");
            let frame = port.recv_cmd().expect("frame");
            assert_eq!((frame.session, frame.record), (freed, record));
        }
    }

    #[test]
    fn a_lone_session_drains_an_oversized_reply_and_stays_framed() {
        let (hub, port) = hub_over(PairTransport::kernel(CostModel::free()), CostModel::free());
        let a = attach(&hub);
        port.send_reply(reply(a.session_id(), 6))
            .expect("oversized reply");
        port.send_data(b"excess").expect("excess bytes");
        port.send_reply(reply(a.session_id(), 2))
            .expect("next reply");
        port.send_data(b"ok").expect("next bytes");
        let mut out = [0u8; 2];
        // The reply is returned for the caller to reject; its bytes are
        // gone from the lane, so the next call reads its own.
        assert_eq!(a.call(op(2), &mut out), Ok(ToyReply { n: 6 }));
        assert_eq!(a.call(op(2), &mut out), Ok(ToyReply { n: 2 }));
        assert_eq!(&out, b"ok");
    }

    #[test]
    fn a_lone_kernel_session_round_trips_commands_and_data() {
        let (hub, port) = hub_over(PairTransport::kernel(CostModel::free()), CostModel::free());
        let a = attach(&hub);
        a.post(write(0, 4), b"down").expect("post");
        let frame = port.recv_cmd().expect("recv cmd");
        assert_eq!((frame.session, frame.body), (a.session_id(), write(0, 4)));
        assert_eq!(frame.record, Some(a.session_id() + 100), "first frame");
        let mut buf = [0u8; 4];
        port.recv_data_exact(&mut buf).expect("port recv");
        assert_eq!(&buf, b"down");
        port.send_reply(reply(a.session_id(), 4)).expect("reply");
        port.send_data(b"up!!").expect("data up");
        let mut out = [0u8; 8];
        assert_eq!(a.call(op(7), &mut out), Ok(ToyReply { n: 4 }));
        assert_eq!(&out[..4], b"up!!");
        let frame = port.recv_cmd().expect("called cmd");
        assert_eq!((frame.body, frame.record), (op(7), None));
        assert_eq!(a.crossing(), CrossingKind::InterProcess);
    }
}
