//! Shared-sentinel session multiplexing for the wire strategies.
//!
//! The paper's §2.2 prescribes one sentinel per open. For N concurrent
//! opens of the *same* active file that costs N sentinel threads, N
//! transports, and N incoherent caches. This module keeps the paper's
//! per-open handle semantics while sharing the machinery: the first open
//! spawns the sentinel; later opens *attach* as new sessions on the same
//! [`MuxHub`], each with a private file pointer, private sticky
//! write-behind error, and private telemetry scope.
//!
//! Division of labour:
//!
//! * [`OpMux`] teaches the protocol-agnostic hub the wire shape of
//!   [`Op`]/[`OpReply`] — which commands carry payload, which replies do,
//!   which command is the terminal close, and when two writes are
//!   contiguous (the hub coalesces those into one crossing).
//! * [`MuxLoop`] is the sentinel side's wire: it drains framed commands,
//!   serves writes immediately at drain time (write-behind — wire order is
//!   the only cross-session order there is), and queues reply-bearing
//!   operations per session, servicing the sessions round-robin so one
//!   chatty client cannot starve the rest. What each command means is
//!   [`SentinelCore::serve`]'s, shared with every other dispatch path.
//! * [`SharedSentinel`] is what the open path's registry stores: later
//!   opens call [`SharedSentinel::attach`] to join; `None` means the
//!   sentinel already ran its terminal close and a fresh one is needed.

use std::collections::{HashMap, VecDeque};

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{Framed, MuxHub, MuxProtocol, PairPort, PairTransport};
use afs_sim::{CostModel, OpTrace};
use afs_telemetry::{intern, Telemetry};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::spec::Strategy;
use crate::strategy::executor::{SentinelPoll, TaskDone, TaskPoll};
use crate::strategy::handle::StrategyHandle;
use crate::strategy::{
    send_reply, to_win32, ActiveOps, Instruments, Op, OpReply, SentinelCore, Served, Session,
};

/// The wire-shape facts [`MuxHub`] needs about the [`Op`]/[`OpReply`]
/// protocol.
pub(crate) struct OpMux;

impl MuxProtocol for OpMux {
    type Cmd = Op;
    type Reply = OpReply;

    fn cmd_payload_len(cmd: &Op) -> usize {
        match cmd {
            Op::Write { len, .. } => *len as usize,
            _ => 0,
        }
    }

    fn reply_payload_len(reply: &OpReply) -> usize {
        match reply {
            OpReply::Read { n } => *n as usize,
            _ => 0,
        }
    }

    fn is_close(cmd: &Op) -> bool {
        matches!(cmd, Op::Close)
    }

    fn close_ack() -> OpReply {
        OpReply::Done
    }

    fn coalesce(acc: &Op, next: &Op) -> Option<Op> {
        match (acc, next) {
            (
                Op::Write {
                    offset: o1,
                    len: l1,
                },
                Op::Write {
                    offset: o2,
                    len: l2,
                },
            ) if o1 + u64::from(*l1) == *o2 => Some(Op::Write {
                offset: *o1,
                len: l1 + l2,
            }),
            _ => None,
        }
    }
}

type Wire = PairTransport<Framed<Op>, Framed<OpReply>>;
type WirePort = PairPort<Framed<Op>, Framed<OpReply>>;
type OpHub = MuxHub<OpMux>;

/// Each session's sentinel-side state, registered at attach so the
/// dispatch loop can park write-behind failures and parent spans
/// correctly.
type SessionTable = Arc<Mutex<HashMap<u32, Arc<Session>>>>;

/// A running sentinel that later opens of the same `(path, spec)` can
/// join as additional sessions.
pub(crate) trait SharedSentinel: Send + Sync {
    /// Attaches a new session, or `None` once the sentinel has terminally
    /// closed (the caller then spawns a fresh one).
    fn attach(&self) -> Option<Arc<dyn ActiveOps>>;
    /// Live session count, for diagnostics (`afsh sessions`).
    fn session_count(&self) -> usize;
    /// The completion cell of the sentinel's executor task, when it runs
    /// on one: a terminal close returns before the task has finished its
    /// close hook, so a reopen waits on this before building a successor.
    fn task_done(&self) -> Option<Arc<TaskDone>>;
}

/// The shared form of the §4.2/§4.3 wire strategies: one sentinel task,
/// one transport, many sessions multiplexed over it.
pub(crate) struct MuxShared {
    hub: Arc<OpHub>,
    sessions: SessionTable,
    model: CostModel,
    trace: Arc<OpTrace>,
    strategy: &'static str,
    /// Interned data-part path, for the per-session span note.
    file: &'static str,
    instr: Instruments,
    done: Arc<TaskDone>,
}

impl SharedSentinel for MuxShared {
    fn attach(&self) -> Option<Arc<dyn ActiveOps>> {
        let wire = self.hub.attach()?;
        let (mut session, scope) = self.instr.session(self.strategy);
        // Every sentinel-side span of this session carries the owning
        // session id and file, so slow-op ancestry and trace dumps name
        // which of the multiplexed clients an op belongs to.
        let note = intern(&format!("session={} file={}", wire.session_id(), self.file));
        session.side = session.side.with_note(note);
        let sticky = Arc::clone(&session.sticky);
        {
            // Sessions that closed non-terminally never reach the
            // dispatch loop, so their records are pruned here instead.
            let live = self.hub.live_sessions();
            let mut table = self.sessions.lock();
            table.retain(|id, _| live.contains(id));
            table.insert(wire.session_id(), Arc::new(session));
        }
        Some(Arc::new(StrategyHandle::new(
            wire,
            self.model.clone(),
            Arc::clone(&self.trace),
            self.strategy,
            sticky,
            // The hub reaps the sentinel when the terminal close is
            // acknowledged; the handle has nothing to join.
            None,
            self.instr.app_side(scope),
        )))
    }

    fn session_count(&self) -> usize {
        self.hub.live_sessions().len()
    }

    fn task_done(&self) -> Option<Arc<TaskDone>> {
        Some(Arc::clone(&self.done))
    }
}

/// Builds the shared sentinel for a wire strategy (§4.2 kernel pipes or
/// §4.3 shared memory): runs the open hook once, registers the mux
/// dispatch state machine on the sentinel executor, and returns the
/// [`SharedSentinel`] later opens attach through.
pub(crate) fn open_shared(
    strategy: Strategy,
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
) -> Result<Arc<MuxShared>, Win32Error> {
    let (label, kernel) = match strategy {
        Strategy::ProcessControl => ("Process", true),
        Strategy::DllThread => ("Thread", false),
        // §4.1 has no command lane to frame; §4.4 shares inline (dll.rs).
        Strategy::Process | Strategy::DllOnly => return Err(Win32Error::NotSupported),
    };
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let file = intern(&ctx.path().file_path().to_string());
    let (transport, port) = if kernel {
        Wire::kernel_observed(model.clone(), Arc::clone(instr.tel.gauges()))
    } else {
        Wire::shared_observed(model.clone(), Arc::clone(instr.tel.gauges()))
    };
    let hub = MuxHub::new(
        transport,
        model.clone(),
        Some(Arc::clone(instr.tel.sessions())),
    );
    let sessions: SessionTable = Arc::new(Mutex::new(HashMap::new()));
    let state = MuxLoop {
        core: SentinelCore::new(logic, ctx, Arc::clone(port.pool())),
        port,
        sessions: Arc::clone(&sessions),
        // Frames from sessions that detached before their staged writes
        // drained still execute, observed under this fallback session.
        fallback: instr.session(label).0,
        tel: Arc::clone(&instr.tel),
        queues: HashMap::new(),
        rotation: VecDeque::new(),
    };
    let done = instr.spawn_task(move |waker| {
        state.port.set_wakeup(waker);
        Box::new(state)
    });
    // The hub reaps by waiting on the executor's completion cell, the
    // task-world stand-in for joining a dedicated sentinel thread.
    let reaped = Arc::clone(&done);
    hub.set_reaper(Box::new(move || reaped.wait()));
    Ok(Arc::new(MuxShared {
        hub,
        sessions,
        model,
        trace,
        strategy: label,
        file,
        instr,
        done,
    }))
}

/// One dispatch step's outcome.
enum Step {
    /// Keep going.
    Continue,
    /// The application side vanished mid-protocol.
    WireDead,
    /// The terminal close was served; the loop is done.
    Closed,
}

/// The sentinel side of the multiplexed wire: one poll-driven state
/// machine (scheduled on the sentinel executor) serving every session of
/// one shared sentinel.
struct MuxLoop {
    core: SentinelCore,
    port: WirePort,
    sessions: SessionTable,
    fallback: Session,
    tel: Arc<Telemetry>,
    /// Reply-bearing operations awaiting service, per session.
    queues: HashMap<u32, VecDeque<Op>>,
    /// Round-robin order over sessions with a non-empty queue (each
    /// session appears at most once).
    rotation: VecDeque<u32>,
}

impl MuxLoop {
    /// Serves `op` for `session` (the fallback when it has detached).
    fn serve(&mut self, session: u32, op: Op, payload: &[u8]) -> Served {
        let record = self.sessions.lock().get(&session).cloned();
        let session = record.as_deref().unwrap_or(&self.fallback);
        self.core.serve(session, op, payload)
    }

    /// Takes one frame off the wire. Writes are served immediately — they
    /// are acknowledged eagerly on the application side, and executing in
    /// wire order is what makes a flushed batch land before the read that
    /// forced the flush. Everything that owes a reply queues for fair
    /// servicing instead.
    fn ingest(&mut self, frame: Framed<Op>) -> Step {
        let Framed { session, body: op } = frame;
        if let Op::Write { len, .. } = op {
            let mut buf = self.core.pool().take(len as usize);
            if len > 0 && self.port.recv_data_exact(&mut buf).is_err() {
                self.core.pool().put(buf);
                return Step::WireDead;
            }
            self.serve(session, op, &buf);
            self.core.pool().put(buf);
            return Step::Continue;
        }
        let queue = self.queues.entry(session).or_default();
        if queue.is_empty() {
            self.rotation.push_back(session);
        }
        queue.push_back(op);
        Step::Continue
    }

    /// Serves one queued reply-bearing operation for `session` and sends
    /// its reply.
    fn service(&mut self, session: u32, op: Op) -> Step {
        let closing = matches!(op, Op::Close);
        let Some((body, data)) = self.serve(session, op, &[]) else {
            return Step::Continue;
        };
        let reply = Framed { session, body };
        if send_reply(&self.port, self.core.pool(), reply, data).is_err() {
            return Step::WireDead;
        }
        if closing {
            Step::Closed
        } else {
            Step::Continue
        }
    }
}

impl SentinelPoll for MuxLoop {
    /// One executor quantum: the blocking `recv_cmd` of the old dedicated
    /// thread becomes `poll_cmd` — same syscall charge when a frame (or
    /// the closure) is observed, no charge and `Pending` when the lane is
    /// merely empty — so the mux's virtual timeline is unchanged.
    fn poll(&mut self) -> TaskPoll {
        loop {
            // Nothing queued: look for the next frame, parking if the
            // wire is quiet.
            if self.rotation.is_empty() {
                match self.port.poll_cmd() {
                    Ok(Some(frame)) => {
                        if matches!(self.ingest(frame), Step::WireDead) {
                            self.core.abandon();
                            return TaskPoll::Ready;
                        }
                    }
                    Ok(None) => return TaskPoll::Pending,
                    Err(_) => {
                        self.core.abandon();
                        return TaskPoll::Ready;
                    }
                }
            }
            // Fairness needs the whole backlog, not wire arrival order:
            // drain everything already waiting before picking a session.
            let mut dead = false;
            loop {
                match self.port.try_recv_cmd() {
                    Ok(Some(frame)) => {
                        if matches!(self.ingest(frame), Step::WireDead) {
                            dead = true;
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                self.core.abandon();
                return TaskPoll::Ready;
            }
            let depth: usize = self.queues.values().map(VecDeque::len).sum();
            self.tel.sessions().note_queue_depth(depth as u64);
            self.fallback.side.stats().note_queue_depth(depth as u64);
            let Some(session) = self.rotation.pop_front() else {
                continue;
            };
            let Some(op) = self.queues.get_mut(&session).and_then(VecDeque::pop_front) else {
                continue;
            };
            if self.queues.get(&session).is_some_and(|q| !q.is_empty()) {
                self.rotation.push_back(session);
            }
            match self.service(session, op) {
                Step::Continue => {}
                Step::WireDead => {
                    self.core.abandon();
                    return TaskPoll::Ready;
                }
                // The terminal close already ran the close hook; no
                // epilogue.
                Step::Closed => return TaskPoll::Ready,
            }
        }
    }

    fn abandon(&mut self) {
        self.core.abandon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mux_payload_lens_match_the_protocol() {
        assert_eq!(OpMux::cmd_payload_len(&Op::Write { offset: 0, len: 7 }), 7);
        assert_eq!(OpMux::cmd_payload_len(&Op::Read { offset: 0, len: 7 }), 0);
        assert_eq!(
            OpMux::cmd_payload_len(&Op::Control {
                code: 1,
                payload: vec![1, 2, 3],
            }),
            0,
            "control payloads ride the command itself, not the data lane"
        );
        assert_eq!(OpMux::reply_payload_len(&OpReply::Read { n: 9 }), 9);
        assert_eq!(OpMux::reply_payload_len(&OpReply::Done), 0);
        assert_eq!(
            OpMux::reply_payload_len(&OpReply::Control {
                payload: vec![1, 2],
            }),
            0
        );
        assert!(OpMux::is_close(&Op::Close));
        assert!(!OpMux::is_close(&Op::Flush));
        assert_eq!(OpMux::close_ack(), OpReply::Done);
    }

    #[test]
    fn only_adjacent_writes_coalesce() {
        let merged = OpMux::coalesce(
            &Op::Write { offset: 10, len: 4 },
            &Op::Write { offset: 14, len: 2 },
        );
        assert_eq!(merged, Some(Op::Write { offset: 10, len: 6 }));
        assert_eq!(
            OpMux::coalesce(
                &Op::Write { offset: 10, len: 4 },
                &Op::Write { offset: 15, len: 2 },
            ),
            None,
            "a gap breaks contiguity"
        );
        assert_eq!(
            OpMux::coalesce(&Op::Write { offset: 0, len: 4 }, &Op::GetSize),
            None
        );
    }
}
