//! Session multiplexing: the one wire loop of every unbatched §4.2/§4.3
//! open.
//!
//! The paper's §2.2 prescribes one sentinel per open. For N concurrent
//! opens of the *same* active file that costs N sentinel threads, N
//! transports, and N incoherent caches. This module keeps the paper's
//! per-open handle semantics while sharing the machinery: the first open
//! spawns the sentinel; later opens *attach* as new sessions on the same
//! [`MuxHub`], each with a private file pointer, private sticky
//! write-behind error, and private telemetry scope. A private
//! (`share=off`) open is a sentinel with exactly one session, built
//! without session gauges so it never counts as an attach.
//!
//! Division of labour:
//!
//! * [`OpMux`] teaches the protocol-agnostic hub the wire shape of
//!   [`Op`]/[`OpReply`] — which commands carry payload, which replies do,
//!   which command is the terminal close, when two writes are contiguous
//!   (the hub coalesces those into one crossing), and that a session's
//!   first frame carries its [`Session`] record.
//! * [`MuxLoop`] is the sentinel side's wire: it drains framed commands,
//!   serves writes immediately at drain time (write-behind — wire order is
//!   the only cross-session order there is), and serves reply-bearing
//!   operations in arrival order. Each session has at most one of those
//!   in flight (its handle serialises calls), so arrival order is fair.
//!   What each command means is [`SentinelCore::serve`]'s, shared with
//!   every other dispatch path.
//! * [`SharedSentinel`] is what the open path's registry stores: later
//!   opens call [`SharedSentinel::attach`] to join; `None` means the
//!   sentinel already ran its terminal close and a fresh one is needed.

use std::collections::VecDeque;
use std::sync::Arc;

use afs_ipc::{CmdFrame, Framed, MuxHub, MuxPort, MuxProtocol, MuxWire};
use afs_sim::{CostModel, OpTrace};
use afs_telemetry::{intern, SessionGauges};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::spec::Strategy;
use crate::strategy::executor::{SentinelPoll, TaskDone, TaskPoll};
use crate::strategy::fence::PendingWrites;
use crate::strategy::handle::StrategyHandle;
use crate::strategy::{
    send_reply, to_win32, ActiveOps, Instruments, Op, OpReply, SentinelCore, Session,
};

/// The wire-shape facts [`MuxHub`] needs about the [`Op`]/[`OpReply`]
/// protocol.
pub(crate) struct OpMux;

impl MuxProtocol for OpMux {
    type Cmd = Op;
    type Reply = OpReply;
    type Record = Box<Session>;

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

type OpHub = MuxHub<OpMux>;

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

/// A §4.2/§4.3 wire sentinel: one sentinel task, one transport, one or
/// more sessions multiplexed over it.
pub(crate) struct MuxShared {
    hub: Arc<OpHub>,
    model: CostModel,
    trace: Arc<OpTrace>,
    strategy: &'static str,
    /// The data-part path for the per-session span note of a shared
    /// sentinel; `None` for a private open, whose spans carry no note.
    file: Option<String>,
    instr: Instruments,
    done: Arc<TaskDone>,
}

impl SharedSentinel for MuxShared {
    fn attach(&self) -> Option<Arc<dyn ActiveOps>> {
        let (mut session, scope) = self.instr.session(self.strategy);
        let sticky = Arc::clone(&session.sticky);
        let wire = self.hub.attach(|id| {
            // Every sentinel-side span of a shared session carries the
            // owning session id and file, so slow-op ancestry and trace
            // dumps name which of the multiplexed clients an op belongs
            // to. Ids are reused, so the notes stay few.
            if let Some(file) = self.file.as_ref().filter(|_| self.instr.tel.enabled()) {
                let note = intern(&format!("session={id} file={file}"));
                session.side = session.side.with_note(note);
            }
            Box::new(session)
        })?;
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

/// Builds a wire sentinel (§4.2 kernel pipes or §4.3 shared memory): runs
/// the open hook once, registers the mux dispatch state machine on the
/// sentinel executor, and returns the [`SharedSentinel`] its opens attach
/// through. `gauges` is `None` for a private open, which attaches its one
/// session without counting it.
pub(crate) fn build(
    strategy: Strategy,
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    gauges: Option<Arc<SessionGauges>>,
) -> Result<Arc<MuxShared>, Win32Error> {
    let (label, kernel) = match strategy {
        Strategy::ProcessControl => ("Process", true),
        Strategy::DllThread => ("Thread", false),
        // §4.1 has no command lane to frame; §4.4 runs inline (dll.rs).
        Strategy::Process | Strategy::DllOnly => return Err(Win32Error::NotSupported),
    };
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let file = gauges.as_ref().map(|_| ctx.path().file_path().to_string());
    let (transport, port) = if kernel {
        MuxWire::<OpMux>::kernel_observed(model.clone(), Arc::clone(instr.tel.gauges()))
    } else {
        MuxWire::<OpMux>::shared_observed(model.clone(), Arc::clone(instr.tel.gauges()))
    };
    let state = MuxLoop {
        core: SentinelCore::new(logic, ctx, Arc::clone(port.pool())),
        port,
        gauges: gauges.clone(),
        sessions: Vec::new(),
        queue: VecDeque::new(),
        writes: instr.writes.clone(),
    };
    let done = instr.spawn_task(move |waker| {
        state.port.set_wakeup(waker);
        Box::new(state)
    });
    // The hub reaps by waiting on the executor's completion cell, the
    // task-world stand-in for joining a dedicated sentinel thread.
    let reaped = Arc::clone(&done);
    let hub = MuxHub::new(
        transport,
        model.clone(),
        gauges,
        Box::new(move || reaped.wait()),
    );
    Ok(Arc::new(MuxShared {
        hub,
        model,
        trace,
        strategy: label,
        file,
        instr,
        done,
    }))
}

/// The sentinel side of the multiplexed wire: one poll-driven state
/// machine (scheduled on the sentinel executor) serving every session of
/// one sentinel.
struct MuxLoop {
    core: SentinelCore,
    port: MuxPort<OpMux>,
    /// A shared sentinel's session gauges; `None` for a private open.
    gauges: Option<Arc<SessionGauges>>,
    /// The record each session id last announced on the wire. Frames
    /// arrive in send order and an id is reused only after its previous
    /// session's last frame, so a frame is always served under its own
    /// session's record.
    sessions: Vec<Option<Session>>,
    /// Reply-bearing commands awaiting service, in arrival order.
    queue: VecDeque<(u32, Op)>,
    /// A private open's in-flight write count (see
    /// [`fence`](crate::strategy::fence)).
    writes: Option<Arc<PendingWrites>>,
}

impl MuxLoop {
    /// Takes one frame off the wire. Writes are served immediately — they
    /// are acknowledged eagerly on the application side, and executing in
    /// wire order is what makes a flushed batch land before the read that
    /// forced the flush. Everything that owes a reply queues instead.
    fn ingest(&mut self, frame: CmdFrame<OpMux>) -> afs_ipc::Result<()> {
        let Framed {
            session,
            body,
            record,
        } = frame;
        if let Some(record) = record {
            let slot = session as usize;
            if self.sessions.len() <= slot {
                self.sessions.resize_with(slot + 1, || None);
            }
            self.sessions[slot] = Some(*record);
        }
        let Op::Write { len, .. } = body else {
            self.queue.push_back((session, body));
            return Ok(());
        };
        let mut buf = self.core.pool().take(len as usize);
        let received = match len {
            0 => Ok(()),
            _ => self.port.recv_data_exact(&mut buf).map(drop),
        };
        if received.is_ok() {
            self.core
                .serve(announced(&self.sessions, session), body, &buf);
        }
        self.core.pool().put(buf);
        received
    }

    /// Serves frames until the wire is quiet (`Pending`) or the terminal
    /// close has been served (`Ready`); `Err` when the application side
    /// vanished mid-protocol.
    fn drain(&mut self) -> afs_ipc::Result<TaskPoll> {
        loop {
            // Take the whole backlog first, so the depth gauges see it.
            // Each observed frame is charged like a blocking receive, so
            // the virtual timeline does not depend on how frames batch up.
            while let Some(frame) = self.port.poll_cmd()? {
                self.ingest(frame)?;
            }
            let Some((session, op)) = self.queue.pop_front() else {
                return Ok(TaskPoll::Pending);
            };
            let depth = self.queue.len() as u64 + 1;
            let record = announced(&self.sessions, session);
            let closing = matches!(op, Op::Close);
            let Some((body, data)) = self.core.serve(record, op, &[]) else {
                continue;
            };
            let reply = Framed {
                session,
                body,
                record: (),
            };
            let sent = send_reply(&self.port, self.core.pool(), reply, data);
            // Noted once the reply is out, off the op's critical path.
            // Every session of one sentinel feeds the same per-sentinel
            // stats.
            record.side.stats().note_queue_depth(depth);
            if let Some(gauges) = &self.gauges {
                gauges.note_queue_depth(depth);
            }
            if closing {
                // The close hook has run: no epilogue, whatever the send.
                return Ok(TaskPoll::Ready);
            }
            sent?;
        }
    }
}

/// The record `session` announced on its first frame.
fn announced(sessions: &[Option<Session>], session: u32) -> &Session {
    sessions[session as usize]
        .as_ref()
        .expect("a session's first frame announces its record")
}

impl SentinelPoll for MuxLoop {
    /// One executor quantum: `poll_cmd` charges what a blocking receive
    /// would when a frame (or the closure) is observed, and nothing when
    /// the lane is merely empty — so the virtual timeline matches a
    /// dedicated dispatch thread's.
    fn poll(&mut self) -> TaskPoll {
        self.drain().unwrap_or_else(|_| {
            self.core.abandon();
            TaskPoll::Ready
        })
    }

    fn abandon(&mut self) {
        self.core.abandon();
    }
}

impl Drop for MuxLoop {
    /// Writes still counted in flight will never be applied now.
    fn drop(&mut self) {
        if let Some(writes) = &self.writes {
            writes.settle();
        }
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
