//! §4.4 — the DLL-only strategy.
//!
//! "The DLL-only implementation approach eliminates this switch by
//! directly routing file system API calls to appropriate routines in the
//! sentinel DLL. … This clearly is the most efficient implementation."
//! The sentinel's `AF_ReadFile`/`AF_WriteFile`/`AF_Control` routines are
//! the [`SentinelLogic`] methods called inline on the application thread:
//! no pipes, no events, no domain crossing — the only costs are whatever
//! the logic itself does.
//!
//! Rather than a bespoke handle, the strategy implements the
//! [`Transport`] protocol *inline*: [`InlineTransport`] runs each command
//! through the same [`execute_op`] the dispatch loop uses, at the moment
//! the shared [`StrategyHandle`](super::handle::StrategyHandle) "sends"
//! it. Its [`CrossingKind::None`] boundary makes the handle charge zero
//! crossings, so the §4.4 cost profile falls out of the wiring.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use afs_ipc::{BufferPool, IpcError, Transport};
use afs_sim::{CostModel, CrossingKind, OpTrace};
use afs_telemetry::{SessionGauges, SpanScope};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::{SentinelError, SentinelLogic};
use crate::strategy::executor::TaskDone;
use crate::strategy::handle::StrategyHandle;
use crate::strategy::mux::SharedSentinel;
use crate::strategy::{
    execute_op, op_name, to_win32, ActiveOps, Instruments, Op, OpReply, SentinelSide,
};

struct InlineState {
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    /// A `Write` command waiting for its payload (the protocol sends the
    /// command first, then the bytes).
    pending_write: Option<Op>,
    reply: Option<OpReply>,
    outbound: Vec<u8>,
    outbound_pos: usize,
    closed: bool,
}

/// The §4.4 "wiring": no boundary at all. Commands execute on the calling
/// thread inside `send_cmd`/`send_data`; replies and read data are handed
/// straight back from per-handle staging.
pub(crate) struct InlineTransport {
    state: Mutex<InlineState>,
    /// Shared with the handle: write failures park here, exactly like the
    /// dispatch loop's write-behind semantics.
    sticky: Arc<Mutex<Option<SentinelError>>>,
    pool: BufferPool,
    /// Sentinel-side telemetry; the inline sentinel's spans nest under the
    /// calling thread's open transport span.
    side: SentinelSide,
}

impl InlineTransport {
    fn run(&self, state: &mut InlineState, op: Op, payload: &[u8]) {
        let name = op_name(&op);
        let InlineState { logic, ctx, .. } = state;
        let (reply, data) = self.side.observe_inline(name, || {
            execute_op(logic.as_mut(), ctx, op, payload, &self.pool)
        });
        state.reply = Some(reply);
        let drained = std::mem::replace(&mut state.outbound, data.unwrap_or_default());
        state.outbound_pos = 0;
        self.pool.put(drained);
    }
}

impl Transport for InlineTransport {
    type Cmd = Op;
    type Reply = OpReply;

    fn crossing(&self) -> CrossingKind {
        CrossingKind::None
    }

    fn supports_control(&self) -> bool {
        true
    }

    fn send_cmd(&self, op: Op) -> Result<(), IpcError> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(IpcError::Closed);
        }
        match op {
            Op::Write { len, .. } if len > 0 => {
                state.pending_write = Some(op);
            }
            Op::Write { .. } => {
                // Zero-length write: no payload will follow; run it now.
                let InlineState { logic, ctx, .. } = &mut *state;
                let (reply, _) = self.side.observe_inline("write", || {
                    execute_op(logic.as_mut(), ctx, op, &[], &self.pool)
                });
                if let OpReply::Failed(e) = reply {
                    *self.sticky.lock() = Some(e);
                }
            }
            Op::Close => {
                self.run(&mut state, op, &[]);
                state.closed = true;
            }
            other => self.run(&mut state, other, &[]),
        }
        Ok(())
    }

    fn recv_reply(&self) -> Result<OpReply, IpcError> {
        self.state.lock().reply.take().ok_or(IpcError::Closed)
    }

    fn send_data(&self, data: &[u8]) -> Result<(), IpcError> {
        let mut state = self.state.lock();
        let Some(op) = state.pending_write.take() else {
            return Err(IpcError::BrokenPipe);
        };
        let InlineState { logic, ctx, .. } = &mut *state;
        let (reply, _) = self.side.observe_inline("write", || {
            execute_op(logic.as_mut(), ctx, op, data, &self.pool)
        });
        if let OpReply::Failed(e) = reply {
            *self.sticky.lock() = Some(e);
        }
        Ok(())
    }

    fn recv_data(&self, buf: &mut [u8]) -> Result<usize, IpcError> {
        self.recv_data_exact(buf)
    }

    fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize, IpcError> {
        let mut state = self.state.lock();
        let available = state.outbound.len() - state.outbound_pos;
        let take = buf.len().min(available);
        let from = state.outbound_pos;
        buf[..take].copy_from_slice(&state.outbound[from..from + take]);
        state.outbound_pos += take;
        if state.outbound_pos >= state.outbound.len() {
            let drained = std::mem::take(&mut state.outbound);
            state.outbound_pos = 0;
            self.pool.put(drained);
        }
        Ok(take)
    }

    fn shutdown(&self) {}
}

/// Builds the DLL-only strategy for one open.
pub(crate) fn open(
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
) -> Result<Arc<dyn ActiveOps>, Win32Error> {
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let sticky = Arc::new(Mutex::new(None));
    let scope = Arc::new(SpanScope::default());
    let transport = InlineTransport {
        state: Mutex::new(InlineState {
            logic,
            ctx,
            pending_write: None,
            reply: None,
            outbound: Vec::new(),
            outbound_pos: 0,
            closed: false,
        }),
        sticky: Arc::clone(&sticky),
        pool: BufferPool::observed(Arc::clone(instr.tel.gauges())),
        side: instr.sentinel_side("DLL", Arc::clone(&scope)),
    };
    Ok(Arc::new(StrategyHandle::new(
        transport,
        model,
        trace,
        "DLL",
        sticky,
        None,
        instr.app_side(scope),
    )))
}

/// The sentinel logic and context shared by every session of one shared
/// DLL-only sentinel. All execution serialises on this lock — the §4.4
/// analogue of the wire strategies' single dispatch loop.
struct InlineCore {
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    live: usize,
    closed: bool,
}

/// The shared form of §4.4: one logic/context pair, many sessions calling
/// into it inline. Per-session state (staged reply bytes, the parked
/// write, the sticky error) lives in each [`InlineSession`], so sessions
/// are indistinguishable from private opens at the handle layer.
pub(crate) struct InlineShared {
    core: Mutex<InlineCore>,
    pool: BufferPool,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    gauges: Arc<SessionGauges>,
    weak_self: Weak<InlineShared>,
}

/// Per-session staging, mirroring the private [`InlineState`] fields that
/// are per-open rather than per-sentinel.
struct SessionStaging {
    pending_write: Option<Op>,
    reply: Option<OpReply>,
    outbound: Vec<u8>,
    outbound_pos: usize,
}

/// One session's inline transport over the shared core.
struct InlineSession {
    shared: Arc<InlineShared>,
    staging: Mutex<SessionStaging>,
    sticky: Arc<Mutex<Option<SentinelError>>>,
    side: SentinelSide,
}

impl InlineSession {
    fn run(&self, op: Op, payload: &[u8]) {
        let name = op_name(&op);
        let mut core = self.shared.core.lock();
        let InlineCore { logic, ctx, .. } = &mut *core;
        let (reply, data) = self.side.observe_inline(name, || {
            execute_op(logic.as_mut(), ctx, op, payload, &self.shared.pool)
        });
        drop(core);
        let mut staging = self.staging.lock();
        staging.reply = Some(reply);
        let drained = std::mem::replace(&mut staging.outbound, data.unwrap_or_default());
        staging.outbound_pos = 0;
        self.shared.pool.put(drained);
    }

    fn run_write(&self, op: Op, payload: &[u8]) {
        let mut core = self.shared.core.lock();
        let InlineCore { logic, ctx, .. } = &mut *core;
        let (reply, _) = self.side.observe_inline("write", || {
            execute_op(logic.as_mut(), ctx, op, payload, &self.shared.pool)
        });
        if let OpReply::Failed(e) = reply {
            *self.sticky.lock() = Some(e);
        }
    }
}

impl Transport for InlineSession {
    type Cmd = Op;
    type Reply = OpReply;

    fn crossing(&self) -> CrossingKind {
        CrossingKind::None
    }

    fn supports_control(&self) -> bool {
        true
    }

    fn send_cmd(&self, op: Op) -> Result<(), IpcError> {
        if self.shared.core.lock().closed {
            return Err(IpcError::Closed);
        }
        match op {
            Op::Write { len, .. } if len > 0 => {
                self.staging.lock().pending_write = Some(op);
            }
            Op::Write { .. } => self.run_write(op, &[]),
            Op::Close => {
                let mut core = self.shared.core.lock();
                core.live -= 1;
                self.shared.gauges.detached();
                if core.live == 0 {
                    // Last session out runs the real close hook.
                    let InlineCore { logic, ctx, .. } = &mut *core;
                    let (reply, _) = self.side.observe_inline("close", || {
                        execute_op(logic.as_mut(), ctx, Op::Close, &[], &self.shared.pool)
                    });
                    core.closed = true;
                    drop(core);
                    self.staging.lock().reply = Some(reply);
                } else {
                    // The sentinel stays up for the other sessions; this
                    // session's close is acknowledged locally.
                    drop(core);
                    self.staging.lock().reply = Some(OpReply::Done);
                }
            }
            other => self.run(other, &[]),
        }
        Ok(())
    }

    fn recv_reply(&self) -> Result<OpReply, IpcError> {
        self.staging.lock().reply.take().ok_or(IpcError::Closed)
    }

    fn send_data(&self, data: &[u8]) -> Result<(), IpcError> {
        let Some(op) = self.staging.lock().pending_write.take() else {
            return Err(IpcError::BrokenPipe);
        };
        self.run_write(op, data);
        Ok(())
    }

    fn recv_data(&self, buf: &mut [u8]) -> Result<usize, IpcError> {
        self.recv_data_exact(buf)
    }

    fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize, IpcError> {
        let mut staging = self.staging.lock();
        let available = staging.outbound.len() - staging.outbound_pos;
        let take = buf.len().min(available);
        let from = staging.outbound_pos;
        buf[..take].copy_from_slice(&staging.outbound[from..from + take]);
        staging.outbound_pos += take;
        if staging.outbound_pos >= staging.outbound.len() {
            let drained = std::mem::take(&mut staging.outbound);
            staging.outbound_pos = 0;
            self.shared.pool.put(drained);
        }
        Ok(take)
    }

    fn shutdown(&self) {}
}

impl SharedSentinel for InlineShared {
    fn attach(&self) -> Option<Arc<dyn ActiveOps>> {
        let me = self.weak_self.upgrade()?;
        {
            let mut core = self.core.lock();
            if core.closed {
                return None;
            }
            core.live += 1;
            self.gauges.attached(core.live as u64);
        }
        let sticky = Arc::new(Mutex::new(None));
        let scope = Arc::new(SpanScope::default());
        let session = InlineSession {
            shared: me,
            staging: Mutex::new(SessionStaging {
                pending_write: None,
                reply: None,
                outbound: Vec::new(),
                outbound_pos: 0,
            }),
            sticky: Arc::clone(&sticky),
            side: self.instr.sentinel_side("DLL", Arc::clone(&scope)),
        };
        Some(Arc::new(StrategyHandle::new(
            session,
            self.model.clone(),
            Arc::clone(&self.trace),
            "DLL",
            sticky,
            None,
            self.instr.app_side(scope),
        )))
    }

    fn session_count(&self) -> usize {
        self.core.lock().live
    }

    /// The close hook runs inline under the core lock, so a terminal
    /// close is complete before `attach` can observe it.
    fn task_done(&self) -> Option<Arc<TaskDone>> {
        None
    }
}

/// Builds the shared DLL-only sentinel: runs the open hook once and
/// returns the [`SharedSentinel`] later opens attach through.
pub(crate) fn open_shared(
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
) -> Result<Arc<InlineShared>, Win32Error> {
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let pool = BufferPool::observed(Arc::clone(instr.tel.gauges()));
    let gauges = Arc::clone(instr.tel.sessions());
    Ok(Arc::new_cyclic(|weak_self| InlineShared {
        core: Mutex::new(InlineCore {
            logic,
            ctx,
            live: 0,
            closed: false,
        }),
        pool,
        model,
        trace,
        instr,
        gauges,
        weak_self: weak_self.clone(),
    }))
}
