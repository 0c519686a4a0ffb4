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
//! [`Transport`] protocol *inline*: each [`InlineSession`] serves a
//! command through the same [`SentinelCore::serve`] every other dispatch
//! path uses, within the shared
//! [`StrategyHandle`](super::handle::StrategyHandle)'s `post` or `call`.
//! Its [`CrossingKind::None`] boundary makes the handle charge zero
//! crossings, so the §4.4 cost profile falls out of the wiring.
//!
//! One [`InlineShared`] core serves every session of a file. A private
//! (`share=off`) open is a core with exactly one session, built without
//! session gauges so it never counts as an attach. A core dropped
//! without its terminal close runs the close hook anyway, as the wire
//! sentinels do when their application side vanishes.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use afs_ipc::{BufferPool, IpcError, Transport};
use afs_sim::{CostModel, CrossingKind, OpTrace};
use afs_telemetry::SessionGauges;
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::executor::TaskDone;
use crate::strategy::handle::StrategyHandle;
use crate::strategy::mux::{OpMux, SharedSentinel};
use crate::strategy::{
    to_win32, ActiveOps, Instruments, Op, OpReply, SentinelCore, Served, Session,
};

/// The sentinel core shared by every session of one DLL-only sentinel.
/// All execution serialises on this lock — the §4.4 analogue of the wire
/// strategies' single dispatch loop.
struct InlineCore {
    core: SentinelCore,
    live: usize,
    closed: bool,
}

/// The §4.4 sentinel: one core, one or more sessions calling into it
/// inline. Per-session state (the sticky error, the span scope) lives in
/// each [`InlineSession`].
pub(crate) struct InlineShared {
    core: Mutex<InlineCore>,
    pool: Arc<BufferPool>,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    /// `None` for a private open, which is not an attach.
    gauges: Option<Arc<SessionGauges>>,
    weak_self: Weak<InlineShared>,
}

/// One session's inline transport over the shared core.
struct InlineSession {
    shared: Arc<InlineShared>,
    session: Session,
}

impl InlineSession {
    /// Serves `op` under the core lock, failing once the sentinel has
    /// terminally closed.
    fn serve(&self, op: Op, payload: &[u8]) -> Result<Served, IpcError> {
        let mut core = self.shared.core.lock();
        if core.closed {
            return Err(IpcError::Closed);
        }
        if !matches!(op, Op::Close) {
            return Ok(core.core.serve(&self.session, op, payload));
        }
        core.live -= 1;
        if let Some(gauges) = &self.shared.gauges {
            gauges.detached();
        }
        if core.live > 0 {
            // The sentinel stays up for the other sessions; this
            // session's close is acknowledged locally.
            return Ok(Some((OpReply::Done, None)));
        }
        // Last session out runs the real close hook.
        core.closed = true;
        Ok(core.core.serve(&self.session, op, payload))
    }
}

impl Transport<OpMux> for InlineSession {
    fn crossing(&self) -> CrossingKind {
        CrossingKind::None
    }

    fn post(&self, op: Op, payload: &[u8]) -> Result<(), IpcError> {
        self.serve(op, payload).map(drop)
    }

    fn call(&self, op: Op, out: &mut [u8]) -> Result<OpReply, IpcError> {
        let (reply, data) = self.serve(op, &[])?.ok_or(IpcError::Closed)?;
        if let Some(data) = data {
            // More bytes than `out` holds: the reply goes back without
            // them, for the handle to reject.
            if let Some(dest) = out.get_mut(..data.len()) {
                dest.copy_from_slice(&data);
            }
            self.shared.pool.put(data);
        }
        Ok(reply)
    }
}

impl Drop for InlineShared {
    /// Every handle is gone but no terminal close ran: the application
    /// vanished, so run the close hook now, like the wire sentinels'
    /// [`SentinelCore::abandon`] epilogue. Whatever the sessions wrote
    /// is then committed rather than lost.
    fn drop(&mut self) {
        let core = self.core.get_mut();
        if !core.closed {
            core.core.abandon();
        }
    }
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
            if let Some(gauges) = &self.gauges {
                gauges.attached(core.live as u64);
            }
        }
        let (mut session, scope) = self.instr.session("DLL");
        session.side = session.side.inline();
        let sticky = Arc::clone(&session.sticky);
        let transport = InlineSession {
            shared: me,
            session,
        };
        Some(Arc::new(StrategyHandle::new(
            transport,
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

/// Builds the DLL-only sentinel: runs the open hook once and returns the
/// [`SharedSentinel`] its opens attach through. `gauges` is `None` for a
/// private open, which attaches its one session without counting it.
pub(crate) fn build(
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    gauges: Option<Arc<SessionGauges>>,
) -> Result<Arc<InlineShared>, Win32Error> {
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let pool = Arc::new(BufferPool::observed(Arc::clone(instr.tel.gauges())));
    let core = SentinelCore::new(logic, ctx, Arc::clone(&pool));
    Ok(Arc::new_cyclic(|weak_self| InlineShared {
        core: Mutex::new(InlineCore {
            core,
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
