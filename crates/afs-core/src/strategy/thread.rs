//! §4.3 — the DLL-with-thread strategy.
//!
//! "Instead of a stand-alone process, this approach encapsulates sentinel
//! functionality into a separate DLL … Opening an active file 'injects'
//! the sentinel DLL associated with the file into the application and
//! starts a thread for running the orchestration routine." Data moves
//! through shared memory with event signalling — one user-level copy per
//! transfer instead of the pipes' two kernel copies, and thread switches
//! instead of process switches.
//!
//! The wiring is [`PairTransport::shared`]; the command protocol is
//! identical to the process-plus-control strategy (the six `AF_*` library
//! calls of Appendix A.3 map onto it):
//!
//! | Appendix A.3 call        | Here                                      |
//! |--------------------------|-------------------------------------------|
//! | `AF_SendControl`         | command send on the user-level channel     |
//! | `AF_GetControl`          | command recv in the dispatch loop          |
//! | `AF_SendDataToSentinel`  | [`SharedBuffer::send`] app → sentinel      |
//! | `AF_GetDataFromAppl`     | `recv` in the dispatch loop                |
//! | `AF_SendDataToAppl`      | [`SharedBuffer::send`] sentinel → app      |
//! | `AF_GetDataFromSentinel` | `recv_data_exact` in the strategy handle   |
//!
//! [`SharedBuffer::send`]: afs_ipc::SharedBuffer::send

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::PairTransport;
use afs_sim::{CostModel, OpTrace};
use afs_telemetry::SpanScope;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::handle::StrategyHandle;
use crate::strategy::{ActiveOps, DispatchTask, Instruments, Op, OpReply, Reaper};

/// Builds the DLL-with-thread strategy for one open: registers the
/// `SentinelThrdMain` state machine with the sentinel executor (the
/// bounded-pool stand-in for "starts a thread for running the
/// orchestration routine") and wires shared-memory buffers plus user-level
/// control channels. With `batch = Some(depth)` the same substrate is
/// wired as a submission/completion ring instead — one crossing per batch
/// (see [`crate::strategy::batch`]).
pub(crate) fn open(
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    batch: Option<usize>,
) -> Result<Arc<dyn ActiveOps>, afs_winapi::Win32Error> {
    if let Some(depth) = batch {
        return crate::strategy::batch::open_shared(logic, ctx, model, trace, instr, depth);
    }
    logic
        .on_open(&mut ctx)
        .map_err(|e| crate::strategy::to_win32(&e))?;
    let (transport, port) = PairTransport::<Op, OpReply>::shared_observed(
        model.clone(),
        Arc::clone(instr.tel.gauges()),
    );
    let sticky = Arc::new(Mutex::new(None));
    let sentinel_sticky = Arc::clone(&sticky);
    let scope = Arc::new(SpanScope::default());
    let side = instr.sentinel_side("Thread", Arc::clone(&scope));
    let writes = instr.writes.clone();
    let done = instr.spawn_task(move |waker| {
        port.set_wakeup(waker);
        Box::new(DispatchTask::new(
            logic,
            ctx,
            port,
            sentinel_sticky,
            side,
            writes,
        ))
    });
    Ok(Arc::new(StrategyHandle::new(
        transport,
        model,
        trace,
        "Thread",
        sticky,
        Some(Reaper::Task(done)),
        instr.app_side(scope),
    )))
}
