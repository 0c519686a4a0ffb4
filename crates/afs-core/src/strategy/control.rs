//! §4.2 — the process-plus-control strategy.
//!
//! "This approach solves the problem of handshaking between the user and
//! sentinel processes by adding a control channel in addition to the two
//! pipes. … So when the application process wants to read 50 bytes, a
//! 'read 50' command is sent to the sentinel, and then 50 bytes are read
//! from the read pipe."
//!
//! The wiring is [`PairTransport::kernel`]: kernel control channels plus
//! two anonymous pipes across the process boundary, driven by the same
//! [`StrategyHandle`] as every other strategy — the DLL-with-thread
//! strategy (§4.3) plugs in shared-memory transports instead, which is
//! precisely the paper's point that the strategies trade copies and
//! crossings, not semantics.

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::PairTransport;
use afs_sim::{CostModel, OpTrace};
use afs_telemetry::SpanScope;
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::handle::StrategyHandle;
use crate::strategy::{to_win32, ActiveOps, DispatchTask, Instruments, Op, OpReply, Reaper};

/// Builds the process-plus-control strategy for one open: runs the open
/// hook, registers the sentinel "process" as a dispatch task on the
/// sentinel executor, wires two data pipes plus the control channel, and
/// returns the application-side ops. With `batch = Some(depth)` the
/// boundary is wired as a submission/completion ring instead — one
/// kernel doorbell per batch (see [`crate::strategy::batch`]).
pub(crate) fn open(
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    batch: Option<usize>,
) -> Result<Arc<dyn ActiveOps>, Win32Error> {
    if let Some(depth) = batch {
        return crate::strategy::batch::open_kernel(logic, ctx, model, trace, instr, depth);
    }
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let (transport, port) = PairTransport::<Op, OpReply>::kernel_observed(
        model.clone(),
        Arc::clone(instr.tel.gauges()),
    );
    let sticky = Arc::new(Mutex::new(None));
    let sentinel_sticky = Arc::clone(&sticky);
    let scope = Arc::new(SpanScope::default());
    let side = instr.sentinel_side("Process", Arc::clone(&scope));
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
        "Process",
        sticky,
        Some(Reaper::Task(done)),
        instr.app_side(scope),
    )))
}
