//! §4.2 — the process-plus-control strategy.
//!
//! "This approach solves the problem of handshaking between the user and
//! sentinel processes by adding a control channel in addition to the two
//! pipes. … So when the application process wants to read 50 bytes, a
//! 'read 50' command is sent to the sentinel, and then 50 bytes are read
//! from the read pipe."
//!
//! The wiring is [`PairTransport::kernel`](afs_ipc::PairTransport::kernel):
//! kernel control channels plus two anonymous pipes across the process
//! boundary, driven by the same
//! [`StrategyHandle`](super::handle::StrategyHandle) as every other strategy — the DLL-with-thread
//! strategy (§4.3) plugs in shared-memory transports instead, which is
//! precisely the paper's point that the strategies trade copies and
//! crossings, not semantics.

use std::sync::Arc;

use afs_sim::{CostModel, OpTrace};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::{open_private_wire, ActiveOps, Instruments};

/// Builds the process-plus-control strategy for one open: runs the open
/// hook, registers the sentinel "process" as a dispatch task on the
/// sentinel executor, wires two data pipes plus the control channel, and
/// returns the application-side ops. With `batch = Some(depth)` the
/// boundary is wired as a submission/completion ring instead — one
/// kernel doorbell per batch (see [`crate::strategy::batch`]).
pub(crate) fn open(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    batch: Option<usize>,
) -> Result<Arc<dyn ActiveOps>, Win32Error> {
    match batch {
        Some(depth) => crate::strategy::batch::open_kernel(logic, ctx, model, trace, instr, depth),
        None => open_private_wire("Process", true, logic, ctx, model, trace, instr),
    }
}
