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
//! | `AF_GetDataFromSentinel` | reply bytes of the strategy handle's call |
//!
//! [`SharedBuffer::send`]: afs_ipc::SharedBuffer::send
//! [`PairTransport::shared`]: afs_ipc::PairTransport::shared

use std::sync::Arc;

use afs_sim::{CostModel, OpTrace};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::{open_private_wire, ActiveOps, Instruments};

/// Builds the DLL-with-thread strategy for one open: registers the
/// `SentinelThrdMain` state machine with the sentinel executor (the
/// bounded-pool stand-in for "starts a thread for running the
/// orchestration routine") and wires shared-memory buffers plus user-level
/// control channels. With `batch = Some(depth)` the same substrate is
/// wired as a submission/completion ring instead — one crossing per batch
/// (see [`crate::strategy::batch`]).
pub(crate) fn open(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    batch: Option<usize>,
) -> Result<Arc<dyn ActiveOps>, Win32Error> {
    match batch {
        Some(depth) => crate::strategy::batch::open_shared(logic, ctx, model, trace, instr, depth),
        None => open_private_wire("Thread", false, logic, ctx, model, trace, instr),
    }
}
