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
//! The wiring is [`PairTransport::shared`], multiplexed like §4.2's (a
//! private open is the only session of a `mux` sentinel, whose executor
//! task stands in for "starts a thread for running the orchestration
//! routine"; `batch=on` wires a submission/completion ring instead). The
//! command protocol is identical to the process-plus-control strategy (the
//! six `AF_*` library calls of Appendix A.3 map onto it):
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
