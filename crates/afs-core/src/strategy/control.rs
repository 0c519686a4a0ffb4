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
//! [`StrategyHandle`](super::handle::StrategyHandle) as every other
//! strategy — the DLL-with-thread strategy (§4.3) plugs in shared-memory
//! transports instead, which is precisely the paper's point that the
//! strategies trade copies and crossings, not semantics. An unbatched
//! open is a session of a `mux` sentinel (a private open is its only
//! session); with `batch = Some(depth)` the boundary is wired as a
//! submission/completion ring instead — one kernel doorbell per batch
//! (see `strategy::batch`).
