//! Handle-side batching over submission/completion rings (`batch=on`).
//!
//! The §4.2/§4.3 wirings cross the protection boundary twice per
//! operation. With `batch=on` / `ring_depth=K` in the spec, the same
//! [`StrategyHandle`] drives a [`RingDriver`] instead of a
//! [`PairTransport`](afs_ipc::PairTransport): operations are staged into
//! an [`afs_ipc::RingPair`] submission ring and the boundary is crossed
//! once per *batch* — 1 crossing + K dispatches, in the cost model's
//! terms. Three populations fill a batch:
//!
//! * **Coalesced writes** — write-behind staging merges adjacent writes
//!   into one submission entry of at most [`STAGE_CAPACITY`] bytes (the
//!   mux layer's cap) and flushes when the ring depth is reached, a
//!   synchronous op needs ordering, or the driver is dropped.
//! * **Readahead** — a demand read that misses the speculative cache
//!   submits itself plus sequential speculative reads to fill the batch;
//!   later sequential reads are served from harvested completions with
//!   zero new crossings.
//! * **Scatter/gather spans** — `ReadFileScatter` rides the ring as one
//!   entry, flushing staged writes ahead of itself in the same crossing.
//!
//! The sentinel side ([`RingDispatchTask`]) drains the ring in
//! submission order through the shared [`SentinelCore::serve`] and
//! completes out of order through the completion index, so batched and
//! unbatched execution stay transcript-equivalent: every application-visible
//! result — data bytes, error codes, write-behind error surfacing via
//! the sticky slot — is the same either way. Speculative reads assume
//! read-idempotent sentinel logic (see docs/BATCHING.md), which is why
//! batching is opt-in per file.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{
    BufferPool, Cqe, IpcError, RingPair, RingPort, RingTransport, Sqe, Transport, STAGE_CAPACITY,
};
use afs_sim::{CostModel, CrossingKind, OpTrace};
use afs_telemetry::{Layer, RingGauges, Telemetry};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::executor::{SentinelPoll, TaskPoll};
use crate::strategy::handle::StrategyHandle;
use crate::strategy::mux::OpMux;
use crate::strategy::{
    to_win32, ActiveOps, Instruments, Op, OpReply, Reaper, SentinelCore, Session,
};

/// Builds the batched variant of the DLL-with-thread strategy (§4.3
/// substrate: user-level ring, thread switches).
pub(crate) fn open_shared(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    depth: usize,
) -> Result<Arc<dyn ActiveOps>, Win32Error> {
    let gauges = Arc::clone(instr.tel.rings());
    let (ring, port) = RingPair::shared_observed(model.clone(), depth, gauges);
    open_over(logic, ctx, model, trace, instr, "Thread", ring, port)
}

/// Builds the batched variant of the process-plus-control strategy (§4.2
/// substrate: kernel doorbell, process switches).
pub(crate) fn open_kernel(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    depth: usize,
) -> Result<Arc<dyn ActiveOps>, Win32Error> {
    let gauges = Arc::clone(instr.tel.rings());
    let (ring, port) = RingPair::kernel_observed(model.clone(), depth, gauges);
    open_over(logic, ctx, model, trace, instr, "Process", ring, port)
}

#[allow(clippy::too_many_arguments)]
fn open_over(
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    model: CostModel,
    trace: Arc<OpTrace>,
    instr: Instruments,
    strategy: &'static str,
    ring: RingTransport<Op, OpReply>,
    port: RingPort<Op, OpReply>,
) -> Result<Arc<dyn ActiveOps>, Win32Error> {
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let (session, scope) = instr.session(strategy);
    let sticky = Arc::clone(&session.sticky);
    // The driver watches the ctx's heal generation: a queued-write replay
    // on the sentinel side bumps it, and the driver retires its
    // speculative-cache epoch in response (see `sync_heal_generation`).
    let heal_gen = ctx.heal_generation();
    let pool = Arc::new(BufferPool::observed(Arc::clone(instr.tel.gauges())));
    let core = SentinelCore::new(logic, ctx, pool);
    let done = instr.spawn_task(move |waker| {
        port.set_wakeup(waker);
        Box::new(RingDispatchTask {
            core,
            port,
            session,
        })
    });
    let driver = RingDriver::new(
        ring,
        Arc::clone(&instr.tel),
        strategy,
        Arc::clone(instr.tel.rings()),
        heal_gen,
    );
    Ok(Arc::new(StrategyHandle::new(
        driver,
        model,
        trace,
        strategy,
        sticky,
        Some(Reaper::Task(done)),
        instr.app_side(scope),
    )))
}

/// Mutable staging state of one [`RingDriver`], serialised by the
/// strategy handle's op lock (and a mutex here, for `&self` methods).
#[derive(Debug, Default)]
struct DriverState {
    /// Next submission id (monotonic; completions key off it).
    next_id: u64,
    /// Write-behind submissions staged since the last doorbell.
    staged: Vec<Sqe<Op>>,
    /// Harvested speculative reads: `(offset, len)` → produced bytes.
    cache: HashMap<(u64, u32), Vec<u8>>,
    /// Speculative reads in flight: `(id, offset, len, epoch)`.
    inflight: Vec<(u64, u64, u32, u64)>,
    /// Bumped by anything that can change file contents; speculative
    /// results from an older epoch are discarded at harvest.
    epoch: u64,
    /// Last observed value of the sentinel ctx's heal generation; a
    /// change means a queued-write replay ran and everything speculated
    /// before it is invalid.
    heal_seen: u64,
}

/// The application side of a batched wiring: an [`afs_ipc::Transport`]
/// whose posts stage into a submission ring and whose calls submit the
/// staged batch ahead of themselves. Crossing charges happen in
/// [`RingTransport::submit`] — once per batch — so
/// `charges_own_crossings` tells the strategy handle to skip its own
/// per-op round-trip charge. Dropping the driver submits what it staged.
pub(crate) struct RingDriver {
    ring: RingTransport<Op, OpReply>,
    state: Mutex<DriverState>,
    tel: Arc<Telemetry>,
    strategy: &'static str,
    gauges: Arc<RingGauges>,
    heal_gen: Arc<AtomicU64>,
}

impl RingDriver {
    fn new(
        ring: RingTransport<Op, OpReply>,
        tel: Arc<Telemetry>,
        strategy: &'static str,
        gauges: Arc<RingGauges>,
        heal_gen: Arc<AtomicU64>,
    ) -> Self {
        RingDriver {
            ring,
            state: Mutex::new(DriverState::default()),
            tel,
            strategy,
            gauges,
            heal_gen,
        }
    }

    fn next_id(state: &mut DriverState) -> u64 {
        state.next_id += 1;
        state.next_id
    }

    /// Retires the speculative epoch when a queued-write replay has run
    /// since this driver last looked: replay rewrites remote state, so any
    /// readahead staged before it (cached *or* still in flight) describes
    /// the pre-replay file and must never reach the application.
    fn sync_heal_generation(&self, state: &mut DriverState) {
        let gen = self.heal_gen.load(Ordering::SeqCst);
        if gen != state.heal_seen {
            state.heal_seen = gen;
            state.epoch += 1;
            state.cache.clear();
        }
    }

    /// Rings the doorbell for `batch` under a transport-layer span (which
    /// nests under the in-flight op's strategy span on this thread).
    fn submit(&self, batch: Vec<Sqe<Op>>) -> afs_ipc::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut span = self
            .tel
            .span_tagged(Layer::Transport, "batch-submit", self.strategy);
        if let Some(sp) = span.as_mut() {
            sp.set_bytes(batch.len() as u64);
        }
        self.ring.submit(batch)
    }

    /// Stages one write submission, merging it into the previous staged
    /// write when byte-adjacent and the merged entry stays within
    /// [`STAGE_CAPACITY`], and flushes the staged batch once it reaches
    /// the ring depth.
    fn stage_write(
        &self,
        state: &mut DriverState,
        offset: u64,
        payload: Vec<u8>,
    ) -> afs_ipc::Result<()> {
        // Contents are changing: speculative results issued before this
        // write no longer reflect the file the unbatched wiring would
        // read.
        state.epoch += 1;
        state.cache.clear();
        let coalesced = match state.staged.last_mut() {
            Some(Sqe {
                cmd: Op::Write { offset: o, len },
                payload: Some(buf),
                ..
            }) if *o + u64::from(*len) == offset && buf.len() + payload.len() <= STAGE_CAPACITY => {
                buf.extend_from_slice(&payload);
                *len += payload.len() as u32;
                true
            }
            _ => false,
        };
        if !coalesced {
            let id = Self::next_id(state);
            state.staged.push(Sqe {
                id,
                cmd: Op::Write {
                    offset,
                    len: payload.len() as u32,
                },
                payload: Some(payload),
            });
        }
        if state.staged.len() >= self.ring.depth() {
            let batch = std::mem::take(&mut state.staged);
            self.submit(batch)?;
        }
        Ok(())
    }

    /// Harvests the speculative completions of the batch already in
    /// flight into the readahead cache (current-epoch results only). It
    /// waits for them instead of polling: their crossing was charged at
    /// submit, and what the cache holds must not depend on how far the
    /// sentinel task has got — otherwise crossings and latency would
    /// follow OS scheduling.
    fn harvest(&self, state: &mut DriverState) {
        for (id, offset, len, epoch) in std::mem::take(&mut state.inflight) {
            match self.ring.complete(id) {
                Ok(Cqe {
                    reply: OpReply::Read { .. },
                    data,
                    ..
                }) if epoch == state.epoch => {
                    state.cache.insert((offset, len), data.unwrap_or_default());
                }
                // Stale epoch, a speculative failure, or a sentinel that
                // closed: the unbatched wiring never issued this read, so
                // its outcome must not become application-visible — and
                // must not fail the demand read either.
                _ => {}
            }
        }
    }

    /// Serves a demand read: from the readahead cache when the exact span
    /// was speculated (zero new crossings), otherwise with one batch of
    /// staged writes + the demand read + sequential speculative reads.
    fn demand_read(
        &self,
        state: &mut DriverState,
        offset: u64,
        len: u32,
    ) -> afs_ipc::Result<(OpReply, Option<Vec<u8>>)> {
        self.sync_heal_generation(state);
        self.harvest(state);
        if let Some(data) = state.cache.remove(&(offset, len)) {
            self.gauges.readahead_hit();
            let n = data.len() as u32;
            return Ok((OpReply::Read { n }, Some(data)));
        }
        let mut batch = std::mem::take(&mut state.staged);
        let demand = Self::next_id(state);
        batch.push(Sqe {
            id: demand,
            cmd: Op::Read { offset, len },
            payload: None,
        });
        let mut speculative = Vec::new();
        if len > 0 {
            let mut next = offset + u64::from(len);
            while batch.len() < self.ring.depth() {
                let id = Self::next_id(state);
                batch.push(Sqe {
                    id,
                    cmd: Op::Read { offset: next, len },
                    payload: None,
                });
                speculative.push((id, next, len, state.epoch));
                next += u64::from(len);
            }
        }
        self.submit(batch)?;
        state.inflight.extend(speculative);
        let cqe = self.ring.complete(demand)?;
        Ok((cqe.reply, cqe.data))
    }

    /// Runs one synchronous command through the ring: staged writes flush
    /// ahead of it in the same crossing. Returns the reply plus any
    /// produced bytes.
    fn sync_roundtrip(
        &self,
        state: &mut DriverState,
        op: Op,
    ) -> afs_ipc::Result<(OpReply, Option<Vec<u8>>)> {
        self.sync_heal_generation(state);
        if matches!(op, Op::Control { .. } | Op::ReadScatter { .. } | Op::Flush) {
            // Controls can mutate sentinel state; scatter reads advance
            // shared context; flush seals durable batches. All invalidate
            // speculation.
            state.epoch += 1;
            state.cache.clear();
        }
        let mut batch = std::mem::take(&mut state.staged);
        let id = Self::next_id(state);
        batch.push(Sqe {
            id,
            cmd: op,
            payload: None,
        });
        self.submit(batch)?;
        let cqe = self.ring.complete(id)?;
        Ok((cqe.reply, cqe.data))
    }
}

impl std::fmt::Debug for RingDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingDriver")
            .field("strategy", &self.strategy)
            .field("depth", &self.ring.depth())
            .finish_non_exhaustive()
    }
}

impl Transport<OpMux> for RingDriver {
    fn crossing(&self) -> CrossingKind {
        self.ring.crossing()
    }

    fn charges_own_crossings(&self) -> bool {
        true
    }

    fn post(&self, cmd: Op, payload: &[u8]) -> afs_ipc::Result<()> {
        let Op::Write { offset, .. } = cmd else {
            return Err(IpcError::Unsupported);
        };
        self.stage_write(&mut self.state.lock(), offset, payload.to_vec())
    }

    fn call(&self, cmd: Op, out: &mut [u8]) -> afs_ipc::Result<OpReply> {
        let mut state = self.state.lock();
        let (reply, data) = match cmd {
            Op::Read { offset, len } => self.demand_read(&mut state, offset, len)?,
            op => self.sync_roundtrip(&mut state, op)?,
        };
        // More bytes than `out` holds: the reply goes back without them,
        // for the handle to reject.
        if let Some(data) = data {
            if let Some(dest) = out.get_mut(..data.len()) {
                dest.copy_from_slice(&data);
            }
        }
        Ok(reply)
    }
}

impl Drop for RingDriver {
    /// Acknowledged writes still staged go to the sentinel: dropping the
    /// handle without a close must not lose them.
    fn drop(&mut self) {
        let batch = std::mem::take(&mut self.state.get_mut().staged);
        let _ = self.submit(batch);
    }
}

/// The sentinel side of a batched wiring: one private session's wire
/// I/O, draining a [`RingPort`] instead of a mux loop's
/// [`PairPort`](afs_ipc::PairPort) and completing through the index.
struct RingDispatchTask {
    core: SentinelCore,
    port: RingPort<Op, OpReply>,
    session: Session,
}

impl RingDispatchTask {
    /// Serves one submission; `Ready` when the sentinel should terminate.
    /// Submissions are drained in order and staged writes precede the
    /// demand op in every batch, so a parked write-behind failure
    /// pre-empts the op the unbatched wiring would have failed. Writes
    /// post no completion, same as the unbatched loop's silence.
    fn serve(&mut self, sqe: Sqe<Op>) -> TaskPoll {
        let closing = matches!(sqe.cmd, Op::Close);
        let payload = sqe.payload.unwrap_or_default();
        let Some((reply, data)) = self.core.serve(&self.session, sqe.cmd, &payload) else {
            return TaskPoll::Pending;
        };
        let posted = self.port.post(Cqe {
            id: sqe.id,
            reply,
            data,
        });
        if closing || posted.is_err() {
            TaskPoll::Ready
        } else {
            TaskPoll::Pending
        }
    }
}

impl SentinelPoll for RingDispatchTask {
    fn poll(&mut self) -> TaskPoll {
        let mut drained = 0u64;
        loop {
            let sqe = match self.port.poll_sqe() {
                Ok(Some(sqe)) => sqe,
                Ok(None) => {
                    self.session.side.stats().note_queue_depth(drained);
                    return TaskPoll::Pending;
                }
                Err(_) => {
                    self.core.abandon();
                    return TaskPoll::Ready;
                }
            };
            drained += 1;
            if let TaskPoll::Ready = self.serve(sqe) {
                return TaskPoll::Ready;
            }
        }
    }

    fn abandon(&mut self) {
        self.core.abandon();
    }
}
