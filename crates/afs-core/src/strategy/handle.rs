//! The one application-side handle behind every command-carrying
//! strategy.
//!
//! A [`StrategyHandle`] drives the [`Op`]/[`OpReply`] protocol over any
//! [`Transport`] — kernel pipes plus a control channel (§4.2), shared
//! memory plus user-level events (§4.3), the inline call path (§4.4), a
//! multiplexed session or a batched ring — with one `post` (a write) or
//! one `call` (everything else) per operation. The §4.1 stream has no
//! command lane and gets its own small handle
//! ([`StreamHandle`](super::process::StreamHandle)); both share the
//! per-op [`OpRecorder`].
//!
//! Every operation is recorded in an [`OpTrace`]: virtual elapsed time,
//! payload bytes, and the protection-domain crossings and buffer copies
//! charged while it ran, so a run can be audited against the per-strategy
//! cost table of §4. One caveat: writes are acknowledged eagerly
//! (write-behind), so sentinel-side charges for a write may land in a
//! *later* operation's record — per-op write costs are eventual, while
//! totals stay exact.

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{BufferPool, Transport};
use afs_sim::{clock, Cost, CostModel, CrossingKind, OpKind, OpTrace, TraceRecord};
use afs_telemetry::{now_ns, LatencyHistogram, Layer, SloTracker, SpanGuard, SpanScope, Telemetry};
use afs_winapi::{SeekMethod, Win32Error};

use crate::logic::SentinelError;
use crate::strategy::fence::PendingWrites;
use crate::strategy::mux::OpMux;
use crate::strategy::{reap, to_win32, ActiveOps, Op, OpObserver, OpReply, Reaper};

/// Every [`OpKind`] in [`op_index`] order, for the per-op histogram cache.
const OP_KINDS: [OpKind; 7] = [
    OpKind::Read,
    OpKind::ReadScatter,
    OpKind::Write,
    OpKind::Size,
    OpKind::Flush,
    OpKind::Control,
    OpKind::Close,
];

fn op_index(op: OpKind) -> usize {
    match op {
        OpKind::Read => 0,
        OpKind::ReadScatter => 1,
        OpKind::Write => 2,
        OpKind::Size => 3,
        OpKind::Flush => 4,
        OpKind::Control => 5,
        OpKind::Close => 6,
    }
}

/// The per-op bookkeeping every application-side handle shares: the
/// trace record, the SLO, the strategy span and the latency histograms.
pub(crate) struct OpRecorder {
    model: CostModel,
    trace: Arc<OpTrace>,
    strategy: &'static str,
    tel: Arc<Telemetry>,
    /// Publishes the in-flight op's trace context so the sentinel task can
    /// parent (and trace) its spans to the op it is serving, no matter
    /// which executor worker polls it.
    scope: Arc<SpanScope>,
    /// The file's SLO tracker, when objectives are declared in the spec.
    slo: Option<Arc<SloTracker>>,
    /// Per-(strategy, op) latency histograms, resolved once at open.
    hists: [Arc<LatencyHistogram>; 7],
}

impl OpRecorder {
    pub(crate) fn new(
        model: CostModel,
        trace: Arc<OpTrace>,
        strategy: &'static str,
        obs: &OpObserver,
    ) -> Self {
        OpRecorder {
            hists: OP_KINDS.map(|kind| obs.tel.strategy_hist(strategy, kind.label())),
            model,
            trace,
            strategy,
            tel: Arc::clone(&obs.tel),
            scope: Arc::clone(&obs.scope),
            slo: obs.slo.clone(),
        }
    }

    /// Opens a [`Layer::Transport`] span for the wire exchange of the
    /// current op (no-op while telemetry is disabled).
    pub(crate) fn transport_span(&self, name: &'static str) -> Option<SpanGuard> {
        self.tel.span_tagged(Layer::Transport, name, self.strategy)
    }

    /// Charges the two switches of one round trip across `crossing`.
    pub(crate) fn charge_round_trip(&self, crossing: CrossingKind) {
        for _ in 0..crossing.round_trip_switches() {
            self.model.charge(Cost::Crossing(crossing));
        }
    }

    /// Runs one operation under trace: the closure returns the result plus
    /// the payload byte count, and the wrapper attributes the virtual time
    /// and the cost-counter deltas that accrued meanwhile. With telemetry
    /// enabled it additionally opens the op's [`Layer::Strategy`] span
    /// (published through `scope` for sentinel-side parenting) and records
    /// the latency histogram for `(strategy, op)`.
    pub(crate) fn traced<R>(
        &self,
        op: OpKind,
        f: impl FnOnce() -> (Result<R, Win32Error>, u64),
    ) -> Result<R, Win32Error> {
        let tel_on = self.tel.enabled();
        let mut span = None;
        let mut tel_started = 0;
        if tel_on {
            span = self
                .tel
                .span_tagged(Layer::Strategy, op.label(), self.strategy);
            if let Some(sp) = &span {
                self.scope.publish(sp.context());
            }
            tel_started = now_ns();
        }
        let started = clock::now();
        let before = self.model.snapshot();
        let (result, bytes) = f();
        let elapsed_ns = clock::now().saturating_sub(started);
        let delta = self.model.snapshot().since(&before);
        self.trace.record(TraceRecord {
            strategy: self.strategy,
            op,
            bytes,
            elapsed_ns,
            crossings: delta.process_switches + delta.thread_switches,
            copies: delta.copies,
        });
        if let Some(slo) = &self.slo {
            // Virtual elapsed time, so burn rates are exact under the sim
            // clock and objectives survive telemetry being off.
            slo.record(elapsed_ns, result.is_err());
        }
        if tel_on {
            self.hists[op_index(op)].record(now_ns().saturating_sub(tel_started));
            if let Some(sp) = span.as_mut() {
                sp.set_bytes(bytes);
            }
        }
        result
    }
}

/// Application-side handle: one implementation of the full `ActiveOps`
/// surface, generic over where the sentinel lives.
pub(crate) struct StrategyHandle<T: Transport<OpMux>> {
    transport: T,
    rec: OpRecorder,
    pointer: Mutex<u64>,
    op_lock: Mutex<()>,
    sticky: Arc<Mutex<Option<SentinelError>>>,
    reaper: Mutex<Option<Reaper>>,
    /// Scratch buffers for scatter reassembly.
    pool: BufferPool,
    /// In-flight write accounting for a private open of a disk-backed
    /// file: every command waits out other opens' write-behind (see
    /// [`crate::strategy::fence`]).
    writes: Option<Arc<PendingWrites>>,
}

impl<T: Transport<OpMux>> StrategyHandle<T> {
    pub(crate) fn new(
        transport: T,
        model: CostModel,
        trace: Arc<OpTrace>,
        strategy: &'static str,
        sticky: Arc<Mutex<Option<SentinelError>>>,
        reaper: Option<Reaper>,
        obs: OpObserver,
    ) -> Self {
        StrategyHandle {
            transport,
            rec: OpRecorder::new(model, trace, strategy, &obs),
            pointer: Mutex::new(0),
            op_lock: Mutex::new(()),
            sticky,
            reaper: Mutex::new(reaper),
            pool: BufferPool::new(),
            writes: obs.writes,
        }
    }

    /// Before every command: lets other private opens' acknowledged
    /// writes land first, so this op observes (or overwrites) them in the
    /// order their `WriteFile` calls returned.
    fn wait_for_other_writers(&self) {
        if let Some(writes) = &self.writes {
            writes.wait_for_others();
        }
    }

    fn charge_round_trip(&self) {
        // A batching or multiplexing transport charges per transmitted
        // frame — a coalesced write crosses nothing.
        if !self.transport.charges_own_crossings() {
            self.rec.charge_round_trip(self.transport.crossing());
        }
    }

    fn check_sticky(&self) -> Result<(), Win32Error> {
        match self.sticky.lock().take() {
            Some(e) => Err(to_win32(&e)),
            None => Ok(()),
        }
    }

    /// One command round trip; reply bytes land in `out`.
    fn call(&self, op: Op, out: &mut [u8]) -> Result<OpReply, Win32Error> {
        self.transport
            .call(op, out)
            .map_err(|_| Win32Error::BrokenPipe)
    }

    /// The traced `GetSize` round trip. Callers must hold `op_lock`
    /// (parking_lot mutexes are not reentrant, so `seek` cannot simply
    /// call [`ActiveOps::size`] once it has serialised itself).
    fn size_locked(&self) -> Result<u64, Win32Error> {
        self.wait_for_other_writers();
        self.rec.traced(OpKind::Size, || {
            let _wire = self.rec.transport_span("round-trip");
            self.charge_round_trip();
            let r = match self.call(Op::GetSize, &mut []) {
                Ok(OpReply::Size(n)) => Ok(n),
                Ok(OpReply::Failed(e)) => Err(to_win32(&e)),
                _ => Err(Win32Error::BrokenPipe),
            };
            (r, 0)
        })
    }

    /// A traced read at the file pointer, shared by `read` and
    /// `read_scatter`: `op` builds the command from the pointer, the
    /// reply bytes land in `out`, and the pointer advances by what was
    /// read. Over-delivery is a protocol violation: accepting it would
    /// silently drop the excess bytes while advancing the pointer past
    /// what the caller saw, so the op fails (the transport has drained
    /// the wire).
    fn traced_read(
        &self,
        kind: OpKind,
        op: impl FnOnce(u64) -> Op,
        out: &mut [u8],
    ) -> Result<usize, Win32Error> {
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.rec.traced(kind, || {
            let _wire = self.rec.transport_span("round-trip");
            self.charge_round_trip();
            let mut pointer = self.pointer.lock();
            self.wait_for_other_writers();
            let result = match self.call(op(*pointer), out) {
                Ok(OpReply::Read { n }) if n as usize <= out.len() => Ok(n as usize),
                Ok(OpReply::Failed(e)) => Err(to_win32(&e)),
                _ => Err(Win32Error::BrokenPipe),
            };
            if let Ok(n) = result {
                *pointer += n as u64;
            }
            let n = *result.as_ref().unwrap_or(&0) as u64;
            (result, n)
        })
    }
}

impl<T: Transport<OpMux>> ActiveOps for StrategyHandle<T> {
    fn read(&self, buf: &mut [u8]) -> Result<usize, Win32Error> {
        let len = buf.len() as u32;
        self.traced_read(OpKind::Read, |offset| Op::Read { offset, len }, buf)
    }

    fn write(&self, data: &[u8]) -> Result<usize, Win32Error> {
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.wait_for_other_writers();
        self.rec.traced(OpKind::Write, || {
            let _wire = self.rec.transport_span("send");
            self.charge_round_trip();
            let mut pointer = self.pointer.lock();
            if let Some(writes) = &self.writes {
                writes.issued();
            }
            let result = (|| {
                let cmd = Op::Write {
                    offset: *pointer,
                    len: data.len() as u32,
                };
                if self.transport.post(cmd, data).is_err() {
                    // The write never reached a live sentinel.
                    if let Some(writes) = &self.writes {
                        writes.settle();
                    }
                    return Err(Win32Error::BrokenPipe);
                }
                if self.transport.crossing() == CrossingKind::None {
                    // §4.4: the sentinel routine ran inline on this call,
                    // so its error is already known — surface it now
                    // rather than write-behind style on a later op.
                    self.check_sticky()?;
                }
                *pointer += data.len() as u64;
                Ok(data.len())
            })();
            (result, data.len() as u64)
        })
    }

    fn seek(&self, offset: i64, method: SeekMethod) -> Result<u64, Win32Error> {
        // Seeks are resolved application-side: commands carry absolute
        // offsets, so moving the pointer costs nothing remote — except
        // End-relative seeks, which need the size. The whole resolve-and-
        // store runs under `op_lock`: a read/write interleaving between the
        // base query and the pointer store would make the stored position
        // stale, silently rewinding the file pointer.
        let _op = self.op_lock.lock();
        let base: i64 = match method {
            SeekMethod::Begin => 0,
            SeekMethod::Current => *self.pointer.lock() as i64,
            SeekMethod::End => {
                self.check_sticky()?;
                self.size_locked()? as i64
            }
        };
        let target = base
            .checked_add(offset)
            .ok_or(Win32Error::InvalidParameter)?;
        if target < 0 {
            return Err(Win32Error::InvalidParameter);
        }
        *self.pointer.lock() = target as u64;
        Ok(target as u64)
    }

    fn size(&self) -> Result<u64, Win32Error> {
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.size_locked()
    }

    fn read_scatter(&self, bufs: &mut [&mut [u8]]) -> Result<usize, Win32Error> {
        let lens: Vec<u32> = bufs.iter().map(|b| b.len() as u32).collect();
        let requested: usize = bufs.iter().map(|b| b.len()).sum();
        // The sentinel produces one contiguous message; it lands in pooled
        // scratch and is dealt out to the caller's buffers in order. The
        // deal-out is pointer shuffling inside the application, not a
        // transfer, so it is not charged.
        let mut scratch = self.pool.take(requested);
        let result = self.traced_read(
            OpKind::ReadScatter,
            |offset| Op::ReadScatter { offset, lens },
            &mut scratch,
        );
        if let Ok(n) = result {
            let mut dealt = 0;
            for buf in bufs.iter_mut() {
                if dealt >= n {
                    break;
                }
                let take = buf.len().min(n - dealt);
                buf[..take].copy_from_slice(&scratch[dealt..dealt + take]);
                dealt += take;
            }
        }
        self.pool.put(scratch);
        result
    }

    fn control(&self, code: u32, payload: &[u8]) -> Result<Vec<u8>, Win32Error> {
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.wait_for_other_writers();
        self.rec.traced(OpKind::Control, || {
            let _wire = self.rec.transport_span("round-trip");
            self.charge_round_trip();
            let op = Op::Control {
                code,
                payload: payload.to_vec(),
            };
            match self.call(op, &mut []) {
                Ok(OpReply::Control { payload: response }) => {
                    let bytes = (payload.len() + response.len()) as u64;
                    (Ok(response), bytes)
                }
                Ok(OpReply::Failed(e)) => (Err(to_win32(&e)), payload.len() as u64),
                _ => (Err(Win32Error::BrokenPipe), payload.len() as u64),
            }
        })
    }

    fn flush(&self) -> Result<(), Win32Error> {
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.wait_for_other_writers();
        self.rec.traced(OpKind::Flush, || {
            let _wire = self.rec.transport_span("round-trip");
            self.charge_round_trip();
            let r = match self.call(Op::Flush, &mut []) {
                Ok(OpReply::Done) => Ok(()),
                Ok(OpReply::Failed(e)) => Err(to_win32(&e)),
                _ => Err(Win32Error::BrokenPipe),
            };
            (r, 0)
        })
    }

    fn close(&self) -> Result<(), Win32Error> {
        let result = self.rec.traced(OpKind::Close, || {
            let _op = self.op_lock.lock();
            let _wire = self.rec.transport_span("round-trip");
            self.charge_round_trip();
            let r = match self.transport.call(Op::Close, &mut []) {
                Ok(OpReply::Done) => Ok(()),
                Ok(OpReply::Failed(e)) => Err(to_win32(&e)),
                Ok(_) => Err(Win32Error::BrokenPipe),
                // Sentinel already gone; close is idempotent.
                Err(_) => Ok(()),
            };
            (r, 0)
        });
        reap(&self.reaper);
        let sticky = self.check_sticky();
        result.and(sticky)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::HardwareProfile;

    /// A scripted wire that replies `Read { n }` to every call and fills
    /// as much of the destination as the reply announces — a sentinel
    /// that may deliver more than the caller requested.
    struct OverDeliver {
        n: u32,
    }

    impl Transport<OpMux> for OverDeliver {
        fn crossing(&self) -> CrossingKind {
            CrossingKind::InterProcess
        }

        fn post(&self, _cmd: Op, _payload: &[u8]) -> afs_ipc::Result<()> {
            Ok(())
        }

        fn call(&self, _cmd: Op, out: &mut [u8]) -> afs_ipc::Result<OpReply> {
            let n = (self.n as usize).min(out.len());
            out[..n].fill(0xAB);
            Ok(OpReply::Read { n: self.n })
        }
    }

    fn handle_over(n: u32) -> StrategyHandle<OverDeliver> {
        let tel = Telemetry::new();
        let obs = OpObserver {
            tel: Arc::clone(&tel),
            scope: Arc::new(SpanScope::default()),
            slo: None,
            writes: None,
        };
        StrategyHandle::new(
            OverDeliver { n },
            CostModel::new(HardwareProfile::pentium_ii_300()),
            Arc::new(OpTrace::new()),
            "Process",
            Arc::new(Mutex::new(None)),
            None,
            obs,
        )
    }

    #[test]
    fn scatter_over_delivery_is_a_protocol_error() {
        let _clock = clock::install(0);
        // 8 bytes requested across two buffers; the sentinel claims 12.
        let handle = handle_over(12);
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let before = *handle.pointer.lock();
        let err = handle
            .read_scatter(&mut [&mut a[..], &mut b[..]])
            .expect_err("over-delivery must fail");
        assert_eq!(err, Win32Error::BrokenPipe);
        assert_eq!(
            *handle.pointer.lock(),
            before,
            "pointer must not advance past a rejected transfer"
        );
    }

    #[test]
    fn scatter_exact_delivery_still_works() {
        let _clock = clock::install(0);
        let handle = handle_over(8);
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let n = handle
            .read_scatter(&mut [&mut a[..], &mut b[..]])
            .expect("exact delivery");
        assert_eq!(n, 8);
        assert_eq!(a, [0xAB; 4]);
        assert_eq!(b, [0xAB; 4]);
        assert_eq!(*handle.pointer.lock(), 8);
    }

    #[test]
    fn plain_read_over_delivery_cannot_overrun() {
        let _clock = clock::install(0);
        // `read` slices its own buffer by the reply count, so an
        // oversized reply fails before any copy can overrun.
        let handle = handle_over(64);
        let mut buf = [0u8; 8];
        // n=64 > buf.len()=8: the fill closure indexes buf[..n] — guard
        // rejects rather than panics.
        let r = handle.read(&mut buf);
        assert!(r.is_err(), "oversized read reply must not succeed");
    }
}
