//! The benchmark's own spans around public seams of the program, used only
//! in the traced run: a [`SentinelLogic`] wrapper delegating to the
//! `mirror` sentinel, and a [`Service`] wrapper around each `FileServer`.
//! Each seam keeps every duration (for percentiles) and the first few
//! thousand spans (for the chrome-trace file).

use std::sync::{Arc, Mutex};

use afs_core::{SentinelCtx, SentinelLogic, SentinelRegistry, SentinelResult};
use afs_net::Service;
use afs_sentinels::mirror::MirrorSentinel;
use afs_telemetry::{now_ns, Layer, SpanRecord};

/// Name the timed mirror is registered under in traced worlds.
pub const TIMED_MIRROR: &str = "wallbench-mirror";

const KEPT_SPANS: usize = 4096;

#[derive(Debug, Default)]
struct SeamLog {
    durations: Vec<u64>,
    spans: Vec<SpanRecord>,
}

/// One timed seam.
#[derive(Debug)]
pub struct Seam {
    name: &'static str,
    layer: Layer,
    log: Mutex<SeamLog>,
}

impl Seam {
    pub fn new(name: &'static str, layer: Layer) -> Arc<Self> {
        Arc::new(Seam {
            name,
            layer,
            log: Mutex::new(SeamLog::default()),
        })
    }

    /// Times `f` on the telemetry clock and records it.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let out = f();
        self.record(start, now_ns());
        out
    }

    pub fn record(&self, start: u64, end: u64) {
        let mut log = self.log.lock().expect("seam log poisoned");
        log.durations.push(end.saturating_sub(start));
        if log.spans.len() < KEPT_SPANS {
            log.spans.push(SpanRecord {
                id: 0,
                parent: 0,
                trace: 0,
                layer: self.layer,
                name: self.name,
                strategy: "",
                note: "wallbench seam",
                start,
                end,
                bytes: 0,
                thread: 0,
            });
        }
    }

    pub fn reset(&self) {
        *self.log.lock().expect("seam log poisoned") = SeamLog::default();
    }

    pub fn durations(&self) -> Vec<u64> {
        self.log
            .lock()
            .expect("seam log poisoned")
            .durations
            .clone()
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.log.lock().expect("seam log poisoned").spans.clone()
    }
}

/// The benchmark-side seams of one traced world.
#[derive(Debug)]
pub struct Seams {
    pub sentinel_read: Arc<Seam>,
    pub sentinel_write: Arc<Seam>,
    pub sentinel_flush: Arc<Seam>,
    pub remote_handle: Arc<Seam>,
    pub create_file: Arc<Seam>,
    pub close_handle: Arc<Seam>,
    pub passive_op: Arc<Seam>,
}

impl Seams {
    pub fn new() -> Arc<Self> {
        Arc::new(Seams {
            sentinel_read: Seam::new("wallbench.sentinel.read", Layer::Sentinel),
            sentinel_write: Seam::new("wallbench.sentinel.write", Layer::Sentinel),
            sentinel_flush: Seam::new("wallbench.sentinel.flush", Layer::Sentinel),
            remote_handle: Seam::new("wallbench.remote.handle", Layer::Backend),
            create_file: Seam::new("wallbench.CreateFile", Layer::Interpose),
            close_handle: Seam::new("wallbench.CloseHandle", Layer::Interpose),
            passive_op: Seam::new("wallbench.passive", Layer::Interpose),
        })
    }

    pub fn all(&self) -> [&Arc<Seam>; 7] {
        [
            &self.sentinel_read,
            &self.sentinel_write,
            &self.sentinel_flush,
            &self.remote_handle,
            &self.create_file,
            &self.close_handle,
            &self.passive_op,
        ]
    }

    /// Registers the timed mirror under [`TIMED_MIRROR`].
    pub fn register_mirror(self: &Arc<Self>, registry: &SentinelRegistry) {
        let seams = Arc::clone(self);
        registry.register(TIMED_MIRROR, move |_| {
            Box::new(TimedMirror {
                inner: MirrorSentinel::new(),
                seams: Arc::clone(&seams),
            })
        });
    }
}

/// Delegates every call to [`MirrorSentinel`], timing read, write and
/// flush.
struct TimedMirror {
    inner: MirrorSentinel,
    seams: Arc<Seams>,
}

impl SentinelLogic for TimedMirror {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.inner.on_open(ctx)
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        let inner = &mut self.inner;
        self.seams
            .sentinel_read
            .time(|| inner.read(ctx, offset, buf))
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        let inner = &mut self.inner;
        self.seams
            .sentinel_write
            .time(|| inner.write(ctx, offset, data))
    }

    fn len(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        self.inner.len(ctx)
    }

    fn control(
        &mut self,
        ctx: &mut SentinelCtx,
        code: u32,
        payload: &[u8],
    ) -> SentinelResult<Vec<u8>> {
        self.inner.control(ctx, code, payload)
    }

    fn flush(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let inner = &mut self.inner;
        self.seams.sentinel_flush.time(|| inner.flush(ctx))
    }

    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.inner.on_close(ctx)
    }
}

/// Times every request a remote service handles.
pub struct TimedService {
    pub inner: Arc<dyn Service>,
    pub seam: Arc<Seam>,
}

impl Service for TimedService {
    fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
        self.seam.time(|| self.inner.handle(request))
    }

    fn handle_cast(&self, request: &[u8]) {
        self.seam.time(|| self.inner.handle_cast(request));
    }
}
