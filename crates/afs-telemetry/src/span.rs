//! The span model: one record per layer an operation passes through.
//!
//! A span is opened with [`Telemetry::span`] (or a sibling) and closed when
//! the returned [`SpanGuard`] drops. Parentage is established two ways:
//!
//! * **Same thread** — a thread-local stack of open frames; a new span
//!   parents to the innermost open span created by the *same* `Telemetry`
//!   instance. This covers interpose → strategy → transport nesting on the
//!   application thread, and the inline §4.4 sentinel.
//! * **Cross thread** — the strategy handle publishes the current
//!   [`TraceContext`] (trace id + strategy span id) in a shared
//!   [`SpanScope`] cell; the sentinel side opens its span with
//!   [`Telemetry::span_in_context`], re-parenting to the originating op
//!   no matter which executor worker polls the task. Write-behind means a
//!   sentinel-side write span can *outlive* its parent; parentage is
//!   attribution there, strict containment is only guaranteed for
//!   synchronous reads (see `docs/OBSERVABILITY.md`).
//!
//! Every span belongs to a **trace**: a root span mints the trace id (its
//! own span id), and children inherit it through frames, scope cells, or
//! an explicit [`TraceContext`], so one causal trace covers interpose →
//! strategy → executor poll → net RPC → remote backend even across retry,
//! failover, and work-stealing boundaries.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock};
use std::time::Instant;

use afs_sim::clock;
use parking_lot::Mutex;

use crate::counters::{Counter, CounterSet};
use crate::flight::FlightRecorder;
use crate::gauges::{
    ClusterGauges, FleetGauges, QueueGauges, RingGauges, SentinelStats, SentinelStatsSnapshot,
    SessionGauges, StoreGauges,
};
use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::slo::{SloSpec, SloTracker};

/// Which layer of the interposition chain a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layer {
    /// Win32 API entry in the interposition layer (`ReadFile`, ...).
    #[default]
    Interpose,
    /// Strategy-handle operation (one per `OpTrace` record).
    Strategy,
    /// Transport interaction: pipe stream, control round trip, or inline
    /// dispatch.
    Transport,
    /// Sentinel-side execution of the operation.
    Sentinel,
    /// Remote file server, cache store, or other backing-store work.
    Backend,
    /// Reliability-layer recovery: retry backoff, replica failover, and
    /// circuit-breaker probing around a remote call.
    Retry,
}

impl Layer {
    /// Short human-readable label (also the chrome-trace category).
    pub fn label(self) -> &'static str {
        match self {
            Layer::Interpose => "interpose",
            Layer::Strategy => "strategy",
            Layer::Transport => "transport",
            Layer::Sentinel => "sentinel",
            Layer::Backend => "backend",
            Layer::Retry => "retry",
        }
    }
}

/// Propagated causal context: which trace an operation belongs to, which
/// span should parent the next child, and whether the trace is sampled.
/// This is what crosses session, executor, and RPC boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id — the root span's own id (0 = no active trace).
    pub trace: u64,
    /// Span id a child opened under this context parents to.
    pub parent: u64,
    /// Sampling bit: `false` means carriers may drop the context.
    pub sampled: bool,
}

impl TraceContext {
    /// Whether the context carries an active, sampled trace.
    pub fn is_active(&self) -> bool {
        self.sampled && self.trace != 0
    }
}

/// Cross-thread propagation cell: the application-side handle publishes
/// the in-flight op's [`TraceContext`] here, and the sentinel side reads
/// it to parent (and trace) its spans. One cell per session/handle — a
/// task migrated across executor workers by work-stealing still reads its
/// *own* cell, so sentinel-side spans re-parent to the originating op,
/// never to whatever the worker thread happens to be running.
///
/// The two fields are separate atomics; a torn read is impossible in
/// practice because the owning handle serialises its ops under `op_lock`
/// (trace is stored before parent, and loaded after).
#[derive(Debug, Default)]
pub struct SpanScope {
    span: AtomicU64,
    trace: AtomicU64,
}

impl SpanScope {
    /// Publishes the context children should adopt.
    pub fn publish(&self, ctx: TraceContext) {
        self.trace.store(ctx.trace, Ordering::Release);
        self.span.store(ctx.parent, Ordering::Release);
    }

    /// Reads the current context (unsampled when nothing is published).
    pub fn load(&self) -> TraceContext {
        let parent = self.span.load(Ordering::Acquire);
        TraceContext {
            trace: self.trace.load(Ordering::Acquire),
            parent,
            sampled: parent != 0,
        }
    }

    /// Clears the published context.
    pub fn clear(&self) {
        self.span.store(0, Ordering::Release);
        self.trace.store(0, Ordering::Release);
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
    /// Trace id: the root span's own id, shared by every span in the
    /// causal chain (equals `id` for roots).
    pub trace: u64,
    /// Layer of the chain this span covers.
    pub layer: Layer,
    /// Operation or site name (e.g. `"ReadFile"`, `"read"`, `"round-trip"`).
    pub name: &'static str,
    /// Strategy label when known (`"Process"`, `"Thread"`, ...), else `""`.
    pub strategy: &'static str,
    /// Annotation (interned), e.g. `"cause=breaker_open"` on a rejection
    /// span or `"session=3 file=/t.af"` on a mux sentinel span; `""` when
    /// unannotated.
    pub note: &'static str,
    /// Start timestamp, ns (virtual when a sim clock is installed).
    pub start: u64,
    /// End timestamp, ns.
    pub end: u64,
    /// Payload bytes attributed to the span (0 when not applicable).
    pub bytes: u64,
    /// Small per-thread integer id, for trace-viewer lanes.
    pub thread: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that exceeded the configured slow-op threshold, with the names of
/// its open ancestors at close time.
#[derive(Debug, Clone)]
pub struct SlowOp {
    /// The offending span.
    pub record: SpanRecord,
    /// Ancestor chain rendered outermost-first, e.g.
    /// `"ReadFile > read > round-trip"`.
    pub ancestry: String,
}

/// Default capacity of the preallocated span ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// Most slow-op reports retained.
const MAX_SLOW: usize = 64;

#[derive(Debug, Default)]
struct SpanRing {
    buf: Vec<SpanRecord>,
    head: usize,
    len: usize,
    pushed: u64,
}

impl SpanRing {
    fn ensure_capacity(&mut self, capacity: usize) {
        if self.buf.len() < capacity {
            self.buf.resize(capacity, SpanRecord::default());
        }
    }

    fn push(&mut self, record: SpanRecord) {
        let cap = self.buf.len();
        if cap == 0 {
            return;
        }
        if self.len == cap {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % cap;
        } else {
            let idx = (self.head + self.len) % cap;
            self.buf[idx] = record;
            self.len += 1;
        }
        self.pushed += 1;
    }

    fn snapshot(&self) -> Vec<SpanRecord> {
        let cap = self.buf.len().max(1);
        (0..self.len)
            .map(|i| self.buf[(self.head + i) % cap])
            .collect()
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.pushed = 0;
    }
}

/// An in-flight span, tracked so slow-op reports can render ancestry and
/// flight-recorder bundles can include the not-yet-finished chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenSpan {
    pub(crate) id: u64,
    pub(crate) parent: u64,
    pub(crate) trace: u64,
    pub(crate) name: &'static str,
    pub(crate) note: &'static str,
}

/// Interned `(strategy, op)` keys to their shared histograms.
type StrategyHists = Vec<((&'static str, &'static str), Arc<LatencyHistogram>)>;

/// The telemetry hub: span recorder, per-(strategy, op) and per-sentinel
/// latency histograms, and queue gauges. Cheap to clone behind an [`Arc`];
/// disabled instances cost one relaxed atomic load per would-be span.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    next_id: AtomicU64,
    slow_ns: AtomicU64,
    capacity: usize,
    ring: Mutex<SpanRing>,
    open: Mutex<Vec<OpenSpan>>,
    slow: Mutex<Vec<SlowOp>>,
    gauges: Arc<QueueGauges>,
    sessions: Arc<SessionGauges>,
    fleet: Arc<FleetGauges>,
    store: Arc<StoreGauges>,
    rings: Arc<RingGauges>,
    cluster: Arc<ClusterGauges>,
    flight: Arc<FlightRecorder>,
    slos: Mutex<Vec<Arc<SloTracker>>>,
    sentinel_stats: Mutex<Vec<(&'static str, Arc<SentinelStats>)>>,
    strategy_hists: Mutex<StrategyHists>,
    sentinel_hists: Mutex<Vec<(&'static str, Arc<LatencyHistogram>)>>,
}

impl Telemetry {
    /// Creates a disabled hub with the default span-ring capacity.
    pub fn new() -> Arc<Self> {
        Telemetry::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// Creates a disabled hub retaining up to `capacity` recent spans.
    pub fn with_span_capacity(capacity: usize) -> Arc<Self> {
        let flight = Arc::new(FlightRecorder::new());
        let store = Arc::new(StoreGauges::default());
        // Torn-tail detection in the durable store is a flight-recorder
        // trigger even though afs-store never sees the hub; likewise the
        // afs-ipc mux hub's session lifecycle feeds the `ipc` event ring.
        store.set_flight(Arc::clone(&flight));
        let sessions = Arc::new(SessionGauges::default());
        sessions.set_flight(Arc::clone(&flight));
        Arc::new(Telemetry {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            slow_ns: AtomicU64::new(0),
            capacity: capacity.max(1),
            ring: Mutex::new(SpanRing::default()),
            open: Mutex::new(Vec::new()),
            slow: Mutex::new(Vec::new()),
            gauges: Arc::new(QueueGauges::default()),
            sessions,
            fleet: Arc::new(FleetGauges::default()),
            store,
            rings: Arc::new(RingGauges::default()),
            cluster: Arc::new(ClusterGauges::default()),
            flight,
            slos: Mutex::new(Vec::new()),
            sentinel_stats: Mutex::new(Vec::new()),
            strategy_hists: Mutex::new(Vec::new()),
            sentinel_hists: Mutex::new(Vec::new()),
        })
    }

    /// Whether span/histogram recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Enabling preallocates the span ring so
    /// the per-op path never grows it.
    pub fn set_enabled(&self, on: bool) {
        if on {
            self.ring.lock().ensure_capacity(self.capacity);
        }
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Sets the slow-op threshold in nanoseconds (0 disables reporting).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// Current slow-op threshold in nanoseconds (0 = disabled).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// Opens a span parented to the innermost open span on this thread
    /// created by this hub (a root if there is none). Returns `None` when
    /// telemetry is disabled.
    pub fn span(self: &Arc<Self>, layer: Layer, name: &'static str) -> Option<SpanGuard> {
        self.begin(layer, name, "", "", None)
    }

    /// Like [`Telemetry::span`] but tags the span with a strategy label.
    pub fn span_tagged(
        self: &Arc<Self>,
        layer: Layer,
        name: &'static str,
        strategy: &'static str,
    ) -> Option<SpanGuard> {
        self.begin(layer, name, strategy, "", None)
    }

    /// Opens a span with an explicit parent id (0 for a root). The trace
    /// id is recovered from the open-span table when the parent is still
    /// in flight, so legacy callers keep causal continuity; prefer
    /// [`Telemetry::span_in_context`] where a [`TraceContext`] is at hand.
    pub fn span_with_parent(
        self: &Arc<Self>,
        layer: Layer,
        name: &'static str,
        strategy: &'static str,
        parent: u64,
    ) -> Option<SpanGuard> {
        let trace = if parent == 0 {
            0
        } else {
            self.open
                .lock()
                .iter()
                .find(|o| o.id == parent)
                .map_or(0, |o| o.trace)
        };
        self.begin(
            layer,
            name,
            strategy,
            "",
            Some(TraceContext {
                trace,
                parent,
                sampled: true,
            }),
        )
    }

    /// Opens a span under an explicit propagated [`TraceContext`] — the
    /// cross-boundary form used by sentinel-side execution (context read
    /// from a [`SpanScope`] cell) and RPC recovery. `note` annotates the
    /// span (`""` for none); an unsampled context still records, as a new
    /// root.
    pub fn span_in_context(
        self: &Arc<Self>,
        layer: Layer,
        name: &'static str,
        strategy: &'static str,
        ctx: TraceContext,
        note: &'static str,
    ) -> Option<SpanGuard> {
        self.begin(layer, name, strategy, note, Some(ctx))
    }

    fn begin(
        self: &Arc<Self>,
        layer: Layer,
        name: &'static str,
        strategy: &'static str,
        note: &'static str,
        ctx: Option<TraceContext>,
    ) -> Option<SpanGuard> {
        if !self.enabled() {
            return None;
        }
        let (parent, inherited) = match ctx {
            Some(ctx) => (ctx.parent, ctx.trace),
            None => current_context(self).map_or((0, 0), |c| (c.parent, c.trace)),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // A root (or a span whose parent's trace is unknown) mints the
        // trace: the trace id IS the root span's id.
        let trace = if inherited != 0 { inherited } else { id };
        self.open.lock().push(OpenSpan {
            id,
            parent,
            trace,
            name,
            note,
        });
        FRAMES.with(|frames| {
            frames.borrow_mut().push(Frame {
                tel: Arc::clone(self),
                span: id,
                trace,
            })
        });
        Some(SpanGuard {
            tel: Arc::clone(self),
            record: SpanRecord {
                id,
                parent,
                trace,
                layer,
                name,
                strategy,
                note,
                start: now_ns(),
                end: 0,
                bytes: 0,
                thread: thread_id(),
            },
        })
    }

    fn finish(&self, record: SpanRecord) {
        {
            let mut open = self.open.lock();
            if let Some(pos) = open.iter().position(|o| o.id == record.id) {
                open.swap_remove(pos);
            }
        }
        self.ring.lock().push(record);
        let slow = self.slow_ns.load(Ordering::Relaxed);
        if slow > 0 && record.duration_ns() >= slow {
            self.note_slow(record);
            self.flight_trigger(
                "slow_op",
                format!(
                    "name={} trace={} duration_ns={}",
                    record.name,
                    record.trace,
                    record.duration_ns()
                ),
            );
        }
    }

    /// Renders one ancestry entry: the span name, with its annotation in
    /// brackets when present (`read[session=3 file=/t.af]`).
    fn chain_entry(name: &str, note: &str) -> String {
        if note.is_empty() {
            name.to_owned()
        } else {
            format!("{name}[{note}]")
        }
    }

    fn note_slow(&self, record: SpanRecord) {
        let mut chain = vec![Self::chain_entry(record.name, record.note)];
        {
            let open = self.open.lock();
            let mut parent = record.parent;
            let mut hops = 0;
            while parent != 0 && hops < 16 {
                match open.iter().find(|o| o.id == parent) {
                    Some(anc) => {
                        chain.push(Self::chain_entry(anc.name, anc.note));
                        parent = anc.parent;
                    }
                    None => {
                        chain.push(format!("#{parent}"));
                        break;
                    }
                }
                hops += 1;
            }
        }
        chain.reverse();
        let mut slow = self.slow.lock();
        if slow.len() < MAX_SLOW {
            slow.push(SlowOp {
                record,
                ancestry: chain.join(" > "),
            });
        }
    }

    /// Copies out the retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.lock().snapshot()
    }

    /// Total spans ever recorded (survives ring eviction).
    pub fn span_count(&self) -> u64 {
        self.ring.lock().pushed
    }

    /// Discards retained spans and slow-op reports (histograms persist).
    pub fn clear_spans(&self) {
        self.ring.lock().clear();
        self.slow.lock().clear();
    }

    /// Slow-op reports collected so far (bounded).
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.slow.lock().clone()
    }

    /// The queue gauges fed by the IPC layer. Always live, even when span
    /// recording is off — gauges are a handful of relaxed atomics.
    pub fn gauges(&self) -> &Arc<QueueGauges> {
        &self.gauges
    }

    /// The shared-sentinel session gauges fed by the multiplexing layer.
    /// Always live, like the queue gauges.
    pub fn sessions(&self) -> &Arc<SessionGauges> {
        &self.sessions
    }

    /// The sentinel-executor fleet gauges fed by the sharded scheduler.
    /// Always live, like the queue gauges.
    pub fn fleet(&self) -> &Arc<FleetGauges> {
        &self.fleet
    }

    /// The durable page-store gauges fed by WAL-backed caches. Always
    /// live, like the queue gauges.
    pub fn store(&self) -> &Arc<StoreGauges> {
        &self.store
    }

    /// The submission/completion-ring gauges fed by the batching
    /// transports. Always live, like the queue gauges.
    pub fn rings(&self) -> &Arc<RingGauges> {
        &self.rings
    }

    /// The replicated-cluster gauges fed by the cluster client. Always
    /// live, like the queue gauges.
    pub fn cluster(&self) -> &Arc<ClusterGauges> {
        &self.cluster
    }

    /// Every hub-wide declared counter — queue, session, fleet, store,
    /// ring and cluster sets, in that order — with its current value.
    /// Per-sentinel stats are separate
    /// ([`Telemetry::sentinel_stats_snapshots`]): they carry a label.
    pub fn counters(&self) -> Vec<Counter> {
        let mut out = self.gauges.snapshot().counters();
        out.extend(self.sessions.snapshot().counters());
        out.extend(self.fleet.snapshot().counters());
        out.extend(self.store.snapshot().counters());
        out.extend(self.rings.snapshot().counters());
        out.extend(self.cluster.snapshot().counters());
        out
    }

    /// The always-on flight recorder: bounded per-subsystem event rings
    /// plus the post-mortem bundles captured on trigger.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Fires a flight-recorder trigger, capturing the recent finished
    /// spans and the in-flight open chain into a post-mortem bundle.
    /// `cause` is one of the documented trigger kinds (`breaker_open`,
    /// `degraded_enter`, `torn_tail`, `slow_op`).
    pub fn flight_trigger(&self, cause: &'static str, detail: String) {
        let spans = self.ring.lock().snapshot();
        let open = self.open.lock().clone();
        self.flight.trigger(cause, detail, spans, &open);
    }

    /// Registers (or finds) the SLO tracker for one active file. `file`
    /// and `sentinel` are interned; `spec` is ignored for an existing
    /// registration (first open wins).
    pub fn slo_register(&self, file: &str, sentinel: &str, spec: SloSpec) -> Arc<SloTracker> {
        let file = intern(file);
        let mut slos = self.slos.lock();
        if let Some(t) = slos.iter().find(|t| t.file() == file) {
            return Arc::clone(t);
        }
        let t = Arc::new(SloTracker::new(file, intern(sentinel), spec));
        slos.push(Arc::clone(&t));
        t
    }

    /// Every registered SLO tracker, sorted by file path.
    pub fn slo_trackers(&self) -> Vec<Arc<SloTracker>> {
        let mut out: Vec<_> = self.slos.lock().iter().map(Arc::clone).collect();
        out.sort_by(|a, b| a.file().cmp(b.file()));
        out
    }

    /// Finds or creates the per-sentinel resource-accounting counters
    /// (ops, bytes in/out, errors, queue-depth peak) — the substrate
    /// quota throttling enforces against.
    pub fn sentinel_stats(&self, name: &str) -> Arc<SentinelStats> {
        let name = intern(name);
        let mut stats = self.sentinel_stats.lock();
        if let Some((_, s)) = stats.iter().find(|(n, _)| *n == name) {
            return Arc::clone(s);
        }
        let s = Arc::new(SentinelStats::default());
        stats.push((name, Arc::clone(&s)));
        s
    }

    /// Snapshots every per-sentinel resource counter set, sorted by name.
    pub fn sentinel_stats_snapshots(&self) -> Vec<(&'static str, SentinelStatsSnapshot)> {
        let mut out: Vec<_> = self
            .sentinel_stats
            .lock()
            .iter()
            .map(|(name, s)| (*name, s.snapshot()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Finds or creates the latency histogram for one (strategy, op) pair.
    pub fn strategy_hist(&self, strategy: &'static str, op: &'static str) -> Arc<LatencyHistogram> {
        let mut hists = self.strategy_hists.lock();
        if let Some((_, h)) = hists.iter().find(|((s, o), _)| *s == strategy && *o == op) {
            return Arc::clone(h);
        }
        let h = Arc::new(LatencyHistogram::new());
        hists.push(((strategy, op), Arc::clone(&h)));
        h
    }

    /// Finds or creates the latency histogram for one sentinel (by name;
    /// the name is interned).
    pub fn sentinel_hist(&self, name: &str) -> Arc<LatencyHistogram> {
        let name = intern(name);
        let mut hists = self.sentinel_hists.lock();
        if let Some((_, h)) = hists.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(LatencyHistogram::new());
        hists.push((name, Arc::clone(&h)));
        h
    }

    /// Snapshots every (strategy, op) histogram, sorted by key.
    pub fn strategy_hist_snapshots(
        &self,
    ) -> Vec<((&'static str, &'static str), HistogramSnapshot)> {
        let mut out: Vec<_> = self
            .strategy_hists
            .lock()
            .iter()
            .map(|(key, h)| (*key, h.snapshot()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Snapshots every per-sentinel histogram, sorted by name.
    pub fn sentinel_hist_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        let mut out: Vec<_> = self
            .sentinel_hists
            .lock()
            .iter()
            .map(|(name, h)| (*name, h.snapshot()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Sum of recorded nanoseconds across all (strategy, op) histograms —
    /// the histogram-derived replacement for ad-hoc start/stop timing.
    pub fn strategy_elapsed_total_ns(&self) -> u64 {
        self.strategy_hists
            .lock()
            .iter()
            .map(|(_, h)| h.snapshot().sum_ns)
            .sum()
    }
}

/// Closes its span when dropped, recording the finished [`SpanRecord`].
#[derive(Debug)]
pub struct SpanGuard {
    tel: Arc<Telemetry>,
    record: SpanRecord,
}

impl SpanGuard {
    /// The span's unique id (publish this for cross-thread parenting).
    pub fn id(&self) -> u64 {
        self.record.id
    }

    /// The trace id this span belongs to.
    pub fn trace(&self) -> u64 {
        self.record.trace
    }

    /// The [`TraceContext`] a child of this span should adopt — what the
    /// strategy handle publishes into its [`SpanScope`] cell.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.record.trace,
            parent: self.record.id,
            sampled: true,
        }
    }

    /// Attributes payload bytes to the span.
    pub fn set_bytes(&mut self, bytes: u64) {
        self.record.bytes = bytes;
    }

    /// Annotates the span (interned string), e.g. `"cause=breaker_open"`.
    pub fn set_note(&mut self, note: &'static str) {
        self.record.note = note;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record.end = now_ns();
        FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            if let Some(pos) = frames.iter().rposition(|f| f.span == self.record.id) {
                frames.remove(pos);
            }
        });
        self.tel.finish(self.record);
    }
}

struct Frame {
    tel: Arc<Telemetry>,
    span: u64,
    trace: u64,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    THREAD_ID.with(|slot| {
        if slot.get() == 0 {
            slot.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        slot.get()
    })
}

/// The innermost open frame on this thread created by `tel`, as the
/// [`TraceContext`] a new child of it should adopt.
fn current_context(tel: &Arc<Telemetry>) -> Option<TraceContext> {
    FRAMES.with(|frames| {
        frames
            .borrow()
            .iter()
            .rev()
            .find(|f| Arc::ptr_eq(&f.tel, tel))
            .map(|f| TraceContext {
                trace: f.trace,
                parent: f.span,
                sampled: true,
            })
    })
}

/// The innermost open frame on this thread from *any* hub: the hub plus
/// the context a child should adopt. This is how layers with no hub
/// reference (afs-net, afs-store) join the caller's trace.
fn top_frame() -> Option<(Arc<Telemetry>, TraceContext)> {
    FRAMES.with(|frames| {
        frames.borrow().last().map(|f| {
            (
                Arc::clone(&f.tel),
                TraceContext {
                    trace: f.trace,
                    parent: f.span,
                    sampled: true,
                },
            )
        })
    })
}

/// Opens a [`Layer::Backend`] span parented to the innermost open span on
/// this thread, using that span's own telemetry hub. Returns `None` (and
/// allocates nothing) when no span is open — which is also the
/// telemetry-disabled case, so backend code can call this unconditionally.
pub fn backend_span(name: &'static str) -> Option<SpanGuard> {
    let (tel, ctx) = top_frame()?;
    tel.span_in_context(Layer::Backend, name, "", ctx, "")
}

/// Opens a [`Layer::Retry`] span parented like [`backend_span`]. The
/// reliability layer in `afs-net` opens one when a remote call enters
/// recovery (backoff, failover, breaker probing), so retried operations
/// are visible in the span tree without any hub plumbed through.
pub fn retry_span(name: &'static str) -> Option<SpanGuard> {
    let (tel, ctx) = top_frame()?;
    tel.span_in_context(Layer::Retry, name, "", ctx, "")
}

/// Like [`retry_span`], but annotated at creation: the recovery loop
/// marks rejection, backoff, and failover spans with a `cause=` note.
pub fn retry_span_noted(name: &'static str, note: &'static str) -> Option<SpanGuard> {
    let (tel, ctx) = top_frame()?;
    tel.span_in_context(Layer::Retry, name, "", ctx, note)
}

/// Records a flight-recorder event against the hub of the innermost open
/// span on this thread. A no-op when no span is open (which is also the
/// telemetry-disabled case), so any layer can call it unconditionally.
pub fn flight_note(subsystem: &'static str, message: String) {
    if let Some((tel, _)) = top_frame() {
        tel.flight().note(subsystem, message);
    }
}

/// Fires a flight-recorder trigger against the hub of the innermost open
/// span on this thread (see [`Telemetry::flight_trigger`]). A no-op when
/// no span is open, like [`flight_note`].
pub fn flight_trigger(cause: &'static str, detail: String) {
    if let Some((tel, _)) = top_frame() {
        tel.flight_trigger(cause, detail);
    }
}

static WALL_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Current timestamp in nanoseconds: the virtual [`clock`] when one is
/// installed on this thread, else monotonic wall time from a process-wide
/// epoch (so the interactive shell still measures something real).
pub fn now_ns() -> u64 {
    if clock::is_active() {
        clock::now()
    } else {
        WALL_EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

static INTERNED: LazyLock<Mutex<HashSet<&'static str>>> = LazyLock::new(Mutex::default);

/// Interns a string, returning a `&'static str` (leaked once per distinct
/// value). Used for sentinel names so [`SpanRecord`] stays `Copy`.
pub fn intern(name: &str) -> &'static str {
    let mut table = INTERNED.lock();
    if let Some(existing) = table.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::new();
        assert!(tel.span(Layer::Interpose, "ReadFile").is_none());
        assert_eq!(tel.span_count(), 0);
        assert!(tel.spans().is_empty());
    }

    #[test]
    fn nested_spans_parent_on_the_same_thread() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        {
            let outer = tel.span(Layer::Interpose, "ReadFile").expect("outer");
            let outer_id = outer.id();
            {
                let inner = tel.span(Layer::Strategy, "read").expect("inner");
                assert_eq!(inner.record.parent, outer_id);
            }
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.layer == Layer::Strategy).unwrap();
        let outer = spans.iter().find(|s| s.layer == Layer::Interpose).unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start >= outer.start);
        assert!(inner.end <= outer.end);
    }

    #[test]
    fn explicit_parent_wins_over_stack() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        let _outer = tel.span(Layer::Interpose, "WriteFile").expect("outer");
        let cross = tel
            .span_with_parent(Layer::Sentinel, "write", "Process", 7777)
            .expect("cross");
        assert_eq!(cross.record.parent, 7777);
    }

    #[test]
    fn backend_span_requires_an_open_frame() {
        assert!(backend_span("remote-get").is_none());
        let tel = Telemetry::new();
        tel.set_enabled(true);
        let outer = tel.span(Layer::Strategy, "read").expect("outer");
        let nested = backend_span("remote-get").expect("nested");
        assert_eq!(nested.record.parent, outer.id());
    }

    #[test]
    fn ring_wraps_but_count_is_exact() {
        let tel = Telemetry::with_span_capacity(8);
        tel.set_enabled(true);
        for _ in 0..20 {
            let _s = tel.span(Layer::Strategy, "read");
        }
        assert_eq!(tel.spans().len(), 8);
        assert_eq!(tel.span_count(), 20);
    }

    #[test]
    fn slow_ops_capture_ancestry() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.set_slow_threshold_ns(1);
        let _clock = afs_sim::clock::install(0);
        {
            let _a = tel.span(Layer::Interpose, "ReadFile");
            let _b = tel.span(Layer::Strategy, "read");
            let _c = tel.span(Layer::Transport, "round-trip");
            afs_sim::clock::advance(5_000);
        }
        let slow = tel.slow_ops();
        assert!(!slow.is_empty());
        let deepest = slow
            .iter()
            .find(|s| s.record.name == "round-trip")
            .expect("transport span is slow");
        assert_eq!(deepest.ancestry, "ReadFile > read > round-trip");
    }

    #[test]
    fn interning_dedupes() {
        let a = intern("mirror-test-sentinel");
        let b = intern("mirror-test-sentinel");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn interning_returns_one_pointer_per_distinct_string() {
        let notes: Vec<String> = (0..512)
            .map(|i| format!("session={i} file=/intern-test.af"))
            .collect();
        let first: Vec<&'static str> = notes.iter().map(|n| intern(n)).collect();
        for (note, interned) in notes.iter().zip(&first) {
            assert_eq!(*interned, note.as_str());
            assert!(std::ptr::eq(intern(&note.clone()), *interned));
        }
        let distinct: HashSet<*const u8> = first.iter().map(|s| s.as_ptr()).collect();
        assert_eq!(distinct.len(), notes.len(), "different strings never share");
    }

    #[test]
    fn histograms_are_keyed_and_cached() {
        let tel = Telemetry::new();
        let h1 = tel.strategy_hist("DLL", "read");
        let h2 = tel.strategy_hist("DLL", "read");
        assert!(Arc::ptr_eq(&h1, &h2));
        h1.record(100);
        assert_eq!(tel.strategy_hist_snapshots()[0].1.count, 1);
        assert_eq!(tel.strategy_elapsed_total_ns(), 100);
        let s1 = tel.sentinel_hist("null");
        let s2 = tel.sentinel_hist("null");
        assert!(Arc::ptr_eq(&s1, &s2));
    }
}
