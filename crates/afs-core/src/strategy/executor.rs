//! The sharded sentinel executor: thousands of active files on a bounded
//! worker pool.
//!
//! The paper's §4.2/§4.3 strategies charge one dedicated thread per open
//! active file, which caps concurrent active files at OS-thread scale.
//! This module replaces thread-per-sentinel with M worker threads (default
//! one per core) multiplexing every poll-driven sentinel state machine
//! ([`SentinelPoll`]): a sentinel is *scheduled* only when its transport's
//! readiness waker fires, runs until its command lane is drained, then
//! parks without occupying a thread.
//!
//! Scheduling structures are striped into per-shard locks (the
//! cache-padded striping idiom): each shard owns a run queue and a slice
//! of the live-task table, a task's shard is a pure function of its id,
//! and workers pop from their home shard first, stealing from the others
//! only when home is empty. Virtual time is preserved exactly: each task
//! carries its own [`SimTime`] across polls, installed on whichever worker
//! polls it, so a sentinel's virtual timeline is identical to the one its
//! dedicated thread would have produced.
//!
//! A worker that finds every shard empty may spin briefly before it parks
//! (see [`Inner::spin_for_work`]): most wakes on the §4.2/§4.3 path follow
//! the previous reply within microseconds, and a futex park/wake pair
//! costs more than that. Spinning is wall-clock only and charges nothing.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use afs_ipc::{handoff, ChannelWaker};
use afs_sim::{clock, SimTime};
use afs_telemetry::FleetGauges;

thread_local! {
    /// `true` on any thread currently executing sentinel code — fleet
    /// workers and pinned sentinel threads. A sentinel spawned from such a
    /// thread must never be pooled: the spawning sentinel may block a
    /// worker waiting on the new one, and with every worker so occupied
    /// the pool deadlocks (§3 composition chains).
    static IN_SENTINEL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is running sentinel code (see
/// [`IN_SENTINEL`]).
pub(crate) fn in_sentinel_context() -> bool {
    IN_SENTINEL.with(Cell::get)
}

/// Default worker-pool bound M: the `AFS_FLEET_WORKERS` environment
/// variable when set to a positive integer, else one worker per core.
/// Malformed or zero values clamp (with a stderr warning) instead of
/// being silently ignored — see [`crate::env`].
pub(crate) fn default_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    crate::env::fleet_workers_from_env(cores)
}

/// Outcome of one sentinel poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskPoll {
    /// The command lane is drained; park until the waker fires again.
    Pending,
    /// The sentinel has terminated (close served or transport dead).
    Ready,
}

/// A resumable sentinel state machine: the executor-facing refactor of the
/// blocking dispatch loop. `poll` must drain everything currently
/// available and return instead of blocking on an empty command lane.
pub(crate) trait SentinelPoll: Send {
    /// Drains the transport; called only by one worker at a time.
    fn poll(&mut self) -> TaskPoll;

    /// Runs the sentinel's close hook without a transport exchange. Called
    /// exactly once, at executor shutdown, for a task whose application
    /// side never closed it — state still persists.
    fn abandon(&mut self);
}

/// Pads a shard to its own cache line so neighbouring shard locks do not
/// false-share (the striped-lock idiom).
#[repr(align(64))]
struct CachePadded<T>(T);

// Task scheduling states. Transitions:
//   IDLE -QUEUED-> (waker)   QUEUED -RUNNING-> (worker pops)
//   RUNNING -NOTIFIED-> (waker during poll, worker re-polls)
//   RUNNING -IDLE-> (poll returned Pending, no wake raced)
//   any -DONE-> (poll returned Ready)
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Completion cell standing in for a sentinel thread's `JoinHandle`: the
/// closing application waits on it and folds the final virtual time in.
#[derive(Default)]
pub(crate) struct TaskDone {
    state: Mutex<Option<SimTime>>,
    cv: Condvar,
}

impl TaskDone {
    fn finish(&self, final_time: SimTime) {
        *self.state.lock() = Some(final_time);
        self.cv.notify_all();
    }

    /// Whether the task has fully terminated.
    pub(crate) fn is_finished(&self) -> bool {
        self.state.lock().is_some()
    }

    /// Blocks until the task has fully terminated; returns its final
    /// virtual time.
    pub(crate) fn wait(&self) -> SimTime {
        let mut state = self.state.lock();
        while state.is_none() {
            self.cv.wait(&mut state);
        }
        state.expect("task completion recorded")
    }
}

struct TaskHandle {
    id: u64,
    state: AtomicU8,
    /// The state machine itself; taken (and dropped, closing its
    /// transport) when the task retires.
    task: Mutex<Option<Box<dyn SentinelPoll>>>,
    /// The task's virtual clock, carried across polls. `None` means the
    /// opener had no clock (wall-clock benchmarking mode).
    vtime: Mutex<Option<SimTime>>,
    done: Arc<TaskDone>,
}

struct Shard {
    /// Run queue: tasks with something to observe, awaiting a worker.
    queue: Mutex<VecDeque<Arc<TaskHandle>>>,
    /// This shard's stripe of the live-task table.
    tasks: Mutex<HashMap<u64, Arc<TaskHandle>>>,
}

/// Park/wake state of one pinned sentinel thread (a sentinel spawned from
/// inside another sentinel, kept off the pool so composition cannot
/// starve it).
#[derive(Default)]
struct PinnedLane {
    state: Mutex<PinnedState>,
    cv: Condvar,
}

#[derive(Default)]
struct PinnedState {
    notified: bool,
    shutdown: bool,
}

/// Occupancy of one executor shard, for diagnostics (`afsh fleet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShardStat {
    /// Shard index.
    pub shard: usize,
    /// Live sentinels whose id hashes to this shard.
    pub live: usize,
    /// Tasks currently waiting in this shard's run queue.
    pub queued: usize,
}

struct Inner {
    shards: Vec<CachePadded<Shard>>,
    worker_cap: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Lock + condvar idle workers park on; enqueuers notify under the
    /// lock so a wakeup cannot slip between a worker's last scan and its
    /// wait.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Tasks sitting in run queues, summed over shards. Updated under the
    /// shard lock with each push and pop, so it never undercounts what a
    /// worker could pop.
    queued: AtomicUsize,
    /// Set while the one designated worker spins for work before parking;
    /// enqueuers skip the futex notify while it is set (see
    /// [`Inner::spin_for_work`] for the handshake).
    spinning: AtomicBool,
    /// Workers currently parked on `idle_cv`.
    parked: AtomicUsize,
    /// Pinned sentinel threads, joined at shutdown *after* the pool
    /// drains: a pooled task's close hook may still round-trip to a
    /// pinned sentinel it composed over.
    pinned: Mutex<Vec<(Arc<PinnedLane>, JoinHandle<()>)>>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    live: AtomicU64,
    gauges: Arc<FleetGauges>,
}

/// The bounded, work-stealing scheduler all §4.2/§4.3 and mux sentinels
/// run on. One per [`ActiveFilesLayer`](crate::ActiveFilesLayer); shared
/// by every `ActiveFileSystem` the layer wraps.
pub(crate) struct SentinelExecutor {
    inner: Arc<Inner>,
}

impl SentinelExecutor {
    /// Creates an executor with `workers` worker threads (spawned lazily
    /// on first use) and a power-of-two shard count sized to stripe them.
    pub(crate) fn new(workers: usize, gauges: Arc<FleetGauges>) -> Arc<SentinelExecutor> {
        let worker_cap = workers.max(1);
        let shard_count = (worker_cap * 2).next_power_of_two().clamp(8, 64);
        let shards = (0..shard_count)
            .map(|_| {
                CachePadded(Shard {
                    queue: Mutex::new(VecDeque::new()),
                    tasks: Mutex::new(HashMap::new()),
                })
            })
            .collect();
        gauges.set_shards(shard_count as u64);
        Arc::new(SentinelExecutor {
            inner: Arc::new(Inner {
                shards,
                worker_cap,
                workers: Mutex::new(Vec::new()),
                idle: Mutex::new(()),
                idle_cv: Condvar::new(),
                queued: AtomicUsize::new(0),
                spinning: AtomicBool::new(false),
                parked: AtomicUsize::new(0),
                pinned: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                next_id: AtomicU64::new(0),
                live: AtomicU64::new(0),
                gauges,
            }),
        })
    }

    /// The configured worker-pool bound M.
    pub(crate) fn worker_cap(&self) -> usize {
        self.inner.worker_cap
    }

    /// Live sentinel tasks currently registered.
    pub(crate) fn live(&self) -> u64 {
        self.inner.live.load(Ordering::Acquire)
    }

    /// Workers currently parked (not running, scanning, or spinning).
    #[cfg(test)]
    pub(crate) fn parked_workers(&self) -> usize {
        self.inner.parked.load(Ordering::SeqCst)
    }

    /// Per-shard occupancy, for `afsh fleet`.
    pub(crate) fn shard_stats(&self) -> Vec<FleetShardStat> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| FleetShardStat {
                shard: i,
                live: shard.0.tasks.lock().len(),
                queued: shard.0.queue.lock().len(),
            })
            .collect()
    }

    /// Registers a new sentinel task. `build` receives the readiness waker
    /// to install on the task's command lane and returns the state
    /// machine; the task inherits the caller's virtual clock (like a
    /// spawned sentinel thread would) and is scheduled once immediately,
    /// covering anything that arrived before the waker was installed.
    ///
    /// The returned [`TaskDone`] is the executor's stand-in for a
    /// `JoinHandle`: close waits on it and syncs to the final time.
    pub(crate) fn spawn<F>(&self, build: F) -> Arc<TaskDone>
    where
        F: FnOnce(ChannelWaker) -> Box<dyn SentinelPoll>,
    {
        if in_sentinel_context() {
            // Spawned from inside a sentinel: pooling it could deadlock
            // (the spawner may block a worker waiting on it).
            return self.spawn_pinned(build);
        }
        let inner = &self.inner;
        Inner::ensure_workers(inner);
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let done = Arc::new(TaskDone::default());
        let handle = Arc::new(TaskHandle {
            id,
            // Born QUEUED: wakes during construction are satisfied by the
            // unconditional first schedule below.
            state: AtomicU8::new(QUEUED),
            task: Mutex::new(None),
            vtime: Mutex::new(clock::is_active().then(clock::now)),
            done: Arc::clone(&done),
        });
        let weak = Arc::downgrade(inner);
        let wake_handle = Arc::clone(&handle);
        let waker: ChannelWaker = Arc::new(move || {
            if let Some(inner) = weak.upgrade() {
                inner.wake(&wake_handle);
            }
        });
        *handle.task.lock() = Some(build(waker));
        inner
            .shard_of(id)
            .tasks
            .lock()
            .insert(id, Arc::clone(&handle));
        let live = inner.live.fetch_add(1, Ordering::AcqRel) + 1;
        inner.gauges.task_spawned(live);
        if inner.shutdown.load(Ordering::Acquire) {
            // Spawn raced executor teardown: no workers will ever poll, so
            // finish the task on the spot.
            inner.finish_inline(handle);
        } else {
            inner.enqueue(handle);
        }
        done
    }

    /// Registers a sentinel task on a dedicated thread instead of the
    /// pool. Used for §3 composition: a sentinel opened *by another
    /// sentinel* may be blocked on by its opener, so multiplexing it over
    /// the same bounded pool risks deadlock (every worker occupied by a
    /// blocked opener). The task keeps the executor's poll/waker
    /// interface — its thread just parks on a private lane between polls.
    pub(crate) fn spawn_pinned<F>(&self, build: F) -> Arc<TaskDone>
    where
        F: FnOnce(ChannelWaker) -> Box<dyn SentinelPoll>,
    {
        let inner = &self.inner;
        let done = Arc::new(TaskDone::default());
        let lane = Arc::new(PinnedLane::default());
        let waker_lane = Arc::clone(&lane);
        let waker: ChannelWaker = Arc::new(move || {
            let mut state = waker_lane.state.lock();
            state.notified = true;
            waker_lane.cv.notify_one();
        });
        let mut task = build(waker);
        let vtime = clock::is_active().then(clock::now);
        let live = inner.live.fetch_add(1, Ordering::AcqRel) + 1;
        inner.gauges.task_spawned(live);
        inner.gauges.task_pinned();
        if inner.shutdown.load(Ordering::Acquire) {
            // Raced executor teardown: run the task to quiescence here.
            let guard = vtime.map(clock::install);
            inner.gauges.poll();
            if matches!(task.poll(), TaskPoll::Pending) {
                task.abandon();
                inner.gauges.task_abandoned();
            }
            drop(task);
            let final_time = clock::is_active().then(clock::now).unwrap_or(0);
            drop(guard);
            let live = inner.live.fetch_sub(1, Ordering::AcqRel) - 1;
            inner.gauges.task_retired(live);
            done.finish(final_time);
            return done;
        }
        let thread_inner = Arc::clone(inner);
        let thread_lane = Arc::clone(&lane);
        let thread_done = Arc::clone(&done);
        let join = std::thread::Builder::new()
            .name("afs-fleet-pinned".to_owned())
            .spawn(move || {
                IN_SENTINEL.with(|flag| flag.set(true));
                let _guard = vtime.map(clock::install);
                let mut abandoned = false;
                'run: loop {
                    thread_inner.gauges.poll();
                    if matches!(task.poll(), TaskPoll::Ready) {
                        break 'run;
                    }
                    let mut state = thread_lane.state.lock();
                    loop {
                        if state.notified {
                            state.notified = false;
                            continue 'run;
                        }
                        if state.shutdown {
                            abandoned = true;
                            break 'run;
                        }
                        thread_lane.cv.wait(&mut state);
                    }
                }
                if abandoned {
                    task.abandon();
                    thread_inner.gauges.task_abandoned();
                }
                // Drop before `finish` so the sentinel's transport is
                // closed by the time the reaper returns, as with retire.
                drop(task);
                let live = thread_inner.live.fetch_sub(1, Ordering::AcqRel) - 1;
                thread_inner.gauges.task_retired(live);
                thread_done.finish(clock::is_active().then(clock::now).unwrap_or(0));
            })
            .expect("spawn pinned sentinel thread");
        inner.pinned.lock().push((lane, join));
        done
    }

    /// Deterministic teardown: joins every worker, then polls each
    /// remaining task to completion inline (abandoning — close hook still
    /// run — any whose application side is somehow still live), then
    /// releases and joins the pinned sentinel threads. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.inner.shutdown_and_drain();
    }
}

impl Drop for SentinelExecutor {
    fn drop(&mut self) {
        self.inner.shutdown_and_drain();
    }
}

impl Inner {
    fn shard_of(&self, id: u64) -> &Shard {
        &self.shards[id as usize & (self.shards.len() - 1)].0
    }

    fn ensure_workers(self: &Arc<Inner>) {
        let mut workers = self.workers.lock();
        if !workers.is_empty() || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        for index in 0..self.worker_cap {
            let inner = Arc::clone(self);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("afs-fleet-{index}"))
                    .spawn(move || inner.worker_loop(index))
                    .expect("spawn fleet worker"),
            );
        }
        self.gauges.set_workers(self.worker_cap as u64);
    }

    /// Readiness wakeup: schedule the task unless it is already scheduled,
    /// running (flag a re-poll), or done.
    fn wake(&self, task: &Arc<TaskHandle>) {
        loop {
            match task
                .state
                .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.gauges.wakeup();
                    self.enqueue(Arc::clone(task));
                    return;
                }
                Err(RUNNING) => {
                    if task
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                    // Raced a state change mid-poll; retry from the top.
                }
                Err(_) => return, // QUEUED, NOTIFIED, DONE: nothing to do
            }
        }
    }

    fn enqueue(&self, task: Arc<TaskHandle>) {
        let shard = self.shard_of(task.id);
        let depth = {
            let mut queue = shard.queue.lock();
            queue.push_back(task);
            self.queued.fetch_add(1, Ordering::SeqCst);
            queue.len()
        };
        self.gauges.note_queue_depth(depth as u64);
        // A spinning worker will see the task; `spin_for_work` explains
        // why skipping the notify then cannot lose the wakeup.
        if self.spinning.load(Ordering::SeqCst) {
            return;
        }
        self.notify_one();
    }

    fn notify_one(&self) {
        let _guard = self.idle.lock();
        self.idle_cv.notify_one();
    }

    /// Pops the next task from `shard`, keeping `queued` in step.
    fn pop(&self, shard: &Shard) -> Option<Arc<TaskHandle>> {
        let mut queue = shard.queue.lock();
        let task = queue.pop_front()?;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        Some(task)
    }

    /// Spins for work for the handoff spin budget before a worker parks.
    /// Returns `true` when a task was queued meanwhile (the worker rescans
    /// instead of parking).
    ///
    /// Only one worker spins at a time (the `spinning` CAS); the others
    /// park at once, so an idle pool burns at most one CPU, and only for
    /// the budget. While the flag is set enqueuers skip the futex notify,
    /// which is the point: the spinner picks the task up without a
    /// park/wake pair. The skip cannot lose a wakeup. The enqueuer raises
    /// `queued` and then loads `spinning`; the spinner clears `spinning`
    /// and then reloads `queued`, all SeqCst. In the single total order
    /// one of the two loads comes last and sees the other side's store:
    /// either the enqueuer sees the flag clear and notifies, or the
    /// spinner's reload sees the task and it rescans.
    fn spin_for_work(&self) -> bool {
        if self
            .spinning
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        handoff::spin_until(|| self.queued.load(Ordering::SeqCst) > 0);
        self.spinning.store(false, Ordering::SeqCst);
        let queued = self.queued.load(Ordering::SeqCst);
        if queued == 0 {
            self.gauges.spin_miss();
            return false;
        }
        self.gauges.spin_hit();
        if queued > 1 {
            // Enqueues during the spin skipped their notify; hand the
            // rest of the burst to a parked peer.
            self.notify_one();
        }
        true
    }

    fn worker_loop(self: Arc<Inner>, index: usize) {
        IN_SENTINEL.with(|flag| flag.set(true));
        let shard_count = self.shards.len();
        let home = index % shard_count;
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let mut found = None;
            for offset in 0..shard_count {
                if let Some(task) = self.pop(&self.shards[(home + offset) % shard_count].0) {
                    if offset != 0 {
                        self.gauges.steal();
                    }
                    found = Some(task);
                    break;
                }
            }
            match found {
                Some(task) => self.run(task),
                None => {
                    if self.spin_for_work() {
                        continue;
                    }
                    let mut guard = self.idle.lock();
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if self.queued.load(Ordering::SeqCst) > 0 {
                        continue;
                    }
                    self.gauges.park();
                    self.parked.fetch_add(1, Ordering::SeqCst);
                    self.idle_cv.wait(&mut guard);
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }

    /// Polls `task` until its lane is drained, re-polling if a wake raced
    /// the poll, under the task's own virtual clock.
    fn run(&self, task: Arc<TaskHandle>) {
        task.state.store(RUNNING, Ordering::Release);
        loop {
            match self.poll_once(&task) {
                None | Some(TaskPoll::Ready) => {
                    self.retire(&task);
                    return;
                }
                Some(TaskPoll::Pending) => {
                    match task.state.compare_exchange(
                        RUNNING,
                        IDLE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return,
                        Err(_) => {
                            // NOTIFIED raced in: drain again.
                            task.state.store(RUNNING, Ordering::Release);
                        }
                    }
                }
            }
        }
    }

    /// One clock-scoped poll; `None` means the task was already gone.
    fn poll_once(&self, task: &TaskHandle) -> Option<TaskPoll> {
        let mut cell = task.task.lock();
        let machine = cell.as_mut()?;
        let mut vtime = task.vtime.lock();
        let guard = vtime.map(clock::install);
        self.gauges.poll();
        let result = machine.poll();
        if guard.is_some() {
            *vtime = Some(clock::now());
        }
        drop(guard);
        Some(result)
    }

    /// Marks the task terminated: drop the state machine (closing its
    /// transport), unregister, and release anyone waiting in `reap`.
    fn retire(&self, task: &Arc<TaskHandle>) {
        let final_time = task.vtime.lock().unwrap_or(0);
        task.task.lock().take();
        task.state.store(DONE, Ordering::Release);
        self.shard_of(task.id).tasks.lock().remove(&task.id);
        let live = self.live.fetch_sub(1, Ordering::AcqRel) - 1;
        self.gauges.task_retired(live);
        task.done.finish(final_time);
    }

    /// Polls a task to completion on the current thread, abandoning it
    /// (close hook, no exchange) if it still has a live application side.
    fn finish_inline(&self, task: Arc<TaskHandle>) {
        task.state.store(RUNNING, Ordering::Release);
        match self.poll_once(&task) {
            None | Some(TaskPoll::Ready) => {}
            Some(TaskPoll::Pending) => {
                let mut cell = task.task.lock();
                if let Some(machine) = cell.as_mut() {
                    let mut vtime = task.vtime.lock();
                    let guard = vtime.map(clock::install);
                    machine.abandon();
                    if guard.is_some() {
                        *vtime = Some(clock::now());
                    }
                    drop(guard);
                    drop(vtime);
                    self.gauges.task_abandoned();
                }
                drop(cell);
            }
        }
        self.retire(&task);
    }

    fn shutdown_and_drain(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            // Second caller (e.g. Drop after an explicit shutdown): the
            // first pass already joined workers and drained every shard.
            return;
        }
        {
            let _guard = self.idle.lock();
            self.idle_cv.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
        // Every shard drains on this thread — deterministic teardown.
        for index in 0..self.shards.len() {
            loop {
                let task = {
                    let tasks = self.shards[index].0.tasks.lock();
                    tasks.values().next().cloned()
                };
                match task {
                    Some(task) => self.finish_inline(task),
                    None => break,
                }
            }
        }
        // Pinned sentinels last: a drained pool task's close hook may
        // have round-tripped to one, so they must outlive the drain.
        let pinned = std::mem::take(&mut *self.pinned.lock());
        for (lane, _) in &pinned {
            let mut state = lane.state.lock();
            state.shutdown = true;
            lane.cv.notify_all();
        }
        for (_, join) in pinned {
            let _ = join.join();
        }
        self.gauges.set_workers(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A sentinel stand-in: consumes ticks from a shared counter, becomes
    /// Ready once `closed` is set and the ticks are drained.
    struct TickTask {
        ticks: Arc<AtomicUsize>,
        consumed: Arc<AtomicUsize>,
        closed: Arc<AtomicBool>,
        abandoned: Arc<AtomicBool>,
        charge_per_tick: u64,
    }

    impl SentinelPoll for TickTask {
        fn poll(&mut self) -> TaskPoll {
            while self.ticks.load(Ordering::SeqCst) > 0 {
                self.ticks.fetch_sub(1, Ordering::SeqCst);
                self.consumed.fetch_add(1, Ordering::SeqCst);
                clock::advance(self.charge_per_tick);
            }
            if self.closed.load(Ordering::SeqCst) {
                TaskPoll::Ready
            } else {
                TaskPoll::Pending
            }
        }

        fn abandon(&mut self) {
            self.abandoned.store(true, Ordering::SeqCst);
        }
    }

    struct Fixture {
        ticks: Arc<AtomicUsize>,
        consumed: Arc<AtomicUsize>,
        closed: Arc<AtomicBool>,
        abandoned: Arc<AtomicBool>,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                ticks: Arc::new(AtomicUsize::new(0)),
                consumed: Arc::new(AtomicUsize::new(0)),
                closed: Arc::new(AtomicBool::new(false)),
                abandoned: Arc::new(AtomicBool::new(false)),
            }
        }

        fn task(&self, charge_per_tick: u64) -> Box<dyn SentinelPoll> {
            Box::new(TickTask {
                ticks: Arc::clone(&self.ticks),
                consumed: Arc::clone(&self.consumed),
                closed: Arc::clone(&self.closed),
                abandoned: Arc::clone(&self.abandoned),
                charge_per_tick,
            })
        }
    }

    #[test]
    fn task_runs_on_wake_and_completes() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(2, Arc::clone(&gauges));
        let fx = Fixture::new();
        let mut waker_slot = None;
        let done = exec.spawn(|waker| {
            waker_slot = Some(waker);
            fx.task(0)
        });
        let waker = waker_slot.expect("waker handed to build");
        fx.ticks.fetch_add(3, Ordering::SeqCst);
        waker();
        fx.closed.store(true, Ordering::SeqCst);
        waker();
        done.wait();
        assert_eq!(fx.consumed.load(Ordering::SeqCst), 3);
        assert_eq!(exec.live(), 0);
        let snap = gauges.snapshot();
        assert_eq!(snap.spawned, 1);
        assert_eq!(snap.sentinels, 0);
        assert!(snap.polls >= 1);
        assert_eq!(snap.workers, 2);
        assert!(!fx.abandoned.load(Ordering::SeqCst));
    }

    #[test]
    fn task_inherits_and_returns_virtual_time() {
        let _clock = clock::install(1_000);
        let exec = SentinelExecutor::new(1, Arc::new(FleetGauges::default()));
        let fx = Fixture::new();
        let mut waker_slot = None;
        let done = exec.spawn(|waker| {
            waker_slot = Some(waker);
            fx.task(10)
        });
        let waker = waker_slot.expect("waker");
        fx.ticks.fetch_add(5, Ordering::SeqCst);
        fx.closed.store(true, Ordering::SeqCst);
        waker();
        // Inherited 1_000, charged 5 ticks × 10 ns on worker threads.
        assert_eq!(done.wait(), 1_050);
    }

    #[test]
    fn many_tasks_share_bounded_workers() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(2, Arc::clone(&gauges));
        let fixtures: Vec<Fixture> = (0..64).map(|_| Fixture::new()).collect();
        let dones: Vec<_> = fixtures
            .iter()
            .map(|fx| {
                let mut slot = None;
                let done = exec.spawn(|waker| {
                    slot = Some(waker);
                    fx.task(0)
                });
                fx.ticks.fetch_add(2, Ordering::SeqCst);
                fx.closed.store(true, Ordering::SeqCst);
                slot.expect("waker")();
                done
            })
            .collect();
        for done in dones {
            done.wait();
        }
        let snap = gauges.snapshot();
        assert_eq!(snap.spawned, 64);
        assert_eq!(snap.sentinels, 0);
        assert_eq!(snap.workers, 2);
        assert!(snap.sentinels_peak <= 64);
        assert_eq!(exec.shard_stats().iter().map(|s| s.live).sum::<usize>(), 0);
    }

    /// Busy-waits until `done` holds, failing the test after `limit`.
    fn wait_for(limit: std::time::Duration, what: &str, done: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !done() {
            assert!(start.elapsed() < limit, "{what}: not within {limit:?}");
            std::thread::yield_now();
        }
    }

    /// The notify-skip handshake loses no wakeup: each wake lands as the
    /// idle spinner's budget runs out (the gap after the previous poll
    /// sweeps from 3/4 to 5/4 of the budget), so some land just before
    /// the spinner clears its flag and some just after. And an idle pool
    /// ends with every worker parked: nobody spins past the budget.
    #[test]
    fn wakes_at_the_spin_deadline_are_never_lost() {
        let limit = std::time::Duration::from_secs(10);
        for workers in [1, 2] {
            let gauges = Arc::new(FleetGauges::default());
            let exec = SentinelExecutor::new(workers, Arc::clone(&gauges));
            let fx = Fixture::new();
            let mut slot = None;
            let done = exec.spawn(|waker| {
                slot = Some(waker);
                fx.task(0)
            });
            let waker = slot.expect("waker");
            let budget = handoff::spin_budget();
            for cycle in 0..10_000usize {
                let gap = budget.mul_f64(0.75 + 0.05 * (cycle % 11) as f64);
                let idle = std::time::Instant::now();
                while idle.elapsed() < gap {
                    std::hint::spin_loop();
                }
                fx.ticks.fetch_add(1, Ordering::SeqCst);
                waker();
                wait_for(limit, "wake polled", || {
                    fx.consumed.load(Ordering::SeqCst) > cycle
                });
            }
            wait_for(limit, "every worker parked", || {
                exec.parked_workers() == workers
            });
            let snap = gauges.snapshot();
            assert!(snap.parks >= workers as u64);
            if !budget.is_zero() {
                assert!(snap.spin_hits + snap.spin_misses > 0);
            }
            fx.closed.store(true, Ordering::SeqCst);
            waker();
            done.wait();
            assert_eq!(fx.consumed.load(Ordering::SeqCst), 10_000);
        }
    }

    #[test]
    fn shutdown_abandons_unclosed_tasks_deterministically() {
        let gauges = Arc::new(FleetGauges::default());
        let exec = SentinelExecutor::new(2, Arc::clone(&gauges));
        let fx = Fixture::new();
        let done = exec.spawn(|_waker| fx.task(0));
        exec.shutdown();
        done.wait();
        assert!(fx.abandoned.load(Ordering::SeqCst));
        let snap = gauges.snapshot();
        assert_eq!(snap.abandoned, 1);
        assert_eq!(snap.sentinels, 0);
        assert_eq!(snap.workers, 0);
        // Idempotent.
        exec.shutdown();
    }
}
