//! The program's existing counters, read as before/after deltas: the cost
//! model (the same charges the virtual clock prices), the telemetry hub's
//! fleet/queue/ring/session/store gauges, and the network's traffic and
//! reliability counters.

use afs_core::AfsWorld;

macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// One reading of every counter the per-layer metrics use.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $(pub $field: u64,)*
        }

        impl Counts {
            /// Field-wise `self + other`.
            pub fn plus(&self, other: &Counts) -> Counts {
                Counts { $($field: self.$field + other.$field,)* }
            }

            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &Counts) -> Counts {
                Counts { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            /// `(name, value)` for every counter.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

counts! {
    crossings, syscalls, event_signals, pipe_messages, copies, copy_bytes,
    pool_reuses, pool_allocations,
    ring_batches, ring_ops, ring_readahead_hits,
    mux_coalesced_writes, mux_flushed_batches,
    polls, parks, wakeups, steals,
    wal_bytes, commits, fsyncs, checkpoints, recovered_records,
    rpcs, net_bytes, dropped, retries, failovers,
}

/// Counters whose value depends on thread timing on every workload, so the
/// count self-test reports them without requiring them to repeat.
/// `ring_*`: `RingDriver::harvest` polls speculative completions without
/// waiting, so how many one batch harvests depends on timing (a known
/// defect, left unfixed here). Executor polls/parks/wakeups/steals count
/// scheduler events, which by design depend on when worker threads run.
const TIMING_DEPENDENT: [&str; 7] = [
    "ring_batches",
    "ring_ops",
    "ring_readahead_hits",
    "polls",
    "parks",
    "wakeups",
    "steals",
];

/// On `shared-append` every IPC and store count depends on timing too:
/// how many staged writes the mux coalesces into one wire batch depends on
/// when the sentinel task runs, and with two clients, which open starts a
/// sentinel (replaying the WAL) and which close commits depends on how
/// the clients interleave.
const SHARED_APPEND_TIMING_DEPENDENT: [&str; 15] = [
    "crossings",
    "syscalls",
    "event_signals",
    "pipe_messages",
    "copies",
    "copy_bytes",
    "pool_reuses",
    "pool_allocations",
    "mux_coalesced_writes",
    "mux_flushed_batches",
    "wal_bytes",
    "commits",
    "fsyncs",
    "checkpoints",
    "recovered_records",
];

/// The counters `workload`'s count self-test does not require to repeat.
pub fn timing_dependent(workload: &str) -> Vec<&'static str> {
    let mut names = TIMING_DEPENDENT.to_vec();
    if workload.starts_with("shared-append") {
        names.extend(SHARED_APPEND_TIMING_DEPENDENT);
    }
    names
}

impl Counts {
    pub fn read(world: &AfsWorld) -> Counts {
        let cost = world.model().snapshot();
        let tel = world.telemetry();
        let gauges = tel.gauges().snapshot();
        let rings = tel.rings().snapshot();
        let sessions = tel.sessions().snapshot();
        let fleet = tel.fleet().snapshot();
        let store = tel.store().snapshot();
        let net = world.net().stats();
        let rel = world.net().reliability();
        Counts {
            crossings: cost.process_switches + cost.thread_switches,
            syscalls: cost.syscalls,
            event_signals: cost.event_signals,
            pipe_messages: cost.pipe_messages,
            copies: cost.copies,
            copy_bytes: cost.memcpy_bytes + cost.pipe_copy_bytes,
            pool_reuses: gauges.pool_reuses,
            pool_allocations: gauges.pool_allocations,
            ring_batches: rings.batches,
            ring_ops: rings.ops_submitted,
            ring_readahead_hits: rings.readahead_hits,
            mux_coalesced_writes: sessions.coalesced_writes,
            mux_flushed_batches: sessions.flushed_batches,
            polls: fleet.polls,
            parks: fleet.parks,
            wakeups: fleet.wakeups,
            steals: fleet.steals,
            wal_bytes: store.wal_bytes,
            commits: store.commits,
            fsyncs: store.fsyncs,
            checkpoints: store.checkpoints,
            recovered_records: store.recovered_records,
            rpcs: net.rpcs,
            net_bytes: net.bytes_sent + net.bytes_received,
            dropped: net.dropped,
            retries: rel.retries,
            failovers: rel.failovers,
        }
    }
}
