//! What one closed-loop client records, and the statistics over it.

use std::sync::mpsc;
use std::time::Instant;

use crate::gen::Rng;

/// The §4 strategies measured, in metric-label order.
pub const STRATEGIES: [&str; 3] = ["process", "thread", "dll"];

/// Which file a call went to: one of [`STRATEGIES`] by index, or the
/// passive no-interposition baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Active(usize),
    Passive,
}

/// When a closed loop stops: after a wall-clock budget, or after a fixed
/// number of sessions per client thread (the count self-test).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Instant),
    Sessions(u64),
}

impl Stop {
    pub fn done(self, sessions: u64) -> bool {
        match self {
            Stop::After(deadline) => Instant::now() >= deadline,
            Stop::Sessions(n) => sessions >= n,
        }
    }
}

/// Samples and tallies from one or more client threads or segments
/// (merged).
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Wall ns per data call (`ReadFile`/`WriteFile`/`FlushFileBuffers`),
    /// per strategy.
    pub op_ns: [Vec<u64>; 3],
    /// Wall ns per data call on the passive baseline file.
    pub passive_ns: Vec<u64>,
    /// `CreateFile` and `CloseHandle` wall ns per active session.
    pub open_ns: Vec<u64>,
    pub close_ns: Vec<u64>,
    /// Calls and output checks attempted, and how many failed or
    /// mis-verified.
    pub attempted: u64,
    pub failed: u64,
    /// Active-file data calls completed, and the verified payload bytes
    /// they moved.
    pub data_calls: u64,
    pub bytes: u64,
    /// Active-file `WriteFile` calls (the store's per-write base).
    pub writes: u64,
    /// Wall time the loop ran, and the part of it spent draining spans
    /// (subtracted when computing rates).
    pub elapsed_ns: u64,
    pub drain_ns: u64,
    pub client_threads: u64,
    /// Failure descriptions, capped, for the stderr report.
    pub errors: Vec<String>,
}

const MAX_ERRORS: usize = 16;

impl Run {
    /// Records one timed data call.
    pub fn op(&mut self, target: Target, ns: u64) {
        match target {
            Target::Active(s) => {
                self.op_ns[s].push(ns);
                self.data_calls += 1;
            }
            Target::Passive => self.passive_ns.push(ns),
        }
    }

    /// Counts one attempted call or check; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(what());
            }
        }
    }

    pub fn sessions(&self) -> u64 {
        self.open_ns.len() as u64
    }

    pub fn merge(&mut self, other: Run) {
        for (mine, theirs) in self.op_ns.iter_mut().zip(other.op_ns) {
            mine.extend(theirs);
        }
        self.passive_ns.extend(other.passive_ns);
        self.open_ns.extend(other.open_ns);
        self.close_ns.extend(other.close_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.data_calls += other.data_calls;
        self.bytes += other.bytes;
        self.writes += other.writes;
        self.elapsed_ns += other.elapsed_ns;
        self.drain_ns += other.drain_ns;
        let room = MAX_ERRORS.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    /// Seconds the loop measured: wall time minus the span-drain time of
    /// an average client thread.
    pub fn measured_s(&self) -> f64 {
        let drain = self.drain_ns / self.client_threads.max(1);
        self.elapsed_ns.saturating_sub(drain).max(1) as f64 / 1e9
    }

    pub fn ops_per_s(&self) -> f64 {
        self.data_calls as f64 / self.measured_s()
    }

    pub fn mb_per_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.measured_s()
    }

    /// Per-session `CreateFile` + `CloseHandle` ns.
    pub fn session_ns(&self) -> Vec<u64> {
        self.open_ns
            .iter()
            .zip(&self.close_ns)
            .map(|(o, c)| o + c)
            .collect()
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    *sorted.select_nth_unstable(rank - 1).1
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Bytes the compute probe fills per round, and its rounds.
const PROBE_BYTES: usize = 256 * 1024;
const PROBE_ROUNDS: usize = 4;
/// Round trips the handoff probe makes between two threads.
const PROBE_ROUND_TRIPS: u32 = 100;

/// One reading of the host probe, taken beside every segment. Neither part
/// calls program code, so a program change cannot move them; a run whose
/// readings are well above those of the runs it is compared with was taken
/// while the host was slow.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// Wall ns to fill a buffer from SplitMix64 and sum it: CPU speed.
    pub compute_ns: u64,
    /// Wall ns per round trip of a value between two threads that block
    /// on a channel: how fast a parked thread is woken, which the
    /// `process` and `thread` handoffs depend on.
    pub handoff_ns: u64,
}

pub fn host_probe() -> HostProbe {
    let started = Instant::now();
    let mut rng = Rng::new(0, 0);
    let mut buf = vec![0u8; PROBE_BYTES];
    let mut sum = 0u64;
    for _ in 0..PROBE_ROUNDS {
        rng.fill(&mut buf);
        sum = buf
            .iter()
            .fold(sum, |acc, &b| acc.wrapping_add(u64::from(b)));
    }
    std::hint::black_box(sum);
    let compute_ns = started.elapsed().as_nanos() as u64;

    let (to_peer, from_main) = mpsc::channel::<u32>();
    let (to_main, from_peer) = mpsc::channel::<u32>();
    let peer = std::thread::spawn(move || {
        for value in from_main {
            if to_main.send(value).is_err() {
                break;
            }
        }
    });
    let started = Instant::now();
    for value in 0..PROBE_ROUND_TRIPS {
        to_peer.send(value).expect("probe peer alive");
        from_peer.recv().expect("probe peer answers");
    }
    let handoff_ns = started.elapsed().as_nanos() as u64 / u64::from(PROBE_ROUND_TRIPS);
    drop(to_peer);
    peer.join().expect("probe peer panicked");
    HostProbe {
        compute_ns,
        handoff_ns,
    }
}
