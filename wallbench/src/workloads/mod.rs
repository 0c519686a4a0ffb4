//! The three workloads. Each drives active files the way a legacy
//! application does — through `AfsWorld::api()` — from closed-loop client
//! threads that wait for every reply, and checks every output.

mod remote_scan;
mod shared_append;
mod small_io;

pub use small_io::section4_profile;

use std::sync::Arc;

use afs_core::{AfsWorld, Strategy};
use afs_interpose::ApiHandle;
use afs_sim::HardwareProfile;
use afs_telemetry::now_ns;
use afs_vfs::Vfs;
use afs_winapi::{FileApi, Handle, SeekMethod};

use crate::measure::{Run, Stop};
use crate::seams::{Seam, Seams, TIMED_MIRROR};
use crate::spans::SpanDrain;

/// Executor worker threads in every world, set explicitly so
/// `AFS_FLEET_WORKERS` cannot change a run.
pub const FLEET_WORKERS: usize = 2;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["small-io", "remote-scan", "shared-append"];

/// One set-up workload over its own world.
pub trait Workload {
    fn world(&self) -> &AfsWorld;

    /// Runs the closed loop until `stop`. In traced runs `drain` is given
    /// and is called after every session.
    fn run(&mut self, stop: Stop, drain: Option<&SpanDrain>) -> Run;

    /// Output checks that need the run to be over, counted into `run`.
    fn verify(&mut self, run: &mut Run);
}

/// Builds the world and inputs of workload `name` from `seed`. With
/// `seams`, the world is the traced variant: its active files run the
/// timed mirror and its remote services are wrapped in timers.
pub fn setup(name: &str, seed: u64, seams: Option<Arc<Seams>>) -> Box<dyn Workload> {
    match name {
        "small-io" => Box::new(small_io::SmallIo::setup(seed, seams)),
        "remote-scan" => Box::new(remote_scan::RemoteScan::setup(seed, seams)),
        "shared-append" => Box::new(shared_append::SharedAppend::setup(seed, seams)),
        other => panic!("unknown workload {other}"),
    }
}

/// A world under the `free` profile (wall clock only) with an explicit
/// seed and executor size, every standard sentinel, and — when traced —
/// the timed mirror; over `vfs` when given, else over a fresh file system.
fn build_world(seed: u64, seams: Option<&Arc<Seams>>, vfs: Option<Arc<Vfs>>) -> AfsWorld {
    let mut builder = AfsWorld::builder()
        .profile(HardwareProfile::free())
        .fleet_workers(FLEET_WORKERS)
        .seed(seed);
    if let Some(vfs) = vfs {
        builder = builder.vfs(vfs);
    }
    let world = builder.build();
    afs_sentinels::register_all(world.sentinels());
    if let Some(seams) = seams {
        seams.register_mirror(world.sentinels());
    }
    world
}

/// The sentinel active files name: the plain `mirror`, or its timed
/// wrapper in traced worlds.
fn mirror_name(seams: Option<&Arc<Seams>>) -> &'static str {
    if seams.is_some() {
        TIMED_MIRROR
    } else {
        "mirror"
    }
}

/// Metric-label index of a strategy.
fn strategy_index(strategy: Strategy) -> usize {
    match strategy {
        Strategy::ProcessControl => 0,
        Strategy::DllThread => 1,
        Strategy::DllOnly => 2,
        Strategy::Process => unreachable!("§4.1 streams are not benchmarked"),
    }
}

/// Runs `f`, returning its result and wall ns; records a span on `seam`
/// when given.
fn timed<R>(seam: Option<&Seam>, f: impl FnOnce() -> R) -> (R, u64) {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    if let Some(seam) = seam {
        seam.record(start, end);
    }
    (out, end.saturating_sub(start))
}

/// Positions `h` at `offset`, counting a failed seek.
fn seek(api: &ApiHandle, h: Handle, offset: u64, run: &mut Run) -> bool {
    let ok = api.set_file_pointer(h, offset as i64, SeekMethod::Begin) == Ok(offset);
    run.check(ok, || format!("SetFilePointer({offset}) failed"));
    ok
}
