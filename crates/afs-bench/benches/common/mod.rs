//! Shared setup for the wall-clock Figure 6 benches.
//!
//! These benches measure the *real* Rust implementation under Criterion
//! with a free cost model (no virtual time), while the `figure6` binary
//! reproduces the paper's absolute µs with the calibrated simulator. On
//! the wall clock the §4.2/§4.3 cost is the app↔sentinel handoff, not
//! the copies: `wallbench --workload small-io` (2-vCPU Xeon VM, p50 per
//! op, median of ten paired 20-s runs) measured Process 15.4 µs and
//! Thread 15.2 µs while every handoff parked, and 4.5 µs and 4.3 µs with
//! the spin-then-park handoff; DLL stays at 0.5 µs.

use std::sync::Arc;

use criterion::{BenchmarkId, Criterion};

use afs_bench::PathKind;
use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_net::Service;
use afs_remote::FileServer;
use afs_sim::HardwareProfile;
use afs_vfs::VPath;
use afs_winapi::{Access, Disposition, FileApi, SeekMethod};

/// Block sizes to sweep in wall-clock mode (a subset keeps bench runs
/// short).
pub const BLOCKS: [usize; 3] = [8, 128, 2048];

/// Strategies with seek support (the wall-clock loop rewinds between
/// reads).
pub const STRATEGIES: [Strategy; 3] = [
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

/// Builds a world + open handle for one configuration.
pub fn setup(
    path: PathKind,
    strategy: Strategy,
    bytes: usize,
) -> (AfsWorld, afs_interpose::ApiHandle, afs_winapi::Handle) {
    let world = AfsWorld::builder().profile(HardwareProfile::free()).build();
    afs_sentinels::register_all(world.sentinels());
    let file = "/bench.af";
    match path {
        PathKind::Remote => {
            let server = FileServer::new();
            server.seed("/blob", &vec![7u8; bytes]);
            world
                .net()
                .register("files", Arc::clone(&server) as Arc<dyn Service>);
            world
                .install_active_file(
                    file,
                    &SentinelSpec::new("mirror", strategy)
                        .with("service", "files")
                        .with("remote", "/blob"),
                )
                .expect("install");
        }
        PathKind::Disk | PathKind::Memory => {
            let backing = if path == PathKind::Disk {
                Backing::Disk
            } else {
                Backing::Memory
            };
            world
                .install_active_file(
                    file,
                    &SentinelSpec::new("mirror", strategy).backing(backing),
                )
                .expect("install");
            world
                .vfs()
                .write_stream_replace(&VPath::parse(file).expect("path"), &vec![7u8; bytes])
                .expect("seed");
        }
    }
    let api = world.api();
    let h = api
        .create_file(file, Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    (world, api, h)
}

/// Registers read and write benches for one panel.
pub fn bench_panel(c: &mut Criterion, path: PathKind, panel_name: &str) {
    let mut group = c.benchmark_group(format!("fig6_{panel_name}_read"));
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(700));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for strategy in STRATEGIES {
        for block in BLOCKS {
            let (_world, api, h) = setup(path, strategy, block.max(64));
            let mut buf = vec![0u8; block];
            group.bench_with_input(BenchmarkId::new(strategy.label(), block), &block, |b, _| {
                b.iter(|| {
                    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
                    api.read_file(h, &mut buf).expect("read")
                })
            });
            api.close_handle(h).expect("close");
        }
    }
    group.finish();

    let mut group = c.benchmark_group(format!("fig6_{panel_name}_write"));
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(700));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for strategy in STRATEGIES {
        for block in BLOCKS {
            let (_world, api, h) = setup(path, strategy, block.max(64));
            let buf = vec![0u8; block];
            group.bench_with_input(BenchmarkId::new(strategy.label(), block), &block, |b, _| {
                b.iter(|| {
                    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
                    api.write_file(h, &buf).expect("write")
                })
            });
            api.close_handle(h).expect("close");
        }
    }
    group.finish();
}
