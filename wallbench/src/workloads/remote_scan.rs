//! `remote-scan`: bytes and RPCs. One client thread opens one remote
//! `mirror` file per strategy, in strategy round-robin, and reads 8
//! sequential 64 KiB blocks of a seeded 4 MiB blob per session from a
//! seeded block. The blob is served over `afs-net` by a primary
//! `FileServer` that loses 1% of messages (`FaultPlan::loss_ppm`, seeded
//! by the world seed) and a replica named in `replicas=`, with `retry=3`,
//! so the retry/failover path runs without any call failing. Per read,
//! the strategies differ in copies while the wire encoding, the server
//! and recovery are common, so handoff is a minor share. Read-only: a cast
//! write dropped by loss would read back stale. Output check: every byte
//! against the seeded pattern.

use std::sync::Arc;

use afs_core::{AfsWorld, SentinelSpec, Strategy};
use afs_net::Service;
use afs_remote::FileServer;
use afs_winapi::{Access, Disposition, FileApi};

use super::{build_world, mirror_name, seek, strategy_index, timed, Workload};
use crate::gen::Rng;
use crate::measure::{Run, Stop, Target};
use crate::seams::{Seams, TimedService};
use crate::spans::SpanDrain;

const BLOB_BYTES: usize = 4 << 20;
const BLOCK: usize = 64 * 1024;
const READS_PER_SESSION: usize = 8;
const PRIMARY_LOSS_PPM: u64 = 10_000;
const STRATEGIES: [Strategy; 3] = [
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

pub struct RemoteScan {
    world: AfsWorld,
    seams: Option<Arc<Seams>>,
    blob: Vec<u8>,
    paths: [String; 3],
    rng: Rng,
}

impl RemoteScan {
    pub fn setup(seed: u64, seams: Option<Arc<Seams>>) -> Self {
        let world = build_world(seed, seams.as_ref(), None);
        let blob = Rng::new(seed, 3).bytes(BLOB_BYTES);
        for name in ["files", "files-b"] {
            let server = FileServer::new();
            server.seed("/blob", &blob);
            let service: Arc<dyn Service> = match &seams {
                Some(seams) => Arc::new(TimedService {
                    inner: server,
                    seam: Arc::clone(&seams.remote_handle),
                }),
                None => server,
            };
            let plan = world.net().register(name, service);
            if name == "files" {
                plan.loss_ppm(PRIMARY_LOSS_PPM);
            }
        }
        let paths = STRATEGIES.map(|strategy| {
            let path = format!(
                "/remote/{}.af",
                crate::measure::STRATEGIES[strategy_index(strategy)]
            );
            let spec = SentinelSpec::new(mirror_name(seams.as_ref()), strategy)
                .with("service", "files")
                .with("remote", "/blob")
                .with("retry", "3")
                .with("replicas", "files-b")
                .with("share", "off");
            world
                .install_active_file(&path, &spec)
                .expect("install remote-scan file");
            path
        });
        RemoteScan {
            world,
            seams,
            blob,
            paths,
            rng: Rng::new(seed, 4),
        }
    }

    fn session(&mut self, strategy: usize, run: &mut Run, buf: &mut [u8]) {
        let api = self.world.api();
        let seams = self.seams.as_deref();
        let path = &self.paths[strategy];
        let target = Target::Active(strategy);
        let blocks = BLOB_BYTES / BLOCK;
        let start = self.rng.below(blocks as u64) as usize;
        let (opened, open_ns) = timed(seams.map(|s| &*s.create_file), || {
            api.create_file(path, Access::read_only(), Disposition::OpenExisting)
        });
        run.check(opened.is_ok(), || format!("CreateFile({path}) failed"));
        let Ok(h) = opened else { return };
        let mut positioned = seek(&api, h, (start * BLOCK) as u64, run);
        for i in 0..READS_PER_SESSION {
            let block = (start + i) % blocks;
            if block == 0 && i > 0 {
                positioned = seek(&api, h, 0, run);
            }
            if !positioned {
                break;
            }
            let (read, ns) = timed(None, || api.read_file(h, buf));
            let expected = &self.blob[block * BLOCK..(block + 1) * BLOCK];
            let ok = read == Ok(BLOCK) && buf == expected;
            run.check(ok, || format!("ReadFile({path} block {block}) mismatch"));
            run.op(target, ns);
            if ok {
                run.bytes += BLOCK as u64;
            }
        }
        let (closed, close_ns) = timed(seams.map(|s| &*s.close_handle), || api.close_handle(h));
        run.check(closed.is_ok(), || format!("CloseHandle({path}) failed"));
        run.open_ns.push(open_ns);
        run.close_ns.push(close_ns);
    }
}

impl Workload for RemoteScan {
    fn world(&self) -> &AfsWorld {
        &self.world
    }

    /// Every read was checked against the blob as it returned.
    fn verify(&mut self, _run: &mut Run) {}

    fn run(&mut self, stop: Stop, drain: Option<&SpanDrain>) -> Run {
        let mut run = Run {
            client_threads: 1,
            ..Run::default()
        };
        let mut buf = vec![0u8; BLOCK];
        let started = std::time::Instant::now();
        while !stop.done(run.sessions()) {
            for strategy in 0..STRATEGIES.len() {
                self.session(strategy, &mut run, &mut buf);
                if let Some(drain) = drain {
                    run.drain_ns += drain.drain();
                }
            }
        }
        run.elapsed_ns = started.elapsed().as_nanos() as u64;
        run
    }
}
