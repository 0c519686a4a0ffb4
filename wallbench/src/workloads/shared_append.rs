//! `shared-append`: the write path. Two client threads stand for two
//! legacy applications appending to shared logs held in `durable=on`
//! disk-backed `mirror` files. The `process` and `thread` logs are opened
//! by both threads, so they run as mux-shared sessions; each thread also
//! has its own `thread` log with `batch=on ring_depth=8` (batched opens
//! are private, and two private durable stores over one file would
//! overwrite each other's commits); the `dll` log is shared. A session
//! writes 32 blocks of 64–512 B into the thread's own region of the file,
//! wrapping inside it, flushes every 8 writes, and closes. This exercises
//! write-behind staging, mux coalescing, ring batching, WAL group commit
//! at flush and close, and WAL replay when a log is reopened. Output
//! check: after the run every log is reopened — in the same world, then in
//! a fresh world over the same file system — and each thread's region is
//! read back against its shadow, which proves the WAL commit.
//!
//! The clients open the shared logs concurrently, as two legacy
//! applications would. When both open the same `durable=on` log at once,
//! the program loses committed writes and the read-back fails the run
//! (see "Known defect" in `README.md`).

use std::sync::Arc;

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_interpose::ApiHandle;
use afs_winapi::{Access, Disposition, FileApi};

use super::{build_world, mirror_name, seek, timed, Workload};
use crate::gen::Rng;
use crate::measure::{Run, Stop, Target};
use crate::seams::Seams;
use crate::spans::SpanDrain;

const CLIENTS: usize = 2;
const REGION: usize = 16 * 1024;
const WRITES_PER_SESSION: usize = 32;
const FLUSH_EVERY: usize = 8;
const MIN_WRITE: usize = 64;
const MAX_WRITE: usize = 512;

/// `(path, strategy, metric index, batched)` of every log.
const LOGS: [(&str, Strategy, usize, bool); 5] = [
    ("/logs/process.af", Strategy::ProcessControl, 0, false),
    ("/logs/thread.af", Strategy::DllThread, 1, false),
    ("/logs/thread-batch-0.af", Strategy::DllThread, 1, true),
    ("/logs/thread-batch-1.af", Strategy::DllThread, 1, true),
    ("/logs/dll.af", Strategy::DllOnly, 2, false),
];

/// The logs client `t` cycles through.
fn rotation(t: usize) -> [usize; 4] {
    [0, 1, 2 + t, 4]
}

struct Writer {
    id: usize,
    rng: Rng,
    /// Expected content of this writer's region, per log.
    shadow: Vec<Vec<u8>>,
    cursor: Vec<usize>,
}

pub struct SharedAppend {
    world: AfsWorld,
    seed: u64,
    seams: Option<Arc<Seams>>,
    writers: Vec<Writer>,
}

impl SharedAppend {
    pub fn setup(seed: u64, seams: Option<Arc<Seams>>) -> Self {
        let world = build_world(seed, seams.as_ref(), None);
        let api = world.api();
        let mut content = Rng::new(seed, 5);
        let mut initial = Vec::new();
        for (path, strategy, _, batched) in LOGS {
            let mut spec = SentinelSpec::new(mirror_name(seams.as_ref()), strategy)
                .backing(Backing::Disk)
                .with("durable", "on");
            if batched {
                spec = spec.with("batch", "on").with("ring_depth", "8");
            }
            world
                .install_active_file(path, &spec)
                .expect("install shared-append log");
            let data = content.bytes(CLIENTS * REGION);
            let h = api
                .create_file(path, Access::read_write(), Disposition::OpenExisting)
                .expect("open log for seeding");
            assert_eq!(api.write_file(h, &data), Ok(data.len()), "seed {path}");
            api.close_handle(h).expect("close seeded log");
            initial.push(data);
        }
        let writers = (0..CLIENTS)
            .map(|id| Writer {
                id,
                rng: Rng::new(seed, 6 + id as u64),
                shadow: initial
                    .iter()
                    .map(|data| data[id * REGION..(id + 1) * REGION].to_vec())
                    .collect(),
                cursor: vec![0; LOGS.len()],
            })
            .collect();
        SharedAppend {
            world,
            seed,
            seams,
            writers,
        }
    }

    /// Reads every log back through `api` against the writers' shadows.
    fn read_back(&self, api: &ApiHandle, when: &str, run: &mut Run) {
        let mut buf = vec![0u8; CLIENTS * REGION];
        for (log, (path, ..)) in LOGS.iter().enumerate() {
            let opened = api.create_file(path, Access::read_only(), Disposition::OpenExisting);
            run.check(opened.is_ok(), || {
                format!("{when}: CreateFile({path}) failed")
            });
            let Ok(h) = opened else { continue };
            let read = api.read_file(h, &mut buf);
            run.check(read == Ok(buf.len()), || {
                format!("{when}: ReadFile({path}) short")
            });
            for writer in &self.writers {
                let region = &buf[writer.id * REGION..(writer.id + 1) * REGION];
                run.check(region == writer.shadow[log].as_slice(), || {
                    format!("{when}: {path} region of writer {} differs", writer.id)
                });
            }
            run.check(api.close_handle(h).is_ok(), || {
                format!("{when}: CloseHandle({path}) failed")
            });
        }
    }
}

/// What one client thread shares with the others.
struct Client<'a> {
    api: ApiHandle,
    seams: Option<&'a Seams>,
}

impl Writer {
    fn session(&mut self, log: usize, client: &Client, run: &mut Run) {
        let Client { api, seams } = client;
        let (path, _, strategy, _) = LOGS[log];
        let target = Target::Active(strategy);
        let (opened, open_ns) = timed(seams.map(|s| &*s.create_file), || {
            api.create_file(path, Access::read_write(), Disposition::OpenExisting)
        });
        run.check(opened.is_ok(), || format!("CreateFile({path}) failed"));
        let Ok(h) = opened else { return };
        let mut buf = [0u8; MAX_WRITE];
        for w in 0..WRITES_PER_SESSION {
            let len = self.rng.range(MIN_WRITE, MAX_WRITE);
            if self.cursor[log] + len > REGION {
                self.cursor[log] = 0;
            }
            let at = self.cursor[log];
            if seek(api, h, (self.id * REGION + at) as u64, run) {
                let block = &mut buf[..len];
                self.rng.fill(block);
                let (written, ns) = timed(None, || api.write_file(h, block));
                let ok = written == Ok(len);
                run.check(ok, || format!("WriteFile({path}@{at}+{len}) failed"));
                run.op(target, ns);
                if ok {
                    self.shadow[log][at..at + len].copy_from_slice(block);
                    run.bytes += len as u64;
                    run.writes += 1;
                }
            }
            self.cursor[log] = at + len;
            if (w + 1) % FLUSH_EVERY == 0 {
                let (flushed, ns) = timed(None, || api.flush_file_buffers(h));
                run.check(flushed.is_ok(), || {
                    format!("FlushFileBuffers({path}) failed")
                });
                run.op(target, ns);
            }
        }
        let (closed, close_ns) = timed(seams.map(|s| &*s.close_handle), || api.close_handle(h));
        run.check(closed.is_ok(), || format!("CloseHandle({path}) failed"));
        run.open_ns.push(open_ns);
        run.close_ns.push(close_ns);
    }

    fn run(&mut self, client: &Client, stop: Stop, drain: Option<&SpanDrain>) -> Run {
        let mut run = Run::default();
        while !stop.done(run.sessions()) {
            for log in rotation(self.id) {
                self.session(log, client, &mut run);
                if let Some(drain) = drain {
                    run.drain_ns += drain.drain();
                }
            }
        }
        run
    }
}

impl Workload for SharedAppend {
    fn world(&self) -> &AfsWorld {
        &self.world
    }

    fn run(&mut self, stop: Stop, drain: Option<&SpanDrain>) -> Run {
        let started = std::time::Instant::now();
        let seams = self.seams.as_deref();
        let runs: Vec<Run> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .writers
                .iter_mut()
                .map(|writer| {
                    let client = Client {
                        api: self.world.api(),
                        seams,
                    };
                    scope.spawn(move || writer.run(&client, stop, drain))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let mut run = Run {
            client_threads: CLIENTS as u64,
            ..Run::default()
        };
        for r in runs {
            run.merge(r);
        }
        run.elapsed_ns = started.elapsed().as_nanos() as u64;
        run
    }

    fn verify(&mut self, run: &mut Run) {
        self.read_back(&self.world.api(), "reopen", run);
        let vfs = Arc::clone(self.world.vfs());
        let fresh = build_world(self.seed, self.seams.as_ref(), Some(vfs));
        self.read_back(&fresh.api(), "fresh world", run);
    }
}
