//! `small-io`: per-call fixed cost. One client thread opens memory-backed
//! `mirror` files privately — 16 per strategy, chosen by Zipf — plus one
//! passive file of the same size, in strategy round-robin, and does 32
//! seek+op pairs per session: 64 B–1 KiB blocks at random offsets, 80%
//! reads. The network, store, ring and mux layers do no work here, so a
//! change to the cross-thread handoff (§4.2/§4.3) or to interpose and
//! strategy dispatch (§4.4) shows here and nowhere else. Output check: a
//! shadow copy of every file, including the workload's own writes.

use std::sync::Arc;

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_vfs::VPath;
use afs_winapi::{Access, Disposition, FileApi};

use super::{build_world, mirror_name, seek, strategy_index, timed, Workload};
use crate::gen::{Rng, Zipf};
use crate::measure::{Run, Stop, Target};
use crate::seams::Seams;
use crate::spans::SpanDrain;

const FILES_PER_STRATEGY: usize = 16;
const FILE_BYTES: usize = 32 * 1024;
const OPS_PER_SESSION: usize = 32;
const MIN_BLOCK: usize = 64;
const MAX_BLOCK: usize = 1024;
const READ_PERCENT: u64 = 80;
const STRATEGIES: [Strategy; 3] = [
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

struct File {
    path: String,
    target: Target,
    shadow: Vec<u8>,
}

pub struct SmallIo {
    world: AfsWorld,
    seams: Option<Arc<Seams>>,
    files: Vec<File>,
    /// `files` indices per strategy; the passive file is last.
    by_strategy: [Vec<usize>; 3],
    zipf: Zipf,
    rng: Rng,
}

impl SmallIo {
    pub fn setup(seed: u64, seams: Option<Arc<Seams>>) -> Self {
        let world = build_world(seed, seams.as_ref(), None);
        let mut content = Rng::new(seed, 1);
        let mut files = Vec::new();
        let mut by_strategy: [Vec<usize>; 3] = Default::default();
        for strategy in STRATEGIES {
            let s = strategy_index(strategy);
            for i in 0..FILES_PER_STRATEGY {
                let path = format!("/small/{}-{i:02}.af", crate::measure::STRATEGIES[s]);
                let spec = SentinelSpec::new(mirror_name(seams.as_ref()), strategy)
                    .backing(Backing::Memory)
                    .with("share", "off");
                world
                    .install_active_file(&path, &spec)
                    .expect("install small-io file");
                by_strategy[s].push(files.len());
                files.push(File {
                    path,
                    target: Target::Active(s),
                    shadow: content.bytes(FILE_BYTES),
                });
            }
        }
        files.push(File {
            path: "/small/passive.bin".to_owned(),
            target: Target::Passive,
            shadow: content.bytes(FILE_BYTES),
        });
        for file in &files {
            let path = VPath::parse(&file.path).expect("valid path");
            if file.target == Target::Passive {
                world.vfs().create_file(&path).expect("create passive file");
            }
            world
                .vfs()
                .write_stream_replace(&path, &file.shadow)
                .expect("seed small-io file");
        }
        let mut client = Rng::new(seed, 2);
        let zipf = Zipf::new(FILES_PER_STRATEGY, &mut client);
        SmallIo {
            world,
            seams,
            files,
            by_strategy,
            zipf,
            rng: client,
        }
    }

    fn session(&mut self, index: usize, run: &mut Run, buf: &mut [u8]) {
        let api = self.world.api();
        let seams = self.seams.as_deref();
        let file = &mut self.files[index];
        let active = file.target != Target::Passive;
        let (opened, open_ns) = timed(seams.filter(|_| active).map(|s| &*s.create_file), || {
            api.create_file(&file.path, Access::read_write(), Disposition::OpenExisting)
        });
        run.check(opened.is_ok(), || {
            format!("CreateFile({}) failed", file.path)
        });
        let Ok(h) = opened else { return };
        let op_seam = seams.filter(|_| !active).map(|s| &*s.passive_op);
        for _ in 0..OPS_PER_SESSION {
            let len = self.rng.range(MIN_BLOCK, MAX_BLOCK);
            let offset = self.rng.below((FILE_BYTES - len + 1) as u64) as usize;
            if !seek(&api, h, offset as u64, run) {
                continue;
            }
            let block = &mut buf[..len];
            let expected = &mut file.shadow[offset..offset + len];
            if self.rng.below(100) < READ_PERCENT {
                let (read, ns) = timed(op_seam, || api.read_file(h, block));
                let ok = read == Ok(len) && block == expected;
                run.check(ok, || {
                    format!("ReadFile({}@{offset}+{len}) mismatch", file.path)
                });
                run.op(file.target, ns);
                if ok && active {
                    run.bytes += len as u64;
                }
            } else {
                self.rng.fill(block);
                let (written, ns) = timed(op_seam, || api.write_file(h, block));
                let ok = written == Ok(len);
                run.check(ok, || {
                    format!("WriteFile({}@{offset}+{len}) failed", file.path)
                });
                run.op(file.target, ns);
                if ok {
                    expected.copy_from_slice(block);
                    if active {
                        run.bytes += len as u64;
                        run.writes += 1;
                    }
                }
            }
        }
        let (closed, close_ns) = timed(seams.filter(|_| active).map(|s| &*s.close_handle), || {
            api.close_handle(h)
        });
        run.check(closed.is_ok(), || {
            format!("CloseHandle({}) failed", file.path)
        });
        if active {
            run.open_ns.push(open_ns);
            run.close_ns.push(close_ns);
        }
    }
}

impl Workload for SmallIo {
    fn world(&self) -> &AfsWorld {
        &self.world
    }

    /// Reads every file back whole, so writes no later read touched are
    /// checked too.
    fn verify(&mut self, run: &mut Run) {
        let api = self.world.api();
        let mut buf = vec![0u8; FILE_BYTES];
        for file in &self.files {
            let opened =
                api.create_file(&file.path, Access::read_only(), Disposition::OpenExisting);
            run.check(opened.is_ok(), || {
                format!("reopen: CreateFile({}) failed", file.path)
            });
            let Ok(h) = opened else { continue };
            let read = api.read_file(h, &mut buf);
            run.check(read == Ok(FILE_BYTES) && buf == file.shadow, || {
                format!("reopen: {} differs from its shadow", file.path)
            });
            run.check(api.close_handle(h).is_ok(), || {
                format!("reopen: CloseHandle({}) failed", file.path)
            });
        }
    }

    fn run(&mut self, stop: Stop, drain: Option<&SpanDrain>) -> Run {
        let mut run = Run {
            client_threads: 1,
            ..Run::default()
        };
        let mut buf = vec![0u8; MAX_BLOCK];
        let started = std::time::Instant::now();
        let passive = self.files.len() - 1;
        // Strategy round-robin keeps the call mix identical across seeds;
        // Zipf picks the file within a strategy.
        while !stop.done(run.sessions()) {
            for s in 0..=STRATEGIES.len() {
                let index = if s == STRATEGIES.len() {
                    passive
                } else {
                    self.by_strategy[s][self.zipf.sample(&mut self.rng)]
                };
                self.session(index, &mut run, &mut buf);
                if let Some(drain) = drain {
                    run.drain_ns += drain.drain();
                }
            }
        }
        run.elapsed_ns = started.elapsed().as_nanos() as u64;
        run
    }
}

/// One row of the §4 per-read profile: `(strategy, crossings per read,
/// copies per read)`, from the program's own `OpTrace`.
pub type ProfileRow = (&'static str, f64, f64);

/// The read-only pass reproducing the §4 cost profile of each strategy:
/// one private memory-backed mirror file, 64 reads of 512 B, and the
/// crossings and copies the strategy handle recorded per read.
pub fn section4_profile(seed: u64) -> Vec<ProfileRow> {
    const READS: usize = 64;
    const BLOCK: usize = 512;
    STRATEGIES
        .iter()
        .map(|&strategy| {
            let world = build_world(seed, None, None);
            let path = "/profile.af";
            let spec = SentinelSpec::new("mirror", strategy)
                .backing(Backing::Memory)
                .with("share", "off");
            world.install_active_file(path, &spec).expect("install");
            let data = Rng::new(seed, 7).bytes(BLOCK);
            world
                .vfs()
                .write_stream_replace(&VPath::parse(path).expect("valid path"), &data)
                .expect("seed profile file");
            let api = world.api();
            let h = api
                .create_file(path, Access::read_only(), Disposition::OpenExisting)
                .expect("open profile file");
            let mut buf = [0u8; BLOCK];
            for _ in 0..READS {
                api.set_file_pointer(h, 0, afs_winapi::SeekMethod::Begin)
                    .expect("seek");
                assert_eq!(api.read_file(h, &mut buf), Ok(BLOCK), "profile read");
                assert_eq!(buf[..], data[..], "profile read content");
            }
            api.close_handle(h).expect("close profile file");
            let row = world
                .trace()
                .summary()
                .into_iter()
                .find(|row| row.strategy == strategy.label() && row.op == afs_sim::OpKind::Read)
                .expect("reads were traced");
            let label = crate::measure::STRATEGIES[strategy_index(strategy)];
            (label, row.crossings_per_op(), row.copies_per_op())
        })
        .collect()
}
