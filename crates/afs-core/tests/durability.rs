//! Durable active files across world teardown: the interaction of
//! `AfsWorld::quiesce`/`Drop` with in-flight (staged, uncommitted) WAL
//! batches. The invariant under test: teardown either *commits* the
//! batch or *cleanly truncates* it — it never leaves a half-record on
//! the medium that recovery would misread as a torn write.

use std::sync::Arc;

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy, CTL_STORE_STATS};
use afs_store::wal;
use afs_vfs::{VPath, Vfs};
use afs_winapi::{Access, Disposition, FileApi};

fn durable_spec(strategy: Strategy) -> SentinelSpec {
    SentinelSpec::new("null", strategy)
        .backing(Backing::Disk)
        .with("durable", "on")
        .with("sync", "commit")
}

fn world_over(vfs: &Arc<Vfs>) -> AfsWorld {
    AfsWorld::builder().vfs(Arc::clone(vfs)).build()
}

fn read_all(world: &AfsWorld, path: &str) -> Vec<u8> {
    let api = world.api();
    let h = api
        .create_file(path, Access::read_only(), Disposition::OpenExisting)
        .expect("open for read");
    let mut out = Vec::new();
    let mut buf = [0u8; 64];
    loop {
        let n = api.read_file(h, &mut buf).expect("read");
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    api.close_handle(h).expect("close");
    out
}

/// The recovery half of every test: reopen over the surviving vfs and
/// assert the store recovered without a torn tail.
fn assert_clean_recovery(vfs: &Arc<Vfs>, path: &str) -> Vec<u8> {
    let world = world_over(vfs);
    let content = read_all(&world, path);
    let api = world.api();
    let h = api
        .create_file(path, Access::read_write(), Disposition::OpenExisting)
        .expect("reopen");
    let stats = api
        .device_io_control(h, CTL_STORE_STATS, b"")
        .expect("stats");
    let stats = String::from_utf8(stats).expect("utf8");
    assert!(
        stats.contains("torn=false"),
        "recovery must be clean, got: {stats}"
    );
    api.close_handle(h).expect("close");
    content
}

/// The on-disk WAL must always end exactly at a record boundary: scan it
/// raw and check nothing trails the committed prefix.
fn assert_wal_has_no_half_record(vfs: &Vfs, path: &str) {
    let vpath = VPath::parse(path).expect("path").with_stream("store.wal");
    let image = match vfs.read_stream_to_end(&vpath) {
        Ok(bytes) => bytes,
        // No WAL stream at all is the cleanest truncation there is.
        Err(_) => return,
    };
    let scan = wal::scan(&image);
    assert!(!scan.torn, "teardown left a torn WAL tail");
    assert_eq!(
        scan.committed_len,
        image.len() as u64,
        "teardown left uncommitted bytes in the WAL"
    );
}

#[test]
fn quiesce_commits_staged_writes_of_abandoned_sessions() {
    // Every wire a write can sit on when its handle is dropped: a
    // private wire, a contended shared sentinel (two opens), a batched
    // ring, and the inline §4.4 core, shared or private.
    let configs = [
        (Strategy::ProcessControl, None, 1),
        (Strategy::ProcessControl, None, 2),
        (Strategy::ProcessControl, Some(("batch", "on")), 1),
        (Strategy::DllThread, None, 1),
        (Strategy::DllThread, None, 2),
        (Strategy::DllThread, Some(("batch", "on")), 1),
        (Strategy::DllOnly, None, 1),
        (Strategy::DllOnly, None, 2),
        (Strategy::DllOnly, Some(("share", "off")), 1),
    ];
    for (strategy, key, opens) in configs {
        let label = format!("{strategy:?} {key:?} opens={opens}");
        let vfs = Arc::new(Vfs::new());
        {
            let world = world_over(&vfs);
            let mut spec = durable_spec(strategy);
            if let Some((key, value)) = key {
                spec = spec.with(key, value);
            }
            world
                .install_active_file("/journal.af", &spec)
                .expect("install");
            let api = world.api();
            let handles: Vec<_> = (0..opens)
                .map(|_| {
                    api.create_file(
                        "/journal.af",
                        Access::read_write(),
                        Disposition::OpenExisting,
                    )
                    .expect("open")
                })
                .collect();
            api.write_file(handles[0], b"staged but never flushed")
                .expect("write");
            // No flush, no close: the write is acknowledged but may still
            // be staged on the application side when the world is torn
            // down. Quiesce drops every handle, which must still deliver
            // it, and abandons the sentinel, which must run the close
            // hook and commit.
            world.quiesce();
            assert_wal_has_no_half_record(&vfs, "/journal.af");
        }
        let content = assert_clean_recovery(&vfs, "/journal.af");
        assert_eq!(
            content, b"staged but never flushed",
            "{label}: quiesce must commit the acknowledged write"
        );
    }
}

#[test]
fn dropping_the_world_mid_batch_never_leaves_a_half_record() {
    let vfs = Arc::new(Vfs::new());
    {
        let world = world_over(&vfs);
        world
            .install_active_file("/abrupt.af", &durable_spec(Strategy::DllOnly))
            .expect("install");
        let api = world.api();
        let h = api
            .create_file(
                "/abrupt.af",
                Access::read_write(),
                Disposition::OpenExisting,
            )
            .expect("open");
        api.write_file(h, b"doomed batch").expect("write");
        // Neither flush nor close nor quiesce: the world simply drops.
        let _ = h;
    }
    // Whatever happened, the WAL must not hold a partial record and
    // recovery must be clean: the batch either committed whole or
    // vanished whole.
    assert_wal_has_no_half_record(&vfs, "/abrupt.af");
    let content = assert_clean_recovery(&vfs, "/abrupt.af");
    assert!(
        content == b"doomed batch" || content.is_empty(),
        "recovered a half-written state: {content:?}"
    );
}

#[test]
fn explicit_flush_commits_before_the_crash() {
    let vfs = Arc::new(Vfs::new());
    {
        let world = world_over(&vfs);
        world
            .install_active_file("/flushed.af", &durable_spec(Strategy::DllOnly))
            .expect("install");
        let api = world.api();
        let h = api
            .create_file(
                "/flushed.af",
                Access::read_write(),
                Disposition::OpenExisting,
            )
            .expect("open");
        api.write_file(h, b"synced payload").expect("write");
        api.flush_file_buffers(h).expect("flush commits the batch");
        // Crash after the flush: the handle is never closed.
        let _ = h;
    }
    assert_wal_has_no_half_record(&vfs, "/flushed.af");
    let content = assert_clean_recovery(&vfs, "/flushed.af");
    assert_eq!(
        content, b"synced payload",
        "a flushed batch must survive an abrupt teardown"
    );
}
