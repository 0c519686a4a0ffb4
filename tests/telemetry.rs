//! End-to-end telemetry: every application-visible operation on an active
//! file yields a span tree covering the interposition chain (interpose >
//! strategy > transport, plus sentinel/backend layers where the strategy
//! has them), the latency histograms agree with the op trace, and the
//! exporters emit valid, non-empty documents.

use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{
    chrome_trace, json_is_valid, json_snapshot, prometheus_text, FileServer, Layer, Service,
    SpanRecord,
};

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Process,
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

/// A world with one memory-backed null active file under `strategy`.
fn world_with(strategy: Strategy) -> (AfsWorld, &'static str) {
    let w = AfsWorld::new();
    register_standard_sentinels(&w);
    w.install_active_file(
        "/t.af",
        &SentinelSpec::new("null", strategy).backing(Backing::Memory),
    )
    .expect("install");
    let api = w.api();
    let h = api
        .create_file("/t.af", Access::read_write(), Disposition::OpenExisting)
        .expect("seed open");
    api.write_file(h, b"telemetry payload").expect("seed");
    api.close_handle(h).expect("seed close");
    (w, "/t.af")
}

/// Spans of the subtree rooted at `root`, found by walking parent links.
fn subtree<'a>(spans: &'a [SpanRecord], root: &'a SpanRecord) -> Vec<&'a SpanRecord> {
    let mut keep: Vec<&SpanRecord> = vec![root];
    let mut grew = true;
    while grew {
        grew = false;
        for s in spans {
            if keep.iter().any(|k| k.id == s.parent) && !keep.iter().any(|k| k.id == s.id) {
                keep.push(s);
                grew = true;
            }
        }
    }
    keep
}

#[test]
fn single_read_yields_a_span_tree_of_at_least_three_layers() {
    for strategy in ALL_STRATEGIES {
        let (w, file) = world_with(strategy);
        w.telemetry().set_enabled(true);
        let api = w.api();
        let h = api
            .create_file(file, Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 8];
        assert_eq!(api.read_file(h, &mut buf).expect("read"), 8);
        let spans = w.telemetry().spans();
        let root = spans
            .iter()
            .find(|s| s.name == "ReadFile")
            .unwrap_or_else(|| panic!("{strategy:?}: interpose root span recorded"));
        assert_eq!(root.parent, 0, "{strategy:?}: ReadFile is a root");
        assert_eq!(root.layer, Layer::Interpose);
        let tree = subtree(&spans, root);
        let mut layers: Vec<&str> = tree.iter().map(|s| s.layer.label()).collect();
        layers.sort_unstable();
        layers.dedup();
        assert!(
            layers.len() >= 3,
            "{strategy:?}: read tree spans >= 3 layers, got {layers:?}"
        );
        assert!(layers.contains(&"strategy") && layers.contains(&"transport"));
        api.close_handle(h).expect("close");
    }
}

#[test]
fn children_close_within_their_parents() {
    // Containment is checked for read-driven spans: write-behind sentinel
    // work is *attributed* to the strategy span via the scope cell but may
    // drain after it closes, and §4.1 pump chunks are deliberate roots.
    for strategy in ALL_STRATEGIES {
        let (w, file) = world_with(strategy);
        w.telemetry().set_enabled(true);
        let api = w.api();
        let h = api
            .create_file(file, Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 4];
        for _ in 0..3 {
            api.read_file(h, &mut buf).expect("read");
        }
        let spans = w.telemetry().spans();
        let read_roots: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.name == "ReadFile" && s.parent == 0)
            .collect();
        assert_eq!(read_roots.len(), 3, "{strategy:?}: one root per ReadFile");
        for root in read_roots {
            for child in subtree(&spans, root) {
                if child.id == root.id || child.thread != root.thread {
                    continue;
                }
                assert!(
                    child.start >= root.start && child.end <= root.end,
                    "{strategy:?}: same-thread child {} [{}, {}] inside root [{}, {}]",
                    child.name,
                    child.start,
                    child.end,
                    root.start,
                    root.end,
                );
            }
        }
        api.close_handle(h).expect("close");
    }
}

#[test]
fn strategy_span_counts_match_the_op_trace() {
    for strategy in ALL_STRATEGIES {
        let (w, file) = world_with(strategy);
        // Seeding ran with telemetry off but was traced; start both
        // observers from zero so the counts are comparable.
        w.trace().clear();
        w.telemetry().set_enabled(true);
        let api = w.api();
        let h = api
            .create_file(file, Access::read_write(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 4];
        for _ in 0..5 {
            api.read_file(h, &mut buf).expect("read");
        }
        api.write_file(h, b"x").expect("write");
        if strategy != Strategy::Process {
            // §4.1 has no control lane, so size queries are unsupported.
            api.get_file_size(h).expect("size");
        }
        api.close_handle(h).expect("close");
        let traced: u64 = w.trace().summary().iter().map(|row| row.count).sum();
        let strategy_spans = w
            .telemetry()
            .spans()
            .iter()
            .filter(|s| s.layer == Layer::Strategy)
            .count() as u64;
        assert_eq!(
            strategy_spans, traced,
            "{strategy:?}: one strategy span per traced op"
        );
        // The histograms agree too: total samples == traced ops.
        let hist_samples: u64 = w
            .telemetry()
            .strategy_hist_snapshots()
            .iter()
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(hist_samples, traced, "{strategy:?}: histogram coverage");
    }
}

#[test]
fn exporters_emit_valid_non_empty_documents() {
    let (w, file) = world_with(Strategy::DllThread);
    w.telemetry().set_enabled(true);
    let api = w.api();
    let h = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 16];
    api.read_file(h, &mut buf).expect("read");
    api.close_handle(h).expect("close");

    let snapshot = w.metrics().snapshot();
    let prom = prometheus_text(&snapshot);
    assert!(prom.contains("afs_ops_total{"), "{prom}");
    assert!(prom.contains("afs_op_latency_ns_count{"), "{prom}");
    assert!(prom.contains("quantile=\"0.99\""), "{prom}");
    let json = json_snapshot(&snapshot);
    assert!(json_is_valid(&json), "snapshot JSON parses: {json}");

    let trace = chrome_trace(&[("Thread", w.telemetry().spans())]);
    assert!(json_is_valid(&trace), "chrome trace parses");
    assert!(
        trace.contains("ReadFile") && trace.contains("\"ph\""),
        "chrome trace carries span events: {trace}"
    );
}

/// Every counter declared once in a counter set — the hub-wide sets, the
/// reliability set, and the per-sentinel set — reaches both exporters
/// exactly once, under its declared kind.
#[test]
fn every_declared_counter_is_exported_once() {
    use activefiles::{Counter, CounterKind, CounterSet, SentinelStatsSnapshot};

    // One active file, so exactly one sentinel exports its labelled set.
    let (w, _) = world_with(Strategy::DllOnly);
    let mut declared: Vec<Counter> = w.telemetry().counters();
    declared.extend(w.net().reliability().counters());
    declared.extend(SentinelStatsSnapshot::default().counters());
    assert!(
        declared.iter().any(|c| c.name == "afs_fleet_pinned_total"),
        "the pinned-sentinel counter is declared"
    );
    let mut names: Vec<&str> = declared.iter().map(|c| c.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), declared.len(), "metric names are unique");

    let snapshot = w.metrics().snapshot();
    let prom = prometheus_text(&snapshot);
    let doc = afs_telemetry::json::parse(&json_snapshot(&snapshot)).expect("metrics JSON");
    let exported = doc.as_object().expect("object")["metrics"]
        .as_array()
        .expect("metrics array");
    for counter in &declared {
        let lines = prom
            .lines()
            .filter(|l| {
                l.strip_prefix(counter.name)
                    .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
            })
            .count();
        assert_eq!(lines, 1, "{} in the Prometheus text", counter.name);
        let entries: Vec<_> = exported
            .iter()
            .filter_map(|m| m.as_object())
            .filter(|m| m["name"].as_str() == Some(counter.name))
            .collect();
        assert_eq!(entries.len(), 1, "{} in the JSON snapshot", counter.name);
        let kind = match counter.kind {
            CounterKind::Counter => "counter",
            CounterKind::Gauge => "gauge",
        };
        assert_eq!(entries[0]["type"].as_str(), Some(kind), "{}", counter.name);
        assert!(!counter.help.is_empty(), "{} has help text", counter.name);
    }
}

#[test]
fn disabled_telemetry_records_nothing() {
    let (w, file) = world_with(Strategy::ProcessControl);
    // Never enabled: the default world must stay span-free.
    let api = w.api();
    let h = api
        .create_file(file, Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 8];
    api.read_file(h, &mut buf).expect("read");
    api.write_file(h, b"y").expect("write");
    api.close_handle(h).expect("close");
    assert_eq!(w.telemetry().span_count(), 0);
    // Histograms are registered eagerly per handle but must hold no
    // samples while telemetry is off.
    assert!(w
        .telemetry()
        .strategy_hist_snapshots()
        .iter()
        .all(|(_, h)| h.count == 0));
    // The op trace is independent of telemetry and still sees the ops.
    assert!(!w.trace().summary().is_empty());
}

#[test]
fn slow_ops_carry_their_ancestry() {
    let (w, file) = world_with(Strategy::DllOnly);
    w.telemetry().set_enabled(true);
    w.telemetry().set_slow_threshold_ns(1);
    let api = w.api();
    let h = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 8];
    api.read_file(h, &mut buf).expect("read");
    api.close_handle(h).expect("close");
    let slow = w.telemetry().slow_ops();
    assert!(!slow.is_empty(), "1 ns threshold flags every op");
    let nested = slow
        .iter()
        .find(|s| s.ancestry.contains('>'))
        .expect("some slow span has ancestors");
    assert!(
        nested.ancestry.starts_with("ReadFile") || nested.ancestry.starts_with("CloseHandle"),
        "ancestry is rendered outermost-first: {}",
        nested.ancestry
    );
}

#[test]
fn slow_ops_across_mux_sessions_name_their_session_and_file() {
    // Two concurrent opens of one shared (mux) active file are two
    // sessions over one sentinel; a slow-op report must say *which*
    // session and file the slow sentinel work belonged to, rendered as a
    // `name[session=N file=...]` hop in the ancestry chain.
    let (w, file) = world_with(Strategy::DllThread);
    w.telemetry().set_enabled(true);
    w.telemetry().set_slow_threshold_ns(1);
    let api = w.api();
    let h1 = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open session 1");
    let h2 = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("open session 2");
    let mut buf = [0u8; 8];
    api.read_file(h1, &mut buf).expect("read 1");
    api.read_file(h2, &mut buf).expect("read 2");
    api.close_handle(h1).expect("close 1");
    api.close_handle(h2).expect("close 2");

    let slow = w.telemetry().slow_ops();
    let tagged: Vec<&str> = slow
        .iter()
        .map(|s| s.ancestry.as_str())
        .filter(|a| a.contains("session="))
        .collect();
    assert!(
        !tagged.is_empty(),
        "mux sentinel spans carry session notes: {slow:#?}"
    );
    let file_tag = format!("file={file}");
    assert!(
        tagged.iter().all(|a| a.contains(&file_tag)),
        "every session-tagged report names the owning file: {tagged:#?}"
    );
    let sessions: std::collections::BTreeSet<&str> = tagged
        .iter()
        .filter_map(|a| {
            let rest = &a[a.find("session=")? + "session=".len()..];
            Some(rest.split([' ', ']']).next().unwrap_or(rest))
        })
        .collect();
    assert!(
        sessions.len() >= 2,
        "both sessions show up in the slow-op reports: {sessions:?}"
    );
    // The shared sentinel's resource accounting saw the ops too.
    assert!(
        w.telemetry()
            .sentinel_stats_snapshots()
            .iter()
            .any(|(name, s)| *name == "null" && s.ops > 0),
        "per-sentinel stats counted the mux traffic"
    );
}

#[test]
fn session_churn_on_a_shared_sentinel_reuses_session_notes() {
    // One long-lived session keeps a shared sentinel up while 1,000
    // others open, read and close. Session ids are reused, so the
    // sentinel spans carry a bounded set of `session=` notes (each one
    // interned for the life of the process) instead of one per open.
    let (w, file) = world_with(Strategy::ProcessControl);
    w.telemetry().set_enabled(true);
    let api = w.api();
    let keeper = api
        .create_file(file, Access::read_only(), Disposition::OpenExisting)
        .expect("long-lived open");
    let mut notes = std::collections::BTreeSet::new();
    let collect = |notes: &mut std::collections::BTreeSet<&'static str>| {
        for span in w.telemetry().spans() {
            if span.layer == Layer::Sentinel && span.note.starts_with("session=") {
                notes.insert(span.note);
            }
        }
        w.telemetry().clear_spans();
    };
    let mut buf = [0u8; 8];
    for cycle in 0..1_000 {
        let h = api
            .create_file(file, Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        api.read_file(h, &mut buf).expect("read");
        api.close_handle(h).expect("close");
        if cycle % 100 == 99 {
            collect(&mut notes);
        }
    }
    api.read_file(keeper, &mut buf).expect("keeper read");
    api.close_handle(keeper).expect("keeper close");
    collect(&mut notes);
    assert!(
        (1..=2).contains(&notes.len()),
        "sentinel spans name at most two sessions, not {}",
        notes.len()
    );
}

#[test]
fn per_sentinel_counters_agree_across_command_strategies() {
    // One script — a write, a read of it back, a failing control and the
    // close — feeds the same per-sentinel counters whether the sentinel
    // is a separate process, a thread or inline, shared or private.
    let mut seen = Vec::new();
    for strategy in [
        Strategy::ProcessControl,
        Strategy::DllThread,
        Strategy::DllOnly,
    ] {
        for share in ["on", "off"] {
            let w = AfsWorld::new();
            register_standard_sentinels(&w);
            let spec = SentinelSpec::new("null", strategy)
                .backing(Backing::Memory)
                .with("share", share);
            w.install_active_file("/c.af", &spec).expect("install");
            let api = w.api();
            let h = api
                .create_file("/c.af", Access::read_write(), Disposition::OpenExisting)
                .expect("open");
            api.write_file(h, b"hello").expect("write");
            api.set_file_pointer(h, 0, SeekMethod::Begin)
                .expect("rewind");
            let mut buf = [0u8; 8];
            assert_eq!(api.read_file(h, &mut buf).expect("read"), 5);
            api.device_io_control(h, 0x1234, b"")
                .expect_err("null has no control surface");
            api.close_handle(h).expect("close");
            let (_, stats) = w
                .telemetry()
                .sentinel_stats_snapshots()
                .into_iter()
                .find(|(name, _)| *name == "null")
                .expect("null sentinel stats");
            seen.push((
                format!("{strategy:?} share={share}"),
                (stats.ops, stats.errors, stats.bytes_in, stats.bytes_out),
            ));
        }
    }
    assert!(
        seen.iter().all(|(_, counts)| *counts == (4, 1, 5, 5)),
        "(ops, errors, bytes_in, bytes_out) per configuration: {seen:#?}"
    );
}

#[test]
fn exported_span_trace_covers_the_interposition_chain() {
    // The CI gate formerly validated `figure6 --spans` output with a
    // python script; this is the same check in-tree. The exported
    // chrome-trace document must parse, carry complete ("ph": "X") span
    // events, and cover at least the interpose, strategy, and transport
    // layers across the four-strategy sweep.
    let trace = afs_bench::span_trace(20, activefiles::HardwareProfile::pentium_ii_300());
    assert!(json_is_valid(&trace), "chrome trace parses: {trace}");
    let root = afs_telemetry::json::parse(&trace).expect("chrome trace JSON");
    let events = root.as_array().expect("trace is an event array");
    let spans: Vec<_> = events
        .iter()
        .filter_map(|e| e.as_object())
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .collect();
    assert!(!spans.is_empty(), "no span events emitted");
    let layers: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter_map(|e| e.get("cat").and_then(|v| v.as_str()))
        .collect();
    for required in ["interpose", "strategy", "transport"] {
        assert!(
            layers.contains(required),
            "span layers {layers:?} missing {required}"
        );
    }
}

#[test]
fn remote_reads_reach_the_backend_layer() {
    let w = AfsWorld::new();
    register_standard_sentinels(&w);
    let server = FileServer::new();
    server.seed("/doc", b"remote body");
    w.net()
        .register("files", Arc::clone(&server) as Arc<dyn Service>);
    w.install_active_file(
        "/r.af",
        &SentinelSpec::new("remote-file", Strategy::DllThread)
            .backing(Backing::Memory)
            .with("service", "files")
            .with("remote", "/doc"),
    )
    .expect("install");
    w.telemetry().set_enabled(true);
    let api = w.api();
    let h = api
        .create_file("/r.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 11];
    api.read_file(h, &mut buf).expect("read");
    api.write_file(h, b"edit").expect("write");
    // Flush pushes the dirty cache to the remote inside the sentinel's
    // dispatch frame, so the remote call shows up as a backend span.
    api.flush_file_buffers(h).expect("flush");
    api.close_handle(h).expect("close");
    let spans = w.telemetry().spans();
    assert!(
        spans
            .iter()
            .any(|s| s.layer == Layer::Backend && s.name.starts_with("remote-")),
        "remote write-back shows up as a backend span"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.layer == Layer::Backend && s.name.starts_with("cache-")),
        "cache hits show up as backend spans"
    );
}
