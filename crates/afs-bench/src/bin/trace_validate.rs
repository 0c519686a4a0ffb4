//! CI trace validation: drives one read through a seeded retry +
//! replica-failover fault plan with telemetry on, exports the collected
//! spans as a chrome://tracing document and the flight-recorder
//! post-mortem as JSON, and asserts the causal-tracing invariants the
//! observability layer promises:
//!
//! 1. the exported chrome trace parses and carries complete span events;
//! 2. the read is ONE contiguous trace — a single trace id, every span
//!    parent-linked under the `ReadFile` root;
//! 3. the trace spans at least two replicas (the tripped primary and the
//!    replica that served), visible as the annotated `breaker-reject`
//!    and `failover` child spans;
//! 4. the breaker trip froze the in-flight trace into a flight bundle.
//!
//! ```text
//! trace_validate [--trace trace.json] [--dump flight-dump.json]
//! ```
//!
//! Exits non-zero (with a message naming the violated invariant) on any
//! failure; the written artifacts are uploaded by the bench-smoke job
//! either way.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_remote::FileServer;
use afs_sim::clock;
use afs_telemetry::json;
use afs_winapi::{Access, Disposition, FileApi};

const REPLICA_BODY: &[u8] = b"replica B body !!";

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_validate: FAIL — {msg}");
    ExitCode::FAILURE
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut trace_path = "trace.json".to_owned();
    let mut dump_path = "flight-dump.json".to_owned();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace" => match iter.next() {
                Some(p) => trace_path = p.clone(),
                None => return fail("--trace needs a path"),
            },
            "--dump" => match iter.next() {
                Some(p) => dump_path = p.clone(),
                None => return fail("--dump needs a path"),
            },
            other => return fail(&format!("unknown argument {other}")),
        }
    }

    // The seeded failover schedule (same as tests/tracing.rs): a
    // hard-partitioned primary and a once-flaky replica under a
    // threshold-1 breaker, 1 ms backoff, 2 ms cooldown — round 1 trips
    // both breakers, round 2 is rejected by both, round 3 half-opens them
    // and the replica's probe serves the read.
    let world = AfsWorld::new();
    afs_sentinels::register_all(world.sentinels());
    let primary = FileServer::new();
    primary.seed("/blob", b"primary body ----");
    world
        .net()
        .register("files", primary as Arc<dyn afs_net::Service>);
    let replica = FileServer::new();
    replica.seed("/blob", REPLICA_BODY);
    world
        .net()
        .register("files-b", replica as Arc<dyn afs_net::Service>);
    world
        .install_active_file(
            "/m.af",
            &SentinelSpec::new("mirror", Strategy::DllOnly)
                .backing(Backing::Memory)
                .with("service", "files")
                .with("remote", "/blob")
                .with("retry", "3")
                .with("retry.backoff_us", "1000")
                .with("replicas", "files-b")
                .with("breaker.threshold", "1")
                .with("breaker.cooldown_us", "2000"),
        )
        .expect("install mirror");
    let _g = clock::install(0);
    world
        .net()
        .plan("files")
        .expect("primary plan")
        .set_partitioned(true);
    world.net().plan("files-b").expect("replica plan").flaky(1);
    world.telemetry().set_enabled(true);

    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 17];
    let n = api.read_file(h, &mut buf).expect("failover read");
    api.close_handle(h).expect("close");
    if n != REPLICA_BODY.len() || buf != REPLICA_BODY {
        return fail("the replica did not serve the read");
    }

    // Write the artifacts before validating, so a failing run still
    // uploads the evidence.
    let spans = world.telemetry().spans();
    let chrome = afs_telemetry::chrome_trace(&[("failover", spans.clone())]);
    if let Err(e) = std::fs::write(&trace_path, &chrome) {
        return fail(&format!("cannot write {trace_path}: {e}"));
    }
    let dump = world.flight_dump();
    if let Err(e) = std::fs::write(&dump_path, &dump) {
        return fail(&format!("cannot write {dump_path}: {e}"));
    }

    // 1. The chrome trace parses and carries complete span events.
    let root_val = match json::parse(&chrome) {
        Ok(v) => v,
        Err(e) => return fail(&format!("chrome trace does not parse: {e}")),
    };
    let complete = root_val
        .as_array()
        .map(|events| {
            events
                .iter()
                .filter_map(json::Value::as_object)
                .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
                .count()
        })
        .unwrap_or(0);
    if complete == 0 {
        return fail("chrome trace carries no complete span events");
    }

    // 2. One contiguous trace under the ReadFile root.
    let Some(root) = spans.iter().find(|s| s.name == "ReadFile" && s.parent == 0) else {
        return fail("no ReadFile root span");
    };
    let trace: Vec<_> = spans.iter().filter(|s| s.trace == root.trace).collect();
    for s in &trace {
        if s.id != root.id && !trace.iter().any(|p| p.id == s.parent) {
            return fail(&format!(
                "span {}#{} dangles outside the trace",
                s.name, s.id
            ));
        }
    }
    let trace_ids: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "ReadFile" || s.trace == root.trace)
        .map(|s| s.trace)
        .collect();
    if trace_ids.len() != 1 {
        return fail(&format!(
            "expected a single read trace id, got {trace_ids:?}"
        ));
    }

    // 3. The trace crosses two replicas: the primary's breaker rejection
    //    and the replica's annotated failover win.
    if !trace
        .iter()
        .any(|s| s.name == "breaker-reject" && s.note == "cause=breaker_open")
    {
        return fail("no cause=breaker_open rejection span in the trace");
    }
    if !trace
        .iter()
        .any(|s| s.name == "failover" && s.note == "cause=failover replica=files-b")
    {
        return fail("no annotated failover span naming the serving replica");
    }

    // 4. The breaker trip produced a flight bundle holding the trace.
    let bundles = world.telemetry().flight().bundles();
    let Some(bundle) = bundles.iter().find(|b| b.cause == "breaker_open") else {
        return fail("no breaker_open flight bundle");
    };
    if !bundle.detail.contains("service=files") {
        return fail("the flight bundle does not name the tripped service");
    }
    if !bundle.open.iter().any(|p| p.trace == root.trace) {
        return fail("the flight bundle does not hold the in-flight trace");
    }
    if json::parse(&dump).is_err() {
        return fail("the flight dump is not valid JSON");
    }

    println!(
        "trace_validate: PASS — trace {} ({} spans, {} complete events) crossed files -> files-b; \
         bundle #{} froze it mid-flight; wrote {trace_path} and {dump_path}",
        root.trace,
        trace.len(),
        complete,
        bundle.seq
    );
    ExitCode::SUCCESS
}
