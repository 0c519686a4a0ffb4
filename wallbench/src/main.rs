//! Wall-clock active-file benchmark.
//!
//! ```text
//! wallbench --workload <small-io|remote-scan|shared-append> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's tracing
//! off. `--trace 1` runs the same workload untraced, with only the
//! program's telemetry on, and traced (same seed, same length each), and
//! reports the per-layer metrics, after a count self-test. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it records how the run was
//! made. See `README.md` beside this file.

mod counters;
mod gen;
mod measure;
mod seams;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use counters::{timing_dependent, Counts};
use measure::{host_probe, median_f64, percentile, HostProbe, Run, Stop, STRATEGIES};
use seams::Seams;
use spans::{LayerTimes, SpanDrain, LAYERS};
use workloads::{Workload, FLEET_WORKERS, NAMES};

/// Segments per second of a measured pass. Each segment sets the workload
/// up afresh (new world, new executor threads) and runs for its share of
/// `--seconds`; end-to-end metrics are medians over the segments, so one
/// segment's thread placement or a burst of host noise moves them less.
const SEGMENTS_PER_SECOND: u32 = 2;

/// The tail percentile the end-to-end metrics gate. On a 2-vCPU host shared
/// with other tenants the p99 of these calls moved by 10–45% of its median
/// between runs (host preemption lands in the last percent), more than any
/// allowed bound; the p90 moved by 3–11%. The traced run still reports
/// p99 (`tail.*`), unbounded.
const TAIL: f64 = 0.90;

/// Set-ups timed per segment; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    NAMES
                        .into_iter()
                        .find(|n| *n == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one invocation reports.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Self-test and profile failures (not per-call failures).
    broken: Vec<String>,
    /// `(key, JSON value)` pairs describing how the run was made.
    record: Vec<(&'static str, String)>,
}

impl Report {
    fn count(&mut self, run: &Run) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        for e in &run.errors {
            eprintln!("wallbench: check failed: {e}");
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }
}

fn p_us(samples: &[u64], q: f64) -> f64 {
    percentile(samples, q) as f64 / 1e3
}

/// Builds the workload `SETUP_REPS` times, timing each build, and keeps
/// the last one.
fn timed_setup(args: &Args, times: &mut Vec<f64>) -> Box<dyn Workload> {
    let mut last: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        // The previous world's teardown stays outside the timer.
        drop(last.take());
        let started = Instant::now();
        let workload = workloads::setup(args.workload, args.seed, None);
        times.push(started.elapsed().as_secs_f64());
        last = Some(workload);
    }
    last.expect("at least one set-up")
}

/// One untraced pass of `--seconds`, in segments.
struct Measured {
    segments: Vec<Run>,
    /// Counter deltas over all segments' loops.
    counts: Counts,
    setup_s: Vec<f64>,
    /// The host probe, one reading per segment.
    probes: Vec<HostProbe>,
}

impl Measured {
    /// The median over segments of `f`.
    fn median(&self, f: impl Fn(&Run) -> f64) -> f64 {
        let mut values: Vec<f64> = self.segments.iter().map(f).collect();
        median_f64(&mut values)
    }

    /// Every segment's samples and tallies in one run.
    fn pooled(&self) -> Run {
        let mut pooled = Run {
            client_threads: self.segments[0].client_threads,
            ..Run::default()
        };
        for segment in &self.segments {
            pooled.merge(segment.clone());
        }
        pooled
    }
}

/// How many segments a pass of `--seconds` has, and how long each runs.
fn segment_plan(args: &Args) -> (u32, Duration) {
    (
        SEGMENTS_PER_SECOND * args.seconds as u32,
        Duration::from_secs(1) / SEGMENTS_PER_SECOND,
    )
}

fn measure(args: &Args, report: &mut Report) -> Measured {
    let (segments, share) = segment_plan(args);
    let mut measured = Measured {
        segments: Vec::new(),
        counts: Counts::default(),
        setup_s: Vec::new(),
        probes: Vec::new(),
    };
    for _ in 0..segments {
        let mut workload = timed_setup(args, &mut measured.setup_s);
        measured.probes.push(host_probe());
        let before = Counts::read(workload.world());
        let mut run = workload.run(Stop::After(Instant::now() + share), None);
        let counts = Counts::read(workload.world()).since(&before);
        measured.counts = measured.counts.plus(&counts);
        workload.verify(&mut run);
        report.count(&run);
        measured.segments.push(run);
    }
    measured
}

fn untraced(args: &Args, report: &mut Report) {
    let measured = measure(args, report);
    for (s, label) in STRATEGIES.iter().enumerate() {
        report.metrics.push(metric(
            format!("op_p50_us.{label}"),
            measured.median(|r| p_us(&r.op_ns[s], 0.50)),
            "us",
        ));
        report.metrics.push(metric(
            format!("op_p90_us.{label}"),
            measured.median(|r| p_us(&r.op_ns[s], TAIL)),
            "us",
        ));
    }
    let pooled = measured.pooled();
    let verified = (pooled.attempted - pooled.failed) as f64 / pooled.attempted.max(1) as f64;
    report.metrics.extend([
        metric("ops_per_s", measured.median(Run::ops_per_s), "1/s"),
        metric("mb_per_s", measured.median(Run::mb_per_s), "MB/s"),
        metric(
            "session_p50_us",
            measured.median(|r| p_us(&r.session_ns(), 0.50)),
            "us",
        ),
        metric(
            "session_p90_us",
            measured.median(|r| p_us(&r.session_ns(), TAIL)),
            "us",
        ),
        metric("verified_ratio", verified, "ratio"),
        metric("setup_s", median_f64(&mut measured.setup_s.clone()), "s"),
    ]);
    record_run(report, args, &measured);
}

/// Records how the run was made, each metric's sample count, and the host
/// probe over the segments.
fn record_run(report: &mut Report, args: &Args, measured: &Measured) {
    let run = &measured.pooled();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut samples = String::from("{");
    for (s, label) in STRATEGIES.iter().enumerate() {
        let _ = write!(samples, "\"op.{label}\":{},", run.op_ns[s].len());
    }
    let _ = write!(
        samples,
        "\"passive\":{},\"sessions\":{},\"data_calls\":{}}}",
        run.passive_ns.len(),
        run.sessions(),
        run.data_calls
    );
    report.record.extend([
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("executor_workers", FLEET_WORKERS.to_string()),
        ("profile", "\"free\"".to_owned()),
        ("client_threads", run.client_threads.to_string()),
        ("loop", "\"closed\"".to_owned()),
        ("segments", segment_plan(args).0.to_string()),
        (
            "setup_reps",
            (SETUP_REPS as u64 * SEGMENTS_PER_SECOND as u64 * args.seconds).to_string(),
        ),
        ("samples", samples),
        (
            "host_compute_us",
            spread_json(measured.probes.iter().map(|p| p.compute_ns)),
        ),
        (
            "host_handoff_us",
            spread_json(measured.probes.iter().map(|p| p.handoff_ns)),
        ),
    ]);
}

/// `{"median", "min", "max"}` of `ns`, in µs.
fn spread_json(ns: impl Iterator<Item = u64>) -> String {
    let mut us: Vec<f64> = ns.map(|ns| ns as f64 / 1e3).collect();
    // Sorts `us`, so its ends are the minimum and maximum.
    let median = median_f64(&mut us);
    format!(
        "{{\"median\":{median:.1},\"min\":{:.1},\"max\":{:.1}}}",
        us[0],
        us[us.len() - 1]
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One fixed-length untraced run: the counter deltas plus the run.
fn counted_run(args: &Args, stop: Stop) -> (Counts, Run) {
    let mut workload = workloads::setup(args.workload, args.seed, None);
    let before = Counts::read(workload.world());
    let mut run = workload.run(stop, None);
    let counts = Counts::read(workload.world()).since(&before);
    workload.verify(&mut run);
    (counts, run)
}

/// Sessions per client thread in each count self-test run.
fn self_test_sessions(workload: &str) -> u64 {
    match workload {
        "small-io" => 48,
        "remote-scan" => 24,
        _ => 16,
    }
}

/// Runs the workload twice at a fixed session count with the same seed and
/// requires every count that does not depend on scheduling to repeat.
fn count_self_test(args: &Args, report: &mut Report) {
    let stop = Stop::Sessions(self_test_sessions(args.workload));
    let (first, run_a) = counted_run(args, stop);
    let (second, run_b) = counted_run(args, stop);
    report.count(&run_a);
    report.count(&run_b);
    let exempt_names = timing_dependent(args.workload);
    let mut exempt = Vec::new();
    for ((name, a), (_, b)) in first.fields().into_iter().zip(second.fields()) {
        if exempt_names.contains(&name) {
            exempt.push(format!("\"{name}\":[{a},{b}]"));
        } else if a != b {
            report
                .broken
                .push(format!("count self-test: {name} was {a} then {b}"));
        }
    }
    for (name, a, b) in [
        ("data_calls", run_a.data_calls, run_b.data_calls),
        ("writes", run_a.writes, run_b.writes),
        ("bytes", run_a.bytes, run_b.bytes),
    ] {
        if a != b {
            report
                .broken
                .push(format!("count self-test: {name} was {a} then {b}"));
        }
    }
    report
        .record
        .push(("self_test_exempt", format!("{{{}}}", exempt.join(","))));
}

/// The §4 per-read profile each strategy must reproduce exactly, in
/// [`STRATEGIES`] order: `(crossings, copies)`.
const SECTION4: [(f64, f64); 3] = [(2.0, 3.0), (2.0, 2.0), (0.0, 1.0)];

fn profile_check(args: &Args, report: &mut Report) {
    let rows = workloads::section4_profile(args.seed);
    let mut shown = Vec::new();
    for ((label, crossings, copies), (want_x, want_c)) in rows.into_iter().zip(SECTION4) {
        shown.push(format!("\"{label}\":[{crossings},{copies}]"));
        if crossings != want_x || copies != want_c {
            report.broken.push(format!(
                "§4 profile: {label} read made {crossings} crossings and {copies} copies, \
                 want {want_x} and {want_c}"
            ));
        }
    }
    report
        .record
        .push(("section4_profile", format!("{{{}}}", shown.join(","))));
}

/// What the traced pass gathers over its segments.
#[derive(Default)]
struct TracedPass {
    data_calls: u64,
    layers: LayerTimes,
    /// Seam durations: sentinel read, write and flush; remote handle.
    sentinel_ns: [Vec<u64>; 3],
    remote_ns: Vec<u64>,
}

/// The traced pass: the same segments as the untraced one, each in a
/// fresh traced world (timed mirror and services, program spans on and
/// drained after every session). The first segment's spans go to the
/// chrome-trace file.
fn traced_pass(args: &Args, report: &mut Report) -> TracedPass {
    let (segments, share) = segment_plan(args);
    let mut pass = TracedPass::default();
    for segment in 0..segments {
        let seams = Seams::new();
        let mut workload = workloads::setup(args.workload, args.seed, Some(Arc::clone(&seams)));
        for seam in seams.all() {
            seam.reset();
        }
        let tel = Arc::clone(workload.world().telemetry());
        tel.clear_spans();
        tel.set_enabled(true);
        let drain = SpanDrain::new(Arc::clone(&tel));
        let mut run = workload.run(Stop::After(Instant::now() + share), Some(&drain));
        let (layers, kept) = drain.finish();
        tel.set_enabled(false);
        // Read the seams before the output checks add calls of their own.
        for (all, seam) in pass.sentinel_ns.iter_mut().zip([
            &seams.sentinel_read,
            &seams.sentinel_write,
            &seams.sentinel_flush,
        ]) {
            all.extend(seam.durations());
        }
        pass.remote_ns.extend(seams.remote_handle.durations());
        pass.layers.add(&layers);
        pass.data_calls += run.data_calls;
        if segment == 0 {
            write_chrome_trace(args, kept, &seams);
        }
        workload.verify(&mut run);
        report.count(&run);
    }
    pass
}

/// Untraced `ops_per_s` over the rate with the program's telemetry on and
/// nothing else changed (plain mirror, no benchmark timers, no draining),
/// minus 1, in percent: what telemetry alone costs. The pass runs pairs of
/// segments, telemetry off and on, back to back in alternating order and
/// each in a fresh world, and takes the median over pairs of the pair's
/// ratio, so a change in host speed during the pass moves both sides of a
/// pair alike.
fn telemetry_overhead_pct(args: &Args, report: &mut Report) -> f64 {
    let (segments, share) = segment_plan(args);
    let mut ratios = Vec::new();
    for pair in 0..segments / 2 {
        // `[off, on]` rates; even pairs run telemetry off first.
        let mut rate = [0.0; 2];
        for side in 0..2 {
            let on = (pair + side) % 2 == 1;
            let mut workload = workloads::setup(args.workload, args.seed, None);
            workload.world().telemetry().set_enabled(on);
            let mut run = workload.run(Stop::After(Instant::now() + share), None);
            workload.world().telemetry().set_enabled(false);
            rate[usize::from(on)] = run.ops_per_s();
            workload.verify(&mut run);
            report.count(&run);
        }
        ratios.push(rate[0] / rate[1]);
    }
    (median_f64(&mut ratios) - 1.0) * 100.0
}

fn traced(args: &Args, report: &mut Report) {
    // Untraced pass: the passive/DLL latencies and the counters.
    let measured = measure(args, report);
    let base = measured.pooled();
    let d = measured.counts;
    let overhead_pct = telemetry_overhead_pct(args, report);
    let pass = traced_pass(args, report);
    let layers = &pass.layers;
    let p50_ns = |samples: &[u64]| percentile(samples, 0.50) as f64;

    count_self_test(args, report);
    if args.workload == "small-io" {
        profile_check(args, report);
    }

    let ops = base.data_calls;
    let sessions = base.sessions();
    let per_op = |n: u64| ratio(n, ops);
    let passive = p50_ns(&base.passive_ns);
    let dll_overhead = if base.passive_ns.is_empty() {
        0.0
    } else {
        p50_ns(&base.op_ns[2]) - passive
    };
    let m = &mut report.metrics;
    for (s, label) in STRATEGIES.iter().enumerate() {
        m.push(metric(
            format!("tail.op_p99_us.{label}"),
            measured.median(|r| p_us(&r.op_ns[s], 0.99)),
            "us",
        ));
    }
    m.push(metric(
        "tail.session_p99_us",
        measured.median(|r| p_us(&r.session_ns(), 0.99)),
        "us",
    ));
    m.push(metric("winapi.passive_op_p50_ns", passive, "ns"));
    m.push(metric("interpose.dll_overhead_ns", dll_overhead, "ns"));
    for layer in LAYERS {
        m.push(metric(
            format!("layer.{}.self_ns", layer.label()),
            layers.per_call(layer),
            "ns",
        ));
    }
    m.extend([
        metric("executor.polls_per_op", per_op(d.polls), "count"),
        metric("executor.parks_per_op", per_op(d.parks), "count"),
        metric("executor.wakeups_per_op", per_op(d.wakeups), "count"),
        metric("executor.steals_per_op", per_op(d.steals), "count"),
        metric("strategy.open_us", p_us(&base.open_ns, 0.50), "us"),
        metric("strategy.close_us", p_us(&base.close_ns, 0.50), "us"),
        metric("ipc.crossings_per_op", per_op(d.crossings), "count"),
        metric("ipc.event_signals_per_op", per_op(d.event_signals), "count"),
        metric("ipc.pipe_messages_per_op", per_op(d.pipe_messages), "count"),
        metric("ipc.syscalls_per_op", per_op(d.syscalls), "count"),
        metric("ipc.copies_per_op", per_op(d.copies), "count"),
        metric("ipc.copy_bytes_per_op", per_op(d.copy_bytes), "bytes"),
        metric(
            "ipc.pool_reuse_ratio",
            ratio(d.pool_reuses, d.pool_reuses + d.pool_allocations),
            "ratio",
        ),
        metric(
            "ipc.ring_ops_per_batch",
            ratio(d.ring_ops, d.ring_batches),
            "count",
        ),
        metric(
            "ipc.ring_readahead_hits_per_op",
            per_op(d.ring_readahead_hits),
            "count",
        ),
        metric(
            "ipc.mux_coalesced_writes_per_op",
            per_op(d.mux_coalesced_writes),
            "count",
        ),
        metric(
            "ipc.mux_flushed_batches_per_op",
            per_op(d.mux_flushed_batches),
            "count",
        ),
        metric("sentinel.read_ns", p50_ns(&pass.sentinel_ns[0]), "ns"),
        metric("sentinel.write_ns", p50_ns(&pass.sentinel_ns[1]), "ns"),
        metric("sentinel.flush_ns", p50_ns(&pass.sentinel_ns[2]), "ns"),
        metric(
            "store.wal_bytes_per_write",
            ratio(d.wal_bytes, base.writes),
            "bytes",
        ),
        metric(
            "store.commits_per_session",
            ratio(d.commits, sessions),
            "count",
        ),
        metric(
            "store.fsyncs_per_commit",
            ratio(d.fsyncs, d.commits),
            "count",
        ),
        metric(
            "store.checkpoints_per_session",
            ratio(d.checkpoints, sessions),
            "count",
        ),
        metric(
            "store.recovered_records_per_open",
            ratio(d.recovered_records, sessions),
            "count",
        ),
        metric("net.rpcs_per_op", per_op(d.rpcs), "count"),
        metric("net.bytes_per_op", per_op(d.net_bytes), "bytes"),
        metric("net.dropped_per_op", per_op(d.dropped), "count"),
        metric("net.retries_per_op", per_op(d.retries), "count"),
        metric("net.failovers_per_op", per_op(d.failovers), "count"),
        metric("remote.handle_ns", p50_ns(&pass.remote_ns), "ns"),
        metric("telemetry.overhead_pct", overhead_pct, "%"),
    ]);
    if layers.lost > 0 {
        report.broken.push(format!(
            "traced pass: {} program spans were evicted before a drain saw them, \
             so layer self times are incomplete",
            layers.lost
        ));
    }
    record_run(report, args, &measured);
    report.record.extend([
        ("traced_data_calls", pass.data_calls.to_string()),
        ("spans_drained", layers.drained.to_string()),
        ("spans_lost", layers.lost.to_string()),
        ("data_traces", layers.data_traces.to_string()),
        ("orphan_traces", layers.orphans.to_string()),
    ]);
}

/// Writes the kept program spans and the benchmark's seam spans as one
/// chrome-trace file per workload under `out/` beside this package (the
/// latest traced run replaces the previous one).
fn write_chrome_trace(args: &Args, program: Vec<afs_telemetry::SpanRecord>, seams: &Seams) {
    let mut bench = Vec::new();
    for seam in seams.all() {
        bench.extend(seam.spans());
    }
    let json =
        afs_telemetry::chrome_trace(&[("program spans", program), ("wallbench seams", bench)]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("{}.trace.json", args.workload));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, json));
    match written {
        Ok(()) => eprintln!("wallbench: spans written to {}", file.display()),
        Err(e) => eprintln!("wallbench: could not write {}: {e}", file.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    if args.trace {
        traced(&args, &mut report);
    } else {
        untraced(&args, &mut report);
    }
    for problem in &report.broken {
        eprintln!("wallbench: {problem}");
    }
    let record: Vec<String> = report
        .record
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{\"run\":{{{}}}}}", record.join(","));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if !report.correct() {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}
