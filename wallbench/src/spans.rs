//! Draining the program's own spans during the traced run.
//!
//! The telemetry hub keeps only its most recent spans, so clients drain it
//! after every session. The hub is never cleared while a pass runs: its
//! push count only grows, so a copy taken between two equal readings of
//! that count holds exactly the latest pushes, and any span pushed since
//! the previous drain that the copy lacks was evicted by the ring. Those
//! are counted as lost. Spans are grouped by trace; a trace is settled one
//! drain after its root arrived, which lets sentinel-side spans that close
//! after the application's call returned (write-behind, executor
//! hand-back) join their trace first. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover; the
//! totals are kept for traces rooted at a data call (`ReadFile`,
//! `WriteFile`, `FlushFileBuffers`), so the six layers' self times add up
//! to the traced data-call time. The first spans drained are kept for the
//! chrome-trace file.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use afs_telemetry::{Layer, SpanRecord, Telemetry};

/// Layers in the order of the interposition chain.
pub const LAYERS: [Layer; 6] = [
    Layer::Interpose,
    Layer::Strategy,
    Layer::Transport,
    Layer::Sentinel,
    Layer::Backend,
    Layer::Retry,
];

const DATA_CALLS: [&str; 3] = ["ReadFile", "WriteFile", "FlushFileBuffers"];
const KEPT_SPANS: usize = 32_768;
/// Drains a rootless trace may wait for its root before it is dropped.
const ORPHAN_DRAINS: u32 = 4;
/// Copies of the hub a drain takes before it gives up on a consistent one
/// and leaves the spans to the next drain.
const COPY_ATTEMPTS: usize = 8;

fn layer_index(layer: Layer) -> usize {
    LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("every layer is listed")
}

#[derive(Debug, Default)]
struct Pending {
    spans: Vec<SpanRecord>,
    /// Drains since the trace's root arrived (or since its first span, for
    /// a trace still missing its root).
    drains: u32,
    rooted: bool,
}

#[derive(Debug, Default)]
struct State {
    pending: HashMap<u64, Pending>,
    self_ns: [u64; 6],
    data_traces: u64,
    orphans: u64,
    drained: u64,
    /// Hub pushes already taken, or counted lost.
    seen: u64,
    lost: u64,
    kept: Vec<SpanRecord>,
}

/// Per-layer self time over the drained data-call traces.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub self_ns: [u64; 6],
    pub data_traces: u64,
    pub drained: u64,
    pub orphans: u64,
    /// Spans the hub recorded that no drain saw.
    pub lost: u64,
}

impl LayerTimes {
    pub fn add(&mut self, other: &LayerTimes) {
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns) {
            *mine += theirs;
        }
        self.data_traces += other.data_traces;
        self.drained += other.drained;
        self.orphans += other.orphans;
        self.lost += other.lost;
    }

    /// Mean self ns per data call of `layer`.
    pub fn per_call(&self, layer: Layer) -> f64 {
        self.self_ns[layer_index(layer)] as f64 / self.data_traces.max(1) as f64
    }
}

/// Drains one world's telemetry hub.
pub struct SpanDrain {
    tel: Arc<Telemetry>,
    state: Mutex<State>,
}

impl SpanDrain {
    /// Starts draining `tel`, skipping the spans it already holds.
    pub fn new(tel: Arc<Telemetry>) -> Self {
        let state = State {
            seen: tel.span_count(),
            ..State::default()
        };
        SpanDrain {
            tel,
            state: Mutex::new(state),
        }
    }

    /// Moves the hub's new spans into the pending traces and settles the
    /// traces that waited one drain. Returns the wall ns it took.
    pub fn drain(&self) -> u64 {
        let started = Instant::now();
        let mut state = self.state.lock().expect("span drain poisoned");
        self.take_new(&mut state);
        let ready: Vec<u64> = state
            .pending
            .iter_mut()
            .filter_map(|(&trace, p)| {
                p.drains += 1;
                let settled = (p.rooted && p.drains > 1) || p.drains > ORPHAN_DRAINS;
                settled.then_some(trace)
            })
            .collect();
        for trace in ready {
            let pending = state.pending.remove(&trace).expect("listed above");
            state.settle(pending);
        }
        started.elapsed().as_nanos() as u64
    }

    /// Adds the spans pushed since the last drain to the pending traces,
    /// counting those the ring evicted first. Returns false, taking
    /// nothing, when spans kept arriving during every copy.
    fn take_new(&self, state: &mut State) -> bool {
        let consistent = (0..COPY_ATTEMPTS).find_map(|_| {
            let total = self.tel.span_count();
            let copy = self.tel.spans();
            (self.tel.span_count() == total).then_some((total, copy))
        });
        let Some((total, copy)) = consistent else {
            return false;
        };
        let new = (total - state.seen) as usize;
        let batch = &copy[copy.len().saturating_sub(new)..];
        state.lost += (new - batch.len()) as u64;
        state.seen = total;
        state.drained += batch.len() as u64;
        let room = KEPT_SPANS.saturating_sub(state.kept.len());
        state.kept.extend(batch.iter().take(room).copied());
        for &span in batch {
            let entry = state.pending.entry(span.trace).or_default();
            if span.parent == 0 && !entry.rooted {
                entry.rooted = true;
                entry.drains = 0;
            }
            entry.spans.push(span);
        }
        true
    }

    /// Drains what is left and settles every pending trace. Call it once
    /// the clients have stopped; spans that still cannot be copied
    /// consistently count as lost.
    pub fn finish(&self) -> (LayerTimes, Vec<SpanRecord>) {
        let mut state = self.state.lock().expect("span drain poisoned");
        if !self.take_new(&mut state) {
            state.lost += self.tel.span_count() - state.seen;
        }
        let rest: Vec<Pending> = state.pending.drain().map(|(_, p)| p).collect();
        for pending in rest {
            state.settle(pending);
        }
        let times = LayerTimes {
            self_ns: state.self_ns,
            data_traces: state.data_traces,
            drained: state.drained,
            orphans: state.orphans,
            lost: state.lost,
        };
        (times, std::mem::take(&mut state.kept))
    }
}

impl State {
    fn settle(&mut self, pending: Pending) {
        let Some(root) = pending.spans.iter().find(|s| s.parent == 0) else {
            self.orphans += 1;
            return;
        };
        if !DATA_CALLS.contains(&root.name) {
            return;
        }
        self.data_traces += 1;
        for span in &pending.spans {
            let children = pending.spans.iter().filter(|c| c.parent == span.id);
            self.self_ns[layer_index(span.layer)] += self_time(span, children);
        }
    }
}

/// `span`'s duration minus the union of its children's intervals, each
/// clipped to the span.
fn self_time<'a>(span: &SpanRecord, children: impl Iterator<Item = &'a SpanRecord>) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut reach = span.start;
    for (s, e) in covered {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    span.duration_ns().saturating_sub(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: 1,
            layer: Layer::Strategy,
            name: "x",
            strategy: "",
            note: "",
            start,
            end,
            bytes: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let parent = span(1, 0, 100, 200);
        let kids = [
            span(2, 1, 110, 130),
            span(3, 1, 120, 150), // overlaps the first
            span(4, 1, 190, 260), // runs past the parent's end
        ];
        assert_eq!(self_time(&parent, kids.iter()), 100 - 40 - 10);
    }
}
