//! Workload inputs, generated in-process from the run seed. The program
//! under test only ever receives the base graph and the event list.

use crate::util::subseed;
use kcore_decomp::{core_decomposition, max_core};
use kcore_gen::{barabasi_albert, churn_stream, load_dataset, sample_edges, Scale};
use kcore_gen::{timestamp_edges, SlidingWindow};
use kcore_graph::{DynamicGraph, VertexId};
use kcore_ingest::sources::{churn_events, window_event};
use kcore_ingest::GraphEvent;

/// Edges per flush in both ingest workloads (flushes trigger on size
/// only, so every flush but the barrier's holds exactly this many).
pub const FLUSH: usize = 512;

pub struct Inputs {
    pub base: DynamicGraph,
    pub events: Vec<GraphEvent>,
    /// Seed of the engine's own randomness (treap priorities).
    pub engine_seed: u64,
    /// One line per property of the input, printed with the result.
    pub makeup: Vec<String>,
}

fn describe(name: &str, base: &DynamicGraph, events: &[GraphEvent]) -> Vec<String> {
    let inserts = events
        .iter()
        .filter(|e| matches!(e, GraphEvent::EdgeInserted(..)))
        .count();
    vec![format!(
        "input {name}: n = {}, m = {}, degeneracy = {}, stream = {} events ({} inserts, {} removals)",
        base.num_vertices(),
        base.num_edges(),
        max_core(&core_decomposition(base)),
        events.len(),
        inserts,
        events.len() - inserts
    )]
}

/// The paper's §VII protocol on the `livejournal` stand-in at
/// `Scale::Medium`: 100,000 edges sampled uniformly (by the run seed)
/// are withdrawn from the graph, inserted one at a time, then removed in
/// reverse order.
pub fn paper_stream(seed: u64) -> (Inputs, Vec<(VertexId, VertexId)>) {
    let mut base = load_dataset("livejournal", Scale::Medium, 0).base;
    let stream = sample_edges(&base, 100_000, subseed(seed, 1));
    for &(u, v) in &stream {
        base.remove_edge(u, v).expect("sampled edge is present");
    }
    let events: Vec<GraphEvent> = stream
        .iter()
        .map(|&(u, v)| GraphEvent::EdgeInserted(u, v))
        .chain(
            stream
                .iter()
                .rev()
                .map(|&(u, v)| GraphEvent::EdgeRemoved(u, v)),
        )
        .collect();
    let makeup = describe("paper-stream", &base, &events);
    let inputs = Inputs {
        base,
        events,
        engine_seed: subseed(seed, 2),
        makeup,
    };
    (inputs, stream)
}

/// Churn over a Barabási–Albert graph (n = 200,000, 4 edges per new
/// vertex): 320 micro-batches of 384 degree-weighted fresh inserts then
/// 256 uniform removals of live edges — 204,800 events. A churn batch of
/// 640 events does not line up with the 512-event flushes.
pub fn ingest_churn(seed: u64) -> Inputs {
    let base = barabasi_albert(200_000, 4, subseed(seed, 1));
    let events: Vec<GraphEvent> = churn_stream(&base, 320, 384, 256, subseed(seed, 2))
        .iter()
        .flat_map(churn_events)
        .collect();
    let makeup = describe("ingest-churn", &base, &events);
    Inputs {
        base,
        events,
        engine_seed: subseed(seed, 3),
        makeup,
    }
}

/// A sliding window over the timestamped edges of a Barabási–Albert
/// graph (n = 50,000, 4 edges per new vertex; gaps of 1–3 time units;
/// window 100,000 units, about 50,000 live edges). The base graph is the
/// window when it first fills (the first expiry is due); the events are
/// the interleaved admits and expiries from there to the last admit. The
/// final drain, which only expires, is not part of the stream.
pub fn ingest_window(seed: u64) -> Inputs {
    let g = barabasi_albert(50_000, 4, subseed(seed, 1));
    let ts = timestamp_edges(&g, 3, subseed(seed, 2));
    let ops: Vec<GraphEvent> = SlidingWindow::new(ts, 100_000).map(window_event).collect();
    let fill = ops
        .iter()
        .position(|e| matches!(e, GraphEvent::EdgeRemoved(..)))
        .expect("the window expires edges");
    let last_admit = ops
        .iter()
        .rposition(|e| matches!(e, GraphEvent::EdgeInserted(..)))
        .expect("the window admits edges");
    let mut base = DynamicGraph::with_vertices(g.num_vertices());
    for e in &ops[..fill] {
        if let GraphEvent::EdgeInserted(u, v) = *e {
            base.insert_edge(u, v)
                .expect("window admits distinct edges");
        }
    }
    let events = ops[fill..=last_admit].to_vec();
    let makeup = describe("ingest-window", &base, &events);
    Inputs {
        base,
        events,
        engine_seed: subseed(seed, 3),
        makeup,
    }
}
