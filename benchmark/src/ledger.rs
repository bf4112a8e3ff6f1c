//! The traced run's layer-by-layer measurements: each layer is driven on
//! its own with the workload's inputs, so its cost can be set against
//! the end-to-end figures.

use crate::inputs::FLUSH;
use crate::trace::Tracer;
use kcore_decomp::{core_decomposition, korder_decomposition, Heuristic};
use kcore_graph::DynamicGraph;
use kcore_ingest::GraphEvent;
use kcore_maint::journal::{replay_batched, Journaled};
use kcore_maint::{PlannedTreapCore, TreapOrderCore, UpdateStats};
use std::time::Instant;

/// `graph`: a bare `DynamicGraph` replaying the events; ns per update.
pub fn graph_replay(base: &DynamicGraph, events: &[GraphEvent], tr: &mut Tracer) -> f64 {
    let mut g = base.clone();
    let span = tr.enter("graph.edge_update");
    let t = Instant::now();
    for &e in events {
        let r = match e {
            GraphEvent::EdgeInserted(u, v) => g.insert_edge(u, v),
            GraphEvent::EdgeRemoved(u, v) => g.remove_edge(u, v),
        };
        r.expect("workload events are valid updates");
    }
    let ns = t.elapsed().as_nanos() as f64;
    tr.exit_calls(span, events.len() as u64);
    std::hint::black_box(&g);
    ns / events.len() as f64
}

/// `decomp`: the k-order build behind `OrderCore::new` and the plain
/// peel behind every planner recompute, both on the base graph.
pub fn decompositions(base: &DynamicGraph, seed: u64, tr: &mut Tracer) -> (f64, f64) {
    let span = tr.enter("decomp.korder_decomposition");
    let t = Instant::now();
    std::hint::black_box(korder_decomposition(base, Heuristic::SmallDegFirst, seed));
    let korder_s = t.elapsed().as_secs_f64();
    tr.exit(span);
    let span = tr.enter("decomp.core_decomposition");
    let t = Instant::now();
    std::hint::black_box(core_decomposition(base));
    let peel_s = t.elapsed().as_secs_f64();
    tr.exit(span);
    (korder_s, peel_s)
}

/// `maint`, single edge: the events through `insert_edge`/`remove_edge`
/// of a fresh `OrderCore`.
#[derive(Default)]
pub struct SingleEdge {
    pub insert: UpdateStats,
    pub remove: UpdateStats,
    pub insert_ns: f64,
    pub remove_ns: f64,
}

pub fn single_edge(
    base: &DynamicGraph,
    events: &[GraphEvent],
    seed: u64,
    tr: &mut Tracer,
) -> SingleEdge {
    let mut core = TreapOrderCore::new(base.clone(), seed);
    let mut out = SingleEdge::default();
    let span = tr.enter("maint.single_edge_replay");
    for &e in events {
        let t = Instant::now();
        match e {
            GraphEvent::EdgeInserted(u, v) => {
                let s = core.insert_edge(u, v).expect("valid insert");
                out.insert_ns += t.elapsed().as_nanos() as f64;
                out.insert.absorb(s);
            }
            GraphEvent::EdgeRemoved(u, v) => {
                let s = core.remove_edge(u, v).expect("valid removal");
                out.remove_ns += t.elapsed().as_nanos() as f64;
                out.remove.absorb(s);
            }
        }
    }
    tr.exit_calls(span, events.len() as u64);
    out
}

/// `maint`, batch: the service's own flush batches ([`FLUSH`]-event
/// chunks, the last one partial) through `replay_batched`.
pub struct Batch {
    pub bare_s: f64,
    pub journaled_s: f64,
    pub stats: UpdateStats,
    /// Whether the bare and journaled replays ended on the same cores.
    pub agree: bool,
}

pub fn batch_replay(
    base: &DynamicGraph,
    events: &[GraphEvent],
    seed: u64,
    tr: &mut Tracer,
) -> Batch {
    let mut bare = PlannedTreapCore::new(base.clone(), seed);
    let mut stats = UpdateStats::default();
    let span = tr.enter("maint.replay_batched");
    let t = Instant::now();
    for chunk in events.chunks(FLUSH) {
        stats.absorb(replay_batched(&mut bare, chunk.iter().copied(), FLUSH));
    }
    let bare_s = t.elapsed().as_secs_f64();
    tr.exit_calls(span, events.len().div_ceil(FLUSH) as u64);

    // The wrapper the ingest writer applies through, drained after every
    // flush exactly as the writer ships its journal tail.
    let mut journaled = Journaled::new(PlannedTreapCore::new(base.clone(), seed));
    let span = tr.enter("maint.journaled_replay_batched");
    let t = Instant::now();
    let mut cursor = journaled.next_seq();
    for chunk in events.chunks(FLUSH) {
        replay_batched(&mut journaled, chunk.iter().copied(), FLUSH);
        std::hint::black_box(journaled.drain_since(cursor));
        cursor = journaled.next_seq();
    }
    let journaled_s = t.elapsed().as_secs_f64();
    tr.exit_calls(span, events.len().div_ceil(FLUSH) as u64);
    Batch {
        bare_s,
        journaled_s,
        stats,
        agree: bare.cores() == journaled.engine().cores(),
    }
}
