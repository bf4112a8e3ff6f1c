//! Correctness checks. They run outside every timed phase, against
//! references the benchmark builds itself: a graph rebuilt from its own
//! event list and a from-scratch peel of that graph.

use kcore_decomp::core_decomposition;
use kcore_graph::{DynamicGraph, VertexId};
use kcore_ingest::{CoreSnapshot, GraphEvent};

/// Applies `events` to a copy of `base` with the graph's checked entry
/// points: a duplicate insert or a missing removal is an error, since
/// every workload generates only valid updates.
pub fn rebuild(base: &DynamicGraph, events: &[GraphEvent]) -> Result<DynamicGraph, String> {
    let mut g = base.clone();
    for (i, &e) in events.iter().enumerate() {
        let r = match e {
            GraphEvent::EdgeInserted(u, v) => g.insert_edge(u, v),
            GraphEvent::EdgeRemoved(u, v) => g.remove_edge(u, v),
        };
        r.map_err(|err| format!("event {i} ({e:?}) is invalid on the rebuilt graph: {err:?}"))?;
    }
    Ok(g)
}

/// Core numbers of `g` by a from-scratch peel.
pub fn peel(g: &DynamicGraph) -> Vec<u32> {
    core_decomposition(g)
}

/// `None` when equal, else a description of the first difference.
pub fn diff_cores(what: &str, got: &[u32], want: &[u32]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{what}: {} core numbers, the peel has {}",
            got.len(),
            want.len()
        ));
    }
    let v = got.iter().zip(want).position(|(a, b)| a != b)?;
    Some(format!(
        "{what}: vertex {v} has core {} but the peel gives {}",
        got[v], want[v]
    ))
}

/// `{v : cores[v] >= k}` in vertex order: what `kcore_members(k)` must
/// return.
pub fn members_at_least(cores: &[u32], k: u32) -> Vec<VertexId> {
    (0..cores.len() as VertexId)
        .filter(|&v| cores[v as usize] >= k)
        .collect()
}

/// Checks snapshot reads one at a time, as they are made, against each
/// snapshot's own invariants: `kcore_members(k)` is exactly
/// `{v : core(v) >= k}`, the histogram counts the cores, the degeneracy
/// is the top non-empty level, and `epoch` and `ops` never decrease (nor
/// run ahead of what was submitted). Nothing of a snapshot is kept once
/// it is checked.
#[derive(Default)]
pub struct ReadChecker {
    epoch: u64,
    ops: u64,
    reads: usize,
    pub failures: Vec<String>,
}

impl ReadChecker {
    pub fn check(&mut self, s: &CoreSnapshot, submitted: u64, k: u32, members: &[VertexId]) {
        if let Err(e) = self.check_one(s, submitted, k, members) {
            self.failures.push(format!("read {}: {e}", self.reads));
        }
        self.reads += 1;
    }

    fn check_one(
        &mut self,
        s: &CoreSnapshot,
        submitted: u64,
        k: u32,
        members: &[VertexId],
    ) -> Result<(), String> {
        if s.epoch < self.epoch || s.ops < self.ops {
            return Err(format!(
                "epoch/ops went back from {}/{} to {}/{}",
                self.epoch, self.ops, s.epoch, s.ops
            ));
        }
        (self.epoch, self.ops) = (s.epoch, s.ops);
        if s.ops > submitted {
            return Err(format!(
                "snapshot covers {} ops but only {submitted} were submitted",
                s.ops
            ));
        }
        let cores = s.cores.to_vec();
        let want = members_at_least(&cores, k);
        if want != members {
            return Err(format!(
                "kcore_members({k}) returned {} vertices, the cores give {}",
                members.len(),
                want.len()
            ));
        }
        let mut hist = vec![0usize; cores.iter().copied().max().unwrap_or(0) as usize + 1];
        for &c in &cores {
            hist[c as usize] += 1;
        }
        if hist != s.histogram {
            return Err("histogram does not count the cores".to_string());
        }
        if s.degeneracy as usize != hist.len() - 1 {
            return Err(format!(
                "degeneracy {} but the top level is {}",
                s.degeneracy,
                hist.len() - 1
            ));
        }
        Ok(())
    }
}
