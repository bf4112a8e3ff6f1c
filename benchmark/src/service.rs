//! One run of the ingest service over a workload's events: spawn, feed
//! with blocking `submit`, flush barrier, snapshot reads, then the
//! workload's restart path — crash and `recover()` for a durable
//! service, shutdown and an index checkpoint round trip for an in-memory
//! one.

use crate::check::ReadChecker;
use crate::inputs::FLUSH;
use crate::trace::Tracer;
use crate::util::WorkDir;
use kcore_graph::DynamicGraph;
use kcore_ingest::durability::{load_index_snapshot, save_index_snapshot};
use kcore_ingest::{
    recover, CoreSnapshot, DurabilityConfig, GraphEvent, IngestConfig, IngestService,
    MetricsSnapshot, ObsConfig, RecoveryRung, SnapshotHandle,
};
use kcore_maint::{PlannerConfig, TreapOrderCore};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Times each service (or index) set-up is repeated per round; the
/// reported set-up time is the median.
pub const SETUP_REPS: usize = 3;
/// Beside writes, the producer reads the latest snapshot after this many
/// submissions; after the barrier, a workload makes as many reads as
/// that would give.
pub const READ_EVERY: usize = 1024;
/// The fixed query each read runs: `kcore_members(QUERY_K)`.
pub const QUERY_K: u32 = 2;
/// Bounded-queue capacity of the service (the backpressure depth).
const QUEUE: usize = 1024;
/// Checkpoint loads timed per round on the in-memory restart path: at
/// ≈ 15 ms a load on ingest-window, about a second of loads.
const IN_MEMORY_LOAD_REPS: usize = 60;

#[derive(Clone, Copy)]
pub struct Spec<'a> {
    pub base: &'a DynamicGraph,
    pub events: &'a [GraphEvent],
    pub engine_seed: u64,
    /// Durability directory root (a fresh subdirectory per spawn), or
    /// `None` for an in-memory service.
    pub durable: Option<&'a Path>,
    pub observe: bool,
    /// Reads every [`READ_EVERY`] submissions during the timed stream,
    /// or the same number of reads of the final snapshot after the
    /// barrier, when the writer is idle.
    pub reads_beside_writes: bool,
}

/// What the restart path measured and restored.
pub struct Restart {
    /// Bytes on disk after the crash (durable) or of the checkpoint.
    pub disk_bytes: u64,
    pub journal_bytes: u64,
    pub checkpoint_bytes: u64,
    /// `recover()` once, or the mean of the checkpoint loads.
    pub restart_s: f64,
    /// `load_index_snapshot` of the checkpoint on its own.
    pub checkpoint_load_s: f64,
    /// Events replayed from the journal by `recover()` (0 in memory).
    pub replayed: u64,
    /// Failed restart checks (rung, durable prefix, restored cores).
    pub mismatches: Vec<String>,
    /// Core numbers restored by the restart path.
    pub restored_cores: Vec<u32>,
}

pub struct Run {
    pub setup_s: Vec<f64>,
    /// First submit until the flush barrier returned.
    pub wall_s: f64,
    pub submit_ns: Vec<u64>,
    /// Per event: from the start of its `submit` until the producer saw
    /// a published snapshot that covers it.
    pub visible_ns: Vec<u64>,
    pub read_load_ns: Vec<u64>,
    pub read_query_ns: Vec<u64>,
    /// Reads that broke their snapshot's invariants.
    pub read_failures: Vec<String>,
    pub failed: u64,
    pub final_snap: Arc<CoreSnapshot>,
    pub registry: Option<MetricsSnapshot>,
    pub restart: Restart,
}

fn config(spec: &Spec, dir: Option<&Path>) -> IngestConfig {
    let mut cfg = IngestConfig::default()
        .max_batch(FLUSH)
        .queue_capacity(QUEUE)
        // Size-only flushes: batch boundaries repeat run over run.
        .flush_interval_ns(u64::MAX);
    if !spec.observe {
        cfg = cfg.observe(ObsConfig::disabled());
    }
    if let Some(d) = dir {
        cfg = cfg.durable(DurabilityConfig::in_dir(d));
    }
    cfg
}

/// Spawns [`SETUP_REPS`] services, timing each, and keeps the last. Each
/// is aborted before the next is spawned, so only one is alive at a time.
fn spawn(spec: &Spec, tr: &mut Tracer) -> (IngestService, Option<PathBuf>, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(IngestService, Option<PathBuf>)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((old, old_dir)) = kept.take() {
            old.abort();
            if let Some(d) = old_dir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        let dir = spec.durable.map(|root| {
            let d = root.join(format!("svc{rep}"));
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d).expect("create durability directory");
            d
        });
        let cfg = config(spec, dir.as_deref());
        let graph = spec.base.clone();
        let span = tr.enter("ingest.spawn_planned");
        let t = Instant::now();
        let svc = IngestService::spawn_planned(graph, spec.engine_seed, cfg)
            .expect("spawn ingest service");
        setup_s.push(t.elapsed().as_secs_f64());
        tr.exit(span);
        kept = Some((svc, dir));
    }
    let (svc, dir) = kept.expect("at least one spawn");
    (svc, dir, setup_s)
}

/// The reads of one run: load and query timed apart, then each read
/// checked against its snapshot's invariants (untimed) and let go.
#[derive(Default)]
struct Reads {
    load_ns: Vec<u64>,
    query_ns: Vec<u64>,
    checker: ReadChecker,
}

impl Reads {
    fn read(&mut self, handle: &SnapshotHandle, submitted: u64) {
        let r0 = Instant::now();
        let snap = handle.load();
        let r1 = Instant::now();
        let members = snap.kcore_members(QUERY_K);
        let r2 = Instant::now();
        self.load_ns.push((r1 - r0).as_nanos() as u64);
        self.query_ns.push((r2 - r1).as_nanos() as u64);
        self.checker.check(&snap, submitted, QUERY_K, &members);
    }
}

pub fn run(spec: &Spec, tr: &mut Tracer) -> Run {
    let (svc, dir, setup_s) = spawn(spec, tr);
    crate::affinity::pin_producer_and_writer();
    let handle = svc.snapshots();
    let published = svc.subscribe().expect("subscribe to publications");
    let n = spec.events.len();
    let mut submit_at = Vec::with_capacity(n);
    let mut seen: Vec<(u64, u64)> = Vec::new();
    let mut submit_ns = Vec::with_capacity(n);
    let mut reads = Reads::default();
    let mut failed = 0u64;

    let stream = tr.enter("ingest.stream");
    let feed = tr.enter("ingest.submit");
    let t0 = Instant::now();
    for (i, &e) in spec.events.iter().enumerate() {
        let s = Instant::now();
        if svc.submit(e).is_err() {
            failed += 1;
        }
        let done = Instant::now();
        submit_at.push((s - t0).as_nanos() as u64);
        submit_ns.push((done - s).as_nanos() as u64);
        while let Ok(snap) = published.try_recv() {
            seen.push((snap.ops, (done - t0).as_nanos() as u64));
        }
        if spec.reads_beside_writes && (i + 1) % READ_EVERY == 0 {
            reads.read(&handle, i as u64 + 1);
        }
    }
    tr.exit_calls(feed, n as u64);
    let barrier = tr.enter("ingest.flush");
    let final_snap = svc.flush().expect("flush barrier");
    tr.exit(barrier);
    let wall = t0.elapsed();
    tr.exit(stream);
    seen.extend(
        published
            .try_iter()
            .map(|snap| (snap.ops, wall.as_nanos() as u64)),
    );
    seen.push((final_snap.ops, wall.as_nanos() as u64));
    let visible_ns = visibility(&submit_at, &seen);

    if !spec.reads_beside_writes {
        let span = tr.enter("ingest.read");
        for _ in 0..n / READ_EVERY {
            reads.read(&handle, n as u64);
        }
        tr.exit_calls(span, (n / READ_EVERY) as u64);
    }

    let registry = svc.metrics().map(|m| m.snapshot());
    let restart = match dir {
        Some(dir) => crash_and_recover(spec, svc, &dir, tr),
        None => {
            let (_, mut engine) = svc.shutdown();
            let ck = save_checkpoint(engine.order(), final_snap.ops, tr);
            drop(engine);
            load_checkpoint(&ck, spec.engine_seed, IN_MEMORY_LOAD_REPS, tr)
        }
    };
    Run {
        setup_s,
        wall_s: wall.as_secs_f64(),
        submit_ns,
        visible_ns,
        read_load_ns: reads.load_ns,
        read_query_ns: reads.query_ns,
        read_failures: reads.checker.failures,
        failed,
        final_snap,
        registry,
        restart,
    }
}

/// Per event `i`, the time from its submit to the first observation of
/// a snapshot covering `ops > i`; `seen` is in publication order.
fn visibility(submit_at: &[u64], seen: &[(u64, u64)]) -> Vec<u64> {
    let mut j = 0;
    submit_at
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            while j + 1 < seen.len() && seen[j].0 <= i as u64 {
                j += 1;
            }
            seen[j].1.saturating_sub(at)
        })
        .collect()
}

/// Aborts the writer (a crash: no final flush, no final checkpoint),
/// then rebuilds the service state from the directory with `recover()`.
fn crash_and_recover(spec: &Spec, svc: IngestService, dir: &Path, tr: &mut Tracer) -> Restart {
    svc.abort();
    let d = DurabilityConfig::in_dir(dir);
    let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let disk_bytes = crate::util::dir_bytes(dir);
    let journal_bytes = len(&d.journal_path);
    let checkpoint_bytes = len(&d.snapshot_path);
    let mut mismatches = Vec::new();

    let span = tr.enter("ingest.recover");
    let t = Instant::now();
    let rec = recover(&d, spec.engine_seed, PlannerConfig::default(), FLUSH);
    let restart_s = t.elapsed().as_secs_f64();
    tr.exit(span);
    let (replayed, restored_cores) = match rec {
        Ok(rec) => {
            if rec.report.rung != RecoveryRung::Primary {
                mismatches.push(format!("recover() used the {} rung", rec.report.rung));
            }
            if rec.report.durable_ops != spec.events.len() as u64 {
                mismatches.push(format!(
                    "recover() restored {} durable ops of {} submitted",
                    rec.report.durable_ops,
                    spec.events.len()
                ));
            }
            (rec.replayed as u64, rec.engine.cores().to_vec())
        }
        Err(e) => {
            mismatches.push(format!("recover() failed: {e}"));
            (0, Vec::new())
        }
    };

    let checkpoint_load_s = if tr.is_on() {
        let span = tr.enter("ingest.load_index_snapshot");
        let t = Instant::now();
        let loaded = load_index_snapshot(&d.snapshot_path, spec.engine_seed);
        let s = t.elapsed().as_secs_f64();
        tr.exit(span);
        if loaded.is_err() {
            mismatches.push("checkpoint zero does not load".to_string());
        }
        s
    } else {
        0.0
    };
    let _ = std::fs::remove_dir_all(dir);
    Restart {
        disk_bytes,
        journal_bytes,
        checkpoint_bytes,
        restart_s,
        checkpoint_load_s,
        replayed,
        mismatches,
        restored_cores,
    }
}

/// An index checkpoint on disk (the file format `recover()` reads),
/// removed on drop.
pub struct Checkpoint {
    dir: WorkDir,
    ops: u64,
    bytes: u64,
}

/// Persists `index` as a checkpoint covering `ops` events: the restart
/// path of an index kept in memory starts here.
pub fn save_checkpoint(index: &TreapOrderCore, ops: u64, tr: &mut Tracer) -> Checkpoint {
    let dir = WorkDir::new("checkpoint");
    let path = dir.path().join("index.ksnp");
    let span = tr.enter("ingest.save_index_snapshot");
    save_index_snapshot(&path, ops, index).expect("write index checkpoint");
    tr.exit(span);
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    Checkpoint { dir, ops, bytes }
}

/// Loads `ck` back `reps` times (after the index it was saved from is
/// gone) and reports the mean load time: the loads together make one
/// phase of about a second, where a single load takes milliseconds.
pub fn load_checkpoint(ck: &Checkpoint, seed: u64, reps: usize, tr: &mut Tracer) -> Restart {
    let path = ck.dir.path().join("index.ksnp");
    let mut total_s = 0.0;
    let mut mismatches = Vec::new();
    let mut restored_cores = Vec::new();
    let span = tr.enter("ingest.load_index_snapshot");
    for _ in 0..reps {
        let t = Instant::now();
        let loaded = load_index_snapshot(&path, seed);
        total_s += t.elapsed().as_secs_f64();
        match loaded {
            Ok((got_ops, core)) => {
                if got_ops != ck.ops {
                    mismatches.push(format!("checkpoint covers {got_ops} ops, not {}", ck.ops));
                }
                restored_cores = core.cores().to_vec();
            }
            Err(e) => mismatches.push(format!("checkpoint does not load: {e}")),
        }
    }
    tr.exit_calls(span, reps as u64);
    let mean_s = total_s / reps as f64;
    Restart {
        disk_bytes: ck.bytes,
        journal_bytes: 0,
        checkpoint_bytes: ck.bytes,
        restart_s: mean_s,
        checkpoint_load_s: mean_s,
        replayed: 0,
        mismatches,
        restored_cores,
    }
}
