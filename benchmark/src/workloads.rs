//! The three workloads. Each runs whole rounds of the same operations
//! for the requested time, reports medians over the rounds, and checks
//! every round's outputs once the rounds are over.

use crate::check::{self, diff_cores, members_at_least};
use crate::inputs::{Inputs, FLUSH};
use crate::ledger;
use crate::service::{self, Spec, QUERY_K, READ_EVERY, SETUP_REPS};
use crate::trace::Tracer;
use crate::util::{median, rank_quantile, rss_peak_mb, run_rounds, Outcome, WorkDir};
use kcore_ingest::GraphEvent;
use kcore_maint::{TreapOrderCore, UpdateStats};
use std::time::Instant;

const MB: f64 = 1e6;
/// Checkpoint loads timed per round on paper-stream: at ≈ 0.11 s a
/// load, about a second of loads.
const PAPER_LOAD_REPS: usize = 10;

/// Per-layer metrics of one traced round, `(name, value, unit)`.
type Layers = Vec<(&'static str, f64, &'static str)>;

/// Medians over rounds of the per-layer metrics, in first-round order.
fn median_layers(rounds: &[Layers]) -> Layers {
    rounds[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let vals: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
            (name, median(&vals), unit)
        })
        .collect()
}

fn counter(run: &service::Run, name: &str) -> f64 {
    run.registry
        .as_ref()
        .and_then(|r| r.counter(name))
        .unwrap_or(0) as f64
}

/// Engine calls the writer made: one planner decision per call.
fn engine_calls(run: &service::Run) -> f64 {
    [
        "planner_batched_total",
        "planner_split_total",
        "planner_par_split_total",
        "planner_recompute_total",
        "planner_par_recompute_total",
    ]
    .iter()
    .map(|c| counter(run, c))
    .sum()
}

/// The ledger shared by every workload: each layer driven on its own
/// with the workload's inputs, plus the service-level breakdown of
/// `svc` (a run with observability on) against `svc_off` (the same run
/// with it off).
fn layers(
    inp: &Inputs,
    single: &ledger::SingleEdge,
    svc: &service::Run,
    svc_off: &service::Run,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Layers {
    let graph_ns = ledger::graph_replay(&inp.base, &inp.events, tr);
    let (korder_s, peel_s) = ledger::decompositions(&inp.base, inp.engine_seed, tr);
    let batch = ledger::batch_replay(&inp.base, &inp.events, inp.engine_seed, tr);
    out.check(batch.agree, || {
        "bare and journaled batch replays ended on different cores".to_string()
    });
    let restart = &svc.restart;
    let stage = |s: &str| {
        svc.registry
            .as_ref()
            .and_then(|r| r.histogram(&format!("ingest_flush_{s}_ns")))
            .map_or(0.0, |h| h.sum as f64 / 1e9)
    };
    let stages = [
        stage("dequeue"),
        stage("apply"),
        stage("core_drain"),
        stage("journal_ship"),
        stage("mirror_sync"),
        stage("publish"),
    ];
    let per_visited = |ns: f64, s: &UpdateStats| ns / s.visited.max(1) as f64;
    vec![
        ("graph.edge_update_ns", graph_ns, "ns"),
        ("decomp.korder_s", korder_s, "s"),
        ("decomp.peel_s", peel_s, "s"),
        (
            "maint.insert_visited",
            single.insert.visited as f64,
            "count",
        ),
        (
            "maint.remove_visited",
            single.remove.visited as f64,
            "count",
        ),
        (
            "maint.changed",
            (single.insert.changed + single.remove.changed) as f64,
            "count",
        ),
        (
            "maint.insert_ns_per_visited",
            per_visited(single.insert_ns, &single.insert),
            "ns",
        ),
        (
            "maint.remove_ns_per_visited",
            per_visited(single.remove_ns, &single.remove),
            "ns",
        ),
        ("maint.batch_apply_s", batch.bare_s, "s"),
        ("maint.journaled_apply_s", batch.journaled_s, "s"),
        ("maint.engine_calls", engine_calls(svc), "count"),
        ("maint.passes", batch.stats.passes as f64, "count"),
        ("maint.visited", batch.stats.visited as f64, "count"),
        (
            "maint.planner.batched",
            counter(svc, "planner_batched_total"),
            "count",
        ),
        (
            "maint.planner.split",
            counter(svc, "planner_split_total"),
            "count",
        ),
        (
            "maint.planner.recomputes",
            counter(svc, "planner_recompute_total"),
            "count",
        ),
        ("ingest.stage.dequeue_s", stages[0], "s"),
        ("ingest.stage.apply_s", stages[1], "s"),
        ("ingest.stage.core_drain_s", stages[2], "s"),
        ("ingest.stage.journal_ship_s", stages[3], "s"),
        ("ingest.stage.mirror_sync_s", stages[4], "s"),
        ("ingest.stage.publish_s", stages[5], "s"),
        (
            "ingest.unaccounted_s",
            svc.wall_s - stages.iter().sum::<f64>(),
            "s",
        ),
        ("ingest.overhead_s", svc.wall_s - batch.journaled_s, "s"),
        (
            "ingest.submit_s",
            svc.submit_ns.iter().sum::<u64>() as f64 / 1e9,
            "s",
        ),
        (
            "ingest.batches",
            counter(svc, "ingest_batches_total"),
            "count",
        ),
        (
            "ingest.epochs",
            counter(svc, "ingest_epochs_published_total"),
            "count",
        ),
        (
            "ingest.journal_bytes_per_event",
            restart.journal_bytes as f64 / inp.events.len() as f64,
            "B",
        ),
        (
            "ingest.checkpoint_mb",
            restart.checkpoint_bytes as f64 / MB,
            "MB",
        ),
        ("ingest.checkpoint_load_s", restart.checkpoint_load_s, "s"),
        ("ingest.recover_replayed", restart.replayed as f64, "count"),
        ("ingest.read.load_ns", median_u64(&svc.read_load_ns), "ns"),
        ("ingest.read.query_ns", median_u64(&svc.read_query_ns), "ns"),
        ("obs.overhead_s", svc.wall_s - svc_off.wall_s, "s"),
    ]
}

fn median_u64(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Checks a service run's final snapshot and restart path against the
/// peel of the graph rebuilt from the events.
fn check_service(what: &str, run: &service::Run, inp: &Inputs, want: &[u32], out: &mut Outcome) {
    let n = inp.events.len() as u64;
    out.check(run.final_snap.ops == n, || {
        format!(
            "{what}: final snapshot covers {} of {n} events",
            run.final_snap.ops
        )
    });
    if let Some(d) = diff_cores(what, &run.final_snap.cores.to_vec(), want) {
        out.mismatches.push(d);
    }
    let restart = &run.restart;
    out.mismatches.extend(restart.mismatches.iter().cloned());
    if let Some(d) = diff_cores(&format!("{what} restart"), &restart.restored_cores, want) {
        out.mismatches.push(d);
    }
    if run.registry.is_some() {
        let batches = counter(run, "ingest_batches_total") as u64;
        let want_batches = inp.events.len().div_ceil(FLUSH) as u64;
        out.check(batches == want_batches, || {
            format!("{what}: {batches} flushes, the size-only schedule makes {want_batches}")
        });
    }
}

/// What one ingest round keeps for the end-of-run report and checks.
struct IngestRound {
    setup_s: Vec<f64>,
    wall_s: f64,
    visible_p99_ns: u64,
    read_p50_ns: f64,
    restart_s: f64,
    disk_bytes: u64,
}

/// `ingest-churn` (durable, crash + `recover()`) and `ingest-window`
/// (in memory, shutdown + checkpoint round trip).
pub fn ingest(inp: &Inputs, durable: bool, seconds: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new("ingest");
    let inserts = inp
        .events
        .iter()
        .filter(|e| matches!(e, GraphEvent::EdgeInserted(..)))
        .count() as f64;
    let removes = inp.events.len() as f64 - inserts;
    let spec = Spec {
        base: &inp.base,
        events: &inp.events,
        engine_seed: inp.engine_seed,
        durable: durable.then(|| work.path()),
        observe: true,
        reads_beside_writes: !durable,
    };
    // Reads are checked as they are made; the final state is checked
    // against the peel once all rounds are done.
    let mut rounds: Vec<IngestRound> = Vec::new();
    let mut finals: Vec<service::Run> = Vec::new();
    let mut layer_rounds: Vec<Layers> = Vec::new();
    let mut beyond = 0;
    let mut rss = None;
    run_rounds(seconds, |_| {
        let span = tr.enter("round");
        let mut run = service::run(&spec, tr);
        // Peak memory of one round, read before any check has run. Later
        // rounds add only allocator fragmentation, which varies from
        // process to process.
        rss = rss.or_else(rss_peak_mb);
        out.attempted += inp.events.len() as u64 + run.read_load_ns.len() as u64 + 1;
        out.failed += run.failed;
        out.mismatches.extend(
            run.read_failures
                .drain(..)
                .map(|e| format!("round {}: {e}", rounds.len() + 1)),
        );
        let (p99, b) = rank_quantile(&mut run.visible_ns, 0.99);
        beyond = b;
        let restart = &run.restart;
        rounds.push(IngestRound {
            setup_s: run.setup_s.clone(),
            wall_s: run.wall_s,
            visible_p99_ns: p99,
            read_p50_ns: median_u64(
                &run.read_load_ns
                    .iter()
                    .zip(&run.read_query_ns)
                    .map(|(a, b)| a + b)
                    .collect::<Vec<_>>(),
            ),
            restart_s: restart.restart_s,
            disk_bytes: restart.disk_bytes,
        });
        if tr.is_on() {
            let single = ledger::single_edge(&inp.base, &inp.events, inp.engine_seed, tr);
            let mut off = service::run(
                &Spec {
                    observe: false,
                    ..spec
                },
                tr,
            );
            out.mismatches.append(&mut off.read_failures);
            layer_rounds.push(layers(inp, &single, &run, &off, tr, &mut out));
        }
        out.notes.push(format!(
            "round {}: events_per_s {:.1}, update_p99_us {:.1}, recover_s {:.6}, setup_s {:.6}",
            rounds.len(),
            inp.events.len() as f64 / run.wall_s,
            p99 as f64 / 1e3,
            run.restart.restart_s,
            median(&run.setup_s),
        ));
        finals.push(run);
        tr.exit(span);
    });

    let span = tr.enter("check");
    match check::rebuild(&inp.base, &inp.events) {
        Ok(g) => {
            let want = check::peel(&g);
            for (i, run) in finals.iter().enumerate() {
                check_service(&format!("round {i}"), run, inp, &want, &mut out);
            }
        }
        Err(e) => out.mismatches.push(e),
    }
    tr.exit(span);

    let med = |f: &dyn Fn(&IngestRound) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let setup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    let flushes = counter(&finals[0], "ingest_batches_total");
    out.notes.push(format!(
        "engine calls: {} in {flushes} flushes, {:.1} per flush",
        engine_calls(&finals[0]),
        engine_calls(&finals[0]) / flushes
    ));
    out.notes.push(format!(
        "rounds: {} ({} set-ups, {} events and {} reads {} each); update_p99_us is the p99 of \
         per-event submit-to-visible latency, {beyond} of {} samples per round lie beyond it",
        rounds.len(),
        setup.len(),
        inp.events.len(),
        inp.events.len() / READ_EVERY,
        if durable {
            "after the barrier"
        } else {
            "beside writes"
        },
        inp.events.len()
    ));
    let e2e = vec![
        ("setup_s", median(&setup), "s"),
        ("insert_per_s", med(&|r| inserts / r.wall_s), "1/s"),
        ("remove_per_s", med(&|r| removes / r.wall_s), "1/s"),
        (
            "events_per_s",
            med(&|r| inp.events.len() as f64 / r.wall_s),
            "1/s",
        ),
        (
            "update_p99_us",
            med(&|r| r.visible_p99_ns as f64 / 1e3),
            "us",
        ),
        ("recover_s", med(&|r| r.restart_s), "s"),
        ("disk_mb", med(&|r| r.disk_bytes as f64 / MB), "MB"),
        ("read_p50_us", med(&|r| r.read_p50_ns / 1e3), "us"),
        ("rss_peak_mb", rss.unwrap_or(0.0), "MB"),
    ];
    finish(out, tr.is_on(), e2e, &layer_rounds)
}

/// The untraced run reports the end-to-end metrics; the traced run
/// reports the ledger and prints its own end-to-end figures as notes,
/// so the two runs give the tracing overhead.
fn finish(mut out: Outcome, traced: bool, e2e: Layers, layer_rounds: &[Layers]) -> Outcome {
    if traced {
        for (name, value, unit) in e2e {
            out.notes
                .push(format!("traced end-to-end: {name} = {value} {unit}"));
        }
        out.metrics = median_layers(layer_rounds);
    } else {
        out.metrics = e2e;
    }
    out
}

/// What one paper-stream round keeps.
struct PaperRound {
    setup_s: Vec<f64>,
    insert_s: f64,
    remove_s: f64,
    p99_ns: u64,
    read_p50_ns: f64,
    restart_s: f64,
    disk_bytes: u64,
    after_insert: Vec<u32>,
    after_remove: Vec<u32>,
    restored: Vec<u32>,
}

/// `paper-stream`: one thread, closed loop — build the index, insert
/// every stream edge with `insert_edge`, read the full index, remove the
/// edges in reverse with `remove_edge`, then checkpoint the index and
/// load it back.
pub fn paper(inp: &Inputs, stream: &[(u32, u32)], seconds: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new("paper");
    let mut lat: Vec<u64> = Vec::with_capacity(2 * stream.len());
    let reads = 2 * stream.len() / READ_EVERY;
    let mut rounds: Vec<PaperRound> = Vec::new();
    let mut layer_rounds: Vec<Layers> = Vec::new();
    let mut beyond = 0;
    let mut restart_mismatches: Vec<String> = Vec::new();
    let mut rss = None;

    run_rounds(seconds, |_| {
        let round = tr.enter("round");
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        let mut core = None;
        for _ in 0..SETUP_REPS {
            // The previous index goes before the next one is built.
            drop(core.take());
            let g = inp.base.clone();
            let span = tr.enter("maint.OrderCore::new");
            let t = Instant::now();
            core = Some(TreapOrderCore::new(g, inp.engine_seed));
            setup_s.push(t.elapsed().as_secs_f64());
            tr.exit(span);
        }
        let mut core = core.expect("one set-up");
        lat.clear();
        let mut single = ledger::SingleEdge::default();

        // Inserts, then removals in reverse.
        let mut phase = |removing: bool,
                         core: &mut TreapOrderCore,
                         single: &mut ledger::SingleEdge,
                         tr: &mut Tracer,
                         out: &mut Outcome|
         -> f64 {
            let span = tr.enter(if removing {
                "maint.remove_edge"
            } else {
                "maint.insert_edge"
            });
            let t0 = Instant::now();
            for i in 0..stream.len() {
                let (u, v) = if removing {
                    stream[stream.len() - 1 - i]
                } else {
                    stream[i]
                };
                let t = Instant::now();
                let r = if removing {
                    core.remove_edge(u, v)
                } else {
                    core.insert_edge(u, v)
                };
                let dt = t.elapsed();
                lat.push(dt.as_nanos() as u64);
                let (stats, ns) = if removing {
                    (&mut single.remove, &mut single.remove_ns)
                } else {
                    (&mut single.insert, &mut single.insert_ns)
                };
                *ns += dt.as_nanos() as f64;
                match r {
                    Ok(s) => stats.absorb(s),
                    Err(_) => out.failed += 1,
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            tr.exit_calls(span, stream.len() as u64);
            secs
        };
        let insert_s = phase(false, &mut core, &mut single, tr, &mut out);
        let after_insert = core.cores().to_vec();

        // Reads of the full index between the two timed phases, each
        // checked against the cores as soon as it is made.
        let span = tr.enter("maint.kcore_members");
        let want = members_at_least(&after_insert, QUERY_K);
        let mut read_ns = Vec::with_capacity(reads);
        for i in 0..reads {
            let t = Instant::now();
            let members = core.kcore_members(QUERY_K);
            read_ns.push(t.elapsed().as_nanos() as u64);
            out.check(members == want, || {
                format!(
                    "round {}, read {i}: kcore_members({QUERY_K}) returned {} vertices, \
                     the cores give {}",
                    rounds.len() + 1,
                    members.len(),
                    want.len()
                )
            });
        }
        tr.exit_calls(span, reads as u64);
        drop(want);

        let remove_s = phase(true, &mut core, &mut single, tr, &mut out);
        let after_remove = core.cores().to_vec();
        out.attempted += 2 * stream.len() as u64 + reads as u64 + 1;

        // Peak memory of the paper's protocol itself. The checkpoint
        // round trip below stands in for a restart; its loads raised the
        // peak by 20-30 MB, by an amount that changed with heap layout.
        rss = rss.or_else(rss_peak_mb);
        let ck = service::save_checkpoint(&core, inp.events.len() as u64, tr);
        drop(core);
        let restart = service::load_checkpoint(&ck, inp.engine_seed, PAPER_LOAD_REPS, tr);
        drop(ck);
        restart_mismatches.extend(restart.mismatches.iter().cloned());
        let (p99, b) = rank_quantile(&mut lat, 0.99);
        beyond = b;
        rounds.push(PaperRound {
            setup_s,
            insert_s,
            remove_s,
            p99_ns: p99,
            read_p50_ns: median_u64(&read_ns),
            restart_s: restart.restart_s,
            disk_bytes: restart.disk_bytes,
            after_insert,
            after_remove,
            restored: restart.restored_cores,
        });
        out.notes.push(format!(
            "round {}: insert_per_s {:.1}, remove_per_s {:.1}, update_p99_us {:.3}, recover_s {:.6}, setup_s {:.6}",
            rounds.len(),
            stream.len() as f64 / insert_s,
            stream.len() as f64 / remove_s,
            p99 as f64 / 1e3,
            restart.restart_s,
            median(&rounds.last().expect("pushed").setup_s)
        ));

        if tr.is_on() {
            // The same stream through a durable ingest service, for the
            // ingest and obs rows of the ledger.
            let spec = Spec {
                base: &inp.base,
                events: &inp.events,
                engine_seed: inp.engine_seed,
                durable: Some(work.path()),
                observe: true,
                reads_beside_writes: false,
            };
            let mut svc = service::run(&spec, tr);
            out.mismatches.append(&mut svc.read_failures);
            let mut off = service::run(
                &Spec {
                    observe: false,
                    ..spec
                },
                tr,
            );
            out.mismatches.append(&mut off.read_failures);
            layer_rounds.push(layers(inp, &single, &svc, &off, tr, &mut out));
        }
        tr.exit(round);
    });

    let span = tr.enter("check");
    out.mismatches.extend(restart_mismatches);
    let inserted: Vec<GraphEvent> = inp.events[..stream.len()].to_vec();
    match check::rebuild(&inp.base, &inserted) {
        Ok(full) => {
            let want_full = check::peel(&full);
            let want_base = check::peel(&inp.base);
            for (i, r) in rounds.iter().enumerate() {
                let diffs = [
                    diff_cores(
                        &format!("round {i} after inserts"),
                        &r.after_insert,
                        &want_full,
                    ),
                    diff_cores(
                        &format!("round {i} after removals"),
                        &r.after_remove,
                        &want_base,
                    ),
                    diff_cores(&format!("round {i} checkpoint"), &r.restored, &want_base),
                ];
                out.mismatches.extend(diffs.into_iter().flatten());
            }
        }
        Err(e) => out.mismatches.push(e),
    }
    tr.exit(span);

    let n = stream.len() as f64;
    let med = |f: &dyn Fn(&PaperRound) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let setup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    out.notes.push(format!(
        "rounds: {} ({} set-ups, {reads} reads each); update_p99_us: {beyond} of {} samples per \
         round lie beyond the p99",
        rounds.len(),
        setup.len(),
        2 * stream.len()
    ));
    let e2e = vec![
        ("setup_s", median(&setup), "s"),
        ("insert_per_s", med(&|r| n / r.insert_s), "1/s"),
        ("remove_per_s", med(&|r| n / r.remove_s), "1/s"),
        (
            "events_per_s",
            med(&|r| 2.0 * n / (r.insert_s + r.remove_s)),
            "1/s",
        ),
        ("update_p99_us", med(&|r| r.p99_ns as f64 / 1e3), "us"),
        ("recover_s", med(&|r| r.restart_s), "s"),
        ("disk_mb", med(&|r| r.disk_bytes as f64 / MB), "MB"),
        ("read_p50_us", med(&|r| r.read_p50_ns / 1e3), "us"),
        ("rss_peak_mb", rss.unwrap_or(0.0), "MB"),
    ];
    finish(out, tr.is_on(), e2e, &layer_rounds)
}
