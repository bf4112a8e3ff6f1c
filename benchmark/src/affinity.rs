//! Keeps the producer and the ingest service's writer on different CPUs.
//!
//! Left to the scheduler, the two threads at times share one CPU for
//! minutes on end. The writer then waits for the producer between
//! flushes (`ingest.stage.dequeue_s` ≈ 0.9 s per round against ≈ 0.01 s)
//! and `events_per_s` of one binary on one seed splits into two levels:
//! 45–56k against 72–83k on ingest-churn on a 2-CPU host, the same level
//! as with both threads pinned to one CPU. Pinning the two threads apart
//! keeps every run at the level two CPUs give.

use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The first two CPUs the process was allowed to run on at its first
/// call, or `None` with fewer than two.
fn two_cpus() -> Option<(u32, u32)> {
    static CPUS: OnceLock<Option<(u32, u32)>> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let mut mask = 0u64;
        // SAFETY: the kernel writes at most `size` bytes into `mask`.
        if unsafe { sched_getaffinity(0, 8, &mut mask) } != 0 {
            return None;
        }
        let mut cpus = (0..64).filter(|c| mask & (1 << c) != 0);
        Some((cpus.next()?, cpus.next()?))
    })
}

fn pin(tid: i32, cpu: u32) {
    let mask = 1u64 << cpu;
    // SAFETY: the kernel reads `size` bytes from `mask`; a failure
    // leaves the thread where the scheduler put it.
    unsafe { sched_setaffinity(tid, 8, &mask) };
}

/// Pins the calling thread, the producer, to one CPU and every other
/// thread of the process to another. While a service runs, its writer
/// is the only other thread. Threads are told apart by id, not by name:
/// a writer spawned from the pinned producer shares its CPU and may not
/// have run far enough to set its name yet. Does nothing on one CPU.
pub fn pin_producer_and_writer() {
    let Some((producer, writer)) = two_cpus() else {
        return;
    };
    pin(0, producer);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    let me = std::fs::read_link("/proc/thread-self").ok();
    for task in tasks.filter_map(|t| t.ok()) {
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        if me.as_ref().and_then(|p| p.file_name()) != Some(&task.file_name()) {
            pin(tid, writer);
        }
    }
}
