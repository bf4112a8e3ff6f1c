//! Small helpers shared by the workloads: seeds, order statistics, the
//! round loop, process memory, and the result record every run prints.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Derives an independent sub-seed from the run seed (SplitMix64), so
/// every generator of a workload draws from its own stream.
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a sample (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of integer samples: the value at rank
/// `ceil(q * len)` (1-based). Returns the value and how many samples lie
/// strictly beyond that rank.
pub fn rank_quantile(samples: &mut [u64], q: f64) -> (u64, usize) {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    (*v, samples.len() - rank)
}

/// Runs `round` repeatedly: always once, then again while fewer than
/// `seconds` have passed since the first round started. Every round is
/// the same fixed operation set, so the share of failed operations does
/// not depend on how many rounds fit.
pub fn run_rounds(seconds: u64, mut round: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut done = 0;
    loop {
        round(done);
        done += 1;
        if t0.elapsed().as_secs_f64() >= seconds as f64 {
            return done;
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A scratch directory under the checkout's `.bench_work/`, emptied on
/// creation and removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(name: &str) -> WorkDir {
        let path = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create .bench_work directory");
        WorkDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// What one run hands back to `main`: operation counts, the outcome of
/// the correctness checks, and the metrics to print.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed correctness checks (empty = correct).
    pub mismatches: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra lines printed before the result (input make-up, counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}
