//! Host-side measurement helpers: order statistics, peak resident memory
//! and a sampler for the process's peak thread count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle two for even counts; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[mid],
        _ => (v[mid - 1] + v[mid]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; a single sample is both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Nearest-rank percentile, the definition `msbench::serve` uses for its
/// request latencies.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A numeric field of `/proc/self/status` (e.g. `VmHWM`, `Threads`), or
/// `None` where the file is unavailable.
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The scheduler state letter of a `/proc/.../stat` line (after the
/// parenthesised command name).
fn stat_state(stat: &str) -> Option<char> {
    stat.rsplit_once(')')?.1.trim_start().chars().next()
}

/// Threads of this process other than `skip`, and how many of them are
/// running (state `R`).
fn thread_counts(skip: &str) -> (u64, u64) {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let (mut all, mut running) = (0, 0);
    for task in dir.flatten().filter(|t| t.file_name() != skip) {
        all += 1;
        let stat = std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
        running += u64::from(stat_state(&stat) == Some('R'));
    }
    (all, running)
}

/// Peak host threads of a run: all threads, and those running at once.
pub struct ThreadPeaks {
    pub threads: u64,
    pub running: u64,
}

/// Polls this process's threads every 10 ms until finished and keeps the
/// peaks, not counting the sampler's own thread.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ThreadPeaks>,
}

impl ThreadSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let own = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
            let own_tid = own.split_whitespace().next().unwrap_or("").to_string();
            let mut peaks = ThreadPeaks {
                threads: 0,
                running: 0,
            };
            // Relaxed: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                let (all, running) = thread_counts(&own_tid);
                peaks.threads = peaks.threads.max(all);
                peaks.running = peaks.running.max(running);
                std::thread::sleep(Duration::from_millis(10));
            }
            peaks
        });
        ThreadSampler { stop, handle }
    }

    /// Stop sampling and return the peaks seen.
    pub fn finish(self) -> ThreadPeaks {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn state_follows_the_last_parenthesis() {
        assert_eq!(stat_state("42 (a) b) R 1 0"), Some('R'));
        assert_eq!(stat_state("42 (perfbench) S 1 0"), Some('S'));
        assert_eq!(stat_state(""), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0], 99.0), 3.0);
    }
}
