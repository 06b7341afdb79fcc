//! Small statistics and bookkeeping helpers shared by the workloads.

use std::time::Instant;

/// The current instant: the benchmark's one wall-clock source.
#[inline]
pub fn now() -> Instant {
    // detlint: allow(ambient-entropy) benchmark timing: wall-clock reads are what it measures, never a seed
    Instant::now()
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN (both are bugs in the caller).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among timings"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice — the same rule as the
/// gateway's own latency report, so the two can be compared exactly.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() - 1) * p / 100]
}

/// The highest of p99, p95, p90 and p75 that leaves at least ten samples
/// above its rank among `len` samples (p50 when none does).
pub fn tail_percentile(len: usize) -> usize {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| len > 0 && len - 1 - (len - 1) * p / 100 >= 10)
        .unwrap_or(50)
}

/// 64-bit FNV-1a, for outcome digests that two runs can compare.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in one word.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in a byte string (length-prefixed).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The process's peak resident set in MiB (`VmHWM`), if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Threads the host offers this process.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(4000), 99);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(12), 50);
        for len in [41usize, 120, 500, 1011, 5000] {
            let p = tail_percentile(len);
            assert!(len - 1 - (len - 1) * p / 100 >= 10);
        }
    }

    #[test]
    fn digest_separates_order() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}
