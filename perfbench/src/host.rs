//! Host side of a measurement: the wall clock, the host fingerprint
//! printed with every result, and the process's peak memory.

use std::hint::black_box;
use std::time::Instant;

/// A monotonic wall clock read as seconds since its creation.
///
/// This is the only place the benchmark reads the host clock. The
/// simulator never sees it: readings only ever land in benchmark
/// metrics, never in a request, a trace or a scheduler decision.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Starts a clock at zero.
    // The host clock is this benchmark's measurand (the repository's
    // clippy.toml bans it for simulator code, which must replay
    // identically).
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Seconds elapsed since [`Clock::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// What identifies the host a result was measured on. Results from two
/// fingerprints that differ are not comparable.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Rate of the fixed calibration loop, million iterations per host
    /// second (best of several short passes).
    pub calib_mops: f64,
}

impl Fingerprint {
    /// Probes the host. Takes about a quarter of a host second.
    pub fn probe() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            calib_mops: calibrate(),
        }
    }
}

/// Logical CPUs available to this process (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Iterations of one calibration pass.
const CALIB_ITERS: u64 = 5_000_000;

/// Runs a fixed integer loop (xorshift plus a dependent multiply) and
/// returns its best rate over five passes in million iterations per
/// host second. The loop is the same on every host and every commit, so
/// the rate compares hosts, not code.
fn calibrate() -> f64 {
    let mut best = 0.0f64;
    for _ in 0..5 {
        let clock = Clock::start();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut acc = 0u64;
        for _ in 0..black_box(CALIB_ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_mul(31).wrapping_add(x);
        }
        black_box(acc);
        let rate = CALIB_ITERS as f64 / clock.secs() / 1e6;
        best = best.max(rate);
    }
    best
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
