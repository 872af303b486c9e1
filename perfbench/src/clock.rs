//! Host clocks with their own read cost subtracted.
//!
//! Like the paper's §2.2, which measures the cost of `rdtsc` with
//! back-to-back reads and subtracts it from every access time, a
//! [`Clock`] measures what two consecutive reads of itself cost and
//! takes that off every span it reports.

use std::sync::OnceLock;
use std::time::Instant;

/// Process CPU time (user + sys, all threads) in nanoseconds since the
/// process started.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Monotonic wall time in nanoseconds since the first call. Much
/// cheaper to read than [`process_cpu_ns`], so per-call spans use it;
/// a call of a few hundred nanoseconds is rarely preempted.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A clock reader plus the measured cost of reading it.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    read: fn() -> u64,
    overhead_ns: f64,
}

impl Clock {
    /// Back-to-back read pairs taken to measure the read cost.
    const CALIBRATION_PAIRS: usize = 2_001;

    /// Process CPU time, calibrated.
    pub fn cpu() -> Self {
        Self::calibrated(process_cpu_ns)
    }

    /// Monotonic wall time, calibrated.
    pub fn monotonic() -> Self {
        Self::calibrated(monotonic_ns)
    }

    /// Measures the read cost of `read` as the median gap between
    /// back-to-back reads.
    pub fn calibrated(read: fn() -> u64) -> Self {
        let mut gaps: Vec<u64> = (0..Self::CALIBRATION_PAIRS)
            .map(|_| {
                let a = read();
                let b = read();
                b - a
            })
            .collect();
        gaps.sort_unstable();
        Self {
            read,
            overhead_ns: gaps[gaps.len() / 2] as f64,
        }
    }

    /// A raw reading.
    pub fn now(&self) -> u64 {
        (self.read)()
    }

    /// The cost of one read, as calibrated.
    pub fn overhead_ns(&self) -> f64 {
        self.overhead_ns
    }

    /// Nanoseconds between two readings, less the read cost, floored
    /// at zero.
    pub fn span_ns(&self, start: u64, end: u64) -> f64 {
        ((end - start) as f64 - self.overhead_ns).max(0.0)
    }

    /// The time `spans` spans summing to `raw_ns` took, less one read
    /// cost per span.
    pub fn net_ns(&self, raw_ns: u64, spans: u64) -> f64 {
        (raw_ns as f64 - self.overhead_ns * spans as f64).max(0.0)
    }

    /// Runs `f` and returns its result with its net duration in ns.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        (out, self.span_ns(t0, t1))
    }
}
