//! Host clocks: the benchmark's only reads of wall time and CPU time.
//!
//! The engine runs on a simulated clock and `sbx-lint` bans host clocks
//! from its crates. The benchmark measures the *host* cost of that
//! execution, so it needs real clocks; keeping every read in this module
//! makes the exception one reviewed site (the `lint_scope` test applies the
//! `wall-clock` rule to the benchmark's sources and allows it only here).

use std::sync::LazyLock;

// sbx-lint: allow(wall-clock, the benchmark's one host-clock site: host time is what it measures)
static ORIGIN: LazyLock<std::time::Instant> = LazyLock::new(std::time::Instant::now);

/// Monotonic wall-clock nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    u64::try_from(ORIGIN.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User plus system CPU nanoseconds consumed by every thread of this
/// process so far, including threads that have already exited.
pub fn cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU nanoseconds consumed by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's; it writes one `timespec`
    // (two 64-bit fields on 64-bit Linux, matching `Timespec`'s `repr(C)`
    // layout) through a pointer to a live, exclusively borrowed local.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0;
    }
    let secs = u64::try_from(ts.tv_sec).unwrap_or(0);
    let nanos = u64::try_from(ts.tv_nsec).unwrap_or(0);
    secs.saturating_mul(1_000_000_000).saturating_add(nanos)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak resident set size to the current one, so the next
/// workload of a multi-workload invocation reports its own peak.
pub fn reset_peak_rss() {
    // Best effort: without the reset the peak is still an upper bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
