//! CPU and memory accounting from outside the program.
//!
//! Thread CPU comes from the kernel's per-thread CPU clocks (nanosecond
//! resolution, unlike the 10 ms ticks of `/proc/*/stat`); threads are
//! found and named through `/proc/self/task/*/comm`. The benchmark's own
//! threads are named `perfbench-*` (the main thread is `perfbench`), so
//! every other thread is a server thread. The kernel keeps the first 15
//! bytes of a name, so `rfidraw-serve-worker-3` reads `rfidraw-serve-w`.

use std::collections::BTreeMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Asks the kernel to end the calling thread's sleeps within 1 ns of
/// their deadline instead of the default 50 µs slack, so a paced sender
/// is late because of load rather than timer coalescing. If the kernel
/// refuses, the default slack stays and the sender is only later.
pub fn tighten_timer_slack() {
    // SAFETY: `PR_SET_TIMERSLACK` takes one unsigned long argument and
    // changes only the calling thread's timer slack; no memory is shared
    // with the kernel.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads one clock in seconds, or `None` if the kernel refuses it (for a
/// per-thread clock: the thread has exited).
fn read_clock(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call; `clock_gettime` writes only into it and reports an unknown or
    // stale clock id through its return value.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds the whole process has used.
pub fn process_cpu_s() -> f64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).expect("the process CPU clock is always readable")
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID).expect("the thread CPU clock is always readable")
}

/// CPU seconds [`reference_s`] takes on the 2-core development box at its
/// median speed.
pub const REFERENCE_S: f64 = 0.020;

/// CPU seconds a fixed floating-point loop takes on the calling thread: a
/// yardstick of how fast the shared host runs right now. On a host whose
/// speed drifts by tens of percent over minutes, server CPU divided by
/// `reference_s() / REFERENCE_S` is what the same work costs at the
/// reference speed. The loop is the benchmark's own code, so a faster
/// program still shows as a faster program.
pub fn reference_s() -> f64 {
    let mut xs: Vec<f64> = (0..1024).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let start = thread_cpu_s();
    let mut acc = 0.0;
    for _ in 0..8000 {
        for x in &mut xs {
            let d = (*x * *x + 0.5).sqrt();
            *x = d * 0.7 + 0.3;
            acc += d;
        }
    }
    std::hint::black_box(acc);
    thread_cpu_s() - start
}

/// The Linux CPU-clock id of thread `tid` of this process
/// (`MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`).
fn thread_clock(tid: i32) -> i32 {
    (!tid << 3) | 6
}

/// CPU seconds per live thread of this process, keyed by thread id, with
/// the thread's name.
pub fn threads() -> BTreeMap<i32, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else {
            continue;
        };
        if let Some(cpu) = read_clock(thread_clock(tid)) {
            out.insert(tid, (comm.trim().to_string(), cpu));
        }
    }
    out
}

/// Whether a thread name belongs to the benchmark rather than the server.
fn is_generator(name: &str) -> bool {
    name.starts_with("perfbench")
}

/// CPU seconds each thread spent between two [`threads`] samples, summed
/// by thread class. Threads of the program other than workers and the
/// reactor are in no class (the default configuration starts none).
pub fn split(before: &BTreeMap<i32, (String, f64)>, after: &BTreeMap<i32, (String, f64)>) -> Split {
    let mut s = Split::default();
    for (tid, (name, cpu)) in after {
        let used = cpu - before.get(tid).map_or(0.0, |b| b.1);
        if is_generator(name) {
            s.generator += used;
        } else if name.starts_with("rfidraw-serve-w") {
            s.workers += used;
        } else if name.starts_with("rfidraw-reactor") {
            s.reactor += used;
        }
    }
    s
}

/// CPU seconds by thread class over a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Split {
    /// The benchmark's own threads.
    pub generator: f64,
    /// `rfidraw-serve-worker-*` (`rfidraw-serve-w` once truncated).
    pub workers: f64,
    /// `rfidraw-reactor*`.
    pub reactor: f64,
}

/// The machine's busy and stolen CPU time in clock ticks, from the first
/// line of `/proc/stat` (`(0, 0)` where it cannot be read). Steal is time
/// a virtual CPU was ready to run but the hypervisor ran another guest.
pub fn machine_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let field = |i: usize| fields.get(i).copied().unwrap_or(0);
    // user, nice, system, idle, iowait, irq, softirq, steal
    let busy = field(0) + field(1) + field(2) + field(5) + field(6);
    (busy, field(7))
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Current resident set size (MiB).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").unwrap_or(0.0) / 1024.0
}

/// Peak resident set size since start or since [`reset_peak_rss`] (MiB).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Resets the peak-RSS mark to the current RSS, where the kernel allows
/// it. Returns whether it did.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
