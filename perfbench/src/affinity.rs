//! Pins the whole process to one core for the `serve-mixed` reference
//! phase.
//!
//! Left to the scheduler, a load-generator connection and the server
//! worker answering it share a core in some runs and sit on different
//! cores in others, and the placement sticks for the whole run. Across
//! cores a request waits for a halted virtual CPU to be woken, a cost
//! that swings with the host's load, so the run-to-run spread of the
//! median latency measured the placement (0.15 against 0.22 ms on a
//! 2-vCPU guest). On one core a request costs the server's work and the
//! switches between the threads on that core. On a single-core machine,
//! or where the affinity calls fail, nothing is pinned.

use std::sync::OnceLock;

/// Words of a `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;
type CpuSet = [u64; SET_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the process may use, read once before anything is pinned.
fn allowed() -> Option<&'static CpuSet> {
    static ALLOWED: OnceLock<Option<CpuSet>> = OnceLock::new();
    ALLOWED
        .get_or_init(|| {
            let mut set = [0u64; SET_WORDS];
            // SAFETY: `set` is a writable buffer of exactly the size passed;
            // pid 0 is the calling thread.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
            (rc == 0).then_some(set)
        })
        .as_ref()
}

/// Applies `mask` to every thread of the process; threads spawned later
/// inherit it from their parent.
fn set_all(mask: &CpuSet) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut ok = true;
    for tid in tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        ok &= unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask.as_ptr()) } == 0;
    }
    ok
}

/// Pins every thread of the process to its first allowed CPU, if it may
/// use at least two; returns that CPU.
pub fn pin_process() -> Option<usize> {
    let set = allowed()?;
    let mut cpus = (0..SET_WORDS * 64).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1);
    let first = cpus.next()?;
    cpus.next()?;
    let mut mask = [0u64; SET_WORDS];
    mask[first / 64] |= 1 << (first % 64);
    if set_all(&mask) {
        Some(first)
    } else {
        unpin_process();
        None
    }
}

/// Lets every thread of the process run on every CPU it started with.
pub fn unpin_process() {
    if let Some(set) = allowed() {
        set_all(set);
    }
}
