//! On-CPU time and placement of threads (Linux).
//!
//! On a shared host a thread's wall time includes the time the host
//! gives its core to another tenant. The kernel's task clock leaves that
//! steal time out, so a CPU-bound figure read from it holds still when
//! the host is busy while the same figure in wall time does not.
//! Placement is pinned for the same reason: left to the scheduler, the
//! threads of a run land together on one core in some runs and apart in
//! others, and the figures follow.

use std::collections::HashMap;
use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// A `cpu_set_t` of 1024 CPUs.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, set: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, set: *const CpuSet) -> c_int;
}

/// Linux's per-thread CPU clock.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has consumed so far, to the nanosecond.
pub fn thread_now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock
    // id is one Linux defines; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of every live thread of this process, by thread id, from
/// the first field of `/proc/self/task/<tid>/schedstat`. A running
/// thread's figure lags by at most one scheduler tick.
pub fn tasks() -> HashMap<u32, Duration> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return HashMap::new();
    };
    dir.filter_map(|entry| {
        let entry = entry.ok()?;
        let tid = entry.file_name().to_str()?.parse().ok()?;
        let stat = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
        let nanos = stat.split_whitespace().next()?.parse().ok()?;
        Some((tid, Duration::from_nanos(nanos)))
    })
    .collect()
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.bits.len() * 64)
        .filter(|cpu| set.bits[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pin thread `tid` of this process (0: the calling thread) to `cpu`.
/// Returns whether the kernel accepted it.
pub fn pin(tid: u32, cpu: usize) -> bool {
    let mut set = CpuSet { bits: [0; 16] };
    if cpu >= set.bits.len() * 64 {
        return false;
    }
    set.bits[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t` of the size passed; the call
    // only reads it.
    unsafe { sched_setaffinity(tid as c_int, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// The id of the calling thread.
pub fn thread_id() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::time::Instant;

    #[test]
    fn thread_clock_counts_work_not_sleep() {
        let t0 = thread_now();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_now() - t0;
        let t1 = thread_now();
        let until = Instant::now() + Duration::from_millis(30);
        let mut x = 0u64;
        while Instant::now() < until {
            x = black_box(x.wrapping_add(1));
        }
        let worked = thread_now() - t1;
        assert!(slept < Duration::from_millis(10), "{slept:?}");
        assert!(worked > Duration::from_millis(10), "{worked:?}");
    }

    #[test]
    fn pinning_a_thread_confines_it() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        std::thread::spawn(move || {
            assert!(pin(0, last));
            assert_eq!(allowed_cpus(), [last]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn tasks_include_the_calling_thread() {
        let me = thread_id();
        assert!(me > 0);
        assert!(tasks().contains_key(&me));
    }
}
