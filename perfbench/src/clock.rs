//! The benchmark's clock: CPU time of the calling thread
//! (`CLOCK_THREAD_CPUTIME_ID`).
//!
//! Every time the benchmark reports — set-up, step and span times,
//! latencies, rates, and the open loop's pacing — is read from this clock.
//! On a shared host the wall clock also runs while the hypervisor or the
//! scheduler gives the core to someone else (steal time, preemption). The
//! thread's CPU time counts only the time the thread ran, its time in the
//! kernel and page faults included; the kernel leaves steal time out of
//! it. Neighbours that share the core and caches still slow the thread,
//! and that still shows (README note 5). Only the run's length
//! (`--seconds`) is wall time.

use std::ffi::{c_int, c_long};

/// `struct timespec` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU time of the calling thread, in ns.
pub fn now_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`, the only memory the
    // call writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU ns the calling thread has run since `start` (a [`now_ns`] reading).
pub fn since(start: u64) -> u64 {
    now_ns() - start
}
