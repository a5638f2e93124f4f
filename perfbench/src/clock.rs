//! Clocks and resource counters read by raw Linux syscalls, in the
//! no-libc style of `funseeker_pool::affinity`: the workspace has no libc
//! dependency, and two syscalls do not justify one.
//!
//! On other targets every reading is 0, which the report prints as such.
//! The one foreign call, [`trim_heap`], is glibc's `malloc_trim`.

/// `CLOCK_MONOTONIC`: wall time comparable across processes on one host,
/// so a child's spans line up with its parent's.
pub const MONOTONIC: u64 = 1;
/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of this process.
pub const PROCESS_CPU: u64 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
pub const THREAD_CPU: u64 = 3;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    /// x86_64 syscall numbers (arch/x86/entry/syscalls/syscall_64.tbl).
    const SYS_WAIT4: u64 = 61;
    const SYS_CLOCK_GETTIME: u64 = 228;

    /// Raw two-argument syscall; returns the kernel's result (negative
    /// errno on failure).
    fn syscall2(nr: u64, a: i64, b: *mut i64) -> i64 {
        let ret: i64;
        // SAFETY: the only caller passes clock_gettime a writable
        // 2-word `struct timespec`, the most the kernel writes through
        // `b`. rcx/r11 are clobbered by the `syscall` instruction itself.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as i64 => ret,
                in("rdi") a,
                in("rsi") b,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Reads clock `id` in nanoseconds; 0 if the kernel refuses.
    pub fn clock_ns(id: u64) -> u64 {
        let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
        if syscall2(SYS_CLOCK_GETTIME, id as i64, ts.as_mut_ptr()) != 0 {
            return 0;
        }
        (ts[0] as u64).wrapping_mul(1_000_000_000).wrapping_add(ts[1] as u64)
    }

    /// Reaps child `pid`, blocking until it exits. Returns whether it
    /// exited with status 0, and its peak resident set, KiB; `None` if
    /// the kernel refuses (no such child).
    pub fn wait_child(pid: u32) -> Option<(bool, u64)> {
        let mut status = 0i32;
        let mut ru = [0i64; 18]; // struct rusage, ru_maxrss at word 4
        let ret: i64;
        // SAFETY: wait4(pid, &status, 0, &rusage) writes one int through
        // the status pointer and one `struct rusage` (18 words) through
        // the rusage pointer, both buffers sized for that. rcx/r11 are
        // clobbered by the `syscall` instruction itself.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_WAIT4 as i64 => ret,
                in("rdi") i64::from(pid),
                in("rsi") &mut status as *mut i32,
                in("rdx") 0i64,
                in("r10") ru.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if ret != i64::from(pid) {
            return None;
        }
        // Exited normally (low 7 bits 0) with exit code 0 (next byte).
        Some((status & 0xffff == 0, ru[4].max(0) as u64))
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    /// Unsupported target: no clock.
    pub fn clock_ns(_id: u64) -> u64 {
        0
    }

    /// Unsupported target: reap through the standard library instead.
    pub fn wait_child(_pid: u32) -> Option<(bool, u64)> {
        None
    }
}

pub use imp::{clock_ns, wait_child};

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic wall clock, nanoseconds, on the kernel's `CLOCK_MONOTONIC`
/// scale so readings from parent and child processes line up.
///
/// `Instant` reads the same clock through the vDSO, far cheaper than a
/// raw syscall, so one raw reading anchors it and later readings add the
/// `Instant` elapsed since.
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<(u64, Instant)> = OnceLock::new();
    let (mono, instant) = ANCHOR.get_or_init(|| (clock_ns(MONOTONIC), Instant::now()));
    mono + instant.elapsed().as_nanos() as u64
}

/// CPU time of the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(THREAD_CPU)
}

/// CPU time of the whole process, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(PROCESS_CPU)
}

/// A `Vm*` line of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in KiB; 0
/// when unreadable.
pub fn proc_status_kib(pid: &str, field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) else { return 0 };
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Returns freed heap memory to the kernel (glibc's `malloc_trim`), so a
/// following high-water mark shows what the next piece of work touches
/// rather than what the allocator had kept. A no-op without glibc.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's, takes a byte count and only
        // releases free pages of the allocator's own arenas; it takes the
        // arena locks itself, so it is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets this process's `VmHWM` to its current resident set, so a
/// later reading excludes whatever the generator touched before.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance() {
        if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            return;
        }
        let (w0, c0) = (now_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(now_ns() > w0);
        assert!(thread_cpu_ns() > c0, "busy loop must accrue thread CPU time");
        assert!(process_cpu_ns() >= thread_cpu_ns());
    }

    #[test]
    #[allow(clippy::zombie_processes)] // reaped by `wait_child`, which is under test
    fn wait_child_reports_status_and_peak_rss() {
        if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            return;
        }
        let ok = std::process::Command::new("true").spawn().expect("spawn true");
        let (success, rss) = wait_child(ok.id()).expect("reaped");
        assert!(success && rss > 0);
        let bad = std::process::Command::new("false").spawn().expect("spawn false");
        assert_eq!(wait_child(bad.id()).map(|(s, _)| s), Some(false));
        assert_eq!(wait_child(bad.id()), None, "a child is reaped once");
    }

    #[test]
    fn status_fields_parse() {
        assert!(proc_status_kib("self", "VmRSS") > 0);
        assert_eq!(proc_status_kib("self", "NoSuchField"), 0);
    }
}
