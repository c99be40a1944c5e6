//! Host-side plumbing: CPU pinning and the `/proc` counters the ledger
//! reads. Linux only — every host number in the benchmark is defined in
//! terms of these files.

use std::fs;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the affinity mask: 16 × 64 = 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Pin the calling thread (and every thread it later spawns) to the
/// highest-numbered CPU it is allowed to run on. Returns that CPU, or
/// `None` when the affinity calls fail and the process stays unpinned.
pub fn pin_to_one_cpu() -> Option<u32> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros();
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte length passed.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(word as u32 * 64 + bit)
}

/// Cumulative host counters of this process, summed over its live threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCounters {
    /// Voluntary context switches.
    pub vctx: u64,
    /// Involuntary context switches.
    pub ictx: u64,
    /// User CPU seconds.
    pub user_s: f64,
    /// Kernel CPU seconds.
    pub sys_s: f64,
}

impl HostCounters {
    /// Read the counters now.
    pub fn now() -> Self {
        let mut c = HostCounters::default();
        for task in fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            c.vctx += status_field(&status, "voluntary_ctxt_switches:");
            c.ictx += status_field(&status, "nonvoluntary_ctxt_switches:");
        }
        // Fields 14/15 of /proc/self/stat, counted after the `(comm)`
        // field because comm may itself contain spaces. Linux reports them
        // in USER_HZ ticks, fixed at 100 on every supported architecture.
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let mut after_comm = stat
            .rsplit(')')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(11);
        let mut ticks = || {
            after_comm
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        c.user_s = ticks() / 100.0;
        c.sys_s = ticks() / 100.0;
        c
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &HostCounters) -> HostCounters {
        HostCounters {
            vctx: self.vctx - earlier.vctx,
            ictx: self.ictx - earlier.ictx,
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
