//! The little the benchmark needs from the operating system, std-only: CPU
//! pinning through one `extern "C"` line (the technique of the reactor's
//! `poll(2)` shim) and `/proc`//`/sys` readers. Everything degrades to
//! "not available" off Linux instead of failing the run.

use std::fs;

#[cfg(target_os = "linux")]
mod ffi {
    extern "C" {
        pub fn sched_setaffinity(
            pid: core::ffi::c_int,
            cpusetsize: usize,
            mask: *const u64,
        ) -> core::ffi::c_int;
        pub fn sched_setscheduler(
            pid: core::ffi::c_int,
            policy: core::ffi::c_int,
            param: *const core::ffi::c_int,
        ) -> core::ffi::c_int;
    }
}

/// Hardware threads available to this process, read once: the answer
/// follows the calling thread's affinity mask, so it must be taken before
/// anything is pinned (`main` does) and remembered.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Pins the calling thread (and every thread it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        for &c in cpus {
            if c < 64 * mask.len() {
                mask[c / 64] |= 1 << (c % 64);
            }
        }
        // SAFETY: `mask` is a live, properly aligned buffer of the size
        // passed; pid 0 names the calling thread; the call only reads it.
        unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// Puts the calling thread in the `SCHED_IDLE` class: it runs only when
/// nothing else wants its CPU and is preempted the moment something does.
/// Lowering one's own priority needs no privilege. Returns whether the
/// kernel accepted it.
pub fn set_idle_priority() -> bool {
    #[cfg(target_os = "linux")]
    {
        const SCHED_IDLE: core::ffi::c_int = 5;
        // `struct sched_param` is one int, the static priority: 0 here.
        let param: core::ffi::c_int = 0;
        // SAFETY: `param` outlives the call, which only reads it; pid 0
        // names the calling thread.
        unsafe { ffi::sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// The pinned layout of the serving workloads: server child on CPUs
/// `0..nproc-1`, generator on the last CPU. `None` on a 1-CPU host.
pub fn pin_layout() -> Option<(Vec<usize>, usize)> {
    let n = nproc();
    (n >= 2).then(|| ((0..n - 1).collect(), n - 1))
}

/// CPU time of a process from `/proc/<pid>/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTime {
    /// User seconds.
    pub user: f64,
    /// System seconds.
    pub sys: f64,
}

impl CpuTime {
    /// User + system seconds.
    pub fn total(&self) -> f64 {
        self.user + self.sys
    }
}

/// Reads utime+stime of `pid` (`"self"` for this process). The kernel
/// reports clock ticks; `USER_HZ` is 100 on every Linux ABI in use.
pub fn cpu_time(pid: &str) -> Option<CpuTime> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Field 2 (comm) may contain spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    // rest[0] is field 3 (state); utime is field 14, stime field 15.
    Some(CpuTime { user: ticks(11)? / 100.0, sys: ticks(12)? / 100.0 })
}

/// Voluntary context switches summed over every thread of `pid`.
pub fn voluntary_switches(pid: &str) -> Option<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let status = fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches"))?;
        total += line.split_whitespace().nth(1)?.parse::<u64>().ok()?;
    }
    Some(total)
}

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    Some(num.parse::<u64>().ok()? * mult)
}

/// Sum of the last-level (highest `level`) data/unified caches CPU 0 sees,
/// in bytes, from `/sys/devices/system/cpu/cpu0/cache`.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = index.ok()?.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_size(&size)) else {
            continue;
        };
        best = match best {
            Some((l, s)) if l == level => Some((l, s + size)),
            Some((l, s)) if l > level => Some((l, s)),
            _ => Some((level, size)),
        };
    }
    best.map(|(_, size)| size)
}

/// `MemTotal` in bytes.
pub fn ram_bytes() -> Option<u64> {
    let info = fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemTotal:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? << 10)
}

/// Kernel release, for the host row.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_suffixes() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn own_cpu_time_and_switches_are_readable_and_monotonic() {
        let a = cpu_time("self").unwrap();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let b = cpu_time("self").unwrap();
        assert!(b.total() >= a.total());
        assert!(b.total() - a.total() >= 0.03, "60 ms of spinning must show as CPU time");
        assert!(voluntary_switches("self").is_some());
        assert!(ram_bytes().unwrap() > 0);
    }
}
