//! The little the harness needs from the operating system: thread
//! affinity, peak resident memory, per-thread CPU time.
//!
//! Linux only (raw `sched_setaffinity(2)` and `/proc/self`); elsewhere
//! every function degrades to "not available" and the workloads run
//! unpinned.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    // Declared directly, like the repository's raw `signal(2)` in
    // `pnb-server`: the offline build has no `libc` crate. `pid` 0 is
    // the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// The CPUs this process may run on, ascending. Empty when unknown.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc == 0 {
            return (0..1024)
                .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restrict the calling thread — and every thread it spawns from now
/// on, which is how the server's threads get their CPU — to `cpu`.
/// Returns whether the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu >= 1024 {
            return false;
        }
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable buffer of exactly the size passed.
        return unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } == 0;
    }
    #[allow(unreachable_code)]
    false
}

/// Where load threads and the server go: the first two allowed CPUs,
/// or nowhere when the box offers fewer than two (pinning both sides of
/// a socket to one CPU would measure the scheduler).
#[derive(Clone, Debug)]
pub struct Placement {
    cpus: Vec<usize>,
}

impl Placement {
    pub fn detect() -> Self {
        let cpus = allowed_cpus();
        Placement {
            cpus: if cpus.len() >= 2 { cpus } else { Vec::new() },
        }
    }

    pub fn is_pinned(&self) -> bool {
        !self.cpus.is_empty()
    }

    /// Pin the calling thread to the CPU of in-process worker `i`, or
    /// of the client (`0`).
    pub fn pin_load(&self, i: usize) {
        if let Some(&cpu) = self.cpus.get(i % self.cpus.len().max(1)) {
            pin_current_thread(cpu);
        }
    }

    /// Pin the calling thread to the server's CPU; threads spawned
    /// while it is there inherit the mask.
    pub fn pin_server(&self) {
        self.pin_load(1);
    }

    /// One line for the reader of a result.
    pub fn note(&self) -> String {
        if self.is_pinned() {
            "pinned: load thread i on allowed CPU i, server threads on CPU 1".to_string()
        } else {
            "not pinned: fewer than two CPUs allowed".to_string()
        }
    }
}

fn proc_status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process so far (`VmHWM`), MiB; 0 when
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Thread ids of this process, ascending.
pub fn thread_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// CPU seconds (user + system) thread `tid` has consumed; `None` once
/// it has exited.
pub fn thread_cpu_seconds(tid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ').skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / clock_ticks_per_second())
}

fn clock_ticks_per_second() -> f64 {
    #[cfg(target_os = "linux")]
    {
        const SC_CLK_TCK: i32 = 2;
        // SAFETY: `sysconf` reads a constant; no pointers involved.
        let hz = unsafe { sysconf(SC_CLK_TCK) };
        if hz > 0 {
            return hz as f64;
        }
    }
    100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        if !cfg!(target_os = "linux") {
            return;
        }
        assert!(peak_rss_mib() > 0.0);
        let me = thread_ids();
        assert!(!me.is_empty());
        assert!(thread_cpu_seconds(me[0]).is_some());
        assert!(thread_cpu_seconds(u32::MAX).is_none());
    }

    #[test]
    fn pinning_moves_only_the_calling_thread() {
        let cpus = allowed_cpus();
        if cpus.len() < 2 {
            return;
        }
        let target = cpus[1];
        std::thread::spawn(move || {
            assert!(pin_current_thread(target));
            assert_eq!(allowed_cpus(), vec![target]);
            // A thread spawned from here inherits the mask.
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, vec![target]);
        })
        .join()
        .unwrap();
        assert_eq!(allowed_cpus(), cpus, "the spawner keeps its mask");
    }
}
