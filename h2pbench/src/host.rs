//! Host fingerprint: cores, build profile, compiler, CPU steal and
//! peak resident memory, read from `/proc` where the host has it.

use std::num::NonZeroUsize;

/// Cores the process may run on.
#[must_use]
pub fn cores() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// `release` or `debug`.
#[must_use]
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The compiler that built this binary.
#[must_use]
pub fn rustc_version() -> &'static str {
    env!("H2PBENCH_RUSTC_VERSION")
}

/// Total steal ticks over all CPUs from `/proc/stat` (0 when the host
/// does not report them).
#[must_use]
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| parse_steal(&text))
        .unwrap_or(0)
}

/// The steal column (the eighth value) of the aggregate `cpu` line.
fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// CPU time this process has used, all threads (live and exited)
/// together, in seconds (`CLOCK_PROCESS_CPUTIME_ID`). The kernel does
/// not charge a process for time it waited for a CPU, including time
/// the hypervisor stole. `None` where the clock is unavailable.
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    process_cpu::read()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod process_cpu {
    /// `struct timespec` on 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    pub fn read() -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` (from the C library std already
        // links) writes one `struct timespec` through `tp` and reads
        // nothing else. `ts` is a live, aligned local whose `repr(C)`
        // layout is that struct's on 64-bit Linux (this module is
        // compiled only there), and the clock id is a valid constant.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod process_cpu {
    pub fn read() -> Option<f64> {
        None
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  10 20 30 40 50 60 70 80 90 100\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(80));
        assert_eq!(parse_steal("intr 1 2\n"), None);
    }

    #[test]
    fn process_cpu_time_grows_with_work() {
        let before = process_cpu_s().expect("a process CPU clock");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = process_cpu_s().expect("a process CPU clock");
        assert!(after > before, "{before} -> {after} ({x})");
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
    }
}
