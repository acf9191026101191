//! Process clocks and order statistics.

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user plus system CPU time of every
/// thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// User plus system CPU seconds the whole process has used so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock ID is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident memory of the process so far, in MB: `VmHWM` of the
/// process's own status. (`getrusage` would not do: Linux carries its
/// `ru_maxrss` across `execve`, so it would report the launching `cargo`'s
/// memory.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail figure: the highest order statistic with at least ten samples
/// above it, but never below the median. With fewer than 22 samples that
/// is the median itself; the sample count is reported alongside.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn high(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "tail of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n >= 22 {
        sorted[n - 11]
    } else {
        median(values)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let few: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(high(&few), 11.0);
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 is the highest sample with ten samples (31..=40) above it.
        assert_eq!(high(&many), 30.0);
    }

    #[test]
    fn process_clocks_advance() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
