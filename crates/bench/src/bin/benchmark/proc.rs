//! Process accounting from `/proc/self` (Linux).

/// A `kB` field of `/proc/self/status`, e.g. `"VmHWM:"` or `"VmRSS:"`.
pub fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Resets the process's `VmHWM` to its current resident set, so the next
/// [`status_kb`]`("VmHWM:")` reads the peak since this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Returns the heap's free pages to the kernel. glibc keeps memory an
/// earlier pass freed mapped and reuses it, which would hide the next
/// pass's own resident-set growth.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and accepts any padding;
        // it only unmaps or advises away free pages of glibc's own arenas,
        // which is the global allocator on this target, so no live
        // allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Process CPU time (user + system, every thread, live or exited) in
/// milliseconds. `/proc/self/stat` counts in clock ticks of 10 ms, the
/// Linux `USER_HZ` of 100.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name, which may hold spaces.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_fields_are_readable() {
        assert!(status_kb("VmHWM:").is_some_and(|kb| kb > 0));
        assert!(status_kb("VmRSS:").is_some_and(|kb| kb > 0));
        assert!(status_kb("NoSuchField:").is_none());
        assert!(cpu_ms().is_some_and(|ms| ms >= 0.0));
    }

    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = status_kb("VmHWM:").unwrap();
        reset_peak_rss().unwrap();
        let after = status_kb("VmHWM:").unwrap();
        assert!(after < before, "{after} kB after reset, {before} kB before");
    }

    #[test]
    fn releasing_free_memory_keeps_live_data() {
        let live = vec![7u8; 1 << 20];
        let freed: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 64 << 10]).collect();
        drop(freed);
        release_free_memory();
        assert!(live.iter().all(|&b| b == 7));
    }
}
