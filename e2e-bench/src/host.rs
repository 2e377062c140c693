//! Host facts for the provenance block, and the process memory high-water
//! mark.

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Last-level cache size in bytes (sysfs), when the host reports one.
pub fn llc_bytes() -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    // the highest-numbered cache index is the last level
    let mut best: Option<(u32, u64)> = None;
    for e in std::fs::read_dir(base).ok()?.flatten() {
        let path = e.path();
        let read = |f: &str| std::fs::read_to_string(path.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_size(size.trim())) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, s)| s)
}

fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the whole host from
/// `/proc/stat` — time a hypervisor ran other guests on this guest's
/// vCPUs, and all time.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`]
/// readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// Compiler that built the benchmark.
pub const RUSTC: &str = env!("BENCH_RUSTC");
/// Git commit of the measured code (`none` outside a git checkout).
pub const COMMIT: &str = env!("BENCH_COMMIT");
/// Digest of every measured source file.
pub const SOURCE_DIGEST: &str = env!("BENCH_SOURCE_DIGEST");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
