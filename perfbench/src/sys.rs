//! Process resource readings from `/proc` (Linux). Both read 0 where
//! `/proc` is unavailable.

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; count fields after it.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `utime` and `stime` are fields 14 and 15, i.e. 11 and 12 after `)`.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            let x: u64 = (0..5_000_000u64).map(|i| i ^ (i >> 3)).sum();
            std::hint::black_box(x);
            assert!(cpu_seconds() >= 0.0);
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
