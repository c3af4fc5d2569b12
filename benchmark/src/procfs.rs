//! What `/proc` tells about a process from outside it: CPU time, peak
//! resident memory, context switches — and which filesystem a path is on.

use std::path::Path;

/// Kernel clock ticks per second, the unit of `/proc/<pid>/stat` times.
/// Linux has reported 100 to user space on every architecture for decades
/// (`USER_HZ`); `getconf` is asked anyway and 100 is the fallback.
pub fn ticks_per_second() -> f64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|hz| *hz > 0.0)
        .unwrap_or(100.0)
}

/// `utime + stime` of `pid` (all its threads) in clock ticks.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    parse_cpu_ticks(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Fields 14 and 15 of a `/proc/<pid>/stat` line. The command name (field
/// 2) may itself hold spaces and parentheses, so fields are counted from
/// the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU ticks summed over `pids`; a process that is gone contributes 0.
pub fn cpu_ticks_of(pids: &[u32]) -> u64 {
    pids.iter().filter_map(|&pid| cpu_ticks(pid)).sum()
}

/// One `Key:   value [kB]` line of a `/proc/<pid>/status` text.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|value| value.split_whitespace().next())
        .and_then(|number| number.parse().ok())
}

/// Peak resident set size (`VmHWM`) of `pid` in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    status_field(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        "VmHWM",
    )
}

/// Voluntary plus involuntary context switches of every thread of `pid`.
pub fn context_switches(pid: u32) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        total += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some(total)
}

/// `"<device> <fstype> on <mount point>"` of the filesystem holding `path`,
/// so a durable result states what its fsyncs hit.
pub fn mount_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            Some((f.next()?, f.next()?, f.next()?))
        })
        .filter(|(_, point, _)| path.starts_with(point))
        .max_by_key(|(_, point, _)| point.len())
        .map(|(device, point, fstype)| format!("{device} {fstype} on {point}"))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let stat = "4242 (lhrs netd) (x)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    137 63 0 0 20 0 9 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(200));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tlhrs-netd\nVmHWM:\t   12345 kB\nVmRSS:\t 999 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(12345));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmPeak"), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(cpu_ticks(me).is_some());
        assert!(peak_rss_kib(me).unwrap() > 0);
        assert!(context_switches(me).is_some());
        assert!(mount_of(Path::new("/proc")).contains("proc"));
    }
}
