//! What the harness reads from the host: stolen CPU time, peak resident
//! memory and the CPU count. Parsers take the file's text, so tests feed
//! them fixtures.

/// `/proc/stat` counts in ticks of 1/100 s on every Linux this runs on.
const TICKS_PER_S: f64 = 100.0;

/// Seconds of CPU the hypervisor took from this guest since boot, summed
/// over CPUs: the eighth number of the aggregate `cpu` line.
pub fn parse_steal_s(proc_stat: &str) -> Option<f64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / TICKS_PER_S)
}

/// Peak resident set in MB: the `VmHWM` line of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(proc_status: &str) -> Option<f64> {
    let line = proc_status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line.split_whitespace().skip(1);
    let kb: u64 = it.next()?.parse().ok()?;
    (it.next()? == "kB").then_some(kb as f64 / 1024.0)
}

/// Stolen seconds so far; 0 where `/proc/stat` has no steal column, which
/// makes every repetition pass the steal test there.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_s(&s))
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  40429 0 5409 195329 2170 0 178 16850 0 0\n\
                        cpu0 20211 0 2700 97660 1085 0 90 8400 0 0\n\
                        intr 12345 0 0\n";

    #[test]
    fn steal_is_the_eighth_field_of_the_aggregate_line() {
        assert_eq!(parse_steal_s(STAT), Some(168.5));
        assert_eq!(parse_steal_s("cpu0 1 2 3 4 5 6 7 8\n"), None);
        // Old kernels: no steal column at all.
        assert_eq!(parse_steal_s("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_steal_s("cpu  1 2 3 4 5 6 7 x\n"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tpi2-benchmark\nVmPeak:\t  400000 kB\nVmHWM:\t  235520 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(230.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 1000 pages\n"), None);
    }

    #[test]
    fn live_host_values_are_sane() {
        assert!(steal_s() >= 0.0);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.1));
        assert!(cpus() >= 1);
    }
}
