//! What the host did to the process: peak memory, CPU time and run-queue
//! wait, read from `/proc`.

use std::fs;

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds on CPU and nanoseconds runnable-but-waiting, summed over
/// every live thread of the process (`/proc/self/task/*/schedstat`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStat {
    pub run_ns: f64,
    pub wait_ns: f64,
}

impl SchedStat {
    pub fn now() -> SchedStat {
        let mut total = SchedStat::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else { return total };
        for task in tasks.flatten() {
            let Ok(text) = fs::read_to_string(task.path().join("schedstat")) else { continue };
            let mut fields = text.split_whitespace().map(|f| f.parse::<f64>().unwrap_or(0.0));
            total.run_ns += fields.next().unwrap_or(0.0);
            total.wait_ns += fields.next().unwrap_or(0.0);
        }
        total
    }

    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat { run_ns: self.run_ns - earlier.run_ns, wait_ns: self.wait_ns - earlier.wait_ns }
    }
}
