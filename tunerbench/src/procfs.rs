//! Process counters read from `/proc`: CPU time, peak resident memory
//! and bytes written. Every reader returns `Err(reason)` when the file
//! is missing or unreadable, so a metric built on it becomes a `null`
//! with that reason instead of a number.

use std::fs;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const TICKS_PER_SEC: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// CPU seconds (user + system) of the whole process, including
/// threads that have already exited. Resolution is one clock tick.
pub fn process_cpu_secs() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SEC)
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    // `rest` starts at field 3 (state), so field 14 is index 11.
    Ok(tick(11)? + tick(12)?)
}

/// Nanoseconds the calling thread has run on a CPU.
pub fn thread_cpu_ns() -> Result<u64, String> {
    schedstat("/proc/thread-self/schedstat")
}

fn schedstat(path: &str) -> Result<u64, String> {
    read(path)?
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("malformed {path}"))
}

/// Nanoseconds every live thread of the process has run on a CPU.
pub fn live_threads_cpu_ns() -> Result<u64, String> {
    let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("cannot list threads: {e}"))?;
    let mut total = 0;
    for entry in dir {
        let entry = entry.map_err(|e| format!("cannot list threads: {e}"))?;
        // A thread may exit between the listing and the read; it then
        // contributes nothing to this interval either.
        if let Ok(ns) = schedstat(&format!("{}/schedstat", entry.path().display())) {
            total += ns;
        }
    }
    Ok(total)
}

fn status_kb(key: &str) -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no {key} in /proc/self/status"))
}

/// Peak resident set size of the process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_kb("VmHWM:")? / 1024.0)
}

/// Host-wide CPU time counters from `/proc/stat`: (stolen, total), in
/// clock ticks. Stolen time is what the hypervisor gave to other guests.
pub fn host_cpu_ticks() -> Result<(u64, u64), String> {
    let stat = read("/proc/stat")?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .map(|f| f.parse().map_err(|_| "malformed /proc/stat".to_owned()))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let steal = *ticks.get(7).ok_or("no steal field in /proc/stat")?;
    Ok((steal, ticks.iter().take(8).sum()))
}

/// Bytes the process has caused to be sent to the storage layer.
pub fn write_bytes() -> Result<u64, String> {
    read("/proc/self/io")?
        .lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no write_bytes in /proc/self/io".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_on_linux() {
        let before = process_cpu_secs().expect("process cpu");
        let t = thread_cpu_ns().expect("thread cpu");
        // Burn a little CPU so the thread counter moves.
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns().expect("thread cpu") > t);
        assert!(process_cpu_secs().expect("process cpu") >= before);
        assert!(live_threads_cpu_ns().expect("threads") > 0);
        assert!(peak_rss_mb().expect("rss") > 0.0);
        let (steal, total) = host_cpu_ticks().expect("host ticks");
        assert!(total > steal);
    }
}
