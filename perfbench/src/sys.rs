//! Process and host readings from `/proc`, and the environment guard.

extern "C" {
    fn sysconf(name: i32) -> i64;
    /// glibc: returns freed heap pages to the kernel.
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// User + system CPU seconds of this process, all threads included (the
/// kernel folds exited threads into the process totals).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Field 2 (comm) may contain spaces; fields after its closing paren
    // start at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / clock_ticks_per_s(),
        _ => 0.0,
    }
}

/// Host-wide CPU steal seconds since boot (summed over CPUs), from the
/// aggregate `cpu` line of `/proc/stat`.
pub fn host_steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return 0.0;
    };
    line.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<f64>().ok())
        .map(|t| t / clock_ticks_per_s())
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Milliseconds this host takes for a fixed piece of the benchmark's own
/// work: a dependent floating-point chain and a random walk over a 1 MB
/// table. No program code runs in it, so it moves only with the host's
/// speed, which host steal alone does not capture.
pub fn reference_ms() -> f64 {
    const SLOTS: usize = 1 << 17;
    let start = std::time::Instant::now();
    let mut x = 1.0f64;
    for i in 0..20_000_000u32 {
        x = x * 0.999_999_9 + f64::from(i & 7) * 1e-9;
    }
    // A full-period LCG over the slots: one cycle, prefetch-hostile.
    let table: Vec<u32> = (0..SLOTS as u32)
        .map(|i| (i.wrapping_mul(1_103_515_245).wrapping_add(12_345)) & (SLOTS as u32 - 1))
        .collect();
    let mut j = 0u32;
    for _ in 0..4_000_000 {
        j = table[j as usize];
    }
    std::hint::black_box((x, j));
    start.elapsed().as_secs_f64() * 1e3
}

/// Median microseconds of a round trip between two threads through
/// rendezvous channels: the host's cost of waking a blocked thread, which
/// every cross-thread hand-off in a workload pays and host steal does not
/// show.
pub fn wakeup_round_trip_us() -> f64 {
    use std::sync::mpsc::sync_channel;
    const TRIPS: usize = 1000;
    let (to_echo, echo_rx) = sync_channel::<()>(0);
    let (to_main, main_rx) = sync_channel::<()>(0);
    let echo = std::thread::spawn(move || {
        for () in echo_rx {
            if to_main.send(()).is_err() {
                break;
            }
        }
    });
    let mut trips = Vec::with_capacity(TRIPS);
    for _ in 0..TRIPS {
        let start = std::time::Instant::now();
        to_echo.send(()).expect("echo thread alive");
        main_rx.recv().expect("echo thread alive");
        trips.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(to_echo);
    echo.join().expect("echo thread exits");
    crate::stats::median(&trips)
}

/// Resets the peak resident set size (`VmHWM`) to the current one, so
/// [`peak_rss_mb`] reports the peak from here on. Heap pages an earlier
/// workload freed are handed back first: the allocator keeps them
/// resident otherwise, and they would count towards the next peak.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases free memory the allocator owns.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    // "5" resets the high-water mark (proc(5), /proc/pid/clear_refs). A
    // kernel without it leaves the process-wide peak in place.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Environment prefixes the program reads into process-wide settings: a
/// stray `PM_LP_BASIS` or `PM_SERVE_SHARDS` would silently change the
/// program being measured.
pub const FORBIDDEN_ENV_PREFIXES: [&str; 2] = ["PM_LP_", "PM_SERVE_"];

/// The names of every set variable with a forbidden prefix.
pub fn forbidden_env<I: IntoIterator<Item = String>>(names: I) -> Vec<String> {
    let mut bad: Vec<String> = names
        .into_iter()
        .filter(|k| FORBIDDEN_ENV_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    bad.sort();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = x.wrapping_add(1);
        }
        assert!(x > 0);
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(host_steal_s() >= 0.0);
        assert!(reference_ms() > 0.0 && wakeup_round_trip_us() > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_the_current_size() {
        const MB: usize = 1 << 20;
        let big = vec![1u8; 64 * MB];
        assert!(big.iter().step_by(4096).all(|&b| b == 1));
        let with_big = peak_rss_mb();
        drop(big);
        reset_peak_rss();
        assert!(
            peak_rss_mb() < with_big - 32.0,
            "peak {} MB after the reset, {with_big} MB before",
            peak_rss_mb()
        );
    }

    #[test]
    fn env_guard_matches_only_program_prefixes() {
        let names = ["PATH", "PM_LP_BASIS", "PM_SERVE_SHARDS", "PM_LPX", "CARGO"].map(String::from);
        assert_eq!(forbidden_env(names), vec!["PM_LP_BASIS", "PM_SERVE_SHARDS"]);
    }
}
