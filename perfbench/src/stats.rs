//! Exact order statistics and the process readings (`/proc`) the
//! benchmark reports.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (the `ceil(q·n)`-th
/// smallest), or an error when fewer than [`MIN_BEYOND`] samples lie
/// beyond it. Never interpolates or buckets.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {} beyond it; need {MIN_BEYOND}",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// User plus system CPU seconds of every thread this process has run,
/// from `/proc/self/stat` (fields 14 and 15, in the kernel's fixed
/// 100 Hz `USER_HZ` ticks). Returns 0 where `/proc` is unreadable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Cumulative hypervisor steal of all CPUs, in `USER_HZ` ticks (the
/// eighth value of `/proc/stat`'s `cpu` line); 0 where unreadable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Share of the machine's CPU time over the last `wall_s` seconds that
/// the hypervisor stole, given [`steal_ticks`] at its start.
pub fn steal_share(ticks_before: u64, wall_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let stolen = steal_ticks().saturating_sub(ticks_before) as f64 / 100.0;
    ratio(stolen, wall_s * cpus as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Ok(500.0));
        assert_eq!(quantile(&samples, 0.99), Ok(990.0));
        assert!(quantile(&samples[..999], 0.99).is_err());
    }
}
