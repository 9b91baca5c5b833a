//! What the host did to the measurement: time the hypervisor took away
//! from this guest ("steal"). On a shared box steal comes in episodes —
//! minutes in which half of every second is stolen and a 0.7 s rep takes
//! 18 s — and it is the one kind of host noise the guest is told about,
//! so timed samples carry it as a diagnostic. It never enters a metric:
//! steal only lengthens a sample, so the plain minimum already prefers
//! the samples that lost least.

use std::io::Read;

/// `/proc/stat` counts in `USER_HZ` ticks, 100 per second on every Linux
/// ABI (it is `sysconf(_SC_CLK_TCK)`, fixed so that `/proc` stays parseable).
const USER_HZ: f64 = 100.0;

/// Seconds stolen from all of this guest's CPUs since boot; 0 where the
/// kernel does not say (not Linux, not a guest).
pub fn stolen_seconds() -> f64 {
    // Only the first line ("cpu  user nice system idle iowait irq softirq
    // steal ...") is needed; the rest of the file can be kilobytes.
    let mut head = [0u8; 256];
    let Ok(n) = std::fs::File::open("/proc/stat").and_then(|mut f| f.read(&mut head)) else {
        return 0.0;
    };
    std::str::from_utf8(&head[..n])
        .ok()
        .and_then(|text| text.split_once('\n')) // a cut-off line could end mid-number
        .and_then(|(line, _)| line.split_ascii_whitespace().nth(8))
        .and_then(|steal| steal.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// One timed sample and what was stolen while it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Elapsed host seconds.
    pub secs: f64,
    /// Seconds the hypervisor reported stealing meanwhile (10 ms steps).
    pub stolen: f64,
}

/// Time `f`, noting the steal that accrued while it ran.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let stolen_before = stolen_seconds();
    let start = std::time::Instant::now();
    let r = f();
    let secs = start.elapsed().as_secs_f64();
    let stolen = (stolen_seconds() - stolen_before).max(0.0);
    (r, Sample { secs, stolen })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_reads_as_a_monotone_counter() {
        let (a, b) = (stolen_seconds(), stolen_seconds());
        assert!(a >= 0.0 && b >= a);
        let ((), sample) = timed(|| ());
        assert!(sample.secs >= 0.0 && sample.stolen >= 0.0);
    }
}
