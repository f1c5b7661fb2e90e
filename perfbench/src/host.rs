//! Host-side measurements: wall clock, process CPU time and peak RSS.
//!
//! These clock reads live in the benchmark, outside every crate the
//! `simlint` determinism lint scans; the simulator itself never reads a
//! host clock.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a valid, writable `struct rusage` for this target.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u
}

/// User plus system CPU time of this process so far, seconds.
pub fn cpu_s() -> f64 {
    let u = rusage();
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&u.utime) + t(&u.stime)
}

/// Peak resident set size of this process so far, MiB: `VmHWM` from
/// `/proc/self/status`. Not `ru_maxrss`, which Linux carries across
/// `execve` and so reports the launcher's peak (e.g. `cargo run`'s) when
/// that is larger.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Host wall and CPU time of one span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system).
    pub cpu_s: f64,
}

impl Span {
    /// Run `f`, returning its value and the host time it took.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, Span) {
        let cpu0 = cpu_s();
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let span = Span {
            wall_s,
            cpu_s: cpu_s() - cpu0,
        };
        (out, span)
    }
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, o: Span) {
        self.wall_s += o.wall_s;
        self.cpu_s += o.cpu_s;
    }
}

/// Median of a sample; `NaN` for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_time_and_rss_are_positive() {
        let (x, span) = Span::time(|| (0..2_000_000u64).fold(0u64, |a, b| a ^ b.wrapping_mul(31)));
        std::hint::black_box(x);
        assert!(span.wall_s > 0.0);
        assert!(span.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
