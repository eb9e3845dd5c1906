//! Process CPU time and peak resident memory from `getrusage(2)`.
//!
//! The layout below is `struct rusage` on 64-bit Linux, where `long`
//! and `time_t` are 64 bits wide.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    /// `ru_ixrss` through `ru_nivcsw`.
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource use of this process so far, every thread included.
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size in KiB.
    pub max_rss_kb: u64,
}

/// Reads this process's resource use.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value laid out as the C `struct
    // rusage` of this platform (see the module docs), and RUSAGE_SELF is
    // a valid `who`; the call writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    let micros = |t: &Timeval| {
        Duration::from_secs(u64::try_from(t.sec).unwrap_or(0))
            + Duration::from_micros(u64::try_from(t.usec).unwrap_or(0))
    };
    Usage {
        cpu: micros(&ru.utime) + micros(&ru.stime),
        max_rss_kb: u64::try_from(ru.maxrss_kb).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu > before.cpu);
        assert!(after.max_rss_kb > 0);
    }
}
