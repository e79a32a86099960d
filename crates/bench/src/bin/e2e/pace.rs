//! The host's pace: a fixed reference kernel timed between requests,
//! and the correction of every reported timing by it.
//!
//! The sandbox is a small VM whose cores are hyperthreads shared with
//! other tenants. Whenever a neighbour is busy, everything that uses
//! caches and execution ports — the service and this kernel alike —
//! runs 1.2–1.5× slower, for milliseconds or for minutes, while a pure
//! dependency chain keeps its speed. Over ten runs of unchanged code
//! the wall-clock medians spread by 15–47 %. So the driver thread times
//! a small fixed piece of work of its own every few milliseconds,
//! between two requests, and every timing is divided by how much slower
//! than [`REFERENCE`] the kernel ran right before and after it. What is
//! reported is the time the request would have taken at the reference
//! pace; the same runs then spread by 3–14 % (README, *Baseline*).
//!
//! The kernel lives here, in the benchmark's own files, touches no heap
//! after its first call and shares no code with the service, so no
//! change to the service can move it: a request that gets slower or
//! faster shows one to one.

use std::time::{Duration, Instant};

/// What one tick takes on the calibration machine (2 vCPUs of an Intel
/// Xeon @ 2.10 GHz under Firecracker) when no neighbour is busy.
/// Timings are reported at this pace. On another machine the constant
/// only rescales every end-to-end timing by one common factor.
pub const REFERENCE: Duration = Duration::from_micros(250);

/// A request is preceded by a tick when the last one is older than this.
pub const TICK_INTERVAL: Duration = Duration::from_millis(10);

/// Keys the kernel sorts and then searches: 64 KiB, more than the L1
/// data cache holds, well inside L2.
const KEYS: usize = 8192;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel: fill, sort, binary-search. Branchy,
/// cache-resident work like the service's own, on a buffer that is
/// allocated once.
fn kernel(keys: &mut Vec<u64>) -> u64 {
    let mut x = 7;
    keys.clear();
    keys.extend((0..KEYS).map(|_| splitmix(&mut x)));
    keys.sort_unstable();
    (0..KEYS)
        .map(|_| keys.binary_search(&splitmix(&mut x)).unwrap_or_else(|i| i) as u64)
        .sum()
}

/// The ticks of one driver thread. The thread does one thing at a
/// time, so a tick never overlaps an interval it is used to correct.
pub struct Pace {
    keys: Vec<u64>,
    /// When each tick started and what it took, in time order.
    ticks: Vec<(Instant, Duration)>,
}

impl Pace {
    /// A pace log holding its first tick.
    pub fn new() -> Pace {
        let mut pace = Pace {
            keys: Vec::with_capacity(KEYS),
            ticks: Vec::new(),
        };
        pace.tick();
        pace
    }

    /// Times the kernel: the faster of two passes, the first of which
    /// finds the caches as the last request left them.
    pub fn tick(&mut self) {
        let at = Instant::now();
        let mut took = Duration::MAX;
        for _ in 0..2 {
            let t = Instant::now();
            std::hint::black_box(kernel(&mut self.keys));
            took = took.min(t.elapsed());
        }
        self.ticks.push((at, took));
    }

    /// Ticks unless the last tick is younger than [`TICK_INTERVAL`].
    pub fn tick_if_due(&mut self) {
        let (last, _) = self.ticks[self.ticks.len() - 1];
        if last.elapsed() >= TICK_INTERVAL {
            self.tick();
        }
    }

    /// How much slower than [`REFERENCE`] the host ran around an
    /// interval that began at `start`: the mean of the last tick before
    /// it and the first tick after it.
    pub fn slowdown(&self, start: Instant) -> f64 {
        let next = self.ticks.partition_point(|(at, _)| *at <= start);
        let before = self.ticks[next.saturating_sub(1)].1;
        let after = self.ticks[next.min(self.ticks.len() - 1)].1;
        (before + after).as_secs_f64() / 2.0 / REFERENCE.as_secs_f64()
    }

    /// How much slower than [`REFERENCE`] the latest tick ran.
    pub fn latest(&self) -> f64 {
        self.ticks[self.ticks.len() - 1].1.as_secs_f64() / REFERENCE.as_secs_f64()
    }

    /// An interval that began at `start` and took `elapsed`, as long as
    /// it would have taken at the reference pace.
    pub fn at_reference(&self, start: Instant, elapsed: Duration) -> Duration {
        elapsed.div_f64(self.slowdown(start))
    }

    /// Number of ticks and their median duration.
    pub fn summary(&self) -> (usize, Duration) {
        let mut took: Vec<Duration> = self.ticks.iter().map(|(_, d)| *d).collect();
        took.sort();
        (took.len(), took[(took.len() - 1) / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_the_same_work_every_time() {
        let mut keys = Vec::new();
        let first = kernel(&mut keys);
        assert_eq!(keys.len(), KEYS);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(kernel(&mut keys), first);
    }

    #[test]
    fn an_interval_is_corrected_by_the_ticks_on_either_side() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let pace = Pace {
            keys: Vec::new(),
            ticks: vec![
                (at(0), REFERENCE),
                (at(10), REFERENCE * 2),
                (at(20), REFERENCE * 3),
            ],
        };
        // Between the first two ticks the host ran 1.5x slower.
        assert!((pace.slowdown(at(5)) - 1.5).abs() < 1e-9);
        assert!((pace.slowdown(at(15)) - 2.5).abs() < 1e-9);
        // Outside the log the nearest tick counts twice.
        assert!((pace.slowdown(at(25)) - 3.0).abs() < 1e-9);
        assert_eq!(
            pace.at_reference(at(5), Duration::from_millis(3)),
            Duration::from_millis(2)
        );
        assert_eq!(pace.summary(), (3, REFERENCE * 2));
        assert!((pace.latest() - 3.0).abs() < 1e-9);
    }
}
