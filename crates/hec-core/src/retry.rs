//! Deterministic retry pacing: exponential backoff with seeded jitter.
//!
//! Distributed callers (the serve client, the cluster router) retry
//! transient failures — connection refused during a replica restart, a
//! `503` under load — and the delays between attempts must be jittered
//! so a fleet of retriers does not stampede in lockstep. Randomized
//! jitter usually makes such paths untestable; here the jitter stream
//! comes from [`crate::rng::Rng`], so a seed pins the exact delay
//! sequence and failover tests replay bit-for-bit.

use std::time::Duration;

use crate::rng::Rng;

/// Exponential backoff with multiplicative jitter in `[0.5, 1.5)`.
///
/// Attempt *k* (0-based) sleeps `base_ms << k` milliseconds, capped at
/// `cap_ms`, scaled by a jitter factor drawn from the seeded generator.
/// After `max_attempts` delays, [`Backoff::next_delay`] returns `None`
/// and the caller should give up.
#[derive(Clone, Debug)]
pub struct Backoff {
    rng: Rng,
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
    max_attempts: u32,
}

impl Backoff {
    /// A backoff whose delay sequence is a pure function of `seed`.
    pub fn new(seed: u64, base_ms: u64, cap_ms: u64, max_attempts: u32) -> Backoff {
        Backoff {
            rng: Rng::new(seed),
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            attempt: 0,
            max_attempts,
        }
    }

    /// The next delay to sleep before retrying, or `None` when the
    /// attempt budget is exhausted. Deterministic given the seed.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.max_attempts {
            return None;
        }
        let exp = self.base_ms.saturating_shl(self.attempt.min(20)).min(self.cap_ms);
        self.attempt += 1;
        let jitter = 0.5 + self.rng.uniform(); // [0.5, 1.5)
        let ms = (exp as f64 * jitter).round() as u64;
        Some(Duration::from_millis(ms.max(1)))
    }
}

/// `u64::checked_shl` that saturates instead of wrapping — backoff
/// growth must clamp, never overflow back to tiny delays.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_delay_sequence() {
        let mut a = Backoff::new(7, 10, 1000, 6);
        let mut b = Backoff::new(7, 10, 1000, 6);
        for _ in 0..6 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
        assert_eq!(a.next_delay(), None);
        assert!(a.next_delay().is_none(), "a spent budget stays spent");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        // The jitter must actually depend on the seed — identical
        // schedules across a retrier fleet is exactly the stampede the
        // jitter exists to break up.
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(seed, 10, 10_000, 8);
            std::iter::from_fn(|| b.next_delay()).collect()
        };
        let base = schedule(1);
        assert!((2..=16).any(|s| schedule(s) != base), "all seeds produced one schedule");
    }

    #[test]
    fn clone_replays_the_remaining_schedule() {
        // Cloning mid-stream snapshots the generator state: the clone
        // must continue with exactly the delays the original will take.
        let mut a = Backoff::new(99, 10, 1000, 8);
        a.next_delay();
        a.next_delay();
        let mut b = a.clone();
        for _ in 0..6 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
        assert_eq!(a.next_delay(), None);
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn delays_grow_exponentially_within_jitter_bounds() {
        let mut b = Backoff::new(42, 10, 10_000, 8);
        for k in 0..8u32 {
            let d = b.next_delay().unwrap().as_millis() as u64;
            let nominal = 10u64 << k;
            assert!(d >= nominal / 2, "attempt {k}: {d} < {}", nominal / 2);
            assert!(d <= nominal + nominal / 2 + 1, "attempt {k}: {d} too large");
        }
    }

    #[test]
    fn cap_bounds_the_delay() {
        let mut b = Backoff::new(1, 100, 150, 20);
        for _ in 0..20 {
            let d = b.next_delay().unwrap().as_millis() as u64;
            assert!(d <= 150 + 75, "delay {d} exceeds jittered cap");
        }
    }

    #[test]
    fn zero_attempts_refuses_immediately() {
        let mut b = Backoff::new(3, 10, 100, 0);
        assert!(b.next_delay().is_none());
    }

    #[test]
    fn huge_shift_saturates_instead_of_wrapping() {
        let mut b = Backoff::new(5, u64::MAX / 2, u64::MAX, 25);
        let mut last = 0u64;
        for _ in 0..25 {
            let d = b.next_delay().unwrap().as_millis() as u64;
            assert!(d >= last / 2, "delay collapsed after overflow");
            last = d;
        }
    }
}
