//! The host reference row: the benchmark's own loops, timed in the same run
//! as everything they are compared with. They move no end-to-end metric;
//! they explain drift (`host.shifted`) and give the `*_frac` metrics their
//! denominators, the way the paper sets each Gflop/P beside its machine's
//! Table-1 row.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::stats::median;
use crate::sys;

/// Upper bound on one triad array. First-touching fresh guest memory costs
/// about 10 ms per MiB on the reference host (the hypervisor faults every
/// page in), so a guest that reports its host's 260 MiB L3 and asks for
/// 3 × 1 GiB would spend half a minute allocating. Three arrays of this size
/// still exceed that L3 together.
pub const TRIAD_ARRAY_CAP: u64 = 128 << 20;

/// The cheap drift probes, taken before and after every workload.
#[derive(Clone, Copy, Debug)]
pub struct Drift {
    /// Thread wake latency, µs (`unpark` to the sleeper running).
    pub wake_us: f64,
    /// Wall time of a fixed dependent integer chain, ms.
    pub spin_ms: f64,
}

impl Drift {
    /// Measures both probes (~50 ms). Call it unpinned: the wake probe pins
    /// its two threads to different CPUs and leaves the caller free to run
    /// on all of them.
    pub fn measure() -> Drift {
        Drift { wake_us: wake_us(), spin_ms: spin_ms() }
    }

    /// True when either probe moved by more than 30 % between `self`
    /// (before) and `after`.
    pub fn shifted(&self, after: &Drift) -> bool {
        let moved = |a: f64, b: f64| a > 0.0 && (b / a - 1.0).abs() > 0.30;
        moved(self.wake_us, after.wake_us) || moved(self.spin_ms, after.spin_ms)
    }

    /// The guard-rail note every untraced run prints: `self` was taken
    /// before the workload, `after` after it.
    pub fn note(&self, after: &Drift, pinned: bool) -> String {
        format!(
            "pinned: {pinned}; host_shifted: {}; wake {:.1}->{:.1} us, spin {:.2}->{:.2} ms",
            self.shifted(after),
            self.wake_us,
            after.wake_us,
            self.spin_ms,
            after.spin_ms
        )
    }
}

fn spin_once() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..4_000_000u32 {
        // black_box per step: LLVM otherwise folds an affine recurrence into
        // a closed form and the "4 M steps" take microseconds.
        x = black_box(x).wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of five runs of a 4 M-step dependent multiply-add chain: pure
/// core speed, no memory. Moves with frequency, steal and SMT neighbours.
pub fn spin_ms() -> f64 {
    median(&[spin_once(), spin_once(), spin_once(), spin_once(), spin_once()])
}

/// Median latency from `unpark` to the woken thread running again, µs. The
/// sleeper is given 50 µs to be truly parked before each wake, so this is a
/// futex wake plus a scheduler hand-off — cheap when waker and sleeper share
/// a core's cache, dear across vCPUs: the difference behind the 24 µs vs
/// 62 µs per-request regimes the README quotes.
pub fn wake_us() -> f64 {
    const ROUNDS: usize = 300;
    let epoch = Instant::now();
    // ns since `epoch` at which the waker called unpark; 0 = no wake pending.
    let sent = Arc::new(AtomicU64::new(0));
    let sleeper_sent = Arc::clone(&sent);
    // With two CPUs, make the wake cross them: left to the scheduler the
    // sleeper sometimes lands on the waker's CPU and is "woken" by
    // preempting it, which reads 1 µs instead of 20.
    let cross = sys::pin_layout();
    let sleeper_cpu = cross.as_ref().map(|(others, _)| others[0]);
    let sleeper = std::thread::spawn(move || {
        if let Some(cpu) = sleeper_cpu {
            sys::pin_current_thread(&[cpu]);
        }
        let mut waits = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let mut at = sleeper_sent.load(Ordering::Acquire);
            while at == 0 {
                std::thread::park();
                at = sleeper_sent.load(Ordering::Acquire);
            }
            waits.push((epoch.elapsed().as_nanos() as u64).saturating_sub(at) as f64 / 1e3);
            sleeper_sent.store(0, Ordering::Release);
        }
        waits
    });
    if let Some((_, waker_cpu)) = &cross {
        sys::pin_current_thread(&[*waker_cpu]);
    }
    for _ in 0..ROUNDS {
        while sent.load(Ordering::Acquire) != 0 {
            std::hint::spin_loop();
        }
        let settle = Instant::now();
        while settle.elapsed().as_micros() < 50 {
            std::hint::spin_loop();
        }
        sent.store(epoch.elapsed().as_nanos().max(1) as u64, Ordering::Release);
        sleeper.thread().unpark();
    }
    let waits = sleeper.join().expect("wake-latency sleeper panicked");
    if cross.is_some() {
        sys::pin_current_thread(&(0..sys::nproc()).collect::<Vec<_>>());
    }
    median(&waits)
}

/// Single-thread FMA peak, Gflop/s: 16 independent 8-lane accumulator
/// chains, enough to cover the FMA latency on two ports.
pub fn fma_gflops() -> f64 {
    const LANES: usize = 128;
    const ITERS: usize = 400_000;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = [1.0f64; LANES];
        let (x, y) = (black_box(0.999_999_9f64), black_box(1e-9f64));
        let t = Instant::now();
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = a.mul_add(x, y);
            }
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(&acc);
        best = best.max(2.0 * LANES as f64 * ITERS as f64 / secs / 1e9);
    }
    best
}

/// Triad arrays sized for a bandwidth measurement, reusable so that
/// `kernels.triad_gbs` streams the very same memory.
pub struct TriadArrays {
    /// Destination.
    pub a: Vec<f64>,
    /// First source.
    pub b: Vec<f64>,
    /// Second source.
    pub c: Vec<f64>,
    /// Last-level cache the size was derived from, bytes (0 = unknown).
    pub llc_bytes: u64,
    /// Whether a cap (¼ RAM or [`TRIAD_ARRAY_CAP`]) shrank the arrays below
    /// 4 × LLC.
    pub capped: bool,
}

impl TriadArrays {
    /// Allocates and first-touches three arrays of max(4 × LLC, 64 MiB)
    /// bytes each, capped so the three together stay within ¼ of RAM and
    /// each within [`TRIAD_ARRAY_CAP`].
    pub fn allocate() -> TriadArrays {
        let llc = sys::llc_bytes().unwrap_or(0);
        let want = (4 * llc).max(64 << 20);
        let ram_cap = sys::ram_bytes().map_or(u64::MAX, |r| r / 4 / 3);
        let bytes = want.min(ram_cap).min(TRIAD_ARRAY_CAP);
        let n = (bytes / 8) as usize;
        TriadArrays {
            a: vec![0.0; n],
            b: vec![1.0; n],
            c: vec![2.0; n],
            llc_bytes: llc,
            capped: bytes < want,
        }
    }

    /// Bytes per array.
    pub fn array_bytes(&self) -> u64 {
        self.a.len() as u64 * 8
    }

    /// Best-of-three bandwidth of `triad` over the arrays, GB/s, counting
    /// the STREAM convention's 24 bytes per element.
    pub fn gbs(&mut self, triad: impl Fn(&mut [f64], &[f64], &[f64], f64)) -> f64 {
        let mut best = 0.0f64;
        for _ in 0..3 {
            let t = Instant::now();
            triad(black_box(&mut self.a), &self.b, &self.c, 3.0);
            best = best.max(self.a.len() as f64 * 24.0 / t.elapsed().as_secs_f64() / 1e9);
        }
        best
    }
}

/// The benchmark's own triad loop (the reference `kernels::stream::triad`
/// is compared with).
pub fn own_triad(a: &mut [f64], b: &[f64], c: &[f64], q: f64) {
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a = b + q * c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_flags_only_large_moves() {
        let before = Drift { wake_us: 10.0, spin_ms: 2.0 };
        assert!(!before.shifted(&Drift { wake_us: 12.5, spin_ms: 2.2 }));
        assert!(before.shifted(&Drift { wake_us: 14.0, spin_ms: 2.0 }));
        assert!(before.shifted(&Drift { wake_us: 10.0, spin_ms: 1.2 }));
    }

    #[test]
    fn probes_return_positive_finite_numbers() {
        let d = Drift::measure();
        assert!(d.wake_us > 0.0 && d.wake_us.is_finite());
        assert!(d.spin_ms > 0.0 && d.spin_ms.is_finite());
    }
}
