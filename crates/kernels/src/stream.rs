//! The STREAM triad microkernel.
//!
//! Table 1 of the paper characterizes every platform by its measured
//! EP-STREAM triad bandwidth; the architectural model's memory terms are
//! expressed in the same units. The benchmark times [`triad`] to state the
//! *host* machine's bandwidth, and the probe counts of [`triad_with`] hold
//! the model's bytes-per-iteration accounting exact.

use hec_core::probe::{self, Counters};

/// Bytes moved per triad iteration (`a[i] = b[i] + q*c[i]`):
/// two 8-byte loads plus one 8-byte store.
pub const TRIAD_BYTES_PER_ELEM: usize = 24;

/// Flops per triad iteration (one multiply, one add).
pub const TRIAD_FLOPS_PER_ELEM: usize = 2;

/// Minimum triad elements per worker before [`triad_with`] spawns: below
/// this the per-thread spawn cost exceeds the streamed work (the
/// `triad_4096/t4` regression), so the handle is clamped serial.
pub const TRIAD_MIN_ELEMS_PER_WORKER: usize = 64 * 1024;

/// STREAM triad: `a[i] = b[i] + q * c[i]`.
pub fn triad(a: &mut [f64], b: &[f64], c: &[f64], q: f64) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    for ((ai, bi), ci) in a.iter_mut().zip(b).zip(c) {
        *ai = *bi + q * *ci;
    }
}

/// [`triad`] with the arrays split across workers — the EP-STREAM
/// configuration the paper's Table 1 measures (independent triads per
/// processor). Element-wise and disjoint, so bitwise identical to the
/// serial triad.
pub fn triad_with(threads: &hec_core::pool::Threads, a: &mut [f64], b: &[f64], c: &[f64], q: f64) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    if a.is_empty() {
        return;
    }
    let n = a.len() as u64;
    probe::count(
        "kernels/stream triad",
        Counters {
            flops: n * TRIAD_FLOPS_PER_ELEM as u64,
            unit_stride_bytes: n * TRIAD_BYTES_PER_ELEM as u64,
            vector_iters: n,
            vector_loops: 1,
            ..Default::default()
        },
    );
    let threads = threads.clamp_for(a.len(), TRIAD_MIN_ELEMS_PER_WORKER);
    let chunk = a.len().div_ceil(threads.workers()).max(1);
    threads.par_chunks_mut(a, chunk, |ci, ca| {
        let lo = ci * chunk;
        triad(ca, &b[lo..lo + ca.len()], &c[lo..lo + ca.len()], q);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_computes_expected_values() {
        let b = vec![1.0, 2.0, 3.0];
        let c = vec![10.0, 20.0, 30.0];
        let mut a = vec![0.0; 3];
        triad(&mut a, &b, &c, 0.5);
        assert_eq!(a, vec![6.0, 12.0, 18.0]);
    }

    #[test]
    fn small_triads_take_the_serial_path() {
        use hec_core::pool::Threads;
        // The dispatch rule triad_with applies: below the cutoff the
        // clamped handle is serial, so no threads are spawned for the
        // bench's 4096-element case that regressed 45× under /t4.
        let t = Threads::new(4);
        assert_eq!(t.clamp_for(4096, TRIAD_MIN_ELEMS_PER_WORKER).workers(), 1);
        assert_eq!(t.clamp_for(65536, TRIAD_MIN_ELEMS_PER_WORKER).workers(), 1);
        assert_eq!(t.clamp_for(1 << 20, TRIAD_MIN_ELEMS_PER_WORKER).workers(), 4);
        // And the clamped path still computes the same values.
        let n = 4096;
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let c: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
        let mut a1 = vec![0.0; n];
        let mut a4 = vec![0.0; n];
        triad(&mut a1, &b, &c, 1.5);
        triad_with(&t, &mut a4, &b, &c, 1.5);
        assert_eq!(a1, a4);
    }

    #[test]
    fn triad_probe_counts_match_the_documented_constants() {
        use hec_core::pool::Threads;
        use hec_core::probe;
        let n = 1000u64;
        let b = vec![1.0; n as usize];
        let c = vec![2.0; n as usize];
        let ((), cap) = probe::capture(|| {
            let mut a = vec![0.0; n as usize];
            triad_with(&Threads::new(2), &mut a, &b, &c, 3.0);
        });
        let t = cap.get("kernels/stream triad");
        assert_eq!(t.flops, n * TRIAD_FLOPS_PER_ELEM as u64);
        assert_eq!(t.unit_stride_bytes, n * TRIAD_BYTES_PER_ELEM as u64);
        assert_eq!(t.avg_vector_length(), n as f64);
    }
}
