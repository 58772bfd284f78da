//! One-dimensional complex-to-complex FFT.
//!
//! PARATEC and the FVCAM polar filters both need FFTs over lengths that are
//! not powers of two (FVCAM's D mesh has 576 = 2⁶·3² longitudes), so the
//! planner combines:
//!
//! * an iterative, in-place radix-2 Cooley–Tukey transform for power-of-two
//!   lengths, and
//! * Bluestein's chirp-z algorithm (built on the radix-2 core) for every
//!   other length.
//!
//! A [`FftPlan`] precomputes twiddle factors once and can be reused across
//! many transforms of the same length — the usage pattern of both
//! applications (many FFTs of one fixed length per timestep, vectorized
//! *across* transforms on the vector machines, as §3.1 of the paper
//! describes for the polar filters).

use crate::complex::Complex64;
use hec_core::probe::{self, Counters};

/// Direction of the transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// e^{-2πi jk/n} convention.
    Forward,
    /// e^{+2πi jk/n} convention, scaled by 1/n in [`FftPlan::execute`].
    Inverse,
}

/// A reusable FFT plan for a fixed transform length.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Per-stage forward twiddle tables for the radix-2 core: stage `s`
    /// (butterfly span `2^{s+1}`) holds its `2^s` twiddles contiguously,
    /// so the butterfly loop reads them unit-stride instead of striding
    /// a shared master table. The entries are exact copies of the master
    /// `e^{-2πik/n}` values — caching changes no bits.
    stages_fwd: Vec<Vec<Complex64>>,
    /// The same tables conjugated at plan time (conjugation is exact — it
    /// flips a sign bit), so the inverse pass carries no per-butterfly
    /// direction branch.
    stages_inv: Vec<Vec<Complex64>>,
    /// Bit-reversal permutation for the radix-2 core.
    bitrev: Vec<u32>,
    /// Bluestein machinery for non-power-of-two lengths.
    bluestein: Option<Bluestein>,
}

#[derive(Clone, Debug)]
struct Bluestein {
    /// Padded power-of-two convolution length (≥ 2n-1).
    m: usize,
    /// Chirp `w_k = e^{-iπ k²/n}` for k in 0..n.
    chirp: Vec<Complex64>,
    /// Forward FFT (length m) of the zero-padded conjugate chirp.
    kernel_hat: Vec<Complex64>,
    /// Plan for the length-m power-of-two transforms.
    inner: Box<FftPlan>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        if n.is_power_of_two() {
            let (stages_fwd, stages_inv) = make_stage_tables(n);
            FftPlan { n, stages_fwd, stages_inv, bitrev: make_bitrev(n), bluestein: None }
        } else {
            let m = (2 * n - 1).next_power_of_two();
            let inner = Box::new(FftPlan::new(m));
            // Chirp sequence w_k = exp(-i π k² / n). Computing k² mod 2n keeps
            // the argument small so the phase stays accurate for large n.
            let chirp: Vec<Complex64> = (0..n)
                .map(|k| {
                    let kk = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
                    Complex64::cis(-std::f64::consts::PI * kk / n as f64)
                })
                .collect();
            // Convolution kernel b_k = conj(chirp)[|k|] padded to length m,
            // wrapped so negative indices land at the tail.
            let mut kernel = vec![Complex64::ZERO; m];
            kernel[0] = chirp[0].conj();
            for k in 1..n {
                kernel[k] = chirp[k].conj();
                kernel[m - k] = chirp[k].conj();
            }
            inner.execute(&mut kernel, Direction::Forward);
            FftPlan {
                n,
                stages_fwd: Vec::new(),
                stages_inv: Vec::new(),
                bitrev: Vec::new(),
                bluestein: Some(Bluestein { m, chirp, kernel_hat: kernel, inner }),
            }
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true for the degenerate length-0 plan (never constructed).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Executes the transform in place.
    ///
    /// The inverse transform is scaled by `1/n`, so
    /// `execute(Forward)` followed by `execute(Inverse)` is the identity.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn execute(&self, data: &mut [Complex64], dir: Direction) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        match &self.bluestein {
            None => {
                self.radix2(data, dir);
                if dir == Direction::Inverse {
                    let s = 1.0 / self.n as f64;
                    for z in data.iter_mut() {
                        *z = z.scale(s);
                    }
                }
            }
            Some(b) => self.bluestein_execute(b, data, dir),
        }
    }

    /// In-place iterative radix-2 Cooley–Tukey; `self.n` must be a power of 2.
    fn radix2(&self, data: &mut [Complex64], dir: Direction) {
        let n = data.len();
        debug_assert!(n.is_power_of_two());
        if probe::enabled() && n > 1 {
            // (n/2)·log₂n butterflies at 10 flops each — 5n·log₂n, the
            // baseline count, which the radix-2 core executes exactly.
            // Each butterfly streams two points (read+write) and one
            // twiddle; the bit-reversal pass touches each point once.
            let (nu, stages) = (n as u64, n.trailing_zeros() as u64);
            probe::count(
                "kernels/fft",
                Counters {
                    flops: 5 * nu * stages,
                    unit_stride_bytes: 40 * nu * stages + 32 * nu,
                    vector_iters: (nu / 2) * stages,
                    vector_loops: stages,
                    ..Default::default()
                },
            );
        }
        // Bit-reversal permutation.
        for (i, &r) in self.bitrev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                data.swap(i, r);
            }
        }
        // Butterfly passes. Each stage reads its own contiguous twiddle
        // table (pre-conjugated for the inverse), so the inner loop is
        // three unit-stride streams with no branch.
        let tables = match dir {
            Direction::Forward => &self.stages_fwd,
            Direction::Inverse => &self.stages_inv,
        };
        for (stage, tw) in tables.iter().enumerate() {
            let half = 1usize << stage;
            let len = half * 2;
            let tw = &tw[..half];
            let mut base = 0;
            while base < n {
                let (los, his) = data[base..base + len].split_at_mut(half);
                for k in 0..half {
                    let w = tw[k];
                    let lo = los[k];
                    let hi = his[k] * w;
                    los[k] = lo + hi;
                    his[k] = lo - hi;
                }
                base += len;
            }
        }
    }

    fn bluestein_execute(&self, b: &Bluestein, data: &mut [Complex64], dir: Direction) {
        let n = self.n;
        if probe::enabled() {
            // Chirp-z overhead beyond the two inner radix-2 transforms
            // (those count themselves): three complex multiply passes —
            // input chirp (n), pointwise kernel (m), output chirp (n).
            let (nu, mu) = (n as u64, b.m as u64);
            probe::count(
                "kernels/fft bluestein",
                Counters {
                    flops: 12 * nu + 6 * mu,
                    unit_stride_bytes: 48 * (2 * nu + mu),
                    vector_iters: 2 * nu + mu,
                    vector_loops: 3,
                    ..Default::default()
                },
            );
        }
        // x'_k = x_k * chirp_k  (conjugate chirp for the inverse transform).
        let mut a = vec![Complex64::ZERO; b.m];
        for k in 0..n {
            let c = if dir == Direction::Forward { b.chirp[k] } else { b.chirp[k].conj() };
            a[k] = data[k] * c;
        }
        // Convolve with the precomputed kernel via the power-of-two FFT.
        b.inner.execute(&mut a, Direction::Forward);
        match dir {
            Direction::Forward => {
                for (z, k) in a.iter_mut().zip(b.kernel_hat.iter()) {
                    *z = *z * *k;
                }
            }
            Direction::Inverse => {
                // The inverse chirp kernel is the conjugate of the forward
                // kernel's time series; in frequency space that is a
                // conjugate + index reversal identity. Rather than store a
                // second kernel we exploit conj(FFT(x)) = IFFT(conj(x))·m.
                for (z, k) in a.iter_mut().zip(b.kernel_hat.iter()) {
                    *z = (z.conj() * *k).conj();
                }
            }
        }
        b.inner.execute(&mut a, Direction::Inverse);
        // y_k = chirp_k * conv_k, plus 1/n scaling for the inverse.
        let scale = if dir == Direction::Inverse { 1.0 / n as f64 } else { 1.0 };
        for k in 0..n {
            let c = if dir == Direction::Forward { b.chirp[k] } else { b.chirp[k].conj() };
            data[k] = (a[k] * c).scale(scale);
        }
    }

    /// *Baseline* floating-point operation count of one execution:
    /// `5 n log₂ n` for every length. This is the "valid baseline
    /// flop-count" convention of the paper (§2.1) — rates are computed
    /// from the canonical operation count of the algorithm, not from
    /// whatever a particular implementation (here: Bluestein for
    /// non-power-of-two lengths) happens to execute.
    pub fn flops(&self) -> f64 {
        5.0 * self.n as f64 * (self.n as f64).log2()
    }
}

fn make_twiddles(n: usize) -> Vec<Complex64> {
    let half = (n / 2).max(1);
    (0..half).map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64)).collect()
}

/// Builds the per-stage (forward, inverse) twiddle tables: stage `s` gets
/// the master table's entries at stride `n / 2^{s+1}` — exact copies, and
/// exact conjugates for the inverse.
fn make_stage_tables(n: usize) -> (Vec<Vec<Complex64>>, Vec<Vec<Complex64>>) {
    let master = make_twiddles(n);
    let stages = n.trailing_zeros() as usize;
    let mut fwd = Vec::with_capacity(stages);
    let mut inv = Vec::with_capacity(stages);
    for s in 0..stages {
        let half = 1usize << s;
        let stride = n / (half * 2);
        let table: Vec<Complex64> = (0..half).map(|k| master[k * stride]).collect();
        inv.push(table.iter().map(|w| w.conj()).collect());
        fwd.push(table);
    }
    (fwd, inv)
}

fn make_bitrev(n: usize) -> Vec<u32> {
    let bits = n.trailing_zeros();
    (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits.max(1)) as u32).collect()
}

/// Convenience one-shot forward transform (plans and executes).
pub fn fft(data: &mut [Complex64]) {
    FftPlan::new(data.len()).execute(data, Direction::Forward);
}

/// Convenience one-shot inverse transform (plans and executes).
pub fn ifft(data: &mut [Complex64]) {
    FftPlan::new(data.len()).execute(data, Direction::Inverse);
}

/// Naive O(n²) DFT used as the correctness oracle in tests.
pub fn dft_reference(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let scale = match dir {
        Direction::Forward => 1.0,
        Direction::Inverse => 1.0 / n as f64,
    };
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let theta = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                acc += x * Complex64::cis(theta);
            }
            acc.scale(scale)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n).map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos())).collect()
    }

    #[test]
    fn radix2_matches_reference() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let input = ramp(n);
            let mut out = input.clone();
            fft(&mut out);
            let want = dft_reference(&input, Direction::Forward);
            assert!(max_err(&out, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn bluestein_matches_reference() {
        for &n in &[3usize, 5, 6, 7, 12, 27, 100, 360, 576] {
            let input = ramp(n);
            let mut out = input.clone();
            fft(&mut out);
            let want = dft_reference(&input, Direction::Forward);
            assert!(max_err(&out, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for &n in &[8usize, 27, 576, 1024] {
            let input = ramp(n);
            let mut buf = input.clone();
            let plan = FftPlan::new(n);
            plan.execute(&mut buf, Direction::Forward);
            plan.execute(&mut buf, Direction::Inverse);
            assert!(max_err(&buf, &input) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_reference() {
        for &n in &[4usize, 9, 30] {
            let input = ramp(n);
            let mut out = input.clone();
            ifft(&mut out);
            let want = dft_reference(&input, Direction::Inverse);
            assert!(max_err(&out, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut data = vec![Complex64::ZERO; 64];
        data[0] = Complex64::ONE;
        fft(&mut data);
        for z in &data {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 576;
        let input = ramp(n);
        let mut out = input.clone();
        fft(&mut out);
        let e_time: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = out.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-8 * e_time);
    }

    #[test]
    fn linearity() {
        let n = 96;
        let a = ramp(n);
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(0.3 * i as f64, -0.2)).collect();
        let alpha = Complex64::new(1.5, -0.5);
        let mut combo: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x * alpha + *y).collect();
        fft(&mut combo);
        let mut fa = a.clone();
        fft(&mut fa);
        let mut fb = b.clone();
        fft(&mut fb);
        let want: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x * alpha + *y).collect();
        assert!(max_err(&combo, &want) < 1e-8);
    }

    #[test]
    fn radix2_probe_counts_match_the_baseline_formula() {
        use hec_core::probe;
        let n = 256usize;
        let plan = FftPlan::new(n);
        let ((), cap) = probe::capture(|| {
            let mut data = ramp(n);
            plan.execute(&mut data, Direction::Forward);
        });
        let c = cap.get("kernels/fft");
        let (nu, stages) = (n as u64, n.trailing_zeros() as u64);
        assert_eq!(c.flops, 5 * nu * stages);
        assert_eq!(c.flops as f64, plan.flops(), "baseline formula must agree");
        assert_eq!(c.vector_iters, (nu / 2) * stages);
        assert_eq!(c.vector_loops, stages);
    }

    #[test]
    fn stage_tables_are_exact_strided_copies_of_the_master() {
        // The caching optimization must change no bits: stage s of the
        // per-stage tables holds master[k * n/2^{s+1}], and the inverse
        // table its exact conjugate.
        let n = 1024usize;
        let plan = FftPlan::new(n);
        let master = make_twiddles(n);
        assert_eq!(plan.stages_fwd.len(), n.trailing_zeros() as usize);
        for (s, (fw, iv)) in plan.stages_fwd.iter().zip(&plan.stages_inv).enumerate() {
            let half = 1usize << s;
            let stride = n / (half * 2);
            assert_eq!(fw.len(), half);
            for k in 0..half {
                let w = master[k * stride];
                assert_eq!(fw[k].re.to_bits(), w.re.to_bits(), "stage {s} k {k}");
                assert_eq!(fw[k].im.to_bits(), w.im.to_bits(), "stage {s} k {k}");
                assert_eq!(iv[k].re.to_bits(), w.conj().re.to_bits(), "inv stage {s} k {k}");
                assert_eq!(iv[k].im.to_bits(), w.conj().im.to_bits(), "inv stage {s} k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex64::ZERO; 7];
        plan.execute(&mut data, Direction::Forward);
    }
}
