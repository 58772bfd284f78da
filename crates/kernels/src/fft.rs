//! One-dimensional complex-to-complex FFT.
//!
//! PARATEC and the FVCAM polar filters both need FFTs over lengths that are
//! not powers of two (FVCAM's D mesh has 576 = 2⁶·3² longitudes), so the
//! planner picks one of three algorithms from the length's prime factors:
//!
//! * an iterative, in-place radix-2 Cooley–Tukey transform for power-of-two
//!   lengths;
//! * a self-sorting Stockham transform built from radix-4/2/3/5 passes for
//!   every other length whose prime factors are all ≤ 5 (FVCAM's 144 and
//!   576, 360, 1000);
//! * Bluestein's chirp-z algorithm (built on the radix-2 core) for lengths
//!   with a prime factor > 5.
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
    algo: Algo,
}

/// The algorithm a plan runs, chosen from the length's prime factors.
#[derive(Clone, Debug)]
enum Algo {
    /// Power-of-two lengths.
    Radix2(Radix2),
    /// Other lengths whose prime factors are all ≤ 5.
    Stockham(Stockham),
    /// Lengths with a prime factor > 5.
    Bluestein(Bluestein),
}

#[derive(Clone, Debug)]
struct Radix2 {
    /// Per-stage forward twiddle tables: stage `s` (butterfly span
    /// `2^{s+1}`) holds its `2^s` twiddles contiguously, so the butterfly
    /// loop reads them unit-stride instead of striding a shared master
    /// table. The entries are exact copies of the master `e^{-2πik/n}`
    /// values — caching changes no bits.
    stages_fwd: Vec<Vec<Complex64>>,
    /// The same tables conjugated at plan time (conjugation is exact — it
    /// flips a sign bit), so the inverse pass carries no per-butterfly
    /// direction branch.
    stages_inv: Vec<Vec<Complex64>>,
    /// Bit-reversal permutation.
    bitrev: Vec<u32>,
}

#[derive(Clone, Debug)]
struct Stockham {
    /// The passes in execution order.
    passes: Vec<Pass>,
    /// Work one execution performs, counted once at plan time.
    work: Counters,
}

/// One radix-`p` pass of the Stockham transform. It reads `stride`
/// interleaved subsequences of length `l = n / stride`, and for each does
/// the first radix-`p` step of a decimation-in-frequency FFT, writing `p`
/// interleaved subsequences of length `m = l / p`:
///
/// `dst[q + stride·(p·j + k)] = w_l^{jk} · Σ_r src[q + stride·(j + r·m)] · ω_p^{rk}`
///
/// with `w_l = e^{-2πi/l}`, `ω_p = w_p`. After the last pass (`m = 1`) the
/// output is in natural order, so no permutation pass is needed.
#[derive(Clone, Debug)]
struct Pass {
    radix: usize,
    stride: usize,
    /// Forward twiddles `w_l^{jk}` for `j` in `0..m` and `k` in `1..p`,
    /// contiguous per `j`: entry `j·(p−1) + k−1`.
    tw_fwd: Vec<Complex64>,
    /// The same table conjugated at plan time, so no butterfly branches
    /// on the direction.
    tw_inv: Vec<Complex64>,
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
        let algo = if n.is_power_of_two() {
            Algo::Radix2(Radix2::new(n))
        } else if let Some(radices) = stockham_radices(n) {
            Algo::Stockham(Stockham::new(n, &radices))
        } else {
            Algo::Bluestein(Bluestein::new(n))
        };
        FftPlan { n, algo }
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
        match &self.algo {
            Algo::Radix2(r) => {
                r.execute(data, dir);
                scale_inverse(data, dir);
            }
            Algo::Stockham(st) => {
                st.execute(data, dir);
                scale_inverse(data, dir);
            }
            Algo::Bluestein(b) => b.execute(data, dir),
        }
    }

    /// *Baseline* floating-point operation count of one execution:
    /// `5 n log₂ n` for every length. This is the "valid baseline
    /// flop-count" convention of the paper (§2.1) — rates are computed
    /// from the canonical operation count of the algorithm, not from
    /// whatever a particular implementation executes: the radix-2 core
    /// executes exactly this count, the mixed-radix passes within a few
    /// percent of it at FVCAM's lengths, and Bluestein several times more. The executed work is what
    /// the `kernels/fft` probe phases count.
    pub fn flops(&self) -> f64 {
        5.0 * self.n as f64 * (self.n as f64).log2()
    }
}

/// The `1/n` scaling of the inverse transform.
fn scale_inverse(data: &mut [Complex64], dir: Direction) {
    if dir == Direction::Inverse {
        let s = 1.0 / data.len() as f64;
        for z in data.iter_mut() {
            *z = z.scale(s);
        }
    }
}

impl Radix2 {
    fn new(n: usize) -> Self {
        let (stages_fwd, stages_inv) = make_stage_tables(n);
        Radix2 { stages_fwd, stages_inv, bitrev: make_bitrev(n) }
    }

    /// In-place iterative radix-2 Cooley–Tukey; the length must be a power
    /// of 2. Unscaled in both directions.
    fn execute(&self, data: &mut [Complex64], dir: Direction) {
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
}

/// The Stockham passes for `n`, or `None` if `n` has a prime factor > 5:
/// as many radix-4 passes as the power of two allows, one radix-2 pass
/// for an odd power, then the 3s and the 5s.
fn stockham_radices(mut n: usize) -> Option<Vec<usize>> {
    let mut radices = Vec::new();
    for p in [4, 2, 3, 5] {
        while n.is_multiple_of(p) {
            radices.push(p);
            n /= p;
        }
    }
    (n == 1).then_some(radices)
}

/// Flops of one radix-`p` butterfly as [`Pass`] executes it: its complex
/// additions (2 flops), its scalings by a real constant (2 flops) and the
/// `p − 1` twiddle products (6 flops). The ±i rotations are sign and swap
/// moves and are not counted.
fn butterfly_flops(p: usize) -> u64 {
    match p {
        // 2 additions, 1 twiddle.
        2 => 2 * 2 + 6,
        // 8 additions, 3 twiddles.
        4 => 8 * 2 + 3 * 6,
        // 6 additions, 2 scalings (by ½ and by sin π/3), 2 twiddles.
        3 => 6 * 2 + 2 * 2 + 2 * 6,
        // 16 additions, 8 scalings (by the cosines and sines of 2π/5 and
        // 4π/5), 4 twiddles.
        5 => 16 * 2 + 8 * 2 + 4 * 6,
        _ => unreachable!("radix {p} has no Stockham butterfly"),
    }
}

impl Stockham {
    fn new(n: usize, radices: &[usize]) -> Self {
        let mut passes = Vec::with_capacity(radices.len());
        let mut work = Counters { vector_loops: radices.len() as u64, ..Default::default() };
        let mut stride = 1;
        for &p in radices {
            let m = n / (stride * p);
            // w_l^{jk} = e^{-2πi·jk·stride/n}, where jk·stride < n.
            let tw_fwd: Vec<Complex64> = (0..m)
                .flat_map(|j| (1..p).map(move |k| j * k * stride))
                .map(|e| Complex64::cis(-2.0 * std::f64::consts::PI * e as f64 / n as f64))
                .collect();
            let tw_inv = tw_fwd.iter().map(|w| w.conj()).collect();
            passes.push(Pass { radix: p, stride, tw_fwd, tw_inv });
            // n/p butterflies; each point is read and written once, each
            // twiddle read once.
            let (nu, pu) = (n as u64, p as u64);
            work.flops += nu / pu * butterfly_flops(p);
            work.unit_stride_bytes += 32 * nu + 16 * (nu / pu) * (pu - 1);
            work.vector_iters += nu / pu;
            stride *= p;
        }
        if radices.len() % 2 == 1 {
            // The result lands in the scratch buffer and is copied back.
            work.unit_stride_bytes += 32 * n as u64;
        }
        Stockham { passes, work }
    }

    /// Runs the passes, ping-ponging between `data` and one scratch
    /// buffer. Unscaled in both directions.
    fn execute(&self, data: &mut [Complex64], dir: Direction) {
        if probe::enabled() {
            probe::count("kernels/fft", self.work);
        }
        let mut scratch = vec![Complex64::ZERO; data.len()];
        // The radix-3/5 butterflies' sine terms and the radix-4 rotation
        // flip sign with the direction; the twiddles come pre-conjugated.
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let mut in_data = true;
        for pass in &self.passes {
            let tw = match dir {
                Direction::Forward => &pass.tw_fwd,
                Direction::Inverse => &pass.tw_inv,
            };
            let (src, dst) =
                if in_data { (&*data, &mut scratch[..]) } else { (&scratch[..], &mut *data) };
            pass.run(src, dst, tw, sign);
            in_data = !in_data;
        }
        if !in_data {
            data.copy_from_slice(&scratch);
        }
    }
}

/// `cos(2π/5)`, `cos(4π/5)`, `sin(2π/5)`, `sin(4π/5)` and `sin(π/3)`,
/// rounded to the nearest `f64`.
const C5_1: f64 = 0.309_016_994_374_947_45;
const C5_2: f64 = -0.809_016_994_374_947_5;
const S5_1: f64 = 0.951_056_516_295_153_5;
const S5_2: f64 = 0.587_785_252_292_473_1;
const S3: f64 = 0.866_025_403_784_438_6;

/// `i·z`.
#[inline(always)]
fn mul_i(z: Complex64) -> Complex64 {
    Complex64::new(-z.im, z.re)
}

impl Pass {
    /// One pass from `src` into `dst` with twiddle table `tw`; `sign` is
    /// −1 forward and +1 inverse.
    fn run(&self, src: &[Complex64], dst: &mut [Complex64], tw: &[Complex64], sign: f64) {
        let (p, s) = (self.radix, self.stride);
        let m = src.len() / (p * s);
        for j in 0..m {
            let w = &tw[j * (p - 1)..][..p - 1];
            let x = |r: usize| &src[s * (j + r * m)..][..s];
            let y = &mut dst[s * p * j..][..s * p];
            match p {
                2 => {
                    let (x0, x1) = (x(0), x(1));
                    let (y0, y1) = y.split_at_mut(s);
                    for q in 0..s {
                        let (a0, a1) = (x0[q], x1[q]);
                        y0[q] = a0 + a1;
                        y1[q] = (a0 - a1) * w[0];
                    }
                }
                3 => {
                    let s3 = sign * S3;
                    let (x0, x1, x2) = (x(0), x(1), x(2));
                    let (y0, y) = y.split_at_mut(s);
                    let (y1, y2) = y.split_at_mut(s);
                    for q in 0..s {
                        let (a0, a1, a2) = (x0[q], x1[q], x2[q]);
                        let t1 = a1 + a2;
                        let t2 = a0 - t1.scale(0.5);
                        let d = mul_i((a1 - a2).scale(s3));
                        y0[q] = a0 + t1;
                        y1[q] = (t2 + d) * w[0];
                        y2[q] = (t2 - d) * w[1];
                    }
                }
                4 => {
                    let (x0, x1, x2, x3) = (x(0), x(1), x(2), x(3));
                    let (y0, y) = y.split_at_mut(s);
                    let (y1, y) = y.split_at_mut(s);
                    let (y2, y3) = y.split_at_mut(s);
                    for q in 0..s {
                        let (a0, a1, a2, a3) = (x0[q], x1[q], x2[q], x3[q]);
                        let (b0, b1) = (a0 + a2, a0 - a2);
                        // ∓i·(a1 − a3): a sign flip and a swap.
                        let (b2, b3) = (a1 + a3, mul_i((a1 - a3).scale(sign)));
                        y0[q] = b0 + b2;
                        y1[q] = (b1 + b3) * w[0];
                        y2[q] = (b0 - b2) * w[1];
                        y3[q] = (b1 - b3) * w[2];
                    }
                }
                5 => {
                    let (s1, s2) = (sign * S5_1, sign * S5_2);
                    let (x0, x1, x2, x3, x4) = (x(0), x(1), x(2), x(3), x(4));
                    let (y0, y) = y.split_at_mut(s);
                    let (y1, y) = y.split_at_mut(s);
                    let (y2, y) = y.split_at_mut(s);
                    let (y3, y4) = y.split_at_mut(s);
                    for q in 0..s {
                        let (a0, a1, a2, a3, a4) = (x0[q], x1[q], x2[q], x3[q], x4[q]);
                        let (b1, b2) = (a1 + a4, a2 + a3);
                        let (d1, d2) = (a1 - a4, a2 - a3);
                        let r1 = a0 + b1.scale(C5_1) + b2.scale(C5_2);
                        let r2 = a0 + b1.scale(C5_2) + b2.scale(C5_1);
                        let i1 = mul_i(d1.scale(s1) + d2.scale(s2));
                        let i2 = mul_i(d1.scale(s2) - d2.scale(s1));
                        y0[q] = a0 + b1 + b2;
                        y1[q] = (r1 + i1) * w[0];
                        y2[q] = (r2 + i2) * w[1];
                        y3[q] = (r2 - i2) * w[2];
                        y4[q] = (r1 - i1) * w[3];
                    }
                }
                _ => unreachable!("radix {p} has no Stockham butterfly"),
            }
        }
    }
}

impl Bluestein {
    fn new(n: usize) -> Self {
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
        Bluestein { m, chirp, kernel_hat: kernel, inner }
    }

    fn execute(&self, data: &mut [Complex64], dir: Direction) {
        let n = data.len();
        if probe::enabled() {
            // Chirp-z overhead beyond the two inner radix-2 transforms
            // (those count themselves): three complex multiply passes —
            // input chirp (n), pointwise kernel (m), output chirp (n).
            let (nu, mu) = (n as u64, self.m as u64);
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
        let mut a = vec![Complex64::ZERO; self.m];
        for k in 0..n {
            let c = if dir == Direction::Forward { self.chirp[k] } else { self.chirp[k].conj() };
            a[k] = data[k] * c;
        }
        // Convolve with the precomputed kernel via the power-of-two FFT.
        self.inner.execute(&mut a, Direction::Forward);
        match dir {
            Direction::Forward => {
                for (z, k) in a.iter_mut().zip(self.kernel_hat.iter()) {
                    *z *= *k;
                }
            }
            Direction::Inverse => {
                // The inverse chirp kernel is the conjugate of the forward
                // kernel's time series; in frequency space that is a
                // conjugate + index reversal identity. Rather than store a
                // second kernel we exploit conj(FFT(x)) = IFFT(conj(x))·m.
                for (z, k) in a.iter_mut().zip(self.kernel_hat.iter()) {
                    *z = (z.conj() * *k).conj();
                }
            }
        }
        self.inner.execute(&mut a, Direction::Inverse);
        // y_k = chirp_k * conv_k, plus 1/n scaling for the inverse.
        let scale = if dir == Direction::Inverse { 1.0 / n as f64 } else { 1.0 };
        for k in 0..n {
            let c = if dir == Direction::Forward { self.chirp[k] } else { self.chirp[k].conj() };
            data[k] = (a[k] * c).scale(scale);
        }
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

    /// Lengths with prime factors ≤ 5 that are not powers of two: the
    /// Stockham path.
    const MIXED: [usize; 8] = [6, 12, 27, 100, 144, 360, 576, 1000];
    /// Lengths with a prime factor > 5: the Bluestein path.
    const BLUESTEIN: [usize; 5] = [7, 11, 97, 154, 1009];

    fn assert_matches_reference(n: usize, dir: Direction, tol: f64) {
        let input = ramp(n);
        let mut out = input.clone();
        FftPlan::new(n).execute(&mut out, dir);
        let want = dft_reference(&input, dir);
        let err = max_err(&out, &want);
        assert!(err < tol * n as f64, "n={n} {dir:?}: error {err:e}");
    }

    fn assert_round_trip(n: usize) {
        let input = ramp(n);
        let mut buf = input.clone();
        let plan = FftPlan::new(n);
        plan.execute(&mut buf, Direction::Forward);
        plan.execute(&mut buf, Direction::Inverse);
        assert!(max_err(&buf, &input) < 1e-10 * n as f64, "n={n}");
    }

    #[test]
    fn radix2_matches_reference() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            assert!(matches!(FftPlan::new(n).algo, Algo::Radix2(_)), "n={n}");
            assert_matches_reference(n, Direction::Forward, 1e-9);
        }
    }

    #[test]
    fn mixed_radix_matches_reference() {
        for n in MIXED {
            assert!(matches!(FftPlan::new(n).algo, Algo::Stockham(_)), "n={n}: not Stockham");
            assert_matches_reference(n, Direction::Forward, 1e-9);
            assert_matches_reference(n, Direction::Inverse, 1e-9);
            assert_round_trip(n);
        }
    }

    #[test]
    fn bluestein_matches_reference() {
        for n in BLUESTEIN {
            assert!(matches!(FftPlan::new(n).algo, Algo::Bluestein(_)), "n={n}: not Bluestein");
            assert_matches_reference(n, Direction::Forward, 1e-8);
            assert_matches_reference(n, Direction::Inverse, 1e-8);
            assert_round_trip(n);
        }
    }

    #[test]
    fn mixed_radix_matches_reference_on_random_smooth_lengths() {
        // Seeded: a failure names its case and length.
        let mut rng = hec_core::Rng::new(0x2357);
        for case in 0..40 {
            let n = loop {
                let (a, b, c) = (rng.below(12) as u32, rng.below(7) as u32, rng.below(5) as u32);
                let n = 2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c);
                if n <= 2048 {
                    break n;
                }
            };
            let input: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut out = input.clone();
                FftPlan::new(n).execute(&mut out, dir);
                let err = max_err(&out, &dft_reference(&input, dir));
                assert!(err < 1e-9 * n as f64, "case {case}, n={n} {dir:?}: error {err:e}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for &n in &[8usize, 27, 576, 1024] {
            assert_round_trip(n);
        }
    }

    #[test]
    fn inverse_matches_reference() {
        for &n in &[4usize, 9, 30] {
            assert_matches_reference(n, Direction::Inverse, 1e-9);
        }
    }

    /// FNV-1a over the output's bit patterns.
    fn bits_hash(v: &[Complex64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for z in v {
            for byte in z.re.to_bits().to_le_bytes().into_iter().chain(z.im.to_bits().to_le_bytes())
            {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn power_of_two_output_bits_are_pinned() {
        // Recorded from the radix-2 core before the mixed-radix path was
        // added, with and without `target-cpu=native`: PARATEC's
        // transforms and Bluestein's inner ones must keep their bits.
        for (n, fwd, inv) in [
            (64usize, 0xe46b_47f6_813f_ef00u64, 0xed2a_2ded_6729_686cu64),
            (1024, 0x5e8a_0160_2624_f036, 0x4df1_33d5_4cb4_4530),
        ] {
            let plan = FftPlan::new(n);
            let mut data = ramp(n);
            plan.execute(&mut data, Direction::Forward);
            assert_eq!(bits_hash(&data), fwd, "forward n={n}");
            plan.execute(&mut data, Direction::Inverse);
            assert_eq!(bits_hash(&data), inv, "inverse n={n}");
        }
    }

    #[test]
    fn butterfly_constants_are_the_nearest_doubles() {
        use std::f64::consts::PI;
        for (c, want) in [
            (C5_1, (2.0 * PI / 5.0).cos()),
            (C5_2, (4.0 * PI / 5.0).cos()),
            (S5_1, (2.0 * PI / 5.0).sin()),
            (S5_2, (4.0 * PI / 5.0).sin()),
            (S3, 3f64.sqrt() / 2.0),
        ] {
            assert!((c - want).abs() <= f64::EPSILON * want.abs(), "{c} vs {want}");
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
    fn mixed_radix_probe_counts_match_the_closed_form() {
        use hec_core::probe;
        // 576 = 4³·3²: three radix-4 passes (144 butterflies of 34 flops
        // each) and two radix-3 passes (192 butterflies of 28 flops).
        // 1000 = 2·5³ after 4·2: one radix-4 pass (250 butterflies), one
        // radix-2 (500 × 10 flops), three radix-5 (200 × 72 flops).
        for (n, passes, flops, butterflies) in [
            (576usize, 5u64, 3 * 144 * 34 + 2 * 192 * 28, 3 * 144 + 2 * 192),
            (1000, 5, 250 * 34 + 500 * 10 + 3 * 200 * 72, 250 + 500 + 3 * 200),
            (144, 4, 2 * 36 * 34 + 2 * 48 * 28, 2 * 36 + 2 * 48),
        ] {
            let plan = FftPlan::new(n);
            let ((), cap) = probe::capture(|| {
                let mut data = ramp(n);
                plan.execute(&mut data, Direction::Forward);
                plan.execute(&mut data, Direction::Inverse);
            });
            let c = cap.get("kernels/fft");
            assert_eq!(c.flops, 2 * flops, "n={n}");
            assert_eq!(c.vector_iters, 2 * butterflies, "n={n}");
            assert_eq!(c.vector_loops, 2 * passes, "n={n}");
            // Per pass: every point read and written, every twiddle read
            // once; an odd pass count adds the copy back out of scratch.
            let nu = n as u64;
            let twiddles = nu * passes - butterflies;
            let copy = if passes % 2 == 1 { 32 * nu } else { 0 };
            assert_eq!(c.unit_stride_bytes, 2 * (32 * nu * passes + 16 * twiddles + copy), "n={n}");
            assert_eq!(cap.get("kernels/fft bluestein"), Default::default(), "n={n}");
        }
    }

    #[test]
    fn stage_tables_are_exact_strided_copies_of_the_master() {
        // The caching optimization must change no bits: stage s of the
        // per-stage tables holds master[k * n/2^{s+1}], and the inverse
        // table its exact conjugate.
        let n = 1024usize;
        let plan = Radix2::new(n);
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
