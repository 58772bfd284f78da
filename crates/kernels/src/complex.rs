//! Minimal double-precision complex arithmetic.
//!
//! The suite deliberately avoids external numeric crates; PARATEC and the
//! FFTs only need the handful of operations defined here.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number, layout-compatible with `[f64; 2]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a pure-real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{iθ}` — the unit phasor with the given angle in radians.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64 { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex64 { re: self.re, im: -self.im }
    }

    /// Squared modulus `|z|²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Complex64 { re: self.re * s, im: self.im * s }
    }

    /// Fused multiply-add: `self + a * b`, the inner-loop primitive of the
    /// ZGEMM kernels.
    #[inline(always)]
    pub fn mul_add(self, a: Complex64, b: Complex64) -> Self {
        Complex64 {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, o: Complex64) -> Complex64 {
        Complex64 { re: self.re + o.re, im: self.im + o.im }
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64 { re: self.re - o.re, im: self.im - o.im }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64 { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, s: f64) -> Complex64 {
        self.scale(s)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, o: Complex64) -> Complex64 {
        let d = o.norm_sqr();
        Complex64 {
            re: (self.re * o.re + self.im * o.im) / d,
            im: (self.im * o.re - self.re * o.im) / d,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        Complex64 { re: -self.re, im: -self.im }
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, o: Complex64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, o: Complex64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, o: Complex64) {
        *self = *self * o;
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(z * Complex64::new(0.0, 1.0), Complex64::new(4.0, 3.0)));
    }

    #[test]
    fn modulus_and_conjugate() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!(close(z * z.conj(), Complex64::real(25.0)));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(1.5, 2.5);
        let b = Complex64::new(-0.5, 4.0);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex64::cis(theta);
            assert!((z.abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let acc = Complex64::new(0.5, 0.25);
        let a = Complex64::new(1.0, -2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert!(close(acc.mul_add(a, b), acc + a * b));
    }
}
