//! Minimal complex arithmetic for frequency-domain evaluation.
//!
//! Only what the Bode analysis needs: arithmetic, `exp` (for the delay
//! term `e^{-sR}`), magnitude and argument. Implemented here rather than
//! pulling in a numerics crate, keeping the workspace dependency-free at
//! runtime.

use core::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number `re + i·im` over `f64`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Construct from rectangular parts.
    pub const fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// A purely real value.
    pub const fn real(re: f64) -> Complex {
        Complex { re, im: 0.0 }
    }

    /// A purely imaginary value `i·w` (the Fourier axis point `s = jω`).
    pub const fn jw(w: f64) -> Complex {
        Complex { re: 0.0, im: w }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Principal argument in radians, in `(−π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Complex {
        let r = self.re.exp();
        Complex::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Reciprocal `1/z`.
    pub fn recip(self) -> Complex {
        let d = self.re * self.re + self.im * self.im;
        Complex::new(self.re / d, -self.im / d)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Complex {
        Complex::real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert!(close(z + Complex::ZERO, z));
        assert!(close(z * Complex::ONE, z));
        assert!(close(z * z.recip(), Complex::ONE));
        assert!(close(z / z, Complex::ONE));
        assert!(close(-(-z), z));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex::I * Complex::I, Complex::real(-1.0)));
    }

    #[test]
    fn abs_and_arg() {
        let z = Complex::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < 1e-12);
        assert!((Complex::jw(1.0).arg() - PI / 2.0).abs() < 1e-12);
        assert!((Complex::real(-1.0).arg() - PI).abs() < 1e-12);
    }

    #[test]
    fn exp_euler() {
        // e^{iπ} = −1.
        let z = Complex::jw(PI).exp();
        assert!(close(z, Complex::real(-1.0)));
        // e^{−jωR} has unit magnitude for any ω, R.
        for w in [0.1, 1.0, 100.0] {
            let d = (Complex::jw(-w * 0.1)).exp();
            assert!((d.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn division_matches_multiplication() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 3.0);
        assert!(close(a / b * b, a));
    }

    #[test]
    fn scalar_ops() {
        let z = Complex::new(1.0, 1.0);
        assert!(close(z * 2.0, Complex::new(2.0, 2.0)));
        assert!(close(z / 2.0, Complex::new(0.5, 0.5)));
        assert!(close(z + 1.0, Complex::new(2.0, 1.0)));
    }
}
