//! Kernel weighting functions.
//!
//! Two traits organise the kernels:
//!
//! * [`Kernel`] — anything that can be evaluated pointwise. All estimators
//!   and the naive `O(k·n²)` cross-validation path accept any `Kernel`.
//! * [`PolynomialKernel`] — kernels expressible as a polynomial in `|u|` on a
//!   compact support `|u| ≤ r`. These admit the paper's sorted-sweep trick:
//!   because `K(d/h) = Σ_j c_j d^j / h^j`, the leave-one-out sums for *all*
//!   bandwidths in an ascending grid can be produced from running power sums
//!   `Σ d^j` and `Σ Y·d^j` maintained over distance-sorted neighbours.
//!
//! The paper implements only the Epanechnikov kernel and notes that the same
//! sorting strategy extends to the Uniform and Triangular kernels while the
//! Gaussian needs no sort at all (footnote 1). We implement all of those
//! plus Quartic (biweight), Triweight, and Cosine, and the *convolution*
//! kernels needed by the KDE least-squares-CV extension.

mod convolution;
mod gaussian;
mod poly;

pub use convolution::{EpanechnikovConvolution, GaussianConvolution};
pub use gaussian::Gaussian;
pub use poly::{eval_via_coeffs, Cosine, Epanechnikov, Quartic, Triangular, Triweight, Uniform};

/// A symmetric, non-negative kernel weighting function `K(u)`.
///
/// Implementations must satisfy `∫K = 1`, `K(u) = K(−u)`, and `K(u) ≥ 0`
/// (these are checked numerically by the test-suite, not by the trait).
pub trait Kernel: Send + Sync + std::fmt::Debug {
    /// Evaluates `K(u)`.
    fn eval(&self, u: f64) -> f64;

    /// Support radius: `Some(r)` when `K(u) = 0` for `|u| > r`, `None` for
    /// infinite support (Gaussian).
    fn support(&self) -> Option<f64>;

    /// Roughness `R(K) = ∫ K(u)² du`, used by plug-in rules and confidence
    /// intervals.
    fn roughness(&self) -> f64;

    /// Second moment `κ₂(K) = ∫ u² K(u) du`.
    fn second_moment(&self) -> f64;

    /// Human-readable kernel name.
    fn name(&self) -> &'static str;

    /// Silverman-style canonical bandwidth constant `δ₀` relating this
    /// kernel's AMISE-optimal KDE bandwidth to the Gaussian one:
    /// `δ₀ = (R(K) / κ₂²)^{1/5}`.
    fn canonical_bandwidth(&self) -> f64 {
        (self.roughness() / (self.second_moment() * self.second_moment())).powf(0.2)
    }
}

/// A kernel of the form `K(u) = Σ_j c_j |u|^j` for `|u| ≤ r`, zero outside.
///
/// The coefficient vector (with the normalising constant folded in) is what
/// the sorted-sweep cross-validation consumes. Coefficients are indexed by
/// power: `coeffs()[j]` multiplies `|u|^j`.
///
/// **Degree cap.** The prefix-moment engines (`cv_profile_prefix*`, the
/// prefix [`SortedGridSearch`](crate::select::SortedGridSearch) strategy,
/// the streaming [`SlidingWindowSelector`](crate::cv::SlidingWindowSelector)
/// and everything built on them) are compiled for degrees up to
/// [`MAX_KERNEL_DEGREE`](crate::cv::MAX_KERNEL_DEGREE) `= 7`; a
/// higher-degree kernel gets [`Error::KernelDegreeTooHigh`](crate::Error)
/// from them. The naive and sorted strategies take any degree.
pub trait PolynomialKernel: Kernel {
    /// Polynomial coefficients `c_0, c_1, …, c_deg` in `|u|`.
    fn coeffs(&self) -> &'static [f64];

    /// Support radius `r` (1 for the standard kernels, 2 for convolution
    /// kernels).
    fn radius(&self) -> f64 {
        1.0
    }

    /// Evaluates the polynomial directly (Horner in `|u|`), used to
    /// cross-check `Kernel::eval`.
    fn eval_poly(&self, u: f64) -> f64 {
        let a = u.abs();
        if a > self.radius() {
            return 0.0;
        }
        horner(self.coeffs(), a)
    }
}

impl<K: PolynomialKernel + ?Sized> PolynomialKernel for &K {
    fn coeffs(&self) -> &'static [f64] {
        (**self).coeffs()
    }
    fn radius(&self) -> f64 {
        (**self).radius()
    }
    fn eval_poly(&self, u: f64) -> f64 {
        (**self).eval_poly(u)
    }
}

impl<K: Kernel + ?Sized> Kernel for &K {
    fn eval(&self, u: f64) -> f64 {
        (**self).eval(u)
    }
    fn support(&self) -> Option<f64> {
        (**self).support()
    }
    fn roughness(&self) -> f64 {
        (**self).roughness()
    }
    fn second_moment(&self) -> f64 {
        (**self).second_moment()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn canonical_bandwidth(&self) -> f64 {
        (**self).canonical_bandwidth()
    }
}

/// Evaluates `Σ_j c_j a^j` by Horner's rule.
#[inline]
pub fn horner(coeffs: &[f64], a: f64) -> f64 {
    let mut acc = 0.0;
    for &c in coeffs.iter().rev() {
        acc = acc * a + c;
    }
    acc
}

/// The kernels shipped with the crate, as trait objects, for iteration in
/// tests and benchmarks.
pub fn all_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Epanechnikov),
        Box::new(Uniform),
        Box::new(Triangular),
        Box::new(Quartic),
        Box::new(Triweight),
        Box::new(Cosine),
        Box::new(Gaussian),
    ]
}

/// The polynomial (sorted-sweep-capable) kernels, as trait objects.
pub fn polynomial_kernels() -> Vec<Box<dyn PolynomialKernel>> {
    vec![
        Box::new(Epanechnikov),
        Box::new(Uniform),
        Box::new(Triangular),
        Box::new(Quartic),
        Box::new(Triweight),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trapezoid-rule integral of `f` over `[lo, hi]`.
    fn integrate(f: impl Fn(f64) -> f64, lo: f64, hi: f64, steps: usize) -> f64 {
        let w = (hi - lo) / steps as f64;
        let mut acc = 0.5 * (f(lo) + f(hi));
        for s in 1..steps {
            acc += f(lo + w * s as f64);
        }
        acc * w
    }

    fn integration_range(k: &dyn Kernel) -> (f64, f64) {
        match k.support() {
            Some(r) => (-r, r),
            None => (-12.0, 12.0),
        }
    }

    #[test]
    fn kernels_integrate_to_one() {
        for k in all_kernels() {
            let (lo, hi) = integration_range(k.as_ref());
            let total = integrate(|u| k.eval(u), lo, hi, 200_000);
            assert!(
                (total - 1.0).abs() < 1e-6,
                "{} integrates to {total}",
                k.name()
            );
        }
    }

    #[test]
    fn kernels_are_symmetric_and_nonnegative() {
        for k in all_kernels() {
            for i in 0..=400 {
                let u = -2.0 + i as f64 * 0.01;
                let v = k.eval(u);
                assert!(v >= 0.0, "{} negative at {u}: {v}", k.name());
                assert!(
                    (v - k.eval(-u)).abs() < 1e-14,
                    "{} asymmetric at {u}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn kernels_vanish_outside_support() {
        for k in all_kernels() {
            if let Some(r) = k.support() {
                assert_eq!(k.eval(r + 1e-9), 0.0, "{} nonzero past support", k.name());
                assert_eq!(k.eval(-r - 1e-9), 0.0);
                assert_eq!(k.eval(10.0 * r), 0.0);
            }
        }
    }

    #[test]
    fn stated_roughness_matches_numeric_integral() {
        for k in all_kernels() {
            let (lo, hi) = integration_range(k.as_ref());
            let num = integrate(|u| k.eval(u) * k.eval(u), lo, hi, 200_000);
            assert!(
                (num - k.roughness()).abs() < 1e-6,
                "{}: R(K) stated {} vs numeric {num}",
                k.name(),
                k.roughness()
            );
        }
    }

    #[test]
    fn stated_second_moment_matches_numeric_integral() {
        for k in all_kernels() {
            let (lo, hi) = integration_range(k.as_ref());
            let num = integrate(|u| u * u * k.eval(u), lo, hi, 400_000);
            assert!(
                (num - k.second_moment()).abs() < 1e-5,
                "{}: κ₂ stated {} vs numeric {num}",
                k.name(),
                k.second_moment()
            );
        }
    }

    #[test]
    fn polynomial_eval_matches_kernel_eval() {
        for k in polynomial_kernels() {
            for i in 0..=300 {
                let u = -1.5 + i as f64 * 0.01;
                assert!(
                    (k.eval(u) - k.eval_poly(u)).abs() < 1e-14,
                    "{} poly/eval mismatch at {u}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn polynomial_radius_matches_support() {
        for k in polynomial_kernels() {
            assert_eq!(Some(k.radius()), k.support(), "{}", k.name());
        }
    }

    #[test]
    fn epanechnikov_matches_paper_formula() {
        // Eq. (3): K(u) = 0.75 (1 − u²) 1{|u| ≤ 1}
        let k = Epanechnikov;
        assert_eq!(k.eval(0.0), 0.75);
        assert!((k.eval(0.5) - 0.75 * 0.75).abs() < 1e-15);
        assert_eq!(k.eval(1.0), 0.0);
        assert_eq!(k.eval(1.0001), 0.0);
    }

    #[test]
    fn canonical_bandwidth_epanechnikov_known_value() {
        // δ₀ = (R/κ₂²)^{1/5} = (0.6 / 0.04)^{0.2} = 15^{0.2} ≈ 1.7188
        let d = Epanechnikov.canonical_bandwidth();
        assert!((d - 15f64.powf(0.2)).abs() < 1e-12);
    }

    #[test]
    fn gaussian_known_values() {
        let g = Gaussian;
        assert!((g.eval(0.0) - 1.0 / (2.0 * std::f64::consts::PI).sqrt()).abs() < 1e-15);
        assert!((g.roughness() - 1.0 / (2.0 * std::f64::consts::PI.sqrt())).abs() < 1e-15);
        assert_eq!(g.second_moment(), 1.0);
        assert!(g.support().is_none());
    }

    #[test]
    fn horner_evaluates_polynomials() {
        // 2 + 3a + a²  at a = 2 → 12
        assert_eq!(horner(&[2.0, 3.0, 1.0], 2.0), 12.0);
        assert_eq!(horner(&[], 5.0), 0.0);
        assert_eq!(horner(&[7.0], 5.0), 7.0);
    }

    #[test]
    fn references_and_trait_objects_are_kernels_too() {
        fn takes_kernel<K: Kernel>(k: K) -> f64 {
            k.eval(0.0)
        }
        let e = Epanechnikov;
        let e_ref: &Epanechnikov = &e;
        assert_eq!(takes_kernel(e_ref), 0.75);
        let dynamic: &dyn Kernel = &Gaussian;
        assert!((takes_kernel(dynamic) - Gaussian.eval(0.0)).abs() < 1e-15);
        assert_eq!(Kernel::name(&e_ref), "epanechnikov");
        assert_eq!(Kernel::support(&e_ref), Some(1.0));
    }

    #[test]
    fn kernel_names_are_distinct() {
        let mut names: Vec<&str> = all_kernels().iter().map(|k| k.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
