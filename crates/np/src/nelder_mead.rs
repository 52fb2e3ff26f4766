//! One-dimensional Nelder–Mead, the derivative-free optimiser behind
//! [`npregbw`](crate::npregbw)'s multistart search.

/// Result of a scalar minimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScalarMin {
    /// Argmin found.
    pub(crate) x: f64,
    /// Objective value at the argmin.
    pub(crate) fx: f64,
}

/// One-dimensional Nelder–Mead on `[lo, hi]` from starting point `x0` with
/// initial step `step`. Out-of-bounds proposals are clamped to the bracket.
pub(crate) fn nelder_mead_1d(
    mut f: impl FnMut(f64) -> f64,
    x0: f64,
    step: f64,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> ScalarMin {
    let clamp = |v: f64| v.clamp(lo, hi);
    let mut best = clamp(x0);
    let mut second = clamp(x0 + step);
    let mut fb = f(best);
    let mut fs = f(second);
    if fs < fb {
        std::mem::swap(&mut best, &mut second);
        std::mem::swap(&mut fb, &mut fs);
    }
    for _ in 0..max_iter {
        if (second - best).abs() <= tol {
            break;
        }
        // Reflect the worst point through the best.
        let reflected = clamp(best + (best - second));
        let fr = f(reflected);
        if fr < fb {
            // Try expanding further.
            let expanded = clamp(best + 2.0 * (best - second));
            let fe = f(expanded);
            second = best;
            fs = fb;
            if fe < fr {
                best = expanded;
                fb = fe;
            } else {
                best = reflected;
                fb = fr;
            }
        } else if fr < fs {
            second = reflected;
            fs = fr;
        } else {
            // Contract towards the best point.
            let contracted = clamp(best + 0.5 * (second - best));
            let fc = f(contracted);
            if fc < fs {
                second = contracted;
                fs = fc;
            } else {
                // Shrink.
                second = clamp(best + 0.25 * (second - best));
                fs = f(second);
            }
        }
        if fs < fb {
            std::mem::swap(&mut best, &mut second);
            std::mem::swap(&mut fb, &mut fs);
        }
    }
    ScalarMin { x: best, fx: fb }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_finds_parabola_minimum() {
        let r = nelder_mead_1d(|x| (x + 1.0) * (x + 1.0), 3.0, 0.5, -10.0, 10.0, 1e-10, 500);
        assert!((r.x + 1.0).abs() < 1e-5, "got {}", r.x);
    }

    #[test]
    fn nelder_mead_is_start_dependent_on_multimodal_objective() {
        // f has local minima at x = 1 (f = 0.5) and x = 4 (f = 0).
        let f = |x: f64| {
            let a = (x - 1.0) * (x - 1.0) + 0.5;
            let b = (x - 4.0) * (x - 4.0);
            a.min(b)
        };
        let from_left = nelder_mead_1d(f, 0.5, 0.2, 0.0, 6.0, 1e-10, 500);
        let from_right = nelder_mead_1d(f, 4.5, 0.2, 0.0, 6.0, 1e-10, 500);
        assert!(
            (from_left.x - 1.0).abs() < 0.1,
            "left start → {}",
            from_left.x
        );
        assert!(
            (from_right.x - 4.0).abs() < 0.1,
            "right start → {}",
            from_right.x
        );
        // The paper's point: the local optimiser's answer depends on the
        // start, and one of them is not the global minimum.
        assert!(from_left.fx > from_right.fx);
    }
}
