//! The device kernels, ported from the paper's §IV-B description.
//!
//! All arithmetic is `f32`: "to reduce the demands for global memory and to
//! ensure compatibility with relatively early GPUs and NVCC drivers, only
//! single-precision floating point numbers are used in the computation."
//!
//! The weighting function is supplied as a polynomial coefficient vector
//! (see [`crate::GpuKernel`]); the paper's Epanechnikov case uses
//! `c = [0.75, 0, −0.75]`, which reduces the running power sums below to
//! exactly the paper's `Σ1, Σd², ΣY, ΣY·d²`.

use crate::gpu_kernel_type::MAX_DEVICE_DEGREE;
use kcv_gpu_sim::{device_sort_with_aux, ThreadCounters};

/// Per-thread workspace for the main kernel: thread `j`'s rows of the four
/// matrices whose layout *is* one row per thread (two `n×n`, two `n×k`).
/// The squared residuals are **not** part of the workspace: their device
/// layout is bandwidth-major (the §IV-B index switch), so thread `j`'s `k`
/// values are scattered across the residual matrix at stride `n` — the
/// kernel returns them and the launch driver places them (see
/// [`crate::pipeline`]), with the store cost charged here where the store
/// conceptually happens.
pub(crate) struct MainWorkspace<'a> {
    /// Row `j` of the `|X_i − X_j|` matrix.
    pub dist: &'a mut [f32],
    /// Row `j` of the co-sorted `Y_i` matrix.
    pub yrow: &'a mut [f32],
    /// Row `j` of the numerator-sum matrix.
    pub num: &'a mut [f32],
    /// Row `j` of the denominator-sum matrix.
    pub den: &'a mut [f32],
}

/// The main kernel: one thread per observation `j`.
///
/// 1. fill this thread's rows of the distance and response matrices;
/// 2. sort both by distance with the iterative device quicksort;
/// 3. sweep the constant-memory bandwidth grid in ascending order,
///    growing the running power sums `Σ d^p` and `Σ Y·d^p`;
/// 4. exclude observation `j` itself from the final sums (leave-one-out);
/// 5. emit the bandwidth-specific sums and the squared residual
///    `(Y_j − ĝ_{-j}(X_j))² · M(X_j)`.
///
/// Returns the thread's `k` squared residuals in bandwidth order; each
/// store into the device residual matrix is charged here (coalesced under
/// the §IV-B index switch, scattered in the obs-major ablation).
#[allow(clippy::too_many_arguments)]
pub(crate) fn main_kernel(
    j: usize,
    x: &[f32],
    y: &[f32],
    bandwidths: &[f32],
    coeffs: &[f32],
    radius: f32,
    sqres_coalesced: bool,
    ws: &mut MainWorkspace<'_>,
    c: &mut ThreadCounters,
) -> Vec<f32> {
    let n = x.len();
    let deg = coeffs.len() - 1;
    debug_assert!(deg <= MAX_DEVICE_DEGREE);
    let xj = x[j];
    let yj = y[j];
    c.global_read(2);

    // Fill row j of the |X_i − X_j| and Y_i matrices (self entry included;
    // it is subtracted from the sums below, per the leave-one-out design).
    for i in 0..n {
        ws.dist[i] = (x[i] - xj).abs();
        ws.yrow[i] = y[i];
        c.global_read(2);
        c.global_write(2);
        c.flop(2);
    }

    // Per-thread iterative quicksort over this thread's rows.
    device_sort_with_aux(ws.dist, ws.yrow, c);

    // Ascending bandwidth sweep with running power sums. The self
    // observation (d = 0) is always inside the support, so it is absorbed
    // at p = 0 and subtracted analytically: d = 0 contributes 1 to the
    // power-0 count and Y_j to the power-0 response sum, and nothing to any
    // higher power.
    let mut s = [0.0f32; MAX_DEVICE_DEGREE + 1];
    let mut sy = [0.0f32; MAX_DEVICE_DEGREE + 1];
    let mut sqres = vec![0.0f32; bandwidths.len()];
    let mut p = 0usize;
    for (m, &h) in bandwidths.iter().enumerate() {
        c.constant_read(1);
        let inv_h = 1.0 / h;
        c.flop(1);
        while p < n {
            c.global_read(1);
            c.flop(1);
            c.branch(1);
            if ws.dist[p] * inv_h > radius {
                break;
            }
            let d = ws.dist[p];
            let yl = ws.yrow[p];
            c.global_read(1);
            let mut pw = 1.0f32;
            for jj in 0..=deg {
                s[jj] += pw;
                sy[jj] += yl * pw;
                pw *= d;
            }
            c.flop(4 * (deg as u64 + 1));
            p += 1;
        }
        // Assemble N and D: Σ_j c_j·h^{-j}·S_j, with the self terms removed
        // from the power-0 sums.
        let mut hp = 1.0f32;
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for (jj, &cf) in coeffs.iter().enumerate() {
            let s_j = if jj == 0 { s[0] - 1.0 } else { s[jj] };
            let sy_j = if jj == 0 { sy[0] - yj } else { sy[jj] };
            num += cf * hp * sy_j;
            den += cf * hp * s_j;
            hp *= inv_h;
        }
        c.flop(7 * (deg as u64 + 1));
        ws.num[m] = num;
        ws.den[m] = den;
        c.global_write(2);
        c.branch(1);
        let sq = if den > 0.0 {
            let r = yj - num / den;
            c.flop(3);
            r * r
        } else {
            // M(X_j) = 0: the observation contributes nothing at this h.
            0.0
        };
        sqres[m] = sq;
        // §IV-B index switch: in the modelled (default) layout the residual
        // matrix is bandwidth-major, so at each m consecutive threads j
        // write consecutive addresses m·n + j — a coalesced store. In the
        // obs-major ablation the warp's stores are k apart — scattered.
        if sqres_coalesced {
            c.global_coalesced(1);
        } else {
            c.global_write(1);
        }
    }
    sqres
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_kernel_type::GpuKernel;
    use kcv_core::kernels::{Epanechnikov, Quartic, Triangular, Triweight, Uniform};

    /// Direct f32 reference: leave-one-out polynomial-kernel CV residual²
    /// for one observation and one bandwidth.
    fn reference_sqres(j: usize, x: &[f32], y: &[f32], h: f32, kernel: &GpuKernel) -> f32 {
        let inv_h = 1.0 / h;
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for l in 0..x.len() {
            if l == j {
                continue;
            }
            let u = (x[j] - x[l]).abs() * inv_h;
            if u <= kernel.radius {
                let mut w = 0.0f32;
                let mut pw = 1.0f32;
                for &cf in &kernel.coeffs {
                    w += cf * pw;
                    pw *= u;
                }
                num += y[l] * w;
                den += w;
            }
        }
        if den > 0.0 {
            let r = y[j] - num / den;
            r * r
        } else {
            0.0
        }
    }

    fn run_main(j: usize, x: &[f32], y: &[f32], hs: &[f32], kernel: &GpuKernel) -> Vec<f32> {
        let n = x.len();
        let k = hs.len();
        let mut dist = vec![0.0f32; n];
        let mut yrow = vec![0.0f32; n];
        let mut num = vec![0.0f32; k];
        let mut den = vec![0.0f32; k];
        let mut ws = MainWorkspace {
            dist: &mut dist,
            yrow: &mut yrow,
            num: &mut num,
            den: &mut den,
        };
        let mut c = ThreadCounters::default();
        main_kernel(
            j,
            x,
            y,
            hs,
            &kernel.coeffs,
            kernel.radius,
            true,
            &mut ws,
            &mut c,
        )
    }

    fn test_data() -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let x: Vec<f32> = (0..40).map(|i| ((i * 37) % 100) as f32 / 100.0).collect();
        let y: Vec<f32> = x.iter().map(|&v| 0.5 * v + 10.0 * v * v).collect();
        let hs: Vec<f32> = (1..=10).map(|m| m as f32 * 0.1).collect();
        (x, y, hs)
    }

    #[test]
    fn main_kernel_matches_direct_f32_reference_for_every_kernel() {
        let (x, y, hs) = test_data();
        for kernel in [
            GpuKernel::from_core(&Epanechnikov),
            GpuKernel::from_core(&Uniform),
            GpuKernel::from_core(&Triangular),
            GpuKernel::from_core(&Quartic),
            GpuKernel::from_core(&Triweight),
        ] {
            for j in [0usize, 7, 39] {
                let sq = run_main(j, &x, &y, &hs, &kernel);
                for (m, &h) in hs.iter().enumerate() {
                    let expected = reference_sqres(j, &x, &y, h, &kernel);
                    let diff = (sq[m] - expected).abs();
                    assert!(
                        diff <= 2e-4 * expected.abs().max(1.0),
                        "{} j={j} h={h}: kernel {} vs reference {expected}",
                        kernel.name,
                        sq[m]
                    );
                }
            }
        }
    }

    #[test]
    fn self_exclusion_handles_duplicate_x_values() {
        // Two observations share x but not y: LOO at j=0 must use y[1] only.
        let x = [0.5f32, 0.5, 2.0];
        let y = [10.0f32, 20.0, 0.0];
        let sq = run_main(0, &x, &y, &[0.1], &GpuKernel::from_core(&Epanechnikov));
        // ĝ_{-0}(0.5) = 20 → residual -10 → 100.
        assert!((sq[0] - 100.0).abs() < 1e-3, "got {}", sq[0]);
    }

    #[test]
    fn isolated_observation_contributes_zero() {
        let x = [0.0f32, 10.0, 20.0];
        let y = [1.0f32, 2.0, 3.0];
        let sq = run_main(0, &x, &y, &[0.5, 1.0], &GpuKernel::from_core(&Epanechnikov));
        assert_eq!(sq, vec![0.0, 0.0]);
    }

    #[test]
    fn uniform_kernel_self_exclusion_with_constant_weight() {
        // The Uniform kernel gives the self observation weight 0.5, not a
        // weight that vanishes with d — the subtraction must still be exact.
        let x = [0.3f32, 0.35, 0.4];
        let y = [1.0f32, 2.0, 3.0];
        let sq = run_main(1, &x, &y, &[0.2], &GpuKernel::from_core(&Uniform));
        // ĝ_{-1}(0.35) = (1 + 3)/2 = 2 → residual 0.
        assert!(sq[0].abs() < 1e-6, "got {}", sq[0]);
    }
}
