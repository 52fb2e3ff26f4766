//! Bit-level fingerprints of the simulated-GPU programs.
//!
//! Each case runs one public selection function and hashes the `to_bits`
//! of everything the device program reports: the selected bandwidth, its
//! score and the whole score profile; the simulated seconds (total, main
//! kernel, reductions, transfers); the device peak and both transfer byte
//! counts; and the operation counters of the main kernel and the
//! reductions, so any change of device work, allocation, transfer or
//! arithmetic order fails here. The windowed program also has a
//! results-only table that leaves out every time and counter, so a change
//! of its cost accounting alone can be told from a change of its results.

use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::polynomial_kernels;
use kcv_core::util::SplitMix64;
use kcv_gpu::{
    select_bandwidth_gpu_kernel, select_bandwidth_gpu_windowed_kernel, GpuConfig, GpuKernel,
};
use kcv_gpu_sim::ThreadCounters;

fn paper_dgp(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let y: Vec<f64> = x
        .iter()
        .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
        .collect();
    (x, y)
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.word(vs.len() as u64);
        for v in vs {
            self.word(u64::from(v.to_bits()));
        }
    }

    fn counters(&mut self, c: &ThreadCounters) {
        for w in [
            c.flops,
            c.global_reads,
            c.global_writes,
            c.global_coalesced,
            c.shared_accesses,
            c.constant_reads,
            c.branches,
            c.syncs,
        ] {
            self.word(w);
        }
    }
}

/// Hashes a run field by field (the classic and windowed programs report
/// the same fields).
macro_rules! hash_run {
    ($h:expr, $run:expr) => {{
        let (h, run) = (&mut $h, &$run);
        h.f64(run.bandwidth);
        h.f64(run.score);
        h.f32s(&run.bandwidths);
        h.f32s(&run.scores);
        let r = &run.report;
        h.word(r.n as u64);
        h.word(r.k as u64);
        h.f64(r.total_simulated_seconds);
        h.f64(r.main_kernel.simulated_seconds);
        h.f64(r.reduction_seconds);
        h.f64(r.transfer_seconds);
        h.word(r.device_bytes_peak as u64);
        h.word(r.h2d_bytes);
        h.word(r.d2h_bytes);
        h.counters(&r.main_kernel.totals);
        h.counters(&r.reduction_totals);
    }};
}

/// Sample sizes and seeds of every case.
const SIZES: [usize; 2] = [120, 600];
const SEEDS: [u64; 2] = [7, 1013];
/// Grid size of every case.
const K: usize = 25;

fn data(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, BandwidthGrid) {
    let (x, y) = paper_dgp(n, seed);
    let grid = BandwidthGrid::paper_default(&x, K).unwrap();
    (x, y, grid)
}

/// Fingerprints of every reported bit; a mismatch means some reported bit
/// changed. The `classic/*` entries were recorded before the GPU programs
/// shared one driver. The `windowed/*` entries were re-recorded when the
/// windowed kernel started reading each prefix row once per edge move,
/// which moved only its costs (`WINDOWED_RESULTS` did not change).
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("classic/epanechnikov/bw-major/n120/s1013", 0x773074b1a81f3078),
    ("classic/epanechnikov/bw-major/n120/s7", 0xd0e8e918d0c981e4),
    ("classic/epanechnikov/bw-major/n600/s1013", 0xd15631f2b837363c),
    ("classic/epanechnikov/bw-major/n600/s7", 0x091a1b4bb0c34042),
    ("classic/epanechnikov/obs-major/n120/s1013", 0x01a45efcc313b72a),
    ("classic/epanechnikov/obs-major/n120/s7", 0xacbd941299c91c94),
    ("classic/epanechnikov/obs-major/n600/s1013", 0x53a9bd8f9ffa5e60),
    ("classic/epanechnikov/obs-major/n600/s7", 0x3e7693bef6e8a1c0),
    ("classic/quartic/bw-major/n120/s1013", 0xbc65de3c777b7040),
    ("classic/quartic/bw-major/n120/s7", 0xe4938f43638bae3e),
    ("classic/quartic/bw-major/n600/s1013", 0x06e85f5819c3e040),
    ("classic/quartic/bw-major/n600/s7", 0x1b8316250ac66f55),
    ("classic/quartic/obs-major/n120/s1013", 0xc1360d880545f2ac),
    ("classic/quartic/obs-major/n120/s7", 0xb12e250e7980434d),
    ("classic/quartic/obs-major/n600/s1013", 0x5299c578b17047ce),
    ("classic/quartic/obs-major/n600/s7", 0xf051b13d89a58c30),
    ("classic/triangular/bw-major/n120/s1013", 0xd254cf956cc61709),
    ("classic/triangular/bw-major/n120/s7", 0x7f6f2cf65595bfb1),
    ("classic/triangular/bw-major/n600/s1013", 0x206a697fa5153a27),
    ("classic/triangular/bw-major/n600/s7", 0xf5cc688c52a03511),
    ("classic/triangular/obs-major/n120/s1013", 0xb37d7945e79eaf7b),
    ("classic/triangular/obs-major/n120/s7", 0x3bbbc5e673b23bb9),
    ("classic/triangular/obs-major/n600/s1013", 0xc24b3f75c96b322b),
    ("classic/triangular/obs-major/n600/s7", 0xd55d2fa1e8dcd0ba),
    ("classic/triweight/bw-major/n120/s1013", 0x9a60120145ac90cd),
    ("classic/triweight/bw-major/n120/s7", 0x029963c0f90b5104),
    ("classic/triweight/bw-major/n600/s1013", 0xbfd346d6e825b133),
    ("classic/triweight/bw-major/n600/s7", 0x3dc5ce1681bc064e),
    ("classic/triweight/obs-major/n120/s1013", 0x22885a8d341597c6),
    ("classic/triweight/obs-major/n120/s7", 0xc53e1ce8783c3fc5),
    ("classic/triweight/obs-major/n600/s1013", 0x33d697f548cd2ef5),
    ("classic/triweight/obs-major/n600/s7", 0x76b32c3c69f98e2f),
    ("classic/uniform/bw-major/n120/s1013", 0x4f5c662639506c82),
    ("classic/uniform/bw-major/n120/s7", 0x6ce77c569166114c),
    ("classic/uniform/bw-major/n600/s1013", 0xaea72ee02422d3f9),
    ("classic/uniform/bw-major/n600/s7", 0xd60c922a7f53646b),
    ("classic/uniform/obs-major/n120/s1013", 0x747b8573fa93c21d),
    ("classic/uniform/obs-major/n120/s7", 0xa0ce1ff987a5b56c),
    ("classic/uniform/obs-major/n600/s1013", 0xced1f66fe6839695),
    ("classic/uniform/obs-major/n600/s7", 0xbf25810e98a93713),
    ("windowed/epanechnikov/n120/s1013", 0xdcd0890e75640551),
    ("windowed/epanechnikov/n120/s7", 0x0b65a499004029ab),
    ("windowed/epanechnikov/n600/s1013", 0xf26ce3753a468401),
    ("windowed/epanechnikov/n600/s7", 0x5e6b9f6b3d419e4e),
    ("windowed/quartic/n120/s1013", 0xe3b13c0c640042d5),
    ("windowed/quartic/n120/s7", 0x0b7063fd974ee97a),
    ("windowed/quartic/n600/s1013", 0xf91b73122908dcce),
    ("windowed/quartic/n600/s7", 0x583ed4f41e39af2c),
    ("windowed/triangular/n120/s1013", 0x21c5238efcaebed2),
    ("windowed/triangular/n120/s7", 0xd545330989a8871b),
    ("windowed/triangular/n600/s1013", 0xd3ad160b829f385d),
    ("windowed/triangular/n600/s7", 0x2d8276c684627cc0),
    ("windowed/triweight/n120/s1013", 0x1867abd7caae09c3),
    ("windowed/triweight/n120/s7", 0x157163808a4cc28b),
    ("windowed/triweight/n600/s1013", 0xe026dc37a0e4ad9f),
    ("windowed/triweight/n600/s7", 0xc7f0c8ed1c7a3e68),
    ("windowed/uniform/n120/s1013", 0xb8196536b1d56ad4),
    ("windowed/uniform/n120/s7", 0x175d941639bd878d),
    ("windowed/uniform/n600/s1013", 0x69d9f3b30edcefd1),
    ("windowed/uniform/n600/s7", 0x61bfcea714e93c0a),
];

fn lookup(table: &[(&str, u64)], case: &str) -> Option<u64> {
    table
        .iter()
        .find(|(name, _)| *name == case)
        .map(|&(_, v)| v)
}

/// Checks every case against `table`, reporting all mismatches (and
/// missing entries) at once in the form of its lines.
fn check(table: &[(&str, u64)], cases: Vec<(String, u64)>) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(name, hash)| lookup(table, name) != Some(*hash))
        .map(|(name, hash)| format!("(\"{name}\", 0x{hash:016x}),"))
        .collect();
    assert!(bad.is_empty(), "fingerprints changed:\n{}", bad.join("\n"));
}

#[test]
fn classic_program_matches_its_fingerprints() {
    let mut cases = Vec::new();
    for core_kernel in polynomial_kernels() {
        let kernel = GpuKernel::from_core(&*core_kernel);
        for (layout, config) in [
            ("bw-major", GpuConfig::default()),
            (
                "obs-major",
                GpuConfig {
                    obs_major_residuals: true,
                    ..GpuConfig::default()
                },
            ),
        ] {
            for n in SIZES {
                for seed in SEEDS {
                    let (x, y, grid) = data(n, seed);
                    let run = select_bandwidth_gpu_kernel(&x, &y, &grid, &config, &kernel).unwrap();
                    let mut h = Fnv::new();
                    hash_run!(h, run);
                    cases.push((
                        format!("classic/{}/{layout}/n{n}/s{seed}", kernel.name),
                        h.0,
                    ));
                }
            }
        }
    }
    check(GOLDEN, cases);
}

#[test]
fn windowed_program_matches_its_fingerprints() {
    let mut cases = Vec::new();
    for core_kernel in polynomial_kernels() {
        let kernel = GpuKernel::from_core(&*core_kernel);
        let config = GpuConfig::default();
        for n in SIZES {
            for seed in SEEDS {
                let (x, y, grid) = data(n, seed);
                let run =
                    select_bandwidth_gpu_windowed_kernel(&x, &y, &grid, &config, &kernel).unwrap();
                let mut h = Fnv::new();
                hash_run!(h, run);
                h.word(run.report.deg as u64);
                cases.push((format!("windowed/{}/n{n}/s{seed}", kernel.name), h.0));
            }
        }
    }
    check(GOLDEN, cases);
}

/// Results-only fingerprints of the windowed program: bandwidth, score,
/// the score profile, device peak, both transfer byte counts and the
/// kernel degree — no simulated time and no operation counter. A change of
/// the kernel's cost accounting leaves these alone; a change of any device
/// result or of the device footprint fails here.
#[rustfmt::skip]
const WINDOWED_RESULTS: &[(&str, u64)] = &[
    ("windowed/epanechnikov/n120/s1013", 0x7b3457951c2931bd),
    ("windowed/epanechnikov/n120/s7", 0x276aeba3ea0bedea),
    ("windowed/epanechnikov/n600/s1013", 0x3718193e44e4ca42),
    ("windowed/epanechnikov/n600/s7", 0x4359e2f805f0e0df),
    ("windowed/quartic/n120/s1013", 0x3b5b8028551dcd93),
    ("windowed/quartic/n120/s7", 0x342999d0f2b149bf),
    ("windowed/quartic/n600/s1013", 0xcc5a67e355e73dcd),
    ("windowed/quartic/n600/s7", 0x13811c91261cab21),
    ("windowed/triangular/n120/s1013", 0xe7ec56d4257a41dd),
    ("windowed/triangular/n120/s7", 0x9a1ace1420190a8f),
    ("windowed/triangular/n600/s1013", 0x5c01a5a2f92495e4),
    ("windowed/triangular/n600/s7", 0x005d0674894029d9),
    ("windowed/triweight/n120/s1013", 0x30e4511a93c2895c),
    ("windowed/triweight/n120/s7", 0x4f39fe7ff6fae035),
    ("windowed/triweight/n600/s1013", 0xbeacf44e1ece5058),
    ("windowed/triweight/n600/s7", 0xe641137955fa1174),
    ("windowed/uniform/n120/s1013", 0xc6f9271cb608ccb0),
    ("windowed/uniform/n120/s7", 0x8f933a02ef4a4b6b),
    ("windowed/uniform/n600/s1013", 0x6278887391e25c80),
    ("windowed/uniform/n600/s7", 0xe28fa96765bc01f5),
];

#[test]
fn windowed_program_results_match_their_fingerprints() {
    let mut bad = Vec::new();
    for core_kernel in polynomial_kernels() {
        let kernel = GpuKernel::from_core(&*core_kernel);
        let config = GpuConfig::default();
        for n in SIZES {
            for seed in SEEDS {
                let (x, y, grid) = data(n, seed);
                let run =
                    select_bandwidth_gpu_windowed_kernel(&x, &y, &grid, &config, &kernel).unwrap();
                let mut h = Fnv::new();
                h.f64(run.bandwidth);
                h.f64(run.score);
                h.f32s(&run.scores);
                let r = &run.report;
                h.word(r.device_bytes_peak as u64);
                h.word(r.h2d_bytes);
                h.word(r.d2h_bytes);
                h.word(r.deg as u64);
                let case = format!("windowed/{}/n{n}/s{seed}", kernel.name);
                if lookup(WINDOWED_RESULTS, &case) != Some(h.0) {
                    bad.push(format!("(\"{case}\", 0x{:016x}),", h.0));
                }
            }
        }
    }
    assert!(
        bad.is_empty(),
        "windowed results changed:\n{}",
        bad.join("\n")
    );
}

/// Block size of the small-block cases: at n = 600 it makes ten blocks,
/// the last one partial (24 threads).
const SMALL_TPB: usize = 64;

/// Fingerprints (as in `GOLDEN`) of both single-device programs at
/// `SMALL_TPB`-thread blocks, n = 600, so that the launch's per-block
/// accounting is pinned over many blocks and a partial one.
#[rustfmt::skip]
const SMALL_BLOCKS: &[(&str, u64)] = &[
    ("classic/epanechnikov/tpb64/n600/s1013", 0x091a5e0270b6f66b),
    ("classic/epanechnikov/tpb64/n600/s7", 0xa388ce874ae62a8e),
    ("classic/quartic/tpb64/n600/s1013", 0xfebdc5e3326daab5),
    ("classic/quartic/tpb64/n600/s7", 0xe1f0639935dc542e),
    ("classic/triangular/tpb64/n600/s1013", 0x6f1e8f683db8036d),
    ("classic/triangular/tpb64/n600/s7", 0x6d5feb3ea2322222),
    ("classic/triweight/tpb64/n600/s1013", 0xb33e4206e90cf413),
    ("classic/triweight/tpb64/n600/s7", 0xd0a337678595789f),
    ("classic/uniform/tpb64/n600/s1013", 0x6000fd8299b9efd0),
    ("classic/uniform/tpb64/n600/s7", 0x510bda116c5a9363),
    ("windowed/epanechnikov/tpb64/n600/s1013", 0x4a03e6b783ee41fa),
    ("windowed/epanechnikov/tpb64/n600/s7", 0x8100987bba541d65),
    ("windowed/quartic/tpb64/n600/s1013", 0x64aa1315c5bf5d07),
    ("windowed/quartic/tpb64/n600/s7", 0xfe97a27b73c0e614),
    ("windowed/triangular/tpb64/n600/s1013", 0x70b0f4c91f5e0696),
    ("windowed/triangular/tpb64/n600/s7", 0xed1bf0e0f6371d42),
    ("windowed/triweight/tpb64/n600/s1013", 0xef1e6a348bbeedd0),
    ("windowed/triweight/tpb64/n600/s7", 0x0c24956bb77416b2),
    ("windowed/uniform/tpb64/n600/s1013", 0x80105faca53e31c1),
    ("windowed/uniform/tpb64/n600/s7", 0x81032a7adaac06ee),
];

#[test]
fn programs_at_small_blocks_match_their_fingerprints() {
    let config = GpuConfig::default().with_threads_per_block(SMALL_TPB);
    let n = SIZES[1];
    let mut cases = Vec::new();
    for core_kernel in polynomial_kernels() {
        let kernel = GpuKernel::from_core(&*core_kernel);
        for seed in SEEDS {
            let (x, y, grid) = data(n, seed);
            let run = select_bandwidth_gpu_kernel(&x, &y, &grid, &config, &kernel).unwrap();
            let mut h = Fnv::new();
            hash_run!(h, run);
            let case = format!("classic/{}/tpb{SMALL_TPB}/n{n}/s{seed}", kernel.name);
            cases.push((case, h.0));
            let run =
                select_bandwidth_gpu_windowed_kernel(&x, &y, &grid, &config, &kernel).unwrap();
            let mut h = Fnv::new();
            hash_run!(h, run);
            h.word(run.report.deg as u64);
            let case = format!("windowed/{}/tpb{SMALL_TPB}/n{n}/s{seed}", kernel.name);
            cases.push((case, h.0));
        }
    }
    check(SMALL_BLOCKS, cases);
}
