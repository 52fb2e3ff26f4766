//! Bit-level fingerprints of the moment-window cell kernel.
//!
//! The prefix sweep and the incremental engine score every
//! `(observation, bandwidth)` cell through one kernel (`cv::window`). Any
//! restructuring of that kernel — row layout, loop fusion, width
//! specialisation — must leave the floating-point operations and their
//! order unchanged, so every score and `included` count stays
//! `to_bits`-identical. Each case below hashes `scores[m].to_bits()` and
//! `included[m]` over the whole profile and compares the hash with a
//! constant recorded before the kernel was restructured.
//!
//! Only sequential profiles are pinned: a parallel fold's reduction order
//! depends on the core count. The sequential-versus-parallel suites in
//! `cv::fold` cover those.

use kcv_core::cv::{cv_profile_prefix, cv_profile_prefix_ll, CvProfile, IncrementalSelector};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{
    Epanechnikov, EpanechnikovConvolution, PolynomialKernel, Quartic, Triangular, Triweight,
    Uniform,
};
use kcv_core::util::SplitMix64;

/// Every polynomial kernel the crate ships, one per instantiated width.
fn kernels() -> [(&'static str, &'static dyn PolynomialKernel); 6] {
    [
        ("uniform", &Uniform),
        ("triangular", &Triangular),
        ("epanechnikov", &Epanechnikov),
        ("quartic", &Quartic),
        ("triweight", &Triweight),
        ("epanechnikov-convolution", &EpanechnikovConvolution),
    ]
}

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

    fn profile(&mut self, p: &CvProfile) {
        self.word(p.n as u64);
        for (s, &inc) in p.scores.iter().zip(&p.included) {
            self.word(s.to_bits());
            self.word(inc as u64);
        }
    }
}

/// Sample sizes and seeds of the batch cases.
const SIZES: [usize; 2] = [50, 2000];
const SEEDS: [u64; 2] = [7, 1013];

/// Fingerprints recorded before the cell kernel was specialised on kernel
/// width; a mismatch means some score or count changed bits.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("incremental/epanechnikov", 0x53eb40753cf296b8),
    ("incremental/epanechnikov-convolution", 0xac0fbaa54c9fc238),
    ("incremental/quartic", 0xaa5d2f0d0998f9fe),
    ("incremental/triangular", 0xed629079af7e4d9d),
    ("incremental/triweight", 0x32ad152e25ae8b44),
    ("incremental/uniform", 0x61ba7b780f4a5906),
    ("prefix/epanechnikov-convolution/n2000/s1013", 0xd2cd0887a1a8060f),
    ("prefix/epanechnikov-convolution/n2000/s7", 0x92f14af1146ae3d4),
    ("prefix/epanechnikov-convolution/n50/s1013", 0x5824441cedb22375),
    ("prefix/epanechnikov-convolution/n50/s7", 0x54c2feebd7000d0c),
    ("prefix/epanechnikov/n2000/s1013", 0x398dad74d61913cd),
    ("prefix/epanechnikov/n2000/s7", 0xc865f070a1a2574d),
    ("prefix/epanechnikov/n50/s1013", 0x0bf8cfdcd9afc5d9),
    ("prefix/epanechnikov/n50/s7", 0x35848d9a30d56445),
    ("prefix/quartic/n2000/s1013", 0x2adee03406e3be7d),
    ("prefix/quartic/n2000/s7", 0xa469e175d16ab033),
    ("prefix/quartic/n50/s1013", 0x3d39aa4189716f03),
    ("prefix/quartic/n50/s7", 0x200b7739434bf3d4),
    ("prefix/triangular/n2000/s1013", 0xb0142ac2c944c16e),
    ("prefix/triangular/n2000/s7", 0xd5ed8f433265841a),
    ("prefix/triangular/n50/s1013", 0x19ac93179fffb8b9),
    ("prefix/triangular/n50/s7", 0xd74b6855529ca177),
    ("prefix/triweight/n2000/s1013", 0x62aa31ce706923a4),
    ("prefix/triweight/n2000/s7", 0x24c81516889311bc),
    ("prefix/triweight/n50/s1013", 0x0c55e5286e3e57bf),
    ("prefix/triweight/n50/s7", 0x44553f518f7080ff),
    ("prefix/uniform/n2000/s1013", 0x5e5d5bcc031e8092),
    ("prefix/uniform/n2000/s7", 0x98a853c6503a7adc),
    ("prefix/uniform/n50/s1013", 0x757b93a8885ed26d),
    ("prefix/uniform/n50/s7", 0x9703387fb685005a),
    ("prefix_ll/epanechnikov-convolution/n2000/s1013", 0x54942e8ef9f109ca),
    ("prefix_ll/epanechnikov-convolution/n2000/s7", 0x3135e68a79af15f8),
    ("prefix_ll/epanechnikov-convolution/n50/s1013", 0xbf8a2df5fd6d8c4e),
    ("prefix_ll/epanechnikov-convolution/n50/s7", 0xf9612865f6e9b729),
    ("prefix_ll/epanechnikov/n2000/s1013", 0xd86ab5d76749e7fa),
    ("prefix_ll/epanechnikov/n2000/s7", 0xc2971d55011a2d90),
    ("prefix_ll/epanechnikov/n50/s1013", 0x1fd4bf3dd6ef0c61),
    ("prefix_ll/epanechnikov/n50/s7", 0x5e7b9d7958cb882a),
    ("prefix_ll/quartic/n2000/s1013", 0xfcfdf8a54807003e),
    ("prefix_ll/quartic/n2000/s7", 0x7618bd79976724fb),
    ("prefix_ll/quartic/n50/s1013", 0x498e9d099af60a6a),
    ("prefix_ll/quartic/n50/s7", 0x11aaf76e32fb3390),
    ("prefix_ll/triangular/n2000/s1013", 0x68db16d1e4e72efe),
    ("prefix_ll/triangular/n2000/s7", 0x893fbdc62dbd3afb),
    ("prefix_ll/triangular/n50/s1013", 0x0a4d0bb5caaf049d),
    ("prefix_ll/triangular/n50/s7", 0xdc98357ab00e6c46),
    ("prefix_ll/triweight/n2000/s1013", 0x13166e328a52c5b1),
    ("prefix_ll/triweight/n2000/s7", 0x4986101228e67fa5),
    ("prefix_ll/triweight/n50/s1013", 0x4281a62ec4add733),
    ("prefix_ll/triweight/n50/s7", 0xb43df525ec82a6a8),
    ("prefix_ll/uniform/n2000/s1013", 0xbb83356f9fbab090),
    ("prefix_ll/uniform/n2000/s7", 0x16b5a6fcf82c58b4),
    ("prefix_ll/uniform/n50/s1013", 0xe5c0cdbe3ed933ab),
    ("prefix_ll/uniform/n50/s7", 0x5c577ae20a4849b1),
];

fn golden(case: &str) -> Option<u64> {
    GOLDEN
        .iter()
        .find(|(name, _)| *name == case)
        .map(|&(_, hash)| hash)
}

/// Checks every case, reporting all mismatches (and missing entries) at
/// once in the form of `GOLDEN` lines.
fn check(cases: Vec<(String, u64)>) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(name, hash)| golden(name) != Some(*hash))
        .map(|(name, hash)| format!("(\"{name}\", 0x{hash:016x}),"))
        .collect();
    assert!(bad.is_empty(), "fingerprints changed:\n{}", bad.join("\n"));
}

type Profile =
    fn(&[f64], &[f64], &BandwidthGrid, &dyn PolynomialKernel) -> kcv_core::Result<CvProfile>;

fn batch_cases(engine: &str, profile: Profile) -> Vec<(String, u64)> {
    let mut cases = Vec::new();
    for (kname, kernel) in kernels() {
        for n in SIZES {
            for seed in SEEDS {
                let (x, y) = paper_dgp(n, seed);
                let grid = BandwidthGrid::paper_default(&x, 40).unwrap();
                let mut h = Fnv::new();
                h.profile(&profile(&x, &y, &grid, kernel).unwrap());
                cases.push((format!("{engine}/{kname}/n{n}/s{seed}"), h.0));
            }
        }
    }
    cases
}

#[test]
fn prefix_profiles_match_their_fingerprints() {
    check(batch_cases("prefix", |x, y, g, k| {
        cv_profile_prefix(x, y, g, k)
    }));
}

#[test]
fn prefix_ll_profiles_match_their_fingerprints() {
    check(batch_cases("prefix_ll", |x, y, g, k| {
        cv_profile_prefix_ll(x, y, g, k)
    }));
}

/// A scripted stream: lattice keys held several times each plus continuous
/// keys, a fold, then removals that empty some slots (dead slots stay in
/// the pool) and shrink others (duplicates remain), then re-inserts of
/// pooled keys so no fold runs before the second reselect.
#[test]
fn incremental_reselects_match_their_fingerprints() {
    let mut rng = SplitMix64::new(29);
    let obs: Vec<(f64, f64)> = (0..240)
        .map(|i| {
            let key = if i % 3 == 0 {
                rng.next_f64()
            } else {
                (i % 32) as f64 / 32.0
            };
            (key, 0.5 * key + 10.0 * key * key + 0.5 * rng.next_f64())
        })
        .collect();
    let x: Vec<f64> = obs.iter().map(|o| o.0).collect();
    let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
    let mut cases = Vec::new();
    for (kname, kernel) in kernels() {
        let mut sel = IncrementalSelector::new(kernel, grid.clone());
        for &(xi, yi) in &obs {
            sel.insert(xi, yi).unwrap();
        }
        let mut h = Fnv::new();
        h.profile(&sel.reselect().unwrap());
        for (i, &(xi, yi)) in obs.iter().enumerate() {
            // Every continuous key at i ≡ 0 (mod 9) leaves, and so do the
            // lattice observations with i % 32 < 3 below i = 200: key 1/32
            // empties, keys 0 and 2/32 keep one copy each.
            let lattice_gone = i % 3 != 0 && i % 32 < 3 && i < 200;
            if (i % 9 == 0) || lattice_gone {
                assert!(sel.remove(xi, yi));
            }
        }
        for &(xi, yi) in obs.iter().filter(|&&(k, _)| k == 5.0 / 32.0).take(2) {
            sel.insert(xi, yi + 0.25).unwrap();
        }
        h.profile(&sel.reselect().unwrap());
        cases.push((format!("incremental/{kname}"), h.0));
    }
    check(cases);
}
