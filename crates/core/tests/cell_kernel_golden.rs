//! Bit-level fingerprints of the moment-window cell kernel.
//!
//! The prefix sweep scores every `(observation, bandwidth)` cell through
//! one kernel (`cv::window`), and the streaming window re-selects through
//! the prefix sweep, so its re-selections are checked against prefix
//! profiles of their windows and those profiles are pinned here. Any
//! restructuring of that kernel — row layout, loop fusion, width
//! specialisation, dropping terms that are exact zeros — must leave the
//! result bits unchanged: every score and `included` count stays
//! `to_bits`-identical. An operation that rounds may not be reordered; one
//! whose result is exact may go (`cv::window` documents why its trimmed
//! Horners qualify). Each case below hashes `scores[m].to_bits()` and
//! `included[m]` over the whole profile and compares the hash with a
//! constant recorded before the kernel was restructured.
//!
//! The prefix profiles are pinned at any core count: the prefix engine
//! splits large grids (here the n = 2000 cases) into one bandwidth block
//! per core, and every bandwidth still sums its observations in order, so
//! the split profile is bit-identical to one thread's (the block-count
//! suite in `cv::prefix` checks that directly). Observation-split folds
//! (`_par` entry points of the other engines) are not pinned: their
//! reduction order depends on the core count.

use kcv_core::cv::{
    cv_profile_prefix, cv_profile_prefix_ll, CvOptimum, CvProfile, SlidingWindowSelector,
};
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

/// Fingerprints of the current arithmetic — the `prefix/*` and
/// `prefix_ll/*` ones recorded before the cell kernel was specialised on
/// kernel width, the `prefix-lattice`, `prefix-signed-zero` and
/// `prefix-window` ones (the prefix profiles of the streaming cases'
/// samples) before the sliding window re-selected through the prefix
/// sweep; a mismatch means some score or count changed bits.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("prefix-lattice/epanechnikov", 0x73886004652b5697),
    ("prefix-lattice/epanechnikov-convolution", 0x86e0a6659c61472d),
    ("prefix-lattice/quartic", 0x5afe29d85012e3c2),
    ("prefix-lattice/triangular", 0x751106e3612c6594),
    ("prefix-lattice/triweight", 0xde463bd7beaf0c89),
    ("prefix-lattice/uniform", 0x0c4b18f02f409232),
    ("prefix-signed-zero/epanechnikov", 0x21aef270a53b5f71),
    ("prefix-signed-zero/epanechnikov-convolution", 0xa32a4d9bbd46ea1c),
    ("prefix-signed-zero/quartic", 0x6a1e0ea489e932b9),
    ("prefix-signed-zero/triangular", 0x6689b5b9955a0beb),
    ("prefix-signed-zero/triweight", 0x86742c83c0f653b6),
    ("prefix-signed-zero/uniform", 0xee92b4de5d17589a),
    ("prefix-window/epanechnikov", 0x0c0bee87eb769295),
    ("prefix-window/epanechnikov-convolution", 0x04702261736660fd),
    ("prefix-window/quartic", 0x9e257fb2240090fa),
    ("prefix-window/triangular", 0xe52d3b460e9a516c),
    ("prefix-window/triweight", 0x96dbd91d7a616617),
    ("prefix-window/uniform", 0xb1846ab2c04243e2),
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

/// Observations `(x, y)` in arrival order.
type Obs = Vec<(f64, f64)>;

/// Removes the earliest arrival equal (`==`) to `(x, y)` from `live`, so
/// `+0.0` and `−0.0` keys match each other.
fn remove_first(live: &mut Vec<(f64, f64)>, x: f64, y: f64) {
    let at = live
        .iter()
        .position(|&(a, b)| a == x && b == y)
        .expect("the observation is live");
    live.remove(at);
}

/// A scripted stream of lattice keys held several times each plus
/// continuous keys, and its two live sets in arrival order: the whole
/// stream, then the survivors after removals that empty some keys and
/// shrink others (duplicates remain), with two re-inserts of a held key.
fn lattice_stream() -> (Obs, Vec<Obs>, BandwidthGrid) {
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
    let mut live = obs.clone();
    for (i, &(xi, yi)) in obs.iter().enumerate() {
        // Every continuous key at i ≡ 0 (mod 9) leaves, and so do the
        // lattice observations with i % 32 < 3 below i = 200: key 1/32
        // empties, keys 0 and 2/32 keep one copy each.
        let lattice_gone = i % 3 != 0 && i % 32 < 3 && i < 200;
        if (i % 9 == 0) || lattice_gone {
            remove_first(&mut live, xi, yi);
        }
    }
    for &(xi, yi) in obs.iter().filter(|&&(k, _)| k == 5.0 / 32.0).take(2) {
        live.push((xi, yi + 0.25));
    }
    let sets = vec![obs.clone(), live];
    (obs, sets, grid)
}

/// A scripted stream over signed zeros — `+0.0` and `−0.0` keys, which
/// compare equal, and `−0.0` responses among the others — and its five
/// live sets in arrival order: the whole stream; only the `−0.0`
/// observations left at the zero key; the zero key emptied; a `−0.0`
/// arrival with a `−0.0` response and a `+0.0` one added; and the `−0.0`
/// arrival removed by a `+0.0` query, so only a `+0.0` observation stays.
fn signed_zero_stream() -> (Obs, Vec<Obs>, BandwidthGrid) {
    let mut rng = SplitMix64::new(31);
    let obs: Vec<(f64, f64)> = (0..160)
        .map(|i| {
            let key = match i % 5 {
                0 => 0.0,
                1 => -0.0,
                2 => ((i % 16) as f64 - 8.0) / 8.0,
                _ => 2.0 * rng.next_f64() - 1.0,
            };
            let y = if i % 7 == 0 {
                -0.0
            } else {
                key * key + 0.5 * rng.next_f64()
            };
            (key, y)
        })
        .collect();
    let x: Vec<f64> = obs.iter().map(|o| o.0).collect();
    let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
    let zeros = |sign: f64| {
        obs.iter()
            .filter(move |&&(k, _)| k == 0.0 && k.is_sign_negative() == (sign < 0.0))
            .copied()
    };
    let mut live = obs.clone();
    let mut sets = vec![live.clone()];
    for (xi, yi) in zeros(1.0) {
        remove_first(&mut live, xi, yi);
    }
    sets.push(live.clone());
    for (xi, yi) in zeros(-1.0) {
        remove_first(&mut live, xi, yi);
    }
    sets.push(live.clone());
    live.push((-0.0, -0.0));
    live.push((0.0, 0.75));
    sets.push(live.clone());
    remove_first(&mut live, 0.0, 0.0);
    sets.push(live);
    (obs, sets, grid)
}

/// A stream of lattice keys held several times each in every 96-arrival
/// window, with continuous keys between them, and its grid.
fn window_stream() -> (Vec<(f64, f64)>, BandwidthGrid) {
    let mut rng = SplitMix64::new(37);
    let obs: Vec<(f64, f64)> = (0..600)
        .map(|i| {
            let key = if i % 4 == 0 {
                rng.next_f64()
            } else {
                (i % 24) as f64 / 24.0
            };
            (key, 0.5 * key + 10.0 * key * key + 0.5 * rng.next_f64())
        })
        .collect();
    (obs, BandwidthGrid::log(0.005, 0.5, 40).unwrap())
}

fn prefix_of(
    sample: &[(f64, f64)],
    grid: &BandwidthGrid,
    kernel: &dyn PolynomialKernel,
) -> CvProfile {
    let (x, y): (Vec<f64>, Vec<f64>) = sample.iter().copied().unzip();
    cv_profile_prefix(&x, &y, grid, kernel).unwrap()
}

/// The prefix profiles of the streaming cases' live sets — the lattice
/// stream's two and the signed-zero stream's five — each hashed in order
/// per kernel.
#[test]
fn prefix_stream_samples_match_their_fingerprints() {
    let (_, lattice, lattice_grid) = lattice_stream();
    let (_, signed, signed_grid) = signed_zero_stream();
    let mut cases = Vec::new();
    for (kname, kernel) in kernels() {
        for (engine, sets, grid) in [
            ("prefix-lattice", &lattice, &lattice_grid),
            ("prefix-signed-zero", &signed, &signed_grid),
        ] {
            let mut h = Fnv::new();
            for sample in sets {
                h.profile(&prefix_of(sample, grid, kernel));
            }
            cases.push((format!("{engine}/{kname}"), h.0));
        }
    }
    check(cases);
}

fn optimum_bits(opt: kcv_core::Result<CvOptimum>) -> kcv_core::Result<(usize, u64, u64, usize)> {
    opt.map(|o| {
        (
            o.index,
            o.bandwidth.to_bits(),
            o.score.to_bits(),
            o.included,
        )
    })
}

/// Streams `obs` through a `capacity`-observation window re-selecting
/// every `cadence` arrivals, requires every fired optimum to equal the
/// optimum of `cv_profile_prefix` over the window's observations `to_bits`,
/// and returns those window profiles in firing order.
fn replay_against_prefix(
    obs: &[(f64, f64)],
    grid: &BandwidthGrid,
    kernel: &dyn PolynomialKernel,
    capacity: usize,
    cadence: usize,
) -> Vec<CvProfile> {
    let mut win = SlidingWindowSelector::new(kernel, grid.clone(), capacity, cadence).unwrap();
    let mut profiles = Vec::new();
    for (t, &(xi, yi)) in obs.iter().enumerate() {
        if let Some(opt) = win.push(xi, yi).unwrap() {
            let fresh = prefix_of(&obs[(t + 1).saturating_sub(capacity)..=t], grid, kernel);
            assert_eq!(
                optimum_bits(Ok(opt)),
                optimum_bits(fresh.argmin()),
                "{} arrival {t}",
                kernel.name()
            );
            profiles.push(fresh);
        }
    }
    assert!(!profiles.is_empty(), "the cadence never fired");
    profiles
}

/// The lattice stream through a 120-observation window: every key is held
/// several times in each window, and evictions thin and refill them.
#[test]
fn lattice_window_reselects_equal_prefix() {
    let (obs, _, grid) = lattice_stream();
    for (_, kernel) in kernels() {
        replay_against_prefix(&obs, &grid, kernel, 120, 16);
    }
}

/// The signed-zero stream through a 64-observation window: `+0.0` and
/// `−0.0` keys and `−0.0` responses in every window.
#[test]
fn signed_zero_window_reselects_equal_prefix() {
    let (obs, _, grid) = signed_zero_stream();
    for (_, kernel) in kernels() {
        replay_against_prefix(&obs, &grid, kernel, 64, 8);
    }
}

/// The sliding-window replay (`W = 96`, cadence 16, lattice keys held
/// several times in every window): every fired optimum equals the prefix
/// optimum of its window, and the window profiles, hashed in firing order,
/// match their fingerprints.
#[test]
fn sliding_window_replays_match_their_fingerprints() {
    let (obs, grid) = window_stream();
    let mut cases = Vec::new();
    for (kname, kernel) in kernels() {
        let mut h = Fnv::new();
        for profile in replay_against_prefix(&obs, &grid, kernel, 96, 16) {
            h.profile(&profile);
        }
        cases.push((format!("prefix-window/{kname}"), h.0));
    }
    check(cases);
}
