//! Property tests pinning the pair-major engine to the reference
//! [`VoteMap`] path bit-for-bit: random grids, measurement subsets, masks,
//! windows, and thread counts. These are the determinism contract of the
//! engine's layout change — any divergence, even in the last mantissa bit,
//! fails here.

use proptest::prelude::*;
use rfidraw_core::array::Deployment;
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Rect};
use rfidraw_core::grid::{Grid2, GridWindow, VoteMap};
use rfidraw_core::vote::{ideal_measurements, PairMeasurement};
use rfidraw_core::{SimdMode, TablePrecision, VoteEngine};

/// The two fixed-point precisions, indexable from a proptest strategy.
const QUANTIZED: [TablePrecision; 2] = [TablePrecision::I16, TablePrecision::I8];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// A random but valid scene: paper deployment, a plane at a random depth,
/// a random sub-rect of the tracking region at a random resolution, and
/// ideal measurements for a random in-region tag.
#[allow(clippy::type_complexity)]
fn scene(
    depth: f64,
    x0: f64,
    z0: f64,
    w: f64,
    h: f64,
    res: f64,
    tag_fx: f64,
    tag_fz: f64,
) -> (Deployment, Plane, Grid2, Vec<PairMeasurement>) {
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(depth);
    let grid = Grid2::new(
        Rect::new(Point2::new(x0, z0), Point2::new(x0 + w, z0 + h)),
        res,
    );
    let tag = Point2::new(x0 + tag_fx * w, z0 + tag_fz * h);
    let ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(tag));
    (dep, plane, grid, ms)
}

fn parallelism(idx: usize) -> Parallelism {
    [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(3),
        Parallelism::Threads(7),
        Parallelism::Auto,
    ][idx % 5]
}

proptest! {
    /// Full-grid evaluation of any measurement subset equals the reference
    /// path bit-for-bit under every execution policy, and a full-grid
    /// window equals the unwindowed evaluation.
    #[test]
    fn engine_and_windowed_full_match_reference(
        depth in 1.0f64..4.0,
        x0 in -0.5f64..1.0,
        z0 in -0.5f64..1.0,
        w in 0.4f64..1.6,
        h in 0.4f64..1.6,
        res in 0.03f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        subset_mask in 0u32..255,
        par_idx in 0usize..5,
    ) {
        let (dep, plane, grid, all_ms) = scene(depth, x0, z0, w, h, res, tag_fx, tag_fz);
        // A non-empty random subset of the measurements (bit i keeps m[i]).
        let ms: Vec<PairMeasurement> = all_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| subset_mask & (1 << (i % 8)) != 0 || subset_mask == 0)
            .map(|(_, &m)| m)
            .collect();
        prop_assume!(!ms.is_empty());

        let reference = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
        let engine = VoteEngine::for_deployment(&dep, plane, grid, parallelism(par_idx));
        let evaluated = engine.evaluate(&ms);
        prop_assert_eq!(bits(reference.values()), bits(evaluated.values()));

        let windowed = engine.evaluate_windowed(&ms, &GridWindow::full(engine.grid()));
        prop_assert_eq!(bits(evaluated.values()), bits(windowed.values()));
    }

    /// Masked evaluation (both the lazy and the table-backed path) equals
    /// the reference masked path bit-for-bit for any mask.
    #[test]
    fn masked_paths_match_reference(
        depth in 1.0f64..4.0,
        res in 0.04f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        mask_seed in any::<u64>(),
        keep_mod in 2usize..7,
        par_idx in 0usize..5,
    ) {
        let (dep, plane, grid, ms) = scene(depth, 0.2, 0.1, 1.2, 0.9, res, tag_fx, tag_fz);
        // A pseudo-random mask from a seed (xorshift), density 1/keep_mod.
        let mut state = mask_seed | 1;
        let mask: Vec<bool> = (0..grid.len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as usize) % keep_mod == 0
            })
            .collect();

        let reference = VoteMap::evaluate_masked(&dep, &ms, plane, grid.clone(), &mask);
        let engine = VoteEngine::for_deployment(&dep, plane, grid, parallelism(par_idx));
        let lazy = engine.evaluate_masked(&ms, &mask);
        engine.prebuild();
        let tabled = engine.evaluate_masked(&ms, &mask);
        prop_assert_eq!(bits(reference.values()), bits(lazy.values()));
        prop_assert_eq!(bits(reference.values()), bits(tabled.values()));
    }

    /// The f32 engine's accuracy contract over random deployments, grids,
    /// and measurement subsets: every cell's vote differs from the f64
    /// kernel by at most the *derived* worst-case bound
    /// ([`VoteEngine::vote_error_bound`]), and the argmax cell is
    /// provably identical whenever the f64 best/runner-up gap exceeds
    /// twice that bound. When the gap is smaller than the guarantee the
    /// f32 pick must still be within `2·bound` of the f64 optimum.
    #[test]
    fn f32_votes_stay_bounded_and_argmax_agrees(
        depth in 1.0f64..4.0,
        x0 in -0.5f64..1.0,
        z0 in -0.5f64..1.0,
        w in 0.4f64..1.6,
        h in 0.4f64..1.6,
        res in 0.03f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        subset_mask in 0u32..255,
        par_idx in 0usize..5,
    ) {
        let (dep, plane, grid, all_ms) = scene(depth, x0, z0, w, h, res, tag_fx, tag_fz);
        let ms: Vec<PairMeasurement> = all_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| subset_mask & (1 << (i % 8)) != 0 || subset_mask == 0)
            .map(|(_, &m)| m)
            .collect();
        prop_assume!(!ms.is_empty());

        let engine64 =
            VoteEngine::for_deployment(&dep, plane, grid.clone(), parallelism(par_idx));
        let mut engine32 = VoteEngine::for_deployment(&dep, plane, grid, parallelism(par_idx));
        engine32.set_precision(TablePrecision::F32);

        let bound = engine64.vote_error_bound(&ms, TablePrecision::F32);
        let m64 = engine64.evaluate(&ms);
        let m32 = engine32.evaluate(&ms);

        let mut worst = 0.0f64;
        for (&a, &b) in m64.values().iter().zip(m32.values()) {
            worst = worst.max((a - b).abs());
        }
        prop_assert!(
            worst <= bound,
            "worst |Δvote| {} exceeds the derived bound {}",
            worst,
            bound
        );

        let best64 = argmax(m64.values());
        let best32 = argmax(m32.values());
        let runner_up = m64
            .values()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != best64)
            .map(|(_, &v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        let gap = m64.values()[best64] - runner_up;
        if gap > 2.0 * bound {
            prop_assert_eq!(best64, best32, "separated argmax must be identical");
        } else {
            prop_assert!(
                m64.values()[best64] - m64.values()[best32] <= 2.0 * bound,
                "f32 pick is more than 2·bound below the f64 optimum"
            );
        }
    }

    /// The f32 paths keep the determinism contract of the f64 ones: the
    /// full map is bit-identical across execution policies, windowed
    /// evaluation matches the full map cellwise (`-inf` outside), and the
    /// masked path (lazy and table-backed) matches the full map on kept
    /// cells for any pseudo-random mask.
    #[test]
    fn f32_windowed_and_masked_match_full_f32_map(
        depth in 1.0f64..4.0,
        res in 0.04f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        center_fx in 0.0f64..1.0,
        center_fz in 0.0f64..1.0,
        half_extent in 0.02f64..0.8,
        mask_seed in any::<u64>(),
        keep_mod in 2usize..7,
        par_idx in 0usize..5,
        par_idx2 in 0usize..5,
    ) {
        let (dep, plane, grid, ms) = scene(depth, 0.2, 0.1, 1.2, 0.9, res, tag_fx, tag_fz);
        let mut engine = VoteEngine::for_deployment(
            &dep,
            plane,
            grid.clone(),
            parallelism(par_idx),
        );
        engine.set_precision(TablePrecision::F32);
        let mut other = VoteEngine::for_deployment(&dep, plane, grid, parallelism(par_idx2));
        other.set_precision(TablePrecision::F32);

        let full = engine.evaluate(&ms);
        prop_assert_eq!(bits(full.values()), bits(other.evaluate(&ms).values()));

        let center = Point2::new(0.2 + center_fx * 1.2, 0.1 + center_fz * 0.9);
        let window = GridWindow::around(engine.grid(), center, half_extent);
        let windowed = engine.evaluate_windowed(&ms, &window);
        for (c, (&win, &all)) in windowed.values().iter().zip(full.values()).enumerate() {
            let (ix, iz) = engine.grid().unflat(c);
            if window.contains(ix, iz) {
                prop_assert_eq!(win.to_bits(), all.to_bits(), "window cell {}", c);
            } else {
                prop_assert_eq!(win, f64::NEG_INFINITY, "outside cell {}", c);
            }
        }

        let mut state = mask_seed | 1;
        let mask: Vec<bool> = (0..engine.grid().len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as usize) % keep_mod == 0
            })
            .collect();
        let lazy = engine.evaluate_masked(&ms, &mask);
        engine.prebuild();
        let tabled = engine.evaluate_masked(&ms, &mask);
        prop_assert_eq!(bits(lazy.values()), bits(tabled.values()));
        for (c, (&got, &all)) in lazy.values().iter().zip(full.values()).enumerate() {
            if mask[c] {
                prop_assert_eq!(got.to_bits(), all.to_bits(), "masked cell {}", c);
            } else {
                prop_assert_eq!(got, f64::NEG_INFINITY, "dropped cell {}", c);
            }
        }
    }

    /// The quantized engines' accuracy contract over random deployments,
    /// grids, and measurement subsets — for both i16 and i8: every cell's
    /// vote differs from the f64 kernel by at most the *derived* bound
    /// ([`VoteEngine::vote_error_bound`]), and the argmax-identity theorem
    /// holds — whenever the f64 best/runner-up gap exceeds twice the
    /// bound the quantized argmax cell is exactly the f64 one; otherwise
    /// the quantized pick is still within `2·bound` of the f64 optimum.
    #[test]
    fn quantized_votes_stay_bounded_and_argmax_agrees(
        depth in 1.0f64..4.0,
        x0 in -0.5f64..1.0,
        z0 in -0.5f64..1.0,
        w in 0.4f64..1.6,
        h in 0.4f64..1.6,
        res in 0.03f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        subset_mask in 0u32..255,
        prec_idx in 0usize..2,
        par_idx in 0usize..5,
    ) {
        let (dep, plane, grid, all_ms) = scene(depth, x0, z0, w, h, res, tag_fx, tag_fz);
        let ms: Vec<PairMeasurement> = all_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| subset_mask & (1 << (i % 8)) != 0 || subset_mask == 0)
            .map(|(_, &m)| m)
            .collect();
        prop_assume!(!ms.is_empty());
        let precision = QUANTIZED[prec_idx];

        let engine64 =
            VoteEngine::for_deployment(&dep, plane, grid.clone(), parallelism(par_idx));
        let mut engine_q = VoteEngine::for_deployment(&dep, plane, grid, parallelism(par_idx));
        engine_q.set_precision(precision);

        let bound = engine64.vote_error_bound(&ms, precision);
        let m64 = engine64.evaluate(&ms);
        let mq = engine_q.evaluate(&ms);

        let mut worst = 0.0f64;
        for (&a, &b) in m64.values().iter().zip(mq.values()) {
            worst = worst.max((a - b).abs());
        }
        prop_assert!(
            worst <= bound,
            "{:?}: worst |Δvote| {} exceeds the derived bound {}",
            precision,
            worst,
            bound
        );

        let best64 = argmax(m64.values());
        let best_q = argmax(mq.values());
        let runner_up = m64
            .values()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != best64)
            .map(|(_, &v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        let gap = m64.values()[best64] - runner_up;
        if gap > 2.0 * bound {
            prop_assert_eq!(
                best64, best_q,
                "{:?}: separated argmax must be identical", precision
            );
        } else {
            prop_assert!(
                m64.values()[best64] - m64.values()[best_q] <= 2.0 * bound,
                "{:?}: quantized pick is more than 2·bound below the f64 optimum",
                precision
            );
        }
    }

    /// The quantized paths keep the engine's determinism contract, for
    /// both i16 and i8: the full map is bit-identical across execution
    /// policies *and* across SIMD dispatch (`Auto` vs forced `Scalar` —
    /// integer accumulation is exact, so this is by construction, and
    /// this test pins it on whatever ISA the host offers), windowed
    /// evaluation matches the full map cellwise (`-inf` outside), and the
    /// masked path (lazy quantize-on-the-fly and table-backed) matches
    /// the full map on kept cells for any pseudo-random mask.
    #[test]
    fn quantized_windowed_and_masked_match_full_quantized_map(
        depth in 1.0f64..4.0,
        res in 0.04f64..0.12,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        center_fx in 0.0f64..1.0,
        center_fz in 0.0f64..1.0,
        half_extent in 0.02f64..0.8,
        mask_seed in any::<u64>(),
        keep_mod in 2usize..7,
        prec_idx in 0usize..2,
        par_idx in 0usize..5,
        par_idx2 in 0usize..5,
    ) {
        let (dep, plane, grid, ms) = scene(depth, 0.2, 0.1, 1.2, 0.9, res, tag_fx, tag_fz);
        let precision = QUANTIZED[prec_idx];
        let mut engine = VoteEngine::for_deployment(
            &dep,
            plane,
            grid.clone(),
            parallelism(par_idx),
        );
        engine.set_precision(precision);
        let mut scalar = VoteEngine::for_deployment(&dep, plane, grid, parallelism(par_idx2));
        scalar.set_precision(precision);
        scalar.set_simd_mode(SimdMode::Scalar);

        let full = engine.evaluate(&ms);
        prop_assert_eq!(
            bits(full.values()),
            bits(scalar.evaluate(&ms).values()),
            "SIMD dispatch and thread count must not change a single bit"
        );

        let center = Point2::new(0.2 + center_fx * 1.2, 0.1 + center_fz * 0.9);
        let window = GridWindow::around(engine.grid(), center, half_extent);
        let windowed = engine.evaluate_windowed(&ms, &window);
        for (c, (&win, &all)) in windowed.values().iter().zip(full.values()).enumerate() {
            let (ix, iz) = engine.grid().unflat(c);
            if window.contains(ix, iz) {
                prop_assert_eq!(win.to_bits(), all.to_bits(), "window cell {}", c);
            } else {
                prop_assert_eq!(win, f64::NEG_INFINITY, "outside cell {}", c);
            }
        }

        let mut state = mask_seed | 1;
        let mask: Vec<bool> = (0..engine.grid().len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as usize) % keep_mod == 0
            })
            .collect();
        let lazy = engine.evaluate_masked(&ms, &mask);
        engine.prebuild();
        let tabled = engine.evaluate_masked(&ms, &mask);
        prop_assert_eq!(bits(lazy.values()), bits(tabled.values()));
        for (c, (&got, &all)) in lazy.values().iter().zip(full.values()).enumerate() {
            if mask[c] {
                prop_assert_eq!(got.to_bits(), all.to_bits(), "masked cell {}", c);
            } else {
                prop_assert_eq!(got, f64::NEG_INFINITY, "dropped cell {}", c);
            }
        }
    }

    /// Any valid window: in-window cells are bit-identical to the full
    /// map, out-of-window cells are exactly `-inf`.
    #[test]
    fn arbitrary_windows_match_full_map_cellwise(
        depth in 1.0f64..4.0,
        res in 0.03f64..0.10,
        tag_fx in 0.1f64..0.9,
        tag_fz in 0.1f64..0.9,
        center_fx in 0.0f64..1.0,
        center_fz in 0.0f64..1.0,
        half_extent in 0.02f64..0.8,
        par_idx in 0usize..5,
    ) {
        let (dep, plane, grid, ms) = scene(depth, 0.2, 0.1, 1.4, 1.0, res, tag_fx, tag_fz);
        let center = Point2::new(0.2 + center_fx * 1.4, 0.1 + center_fz * 1.0);
        let engine = VoteEngine::for_deployment(&dep, plane, grid, parallelism(par_idx));
        let window = GridWindow::around(engine.grid(), center, half_extent);
        let full = engine.evaluate(&ms);
        let map = engine.evaluate_windowed(&ms, &window);
        for (c, (&win, &all)) in map.values().iter().zip(full.values()).enumerate() {
            let (ix, iz) = engine.grid().unflat(c);
            if window.contains(ix, iz) {
                prop_assert_eq!(win.to_bits(), all.to_bits(), "cell {}", c);
            } else {
                prop_assert_eq!(win, f64::NEG_INFINITY, "cell {}", c);
            }
        }
    }
}

/// One xorshift64 step, as a float in `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over the bit patterns of a map's values: a fingerprint that
/// changes if any cell changes in any bit, `-inf` cells included.
fn fingerprint(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A fixed seeded scene for the golden fingerprints: the paper
/// deployment, a seeded plane depth, region, resolution and tag, noisy
/// measurements on a seeded pair subset, a seeded window around the tag,
/// and a seeded mask of density ~1/3. Seeds 1 and 2 are sized past one
/// accumulator tile (4096 cells) so tile boundaries are covered.
#[allow(clippy::type_complexity)]
fn golden_scene(
    seed: u64,
) -> (Deployment, Plane, Grid2, Vec<PairMeasurement>, GridWindow, Vec<bool>) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(1.5 + 2.0 * next_unit(&mut state));
    let (w, h, res) = match seed {
        1 => (1.7, 1.3, 0.02),
        2 => (1.1, 0.7, 0.013),
        _ => (2.6, 1.9, 0.045),
    };
    let x0 = -0.3 + 0.6 * next_unit(&mut state);
    let z0 = -0.2 + 0.5 * next_unit(&mut state);
    let grid = Grid2::new(Rect::new(Point2::new(x0, z0), Point2::new(x0 + w, z0 + h)), res);
    let tag = Point2::new(
        x0 + (0.2 + 0.6 * next_unit(&mut state)) * w,
        z0 + (0.2 + 0.6 * next_unit(&mut state)) * h,
    );
    let ms: Vec<PairMeasurement> = ideal_measurements(&dep, dep.all_pairs(), plane.lift(tag))
        .into_iter()
        .filter_map(|m| {
            let keep = next_unit(&mut state) < 0.8;
            let noise = 0.4 * (next_unit(&mut state) - 0.5);
            keep.then(|| PairMeasurement::new(m.pair, m.delta_phi + noise))
        })
        .collect();
    let window = GridWindow::around(&grid, tag, 0.1 + 0.3 * next_unit(&mut state));
    let mask: Vec<bool> = (0..grid.len()).map(|_| next_unit(&mut state) < 0.33).collect();
    (dep, plane, grid, ms, window, mask)
}

/// Golden fingerprints of every evaluation path at every precision, one
/// row per (scene seed, precision): full map, windowed map, masked map
/// with the table built, masked map computed lazily. Recorded with the
/// engine's earlier per-precision kernels, so they pin each precision's
/// output across refactors of the sweep. Each value must hold under both
/// [`SimdMode`]s and both execution policies below — bit-identity across
/// those is the engine's contract, so one fingerprint covers all four
/// combinations.
const GOLDEN: [(u64, TablePrecision, [u64; 4]); 12] = [
    (1, TablePrecision::F64, [
        0x60536c3361b3bee8, 0xda443e5a391becde, 0x31d051c4e5e94d44, 0x31d051c4e5e94d44,
    ]),
    (1, TablePrecision::F32, [
        0xf8e6a96fde888ceb, 0xac39e9a644ce1227, 0xf93bd6605a5561cb, 0xf93bd6605a5561cb,
    ]),
    (1, TablePrecision::I16, [
        0x5143d627cce2a58e, 0x6a3479d64e8f4e7b, 0x3986fbe9b7c64e7d, 0x3986fbe9b7c64e7d,
    ]),
    (1, TablePrecision::I8, [
        0x49a1b9ba97d82e0d, 0x52f32594483f654c, 0xe6f1084f4eacd5bc, 0xe6f1084f4eacd5bc,
    ]),
    (2, TablePrecision::F64, [
        0x674c3ec350107ccd, 0x57bbc34d25ecc0da, 0x9573a478f1b57ee4, 0x9573a478f1b57ee4,
    ]),
    (2, TablePrecision::F32, [
        0xfcd9ad1ec10699bc, 0xda8f0be379ff5828, 0xab29ad148f9b68cd, 0xab29ad148f9b68cd,
    ]),
    (2, TablePrecision::I16, [
        0x7793adc0bd3ee314, 0x4db226338bb97214, 0x5985f4c51a9fdd1a, 0x5985f4c51a9fdd1a,
    ]),
    (2, TablePrecision::I8, [
        0xbfb80bb26e8952d7, 0x472a2dcdc9ab15dc, 0xc6e852bf694bc2b9, 0xc6e852bf694bc2b9,
    ]),
    (3, TablePrecision::F64, [
        0x10473734867c0eda, 0x69f20a3e462aeb5c, 0x766a88f7ecbb03bd, 0x766a88f7ecbb03bd,
    ]),
    (3, TablePrecision::F32, [
        0xff8d0885e6f608e7, 0xe1f77325b714118f, 0x7f9604e482719655, 0x7f9604e482719655,
    ]),
    (3, TablePrecision::I16, [
        0x1060a07dbc9b2fb9, 0x69136c132299f2fc, 0x6a35139c34715322, 0x6a35139c34715322,
    ]),
    (3, TablePrecision::I8, [
        0xfed273ea970aaca6, 0xe10253c5cbd1bd92, 0x69a4f27bedf94fa0, 0x69a4f27bedf94fa0,
    ]),
];

#[test]
fn golden_fingerprints_hold_for_every_precision_path_simd_and_parallelism() {
    for (seed, precision, expected) in GOLDEN {
        let (dep, plane, grid, ms, window, mask) = golden_scene(seed);
        for simd in [SimdMode::Auto, SimdMode::Scalar] {
            for par in [Parallelism::Serial, Parallelism::Threads(3)] {
                let mut engine = VoteEngine::for_deployment(&dep, plane, grid.clone(), par);
                engine.set_precision(precision);
                engine.set_simd_mode(simd);
                assert!(!engine.is_table_built());
                let lazy = fingerprint(engine.evaluate_masked(&ms, &mask).values());
                engine.prebuild();
                let tabled = fingerprint(engine.evaluate_masked(&ms, &mask).values());
                let full = fingerprint(engine.evaluate(&ms).values());
                let windowed = fingerprint(engine.evaluate_windowed(&ms, &window).values());
                assert_eq!(
                    [full, windowed, tabled, lazy],
                    expected,
                    "seed {seed} {precision:?} {simd:?} {par:?}: [full, windowed, masked, lazy]"
                );
            }
        }
    }
}
