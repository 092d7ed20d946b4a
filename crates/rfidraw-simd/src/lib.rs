//! Explicit-SIMD accumulation sweeps for the RF-IDraw vote engine.
//!
//! The vote kernels in `rfidraw-core` are measurement-outer / cell-inner:
//! each measurement streams one contiguous table column and updates a
//! per-cell accumulator tile. On the baseline x86-64 target that inner
//! loop vectorizes only if LLVM's autovectorizer cooperates — a property
//! that has silently regressed across compiler versions before. This
//! crate makes the wide path explicit: one sweep function per table
//! precision, each with an AVX2 kernel, an SSE4.1 kernel, and a scalar
//! kernel, selected **at runtime** from CPUID (detected once, cached).
//! Two f64 row kernels ([`row_distances_f64`], [`pair_vote_f64`]) do the
//! same for the trajectory tracer's per-row wide-pair votes.
//!
//! ## Bit-identity
//!
//! Every kernel is bit-identical to the scalar sweep, by construction:
//!
//! * **f32** — SIMD lanes map to *distinct cells*, and each cell's
//!   accumulator still receives its `−f²` terms one measurement at a
//!   time, in measurement order. Per lane the instruction sequence is
//!   exactly the scalar one (`sub`, magic-number `add`/`sub`, `sub`,
//!   `mul`, `sub` — no FMA contraction, which would change rounding), and
//!   IEEE-754 arithmetic is deterministic per lane, so vector width never
//!   changes a bit.
//! * **i16** — the wrapping subtract and the `i16 → f32` widening are
//!   exact (|d| ≤ 2¹⁵ < 2²⁴), and the square-and-subtract is *always
//!   fused*: one `a − d·d` with a single rounding per term, in
//!   measurement order, with no cross-lane reduction. The scalar form is
//!   [`f32::mul_add`], whose contract is the same single rounding, so
//!   vector width never changes a bit. Fusing is not just speed — it
//!   makes the exact product `d²` (≤ 2³⁰, wider than an f32 mantissa)
//!   enter the accumulator unrounded, which tightens the engine's
//!   derived vote-error bound to the accumulation series alone. (An
//!   earlier revision widened to i64 instead; exact, but the extra
//!   widening ops and the 8-byte accumulator traffic erased the
//!   bandwidth win over f32.)
//! * **i8** — the quantized sweep is pure integer arithmetic (wrapping
//!   subtract, widen, square, widened add), which is exact and
//!   associative; there is nothing rounding-order-dependent to preserve.
//!
//! The dispatch is therefore *invisible* except in wall-clock; the
//! kernel-equivalence suites in `rfidraw-core` pin [`SimdMode::Auto`] to
//! [`SimdMode::Scalar`] bit-for-bit on every precision.
//!
//! ## Unsafe surface
//!
//! `rfidraw-core` forbids `unsafe`; this crate is the quarantine for the
//! `std::arch` intrinsics (the same pattern `rfidraw-net` uses for its
//! syscall shims). The only unsafe operations are unaligned vector
//! loads/stores within caller-provided slices (bounds checked by the loop
//! structure) and calls to `#[target_feature]` functions after the
//! matching CPUID check.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Which accumulation kernel a sweep call may use.
///
/// `Auto` picks the widest instruction set the CPU reports (AVX2, then
/// SSE4.1, then scalar); `Scalar` forces the scalar kernel. Results are
/// bit-identical either way — the knob exists so benches can measure the
/// explicit-SIMD margin and tests can assert the bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Runtime-dispatch to the widest available kernel (the default).
    #[default]
    Auto,
    /// Always run the scalar kernel.
    Scalar,
}

/// The magic constant of the branch-free nearest-integer trick:
/// `(x + 1.5·2²³) − 1.5·2²³` rounds an `f32` with `|x| ≤ 2²²` to the
/// nearest integer (ties to even) in two additions. Must match
/// `rfidraw_core::phase::frac_dist_to_integer_f32`.
const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³

const LEVEL_UNKNOWN: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_SSE41: u8 = 2;
const LEVEL_AVX2: u8 = 3;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNKNOWN);

/// The CPU's kernel tier, detected once and cached.
fn level() -> u8 {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNKNOWN => {
            let l = detect();
            LEVEL.store(l, Ordering::Relaxed);
            l
        }
        l => l,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> u8 {
    // The AVX2 tier also requires FMA (the i16 kernel's fused
    // subtract); every AVX2 part ships FMA, so the pairing costs
    // nothing in practice.
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        LEVEL_AVX2
    } else if std::arch::is_x86_feature_detected!("sse4.1") {
        LEVEL_SSE41
    } else {
        LEVEL_SCALAR
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> u8 {
    LEVEL_SCALAR
}

/// The instruction set [`SimdMode::Auto`] resolves to on this machine:
/// `"avx2"`, `"sse4.1"`, or `"scalar"`. Observability only (bench
/// snapshots record it); never changes a result.
pub fn active_kernel() -> &'static str {
    match level() {
        LEVEL_AVX2 => "avx2",
        LEVEL_SSE41 => "sse4.1",
        _ => "scalar",
    }
}

// ---------------------------------------------------------------------
// f32: one measurement's `a -= frac(t - m)²` over an accumulator tile.
// ---------------------------------------------------------------------

/// Subtracts `frac_dist_to_integer_f32(column[c] − measured)²` from
/// `acc[c]` for every cell of the tile — one measurement's contribution
/// to an f32 accumulator tile, the inner sweep of the engine's f32
/// kernel. Bit-identical for every [`SimdMode`] and vector width.
///
/// # Panics
/// Panics if `acc` and `column` lengths differ.
pub fn sweep_f32(acc: &mut [f32], column: &[f32], measured: f32, mode: SimdMode) {
    assert_eq!(acc.len(), column.len(), "tile and column must be the same length");
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Auto {
        match level() {
            // SAFETY: the matching CPUID feature was detected at runtime.
            LEVEL_AVX2 => return unsafe { x86::sweep_f32_avx2(acc, column, measured) },
            LEVEL_SSE41 => return unsafe { x86::sweep_f32_sse41(acc, column, measured) },
            _ => {}
        }
    }
    let _ = mode;
    sweep_f32_scalar(acc, column, measured);
}

/// The scalar f32 sweep: exactly the per-cell float sequence of
/// `VoteEngine`'s reference accumulation (`f = |d − nearest_int(d)|`,
/// `a -= f·f`; squaring makes the `abs` a no-op bitwise, so it is
/// omitted).
fn sweep_f32_scalar(acc: &mut [f32], column: &[f32], measured: f32) {
    for (a, &turns) in acc.iter_mut().zip(column) {
        let d = turns - measured;
        let r = (d + MAGIC) - MAGIC;
        let f = d - r;
        *a -= f * f;
    }
}

// ---------------------------------------------------------------------
// i16: one measurement's `a -= (wrap(q − qm) as f32)²` over an f32 tile.
// ---------------------------------------------------------------------

/// Subtracts `(column[c].wrapping_sub(measured) as f32)²` from `acc[c]`
/// for every cell — one measurement's contribution to an i16-quantized
/// accumulator tile, in **quanta²** (the engine scales by `2⁻³²` at
/// write-out). The wrapping subtract *is* the mod-1 turn reduction (the
/// table stores fractional turns as two's-complement fixed point), the
/// `i16 → f32` conversion is exact (`|d| ≤ 2¹⁵ < 2²⁴`), and the
/// square-and-subtract is one *fused* `a − d·d` — a single rounding per
/// term, the only rounding in the whole sweep, which the engine's
/// derived vote-error bound accounts for. Accumulating in f32 instead
/// of a widened integer keeps the inner loop under a dozen instructions
/// per 16 cells and the accumulator at 4 bytes per cell — the whole
/// point of the narrow table.
///
/// The SSE4.1 tier has no fused multiply-add, so on pre-AVX2 hardware
/// this sweep runs the scalar kernel (whose [`f32::mul_add`] honors the
/// same single-rounding contract through libm).
///
/// # Panics
/// Panics if `acc` and `column` lengths differ.
pub fn sweep_i16(acc: &mut [f32], column: &[i16], measured: i16, mode: SimdMode) {
    assert_eq!(acc.len(), column.len(), "tile and column must be the same length");
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Auto && level() == LEVEL_AVX2 {
        // SAFETY: avx2 + fma were detected at runtime.
        return unsafe { x86::sweep_i16_avx2(acc, column, measured) };
    }
    let _ = mode;
    sweep_i16_scalar(acc, column, measured);
}

fn sweep_i16_scalar(acc: &mut [f32], column: &[i16], measured: i16) {
    for (a, &q) in acc.iter_mut().zip(column) {
        // Exact: |d| ≤ 2¹⁵ < 2²⁴, so the conversion never rounds.
        let d = i32::from(q.wrapping_sub(measured)) as f32;
        // Fused a − d·d: bit-identical to the AVX2 kernel's vfnmadd.
        *a = (-d).mul_add(d, *a);
    }
}

/// Two measurements' contributions in one pass over the tile:
/// bit-identical to calling [`sweep_i16`] with `(col_a, ma)` and then
/// `(col_b, mb)` — per cell the accumulator still receives the fused
/// `a − d²` terms in that order — but the accumulator tile is loaded
/// and stored once instead of twice, which matters in a kernel this
/// short. The engine's contiguous-run sweeps (full grids and window
/// rows) feed measurement pairs through here; its masked gather path
/// uses the scalar per-cell form and still matches bit-for-bit.
///
/// # Panics
/// Panics if the three slice lengths differ.
pub fn sweep_i16_dual(
    acc: &mut [f32],
    col_a: &[i16],
    ma: i16,
    col_b: &[i16],
    mb: i16,
    mode: SimdMode,
) {
    assert_eq!(acc.len(), col_a.len(), "tile and column must be the same length");
    assert_eq!(acc.len(), col_b.len(), "tile and column must be the same length");
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Auto && level() == LEVEL_AVX2 {
        // SAFETY: avx2 + fma were detected at runtime.
        return unsafe { x86::sweep_i16_dual_avx2(acc, col_a, ma, col_b, mb) };
    }
    let _ = mode;
    sweep_i16_dual_scalar(acc, col_a, ma, col_b, mb);
}

fn sweep_i16_dual_scalar(acc: &mut [f32], col_a: &[i16], ma: i16, col_b: &[i16], mb: i16) {
    for ((a, &qa), &qb) in acc.iter_mut().zip(col_a).zip(col_b) {
        let d1 = i32::from(qa.wrapping_sub(ma)) as f32;
        let a1 = (-d1).mul_add(d1, *a);
        let d2 = i32::from(qb.wrapping_sub(mb)) as f32;
        *a = (-d2).mul_add(d2, a1);
    }
}

// ---------------------------------------------------------------------
// i8: one measurement's `a += wrap(q − qm)²` over an i32 tile.
// ---------------------------------------------------------------------

/// Adds `(column[c].wrapping_sub(measured) as i16)²` to `acc[c]` for
/// every cell — the i8-quantized sibling of [`sweep_i16`]. Terms are at
/// most `2¹⁴`, so the i32 accumulation is exact for up to `2¹⁷`
/// measurements (the engine asserts the envelope).
///
/// # Panics
/// Panics if `acc` and `column` lengths differ.
pub fn sweep_i8(acc: &mut [i32], column: &[i8], measured: i8, mode: SimdMode) {
    assert_eq!(acc.len(), column.len(), "tile and column must be the same length");
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Auto {
        match level() {
            // SAFETY: the matching CPUID feature was detected at runtime.
            LEVEL_AVX2 => return unsafe { x86::sweep_i8_avx2(acc, column, measured) },
            LEVEL_SSE41 => return unsafe { x86::sweep_i8_sse41(acc, column, measured) },
            _ => {}
        }
    }
    let _ = mode;
    sweep_i8_scalar(acc, column, measured);
}

fn sweep_i8_scalar(acc: &mut [i32], column: &[i8], measured: i8) {
    for (a, &q) in acc.iter_mut().zip(column) {
        let d = i32::from(q.wrapping_sub(measured));
        *a += d * d;
    }
}

// ---------------------------------------------------------------------
// f64: the tracer's disc-row distances and wide-pair votes.
// ---------------------------------------------------------------------

/// Sets `out[k] = (cols[k] + row).sqrt()` for every offset of a disc row:
/// one antenna's distance from each offset, from the hoisted column term
/// `dx² + dy²` and the row term `dz²`. IEEE-754 addition and square root
/// are correctly rounded per lane, so every kernel gives the scalar bits.
///
/// # Panics
/// Panics if `out` and `cols` lengths differ.
pub fn row_distances_f64(out: &mut [f64], cols: &[f64], row: f64, mode: SimdMode) {
    assert_eq!(
        out.len(),
        cols.len(),
        "row and column terms must be the same length"
    );
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Auto && level() == LEVEL_AVX2 {
        // SAFETY: avx2 was detected at runtime.
        return unsafe { x86::row_distances_f64_avx2(out, cols, row) };
    }
    let _ = mode;
    row_distances_f64_scalar(out, cols, row);
}

fn row_distances_f64_scalar(out: &mut [f64], cols: &[f64], row: f64) {
    for (d, &col) in out.iter_mut().zip(cols) {
        *d = (col + row).sqrt();
    }
}

/// Subtracts `(factor·(di[k] − dj[k]) − turns)²` from `votes[k]` for every
/// offset: one pair's vote term over a disc row. Per lane the sequence is
/// the scalar one (`sub`, `mul`, `sub`, `mul`, `sub`, no fused
/// multiply-add), so every kernel gives the scalar bits.
///
/// # Panics
/// Panics if the three slice lengths differ.
pub fn pair_vote_f64(
    votes: &mut [f64],
    di: &[f64],
    dj: &[f64],
    factor: f64,
    turns: f64,
    mode: SimdMode,
) {
    assert_eq!(
        votes.len(),
        di.len(),
        "votes and distances must be the same length"
    );
    assert_eq!(
        votes.len(),
        dj.len(),
        "votes and distances must be the same length"
    );
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Auto && level() == LEVEL_AVX2 {
        // SAFETY: avx2 was detected at runtime.
        return unsafe { x86::pair_vote_f64_avx2(votes, di, dj, factor, turns) };
    }
    let _ = mode;
    pair_vote_f64_scalar(votes, di, dj, factor, turns);
}

fn pair_vote_f64_scalar(votes: &mut [f64], di: &[f64], dj: &[f64], factor: f64, turns: f64) {
    for ((v, &a), &b) in votes.iter_mut().zip(di).zip(dj) {
        let x = factor * (a - b) - turns;
        *v -= x * x;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernels. Every function is gated on a
    //! `#[target_feature]` the dispatcher verified via CPUID, and every
    //! pointer it dereferences lies within a caller-provided slice
    //! (`head` full vectors, then the scalar tail).

    use super::{
        pair_vote_f64_scalar, row_distances_f64_scalar, sweep_f32_scalar, sweep_i16_dual_scalar,
        sweep_i16_scalar, sweep_i8_scalar, MAGIC,
    };
    use std::arch::x86_64::*;

    /// Largest multiple of `lanes` that fits `len`.
    #[inline]
    fn head(len: usize, lanes: usize) -> usize {
        len - len % lanes
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_distances_f64_avx2(out: &mut [f64], cols: &[f64], row: f64) {
        let n = head(out.len(), 4);
        let r = _mm256_set1_pd(row);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 4 <= n <= len for both slices.
            unsafe {
                let c = _mm256_loadu_pd(cols.as_ptr().add(i));
                _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_sqrt_pd(_mm256_add_pd(c, r)));
            }
            i += 4;
        }
        row_distances_f64_scalar(&mut out[n..], &cols[n..], row);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pair_vote_f64_avx2(
        votes: &mut [f64],
        di: &[f64],
        dj: &[f64],
        factor: f64,
        turns: f64,
    ) {
        let n = head(votes.len(), 4);
        let f = _mm256_set1_pd(factor);
        let t = _mm256_set1_pd(turns);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 4 <= n <= len for all three slices.
            unsafe {
                let a = _mm256_loadu_pd(di.as_ptr().add(i));
                let b = _mm256_loadu_pd(dj.as_ptr().add(i));
                let x = _mm256_sub_pd(_mm256_mul_pd(f, _mm256_sub_pd(a, b)), t);
                let v = _mm256_loadu_pd(votes.as_ptr().add(i));
                _mm256_storeu_pd(
                    votes.as_mut_ptr().add(i),
                    _mm256_sub_pd(v, _mm256_mul_pd(x, x)),
                );
            }
            i += 4;
        }
        pair_vote_f64_scalar(&mut votes[n..], &di[n..], &dj[n..], factor, turns);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_f32_avx2(acc: &mut [f32], column: &[f32], measured: f32) {
        let n = head(acc.len(), 8);
        let m = _mm256_set1_ps(measured);
        let magic = _mm256_set1_ps(MAGIC);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 8 <= n <= len for both slices.
            unsafe {
                let t = _mm256_loadu_ps(column.as_ptr().add(i));
                let d = _mm256_sub_ps(t, m);
                let r = _mm256_sub_ps(_mm256_add_ps(d, magic), magic);
                let f = _mm256_sub_ps(d, r);
                let a = _mm256_loadu_ps(acc.as_ptr().add(i));
                let a = _mm256_sub_ps(a, _mm256_mul_ps(f, f));
                _mm256_storeu_ps(acc.as_mut_ptr().add(i), a);
            }
            i += 8;
        }
        sweep_f32_scalar(&mut acc[n..], &column[n..], measured);
    }

    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn sweep_f32_sse41(acc: &mut [f32], column: &[f32], measured: f32) {
        let n = head(acc.len(), 4);
        let m = _mm_set1_ps(measured);
        let magic = _mm_set1_ps(MAGIC);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 4 <= n <= len for both slices.
            unsafe {
                let t = _mm_loadu_ps(column.as_ptr().add(i));
                let d = _mm_sub_ps(t, m);
                let r = _mm_sub_ps(_mm_add_ps(d, magic), magic);
                let f = _mm_sub_ps(d, r);
                let a = _mm_loadu_ps(acc.as_ptr().add(i));
                let a = _mm_sub_ps(a, _mm_mul_ps(f, f));
                _mm_storeu_ps(acc.as_mut_ptr().add(i), a);
            }
            i += 4;
        }
        sweep_f32_scalar(&mut acc[n..], &column[n..], measured);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sweep_i16_avx2(acc: &mut [f32], column: &[i16], measured: i16) {
        let n = head(acc.len(), 16);
        let m = _mm256_set1_epi16(measured);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 16 <= n <= len for both slices; the accumulator
            // loads/stores cover acc[i..i+16] as two 8×f32 vectors.
            unsafe {
                let q = _mm256_loadu_si256(column.as_ptr().add(i).cast());
                let d = _mm256_sub_epi16(q, m); // wrapping: the mod-1 fold
                // i16 → i32 → f32 is exact for every lane (|d| ≤ 2¹⁵).
                let lo = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_castsi256_si128(d)));
                let hi = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_extracti128_si256(d, 1)));
                let base = acc.as_mut_ptr().add(i);
                let a0 = _mm256_loadu_ps(base);
                let a1 = _mm256_loadu_ps(base.add(8));
                // Fused −(d·d) + a: the scalar kernel's mul_add rounding.
                _mm256_storeu_ps(base, _mm256_fnmadd_ps(lo, lo, a0));
                _mm256_storeu_ps(base.add(8), _mm256_fnmadd_ps(hi, hi, a1));
            }
            i += 16;
        }
        sweep_i16_scalar(&mut acc[n..], &column[n..], measured);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sweep_i16_dual_avx2(
        acc: &mut [f32],
        col_a: &[i16],
        ma: i16,
        col_b: &[i16],
        mb: i16,
    ) {
        let n = head(acc.len(), 16);
        let va = _mm256_set1_epi16(ma);
        let vb = _mm256_set1_epi16(mb);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 16 <= n <= len for all three slices.
            unsafe {
                let da = _mm256_sub_epi16(_mm256_loadu_si256(col_a.as_ptr().add(i).cast()), va);
                let db = _mm256_sub_epi16(_mm256_loadu_si256(col_b.as_ptr().add(i).cast()), vb);
                let lo_a = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_castsi256_si128(da)));
                let hi_a =
                    _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_extracti128_si256(da, 1)));
                let lo_b = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_castsi256_si128(db)));
                let hi_b =
                    _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_extracti128_si256(db, 1)));
                let base = acc.as_mut_ptr().add(i);
                // Measurement a's fused term lands before measurement
                // b's in each lane — the single-sweep order.
                let a0 = _mm256_fnmadd_ps(lo_a, lo_a, _mm256_loadu_ps(base));
                _mm256_storeu_ps(base, _mm256_fnmadd_ps(lo_b, lo_b, a0));
                let a1 = _mm256_fnmadd_ps(hi_a, hi_a, _mm256_loadu_ps(base.add(8)));
                _mm256_storeu_ps(base.add(8), _mm256_fnmadd_ps(hi_b, hi_b, a1));
            }
            i += 16;
        }
        sweep_i16_dual_scalar(&mut acc[n..], &col_a[n..], ma, &col_b[n..], mb);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_i8_avx2(acc: &mut [i32], column: &[i8], measured: i8) {
        let n = head(acc.len(), 16);
        let m = _mm_set1_epi8(measured);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 16 <= n <= len for both slices.
            unsafe {
                let q = _mm_loadu_si128(column.as_ptr().add(i).cast());
                let d = _mm_sub_epi8(q, m); // wrapping: the mod-1 fold
                let d16 = _mm256_cvtepi8_epi16(d);
                // d² ≤ 2¹⁴ fits i16 exactly (including d = −128).
                let sq = _mm256_mullo_epi16(d16, d16);
                let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(sq));
                let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(sq, 1));
                let base = acc.as_mut_ptr().add(i);
                let a0 = _mm256_loadu_si256(base.cast());
                let a1 = _mm256_loadu_si256(base.add(8).cast());
                _mm256_storeu_si256(base.cast(), _mm256_add_epi32(a0, lo));
                _mm256_storeu_si256(base.add(8).cast(), _mm256_add_epi32(a1, hi));
            }
            i += 16;
        }
        sweep_i8_scalar(&mut acc[n..], &column[n..], measured);
    }

    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn sweep_i8_sse41(acc: &mut [i32], column: &[i8], measured: i8) {
        let n = head(acc.len(), 8);
        let m = _mm_set1_epi8(measured);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 8 <= n <= len for both slices; the 64-bit load
            // reads exactly column[i..i+8].
            unsafe {
                let q = _mm_loadl_epi64(column.as_ptr().add(i).cast());
                let d = _mm_sub_epi8(q, m);
                let d16 = _mm_cvtepi8_epi16(d);
                let sq = _mm_mullo_epi16(d16, d16);
                let lo = _mm_cvtepi16_epi32(sq);
                let hi = _mm_cvtepi16_epi32(_mm_srli_si128(sq, 8));
                let base = acc.as_mut_ptr().add(i);
                let a0 = _mm_loadu_si128(base.cast());
                let a1 = _mm_loadu_si128(base.add(4).cast());
                _mm_storeu_si128(base.cast(), _mm_add_epi32(a0, lo));
                _mm_storeu_si128(base.add(4).cast(), _mm_add_epi32(a1, hi));
            }
            i += 8;
        }
        sweep_i8_scalar(&mut acc[n..], &column[n..], measured);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random u64 stream (xorshift).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn f32_turns(&mut self) -> f32 {
            // Turns in roughly ±40 — the physical envelope of the tables.
            (self.next() % 80_000) as f32 / 1000.0 - 40.0
        }
    }

    /// Every tile length from empty through several vectors plus a tail,
    /// so each kernel's head loop and scalar tail are both exercised.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..40).chain([63, 64, 100, 1000])
    }

    #[test]
    fn f64_row_kernels_auto_match_scalar_bitwise() {
        let mut rng = Rng(0xd15c);
        let metres = |rng: &mut Rng| (rng.next() % 4_000_000) as f64 / 1e6;
        for len in lengths() {
            let cols: Vec<f64> = (0..len).map(|_| metres(&mut rng)).collect();
            let row = metres(&mut rng);
            let (mut auto, mut scalar) = (vec![0.0; len], vec![0.0; len]);
            row_distances_f64(&mut auto, &cols, row, SimdMode::Auto);
            row_distances_f64(&mut scalar, &cols, row, SimdMode::Scalar);
            assert_eq!(bits64(&auto), bits64(&scalar), "distances, len {len}");

            let dj: Vec<f64> = (0..len).map(|_| metres(&mut rng)).collect();
            let (factor, turns) = (metres(&mut rng) * 20.0, metres(&mut rng) * 5.0);
            let start: Vec<f64> = (0..len).map(|i| -(i as f64) * 0.375).collect();
            let (mut auto_v, mut scalar_v) = (start.clone(), start);
            pair_vote_f64(&mut auto_v, &auto, &dj, factor, turns, SimdMode::Auto);
            pair_vote_f64(&mut scalar_v, &scalar, &dj, factor, turns, SimdMode::Scalar);
            assert_eq!(bits64(&auto_v), bits64(&scalar_v), "votes, len {len}");
        }
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn f32_auto_matches_scalar_bitwise() {
        let mut rng = Rng(0x5eed);
        for len in lengths() {
            let column: Vec<f32> = (0..len).map(|_| rng.f32_turns()).collect();
            let measured = rng.f32_turns();
            let mut auto: Vec<f32> = (0..len).map(|i| -(i as f32) * 0.125).collect();
            let mut scalar = auto.clone();
            sweep_f32(&mut auto, &column, measured, SimdMode::Auto);
            sweep_f32(&mut scalar, &column, measured, SimdMode::Scalar);
            let a: Vec<u32> = auto.iter().map(|v| v.to_bits()).collect();
            let s: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, s, "len {len} (kernel {})", active_kernel());
        }
    }

    #[test]
    fn i16_auto_matches_scalar_bitwise() {
        let mut rng = Rng(0xbeef);
        for len in lengths() {
            let column: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let measured = rng.next() as i16;
            let mut auto: Vec<f32> = (0..len).map(|i| -(i as f32) * 1000.5).collect();
            let mut scalar = auto.clone();
            sweep_i16(&mut auto, &column, measured, SimdMode::Auto);
            sweep_i16(&mut scalar, &column, measured, SimdMode::Scalar);
            let a: Vec<u32> = auto.iter().map(|v| v.to_bits()).collect();
            let s: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, s, "len {len} (kernel {})", active_kernel());
        }
    }

    #[test]
    fn i16_dual_matches_two_single_sweeps_bitwise() {
        let mut rng = Rng(0xd0a1);
        for len in lengths() {
            let col_a: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let col_b: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let (ma, mb) = (rng.next() as i16, rng.next() as i16);
            let init: Vec<f32> = (0..len).map(|i| -(i as f32) * 17.25).collect();
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let mut dual = init.clone();
                sweep_i16_dual(&mut dual, &col_a, ma, &col_b, mb, mode);
                let mut singles = init.clone();
                sweep_i16(&mut singles, &col_a, ma, mode);
                sweep_i16(&mut singles, &col_b, mb, mode);
                let d: Vec<u32> = dual.iter().map(|v| v.to_bits()).collect();
                let s: Vec<u32> = singles.iter().map(|v| v.to_bits()).collect();
                assert_eq!(d, s, "len {len} {mode:?} (kernel {})", active_kernel());
            }
        }
    }

    #[test]
    fn i8_auto_matches_scalar_exactly() {
        let mut rng = Rng(0xcafe);
        for len in lengths() {
            let column: Vec<i8> = (0..len).map(|_| rng.next() as i8).collect();
            let measured = rng.next() as i8;
            let mut auto: Vec<i32> = (0..len).map(|i| i as i32 * 3).collect();
            let mut scalar = auto.clone();
            sweep_i8(&mut auto, &column, measured, SimdMode::Auto);
            sweep_i8(&mut scalar, &column, measured, SimdMode::Scalar);
            assert_eq!(auto, scalar, "len {len}");
        }
    }

    #[test]
    fn extreme_quanta_square_without_overflow() {
        // d = −32768 (exactly −0.5 turns) squares to 2³⁰ — exact in f32,
        // a power of two; d = −128 in the i8 path squares to 2¹⁴ — the
        // overflow edge of the widened integer arithmetic. Both hit
        // through both kernels.
        let column16 = vec![i16::MIN; 33];
        let mut auto16 = vec![0f32; 33];
        let mut scalar16 = vec![0f32; 33];
        sweep_i16(&mut auto16, &column16, 0, SimdMode::Auto);
        sweep_i16(&mut scalar16, &column16, 0, SimdMode::Scalar);
        assert_eq!(
            auto16.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar16.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(auto16.iter().all(|&a| a == -((1u32 << 30) as f32)));

        let column8 = vec![i8::MIN; 33];
        let mut auto8 = vec![0i32; 33];
        let mut scalar8 = vec![0i32; 33];
        sweep_i8(&mut auto8, &column8, 0, SimdMode::Auto);
        sweep_i8(&mut scalar8, &column8, 0, SimdMode::Scalar);
        assert_eq!(auto8, scalar8);
        assert!(auto8.iter().all(|&a| a == 1 << 14));
    }

    #[test]
    fn wrapping_subtract_is_the_mod_one_fold() {
        // +0.4375 turns measured against −0.5 turns stored: the true
        // fractional difference is −0.9375, which folds mod 1 to +0.0625
        // turns = 4096 quanta at 2¹⁶/turn. The wrapping subtract lands
        // there directly, and 4096² is exact in f32.
        let stored = i16::MIN; // −0.5 turns
        let measured = 28_672i16; // +0.4375 turns
        let mut acc = vec![0f32; 1];
        sweep_i16(&mut acc, &[stored], measured, SimdMode::Scalar);
        assert_eq!(acc[0], -(4096.0f32 * 4096.0));
    }

    #[test]
    fn active_kernel_is_stable_and_named() {
        let first = active_kernel();
        assert!(["avx2", "sse4.1", "scalar"].contains(&first));
        assert_eq!(first, active_kernel());
    }
}
