//! The parallel, cache-aware vote-map engine.
//!
//! [`crate::grid::VoteMap::evaluate`] recomputes every pair's
//! distance-difference for every lattice point on every call. That is fine
//! for a one-shot map, but the multi-resolution positioner evaluates the
//! *same grids* on every `locate()` call, and the distance differences
//! depend only on (deployment, plane, grid) — not on the measurements.
//! [`VoteEngine`] therefore precomputes, once per grid, a table of per-pair
//! distance differences expressed in turns (`path_factor · Δd / λ`, the
//! quantity whose grating-lobe structure Eq. 7 scores), and evaluates
//! measurement sets against that table. Repeated evaluations then cost one
//! nearest-lobe fold per (cell, measurement) instead of two 3-D distances
//! plus the fold.
//!
//! The table is stored **pair-major** (column-contiguous): each pair owns a
//! contiguous slab of `grid.len()` entries, `table[k · n_cells + c]`.
//! Evaluation inverts the loop nest to measurement-outer / cell-inner, so
//! each measurement streams its pair's contiguous column with no
//! per-element indirection. Each cell's accumulator still receives its
//! `-f²` terms in measurement order, which at f64 is exactly the per-cell
//! floating-point sequence of the reference
//! [`crate::grid::VoteMap::evaluate`] path, so the result is
//! **bit-identical** to the reference — and bit-identical for every thread
//! count, since shards write disjoint cell ranges and never combine sums.
//!
//! ## One kernel, three drivers
//!
//! Every [`TablePrecision`] is the same computation with different
//! arithmetic, so the engine writes the vote sum once. A private kernel
//! trait, implemented once per table entry type (`f64`, `f32`, `i16`,
//! `i8`), supplies the arithmetic: the table entry for exact turns (used
//! by the table builder and by the on-the-fly masked path alike, so the
//! two can never disagree), the accumulator type, the contiguous-run
//! sweep, the scalar per-cell term, and the exact write-out to `f64`.
//! Three generic drivers supply the loop structure:
//!
//! * the **cell-range** driver sweeps contiguous runs of cells in
//!   [`CELL_TILE`]-cell accumulator tiles. A full map is one whole-grid
//!   run sharded by [`Parallelism`]; a window is one serial run per row
//!   (windows are small, so the saving is O(window) work, not sharding);
//! * the **masked gather** driver compacts the kept cells once and
//!   gathers their entries from the built table's pair columns;
//! * the **masked on-the-fly** driver computes the kept cells' entries
//!   from the geometry when the table is not built yet (the stage-1
//!   filter typically keeps < 10% of the fine grid, so eagerly building
//!   the full fine table would cost more than a one-shot masked
//!   evaluation saves).
//!
//! All three run each cell's terms through the same per-cell operation
//! sequence in measurement order, and neither tile nor shard boundaries
//! reorder a cell's terms, so for every precision the full map, any
//! window of it, and both masked paths agree bit-for-bit on the cells
//! they compute, under every [`Parallelism`] setting and [`SimdMode`].
//!
//! ## Table precision
//!
//! `F64` is the reference: bit-identical to [`VoteMap::evaluate`], used by
//! every accuracy-critical path. `F32` halves the bytes streamed per sweep
//! (the kernel is memory-bound on the 1 cm grid) and doubles the SIMD lane
//! count; its per-cell accumulation runs entirely in `f32` (table entry,
//! measured turns, `-f²` terms, partial sums) and widens to `f64` only at
//! write-out — an exact conversion.
//!
//! `I16` and `I8` store each entry's *fractional* turns as two's-complement
//! fixed point at the full type width (2¹⁶ or 2⁸ quanta per turn):
//! integer turns wrap away at quantization, and the kernel's wrapping
//! subtraction `q_t − q_m` *is* the modulo-1-turn fold — no rounding, no
//! libm, no lobe search. The full width is the unique scale at which the
//! wrap performs the fold (any narrower scale would alias lobes), so the
//! scale is the entry type's bit width rather than a tunable. The
//! difference squares and accumulates per-lane in a fixed order: `I8` in
//! plain i32 (exact and associative), `I16` in f32 — the widened
//! difference fits 16 bits, so `d as f32` is exact, and squaring an
//! i16-range value into an f32 accumulator costs one bounded rounding per
//! term instead of the i64 widening chain whose extra ops and 8-byte
//! accumulator traffic erased the bandwidth win over f32. The finished
//! accumulator widens to f64 and scales by the exact power of two `2⁻²ᴮ`
//! at write-out.
//!
//! Measured turns are rounded exactly as table entries are (the kernel
//! subtracts one from the other, so they share a representation). What a
//! reduced precision costs is a *derived*, per-measurement-set vote-error
//! bound ([`VoteEngine::vote_error_bound`], DESIGN.md §11 and §15), with an
//! argmax-identity theorem: the argmax cell provably matches the f64
//! reference whenever the f64 best/runner-up gap exceeds twice the bound.
//!
//! The contiguous-run sweeps of the f32 and quantized kernels run through
//! [`rfidraw_simd`]: explicit AVX2/SSE4.1 kernels selected at runtime,
//! each bit-identical to its scalar form (see that crate's docs for the
//! argument), so the wide path does not depend on the autovectorizer's
//! mood on the baseline target. [`VoteEngine::set_simd_mode`] can pin the
//! scalar kernel; results never change, only wall-clock.
//!
//! The engine holds one lazily built table slot per precision in a
//! [`TableSlots`]; the slots are `Arc`s so engines over the same
//! (deployment, plane, grid) can share physical tables — see
//! [`crate::cache::TableCache`].

use crate::array::{AntennaPair, Deployment};
use crate::exec::Parallelism;
use crate::geom::{Plane, Point3};
use crate::grid::{Grid2, GridWindow, VoteMap};
use crate::obs::{self, SharedSink, Stage};
use crate::phase::{
    frac_dist_to_integer, frac_dist_to_integer_f32, quantize_turns_i16, quantize_turns_i8,
};
use crate::vote::PairMeasurement;
use rfidraw_simd::SimdMode;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Cells per accumulator tile: 4096 × 4 B = 16 KiB of f32/i32
/// accumulators (32 KiB at f64), comfortably inside L1 alongside the
/// streamed column slices. Tiling never changes a result — each cell's
/// terms still arrive in measurement order — so the value is pure tuning.
const CELL_TILE: usize = 4096;

/// Runs `$body` with the type alias `$k` bound to the kernel (table entry
/// type) of precision `$p` — the one place a [`TablePrecision`] turns into
/// a type.
macro_rules! with_kernel {
    ($p:expr, $k:ident => $body:expr) => {
        match $p {
            TablePrecision::F64 => {
                type $k = f64;
                $body
            }
            TablePrecision::F32 => {
                type $k = f32;
                $body
            }
            TablePrecision::I16 => {
                type $k = i16;
                $body
            }
            TablePrecision::I8 => {
                type $k = i8;
                $body
            }
        }
    };
}

/// Which numeric representation backs an engine's distance-difference
/// table.
///
/// `F64` is the bit-exact reference; `F32` halves table bytes and memory
/// bandwidth; `I16` and `I8` quantize the fractional turns to fixed point
/// for 4× / 8× compression over f64 with exact integer arithmetic up to
/// the accumulator (see the module docs). Every reduced precision has a
/// derived vote-error bound ([`VoteEngine::vote_error_bound`]). The
/// precision is part of the engine configuration, not the cache key: a
/// [`crate::cache::TableCache`] entry carries one slot per precision, so
/// mixed fleets share geometry without duplicating keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TablePrecision {
    /// Double-precision tables — bit-identical to [`VoteMap::evaluate`].
    F64,
    /// Single-precision tables — half the bytes, bounded vote error.
    F32,
    /// 16-bit fixed-point tables (2¹⁶ quanta per turn) — a quarter of the
    /// f64 bytes, exact integer accumulation, bound of one `2⁻¹⁶`-turn
    /// quantum per measurement.
    I16,
    /// 8-bit fixed-point tables (2⁸ quanta per turn) — an eighth of the
    /// f64 bytes; the coarse end of the precision ladder, still with a
    /// derived bound (`2⁻⁸` turns per measurement).
    I8,
}

impl Default for TablePrecision {
    fn default() -> Self {
        TablePrecision::F64
    }
}

impl TablePrecision {
    /// Every precision, in byte-cost order. Telemetry and the cache walk
    /// this to break accounting out per precision.
    pub const ALL: [TablePrecision; 4] =
        [TablePrecision::F64, TablePrecision::F32, TablePrecision::I16, TablePrecision::I8];

    /// Bytes per table entry at this precision.
    pub fn entry_bytes(self) -> u64 {
        with_kernel!(self, K => std::mem::size_of::<K>() as u64)
    }

    /// The lower-case label telemetry uses for this precision (the
    /// `precision="…"` value on per-precision Prometheus series).
    pub fn label(self) -> &'static str {
        match self {
            TablePrecision::F64 => "f64",
            TablePrecision::F32 => "f32",
            TablePrecision::I16 => "i16",
            TablePrecision::I8 => "i8",
        }
    }

    /// Dense index into per-precision arrays (cache slots, byte
    /// breakdowns), in [`TablePrecision::ALL`] order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// One lazily built, shareable table.
type Slot<T> = Arc<OnceLock<Vec<T>>>;

/// One table slot per [`TablePrecision`]: what a [`VoteEngine`] builds
/// into and what a [`crate::cache::TableCache`] entry shares. Cloning
/// shares the slots (it clones the `Arc`s); a default value is four
/// fresh private slots.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableSlots {
    f64: Slot<f64>,
    f32: Slot<f32>,
    i16: Slot<i16>,
    i8: Slot<i8>,
}

impl TableSlots {
    /// The bytes of `precision`'s table if it has been built.
    pub(crate) fn built_bytes(&self, precision: TablePrecision) -> Option<u64> {
        with_kernel!(precision, K => K::slot(self)
            .get()
            .map(|table| (table.len() * std::mem::size_of::<K>()) as u64))
    }

    /// Replaces `precision`'s slot with a fresh one. Holders of the old
    /// slot keep its table alive through their own `Arc`s.
    pub(crate) fn reset(&mut self, precision: TablePrecision) {
        match precision {
            TablePrecision::F64 => self.f64 = Slot::default(),
            TablePrecision::F32 => self.f32 = Slot::default(),
            TablePrecision::I16 => self.i16 = Slot::default(),
            TablePrecision::I8 => self.i8 = Slot::default(),
        }
    }
}

/// The arithmetic of one table precision, implemented on its table entry
/// type. Crate-private, so sealed: the four impls below are all there
/// are, and the engine's drivers are the only callers.
pub(crate) trait Kernel: Copy + Default + Send + Sync + 'static {
    /// The per-cell accumulator.
    type Acc: Copy + Default + Send + Sync;

    /// Measurement sets larger than this would leave the accumulator's
    /// exactness envelope (see the derived bounds); evaluation asserts it.
    const MAX_MEASUREMENTS: usize = usize::MAX;

    /// This precision's slot.
    fn slot(slots: &TableSlots) -> &Slot<Self>;

    /// The table entry for exact turns `turns`. Also rounds measured turns
    /// and builds entries on the fly for the masked path, so a table entry
    /// and its on-the-fly twin are always the same bits.
    fn entry(turns: f64) -> Self;

    /// One cell's term: folds `entry − measured` to the nearest lobe and
    /// subtracts its square from `acc` (adds, for the i8 integer sum).
    fn term(acc: &mut Self::Acc, entry: Self, measured: Self);

    /// One measurement's terms over a contiguous run of cells. The default
    /// is the plain loop over [`Kernel::term`]; the reduced precisions
    /// dispatch to their bit-identical [`rfidraw_simd`] sweeps.
    fn sweep(acc: &mut [Self::Acc], column: &[Self], measured: Self, _simd: SimdMode) {
        for (a, &entry) in acc.iter_mut().zip(column) {
            Self::term(a, entry, measured);
        }
    }

    /// Every measurement's terms over the run of `acc.len()` cells that
    /// starts at cell `first`, in measurement order.
    fn sweep_all(
        acc: &mut [Self::Acc],
        table: &[Self],
        n_cells: usize,
        first: usize,
        cols: &[(usize, Self)],
        simd: SimdMode,
    ) {
        for &(col, measured) in cols {
            Self::sweep(acc, run(table, n_cells, col, first, acc.len()), measured, simd);
        }
    }

    /// The finished accumulator as a vote, exactly.
    fn vote(acc: Self::Acc) -> f64;
}

/// The `len` entries of pair column `col` starting at cell `first`.
fn run<T>(table: &[T], n_cells: usize, col: usize, first: usize, len: usize) -> &[T] {
    let start = col * n_cells + first;
    &table[start..start + len]
}

/// The exact write-out factor of a `bits`-wide fixed-point sum: `2⁻²ᴮ`,
/// mapping an integer sum of squared quanta back to squared turns. A power
/// of two, so the f64 multiply at write-out is exact.
fn quantum_sq(bits: u32) -> f64 {
    let per_turn = (1u64 << bits) as f64;
    (per_turn * per_turn).recip()
}

/// The reference arithmetic: exact turns, `frac_dist_to_integer`, f64
/// accumulation — the per-cell sequence of [`VoteMap::evaluate`].
impl Kernel for f64 {
    type Acc = f64;

    fn slot(slots: &TableSlots) -> &Slot<Self> {
        &slots.f64
    }

    fn entry(turns: f64) -> Self {
        turns
    }

    #[inline]
    fn term(acc: &mut f64, entry: f64, measured: f64) {
        let f = frac_dist_to_integer(entry - measured);
        *acc -= f * f;
    }

    fn vote(acc: f64) -> f64 {
        acc
    }
}

/// Single precision: each entry the correctly-rounded `f32` of the f64
/// entry (`as f32` rounds to nearest, ties to even), accumulation in f32,
/// an exact widening at write-out.
impl Kernel for f32 {
    type Acc = f32;

    fn slot(slots: &TableSlots) -> &Slot<Self> {
        &slots.f32
    }

    fn entry(turns: f64) -> Self {
        turns as f32
    }

    #[inline]
    fn term(acc: &mut f32, entry: f32, measured: f32) {
        let f = frac_dist_to_integer_f32(entry - measured);
        *acc -= f * f;
    }

    fn sweep(acc: &mut [f32], column: &[f32], measured: f32, simd: SimdMode) {
        rfidraw_simd::sweep_f32(acc, column, measured, simd);
    }

    fn vote(acc: f32) -> f64 {
        f64::from(acc)
    }
}

/// 16-bit fixed point: a wrapping subtract (the free mod-1-turn fold), an
/// exact widening to f32 (|d| ≤ 2¹⁵ < 2²⁴), and one fused `a − d·d` per
/// term — the sweep's only rounding.
impl Kernel for i16 {
    type Acc = f32;

    /// The error bound's accumulation series is quadratic in `n`, so 2²²
    /// is a generous sanity ceiling, not a tight limit.
    const MAX_MEASUREMENTS: usize = (1 << 22) - 1;

    fn slot(slots: &TableSlots) -> &Slot<Self> {
        &slots.i16
    }

    fn entry(turns: f64) -> Self {
        quantize_turns_i16(turns)
    }

    #[inline]
    fn term(acc: &mut f32, entry: i16, measured: i16) {
        let d = i32::from(entry.wrapping_sub(measured)) as f32;
        *acc = (-d).mul_add(d, *acc);
    }

    fn sweep(acc: &mut [f32], column: &[i16], measured: i16, simd: SimdMode) {
        rfidraw_simd::sweep_i16(acc, column, measured, simd);
    }

    /// Feeds measurements through [`rfidraw_simd::sweep_i16_dual`] in
    /// pairs (one accumulator pass per two columns), which is
    /// bit-identical to single sweeps by construction.
    fn sweep_all(
        acc: &mut [f32],
        table: &[i16],
        n_cells: usize,
        first: usize,
        cols: &[(usize, i16)],
        simd: SimdMode,
    ) {
        let len = acc.len();
        let mut pairs = cols.chunks_exact(2);
        for pair in &mut pairs {
            let ((col_a, q_a), (col_b, q_b)) = (pair[0], pair[1]);
            let a = run(table, n_cells, col_a, first, len);
            let b = run(table, n_cells, col_b, first, len);
            rfidraw_simd::sweep_i16_dual(acc, a, q_a, b, q_b, simd);
        }
        for &(col, q_m) in pairs.remainder() {
            Self::sweep(acc, run(table, n_cells, col, first, len), q_m, simd);
        }
    }

    fn vote(acc: f32) -> f64 {
        f64::from(acc) * quantum_sq(i16::BITS)
    }
}

/// 8-bit fixed point: the i16 structure with exact i32 accumulation
/// (terms ≤ 2¹⁴), negated at write-out.
impl Kernel for i8 {
    type Acc = i32;

    /// Terms are at most 2¹⁴, so ≤ 2¹⁶ measurements keep every sum below
    /// 2³⁰.
    const MAX_MEASUREMENTS: usize = 1 << 16;

    fn slot(slots: &TableSlots) -> &Slot<Self> {
        &slots.i8
    }

    fn entry(turns: f64) -> Self {
        quantize_turns_i8(turns)
    }

    #[inline]
    fn term(acc: &mut i32, entry: i8, measured: i8) {
        let d = i32::from(entry.wrapping_sub(measured));
        *acc += d * d;
    }

    fn sweep(acc: &mut [i32], column: &[i8], measured: i8, simd: SimdMode) {
        rfidraw_simd::sweep_i8(acc, column, measured, simd);
    }

    fn vote(acc: i32) -> f64 {
        -f64::from(acc) * quantum_sq(i8::BITS)
    }
}

/// A reusable vote-map evaluator for one (deployment, plane, grid) triple.
#[derive(Debug, Clone)]
pub struct VoteEngine {
    grid: Grid2,
    plane: Plane,
    pairs: Vec<AntennaPair>,
    /// Pair → table-column index (the inverse of `pairs`), built once at
    /// construction so measurement lookup is O(1) per measurement instead
    /// of a linear scan over the pair set.
    col_of: HashMap<AntennaPair, usize>,
    /// Antenna positions per pair, aligned with `pairs`.
    geom: Vec<(Point3, Point3)>,
    /// `path_factor / λ`: distance difference (m) → turns.
    turns_factor: f64,
    parallelism: Parallelism,
    /// The pair-major tables, one lazily built slot per precision:
    /// `table[k * grid.len() + c]` is the entry for
    /// `turns_factor · (|P_c − pos_i_k| − |P_c − pos_j_k|)`. A fresh engine
    /// starts with private slots; a [`crate::cache::TableCache`] may swap
    /// in shared ones. Only the active precision's slot is ever built
    /// through this engine.
    slots: TableSlots,
    /// Which table `evaluate*` uses. `F64` unless configured otherwise.
    precision: TablePrecision,
    /// Which accumulation kernels the f32/quantized sweeps may use.
    /// Results are bit-identical either way; `Auto` unless pinned.
    simd: SimdMode,
    sink: Option<SharedSink>,
    session: u64,
}

impl VoteEngine {
    /// Creates an engine scoring the given pairs on `grid`.
    ///
    /// # Panics
    /// Panics if a pair references an antenna the deployment does not have.
    pub fn new(
        dep: &Deployment,
        plane: Plane,
        grid: Grid2,
        pairs: Vec<AntennaPair>,
        parallelism: Parallelism,
    ) -> Self {
        let geom = pairs
            .iter()
            .map(|&pair| {
                let pi = dep
                    .antenna(pair.i)
                    .unwrap_or_else(|| panic!("unknown antenna {:?}", pair.i))
                    .pos;
                let pj = dep
                    .antenna(pair.j)
                    .unwrap_or_else(|| panic!("unknown antenna {:?}", pair.j))
                    .pos;
                (pi, pj)
            })
            .collect();
        let turns_factor = dep.path_factor() / dep.wavelength().meters();
        let col_of = pairs.iter().enumerate().map(|(k, &p)| (p, k)).collect();
        Self {
            grid,
            plane,
            pairs,
            col_of,
            geom,
            turns_factor,
            parallelism,
            slots: TableSlots::default(),
            precision: TablePrecision::default(),
            simd: SimdMode::Auto,
            sink: None,
            session: 0,
        }
    }

    /// An engine over every pair of the deployment — what the positioner
    /// uses, since any measurement subset can then be scored.
    pub fn for_deployment(
        dep: &Deployment,
        plane: Plane,
        grid: Grid2,
        parallelism: Parallelism,
    ) -> Self {
        let pairs: Vec<AntennaPair> = dep.all_pairs().copied().collect();
        Self::new(dep, plane, grid, pairs, parallelism)
    }

    /// The grid this engine evaluates on.
    pub fn grid(&self) -> &Grid2 {
        &self.grid
    }

    /// The pairs this engine can score, in table-column order.
    pub fn pairs(&self) -> &[AntennaPair] {
        &self.pairs
    }

    /// The execution policy in use.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Changes the execution policy. Never changes any result (see the
    /// module docs), only how the work is sharded.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The table precision `evaluate*` uses.
    pub fn precision(&self) -> TablePrecision {
        self.precision
    }

    /// Changes the table precision. Must be called before the engine is
    /// adopted into a [`crate::cache::TableCache`]: a cache charges its
    /// byte budget for the precision an engine declares at adoption, so
    /// switching afterwards detaches the engine onto fresh *private* slots
    /// (dropping any shared or already-built table) rather than letting it
    /// build uncharged bytes into a shared slot.
    pub fn set_precision(&mut self, precision: TablePrecision) {
        if precision != self.precision {
            self.precision = precision;
            self.slots = TableSlots::default();
        }
    }

    /// Which accumulation kernels the f32/quantized sweeps may use.
    pub fn simd_mode(&self) -> SimdMode {
        self.simd
    }

    /// Pins or unpins the explicit-SIMD kernels. Never changes any result
    /// — every wide kernel is bit-identical to its scalar form (see
    /// [`rfidraw_simd`]) — only wall-clock; benches use it to measure the
    /// explicit-SIMD margin and tests to assert the bit-identity.
    pub fn set_simd_mode(&mut self, simd: SimdMode) {
        self.simd = simd;
    }

    /// The bytes the active-precision table occupies once built (exactly
    /// `grid cells × pairs × entry size`; the table is a dense rectangle).
    /// This is also what a [`crate::cache::TableCache`] charges against
    /// its byte budget at adoption time.
    pub fn table_bytes(&self) -> u64 {
        self.grid.len() as u64 * self.pairs.len() as u64 * self.precision.entry_bytes()
    }

    /// Installs (or removes) a trace sink; evaluation spans and per-shard
    /// timings are emitted to it tagged with `session`. Observability only:
    /// never changes any computed value (see [`crate::obs`]).
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>, session: u64) {
        self.sink = sink;
        self.session = session;
    }

    /// Whether the active-precision distance-difference table has been
    /// built yet.
    pub fn is_table_built(&self) -> bool {
        self.slots.built_bytes(self.precision).is_some()
    }

    /// Builds (once) the active-precision table without evaluating
    /// anything — what pre-warm paths and benches call so steady-state
    /// evaluation can be measured (or served) separately from the one-time
    /// precomputation.
    pub fn prebuild(&self) {
        with_kernel!(self.precision, K => {
            self.table::<K>();
        })
    }

    /// The engine's table slots, for sharing through a
    /// [`crate::cache::TableCache`]. Cloning shares; each table is built
    /// at most once per slot.
    pub(crate) fn table_slots(&self) -> &TableSlots {
        &self.slots
    }

    /// Replaces the engine's table slots with shared ones. Only the cache
    /// calls this, and only with slots for the identical (deployment,
    /// plane, grid, pairs) fingerprint, so the table contents are the same
    /// bits either way — sharing never changes a result.
    pub(crate) fn set_table_slots(&mut self, slots: TableSlots) {
        self.slots = slots;
    }

    /// A canonical fingerprint of everything the table depends on: the
    /// grid lattice, the lifted plane, the pair set with its geometry, and
    /// the turns factor. Two engines with equal fingerprints build
    /// bit-identical tables.
    pub(crate) fn table_fingerprint(&self) -> crate::cache::TableKey {
        crate::cache::TableKey::new(self)
    }

    pub(crate) fn plane(&self) -> Plane {
        self.plane
    }

    pub(crate) fn geom(&self) -> &[(Point3, Point3)] {
        &self.geom
    }

    pub(crate) fn turns_factor(&self) -> f64 {
        self.turns_factor
    }

    /// Cell `c` lifted onto the plane.
    fn cell(&self, c: usize) -> Point3 {
        let (ix, iz) = self.grid.unflat(c);
        self.plane.lift(self.grid.point(ix, iz))
    }

    /// The exact turns at point `p3` of the pair with antennas at `pi` and
    /// `pj`: the value every precision's table entry rounds.
    fn turns(&self, p3: Point3, (pi, pj): (Point3, Point3)) -> f64 {
        self.turns_factor * (p3.dist(pi) - p3.dist(pj))
    }

    /// Builds (once) and returns precision `K`'s pair-major table. Only
    /// `K`'s own table is materialized, so a fleet running one precision
    /// pays only that table's bytes.
    pub(crate) fn table<K: Kernel>(&self) -> &[K] {
        K::slot(&self.slots).get_or_init(|| {
            let _span =
                obs::SpanTimer::start(self.sink.as_ref(), self.session, Stage::EngineTable, 0.0);
            let n_cells = self.grid.len();
            let mut table = vec![K::default(); n_cells * self.pairs.len()];
            for (column, &pair) in table.chunks_mut(n_cells).zip(&self.geom) {
                self.parallelism.run_row_sharded(column, 1, |first, shard| {
                    for (i, slot) in shard.iter_mut().enumerate() {
                        *slot = K::entry(self.turns(self.cell(first + i), pair));
                    }
                });
            }
            table
        })
    }

    /// Maps each measurement to its table column and its measured turns
    /// in `K`'s representation, through the pair→column index built at
    /// construction.
    ///
    /// # Panics
    /// Panics if a measurement's pair is not in this engine's pair set, or
    /// if there are more measurements than `K`'s accumulation envelope.
    fn columns<K: Kernel>(&self, measurements: &[PairMeasurement]) -> Vec<(usize, K)> {
        assert!(
            measurements.len() <= K::MAX_MEASUREMENTS,
            "accumulation envelope: at most {} measurements per evaluation at this precision",
            K::MAX_MEASUREMENTS
        );
        measurements
            .iter()
            .map(|m| {
                let col = *self.col_of.get(&m.pair).unwrap_or_else(|| {
                    panic!("measurement pair {:?} is not in this engine's pair set", m.pair)
                });
                (col, K::entry(m.turns()))
            })
            .collect()
    }

    /// Evaluates the total nearest-lobe vote of `measurements` on every
    /// lattice point. At [`TablePrecision::F64`] (the default) the result
    /// is bit-identical to [`VoteMap::evaluate`] on the same inputs; at a
    /// reduced precision every vote is within
    /// [`VoteEngine::vote_error_bound`] of the f64 reference. Either way
    /// the result is bit-identical across every [`Parallelism`] setting
    /// and [`SimdMode`].
    pub fn evaluate(&self, measurements: &[PairMeasurement]) -> VoteMap {
        with_kernel!(self.precision, K => self.evaluate_cells::<K>(measurements, None))
    }

    /// Evaluates only the cells inside `window`; everything outside gets
    /// `f64::NEG_INFINITY`. Each in-window cell is computed with exactly
    /// the per-cell operations of [`VoteEngine::evaluate`], so in-window
    /// values are bit-identical to the full-grid map (and a full-grid
    /// window reproduces [`VoteEngine::evaluate`] bit-for-bit) — at every
    /// precision.
    ///
    /// Windows are expected to be small (a tracker's neighbourhood), so
    /// this path runs on the calling thread; the saving is doing O(window)
    /// work instead of O(grid), not sharding.
    ///
    /// # Panics
    /// Panics if the window's bounds fall outside the grid, or if a
    /// measurement's pair is not in this engine's pair set.
    pub fn evaluate_windowed(
        &self,
        measurements: &[PairMeasurement],
        window: &GridWindow,
    ) -> VoteMap {
        window.validate(&self.grid);
        with_kernel!(self.precision, K => self.evaluate_cells::<K>(measurements, Some(window)))
    }

    /// Like [`VoteEngine::evaluate`] but only on cells where `mask` is
    /// true; masked-out cells get `f64::NEG_INFINITY`. At
    /// [`TablePrecision::F64`], bit-identical to
    /// [`VoteMap::evaluate_masked`] on the same inputs; at every
    /// precision, bit-identical to the full map on the kept cells, whether
    /// or not the table is built yet.
    ///
    /// # Panics
    /// Panics if the mask length does not match the grid.
    pub fn evaluate_masked(&self, measurements: &[PairMeasurement], mask: &[bool]) -> VoteMap {
        assert_eq!(mask.len(), self.grid.len(), "mask length must match the grid");
        with_kernel!(self.precision, K => self.evaluate_kept::<K>(measurements, mask))
    }

    /// The cell-range driver: the whole grid as one run sharded by the
    /// execution policy, or each row of `window` as one serial run.
    fn evaluate_cells<K: Kernel>(
        &self,
        measurements: &[PairMeasurement],
        window: Option<&GridWindow>,
    ) -> VoteMap {
        let cols = self.columns::<K>(measurements);
        let table = self.table::<K>();
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let Some(window) = window else {
            let mut values = vec![0.0; self.grid.len()];
            self.parallelism.run_row_sharded(&mut values, 1, |first, shard| {
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                let mut acc = vec![K::Acc::default(); CELL_TILE.min(shard.len())];
                self.sweep_run(table, &cols, first, shard, &mut acc);
            });
            return VoteMap::from_values(self.grid.clone(), values);
        };
        let mut values = vec![f64::NEG_INFINITY; self.grid.len()];
        let mut acc = vec![K::Acc::default(); CELL_TILE.min(window.ix1 - window.ix0 + 1)];
        for iz in window.iz0..=window.iz1 {
            let start = self.grid.flat(window.ix0, iz);
            let end = self.grid.flat(window.ix1, iz) + 1;
            self.sweep_run(table, &cols, start, &mut values[start..end], &mut acc);
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// Writes the votes of the contiguous cells `first..first + out.len()`
    /// into `out`, one accumulator tile of up to `acc.len()` cells at a
    /// time.
    fn sweep_run<K: Kernel>(
        &self,
        table: &[K],
        cols: &[(usize, K)],
        first: usize,
        out: &mut [f64],
        acc: &mut [K::Acc],
    ) {
        let n_cells = self.grid.len();
        let tile_len = acc.len().max(1);
        for (i, out) in out.chunks_mut(tile_len).enumerate() {
            let tile = &mut acc[..out.len()];
            tile.fill(K::Acc::default());
            K::sweep_all(tile, table, n_cells, first + i * tile_len, cols, self.simd);
            for (v, &a) in out.iter_mut().zip(tile.iter()) {
                *v = K::vote(a);
            }
        }
    }

    /// The masked drivers: compacts the kept cells once, accumulates them
    /// by gathering from the built table or, if it is not built yet, from
    /// entries computed on the fly, and scatters the votes back.
    fn evaluate_kept<K: Kernel>(&self, measurements: &[PairMeasurement], mask: &[bool]) -> VoteMap {
        let cols = self.columns::<K>(measurements);
        let table = K::slot(&self.slots).get();
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let kept: Vec<usize> = (0..self.grid.len()).filter(|&c| mask[c]).collect();
        let mut acc = vec![K::Acc::default(); kept.len()];
        self.parallelism.run_row_sharded(&mut acc, 1, |first, shard| {
            let _shard_span = obs::SpanTimer::start(
                self.sink.as_ref(),
                self.session,
                Stage::EngineShard,
                first as f64,
            );
            let cells = &kept[first..first + shard.len()];
            match table {
                Some(table) => self.gather(table, &cols, cells, shard),
                None => self.on_the_fly(&cols, cells, shard),
            }
        });
        let mut values = vec![f64::NEG_INFINITY; self.grid.len()];
        for (&c, &a) in kept.iter().zip(&acc) {
            values[c] = K::vote(a);
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// Masked gather driver: measurement-outer over the kept `cells`,
    /// [`CELL_TILE`] accumulators at a time, reading each cell's entry
    /// from its pair column.
    fn gather<K: Kernel>(
        &self,
        table: &[K],
        cols: &[(usize, K)],
        cells: &[usize],
        acc: &mut [K::Acc],
    ) {
        let n_cells = self.grid.len();
        for (tile, tile_cells) in acc.chunks_mut(CELL_TILE).zip(cells.chunks(CELL_TILE)) {
            for &(col, measured) in cols {
                let column = run(table, n_cells, col, 0, n_cells);
                for (a, &c) in tile.iter_mut().zip(tile_cells) {
                    K::term(a, column[c], measured);
                }
            }
        }
    }

    /// Masked on-the-fly driver: builds each kept cell's entries from the
    /// geometry with the table builder's own [`Kernel::entry`], so the
    /// result matches the gather driver bit-for-bit.
    fn on_the_fly<K: Kernel>(&self, cols: &[(usize, K)], cells: &[usize], acc: &mut [K::Acc]) {
        for (a, &c) in acc.iter_mut().zip(cells) {
            let p3 = self.cell(c);
            for &(col, measured) in cols {
                K::term(a, K::entry(self.turns(p3, self.geom[col])), measured);
            }
        }
    }

    /// A **derived** worst-case bound on `|vote_p(c) − vote_f64(c)|` over
    /// every cell `c`, for this engine, measurement set and precision `p`
    /// — the quantity the accuracy gates assert against, computed from the
    /// actual table magnitudes rather than assumed. Zero for F64, which is
    /// bit-identical to the reference.
    ///
    /// Notation (ε₃₂ = 2⁻²⁴, ε₆₄ = 2⁻⁵³): `t` is a cell's f64 table entry,
    /// `m` the measured turns, `x = t − m` in exact arithmetic, `g(x) = |x
    /// − nearest_int(x)|` the triangle wave every kernel evaluates, and
    /// `Sₖ = max_c |t| + |m|` for measurement `k`.
    ///
    /// **F32** (full walk-through in DESIGN.md §11):
    ///
    /// 1. **Input rounding.** `fl32(t)` and `fl32(m)` each carry relative
    ///    error ε₃₂; their f32 subtraction adds one more. The computed
    ///    `d` satisfies `|d − x| ≤ 2.01·ε₃₂·Sₖ` (the 0.01 absorbs the
    ///    second-order cross terms).
    /// 2. **Exact frac.** The magic-number rounding in
    ///    [`frac_dist_to_integer_f32`] computes `g(d)` *exactly* (see its
    ///    docs), and `g` is 1-Lipschitz — the triangle wave is continuous
    ///    through half-integer lobe switches — so
    ///    `|g(d) − g(x)| ≤ 2.01·ε₃₂·Sₖ`.
    /// 3. **Square.** `g ≤ ½` gives `|g(d)² − g(x)²| ≤ (g(d)+g(x))·|g(d)
    ///    − g(x)| ≤ 1.01 · 2.01·ε₃₂·Sₖ`, and the f32 multiply adds
    ///    `≤ ε₃₂·¼·1.01 ≤ 0.26·ε₃₂`.
    /// 4. **Accumulation.** Partial sums after `j` of `n` terms are at
    ///    most `0.2501·j` in magnitude, so the `j`-th f32 subtraction errs
    ///    by `≤ ε₃₂·0.2501·j`; summing gives `≤ ε₃₂·0.2501·n(n+1)/2`.
    ///
    /// **I16 / I8** (scale `2ᴮ` quanta per turn, quantization step
    /// `h = 2⁻ᴮ` turns; full walk-through in DESIGN.md §15):
    ///
    /// 1. **Quantization.** Table entry and measured turns each round to
    ///    the nearest quantum (error ≤ `h/2`), so the dequantized
    ///    difference is within `h` of the exact `x` — modulo 1, because
    ///    integer turns wrap away at the type boundary.
    /// 2. **Exact fold.** The kernel's wrapping subtraction computes the
    ///    mod-1 remainder of the *quantized* difference exactly:
    ///    `|d|·h = g(x + δ)` with `|δ| ≤ h`. `g` is 1-Lipschitz, so
    ///    `|g(x+δ) − g(x)| ≤ h`, and `g ≤ ½` bounds the per-term damage
    ///    of squaring: `|ĝ² − g²| ≤ (ĝ + g)·h ≤ h`.
    /// 3. **Square and sum.** I8 squares and accumulates in plain
    ///    integers — no rounding at all. I16 widens `d` to f32 exactly
    ///    (|d| ≤ 2¹⁵ < 2²⁴) and its *fused* `a − d·d` admits the exact
    ///    product, so only the accumulation itself rounds: the
    ///    `0.2501·ε₃₂·n(n+1)/2` series of the F32 step 4, with no
    ///    per-term square error.
    /// 4. **Exact write-out.** The accumulator (integer sum below 2³⁰, or
    ///    f32) converts to f64 exactly, and `2⁻²ᴮ` is a power of two, so
    ///    the scaling multiply is exact.
    ///
    /// **Every precision** adds the f64 path's own rounding, because the
    /// reference is not exact either: the same-form error with ε₆₄ in
    /// place of ε₃₂ (only the subtraction and the square round), i.e.
    /// `1.01·ε₆₄·Sₖ + 0.26·ε₆₄` per term plus the `0.2501·ε₆₄·n(n+1)/2`
    /// accumulation series, covering the distance between either computed
    /// sum and the exact one.
    ///
    /// The reduced-precision argmax cell is therefore **provably
    /// identical** to the f64 argmax whenever the f64 map's gap between
    /// its best and runner-up cells exceeds twice this bound — the
    /// deployment-envelope criterion the kernel-equivalence suite asserts.
    ///
    /// Builds the f64 table if needed (the bound needs the true column
    /// magnitudes).
    ///
    /// # Panics
    /// Panics if a measurement's pair is unknown to the engine, or if a
    /// column's `Sₖ` exceeds the `2²²`-turn envelope of the exact-frac
    /// argument (physically impossible for any real deployment).
    pub fn vote_error_bound(
        &self,
        measurements: &[PairMeasurement],
        precision: TablePrecision,
    ) -> f64 {
        const EPS32: f64 = 5.960_464_477_539_063e-8; // 2⁻²⁴
        const EPS64: f64 = 1.110_223_024_625_156_5e-16; // 2⁻⁵³
        // Per precision: quantization step h (steps 1–2), f32 input
        // rounding (F32 steps 1–3), f32 square rounding (F32 step 3), and
        // f32 accumulation (F32 step 4, I16 step 3).
        let (h, input_eps, square_eps, acc_eps) = match precision {
            TablePrecision::F64 => return 0.0,
            TablePrecision::F32 => (0.0, 2.01 * 1.01 * EPS32, EPS32, EPS32),
            TablePrecision::I16 => (f64::from(i16::BITS).exp2().recip(), 0.0, 0.0, EPS32),
            TablePrecision::I8 => (f64::from(i8::BITS).exp2().recip(), 0.0, 0.0, 0.0),
        };
        let table = self.table::<f64>();
        let n_cells = self.grid.len();
        let mut per_term = 0.0f64;
        for (col, measured) in self.columns::<f64>(measurements) {
            let col_max = run(table, n_cells, col, 0, n_cells)
                .iter()
                .fold(0.0f64, |m, &t| m.max(t.abs()));
            let s = col_max + measured.abs();
            assert!(
                s < (1u64 << 22) as f64,
                "measurement magnitude {s} turns exceeds the {} envelope",
                precision.label()
            );
            per_term += h + (input_eps + 1.01 * EPS64) * s + 0.26 * (square_eps + EPS64);
        }
        let n = measurements.len() as f64;
        per_term + 0.2501 * (acc_eps + EPS64) * n * (n + 1.0) / 2.0
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point2, Rect};
    use crate::vote::ideal_measurements;

    fn setup() -> (Deployment, Plane, Grid2, Vec<PairMeasurement>) {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let grid = Grid2::new(
            Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0)),
            0.05,
        );
        let truth = plane.lift(Point2::new(1.2, 0.9));
        let ms = ideal_measurements(&dep, dep.all_pairs(), truth);
        (dep, plane, grid, ms)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn engine_matches_reference_evaluate_bitwise() {
        let (dep, plane, grid, ms) = setup();
        let reference = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let map = engine.evaluate(&ms);
        assert_eq!(bits(reference.values()), bits(map.values()));
    }

    #[test]
    fn engine_is_thread_count_invariant() {
        let (dep, plane, grid, ms) = setup();
        let serial = VoteEngine::for_deployment(&dep, plane, grid.clone(), Parallelism::Serial)
            .evaluate(&ms);
        for par in [Parallelism::Threads(2), Parallelism::Threads(7), Parallelism::Auto] {
            let map = VoteEngine::for_deployment(&dep, plane, grid.clone(), par).evaluate(&ms);
            assert_eq!(bits(serial.values()), bits(map.values()), "{par:?}");
        }
    }

    #[test]
    fn masked_lazy_and_table_paths_agree_with_reference() {
        let (dep, plane, grid, ms) = setup();
        let mask: Vec<bool> = (0..grid.len()).map(|i| i % 3 != 0).collect();
        let reference = VoteMap::evaluate_masked(&dep, &ms, plane, grid.clone(), &mask);
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Threads(3));
        // Lazy path first (no table yet), then the table-backed path.
        assert!(!engine.is_table_built());
        let lazy = engine.evaluate_masked(&ms, &mask);
        engine.prebuild();
        let tabled = engine.evaluate_masked(&ms, &mask);
        assert_eq!(bits(reference.values()), bits(lazy.values()));
        assert_eq!(bits(reference.values()), bits(tabled.values()));
    }

    #[test]
    fn subset_measurements_score_like_reference() {
        // Stage 1 scores only the coarse pairs through the all-pairs engine.
        let (dep, plane, grid, ms) = setup();
        let coarse: Vec<PairMeasurement> = ms
            .iter()
            .filter(|m| dep.coarse_pairs().any(|p| *p == m.pair))
            .copied()
            .collect();
        assert!(!coarse.is_empty());
        let reference = VoteMap::evaluate(&dep, &coarse, plane, grid.clone());
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Threads(2));
        assert_eq!(bits(reference.values()), bits(engine.evaluate(&coarse).values()));
    }

    #[test]
    fn table_is_built_once_and_reused() {
        let (dep, plane, grid, ms) = setup();
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let first = engine.table::<f64>().as_ptr();
        engine.evaluate(&ms);
        assert_eq!(first, engine.table::<f64>().as_ptr());
        assert!(engine.is_table_built());
    }

    #[test]
    #[should_panic(expected = "not in this engine's pair set")]
    fn unknown_measurement_pair_panics() {
        let (dep, plane, grid, _) = setup();
        let wide_only: Vec<AntennaPair> = dep.wide_pairs().to_vec();
        let engine = VoteEngine::new(&dep, plane, grid, wide_only, Parallelism::Serial);
        let coarse_pair = dep.coarse_primary_pairs()[0];
        let _ = engine.evaluate(&[PairMeasurement::new(coarse_pair, 0.1)]);
    }

    #[test]
    fn full_window_reproduces_evaluate_bitwise() {
        let (dep, plane, grid, ms) = setup();
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Threads(2));
        let full = engine.evaluate(&ms);
        let windowed = engine.evaluate_windowed(&ms, &GridWindow::full(engine.grid()));
        assert_eq!(bits(full.values()), bits(windowed.values()));
    }

    #[test]
    fn window_cells_match_full_map_and_outside_is_neg_inf() {
        let (dep, plane, grid, ms) = setup();
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let full = engine.evaluate(&ms);
        let window = GridWindow::around(engine.grid(), Point2::new(1.2, 0.9), 0.20);
        assert!(!window.is_full(engine.grid()));
        let map = engine.evaluate_windowed(&ms, &window);
        for (c, (&w, &f)) in map.values().iter().zip(full.values()).enumerate() {
            let (ix, iz) = engine.grid().unflat(c);
            if window.contains(ix, iz) {
                assert_eq!(w.to_bits(), f.to_bits(), "cell {c}");
            } else {
                assert_eq!(w, f64::NEG_INFINITY, "cell {c}");
            }
        }
        // The windowed argmax is the full argmax when the peak is inside.
        assert_eq!(map.argmax().0, full.argmax().0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_outside_grid_panics() {
        let (dep, plane, grid, ms) = setup();
        let nx = grid.nx();
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let bad = GridWindow { ix0: 0, ix1: nx, iz0: 0, iz1: 0 };
        let _ = engine.evaluate_windowed(&ms, &bad);
    }

    #[test]
    fn empty_pair_set_scores_zero_everywhere() {
        let (dep, plane, grid, _) = setup();
        let engine = VoteEngine::new(&dep, plane, grid, Vec::new(), Parallelism::Threads(2));
        let map = engine.evaluate(&[]);
        assert!(map.values().iter().all(|&v| v == 0.0));
    }

    fn f32_engine(dep: &Deployment, plane: Plane, grid: Grid2, par: Parallelism) -> VoteEngine {
        let mut e = VoteEngine::for_deployment(dep, plane, grid, par);
        e.set_precision(TablePrecision::F32);
        e
    }

    #[test]
    fn f32_table_halves_bytes() {
        let (dep, plane, grid, _) = setup();
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let f64_bytes = engine.table_bytes();
        engine.set_precision(TablePrecision::F32);
        assert_eq!(engine.precision(), TablePrecision::F32);
        assert_eq!(engine.table_bytes() * 2, f64_bytes);
        assert_eq!(
            engine.table::<f32>().len() * std::mem::size_of::<f32>(),
            engine.table_bytes() as usize
        );
    }

    #[test]
    fn f32_votes_stay_within_derived_bound_and_argmax_matches() {
        let (dep, plane, grid, ms) = setup();
        let reference = VoteEngine::for_deployment(&dep, plane, grid.clone(), Parallelism::Serial);
        let f64_map = reference.evaluate(&ms);
        let f32_map = f32_engine(&dep, plane, grid, Parallelism::Serial).evaluate(&ms);
        let bound = reference.vote_error_bound(&ms, TablePrecision::F32);
        // The bound must be meaningful (small) as well as honored.
        assert!(bound < 1e-4, "derived bound {bound} is uselessly loose");
        let worst = f64_map
            .values()
            .iter()
            .zip(f32_map.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= bound, "worst |Δvote| {worst:e} exceeds derived bound {bound:e}");
        assert_eq!(f64_map.argmax().0, f32_map.argmax().0);
    }

    #[test]
    fn f32_engine_is_thread_count_invariant() {
        let (dep, plane, grid, ms) = setup();
        let serial = f32_engine(&dep, plane, grid.clone(), Parallelism::Serial).evaluate(&ms);
        for par in [Parallelism::Threads(2), Parallelism::Threads(7), Parallelism::Auto] {
            let map = f32_engine(&dep, plane, grid.clone(), par).evaluate(&ms);
            assert_eq!(bits(serial.values()), bits(map.values()), "{par:?}");
        }
    }

    #[test]
    fn f32_windowed_matches_full_f32_map() {
        let (dep, plane, grid, ms) = setup();
        let engine = f32_engine(&dep, plane, grid, Parallelism::Serial);
        let full = engine.evaluate(&ms);
        let window = GridWindow::around(engine.grid(), Point2::new(1.2, 0.9), 0.20);
        let map = engine.evaluate_windowed(&ms, &window);
        for (c, (&w, &f)) in map.values().iter().zip(full.values()).enumerate() {
            let (ix, iz) = engine.grid().unflat(c);
            if window.contains(ix, iz) {
                assert_eq!(w.to_bits(), f.to_bits(), "cell {c}");
            } else {
                assert_eq!(w, f64::NEG_INFINITY, "cell {c}");
            }
        }
        let full_window = engine.evaluate_windowed(&ms, &GridWindow::full(engine.grid()));
        assert_eq!(bits(full.values()), bits(full_window.values()));
    }

    #[test]
    fn f32_masked_lazy_and_table_paths_agree() {
        let (dep, plane, grid, ms) = setup();
        let mask: Vec<bool> = (0..grid.len()).map(|i| i % 3 != 0).collect();
        let engine = f32_engine(&dep, plane, grid, Parallelism::Threads(3));
        assert!(!engine.is_table_built());
        let lazy = engine.evaluate_masked(&ms, &mask);
        engine.prebuild();
        assert!(engine.is_table_built());
        let tabled = engine.evaluate_masked(&ms, &mask);
        assert_eq!(bits(lazy.values()), bits(tabled.values()));
        // Kept cells match the full f32 map bitwise; masked-out are -inf.
        let full = engine.evaluate(&ms);
        for (c, (&m, &f)) in tabled.values().iter().zip(full.values()).enumerate() {
            if mask[c] {
                assert_eq!(m.to_bits(), f.to_bits(), "cell {c}");
            } else {
                assert_eq!(m, f64::NEG_INFINITY, "cell {c}");
            }
        }
    }

    fn engine_at(
        dep: &Deployment,
        plane: Plane,
        grid: Grid2,
        par: Parallelism,
        precision: TablePrecision,
    ) -> VoteEngine {
        let mut e = VoteEngine::for_deployment(dep, plane, grid, par);
        e.set_precision(precision);
        e
    }

    /// Best-vs-runner-up gap of a map, over finite cells.
    fn gap(map: &VoteMap) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &v in map.values() {
            if v > best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        best - second
    }

    #[test]
    fn quantized_tables_shrink_bytes_by_type_width() {
        let (dep, plane, grid, _) = setup();
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let f64_bytes = engine.table_bytes();
        engine.set_precision(TablePrecision::I16);
        assert_eq!(engine.table_bytes() * 4, f64_bytes);
        assert_eq!(
            engine.table::<i16>().len() * std::mem::size_of::<i16>(),
            engine.table_bytes() as usize
        );
        engine.set_precision(TablePrecision::I8);
        assert_eq!(engine.table_bytes() * 8, f64_bytes);
        assert_eq!(engine.table::<i8>().len(), engine.table_bytes() as usize);
    }

    #[test]
    fn quantized_votes_stay_within_derived_bound_and_argmax_matches() {
        let (dep, plane, grid, ms) = setup();
        let reference = VoteEngine::for_deployment(&dep, plane, grid.clone(), Parallelism::Serial);
        let f64_map = reference.evaluate(&ms);
        for precision in [TablePrecision::I16, TablePrecision::I8] {
            let map = engine_at(&dep, plane, grid.clone(), Parallelism::Serial, precision)
                .evaluate(&ms);
            let bound = reference.vote_error_bound(&ms, precision);
            // One quantum per measurement dominates; the bound must be
            // meaningful (small) as well as honored.
            let quantum = match precision {
                TablePrecision::I16 => 1.0 / 65_536.0,
                _ => 1.0 / 256.0,
            };
            assert!(bound <= ms.len() as f64 * quantum * 1.01, "{precision:?}: loose {bound}");
            let worst = f64_map
                .values()
                .iter()
                .zip(map.values())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(worst <= bound, "{precision:?}: worst |Δvote| {worst:e} > bound {bound:e}");
            // The argmax-identity theorem, under its gap premise.
            if gap(&f64_map) > 2.0 * bound {
                assert_eq!(f64_map.argmax().0, map.argmax().0, "{precision:?}");
            }
        }
        // On this clean scene the i16 gap premise must actually hold (the
        // theorem should not be vacuous at the precision we gate CI on).
        assert!(gap(&f64_map) > 2.0 * reference.vote_error_bound(&ms, TablePrecision::I16));
        assert_eq!(reference.vote_error_bound(&ms, TablePrecision::F64), 0.0);
    }

    #[test]
    fn quantized_engines_are_thread_count_invariant() {
        let (dep, plane, grid, ms) = setup();
        for precision in [TablePrecision::I16, TablePrecision::I8] {
            let serial = engine_at(&dep, plane, grid.clone(), Parallelism::Serial, precision)
                .evaluate(&ms);
            for par in [Parallelism::Threads(2), Parallelism::Threads(7), Parallelism::Auto] {
                let map = engine_at(&dep, plane, grid.clone(), par, precision).evaluate(&ms);
                assert_eq!(bits(serial.values()), bits(map.values()), "{precision:?} {par:?}");
            }
        }
    }

    #[test]
    fn scalar_kernels_match_auto_simd_bitwise_on_every_precision() {
        let (dep, plane, grid, ms) = setup();
        for precision in TablePrecision::ALL {
            let auto = engine_at(&dep, plane, grid.clone(), Parallelism::Serial, precision);
            assert_eq!(auto.simd_mode(), SimdMode::Auto);
            let mut scalar = engine_at(&dep, plane, grid.clone(), Parallelism::Serial, precision);
            scalar.set_simd_mode(SimdMode::Scalar);
            assert_eq!(
                bits(auto.evaluate(&ms).values()),
                bits(scalar.evaluate(&ms).values()),
                "{precision:?}"
            );
            let window = GridWindow::around(auto.grid(), Point2::new(1.2, 0.9), 0.20);
            assert_eq!(
                bits(auto.evaluate_windowed(&ms, &window).values()),
                bits(scalar.evaluate_windowed(&ms, &window).values()),
                "{precision:?} windowed"
            );
        }
    }

    #[test]
    fn quantized_windowed_and_masked_match_full_map() {
        let (dep, plane, grid, ms) = setup();
        let mask: Vec<bool> = (0..grid.len()).map(|i| i % 3 != 0).collect();
        for precision in [TablePrecision::I16, TablePrecision::I8] {
            let engine = engine_at(&dep, plane, grid.clone(), Parallelism::Threads(3), precision);
            // Lazy masked path first (no table yet), then table-backed.
            assert!(!engine.is_table_built());
            let lazy = engine.evaluate_masked(&ms, &mask);
            engine.prebuild();
            assert!(engine.is_table_built());
            let tabled = engine.evaluate_masked(&ms, &mask);
            assert_eq!(bits(lazy.values()), bits(tabled.values()), "{precision:?}");
            let full = engine.evaluate(&ms);
            for (c, (&m, &f)) in tabled.values().iter().zip(full.values()).enumerate() {
                if mask[c] {
                    assert_eq!(m.to_bits(), f.to_bits(), "{precision:?} cell {c}");
                } else {
                    assert_eq!(m, f64::NEG_INFINITY, "{precision:?} cell {c}");
                }
            }
            let window = GridWindow::around(engine.grid(), Point2::new(1.2, 0.9), 0.20);
            let windowed = engine.evaluate_windowed(&ms, &window);
            for (c, (&w, &f)) in windowed.values().iter().zip(full.values()).enumerate() {
                let (ix, iz) = engine.grid().unflat(c);
                if window.contains(ix, iz) {
                    assert_eq!(w.to_bits(), f.to_bits(), "{precision:?} cell {c}");
                } else {
                    assert_eq!(w, f64::NEG_INFINITY, "{precision:?} cell {c}");
                }
            }
            let full_window = engine.evaluate_windowed(&ms, &GridWindow::full(engine.grid()));
            assert_eq!(bits(full.values()), bits(full_window.values()), "{precision:?}");
        }
    }

    #[test]
    fn set_precision_detaches_onto_fresh_private_slots() {
        let (dep, plane, grid, _) = setup();
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        engine.prebuild();
        assert!(engine.is_table_built());
        engine.set_precision(TablePrecision::F32);
        // The built f64 table was dropped with the old slot; the f32 slot
        // is fresh. Setting the same precision again is a no-op.
        assert!(!engine.is_table_built());
        engine.prebuild();
        let ptr = engine.table::<f32>().as_ptr();
        engine.set_precision(TablePrecision::F32);
        assert_eq!(ptr, engine.table::<f32>().as_ptr());
    }
}
