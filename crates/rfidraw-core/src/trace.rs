//! Lobe-locked trajectory tracing (paper §4 and §5.2).
//!
//! Tracing exploits two facts about grating lobes:
//!
//! * all lobes of a pair **rotate together** as the source moves, so even a
//!   wrong (but nearby) lobe reproduces the trajectory *shape* with only an
//!   absolute offset and mild distortion (§4, Fig. 7);
//! * the system is **over-constrained** — six wide pairs constrain a 2-D
//!   position — so locking the wrong lobes makes the per-tick total vote
//!   degrade over the trajectory, revealing bad initial candidates (§5.2,
//!   Fig. 10f).
//!
//! The tracer therefore: seeds one trace per candidate initial position,
//! locks each wide pair to the grating lobe nearest that seed (a fixed
//! integer `k` against the continuously-unwrapped pair phase), advances tick
//! by tick by maximizing the total fixed-lobe vote within a small vicinity
//! of the previous point, and finally returns the trace whose cumulative
//! vote is highest.

use crate::array::{AntennaPair, Deployment};
use crate::exec::Parallelism;
use crate::geom::{Plane, Point2};
use crate::position::Candidate;
use crate::stream::PairSnapshot;
use crate::vote::PairMeasurement;
use rfidraw_simd::SimdMode;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// Tuning parameters for [`TrajectoryTracer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Search radius around the previous position per tick (m). Bounds the
    /// trackable speed at `vicinity_radius / tick`.
    pub vicinity_radius: f64,
    /// Resolution of the per-tick local search (m).
    pub step_resolution: f64,
    /// Whether the coarse pairs' (nearest-lobe) votes join the per-tick
    /// objective. They anchor the absolute position; the wide pairs' locked
    /// lobes dominate the local shape either way.
    pub include_coarse: bool,
    /// Centred moving-average window applied to the output trajectory
    /// (ticks; 1 disables smoothing).
    pub smooth_window: usize,
    /// Thread-level parallelism of [`TrajectoryTracer::trace_candidates`]
    /// (one candidate's trace per unit of work). Never changes any result
    /// (see [`crate::exec`]), only wall-clock time.
    pub parallelism: Parallelism,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            vicinity_radius: 0.10,
            step_resolution: 0.005,
            include_coarse: true,
            smooth_window: 3,
            parallelism: Parallelism::Auto,
        }
    }
}

impl TraceConfig {
    fn validate(&self) {
        assert!(
            self.vicinity_radius.is_finite() && self.vicinity_radius > 0.0,
            "vicinity radius must be positive"
        );
        assert!(
            self.step_resolution.is_finite()
                && self.step_resolution > 0.0
                && self.step_resolution <= self.vicinity_radius,
            "step resolution must be positive and no larger than the vicinity radius"
        );
        assert!(self.smooth_window >= 1, "smoothing window must be at least 1");
    }
}

/// A reconstructed trajectory for one candidate initial position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceResult {
    /// The candidate this trace started from.
    pub initial: Candidate,
    /// The locked lobe index per wide pair.
    pub locked_lobes: Vec<(AntennaPair, i64)>,
    /// Reconstructed positions, one per snapshot (smoothed).
    pub points: Vec<Point2>,
    /// Total vote of the chosen point at every tick (Fig. 10f).
    pub per_step_votes: Vec<f64>,
    /// Sum of the per-step votes — the trace-selection criterion.
    pub total_vote: f64,
}

/// The trajectory tracing engine.
#[derive(Debug, Clone)]
pub struct TrajectoryTracer {
    dep: Deployment,
    plane: Plane,
    config: TraceConfig,
    /// The local-search disc, one span per run of offsets within a row, in
    /// row-major order. Offsets are integer multiples of the step
    /// resolution, so a row needs three integers rather than one point per
    /// offset — the tracer is built once per serving session, and this is
    /// most of its footprint.
    disc: Vec<DiscSpan>,
    /// Disc half-width in steps: columns and rows both run over
    /// `-half..=half`.
    half: i32,
    /// Wide pairs resolved to indices into the deployment's antenna list.
    wide_geom: Vec<PairIdx>,
    /// Coarse pairs, same layout.
    coarse_geom: Vec<PairIdx>,
    /// Antennas the wide pairs read (deployment indices).
    wide_ants: Vec<usize>,
    /// Antennas only the coarse pairs read.
    coarse_ants: Vec<usize>,
    /// `path_factor / λ`, the distance-difference-to-turns factor.
    turns_factor: f64,
    sink: Option<crate::obs::SharedSink>,
    session: u64,
}

/// One run of disc offsets `(ix·s, iz·s)`, `ix ∈ first..=last`, in row `iz`
/// (`s` the step resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DiscSpan {
    iz: i32,
    first: i32,
    last: i32,
}

/// An antenna pair resolved to indices into the deployment's antenna list.
#[derive(Debug, Clone, Copy)]
struct PairIdx {
    pair: AntennaPair,
    i: usize,
    j: usize,
}

/// One vote term of a step: the pair's antennas (deployment indices) and
/// its target turns — the locked-lobe target for a wide pair, the measured
/// turns for a coarse one.
#[derive(Debug, Clone, Copy)]
struct Target {
    i: usize,
    j: usize,
    turns: f64,
}

/// Per-thread step buffers, grown on first use and reused by every later
/// step, so a step allocates nothing.
#[derive(Debug, Default)]
struct StepScratch {
    wide: Vec<Target>,
    coarse: Vec<Target>,
    /// Hoisted distance terms, `2·side` per antenna: `dx² + dy²` for each
    /// disc column, then `dz²` for each disc row.
    terms: Vec<f64>,
    /// Each antenna's distance from the offset being scored.
    dist: Vec<f64>,
    /// Each wide antenna's distance from every offset of the disc row
    /// being scanned, `side` per antenna.
    row_dist: Vec<f64>,
    /// The wide-pair vote of every offset of that row.
    row_vote: Vec<f64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<StepScratch> = std::cell::RefCell::default();
}

impl TrajectoryTracer {
    /// Creates a tracer.
    ///
    /// # Panics
    /// Panics on an invalid configuration or a deployment without wide
    /// pairs.
    pub fn new(dep: Deployment, plane: Plane, config: TraceConfig) -> Self {
        config.validate();
        assert!(!dep.wide_pairs().is_empty(), "tracing needs wide pairs");
        let r = config.vicinity_radius;
        let s = config.step_resolution;
        let half = i32::try_from((r / s).floor() as i64).expect("vicinity disc too large");
        let mut disc: Vec<DiscSpan> = Vec::new();
        for iz in -half..=half {
            for ix in -half..=half {
                let o = Point2::new(f64::from(ix) * s, f64::from(iz) * s);
                if o.norm() <= r + 1e-12 {
                    match disc.last_mut() {
                        Some(span) if span.iz == iz && span.last + 1 == ix => span.last = ix,
                        _ => disc.push(DiscSpan { iz, first: ix, last: ix }),
                    }
                }
            }
        }
        let index_of = |id| {
            dep.antennas()
                .iter()
                .position(|a| a.id == id)
                .expect("validated pair")
        };
        let resolve = |pairs: &[AntennaPair]| {
            pairs
                .iter()
                .map(|&pair| PairIdx {
                    pair,
                    i: index_of(pair.i),
                    j: index_of(pair.j),
                })
                .collect::<Vec<_>>()
        };
        let wide_geom = resolve(dep.wide_pairs());
        let coarse_pairs: Vec<AntennaPair> = dep.coarse_pairs().copied().collect();
        let coarse_geom = resolve(&coarse_pairs);
        let mut wide_ants: Vec<usize> = Vec::new();
        for a in wide_geom.iter().flat_map(|g| [g.i, g.j]) {
            if !wide_ants.contains(&a) {
                wide_ants.push(a);
            }
        }
        let mut coarse_ants: Vec<usize> = Vec::new();
        for a in coarse_geom.iter().flat_map(|g| [g.i, g.j]) {
            if !wide_ants.contains(&a) && !coarse_ants.contains(&a) {
                coarse_ants.push(a);
            }
        }
        let turns_factor = dep.path_factor() / dep.wavelength().meters();
        Self {
            dep,
            plane,
            config,
            disc,
            half,
            wide_geom,
            coarse_geom,
            wide_ants,
            coarse_ants,
            turns_factor,
            sink: None,
            session: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Installs a trace sink: batch-tracing spans and per-candidate vote
    /// masses are emitted to it tagged with `session`. Observability only —
    /// never changes a traced point (see [`crate::obs`]).
    pub fn set_trace_sink(&mut self, sink: Option<crate::obs::SharedSink>, session: u64) {
        self.sink = sink;
        self.session = session;
    }

    /// Locks each wide pair to the grating lobe nearest `position`, given a
    /// snapshot's unwrapped phases — the first step of any trace, exposed
    /// for incremental (online) tracking.
    ///
    /// # Panics
    /// Panics if the snapshot lacks a wide pair.
    pub fn lock_lobes(&self, snap: &PairSnapshot, position: Point2) -> Vec<(AntennaPair, i64)> {
        let p3 = self.plane.lift(position);
        self.dep
            .wide_pairs()
            .iter()
            .map(|&pair| {
                let turns = snap
                    .turns_of(pair)
                    .unwrap_or_else(|| panic!("snapshot lacks wide pair {pair:?}"));
                let k = crate::vote::lock_lobe(&self.dep, pair, turns, p3);
                (pair, k)
            })
            .collect()
    }

    /// Locks whatever wide pairs the snapshot *does* carry — the
    /// degraded-mode counterpart of [`TrajectoryTracer::lock_lobes`] for
    /// snapshots built from a surviving antenna subset. With a full pair
    /// set the result is identical to `lock_lobes`. May return an empty
    /// vector when no wide pair is present.
    pub fn try_lock_lobes(
        &self,
        snap: &PairSnapshot,
        position: Point2,
    ) -> Vec<(AntennaPair, i64)> {
        let p3 = self.plane.lift(position);
        self.dep
            .wide_pairs()
            .iter()
            .filter_map(|&pair| {
                let turns = snap.turns_of(pair)?;
                Some((pair, crate::vote::lock_lobe(&self.dep, pair, turns, p3)))
            })
            .collect()
    }

    /// Locks one wide pair at `position` given its current unwrapped turns
    /// — the re-lock primitive used when an antenna rejoins after a
    /// dropout (its unwrap restarted on a new branch, so the old lock is
    /// meaningless).
    pub fn lock_pair(&self, pair: AntennaPair, turns: f64, position: Point2) -> i64 {
        crate::vote::lock_lobe(&self.dep, pair, turns, self.plane.lift(position))
    }

    /// Advances one tick from `prev` using `snap` and the locked lobes;
    /// returns the new point and its total vote. This is the incremental
    /// core of [`TrajectoryTracer::trace_from`], exposed for online use.
    ///
    /// # Panics
    /// Panics if the snapshot lacks a locked wide pair.
    pub fn advance(
        &self,
        prev: Point2,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
    ) -> (Point2, f64) {
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            self.fill_targets(snap, locked, true, s);
            self.step(prev, s)
        })
    }

    /// Degraded-mode counterpart of [`TrajectoryTracer::advance`]: wide
    /// pairs missing from the snapshot or from `locked` simply do not vote
    /// (§5.1's over-constrained redundancy is what makes the subset still
    /// informative). Returns `None` when no locked wide pair is available —
    /// without at least one fixed-lobe constraint the step would be
    /// unanchored.
    ///
    /// `locked` is keyed by pair (order-insensitive); votes are summed in
    /// deployment wide-pair order, so with a full snapshot and a full lock
    /// set the result is bit-identical to `advance`.
    pub fn advance_avail(
        &self,
        prev: Point2,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
    ) -> Option<(Point2, f64)> {
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            self.fill_targets(snap, locked, false, s);
            (!s.wide.is_empty()).then(|| self.step(prev, s))
        })
    }

    /// Traces from one initial position through the snapshot sequence.
    ///
    /// The lobes are locked against the *first* snapshot; every subsequent
    /// snapshot contributes one traced point.
    ///
    /// # Panics
    /// Panics if `snapshots` is empty.
    pub fn trace_from(&self, initial: Candidate, snapshots: &[PairSnapshot]) -> TraceResult {
        assert!(!snapshots.is_empty(), "cannot trace an empty snapshot sequence");
        let locked = self.lock_lobes(&snapshots[0], initial.position);

        let mut points = Vec::with_capacity(snapshots.len());
        let mut votes = Vec::with_capacity(snapshots.len());
        let mut prev = initial.position;
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            for snap in snapshots {
                self.fill_targets(snap, &locked, true, s);
                let (best, vote) = self.step(prev, s);
                points.push(best);
                votes.push(vote);
                prev = best;
            }
        });

        let smoothed = moving_average(&points, self.config.smooth_window);
        let total_vote = votes.iter().sum();
        TraceResult {
            initial,
            locked_lobes: locked,
            points: smoothed,
            per_step_votes: votes,
            total_vote,
        }
    }

    /// Traces every candidate and returns `(winner_index, all_traces)`;
    /// the winner has the highest cumulative vote (§5.2).
    ///
    /// # Panics
    /// Panics if `candidates` or `snapshots` is empty.
    pub fn trace_candidates(
        &self,
        candidates: &[Candidate],
        snapshots: &[PairSnapshot],
    ) -> (usize, Vec<TraceResult>) {
        assert!(!candidates.is_empty(), "no candidate initial positions to trace");
        // Candidates trace independently; the ordered map keeps the output
        // order (and therefore the winner tie-break below) identical to a
        // serial loop for every thread count.
        let _span = crate::obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            crate::obs::Stage::TraceAdvance,
            candidates.len() as f64,
        );
        let traces: Vec<TraceResult> = self
            .config
            .parallelism
            .map_ordered(candidates, |&c| self.trace_from(c, snapshots));
        // Per-candidate vote mass, emitted in candidate order from this
        // thread so the event sequence is deterministic.
        for (i, t) in traces.iter().enumerate() {
            crate::obs::emit(
                self.sink.as_ref(),
                self.session,
                crate::obs::Stage::CandidateVote,
                crate::obs::TraceKind::Instant,
                t.total_vote,
                i as f64,
            );
        }
        // `total_cmp` orders like `partial_cmp` for the finite votes the
        // arithmetic produces, without a panic path for hostile input.
        let winner = traces
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_vote.total_cmp(&b.1.total_vote))
            .map(|(i, _)| i)
            .expect("at least one trace");
        (winner, traces)
    }

    /// Fills `s.wide` with each wide pair's locked-lobe target (its
    /// unwrapped turns plus the locked lobe, a fixed-lobe quadratic
    /// penalty) and `s.coarse` with each coarse pair's measured turns
    /// (scored against the nearest lobe), both in deployment order.
    ///
    /// `strict` is [`TrajectoryTracer::advance`]'s contract: every wide
    /// pair must be in the snapshot (panics otherwise) and `locked` holds
    /// one lock per wide pair in deployment order. Otherwise wide pairs
    /// missing from the snapshot or from `locked` (looked up by pair) are
    /// skipped.
    fn fill_targets(
        &self,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
        strict: bool,
        s: &mut StepScratch,
    ) {
        s.wide.clear();
        for (idx, g) in self.wide_geom.iter().enumerate() {
            let (turns, k) = if strict {
                let turns = snap
                    .turns_of(g.pair)
                    .unwrap_or_else(|| panic!("snapshot lacks wide pair {:?}", g.pair));
                (turns, locked[idx].1)
            } else {
                let Some(turns) = snap.turns_of(g.pair) else { continue };
                let Some(&(_, k)) = locked.iter().find(|(p, _)| *p == g.pair) else { continue };
                (turns, k)
            };
            s.wide.push(Target { i: g.i, j: g.j, turns: turns + k as f64 });
        }
        s.coarse.clear();
        if self.config.include_coarse {
            for g in &self.coarse_geom {
                if let Some(m) = snap.wrapped.iter().find(|m| m.pair == g.pair) {
                    s.coarse.push(Target { i: g.i, j: g.j, turns: m.turns() });
                }
            }
        }
    }

    /// One tracing step: the first disc offset, in row-major order, with
    /// the best total vote against `s.wide` and `s.coarse`.
    ///
    /// Bit-identical to scoring every offset `o` with `Point3::dist` on
    /// `plane.lift(prev + o)`: each antenna's distance is
    /// `((dx² + dy²) + dz²).sqrt()` either way, here from a column term
    /// `dx² + dy²` and a row term `dz²` hoisted out of the disc scan, and
    /// computed once per antenna rather than once per pair it belongs to.
    /// Every vote term subtracts a square, so a partial vote only falls:
    /// an offset is abandoned once it can no longer beat the best so far
    /// (`>`, so ties keep the earlier offset) or fall short of the vote at
    /// `prev` itself (`<`: an earlier offset *equal* to it still wins the
    /// tie), which is scored first as that floor.
    ///
    /// The wide terms of a whole disc row are summed first, by the
    /// [`rfidraw_simd`] row kernels (bit-identical to scalar); only
    /// offsets whose wide vote passes both tests go on to the coarse
    /// terms. A wide sum that fails a test fails it at some partial sum
    /// too, and one that passes passes every partial sum, so the offsets
    /// kept and their votes are the same as scoring term by term.
    fn step(&self, prev: Point2, s: &mut StepScratch) -> (Point2, f64) {
        let StepScratch { wide, coarse, terms, dist, row_dist, row_vote } = s;
        let res = self.config.step_resolution;
        let half = self.half;
        let side = (2 * half + 1) as usize;
        let ants = self.dep.antennas();
        let coarse_ants: &[usize] = if coarse.is_empty() { &[] } else { &self.coarse_ants };
        terms.resize(ants.len() * 2 * side, 0.0);
        dist.resize(ants.len(), 0.0);
        for &a in self.wide_ants.iter().chain(coarse_ants) {
            let pos = ants[a].pos;
            let dy = self.plane.depth - pos.y;
            let (cols, rows) = terms[2 * side * a..2 * side * (a + 1)].split_at_mut(side);
            for (c, col) in (-half..=half).zip(cols) {
                let dx = (prev.x + f64::from(c) * res) - pos.x;
                *col = dx * dx + dy * dy;
            }
            for (r, row) in (-half..=half).zip(rows) {
                let dz = (prev.z + f64::from(r) * res) - pos.z;
                *row = dz * dz;
            }
        }

        // Each antenna's distance from the offset at disc column `c`, row
        // `r` (both `0..side`).
        let measure = |dist: &mut [f64], ants: &[usize], c: usize, r: usize| {
            for &a in ants {
                let base = 2 * side * a;
                dist[a] = (terms[base + c] + terms[base + side + r]).sqrt();
            }
        };

        // The wide vote at `prev` itself, for the floor.
        let centre = half as usize;
        measure(dist, &self.wide_ants, centre, centre);
        let mut centre_wide = 0.0;
        for t in wide.iter() {
            let x = self.turns_factor * (dist[t.i] - dist[t.j]) - t.turns;
            centre_wide -= x * x;
        }
        // The vote at column `c`, row `r` given its wide vote `v`, or
        // `None` once a partial vote drops below `floor` or to `best`.
        let mut score_coarse = |mut v: f64, c: usize, r: usize, floor: f64, best: f64| {
            measure(dist, coarse_ants, c, r);
            for t in coarse.iter() {
                let x = self.turns_factor * (dist[t.i] - dist[t.j]) - t.turns;
                let f = crate::phase::frac_dist_to_integer(x);
                v -= f * f;
                if v < floor || v <= best {
                    return None;
                }
            }
            Some(v)
        };
        let none = f64::NEG_INFINITY;
        let floor = score_coarse(centre_wide, centre, centre, none, none).unwrap_or(none);
        let mut best = prev;
        let mut best_vote = f64::NEG_INFINITY;
        row_dist.resize(ants.len() * side, 0.0);
        row_vote.resize(side, 0.0);
        for span in &self.disc {
            let r = (span.iz + half) as usize;
            let z = prev.z + f64::from(span.iz) * res;
            let (c0, width) = ((span.first + half) as usize, (span.last - span.first + 1) as usize);
            for &a in &self.wide_ants {
                let base = 2 * side * a;
                let out = &mut row_dist[side * a..side * a + width];
                let cols = &terms[base + c0..base + c0 + width];
                rfidraw_simd::row_distances_f64(out, cols, terms[base + side + r], SimdMode::Auto);
            }
            let votes = &mut row_vote[..width];
            votes.fill(0.0);
            for t in wide.iter() {
                let di = &row_dist[side * t.i..side * t.i + width];
                let dj = &row_dist[side * t.j..side * t.j + width];
                let (f, turns) = (self.turns_factor, t.turns);
                rfidraw_simd::pair_vote_f64(votes, di, dj, f, turns, SimdMode::Auto);
            }
            for (k, &wide_vote) in votes.iter().enumerate() {
                if wide_vote < floor || wide_vote <= best_vote {
                    continue;
                }
                let Some(v) = score_coarse(wide_vote, c0 + k, r, floor, best_vote) else {
                    continue;
                };
                if v > best_vote {
                    best_vote = v;
                    best = Point2::new(prev.x + f64::from(span.first + k as i32) * res, z);
                }
            }
        }
        (best, best_vote)
    }

    /// The brute-force step [`TrajectoryTracer::step`] must reproduce bit
    /// for bit: every disc offset, two `Point3::dist` calls per pair.
    #[cfg(test)]
    fn step_reference(&self, prev: Point2, wide: &[Target], coarse: &[Target]) -> (Point2, f64) {
        let r = self.config.vicinity_radius;
        let s = self.config.step_resolution;
        let n = (r / s).floor() as i64;
        let pos = |a: usize| self.dep.antennas()[a].pos;
        let mut best = prev;
        let mut best_vote = f64::NEG_INFINITY;
        for iz in -n..=n {
            for ix in -n..=n {
                let off = Point2::new(ix as f64 * s, iz as f64 * s);
                if off.norm() > r + 1e-12 {
                    continue;
                }
                let p2 = prev + off;
                let p3 = self.plane.lift(p2);
                let mut v = 0.0;
                for t in wide {
                    let turns = self.turns_factor * (p3.dist(pos(t.i)) - p3.dist(pos(t.j)));
                    let r = turns - t.turns;
                    v -= r * r;
                }
                for t in coarse {
                    let turns = self.turns_factor * (p3.dist(pos(t.i)) - p3.dist(pos(t.j)));
                    let f = crate::phase::frac_dist_to_integer(turns - t.turns);
                    v -= f * f;
                }
                if v > best_vote {
                    best_vote = v;
                    best = p2;
                }
            }
        }
        (best, best_vote)
    }
}

/// Centred moving average over a point sequence (window 1 = identity).
/// Endpoints use the available one-sided samples, so output length equals
/// input length.
pub fn moving_average(points: &[Point2], window: usize) -> Vec<Point2> {
    assert!(window >= 1, "window must be at least 1");
    if window == 1 || points.len() <= 2 {
        return points.to_vec();
    }
    let half = window / 2;
    (0..points.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(points.len());
            let n = (hi - lo) as f64;
            let mut acc = Point2::new(0.0, 0.0);
            for p in &points[lo..hi] {
                acc = acc + *p;
            }
            acc * (1.0 / n)
        })
        .collect()
}

/// Noise-free snapshots along a known path: the forward model used by tests
/// and figure harnesses (realistic streams come from `rfidraw-protocol` via
/// [`crate::stream::SnapshotBuilder`]).
///
/// The unwrapped turns are exact (`pair_turns` along the path is continuous
/// by construction), and the wrapped measurements are their 2π reductions.
pub fn ideal_snapshots(
    dep: &Deployment,
    plane: Plane,
    path: &[Point2],
    tick: f64,
) -> Vec<PairSnapshot> {
    let pairs: Vec<AntennaPair> = dep.all_pairs().copied().collect();
    path.iter()
        .enumerate()
        .map(|(n, &p2)| {
            let p3 = plane.lift(p2);
            let mut wrapped = Vec::with_capacity(pairs.len());
            let mut turns = Vec::with_capacity(pairs.len());
            for &pair in &pairs {
                let t = dep.pair_turns(pair, p3);
                turns.push((pair, t));
                wrapped.push(PairMeasurement::new(pair, crate::phase::wrap_pi(TAU * t)));
            }
            PairSnapshot {
                t: n as f64 * tick,
                wrapped,
                unwrapped_turns: turns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{AntennaId, Deployment};
    use crate::geom::Plane;

    fn letter_q_path() -> Vec<Point2> {
        // A coarse handwritten-'q'-like path: a loop plus a descender,
        // ~15 cm tall, centred near (1.3, 1.0).
        let mut path = Vec::new();
        let c = Point2::new(1.3, 1.05);
        for i in 0..=40 {
            let a = TAU * i as f64 / 40.0;
            path.push(Point2::new(c.x + 0.05 * a.cos(), c.z + 0.05 * a.sin()));
        }
        for i in 1..=30 {
            let t = i as f64 / 30.0;
            path.push(Point2::new(c.x + 0.05, c.z - 0.15 * t));
        }
        path
    }

    fn dense(path: &[Point2], per_seg: usize) -> Vec<Point2> {
        let mut out = Vec::new();
        for w in path.windows(2) {
            for k in 0..per_seg {
                out.push(w[0].lerp(w[1], k as f64 / per_seg as f64));
            }
        }
        out.push(*path.last().unwrap());
        out
    }

    fn setup() -> (Deployment, Plane, TrajectoryTracer) {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let tracer = TrajectoryTracer::new(dep.clone(), plane, TraceConfig::default());
        (dep, plane, tracer)
    }

    #[test]
    fn traces_noise_free_path_exactly() {
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        let start = Candidate {
            position: path[0],
            vote: 0.0,
        };
        let result = tracer.trace_from(start, &snaps);
        assert_eq!(result.points.len(), path.len());
        let max_err = result
            .points
            .iter()
            .zip(&path)
            .map(|(a, b)| a.dist(*b))
            .fold(0.0_f64, f64::max);
        assert!(max_err < 0.02, "max tracing error {max_err} m");
        assert!(result.total_vote > -0.5, "total vote {}", result.total_vote);
    }

    #[test]
    fn wrong_adjacent_lobe_preserves_shape() {
        // §4 / Fig. 7(a): start from an offset position that locks adjacent
        // lobes; the reconstructed shape must match the truth up to a shift.
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        // ~13 cm offset start: the paper's "adjacent lobe" regime.
        let offset_start = Candidate {
            position: path[0] + Point2::new(0.10, 0.08),
            vote: 0.0,
        };
        let result = tracer.trace_from(offset_start, &snaps);
        // Remove the initial offset, then compare shapes point by point.
        let shift = result.points[0] - path[0];
        let errs: Vec<f64> = result
            .points
            .iter()
            .zip(&path)
            .map(|(a, b)| (*a - shift).dist(*b))
            .collect();
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            mean_err < 0.05,
            "shape error {mean_err:.3} m after removing offset"
        );
    }

    #[test]
    fn correct_start_outvotes_wrong_start() {
        // §5.2: the over-constrained system gives the true start a higher
        // cumulative vote than a wrong one.
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        let good = Candidate { position: path[0], vote: 0.0 };
        let bad = Candidate {
            position: path[0] + Point2::new(0.35, -0.25),
            vote: 0.0,
        };
        let (winner, traces) = tracer.trace_candidates(&[bad, good], &snaps);
        assert_eq!(winner, 1, "true start must win the vote");
        assert!(traces[1].total_vote > traces[0].total_vote);
    }

    #[test]
    fn per_step_votes_of_wrong_start_degrade() {
        // Fig. 10(f): the wrong candidate's vote drops as the trace
        // progresses while the good one stays near zero.
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        let good = tracer.trace_from(Candidate { position: path[0], vote: 0.0 }, &snaps);
        let bad = tracer.trace_from(
            Candidate {
                position: path[0] + Point2::new(0.35, -0.25),
                vote: 0.0,
            },
            &snaps,
        );
        let late = |v: &[f64]| {
            let n = v.len();
            v[(3 * n / 4)..].iter().sum::<f64>() / (n - 3 * n / 4) as f64
        };
        assert!(
            late(&good.per_step_votes) > late(&bad.per_step_votes),
            "good late vote {} vs bad {}",
            late(&good.per_step_votes),
            late(&bad.per_step_votes)
        );
    }

    #[test]
    fn advance_avail_matches_advance_on_full_snapshots_and_degrades_on_subsets() {
        let (dep, plane, tracer) = setup();
        let path = dense(&letter_q_path(), 3);
        let snaps = ideal_snapshots(&dep, plane, &path, 0.02);
        let locked = tracer.lock_lobes(&snaps[0], path[0]);
        assert_eq!(tracer.try_lock_lobes(&snaps[0], path[0]), locked);

        let mut prev = path[0];
        for snap in &snaps[1..20] {
            let full = tracer.advance(prev, snap, &locked);
            let avail = tracer.advance_avail(prev, snap, &locked).unwrap();
            assert_eq!(full.0.x.to_bits(), avail.0.x.to_bits());
            assert_eq!(full.0.z.to_bits(), avail.0.z.to_bits());
            assert_eq!(full.1.to_bits(), avail.1.to_bits());
            prev = full.0;
        }

        // Drop one wide pair from a snapshot: advance_avail still steps
        // close to the truth on the surviving subset.
        let gone = dep.wide_pairs()[0];
        let mut degraded = snaps[1].clone();
        degraded.wrapped.retain(|m| m.pair != gone);
        degraded.unwrapped_turns.retain(|(p, _)| *p != gone);
        let (next, _) = tracer.advance_avail(path[0], &degraded, &locked).unwrap();
        assert!(next.dist(path[1]) < 0.03, "degraded step {next:?} vs {:?}", path[1]);

        // No wide pair at all: the step is unanchored and must decline.
        let mut dark = snaps[1].clone();
        dark.wrapped.retain(|m| !dep.wide_pairs().contains(&m.pair));
        dark.unwrapped_turns.retain(|(p, _)| !dep.wide_pairs().contains(p));
        assert!(tracer.advance_avail(path[0], &dark, &locked).is_none());
    }

    /// `ideal_snapshots` with seeded uniform noise of up to ±`amp` turns on
    /// every pair, applied consistently to the wrapped and unwrapped forms.
    fn noisy_snapshots(
        dep: &Deployment,
        plane: Plane,
        path: &[Point2],
        seed: u64,
        amp: f64,
    ) -> Vec<PairSnapshot> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut snaps = ideal_snapshots(dep, plane, path, 0.04);
        for snap in &mut snaps {
            for (m, (_, turns)) in snap.wrapped.iter_mut().zip(&mut snap.unwrapped_turns) {
                *turns += rng.gen_range(-amp..amp);
                *m = PairMeasurement::new(m.pair, crate::phase::wrap_pi(TAU * *turns));
            }
        }
        snaps
    }

    /// Steps through `advance_avail` and through the brute-force reference
    /// on the same targets, asserts the two agree bit for bit, and returns
    /// the step (`None` when no locked wide pair is available).
    fn checked_step(
        tracer: &TrajectoryTracer,
        prev: Point2,
        snap: &PairSnapshot,
        locked: &[(AntennaPair, i64)],
    ) -> Option<(Point2, f64)> {
        let mut s = StepScratch::default();
        tracer.fill_targets(snap, locked, false, &mut s);
        let got = tracer.advance_avail(prev, snap, locked);
        if s.wide.is_empty() {
            assert!(got.is_none());
            return None;
        }
        let want = tracer.step_reference(prev, &s.wide, &s.coarse);
        let got = got.expect("a locked wide pair is available");
        let bits = |(p, v): (Point2, f64)| (p.x.to_bits(), p.z.to_bits(), v.to_bits());
        assert_eq!(bits(got), bits(want), "from {prev:?}: step {got:?}, reference {want:?}");
        Some(got)
    }

    #[test]
    fn step_matches_brute_force_reference_bit_for_bit() {
        let lambda = crate::phase::Wavelength::paper_default();
        let deployments = [
            Deployment::paper_default(),
            Deployment::square_with_side(lambda, 4.0),
            Deployment::square_with_side(lambda, 12.0),
        ];
        // (vicinity radius, step resolution): the default, a non-integer
        // ratio (17.5 steps), and a coarse disc (6.67 steps).
        let discs = [(0.10, 0.005), (0.07, 0.004), (0.05, 0.0075)];
        let plane = Plane::at_depth(2.0);
        let mut scene = 0u64;
        for dep in &deployments {
            let side = (dep.antennas()[3].pos.x - dep.antennas()[1].pos.x).abs();
            let shift = Point2::new(0.5 * side, 0.5 * side) - Point2::new(1.3, 1.05);
            let path: Vec<Point2> =
                dense(&letter_q_path(), 2).iter().take(30).map(|&p| p + shift).collect();
            for &(vicinity_radius, step_resolution) in &discs {
                for include_coarse in [true, false] {
                    scene += 1;
                    let cfg = TraceConfig {
                        vicinity_radius,
                        step_resolution,
                        include_coarse,
                        ..TraceConfig::default()
                    };
                    let tracer = TrajectoryTracer::new(dep.clone(), plane, cfg);
                    let snaps = noisy_snapshots(dep, plane, &path, 0x7ace + scene, 0.03);
                    // Every other scene starts on a wrong (adjacent) lobe.
                    let start = if scene & 1 == 0 {
                        path[0]
                    } else {
                        path[0] + Point2::new(0.10, 0.08)
                    };
                    let locked = tracer.lock_lobes(&snaps[0], start);
                    let mut prev = start;
                    for (tick, snap) in snaps.iter().enumerate().skip(1) {
                        let full = checked_step(&tracer, prev, snap, &locked).unwrap();
                        let strict = tracer.advance(prev, snap, &locked);
                        assert_eq!(full.0, strict.0);
                        assert_eq!(full.1.to_bits(), strict.1.to_bits());
                        // One degraded variant per tick, from the same point.
                        let mut degraded = snap.clone();
                        let mut lock_subset = locked.clone();
                        let dark = |p: &AntennaPair| p.i == AntennaId(1) || p.j == AntennaId(1);
                        match tick % 4 {
                            0 => {
                                let gone = dep.wide_pairs()[0];
                                degraded.wrapped.retain(|m| m.pair != gone);
                                degraded.unwrapped_turns.retain(|(p, _)| *p != gone);
                            }
                            1 => {
                                degraded.wrapped.retain(|m| !dark(&m.pair));
                                degraded.unwrapped_turns.retain(|(p, _)| !dark(p));
                            }
                            2 => {
                                lock_subset.remove(2);
                                lock_subset.reverse();
                            }
                            _ => degraded.wrapped.retain(|m| dep.wide_pairs().contains(&m.pair)),
                        }
                        checked_step(&tracer, prev, &degraded, &lock_subset).unwrap();
                        prev = full.0;
                    }
                }
            }
        }
    }

    #[test]
    fn step_breaks_an_exact_vote_tie_towards_the_first_offset() {
        // Two wide pairs mirrored about x = 0 and z = 0, both reading zero
        // turns: the vote peaks at the origin. Half a step right of the
        // mirror axis, `prev` and its left neighbour are mirror images with
        // bit-identical votes, and no other disc offset comes as close to
        // the peak. Row-major order puts the neighbour first, so it must
        // win even though its vote only *equals* the floor set by `prev`.
        let lambda = crate::phase::Wavelength::paper_default();
        let a = 2.0 * lambda.meters();
        let ant = |n: u8, x: f64, z: f64| crate::array::Antenna {
            id: AntennaId(n),
            reader: crate::array::ReaderId(1),
            pos: crate::geom::Point3::on_wall(x, z),
        };
        let pair = |i: u8, j: u8| AntennaPair::new(AntennaId(i), AntennaId(j));
        let pairs = [pair(1, 2), pair(3, 4)];
        let dep = crate::array::DeploymentBuilder::new(lambda)
            .backscatter(true)
            .antenna(ant(1, -a, 0.0))
            .antenna(ant(2, a, 0.0))
            .antenna(ant(3, 0.0, -a))
            .antenna(ant(4, 0.0, a))
            .pair(pairs[0], crate::array::PairRole::Wide)
            .pair(pairs[1], crate::array::PairRole::Wide)
            .build();
        let plane = Plane::at_depth(1.5);
        let tracer = TrajectoryTracer::new(dep.clone(), plane, TraceConfig::default());
        let s = tracer.config().step_resolution;
        let snap = PairSnapshot {
            t: 0.0,
            wrapped: pairs.iter().map(|&p| PairMeasurement::new(p, 0.0)).collect(),
            unwrapped_turns: pairs.iter().map(|&p| (p, 0.0)).collect(),
        };
        let locked: Vec<(AntennaPair, i64)> = pairs.iter().map(|&p| (p, 0)).collect();

        let vote_at = |q: Point2| {
            let q3 = plane.lift(q);
            let dist = |id| q3.dist(dep.antenna(id).unwrap().pos);
            pairs.iter().fold(0.0, |v, &p| {
                let t = dep.path_factor() / lambda.meters() * (dist(p.i) - dist(p.j));
                v - t * t
            })
        };
        let prev = Point2::new(0.5 * s, 0.0);
        let left = Point2::new(prev.x - s, prev.z);
        assert_eq!(vote_at(prev).to_bits(), vote_at(left).to_bits(), "the scene must tie");

        let (at, vote) = checked_step(&tracer, prev, &snap, &locked).unwrap();
        assert_eq!((at.x.to_bits(), at.z.to_bits()), (left.x.to_bits(), left.z.to_bits()));
        assert_eq!(vote.to_bits(), vote_at(prev).to_bits());
    }

    #[test]
    fn default_disc_is_41_row_spans_of_1257_offsets() {
        let (_, _, tracer) = setup();
        assert_eq!(tracer.disc.len(), 41);
        let offsets: i32 = tracer.disc.iter().map(|d| d.last - d.first + 1).sum();
        assert_eq!(offsets, 1257);
    }

    #[test]
    fn moving_average_identity_and_smoothing() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 0.0),
        ];
        assert_eq!(moving_average(&pts, 1), pts);
        let sm = moving_average(&pts, 3);
        assert_eq!(sm.len(), pts.len());
        // Interior points of an alternating series average towards 1/3 or 2/3.
        assert!((sm[2].x - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty snapshot sequence")]
    fn trace_rejects_empty_snapshots() {
        let (_, _, tracer) = setup();
        let _ = tracer.trace_from(
            Candidate {
                position: Point2::new(1.0, 1.0),
                vote: 0.0,
            },
            &[],
        );
    }

    #[test]
    #[should_panic(expected = "step resolution")]
    fn config_rejects_step_larger_than_radius() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let cfg = TraceConfig {
            vicinity_radius: 0.01,
            step_resolution: 0.05,
            ..TraceConfig::default()
        };
        let _ = TrajectoryTracer::new(dep, plane, cfg);
    }

    #[test]
    fn ideal_snapshots_are_consistent() {
        let (dep, plane, _) = setup();
        let path = vec![Point2::new(1.0, 1.0), Point2::new(1.05, 1.0)];
        let snaps = ideal_snapshots(&dep, plane, &path, 0.1);
        assert_eq!(snaps.len(), 2);
        for s in &snaps {
            assert_eq!(s.wrapped.len(), dep.all_pairs().count());
            for (m, (pair, turns)) in s.wrapped.iter().zip(&s.unwrapped_turns) {
                assert_eq!(m.pair, *pair);
                let w = crate::phase::wrap_pi(TAU * turns);
                assert!((w - m.delta_phi).abs() < 1e-12);
            }
        }
    }
}
