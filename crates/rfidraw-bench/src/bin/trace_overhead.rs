//! Measures what an installed trace recorder costs the vote engine, for
//! the tracing overhead gate in `scripts/ci.sh`. One binary, one engine:
//! short rounds of serial 1 cm `evaluate` calls alternate between no sink
//! and a default [`TraceRecorder`], and each mode keeps its best (minimum)
//! per-round mean, which is far more stable under scheduler noise than a
//! grand mean. Both modes share the table and the code layout, and short
//! rounds see the same machine state, so the difference is the emit
//! sites' own cost. (On a shared 2-core VM, rounds of 20 evaluations let
//! steal and frequency drift swing the result by up to ±6%; rounds of 5
//! mostly stay within ±1.5%, with rare swings near ±3%.)
//!
//! ```sh
//! cargo run --release -p rfidraw-bench --bin trace_overhead -- [--iters N] [--rounds N]
//! ```
//!
//! Output is one `key: value` pair per line; the gate parses
//! `overhead_pct` (recorder vs no sink, in percent).

use rfidraw::core::array::Deployment;
use rfidraw::core::engine::VoteEngine;
use rfidraw::core::exec::Parallelism;
use rfidraw::core::geom::{Plane, Point2, Rect};
use rfidraw::core::grid::Grid2;
use rfidraw::core::obs::SharedSink;
use rfidraw::core::vote::{ideal_measurements, PairMeasurement};
use rfidraw::metrics::{TraceRecorder, TraceSettings};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn arg(name: &str, default: usize) -> usize {
    std::env::args()
        .skip_while(|a| a != name)
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Mean nanoseconds per evaluation over `iters` calls.
fn round_ns(engine: &VoteEngine, ms: &[PairMeasurement], iters: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(engine.evaluate(black_box(ms)).argmax());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let iters = arg("--iters", 5);
    let rounds = arg("--rounds", 120);

    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0));
    let tag = plane.lift(Point2::new(1.2, 0.9));
    let ms = ideal_measurements(&dep, dep.all_pairs(), tag);
    let grid = Grid2::new(region, 0.01);
    let mut engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
    engine.prebuild();
    let rec = Arc::new(TraceRecorder::new(TraceSettings::default()));
    let sink: SharedSink = Arc::clone(&rec) as _;

    // Warm-up: page in the table and settle the clocks.
    for _ in 0..3 {
        black_box(engine.evaluate(black_box(&ms)).argmax());
    }

    // Interleaved rounds, alternating which mode goes first so neither
    // always inherits the other's cache or frequency state.
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds {
        for armed in [round % 2 == 0, round % 2 != 0] {
            engine.set_trace_sink(armed.then(|| Arc::clone(&sink)), 1);
            let ns = round_ns(&engine, &ms, iters);
            if armed {
                on = on.min(ns);
            } else {
                off = off.min(ns);
            }
        }
    }
    assert!(rec.events_seen() > 0, "the recorder saw no engine events");

    println!("iters: {iters}");
    println!("rounds: {rounds}");
    println!("ns_per_eval_no_sink: {}", off.round() as u64);
    println!("ns_per_eval_recorder: {}", on.round() as u64);
    println!("overhead_pct: {:.2}", (on - off) / off * 100.0);
}
