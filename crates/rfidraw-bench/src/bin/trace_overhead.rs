//! Measures vote-engine evaluation throughput for the tracing overhead
//! gate: `scripts/ci.sh` runs this binary twice — once on the default
//! build (no trace-emit sites compiled) and once with `--features trace`
//! but no sink installed (instrumented build, tracing disabled) — and
//! fails if the disabled-instrumentation build is more than a few percent
//! slower. Run with `--with-recorder` (trace builds only) to also measure
//! the fully-enabled cost.
//!
//! ```sh
//! cargo run --release -p rfidraw-bench --bin trace_overhead -- [--iters N] [--rounds N]
//! ```
//!
//! Output is one `key: value` pair per line; the gate parses
//! `ns_per_eval`. The reported number is the best (minimum) per-round
//! mean, which is far more stable under scheduler noise than a grand
//! mean.

use rfidraw::core::array::Deployment;
use rfidraw::core::engine::VoteEngine;
use rfidraw::core::exec::Parallelism;
use rfidraw::core::geom::{Plane, Point2, Rect};
use rfidraw::core::grid::Grid2;
use rfidraw::core::vote::ideal_measurements;
use std::hint::black_box;
use std::time::Instant;

fn arg(name: &str, default: usize) -> usize {
    std::env::args()
        .skip_while(|a| a != name)
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let iters = arg("--iters", 20);
    let rounds = arg("--rounds", 5);
    let with_recorder = std::env::args().any(|a| a == "--with-recorder");

    let dep = Deployment::paper_default();
    let plane = Plane::at_depth(2.0);
    let region = Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0));
    let tag = plane.lift(Point2::new(1.2, 0.9));
    let ms = ideal_measurements(&dep, dep.all_pairs(), tag);
    let grid = Grid2::new(region, 0.01);
    #[allow(unused_mut)]
    let mut engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);

    if with_recorder {
        #[cfg(feature = "trace")]
        {
            use rfidraw::metrics::{TraceRecorder, TraceSettings};
            use std::sync::Arc;
            let rec = Arc::new(TraceRecorder::new(TraceSettings::default()));
            let sink: rfidraw::core::obs::SharedSink = rec;
            engine.set_trace_sink(Some(sink), 1);
        }
        #[cfg(not(feature = "trace"))]
        {
            eprintln!("--with-recorder requires --features trace; measuring without");
        }
    }
    engine.prebuild();

    // Warm-up: page in the table and settle the clocks.
    for _ in 0..3 {
        black_box(engine.evaluate(black_box(&ms)).argmax());
    }

    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(engine.evaluate(black_box(&ms)).argmax());
        }
        let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per_iter);
    }

    println!("trace_feature: {}", cfg!(feature = "trace"));
    println!("recorder_installed: {}", with_recorder && cfg!(feature = "trace"));
    println!("iters: {iters}");
    println!("rounds: {rounds}");
    println!("ns_per_eval: {}", best.round() as u64);
}
