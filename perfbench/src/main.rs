//! Live-writing benchmark for the RF-IDraw serving stack.
//!
//! ```text
//! perfbench --workload <live_words|live_per_read|tap_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--writers <n>] [--commit <id>]
//! ```
//!
//! Generates the workload from the seed, replays it through standalone
//! trackers (the oracle), then drives it open-loop at real-time pacing
//! over loopback TCP through the reactor into the tracking service and
//! checks every delivered position against the oracle bit for bit. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer ledger from an extra traced pass
//! and the in-process layer replay. The exit code is non-zero when any
//! operation failed or the generator fell behind its schedule.

mod cpu;
mod ledger;
mod live;
mod oracle;
mod stats;
mod workload;

use rfidraw_core::geom::Point2;
use stats::{mean, median, quantile};
use workload::{Workload, TICK_S};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    writers: Option<usize>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut writers) =
        (None, None, None, None, None);
    let mut commit = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            "--writers" => writers = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        writers,
        commit,
    })
}

/// Named metric values with units, in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.1.is_finite())
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A pass is measured again while the hypervisor withheld more than this
/// share of the CPU the box asked for during it.
const MAX_STEAL_SHARE: f64 = 0.05;

/// One live pass, measured on a box the host did not starve if possible.
struct Pass {
    /// The kept attempt: the first with steal at most [`MAX_STEAL_SHARE`],
    /// else the one with the least steal.
    result: live::LiveResult,
    /// The kept attempt's median set-up time (s) and cold build (ms).
    setup_s: f64,
    cold_build_ms: f64,
    /// Steal share of every attempt, in order.
    steal: Vec<f64>,
    /// The first attempt's peak RSS growth (MiB). Later attempts start on
    /// a heap the earlier servers grew and freed, so they grow less.
    peak_rss_mb: f64,
    /// Failures and operations over all attempts: a discarded attempt's
    /// failures still count.
    failures: live::Failures,
    attempted: u64,
}

impl Pass {
    fn measure(
        schedule: &workload::Schedule,
        encoded: &live::Encoded,
        oracle: &oracle::Oracle,
        traced: bool,
        attempts: usize,
    ) -> Self {
        let max_sessions = schedule.sessions.len().max(1);
        let mut kept: Option<(live::LiveResult, f64, f64)> = None;
        let mut steal = Vec::new();
        let mut peak_rss_mb = f64::NAN;
        let mut failures = live::Failures::default();
        let mut attempted = 0;
        loop {
            let (server, setup_s, cold_build_ms) = live::setup(max_sessions, traced);
            let r = live::run(schedule, encoded, oracle, server, traced);
            failures.absorb(r.failures);
            attempted += r.attempted;
            if steal.is_empty() {
                peak_rss_mb = r.peak_rss_mb;
            }
            steal.push(r.steal_share);
            let quiet = r.steal_share <= MAX_STEAL_SHARE;
            if kept
                .as_ref()
                .is_none_or(|k| r.steal_share < k.0.steal_share)
            {
                kept = Some((r, setup_s, cold_build_ms));
            }
            if quiet || steal.len() >= attempts {
                break;
            }
        }
        let (result, setup_s, cold_build_ms) = kept.expect("at least one attempt ran");
        Self {
            result,
            setup_s,
            cold_build_ms,
            steal,
            peak_rss_mb,
            failures,
            attempted,
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let writers = args
        .writers
        .unwrap_or_else(|| args.workload.default_writers());

    let schedule = workload::generate(args.workload, args.seed, args.seconds, writers, nproc);
    let oracle = oracle::replay(&schedule, if args.trace { 1 } else { nproc });
    let encoded = live::Encoded::new(&schedule);

    // Retries stretch a run; the traced run already makes two passes, and
    // its per-layer figures are not gated, so it never retries.
    let attempts = if args.trace { 1 } else { 2 };
    let mut reference: Vec<f64> = (0..5).map(|_| cpu::reference_s()).collect();
    let plain = Pass::measure(&schedule, &encoded, &oracle, false, attempts);
    let plain_ppcs = plain.result.delivered as f64 / plain.result.server_cpu_s;
    reference.extend((0..5).map(|_| cpu::reference_s()));
    let host_factor = median(&mut reference) / cpu::REFERENCE_S;
    let mut attempted = plain.attempted;
    let mut failures = plain.failures;
    let mut lag_worst = quantile(&mut plain.result.gen_lag_ms.clone(), 0.99);
    let setup_s = plain.setup_s;
    let plain_steal = plain.steal.clone();
    let peak_rss_mb = plain.peak_rss_mb;
    let plain = plain.result;

    let mut m = Metrics::default();
    if !args.trace {
        // The fig. 11 shape error: each session's delivered trajectory against
        // the pen after removing its constant offset, pooled over all points.
        // The paper removes the winning trace's initial offset; a live estimate
        // may switch candidate in its first ticks, so its first point need not
        // lie on the trace it then follows, and the mean offset stands in for it.
        let mut errors_cm: Vec<f64> = schedule
            .sessions
            .iter()
            .zip(&oracle.positions)
            .filter(|(_, expected)| !expected.is_empty())
            .flat_map(|(s, expected)| {
                let (recon, truth): (Vec<Point2>, Vec<Point2>) = expected
                    .iter()
                    .map(|e| {
                        let p = Point2::new(f64::from_bits(e.bits[1]), f64::from_bits(e.bits[2]));
                        (p, s.truth_at(f64::from_bits(e.bits[0])))
                    })
                    .unzip();
                rfidraw_metrics::dc_aligned_errors(&recon, &truth)
                    .into_iter()
                    .map(|e| e * 100.0)
            })
            .collect();

        m.put(
            "pos_latency_p50_ms",
            quantile(&mut plain.latency_ms.clone(), 0.5),
            "ms",
        );
        m.put(
            "pos_latency_p99_ms",
            quantile(&mut plain.latency_ms.clone(), 0.99),
            "ms",
        );
        m.put(
            "first_pos_latency_p50_ms",
            quantile(&mut plain.first_latency_ms.clone(), 0.5),
            "ms",
        );
        m.put(
            "first_pos_latency_p95_ms",
            quantile(&mut plain.first_latency_ms.clone(), 0.95),
            "ms",
        );
        m.put("positions_per_cpu_s", plain_ppcs * host_factor, "1/s");
        m.put("traj_err_p50_cm", median(&mut errors_cm), "cm");
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
    } else {
        let traced = Pass::measure(&schedule, &encoded, &oracle, true, attempts);
        attempted += traced.attempted;
        failures.absorb(traced.failures);
        let cold_build_ms = traced.cold_build_ms;
        let traced = traced.result;
        lag_worst = lag_worst.max(quantile(&mut traced.gen_lag_ms.clone(), 0.99));
        let wire = ledger::wire(&schedule, &encoded, &oracle);
        let mut ingest_us = ledger::ingest(&schedule);
        let core = &oracle.core;
        let tel = &traced.telemetry;
        let split = traced.split;
        let positions = traced.delivered as f64;
        let compute_s = tel.compute.sum_us as f64 * 1e-6;
        let tracker_s = core.total_ns() as f64 * 1e-9;
        let acquire_s = core.acquire_ns.iter().sum::<u64>() as f64 * 1e-9;
        let tick_s = core.tick_ns.iter().sum::<u64>() as f64 * 1e-9;
        let ingest_s = ingest_us.iter().sum::<f64>() * 1e-6;
        let attributed = tracker_s + wire.decode_s + wire.encode_s + ingest_s;
        let to_f = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();

        m.put(
            "net.reactor_cpu_us_per_frame",
            split.reactor * 1e6 / traced.net.frames_in as f64,
            "us",
        );
        m.put("net.frames_in", traced.net.frames_in as f64, "count");
        m.put("net.frames_out", traced.net.frames_out as f64, "count");
        m.put("net.bytes_in", traced.net.bytes_in as f64, "bytes");
        m.put("net.bytes_out", traced.net.bytes_out as f64, "bytes");
        m.put("net.wakeups", traced.net.wakeups as f64, "count");
        m.put(
            "net.partial_frame_resumes",
            traced.net.partial_resumes as f64,
            "count",
        );
        m.put(
            "wire.decode_ns_per_read",
            wire.decode_s * 1e9 / wire.reads as f64,
            "ns",
        );
        m.put(
            "wire.encode_ns_per_update",
            wire.encode_s * 1e9 / wire.updates as f64,
            "ns",
        );
        m.put("serve.ingest_us_p50", median(&mut ingest_us), "us");
        m.put(
            "serve.queue_wait_us_p50",
            tel.queue_wait.quantile_us(0.5).unwrap_or(f64::NAN),
            "us",
        );
        m.put(
            "serve.queue_wait_us_p99",
            tel.queue_wait.quantile_us(0.99).unwrap_or(f64::NAN),
            "us",
        );
        m.put("serve.compute_us_per_batch", tel.compute.mean_us(), "us");
        m.put("serve.worker_cpu_s", split.workers, "s");
        m.put(
            "serve.worker_overhead_share",
            1.0 - compute_s / split.workers,
            "share",
        );
        let drained: u64 = tel.shards.iter().map(|s| s.reads_drained).sum();
        let visits: u64 = tel.shards.iter().map(|s| s.drain_visits).sum();
        m.put(
            "serve.reads_per_shard_visit",
            drained as f64 / visits as f64,
            "reads",
        );
        m.put("serve.sessions_opened", tel.sessions_opened as f64, "count");
        m.put(
            "serve.sessions_live_peak",
            traced.sessions_live_peak as f64,
            "count",
        );
        m.put(
            "serve.sessions_evicted",
            tel.sessions_evicted as f64,
            "count",
        );
        m.put("core.online.pushes", core.quiet_pushes as f64, "count");
        m.put(
            "core.online.push_ns_no_event",
            core.quiet_ns as f64 / core.quiet_pushes as f64,
            "ns",
        );
        m.put(
            "core.position.acquisitions",
            core.acquire_ns.len() as f64,
            "count",
        );
        m.put(
            "core.position.acquire_ms_p50",
            quantile(&mut to_f(&core.acquire_ns), 0.5) * 1e-6,
            "ms",
        );
        m.put(
            "core.position.acquire_ms_p99",
            quantile(&mut to_f(&core.acquire_ns), 0.99) * 1e-6,
            "ms",
        );
        m.put(
            "core.position.candidates_per_acquire",
            core.candidates as f64 / core.acquire_ns.len() as f64,
            "count",
        );
        m.put(
            "core.position.tracker_share",
            acquire_s / tracker_s,
            "share",
        );
        m.put(
            "core.trace.tick_us_p50",
            quantile(&mut to_f(&core.tick_ns), 0.5) * 1e-3,
            "us",
        );
        m.put(
            "core.trace.tick_us_p99",
            quantile(&mut to_f(&core.tick_ns), 0.99) * 1e-3,
            "us",
        );
        m.put(
            "core.trace.candidate_ticks",
            core.candidate_ticks as f64,
            "count",
        );
        m.put(
            "core.trace.us_per_candidate_tick",
            tick_s * 1e6 / core.candidate_ticks as f64,
            "us",
        );
        m.put("core.trace.tracker_share", tick_s / tracker_s, "share");
        m.put("core.cache.hits", tel.table_cache_hits as f64, "count");
        m.put("core.cache.misses", tel.table_cache_misses as f64, "count");
        m.put(
            "core.cache.resident_bytes",
            tel.table_cache_bytes as f64,
            "bytes",
        );
        m.put("core.cache.cold_build_ms", cold_build_ms, "ms");
        // Server CPU less the tracker's own push time, per position: the
        // replay's push time stands in for tracking because the telemetry
        // compute span is wall time, which outgrows CPU time whenever a
        // worker is preempted mid-batch.
        m.put(
            "ledger.net_serve_us_per_position",
            (split.reactor + split.workers - tracker_s) * 1e6 / positions,
            "us",
        );
        m.put(
            "ledger.unattributed_share",
            1.0 - attributed / traced.server_cpu_s,
            "share",
        );
        m.put(
            "trace.overhead_share",
            1.0 - (positions / traced.server_cpu_s) / plain_ppcs,
            "share",
        );
        m.put(
            "failed_share",
            failures.total() as f64 / attempted as f64,
            "share",
        );
        m.put("gen_lag_p99_ms", lag_worst, "ms");
    }

    let failed = failures.total() + oracle.core.refused;
    let lag_ok = lag_worst <= TICK_S * 1e3;
    let correct = failed == 0 && lag_ok && m.all_finite();
    let info = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": \"{}\", \
         \"writers\": {}, \"sessions\": {}, \"frames\": {}, \"reads\": {}, \"window_s\": {:.3}, \
         \"server_cpu_s\": {:.4}, \"generator_cpu_s\": {:.4}, \"worker_cpu_s\": {:.4}, \"reactor_cpu_s\": {:.4}, \
         \"sessions_evicted\": {}, \"session_closed_notices\": {}, \"failures\": \"{:?}\", \"gen_lag_mean_ms\": {:.4}, \
         \"gen_lag_worst_p99_ms\": {:.4}, \"process_peak_rss_mb\": {:.3}, \"positions_per_raw_cpu_s\": {:.2}, \"host_factor\": {:.4}, \"steal_shares\": {:?}, \"valid\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        args.commit.replace(['"', '\\'], ""),
        writers,
        schedule.sessions.len(),
        schedule.frames.len(),
        schedule.reads,
        plain.window_s,
        plain.server_cpu_s,
        plain.split.generator,
        plain.split.workers,
        plain.split.reactor,
        plain.telemetry.sessions_evicted,
        plain.closed,
        failures,
        mean(&plain.gen_lag_ms),
        lag_worst,
        cpu::peak_rss_mb(),
        plain_ppcs,
        host_factor,
        plain_steal,
        lag_ok,
    );
    println!("{info}");
    if !lag_ok {
        eprintln!(
            "perfbench: run invalid: generator p99 lag {lag_worst:.2} ms exceeds one {:.0} ms tick",
            TICK_S * 1e3
        );
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} of {attempted} operations failed: {failures:?}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
