//! The live pass: the schedule driven open-loop over loopback TCP through
//! the reactor front end into the tracking service.
//!
//! One connection carries every session, as one gateway would: a sender
//! thread writes each frame when it falls due (subscribing to a session's
//! positions just before its first frame), and a receiver thread collects
//! acks and position updates. Every latency is clocked from when the
//! frame that completed the position was due, not from when it was sent.

use crate::cpu;
use crate::oracle::Oracle;
use crate::workload::{template, Schedule};
use rfidraw_metrics::TraceSettings;
use rfidraw_net::{FrameDecoder, RawFrame, ReactorStats, DEFAULT_MAX_PAYLOAD};
use rfidraw_protocol::Epc;
use rfidraw_serve::wire::{IngestBatch, Message, Subscribe};
use rfidraw_serve::{
    wire3, Frontend, ReactorServer, ServeConfig, TelemetryReport, TrackingService,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long after the last due time the run waits for stragglers.
const DRAIN_DEADLINE_S: f64 = 15.0;
/// How many times set-up is repeated to take its median.
const SETUPS: usize = 9;

/// Every frame of the schedule, wire-v3 encoded into one buffer.
pub struct Encoded {
    bytes: Vec<u8>,
    /// `ends[k]` is where frame `k`'s bytes end (subscribe frame, if any,
    /// included ahead of the ingest frame).
    ends: Vec<usize>,
    /// Where each frame's ingest bytes start (after any subscribe frame).
    ingest_starts: Vec<usize>,
}

impl Encoded {
    /// Encodes the schedule's frames, each session's first frame preceded
    /// by a `Subscribe` for that session.
    pub fn new(schedule: &Schedule) -> Self {
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(schedule.frames.len());
        let mut ingest_starts = Vec::with_capacity(schedule.frames.len());
        let mut subscribed = vec![false; schedule.sessions.len()];
        for f in &schedule.frames {
            let epc = schedule.sessions[f.session].epc;
            if !std::mem::replace(&mut subscribed[f.session], true) {
                bytes.extend(wire3::encode_frame(&Message::Subscribe(Subscribe { epc })));
            }
            ingest_starts.push(bytes.len());
            bytes.extend(wire3::encode_frame(&Message::Ingest(IngestBatch {
                epc,
                reads: f.reads.clone(),
            })));
            ends.push(bytes.len());
        }
        Self {
            bytes,
            ends,
            ingest_starts,
        }
    }

    /// The ingest frame bytes of frame `k`.
    pub fn ingest(&self, k: usize) -> &[u8] {
        &self.bytes[self.ingest_starts[k]..self.ends[k]]
    }
}

/// A started service with its reactor front end.
pub struct Server {
    /// The service.
    pub service: TrackingService,
    /// The reactor front end.
    pub reactor: ReactorServer,
    /// Seconds from service start until ready.
    pub setup_s: f64,
    /// Milliseconds the cold vote-table build took within set-up.
    pub cold_build_ms: f64,
}

impl Server {
    /// Starts the service with every knob at its default except the
    /// session cap, binds the reactor on loopback, and builds the shared
    /// vote tables by building one tracker from the service's template.
    pub fn start(max_sessions: usize, observability: bool) -> Self {
        let start = Instant::now();
        let mut cfg = ServeConfig::new(template());
        cfg.max_sessions = max_sessions;
        if observability {
            cfg.observability = Some(TraceSettings::default());
        }
        let tracker = cfg.tracker.clone();
        let service = TrackingService::start(cfg.clone());
        let reactor = match Frontend::bind("127.0.0.1:0", service.client(), &cfg.net) {
            Ok(Frontend::Reactor(r)) => r,
            Ok(_) => panic!("the default front end is the reactor"),
            Err(e) => panic!("bind loopback: {e}"),
        };
        let build = Instant::now();
        drop(tracker.build());
        let cold_build_ms = build.elapsed().as_secs_f64() * 1e3;
        let setup_s = start.elapsed().as_secs_f64();
        Self {
            service,
            reactor,
            setup_s,
            cold_build_ms,
        }
    }

    /// Stops the reactor, then the service.
    pub fn stop(mut self) {
        self.reactor.shutdown().expect("reactor shutdown");
        drop(self.service);
    }
}

/// Starts and stops the server [`SETUPS`] − 1 times, then starts it once
/// more for the run. Returns that server and the median set-up time and
/// cold-build time over all [`SETUPS`] starts.
pub fn setup(max_sessions: usize, observability: bool) -> (Server, f64, f64) {
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    for _ in 1..SETUPS {
        let s = Server::start(max_sessions, observability);
        setups.push(s.setup_s);
        builds.push(s.cold_build_ms);
        s.stop();
    }
    let s = Server::start(max_sessions, observability);
    setups.push(s.setup_s);
    builds.push(s.cold_build_ms);
    (
        s,
        crate::stats::median(&mut setups),
        crate::stats::median(&mut builds),
    )
}

/// Counts of every failure class.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    /// Frames whose ack reported rejected or dropped reads, or an ack for
    /// the wrong tag or read count.
    pub bad_acks: u64,
    /// Frames never acked.
    pub unacked: u64,
    /// Expected positions never delivered.
    pub missing: u64,
    /// Delivered positions that differ from the oracle, or that it did not
    /// expect.
    pub mismatched: u64,
    /// Error replies from the server.
    pub errors: u64,
}

impl Failures {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.bad_acks + self.unacked + self.missing + self.mismatched + self.errors
    }

    /// Adds another pass's counts.
    pub fn absorb(&mut self, other: Failures) {
        self.bad_acks += other.bad_acks;
        self.unacked += other.unacked;
        self.missing += other.missing;
        self.mismatched += other.mismatched;
        self.errors += other.errors;
    }
}

/// The outcome of one live pass.
pub struct LiveResult {
    /// Read-to-position latency of every matched position (ms).
    pub latency_ms: Vec<f64>,
    /// The same for each session's first position (ms).
    pub first_latency_ms: Vec<f64>,
    /// How late each frame was sent against its due time (ms).
    pub gen_lag_ms: Vec<f64>,
    /// Positions delivered in the window.
    pub delivered: u64,
    /// Server CPU seconds in the window: process CPU minus the
    /// benchmark's own threads.
    pub server_cpu_s: f64,
    /// The window's CPU by thread class.
    pub split: cpu::Split,
    /// Wall seconds from the first due time until the last delivery.
    pub window_s: f64,
    /// Peak RSS during the pass, above the RSS just before it (MiB).
    pub peak_rss_mb: f64,
    /// Failure counts.
    pub failures: Failures,
    /// Operations attempted: frames sent plus positions expected.
    pub attempted: u64,
    /// Session-closed notices (idle eviction; none in runs under 30 s).
    pub closed: u64,
    /// Service telemetry at the end of the pass.
    pub telemetry: TelemetryReport,
    /// Reactor counters at the end of the pass.
    pub net: NetCounters,
    /// Most sessions seen live at once (sampled; traced passes only).
    pub sessions_live_peak: u64,
    /// Share of the CPU time the box wanted during the window that the
    /// hypervisor gave to other guests instead (steal time).
    pub steal_share: f64,
}

/// The reactor counters the ledger uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetCounters {
    /// Binary frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Wakeup-pipe firings.
    pub wakeups: u64,
    /// Reads that resumed a partial frame.
    pub partial_resumes: u64,
}

impl NetCounters {
    fn read(s: &ReactorStats) -> Self {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Self {
            frames_in: g(&s.frames_in_binary) + g(&s.frames_in_json),
            frames_out: g(&s.frames_out),
            bytes_in: g(&s.bytes_in),
            bytes_out: g(&s.bytes_out),
            wakeups: g(&s.wakeups),
            partial_resumes: g(&s.partial_resumes),
        }
    }
}

fn send_loop(
    mut stream: TcpStream,
    schedule: &Schedule,
    encoded: &Encoded,
    start: Instant,
    lag_ms: &mut [f64],
    sent: &AtomicBool,
    stop: &AtomicBool,
) {
    cpu::tighten_timer_slack();
    let n = schedule.frames.len();
    let mut next = 0;
    let mut from = 0;
    while next < n {
        let now = start.elapsed().as_secs_f64();
        let first = next;
        while next < n && schedule.frames[next].due <= now {
            lag_ms[next] = (now - schedule.frames[next].due) * 1e3;
            next += 1;
        }
        if next > first {
            let to = encoded.ends[next - 1];
            stream
                .write_all(&encoded.bytes[from..to])
                .expect("send frames");
            from = to;
        }
        if next < n {
            let wait = schedule.frames[next].due - start.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
        }
    }
    sent.store(true, Ordering::Release);
    // Stay alive until the window closes so this thread's CPU is still
    // counted as the generator's when the window is measured.
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Checks deliveries against the oracle as they arrive. Its buffers are
/// sized and written before the pass starts, so the pass's RSS growth is
/// the server's, not the checker's.
struct Checker<'a> {
    schedule: &'a Schedule,
    oracle: &'a Oracle,
    index: HashMap<Epc, usize>,
    /// Where each session's positions start in `latency_ms`.
    base: Vec<usize>,
    /// Positions delivered so far per session.
    next: Vec<usize>,
    /// Latency of each expected position (ms); NaN until it arrives intact.
    latency_ms: Vec<f64>,
    acks: usize,
    failures: Failures,
    closed: u64,
}

impl<'a> Checker<'a> {
    fn new(schedule: &'a Schedule, oracle: &'a Oracle) -> Self {
        let mut base = Vec::with_capacity(oracle.positions.len());
        let mut total = 0;
        for p in &oracle.positions {
            base.push(total);
            total += p.len();
        }
        Self {
            schedule,
            oracle,
            index: schedule
                .sessions
                .iter()
                .enumerate()
                .map(|(i, s)| (s.epc, i))
                .collect(),
            base,
            next: vec![0; oracle.positions.len()],
            latency_ms: vec![f64::NAN; total],
            acks: 0,
            failures: Failures::default(),
            closed: 0,
        }
    }

    fn ack(&mut self, epc: Epc, accepted: u64, dropped: u64, rejected: u64) {
        let ok = self.schedule.frames.get(self.acks).is_some_and(|f| {
            epc == self.schedule.sessions[f.session].epc
                && accepted == f.reads.len() as u64
                && dropped == 0
                && rejected == 0
        });
        if !ok {
            self.failures.bad_acks += 1;
        }
        self.acks += 1;
    }

    fn position(&mut self, epc: Epc, bits: [u64; 3], at_s: f64) {
        let Some(&s) = self.index.get(&epc) else {
            self.failures.mismatched += 1;
            return;
        };
        let j = self.next[s];
        self.next[s] += 1;
        match self.oracle.positions[s].get(j) {
            Some(e) if e.bits == bits => {
                self.latency_ms[self.base[s] + j] =
                    (at_s - self.schedule.frames[e.frame].due) * 1e3;
            }
            _ => self.failures.mismatched += 1,
        }
    }

    /// Final failure counts, with never-delivered positions and never-acked
    /// frames added.
    fn failures(&self) -> Failures {
        let mut f = self.failures;
        f.unacked = self.schedule.frames.len().saturating_sub(self.acks) as u64;
        f.missing = self
            .oracle
            .positions
            .iter()
            .zip(&self.next)
            .map(|(p, &n)| p.len().saturating_sub(n) as u64)
            .sum();
        f
    }
}

fn receive_loop(
    mut stream: TcpStream,
    start: Instant,
    checker: &mut Checker<'_>,
    acks: &AtomicU64,
    positions: &AtomicU64,
    stop: &AtomicBool,
) {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set read timeout");
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Err(e) => panic!("receive: {e}"),
        }
        let at_s = start.elapsed().as_secs_f64();
        while let Some(frame) = decoder.next().expect("server frames are well formed") {
            let RawFrame::Binary(bin) = frame else {
                checker.failures.errors += 1;
                continue;
            };
            match wire3::decode_frame(&bin) {
                Ok(Message::IngestAck(a)) => {
                    checker.ack(a.epc, a.accepted, a.dropped, a.rejected);
                    acks.fetch_add(1, Ordering::Release);
                }
                Ok(Message::PositionUpdate(p)) => {
                    checker.position(p.epc, [p.t.to_bits(), p.x.to_bits(), p.z.to_bits()], at_s);
                    positions.fetch_add(1, Ordering::Release);
                }
                Ok(Message::SessionClosed(_)) => checker.closed += 1,
                _ => checker.failures.errors += 1,
            }
        }
    }
}

/// Drives `schedule` through a freshly set-up server and checks every
/// delivery against `oracle`.
pub fn run(
    schedule: &Schedule,
    encoded: &Encoded,
    oracle: &Oracle,
    server: Server,
    traced: bool,
) -> LiveResult {
    let expected_positions: u64 = oracle.positions.iter().map(|p| p.len() as u64).sum();
    let n_frames = schedule.frames.len() as u64;
    let stream = TcpStream::connect(server.reactor.local_addr()).expect("connect to the reactor");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let rx_stream = stream.try_clone().expect("clone the client socket");
    let client = server.service.client();

    let acks = AtomicU64::new(0);
    let positions = AtomicU64::new(0);
    let sent = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let last_due = schedule.frames.last().map_or(0.0, |f| f.due);
    let mut live_peak = 0;
    let mut checker = Checker::new(schedule, oracle);
    let mut lag_ms = vec![f64::NAN; schedule.frames.len()];

    let rss_before = cpu::rss_mb();
    let peak_reset = cpu::reset_peak_rss();
    let threads_before = cpu::threads();
    let process_before = cpu::process_cpu_s();
    let machine_before = cpu::machine_ticks();
    let start = Instant::now();
    let (window_s, threads_after, process_after, machine_after) = std::thread::scope(|scope| {
        let (lag, checker, sent, stop, acks, positions) =
            (&mut lag_ms, &mut checker, &sent, &stop, &acks, &positions);
        let sender = std::thread::Builder::new()
            .name("perfbench-send".into())
            .spawn_scoped(scope, move || {
                send_loop(stream, schedule, encoded, start, lag, sent, stop)
            })
            .expect("spawn sender");
        let receiver = std::thread::Builder::new()
            .name("perfbench-recv".into())
            .spawn_scoped(scope, move || {
                receive_loop(rx_stream, start, checker, acks, positions, stop)
            })
            .expect("spawn receiver");
        let deadline = last_due + DRAIN_DEADLINE_S;
        let mut last_sample = -1.0;
        loop {
            let now = start.elapsed().as_secs_f64();
            let done = sent.load(Ordering::Acquire)
                && acks.load(Ordering::Acquire) >= n_frames
                && positions.load(Ordering::Acquire) >= expected_positions;
            if done || now > deadline {
                break;
            }
            if traced && now - last_sample >= 0.25 {
                live_peak = live_peak.max(client.telemetry().active_sessions);
                last_sample = now;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let window_s = start.elapsed().as_secs_f64();
        let threads_after = cpu::threads();
        let process_after = cpu::process_cpu_s();
        let machine_after = cpu::machine_ticks();
        stop.store(true, Ordering::Release);
        sender.join().expect("sender thread");
        receiver.join().expect("receiver thread");
        (window_s, threads_after, process_after, machine_after)
    });
    let peak_rss_mb = if peak_reset {
        cpu::peak_rss_mb() - rss_before
    } else {
        cpu::peak_rss_mb()
    };
    let split = cpu::split(&threads_before, &threads_after);
    let server_cpu_s = (process_after - process_before) - split.generator;
    let busy = machine_after.0.saturating_sub(machine_before.0);
    let stolen = machine_after.1.saturating_sub(machine_before.1);
    let steal_share = if busy + stolen == 0 {
        0.0
    } else {
        stolen as f64 / (busy + stolen) as f64
    };

    let telemetry = server.service.telemetry();
    let net = NetCounters::read(&server.reactor.stats());
    if traced {
        live_peak = live_peak.max(telemetry.active_sessions);
    }
    server.stop();

    let first_latency_ms = (checker.base.iter().zip(&oracle.positions))
        .filter(|(_, expected)| !expected.is_empty())
        .map(|(&b, _)| checker.latency_ms[b])
        .filter(|v| !v.is_nan())
        .collect();
    LiveResult {
        latency_ms: checker
            .latency_ms
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect(),
        first_latency_ms,
        gen_lag_ms: lag_ms,
        delivered: positions.load(Ordering::Acquire),
        server_cpu_s,
        split,
        window_s,
        peak_rss_mb,
        failures: checker.failures(),
        attempted: n_frames + expected_positions,
        closed: checker.closed,
        telemetry,
        net,
        sessions_live_peak: live_peak,
        steal_share,
    }
}
