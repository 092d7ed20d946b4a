//! The multi-session tracking service: registry, worker pool, client
//! handle.
//!
//! [`TrackingService::start`] owns the worker threads; [`LocalClient`] is
//! the cheap, cloneable in-process handle that ingest paths, subscribers,
//! and the TCP front-end ([`crate::net`]) all share. Sessions spin up
//! lazily — the first read (or subscription) for an unseen EPC builds a
//! tracker from the configured template — and die by idle timeout,
//! explicit close, or shutdown.
//!
//! **Event-driven draining.** Every enqueue that accepts a read marks its
//! session ready: the session joins a FIFO ready queue (at most once, by
//! its `queued` flag) and one sleeping worker is woken. A worker takes the
//! session at the head, drains at most `drain_batch` reads, and puts it
//! back at the tail if reads remain, so a hot tag cannot starve the rest
//! and idle sessions cost nothing. The idle sweep runs at a deadline — the
//! earliest instant a session can go idle — not on a heartbeat.
//!
//! **Opening lane.** A producer's mark puts a session that has not yet
//! delivered a position in a second FIFO that workers serve first, but
//! never twice in a row while tracking sessions wait. Its first position
//! is the time until a new tag's cursor appears and its heaviest drain
//! (acquisition), and a gateway's window burst tends to deliver it last.
//!
//! **Ready-queue invariant.** A session with queued reads is in the ready
//! queue or held by the one worker draining it. The worker clears
//! `queued` only after releasing the session, then re-checks the queue
//! depth; a producer enqueues under the queue lock and then swaps `queued`
//! to `true`. Both flag accesses are `SeqCst` read-modify-writes, so
//! either the producer's swap comes last and sees `false` (it queues the
//! session), or the worker's swap reads the producer's `true` and
//! synchronizes with it, so its depth check sees the read and re-queues
//! the session. No read is stranded.
//!
//! **Determinism.** A session is in the queue at most once and leaves the
//! `queued` state only after its drain finished, so it has at most one
//! drainer at a time. That keeps each session's read order exactly the
//! ingest order — multiplexing many tags through the service changes
//! *scheduling*, never *results* (enforced bit-for-bit by the crate's
//! integration tests).

use crate::config::ServeConfig;
use crate::registry::ShardedRegistry;
use crate::session::{CloseReason, IngestReceipt, Notify, SessionEvent, SessionShared};
use crate::telemetry::{GlobalMetrics, NetTelemetry, TelemetryReport};
use rfidraw_core::geom::Point2;
use rfidraw_core::obs::Stage;
use rfidraw_core::stream::PhaseRead;
use rfidraw_metrics::{TraceDump, TraceRecorder};
use rfidraw_protocol::Epc;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors the service surfaces to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A new session was needed but the registry is at `max_sessions`.
    SessionLimit {
        /// The configured cap.
        max: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::SessionLimit { max } => {
                write!(f, "session registry is full ({max} sessions)")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A read-only view of one session's tracking state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionView {
    /// The session's tag.
    pub epc: Epc,
    /// The best candidate's trajectory so far.
    pub trajectory: Vec<Point2>,
    /// Whether acquisition has completed.
    pub tracking: bool,
    /// Candidates still alive.
    pub alive_candidates: usize,
    /// The live estimate.
    pub current: Option<Point2>,
    /// Whether the tracker is running on a reduced antenna-pair set.
    pub degraded: bool,
    /// Subscriptions registered on the session, in-process and wire alike
    /// (see [`crate::WireClient::subscribe`] for why a wire client may
    /// need to wait for this).
    pub subscribers: usize,
}

/// The workers' shared scheduling state (see the module docs).
struct Ready {
    /// Sessions with reads to drain, oldest first, each at most once
    /// across both lanes.
    sessions: VecDeque<Arc<SessionShared>>,
    /// Sessions marked ready by a producer before their first position:
    /// that wait is the time until a new tag's cursor appears.
    opening: VecDeque<Arc<SessionShared>>,
    /// Whether the last pop came from `opening`.
    opening_last: bool,
    /// When the next idle sweep is due: never later than the earliest
    /// instant a live session can go idle.
    next_sweep: Instant,
}

impl Ready {
    /// The next session to drain: the opening lane first, but never twice
    /// in a row while tracking sessions wait, so a flood of new tags
    /// cannot starve the sessions already tracking.
    fn pop(&mut self) -> Option<Arc<SessionShared>> {
        let opening = !self.opening.is_empty() && (!self.opening_last || self.sessions.is_empty());
        self.opening_last = opening;
        if opening {
            self.opening.pop_front()
        } else {
            self.sessions.pop_front()
        }
    }
}

struct ServiceInner {
    cfg: ServeConfig,
    /// EPC-sharded session registry (see [`crate::registry`]): sessions
    /// are placed by EPC hash and never migrate; lookups and inserts lock
    /// one shard instead of a global map.
    registry: ShardedRegistry,
    ready: Mutex<Ready>,
    /// Workers sleep here until a session is marked ready, the sweep is
    /// due, or the service shuts down.
    work: Condvar,
    global: GlobalMetrics,
    shutdown: AtomicBool,
    /// Network front-end counter blocks registered by `Frontend::bind`,
    /// folded into every telemetry snapshot.
    net_sources: Mutex<Vec<Arc<rfidraw_net::ReactorStats>>>,
}

impl ServiceInner {
    fn get_or_create(&self, epc: Epc) -> Result<Arc<SessionShared>, ServeError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let built = self.registry.get_or_insert(epc, self.cfg.max_sessions, || {
            let mut tracker = self.cfg.tracker.build();
            // The per-session tracker emits core hot-path events (phase
            // unwrap, lobe locking, vote flips, stale resets, degradation)
            // into the shared recorder, tagged with the session id. It is
            // the only source of the StaleReset and Degraded anomalies.
            if let Some(rec) = &self.global.trace {
                let sink: rfidraw_core::obs::SharedSink = Arc::clone(rec) as _;
                tracker.set_trace_sink(Some(sink), crate::session::session_id(epc));
            }
            Arc::new(SessionShared::new(epc, tracker, self.cfg.cursor.as_ref()))
        });
        match built {
            Ok((session, inserted)) => {
                if inserted {
                    self.global.sessions_opened.inc();
                }
                Ok(session)
            }
            Err(crate::registry::RegistryFull) => {
                self.global.sessions_rejected.inc();
                Err(ServeError::SessionLimit { max: self.cfg.max_sessions })
            }
        }
    }

    fn ready(&self) -> std::sync::MutexGuard<'_, Ready> {
        self.ready.lock().expect("ready lock")
    }

    /// Queues `session` for draining unless it is already queued, and
    /// wakes one worker. A producer's mark puts a session that has not
    /// delivered a position yet in the opening lane; a worker's re-queue
    /// of a partly drained session always goes to the tracking lane.
    fn mark_ready(&self, session: &Arc<SessionShared>, producer: bool) {
        if !session.queued.swap(true, Ordering::SeqCst) {
            let mut ready = self.ready();
            if producer && session.metrics.positions.get() == 0 {
                ready.opening.push_back(Arc::clone(session));
            } else {
                ready.sessions.push_back(Arc::clone(session));
            }
            drop(ready);
            self.work.notify_one();
        }
    }

    /// Drains one session taken from the ready queue: at most
    /// `drain_batch` reads, then back to the tail if reads remain. Returns
    /// reads processed.
    fn drain_ready(&self, session: Arc<SessionShared>) -> usize {
        // Queued sessions have one drainer (see the module docs), so the
        // claim only tells the idle sweep and `quiesce` to keep off.
        let was_claimed = session.claimed.swap(true, Ordering::AcqRel);
        debug_assert!(!was_claimed, "a ready session has one drainer");
        let processed = session.drain(self.cfg.drain_batch, &self.global);
        self.registry.note_drain(session.epc, processed);
        session.claimed.store(false, Ordering::Release);
        session.queued.swap(false, Ordering::SeqCst);
        if session.queue_depth() > 0 {
            self.mark_ready(&session, false);
        } else if session.idle_for() >= self.cfg.idle_timeout && !session.is_closed() {
            // The sweep skipped it while it was busy: sweep again now.
            self.ready().next_sweep = Instant::now();
        }
        processed
    }

    /// Runs the idle sweep if it is due.
    fn sweep_if_due(&self) {
        let now = Instant::now();
        {
            let mut ready = self.ready();
            if ready.next_sweep > now {
                return;
            }
            ready.next_sweep = later(now, self.cfg.idle_timeout);
        }
        let next = self.sweep_idle();
        let mut ready = self.ready();
        // A drain may have asked for an earlier sweep meanwhile.
        ready.next_sweep = ready.next_sweep.min(next);
    }

    /// Evicts sessions whose last ingest is older than the idle timeout.
    /// Returns when the next sweep is due: the earliest instant a
    /// remaining session can go idle, and never later than one timeout
    /// from now (a session created after this sweep goes idle no sooner).
    fn sweep_idle(&self) -> Instant {
        let now = Instant::now();
        let (evicted, next) = self.registry.take_idle(self.cfg.idle_timeout);
        // Count before closing: the close is what subscribers observe, so
        // the books must already show it.
        for s in evicted {
            self.global.sessions_evicted.inc();
            s.close(CloseReason::Idle, &self.global);
        }
        let bound = later(now, self.cfg.idle_timeout);
        next.map_or(bound, |n| n.min(bound))
    }

    /// Wire-boundary refusal accounting: a batch of `total` reads was
    /// refused before enqueue because `invalid` of them failed validation.
    /// Counts globally always; per-session only when the target session
    /// already exists — a hostile batch must not create one.
    fn note_invalid_ingest(&self, epc: Epc, total: u64, invalid: u64) {
        self.global.rejected.add(total);
        self.global.invalid.add(invalid);
        if let Some(s) = self.registry.get(epc) {
            s.note_invalid_ingest(total, invalid);
        }
        if let Some(rec) = self.global.trace.as_deref() {
            rec.record_anomaly(
                crate::session::session_id(epc),
                Stage::InvalidRead,
                total as f64,
                invalid as f64,
            );
        }
    }

    fn telemetry(&self) -> TelemetryReport {
        let sessions: Vec<Arc<SessionShared>> = self.registry.snapshot_sorted();
        let cache = self.cfg.tracker.table_cache_stats();
        let net = {
            let sources = self.net_sources.lock().expect("net sources lock");
            let mut net = NetTelemetry::default();
            for s in sources.iter() {
                net.absorb(s);
            }
            net
        };
        TelemetryReport {
            active_sessions: sessions.len() as u64,
            sessions_opened: self.global.sessions_opened.get(),
            sessions_evicted: self.global.sessions_evicted.get(),
            sessions_closed: self.global.sessions_closed.get(),
            sessions_rejected: self.global.sessions_rejected.get(),
            reads_ingested: self.global.ingested.get(),
            reads_dropped: self.global.dropped.get(),
            reads_rejected: self.global.rejected.get(),
            reads_invalid: self.global.invalid.get(),
            reads_processed: self.global.processed.get(),
            positions: self.global.positions.get(),
            stale_resets: self.global.stale_resets.get(),
            degraded_events: self.global.degraded.get(),
            windowed_evals: self.global.windowed.get(),
            parked_reads: self.global.parked_reads.get(),
            readmissions: self.global.readmissions.get(),
            parked_rejected: self.global.parked_rejected.get(),
            parked_discarded: self.global.parked_discarded.get(),
            table_cache_hits: cache.as_ref().map_or(0, |c| c.hits),
            table_cache_misses: cache.as_ref().map_or(0, |c| c.misses),
            table_cache_bytes: cache.as_ref().map_or(0, |c| c.resident_bytes),
            table_cache_evictions: cache.as_ref().map_or(0, |c| c.evictions),
            table_cache_bytes_by_precision: cache
                .as_ref()
                .map_or([0; 4], |c| c.resident_bytes_by_precision),
            table_cache_slot_drops: cache.as_ref().map_or(0, |c| c.slot_drops),
            latency: self.global.latency.snapshot(),
            queue_wait: self.global.queue_wait.snapshot(),
            compute: self.global.compute.snapshot(),
            stages: self
                .global
                .trace
                .as_ref()
                .map(|r| r.stage_latencies())
                .unwrap_or_default(),
            net,
            shards: self.registry.telemetry(),
            sessions: sessions.iter().map(|s| s.telemetry()).collect(),
        }
    }
}

/// The cloneable in-process client handle.
///
/// Cloning shares the same service; handles stay valid for the service's
/// lifetime (calls after shutdown return [`ServeError::ShuttingDown`] /
/// rejected reads).
#[derive(Clone)]
pub struct LocalClient {
    inner: Arc<ServiceInner>,
}

impl LocalClient {
    /// Routes a batch of reads into `epc`'s session (created lazily),
    /// applying the configured backpressure policy.
    ///
    /// Reads for one tag must be ingested in time order (the order an
    /// inventory produces them); batches from concurrent producers for
    /// *different* tags interleave freely.
    pub fn ingest(&self, epc: Epc, reads: &[PhaseRead]) -> Result<IngestReceipt, ServeError> {
        let session = self.inner.get_or_create(epc)?;
        let receipt = session.enqueue(
            reads,
            self.inner.cfg.backpressure,
            self.inner.cfg.queue_capacity,
            &self.inner.global,
            &|| self.inner.mark_ready(&session, true),
        );
        Ok(receipt)
    }

    /// Subscribes to a session's event stream (created lazily). Events
    /// arrive in processing order; a [`SessionEvent::Closed`] is always
    /// last.
    pub fn subscribe(&self, epc: Epc) -> Result<mpsc::Receiver<SessionEvent>, ServeError> {
        let session = self.inner.get_or_create(epc)?;
        Ok(session.subscribe(None))
    }

    /// [`subscribe`](Self::subscribe) plus a notifier the session calls
    /// after each batch of events it sends (the reactor front end lists
    /// the subscription as ready with it).
    pub(crate) fn subscribe_notify(
        &self,
        epc: Epc,
        notify: Notify,
    ) -> Result<mpsc::Receiver<SessionEvent>, ServeError> {
        let session = self.inner.get_or_create(epc)?;
        Ok(session.subscribe(Some(notify)))
    }

    /// Closes a session explicitly; returns whether it existed. Anything
    /// still queued is discarded and counted as dropped.
    pub fn close_session(&self, epc: Epc) -> bool {
        match self.inner.registry.remove(epc) {
            Some(s) => {
                self.inner.global.sessions_closed.inc();
                s.close(CloseReason::Explicit, &self.inner.global);
                true
            }
            None => false,
        }
    }

    /// A snapshot of one session's tracking state.
    pub fn session_view(&self, epc: Epc) -> Option<SessionView> {
        let session = self.inner.registry.get(epc)?;
        let trajectory = session.trajectory();
        let (tracking, alive_candidates, current) = session.tracker_state();
        let degraded = session.is_degraded();
        let subscribers = session.subscriber_count();
        Some(SessionView {
            epc,
            trajectory,
            tracking,
            alive_candidates,
            current,
            degraded,
            subscribers,
        })
    }

    /// The EPCs of all live sessions, in order.
    pub fn active_sessions(&self) -> Vec<Epc> {
        self.inner.registry.snapshot_sorted().iter().map(|s| s.epc).collect()
    }

    /// A serializable snapshot of all counters and the latency histogram.
    pub fn telemetry(&self) -> TelemetryReport {
        self.inner.telemetry()
    }

    /// The shared pipeline trace recorder, when configured.
    pub fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.global.trace.clone()
    }

    /// Flight-recorder dumps captured so far (empty without a recorder).
    pub fn trace_dumps(&self) -> Vec<TraceDump> {
        self.inner.global.trace.as_ref().map(|r| r.dumps()).unwrap_or_default()
    }

    /// The full telemetry report rendered in Prometheus text format.
    pub fn prometheus(&self) -> String {
        self.inner.telemetry().to_prometheus()
    }

    /// Resolves (creating lazily) the session a non-blocking ingest will
    /// admit into. The reactor front end splits session lookup from
    /// admission so it can hold the session across park/retry cycles.
    pub(crate) fn session_for_ingest(&self, epc: Epc) -> Result<Arc<SessionShared>, ServeError> {
        self.inner.get_or_create(epc)
    }

    /// The shared global counter block (non-blocking ingest paths book
    /// their own accounting through it).
    pub(crate) fn metrics(&self) -> &GlobalMetrics {
        &self.inner.global
    }

    /// The service configuration (policy/capacity for admission).
    pub(crate) fn serve_config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// Marks a session ready after an out-of-band admission (the
    /// reactor's non-blocking ingest path enqueues without going through
    /// `ingest`).
    pub(crate) fn mark_ready(&self, session: &Arc<SessionShared>) {
        self.inner.mark_ready(session, true);
    }

    /// Records a wire-validation refusal without touching the session
    /// registry (hostile batches never create sessions).
    pub(crate) fn note_invalid_ingest(&self, epc: Epc, total: u64, invalid: u64) {
        self.inner.note_invalid_ingest(epc, total, invalid);
    }

    /// Registers a network front end's counter block so every telemetry
    /// snapshot includes its connection/frame accounting.
    pub(crate) fn register_net_stats(&self, stats: Arc<rfidraw_net::ReactorStats>) {
        self.inner.net_sources.lock().expect("net sources lock").push(stats);
    }
}

/// The service: owns the registry and the worker pool.
pub struct TrackingService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl TrackingService {
    /// Starts the service. With `cfg.workers = Some(p)` this spawns
    /// `p.thread_count()` draining threads; with `None` the owner drives
    /// processing via [`TrackingService::pump`].
    ///
    /// # Panics
    /// Panics on a zero queue capacity, zero drain batch, or zero session
    /// cap.
    pub fn start(cfg: ServeConfig) -> Self {
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.drain_batch > 0, "drain batch must be positive");
        assert!(cfg.max_sessions > 0, "session cap must be positive");
        assert!(cfg.shards > 0, "shard count must be positive");
        let worker_count = cfg.workers.map(|p| p.thread_count()).unwrap_or(0);
        let recorder = cfg.observability.as_ref().map(|s| Arc::new(TraceRecorder::new(s.clone())));
        let registry = ShardedRegistry::new(cfg.shards);
        let next_sweep = later(Instant::now(), cfg.idle_timeout);
        let inner = Arc::new(ServiceInner {
            cfg,
            registry,
            ready: Mutex::new(Ready {
                sessions: VecDeque::new(),
                opening: VecDeque::new(),
                opening_last: false,
                next_sweep,
            }),
            work: Condvar::new(),
            global: GlobalMetrics::new(recorder),
            shutdown: AtomicBool::new(false),
            net_sources: Mutex::new(Vec::new()),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rfidraw-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// A client handle (cheap to clone, freely shareable across threads).
    pub fn client(&self) -> LocalClient {
        LocalClient { inner: Arc::clone(&self.inner) }
    }

    /// Drains each session that is ready when the call starts once (at
    /// most `drain_batch` reads each), then runs the idle sweep if it is
    /// due; returns the number of reads processed. This is the processing
    /// engine in manual mode (`workers: None`) and is also safe alongside
    /// worker threads (each ready session has one drainer).
    pub fn pump(&self) -> usize {
        let ready = {
            let mut ready = self.inner.ready();
            let mut all = std::mem::take(&mut ready.opening);
            all.append(&mut ready.sessions);
            all
        };
        let n = ready.into_iter().map(|s| self.inner.drain_ready(s)).sum();
        self.inner.sweep_if_due();
        n
    }

    /// Blocks until every queue is empty and no worker is mid-batch. In
    /// manual mode this pumps on the calling thread.
    pub fn quiesce(&self) {
        loop {
            if self.workers.is_empty() {
                while self.pump() > 0 {}
            }
            let busy = self
                .inner
                .registry
                .snapshot()
                .iter()
                .any(|s| s.queue_depth() > 0 || s.claimed.load(Ordering::Acquire));
            if !busy {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A serializable snapshot of all counters and the latency histogram.
    pub fn telemetry(&self) -> TelemetryReport {
        self.inner.telemetry()
    }
}

impl Drop for TrackingService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // A worker checks the flag under the ready lock before it sleeps:
        // taking the lock here orders the store before that check or
        // after the sleep began, so the wakeup below is never lost.
        drop(self.inner.ready());
        self.inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Close every remaining session: unblocks producers, tells
        // subscribers the stream is over.
        for s in self.inner.registry.drain_all() {
            self.inner.global.sessions_closed.inc();
            s.close(CloseReason::Shutdown, &self.inner.global);
        }
    }
}

fn worker_loop(inner: &ServiceInner) {
    let mut ready = inner.ready();
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // The sweep goes first so a queue that never empties cannot
        // postpone eviction.
        let now = Instant::now();
        if ready.next_sweep <= now {
            drop(ready);
            inner.sweep_if_due();
            ready = inner.ready();
            continue;
        }
        if let Some(session) = ready.pop() {
            drop(ready);
            inner.drain_ready(session);
            ready = inner.ready();
            continue;
        }
        let wait = ready.next_sweep - now;
        ready = inner.work.wait_timeout(ready, wait).expect("ready lock").0;
    }
}

/// `from + after`, saturating far in the future instead of overflowing
/// (an idle timeout of `Duration::MAX` means "never").
fn later(from: Instant, after: Duration) -> Instant {
    from.checked_add(after).unwrap_or_else(|| from + Duration::from_secs(u64::from(u32::MAX)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackpressurePolicy, TrackerTemplate};
    use rfidraw_core::array::AntennaId;
    use rfidraw_core::geom::Rect;

    fn manual_service() -> TrackingService {
        let region = Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7));
        let mut cfg = ServeConfig::new(TrackerTemplate::paper_default(region));
        cfg.workers = None;
        cfg.backpressure = BackpressurePolicy::Block;
        cfg.drain_batch = 2;
        TrackingService::start(cfg)
    }

    fn reads(n: usize) -> Vec<PhaseRead> {
        (0..n)
            .map(|i| PhaseRead {
                t: i as f64 * 0.001,
                antenna: AntennaId(1 + (i % 8) as u8),
                phase: 0.5,
            })
            .collect()
    }

    fn lanes(service: &TrackingService) -> (Vec<Epc>, Vec<Epc>) {
        let ready = service.inner.ready();
        let epcs = |q: &VecDeque<Arc<SessionShared>>| q.iter().map(|s| s.epc).collect();
        (epcs(&ready.opening), epcs(&ready.sessions))
    }

    #[test]
    fn only_producer_marks_before_the_first_position_use_the_opening_lane() {
        let service = manual_service();
        let client = service.client();
        let (fresh, tracking) = (Epc::from_index(1), Epc::from_index(2));
        client.ingest(fresh, &reads(3)).unwrap();
        let session = service.inner.get_or_create(tracking).unwrap();
        session.metrics.positions.inc();
        client.ingest(tracking, &reads(1)).unwrap();
        assert_eq!(lanes(&service), (vec![fresh], vec![tracking]));

        // A partly drained session goes back to the tracking lane, even
        // though it has no position yet.
        let opening = service.inner.ready().pop().unwrap();
        assert_eq!(opening.epc, fresh);
        assert_eq!(service.inner.drain_ready(opening), 2);
        assert_eq!(lanes(&service), (vec![], vec![tracking, fresh]));
    }

    #[test]
    fn opening_lane_goes_first_but_never_twice_in_a_row_while_others_wait() {
        let service = manual_service();
        let client = service.client();
        let epcs: Vec<Epc> = (1..=5).map(Epc::from_index).collect();
        for &epc in &epcs {
            client.ingest(epc, &reads(1)).unwrap();
        }
        {
            let mut ready = service.inner.ready();
            // Move the last two to the tracking lane.
            for _ in 0..2 {
                let s = ready.opening.pop_back().unwrap();
                ready.sessions.push_front(s);
            }
        }
        let mut order = Vec::new();
        while let Some(s) = service.inner.ready().pop() {
            order.push(s.epc);
        }
        let [a, b, c, x, y] = epcs[..] else {
            unreachable!()
        };
        assert_eq!(order, vec![a, x, b, y, c]);
    }
}
