//! In-process service tests: determinism against standalone trackers,
//! backpressure accounting per policy, session lifecycle (idle eviction,
//! explicit close, the session cap).

use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::{AntennaId, Deployment};
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::online::OnlineEvent;
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::{
    BackpressurePolicy, ServeConfig, ServeError, SessionEvent, TrackerTemplate, TrackingService,
};
use std::collections::BTreeMap;
use std::time::Duration;

fn region() -> Rect {
    Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7))
}

fn template() -> TrackerTemplate {
    TrackerTemplate::paper_default(region())
}

/// 8 static tags spread across the tracking region, inventoried together
/// (they contend for ALOHA slots), demuxed into per-tag read streams.
fn eight_tag_streams(seed: u64, duration: f64) -> BTreeMap<Epc, Vec<PhaseRead>> {
    let plane = Plane::at_depth(2.0);
    let positions: Vec<Point2> = (0..8)
        .map(|i| Point2::new(0.7 + 0.4 * f64::from(i % 4), 0.6 + 0.7 * f64::from(i / 4)))
        .collect();
    let trajectories: Vec<Box<dyn Fn(f64) -> Point3>> = positions
        .iter()
        .map(|&p| {
            let f: Box<dyn Fn(f64) -> Point3> = Box::new(move |_t| plane.lift(p));
            f
        })
        .collect();
    let tags: Vec<SimTag<'_>> = trajectories
        .iter()
        .enumerate()
        .map(|(i, f)| SimTag { epc: Epc::from_index(i as u32 + 1), trajectory: f.as_ref() })
        .collect();
    let channel = Channel::new(Deployment::paper_default(), Scenario::Los.config(), seed);
    let mut sim = InventorySim::new(channel, InventoryConfig::paper_default(0.030, seed));
    demux_phase_reads(&sim.run(&tags, duration))
}

/// The reference: one standalone tracker per tag, fed in order.
fn standalone_positions(
    streams: &BTreeMap<Epc, Vec<PhaseRead>>,
) -> BTreeMap<Epc, (Vec<(f64, Point2)>, Vec<Point2>)> {
    let tpl = template();
    streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = tpl.build();
            let mut positions = Vec::new();
            for &r in reads {
                for e in tracker.push(r).unwrap() {
                    if let OnlineEvent::Position { t, pos } = e {
                        positions.push((t, pos));
                    }
                }
            }
            (epc, (positions, tracker.trajectory().to_vec()))
        })
        .collect()
}

fn bits(p: Point2) -> (u64, u64) {
    (p.x.to_bits(), p.z.to_bits())
}

#[test]
fn eight_concurrent_sessions_match_standalone_trackers_bit_for_bit() {
    let streams = eight_tag_streams(11, 3.0);
    assert_eq!(streams.len(), 8, "every tag should be read");
    let reference = standalone_positions(&streams);
    let total_reads: usize = streams.values().map(Vec::len).sum();
    // The scenario must actually exercise tracking, not just plumbing.
    let tracking_tags =
        reference.values().filter(|(positions, _)| !positions.is_empty()).count();
    assert!(
        tracking_tags >= 6,
        "only {tracking_tags}/8 reference trackers produced positions"
    );

    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(4));
    cfg.backpressure = BackpressurePolicy::Block;
    cfg.queue_capacity = 64; // small on purpose: force Block to engage
    cfg.drain_batch = 16;
    let service = TrackingService::start(cfg);
    let client = service.client();

    // One producer thread per tag (per-tag order is the producer's
    // contract), subscribed before the first read so no event is missed.
    let handles: Vec<_> = streams
        .iter()
        .map(|(&epc, reads)| {
            let client = client.clone();
            let reads = reads.clone();
            std::thread::spawn(move || {
                let events = client.subscribe(epc).expect("subscribe");
                for chunk in reads.chunks(32) {
                    let receipt = client.ingest(epc, chunk).expect("ingest");
                    assert_eq!(receipt.accepted as usize, chunk.len(), "Block is lossless");
                    assert_eq!(receipt.dropped, 0);
                    assert_eq!(receipt.rejected, 0);
                }
                (epc, events)
            })
        })
        .collect();
    let subscriptions: Vec<_> = handles.into_iter().map(|h| h.join().expect("producer")).collect();
    service.quiesce();

    for (&epc, (expected_positions, expected_trajectory)) in &reference {
        // Trajectory through the service == standalone, bit for bit.
        let view = client.session_view(epc).expect("session exists");
        assert_eq!(
            view.trajectory.iter().copied().map(bits).collect::<Vec<_>>(),
            expected_trajectory.iter().copied().map(bits).collect::<Vec<_>>(),
            "{epc}: trajectory diverged from the standalone tracker"
        );
        // And so is the live event stream the subscriber saw.
        let events = &subscriptions.iter().find(|(e, _)| *e == epc).expect("subscribed").1;
        let mut got = Vec::new();
        while let Ok(ev) = events.try_recv() {
            if let SessionEvent::Position { t, pos, .. } = ev {
                got.push((t, pos));
            }
        }
        assert_eq!(got.len(), expected_positions.len(), "{epc}: position count");
        for ((gt, gp), (et, ep)) in got.iter().zip(expected_positions) {
            assert_eq!(gt.to_bits(), et.to_bits(), "{epc}: tick time");
            assert_eq!(bits(*gp), bits(*ep), "{epc}: position bits");
        }
    }

    // Lossless accounting: everything ingested was processed.
    let report = service.telemetry();
    assert_eq!(report.active_sessions, 8);
    assert_eq!(report.sessions_opened, 8);
    assert_eq!(report.reads_ingested, total_reads as u64);
    assert_eq!(report.reads_processed, total_reads as u64);
    assert_eq!(report.reads_dropped, 0);
    assert_eq!(report.reads_rejected, 0);
    assert_eq!(
        report.positions,
        reference.values().map(|(p, _)| p.len() as u64).sum::<u64>()
    );
    // Latency is sampled once per read that yielded a position (a single
    // read can complete more than one tick), so: 0 < samples ≤ positions.
    assert!(report.latency.count > 0, "ingest→position latency was sampled");
    assert!(report.latency.count <= report.positions);
}

/// Synthetic reads for accounting tests (the tracker's output does not
/// matter, only the counters).
fn synth_reads(n: usize, t0: f64) -> Vec<PhaseRead> {
    (0..n)
        .map(|i| PhaseRead {
            t: t0 + i as f64 * 0.001,
            antenna: AntennaId(1 + (i % 8) as u8),
            phase: 0.5,
        })
        .collect()
}

fn manual_cfg(policy: BackpressurePolicy, capacity: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = None;
    cfg.backpressure = policy;
    cfg.queue_capacity = capacity;
    cfg
}

#[test]
fn reject_policy_refuses_overflow_with_exact_accounting() {
    let service = TrackingService::start(manual_cfg(BackpressurePolicy::Reject, 8));
    let client = service.client();
    let epc = Epc::from_index(1);

    let receipt = client.ingest(epc, &synth_reads(20, 0.0)).unwrap();
    assert_eq!(receipt.accepted, 8);
    assert_eq!(receipt.rejected, 12);
    assert_eq!(receipt.dropped, 0);

    let before = service.telemetry();
    assert_eq!(before.reads_ingested, 8);
    assert_eq!(before.reads_rejected, 12);
    assert_eq!(before.reads_dropped, 0);
    assert_eq!(before.reads_processed, 0);
    assert_eq!(before.sessions[0].queue_depth, 8);

    while service.pump() > 0 {}
    let after = service.telemetry();
    assert_eq!(after.reads_processed, 8);
    assert_eq!(after.sessions[0].queue_depth, 0);
    // ingested = processed + dropped + queued
    assert_eq!(
        after.reads_ingested,
        after.reads_processed + after.reads_dropped + after.sessions[0].queue_depth
    );
}

#[test]
fn drop_oldest_policy_keeps_the_freshest_reads() {
    let service = TrackingService::start(manual_cfg(BackpressurePolicy::DropOldest, 8));
    let client = service.client();
    let epc = Epc::from_index(1);

    let receipt = client.ingest(epc, &synth_reads(20, 0.0)).unwrap();
    // Every read is accepted; the 12 oldest were evicted to make room.
    assert_eq!(receipt.accepted, 20);
    assert_eq!(receipt.dropped, 12);
    assert_eq!(receipt.rejected, 0);

    let report = service.telemetry();
    assert_eq!(report.reads_ingested, 20);
    assert_eq!(report.reads_dropped, 12);
    assert_eq!(report.sessions[0].queue_depth, 8);
    assert_eq!(
        report.reads_ingested,
        report.reads_processed + report.reads_dropped + report.sessions[0].queue_depth
    );

    while service.pump() > 0 {}
    let after = service.telemetry();
    assert_eq!(after.reads_processed, 8);
    assert_eq!(
        after.reads_ingested,
        after.reads_processed + after.reads_dropped + after.sessions[0].queue_depth
    );
}

#[test]
fn block_policy_is_lossless_under_a_slow_drainer() {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(1));
    cfg.backpressure = BackpressurePolicy::Block;
    cfg.queue_capacity = 4; // tiny: the producer must block repeatedly
    cfg.drain_batch = 4;
    let service = TrackingService::start(cfg);
    let client = service.client();
    let epc = Epc::from_index(1);

    let reads = synth_reads(300, 0.0);
    let receipt = client.ingest(epc, &reads).unwrap();
    assert_eq!(receipt.accepted, 300);
    assert_eq!(receipt.dropped, 0);
    assert_eq!(receipt.rejected, 0);

    service.quiesce();
    let report = service.telemetry();
    assert_eq!(report.reads_ingested, 300);
    assert_eq!(report.reads_processed, 300);
    assert_eq!(report.reads_dropped, 0);
    assert_eq!(report.reads_rejected, 0);
}

#[test]
fn idle_sessions_are_evicted_and_subscribers_notified() {
    let mut cfg = manual_cfg(BackpressurePolicy::Block, 64);
    cfg.idle_timeout = Duration::from_millis(30);
    let service = TrackingService::start(cfg);
    let client = service.client();
    let epc = Epc::from_index(1);

    let events = client.subscribe(epc).unwrap();
    client.ingest(epc, &synth_reads(4, 0.0)).unwrap();
    while service.pump() > 0 {}
    assert_eq!(client.active_sessions(), vec![epc]);

    std::thread::sleep(Duration::from_millis(60));
    service.pump(); // the sweep runs on the pump path in manual mode

    assert!(client.active_sessions().is_empty());
    let report = service.telemetry();
    assert_eq!(report.sessions_evicted, 1);
    assert_eq!(report.active_sessions, 0);
    let closed = std::iter::from_fn(|| events.try_recv().ok())
        .find(|e| matches!(e, SessionEvent::Closed { .. }));
    assert!(
        matches!(
            closed,
            Some(SessionEvent::Closed { reason: rfidraw_serve::CloseReason::Idle, .. })
        ),
        "subscriber should see an idle close, got {closed:?}"
    );

    // Ingest after eviction transparently opens a fresh session.
    client.ingest(epc, &synth_reads(4, 10.0)).unwrap();
    assert_eq!(client.active_sessions(), vec![epc]);
    assert_eq!(service.telemetry().sessions_opened, 2);
}

#[test]
fn session_cap_refuses_new_tags_and_counts_them() {
    let mut cfg = manual_cfg(BackpressurePolicy::Block, 64);
    cfg.max_sessions = 2;
    let service = TrackingService::start(cfg);
    let client = service.client();

    client.ingest(Epc::from_index(1), &synth_reads(1, 0.0)).unwrap();
    client.ingest(Epc::from_index(2), &synth_reads(1, 0.0)).unwrap();
    let err = client.ingest(Epc::from_index(3), &synth_reads(1, 0.0)).unwrap_err();
    assert_eq!(err, ServeError::SessionLimit { max: 2 });
    // Existing sessions keep working at the cap.
    client.ingest(Epc::from_index(1), &synth_reads(1, 1.0)).unwrap();

    let report = service.telemetry();
    assert_eq!(report.active_sessions, 2);
    assert_eq!(report.sessions_rejected, 1);
}

#[test]
fn explicit_close_discards_the_queue_and_counts_it() {
    let service = TrackingService::start(manual_cfg(BackpressurePolicy::Block, 64));
    let client = service.client();
    let epc = Epc::from_index(1);

    let events = client.subscribe(epc).unwrap();
    client.ingest(epc, &synth_reads(10, 0.0)).unwrap();
    assert!(client.close_session(epc));
    assert!(!client.close_session(epc), "second close is a no-op");

    let report = service.telemetry();
    assert_eq!(report.sessions_closed, 1);
    assert_eq!(report.reads_dropped, 10, "queued reads discarded at close count as dropped");
    assert_eq!(report.active_sessions, 0);
    let closed = std::iter::from_fn(|| events.try_recv().ok())
        .find(|e| matches!(e, SessionEvent::Closed { .. }));
    assert!(matches!(
        closed,
        Some(SessionEvent::Closed { reason: rfidraw_serve::CloseReason::Explicit, .. })
    ));
}

#[test]
fn hot_tag_cannot_starve_other_sessions() {
    // One hot tag with a huge backlog, one trickle tag: after a single
    // pump round, the trickle tag must have been served too.
    let mut cfg = manual_cfg(BackpressurePolicy::Block, 10_000);
    cfg.drain_batch = 8;
    let service = TrackingService::start(cfg);
    let client = service.client();

    let hot = Epc::from_index(1);
    let cold = Epc::from_index(2);
    client.ingest(hot, &synth_reads(1000, 0.0)).unwrap();
    client.ingest(cold, &synth_reads(4, 0.0)).unwrap();

    let processed = service.pump();
    // Round-robin with drain_batch = 8: at most 8 from the hot queue plus
    // the cold queue's 4 — the cold session is fully drained immediately.
    assert!(processed <= 12, "one round should drain at most one batch per session");
    let report = service.telemetry();
    let cold_t = report.sessions.iter().find(|s| s.epc == cold).unwrap();
    assert_eq!(cold_t.reads_processed, 4, "cold session served in the first round");
    let hot_t = report.sessions.iter().find(|s| s.epc == hot).unwrap();
    assert!(hot_t.reads_processed <= 8);
}

#[test]
fn idle_sessions_cost_no_drain_work() {
    // Workers wake only for sessions marked ready: with 500 registered,
    // drained sessions and no ingest, nothing may be drained at all.
    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(2));
    cfg.max_sessions = 500;
    let service = TrackingService::start(cfg);
    let client = service.client();
    for i in 0..500 {
        client.ingest(Epc::from_index(i + 1), &synth_reads(1, 0.0)).unwrap();
    }
    service.quiesce();

    let work = |r: &rfidraw_serve::TelemetryReport| {
        (r.shards.iter().map(|s| s.drain_visits).sum::<u64>(), r.reads_processed)
    };
    let before = service.telemetry();
    assert_eq!(before.active_sessions, 500);
    assert_eq!(before.reads_processed, 500);
    std::thread::sleep(Duration::from_millis(100));
    let after = service.telemetry();
    assert_eq!(work(&after), work(&before), "idle sessions were visited with no ingest");
}

#[test]
fn overdue_session_is_evicted_as_soon_as_its_queue_drains() {
    // A session past its idle timeout with reads still queued is skipped
    // by the sweep, which then sleeps a whole timeout. Finishing the drain
    // must bring the sweep forward instead of leaving the session a
    // further timeout.
    let mut cfg = manual_cfg(BackpressurePolicy::Block, 64);
    cfg.idle_timeout = Duration::from_millis(50);
    cfg.drain_batch = 1;
    let service = TrackingService::start(cfg);
    let client = service.client();
    let epc = Epc::from_index(1);
    client.ingest(epc, &synth_reads(2, 0.0)).unwrap();
    std::thread::sleep(Duration::from_millis(60));

    assert_eq!(service.pump(), 1, "one read per turn");
    assert_eq!(client.active_sessions(), vec![epc], "busy sessions are not evicted");
    assert_eq!(service.pump(), 1);
    assert!(client.active_sessions().is_empty(), "evicted once its queue drained");
    assert_eq!(service.telemetry().sessions_evicted, 1);
}
