//! Ready-queue races: four producers interleave reads for sixteen sessions
//! in a seeded order while two workers drain one read per turn, so a
//! session is marked ready, taken, drained and re-queued thousands of
//! times with producers landing in every gap. Every accepted read must be
//! processed with no further ingest (no session is stranded with reads
//! but no place in the queue), the books must balance, and each session's
//! positions must match a standalone tracker's bit for bit — through the
//! in-process client and through the reactor front end.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::Deployment;
use rfidraw_core::exec::Parallelism;
use rfidraw_core::geom::{Plane, Point2, Point3, Rect};
use rfidraw_core::online::OnlineEvent;
use rfidraw_core::stream::PhaseRead;
use rfidraw_protocol::inventory::{demux_phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::wire::Message;
use rfidraw_serve::{
    BackpressurePolicy, ReactorServer, ServeConfig, SessionEvent, TelemetryReport,
    TrackerTemplate, TrackingService, WireClient,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SEED: u64 = 15;
const PRODUCERS: usize = 4;
const SESSIONS: u32 = 16;

type PositionBits = Vec<(u64, u64, u64)>;

fn template() -> TrackerTemplate {
    TrackerTemplate::paper_default(Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7)))
}

/// Sixteen static tags on a 4×4 grid inside the writing region,
/// inventoried together and demuxed into per-tag read streams.
fn streams() -> BTreeMap<Epc, Vec<PhaseRead>> {
    let plane = Plane::at_depth(2.0);
    let trajectories: Vec<Box<dyn Fn(f64) -> Point3>> = (0..SESSIONS)
        .map(|i| {
            let p = Point2::new(0.7 + 0.4 * f64::from(i % 4), 0.5 + 0.3 * f64::from(i / 4));
            let f: Box<dyn Fn(f64) -> Point3> = Box::new(move |_t| plane.lift(p));
            f
        })
        .collect();
    let tags: Vec<SimTag<'_>> = trajectories
        .iter()
        .enumerate()
        .map(|(i, f)| SimTag { epc: Epc::from_index(i as u32 + 1), trajectory: f.as_ref() })
        .collect();
    let channel = Channel::new(Deployment::paper_default(), Scenario::Los.config(), SEED);
    let mut sim = InventorySim::new(channel, InventoryConfig::paper_default(0.030, SEED));
    demux_phase_reads(&sim.run(&tags, 3.0))
}

fn standalone(streams: &BTreeMap<Epc, Vec<PhaseRead>>) -> BTreeMap<Epc, PositionBits> {
    let tpl = template();
    streams
        .iter()
        .map(|(&epc, reads)| {
            let mut tracker = tpl.build();
            let mut positions = Vec::new();
            for &r in reads {
                for e in tracker.push(r).unwrap() {
                    if let OnlineEvent::Position { t, pos } = e {
                        positions.push((t.to_bits(), pos.x.to_bits(), pos.z.to_bits()));
                    }
                }
            }
            (epc, positions)
        })
        .collect()
}

/// Two workers, one read per drain, a small lossless queue.
fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = Some(Parallelism::Threads(2));
    cfg.drain_batch = 1;
    cfg.backpressure = BackpressurePolicy::Block;
    cfg.queue_capacity = 8;
    cfg.max_sessions = SESSIONS as usize;
    cfg
}

/// Producer `p`'s batches, in send order: it owns every session whose
/// index is `p` modulo the producer count (one producer per tag keeps the
/// tag's read order) and interleaves their chunks, sized 1–6 reads, in a
/// seeded order.
fn schedule(streams: &BTreeMap<Epc, Vec<PhaseRead>>, p: usize) -> Vec<(Epc, Vec<PhaseRead>)> {
    let mut rng = StdRng::seed_from_u64(SEED * 100 + p as u64);
    let mut owned: Vec<(Epc, &[PhaseRead])> = streams
        .iter()
        .enumerate()
        .filter(|(i, _)| i % PRODUCERS == p)
        .map(|(_, (&epc, reads))| (epc, reads.as_slice()))
        .collect();
    let mut batches = Vec::new();
    while !owned.is_empty() {
        let k = rng.gen_range(0..owned.len());
        let n = rng.gen_range(1..7usize).min(owned[k].1.len());
        let (epc, rest) = owned[k];
        batches.push((epc, rest[..n].to_vec()));
        owned[k].1 = &rest[n..];
        if owned[k].1.is_empty() {
            owned.swap_remove(k);
        }
    }
    batches
}

/// Waits, without ingesting or pumping, until the workers have processed
/// every ingested read; panics if some read is stranded.
fn await_all_processed(service: &TrackingService) -> TelemetryReport {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let t = service.telemetry();
        if t.reads_processed == t.reads_ingested {
            return t;
        }
        assert!(
            Instant::now() < deadline,
            "{} of {} ingested reads never processed: a ready session was stranded",
            t.reads_ingested - t.reads_processed,
            t.reads_ingested
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn check_books(report: &TelemetryReport, total_reads: usize) {
    assert_eq!(report.reads_ingested, total_reads as u64);
    assert_eq!(report.reads_ingested, report.reads_processed + report.reads_dropped);
    assert_eq!(report.reads_dropped, 0, "Block is lossless");
    assert_eq!(report.reads_rejected, 0);
    assert_eq!(
        report.shards.iter().map(|s| s.reads_drained).sum::<u64>(),
        report.reads_processed
    );
}

fn check_positions(got: &BTreeMap<Epc, PositionBits>, expected: &BTreeMap<Epc, PositionBits>) {
    let tracking = expected.values().filter(|p| !p.is_empty()).count();
    assert!(tracking >= 12, "only {tracking}/16 reference trackers produced positions");
    for (epc, want) in expected {
        assert_eq!(got.get(epc).unwrap_or(&Vec::new()), want, "{epc}: positions diverged");
    }
}

#[test]
fn ready_queue_race_in_process_strands_nothing_and_matches_standalone() {
    let streams = streams();
    assert_eq!(streams.len(), SESSIONS as usize, "every tag should be read");
    let expected = standalone(&streams);
    let total_reads: usize = streams.values().map(Vec::len).sum();

    let service = TrackingService::start(config());
    let client = service.client();
    let subscriptions: Vec<_> =
        streams.keys().map(|&epc| (epc, client.subscribe(epc).expect("subscribe"))).collect();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let client = client.clone();
            let batches = schedule(&streams, p);
            std::thread::spawn(move || {
                for (epc, reads) in batches {
                    let receipt = client.ingest(epc, &reads).expect("ingest");
                    assert_eq!(receipt.accepted as usize, reads.len(), "Block is lossless");
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer");
    }

    await_all_processed(&service);
    service.quiesce();
    check_books(&service.telemetry(), total_reads);
    let got: BTreeMap<Epc, PositionBits> = subscriptions
        .iter()
        .map(|(epc, rx)| {
            let positions = std::iter::from_fn(|| rx.try_recv().ok())
                .filter_map(|e| match e {
                    SessionEvent::Position { t, pos, .. } => {
                        Some((t.to_bits(), pos.x.to_bits(), pos.z.to_bits()))
                    }
                    _ => None,
                })
                .collect();
            (*epc, positions)
        })
        .collect();
    check_positions(&got, &expected);
}

#[test]
fn ready_queue_race_over_the_reactor_strands_nothing_and_matches_standalone() {
    let streams = streams();
    assert_eq!(streams.len(), SESSIONS as usize, "every tag should be read");
    let expected = standalone(&streams);
    let total_reads: usize = streams.values().map(Vec::len).sum();
    let expected_positions: usize = expected.values().map(Vec::len).sum();

    let service = TrackingService::start(config());
    let client = service.client();
    let server =
        ReactorServer::bind("127.0.0.1:0", client.clone(), rfidraw_net::ReactorConfig::default())
            .expect("bind reactor");
    let addr = server.local_addr();

    // One connection carries every subscription, as a gateway would.
    let mut sub = WireClient::connect_binary(addr).expect("connect subscriber");
    sub.stream_mut().set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for &epc in streams.keys() {
        sub.subscribe(epc).expect("subscribe");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for &epc in streams.keys() {
        while client.session_view(epc).is_none_or(|v| v.subscribers == 0) {
            assert!(Instant::now() < deadline, "{epc}: subscription never registered");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let batches = schedule(&streams, p);
            std::thread::spawn(move || {
                let mut conn = WireClient::connect_binary(addr).expect("connect producer");
                // A stranded session parks this connection for good: fail,
                // don't hang.
                conn.stream_mut().set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                for (epc, reads) in batches {
                    let ack = conn.ingest(epc, &reads).expect("ingest");
                    assert_eq!(ack.accepted as usize, reads.len(), "Block is lossless");
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer");
    }

    await_all_processed(&service);
    service.quiesce();
    check_books(&service.telemetry(), total_reads);
    let mut got: BTreeMap<Epc, PositionBits> = BTreeMap::new();
    for _ in 0..expected_positions {
        match sub.recv().expect("subscriber recv") {
            Some(Message::PositionUpdate(u)) => {
                got.entry(u.epc).or_default().push((
                    u.t.to_bits(),
                    u.x.to_bits(),
                    u.z.to_bits(),
                ));
            }
            other => panic!("expected a PositionUpdate, got {other:?}"),
        }
    }
    check_positions(&got, &expected);
    drop(server);
}
