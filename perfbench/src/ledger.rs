//! The per-layer replay: the workload's exact frames and positions timed
//! through the wire codec and the service's in-process ingest call.
//!
//! The tracker layers (`core.*`) come from the oracle's own replay; the
//! network and queueing layers come from the traced live pass's reactor
//! counters, service telemetry and per-thread CPU.

use crate::live::Encoded;
use crate::oracle::Oracle;
use crate::workload::{template, Schedule};
use rfidraw_net::{FrameDecoder, RawFrame, DEFAULT_MAX_PAYLOAD};
use rfidraw_serve::wire::{Message, PositionUpdate};
use rfidraw_serve::{wire3, ServeConfig, TrackingService};
use std::hint::black_box;
use std::time::Instant;

/// Wire-codec cost on the workload's own frames.
pub struct WireLedger {
    /// Total `wire3::decode_frame` time over every ingest frame (s).
    pub decode_s: f64,
    /// Total `wire3::encode_frame` time over every expected position (s).
    pub encode_s: f64,
    /// Reads decoded.
    pub reads: usize,
    /// Position updates encoded.
    pub updates: usize,
}

/// Times the wire codec on every ingest frame of the schedule and on a
/// position update for every position the oracle expects.
pub fn wire(schedule: &Schedule, encoded: &Encoded, oracle: &Oracle) -> WireLedger {
    let mut frames = Vec::with_capacity(schedule.frames.len());
    for k in 0..schedule.frames.len() {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        decoder.feed(encoded.ingest(k));
        match decoder.next() {
            Ok(Some(RawFrame::Binary(bin))) => frames.push(bin),
            other => panic!("frame {k} does not parse as one binary frame: {other:?}"),
        }
    }
    let start = Instant::now();
    for f in &frames {
        black_box(wire3::decode_frame(black_box(f)).expect("the benchmark's frames decode"));
    }
    let decode_s = start.elapsed().as_secs_f64();

    let updates: Vec<Message> = schedule
        .sessions
        .iter()
        .zip(&oracle.positions)
        .flat_map(|(s, expected)| {
            expected.iter().map(move |e| {
                Message::PositionUpdate(PositionUpdate {
                    epc: s.epc,
                    t: f64::from_bits(e.bits[0]),
                    x: f64::from_bits(e.bits[1]),
                    z: f64::from_bits(e.bits[2]),
                })
            })
        })
        .collect();
    let start = Instant::now();
    for m in &updates {
        black_box(wire3::encode_frame(black_box(m)));
    }
    let encode_s = start.elapsed().as_secs_f64();
    WireLedger {
        decode_s,
        encode_s,
        reads: schedule.reads,
        updates: updates.len(),
    }
}

/// Times `LocalClient::ingest` on every frame of the schedule, in send
/// order, against a service with no workers whose queues hold a whole
/// session, so no call blocks and no tracker runs. Each session is closed
/// after its last frame. Returns each call's duration (µs).
pub fn ingest(schedule: &Schedule) -> Vec<f64> {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = None;
    cfg.max_sessions = schedule.sessions.len().max(1);
    cfg.queue_capacity = schedule
        .sessions
        .iter()
        .map(|s| {
            s.frames
                .iter()
                .map(|&f| schedule.frames[f].reads.len())
                .sum::<usize>()
        })
        .max()
        .unwrap_or(1)
        .max(1);
    drop(cfg.tracker.build());
    let service = TrackingService::start(cfg);
    let client = service.client();
    let mut left: Vec<usize> = schedule.sessions.iter().map(|s| s.frames.len()).collect();
    let mut us = Vec::with_capacity(schedule.frames.len());
    for f in &schedule.frames {
        let epc = schedule.sessions[f.session].epc;
        let start = Instant::now();
        let receipt = client
            .ingest(epc, &f.reads)
            .expect("replay ingest is admitted");
        us.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            receipt.accepted,
            f.reads.len() as u64,
            "replay queues never fill"
        );
        left[f.session] -= 1;
        if left[f.session] == 0 {
            client.close_session(epc);
        }
    }
    us
}
