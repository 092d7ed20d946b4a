//! The correctness oracle and the tracker-layer replay.
//!
//! Each session's frames are fed, in send order, to a standalone
//! `TrackerTemplate::build()` tracker. Its positions are what the service
//! must deliver, bit for bit; the frame whose reads produced a position is
//! the one whose due time starts that position's latency clock. Every
//! `OnlineTracker::push` call is timed and classed by what it returned, so
//! the same replay yields the `core.*` ledger.

use crate::workload::{template, Schedule, Session};
use rfidraw_core::online::OnlineEvent;
use rfidraw_serve::TrackerTemplate;
use std::time::Instant;

/// One position the service must deliver.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// Tick time, x and z as raw IEEE-754 bits.
    pub bits: [u64; 3],
    /// Index of the frame whose reads completed the tick.
    pub frame: usize,
}

/// Push-call timings, classed by what the push returned.
#[derive(Debug, Default)]
pub struct CoreLedger {
    /// Pushes that returned no event (unwrap and bookkeeping only).
    pub quiet_ns: u64,
    /// Number of those pushes.
    pub quiet_pushes: u64,
    /// Durations (ns) of pushes that returned `Acquired`.
    pub acquire_ns: Vec<u64>,
    /// Candidates proposed per acquisition.
    pub candidates: u64,
    /// Durations (ns) of pushes that returned a `Position` but no
    /// `Acquired`.
    pub tick_ns: Vec<u64>,
    /// Candidate traces advanced by those pushes.
    pub candidate_ticks: u64,
    /// Pushes that returned any other event mix (prune-only, stale).
    pub other_ns: u64,
    /// Pushes the tracker refused.
    pub refused: u64,
}

impl CoreLedger {
    /// Total time spent inside `push` (ns).
    pub fn total_ns(&self) -> u64 {
        self.quiet_ns
            + self.acquire_ns.iter().sum::<u64>()
            + self.tick_ns.iter().sum::<u64>()
            + self.other_ns
    }

    fn absorb(&mut self, other: CoreLedger) {
        self.quiet_ns += other.quiet_ns;
        self.quiet_pushes += other.quiet_pushes;
        self.acquire_ns.extend(other.acquire_ns);
        self.candidates += other.candidates;
        self.tick_ns.extend(other.tick_ns);
        self.candidate_ticks += other.candidate_ticks;
        self.other_ns += other.other_ns;
        self.refused += other.refused;
    }
}

/// The oracle's verdict for a whole schedule.
pub struct Oracle {
    /// Expected positions per session, in emission order.
    pub positions: Vec<Vec<Expected>>,
    /// The replay's push ledger.
    pub core: CoreLedger,
}

/// Replays every session of `schedule` through standalone trackers, on up
/// to `threads` threads (one gives push timings free of a neighbour's
/// cache traffic). The expected positions do not depend on `threads`.
pub fn replay(schedule: &Schedule, threads: usize) -> Oracle {
    let template = template();
    let chunk = schedule.sessions.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<(Vec<Vec<Expected>>, CoreLedger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .sessions
            .chunks(chunk)
            .map(|sessions| {
                let template = &template;
                scope.spawn(move || replay_sessions(schedule, sessions, template))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle replay thread"))
            .collect()
    });
    let mut positions = Vec::with_capacity(schedule.sessions.len());
    let mut core = CoreLedger::default();
    for (p, c) in parts {
        positions.extend(p);
        core.absorb(c);
    }
    Oracle { positions, core }
}

fn replay_sessions(
    schedule: &Schedule,
    sessions: &[Session],
    template: &TrackerTemplate,
) -> (Vec<Vec<Expected>>, CoreLedger) {
    let mut core = CoreLedger::default();
    let mut positions = Vec::with_capacity(sessions.len());
    for session in sessions {
        let mut tracker = template.build();
        let mut expected = Vec::new();
        for &f in &session.frames {
            for &read in &schedule.frames[f].reads {
                let alive = tracker.alive_candidates() as u64;
                let start = Instant::now();
                let result = tracker.push(read);
                let ns = start.elapsed().as_nanos() as u64;
                let Ok(events) = result else {
                    core.refused += 1;
                    continue;
                };
                let mut acquired = None;
                let mut ticks = 0;
                for e in &events {
                    match e {
                        OnlineEvent::Acquired { candidates } => acquired = Some(*candidates),
                        OnlineEvent::Position { t, pos } => {
                            ticks += 1;
                            expected.push(Expected {
                                bits: [t.to_bits(), pos.x.to_bits(), pos.z.to_bits()],
                                frame: f,
                            });
                        }
                        _ => {}
                    }
                }
                if let Some(c) = acquired {
                    core.acquire_ns.push(ns);
                    core.candidates += c as u64;
                } else if ticks > 0 {
                    core.tick_ns.push(ns);
                    core.candidate_ticks += alive * ticks;
                } else if events.is_empty() {
                    core.quiet_ns += ns;
                    core.quiet_pushes += 1;
                } else {
                    core.other_ns += ns;
                }
            }
        }
        positions.push(expected);
    }
    (positions, core)
}
