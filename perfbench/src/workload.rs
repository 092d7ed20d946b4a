//! Workload generation: writers, their sessions, and the frame schedule.
//!
//! Every input is made from the seed before the service starts. A writer
//! is a sequence of sessions; each session is one fresh tag (EPC) moved by
//! a pen trajectory (a corpus word or a tap), read by the paper's
//! inventory (2 readers × 4 ports, 30 ms dwell) through the LOS channel,
//! and cut into ingest frames the way a gateway would forward them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfidraw_channel::{Channel, Scenario};
use rfidraw_core::array::Deployment;
use rfidraw_core::geom::{Plane, Point2, Rect};
use rfidraw_core::stream::PhaseRead;
use rfidraw_handwriting::corpus::Corpus;
use rfidraw_handwriting::layout::layout_word;
use rfidraw_handwriting::pen::{write_word, PenConfig, PenSample, Style, TimedPath};
use rfidraw_protocol::inventory::{phase_reads, InventoryConfig, InventorySim, SimTag};
use rfidraw_protocol::Epc;
use rfidraw_serve::TrackerTemplate;

/// Snapshot tick of the tracker and the gateway's batching window (s).
pub const TICK_S: f64 = 0.04;
/// Reader port dwell (s), the paper's setting.
const DWELL_S: f64 = 0.030;
/// Seconds a writer holds the pen still before writing a word.
const LEAD_IN_S: f64 = 0.5;
/// Seconds a writer holds still after a word.
const TAIL_S: f64 = 0.2;

/// The writing region every session is tracked over.
pub fn region() -> Rect {
    Rect::new(Point2::new(0.5, 0.3), Point2::new(2.3, 1.7))
}

/// The tracker template of the service and of the oracle.
pub fn template() -> TrackerTemplate {
    TrackerTemplate::paper_default(region())
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Concurrent writers writing corpus words back to back, reads batched
    /// per 40 ms gateway window.
    LiveWords,
    /// The same writers, every read sent as its own frame.
    LivePerRead,
    /// Short-lived tap sessions: hold still, then a small tap.
    TapChurn,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "live_words" => Some(Self::LiveWords),
            "live_per_read" => Some(Self::LivePerRead),
            "tap_churn" => Some(Self::TapChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::LiveWords => "live_words",
            Self::LivePerRead => "live_per_read",
            Self::TapChurn => "tap_churn",
        }
    }

    /// Concurrent writers (or tappers) at full size.
    pub fn default_writers(self) -> usize {
        match self {
            Self::LiveWords => 128,
            Self::LivePerRead => 64,
            Self::TapChurn => 32,
        }
    }

    fn per_read(self) -> bool {
        self == Self::LivePerRead
    }
}

/// One tag's life: its reads, ground truth and frames.
pub struct Session {
    /// The session's tag.
    pub epc: Epc,
    /// Ground-truth pen path, on the session's own clock.
    pub truth: TimedPath,
    /// Absolute schedule time of the session clock's zero (s).
    pub offset: f64,
    /// Indices into [`Schedule::frames`], in send order.
    pub frames: Vec<usize>,
}

impl Session {
    /// Ground-truth pen position at schedule time `t`.
    pub fn truth_at(&self, t: f64) -> Point2 {
        self.truth.position_at(t - self.offset)
    }
}

/// One ingest frame: a batch of one session's reads and when it is due.
pub struct Frame {
    /// Index into [`Schedule::sessions`].
    pub session: usize,
    /// Seconds after the run start at which the frame is due to be sent.
    pub due: f64,
    /// The reads, with absolute timestamps.
    pub reads: Vec<PhaseRead>,
}

/// Everything one run sends, in due order.
pub struct Schedule {
    /// All sessions, in order of their first frame.
    pub sessions: Vec<Session>,
    /// All frames, sorted by due time (stable, so per-session order holds).
    pub frames: Vec<Frame>,
    /// Reads across all frames.
    pub reads: usize,
}

struct Plan {
    offset: f64,
    truth: TimedPath,
    sim_seed: u64,
}

fn word_plan(rng: &mut StdRng, words: &[&'static str], offset: f64) -> Plan {
    let word = words[rng.gen_range(0..words.len())];
    let start = Point2::new(rng.gen_range(0.8..1.3), rng.gen_range(0.8..1.3));
    let path = layout_word(word, 0.10, 0.025)
        .expect("corpus words use only supported glyphs")
        .place_at(start);
    let pen = PenConfig {
        start_time: LEAD_IN_S,
        ..PenConfig::default()
    };
    let mut truth = write_word(&path, Style::user(rng.gen_range(0..1_000_000)), pen);
    let last = *truth.samples.last().expect("a written word has samples");
    truth.samples.push(PenSample {
        t: last.t + TAIL_S,
        pos: last.pos,
        letter: None,
    });
    Plan {
        offset,
        truth,
        sim_seed: rng.gen_range(0..u64::MAX),
    }
}

/// A tap: hold still 0.4 s, dip 3 cm and return over 0.15 s.
fn tap_plan(rng: &mut StdRng, offset: f64) -> Plan {
    let at = Point2::new(rng.gen_range(0.8..2.0), rng.gen_range(0.6..1.4));
    let rate = 200.0;
    let n = (0.55 * rate) as usize + 1;
    let samples = (0..n)
        .map(|k| {
            let t = k as f64 / rate;
            let dip = if t > 0.4 {
                0.03 * (std::f64::consts::PI * (t - 0.4) / 0.15).sin().max(0.0)
            } else {
                0.0
            };
            PenSample {
                t,
                pos: Point2::new(at.x, at.z - dip),
                letter: None,
            }
        })
        .collect();
    Plan {
        offset,
        truth: TimedPath {
            word: "tap".into(),
            samples,
        },
        sim_seed: rng.gen_range(0..u64::MAX),
    }
}

/// Simulates one session's read stream on its own clock.
fn simulate(plan: &Plan, epc: Epc) -> Vec<PhaseRead> {
    let plane = Plane::at_depth(2.0);
    let channel = Channel::new(
        Deployment::paper_default(),
        Scenario::Los.config(),
        plan.sim_seed,
    );
    let mut sim = InventorySim::new(
        channel,
        InventoryConfig::paper_default(DWELL_S, plan.sim_seed ^ 0x9e37),
    );
    let truth = &plan.truth;
    let trajectory = move |t: f64| plane.lift(truth.position_at(t));
    let duration = truth.samples.last().expect("non-empty path").t;
    let records = sim.run(
        &[SimTag {
            epc,
            trajectory: &trajectory,
        }],
        duration,
    );
    phase_reads(&records, epc)
}

/// Builds the schedule of `workload` for a run of `seconds` with `writers`
/// concurrent writers. Simulation runs on up to `threads` threads; the
/// result depends only on the arguments other than `threads`.
pub fn generate(
    workload: Workload,
    seed: u64,
    seconds: f64,
    writers: usize,
    threads: usize,
) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_be7c);
    // Short words (2-4 letters, about 250 of the corpus's 660) give about a
    // fifth more sessions per run than the whole corpus, so the
    // first-position percentiles rest on more samples.
    let corpus = Corpus::common();
    let words: Vec<&'static str> = corpus
        .words()
        .iter()
        .copied()
        .filter(|w| w.len() <= 4)
        .collect();
    let mut plans = Vec::new();
    for _ in 0..writers {
        // Stagger first starts so acquisitions do not arrive in lockstep.
        let mut t = rng.gen_range(0.0..1.5);
        while t < seconds {
            let plan = match workload {
                Workload::TapChurn => tap_plan(&mut rng, t),
                _ => word_plan(&mut rng, &words, t),
            };
            let len = plan.truth.samples.last().expect("non-empty path").t;
            let gap = match workload {
                Workload::TapChurn => rng.gen_range(0.15..0.25),
                _ => rng.gen_range(0.2..0.6),
            };
            t += len + gap;
            plans.push(plan);
        }
    }
    plans.sort_by(|a, b| a.offset.total_cmp(&b.offset));

    let per_thread = plans.len().div_ceil(threads.max(1)).max(1);
    let mut streams: Vec<Vec<PhaseRead>> = vec![Vec::new(); plans.len()];
    std::thread::scope(|scope| {
        for (k, chunk) in streams.chunks_mut(per_thread).enumerate() {
            let plans = &plans;
            let base = k * per_thread;
            scope.spawn(move || {
                for (i, out) in chunk.iter_mut().enumerate() {
                    *out = simulate(&plans[base + i], Epc::from_index((base + i) as u32 + 1));
                }
            });
        }
    });

    let mut sessions = Vec::with_capacity(plans.len());
    let mut frames = Vec::new();
    let mut reads_total = 0;
    for (i, (plan, stream)) in plans.into_iter().zip(streams).enumerate() {
        let reads: Vec<PhaseRead> = stream
            .into_iter()
            .map(|r| PhaseRead {
                t: r.t + plan.offset,
                ..r
            })
            .filter(|r| r.t < seconds)
            .collect();
        if reads.is_empty() {
            continue;
        }
        reads_total += reads.len();
        let session = sessions.len();
        if workload.per_read() {
            for r in reads {
                frames.push(Frame {
                    session,
                    due: r.t,
                    reads: vec![r],
                });
            }
        } else {
            // Gateway windows on the shared clock: a window's reads are
            // sent when it closes.
            let mut start = 0;
            while start < reads.len() {
                let window = (reads[start].t / TICK_S).floor();
                let end =
                    start + reads[start..].partition_point(|r| (r.t / TICK_S).floor() <= window);
                let due = ((window + 1.0) * TICK_S).min(seconds);
                frames.push(Frame {
                    session,
                    due,
                    reads: reads[start..end].to_vec(),
                });
                start = end;
            }
        }
        sessions.push(Session {
            epc: Epc::from_index(i as u32 + 1),
            truth: plan.truth,
            offset: plan.offset,
            frames: Vec::new(),
        });
    }
    frames.sort_by(|a, b| a.due.total_cmp(&b.due));
    for (k, f) in frames.iter().enumerate() {
        sessions[f.session].frames.push(k);
    }
    Schedule {
        sessions,
        frames,
        reads: reads_total,
    }
}
