//! Per-layer probes: each one times calls into a single layer's public
//! API on the workload's own inputs, from outside the system.

use prorp_core::{DatabasePolicy, EngineAction, EngineEvent, ProactiveEngine, ProactiveResumeOp};
use prorp_forecast::IncrementalPredictor;
use prorp_sim::events::{EventQueue, SimEvent};
use prorp_sim::SimConfig;
use prorp_storage::{HistoryBackend, HistoryStore, MetadataStore, StorageBackend};
use prorp_types::{DatabaseId, DbState, EventKind, PolicyConfig, Seconds, Timestamp};
use prorp_workload::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The session boundaries the DES enqueues for `t`: `(ts, is_login)`,
/// clipped to `[start, end)` exactly as `ShardDriver::register` clips.
fn clipped_events(t: &Trace, cfg: &SimConfig) -> Vec<(Timestamp, bool)> {
    let inside = |ts: Timestamp| ts >= cfg.start && ts < cfg.end;
    let mut out = Vec::with_capacity(t.sessions.len() * 2);
    for s in &t.sessions {
        if inside(s.start) {
            out.push((s.start, true));
        }
        if inside(s.end) {
            out.push((s.end, false));
        }
    }
    out
}

/// Every `stride`-th trace, so a probe touches at most `cap` databases;
/// the returned factor scales sample totals back to the fleet.
fn sample(traces: &[Trace], cap: usize) -> (Vec<&Trace>, f64) {
    let stride = traces.len().div_ceil(cap.max(1)).max(1);
    let picked: Vec<&Trace> = traces.iter().step_by(stride).collect();
    let scale = traces.len() as f64 / picked.len().max(1) as f64;
    (picked, scale)
}

/// Session events the DES preloads into its queues, fleet-wide.
pub fn preloaded_events(traces: &[Trace], cfg: &SimConfig) -> u64 {
    traces
        .iter()
        .map(|t| clipped_events(t, cfg).len() as u64)
        .sum()
}

/// Algorithms 2/3 replayed through the public `HistoryStore`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageProbe {
    /// Insert cost per tuple.
    pub insert_ns_per_op: f64,
    /// Trim (Algorithm 3 pass) cost per call.
    pub trim_ns_per_op: f64,
    /// Tuples the trims deleted, scaled to the fleet.
    pub trimmed_tuples: f64,
    /// Estimated fleet-wide storage time: inserts plus trims.
    pub est_s: f64,
}

/// Replay each sampled database's logins and logouts into a fresh
/// B+Tree history (slot index configured as the incremental predictor
/// asks), trimming to `h` after every logout the way a re-prediction
/// does.  Pass one inserts only, pass two inserts and trims; the
/// difference is the trim cost.
pub fn storage(traces: &[Trace], cfg: &SimConfig, policy: &PolicyConfig) -> StorageProbe {
    let (picked, scale) = sample(traces, 6_000);
    let streams: Vec<Vec<(Timestamp, bool)>> =
        picked.iter().map(|t| clipped_events(t, cfg)).collect();
    let fresh = || {
        let mut h = HistoryBackend::new(StorageBackend::BTree);
        h.configure_slot_index(policy.seasonality.period(), policy.slide);
        h
    };
    let mut inserts = 0u64;
    let t0 = Instant::now();
    for events in &streams {
        let mut h = fresh();
        for &(ts, login) in events {
            let kind = if login {
                EventKind::Start
            } else {
                EventKind::End
            };
            inserts += u64::from(h.insert_history(ts, kind));
        }
        black_box(&h);
    }
    let insert_only = t0.elapsed().as_secs_f64();
    let (mut trims, mut trimmed) = (0u64, 0u64);
    let t1 = Instant::now();
    for events in &streams {
        let mut h = fresh();
        for &(ts, login) in events {
            let kind = if login {
                EventKind::Start
            } else {
                EventKind::End
            };
            h.insert_history(ts, kind);
            if !login {
                trimmed += h.delete_old_history(policy.history_len, ts).deleted as u64;
                trims += 1;
            }
        }
        black_box(&h);
    }
    let with_trims = t1.elapsed().as_secs_f64();
    let insert_ns = insert_only * 1e9 / inserts.max(1) as f64;
    let trim_ns = ((with_trims - insert_only).max(0.0)) * 1e9 / trims.max(1) as f64;
    StorageProbe {
        insert_ns_per_op: insert_ns,
        trim_ns_per_op: trim_ns,
        trimmed_tuples: trimmed as f64 * scale,
        est_s: with_trims * scale,
    }
}

/// Algorithm 5 over a shard-sized `sys.databases` partition.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResumeOpProbe {
    /// Mean cost of one `ProactiveResumeOp::run`.
    pub us_per_scan: f64,
}

/// Fill a `MetadataStore` with the largest shard's databases, each
/// physically paused with its true next login (from its trace) as the
/// predicted start, then run one simulated day of one-minute scans from
/// `from`.
pub fn resume_op(traces: &[Trace], cfg: &SimConfig, from: Timestamp) -> ResumeOpProbe {
    let mut sizes = vec![0usize; cfg.shards];
    for t in traces {
        sizes[t.db.shard_of(cfg.shards)] += 1;
    }
    let biggest = (0..cfg.shards).max_by_key(|&s| sizes[s]).unwrap_or(0);
    let mut store = MetadataStore::new();
    for t in traces
        .iter()
        .filter(|t| t.db.shard_of(cfg.shards) == biggest)
    {
        store.set_state(t.db, DbState::PhysicallyPaused);
        if let Some(next) = t.next_login_after(from) {
            store.set_prediction(t.db, Some(next));
        }
    }
    let ticks = Seconds::days(1).as_secs() / cfg.resume_op_period.as_secs();
    let mut op = ProactiveResumeOp::new(cfg.prewarm, cfg.resume_op_period, from)
        .expect("config periods are positive");
    let partitions = std::slice::from_ref(&store);
    let t0 = Instant::now();
    for _ in 0..ticks {
        let at = op.next_run();
        black_box(op.run(at, partitions));
    }
    ResumeOpProbe {
        us_per_scan: t0.elapsed().as_secs_f64() * 1e6 / ticks.max(1) as f64,
    }
}

/// Cost of one pop plus one push on an `EventQueue` held at `depth`
/// events spread over `span` seconds.
pub fn event_queue(depth: usize, span: i64, seed: u64) -> f64 {
    let depth = depth.max(1);
    let span = span.max(1) as u64;
    let mut x = seed | 1;
    let mut next = move || {
        // xorshift64: cheap, deterministic timestamps.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut q = EventQueue::new();
    for i in 0..depth {
        let ts = Timestamp((next() % span) as i64);
        q.push(ts, SimEvent::ActivityStart(DatabaseId(i as u64)));
    }
    // Each popped event is replaced by one later in time, so the depth
    // stays put while the queue's clock moves forward.
    let gap = (2 * span / depth as u64).max(1);
    let ops = 400_000usize;
    let t0 = Instant::now();
    for _ in 0..ops {
        let (ts, ev) = q.pop().expect("queue never drains");
        q.push(Timestamp(ts.as_secs() + 1 + (next() % gap) as i64), ev);
    }
    black_box(&q);
    t0.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// A standalone Algorithm 1 replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineProbe {
    /// Replay wall time, scaled to the fleet.
    pub est_s: f64,
    /// Time inside the predictor during the replay, scaled to the fleet.
    pub predict_s: f64,
}

/// Replay sampled databases through a fresh `ProactiveEngine` each:
/// logins and logouts from the trace, engine timers as the engine
/// schedules them, and an Algorithm 5 pre-warm `k` before every
/// published predicted start.  Workflows complete instantly.
pub fn engine(traces: &[Trace], cfg: &SimConfig, policy: &PolicyConfig) -> EngineProbe {
    // Same-second order as the DES: pre-warm, timer, login, logout.
    const RESUME: u8 = 4;
    const TIMER: u8 = 10;
    const LOGIN: u8 = 11;
    const LOGOUT: u8 = 12;
    let (picked, scale) = sample(traces, 3_000);
    let mut predict_ns = 0u64;
    let t0 = Instant::now();
    for t in picked {
        let predictor = IncrementalPredictor::new(*policy).expect("Table 1 defaults");
        let mut engine = ProactiveEngine::new(*policy, predictor).expect("Table 1 defaults");
        let mut queue: BinaryHeap<Reverse<(i64, u8, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |q: &mut BinaryHeap<_>, ts: i64, prio: u8, token: u64| {
            seq += 1;
            q.push(Reverse((ts, prio, seq, token)));
        };
        for (ts, login) in clipped_events(t, cfg) {
            push(
                &mut queue,
                ts.as_secs(),
                if login { LOGIN } else { LOGOUT },
                0,
            );
        }
        while let Some(Reverse((ts, prio, _, token))) = queue.pop() {
            let event = match prio {
                RESUME => EngineEvent::ProactiveResume,
                TIMER => EngineEvent::Timer(prorp_core::TimerToken(token)),
                LOGIN => EngineEvent::ActivityStart,
                _ => EngineEvent::ActivityEnd,
            };
            for action in engine.on_event(Timestamp(ts), event) {
                match action {
                    EngineAction::ScheduleTimer(at, tok) if at < cfg.end => {
                        push(&mut queue, at.as_secs(), TIMER, tok.0)
                    }
                    EngineAction::SetPredictedStart(Some(at)) => {
                        let due = at - cfg.prewarm;
                        if due.as_secs() > ts && due < cfg.end {
                            push(&mut queue, due.as_secs(), RESUME, 0);
                        }
                    }
                    _ => {}
                }
            }
        }
        predict_ns += engine.counters().prediction_ns_sum;
        black_box(&engine);
    }
    EngineProbe {
        est_s: t0.elapsed().as_secs_f64() * scale,
        predict_s: predict_ns as f64 / 1e9 * scale,
    }
}
