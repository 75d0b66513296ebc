//! The DES path: fleet generation, configs, and one pass through the
//! public `ShardDriver` entry points (the same calls `run_shard` makes),
//! with `merge_outcomes` folding the shards together.

use crate::spans::Recorder;
use prorp_obs::SloConfig;
use prorp_sim::{
    merge_outcomes, ObsConfig, ShardDriver, ShardOutcome, SimConfig, SimPolicy, SimReport,
    TelemetryMode,
};
use prorp_types::{DatabaseId, PolicyConfig, Seconds, Timestamp};
use prorp_workload::{LazyFleet, RegionName, RegionProfile, Trace};
use std::collections::HashMap;
use std::time::Instant;

/// Shape of one DES workload.
#[derive(Clone, Copy, Debug)]
pub struct DesSpec {
    /// Databases in the fleet.
    pub dbs: usize,
    /// Simulated days in total.
    pub days: i64,
    /// Warm-up days before the measured window.
    pub warmup_days: i64,
    /// Shard workers.
    pub shards: usize,
    /// Rollup observability (SLO series + quantile sketches, no spans).
    pub rollups: bool,
}

impl DesSpec {
    /// Simulation end.
    pub fn end(&self) -> Timestamp {
        Timestamp(0) + Seconds::days(self.days)
    }

    /// The proactive-policy config with Table 1 defaults.  The cluster
    /// is sized like the scale sweep's (uncontended capacity), so the
    /// merged KPIs do not depend on the shard count.
    pub fn config(&self, rollups: bool) -> SimConfig {
        let observe = if rollups {
            ObsConfig::on()
                .with_slo(SloConfig::default())
                .without_trace()
        } else {
            ObsConfig::off()
        };
        SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig::default()),
            Timestamp(0),
            self.end(),
            Timestamp(0) + Seconds::days(self.warmup_days),
        )
        .node_capacity((self.dbs / 4).max(8))
        .nodes(5)
        .shards(self.shards)
        .telemetry_mode(TelemetryMode::Summary)
        .observe(observe)
        .build()
        .expect("benchmark configs are valid")
    }
}

/// The EU1 archetype mix over `[0, days)`, generated from `seed`.
pub fn fleet(dbs: usize, days: i64, seed: u64) -> LazyFleet {
    LazyFleet::new(
        RegionProfile::for_region(RegionName::Eu1),
        dbs,
        Timestamp(0),
        Timestamp(0) + Seconds::days(days),
        seed,
    )
}

/// Generate the whole fleet up front (benchmark-side work).
pub fn generate(dbs: usize, days: i64, seed: u64) -> Vec<Trace> {
    fleet(dbs, days, seed).iter().collect()
}

/// Seconds of simulated time per `step_until` call: the DES analogue of
/// one live commit window.
pub const WINDOW_SECS: i64 = 300;

/// Latency samples of one pass, in milliseconds.  On the DES path an
/// ingest is one `register` call (it enqueues the database's sessions),
/// a commit is one `step_until` over a 5-minute window, and a read is
/// one `db_state` + `db_prediction` + `db_counters` lookup of a random
/// database after each window — the record the live API publishes.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Per-`register` latencies.
    pub ingest_ms: Vec<f64>,
    /// Per-window `step_until` latencies.
    pub commit_ms: Vec<f64>,
    /// Per-lookup read latencies.
    pub read_ms: Vec<f64>,
}

impl Samples {
    fn extend(&mut self, other: Samples) {
        self.ingest_ms.extend(other.ingest_ms);
        self.commit_ms.extend(other.commit_ms);
        self.read_ms.extend(other.read_ms);
    }
}

/// Wall-clock phases of one shard worker.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardTiming {
    /// The `register` calls alone.
    pub register_s: f64,
    /// The `step_until` calls.
    pub step_s: f64,
    /// `finish`.
    pub finish_s: f64,
    /// Seconds from the pass start until this shard was runnable.
    pub ready_at_s: f64,
}

/// Timings of one pass.
#[derive(Clone, Debug, Default)]
pub struct PassTiming {
    /// Time to a runnable system: until the last shard's `start` returned.
    pub setup_s: f64,
    /// Host seconds after set-up, through the merge.
    pub run_s: f64,
    /// `merge_outcomes`.
    pub merge_s: f64,
    /// Per-shard phases, in shard order.
    pub shards: Vec<ShardTiming>,
    /// Latency samples pooled over the shards.
    pub samples: Samples,
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// Drive one shard through new/register/start/step_until/finish, one
/// 5-minute window per `step_until` call, reading one random database
/// after each window.  With a recorder, every call becomes a span.
fn run_one_shard(
    cfg: &SimConfig,
    shard: usize,
    traces: &[&Trace],
    origin: Instant,
    rec: Option<&mut Recorder>,
    request: u64,
) -> Result<(ShardOutcome, ShardTiming, Samples), String> {
    let mut samples = Samples::default();
    let t0 = Instant::now();
    let mut driver = ShardDriver::new(cfg, shard, traces.len()).map_err(|e| e.to_string())?;
    let t_new = Instant::now();
    for trace in traces {
        let a = Instant::now();
        driver.register(trace).map_err(|e| e.to_string())?;
        samples.ingest_ms.push(ms(a, Instant::now()));
    }
    let t_reg = Instant::now();
    driver.start();
    let t_ready = Instant::now();
    let mut windows = Vec::new();
    let mut x = (request ^ (shard as u64) << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut horizon = cfg.start;
    while horizon < cfg.end {
        horizon = (horizon + Seconds(WINDOW_SECS)).min(cfg.end);
        let a = Instant::now();
        driver.step_until(horizon).map_err(|e| e.to_string())?;
        let b = Instant::now();
        samples.commit_ms.push(ms(a, b));
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if let Some(t) = traces.get((x % traces.len().max(1) as u64) as usize) {
            let r0 = Instant::now();
            std::hint::black_box((
                driver.db_state(t.db),
                driver.db_prediction(t.db),
                driver.db_counters(t.db),
            ));
            let r1 = Instant::now();
            samples.read_ms.push(ms(r0, r1));
            windows.push((a, b, Some((r0, r1))));
        } else {
            windows.push((a, b, None));
        }
    }
    let t_step = Instant::now();
    let outcome = driver.finish().map_err(|e| e.to_string())?;
    let t_fin = Instant::now();
    if let Some(r) = rec {
        let root = r.record("sim.shard", t0, t_fin, None, request);
        r.record("sim.shard.new", t0, t_new, Some(root), request);
        r.record("sim.shard.register", t_new, t_reg, Some(root), request);
        r.record("sim.shard.start", t_reg, t_ready, Some(root), request);
        let step = r.record("sim.shard.step", t_ready, t_step, Some(root), request);
        for (a, b, read) in windows {
            r.record("sim.shard.step_window", a, b, Some(step), request);
            if let Some((r0, r1)) = read {
                r.record("sim.shard.read", r0, r1, Some(step), request);
            }
        }
        r.record("sim.shard.finish", t_step, t_fin, Some(root), request);
    }
    Ok((
        outcome,
        ShardTiming {
            register_s: (t_reg - t_new).as_secs_f64(),
            step_s: (t_step - t_ready).as_secs_f64(),
            finish_s: (t_fin - t_step).as_secs_f64(),
            ready_at_s: (t_ready - origin).as_secs_f64(),
        },
        samples,
    ))
}

/// Split `traces` by shard, keeping input order within each shard.
fn partition(traces: &[Trace], shards: usize) -> Vec<Vec<&Trace>> {
    let mut parts: Vec<Vec<&Trace>> = vec![Vec::new(); shards];
    for t in traces {
        parts[t.db.shard_of(shards)].push(t);
    }
    parts
}

/// Run `work` once per shard: inline for a single shard (so it shares
/// the caller's heap arena and set-up samples do not inflate the passes'
/// RSS), else on one scoped thread per shard.  Results are in shard order.
fn per_shard<T, F>(parts: &[Vec<&Trace>], work: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize, &[&Trace]) -> Result<T, String> + Sync,
{
    if parts.len() == 1 {
        return vec![work(0, &parts[0])];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(s, part)| {
                let work = &work;
                scope.spawn(move || work(s, part))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("shard worker panicked".into()))
            })
            .collect()
    })
}

/// Set up only: `new`, every `register` and `start` on each shard, timed
/// until the last shard is runnable; the drivers are then dropped unrun.
pub fn setup_time(cfg: &SimConfig, traces: &[Trace]) -> Result<f64, String> {
    let parts = partition(traces, cfg.shards);
    let origin = Instant::now();
    let ready = per_shard(&parts, |s, part| {
        let mut driver = ShardDriver::new(cfg, s, part.len()).map_err(|e| e.to_string())?;
        for t in part {
            driver.register(t).map_err(|e| e.to_string())?;
        }
        driver.start();
        Ok(origin.elapsed().as_secs_f64())
    });
    let mut latest = 0.0f64;
    for r in ready {
        latest = latest.max(r?);
    }
    Ok(latest)
}

/// One full DES pass over `traces`, shards fanned out by `per_shard`,
/// then `merge_outcomes`.  With a recorder, spans
/// cover every driver call and the merge.
pub fn run_pass(
    cfg: &SimConfig,
    traces: &[Trace],
    rec: Option<&mut Recorder>,
    request: u64,
) -> Result<(SimReport, PassTiming), String> {
    let shards = cfg.shards;
    let parts = partition(traces, shards);
    let order: HashMap<DatabaseId, usize> =
        traces.iter().enumerate().map(|(i, t)| (t.db, i)).collect();

    let origin = Instant::now();
    let epoch = rec.as_ref().map(|r| r.epoch());
    let results = per_shard(&parts, |s, part| {
        let mut local = epoch.map(Recorder::with_epoch);
        let (o, t, samples) = run_one_shard(cfg, s, part, origin, local.as_mut(), request)?;
        Ok((
            o,
            t,
            samples,
            local.map(Recorder::into_spans).unwrap_or_default(),
        ))
    });
    let mut outcomes = Vec::with_capacity(shards);
    let mut timing = PassTiming::default();
    let mut shard_spans = Vec::new();
    for r in results {
        let (o, t, samples, spans) = r?;
        outcomes.push(o);
        timing.shards.push(t);
        timing.samples.extend(samples);
        shard_spans.push(spans);
    }
    let m0 = Instant::now();
    let report = merge_outcomes(cfg, &order, traces.len(), outcomes).map_err(|e| e.to_string())?;
    let end = Instant::now();
    timing.merge_s = (end - m0).as_secs_f64();
    timing.setup_s = timing
        .shards
        .iter()
        .map(|s| s.ready_at_s)
        .fold(0.0, f64::max);
    timing.run_s = (end - origin).as_secs_f64() - timing.setup_s;
    if let Some(r) = rec {
        let pass = r.record("sim.pass", origin, end, None, request);
        for spans in shard_spans {
            r.absorb(spans, Some(pass));
        }
        r.record("sim.runner.merge", m0, end, Some(pass), request);
    }
    Ok((report, timing))
}

/// The decision-relevant surfaces two runs of one fleet must agree on:
/// KPIs, per-tick Algorithm 5 batches, telemetry label counts, incident
/// and giveup counts, per-database counters (wall-clock prediction
/// timings excluded) and per-database history sizes.
pub fn same_decisions(a: &SimReport, b: &SimReport) -> Result<(), String> {
    let strip = |r: &SimReport| -> Vec<prorp_core::EngineCounters> {
        r.counters
            .iter()
            .map(|c| prorp_core::EngineCounters {
                prediction_ns_sum: 0,
                prediction_ns_max: 0,
                ..*c
            })
            .collect()
    };
    if a.kpi != b.kpi {
        return Err(format!("KPIs differ: {:?} vs {:?}", a.kpi, b.kpi));
    }
    if a.resume_batches != b.resume_batches {
        return Err("Algorithm 5 batch sizes differ".into());
    }
    if a.telemetry_summary != b.telemetry_summary {
        return Err("telemetry label counts differ".into());
    }
    if (a.incidents, a.giveups) != (b.incidents, b.giveups) {
        return Err("incident or giveup counts differ".into());
    }
    if strip(a) != strip(b) {
        return Err("per-database engine counters differ".into());
    }
    if a.history_stats != b.history_stats {
        return Err("per-database history sizes differ".into());
    }
    Ok(())
}
