//! Algorithm 4 A/B harness: the naive reference against the
//! change-point sweep.
//!
//! Times the naive from-scratch Algorithm 4 scan against the
//! incremental predictor (sorted login cache + change-point sweep over
//! the occupied period rows) on identical tables, then runs the same
//! fleet simulation twice — once per predictor via the `naive_predictor`
//! knob — to show the end-to-end win.  Both arms are bit-identical in
//! behaviour (the testkit differential oracles enforce it); this harness
//! asserts prediction and KPI equality again as a cheap belt-and-braces
//! check and reports only the cost difference.
//!
//! Flags:
//!
//! * `--smoke` — small fleet and few timing repetitions, for CI
//!   (`scripts/check.sh`);
//! * `--json <path>` — write the machine-readable summary
//!   (`results/BENCH_predict.json` by convention).
//!
//! Each micro case is timed in `repeats` batches; a batch's per-call
//! mean is one sample, and the record keeps the min, median and max of
//! the samples per arm.  The headline ns/op is the min (best-of-R),
//! which suppresses scheduler noise without hiding the steady-state
//! cost.
//!
//! Exit status: non-zero when any micro case's incremental ns/op is not
//! below the naive arm's — an O(positions × periods) path slipping back
//! into the sweep fails the check gate even in smoke mode.  No JSON is
//! written in that case.

use prorp_bench::{json_path_from_args, write_json, ExperimentScale};
use prorp_forecast::{ConfidenceBasis, IncrementalPredictor, ProbabilisticPredictor};
use prorp_obs::Json;
use prorp_sim::{SimConfig, SimPolicy, SimReport, Simulation};
use prorp_storage::HistoryTable;
use prorp_types::{EventKind, PolicyConfig, Seasonality, Seconds, Timestamp};
use std::hint::black_box;
use std::time::Instant;

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

/// A 28-day history with `per_day` sessions per day (the criterion
/// bench's shape, so micro numbers line up across harnesses).
fn history(per_day: i64) -> HistoryTable {
    let mut h = HistoryTable::new();
    for d in 0..28 {
        for s in 0..per_day {
            let start = d * DAY + 8 * HOUR + s * (10 * HOUR / per_day.max(1));
            h.insert_history(Timestamp(start), EventKind::Start);
            h.insert_history(Timestamp(start + 1_200), EventKind::End);
        }
    }
    h
}

/// A 6-day-old database with 7 logins whose clock times rotate by 8 h a
/// day: no 7-hour window holds logins of more than two days, so no
/// position reaches the default `c` and both arms sweep the whole
/// horizon — the common case across a young fleet.
fn no_pattern_history() -> HistoryTable {
    let mut h = HistoryTable::new();
    let mut session = |start: i64| {
        h.insert_history(Timestamp(start), EventKind::Start);
        h.insert_history(Timestamp(start + 600), EventKind::End);
    };
    for d in 0..6 {
        session(d * DAY + HOUR + (d % 3) * 8 * HOUR);
    }
    session(5 * DAY + 17 * HOUR + 1_200);
    h
}

/// Per-call nanoseconds of `f` over `reps` batches of `iters` calls:
/// one sample per batch, sorted ascending.
fn time_ns<F: FnMut()>(reps: usize, iters: usize, mut f: F) -> Vec<f64> {
    // One untimed warm-up pass populates caches and branch predictors.
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples
}

/// `{min, median, max}` of sorted samples.
fn spread(samples: &[f64]) -> Json {
    Json::object(vec![
        ("min", Json::Float(samples[0])),
        ("median", Json::Float(samples[samples.len() / 2])),
        ("max", Json::Float(samples[samples.len() - 1])),
    ])
}

/// The commit the binary was run from, suffixed `-dirty` when the
/// working tree has uncommitted changes; `unknown` outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string())
}

struct MicroCase {
    name: &'static str,
    history: HistoryTable,
    now: Timestamp,
    config: PolicyConfig,
    basis: ConfidenceBasis,
}

fn micro_cases() -> Vec<MicroCase> {
    let default = PolicyConfig::default();
    let case = |name, per_day, config, basis| MicroCase {
        name,
        history: history(per_day),
        now: Timestamp(28 * DAY),
        config,
        basis,
    };
    vec![
        case("default", 8, default, ConfidenceBasis::Windows),
        case("sparse_history", 1, default, ConfidenceBasis::Windows),
        case("dense_history", 40, default, ConfidenceBasis::Windows),
        case(
            "weekly",
            8,
            PolicyConfig {
                seasonality: Seasonality::Weekly,
                ..default
            },
            ConfidenceBasis::Windows,
        ),
        case("logins_basis", 8, default, ConfidenceBasis::Logins),
        case(
            "fine_slide",
            8,
            PolicyConfig {
                slide: Seconds::minutes(1),
                ..default
            },
            ConfidenceBasis::Windows,
        ),
        MicroCase {
            name: "no_pattern",
            history: no_pattern_history(),
            now: Timestamp(6 * DAY),
            config: default,
            basis: ConfidenceBasis::Windows,
        },
    ]
}

/// Run the fleet once with the chosen predictor arm, returning the
/// report and the wall-clock seconds of the `run()` call.
fn fleet_run(scale: &ExperimentScale, naive: bool) -> (SimReport, f64) {
    let cfg: SimConfig = SimConfig::builder(
        SimPolicy::Proactive(PolicyConfig::default()),
        scale.start(),
        scale.end(),
        scale.measure_from(),
    )
    .node_capacity((scale.fleet / 4).max(8))
    .nodes(5)
    .naive_predictor(naive)
    .build()
    .expect("experiment defaults are valid");
    let traces = scale.fleet_for(prorp_workload::RegionName::Eu1);
    let sim = Simulation::new(cfg, traces).expect("experiment config is valid");
    let t0 = Instant::now();
    let report = sim.run().expect("simulation completes");
    (report, t0.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_path_from_args();
    let (reps, iters) = if smoke { (3, 30) } else { (9, 200) };

    println!(
        "Algorithm 4 A/B ({} mode): naive scan vs change-point sweep, {reps} x {iters} calls",
        if smoke { "smoke" } else { "full" }
    );
    println!();
    println!(
        "{:<16} {:>6} {:>14} {:>14} {:>9}",
        "case", "rows", "naive ns/op", "incr ns/op", "speedup"
    );

    let mut micro_rows = Vec::new();
    let mut default_speedup = 0.0;
    let mut not_faster = Vec::new();
    for case in micro_cases() {
        let h = &case.history;
        let now = case.now;
        let naive = ProbabilisticPredictor::with_basis(case.config, case.basis).unwrap();
        let fast = IncrementalPredictor::with_basis(case.config, case.basis).unwrap();
        assert_eq!(
            naive.predict_at(h, now),
            fast.predict_at(h, now),
            "{}: A/B arms disagree — differential bug",
            case.name
        );
        let naive_ns = time_ns(reps, iters, || {
            black_box(naive.predict_at(black_box(h), now));
        });
        let fast_ns = time_ns(reps, iters, || {
            black_box(fast.predict_at(black_box(h), now));
        });
        let speedup = naive_ns[0] / fast_ns[0];
        if case.name == "default" {
            default_speedup = speedup;
        }
        if fast_ns[0] >= naive_ns[0] {
            not_faster.push(case.name);
        }
        println!(
            "{:<16} {:>6} {:>14.0} {:>14.0} {:>8.1}x",
            case.name,
            h.len(),
            naive_ns[0],
            fast_ns[0],
            speedup
        );
        micro_rows.push(Json::object(vec![
            ("case", Json::Str(case.name.into())),
            ("rows", Json::UInt(h.len() as u64)),
            ("naive_ns_per_op", Json::Float(naive_ns[0])),
            ("incremental_ns_per_op", Json::Float(fast_ns[0])),
            ("speedup", Json::Float(speedup)),
            ("naive_ns", spread(&naive_ns)),
            ("incremental_ns", spread(&fast_ns)),
        ]));
    }
    if !not_faster.is_empty() {
        eprintln!(
            "predict_bench: the incremental predictor is not faster than the naive scan on: {}",
            not_faster.join(", ")
        );
        std::process::exit(1);
    }

    // End-to-end: the same fleet through both predictor arms.  Reports
    // must agree on every KPI; only wall clock may differ.
    let scale = if smoke {
        ExperimentScale {
            fleet: 30,
            days: 32,
            warmup_days: 28,
            seed: 42,
        }
    } else {
        ExperimentScale::from_env()
    };
    let (fast_report, fast_s) = fleet_run(&scale, false);
    let (naive_report, naive_s) = fleet_run(&scale, true);
    assert_eq!(
        fast_report.kpi, naive_report.kpi,
        "fleet KPIs diverged between predictor arms — differential bug"
    );
    let fleet_speedup = naive_s / fast_s;
    let predictor_ns =
        |r: &SimReport| -> u64 { r.counters.iter().map(|c| c.prediction_ns_sum).sum() };
    let (naive_pred_ns, fast_pred_ns) = (predictor_ns(&naive_report), predictor_ns(&fast_report));
    println!();
    println!(
        "fleet ({} dbs, {} days): naive {:.2}s, incremental {:.2}s — {:.1}x; KPIs identical",
        scale.fleet, scale.days, naive_s, fast_s, fleet_speedup
    );
    println!(
        "  predictor time in fleet run: naive {:.0}ms, incremental {:.0}ms (sum over engines)",
        naive_pred_ns as f64 / 1e6,
        fast_pred_ns as f64 / 1e6,
    );

    if let Some(path) = json_path {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let value = Json::object(vec![
            ("rev", Json::Str(git_rev())),
            ("nproc", Json::UInt(nproc as u64)),
            (
                "mode",
                Json::Str(if smoke { "smoke" } else { "full" }.into()),
            ),
            ("repeats", Json::UInt(reps as u64)),
            ("iters_per_repeat", Json::UInt(iters as u64)),
            ("micro", Json::Array(micro_rows)),
            ("default_speedup", Json::Float(default_speedup)),
            (
                "fleet",
                Json::object(vec![
                    ("databases", Json::UInt(scale.fleet as u64)),
                    ("days", Json::Int(scale.days)),
                    ("naive_s", Json::Float(naive_s)),
                    ("incremental_s", Json::Float(fast_s)),
                    ("speedup", Json::Float(fleet_speedup)),
                    ("naive_prediction_ns_sum", Json::UInt(naive_pred_ns)),
                    ("incremental_prediction_ns_sum", Json::UInt(fast_pred_ns)),
                ]),
            ),
        ]);
        write_json(&path, &value);
    }
}
