//! The sim ≡ live differential suite.
//!
//! The control-plane server (`prorp-server`) drives the *same*
//! [`prorp_sim::ShardDriver`] stack the DES runs, through a watermark
//! protocol instead of a pre-loaded queue.  This suite is the
//! correctness centerpiece of service mode:
//!
//! * replay a recorded fleet through both drivers and assert the
//!   reports are **bit-identical** — resume/pause decisions (telemetry
//!   events), KPI counters, per-database engine counters, incident
//!   logs, Algorithm 5 batch sizes, and the observability span trace —
//!   at 1 shard and at 8 shards, clean and under fault injection;
//! * a proptest oracle proving ingest is **idempotent and
//!   reorder-tolerant within a watermark window**: arbitrary intra-
//!   window arrival order plus injected duplicate deliveries cannot
//!   change a single decision.

use proptest::prelude::*;
use prorp_obs::SloConfig;
use prorp_server::{IngestOutcome, LiveDriver, LiveEvent, LiveEventKind};
use prorp_sim::{ObsConfig, SimConfig, SimConfigBuilder, SimPolicy, SimReport, Simulation};
use prorp_types::{DatabaseId, PolicyConfig, RetryPolicy, Seconds, Timestamp};
use prorp_workload::{RegionName, RegionProfile, Trace};
use testkit::oracles::{assert_reports_equal, DAY, MEASURE_DAY, SPAN_DAYS};

fn fleet(seed: u64, dbs: usize) -> Vec<Trace> {
    RegionProfile::for_region(RegionName::Eu1).generate_fleet(
        dbs,
        Timestamp(0),
        Timestamp(SPAN_DAYS * DAY),
        seed,
    )
}

fn base_config(policy: SimPolicy, shards: usize) -> SimConfigBuilder {
    SimConfig::builder(
        policy,
        Timestamp(0),
        Timestamp(SPAN_DAYS * DAY),
        Timestamp(MEASURE_DAY * DAY),
    )
    .shards(shards)
    .observe(
        ObsConfig::with_snapshots(Seconds::days(7))
            .with_slo(SloConfig::default())
            .with_explain(),
    )
}

/// Flatten traces into the wire-form event stream, in trace order (the
/// order a recorded production stream would interleave arrivals).
fn stream_of(traces: &[Trace]) -> Vec<LiveEvent> {
    let mut events = Vec::new();
    for t in traces {
        for s in &t.sessions {
            events.push(LiveEvent {
                db: t.db,
                at: s.start,
                kind: LiveEventKind::Login,
            });
            events.push(LiveEvent {
                db: t.db,
                at: s.end,
                kind: LiveEventKind::Logout,
            });
        }
    }
    events.sort_by_key(|e| e.at);
    events
}

/// Replay `events` through a [`LiveDriver`], ingesting everything that
/// falls inside each `[watermark, watermark + chunk)` window right
/// before advancing past it.
fn run_live(cfg: &SimConfig, traces: &[Trace], events: &[LiveEvent], chunk: Seconds) -> SimReport {
    let ids: Vec<DatabaseId> = traces.iter().map(|t| t.db).collect();
    let mut driver = LiveDriver::new(cfg, &ids).expect("live driver builds");
    let mut window_start = cfg.start;
    while window_start < cfg.end {
        let window_end = (window_start + chunk).min(cfg.end);
        for ev in events {
            if ev.at >= window_start && ev.at < window_end {
                assert_eq!(driver.ingest(*ev), IngestOutcome::Accepted, "{ev:?}");
            }
        }
        driver.advance_to(window_end).expect("advance");
        window_start = window_end;
    }
    driver.finish().expect("live run finishes")
}

/// Everything [`assert_reports_equal`] covers, plus the full telemetry
/// event log and the deterministic observability surface (span trace +
/// volatile-masked metrics snapshots) — "identical decisions, KPI
/// counters, and span traces" from the issue, literally.
fn assert_live_identical(des: &SimReport, live: &SimReport, context: &str) {
    assert_reports_equal(des, live, context);
    assert_eq!(
        des.telemetry.events(),
        live.telemetry.events(),
        "{context}: decision (telemetry) logs differ"
    );
    assert_eq!(
        des.telemetry_summary, live.telemetry_summary,
        "{context}: telemetry summaries differ"
    );
    match (&des.obs, &live.obs) {
        (Some(a), Some(b)) => {
            assert_eq!(a.trace, b.trace, "{context}: span traces differ");
            let da: Vec<_> = a.snapshots.iter().map(|s| s.deterministic()).collect();
            let db: Vec<_> = b.snapshots.iter().map(|s| s.deterministic()).collect();
            assert_eq!(da, db, "{context}: metrics snapshot series differ");
            // SLO rollups, their derived rows, and the burn-rate alert
            // log must agree bit for bit — the fleet-scale surface an
            // operator actually pages on.
            assert_eq!(a.slo, b.slo, "{context}: SLO series differ");
            assert_eq!(a.alerts(), b.alerts(), "{context}: alert logs differ");
            // Decision provenance rides inside the trace; compare the
            // explain records on their own too so a regression names
            // the surface that broke.
            let explains = |r: &prorp_obs::ObsReport| -> Vec<_> {
                r.trace
                    .iter()
                    .filter(|t| matches!(t.kind, prorp_obs::SpanKind::Decision { .. }))
                    .cloned()
                    .collect()
            };
            let (ea, eb) = (explains(a), explains(b));
            assert_eq!(ea, eb, "{context}: decision explains differ");
        }
        (a, b) => assert_eq!(
            a.is_some(),
            b.is_some(),
            "{context}: observability presence differs"
        ),
    }
}

fn run_des(cfg: &SimConfig, traces: &[Trace]) -> SimReport {
    Simulation::new(cfg.clone(), traces.to_vec())
        .expect("config validates")
        .run()
        .expect("DES completes")
}

#[test]
fn live_matches_des_at_one_and_eight_shards() {
    let traces = fleet(4242, 16);
    let events = stream_of(&traces);
    for policy in [
        SimPolicy::Reactive,
        SimPolicy::Proactive(PolicyConfig::default()),
    ] {
        for shards in [1usize, 8] {
            let cfg = base_config(policy.clone(), shards)
                .build()
                .expect("config validates");
            let des = run_des(&cfg, &traces);
            let live = run_live(&cfg, &traces, &events, Seconds::hours(6));
            assert_live_identical(
                &des,
                &live,
                &format!("{} @ {shards} shard(s)", cfg.policy.label()),
            );
        }
    }
}

#[test]
fn live_matches_des_under_fault_injection() {
    let traces = fleet(77, 12);
    let events = stream_of(&traces);
    for shards in [1usize, 8] {
        let cfg = base_config(SimPolicy::Proactive(PolicyConfig::default()), shards)
            .stage_failure_probabilities(0.3)
            .retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Seconds(20),
                max_backoff: Seconds::minutes(2),
            })
            .stuck_probability(0.05)
            .diagnostics_period(Seconds::minutes(5))
            .forecast_fail_every(5)
            .build()
            .expect("config validates");
        let des = run_des(&cfg, &traces);
        let live = run_live(&cfg, &traces, &events, Seconds::hours(3));
        assert_live_identical(&des, &live, &format!("faulty @ {shards} shard(s)"));
        // The fault layer actually fired — the differential is not
        // vacuous.
        assert!(
            des.workflow.retries > 0 || des.giveups > 0,
            "fault knobs produced no faults; tighten the config"
        );
    }
}

/// Deterministic in-place Fisher–Yates, keyed by a proptest-chosen seed
/// (`Date`-free and `rand`-free: the testkit only vendors proptest).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ingest idempotency + intra-window reorder tolerance: shuffle the
    /// arrivals inside every watermark window, redeliver a sample of
    /// them as duplicates (same window *and* after their window closed),
    /// and the final report still matches the clean DES run bit for bit.
    #[test]
    fn ingest_is_idempotent_and_reorder_tolerant(
        fleet_seed in 0u64..1_000,
        shuffle_seed in any::<u64>(),
        chunk_hours in 1i64..48,
        shards in 1u64..4,
    ) {
        let traces = fleet(fleet_seed, 6);
        let events = stream_of(&traces);
        let cfg = base_config(SimPolicy::Proactive(PolicyConfig::default()), shards as usize)
            .build()
            .expect("config validates");
        let des = run_des(&cfg, &traces);

        let ids: Vec<DatabaseId> = traces.iter().map(|t| t.db).collect();
        let mut driver = LiveDriver::new(&cfg, &ids).expect("live driver builds");
        let chunk = Seconds::hours(chunk_hours);
        let mut window_start = cfg.start;
        let mut window_index = 0u64;
        let mut previous: Option<LiveEvent> = None;
        while window_start < cfg.end {
            let window_end = (window_start + chunk).min(cfg.end);
            let mut arrivals: Vec<LiveEvent> = events
                .iter()
                .copied()
                .filter(|e| e.at >= window_start && e.at < window_end)
                .collect();
            // Arbitrary arrival order within the window…
            shuffle(&mut arrivals, shuffle_seed ^ window_index);
            // …with every third delivery duplicated immediately.
            for (i, ev) in arrivals.iter().enumerate() {
                prop_assert_eq!(driver.ingest(*ev), IngestOutcome::Accepted);
                if i % 3 == 0 {
                    prop_assert_eq!(driver.ingest(*ev), IngestOutcome::Duplicate);
                }
            }
            // Redelivery from an already-committed window is rejected
            // as late — it cannot rewrite history.
            if let Some(old) = previous {
                prop_assert_eq!(driver.ingest(old), IngestOutcome::Late);
            }
            previous = arrivals.first().copied().or(previous);
            driver.advance_to(window_end).expect("advance");
            window_start = window_end;
            window_index += 1;
        }
        let live = driver.finish().expect("live run finishes");
        assert_live_identical(&des, &live, "shuffled+duplicated replay");
    }
}
