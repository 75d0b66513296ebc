//! The live path: a `prorp-server serve --virtual` child process driven
//! over loopback HTTP by one closed-loop feeder and one open-loop reader.

use crate::spans::{Recorder, Span};
use crate::stats::{OpCount, Outcome};
use prorp_core::EngineCounters;
use prorp_server::json::{self, Json};
use prorp_server::{DbRecord, InMemoryBackend, LiveDriver, LiveEvent, LiveEventKind, StateBackend};
use prorp_sim::{SimConfig, SimPolicy, SimReport};
use prorp_types::{DatabaseId, DbState, PolicyConfig, Seconds, Timestamp};
use prorp_workload::Trace;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Shape of the live workload.
#[derive(Clone, Copy, Debug)]
pub struct LiveSpec {
    /// Databases registered with the server (`0..dbs`).
    pub dbs: usize,
    /// Simulated days fed.
    pub days: i64,
    /// Seconds of event time per commit window.
    pub window: i64,
    /// Open-loop read rate, requests per second.
    pub read_rate: f64,
}

/// Most events in one `POST /v1/events` body (the server caps bodies
/// at 1 MiB; a larger window goes out as several posts).
const MAX_EVENTS_PER_POST: usize = 8_000;

impl LiveSpec {
    /// End of the fed horizon.
    pub fn end(&self) -> Timestamp {
        Timestamp(0) + Seconds::days(self.days)
    }

    /// The config `prorp-server serve --policy proactive` builds: Table 1
    /// defaults, KPIs measured from time 0, one shard.
    pub fn config(&self) -> SimConfig {
        SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig::default()),
            Timestamp(0),
            self.end(),
            Timestamp(0),
        )
        .build()
        .expect("the server's config is valid")
    }
}

/// One commit window: its events (in stream order) and the bodies that
/// carry them.
pub struct Window {
    /// Watermark the window commits to.
    pub end: i64,
    /// The window's events.
    pub events: Vec<LiveEvent>,
    /// `POST /v1/events` bodies.
    pub bodies: Vec<String>,
}

/// Cut the traces' logins and logouts into commit windows, clipped to
/// the horizon the way the server clips them.
pub fn windows(traces: &[Trace], spec: &LiveSpec) -> Vec<Window> {
    let end = spec.end().as_secs();
    let n = (end + spec.window - 1) / spec.window;
    let mut per: Vec<Vec<LiveEvent>> = (0..n).map(|_| Vec::new()).collect();
    for t in traces {
        for s in &t.sessions {
            for (at, kind) in [
                (s.start, LiveEventKind::Login),
                (s.end, LiveEventKind::Logout),
            ] {
                let secs = at.as_secs();
                if (0..end).contains(&secs) {
                    per[(secs / spec.window) as usize].push(LiveEvent { db: t.db, at, kind });
                }
            }
        }
    }
    per.into_iter()
        .enumerate()
        .map(|(i, mut events)| {
            events.sort_by_key(|e| (e.at, e.db, e.kind == LiveEventKind::Logout));
            let bodies = events
                .chunks(MAX_EVENTS_PER_POST)
                .map(|chunk| {
                    let items = chunk
                        .iter()
                        .map(|e| {
                            Json::object(vec![
                                ("db", Json::Int(e.db.raw() as i64)),
                                ("at", Json::Int(e.at.as_secs())),
                                ("kind", Json::Str(e.kind.label().into())),
                            ])
                        })
                        .collect();
                    Json::object(vec![("events", Json::Array(items))]).render()
                })
                .collect();
            Window {
                end: ((i as i64) + 1).saturating_mul(spec.window).min(end),
                events,
                bodies,
            }
        })
        .collect()
}

/// One blocking request on a fresh connection (the server answers with
/// `Connection: close`).
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    s.write_all(body.as_bytes()).map_err(|e| e.to_string())?;
    let mut reply = String::new();
    s.read_to_string(&mut reply).map_err(|e| e.to_string())?;
    let status = reply
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed reply: {:?}", reply.get(..40)))?;
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A running `prorp-server` child.
pub struct Server {
    child: Child,
    // Held so the child's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Boot the server over `spec` and wait until it answers its first
    /// request; returns it with the seconds that took.
    pub fn boot(bin: &str, spec: &LiveSpec) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--dbs",
                &spec.dbs.to_string(),
                "--end",
                &spec.end().as_secs().to_string(),
                "--policy",
                "proactive",
                "--virtual",
                "--addr",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            Err(_) => None,
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        if addr.is_none() {
            server.stop();
            return Err(format!("server did not report its address: {line:?}"));
        }
        loop {
            match http(server.addr, "GET", "/v1/databases/0", "") {
                Ok((200, _)) => return Ok((server, t0.elapsed().as_secs_f64())),
                _ if t0.elapsed() > Duration::from_secs(60) => {
                    server.stop();
                    return Err("server never answered".into());
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::rss::peak_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Kill the child and wait for it.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Everything one fed pass measured.
#[derive(Default)]
pub struct Pass {
    /// Per-post ingest latencies, ms.
    pub ingest_ms: Vec<f64>,
    /// Per-window commit (`/v1/clock/advance`) latencies, ms.
    pub commit_ms: Vec<f64>,
    /// Open-loop read latencies from each read's due time, ms.
    pub read_ms: Vec<f64>,
    /// How late each read was sent relative to its due time, ms.
    pub read_lag_ms: Vec<f64>,
    /// Seconds from the first post to the last commit.
    pub feed_s: f64,
    /// Operations attempted and failed.
    pub ops: OpCount,
    /// Ingest outcome label counts: accepted, late, duplicate, unknown.
    pub ingest: [u64; 4],
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

fn count_labels(reply: &str, into: &mut [u64; 4]) {
    let Ok(v) = json::parse(reply) else { return };
    for r in v.get("results").and_then(Json::as_array).unwrap_or(&[]) {
        let slot = match r.as_str() {
            Some("accepted") => 0,
            Some("late") => 1,
            Some("duplicate") => 2,
            _ => 3,
        };
        into[slot] += 1;
    }
}

fn outcome(r: &Result<(u16, String), String>) -> Outcome {
    match r {
        Ok((status, body)) => Outcome::of_reply(*status, body),
        Err(_) => Outcome::ConnectionError,
    }
}

/// Feed every window (closed loop: post, then commit, then the next
/// window) while a second thread reads random databases at a fixed rate
/// (open loop, timed from each read's due time).
pub fn feed(
    addr: SocketAddr,
    spec: &LiveSpec,
    wins: &[Window],
    seed: u64,
    epoch: Option<Instant>,
) -> Pass {
    let done = AtomicBool::new(false);
    let (mut fed, read) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rec = epoch.map(Recorder::with_epoch);
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let interval = Duration::from_secs_f64(1.0 / spec.read_rate);
            let (mut lat, mut lag, mut ops) = (Vec::new(), Vec::new(), OpCount::default());
            let t0 = Instant::now();
            let mut i = 0u32;
            while !done.load(Ordering::SeqCst) {
                let due = t0 + interval * i;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    continue;
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let id = x % spec.dbs as u64;
                let sent = Instant::now();
                let r = http(addr, "GET", &format!("/v1/databases/{id}"), "");
                let end = Instant::now();
                ops.record(outcome(&r));
                lat.push((end - due).as_secs_f64() * 1e3);
                lag.push((sent - due).as_secs_f64() * 1e3);
                if let Some(rec) = rec.as_mut() {
                    rec.record(
                        "http.get_database",
                        sent,
                        end,
                        None,
                        1_000_000 + u64::from(i),
                    );
                }
                i += 1;
            }
            (
                lat,
                lag,
                ops,
                rec.map(Recorder::into_spans).unwrap_or_default(),
            )
        });
        let mut rec = epoch.map(Recorder::with_epoch);
        let mut pass = Pass::default();
        let t0 = Instant::now();
        for (w, win) in wins.iter().enumerate() {
            let w0 = Instant::now();
            let request = w as u64;
            let mut children = Vec::new();
            for body in &win.bodies {
                let a = Instant::now();
                let r = http(addr, "POST", "/v1/events", body);
                let b = Instant::now();
                pass.ops.record(outcome(&r));
                if let Ok((_, reply)) = &r {
                    count_labels(reply, &mut pass.ingest);
                }
                pass.ingest_ms.push((b - a).as_secs_f64() * 1e3);
                children.push(("http.post_events", a, b));
            }
            let a = Instant::now();
            let r = http(
                addr,
                "POST",
                "/v1/clock/advance",
                &format!("{{\"to\":{}}}", win.end),
            );
            let b = Instant::now();
            pass.ops.record(outcome(&r));
            pass.commit_ms.push((b - a).as_secs_f64() * 1e3);
            children.push(("http.clock_advance", a, b));
            if let Some(rec) = rec.as_mut() {
                let parent = rec.record("live.window", w0, b, None, request);
                for (name, a, b) in children {
                    rec.record(name, a, b, Some(parent), request);
                }
            }
        }
        pass.feed_s = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        pass.spans = rec.map(Recorder::into_spans).unwrap_or_default();
        let read = reader.join().expect("reader thread panicked");
        (pass, read)
    });
    let (lat, lag, ops, spans) = read;
    fed.read_ms = lat;
    fed.read_lag_ms = lag;
    fed.ops.add(ops);
    fed.spans.extend(spans);
    fed
}

/// `POST /v1/finish` and compare its summary with the DES report over
/// the same event stream.
pub fn finish_matches(addr: SocketAddr, des: &SimReport) -> Result<(), String> {
    let (status, body) = http(addr, "POST", "/v1/finish", "")?;
    if status != 200 {
        return Err(format!("POST /v1/finish -> {status}: {body}"));
    }
    let v = json::parse(&body)?;
    let num = |k: &str| -> Option<f64> {
        match v.get(k)? {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    };
    let expect = [
        ("qos_pct", des.kpi.qos_pct()),
        ("saved_frac", des.kpi.saved_frac),
        ("incidents", des.incidents as f64),
        ("giveups", des.giveups as f64),
        ("telemetry_events", des.telemetry_summary.total() as f64),
    ];
    if v.get("policy").and_then(Json::as_str) != Some(des.policy_label) {
        return Err(format!("live policy differs from the DES: {body}"));
    }
    for (k, want) in expect {
        if num(k) != Some(want) {
            return Err(format!("live {k} = {:?}, DES = {want}", num(k)));
        }
    }
    Ok(())
}

/// Database ids `0..dbs`, the server's registration order.
fn ids(dbs: usize) -> Vec<DatabaseId> {
    (0..dbs as u64).map(DatabaseId).collect()
}

/// `prorp_server::json::parse` over every posted body, per event.
pub fn json_parse_us_per_event(wins: &[Window]) -> f64 {
    let events: usize = wins.iter().map(|w| w.events.len()).sum();
    let t0 = Instant::now();
    for body in wins.iter().flat_map(|w| w.bodies.iter()) {
        std::hint::black_box(json::parse(body).ok());
    }
    t0.elapsed().as_secs_f64() * 1e6 / events.max(1) as f64
}

/// The stream through `LiveDriver` in-process, without HTTP.
pub struct DriverProbe {
    /// `LiveDriver::new` over every database.
    pub register_s: f64,
    /// Mean `ingest` cost.
    pub ingest_ns_per_event: f64,
    /// One `advance_to` per window.
    pub advance_ms: Vec<f64>,
    /// `finish` (final commit, drain, shard finish and merge).
    pub finish_s: f64,
    /// The merged report.
    pub report: SimReport,
}

/// Ingest each window's events and advance past it, as the server's
/// driver thread does, timing every call.
pub fn driver_probe(cfg: &SimConfig, wins: &[Window], dbs: usize) -> Result<DriverProbe, String> {
    let t0 = Instant::now();
    let mut driver = LiveDriver::new(cfg, &ids(dbs)).map_err(|e| e.to_string())?;
    let register_s = t0.elapsed().as_secs_f64();
    let (mut ingest_s, mut events) = (0.0, 0usize);
    let mut advance_ms = Vec::with_capacity(wins.len());
    for w in wins {
        let a = Instant::now();
        for ev in &w.events {
            driver.ingest(*ev);
        }
        ingest_s += a.elapsed().as_secs_f64();
        events += w.events.len();
        let b = Instant::now();
        driver
            .advance_to(Timestamp(w.end))
            .map_err(|e| e.to_string())?;
        advance_ms.push(b.elapsed().as_secs_f64() * 1e3);
    }
    let f0 = Instant::now();
    let report = driver.finish().map_err(|e| e.to_string())?;
    Ok(DriverProbe {
        register_s,
        ingest_ns_per_event: ingest_s * 1e9 / events.max(1) as f64,
        advance_ms,
        finish_s: f0.elapsed().as_secs_f64(),
        report,
    })
}

/// `InMemoryBackend` put and get of one record per database, ten
/// rounds each; returns nanoseconds per put and per get.
pub fn backend_probe(dbs: usize) -> (f64, f64) {
    let backend = InMemoryBackend::new();
    let ids = ids(dbs);
    let record = |id| DbRecord {
        id,
        state: DbState::Resumed,
        prediction: None,
        counters: EngineCounters::default(),
        open_incident: None,
        as_of: Timestamp(0),
    };
    let ops = (10 * ids.len()).max(1) as f64;
    let p0 = Instant::now();
    for _ in 0..10 {
        for &id in &ids {
            backend.put(record(id));
        }
    }
    let put_ns = p0.elapsed().as_secs_f64() * 1e9 / ops;
    let g0 = Instant::now();
    for _ in 0..10 {
        for &id in &ids {
            std::hint::black_box(backend.get(id));
        }
    }
    (put_ns, g0.elapsed().as_secs_f64() * 1e9 / ops)
}
