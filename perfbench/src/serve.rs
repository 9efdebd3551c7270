//! `serve_hot` and `serve_fresh`: the `seco serve` daemon over loopback
//! TCP, with the default `ServerConfig` (4-shard fetch cache of 4096
//! responses per service, `RequestCount`, `exec_workers` = cores).
//!
//! Up to two clients (never more than the cores) each run a closed
//! loop of liquid sessions, as a liquid-UI user does: a streamed
//! `POST /query`, then `more`, then `rerank`, then `DELETE`. A client
//! sends its next request only after the previous one completed.
//!
//! * `serve_hot` draws each session's query, skewed, from a fixed pool
//!   of twelve texts. The set-up pass runs every pool text once, so the
//!   plan cache answers every lookup and every fetch is a cache hit:
//!   the time goes to re-executing joins over cached chunks, ranking,
//!   JSON and HTTP — the path the daemon exists for.
//! * `serve_fresh` sends 4–5-atom stars and snowflakes with fresh
//!   literals: every query misses the plan cache, runs the full
//!   branch-and-bound search, misses the fetch cache and inserts into
//!   it, and the plan cache and the `Symbol` interner grow throughout.
//!
//! The traced run also replays the traced sessions in-process, through
//! `ServerState::plan`, the executor call behind `ServerState::execute`
//! and `render_rows`, on an identically warmed state; the difference
//! to the client-observed time is the HTTP layer's share.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seco_engine::{execute_plan, execute_plan_shared, EngineConfig, JoinStats, ResultSet};
use seco_model::Symbol;
use seco_optimizer::{optimize, CostMetric, SearchStats};
use seco_query::{parse_query, RankingFunction};
use seco_server::{render_rows, Server, ServerConfig, ServerHandle, ServerState, Session};

use crate::gen::{self, QuerySpec, Shape};
use crate::json::{self, Json};
use crate::layers::{add_search, overhead_note, per_layer, write_spans, LayerInputs};
use crate::probe::{Ctx, Probe};
use crate::{cores, cpu_seconds, peak_rss_mb, Args, Calm, Report, Timings, SETUP_REPS};

/// `serve_hot`'s pool, most popular first: the chapter's two queries
/// and generated stars, chains and a snowflake.
const HOT_POOL: [Shape; 12] = [
    Shape::Running,
    Shape::Star(3),
    Shape::Chain(3),
    Shape::Trip,
    Shape::Star(2),
    Shape::Chain(2),
    Shape::Star(3),
    Shape::Chain(3),
    Shape::Snowflake(4),
    Shape::Star(4),
    Shape::Chain(2),
    Shape::Star(2),
];

/// `serve_fresh`'s shapes and their share of every cycle of the draw
/// order. Four-atom shapes are the majority, so the median sits inside
/// one mode of the latency distribution and the five-atom searches
/// make the tail.
const FRESH_MIX: [(Shape, usize); 4] = [
    (Shape::Star(4), 7),
    (Shape::Snowflake(4), 7),
    (Shape::Star(5), 3),
    (Shape::Snowflake(5), 3),
];

/// Rows per streamed `chunk` frame (the daemon's default).
const CHUNK: usize = 5;

/// Every `SAMPLE_EVERY`-th session of a client keeps its replies for
/// the answer checks, up to `CHECK_CAP` sessions per client (each
/// distinct text costs a serial reference run).
const SAMPLE_EVERY: usize = 4;
const CHECK_CAP: usize = 32;

/// How long the traced run may spend replaying, as a share of the
/// measured window.
const REPLAY_SHARE: f64 = 0.5;

/// A reply as the client saw it.
struct Reply {
    status: u16,
    body: String,
    ttfb: Duration,
    first_row: Option<Duration>,
    total: Duration,
    bytes: u64,
}

/// One HTTP/1.1 exchange on a fresh connection, as the daemon's
/// protocol has it (`Connection: close`). Times the first response
/// byte, the first `chunk` frame that carries a row, and the last byte.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> io::Result<Reply> {
    let start = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.write_all(
        format!(
            "{method} {target} HTTP/1.1\r\nHost: seco\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut r = BufReader::new(conn);
    let mut line = String::new();
    let mut bytes = r.read_line(&mut line)? as u64;
    let ttfb = start.elapsed();
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut chunked = false;
    let mut length = None;
    loop {
        line.clear();
        let n = r.read_line(&mut line)?;
        bytes += n as u64;
        let h = line.trim().to_ascii_lowercase();
        if n == 0 || h.is_empty() {
            break;
        }
        if h == "transfer-encoding: chunked" {
            chunked = true;
        } else if let Some(v) = h.strip_prefix("content-length:") {
            length = v.trim().parse::<usize>().ok();
        }
    }
    let mut body = Vec::new();
    let mut first_row = None;
    if chunked {
        loop {
            line.clear();
            bytes += r.read_line(&mut line)? as u64;
            let n = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            if n == 0 {
                line.clear();
                bytes += r.read_line(&mut line)? as u64;
                break;
            }
            let at = body.len();
            body.resize(at + n + 2, 0);
            r.read_exact(&mut body[at..])?;
            body.truncate(at + n);
            bytes += n as u64 + 2;
            let frame = &body[at..];
            if first_row.is_none()
                && contains(frame, b"\"frame\":\"chunk\"")
                && contains(frame, b"\"combo\"")
            {
                first_row = Some(start.elapsed());
            }
        }
    } else {
        match length {
            Some(n) => {
                body.resize(n, 0);
                r.read_exact(&mut body)?;
            }
            None => {
                r.read_to_end(&mut body)?;
            }
        }
        bytes += body.len() as u64;
    }
    Ok(Reply {
        status,
        body: String::from_utf8_lossy(&body).into_owned(),
        ttfb,
        first_row,
        total: start.elapsed(),
        bytes,
    })
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// One HTTP operation as the client saw it.
struct Op {
    name: &'static str,
    /// Start on the probe's clock.
    start_ns: u64,
    took: Duration,
    status: u16,
}

/// One liquid session as a client ran it.
struct SessionLog {
    ops: Vec<Op>,
    /// The streamed query's reply, body dropped unless kept.
    query: Option<Reply>,
    /// The plan frame's cache verdict.
    cached: Option<bool>,
    /// Query stream, `more` and `rerank` bodies, when asked to keep them.
    kept: Option<[String; 3]>,
    error: Option<String>,
}

/// A session's streamed frames: `(plan frame, rows, summary frame)`.
fn frames(body: &str) -> Result<(Json, Vec<Json>, Json), String> {
    let mut docs = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(json::parse)
        .collect::<Result<Vec<_>, _>>()?;
    if docs.len() < 2 {
        return Err("stream has no plan or summary frame".into());
    }
    let summary = docs.pop().expect("checked length");
    let plan = docs.remove(0);
    let mut rows = Vec::new();
    for d in docs {
        if d.get("frame").and_then(Json::as_str) != Some("chunk") {
            return Err(format!("unexpected frame {d:?}"));
        }
        rows.extend(
            d.get("rows")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .cloned(),
        );
    }
    Ok((plan, rows, summary))
}

fn run_session(addr: SocketAddr, probe: &Probe, spec: &QuerySpec, keep: bool) -> SessionLog {
    let mut log = SessionLog {
        ops: Vec::with_capacity(4),
        query: None,
        cached: None,
        kept: None,
        error: None,
    };
    let at = probe.now_ns();
    let mut q = match http(addr, "POST", "/query?stream=1", &spec.text) {
        Ok(q) => q,
        Err(e) => {
            log.error = Some(format!("POST /query: {e}"));
            return log;
        }
    };
    log.ops.push(Op {
        name: "http.query",
        start_ns: at,
        took: q.total,
        status: q.status,
    });
    let parsed = frames(&q.body);
    let session = parsed.as_ref().ok().and_then(|(plan, _, summary)| {
        log.cached = plan.get("cached").map(|c| *c == Json::Bool(true));
        summary
            .get("session")
            .and_then(Json::as_f64)
            .map(|id| id as u64)
    });
    let Some(id) = session.filter(|_| q.status == 200) else {
        log.error = Some(format!(
            "POST /query answered {}: {:.200}",
            q.status, q.body
        ));
        return log;
    };
    let body = std::mem::take(&mut q.body);
    log.query = Some(q);
    let weights: Vec<String> = spec.rerank.iter().map(|w| w.to_string()).collect();
    let mut replies = Vec::new();
    for (op, method, target, body) in [
        (
            "http.more",
            "POST",
            format!("/session/{id}/more?n={}", spec.k),
            String::new(),
        ),
        (
            "http.rerank",
            "POST",
            format!("/session/{id}/rerank"),
            weights.join(","),
        ),
        (
            "http.delete",
            "DELETE",
            format!("/session/{id}"),
            String::new(),
        ),
    ] {
        let at = probe.now_ns();
        match http(addr, method, &target, &body) {
            Ok(r) => {
                log.ops.push(Op {
                    name: op,
                    start_ns: at,
                    took: r.total,
                    status: r.status,
                });
                replies.push(r.body);
            }
            Err(e) => {
                log.error = Some(format!("{method} {target}: {e}"));
                break;
            }
        }
    }
    if keep && replies.len() == 3 {
        let mut it = replies.into_iter();
        let more = it.next().expect("three replies");
        let rerank = it.next().expect("three replies");
        log.kept = Some([body, more, rerank]);
    }
    log
}

/// A sampled session's replies, checked after the window.
struct Kept {
    spec: QuerySpec,
    replies: [String; 3],
}

/// A traced session, replayed in-process after the window.
struct Traced {
    spec: QuerySpec,
    request: u32,
    start: Duration,
    /// Client-observed time of the session's operations.
    client: Duration,
}

/// What the clients measured, folded as sessions complete so the
/// benchmark's own memory does not grow with the session count.
#[derive(Default)]
struct Tally {
    timings: Timings,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    ttfb_ns: u64,
    transfer_ns: u64,
    bytes: u64,
    plan_lookups: u64,
    plan_hits: u64,
    depth_max: u64,
    open_max: u64,
    kept: Vec<Kept>,
    traced: Vec<Traced>,
}

impl Tally {
    /// Folds one session in; a traced session also leaves one span per
    /// HTTP operation in `probe`.
    fn add(
        &mut self,
        probe: &Probe,
        at: Duration,
        log: SessionLog,
        spec: QuerySpec,
        traced: Option<u32>,
    ) {
        self.attempted += log.ops.len().max(1) as u64;
        self.failed += log.ops.iter().filter(|o| o.status != 200).count() as u64;
        if let Some(e) = log.error {
            // A transport error leaves no non-200 status to count.
            self.failed += u64::from(log.ops.iter().all(|o| o.status == 200));
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
            return;
        }
        let Some(q) = log.query else { return };
        let t = &mut self.timings;
        if traced.is_some() {
            t.query_traced.push(at, q.total);
        } else {
            t.query.push(at, q.total);
        }
        t.first_row.push(at, q.first_row.unwrap_or(q.total));
        for o in &log.ops {
            if o.name == "http.more" || o.name == "http.rerank" {
                t.liquid.push(at, o.took);
            }
        }
        self.ttfb_ns += q.ttfb.as_nanos() as u64;
        self.transfer_ns += (q.total - q.ttfb).as_nanos() as u64;
        self.bytes += q.bytes;
        self.plan_lookups += u64::from(log.cached.is_some());
        self.plan_hits += u64::from(log.cached == Some(true));
        if let Some(request) = traced {
            let ctx = Ctx { request, parent: 0 };
            for o in &log.ops {
                let end = o.start_ns + o.took.as_nanos() as u64;
                probe.record_span(probe.open(), ctx, o.name, o.start_ns, end);
            }
            self.traced.push(Traced {
                spec: spec.clone(),
                request,
                start: at,
                client: log.ops.iter().map(|o| o.took).sum(),
            });
        }
        if let Some(replies) = log.kept {
            self.kept.push(Kept { spec, replies });
        }
    }

    fn merge(&mut self, o: Tally) {
        self.timings.merge(o.timings);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.ttfb_ns += o.ttfb_ns;
        self.transfer_ns += o.transfer_ns;
        self.bytes += o.bytes;
        self.plan_lookups += o.plan_lookups;
        self.plan_hits += o.plan_hits;
        self.depth_max = self.depth_max.max(o.depth_max);
        self.open_max = self.open_max.max(o.open_max);
        self.kept.extend(o.kept);
        self.traced.extend(o.traced);
    }
}

struct Daemon {
    handle: ServerHandle,
}

impl Daemon {
    fn boot(seed: u64, probe: &Arc<Probe>) -> io::Result<Daemon> {
        let registry = gen::build_registry(seed, probe);
        let state = ServerState::new(registry, ServerConfig::default());
        let handle = Server::bind("127.0.0.1:0", state)?.spawn()?;
        Ok(Daemon { handle })
    }

    fn state(&self) -> &Arc<ServerState> {
        &self.handle.state
    }

    /// Drains the daemon and waits for its accept loop to exit.
    fn shutdown(self) {
        let _ = http(self.handle.addr, "POST", "/admin/shutdown", "");
        self.handle.join();
    }
}

/// Warm-up sessions: every pool text (`serve_hot`), or a handful of
/// fresh queries that touch the generated services (`serve_fresh`).
fn warm_specs(seed: u64, hot: Option<&Vec<QuerySpec>>) -> Vec<QuerySpec> {
    match hot {
        Some(pool) => pool.clone(),
        None => {
            let mut rng = gen::stream(seed, 0x3A7);
            (0..6)
                .map(|i| gen::query(FRESH_MIX[i % 4].0, &mut rng, &format!("w{i}"), None))
                .collect()
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // `serve_hot`'s pool of texts; `None` on `serve_fresh`.
    let hot: Option<Vec<QuerySpec>> = (args.workload == "serve_hot").then(|| {
        let mut rng = gen::stream(args.seed, 0x9001);
        HOT_POOL
            .iter()
            .enumerate()
            .map(|(i, s)| gen::query(*s, &mut rng, &format!("p{i}"), Some(i)))
            .collect()
    });
    let clients = cores().min(2);
    let probe = Probe::new();
    let warm = warm_specs(args.seed, hot.as_ref());

    // Set-up: build the registry, boot the daemon and run the warm-up
    // sessions over HTTP; repeated, keeping the last daemon.
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = daemon.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let d = match Daemon::boot(args.seed, &probe) {
            Ok(d) => d,
            Err(e) => {
                report.problem(format!("daemon failed to start: {e}"));
                return report;
            }
        };
        for spec in &warm {
            let log = run_session(d.handle.addr, &probe, spec, false);
            if let Some(e) = log.error {
                report.problem(format!("warm-up session failed: {e}"));
            }
        }
        setups.push(t.elapsed());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let state = daemon.state().clone();
    let addr = daemon.handle.addr;
    let pool = state.shared.exec_pool().cloned();
    // The draw order: pool ranks with Zipf-like counts (20, 10, 7, …),
    // or the fresh shapes' mix; each client starts at its own offset.
    let counts: Vec<usize> = match &hot {
        Some(_) => (0..HOT_POOL.len())
            .map(|r| (20 + r / 2) / (r + 1))
            .collect(),
        None => FRESH_MIX.iter().map(|(_, n)| *n).collect(),
    };
    let order = gen::schedule(&counts, &mut gen::stream(args.seed, 0x0D3));

    let exec0 = pool.as_ref().map(|p| p.stats());
    let before = state.registry.total_stats();
    let rejected0 = rejected(&state);
    let (_, fetch_ns0) = probe.fetch_totals();
    let (symbols0, bytes0) = (Symbol::table_len(), Symbol::table_bytes());
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let calm = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| Calm::sample(start, args.seconds as u32));
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (hot, state, pool, probe) = (hot.as_ref(), &state, pool.as_ref(), &probe);
                let order = &order;
                scope.spawn(move || {
                    let mut rng = gen::stream(args.seed, 0x100 + c as u64);
                    let mut t = Tally::default();
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let next = order[(i + c * order.len() / clients) % order.len()];
                        let spec = match hot {
                            Some(pool) => pool[next].clone(),
                            None => {
                                let shape = FRESH_MIX[next].0;
                                gen::query(shape, &mut rng, &format!("c{c}n{i}"), None)
                            }
                        };
                        let at = start.elapsed();
                        let keep = i.is_multiple_of(SAMPLE_EVERY) && i < SAMPLE_EVERY * CHECK_CAP;
                        let log = run_session(addr, probe, &spec, keep);
                        if let Some(p) = pool {
                            // The pool counts a job after queueing it, so a
                            // worker that takes it first makes the counter
                            // wrap below zero for a moment: read it signed.
                            let depth = (p.stats().queue_depth as isize).max(0);
                            t.depth_max = t.depth_max.max(depth as u64);
                        }
                        t.open_max = t.open_max.max(state.open_sessions() as u64);
                        let request = ((c as u32) << 24) | (i as u32 + 1);
                        let traced = (args.trace && i % 2 == 1).then_some(request);
                        t.add(probe, at, log, spec, traced);
                        i += 1;
                    }
                    t
                })
            })
            .collect();
        for w in workers {
            tally.merge(w.join().expect("client thread"));
        }
        sampler.join().expect("steal sampler")
    });
    let window = start.elapsed();
    let cpu_ms = (cpu_seconds() - cpu0) * 1e3;
    let rss = peak_rss_mb();
    report.notes.push(calm.note());
    let after = state.registry.total_stats();
    let exec1 = pool.as_ref().map(|p| p.stats());
    let (_, fetch_ns1) = probe.fetch_totals();
    let queries = tally.timings.queries() as u64;
    let mut c = LayerInputs {
        queries,
        interner_symbols: (Symbol::table_len() - symbols0) as u64,
        interner_bytes: (Symbol::table_bytes() - bytes0) as u64,
        plan_cache_entries: state.plan_cache.len() as u64,
        plan_lookups: tally.plan_lookups,
        plan_hits: tally.plan_hits,
        rejected: rejected(&state).saturating_sub(rejected0),
        fetch_calls: after.calls - before.calls,
        cache_hits: after.cache_hits - before.cache_hits,
        coalesced: after.coalesced - before.coalesced,
        fetch_ns: fetch_ns1 - fetch_ns0,
        exec_queue_depth_max: tally.depth_max,
        sessions_open_max: tally.open_max,
        ttfb_ns: tally.ttfb_ns,
        transfer_ns: tally.transfer_ns,
        response_bytes: tally.bytes,
        ..LayerInputs::default()
    };
    if let (Some(a), Some(b)) = (exec0, exec1) {
        c.exec_morsels = b.morsels - a.morsels;
        c.exec_steals = b.steals - a.steals;
        c.exec_busy_ms = b.busy_ms - a.busy_ms;
    }
    drop(pool);
    drop(state);
    daemon.shutdown();
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    for e in tally.errors.drain(..) {
        report.problem(e);
    }

    // "It fires": each daemon workload must keep exercising its layer.
    let hit_ratio = c.plan_hits as f64 / c.plan_lookups.max(1) as f64;
    report.fires(queries > 0, "at least one query completed");
    if hot.is_some() {
        report.fires(
            hit_ratio == 1.0,
            &format!("optimizer.plan_cache_hit_ratio == 1 ({hit_ratio:.4})"),
        );
        report.fires(
            c.fetch_calls == 0,
            &format!(
                "services.fetch_calls == 0 after warm-up ({})",
                c.fetch_calls
            ),
        );
    } else {
        report.fires(
            hit_ratio == 0.0,
            &format!("optimizer.plan_cache_hit_ratio == 0 ({hit_ratio:.4})"),
        );
    }
    check_answers(&mut report, args.seed, &tally.kept);

    let query_p50_ms = tally.timings.traced_p50_ms();
    std::mem::take(&mut tally.timings).report(&mut report, &calm, &setups, rss);
    report.notes.push(format!(
        "window: {:.2} s, {clients} clients, {queries} sessions; calls_per_query = {:.3} count; \
         cpu_per_query = {:.4} ms; failed_ratio = {:.4} ({} of {} operations)",
        window.as_secs_f64(),
        c.fetch_calls as f64 / queries.max(1) as f64,
        cpu_ms / queries.max(1) as f64,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));

    if args.trace {
        c.failed = report.failed;
        c.attempted = report.attempted;
        c.query_p50_ms = query_p50_ms;
        report.notes.push(overhead_note(&c));
        tally.traced.sort_by_key(|t| t.start);
        let budget = Duration::from_secs_f64(args.seconds as f64 * REPLAY_SHARE);
        for e in replay(&probe, args.seed, &warm, &tally.traced, budget, &mut c) {
            report.problem(e);
        }
        let spans = probe.take_spans();
        report.per_layer = per_layer(&c, &spans);
        match write_spans(&args.workload, args.seed, &spans) {
            Ok(path) => report
                .notes
                .push(format!("spans: {} written to {path}", spans.len())),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    }
    report
}

/// The daemon's refusal counter, from its `GET /stats` document.
fn rejected(state: &ServerState) -> u64 {
    json::parse(&state.stats_json())
        .ok()
        .and_then(|s| s.get("rejected").and_then(Json::as_f64))
        .unwrap_or(0.0) as u64
}

/// Replays the traced sessions in-process on an identically warmed
/// state, with a span around each layer call under the session's
/// request id, and fills the replay's share of `c`. Returns the
/// sessions that failed in-process.
fn replay(
    probe: &Arc<Probe>,
    seed: u64,
    warm: &[QuerySpec],
    traced: &[Traced],
    budget: Duration,
    c: &mut LayerInputs,
) -> Vec<String> {
    let state = ServerState::new(gen::build_registry(seed, probe), ServerConfig::default());
    let mut failed = Vec::new();
    for spec in warm {
        let _ = replay_session(&state, probe, None, spec);
    }
    probe.set_tracing(true);
    let start = Instant::now();
    for log in traced {
        if start.elapsed() > budget {
            break;
        }
        let req = Ctx {
            request: log.request,
            parent: 0,
        };
        let t = Instant::now();
        match replay_session(&state, probe, Some(req), &log.spec) {
            Ok((join, search, combos)) => {
                c.http_ns += log.client.as_nanos() as i64 - t.elapsed().as_nanos() as i64;
                c.replayed += 1;
                c.join.merge(&join);
                c.joined += 1;
                add_search(&mut c.search, &search);
                c.searched += 1;
                c.combinations += combos;
            }
            Err(e) => failed.push(format!("in-process replay failed: {e}: {}", log.spec.text)),
        }
    }
    state.begin_drain();
    state.drain(Duration::from_secs(10));
    failed
}

/// One liquid session through the daemon's in-process calls, in the
/// order its request handlers make them.
fn replay_session(
    state: &ServerState,
    probe: &Probe,
    req: Option<Ctx>,
    spec: &QuerySpec,
) -> Result<(JoinStats, SearchStats, u64), String> {
    let k = spec.k;
    let (id, join, search, combos) = probe.span(req, "query", |cx| {
        let query = probe
            .span(cx, "parse", |_| parse_query(&spec.text))
            .map_err(|e| e.to_string())?;
        let (best, cached) = probe.span(cx, "optimize", |_| state.plan(&query))?;
        probe.span(cx, "render", |_| {
            serde_json::json!({
                "frame": "plan",
                "cached": cached,
                "cost": best.cost,
                "plan": best.plan.canonical_key(),
            })
            .to_string()
        });
        // `ServerState::execute` runs exactly this call for `mode=det`;
        // calling it directly keeps the join counters it returns.
        let out = probe
            .span_fetching(cx, "execute", || {
                execute_plan_shared(
                    &best.plan,
                    &state.registry,
                    state.config.engine,
                    &state.shared,
                )
            })
            .map_err(|e| e.to_string())?;
        let combos = out.results.len() as u64;
        let set = probe.span(cx, "rank", |_| {
            ResultSet::new(out.results, query.ranking.clone()).with_degraded(out.degraded)
        });
        let id = state
            .open_session(|id| {
                Session::new(id, "default".into(), query.clone(), best.plan.clone(), set)
            })
            .map_err(|r| r.message().to_owned())?;
        let mut delivered = 0;
        while delivered < k {
            let rows = probe
                .span(cx, "rank", |_| {
                    state.with_session(id, |s| s.next(CHUNK.min(k - delivered)))
                })
                .unwrap_or_default();
            if rows.is_empty() {
                break;
            }
            delivered += rows.len();
            probe.span(cx, "render", |_| {
                serde_json::json!({"frame": "chunk", "rows": render_rows(&query.ranking, &rows)})
                    .to_string()
            });
        }
        probe.span(cx, "render", |_| {
            serde_json::json!({"frame": "summary", "session": id, "combinations": combos,
                "delivered": delivered, "calls": 0})
            .to_string()
        });
        Ok::<_, String>((id, out.join_stats, best.stats, combos))
    })?;
    probe.span(req, "more", |cx| {
        let rows = probe
            .span(cx, "rank", |_| state.with_session(id, |s| s.next(k)))
            .unwrap_or_default();
        probe.span(cx, "render", |_| {
            state.with_session(id, |s| {
                serde_json::json!({"session": id, "rows": render_rows(&s.set.ranking, &rows),
                    "delivered": s.delivered(), "remaining": s.len() - s.delivered()})
                .to_string()
            })
        })
    });
    probe.span(req, "rerank", |cx| {
        let head = probe
            .span(cx, "rank", |_| {
                state.with_session(id, |s| s.rerank(spec.rerank.clone()).map(|()| s.head(k)))
            })
            .unwrap_or_else(|| Err("session vanished".into()))?;
        probe.span(cx, "render", |_| {
            state.with_session(id, |s| {
                serde_json::json!({"session": id, "rows": render_rows(&s.set.ranking, &head),
                    "delivered": s.delivered()})
                .to_string()
            })
        });
        Ok::<_, String>(())
    })?;
    probe.span(req, "delete", |_| state.close_session(id));
    Ok((join, search, combos))
}

/// `(combo, score)` of each row object.
fn rows_of(rows: &[Json]) -> Vec<(String, f64)> {
    rows.iter()
        .map(|r| {
            (
                r.get("combo")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                r.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect()
}

fn expected(
    ranking: &RankingFunction,
    combos: &[seco_model::CompositeTuple],
) -> Vec<(String, f64)> {
    combos
        .iter()
        .map(|c| (c.to_string(), ranking.score(c)))
        .collect()
}

fn same_rows(got: &[(String, f64)], want: &[(String, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((a, x), (b, y))| a == b && (x - y).abs() <= 1e-9 * y.abs().max(1.0))
}

/// Off the timed path: the sampled sessions' rows must equal the serial
/// one-shot engine's top-k for the same text, `more` must never repeat
/// a row, and `rerank` must keep the row set.
fn check_answers(report: &mut Report, seed: u64, kept: &[Kept]) {
    let probe = Probe::new();
    let registry = gen::build_registry(seed, &probe);
    let serial = EngineConfig::default();
    let mut references: HashMap<String, Result<ResultSet, String>> = HashMap::new();
    let mut checked = 0;
    for Kept { spec, replies } in kept {
        let [q, more, rerank] = replies;
        checked += 1;
        let reference = references.entry(spec.text.clone()).or_insert_with(|| {
            let query = parse_query(&spec.text).map_err(|e| e.to_string())?;
            let best =
                optimize(&query, &registry, CostMetric::RequestCount).map_err(|e| e.to_string())?;
            let out = execute_plan(&best.plan, &registry, serial).map_err(|e| e.to_string())?;
            Ok(ResultSet::new(out.results, query.ranking))
        });
        let reference = match reference {
            Ok(r) => r,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("reference run failed: {e}: {}", spec.text));
                continue;
            }
        };
        let mut mismatch = |what: &str, ok: bool| {
            if !ok {
                report.failed += 1;
                report.problem(format!("{what}: {}", spec.text));
            }
        };
        let k = spec.k;
        let first = match frames(q) {
            Ok((_, rows, _)) => rows_of(&rows),
            Err(e) => {
                mismatch(&format!("unreadable query stream ({e})"), false);
                continue;
            }
        };
        let want = expected(&reference.ranking, &reference.top_k(k));
        mismatch(
            "streamed rows differ from the serial engine's top-k",
            same_rows(&first, &want),
        );
        let page = json::parse(more)
            .ok()
            .and_then(|m| m.get("rows").and_then(Json::as_arr).map(rows_of))
            .unwrap_or_default();
        let top2 = reference.top_k(2 * k);
        let want = expected(&reference.ranking, top2.get(k..).unwrap_or(&[]));
        mismatch(
            "`more` page differs from the serial engine's next page",
            same_rows(&page, &want),
        );
        mismatch(
            "`more` repeated a delivered row",
            !page.iter().any(|(c, _)| first.iter().any(|(f, _)| f == c)),
        );
        let head = json::parse(rerank)
            .ok()
            .and_then(|m| m.get("rows").and_then(Json::as_arr).map(rows_of))
            .unwrap_or_default();
        let reranked = RankingFunction::new(spec.rerank.clone())
            .map(|r| ResultSet::new(reference.tuples.clone(), r));
        let want = reranked
            .map(|set| expected(&set.ranking, &set.top_k(k)))
            .unwrap_or_default();
        mismatch(
            "`rerank` head differs from the re-ranked row set",
            same_rows(&head, &want),
        );
    }
    report.notes.push(format!(
        "answer checks: {checked} sampled sessions against {} serial references",
        references.len()
    ));
}
