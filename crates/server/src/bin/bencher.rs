//! `bencher` — open-loop load generator for the serving layer.
//!
//! Boots an in-process `seco-server` per scenario (chain and star
//! topologies from `seco-bench`), then drives it over real TCP:
//!
//! 1. **Cold pass** — a set of structurally distinct queries (the `top
//!    k` clause varies, so every plan-cache fingerprint differs),
//!    issued sequentially against empty caches. These pay the full
//!    branch-and-bound search and every service fetch.
//! 2. **Warm pass** — open-loop traffic at each configured rate: every
//!    request is scheduled at its ideal send instant (`i / rate`
//!    seconds after start) regardless of completions, cycling the same
//!    query set. Plans come from the [`PlanCache`], chunks from the
//!    shared fetch cache.
//!
//! Per scenario × rate the report carries p50/p95/p99 end-to-end
//! latency, p50 time-to-first-chunk (streamed responses), achieved
//! throughput, admission rejections, and a per-section `warm_faster`
//! flag. The asserted gate pools every section's samples: the
//! top-level `warm_faster` requires the aggregate warm p50 to beat
//! the aggregate cold p50 — the whole point of a daemon. A separate
//! check verifies that concurrent sessions return byte-identical rows
//! to a serial one-shot engine run.
//!
//! Results land in `results/BENCH_serve.json` (`--out` to override);
//! `--smoke` shrinks counts for CI. `--rates 25,100` overrides the
//! request rates (per second).
//!
//! [`PlanCache`]: seco_optimizer::PlanCache

use std::time::{Duration, Instant};

use serde_json::json;

use seco_engine::{execute_plan, EngineConfig, ResultSet};
use seco_optimizer::{optimize, CostMetric};
use seco_server::http;
use seco_server::{render_rows, Server, ServerConfig, ServerState};
use seco_services::ServiceRegistry;

struct Opts {
    smoke: bool,
    out: String,
    rates: Vec<f64>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        smoke: false,
        out: "results/BENCH_serve.json".to_owned(),
        rates: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => {
                if let Some(path) = argv.next() {
                    opts.out = path;
                }
            }
            "--rates" => {
                if let Some(list) = argv.next() {
                    opts.rates = list
                        .split(',')
                        .filter_map(|r| r.trim().parse().ok())
                        .collect();
                }
            }
            other => {
                eprintln!("ignoring unknown argument `{other}`");
            }
        }
    }
    if opts.rates.is_empty() {
        // The acceptance bar: at least two rates.
        opts.rates = if opts.smoke {
            vec![20.0, 60.0]
        } else {
            vec![25.0, 100.0]
        };
    }
    opts
}

fn scenario(name: &str) -> (ServiceRegistry, seco_query::Query) {
    match name {
        "chain" => seco_bench::chain_scenario(4, 42),
        "star" => seco_bench::star_scenario(4, 42),
        other => panic!("unknown scenario {other}"),
    }
}

fn boot(name: &str) -> (seco_server::ServerHandle, String, usize) {
    let (registry, query) = scenario(name);
    let text = query.to_string();
    let k = query.k;
    let config = ServerConfig {
        max_sessions: 8192,
        max_concurrent: 16,
        // All sessions share one 4-worker executor pool (join
        // morsels, optimizer fan-out).
        exec_workers: 4,
        ..Default::default()
    };
    let state = ServerState::new(registry, config);
    let server = Server::bind("127.0.0.1:0", state).expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn accept loop");
    (handle, text, k)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn sorted_ms(durations: &[Duration]) -> Vec<f64> {
    let mut ms: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    ms
}

struct PassStats {
    latency: Vec<Duration>,
    first_chunk: Vec<Duration>,
    rejected: usize,
    elapsed: Duration,
}

struct Section {
    json: serde_json::Value,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

/// One scenario at one rate: cold pass, then the open-loop warm pass.
fn bench_section(name: &str, rate: f64, smoke: bool) -> Section {
    let (handle, text, base_k) = boot(name);
    let addr = handle.addr.to_string();
    let variants = if smoke { 3 } else { 6 };
    let total = if smoke { 30 } else { 150 };

    // Cold: distinct fingerprints, empty fetch caches.
    let cold_start = Instant::now();
    let mut cold = PassStats {
        latency: Vec::new(),
        first_chunk: Vec::new(),
        rejected: 0,
        elapsed: Duration::ZERO,
    };
    for i in 0..variants {
        let target = format!("/query?mode=det&stream=1&k={}", base_k + i);
        let r = http::stream(&addr, "POST", &target, &text).expect("cold request");
        assert_eq!(r.status, 200, "cold request accepted");
        cold.latency.push(r.total);
        cold.first_chunk.push(r.time_to_first_chunk);
    }
    cold.elapsed = cold_start.elapsed();

    // Warm: open-loop at `rate` req/s over the same query set.
    let warm_start = Instant::now();
    let mut workers = Vec::with_capacity(total);
    for i in 0..total {
        let due = warm_start + Duration::from_secs_f64(i as f64 / rate);
        let addr = addr.clone();
        let text = text.clone();
        let target = format!("/query?mode=det&stream=1&k={}", base_k + (i % variants));
        workers.push(std::thread::spawn(move || {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            http::stream(&addr, "POST", &target, &text)
        }));
    }
    let mut warm = PassStats {
        latency: Vec::new(),
        first_chunk: Vec::new(),
        rejected: 0,
        elapsed: Duration::ZERO,
    };
    for worker in workers {
        match worker.join().expect("worker thread") {
            Ok(r) if r.status == 200 => {
                warm.latency.push(r.total);
                warm.first_chunk.push(r.time_to_first_chunk);
            }
            Ok(_) => warm.rejected += 1,
            Err(e) => panic!("warm request failed: {e}"),
        }
    }
    warm.elapsed = warm_start.elapsed();

    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    let (_, _) = http::call(&addr, "POST", "/admin/shutdown", "").expect("shutdown");
    handle.join();

    let cold_ms = sorted_ms(&cold.latency);
    let warm_ms = sorted_ms(&warm.latency);
    let cold_ttfc = sorted_ms(&cold.first_chunk);
    let warm_ttfc = sorted_ms(&warm.first_chunk);
    let cold_p50 = percentile(&cold_ms, 0.50);
    let warm_p50 = percentile(&warm_ms, 0.50);
    let throughput = warm.latency.len() as f64 / warm.elapsed.as_secs_f64();
    println!(
        "{name} @ {rate:.0} req/s: cold p50 {cold_p50:.2} ms, warm p50 {warm_p50:.2} ms \
         (p95 {:.2}, p99 {:.2}), ttfc p50 {:.2} ms, {throughput:.1} req/s served, {} rejected",
        percentile(&warm_ms, 0.95),
        percentile(&warm_ms, 0.99),
        percentile(&warm_ttfc, 0.50),
        warm.rejected,
    );
    let json = json!({
        "scenario": name,
        "rate_per_s": rate,
        "cold": {
            "requests": cold.latency.len(),
            "p50_ms": cold_p50,
            "p95_ms": percentile(&cold_ms, 0.95),
            "p99_ms": percentile(&cold_ms, 0.99),
            "time_to_first_chunk_p50_ms": percentile(&cold_ttfc, 0.50),
        },
        "warm": {
            "requests": warm.latency.len(),
            "rejected": warm.rejected,
            "p50_ms": warm_p50,
            "p95_ms": percentile(&warm_ms, 0.95),
            "p99_ms": percentile(&warm_ms, 0.99),
            "time_to_first_chunk_p50_ms": percentile(&warm_ttfc, 0.50),
            "throughput_per_s": throughput,
        },
        "warm_faster": warm_p50 < cold_p50,
        "server_stats": stats_excerpt(&stats),
    });
    Section {
        json,
        cold_ms,
        warm_ms,
    }
}

/// Closed-loop session-concurrency sweep against one warm daemon: the
/// same query mix at `base` concurrent sessions and at 4x that, every
/// session sharing the daemon's single executor pool. The gate is a
/// *flat p95*: quadrupling the session count must not quadruple tail
/// latency — admission keeps at most `max_concurrent` executions
/// feeding the pool and the pool spreads their morsels round-robin over
/// its FIFO worker deques, so added sessions queue at the gate instead of
/// stretching each other's execution. The flatness slack scales with how
/// far the offered load exceeds the host's cores (on a single-core host all
/// concurrency is time-sliced; on a 4-core host the 4x level rides
/// the pool's real parallelism).
fn bench_concurrency(smoke: bool) -> (serde_json::Value, bool) {
    let (handle, text, base_k) = boot("chain");
    let addr = handle.addr.to_string();
    let per = if smoke { 6 } else { 15 };
    let base = 4usize;

    // Warm the daemon first: plan cache + fetch caches, so the sweep
    // measures steady-state serving rather than cold planning.
    for i in 0..3 {
        let target = format!("/query?mode=det&k={}", base_k + (i % 3));
        let (status, _) = http::call(&addr, "POST", &target, &text).expect("warmup");
        assert_eq!(status, 200);
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut levels = Vec::new();
    let mut p95_by_level = Vec::new();
    for conc in [base, base * 4] {
        let started = Instant::now();
        let mut workers = Vec::new();
        for t in 0..conc {
            let addr = addr.clone();
            let text = text.clone();
            workers.push(std::thread::spawn(move || {
                // One untimed request absorbs the simultaneous-connect
                // convoy so the timed window sees steady state.
                let target = format!("/query?mode=det&k={}", base_k + (t % 3));
                let _ = http::call(&addr, "POST", &target, &text);
                let mut lat = Vec::with_capacity(per);
                for j in 0..per {
                    let target = format!("/query?mode=det&k={}", base_k + ((t + j) % 3));
                    let begin = Instant::now();
                    let (status, _) = http::call(&addr, "POST", &target, &text).expect("query");
                    if status == 200 {
                        lat.push(begin.elapsed());
                    }
                }
                lat
            }));
        }
        let mut latency: Vec<Duration> = Vec::new();
        for w in workers {
            latency.extend(w.join().expect("session worker"));
        }
        let elapsed = started.elapsed();
        let ms = sorted_ms(&latency);
        let p50 = percentile(&ms, 0.50);
        let p95 = percentile(&ms, 0.95);
        let served = latency.len();
        // Fair-share normalization: on a host with fewer cores than
        // concurrent sessions, each session only owns a
        // `cores / conc` time slice, so its wall latency is expected
        // to stretch by the oversubscription factor even under
        // perfectly fair scheduling. Dividing p95 by that factor
        // yields the per-fair-share latency the flatness gate checks:
        // flat normalized p95 means added sessions cost exactly their
        // time slice and nothing more (no lock convoys, no pool
        // starvation). On a >=16-core host oversub is 1 at both
        // levels and the gate demands raw flat p95.
        let oversub = (conc as f64 / cores as f64).max(1.0);
        let p95_norm = p95 / oversub;
        println!(
            "concurrency {conc}: {served} requests, p50 {p50:.2} ms, p95 {p95:.2} ms \
             ({p95_norm:.2} ms per fair share, {oversub:.0}x oversubscribed), {:.1} req/s",
            served as f64 / elapsed.as_secs_f64()
        );
        p95_by_level.push(p95_norm);
        levels.push(json!({
            "concurrency": conc,
            "requests": served,
            "p50_ms": p50,
            "p95_ms": p95,
            "oversubscription": oversub,
            "p95_ms_per_fair_share": p95_norm,
            "throughput_per_s": served as f64 / elapsed.as_secs_f64(),
        }));
    }
    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    let _ = http::call(&addr, "POST", "/admin/shutdown", "");
    handle.join();

    // Flat within noise: 1.75x multiplicative plus a 2 ms absolute
    // floor so microsecond-scale warm hits don't trip on jitter.
    let flat = p95_by_level[1] <= p95_by_level[0] * 1.75 + 2.0;
    let report = json!({
        "base_concurrency": base,
        "host_cores": cores,
        "levels": levels,
        "note": "p95 per fair share = raw p95 / max(1, concurrency/cores); the \
    flatness gate runs on that normalization so oversubscribed single-core hosts \
    measure scheduler fairness rather than inevitable time-slicing",
        "p95_flat_at_4x": flat,
        "server_stats": stats_excerpt(&stats),
    });
    (report, flat)
}

/// Pulls a few integer counters back out of the `/stats` body (the
/// shim has no JSON parser, so this is a tolerant substring scan).
fn stats_excerpt(body: &str) -> serde_json::Value {
    let grab = |key: &str| -> u64 {
        body.find(&format!("\"{key}\":"))
            .map(|at| {
                body[at + key.len() + 3..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    };
    json!({
        "plan_cache_entries": grab("plan_cache_entries"),
        "cache_hits": grab("cache_hits"),
        "calls": grab("calls"),
        "admitted": grab("admitted"),
        "rejected": grab("rejected"),
        "sessions_open": grab("sessions_open"),
        "exec_morsels": grab("morsels"),
        "exec_steals": grab("steals"),
        "exec_busy_ms": grab("busy_ms"),
        "exec_threads_alive": grab("threads_alive"),
    })
}

/// Concurrent sessions must return byte-identical rows to a serial
/// one-shot engine run of the same query.
fn identity_check() -> bool {
    // Ground truth MUST come from the same scenario the server boots,
    // so both sides go through the shared `scenario` helper.
    let (registry, query) = scenario("chain");
    let best = optimize(&query, &registry, CostMetric::RequestCount).expect("plan");
    let out = execute_plan(
        &best.plan,
        &registry,
        EngineConfig::default().cache_shards(4),
    )
    .expect("one-shot run");
    let set = ResultSet::new(out.results, query.ranking.clone());
    let expected =
        serde_json::to_string(&render_rows(&query.ranking, &set.top_k(query.k))).expect("render");

    let (handle, text, k) = boot("chain");
    let addr = handle.addr.to_string();
    let mut workers = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        let text = text.clone();
        let target = format!("/query?mode=det&k={k}");
        workers.push(std::thread::spawn(move || {
            http::call(&addr, "POST", &target, &text).expect("query")
        }));
    }
    let bodies: Vec<String> = workers
        .into_iter()
        .map(|w| {
            let (status, body) = w.join().expect("worker");
            assert_eq!(status, 200);
            body
        })
        .collect();
    let _ = http::call(&addr, "POST", "/admin/shutdown", "");
    handle.join();
    let all_match = bodies.iter().all(|b| b.contains(&expected));
    if !all_match {
        eprintln!("identity check FAILED:\n  expected rows {expected}");
    }
    all_match
}

fn main() {
    let opts = parse_opts();
    let mut sections = Vec::new();
    let mut all_cold = Vec::new();
    let mut all_warm = Vec::new();
    for name in ["chain", "star"] {
        for &rate in &opts.rates {
            let section = bench_section(name, rate, opts.smoke);
            all_cold.extend_from_slice(&section.cold_ms);
            all_warm.extend_from_slice(&section.warm_ms);
            sections.push(section.json);
        }
    }
    let identical = identity_check();
    let (concurrency, p95_flat) = bench_concurrency(opts.smoke);
    // The asserted gate is the aggregate over every section: planning-
    // bound workloads (star) show a huge warm win, execution-bound ones
    // (chain) a thin one, and pooling the samples keeps the comparison
    // robust against scheduler noise in any single section.
    all_cold.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    all_warm.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let cold_p50 = percentile(&all_cold, 0.50);
    let warm_p50 = percentile(&all_warm, 0.50);
    let warm_faster = warm_p50 < cold_p50;
    println!(
        "identity: concurrent sessions byte-identical to serial one-shot = {identical}; \
         aggregate cold p50 {cold_p50:.2} ms vs warm p50 {warm_p50:.2} ms, \
         warm faster = {warm_faster}"
    );
    let report = json!({
        "mode": if opts.smoke { "smoke" } else { "full" },
        "rates_per_s": opts.rates,
        "sections": sections,
        "concurrent_identical_to_serial": identical,
        "aggregate_cold_p50_ms": cold_p50,
        "aggregate_warm_p50_ms": warm_p50,
        "warm_faster": warm_faster,
        "concurrency": concurrency,
    });
    let pretty = serde_json::to_string_pretty(&report).expect("render report");
    if let Some(dir) = std::path::Path::new(&opts.out).parent() {
        std::fs::create_dir_all(dir).expect("results dir");
    }
    std::fs::write(&opts.out, format!("{pretty}\n")).expect("write report");
    println!("wrote {}", opts.out);
    assert!(identical, "concurrent sessions must match the serial run");
    assert!(
        warm_faster,
        "aggregate warm p50 must beat aggregate cold p50"
    );
    assert!(
        p95_flat,
        "p95 must stay flat at 4x session concurrency (shared pool fairness)"
    );
}
