//! End-to-end serving-layer tests over real TCP connections.
//!
//! Covers the PR's acceptance bar: a second session planning the same
//! query hits the shared plan cache and fetch cache; concurrent
//! sessions return byte-identical rows to a serial one-shot engine
//! run; a statistics promotion in one session's wake invalidates
//! cached plans for every other session; admission control and tenant
//! budgets refuse work deterministically; oversized requests, removed
//! query modes and silent connections are refused or closed without
//! taking the daemon down; and the streamed frame protocol plus the
//! liquid-query continuations behave.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use seco_engine::{execute_plan, EngineConfig, ResultSet};
use seco_optimizer::{optimize, CostMetric};
use seco_server::{http, render_rows, Server, ServerConfig, ServerHandle, ServerState};
use seco_services::ServiceRegistry;

fn boot(registry: ServiceRegistry, config: ServerConfig) -> (ServerHandle, String) {
    let state = ServerState::new(registry, config);
    let server = Server::bind("127.0.0.1:0", state).expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn accept loop");
    let addr = handle.addr.to_string();
    (handle, addr)
}

fn chain_server(config: ServerConfig) -> (ServerHandle, String, String, usize) {
    let (registry, query) = seco_bench::chain_scenario(3, 42);
    let text = query.to_string();
    let k = query.k;
    let (handle, addr) = boot(registry, config);
    (handle, addr, text, k)
}

fn stop(handle: ServerHandle, addr: &str) {
    let _ = http::call(addr, "POST", "/admin/shutdown", "");
    handle.join();
}

/// Tolerant scan for `"key":<integer>` in a compact JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))?;
    let digits: String = body[at + key.len() + 3..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn cached_flag(body: &str) -> Option<bool> {
    let at = body.find("\"cached\":")?;
    let rest = &body[at + "\"cached\":".len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

#[test]
fn second_identical_query_hits_plan_and_fetch_caches() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let target = format!("/query?k={k}");

    let (status, first) = http::call(&addr, "POST", &target, &text).expect("first query");
    assert_eq!(status, 200);
    assert_eq!(cached_flag(&first), Some(false), "cold plan: {first}");
    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    let hits_before = json_u64(&stats, "cache_hits").expect("counter present");
    assert_eq!(json_u64(&stats, "plan_cache_entries"), Some(1));

    let (status, second) = http::call(&addr, "POST", &target, &text).expect("second query");
    assert_eq!(status, 200);
    assert_eq!(cached_flag(&second), Some(true), "warm plan: {second}");
    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    let hits_after = json_u64(&stats, "cache_hits").expect("counter present");
    assert!(
        hits_after > hits_before,
        "second session re-reads cached chunks ({hits_before} -> {hits_after})"
    );

    stop(handle, &addr);
}

#[test]
fn concurrent_sessions_match_the_serial_oneshot_run() {
    // Ground truth: a fresh one-shot engine run, rendered through the
    // same row renderer the server uses.
    let (registry, query) = seco_bench::chain_scenario(3, 42);
    let best = optimize(&query, &registry, CostMetric::RequestCount).expect("plan");
    let out = execute_plan(
        &best.plan,
        &registry,
        EngineConfig::default().cache_shards(4),
    )
    .expect("one-shot run");
    let set = ResultSet::new(out.results, query.ranking.clone());
    let expected =
        serde_json::to_string(&render_rows(&query.ranking, &set.top_k(query.k))).expect("rows");
    assert!(expected.len() > 2, "scenario produces rows");

    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let target = format!("/query?k={k}");
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let text = text.clone();
            let target = target.clone();
            std::thread::spawn(move || http::call(&addr, "POST", &target, &text).expect("query"))
        })
        .collect();
    for worker in workers {
        let (status, body) = worker.join().expect("worker");
        assert_eq!(status, 200);
        assert!(
            body.contains(&expected),
            "concurrent session diverged from serial run:\n  want {expected}\n  got  {body}"
        );
    }
    stop(handle, &addr);
}

#[test]
fn promotion_rolls_the_epoch_and_invalidates_cached_plans() {
    // The misdeclared-hub registry: observed cardinality is 10x the
    // declaration, so a promotion has something to promote.
    let registry = seco_bench::adaptive_registry(7, 10.0);
    let text = format!("{} top 1", seco_bench::adaptive_query());
    let (handle, addr) = boot(registry, ServerConfig::default());

    let (_, first) = http::call(&addr, "POST", "/query?k=1", &text).expect("first");
    assert_eq!(cached_flag(&first), Some(false));
    let (_, second) = http::call(&addr, "POST", "/query?k=1", &text).expect("second");
    assert_eq!(cached_flag(&second), Some(true), "same epoch: cache hit");

    let (status, promo) = http::call(
        &addr,
        "POST",
        "/admin/promote?threshold=2&min-samples=1",
        "",
    )
    .expect("promote");
    assert_eq!(status, 200);
    assert!(
        promo.contains("Hub1"),
        "the misdeclared hub is promoted: {promo}"
    );
    assert!(json_u64(&promo, "stats_epoch").expect("epoch") >= 1);

    let (_, third) = http::call(&addr, "POST", "/query?k=1", &text).expect("third");
    assert_eq!(
        cached_flag(&third),
        Some(false),
        "epoch roll invalidated the cached plan for later sessions: {third}"
    );
    let (_, fourth) = http::call(&addr, "POST", "/query?k=1", &text).expect("fourth");
    assert_eq!(cached_flag(&fourth), Some(true), "new epoch re-cached");

    stop(handle, &addr);
}

#[test]
fn tenant_budgets_are_enforced_per_tenant() {
    let (handle, addr, text, k) = chain_server(ServerConfig {
        tenant_budget: 1,
        ..Default::default()
    });
    let (status, body) =
        http::call(&addr, "POST", &format!("/query?k={k}&tenant=alpha"), &text).expect("first");
    assert_eq!(status, 200);
    assert!(json_u64(&body, "calls").expect("calls counted") >= 1);

    let (status, body) =
        http::call(&addr, "POST", &format!("/query?k={k}&tenant=alpha"), &text).expect("second");
    assert_eq!(status, 429, "budget spent: {body}");
    assert!(body.contains("budget"));

    let (status, _) =
        http::call(&addr, "POST", &format!("/query?k={k}&tenant=beta"), &text).expect("beta");
    assert_eq!(status, 200, "other tenants unaffected");

    stop(handle, &addr);
}

#[test]
fn streaming_emits_plan_chunk_summary_frames_in_order() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let r = http::stream(
        &addr,
        "POST",
        &format!("/query?stream=1&k={k}&chunk=2"),
        &text,
    )
    .expect("streamed query");
    assert_eq!(r.status, 200);
    let plan_at = r.body.find("\"frame\":\"plan\"").expect("plan frame");
    let chunk_at = r.body.find("\"frame\":\"chunk\"").expect("chunk frame");
    let summary_at = r.body.find("\"frame\":\"summary\"").expect("summary frame");
    assert!(plan_at < chunk_at && chunk_at < summary_at, "frame order");
    assert!(r.time_to_first_chunk <= r.total);
    let delivered = json_u64(&r.body, "delivered").expect("summary counts");
    assert!(delivered > 0 && delivered as usize <= k);
    stop(handle, &addr);
}

#[test]
fn liquid_ops_continue_the_session_cursor() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let (status, body) = http::call(&addr, "POST", &format!("/query?k={k}"), &text).expect("open");
    assert_eq!(status, 200);
    let sid = json_u64(&body, "session").expect("session id");

    // `more` pages past the delivered top-k without repeating.
    let (status, more) =
        http::call(&addr, "POST", &format!("/session/{sid}/more?n=2"), "").expect("more");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&more, "delivered"), Some(k as u64 + 2));

    // `rerank` swaps weights (3-atom chain: 3 weights) and keeps the cursor.
    let (status, rerank) = http::call(
        &addr,
        "POST",
        &format!("/session/{sid}/rerank"),
        "0.0,0.0,1.0",
    )
    .expect("rerank");
    assert_eq!(status, 200, "{rerank}");
    assert_eq!(json_u64(&rerank, "delivered"), Some(k as u64 + 2));
    let (status, bad) =
        http::call(&addr, "POST", &format!("/session/{sid}/rerank"), "0.5,0.5").expect("bad arity");
    assert_eq!(status, 400, "{bad}");

    // `expand` deepens one branch against warm caches.
    let before = json_u64(&more, "remaining").expect("remaining") + k as u64 + 2;
    let (status, expand) = http::call(
        &addr,
        "POST",
        &format!("/session/{sid}/expand?atom=A3&extra=2"),
        "",
    )
    .expect("expand");
    assert_eq!(status, 200, "{expand}");
    let total = json_u64(&expand, "combinations").expect("combinations");
    assert!(total >= before, "expansion never shrinks the universe");

    // Close; further ops 404.
    let (status, _) = http::call(&addr, "DELETE", &format!("/session/{sid}"), "").expect("close");
    assert_eq!(status, 200);
    let (status, _) =
        http::call(&addr, "POST", &format!("/session/{sid}/more"), "").expect("after close");
    assert_eq!(status, 404);

    stop(handle, &addr);
}

#[test]
fn stats_expose_the_interner_growth_counters() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let _ = http::call(&addr, "POST", &format!("/query?k={k}"), &text).expect("query");
    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    let symbols = json_u64(&stats, "interner_symbols").expect("symbol count");
    let bytes = json_u64(&stats, "interner_bytes").expect("byte count");
    assert!(symbols > 0 && bytes >= symbols, "{stats}");
    stop(handle, &addr);
}

#[test]
fn oversized_bodies_are_refused_before_allocation() {
    let (handle, addr, _, _) = chain_server(ServerConfig::default());
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n")
        .expect("send headers");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
    // The daemon is still up and serving.
    let (status, _) = http::call(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    stop(handle, &addr);
}

#[test]
fn oversized_headers_are_refused_before_allocation() {
    let (handle, addr, _, _) = chain_server(ServerConfig::default());
    let mut conn = TcpStream::connect(&addr).expect("connect");
    let filler = "a".repeat(64 << 10);
    conn.write_all(format!("GET /healthz HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n").as_bytes())
        .expect("send headers");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
    // The daemon is still up and serving.
    let (status, _) = http::call(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    stop(handle, &addr);
}

#[test]
fn removed_modes_are_refused() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let (status, body) =
        http::call(&addr, "POST", &format!("/query?mode=par&k={k}"), &text).expect("mode=par");
    assert_eq!(status, 400, "{body}");
    // `det` (or no mode at all) is the one executor.
    let (status, _) =
        http::call(&addr, "POST", &format!("/query?mode=det&k={k}"), &text).expect("mode=det");
    assert_eq!(status, 200);
    let (status, _) = http::call(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    stop(handle, &addr);
}

#[test]
fn silent_connections_are_closed_after_the_read_timeout() {
    let (handle, addr, _, _) = chain_server(ServerConfig::default());
    let margin = Duration::from_secs(5);
    let mut conn = TcpStream::connect(&addr).expect("connect");
    // Fail rather than hang should the daemon never close the socket.
    conn.set_read_timeout(Some(http::READ_TIMEOUT + margin))
        .expect("client read timeout");
    let started = Instant::now();
    let mut buf = [0u8; 64];
    let read = conn.read(&mut buf);
    let waited = started.elapsed();
    assert!(
        matches!(read, Ok(0)),
        "expected the daemon to close the silent connection, got {read:?} after {waited:?}"
    );
    assert!(waited < http::READ_TIMEOUT + margin, "{waited:?}");
    // The daemon is still up and serving.
    let (status, _) = http::call(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    stop(handle, &addr);
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let _ = http::call(&addr, "POST", &format!("/query?k={k}"), &text).expect("warm-up");
    let (status, body) = http::call(&addr, "POST", "/admin/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    assert!(body.contains("\"drained\":true"), "{body}");
    handle.join();
    // The accept loop is gone: connecting now fails outright.
    assert!(TcpStream::connect(&addr).is_err(), "listener closed");
}
