//! The per-layer breakdown of a traced run.
//!
//! Every figure is per top-level query. Span-based figures (parse,
//! optimize, execute, rank, render) divide by the traced queries; the
//! counters, read at the same boundaries, divide by every query of the
//! measured window.

use std::io::Write;

use seco_engine::JoinStats;
use seco_optimizer::SearchStats;

use crate::probe::{layer_times, Span};
use crate::{metric, Metric};

/// Inputs to the breakdown, filled by each workload.
#[derive(Default)]
pub struct LayerInputs {
    /// Top-level queries completed in the measured window.
    pub queries: u64,
    /// Search statistics summed over the optimized queries.
    pub search: SearchStats,
    pub searched: u64,
    pub plan_lookups: u64,
    pub plan_hits: u64,
    pub plan_cache_entries: u64,
    /// Service-side call counters over the window.
    pub fetch_calls: u64,
    pub cache_hits: u64,
    pub coalesced: u64,
    pub fetch_ns: u64,
    /// Join counters summed over the executed queries, and the
    /// combinations those queries produced.
    pub join: JoinStats,
    pub joined: u64,
    pub combinations: u64,
    pub exec_morsels: u64,
    pub exec_steals: u64,
    pub exec_busy_ms: u64,
    pub exec_queue_depth_max: u64,
    pub ttfb_ns: u64,
    pub transfer_ns: u64,
    pub response_bytes: u64,
    pub sessions_open_max: u64,
    pub rejected: u64,
    /// Client-observed minus in-process replay time, summed over the
    /// replayed sessions, and their count.
    pub http_ns: i64,
    pub replayed: u64,
    pub interner_symbols: u64,
    pub interner_bytes: u64,
    pub failed: u64,
    pub attempted: u64,
    /// Traced and untraced `query_p50_ms`.
    pub query_p50_ms: (f64, f64),
}

pub fn add_search(total: &mut SearchStats, s: &SearchStats) {
    total.topologies += s.topologies;
    total.pruned += s.pruned;
    total.annotate_full += s.annotate_full;
    total.annotate_delta += s.annotate_delta;
    total.memo_hits += s.memo_hits;
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds the per-layer metric list from the counters and the spans.
pub fn per_layer(c: &LayerInputs, spans: &[Span]) -> Vec<Metric> {
    let times = layer_times(spans);
    let traced = spans
        .iter()
        .filter(|s| s.name == "query")
        .map(|s| s.request)
        .collect::<std::collections::BTreeSet<_>>()
        .len() as f64;
    let span_us = |name: &str, own: bool| {
        let (total, own_ns) = times.get(name).copied().unwrap_or((0, 0));
        ratio(if own { own_ns } else { total } as f64, traced * 1e3)
    };
    let q = c.queries as f64;
    let per_q = |x: u64| ratio(x as f64, q);
    let searched = c.searched as f64;
    let s = &c.search;
    let joined = c.joined as f64;
    let j = &c.join;
    vec![
        metric(
            "query.parse_us",
            span_us("parse", true),
            "us",
            traced as usize,
        ),
        metric(
            "optimizer.optimize_us",
            span_us("optimize", false),
            "us",
            traced as usize,
        ),
        metric(
            "optimizer.topologies",
            ratio(s.topologies as f64, searched),
            "count",
            0,
        ),
        metric(
            "optimizer.pruned_ratio",
            ratio(s.pruned as f64, s.topologies as f64),
            "ratio",
            0,
        ),
        metric(
            "optimizer.annotate_full",
            ratio(s.annotate_full as f64, searched),
            "count",
            0,
        ),
        metric(
            "optimizer.annotate_delta",
            ratio(s.annotate_delta as f64, searched),
            "count",
            0,
        ),
        metric(
            "optimizer.memo_hits",
            ratio(s.memo_hits as f64, searched),
            "count",
            0,
        ),
        metric(
            "optimizer.plan_cache_hit_ratio",
            ratio(c.plan_hits as f64, c.plan_lookups as f64),
            "ratio",
            c.plan_lookups as usize,
        ),
        metric(
            "optimizer.plan_cache_entries",
            c.plan_cache_entries as f64,
            "count",
            0,
        ),
        metric("services.fetch_calls", per_q(c.fetch_calls), "count", 0),
        metric(
            "services.fetch_us",
            ratio(c.fetch_ns as f64, q * 1e3),
            "us",
            0,
        ),
        metric(
            "services.cache_hit_ratio",
            ratio(
                c.cache_hits as f64,
                (c.cache_hits + c.fetch_calls + c.coalesced) as f64,
            ),
            "ratio",
            0,
        ),
        metric("services.coalesced", per_q(c.coalesced), "count", 0),
        metric(
            "engine.execute_us",
            span_us("execute", false),
            "us",
            traced as usize,
        ),
        metric(
            "engine.self_us",
            span_us("execute", true),
            "us",
            traced as usize,
        ),
        metric(
            "engine.rank_us",
            span_us("rank", true),
            "us",
            traced as usize,
        ),
        metric(
            "join.index_builds",
            ratio(j.index_builds as f64, joined),
            "count",
            0,
        ),
        metric("join.probes", ratio(j.probes as f64, joined), "count", 0),
        metric(
            "join.predicate_evals",
            ratio(j.predicate_evals as f64, joined),
            "count",
            0,
        ),
        metric(
            "join.rows_materialized",
            ratio(j.rows_materialized as f64, joined),
            "count",
            0,
        ),
        metric(
            "join.batch_evals",
            ratio(j.batch_evals as f64, joined),
            "count",
            0,
        ),
        metric(
            "join.results_per_eval",
            ratio(c.combinations as f64, j.predicate_evals as f64),
            "ratio",
            0,
        ),
        metric("exec.morsels", per_q(c.exec_morsels), "count", 0),
        metric("exec.steals", per_q(c.exec_steals), "count", 0),
        metric(
            "exec.busy_us",
            ratio(c.exec_busy_ms as f64 * 1e3, q),
            "us",
            0,
        ),
        metric(
            "exec.queue_depth_max",
            c.exec_queue_depth_max as f64,
            "count",
            0,
        ),
        metric("server.ttfb_us", ratio(c.ttfb_ns as f64, q * 1e3), "us", 0),
        metric(
            "server.transfer_us",
            ratio(c.transfer_ns as f64, q * 1e3),
            "us",
            0,
        ),
        metric("server.response_bytes", per_q(c.response_bytes), "bytes", 0),
        metric(
            "server.render_us",
            span_us("render", true),
            "us",
            traced as usize,
        ),
        metric(
            "server.http_us",
            ratio(c.http_ns as f64, c.replayed as f64 * 1e3),
            "us",
            c.replayed as usize,
        ),
        metric(
            "server.sessions_open",
            c.sessions_open_max as f64,
            "count",
            0,
        ),
        metric("server.rejected", c.rejected as f64, "count", 0),
        metric(
            "model.interner_symbols",
            per_q(c.interner_symbols),
            "count",
            0,
        ),
        metric("model.interner_bytes", per_q(c.interner_bytes), "bytes", 0),
        metric("calls_per_query", per_q(c.fetch_calls), "count", 0),
        metric(
            "failed_ratio",
            ratio(c.failed as f64, c.attempted as f64),
            "ratio",
            0,
        ),
        metric(
            "trace.overhead_ratio",
            ratio(c.query_p50_ms.0, c.query_p50_ms.1),
            "ratio",
            0,
        ),
        metric(
            "trace.layer_sum_gap_pct",
            unattributed_pct(spans),
            "%",
            traced as usize,
        ),
    ]
}

/// The tracing overhead as the difference of the medians. Noise can
/// make it negative, so the result line carries the ratio instead.
pub fn overhead_note(c: &LayerInputs) -> String {
    let (traced, untraced) = c.query_p50_ms;
    format!(
        "trace overhead: traced - untraced query_p50_ms = {:.4} ms ({traced:.4} - {untraced:.4})",
        traced - untraced
    )
}

/// Share of the traced query wall time that no layer span covers.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let (total, own) = layer_times(spans).get("query").copied().unwrap_or((0, 0));
    ratio(100.0 * own as f64, total as f64)
}

/// Writes the spans of a traced run as JSON lines under
/// `perfbench/traces/`, once, after the run. Returns the path.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{workload}-seed{seed}.jsonl");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}
