//! `oneshot`: the `seco run` path in-process.
//!
//! One client runs a closed loop of one-shot queries: query text →
//! `parse_query` → `optimize` → `execute_plan` → `ResultSet::top_k` →
//! the rendered top-k, with the CLI's defaults (`RequestCount`, no fetch
//! cache, `exec_workers` = cores). Every service fetch is real and the
//! optimizer plans every query, so this workload carries the optimizer,
//! the services and the join kernels, and none of the daemon's caches.
//! After each query the liquid operations `more` and `rerank` run on a
//! `Session` over the same result, in-process.
//!
//! The mix draws the chapter's running example and the travel trip
//! query with varied literals, and generated 2–3-atom stars and chains
//! whose wide chunks make the hash-index tile join and the batch
//! predicate kernels fire.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use seco_engine::{execute_plan, EngineConfig, ExecutionResult, ResultSet};
use seco_model::{CompositeTuple, Symbol};
use seco_optimizer::{optimize, CostMetric, Optimized};
use seco_query::{evaluate_oracle, parse_query, Query};
use seco_server::{render_rows, Session};
use seco_services::ServiceRegistry;

use crate::gen::{self, QuerySpec, Shape};
use crate::layers::{
    add_search, overhead_note, per_layer, unattributed_pct, write_spans, LayerInputs,
};
use crate::probe::{Ctx, Probe};
use crate::{cores, cpu_seconds, peak_rss_mb, Args, Calm, Report, Timings, SETUP_REPS};

/// The query mix: each shape and its share of every cycle of the
/// draw order. The 3-atom shapes and the running example form the
/// middle mode of the latency distribution; the cheap 2-atom shapes
/// and the slow trip query have equal shares, so the median falls in
/// the middle of that mode rather than on the edge between two modes.
const MIX: [(Shape, usize); 6] = [
    (Shape::Running, 2),
    (Shape::Trip, 2),
    (Shape::Star(2), 1),
    (Shape::Star(3), 2),
    (Shape::Chain(2), 1),
    (Shape::Chain(3), 2),
];

/// Every `SAMPLE_EVERY`-th query, up to `CHECK_CAP` of them, is checked
/// against its references.
const SAMPLE_EVERY: usize = 8;
const CHECK_CAP: usize = 64;
/// Queries checked against the exhaustive oracle (it is slow).
const ORACLE_CHECKS: usize = 12;

struct Answer {
    query: Query,
    best: Optimized,
    out: ExecutionResult,
    set: ResultSet,
    rendered: String,
    first_row: Duration,
}

/// The `seco run` path: text to rendered top-k, with a span around each
/// layer call when `ctx` is set.
fn run_query(
    probe: &Probe,
    ctx: Option<Ctx>,
    registry: &ServiceRegistry,
    config: EngineConfig,
    text: &str,
) -> Result<Answer, String> {
    let start = Instant::now();
    let query = probe
        .span(ctx, "parse", |_| parse_query(text))
        .map_err(|e| e.to_string())?;
    let best = probe
        .span(ctx, "optimize", |_| {
            optimize(&query, registry, CostMetric::RequestCount)
        })
        .map_err(|e| e.to_string())?;
    let mut out = probe
        .span_fetching(ctx, "execute", || {
            execute_plan(&best.plan, registry, config)
        })
        .map_err(|e| e.to_string())?;
    let (set, top) = probe.span(ctx, "rank", |_| {
        let set = ResultSet::new(std::mem::take(&mut out.results), query.ranking.clone());
        let top = set.top_k(query.k);
        (set, top)
    });
    let (rendered, first_row) = probe.span(ctx, "render", |_| render(&query, &set, &top, start));
    Ok(Answer {
        query,
        best,
        out,
        set,
        rendered,
        first_row,
    })
}

/// The CLI's answer listing; returns it with the time its first row was
/// ready.
fn render(
    query: &Query,
    set: &ResultSet,
    top: &[CompositeTuple],
    start: Instant,
) -> (String, Duration) {
    use std::fmt::Write;
    let mut s = format!("{} combinations; top {}:\n", set.len(), query.k);
    let mut first_row = None;
    for (i, combo) in top.iter().enumerate() {
        let _ = writeln!(
            s,
            "  #{:<3} score={:.3}  {combo}",
            i + 1,
            query.ranking.score(combo)
        );
        first_row.get_or_insert_with(|| start.elapsed());
    }
    (s, first_row.unwrap_or_else(|| start.elapsed()))
}

fn same_answer(q: &Query, a: &CompositeTuple, b: &CompositeTuple) -> bool {
    q.atoms
        .iter()
        .all(|atom| a.component(&atom.alias) == b.component(&atom.alias))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = EngineConfig::default().exec_workers(cores());
    let probe = Probe::new();

    // Set-up: build the registry and run each shape once, so lazily
    // initialized state is in place before timing.
    let mut setups = Vec::new();
    let mut registry = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let reg = gen::build_registry(args.seed, &probe);
        let mut rng = gen::stream(args.seed, 0x5E7);
        for (i, (shape, _)) in MIX.iter().enumerate() {
            let spec = gen::query(*shape, &mut rng, &format!("w{rep}x{i}"), None);
            if let Err(e) = run_query(&probe, None, &reg, config, &spec.text) {
                report.problem(format!("warm-up query failed: {e}: {}", spec.text));
            }
        }
        setups.push(t.elapsed());
        registry = Some(reg);
    }
    let registry = registry.expect("at least one set-up");

    probe.set_tracing(args.trace);
    let mut rng = gen::stream(args.seed, 0x0E5);
    let counts: Vec<usize> = MIX.iter().map(|(_, n)| *n).collect();
    let order = gen::schedule(&counts, &mut rng);
    let mut timings = Timings::default();
    let mut sampled: Vec<(QuerySpec, String)> = Vec::new();
    let mut index_builds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut c = LayerInputs::default();
    let (fetches0, fetch_ns0) = probe.fetch_totals();
    let (symbols0, bytes0) = (Symbol::table_len(), Symbol::table_bytes());
    let before = registry.total_stats();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let calm = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| Calm::sample(start, args.seconds as u32));
        let mut i = 0usize;
        while Instant::now() < deadline {
            let spec = gen::query(
                MIX[order[i % order.len()]].0,
                &mut rng,
                &format!("n{i}"),
                None,
            );
            // In the traced run every other query is traced; the untraced
            // ones give the overhead baseline.
            let request = i as u32 + 1;
            let req = (args.trace && i % 2 == 1).then_some(Ctx { request, parent: 0 });
            let at = start.elapsed();
            let t0 = Instant::now();
            let answer = probe.span(req, "query", |cx| {
                run_query(&probe, cx, &registry, config, &spec.text)
            });
            let elapsed = t0.elapsed();
            report.attempted += 1;
            let Answer {
                query,
                best,
                out,
                set,
                rendered,
                first_row: first,
            } = match answer {
                Ok(a) => a,
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("query failed: {e}: {}", spec.text));
                    i += 1;
                    continue;
                }
            };
            if req.is_some() {
                timings.query_traced.push(at, elapsed);
            } else {
                timings.query.push(at, elapsed);
            }
            timings.first_row.push(at, first);

            // Liquid operations on the kept result: the first page was
            // shown above, then `more` and `rerank`.
            let k = query.k;
            let mut session = Session::new(request as u64, "oneshot".into(), query, best.plan, set);
            session.next(k);
            let t = Instant::now();
            probe.span(req, "more", |cx| {
                let rows = probe.span(cx, "rank", |_| session.next(k));
                probe.span(cx, "render", |_| render_rows(&session.set.ranking, &rows))
            });
            timings.liquid.push(at, t.elapsed());
            let t = Instant::now();
            let reranked = probe.span(req, "rerank", |cx| {
                let head = probe.span(cx, "rank", |_| {
                    session
                        .rerank(spec.rerank.clone())
                        .map(|()| session.head(k))
                })?;
                Ok::<_, String>(
                    probe.span(cx, "render", |_| render_rows(&session.set.ranking, &head)),
                )
            });
            timings.liquid.push(at, t.elapsed());
            report.attempted += 2;
            if let Err(e) = reranked {
                report.failed += 1;
                report.problem(format!("rerank failed: {e}: {}", spec.text));
            }

            add_search(&mut c.search, &best.stats);
            c.searched += 1;
            c.join.merge(&out.join_stats);
            c.joined += 1;
            c.combinations += session.len() as u64;
            *index_builds.entry(spec.shape.family()).or_default() += out.join_stats.index_builds;
            if i.is_multiple_of(SAMPLE_EVERY) && sampled.len() < CHECK_CAP {
                sampled.push((spec, rendered));
            }
            i += 1;
        }
        sampler.join().expect("steal sampler")
    });
    let window = start.elapsed();
    let queries = timings.queries() as u64;
    let cpu_ms = (cpu_seconds() - cpu0) * 1e3;
    let rss = peak_rss_mb();
    let after = registry.total_stats();
    let (fetches1, fetch_ns1) = probe.fetch_totals();
    let (symbols1, bytes1) = (Symbol::table_len(), Symbol::table_bytes());
    probe.set_tracing(false);
    report.notes.push(calm.note());

    // "It fires": the tile-join hash index must build on the generated
    // shapes, or this workload no longer measures the join kernels.
    for family in ["star", "chain"] {
        let builds = index_builds.get(family).copied().unwrap_or(0);
        report.fires(
            builds > 0,
            &format!("join.index_builds > 0 on {family} queries ({builds})"),
        );
    }
    report.fires(queries > 0, "at least one query completed");
    check_answers(&mut report, &registry, &sampled);

    let query_p50_ms = timings.traced_p50_ms();
    timings.report(&mut report, &calm, &setups, rss);
    report.notes.push(format!(
        "calls_per_query = {:.3} count; cpu_per_query = {:.4} ms; \
         failed_ratio = {:.4} ({} of {} operations)",
        (after.calls - before.calls) as f64 / queries.max(1) as f64,
        cpu_ms / queries.max(1) as f64,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));

    if args.trace {
        let spans = probe.take_spans();
        c.queries = queries;
        c.fetch_calls = after.calls - before.calls;
        c.cache_hits = after.cache_hits - before.cache_hits;
        c.coalesced = after.coalesced - before.coalesced;
        c.fetch_ns = fetch_ns1 - fetch_ns0;
        c.interner_symbols = (symbols1 - symbols0) as u64;
        c.interner_bytes = (bytes1 - bytes0) as u64;
        c.failed = report.failed;
        c.attempted = report.attempted;
        c.query_p50_ms = query_p50_ms;
        report.notes.push(overhead_note(&c));
        report.per_layer = per_layer(&c, &spans);
        // The layer times must add up to the query's wall time.
        let gap = unattributed_pct(&spans);
        report.fires(
            gap <= 5.0,
            &format!("layer self-times within 5% of query wall time ({gap:.2}% unattributed)"),
        );
        match write_spans(&args.workload, args.seed, &spans) {
            Ok(path) => report
                .notes
                .push(format!("spans: {} written to {path}", spans.len())),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    }
    report.notes.push(format!(
        "window: {:.2} s, {queries} queries, {} real fetches",
        window.as_secs_f64(),
        fetches1 - fetches0
    ));
    report
}

/// Off the timed path: each sampled answer's top-k must be
/// byte-identical to a serial (`exec_workers = 1`) run, and the serial
/// run's answers must be sound with respect to the declarative oracle.
fn check_answers(report: &mut Report, registry: &ServiceRegistry, sampled: &[(QuerySpec, String)]) {
    let probe = Probe::new();
    let serial = EngineConfig::default().exec_workers(1);
    let mut oracle_runs = 0;
    for (spec, rendered) in sampled {
        let reference = match run_query(&probe, None, registry, serial, &spec.text) {
            Ok(a) => a,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("reference run failed: {e}"));
                continue;
            }
        };
        if &reference.rendered != rendered {
            report.failed += 1;
            report.problem(format!(
                "top-k differs from the exec_workers=1 run: {}",
                spec.text
            ));
        }
        if oracle_runs < ORACLE_CHECKS {
            oracle_runs += 1;
            match evaluate_oracle(&reference.query, registry) {
                Ok(oracle) => {
                    let unsound = reference
                        .set
                        .tuples
                        .iter()
                        .filter(|c| !oracle.iter().any(|o| same_answer(&reference.query, o, c)))
                        .count();
                    if unsound > 0 {
                        report.failed += 1;
                        report.problem(format!(
                            "{unsound} answers not in the oracle's: {}",
                            spec.text
                        ));
                    }
                }
                Err(e) => report.problem(format!("oracle failed: {e}")),
            }
        }
    }
    report.notes.push(format!(
        "answer checks: {} sampled queries vs exec_workers=1, {oracle_runs} vs the oracle",
        sampled.len()
    ));
}
