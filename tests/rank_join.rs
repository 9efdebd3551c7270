//! Correctness of the top-k rank join:
//!
//! * it must return exactly the first `k` entries of the score-sorted
//!   full enumeration (not just "k good tuples"), for any invocation,
//!   completion, decay, and chunking;
//! * both engine executors must honor the `rank_join` configuration
//!   flag end to end.

use search_computing::join::executor::{MemoryStream, ParallelJoinExecutor};
use search_computing::join::{score_order, RankJoin};
use search_computing::plan::{JoinSpec, PlanNode, ServiceNode};
use search_computing::prelude::*;
use search_computing::query::predicate::{ResolvedPredicate, SchemaMap};
use search_computing::query::{JoinPredicate, QualifiedPath};
use seco_bench::star_scenario;
use seco_model::{
    Adornment, AttributeDef, AttributePath, DataType, ScoringFunction, ServiceSchema, Tuple,
};

fn schema(name: &str) -> ServiceSchema {
    ServiceSchema::new(
        name,
        vec![
            AttributeDef::atomic("City", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )
    .unwrap()
}

/// A ranked stream of `n` single-atom composites: scores follow the
/// decay model (non-increasing, as search services emit), join keys
/// cycle through `modulus` cities shifted by `phase`.
fn stream_data(
    atom: &str,
    schema: &ServiceSchema,
    n: usize,
    decay: ScoreDecay,
    modulus: usize,
    phase: usize,
) -> Vec<CompositeTuple> {
    let f = ScoringFunction::new(decay, n, 2).unwrap();
    (0..n)
        .map(|i| {
            let t = Tuple::builder(schema)
                .set(
                    "City",
                    Value::Text(format!("city-{}", (i + phase) % modulus)),
                )
                .set("Score", Value::float(f.score_at(i)))
                .score(f.score_at(i))
                .source_rank(i)
                .build()
                .unwrap();
            CompositeTuple::single(atom, t)
        })
        .collect()
}

fn eq_pred(la: &str, ra: &str) -> ResolvedPredicate {
    ResolvedPredicate::Join(JoinPredicate {
        left: QualifiedPath::new(la, AttributePath::atomic("City")),
        op: Comparator::Eq,
        right: QualifiedPath::new(ra, AttributePath::atomic("City")),
    })
}

/// Seeded property test: for random decays, sizes, chunkings, and join
/// methods, the rank join's output at k ∈ {1, 5, 20}
/// equals the first k entries of the full enumeration sorted by the
/// canonical score order — ties included, bound checks performed.
#[test]
fn rank_join_top_k_is_the_sorted_enumeration_prefix() {
    let sa = schema("A1");
    let sb = schema("B1");
    let preds = vec![eq_pred("A", "B")];
    let mut schemas = SchemaMap::new();
    schemas.insert("A".into(), &sa);
    schemas.insert("B".into(), &sb);

    // xorshift64*, fully determined by the seed.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let decays = [
        ScoreDecay::Linear,
        ScoreDecay::Quadratic,
        ScoreDecay::Step {
            h: 2,
            high: 0.9,
            low: 0.1,
        },
    ];
    let invocations = [
        Invocation::NestedLoop,
        Invocation::merge_scan_even(),
        Invocation::MergeScan { r1: 1, r2: 3 },
    ];
    let completions = [Completion::Rectangular, Completion::Triangular];

    for trial in 0..12 {
        let dx = decays[(next() % 3) as usize];
        let dy = decays[(next() % 3) as usize];
        let na = 16 + (next() % 32) as usize;
        let nb = 16 + (next() % 32) as usize;
        let modulus = 2 + (next() % 5) as usize;
        let chunk = 2 + (next() % 5) as usize;
        let inv = invocations[(next() % 3) as usize];
        let comp = completions[(next() % 2) as usize];
        // Unused draw: keeps the seeded sequence of trial parameters.
        next();
        let a = stream_data("A", &sa, na, dx, modulus, 0);
        let b = stream_data("B", &sb, nb, dy, modulus, (next() % 3) as usize);

        // The reference: exhaustive enumeration, canonically sorted.
        let full = ParallelJoinExecutor {
            predicates: &preds,
            schemas: &schemas,
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            h: 1,
            k: 0,
            pool: None,
        };
        let mut sx = MemoryStream::new(a.clone(), chunk);
        let mut sy = MemoryStream::new(b.clone(), chunk);
        let mut baseline = full.run(&mut sx, &mut sy).unwrap().results;
        baseline.sort_by(score_order);

        for k in [1usize, 5, 20] {
            let rj = RankJoin {
                join: ParallelJoinExecutor {
                    invocation: inv,
                    completion: comp,
                    k,
                    pool: None,
                    ..full
                },
                space: None,
            };
            let mut sx = MemoryStream::new(a.clone(), chunk);
            let mut sy = MemoryStream::new(b.clone(), chunk);
            let out = rj.run(&mut sx, &mut sy).unwrap();
            let want: Vec<_> = baseline.iter().take(k).cloned().collect();
            assert_eq!(
                out.results, want,
                "trial {trial}: k={k} na={na} nb={nb} modulus={modulus} \
                 chunk={chunk} inv={inv:?} comp={comp:?}"
            );
            assert!(out.stats.bound_checks > 0, "trial {trial}: no bound checks");
            assert_eq!(out.stats.chunks_fetched, (out.calls_x + out.calls_y) as u64);
        }
    }
}

/// With `rank_join` on, the engine must return the true top-k of
/// the join — the prefix of the full enumeration under the canonical
/// score order — not the first k emitted.
#[test]
fn engine_rank_join_returns_the_true_top_k() {
    let star_pair_plan = |seed: u64| -> (QueryPlan, ServiceRegistry) {
        let (registry, query) = star_scenario(2, seed);
        let joins = query.expanded_joins(&registry).unwrap();
        let mut plan = QueryPlan::new(query.clone());
        let s1 = plan.add(PlanNode::Service(
            ServiceNode::new("A1", "Star1").with_fetches(4),
        ));
        let s2 = plan.add(PlanNode::Service(
            ServiceNode::new("A2", "Star2").with_fetches(4),
        ));
        let j = plan.add(PlanNode::ParallelJoin(JoinSpec {
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Rectangular,
            predicates: joins,
            selectivity: 1.0,
        }));
        plan.connect(plan.input(), s1).unwrap();
        plan.connect(plan.input(), s2).unwrap();
        plan.connect(s1, j).unwrap();
        plan.connect(s2, j).unwrap();
        plan.connect(j, plan.output()).unwrap();
        (plan, registry)
    };

    // The reference: exhaustive run, canonically sorted.
    let (plan, registry) = star_pair_plan(7);
    let full = execute_plan(
        &plan,
        &registry,
        EngineConfig {
            join_k: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let mut want = full.results.clone();
    want.sort_by(score_order);
    let k = 5usize;
    assert!(want.len() > k, "reference must overfill k");
    want.truncate(k);

    let cfg = EngineConfig {
        join_k: k,
        rank_join: true,
        ..Default::default()
    };
    let (plan, registry) = star_pair_plan(7);
    let ranked = execute_plan(&plan, &registry, cfg).unwrap();
    assert_eq!(ranked.results, want);
    assert!(ranked.join_stats.bound_checks > 0);
    assert!(
        ranked.join_stats.chunks_fetched > 0,
        "rank join must report its chunk pulls"
    );
}
