//! Exactness of the join kernel: for every join method, decay model,
//! chunk size, and `k`, the kernel must be *byte-identical* to a
//! nested-loop oracle that replays the same tiles — same combinations
//! in the same emission order. Whatever the inputs select (hash probe
//! on an equi key, compiled scan otherwise, batch kernels over
//! body-backed or gathered columns) may only change how much work is
//! done, never what is produced.

use search_computing::join::executor::{
    ChunkStream, CompositeChunk, JoinOutcome, MemoryStream, ParallelJoinExecutor, ServiceStream,
};
use search_computing::join::JoinError;
use search_computing::plan::{JoinSpec, PlanNode, SelectionNode, ServiceNode};
use search_computing::prelude::*;
use search_computing::query::predicate::{satisfies_available, ResolvedPredicate, SchemaMap};
use search_computing::query::{JoinPredicate, QualifiedPath};
use search_computing::services::domains::travel;
use search_computing::services::invocation::Request;
use seco_bench::join_pair_with_width;
use seco_model::{Adornment, AttributeDef, AttributePath, DataType, ServiceSchema, Tuple};

/// The nested-loop oracle: replays `out.tiles` in order over the chunk
/// pairs and judges every merged pair with the interpreter. Returns the
/// combinations it keeps and the number of pairs it judged.
fn nested_loop_oracle(
    out: &JoinOutcome,
    xs: &[Vec<CompositeTuple>],
    ys: &[Vec<CompositeTuple>],
    predicates: &[ResolvedPredicate],
    schemas: &SchemaMap<'_>,
) -> (Vec<CompositeTuple>, u64) {
    let mut kept = Vec::new();
    let mut evals = 0u64;
    for t in &out.tiles {
        for a in &xs[t.x] {
            for b in &ys[t.y] {
                let Some(candidate) = a.merge(b) else {
                    continue;
                };
                evals += 1;
                if satisfies_available(predicates, &candidate, schemas).expect("oracle evaluates") {
                    kept.push(candidate);
                }
            }
        }
    }
    (kept, evals)
}

/// Owned render of a combination list; two lists are byte-identical
/// iff these strings are equal.
fn rows(results: &[CompositeTuple]) -> String {
    results
        .iter()
        .map(|c| format!("{:?};", c.materialize()))
        .collect()
}

/// Owned render of the full outcome: rows plus tile bookkeeping.
fn render(out: &JoinOutcome) -> String {
    format!(
        "{}|tiles={:?}|reps={:?}|calls={}/{}|exhausted={}",
        rows(&out.results),
        out.tiles,
        out.tile_representatives,
        out.calls_x,
        out.calls_y,
        out.exhausted
    )
}

/// Every chunk of a stream, in order, as plain composite lists.
fn fetch_all(stream: &mut dyn ChunkStream) -> Vec<Vec<CompositeTuple>> {
    let mut chunks = Vec::new();
    loop {
        let chunk = stream.fetch_chunk(chunks.len()).expect("chunk fetches");
        let more = chunk.has_more;
        chunks.push(chunk.composites);
        if !more {
            return chunks;
        }
    }
}

/// Re-serves recorded chunks without their service bodies, so the
/// kernel reads the row view: keys from the row-built index, batch
/// columns gathered from the composites.
struct RowChunks(Vec<Vec<CompositeTuple>>);

impl ChunkStream for RowChunks {
    fn fetch_chunk(&mut self, idx: usize) -> Result<CompositeChunk, JoinError> {
        let composites = self.0.get(idx).cloned().unwrap_or_default();
        Ok(CompositeChunk::new(composites, idx + 1 < self.0.len()))
    }
}

/// `X.Link <op> Y.Link`.
fn link_predicate(op: Comparator) -> Vec<ResolvedPredicate> {
    vec![ResolvedPredicate::Join(JoinPredicate {
        left: QualifiedPath::new("X", AttributePath::atomic("Link")),
        op,
        right: QualifiedPath::new("Y", AttributePath::atomic("Link")),
    })]
}

#[test]
fn hash_kernel_is_byte_identical_across_join_methods() {
    let decays = [
        (ScoreDecay::Linear, ScoreDecay::Quadratic),
        (
            ScoreDecay::Step {
                h: 2,
                high: 0.9,
                low: 0.1,
            },
            ScoreDecay::Linear,
        ),
    ];
    let invocations = [
        Invocation::NestedLoop,
        Invocation::merge_scan_even(),
        Invocation::MergeScan { r1: 1, r2: 3 },
    ];
    let completions = [Completion::Rectangular, Completion::Triangular];
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
    let mut nested_evals = 0u64;
    let mut hashed_evals = 0u64;
    for &(dx, dy) in &decays {
        for &chunk in &[3usize, 5] {
            let (sx, sy) = join_pair_with_width(dx, dy, 40, chunk, 23, 10);
            let mut schemas = SchemaMap::new();
            schemas.insert("X".into(), &sx.interface().schema);
            schemas.insert("Y".into(), &sy.interface().schema);
            let xs = fetch_all(&mut ServiceStream::new("X", sx.as_ref(), req.clone()));
            let ys = fetch_all(&mut ServiceStream::new("Y", sy.as_ref(), req.clone()));
            for &inv in &invocations {
                for &comp in &completions {
                    for &k in &[0usize, 7] {
                        // `=` gives the kernel a hash key; `LIKE` (exact
                        // on these wildcard-free values) leaves it the
                        // compiled scan.
                        for op in [Comparator::Eq, Comparator::Like] {
                            let predicates = link_predicate(op);
                            let exec = ParallelJoinExecutor {
                                predicates: &predicates,
                                schemas: &schemas,
                                invocation: inv,
                                completion: comp,
                                h: dx.step_chunks().unwrap_or(1),
                                k,
                                pool: None,
                            };
                            let cell = format!(
                                "{dx:?}/{dy:?} {inv:?} {comp:?} k={k} chunk={chunk} op={op:?}"
                            );
                            // Columnar service bodies and the row view
                            // of the same chunks.
                            let col = exec
                                .run(
                                    &mut ServiceStream::new("X", sx.as_ref(), req.clone()),
                                    &mut ServiceStream::new("Y", sy.as_ref(), req.clone()),
                                )
                                .expect("join runs");
                            let row = exec
                                .run(&mut RowChunks(xs.clone()), &mut RowChunks(ys.clone()))
                                .expect("join runs");
                            let (want, evals) =
                                nested_loop_oracle(&col, &xs, &ys, &predicates, &schemas);
                            assert_eq!(rows(&col.results), rows(&want), "oracle: {cell}");
                            assert_eq!(render(&col), render(&row), "row view: {cell}");
                            // The data plane may move work between scalar
                            // and batch kernels, but never change how
                            // many candidates are judged.
                            assert_eq!(
                                col.stats.predicate_evals, row.stats.predicate_evals,
                                "{cell}"
                            );
                            assert!(col.stats.batch_evals > 0, "{cell}");
                            for (t, rep) in col.tiles.iter().zip(&col.tile_representatives) {
                                let head = |c: &[CompositeTuple]| {
                                    c.first().map_or(1.0, |h| h.score_product())
                                };
                                assert_eq!(*rep, head(&xs[t.x]) * head(&ys[t.y]), "{cell}");
                            }
                            if op == Comparator::Eq {
                                assert!(col.stats.index_builds > 0, "{cell}");
                                nested_evals += evals;
                                hashed_evals += col.stats.predicate_evals;
                            } else {
                                // The compiled scan judges every pair.
                                assert_eq!(col.stats.index_builds, 0, "{cell}");
                                assert_eq!(col.stats.predicate_evals, evals, "{cell}");
                            }
                        }
                    }
                }
            }
        }
    }
    // At the pair's ~0.1 selectivity the index must pay for itself.
    assert!(
        hashed_evals * 3 <= nested_evals,
        "expected ≥3x fewer predicate evaluations, got {nested_evals} vs {hashed_evals}"
    );
}

/// Composites with clustered text keys: chunk `c` carries only the key
/// `city-<c/base>`, so whole tiles have no key overlap and the indexed
/// kernel can prove them empty without touching a single pair.
fn clustered(
    atom: &str,
    schema: &ServiceSchema,
    n: usize,
    first_city: usize,
) -> Vec<CompositeTuple> {
    (0..n)
        .map(|i| {
            CompositeTuple::single(
                atom,
                Tuple::builder(schema)
                    .set("L", Value::Text(format!("city-{}", first_city + i / 10)))
                    .score(1.0 - i as f64 / n as f64)
                    .source_rank(i)
                    .build()
                    .unwrap(),
            )
        })
        .collect()
}

#[test]
fn empty_key_tiles_are_pruned_without_changing_the_answer() {
    let schema = ServiceSchema::new(
        "S",
        vec![AttributeDef::atomic("L", DataType::Text, Adornment::Output)],
    )
    .unwrap();
    let predicates = vec![ResolvedPredicate::Join(JoinPredicate {
        left: QualifiedPath::new("X", AttributePath::atomic("L")),
        op: Comparator::Eq,
        right: QualifiedPath::new("Y", AttributePath::atomic("L")),
    })];
    let mut schemas = SchemaMap::new();
    schemas.insert("X".into(), &schema);
    schemas.insert("Y".into(), &schema);
    let exec = ParallelJoinExecutor {
        predicates: &predicates,
        schemas: &schemas,
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        h: 1,
        k: 0,
        pool: None,
    };
    // X covers city-0..3, Y covers city-2..5: tiles between the
    // disjoint chunks share no key.
    let (x, y) = (
        clustered("X", &schema, 40, 0),
        clustered("Y", &schema, 40, 2),
    );
    let accel = exec
        .run(
            &mut MemoryStream::new(x.clone(), 10),
            &mut MemoryStream::new(y.clone(), 10),
        )
        .expect("join runs");
    let chunks = |v: &[CompositeTuple]| v.chunks(10).map(<[_]>::to_vec).collect::<Vec<_>>();
    let (want, evals) = nested_loop_oracle(&accel, &chunks(&x), &chunks(&y), &predicates, &schemas);
    assert_eq!(rows(&accel.results), rows(&want));
    assert!(accel.exhausted);
    assert_eq!(accel.tiles.len(), 16, "every tile is visited");
    assert!(
        !accel.results.is_empty(),
        "the overlapping cities must match"
    );
    assert!(
        accel.stats.tiles_pruned > 0,
        "disjoint-key tiles must be pruned: {:?}",
        accel.stats
    );
    assert!(accel.stats.pairs_skipped > 0);
    assert!(accel.stats.predicate_evals < evals);
    assert!(accel.stats.index_builds > 0);
}

/// The E1 travel plan (Fig. 2/3): Conference → Weather → selection →
/// (Flight ∥ Hotel) → parallel join.
fn e1_plan(seed: u64) -> (QueryPlan, ServiceRegistry) {
    let registry = travel::build_registry(seed).unwrap();
    let query = QueryBuilder::new()
        .atom("C", "Conference1")
        .atom("W", "Weather1")
        .atom("F", "Flight1")
        .atom("H", "Hotel1")
        .pattern("Forecast", "C", "W")
        .pattern("ReachedBy", "C", "F")
        .pattern("StayAt", "C", "H")
        .pattern("SameTrip", "F", "H")
        .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
        .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
        .build()
        .unwrap();
    let joins = query.expanded_joins(&registry).unwrap();
    let same_trip: Vec<_> = joins
        .iter()
        .filter(|j| j.connects("F", "H"))
        .cloned()
        .collect();
    let mut plan = QueryPlan::new(query.clone());
    let c = plan.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
    let w = plan.add(PlanNode::Service(ServiceNode::new("W", "Weather1")));
    let sel = plan.add(PlanNode::Selection(
        SelectionNode::new(vec![query.selections[1].clone()]).with_selectivity(0.25),
    ));
    let f = plan.add(PlanNode::Service(
        ServiceNode::new("F", "Flight1").with_fetches(2),
    ));
    let h = plan.add(PlanNode::Service(
        ServiceNode::new("H", "Hotel1").with_fetches(2),
    ));
    let j = plan.add(PlanNode::ParallelJoin(JoinSpec {
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        predicates: same_trip,
        selectivity: 1.0,
    }));
    plan.connect(plan.input(), c).unwrap();
    plan.connect(c, w).unwrap();
    plan.connect(w, sel).unwrap();
    plan.connect(sel, f).unwrap();
    plan.connect(sel, h).unwrap();
    plan.connect(f, j).unwrap();
    plan.connect(h, j).unwrap();
    plan.connect(j, plan.output()).unwrap();
    (plan, registry)
}

/// One input branch of the E1 join — Conference → Weather → selection
/// → `atom` — executed on its own, yielding what the join consumes.
fn e1_branch(seed: u64, atom: &str, service: &str, pattern: &str) -> Vec<CompositeTuple> {
    let registry = travel::build_registry(seed).unwrap();
    let query = QueryBuilder::new()
        .atom("C", "Conference1")
        .atom("W", "Weather1")
        .atom(atom, service)
        .pattern("Forecast", "C", "W")
        .pattern(pattern, "C", atom)
        .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
        .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
        .build()
        .unwrap();
    let mut plan = QueryPlan::new(query.clone());
    let c = plan.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
    let w = plan.add(PlanNode::Service(ServiceNode::new("W", "Weather1")));
    let sel = plan.add(PlanNode::Selection(
        SelectionNode::new(vec![query.selections[1].clone()]).with_selectivity(0.25),
    ));
    let s = plan.add(PlanNode::Service(
        ServiceNode::new(atom, service).with_fetches(2),
    ));
    plan.connect(plan.input(), c).unwrap();
    plan.connect(c, w).unwrap();
    plan.connect(w, sel).unwrap();
    plan.connect(sel, s).unwrap();
    plan.connect(s, plan.output()).unwrap();
    execute_plan(&plan, &registry, EngineConfig::default())
        .unwrap()
        .results
}

/// Whole-engine identity on E1: both executors — the tile-space
/// kernel replayed on the join's two input branches, and the engine's
/// plan executor — emit exactly what the nested-loop oracle keeps,
/// while the engine's kernel actually probes hash indexes.
#[test]
fn both_executors_agree_with_and_without_the_index() {
    let cfg = EngineConfig::default().join_k(10);
    let (plan, registry) = e1_plan(5);
    let engine = execute_plan(&plan, &registry, cfg).unwrap();

    // Replay the join node on its branches at the shape the engine
    // reads it (each branch re-chunked at its service's chunk size).
    let spec = plan
        .node_ids()
        .find_map(|id| match plan.node(id) {
            Ok(PlanNode::ParallelJoin(spec)) => Some(spec.clone()),
            _ => None,
        })
        .unwrap();
    let predicates: Vec<ResolvedPredicate> = spec
        .predicates
        .into_iter()
        .map(ResolvedPredicate::Join)
        .collect();
    let mut schemas = SchemaMap::new();
    for atom in &plan.query.atoms {
        schemas.insert(
            atom.alias.clone(),
            &registry.interface(&atom.service).unwrap().schema,
        );
    }
    let flight = registry.interface("Flight1").unwrap();
    let hotel_chunk = registry.interface("Hotel1").unwrap().stats.chunk_size;
    let left = e1_branch(5, "F", "Flight1", "ReachedBy");
    let right = e1_branch(5, "H", "Hotel1", "StayAt");
    let kernel = ParallelJoinExecutor {
        predicates: &predicates,
        schemas: &schemas,
        invocation: spec.invocation,
        completion: spec.completion,
        h: flight.decay.step_chunks().unwrap_or(1),
        k: 10,
        pool: None,
    }
    .run(
        &mut MemoryStream::new(left.clone(), flight.stats.chunk_size),
        &mut MemoryStream::new(right.clone(), hotel_chunk),
    )
    .unwrap();
    let chunks =
        |v: &[CompositeTuple], n: usize| v.chunks(n).map(<[_]>::to_vec).collect::<Vec<_>>();
    let (want, evals) = nested_loop_oracle(
        &kernel,
        &chunks(&left, flight.stats.chunk_size),
        &chunks(&right, hotel_chunk),
        &predicates,
        &schemas,
    );
    assert!(!want.is_empty(), "E1 must produce combinations");
    assert_eq!(rows(&kernel.results), rows(&want));
    assert!(kernel.stats.predicate_evals <= evals);

    // Deterministic executor: the oracle's rows, in its order, and the
    // hash index must actually have fired.
    assert_eq!(rows(&engine.results), rows(&want));
    assert!(engine.join_stats.index_builds > 0);
    // This plan's branches are cluster-aligned per conference (the
    // probed bucket spans the whole chunk), so the index changes
    // nothing about the work done — only the counters can be asserted.
    assert!(engine.join_stats.probes > 0);
}
