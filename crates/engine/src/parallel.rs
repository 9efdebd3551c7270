//! The pipelined multi-threaded executor.
//!
//! §2.2: "data are shipped in pipelines from one service to another, so
//! as to maximize parallelism". Every plan node runs in its own OS
//! thread; composites flow through bounded crossbeam channels along the
//! plan's arcs, so independent branches (e.g. Movie and Theatre in the
//! Fig. 10 plan) issue their service calls concurrently and downstream
//! stages start as soon as the first tuples arrive. Parallel-join
//! stages are rendezvous points: they drain both inputs, then run the
//! tile-space join and stream its emission order onward.
//!
//! Every node runs through the operators of [`crate::ops`], shared with
//! [`crate::executor::execute_plan`], so on a fault-free run both
//! executors return the same rows in the same order. The experiments
//! use the deterministic executor and this one exists to exercise true
//! pipelined execution (including failure propagation out of worker
//! threads).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use seco_join::JoinStats;
use seco_model::CompositeTuple;
use seco_optimizer::Optimizer;
use seco_plan::{PlanNode, QueryPlan};
use seco_services::{DeviationPolicy, Service, ServiceRegistry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::executor::FailureMode;
use crate::ops::Operators;
use crate::shared::SharedState;

/// Channel capacity per plan arc, in batches; small enough to exercise
/// backpressure, large enough to avoid senseless stalls.
const ARC_CAPACITY: usize = 256;

/// Tuples per channel batch. Workers buffer their output locally and
/// ship it in batches, so the per-tuple cost of the channel's internal
/// lock (and of cloning for every fan-out edge) is amortized away —
/// this is what removes the output-path contention that per-tuple
/// sends exhibited with eight producer nodes.
const BATCH_SIZE: usize = 32;

/// A batch of composites on a plan arc. Batches are `Arc`-shared so a
/// fan-out over N consumers ships N handle bumps, not N vector copies
/// (the composites themselves are thin handles already).
type Batch = Arc<Vec<CompositeTuple>>;

/// Recovers an owned batch from the shared handle: moves when this
/// consumer was the only one, clones handles otherwise.
fn unbatch(batch: Batch) -> Vec<CompositeTuple> {
    Arc::try_unwrap(batch).unwrap_or_else(|shared| (*shared).clone())
}

/// Drains an input arc to its end (a rendezvous).
fn drain(rx: &Receiver<Batch>) -> Vec<CompositeTuple> {
    rx.iter().flat_map(unbatch).collect()
}

/// A worker's buffered fan-out over its outgoing arcs.
struct Fanout {
    senders: Vec<Sender<Batch>>,
    buf: Vec<CompositeTuple>,
}

impl Fanout {
    fn new(senders: Vec<Sender<Batch>>) -> Self {
        Fanout {
            senders,
            buf: Vec::with_capacity(BATCH_SIZE),
        }
    }

    /// Buffers one tuple, shipping a batch when full. Returns `false`
    /// when every downstream consumer hung up.
    fn push(&mut self, tuple: CompositeTuple) -> bool {
        self.buf.push(tuple);
        if self.buf.len() >= BATCH_SIZE {
            self.flush()
        } else {
            true
        }
    }

    /// Ships whatever is buffered. Must be called before the worker
    /// drops its senders, or the tail of its output is lost.
    fn flush(&mut self) -> bool {
        if self.buf.is_empty() || self.senders.is_empty() {
            self.buf.clear();
            return true;
        }
        let batch: Batch = Arc::new(std::mem::take(&mut self.buf));
        for s in &self.senders {
            if s.send(batch.clone()).is_err() {
                return false; // downstream hung up
            }
        }
        true
    }
}

/// The outcome of a pipelined execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelOutcome {
    /// Output combinations, in the output stage's arrival order.
    pub results: Vec<CompositeTuple>,
    /// Services whose failures degraded the answer (sorted,
    /// deduplicated; empty on a clean run).
    pub degraded: Vec<String>,
    /// Join-kernel counters aggregated over every pipe stage and
    /// parallel join of the plan.
    pub join_stats: JoinStats,
    /// The plan the run actually executed, when the pre-flight adaptive
    /// checkpoint re-planned under promoted statistics (`None`
    /// otherwise).
    pub replanned: Option<QueryPlan>,
}

/// Executes a plan with one thread per node, returning the output
/// combinations (in the output stage's arrival order).
pub fn execute_parallel(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
) -> Result<Vec<CompositeTuple>, EngineError> {
    execute_parallel_with(plan, registry, options).map(|o| o.results)
}

/// Like [`execute_parallel`], additionally reporting which services
/// degraded the answer under [`FailureMode::Degrade`]. Resilience
/// middleware ([`EngineConfig::client`]) runs in wall-clock mode here:
/// backoff really sleeps and breaker cooldowns are real milliseconds.
pub fn execute_parallel_with(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
) -> Result<ParallelOutcome, EngineError> {
    execute_parallel_session(plan, registry, options, None, None)
}

/// A batch sink for streaming delivery: called from the output
/// collector thread with each arriving batch of final combinations,
/// *while upstream stages are still running* — this is what pushes
/// result chunks to a client as tiles are joined. Must be `Sync`
/// (invoked from inside the executor's thread scope).
pub type BatchSink<'s> = &'s (dyn Fn(&[CompositeTuple]) + Sync);

/// The daemon-grade pipelined entry point: executes against optional
/// long-lived [`SharedState`] (persistent per-service caches, breaker
/// state, and the executor pool) and streams output batches into
/// `sink` as they arrive at the output stage. Both extras are
/// optional; with neither, this is exactly [`execute_parallel_with`].
pub fn execute_parallel_session(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: Option<&SharedState>,
    sink: Option<BatchSink<'_>>,
) -> Result<ParallelOutcome, EngineError> {
    // Pre-flight adaptive checkpoint. Wall-clock threads preclude the
    // deterministic executor's mid-flight restarts (replaying memoized
    // stages under a virtual clock), so this executor adapts *between*
    // runs: statistics observed by earlier executions are promoted and
    // the whole plan is re-planned (empty executed prefix ⇒ every
    // degree of freedom re-opens) before any thread spawns.
    let replanned: Option<QueryPlan> = if options.adaptive {
        let policy = DeviationPolicy {
            threshold: options.adaptive_threshold,
            min_samples: 1,
        };
        let promoted = registry.promote_deviations(&policy);
        if promoted.is_empty() {
            None
        } else {
            let mut observed: BTreeMap<String, (f64, f64)> = BTreeMap::new();
            for (name, drift) in registry.service_drift() {
                if let Some(card) = drift.observed_cardinality {
                    observed.insert(name, (drift.declared_cardinality, card.value));
                }
            }
            // A promotion *is* a deviation past the threshold (that is
            // the promotion criterion), so always open the re-planner's
            // gate — pattern-only drift leaves no service entry above.
            observed.insert(
                "(promoted)".to_owned(),
                (1.0, options.adaptive_threshold.max(1.0)),
            );
            let mut opt = Optimizer::new(registry, options.adaptive_metric);
            opt.replan_threshold = options.adaptive_threshold;
            opt.replan_suffix(plan, &BTreeSet::new(), &observed)
                .ok()
                .filter(|re| re.plan != *plan)
                .map(|re| re.plan)
        }
    } else {
        None
    };
    let plan = replanned.as_ref().unwrap_or(plan);

    // With caller-provided shared state the fetch stacks (and the
    // executor pool) persist across executions; without, they live for
    // this run only.
    let local_state;
    let state = match shared {
        Some(s) => s,
        None => {
            local_state = SharedState::new();
            &local_state
        }
    };
    let ops = Operators::new(plan, registry, options, state)?;
    let ops = &ops;
    let degrade = options.failure_mode == FailureMode::Degrade;

    // Which services feed each node, so a rendezvous join can attribute
    // a recorded failure to its left or right branch. Workers record a
    // degradation before dropping their senders, and a join only reads
    // the set after both its channels closed, so the attribution is
    // race-free.
    let mut ancestors: Vec<BTreeSet<String>> = vec![BTreeSet::new(); plan.len()];
    for id in plan.topo_order()? {
        let mut set = BTreeSet::new();
        for p in plan.predecessors(id) {
            set.extend(ancestors[p.0].iter().cloned());
        }
        if let Ok(PlanNode::Service(node)) = plan.node(id) {
            set.insert(node.service.clone());
        }
        ancestors[id.0] = set;
    }

    // One channel per arc, carrying shared batches of tuples.
    let mut senders: Vec<Vec<Sender<Batch>>> = vec![Vec::new(); plan.len()];
    let mut receivers: Vec<Vec<Receiver<Batch>>> = vec![Vec::new(); plan.len()];
    for (from, to) in plan.edges() {
        let (tx, rx) = bounded(ARC_CAPACITY);
        senders[from.0].push(tx);
        receivers[to.0].push(rx);
    }

    // One fetch stack per service, shared by every node (and thread)
    // that invokes it: the wall-clock resilient client — one breaker
    // per service, matching the deterministic executor — under the
    // sharded response cache, whose singleflight layer coalesces
    // concurrent identical requests across plan nodes.
    let mut stacks: BTreeMap<String, Arc<dyn Service>> = BTreeMap::new();
    for id in plan.node_ids() {
        if let Ok(PlanNode::Service(node)) = plan.node(id) {
            if stacks.contains_key(&node.service) {
                continue;
            }
            let recorded = registry.service(&node.service)?;
            stacks.insert(
                node.service.clone(),
                state.stack_for(&node.service, &recorded, &options, true),
            );
        }
    }
    let stacks = &stacks;
    // The plan-node tasks below block on channel rendezvous, so on a
    // pooled run they go to the pool's elastic blocking tier, never to
    // a bounded compute worker: the daemon's shared pool, or the
    // run-local morsel pool of the join kernels when `exec_workers > 1`.
    let task_pool = state.exec_pool().or(ops.pool());

    let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
    let output: Mutex<Vec<CompositeTuple>> = Mutex::new(Vec::new());
    let degraded: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let join_stats: Mutex<JoinStats> = Mutex::new(JoinStats::default());
    // Whether any service upstream of `node` has recorded a failure.
    // Called by rendezvous nodes once their input channels closed, so
    // every upstream degradation is already recorded.
    let upstream_degraded = |node: usize| {
        degrade && {
            let deg = degraded.lock();
            ancestors[node].iter().any(|s| deg.contains(s))
        }
    };

    let mut node_tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for id in plan.node_ids() {
        let node = match plan.node(id) {
            Ok(n) => n,
            Err(e) => {
                *first_error.lock() = Some(EngineError::Plan(e));
                continue;
            }
        };
        let my_senders = std::mem::take(&mut senders[id.0]);
        let my_receivers = std::mem::take(&mut receivers[id.0]);
        let my_preds = plan.predecessors(id);
        let first_error = &first_error;
        let output = &output;
        let degraded = &degraded;
        let join_stats = &join_stats;
        let upstream_degraded = &upstream_degraded;
        node_tasks.push(Box::new(move || {
            let fail = |e: EngineError| {
                let mut slot = first_error.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
            };
            let mut out = Fanout::new(my_senders);
            let mut local = JoinStats::default();
            let results: Vec<CompositeTuple> = match node {
                PlanNode::Input => vec![CompositeTuple {
                    atoms: Vec::new(),
                    components: Vec::new(),
                }],
                PlanNode::Output => {
                    // Batches arrive pre-buffered per producer, so this
                    // stays one extend per batch — not one lock
                    // acquisition per tuple. A streaming sink sees each
                    // batch the moment it lands, while upstream stages
                    // are still joining tiles.
                    let mut collected = Vec::new();
                    for batch in my_receivers[0].iter() {
                        if let Some(push) = sink {
                            push(&batch);
                        }
                        collected.extend(unbatch(batch));
                    }
                    *output.lock() = collected;
                    return;
                }
                PlanNode::Selection(sel) => {
                    let selection = match ops.selection(sel) {
                        Ok(s) => s,
                        Err(e) => return fail(e),
                    };
                    for batch in my_receivers[0].iter() {
                        match selection.run(unbatch(batch), &mut local) {
                            Ok(kept) => {
                                if !kept.into_iter().all(|c| out.push(c)) {
                                    return;
                                }
                            }
                            Err(e) => return fail(e),
                        }
                    }
                    Vec::new()
                }
                PlanNode::Service(svc) => {
                    let service = &stacks[&svc.service];
                    let stage = ops.service_stage(svc);
                    for batch in my_receivers[0].iter() {
                        match stage.run(&batch, service.as_ref(), &mut local) {
                            Ok(stage_out) => {
                                if stage_out.degraded {
                                    degraded.lock().insert(svc.service.clone());
                                }
                                if !stage_out.results.into_iter().all(|c| out.push(c)) {
                                    return;
                                }
                            }
                            Err(e) => return fail(e),
                        }
                    }
                    Vec::new()
                }
                PlanNode::ParallelJoin(_) => {
                    // Rendezvous: drain both inputs.
                    let left = drain(&my_receivers[0]);
                    let right = drain(&my_receivers[1]);
                    let deg = (
                        upstream_degraded(my_preds[0].0),
                        upstream_degraded(my_preds[1].0),
                    );
                    match ops.parallel_join(id, left, right, deg, &mut local) {
                        Ok(results) => results,
                        Err(e) => return fail(e),
                    }
                }
            };
            join_stats.lock().merge(&local);
            if results.into_iter().all(|c| out.push(c)) {
                out.flush();
            }
        }));
    }
    // One task per live plan node. On a pooled run the tasks go to the
    // pool's elastic blocking tier — threads there are reused across
    // queries and bounded by the pool's lifetime; without a pool this
    // is the historical scoped-thread fan-out. Both join every task
    // before returning.
    match task_pool {
        Some(pool) => pool.scope_blocking(node_tasks),
        None => {
            std::thread::scope(|scope| {
                for task in node_tasks {
                    scope.spawn(task);
                }
            });
        }
    }

    if let Some(e) = first_error.lock().take() {
        return Err(e);
    }
    Ok(ParallelOutcome {
        results: output.into_inner(),
        degraded: degraded.into_inner().into_iter().collect(),
        join_stats: join_stats.into_inner(),
        replanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_optimizer::{optimize, CostMetric};
    use seco_query::builder::running_example;
    use seco_services::domains::entertainment;

    #[test]
    fn parallel_matches_sequential_results_row_for_row() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        let sequential =
            crate::executor::execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        let parallel = execute_parallel(&best.plan, &reg, EngineConfig::default()).unwrap();
        assert_eq!(parallel, sequential.results);
    }

    #[test]
    fn failures_in_workers_surface_as_errors() {
        use seco_services::synthetic::{DomainMap, SyntheticService};
        use std::sync::Arc;
        // A registry whose Movie service always fails.
        let mut reg = seco_services::ServiceRegistry::new();
        reg.register_service(Arc::new(
            SyntheticService::new(entertainment::movie_interface(), DomainMap::new(), 1)
                .with_failure_every(1),
        ))
        .unwrap();
        reg.register_service(Arc::new(SyntheticService::new(
            entertainment::theatre_interface(),
            DomainMap::new(),
            2,
        )))
        .unwrap();
        reg.register_service(Arc::new(SyntheticService::new(
            entertainment::restaurant_interface(),
            DomainMap::new(),
            3,
        )))
        .unwrap();
        reg.register_pattern(entertainment::shows_pattern())
            .unwrap();
        reg.register_pattern(entertainment::dinner_place_pattern())
            .unwrap();

        let q = running_example();
        // Reuse a plan optimized against a healthy registry.
        let healthy = entertainment::build_registry(1).unwrap();
        let best = optimize(&q, &healthy, CostMetric::RequestCount).unwrap();
        let err = execute_parallel(&best.plan, &reg, EngineConfig::default()).unwrap_err();
        assert!(
            matches!(err, EngineError::Join(_) | EngineError::Service(_)),
            "{err}"
        );

        // The same downed registry under Degrade mode completes and
        // names the culprit instead of erroring.
        let opts = EngineConfig {
            failure_mode: crate::executor::FailureMode::Degrade,
            ..Default::default()
        };
        let outcome = execute_parallel_with(&best.plan, &reg, opts).unwrap();
        assert_eq!(outcome.degraded, vec!["Movie1".to_string()]);
    }

    #[test]
    fn degraded_parallel_join_passes_the_surviving_branch_through() {
        use seco_model::{Comparator, Value};
        use seco_plan::{Completion, Invocation, JoinSpec, PlanNode, QueryPlan, ServiceNode};
        use seco_query::QueryBuilder;
        use seco_services::domains::travel;
        use seco_services::synthetic::{DomainMap, FaultProfile, SyntheticService};
        use std::sync::Arc;
        // Flight is hard down; the parallel join should pass the Hotel
        // branch through instead of returning nothing. The healthy
        // services mirror travel::build_registry(5).
        let mut reg = seco_services::ServiceRegistry::new();
        let city = seco_services::ValueDomain::new("city", 12);
        let conf_domains = DomainMap::new().with(seco_model::AttributePath::atomic("City"), city);
        reg.register_service(Arc::new(SyntheticService::new(
            travel::conference_interface(),
            conf_domains,
            5 ^ 0x11,
        )))
        .unwrap();
        reg.register_service(Arc::new(
            SyntheticService::new(travel::flight_interface(), DomainMap::new(), 5 ^ 0x13)
                .with_fault_profile(FaultProfile {
                    outage: Some((0, u64::MAX)),
                    ..FaultProfile::none()
                }),
        ))
        .unwrap();
        reg.register_service(Arc::new(SyntheticService::new(
            travel::hotel_interface(),
            DomainMap::new(),
            5 ^ 0x14,
        )))
        .unwrap();
        reg.register_pattern(travel::reached_by_pattern()).unwrap();
        reg.register_pattern(travel::stay_at_pattern()).unwrap();
        reg.register_pattern(travel::same_trip_pattern()).unwrap();

        let q = QueryBuilder::new()
            .atom("C", "Conference1")
            .atom("F", "Flight1")
            .atom("H", "Hotel1")
            .pattern("ReachedBy", "C", "F")
            .pattern("StayAt", "C", "H")
            .pattern("SameTrip", "F", "H")
            .select_const("C", "Topic", Comparator::Eq, Value::text("ai"))
            .k(5)
            .build()
            .unwrap();
        let joins = q.expanded_joins(&reg).unwrap();
        let same_trip: Vec<_> = joins
            .iter()
            .filter(|j| j.connects("F", "H"))
            .cloned()
            .collect();
        let mut p = QueryPlan::new(q);
        let c = p.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
        let f = p.add(PlanNode::Service(ServiceNode::new("F", "Flight1")));
        let h = p.add(PlanNode::Service(ServiceNode::new("H", "Hotel1")));
        let j = p.add(PlanNode::ParallelJoin(JoinSpec {
            invocation: Invocation::merge_scan_even(),
            completion: Completion::Triangular,
            predicates: same_trip,
            selectivity: 1.0,
        }));
        p.connect(p.input(), c).unwrap();
        p.connect(c, f).unwrap();
        p.connect(c, h).unwrap();
        p.connect(f, j).unwrap();
        p.connect(h, j).unwrap();
        p.connect(j, p.output()).unwrap();

        let opts = EngineConfig {
            join_k: 5,
            failure_mode: crate::executor::FailureMode::Degrade,
            ..Default::default()
        };
        let outcome = execute_parallel_with(&p, &reg, opts).unwrap();
        assert_eq!(outcome.degraded, vec!["Flight1".to_string()]);
        assert!(!outcome.results.is_empty(), "the hotel branch must survive");
        for combo in &outcome.results {
            assert!(combo.component("H").is_some());
            assert!(
                combo.component("F").is_none(),
                "the downed branch contributes nothing"
            );
        }
        // The deterministic executor agrees on the degradation.
        let seq = crate::executor::execute_plan(&p, &reg, opts).unwrap();
        assert_eq!(seq.degraded, vec!["Flight1".to_string()]);
        assert!(!seq.results.is_empty());
    }
}
