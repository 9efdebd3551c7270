//! The deterministic (virtual-time) plan executor.
//!
//! Executes a fully instantiated plan node by node in topological
//! order, materializing each node's output composites:
//!
//! * **service nodes** run as pipe-join stages ([`seco_join::pipe`]),
//!   fetching `F` chunks per input composite (the node's fetch factor)
//!   and filtering incrementally under the repeating-group semantics;
//! * **selection nodes** filter with their own predicates;
//! * **parallel joins** run the tile-space executor of
//!   [`seco_join::executor`] over the two branch materializations,
//!   preserving the strategy's emission order;
//! * the **output node** collects the final combinations.
//!
//! The node operators themselves live in [`crate::ops`]; this module
//! schedules them, replays memoized stages across adaptive restarts,
//! and accounts time.
//!
//! Time is accounted on the virtual clock: each node's busy time is its
//! calls × the service's response time; the plan's critical-path time
//! is computed over the DAG exactly like the execution-time cost
//! metric, so measured and estimated times are directly comparable
//! (E8/E14).

use std::collections::{BTreeMap, BTreeSet};

use seco_join::JoinStats;
use seco_model::CompositeTuple;
use seco_optimizer::Optimizer;
use seco_plan::{annotate, AnnotatedPlan, AnnotationConfig, NodeId, PlanNode, QueryPlan};
use seco_services::{drift_ratio, DeviationPolicy, ServiceRegistry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::ops::Operators;
use crate::shared::SharedState;
use crate::trace::{ExecutionTrace, TraceEvent};

/// What to do when a service fails past the resilience middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// Abort the execution with the error (historical behaviour).
    #[default]
    Abort,
    /// Degrade gracefully: the failing branch contributes whatever it
    /// produced before failing, the failed services are listed on the
    /// result, and execution continues.
    Degrade,
}

/// Fetch-layer options: the sharded response cache and request
/// coalescing ([`seco_services::cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOptions {
    /// Shards of the per-service response cache; 0 leaves the cache
    /// off.
    pub cache_shards: usize,
    /// Maximum cached responses per service, across all shards.
    pub cache_capacity: usize,
}

impl Default for FetchOptions {
    fn default() -> Self {
        FetchOptions {
            cache_shards: 0,
            cache_capacity: 4096,
        }
    }
}

impl FetchOptions {
    /// A cache of `shards` shards at the default capacity.
    pub fn cached(shards: usize) -> Self {
        FetchOptions {
            cache_shards: shards,
            ..Default::default()
        }
    }

    /// `(shards, capacity)` when the cache is on.
    pub fn cache(&self) -> Option<(usize, usize)> {
        (self.cache_shards > 0).then_some((self.cache_shards, self.cache_capacity))
    }

    /// True when any part of the fetch layer is active.
    pub fn enabled(&self) -> bool {
        self.cache().is_some()
    }
}

/// The outcome of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Final combinations, in emission order.
    pub results: Vec<CompositeTuple>,
    /// Per-node trace.
    pub trace: ExecutionTrace,
    /// Critical-path elapsed time over the DAG, in virtual ms.
    pub critical_ms: f64,
    /// Total request-responses issued.
    pub total_calls: usize,
    /// Services whose failures degraded the answer (sorted, deduplicated;
    /// empty on a clean run). Only populated under
    /// [`FailureMode::Degrade`].
    pub degraded: Vec<String>,
    /// Join-kernel counters aggregated over every pipe stage and
    /// parallel join of the plan.
    pub join_stats: JoinStats,
    /// The plan execution finished on, when adaptive re-optimization
    /// swapped it mid-flight (`None` on a non-adaptive run or when no
    /// checkpoint deviated).
    pub replanned: Option<QueryPlan>,
    /// Number of mid-flight re-plans taken.
    pub replans: usize,
}

impl ExecutionResult {
    /// True when some branch failed and the results are partial.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}

/// Memoized outcome of an already-executed service stage, carried
/// across adaptive restarts. Suffix re-planning pins the executed
/// services (same interface, same fetch factors, same upstream
/// structure), so on a restart the stage's recorded outcome is replayed
/// instead of re-invoking the service: calls, busy time, and the
/// virtual clock all account each invocation exactly once.
struct StageMemo {
    service: String,
    outputs: Vec<CompositeTuple>,
    calls: usize,
    busy_ms: f64,
    failed: bool,
}

/// One pass over a plan: a completed execution, or a request to restart
/// on a re-planned suffix.
enum PassOutcome {
    Done(ExecutionResult),
    Replan(QueryPlan),
}

/// Executes a plan against the registry.
///
/// With [`EngineConfig::adaptive`] on, every fresh service stage and
/// parallel join doubles as a checkpoint: when its observed output
/// cardinality deviates from the plan-time estimate by at least
/// [`EngineConfig::adaptive_threshold`], the observed statistics are
/// promoted into the registry and the unexecuted suffix is re-planned
/// ([`Optimizer::replan_suffix`]); execution restarts on the new plan,
/// replaying the executed stages from memo. Each checkpoint fires at
/// most once, so the number of restarts is bounded by the number of
/// plan stages. With adaptive off the run is byte-identical to the
/// non-adaptive engine.
pub fn execute_plan(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
) -> Result<ExecutionResult, EngineError> {
    execute_plan_impl(plan, registry, options, None)
}

/// [`execute_plan`] against long-lived [`SharedState`]: the per-service
/// fetch stacks (response caches, circuit breakers) and the virtual
/// clock come from — and persist in — `shared`, so repeated executions
/// hit warm caches and accumulated breaker state instead of cold ones.
/// This is the daemon entry point; results are identical to the
/// one-shot path (caches return the responses the services would).
pub fn execute_plan_shared(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: &SharedState,
) -> Result<ExecutionResult, EngineError> {
    execute_plan_impl(plan, registry, options, Some(shared))
}

fn execute_plan_impl(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    shared: Option<&SharedState>,
) -> Result<ExecutionResult, EngineError> {
    let mut memo: BTreeMap<String, StageMemo> = BTreeMap::new();
    let mut checked: BTreeSet<String> = BTreeSet::new();
    let mut current: Option<QueryPlan> = None;
    let mut replans = 0usize;
    loop {
        let active = current.as_ref().unwrap_or(plan);
        match run_pass(active, registry, options, &mut memo, &mut checked, shared)? {
            PassOutcome::Done(mut result) => {
                result.replanned = current;
                result.replans = replans;
                return Ok(result);
            }
            PassOutcome::Replan(next) => {
                replans += 1;
                current = Some(next);
            }
        }
    }
}

/// Promotes observed deviations into the registry and re-plans the
/// unexecuted suffix. `trigger` is the deviating checkpoint's
/// `(estimated, observed)` cardinality pair — it opens the re-planner's
/// deviation gate even when the executed services' own cardinalities
/// are on target (e.g. a join whose selectivity was wrong). Returns
/// `None` when the re-plan itself fails: adaptivity is best-effort and
/// must never abort a viable execution.
fn attempt_replan(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: &EngineConfig,
    estimates: &AnnotatedPlan,
    memo: &BTreeMap<String, StageMemo>,
    trigger: (f64, f64),
) -> Option<seco_optimizer::Optimized> {
    let policy = DeviationPolicy {
        threshold: options.adaptive_threshold,
        min_samples: 1,
    };
    registry.promote_deviations(&policy);
    let executed: BTreeSet<String> = memo.keys().cloned().collect();
    let mut observed: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for alias in &executed {
        if let Some(id) = plan.service_node_of(alias) {
            observed.insert(
                alias.clone(),
                (
                    estimates.annotation(id).tout,
                    memo[alias].outputs.len() as f64,
                ),
            );
        }
    }
    observed.insert("(checkpoint)".to_owned(), trigger);
    let mut opt = Optimizer::new(registry, options.adaptive_metric);
    opt.replan_threshold = options.adaptive_threshold;
    opt.replan_suffix(plan, &executed, &observed).ok()
}

/// Runs one execution pass of `plan` (see [`execute_plan`]).
fn run_pass(
    plan: &QueryPlan,
    registry: &ServiceRegistry,
    options: EngineConfig,
    memo: &mut BTreeMap<String, StageMemo>,
    checked: &mut BTreeSet<String>,
    shared: Option<&SharedState>,
) -> Result<PassOutcome, EngineError> {
    // One fetch stack per service, shared across plan nodes: the
    // resilient client (when configured) under the sharded response
    // cache, so the circuit breaker and the memoized responses both
    // accumulate over the whole execution. The clock is shared too:
    // backoff pauses and abandoned-call deadlines count toward the same
    // virtual timeline as the calls themselves. Without caller-provided
    // shared state the stacks live for this pass only (the historical
    // one-shot behaviour); a daemon passes its own `SharedState` so
    // caches and breakers persist across requests.
    let local_state;
    let state = match shared {
        Some(s) => s,
        None => {
            local_state = SharedState::new();
            &local_state
        }
    };
    let clock = state.clock().clone();
    let ops = Operators::new(plan, registry, options, state)?;

    let order = plan.topo_order()?;
    let mut outputs: Vec<Vec<CompositeTuple>> = vec![Vec::new(); plan.len()];
    let mut busy: Vec<f64> = vec![0.0; plan.len()];
    let mut trace = ExecutionTrace::default();
    let mut total_calls = 0usize;
    let mut join_stats = JoinStats::default();
    let cache_cfg = options.fetch.cache();
    let mut degraded: BTreeSet<String> = BTreeSet::new();
    // Whether each node's output is already partial (some upstream
    // branch lost tuples to a failure).
    let mut node_degraded: Vec<bool> = vec![false; plan.len()];

    // Plan-time cardinality estimates, for the adaptive checkpoints.
    let mut estimates: Option<AnnotatedPlan> = if options.adaptive {
        Some(annotate(plan, registry, &AnnotationConfig::default())?)
    } else {
        None
    };

    for id in order.iter().copied() {
        let preds_nodes = plan.predecessors(id);
        let (tuples_in, out, calls, busy_ms, deg): (usize, Vec<CompositeTuple>, usize, f64, bool) =
            match plan.node(id)? {
                PlanNode::Input => {
                    // The user's single input tuple (§3.2).
                    (
                        0,
                        vec![CompositeTuple {
                            atoms: Vec::new(),
                            components: Vec::new(),
                        }],
                        0,
                        0.0,
                        false,
                    )
                }
                PlanNode::Output => {
                    let input = outputs[preds_nodes[0].0].clone();
                    let deg = node_degraded[preds_nodes[0].0];
                    (input.len(), input, 0, 0.0, deg)
                }
                PlanNode::Selection(sel) => {
                    let input = outputs[preds_nodes[0].0].clone();
                    let n_in = input.len();
                    let kept = ops.selection(sel)?.run(input, &mut join_stats)?;
                    (n_in, kept, 0, 0.0, node_degraded[preds_nodes[0].0])
                }
                PlanNode::Service(node)
                    if memo
                        .get(&node.atom)
                        .is_some_and(|m| m.service == node.service) =>
                {
                    // Already executed before an adaptive restart: the
                    // re-planner pinned this stage (same service, same
                    // fetches, same upstream structure), so replay its
                    // recorded outcome instead of re-invoking.
                    let n_in = outputs[preds_nodes[0].0].len();
                    let m = &memo[&node.atom];
                    if m.failed {
                        degraded.insert(node.service.clone());
                    }
                    let deg = node_degraded[preds_nodes[0].0] || m.failed;
                    (n_in, m.outputs.clone(), m.calls, m.busy_ms, deg)
                }
                PlanNode::Service(node) => {
                    let input = &outputs[preds_nodes[0].0];
                    let recorded = registry.service(&node.service)?;
                    let service = state.stack_for(&node.service, &recorded, &options);
                    let clock_before = clock.now_ms();
                    let busy_before = recorded.stats().busy_ms;
                    let outcome =
                        ops.service_stage(node)
                            .run(input, service.as_ref(), &mut join_stats)?;
                    let busy_ms = if options.client.is_some() {
                        // Busy time is the clock delta: calls plus
                        // retries, backoff pauses, and abandoned calls
                        // clipped at the deadline.
                        clock.now_ms() - clock_before
                    } else if cache_cfg.is_some() {
                        // Cache without a client: no clock runs, so
                        // charge the recorder's underlying-call time
                        // (hits and coalesced waits are free).
                        recorded.stats().busy_ms - busy_before
                    } else {
                        let iface = registry.interface(&node.service)?;
                        outcome.calls as f64 * iface.stats.response_time_ms
                    };
                    let mut deg = node_degraded[preds_nodes[0].0];
                    if outcome.degraded {
                        degraded.insert(node.service.clone());
                        deg = true;
                    }
                    if options.adaptive {
                        memo.insert(
                            node.atom.clone(),
                            StageMemo {
                                service: node.service.clone(),
                                outputs: outcome.results.clone(),
                                calls: outcome.calls,
                                busy_ms,
                                failed: outcome.degraded,
                            },
                        );
                    }
                    (input.len(), outcome.results, outcome.calls, busy_ms, deg)
                }
                PlanNode::ParallelJoin(_) => {
                    let left = outputs[preds_nodes[0].0].clone();
                    let right = outputs[preds_nodes[1].0].clone();
                    let left_deg = node_degraded[preds_nodes[0].0];
                    let right_deg = node_degraded[preds_nodes[1].0];
                    let n_in = left.len() + right.len();
                    let out =
                        ops.parallel_join(id, left, right, (left_deg, right_deg), &mut join_stats)?;
                    (n_in, out, 0, 0.0, left_deg || right_deg)
                }
            };
        total_calls += calls;
        busy[id.0] = busy_ms;
        node_degraded[id.0] = deg;
        trace.record(TraceEvent {
            node: id,
            label: plan.node(id)?.label(),
            tuples_in,
            tuples_out: out.len(),
            calls,
            busy_ms,
        });
        outputs[id.0] = out;

        // Adaptive checkpoint: fresh service stages and parallel joins
        // compare their observed output cardinality against the
        // plan-time estimate. Each checkpoint fires at most once across
        // restarts, and only while some atom is still unexecuted — a
        // fully executed plan has nothing left to re-plan.
        if let Some(est) = &estimates {
            let stage_key = match plan.node(id)? {
                PlanNode::Service(s) => Some(format!("svc:{}", s.atom)),
                PlanNode::ParallelJoin(_) => {
                    let atoms: Vec<String> = plan.atoms_at(id).into_iter().collect();
                    Some(format!("join:{}", atoms.join(",")))
                }
                _ => None,
            };
            if let Some(key) = stage_key {
                if checked.insert(key) && memo.len() < plan.query.atoms.len() {
                    let est_out = est.annotation(id).tout;
                    let obs = outputs[id.0].len() as f64;
                    if drift_ratio(obs, est_out) >= options.adaptive_threshold {
                        if let Some(re) =
                            attempt_replan(plan, registry, &options, est, memo, (est_out, obs))
                        {
                            if re.plan != *plan {
                                if let Some(svc) = trigger_service(plan, id) {
                                    if let Ok(rec) = registry.service(&svc) {
                                        rec.note_replan();
                                    }
                                }
                                return Ok(PassOutcome::Replan(re.plan));
                            }
                            // Same plan under the promoted statistics:
                            // later checkpoints compare against the
                            // refreshed estimates.
                            estimates = Some(re.annotated);
                        }
                    }
                }
            }
        }
    }

    // Critical path over the DAG with the measured busy times.
    let mut finish = vec![0.0f64; plan.len()];
    for id in order {
        let start = plan
            .predecessors(id)
            .iter()
            .map(|p| finish[p.0])
            .fold(0.0f64, f64::max);
        finish[id.0] = start + busy[id.0];
    }

    Ok(PassOutcome::Done(ExecutionResult {
        results: outputs[plan.output().0].clone(),
        trace,
        critical_ms: finish[plan.output().0],
        total_calls,
        degraded: degraded.into_iter().collect(),
        join_stats,
        replanned: None,
        replans: 0,
    }))
}

/// The service a checkpoint's re-plan is attributed to: the stage's own
/// service, or for a join the lexicographically-first service among its
/// input atoms.
fn trigger_service(plan: &QueryPlan, id: NodeId) -> Option<String> {
    match plan.node(id) {
        Ok(PlanNode::Service(s)) => Some(s.service.clone()),
        Ok(PlanNode::ParallelJoin(_)) => plan
            .atoms_at(id)
            .iter()
            .filter_map(|alias| {
                plan.query
                    .atoms
                    .iter()
                    .find(|a| &a.alias == alias)
                    .map(|a| a.service.clone())
            })
            .min(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_optimizer::{optimize, CostMetric};
    use seco_query::builder::running_example;
    use seco_query::evaluate_oracle;
    use seco_services::domains::entertainment;
    use seco_services::ClientConfig;

    #[test]
    fn executes_the_optimized_running_example() {
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        reg.reset_stats();
        let result = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        assert!(result.total_calls > 0);
        assert!(result.critical_ms > 0.0);
        // Every emitted combination carries all three atoms.
        for c in &result.results {
            assert_eq!(c.arity(), 3);
        }
        // Trace covers every node.
        assert_eq!(result.trace.events.len(), best.plan.len());
        // The registry recorders agree with the engine's count.
        assert_eq!(reg.total_stats().calls as usize, result.total_calls);
    }

    #[test]
    fn adaptive_with_accurate_statistics_changes_nothing() {
        // When the declared statistics are right, no checkpoint
        // deviates: the adaptive run must replay the non-adaptive run
        // exactly — results, trace, virtual time, and call counts.
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        let baseline = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        reg.reset_stats();
        reg.reset_observed();
        let adaptive =
            execute_plan(&best.plan, &reg, EngineConfig::default().adaptive(true)).unwrap();
        assert_eq!(adaptive.results, baseline.results);
        assert_eq!(adaptive.critical_ms, baseline.critical_ms);
        assert_eq!(adaptive.total_calls, baseline.total_calls);
        assert_eq!(adaptive.replans, 0);
        assert!(adaptive.replanned.is_none());
    }

    #[test]
    fn engine_results_are_a_subset_of_the_oracle() {
        // E16: soundness — everything the engine emits is a genuine
        // query answer.
        let reg = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let oracle = evaluate_oracle(&q, &reg).unwrap();
        let best = optimize(&q, &reg, CostMetric::RequestCount).unwrap();
        let result = execute_plan(&best.plan, &reg, EngineConfig::default()).unwrap();
        for c in &result.results {
            let found = oracle.iter().any(|o| {
                q.atoms
                    .iter()
                    .all(|a| o.component(&a.alias) == c.component(&a.alias))
            });
            assert!(
                found,
                "engine emitted a combination the oracle does not contain: {c}"
            );
        }
    }

    #[test]
    fn selection_nodes_filter() {
        use seco_model::{Comparator, Value};
        use seco_plan::{PlanNode, QueryPlan, SelectionNode, ServiceNode};
        use seco_query::QueryBuilder;
        let reg = seco_services::domains::travel::build_registry(5).unwrap();
        let q = QueryBuilder::new()
            .atom("C", "Conference1")
            .atom("W", "Weather1")
            .pattern("Forecast", "C", "W")
            .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
            .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
            .build()
            .unwrap();
        let mut p = QueryPlan::new(q.clone());
        let c = p.add(PlanNode::Service(ServiceNode::new("C", "Conference1")));
        let w = p.add(PlanNode::Service(ServiceNode::new("W", "Weather1")));
        let s = p.add(PlanNode::Selection(
            SelectionNode::new(vec![q.selections[1].clone()]).with_selectivity(0.25),
        ));
        p.connect(p.input(), c).unwrap();
        p.connect(c, w).unwrap();
        p.connect(w, s).unwrap();
        p.connect(s, p.output()).unwrap();
        let result = execute_plan(&p, &reg, EngineConfig::default()).unwrap();
        // The Weather pipe stage filters eagerly ("immediately after
        // the service call that makes the predicate evaluable", §3.2),
        // so the explicit selection node sees pre-filtered tuples and
        // is an idempotent re-check.
        let w_event = result.trace.event(w).unwrap();
        assert_eq!(w_event.tuples_in, 20, "20 conferences pipe into Weather");
        assert!(
            w_event.tuples_out < 20,
            "the temperature predicate discards many"
        );
        let sel_event = result.trace.event(s).unwrap();
        assert_eq!(sel_event.tuples_in, w_event.tuples_out);
        assert_eq!(sel_event.tuples_out, sel_event.tuples_in);
        assert_eq!(result.results.len(), sel_event.tuples_out);
        // All survivors really are warm.
        for c in &result.results {
            let w = c.component("W").unwrap();
            match w.atomic_at(2) {
                seco_model::Value::Int(t) => assert!(*t > 26),
                other => panic!("unexpected temperature {other:?}"),
            }
        }
    }

    #[test]
    fn degrade_mode_survives_a_downed_service() {
        use seco_services::synthetic::{DomainMap, SyntheticService};
        use std::sync::Arc;
        // Movie is hard down; Theatre and Restaurant are healthy.
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
        let healthy = entertainment::build_registry(1).unwrap();
        let best = optimize(&q, &healthy, CostMetric::RequestCount).unwrap();

        // Abort (the default) still surfaces the failure as an error.
        assert!(execute_plan(&best.plan, &reg, EngineConfig::default()).is_err());

        // Degrade completes, reporting the failed service.
        let opts = EngineConfig {
            failure_mode: FailureMode::Degrade,
            ..Default::default()
        };
        let result = execute_plan(&best.plan, &reg, opts).unwrap();
        assert!(result.is_degraded());
        assert_eq!(result.degraded, vec!["Movie1".to_string()]);
    }

    #[test]
    fn resilient_client_recovers_transient_faults_and_stays_deterministic() {
        use seco_services::FaultProfile;
        // Transient-only faults: with enough retries the run must
        // produce exactly the clean run's answers.
        let faults = FaultProfile {
            seed: 77,
            transient_rate: 0.3,
            spike_rate: 0.0,
            spike_ms: 0.0,
            empty_rate: 0.0,
            outage: None,
        };
        let flaky = entertainment::build_registry_with_faults(1, faults).unwrap();
        let clean = entertainment::build_registry(1).unwrap();
        let q = running_example();
        let best = optimize(&q, &clean, CostMetric::RequestCount).unwrap();
        let baseline = execute_plan(&best.plan, &clean, EngineConfig::default()).unwrap();

        let cfg = ClientConfig {
            retries: 6,
            seed: 9,
            ..Default::default()
        };
        let opts = EngineConfig {
            failure_mode: FailureMode::Degrade,
            client: Some(cfg),
            ..Default::default()
        };
        flaky.reset_stats();
        let run_a = execute_plan(&best.plan, &flaky, opts).unwrap();
        let stats_a = flaky.total_stats();
        assert_eq!(
            run_a.results, baseline.results,
            "retries must hide transient faults"
        );
        assert!(run_a.degraded.is_empty());
        assert!(
            stats_a.retries > 0,
            "the flaky profile must have triggered retries"
        );
        // Retries consume virtual time, so the resilient run is slower.
        assert!(run_a.critical_ms > baseline.critical_ms);

        // Identical seeds ⇒ identical runs, counters included.
        let flaky2 = entertainment::build_registry_with_faults(1, faults).unwrap();
        let run_b = execute_plan(&best.plan, &flaky2, opts).unwrap();
        let stats_b = flaky2.total_stats();
        assert_eq!(run_a.results, run_b.results);
        assert_eq!(run_a.critical_ms, run_b.critical_ms);
        assert_eq!(stats_a.retries, stats_b.retries);
        assert_eq!(stats_a.timeouts, stats_b.timeouts);
    }

    #[test]
    fn diamond_plans_merge_shared_ancestry() {
        use seco_model::{Comparator, Value};
        use seco_plan::{Completion, Invocation, JoinSpec, PlanNode, QueryPlan, ServiceNode};
        use seco_query::QueryBuilder;
        let reg = seco_services::domains::travel::build_registry(5).unwrap();
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
        let result = execute_plan(
            &p,
            &reg,
            EngineConfig {
                join_k: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!result.results.is_empty());
        for combo in &result.results {
            // C appears once, not twice.
            assert_eq!(combo.arity(), 3);
            assert_eq!(combo.atoms.iter().filter(|a| *a == "C").count(), 1);
            // The flight and hotel really belong to the same conference
            // city (the SameTrip predicate held).
            let fl = combo.component("F").unwrap();
            let ht = combo.component("H").unwrap();
            let fs = &reg.interface("Flight1").unwrap().schema;
            let hs = &reg.interface("Hotel1").unwrap().schema;
            assert_eq!(
                fl.first_value_at(fs, &seco_model::AttributePath::atomic("To"))
                    .unwrap(),
                ht.first_value_at(hs, &seco_model::AttributePath::atomic("City"))
                    .unwrap()
            );
        }
    }
}
