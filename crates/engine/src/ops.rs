//! The node operators of the executor.
//!
//! [`crate::executor`] walks the plan in topological order and
//! evaluates every node through the operators below — pipe-join
//! stages, selections, and parallel joins — with every join read at the
//! shape [`JoinShape::of`] derives from the plan; the executor itself
//! only schedules nodes, tracks degradation, and accounts time.

use std::collections::BTreeMap;
use std::sync::Arc;

use seco_exec::ExecPool;
use seco_join::executor::MemoryStream;
use seco_join::{score_order, JoinStats, ParallelJoinExecutor, PipeJoin, PipeOutcome, RankJoin};
use seco_model::{BitMask, Column, CompositeTuple, ServiceInterface};
use seco_plan::{NodeId, PlanNode, QueryPlan, SelectionNode, ServiceNode};
use seco_query::feasibility::analyze;
use seco_query::predicate::{
    resolve_predicates, satisfies_available, ResolvedPredicate, SchemaMap,
};
use seco_query::{CompiledPredicates, FeasibilityReport, IoDependency};
use seco_services::{Service, ServiceRegistry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::executor::FailureMode;
use crate::shared::SharedState;

/// How a binary parallel join reads its two buffered branches: the
/// nested-loop step `h` (chunks) of the left stream and the chunk size
/// each branch is re-chunked at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinShape {
    h: usize,
    left_chunk: usize,
    right_chunk: usize,
}

impl JoinShape {
    /// The shape of join node `id`, read off the nearest service
    /// upstream of each input: the left service's step parameter (1
    /// when it is not step-scored) and each service's chunk size (10
    /// when no service is identifiable).
    pub(crate) fn of(plan: &QueryPlan, registry: &ServiceRegistry, id: NodeId) -> JoinShape {
        let inputs = plan.predecessors(id);
        let left = nearest_service(plan, registry, inputs[0]);
        let right = nearest_service(plan, registry, inputs[1]);
        JoinShape {
            h: left.and_then(|i| i.decay.step_chunks()).unwrap_or(1),
            left_chunk: left.map_or(10, |i| i.stats.chunk_size),
            right_chunk: right.map_or(10, |i| i.stats.chunk_size),
        }
    }
}

/// The interface of the first service node met walking up `from`'s
/// leftmost ancestry.
fn nearest_service<'r>(
    plan: &QueryPlan,
    registry: &'r ServiceRegistry,
    from: NodeId,
) -> Option<&'r ServiceInterface> {
    let mut cursor = Some(from);
    while let Some(id) = cursor {
        if let Ok(PlanNode::Service(node)) = plan.node(id) {
            if let Ok(iface) = registry.interface(&node.service) {
                return Some(iface);
            }
        }
        cursor = plan.predecessors(id).first().copied();
    }
    None
}

/// Everything the operators of one plan execution share: the resolved
/// predicates, the alias → schema map, the feasibility bindings, the
/// engine options, and the morsel pool of the join kernels.
pub(crate) struct Operators<'a> {
    plan: &'a QueryPlan,
    registry: &'a ServiceRegistry,
    options: EngineConfig,
    report: FeasibilityReport,
    predicates: Vec<ResolvedPredicate>,
    schemas: SchemaMap<'a>,
    pool: Option<Arc<ExecPool>>,
}

impl<'a> Operators<'a> {
    /// Validates `plan` and resolves what its operators need. With
    /// `exec_workers > 1` the join kernels run morsels on `state`'s
    /// shared pool (or a pool local to this execution); at 1 they take
    /// their exact serial path. The ordered reducer keeps output
    /// byte-identical either way.
    pub(crate) fn new(
        plan: &'a QueryPlan,
        registry: &'a ServiceRegistry,
        options: EngineConfig,
        state: &SharedState,
    ) -> Result<Self, EngineError> {
        plan.validate()?;
        let report = analyze(&plan.query, registry)?;
        let joins = plan.query.expanded_joins(registry)?;
        let predicates = resolve_predicates(&plan.query, &joins)?;
        let mut schemas: SchemaMap<'a> = BTreeMap::new();
        for atom in &plan.query.atoms {
            schemas.insert(
                atom.alias.clone(),
                &registry.interface(&atom.service)?.schema,
            );
        }
        let pool = (options.exec_workers > 1).then(|| match state.exec_pool() {
            Some(p) => p.clone(),
            None => Arc::new(ExecPool::new(options.exec_workers)),
        });
        Ok(Operators {
            plan,
            registry,
            options,
            report,
            predicates,
            schemas,
            pool,
        })
    }

    fn degrade(&self) -> bool {
        self.options.failure_mode == FailureMode::Degrade
    }

    /// The pipe-join stage of service node `node` (§4.2.1).
    pub(crate) fn service_stage<'s>(&'s self, node: &'s ServiceNode) -> ServiceStage<'s> {
        ServiceStage {
            ops: self,
            node,
            bindings: self.report.bindings_of(&node.atom),
        }
    }

    /// Selection node `sel`, its predicates resolved against the query
    /// inputs.
    pub(crate) fn selection(&self, sel: &SelectionNode) -> Result<Selection<'_>, EngineError> {
        let inputs = &self.plan.query.inputs;
        let mut preds = Vec::with_capacity(sel.predicates.len() + sel.join_predicates.len());
        for p in &sel.predicates {
            preds.push(ResolvedPredicate::Selection {
                left: p.left.clone(),
                op: p.op,
                value: p.right.resolve(inputs)?,
            });
        }
        preds.extend(
            sel.join_predicates
                .iter()
                .cloned()
                .map(ResolvedPredicate::Join),
        );
        Ok(Selection { ops: self, preds })
    }

    /// Runs parallel-join node `id` (§4.2.2) over its two buffered
    /// branches: a true top-k rank join over score-sorted inputs when
    /// `rank_join` is on with a `join_k` target and no input is
    /// degraded; otherwise the tile-space join, passing a surviving
    /// branch through under [`FailureMode::Degrade`].
    ///
    /// The observed selectivity is fed back to the registry: every
    /// query pattern connecting the two branches is credited with the
    /// candidate pairs and the survivors.
    pub(crate) fn parallel_join(
        &self,
        id: NodeId,
        mut left: Vec<CompositeTuple>,
        mut right: Vec<CompositeTuple>,
        (left_degraded, right_degraded): (bool, bool),
        stats: &mut JoinStats,
    ) -> Result<Vec<CompositeTuple>, EngineError> {
        let PlanNode::ParallelJoin(spec) = self.plan.node(id)? else {
            unreachable!("join operators run on parallel-join nodes only");
        };
        let pairs = (left.len() * right.len()) as u64;
        let shape = JoinShape::of(self.plan, self.registry, id);
        let predicates: Vec<ResolvedPredicate> = spec
            .predicates
            .iter()
            .cloned()
            .map(ResolvedPredicate::Join)
            .collect();
        let join = ParallelJoinExecutor {
            predicates: &predicates,
            schemas: &self.schemas,
            invocation: spec.invocation,
            completion: spec.completion,
            h: shape.h,
            k: self.options.join_k,
            pool: self.pool.clone(),
        };
        let degrade = self.degrade();
        let rank = self.options.rank_join
            && self.options.join_k > 0
            && !(degrade && (left_degraded || right_degraded));
        if rank {
            // Branch materializations arrive in emission order.
            left.sort_by(score_order);
            right.sort_by(score_order);
        }
        let mut sl = MemoryStream::new(left, shape.left_chunk);
        let mut sr = MemoryStream::new(right, shape.right_chunk);
        let outcome = if rank {
            RankJoin { join, space: None }.run(&mut sl, &mut sr)?
        } else if degrade {
            join.run_with_degradation(&mut sl, &mut sr, left_degraded, right_degraded)?
        } else {
            join.run(&mut sl, &mut sr)?
        };
        stats.merge(&outcome.stats);

        let inputs = self.plan.predecessors(id);
        let left_atoms = self.plan.atoms_at(inputs[0]);
        let right_atoms = self.plan.atoms_at(inputs[1]);
        for p in &self.plan.query.patterns {
            let lr = left_atoms.contains(&p.from_atom) && right_atoms.contains(&p.to_atom);
            let rl = right_atoms.contains(&p.from_atom) && left_atoms.contains(&p.to_atom);
            if lr || rl {
                self.registry.note_join_observation(
                    &p.pattern,
                    pairs,
                    outcome.results.len() as u64,
                );
            }
        }
        Ok(outcome.results)
    }
}

/// A service node's pipe-join stage, ready to run over input batches.
pub(crate) struct ServiceStage<'s> {
    ops: &'s Operators<'s>,
    node: &'s ServiceNode,
    bindings: Vec<&'s IoDependency>,
}

impl ServiceStage<'_> {
    /// Extends each input composite with the node's service results,
    /// fetching `F` chunks per input (the node's fetch factor).
    pub(crate) fn run(
        &self,
        input: &[CompositeTuple],
        service: &dyn Service,
        stats: &mut JoinStats,
    ) -> Result<PipeOutcome, EngineError> {
        let ops = self.ops;
        let outcome = PipeJoin {
            atom: &self.node.atom,
            bindings: &self.bindings,
            query_inputs: &ops.plan.query.inputs,
            predicates: &ops.predicates,
            schemas: &ops.schemas,
            fetches: self.node.fetches as usize,
            keep_first: self.node.keep_first,
            tolerate_failures: ops.degrade(),
        }
        .run(input, service)?;
        stats.merge(&outcome.stats);
        Ok(outcome)
    }
}

/// A selection node with its resolved predicates.
pub(crate) struct Selection<'s> {
    ops: &'s Operators<'s>,
    preds: Vec<ResolvedPredicate>,
}

impl Selection<'_> {
    /// Keeps the input composites that satisfy the node's predicates.
    ///
    /// A uniform input (same atom signature on every composite) is
    /// filtered by one vectorized kernel over
    /// columns gathered from the composites; any failed precondition —
    /// or a value only the scalar path can decide — falls back to the
    /// interpreted per-composite check, which also reproduces its error
    /// behavior. Selection nodes never count `predicate_evals` (the
    /// pipe stages already charged the predicates), so the kernel only
    /// moves the columnar counters.
    pub(crate) fn run(
        &self,
        input: Vec<CompositeTuple>,
        stats: &mut JoinStats,
    ) -> Result<Vec<CompositeTuple>, EngineError> {
        let schemas = &self.ops.schemas;
        if input.len() > 1 && input.iter().all(|c| c.atoms == input[0].atoms) {
            if let Some(plan) = CompiledPredicates::compile(&self.preds, schemas)
                .and_then(|c| c.batch_plan(&[], &input[0].atoms))
            {
                if let Some(cols) = plan.gather_columns(&input) {
                    let refs: Vec<_> = cols.iter().map(Column::as_ref).collect();
                    let mut mask = BitMask::default();
                    mask.reset_ones(input.len());
                    if plan.eval_mask(None, &refs, &mut mask) {
                        stats.batch_evals += 1;
                        stats.columns_scanned += refs.len() as u64;
                        return Ok(input
                            .into_iter()
                            .enumerate()
                            .filter_map(|(i, c)| mask.get(i).then_some(c))
                            .collect());
                    }
                }
            }
        }
        let mut kept = Vec::new();
        for c in input {
            if satisfies_available(&self.preds, &c, schemas)? {
                kept.push(c);
            }
        }
        Ok(kept)
    }
}
