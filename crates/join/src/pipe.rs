//! Pipe joins (§4.2.1): sequential composition of service invocations.
//!
//! "Pipe joins use the fact that the access patterns of certain search
//! services accept input parameters. […] A subset of the attributes of
//! these tuples is the set of join attributes of a pipe join, whose
//! values are passed, or 'piped', to another service that appears later
//! in the sequence."
//!
//! The recommended execution is nested-loop with rectangular completion:
//! the same number of fetches `F` is retrieved from the downstream
//! service for each tuple flowing out of the upstream one (§4.5).

use std::collections::BTreeMap;

use seco_model::{BitMask, ColumnRef, Comparator, CompositeTuple, Symbol, Value};
use seco_query::feasibility::{BindingSource, IoDependency};
use seco_query::predicate::{satisfies_available, ResolvedPredicate, SchemaMap};
use seco_query::{CompiledPredicates, EvalScratch};
use seco_services::invocation::Request;
use seco_services::Service;

use crate::error::JoinError;
use crate::index::JoinStats;

/// Outcome of a pipe-join stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeOutcome {
    /// Extended composites, in input order (then service rank order).
    pub results: Vec<CompositeTuple>,
    /// Request-responses issued to the downstream service.
    pub calls: usize,
    /// Sum of the responses' reported elapsed times, in virtual ms.
    /// Cache hits and coalesced waits report 0, so under a caching
    /// fetch stack this is the stage's *residual* service time.
    pub busy_ms: f64,
    /// True when failure tolerance absorbed at least one service error:
    /// `results` is then a (possibly empty) partial answer.
    pub degraded: bool,
    /// Join-kernel work counters. Pipe stages move `predicate_evals`
    /// and the columnar-plane counters (`columns_scanned`,
    /// `batch_evals`, `rows_materialized`); index counters stay zero.
    pub stats: JoinStats,
}

/// A configured pipe-join stage: extends each input composite with the
/// matching tuples of one downstream service (the query atom `atom`).
///
/// Replaces the previous nine-argument free function with a parameter
/// struct the executors fill in once and run per batch of inputs.
///
/// * `bindings` — the atom's input bindings from the feasibility
///   analysis (constants and pipes);
/// * `query_inputs` — values of the `INPUT` variables;
/// * `fetches` — chunks fetched per input composite (the fetch factor
///   `F` of §5.5);
/// * `keep_first` — keep only the first (best-ranked) surviving result
///   per input composite (the §5.6 `Restaurant` choice);
/// * `tolerate_failures` — graceful degradation: a service error stops
///   the fetch loop for the failing input composite (marking the
///   outcome degraded) instead of aborting the whole stage. Pairs with
///   the resilience middleware: once a breaker opens, the remaining
///   inputs short-circuit instantly and the stage returns whatever was
///   joined before the outage.
///
/// Without `keep_first`, response chunks with typed columns are filtered
/// whole by a vectorized kernel, and chunks with no survivors never
/// materialize their row view at all.
pub struct PipeJoin<'a> {
    /// Alias of the query atom being joined in.
    pub atom: &'a str,
    /// Input bindings of the atom (constants and pipes).
    pub bindings: &'a [&'a IoDependency],
    /// Values of the query's `INPUT` variables.
    pub query_inputs: &'a BTreeMap<String, Value>,
    /// Predicates to check on each candidate composite.
    pub predicates: &'a [ResolvedPredicate],
    /// Alias → schema map for value extraction.
    pub schemas: &'a SchemaMap<'a>,
    /// Fetch factor `F` (chunks per input composite), min 1.
    pub fetches: usize,
    /// Keep only the best-ranked surviving result per input.
    pub keep_first: bool,
    /// Absorb service failures into a degraded partial outcome.
    pub tolerate_failures: bool,
}

impl PipeJoin<'_> {
    /// Runs the stage over a batch of input composites.
    pub fn run(
        &self,
        inputs: &[CompositeTuple],
        service: &dyn Service,
    ) -> Result<PipeOutcome, JoinError> {
        let fetches = self.fetches.max(1);
        let mut results = Vec::new();
        let mut calls = 0usize;
        let mut busy_ms = 0.0f64;
        let mut degraded = false;
        let mut stats = JoinStats::default();

        // Compile the predicate set once per stage run. The compiled
        // evaluator mirrors `satisfies_available` exactly; when the set
        // does not compile (unknown atom, unresolvable path) the
        // interpreted path below keeps the original error behavior.
        let compiled = CompiledPredicates::compile(self.predicates, self.schemas);
        let mut scratch = EvalScratch::default();
        let atom_sym = Symbol::intern(self.atom);
        let mut mask = BitMask::default();

        for input in inputs {
            // Batch plan for this input shape: the input composite is
            // the fixed side, the fetched atom the varying side. Only
            // without `keep_first` — its early exit stops evaluation
            // mid-chunk, which a whole-chunk kernel cannot reproduce.
            let batch_plan = if self.keep_first {
                None
            } else {
                compiled
                    .as_ref()
                    .and_then(|c| c.batch_plan(&input.atoms, std::slice::from_ref(&atom_sym)))
            };
            // Assemble the request for this input composite.
            let mut request = Request::unbound();
            for dep in self.bindings {
                match &dep.source {
                    BindingSource::Constant { operand, op } => {
                        let value = operand
                            .resolve(self.query_inputs)
                            .map_err(JoinError::Query)?;
                        if *op == Comparator::Eq {
                            request = request.bind(dep.input.clone(), value);
                        } else {
                            request = request.constrain(dep.input.clone(), *op, value);
                        }
                    }
                    BindingSource::Piped {
                        from_atom,
                        from_path,
                    } => {
                        let schema = self.schemas.get(from_atom).ok_or_else(|| {
                            JoinError::Query(seco_query::QueryError::UnknownAtom(from_atom.clone()))
                        })?;
                        let tuple = input.component(from_atom).ok_or_else(|| {
                            JoinError::Query(seco_query::QueryError::UnknownAtom(from_atom.clone()))
                        })?;
                        let value = tuple
                            .first_value_at(schema, from_path)
                            .map_err(JoinError::Model)?;
                        request = request.bind(dep.input.clone(), value);
                    }
                }
            }

            // Fetch F chunks (rectangular completion per input tuple).
            'chunks: for c in 0..fetches {
                let resp = match service.fetch(&request.at_chunk(c)) {
                    Ok(resp) => resp,
                    Err(error) if self.tolerate_failures => {
                        // This input composite loses its extension; the
                        // stage carries on with the remaining inputs.
                        let _ = error;
                        degraded = true;
                        break 'chunks;
                    }
                    Err(error) => return Err(JoinError::Service(error)),
                };
                calls += 1;
                busy_ms += resp.elapsed_ms;
                let has_more = resp.has_more();
                let body = resp.body();
                let mut handled = false;
                if let (Some(plan), Some(cc)) = (&batch_plan, body.columns()) {
                    // Body-backed columns only: every plan column must
                    // come off the fetched atom's typed columns.
                    let cols: Option<Vec<ColumnRef<'_>>> = plan
                        .columns()
                        .iter()
                        .map(|(a, f)| if *a == atom_sym { cc.column(*f) } else { None })
                        .collect();
                    if let Some(cols) = cols.filter(|_| !cc.is_empty()) {
                        mask.reset_ones(cc.len());
                        if plan.eval_mask(Some(input), &cols, &mut mask) {
                            stats.predicate_evals += cc.len() as u64;
                            stats.batch_evals += 1;
                            stats.columns_scanned += cols.len() as u64;
                            if !mask.none_set() {
                                // Only surviving chunks pay the row view.
                                if !body.rows_ready() {
                                    stats.rows_materialized += body.len() as u64;
                                }
                                let tuples = body.tuples();
                                for j in mask.iter_ones() {
                                    results.push(input.extend_with(self.atom, tuples[j].clone()));
                                }
                            }
                            handled = true;
                        }
                    }
                }
                if !handled {
                    if body.is_columnar() && !body.rows_ready() && !body.is_empty() {
                        stats.rows_materialized += body.len() as u64;
                    }
                    for tuple in resp.tuples() {
                        let candidate = input.extend_with(self.atom, tuple.clone());
                        stats.predicate_evals += 1;
                        let keep = match &compiled {
                            Some(c) => c.eval(&candidate, &mut scratch)?,
                            None => satisfies_available(self.predicates, &candidate, self.schemas)?,
                        };
                        if keep {
                            results.push(candidate);
                            if self.keep_first {
                                // This input has its extension: stop its
                                // fetch budget here and move to the next
                                // input — no further chunks are issued
                                // for a satisfied composite.
                                break 'chunks;
                            }
                        }
                    }
                }
                if !has_more {
                    break;
                }
            }
        }

        Ok(PipeOutcome {
            results,
            calls,
            busy_ms,
            degraded,
            stats,
        })
    }
}

/// Executes one pipe-join stage (strict mode: any service error aborts).
///
/// Convenience wrapper over [`PipeJoin`] kept for call sites that do
/// not need degradation.
#[allow(clippy::too_many_arguments)]
pub fn pipe_join(
    inputs: &[CompositeTuple],
    atom: &str,
    service: &dyn Service,
    bindings: &[&IoDependency],
    query_inputs: &BTreeMap<String, Value>,
    predicates: &[ResolvedPredicate],
    schemas: &SchemaMap<'_>,
    fetches: usize,
    keep_first: bool,
) -> Result<PipeOutcome, JoinError> {
    PipeJoin {
        atom,
        bindings,
        query_inputs,
        predicates,
        schemas,
        fetches,
        keep_first,
        tolerate_failures: false,
    }
    .run(inputs, service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_model::AttributePath;
    use seco_query::builder::running_example;
    use seco_query::feasibility::analyze;
    use seco_query::predicate::resolve_predicates;
    use seco_services::domains::entertainment;
    use seco_services::invocation::Request;

    /// Fetches the first theatre chunk and pipes it into Restaurant.
    fn setup_theatre_inputs(reg: &seco_services::ServiceRegistry) -> Vec<CompositeTuple> {
        let theatre = reg.service("Theatre1").unwrap();
        let req = Request::unbound()
            .bind(
                AttributePath::atomic("UAddress"),
                Value::text("via Golgi 42"),
            )
            .bind(AttributePath::atomic("UCity"), Value::text("Milano"))
            .bind(AttributePath::atomic("UCountry"), Value::text("country-0"));
        use seco_services::Service as _;
        theatre
            .fetch(&req)
            .unwrap()
            .shared_tuples()
            .into_iter()
            .map(|t| CompositeTuple::single("T", t))
            .collect()
    }

    #[test]
    fn pipes_theatre_addresses_into_restaurant() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let joins = query.expanded_joins(&reg).unwrap();
        let predicates = resolve_predicates(&query, &joins).unwrap();
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        assert_eq!(inputs.len(), 5);

        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");
        // Join predicates referencing M are skipped (M not present);
        // address equalities hold by construction of the pipe.
        let out = pipe_join(
            &inputs,
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &predicates,
            &schemas,
            1,
            true,
        )
        .unwrap();
        // One call per theatre.
        assert_eq!(out.calls, 5);
        // keep_first: at most one restaurant per theatre; DinnerPlace
        // selectivity keeps roughly 40% of them.
        assert!(out.results.len() <= 5);
        for r in &out.results {
            assert_eq!(r.arity(), 2);
            let t = r.component("T").unwrap();
            let rr = r.component("R").unwrap();
            let tschema = &reg.interface("Theatre1").unwrap().schema;
            let rschema = &reg.interface("Restaurant1").unwrap().schema;
            // The pipe carried the theatre address into the restaurant
            // lookup (echoed by the service).
            assert_eq!(
                t.first_value_at(tschema, &AttributePath::atomic("TAddress"))
                    .unwrap(),
                rr.first_value_at(rschema, &AttributePath::atomic("UAddress"))
                    .unwrap()
            );
        }
    }

    #[test]
    fn keep_first_caps_results_per_input() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let predicates = Vec::new(); // no filtering: count raw results
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");

        let all = pipe_join(
            &inputs,
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &predicates,
            &schemas,
            1,
            false,
        )
        .unwrap();
        let first_only = pipe_join(
            &inputs,
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &predicates,
            &schemas,
            1,
            true,
        )
        .unwrap();
        assert!(first_only.results.len() <= inputs.len());
        assert!(all.results.len() >= first_only.results.len());
        // Non-empty restaurants return a whole chunk (5) vs 1.
        if !first_only.results.is_empty() {
            assert!(all.results.len() > first_only.results.len());
        }
    }

    #[test]
    fn fetch_factor_multiplies_calls() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");
        let out = pipe_join(
            &inputs,
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &[],
            &schemas,
            3,
            false,
        )
        .unwrap();
        // Restaurants hold 5 = one chunk, so has_more=false stops the
        // fetch loop after one call per input; empty answers also stop
        // after one call. Calls stay at one per input here.
        assert_eq!(out.calls, 5);
    }

    #[test]
    fn tolerant_stage_degrades_instead_of_aborting() {
        use seco_services::FaultProfile;
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let mut schemas = SchemaMap::new();
        for a in &query.atoms {
            schemas.insert(a.alias.clone(), &reg.interface(&a.service).unwrap().schema);
        }
        let inputs = setup_theatre_inputs(&reg);
        let bindings = report.bindings_of("R");
        // A restaurant service that is hard-down from the start.
        let downed = seco_services::SyntheticService::new(
            entertainment::restaurant_interface(),
            seco_services::DomainMap::new(),
            3,
        )
        .with_fault_profile(FaultProfile {
            outage: Some((0, u64::MAX)),
            ..FaultProfile::none()
        });
        let stage = |tolerate| PipeJoin {
            atom: "R",
            bindings: &bindings,
            query_inputs: &query.inputs,
            predicates: &[],
            schemas: &schemas,
            fetches: 1,
            keep_first: false,
            tolerate_failures: tolerate,
        };
        let strict = stage(false).run(&inputs, &downed);
        assert!(matches!(strict, Err(JoinError::Service(_))));
        let tolerant = stage(true).run(&inputs, &downed).unwrap();
        assert!(tolerant.degraded);
        assert!(tolerant.results.is_empty());
        assert_eq!(
            tolerant.calls, 0,
            "failed fetches are not counted as request-responses"
        );
        // A healthy service through the same stage is not degraded.
        let healthy = reg.service("Restaurant1").unwrap();
        let ok = stage(true).run(&inputs, healthy.as_ref()).unwrap();
        assert!(!ok.degraded);
    }

    #[test]
    fn empty_inputs_produce_no_calls() {
        let reg = entertainment::build_registry(3).unwrap();
        let query = running_example();
        let report = analyze(&query, &reg).unwrap();
        let schemas = SchemaMap::new();
        let restaurant = reg.service("Restaurant1").unwrap();
        let bindings = report.bindings_of("R");
        let out = pipe_join(
            &[],
            "R",
            restaurant.as_ref(),
            &bindings,
            &query.inputs,
            &[],
            &schemas,
            1,
            false,
        )
        .unwrap();
        assert_eq!(out.calls, 0);
        assert!(out.results.is_empty());
    }
}
