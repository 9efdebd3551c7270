//! Morsel-executor determinism, end to end.
//!
//! The scheduler contract is byte-identity: at any `--exec-workers`
//! count, the executor must produce exactly the output of the serial
//! path — same tuples, same order, same join counters — because tile
//! decomposition only fans out each tile's row loop and a deterministic
//! ordered reducer stitches the segments back in row order. These
//! tests pin the contract on the two flagship experiments (E1's travel
//! plan and E10's running example) and on seeded 3-atom stars and
//! chains, and prove that no pool thread outlives the [`SharedState`]
//! that owns it.

use search_computing::prelude::*;
use search_computing::query::builder::running_example;
use search_computing::services::domains::{entertainment, travel};
use seco_bench::{chain_scenario, star_scenario};

/// The E1 query (Fig. 2/3): Conference × Weather × Flight × Hotel.
fn e1_query() -> Query {
    QueryBuilder::new()
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
        .unwrap()
}

/// Runs `query` at each worker count, with parallel joins stopping
/// after `join_k` results (0 = no limit), and asserts every output is
/// byte-identical to the serial (`workers=1`) reference — results and
/// join counters alike.
fn assert_identical_across_workers(registry: &ServiceRegistry, query: &Query, join_k: usize) {
    let best = optimize(query, registry, CostMetric::RequestCount).unwrap();
    let config = |w: usize| EngineConfig::default().exec_workers(w).join_k(join_k);

    let reference = execute_plan(&best.plan, registry, config(1)).unwrap();
    assert!(!reference.results.is_empty(), "reference run must answer");

    for workers in [2usize, 8] {
        let out = execute_plan(&best.plan, registry, config(workers)).unwrap();
        assert_eq!(
            out.results, reference.results,
            "results diverged at {workers} workers"
        );
        assert_eq!(
            out.join_stats, reference.join_stats,
            "join counters diverged at {workers} workers"
        );
    }
}

#[test]
fn e1_travel_plan_is_byte_identical_across_exec_workers() {
    let registry = travel::build_registry(5).unwrap();
    assert_identical_across_workers(&registry, &e1_query(), 0);
}

#[test]
fn e10_running_example_is_byte_identical_across_exec_workers() {
    let registry = entertainment::build_registry(1).unwrap();
    assert_identical_across_workers(&registry, &running_example(), 0);
}

#[test]
fn seeded_stars_are_byte_identical_across_workers() {
    for seed in [1, 5, 42] {
        for join_k in [0, 10] {
            let (registry, query) = star_scenario(3, seed);
            assert_identical_across_workers(&registry, &query, join_k);
        }
    }
}

#[test]
fn seeded_chains_are_byte_identical_across_workers() {
    for seed in [1, 5, 42] {
        for join_k in [0, 10] {
            let (registry, query) = chain_scenario(3, seed);
            assert_identical_across_workers(&registry, &query, join_k);
        }
    }
}

#[test]
fn no_worker_threads_outlive_shared_state_shutdown() {
    let (registry, query) = star_scenario(3, 1);
    let shared = SharedState::for_daemon(4);
    let pool = shared
        .exec_pool()
        .expect("daemon state owns a pool")
        .clone();
    assert_eq!(pool.threads_alive(), 4);
    // Plan and execute as the daemon does: the planner's topology
    // fan-out runs as morsels on the shared pool, and the executor's
    // join kernels get the same pool (the star's 4x4 tiles stay below
    // the kernel's morsel threshold, so they join serially).
    let mut optimizer = Optimizer::new(&registry, CostMetric::RequestCount);
    optimizer.workers = 4;
    optimizer.pool = Some(pool.clone());
    let best = optimizer.optimize(&query).unwrap();
    let opts = EngineConfig::default().exec_workers(4).cache_shards(4);
    let out = execute_plan_shared(&best.plan, &registry, opts, &shared).unwrap();
    assert!(!out.results.is_empty());
    assert!(pool.stats().morsels > 0, "the pool ran work");
    shared.shutdown();
    assert_eq!(pool.threads_alive(), 0, "every worker joins on shutdown");
    // Idempotent: a second shutdown (or the drop) is a no-op.
    shared.shutdown();
    assert_eq!(pool.threads_alive(), 0);
}
