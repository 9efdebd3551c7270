//! Long-lived, cross-request execution state.
//!
//! A one-shot CLI run builds its per-service fetch stacks — the
//! resilient [`ServiceClient`] (one circuit breaker per service) under
//! the sharded, request-coalescing [`CachingService`] — from scratch,
//! uses them for a single plan, and throws them away. Those are
//! exactly the assets a long-running daemon wants to keep: warm
//! response caches, accumulated breaker state, and a stable virtual
//! timeline. [`SharedState`] owns them behind `Arc`s so any number of
//! concurrent query sessions can execute against the same stacks, and
//! every cache hit earned by one request benefits the next.
//!
//! The state also owns the optional shared [`seco_exec::ExecPool`]:
//! every thread a daemon execution needs — the morsel workers of the
//! join kernels — lives exactly as long as this value. Dropping it (or
//! calling [`SharedState::shutdown`]) stops and joins the pool's
//! workers — nothing spawned on behalf of an execution can outlive the
//! engine state that requested it.
//!
//! Accounting caveat: the virtual clock is shared too, so `busy_ms` /
//! `critical_ms` deltas measured by concurrent executions overlap on
//! one daemon-wide timeline. Results, call counts, and cache counters
//! stay exact; per-request virtual-time attribution is only meaningful
//! when requests run serially (a one-shot execution is unaffected — it
//! builds a private `SharedState` per pass).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use seco_exec::ExecPool;
use seco_services::{CachingService, CallRecorder, Service, ServiceClient, VirtualClock};

use crate::config::EngineConfig;

/// Cross-request execution state: per-service fetch stacks, the shared
/// virtual clock, and the daemon's work-stealing executor pool — one
/// pool shared by every session's join morsels. Cheap to share
/// (`Arc<SharedState>`), safe to use from concurrent sessions.
///
/// Stacks are built lazily from the *first* execution's
/// [`EngineConfig`] that touches each service; a daemon runs all
/// sessions under one config, so later executions find the stack
/// ready-made and warm.
pub struct SharedState {
    clock: Arc<VirtualClock>,
    pool: Option<Arc<ExecPool>>,
    stacks: Mutex<BTreeMap<String, Arc<dyn Service>>>,
}

impl SharedState {
    /// Fresh state with no executor pool: joins run serially, or on a
    /// pool local to the execution when `exec_workers > 1`.
    pub fn new() -> Self {
        SharedState {
            clock: VirtualClock::new(),
            pool: None,
            stacks: Mutex::new(BTreeMap::new()),
        }
    }

    /// Daemon-grade state: join morsels run on one work-stealing pool
    /// of `exec_workers` threads owned by this value and stopped when
    /// it drops. At `exec_workers = 1` executions take the exact serial
    /// join code path.
    pub fn for_daemon(exec_workers: usize) -> Self {
        SharedState {
            clock: VirtualClock::new(),
            pool: Some(Arc::new(ExecPool::new(exec_workers))),
            stacks: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The shared executor pool, when this state owns one.
    pub fn exec_pool(&self) -> Option<&Arc<ExecPool>> {
        self.pool.as_ref()
    }

    /// Number of prepared per-service stacks (diagnostics).
    pub fn stack_count(&self) -> usize {
        self.stacks.lock().len()
    }

    /// Stops the executor pool: queued work is drained, workers are
    /// joined, and further submissions are refused. Prepared stacks
    /// stay usable — demand fetches never depended on the pool.
    /// Idempotent; also implied by drop.
    pub fn shutdown(&self) {
        if let Some(pool) = &self.pool {
            pool.shutdown();
        }
    }

    /// Returns `service`'s prepared stack, building it on first use
    /// from `options`: the sharded cache when configured, over the
    /// resilient client when configured, over the bare recorder.
    pub(crate) fn stack_for(
        &self,
        service: &str,
        recorded: &Arc<CallRecorder>,
        options: &EngineConfig,
    ) -> Arc<dyn Service> {
        let mut stacks = self.stacks.lock();
        if let Some(stack) = stacks.get(service) {
            return stack.clone();
        }
        let mut stack: Arc<dyn Service> = recorded.clone();
        if let Some(cfg) = options.client {
            stack = Arc::new(
                ServiceClient::for_recorded(recorded.clone())
                    .config(cfg)
                    .virtual_clock(self.clock.clone())
                    .build(),
            );
        }
        if let Some((shards, capacity)) = options.fetch.cache() {
            stack = Arc::new(
                CachingService::sharded(stack, capacity, shards).with_recorder(recorded.clone()),
            );
        }
        stacks.insert(service.to_owned(), stack.clone());
        stack
    }
}

impl Default for SharedState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_are_built_once_per_service() {
        let state = SharedState::new();
        let registry =
            seco_services::domains::entertainment::build_registry(7).expect("registry builds");
        let recorded = registry.service("Movie1").expect("service exists");
        let options = EngineConfig::default().cache_shards(4);
        let a = state.stack_for("Movie1", &recorded, &options);
        let b = state.stack_for("Movie1", &recorded, &options);
        assert!(Arc::ptr_eq(&a, &b), "same stack on repeat lookup");
        assert_eq!(state.stack_count(), 1);
    }

    #[test]
    fn shutdown_stops_the_daemon_pool() {
        let state = SharedState::for_daemon(2);
        let pool = state.exec_pool().expect("daemon state has a pool");
        assert_eq!(pool.threads_alive(), 2);
        state.shutdown();
        assert_eq!(pool.threads_alive(), 0);
    }
}
