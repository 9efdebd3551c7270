//! Client-side response caching: sharded, coalescing, hash-keyed.
//!
//! Service calls are idempotent for a fixed request (the substrate
//! guarantees it), so an execution engine may memoize request-responses
//! instead of re-issuing them. This matters for chain topologies: in
//! `Movie → Theatre`, the theatre's inputs are the same constants for
//! every movie tuple, so all but the first request-response per chunk
//! are cache hits — which is also the quantitative content of the §5.3
//! *bound-is-better* intuition ("the service is faster in producing
//! results, and less memory is required to cache the data": fewer bound
//! inputs ⇒ more distinct binding sets ⇒ a bigger cache).
//!
//! Three properties distinguish this cache from a plain memo map:
//!
//! * **Structured keys** — a [`RequestKey`] is a 64-bit fingerprint
//!   computed directly over the request's chunk index, bindings, and
//!   range constraints. No string rendering, no per-lookup heap
//!   allocation; `Bindings`/`Ranges` are `BTreeMap`s, so the hash is
//!   independent of binding insertion order by construction.
//! * **Sharding** — entries are spread over N independently locked
//!   shards selected by the fingerprint, so parallel plan nodes stop
//!   serializing on one global lock.
//! * **Request coalescing** (singleflight) — when two threads miss on
//!   the same key simultaneously, one issues the underlying call and
//!   the others block on its published result, so fault-retry storms
//!   and diamond topologies never duplicate in-flight I/O. Coalesced
//!   waits are counted separately from hits.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};

use parking_lot::{Mutex, MutexGuard};

use seco_model::{ServiceInterface, Value};

use crate::error::ServiceError;
use crate::invocation::{ChunkResponse, Request, Service};
use crate::recorder::CallRecorder;

/// Default shard count when callers do not choose one.
pub const DEFAULT_SHARDS: usize = 8;

/// A 64-bit fingerprint identifying a request (chunk + bindings +
/// ranges), computed structurally without rendering the request to a
/// string. Two semantically equal requests — same chunk, same binding
/// map, same constraint map — produce the same key regardless of the
/// order bindings were inserted, because `Bindings` and `Ranges` are
/// ordered maps with a canonical iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey(u64);

impl RequestKey {
    /// Fingerprints a request.
    pub fn of(request: &Request) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        request.chunk.hash(&mut h);
        request.bindings.len().hash(&mut h);
        for (path, value) in &request.bindings {
            path.hash(&mut h);
            hash_value(value, &mut h);
        }
        request.ranges.len().hash(&mut h);
        for (path, (op, value)) in &request.ranges {
            path.hash(&mut h);
            op.hash(&mut h);
            hash_value(value, &mut h);
        }
        RequestKey(h.finish())
    }

    /// The raw 64-bit fingerprint.
    pub fn fingerprint(self) -> u64 {
        self.0
    }

    /// The shard this key selects among `shards` (≥ 1).
    pub fn shard(self, shards: usize) -> usize {
        (self.0 % shards.max(1) as u64) as usize
    }
}

/// Hashes a [`Value`] structurally. `Value` cannot derive `Hash`
/// (it contains `f64`); floats are hashed by their bit pattern, which
/// is sound here because `Value::float` already rejects `NaN` and the
/// synthetic substrate never produces `-0.0`.
fn hash_value<H: Hasher>(value: &Value, state: &mut H) {
    match value {
        Value::Null => 0u8.hash(state),
        Value::Bool(b) => {
            1u8.hash(state);
            b.hash(state);
        }
        Value::Int(i) => {
            2u8.hash(state);
            i.hash(state);
        }
        Value::Float(f) => {
            3u8.hash(state);
            f.to_bits().hash(state);
        }
        Value::Text(s) => {
            4u8.hash(state);
            s.hash(state);
        }
        Value::Date(d) => {
            5u8.hash(state);
            d.hash(state);
        }
    }
}

/// An in-flight underlying call other threads can wait on. Uses the
/// standard-library mutex/condvar pair (the `parking_lot` shim carries
/// no condvar): the leader publishes the call's result into `slot` and
/// wakes every waiter.
struct Flight {
    slot: StdMutex<Option<Result<ChunkResponse, ServiceError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            slot: StdMutex::new(None),
            done: Condvar::new(),
        })
    }

    fn publish(&self, result: Result<ChunkResponse, ServiceError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<ChunkResponse, ServiceError> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One shard: its cached entries and the calls currently in flight for
/// keys that hash here. A single lock covers both maps so the
/// hit / join-flight / become-leader decision is atomic. A cached
/// [`ChunkResponse`] is an `Arc` handle to its immutable body, so a hit
/// clones a pointer — O(1) in the size of the chunk, with no deep copy
/// inside or outside the critical section.
#[derive(Default)]
struct Shard {
    entries: HashMap<u64, ChunkResponse>,
    inflight: HashMap<u64, Arc<Flight>>,
}

/// A memoizing, coalescing decorator over any service.
pub struct CachingService {
    inner: Arc<dyn Service>,
    shards: Vec<Mutex<Shard>>,
    /// Maximum entries per shard (total capacity ÷ shard count).
    per_shard_capacity: usize,
    /// Total configured capacity (0 disables caching and coalescing).
    capacity: usize,
    recorder: Option<Arc<CallRecorder>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    /// Shard-lock acquisitions that found the lock held (a `try_lock`
    /// miss before blocking) — a direct, host-independent measure of
    /// lock contention for the sharding benchmarks.
    contended: AtomicU64,
}

impl CachingService {
    /// Wraps a service with a cache of at most `capacity` responses
    /// over [`DEFAULT_SHARDS`] shards (0 disables caching; insertion
    /// stops at capacity — the workloads here are short-lived, so no
    /// eviction policy is needed).
    pub fn new(inner: Arc<dyn Service>, capacity: usize) -> Self {
        Self::sharded(inner, capacity, DEFAULT_SHARDS)
    }

    /// Wraps a service with an explicit shard count (≥ 1).
    pub fn sharded(inner: Arc<dyn Service>, capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        CachingService {
            inner,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
            capacity,
            recorder: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Mirrors hits and coalesced waits into a [`CallRecorder`], so
    /// registry-level statistics see them next to the underlying calls.
    pub fn with_recorder(mut self, recorder: Arc<CallRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (actual inner calls that succeeded) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Requests that waited on another thread's in-flight call instead
    /// of issuing their own.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Shard-lock acquisitions that had to wait for another thread.
    pub fn lock_contentions(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Locks a shard, counting the acquisition as contended when the
    /// lock was already held.
    fn lock_shard<'a>(&'a self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        shard.try_lock().unwrap_or_else(|| {
            self.contended.fetch_add(1, Ordering::Relaxed);
            shard.lock()
        })
    }

    /// Entries currently cached, over all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().entries.is_empty())
    }
}

impl Service for CachingService {
    fn interface(&self) -> &ServiceInterface {
        self.inner.interface()
    }

    fn fetch(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
        if self.capacity == 0 {
            return self.inner.fetch(request);
        }
        let key = RequestKey::of(request);
        let shard = &self.shards[key.shard(self.shards.len())];

        enum Role {
            Hit(ChunkResponse),
            Waiter(Arc<Flight>),
            Leader(Arc<Flight>),
        }
        let role = {
            let mut guard = self.lock_shard(shard);
            if let Some(cached) = guard.entries.get(&key.fingerprint()) {
                // A cache hit costs no service time and no tuple copies:
                // the response re-shares the stored body.
                Role::Hit(cached.with_elapsed(0.0))
            } else if let Some(flight) = guard.inflight.get(&key.fingerprint()) {
                Role::Waiter(flight.clone())
            } else {
                let flight = Flight::new();
                guard.inflight.insert(key.fingerprint(), flight.clone());
                Role::Leader(flight)
            }
        };

        match role {
            Role::Hit(resp) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = &self.recorder {
                    rec.note_cache_hit();
                }
                Ok(resp)
            }
            Role::Waiter(flight) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = &self.recorder {
                    rec.note_coalesced();
                }
                // The leader pays the call's time; joining its flight
                // is free, like a hit, and shares the leader's body.
                flight.wait().map(|resp| resp.with_elapsed(0.0))
            }
            Role::Leader(flight) => {
                let result = self.inner.fetch(request);
                flight.publish(result.clone());
                let mut guard = self.lock_shard(shard);
                guard.inflight.remove(&key.fingerprint());
                if let Ok(resp) = &result {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    if guard.entries.len() < self.per_shard_capacity {
                        guard.entries.insert(key.fingerprint(), resp.clone());
                    }
                }
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{DomainMap, SyntheticService};
    use seco_model::{
        Adornment, AttributeDef, AttributePath, DataType, ScoreDecay, ServiceKind, ServiceSchema,
        ServiceStats, Value,
    };
    use std::sync::Arc;

    fn service() -> Arc<SyntheticService> {
        let schema = ServiceSchema::new(
            "S1",
            vec![
                AttributeDef::atomic("K", DataType::Text, Adornment::Input),
                AttributeDef::atomic("V", DataType::Text, Adornment::Output),
                AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
            ],
        )
        .unwrap();
        let iface = ServiceInterface::new(
            "S1",
            "S",
            schema,
            ServiceKind::Search,
            ServiceStats::new(20.0, 10, 40.0, 1.0).unwrap(),
            ScoreDecay::Linear,
        )
        .unwrap();
        Arc::new(SyntheticService::new(iface, DomainMap::new(), 3))
    }

    fn req(k: &str) -> Request {
        Request::unbound().bind(AttributePath::atomic("K"), Value::text(k))
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let inner = service();
        let cached = CachingService::new(inner.clone(), 64);
        let a = cached.fetch(&req("x")).unwrap();
        let b = cached.fetch(&req("x")).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!((cached.hits(), cached.misses()), (1, 1));
        assert_eq!(inner.calls_served(), 1, "the inner service was called once");
        // Hits are free.
        assert_eq!(b.elapsed_ms, 0.0);
        assert!(a.elapsed_ms > 0.0);
    }

    #[test]
    fn cache_hits_share_the_stored_body_without_copying() {
        // Regression test for the hit-path deep copy: a hit must be O(1)
        // in the response size, which means every hit hands out the SAME
        // body allocation — not a copy of its tuples.
        let inner = service();
        let recorder = CallRecorder::new(inner.clone());
        let cached = CachingService::new(inner, 64).with_recorder(recorder.clone());
        let miss = cached.fetch(&req("x")).unwrap();
        assert!(!miss.is_empty(), "fixture must produce a non-trivial chunk");
        let h1 = cached.fetch(&req("x")).unwrap();
        let h2 = cached.fetch(&req("x")).unwrap();
        assert!(
            Arc::ptr_eq(miss.body(), h1.body()) && Arc::ptr_eq(h1.body(), h2.body()),
            "hits must re-share the cached body allocation"
        );
        for (t1, t2) in miss.tuples().iter().zip(h1.tuples()) {
            assert!(Arc::ptr_eq(t1, t2), "tuple handles must be shared too");
        }
        // The data plane performed zero deep copies serving those hits.
        let stats = recorder.stats();
        assert_eq!((stats.clone_events, stats.bytes_cloned), (0, 0));
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn different_bindings_and_chunks_are_distinct_entries() {
        let cached = CachingService::new(service(), 64);
        cached.fetch(&req("x")).unwrap();
        cached.fetch(&req("y")).unwrap();
        cached.fetch(&req("x").at_chunk(1)).unwrap();
        assert_eq!(cached.misses(), 3);
        assert_eq!(cached.len(), 3);
        assert!(!cached.is_empty());
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let inner = service();
        let cached = CachingService::new(inner.clone(), 0);
        cached.fetch(&req("x")).unwrap();
        cached.fetch(&req("x")).unwrap();
        assert_eq!(cached.hits(), 0);
        assert_eq!(inner.calls_served(), 2);
    }

    #[test]
    fn chained_constant_bindings_collapse_to_one_call() {
        // The chain-topology scenario: the same constant-bound request
        // repeated once per upstream tuple.
        let inner = service();
        let cached = CachingService::new(inner.clone(), 16);
        for _ in 0..100 {
            cached.fetch(&req("fixed")).unwrap();
        }
        assert_eq!(inner.calls_served(), 1);
        assert_eq!(cached.hits(), 99);
    }

    #[test]
    fn range_constraints_participate_in_the_key() {
        use seco_model::Comparator;
        let cached = CachingService::new(service(), 16);
        let base = req("x");
        let constrained =
            req("x").constrain(AttributePath::atomic("K"), Comparator::Gt, Value::Int(3));
        cached.fetch(&base).unwrap();
        cached.fetch(&constrained).unwrap();
        assert_eq!(cached.misses(), 2, "different constraints must not collide");
    }

    #[test]
    fn request_keys_ignore_binding_insertion_order() {
        use seco_model::Comparator;
        let a = Request::unbound()
            .bind(AttributePath::atomic("A"), Value::text("1"))
            .bind(AttributePath::atomic("B"), Value::Int(2))
            .constrain(AttributePath::atomic("C"), Comparator::Gt, Value::Int(3))
            .constrain(AttributePath::atomic("D"), Comparator::Lt, Value::Int(4));
        let b = Request::unbound()
            .constrain(AttributePath::atomic("D"), Comparator::Lt, Value::Int(4))
            .constrain(AttributePath::atomic("C"), Comparator::Gt, Value::Int(3))
            .bind(AttributePath::atomic("B"), Value::Int(2))
            .bind(AttributePath::atomic("A"), Value::text("1"));
        assert_eq!(
            RequestKey::of(&a),
            RequestKey::of(&b),
            "semantically equal requests must hash identically"
        );
        assert_ne!(
            RequestKey::of(&a),
            RequestKey::of(&a.at_chunk(1)),
            "the chunk index is part of the key"
        );
        let narrower =
            a.clone()
                .constrain(AttributePath::atomic("C"), Comparator::Gt, Value::Int(9));
        assert_ne!(
            RequestKey::of(&a),
            RequestKey::of(&narrower),
            "constraint values are part of the key"
        );
    }

    #[test]
    fn entries_spread_over_shards() {
        let cached = CachingService::sharded(service(), 256, 4);
        assert_eq!(cached.shard_count(), 4);
        for i in 0..64 {
            cached.fetch(&req(&format!("k{i}"))).unwrap();
        }
        assert_eq!(cached.len(), 64);
        let populated = cached
            .shards
            .iter()
            .filter(|s| !s.lock().entries.is_empty())
            .count();
        assert!(
            populated >= 2,
            "64 distinct keys must land in more than one shard, got {populated}"
        );
    }

    #[test]
    fn racing_threads_coalesce_on_one_underlying_call() {
        use std::sync::Barrier;
        let inner = service();
        let cached = Arc::new(CachingService::new(inner.clone(), 64));
        let k = 8;
        let barrier = Arc::new(Barrier::new(k));
        std::thread::scope(|scope| {
            for _ in 0..k {
                let cached = cached.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    cached.fetch(&req("same")).unwrap();
                });
            }
        });
        assert_eq!(inner.calls_served(), 1, "exactly one underlying call");
        assert_eq!(
            cached.hits() + cached.coalesced() + cached.misses(),
            k as u64,
            "every request is a miss, a hit, or a coalesced wait"
        );
        assert_eq!(cached.misses(), 1);
    }
}
