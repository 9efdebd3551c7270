//! Call recording: the observables behind every cost metric.
//!
//! §5.1's metrics are all functions of what happened at the service
//! boundary: how many request-responses were issued per service, how
//! long each took, what they cost, and how many bytes came back. The
//! [`CallRecorder`] decorator wraps any [`Service`] and accumulates
//! exactly those quantities, so executors and experiments never need
//! service-specific instrumentation.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use seco_model::{ServiceInterface, ServiceStats};

use crate::error::ServiceError;
use crate::invocation::{ChunkResponse, Request, Service};
use crate::stats_accumulator::{request_binding_key, ObservedCardinality, StatsAccumulator};
use crate::wire::chunk_wire_size_body;

/// Accumulated statistics of one (wrapped) service.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CallStats {
    /// Request-responses issued (including failed ones).
    pub calls: u64,
    /// Request-responses that returned an error.
    pub failures: u64,
    /// Tuples returned across all calls.
    pub tuples: u64,
    /// Sum of simulated per-call latencies, in milliseconds. Under
    /// sequential execution this is the service's contribution to
    /// elapsed time; under parallel execution the executor tracks
    /// critical-path time separately.
    pub busy_ms: f64,
    /// Maximum single-call latency, in milliseconds (bottleneck metric).
    pub max_call_ms: f64,
    /// Total response payload, in wire bytes.
    pub bytes: u64,
    /// Monetary/abstract cost charged (`cost_per_call × calls`).
    pub charged: f64,
    /// Retry attempts issued by the resilience middleware (a call that
    /// succeeds on its third attempt counts 3 calls and 2 retries).
    pub retries: u64,
    /// Calls abandoned because they exceeded their deadline.
    pub timeouts: u64,
    /// Times the circuit breaker tripped from closed/half-open to open.
    pub breaker_trips: u64,
    /// Calls short-circuited by an open breaker (no request-response
    /// was issued, no time consumed).
    pub short_circuits: u64,
    /// Requests answered from the response cache (no request-response
    /// was issued, no time consumed).
    pub cache_hits: u64,
    /// Requests that coalesced onto another thread's in-flight call
    /// instead of issuing their own (counted separately from hits).
    pub coalesced: u64,
    /// Deep copies of tuple data performed anywhere in the data plane
    /// (the zero-copy plane keeps this at 0 on cache hits; legacy-style
    /// planes increment it once per copied chunk or row batch).
    pub clone_events: u64,
    /// Wire-equivalent bytes deep-copied by those clone events.
    pub bytes_cloned: u64,
    /// Times observed statistics were promoted into this service's
    /// effective interface, rolling the registry's stats epoch (and
    /// with it every cached plan fingerprint).
    pub epoch_invalidations: u64,
    /// Mid-flight suffix re-plans triggered by deviations observed at
    /// this service's stage.
    pub replans: u64,
}

impl serde::Serialize for CallStats {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("calls".to_string(), self.calls.to_json_value()),
            ("failures".to_string(), self.failures.to_json_value()),
            ("tuples".to_string(), self.tuples.to_json_value()),
            ("busy_ms".to_string(), self.busy_ms.to_json_value()),
            ("max_call_ms".to_string(), self.max_call_ms.to_json_value()),
            ("bytes".to_string(), self.bytes.to_json_value()),
            ("charged".to_string(), self.charged.to_json_value()),
            ("retries".to_string(), self.retries.to_json_value()),
            ("timeouts".to_string(), self.timeouts.to_json_value()),
            (
                "breaker_trips".to_string(),
                self.breaker_trips.to_json_value(),
            ),
            (
                "short_circuits".to_string(),
                self.short_circuits.to_json_value(),
            ),
            ("cache_hits".to_string(), self.cache_hits.to_json_value()),
            ("coalesced".to_string(), self.coalesced.to_json_value()),
            (
                "clone_events".to_string(),
                self.clone_events.to_json_value(),
            ),
            (
                "bytes_cloned".to_string(),
                self.bytes_cloned.to_json_value(),
            ),
            (
                "epoch_invalidations".to_string(),
                self.epoch_invalidations.to_json_value(),
            ),
            ("replans".to_string(), self.replans.to_json_value()),
        ])
    }
}

impl CallStats {
    /// Mean latency per call, or 0 when no calls were made.
    pub fn mean_call_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ms / self.calls as f64
        }
    }

    /// Folds another stats record into this one (for aggregating over
    /// services).
    pub fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.failures += other.failures;
        self.tuples += other.tuples;
        self.busy_ms += other.busy_ms;
        self.max_call_ms = self.max_call_ms.max(other.max_call_ms);
        self.bytes += other.bytes;
        self.charged += other.charged;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.breaker_trips += other.breaker_trips;
        self.short_circuits += other.short_circuits;
        self.cache_hits += other.cache_hits;
        self.coalesced += other.coalesced;
        self.clone_events += other.clone_events;
        self.bytes_cloned += other.bytes_cloned;
        self.epoch_invalidations += other.epoch_invalidations;
        self.replans += other.replans;
    }
}

/// Decorator recording the call statistics of an inner service.
pub struct CallRecorder {
    inner: Arc<dyn Service>,
    stats: Mutex<CallStats>,
    accumulator: Mutex<StatsAccumulator>,
    /// Promoted interface carrying observed statistics. Promotions are
    /// rare (each one rolls the stats epoch), so the replacement
    /// interface is leaked to keep `interface()` returning a plain
    /// reference; `None` means the declared interface is in effect.
    promoted: RwLock<Option<&'static ServiceInterface>>,
}

impl CallRecorder {
    /// Wraps a service.
    pub fn new(inner: Arc<dyn Service>) -> Arc<Self> {
        Arc::new(CallRecorder {
            inner,
            stats: Mutex::new(CallStats::default()),
            accumulator: Mutex::new(StatsAccumulator::default()),
            promoted: RwLock::new(None),
        })
    }

    /// Snapshot of the statistics so far.
    pub fn stats(&self) -> CallStats {
        *self.stats.lock()
    }

    /// Resets the counters (between experiment repetitions).
    pub fn reset(&self) {
        *self.stats.lock() = CallStats::default();
    }

    /// Records a retry attempt issued by the resilience middleware.
    pub fn note_retry(&self) {
        self.stats.lock().retries += 1;
    }

    /// Records a call abandoned for exceeding its deadline.
    pub fn note_timeout(&self) {
        self.stats.lock().timeouts += 1;
    }

    /// Records a closed/half-open → open breaker transition.
    pub fn note_breaker_trip(&self) {
        self.stats.lock().breaker_trips += 1;
    }

    /// Records a call short-circuited by an open breaker.
    pub fn note_short_circuit(&self) {
        self.stats.lock().short_circuits += 1;
    }

    /// Records a request answered from the response cache.
    pub fn note_cache_hit(&self) {
        self.stats.lock().cache_hits += 1;
    }

    /// Records a request coalesced onto an in-flight call.
    pub fn note_coalesced(&self) {
        self.stats.lock().coalesced += 1;
    }

    /// Records a deep copy of tuple data (`bytes` in wire-equivalent
    /// size). The zero-copy plane never calls this on its hot paths; it
    /// exists so benchmarks and legacy-style decorators can account for
    /// the copies they make.
    pub fn note_clone(&self, bytes: usize) {
        let mut stats = self.stats.lock();
        stats.clone_events += 1;
        stats.bytes_cloned += bytes as u64;
    }

    /// Records a mid-flight suffix re-plan triggered at this service.
    pub fn note_replan(&self) {
        self.stats.lock().replans += 1;
    }

    /// The declared (registration-time) interface, regardless of any
    /// promotion.
    pub fn declared_interface(&self) -> &ServiceInterface {
        self.inner.interface()
    }

    /// Whether observed statistics have been promoted into the
    /// effective interface.
    pub fn is_promoted(&self) -> bool {
        self.promoted.read().is_some()
    }

    /// Observed output cardinality per invocation, if any fetch was
    /// recorded.
    pub fn observed_cardinality(&self) -> Option<ObservedCardinality> {
        self.accumulator.lock().cardinality()
    }

    /// Observed chunk-latency EWMA, if any fetch was recorded.
    pub fn observed_latency_ms(&self) -> Option<f64> {
        self.accumulator.lock().latency_ewma_ms()
    }

    /// Chunk fetches behind the accumulated observations.
    pub fn observed_fetches(&self) -> u64 {
        self.accumulator.lock().fetches()
    }

    /// Drops accumulated observations and reverts to the declared
    /// interface (between experiment repetitions).
    pub fn reset_observed(&self) {
        self.accumulator.lock().reset();
        *self.promoted.write() = None;
    }

    /// Replaces the effective statistics with `stats`, keeping the rest
    /// of the interface. Returns `false` (and promotes nothing) when
    /// the effective statistics already equal `stats`. Each successful
    /// promotion counts one `epoch_invalidations`, because the
    /// registry's stats epoch — and with it every cached plan
    /// fingerprint — changes with the effective statistics.
    pub fn promote_stats(&self, stats: ServiceStats) -> bool {
        let mut slot = self.promoted.write();
        let current = slot.map_or_else(|| self.inner.interface().stats, |p| p.stats);
        if current == stats {
            return false;
        }
        let mut iface = self.inner.interface().clone();
        iface.stats = stats;
        *slot = Some(Box::leak(Box::new(iface)));
        drop(slot);
        self.stats.lock().epoch_invalidations += 1;
        true
    }
}

impl Service for CallRecorder {
    /// The *effective* interface: declared statistics until a
    /// promotion, observed statistics after.
    fn interface(&self) -> &ServiceInterface {
        if let Some(promoted) = *self.promoted.read() {
            return promoted;
        }
        self.inner.interface()
    }

    fn fetch(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
        let result = self.inner.fetch(request);
        let mut stats = self.stats.lock();
        stats.calls += 1;
        stats.charged += self.inner.interface().stats.cost_per_call;
        match &result {
            Ok(resp) => {
                stats.tuples += resp.len() as u64;
                stats.busy_ms += resp.elapsed_ms;
                stats.max_call_ms = stats.max_call_ms.max(resp.elapsed_ms);
                // Sized off the columnar layout — byte-identical to
                // framing the rows, without materializing the row view.
                stats.bytes += chunk_wire_size_body(resp.body()) as u64;
                drop(stats);
                self.accumulator.lock().record_fetch(
                    request_binding_key(request),
                    request.chunk,
                    resp.len(),
                    resp.has_more(),
                    resp.elapsed_ms,
                );
            }
            Err(_) => stats.failures += 1,
        }
        result
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
            ServiceStats::new(25.0, 10, 40.0, 2.5).unwrap(),
            ScoreDecay::Linear,
        )
        .unwrap();
        Arc::new(SyntheticService::new(iface, DomainMap::new(), 3))
    }

    fn req() -> Request {
        Request::unbound().bind(AttributePath::atomic("K"), Value::text("k"))
    }

    #[test]
    fn records_calls_tuples_time_cost_and_bytes() {
        let rec = CallRecorder::new(service());
        rec.fetch(&req()).unwrap();
        rec.fetch(&req().at_chunk(1)).unwrap();
        let s = rec.stats();
        assert_eq!(s.calls, 2);
        assert_eq!(s.failures, 0);
        assert_eq!(s.tuples, 20);
        assert!((s.busy_ms - 80.0).abs() < 1e-9);
        assert!((s.max_call_ms - 40.0).abs() < 1e-9);
        assert!((s.charged - 5.0).abs() < 1e-9);
        assert!(
            s.bytes > 64,
            "wire bytes should be substantial, got {}",
            s.bytes
        );
        assert!((s.mean_call_ms() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn records_failures() {
        let schema = service().interface().schema.clone();
        let iface = ServiceInterface::new(
            "S1",
            "S",
            schema,
            ServiceKind::Search,
            ServiceStats::new(25.0, 10, 40.0, 1.0).unwrap(),
            ScoreDecay::Linear,
        )
        .unwrap();
        let failing =
            Arc::new(SyntheticService::new(iface, DomainMap::new(), 3).with_failure_every(1));
        let rec = CallRecorder::new(failing);
        assert!(rec.fetch(&req()).is_err());
        let s = rec.stats();
        assert_eq!((s.calls, s.failures, s.tuples), (1, 1, 0));
        // Failed calls still get charged (the provider billed us).
        assert!((s.charged - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_counters() {
        let rec = CallRecorder::new(service());
        rec.fetch(&req()).unwrap();
        rec.reset();
        assert_eq!(rec.stats(), CallStats::default());
    }

    #[test]
    fn merge_aggregates() {
        let mut a = CallStats {
            calls: 1,
            failures: 0,
            tuples: 10,
            busy_ms: 5.0,
            max_call_ms: 5.0,
            bytes: 100,
            charged: 1.0,
            ..CallStats::default()
        };
        let b = CallStats {
            calls: 2,
            failures: 1,
            tuples: 4,
            busy_ms: 9.0,
            max_call_ms: 8.0,
            bytes: 50,
            charged: 2.0,
            retries: 3,
            timeouts: 1,
            breaker_trips: 1,
            short_circuits: 2,
            cache_hits: 4,
            coalesced: 2,
            clone_events: 6,
            bytes_cloned: 640,
            epoch_invalidations: 2,
            replans: 1,
        };
        a.merge(&b);
        assert_eq!(a.calls, 3);
        assert_eq!(a.failures, 1);
        assert_eq!(a.tuples, 14);
        assert!((a.busy_ms - 14.0).abs() < 1e-12);
        assert!((a.max_call_ms - 8.0).abs() < 1e-12);
        assert_eq!(a.bytes, 150);
        assert!((a.charged - 3.0).abs() < 1e-12);
        assert_eq!(
            (a.retries, a.timeouts, a.breaker_trips, a.short_circuits),
            (3, 1, 1, 2)
        );
        assert_eq!((a.cache_hits, a.coalesced), (4, 2));
        assert_eq!((a.clone_events, a.bytes_cloned), (6, 640));
        assert_eq!((a.epoch_invalidations, a.replans), (2, 1));
        assert_eq!(CallStats::default().mean_call_ms(), 0.0);
    }

    #[test]
    fn fetches_feed_the_accumulator() {
        let rec = CallRecorder::new(service());
        rec.fetch(&req()).unwrap();
        rec.fetch(&req().at_chunk(1)).unwrap();
        // avg 25, chunk 10: chunks 0 and 1 are full — only a lower
        // bound of 20 is observable so far.
        let card = rec.observed_cardinality().unwrap();
        assert!(!card.exact);
        assert!((card.value - 20.0).abs() < 1e-9);
        rec.fetch(&req().at_chunk(2)).unwrap();
        let card = rec.observed_cardinality().unwrap();
        assert!(card.exact, "final short chunk completes the binding");
        assert!((card.value - 25.0).abs() < 1e-9);
        assert!(rec.observed_latency_ms().is_some());
        assert_eq!(rec.observed_fetches(), 3);
        rec.reset_observed();
        assert_eq!(rec.observed_cardinality(), None);
    }

    #[test]
    fn promotion_swaps_the_effective_interface() {
        let rec = CallRecorder::new(service());
        assert!(!rec.is_promoted());
        let declared = rec.declared_interface().stats;
        // Promoting identical stats is a no-op.
        assert!(!rec.promote_stats(declared));
        assert_eq!(rec.stats().epoch_invalidations, 0);
        let observed = ServiceStats::new(250.0, 10, 40.0, 2.5).unwrap();
        assert!(rec.promote_stats(observed));
        assert!(rec.is_promoted());
        assert!((rec.interface().stats.avg_cardinality - 250.0).abs() < 1e-9);
        assert!((rec.declared_interface().stats.avg_cardinality - 25.0).abs() < 1e-9);
        assert_eq!(rec.stats().epoch_invalidations, 1);
        // Re-promoting the same stats is again a no-op.
        assert!(!rec.promote_stats(observed));
        assert_eq!(rec.stats().epoch_invalidations, 1);
        rec.reset_observed();
        assert!(!rec.is_promoted());
        assert!((rec.interface().stats.avg_cardinality - 25.0).abs() < 1e-9);
    }
}
