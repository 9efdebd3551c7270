//! Resilient service invocation: deadlines, retry with backoff, and a
//! circuit breaker behind the [`ServiceClient`] middleware.
//!
//! The chapter treats services as remote Web endpoints, and remote
//! endpoints fail: connections reset, latency spikes past what a caller
//! will wait for, providers go down for minutes at a time. The
//! execution environment of §3 must keep producing (possibly partial)
//! ranked answers under those conditions. [`ServiceClient`] packages the
//! standard defences as a decorator over any [`Service`]:
//!
//! * **deadline** — a per-call budget; a response whose simulated
//!   latency exceeds it is abandoned at the deadline and reported as
//!   [`ServiceError::DeadlineExceeded`];
//! * **retry with backoff** — transient failures (transport errors,
//!   deadline expirations — see [`ServiceError::is_transient`]) are
//!   retried up to a configured number of times, waiting an
//!   exponentially growing, deterministically jittered delay between
//!   attempts;
//! * **circuit breaker** — after a configured number of *consecutive*
//!   exhausted calls the breaker opens and further calls short-circuit
//!   instantly (consuming **no** virtual time) until a cooldown passes,
//!   after which one half-open probe decides whether to close again.
//!
//! Time is virtual: the client advances a shared [`VirtualClock`]
//! (backoff and abandoned calls consume simulated milliseconds, so the
//! cost metrics of §5.1 see resilience overhead), and breaker cooldowns
//! are measured on the same timeline. All jitter derives from a seed,
//! so identical seeds produce identical retry/backoff schedules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use seco_model::{ServiceInterface, SharedTuple};

use crate::error::ServiceError;
use crate::invocation::{Bindings, ChunkResponse, Request, Service};
use crate::latency::VirtualClock;
use crate::recorder::CallRecorder;
use crate::synthetic::mix;

/// Resilience parameters of a [`ServiceClient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Per-call budget in simulated milliseconds; `None` waits forever.
    pub deadline_ms: Option<f64>,
    /// Maximum retry attempts after the initial call (0 disables retry).
    pub retries: u32,
    /// Base backoff delay; attempt `a` waits `base · 2^a` plus jitter.
    pub backoff_ms: f64,
    /// Upper bound on the exponential part of the backoff delay.
    pub max_backoff_ms: f64,
    /// Consecutive exhausted failures that open the breaker
    /// (0 disables the breaker entirely).
    pub breaker_threshold: u32,
    /// How long the breaker stays open before allowing a half-open
    /// probe, in virtual milliseconds.
    pub breaker_cooldown_ms: f64,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline_ms: None,
            retries: 2,
            backoff_ms: 25.0,
            max_backoff_ms: 400.0,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1000.0,
            seed: 0,
        }
    }
}

impl ClientConfig {
    /// The backoff delay before retry attempt `attempt` (0-based), where
    /// `sequence` is the client-wide ordinal of the retry. Pure function
    /// of `(config, attempt, sequence)`: identical seeds yield identical
    /// schedules.
    pub fn backoff_delay_ms(&self, attempt: u32, sequence: u64) -> f64 {
        let exponential = self.backoff_ms * f64::from(1u32 << attempt.min(10));
        let capped = exponential.min(self.max_backoff_ms);
        // Deterministic jitter in [0, backoff_ms), decorrelating retry
        // storms without sacrificing reproducibility.
        let unit = mix(self.seed, sequence) as f64 / u64::MAX as f64;
        capped + self.backoff_ms * unit
    }
}

/// Circuit-breaker state machine (closed → open → half-open → …).
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { until_ms: f64 },
    HalfOpen,
}

/// Builder for [`ServiceClient`]; obtained from
/// [`ServiceClient::for_service`] or [`ServiceClient::for_recorded`].
pub struct ServiceClientBuilder {
    inner: Arc<dyn Service>,
    recorder: Option<Arc<CallRecorder>>,
    config: ClientConfig,
    clock: Option<Arc<VirtualClock>>,
}

impl ServiceClientBuilder {
    /// Sets the per-call deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.config.deadline_ms = Some(ms.max(0.0));
        self
    }

    /// Sets the maximum number of retry attempts after the initial call.
    pub fn retries(mut self, retries: u32) -> Self {
        self.config.retries = retries;
        self
    }

    /// Sets the base backoff delay between attempts.
    pub fn backoff_ms(mut self, ms: f64) -> Self {
        self.config.backoff_ms = ms.max(0.0);
        self
    }

    /// Configures the circuit breaker: `threshold` consecutive exhausted
    /// failures open it for `cooldown_ms`.
    pub fn breaker(mut self, threshold: u32, cooldown_ms: f64) -> Self {
        self.config.breaker_threshold = threshold;
        self.config.breaker_cooldown_ms = cooldown_ms.max(0.0);
        self
    }

    /// Disables the circuit breaker.
    pub fn no_breaker(mut self) -> Self {
        self.config.breaker_threshold = 0;
        self
    }

    /// Sets the jitter seed (identical seeds ⇒ identical schedules).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, config: ClientConfig) -> Self {
        self.config = config;
        self
    }

    /// Shares a virtual clock with the executor (a private one is
    /// created otherwise).
    pub fn virtual_clock(mut self, clock: Arc<VirtualClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ServiceClient {
        ServiceClient {
            inner: self.inner,
            recorder: self.recorder,
            config: self.config,
            clock: self.clock.unwrap_or_default(),
            breaker: Mutex::new(BreakerState::Closed {
                consecutive_failures: 0,
            }),
            backoff_seq: AtomicU64::new(0),
        }
    }
}

/// Resilience middleware over a [`Service`].
///
/// Implements [`Service`] itself, so executors and join methods use a
/// client exactly where they would use the raw service:
///
/// ```
/// use std::sync::Arc;
/// use seco_services::{ServiceClient, SyntheticService, DomainMap};
/// # use seco_model::{Adornment, AttributeDef, DataType, ScoreDecay, ServiceKind,
/// #                  ServiceSchema, ServiceStats};
/// # let schema = ServiceSchema::new("S1", vec![
/// #     AttributeDef::atomic("V", DataType::Int, Adornment::Output),
/// # ]).unwrap();
/// # let iface = seco_model::ServiceInterface::new(
/// #     "S1", "S", schema, ServiceKind::Exact { chunked: false },
/// #     ServiceStats::default(), ScoreDecay::Constant(0.0)).unwrap();
/// let service = Arc::new(SyntheticService::new(iface, DomainMap::new(), 7));
/// let client = ServiceClient::for_service(service)
///     .deadline_ms(200.0)
///     .retries(3)
///     .breaker(5, 1000.0)
///     .seed(42)
///     .build();
/// ```
pub struct ServiceClient {
    inner: Arc<dyn Service>,
    recorder: Option<Arc<CallRecorder>>,
    config: ClientConfig,
    clock: Arc<VirtualClock>,
    breaker: Mutex<BreakerState>,
    /// Client-wide retry ordinal feeding the jitter, so consecutive
    /// retries (even across calls) draw distinct deterministic delays.
    backoff_seq: AtomicU64,
}

impl ServiceClient {
    /// Starts building a client over any service handle.
    pub fn for_service(inner: Arc<dyn Service>) -> ServiceClientBuilder {
        ServiceClientBuilder {
            inner,
            recorder: None,
            config: ClientConfig::default(),
            clock: None,
        }
    }

    /// Starts building a client over a recorded service (as handed out
    /// by the registry); resilience events — retries, timeouts, breaker
    /// trips, short-circuits — are counted on the recorder's stats.
    pub fn for_recorded(recorder: Arc<CallRecorder>) -> ServiceClientBuilder {
        ServiceClientBuilder {
            inner: recorder.clone(),
            recorder: Some(recorder),
            config: ClientConfig::default(),
            clock: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Whether the breaker currently refuses calls (ignoring cooldown
    /// expiry, which is only evaluated at the next call).
    pub fn breaker_is_open(&self) -> bool {
        matches!(*self.breaker.lock(), BreakerState::Open { .. })
    }

    fn service_name(&self) -> String {
        self.inner.interface().name.clone()
    }

    /// Open-breaker gate. Short-circuiting consumes no time at all —
    /// that is the point of a breaker: the caller learns instantly.
    fn check_breaker(&self) -> Result<(), ServiceError> {
        if self.config.breaker_threshold == 0 {
            return Ok(());
        }
        let mut state = self.breaker.lock();
        if let BreakerState::Open { until_ms } = *state {
            if self.clock.now_ms() < until_ms {
                if let Some(rec) = &self.recorder {
                    rec.note_short_circuit();
                }
                return Err(ServiceError::CircuitOpen {
                    service: self.service_name(),
                });
            }
            *state = BreakerState::HalfOpen;
        }
        Ok(())
    }

    fn on_success(&self) {
        if self.config.breaker_threshold > 0 {
            *self.breaker.lock() = BreakerState::Closed {
                consecutive_failures: 0,
            };
        }
    }

    /// Registers one *exhausted* call (retries included) as a breaker
    /// failure; a half-open probe failure reopens immediately.
    fn on_failure(&self) {
        if self.config.breaker_threshold == 0 {
            return;
        }
        let mut state = self.breaker.lock();
        let trips = match *state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.config.breaker_threshold {
                    true
                } else {
                    *state = BreakerState::Closed {
                        consecutive_failures: n,
                    };
                    false
                }
            }
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => false,
        };
        if trips {
            *state = BreakerState::Open {
                until_ms: self.clock.now_ms() + self.config.breaker_cooldown_ms,
            };
            if let Some(rec) = &self.recorder {
                rec.note_breaker_trip();
            }
        }
    }

    /// One attempt: the inner call plus deadline enforcement. A response
    /// slower than the deadline is abandoned *at* the deadline — the
    /// caller stops waiting, so exactly `deadline_ms` of virtual time
    /// passes, not the full latency.
    fn attempt(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
        let response = self.inner.fetch(request)?;
        if let Some(deadline) = self.config.deadline_ms {
            if response.elapsed_ms > deadline {
                self.clock.advance_ms(deadline);
                if let Some(rec) = &self.recorder {
                    rec.note_timeout();
                }
                return Err(ServiceError::DeadlineExceeded {
                    service: self.service_name(),
                    deadline_ms: deadline,
                });
            }
        }
        self.clock.advance_ms(response.elapsed_ms);
        Ok(response)
    }

    /// Fetches chunks `0..n` under the same bindings through the
    /// resilient middleware, concatenating tuples and stopping early at
    /// the terminal chunk. Returns the tuples and the number of
    /// successful request-responses.
    ///
    /// This is the builder-era replacement of the old free-standing
    /// `fetch_n_chunks` helper.
    pub fn fetch_n_chunks(
        &self,
        bindings: &Bindings,
        n: usize,
    ) -> Result<(Vec<SharedTuple>, usize), ServiceError> {
        let mut tuples = Vec::new();
        let mut calls = 0;
        for c in 0..n {
            let resp = self.fetch(&Request::first(bindings.clone()).at_chunk(c))?;
            calls += 1;
            let more = resp.has_more();
            tuples.extend(resp.shared_tuples());
            if !more {
                break;
            }
        }
        Ok((tuples, calls))
    }
}

impl Service for ServiceClient {
    fn interface(&self) -> &ServiceInterface {
        self.inner.interface()
    }

    fn fetch(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
        self.check_breaker()?;
        let mut attempt = 0u32;
        loop {
            match self.attempt(request) {
                Ok(response) => {
                    self.on_success();
                    return Ok(response);
                }
                Err(error) if error.is_transient() && attempt < self.config.retries => {
                    let sequence = self.backoff_seq.fetch_add(1, Ordering::Relaxed);
                    self.clock
                        .advance_ms(self.config.backoff_delay_ms(attempt, sequence));
                    if let Some(rec) = &self.recorder {
                        rec.note_retry();
                    }
                    attempt += 1;
                }
                Err(error) => {
                    self.on_failure();
                    return Err(error);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::synthetic::{DomainMap, SyntheticService};
    use seco_model::{
        Adornment, AttributeDef, AttributePath, DataType, ScoreDecay, ServiceKind, ServiceSchema,
        ServiceStats, Value,
    };

    fn iface(response_ms: f64) -> ServiceInterface {
        let schema = ServiceSchema::new(
            "S1",
            vec![
                AttributeDef::atomic("K", DataType::Text, Adornment::Input),
                AttributeDef::atomic("V", DataType::Text, Adornment::Output),
                AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
            ],
        )
        .unwrap();
        ServiceInterface::new(
            "S1",
            "S",
            schema,
            ServiceKind::Search,
            ServiceStats::new(25.0, 10, response_ms, 1.0).unwrap(),
            ScoreDecay::Linear,
        )
        .unwrap()
    }

    /// Fails the first `fail_first` calls with a transport error, then
    /// succeeds forever. Gives tests precise control over transience.
    struct FlakyFirst {
        iface: ServiceInterface,
        fail_first: u64,
        calls: AtomicU64,
    }

    impl FlakyFirst {
        fn new(response_ms: f64, fail_first: u64) -> Arc<Self> {
            Arc::new(FlakyFirst {
                iface: iface(response_ms),
                fail_first,
                calls: AtomicU64::new(0),
            })
        }
    }

    impl Service for FlakyFirst {
        fn interface(&self) -> &ServiceInterface {
            &self.iface
        }
        fn fetch(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
            self.check_bindings(request)?;
            let idx = self.calls.fetch_add(1, Ordering::Relaxed);
            if idx < self.fail_first {
                return Err(ServiceError::Transport {
                    service: self.iface.name.clone(),
                    detail: format!("flaky call {idx}"),
                });
            }
            Ok(ChunkResponse::new(
                Vec::new(),
                false,
                self.iface.stats.response_time_ms,
            ))
        }
    }

    fn req() -> Request {
        Request::unbound().bind(AttributePath::atomic("K"), Value::text("k"))
    }

    #[test]
    fn retries_recover_from_transient_failures() {
        let clock = VirtualClock::new();
        let rec = CallRecorder::new(FlakyFirst::new(40.0, 2));
        let client = ServiceClient::for_recorded(rec.clone())
            .retries(3)
            .backoff_ms(10.0)
            .seed(7)
            .virtual_clock(clock.clone())
            .build();
        let resp = client.fetch(&req()).unwrap();
        assert!(!resp.has_more());
        let stats = rec.stats();
        assert_eq!((stats.calls, stats.failures, stats.retries), (3, 2, 2));
        // Two backoffs plus the final call's latency.
        assert!(
            clock.now_ms() > 40.0 + 10.0 + 20.0 - 1e-9,
            "clock {}",
            clock.now_ms()
        );
    }

    #[test]
    fn retries_exhaust_into_the_original_error() {
        let rec = CallRecorder::new(FlakyFirst::new(40.0, u64::MAX));
        let client = ServiceClient::for_recorded(rec.clone())
            .retries(2)
            .no_breaker()
            .seed(7)
            .build();
        let err = client.fetch(&req()).unwrap_err();
        assert!(matches!(err, ServiceError::Transport { .. }));
        assert_eq!(rec.stats().retries, 2);
        assert_eq!(rec.stats().calls, 3);
    }

    #[test]
    fn deadline_abandons_slow_calls_at_the_deadline() {
        let clock = VirtualClock::new();
        let slow = Arc::new(
            SyntheticService::new(iface(500.0), DomainMap::new(), 3)
                .with_latency(LatencyModel::Fixed { ms: 500.0 }),
        );
        let rec = CallRecorder::new(slow);
        let client = ServiceClient::for_recorded(rec.clone())
            .deadline_ms(200.0)
            .retries(0)
            .virtual_clock(clock.clone())
            .build();
        let err = client.fetch(&req()).unwrap_err();
        assert!(
            matches!(err, ServiceError::DeadlineExceeded { deadline_ms, .. } if deadline_ms == 200.0)
        );
        // The caller stopped waiting at 200 ms, not 500.
        assert!(
            (clock.now_ms() - 200.0).abs() < 1e-9,
            "clock {}",
            clock.now_ms()
        );
        assert_eq!(rec.stats().timeouts, 1);
    }

    #[test]
    fn breaker_opens_after_threshold_and_short_circuits_without_time() {
        let clock = VirtualClock::new();
        let rec = CallRecorder::new(FlakyFirst::new(40.0, u64::MAX));
        let client = ServiceClient::for_recorded(rec.clone())
            .retries(0)
            .breaker(2, 1000.0)
            .virtual_clock(clock.clone())
            .build();
        assert!(client.fetch(&req()).is_err());
        assert!(!client.breaker_is_open());
        assert!(client.fetch(&req()).is_err());
        assert!(client.breaker_is_open());
        assert_eq!(rec.stats().breaker_trips, 1);

        let before = clock.now_ms();
        let err = client.fetch(&req()).unwrap_err();
        assert!(matches!(err, ServiceError::CircuitOpen { .. }));
        assert_eq!(
            clock.now_ms(),
            before,
            "short-circuit must consume no virtual time"
        );
        assert_eq!(rec.stats().short_circuits, 1);
        // No request-response was issued either.
        assert_eq!(rec.stats().calls, 2);
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_recloses_on_success() {
        let clock = VirtualClock::new();
        let flaky = FlakyFirst::new(40.0, 2);
        let rec = CallRecorder::new(flaky);
        let client = ServiceClient::for_recorded(rec.clone())
            .retries(0)
            .breaker(2, 100.0)
            .virtual_clock(clock.clone())
            .build();
        assert!(client.fetch(&req()).is_err());
        assert!(client.fetch(&req()).is_err());
        assert!(client.breaker_is_open());
        clock.advance_ms(150.0);
        // Past cooldown: the probe goes through and succeeds (call 3 of
        // FlakyFirst with fail_first=2), closing the breaker.
        assert!(client.fetch(&req()).is_ok());
        assert!(!client.breaker_is_open());
        assert!(client.fetch(&req()).is_ok());
    }

    #[test]
    fn half_open_probe_failure_reopens_immediately() {
        let clock = VirtualClock::new();
        let rec = CallRecorder::new(FlakyFirst::new(40.0, u64::MAX));
        let client = ServiceClient::for_recorded(rec.clone())
            .retries(0)
            .breaker(2, 100.0)
            .virtual_clock(clock.clone())
            .build();
        assert!(client.fetch(&req()).is_err());
        assert!(client.fetch(&req()).is_err());
        clock.advance_ms(150.0);
        // Probe fails → reopen on the spot (one failure, not threshold).
        assert!(matches!(
            client.fetch(&req()).unwrap_err(),
            ServiceError::Transport { .. }
        ));
        assert!(client.breaker_is_open());
        assert_eq!(rec.stats().breaker_trips, 2);
    }

    #[test]
    fn identical_seeds_give_identical_backoff_schedules() {
        let run = |seed: u64| -> f64 {
            let clock = VirtualClock::new();
            let client = ServiceClient::for_service(FlakyFirst::new(40.0, u64::MAX))
                .retries(4)
                .backoff_ms(15.0)
                .no_breaker()
                .seed(seed)
                .virtual_clock(clock.clone())
                .build();
            let _ = client.fetch(&req());
            clock.now_ms()
        };
        assert_eq!(run(42).to_bits(), run(42).to_bits());
        assert_ne!(
            run(42).to_bits(),
            run(43).to_bits(),
            "different seeds should jitter apart"
        );

        let cfg = ClientConfig {
            seed: 9,
            ..ClientConfig::default()
        };
        let schedule: Vec<f64> = (0..5).map(|a| cfg.backoff_delay_ms(a, a as u64)).collect();
        let again: Vec<f64> = (0..5).map(|a| cfg.backoff_delay_ms(a, a as u64)).collect();
        assert_eq!(schedule, again);
        // Exponential growth up to the cap.
        assert!(schedule[1] > schedule[0] && schedule[2] > schedule[1]);
        assert!(schedule
            .iter()
            .all(|&d| d <= cfg.max_backoff_ms + cfg.backoff_ms));
    }

    #[test]
    fn fetch_n_chunks_stops_at_terminal_chunk() {
        let service = Arc::new(SyntheticService::new(iface(40.0), DomainMap::new(), 3));
        let client = ServiceClient::for_service(service).build();
        let bindings: Bindings = [(AttributePath::atomic("K"), Value::text("x"))]
            .into_iter()
            .collect();
        let (tuples, calls) = client.fetch_n_chunks(&bindings, 5).unwrap();
        // avg_cardinality 25, chunk 10 → chunks of 10/10/5 then stop.
        assert_eq!(tuples.len(), 25);
        assert_eq!(calls, 3, "has_more=false must stop fetching");
    }
}
