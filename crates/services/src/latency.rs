//! Virtual time and latency models.
//!
//! The execution-time and bottleneck cost metrics (§5.1) are defined
//! over elapsed wall-clock time of service calls. Real network latency
//! would make experiments non-reproducible, so services *report* a
//! simulated latency per request-response and the executor accumulates
//! it on a [`VirtualClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Latency model of a service: how long one request-response takes.
///
/// Deterministic-jitter uses a per-call hash rather than an RNG so that
/// latency is a pure function of `(call index)` and runs are repeatable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every call takes exactly `ms` milliseconds.
    Fixed {
        /// Per-call latency.
        ms: f64,
    },
    /// Calls take `base_ms ± jitter_ms`, varied deterministically by
    /// call index.
    Jittered {
        /// Mean latency.
        base_ms: f64,
        /// Maximum absolute deviation.
        jitter_ms: f64,
    },
    /// Latency grows with the chunk index: `base_ms + per_chunk_ms * c`.
    /// Models services whose deep result pages are slower.
    Paged {
        /// Latency of chunk 0.
        base_ms: f64,
        /// Additional latency per chunk index.
        per_chunk_ms: f64,
    },
}

impl LatencyModel {
    /// Latency of the `call_index`-th call fetching chunk `chunk`.
    pub fn latency_ms(&self, call_index: u64, chunk: usize) -> f64 {
        match *self {
            LatencyModel::Fixed { ms } => ms,
            LatencyModel::Jittered { base_ms, jitter_ms } => {
                // Cheap integer hash -> [-1, 1) deterministic jitter.
                let h = call_index
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17);
                let unit = (h % 2048) as f64 / 1024.0 - 1.0;
                (base_ms + jitter_ms * unit).max(0.0)
            }
            LatencyModel::Paged {
                base_ms,
                per_chunk_ms,
            } => base_ms + per_chunk_ms * chunk as f64,
        }
    }
}

/// A monotone virtual clock counting simulated microseconds.
///
/// Shared between executors and recorders via `Arc`; advancing is atomic
/// so concurrent daemon sessions can account time on one clock.
#[derive(Debug, Default)]
pub struct VirtualClock {
    micros: AtomicU64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualClock::default())
    }

    /// Advances the clock by `ms` milliseconds and returns the new time
    /// in milliseconds. Used for *sequential* accounting (sum of call
    /// times along an execution).
    pub fn advance_ms(&self, ms: f64) -> f64 {
        let delta = (ms * 1000.0).round().max(0.0) as u64;
        let new = self.micros.fetch_add(delta, Ordering::Relaxed) + delta;
        new as f64 / 1000.0
    }

    /// Moves the clock forward to at least `ms` milliseconds — used for
    /// *parallel* accounting, where the elapsed time of concurrent calls
    /// is their maximum, not their sum.
    pub fn advance_to_ms(&self, ms: f64) {
        let target = (ms * 1000.0).round().max(0.0) as u64;
        self.micros.fetch_max(target, Ordering::Relaxed);
    }

    /// Current time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.micros.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Resets to zero (between experiment repetitions).
    pub fn reset(&self) {
        self.micros.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_is_constant() {
        let m = LatencyModel::Fixed { ms: 42.0 };
        assert_eq!(m.latency_ms(0, 0), 42.0);
        assert_eq!(m.latency_ms(99, 7), 42.0);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let m = LatencyModel::Jittered {
            base_ms: 100.0,
            jitter_ms: 10.0,
        };
        for i in 0..100 {
            let l = m.latency_ms(i, 0);
            assert!((90.0..=110.0).contains(&l), "latency {l} out of bounds");
            assert_eq!(
                l,
                m.latency_ms(i, 0),
                "same call index must give same latency"
            );
        }
        // Jitter actually varies.
        let distinct: std::collections::BTreeSet<u64> =
            (0..32).map(|i| m.latency_ms(i, 0) as u64).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn paged_latency_grows_with_chunk() {
        let m = LatencyModel::Paged {
            base_ms: 10.0,
            per_chunk_ms: 5.0,
        };
        assert_eq!(m.latency_ms(0, 0), 10.0);
        assert_eq!(m.latency_ms(0, 4), 30.0);
    }

    #[test]
    fn clock_advances_and_maxes() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0.0);
        c.advance_ms(1.5);
        assert!((c.now_ms() - 1.5).abs() < 1e-9);
        c.advance_to_ms(1.0); // behind: no-op
        assert!((c.now_ms() - 1.5).abs() < 1e-9);
        c.advance_to_ms(10.0);
        assert!((c.now_ms() - 10.0).abs() < 1e-9);
        c.reset();
        assert_eq!(c.now_ms(), 0.0);
    }

    #[test]
    fn clock_is_thread_safe() {
        let c = VirtualClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance_ms(1.0);
                    }
                });
            }
        });
        assert!((c.now_ms() - 4000.0).abs() < 1e-9);
    }
}
