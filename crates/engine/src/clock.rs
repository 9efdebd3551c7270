//! Clocks: regulating service calls by the inter-service ratio.
//!
//! §4.3.2 previews them: "In Chapter 12 we show units for controlling
//! the execution strategy, called *clocks*, whose function is to
//! regulate service calls based upon the inter-service ratio." A clock
//! is a small token-bucket-like controller: each *tick* grants every
//! registered service a number of call credits proportional to its
//! share of the inter-service ratio; an executor asks the clock for
//! permission before each request-response and reports completions
//! back. This decouples *when* a strategy wants calls (the scheduler)
//! from *whether* the pacing allows them (the clock) — which is what
//! lets an engine re-weight running joins when the user changes the
//! ranking mid-flight (§3.1's dynamic re-ranking).

use std::collections::BTreeMap;

/// One registered service's pacing state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pace {
    /// Credits granted per tick.
    per_tick: u32,
    /// Currently available credits.
    available: u32,
    /// Calls performed in total.
    performed: u64,
}

/// A call-pacing clock over a set of named services.
///
/// Credits accumulate tick by tick, capped at one tick's worth times
/// `burst` so a stalled service cannot hoard unbounded credit and then
/// flood its provider.
#[derive(Debug, Clone)]
pub struct Clock {
    paces: BTreeMap<String, Pace>,
    burst: u32,
    ticks: u64,
}

impl Clock {
    /// A clock with the given burst factor (≥ 1): how many ticks of
    /// credit a service may accumulate.
    pub fn new(burst: u32) -> Self {
        Clock {
            paces: BTreeMap::new(),
            burst: burst.max(1),
            ticks: 0,
        }
    }

    /// Registers a service with its share of the inter-service ratio
    /// (e.g. `r = 3/5` registers the first service at 3 and the second
    /// at 5). Re-registering replaces the share but keeps the call
    /// count.
    pub fn register(&mut self, service: impl Into<String>, share: u32) {
        let share = share.max(1);
        let entry = self.paces.entry(service.into()).or_insert(Pace {
            per_tick: share,
            available: 0,
            performed: 0,
        });
        entry.per_tick = share;
    }

    /// Advances the clock by one tick, granting every service its
    /// credit share.
    pub fn tick(&mut self) {
        self.ticks += 1;
        for pace in self.paces.values_mut() {
            let cap = pace.per_tick.saturating_mul(self.burst);
            pace.available = (pace.available + pace.per_tick).min(cap);
        }
    }

    /// True when the service may issue a call right now.
    pub fn may_call(&self, service: &str) -> bool {
        self.paces
            .get(service)
            .map(|p| p.available > 0)
            .unwrap_or(false)
    }

    /// Consumes one credit for a call; returns false (and consumes
    /// nothing) when no credit is available or the service is unknown.
    pub fn acquire(&mut self, service: &str) -> bool {
        match self.paces.get_mut(service) {
            Some(p) if p.available > 0 => {
                p.available -= 1;
                p.performed += 1;
                true
            }
            _ => false,
        }
    }

    /// Calls performed by a service so far.
    pub fn performed(&self, service: &str) -> u64 {
        self.paces.get(service).map(|p| p.performed).unwrap_or(0)
    }

    /// Ticks elapsed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The observed call ratio between two services (`performed_a /
    /// performed_b`), `None` until both have called at least once.
    pub fn observed_ratio(&self, a: &str, b: &str) -> Option<f64> {
        let pa = self.performed(a);
        let pb = self.performed(b);
        if pa == 0 || pb == 0 {
            None
        } else {
            Some(pa as f64 / pb as f64)
        }
    }
}

/// Adapter pacing a binary join's calls with a [`Clock`]: the next call
/// goes to whichever side has more accumulated credit (the opening pair
/// is forced, as every §4.4 strategy requires); when neither side has
/// credit, the clock ticks. Plugs into
/// [`seco_join::ParallelJoinExecutor::run_paced`].
pub struct ClockPacing {
    clock: Clock,
}

impl ClockPacing {
    /// Builds a pacer for a binary join with inter-service ratio
    /// `rx : ry` (X gets `rx` credits per tick, Y gets `ry`).
    pub fn new(rx: u32, ry: u32, burst: u32) -> Self {
        let mut clock = Clock::new(burst);
        clock.register("x", rx);
        clock.register("y", ry);
        ClockPacing { clock }
    }

    /// The underlying clock (for inspecting performed-call counters).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}

impl seco_join::Pacing for ClockPacing {
    fn next_target(&mut self, calls_x: usize, calls_y: usize) -> seco_join::CallTarget {
        use seco_join::CallTarget;
        // Forced opening pair so at least one tile exists (§4.4.1).
        if calls_x == 0 {
            self.clock.tick();
            self.clock.acquire("x");
            return CallTarget::X;
        }
        if calls_y == 0 {
            self.clock.acquire("y");
            return CallTarget::Y;
        }
        loop {
            let cx = self.clock.may_call("x");
            let cy = self.clock.may_call("y");
            match (cx, cy) {
                (true, true) => {
                    // More credit goes first; ties favour X.
                    let side = if self.clock.performed("x") as f64
                        / self.clock.performed("y").max(1) as f64
                        <= 1.0
                    {
                        "x"
                    } else {
                        "y"
                    };
                    self.clock.acquire(side);
                    return if side == "x" {
                        CallTarget::X
                    } else {
                        CallTarget::Y
                    };
                }
                (true, false) => {
                    self.clock.acquire("x");
                    return CallTarget::X;
                }
                (false, true) => {
                    self.clock.acquire("y");
                    return CallTarget::Y;
                }
                (false, false) => self.clock.tick(),
            }
        }
    }
}

/// Drives a two-service call loop under a clock until `total` calls
/// have been performed, returning the call sequence as service names.
/// Greedy: at each step the service with more available credit (ties:
/// lexicographic) calls first; the clock ticks whenever neither may
/// call. This is the §4.3.2 behaviour of alternating calls "with an
/// inter-service ratio r between calls to services".
pub fn drive_pair(clock: &mut Clock, a: &str, b: &str, total: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(total);
    let mut guard = 0usize;
    while out.len() < total && guard < total * 16 {
        guard += 1;
        let avail = |c: &Clock, s: &str| c.paces.get(s).map(|p| p.available).unwrap_or(0);
        let (first, second) = if avail(clock, a) >= avail(clock, b) {
            (a, b)
        } else {
            (b, a)
        };
        if clock.acquire(first) {
            out.push(first.to_owned());
        } else if clock.acquire(second) {
            out.push(second.to_owned());
        } else {
            clock.tick();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_accumulate_per_tick_and_cap_at_burst() {
        let mut c = Clock::new(2);
        c.register("X", 3);
        assert!(!c.may_call("X"), "no credit before the first tick");
        c.tick();
        assert!(c.may_call("X"));
        // Burst cap: at most 2 ticks of credit (6).
        for _ in 0..10 {
            c.tick();
        }
        let mut calls = 0;
        while c.acquire("X") {
            calls += 1;
        }
        assert_eq!(calls, 6, "credit is capped at per_tick × burst");
        assert_eq!(c.performed("X"), 6);
    }

    #[test]
    fn unknown_services_never_call() {
        let mut c = Clock::new(1);
        c.tick();
        assert!(!c.may_call("ghost"));
        assert!(!c.acquire("ghost"));
        assert_eq!(c.performed("ghost"), 0);
    }

    #[test]
    fn driven_pair_respects_the_inter_service_ratio() {
        // The chapter's example ratio r = 3/5.
        let mut c = Clock::new(1);
        c.register("X", 3);
        c.register("Y", 5);
        let seq = drive_pair(&mut c, "X", "Y", 80);
        assert_eq!(seq.len(), 80);
        let ratio = c.observed_ratio("X", "Y").unwrap();
        assert!(
            (ratio - 0.6).abs() < 0.05,
            "observed ratio {ratio} should approximate 3/5"
        );
    }

    #[test]
    fn even_ratio_alternates() {
        let mut c = Clock::new(1);
        c.register("X", 1);
        c.register("Y", 1);
        let seq = drive_pair(&mut c, "X", "Y", 10);
        let xs = seq.iter().filter(|s| *s == "X").count();
        assert_eq!(xs, 5);
        // Never more than one consecutive call to the same service.
        for w in seq.windows(3) {
            assert!(
                !(w[0] == w[1] && w[1] == w[2]),
                "burst 1 forbids long runs: {seq:?}"
            );
        }
    }

    #[test]
    fn re_registering_updates_the_share() {
        let mut c = Clock::new(1);
        c.register("X", 1);
        c.register("Y", 1);
        drive_pair(&mut c, "X", "Y", 20);
        // Mid-flight re-weighting (the dynamic re-ranking case).
        c.register("X", 4);
        drive_pair(&mut c, "X", "Y", 50);
        let ratio = c.observed_ratio("X", "Y").unwrap();
        assert!(ratio > 1.5, "X should now dominate, observed {ratio}");
    }

    #[test]
    fn clock_pacing_drives_a_real_parallel_join() {
        use seco_join::executor::MemoryStream;
        use seco_join::ParallelJoinExecutor;
        use seco_model::{
            Adornment, AttributeDef, CompositeTuple, DataType, ServiceSchema, Tuple, Value,
        };
        use seco_plan::{Completion, Invocation};
        use seco_query::predicate::SchemaMap;

        let schema = ServiceSchema::new(
            "S",
            vec![AttributeDef::atomic("L", DataType::Int, Adornment::Output)],
        )
        .unwrap();
        let mk = |atom: &str, n: usize| -> Vec<CompositeTuple> {
            (0..n)
                .map(|i| {
                    CompositeTuple::single(
                        atom,
                        Tuple::builder(&schema)
                            .set("L", Value::Int(i as i64 % 4))
                            .score(1.0 - i as f64 / n as f64)
                            .source_rank(i)
                            .build()
                            .unwrap(),
                    )
                })
                .collect()
        };
        let preds = vec![seco_query::predicate::ResolvedPredicate::Join(
            seco_query::JoinPredicate {
                left: seco_query::QualifiedPath::new("A", seco_model::AttributePath::atomic("L")),
                op: seco_model::Comparator::Eq,
                right: seco_query::QualifiedPath::new("B", seco_model::AttributePath::atomic("L")),
            },
        )];
        let mut schemas = SchemaMap::new();
        schemas.insert("A".into(), &schema);
        schemas.insert("B".into(), &schema);
        let exec = ParallelJoinExecutor {
            predicates: &preds,
            schemas: &schemas,
            invocation: Invocation::MergeScan { r1: 1, r2: 3 },
            completion: Completion::Rectangular,
            h: 1,
            k: 0,
            pool: None,
        };
        // Clock-paced run at ratio 1:3.
        let mut pacer = ClockPacing::new(1, 3, 1);
        let mut a = MemoryStream::new(mk("A", 32), 2);
        let mut b = MemoryStream::new(mk("B", 32), 2);
        let paced = exec.run_paced(&mut a, &mut b, &mut pacer).unwrap();
        // Strategy-scheduled run for comparison.
        let mut a2 = MemoryStream::new(mk("A", 32), 2);
        let mut b2 = MemoryStream::new(mk("B", 32), 2);
        let scheduled = exec.run(&mut a2, &mut b2).unwrap();
        // Both explore everything and find the same matches.
        assert!(paced.exhausted && scheduled.exhausted);
        assert_eq!(paced.results.len(), scheduled.results.len());
        assert_eq!(
            (paced.calls_x, paced.calls_y),
            (16, 16),
            "full exploration calls per chunk"
        );
        // Mid-flight the pacer really skews toward Y: inspect the clock.
        assert!(pacer.clock().performed("y") >= pacer.clock().performed("x"));
    }

    #[test]
    fn observed_ratio_is_none_before_both_called() {
        let mut c = Clock::new(1);
        c.register("X", 1);
        c.register("Y", 1);
        assert!(c.observed_ratio("X", "Y").is_none());
        c.tick();
        c.acquire("X");
        assert!(c.observed_ratio("X", "Y").is_none());
        assert_eq!(c.ticks(), 1);
    }
}
