//! A shared work-stealing executor pool for morsel-driven parallelism.
//!
//! One [`ExecPool`] per daemon (or per `seco run` invocation) replaces
//! every bespoke thread the engine used to spawn: the optimizer's
//! phase-2 search workers and the join kernels' own morsels. It is a
//! compute tier only: a fixed set of workers (one per configured
//! core), each with its own deque. Idle workers first drain their own
//! deque from the front, then steal from the *back* of a sibling's
//! deque. Jobs must never block on other jobs — they are leaves
//! (morsels, optimizer probes).
//!
//! Determinism is the caller's job — [`ExecPool::scope_run`] returns
//! results in task-submission order so callers can reduce in a fixed
//! order regardless of which worker ran which morsel — but the pool
//! guarantees the plumbing: every submitted job runs exactly once
//! (even during shutdown the queues are drained before workers exit),
//! panics propagate to the scope owner, and `shutdown()` leaves zero
//! live threads behind.
//!
//! The pool also keeps a **virtual makespan** alongside measured wall
//! time. Every `scope_run` batch records each morsel's measured
//! duration; the batch contributes `sum` to `serial_micros` and
//! `max(longest_morsel, sum / workers)` to `makespan_micros` — the
//! classic greedy-scheduling bound. On a many-core host the measured
//! wall clock and the modeled makespan agree; on a starved host (CI
//! containers often expose a single core) the model still reports the
//! speedup the decomposition *admits*, from real measured morsel
//! times. Benchmarks report both, labeled.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Snapshot of the scheduler counters, for `/stats` and `seco stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Configured compute workers.
    pub workers: usize,
    /// Jobs currently queued across all worker deques.
    pub queue_depth: usize,
    /// Jobs taken from a deque other than the thief's own.
    pub steals: u64,
    /// Total jobs executed on the compute tier.
    pub morsels: u64,
    /// Milliseconds of measured compute-tier work.
    pub busy_ms: u64,
    /// Sum of per-batch morsel times (the serial cost of all batches).
    pub serial_micros: u64,
    /// Sum of per-batch `max(longest morsel, sum / workers)` — the
    /// greedy-scheduling lower bound on parallel wall time.
    pub makespan_micros: u64,
    /// Live compute workers.
    pub threads_alive: usize,
}

struct Inner {
    workers: usize,
    /// Per-worker deques; owners pop the front, thieves pop the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Park gate: compute workers wait here when every queue is empty.
    gate: Mutex<()>,
    cv: Condvar,
    stop: AtomicBool,
    /// Jobs queued but not yet claimed, across all deques.
    pending: AtomicUsize,
    /// Round-robin cursor for scope_run distribution.
    cursor: AtomicUsize,

    steals: AtomicU64,
    morsels: AtomicU64,
    busy_micros: AtomicU64,
    serial_micros: AtomicU64,
    makespan_micros: AtomicU64,
    threads_alive: AtomicUsize,
}

/// The shared compute pool. See the crate docs for the model.
pub struct ExecPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    done: AtomicBool,
}

struct Slot<T> {
    out: Mutex<Option<thread::Result<T>>>,
    micros: AtomicU64,
}

impl ExecPool {
    /// Builds a pool with `workers` compute workers (minimum 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            workers,
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            serial_micros: AtomicU64::new(0),
            makespan_micros: AtomicU64::new(0),
            threads_alive: AtomicUsize::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            let inner = Arc::clone(&inner);
            inner.threads_alive.fetch_add(1, Ordering::SeqCst);
            handles.push(
                thread::Builder::new()
                    .name(format!("seco-exec-{idx}"))
                    .spawn(move || {
                        worker_loop(&inner, idx);
                        inner.threads_alive.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn exec worker"),
            );
        }
        ExecPool {
            inner,
            handles: Mutex::new(handles),
            done: AtomicBool::new(false),
        }
    }

    /// Number of compute workers. Callers gate their parallel paths on
    /// `parallelism() > 1`.
    pub fn parallelism(&self) -> usize {
        self.inner.workers
    }

    /// Live pool threads. Zero after
    /// [`ExecPool::shutdown`].
    pub fn threads_alive(&self) -> usize {
        self.inner.threads_alive.load(Ordering::SeqCst)
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> ExecStats {
        let i = &self.inner;
        ExecStats {
            workers: i.workers,
            queue_depth: i.pending.load(Ordering::SeqCst),
            steals: i.steals.load(Ordering::SeqCst),
            morsels: i.morsels.load(Ordering::SeqCst),
            busy_ms: i.busy_micros.load(Ordering::SeqCst) / 1000,
            serial_micros: i.serial_micros.load(Ordering::SeqCst),
            makespan_micros: i.makespan_micros.load(Ordering::SeqCst),
            threads_alive: i.threads_alive.load(Ordering::SeqCst),
        }
    }

    /// Runs `tasks` on the compute tier and returns their results in
    /// task order. The caller participates: while waiting it pops and
    /// runs queued jobs, so `scope_run` makes progress even on a pool
    /// whose workers are all busy (or on a one-worker pool running the
    /// caller's own morsels). The first panicking task's payload is
    /// resumed after every task has finished.
    pub fn scope_run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Arc<Vec<Slot<T>>> = Arc::new(
            (0..n)
                .map(|_| Slot {
                    out: Mutex::new(None),
                    micros: AtomicU64::new(0),
                })
                .collect(),
        );
        let remaining = Arc::new((Mutex::new(n), Condvar::new()));
        for (i, f) in tasks.into_iter().enumerate() {
            let slots = Arc::clone(&slots);
            let remaining = Arc::clone(&remaining);
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let t0 = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(f));
                slots[i]
                    .micros
                    .store(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
                *slots[i].out.lock().unwrap() = Some(result);
                // Drop our slots clone *before* releasing the latch so
                // the scope owner can unwrap the Arc immediately.
                drop(slots);
                let mut left = remaining.0.lock().unwrap();
                *left -= 1;
                if *left == 0 {
                    remaining.1.notify_all();
                }
            });
            // SAFETY: this scope blocks until every job has run (the
            // `remaining` latch only reaches zero after each closure
            // completes, and workers drain their queues even during
            // shutdown), so the `'env` borrows the closure captures
            // outlive every use. This is the same lifetime erasure
            // `std::thread::scope` performs, with the join expressed
            // as a latch instead of thread handles.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            self.push_compute(job);
        }
        // Participate: run queued jobs (ours or anyone's — they are
        // all leaves) until the latch clears.
        loop {
            if *remaining.0.lock().unwrap() == 0 {
                break;
            }
            if let Some(job) = self.pop_any() {
                run_job(&self.inner, job);
                continue;
            }
            let guard = remaining.0.lock().unwrap();
            if *guard > 0 {
                drop(
                    remaining
                        .1
                        .wait_timeout(guard, std::time::Duration::from_millis(1))
                        .unwrap(),
                );
            }
        }
        // Batch accounting: serial cost vs the greedy-schedule bound.
        let times: Vec<u64> = slots
            .iter()
            .map(|s| s.micros.load(Ordering::SeqCst))
            .collect();
        let sum: u64 = times.iter().sum();
        let max: u64 = times.iter().copied().max().unwrap_or(0);
        let ideal = sum / self.inner.workers as u64;
        self.inner.serial_micros.fetch_add(sum, Ordering::SeqCst);
        self.inner
            .makespan_micros
            .fetch_add(max.max(ideal), Ordering::SeqCst);

        let slots = Arc::try_unwrap(slots).unwrap_or_else(|_| {
            unreachable!("all scope jobs completed; no clones outlive the latch")
        });
        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            match slot.out.into_inner().unwrap().expect("scope job ran") {
                Ok(v) => out.push(v),
                Err(p) => {
                    if panic.is_none() {
                        panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }

    /// Stops and joins every pool thread. Queued compute jobs are
    /// drained (run, not dropped) before workers exit, so in-flight
    /// scopes complete. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        if self.done.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        {
            let _g = self.inner.gate.lock().unwrap();
            self.inner.cv.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn push_compute(&self, job: Job) {
        let inner = &self.inner;
        let idx = inner.cursor.fetch_add(1, Ordering::SeqCst) % inner.workers;
        // Count before pushing: a worker may claim the job (and
        // decrement) the instant it lands, and `pending` must never dip
        // below zero in between.
        inner.pending.fetch_add(1, Ordering::SeqCst);
        inner.queues[idx].lock().unwrap().push_back(job);
        let _g = inner.gate.lock().unwrap();
        inner.cv.notify_all();
    }

    /// Pops any queued compute job from the back of a worker deque (a
    /// steal). Used by participating scope callers.
    fn pop_any(&self) -> Option<Job> {
        let inner = &self.inner;
        for q in &inner.queues {
            if let Some(job) = q.lock().unwrap().pop_back() {
                inner.pending.fetch_sub(1, Ordering::SeqCst);
                inner.steals.fetch_add(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_job(inner: &Inner, job: Job) {
    let t0 = Instant::now();
    job();
    inner
        .busy_micros
        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
    inner.morsels.fetch_add(1, Ordering::SeqCst);
}

fn worker_loop(inner: &Inner, me: usize) {
    loop {
        // Own deque (front), then steal (back).
        let job = {
            let own = inner.queues[me].lock().unwrap().pop_front();
            match own {
                Some(job) => {
                    inner.pending.fetch_sub(1, Ordering::SeqCst);
                    Some(job)
                }
                None => {
                    let mut stolen = None;
                    for off in 1..inner.workers {
                        let victim = (me + off) % inner.workers;
                        if let Some(job) = inner.queues[victim].lock().unwrap().pop_back() {
                            inner.pending.fetch_sub(1, Ordering::SeqCst);
                            inner.steals.fetch_add(1, Ordering::SeqCst);
                            stolen = Some(job);
                            break;
                        }
                    }
                    stolen
                }
            }
        };
        if let Some(job) = job {
            run_job(inner, job);
            continue;
        }
        // Park. Stop only once every queue is drained, so in-flight
        // scopes always complete.
        let guard = inner.gate.lock().unwrap();
        if inner.stop.load(Ordering::SeqCst) {
            if inner.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            continue;
        }
        if inner.pending.load(Ordering::SeqCst) > 0 {
            continue;
        }
        drop(
            inner
                .cv
                .wait_timeout(guard, std::time::Duration::from_millis(10))
                .unwrap(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_run_returns_results_in_task_order() {
        let pool = ExecPool::new(4);
        let tasks: Vec<_> = (0..64).map(|i| move || i * 3).collect();
        let out = pool.scope_run(tasks);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        pool.shutdown();
        assert_eq!(pool.threads_alive(), 0);
    }

    #[test]
    fn scope_run_borrows_the_environment() {
        let pool = ExecPool::new(2);
        let data: Vec<u64> = (0..1000).collect();
        let slices: Vec<&[u64]> = data.chunks(100).collect();
        let sums = pool.scope_run(
            slices
                .iter()
                .map(|s| move || s.iter().sum::<u64>())
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn scope_run_propagates_panics_after_all_tasks_finish() {
        let pool = ExecPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 3 {
                        panic!("morsel {i} failed");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| pool.scope_run(tasks)));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 8, "every task still ran");
    }

    #[test]
    fn one_worker_pool_still_completes_scopes_via_caller_participation() {
        let pool = ExecPool::new(1);
        // The caller runs its own morsels alongside the single worker.
        let out = pool.scope_run((0..16).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn shutdown_is_idempotent_and_leaves_no_threads() {
        let pool = ExecPool::new(3);
        assert_eq!(pool.threads_alive(), 3);
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.threads_alive(), 0);
    }

    #[test]
    fn queue_depth_never_exceeds_the_jobs_submitted() {
        const JOBS: usize = 2_000;
        let pool = ExecPool::new(4);
        let running = AtomicBool::new(true);
        let max_seen = std::thread::scope(|s| {
            let poller = s.spawn(|| {
                let mut max = 0usize;
                while running.load(Ordering::SeqCst) {
                    max = max.max(pool.stats().queue_depth);
                }
                max
            });
            for _ in 0..20 {
                let out = pool.scope_run((0..JOBS).map(|i| move || i).collect::<Vec<_>>());
                assert_eq!(out.len(), JOBS);
            }
            running.store(false, Ordering::SeqCst);
            poller.join().unwrap()
        });
        assert!(
            max_seen <= JOBS,
            "queue depth {max_seen} exceeds the {JOBS} jobs submitted"
        );
        assert_eq!(pool.stats().queue_depth, 0, "every job was claimed");
    }

    #[test]
    fn counters_track_morsels_and_makespan() {
        let pool = ExecPool::new(4);
        let _ = pool.scope_run(
            (0..32)
                .map(|i| {
                    move || {
                        // Do a little real work so timings are nonzero.
                        (0..10_000u64).fold(i as u64, |a, b| a.wrapping_add(b * b))
                    }
                })
                .collect::<Vec<_>>(),
        );
        let stats = pool.stats();
        assert!(stats.morsels >= 1);
        assert!(stats.serial_micros >= stats.makespan_micros);
        assert_eq!(stats.workers, 4);
    }
}
