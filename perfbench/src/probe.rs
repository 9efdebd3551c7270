//! Measurement plumbing that lives outside the program under test: the
//! service timing wrapper and the span recorder of the traced run.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use seco_model::ServiceInterface;
use seco_services::{ChunkResponse, Request, Service, ServiceError};

/// One recorded span: a call into a layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Enclosing span (0 for a root).
    pub parent: u32,
    /// The top-level query (session) the span belongs to.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a span opens: the request it serves and its parent span.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub request: u32,
    pub parent: u32,
}

/// Fetch counters fed by every [`TimedService`], plus the span buffer
/// of the traced run. Spans stay in memory until the run ends.
pub struct Probe {
    epoch: Instant,
    fetches: AtomicU64,
    fetch_ns: AtomicU64,
    tracing: AtomicBool,
    next_id: AtomicU32,
    /// `(request << 32) | span` of the traced call whose fetches are
    /// being timed, or 0. Only sequential callers (the one-shot client
    /// and the in-process replay) set it, so every fetch seen while it
    /// is set belongs to that call.
    fetch_parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Probe {
    pub fn new() -> Arc<Self> {
        Arc::new(Probe {
            epoch: Instant::now(),
            fetches: AtomicU64::new(0),
            fetch_ns: AtomicU64::new(0),
            tracing: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            fetch_parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `(real fetches, nanoseconds inside them)` so far.
    pub fn fetch_totals(&self) -> (u64, u64) {
        (
            self.fetches.load(Ordering::Relaxed),
            self.fetch_ns.load(Ordering::Relaxed),
        )
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Allocates a span id for a call about to start.
    pub fn open(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, id: u32, ctx: Ctx, name: &'static str, start_ns: u64) {
        self.record_span(id, ctx, name, start_ns, self.now_ns());
    }

    pub fn record_span(&self, id: u32, ctx: Ctx, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.lock().expect("span buffer lock").push(Span {
            id,
            parent: ctx.parent,
            request: ctx.request,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name` when `ctx` is set; without a
    /// context it only runs `f`.
    pub fn span<T>(
        &self,
        ctx: Option<Ctx>,
        name: &'static str,
        f: impl FnOnce(Option<Ctx>) -> T,
    ) -> T {
        let Some(ctx) = ctx else { return f(None) };
        let id = self.open();
        let start = self.now_ns();
        let out = f(Some(Ctx {
            request: ctx.request,
            parent: id,
        }));
        self.record(id, ctx, name, start);
        out
    }

    /// Like [`Probe::span`], and attributes the fetches made during `f`
    /// to this span.
    pub fn span_fetching<T>(
        &self,
        ctx: Option<Ctx>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(ctx) = ctx else { return f() };
        let id = self.open();
        let start = self.now_ns();
        self.fetch_parent
            .store(((ctx.request as u64) << 32) | id as u64, Ordering::SeqCst);
        let out = f();
        self.fetch_parent.store(0, Ordering::SeqCst);
        self.record(id, ctx, name, start);
        out
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// A service wrapper with the same interface and answers as the
/// service it wraps, which counts and times each fetch. It is
/// registered below the registry's call recorder and the daemon's
/// fetch cache, so it sees only fetches that reach the service.
pub struct TimedService {
    inner: Arc<dyn Service>,
    probe: Arc<Probe>,
}

impl TimedService {
    pub fn new(inner: Arc<dyn Service>, probe: Arc<Probe>) -> Self {
        TimedService { inner, probe }
    }
}

impl Service for TimedService {
    fn interface(&self) -> &ServiceInterface {
        self.inner.interface()
    }

    fn fetch(&self, request: &Request) -> Result<ChunkResponse, ServiceError> {
        let p = &self.probe;
        let start = p.now_ns();
        let out = self.inner.fetch(request);
        let end = p.now_ns();
        p.fetches.fetch_add(1, Ordering::Relaxed);
        p.fetch_ns.fetch_add(end - start, Ordering::Relaxed);
        if p.tracing.load(Ordering::Relaxed) {
            let parent = p.fetch_parent.load(Ordering::SeqCst);
            if parent != 0 {
                let id = p.open();
                p.spans.lock().expect("span buffer lock").push(Span {
                    id,
                    parent: parent as u32,
                    request: (parent >> 32) as u32,
                    name: "fetch",
                    start_ns: start,
                    end_ns: end,
                });
            }
        }
        out
    }
}

/// Per-name `(total, self)` time in nanoseconds, summed over `spans`.
/// A span's self time is its duration minus the union of its children's
/// intervals.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += total;
        e.1 += total.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((s, e)) = cur {
        total += e - s;
    }
    total
}
