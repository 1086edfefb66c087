//! Spans recorded around calls into the serving stack's public seams.
//!
//! The traced run wraps two seams: [`Traced`] is a `Serving` impl around
//! a `Service` or `ShardedService` (so the TCP server's own ticker is
//! traced too), and [`TracedLink`] is a `ShardLink` impl around the
//! relay's end of a shard link. Spans go into one preallocated buffer
//! and are written out when the run ends; nothing inside the program is
//! instrumented.

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tmwia_obs::MetricId;
use tmwia_service::{
    ReplySender, Request, Service, Serving, SessionId, ShardLink, ShardedService, WireError,
};

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `Serving::tick` call.
    Tick,
    /// `Serving::submit` of a write (Join/Leave/Probe/Post/Shutdown).
    SubmitWrite,
    /// `Serving::submit` of a read (Read/Recommend).
    SubmitRead,
    /// `ShardLink::send` on the relay's end of a link.
    LinkSend,
    /// `ShardLink::recv` on the relay's end of a link.
    LinkRecv,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Tick => "tick",
            Kind::SubmitWrite => "submit_write",
            Kind::SubmitRead => "submit_read",
            Kind::LinkSend => "link_send",
            Kind::LinkRecv => "link_recv",
        }
    }
}

/// Parent ids of tick spans carry this bit; request spans use the
/// request id, which the load generators keep below it.
pub const TICK_PARENT: u64 = 1 << 63;

/// One recorded span. `parent` is the request id of a submit span, the
/// tick number (with [`TICK_PARENT`]) of a tick span, and for a link
/// span the id of the submit or tick span it ran inside. For a tick,
/// `a` is the queue length at tick start, `b` the writes it executed
/// and `flag` whether it persisted a snapshot; for a link span `a` is
/// the frame's byte count.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub a: u64,
    pub b: u64,
    pub flag: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The span id that link calls on this thread run inside.
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
}

/// The preallocated span buffer shared by every wrapper of one run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        if spans.len() < spans.capacity() {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans that did not fit the preallocated buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Take the recorded spans, keeping the buffer's allocation.
    pub fn take(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .drain(..)
            .collect()
    }
}

/// Write spans as tab-separated lines: kind, start, end, parent, a, b, flag.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "kind\tstart_ns\tend_ns\tparent\ta\tb\tflag")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.parent,
            s.a,
            s.b,
            u8::from(s.flag)
        )?;
    }
    out.flush()
}

/// Cheap monotone counters a traced backend exposes, read before and
/// after every tick so each tick span carries its own counts.
#[derive(Clone, Copy)]
pub struct TickCounters {
    /// Writes executed so far.
    pub executed: u64,
    /// Sealed board epoch, where the backend exposes it.
    pub epoch: Option<u64>,
    /// Snapshots persisted to the WAL directory so far.
    pub snapshots: u64,
}

pub trait Counters {
    fn counters(&self) -> TickCounters;
}

impl Counters for Service {
    fn counters(&self) -> TickCounters {
        let obs = self.obs();
        let reads = obs.get(MetricId::ReadsServed) + obs.get(MetricId::RecommendsServed);
        TickCounters {
            executed: self.served_total().saturating_sub(reads),
            epoch: Some(self.snapshot().epoch),
            snapshots: obs.get(MetricId::SnapshotsSealed),
        }
    }
}

impl<L: ShardLink> Counters for ShardedService<L> {
    fn counters(&self) -> TickCounters {
        // The relay is driven from one thread, so no read is served
        // while a tick runs: the served delta is the tick's writes.
        TickCounters {
            executed: self.served_total(),
            epoch: None,
            snapshots: 0,
        }
    }
}

/// Writes a tick executed. A read served concurrently (TCP front door)
/// can land between the loads that make up one reading; an unchanged
/// epoch pins such a tick to zero.
fn executed_between(before: TickCounters, after: TickCounters) -> u64 {
    if before.epoch.is_some() && before.epoch == after.epoch {
        return 0;
    }
    after.executed.saturating_sub(before.executed)
}

/// A `Serving` wrapper that times `submit` by request kind and `tick`
/// with its counter deltas.
pub struct Traced<S> {
    inner: S,
    tracer: Arc<Tracer>,
    ticks: AtomicU64,
}

impl<S> Traced<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        Traced {
            inner,
            tracer,
            ticks: AtomicU64::new(0),
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

fn is_read(req: &Request) -> bool {
    matches!(
        req,
        Request::Read { .. } | Request::Recommend { .. } | Request::Stats | Request::Metrics
    )
}

impl<S: Serving + Counters> Serving for Traced<S> {
    fn submit(&self, id: u64, req: Request, reply: &ReplySender) {
        let kind = if is_read(&req) {
            Kind::SubmitRead
        } else {
            Kind::SubmitWrite
        };
        CONTEXT.with(|c| c.set(id));
        let start_ns = self.tracer.now_ns();
        self.inner.submit(id, req, reply);
        let end_ns = self.tracer.now_ns();
        self.tracer.push(Span {
            kind,
            start_ns,
            end_ns,
            parent: id,
            a: 0,
            b: 0,
            flag: false,
        });
    }

    fn tick(&self) {
        let tick_no = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        let queued = self.inner.queue_len() as u64;
        let before = self.inner.counters();
        CONTEXT.with(|c| c.set(TICK_PARENT | tick_no));
        let start_ns = self.tracer.now_ns();
        self.inner.tick();
        let end_ns = self.tracer.now_ns();
        let after = self.inner.counters();
        self.tracer.push(Span {
            kind: Kind::Tick,
            start_ns,
            end_ns,
            parent: TICK_PARENT | tick_no,
            a: queued,
            b: executed_between(before, after),
            flag: after.snapshots > before.snapshots,
        });
    }

    fn submit_teardown(&self, session: SessionId) {
        self.inner.submit_teardown(session);
    }
    fn current_tick(&self) -> u64 {
        self.inner.current_tick()
    }
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
    fn batch_size(&self) -> usize {
        self.inner.batch_size()
    }
    fn queue_capacity(&self) -> usize {
        self.inner.queue_capacity()
    }
    fn recommend_cap(&self) -> u16 {
        self.inner.recommend_cap()
    }
    fn is_shutdown(&self) -> bool {
        self.inner.is_shutdown()
    }
    fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }
    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }
    fn served_total(&self) -> u64 {
        self.inner.served_total()
    }
    fn rejected_total(&self) -> u64 {
        self.inner.rejected_total()
    }
    fn sessions_minted(&self) -> usize {
        self.inner.sessions_minted()
    }
    fn obs_report(&self) -> tmwia_obs::ObsReport {
        self.inner.obs_report()
    }
}

/// A `ShardLink` wrapper that times `send`/`recv` and counts frame bytes.
pub struct TracedLink<L> {
    inner: L,
    tracer: Arc<Tracer>,
}

impl<L> TracedLink<L> {
    pub fn new(inner: L, tracer: Arc<Tracer>) -> Self {
        TracedLink { inner, tracer }
    }

    fn record(&self, kind: Kind, start_ns: u64, bytes: usize) {
        let end_ns = self.tracer.now_ns();
        self.tracer.push(Span {
            kind,
            start_ns,
            end_ns,
            parent: CONTEXT.with(Cell::get),
            a: bytes as u64,
            b: 0,
            flag: false,
        });
    }
}

impl<L: ShardLink> ShardLink for TracedLink<L> {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        let start_ns = self.tracer.now_ns();
        let out = self.inner.send(frame);
        self.record(Kind::LinkSend, start_ns, frame.len());
        out
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let start_ns = self.tracer.now_ns();
        let out = self.inner.recv();
        let bytes = match &out {
            Ok(Some(body)) => body.len(),
            _ => 0,
        };
        self.record(Kind::LinkRecv, start_ns, bytes);
        out
    }
}
