//! The `frontdoor` workload: an open loop over loopback TCP.
//!
//! The server runs in this process through `tcp::serve` with default
//! `ServeOptions` (1 ms ticker), not durable. Connection R sends
//! Read/Recommend (50/50) at a fixed rate; connection W holds one
//! session and sends Probe/Post (3:1) at a fixed rate. A request that
//! waits for the reply before it is timed from its intended send time,
//! so a stall also counts against the requests due behind it.

use crate::layers::LayerAcc;
use crate::report::{
    even_windows, latency_pair, median_f64, peak_rss_mib, percentile, windowed_latencies, Metric,
};
use crate::trace::{Traced, Tracer};
use crate::{Ctx, Outcome};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tmwia_model::generators::planted_community;
use tmwia_model::rng::derive;
use tmwia_service::{
    decode_response, encode_request, read_frame, serve, Request, Response, ServeOptions,
    ServeSummary, Service, ServiceConfig, Serving, TcpServer,
};

const TAG_KIND: u64 = 0x7065_7266_6664_6b01;
const TAG_OBJECT: u64 = 0x7065_7266_6664_6f02;

/// A reply slower than this counts as a failure and ends the connection.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// A send that starts this much after its intended time is late.
const LATE: Duration = Duration::from_millis(1);

/// Latency windows per run (fewer when a window would hold under 1000
/// samples).
const WINDOWS: usize = 10;

/// Set-ups per untraced run; the median is reported.
const SETUPS: usize = 25;

pub struct Params {
    pub n: usize,
    pub m: usize,
    pub reads_per_s: u64,
    pub writes_per_s: u64,
    pub recommend_count: u16,
}

pub fn params(toy: bool) -> Params {
    if toy {
        return Params {
            n: 256,
            m: 128,
            reads_per_s: 400,
            writes_per_s: 40,
            recommend_count: 8,
        };
    }
    Params {
        n: 4096,
        m: 512,
        reads_per_s: 8000,
        writes_per_s: 500,
        recommend_count: 16,
    }
}

/// A blocking client connection speaking the wire codec.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn { stream })
    }

    fn call(&mut self, id: u64, req: &Request) -> Result<Response, String> {
        self.stream
            .write_all(&encode_request(id, req))
            .map_err(|e| format!("send: {e}"))?;
        let body = read_frame(&mut self.stream)
            .map_err(|e| format!("reply: {e}"))?
            .ok_or("server closed the connection")?;
        let (rid, resp) = decode_response(&body).map_err(|e| format!("decode: {e}"))?;
        if rid != id {
            return Err(format!("reply id {rid} for request {id}"));
        }
        Ok(resp)
    }
}

/// One connection's samples, preallocated for its schedule.
#[derive(Default)]
struct ConnSamples {
    /// Due time → reply, nanoseconds (see `open_loop`).
    latency_ns: Vec<u64>,
    /// Actual send → reply, nanoseconds.
    rtt_ns: Vec<u64>,
    join_ns: Vec<u64>,
    attempted: u64,
    completed: u64,
    failed: u64,
    late: u64,
    mismatched: u64,
    epoch_regressions: u64,
    sleep_ns: u64,
    failures: Vec<String>,
}

impl ConnSamples {
    fn with_capacity(n: usize) -> Self {
        ConnSamples {
            latency_ns: Vec::with_capacity(n),
            rtt_ns: Vec::with_capacity(n),
            ..ConnSamples::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Is `resp` the success reply for `req`? Also returns its epoch, if it
/// carries one.
fn expected(req: &Request, resp: &Response) -> Option<Option<u64>> {
    match (req, resp) {
        (Request::Read { .. }, Response::Board { epoch, .. }) => Some(Some(*epoch)),
        (Request::Recommend { .. }, Response::Recommended { epoch, .. }) => Some(Some(*epoch)),
        (Request::Post { .. }, Response::Posted { epoch, .. }) => Some(Some(*epoch)),
        (Request::Probe { .. }, Response::Grade { .. }) => Some(None),
        (Request::Join, Response::Joined { .. }) => Some(None),
        _ => None,
    }
}

/// Send `next(i)` at `start + i * period` until `end`, one request in
/// flight at a time.
fn open_loop(
    conn: &mut Conn,
    start: Instant,
    period: Duration,
    end: Instant,
    out: &mut ConnSamples,
    mut next: impl FnMut(u64, Option<&Response>) -> Request,
) {
    let mut last_epoch = 0u64;
    let mut last: Option<Response> = None;
    let mut free_at = start;
    for i in 0u64.. {
        let intended = start + period * i as u32;
        if intended >= end {
            break;
        }
        let now = Instant::now();
        if now < intended {
            std::thread::sleep(intended - now);
            out.sleep_ns += (intended - now).as_nanos() as u64;
        }
        let req = next(i, last.as_ref());
        let sent = Instant::now();
        if sent.duration_since(intended) > LATE {
            out.late += 1;
        }
        // A request held back by the reply before it is timed from its
        // intended send time. One sent from an idle generator is timed
        // from the send itself: a sleep wakes tens of microseconds late,
        // and that is the generator's own lateness, not the server's.
        let due = if free_at > intended { intended } else { sent };
        out.attempted += 1;
        let resp = match conn.call(i + 1, &req) {
            Ok(resp) => resp,
            Err(e) => {
                // The stream's framing can no longer be trusted.
                out.fail(format!("request {}: {e}", i + 1));
                return;
            }
        };
        let done = Instant::now();
        free_at = done;
        match expected(&req, &resp) {
            Some(epoch) => {
                if let Some(e) = epoch {
                    if e < last_epoch {
                        out.epoch_regressions += 1;
                    }
                    last_epoch = e;
                }
                out.completed += 1;
                let latency = done.duration_since(due).as_nanos() as u64;
                if matches!(req, Request::Join) {
                    out.join_ns.push(latency);
                }
                out.latency_ns.push(latency);
                out.rtt_ns.push(done.duration_since(sent).as_nanos() as u64);
            }
            None => {
                if !matches!(
                    resp,
                    Response::Busy { .. } | Response::Error { .. } | Response::ShuttingDown
                ) {
                    out.mismatched += 1;
                }
                out.fail(format!("{req:?} answered {resp:?}"));
            }
        }
        last = Some(resp);
    }
}

struct Server<S: Serving + 'static> {
    svc: Arc<S>,
    server: TcpServer<S>,
    reader: Conn,
    writer: Conn,
}

fn start<S: Serving + 'static>(svc: S) -> Result<Server<S>, String> {
    let svc = Arc::new(svc);
    let server = serve(Arc::clone(&svc), "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr().to_string();
    let reader = Conn::connect(&addr)?;
    let writer = Conn::connect(&addr)?;
    Ok(Server {
        svc,
        server,
        reader,
        writer,
    })
}

impl<S: Serving + 'static> Server<S> {
    /// Hang up both connections, shut the server down and join it.
    fn stop(self) -> (Arc<S>, ServeSummary) {
        drop(self.reader);
        drop(self.writer);
        self.svc.request_shutdown();
        (self.svc, self.server.join())
    }
}

fn build(p: &Params, seed: u64) -> Result<Service, String> {
    let truth = planted_community(p.n, p.m, p.n / 2, 8, seed).truth;
    let cfg = ServiceConfig {
        seed,
        ..ServiceConfig::default()
    };
    Service::new(truth, cfg).map_err(|e| format!("frontdoor set-up: {e}"))
}

/// One measured phase's results.
struct Phase {
    reads: ConnSamples,
    writes: ConnSamples,
    wall_ns: u64,
    summary: ServeSummary,
    end: Vec<Metric>,
}

fn run_phase<S: Serving + 'static>(
    ctx: &Ctx,
    p: &Params,
    mut server: Server<S>,
    service: impl Fn(&S) -> &Service,
) -> Phase {
    let seconds = Duration::from_secs_f64(ctx.seconds);
    let r_period = Duration::from_nanos(1_000_000_000 / p.reads_per_s);
    let w_period = Duration::from_nanos(1_000_000_000 / p.writes_per_s);
    let mut reads = ConnSamples::with_capacity((ctx.seconds * p.reads_per_s as f64) as usize + 16);
    let mut writes =
        ConnSamples::with_capacity((ctx.seconds * p.writes_per_s as f64) as usize + 16);
    let seed = ctx.seed;
    let m = p.m as u64;
    let recommend_count = p.recommend_count;
    let barrier = Barrier::new(2);
    let (begin, finish) = std::thread::scope(|s| {
        let (reader, writer) = (&mut server.reader, &mut server.writer);
        let (reads, writes, barrier) = (&mut reads, &mut writes, &barrier);
        let r = s.spawn(move || {
            barrier.wait();
            let begin = Instant::now();
            let end = begin + seconds;
            open_loop(reader, begin, r_period, end, reads, |i, _| {
                if derive(seed, TAG_KIND, i).is_multiple_of(2) {
                    Request::Read {
                        object: (derive(seed, TAG_OBJECT, i) % m) as u32,
                    }
                } else {
                    Request::Recommend {
                        count: recommend_count,
                    }
                }
            });
            (begin, Instant::now())
        });
        barrier.wait();
        let begin = Instant::now();
        let end = begin + seconds;
        let offset = derive(seed, TAG_OBJECT, u64::MAX) % m;
        let mut session = None;
        let mut walked = 0u64;
        let mut last_grade: Option<(u32, bool)> = None;
        open_loop(writer, begin, w_period, end, writes, |i, last| {
            match last {
                Some(Response::Joined { session: s, .. }) => session = Some(*s),
                Some(Response::Grade { object, value, .. }) => last_grade = Some((*object, *value)),
                _ => {}
            }
            let Some(session) = session else {
                return Request::Join;
            };
            match last_grade {
                Some((object, grade))
                    if derive(seed, TAG_KIND, i ^ (1 << 63)).is_multiple_of(4) =>
                {
                    Request::Post {
                        session,
                        object,
                        grade,
                    }
                }
                _ => {
                    let object = ((offset + walked) % m) as u32;
                    walked += 1;
                    Request::Probe {
                        session,
                        object,
                        share: true,
                    }
                }
            }
        });
        let (r_begin, r_end) = r.join().expect("reader thread panicked");
        (begin.min(r_begin), Instant::now().max(r_end))
    });
    let (svc, summary) = server.stop();
    let inner = service(&svc);
    let snap = inner.snapshot();
    let entries = snap.posts.values().map(|c| c.entries.len()).sum::<usize>();
    let end = crate::inproc::end_counters(
        &inner.obs_report(),
        inner.sessions_minted(),
        p.n,
        &[(snap.posts.len(), entries)],
    );
    Phase {
        reads,
        writes,
        wall_ns: finish.duration_since(begin).as_nanos() as u64,
        summary,
        end,
    }
}

fn gates(out: &mut Outcome, phase: &Phase, label: &str) {
    let mismatched = phase.reads.mismatched + phase.writes.mismatched;
    out.gate(
        &format!("{label}replies_have_expected_type"),
        mismatched == 0,
        format!("{mismatched} replies of the wrong type"),
    );
    let regressions = phase.reads.epoch_regressions + phase.writes.epoch_regressions;
    out.gate(
        &format!("{label}epochs_never_decrease"),
        regressions == 0,
        format!("{regressions} epoch regressions"),
    );
    out.gate(
        &format!("{label}serve_summary_clean"),
        phase.summary.clean,
        format!(
            "ticks={} served={} rejected={} ticker_panic={:?}",
            phase.summary.ticks,
            phase.summary.served,
            phase.summary.rejected,
            phase.summary.ticker_panic
        ),
    );
    for conn in [&phase.reads, &phase.writes] {
        out.attempted += conn.attempted;
        out.failed += conn.failed;
        out.failures.extend(conn.failures.iter().cloned());
    }
}

pub fn frontdoor(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let p = params(ctx.toy);
    out.params.extend([
        ("n".into(), p.n.to_string()),
        ("m".into(), p.m.to_string()),
        ("reads_per_s".into(), p.reads_per_s.to_string()),
        ("writes_per_s".into(), p.writes_per_s.to_string()),
        ("recommend_count".into(), p.recommend_count.to_string()),
        ("tick_interval_ms".into(), "1".into()),
        ("durable".into(), "false".into()),
        ("connections".into(), "2".into()),
    ]);
    // Set-up (instance, service, server, first connect) is timed
    // several times; the last server built is the one measured.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            let (_, summary): (_, ServeSummary) = Server::<Service>::stop(old);
            if !summary.clean {
                return Err("a set-up server did not shut down cleanly".into());
            }
        }
        let t0 = Instant::now();
        server = Some(start(build(&p, ctx.seed)?)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let mut untraced = run_phase(ctx, &p, server, |s| s);
    gates(out, &untraced, "");

    let completed = untraced.reads.completed + untraced.writes.completed;
    out.metrics.push(Metric::new(
        "throughput_rps",
        completed as f64 / (untraced.wall_ns as f64 * 1e-9),
        "1/s",
        completed,
    ));
    // Latencies are medians over windows of the run, in send order,
    // each window large enough for its p99 to have 10 samples beyond.
    for (prefix, conn, unit) in [
        ("write", &mut untraced.writes, "ms"),
        ("read", &mut untraced.reads, "us"),
    ] {
        let ends = even_windows(conn.latency_ns.len(), WINDOWS, 1000);
        out.metrics.extend(windowed_latencies(
            prefix,
            &mut conn.latency_ns,
            &ends,
            unit,
        ));
    }
    out.metrics
        .push(Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", 1));
    out.metrics.push(Metric::new(
        "setup_s",
        median_f64(&setup_s),
        "s",
        setup_s.len() as u64,
    ));

    if ctx.trace {
        let capacity = (ctx.seconds * (p.reads_per_s + p.writes_per_s + 1200) as f64) as usize;
        let tracer = Tracer::new(capacity);
        let server = start(Traced::new(build(&p, ctx.seed)?, Arc::clone(&tracer)))?;
        tracer.take();
        let mut traced = run_phase(ctx, &p, server, |t: &Traced<Service>| t.inner());
        gates(out, &traced, "traced_");
        let spans = tracer.take();
        if tracer.dropped() > 0 {
            return Err(format!(
                "{} spans did not fit the span buffer",
                tracer.dropped()
            ));
        }
        let mut layers = LayerAcc::default();
        layers.absorb(&spans);
        let mut layer_metrics = layers.metrics(ServiceConfig::default().batch_size, traced.wall_ns);
        let read_us_p50 = layer_metrics
            .iter()
            .find(|m| m.name == "snapshot.read_us_p50")
            .map_or(0.0, |m| m.value);
        out.metrics.append(&mut layer_metrics);
        out.metrics.extend(traced.end.iter().cloned());
        let [rtt50, rtt99] = latency_pair("tcp.read_rtt", &mut traced.reads.rtt_ns, "us");
        out.metrics.push(Metric::new(
            "tcp.transport_us_p50",
            rtt50.value - read_us_p50,
            "us",
            rtt50.samples,
        ));
        out.metrics.extend([rtt50, rtt99]);
        out.metrics
            .push(latency_pair("tcp.write_rtt", &mut traced.writes.rtt_ns, "ms")[0].clone());
        out.metrics
            .push(latency_pair("registry.join", &mut traced.writes.join_ns, "ms")[0].clone());
        let sent = traced.reads.attempted + traced.writes.attempted;
        out.metrics.push(Metric::new(
            "generator.late_share",
            (traced.reads.late + traced.writes.late) as f64 / sent.max(1) as f64,
            "ratio",
            sent,
        ));
        // Open loop: the generator's own time is what is left of each
        // thread's wall time after sleeping and waiting for replies.
        let waited: u64 = [&traced.reads, &traced.writes]
            .iter()
            .map(|c| c.sleep_ns + c.rtt_ns.iter().sum::<u64>())
            .sum();
        let threads_wall = 2 * traced.wall_ns;
        out.metrics.push(Metric::new(
            "generator.self_share",
            threads_wall.saturating_sub(waited) as f64 / threads_wall.max(1) as f64,
            "ratio",
            sent,
        ));
        // Open loop: the overhead is the traced phase's extra median
        // read latency.
        let p50 = |c: &mut ConnSamples| percentile(&mut c.latency_ns, 0.5) as f64;
        out.metrics.push(Metric::new(
            "generator.trace_overhead_pct",
            (p50(&mut traced.reads) / p50(&mut untraced.reads).max(1.0) - 1.0) * 100.0,
            "%",
            traced.reads.completed,
        ));
        out.spans = spans;
    }

    Ok(())
}
