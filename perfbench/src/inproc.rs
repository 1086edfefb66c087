//! The in-process closed-loop workloads: `ingest`, `churn` and `relay`.

use crate::closed::{drive, Mix, Plan, Samples};
use crate::layers::LayerAcc;
use crate::report::{latency_pair, median_f64, peak_rss_mib, windowed_latencies, Metric};
use crate::trace::{Span, Traced, TracedLink, Tracer};
use crate::{Ctx, Outcome};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use tmwia_model::generators::planted_community;
use tmwia_model::PrefMatrix;
use tmwia_obs::{fnv64, MetricId, ObsReport};
use tmwia_service::{
    channel_pair, run_shard_worker, ChannelLink, Durability, RecoverOptions, Relay, RelayConfig,
    Service, ServiceConfig, Serving, ShardLink, ShardedService, WireError,
};

/// Every phase runs at least this many episodes.
const MIN_EPISODES: usize = 3;

/// Set-up is timed at least this often per phase (episodes, then
/// set-ups that are torn down without driving traffic).
const MIN_SETUPS: usize = 15;

/// Snapshot period of the durable `ingest` service (the CLI default).
const SNAPSHOT_EVERY: u64 = 64;

/// Relay shard count.
const SHARDS: usize = 2;

/// Planted community of `n / 2` players with diameter ≤ 8, as `tmwia
/// generate` and `tmwia load` build by default.
fn instance(n: usize, m: usize, seed: u64) -> PrefMatrix {
    planted_community(n, m, n / 2, 8, seed).truth
}

fn service_config(plan: &Plan, seed: u64) -> ServiceConfig {
    ServiceConfig {
        batch_size: plan.batch,
        queue_capacity: plan.queue,
        seed,
        ..ServiceConfig::default()
    }
}

pub fn ingest_plan(toy: bool) -> Plan {
    let mix = Mix {
        probe: 600,
        post: 300,
        read: 50,
        recommend: 50,
    };
    if toy {
        return Plan {
            n: 256,
            m: 1024,
            batch: 16,
            queue: 64,
            sessions: 32,
            requests_per_session: 48,
            mix,
            leave_after: None,
            recommend_count: 8,
        };
    }
    Plan {
        n: 4096,
        m: 32768,
        batch: 64,
        queue: 256,
        sessions: 256,
        requests_per_session: 224,
        mix,
        leave_after: None,
        recommend_count: 16,
    }
}

pub fn churn_plan(toy: bool) -> Plan {
    let mix = Mix {
        probe: 600,
        post: 300,
        read: 50,
        recommend: 50,
    };
    if toy {
        return Plan {
            n: 2048,
            m: 128,
            batch: 16,
            queue: 64,
            sessions: 32,
            requests_per_session: 48,
            mix,
            leave_after: Some(16),
            recommend_count: 8,
        };
    }
    Plan {
        n: 65536,
        m: 512,
        batch: 64,
        queue: 256,
        sessions: 256,
        requests_per_session: 512,
        mix,
        leave_after: Some(16),
        recommend_count: 16,
    }
}

pub fn relay_plan(toy: bool) -> Plan {
    let mix = Mix {
        probe: 550,
        post: 250,
        read: 100,
        recommend: 100,
    };
    if toy {
        return Plan {
            n: 256,
            m: 256,
            batch: 16,
            queue: 64,
            sessions: 32,
            requests_per_session: 24,
            mix,
            leave_after: None,
            recommend_count: 8,
        };
    }
    Plan {
        n: 4096,
        m: 2048,
        batch: 64,
        queue: 256,
        sessions: 256,
        requests_per_session: 24,
        mix,
        leave_after: None,
        recommend_count: 16,
    }
}

/// What one episode hands back to the phase loop.
struct Episode {
    setup_s: f64,
    digest: u64,
    spans: Vec<Span>,
    /// End-of-episode figures: counters and board size.
    end: Vec<Metric>,
}

impl Episode {
    fn setup_only(setup_s: f64) -> Self {
        Episode {
            setup_s,
            digest: 0,
            spans: Vec::new(),
            end: Vec::new(),
        }
    }
}

/// A measured phase: episodes until `seconds` have passed (and at
/// least [`MIN_EPISODES`]).
struct Phase {
    samples: Samples,
    setup_s: Vec<f64>,
    digests: Vec<u64>,
    layers: Option<LayerAcc>,
    /// The last episode's spans, written out at exit.
    spans: Vec<Span>,
    end: Vec<Metric>,
}

fn run_phase(
    ctx: &Ctx,
    plan: &Plan,
    traced: bool,
    mut episode: impl FnMut(
        usize,
        Option<&Arc<Tracer>>,
        Option<&mut Samples>,
    ) -> Result<Episode, String>,
) -> Result<Phase, String> {
    let bound = plan.requests_bound();
    let mut samples = Samples::with_capacity(bound * 8);
    let tracer = traced.then(|| Tracer::new(bound * 3));
    let mut phase = Phase {
        samples: Samples::default(),
        setup_s: Vec::new(),
        digests: Vec::new(),
        layers: traced.then(LayerAcc::default),
        spans: Vec::new(),
        end: Vec::new(),
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut i = 0;
    while i < MIN_EPISODES || Instant::now() < deadline {
        let ep = episode(i, tracer.as_ref(), Some(&mut samples))?;
        phase.setup_s.push(ep.setup_s);
        phase.digests.push(ep.digest);
        if let Some(layers) = phase.layers.as_mut() {
            layers.absorb(&ep.spans);
            phase.spans = ep.spans;
        }
        phase.end = ep.end;
        i += 1;
    }
    // Set-up is quick and noisy next to a phase: time a few more.
    while phase.setup_s.len() < MIN_SETUPS {
        phase.setup_s.push(episode(i, None, None)?.setup_s);
        i += 1;
    }
    if let Some(t) = &tracer {
        if t.dropped() > 0 {
            return Err(format!("{} spans did not fit the span buffer", t.dropped()));
        }
    }
    phase.samples = samples;
    Ok(phase)
}

/// Drive one episode, traced or not, handing the backend back.
fn drive_episode<S: Serving + crate::trace::Counters>(
    svc: S,
    plan: &Plan,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    samples: &mut Samples,
) -> (S, Vec<Span>) {
    match tracer {
        None => {
            drive(&svc, plan, seed, samples);
            (svc, Vec::new())
        }
        Some(t) => {
            // Spans recorded while setting up (relay handshakes) are
            // not part of the episode.
            t.take();
            let traced = Traced::new(svc, Arc::clone(t));
            drive(&traced, plan, seed, samples);
            (traced.into_inner(), t.take())
        }
    }
}

pub(crate) fn end_counters(
    report: &ObsReport,
    minted: usize,
    n: usize,
    snap: &[(usize, usize)],
) -> Vec<Metric> {
    let m = &report.metrics;
    let paid = m.get(MetricId::ProbesPaid);
    let memo = m.get(MetricId::ProbesMemoized);
    let objects: usize = snap.iter().map(|s| s.0).sum();
    let entries: usize = snap.iter().map(|s| s.1).sum();
    vec![
        Metric::new("snapshot.posted_objects", objects as f64, "count", 1),
        Metric::new("snapshot.entries", entries as f64, "count", 1),
        Metric::new("billboard.probes_paid", paid as f64, "count", 1),
        Metric::new(
            "billboard.probes_memoized_share",
            memo as f64 / (paid + memo).max(1) as f64,
            "ratio",
            paid + memo,
        ),
        Metric::new(
            "billboard.posts_published",
            m.get(MetricId::PostsPublished) as f64,
            "count",
            1,
        ),
        Metric::new(
            "registry.sessions_admitted",
            m.get(MetricId::SessionsAdmitted) as f64,
            "count",
            1,
        ),
        Metric::new(
            "registry.sessions_closed",
            m.get(MetricId::SessionsClosed) as f64,
            "count",
            1,
        ),
        Metric::new(
            "registry.slots_used_share",
            minted as f64 / n as f64,
            "ratio",
            1,
        ),
    ]
}

fn board_size(svc: &Service) -> (usize, usize) {
    let snap = svc.snapshot();
    let entries = snap.posts.values().map(|c| c.entries.len()).sum();
    (snap.posts.len(), entries)
}

/// The end-to-end figures of an untraced phase: each is the median over
/// the phase's measurement windows (see `closed::WINDOW_TICKS`).
fn end_to_end(phase: &mut Phase) -> Vec<Metric> {
    let s = &mut phase.samples;
    let ends = std::mem::take(&mut s.windows);
    let windows = ends.len() as u64;
    let mut rates = Vec::with_capacity(ends.len());
    let (mut completed, mut wall) = (0, 0);
    for e in &ends {
        rates.push((e.completed - completed) as f64 / ((e.wall_ns - wall) as f64 * 1e-9));
        (completed, wall) = (e.completed, e.wall_ns);
    }
    let mut out = vec![Metric {
        windows,
        ..Metric::new("throughput_rps", median_f64(&rates), "1/s", s.completed)
    }];
    let write_ends: Vec<usize> = ends.iter().map(|e| e.writes).collect();
    let read_ends: Vec<usize> = ends.iter().map(|e| e.reads).collect();
    out.extend(windowed_latencies(
        "write",
        &mut s.write_ns,
        &write_ends,
        "ms",
    ));
    out.extend(windowed_latencies("read", &mut s.read_ns, &read_ends, "us"));
    out.push(Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", 1));
    out.push(Metric::new(
        "setup_s",
        median_f64(&phase.setup_s),
        "s",
        phase.setup_s.len() as u64,
    ));
    out
}

/// The per-layer figures of a traced phase, with the generator's own
/// share and the tracing overhead against the untraced phase.
fn per_layer(traced: &mut Phase, untraced: &Phase, plan: &Plan) -> Vec<Metric> {
    let wall = traced.samples.wall_ns;
    let layers = traced
        .layers
        .as_mut()
        .expect("a traced phase has layer samples");
    let inside = layers.inside_ns();
    let mut out = layers.metrics(plan.batch, wall);
    out.extend(traced.end.iter().cloned());
    let mut joins = traced.samples.join_ns.clone();
    out.push(latency_pair("registry.join", &mut joins, "ms")[0].clone());
    out.push(Metric::new(
        "generator.self_share",
        1.0 - inside as f64 / wall.max(1) as f64,
        "ratio",
        traced.samples.attempted,
    ));
    // Closed loop: the overhead is the traced phase's extra wall time
    // per completed request.
    let per_req = |s: &Samples| s.wall_ns as f64 / s.completed.max(1) as f64;
    out.push(Metric::new(
        "generator.trace_overhead_pct",
        (per_req(&traced.samples) / per_req(&untraced.samples) - 1.0) * 100.0,
        "%",
        traced.samples.completed,
    ));
    out
}

/// Determinism gates shared by the closed-loop workloads: every
/// episode ends at one digest, which matches the pin for this seed and
/// the traced phase's digest.
fn digest_gates(
    ctx: &Ctx,
    out: &mut Outcome,
    untraced: &Phase,
    traced: Option<&Phase>,
    pinned: Option<u64>,
) {
    let first = untraced.digests[0];
    out.gate(
        "episodes_end_at_one_digest",
        untraced.digests.iter().all(|&d| d == first),
        format!("{:016x} over {} episodes", first, untraced.digests.len()),
    );
    if let Some(traced) = traced {
        out.gate(
            "traced_digest_equals_untraced",
            traced.digests.iter().all(|&d| d == first),
            format!("untraced {first:016x}, traced {:016x}", traced.digests[0]),
        );
    }
    let expected = ctx.expect_digest.or(pinned);
    if let Some(want) = expected {
        out.gate(
            "digest_matches_expected",
            first == want,
            format!("got {first:016x}, expected {want:016x}"),
        );
    }
    out.notes.push(format!("state digest fnv64 {first:016x}"));
}

fn finish(
    ctx: &Ctx,
    out: &mut Outcome,
    plan: &Plan,
    mut untraced: Phase,
    traced: Option<Phase>,
    pinned: Option<u64>,
) {
    digest_gates(ctx, out, &untraced, traced.as_ref(), pinned);
    out.params.extend(plan.params());
    out.attempted = untraced.samples.attempted;
    out.failed = untraced.samples.failed;
    out.failures
        .extend(untraced.samples.failures.iter().cloned());
    out.notes.push(format!(
        "untraced: {} episodes, {} ticks, {} requests",
        untraced.digests.len(),
        untraced.samples.ticks,
        untraced.samples.attempted
    ));
    if let Some(mut traced) = traced {
        out.metrics.extend(per_layer(&mut traced, &untraced, plan));
        out.attempted += traced.samples.attempted;
        out.failed += traced.samples.failed;
        out.failures.extend(traced.samples.failures.iter().cloned());
        out.spans = traced.spans;
    }
    out.metrics.extend(end_to_end(&mut untraced));
}

// ------------------------------------------------------------------ ingest

#[derive(Default)]
struct WalStats {
    recover_s: Vec<f64>,
    replayed_ticks: u64,
    replayed_requests: u64,
    fsyncs: u64,
    bytes: u64,
    snapshots: u64,
    ticks: u64,
    writes: u64,
    log_bytes: u64,
    snapshot_bytes: u64,
    mismatches: Vec<String>,
    health: Vec<String>,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn ingest_phase(ctx: &Ctx, plan: &Plan, traced: bool, wal: &mut WalStats) -> Result<Phase, String> {
    let seed = ctx.seed;
    let cfg = service_config(plan, seed);
    run_phase(ctx, plan, traced, |i, tracer, samples| {
        let dir = ctx
            .work_dir
            .join(format!("ingest-{}-{i}", u8::from(traced)));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = Durability {
            dir: dir.clone(),
            snapshot_every: SNAPSHOT_EVERY,
        };
        let opts = RecoverOptions {
            use_snapshot: true,
            capture: false,
        };
        let t0 = Instant::now();
        let truth = instance(plan.n, plan.m, seed);
        let (svc, _) = Service::recover(truth.clone(), cfg.clone(), &durability, opts)
            .map_err(|e| format!("ingest set-up: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        let Some(samples) = samples else {
            drop(svc);
            let _ = std::fs::remove_dir_all(&dir);
            return Ok(Episode::setup_only(setup_s));
        };
        let (ticks0, writes0) = (samples.ticks, samples.write_ns.len());
        let (svc, spans) = drive_episode(svc, plan, seed, tracer, samples);
        if let Some(e) = svc.wal_health() {
            wal.health.push(e);
        }
        let digest = fnv64(svc.state_digest().as_bytes());
        let report = svc.obs_report();
        let m = &report.metrics;
        wal.fsyncs += m.get(MetricId::WalFsyncs);
        wal.bytes += m.get(MetricId::WalBytes);
        wal.snapshots += m.get(MetricId::SnapshotsSealed);
        wal.ticks += samples.ticks - ticks0;
        wal.writes += (samples.write_ns.len() - writes0) as u64;
        wal.log_bytes = file_len(&dir.join("ticks.wal"));
        wal.snapshot_bytes = file_len(&dir.join("snapshot.bin"));
        let end = end_counters(&report, svc.sessions_minted(), plan.n, &[board_size(&svc)]);
        drop(svc);
        // Recovery from the run's WAL directory, timed a few times:
        // the median is the figure, the digest must match every time.
        for _ in 0..3 {
            let truth = truth.clone();
            let t = Instant::now();
            let (recovered, rep) = Service::recover(truth, cfg.clone(), &durability, opts)
                .map_err(|e| format!("ingest recovery: {e}"))?;
            wal.recover_s.push(t.elapsed().as_secs_f64());
            wal.replayed_ticks = rep.replayed_ticks;
            wal.replayed_requests = rep.replayed_requests;
            let got = fnv64(recovered.state_digest().as_bytes());
            if got != digest {
                wal.mismatches.push(format!(
                    "episode {i}: live {digest:016x}, recovered {got:016x}"
                ));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Episode {
            setup_s,
            digest,
            spans,
            end,
        })
    })
}

pub fn ingest(ctx: &Ctx, out: &mut Outcome, pinned: Option<u64>) -> Result<(), String> {
    let plan = ingest_plan(ctx.toy);
    let mut wal = WalStats::default();
    let untraced = ingest_phase(ctx, &plan, false, &mut wal)?;
    let traced = if ctx.trace {
        Some(ingest_phase(ctx, &plan, true, &mut WalStats::default())?)
    } else {
        None
    };
    out.params
        .push(("snapshot_every".into(), SNAPSHOT_EVERY.to_string()));
    out.params.push(("durable".into(), "true".into()));
    out.gate(
        "recovered_digest_equals_live",
        wal.mismatches.is_empty() && !wal.recover_s.is_empty(),
        wal.mismatches.first().cloned().unwrap_or_else(|| {
            format!("{} recoveries matched the live digest", wal.recover_s.len())
        }),
    );
    out.gate(
        "wal_healthy",
        wal.health.is_empty(),
        wal.health
            .first()
            .cloned()
            .unwrap_or_else(|| "no WAL errors".into()),
    );
    out.metrics.push(Metric::new(
        "recovery_s",
        median_f64(&wal.recover_s),
        "s",
        wal.recover_s.len() as u64,
    ));
    if ctx.trace {
        let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
        let ticks = wal.ticks.max(1) as f64;
        out.metrics.extend([
            Metric::new(
                "wal.fsyncs_per_tick",
                wal.fsyncs as f64 / ticks,
                "ratio",
                wal.ticks,
            ),
            Metric::new(
                "wal.bytes_per_write",
                wal.bytes as f64 / wal.writes.max(1) as f64,
                "B",
                wal.writes,
            ),
            Metric::new("wal.snapshots", wal.snapshots as f64, "count", 1),
            Metric::new("wal.log_mib", mib(wal.log_bytes), "MiB", 1),
            Metric::new("wal.snapshot_mib", mib(wal.snapshot_bytes), "MiB", 1),
            Metric::new(
                "wal.recover_replayed_ticks",
                wal.replayed_ticks as f64,
                "count",
                1,
            ),
            Metric::new(
                "wal.recover_replayed_requests",
                wal.replayed_requests as f64,
                "count",
                1,
            ),
        ]);
    }
    finish(ctx, out, &plan, untraced, traced, pinned);
    Ok(())
}

// ------------------------------------------------------------------- churn

fn churn_phase(ctx: &Ctx, plan: &Plan, traced: bool) -> Result<Phase, String> {
    let seed = ctx.seed;
    let cfg = service_config(plan, seed);
    run_phase(ctx, plan, traced, |_, tracer, samples| {
        let t0 = Instant::now();
        let svc = Service::new(instance(plan.n, plan.m, seed), cfg.clone())
            .map_err(|e| format!("churn set-up: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        let Some(samples) = samples else {
            return Ok(Episode::setup_only(setup_s));
        };
        let (svc, spans) = drive_episode(svc, plan, seed, tracer, samples);
        let end = end_counters(
            &svc.obs_report(),
            svc.sessions_minted(),
            plan.n,
            &[board_size(&svc)],
        );
        Ok(Episode {
            setup_s,
            digest: fnv64(svc.state_digest().as_bytes()),
            spans,
            end,
        })
    })
}

pub fn churn(ctx: &Ctx, out: &mut Outcome, pinned: Option<u64>) -> Result<(), String> {
    let plan = churn_plan(ctx.toy);
    let untraced = churn_phase(ctx, &plan, false)?;
    let traced = if ctx.trace {
        Some(churn_phase(ctx, &plan, true)?)
    } else {
        None
    };
    out.params.push(("durable".into(), "false".into()));
    finish(ctx, out, &plan, untraced, traced, pinned);
    Ok(())
}

// ------------------------------------------------------------------- relay

/// A 2-shard in-process topology whose relay ends are wrapped by `wrap`.
struct Topology<L: ShardLink> {
    service: ShardedService<L>,
    shards: Vec<Arc<Service>>,
    workers: Vec<JoinHandle<Result<(), WireError>>>,
}

fn topology<L: ShardLink>(
    truth: &PrefMatrix,
    cfg: &ServiceConfig,
    wrap: impl Fn(ChannelLink) -> L,
) -> Result<Topology<L>, String> {
    let relay_cfg = RelayConfig::for_service(cfg, SHARDS, truth.n(), truth.m());
    let mut links = Vec::with_capacity(SHARDS);
    let mut shards = Vec::with_capacity(SHARDS);
    let mut workers = Vec::with_capacity(SHARDS);
    for i in 0..SHARDS {
        let svc = Arc::new(
            Service::new(truth.clone(), cfg.clone()).map_err(|e| format!("shard set-up: {e}"))?,
        );
        let (relay_end, mut shard_end) = channel_pair();
        links.push(wrap(relay_end));
        let worker_svc = Arc::clone(&svc);
        workers.push(std::thread::spawn(move || {
            run_shard_worker(&worker_svc, i as u32, SHARDS as u32, &mut shard_end)
        }));
        shards.push(svc);
    }
    let relay = Relay::connect(links, relay_cfg).map_err(|e| format!("relay connect: {e}"))?;
    Ok(Topology {
        service: ShardedService::new(relay),
        shards,
        workers,
    })
}

impl<L: ShardLink> Topology<L> {
    /// Check health, read the merged digest and counters, then
    /// disconnect and join every worker.
    fn close(self, plan: &Plan, gates: &mut Vec<String>) -> (u64, Vec<Metric>) {
        if let Some(fault) = self.service.health() {
            gates.push(format!("topology fault: {fault}"));
        }
        let digest = match self.service.merged_state_digest() {
            Ok(d) => fnv64(d.as_bytes()),
            Err(e) => {
                gates.push(format!("merged digest: {e}"));
                0
            }
        };
        let sizes: Vec<(usize, usize)> = self.shards.iter().map(|s| board_size(s)).collect();
        let end = end_counters(
            &self.service.obs_report(),
            self.service.sessions_minted(),
            plan.n,
            &sizes,
        );
        self.service.disconnect();
        for w in self.workers {
            match w.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => gates.push(format!("shard worker: {e}")),
                Err(_) => gates.push("shard worker panicked".into()),
            }
        }
        (digest, end)
    }
}

fn relay_phase(
    ctx: &Ctx,
    plan: &Plan,
    traced: bool,
    faults: &mut Vec<String>,
) -> Result<Phase, String> {
    let seed = ctx.seed;
    let cfg = service_config(plan, seed);
    run_phase(ctx, plan, traced, |_, tracer, samples| {
        let t0 = Instant::now();
        let truth = instance(plan.n, plan.m, seed);
        match tracer {
            None => {
                let topo = topology(&truth, &cfg, |l| l)?;
                let setup_s = t0.elapsed().as_secs_f64();
                let Some(samples) = samples else {
                    topo.close(plan, faults);
                    return Ok(Episode::setup_only(setup_s));
                };
                drive(&topo.service, plan, seed, samples);
                let (digest, end) = topo.close(plan, faults);
                Ok(Episode {
                    setup_s,
                    digest,
                    spans: Vec::new(),
                    end,
                })
            }
            Some(t) => {
                let topo = topology(&truth, &cfg, |l| TracedLink::new(l, Arc::clone(t)))?;
                let setup_s = t0.elapsed().as_secs_f64();
                let samples = samples.ok_or("a traced episode drives traffic")?;
                let Topology {
                    service,
                    shards,
                    workers,
                } = topo;
                let (service, spans) = drive_episode(service, plan, seed, tracer, samples);
                let (digest, end) = Topology {
                    service,
                    shards,
                    workers,
                }
                .close(plan, faults);
                t.take();
                Ok(Episode {
                    setup_s,
                    digest,
                    spans,
                    end,
                })
            }
        }
    })
}

/// The digest of one `Service` driven, untimed, with the same seed and
/// request stream as the relay.
fn single_process_digest(plan: &Plan, seed: u64) -> Result<u64, String> {
    let svc = Service::new(instance(plan.n, plan.m, seed), service_config(plan, seed))
        .map_err(|e| format!("reference set-up: {e}"))?;
    drive(&svc, plan, seed, &mut Samples::default());
    Ok(fnv64(svc.state_digest().as_bytes()))
}

pub fn relay(ctx: &Ctx, out: &mut Outcome, pinned: Option<u64>) -> Result<(), String> {
    let plan = relay_plan(ctx.toy);
    let mut faults = Vec::new();
    let untraced = relay_phase(ctx, &plan, false, &mut faults)?;
    let traced = if ctx.trace {
        Some(relay_phase(ctx, &plan, true, &mut faults)?)
    } else {
        None
    };
    let reference = single_process_digest(&plan, ctx.seed)?;
    out.gate(
        "relay_healthy",
        faults.is_empty(),
        faults
            .first()
            .cloned()
            .unwrap_or_else(|| "health() is None, workers joined".into()),
    );
    out.gate(
        "merged_digest_equals_single_process",
        untraced.digests.iter().all(|&d| d == reference),
        format!(
            "relay {:016x}, single process {reference:016x}",
            untraced.digests[0]
        ),
    );
    out.params.push(("shards".into(), SHARDS.to_string()));
    out.params.push(("durable".into(), "false".into()));
    finish(ctx, out, &plan, untraced, traced, pinned);
    Ok(())
}
