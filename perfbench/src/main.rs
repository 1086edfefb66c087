//! perfbench — the serving benchmark for `tmwia-service`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|churn|frontdoor|relay|all> --seed <n> --seconds <s> --trace <0|1>
//!     [--expect-digest <hex>] [--scale toy|full] [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced;
//! with `--trace 1` it runs the same workload untraced and then traced
//! and reports the per-layer metrics. Human-readable lines come first;
//! the last line of standard output is one JSON object. The process
//! exits 1 when a correctness gate fails and 2 on a usage or set-up
//! error. See README.md for the workloads and their hazards.

mod closed;
mod frontdoor;
mod inproc;
mod layers;
mod report;
mod trace;

use report::{metrics_object, Metric, Provenance};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics every workload reports (the `--trace 0` JSON).
/// Write p90/p99, read latencies and `ingest`'s recovery time are
/// printed but not gated: README.md says why.
pub const END_TO_END: &[&str] = &["throughput_rps", "write_p50_ms", "peak_rss_mib", "setup_s"];

/// Per-layer metrics every workload reports (the `--trace 1` JSON).
/// Layer metrics that exist on one workload only (`wal.*`, `tcp.*`,
/// `relay.*`, ...) are printed only.
pub const PER_LAYER: &[&str] = &[
    "service.tick_ms_p50",
    "service.tick_ms_p99",
    "service.tick_plain_ms_p50",
    "service.batch_fill",
    "service.queue_depth_p99",
    "service.submit_write_us_p50",
    "service.tick_busy_share",
    "snapshot.read_us_p50",
    "snapshot.read_us_p99",
    "snapshot.posted_objects",
    "snapshot.entries",
    "billboard.probes_paid",
    "billboard.posts_published",
    "registry.sessions_admitted",
    "registry.slots_used_share",
    "generator.self_share",
    "generator.trace_overhead_pct",
];

pub const WORKLOADS: &[&str] = &["ingest", "churn", "frontdoor", "relay"];

/// Default seed; its state digests are pinned below.
const DEFAULT_SEED: u64 = 1;

/// `fnv64(state_digest())` at the end of one full-scale episode with the
/// default seed. A change to a workload's plan changes its pin.
fn pinned_digest(workload: &str) -> Option<u64> {
    match workload {
        "ingest" => Some(0xb7c6_d678_d429_defc),
        "churn" => Some(0xc3ee_debc_054c_6b28),
        "relay" => Some(0x7f5f_2393_7303_37a3),
        _ => None,
    }
}

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    pub expect_digest: Option<u64>,
    pub out_dir: PathBuf,
    /// Where the `ingest` WAL directories live (inside `out_dir`).
    pub work_dir: PathBuf,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, passed, detail)`.
    pub gates: Vec<(String, bool, String)>,
    pub metrics: Vec<Metric>,
    pub params: Vec<(String, String)>,
    pub notes: Vec<String>,
    /// Spans of the last traced episode (frontdoor: of the traced phase).
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn gate(&mut self, name: &str, passed: bool, detail: String) {
        self.gates.push((name.to_string(), passed, detail));
    }

    fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.1)
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--expect-digest <hex>] [--scale toy|full] [--out-dir <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut toy = false;
    let mut expect_digest = None;
    let mut out_dir = PathBuf::from(".perfbench-out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value '{value}' for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad());
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                toy = match value.as_str() {
                    "toy" => true,
                    "full" => false,
                    _ => return Err(bad()),
                }
            }
            "--expect-digest" => {
                expect_digest = Some(u64::from_str_radix(value, 16).map_err(|_| bad())?)
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        toy,
        expect_digest,
        out_dir,
        work_dir,
    })
}

/// Run the workload `ctx` names and check its gates.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.work_dir)
        .map_err(|e| format!("create {}: {e}", ctx.work_dir.display()))?;
    let mut out = Outcome::default();
    let pinned = if ctx.toy || ctx.seed != DEFAULT_SEED {
        None
    } else {
        pinned_digest(&ctx.workload)
    };
    let result = match ctx.workload.as_str() {
        "ingest" => inproc::ingest(ctx, &mut out, pinned),
        "churn" => inproc::churn(ctx, &mut out, pinned),
        "relay" => inproc::relay(ctx, &mut out, pinned),
        "frontdoor" => frontdoor::frontdoor(ctx, &mut out),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    result?;
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let missing: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|name| out.metric(name).is_none())
        .collect();
    out.gate(
        "every_declared_metric_measured",
        missing.is_empty(),
        format!("missing: {missing:?}"),
    );
    Ok(out)
}

/// The printed report: provenance, parameters, gates, every metric with
/// its unit and sample count, then the JSON result line.
fn render(ctx: &Ctx, out: &Outcome, prov: &Provenance) -> String {
    let mut s = String::new();
    let mut line = |l: String| {
        s.push_str(&l);
        s.push('\n');
    };
    line(format!(
        "# perfbench workload={} seed={} seconds={} trace={} scale={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        if ctx.toy { "toy" } else { "full" }
    ));
    line(format!(
        "# host nproc={} kernel={} wal_fs={} commit={}",
        prov.nproc, prov.kernel, prov.wal_fs, prov.commit
    ));
    for (k, v) in &out.params {
        line(format!("# param {k}={v}"));
    }
    for n in &out.notes {
        line(format!("# note {n}"));
    }
    line(format!(
        "# ops attempted={} failed={}",
        out.attempted, out.failed
    ));
    for f in &out.failures {
        line(format!("# failure {f}"));
    }
    for (name, ok, detail) in &out.gates {
        line(format!(
            "# gate {name} {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        ));
    }
    for m in &out.metrics {
        line(format!(
            "{:<34} {:>16.6} {:<6} samples={} windows={}",
            m.name, m.value, m.unit, m.samples, m.windows
        ));
    }
    s
}

fn result_line(ctx: &Ctx, out: &Outcome) -> String {
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let chosen: Vec<&Metric> = wanted.iter().filter_map(|n| out.metric(n)).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics_object(&chosen)
    )
}

/// Write the traced spans, if any, to `<out-dir>/<workload>-seed<n>-spans.tsv`.
fn write_spans(ctx: &Ctx, out: &Outcome) -> Result<(), String> {
    if out.spans.is_empty() {
        return Ok(());
    }
    let path = ctx
        .out_dir
        .join(format!("{}-seed{}-spans.tsv", ctx.workload, ctx.seed));
    trace::write_spans(&path, &out.spans).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `--workload all`: run every workload in a process of its own (so each
/// peak RSS is that workload's), one after another, with the other
/// flags unchanged. Exits with the worst child's code.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0;
    for workload in WORKLOADS {
        let child_args: Vec<&str> = args
            .iter()
            .map(|a| if a == "all" { workload } else { a.as_str() })
            .collect();
        let code = match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) => status.code().unwrap_or(2),
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst.clamp(0, 255) as u8)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if ctx.workload == "all" {
        return run_all(&args);
    }
    let out = match run(&ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = Provenance::collect(&ctx.out_dir);
    if let Err(e) = write_spans(&ctx, &out) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    print!("{}", render(&ctx, &out, &prov));
    println!("{}", result_line(&ctx, &out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
