//! Toy-scale self-test: every workload emits every declared metric with
//! its unit, and a doctored expected digest makes the command fail.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("service.tick_ms_p50", "ms"),
    ("service.tick_ms_p99", "ms"),
    ("service.tick_plain_ms_p50", "ms"),
    ("service.batch_fill", "ratio"),
    ("service.queue_depth_p99", "count"),
    ("service.submit_write_us_p50", "us"),
    ("service.tick_busy_share", "ratio"),
    ("snapshot.read_us_p50", "us"),
    ("snapshot.read_us_p99", "us"),
    ("snapshot.posted_objects", "count"),
    ("snapshot.entries", "count"),
    ("billboard.probes_paid", "count"),
    ("billboard.posts_published", "count"),
    ("registry.sessions_admitted", "count"),
    ("registry.slots_used_share", "ratio"),
    ("generator.self_share", "ratio"),
    ("generator.trace_overhead_pct", "%"),
];

/// Layer metrics printed only by the workload that has the layer.
const ONLY: &[(&str, &[&str])] = &[
    (
        "ingest",
        &[
            "recovery_s",
            "wal.fsyncs_per_tick",
            "wal.snapshots",
            "service.tick_snapshot_ms_p50",
        ],
    ),
    (
        "frontdoor",
        &[
            "tcp.read_rtt_p50_us",
            "tcp.transport_us_p50",
            "tcp.write_rtt_p50_ms",
            "generator.late_share",
        ],
    ),
    (
        "relay",
        &[
            "relay.tick_self_ms_p50",
            "relay.shard_wait_ms_p50",
            "relay.query_us_p50",
            "relay.bytes_per_tick",
        ],
    ),
];

fn run(workload: &str, trace: &str, extra: &[&str]) -> (i32, String) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "perfbench-selftest-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            trace,
        ])
        .args(["--scale", "toy", "--out-dir"])
        .arg(&dir)
        .args(extra)
        .output()
        .expect("perfbench runs");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn check(workload: &str, trace: &str, declared: &[(&str, &str)]) -> String {
    let (code, stdout) = run(workload, trace, &[]);
    assert_eq!(code, 0, "{workload} trace={trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, unit) in declared {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing: {last}"));
        let rest = &last[at + entry.len()..];
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"}}")),
            "{workload}: {name} not in {unit}"
        );
    }
    let names = last.matches("\"value\"").count();
    assert_eq!(
        names,
        declared.len(),
        "{workload}: undeclared metrics in {last}"
    );
    stdout
}

#[test]
fn every_workload_reports_every_metric() {
    for workload in ["ingest", "churn", "frontdoor", "relay"] {
        check(workload, "0", END_TO_END);
        let traced = check(workload, "1", PER_LAYER);
        for (w, names) in ONLY {
            if *w == workload {
                for name in *names {
                    assert!(
                        traced.lines().any(|l| l.starts_with(&format!("{name} "))),
                        "{workload}: {name} not printed"
                    );
                }
            }
        }
    }
}

#[test]
fn a_doctored_digest_fails_the_run() {
    for workload in ["ingest", "churn", "relay"] {
        let (code, stdout) = run(workload, "0", &["--expect-digest", "0123456789abcdef"]);
        assert_eq!(code, 1, "{workload} accepted a wrong digest:\n{stdout}");
        assert!(stdout.contains("# gate digest_matches_expected FAILED"));
        assert!(stdout
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
