//! Metric values, percentiles, provenance and the printed report.

use std::fmt::Write as _;
use std::path::Path;

/// One reported figure. `samples` is the number of observations behind
/// it (for a percentile, the sample it was taken from); a windowed
/// figure is the median over `windows` windows of that sample.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    pub windows: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            windows: 1,
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (sorts in place).
/// Returns 0 for an empty sample.
pub fn percentile(sample: &mut [u64], q: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let rank = ((q * sample.len() as f64).ceil() as usize).clamp(1, sample.len());
    sample[rank - 1]
}

/// Median of a sample of seconds.
pub fn median_f64(sample: &[f64]) -> f64 {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn scale(unit: &str) -> f64 {
    match unit {
        "ms" => 1e-6,
        "us" => 1e-3,
        _ => 1e-9,
    }
}

/// Latency percentiles of a nanosecond sample, scaled to `unit`
/// (`"ms"` or `"us"`), as `<prefix>_p50_<unit>` and `<prefix>_p99_<unit>`.
pub fn latency_pair(prefix: &str, sample: &mut [u64], unit: &'static str) -> [Metric; 2] {
    let n = sample.len();
    let [p50, _, p99] = windowed_latencies(prefix, sample, &[n], unit);
    [p50, p99]
}

/// p50, p90 and p99 of a nanosecond sample, each the median over the
/// windows of the sample that end at `ends` (ascending indices; the
/// last is the sample's length). A burst of noise from outside the
/// program then moves one window, not the figure.
pub fn windowed_latencies(
    prefix: &str,
    sample: &mut [u64],
    ends: &[usize],
    unit: &'static str,
) -> [Metric; 3] {
    const QS: [(f64, &str); 3] = [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")];
    let mut per_window: [Vec<f64>; 3] = Default::default();
    let mut begin = 0;
    for &end in ends {
        if end > begin {
            let window = &mut sample[begin..end];
            for (k, (q, _)) in QS.iter().enumerate() {
                per_window[k].push(percentile(window, *q) as f64 * scale(unit));
            }
        }
        begin = end;
    }
    let n = sample.len() as u64;
    std::array::from_fn(|k| Metric {
        windows: per_window[k].len() as u64,
        ..Metric::new(
            &format!("{prefix}_{}_{unit}", QS[k].1),
            median_f64(&per_window[k]),
            unit,
            n,
        )
    })
}

/// Ends of `windows` equal windows over a sample of `len`, none
/// smaller than `min_len` (fewer windows if need be).
pub fn even_windows(len: usize, windows: usize, min_len: usize) -> Vec<usize> {
    let w = windows.min(len / min_len.max(1)).max(1);
    (1..=w).map(|k| k * len / w).collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and on what a run happened.
pub struct Provenance {
    pub nproc: usize,
    pub kernel: String,
    pub wal_fs: String,
    pub commit: String,
}

impl Provenance {
    pub fn collect(work_dir: &Path) -> Self {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            wal_fs: filesystem_of(work_dir),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

/// The file system type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(point), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for the chosen metrics.
pub fn metrics_object(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
