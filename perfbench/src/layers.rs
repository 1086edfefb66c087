//! Per-layer figures derived from the traced run's spans.

use crate::report::{percentile, Metric};
use crate::trace::{Kind, Span, TICK_PARENT};
use std::collections::BTreeMap;

/// Per-layer samples accumulated over a traced phase's episodes.
#[derive(Default)]
pub struct LayerAcc {
    tick_ns: Vec<u64>,
    plain_ns: Vec<u64>,
    snapshot_ns: Vec<u64>,
    queue_depth: Vec<u64>,
    executed: u64,
    empty_ticks: u64,
    submit_write_ns: Vec<u64>,
    submit_read_ns: Vec<u64>,
    /// Time inside top-level calls into the program (ticks and submits).
    inside_ns: u64,
    // Relay links, per tick and per read.
    broadcast_ns: Vec<u64>,
    shard_wait_ns: Vec<u64>,
    tick_self_ns: Vec<u64>,
    tick_bytes: Vec<u64>,
    query_ns: Vec<u64>,
    read_frames: u64,
    link_spans: u64,
}

#[derive(Default, Clone, Copy)]
struct LinkSum {
    send_ns: u64,
    recv_ns: u64,
    bytes: u64,
    frames: u64,
}

impl LayerAcc {
    /// Fold one episode's spans in. Parent ids restart per episode, so
    /// links are matched to their tick or read within the episode.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut links: BTreeMap<u64, LinkSum> = BTreeMap::new();
        for s in spans {
            if matches!(s.kind, Kind::LinkSend | Kind::LinkRecv) {
                self.link_spans += 1;
                let sum = links.entry(s.parent).or_default();
                if s.kind == Kind::LinkSend {
                    sum.send_ns += s.dur_ns();
                } else {
                    sum.recv_ns += s.dur_ns();
                }
                sum.bytes += s.a;
                sum.frames += 1;
            }
        }
        for s in spans {
            match s.kind {
                Kind::Tick => {
                    let d = s.dur_ns();
                    self.inside_ns += d;
                    self.tick_ns.push(d);
                    self.queue_depth.push(s.a);
                    self.executed += s.b;
                    if s.b == 0 {
                        self.empty_ticks += 1;
                    } else if s.flag {
                        self.snapshot_ns.push(d);
                    } else {
                        self.plain_ns.push(d);
                    }
                    if self.link_spans > 0 && s.b > 0 {
                        let sum = links.get(&s.parent).copied().unwrap_or_default();
                        self.broadcast_ns.push(sum.send_ns);
                        self.shard_wait_ns.push(sum.recv_ns);
                        self.tick_self_ns
                            .push(d.saturating_sub(sum.send_ns + sum.recv_ns));
                        self.tick_bytes.push(sum.bytes);
                    }
                }
                Kind::SubmitWrite => {
                    self.inside_ns += s.dur_ns();
                    self.submit_write_ns.push(s.dur_ns());
                }
                Kind::SubmitRead => {
                    self.inside_ns += s.dur_ns();
                    self.submit_read_ns.push(s.dur_ns());
                    if let Some(sum) = links.get(&s.parent).filter(|_| s.parent & TICK_PARENT == 0)
                    {
                        self.query_ns.push(sum.send_ns + sum.recv_ns);
                        self.read_frames += sum.frames;
                    }
                }
                Kind::LinkSend | Kind::LinkRecv => {}
            }
        }
    }

    /// Time spent inside calls into the program, in nanoseconds.
    pub fn inside_ns(&self) -> u64 {
        self.inside_ns
    }

    /// `service.*` and `snapshot.read_*` figures; relay link figures
    /// when links were traced. `wall_ns` is the traced phase's wall time.
    pub fn metrics(&mut self, batch: usize, wall_ns: u64) -> Vec<Metric> {
        let ticks = self.tick_ns.len() as u64;
        let mut out = Vec::new();
        let ms = |ns: u64| ns as f64 * 1e-6;
        let us = |ns: u64| ns as f64 * 1e-3;
        let busy: u64 = self.tick_ns.iter().sum();
        out.push(Metric::new(
            "service.tick_ms_p50",
            ms(percentile(&mut self.tick_ns, 0.5)),
            "ms",
            ticks,
        ));
        out.push(Metric::new(
            "service.tick_ms_p99",
            ms(percentile(&mut self.tick_ns, 0.99)),
            "ms",
            ticks,
        ));
        let plain = self.plain_ns.len() as u64;
        out.push(Metric::new(
            "service.tick_plain_ms_p50",
            ms(percentile(&mut self.plain_ns, 0.5)),
            "ms",
            plain,
        ));
        if !self.snapshot_ns.is_empty() {
            let n = self.snapshot_ns.len() as u64;
            out.push(Metric::new(
                "service.tick_snapshot_ms_p50",
                ms(percentile(&mut self.snapshot_ns, 0.5)),
                "ms",
                n,
            ));
        }
        out.push(Metric::new(
            "service.batch_fill",
            self.executed as f64 / (ticks.max(1) * batch as u64) as f64,
            "ratio",
            ticks,
        ));
        out.push(Metric::new(
            "service.empty_tick_share",
            self.empty_ticks as f64 / ticks.max(1) as f64,
            "ratio",
            ticks,
        ));
        out.push(Metric::new(
            "service.queue_depth_p99",
            percentile(&mut self.queue_depth, 0.99) as f64,
            "count",
            ticks,
        ));
        let writes = self.submit_write_ns.len() as u64;
        out.push(Metric::new(
            "service.submit_write_us_p50",
            us(percentile(&mut self.submit_write_ns, 0.5)),
            "us",
            writes,
        ));
        out.push(Metric::new(
            "service.tick_busy_share",
            busy as f64 / wall_ns.max(1) as f64,
            "ratio",
            ticks,
        ));
        let reads = self.submit_read_ns.len() as u64;
        out.push(Metric::new(
            "snapshot.read_us_p50",
            us(percentile(&mut self.submit_read_ns, 0.5)),
            "us",
            reads,
        ));
        out.push(Metric::new(
            "snapshot.read_us_p99",
            us(percentile(&mut self.submit_read_ns, 0.99)),
            "us",
            reads,
        ));
        if self.link_spans > 0 {
            let lt = self.tick_self_ns.len() as u64;
            let tick_ms_p50 = out[0].value;
            let tick_ms_p99 = out[1].value;
            out.push(Metric::new("relay.tick_ms_p50", tick_ms_p50, "ms", ticks));
            out.push(Metric::new("relay.tick_ms_p99", tick_ms_p99, "ms", ticks));
            out.push(Metric::new(
                "relay.tick_self_ms_p50",
                ms(percentile(&mut self.tick_self_ns, 0.5)),
                "ms",
                lt,
            ));
            out.push(Metric::new(
                "relay.broadcast_us_p50",
                us(percentile(&mut self.broadcast_ns, 0.5)),
                "us",
                lt,
            ));
            out.push(Metric::new(
                "relay.shard_wait_ms_p50",
                ms(percentile(&mut self.shard_wait_ns, 0.5)),
                "ms",
                lt,
            ));
            let bytes: u64 = self.tick_bytes.iter().sum();
            out.push(Metric::new(
                "relay.bytes_per_tick",
                bytes as f64 / lt.max(1) as f64,
                "B",
                lt,
            ));
            let q = self.query_ns.len() as u64;
            out.push(Metric::new(
                "relay.query_us_p50",
                us(percentile(&mut self.query_ns, 0.5)),
                "us",
                q,
            ));
            out.push(Metric::new(
                "relay.frames_per_read",
                self.read_frames as f64 / q.max(1) as f64,
                "count",
                q,
            ));
        }
        out
    }
}
