//! The closed-loop load generator shared by `ingest`, `churn` and `relay`.
//!
//! One thread plays every session and drives the ticks: each idle
//! session issues reads (answered inside `submit`) until it issues one
//! write, then the loop ticks and collects the replies. A session
//! never has more than one write outstanding, so with a queue at least
//! as long as the session count nothing is ever refused with `Busy`.
//!
//! Session `c`'s stream is a pure function of `(seed, c)`: request kinds
//! come from `derive(seed, MIX, c << 32 | i)` against the mix, probes
//! walk `offset_c, offset_c + 1, ...` (mod m) from the start of a
//! stripe of `m / sessions` objects (stripes assigned to sessions by a
//! seeded rotation, so the sessions together cover every object once
//! each has probed a stripe's worth), posts replay the
//! session's last revealed grade, and reads target seeded objects. The
//! submit/tick sequence does not depend on timing, so a run's final
//! state digest is a function of the seed and the plan.

use std::sync::mpsc::{channel, Receiver};
use std::time::Instant;
use tmwia_model::rng::derive;
use tmwia_service::{ReplySender, Request, Response, Serving, SessionId};

const TAG_MIX: u64 = 0x7065_7266_6d69_7801;
const TAG_OFFSET: u64 = 0x7065_7266_6f66_6602;
const TAG_READ: u64 = 0x7065_7266_7265_6103;

/// A measurement window closes every this many ticks and at the end of
/// each episode; end-to-end figures are medians over windows, so a burst
/// of host noise moves a few windows rather than the figure. 64 ticks is
/// `ingest`'s snapshot period, so each of its full windows holds exactly
/// one snapshot tick.
pub const WINDOW_TICKS: u64 = 64;

/// Request-kind weights in parts per thousand.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub probe: u64,
    pub post: u64,
    pub read: u64,
    pub recommend: u64,
}

impl Mix {
    pub fn describe(&self) -> String {
        format!(
            "probe={} post={} read={} recommend={}",
            self.probe as f64 / 1000.0,
            self.post as f64 / 1000.0,
            self.read as f64 / 1000.0,
            self.recommend as f64 / 1000.0
        )
    }
}

/// One closed-loop episode: instance size, service knobs and traffic.
#[derive(Clone, Debug)]
pub struct Plan {
    pub n: usize,
    pub m: usize,
    pub batch: usize,
    pub queue: usize,
    pub sessions: usize,
    /// Probe/Post/Read/Recommend requests each session sends.
    pub requests_per_session: usize,
    pub mix: Mix,
    /// Leave after this many writes, then join again (churn).
    pub leave_after: Option<u32>,
    pub recommend_count: u16,
}

impl Plan {
    pub fn params(&self) -> Vec<(String, String)> {
        vec![
            ("n".into(), self.n.to_string()),
            ("m".into(), self.m.to_string()),
            ("batch".into(), self.batch.to_string()),
            ("queue".into(), self.queue.to_string()),
            ("sessions".into(), self.sessions.to_string()),
            (
                "requests_per_session".into(),
                self.requests_per_session.to_string(),
            ),
            ("mix".into(), self.mix.describe()),
            (
                "leave_after_writes".into(),
                self.leave_after.map_or("never".into(), |k| k.to_string()),
            ),
            ("recommend_count".into(), self.recommend_count.to_string()),
        ]
    }

    /// Requests one episode sends at most (controls included), for
    /// preallocating sample buffers.
    pub fn requests_bound(&self) -> usize {
        let per = self.requests_per_session;
        let controls = match self.leave_after {
            Some(k) => 2 * (per / k.max(1) as usize + 1),
            None => 1,
        };
        self.sessions * (per + controls)
    }
}

/// Samples accumulated over a phase's episodes. Buffers are
/// preallocated by the caller.
#[derive(Default)]
pub struct Samples {
    /// Join/Leave/Probe/Post, submit to reply, nanoseconds.
    pub write_ns: Vec<u64>,
    /// Read/Recommend, submit to reply, nanoseconds.
    pub read_ns: Vec<u64>,
    /// Join only (a subset of `write_ns`).
    pub join_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    pub ticks: u64,
    /// Wall time inside `drive`, summed over episodes.
    pub wall_ns: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Running totals at the end of each measurement window.
    pub windows: Vec<WindowEnd>,
}

/// Running totals of a phase's samples at the end of one window.
#[derive(Clone, Copy)]
pub struct WindowEnd {
    pub writes: usize,
    pub reads: usize,
    pub completed: u64,
    pub wall_ns: u64,
}

impl Samples {
    pub fn with_capacity(requests: usize) -> Self {
        Samples {
            write_ns: Vec::with_capacity(requests),
            read_ns: Vec::with_capacity(requests / 4),
            join_ns: Vec::with_capacity(requests / 8),
            ..Samples::default()
        }
    }

    fn close_window(&mut self, wall_ns: u64) {
        self.windows.push(WindowEnd {
            writes: self.write_ns.len(),
            reads: self.read_ns.len(),
            completed: self.completed,
            wall_ns,
        });
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Write {
    Join,
    Leave,
    Probe(u32),
    Post,
}

struct Client {
    session: Option<SessionId>,
    /// Data requests generated so far (the stream index).
    next: u64,
    walked: u64,
    offset: u64,
    writes_since_join: u32,
    last_grade: Option<(u32, bool)>,
    pending: Option<(Write, Instant)>,
    serial: u64,
    done: bool,
}

/// Run one episode of `plan` against `svc`, appending to `out`.
pub fn drive<S: Serving>(svc: &S, plan: &Plan, seed: u64, out: &mut Samples) {
    let (tx, rx) = channel();
    let stripe = (plan.m / plan.sessions).max(1) as u64;
    let rotation = derive(seed, TAG_OFFSET, 0) % plan.sessions as u64;
    let mut clients: Vec<Client> = (0..plan.sessions as u64)
        .map(|c| Client {
            session: None,
            next: 0,
            walked: 0,
            offset: ((c + rotation) % plan.sessions as u64) * stripe,
            writes_since_join: 0,
            last_grade: None,
            pending: None,
            serial: 0,
            done: false,
        })
        .collect();
    let start = Instant::now();
    let wall0 = out.wall_ns;
    let mut ticks = 0u64;
    loop {
        for (c, client) in clients.iter_mut().enumerate() {
            advance(svc, c as u64, client, plan, seed, &tx, &rx, out);
        }
        if clients.iter().all(|c| c.pending.is_none()) {
            break;
        }
        svc.tick();
        out.ticks += 1;
        ticks += 1;
        let replied = Instant::now();
        while let Ok((id, resp)) = rx.try_recv() {
            let client = &mut clients[(id >> 32) as usize];
            settle(client, id, resp, replied, out);
        }
        if ticks.is_multiple_of(WINDOW_TICKS) {
            out.close_window(wall0 + start.elapsed().as_nanos() as u64);
        }
    }
    out.wall_ns += start.elapsed().as_nanos() as u64;
    out.close_window(out.wall_ns);
}

fn request_id(c: u64, client: &mut Client) -> u64 {
    client.serial += 1;
    (c << 32) | client.serial
}

/// Issue requests for one idle session until it has a write in flight
/// or its stream is exhausted. Reads complete inside `submit`.
#[allow(clippy::too_many_arguments)]
fn advance<S: Serving>(
    svc: &S,
    c: u64,
    client: &mut Client,
    plan: &Plan,
    seed: u64,
    tx: &ReplySender,
    rx: &Receiver<(u64, Response)>,
    out: &mut Samples,
) {
    while !client.done && client.pending.is_none() {
        let (write, req) = match client.session {
            None => (Write::Join, Request::Join),
            Some(session)
                if plan
                    .leave_after
                    .is_some_and(|k| client.writes_since_join >= k) =>
            {
                (Write::Leave, Request::Leave { session })
            }
            Some(session) => {
                if client.next >= plan.requests_per_session as u64 {
                    client.done = true;
                    return;
                }
                let draw = derive(seed, TAG_MIX, (c << 32) | client.next) % 1000;
                let i = client.next;
                client.next += 1;
                let mix = plan.mix;
                if draw >= mix.probe + mix.post {
                    let req = if draw < mix.probe + mix.post + mix.read {
                        Request::Read {
                            object: (derive(seed, TAG_READ, (c << 32) | i) % plan.m as u64) as u32,
                        }
                    } else {
                        Request::Recommend {
                            count: plan.recommend_count,
                        }
                    };
                    read(svc, c, client, req, tx, rx, out);
                    continue;
                }
                match client.last_grade {
                    Some((object, grade)) if draw >= mix.probe => (
                        Write::Post,
                        Request::Post {
                            session,
                            object,
                            grade,
                        },
                    ),
                    _ => {
                        let object = ((client.offset + client.walked) % plan.m as u64) as u32;
                        client.walked += 1;
                        (
                            Write::Probe(object),
                            Request::Probe {
                                session,
                                object,
                                share: true,
                            },
                        )
                    }
                }
            }
        };
        let id = request_id(c, client);
        out.attempted += 1;
        client.pending = Some((write, Instant::now()));
        svc.submit(id, req, tx);
    }
}

fn read<S: Serving>(
    svc: &S,
    c: u64,
    client: &mut Client,
    req: Request,
    tx: &ReplySender,
    rx: &Receiver<(u64, Response)>,
    out: &mut Samples,
) {
    let id = request_id(c, client);
    out.attempted += 1;
    let want_board = matches!(req, Request::Read { .. });
    let start = Instant::now();
    svc.submit(id, req, tx);
    let reply = rx.try_recv();
    let elapsed = start.elapsed().as_nanos() as u64;
    match reply {
        Ok((rid, Response::Board { .. })) if rid == id && want_board => {
            out.read_ns.push(elapsed);
            out.completed += 1;
        }
        Ok((rid, Response::Recommended { .. })) if rid == id && !want_board => {
            out.read_ns.push(elapsed);
            out.completed += 1;
        }
        Ok((rid, other)) => out.fail(format!("read {id} answered {rid}: {other:?}")),
        Err(_) => out.fail(format!("read {id} got no immediate reply")),
    }
}

fn settle(client: &mut Client, id: u64, resp: Response, replied: Instant, out: &mut Samples) {
    let Some((write, submitted)) = client.pending.take() else {
        out.fail(format!("reply {id} to a session with nothing in flight"));
        return;
    };
    let latency = replied.duration_since(submitted).as_nanos() as u64;
    let ok = match (write, resp) {
        (Write::Join, Response::Joined { session, .. }) => {
            client.session = Some(session);
            client.writes_since_join = 0;
            out.join_ns.push(latency);
            true
        }
        (Write::Leave, Response::Left { .. }) => {
            client.session = None;
            true
        }
        (
            Write::Probe(object),
            Response::Grade {
                object: got, value, ..
            },
        ) if got == object => {
            client.last_grade = Some((object, value));
            client.writes_since_join += 1;
            true
        }
        (Write::Post, Response::Posted { .. }) => {
            client.writes_since_join += 1;
            true
        }
        (write, other) => {
            out.fail(format!("{write:?} request {id} answered {other:?}"));
            if matches!(write, Write::Join | Write::Leave) {
                client.done = true;
            }
            false
        }
    };
    if ok {
        out.write_ns.push(latency);
        out.completed += 1;
    }
}
