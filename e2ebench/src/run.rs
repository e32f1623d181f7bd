//! The end-to-end drivers: a sender thread (credit-paced replay or
//! open-loop live), a root poller that turns root answers into
//! per-(site, window) freshness and completion, and the query clients.

use crate::fleet::Fleet;
use crate::gen::{
    self, Datagram, Exporter, Plan, QuerySpec, Target, Totals, CREDIT, SITES, WINDOW_MS,
};
use crate::stats::Tracer;
use flowrelay::server::query_remote;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The window poller asks at least this often while windows are open,
/// and otherwise whenever new frames reach the root.
pub const POLL_PERIOD: Duration = Duration::from_millis(100);
/// How long a plan may take to show complete at the root.
pub const COMPLETE_DEADLINE: Duration = Duration::from_secs(60);

/// Wall clock, epoch ms.
pub fn epoch_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The replay credit window: at most [`CREDIT`] datagrams per site sent
/// but not yet counted by the site.
#[derive(Debug, Clone)]
pub struct Credit {
    sent: Vec<u64>,
    counted: Vec<u64>,
}

impl Credit {
    /// Zero in flight at every site.
    pub fn new(sites: usize) -> Credit {
        Credit {
            sent: vec![0; sites],
            counted: vec![0; sites],
        }
    }

    /// Whether `site` may send now; refreshes the site's count through
    /// `count` only when the window looks full.
    pub fn can_send(&mut self, site: usize, count: impl FnOnce() -> u64) -> bool {
        if self.sent[site] - self.counted[site] < CREDIT {
            return true;
        }
        self.counted[site] = count().min(self.sent[site]);
        self.sent[site] - self.counted[site] < CREDIT
    }

    /// Records one datagram sent to `site`.
    pub fn on_send(&mut self, site: usize) {
        self.sent[site] += 1;
        debug_assert!(self.sent[site] - self.counted[site] <= CREDIT);
    }

    /// Datagrams sent per site.
    pub fn sent(&self) -> &[u64] {
        &self.sent
    }
}

/// One window's state at the root, as the poller has seen it.
#[derive(Debug, Clone)]
struct WinState {
    expected: Totals,
    data: bool,
    sample: bool,
    offered: Vec<Option<Instant>>,
    visible: Vec<Option<Instant>>,
    complete: Option<Instant>,
}

/// What the sender and the poller share.
#[derive(Debug, Default)]
pub struct Board {
    wins: BTreeMap<u64, WinState>,
    /// Freshness samples, ms.
    pub freshness_ms: Vec<f64>,
    /// Poll answers that matched no consistent reading.
    pub anomalies: u64,
}

impl Board {
    /// Registers a plan's windows.
    pub fn add(&mut self, plan: &Plan) {
        for (&w, &expected) in &plan.expected {
            self.wins.insert(
                w,
                WinState {
                    expected,
                    data: plan.data_windows.contains(&w),
                    sample: plan.sample_windows.contains(&w),
                    offered: vec![None; SITES as usize],
                    visible: vec![None; SITES as usize],
                    complete: None,
                },
            );
        }
    }

    /// Marks `site` as offered window `w` in full at `at`.
    pub fn offer(&mut self, site: u16, w: u64, at: Instant) {
        if let Some(st) = self.wins.get_mut(&w) {
            st.offered[site as usize].get_or_insert(at);
        }
    }

    /// When every data window in `ws` showed complete: the latest
    /// completion.
    pub fn completed(&self, ws: &[u64]) -> Option<Instant> {
        ws.iter()
            .map(|w| self.wins.get(w).and_then(|s| s.complete))
            .try_fold(None::<Instant>, |acc, c| {
                c.map(|c| Some(acc.map_or(c, |a| a.max(c))))
            })
            .flatten()
    }

    /// The next poll, if any window is waiting on the root.
    fn next_poll(&self) -> Option<Poll> {
        let pending: Vec<u64> = self
            .wins
            .iter()
            .filter(|(_, s)| {
                s.data && s.complete.is_none() && s.offered.iter().any(Option::is_some)
            })
            .map(|(w, _)| *w)
            .collect();
        let (&a, &b) = (pending.first()?, pending.last()?);
        let prev = a - WINDOW_MS;
        let (prev_tot, lifetime_full) = match self.wins.get(&prev) {
            None => (Totals::default(), false),
            Some(p) if p.complete.is_some() => (p.expected, true),
            // The window before is still settling: wait for it.
            Some(_) => return None,
        };
        // Without a complete predecessor the root's coverage lines say
        // nothing about absent sites: ask about the oldest window alone.
        let b = if lifetime_full { b } else { a };
        let ws = (a..=b)
            .step_by(WINDOW_MS as usize)
            .filter_map(|w| self.wins.get(&w).map(|s| (w, s.expected)))
            .collect();
        Some(Poll {
            from: prev,
            to: b + WINDOW_MS,
            windows: ws,
            prev: prev_tot,
            lifetime_full,
        })
    }

    fn apply(&mut self, statuses: &[(u64, Status)], at: Instant, attribute: bool) {
        for (w, st) in statuses {
            let win = self.wins.get_mut(w).expect("polled window");
            let visible: Vec<u16> = match st {
                Status::Complete => {
                    win.complete.get_or_insert(at);
                    (0..SITES).collect()
                }
                Status::Partial(v) => v.clone(),
                Status::Unstored => Vec::new(),
            };
            for s in visible {
                let slot = &mut win.visible[s as usize];
                if slot.is_none() {
                    *slot = Some(at);
                    if attribute && win.sample {
                        if let Some(o) = win.offered[s as usize] {
                            self.freshness_ms.push(ms(at.saturating_duration_since(o)));
                        }
                    }
                }
            }
        }
    }
}

/// One poll: the range asked about, the windows in it with their
/// expected totals, the totals of the window before them, and whether
/// per-site attribution holds (see [`attribute`]).
#[derive(Debug)]
struct Poll {
    from: u64,
    to: u64,
    windows: Vec<(u64, Totals)>,
    prev: Totals,
    lifetime_full: bool,
}

/// A polled window's state at the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Every site folded in.
    Complete,
    /// Some sites folded in (the visible ones).
    Partial(Vec<u16>),
    /// Not at the root yet.
    Unstored,
}

/// A parsed `pop` answer: totals plus per-window missing sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PopAnswer {
    /// Totals over the range.
    pub total: Totals,
    /// `missing in window` lines: window start → absent sites.
    pub gaps: BTreeMap<u64, Vec<u16>>,
}

/// Parses a root `pop` response.
pub fn parse_pop(body: &str) -> Option<PopAnswer> {
    let mut out = PopAnswer::default();
    let mut seen = false;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("popularity: ") {
            let nums: Vec<i64> = rest
                .split(',')
                .filter_map(|p| p.split_whitespace().next()?.parse().ok())
                .collect();
            if let [p, b, f] = nums[..] {
                out.total = Totals {
                    flows: f,
                    packets: p,
                    bytes: b,
                };
                seen = true;
            }
        } else if let Some(rest) = line.strip_prefix("missing in window ") {
            let (w, sites) = rest.split_once("ms: ")?;
            let sites = sites
                .trim_matches(|c| c == '[' || c == ']')
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
            out.gaps.insert(w.parse().ok()?, sites);
        }
    }
    seen.then_some(out)
}

/// Reads a poll answer over windows `ws` (ascending, each with its
/// expected totals) whose predecessor holds `prev`. Per-site delivery
/// is in window order at every tier, so stored windows form a prefix
/// and a site missing from one window is missing from every later one.
/// With `lifetime_full` (the complete predecessor puts every site in
/// the answer's coverage) a window without a coverage line is complete
/// or absent, and the totals tell which; without it only a single
/// window can be read, by its total alone. `None`: no consistent
/// reading.
pub fn attribute(
    ws: &[(u64, Totals)],
    prev: Totals,
    ans: &PopAnswer,
    lifetime_full: bool,
) -> Option<Vec<(u64, Status)>> {
    let all: Vec<u16> = (0..SITES).collect();
    if !lifetime_full {
        let [(w, exp)] = ws else { return None };
        let got = ans.total.flows - prev.flows;
        let st = if got == 0 {
            Status::Unstored
        } else if ans.gaps.is_empty() && ans.total == prev.plus(*exp) {
            Status::Complete
        } else {
            return Some(Vec::new());
        };
        return Some(vec![(*w, st)]);
    }
    let first_gap = ws.iter().position(|(w, _)| ans.gaps.contains_key(w));
    let mut out = Vec::with_capacity(ws.len());
    match first_gap {
        Some(p) => {
            for (i, (w, _)) in ws.iter().enumerate() {
                let st = match ans.gaps.get(w) {
                    Some(missing) => Status::Partial(
                        all.iter()
                            .copied()
                            .filter(|s| !missing.contains(s))
                            .collect(),
                    ),
                    None if i < p => Status::Complete,
                    None => Status::Unstored,
                };
                out.push((*w, st));
            }
        }
        None => {
            // A prefix is complete; its expected totals must add up to
            // the answer exactly.
            let mut acc = prev;
            let mut k = None;
            if acc == ans.total {
                k = Some(0);
            }
            for (i, (_, exp)) in ws.iter().enumerate() {
                acc = acc.plus(*exp);
                if acc == ans.total {
                    k = Some(i + 1);
                }
            }
            let k = k?;
            for (i, (w, _)) in ws.iter().enumerate() {
                out.push((
                    *w,
                    if i < k {
                        Status::Complete
                    } else {
                        Status::Unstored
                    },
                ));
            }
        }
    }
    Some(out)
}

/// What the poller measured.
#[derive(Debug, Default)]
pub struct PollOut {
    /// Root round trips, ms, each timed from when it was due.
    pub latency_ms: Vec<f64>,
    /// Same, split by whether spans were recorded (trace runs alternate).
    pub latency_traced_ms: Vec<f64>,
    /// Polls sent.
    pub attempted: u64,
    /// Polls that failed in transport or with an error status.
    pub failed: u64,
    /// Largest relay export backlog seen (`NodeRuntime::pending_len`).
    pub pending_max: usize,
    /// Wall time the poller ran.
    pub secs: f64,
    /// Spans.
    pub tracer: Option<Tracer>,
}

/// Polls the root about the oldest unfinished windows whenever new
/// frames have landed there (the root's `NodeRuntime::ledger` frame
/// count moved) or [`POLL_PERIOD`] passed without an answer, until
/// `stop` is raised. Each request is timed from when it became due:
/// the moment the poller saw the root change.
pub fn poller(fleet: &Fleet, board: &Mutex<Board>, stop: &AtomicBool, trace: bool) -> PollOut {
    let root = fleet.root();
    let mut conn: Option<TcpStream> = None;
    let mut out = PollOut::default();
    let mut tracer = Tracer::new(trace);
    let started = Instant::now();
    let mut seen_frames = u64::MAX;
    let mut last_ask = started;
    let mut slot = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let frames = root.ledger().frames;
        if frames == seen_frames && last_ask.elapsed() < POLL_PERIOD {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let due = Instant::now();
        let next = board.lock().expect("board lock").next_poll();
        let Some(Poll {
            from,
            to,
            windows: ws,
            prev,
            lifetime_full: full,
        }) = next
        else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        seen_frames = frames;
        slot += 1;
        for r in &fleet.relays {
            out.pending_max = out.pending_max.max(r.pending_len());
        }
        let text = format!("pop from={from} to={to}");
        out.attempted += 1;
        tracer.set_on(trace && slot.is_multiple_of(2));
        let id = tracer.enter("poll.query", slot);
        let resp = ask(&mut conn, root.query_addr(), &text);
        tracer.exit(id);
        let at = Instant::now();
        last_ask = at;
        let lat = ms(at - due);
        if tracer.on() {
            out.latency_traced_ms.push(lat);
        } else {
            out.latency_ms.push(lat);
        }
        let Some(ans) = resp.as_deref().and_then(parse_pop) else {
            out.failed += 1;
            continue;
        };
        let mut b = board.lock().expect("board lock");
        match attribute(&ws, prev, &ans, full) {
            Some(st) => b.apply(&st, at, full),
            None => b.anomalies += 1,
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    out.tracer = Some(tracer);
    out
}

/// One request over a persistent connection to `addr`, reconnecting
/// when the connection is missing or broken. `None` on transport
/// failure or an error status.
pub fn ask(conn: &mut Option<TcpStream>, addr: SocketAddr, text: &str) -> Option<String> {
    if conn.as_ref().and_then(|c| c.peer_addr().ok()) != Some(addr) {
        *conn = TcpStream::connect(addr).ok();
    }
    let c = conn.as_mut()?;
    match query_remote(c, text) {
        Ok(Ok(body)) => Some(body),
        Ok(Err(_)) => None,
        Err(_) => {
            *conn = None;
            None
        }
    }
}

/// The simulated exporters' sockets, one per exporter.
pub fn exporter_sockets(ex: &[Exporter]) -> Vec<UdpSocket> {
    ex.iter()
        .map(|e| UdpSocket::bind((e.ip, 0)).expect("bind exporter address on loopback"))
        .collect()
}

/// What the sender measured for one plan.
#[derive(Debug, Default, Clone)]
pub struct SendOut {
    /// First datagram sent.
    pub first: Option<Instant>,
    /// Time spent waiting for credit, s.
    pub credit_wait_s: f64,
    /// Wall time of the sending loop, s.
    pub send_s: f64,
    /// How late each datagram left, ms: behind its due time when sent
    /// on a schedule (`live`, a paced replay), behind the moment credit
    /// allowed it otherwise.
    pub lag_ms: Vec<f64>,
}

fn mark(board: &Mutex<Board>, ex: &[Exporter], d: &Datagram, at: impl Fn(u64) -> Instant) {
    if !d.completes.is_empty() {
        let mut b = board.lock().expect("board lock");
        for &w in &d.completes {
            b.offer(ex[d.exporter].site, w, at(w));
        }
    }
}

/// Sends a replay plan closed-loop: sites round-robin, each held to the
/// credit window against its own `ingest_snapshot` count. With `pace`
/// (records per second) no datagram leaves before its share of that
/// rate, so the fleet sees a fixed offered load below its capacity.
/// Each datagram's lateness is timed from its due time when paced, and
/// from the moment credit allowed it otherwise.
#[allow(clippy::too_many_arguments)]
pub fn send_replay(
    fleet: &Fleet,
    plan: &Plan,
    ex: &[Exporter],
    socks: &[UdpSocket],
    credit: &mut Credit,
    board: &Mutex<Board>,
    pace: Option<f64>,
    t: &mut Tracer,
) -> SendOut {
    let addrs: Vec<SocketAddr> = fleet.sites.iter().map(|s| s.ingest_addr()).collect();
    let queues = plan.site_queues(ex);
    let mut pos = vec![0usize; queues.len()];
    let mut out = SendOut::default();
    let start = Instant::now();
    out.first = Some(start);
    let mut records = 0u64;
    loop {
        let mut progressed = false;
        let mut remaining = false;
        for s in 0..queues.len() {
            if pos[s] >= queues[s].len() {
                continue;
            }
            remaining = true;
            let can = credit.can_send(s, || {
                t.span("gen.ingest_snapshot", s as u64, || {
                    fleet.sites[s].ingest_snapshot().datagrams
                })
            });
            if !can {
                continue;
            }
            let d = &plan.datagrams[queues[s][pos[s]]];
            let due = match pace {
                Some(rate) => {
                    let due = start + Duration::from_secs_f64(records as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                None => Instant::now(),
            };
            records += u64::from(d.records);
            socks[d.exporter]
                .send_to(&d.bytes, addrs[s])
                .expect("loopback send");
            credit.on_send(s);
            pos[s] += 1;
            progressed = true;
            let now = Instant::now();
            out.lag_ms.push(ms(now.saturating_duration_since(due)));
            mark(board, ex, d, |_| now);
        }
        if !remaining {
            break;
        }
        if !progressed {
            let w = Instant::now();
            let id = t.enter("gen.credit_wait", 0);
            std::thread::sleep(Duration::from_micros(50));
            t.exit(id);
            out.credit_wait_s += w.elapsed().as_secs_f64();
        }
    }
    out.send_s = start.elapsed().as_secs_f64();
    out
}

/// Sends a live plan open-loop: each datagram at its due time from
/// `t0` (lateness recorded), event time = due time.
pub fn send_live(
    fleet: &Fleet,
    plan: &Plan,
    ex: &[Exporter],
    socks: &[UdpSocket],
    t0: Instant,
    t0_ms: u64,
    board: &Mutex<Board>,
) -> SendOut {
    let addrs: Vec<SocketAddr> = fleet.sites.iter().map(|s| s.ingest_addr()).collect();
    let mut out = SendOut::default();
    let window_end = |w: u64| t0 + Duration::from_millis(w + WINDOW_MS - t0_ms);
    for d in &plan.datagrams {
        let due = t0 + Duration::from_micros(d.due_us);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let site = ex[d.exporter].site as usize;
        socks[d.exporter]
            .send_to(&d.bytes, addrs[site])
            .expect("loopback send");
        let sent = Instant::now();
        out.first.get_or_insert(sent);
        out.lag_ms.push(ms(sent.saturating_duration_since(due)));
        mark(board, ex, d, window_end);
    }
    out.send_s = out.first.map_or(0.0, |f| f.elapsed().as_secs_f64());
    out
}

/// Waits until every window in `ws` showed complete at the root.
pub fn await_complete(board: &Mutex<Board>, ws: &[u64], deadline: Duration) -> Option<Instant> {
    let until = Instant::now() + deadline;
    loop {
        if let Some(t) = board.lock().expect("board lock").completed(ws) {
            return Some(t);
        }
        if Instant::now() > until {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Event-time anchor for replay rounds: far enough in the past that no
/// relay linger is ever waited out, on a window boundary.
pub fn replay_anchor() -> u64 {
    gen::window(epoch_ms() - 600_000)
}

/// Outcome of one query-client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Answered; how it compares with the in-process replica.
    Answered(crate::layers::Verdict),
    /// Transport failure or error status.
    Failed,
}

/// One client's request: a root query over the root connection, or a
/// per-site breakdown fanned out over the owning leaves (the one
/// connection re-targets as needed).
pub fn run_query(
    fleet: &Fleet,
    conn: &mut Option<TcpStream>,
    q: &QuerySpec,
    expected: &str,
) -> Answer {
    let got = match &q.target {
        Target::Root => match ask(conn, fleet.root().query_addr(), &q.text) {
            Some(body) => crate::layers::answer_body(&body),
            None => return Answer::Failed,
        },
        Target::Leaves(parts) => {
            let mut rows = String::new();
            for (leaf, text) in parts {
                match ask(conn, fleet.relay(leaf).query_addr(), text) {
                    Some(body) => rows.push_str(&crate::layers::answer_body(&body)),
                    None => return Answer::Failed,
                }
            }
            crate::layers::normalize_rows(&rows)
        }
    };
    let v = crate::layers::compare(&q.text, &got, expected);
    if v == crate::layers::Verdict::Wrong {
        eprintln!(
            "query answered wrong: {}\ngot:\n{got}\nexpected:\n{expected}",
            q.text
        );
    }
    Answer::Answered(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tot(f: i64) -> Totals {
        Totals {
            flows: f,
            packets: f * 2,
            bytes: f * 100,
        }
    }

    #[test]
    fn credit_window_never_exceeds_k() {
        let mut c = Credit::new(2);
        let mut counted = 0u64;
        let mut max_seen = 0u64;
        for step in 0..10_000u64 {
            // The site counts a datagram every third step.
            if step % 3 == 0 {
                counted = (counted + 1).min(c.sent()[0]);
            }
            if c.can_send(0, || counted) {
                c.on_send(0);
            }
            max_seen = max_seen.max(c.sent()[0] - counted);
        }
        assert!(max_seen <= CREDIT);
        assert!(c.sent()[0] > 3_000, "credit keeps the sender going");
        // A site that never counts lets exactly K through.
        let mut c = Credit::new(1);
        let sent = (0..100)
            .filter(|_| {
                c.can_send(0, || 0) && {
                    c.on_send(0);
                    true
                }
            })
            .count();
        assert_eq!(sent as u64, CREDIT);
    }

    #[test]
    fn pop_answers_parse() {
        let body = "route: root[aggregated]\nmissing in window 1500ms: [2, 5]\npopularity: 40 packets, 2000 bytes, 20 flows\n";
        let a = parse_pop(body).unwrap();
        assert_eq!(a.total, tot(20));
        assert_eq!(a.gaps[&1500], vec![2, 5]);
        assert!(parse_pop("route: x\n").is_none());
    }

    #[test]
    fn attribution_reads_prefixes_and_gaps() {
        let ws = [(1000, tot(10)), (1500, tot(10)), (2000, tot(10))];
        // Two complete, third absent.
        let a = PopAnswer {
            total: tot(25),
            gaps: BTreeMap::new(),
        };
        let st = attribute(&ws, tot(5), &a, true).unwrap();
        assert_eq!(st[0].1, Status::Complete);
        assert_eq!(st[1].1, Status::Complete);
        assert_eq!(st[2].1, Status::Unstored);
        // Second partial (site 3 missing): first complete, third absent.
        let mut gaps = BTreeMap::new();
        gaps.insert(1500, vec![3]);
        let a = PopAnswer {
            total: tot(22),
            gaps,
        };
        let st = attribute(&ws, tot(5), &a, true).unwrap();
        assert_eq!(st[0].1, Status::Complete);
        assert_eq!(
            st[1].1,
            Status::Partial((0..SITES).filter(|&s| s != 3).collect())
        );
        assert_eq!(st[2].1, Status::Unstored);
        // Totals that fit no prefix: no reading.
        let a = PopAnswer {
            total: tot(21),
            gaps: BTreeMap::new(),
        };
        assert!(attribute(&ws, tot(5), &a, true).is_none());
        // Without a complete predecessor only one window is read.
        let a = PopAnswer {
            total: tot(10),
            gaps: BTreeMap::new(),
        };
        assert_eq!(
            attribute(&ws[..1], tot(0), &a, false).unwrap()[0].1,
            Status::Complete
        );
        let a = PopAnswer {
            total: tot(4),
            gaps: BTreeMap::new(),
        };
        assert!(attribute(&ws[..1], tot(0), &a, false).unwrap().is_empty());
    }
}
