//! `e2ebench` — one end-to-end benchmark for a Flowtree fleet.
//!
//! Boots 8 `SiteRuntime` sites under a three-tier `NodeRuntime` relay
//! tree in this process, drives it over loopback with seeded traffic
//! and root queries, checks every answer against a flat oracle, and
//! prints one JSON result line. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload replay|live|query --seed N --seconds S --trace 0|1
//! ```

mod fleet;
mod gen;
mod layers;
mod run;
mod stats;

use fleet::Fleet;
use flowrelay::spec::FleetSpec;
use gen::{Exporter, Plan, QuerySpec, SITES, WINDOW_MS};
use run::{Answer, Board, Credit, PollOut, SendOut};
use stats::{json_num, json_str, median, percentile, Tracer};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fleet boots per run (at least); `setup_s` is their median. `live`
/// boots five times since its set-up is the boot alone.
const SETUPS: usize = 3;
const LIVE_SETUPS: usize = 5;
/// φ of the HHH set the correctness gate compares.
const GATE_PHI: &str = "0.05";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        match k.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = v.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = v == "1",
            _ => return Err(format!("unknown flag {k}")),
        }
    }
    if !matches!(a.workload.as_str(), "replay" | "live" | "query") {
        return Err("--workload must be replay, live or query".into());
    }
    a.seconds = a.seconds.max(1);
    Ok(a)
}

/// Named metrics with units, sorted by name, and the names that had no
/// value (no samples, or a ratio over nothing).
#[derive(Debug, Default)]
struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
    missing: Vec<&'static str>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.values.insert(name, (value, unit));
        } else {
            self.missing.push(name);
        }
    }

    fn json(&self) -> String {
        let parts: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(k),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Correctness accounting shared by every workload.
#[derive(Debug, Default)]
struct Gate {
    records_sent: u64,
    records_visible: u64,
    queries: u64,
    queries_failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn fail(&mut self, what: String) {
        eprintln!("gate: {what}");
        self.failures.push(what);
    }

    /// A poller's requests, and its root answers that fit no prefix of
    /// the expected totals.
    fn poll(&mut self, poll: &PollOut, anomalies: u64) {
        self.queries += poll.attempted;
        self.queries_failed += poll.failed;
        if anomalies > 0 {
            self.fail(format!(
                "poller: {anomalies} root answers fit no consistent reading"
            ));
        }
    }

    fn attempted(&self) -> u64 {
        (self.records_sent + self.queries).max(1)
    }

    fn failed(&self) -> u64 {
        self.records_sent.saturating_sub(self.records_visible)
            + self.queries_failed
            + self.failures.len() as u64
    }
}

/// Everything one run measured, before it becomes metrics.
#[derive(Default)]
struct Outcome {
    setup_s: Vec<f64>,
    rates: Vec<f64>,
    rates_traced: Vec<f64>,
    freshness_ms: Vec<f64>,
    query_ms: Vec<f64>,
    query_traced_ms: Vec<f64>,
    queries_done: u64,
    query_secs: f64,
    gen_lag_ms: Vec<f64>,
    credit_wait_s: f64,
    send_s: f64,
    pending_max: usize,
    e2e_secs_per_plan: Vec<f64>,
    sent_datagrams: u64,
    counted_datagrams: u64,
    scrape: Vec<(String, String, String)>,
    ledgers: Vec<flowrelay::RelayLedger>,
    /// The plan the in-process replay reproduces, and the query texts
    /// the in-process serve layer answers.
    plan: Option<Plan>,
    queries: Vec<QuerySpec>,
    tracer: Option<Tracer>,
    /// Query answers within tolerance of the replica but not identical.
    estimate_drift: u64,
    /// Resident size once the inputs were generated, when the peak was
    /// reset, MB.
    rss_base_mb: f64,
}

fn boot(spec: &FleetSpec) -> (Fleet, f64) {
    let t = Instant::now();
    let fleet = Fleet::boot(spec);
    fleet.wait_ready(Duration::from_secs(60));
    (fleet, t.elapsed().as_secs_f64())
}

fn ask_root(fleet: &Fleet, conn: &mut Option<TcpStream>, text: &str) -> Option<String> {
    run::ask(conn, fleet.root().query_addr(), text)
}

fn pop_totals(
    fleet: &Fleet,
    conn: &mut Option<TcpStream>,
    from: u64,
    to: u64,
) -> Option<gen::Totals> {
    ask_root(fleet, conn, &format!("pop from={from} to={to}"))
        .as_deref()
        .and_then(run::parse_pop)
        .map(|a| a.total)
}

/// The gate's root checks after traffic stops: exact totals for each
/// of `windows` and each `ranges` entry (records visible are counted
/// over `ranges`). Returns the root's HHH query and answer over
/// `hhh_range` for [`check_hhh`].
fn verify_root(
    fleet: &Fleet,
    expected: &BTreeMap<u64, gen::Totals>,
    windows: &[u64],
    ranges: &[(u64, u64)],
    hhh_range: (u64, u64),
    gate: &mut Gate,
) -> (String, Option<String>) {
    let mut conn = None;
    for &w in windows {
        match pop_totals(fleet, &mut conn, w, w + WINDOW_MS) {
            Some(t) if t == expected[&w] => {}
            got => gate.fail(format!(
                "window {w}: root shows {got:?}, expected {:?}",
                expected[&w]
            )),
        }
    }
    for &(a, b) in ranges {
        let want = expected
            .range(a..b)
            .fold(gen::Totals::default(), |acc, (_, t)| acc.plus(*t));
        match pop_totals(fleet, &mut conn, a, b) {
            Some(t) => {
                gate.records_visible += t.flows.clamp(0, want.flows) as u64;
                if t != want {
                    gate.fail(format!(
                        "range {a}..{b}: root shows {t:?}, expected {want:?}"
                    ));
                }
            }
            None => gate.fail(format!("range {a}..{b}: no answer")),
        }
    }
    let text = format!(
        "hhh {GATE_PHI} by packets from={} to={}",
        hhh_range.0, hhh_range.1
    );
    let answer = ask_root(fleet, &mut conn, &text);
    (text, answer)
}

/// The root's HHH key set must equal the flat oracle's.
fn check_hhh(
    (text, answer): (String, Option<String>),
    flat: &flowdist::Collector,
    gate: &mut Gate,
) {
    let want = layers::row_keys(&layers::flat_answer(flat, &text));
    match answer {
        Some(body) if layers::row_keys(&layers::answer_body(&body)) == want && !want.is_empty() => {
        }
        Some(body) => gate.fail(format!(
            "HHH set differs from the flat oracle:\n{body}\nexpected keys: {want:?}"
        )),
        None => gate.fail("HHH query failed".into()),
    }
}

/// The edge identity on every site's final snapshot, and datagrams the
/// sites never counted (kernel drops).
fn verify_sites(fleet: &Fleet, sent: &[u64], gate: &mut Gate, out: &mut Outcome) {
    for (s, site) in fleet.sites.iter().enumerate() {
        let snap = site.ingest_snapshot();
        if snap.datagrams != snap.packets + snap.decode_errors + snap.quota_packet_drops {
            gate.fail(format!(
                "site {s}: datagrams {} != packets {} + decode_errors {} + quota_packet_drops {}",
                snap.datagrams, snap.packets, snap.decode_errors, snap.quota_packet_drops
            ));
        }
        out.sent_datagrams += sent[s];
        out.counted_datagrams += snap.datagrams;
    }
}

fn shifted(sums: &[flowdist::Summary], by: u64) -> impl Iterator<Item = flowdist::Summary> + '_ {
    sums.iter().map(move |s| {
        let mut s = s.clone();
        s.window.start_ms += by;
        s
    })
}

/// One closed-loop replay round on a freshly booted fleet: boot (timed
/// as set-up), send the round credit-paced, wait until the root shows
/// every data window complete.
struct Round {
    fleet: Fleet,
    plan: Plan,
    setup_s: f64,
    /// First datagram sent → root complete, s.
    secs: Option<f64>,
    send: SendOut,
    poll: PollOut,
    freshness_ms: Vec<f64>,
    anomalies: u64,
    sent: Vec<u64>,
}

fn round(
    spec: &FleetSpec,
    ex: &[Exporter],
    records: &[flownet::FlowRecord],
    pace: Option<f64>,
    trace: bool,
    t: &mut Tracer,
) -> Round {
    let (fleet, setup_s) = boot(spec);
    let socks = run::exporter_sockets(ex);
    let plan = gen::replay_round(records, ex, run::replay_anchor());
    let board = Mutex::new(Board::default());
    board.lock().expect("board lock").add(&plan);
    let stop = AtomicBool::new(false);
    let mut credit = Credit::new(SITES as usize);
    let (send, done, poll) = std::thread::scope(|sc| {
        let h = sc.spawn(|| run::poller(&fleet, &board, &stop, trace));
        let so = run::send_replay(&fleet, &plan, ex, &socks, &mut credit, &board, pace, t);
        let done = run::await_complete(&board, &plan.data_windows, run::COMPLETE_DEADLINE);
        stop.store(true, Ordering::Relaxed);
        (so, done, h.join().expect("poller"))
    });
    let secs = done.map(|d| (d - send.first.expect("sent")).as_secs_f64());
    let b = board.into_inner().expect("board lock");
    Round {
        fleet,
        plan,
        setup_s,
        secs,
        send,
        poll,
        freshness_ms: b.freshness_ms,
        anomalies: b.anomalies,
        sent: credit.sent().to_vec(),
    }
}

/// The gate over one finished round while its fleet still runs: the
/// poller's requests, edge identity and kernel drops at the sites, exact
/// per-window and round totals at the root. Returns the root's HHH
/// answer for [`check_round_hhh`], which runs once the fleet is gone.
fn verify_round(
    r: &Round,
    per_window: bool,
    gate: &mut Gate,
    out: &mut Outcome,
) -> (String, Option<String>) {
    gate.records_sent += r.plan.records;
    if r.secs.is_none() {
        gate.fail("a replay round never completed at the root".into());
    }
    gate.poll(&r.poll, r.anomalies);
    verify_sites(&r.fleet, &r.sent, gate, out);
    let range = (
        r.plan.data_windows[0],
        r.plan.data_windows.last().expect("windows") + WINDOW_MS,
    );
    let windows: &[u64] = if per_window {
        &r.plan.data_windows
    } else {
        &[]
    };
    verify_root(&r.fleet, &r.plan.expected, windows, &[range], range, gate)
}

/// A round's root HHH answer against the flat oracle of the round-0
/// site windows shifted to this round's event time.
fn check_round_hhh(
    hhh: (String, Option<String>),
    plan: &Plan,
    (sums0, anchor0): &(Vec<flowdist::Summary>, u64),
    gate: &mut Gate,
) {
    let mut flat = layers::flat_collector(&[]);
    for s in shifted(sums0, plan.data_windows[0] - anchor0) {
        flat.apply(s).expect("valid summary");
    }
    check_hhh(hhh, &flat, gate);
}

/// The oracle's site windows for a plan, built in process.
fn oracle_of(plan: &Plan, ex: &[Exporter]) -> (Vec<flowdist::Summary>, u64) {
    let sums = layers::sites_inprocess(
        plan,
        ex,
        &mut Tracer::new(false),
        &mut layers::Counts::default(),
    );
    (sums, plan.data_windows[0])
}

/// Resets the process's peak resident size to its current size, so
/// `rss_peak_mb` leaves out the transient memory of generating the
/// inputs. Returns the resident size then, MB.
fn reset_rss_peak() -> f64 {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    read_proc("/proc/self/status", "VmRSS:").unwrap_or(0.0) / 1024.0
}

fn absorb_round(out: &mut Outcome, r: &mut Round, traced: bool) {
    out.setup_s.push(r.setup_s);
    if let Some(secs) = r.secs {
        let rate = r.plan.records as f64 / secs;
        if traced {
            out.rates_traced.push(rate)
        } else {
            out.rates.push(rate)
        }
        out.e2e_secs_per_plan.push(secs);
    }
    out.credit_wait_s += r.send.credit_wait_s;
    out.gen_lag_ms.append(&mut r.send.lag_ms);
    out.send_s += r.send.send_s;
    out.freshness_ms.append(&mut r.freshness_ms);
    out.pending_max = out.pending_max.max(r.poll.pending_max);
}

/// `replay`: closed-loop v5 rounds, each on a fresh fleet, until the
/// run length is used up (at least [`SETUPS`] rounds).
fn replay(args: &Args, spec: &FleetSpec, gate: &mut Gate) -> Outcome {
    let mut out = Outcome::default();
    let ex = gen::exporters();
    let records = gen::trace_records(args.seed, gen::REPLAY_RECORDS);
    out.rss_base_mb = reset_rss_peak();
    let mut tracer = Tracer::new(false);
    let mut oracle = None;
    let start = Instant::now();
    for n in 0.. {
        let traced = args.trace && n % 2 == 1;
        tracer.set_on(traced);
        let mut r = round(spec, &ex, &records, None, args.trace, &mut tracer);
        absorb_round(&mut out, &mut r, traced);
        let last = start.elapsed().as_secs() >= args.seconds && n + 1 >= SETUPS;
        let stop = last || r.secs.is_none();
        // Every round's total and HHH set; per-window totals on the
        // first and the last round.
        let hhh = verify_round(&r, n == 0 || last, gate, &mut out);
        if let Some(spans) = absorb_poll(&mut out, std::mem::take(&mut r.poll)) {
            tracer.absorb(spans);
        }
        let Round { fleet, plan, .. } = r;
        if stop {
            finish_fleet(&mut out, fleet, args.trace);
        } else {
            fleet.shutdown();
        }
        let oracle = oracle.get_or_insert_with(|| oracle_of(&plan, &ex));
        check_round_hhh(hhh, &plan, oracle, gate);
        if stop {
            out.queries = vec![poll_query(&plan)];
            out.plan = Some(plan);
            break;
        }
    }
    out.tracer = Some(tracer);
    out
}

/// The text the poller sends about a plan's first windows.
fn poll_query(plan: &Plan) -> QuerySpec {
    let a = plan.data_windows[0];
    QuerySpec {
        text: format!("pop from={a} to={}", a + 3 * WINDOW_MS),
        target: gen::Target::Root,
    }
}

/// Folds a poller's latencies and rates into the outcome; returns its
/// spans.
fn absorb_poll(out: &mut Outcome, poll: PollOut) -> Option<Tracer> {
    out.query_ms.extend(poll.latency_ms);
    out.query_traced_ms.extend(poll.latency_traced_ms);
    out.queries_done += poll.attempted - poll.failed;
    out.query_secs += poll.secs;
    out.pending_max = out.pending_max.max(poll.pending_max);
    poll.tracer
}

fn finish_fleet(out: &mut Outcome, fleet: Fleet, scrape: bool) {
    out.ledgers = fleet.relays.iter().map(|r| r.ledger()).collect();
    if scrape {
        out.scrape = fleet.scrape();
    }
    fleet.shutdown();
}

/// `live`: open-loop NetFlow v9 + IPFIX at a fixed rate, event time =
/// wall time, the root polled about each recent window.
fn live(args: &Args, spec: &FleetSpec, gate: &mut Gate) -> Outcome {
    let mut out = Outcome::default();
    let ex = gen::exporters();
    let n = (gen::LIVE_RATE * args.seconds) as usize;
    let records = gen::trace_records(args.seed, n.min(2_000_000));
    out.rss_base_mb = reset_rss_peak();
    let mut fleet = None;
    for i in 0..LIVE_SETUPS {
        let (f, s) = boot(spec);
        out.setup_s.push(s);
        if i + 1 < LIVE_SETUPS {
            f.shutdown();
        } else {
            fleet = Some(f);
        }
    }
    let fleet = fleet.expect("booted");
    let socks = run::exporter_sockets(&ex);
    let now_ms = run::epoch_ms();
    let t0_ms = gen::window(now_ms) + 2 * WINDOW_MS;
    let t0 = Instant::now() + Duration::from_millis(t0_ms - now_ms);
    let plan = gen::live_plan(&records, &ex, t0_ms, args.seconds);
    drop(records);
    let board = Mutex::new(Board::default());
    board.lock().expect("board lock").add(&plan);
    let stop = AtomicBool::new(false);
    let (so, done, poll) = std::thread::scope(|sc| {
        let h = sc.spawn(|| run::poller(&fleet, &board, &stop, args.trace));
        let so: SendOut = run::send_live(&fleet, &plan, &ex, &socks, t0, t0_ms, &board);
        let done = run::await_complete(&board, &plan.data_windows, Duration::from_secs(30));
        stop.store(true, Ordering::Relaxed);
        (so, done, h.join().expect("poller"))
    });
    gate.records_sent += plan.records;
    match done {
        Some(done) => {
            let secs = (done - so.first.expect("sent")).as_secs_f64();
            out.rates.push(plan.records as f64 / secs);
            out.e2e_secs_per_plan.push(secs);
        }
        None => gate.fail("live windows never all completed at the root".into()),
    }
    out.gen_lag_ms = so.lag_ms;
    out.send_s = so.send_s;
    let b = board.into_inner().expect("board lock");
    out.freshness_ms = b.freshness_ms;
    gate.poll(&poll, b.anomalies);
    out.tracer = absorb_poll(&mut out, poll);
    let sent: Vec<u64> = (0..SITES)
        .map(|s| {
            plan.datagrams
                .iter()
                .filter(|d| ex[d.exporter].site == s)
                .count() as u64
        })
        .collect();
    verify_sites(&fleet, &sent, gate, &mut out);
    let end = plan.data_windows.last().expect("windows") + WINDOW_MS;
    let range = (plan.data_windows[0], end);
    // The HHH comparison covers the last two windows: a merge over the
    // whole run would outgrow the relay budget and compact. The oracle
    // is built once the fleet is gone, so the two never share memory.
    let recent = (end - 2 * WINDOW_MS, end);
    let hhh = verify_root(
        &fleet,
        &plan.expected,
        &plan.data_windows,
        &[range],
        recent,
        gate,
    );
    finish_fleet(&mut out, fleet, args.trace);
    let sums = layers::sites_inprocess(
        &plan,
        &ex,
        &mut Tracer::new(false),
        &mut layers::Counts::default(),
    );
    let flat = layers::flat_collector(
        &sums
            .into_iter()
            .filter(|s| s.window.start_ms >= recent.0)
            .collect::<Vec<_>>(),
    );
    check_hhh(hhh, &flat, gate);
    out.queries = vec![poll_query(&plan)];
    out.plan = Some(plan);
    out
}

/// `query`: preloaded fleet, two closed-loop clients over a seeded mix.
fn query(args: &Args, spec: &FleetSpec, gate: &mut Gate) -> Outcome {
    let mut out = Outcome::default();
    let ex = gen::exporters();
    let records = gen::trace_records(args.seed, gen::REPLAY_RECORDS);
    out.rss_base_mb = reset_rss_peak();
    // Set-up is boot plus the preload round's convergence after its
    // last datagram (the paced sending is the generator's time, not the
    // fleet's), three times over; the last fleet serves the queries.
    let mut last = None;
    let mut oracle = None;
    for i in 0..SETUPS {
        let mut r = round(
            spec,
            &ex,
            &records,
            Some(gen::PRELOAD_RATE),
            false,
            &mut Tracer::new(false),
        );
        absorb_round(&mut out, &mut r, false);
        let converge_s = r.secs.map_or(0.0, |s| (s - r.send.send_s).max(0.0));
        *out.setup_s.last_mut().expect("pushed") += converge_s;
        let hhh = verify_round(&r, true, gate, &mut out);
        if i + 1 < SETUPS {
            let Round { fleet, plan, .. } = r;
            fleet.shutdown();
            let oracle = oracle.get_or_insert_with(|| oracle_of(&plan, &ex));
            check_round_hhh(hhh, &plan, oracle, gate);
        } else {
            check_round_hhh(hhh, &r.plan, oracle.as_ref().expect("built"), gate);
            last = Some(r);
        }
    }
    let Round { fleet, plan, .. } = last.expect("booted");
    let (sums0, anchor0) = oracle.expect("built");
    let sums: Vec<flowdist::Summary> = shifted(&sums0, plan.data_windows[0] - anchor0).collect();
    let frames = layers::encode_frames(
        &sums,
        &mut Tracer::new(false),
        &mut layers::Counts::default(),
    );
    let mut replica = layers::Hierarchy::new(fleet::topology());
    replica.feed(&frames, &mut Tracer::new(false));
    let range = (
        plan.data_windows[0],
        plan.data_windows.last().expect("windows") + WINDOW_MS,
    );
    let mix = gen::query_mix(args.seed, &records, &fleet::topology(), range.0, range.1);
    let expected: Vec<String> = mix
        .iter()
        .map(|q| layers::expected_answer(&replica, q))
        .collect();
    let drift = AtomicU64::new(0);
    let results: Vec<(Vec<f64>, Vec<f64>, u64, u64)> = std::thread::scope(|sc| {
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let (fleet, mix, expected, drift) = (&fleet, &mix, &expected, &drift);
                sc.spawn(move || {
                    let mut conn = None;
                    let (mut lat, mut lat_traced) = (Vec::new(), Vec::new());
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let mut tracer = Tracer::new(false);
                    for (n, i) in gen::query_order(args.seed, c, 1_000_000)
                        .into_iter()
                        .enumerate()
                    {
                        if Instant::now() >= deadline {
                            break;
                        }
                        tracer.set_on(args.trace && n % 2 == 1);
                        let due = Instant::now();
                        let id = tracer.enter("client.query", n as u64);
                        let ans = run::run_query(fleet, &mut conn, &mix[i], &expected[i]);
                        tracer.exit(id);
                        let l = due.elapsed().as_secs_f64() * 1e3;
                        if tracer.on() {
                            lat_traced.push(l)
                        } else {
                            lat.push(l)
                        }
                        attempted += 1;
                        match ans {
                            Answer::Answered(layers::Verdict::Exact) => {}
                            Answer::Answered(layers::Verdict::Drift) => {
                                drift.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => failed += 1,
                        }
                    }
                    (lat, lat_traced, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for (lat, lat_t, attempted, failed) in results {
        out.query_ms.extend(lat);
        out.query_traced_ms.extend(lat_t);
        out.queries_done += attempted - failed;
        gate.queries += attempted;
        gate.queries_failed += failed;
    }
    out.query_secs = args.seconds as f64;
    out.estimate_drift = drift.into_inner();
    finish_fleet(&mut out, fleet, args.trace);
    out.queries = mix;
    out.plan = Some(plan);
    out
}

fn read_proc(path: &str, key: &str) -> Option<f64> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

fn end_to_end(out: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(&out.setup_s), "s");
    m.put("replay_records_per_s", median(&out.rates), "1/s");
    m.put("freshness_p50_ms", percentile(&out.freshness_ms, 0.5), "ms");
    m.put("query_p50_ms", percentile(&out.query_ms, 0.5), "ms");
    m.put(
        "query_per_s",
        out.queries_done as f64 / out.query_secs.max(1e-9),
        "1/s",
    );
    m.put(
        "rss_peak_mb",
        read_proc("/proc/self/status", "VmHWM:").unwrap_or(f64::NAN) / 1024.0,
        "MB",
    );
    m
}

/// The per-layer table: the in-process replay of the run's own inputs
/// (traced), the fleet's `/metrics` and ledgers, and the run's spans.
fn per_layer(args: &Args, out: &mut Outcome, gate: &Gate) -> Metrics {
    let ex = gen::exporters();
    let plan = out.plan.as_ref().expect("a plan ran");
    let mut t = Tracer::new(true);
    let mut c = layers::Counts::default();
    let sums = layers::sites_inprocess(plan, &ex, &mut t, &mut c);
    let frames = layers::encode_frames(&sums, &mut t, &mut c);
    let mut h = layers::Hierarchy::new(fleet::topology());
    h.feed(&frames, &mut t);
    let ingest_spans = t.spans().len();
    for (i, q) in out.queries.iter().enumerate() {
        layers::serve_inprocess(&h, q, i as u64, &mut t);
    }
    let st = stats::self_times(t.spans());
    let st_ingest = stats::self_times(&t.spans()[..ingest_spans]);
    let get = |n: &str| st.get(n).copied().unwrap_or_default();
    let per = |n: &str, div: f64, scale: f64| get(n).self_ns as f64 / div.max(1.0) / scale;
    let mut m = Metrics::default();

    // Scrape sums over the fleet's pages.
    let scrape = std::mem::take(&mut out.scrape);
    let pages = |role: &'static str| {
        scrape
            .iter()
            .filter(move |(r, _, _)| r == role)
            .map(|(_, _, p)| p.as_str())
    };
    let sum =
        |role: &'static str, name: &str| pages(role).map(|p| fleet::counter(p, name)).sum::<f64>();
    let hist = |roles: &[&'static str], name: &str| {
        let mut h = fleet::Hist::default();
        for r in roles {
            for p in pages(r) {
                if let Some(x) = fleet::histogram(p, name) {
                    h.merge(&x);
                }
            }
        }
        h
    };

    let recs = c.records as f64;
    m.put("decode.ns_per_record", per("decode", recs, 1.0), "ns");
    m.put(
        "decode.errors",
        sum("site", "flowtree_ingest_decode_errors_total"),
        "count",
    );
    m.put(
        "decode.template_misses",
        sum("site", "flowtree_ingest_records_no_template_total"),
        "count",
    );
    m.put(
        "admission.ns_per_packet",
        per("admission", c.datagrams as f64, 1.0),
        "ns",
    );
    m.put(
        "admission.drops",
        sum("site", "flowtree_ingest_quota_packet_drops_total")
            + sum("site", "flowtree_ingest_quota_record_drops_total"),
        "count",
    );
    let push_ns = (get("pipeline").self_ns + get("pipeline.close").self_ns) as f64;
    let flush_ns = c.flush_secs * 1e9;
    m.put(
        "pipeline.ns_per_record",
        (push_ns - flush_ns).max(0.0) / recs.max(1.0),
        "ns",
    );
    m.put("pipeline.batches", c.batches as f64, "count");
    m.put(
        "pipeline.window_sheds",
        sum("site", "flowtree_window_sheds_total"),
        "count",
    );
    m.put(
        "tree.ns_per_update",
        flush_ns / (c.updates as f64).max(1.0),
        "ns",
    );
    m.put(
        "tree.mean_probes",
        c.probe_work as f64 / (c.updates as f64).max(1.0),
        "count",
    );
    m.put(
        "tree.nodes_per_window",
        c.window_nodes as f64 / (c.windows as f64).max(1.0),
        "count",
    );
    // Window close: the extra time of the pushes that closed windows
    // over an ordinary push, per closed window.
    let plain = get("pipeline");
    let closing = get("pipeline.close");
    let plain_mean = plain.self_ns as f64 / (plain.count as f64).max(1.0);
    let close_extra = closing.self_ns as f64 - plain_mean * closing.count as f64;
    m.put(
        "daemon.window_close_ms",
        close_extra.max(0.0) / (c.windows as f64).max(1.0) / 1e6,
        "ms",
    );
    m.put(
        "daemon.late_drops",
        sum("site", "flowtree_late_drops_total"),
        "count",
    );
    m.put(
        "lane.merge_many_ms",
        per("lane.merge", get("lane.merge").count as f64, 1e6),
        "ms",
    );
    let mut skews = Vec::new();
    for p in pages("site") {
        let lanes = fleet::labelled(p, "flowtree_lane_datagrams_total");
        if lanes.len() == 2 {
            let (a, b) = (lanes[0].1, lanes[1].1);
            if a + b > 0.0 {
                skews.push((a - b).abs() / (a + b));
            }
        }
    }
    m.put(
        "lane.datagram_skew",
        if skews.is_empty() {
            0.0
        } else {
            skews.iter().sum::<f64>() / skews.len() as f64
        },
        "frac",
    );
    m.put(
        "lane.stale_windows",
        sum("site", "flowtree_merger_stale_windows_total"),
        "count",
    );
    m.put(
        "lane.backpressure_waits",
        sum("site", "flowtree_backpressure_waits_total"),
        "count",
    );
    let sent = out.sent_datagrams as f64;
    m.put(
        "socket.kernel_drop_frac",
        (sent - out.counted_datagrams as f64).max(0.0) / sent.max(1.0),
        "frac",
    );
    m.put(
        "socket.recv_batch_mean",
        sum("site", "flowtree_lane_datagrams_total")
            / sum("site", "flowtree_lane_recv_batches_total").max(1.0),
        "count",
    );
    m.put(
        "summary.encode_us_per_frame",
        per("summary.encode", c.frames as f64, 1e3),
        "us",
    );
    m.put(
        "summary.bytes_per_frame",
        c.frame_bytes as f64 / (c.frames as f64).max(1.0),
        "bytes",
    );
    m.put(
        "relay.apply_us_per_frame",
        per("relay.apply", get("relay.apply").count as f64, 1e3),
        "us",
    );
    m.put(
        "relay.export_ms_per_pass",
        per("relay.export", get("relay.export").count as f64, 1e6),
        "ms",
    );
    let delta_bytes: u64 = out.ledgers.iter().map(|l| l.delta_export_bytes).sum();
    let windows = plan.data_windows.len() as f64;
    m.put(
        "relay.delta_bytes_per_window",
        delta_bytes as f64 / windows.max(1.0),
        "bytes",
    );
    m.put(
        "relay.delta_fallbacks",
        out.ledgers.iter().map(|l| l.delta_fallbacks).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "relay.rejected",
        out.ledgers.iter().map(|l| l.rejected).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "export.rtt_p50_ms",
        hist(&["leaf", "mid"], "flowtree_export_rtt_seconds").quantile(0.5) * 1e3,
        "ms",
    );
    m.put("export.pending_frames_max", out.pending_max as f64, "count");
    m.put(
        "root.apply_us_per_frame",
        per("root.apply", get("root.apply").count as f64, 1e3),
        "us",
    );
    m.put(
        "root.stored_windows",
        h.relays[0].collector().stored_windows() as f64,
        "count",
    );
    let nq = get("query.serve").count as f64;
    m.put("query.parse_us", per("query.parse", nq, 1e3), "us");
    m.put("query.route_run_ms", per("query.route_run", nq, 1e6), "ms");
    m.put("query.render_ms", per("query.render", nq, 1e6), "ms");
    let serve_ms = per("query.serve", nq, 1e6);
    m.put("query.serve_ms", serve_ms, "ms");
    let all_q: Vec<f64> = out
        .query_ms
        .iter()
        .chain(&out.query_traced_ms)
        .copied()
        .collect();
    m.put(
        "query.transport_ms",
        (median(&all_q) - serve_ms).max(0.0),
        "ms",
    );
    m.put(
        "node.decode_p50_us",
        hist(&["site"], "flowtree_decode_seconds").quantile(0.5) * 1e6,
        "us",
    );
    m.put(
        "node.flush_p50_us",
        hist(&["site"], "flowtree_flush_seconds").quantile(0.5) * 1e6,
        "us",
    );
    m.put(
        "node.tree_update_p50_us",
        hist(&["leaf", "mid", "root"], "flowtree_tree_update_seconds").quantile(0.5) * 1e6,
        "us",
    );
    m.put(
        "node.query_p50_ms",
        hist(&["root"], "flowtree_query_seconds").quantile(0.5) * 1e3,
        "ms",
    );
    let lags: Vec<f64> = ["leaf-stats", "mid-stats", "root-stats"]
        .iter()
        .flat_map(|r| pages(r))
        .filter_map(|p| {
            p.lines().find_map(|l| {
                l.strip_prefix("export_watermark_lag_ms ")?
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .collect();
    m.put("node.watermark_lag_p50_ms", median(&lags), "ms");
    m.put("gen.lag_p95_ms", percentile(&out.gen_lag_ms, 0.95), "ms");
    m.put(
        "gen.credit_wait_frac",
        out.credit_wait_s / out.send_s.max(1e-9),
        "frac",
    );
    let baseline = layers::baseline_records_per_s(plan);
    m.put("baseline.single_thread_records_per_s", baseline, "1/s");
    let layer_ns: u64 = st_ingest.values().map(|s| s.self_ns).sum();
    let e2e_s = median(&out.e2e_secs_per_plan);
    m.put(
        "layers.accounted_frac",
        layer_ns as f64 / 1e9 / e2e_s,
        "frac",
    );
    let overhead = match args.workload.as_str() {
        "replay" => median(&out.rates) / median(&out.rates_traced) - 1.0,
        _ => median(&out.query_traced_ms) / median(&out.query_ms) - 1.0,
    };
    m.put("trace.overhead_frac", overhead, "frac");
    m.put(
        "freshness_p95_ms",
        percentile(&out.freshness_ms, 0.95),
        "ms",
    );
    m.put("query_p95_ms", percentile(&all_q, 0.95), "ms");
    m.put(
        "records_lost_frac",
        1.0 - gate.records_visible as f64 / (gate.records_sent as f64).max(1.0),
        "frac",
    );
    m.put(
        "query_error_frac",
        gate.queries_failed as f64 / (gate.queries as f64).max(1.0),
        "frac",
    );
    m.put(
        "query.estimate_drift_frac",
        out.estimate_drift as f64 / (all_q.len() as f64).max(1.0),
        "frac",
    );

    // Spans of the whole run, written when it ends.
    if let Some(run_spans) = out.tracer.take() {
        t.absorb(run_spans);
    }
    write_out(
        &format!("spans-{}-{}.json", args.workload, args.seed),
        &t.to_json(),
    );
    eprintln!("per-layer self time (in-process replay of this run's inputs):");
    for (name, s) in &st {
        eprintln!(
            "  {name:<18} {:>8} calls {:>12.3} ms self",
            s.count,
            s.self_ns as f64 / 1e6
        );
    }
    m
}

/// Where result and span files go: inside the build directory.
fn out_dir() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("e2ebench/out"), Into::into);
    base.join("e2ebench-out")
}

fn write_out(name: &str, body: &str) {
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(name), body);
    }
}

fn meta(args: &Args, spec_text: &str, out: &Outcome) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let mut fields = vec![
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", args.trace),
        format!("\"host_cores\": {cores}"),
        format!("\"kernel\": {}", json_str(kernel.trim())),
        format!("\"commit\": {}", json_str(&commit)),
        "\"traffic\": \"loopback only (127.0.0.0/8), generator and fleet in one process\""
            .to_string(),
        format!("\"fleet_spec\": {}", json_str(spec_text)),
        format!("\"rss_base_mb\": {}", json_num(out.rss_base_mb)),
        format!("\"setups\": {}", out.setup_s.len()),
        format!("\"freshness_samples\": {}", out.freshness_ms.len()),
        format!(
            "\"freshness_beyond_p95\": {}",
            stats::beyond(&out.freshness_ms, 0.95)
        ),
        format!("\"query_samples\": {}", out.query_ms.len()),
        format!(
            "\"query_beyond_p95\": {}",
            stats::beyond(&out.query_ms, 0.95)
        ),
        format!("\"rate_samples\": {}", out.rates.len()),
        format!(
            "\"rates\": [{}]",
            out.rates
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "\"setup_samples_s\": [{}]",
            out.setup_s
                .iter()
                .map(|r| format!("{r:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    if args.workload == "live" {
        fields.push(format!(
            "\"gen_lag_p50_ms\": {}",
            json_num(percentile(&out.gen_lag_ms, 0.5))
        ));
        fields.push(format!(
            "\"gen_lag_p95_ms\": {}",
            json_num(percentile(&out.gen_lag_ms, 0.95))
        ));
        fields.push(format!("\"offered_records_per_s\": {}", gen::LIVE_RATE));
    }
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let spec_text = fleet::spec_text();
    let spec = FleetSpec::parse(&spec_text).expect("generated spec parses");
    let mut gate = Gate::default();
    let mut out = match args.workload.as_str() {
        "replay" => replay(&args, &spec, &mut gate),
        "live" => live(&args, &spec, &mut gate),
        _ => query(&args, &spec, &mut gate),
    };
    let metrics = if args.trace {
        per_layer(&args, &mut out, &gate)
    } else {
        end_to_end(&out)
    };
    for name in &metrics.missing {
        gate.fail(format!("{name}: no samples to report"));
    }
    let meta = meta(&args, &spec_text, &out);
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.failed() == 0,
        gate.attempted(),
        gate.failed(),
        metrics.json()
    );
    write_out(
        &format!(
            "result-{}-{}-trace{}.json",
            args.workload, args.seed, args.trace as u8
        ),
        &format!("{{\"meta\": {meta}, \"result\": {result}}}\n"),
    );
    println!("{{\"meta\": {meta}}}");
    println!("{result}");
}
