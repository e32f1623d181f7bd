//! The in-process replay: the exact generated datagrams pushed once,
//! single-threaded, through the same public functions the fleet runs —
//! admission, decode, pipeline, lane merge, summary encode, relay apply
//! and export, query route/render/serve. It builds the flat oracle the
//! correctness gate compares the root with and, when traced, the spans
//! the per-layer table is computed from.

use crate::gen::{site_lanes, Exporter, Plan, QuerySpec, Target, SITES, SITE_BUDGET, WINDOW_MS};
use crate::stats::Tracer;
use flowdist::{
    AdmissionConfig, AdmissionControl, Collector, DaemonConfig, IngestPipeline, SiteDaemon,
    Summary, SummaryKind, TransferMode, WindowId,
};
use flowkey::Schema;
use flowmetrics::Registry;
use flowquery::QueryEngine;
use flowrelay::{QueryRouter, Relay, RelaySpec, RelayTopology};
use flowtree_core::{Config, FlowTree, Metric};
use std::collections::BTreeMap;
use std::net::IpAddr;
use std::time::Instant;

/// Tree budget of every relay and of the flat oracle: above the node
/// count of any merge the workloads make, so no merge above the sites
/// compacts (see `fleet::RELAY_BUDGET`).
pub const MERGED_BUDGET: usize = crate::fleet::RELAY_BUDGET;
/// Pipeline batch of the fleet spec.
pub const BATCH: usize = 64;
/// Open-window budget the sites run with (the spec default).
pub const MAX_OPEN_WINDOWS: usize = 256;

/// Counters the in-process replay gathers besides spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Data and closer records pushed.
    pub records: u64,
    /// Datagrams pushed.
    pub datagrams: u64,
    /// Pipeline batches handed to the daemons.
    pub batches: u64,
    /// Tree-update time inside `push_records` (the pipeline's own flush
    /// histogram), seconds.
    pub flush_secs: f64,
    /// Parent-search work (probes plus descent hops) over updates.
    pub probe_work: u64,
    /// Tree updates.
    pub updates: u64,
    /// Per-site window trees emitted.
    pub windows: u64,
    /// Nodes in those trees.
    pub window_nodes: u64,
    /// Encoded site frames and their bytes.
    pub frames: u64,
    /// Bytes of those frames.
    pub frame_bytes: u64,
}

fn daemon_config(site: u16) -> DaemonConfig {
    let mut d = DaemonConfig::new(site);
    d.window_ms = WINDOW_MS;
    d.schema = Schema::five_feature();
    d.tree = Config::with_budget(SITE_BUDGET);
    d.transfer = TransferMode::Full;
    d
}

/// Replays a plan's datagrams through one pipeline per site lane and
/// merges each window's lane trees the way the site's merger does.
/// Returns every per-site window summary, window order within a site.
pub fn sites_inprocess(
    plan: &Plan,
    ex: &[Exporter],
    t: &mut Tracer,
    c: &mut Counts,
) -> Vec<Summary> {
    let reg = Registry::new();
    let mut out = Vec::new();
    let cfg = AdmissionConfig::default();
    for site in 0..SITES {
        let lanes = site_lanes(site);
        let dcfg = daemon_config(site);
        let mut per_window: BTreeMap<u64, Vec<FlowTree>> = BTreeMap::new();
        for lane in 0..lanes {
            let decode_hist = reg.histogram(&format!("d{site}_{lane}"), "decode");
            let flush_hist = reg.histogram(&format!("f{site}_{lane}"), "flush");
            let mut p = IngestPipeline::with_limits(
                SiteDaemon::new(dcfg),
                BATCH,
                flownet::DecoderLimits::default(),
            );
            p.set_latency_instruments(decode_hist, flush_hist.clone());
            p.set_max_open_windows(MAX_OPEN_WINDOWS);
            let mut adm = AdmissionControl::new();
            let collect = |closed: Vec<Summary>, per_window: &mut BTreeMap<u64, Vec<FlowTree>>| {
                for s in closed {
                    per_window
                        .entry(s.window.start_ms)
                        .or_default()
                        .push(s.tree);
                }
            };
            for (i, d) in plan.datagrams.iter().enumerate() {
                let e = &ex[d.exporter];
                if e.site != site || e.lane != lane {
                    continue;
                }
                let src = IpAddr::V4(e.ip);
                let now_ms = d.due_us / 1000;
                let req = i as u64;
                c.datagrams += 1;
                let admitted = t.span("admission", req, || adm.admit_packet(src, &cfg, now_ms));
                if !admitted {
                    continue;
                }
                let Some(records) = t.span("decode", req, || p.decode_packet_at(&d.bytes, now_ms))
                else {
                    continue;
                };
                if !t.span("admission", req, || {
                    adm.admit_records(src, records.len(), &cfg, now_ms)
                }) {
                    continue;
                }
                c.records += records.len() as u64;
                let id = t.enter("pipeline", req);
                let closed = p.push_records(&records);
                t.exit(id);
                if !closed.is_empty() {
                    t.rename(id, "pipeline.close");
                }
                collect(closed, &mut per_window);
            }
            c.batches += p.stats().batches;
            let id = t.enter("pipeline.close", u64::MAX);
            let (rest, _) = p.finish();
            t.exit(id);
            c.flush_secs += flush_hist.sum_secs();
            collect(rest, &mut per_window);
        }
        for (seq, (start, mut trees)) in per_window.into_iter().enumerate() {
            for tr in &trees {
                let s = tr.stats();
                c.probe_work += s.chain_steps + s.descent_hops;
                c.updates += s.inserts;
            }
            let tree = if trees.len() == 1 {
                trees.pop().expect("one tree")
            } else {
                let id = t.enter("lane.merge", start);
                let mut merged = FlowTree::new(dcfg.schema, dcfg.tree);
                let refs: Vec<&FlowTree> = trees.iter().collect();
                merged.merge_many(&refs).expect("lanes share one schema");
                t.exit(id);
                merged
            };
            c.windows += 1;
            c.window_nodes += tree.len() as u64;
            out.push(Summary {
                site,
                window: WindowId {
                    start_ms: start,
                    span_ms: WINDOW_MS,
                },
                seq: seq as u64 + 1,
                kind: SummaryKind::Full,
                provenance: None,
                epoch: None,
                tree,
            });
        }
    }
    out
}

/// One encoded site frame: (site, window start, bytes).
pub type Frame = (u16, u64, Vec<u8>);

/// Encodes every site summary (the frames sites ship), traced as
/// `summary.encode`.
pub fn encode_frames(
    summaries: &[Summary],
    t: &mut Tracer,
    c: &mut Counts,
) -> Vec<(u16, u64, Vec<u8>)> {
    summaries
        .iter()
        .map(|s| {
            let bytes = t.span("summary.encode", s.window.start_ms, || s.encode());
            c.frames += 1;
            c.frame_bytes += bytes.len() as u64;
            (s.site, s.window.start_ms, bytes)
        })
        .collect()
}

/// The flat oracle: one collector over every site window.
pub fn flat_collector(summaries: &[Summary]) -> Collector {
    let mut flat = Collector::new(Schema::five_feature(), Config::with_budget(MERGED_BUDGET));
    for s in summaries {
        flat.apply(s.clone()).expect("valid site summary");
    }
    flat
}

/// The relay tree in process, one `Relay` per topology node.
pub struct Hierarchy {
    /// The topology.
    pub topo: RelayTopology,
    /// Relays, indexed as the topology.
    pub relays: Vec<Relay>,
}

impl Hierarchy {
    /// Fresh relays for `topo`.
    pub fn new(topo: RelayTopology) -> Hierarchy {
        let relays = (0..topo.relays.len())
            .map(|i| {
                Relay::from_topology(
                    &topo,
                    i,
                    Schema::five_feature(),
                    Config::with_budget(MERGED_BUDGET),
                )
            })
            .collect();
        Hierarchy { topo, relays }
    }

    fn index(&self, name: &str) -> usize {
        self.topo
            .relays
            .iter()
            .position(|r| r.name == name)
            .expect("relay in topology")
    }

    fn parent_of(&self, i: usize) -> Option<usize> {
        self.topo.relays[i].parent.as_deref().map(|p| self.index(p))
    }

    /// Feeds site frames window by window: leaves apply them, then
    /// every non-root tier drains its exports upward (deepest first).
    /// `flush` ships whatever is left at the end.
    pub fn feed(&mut self, frames: &[Frame], t: &mut Tracer) {
        let mut by_window: BTreeMap<u64, Vec<&Frame>> = BTreeMap::new();
        for f in frames {
            by_window.entry(f.1).or_default().push(f);
        }
        for (w, fs) in by_window {
            for (site, _, bytes) in fs {
                let leaf = self.topo.owner_of(*site).expect("owned site");
                let out = t.span("relay.apply", w, || {
                    self.relays[leaf].ingest_classified(bytes)
                });
                assert!(
                    matches!(out, flowrelay::FrameOutcome::Applied(_)),
                    "leaf applies site frame"
                );
            }
            self.pass(false, t);
        }
        self.pass(true, t);
    }

    fn pass(&mut self, flush: bool, t: &mut Tracer) {
        let mut order: Vec<usize> = (0..self.relays.len())
            .filter(|&i| self.parent_of(i).is_some())
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.topo.depth_of(i)));
        for i in order {
            let exports = t.span("relay.export", i as u64, || {
                if flush {
                    self.relays[i].flush_exports()
                } else {
                    self.relays[i].drain_exports()
                }
            });
            let parent = self.parent_of(i).expect("non-root");
            let name = if parent == 0 {
                "root.apply"
            } else {
                "relay.apply"
            };
            for e in exports {
                let bytes = t.span("export.encode", i as u64, || e.encode());
                let out = t.span(name, i as u64, || {
                    self.relays[parent].ingest_classified(&bytes)
                });
                assert!(
                    matches!(out, flowrelay::FrameOutcome::Applied(_)),
                    "parent applies export"
                );
            }
        }
    }

    /// A node's own view: the solo topology a `NodeRuntime` plans over.
    pub fn solo(&self, name: &str) -> (RelayTopology, usize) {
        let i = self.index(name);
        let r = &self.topo.relays[i];
        (
            RelayTopology {
                relays: vec![RelaySpec {
                    name: r.name.clone(),
                    parent: None,
                    agg_site: r.agg_site,
                    sites: self.topo.coverage(i).into_iter().collect(),
                }],
            },
            i,
        )
    }
}

/// The metric a query ranks by, as the query server picks it.
pub fn query_metric(q: &flowquery::ast::Query) -> Metric {
    match q {
        flowquery::ast::Query::TopK { metric, .. } | flowquery::ast::Query::Hhh { metric, .. } => {
            *metric
        }
        _ => Metric::Packets,
    }
}

/// The flat oracle's answer to a query, rendered as the server renders
/// it.
pub fn flat_answer(flat: &Collector, text: &str) -> String {
    let parsed = flowquery::parse(text, u64::MAX - 1).expect("oracle queries parse");
    QueryEngine::new(flat)
        .run(&parsed)
        .render(query_metric(&parsed))
}

/// The keys of a ranked answer, sorted: what "the same HHH set" means
/// when estimates on differently merged summaries may differ.
pub fn row_keys(body: &str) -> Vec<String> {
    let mut keys: Vec<String> = body
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            it.next()?;
            it.next()?;
            Some(it.collect::<Vec<_>>().join(" "))
        })
        .collect();
    keys.sort();
    keys
}

/// What the fleet must answer: the same request run by the in-process
/// replica of the node that serves it (root, or each owning leaf for a
/// fanned-out breakdown), fed the same site frames.
pub fn expected_answer(h: &Hierarchy, q: &QuerySpec) -> String {
    let node = |name: &str, text: &str| {
        let (topo, i) = h.solo(name);
        let router = QueryRouter::new(&topo, std::slice::from_ref(&h.relays[i]));
        let out = flowrelay::server::answer_query(&router, text.as_bytes());
        assert_eq!(out.first(), Some(&0), "replica answers {text}");
        answer_body(&String::from_utf8_lossy(&out[1..]))
    };
    match &q.target {
        Target::Root => node("root", &q.text),
        Target::Leaves(parts) => normalize_rows(
            &parts
                .iter()
                .map(|(leaf, text)| node(leaf, text))
                .collect::<String>(),
        ),
    }
}

/// The answer part of a server response: the route and coverage lines
/// dropped.
pub fn answer_body(resp: &str) -> String {
    resp.lines()
        .filter(|l| !l.starts_with("route:") && !l.starts_with("missing"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Ranked rows reduced to sorted `estimate key` lines: the per-leaf
/// shares of a fanned-out breakdown differ from the global ones, the
/// estimates and keys must not.
pub fn normalize_rows(body: &str) -> String {
    let mut rows: Vec<String> = body
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let est = it.next()?;
            let _share = it.next()?;
            let key: Vec<&str> = it.collect();
            Some(format!("{est} {}", key.join(" ")))
        })
        .collect();
    rows.sort();
    rows.join("\n")
}

/// How a fleet answer compares with the replica's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Identical text.
    Exact,
    /// Well formed, but an estimate or a tail row differs. Site frames
    /// depend on the order a two-lane site's lanes close a window (see
    /// README), so estimates read off compacted nodes vary between runs;
    /// counted in `query.estimate_drift_frac`, not as a failure.
    Drift,
    /// Malformed, empty, or off in a quantity the program keeps exact:
    /// totals of `pop *` and the key set of `hhh`.
    Wrong,
}

/// How far a drifting estimate may stray from the replica's, as a share
/// of its scale: its own value for a `pop` figure, the answer's largest
/// estimate for a table row. The largest drift measured on `query` is
/// under a sixth of this (see README).
pub const DRIFT_TOLERANCE: f64 = 0.05;

/// An answer's estimates by key (`pop`: `packets`, `bytes`, `flows`),
/// and whether it is a `pop` answer. `None` if a line does not parse.
fn est_rows(body: &str) -> Option<(BTreeMap<String, f64>, bool)> {
    let mut rows = BTreeMap::new();
    let mut pop = false;
    for l in body.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(rest) = l.strip_prefix("popularity: ") {
            pop = true;
            for part in rest.split(',') {
                let mut it = part.split_whitespace();
                let v: f64 = it.next()?.parse().ok()?;
                rows.insert(it.next()?.to_string(), v);
            }
            continue;
        }
        let toks: Vec<&str> = l.split_whitespace().collect();
        let est: f64 = toks.first()?.parse().ok()?;
        let key_at = if toks.get(1).is_some_and(|t| t.ends_with('%')) {
            2
        } else {
            1
        };
        let key = toks.get(key_at..).filter(|k| !k.is_empty())?.join(" ");
        rows.insert(key, est);
    }
    (!rows.is_empty()).then_some((rows, pop))
}

/// Compares a fleet answer to query `text` with the replica's. Beyond
/// `Exact`, an answer is `Drift` only if it is well formed, misses at
/// most one of the replica's rows (a ranked cut may swap its tail row)
/// and every estimate it shares with the replica lies within
/// [`DRIFT_TOLERANCE`]; anything else is `Wrong`.
pub fn compare(text: &str, got: &str, want: &str) -> Verdict {
    if got == want {
        return Verdict::Exact;
    }
    let exact_kind = text.starts_with("pop * ") || text.starts_with("pop from");
    let (Some((g, pop)), Some((w, _))) = (est_rows(got), est_rows(want)) else {
        return Verdict::Wrong;
    };
    if exact_kind || text.starts_with("hhh") && row_keys(got) != row_keys(want) {
        return Verdict::Wrong;
    }
    let top = w.values().fold(1.0f64, |a, v| a.max(v.abs()));
    let missing = w.keys().filter(|k| !g.contains_key(*k)).count();
    let within = w.iter().all(|(k, wv)| {
        g.get(k).is_none_or(|gv| {
            let scale = if pop { wv.abs().max(1.0) } else { top };
            (gv - wv).abs() <= DRIFT_TOLERANCE * scale
        })
    });
    if missing > 1 || g.len() > w.len() + 1 || !within {
        return Verdict::Wrong;
    }
    Verdict::Drift
}

/// Times one query through the in-process layers of the node that
/// answers it: parse, route+run, render, and the whole `answer_query`.
pub fn serve_inprocess(h: &Hierarchy, q: &QuerySpec, req: u64, t: &mut Tracer) {
    let parts: Vec<(String, String)> = match &q.target {
        Target::Root => vec![("root".into(), q.text.clone())],
        Target::Leaves(parts) => parts.clone(),
    };
    for (node, text) in parts {
        let (topo, i) = h.solo(&node);
        let router = QueryRouter::new(&topo, std::slice::from_ref(&h.relays[i]));
        let parsed = t.span("query.parse", req, || {
            flowquery::parse(&text, u64::MAX - 1).expect("parses")
        });
        let routed = t.span("query.route_run", req, || router.run(&parsed));
        let body = t.span("query.render", req, || {
            routed.output.render(query_metric(&parsed))
        });
        std::hint::black_box(body);
        let out = t.span("query.serve", req, || {
            flowrelay::server::answer_query(&router, text.as_bytes())
        });
        std::hint::black_box(out);
    }
}

/// The single-threaded stream-processing baseline: every datagram of
/// the plan through one pipeline (one site, no lanes, no sockets).
/// Returns records per second.
pub fn baseline_records_per_s(plan: &Plan) -> f64 {
    let mut p = IngestPipeline::with_limits(
        SiteDaemon::new(daemon_config(0)),
        BATCH,
        flownet::DecoderLimits::default(),
    );
    let start = Instant::now();
    let mut records = 0u64;
    for d in &plan.datagrams {
        if let Some(rs) = p.decode_packet_at(&d.bytes, d.due_us / 1000) {
            records += rs.len() as u64;
            std::hint::black_box(p.push_records(&rs));
        }
    }
    std::hint::black_box(p.finish());
    records as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{exporters, replay_round, trace_records};

    #[test]
    fn answers_compare_exact_drift_or_wrong() {
        let pop = "popularity: 1000 packets, 50000 bytes, 1000 flows\n";
        assert_eq!(compare("pop * from=1 to=2", pop, pop), Verdict::Exact);
        let near = "popularity: 1004 packets, 50100 bytes, 1004 flows\n";
        assert_eq!(
            compare("pop dport=443 from=1 to=2", near, pop),
            Verdict::Drift
        );
        assert_eq!(compare("pop * from=1 to=2", near, pop), Verdict::Wrong);
        let rows = "  500  50.00%  src=1.0.0.0/8\n  300  30.00%  src=2.0.0.0/8\n";
        let moved = "  501  50.10%  src=1.0.0.0/8\n  299  29.90%  src=2.0.0.0/8\n";
        assert_eq!(compare("top 10 src under *", moved, rows), Verdict::Drift);
        assert_eq!(compare("hhh 0.05 from=1 to=2", moved, rows), Verdict::Drift);
        let other = "  501  50.10%  src=1.0.0.0/8\n  299  29.90%  src=3.0.0.0/8\n";
        assert_eq!(compare("hhh 0.05 from=1 to=2", other, rows), Verdict::Wrong);
        assert_eq!(
            compare("top 10 src under *", "garbage\n", rows),
            Verdict::Wrong
        );
        assert_eq!(compare("top 10 src under *", "", rows), Verdict::Wrong);
        // One tail row may swap; two may not.
        let three = "  500  50.00%  src=1.0.0.0/8\n  300  30.00%  src=2.0.0.0/8\n  100  10.00%  src=4.0.0.0/8\n";
        let swapped = "  500  50.00%  src=1.0.0.0/8\n  300  30.00%  src=2.0.0.0/8\n   99   9.90%  src=5.0.0.0/8\n";
        let two_off = "  500  50.00%  src=1.0.0.0/8\n  300  30.00%  src=6.0.0.0/8\n   99   9.90%  src=5.0.0.0/8\n";
        assert_eq!(compare("top 3 src under *", swapped, three), Verdict::Drift);
        assert_eq!(compare("top 3 src under *", two_off, three), Verdict::Wrong);
        // Estimates beyond the tolerance: a table row against the
        // largest estimate, a `pop` figure against itself.
        let far = "  500  50.00%  src=1.0.0.0/8\n  200  20.00%  src=2.0.0.0/8\n";
        assert_eq!(compare("top 10 src under *", far, rows), Verdict::Wrong);
        let off = "popularity: 1000 packets, 60000 bytes, 1000 flows\n";
        assert_eq!(
            compare("pop dport=443 from=1 to=2", off, pop),
            Verdict::Wrong
        );
        // A zero-filled breakdown (the root's `bysite` answer) is wrong.
        let bysite = "5000 site=0\n3000 site=1\n1200 site=3";
        let zeros = "0 site=0\n0 site=1\n0 site=3";
        assert_eq!(
            compare("bysite * sites=0,1,3 from=1 to=2", zeros, bysite),
            Verdict::Wrong
        );
        let near = "5010 site=0\n2990 site=1\n1200 site=3";
        assert_eq!(
            compare("bysite * sites=0,1,3 from=1 to=2", near, bysite),
            Verdict::Drift
        );
    }

    #[test]
    fn hierarchy_root_matches_the_flat_oracle() {
        let ex = exporters();
        let recs = trace_records(5, 9_600);
        let plan = replay_round(&recs, &ex, 1_700_000_000_000);
        let mut t = Tracer::new(true);
        let mut c = Counts::default();
        let sums = sites_inprocess(&plan, &ex, &mut t, &mut c);
        assert_eq!(
            c.records,
            plan.expected.values().map(|t| t.flows as u64).sum::<u64>()
        );
        let flat = flat_collector(&sums);
        let frames = encode_frames(&sums, &mut t, &mut c);
        let mut h = Hierarchy::new(crate::fleet::topology());
        h.feed(&frames, &mut t);
        let root = h.relays[0].collector();
        assert_eq!(root.total(), flat.total());
        let a = flat.merged(None, 0, u64::MAX).hhh(0.02, Metric::Packets);
        let b = root.merged(None, 0, u64::MAX).hhh(0.02, Metric::Packets);
        assert_eq!(a.len(), b.len());
        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        for n in [
            "admission",
            "decode",
            "pipeline",
            "lane.merge",
            "summary.encode",
            "relay.apply",
            "root.apply",
        ] {
            assert!(names.contains(&n), "span {n} recorded");
        }
    }
}
