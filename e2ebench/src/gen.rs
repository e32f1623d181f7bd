//! Seeded workload generation: the simulated exporters, the datagrams
//! they send, the expected per-window totals, and the query mix.
//!
//! Everything here is a pure function of the seed and an event-time
//! anchor, so the same seed (and anchor) gives byte-identical inputs.
//! The anchor is the wall clock at run start: replay windows sit in
//! the recent past, live windows are the present.

use flownet::FlowRecord;
use flowtrace::{profile, TraceGen};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::net::{IpAddr, Ipv4Addr};

/// Sites in the fleet.
pub const SITES: u16 = 8;
/// Simulated exporters (routers) per site.
pub const EXPORTERS_PER_SITE: usize = 2;
/// Site aggregation window.
pub const WINDOW_MS: u64 = 500;
/// Per-window tree node budget at the sites (below the distinct flows a
/// site sees per window, so compaction runs).
pub const SITE_BUDGET: usize = 2_048;
/// Records per replay round.
pub const REPLAY_RECORDS: usize = 960_000;
/// Event-time windows one replay round spans.
pub const REPLAY_WINDOWS: u64 = 8;
/// Datagrams per site sent but not yet counted by the site
/// (`ingest_snapshot().datagrams`): the replay credit window.
pub const CREDIT: u64 = 32;
/// Aggregate offered record rate of the `live` workload.
pub const LIVE_RATE: u64 = 70_000;
/// Offered record rate of the `query` workload's preload: below the
/// fleet's replay capacity, so set-up time does not depend on it.
pub const PRELOAD_RATE: f64 = 240_000.0;
/// Records per live datagram (NetFlow v9 and IPFIX).
pub const LIVE_RECORDS_PER_DATAGRAM: usize = 20;
/// IPFIX exporters resend their template set every this many messages.
pub const IPFIX_TEMPLATE_EVERY: u64 = 20;
/// Distinct queries in the `query` mix.
pub const QUERY_MIX: usize = 48;

/// Ingest lanes of a site: even sites run two, odd sites one.
pub fn site_lanes(site: u16) -> usize {
    if site.is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// The lane a fanout-mode site routes an exporter to: the same hash of
/// the exporter address the site's fanout reader uses, so the oracle
/// splits records across lanes exactly as the site does.
pub fn lane_of(ip: IpAddr, lanes: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ip.hash(&mut h);
    ((h.finish() as u128 * lanes as u128) >> 64) as usize
}

/// Export dialect of one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// NetFlow v5 (fixed format).
    V5,
    /// NetFlow v9 (template in every packet).
    V9,
    /// IPFIX (templates on the first message and periodically).
    Ipfix,
}

/// One simulated exporter: a fixed loopback source address, so its
/// site lane is the same on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exporter {
    /// The site it exports to.
    pub site: u16,
    /// Its source address (one UDP socket each).
    pub ip: Ipv4Addr,
    /// The site lane it lands on.
    pub lane: usize,
    /// The dialect it speaks in the `live` workload.
    pub live_dialect: Dialect,
}

/// The fleet's exporters, `EXPORTERS_PER_SITE` per site, index
/// `site * EXPORTERS_PER_SITE + k`. On two-lane sites the two
/// exporters are picked to land on different lanes.
pub fn exporters() -> Vec<Exporter> {
    let mut out = Vec::new();
    for site in 0..SITES {
        let lanes = site_lanes(site);
        let mut picked: Vec<(Ipv4Addr, usize)> = Vec::new();
        for host in 1..=250u8 {
            let ip = Ipv4Addr::new(127, 0, site as u8 + 1, host);
            let lane = lane_of(IpAddr::V4(ip), lanes);
            if lanes == 1 || !picked.iter().any(|&(_, l)| l == lane) {
                picked.push((ip, lane));
            }
            if picked.len() == EXPORTERS_PER_SITE {
                break;
            }
        }
        assert_eq!(picked.len(), EXPORTERS_PER_SITE, "exporter addresses");
        for (k, (ip, lane)) in picked.into_iter().enumerate() {
            out.push(Exporter {
                site,
                ip,
                lane,
                live_dialect: if k % 2 == 0 {
                    Dialect::V9
                } else {
                    Dialect::Ipfix
                },
            });
        }
    }
    out
}

/// Totals one window must show at the root.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Flow records.
    pub flows: i64,
    /// Packets.
    pub packets: i64,
    /// Bytes.
    pub bytes: i64,
}

impl Totals {
    fn add(&mut self, r: &FlowRecord) {
        self.flows += 1;
        self.packets += r.packets as i64;
        self.bytes += r.bytes as i64;
    }

    /// Component-wise sum.
    pub fn plus(self, o: Totals) -> Totals {
        Totals {
            flows: self.flows + o.flows,
            packets: self.packets + o.packets,
            bytes: self.bytes + o.bytes,
        }
    }
}

/// One datagram ready to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Index into [`exporters`].
    pub exporter: usize,
    /// Send time relative to the plan start, µs (live only; 0 for
    /// replay, which is paced by credit).
    pub due_us: u64,
    /// Wire bytes.
    pub bytes: Vec<u8>,
    /// Records it carries.
    pub records: u32,
    /// Windows for which this is its site's last datagram: once it is
    /// sent, the site has been offered the window in full.
    pub completes: Vec<u64>,
}

/// One stretch of generated traffic with everything the checks need.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Datagrams in send order (replay: per site in order, see
    /// [`Plan::site_queues`]; live: by due time).
    pub datagrams: Vec<Datagram>,
    /// Expected totals per window start, every generated record.
    pub expected: BTreeMap<u64, Totals>,
    /// Windows whose completion at the root ends the plan.
    pub data_windows: Vec<u64>,
    /// Windows that yield freshness samples.
    pub sample_windows: BTreeSet<u64>,
    /// Data records (closer records excluded).
    pub records: u64,
}

impl Plan {
    /// Datagram indices per site, in send order.
    pub fn site_queues(&self, exporters: &[Exporter]) -> Vec<Vec<usize>> {
        let mut q = vec![Vec::new(); SITES as usize];
        for (i, d) in self.datagrams.iter().enumerate() {
            q[exporters[d.exporter].site as usize].push(i);
        }
        q
    }
}

/// The first `n` IPv4 packets of the seeded backbone trace as one-packet
/// flow records (timestamps filled in by the plans).
pub fn trace_records(seed: u64, n: usize) -> Vec<FlowRecord> {
    let mut cfg = profile::backbone(seed);
    cfg.packets = (n as u64) * 2;
    cfg.flows = (n as u64 / 2).max(1);
    let mut out = Vec::with_capacity(n);
    for p in TraceGen::new(cfg) {
        if out.len() == n {
            break;
        }
        if let (IpAddr::V4(_), IpAddr::V4(_)) = (p.src, p.dst) {
            let mut r = FlowRecord::v4(
                [0; 4],
                [0; 4],
                p.sport,
                p.dport,
                p.proto,
                1,
                p.wire_len as u64,
            );
            r.src = p.src;
            r.dst = p.dst;
            out.push(r);
        }
    }
    assert_eq!(out.len(), n, "trace too short");
    out
}

/// Rounds a timestamp up to the next whole second: v9 headers carry
/// whole seconds, so export times on second boundaries keep every
/// record timestamp exact.
fn export_base(max_ts: u64) -> u64 {
    max_ts.div_ceil(1000) * 1000
}

/// Encodes records as one datagram of `dialect`.
pub fn encode(
    dialect: Dialect,
    records: &[FlowRecord],
    seq: u32,
    domain: u32,
    templates: bool,
) -> Vec<u8> {
    let base = export_base(records.iter().map(|r| r.last_ms).max().unwrap_or(0));
    match dialect {
        Dialect::V5 => flownet::netflow5::encode(records, base, seq),
        Dialect::V9 => flownet::netflow9::encode(records, base, seq, domain),
        Dialect::Ipfix => {
            flownet::ipfix::encode_message(records, (base / 1000) as u32, seq, domain, templates)
        }
    }
}

/// The marker record closers carry (one per closer datagram).
fn closer_record(ex: &Exporter, ts: u64) -> FlowRecord {
    let mut r = FlowRecord::v4(
        [192, 0, 2, ex.site as u8],
        [198, 51, 100, ex.ip.octets()[3]],
        9,
        9,
        17,
        1,
        64,
    );
    r.first_ms = ts;
    r.last_ms = ts;
    r
}

/// Marks, per site, the last datagram carrying records of each window.
fn mark_completions(datagrams: &mut [Datagram], windows_of: &[Vec<u64>], exporters: &[Exporter]) {
    let mut last: BTreeMap<(u16, u64), usize> = BTreeMap::new();
    for (i, d) in datagrams.iter().enumerate() {
        for &w in &windows_of[i] {
            last.insert((exporters[d.exporter].site, w), i);
        }
    }
    for ((_, w), i) in last {
        datagrams[i].completes.push(w);
    }
}

/// One closed-loop replay round starting at event time `base_ms` (a
/// window boundary): `records` spread over [`REPLAY_WINDOWS`] windows,
/// dealt round-robin to sites and their exporters as NetFlow v5, then
/// two closer datagrams per exporter that carry each site's watermark
/// past the last data window so every data window closes.
pub fn replay_round(records: &[FlowRecord], exporters: &[Exporter], base_ms: u64) -> Plan {
    let span = REPLAY_WINDOWS * WINDOW_MS;
    let n = records.len() as u64;
    let mut per_exporter: Vec<Vec<FlowRecord>> = vec![Vec::new(); exporters.len()];
    let mut expected: BTreeMap<u64, Totals> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        let i = i as u64;
        let site = i % SITES as u64;
        let k = (i / SITES as u64) % EXPORTERS_PER_SITE as u64;
        let mut r = *r;
        r.first_ms = base_ms + i * span / n;
        r.last_ms = r.first_ms;
        expected.entry(window(r.last_ms)).or_default().add(&r);
        per_exporter[(site * EXPORTERS_PER_SITE as u64 + k) as usize].push(r);
    }
    let data_windows: Vec<u64> = (0..REPLAY_WINDOWS)
        .map(|w| base_ms + w * WINDOW_MS)
        .collect();
    let mut datagrams = Vec::new();
    let mut windows_of = Vec::new();
    // Sites' two exporters interleave datagram by datagram; the
    // sender deals sites round-robin.
    let chunks: Vec<Vec<&[FlowRecord]>> = per_exporter
        .iter()
        .map(|rs| rs.chunks(flownet::netflow5::MAX_RECORDS).collect())
        .collect();
    let longest = chunks.iter().map(Vec::len).max().unwrap_or(0);
    for j in 0..longest {
        for (e, cs) in chunks.iter().enumerate() {
            if let Some(c) = cs.get(j) {
                windows_of.push(
                    c.iter()
                        .map(|r| window(r.last_ms))
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect(),
                );
                datagrams.push(Datagram {
                    exporter: e,
                    due_us: 0,
                    bytes: encode(
                        Dialect::V5,
                        c,
                        (j * flownet::netflow5::MAX_RECORDS) as u32,
                        0,
                        false,
                    ),
                    records: c.len() as u32,
                    completes: Vec::new(),
                });
            }
        }
    }
    let last = base_ms + (REPLAY_WINDOWS - 1) * WINDOW_MS;
    for step in [3u64, 4] {
        for (e, ex) in exporters.iter().enumerate() {
            let r = closer_record(ex, last + step * WINDOW_MS + 1);
            expected.entry(window(r.last_ms)).or_default().add(&r);
            windows_of.push(vec![window(r.last_ms)]);
            datagrams.push(Datagram {
                exporter: e,
                due_us: 0,
                bytes: encode(Dialect::V5, &[r], 1_000_000 + step as u32, 0, false),
                records: 1,
                completes: Vec::new(),
            });
        }
    }
    mark_completions(&mut datagrams, &windows_of, exporters);
    Plan {
        datagrams,
        expected,
        sample_windows: data_windows.iter().skip(1).copied().collect(),
        data_windows,
        records: n,
    }
}

/// The open-loop live schedule: `seconds` of NetFlow v9 and IPFIX
/// traffic at [`LIVE_RATE`] starting at `t0_ms` (a window boundary),
/// event time = due time, then closers so the last windows close.
pub fn live_plan(records: &[FlowRecord], exporters: &[Exporter], t0_ms: u64, seconds: u64) -> Plan {
    let per_exporter_rate = LIVE_RATE as f64 / exporters.len() as f64;
    let interval_us = (LIVE_RECORDS_PER_DATAGRAM as f64 / per_exporter_rate * 1e6) as u64;
    let end_us = seconds * 1_000_000;
    let mut slots: Vec<(u64, usize, u64)> = Vec::new();
    for e in 0..exporters.len() {
        let phase = interval_us * e as u64 / exporters.len() as u64;
        let mut j = 0u64;
        while phase + j * interval_us < end_us {
            slots.push((phase + j * interval_us, e, j));
            j += 1;
        }
    }
    slots.sort_unstable();
    let mut expected: BTreeMap<u64, Totals> = BTreeMap::new();
    let mut datagrams = Vec::new();
    let mut windows_of = Vec::new();
    let mut next = 0usize;
    let mut n = 0u64;
    for (due_us, e, j) in slots {
        let ex = &exporters[e];
        let ts = t0_ms + due_us / 1000;
        let mut chunk = Vec::with_capacity(LIVE_RECORDS_PER_DATAGRAM);
        for _ in 0..LIVE_RECORDS_PER_DATAGRAM {
            let mut r = records[next % records.len()];
            next += 1;
            r.first_ms = ts;
            r.last_ms = ts;
            expected.entry(window(ts)).or_default().add(&r);
            chunk.push(r);
        }
        n += chunk.len() as u64;
        windows_of.push(vec![window(ts)]);
        let templates = j % IPFIX_TEMPLATE_EVERY == 0;
        datagrams.push(Datagram {
            exporter: e,
            due_us,
            bytes: encode(
                ex.live_dialect,
                &chunk,
                (j * LIVE_RECORDS_PER_DATAGRAM as u64) as u32,
                1 + e as u32,
                templates,
            ),
            records: chunk.len() as u32,
            completes: Vec::new(),
        });
    }
    let windows = end_us / 1000 / WINDOW_MS;
    let data_windows: Vec<u64> = (0..windows).map(|w| t0_ms + w * WINDOW_MS).collect();
    let last = *data_windows.last().expect("at least one live window");
    for step in [3u64, 4] {
        for (e, ex) in exporters.iter().enumerate() {
            let r = closer_record(ex, last + step * WINDOW_MS + 1);
            expected.entry(window(r.last_ms)).or_default().add(&r);
            windows_of.push(vec![window(r.last_ms)]);
            datagrams.push(Datagram {
                exporter: e,
                due_us: end_us,
                bytes: encode(
                    ex.live_dialect,
                    &[r],
                    u32::MAX - step as u32,
                    1 + e as u32,
                    true,
                ),
                records: 1,
                completes: Vec::new(),
            });
        }
    }
    mark_completions(&mut datagrams, &windows_of, exporters);
    // The first window has no complete predecessor to attribute sites
    // against; the last two close on the closers, not on traffic.
    let sample_windows = data_windows
        .iter()
        .skip(1)
        .take(data_windows.len().saturating_sub(3))
        .copied()
        .collect();
    Plan {
        datagrams,
        expected,
        data_windows,
        sample_windows,
        records: n,
    }
}

/// The window start containing `ts_ms`.
pub fn window(ts_ms: u64) -> u64 {
    ts_ms / WINDOW_MS * WINDOW_MS
}

/// A minimal deterministic generator for the query mix.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeded generator.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Where a query is sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// The root relay.
    Root,
    /// Per-site breakdown fanned out over the leaf relays owning the
    /// scope: (leaf name, the request text for its slice).
    Leaves(Vec<(String, String)>),
}

/// One query of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// The query as the flat oracle runs it.
    pub text: String,
    /// Where it goes.
    pub target: Target,
}

/// The seeded query mix over `[from_ms, to_ms)`: network-wide `hhh`,
/// `top` and `pop` and single-region `drill` (region = one mid-tier
/// relay's sites, answered from the root's region aggregates) go to the
/// root; multi-region `bysite` fans out over the owning leaf relays.
/// Half the queries cover the whole history, half the last two windows.
pub fn query_mix(
    seed: u64,
    records: &[FlowRecord],
    topo: &flowrelay::RelayTopology,
    from_ms: u64,
    to_ms: u64,
) -> Vec<QuerySpec> {
    // Patterns that select real traffic: the busiest source /8s and
    // destination /16s, and the busiest destination ports.
    let mut src8: BTreeMap<u8, u64> = BTreeMap::new();
    let mut dst16: BTreeMap<(u8, u8), u64> = BTreeMap::new();
    let mut dport: BTreeMap<u16, u64> = BTreeMap::new();
    for r in records {
        if let (IpAddr::V4(s), IpAddr::V4(d)) = (r.src, r.dst) {
            *src8.entry(s.octets()[0]).or_default() += 1;
            *dst16.entry((d.octets()[0], d.octets()[1])).or_default() += 1;
        }
        *dport.entry(r.dport).or_default() += 1;
    }
    fn top<K: Copy + Ord>(m: &BTreeMap<K, u64>, n: usize) -> Vec<K> {
        let mut v: Vec<(u64, K)> = m.iter().map(|(k, c)| (*c, *k)).collect();
        v.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        v.into_iter().take(n).map(|(_, k)| k).collect()
    }
    let mut patterns: Vec<String> = vec!["*".into()];
    patterns.extend(
        top(&src8, 3)
            .into_iter()
            .map(|a| format!("src={a}.0.0.0/8")),
    );
    patterns.extend(
        top(&dst16, 2)
            .into_iter()
            .map(|(a, b)| format!("dst={a}.{b}.0.0/16")),
    );
    patterns.extend(top(&dport, 2).into_iter().map(|p| format!("dport={p}")));

    let mids: Vec<usize> = (0..topo.relays.len())
        .filter(|&i| topo.relays[i].parent.as_deref() == Some("root"))
        .collect();
    let leaves: Vec<usize> = (0..topo.relays.len())
        .filter(|&i| !topo.relays[i].sites.is_empty())
        .collect();
    let list = |sites: &[u16]| {
        sites
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };

    let mut rng = SplitMix::new(seed ^ 0x0051_5545_5259);
    let recent_from = to_ms.saturating_sub(2 * WINDOW_MS).max(from_ms);
    let mut out = Vec::with_capacity(QUERY_MIX);
    for i in 0..QUERY_MIX {
        let (f, t) = if i % 2 == 0 {
            (from_ms, to_ms)
        } else {
            (recent_from, to_ms)
        };
        let range = format!("from={f} to={t}");
        let pat = patterns[rng.below(patterns.len())].clone();
        let spec = match i % 5 {
            0 => QuerySpec {
                text: format!("hhh 0.0{} by packets {range}", 2 + rng.below(4)),
                target: Target::Root,
            },
            1 => {
                let dim = ["src", "dst", "dport"][rng.below(3)];
                QuerySpec {
                    text: format!("top 10 {dim} by bytes under {pat} {range}"),
                    target: Target::Root,
                }
            }
            2 => QuerySpec {
                text: format!("pop {pat} {range}"),
                target: Target::Root,
            },
            3 => {
                let mid = mids[rng.below(mids.len())];
                let region: Vec<u16> = topo.coverage(mid).into_iter().collect();
                let dim = ["src", "dst"][rng.below(2)];
                QuerySpec {
                    text: format!("drill {dim} under {pat} sites={} {range}", list(&region)),
                    target: Target::Root,
                }
            }
            _ => {
                // Two or three leaf regions, one to three sites each.
                let mut chosen = leaves.clone();
                chosen.remove(rng.below(chosen.len()));
                if rng.below(2) == 0 && leaves.len() > 2 {
                    chosen = leaves.clone();
                }
                let mut parts = Vec::new();
                let mut all: Vec<u16> = Vec::new();
                for &leaf in &chosen {
                    let sites = &topo.relays[leaf].sites;
                    let take = 1 + rng.below(sites.len());
                    let picked: Vec<u16> = sites[..take].to_vec();
                    parts.push((
                        topo.relays[leaf].name.clone(),
                        format!("bysite {pat} sites={} {range}", list(&picked)),
                    ));
                    all.extend(picked);
                }
                QuerySpec {
                    text: format!("bysite {pat} sites={} {range}", list(&all)),
                    target: Target::Leaves(parts),
                }
            }
        };
        out.push(spec);
    }
    out
}

/// The seeded order in which a query client walks the mix.
pub fn query_order(seed: u64, client: usize, len: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1));
    (0..len).map(|_| rng.below(QUERY_MIX)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANCHOR: u64 = 1_700_000_000_000;

    #[test]
    fn same_seed_same_datagrams_queries_and_totals() {
        let ex = exporters();
        let a = trace_records(7, 6_000);
        let b = trace_records(7, 6_000);
        assert_eq!(a, b);
        assert_ne!(a, trace_records(8, 6_000));
        let (ra, rb) = (replay_round(&a, &ex, ANCHOR), replay_round(&b, &ex, ANCHOR));
        assert_eq!(ra.datagrams, rb.datagrams);
        assert_eq!(ra.expected, rb.expected);
        let (la, lb) = (live_plan(&a, &ex, ANCHOR, 2), live_plan(&b, &ex, ANCHOR, 2));
        assert_eq!(la.datagrams, lb.datagrams);
        assert_eq!(la.expected, lb.expected);
        let topo = flowrelay::RelayTopology::three_tier(SITES, 3, 2);
        assert_eq!(
            query_mix(7, &a, &topo, ANCHOR, ANCHOR + 4_000),
            query_mix(7, &b, &topo, ANCHOR, ANCHOR + 4_000)
        );
        assert_eq!(query_order(7, 1, 50), query_order(7, 1, 50));
        assert_ne!(query_order(7, 0, 50), query_order(7, 1, 50));
    }

    #[test]
    fn expected_totals_match_the_datagrams() {
        let ex = exporters();
        let recs = trace_records(3, 4_800);
        for plan in [
            replay_round(&recs, &ex, ANCHOR),
            live_plan(&recs, &ex, ANCHOR, 1),
        ] {
            let mut decoders: Vec<flownet::ExportDecoder> =
                ex.iter().map(|_| flownet::ExportDecoder::new()).collect();
            let mut seen: BTreeMap<u64, Totals> = BTreeMap::new();
            for d in &plan.datagrams {
                let (_, rs) =
                    flownet::decode_export_packet_at(&mut decoders[d.exporter], &d.bytes, 0)
                        .expect("decodes");
                assert_eq!(rs.len() as u32, d.records);
                for r in &rs {
                    seen.entry(window(r.last_ms)).or_default().add(r);
                }
            }
            assert_eq!(
                seen, plan.expected,
                "decoded timestamps land in the planned windows"
            );
            for &w in &plan.data_windows {
                for s in 0..SITES {
                    assert!(
                        plan.datagrams
                            .iter()
                            .any(|d| ex[d.exporter].site == s && d.completes.contains(&w)),
                        "site {s} completes window {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_lane_sites_spread_their_exporters() {
        let ex = exporters();
        assert_eq!(ex.len(), SITES as usize * EXPORTERS_PER_SITE);
        for s in 0..SITES {
            let lanes: BTreeSet<usize> =
                ex.iter().filter(|e| e.site == s).map(|e| e.lane).collect();
            assert_eq!(lanes.len(), site_lanes(s));
        }
    }
}
