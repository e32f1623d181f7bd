//! The fleet under test: 8 `SiteRuntime` sites under a three-tier
//! `NodeRuntime` relay tree, booted in this process from one spec.

use crate::gen::{site_lanes, SITES, SITE_BUDGET, WINDOW_MS};
use flowdist::ops::ops_request;
use flowdist::runtime::{SiteNodeConfig, SiteRuntime};
use flowrelay::server::query_remote;
use flowrelay::spec::FleetSpec;
use flowrelay::{NodeRuntime, RelayTopology};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Relay tree budget. A relay pre-sizes every stored tree for
/// `min(budget, 65 536)` nodes; at the default budget (2^20) that is
/// ~45 MB of mostly empty arena per half-second window across this
/// fleet, so the spec sets a budget that still exceeds the largest
/// merge any workload makes (~10 K nodes for a replay round) but keeps
/// a run near half a gigabyte.
pub const RELAY_BUDGET: usize = 16_384;

/// The relay tree: `three_tier(8, 3, 2)` — three leaves of ≤3 sites,
/// two mids, one root (6 relays), as the E16 fleet sizes it.
pub fn topology() -> RelayTopology {
    let leaf_fanout = (SITES as f64).sqrt().ceil() as u16;
    let leaves = SITES.div_ceil(leaf_fanout);
    let mid_fanout = (leaves as f64).sqrt().ceil() as u16;
    RelayTopology::three_tier(SITES, leaf_fanout, mid_fanout)
}

/// The fleet spec text: the relay knobs of `examples/fleet.spec`
/// (delta export, 500 ms linger, 200 ms drain tick), half-second site
/// windows, and two fanout-mode lanes on every even site.
pub fn spec_text() -> String {
    let topo = topology();
    let mut text = format!(
        "[defaults]\nmode = delta\nlinger-ms = 500\ndrain-every-ms = 200\nretention-ms = 3600000\n\
         stats = 127.0.0.1:0\nwindow-ms = {WINDOW_MS}\nbatch = 64\nbudget = {RELAY_BUDGET}\n\n"
    );
    for s in 0..SITES {
        let owner = topo.owner_of(s).expect("three_tier covers every site");
        text.push_str(&format!(
            "[site {s}]\nupstream = {}\nbudget = {SITE_BUDGET}\n",
            topo.relays[owner].name
        ));
        if site_lanes(s) > 1 {
            text.push_str(&format!("lanes = {}\nreuseport = off\n", site_lanes(s)));
        }
        text.push('\n');
    }
    for r in &topo.relays {
        text.push_str(&format!("[relay {}]\nagg-site = {}\n", r.name, r.agg_site));
        if !r.sites.is_empty() {
            let list: Vec<String> = r.sites.iter().map(u16::to_string).collect();
            text.push_str(&format!("sites = {}\n", list.join(",")));
        }
        if let Some(p) = &r.parent {
            text.push_str(&format!("parent = {p}\n"));
        }
        text.push('\n');
    }
    text
}

/// A booted fleet.
pub struct Fleet {
    /// Relays in boot order (root first).
    pub relays: Vec<NodeRuntime>,
    /// Sites in id order.
    pub sites: Vec<SiteRuntime>,
}

impl Fleet {
    /// Boots every relay (root first) and every site, as `flowctl run`
    /// would.
    pub fn boot(spec: &FleetSpec) -> Fleet {
        let relays = spec.boot_relays().expect("relays boot");
        let ingest: BTreeMap<String, SocketAddr> = relays
            .iter()
            .map(|rt| (rt.name().to_string(), rt.ingest_addr()))
            .collect();
        let mut sites = Vec::new();
        for s in &spec.sites {
            let mut cfg = SiteNodeConfig::new(s.site, ingest[&s.upstream].to_string());
            cfg.listen = s.listen.clone();
            cfg.stats = s.stats.clone();
            cfg.window_ms = s.window_ms;
            cfg.budget = s.budget;
            cfg.batch = s.batch;
            cfg.receive_buffer_bytes = s.receive_buffer_bytes;
            cfg.admission = s.admission;
            cfg.max_open_windows = s.max_open_windows;
            cfg.lanes = s.lanes;
            cfg.recv_batch = s.recv_batch;
            cfg.reuseport = s.reuseport;
            cfg.pin_cores = s.pin_cores;
            sites.push(SiteRuntime::start(cfg).expect("site boots"));
        }
        sites.sort_by_key(|s| s.site());
        Fleet { relays, sites }
    }

    /// Blocks until every node answers: each relay a query over its
    /// query socket, each site a `/health` request.
    pub fn wait_ready(&self, deadline: Duration) {
        let until = Instant::now() + deadline;
        for rt in &self.relays {
            loop {
                let ok = TcpStream::connect(rt.query_addr())
                    .ok()
                    .and_then(|mut c| query_remote(&mut c, "pop").ok())
                    .is_some_and(|r| r.is_ok());
                if ok {
                    break;
                }
                assert!(Instant::now() < until, "relay {} never answered", rt.name());
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        for s in &self.sites {
            let addr = s.stats_addr().expect("sites serve stats").to_string();
            loop {
                if matches!(ops_request(&addr, "GET", "/health", ""), Ok((200, _))) {
                    break;
                }
                assert!(Instant::now() < until, "site {} never answered", s.site());
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    /// The root relay.
    pub fn root(&self) -> &NodeRuntime {
        &self.relays[0]
    }

    /// A relay by name.
    pub fn relay(&self, name: &str) -> &NodeRuntime {
        self.relays
            .iter()
            .find(|r| r.name() == name)
            .expect("relay in spec")
    }

    /// `GET /metrics` from every node: (role, node name, page).
    pub fn scrape(&self) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for s in &self.sites {
            let addr = s.stats_addr().expect("sites serve stats").to_string();
            if let Ok((200, body)) = ops_request(&addr, "GET", "/metrics", "") {
                out.push(("site".into(), format!("site{}", s.site()), body));
            }
        }
        for r in &self.relays {
            if let Some(addr) = r.stats_addr() {
                let role = if r.name() == "root" {
                    "root"
                } else if r.name().starts_with("mid") {
                    "mid"
                } else {
                    "leaf"
                };
                if let Ok((200, body)) = ops_request(&addr.to_string(), "GET", "/metrics", "") {
                    out.push((role.into(), r.name().to_string(), body));
                }
                if let Ok((200, body)) = ops_request(&addr.to_string(), "GET", "/stats", "") {
                    out.push((format!("{role}-stats"), r.name().to_string(), body));
                }
            }
        }
        out
    }

    /// Stops every node and waits for its threads: sites drain first
    /// (their forwarders close), then relays leaf-first.
    pub fn shutdown(self) {
        for s in self.sites {
            let _ = s.drain();
        }
        for r in self.relays.into_iter().rev() {
            r.shutdown();
        }
    }
}

/// One Prometheus histogram read off a `/metrics` page.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// Cumulative (upper bound, count) pairs, `+Inf` last.
    pub buckets: Vec<(f64, u64)>,
    /// Observation count.
    pub count: u64,
}

impl Hist {
    /// Adds another histogram with the same bounds.
    pub fn merge(&mut self, o: &Hist) {
        if self.buckets.is_empty() {
            self.buckets = o.buckets.clone();
        } else {
            for (b, ob) in self.buckets.iter_mut().zip(&o.buckets) {
                b.1 += ob.1;
            }
        }
        self.count += o.count;
    }

    /// Quantile estimate by linear interpolation inside the bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut prev = (0.0, 0u64);
        for &(le, c) in &self.buckets {
            if c as f64 >= rank {
                if !le.is_finite() {
                    return prev.0;
                }
                let inside = (c - prev.1) as f64;
                let frac = if inside > 0.0 {
                    (rank - prev.1 as f64) / inside
                } else {
                    1.0
                };
                return prev.0 + (le - prev.0) * frac.clamp(0.0, 1.0);
            }
            prev = (le, c);
        }
        prev.0
    }
}

/// The histogram `name` on a `/metrics` page, if present.
pub fn histogram(page: &str, name: &str) -> Option<Hist> {
    let mut h = Hist::default();
    let bucket = format!("{name}_bucket{{le=\"");
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix(&bucket) {
            let (le, count) = rest.split_once("\"}")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            h.buckets.push((le, count.trim().parse().ok()?));
        } else if let Some(v) = line.strip_prefix(&format!("{name}_count ")) {
            h.count = v.trim().parse().ok()?;
        }
    }
    (!h.buckets.is_empty()).then_some(h)
}

/// Sum of every sample of counter or gauge `name` (any labels).
pub fn counter(page: &str, name: &str) -> f64 {
    page.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Per-label samples of `name`: (label text, value).
pub fn labelled(page: &str, name: &str) -> Vec<(String, f64)> {
    let prefix = format!("{name}{{");
    page.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(&prefix)?;
            let (labels, v) = rest.split_once("} ")?;
            Some((labels.to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_a_valid_three_tier_fleet() {
        let spec = FleetSpec::parse(&spec_text()).expect("spec parses");
        assert_eq!(spec.sites.len(), SITES as usize);
        assert_eq!(spec.relays.len(), 6);
        assert_eq!(spec.sites.iter().filter(|s| s.lanes == 2).count(), 4);
        assert!(spec.sites.iter().all(|s| s.lanes == 1 || !s.reuseport));
    }

    #[test]
    fn histogram_parse_and_quantile() {
        let page = "# HELP x_seconds h\n# TYPE x_seconds histogram\n\
            x_seconds_bucket{le=\"0.001\"} 2\nx_seconds_bucket{le=\"0.01\"} 6\n\
            x_seconds_bucket{le=\"+Inf\"} 8\nx_seconds_sum 0.5\nx_seconds_count 8\n\
            y_total{lane=\"0\"} 3\ny_total{lane=\"1\"} 4\n";
        let h = histogram(page, "x_seconds").unwrap();
        assert_eq!(h.count, 8);
        assert_eq!(h.buckets.len(), 3);
        assert!((h.quantile(0.5) - (0.001 + 0.009 * 0.5)).abs() < 1e-12);
        assert_eq!(counter(page, "y_total"), 7.0);
        assert_eq!(labelled(page, "y_total").len(), 2);
    }
}
