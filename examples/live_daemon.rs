//! A live Flowtree daemon fed by real NetFlow v5 over UDP loopback.
//!
//! Exactly the Fig. 1 edge: a "router" thread exports NetFlow v5
//! datagrams to 127.0.0.1; the site's one-lane ingest edge receives
//! them on a UDP socket, decodes, summarizes into windows and ships
//! summary frames, and the main thread plays collector — all over real
//! sockets.
//!
//! ```sh
//! cargo run --release --example live_daemon
//! ```

use flowdist::net::export_netflow;
use flowdist::{
    spawn_multi_lane_ingest, Collector, DaemonConfig, IngestPipeline, LaneOptions, SiteDaemon,
    TransferMode,
};
use flownet::FlowRecord;
use flowtrace::{profile, TraceGen};
use flowtree::{Config, Schema};
use std::net::UdpSocket;
use std::time::Duration;

fn main() {
    let schema = Schema::five_feature();
    let tree_cfg = Config::with_budget(4_096);

    // Daemon side: one ingest lane on an ephemeral UDP port.
    let mut daemon_cfg = DaemonConfig::new(1);
    daemon_cfg.window_ms = 500;
    daemon_cfg.schema = schema;
    daemon_cfg.tree = tree_cfg;
    daemon_cfg.transfer = TransferMode::Full;
    let (frames_tx, frames) = crossbeam::channel::bounded::<Vec<u8>>(256);
    let edge = spawn_multi_lane_ingest(
        "127.0.0.1:0",
        |_lane| IngestPipeline::new(SiteDaemon::new(daemon_cfg), 1_024),
        frames_tx,
        LaneOptions {
            lanes: 1,
            ..LaneOptions::default()
        },
    )
    .expect("bind");
    let addr = edge.local_addr();
    println!("flowtree daemon listening for NetFlow v5 on {addr}");

    // Router side: generate flows and export them in a thread.
    let exporter = std::thread::spawn(move || {
        let mut cfg = profile::backbone(123);
        cfg.packets = 60_000;
        cfg.flows = 8_000;
        cfg.mean_pps = 30_000.0;
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let mut cache = flownet::FlowCache::new(flownet::FlowCacheConfig {
            idle_timeout_ms: 300,
            active_timeout_ms: 1_000,
            max_entries: 50_000,
        });
        let mut datagrams = 0usize;
        let mut batch: Vec<FlowRecord> = Vec::new();
        let flush = |batch: &mut Vec<FlowRecord>, datagrams: &mut usize| {
            if !batch.is_empty() {
                *datagrams += export_netflow(&socket, addr, batch, 2_000_000).expect("send");
                batch.clear();
            }
        };
        for pkt in TraceGen::new(cfg) {
            batch.extend(cache.observe(&pkt));
            if batch.len() >= 30 {
                flush(&mut batch, &mut datagrams);
            }
        }
        batch.extend(cache.drain());
        flush(&mut batch, &mut datagrams);
        println!("router: exported flows in {datagrams} datagrams");
        datagrams as u64
    });

    // Collector side: apply frames as the edge ships closed windows;
    // stop the edge (socket drained, open windows flushed) once every
    // exported datagram has arrived or the socket stays quiet.
    let mut collector = Collector::new(schema, tree_cfg);
    let exported = exporter.join().expect("exporter thread");
    let view = edge.view();
    let (mut seen, mut quiet) = (0, 0);
    while view.snapshot().datagrams < exported && quiet < 5 {
        std::thread::sleep(Duration::from_millis(200));
        let now = view.snapshot().datagrams;
        quiet = if now == seen { quiet + 1 } else { 0 };
        seen = now;
        for frame in frames.try_iter() {
            collector.apply_bytes(&frame).expect("apply");
        }
    }
    let report = edge.stop();
    for frame in frames.try_iter() {
        collector.apply_bytes(&frame).expect("apply");
    }

    let stats = report.daemon;
    println!(
        "daemon: {} records over UDP, {} windows summarized, {} summary bytes",
        stats.records, stats.summaries, stats.summary_bytes
    );
    let merged = collector.merged(None, 0, u64::MAX);
    println!(
        "collector: {} packets / {} bytes total across windows",
        merged.total().packets,
        merged.total().bytes
    );
    assert!(merged.total().packets > 0, "traffic must arrive end to end");
    println!("end-to-end over real UDP sockets: OK");
}
