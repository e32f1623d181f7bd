//! Real-socket helpers around the ingest edge.
//!
//! * Test exporters — [`export_netflow`] and [`export_ipfix`] turn flow
//!   records into NetFlow v5 / IPFIX datagrams on a UDP socket, the
//!   traffic a router would send to a site's [`crate::lane`] edge.
//! * TCP summary shipping — [`send_summary`] on the site side and
//!   [`receive_summaries`] on the collector side, both over the
//!   length-prefixed [`crate::framing`].
//!
//! Everything here is synchronous `std::net`; the daemons are
//! single-site and the collector fan-in is modest, so threads suffice
//! (the offline dependency set has no async runtime, and none is
//! needed at this scale).

use crate::framing::write_frame;
use crate::DistError;
use flownet::netflow5;
use flownet::FlowRecord;
use std::net::{SocketAddr, TcpStream, UdpSocket};

/// Sends one frame to a connected TCP peer.
pub fn send_summary(stream: &mut TcpStream, frame: &[u8]) -> Result<(), DistError> {
    write_frame(stream, frame).map_err(DistError::Io)
}

/// Sends flow records to a NetFlow v5 collector address in ≤ 30-record
/// packets; returns the number of datagrams sent.
pub fn export_netflow(
    socket: &UdpSocket,
    to: SocketAddr,
    records: &[FlowRecord],
    base_ms: u64,
) -> Result<usize, DistError> {
    let mut sent = 0usize;
    let mut seq = 0u32;
    for chunk in records.chunks(netflow5::MAX_RECORDS) {
        let pkt = netflow5::encode(chunk, base_ms, seq);
        socket.send_to(&pkt, to).map_err(DistError::Io)?;
        seq = seq.wrapping_add(chunk.len() as u32);
        sent += 1;
    }
    Ok(sent)
}

/// Sends flow records to an IPFIX collector, templates first, in
/// ≤ `batch` record messages; returns the number of datagrams sent.
pub fn export_ipfix(
    socket: &UdpSocket,
    to: SocketAddr,
    records: &[FlowRecord],
    export_time: u32,
    domain: u32,
) -> Result<usize, DistError> {
    let mut sent = 0usize;
    let mut seq = 0u32;
    let batch = 200usize;
    let mut first = true;
    for chunk in records.chunks(batch.max(1)) {
        let msg = flownet::ipfix::encode_message(chunk, export_time, seq, domain, first);
        first = false;
        socket.send_to(&msg, to).map_err(DistError::Io)?;
        seq = seq.wrapping_add(chunk.len() as u32);
        sent += 1;
    }
    // An empty record set still announces templates once.
    if records.is_empty() {
        let msg = flownet::ipfix::encode_message(&[], export_time, seq, domain, true);
        socket.send_to(&msg, to).map_err(DistError::Io)?;
        sent += 1;
    }
    Ok(sent)
}

/// Reads length-prefixed summary frames from one TCP connection until
/// EOF, applying each to the collector. Returns (applied, rejected) —
/// a malformed frame is counted and skipped, not fatal, so one bad
/// exporter cannot take the collector down.
pub fn receive_summaries(
    stream: &mut std::net::TcpStream,
    collector: &mut crate::Collector,
) -> Result<(usize, usize), DistError> {
    let (mut applied, mut rejected) = (0usize, 0usize);
    let owned = stream.try_clone().map_err(DistError::Io)?;
    crate::framing::serve_framed(owned, |frame| {
        match collector.apply_bytes(&frame) {
            Ok(()) => applied += 1,
            Err(_) => rejected += 1,
        }
        None
    })
    .map_err(DistError::Io)?;
    Ok((applied, rejected))
}

/// The exporters' datagrams through the ingest edge at `lanes: 1`:
/// every dialect decodes, hostile payloads are counted, not fatal.
#[cfg(test)]
mod udp_tests {
    use super::*;
    use crate::daemon::{DaemonConfig, SiteDaemon, TransferMode};
    use crate::lane::{spawn_multi_lane_ingest, IngestReport, LaneOptions};
    use crate::{Collector, IngestPipeline};
    use flowkey::{FlowKey, Schema};
    use flowtree_core::{Config, FlowTree};
    use std::time::{Duration, Instant};

    fn pipeline(_lane: usize) -> IngestPipeline {
        let mut cfg = DaemonConfig::new(5);
        cfg.window_ms = 1_000;
        cfg.schema = Schema::five_feature();
        cfg.tree = Config::with_budget(4_096);
        cfg.transfer = TransferMode::Full;
        IngestPipeline::new(SiteDaemon::new(cfg), 64)
    }

    /// Boots a one-lane edge, lets `send` export to it, waits until
    /// `datagrams` have arrived, stops it, and returns its report plus
    /// the merged tree of every frame it shipped.
    fn through_one_lane(
        datagrams: u64,
        send: impl FnOnce(&UdpSocket, SocketAddr),
    ) -> (IngestReport, FlowTree) {
        let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(256);
        let handle =
            spawn_multi_lane_ingest("127.0.0.1:0", pipeline, tx, LaneOptions::default()).unwrap();
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        send(&sender, handle.local_addr());
        let view = handle.view();
        let deadline = Instant::now() + Duration::from_secs(10);
        while view.snapshot().datagrams < datagrams && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = handle.stop();
        assert!(report.error.is_none(), "{:?}", report.error);
        assert_eq!(report.datagrams, datagrams);
        assert_eq!(report.daemon.late_drops, 0);
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(4_096));
        for frame in rx.try_iter() {
            collector.apply_bytes(&frame).unwrap();
        }
        (report, collector.merged(None, 0, u64::MAX))
    }

    fn key(s: &str) -> FlowKey {
        s.parse().unwrap()
    }

    #[test]
    fn netflow_over_loopback_udp() {
        let records: Vec<FlowRecord> = (0..75)
            .map(|i| {
                let mut r = FlowRecord::v4(
                    [10, 0, 0, (i % 250) as u8],
                    [192, 0, 2, 1],
                    1000 + i as u16,
                    443,
                    6,
                    i as u64 + 1,
                    500,
                );
                r.first_ms = 1_000;
                r.last_ms = 2_000;
                r
            })
            .collect();
        let (report, merged) = through_one_lane(3, |sender, to| {
            let datagrams = export_netflow(sender, to, &records, 10_000).unwrap();
            assert_eq!(datagrams, 3); // 30 + 30 + 15
        });
        assert_eq!(report.pipeline.packets_v5, 3);
        assert_eq!(report.pipeline.records, 75);
        assert_eq!(report.pipeline.decode_errors, 0);
        assert_eq!(merged.total().packets, (1..=75).sum::<i64>());
        // Spot-check one record surviving the wire.
        let first = key("src=10.0.0.0/32 dst=192.0.2.1/32 sport=1000 dport=443 proto=tcp");
        assert_eq!(
            merged.subtree_popularity(&first).map(|p| p.packets),
            Some(1)
        );
    }

    #[test]
    fn netflow9_over_loopback_udp() {
        let records: Vec<FlowRecord> = (0..12)
            .map(|i| {
                let mut r = FlowRecord::v4(
                    [10, 0, 0, i as u8],
                    [192, 0, 2, 1],
                    2000 + i,
                    53,
                    17,
                    3,
                    300,
                );
                r.first_ms = 1_700_000_000_000;
                r.last_ms = r.first_ms + 10;
                r
            })
            .collect();
        let pkt = flownet::netflow9::encode(&records, 1_700_000_001_000, 1, 4);
        let (report, merged) = through_one_lane(1, |sender, to| {
            sender.send_to(&pkt, to).unwrap();
        });
        assert_eq!(report.pipeline.packets_v9, 1);
        assert_eq!(report.pipeline.records, 12);
        assert_eq!(report.pipeline.decode_errors, 0);
        assert_eq!(merged.total().packets, 36);
        let schema = Schema::five_feature();
        assert!(
            records.iter().all(|r| {
                let k = schema.canonicalize(&r.flow_key());
                merged.subtree_popularity(&k).map(|p| p.packets) == Some(3)
            }),
            "every UDP record arrived with its own mass"
        );
    }

    #[test]
    fn ipfix_over_loopback_udp_with_v6_records() {
        let mut records: Vec<FlowRecord> = (0..300)
            .map(|i| {
                FlowRecord::v4(
                    [10, 0, (i / 250) as u8, (i % 250) as u8],
                    [192, 0, 2, 1],
                    1000 + i as u16,
                    443,
                    6,
                    1 + i as u64,
                    100,
                )
            })
            .collect();
        records.push(FlowRecord {
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
            sport: 53,
            dport: 53,
            proto: 17,
            packets: 9,
            bytes: 900,
            first_ms: 1,
            last_ms: 2,
        });
        let (report, merged) = through_one_lane(2, |sender, to| {
            let n = export_ipfix(sender, to, &records, 1_700_000_000, 7).unwrap();
            assert_eq!(n, 2, "batched into 200 + 101 records");
        });
        assert_eq!(report.pipeline.packets_ipfix, 2);
        assert_eq!(report.pipeline.records, records.len() as u64);
        assert_eq!(report.pipeline.decode_errors, 0);
        assert_eq!(merged.total().packets, (1..=300).sum::<i64>() + 9);
        let v6 = key("src=2001:db8::1/128 dst=2001:db8::2/128 sport=53 dport=53 proto=udp");
        assert_eq!(
            merged.subtree_popularity(&v6).map(|p| p.packets),
            Some(9),
            "v6 record arrived"
        );
    }

    #[test]
    fn ipfix_empty_export_still_sends_templates() {
        let (report, merged) = through_one_lane(1, |sender, to| {
            assert_eq!(export_ipfix(sender, to, &[], 0, 3).unwrap(), 1);
        });
        assert_eq!(report.pipeline.packets_ipfix, 1);
        assert_eq!(report.pipeline.decode_errors, 0);
        assert_eq!(report.pipeline.records, 0);
        assert!(report.decoder.templates_learned > 0, "templates announced");
        assert_eq!(merged.total().packets, 0);
    }

    #[test]
    fn hostile_datagrams_are_survived() {
        let mut valid = FlowRecord::v4([10, 0, 0, 1], [192, 0, 2, 1], 1, 443, 6, 4, 400);
        valid.first_ms = 1_000;
        valid.last_ms = 1_000;
        let (report, merged) = through_one_lane(3, |sender, to| {
            sender.send_to(b"not netflow at all", to).unwrap();
            sender.send_to(&[0xde, 0xad, 0xbe, 0xef], to).unwrap();
            export_netflow(sender, to, &[valid], 10_000).unwrap();
        });
        assert_eq!(report.pipeline.decode_errors, 2);
        assert_eq!(
            report.pipeline.records, 1,
            "a valid export after garbage lands"
        );
        assert_eq!(merged.total().packets, 4);
    }
}

#[cfg(test)]
mod tcp_tests {
    use super::*;
    use crate::daemon::{DaemonConfig, SiteDaemon, TransferMode};
    use crate::Collector;
    use flowkey::Schema;
    use flowtree_core::Config;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn summaries_over_tcp_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Site side: produce summaries and stream them over TCP.
        let sender = std::thread::spawn(move || {
            let mut cfg = DaemonConfig::new(7);
            cfg.window_ms = 1_000;
            cfg.schema = Schema::five_feature();
            cfg.tree = Config::with_budget(512);
            cfg.transfer = TransferMode::Full;
            let mut d = SiteDaemon::new(cfg);
            let mut frames = Vec::new();
            for w in 0..4u64 {
                for h in 0..5u8 {
                    let mut r =
                        flownet::FlowRecord::v4([10, 7, 0, h], [192, 0, 2, 1], 999, 443, 6, 2, 200);
                    r.first_ms = w * 1_000 + 50;
                    r.last_ms = r.first_ms;
                    frames.extend(d.ingest_record(&r).into_iter().map(|s| s.encode()));
                }
            }
            frames.extend(d.flush().into_iter().map(|s| s.encode()));
            let mut stream = TcpStream::connect(addr).unwrap();
            let n = frames.len();
            for f in frames {
                send_summary(&mut stream, &f).unwrap();
            }
            n
        });

        // Collector side: accept one connection, drain it.
        let (mut conn, _) = listener.accept().unwrap();
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(512));
        let (applied, rejected) = receive_summaries(&mut conn, &mut collector).unwrap();
        let sent = sender.join().unwrap();
        assert_eq!(applied, sent);
        assert_eq!(rejected, 0);
        assert_eq!(collector.stored_windows(), 4);
        assert_eq!(collector.merged(None, 0, u64::MAX).total().packets, 40);
    }

    #[test]
    fn corrupt_tcp_frames_are_skipped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            send_summary(&mut stream, b"this is not a summary frame").unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(64));
        let (applied, rejected) = receive_summaries(&mut conn, &mut collector).unwrap();
        sender.join().unwrap();
        assert_eq!((applied, rejected), (0, 1));
        assert_eq!(collector.stored_windows(), 0);
    }
}
