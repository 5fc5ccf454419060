//! Broker benchmarks: publish fan-out throughput, the topic-trie vs
//! linear-scan routing ablation from DESIGN.md, and the pipeline's uplink
//! hop (bridge → broker → storage consumer) split into its parts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ctt_broker::{Broker, Message, QoS, RetryPolicy, Topic, TopicFilter, UplinkEvent};
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::Timestamp;

fn make_broker(subs: usize) -> (Broker, Vec<ctt_broker::Subscriber>) {
    let broker = Broker::new();
    let handles = (0..subs)
        .map(|i| {
            // A mix of exact, city-wide, and global subscriptions.
            let filter = match i % 3 {
                0 => format!("ctt/trondheim/devices/dev{i}/up"),
                1 => "ctt/trondheim/devices/+/up".to_string(),
                _ => "ctt/#".to_string(),
            };
            broker.subscribe(TopicFilter::new(filter).unwrap(), QoS::AtMostOnce, 1 << 14)
        })
        .collect();
    (broker, handles)
}

fn bench_publish(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker_publish");
    for &subs in &[10usize, 100, 1000] {
        let (broker, handles) = make_broker(subs);
        let topic = Topic::new("ctt/trondheim/devices/dev1/up").unwrap();
        g.bench_with_input(BenchmarkId::new("fanout", subs), &subs, |b, _| {
            b.iter(|| {
                let m = Message::new(topic.clone(), vec![0u8; 64], Timestamp(0));
                black_box(broker.publish(m))
            })
        });
        // Drain so queues don't fill (drops would change the cost profile).
        for h in &handles {
            h.drain();
        }
    }
    g.finish();
}

/// Ablation: trie routing vs scanning every subscription filter.
fn bench_routing_ablation(c: &mut Criterion) {
    let n = 1000usize;
    let filters: Vec<TopicFilter> = (0..n)
        .map(|i| {
            TopicFilter::new(match i % 3 {
                0 => format!("ctt/trondheim/devices/dev{i}/up"),
                1 => "ctt/trondheim/devices/+/up".to_string(),
                _ => "ctt/#".to_string(),
            })
            .unwrap()
        })
        .collect();
    let topic = Topic::new("ctt/trondheim/devices/dev42/up").unwrap();
    let mut g = c.benchmark_group("broker_routing");
    // Linear baseline: match the topic against every filter.
    g.bench_function("linear_scan_1000", |b| {
        b.iter(|| {
            let hits = filters.iter().filter(|f| f.matches(&topic)).count();
            black_box(hits)
        })
    });
    // Trie: the broker's routing path (publish to a broker with these
    // subscriptions but empty queues → routing dominates).
    let broker = Broker::new();
    let _handles: Vec<_> = filters
        .iter()
        .map(|f| broker.subscribe(f.clone(), QoS::AtMostOnce, 1))
        .collect();
    g.bench_function("trie_route_1000", |b| {
        b.iter(|| {
            let m = Message::new(topic.clone(), vec![], Timestamp(0));
            black_box(broker.publish(m))
        })
    });
    g.finish();
}

fn bench_qos1_ack_cycle(c: &mut Criterion) {
    let broker = Broker::new();
    let sub = broker.subscribe(TopicFilter::new("t/#").unwrap(), QoS::AtLeastOnce, 1 << 14);
    let topic = Topic::new("t/x").unwrap();
    c.bench_function("broker_qos1_publish_ack", |b| {
        b.iter(|| {
            broker.publish(
                Message::new(topic.clone(), vec![1, 2, 3], Timestamp(0)).with_qos(QoS::AtLeastOnce),
            );
            let d = sub.try_recv().expect("delivered");
            broker.ack(sub.id, d.packet_id.expect("qos1"));
        })
    });
}

/// One uplink's trip over the broker as `Pipeline` makes it — a broker
/// whose only subscription is the storage consumer's QoS1 `all_filter`, an
/// 18-byte sensor payload from a Trondheim node — whole and by part.
/// Ungated: the rows say where a hop's time goes, the end-to-end claim is
/// `ctt-benchmark`'s.
fn bench_uplink_hop(c: &mut Criterion) {
    let broker = Broker::new();
    let sub = broker.subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, 65_536);
    let event = UplinkEvent {
        city: "trondheim".to_string(),
        device: DevEui::ctt(7),
        fcnt: 1234,
        port: 2,
        time: Timestamp(1_490_000_000),
        gateway: GatewayId::ctt(1),
        rssi_dbm: -103.4,
        snr_db: 5.2,
        gateway_count: 2,
        payload: (0..18).map(|i| i * 13).collect(),
    };
    let line = event.encode();
    let mut g = c.benchmark_group("uplink_hop");
    g.bench_function("topic", |b| b.iter(|| black_box(&event).topic()));
    g.bench_function("encode", |b| b.iter(|| black_box(&event).encode()));
    g.bench_function("publish_drain_ack", |b| {
        let topic = event.topic();
        b.iter(|| {
            broker.publish(
                Message::new(topic.clone(), line.clone(), event.time).with_qos(QoS::AtLeastOnce),
            );
            let d = sub.try_recv().expect("delivered");
            broker.ack(sub.id, d.packet_id.expect("qos1"))
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| UplinkEvent::decode(black_box(&line)).expect("valid line"))
    });
    g.bench_function("whole", |b| {
        let mut outbound = event.clone();
        let mut inbound = UplinkEvent::default();
        b.iter(|| {
            outbound.fcnt = outbound.fcnt.wrapping_add(1);
            outbound.payload.clear();
            outbound
                .payload
                .extend_from_slice(black_box(&event.payload));
            outbound.publish_with_retry(&broker, RetryPolicy::default());
            let d = sub.try_recv().expect("delivered");
            broker.ack(sub.id, d.packet_id.expect("qos1"));
            inbound.decode_into(&d.message.payload).expect("valid line");
            inbound.fcnt
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_publish, bench_routing_ablation, bench_qos1_ack_cycle, bench_uplink_hop
}
criterion_main!(benches);
