//! Broker benchmark: the pipeline's uplink hop (bridge → broker → storage
//! consumer), whole and split into its parts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ctt_broker::{Broker, Message, QoS, RetryPolicy, UplinkEvent};
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::Timestamp;

/// One uplink's trip over the broker as `Pipeline` makes it — a broker
/// whose only subscription is the storage consumer's QoS1 `all_filter`, an
/// 18-byte sensor payload from a Trondheim node — whole and by part.
/// Ungated: the rows say where a hop's time goes, the end-to-end claim is
/// `ctt-benchmark`'s.
fn bench_uplink_hop(c: &mut Criterion) {
    let broker = Broker::default();
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
            broker.publish_with_outcome(Message::new(topic.clone(), line.clone()));
            let d = sub.try_recv().expect("delivered");
            broker.ack(sub.id, d.packet_id.expect("packet id"))
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
            broker.ack(sub.id, d.packet_id.expect("packet id"));
            inbound.decode_into(&d.message.payload).expect("valid line");
            inbound.fcnt
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_uplink_hop
}
criterion_main!(benches);
