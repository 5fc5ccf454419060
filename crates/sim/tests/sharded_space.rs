//! Model equivalence for [`ShardedEventQueue`]: slice dispatch over N
//! shards must be a pure regrouping of N independent [`EventQueue`]
//! replays — same per-shard event streams, slice times strictly
//! increasing, groups in ascending shard index, cross lane equal to its
//! own solo-queue replay. This is the property that makes an N-shard
//! fleet byte-identical to single-queue dispatch.

use ctt_core::time::Timestamp;
use ctt_sim::{fnv1a_64, EventKey, EventQueue, ShardedEventQueue};
use proptest::collection::vec;
use proptest::prelude::*;

/// Reference FNV-1a 64 vectors (RFC draft test set). `ShardedTsdb` hashes
/// series keys with the same constants, so one routing discipline shards
/// both the event space and the storage tier.
#[test]
fn fnv1a_reference_vectors() {
    assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_64("foobar"), 0x8594_4171_f739_67e8);
}

/// One scheduling op: owning entity, fire time, priority class, and a
/// lane selector (0 routes to the cross lane, anything else shard-local).
type Op = (u8, i64, u8, u8);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    vec((0u8..12, 0i64..40, 0u8..5, 0u8..10), 1..200)
}

/// Schedule `ops` into a fresh space and per-shard model queues.
fn build(
    ops: &[Op],
    shards: usize,
) -> (
    ShardedEventQueue<usize>,
    Vec<EventQueue<usize>>,
    EventQueue<usize>,
) {
    let mut space = ShardedEventQueue::new(shards);
    let mut models: Vec<EventQueue<usize>> = (0..shards).map(|_| EventQueue::new()).collect();
    let mut cross_model = EventQueue::new();
    for (i, &(entity, t, p, lane)) in ops.iter().enumerate() {
        let time = Timestamp(t);
        if lane == 0 {
            space.schedule_cross(time, p, i);
            cross_model.schedule(time, p, i);
        } else {
            let shard = space.shard_of(&format!("node{entity}"));
            space.schedule(shard, time, p, i);
            models[shard].schedule(time, p, i);
        }
    }
    (space, models, cross_model)
}

fn pop_all(q: &mut EventQueue<usize>) -> Vec<(EventKey, usize)> {
    let mut out = Vec::new();
    while let Some(ev) = q.pop() {
        out.push(ev);
    }
    out
}

proptest! {
    /// Full drain through `pop_slice`: concatenating each shard's groups
    /// across slices replays that shard's solo queue exactly; slice times
    /// strictly increase; groups ascend by shard index and are non-empty;
    /// the cross lane replays its own solo queue.
    #[test]
    fn slice_dispatch_equals_per_shard_replay(
        ops in ops_strategy(),
        shards in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
    ) {
        let (mut space, mut models, mut cross_model) = build(&ops, shards);
        let mut per_shard: Vec<Vec<(EventKey, usize)>> = vec![Vec::new(); shards];
        let mut cross_stream: Vec<(EventKey, usize)> = Vec::new();
        let mut last_time: Option<Timestamp> = None;
        let mut total = 0usize;
        while let Some(slice) = space.pop_slice() {
            if let Some(prev) = last_time {
                prop_assert!(slice.time > prev, "slice times must strictly increase");
            }
            last_time = Some(slice.time);
            total += slice.width();
            let mut prev_idx: Option<usize> = None;
            for (idx, group) in slice.shards {
                prop_assert!(!group.is_empty(), "groups are non-empty");
                if let Some(pi) = prev_idx {
                    prop_assert!(idx > pi, "groups ascend by shard index");
                }
                prev_idx = Some(idx);
                for (key, payload) in group {
                    prop_assert_eq!(key.time, slice.time);
                    per_shard[idx].push((key, payload));
                }
            }
            for (key, payload) in slice.cross {
                prop_assert_eq!(key.time, slice.time);
                cross_stream.push((key, payload));
            }
        }
        prop_assert!(space.is_empty());
        prop_assert_eq!(total, ops.len(), "every scheduled event dispatches once");
        for (idx, model) in models.iter_mut().enumerate() {
            prop_assert_eq!(&per_shard[idx], &pop_all(model), "shard {} diverged", idx);
        }
        prop_assert_eq!(&cross_stream, &pop_all(&mut cross_model));
        // Instrumentation agrees with what flowed through.
        let by_shard: u64 = space.dispatched_by_shard().iter().sum();
        prop_assert_eq!(by_shard + space.cross_dispatched(), ops.len() as u64);
        prop_assert_eq!(space.slice_width().count(), space.slices());
    }

    /// Horizon-bounded drain: `pop_slice_until(end, bp)` dispatches
    /// exactly the events the solo boundary rule admits — `time < end`,
    /// or `time == end` with `priority <= bp` — and leaves the rest.
    #[test]
    fn pop_slice_until_matches_boundary_rule(
        ops in ops_strategy(),
        end_t in 0i64..45,
        boundary in 0u8..5,
        shards in prop_oneof![Just(2usize), Just(8usize)],
    ) {
        let end = Timestamp(end_t);
        let admitted = |key: &EventKey| {
            key.time < end || (key.time == end && key.priority <= boundary)
        };
        let (mut space, mut models, mut cross_model) = build(&ops, shards);
        let mut dispatched = 0usize;
        while let Some(slice) = space.pop_slice_until(end, boundary) {
            for (_, group) in &slice.shards {
                for (key, _) in group {
                    prop_assert!(admitted(key), "{key:?} beyond horizon {end:?}/{boundary}");
                }
            }
            for (key, _) in &slice.cross {
                prop_assert!(admitted(key), "{key:?} beyond horizon {end:?}/{boundary}");
            }
            dispatched += slice.width();
        }
        let expect: usize = models
            .iter_mut()
            .chain(std::iter::once(&mut cross_model))
            .flat_map(pop_all)
            .filter(|(key, _)| admitted(key))
            .count();
        prop_assert_eq!(dispatched, expect, "boundary rule admits exactly the model set");
        prop_assert_eq!(space.len(), ops.len() - expect, "the rest stays pending");
    }
}
