//! Multi-city fleet: every pilot's calendar mounted in one sharded event
//! space, dispatched slice by slice.
//!
//! A [`Fleet`] takes ownership of a set of [`Pipeline`]s and moves their
//! pending events into a [`ShardedEventQueue`], each city keyed onto a
//! shard by FNV of its slug (the `ShardedTsdb` discipline). The run loop
//! pops *time slices* — all events at the next instant, grouped by shard —
//! and dispatches the groups on the calling thread in ascending shard
//! index. After each group, the follow-up events its cities filed are
//! routed back into the owning shard, and cross-shard events (fleet
//! rollups) run at the slice barrier after every shard-local event.
//!
//! # Why this is byte-identical to solo dispatch
//!
//! * Within a shard, events dispatch in the shard's `(time, priority,
//!   seq)` order — and a city's events keep their relative order through
//!   mount and follow-up routing, so each city sees exactly the dispatch
//!   sequence its solo `run_until` would produce.
//! * Between shards at one instant, order is fixed by shard index. Cities
//!   on different shards share no state, so that order is observable only
//!   in fleet-level aggregates.
//! * Follow-ups are filed per shard group in (city-index, drain) order, so
//!   the per-shard seq assignment is a pure function of the schedule
//!   history and the shard count changes nothing a city can observe. The
//!   `fleet_identity` proptest pins all of this byte-for-byte.
//!
//! The run boundary uses the same rule as [`Pipeline::run_until`] (ticks
//! and radio deadlines landing exactly on `end` belong to this run), so
//! run-splitting is invariant through the sharded path too.

use crate::pipeline::{Pipeline, SimEvent, PRIO_RADIO, PRIO_TICK};
use ctt_core::time::{Span, Timestamp};
use ctt_dataport::TwinState;
use ctt_obs::{Registry, Snapshot};
use ctt_sim::{EventKey, ShardedEventQueue, SimClock, TimeSlice};

/// Default shard count for the fleet event space — mirrors the TSDB's
/// `DEFAULT_SHARDS`, so a four-city pilot set spreads one city per shard.
pub const DEFAULT_FLEET_SHARDS: usize = 4;

/// How a [`Fleet`] partitions and dispatches its event space.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Shard count (clamped to at least 1). Cities hash onto shards by
    /// FNV-1a of their slug.
    pub shards: usize,
    /// No effect — kept only because `benchmark/` names it. Slice groups
    /// always dispatch on the calling thread, in shard-index order.
    pub parallel: bool,
    /// Cadence of the cross-shard fleet rollup event (`None`, or a
    /// non-positive span, disables).
    pub rollup_cadence: Option<Span>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: DEFAULT_FLEET_SHARDS,
            parallel: true,
            rollup_cadence: Some(Span::hours(1)),
        }
    }
}

/// One scheduled unit in the fleet's event space.
#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    /// A city-local pipeline event, owned by the city's shard.
    City {
        /// Index into the fleet's city vector.
        city: u32,
        /// The pipeline event to dispatch.
        ev: SimEvent,
    },
    /// Cross-shard rollup: aggregates fleet-wide health at the slice
    /// barrier, after every shard-local event of its instant.
    Rollup,
}

/// A set of city pipelines driven by one sharded event space. See the
/// module docs for the dispatch protocol and determinism argument.
#[derive(Debug)]
pub struct Fleet {
    cities: Vec<Pipeline>,
    /// Shard owning each city (FNV of the city slug).
    city_shard: Vec<usize>,
    space: ShardedEventQueue<FleetEvent>,
    config: FleetConfig,
    /// Fleet time: the frontier of dispatched slices.
    clock: SimClock,
    /// Fleet-level gauges the rollup event maintains.
    registry: Registry,
}

impl Fleet {
    /// A fleet with the default configuration.
    pub fn new(pipelines: Vec<Pipeline>) -> Self {
        Fleet::with_config(pipelines, FleetConfig::default())
    }

    /// A fleet with an explicit [`FleetConfig`]. Every pipeline's pending
    /// calendar is mounted into the sharded space, preserving per-city
    /// dispatch order.
    pub fn with_config(pipelines: Vec<Pipeline>, mut config: FleetConfig) -> Self {
        // A rollup that reschedules itself zero or fewer seconds ahead
        // would be handed back by `pop_slice_until` forever.
        config.rollup_cadence = config.rollup_cadence.filter(|c| *c > Span::seconds(0));
        let mut space = ShardedEventQueue::new(config.shards);
        let mut cities = Vec::with_capacity(pipelines.len());
        let mut city_shard = Vec::with_capacity(pipelines.len());
        let mut start: Option<Timestamp> = None;
        for (idx, mut p) in pipelines.into_iter().enumerate() {
            let shard = space.shard_of(&p.deployment.city.to_lowercase());
            for (key, ev) in p.unmount_events() {
                space.schedule(
                    shard,
                    key.time,
                    key.priority,
                    FleetEvent::City {
                        city: idx as u32,
                        ev,
                    },
                );
            }
            start = Some(start.map_or(p.now(), |s: Timestamp| s.min(p.now())));
            city_shard.push(shard);
            cities.push(p);
        }
        let clock = SimClock::new(start.unwrap_or(Timestamp(0)));
        if let Some(cadence) = config.rollup_cadence {
            space.schedule_cross(clock.now() + cadence, PRIO_TICK, FleetEvent::Rollup);
        }
        Fleet {
            cities,
            city_shard,
            space,
            config,
            clock,
            registry: Registry::new(),
        }
    }

    /// Number of cities in the fleet.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// Whether the fleet has no cities.
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// Fleet time (the frontier of dispatched slices).
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The city at fleet index `idx`.
    pub fn city(&self, idx: usize) -> Option<&Pipeline> {
        self.cities.get(idx)
    }

    /// The cities in fleet order.
    pub fn cities(&self) -> impl Iterator<Item = &Pipeline> {
        self.cities.iter()
    }

    /// Advance every city until `end` by dispatching time slices from the
    /// sharded space, then settle each city's open radio windows (the same
    /// end-of-segment pass the solo runner makes, per city in fleet
    /// order). Uses the solo boundary rule, so splitting a run at any
    /// point replays identically.
    pub fn run_until(&mut self, end: Timestamp) {
        while let Some(slice) = self.space.pop_slice_until(end, PRIO_RADIO) {
            self.clock.advance(slice.time);
            self.dispatch_slice(slice);
        }
        for idx in 0..self.cities.len() {
            if let Some(p) = self.cities.get_mut(idx) {
                p.finish_segment(end);
            }
            self.mount_followups(idx);
        }
        self.clock.advance(end);
    }

    /// Dispatch one slice: shard groups in shard-index order, then the
    /// cross lane at the barrier.
    fn dispatch_slice(&mut self, slice: TimeSlice<FleetEvent>) {
        for (_shard, group) in slice.shards {
            // Events run in the shard's dispatch order; afterwards each
            // involved city's follow-ups are filed in ascending city order.
            let mut involved: Vec<usize> = Vec::with_capacity(group.len());
            for (key, fe) in group {
                if let FleetEvent::City { city, ev } = fe {
                    if let Some(p) = self.cities.get_mut(city as usize) {
                        p.dispatch_sliced(key, ev);
                        involved.push(city as usize);
                    }
                }
            }
            involved.sort_unstable();
            involved.dedup();
            for idx in involved {
                self.mount_followups(idx);
            }
        }
        // Cross lane at the barrier: after every shard-local event of the
        // slice, in the lane's own dispatch order.
        for (_key, fe) in slice.cross {
            if let FleetEvent::Rollup = fe {
                self.rollup(slice.time);
            }
        }
    }

    /// Route the events a city filed into its private calendar (during
    /// slice dispatch or `finish_segment`) into its shard.
    fn mount_followups(&mut self, idx: usize) {
        let Some(p) = self.cities.get_mut(idx) else {
            return;
        };
        let followups = p.drain_followups();
        let shard = self.city_shard.get(idx).copied().unwrap_or(0);
        for (key, ev) in followups {
            self.space.schedule(
                shard,
                key.time,
                key.priority,
                FleetEvent::City {
                    city: idx as u32,
                    ev,
                },
            );
        }
    }

    /// The cross-shard rollup: fold per-city health into fleet gauges and
    /// reschedule at the configured cadence. Reads every city (that is
    /// what makes it cross-shard); runs only at the slice barrier.
    fn rollup(&mut self, now: Timestamp) {
        let mut readings = 0u64;
        let mut stored = 0u64;
        let mut online = 0i64;
        let mut alarms = 0i64;
        for p in &self.cities {
            let st = p.stats();
            readings += st.readings;
            stored += st.points_stored;
            let snap = p.dataport.snapshot(now);
            online += snap
                .sensors
                .iter()
                .filter(|s| s.state == TwinState::Online)
                .count() as i64;
            alarms += p.dataport.active_alarms().len() as i64;
        }
        self.registry.gauge("fleet.readings").set(readings as i64);
        self.registry
            .gauge("fleet.points_stored")
            .set(stored as i64);
        self.registry.gauge("fleet.sensors_online").set(online);
        self.registry.gauge("fleet.active_alarms").set(alarms);
        if let Some(cadence) = self.config.rollup_cadence {
            self.space
                .schedule_cross(now + cadence, PRIO_TICK, FleetEvent::Rollup);
        }
    }

    /// Fleet-level metrics: the rollup gauges plus the sharded space's
    /// dispatch profile (`sim.shard<i>.dispatched`, `sim.cross_shard_events`,
    /// the slice-width histogram). Byte-identical across replays of the
    /// same fleet configuration.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot(self.clock.now());
        snap.push_gauge("fleet.cities", self.cities.len() as i64);
        self.space.publish(&mut snap);
        snap
    }

    /// Canonical rendering of the space's dispatch profile: per-shard
    /// dispatch counts, cross-lane count, and the slice-width histogram
    /// with percentile estimates. Byte-identical across replays.
    pub fn scheduling_profile(&self) -> String {
        self.space.render_profile()
    }

    /// Dissolve the fleet back into its pipelines (fleet order): every
    /// city's still-pending events are unmounted from the space and filed
    /// back into its private calendar, so a returned pipeline's solo
    /// `run_until` continues exactly where the fleet stopped. Cross-lane
    /// events (fleet rollups) belong to the fleet, not any city, and are
    /// dropped.
    pub fn into_pipelines(mut self) -> Vec<Pipeline> {
        let mut per_city: Vec<Vec<(EventKey, SimEvent)>> =
            (0..self.cities.len()).map(|_| Vec::new()).collect();
        for (_shard, events) in self.space.drain_shards() {
            for (key, fe) in events {
                if let FleetEvent::City { city, ev } = fe {
                    if let Some(bucket) = per_city.get_mut(city as usize) {
                        bucket.push((key, ev));
                    }
                }
            }
        }
        let _ = self.space.drain_cross();
        for (p, bucket) in self.cities.iter_mut().zip(per_city) {
            for (key, ev) in bucket {
                p.remount_event(key.time, key.priority, ev);
            }
        }
        self.cities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::deployment::Deployment;

    fn observables(p: &Pipeline) -> (String, String, crate::pipeline::PipelineStats, u64) {
        (
            p.ledger().render(),
            p.alarm_trace(),
            p.stats(),
            p.tsdb.stats().points,
        )
    }

    #[test]
    fn fleet_matches_solo_pipelines() {
        let build = || {
            vec![
                Pipeline::new(Deployment::vejle(), 7),
                Pipeline::new(Deployment::trondheim(), 7),
            ]
        };
        let end = Deployment::vejle().started + Span::hours(3);
        let mut solo = build();
        for p in &mut solo {
            p.run_until(end);
        }
        let mut fleet = Fleet::new(build());
        fleet.run_until(end);
        let back = fleet.into_pipelines();
        assert_eq!(back.len(), solo.len());
        for (f, s) in back.iter().zip(solo.iter()) {
            assert_eq!(observables(f), observables(s), "{}", f.deployment.city);
        }
    }

    #[test]
    fn into_pipelines_resumes_solo_exactly() {
        let end_a = Deployment::vejle().started + Span::hours(1);
        let end_b = Deployment::vejle().started + Span::hours(2);
        // Fleet for the first hour, solo for the second...
        let mut fleet = Fleet::new(vec![Pipeline::new(Deployment::vejle(), 42)]);
        fleet.run_until(end_a);
        let mut resumed = fleet.into_pipelines();
        for p in &mut resumed {
            p.run_until(end_b);
        }
        // ...must equal solo all the way.
        let mut solo = Pipeline::new(Deployment::vejle(), 42);
        solo.run_until(end_b);
        let r = resumed.first().expect("one city");
        assert_eq!(observables(r), observables(&solo));
    }

    #[test]
    fn rollup_maintains_fleet_gauges() {
        let mut fleet = Fleet::new(vec![
            Pipeline::new(Deployment::vejle(), 1),
            Pipeline::new(Deployment::trondheim(), 1),
        ]);
        fleet.run_until(Deployment::vejle().started + Span::hours(2));
        let snap = fleet.metrics_snapshot();
        assert_eq!(snap.value("fleet.cities"), Some(2));
        assert_eq!(snap.value("fleet.sensors_online"), Some(14));
        assert!(snap.value("fleet.readings").unwrap_or(0) > 0);
        assert!(snap.value("sim.cross_shard_events").unwrap_or(0) >= 2);
        let profile = fleet.scheduling_profile();
        assert!(profile.contains("slice_width"), "{profile}");
    }

    #[test]
    fn non_positive_rollup_cadence_disables_the_rollup() {
        // A rollup rescheduling itself at `now + 0` (or into the past) is
        // handed straight back by `pop_slice_until`, so `run_until` never
        // returns; the run goes on its own thread under a watchdog.
        for secs in [0, -300] {
            let (done, watchdog) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                let mut fleet = Fleet::with_config(
                    vec![Pipeline::new(Deployment::vejle(), 3)],
                    FleetConfig {
                        rollup_cadence: Some(Span::seconds(secs)),
                        ..FleetConfig::default()
                    },
                );
                fleet.run_until(Deployment::vejle().started + Span::minutes(10));
                let _ = done.send(fleet.metrics_snapshot().value("sim.cross_shard_events"));
            });
            let crossed = watchdog
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("run_until livelocked at cadence {secs}s"));
            assert_eq!(crossed, Some(0), "cadence {secs}s");
            runner.join().expect("runner thread");
        }
    }
}
