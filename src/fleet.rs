//! Multi-city fleet: every pilot runs its own [`Pipeline::run_until`],
//! stepped together to each fleet rollup instant.
//!
//! Cities share no state — each owns its nodes, gateways, broker, store,
//! dataport and event calendar — so a fleet is its cities plus the one
//! thing that reads across them: the rollup. [`Fleet::run_until`] stops
//! every city at each rollup instant on the way to `end`, folds the fleet
//! gauges there, and carries on; every city reaches `end` exactly once.
//!
//! # Reading rule
//!
//! A rollup at `r` reads every city as `run_until(r)` leaves it: ticks and
//! radio deadlines at `r` have run, chaos transitions and transmissions at
//! `r` have not. The rule is the same whether `r` is mid-segment or equal
//! to `end`.
//!
//! # Fleet ≡ solo
//!
//! A city in a fleet is byte-identical (ledger, alarm trace, stats, TSDB,
//! full metrics snapshot) to the same city driven solo through the same
//! boundaries: the caller's ends plus the rollup instants. The
//! `fleet_identity` suite pins it.

use crate::pipeline::Pipeline;
use ctt_core::time::{Span, Timestamp};
use ctt_dataport::TwinState;
use ctt_obs::{Registry, Snapshot};
use ctt_sim::SimClock;

/// How a [`Fleet`] runs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// No effect — kept only because `benchmark/` names it. Every city
    /// runs its own calendar.
    pub shards: usize,
    /// No effect — kept only because `benchmark/` names it. Cities run on
    /// the calling thread, in fleet order.
    pub parallel: bool,
    /// Cadence of the fleet rollup (`None`, or a non-positive span,
    /// disables).
    pub rollup_cadence: Option<Span>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            parallel: true,
            rollup_cadence: Some(Span::hours(1)),
        }
    }
}

/// A set of city pipelines stepped together to each rollup instant. See
/// the module docs for the reading rule and the fleet ≡ solo contract.
#[derive(Debug)]
pub struct Fleet {
    cities: Vec<Pipeline>,
    config: FleetConfig,
    /// The next rollup instant, if the rollup is enabled.
    next_rollup: Option<Timestamp>,
    /// Fleet time: the last instant every city was run to.
    clock: SimClock,
    /// Fleet-level gauges the rollup maintains.
    registry: Registry,
}

impl Fleet {
    /// A fleet with the default configuration.
    pub fn new(pipelines: Vec<Pipeline>) -> Self {
        Fleet::with_config(pipelines, FleetConfig::default())
    }

    /// A fleet with an explicit [`FleetConfig`]. The first rollup is one
    /// cadence after the earliest city's clock.
    pub fn with_config(pipelines: Vec<Pipeline>, mut config: FleetConfig) -> Self {
        // A cadence of zero or less would never leave the current instant.
        config.rollup_cadence = config.rollup_cadence.filter(|c| *c > Span::seconds(0));
        let start = pipelines
            .iter()
            .map(Pipeline::now)
            .min()
            .unwrap_or(Timestamp(0));
        let registry = Registry::new();
        // Registered up front so the snapshot reads 0 while no rollup ran.
        registry.counter("fleet.rollups");
        Fleet {
            cities: pipelines,
            config,
            next_rollup: config.rollup_cadence.map(|c| start + c),
            clock: SimClock::new(start),
            registry,
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

    /// Fleet time (the last instant every city was run to).
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

    /// Advance every city to `end`, stopping all of them at each rollup
    /// instant `≤ end` to fold the fleet gauges there.
    pub fn run_until(&mut self, end: Timestamp) {
        loop {
            let rollup = self.next_rollup.filter(|r| *r <= end);
            let stop = rollup.unwrap_or(end);
            for p in &mut self.cities {
                p.run_until(stop);
            }
            self.clock.advance(stop);
            if let Some(r) = rollup {
                self.rollup(r);
            }
            if stop == end {
                break;
            }
        }
    }

    /// Fold per-city health into the fleet gauges at `now` and move the
    /// next rollup one cadence on.
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
            alarms += snap.active_alarms.len() as i64;
        }
        self.registry.counter("fleet.rollups").inc();
        self.registry.gauge("fleet.readings").set(readings as i64);
        self.registry
            .gauge("fleet.points_stored")
            .set(stored as i64);
        self.registry.gauge("fleet.sensors_online").set(online);
        self.registry.gauge("fleet.active_alarms").set(alarms);
        self.next_rollup = self.config.rollup_cadence.map(|c| now + c);
    }

    /// Fleet-level metrics: `fleet.cities`, the `fleet.rollups` counter and
    /// the rollup gauges. Byte-identical across replays of the same fleet.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot(self.clock.now());
        snap.push_gauge("fleet.cities", self.cities.len() as i64);
        snap
    }

    /// Dissolve the fleet back into its pipelines (fleet order). Each
    /// city's calendar never left it, so a returned pipeline's solo
    /// `run_until` continues exactly where the fleet stopped.
    pub fn into_pipelines(self) -> Vec<Pipeline> {
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
        assert_eq!(snap.value("fleet.rollups"), Some(2));
    }

    #[test]
    fn non_positive_rollup_cadence_disables_the_rollup() {
        // A rollup rescheduling itself at `now + 0` (or into the past)
        // would stop the cities at the same instant forever, so
        // `run_until` would never return; the run goes on its own thread
        // under a watchdog.
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
                let _ = done.send(fleet.metrics_snapshot().value("fleet.rollups"));
            });
            let rollups = watchdog
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("run_until livelocked at cadence {secs}s"));
            assert_eq!(rollups, Some(0), "cadence {secs}s");
            runner.join().expect("runner thread");
        }
    }
}
