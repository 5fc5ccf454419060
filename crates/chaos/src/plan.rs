//! Fault plans and the chaos engine that interprets them.
//!
//! A [`FaultPlan`] is data, not behavior: a time-ordered list of typed
//! faults with activity windows. The [`ChaosEngine`] is the interpreter the
//! pipeline consults at each stage boundary ("is this node dead now?",
//! "should this frame be corrupted?"). Injection decisions that need
//! randomness (which bit to flip, where to truncate) come from a seeded
//! SplitMix64 stream, so a given seed + plan replays exactly.

use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::rng::SplitMix64;
use ctt_core::time::{Span, Timestamp};
use ctt_lorawan::sim::{LossReason, OutageWindow};

/// A typed fault to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The gateway hears nothing during the window.
    GatewayOutage {
        /// The gateway taken down.
        gateway: GatewayId,
    },
    /// Hard node death: the node produces nothing during the window.
    NodeDeath {
        /// The device that dies.
        device: DevEui,
    },
    /// The node's battery telemetry sticks at a fixed level.
    BatteryStuck {
        /// The affected device.
        device: DevEui,
        /// The stuck reading, percent.
        level_pct: f64,
    },
    /// Frames from the device are corrupted (random bit flip) on the air
    /// interface; the gateway CRC check drops them.
    FrameCorruption {
        /// The affected device.
        device: DevEui,
    },
    /// Frames from the device are truncated in transit.
    FrameTruncation {
        /// The affected device.
        device: DevEui,
    },
    /// The storage consumer stalls: nothing is drained from the broker
    /// queue during the window (QoS1 traffic defers, then recovers).
    BrokerStall,
    /// Flip one bit of one sealed TSDB chunk at the window start.
    TsdbBitFlip {
        /// Which sealed chunk (modulo the chunk count at injection time).
        nth_chunk: u64,
        /// Which bit of its bitstream (modulo the stream length).
        bit: u64,
    },
    /// The node's clock drifts: stored timestamps are offset.
    ClockSkew {
        /// The affected device.
        device: DevEui,
        /// The skew applied to stored timestamps.
        offset: Span,
    },
    /// Application-layer traffic spike: every accepted uplink fans out into
    /// `factor` publishes at the messaging backbone during the window
    /// (replay storm / firmware burst), stressing broker and storage
    /// without the radio's duty cycle masking the overload.
    TrafficSpike {
        /// Publish multiplier (×1 means no amplification).
        factor: u32,
    },
}

impl FaultKind {
    /// Stable discriminant label, used for distinct-fault counting.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::GatewayOutage { .. } => "gateway-outage",
            FaultKind::NodeDeath { .. } => "node-death",
            FaultKind::BatteryStuck { .. } => "battery-stuck",
            FaultKind::FrameCorruption { .. } => "frame-corruption",
            FaultKind::FrameTruncation { .. } => "frame-truncation",
            FaultKind::BrokerStall => "broker-stall",
            FaultKind::TsdbBitFlip { .. } => "tsdb-bit-flip",
            FaultKind::ClockSkew { .. } => "clock-skew",
            FaultKind::TrafficSpike { .. } => "traffic-spike",
        }
    }
}

/// One scheduled fault: a kind active in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Activity start (inclusive).
    pub from: Timestamp,
    /// Activity end (exclusive). Instantaneous faults (bit flips) fire
    /// once at `from` regardless of `until`.
    pub until: Timestamp,
}

impl Fault {
    /// Whether the fault is active at `t`.
    pub fn active_at(&self, t: Timestamp) -> bool {
        self.from <= t && t < self.until
    }
}

/// Bridge admission-control knobs: a deterministic per-gateway token
/// bucket refilled in logical time. Plain numbers here — the broker crate
/// owns the bucket implementation; chaos plans only carry configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Burst capacity: publishes admitted instantly from a full bucket.
    pub burst: u32,
    /// Sustained refill rate, tokens per hour of logical time.
    pub refill_per_hour: u32,
    /// Publishes held back (deferred) per gateway before shedding starts.
    pub defer_cap: usize,
}

/// A deterministic, time-ordered schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub faults: Vec<Fault>,
    /// Override for the storage subscriber's broker queue capacity; small
    /// values make broker stalls actually defer QoS1 traffic. 0 means 1.
    pub storage_queue_capacity: Option<usize>,
    /// Override for the storage consumer's per-dispatch drain batch; small
    /// values stretch backlog across scheduled drain events instead of one
    /// long tick.
    pub drain_batch: Option<usize>,
    /// Cap on the storage subscriber's in-flight/deferred QoS1 store; past
    /// it, overflow is shed as `Lost(Backpressure)`. 0 means 1.
    pub storage_inflight_cap: Option<usize>,
    /// Bridge admission control (per-gateway token bucket), if enabled.
    pub admission: Option<AdmissionConfig>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a fault active in `[from, until)` (builder style).
    pub fn with(mut self, kind: FaultKind, from: Timestamp, until: Timestamp) -> Self {
        self.faults.push(Fault { kind, from, until });
        self
    }

    /// Add an instantaneous fault at `at` (builder style).
    pub fn at(self, kind: FaultKind, at: Timestamp) -> Self {
        self.with(kind, at, at)
    }

    /// Constrain the storage subscriber queue (builder style).
    pub fn with_storage_queue(mut self, capacity: usize) -> Self {
        self.storage_queue_capacity = Some(capacity);
        self
    }

    /// Bound the storage consumer's per-dispatch drain batch (builder
    /// style).
    pub fn with_drain_batch(mut self, batch: usize) -> Self {
        self.drain_batch = Some(batch);
        self
    }

    /// Cap the storage subscriber's in-flight/deferred store (builder
    /// style).
    pub fn with_storage_inflight_cap(mut self, cap: usize) -> Self {
        self.storage_inflight_cap = Some(cap);
        self
    }

    /// Enable bridge admission control (builder style).
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Number of distinct fault kinds in the plan.
    pub fn distinct_kinds(&self) -> usize {
        let mut labels: Vec<&'static str> = self.faults.iter().map(|f| f.kind.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }
}

/// Why an accepted-or-produced uplink never became stored points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CauseCode {
    /// Radio: duty-cycle refusal at the node.
    RadioDutyCycle,
    /// Radio: no gateway in range.
    RadioNoCoverage,
    /// Radio: destroyed by a collision.
    RadioCollision,
    /// Radio: gateway demodulator exhaustion.
    RadioGatewayBusy,
    /// Injected fault: every reachable gateway was in an outage window.
    GatewayOutage,
    /// Injected fault: frame corrupted on the air interface (CRC drop).
    FrameCorrupted,
    /// Injected fault: frame truncated in transit.
    FrameTruncated,
    /// Network server discarded the frame as a duplicate.
    ServerDuplicate,
    /// Payload failed to decode at the storage consumer.
    DecodeError,
    /// Shed by backpressure: broker subscriber cap or bridge admission
    /// control dropped the publish under overload. (Appended last so
    /// existing `Ord`-derived render orders are unchanged.)
    Backpressure,
}

impl CauseCode {
    /// Map a radio-level loss reason to a ledger cause.
    pub fn from_loss(reason: LossReason) -> CauseCode {
        match reason {
            LossReason::DutyCycle => CauseCode::RadioDutyCycle,
            LossReason::NoCoverage => CauseCode::RadioNoCoverage,
            LossReason::Collision => CauseCode::RadioCollision,
            LossReason::GatewayBusy => CauseCode::RadioGatewayBusy,
            LossReason::GatewayDown => CauseCode::GatewayOutage,
        }
    }

    /// Stable label used in the rendered ledger.
    pub fn label(&self) -> &'static str {
        match self {
            CauseCode::RadioDutyCycle => "radio-duty-cycle",
            CauseCode::RadioNoCoverage => "radio-no-coverage",
            CauseCode::RadioCollision => "radio-collision",
            CauseCode::RadioGatewayBusy => "radio-gateway-busy",
            CauseCode::GatewayOutage => "gateway-outage",
            CauseCode::FrameCorrupted => "frame-corrupted",
            CauseCode::FrameTruncated => "frame-truncated",
            CauseCode::ServerDuplicate => "server-duplicate",
            CauseCode::DecodeError => "decode-error",
            CauseCode::Backpressure => "backpressure",
        }
    }
}

/// What to do to one frame on the air interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Flip this bit of the encoded frame.
    CorruptBit {
        /// Bit index (modulo the frame length at injection time).
        bit: u64,
    },
    /// Keep only the first `keep` bytes.
    Truncate {
        /// Bytes to keep (modulo the frame length at injection time).
        keep: u64,
    },
}

/// Counters for what the engine actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Frames corrupted on the air interface.
    pub corrupted_frames: u64,
    /// Frames truncated in transit.
    pub truncated_frames: u64,
    /// TSDB bit flips applied.
    pub bitflips: u64,
}

/// The seeded interpreter of a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct ChaosEngine {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Parallel to `plan.faults`: whether an instantaneous fault fired.
    fired: Vec<bool>,
    injected: InjectionStats,
}

impl ChaosEngine {
    /// Build an engine for `plan`, seeded for deterministic injection.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        let fired = vec![false; plan.faults.len()];
        ChaosEngine {
            plan,
            // Offset so seed 0 still produces a lively stream.
            rng: SplitMix64::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            fired,
            injected: InjectionStats::default(),
        }
    }

    /// The plan being interpreted.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What has been injected so far.
    pub fn injected(&self) -> InjectionStats {
        self.injected
    }

    /// All gateway outage windows in the plan, for
    /// [`ctt_lorawan::sim::RadioSimulator::set_outages`].
    pub fn outage_windows(&self) -> Vec<OutageWindow> {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::GatewayOutage { gateway } => Some(OutageWindow {
                    gateway,
                    from: f.from,
                    until: f.until,
                }),
                _ => None,
            })
            .collect()
    }

    /// Devices with any scheduled [`FaultKind::NodeDeath`] window.
    pub fn death_devices(&self) -> Vec<DevEui> {
        let mut devs: Vec<DevEui> = self
            .plan
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::NodeDeath { device } => Some(device),
                _ => None,
            })
            .collect();
        devs.sort_unstable();
        devs.dedup();
        devs
    }

    /// Whether a death fault is active for `device` at `t`.
    pub fn death_active(&self, device: DevEui, t: Timestamp) -> bool {
        self.plan.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::NodeDeath { device: d } if d == device) && f.active_at(t)
        })
    }

    /// The stuck battery level for `device` at `t`, if any.
    pub fn battery_override(&self, device: DevEui, t: Timestamp) -> Option<f64> {
        self.plan.faults.iter().find_map(|f| match f.kind {
            FaultKind::BatteryStuck {
                device: d,
                level_pct,
            } if d == device && f.active_at(t) => Some(level_pct),
            _ => None,
        })
    }

    /// The clock skew applied to `device` at `t`, if any.
    pub fn clock_skew(&self, device: DevEui, t: Timestamp) -> Option<Span> {
        self.plan.faults.iter().find_map(|f| match f.kind {
            FaultKind::ClockSkew { device: d, offset } if d == device && f.active_at(t) => {
                Some(offset)
            }
            _ => None,
        })
    }

    /// The traffic-spike publish multiplier active at `t`, if any.
    /// Overlapping windows take the largest factor; ×0 and ×1 windows mean
    /// no amplification and report `None`.
    pub fn traffic_spike_factor(&self, t: Timestamp) -> Option<u32> {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::TrafficSpike { factor } if f.active_at(t) && factor > 1 => Some(factor),
                _ => None,
            })
            .max()
    }

    /// Whether the storage consumer is stalled at `t`.
    pub fn broker_stalled(&self, t: Timestamp) -> bool {
        self.plan
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::BrokerStall) && f.active_at(t))
    }

    /// The air-interface fault to apply to a frame from `device` at `t`,
    /// if any. Consumes seeded randomness, so call order matters — the
    /// pipeline calls this exactly once per produced frame of an affected
    /// device.
    pub fn frame_fault(&mut self, device: DevEui, t: Timestamp) -> Option<FrameFault> {
        let mut corrupt = false;
        let mut truncate = false;
        for f in &self.plan.faults {
            if !f.active_at(t) {
                continue;
            }
            match f.kind {
                FaultKind::FrameCorruption { device: d } if d == device => corrupt = true,
                FaultKind::FrameTruncation { device: d } if d == device => truncate = true,
                _ => {}
            }
        }
        if corrupt {
            self.injected.corrupted_frames += 1;
            let bit = self.rng.next_u64();
            Some(FrameFault::CorruptBit { bit })
        } else if truncate {
            self.injected.truncated_frames += 1;
            let keep = self.rng.next_u64();
            Some(FrameFault::Truncate { keep })
        } else {
            None
        }
    }

    /// Every instant at which the engine's windowed state changes and the
    /// driving loop must re-evaluate it: node-death window edges (both
    /// `from` and `until`) and TSDB bit-flip fire times. Sorted and
    /// deduplicated — the event loop schedules one chaos-transition event
    /// per instant instead of polling the engine at every node event.
    /// (Per-frame faults, stuck batteries, clock skew, broker stalls, and
    /// gateway outages are consulted inline where they apply and need no
    /// transition events.)
    pub fn transition_times(&self) -> Vec<Timestamp> {
        let mut times: Vec<Timestamp> = Vec::new();
        for f in &self.plan.faults {
            match f.kind {
                FaultKind::NodeDeath { .. } => {
                    times.push(f.from);
                    times.push(f.until);
                }
                FaultKind::TsdbBitFlip { .. } => times.push(f.from),
                _ => {}
            }
        }
        times.sort_unstable();
        times.dedup();
        times
    }

    /// Instantaneous TSDB bit flips due at or before `now` that have not
    /// fired yet. Each fires exactly once.
    pub fn due_bitflips(&mut self, now: Timestamp) -> Vec<(u64, u64)> {
        let mut due = Vec::new();
        for (i, f) in self.plan.faults.iter().enumerate() {
            if let FaultKind::TsdbBitFlip { nth_chunk, bit } = f.kind {
                let fired = self.fired.get(i).copied().unwrap_or(true);
                if !fired && f.from <= now {
                    if let Some(flag) = self.fired.get_mut(i) {
                        *flag = true;
                    }
                    due.push((nth_chunk, bit));
                }
            }
        }
        self.injected.bitflips += due.len() as u64;
        due
    }
}

impl ctt_sim::Schedulable for ChaosEngine {
    /// The first windowed-state transition at or after `now`, if any.
    fn next_event(&self, now: Timestamp) -> Option<Timestamp> {
        self.transition_times().into_iter().find(|&t| t >= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: DevEui = DevEui(7);
    const GW: GatewayId = GatewayId(1);

    fn plan() -> FaultPlan {
        FaultPlan::new()
            .with(
                FaultKind::GatewayOutage { gateway: GW },
                Timestamp(100),
                Timestamp(200),
            )
            .with(
                FaultKind::NodeDeath { device: DEV },
                Timestamp(50),
                Timestamp(150),
            )
            .with(
                FaultKind::BatteryStuck {
                    device: DEV,
                    level_pct: 55.0,
                },
                Timestamp(0),
                Timestamp(1000),
            )
            .at(
                FaultKind::TsdbBitFlip {
                    nth_chunk: 3,
                    bit: 17,
                },
                Timestamp(300),
            )
    }

    #[test]
    fn windows_and_queries() {
        let e = ChaosEngine::new(42, plan());
        assert_eq!(e.outage_windows().len(), 1);
        assert_eq!(e.death_devices(), vec![DEV]);
        assert!(e.death_active(DEV, Timestamp(50)));
        assert!(!e.death_active(DEV, Timestamp(150)), "until is exclusive");
        assert_eq!(e.battery_override(DEV, Timestamp(10)), Some(55.0));
        assert_eq!(e.battery_override(DevEui(9), Timestamp(10)), None);
        assert!(!e.broker_stalled(Timestamp(10)));
        assert_eq!(e.plan().distinct_kinds(), 4);
    }

    #[test]
    fn bitflips_fire_once() {
        let mut e = ChaosEngine::new(42, plan());
        assert!(e.due_bitflips(Timestamp(299)).is_empty());
        assert_eq!(e.due_bitflips(Timestamp(300)), vec![(3, 17)]);
        assert!(e.due_bitflips(Timestamp(301)).is_empty());
        assert_eq!(e.injected().bitflips, 1);
    }

    #[test]
    fn frame_faults_deterministic() {
        let p = FaultPlan::new().with(
            FaultKind::FrameCorruption { device: DEV },
            Timestamp(0),
            Timestamp(100),
        );
        let mut a = ChaosEngine::new(7, p.clone());
        let mut b = ChaosEngine::new(7, p.clone());
        for t in 0..10 {
            assert_eq!(
                a.frame_fault(DEV, Timestamp(t)),
                b.frame_fault(DEV, Timestamp(t))
            );
        }
        assert_eq!(a.injected().corrupted_frames, 10);
        // Different seed, different bits.
        let mut c = ChaosEngine::new(8, p);
        assert_ne!(
            a.frame_fault(DEV, Timestamp(50)),
            c.frame_fault(DEV, Timestamp(50))
        );
    }

    #[test]
    fn traffic_spike_window_takes_largest_factor() {
        let p = FaultPlan::new()
            .with(
                FaultKind::TrafficSpike { factor: 100 },
                Timestamp(100),
                Timestamp(200),
            )
            .with(
                FaultKind::TrafficSpike { factor: 10 },
                Timestamp(150),
                Timestamp(300),
            )
            .with(
                FaultKind::TrafficSpike { factor: 1 },
                Timestamp(400),
                Timestamp(500),
            );
        let e = ChaosEngine::new(1, p);
        assert_eq!(e.traffic_spike_factor(Timestamp(99)), None);
        assert_eq!(e.traffic_spike_factor(Timestamp(150)), Some(100));
        assert_eq!(e.traffic_spike_factor(Timestamp(250)), Some(10));
        assert_eq!(
            e.traffic_spike_factor(Timestamp(450)),
            None,
            "×1 is a no-op"
        );
    }

    #[test]
    fn cause_code_mapping() {
        assert_eq!(
            CauseCode::from_loss(LossReason::GatewayDown),
            CauseCode::GatewayOutage
        );
        assert_eq!(CauseCode::GatewayOutage.label(), "gateway-outage");
    }
}
