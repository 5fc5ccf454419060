//! # ctt-dataport — actor-based network monitoring ("the dataport")
//!
//! Reproduces §2.3 of the paper: a fault-tolerant monitoring application
//! built on the actor model, in which every sensor and gateway has a
//! supervised digital-twin actor tracking its real-time state, raising
//! alarms when data stops arriving as expected, and grouping failures
//! hierarchically (sensor failure vs. a gateway outage that makes a set of
//! sensors invisible).
//!
//! * [`actor`] — deterministic supervised actor runtime (mailboxes,
//!   supervision strategies, hierarchy, lifecycle events). It is typed: a
//!   system hosts one actor type with one message type, and a message an
//!   actor has no arm for is a fault that its supervisor handles.
//! * [`twin`] — sensor/gateway digital-twin state machines, including the
//!   battery-adaptive expected-interval failure detector.
//! * [`alarm`] — severity-ranked alarm bus with raise/clear dedup.
//! * [`protocol`] — the Fig. 2 eight-stage data-path trace.
//! * [`watchdog`] — the external AppBeat-style liveness watchdog.
//! * [`dataport`] — the assembled service and its network snapshot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod actor;
pub mod alarm;
pub mod dataport;
pub mod protocol;
pub mod twin;
pub mod watchdog;

pub use actor::{Actor, ActorRef, ActorSystem, Fault, LifecycleEvent, SupervisorStrategy};
pub use alarm::{Alarm, AlarmBus, AlarmKind, Severity};
pub use dataport::{Dataport, DataportConfig, GatewayStatus, NetworkSnapshot, SensorStatus};
pub use protocol::{ProtocolTrace, Stage, StageRecord};
pub use twin::{GatewayState, GatewayTwin, SensorTwin, SensorTwinConfig, TwinEvent, TwinState};
pub use watchdog::{Watchdog, WatchdogVerdict};
