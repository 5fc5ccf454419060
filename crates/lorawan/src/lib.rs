//! # ctt-lorawan — discrete-event LoRaWAN network simulator
//!
//! The CTT pilots transport sensor data over LoRaWAN gateways (§2.1). This
//! crate reproduces that backbone as a deterministic simulator:
//!
//! * [`region`] — EU868 spreading factors, data rates, channels, limits.
//! * [`airtime`] — Semtech time-on-air formula.
//! * [`propagation`] — urban log-distance path loss with per-link shadowing
//!   and per-transmission fading.
//! * [`frame`] — simplified LoRaWAN uplink frame with CRC32 MIC.
//! * [`dutycycle`] — 1% duty-cycle enforcement.
//! * [`adr`] — network-side adaptive data rate + device-side link backoff.
//! * [`sim`] — the event-driven radio simulator: sensitivity, collisions,
//!   capture effect, gateway demodulator limits, loss attribution.
//! * [`server`] — network server: dedup, frame-counter gap accounting, ADR.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod adr;
pub mod airtime;
pub mod dutycycle;
pub mod frame;
pub mod propagation;
pub mod region;
pub mod server;
pub mod sim;

pub use adr::{AdrCommand, AdrEngine, LinkBackoff};
pub use airtime::{
    collision_horizon, max_uplink_airtime_s, time_on_air_s, AirtimeParams, LORAWAN_OVERHEAD_BYTES,
};
pub use dutycycle::DutyCycleTracker;
pub use frame::{FrameError, UplinkFrame};
pub use propagation::{link_budget, LinkBudget, PathLossModel, StaticLink};
pub use region::{Channel, DataRate, Region, SpreadingFactor};
pub use server::{NetworkServer, UplinkRecord};
pub use sim::{
    DeliveredUplink, GatewayConfig, LossReason, LostUplink, RadioSimulator, Reception, SimConfig,
    SimStats, TxRequest,
};
