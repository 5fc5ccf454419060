//! # ctt-core — domain model of the CTT urban emission monitoring system
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * **Identity & time**: [`ids`] (DevEUI/gateway ids), [`time`]
//!   (UTC timestamps, civil calendar, aligned buckets), [`geo`]
//!   (WGS-84 positions, local projections), [`solar`] (sun elevation and
//!   irradiance for the charging model).
//! * **Quantities**: [`quantity`] (CO2/NO2/PMx/T/P/RH/battery), [`units`]
//!   (ppm ↔ µg/m³ conversions), [`aqi`] (European CAQI).
//! * **Records**: [`measurement`] (readings, flattened measurements, series)
//!   and [`payload`] (the 18-byte binary LoRa uplink codec).
//! * **Physical models**: [`weather`], [`traffic`], and [`emission`] — the
//!   deterministic, seedable synthetic "reality" the pilots observe — plus
//!   [`battery`] and [`node`] for the autonomous solar sensor units, and
//!   [`scenario`] for synthetic pollution injection.
//! * **Pilots**: [`deployment`] — the Trondheim (12-node) and Vejle (2-node)
//!   configurations and the paper's cost model.
//!
//! Everything is deterministic given explicit seeds; nothing here performs
//! I/O. Reproduces the domain layer of *"Analysis and Visualization of
//! Urban Emission Measurements in Smart Cities"* (Ahlers et al., EDBT 2018).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod aqi;
pub mod battery;
pub mod deployment;
pub mod emission;
pub mod geo;
pub mod ids;
pub mod measurement;
pub mod node;
pub mod payload;
pub mod quantity;
pub mod scenario;
pub mod solar;
pub mod time;
pub mod traffic;
pub mod units;
pub mod weather;

pub use aqi::{caqi, AqiBand, Caqi};
pub use battery::{AdaptivePolicy, Battery, BatteryConfig};
pub use deployment::{CostModel, Deployment};
pub use emission::{EmissionModel, Pollution, Site};
pub use geo::{BoundingBox, LatLon, LocalProjection};
pub use ids::{DevEui, GatewayId};
pub use measurement::{Measurement, QualityFlag, SensorReading, Series};
pub use node::{NodeHealth, SensorNode, SensorSpec};
pub use quantity::{Pollutant, Quantity};
pub use scenario::{Injection, ScenarioKind, ScenarioSet};
pub use time::{Span, TimeRange, Timestamp, Weekday};
pub use traffic::{RoadClass, TrafficModel};
pub use weather::{Climate, WeatherModel, WeatherSample};
