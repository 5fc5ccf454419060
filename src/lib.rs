//! # ctt — Carbon Track & Trace: urban emission monitoring in Smart Cities
//!
//! A full Rust reproduction of *"Analysis and Visualization of Urban
//! Emission Measurements in Smart Cities"* (Ahlers et al., EDBT 2018): an
//! ecosystem for collecting, integrating, analyzing and visualizing
//! real-time air quality data from low-cost IoT sensors.
//!
//! The [`Pipeline`] assembles the architecture of the paper's Fig. 1:
//!
//! ```text
//! sensor nodes → LoRaWAN radio sim → network server (dedup/ADR)
//!      → MQTT broker → time-series DB + dataport (digital twins, alarms)
//!      → analytics → SVG dashboards / maps / 3D city model
//! ```
//!
//! Quick start:
//!
//! ```
//! use ctt::prelude::*;
//! use ctt::tsdb::Query;
//!
//! let mut pipeline = Pipeline::new(Deployment::vejle(), 42);
//! let start = pipeline.deployment.started;
//! pipeline.run_until(start + Span::hours(1));
//! assert!(pipeline.stats().delivered > 0);
//!
//! // The city's dashboards read its store through one served query, which
//! // answers exactly as the uncached raw-decode oracle does.
//! let co2 = Query::range(
//!     Quantity::Pollutant(Pollutant::Co2).metric_name(),
//!     start,
//!     start + Span::hours(1),
//! )
//! .with_tag("city", "vejle");
//! let served = pipeline.query(&co2);
//! assert!(served.iter().any(|r| !r.series.is_empty()));
//! assert_eq!(served, pipeline.query_raw(&co2));
//! ```
//!
//! The sub-crates are re-exported: [`core`](ctt_core), [`lorawan`](ctt_lorawan),
//! [`broker`](ctt_broker), [`tsdb`](ctt_tsdb), [`dataport`](ctt_dataport),
//! [`integration`](ctt_integration), [`analytics`](ctt_analytics),
//! [`citymodel`](ctt_citymodel), [`viz`](ctt_viz).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod fleet;
pub mod pipeline;

pub use ctt_analytics as analytics;
pub use ctt_broker as broker;
pub use ctt_chaos as chaos;
pub use ctt_citymodel as citymodel;
pub use ctt_core as core;
pub use ctt_dataport as dataport;
pub use ctt_integration as integration;
pub use ctt_lorawan as lorawan;
pub use ctt_obs as obs;
pub use ctt_sim as sim;
pub use ctt_tsdb as tsdb;
pub use ctt_viz as viz;

pub use fleet::{Fleet, FleetConfig};
pub use pipeline::{Pipeline, PipelineStats};

/// Commonly used items for examples and applications.
pub mod prelude {
    pub use crate::fleet::{Fleet, FleetConfig};
    pub use crate::pipeline::{Pipeline, PipelineStats};
    pub use ctt_core::deployment::Deployment;
    pub use ctt_core::ids::{DevEui, GatewayId};
    pub use ctt_core::measurement::{SensorReading, Series};
    pub use ctt_core::quantity::{Pollutant, Quantity};
    pub use ctt_core::scenario::{Injection, ScenarioKind, ScenarioSet};
    pub use ctt_core::time::{Span, TimeRange, Timestamp};
}
