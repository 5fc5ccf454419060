//! # ctt-integration — external data sources and harmonization (Table 1)
//!
//! §2.2 of the paper integrates "a range of municipal and national data
//! sets ... as well as other external data sources" into the analytics.
//! This crate provides simulated-but-faithful versions of every Table 1
//! source plus the harmonization machinery that makes them joinable:
//!
//! * [`source`] — Table 1 metadata (kind, resolution, uncertainty class).
//! * [`nilu`] — official reference station (hourly validated means).
//! * [`oco2`] — satellite CO2 columns: 16-day revisit, coarse footprints,
//!   cloud dropouts, column dilution.
//! * [`traffic_feed`] — here.com-style jam-factor feed with API outages.
//! * [`municipal`] — short counting campaigns + downscaled national GHG
//!   inventory with per-sector uncertainty.
//! * [`harmonize`] — resampling onto common grids, timestamp joins,
//!   nearest-sensor spatial joins, uncertainty propagation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod harmonize;
pub mod municipal;
pub mod nilu;
pub mod oco2;
pub mod source;
pub mod traffic_feed;

pub use harmonize::{nearest, resample, ResampleMethod, Uncertain};
pub use municipal::{CountingCampaign, DownscaledEmission, NationalInventory, Sector};
pub use nilu::NiluStation;
pub use oco2::{Oco2, Sounding};
pub use source::{info, SourceInfo, SourceKind, UncertaintyClass};
pub use traffic_feed::{JamObservation, TrafficFeed};
