//! # ctt-viz — SVG visualizations (Figs. 3–8)
//!
//! "Visualizations and analyses are connected to all stages of the data
//! processing" (§2.1). This crate renders every figure class the paper
//! shows, as standalone SVG:
//!
//! * [`svg`] — the SVG document builder (the only place SVG syntax lives).
//! * [`scale`] — linear/time scales with nice ticks.
//! * [`color`] — categorical palette, sequential ramps, shading.
//! * [`chart`] — time-series line charts and category scatter plots
//!   (Figs. 4–5).
//! * [`map`] — geographic markers and network links (Figs. 3, 6).
//! * [`dashboard`] — grid dashboards, stat tiles, alarm lists (Figs. 6, 8).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod chart;
pub mod color;
pub mod dashboard;
pub mod heatmap;
pub mod map;
pub mod scale;
pub mod svg;

pub use chart::{LineChart, ScatterChart};
pub use dashboard::{AlarmList, Dashboard, StatTile};
pub use heatmap::Heatmap;
pub use map::{Link, MapView, Marker, MarkerKind};
pub use scale::{LinearScale, TimeScale};
pub use svg::{Anchor, Canvas};
