//! # ctt-analytics — data analyses on the measurement streams (§2.4)
//!
//! "A range of analyses work on the collected data streams": this crate
//! implements them.
//!
//! * [`stats`] — descriptive statistics, quantiles, MAD, rolling windows.
//! * [`regression`] — OLS linear fits and error metrics.
//! * [`correlate`] — Pearson/Spearman, lagged cross-correlation, and the
//!   qualitative verdict scale used in Fig. 5.
//! * [`outlier`] — z-score/MAD/Hampel detectors, ingest validation, and
//!   reference-relative sensor drift estimation.
//! * [`impute`] — gap detection, completeness, LOCF/linear/diurnal fills.
//! * [`calibrate`] — co-located calibration with held-out before/after
//!   accuracy (absolute and relative).
//! * [`battery`] — the Fig. 4 battery analysis (deltas vs time of day with
//!   sunlight attribution, depletion estimation).
//! * [`dynamics`] — the Fig. 5 CO2-vs-traffic study.
//! * [`patterns`] — diurnal/weekly/seasonal patterns and anomalous-day
//!   browsing.
//! * [`spatial`] — pollution-surface interpolation (IDW) and Gaussian-plume
//!   dispersion (the paper's §4 "distribution and dispersion" future work).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod battery;
pub mod calibrate;
pub mod correlate;
pub mod dynamics;
pub mod impute;
pub mod outlier;
pub mod patterns;
pub mod regression;
pub mod spatial;
pub mod stats;

pub use battery::{analyze_battery, BatteryAnalysis, BatteryDelta};
pub use calibrate::{
    accuracy, calibrate_and_evaluate, fit_calibration, AccuracyMetrics, Calibration,
    CalibrationReport,
};
pub use correlate::{best_lag, cross_correlation, pearson, spearman, CorrelationVerdict};
pub use dynamics::{diurnal_profile, study, DynamicsStudy};
pub use impute::{completeness, find_gaps, impute, Gap, ImputeMethod};
pub use outlier::{hampel_outliers, mad_outliers};
pub use patterns::{anomalous_days, daily_means, monthly_means, DayScore};
pub use regression::{linear_fit, LinearFit};
pub use spatial::{idw_surface, GaussianPlume, SpatialSample, Stability, Surface};
pub use stats::{mean, median, quantile, std_dev, summary, Summary};
