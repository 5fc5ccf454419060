//! Shared workload builders for the benchmarks and the figure-regeneration
//! harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use ctt_core::aqi::AqiBand;
use ctt_core::deployment::Deployment;
use ctt_core::geo::LatLon;
use ctt_core::measurement::Series;
use ctt_core::quantity::Quantity;
use ctt_core::time::{Span, TimeRange, Timestamp};
use ctt_tsdb::{DataPoint, ShardedTsdb, Tsdb};
use ctt_viz::{Canvas, Dashboard, LineChart, MapView, Marker, MarkerKind, StatTile};

/// Default seed used across the evaluation.
pub const SEED: u64 = 42;

/// `n` 5-minute CO2-like points for one device, for TSDB benches.
pub fn synthetic_points(device: u32, day: i64, n: usize) -> Vec<DataPoint> {
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0) + Span::days(day);
    (0..n)
        .map(|i| {
            let t = start + Span::minutes(5 * i as i64);
            let v = 410.0
                + 25.0 * ((i as f64) * 0.02).sin()
                + ((i * 7919 + device as usize * 31) % 13) as f64 * 0.1;
            DataPoint::new(
                "ctt.air.co2",
                vec![
                    ("city".to_string(), "trondheim".to_string()),
                    ("device".to_string(), format!("n{device}")),
                ],
                t,
                v,
            )
            .expect("valid point")
        })
        .collect()
}

/// A TSDB pre-loaded with `devices × points` synthetic points.
pub fn loaded_tsdb(devices: u32, points: usize) -> Tsdb {
    let mut db = Tsdb::new();
    for d in 0..devices {
        for p in &synthetic_points(d, 0, points) {
            db.put(p);
        }
    }
    db
}

/// Points one uplink stores: the eight payload quantities plus RSSI.
pub const POINTS_PER_UPLINK: usize = Quantity::ALL.len() + 1;

/// Pipeline-shaped ingest workload: `uplinks` reporting rounds in which
/// each of `devices` devices delivers one uplink, and every uplink is
/// [`POINTS_PER_UPLINK`] points — one per metric, same timestamp — in the
/// storage consumer's order. Consecutive points therefore always belong to
/// *different* series (the opposite of a bulk import, where one device's
/// whole history is contiguous), which is what the store actually receives
/// from the storage consumer.
pub fn uplink_points(devices: u32, uplinks: usize) -> Vec<DataPoint> {
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
    let metrics: Vec<String> = Quantity::ALL
        .iter()
        .map(|q| q.metric_name())
        .chain(std::iter::once("ctt.net.rssi".to_string()))
        .collect();
    let mut points = Vec::with_capacity(uplinks * devices as usize * metrics.len());
    for i in 0..uplinks {
        let t = start + Span::minutes(5 * i as i64);
        for device in 0..devices {
            let tags = [
                ("city".to_string(), "trondheim".to_string()),
                ("device".to_string(), format!("n{device}")),
            ];
            for (m, metric) in metrics.iter().enumerate() {
                let v = 100.0 * (m + 1) as f64
                    + 25.0 * ((i as f64) * 0.02).sin()
                    + ((i * 7919 + device as usize * 31) % 13) as f64 * 0.1;
                points.push(
                    DataPoint::new(metric.as_str(), tags.clone(), t, v).expect("valid point"),
                );
            }
        }
    }
    points
}

/// A sealed [`ShardedTsdb`] pre-loaded with `devices × points` synthetic
/// points, for the query-latency benches.
pub fn loaded_store(devices: u32, points: usize) -> ShardedTsdb {
    let db = ShardedTsdb::default();
    for d in 0..devices {
        db.put_batch(&synthetic_points(d, 0, points));
    }
    db.seal_all();
    db
}

/// Sorted sample series on a fixed cadence from a closure.
pub fn series_from(start: Timestamp, step: Span, n: usize, f: impl Fn(usize) -> f64) -> Series {
    TimeRange::new(
        start,
        start + Span::seconds(step.as_seconds() * n as i64),
        step,
    )
    .enumerate()
    .map(|(i, t)| (t, f(i)))
    .collect()
}

/// The inputs of one Fig. 6 citizen-dashboard refresh, in the shape the
/// end-to-end benchmark's dashboard client renders: two stat tiles, the
/// city's CO2 over 24 h at 5 minutes (288 points), hourly CO2 by device over
/// 7 days (12 × 168 points, legend names 16 hex digits) and a 12-marker map.
/// Every value comes from integer arithmetic, so the rendered bytes do not
/// depend on the platform's libm.
#[derive(Debug, Clone)]
pub struct Fig6Fixture {
    city_co2: Series,
    co2_by_device: Vec<(String, Series)>,
    map: MapView,
}

impl Fig6Fixture {
    /// The fixture; takes no seed, every call builds the same inputs.
    pub fn fixed() -> Self {
        let start = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        // A sawtooth plus a small multiplicative-hash jitter.
        let wave = |i: usize, period: usize, amp: f64| {
            let phase = (i % period) as f64 / period as f64;
            amp * (1.0 - (2.0 * phase - 1.0).abs())
        };
        let jitter = |i: usize| (i.wrapping_mul(7919) % 101) as f64 * 0.037;
        let city_co2 = series_from(start + Span::days(6), Span::minutes(5), 288, |i| {
            402.0 + wave(i, 288, 31.0) + jitter(i)
        });
        let co2_by_device = (0..12usize)
            .map(|d| {
                let name = format!("{:016x}", 0x70b3_d57e_d000_0100_u64 + d as u64);
                let series = series_from(start, Span::hours(1), 168, |i| {
                    395.0 + 1.7 * d as f64 + wave(i + 2 * d, 24, 28.0) + jitter(i * 13 + d)
                });
                (name, series)
            })
            .collect();
        let bands = [
            AqiBand::VeryLow,
            AqiBand::Low,
            AqiBand::Medium,
            AqiBand::High,
            AqiBand::VeryHigh,
        ];
        let mut map = MapView::new("Air quality right now");
        for i in 0..12usize {
            let band = bands[i % bands.len()];
            map.markers.push(Marker {
                position: LatLon::new(
                    63.40 + 0.004 * (i * 5 % 12) as f64,
                    10.35 + 0.009 * i as f64,
                ),
                kind: MarkerKind::Sensor,
                color: band.color().to_string(),
                label: format!("node-{i:02}"),
                value: Some(band.label().to_string()),
            });
        }
        Fig6Fixture {
            city_co2,
            co2_by_device,
            map,
        }
    }

    /// One refresh's render: the dashboard SVG followed by the map SVG.
    pub fn render(&self) -> String {
        fn chart<'a>(
            title: &str,
            groups: impl IntoIterator<Item = (&'a str, &'a Series)>,
        ) -> Canvas {
            let mut c = LineChart::new(title, "ppm");
            for (name, series) in groups {
                c.add(name, series.clone());
            }
            c.width = 740.0;
            c.height = 260.0;
            c.render_canvas()
        }
        let tile = |label: &str, value: &str, color: &str| {
            StatTile {
                label: label.to_string(),
                value: value.to_string(),
                color: color.to_string(),
            }
            .render_canvas(360.0, 260.0)
        };
        let worst = AqiBand::Medium;
        let mut dash = Dashboard::new("CTT — citizens' air quality", 3, 2, 360.0, 260.0);
        dash.place(
            0,
            0,
            1,
            1,
            tile("overall air quality", worst.label(), worst.color()),
        );
        dash.place(0, 1, 1, 1, tile("cleanest hour", "04:00", "#0072B2"));
        dash.place(
            1,
            0,
            2,
            1,
            chart("City CO2 (last 24 h)", [("city mean", &self.city_co2)]),
        );
        let by_device = self.co2_by_device.iter().map(|(n, s)| (n.as_str(), s));
        dash.place(1, 1, 2, 1, chart("CO2 by device (7 d, hourly)", by_device));
        let mut svg = dash.render();
        svg.push_str(&self.map.render());
        svg
    }
}

/// Run a full city pipeline for a span and return it.
pub fn run_pipeline(deployment: Deployment, hours: i64) -> ctt::Pipeline {
    let mut p = ctt::Pipeline::new(deployment, SEED);
    let start = p.deployment.started;
    p.run_until(start + Span::hours(hours));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_points_are_valid() {
        let pts = synthetic_points(1, 0, 288);
        assert_eq!(pts.len(), 288);
        assert!(pts.windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn uplink_points_interleave_series() {
        let pts = uplink_points(3, 4);
        assert_eq!(pts.len(), 3 * 4 * POINTS_PER_UPLINK);
        // No two consecutive points share a series; one uplink shares a
        // timestamp and a device.
        assert!(pts
            .windows(2)
            .all(|w| w[0].series_key() != w[1].series_key()));
        let uplink = &pts[..POINTS_PER_UPLINK];
        assert!(uplink
            .iter()
            .all(|p| p.time == uplink[0].time && p.tags == uplink[0].tags));
    }

    #[test]
    fn loaded_tsdb_counts() {
        let db = loaded_tsdb(3, 100);
        assert_eq!(db.stats().points, 300);
        assert_eq!(db.stats().series, 3);
    }

    /// FNV-1a 64: a fixed, dependency-free digest for the byte-identity
    /// golden below.
    fn fnv1a_64(key: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64("foobar"), 0x8594_4171_f739_67e8);
    }

    /// The byte-identity witness for `ctt-viz`'s emitter: length and FNV-1a 64
    /// of the Fig. 6 render, recorded while every number still went through
    /// `core::fmt`'s `{:.2}`.
    #[test]
    fn fig6_render_is_byte_identical_to_the_recorded_golden() {
        let svg = Fig6Fixture::fixed().render();
        assert_eq!(svg.matches("<polyline").count(), 13);
        assert_eq!((svg.len(), fnv1a_64(&svg)), (48_058, 0xba12_ed9f_db50_c1c3));
    }

    #[test]
    fn series_from_shape() {
        let s = series_from(Timestamp(0), Span::minutes(5), 10, |i| i as f64);
        assert_eq!(s.len(), 10);
        assert_eq!(s.points[9], (Timestamp(45 * 60), 9.0));
    }
}
