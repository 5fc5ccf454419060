//! Geographic map and network views (Figs. 3 and 6).
//!
//! A [`MapView`] plots markers (sensors with AQI colours, gateways) and
//! links (sensor→gateway radio links with live state) over a city extent —
//! "a visualization of the network itself ... of the structure of digital
//! twins for sensors and gateways, their location, the connections and
//! live data transmission" (§2.3).

use crate::svg::{Anchor, Canvas};
use ctt_core::geo::{BoundingBox, LatLon};

/// Marker glyph kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// A sensor node: circle.
    Sensor,
    /// A gateway: square.
    Gateway,
    /// A reference station: diamond.
    Station,
}

/// One marker on the map.
#[derive(Debug, Clone)]
pub struct Marker {
    /// Position.
    pub position: LatLon,
    /// Glyph.
    pub kind: MarkerKind,
    /// Fill colour (state or AQI band colour).
    pub color: String,
    /// Label under the marker.
    pub label: String,
    /// Optional value shown next to the marker (e.g. jam factor, CAQI).
    pub value: Option<String>,
}

/// A link between two positions (sensor→gateway).
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub from: LatLon,
    /// Other endpoint.
    pub to: LatLon,
    /// Stroke colour.
    pub color: String,
    /// Stroke width (e.g. scaled by traffic volume).
    pub width: f64,
    /// Dashed (e.g. stale/weak link).
    pub dashed: bool,
}

/// The map view.
#[derive(Debug, Clone)]
pub struct MapView {
    /// Title.
    pub title: String,
    /// Markers.
    pub markers: Vec<Marker>,
    /// Links (drawn under markers).
    pub links: Vec<Link>,
    /// Canvas size.
    pub width: f64,
    /// Canvas height.
    pub height: f64,
}

impl MapView {
    /// New empty map.
    pub fn new(title: impl Into<String>) -> Self {
        MapView {
            title: title.into(),
            markers: Vec::new(),
            links: Vec::new(),
            width: 640.0,
            height: 480.0,
        }
    }

    fn extent(&self) -> BoundingBox {
        let pts = self
            .markers
            .iter()
            .map(|m| m.position)
            .chain(self.links.iter().flat_map(|l| [l.from, l.to]));
        BoundingBox::of(pts)
            .unwrap_or(BoundingBox {
                min_lat: 0.0,
                min_lon: 0.0,
                max_lat: 1.0,
                max_lon: 1.0,
            })
            .expanded(0.004)
    }

    /// Project a position into canvas pixels for the current extent.
    fn to_px(&self, bb: &BoundingBox, p: LatLon) -> (f64, f64) {
        let pad = 30.0;
        // Equirectangular with latitude correction for aspect.
        let lat_mid = (bb.min_lat + bb.max_lat) / 2.0;
        let kx = lat_mid.to_radians().cos();
        let w_deg = (bb.max_lon - bb.min_lon) * kx;
        let h_deg = bb.max_lat - bb.min_lat;
        let sx = (self.width - 2.0 * pad) / w_deg.max(1e-9);
        let sy = (self.height - 2.0 * pad) / h_deg.max(1e-9);
        let s = sx.min(sy);
        let x = pad + (p.lon_deg - bb.min_lon) * kx * s;
        let y = self.height - pad - (p.lat_deg - bb.min_lat) * s;
        (x, y)
    }

    /// Render to an SVG string.
    pub fn render(&self) -> String {
        self.render_canvas().finish()
    }

    /// Render to a canvas for embedding.
    pub fn render_canvas(&self) -> Canvas {
        // Background and title; a line per link; a glyph, a label and a
        // value per marker, a station's diamond four points.
        let text = self.title.len()
            + self.links.iter().map(|l| l.color.len()).sum::<usize>()
            + self
                .markers
                .iter()
                .map(|m| m.color.len() + m.label.len() + m.value.as_ref().map_or(0, String::len))
                .sum::<usize>();
        let stations = self
            .markers
            .iter()
            .filter(|m| m.kind == MarkerKind::Station)
            .count();
        let mut c = Canvas::sized(
            self.width,
            self.height,
            2 + self.links.len() + 3 * self.markers.len(),
            4 * stations,
            text,
        );
        c.background("#f4f2ee");
        c.text(
            self.width / 2.0,
            20.0,
            14.0,
            "#222222",
            Anchor::Middle,
            &self.title,
        );
        let bb = self.extent();
        for l in &self.links {
            let (x1, y1) = self.to_px(&bb, l.from);
            let (x2, y2) = self.to_px(&bb, l.to);
            if l.dashed {
                c.dashed_line(x1, y1, x2, y2, &l.color, l.width);
            } else {
                c.line(x1, y1, x2, y2, &l.color, l.width);
            }
        }
        for m in &self.markers {
            let (x, y) = self.to_px(&bb, m.position);
            match m.kind {
                MarkerKind::Sensor => c.circle(x, y, 6.0, &m.color, Some(("#333333", 1.0))),
                MarkerKind::Gateway => c.rect(
                    x - 6.0,
                    y - 6.0,
                    12.0,
                    12.0,
                    &m.color,
                    Some(("#333333", 1.0)),
                ),
                MarkerKind::Station => {
                    c.polygon(
                        &[(x, y - 8.0), (x + 8.0, y), (x, y + 8.0), (x - 8.0, y)],
                        &m.color,
                        Some(("#333333", 1.0)),
                    );
                }
            }
            c.text(x, y + 18.0, 9.0, "#333333", Anchor::Middle, &m.label);
            if let Some(v) = &m.value {
                c.text(x, y - 10.0, 10.0, "#111111", Anchor::Middle, v);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> MapView {
        let center = LatLon::new(63.4305, 10.3951);
        let mut m = MapView::new("Trondheim network");
        m.markers.push(Marker {
            position: center,
            kind: MarkerKind::Gateway,
            color: "#2ca02c".to_string(),
            label: "gw-1".to_string(),
            value: None,
        });
        for i in 0..3 {
            let p = center.offset(f64::from(i) * 110.0, 900.0);
            m.markers.push(Marker {
                position: p,
                kind: MarkerKind::Sensor,
                color: "#79bc6a".to_string(),
                label: format!("node-{i}"),
                value: Some(format!("{}", 400 + i)),
            });
            m.links.push(Link {
                from: p,
                to: center,
                color: "#888888".to_string(),
                width: 1.0,
                dashed: i == 2,
            });
        }
        m.markers.push(Marker {
            position: center.offset(200.0, 1200.0),
            kind: MarkerKind::Station,
            color: "#ffdd55".to_string(),
            label: "NILU".to_string(),
            value: None,
        });
        m
    }

    #[test]
    fn renders_all_glyphs() {
        let svg = sample_map().render();
        assert!(svg.contains("Trondheim network"));
        // 3 sensors as circles, 1 gateway square + background rect, 1 diamond.
        assert!(svg.matches("<circle").count() >= 3);
        assert!(svg.matches("<rect").count() >= 2);
        assert!(svg.matches("<polygon").count() >= 1);
        assert!(svg.matches("<line").count() >= 3);
        assert!(svg.contains("stroke-dasharray"), "dashed link missing");
        assert!(svg.contains("node-0") && svg.contains("NILU"));
        assert!(svg.contains("400"));
    }

    #[test]
    fn markers_stay_on_canvas() {
        let m = sample_map();
        let bb = m.extent();
        for marker in &m.markers {
            let (x, y) = m.to_px(&bb, marker.position);
            assert!(x >= 0.0 && x <= m.width, "x {x}");
            assert!(y >= 0.0 && y <= m.height, "y {y}");
        }
    }

    #[test]
    fn north_is_up_east_is_right() {
        let m = sample_map();
        let bb = m.extent();
        let center = LatLon::new(63.4305, 10.3951);
        let (x0, y0) = m.to_px(&bb, center);
        let (xn, yn) = m.to_px(&bb, center.offset(0.0, 500.0));
        let (xe, ye) = m.to_px(&bb, center.offset(90.0, 500.0));
        assert!(yn < y0, "north must be up");
        assert!(xe > x0, "east must be right");
        assert!((xn - x0).abs() < 2.0);
        assert!((ye - y0).abs() < 2.0);
    }

    #[test]
    fn empty_map_renders() {
        let svg = MapView::new("empty").render();
        assert!(svg.contains("<svg"));
    }
}
