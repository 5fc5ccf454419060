//! Geographic primitives: WGS-84 positions, haversine distances, and a local
//! east-north (ENU) tangent-plane projection used by the radio simulator and
//! the map/3D visualizations.

use std::fmt;

/// Mean Earth radius in metres (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 latitude/longitude pair in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatLon {
    /// Latitude in degrees, north positive.
    pub lat_deg: f64,
    /// Longitude in degrees, east positive.
    pub lon_deg: f64,
}

impl LatLon {
    /// Construct from degrees.
    pub const fn new(lat_deg: f64, lon_deg: f64) -> Self {
        LatLon { lat_deg, lon_deg }
    }

    /// Great-circle distance to `other` in metres (haversine formula).
    pub fn distance_m(self, other: LatLon) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlat = (other.lat_deg - self.lat_deg).to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Initial bearing to `other` in degrees clockwise from north, `[0, 360)`.
    pub fn bearing_deg(self, other: LatLon) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// Destination point at `distance_m` metres along `bearing_deg`.
    pub fn offset(self, bearing_deg: f64, distance_m: f64) -> LatLon {
        let ang = distance_m / EARTH_RADIUS_M;
        let brg = bearing_deg.to_radians();
        let lat1 = self.lat_deg.to_radians();
        let lon1 = self.lon_deg.to_radians();
        let lat2 = (lat1.sin() * ang.cos() + lat1.cos() * ang.sin() * brg.cos()).asin();
        let lon2 =
            lon1 + (brg.sin() * ang.sin() * lat1.cos()).atan2(ang.cos() - lat1.sin() * lat2.sin());
        LatLon {
            lat_deg: lat2.to_degrees(),
            lon_deg: ((lon2.to_degrees() + 540.0) % 360.0) - 180.0,
        }
    }
}

impl fmt::Display for LatLon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.5}, {:.5})", self.lat_deg, self.lon_deg)
    }
}

/// A point in a local east/north tangent plane, metres from an origin.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnuPoint {
    /// Metres east of the projection origin.
    pub east_m: f64,
    /// Metres north of the projection origin.
    pub north_m: f64,
}

impl EnuPoint {
    /// Euclidean distance to `other` in metres.
    pub fn distance_m(self, other: EnuPoint) -> f64 {
        ((self.east_m - other.east_m).powi(2) + (self.north_m - other.north_m).powi(2)).sqrt()
    }
}

/// Equirectangular projection around a fixed origin. Adequate for city-scale
/// extents (error < 0.1% within ~50 km of the origin).
#[derive(Debug, Clone, Copy)]
pub struct LocalProjection {
    origin: LatLon,
    cos_lat: f64,
}

impl LocalProjection {
    /// Create a projection centred on `origin`.
    pub fn new(origin: LatLon) -> Self {
        LocalProjection {
            origin,
            cos_lat: origin.lat_deg.to_radians().cos(),
        }
    }

    /// The projection origin.
    pub fn origin(&self) -> LatLon {
        self.origin
    }

    /// Project a geographic position to local ENU metres.
    pub fn to_enu(&self, p: LatLon) -> EnuPoint {
        let dlat = (p.lat_deg - self.origin.lat_deg).to_radians();
        let dlon = (p.lon_deg - self.origin.lon_deg).to_radians();
        EnuPoint {
            east_m: dlon * self.cos_lat * EARTH_RADIUS_M,
            north_m: dlat * EARTH_RADIUS_M,
        }
    }
}

/// Axis-aligned geographic bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum (southernmost) latitude.
    pub min_lat: f64,
    /// Minimum (westernmost) longitude.
    pub min_lon: f64,
    /// Maximum (northernmost) latitude.
    pub max_lat: f64,
    /// Maximum (easternmost) longitude.
    pub max_lon: f64,
}

impl BoundingBox {
    /// Smallest box containing all `points`; `None` if empty.
    pub fn of(points: impl IntoIterator<Item = LatLon>) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = BoundingBox {
            min_lat: first.lat_deg,
            min_lon: first.lon_deg,
            max_lat: first.lat_deg,
            max_lon: first.lon_deg,
        };
        for p in it {
            bb.min_lat = bb.min_lat.min(p.lat_deg);
            bb.min_lon = bb.min_lon.min(p.lon_deg);
            bb.max_lat = bb.max_lat.max(p.lat_deg);
            bb.max_lon = bb.max_lon.max(p.lon_deg);
        }
        Some(bb)
    }

    /// True if `p` lies within the box (inclusive).
    pub fn contains(&self, p: LatLon) -> bool {
        p.lat_deg >= self.min_lat
            && p.lat_deg <= self.max_lat
            && p.lon_deg >= self.min_lon
            && p.lon_deg <= self.max_lon
    }

    /// Grow the box by `margin_deg` degrees on every side.
    pub fn expanded(&self, margin_deg: f64) -> BoundingBox {
        BoundingBox {
            min_lat: self.min_lat - margin_deg,
            min_lon: self.min_lon - margin_deg,
            max_lat: self.max_lat + margin_deg,
            max_lon: self.max_lon + margin_deg,
        }
    }

    /// Centre of the box.
    pub fn center(&self) -> LatLon {
        LatLon {
            lat_deg: (self.min_lat + self.max_lat) / 2.0,
            lon_deg: (self.min_lon + self.max_lon) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRONDHEIM: LatLon = LatLon::new(63.4305, 10.3951);
    const VEJLE: LatLon = LatLon::new(55.7113, 9.5365);

    #[test]
    fn distance_to_self_is_zero() {
        assert_eq!(TRONDHEIM.distance_m(TRONDHEIM), 0.0);
    }

    #[test]
    fn trondheim_vejle_distance_plausible() {
        // Great-circle distance is roughly 860 km.
        let d = TRONDHEIM.distance_m(VEJLE);
        assert!((820e3..900e3).contains(&d), "distance {d} m");
        // Symmetric.
        assert!((d - VEJLE.distance_m(TRONDHEIM)).abs() < 1e-6);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = LatLon::new(60.0, 10.0);
        let north = LatLon::new(60.1, 10.0);
        let east = LatLon::new(60.0, 10.2);
        assert!(origin.bearing_deg(north).abs() < 0.5);
        assert!((origin.bearing_deg(east) - 90.0).abs() < 0.5);
    }

    #[test]
    fn offset_roundtrip() {
        for brg in [0.0, 45.0, 137.0, 270.0] {
            let p = TRONDHEIM.offset(brg, 1500.0);
            let d = TRONDHEIM.distance_m(p);
            assert!((d - 1500.0).abs() < 1.0, "bearing {brg}: distance {d}");
            let back = p.bearing_deg(TRONDHEIM);
            let expect = (brg + 180.0) % 360.0;
            let diff = (back - expect).abs().min(360.0 - (back - expect).abs());
            assert!(diff < 1.0, "bearing {brg}: reverse {back}");
        }
    }

    #[test]
    fn enu_distance_matches_great_circle_at_city_scale() {
        let proj = LocalProjection::new(TRONDHEIM);
        let enu = proj.to_enu(TRONDHEIM.offset(60.0, 2500.0));
        let d_enu = enu.distance_m(EnuPoint::default());
        assert!((d_enu - 2500.0).abs() < 5.0, "enu distance {d_enu}");
    }

    #[test]
    fn enu_axes_orientation() {
        let proj = LocalProjection::new(TRONDHEIM);
        let north = proj.to_enu(TRONDHEIM.offset(0.0, 1000.0));
        assert!(north.north_m > 990.0 && north.east_m.abs() < 20.0);
        let east = proj.to_enu(TRONDHEIM.offset(90.0, 1000.0));
        assert!(east.east_m > 990.0 && east.north_m.abs() < 20.0);
    }

    #[test]
    fn bounding_box_contains_and_expand() {
        let pts = [
            TRONDHEIM,
            TRONDHEIM.offset(45.0, 3000.0),
            TRONDHEIM.offset(225.0, 3000.0),
        ];
        let bb = BoundingBox::of(pts).unwrap();
        for p in pts {
            assert!(bb.contains(p));
        }
        assert!(!bb.contains(VEJLE));
        let bigger = bb.expanded(0.01);
        assert!(bigger.min_lat < bb.min_lat && bigger.max_lon > bb.max_lon);
        let c = bb.center();
        assert!(bb.contains(c));
    }

    #[test]
    fn bounding_box_of_empty_is_none() {
        assert!(BoundingBox::of(std::iter::empty()).is_none());
    }
}
