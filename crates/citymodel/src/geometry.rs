//! Planar geometry for LOD1 building footprints (local ENU metres).

/// A 2D point in the city model's local east/north frame, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct P2 {
    /// Metres east.
    pub x: f64,
    /// Metres north.
    pub y: f64,
}

impl P2 {
    /// Construct.
    pub const fn new(x: f64, y: f64) -> Self {
        P2 { x, y }
    }

    /// Euclidean distance.
    pub fn distance(self, other: P2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A simple (non-self-intersecting) polygon footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    /// Vertices in order (closed implicitly).
    pub vertices: Vec<P2>,
}

impl Polygon {
    /// Construct; panics with fewer than 3 vertices.
    pub fn new(vertices: Vec<P2>) -> Self {
        assert!(vertices.len() >= 3, "polygon needs ≥ 3 vertices");
        Polygon { vertices }
    }

    /// Axis-aligned rectangle.
    pub fn rect(min: P2, max: P2) -> Self {
        Polygon::new(vec![min, P2::new(max.x, min.y), max, P2::new(min.x, max.y)])
    }

    /// Signed area (positive for counter-clockwise winding).
    pub fn signed_area(&self) -> f64 {
        let v = &self.vertices;
        let n = v.len();
        let mut sum = 0.0;
        for i in 0..n {
            let j = (i + 1) % n;
            sum += v[i].x * v[j].y - v[j].x * v[i].y;
        }
        sum / 2.0
    }

    /// Absolute area in m².
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Centroid (area-weighted).
    pub fn centroid(&self) -> P2 {
        let v = &self.vertices;
        let n = v.len();
        let a = self.signed_area();
        if a.abs() < 1e-12 {
            // Degenerate: average the vertices.
            let sx: f64 = v.iter().map(|p| p.x).sum();
            let sy: f64 = v.iter().map(|p| p.y).sum();
            return P2::new(sx / n as f64, sy / n as f64);
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let j = (i + 1) % n;
            let cross = v[i].x * v[j].y - v[j].x * v[i].y;
            cx += (v[i].x + v[j].x) * cross;
            cy += (v[i].y + v[j].y) * cross;
        }
        P2::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Ray-casting point-in-polygon (boundary points may go either way).
    pub fn contains(&self, p: P2) -> bool {
        let v = &self.vertices;
        let n = v.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            if (v[i].y > p.y) != (v[j].y > p.y) {
                let x_at = v[j].x + (p.y - v[j].y) / (v[i].y - v[j].y) * (v[i].x - v[j].x);
                if p.x < x_at {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rect(P2::new(0.0, 0.0), P2::new(1.0, 1.0))
    }

    #[test]
    fn area_and_centroid_of_square() {
        let sq = unit_square();
        assert!((sq.area() - 1.0).abs() < 1e-12);
        let c = sq.centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn winding_sign() {
        let ccw = unit_square();
        assert!(ccw.signed_area() > 0.0);
        let cw = Polygon::new(ccw.vertices.iter().rev().copied().collect());
        assert!(cw.signed_area() < 0.0);
        assert_eq!(cw.area(), ccw.area());
    }

    #[test]
    fn triangle_area() {
        let t = Polygon::new(vec![
            P2::new(0.0, 0.0),
            P2::new(4.0, 0.0),
            P2::new(0.0, 3.0),
        ]);
        assert!((t.area() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn contains_inside_outside() {
        let sq = unit_square();
        assert!(sq.contains(P2::new(0.5, 0.5)));
        assert!(!sq.contains(P2::new(1.5, 0.5)));
        assert!(!sq.contains(P2::new(-0.1, 0.5)));
        assert!(!sq.contains(P2::new(0.5, 2.0)));
    }

    #[test]
    fn contains_concave() {
        // An L-shape.
        let l = Polygon::new(vec![
            P2::new(0.0, 0.0),
            P2::new(2.0, 0.0),
            P2::new(2.0, 1.0),
            P2::new(1.0, 1.0),
            P2::new(1.0, 2.0),
            P2::new(0.0, 2.0),
        ]);
        assert!(l.contains(P2::new(0.5, 1.5)));
        assert!(l.contains(P2::new(1.5, 0.5)));
        assert!(!l.contains(P2::new(1.5, 1.5)), "the notch is outside");
    }

    #[test]
    fn distance() {
        assert!((P2::new(0.0, 0.0).distance(P2::new(3.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "polygon needs")]
    fn degenerate_polygon_rejected() {
        Polygon::new(vec![P2::new(0.0, 0.0), P2::new(1.0, 1.0)]);
    }
}
