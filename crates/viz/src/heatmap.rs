//! Grid heatmaps: pollution surfaces and hour-of-day × day matrices.

use crate::color;
use crate::svg::{Anchor, Canvas};

/// A grid heatmap. Cell values are normalized against the provided range
/// and mapped through the sequential colour ramp; `None` cells are blank.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Title.
    pub title: String,
    /// Legend label for the value axis.
    pub value_label: String,
    /// Columns.
    pub cols: usize,
    /// Rows (row 0 is drawn at the bottom).
    pub rows: usize,
    /// Row-major values.
    pub values: Vec<Option<f64>>,
    /// Canvas size.
    pub width: f64,
    /// Canvas height.
    pub height: f64,
}

impl Heatmap {
    /// Build from row-major values.
    pub fn new(
        title: impl Into<String>,
        value_label: impl Into<String>,
        cols: usize,
        rows: usize,
        values: Vec<Option<f64>>,
    ) -> Self {
        assert_eq!(values.len(), cols * rows, "values must be cols×rows");
        assert!(cols > 0 && rows > 0);
        Heatmap {
            title: title.into(),
            value_label: value_label.into(),
            cols,
            rows,
            values,
            width: 640.0,
            height: 520.0,
        }
    }

    /// Defined-value range.
    pub fn range(&self) -> Option<(f64, f64)> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut any = false;
        for v in self.values.iter().flatten() {
            any = true;
            min = min.min(*v);
            max = max.max(*v);
        }
        any.then_some((min, max))
    }

    /// Render to SVG.
    pub fn render(&self) -> String {
        self.render_canvas().finish()
    }

    /// Render to a canvas.
    pub fn render_canvas(&self) -> Canvas {
        let mut c = Canvas::new(self.width, self.height);
        c.background("#ffffff");
        c.text(
            self.width / 2.0,
            20.0,
            14.0,
            "#222222",
            Anchor::Middle,
            &self.title,
        );
        let (min, max) = self.range().unwrap_or((0.0, 1.0));
        let span = (max - min).max(1e-12);
        let legend_h = 46.0;
        let plot_w = self.width - 24.0;
        let plot_h = self.height - 34.0 - legend_h;
        let cell_w = plot_w / self.cols as f64;
        let cell_h = plot_h / self.rows as f64;
        // One colour buffer for every cell and legend step.
        let mut fill = String::with_capacity(7);
        for row in 0..self.rows {
            for col in 0..self.cols {
                let Some(v) = self.values[row * self.cols + col] else {
                    continue;
                };
                let t = (v - min) / span;
                let x = 12.0 + col as f64 * cell_w;
                // Row 0 at the bottom (geographic convention).
                let y = 34.0 + (self.rows - 1 - row) as f64 * cell_h;
                color::ramp_into(&mut fill, t);
                c.rect(x, y, cell_w + 0.4, cell_h + 0.4, &fill, None);
            }
        }
        // Legend: a ramp bar with min/max labels.
        let ly = self.height - legend_h + 14.0;
        let lw = self.width * 0.5;
        let lx = (self.width - lw) / 2.0;
        let steps = 32;
        for i in 0..steps {
            let t = i as f64 / (steps - 1) as f64;
            color::ramp_into(&mut fill, t);
            c.rect(lx + t * lw, ly, lw / steps as f64 + 0.5, 10.0, &fill, None);
        }
        c.text(
            lx - 6.0,
            ly + 9.0,
            10.0,
            "#333333",
            Anchor::End,
            &format!("{min:.1}"),
        );
        c.text(
            lx + lw + 6.0,
            ly + 9.0,
            10.0,
            "#333333",
            Anchor::Start,
            &format!("{max:.1}"),
        );
        c.text(
            self.width / 2.0,
            ly + 26.0,
            10.0,
            "#333333",
            Anchor::Middle,
            &self.value_label,
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_cells_and_legend() {
        let values: Vec<Option<f64>> = (0..12).map(|i| Some(f64::from(i))).collect();
        let hm = Heatmap::new("test", "µg/m³", 4, 3, values);
        assert_eq!(hm.range(), Some((0.0, 11.0)));
        let svg = hm.render();
        // 12 cells + 32 legend steps + background.
        assert!(svg.matches("<rect").count() > 12 + 32);
        assert!(svg.contains("test"));
        assert!(svg.contains("µg/m³"));
        assert!(svg.contains("0.0") && svg.contains("11.0"));
    }

    #[test]
    fn none_cells_left_blank() {
        let mut values: Vec<Option<f64>> = vec![Some(1.0); 9];
        values[4] = None;
        let with_hole = Heatmap::new("h", "x", 3, 3, values).render();
        let full = Heatmap::new("h", "x", 3, 3, vec![Some(1.0); 9]).render();
        assert!(with_hole.matches("<rect").count() < full.matches("<rect").count());
    }

    #[test]
    fn all_none_uses_default_range() {
        let hm = Heatmap::new("h", "x", 2, 2, vec![None; 4]);
        assert_eq!(hm.range(), None);
        let svg = hm.render();
        assert!(svg.contains("<svg"));
    }

    #[test]
    #[should_panic(expected = "cols×rows")]
    fn wrong_value_count_panics() {
        Heatmap::new("h", "x", 3, 3, vec![Some(1.0); 8]);
    }
}
