//! Time-series line charts and scatter plots with axes and legends.
//!
//! These implement the chart shapes of Figs. 4 and 5: multi-series lines
//! over time, and category-coloured scatter plots (battery delta vs time
//! of day, coloured by sunlight).

use crate::color;
use crate::scale::{LinearScale, TimeScale};
use crate::svg::{Anchor, Canvas};
use ctt_core::measurement::Series;
use ctt_core::time::Timestamp;

/// Chart margins in pixels.
const MARGIN_LEFT: f64 = 56.0;
const MARGIN_RIGHT: f64 = 16.0;
const MARGIN_TOP: f64 = 34.0;
const MARGIN_BOTTOM: f64 = 40.0;

/// A named series for a line chart.
#[derive(Debug, Clone)]
pub struct NamedSeries {
    /// Legend label.
    pub name: String,
    /// The data.
    pub series: Series,
    /// Hex colour; auto-assigned if empty.
    pub color: String,
}

/// A time-series line chart.
#[derive(Debug, Clone)]
pub struct LineChart {
    /// Chart title.
    pub title: String,
    /// Y-axis label (with unit).
    pub y_label: String,
    /// Series to draw.
    pub series: Vec<NamedSeries>,
    /// Canvas size.
    pub width: f64,
    /// Canvas height.
    pub height: f64,
}

impl LineChart {
    /// New chart with default size.
    pub fn new(title: impl Into<String>, y_label: impl Into<String>) -> Self {
        LineChart {
            title: title.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            width: 720.0,
            height: 300.0,
        }
    }

    /// Add a series (colour auto-assigned).
    pub fn add(&mut self, name: impl Into<String>, series: Series) -> &mut Self {
        let color = color::category(self.series.len()).to_string();
        self.series.push(NamedSeries {
            name: name.into(),
            series,
            color,
        });
        self
    }

    /// Render to an SVG string.
    pub fn render(&self) -> String {
        self.render_canvas().finish()
    }

    /// Render to a canvas (for dashboard embedding).
    pub fn render_canvas(&self) -> Canvas {
        let mut c = Canvas::new(self.width, self.height);
        c.background("#ffffff");
        c.text(
            self.width / 2.0,
            18.0,
            13.0,
            "#222222",
            Anchor::Middle,
            &self.title,
        );
        let plot_x0 = MARGIN_LEFT;
        let plot_x1 = self.width - MARGIN_RIGHT;
        let plot_y0 = self.height - MARGIN_BOTTOM;
        let plot_y1 = MARGIN_TOP;
        // Domains.
        let times = || self.series.iter().flat_map(|s| s.series.times());
        let (t0, t1) = match (times().min(), times().max()) {
            (Some(a), Some(b)) if a < b => (a, b),
            (Some(a), _) => (a, Timestamp(a.as_seconds() + 1)),
            _ => (Timestamp(0), Timestamp(1)),
        };
        let xs = TimeScale::new(t0, t1, plot_x0, plot_x1);
        let ys = LinearScale::fit(
            self.series.iter().flat_map(|s| s.series.values()),
            0.08,
            plot_y0,
            plot_y1,
        );
        // Axes.
        c.line(plot_x0, plot_y0, plot_x1, plot_y0, "#444444", 1.0);
        c.line(plot_x0, plot_y0, plot_x0, plot_y1, "#444444", 1.0);
        for (t, label) in xs.ticks(8) {
            let x = xs.map(t);
            c.line(x, plot_y0, x, plot_y0 + 4.0, "#444444", 1.0);
            c.text(x, plot_y0 + 16.0, 10.0, "#444444", Anchor::Middle, &label);
        }
        for v in ys.ticks(6) {
            let y = ys.map(v);
            c.dashed_line(plot_x0, y, plot_x1, y, "#dddddd", 0.6);
            c.text(
                plot_x0 - 6.0,
                y + 3.0,
                10.0,
                "#444444",
                Anchor::End,
                &format_tick(v),
            );
        }
        c.text(
            14.0,
            (plot_y0 + plot_y1) / 2.0,
            11.0,
            "#333333",
            Anchor::Middle,
            &self.y_label,
        );
        // Series.
        for s in &self.series {
            let pts = s.series.points.iter();
            c.polyline_from(pts.map(|&(t, v)| (xs.map(t), ys.map(v))), &s.color, 1.4);
        }
        // Legend.
        let mut lx = plot_x0 + 8.0;
        for s in &self.series {
            c.rect(lx, plot_y1 - 10.0, 10.0, 4.0, &s.color, None);
            c.text(
                lx + 14.0,
                plot_y1 - 5.0,
                10.0,
                "#333333",
                Anchor::Start,
                &s.name,
            );
            lx += 14.0 + 7.0 * s.name.len() as f64 + 16.0;
        }
        c
    }
}

fn format_tick(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 || v == 0.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// One scatter point with a category (e.g. sunlit vs dark in Fig. 4 right).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// X value.
    pub x: f64,
    /// Y value.
    pub y: f64,
    /// Category index (colours/legend).
    pub category: usize,
}

/// A category-coloured scatter plot.
#[derive(Debug, Clone)]
pub struct ScatterChart {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Category names (legend), indexed by `ScatterPoint::category`.
    pub categories: Vec<String>,
    /// Category colours; defaults applied when empty.
    pub colors: Vec<String>,
    /// Points.
    pub points: Vec<ScatterPoint>,
    /// Canvas size.
    pub width: f64,
    /// Canvas height.
    pub height: f64,
}

impl ScatterChart {
    /// New scatter chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        categories: Vec<String>,
    ) -> Self {
        let colors = (0..categories.len())
            .map(|i| color::category(i).to_string())
            .collect();
        ScatterChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            categories,
            colors,
            points: Vec::new(),
            width: 480.0,
            height: 300.0,
        }
    }

    /// Add one point.
    pub fn push(&mut self, x: f64, y: f64, category: usize) {
        assert!(
            category < self.categories.len(),
            "unknown category {category}"
        );
        self.points.push(ScatterPoint { x, y, category });
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
            18.0,
            13.0,
            "#222222",
            Anchor::Middle,
            &self.title,
        );
        let plot_x0 = MARGIN_LEFT;
        let plot_x1 = self.width - MARGIN_RIGHT;
        let plot_y0 = self.height - MARGIN_BOTTOM;
        let plot_y1 = MARGIN_TOP;
        let xs = LinearScale::fit(self.points.iter().map(|p| p.x), 0.05, plot_x0, plot_x1);
        let ys = LinearScale::fit(self.points.iter().map(|p| p.y), 0.08, plot_y0, plot_y1);
        c.line(plot_x0, plot_y0, plot_x1, plot_y0, "#444444", 1.0);
        c.line(plot_x0, plot_y0, plot_x0, plot_y1, "#444444", 1.0);
        for v in xs.ticks(8) {
            let x = xs.map(v);
            c.line(x, plot_y0, x, plot_y0 + 4.0, "#444444", 1.0);
            c.text(
                x,
                plot_y0 + 16.0,
                10.0,
                "#444444",
                Anchor::Middle,
                &format_tick(v),
            );
        }
        for v in ys.ticks(6) {
            let y = ys.map(v);
            c.dashed_line(plot_x0, y, plot_x1, y, "#dddddd", 0.6);
            c.text(
                plot_x0 - 6.0,
                y + 3.0,
                10.0,
                "#444444",
                Anchor::End,
                &format_tick(v),
            );
        }
        c.text(
            (plot_x0 + plot_x1) / 2.0,
            self.height - 8.0,
            11.0,
            "#333333",
            Anchor::Middle,
            &self.x_label,
        );
        c.text(
            14.0,
            (plot_y0 + plot_y1) / 2.0,
            11.0,
            "#333333",
            Anchor::Middle,
            &self.y_label,
        );
        // Zero line if the y domain crosses zero.
        if ys.d0 < 0.0 && ys.d1 > 0.0 {
            let y = ys.map(0.0);
            c.line(plot_x0, y, plot_x1, y, "#999999", 0.8);
        }
        for p in &self.points {
            c.circle(
                xs.map(p.x),
                ys.map(p.y),
                2.2,
                &self.colors[p.category],
                None,
            );
        }
        // Legend.
        let mut lx = plot_x0 + 8.0;
        for (i, name) in self.categories.iter().enumerate() {
            c.circle(lx, plot_y1 - 8.0, 4.0, &self.colors[i], None);
            c.text(
                lx + 8.0,
                plot_y1 - 5.0,
                10.0,
                "#333333",
                Anchor::Start,
                name,
            );
            lx += 8.0 + 7.0 * name.len() as f64 + 18.0;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::time::Span;

    fn series(n: i64) -> Series {
        Series::from_points(
            (0..n)
                .map(|i| (Timestamp(0) + Span::minutes(5 * i), (i as f64 * 0.3).sin()))
                .collect(),
        )
    }

    #[test]
    fn line_chart_renders_series_and_legend() {
        let mut ch = LineChart::new("CO₂ dynamics", "ppm");
        ch.add("sensor", series(100));
        ch.add("reference", series(80));
        let svg = ch.render();
        assert!(svg.contains("<svg"));
        assert!(svg.contains("CO₂ dynamics"));
        assert!(svg.contains("ppm"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("sensor") && svg.contains("reference"));
        // Distinct auto colours.
        assert_ne!(ch.series[0].color, ch.series[1].color);
    }

    #[test]
    fn line_chart_empty_series_ok() {
        let mut ch = LineChart::new("empty", "x");
        ch.add("none", Series::new());
        let svg = ch.render();
        assert!(svg.contains("<svg"));
        assert!(!svg.contains("<polyline"));
    }

    #[test]
    fn line_chart_single_point_ok() {
        let mut ch = LineChart::new("one", "x");
        ch.add("pt", series(1));
        let svg = ch.render();
        assert!(svg.contains("<svg"));
    }

    #[test]
    fn scatter_renders_categories() {
        let mut sc = ScatterChart::new(
            "Battery delta vs time of day",
            "hour of day",
            "Δ battery [%]",
            vec!["dark".to_string(), "sunlit".to_string()],
        );
        for i in 0..48 {
            sc.push(
                f64::from(i) / 2.0,
                (f64::from(i) * 0.7).sin(),
                (i % 2) as usize,
            );
        }
        let svg = sc.render();
        assert!(svg.contains("Battery delta"));
        assert!(svg.contains("hour of day"));
        assert!(svg.matches("<circle").count() >= 48);
        assert!(svg.contains("sunlit"));
    }

    #[test]
    fn scatter_zero_line_when_crossing() {
        let mut sc = ScatterChart::new("t", "x", "y", vec!["a".to_string()]);
        sc.push(0.0, -1.0, 0);
        sc.push(1.0, 1.0, 0);
        let svg = sc.render();
        // A horizontal rule at zero is present (heuristic: at least 3 solid
        // lines — two axes + zero line).
        assert!(svg.matches("<line").count() >= 3);
    }

    #[test]
    #[should_panic(expected = "unknown category")]
    fn scatter_rejects_bad_category() {
        let mut sc = ScatterChart::new("t", "x", "y", vec!["a".to_string()]);
        sc.push(0.0, 0.0, 5);
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(format_tick(1234.0), "1234");
        assert_eq!(format_tick(12.34), "12.3");
        assert_eq!(format_tick(1.234), "1.23");
        assert_eq!(format_tick(0.0), "0.0");
    }
}
