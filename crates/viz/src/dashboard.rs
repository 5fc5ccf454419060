//! Dashboard and wall-display composition (Figs. 6 and 8).
//!
//! A [`Dashboard`] arranges pre-rendered panels (charts, maps, stat tiles,
//! alarm lists) on a grid — the Zeppelin dashboard of Fig. 6 and, at
//! larger scale, the "full network and data overview wall display" of
//! Fig. 8.

use crate::svg::{Anchor, Canvas};

/// A stat tile: one headline number with a label (top row of Fig. 6).
#[derive(Debug, Clone)]
pub struct StatTile {
    /// Caption.
    pub label: String,
    /// The value, pre-formatted.
    pub value: String,
    /// Accent colour.
    pub color: String,
}

impl StatTile {
    /// Render at a given size.
    pub fn render_canvas(&self, width: f64, height: f64) -> Canvas {
        let text = self.color.len() + self.value.len() + self.label.len();
        let mut c = Canvas::sized(width, height, 4, 0, text);
        c.background("#ffffff");
        c.rect(0.0, 0.0, width, 4.0, &self.color, None);
        c.text(
            width / 2.0,
            height * 0.55,
            24.0,
            "#111111",
            Anchor::Middle,
            &self.value,
        );
        c.text(
            width / 2.0,
            height * 0.85,
            11.0,
            "#666666",
            Anchor::Middle,
            &self.label,
        );
        c
    }
}

/// An alarm-list panel (part of the Fig. 8 wall).
#[derive(Debug, Clone)]
pub struct AlarmList {
    /// Title.
    pub title: String,
    /// Rows: (severity colour, text).
    pub rows: Vec<(String, String)>,
}

impl AlarmList {
    /// Render at a given size; overflowing rows are summarised.
    pub fn render_canvas(&self, width: f64, height: f64) -> Canvas {
        let row_h = 18.0;
        let max_rows = ((height - 40.0) / row_h) as usize;
        let shown = &self.rows[..self.rows.len().min(max_rows)];
        // Background, title and the summary line; a dot and a text per row.
        let text = self.title.len() + shown.iter().map(|(c, t)| c.len() + t.len()).sum::<usize>();
        let mut c = Canvas::sized(width, height, 3 + 2 * shown.len(), 0, text);
        c.background("#ffffff");
        c.text(10.0, 20.0, 13.0, "#222222", Anchor::Start, &self.title);
        for (i, (color, text)) in shown.iter().enumerate() {
            let y = 40.0 + i as f64 * row_h;
            c.circle(14.0, y - 4.0, 5.0, color, None);
            c.text(26.0, y, 11.0, "#333333", Anchor::Start, text);
        }
        if self.rows.len() > max_rows {
            c.text(
                26.0,
                40.0 + max_rows as f64 * row_h,
                11.0,
                "#999999",
                Anchor::Start,
                &format!("… and {} more", self.rows.len() - max_rows),
            );
        }
        if self.rows.is_empty() {
            c.text(
                26.0,
                44.0,
                11.0,
                "#2ca02c",
                Anchor::Start,
                "no active alarms",
            );
        }
        c
    }
}

/// One dashboard panel: a pre-rendered canvas placed on the grid.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Grid column (0-based).
    pub col: u32,
    /// Grid row (0-based).
    pub row: u32,
    /// Column span.
    pub col_span: u32,
    /// Row span.
    pub row_span: u32,
    /// The content.
    pub content: Canvas,
}

/// A grid dashboard.
#[derive(Debug, Clone)]
pub struct Dashboard {
    /// Title bar text.
    pub title: String,
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Cell size in pixels.
    pub cell_w: f64,
    /// Cell height in pixels.
    pub cell_h: f64,
    /// Panels.
    pub panels: Vec<Panel>,
}

/// Pixel gap between panels.
const GAP: f64 = 10.0;
/// Title bar height.
const TITLE_H: f64 = 36.0;

impl Dashboard {
    /// New dashboard with a `cols × rows` grid of `cell_w × cell_h` cells.
    pub fn new(title: impl Into<String>, cols: u32, rows: u32, cell_w: f64, cell_h: f64) -> Self {
        assert!(cols > 0 && rows > 0);
        Dashboard {
            title: title.into(),
            cols,
            rows,
            cell_w,
            cell_h,
            panels: Vec::new(),
        }
    }

    /// Place a panel; panics if it falls outside the grid.
    pub fn place(&mut self, col: u32, row: u32, col_span: u32, row_span: u32, content: Canvas) {
        assert!(
            col + col_span <= self.cols && row + row_span <= self.rows,
            "panel at ({col},{row}) span ({col_span},{row_span}) exceeds {}x{} grid",
            self.cols,
            self.rows
        );
        assert!(col_span > 0 && row_span > 0);
        self.panels.push(Panel {
            col,
            row,
            col_span,
            row_span,
            content,
        });
    }

    /// Pixel size of a span of cells.
    pub fn span_size(&self, col_span: u32, row_span: u32) -> (f64, f64) {
        (
            f64::from(col_span) * self.cell_w + f64::from(col_span - 1) * GAP,
            f64::from(row_span) * self.cell_h + f64::from(row_span - 1) * GAP,
        )
    }

    /// Total canvas size.
    pub fn size(&self) -> (f64, f64) {
        let (w, h) = self.span_size(self.cols, self.rows);
        (w + 2.0 * GAP, h + 2.0 * GAP + TITLE_H)
    }

    /// Render the dashboard: each panel's body is copied once, into the
    /// document, which is sized for all of them up front.
    pub fn render(&self) -> String {
        let (w, h) = self.size();
        // Background, title bar and title; a frame and a group per panel.
        let panels: usize = self.panels.iter().map(|p| p.content.body().len()).sum();
        let mut c = Canvas::sized(
            w,
            h,
            3 + 2 * self.panels.len(),
            0,
            self.title.len() + panels,
        );
        c.background("#e8eaed");
        c.rect(0.0, 0.0, w, TITLE_H, "#1f3044", None);
        c.text(
            12.0,
            TITLE_H - 12.0,
            16.0,
            "#ffffff",
            Anchor::Start,
            &self.title,
        );
        for p in &self.panels {
            let x = GAP + f64::from(p.col) * (self.cell_w + GAP);
            let y = TITLE_H + GAP + f64::from(p.row) * (self.cell_h + GAP);
            let (pw, ph) = self.span_size(p.col_span, p.row_span);
            c.rect(
                x - 1.0,
                y - 1.0,
                pw + 2.0,
                ph + 2.0,
                "#ffffff",
                Some(("#c5c9ce", 1.0)),
            );
            c.embed(x, y, &p.content);
        }
        c.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(label: &str) -> Canvas {
        StatTile {
            label: label.to_string(),
            value: "42".to_string(),
            color: "#0072B2".to_string(),
        }
        .render_canvas(200.0, 100.0)
    }

    #[test]
    fn stat_tile_contents() {
        let svg = tile("sensors online").finish();
        assert!(svg.contains("42"));
        assert!(svg.contains("sensors online"));
    }

    #[test]
    fn dashboard_layout() {
        let mut d = Dashboard::new("CTT air quality", 3, 2, 200.0, 100.0);
        d.place(0, 0, 1, 1, tile("a"));
        d.place(1, 0, 2, 1, tile("b"));
        d.place(0, 1, 3, 1, tile("c"));
        let svg = d.render();
        assert!(svg.contains("CTT air quality"));
        assert_eq!(svg.matches("translate(").count(), 3);
        let (w, h) = d.size();
        assert!(w > 3.0 * 200.0);
        assert!(h > 2.0 * 100.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn panel_outside_grid_panics() {
        let mut d = Dashboard::new("x", 2, 2, 100.0, 100.0);
        d.place(1, 1, 2, 1, tile("too wide"));
    }

    #[test]
    fn alarm_list_rows_and_overflow() {
        let list = AlarmList {
            title: "Active alarms".to_string(),
            rows: (0..20)
                .map(|i| ("#d7191c".to_string(), format!("alarm {i}")))
                .collect(),
        };
        let svg = list.render_canvas(300.0, 150.0).finish();
        assert!(svg.contains("Active alarms"));
        assert!(svg.contains("alarm 0"));
        assert!(svg.contains("more"), "overflow summary missing");
        // Empty list case.
        let empty = AlarmList {
            title: "Active alarms".to_string(),
            rows: vec![],
        };
        let svg = empty.render_canvas(300.0, 150.0).finish();
        assert!(svg.contains("no active alarms"));
    }

    #[test]
    fn span_size_accounts_for_gaps() {
        let d = Dashboard::new("x", 4, 4, 100.0, 50.0);
        assert_eq!(d.span_size(1, 1), (100.0, 50.0));
        assert_eq!(d.span_size(2, 1).0, 210.0);
        assert_eq!(d.span_size(1, 3).1, 170.0);
    }
}
