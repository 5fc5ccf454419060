//! Minimal SVG document builder.
//!
//! All CTT visualizations render to standalone SVG files; this module is
//! the only place that writes SVG syntax. A render is one pass into one
//! growing buffer: every primitive appends to the canvas body through one
//! number writer (`push_fixed2`) and one string writer (`push_escaped`),
//! with no per-element `String`.

use std::fmt::Write as _;

/// Escape text content / attribute values.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Append `s` escaped. The unescaped runs between `& < > "` are copied as
/// they stand, so a string with nothing to escape is one `push_str`.
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| matches!(b, b'&' | b'<' | b'>' | b'"'))
    {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Append `v` exactly as `{v:.2}` prints it.
///
/// `{:.2}` rounds the exact binary value of `v` to the nearest hundredth,
/// so `round(|v|·100)` is the same number whenever the rounding direction
/// of the computed product is that of the exact one. The one multiply is
/// off by at most half an ulp (< 1e-8 below 1e8), so a scaled fraction
/// farther than 1e-6 from the .5 tie cannot have crossed it. Anything
/// nearer the tie, 1e6 and beyond, NaN and ±inf go through `core::fmt`.
fn push_fixed2(out: &mut String, v: f64) {
    let scaled = v.abs() * 100.0;
    if scaled < 1e8 {
        let whole = scaled as u32;
        let frac = scaled - f64::from(whole);
        if (frac - 0.5).abs() > 1e-6 {
            let mut n = whole + u32::from(frac > 0.5);
            let mut buf = [b'0'; 12];
            let mut at = buf.len();
            // Two fraction digits and at least one integer digit.
            while n > 0 || at > buf.len() - 3 {
                at -= 1;
                buf[at] = b'0' + (n % 10) as u8;
                n /= 10;
            }
            // `{:.2}` keeps the sign of -0.0 and of negatives rounding to zero.
            if v.is_sign_negative() {
                out.push('-');
            }
            let (int, fr) = buf[at..].split_at(buf.len() - 2 - at);
            out.extend(int.iter().map(|&b| char::from(b)));
            out.push('.');
            out.extend(fr.iter().map(|&b| char::from(b)));
            return;
        }
    }
    let _ = write!(out, "{v:.2}");
}

/// Text anchor for labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Anchor {
    /// Left-aligned.
    #[default]
    Start,
    /// Centred.
    Middle,
    /// Right-aligned.
    End,
}

impl Anchor {
    fn attr(self) -> &'static str {
        match self {
            Anchor::Start => "start",
            Anchor::Middle => "middle",
            Anchor::End => "end",
        }
    }
}

/// An SVG canvas accumulating elements.
#[derive(Debug, Clone)]
pub struct Canvas {
    width: f64,
    height: f64,
    body: String,
}

impl Canvas {
    /// A canvas of the given pixel size.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && height > 0.0);
        Canvas {
            width,
            height,
            body: String::new(),
        }
    }

    /// Canvas width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Canvas height.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// ` name="` + fixed-2 number + `"`; `lead` also opens the element.
    fn num_attr(&mut self, lead: &str, v: f64) {
        self.body.push_str(lead);
        push_fixed2(&mut self.body, v);
        self.body.push('"');
    }

    /// ` name="` + escaped string + `"`.
    fn str_attr(&mut self, lead: &str, s: &str) {
        self.body.push_str(lead);
        push_escaped(&mut self.body, s);
        self.body.push('"');
    }

    /// ` stroke=".." stroke-width=".."`; the width in its shortest form.
    fn stroke_attrs(&mut self, color: &str, width: f64) {
        self.str_attr(" stroke=\"", color);
        let _ = write!(self.body, " stroke-width=\"{width}\"");
    }

    /// Optional stroke attributes, then the element's end.
    fn stroke_and_close(&mut self, stroke: Option<(&str, f64)>) {
        if let Some((color, width)) = stroke {
            self.stroke_attrs(color, width);
        }
        self.body.push_str("/>\n");
    }

    /// `x,y x,y …` for polylines and polygons.
    fn points(&mut self, points: impl Iterator<Item = (f64, f64)>) {
        for (i, (x, y)) in points.enumerate() {
            if i > 0 {
                self.body.push(' ');
            }
            push_fixed2(&mut self.body, x);
            self.body.push(',');
            push_fixed2(&mut self.body, y);
        }
    }

    /// Filled background rectangle.
    pub fn background(&mut self, fill: &str) {
        let (w, h) = (self.width, self.height);
        self.rect(0.0, 0.0, w, h, fill, None);
    }

    /// Rectangle with optional stroke `(color, width)`.
    pub fn rect(
        &mut self,
        x: f64,
        y: f64,
        w: f64,
        h: f64,
        fill: &str,
        stroke: Option<(&str, f64)>,
    ) {
        self.num_attr("<rect x=\"", x);
        self.num_attr(" y=\"", y);
        self.num_attr(" width=\"", w);
        self.num_attr(" height=\"", h);
        self.str_attr(" fill=\"", fill);
        self.stroke_and_close(stroke);
    }

    /// Circle.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str, stroke: Option<(&str, f64)>) {
        self.num_attr("<circle cx=\"", cx);
        self.num_attr(" cy=\"", cy);
        self.num_attr(" r=\"", r);
        self.str_attr(" fill=\"", fill);
        self.stroke_and_close(stroke);
    }

    /// `<line …` up to and including `stroke-width`, left open.
    fn open_line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.num_attr("<line x1=\"", x1);
        self.num_attr(" y1=\"", y1);
        self.num_attr(" x2=\"", x2);
        self.num_attr(" y2=\"", y2);
        self.stroke_attrs(stroke, width);
    }

    /// Straight line.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.open_line(x1, y1, x2, y2, stroke, width);
        self.body.push_str("/>\n");
    }

    /// Dashed line.
    pub fn dashed_line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.open_line(x1, y1, x2, y2, stroke, width);
        self.body.push_str(" stroke-dasharray=\"4 3\"/>\n");
    }

    /// Polyline (unfilled path through points) over points mapped on the
    /// fly, so a chart streams its series into the canvas without collecting
    /// them first.
    pub(crate) fn polyline_from(
        &mut self,
        points: impl ExactSizeIterator<Item = (f64, f64)>,
        stroke: &str,
        width: f64,
    ) {
        if points.len() < 2 {
            return;
        }
        self.body.push_str("<polyline points=\"");
        self.points(points);
        self.body.push_str("\" fill=\"none\"");
        self.stroke_and_close(Some((stroke, width)));
    }

    /// Filled polygon.
    pub fn polygon(&mut self, points: &[(f64, f64)], fill: &str, stroke: Option<(&str, f64)>) {
        if points.len() < 3 {
            return;
        }
        self.body.push_str("<polygon points=\"");
        self.points(points.iter().copied());
        self.str_attr("\" fill=\"", fill);
        self.stroke_and_close(stroke);
    }

    /// Text label. `size` in px.
    pub fn text(&mut self, x: f64, y: f64, size: f64, fill: &str, anchor: Anchor, content: &str) {
        self.num_attr("<text x=\"", x);
        self.num_attr(" y=\"", y);
        let _ = write!(
            self.body,
            " font-size=\"{size}\" font-family=\"sans-serif\""
        );
        self.str_attr(" fill=\"", fill);
        self.body.push_str(" text-anchor=\"");
        self.body.push_str(anchor.attr());
        self.body.push_str("\">");
        push_escaped(&mut self.body, content);
        self.body.push_str("</text>\n");
    }

    /// Embed another canvas's body translated to `(x, y)` (dashboard
    /// composition).
    pub fn embed(&mut self, x: f64, y: f64, inner: &Canvas) {
        self.body.reserve(inner.body.len() + 64);
        self.body.push_str("<g transform=\"translate(");
        push_fixed2(&mut self.body, x);
        self.body.push(',');
        push_fixed2(&mut self.body, y);
        self.body.push_str(")\">\n");
        self.body.push_str(&inner.body);
        self.body.push_str("</g>\n");
    }

    /// Finish, producing the complete SVG document.
    pub fn finish(self) -> String {
        // Fixed text (83 bytes) plus four `{:.0}` numbers.
        let mut doc = String::with_capacity(self.body.len() + 128);
        let (w, h) = (self.width, self.height);
        let _ = writeln!(
            doc,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.0}\" height=\"{h:.0}\" viewBox=\"0 0 {w:.0} {h:.0}\">"
        );
        doc.push_str(&self.body);
        doc.push_str("</svg>\n");
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn document_structure() {
        let mut c = Canvas::new(200.0, 100.0);
        c.background("#ffffff");
        c.circle(10.0, 10.0, 5.0, "red", None);
        let svg = c.finish();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("viewBox=\"0 0 200 100\""));
        assert!(svg.contains("<circle"));
        assert!(svg.contains("<rect"));
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        let mut c = Canvas::new(10.0, 10.0);
        c.text(0.0, 0.0, 10.0, "#000", Anchor::Start, "x < y & z");
        let svg = c.finish();
        assert!(svg.contains("x &lt; y &amp; z"));
    }

    #[test]
    fn polyline_needs_two_points() {
        let mut c = Canvas::new(10.0, 10.0);
        c.polyline_from([(0.0, 0.0)].into_iter(), "#000", 1.0);
        assert!(!c.clone().finish().contains("polyline"));
        c.polyline_from([(0.0, 0.0), (5.0, 5.0)].into_iter(), "#000", 1.0);
        assert!(c.finish().contains("polyline"));
    }

    #[test]
    fn polygon_needs_three_points() {
        let mut c = Canvas::new(10.0, 10.0);
        c.polygon(&[(0.0, 0.0), (5.0, 5.0)], "#000", None);
        assert!(!c.clone().finish().contains("polygon"));
        c.polygon(
            &[(0.0, 0.0), (5.0, 5.0), (0.0, 5.0)],
            "#000",
            Some(("#111", 0.5)),
        );
        let svg = c.finish();
        assert!(svg.contains("polygon"));
        assert!(svg.contains("stroke=\"#111\""));
    }

    #[test]
    fn embed_translates() {
        let mut inner = Canvas::new(50.0, 50.0);
        inner.circle(1.0, 1.0, 1.0, "blue", None);
        let mut outer = Canvas::new(100.0, 100.0);
        outer.embed(25.0, 30.0, &inner);
        let svg = outer.finish();
        assert!(svg.contains("translate(25.00,30.00)"));
        assert!(svg.contains("<circle"));
    }

    #[test]
    fn anchors_and_stroke_attrs() {
        let mut c = Canvas::new(10.0, 10.0);
        c.text(5.0, 5.0, 8.0, "#333", Anchor::Middle, "hi");
        c.rect(0.0, 0.0, 2.0, 2.0, "none", Some(("#f00", 1.5)));
        c.dashed_line(0.0, 0.0, 3.0, 3.0, "#999", 1.0);
        let svg = c.finish();
        assert!(svg.contains("text-anchor=\"middle\""));
        assert!(svg.contains("stroke-width=\"1.5\""));
        assert!(svg.contains("stroke-dasharray"));
    }

    #[test]
    #[should_panic]
    fn zero_size_canvas_rejected() {
        Canvas::new(0.0, 100.0);
    }

    fn fixed2(v: f64) -> String {
        let mut out = String::new();
        push_fixed2(&mut out, v);
        out
    }

    #[test]
    fn fixed2_table() {
        for (v, want) in [
            (0.0, "0.00"),
            (-0.0, "-0.00"),
            (-0.001, "-0.00"),
            (0.005, "0.01"),
            (0.015, "0.01"),
            (0.025, "0.03"),
            (0.125, "0.12"),
            (0.375, "0.38"),
            (999_999.994_999, "999999.99"),
            (999_999.995, "999999.99"),
            (999_999.996, "1000000.00"),
            (1e6, "1000000.00"),
            (-1234.5678, "-1234.57"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (1e-300, "0.00"),
            (1e300, &format!("{:.2}", 1e300)),
        ] {
            assert_eq!(fixed2(v), want, "{v:e}");
            assert_eq!(fixed2(v), format!("{v:.2}"), "{v:e}");
        }
    }

    proptest! {
        #[test]
        fn fixed2_matches_fmt_on_arbitrary_bits(bits in vec(any::<u64>(), 512..513)) {
            for v in bits.into_iter().map(f64::from_bits) {
                prop_assert_eq!(fixed2(v), format!("{v:.2}"), "bits {:#x}", v.to_bits());
            }
        }

        #[test]
        fn fixed2_matches_fmt_on_pixel_range(vs in vec(-2000.0..4000.0f64, 512..513)) {
            for v in vs {
                prop_assert_eq!(fixed2(v), format!("{v:.2}"), "{v:e}");
            }
        }

        /// The hundredths' ties `k/200`, exact and a few ulps to either
        /// side, both signs: where the rounding direction is decided.
        #[test]
        fn fixed2_matches_fmt_around_ties(ks in vec(0u64..220_000_000, 128..129)) {
            for k in ks {
                let tie = k as f64 / 200.0;
                for ulps in 0..4u64 {
                    for bits in [tie.to_bits() + ulps, tie.to_bits().saturating_sub(ulps)] {
                        for v in [f64::from_bits(bits), -f64::from_bits(bits)] {
                            prop_assert_eq!(fixed2(v), format!("{v:.2}"), "{v:e}");
                        }
                    }
                }
            }
        }

        #[test]
        fn escape_matches_chained_replace(
            any_chars in vec(0u32..0x11_0000, 0..24),
            special in "[a-z&<>\"'é€ ]{0,24}",
        ) {
            let arbitrary: String = any_chars.into_iter().filter_map(char::from_u32).collect();
            for s in [arbitrary, special] {
                let reference = s
                    .replace('&', "&amp;")
                    .replace('<', "&lt;")
                    .replace('>', "&gt;")
                    .replace('"', "&quot;");
                prop_assert_eq!(escape(&s), reference.clone());
                let mut out = String::from("x");
                push_escaped(&mut out, &s);
                prop_assert_eq!(out, format!("x{reference}"));
            }
        }
    }
}
