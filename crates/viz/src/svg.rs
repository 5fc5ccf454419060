//! Minimal SVG document builder.
//!
//! All CTT visualizations render to standalone SVG files; this module is
//! the only place that writes SVG syntax. A render is one pass into one
//! byte buffer, sized once from the canvas's element count and opened with
//! the document's header, so finishing it appends the closing tag and
//! copies nothing. Every primitive appends to it through one number kernel
//! ([`fixed`]: a number's text built in a register and stored whole) and
//! one string writer (`push_escaped`), with no per-element `String`.

use std::io::Write as _;

/// Escape text content / attribute values.
pub fn escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    push_escaped(&mut out, s);
    String::from_utf8(out).unwrap_or_default()
}

/// Append `s` escaped. The unescaped runs between `& < > "` are copied as
/// they stand, so a string with nothing to escape is one copy.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    let mut rest = s.as_bytes();
    while let Some(i) = rest
        .iter()
        .position(|b| matches!(b, b'&' | b'<' | b'>' | b'"'))
    {
        out.extend_from_slice(&rest[..i]);
        out.extend_from_slice(match rest[i] {
            b'&' => b"&amp;",
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            _ => b"&quot;",
        });
        rest = &rest[i + 1..];
    }
    out.extend_from_slice(rest);
}

/// `00` to `99`, two ASCII digits each.
const PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/// The two ASCII digits of `x % 100`, the first in the low byte.
#[inline]
fn pair(x: u32) -> u64 {
    let i = (x % 100) as usize * 2;
    u64::from(u16::from_le_bytes([PAIRS[i], PAIRS[i + 1]]))
}

/// `v` exactly as `{v:.N}` prints it, `N` = `D` (0 to 2), for an integer
/// part below 10⁴ — every coordinate on a canvas: the text's bytes
/// (first in the low byte) and their count, at most a sign, four digits, a
/// point and two. `None` from 10⁴ on, and where only `core::fmt` can tell.
/// `D` is a constant, so every division here is by a constant, and the
/// text is built in one register with no branch on its length.
///
/// `{:.N}` rounds the exact binary value of `v` to the nearest `10^-N`, so
/// `round(|v|·10^N)` is the same number whenever the rounding direction of
/// the computed product is that of the exact one. The one multiply is off
/// by at most half an ulp (< 1e-8 below 1e8), so a scaled fraction farther
/// than 1e-6 from the .5 tie cannot have crossed it. Anything nearer the
/// tie, NaN and ±inf answer `None`.
#[inline]
fn fixed<const D: usize>(v: f64) -> Option<(u64, usize)> {
    let (decimals, unit) = match D {
        0 => (0, 1),
        1 => (1, 10),
        _ => (2, 100),
    };
    let scaled = v.abs() * f64::from(unit);
    if scaled.is_nan() || scaled >= f64::from(10_000 * unit) {
        return None;
    }
    let whole = scaled as u32;
    let frac = scaled - f64::from(whole);
    if (frac - 0.5).abs() <= 1e-6 {
        return None;
    }
    let n = whole + u32::from(frac > 0.5);
    let int = n / unit;
    if int >= 10_000 {
        return None;
    }
    // Four integer digits, then the point and the fraction.
    let mut text = pair(int / 100) | pair(int) << 16;
    match decimals {
        0 => {}
        1 => text |= u64::from(b'.') << 32 | u64::from(b'0' + (n % 10) as u8) << 40,
        _ => text |= u64::from(b'.') << 32 | pair(n) << 40,
    }
    // Drop the integer part's leading zeros; `{:.N}` keeps the sign of
    // -0.0 and of negatives rounding to zero.
    let digits = 1 + usize::from(int >= 10) + usize::from(int >= 100) + usize::from(int >= 1000);
    text >>= 8 * (4 - digits);
    let sign = usize::from(v.is_sign_negative());
    if sign == 1 {
        text = text << 8 | u64::from(b'-');
    }
    Some((text, sign + digits + usize::from(decimals > 0) + decimals))
}

/// Append [`fixed`]'s text: all eight bytes in one store, then the bytes
/// past the text cut off.
#[inline]
fn push_text(out: &mut Vec<u8>, (text, len): (u64, usize)) {
    let at = out.len();
    out.extend_from_slice(&text.to_le_bytes());
    out.truncate(at + len);
}

/// Append `v` exactly as `{v:.N}` prints it, `N` = `decimals` (0 to 2):
/// [`fixed`]'s text, or `core::fmt` where it cannot tell.
#[inline]
fn push_fixed(out: &mut Vec<u8>, v: f64, decimals: usize) {
    let text = match decimals {
        0 => fixed::<0>(v),
        1 => fixed::<1>(v),
        _ => fixed::<2>(v),
    };
    match text {
        Some(text) => push_text(out, text),
        None => {
            let _ = write!(out, "{v:.decimals$}");
        }
    }
}

/// Append `v` exactly as `{v}` (f64 `Display`, the shortest form that
/// reads back as `v`) prints it. A non-negative whole number of tenths
/// below 10⁴ — every stroke width and font size here — prints as its
/// decimal digits: `t / 10.0` is the double nearest `t/10`, so that string
/// reads back as `v`, and any other string within the doubles' spacing of
/// `t/10` is longer. Everything else goes through `core::fmt`.
fn push_shortest(out: &mut Vec<u8>, v: f64) {
    let tenths = (v * 10.0).round();
    if v.is_sign_positive() && tenths / 10.0 == v {
        if let Some((text, len)) = fixed::<1>(v) {
            // `{v}` prints a whole number without a fraction.
            let whole = text.to_le_bytes()[..len].ends_with(b".0");
            push_text(out, (text, len - 2 * usize::from(whole)));
            return;
        }
    }
    let _ = write!(out, "{v}");
}

/// Append `x,y x,y …`, each coordinate exactly as `{:.2}` prints it: the
/// point kernel. Each coordinate's text is built in a register and stored
/// straight into the document ([`fixed`]); `core::fmt` takes only one it
/// cannot tell.
fn push_points(out: &mut Vec<u8>, points: impl Iterator<Item = (f64, f64)>) {
    for (i, (x, y)) in points.enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        push_fixed(out, x, 2);
        out.push(b',');
        push_fixed(out, y, 2);
    }
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

/// Bytes an element takes at most besides its text and its points: the
/// longest, a `<text>` with every attribute, runs to about 110.
const ELEMENT_BYTES: usize = 128;

/// An SVG canvas accumulating elements.
#[derive(Debug, Clone)]
pub struct Canvas {
    width: f64,
    height: f64,
    /// The document so far, ASCII and escaped UTF-8: its header, then the
    /// body.
    doc: Vec<u8>,
    /// Where the body starts.
    head: usize,
}

/// The document's closing tag.
const CLOSE: &[u8] = b"</svg>\n";

impl Canvas {
    /// A canvas of the given pixel size.
    pub fn new(width: f64, height: f64) -> Self {
        Canvas::sized(width, height, 0, 0, 0)
    }

    /// A canvas whose buffer is sized once for `elements` elements holding
    /// `points` points on the canvas and `text` bytes of text content (and
    /// embedded bodies). It grows only past that.
    pub(crate) fn sized(
        width: f64,
        height: f64,
        elements: usize,
        points: usize,
        text: usize,
    ) -> Self {
        assert!(width > 0.0 && height > 0.0);
        // A point on the canvas: ` x.xx,y.yy`, its integer digits those of
        // the canvas size.
        let digits = |v: f64| v.log10().floor().clamp(0.0, 19.0) as usize + 1;
        let point = digits(width) + digits(height) + 8;
        let body = elements * ELEMENT_BYTES + points * point + text;
        // Fixed text (83 bytes) plus four `{:.0}` numbers.
        let mut doc = Vec::with_capacity(128 + body + CLOSE.len());
        doc.extend_from_slice(b"<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"");
        push_fixed(&mut doc, width, 0);
        doc.extend_from_slice(b"\" height=\"");
        push_fixed(&mut doc, height, 0);
        doc.extend_from_slice(b"\" viewBox=\"0 0 ");
        push_fixed(&mut doc, width, 0);
        doc.push(b' ');
        push_fixed(&mut doc, height, 0);
        doc.extend_from_slice(b"\">\n");
        let head = doc.len();
        Canvas {
            width,
            height,
            doc,
            head,
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

    /// The elements drawn so far, without the document's header.
    pub(crate) fn body(&self) -> &[u8] {
        self.doc.get(self.head..).unwrap_or_default()
    }

    /// ` name="` + fixed-2 number + `"`; `lead` also opens the element.
    fn num_attr(&mut self, lead: &str, v: f64) {
        self.doc.extend_from_slice(lead.as_bytes());
        push_fixed(&mut self.doc, v, 2);
        self.doc.push(b'"');
    }

    /// ` name="` + escaped string + `"`.
    fn str_attr(&mut self, lead: &str, s: &str) {
        self.doc.extend_from_slice(lead.as_bytes());
        push_escaped(&mut self.doc, s);
        self.doc.push(b'"');
    }

    /// ` stroke=".." stroke-width=".."`; the width in its shortest form.
    fn stroke_attrs(&mut self, color: &str, width: f64) {
        self.str_attr(" stroke=\"", color);
        self.doc.extend_from_slice(b" stroke-width=\"");
        push_shortest(&mut self.doc, width);
        self.doc.push(b'"');
    }

    /// Optional stroke attributes, then the element's end.
    fn stroke_and_close(&mut self, stroke: Option<(&str, f64)>) {
        if let Some((color, width)) = stroke {
            self.stroke_attrs(color, width);
        }
        self.doc.extend_from_slice(b"/>\n");
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
        self.doc.extend_from_slice(b"/>\n");
    }

    /// Dashed line.
    pub fn dashed_line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.open_line(x1, y1, x2, y2, stroke, width);
        self.doc.extend_from_slice(b" stroke-dasharray=\"4 3\"/>\n");
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
        self.doc.extend_from_slice(b"<polyline points=\"");
        push_points(&mut self.doc, points);
        self.doc.extend_from_slice(b"\" fill=\"none\"");
        self.stroke_and_close(Some((stroke, width)));
    }

    /// Filled polygon.
    pub fn polygon(&mut self, points: &[(f64, f64)], fill: &str, stroke: Option<(&str, f64)>) {
        if points.len() < 3 {
            return;
        }
        self.doc.extend_from_slice(b"<polygon points=\"");
        push_points(&mut self.doc, points.iter().copied());
        self.str_attr("\" fill=\"", fill);
        self.stroke_and_close(stroke);
    }

    /// `<text …>` up to and including the start tag's end.
    fn open_text(&mut self, x: f64, y: f64, size: f64, fill: &str, anchor: Anchor) {
        self.num_attr("<text x=\"", x);
        self.num_attr(" y=\"", y);
        self.doc.extend_from_slice(b" font-size=\"");
        push_shortest(&mut self.doc, size);
        self.doc.extend_from_slice(b"\" font-family=\"sans-serif\"");
        self.str_attr(" fill=\"", fill);
        self.doc.extend_from_slice(b" text-anchor=\"");
        self.doc.extend_from_slice(anchor.attr().as_bytes());
        self.doc.extend_from_slice(b"\">");
    }

    /// Text label. `size` in px.
    pub fn text(&mut self, x: f64, y: f64, size: f64, fill: &str, anchor: Anchor, content: &str) {
        self.open_text(x, y, size, fill, anchor);
        push_escaped(&mut self.doc, content);
        self.doc.extend_from_slice(b"</text>\n");
    }

    /// Text label holding `v` as `{v:.N}` prints it, `N` = `decimals` (0
    /// to 2): what [`Canvas::text`] of that string writes, without the
    /// string.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn number(
        &mut self,
        x: f64,
        y: f64,
        size: f64,
        fill: &str,
        anchor: Anchor,
        v: f64,
        decimals: usize,
    ) {
        self.open_text(x, y, size, fill, anchor);
        push_fixed(&mut self.doc, v, decimals);
        self.doc.extend_from_slice(b"</text>\n");
    }

    /// Embed another canvas's body translated to `(x, y)` (dashboard
    /// composition): the one copy of its elements.
    pub fn embed(&mut self, x: f64, y: f64, inner: &Canvas) {
        self.doc.extend_from_slice(b"<g transform=\"translate(");
        push_points(&mut self.doc, std::iter::once((x, y)));
        self.doc.extend_from_slice(b")\">\n");
        self.doc.extend_from_slice(inner.body());
        self.doc.extend_from_slice(b"</g>\n");
    }

    /// Finish, producing the complete SVG document: the buffer, closed.
    /// Every byte came from a `&str` or is ASCII, so it is UTF-8.
    pub fn finish(mut self) -> String {
        self.doc.extend_from_slice(CLOSE);
        String::from_utf8(self.doc).unwrap_or_default()
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

    /// What a writer appends to an empty buffer, as text.
    fn written(write: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        write(&mut out);
        String::from_utf8(out).expect("ASCII")
    }

    fn fixed2(v: f64) -> String {
        written(|out| push_fixed(out, v, 2))
    }

    /// `format!("{x:.2},{y:.2}")` per point, joined by single spaces: what
    /// the point kernel must write.
    fn points_by_fmt(points: &[(f64, f64)]) -> String {
        let texts: Vec<String> = points
            .iter()
            .map(|(x, y)| format!("{x:.2},{y:.2}"))
            .collect();
        texts.join(" ")
    }

    /// Values at the kernel's edges: signed zeros, specials, the 10⁴ limit
    /// of its fast path, 1e6 and the hundredths' ties `k/200` a few ulps
    /// either side.
    fn edge(pick: u64) -> f64 {
        // Half the ties below 10⁴, where the fast path decides them.
        let k = (pick >> 8)
            % if pick & 4 == 0 {
                2_000_001
            } else {
                220_000_001
            };
        let tie = k as f64 / 200.0;
        let ulps = (pick >> 4) % 5;
        let near = if pick & 1 == 0 {
            f64::from_bits(tie.to_bits() + ulps)
        } else {
            f64::from_bits(tie.to_bits().saturating_sub(ulps))
        };
        let v = match pick % 16 {
            0 => 0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => f64::from_bits(1e6f64.to_bits() - ulps),
            4 => f64::from_bits(1e6f64.to_bits() + ulps),
            5 => 9_999.995 + ulps as f64 * 1e-3,
            6 => f64::from_bits(1e4f64.to_bits() - ulps),
            7 => f64::from_bits(1e4f64.to_bits() + ulps),
            _ => near,
        };
        if pick & 2 == 0 {
            v
        } else {
            -v
        }
    }

    #[test]
    fn point_kernel_table() {
        let points = [
            (0.0, -0.0),
            (56.0, 220.0),
            (0.005, 0.015),
            (-0.001, 999_999.995),
            (1e6, f64::NAN),
            (f64::INFINITY, f64::NEG_INFINITY),
            (1e300, -1234.5678),
        ];
        for n in 0..=points.len() {
            let got = written(|out| push_points(out, points[..n].iter().copied()));
            assert_eq!(got, points_by_fmt(&points[..n]));
        }
    }

    #[test]
    fn shortest_form_table() {
        for v in [
            1.0,
            0.6,
            1.4,
            13.0,
            0.0,
            -0.0,
            0.25,
            1e6,
            1e-7,
            123_456.7,
            f64::NAN,
        ] {
            assert_eq!(
                written(|out| push_shortest(out, v)),
                format!("{v}"),
                "{v:e}"
            );
        }
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

        /// The point kernel writes `format!("{x:.2},{y:.2}")` per point,
        /// joined by single spaces, for arbitrary bit patterns and for the
        /// edges of its fast path: NaN, ±inf, −0.0, around 10⁴ and 1e6, the
        /// hundredths' ties k/200 ± 4 ulps.
        #[test]
        fn point_kernel_matches_fmt(
            bits in vec(any::<u64>(), 0..64),
            picks in vec(any::<u64>(), 0..64),
        ) {
            let arbitrary: Vec<(f64, f64)> = bits
                .chunks(2)
                .map(|c| (f64::from_bits(c[0]), f64::from_bits(c[c.len() - 1])))
                .collect();
            let edges: Vec<(f64, f64)> = picks
                .chunks(2)
                .map(|c| (edge(c[0]), edge(c[c.len() - 1])))
                .collect();
            let mixed: Vec<(f64, f64)> = arbitrary
                .iter()
                .zip(&edges)
                .map(|(&(x, _), &(_, y))| (x, y))
                .collect();
            for points in [arbitrary, edges, mixed] {
                let got = written(|out| push_points(out, points.iter().copied()));
                prop_assert_eq!(got, points_by_fmt(&points));
            }
        }

        /// `{v:.0}` and `{v:.1}` as the tick labels and the header use them,
        /// and `{v}` as stroke widths and font sizes use it.
        #[test]
        fn fixed_and_shortest_match_fmt(
            bits in vec(any::<u64>(), 64..65),
            tenths in vec(0u32..10_000_000, 64..65),
            picks in vec(any::<u64>(), 64..65),
        ) {
            let values = bits
                .into_iter()
                .map(f64::from_bits)
                .chain(tenths.into_iter().map(|t| f64::from(t) / 10.0))
                .chain(picks.into_iter().map(edge));
            for v in values {
                prop_assert_eq!(written(|out| push_fixed(out, v, 0)), format!("{v:.0}"));
                prop_assert_eq!(written(|out| push_fixed(out, v, 1)), format!("{v:.1}"));
                prop_assert_eq!(written(|out| push_shortest(out, v)), format!("{v}"));
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
                let out = written(|out| {
                    out.push(b'x');
                    push_escaped(out, &s);
                });
                prop_assert_eq!(out, format!("x{reference}"));
            }
        }
    }
}
