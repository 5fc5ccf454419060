//! Colour palettes and value ramps.

/// Categorical palette (colour-blind-safe Okabe–Ito order).
pub const CATEGORY: [&str; 8] = [
    "#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442", "#000000",
];

/// Colour for a categorical index (wraps).
pub fn category(i: usize) -> &'static str {
    CATEGORY[i % CATEGORY.len()]
}

/// Parse `#rrggbb` to components. A channel that is missing, not hex, or
/// not on a character boundary (named, 3-digit, non-ASCII colours) reads 0.
fn parse_hex(c: &str) -> (u8, u8, u8) {
    let h = c.trim_start_matches('#');
    let channel = |at: usize| {
        h.get(at..at + 2)
            .and_then(|d| u8::from_str_radix(d, 16).ok())
            .unwrap_or(0)
    };
    (channel(0), channel(2), channel(4))
}

/// Append `#rrggbb` (lower-case, as `{:02x}` writes it) to `out`.
fn push_hex(out: &mut String, r: u8, g: u8, b: u8) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.push('#');
    for c in [r, g, b] {
        out.push(char::from(DIGITS[usize::from(c >> 4)]));
        out.push(char::from(DIGITS[usize::from(c & 0xf)]));
    }
}

fn to_hex(r: u8, g: u8, b: u8) -> String {
    let mut out = String::with_capacity(7);
    push_hex(&mut out, r, g, b);
    out
}

/// Interpolate between two hex colours, `t` in [0, 1], writing the result
/// into `out` in place of what it held.
pub fn lerp_into(out: &mut String, a: &str, b: &str, t: f64) {
    let t = t.clamp(0.0, 1.0);
    let (ar, ag, ab) = parse_hex(a);
    let (br, bg, bb) = parse_hex(b);
    let mix = |x: u8, y: u8| (f64::from(x) + (f64::from(y) - f64::from(x)) * t).round() as u8;
    out.clear();
    push_hex(out, mix(ar, br), mix(ag, bg), mix(ab, bb));
}

/// Multi-stop sequential ramp (cold → hot) for pollution intensity.
const RAMP: [&str; 5] = ["#2c7bb6", "#abd9e9", "#ffffbf", "#fdae61", "#d7191c"];

/// Map `t` in [0, 1] through the sequential ramp, writing the colour into
/// `out` in place of what it held: a caller colouring many cells reuses
/// one buffer.
pub fn ramp_into(out: &mut String, t: f64) {
    let t = t.clamp(0.0, 1.0);
    let scaled = t * (RAMP.len() - 1) as f64;
    let i = (scaled.floor() as usize).min(RAMP.len() - 2);
    lerp_into(out, RAMP[i], RAMP[i + 1], scaled - i as f64);
}

/// Scale a hex colour's brightness by `f` (0..1 darkens).
pub fn shade(c: &str, f: f64) -> String {
    let (r, g, b) = parse_hex(c);
    let s = |x: u8| ((f64::from(x)) * f.clamp(0.0, 1.0)).round() as u8;
    to_hex(s(r), s(g), s(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lerp(a: &str, b: &str, t: f64) -> String {
        let mut out = String::new();
        lerp_into(&mut out, a, b, t);
        out
    }

    fn ramp(t: f64) -> String {
        let mut out = String::new();
        ramp_into(&mut out, t);
        out
    }

    #[test]
    fn hex_matches_the_format_macro_for_every_channel_value() {
        for c in 0..=255u8 {
            assert_eq!(
                to_hex(c, 255 - c, c / 3),
                format!("#{c:02x}{:02x}{:02x}", 255 - c, c / 3)
            );
        }
    }

    #[test]
    fn ramp_into_replaces_what_the_buffer_held() {
        let mut out = String::from("#123456 and more");
        ramp_into(&mut out, 0.0);
        assert_eq!(out, RAMP[0]);
        ramp_into(&mut out, 1.0);
        assert_eq!(out, RAMP[RAMP.len() - 1]);
    }

    #[test]
    fn categories_wrap() {
        assert_eq!(category(0), CATEGORY[0]);
        assert_eq!(category(8), CATEGORY[0]);
        assert_eq!(category(9), CATEGORY[1]);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        assert_eq!(lerp("#000000", "#ffffff", 0.0), "#000000");
        assert_eq!(lerp("#000000", "#ffffff", 1.0), "#ffffff");
        assert_eq!(lerp("#000000", "#ffffff", 0.5), "#808080");
        // Clamped.
        assert_eq!(lerp("#000000", "#ffffff", 2.0), "#ffffff");
    }

    #[test]
    fn ramp_endpoints() {
        assert_eq!(ramp(0.0), RAMP[0]);
        assert_eq!(ramp(1.0), RAMP[RAMP.len() - 1]);
        // Midpoints produce valid hex.
        for i in 0..=10 {
            let c = ramp(f64::from(i) / 10.0);
            assert!(c.starts_with('#') && c.len() == 7, "{c}");
        }
    }

    #[test]
    fn colours_that_are_not_rrggbb_do_not_panic() {
        // Everything else in the crate takes these as plain strings.
        assert_eq!(shade("red", 0.5), "#000000");
        // Three digits: "ff" is a whole red channel, green and blue are absent.
        assert_eq!(lerp("#fff", "#000", 0.5), "#800000");
        assert_eq!(shade("", 1.0), "#000000");
        assert_eq!(shade("#", 1.0), "#000000");
        // Five digits: the blue channel is cut short.
        assert_eq!(shade("#12345", 1.0), "#123400");
        // A two-byte character across the red/green boundary; bytes 4..6 are "45".
        assert_eq!(shade("#1é3456", 1.0), "#000045");
        assert_eq!(lerp("blå", "grønn", 0.3), "#000000");
    }

    #[test]
    fn shading_darkens() {
        assert_eq!(shade("#808080", 0.5), "#404040");
        assert_eq!(shade("#ffffff", 0.0), "#000000");
        assert_eq!(shade("#123456", 1.0), "#123456");
    }
}
