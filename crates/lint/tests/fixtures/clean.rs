//! A hot-path lib.rs that satisfies every ctt-lint rule.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use ctt_core::units::Ppm;

/// Panic-free head access.
pub fn head(values: &[f64]) -> Option<f64> {
    values.first().copied()
}

/// Unit-safe public signature: the unit lives in the type.
pub fn record_co2(reading: Ppm) -> f64 {
    reading.0
}

/// A slice pattern after `let` is not indexing.
pub fn split_head(values: &[f64]) -> Option<(f64, usize)> {
    if let [head, rest @ ..] = values {
        return Some((*head, rest.len()));
    }
    None
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(Some(1).unwrap(), 1);
    }
}
