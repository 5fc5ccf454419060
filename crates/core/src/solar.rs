//! Solar geometry for the sensor-node charging model.
//!
//! The CTT sensor units are solar powered; the paper's battery analysis
//! (Fig. 4) colours battery deltas by "whether the nodes could have been
//! charged by sunlight since the previous package". That requires knowing,
//! for a given position and instant, whether the sun is above the horizon and
//! roughly how strong the irradiance is. We use the standard low-precision
//! solar position algorithm (Cooper's declination formula + the hour angle),
//! which is accurate to a fraction of a degree — far more than the charging
//! model needs, and it reproduces the extreme seasonal swing of Nordic sites
//! (Trondheim at 63.4°N has ~4.5 h of daylight in late December and ~20.5 h
//! in late June).

use crate::geo::LatLon;
use crate::time::Timestamp;

/// Solar declination in radians for a given day of year (Cooper, 1969).
pub fn declination_rad(day_of_year: u16) -> f64 {
    let d = f64::from(day_of_year);
    (23.45_f64).to_radians() * (2.0 * std::f64::consts::PI * (284.0 + d) / 365.0).sin()
}

/// Solar elevation angle in degrees at `pos` and UTC time `ts`.
///
/// Longitude shifts local solar time by 4 minutes per degree; we ignore the
/// equation of time (±16 min), which is irrelevant for charging estimates.
pub fn elevation_deg(pos: LatLon, ts: Timestamp) -> f64 {
    let decl = declination_rad(ts.day_of_year());
    let lat = pos.lat_deg.to_radians();
    // Local solar time in fractional hours.
    let solar_hour = ts.seconds_of_day() as f64 / 3600.0 + pos.lon_deg / 15.0;
    let hour_angle = ((solar_hour - 12.0) * 15.0).to_radians();
    let sin_el = lat.sin() * decl.sin() + lat.cos() * decl.cos() * hour_angle.cos();
    sin_el.clamp(-1.0, 1.0).asin().to_degrees()
}

/// True if the sun is above the horizon at `pos` at time `ts`.
pub fn is_sunlit(pos: LatLon, ts: Timestamp) -> bool {
    elevation_deg(pos, ts) > 0.0
}

/// Clear-sky solar irradiance on a horizontal surface, in W/m².
///
/// A simple air-mass attenuation model: `I = 1361 * 0.7^(AM^0.678)` with
/// Kasten-Young air mass. Returns 0 when the sun is below the horizon.
pub fn clear_sky_irradiance_w_m2(pos: LatLon, ts: Timestamp) -> f64 {
    let el = elevation_deg(pos, ts);
    if el <= 0.0 {
        return 0.0;
    }
    let zenith = 90.0 - el;
    let air_mass = 1.0 / (el.to_radians().sin() + 0.50572 * (96.07995 - zenith).powf(-1.6364));
    let direct = 1361.0 * 0.7_f64.powf(air_mass.powf(0.678));
    // Horizontal component.
    direct * el.to_radians().sin()
}

/// True if the sun was above the horizon at any point in `[from, to]`
/// at `pos` (sampled every 5 minutes, plus endpoints).
///
/// This is the exact predicate the paper uses to colour Fig. 4 (right):
/// "red indicates whether the nodes could have been charged by sunlight
/// since the previous package".
pub fn sunlit_between(pos: LatLon, from: Timestamp, to: Timestamp) -> bool {
    if from > to {
        return sunlit_between(pos, to, from);
    }
    let mut t = from.0;
    while t <= to.0 {
        if is_sunlit(pos, Timestamp(t)) {
            return true;
        }
        t += 300;
    }
    is_sunlit(pos, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::LatLon;
    use crate::time::Timestamp;

    const TRONDHEIM: LatLon = LatLon {
        lat_deg: 63.4305,
        lon_deg: 10.3951,
    };
    const VEJLE: LatLon = LatLon {
        lat_deg: 55.7113,
        lon_deg: 9.5365,
    };
    const EQUATOR: LatLon = LatLon {
        lat_deg: 0.0,
        lon_deg: 0.0,
    };

    #[test]
    fn declination_extremes() {
        // Summer solstice ~ +23.45°, winter solstice ~ -23.45°.
        let summer = declination_rad(172).to_degrees();
        let winter = declination_rad(355).to_degrees();
        assert!((summer - 23.45).abs() < 0.5, "summer decl {summer}");
        assert!((winter + 23.45).abs() < 0.5, "winter decl {winter}");
        // Equinox near zero.
        let equinox = declination_rad(81).to_degrees();
        assert!(equinox.abs() < 1.5, "equinox decl {equinox}");
    }

    #[test]
    fn noon_is_brighter_than_midnight() {
        // At the June solstice the sun stands 23.45° north of the equator,
        // so equatorial noon elevation is ~66.5°.
        let noon = Timestamp::from_civil(2017, 6, 21, 12, 0, 0);
        let midnight = Timestamp::from_civil(2017, 6, 21, 0, 0, 0);
        assert!((elevation_deg(EQUATOR, noon) - 66.55).abs() < 1.0);
        assert!(elevation_deg(EQUATOR, midnight) < 0.0);
    }

    #[test]
    fn irradiance_zero_at_night_positive_at_noon() {
        let noon = Timestamp::from_civil(2017, 6, 21, 11, 0, 0); // ~solar noon at 10°E
        let night = Timestamp::from_civil(2017, 6, 21, 23, 30, 0);
        assert!(clear_sky_irradiance_w_m2(VEJLE, noon) > 500.0);
        // Midsummer night sun barely sets in Trondheim; test Vejle in winter.
        let winter_night = Timestamp::from_civil(2017, 12, 21, 22, 0, 0);
        assert_eq!(clear_sky_irradiance_w_m2(VEJLE, winter_night), 0.0);
        let _ = night;
    }

    #[test]
    fn irradiance_below_solar_constant() {
        for h in 0..24 {
            let t = Timestamp::from_civil(2017, 6, 21, h, 0, 0);
            let i = clear_sky_irradiance_w_m2(EQUATOR, t);
            assert!((0.0..=1100.0).contains(&i), "irradiance {i} at hour {h}");
        }
    }

    #[test]
    fn sunlit_between_detects_daylight_window() {
        // Winter Trondheim: dark at 08:00, light by 12:00.
        let morning = Timestamp::from_civil(2017, 12, 21, 6, 0, 0);
        let noon = Timestamp::from_civil(2017, 12, 21, 11, 30, 0);
        assert!(!is_sunlit(TRONDHEIM, morning));
        assert!(is_sunlit(TRONDHEIM, noon));
        assert!(sunlit_between(TRONDHEIM, morning, noon));
        // A fully-dark interval.
        let t0 = Timestamp::from_civil(2017, 12, 21, 0, 0, 0);
        let t1 = Timestamp::from_civil(2017, 12, 21, 3, 0, 0);
        assert!(!sunlit_between(TRONDHEIM, t0, t1));
        // Order of endpoints must not matter.
        assert!(sunlit_between(TRONDHEIM, noon, morning));
    }

    #[test]
    fn longitude_shifts_solar_noon() {
        // At 90°E solar noon occurs 6 h earlier in UTC.
        let east = LatLon {
            lat_deg: 0.0,
            lon_deg: 90.0,
        };
        let utc6 = Timestamp::from_civil(2017, 3, 21, 6, 0, 0);
        assert!(elevation_deg(east, utc6) > 80.0);
    }
}
