//! Urban radio propagation: log-distance path loss with log-normal
//! shadowing and per-transmission fading.
//!
//! The model is the standard one for city-scale LoRa studies: free-space
//! loss to a 40 m reference distance, then a distance power law with
//! exponent ~3.5 (dense urban clutter), plus a *static* per-link shadowing
//! term (buildings between a node and a gateway do not move) and a small
//! *dynamic* per-transmission fading term. Gateway antenna height reduces
//! effective loss.

use ctt_core::geo::LatLon;
use ctt_core::rng::{gauss, mix64};
use ctt_core::units::Dbm;

/// Propagation environment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Path loss at the reference distance, dB.
    pub pl0_db: f64,
    /// Reference distance, metres.
    pub d0_m: f64,
    /// Path loss exponent.
    pub exponent: f64,
    /// Standard deviation of static per-link shadowing, dB.
    pub shadowing_sd_db: f64,
    /// Standard deviation of per-transmission fading, dB.
    pub fading_sd_db: f64,
    /// Seed for deterministic shadowing/fading.
    pub seed: u64,
}

impl PathLossModel {
    /// Typical European city (Trondheim/Vejle scale).
    pub fn urban(seed: u64) -> Self {
        PathLossModel {
            // Free-space loss at 40 m, 868 MHz ≈ 63.3 dB.
            pl0_db: 63.3,
            d0_m: 40.0,
            exponent: 3.5,
            shadowing_sd_db: 6.0,
            fading_sd_db: 2.0,
            seed,
        }
    }

    /// Idealised free-space model, the tests' fixture.
    #[cfg(test)]
    pub(crate) fn free_space(seed: u64) -> Self {
        PathLossModel {
            pl0_db: 63.3,
            d0_m: 40.0,
            exponent: 2.0,
            shadowing_sd_db: 0.0,
            fading_sd_db: 0.0,
            seed,
        }
    }

    /// Deterministic mean path loss at `distance_m`, dB (no shadowing).
    pub fn mean_path_loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(1.0);
        self.pl0_db + 10.0 * self.exponent * (d / self.d0_m).log10()
    }

    /// Static shadowing for a node–gateway link, dB. Deterministic in the
    /// endpoints: the same link always sees the same buildings.
    pub fn link_shadowing_db(&self, a: LatLon, b: LatLon) -> f64 {
        gauss(mix64(self.link_key(a, b)), GAUSS_SALT) * self.shadowing_sd_db
    }

    /// Per-transmission fading, dB, varying with a transmission nonce.
    pub fn fading_db(&self, a: LatLon, b: LatLon, nonce: u64) -> f64 {
        self.fading_on(self.link_key(a, b), nonce)
    }

    fn fading_on(&self, link_key: u64, nonce: u64) -> f64 {
        gauss(mix64(link_key ^ mix64(nonce)), GAUSS_SALT) * self.fading_sd_db
    }

    fn link_key(&self, a: LatLon, b: LatLon) -> u64 {
        self.seed ^ pos_key(a) ^ pos_key(b).rotate_left(21)
    }

    /// Everything in a node–gateway link's loss but the fading: fixed for
    /// as long as neither end moves, so a simulator computes it once per
    /// link. Antenna height `gateway_antenna_m` grants up to ~9 dB of
    /// height gain.
    pub fn static_link(&self, node: LatLon, gateway: LatLon, gateway_antenna_m: f64) -> StaticLink {
        StaticLink {
            base_db: self.mean_path_loss_db(node.distance_m(gateway))
                + self.link_shadowing_db(node, gateway),
            height_gain_db: 6.0 * (gateway_antenna_m.max(1.0) / 15.0).log2().clamp(0.0, 1.5),
            key: self.link_key(node, gateway),
        }
    }

    /// Total loss for one transmission on `link`, dB:
    /// mean path loss + shadowing + fading − height gain, summed left to
    /// right.
    pub fn loss_on(&self, link: &StaticLink, nonce: u64) -> f64 {
        link.base_db + self.fading_on(link.key, nonce) - link.height_gain_db
    }
}

/// The static part of one node–gateway link (see
/// [`PathLossModel::static_link`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticLink {
    /// Mean path loss plus shadowing, dB.
    base_db: f64,
    /// Gain from the gateway's antenna height, dB.
    height_gain_db: f64,
    /// The link's hash key, which the fading draw mixes with the nonce.
    key: u64,
}

/// Salt of the second uniform in a shadowing or fading deviate.
const GAUSS_SALT: u64 = 0xABCD_EF12;

fn pos_key(p: LatLon) -> u64 {
    // Quantize to ~1 m so that a position is a stable key.
    let lat = (p.lat_deg * 1e5).round() as i64 as u64;
    let lon = (p.lon_deg * 1e5).round() as i64 as u64;
    mix64(lat).wrapping_mul(31).wrapping_add(mix64(lon))
}

/// Received signal strength for a transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Received power at the gateway, dBm.
    pub rssi_dbm: f64,
    /// Signal-to-noise ratio, dB.
    pub snr_db: f64,
}

/// Thermal noise floor for 125 kHz at a typical gateway noise figure, dBm.
pub const NOISE_FLOOR_DBM: f64 = -117.0;

/// Compute the link budget for one transmission on `link`.
pub fn link_budget(
    model: &PathLossModel,
    tx_power_dbm: Dbm,
    link: &StaticLink,
    nonce: u64,
) -> LinkBudget {
    let rssi = tx_power_dbm.0 - model.loss_on(link, nonce);
    LinkBudget {
        rssi_dbm: rssi,
        snr_db: rssi - NOISE_FLOOR_DBM,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GW: LatLon = LatLon::new(63.4305, 10.3951);

    #[test]
    fn mean_loss_monotone_in_distance() {
        let m = PathLossModel::urban(1);
        let mut prev = 0.0;
        for d in [10.0, 50.0, 200.0, 1000.0, 5000.0] {
            let l = m.mean_path_loss_db(d);
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn free_space_exponent_doubles_per_decade() {
        let m = PathLossModel::free_space(1);
        let l1 = m.mean_path_loss_db(100.0);
        let l2 = m.mean_path_loss_db(1000.0);
        assert!((l2 - l1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn shadowing_is_per_link_deterministic() {
        let m = PathLossModel::urban(7);
        let node = GW.offset(90.0, 800.0);
        assert_eq!(m.link_shadowing_db(node, GW), m.link_shadowing_db(node, GW));
        let other = GW.offset(180.0, 800.0);
        assert_ne!(
            m.link_shadowing_db(node, GW),
            m.link_shadowing_db(other, GW)
        );
    }

    #[test]
    fn fading_varies_with_nonce() {
        let m = PathLossModel::urban(7);
        let node = GW.offset(90.0, 800.0);
        let f1 = m.fading_db(node, GW, 1);
        let f2 = m.fading_db(node, GW, 2);
        assert_ne!(f1, f2);
        assert_eq!(f1, m.fading_db(node, GW, 1));
    }

    #[test]
    fn shadowing_statistics_plausible() {
        let m = PathLossModel::urban(3);
        let samples: Vec<f64> = (0..2000)
            .map(|i| {
                let node = GW.offset(f64::from(i) * 0.18, 500.0 + f64::from(i));
                m.link_shadowing_db(node, GW)
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let sd =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        assert!(mean.abs() < 0.8, "shadowing mean {mean}");
        assert!((sd - 6.0).abs() < 1.0, "shadowing sd {sd}");
    }

    #[test]
    fn antenna_height_helps() {
        let m = PathLossModel::urban(5);
        let node = GW.offset(45.0, 1500.0);
        let low = m.loss_on(&m.static_link(node, GW, 15.0), 9);
        let high = m.loss_on(&m.static_link(node, GW, 45.0), 9);
        assert!(high < low, "high antenna should reduce loss");
    }

    #[test]
    fn link_budget_close_node_strong_far_node_weak() {
        let m = PathLossModel::free_space(1);
        let budget = |d| {
            link_budget(
                &m,
                Dbm(14.0),
                &m.static_link(GW.offset(0.0, d), GW, 30.0),
                1,
            )
        };
        let (close, far) = (budget(100.0), budget(8000.0));
        assert!(close.rssi_dbm > far.rssi_dbm + 30.0);
        assert!(close.snr_db > 0.0);
        // SNR consistent with RSSI and noise floor.
        assert!((close.snr_db - (close.rssi_dbm - NOISE_FLOOR_DBM)).abs() < 1e-9);
    }

    #[test]
    fn city_scale_link_reachable_at_low_sf() {
        // 1.5 km urban link at 14 dBm should be around or above SF12
        // sensitivity (this is exactly the regime LoRa is designed for).
        let m = PathLossModel::urban(11);
        let node = GW.offset(120.0, 1500.0);
        let lb = link_budget(&m, Dbm(14.0), &m.static_link(node, GW, 40.0), 1);
        assert!(
            lb.rssi_dbm > -140.0 && lb.rssi_dbm < -70.0,
            "rssi {}",
            lb.rssi_dbm
        );
    }
}
