//! Adaptive Data Rate (network-side, Semtech reference algorithm).
//!
//! The network server records the SNR of recent uplinks per device; once
//! enough history exists it computes the link margin above the SF's
//! demodulation floor plus an installation margin, and converts the excess
//! into data-rate increases (shorter airtime, less energy — directly
//! extending the solar nodes' battery life) and TX power reductions.

use crate::region::{DataRate, SpreadingFactor};
use ctt_core::units::Dbm;
use std::collections::VecDeque;

/// Number of uplinks considered per ADR decision.
pub const ADR_HISTORY_LEN: usize = 20;
/// Installation margin in dB (Semtech default).
pub const INSTALL_MARGIN_DB: f64 = 10.0;
/// dB per ADR step.
pub const STEP_DB: f64 = 3.0;
/// Minimum TX power the algorithm will command, dBm.
pub const MIN_TX_POWER_DBM: f64 = 2.0;
/// Maximum TX power, dBm (EU868 EIRP limit).
pub const MAX_TX_POWER_DBM: f64 = 14.0;

/// A data-rate / power command for a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdrCommand {
    /// New data rate.
    pub data_rate: DataRate,
    /// New TX power, dBm.
    pub tx_power_dbm: f64,
}

/// Per-device ADR state on the network server.
#[derive(Debug, Clone, Default)]
pub struct AdrEngine {
    snr_history: VecDeque<f64>,
}

impl AdrEngine {
    /// Fresh engine with empty history.
    pub fn new() -> Self {
        AdrEngine::default()
    }

    /// Record the best-gateway SNR of one uplink.
    pub fn record_snr(&mut self, snr_db: f64) {
        if self.snr_history.len() == ADR_HISTORY_LEN {
            self.snr_history.pop_front();
        }
        self.snr_history.push_back(snr_db);
    }

    /// Compute a command given the device's current settings, or `None` if
    /// history is insufficient or no change is needed.
    pub fn recommend(&self, current_dr: DataRate, current_power_dbm: Dbm) -> Option<AdrCommand> {
        if self.snr_history.len() < ADR_HISTORY_LEN {
            return None;
        }
        let max_snr = self
            .snr_history
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let required = current_dr.spreading_factor().required_snr_db();
        let margin = max_snr - required - INSTALL_MARGIN_DB;
        let mut nstep = (margin / STEP_DB).floor() as i32;
        let mut dr = current_dr;
        let mut power = current_power_dbm.0;
        if nstep > 0 {
            // Spend steps first on data rate, then on power.
            while nstep > 0 && dr < DataRate::DR5 {
                dr = DataRate(dr.0 + 1);
                nstep -= 1;
            }
            while nstep > 0 && power > MIN_TX_POWER_DBM {
                power = (power - STEP_DB).max(MIN_TX_POWER_DBM);
                nstep -= 1;
            }
        } else if nstep < 0 {
            // Negative margin: restore power first (the reference algorithm
            // only raises power; lowering DR is left to the device's own
            // link-failure backoff).
            while nstep < 0 && power < MAX_TX_POWER_DBM {
                power = (power + STEP_DB).min(MAX_TX_POWER_DBM);
                nstep += 1;
            }
        }
        if dr == current_dr && (power - current_power_dbm.0).abs() < 1e-9 {
            None
        } else {
            Some(AdrCommand {
                data_rate: dr,
                tx_power_dbm: power,
            })
        }
    }
}

/// Device-side link backoff: after `threshold` consecutive uplinks without
/// any network acknowledgement of reception (in our sim: not heard by any
/// gateway), fall back one data rate to regain range.
#[derive(Debug, Clone, Copy)]
pub struct LinkBackoff {
    misses: u32,
    threshold: u32,
}

impl LinkBackoff {
    /// Backoff after `threshold` consecutive losses.
    pub fn new(threshold: u32) -> Self {
        assert!(threshold > 0);
        LinkBackoff {
            misses: 0,
            threshold,
        }
    }

    /// Record one uplink outcome; returns the SF to use next (possibly one
    /// step slower than `current`).
    pub fn on_uplink(&mut self, heard: bool, current: SpreadingFactor) -> SpreadingFactor {
        if heard {
            self.misses = 0;
            current
        } else {
            self.misses += 1;
            if self.misses >= self.threshold {
                self.misses = 0;
                current.slower()
            } else {
                current
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_recommendation_before_history_full() {
        let mut e = AdrEngine::new();
        for _ in 0..(ADR_HISTORY_LEN - 1) {
            e.record_snr(10.0);
        }
        assert_eq!(e.recommend(DataRate(0), Dbm(14.0)), None);
    }

    #[test]
    fn strong_link_raises_data_rate() {
        let mut e = AdrEngine::new();
        for _ in 0..ADR_HISTORY_LEN {
            e.record_snr(5.0);
        }
        // At DR0 (SF12): required −20, margin = 5 −(−20) −10 = 15 → 5 steps.
        let cmd = e.recommend(DataRate(0), Dbm(14.0)).unwrap();
        assert_eq!(cmd.data_rate, DataRate(5));
        assert_eq!(cmd.tx_power_dbm, 14.0);
    }

    #[test]
    fn very_strong_link_also_lowers_power() {
        let mut e = AdrEngine::new();
        for _ in 0..ADR_HISTORY_LEN {
            e.record_snr(14.0);
        }
        // margin = 14 +20 −10 = 24 → 8 steps: 5 to DR5, 3 into power.
        let cmd = e.recommend(DataRate(0), Dbm(14.0)).unwrap();
        assert_eq!(cmd.data_rate, DataRate(5));
        assert!(cmd.tx_power_dbm < 14.0);
        assert!(cmd.tx_power_dbm >= MIN_TX_POWER_DBM);
    }

    #[test]
    fn weak_link_restores_power() {
        let mut e = AdrEngine::new();
        for _ in 0..ADR_HISTORY_LEN {
            e.record_snr(-18.0);
        }
        // At DR5 (SF7, required −7.5): margin = −18 +7.5 −10 = −20.5.
        let cmd = e.recommend(DataRate(5), Dbm(8.0)).unwrap();
        assert_eq!(cmd.data_rate, DataRate(5));
        assert_eq!(cmd.tx_power_dbm, MAX_TX_POWER_DBM);
    }

    #[test]
    fn balanced_link_no_change() {
        let mut e = AdrEngine::new();
        for _ in 0..ADR_HISTORY_LEN {
            // At DR5 with required −7.5: margin = 2.6 → 0 steps.
            e.record_snr(0.1);
        }
        assert_eq!(e.recommend(DataRate(5), Dbm(14.0)), None);
    }

    #[test]
    fn max_snr_drives_decision() {
        let mut e = AdrEngine::new();
        for i in 0..ADR_HISTORY_LEN {
            e.record_snr(if i == 3 { 8.0 } else { -15.0 });
        }
        // Only the max matters in the reference algorithm.
        let cmd = e.recommend(DataRate(0), Dbm(14.0)).unwrap();
        assert!(cmd.data_rate > DataRate(0));
    }

    #[test]
    fn history_window_slides() {
        let mut e = AdrEngine::new();
        for _ in 0..ADR_HISTORY_LEN {
            e.record_snr(20.0);
        }
        // Push the high samples out of the window.
        for _ in 0..ADR_HISTORY_LEN {
            e.record_snr(-25.0);
        }
        assert_eq!(e.snr_history.len(), ADR_HISTORY_LEN);
        let cmd = e.recommend(DataRate(3), Dbm(8.0)).unwrap();
        // All history is now weak: power must go up, DR untouched.
        assert_eq!(cmd.data_rate, DataRate(3));
        assert!(cmd.tx_power_dbm > 8.0);
    }

    #[test]
    fn link_backoff_falls_back_after_threshold() {
        let mut b = LinkBackoff::new(3);
        let sf = SpreadingFactor::Sf7;
        assert_eq!(b.on_uplink(false, sf), sf);
        assert_eq!(b.on_uplink(false, sf), sf);
        assert_eq!(b.on_uplink(false, sf), SpreadingFactor::Sf8);
        // Counter reset after backoff.
        assert_eq!(
            b.on_uplink(false, SpreadingFactor::Sf8),
            SpreadingFactor::Sf8
        );
    }

    #[test]
    fn link_backoff_resets_on_success() {
        let mut b = LinkBackoff::new(3);
        let sf = SpreadingFactor::Sf9;
        b.on_uplink(false, sf);
        b.on_uplink(false, sf);
        assert_eq!(b.on_uplink(true, sf), sf);
        // The two earlier misses no longer count.
        assert_eq!(b.on_uplink(false, sf), sf);
        assert_eq!(b.on_uplink(false, sf), sf);
        assert_eq!(b.on_uplink(false, sf), SpreadingFactor::Sf10);
    }
}
