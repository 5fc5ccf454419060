//! Discrete-event LoRaWAN radio simulator.
//!
//! Transmissions are submitted in time order; each is exposed to every
//! gateway through the propagation model, checked against receiver
//! sensitivity, co-channel/co-SF collisions (with an optional 6 dB capture
//! effect), and the gateways' limited demodulator paths. A transmission is
//! finalized once no later submission can still overlap it, which makes the
//! simulator streaming and deterministic.
//!
//! Losses are attributed to a [`LossReason`] so the network-monitoring
//! dataport and the evaluation benches can distinguish *why* data is
//! missing — the paper's §2.3 is exactly about this distinction.

use crate::airtime::{time_on_air_s, AirtimeParams};
use crate::dutycycle::DutyCycleTracker;
use crate::frame::UplinkFrame;
use crate::propagation::{link_budget, LinkBudget, PathLossModel, StaticLink};
use crate::region::{Region, SpreadingFactor};
use ctt_core::geo::LatLon;
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::Timestamp;
use ctt_core::units::Dbm;
use std::collections::HashMap;

/// A gateway in the simulation.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Gateway identity.
    pub id: GatewayId,
    /// Position.
    pub position: LatLon,
    /// Antenna height above ground, metres.
    pub antenna_m: f64,
    /// Concurrent demodulation paths (8 on SX1301 concentrators).
    pub demod_paths: usize,
}

impl GatewayConfig {
    /// A standard 8-path gateway.
    pub fn standard(id: GatewayId, position: LatLon, antenna_m: f64) -> Self {
        GatewayConfig {
            id,
            position,
            antenna_m,
            demod_paths: 8,
        }
    }
}

/// A transmission request from a node.
#[derive(Debug, Clone)]
pub struct TxRequest {
    /// Transmitting device.
    pub device: DevEui,
    /// Node position.
    pub position: LatLon,
    /// The frame to send.
    pub frame: UplinkFrame,
    /// Spreading factor.
    pub sf: SpreadingFactor,
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Channel index into the region plan.
    pub channel: usize,
}

/// Reception metadata at one gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reception {
    /// Receiving gateway.
    pub gateway: GatewayId,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Signal-to-noise ratio, dB.
    pub snr_db: f64,
}

/// A successfully delivered uplink (heard by ≥1 gateway).
#[derive(Debug, Clone)]
pub struct DeliveredUplink {
    /// The decoded frame.
    pub frame: UplinkFrame,
    /// Transmission start time (whole seconds).
    pub time: Timestamp,
    /// Spreading factor used.
    pub sf: SpreadingFactor,
    /// Time-on-air of the transmission, seconds.
    pub airtime_s: f64,
    /// Gateways that demodulated the frame, strongest first.
    pub receptions: Vec<Reception>,
}

impl DeliveredUplink {
    /// The strongest reception (the network server's canonical gateway).
    pub fn best(&self) -> &Reception {
        const NO_RECEPTION: Reception = Reception {
            gateway: GatewayId(0),
            rssi_dbm: f64::NEG_INFINITY,
            snr_db: f64::NEG_INFINITY,
        };
        // Delivered uplinks always carry ≥1 reception; the fallback keeps
        // this hot path panic-free.
        self.receptions.first().unwrap_or(&NO_RECEPTION)
    }
}

/// Why a transmission was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossReason {
    /// Refused locally: duty-cycle budget exhausted.
    DutyCycle,
    /// No gateway received enough signal.
    NoCoverage,
    /// Destroyed by a co-channel collision at every reachable gateway.
    Collision,
    /// All reachable gateways were out of demodulation paths.
    GatewayBusy,
    /// Every reachable gateway was inside an injected outage window.
    GatewayDown,
}

/// A scheduled gateway outage window (fault injection): the gateway hears
/// nothing in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// The gateway taken down.
    pub gateway: GatewayId,
    /// Outage start (inclusive).
    pub from: Timestamp,
    /// Outage end (exclusive).
    pub until: Timestamp,
}

impl OutageWindow {
    /// Whether this window covers gateway `gw` at instant `t`.
    pub fn covers(&self, gw: GatewayId, t: Timestamp) -> bool {
        self.gateway == gw && self.from <= t && t < self.until
    }
}

/// A lost transmission with its cause.
#[derive(Debug, Clone)]
pub struct LostUplink {
    /// Transmitting device.
    pub device: DevEui,
    /// Attempted at.
    pub time: Timestamp,
    /// Cause.
    pub reason: LossReason,
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Transmissions submitted.
    pub submitted: u64,
    /// Delivered to at least one gateway.
    pub delivered: u64,
    /// Lost: duty cycle refusals.
    pub lost_duty_cycle: u64,
    /// Lost: out of coverage.
    pub lost_no_coverage: u64,
    /// Lost: collisions.
    pub lost_collision: u64,
    /// Lost: gateway demodulator exhaustion.
    pub lost_gateway_busy: u64,
    /// Lost: every reachable gateway was in an injected outage window.
    pub lost_gateway_down: u64,
}

impl SimStats {
    /// Packet delivery ratio in [0, 1].
    pub fn pdr(&self) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.submitted as f64
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Regional parameters.
    pub region: Region,
    /// Propagation model.
    pub path_loss: PathLossModel,
    /// Whether the capture effect is modelled (ablation switch).
    pub capture_effect: bool,
    /// Power advantage needed to capture a collision, dB.
    pub capture_threshold_db: f64,
}

impl SimConfig {
    /// Standard EU868 urban configuration.
    pub fn urban(seed: u64) -> Self {
        SimConfig {
            region: Region::eu868(),
            path_loss: PathLossModel::urban(seed),
            capture_effect: true,
            capture_threshold_db: 6.0,
        }
    }
}

#[derive(Debug)]
struct InFlight {
    start_s: f64,
    end_s: f64,
    device: DevEui,
    sf: SpreadingFactor,
    channel: usize,
    /// The frame until the transmission is resolved; then it moves into
    /// the [`DeliveredUplink`] (or is dropped with a loss). A resolved
    /// transmission stays in the window as an interferer for unresolved
    /// overlapping ones until it is safely prunable.
    frame: Option<UplinkFrame>,
    nonce: u64,
    time: Timestamp,
    airtime_s: f64,
    /// RSSI/SNR at each gateway, in gateway order, computed at submit.
    budgets: Vec<LinkBudget>,
}

impl InFlight {
    fn resolved(&self) -> bool {
        self.frame.is_none()
    }
}

/// What the simulator keeps per device: its duty cycle, and its static
/// links to every gateway (in gateway order) for the position they were
/// computed at, rebuilt when the device reports another position.
#[derive(Debug)]
struct Device {
    duty: DutyCycleTracker,
    position: Option<LatLon>,
    links: Vec<StaticLink>,
}

/// The event-driven radio network simulator.
#[derive(Debug)]
pub struct RadioSimulator {
    config: SimConfig,
    gateways: Vec<GatewayConfig>,
    devices: HashMap<DevEui, Device>,
    in_flight: Vec<InFlight>,
    /// Budget vectors of pruned transmissions, reused by the next submits
    /// so that a steady-state submit allocates none.
    spare_budgets: Vec<Vec<LinkBudget>>,
    delivered: Vec<DeliveredUplink>,
    lost: Vec<LostUplink>,
    stats: SimStats,
    next_nonce: u64,
    last_submit_s: f64,
    outages: Vec<OutageWindow>,
}

impl RadioSimulator {
    /// Create a simulator with the given gateways.
    pub fn new(config: SimConfig, gateways: Vec<GatewayConfig>) -> Self {
        RadioSimulator {
            config,
            gateways,
            devices: HashMap::new(),
            in_flight: Vec::new(),
            spare_budgets: Vec::new(),
            delivered: Vec::new(),
            lost: Vec::new(),
            stats: SimStats::default(),
            next_nonce: 1,
            last_submit_s: f64::NEG_INFINITY,
            outages: Vec::new(),
        }
    }

    /// The gateway list.
    pub fn gateways(&self) -> &[GatewayConfig] {
        &self.gateways
    }

    /// Install scheduled gateway outage windows (fault injection). A gateway
    /// inside one of its windows hears nothing; losses caused only by the
    /// outage are attributed to [`LossReason::GatewayDown`].
    pub fn set_outages(&mut self, outages: Vec<OutageWindow>) {
        self.outages = outages;
    }

    fn gateway_down(&self, gw: GatewayId, t: Timestamp) -> bool {
        self.outages.iter().any(|w| w.covers(gw, t))
    }

    /// Aggregate statistics so far (only counts finalized transmissions).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Submit a transmission starting at `time` (must be non-decreasing
    /// across calls). Returns the time-on-air if accepted for transmission,
    /// or `None` if the duty cycle refused it.
    pub fn submit(&mut self, time: Timestamp, req: TxRequest) -> Option<f64> {
        let start_s = time.as_seconds() as f64;
        // lint:allow(panic): the event calendar dispatches transmissions in time order
        assert!(
            start_s >= self.last_submit_s,
            "submissions must be time-ordered: {start_s} < {}",
            self.last_submit_s
        );
        self.last_submit_s = start_s;
        self.stats.submitted += 1;

        let airtime = time_on_air_s(&AirtimeParams::lorawan_uplink(req.sf, req.frame.phy_len()));
        let device = self.devices.entry(req.device).or_insert_with(|| Device {
            duty: DutyCycleTracker::new(self.config.region.duty_cycle),
            position: None,
            links: Vec::new(),
        });
        if !device.duty.try_transmit(time, airtime) {
            self.stats.lost_duty_cycle += 1;
            self.lost.push(LostUplink {
                device: req.device,
                time,
                reason: LossReason::DutyCycle,
            });
            return None;
        }

        if device.position != Some(req.position) {
            let path_loss = &self.config.path_loss;
            device.links.clear();
            device.links.extend(
                self.gateways
                    .iter()
                    .map(|gw| path_loss.static_link(req.position, gw.position, gw.antenna_m)),
            );
            device.position = Some(req.position);
        }
        // `finalize_before` leaves the nonce counter alone, so the budgets
        // can be computed while the device entry is at hand.
        let nonce = self.next_nonce;
        let mut budgets = self.spare_budgets.pop().unwrap_or_default();
        budgets.clear();
        budgets.extend(
            device.links.iter().map(|link| {
                link_budget(&self.config.path_loss, Dbm(req.tx_power_dbm), link, nonce)
            }),
        );

        // Finalize everything that can no longer be interfered with.
        self.finalize_before(start_s);

        self.next_nonce += 1;
        self.in_flight.push(InFlight {
            start_s,
            end_s: start_s + airtime,
            device: req.device,
            sf: req.sf,
            channel: req.channel,
            frame: Some(req.frame),
            nonce,
            time,
            airtime_s: airtime,
            budgets,
        });
        Some(airtime)
    }

    /// Resolve all transmissions ending at or before `cutoff_s`. No future
    /// submission (start ≥ cutoff) can overlap them, and every interferer —
    /// resolved or not — is still present in the window, so outcomes are
    /// final. Afterwards, prune resolved entries that no unresolved entry
    /// overlaps.
    fn finalize_before(&mut self, cutoff_s: f64) {
        for idx in 0..self.in_flight.len() {
            let outcome = match self.in_flight.get(idx) {
                Some(tx) if !tx.resolved() && tx.end_s <= cutoff_s => self.resolve(tx, idx),
                _ => continue,
            };
            // Taking the frame marks the entry resolved.
            let Some((tx, frame)) = self
                .in_flight
                .get_mut(idx)
                .and_then(|tx| tx.frame.take().map(|frame| (tx, frame)))
            else {
                continue;
            };
            match outcome {
                Ok(receptions) => {
                    self.stats.delivered += 1;
                    self.delivered.push(DeliveredUplink {
                        frame,
                        time: tx.time,
                        sf: tx.sf,
                        airtime_s: tx.airtime_s,
                        receptions,
                    });
                }
                Err(reason) => {
                    match reason {
                        LossReason::NoCoverage => self.stats.lost_no_coverage += 1,
                        LossReason::Collision => self.stats.lost_collision += 1,
                        LossReason::GatewayBusy => self.stats.lost_gateway_busy += 1,
                        LossReason::GatewayDown => self.stats.lost_gateway_down += 1,
                        // Refused at `submit`; never resolved as a loss.
                        LossReason::DutyCycle => self.stats.lost_duty_cycle += 1,
                    }
                    self.lost.push(LostUplink {
                        device: tx.device,
                        time: tx.time,
                        reason,
                    });
                }
            }
        }
        // Prune: a resolved entry may be dropped once nothing unresolved
        // overlaps it and no future submission can (start ≥ cutoff).
        let min_unresolved_start = self
            .in_flight
            .iter()
            .filter(|t| !t.resolved())
            .map(|t| t.start_s)
            .fold(f64::INFINITY, f64::min);
        let horizon = cutoff_s.min(min_unresolved_start);
        let spare = &mut self.spare_budgets;
        self.in_flight.retain_mut(|t| {
            let keep = !t.resolved() || t.end_s > horizon;
            if !keep {
                spare.push(std::mem::take(&mut t.budgets));
            }
            keep
        });
    }

    /// Resolve the fate of a transmission (`idx` is its position in
    /// `in_flight`; other in-flight entries are potential interferers):
    /// the gateways that demodulate it, strongest first, or why none did.
    fn resolve(&self, tx: &InFlight, idx: usize) -> Result<Vec<Reception>, LossReason> {
        let channels = self.config.region.channels.len();
        let mut receptions = Vec::new();
        let mut saw_sensitivity = false;
        let mut saw_busy = false;
        let mut saw_outage = false;
        for (g, (gw, lb)) in self.gateways.iter().zip(&tx.budgets).enumerate() {
            if lb.rssi_dbm < tx.sf.sensitivity_dbm() || lb.snr_db < tx.sf.required_snr_db() {
                continue; // below this gateway's floor
            }
            saw_sensitivity = true;

            // Injected outage: the gateway would have heard this frame but
            // is scheduled down. Attribution beats busy/collision so the
            // fault plan, not a coincident RF event, owns the loss.
            if self.gateway_down(gw.id, tx.time) {
                saw_outage = true;
                continue;
            }

            // The *receivable* transmissions that overlap this one at this
            // gateway, each with its budget there, in start order.
            let overlapping = || {
                self.in_flight.iter().enumerate().filter_map(move |(j, o)| {
                    let olb = o.budgets.get(g)?;
                    (j != idx
                        && o.start_s < tx.end_s
                        && tx.start_s < o.end_s
                        && olb.rssi_dbm >= o.sf.sensitivity_dbm())
                    .then_some((o, olb))
                })
            };
            // Demod-path check: how many of them (and this one) started
            // before it?
            let earlier = overlapping()
                .filter(|(o, _)| (o.start_s, o.nonce) < (tx.start_s, tx.nonce))
                .count();
            if earlier + 1 > gw.demod_paths {
                saw_busy = true;
                continue;
            }

            // Collision check: co-channel, co-SF overlaps.
            let mut collided = false;
            for (other, other_lb) in overlapping() {
                // Different channel or quasi-orthogonal SF. (An interferer
                // below the floor was never receivable, so is not here.)
                if other.channel % channels != tx.channel % channels || other.sf != tx.sf {
                    continue;
                }
                let advantage = lb.rssi_dbm - other_lb.rssi_dbm;
                let survives =
                    self.config.capture_effect && advantage >= self.config.capture_threshold_db;
                if !survives {
                    collided = true;
                    break;
                }
            }
            if collided {
                continue;
            }
            receptions.push(Reception {
                gateway: gw.id,
                rssi_dbm: lb.rssi_dbm,
                snr_db: lb.snr_db,
            });
        }
        if receptions.is_empty() {
            if saw_outage {
                return Err(LossReason::GatewayDown);
            }
            if saw_busy {
                return Err(LossReason::GatewayBusy);
            }
            if saw_sensitivity {
                return Err(LossReason::Collision);
            }
            return Err(LossReason::NoCoverage);
        }
        receptions.sort_by(|a, b| b.rssi_dbm.total_cmp(&a.rssi_dbm));
        Ok(receptions)
    }

    /// Resolve every in-flight transmission whose window ends at or before
    /// `cutoff` (an event-queue deadline). Submissions are whole-second
    /// timestamps, so once the clock reaches a window's deadline no future
    /// submission can overlap it and its outcome is final — this is the
    /// event-driven replacement for draining on a guessed horizon.
    /// Resolved outcomes accumulate for [`Self::drain_resolved`] /
    /// [`Self::drain_lost`].
    pub fn resolve_until(&mut self, cutoff: Timestamp) {
        self.finalize_before(cutoff.as_seconds() as f64);
    }

    /// Take the delivered uplinks resolved so far (time-ordered), without
    /// forcing resolution of still-open windows.
    pub fn drain_resolved(&mut self) -> Vec<DeliveredUplink> {
        let mut out = std::mem::take(&mut self.delivered);
        out.sort_by_key(|d| d.time);
        out
    }

    /// The earliest whole-second deadline at which an unresolved in-flight
    /// window can be finalized (its end rounded up to the next second), or
    /// `None` when nothing is in flight.
    pub fn next_deadline(&self) -> Option<Timestamp> {
        self.in_flight
            .iter()
            .filter(|t| !t.resolved())
            .map(|t| Timestamp(t.end_s.ceil() as i64))
            .min()
    }

    /// Finalize everything in flight and drain the delivered uplinks
    /// (time-ordered) accumulated since the last drain.
    pub fn drain(&mut self) -> Vec<DeliveredUplink> {
        self.finalize_before(f64::INFINITY);
        self.drain_resolved()
    }

    /// Drain the record of lost transmissions.
    pub fn drain_lost(&mut self) -> Vec<LostUplink> {
        std::mem::take(&mut self.lost)
    }
}

impl ctt_sim::Schedulable for RadioSimulator {
    /// The radio wants to run when its earliest open window's deadline
    /// fires; the driving loop schedules a resolution event there instead
    /// of polling "is anything else nearby?".
    fn next_event(&self, now: Timestamp) -> Option<Timestamp> {
        self.next_deadline().map(|t| t.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::geo::LatLon;

    const GW_POS: LatLon = LatLon::new(63.4305, 10.3951);

    fn gateway() -> GatewayConfig {
        GatewayConfig::standard(GatewayId::ctt(1), GW_POS, 40.0)
    }

    fn req(dev: u32, pos: LatLon, sf: SpreadingFactor, channel: usize, fcnt: u16) -> TxRequest {
        TxRequest {
            device: DevEui::ctt(dev),
            position: pos,
            frame: UplinkFrame::new(DevEui::ctt(dev), fcnt, 2, vec![0; 18]),
            sf,
            tx_power_dbm: 14.0,
            channel,
        }
    }

    fn sim() -> RadioSimulator {
        RadioSimulator::new(SimConfig::urban(1), vec![gateway()])
    }

    #[test]
    fn close_node_delivers() {
        let mut s = sim();
        let pos = GW_POS.offset(0.0, 200.0);
        s.submit(Timestamp(0), req(1, pos, SpreadingFactor::Sf9, 0, 0));
        let out = s.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].frame.dev_eui, DevEui::ctt(1));
        assert_eq!(out[0].receptions.len(), 1);
        assert!(out[0].best().rssi_dbm > -120.0);
        assert_eq!(s.stats().pdr(), 1.0);
    }

    #[test]
    fn distant_node_out_of_coverage() {
        let mut s = RadioSimulator::new(
            SimConfig {
                path_loss: PathLossModel::urban(1),
                ..SimConfig::urban(1)
            },
            vec![gateway()],
        );
        // 60 km away: hopeless even at SF12.
        let pos = GW_POS.offset(0.0, 60_000.0);
        s.submit(Timestamp(0), req(1, pos, SpreadingFactor::Sf12, 0, 0));
        let out = s.drain();
        assert!(out.is_empty());
        let lost = s.drain_lost();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].reason, LossReason::NoCoverage);
        assert_eq!(s.stats().lost_no_coverage, 1);
    }

    #[test]
    fn same_channel_same_sf_overlap_collides() {
        let mut cfg = SimConfig::urban(1);
        cfg.capture_effect = false;
        cfg.path_loss = PathLossModel::free_space(1);
        let mut s = RadioSimulator::new(cfg, vec![gateway()]);
        let a = GW_POS.offset(0.0, 300.0);
        let b = GW_POS.offset(180.0, 300.0);
        s.submit(Timestamp(0), req(1, a, SpreadingFactor::Sf12, 0, 0));
        s.submit(Timestamp(0), req(2, b, SpreadingFactor::Sf12, 0, 0));
        let out = s.drain();
        assert!(out.is_empty(), "both should be destroyed without capture");
        assert_eq!(s.stats().lost_collision, 2);
    }

    #[test]
    fn capture_effect_saves_stronger() {
        let mut cfg = SimConfig::urban(1);
        cfg.path_loss = PathLossModel::free_space(1);
        let mut s = RadioSimulator::new(cfg, vec![gateway()]);
        let near = GW_POS.offset(0.0, 100.0);
        let far = GW_POS.offset(180.0, 2000.0); // ≥ 26 dB weaker in free space
        s.submit(Timestamp(0), req(1, near, SpreadingFactor::Sf12, 0, 0));
        s.submit(Timestamp(0), req(2, far, SpreadingFactor::Sf12, 0, 1));
        let out = s.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].frame.dev_eui, DevEui::ctt(1));
        assert_eq!(s.stats().lost_collision, 1);
    }

    #[test]
    fn different_channels_do_not_collide() {
        let mut cfg = SimConfig::urban(1);
        cfg.capture_effect = false;
        cfg.path_loss = PathLossModel::free_space(1);
        let mut s = RadioSimulator::new(cfg, vec![gateway()]);
        let a = GW_POS.offset(0.0, 300.0);
        let b = GW_POS.offset(180.0, 300.0);
        s.submit(Timestamp(0), req(1, a, SpreadingFactor::Sf12, 0, 0));
        s.submit(Timestamp(0), req(2, b, SpreadingFactor::Sf12, 1, 0));
        assert_eq!(s.drain().len(), 2);
    }

    #[test]
    fn different_sf_do_not_collide() {
        let mut cfg = SimConfig::urban(1);
        cfg.capture_effect = false;
        cfg.path_loss = PathLossModel::free_space(1);
        let mut s = RadioSimulator::new(cfg, vec![gateway()]);
        let a = GW_POS.offset(0.0, 300.0);
        let b = GW_POS.offset(180.0, 300.0);
        s.submit(Timestamp(0), req(1, a, SpreadingFactor::Sf11, 0, 0));
        s.submit(Timestamp(0), req(2, b, SpreadingFactor::Sf12, 0, 0));
        assert_eq!(s.drain().len(), 2);
    }

    #[test]
    fn non_overlapping_transmissions_pass() {
        let mut cfg = SimConfig::urban(1);
        cfg.capture_effect = false;
        cfg.path_loss = PathLossModel::free_space(1);
        let mut s = RadioSimulator::new(cfg, vec![gateway()]);
        let a = GW_POS.offset(0.0, 300.0);
        // SF12 airtime ≈ 1.8 s; 10 s apart never overlaps. Different
        // devices so the duty cycle does not interfere with the test.
        s.submit(Timestamp(0), req(1, a, SpreadingFactor::Sf12, 0, 0));
        s.submit(Timestamp(10), req(2, a, SpreadingFactor::Sf12, 0, 0));
        assert_eq!(s.drain().len(), 2);
    }

    #[test]
    fn duty_cycle_refusal_counted() {
        let mut s = sim();
        let pos = GW_POS.offset(0.0, 200.0);
        // Two SF12 transmissions in the same second: second refused.
        s.submit(Timestamp(0), req(1, pos, SpreadingFactor::Sf12, 0, 0));
        let r = s.submit(Timestamp(1), req(1, pos, SpreadingFactor::Sf12, 0, 1));
        assert!(r.is_none());
        assert_eq!(s.stats().lost_duty_cycle, 1);
        let out = s.drain();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn two_gateways_both_hear() {
        let gw2 = GatewayConfig::standard(GatewayId::ctt(2), GW_POS.offset(90.0, 800.0), 30.0);
        let mut cfg = SimConfig::urban(1);
        cfg.path_loss = PathLossModel::free_space(1);
        let mut s = RadioSimulator::new(cfg, vec![gateway(), gw2]);
        let pos = GW_POS.offset(45.0, 400.0);
        s.submit(Timestamp(0), req(1, pos, SpreadingFactor::Sf10, 0, 0));
        let out = s.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].receptions.len(), 2);
        // Strongest first.
        assert!(out[0].receptions[0].rssi_dbm >= out[0].receptions[1].rssi_dbm);
    }

    #[test]
    fn demod_path_exhaustion() {
        let mut gw = gateway();
        gw.demod_paths = 2;
        let mut cfg = SimConfig::urban(1);
        cfg.path_loss = PathLossModel::free_space(1);
        let mut s = RadioSimulator::new(cfg, vec![gw]);
        // Three simultaneous transmissions on different channels (no RF
        // collision) but only two demod paths.
        for (i, ch) in [(1u32, 0usize), (2, 1), (3, 2)] {
            let pos = GW_POS.offset(f64::from(i) * 20.0, 300.0);
            s.submit(Timestamp(0), req(i, pos, SpreadingFactor::Sf12, ch, 0));
        }
        let out = s.drain();
        assert_eq!(out.len(), 2, "only two demod paths");
        assert_eq!(s.stats().lost_gateway_busy, 1);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_submission_panics() {
        let mut s = sim();
        let pos = GW_POS.offset(0.0, 200.0);
        s.submit(Timestamp(100), req(1, pos, SpreadingFactor::Sf9, 0, 0));
        s.submit(Timestamp(50), req(2, pos, SpreadingFactor::Sf9, 0, 0));
    }

    #[test]
    fn outage_window_attributes_gateway_down() {
        let mut s = sim();
        s.set_outages(vec![OutageWindow {
            gateway: GatewayId::ctt(1),
            from: Timestamp(100),
            until: Timestamp(200),
        }]);
        let pos = GW_POS.offset(0.0, 200.0);
        // Before, inside, and after the window (distinct devices so the
        // duty cycle stays out of the way).
        s.submit(Timestamp(0), req(1, pos, SpreadingFactor::Sf9, 0, 0));
        s.submit(Timestamp(150), req(2, pos, SpreadingFactor::Sf9, 1, 0));
        s.submit(Timestamp(300), req(3, pos, SpreadingFactor::Sf9, 2, 0));
        let out = s.drain();
        assert_eq!(out.len(), 2);
        let lost = s.drain_lost();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].device, DevEui::ctt(2));
        assert_eq!(lost[0].reason, LossReason::GatewayDown);
        assert_eq!(s.stats().lost_gateway_down, 1);
    }

    #[test]
    fn outage_attribution_beats_collision() {
        // Two colliding frames during an outage: both losses must be
        // attributed to the injected fault, not the coincident collision.
        let mut cfg = SimConfig::urban(1);
        cfg.capture_effect = false;
        cfg.path_loss = PathLossModel::free_space(1);
        let mut s = RadioSimulator::new(cfg, vec![gateway()]);
        s.set_outages(vec![OutageWindow {
            gateway: GatewayId::ctt(1),
            from: Timestamp(0),
            until: Timestamp(10),
        }]);
        let a = GW_POS.offset(0.0, 300.0);
        let b = GW_POS.offset(180.0, 300.0);
        s.submit(Timestamp(0), req(1, a, SpreadingFactor::Sf12, 0, 0));
        s.submit(Timestamp(0), req(2, b, SpreadingFactor::Sf12, 0, 0));
        assert!(s.drain().is_empty());
        let lost = s.drain_lost();
        assert_eq!(lost.len(), 2);
        assert!(lost.iter().all(|l| l.reason == LossReason::GatewayDown));
        assert_eq!(s.stats().lost_collision, 0);
    }

    #[test]
    fn a_moved_device_is_resolved_on_its_new_links() {
        let mut s = sim();
        let model = PathLossModel::urban(1);
        let (here, there) = (GW_POS.offset(0.0, 200.0), GW_POS.offset(200.0, 900.0));
        // The pre-cache budget of one transmission, written out; nonces
        // count accepted submissions from 1.
        let rssi = |pos: LatLon, nonce: u64| {
            let height_gain = 6.0 * (40.0f64 / 15.0).log2().clamp(0.0, 1.5);
            14.0 - (model.mean_path_loss_db(pos.distance_m(GW_POS))
                + model.link_shadowing_db(pos, GW_POS)
                + model.fading_db(pos, GW_POS, nonce)
                - height_gain)
        };
        for (i, pos) in [here, there, here].into_iter().enumerate() {
            let t = Timestamp(1000 * i as i64);
            s.submit(t, req(1, pos, SpreadingFactor::Sf7, 0, i as u16));
            let out = s.drain();
            assert_eq!(out.len(), 1, "submit {i}");
            assert_eq!(
                out[0].best().rssi_dbm.to_bits(),
                rssi(pos, i as u64 + 1).to_bits(),
                "submit {i}"
            );
        }
    }

    #[test]
    fn stats_pdr() {
        let s = SimStats {
            submitted: 10,
            delivered: 9,
            ..SimStats::default()
        };
        assert!((s.pdr() - 0.9).abs() < 1e-12);
        assert_eq!(SimStats::default().pdr(), 1.0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut s = sim();
            let pos = GW_POS.offset(30.0, 1200.0);
            for i in 0..50 {
                s.submit(
                    Timestamp(i64::from(i) * 300),
                    req(1, pos, SpreadingFactor::Sf10, i as usize, i as u16),
                );
            }
            let d = s.drain();
            (
                d.len(),
                d.first().map(|u| (u.best().rssi_dbm, u.best().snr_db)),
            )
        };
        assert_eq!(run(), run());
    }
}
