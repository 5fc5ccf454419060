//! The loss ledger: conservation accounting for uplinks.
//!
//! Every reading a sensor node produces opens a ledger entry keyed by
//! `(device, produced-at)`. The entry advances monotonically:
//!
//! ```text
//! Produced ──▶ Accepted (network server) ──▶ Stored (TSDB)
//!     │              │
//!     └──────────────┴──▶ Lost(CauseCode)
//! ```
//!
//! [`LossLedger::verify`] demands every entry be terminal — `Stored` or
//! `Lost` with a cause. A non-terminal entry is an *unattributed loss*:
//! data the system silently dropped. The chaos soak fails on a single one.
//!
//! Storage-level corruption is accounted separately in points (a quarantined
//! chunk destroys many uplinks' points at once): [`LossLedger::storage_quarantined`]
//! records the expectation that [`ctt_tsdb`]'s integrity scan must match.

use crate::plan::CauseCode;
use ctt_core::ids::DevEui;
use ctt_core::time::Timestamp;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Lifecycle state of one produced uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UplinkOutcome {
    /// Produced by the node; fate unknown (non-terminal).
    Produced,
    /// Accepted by the network server; not yet stored (non-terminal).
    Accepted,
    /// Points stored in the TSDB (terminal).
    Stored,
    /// Lost with an attributed cause (terminal).
    Lost(CauseCode),
}

impl UplinkOutcome {
    /// Whether the entry needs no further accounting.
    pub fn is_terminal(&self) -> bool {
        matches!(self, UplinkOutcome::Stored | UplinkOutcome::Lost(_))
    }

    fn label(&self) -> &'static str {
        match self {
            UplinkOutcome::Produced => "produced",
            UplinkOutcome::Accepted => "accepted",
            UplinkOutcome::Stored => "stored",
            UplinkOutcome::Lost(cause) => cause.label(),
        }
    }
}

/// The verdict of a conservation check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerVerdict {
    /// Entries opened (uplinks produced).
    pub produced: u64,
    /// Entries that reached the network server.
    pub accepted: u64,
    /// Entries stored in the TSDB.
    pub stored: u64,
    /// Entries lost with an attributed cause.
    pub attributed: u64,
    /// Non-terminal entries: losses nothing owned up to.
    pub unattributed: Vec<(DevEui, Timestamp, UplinkOutcome)>,
}

impl LedgerVerdict {
    /// Conservation holds: every produced uplink is stored or attributed.
    pub fn is_balanced(&self) -> bool {
        self.unattributed.is_empty()
    }
}

/// Conservation accounting across a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct LossLedger {
    /// Each device's entries, sorted by production time. A device produces
    /// in rising time order, so a new entry is almost always an append;
    /// iterating devices in order, then each list, is `(device, t)` order.
    entries: BTreeMap<DevEui, Vec<(Timestamp, UplinkOutcome)>>,
    /// Entries over all devices.
    len: usize,
    accepted_total: u64,
    quarantined_points: u64,
    /// Attribution attempts on already-terminal entries (should stay 0;
    /// kept as a tripwire rather than silently overwriting).
    conflicts: u64,
}

impl LossLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        LossLedger::default()
    }

    /// The entry for `(device, t)`, opened as `Produced` if it is new.
    fn entry(&mut self, device: DevEui, t: Timestamp) -> Option<&mut UplinkOutcome> {
        let list = self.entries.entry(device).or_default();
        let at = match list.last() {
            Some(&(last, _)) if last >= t => match list.binary_search_by_key(&t, |&(at, _)| at) {
                Ok(at) => return list.get_mut(at).map(|(_, outcome)| outcome),
                Err(at) => at,
            },
            _ => list.len(),
        };
        list.insert(at, (t, UplinkOutcome::Produced));
        self.len += 1;
        list.get_mut(at).map(|(_, outcome)| outcome)
    }

    /// Open an entry: the node produced a reading at `t`.
    pub fn produced(&mut self, device: DevEui, t: Timestamp) {
        self.entry(device, t);
    }

    /// The network server accepted the uplink.
    pub fn accepted(&mut self, device: DevEui, t: Timestamp) {
        self.accepted_total += 1;
        if let Some(e) = self.entry(device, t) {
            if !e.is_terminal() {
                *e = UplinkOutcome::Accepted;
            }
        }
    }

    /// The uplink's points were written to the TSDB.
    pub fn stored(&mut self, device: DevEui, t: Timestamp) {
        let Some(e) = self.entry(device, t) else {
            return;
        };
        // A deferred-then-redelivered uplink may be stored after a stall;
        // Stored wins over any non-terminal state.
        if !matches!(e, UplinkOutcome::Lost(_)) {
            *e = UplinkOutcome::Stored;
        } else {
            self.conflicts += 1;
        }
    }

    /// Attribute the uplink's loss to `cause`.
    pub fn attribute(&mut self, device: DevEui, t: Timestamp, cause: CauseCode) {
        let Some(e) = self.entry(device, t) else {
            return;
        };
        if e.is_terminal() {
            self.conflicts += 1;
        } else {
            *e = UplinkOutcome::Lost(cause);
        }
    }

    /// Record points destroyed by storage corruption (quarantined chunks).
    pub fn storage_quarantined(&mut self, points: u64) {
        self.quarantined_points += points;
    }

    /// Points the ledger expects the TSDB integrity scan to quarantine.
    pub fn quarantined_points(&self) -> u64 {
        self.quarantined_points
    }

    /// Attribution attempts that hit an already-terminal entry.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every entry in `(device, t)` order.
    fn iter(&self) -> impl Iterator<Item = (DevEui, Timestamp, &UplinkOutcome)> {
        self.entries
            .iter()
            .flat_map(|(&device, list)| list.iter().map(move |(t, outcome)| (device, *t, outcome)))
    }

    /// Per-cause loss counts, sorted by cause.
    pub fn cause_counts(&self) -> BTreeMap<CauseCode, u64> {
        let mut counts = BTreeMap::new();
        for (_, _, outcome) in self.iter() {
            if let UplinkOutcome::Lost(cause) = outcome {
                *counts.entry(*cause).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Run the conservation check.
    pub fn verify(&self) -> LedgerVerdict {
        let mut verdict = LedgerVerdict {
            produced: self.len as u64,
            accepted: self.accepted_total,
            stored: 0,
            attributed: 0,
            unattributed: Vec::new(),
        };
        for (device, t, outcome) in self.iter() {
            match outcome {
                UplinkOutcome::Stored => verdict.stored += 1,
                UplinkOutcome::Lost(_) => verdict.attributed += 1,
                _ => verdict.unattributed.push((device, t, *outcome)),
            }
        }
        verdict
    }

    /// Canonical textual rendering: summary counters, per-cause losses,
    /// then every entry in key order. Byte-identical across replays of the
    /// same seed + plan — the determinism tests compare this directly.
    pub fn render(&self) -> String {
        let verdict = self.verify();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ledger produced={} accepted={} stored={} attributed={} unattributed={} quarantined_points={}",
            verdict.produced,
            verdict.accepted,
            verdict.stored,
            verdict.attributed,
            verdict.unattributed.len(),
            self.quarantined_points,
        );
        for (cause, n) in self.cause_counts() {
            let _ = writeln!(out, "cause {}={n}", cause.label());
        }
        for (device, t, outcome) in self.iter() {
            let _ = writeln!(
                out,
                "{:016x} t={} {}",
                device.0,
                t.as_seconds(),
                outcome.label()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: DevEui = DevEui(0xA1);

    #[test]
    fn conservation_balanced() {
        let mut l = LossLedger::new();
        l.produced(DEV, Timestamp(0));
        l.accepted(DEV, Timestamp(0));
        l.stored(DEV, Timestamp(0));
        l.produced(DEV, Timestamp(300));
        l.attribute(DEV, Timestamp(300), CauseCode::RadioCollision);
        let v = l.verify();
        assert!(v.is_balanced());
        assert_eq!((v.produced, v.stored, v.attributed), (2, 1, 1));
        assert_eq!(l.cause_counts().get(&CauseCode::RadioCollision), Some(&1));
    }

    #[test]
    fn unattributed_loss_detected() {
        let mut l = LossLedger::new();
        l.produced(DEV, Timestamp(0));
        l.accepted(DEV, Timestamp(0));
        // Never stored, never attributed: silent loss.
        let v = l.verify();
        assert!(!v.is_balanced());
        assert_eq!(
            v.unattributed,
            vec![(DEV, Timestamp(0), UplinkOutcome::Accepted)]
        );
    }

    #[test]
    fn stored_after_stall_wins_over_accepted() {
        let mut l = LossLedger::new();
        l.produced(DEV, Timestamp(0));
        l.accepted(DEV, Timestamp(0));
        l.stored(DEV, Timestamp(0));
        assert!(l.verify().is_balanced());
        assert_eq!(l.conflicts(), 0);
        // Attribution after storage is a conflict, not an overwrite.
        l.attribute(DEV, Timestamp(0), CauseCode::DecodeError);
        assert_eq!(l.conflicts(), 1);
        assert_eq!(l.verify().stored, 1);
    }

    #[test]
    fn render_is_stable() {
        let mut l = LossLedger::new();
        l.produced(DevEui(2), Timestamp(600));
        l.attribute(DevEui(2), Timestamp(600), CauseCode::FrameCorrupted);
        l.produced(DevEui(1), Timestamp(0));
        l.accepted(DevEui(1), Timestamp(0));
        l.stored(DevEui(1), Timestamp(0));
        l.storage_quarantined(12);
        let r = l.render();
        assert_eq!(
            r,
            "ledger produced=2 accepted=1 stored=1 attributed=1 unattributed=0 quarantined_points=12\n\
             cause frame-corrupted=1\n\
             0000000000000001 t=0 stored\n\
             0000000000000002 t=600 frame-corrupted\n"
        );
    }
}
