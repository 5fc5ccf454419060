//! The per-device loss ledger ≡ one `(device, t)`-keyed map.
//!
//! `LossLedger` keeps each device's entries in a time-sorted list and
//! appends when a new entry is the device's latest. The reference here is
//! the flat `BTreeMap<(DevEui, Timestamp), UplinkOutcome>` with the same
//! transition rules, rendered in key order. Random op sequences mix
//! rising times with out-of-order and repeated ones, ops on devices that
//! never produced, and attributions or stores on terminal entries; after
//! every op the ledger's render, verdict, cause counts, length and
//! conflict count must equal the reference's.

use ctt_chaos::{CauseCode, LedgerVerdict, LossLedger, UplinkOutcome};
use ctt_core::ids::DevEui;
use ctt_core::time::Timestamp;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const CAUSES: [CauseCode; 10] = [
    CauseCode::RadioDutyCycle,
    CauseCode::RadioNoCoverage,
    CauseCode::RadioCollision,
    CauseCode::RadioGatewayBusy,
    CauseCode::GatewayOutage,
    CauseCode::FrameCorrupted,
    CauseCode::FrameTruncated,
    CauseCode::ServerDuplicate,
    CauseCode::DecodeError,
    CauseCode::Backpressure,
];

#[derive(Debug, Default)]
struct Reference {
    entries: BTreeMap<(DevEui, Timestamp), UplinkOutcome>,
    accepted: u64,
    conflicts: u64,
}

impl Reference {
    fn entry(&mut self, device: DevEui, t: Timestamp) -> &mut UplinkOutcome {
        self.entries
            .entry((device, t))
            .or_insert(UplinkOutcome::Produced)
    }

    fn apply(&mut self, op: u8, device: DevEui, t: Timestamp, cause: CauseCode) {
        match op {
            0 => {
                self.entry(device, t);
            }
            1 => {
                self.accepted += 1;
                let e = self.entry(device, t);
                if !e.is_terminal() {
                    *e = UplinkOutcome::Accepted;
                }
            }
            2 => {
                let e = self.entry(device, t);
                if matches!(e, UplinkOutcome::Lost(_)) {
                    self.conflicts += 1;
                } else {
                    *e = UplinkOutcome::Stored;
                }
            }
            _ => {
                let e = self.entry(device, t);
                if e.is_terminal() {
                    self.conflicts += 1;
                } else {
                    *e = UplinkOutcome::Lost(cause);
                }
            }
        }
    }

    fn cause_counts(&self) -> BTreeMap<CauseCode, u64> {
        let mut counts = BTreeMap::new();
        for outcome in self.entries.values() {
            if let UplinkOutcome::Lost(cause) = outcome {
                *counts.entry(*cause).or_insert(0) += 1;
            }
        }
        counts
    }

    fn verify(&self) -> LedgerVerdict {
        let count = |f: fn(&UplinkOutcome) -> bool| self.entries.values().filter(|o| f(o)).count();
        LedgerVerdict {
            produced: self.entries.len() as u64,
            accepted: self.accepted,
            stored: count(|o| *o == UplinkOutcome::Stored) as u64,
            attributed: count(|o| matches!(o, UplinkOutcome::Lost(_))) as u64,
            unattributed: self
                .entries
                .iter()
                .filter(|(_, o)| !o.is_terminal())
                .map(|(&(device, t), &o)| (device, t, o))
                .collect(),
        }
    }

    fn render(&self) -> String {
        let v = self.verify();
        let mut out = format!(
            "ledger produced={} accepted={} stored={} attributed={} unattributed={} quarantined_points=0\n",
            v.produced,
            v.accepted,
            v.stored,
            v.attributed,
            v.unattributed.len(),
        );
        for (cause, n) in self.cause_counts() {
            let _ = writeln!(out, "cause {}={n}", cause.label());
        }
        for (&(device, t), outcome) in &self.entries {
            let label = match outcome {
                UplinkOutcome::Produced => "produced",
                UplinkOutcome::Accepted => "accepted",
                UplinkOutcome::Stored => "stored",
                UplinkOutcome::Lost(cause) => cause.label(),
            };
            let _ = writeln!(out, "{:016x} t={} {label}", device.0, t.as_seconds());
        }
        out
    }
}

proptest! {
    #[test]
    fn the_per_device_ledger_matches_the_flat_map(
        ops in vec((0u8..4, 0u64..5, -3i64..2, 0usize..10), 1..120),
    ) {
        let mut ledger = LossLedger::new();
        let mut reference = Reference::default();
        for (step, &(op, device, jitter, cause)) in ops.iter().enumerate() {
            // Mostly rising per device, as a run produces them, with
            // repeats and out-of-order times from the jitter.
            let t = Timestamp(step as i64 / 2 + jitter);
            let device = DevEui(0xA0 + device);
            let cause = CAUSES.get(cause).copied().unwrap_or(CauseCode::DecodeError);
            match op {
                0 => ledger.produced(device, t),
                1 => ledger.accepted(device, t),
                2 => ledger.stored(device, t),
                _ => ledger.attribute(device, t, cause),
            }
            reference.apply(op, device, t, cause);
            prop_assert_eq!(ledger.render(), reference.render(), "step {}", step);
            prop_assert_eq!(ledger.verify(), reference.verify());
            prop_assert_eq!(ledger.cause_counts(), reference.cause_counts());
            prop_assert_eq!(ledger.len(), reference.entries.len());
            prop_assert_eq!(ledger.conflicts(), reference.conflicts);
        }
    }
}
