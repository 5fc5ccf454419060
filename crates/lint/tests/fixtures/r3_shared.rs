//! R3 fixture: shared-state primitives and threads outside test code.

use std::sync::{Arc, Mutex};

// lint:allow(shared): a justified exemption suppresses the import below
use parking_lot::RwLock;

// lint:allow(shared)
use std::sync::atomic::AtomicU64;

/// `Arc` alone is not shared mutable state; the bare `Mutex` and `RwLock`
/// names were already flagged where they came into scope.
pub struct Shared {
    pub names: Arc<Vec<String>>,
    pub queue: Mutex<Vec<u8>>,
    pub store: RwLock<u64>,
    pub flag: std::sync::atomic::AtomicBool,
}

pub fn start() {
    std::thread::spawn(|| ());
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Condvar};

    #[test]
    fn watchdog() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(()));
        rx.recv().ok();
    }
}
