//! Heap gate: the live heap one Trondheim-shaped city holds after two
//! hours of traffic and a full seal, averaged over 100 cities (the
//! `fleet_100` shape).
//!
//! A counting global allocator delegates to [`System`] and keeps the live
//! byte count of each thread in a `thread_local!` `Cell` (no atomics: the
//! pipelines run on this test's thread and start none). The count is exact
//! and every allocation size is a pure function of the seeds, so the gate
//! reads the same figure on every run; its margin is headroom for future
//! change, not noise. This file is the repository's only `unsafe` code.
//!
//! Run: `cargo test --offline -p ctt-bench --test heap_per_city -- --nocapture`
//! prints the measured figure.

#![deny(unsafe_code)]

use ctt::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Live heap bytes allocated minus freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// [`System`], counting live bytes per thread.
struct Counting;

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CITIES: u64 = 100;

/// KiB per city, seeds 42 + city index: measured 152.8 (debug and release
/// alike), plus 10 % headroom. The figure is exact, so the margin absorbs
/// change, not noise.
const BOUND_KIB: f64 = 168.1;

#[test]
fn a_trondheim_city_holds_its_measured_heap_after_two_hours() {
    let before = live_bytes();
    let mut cities: Vec<Pipeline> = (0..CITIES)
        .map(|i| {
            let mut d = Deployment::trondheim();
            d.city = format!("City{i}");
            Pipeline::new(d, 42 + i)
        })
        .collect();
    for p in &mut cities {
        let start = p.now();
        // One-hour segments, as the fleet workloads run them.
        p.run_until(start + Span::hours(1));
        p.run_until(start + Span::hours(2));
        p.seal_all();
    }
    let kib = (live_bytes() - before) as f64 / 1024.0 / CITIES as f64;
    eprintln!("heap per city after 2 h + seal_all: {kib:.1} KiB (bound {BOUND_KIB} KiB)");
    assert!(kib > 0.0, "the counting allocator saw the pipelines");
    assert!(
        kib <= BOUND_KIB,
        "{kib:.1} KiB per city exceeds the {BOUND_KIB} KiB bound"
    );
}
