//! Allocation gate: heap allocations per delivered uplink in one
//! Trondheim city's steady state (seed 42, days 1–8 after a day of
//! warm-up).
//!
//! The same counting-allocator pattern as `heap_per_city`: a global
//! allocator delegates to [`System`] and keeps per-thread counters in
//! `thread_local!` `Cell`s (the pipeline runs on this test's thread and
//! starts none). Here it counts calls: every `alloc`, `alloc_zeroed` and
//! `realloc` is one allocation, and its requested size (a `realloc`'s new
//! size) is added to the bytes. Every allocation is a pure function of the
//! seed, so the figure is exact and the bound is headroom, not noise.
//!
//! Run: `cargo test --offline -p ctt-bench --test allocs_per_uplink -- --nocapture`
//! prints the measured figures.

#![deny(unsafe_code)]

use ctt::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls and bytes requested on this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn track(bytes: usize) {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = COUNTS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

/// [`System`], counting allocation calls per thread.
struct Counting;

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations per delivered uplink at seed 42 over 23 558 uplinks:
/// measured 8.80, in debug and release alike, plus 5 % headroom for
/// change, not noise.
const BOUND: f64 = 9.25;

#[test]
fn a_steady_state_uplink_makes_its_measured_allocations() {
    let mut p = Pipeline::new(Deployment::trondheim(), 42);
    let start = p.now();
    p.run_until(start + Span::days(1));
    let (calls, bytes) = counts();
    let delivered = p.stats().delivered;
    p.run_until(start + Span::days(8));
    let (calls, bytes) = (counts().0 - calls, counts().1 - bytes);
    let uplinks = p.stats().delivered - delivered;
    let per_uplink = calls as f64 / uplinks as f64;
    eprintln!(
        "days 1-8: {uplinks} uplinks, {per_uplink:.2} allocations and {:.0} B per uplink (bound {BOUND})",
        bytes as f64 / uplinks as f64
    );
    assert!(uplinks > 20_000, "a week of Trondheim delivers its uplinks");
    assert!(
        per_uplink <= BOUND,
        "{per_uplink:.2} allocations per uplink exceed the {BOUND} bound"
    );
}
