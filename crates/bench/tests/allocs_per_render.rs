//! Allocation gate: heap allocations per Fig. 6 citizen-dashboard render
//! ([`Fig6Fixture::render`]: the dashboard SVG followed by the map SVG).
//!
//! The same counting-allocator pattern as `allocs_per_uplink`: a global
//! allocator delegates to [`System`] and keeps per-thread counters in
//! `thread_local!` `Cell`s. Every `alloc`, `alloc_zeroed` and `realloc` is
//! one allocation, and its requested size (a `realloc`'s new size) is added
//! to the bytes. The fixture takes no seed and every render builds the same
//! bytes, so the figures are exact and the bounds are headroom, not noise.
//!
//! Run: `cargo test --offline -p ctt-bench --test allocs_per_render -- --nocapture`
//! prints the measured figures.

#![deny(unsafe_code)]

use ctt_bench::Fig6Fixture;
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

/// Allocations and requested bytes per render: measured 70 and 226 724 B,
/// in debug and release alike, plus 5 % headroom for change, not noise.
/// The emitter that wrote each point through per-character pushes into
/// canvases grown by doubling, and copied every panel twice, read 154 and
/// 357 846 B.
const BOUND: (u64, u64) = (73, 238_060);

#[test]
fn a_fig6_render_makes_its_measured_allocations() {
    let fixture = Fig6Fixture::fixed();
    let before = counts();
    let svg = fixture.render();
    let (calls, bytes) = (counts().0 - before.0, counts().1 - before.1);
    eprintln!(
        "one render: {calls} allocations requesting {bytes} B for a {} B SVG",
        svg.len()
    );
    assert_eq!(svg.len(), 48_058, "the Fig. 6 golden's length");
    assert!(
        calls <= BOUND.0 && bytes <= BOUND.1,
        "{calls} allocations and {bytes} B exceed the {BOUND:?} bound"
    );
}
