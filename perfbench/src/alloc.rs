//! A counting global allocator: every allocation made on a thread bumps
//! that thread's count and byte total. Counters are per thread so that
//! concurrently running tests cannot disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`] and counts calls per thread.
pub struct Counting;

thread_local! {
    // `const` initialisers without destructors: reading them never
    // allocates, so the allocator may touch them.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and allocated bytes on the calling thread so far (a
/// `realloc` counts as one allocation of its new size).
#[must_use]
pub fn totals() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}

/// Run `f` and then restore this thread's counters, so that `f`'s
/// allocations (the span recorder's own bookkeeping) are not counted.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let (count, bytes) = totals();
    let out = f();
    COUNT.with(|c| c.set(count));
    BYTES.with(|b| b.set(bytes));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_on_this_thread_only() {
        let (c0, b0) = totals();
        let v = std::hint::black_box(vec![0u8; 1000]);
        let (c1, b1) = totals();
        assert_eq!(c1 - c0, 1);
        assert_eq!(b1 - b0, 1000);
        let w = uncounted(|| std::hint::black_box(vec![0u8; 10]));
        assert_eq!(totals(), (c1, b1));
        drop((v, w));
    }
}
