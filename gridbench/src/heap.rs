//! Peak heap accounting.
//!
//! [`Counting`] is the benchmark binary's global allocator: it forwards
//! to the system allocator and, inside [`peak_during`], counts the bytes
//! the process holds. That peak is what a pass needed, independent of how
//! the allocator laid it out: the resident-set high-water mark of a
//! pool-runtime run swings by a third between runs of the same seed, with
//! how glibc's per-thread arenas happen to fill. Counting costs about a
//! tenth of the run time, so it is on only while `peak_during` runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator, with a switchable live/peak byte count.
pub struct Counting;

// Statistics only: no other data is published through them, so relaxed
// ordering suffices. `LIVE` is signed because memory allocated before
// counting started may be freed while it runs.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let bytes = bytes as isize;
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees hold for every
// caller; the byte counts never influence an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // that is from `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, and the caller upholds `realloc`'s
        // size contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Runs `f` and returns its result with the most bytes held at once
/// while it ran, counted from zero when it started. Memory allocated
/// earlier and freed during `f` lowers the count, so the figure is exact
/// when `f` starts from a clean slate and a lower bound otherwise.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_an_allocation_freed_since() {
        let ((), peak) = peak_during(|| {
            let block = vec![0u8; 1 << 22];
            drop(std::hint::black_box(block));
        });
        assert!(peak >= 1 << 22);
    }
}
