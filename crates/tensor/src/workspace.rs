//! Pooled scratch-buffer allocator for kernel workspaces.
//!
//! The SIMD kernels need transient buffers (packed operand panels, dtype
//! conversion staging). Allocating them per call would put `malloc` on the
//! per-token steady-state path, so scratch goes through a small per-thread
//! pool instead: `plan` (optional pre-sizing) → `acquire` → `release`,
//! after which the buffer is reused. In steady state — the property the
//! workspace-allocator proptest pins — the allocation count stays flat
//! while the acquisition count keeps climbing.
//!
//! Alias safety is structural, not policed: [`Workspace::acquire`] *moves*
//! a `Vec<f32>` out of the pool, so two live scratch buffers can never
//! overlap — there is no way to hand the same allocation out twice without
//! it first being released. The proptest suite verifies the non-overlap
//! property over arbitrary acquire/release interleavings anyway, as a
//! tripwire against future refactors.

use std::cell::RefCell;

/// Counters describing a [`Workspace`]'s reuse behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Buffers created fresh because no pooled buffer was large enough.
    pub allocations: u64,
    /// Total `acquire` calls (hits + allocations).
    pub acquisitions: u64,
    /// Buffers currently sitting in the pool.
    pub pooled: usize,
    /// Capacity, in `f32` elements, of the largest pooled buffer (0 when
    /// the pool is empty) — the scratch footprint a kernel left behind.
    pub largest: usize,
}

/// A pool of reusable `f32` scratch buffers.
///
/// Buffers are matched best-fit by capacity: `acquire(len)` hands out the
/// smallest pooled buffer that can hold `len` elements (resized to exactly
/// `len`), or allocates when none fits. Contents of an acquired buffer are
/// unspecified beyond "all elements initialized" — callers must write
/// before reading anything meaningful.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
    allocations: u64,
    acquisitions: u64,
}

impl Workspace {
    /// An empty pool.
    #[must_use]
    pub const fn new() -> Self {
        Workspace { pool: Vec::new(), allocations: 0, acquisitions: 0 }
    }

    /// Pre-sizes the pool so a steady state with the given concurrent
    /// buffer sizes runs allocation-free from the very first step (the
    /// cubek-style "plan" phase). Sizes already satisfiable by pooled
    /// buffers are not allocated again.
    pub fn plan(&mut self, sizes: &[usize]) {
        // Largest first so one big buffer can satisfy a smaller plan entry.
        let mut wanted: Vec<usize> = sizes.to_vec();
        wanted.sort_unstable_by(|a, b| b.cmp(a));
        let mut claimed = vec![false; self.pool.len()];
        for len in wanted {
            let fit = self
                .pool
                .iter()
                .enumerate()
                .filter(|&(i, b)| !claimed[i] && b.capacity() >= len)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            match fit {
                Some(i) => claimed[i] = true,
                None => {
                    self.pool.push(vec![0.0; len]);
                    claimed.push(true);
                    self.allocations += 1;
                }
            }
        }
    }

    /// Takes a buffer of exactly `len` elements out of the pool,
    /// allocating only when no pooled buffer has the capacity.
    pub fn acquire(&mut self, len: usize) -> Vec<f32> {
        self.acquisitions += 1;
        let fit = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match fit {
            Some(i) => {
                let mut buf = self.pool.swap_remove(i);
                // Within capacity: truncate is free, grow only memsets the
                // delta. Either way, no allocator traffic.
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.allocations += 1;
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn release(&mut self, buf: Vec<f32>) {
        self.pool.push(buf);
    }

    /// Current reuse counters.
    #[must_use]
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            allocations: self.allocations,
            acquisitions: self.acquisitions,
            pooled: self.pool.len(),
            largest: self.pool.iter().map(Vec::capacity).max().unwrap_or(0),
        }
    }

    /// Drops every pooled buffer and zeroes the counters.
    pub fn reset(&mut self) {
        self.pool.clear();
        self.allocations = 0;
        self.acquisitions = 0;
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<Workspace> = const { RefCell::new(Workspace::new()) };
}

/// Runs `f` with this thread's shared [`Workspace`].
///
/// # Panics
///
/// Panics if called re-entrantly from within another `with_workspace`
/// closure (the kernels only ever borrow the pool for the duration of an
/// acquire/release, never across a scratch buffer's lifetime).
pub fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WORKSPACE.with(|w| f(&mut w.borrow_mut()))
}

/// Acquires a `len`-element scratch slice from the thread's pool, runs
/// `f` on it, and returns the buffer to the pool. Nests freely: the pool
/// is only borrowed momentarily at acquire and release, so a kernel may
/// take a second scratch while holding a first.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = with_workspace(|w| w.acquire(len));
    let r = f(&mut buf);
    with_workspace(|w| w.release(buf));
    r
}

/// This thread's workspace counters (see [`WorkspaceStats`]).
#[must_use]
pub fn thread_workspace_stats() -> WorkspaceStats {
    with_workspace(|w| w.stats())
}

/// Clears this thread's pool and counters — test setup for
/// steady-state-allocation assertions.
pub fn reset_thread_workspace() {
    with_workspace(Workspace::reset);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_after_release_allocates_once() {
        let mut w = Workspace::new();
        for _ in 0..10 {
            let buf = w.acquire(256);
            assert_eq!(buf.len(), 256);
            w.release(buf);
        }
        let s = w.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.acquisitions, 10);
        assert_eq!(s.pooled, 1);
        assert!(s.largest >= 256);
        w.reset();
        assert_eq!(w.stats().largest, 0);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        let mut w = Workspace::new();
        let (a, b) = (w.acquire(1024), w.acquire(64));
        w.release(a);
        w.release(b);
        // A 32-element request must take the 64-capacity buffer, leaving
        // the 1024 one for bigger requests.
        let small = w.acquire(32);
        assert!(small.capacity() < 1024, "best fit picked the big buffer");
        let big = w.acquire(1000);
        assert_eq!(w.stats().allocations, 2, "both requests were pool hits");
        w.release(small);
        w.release(big);
    }

    #[test]
    fn concurrent_buffers_never_alias() {
        let mut w = Workspace::new();
        let a = w.acquire(128);
        let b = w.acquire(128);
        let (ar, br) = (a.as_ptr() as usize, b.as_ptr() as usize);
        assert!(ar + 128 * 4 <= br || br + 128 * 4 <= ar, "live buffers overlap");
        w.release(a);
        w.release(b);
    }

    #[test]
    fn plan_presizes_and_acquire_stays_allocation_free() {
        let mut w = Workspace::new();
        w.plan(&[512, 512, 64]);
        assert_eq!(w.stats().allocations, 3);
        let a = w.acquire(512);
        let b = w.acquire(500);
        let c = w.acquire(64);
        assert_eq!(w.stats().allocations, 3, "planned pool served every acquire");
        w.release(a);
        w.release(b);
        w.release(c);
        // Re-planning an already adequate pool allocates nothing.
        w.plan(&[512, 64]);
        assert_eq!(w.stats().allocations, 3);
    }

    #[test]
    fn thread_scratch_roundtrip() {
        reset_thread_workspace();
        let sum = with_scratch(16, |buf| {
            buf.iter_mut().enumerate().for_each(|(i, v)| *v = i as f32);
            // Nested scratch while the outer one is live.
            with_scratch(8, |inner| {
                inner.fill(1.0);
            });
            buf.iter().sum::<f32>()
        });
        assert_eq!(sum, 120.0);
        let s = thread_workspace_stats();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.pooled, 2);
        reset_thread_workspace();
        assert_eq!(thread_workspace_stats().acquisitions, 0);
    }
}
