//! Reusable device-buffer arena for cheap kernel re-launches.
//!
//! A serving workload runs thousands of small launches back to back; on
//! real hardware the `cudaMalloc`/`cudaFree` pair around each one costs
//! more than the kernels, which is why production servers keep a stream
//! arena. [`BufferPool`] is that arena for the simulator: buffers are
//! checked out by length, rounded up to a power-of-two size class, and
//! returned to a per-class shelf when the [`PooledBuffer`] guard drops —
//! the next `acquire` of the class reuses the same allocation instead of
//! creating a new [`GlobalBuffer`].
//!
//! ### `read_sectors` accounting across reuse
//!
//! Per-buffer [`GlobalBuffer::read_sectors`] is a **lifetime** counter
//! ("the key buffer was read exactly twice" claims divide by it), and a
//! pooled buffer's lifetime now spans many launches. The pool therefore
//! must never recreate or reset a shelved buffer — recreating one would
//! silently zero the counter mid-measurement, which is exactly the bug
//! surface this module's regression test pins down. Consumers that want
//! per-launch attribution snapshot the counter before the launch and
//! subtract ([`read_sectors`](GlobalBuffer::read_sectors) deltas are
//! schedule-independent because only counted read paths bump it).

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::memory::{GlobalBuffer, Scalar};

/// A shelf of idle buffers per power-of-two size class.
struct Shelves<T: Scalar> {
    /// `(capacity, idle buffers)`, sorted by capacity (few classes, so a
    /// linear scan beats hashing and keeps iteration deterministic).
    classes: Vec<(usize, Vec<GlobalBuffer<T>>)>,
}

/// A reusable arena of [`GlobalBuffer`]s (see the module docs).
pub struct BufferPool<T: Scalar = u32> {
    shelves: Mutex<Shelves<T>>,
    /// Fresh `GlobalBuffer` allocations performed by this pool.
    allocs: AtomicU64,
    /// Checkouts served by reusing a shelved buffer.
    reuses: AtomicU64,
}

impl<T: Scalar> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            shelves: Mutex::new(Shelves {
                classes: Vec::new(),
            }),
            allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Size class a request of `len` elements is served from.
    fn size_class(len: usize) -> usize {
        len.max(1).next_power_of_two()
    }

    /// Check out a buffer of at least `len` elements. Contents are
    /// whatever the previous checkout left behind (like a freshly
    /// `cudaMalloc`ed region). The buffer's `len()` is the size class, not `len` — kernels take an
    /// explicit `n`, so spare capacity is inert.
    pub fn acquire(&self, len: usize) -> PooledBuffer<'_, T> {
        let cap = Self::size_class(len);
        let reused = {
            let mut g = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
            g.classes
                .iter_mut()
                .find(|(c, _)| *c == cap)
                .and_then(|(_, idle)| idle.pop())
        };
        let buf = match reused {
            Some(b) => {
                // Reuse NEVER recreates the buffer: its lifetime
                // `read_sectors` counter keeps accumulating.
                self.reuses.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                GlobalBuffer::<T>::zeroed(cap)
            }
        };
        PooledBuffer {
            pool: self,
            buf: Some(buf),
        }
    }

    /// Fresh allocations this pool has performed.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Checkouts served without allocating (shelf hits).
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Buffers currently idle on the shelves.
    pub fn idle(&self) -> usize {
        let g = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        g.classes.iter().map(|(_, v)| v.len()).sum()
    }

    fn release(&self, buf: GlobalBuffer<T>) {
        let cap = buf.len();
        debug_assert_eq!(cap, Self::size_class(cap), "pooled buffers are class-sized");
        let mut g = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        match g.classes.iter_mut().find(|(c, _)| *c == cap) {
            Some((_, idle)) => idle.push(buf),
            None => {
                let at = g.classes.partition_point(|(c, _)| *c < cap);
                g.classes.insert(at, (cap, vec![buf]));
            }
        }
    }
}

impl<T: Scalar> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Checkout guard: derefs to the pooled [`GlobalBuffer`] and returns it
/// to the pool's shelf on drop.
pub struct PooledBuffer<'p, T: Scalar> {
    pool: &'p BufferPool<T>,
    buf: Option<GlobalBuffer<T>>,
}

impl<T: Scalar> Deref for PooledBuffer<'_, T> {
    type Target = GlobalBuffer<T>;
    fn deref(&self) -> &GlobalBuffer<T> {
        self.buf.as_ref().expect("present until drop")
    }
}

impl<T: Scalar> Drop for PooledBuffer<'_, T> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.release(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lanes_from_fn, Device, FULL_MASK, K40C, WARP_SIZE};

    #[test]
    fn size_classes_round_up_to_powers_of_two() {
        assert_eq!(BufferPool::<u32>::size_class(0), 1);
        assert_eq!(BufferPool::<u32>::size_class(1), 1);
        assert_eq!(BufferPool::<u32>::size_class(1000), 1024);
        assert_eq!(BufferPool::<u32>::size_class(1024), 1024);
        assert_eq!(BufferPool::<u32>::size_class(1025), 2048);
    }

    #[test]
    fn checkout_reuses_the_shelved_allocation() {
        let pool = BufferPool::<u32>::new();
        {
            let a = pool.acquire(100);
            a.set(0, 42);
            assert_eq!(a.len(), 128);
        }
        assert_eq!((pool.allocs(), pool.reuses(), pool.idle()), (1, 0, 1));
        {
            let b = pool.acquire(120);
            assert_eq!(b.get(0), 42, "same allocation, stale contents");
            let c = pool.acquire(100);
            assert_eq!(c.get(0), 0, "shelf empty: second checkout is fresh");
        }
        assert_eq!((pool.allocs(), pool.reuses(), pool.idle()), (2, 1, 2));
    }

    /// The satellite-1 regression: per-buffer `read_sectors` is a lifetime
    /// counter, and pooled reuse must keep accumulating it — a pool that
    /// recreated (or reset) shelved buffers would silently zero the
    /// counter between launches and every "buffer X was read K times"
    /// claim made across a batch would be wrong.
    #[test]
    fn read_sectors_accumulates_across_pooled_reuse() {
        let n = 4 * WARP_SIZE;
        let pool = BufferPool::<u32>::new();
        let dev = Device::sequential(K40C);
        let one_launch = |buf: &GlobalBuffer<u32>| {
            dev.launch("pool-read", 1, 1, |blk| {
                for w in blk.warps() {
                    for c in 0..n / WARP_SIZE {
                        w.gather(buf, lanes_from_fn(|l| c * WARP_SIZE + l), FULL_MASK);
                    }
                }
            });
        };
        let per_launch = {
            let a = pool.acquire(n);
            one_launch(&a);
            a.read_sectors()
        };
        assert!(per_launch > 0);
        for round in 1..=3u64 {
            let b = pool.acquire(n);
            assert_eq!(
                b.read_sectors(),
                round * per_launch,
                "counter must survive the shelf round-trip"
            );
            one_launch(&b);
            assert_eq!(b.read_sectors(), (round + 1) * per_launch);
        }
        assert_eq!(pool.allocs(), 1, "one allocation serves every round");
        assert_eq!(pool.reuses(), 3);
    }
}
