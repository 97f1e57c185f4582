//! Recycled host buffers for the chunking hot path.
//!
//! §5.1 of the paper measures what serialized `malloc` does to a
//! multi-threaded chunker (the with/without-Hoard gap of Figure 12); the
//! engineering lesson is that the per-buffer hot loop must not allocate
//! at all. A [`BufferPool`] makes that discipline checkable: every
//! buffer the host path needs — the 1 MiB materialization scratch, the
//! carry+buffer scan window, a retained stream for payload-reading
//! sinks — is leased from the pool and returned on drop, and the pool
//! counts how often it had to fall back to a fresh heap allocation.
//! After the first lease of each shape, a steady-state loop reports
//! **zero** new allocations (see the tests here and the engine's
//! steady-state test).
//!
//! Chunk references stay range-based throughout: a
//! [`Chunk`](shredder_rabin::Chunk) is an `(offset, len)` pair into the
//! pooled stream bytes, and the store-commit path copies a payload at
//! most once, straight from that range into the segment log.
//!
//! The pool is deliberately simple: a mutex-guarded free list with
//! best-fit reuse (smallest free buffer whose capacity suffices) and a
//! bounded depth so it never hoards unbounded memory. Leases are
//! `Send`; clones of a pool share the same free list and counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum buffers kept on the free list; returns beyond this are
/// dropped (freeing the memory) rather than hoarded.
const MAX_POOLED: usize = 16;

#[derive(Default)]
struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    allocations: AtomicU64,
    recycles: AtomicU64,
}

/// A shared pool of recycled byte buffers with allocation accounting.
///
/// # Examples
///
/// ```
/// use shredder_core::BufferPool;
///
/// let pool = BufferPool::new();
/// {
///     let buf = pool.get(1 << 20); // first lease: one real allocation
///     assert_eq!(buf.len(), 1 << 20);
/// } // dropped: the buffer returns to the pool
/// for _ in 0..100 {
///     let _buf = pool.get(1 << 20); // steady state: recycled
/// }
/// assert_eq!(pool.allocations(), 1);
/// assert_eq!(pool.recycles(), 100);
/// ```
#[derive(Clone, Default)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Leases a zero-filled buffer of exactly `len` bytes, recycling a
    /// pooled buffer when one is large enough (best fit). The lease
    /// returns to the pool when dropped.
    pub fn get(&self, len: usize) -> PooledBuf {
        let mut buf = self.reuse(len, false);
        buf.clear();
        buf.resize(len, 0);
        PooledBuf {
            buf,
            pool: Arc::clone(&self.inner),
        }
    }

    /// Leases an *empty* buffer with at least `cap` bytes of capacity —
    /// the shape for `extend_from_slice` materialization loops. With
    /// `cap = 0` the largest pooled buffer is handed out, so repeated
    /// materializations of similar streams stop growing after the first.
    pub fn with_capacity(&self, cap: usize) -> PooledBuf {
        let mut buf = self.reuse(cap, cap == 0);
        buf.clear();
        PooledBuf {
            buf,
            pool: Arc::clone(&self.inner),
        }
    }

    /// Pops a suitable free buffer or allocates one, bumping the
    /// matching counter. `largest` picks the biggest free buffer
    /// regardless of `len` (and never counts an allocation, because an
    /// empty `Vec` has no backing store yet).
    fn reuse(&self, len: usize, largest: bool) -> Vec<u8> {
        let mut free = self
            .inner
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let pick = if largest {
            free.iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
        } else {
            free.iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= len)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
        };
        match pick {
            Some(i) => {
                self.inner.recycles.fetch_add(1, Ordering::Relaxed);
                free.swap_remove(i)
            }
            None => {
                drop(free);
                if !largest {
                    self.inner.allocations.fetch_add(1, Ordering::Relaxed);
                }
                Vec::with_capacity(len)
            }
        }
    }

    /// Fresh heap allocations the pool has had to make — the number the
    /// steady-state tests pin: once every buffer shape has been seen,
    /// this stops moving.
    pub fn allocations(&self) -> u64 {
        self.inner.allocations.load(Ordering::Relaxed)
    }

    /// Leases served from the free list without allocating.
    pub fn recycles(&self) -> u64 {
        self.inner.recycles.load(Ordering::Relaxed)
    }

    /// Buffers currently parked on the free list.
    pub fn idle(&self) -> usize {
        self.inner
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("allocations", &self.allocations())
            .field("recycles", &self.recycles())
            .field("idle", &self.idle())
            .finish()
    }
}

/// A leased buffer. Derefs to its `Vec<u8>` (so slicing, `extend`, and
/// `&mut buf[..]` all work) and returns to its pool on drop, keeping
/// its capacity for the next lease.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<PoolInner>,
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.buf.len())
            .field("capacity", &self.buf.capacity())
            .finish()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        // Zero-capacity buffers carry nothing worth recycling.
        if self.buf.capacity() == 0 {
            return;
        }
        let mut free = self
            .pool
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if free.len() < MAX_POOLED {
            free.push(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_allocates_zero() {
        let pool = BufferPool::new();
        // Warm-up: the only real allocation.
        drop(pool.get(1 << 20));
        let after_warmup = pool.allocations();
        for _ in 0..100 {
            let buf = pool.get(1 << 20);
            assert_eq!(buf.len(), 1 << 20);
        }
        assert_eq!(
            pool.allocations() - after_warmup,
            0,
            "steady-state loop must be allocation-free"
        );
        assert_eq!(pool.recycles(), 100);
    }

    #[test]
    fn leases_are_zero_filled() {
        let pool = BufferPool::new();
        {
            let mut buf = pool.get(64);
            buf.iter_mut().for_each(|b| *b = 0xff);
        }
        let buf = pool.get(64);
        assert!(buf.iter().all(|&b| b == 0), "recycled lease must be zeroed");
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        let pool = BufferPool::new();
        // Hold both leases at once so two distinct buffers exist.
        let big = pool.get(1 << 20);
        let small = pool.get(1 << 10);
        drop(big);
        drop(small);
        // Both are free; the small request must not burn the big buffer.
        let small = pool.get(1 << 10);
        assert!(small.capacity() < (1 << 20));
        let big = pool.get(1 << 20);
        assert!(big.capacity() >= (1 << 20));
        assert_eq!(pool.allocations(), 2, "both shapes served from the pool");
    }

    #[test]
    fn with_capacity_supports_growth_without_new_backing() {
        let pool = BufferPool::new();
        {
            let mut data = pool.with_capacity(4096);
            data.extend_from_slice(&[7u8; 4096]);
        }
        // Steady state: the recycled capacity absorbs the same growth.
        let before = pool.allocations();
        for _ in 0..10 {
            let mut data = pool.with_capacity(0);
            data.extend_from_slice(&[8u8; 4096]);
            assert_eq!(data.len(), 4096);
        }
        assert_eq!(pool.allocations(), before);
    }

    #[test]
    fn free_list_depth_is_bounded() {
        let pool = BufferPool::new();
        let leases: Vec<_> = (0..MAX_POOLED + 8).map(|_| pool.get(128)).collect();
        drop(leases);
        assert_eq!(pool.idle(), MAX_POOLED);
    }

    #[test]
    fn clones_share_the_free_list() {
        let pool = BufferPool::new();
        let clone = pool.clone();
        drop(pool.get(256));
        let buf = clone.get(256);
        assert_eq!(buf.len(), 256);
        assert_eq!(clone.allocations(), 1);
        assert_eq!(clone.recycles(), 1);
    }
}
