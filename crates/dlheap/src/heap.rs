//! The sequential heap: segments, split/coalesce, direct OS blocks.

use crate::bins::Bins;
use crate::chunk::{request_to_chunk_size, Chunk, CINUSE, MIN_CHUNK, MMAPPED, PINUSE};
use osmem::source::{pages_for, PAGE_SIZE};
use osmem::PageSource;
use std::sync::Arc;

/// Default growth unit: 1 MiB segments (comparable to the lock-free
/// allocator's hyperblocks, keeping the OS-call economics similar).
pub const SEGMENT_SIZE: usize = 1 << 20;

/// Requests at or above this bypass the bins and map directly.
pub const DIRECT_THRESHOLD: usize = 256 * 1024;

/// Per-segment bookkeeping, stored at the segment base.
#[repr(C)]
struct SegHeader {
    next: usize,
    size: usize,
    _pad: usize, // keeps the first chunk at base + 24 ≡ 8 (mod 16)
}

const SEG_OVERHEAD: usize = core::mem::size_of::<SegHeader>() + 8; // header + end sentinel

/// Aggregate figures from [`SerialHeap::check_integrity`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapReport {
    /// Segments walked.
    pub segments: usize,
    /// Chunks currently allocated.
    pub in_use_chunks: usize,
    /// Bytes in allocated chunks (headers included).
    pub in_use_bytes: usize,
    /// Free chunks in bins.
    pub free_chunks: usize,
    /// Bytes in free chunks.
    pub free_bytes: usize,
}

/// A single-threaded dlmalloc-style heap.
///
/// Thread-unsafe by design: the libc baseline wraps it in one mutex
/// ([`crate::LockedHeap`]); Ptmalloc wraps one per arena.
///
/// # Example
///
/// ```
/// use dlheap::SerialHeap;
/// use osmem::SystemSource;
/// use std::sync::Arc;
///
/// let mut h = SerialHeap::new(Arc::new(SystemSource::new()));
/// unsafe {
///     let p = h.malloc(100);
///     assert!(!p.is_null());
///     h.free(p);
/// }
/// ```
pub struct SerialHeap<S: PageSource> {
    bins: Bins,
    segments: usize,
    source: Arc<S>,
    segment_size: usize,
    /// Frees rejected by the boundary-tag sanity check in [`free`](Self::free).
    misuse: u64,
}

unsafe impl<S: PageSource + Send + Sync> Send for SerialHeap<S> {}

impl<S: PageSource> SerialHeap<S> {
    /// An empty heap drawing pages from `source`.
    pub fn new(source: Arc<S>) -> Self {
        Self::with_segment_size(source, SEGMENT_SIZE)
    }

    /// Custom growth unit (tests use small segments to force growth
    /// paths).
    pub fn with_segment_size(source: Arc<S>, segment_size: usize) -> Self {
        SerialHeap {
            bins: Bins::new(),
            segments: 0,
            source,
            segment_size,
            misuse: 0,
        }
    }

    /// Frees rejected because the chunk header failed sanity checks
    /// (CINUSE already clear — the common double free — or an illegal
    /// size word). Known gaps, inherent to boundary tags: a double free
    /// whose first free coalesced backward leaves a stale header that
    /// may still look in-use, and a double free of an `MMAPPED` block
    /// touches unmapped memory before any check can run.
    pub fn misuse_count(&self) -> u64 {
        self.misuse
    }

    /// The page source (shared with the owner for stats).
    pub fn source(&self) -> &Arc<S> {
        &self.source
    }

    /// Allocates `size` bytes (16-aligned).
    ///
    /// # Safety
    ///
    /// Caller must serialize all access to this heap and uphold the
    /// standard malloc contract.
    pub unsafe fn malloc(&mut self, size: usize) -> *mut u8 {
        if size >= DIRECT_THRESHOLD {
            return unsafe { self.direct_malloc(size) };
        }
        let need = request_to_chunk_size(size);
        if let Some((c, csize)) = unsafe { self.bins.take_fit(need) } {
            return unsafe { self.split_and_use(c, csize, need) };
        }
        if !unsafe { self.grow(need) } {
            return core::ptr::null_mut();
        }
        match unsafe { self.bins.take_fit(need) } {
            Some((c, csize)) => unsafe { self.split_and_use(c, csize, need) },
            None => core::ptr::null_mut(),
        }
    }

    /// Frees a block from [`malloc`](Self::malloc), coalescing with free
    /// neighbours.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live block of this heap; access serialized.
    pub unsafe fn free(&mut self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        let c = Chunk::from_user_ptr(ptr);
        unsafe {
            if c.mmapped() {
                let total = c.size();
                let base = (c.0 - 8) as *mut u8;
                self.source.dealloc_pages(base, total, PAGE_SIZE);
                return;
            }
            // Boundary-tag sanity before touching any neighbour: a
            // chunk freed once has CINUSE clear (the header rewrite in
            // the previous free), and a wild pointer rarely presents a
            // legal size word.
            let size = c.size();
            if !c.cinuse() || size < MIN_CHUNK || size % 16 != 0 {
                self.misuse += 1;
                return;
            }
            let mut start = c;
            let mut size = size;
            // Coalesce forward.
            let n = c.next();
            if !n.cinuse() {
                let nsize = n.size();
                self.bins.unlink(n, nsize);
                size += nsize;
            }
            // Coalesce backward (footer of the free predecessor).
            if !c.pinuse() {
                let p = c.prev();
                let psize = p.size();
                self.bins.unlink(p, psize);
                start = p;
                size += psize;
            }
            let pinuse_flag = start.header() & PINUSE;
            start.set_header(size | pinuse_flag);
            start.set_footer(size);
            // The chunk after the merged span sees a free predecessor.
            let after = Chunk(start.0 + size);
            after.set_header(after.header() & !PINUSE);
            self.bins.insert(start, size);
        }
    }

    /// Takes `need` bytes out of free chunk `c` (of `csize`), splitting
    /// off a remainder when it is worth a chunk.
    unsafe fn split_and_use(&mut self, c: Chunk, csize: usize, need: usize) -> *mut u8 {
        unsafe {
            let pinuse_flag = c.header() & PINUSE;
            if csize - need >= MIN_CHUNK {
                let rem = Chunk(c.0 + need);
                let rem_size = csize - need;
                rem.set_header(rem_size | PINUSE); // c is now in use
                rem.set_footer(rem_size);
                self.bins.insert(rem, rem_size);
                c.set_header(need | CINUSE | pinuse_flag);
                // The chunk after `rem` keeps PINUSE clear (rem is free)
                // — it was already clear because `c` was free.
            } else {
                c.set_header(csize | CINUSE | pinuse_flag);
                let n = c.next();
                n.set_header(n.header() | PINUSE);
            }
            c.user_ptr()
        }
    }

    /// Maps one more segment big enough for `need`, adding its span to
    /// the bins. Returns false if the OS refuses.
    unsafe fn grow(&mut self, need: usize) -> bool {
        let bytes = pages_for((need + SEG_OVERHEAD).max(self.segment_size));
        let base = unsafe { self.source.alloc_pages(bytes, PAGE_SIZE) };
        if base.is_null() {
            return false;
        }
        unsafe {
            let header = base as *mut SegHeader;
            (*header).next = self.segments;
            (*header).size = bytes;
            self.segments = base as usize;
            // Carve the free span: first chunk after the header, end
            // sentinel in the last 8 bytes.
            let first = Chunk(base as usize + core::mem::size_of::<SegHeader>());
            let span = bytes - SEG_OVERHEAD;
            debug_assert_eq!(first.0 % 16, 8, "chunks must start ≡ 8 (mod 16)");
            debug_assert!(span >= MIN_CHUNK && span % 16 == 0);
            first.set_header(span | PINUSE); // nothing before it
            first.set_footer(span);
            let sentinel = Chunk(first.0 + span);
            sentinel.set_header(CINUSE); // size 0, in use: stops coalescing
            self.bins.insert(first, span);
        }
        true
    }

    /// Direct OS path for huge requests.
    unsafe fn direct_malloc(&mut self, size: usize) -> *mut u8 {
        let Some(padded) = size.checked_add(16 + PAGE_SIZE - 1) else {
            return core::ptr::null_mut();
        };
        let total = pages_for(padded & !(PAGE_SIZE - 1));
        let base = unsafe { self.source.alloc_pages(total, PAGE_SIZE) };
        if base.is_null() {
            return core::ptr::null_mut();
        }
        let c = Chunk(base as usize + 8);
        unsafe { c.set_header(total | CINUSE | PINUSE | MMAPPED) };
        c.user_ptr()
    }

    /// Walks every segment verifying the boundary-tag invariants; used
    /// by tests and debug assertions. Returns aggregate figures.
    ///
    /// Checked invariants:
    ///
    /// * chunk sizes are legal (aligned, ≥ [`MIN_CHUNK`]) and chunks
    ///   tile each segment exactly, ending at the sentinel;
    /// * each chunk's `PINUSE` flag equals the previous chunk's
    ///   `CINUSE`;
    /// * every free chunk carries a correct footer;
    /// * no two adjacent chunks are both free (coalescing is complete).
    ///
    /// # Panics
    ///
    /// Panics with a description on the first violated invariant.
    pub fn check_integrity(&self) -> HeapReport {
        let mut report = HeapReport::default();
        let mut s = self.segments;
        while s != 0 {
            unsafe {
                let header = s as *const SegHeader;
                let seg_size = (*header).size;
                report.segments += 1;
                let first = s + core::mem::size_of::<SegHeader>();
                let end = s + seg_size - 8; // sentinel address
                let mut c = Chunk(first);
                let mut prev_cinuse = true; // segment start acts as in-use
                let mut prev_free = false;
                while c.0 < end {
                    let size = c.size();
                    assert!(
                        size >= MIN_CHUNK && size % 16 == 0,
                        "illegal chunk size {size:#x} at {:#x}",
                        c.0
                    );
                    assert!(c.0 + size <= end, "chunk at {:#x} overruns its segment", c.0);
                    assert_eq!(
                        c.pinuse(),
                        prev_cinuse,
                        "PINUSE desync at {:#x} (prev in-use={prev_cinuse})",
                        c.0
                    );
                    if c.cinuse() {
                        report.in_use_chunks += 1;
                        report.in_use_bytes += size;
                        prev_free = false;
                    } else {
                        assert!(
                            !prev_free,
                            "two adjacent free chunks at {:#x}: coalescing missed",
                            c.0
                        );
                        let footer = *((c.0 + size - 8) as *const usize);
                        assert_eq!(footer, size, "footer mismatch at {:#x}", c.0);
                        report.free_chunks += 1;
                        report.free_bytes += size;
                        prev_free = true;
                    }
                    prev_cinuse = c.cinuse();
                    c = Chunk(c.0 + size);
                }
                assert_eq!(c.0, end, "chunks do not tile segment ending at {end:#x}");
                let sentinel = Chunk(end);
                assert!(sentinel.cinuse(), "segment sentinel lost its CINUSE flag");
                s = (*header).next;
            }
        }
        report
    }

    /// Number of segments currently mapped (diagnostics).
    pub fn segment_count(&self) -> usize {
        let mut n = 0;
        let mut s = self.segments;
        while s != 0 {
            n += 1;
            s = unsafe { (*(s as *const SegHeader)).next };
        }
        n
    }
}

impl<S: PageSource> Drop for SerialHeap<S> {
    fn drop(&mut self) {
        let mut s = self.segments;
        while s != 0 {
            unsafe {
                let header = s as *const SegHeader;
                let next = (*header).next;
                let size = (*header).size;
                self.source.dealloc_pages(s as *mut u8, size, PAGE_SIZE);
                s = next;
            }
        }
    }
}

impl<S: PageSource> core::fmt::Debug for SerialHeap<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SerialHeap")
            .field("segments", &self.segment_count())
            .field("segment_size", &self.segment_size)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmem::{CountingSource, SystemSource};

    fn heap() -> SerialHeap<CountingSource<SystemSource>> {
        SerialHeap::new(Arc::new(CountingSource::new(SystemSource::new())))
    }

    #[test]
    fn malloc_free_roundtrip() {
        let mut h = heap();
        unsafe {
            let p = h.malloc(100);
            assert!(!p.is_null());
            assert_eq!(p as usize % 16, 0);
            core::ptr::write_bytes(p, 0xAA, 100);
            h.free(p);
        }
    }

    #[test]
    fn coalescing_reassembles_the_segment() {
        let mut h = heap();
        unsafe {
            // Allocate the whole small range in pieces, free all, then a
            // big allocation must fit without a new segment.
            let blocks: Vec<*mut u8> = (0..100).map(|_| h.malloc(1000)).collect();
            assert_eq!(h.segment_count(), 1);
            for p in blocks {
                h.free(p);
            }
            // After full coalescing one huge chunk exists again.
            let big = h.malloc(200_000);
            assert!(!big.is_null());
            assert_eq!(h.segment_count(), 1, "coalescing failed: needed a new segment");
            h.free(big);
        }
    }

    #[test]
    fn split_reuses_remainders() {
        let mut h = heap();
        unsafe {
            let a = h.malloc(10_000);
            h.free(a);
            // Splitting the 10k chunk must serve many smaller ones
            // without growth.
            let before = h.segment_count();
            let blocks: Vec<*mut u8> = (0..8).map(|_| h.malloc(1000)).collect();
            assert_eq!(h.segment_count(), before);
            for p in blocks {
                h.free(p);
            }
        }
    }

    #[test]
    fn direct_blocks_bypass_segments() {
        let mut h = heap();
        unsafe {
            let p = h.malloc(DIRECT_THRESHOLD + 123);
            assert!(!p.is_null());
            assert_eq!(h.segment_count(), 0, "direct blocks must not create segments");
            core::ptr::write_bytes(p, 1, DIRECT_THRESHOLD + 123);
            h.free(p);
        }
        assert_eq!(h.source().stats().live_bytes, 0);
    }

    #[test]
    fn data_integrity_under_interleaving() {
        let mut h = heap();
        let mut rng = malloc_api::testkit::TestRng::new(99);
        unsafe {
            let mut live: Vec<(*mut u8, usize)> = Vec::new();
            for _ in 0..2_000 {
                if live.len() > 64 || (!live.is_empty() && rng.range(0, 2) == 0) {
                    let i = rng.range(0, live.len());
                    let (p, sz) = live.swap_remove(i);
                    malloc_api::testkit::check_fill(p, sz);
                    h.free(p);
                } else {
                    let sz = rng.range(1, 2048);
                    let p = h.malloc(sz);
                    assert!(!p.is_null());
                    malloc_api::testkit::fill(p, sz);
                    live.push((p, sz));
                }
            }
            for (p, sz) in live {
                malloc_api::testkit::check_fill(p, sz);
                h.free(p);
            }
        }
    }

    #[test]
    fn double_free_is_rejected_not_corrupting() {
        let mut h = heap();
        unsafe {
            let p = h.malloc(100);
            let q = h.malloc(100);
            h.free(p);
            // Second free: CINUSE is clear, so the free is counted and
            // dropped instead of corrupting the bins.
            h.free(p);
            assert_eq!(h.misuse_count(), 1);
            h.check_integrity();
            // A wild interior pointer presents block data as a header
            // (zeroed here so the check is deterministic).
            core::ptr::write_bytes(q, 0, 100);
            h.free(q.add(24));
            assert_eq!(h.misuse_count(), 2);
            h.free(q);
            h.check_integrity();
        }
    }

    #[test]
    fn drop_releases_segments() {
        let src = Arc::new(CountingSource::new(SystemSource::new()));
        {
            let mut h = SerialHeap::new(Arc::clone(&src));
            unsafe {
                let p = h.malloc(100);
                h.free(p);
            }
            assert!(src.stats().live_bytes > 0);
        }
        assert_eq!(src.stats().live_bytes, 0, "drop must unmap all segments");
    }

    #[test]
    fn growth_respects_huge_requests() {
        let src = Arc::new(CountingSource::new(SystemSource::new()));
        // Tiny segment size: a 100 KiB request must still be satisfied.
        let mut h = SerialHeap::with_segment_size(Arc::clone(&src), 16 * 1024);
        unsafe {
            let p = h.malloc(100_000);
            assert!(!p.is_null());
            core::ptr::write_bytes(p, 3, 100_000);
            h.free(p);
        }
    }

    #[test]
    fn exhausted_source_yields_null_not_panic() {
        use osmem::FlakySource;

        // Dead source: small (segment growth) and direct (mmap) paths
        // must both report OOM as null, never panic.
        let dead = Arc::new(FlakySource::new(SystemSource::new(), 0));
        let mut h = SerialHeap::new(Arc::clone(&dead));
        unsafe {
            assert!(h.malloc(100).is_null());
            assert!(h.malloc(4 << 20).is_null());
        }
        assert!(dead.denials() >= 2);

        // One segment of budget: drain it, then frees must succeed and
        // the coalesced memory must be reusable with the source dead.
        let tight = Arc::new(FlakySource::new(SystemSource::new(), 1));
        let mut h = SerialHeap::new(Arc::clone(&tight));
        let mut live = Vec::new();
        unsafe {
            loop {
                let p = h.malloc(4096);
                if p.is_null() {
                    break;
                }
                live.push(p as usize);
            }
            assert!(!live.is_empty());
            assert!(tight.denials() > 0);
            for &p in &live {
                h.free(p as *mut u8);
            }
            let before = tight.denials();
            let big = h.malloc(100_000);
            assert!(!big.is_null(), "coalesced segment must serve a big block");
            assert_eq!(tight.denials(), before, "reuse must not touch the source");
            h.free(big);
        }
    }
}
