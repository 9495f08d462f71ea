//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is a name, a start, an end, the span that caused it, and how many
//! operations it covers. Probe batches and workload slices are spans; in a
//! traced workload run one `malloc`/`free` call in [`CALL_STRIDE`] is a span
//! too, with the slice it ran in as its parent. Spans stay in memory until
//! the run ends; `--trace-out` writes them then.

use crate::json::Value;
use malloc_api::{AllocStats, RawMalloc};
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// 0 is the thread that ran the probes; load threads count from 1.
    pub thread: u32,
    /// Index of the causing span, or [`Trace::ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

/// All spans share one time origin so threads' buffers can be merged.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug)]
pub struct Trace {
    spans: Vec<Span>,
    /// Parent given to spans added with [`Trace::record`].
    pub scope: u32,
    /// Call spans not kept because the buffer was full.
    pub dropped: u64,
}

impl Trace {
    pub const ROOT: u32 = u32::MAX;

    pub fn with_capacity(cap: usize) -> Trace {
        Trace {
            spans: Vec::with_capacity(cap),
            scope: Trace::ROOT,
            dropped: 0,
        }
    }

    /// Opens a span and starts its clock. The buffer may grow here, before
    /// the clock starts, never between `begin` and `end`.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            thread: 0,
            parent,
            start_ns: 0,
            end_ns: 0,
            ops: 0,
        });
        self.spans[id as usize].start_ns = now_ns();
        id
    }

    /// Closes span `id` over `ops` operations; returns its length in ns.
    pub fn end(&mut self, id: u32, ops: u64) -> u64 {
        let end = now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.ops = ops;
        end - s.start_ns
    }

    /// Adds a finished one-operation span under [`Trace::scope`]. Called
    /// from inside timed slices, so a full buffer drops the span instead of
    /// growing.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            thread: 0,
            parent: self.scope,
            start_ns,
            end_ns,
            ops: 1,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping their parent links; its
    /// top-level spans become children of `parent`.
    pub fn absorb(&mut self, other: Trace, thread: u32, parent: u32) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.thread = thread;
            s.parent = if s.parent == Trace::ROOT {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// Lengths in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        let span = |(id, s): (usize, &Span)| {
            Value::obj([
                ("id", Value::from(id as u64)),
                ("name", Value::from(s.name)),
                ("thread", Value::from(u64::from(s.thread))),
                (
                    "parent",
                    if s.parent == Trace::ROOT {
                        Value::Null
                    } else {
                        Value::from(u64::from(s.parent))
                    },
                ),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                ("ops", Value::from(s.ops)),
            ])
        };
        Value::obj([
            ("dropped", Value::from(self.dropped)),
            (
                "spans",
                Value::Arr(self.spans.iter().enumerate().map(span).collect()),
            ),
        ])
    }
}

/// Every how many allocator calls a traced workload run times one: about one
/// in 256, but odd and prime, so that loops which alternate `malloc` and
/// `free` in runs of 1, 64 or 256 have both kinds sampled.
pub const CALL_STRIDE: u32 = 257;

/// Room for the call spans of one thread: the fastest workload makes about
/// 200 000 sampled calls a second, and a traced pass lasts a few seconds.
const LOCAL_CAPACITY: usize = 1 << 20;

thread_local! {
    static CALLS: Cell<u32> = const { Cell::new(0) };
    static LOCAL: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling thread's trace buffer, allocating it on first use
/// (so do that first use during warm-up).
pub fn local<R>(f: impl FnOnce(&mut Trace) -> R) -> R {
    LOCAL.with(|t| {
        f(t.borrow_mut()
            .get_or_insert_with(|| Trace::with_capacity(LOCAL_CAPACITY)))
    })
}

/// Takes the calling thread's buffer, leaving none.
pub fn take_local() -> Option<Trace> {
    LOCAL.with(|t| t.borrow_mut().take())
}

/// The allocator under test with one call in [`CALL_STRIDE`] wrapped in a
/// span. The other calls pay one thread-local counter; the ratio of traced
/// to untraced `op_ns` reports what that costs.
pub struct Traced<A>(pub A);

impl<A> Traced<A> {
    #[inline]
    fn sampled() -> bool {
        CALLS.with(|c| {
            let n = c.get().wrapping_add(1);
            c.set(n);
            n % CALL_STRIDE == 0
        })
    }
}

// SAFETY: every call is forwarded unchanged to `A`, which upholds the
// contract; the wrapper only reads the clock around some of them.
unsafe impl<A: RawMalloc> RawMalloc for Traced<A> {
    #[inline]
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        if !Self::sampled() {
            return unsafe { self.0.malloc(size) };
        }
        let t0 = now_ns();
        let p = unsafe { self.0.malloc(size) };
        let t1 = now_ns();
        local(|t| t.record("malloc_call", t0, t1));
        p
    }

    #[inline]
    unsafe fn free(&self, ptr: *mut u8) {
        if !Self::sampled() {
            return unsafe { self.0.free(ptr) };
        }
        let t0 = now_ns();
        unsafe { self.0.free(ptr) };
        let t1 = now_ns();
        local(|t| t.record("free_call", t0, t1));
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    unsafe fn usable_size(&self, ptr: *mut u8) -> usize {
        unsafe { self.0.usable_size(ptr) }
    }

    fn stats(&self) -> AllocStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_rebases_parents_and_tags_thread() {
        let mut main = Trace::with_capacity(8);
        let g = main.begin("group", Trace::ROOT);
        main.end(g, 0);
        let mut worker = Trace::with_capacity(8);
        let slice = worker.begin("slice", Trace::ROOT);
        worker.scope = slice;
        worker.record("malloc_call", 10, 25);
        worker.end(slice, 100);
        main.absorb(worker, 1, g);
        let s = main.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].name, s[1].thread, s[1].parent), ("slice", 1, g));
        assert_eq!((s[2].name, s[2].thread, s[2].parent), ("malloc_call", 1, 1));
        assert_eq!(main.durations("malloc_call"), vec![15.0]);
    }

    #[test]
    fn record_drops_when_full_instead_of_growing() {
        let mut t = Trace::with_capacity(2);
        let cap = t.spans.capacity();
        for _ in 0..cap + 3 {
            t.record("free_call", 0, 1);
        }
        assert_eq!(t.spans().len(), cap);
        assert_eq!(t.dropped, 3);
    }
}
