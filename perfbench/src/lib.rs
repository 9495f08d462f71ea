//! The allocator's benchmark: six workloads, four bounded end-to-end metrics
//! plus a failure count, and a per-layer ledger. See `README.md` beside
//! `Cargo.toml` for the tables and how the bounds were derived.
//!
//! It compiles only against API that the roadmap's open items keep:
//! `RawMalloc::{malloc, free, usable_size, stats}`,
//! `LfMalloc::{with_config, hyperblock_count}`, `Config::with_heaps`,
//! `size_classes::class_index`, `osmem::{PagePool, SystemSource, PageSource}`,
//! `malloc_api::sync::Mutex` and `malloc_api::testkit::TestRng`.

pub mod affinity;
pub mod json;
pub mod measure;
pub mod probes;
pub mod record;
pub mod sampler;
pub mod spec;
pub mod trace;
pub mod workloads;
