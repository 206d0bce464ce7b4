//! # hierheap — hierarchical memory management for mutable state
//!
//! A Rust reproduction of Guatto, Westrick, Raghunathan, Acar and Fluet,
//! *Hierarchical Memory Management for Mutable State* (PPoPP 2018).
//!
//! This crate is a thin facade re-exporting the workspace's building blocks:
//!
//! * [`HhRuntime`] / [`HhConfig`] — the hierarchical-heap runtime with promotion
//!   (the paper's contribution, crate `hh-runtime`);
//! * [`SeqRuntime`], [`StwRuntime`], [`DlgRuntime`] — the comparison runtimes
//!   (crate `hh-baselines`);
//! * [`ParCtx`] / [`Runtime`] — the backend-generic operation interface, **v2**: the
//!   paper's six scalar operations plus bulk field operations (`read_imm_bulk`,
//!   `read_mut_bulk`, `write_nonptr_bulk`, `fill_nonptr`, `copy_nonptr`) and n-ary
//!   fork-join (`join_many`, `par_for`) — crate `hh-api`;
//! * [`workloads`] — the paper's 17-benchmark suite and its substrates.
//!
//! The paper's evaluation is measured by the `hhbench` package in `benchmark/` (its
//! own cargo workspace; see `benchmark/README.md`).
//!
//! Scheduling uses the v2 work-first scheduler (crate `hh-sched`): lock-free
//! Chase–Lev deques, stack-resident fork jobs (an unstolen `join` allocates
//! nothing), parking-based wakeups, and **lazy steal-time child heaps** — a fork
//! creates heaps only when its right branch is actually stolen, which is what makes
//! the common sequential case near-free (see the `heaps_elided` statistic in
//! [`RunStats`] and `hhbench`'s `sched.join_unstolen_ns` / `heaps.elide_rate` rows).
//!
//! Memory management uses the v2 chunk lifecycle (crates `hh-objmodel` /
//! `hh-runtime`): chunks retired by collections flow back to the allocator through
//! size-classed lock-free free lists, every chunk request taking the same pop-or-mint
//! path, collections
//! can evacuate a whole heap-hierarchy *subtree* (an internal node plus its
//! completed descendants) in one promotion-aware pass, and steady-state churn runs
//! with a bounded footprint (see the `chunks_recycled` / `subtree_collections`
//! statistics and `hhbench`'s `objmodel.recycle_rate` row). The design — object model, stack-map
//! substitution, scheduler protocols, GC ownership rule, memory lifecycle,
//! ablations — is documented in
//! [`DESIGN.md`](https://github.com/paper-repo-growth/hierheap/blob/main/DESIGN.md)
//! at the repository root.
//!
//! ## Quickstart
//!
//! Parallel loops go through `par_for`, which hands each leaf task a disjoint index
//! range; array traffic goes through the bulk operations, which resolve the
//! promotion/forwarding check once per slice instead of once per word:
//!
//! ```
//! use hierheap::{HhRuntime, ParCtx, Runtime};
//!
//! let rt = HhRuntime::with_workers(2);
//! let sum = rt.run(|ctx| {
//!     let n = 10_000;
//!     let arr = ctx.alloc_data_array(n);
//!     // Parallel fill: each leaf computes its slice into a buffer and publishes it
//!     // with one bulk write.
//!     ctx.par_for(0..n, 1024, move |c, r| {
//!         let lo = r.start;
//!         let buf: Vec<u64> = r.map(|i| (i as u64) * 3).collect();
//!         c.write_nonptr_bulk(arr, lo, &buf);
//!     });
//!     // N-ary fork-join: one task per block, each bulk-reading its slice.
//!     let blocks: Vec<_> = (0..10)
//!         .map(|b| {
//!             move |c: &hierheap::HhCtx| {
//!                 let mut buf = vec![0u64; n / 10];
//!                 c.read_mut_bulk(arr, b * (n / 10), &mut buf);
//!                 buf.into_iter().sum::<u64>()
//!             }
//!         })
//!         .collect();
//!     ctx.join_many(blocks).into_iter().sum::<u64>()
//! });
//! assert_eq!(sum, (0..10_000u64).map(|i| i * 3).sum());
//! ```
//!
//! Mutation, promotion, and the master-copy protocol work exactly as in v1:
//!
//! ```
//! use hierheap::{HhRuntime, ParCtx, Runtime, ObjPtr};
//!
//! let rt = HhRuntime::with_workers(2);
//! let value = rt.run(|ctx| {
//!     // A mutable ref allocated by the parent task…
//!     let shared = ctx.alloc_ref_ptr(ObjPtr::NULL);
//!     ctx.join(
//!         // …one child writes a locally allocated object into it (this promotes)…
//!         |c| {
//!             let local = c.alloc_ref_data(41);
//!             c.write_ptr(shared, 0, local);
//!         },
//!         |_| (),
//!     );
//!     // …and the parent reads it back through the master copy.
//!     let p = ctx.read_mut_ptr(shared, 0);
//!     ctx.read_mut(p, 0) + 1
//! });
//! assert_eq!(value, 42);
//! ```

pub use hh_api::{
    f64_from_bits, f64_to_bits, hash64, ObjKind, ObjPtr, ParCtx, Rng, Rooted, RunStats, Runtime,
};
pub use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
pub use hh_runtime::{HhConfig, HhCtx, HhRuntime};

/// The benchmark suite and its substrates (sequences, graphs, matrices, raytracer).
pub mod workloads {
    pub use hh_workloads::*;
}

/// Low-level building blocks, exposed for advanced use and for the tests.
pub mod lowlevel {
    pub use hh_heaps::{Heap, HeapId, HeapRegistry, HeapRwLock};
    pub use hh_objmodel::{AppendVec, Chunk, ChunkId, ChunkStore, Header, ObjView, StoreStats};
    pub use hh_sched::{Pool, Safepoints, Worker};
}
