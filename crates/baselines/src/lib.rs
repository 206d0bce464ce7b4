//! # hh-baselines — the comparison runtimes
//!
//! The paper's evaluation compares its hierarchical-heap runtime (`mlton-parmem`)
//! against three other systems. This crate provides Rust stand-ins for each, all
//! implementing the same [`ParCtx`] / [`Runtime`]
//! interface as `hh-runtime` so every benchmark runs unchanged on all of them:
//!
//! * [`SeqRuntime`] — the sequential `mlton` baseline: a single heap, no locks, `join`
//!   runs both branches in order on the calling thread, and a plain semispace collector
//!   runs when the heap exceeds its threshold. Benchmark times on this runtime are the
//!   `T_s` column of Figures 10–11.
//! * [`StwRuntime`] — the `mlton-spoonhower` baseline: parallel fork/join execution with
//!   per-worker allocation into one shared global heap, but *sequential stop-the-world*
//!   collection coordinated through [`hh_sched::Safepoints`]. Its poor GC scalability is
//!   what the paper's speedup comparison highlights.
//! * [`DlgRuntime`] — a Doligez–Leroy–Gonthier / Manticore-style design: per-worker
//!   local heaps, a shared global heap, a write barrier that promotes (transitively
//!   copies) data into the global heap when a pointer to it is stored in a global
//!   object, and global-heap allocation for stolen tasks to model Manticore's
//!   promotion-on-communication. Promotion volume is reported in its statistics
//!   (`promoted_objects` / `promoted_words`; `hhbench`'s `baselines.dlg_tp_ms` row
//!   times it).
//!
//! All three are one [`FlatCtx`] / [`FlatRuntime`] over a policy that decides only
//! where an allocation goes, what a pointer write checks, and what a collection
//! covers (DESIGN.md, "Baselines: one context, three policies").
//!
//! The baselines deliberately reuse the same chunked object model (`hh-objmodel`) and
//! the same scheduler (`hh-sched`) as the hierarchical runtime, so measured differences
//! come from the memory-management policy, not from incidental implementation detail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod dlg;
mod flat;
mod seq;
mod stw;

pub use dlg::{Dlg, DlgCtx, DlgRuntime};
pub use flat::{FlatCtx, FlatRuntime};
pub use seq::{Seq, SeqCtx, SeqRuntime};
pub use stw::{Stw, StwCtx, StwRuntime};

pub use hh_api::{ParCtx, Runtime};
