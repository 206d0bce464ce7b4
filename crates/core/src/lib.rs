//! # hh-runtime — hierarchical memory management for mutable state
//!
//! This crate is the Rust reproduction of the primary contribution of Guatto, Westrick,
//! Raghunathan, Acar and Fluet, *Hierarchical Memory Management for Mutable State*
//! (PPoPP 2018): a task-parallel runtime whose memory is organized as a hierarchy of
//! heaps mirroring the fork/join task tree, extended with support for **mutable** data.
//!
//! The key invariant is *disentanglement*: a pointer stored in a heap may only point
//! into the same heap or an ancestor heap. Purely functional programs maintain this for
//! free; mutation can break it (an update can create a *down* or *cross* pointer). The
//! runtime preserves the invariant by **promotion**: before a pointer write would create
//! a down-pointer, the pointee (and everything reachable from it) is copied up into the
//! target's heap. Copies of an object are linked by forwarding pointers; the shallowest
//! copy is the **master copy** and all mutable accesses are redirected to it.
//!
//! Module map (↔ paper):
//!
//! | module       | paper                                                            |
//! |--------------|------------------------------------------------------------------|
//! | [`ctx`]      | Figure 3 high-level operations, Figure 5 `forkjoin`                |
//! | [`ops`]      | Figure 6 `findMaster`, `readMutable`, `writeNonptr`; Figure 7 `writePtr` / `writePromote` |
//! | [`promote`]  | Figure 7 `promote` (batched Cheney pass + path compression, v2)    |
//! | [`gc`]       | Figure 14 / Appendix A promotion-aware copy collection             |
//! | [`invariants`] | debug-build disentanglement / forwarding-acyclicity checker      |
//! | [`runtime`]  | runtime construction, scheduler integration, statistics            |
//! | [`config`]   | tunables (workers, chunk size, GC threshold, fast-path ablations)  |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ctx;
pub mod gc;
pub mod hooks;
pub mod incremental;
pub mod invariants;
pub mod ops;
pub mod promote;
pub mod runtime;

pub use config::HhConfig;
pub use ctx::HhCtx;
pub use hooks::{FaultPlan, FaultSite, GcScheduleHooks};
pub use runtime::{DisentanglementReport, HhRuntime};

pub use hh_api::{ParCtx, Runtime};
pub use hh_heaps::{EntanglementViolation, HeapId};
pub use hh_objmodel::{ObjKind, ObjPtr};
