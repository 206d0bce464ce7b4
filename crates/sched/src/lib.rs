//! # hh-sched — work-stealing fork/join scheduler (v2)
//!
//! The paper's runtime (Appendix B) schedules nested fork/join tasks with a
//! work-stealing scheduler: `forkjoin` is cheap because the left branch runs immediately
//! in the calling user-level thread while only the right branch is exposed to thieves;
//! expensive task bookkeeping happens only when a steal actually occurs.
//!
//! This crate reproduces that structure for the Rust runtimes in this repository:
//!
//! * a [`Pool`] of worker OS threads, each with its own lock-free Chase–Lev
//!   [`JobQueue`] (owner-LIFO, thief-FIFO — the same [`queue::Deque`] the parallel
//!   collector's [`SpanDeque`]s are), plus a mutex-protected injector for external
//!   (root) work;
//! * [`Worker::join`] / [`Worker::join_context`], the work-first fork/join primitive:
//!   the left closure runs inline, the right lives in a **stack-resident job** (no
//!   heap allocation on the unstolen fast path) pushed onto the current worker's
//!   deque. `join_context` hands the right branch a `stolen` flag — the on-steal hook
//!   through which upper layers pay steal-only costs, like the hierarchical runtime's
//!   lazy child-heap creation;
//! * a parking-based idle protocol: pushes wake at most one sleeper (and only when the
//!   sleeper counter says someone is parked), idle workers spin briefly over
//!   randomized steal victims and then park on a condvar; wake tokens close the
//!   park-vs-push race. See `pool::worker_loop`;
//! * a [`Safepoints`] coordinator used by the stop-the-world baseline runtime to park
//!   every worker at a safe point while a single thread collects; its wake hook plugs
//!   into [`Pool::waker`] so parked workers promptly reach the safepoint.
//!
//! DESIGN.md (repository root) describes the deque memory orderings, the wake-token
//! protocol, and the steal-time heap-creation interplay in detail.
//!
//! `unsafe` code lives in three files, each for one reason:
//!
//! * [`job`] — the job layer. Stack jobs are lifetime-erased exactly the way rayon's
//!   are, behind a type-erased execute function; soundness is argued where the erasure
//!   happens (the forking frame never returns before the branch has finished
//!   executing). The job types' `Send`/`Sync` impls rest on their closures being
//!   `Send`.
//! * [`queue`] — the deque's raw buffer pointer: thieves dereference the current
//!   buffer, which growth replaces but retires (never frees) until the deque drops;
//!   and the job slot rebuilds a [`JobRef`] from the pointer it stored. The orderings
//!   follow Lê et al. (PPoPP 2013) and are exercised by growth-and-theft stress tests
//!   for both slot types in `queue::tests`.
//! * [`pool`] — the callers of the job layer's unsafe API: `join_context` publishes
//!   and reclaims its stack job's handle, every scheduling loop executes a popped or
//!   stolen `JobRef` exactly once, `Pool::run` boxes a root job that borrows its
//!   caller's frame and blocks until it has run, and the shutdown drain executes
//!   leftover helper jobs.
//!
//! [`evac`], [`safepoint`] and [`team`] contain no `unsafe`.

#![warn(missing_docs)]

pub mod evac;
pub mod job;
pub mod pool;
pub mod queue;
pub mod safepoint;
pub mod team;

pub use evac::{EvacEngine, EvacOutcome, EvacZone, SCAN_BLOCK_WORDS};
pub use job::JobRef;
pub use pool::{Pool, PoolWaker, SchedStats, Worker};
pub use queue::{Injector, JobQueue, Span, SpanDeque};
pub use safepoint::Safepoints;
pub use team::TeamSync;
