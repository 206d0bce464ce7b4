//! hh-server — a multi-tenant driver for the hierarchical-heap runtime.
//!
//! The paper's evaluation runs one benchmark at a time to completion; a server
//! setting instead keeps **thousands of independent runs perpetually in flight**
//! on one shared runtime. This crate provides that loop: client threads
//! generate requests, a bounded queue applies back-pressure, and executor threads
//! drive overlapping [`hh_api::Runtime::try_run`] calls under the tenant
//! policies (deadlines, retries with backoff, load shedding), accounting for
//! every request.
//!
//! The loop exists to exercise the epoch-based reclamation of DESIGN.md §5:
//! under perpetual overlap the hierarchical runtime keeps recycling chunks,
//! where the retired A5 global horizon — which reclaimed only when *no* run was
//! active — let its quarantine grow with the request count (DESIGN.md §7). It
//! measures nothing itself: `hhbench run --workload serve` is the one serve
//! measurement (latency, throughput, footprint), built on [`BoundedQueue`] and
//! [`verify_quiescent`].
//!
//! Entry points: [`serve()`] (the loop), [`ServeConfig`], [`ServeReport`] (request
//! accounting, the result checksum and the runtime's statistics),
//! [`verify_quiescent`] (post-run invariant check, whose
//! [`QuiescenceViolation`] prints its own forensics), and the chaos lane's
//! [`chaos_one`]. The CI serve sessions are the `serve::tests` unit tests.

pub mod chaos;
pub mod queue;
pub mod serve;

pub use chaos::{append_violation_json, chaos_one, ChaosConfig, ChaosOutcome};
pub use queue::{BoundedQueue, TryPushError};
pub use serve::{serve, verify_quiescent, QuiescenceViolation, ServeConfig, ServeReport};
