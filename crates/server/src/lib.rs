//! hh-server — a multi-tenant driver for the hierarchical-heap runtime.
//!
//! The paper's evaluation runs one benchmark at a time to completion; a server
//! setting instead keeps **thousands of independent runs perpetually in flight**
//! on one shared runtime. This crate provides that harness: client threads
//! generate requests, a bounded queue applies back-pressure, and executor threads
//! drive overlapping [`hh_api::Runtime::run`] calls, measuring throughput,
//! enqueue-to-completion latency percentiles (p50/p99/p999), and the store's
//! footprint over time.
//!
//! The experiment exists to demonstrate the epoch-based reclamation of DESIGN.md
//! §5: under perpetual overlap the hierarchical runtime keeps recycling chunks
//! (`chunks_recycled` ≈ 100% of handouts, footprint bounded), where the retired
//! A5 global horizon — which reclaimed only when *no* run was active — let its
//! quarantine grow with the request count (DESIGN.md §7).
//!
//! Entry points: [`serve()`] (the loop), [`ServeConfig`], [`ServeReport`] (with
//! machine-readable [`ServeReport::to_json`]), and [`verify_quiescent`] (post-run
//! invariant check). The `serve` binary wraps these for the command line and CI.

pub mod chaos;
pub mod queue;
pub mod serve;

pub use chaos::{chaos_one, ChaosConfig, ChaosOutcome};
pub use hh_api::{LatencyRecorder, LatencySummary};
pub use queue::{BoundedQueue, TryPushError};
pub use serve::{serve, verify_quiescent, QuiescenceViolation, ServeConfig, ServeReport};
