//! # hh-workloads — the benchmark suite and its substrates
//!
//! Every benchmark of the paper's evaluation (§4.1 pure, §4.2 imperative), implemented
//! once, generically, against the [`ParCtx`] interface so that the same
//! code runs on the hierarchical-heap runtime and on all three baselines:
//!
//! **Pure** (§4.1): `fib`, `tabulate`, `map`, `reduce`, `filter`, `msort-pure`, `dmm`,
//! `smvm`, `strassen`, `raytracer`.
//!
//! **Imperative** (§4.2): `msort`, `dedup`, `tourney`, `reachability`, `usp`,
//! `usp-tree`, `multi-usp-tree`.
//!
//! **Mutator-heavy** (promotion v2, beyond the paper): `union-find`, `bfs-frontier`,
//! `lru-churn` — see [`mutator`].
//!
//! **Adversarial** (scenario front, beyond the paper): `wavefront`, `entangle` —
//! see [`wavefront`] and [`adversary`].
//!
//! Substrate modules:
//! * [`seq`] — immutable sequences of 64-bit elements with parallel `tabulate` / `map` /
//!   `reduce` / `filter` / parallel merge (the paper's `Seq` module);
//! * [`sort`] — pure and imperative merge sorts, in-place quicksort, `dedup`;
//! * [`tourney`] — the tournament-tree benchmark;
//! * [`graph`] — adjacency-sequence graphs, a synthetic power-law generator standing in
//!   for the `orkut` graph, and the four BFS variants;
//! * [`matrix`] — dense matrix multiplication and sparse matrix–vector product;
//! * [`mutator`] — the mutator-heavy workloads: concurrent union-find with path
//!   halving, BFS over a growing graph, and LRU-cache churn;
//! * [`wavefront`] — irregular wavefront propagation: morphological reconstruction
//!   with hierarchical per-task tile queues published through promoting writes;
//! * [`adversary`] — the entanglement adversary: an actor-mailbox work log with a
//!   tunable fraction of cross-subtree (promoting) writes;
//! * [`serve_registry`] — the name-keyed registry of workloads the `serve`
//!   multi-tenant driver can dispatch;
//! * [`strassen`] — quadtree matrices and Strassen multiplication;
//! * [`ray`] — the sphere-scene raytracer;
//! * [`suite`] — a registry that prepares inputs and times each benchmark's kernel,
//!   used by the cross-runtime tests and by `hhbench` (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod graph;
pub mod matrix;
pub mod mutator;
pub mod ray;
pub mod seq;
pub mod serve_registry;
pub mod sort;
pub mod strassen;
pub mod suite;
pub mod tourney;
pub mod wavefront;

pub use serve_registry::ServeWorkloadId;
pub use suite::{BenchId, BenchOutcome, Params};

pub use hh_api::{ParCtx, Runtime};

/// Naive parallel Fibonacci with a sequential cutoff: the pure scheduler-overhead
/// benchmark (`fib` in Figure 10).
pub fn fib<C: ParCtx>(ctx: &C, n: u64, cutoff: u64) -> u64 {
    if n < 2 {
        n
    } else if n <= cutoff {
        fib_seq(n)
    } else {
        let (a, b) = ctx.join(|c| fib(c, n - 1, cutoff), |c| fib(c, n - 2, cutoff));
        a + b
    }
}

/// Sequential Fibonacci used below the cutoff.
pub fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_baselines::SeqRuntime;
    use hh_runtime::HhRuntime;

    #[test]
    fn fib_matches_sequential_on_both_runtimes() {
        let expected = fib_seq(22);
        let seq = SeqRuntime::new();
        assert_eq!(seq.run(|ctx| fib(ctx, 22, 10)), expected);
        let hh = HhRuntime::with_workers(3);
        assert_eq!(hh.run(|ctx| fib(ctx, 22, 10)), expected);
    }
}
