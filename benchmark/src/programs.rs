//! The programs the workloads are made of: public kernels of `hh-workloads`,
//! driven with inputs this file generates from the run's seed.
//!
//! Every program splits into an untimed `prepare` (input construction, inside
//! the same `Runtime::run`) and the timed kernel, and ends in a checksum that is
//! a pure function of `(program, seed, n)` — independent of runtime, worker
//! count and schedule — so the `SeqRuntime` result is the oracle for all others.

use hh_api::{hash64, ParCtx};
use hh_workloads::adversary::entangle;
use hh_workloads::graph::{self, BfsState, BfsVariant};
use hh_workloads::mutator::{frontier_bfs, union_find};
use hh_workloads::seq::{self, MSeq};
use hh_workloads::sort::{dedup, msort, msort_pure};
use hh_workloads::tourney::tourney;
use hh_workloads::wavefront::{wavefront, wavefront_reference};
use hh_workloads::{fib, strassen, ServeWorkloadId};
use std::time::Instant;

/// Sequential grain of the sequence kernels (the suite's default at its
/// standard scale) and of the irregular ones (graph frontiers, tile queues).
const GRAIN: usize = 4096;
const FINE_GRAIN: usize = 256;
/// Below this `fib` argument the recursion is plain Rust: low enough that the
/// kernel is ~10⁴ joins, so `join` cost is what the row measures.
const FIB_CUTOFF: u64 = 16;
const GRAPH_DEGREE: usize = 8;
const MULTI_USP_COPIES: usize = 4;
const ENTANGLE_ACTORS: usize = 16;
const ENTANGLE_PERMILLE: u64 = 500;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Program {
    Fib,
    Tabulate,
    Map,
    Filter,
    MsortPure,
    Strassen,
    Msort,
    Dedup,
    Tourney,
    Reachability,
    Usp,
    UspTree,
    MultiUspTree,
    UnionFind,
    FrontierBfs,
    Wavefront,
    Entangle,
    /// One tenant request of the serve registry (`n` is its `scale`).
    Serve(ServeWorkloadId),
}

impl Program {
    pub fn name(self) -> &'static str {
        match self {
            Program::Fib => "fib",
            Program::Tabulate => "tabulate",
            Program::Map => "map",
            Program::Filter => "filter",
            Program::MsortPure => "msort_pure",
            Program::Strassen => "strassen",
            Program::Msort => "msort",
            Program::Dedup => "dedup",
            Program::Tourney => "tourney",
            Program::Reachability => "reachability",
            Program::Usp => "usp",
            Program::UspTree => "usp_tree",
            Program::MultiUspTree => "multi_usp_tree",
            Program::UnionFind => "union_find",
            Program::FrontierBfs => "frontier_bfs",
            Program::Wavefront => "wavefront",
            Program::Entangle => "entangle",
            Program::Serve(id) => id.name(),
        }
    }

    /// Stable per-program salt for input seeds.
    fn salt(self) -> u64 {
        // The name, not the discriminant: reordering the enum must not change
        // the inputs a seed produces.
        self.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The seed of this program's inputs under run seed `seed`.
    pub fn input_seed(self, seed: u64) -> u64 {
        hash64(seed ^ self.salt())
    }
}

/// The two boundaries of one program execution, crossed inside `Runtime::run`.
pub struct Outcome {
    pub checksum: u64,
    pub kernel_start: Instant,
    pub kernel_end: Instant,
}

/// Runs `prog` at size `n` on `ctx`: prepares inputs from `seed`, calls
/// `at_kernel_start` (the harness resets runtime statistics there, so counts
/// cover the kernel only), times the kernel, calls `at_kernel_end` (statistics
/// snapshot, before validation traffic), and folds the result into a checksum.
pub fn execute<C: ParCtx>(
    ctx: &C,
    prog: Program,
    n: usize,
    seed: u64,
    at_kernel_start: impl FnOnce(),
    at_kernel_end: impl FnOnce(),
) -> Outcome {
    let s = prog.input_seed(seed);
    let mut k = Kernel {
        at_start: Some(at_kernel_start),
        at_end: Some(at_kernel_end),
        marks: None,
    };
    let sum = |ctx: &C, v: MSeq| seq::reduce(ctx, v, GRAIN, 0, u64::wrapping_add);

    let checksum = match prog {
        Program::Fib => k.time(|| fib(ctx, n as u64, FIB_CUTOFF)),
        Program::Tabulate => {
            let out = k.time(|| seq::tabulate(ctx, n, GRAIN, move |i| hash64(s ^ i as u64)));
            seq::checksum(ctx, out)
        }
        Program::Map => {
            let input = seq::random_input(ctx, n, GRAIN, s);
            let out = k.time(|| {
                seq::map(ctx, input, GRAIN, |x| {
                    x ^ (x >> 7).wrapping_mul(0x9E37_79B9)
                })
            });
            seq::checksum(ctx, out)
        }
        Program::Filter => {
            let input = seq::random_input(ctx, n, GRAIN, s);
            let out = k.time(|| seq::filter(ctx, input, GRAIN, |x| x % 3 == 0));
            seq::checksum(ctx, out)
        }
        Program::MsortPure => {
            let input = seq::random_input(ctx, n, GRAIN, s);
            let out = k.time(|| msort_pure(ctx, input, GRAIN));
            seq::checksum(ctx, out)
        }
        Program::Msort => {
            let input = seq::random_input(ctx, n, GRAIN, s);
            let out = k.time(|| msort(ctx, input, GRAIN));
            seq::checksum(ctx, out)
        }
        Program::Dedup => {
            // ~10 % distinct keys, as in the paper.
            let keys = (n / 10).max(16) as u64;
            let input = seq::tabulate(ctx, n, GRAIN, move |i| hash64(s ^ i as u64) % keys);
            let out = k.time(|| dedup(ctx, input, GRAIN));
            seq::checksum(ctx, out)
        }
        Program::Strassen => {
            let a = strassen::generate(ctx, n, s, strassen::LEAF * 2);
            let b = strassen::generate(ctx, n, s ^ 0xB, strassen::LEAF * 2);
            let out = k.time(|| strassen::strassen(ctx, a, b, strassen::LEAF));
            strassen::checksum(ctx, out)
        }
        Program::Tourney => {
            let fitness = seq::random_input(ctx, n, GRAIN, s);
            k.time(|| tourney(ctx, fitness, GRAIN).winner_fitness)
        }
        Program::Reachability | Program::Usp | Program::UspTree => {
            let g = graph::generate(ctx, n, GRAPH_DEGREE, GRAIN, s);
            let variant = match prog {
                Program::Reachability => BfsVariant::Reachability,
                Program::Usp => BfsVariant::Usp,
                _ => BfsVariant::UspTree,
            };
            let state = BfsState::new(ctx, g.n, variant);
            let visits = k.time(|| graph::bfs(ctx, &g, &state, 0, FINE_GRAIN) as u64);
            // `reachability`'s benign race may visit a vertex twice in a round,
            // so its visit *count* is schedule-dependent; the flags and the
            // level-synchronous distances are not.
            let flags = sum(ctx, state.visited);
            let dist = sum(ctx, state.dist);
            let counted = if prog == Program::Reachability {
                flags
            } else {
                visits
            };
            counted
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(flags)
                .wrapping_add(dist.wrapping_mul(31))
        }
        Program::MultiUspTree => {
            let g = graph::generate(ctx, n, GRAPH_DEGREE, GRAIN, s);
            k.time(|| graph::multi_usp_tree(ctx, &g, MULTI_USP_COPIES, 0, FINE_GRAIN) as u64)
        }
        Program::UnionFind => k.time(|| union_find(ctx, n, n, GRAIN, s)),
        Program::FrontierBfs => k.time(|| frontier_bfs(ctx, n, 8, FINE_GRAIN, s)),
        Program::Wavefront => {
            let (side, seeds) = wavefront_shape(n);
            k.time(|| wavefront(ctx, side, side, seeds, FINE_GRAIN, s))
        }
        Program::Entangle => k.time(|| entangle(ctx, ENTANGLE_ACTORS, n, ENTANGLE_PERMILLE, s)),
        Program::Serve(id) => k.time(|| id.run(ctx, s, n)),
    };
    let (kernel_start, kernel_end) = k.marks.expect("every program runs its kernel once");
    Outcome {
        checksum,
        kernel_start,
        kernel_end,
    }
}

/// Marks the kernel's boundaries the same way in every arm of [`execute`].
struct Kernel<S, E> {
    at_start: Option<S>,
    at_end: Option<E>,
    marks: Option<(Instant, Instant)>,
}

impl<S: FnOnce(), E: FnOnce()> Kernel<S, E> {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        (self.at_start.take().expect("one kernel per program"))();
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let t1 = Instant::now();
        (self.at_end.take().expect("one kernel per program"))();
        self.marks = Some((t0, t1));
        r
    }
}

fn wavefront_shape(n: usize) -> (usize, usize) {
    (n, (n * n / 256).max(8))
}

/// An oracle independent of every runtime, where the suite provides one:
/// `wavefront`'s sequential worklist reconstruction.
pub fn reference_checksum(prog: Program, n: usize, seed: u64) -> Option<u64> {
    match prog {
        Program::Wavefront => {
            let (side, seeds) = wavefront_shape(n);
            Some(wavefront_reference(
                side,
                side,
                seeds,
                prog.input_seed(seed),
            ))
        }
        _ => None,
    }
}

/// Work units of one kernel execution, for the per-unit continuity rows
/// (`workloads.wavefront_ns_per_cell`).
pub fn wavefront_cells(n: usize) -> usize {
    n * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_api::Runtime;
    use hh_baselines::SeqRuntime;
    use hh_runtime::HhRuntime;

    const ALL: [(Program, usize); 18] = [
        (Program::Fib, 20),
        (Program::Tabulate, 9000),
        (Program::Map, 9000),
        (Program::Filter, 9000),
        (Program::MsortPure, 9000),
        (Program::Strassen, 32),
        (Program::Msort, 9000),
        (Program::Dedup, 9000),
        (Program::Tourney, 9000),
        (Program::Reachability, 3000),
        (Program::Usp, 3000),
        (Program::UspTree, 3000),
        (Program::MultiUspTree, 2000),
        (Program::UnionFind, 5000),
        (Program::FrontierBfs, 3000),
        (Program::Wavefront, 48),
        (Program::Entangle, 300),
        (Program::Serve(ServeWorkloadId::LruChurn), 2),
    ];

    fn checksum_on<R: Runtime>(rt: &R, prog: Program, n: usize, seed: u64) -> u64 {
        rt.run(|ctx| execute(ctx, prog, n, seed, || (), || ()).checksum)
    }

    #[test]
    fn every_program_agrees_between_seq_and_parmem_and_depends_on_the_seed() {
        let seq = SeqRuntime::new();
        let hh = HhRuntime::with_workers(3);
        for (prog, n) in ALL {
            let want = checksum_on(&seq, prog, n, 7);
            assert_eq!(checksum_on(&hh, prog, n, 7), want, "{}", prog.name());
            assert_eq!(
                checksum_on(&seq, prog, n, 7),
                want,
                "{} repeats",
                prog.name()
            );
            assert_eq!(hh.check_disentangled(), 0, "{}", prog.name());
            // `fib` has no random input; `dedup` of ~n/10 hash-uniform keys and
            // the visit count of a connected graph come out the same for
            // (nearly) every seed even though the inputs differ.
            if !matches!(prog, Program::Fib | Program::Dedup | Program::MultiUspTree) {
                assert_ne!(
                    checksum_on(&seq, prog, n, 8),
                    want,
                    "{} ignores seed",
                    prog.name()
                );
            }
            if let Some(reference) = reference_checksum(prog, n, 7) {
                assert_eq!(reference, want, "{} vs reference", prog.name());
            }
        }
    }

    #[test]
    fn hooks_bracket_the_kernel() {
        let seq = SeqRuntime::new();
        let order = std::sync::Mutex::new(Vec::new());
        let out = seq.run(|ctx| {
            execute(
                ctx,
                Program::Map,
                5000,
                1,
                || order.lock().unwrap().push("start"),
                || order.lock().unwrap().push("end"),
            )
        });
        assert_eq!(*order.lock().unwrap(), ["start", "end"]);
        assert!(out.kernel_end >= out.kernel_start);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|(p, _)| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
