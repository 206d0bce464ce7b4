//! Name-keyed registry of the workloads the `hh-server` serve loop can
//! dispatch.
//!
//! The serve loop used to hard-dispatch `(seed >> 33) % 3` onto the three
//! mutator workloads by index; adding a workload meant editing the server. The
//! registry inverts that: the serve loop and `hhbench serve` run entries by
//! id, `ServeConfig::workload` pins a session to one entry, and a new workload
//! is a one-line addition to [`ServeWorkloadId::ALL`]. The default *mix* is
//! kept at exactly the three PR-4 mutator workloads (same `% 3` selection off
//! the seed's high bits) so serve checksums stay comparable across snapshots.

use crate::adversary::entangle;
use crate::mutator::{frontier_bfs, lru_churn, union_find};
use crate::wavefront::wavefront;
use hh_api::ParCtx;

/// A workload the serve driver can run as one tenant request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ServeWorkloadId {
    UnionFind,
    FrontierBfs,
    LruChurn,
    Wavefront,
    Entangle,
}

impl ServeWorkloadId {
    /// Every workload a serve session can pin.
    pub const ALL: [ServeWorkloadId; 5] = [
        ServeWorkloadId::UnionFind,
        ServeWorkloadId::FrontierBfs,
        ServeWorkloadId::LruChurn,
        ServeWorkloadId::Wavefront,
        ServeWorkloadId::Entangle,
    ];

    /// The default tenant mix when no workload is pinned: the three PR-4
    /// mutator workloads, selected by the request seed's high bits exactly as
    /// the old hard-coded dispatch did (artifact continuity across snapshots).
    pub const DEFAULT_MIX: [ServeWorkloadId; 3] = [
        ServeWorkloadId::UnionFind,
        ServeWorkloadId::FrontierBfs,
        ServeWorkloadId::LruChurn,
    ];

    /// The workload's suite id.
    pub fn name(self) -> &'static str {
        match self {
            ServeWorkloadId::UnionFind => "union-find",
            ServeWorkloadId::FrontierBfs => "bfs-frontier",
            ServeWorkloadId::LruChurn => "lru-churn",
            ServeWorkloadId::Wavefront => "wavefront",
            ServeWorkloadId::Entangle => "entangle",
        }
    }

    /// Picks the default-mix member for a request seed (the historical
    /// `(seed >> 33) % 3` selection off the high bits — the low bits of simple
    /// generators are the weak ones).
    pub fn from_mix_seed(seed: u64) -> ServeWorkloadId {
        Self::DEFAULT_MIX[((seed >> 33) % Self::DEFAULT_MIX.len() as u64) as usize]
    }

    /// Runs one tenant request of this workload at the serve smoke sizing
    /// (`scale` multiplies the per-request problem size) and returns its
    /// deterministic checksum.
    pub fn run<C: ParCtx>(self, ctx: &C, seed: u64, scale: usize) -> u64 {
        let n = 48 * scale;
        match self {
            ServeWorkloadId::UnionFind => union_find(ctx, n, n + n / 2, 16, seed),
            ServeWorkloadId::FrontierBfs => frontier_bfs(ctx, n, 4, 16, seed),
            ServeWorkloadId::LruChurn => lru_churn(ctx, 4, 8 * scale, 16, 64, seed),
            ServeWorkloadId::Wavefront => {
                // Grid sized so the cell count tracks the other workloads' n.
                let side = ((n as f64).sqrt() as usize).max(8);
                let seeds = (side * side / 64).max(2);
                wavefront(ctx, side, side, seeds, 16, seed)
            }
            // Half the ops cross subtrees: the mid-point of the promote-rate
            // sweep, entangled enough to stress reclamation under overlap.
            ServeWorkloadId::Entangle => entangle(ctx, 6, 16 * scale, 500, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_api::Runtime;
    use hh_baselines::SeqRuntime;
    use hh_runtime::HhRuntime;

    #[test]
    fn default_mix_matches_historical_dispatch() {
        for (k, expect) in [
            ServeWorkloadId::UnionFind,
            ServeWorkloadId::FrontierBfs,
            ServeWorkloadId::LruChurn,
        ]
        .into_iter()
        .enumerate()
        {
            let seed = (k as u64) << 33;
            assert_eq!(ServeWorkloadId::from_mix_seed(seed), expect);
        }
    }

    #[test]
    fn every_registry_entry_runs_and_agrees_between_seq_and_parmem() {
        for w in ServeWorkloadId::ALL {
            let expected = SeqRuntime::new().run(|c| w.run(c, 0xBEEF ^ w as u64, 1));
            let hh = HhRuntime::with_workers(2);
            let got = hh.run(|c| w.run(c, 0xBEEF ^ w as u64, 1));
            assert_eq!(got, expected, "{}", w.name());
            assert_eq!(hh.check_disentangled(), 0, "{}", w.name());
        }
    }
}
