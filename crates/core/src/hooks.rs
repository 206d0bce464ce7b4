//! Test-only GC schedule hooks: the deterministic window-schedule harness.
//!
//! The epoch-inc × server-overlap race (DESIGN.md §11.5) was seen once in ~15
//! release serve runs — a microsecond-wide window between an idle worker's
//! finalize and a tenant's `end_run`. Hunting that class of bug by rerunning is
//! hopeless; instead, the runtime exposes its *schedule points* so a test can
//! pin the exact interleaving: every rare transition of the incremental-window
//! and run lifecycles fires a [`GcScheduleEvent`] through an installed
//! [`GcScheduleHooks`], whose handler may **block** (stalling that thread at
//! that point behind a gate) or **force** a collection trigger at a chosen
//! mutator safe point ([`GcScheduleHooks::force_collect`]).
//!
//! Hooks are per-runtime (parallel tests never share them) and cost one relaxed
//! atomic load on the rare paths when none are installed — the hot mutator
//! paths (barrier fast path, allocation) never consult them. Production code
//! must not install hooks; the installer is `#[doc(hidden)]`.

/// A schedule point in the incremental-collection / run lifecycle. Fired on the
/// thread performing the transition, so a blocking handler stalls exactly that
/// thread at exactly that point.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GcScheduleEvent {
    /// `start_incremental` installed a window. `epoch` is the collection epoch
    /// (the chunk-tag epoch, not the run epoch).
    WindowStart {
        /// Collection epoch of the new window.
        epoch: u64,
    },
    /// A thread won the `finalizing` claim and is about to run the engine's
    /// closed/retired handshake.
    FinalizeClaimed {
        /// Collection epoch of the claimed window.
        epoch: u64,
    },
    /// The engine handshake is complete, but survivor adoption and from-space
    /// retirement have **not** happened yet. A handler that blocks here holds
    /// the window in exactly the state the epoch-inc × overlap race needed
    /// (DESIGN.md §11.5).
    FinalizePreMerge {
        /// Collection epoch of the window being finalized.
        epoch: u64,
    },
    /// Finalization is fully complete: survivors adopted, from-space retired,
    /// window uninstalled.
    FinalizeDone {
        /// Collection epoch of the finalized window.
        epoch: u64,
    },
    /// Another thread holds the `finalizing` claim and this thread
    /// (`finalize_incremental_now` — a new monolithic collection or an ending
    /// run) observed the window still installed and is about to wait for the
    /// claimer to complete. Not fired when the claimer already uninstalled.
    FinalizeWait {
        /// Collection epoch of the window being waited on.
        epoch: u64,
    },
    /// `end_run` passed its forced finalize and is about to dispose the run's
    /// heap tree, end its epoch, and advance the reclamation watermark.
    EndRunPreDispose {
        /// Run epoch (reclamation epoch) of the ending run.
        run_epoch: u64,
    },
    /// A promotion running under an open window has filled a copy and is about
    /// to CAS-install the original's forwarding pointer. The promoter holds the
    /// WRITE locks of its whole path here, so a handler that blocks stalls only
    /// lock-taking accesses — lock-free optimistic writes to the original still
    /// land, which is the interleaving the post-install re-copy exists for
    /// (DESIGN.md §6.7).
    PromoteCopyFilled,
}

/// Observer and schedule controller for the GC / run lifecycle, installed via
/// `HhRuntime::install_gc_hooks`. All methods default to no-ops.
pub trait GcScheduleHooks: Send + Sync {
    /// Called at each schedule point (see [`GcScheduleEvent`]); may block to
    /// stall the transitioning thread behind a gate — or **panic** to model a
    /// crash at that transition (the fault-injection layer does exactly that;
    /// the runtime's teardown guards are required to survive it).
    fn on_event(&self, event: GcScheduleEvent) {
        let _ = event;
    }

    /// Consulted by the collection-trigger safe point (`maybe_collect`) after
    /// its threshold test: returning `true` forces a collection attempt even
    /// under threshold, so a stress driver can open windows at chosen
    /// fork/join points instead of relying on allocation pressure.
    fn force_collect(&self) -> bool {
        false
    }

    /// Consulted at the top of every `HhCtx::alloc` while hooks are installed:
    /// returning `true` makes the allocation fail by panicking with an
    /// [`hh_api::InjectedFault`] payload *before* any state is touched (the
    /// modeled allocation failure of the chaos layer). Costs one relaxed load
    /// per allocation when no hooks are installed — the only hook consulted on
    /// a hot path, which is the price of having an allocation fault site at
    /// all.
    fn inject_alloc_fault(&self) -> bool {
        false
    }
}

/// The named fault sites of the seeded fault-injection plan ([`FaultPlan`]).
///
/// Deliberately a subset of the schedule points: `FinalizeWait` and
/// `EndRunPreDispose` fire on the **teardown path** (inside `end_run`, often
/// while the thread is already unwinding a mutator panic), and the failure
/// model does not inject new faults into recovery — teardown must survive
/// faults injected *before* it, not be a fault site itself (DESIGN.md §13).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// `HhCtx::alloc`, before any state is touched (a modeled OOM).
    Alloc,
    /// The [`GcScheduleEvent::WindowStart`] transition — the window is already
    /// installed, so the abort leaves it open for teardown to force-finalize.
    WindowStart,
    /// The [`GcScheduleEvent::FinalizeClaimed`] transition — the claim is
    /// taken, the engine handshake has not run.
    FinalizeClaimed,
    /// The [`GcScheduleEvent::FinalizePreMerge`] transition — survivors exist
    /// but are adopted by no heap yet (the nastiest interleaving of §11.5).
    FinalizePreMerge,
    /// The [`GcScheduleEvent::FinalizeDone`] transition — the window is fully
    /// closed; the panic tests pure propagation.
    FinalizeDone,
}

impl FaultSite {
    /// All injectable sites, in a stable order (indexes [`FaultPlan`] rates).
    pub const ALL: [FaultSite; 5] = [
        FaultSite::Alloc,
        FaultSite::WindowStart,
        FaultSite::FinalizeClaimed,
        FaultSite::FinalizePreMerge,
        FaultSite::FinalizeDone,
    ];

    /// Stable label, carried in the [`hh_api::InjectedFault`] payload and the
    /// serve JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Alloc => "alloc",
            FaultSite::WindowStart => "window-start",
            FaultSite::FinalizeClaimed => "finalize-claimed",
            FaultSite::FinalizePreMerge => "finalize-pre-merge",
            FaultSite::FinalizeDone => "finalize-done",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A seeded fault-injection plan: a [`GcScheduleHooks`] implementation that
/// panics with an [`hh_api::InjectedFault`] payload at hook sites, each with a
/// tunable per-site probability, deterministically derived from `(seed, site,
/// event sequence number)`.
///
/// "Deterministic" here means the *decision function* is a pure hash — two
/// runs that reach the same site with the same sequence number make the same
/// call. The sequence of sites visited still depends on scheduling, so the
/// plan is a seeded chaos distribution, not a pinned schedule; for pinned
/// reproducers install a bespoke [`GcScheduleHooks`] that targets one exact
/// event instead.
pub struct FaultPlan {
    seed: u64,
    /// Per-site fault probability in parts-per-million, indexed by
    /// [`FaultSite::index`].
    rate_ppm: [u32; 5],
    /// Per-site event sequence numbers (the hash input that makes repeated
    /// visits to one site roll independently).
    seq: [std::sync::atomic::AtomicU64; 5],
    /// Faults actually injected, per site (so a chaos lane can assert the plan
    /// fired at all).
    injected: [std::sync::atomic::AtomicU64; 5],
    /// Master switch: a disarmed plan never injects (used to stop injecting
    /// while a chaos driver recomputes reference checksums on the same
    /// runtime).
    armed: std::sync::atomic::AtomicBool,
}

impl FaultPlan {
    /// A plan injecting at every site with probability `rate_ppm` / 1e6.
    pub fn uniform(seed: u64, rate_ppm: u32) -> FaultPlan {
        FaultPlan {
            seed,
            rate_ppm: [rate_ppm; 5],
            seq: Default::default(),
            injected: Default::default(),
            armed: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Overrides one site's fault probability (parts-per-million).
    pub fn with_rate(mut self, site: FaultSite, rate_ppm: u32) -> FaultPlan {
        self.rate_ppm[site.index()] = rate_ppm;
        self
    }

    /// Arms or disarms the plan (a disarmed plan never injects).
    pub fn set_armed(&self, armed: bool) {
        self.armed
            .store(armed, std::sync::atomic::Ordering::Release);
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
            .sum()
    }

    /// Faults injected at `site` so far.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// One hash roll for `site`: true when this visit should fault.
    fn roll(&self, site: FaultSite) -> bool {
        let i = site.index();
        if self.rate_ppm[i] == 0 || !self.armed.load(std::sync::atomic::Ordering::Acquire) {
            return false;
        }
        let n = self.seq[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let h = hh_api::hash64(
            hh_api::hash64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ n,
        );
        if (h % 1_000_000) < self.rate_ppm[i] as u64 {
            self.injected[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Rolls for `site` and panics with the typed payload on a hit.
    fn maybe_fault(&self, site: FaultSite) {
        if self.roll(site) {
            std::panic::panic_any(hh_api::InjectedFault { site: site.name() });
        }
    }
}

impl GcScheduleHooks for FaultPlan {
    fn on_event(&self, event: GcScheduleEvent) {
        match event {
            GcScheduleEvent::WindowStart { .. } => self.maybe_fault(FaultSite::WindowStart),
            GcScheduleEvent::FinalizeClaimed { .. } => self.maybe_fault(FaultSite::FinalizeClaimed),
            GcScheduleEvent::FinalizePreMerge { .. } => {
                self.maybe_fault(FaultSite::FinalizePreMerge)
            }
            GcScheduleEvent::FinalizeDone { .. } => self.maybe_fault(FaultSite::FinalizeDone),
            // Teardown-path events are observation-only (see `FaultSite` docs), and
            // so is the promotion point: it fires with heap WRITE locks held, which
            // no teardown path releases.
            GcScheduleEvent::FinalizeWait { .. }
            | GcScheduleEvent::EndRunPreDispose { .. }
            | GcScheduleEvent::PromoteCopyFilled => {}
        }
    }

    fn inject_alloc_fault(&self) -> bool {
        self.roll(FaultSite::Alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_deterministic_per_seed_and_roughly_proportional() {
        let a = FaultPlan::uniform(42, 100_000); // 10%
        let b = FaultPlan::uniform(42, 100_000);
        let hits_a: Vec<bool> = (0..1000).map(|_| a.roll(FaultSite::Alloc)).collect();
        let hits_b: Vec<bool> = (0..1000).map(|_| b.roll(FaultSite::Alloc)).collect();
        assert_eq!(hits_a, hits_b, "same seed, same decisions");
        let n = hits_a.iter().filter(|&&h| h).count();
        assert!((30..300).contains(&n), "10% of 1000 rolls, got {n}");
        assert_eq!(a.injected_at(FaultSite::Alloc) as usize, n);
        assert_eq!(a.injected_total() as usize, n);
    }

    #[test]
    fn zero_rate_and_disarmed_plans_never_fire() {
        let p = FaultPlan::uniform(7, 0);
        assert!((0..1000).all(|_| !p.roll(FaultSite::FinalizeClaimed)));
        let p = FaultPlan::uniform(7, 1_000_000).with_rate(FaultSite::Alloc, 0);
        assert!(!p.roll(FaultSite::Alloc), "per-site override to zero");
        assert!(p.roll(FaultSite::WindowStart), "other sites still fire");
        p.set_armed(false);
        assert!(!p.roll(FaultSite::WindowStart), "disarmed plan is quiet");
    }

    #[test]
    fn certain_fault_throws_typed_payload() {
        let p = FaultPlan::uniform(1, 1_000_000);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.on_event(GcScheduleEvent::FinalizePreMerge { epoch: 3 })
        }))
        .unwrap_err();
        assert_eq!(
            hh_api::RunError::from_panic(payload),
            hh_api::RunError::InjectedFault("finalize-pre-merge")
        );
    }

    #[test]
    fn teardown_events_are_never_fault_sites() {
        let p = FaultPlan::uniform(1, 1_000_000);
        p.on_event(GcScheduleEvent::FinalizeWait { epoch: 1 });
        p.on_event(GcScheduleEvent::EndRunPreDispose { run_epoch: 1 });
        assert_eq!(p.injected_total(), 0);
    }
}
