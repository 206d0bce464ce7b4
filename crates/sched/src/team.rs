//! Dynamic-membership team synchronization for parallel collections (GC v2).
//!
//! A *GC team* is the set of threads cooperating on one collection: the thread that
//! triggered it (always member 0) plus any drafted helpers — idle pool workers that
//! picked up a helper job ([`crate::Worker::run_gc_team`]) or mutators parked at a
//! stop-the-world safepoint ([`crate::Safepoints::begin_pause_work`]). Helpers are
//! **best-effort**: the collection must complete with whichever members actually
//! arrive, and a helper arriving after the work is done must get out of the way
//! immediately. [`TeamSync`] provides exactly that:
//!
//! * trigger pre-registration ([`TeamSync::with_trigger`]): the triggering member
//!   counts as registered from the moment the team state is constructed — i.e.
//!   **before** any helper job or pause-work offer is published. Without this, a
//!   fast helper could register, find no work (roots not seeded yet), observe
//!   itself as the whole team idle, and finish the collection before the trigger
//!   ever joined — silently retiring the zone with all live data in it;
//! * [`TeamSync::try_register`] — dynamic membership for helpers: joins the team
//!   unless the collection has already finished;
//! * idle tracking ([`TeamSync::enter_idle`] / [`TeamSync::exit_idle`]) feeding the
//!   termination rule *all registered members idle ∧ no visible work*. Idle members
//!   create no work, so once every member is idle and the shared queues are empty no
//!   work can ever appear again — the member that observes this calls
//!   [`TeamSync::finish`];
//! * departure counting: the triggering thread blocks in
//!   [`TeamSync::await_departures`] until every member has deposited its results and
//!   left, after which it owns all per-member state again and can merge it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Registration, idle-based termination, and departure tracking for one collection
/// team (see the module docs).
#[derive(Default)]
pub struct TeamSync {
    registered: AtomicUsize,
    idle: AtomicUsize,
    departed: AtomicUsize,
    done: AtomicBool,
}

impl TeamSync {
    /// Creates the synchronization state of a team with no members yet.
    pub fn new() -> TeamSync {
        TeamSync::default()
    }

    /// Creates the synchronization state of a team with the **triggering member
    /// already registered**. Use this whenever helpers are published before the
    /// trigger runs its member body (the usual shape: inject helper jobs / post the
    /// pause-work offer, then run member 0 inline): the trigger counts toward
    /// [`TeamSync::all_idle`] from the start, so a fast helper can never observe an
    /// all-idle team and [`TeamSync::finish`] before member 0 has seeded the roots.
    /// The trigger must **not** call [`TeamSync::try_register`]; it still departs
    /// normally.
    pub fn with_trigger() -> TeamSync {
        let t = TeamSync::default();
        t.registered.store(1, Ordering::SeqCst);
        t
    }

    /// Joins the team. Returns `false` if the collection has already finished (the
    /// caller must not touch any team state); membership is withdrawn again if the
    /// team finished while we were joining.
    pub fn try_register(&self) -> bool {
        if self.done.load(Ordering::Acquire) {
            return false;
        }
        self.registered.fetch_add(1, Ordering::SeqCst);
        if self.done.load(Ordering::SeqCst) {
            // Raced with completion; withdraw so `await_departures` doesn't wait
            // for a member that never worked.
            self.registered.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Number of members currently registered.
    pub fn registered(&self) -> usize {
        self.registered.load(Ordering::SeqCst)
    }

    /// Announces this member as idle (it holds no work and will create none until
    /// [`TeamSync::exit_idle`]).
    pub fn enter_idle(&self) {
        self.idle.fetch_add(1, Ordering::SeqCst);
    }

    /// Revokes the idle announcement (the member found work).
    pub fn exit_idle(&self) {
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }

    /// True if every registered member is currently idle. Combined with "no visible
    /// work" by the caller, this is the termination condition: idle members create
    /// no work, so the conjunction is stable once observed.
    pub fn all_idle(&self) -> bool {
        self.idle.load(Ordering::SeqCst) == self.registered.load(Ordering::SeqCst)
    }

    /// Marks the collection finished. Idempotent; every member observes it and
    /// departs.
    pub fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
    }

    /// True once the collection has finished.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Records this member's departure (its per-member state is complete and will
    /// not be touched again).
    pub fn depart(&self) {
        self.departed.fetch_add(1, Ordering::Release);
    }

    /// RAII departure: the returned guard calls [`TeamSync::depart`] when
    /// dropped, including on unwind. Members take one right after registering
    /// (or, for the trigger, right after construction), so a member that
    /// panics out of its work loop still departs — without this, the
    /// trigger's [`TeamSync::await_departures`] would spin forever on a
    /// registration whose thread is gone.
    pub fn depart_on_drop(&self) -> DepartGuard<'_> {
        DepartGuard { team: self }
    }

    /// Blocks (spinning with yields — departures are imminent once the team is
    /// done) until every registered member has departed. Only the triggering member
    /// calls this, after its own [`TeamSync::depart`].
    pub fn await_departures(&self) {
        debug_assert!(self.is_done(), "awaiting departures before finish");
        while self.departed.load(Ordering::Acquire) != self.registered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }
}

/// Guard returned by [`TeamSync::depart_on_drop`]: departs the team exactly
/// once, when dropped.
pub struct DepartGuard<'a> {
    team: &'a TeamSync,
}

impl Drop for DepartGuard<'_> {
    fn drop(&mut self) {
        self.team.depart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn solo_member_lifecycle() {
        let t = TeamSync::new();
        assert!(t.try_register());
        let guard = t.depart_on_drop();
        t.enter_idle();
        t.finish();
        drop(guard);
        t.await_departures();
    }

    #[test]
    fn depart_guard_departs_on_unwind() {
        let t = TeamSync::new();
        assert!(t.try_register());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = t.depart_on_drop();
            panic!("member killed mid-collection");
        }));
        assert!(r.is_err());
        t.finish();
        // The registration did not dangle: await_departures returns.
        t.await_departures();
    }

    #[test]
    fn solo_member_lifecycle_manual() {
        let t = TeamSync::new();
        assert!(t.try_register());
        assert_eq!(t.registered(), 1);
        assert!(!t.all_idle());
        t.enter_idle();
        assert!(t.all_idle());
        t.finish();
        assert!(t.is_done());
        t.depart();
        t.await_departures();
        // Late arrivals bounce off.
        assert!(!t.try_register());
        assert_eq!(t.registered(), 1);
    }

    #[test]
    fn members_arriving_after_finish_are_rejected_and_withdrawn() {
        let t = Arc::new(TeamSync::new());
        assert!(t.try_register());
        t.enter_idle();
        t.finish();
        t.depart();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || t.try_register()));
        }
        for h in handles {
            assert!(!h.join().unwrap());
        }
        t.await_departures();
        assert_eq!(t.registered(), 1, "late arrivals must not inflate the team");
    }

    #[test]
    fn pre_registered_trigger_blocks_early_termination() {
        // The bug this guards against: helpers are published before the trigger
        // runs, so a fast helper that registers into an otherwise-empty team and
        // finds no work must NOT be able to finish the collection — the trigger is
        // pre-registered and non-idle until it has seeded the roots.
        let t = Arc::new(TeamSync::with_trigger());
        assert_eq!(t.registered(), 1);
        // A helper joins before the trigger's member body has started.
        assert!(t.try_register());
        t.enter_idle(); // helper is idle...
        assert!(
            !t.all_idle(),
            "an idle helper alone must not satisfy the termination condition \
             while the pre-registered trigger has not gone idle"
        );
        // Trigger runs: seeds roots (non-idle), then goes idle — now the team may
        // terminate.
        t.enter_idle();
        assert!(t.all_idle());
        t.finish();
        t.depart(); // helper
        t.depart(); // trigger
        t.await_departures();
    }

    #[test]
    fn idle_tracking_across_threads() {
        let t = Arc::new(TeamSync::new());
        assert!(t.try_register());
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            if !t2.try_register() {
                return;
            }
            t2.enter_idle();
            while !t2.is_done() {
                std::thread::yield_now();
            }
            t2.depart();
        });
        // Wait until the helper is idle, then terminate.
        t.enter_idle();
        while !t.all_idle() {
            t.exit_idle();
            std::thread::yield_now();
            t.enter_idle();
        }
        t.finish();
        t.depart();
        h.join().unwrap();
        t.await_departures();
    }
}
