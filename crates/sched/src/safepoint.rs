//! Cooperative stop-the-world safepoints.
//!
//! The `mlton-spoonhower` baseline in the paper performs *sequential, stop-the-world*
//! garbage collection: when a collection is needed, every processor stops at a safe
//! point and a single thread collects. [`Safepoints`] provides that coordination for
//! the baseline runtimes in this repository:
//!
//! * the roster is fixed at construction: [`Safepoints::new`] takes the number of
//!   threads that poll (a pool's workers, which never leave it) and the hook that
//!   wakes those of them asleep elsewhere;
//! * mutators call [`poll`](Safepoints::poll) at allocation sites, writes, and scheduler
//!   idle loops; if a collection has been requested they park until it finishes;
//! * the thread that wants to collect calls [`stop_the_world`](Safepoints::stop_the_world)
//!   with the collection closure; it runs once every *other* member is parked.
//!
//! This is a cooperative protocol: a member that never polls delays the collection (a
//! liveness, not a safety, concern), and one that stops polling for good (a thread
//! that exits) stalls every later collection. The runtimes in this repository poll
//! on every allocation and at every fork/join, which bounds the wait by one
//! sequential grain of work.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Work offered to threads parked at the safepoint (GC v2: the parallel collector's
/// helper body). The generation lets each parked thread run a given offer exactly
/// once — after its helper stint it goes back to waiting for the resume signal —
/// and `next_slot` gives each taker its own helper slot, `1, 2, ...`.
#[derive(Default)]
struct PauseWork {
    generation: u64,
    next_slot: usize,
    work: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

/// Stop-the-world coordination for the baseline collectors.
pub struct Safepoints {
    /// Threads that poll, the collector among them.
    members: usize,
    requested: AtomicBool,
    /// Members currently parked.
    parked: Mutex<usize>,
    parked_cv: Condvar,
    resume_cv: Condvar,
    collector_lock: Mutex<()>,
    /// Work offered to parked threads while a collection runs (see [`PauseWork`]).
    pause_work: Mutex<PauseWork>,
    /// Invoked right after a collection is requested. The parking scheduler needs
    /// this: workers parked on the pool's sleep condvar are not polling, so the
    /// collector would otherwise wait out their parking timeout. The baselines pass
    /// `PoolWaker::wake_all`, which kicks every parked worker back into its idle
    /// loop where the idle hook polls (and parks them at this safepoint instead).
    wake: Box<dyn Fn() + Send + Sync>,
}

impl Safepoints {
    /// Creates a coordinator for `members` polling threads (the collector counts
    /// every other one parked before it runs) that calls `wake` whenever a
    /// collection is requested.
    pub fn new(members: usize, wake: impl Fn() + Send + Sync + 'static) -> Self {
        Safepoints {
            members,
            requested: AtomicBool::new(false),
            parked: Mutex::new(0),
            parked_cv: Condvar::new(),
            resume_cv: Condvar::new(),
            collector_lock: Mutex::new(()),
            pause_work: Mutex::new(PauseWork::default()),
            wake: Box::new(wake),
        }
    }

    /// True if a collection has been requested and mutators should park.
    #[inline]
    pub fn collection_requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// Fast safepoint check: parks the calling thread for the duration of any pending
    /// collection. Call this at allocation sites, mutation sites, and idle loops.
    #[inline]
    pub fn poll(&self) {
        if self.collection_requested() {
            self.park();
        }
    }

    /// Offers `work` to every thread parked at this safepoint for the rest of the
    /// current stop-the-world pause (GC v2: *drafting* — instead of sleeping
    /// through the collection, parked mutators run the parallel collector's
    /// helper body). Each parked thread runs the offer at most once, as
    /// `work(slot)` with a slot of its own numbered from 1, then resumes waiting;
    /// the offer must therefore not return until the team has no more work for it.
    ///
    /// Call only from inside the collection closure of
    /// [`Safepoints::stop_the_world`] (the world is stopped, so the drafted threads
    /// are exactly the parked mutators). The offer is withdrawn when the world
    /// resumes.
    pub fn begin_pause_work(&self, work: Arc<dyn Fn(usize) + Send + Sync>) {
        {
            let mut pw = self.pause_work.lock();
            pw.generation += 1;
            pw.next_slot = 1;
            pw.work = Some(work);
        }
        // Parked threads wait on the resume condvar; poke them so they notice the
        // offer. (Lock the parked count so the notify cannot slot between a parked
        // thread's re-check and its wait.)
        let _parked = self.parked.lock();
        self.resume_cv.notify_all();
    }

    fn park(&self) {
        // On unwind the parked count is decremented by a guard: a pause-work
        // offer that panics (an injected fault inside a drafted helper stint)
        // unwinds through this frame with the count's lock *released*, and a
        // leaked increment would let the next collector count a thread as
        // parked that is actually gone — stopping the world one thread short.
        // Declared before `parked` so it drops after the lock guard. The
        // normal exit decrements under the lock instead (below).
        struct ParkedToken<'a>(&'a Safepoints);
        impl Drop for ParkedToken<'_> {
            fn drop(&mut self) {
                *self.0.parked.lock() -= 1;
            }
        }
        let _token;
        let mut parked = self.parked.lock();
        *parked += 1;
        _token = ParkedToken(self);
        self.parked_cv.notify_all();
        // Generations start at 1, so 0 never suppresses a real offer.
        let mut ran_generation = 0u64;
        while self.requested.load(Ordering::Acquire) {
            let offer = {
                let mut pw = self.pause_work.lock();
                if pw.work.is_some() && pw.generation != ran_generation {
                    ran_generation = pw.generation;
                    let slot = pw.next_slot;
                    pw.next_slot += 1;
                    pw.work.clone().map(|work| (work, slot))
                } else {
                    None
                }
            };
            if let Some((work, slot)) = offer {
                // Help the collection. The thread stays *logically* parked (it
                // performs no mutator work), but the lock is released so the
                // collector and other helpers are not serialized on it.
                drop(parked);
                work(slot);
                parked = self.parked.lock();
                continue;
            }
            self.resume_cv.wait(&mut parked);
        }
        // Leave in the critical section that saw `requested` clear. Decrementing
        // after releasing the lock (the token's path) let the next collector count
        // this thread as parked while it was already back at mutator work.
        *parked -= 1;
        std::mem::forget(_token);
    }

    /// Stops the world and runs `collect` while every other member is parked.
    ///
    /// Returns `true` if `collect` ran. If another thread is already collecting, this
    /// thread parks like any other mutator and returns `false` once that collection is
    /// over (the caller should then re-check whether a collection is still needed).
    pub fn stop_the_world<F: FnOnce()>(&self, collect: F) -> bool {
        let Some(_guard) = self.collector_lock.try_lock() else {
            // Somebody else is collecting; behave like a mutator hitting a safepoint.
            self.poll();
            return false;
        };
        self.requested.store(true, Ordering::Release);
        // Get parked scheduler workers moving so they hit a poll and park *here*
        // instead of sleeping out their pool timeout.
        (self.wake)();
        {
            let mut parked = self.parked.lock();
            while *parked + 1 < self.members {
                self.parked_cv.wait(&mut parked);
            }
        }
        // Resume the world through an unwind guard: if `collect` panics (a
        // fault-injected collection), leaving `requested` set would park every
        // future poller forever. The guard also withdraws the pause-work offer, so
        // it cannot leak into the next pause.
        struct ResumeWorld<'a>(&'a Safepoints);
        impl Drop for ResumeWorld<'_> {
            fn drop(&mut self) {
                self.0.pause_work.lock().work = None;
                self.0.requested.store(false, Ordering::Release);
                let _parked = self.0.parked.lock();
                self.0.resume_cv.notify_all();
            }
        }
        let _resume = ResumeWorld(self);
        collect();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    /// A coordinator for `members` threads with no one to wake.
    fn roster(members: usize) -> Arc<Safepoints> {
        Arc::new(Safepoints::new(members, || ()))
    }

    /// Polls `sp` until `stop` is set: a member that has finished its own work
    /// stays on the roster, so it keeps parking for later collections.
    fn poll_until(sp: &Safepoints, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            sp.poll();
            std::hint::spin_loop();
        }
    }

    #[test]
    fn single_thread_world_stop_runs_collector() {
        let woken = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&woken);
        let sp = Safepoints::new(1, move || {
            w.fetch_add(1, Ordering::Relaxed);
        });
        let mut ran = false;
        assert!(sp.stop_the_world(|| ran = true));
        assert!(ran);
        assert_eq!(woken.load(Ordering::Relaxed), 1, "a request wakes the pool");
        assert!(!sp.collection_requested());
    }

    #[test]
    fn mutators_park_while_collection_runs() {
        let n_mutators = 4;
        let sp = roster(n_mutators + 1); // the collector thread is a member too
        let in_mutator_during_gc = Arc::new(AtomicUsize::new(0));
        let gc_running = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));

        let mut handles = Vec::new();
        for _ in 0..n_mutators {
            let sp = Arc::clone(&sp);
            let flag = Arc::clone(&gc_running);
            let bad = Arc::clone(&in_mutator_during_gc);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    sp.poll();
                    // "Mutator work": if we are here while the collector claims the
                    // world is stopped, the protocol is broken.
                    if flag.load(Ordering::SeqCst) {
                        bad.fetch_add(1, Ordering::SeqCst);
                    }
                    std::hint::spin_loop();
                }
            }));
        }

        std::thread::sleep(Duration::from_millis(10));
        for _ in 0..5 {
            let flag = Arc::clone(&gc_running);
            let ran = sp.stop_the_world(|| {
                flag.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                flag.store(false, Ordering::SeqCst);
            });
            assert!(ran);
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            in_mutator_during_gc.load(Ordering::SeqCst),
            0,
            "mutator observed running during a stop-the-world pause"
        );
    }

    #[test]
    fn panicking_collection_resumes_the_world() {
        let sp = roster(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sp.stop_the_world(|| panic!("injected collection fault"))
        }));
        assert!(r.is_err());
        // The unwind guard cleared the request; nothing parks forever.
        assert!(!sp.collection_requested());
        // And the coordinator is still usable for the next collection.
        let mut ran = false;
        assert!(sp.stop_the_world(|| ran = true));
        assert!(ran);
    }

    #[test]
    fn panicking_pause_work_does_not_leak_parked_count() {
        let sp = roster(2); // the collector and one mutator
        let stop = Arc::new(AtomicBool::new(false));
        let (sp2, stop2) = (Arc::clone(&sp), Arc::clone(&stop));
        let (recovered_tx, recovered) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                sp2.poll();
                std::hint::spin_loop();
            }));
            assert!(r.is_err(), "the drafted helper stint should have panicked");
            recovered_tx.send(()).unwrap();
            // Still a member: park for the second collection below.
            poll_until(&sp2, &stop2);
        });
        let (taken_tx, taken) = std::sync::mpsc::channel();
        // The unwind leaves `park`, so a mutator that polls again before the
        // world resumes parks afresh and takes the same offer once more; only
        // the first stint panics.
        let faulted = AtomicBool::new(false);
        let ran = sp.stop_the_world(|| {
            sp.begin_pause_work(Arc::new(move |_| {
                if !faulted.swap(true, Ordering::Relaxed) {
                    taken_tx.send(()).unwrap();
                    panic!("drafted helper fault")
                }
            }));
            // The mutator is parked (the world is stopped), so it takes the
            // offer; resume only once it has, or it would never panic.
            taken.recv().unwrap();
        });
        assert!(ran);
        recovered.recv().unwrap();
        // The panicked helper's park token was returned on unwind; a leak here
        // would let this collector count the mutator as parked while it runs.
        let mutator_parked = AtomicBool::new(false);
        assert!(sp.stop_the_world(|| {
            assert_eq!(*sp.parked.lock(), 1, "exactly the mutator is parked");
            mutator_parked.store(true, Ordering::Relaxed);
        }));
        assert!(mutator_parked.load(Ordering::Relaxed));
        stop.store(true, Ordering::Relaxed);
        h.join().unwrap();
        assert_eq!(*sp.parked.lock(), 0);
    }

    #[test]
    fn parked_threads_take_distinct_helper_slots_until_the_world_resumes() {
        let members = 3; // the collector and two parked mutators
        let sp = roster(members);
        let stop = Arc::new(AtomicBool::new(false));
        let mutators: Vec<_> = (1..members)
            .map(|_| {
                let (sp, stop) = (Arc::clone(&sp), Arc::clone(&stop));
                std::thread::spawn(move || poll_until(&sp, &stop))
            })
            .collect();
        let slots = Arc::new(Mutex::new(Vec::new()));
        let ran = sp.stop_the_world(|| {
            let taken = Arc::clone(&slots);
            sp.begin_pause_work(Arc::new(move |slot| taken.lock().push(slot)));
            // Both mutators are parked, so each takes the offer once.
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while slots.lock().len() < members - 1 {
                assert!(std::time::Instant::now() < deadline, "offer not taken");
                std::thread::yield_now();
            }
        });
        assert!(ran);
        assert!(
            sp.pause_work.lock().work.is_none(),
            "the offer outlived its pause"
        );
        stop.store(true, Ordering::Relaxed);
        for h in mutators {
            h.join().unwrap();
        }
        let mut slots = slots.lock().clone();
        slots.sort_unstable();
        assert_eq!(slots, (1..members).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_collection_requests_do_not_deadlock() {
        let n_threads = 4;
        let sp = roster(n_threads);
        let collections = Arc::new(AtomicUsize::new(0));
        let finished = Arc::new(AtomicUsize::new(0));
        let all_done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..n_threads {
            let sp = Arc::clone(&sp);
            let collections = Arc::clone(&collections);
            let (finished, all_done) = (Arc::clone(&finished), Arc::clone(&all_done));
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    sp.poll();
                    sp.stop_the_world(|| {
                        collections.fetch_add(1, Ordering::SeqCst);
                    });
                }
                // The last thread to finish releases the others, which keep
                // parking for its collections until then.
                if finished.fetch_add(1, Ordering::SeqCst) + 1 == n_threads {
                    all_done.store(true, Ordering::Relaxed);
                }
                poll_until(&sp, &all_done);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(collections.load(Ordering::SeqCst) > 0);
        assert_eq!(*sp.parked.lock(), 0);
    }
}
