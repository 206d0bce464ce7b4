//! Cooperative stop-the-world safepoints.
//!
//! The `mlton-spoonhower` baseline in the paper performs *sequential, stop-the-world*
//! garbage collection: when a collection is needed, every processor stops at a safe
//! point and a single thread collects. [`Safepoints`] provides that coordination for
//! the baseline runtimes in this repository:
//!
//! * every worker thread participating in mutator work [`register`](Safepoints::register)s
//!   itself;
//! * mutators call [`poll`](Safepoints::poll) at allocation sites, writes, and scheduler
//!   idle loops; if a collection has been requested they park until it finishes;
//! * the thread that wants to collect calls [`stop_the_world`](Safepoints::stop_the_world)
//!   with the collection closure; it runs once all *other* registered threads are parked.
//!
//! This is a cooperative protocol: a registered thread that never polls delays the
//! collection (a liveness, not a safety, concern). The runtimes in this repository poll
//! on every allocation and at every fork/join, which bounds the wait by one sequential
//! grain of work.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

#[derive(Default)]
struct State {
    parked: usize,
}

type WakeHook = Arc<dyn Fn() + Send + Sync>;

/// Work offered to threads parked at the safepoint (GC v2: the parallel collector's
/// team entry). The generation lets each parked thread run a given offer exactly
/// once — after its helper stint it goes back to waiting for the resume signal.
#[derive(Default)]
struct PauseWork {
    generation: u64,
    work: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// Stop-the-world coordination for the baseline collectors.
#[derive(Default)]
pub struct Safepoints {
    registered: AtomicUsize,
    requested: AtomicBool,
    state: Mutex<State>,
    parked_cv: Condvar,
    resume_cv: Condvar,
    collector_lock: Mutex<()>,
    world_stops: AtomicUsize,
    /// Work offered to parked threads while a collection runs (see [`PauseWork`]).
    pause_work: Mutex<PauseWork>,
    /// Invoked right after a collection is requested. The parking scheduler needs
    /// this: workers parked on the pool's sleep condvar are not polling, so the
    /// collector would otherwise wait out their parking timeout. The baselines install
    /// `PoolWaker::wake_all` here, which kicks every parked worker back into its idle
    /// loop where the idle hook polls (and parks them at this safepoint instead).
    wake_hook: OnceLock<WakeHook>,
}

impl Safepoints {
    /// Creates a coordinator with no registered threads.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the calling thread as a mutator that will poll.
    pub fn register(&self) {
        self.registered.fetch_add(1, Ordering::SeqCst);
    }

    /// Unregisters the calling thread (it will no longer poll).
    pub fn unregister(&self) {
        let prev = self.registered.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "unregister without register");
        // A collector may be waiting for this thread to park; wake it so it can
        // re-evaluate its target.
        self.parked_cv.notify_all();
    }

    /// Number of registered mutator threads.
    pub fn registered(&self) -> usize {
        self.registered.load(Ordering::SeqCst)
    }

    /// Number of stop-the-world pauses that have completed.
    pub fn world_stops(&self) -> usize {
        self.world_stops.load(Ordering::SeqCst)
    }

    /// Installs the hook run whenever a collection is requested (see the field doc).
    /// Set-once; later calls are ignored.
    pub fn set_wake_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.wake_hook.set(Arc::new(hook));
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

    /// Offers `work` to every thread parked at this safepoint for the duration of
    /// the current stop-the-world pause (GC v2: *drafting* — instead of sleeping
    /// through the collection, parked mutators run the parallel collector's team
    /// entry). Each parked thread runs the offer at most once, then resumes waiting;
    /// the offer must therefore not return until the team has no more work for it.
    ///
    /// Call only from inside the collection closure of
    /// [`Safepoints::stop_the_world`] (the world is stopped, so the drafted threads
    /// are exactly the parked mutators), and pair with
    /// [`Safepoints::end_pause_work`] before the closure returns.
    pub fn begin_pause_work(&self, work: Arc<dyn Fn() + Send + Sync>) {
        {
            let mut pw = self.pause_work.lock();
            pw.generation += 1;
            pw.work = Some(work);
        }
        // Parked threads wait on the resume condvar; poke them so they notice the
        // offer. (Lock the state mutex so the notify cannot slot between a parked
        // thread's re-check and its wait.)
        let _st = self.state.lock();
        self.resume_cv.notify_all();
    }

    /// Withdraws the offer installed by [`Safepoints::begin_pause_work`].
    pub fn end_pause_work(&self) {
        self.pause_work.lock().work = None;
    }

    fn park(&self) {
        // On unwind the parked count is decremented by a guard: a pause-work
        // offer that panics (an injected fault inside a drafted helper stint)
        // unwinds through this frame with the state lock *released*, and a
        // leaked `parked` increment would let the next collector count a thread
        // as parked that is actually gone — stopping the world one thread
        // short. Declared before `st` so it drops after the lock guard. The
        // normal exit decrements under the lock instead (below).
        struct ParkedToken<'a>(&'a Safepoints);
        impl Drop for ParkedToken<'_> {
            fn drop(&mut self) {
                self.0.state.lock().parked -= 1;
            }
        }
        let _token;
        let mut st = self.state.lock();
        st.parked += 1;
        _token = ParkedToken(self);
        self.parked_cv.notify_all();
        // Generations start at 1, so 0 never suppresses a real offer.
        let mut ran_generation = 0u64;
        while self.requested.load(Ordering::Acquire) {
            let offer = {
                let pw = self.pause_work.lock();
                if pw.work.is_some() && pw.generation != ran_generation {
                    ran_generation = pw.generation;
                    pw.work.clone()
                } else {
                    None
                }
            };
            if let Some(work) = offer {
                // Help the collection. The thread stays *logically* parked (it
                // performs no mutator work), but the state lock is released so the
                // collector and other helpers are not serialized on it.
                drop(st);
                work();
                st = self.state.lock();
                continue;
            }
            self.resume_cv.wait(&mut st);
        }
        // Leave in the critical section that saw `requested` clear. Decrementing
        // after releasing the lock (the token's path) let the next collector count
        // this thread as parked while it was already back at mutator work.
        st.parked -= 1;
        std::mem::forget(_token);
    }

    /// Stops the world and runs `collect` while all other registered threads are parked.
    ///
    /// Returns `true` if `collect` ran. If another thread is already collecting, this
    /// thread parks like any other mutator and returns `false` once that collection is
    /// over (the caller should then re-check whether a collection is still needed).
    pub fn stop_the_world<F: FnOnce()>(&self, collect: F) -> bool {
        match self.collector_lock.try_lock() {
            Some(_guard) => {
                self.requested.store(true, Ordering::Release);
                // Get parked scheduler workers moving so they hit a poll and park
                // *here* instead of sleeping out their pool timeout.
                if let Some(hook) = self.wake_hook.get() {
                    hook();
                }
                {
                    let mut st = self.state.lock();
                    // Wait until every *other* registered thread is parked. The target is
                    // re-read each iteration because threads may unregister while we wait.
                    loop {
                        let target = self.registered().saturating_sub(1);
                        if st.parked >= target {
                            break;
                        }
                        self.parked_cv.wait(&mut st);
                    }
                }
                // Resume the world through an unwind guard: if `collect` panics
                // (a fault-injected collection), leaving `requested` set would
                // park every future poller forever. The guard also withdraws
                // any pause-work offer the collection left installed, so a
                // stale offer cannot leak into the next pause.
                struct ResumeWorld<'a>(&'a Safepoints);
                impl Drop for ResumeWorld<'_> {
                    fn drop(&mut self) {
                        self.0.pause_work.lock().work = None;
                        self.0.requested.store(false, Ordering::Release);
                        let _st = self.0.state.lock();
                        self.0.resume_cv.notify_all();
                    }
                }
                let resume = ResumeWorld(self);
                collect();
                drop(resume);
                self.world_stops.fetch_add(1, Ordering::SeqCst);
                true
            }
            None => {
                // Somebody else is collecting; behave like a mutator hitting a safepoint.
                self.poll();
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn single_thread_world_stop_runs_collector() {
        let sp = Safepoints::new();
        sp.register();
        let mut ran = false;
        assert!(sp.stop_the_world(|| ran = true));
        assert!(ran);
        assert_eq!(sp.world_stops(), 1);
        assert!(!sp.collection_requested());
        sp.unregister();
    }

    #[test]
    fn mutators_park_while_collection_runs() {
        let sp = Arc::new(Safepoints::new());
        let n_mutators = 4;
        let in_mutator_during_gc = Arc::new(AtomicUsize::new(0));
        let gc_running = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));

        for _ in 0..n_mutators {
            sp.register();
        }
        sp.register(); // the collector thread is registered too

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
        assert_eq!(sp.world_stops(), 5);
    }

    #[test]
    fn panicking_collection_resumes_the_world() {
        let sp = Safepoints::new();
        sp.register();
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
        sp.unregister();
    }

    #[test]
    fn panicking_pause_work_does_not_leak_parked_count() {
        let sp = Arc::new(Safepoints::new());
        sp.register(); // collector
        sp.register(); // mutator
        let sp2 = Arc::clone(&sp);
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                sp2.poll();
                std::hint::spin_loop();
            }));
            assert!(r.is_err(), "the drafted helper stint should have panicked");
            sp2.unregister();
        });
        let sp3 = Arc::clone(&sp);
        let ran = sp.stop_the_world(|| {
            sp3.begin_pause_work(Arc::new(|| panic!("drafted helper fault")));
            // Wait for the parked mutator to pick up the offer and die of it.
            std::thread::sleep(Duration::from_millis(20));
            sp3.end_pause_work();
        });
        assert!(ran);
        h.join().unwrap();
        // The panicked helper's park token was returned on unwind; a leak here
        // would make a later collector count a dead thread as parked.
        assert_eq!(sp.state.lock().parked, 0);
        let mut ran2 = false;
        assert!(sp.stop_the_world(|| ran2 = true));
        assert!(ran2);
        sp.unregister();
    }

    #[test]
    fn concurrent_collection_requests_do_not_deadlock() {
        let sp = Arc::new(Safepoints::new());
        let collections = Arc::new(AtomicUsize::new(0));
        let n_threads = 4;
        for _ in 0..n_threads {
            sp.register();
        }
        let mut handles = Vec::new();
        for _ in 0..n_threads {
            let sp = Arc::clone(&sp);
            let collections = Arc::clone(&collections);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    sp.poll();
                    if sp.stop_the_world(|| {
                        collections.fetch_add(1, Ordering::SeqCst);
                    }) {
                        // collected
                    }
                }
                sp.unregister();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(collections.load(Ordering::SeqCst) > 0);
        assert_eq!(sp.registered(), 0);
    }
}
