//! The worker pool and the work-first `join` primitive (scheduler v2).
//!
//! The fast path of a fork is allocation-free and lock-free: the right branch lives in
//! a stack-resident [`StackJob`], its one-word handle is published on the forking
//! worker's Chase–Lev deque, and — in the common, unstolen case — popped back and run
//! inline. Waking is pay-per-sleeper: a push only touches the sleep lock when the
//! sleeper count says somebody is actually parked, and then wakes exactly one worker.
//! Idle workers spin briefly (stealing from randomized victims), then park on a
//! condvar until a push, an injection, a shutdown, or an external
//! [`PoolWaker::wake_all`] (used by the stop-the-world baseline's safepoint protocol).

use crate::job::{HeapJob, JobRef, OwnedJob, StackJob};
use crate::queue::{steal_other, Injector, JobQueue};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

type IdleHook = Box<dyn Fn(usize) + Send + Sync>;

/// How many fruitless scan rounds an idle worker spins through before it announces
/// itself as a sleeper and parks. Each round scans every victim once.
const SPIN_ROUNDS: usize = 32;

/// Safety-net parking timeout. Wakeups are delivered through the token protocol; the
/// timeout only bounds the damage of a protocol bug and keeps the idle hook running
/// (slowly) even for a worker that somehow missed a wake.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// Scheduler counters exposed to runtimes and the harness.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Successful steals from worker deques (injector pops are not steals).
    pub steals: usize,
    /// Times a worker parked on the sleep condvar.
    pub parks: usize,
    /// Wakeups delivered to parked workers (tokens deposited).
    pub wakes: usize,
    /// Panics contained by the worker-loop shield (a detached job — GC helper
    /// or idle-hook work — unwound; the worker survived and kept scheduling).
    /// Fork/join branch panics are *not* counted here: those propagate to the
    /// forking frame by design.
    pub worker_panics: usize,
}

/// State guarded by the sleep lock: outstanding wake tokens. A parking worker consumes
/// a token instead of sleeping; a worker woken by the condvar consumes the token that
/// woke it. Tokens make the wake protocol immune to the push-vs-park race.
#[derive(Default)]
struct SleepState {
    tokens: usize,
}

struct PoolInner {
    queues: Vec<JobQueue>,
    injector: Injector,
    shutdown: AtomicBool,
    /// Number of workers parked or committed to parking (announced sleepers).
    sleepers: AtomicUsize,
    sleep: Mutex<SleepState>,
    sleep_cv: Condvar,
    idle_hook: OnceLock<IdleHook>,
    /// Per-worker xorshift state for randomized victim selection. Atomic only to be
    /// shareable; each worker touches its own.
    rng: Vec<AtomicU64>,
    live_workers: AtomicUsize,
    steals: AtomicUsize,
    parks: AtomicUsize,
    wakes: AtomicUsize,
    worker_panics: AtomicUsize,
    /// GC helper jobs injected but not yet executed. Bounds the injector backlog:
    /// when a saturated pool never drains its helper jobs, later collections stop
    /// injecting new ones instead of queueing an unbounded pile of stale jobs
    /// (each pinning its team's shared state until executed).
    gc_helper_jobs: AtomicUsize,
}

impl PoolInner {
    /// Wakes one parked worker, if any. Call *after* publishing work; the SeqCst fence
    /// pairs with the sleeper's announce-then-recheck sequence, so either this load
    /// sees the sleeper (and leaves a token) or the sleeper's recheck sees the work.
    fn wake_one(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let mut st = self.sleep.lock();
            if st.tokens < self.queues.len() {
                st.tokens += 1;
                self.wakes.fetch_add(1, Ordering::Relaxed);
            }
            self.sleep_cv.notify_one();
        }
    }

    /// Wakes every parked worker (shutdown, or an external event like a pending
    /// stop-the-world collection that parked workers must go poll).
    fn wake_all(&self) {
        let n = self.queues.len();
        let mut st = self.sleep.lock();
        self.wakes.fetch_add(n - st.tokens, Ordering::Relaxed);
        st.tokens = n;
        self.sleep_cv.notify_all();
    }

    /// Steals a job from the injector or, through the shared randomized victim scan
    /// ([`steal_other`]), from a worker deque other than `me`.
    fn steal_any(&self, me: usize) -> Option<JobRef> {
        if let Some(j) = self.injector.steal() {
            return Some(j);
        }
        let mut rng = self.rng[me].load(Ordering::Relaxed);
        let stolen = steal_other(&self.queues, me, &mut rng);
        self.rng[me].store(rng, Ordering::Relaxed);
        let j = stolen?;
        self.steals.fetch_add(1, Ordering::Relaxed);
        Some(j)
    }

    /// True if any queue (injector included) has visible work. Used only in the
    /// sleeper's pre-park recheck — this is the fix for the missed-wakeup window: the
    /// old recheck consulted the injector only, so a job pushed to a *peer deque* just
    /// before the wait slept the full timeout.
    fn has_any_work(&self) -> bool {
        !self.injector.is_empty() || self.queues.iter().any(|q| !q.is_empty())
    }

    /// Runs the idle hook, if one is installed, for worker `index`. Idle-hook
    /// work is detached (it drains other runs' GC increments): a panic there — an
    /// injected fault at a finalize hook site — is contained and counted, never
    /// allowed to unwind the worker loop or a fork/join help loop.
    #[inline]
    fn run_idle_hook(&self, index: usize) {
        if let Some(hook) = self.idle_hook.get() {
            if catch_unwind(AssertUnwindSafe(|| hook(index))).is_err() {
                self.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Executes a *detached* job under the worker panic shield: a panic
    /// escaping the job (a GC helper killed by fault injection — stack jobs
    /// and root jobs transport their panics internally) is contained and
    /// counted, never allowed to unwind the caller. That matters in two
    /// places: the worker main loop (an unwinding worker thread would strand
    /// its deque and shrink the pool for the rest of its life) and the
    /// fork/join help loop (whose stack frame a still-running stolen
    /// `StackJob` borrows — unwinding past it would be a use-after-free, see
    /// `Worker::join_context`'s safety comment).
    ///
    /// # Safety
    /// Same contract as [`JobRef::execute`]: the handle must be executed
    /// exactly once, by the thread holding it.
    unsafe fn execute_shielded(&self, j: JobRef, stolen: bool) {
        // SAFETY: forwarded caller contract.
        if catch_unwind(AssertUnwindSafe(|| unsafe { j.execute(stolen) })).is_err() {
            self.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static CURRENT_WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Encodes the pool identity + worker index in the TLS slot. The pool identity is the
/// address of its `PoolInner`, which is stable for the pool's lifetime.
fn set_current_worker(pool: &Arc<PoolInner>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((Arc::as_ptr(pool) as usize, index))));
}

fn clear_current_worker() {
    CURRENT_WORKER.with(|c| c.set(None));
}

/// Index of the calling thread within `pool`, if it is one of `pool`'s workers.
#[inline]
fn current_index(pool: &Arc<PoolInner>) -> Option<usize> {
    PoolId(Arc::as_ptr(pool) as usize).current_worker_index()
}

/// A pool's identity (see [`Pool::id`]): tells the pool's worker threads apart
/// from every other thread without holding the pool, so state the pool's hooks
/// keep alive can hold it without forming a cycle.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PoolId(usize);

impl PoolId {
    /// Index (`0 .. n_workers`) of the calling thread if it is one of the pool's
    /// workers, `None` on any other thread. One thread-local load: cheap enough
    /// for per-operation use (the runtime picks its per-worker counter shard with
    /// it).
    #[inline]
    pub fn current_worker_index(self) -> Option<usize> {
        CURRENT_WORKER
            .with(|c| c.get())
            .and_then(|(pool, index)| (pool == self.0).then_some(index))
    }
}

/// A handle to the worker thread currently executing, used to fork new work.
#[derive(Clone)]
pub struct Worker {
    pool: Arc<PoolInner>,
    index: usize,
}

impl Worker {
    /// Index of this worker within its pool (`0 .. n_workers`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The work-first fork/join primitive.
    ///
    /// Runs `fa` inline on the current worker while exposing `fb` to thieves; see
    /// [`Worker::join_context`] for the mechanics. Use `join_context` when the right
    /// branch needs to know whether it was actually stolen.
    pub fn join<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce() -> RA + Send,
        FB: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        self.join_context(fa, |_stolen| fb())
    }

    /// The work-first fork/join primitive, steal-aware.
    ///
    /// Runs `fa` inline on the current worker while exposing `fb` to thieves through a
    /// stack-resident job — **no heap allocation happens on this path**. If nobody
    /// steals `fb`, the current worker pops it back and runs it inline with
    /// `stolen == false` (the common, cheap case the paper's scheduler optimizes
    /// for); if a thief took it, the thief runs it with `stolen == true` — this flag is
    /// how upper layers observe steals (the hierarchical runtime creates child heaps
    /// and counts steals there, lazily) — while the current worker *helps*:
    /// executing other local jobs or stealing elsewhere until `fb`'s latch is set.
    /// Panics in either branch are re-raised here after both branches have finished,
    /// so the scheduler never leaks a running job that borrows a dead frame.
    pub fn join_context<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce() -> RA + Send,
        FB: FnOnce(bool) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        // The Chase–Lev deque's push/pop are owner-only, so resolve the index of the
        // worker actually executing this call from TLS instead of trusting
        // `self.index`: `Worker` is `Clone + Send`, and a handle captured into a
        // branch closure that gets *stolen* would otherwise push to the victim's
        // deque from the thief's thread — unsynchronized and unsound. With the TLS
        // index a captured handle simply forks on whichever of the pool's workers is
        // running it.
        let index = current_index(&self.pool)
            .expect("Worker::join must be called on a worker thread of the same pool");
        let job = StackJob::new(fb);
        // SAFETY: we do not return from this frame (even on panic of `fa`) until the
        // job's latch is set or the job has been popped back un-stolen and executed
        // inline, so the job outlives every execution of its handle.
        self.pool.queues[index].push(unsafe { job.as_job_ref() });
        // Wake an idle worker only if somebody is actually parked.
        self.pool.wake_one();

        let result_a = catch_unwind(AssertUnwindSafe(fa));

        // Retrieve the right branch: pop it back if still local, otherwise help until
        // the thief finishes it.
        while !job.is_done() {
            if let Some(j) = self.pool.queues[index].pop() {
                if j.points_to(job.header_ptr()) {
                    // Unstolen fast path: run the branch inline, no heap, no latch
                    // contention.
                    // SAFETY: we hold the unique reclaimed handle.
                    unsafe { job.run_inline(false) };
                    break;
                }
                // A job pushed by an enclosing join on this worker; running it here is
                // safe (same thread, its frame is suspended below ours) and useful.
                // SAFETY: popped from our own deque, executed exactly once.
                unsafe { self.pool.execute_shielded(j, false) };
            } else if let Some(j) = self.pool.steal_any(index) {
                // SAFETY: stolen handle, executed exactly once.
                unsafe { self.pool.execute_shielded(j, true) };
            } else {
                // Nothing to help with. Give the idle hook a chance to run — the
                // stop-the-world baseline uses it to park waiting workers at a
                // safepoint so a pending collection can proceed — then yield.
                self.pool.run_idle_hook(index);
                std::thread::yield_now();
            }
        }
        debug_assert!(job.is_done());

        // SAFETY: the job is done and this frame is its unique consumer.
        let result_b = unsafe { job.take_result() };
        match (result_a, result_b) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(p), _) => resume_unwind(p),
            (Ok(_), Err(p)) => resume_unwind(p),
        }
    }

    /// The worker of this worker's pool that the calling thread is running on,
    /// if any: how a fork branch, which may run on a thief, derives its own
    /// handle from its forker's.
    pub fn current_peer(&self) -> Option<Worker> {
        current_index(&self.pool).map(|index| Worker {
            pool: Arc::clone(&self.pool),
            index,
        })
    }

    /// Drafts up to `helpers` of the pool's workers into a collection team (GC
    /// v2): injects `helpers` fire-and-forget jobs calling `work(1) ..
    /// work(helpers)` for idle workers to pick up, and returns. Every parked
    /// worker is woken so a sleeping pool joins the collection instead of
    /// sleeping through it. The caller runs the team's member 0 itself.
    ///
    /// Helpers are **best-effort**: a worker busy with mutator tasks simply never
    /// takes its helper job, and a job executed after the collection finished must
    /// return immediately — `work` is responsible for that (the collectors gate on
    /// a team-done flag; see `hh_sched::TeamSync`). The jobs own their closures
    /// ([`OwnedJob`]); any still queued when the pool shuts down are executed (and
    /// thereby freed) by the shutdown drain.
    pub fn run_gc_team(&self, helpers: usize, work: Arc<dyn Fn(usize) + Send + Sync>) {
        // Bound the injector backlog: a saturated pool visits the injector rarely,
        // so frequent collections could otherwise pile up thousands of stale
        // helper jobs, each pinning its team's shared state until executed. Past
        // the cap the team simply runs with fewer helpers — a pool that busy
        // would not have drafted any anyway.
        let backlog_cap = 2 * self.pool.queues.len();
        let mut injected = 0;
        for slot in 1..=helpers {
            if self.pool.gc_helper_jobs.load(Ordering::Relaxed) >= backlog_cap {
                break;
            }
            self.pool.gc_helper_jobs.fetch_add(1, Ordering::Relaxed);
            let w = Arc::clone(&work);
            let inner = Arc::clone(&self.pool);
            self.pool.injector.push(OwnedJob::spawn(Box::new(move || {
                // Release the backlog slot on drop, not fall-through: helper
                // work can panic (an injected fault inside a collection), and
                // a skipped decrement would permanently shrink the backlog cap
                // and trip the shutdown drain's leak assertion.
                struct BacklogSlot(Arc<PoolInner>);
                impl Drop for BacklogSlot {
                    fn drop(&mut self) {
                        self.0.gc_helper_jobs.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                let _slot = BacklogSlot(inner);
                w(slot);
            })));
            injected += 1;
        }
        if injected > 0 {
            // Parked workers are exactly the ones we want: they have no mutator
            // work, so draft them all.
            self.pool.wake_all();
        }
    }
}

/// A cheap, clonable handle that can wake every parked worker of a pool. Handed to
/// external coordination layers (the safepoint protocol) that must get parked workers
/// moving again without owning the pool.
///
/// Holds only a `Weak` reference: wakers typically end up stored inside structures
/// the pool itself references (the baselines build their `Safepoints` with one, whose
/// `poll` is the pool's idle hook), and a strong reference would make that loop leak
/// the pool's state. A waker whose pool is gone is a no-op.
#[derive(Clone)]
pub struct PoolWaker {
    inner: std::sync::Weak<PoolInner>,
}

impl PoolWaker {
    /// Wakes all parked workers so they re-scan for work and re-run the idle hook.
    /// No-op if the pool has been dropped.
    pub fn wake_all(&self) {
        if let Some(pool) = self.inner.upgrade() {
            pool.wake_all();
        }
    }
}

/// A pool of worker threads executing fork/join tasks.
pub struct Pool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool with `n_workers` worker threads (at least one).
    pub fn new(n_workers: usize) -> Pool {
        let n = n_workers.max(1);
        let inner = Arc::new(PoolInner {
            queues: (0..n).map(|_| JobQueue::new()).collect(),
            injector: Injector::new(),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(SleepState::default()),
            sleep_cv: Condvar::new(),
            idle_hook: OnceLock::new(),
            rng: (0..n)
                .map(|i| AtomicU64::new(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(i as u64 + 1)))
                .collect(),
            live_workers: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            parks: AtomicUsize::new(0),
            wakes: AtomicUsize::new(0),
            worker_panics: AtomicUsize::new(0),
            gc_helper_jobs: AtomicUsize::new(0),
        });
        let mut handles = Vec::with_capacity(n);
        for index in 0..n {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hh-worker-{index}"))
                    .spawn(move || worker_loop(inner, index))
                    .expect("failed to spawn worker thread"),
            );
        }
        Pool { inner, handles }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// This pool's identity.
    pub fn id(&self) -> PoolId {
        PoolId(Arc::as_ptr(&self.inner) as usize)
    }

    /// Number of workers currently announced as sleepers.
    #[cfg(test)]
    fn sleepers(&self) -> usize {
        self.inner.sleepers.load(Ordering::SeqCst)
    }

    /// Snapshot of the scheduler counters (cumulative over the pool's lifetime).
    pub fn sched_stats(&self) -> SchedStats {
        SchedStats {
            steals: self.inner.steals.load(Ordering::Relaxed),
            parks: self.inner.parks.load(Ordering::Relaxed),
            wakes: self.inner.wakes.load(Ordering::Relaxed),
            worker_panics: self.inner.worker_panics.load(Ordering::Relaxed),
        }
    }

    /// Installs a hook called by idle workers between steal attempts. The stop-the-world
    /// baseline uses this to park idle workers at safepoints during a collection.
    /// Set-once (at runtime construction); subsequent calls are ignored.
    pub fn set_idle_hook(&self, hook: impl Fn(usize) + Send + Sync + 'static) {
        let _ = self.inner.idle_hook.set(Box::new(hook));
    }

    /// A handle that can wake all parked workers (see [`PoolWaker`]).
    pub fn waker(&self) -> PoolWaker {
        PoolWaker {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Runs `f` on some worker thread and blocks the calling (external) thread until it
    /// finishes, returning its result. Panics in `f` are propagated.
    ///
    /// Must not be called from inside the pool's own workers (use [`Worker::join`] for
    /// nested parallelism instead).
    pub fn run<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&Worker) -> R + Send,
    {
        assert!(
            current_index(&self.inner).is_none(),
            "Pool::run called from inside the pool; use Worker::join for nested work"
        );
        let result: Mutex<Option<std::thread::Result<R>>> = Mutex::new(None);
        let inner = &self.inner;
        let job = {
            let slot = &result;
            let f: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let worker = CURRENT_WORKER.with(|c| c.get()).map(|(_, index)| Worker {
                    pool: Arc::clone(inner),
                    index,
                });
                let worker = worker.expect("root job executed off-pool");
                let r = catch_unwind(AssertUnwindSafe(|| f(&worker)));
                *slot.lock() = Some(r);
            });
            // SAFETY: we block on `wait_blocking` below until the job has executed, so
            // the borrows of `result` and `inner` outlive the closure's execution.
            unsafe { HeapJob::new(f) }
        };
        self.inner.injector.push(job.as_job_ref());
        self.inner.wake_one();
        job.wait_blocking();
        let outcome = result
            .lock()
            .take()
            .expect("root job completed without result");
        match outcome {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // A worker cannot join itself: the pool's owner drops it, so a hook or
        // job that could make a worker the last owner is a bug.
        debug_assert!(
            current_index(&self.inner).is_none(),
            "a pool dropped on one of its own workers"
        );
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake_all();
        for h in self.handles.drain(..) {
            // Worker loops run every job under the panic shield, so a worker
            // thread that unwinds anyway is counted, not re-raised in a drop.
            if h.join().is_err() {
                self.inner.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Drain leftover injected jobs. These can only be self-owning GC helper
        // jobs whose team already finished (`Pool::run` blocks until its job has
        // executed, and stack jobs never reach the injector): executing them makes
        // them return immediately and free their own boxes.
        while let Some(job) = self.inner.injector.steal() {
            // SAFETY: removed from the injector exactly once; all worker threads
            // have been joined, so we are the only executor.
            unsafe { job.execute(false) };
        }
        // Every drained helper job has now decremented its backlog slot; a
        // residue would mean a job escaped both the workers and the drain (its
        // closure — and the team state it pins — leaked). Zero the counter
        // unconditionally so a surviving `PoolWaker`/`PoolInner` clone can never
        // observe a stale backlog bound.
        debug_assert_eq!(
            self.inner.gc_helper_jobs.load(Ordering::Relaxed),
            0,
            "helper jobs escaped the shutdown drain"
        );
        self.inner.gc_helper_jobs.store(0, Ordering::Relaxed);
    }
}

/// The worker main loop: run local work, steal, spin briefly, then park.
///
/// Parking protocol (the replacement for the old 1 ms condvar poll): the worker
/// announces itself in `sleepers`, re-checks *all* queues plus the shutdown flag
/// (closing the missed-wakeup window), and only then parks. Every wake source —
/// `wake_one` after a push, `wake_all` on shutdown or from a [`PoolWaker`] — either
/// sees the announcement and deposits a wake token under the sleep lock, or is
/// ordered before the recheck so the recheck finds the work. Tokens are consumed
/// either instead of parking or on wake, so no wake is ever lost.
fn worker_loop(pool: Arc<PoolInner>, index: usize) {
    set_current_worker(&pool, index);
    pool.live_workers.fetch_add(1, Ordering::Relaxed);
    'main: loop {
        // Phase 1: drain local work and steal.
        if let Some(j) = pool.queues[index].pop() {
            // SAFETY: popped from our own deque; executed exactly once.
            unsafe { pool.execute_shielded(j, false) };
            continue 'main;
        }
        if let Some(j) = pool.steal_any(index) {
            // SAFETY: stolen handle; executed exactly once.
            unsafe { pool.execute_shielded(j, true) };
            continue 'main;
        }
        if pool.shutdown.load(Ordering::Acquire) {
            break 'main;
        }

        // Phase 2: bounded spin, re-trying randomized steals and running the idle
        // hook (the stop-the-world baselines poll safepoints there).
        for _ in 0..SPIN_ROUNDS {
            pool.run_idle_hook(index);
            if let Some(j) = pool.steal_any(index) {
                // SAFETY: stolen handle; executed exactly once.
                unsafe { pool.execute_shielded(j, true) };
                continue 'main;
            }
            if pool.shutdown.load(Ordering::Acquire) {
                break 'main;
            }
            std::thread::yield_now();
        }

        // Phase 3: park. Announce first; the SeqCst ordering against a pusher's
        // publish-then-check means either the pusher sees us (token) or we see the
        // pushed work in the recheck.
        pool.sleepers.fetch_add(1, Ordering::SeqCst);
        if pool.has_any_work() || pool.shutdown.load(Ordering::Acquire) {
            pool.sleepers.fetch_sub(1, Ordering::SeqCst);
            continue 'main;
        }
        {
            let mut st = pool.sleep.lock();
            if st.tokens > 0 {
                st.tokens -= 1;
            } else {
                pool.parks.fetch_add(1, Ordering::Relaxed);
                pool.sleep_cv.wait_for(&mut st, PARK_TIMEOUT);
                if st.tokens > 0 {
                    st.tokens -= 1;
                }
            }
        }
        pool.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    pool.live_workers.fetch_sub(1, Ordering::Relaxed);
    clear_current_worker();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The worker of `pool` the calling thread is running on.
    fn current_in(pool: &Pool) -> Worker {
        Worker {
            pool: Arc::clone(&pool.inner),
            index: current_index(&pool.inner).expect("on a pool worker"),
        }
    }

    /// A handle to `pool` for a thread outside it, to draft GC teams from.
    fn outside_worker(pool: &Pool) -> Worker {
        Worker {
            pool: Arc::clone(&pool.inner),
            index: 0,
        }
    }

    /// Fork/join fib. The current worker is re-derived inside each branch (as the
    /// real runtimes do): a *stolen* branch executes on a different worker, and using
    /// a captured parent `Worker` there would push onto the victim's deque from the
    /// thief's thread, violating the Chase–Lev owner-only contract.
    fn fib(pool: &Pool, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        if n < 12 {
            return fib_seq(n);
        }
        let w = current_in(pool);
        let (a, b) = w.join(|| fib(pool, n - 1), || fib(pool, n - 2));
        a + b
    }

    fn fib_seq(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_seq(n - 1) + fib_seq(n - 2)
        }
    }

    /// A fork tree whose leaves do real sequential work *and yield the CPU once*: on
    /// single-core machines (CI containers often have one) a fast owner can otherwise
    /// finish an entire run inside one OS timeslice, so the thief threads are never
    /// scheduled and no steal can be observed. The yield hands them a slice while the
    /// owner's deque is full of pending right branches.
    fn steal_prone_tree(pool: &Pool, depth: usize) -> u64 {
        if depth == 0 {
            let v = std::hint::black_box(fib_seq(18));
            std::thread::yield_now();
            return v % 2;
        }
        let w = current_in(pool);
        let (a, b) = w.join(
            || steal_prone_tree(pool, depth - 1),
            || steal_prone_tree(pool, depth - 1),
        );
        a + b
    }

    #[test]
    fn run_returns_result() {
        let pool = Pool::new(2);
        let r = pool.run(|_| 41 + 1);
        assert_eq!(r, 42);
    }

    /// Regression: helper jobs still queued at shutdown must be executed (and
    /// freed) — by a worker on its way out or by the drop drain — exactly once,
    /// and the backlog bound they occupied must be returned: the counter reads
    /// zero afterwards, never a stale positive that surviving pool-state clones
    /// would mistake for a full backlog.
    #[test]
    fn shutdown_drain_retires_stale_helper_jobs() {
        let pool = Pool::new(1);
        let inner = Arc::clone(&pool.inner);
        let ran = Arc::new(AtomicUsize::new(0));
        let started = std::sync::Barrier::new(2);
        let release = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                pool.run(|_| {
                    started.wait();
                    release.wait();
                })
            });
            started.wait();
            // The only worker is pinned inside the job above, so every drafted
            // helper slot (backlog cap = 2 × pool size) stays on the injector.
            let counter = Arc::clone(&ran);
            outside_worker(&pool).run_gc_team(
                4,
                Arc::new(move |slot| {
                    assert!(slot > 0, "the drafter never runs member 0");
                    counter.fetch_add(1, Ordering::Relaxed);
                }),
            );
            assert_eq!(
                inner.gc_helper_jobs.load(Ordering::Relaxed),
                2,
                "both backlog slots must be occupied while the worker is pinned"
            );
            release.wait();
            holder.join().unwrap();
        });
        drop(pool);
        assert_eq!(
            inner.gc_helper_jobs.load(Ordering::Relaxed),
            0,
            "shutdown must return every backlog slot"
        );
        assert_eq!(
            ran.load(Ordering::Relaxed),
            2,
            "each stale helper job runs exactly once"
        );
    }

    #[test]
    fn nested_join_computes_fib() {
        let pool = Pool::new(4);
        let r = pool.run(|_| fib(&pool, 24));
        assert_eq!(r, 46_368);
    }

    #[test]
    fn join_on_single_worker_pool_still_completes() {
        let pool = Pool::new(1);
        let r = pool.run(|_| fib(&pool, 20));
        assert_eq!(r, 6_765);
    }

    #[test]
    fn many_sequential_runs_reuse_the_pool() {
        let pool = Pool::new(3);
        for i in 0..20u64 {
            let r = pool.run(|w| {
                let (a, b) = w.join(|| i * 2, || i * 3);
                a + b
            });
            assert_eq!(r, i * 5);
        }
    }

    #[test]
    fn join_results_come_from_the_right_branches() {
        let pool = Pool::new(4);
        let (a, b) = pool.run(|w| w.join(|| "left", || 7u32));
        assert_eq!(a, "left");
        assert_eq!(b, 7);
    }

    #[test]
    fn join_context_reports_unstolen_on_one_worker() {
        // On a single-worker pool nothing can be stolen, so every right branch must
        // see `stolen == false`.
        let pool = Pool::new(1);
        let stolen_seen = pool.run(|w| {
            let mut any = false;
            for _ in 0..100 {
                let (_, s) = w.join_context(|| (), |stolen| stolen);
                any |= s;
            }
            any
        });
        assert!(!stolen_seen);
    }

    #[test]
    fn join_context_observes_steals_under_parallel_slack() {
        // With several workers and real, yielding work in both branches, at least one
        // right branch should report having been stolen (retry to absorb scheduling
        // noise; the leaves yield so thieves run even on a single-core machine).
        fn probe(pool: &Pool, depth: usize) -> usize {
            if depth == 0 {
                std::hint::black_box(fib_seq(18));
                std::thread::yield_now();
                return 0;
            }
            let w = current_in(pool);
            let (a, b) = w.join_context(
                || probe(pool, depth - 1),
                |stolen| probe(pool, depth - 1) + usize::from(stolen),
            );
            a + b
        }
        let pool = Pool::new(4);
        for attempt in 0..10 {
            let stolen = pool.run(|_| probe(&pool, 6));
            if stolen > 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(10 * attempt));
        }
        panic!("expected at least one stolen right branch across ten runs");
    }

    #[test]
    fn deep_unbalanced_join_tree() {
        // A degenerate chain of joins stresses the help-while-waiting path.
        fn chain(w: &Worker, depth: usize) -> usize {
            if depth == 0 {
                return 0;
            }
            let (a, b) = w.join(|| chain(w, depth - 1), || 1usize);
            a + b
        }
        let pool = Pool::new(4);
        let r = pool.run(|w| chain(w, 500));
        assert_eq!(r, 500);
    }

    #[test]
    fn steals_happen_with_multiple_workers() {
        // Steal counts depend on OS scheduling; under heavy load (e.g. the whole
        // workspace's tests running in parallel) a single attempt can legitimately see
        // none, so retry a few times before declaring the work-stealing path dead.
        let pool = Pool::new(4);
        for attempt in 0..10 {
            let r = pool.run(|_| steal_prone_tree(&pool, 6));
            assert_eq!(r, 0, "fib_seq(18) is even, so every leaf contributes 0");
            if pool.sched_stats().steals > 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(10 * attempt));
        }
        panic!("expected at least one steal across ten runs");
    }

    #[test]
    fn panics_propagate_from_left_branch() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                let (_a, _b): ((), u32) = w.join(|| panic!("left boom"), || 3);
            })
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        assert_eq!(pool.run(|_| 5), 5);
    }

    #[test]
    fn panics_propagate_from_right_branch() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                let (_a, _b): (u32, ()) = w.join(|| 3, || panic!("right boom"));
            })
        }));
        assert!(result.is_err());
        assert_eq!(pool.run(|_| 6), 6);
    }

    #[test]
    fn both_branches_panic_left_payload_wins() {
        // First-panicking-branch-wins, deterministically: the left branch runs
        // first under work-first scheduling, so when both branches panic the
        // join must resume with the *left* payload (the right one is drained
        // and dropped).
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                let ((), ()) = w.join(|| panic!("left boom"), || panic!("right boom"));
            })
        }));
        let payload = result.expect_err("join with two panicking branches must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "left boom");
        assert_eq!(pool.run(|_| 7), 7);
    }

    #[test]
    fn panicking_left_branch_still_drains_right_sibling() {
        // A panic in one branch must not resume until the sibling has fully
        // completed: the sibling may borrow the joining frame (stolen StackJob),
        // so unwinding past it would be a use-after-free. Observable contract:
        // the right branch runs to completion on every iteration.
        let pool = Pool::new(2);
        let right_ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&right_ran);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(|w| {
                    let ((), ()) = w.join(
                        || panic!("left boom"),
                        || {
                            std::thread::yield_now();
                            c.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                })
            }));
            assert!(result.is_err());
        }
        assert_eq!(
            right_ran.load(Ordering::Relaxed),
            50,
            "every right sibling must run to completion before the panic resumes"
        );
    }

    #[test]
    fn gc_helper_panic_is_contained_and_counted() {
        // A detached GC helper job that panics must be absorbed by the worker
        // shield (counted, backlog slot returned, worker thread survives) —
        // there is no joining frame to propagate it to.
        let pool = Pool::new(2);
        let inner = Arc::clone(&pool.inner);
        outside_worker(&pool).run_gc_team(2, Arc::new(|_| panic!("injected helper fault")));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (pool.sched_stats().worker_panics < 2
            || inner.gc_helper_jobs.load(Ordering::Relaxed) != 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.sched_stats().worker_panics, 2);
        assert_eq!(
            inner.gc_helper_jobs.load(Ordering::Relaxed),
            0,
            "panicked helpers must return their backlog slots"
        );
        // Both workers survived their helper's death: the pool still runs jobs.
        let r = pool.run(|w| {
            let (a, b) = w.join(|| 20u64, || 22u64);
            a + b
        });
        assert_eq!(r, 42);
    }

    /// Polls `cond` (with a short sleep, so the workers under observation get the
    /// CPU) until it holds; the generous bound turns a hang into a failure.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn idle_hook_is_invoked() {
        let pool = Pool::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        pool.set_idle_hook(move |_| {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        wait_until("an idle worker to run the hook", || {
            hits.load(Ordering::Relaxed) > 0
        });
    }

    #[test]
    fn workers_park_when_idle_and_wake_for_work() {
        let pool = Pool::new(3);
        // A push is only promised to deposit a wake token when it observes an
        // announced sleeper; a worker in its spin phase (or between a park timeout
        // and its next announcement) is legitimately not one. So observe every
        // worker announced and parked, push, and look for the token — retrying if a
        // park timeout happened to empty `sleepers` in between.
        for _ in 0..100 {
            wait_until("every worker to park", || {
                pool.sleepers() == 3 && pool.sched_stats().parks > 0
            });
            let wakes = pool.sched_stats().wakes;
            let r = pool.run(|w| {
                let (a, b) = w.join(|| 20u64, || 22u64);
                a + b
            });
            assert_eq!(r, 42, "parked workers must still pick work up");
            if pool.sched_stats().wakes > wakes {
                return;
            }
        }
        panic!("100 pushes at a fully parked pool woke no sleeper");
    }

    #[test]
    fn worker_identity_is_stable_within_a_task() {
        let pool = Pool::new(4);
        pool.run(|w| {
            let before = w.index();
            let (_, _) = w.join(|| (), || ());
            // The frame keeps running on the same worker after a join.
            assert_eq!(w.index(), before);
        });
    }
}
