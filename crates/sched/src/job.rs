//! Jobs: execute-once closures exposed to the scheduler through one-word handles.
//!
//! The v2 scheduler has two job representations, chosen by allocation cost:
//!
//! * [`StackJob`] — the right branch of a `join`. It lives in the **stack frame of the
//!   forking `join` call**, so the common (unstolen) fast path allocates nothing on the
//!   heap: pushing a fork costs one deque publication of a [`JobRef`] plus one atomic
//!   store. The frame is kept alive until the branch has finished (stolen or not), so
//!   the pointer inside the `JobRef` never dangles.
//! * [`HeapJob`] — a root task injected by `Pool::run` from an external thread. These
//!   are rare (one per `run`), so they are boxed and carry a blocking latch the
//!   external thread can sleep on.
//!
//! A [`JobRef`] is the single word the deques move around: a pointer to a [`JobHeader`]
//! whose first field is the job's execute function. Executing a `JobRef` consumes it;
//! the deque protocol guarantees each pushed `JobRef` is removed (and therefore
//! executed) exactly once.

use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};

/// The type-erased prefix every job representation starts with.
///
/// `execute` receives the header pointer plus the *steal flag*: `true` when the job
/// was taken by a thief (a worker other than the one that pushed it), `false` when the
/// pushing worker reclaimed it from its own deque. Upper layers use the flag to do
/// expensive bookkeeping — like creating a child heap — only when a steal actually
/// happened.
#[repr(C)]
pub struct JobHeader {
    execute: unsafe fn(*const JobHeader, bool),
}

/// A one-word, type-erased handle to a job, as stored in the work-stealing deques.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct JobRef {
    ptr: *const JobHeader,
}

// SAFETY: a JobRef is a plain pointer moved between threads by the deque; the pointee
// is either a StackJob whose closure is `Send` (enforced by `StackJob::as_job_ref`) or
// a HeapJob whose boxed closure is `Send` (enforced by `HeapJob::new`).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Runs the job. `stolen` reports whether the caller obtained the job by stealing
    /// it from another worker's deque (see [`JobHeader`]).
    ///
    /// # Safety
    ///
    /// The `JobRef` must have been produced by [`StackJob::as_job_ref`] or
    /// [`HeapJob::as_job_ref`], must be executed at most once, and the underlying job
    /// must still be alive (for stack jobs: the forking frame has not returned).
    #[inline]
    pub unsafe fn execute(self, stolen: bool) {
        ((*self.ptr).execute)(self.ptr, stolen)
    }

    /// True if this handle points at `header` (used by the owner to recognize its own
    /// reclaimed right branch).
    #[inline]
    pub(crate) fn points_to(self, header: *const JobHeader) -> bool {
        std::ptr::eq(self.ptr, header)
    }

    /// The raw header pointer (for deque slot storage).
    #[inline]
    pub(crate) fn raw(self) -> *const JobHeader {
        self.ptr
    }

    /// Rebuilds a handle from a raw header pointer.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from [`JobRef::raw`] on a live handle.
    #[inline]
    pub(crate) unsafe fn from_raw(ptr: *const JobHeader) -> JobRef {
        JobRef { ptr }
    }
}

const PENDING: u32 = 0;
const DONE: u32 = 2;

/// A stack-resident right branch of a fork: the closure, a result slot, and a
/// completion latch, all living in the forking `join`'s frame.
///
/// The closure receives the steal flag described on [`JobHeader`].
pub struct StackJob<'a, F, R>
where
    F: FnOnce(bool) -> R + Send,
    R: Send,
{
    header: JobHeader,
    state: AtomicU32,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    _frame: PhantomData<&'a ()>,
}

// SAFETY: the thief thread accesses `func` (to take and run it) and `result` (to store
// the outcome); both transfers are one-way and ordered by the deque removal and the
// Release store of `state`. `F: Send` and `R: Send` make those transfers sound.
unsafe impl<F, R> Sync for StackJob<'_, F, R>
where
    F: FnOnce(bool) -> R + Send,
    R: Send,
{
}

impl<'a, F, R> StackJob<'a, F, R>
where
    F: FnOnce(bool) -> R + Send,
    R: Send,
{
    /// Wraps `f` into a stack job. Nothing is heap-allocated.
    pub fn new(f: F) -> Self {
        StackJob {
            header: JobHeader {
                execute: Self::execute_erased,
            },
            state: AtomicU32::new(PENDING),
            func: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            _frame: PhantomData,
        }
    }

    /// The header address, for [`JobRef::points_to`].
    #[inline]
    pub(crate) fn header_ptr(&self) -> *const JobHeader {
        &self.header
    }

    /// Produces the deque handle for this job.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the job outlives every execution of the handle: the
    /// forking frame must not return until [`StackJob::is_done`] holds or the handle
    /// has been reclaimed un-executed from the local deque and run via
    /// [`StackJob::run_inline`]. `Worker::join` upholds this by never returning — even
    /// when the inline branch panics — before the right branch has finished.
    #[inline]
    pub unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            ptr: self.header_ptr(),
        }
    }

    unsafe fn execute_erased(ptr: *const JobHeader, stolen: bool) {
        let job = &*(ptr as *const Self);
        job.run(stolen);
    }

    /// Runs the closure after the owner reclaimed the handle from its own deque.
    ///
    /// # Safety
    ///
    /// The caller must hold the (unique) reclaimed `JobRef` for this job, so nobody
    /// else can execute it concurrently.
    #[inline]
    pub unsafe fn run_inline(&self, stolen: bool) {
        self.run(stolen);
    }

    /// SAFETY (internal): called exactly once, by whoever removed the job's unique
    /// `JobRef` from a deque — mutual exclusion comes from the deque, not from here.
    unsafe fn run(&self, stolen: bool) {
        let f = (*self.func.get())
            .take()
            .expect("StackJob executed more than once");
        let outcome = catch_unwind(AssertUnwindSafe(|| f(stolen)));
        *self.result.get() = Some(outcome);
        self.state.store(DONE, Ordering::Release);
    }

    /// True once the closure has finished (its result is published).
    #[inline]
    pub fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == DONE
    }

    /// Takes the branch's outcome.
    ///
    /// # Safety
    ///
    /// Must be called at most once, after [`StackJob::is_done`] returned `true`.
    pub unsafe fn take_result(&self) -> std::thread::Result<R> {
        debug_assert!(self.is_done());
        (*self.result.get())
            .take()
            .expect("StackJob result taken twice or before completion")
    }
}

/// A boxed root task injected from outside the pool, with a latch the external thread
/// blocks on. One of these is allocated per `Pool::run`, never per `join`.
pub struct HeapJob {
    header: JobHeader,
    func: UnsafeCell<Option<Box<dyn FnOnce() + Send>>>,
    latch: BlockingLatch,
}

// SAFETY: `func` is taken exactly once by the executing worker (exclusivity from the
// injector queue); the latch is internally synchronized.
unsafe impl Sync for HeapJob {}
unsafe impl Send for HeapJob {}

impl HeapJob {
    /// Boxes `f` into a root job.
    ///
    /// # Safety
    ///
    /// The closure's borrows are lifetime-erased; the caller must not let them expire
    /// before the job has executed (`Pool::run` blocks on [`HeapJob::wait_blocking`]).
    pub unsafe fn new<'a>(f: Box<dyn FnOnce() + Send + 'a>) -> Box<HeapJob> {
        let f: Box<dyn FnOnce() + Send + 'static> = std::mem::transmute(f);
        Box::new(HeapJob {
            header: JobHeader {
                execute: Self::execute_erased,
            },
            func: UnsafeCell::new(Some(f)),
            latch: BlockingLatch::new(),
        })
    }

    /// The deque handle. The box must stay alive until the job has executed; the
    /// executing worker does **not** free it (the `Pool::run` frame owns it and drops
    /// it after `wait_blocking` returns).
    pub fn as_job_ref(&self) -> JobRef {
        JobRef { ptr: &self.header }
    }

    unsafe fn execute_erased(ptr: *const JobHeader, _stolen: bool) {
        let job = &*(ptr as *const HeapJob);
        let f = (*job.func.get())
            .take()
            .expect("HeapJob executed more than once");
        f();
        job.latch.set();
    }

    /// Blocks the calling (external) thread until the job has executed.
    pub fn wait_blocking(&self) {
        self.latch.wait();
    }

    /// True once the job has executed.
    pub fn is_done(&self) -> bool {
        self.latch.probe()
    }
}

/// A fire-and-forget boxed job that **frees itself** after execution. Used for GC
/// team helper jobs (`Worker::run_gc_team`): the spawner does not wait for the job, so
/// nobody external can own the box — execution reconstitutes and drops it.
///
/// Every spawned `OwnedJob` must eventually be executed exactly once; the pool
/// guarantees this by draining the injector (executing leftovers) when it shuts
/// down.
#[repr(C)]
pub struct OwnedJob {
    /// Read only through the type-erased `JobRef` pointer (`repr(C)` pins it at
    /// offset 0), never as a named field.
    #[allow(dead_code)]
    header: JobHeader,
    func: UnsafeCell<Option<Box<dyn FnOnce() + Send>>>,
}

// SAFETY: `func` is taken exactly once by the executing worker; exclusivity comes
// from the queue protocol (each JobRef removed exactly once).
unsafe impl Sync for OwnedJob {}
unsafe impl Send for OwnedJob {}

impl OwnedJob {
    /// Boxes `f` and leaks it into a [`JobRef`]; executing the ref runs `f` and then
    /// frees the box.
    pub fn spawn(f: Box<dyn FnOnce() + Send + 'static>) -> JobRef {
        let job = Box::new(OwnedJob {
            header: JobHeader {
                execute: Self::execute_erased,
            },
            func: UnsafeCell::new(Some(f)),
        });
        JobRef {
            ptr: Box::into_raw(job) as *const JobHeader,
        }
    }

    unsafe fn execute_erased(ptr: *const JobHeader, _stolen: bool) {
        // Reconstitute the box; dropped (freeing the job) when this frame exits.
        let job = Box::from_raw(ptr as *mut OwnedJob);
        let f = (*job.func.get())
            .take()
            .expect("OwnedJob executed more than once");
        f();
    }
}

/// A set-once latch an external thread can sleep on (mutex + condvar; workers never
/// block here — they help instead).
struct BlockingLatch {
    done: Mutex<bool>,
    cv: Condvar,
}

impl BlockingLatch {
    fn new() -> Self {
        BlockingLatch {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn set(&self) {
        let mut g = self.done.lock();
        *g = true;
        self.cv.notify_all();
    }

    fn probe(&self) -> bool {
        *self.done.lock()
    }

    fn wait(&self) {
        let mut g = self.done.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn stack_job_runs_inline_and_reports_result() {
        let job = StackJob::new(|stolen| {
            assert!(!stolen);
            40 + 2
        });
        assert!(!job.is_done());
        unsafe { job.run_inline(false) };
        assert!(job.is_done());
        match unsafe { job.take_result() } {
            Ok(v) => assert_eq!(v, 42),
            Err(_) => panic!("unexpected panic"),
        }
    }

    #[test]
    fn stack_job_transports_panics() {
        let job: StackJob<'_, _, ()> = StackJob::new(|_| panic!("boom"));
        unsafe { job.as_job_ref().execute(true) };
        assert!(job.is_done());
        assert!(unsafe { job.take_result() }.is_err());
    }

    #[test]
    fn stack_job_sees_the_steal_flag() {
        let job = StackJob::new(|stolen| stolen);
        unsafe { job.as_job_ref().execute(true) };
        assert!(unsafe { job.take_result() }.unwrap());
    }

    #[test]
    fn stack_job_executes_across_threads() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let job = StackJob::new(move |stolen| {
            assert!(stolen);
            c2.fetch_add(1, Ordering::SeqCst);
        });
        let job_ref = unsafe { job.as_job_ref() };
        std::thread::scope(|s| {
            s.spawn(move || unsafe { job_ref.execute(true) });
        });
        assert!(job.is_done());
        assert_eq!(count.load(Ordering::SeqCst), 1);
        unsafe { job.take_result() }.unwrap();
    }

    #[test]
    fn heap_job_latch_wakes_blocked_waiter() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        let job = unsafe {
            HeapJob::new(Box::new(move || {
                h2.fetch_add(1, Ordering::SeqCst);
            }))
        };
        assert!(!job.is_done());
        let job_ref = job.as_job_ref();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                unsafe { job_ref.execute(false) };
            });
            job.wait_blocking();
        });
        assert!(job.is_done());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn heap_job_wait_after_completion_is_immediate() {
        let job = unsafe { HeapJob::new(Box::new(|| {})) };
        unsafe { job.as_job_ref().execute(false) };
        job.wait_blocking();
        assert!(job.is_done());
    }
}
