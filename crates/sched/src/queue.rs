//! Work-stealing deques.
//!
//! The runtime steals work in two places — fork/join jobs ([`JobQueue`], one per pool
//! worker) and GC scan blocks ([`SpanDeque`], one per evacuation slot) — and both are
//! the same lock-free [`Deque`]: Chase & Lev (SPAA 2005) with the C11 orderings of Lê
//! et al. (PPoPP 2013), generic over the [`Slot`] that stores one element. The owner
//! pushes and pops at the bottom (LIFO, which preserves the depth-first execution order
//! that makes hierarchical heaps cheap), while thieves steal from the top (FIFO,
//! stealing the shallowest — largest — task first, the standard work-stealing heuristic
//! the paper's scheduler also uses). Owner operations are a handful of atomic
//! instructions with no locks; thieves synchronize through a single CAS on `top`.
//! `steal_other` is the one randomized victim scan both thief loops use.
//!
//! The buffer grows geometrically when full; retired buffers are kept alive until the
//! deque is dropped (racing thieves may still read them), which bounds the waste to
//! less than the final buffer's size.
//!
//! External (non-worker) threads inject root jobs through the [`Injector`], a small
//! mutex-protected FIFO: injection happens once per `Pool::run`, so it is nowhere near
//! a fast path and the simple structure is easy to show correct.

use crate::job::{JobHeader, JobRef};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, AtomicU64, Ordering};

/// Initial deque capacity (must be a power of two). Forks deeper than this are rare,
/// but growth is supported and tested.
const INITIAL_CAPACITY: usize = 64;

/// One ring-buffer cell of a [`Deque`]: stores one element with Relaxed atomics.
/// Publication is the deque's job — the Release fence before `push`'s `bottom` store,
/// or the Release swap of the buffer pointer after growth.
pub trait Slot {
    /// The element the deque moves.
    type Elem: Copy;

    /// A fresh cell (never read before its first `put`).
    fn empty() -> Self;

    /// Stores `v` (Relaxed).
    fn put(&self, v: Self::Elem);

    /// Loads the element (Relaxed).
    ///
    /// A thief calls this *before* its CAS on `top`, and only a successful CAS licenses
    /// the value. For a multi-word slot, a slow thief racing a wrapped-around owner
    /// `put` can read a *torn* element, but the tear needs the owner to overwrite a
    /// ring index that `top` has already moved past — so that thief's CAS fails and
    /// the value is discarded. Each word is individually atomic, so the torn read
    /// itself is well-defined.
    fn get(&self) -> Self::Elem;
}

impl Slot for AtomicPtr<JobHeader> {
    type Elem = JobRef;

    fn empty() -> Self {
        AtomicPtr::new(std::ptr::null_mut())
    }

    #[inline]
    fn put(&self, job: JobRef) {
        self.store(job.raw() as *mut JobHeader, Ordering::Relaxed);
    }

    #[inline]
    fn get(&self) -> JobRef {
        // SAFETY: a `JobRef` is only a pointer until executed, and executing one is
        // `unsafe` itself; a deque only hands out what `put` stored from live jobs.
        unsafe { JobRef::from_raw(self.load(Ordering::Relaxed)) }
    }
}

/// A two-word payload moved by a [`SpanDeque`] — in practice a GC *scan block*:
/// a span of a to-space chunk whose freshly copied objects still need their pointer
/// fields scanned. The deque treats it as an opaque pair of words.
pub type Span = (u64, u64);

impl Slot for [AtomicU64; 2] {
    type Elem = Span;

    fn empty() -> Self {
        [AtomicU64::new(0), AtomicU64::new(0)]
    }

    #[inline]
    fn put(&self, span: Span) {
        self[0].store(span.0, Ordering::Relaxed);
        self[1].store(span.1, Ordering::Relaxed);
    }

    #[inline]
    fn get(&self) -> Span {
        (
            self[0].load(Ordering::Relaxed),
            self[1].load(Ordering::Relaxed),
        )
    }
}

/// A fixed-capacity ring buffer of slots. Never shrinks; replaced wholesale on growth.
struct Buffer<S> {
    slots: Box<[S]>,
    mask: usize,
}

impl<S: Slot> Buffer<S> {
    fn new(capacity: usize) -> Box<Buffer<S>> {
        debug_assert!(capacity.is_power_of_two());
        Box::new(Buffer {
            slots: (0..capacity).map(|_| S::empty()).collect(),
            mask: capacity - 1,
        })
    }

    #[inline]
    fn at(&self, index: isize) -> &S {
        &self.slots[index as usize & self.mask]
    }
}

/// A lock-free Chase–Lev work-stealing deque of `S::Elem`s.
///
/// Contract: [`Deque::push`] and [`Deque::pop`] may only be called by the owner (one
/// thread at a time, with a happens-before edge between successive owners);
/// [`Deque::steal`] may be called by any thread. Each pushed element is removed
/// exactly once (by pop or by steal), never duplicated, never lost.
pub struct Deque<S: Slot> {
    /// Next slot the owner will push into. Only the owner writes it.
    bottom: AtomicIsize,
    /// Next slot thieves will steal from. Advanced by CAS.
    top: AtomicIsize,
    /// Current ring buffer. Only the owner replaces it (on growth).
    buffer: AtomicPtr<Buffer<S>>,
    /// Retired buffers, kept alive until drop because in-flight thieves may still read
    /// them. Geometric growth keeps the total below one final-buffer's worth.
    /// The `Box` is load-bearing despite clippy's advice: thieves hold `&Buffer`
    /// obtained from the raw `buffer` pointer, so the `Buffer` struct itself must not
    /// move when the retirement vector grows.
    #[allow(clippy::vec_box)]
    retired: Mutex<Vec<Box<Buffer<S>>>>,
}

/// A worker's fork/join deque of one-word [`JobRef`]s.
pub type JobQueue = Deque<AtomicPtr<JobHeader>>;

/// An evacuation slot's deque of two-word [`Span`]s (GC scan blocks).
pub type SpanDeque = Deque<[AtomicU64; 2]>;

impl<S: Slot> Default for Deque<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Slot> Deque<S> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        Deque {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Box::into_raw(Buffer::new(INITIAL_CAPACITY))),
            retired: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn buffer(&self, order: Ordering) -> &Buffer<S> {
        // SAFETY: the buffer pointer is always valid: it is only replaced by the owner,
        // and old buffers are retired (kept alive), not freed, until `drop`.
        unsafe { &*self.buffer.load(order) }
    }

    /// Owner operation: pushes an element at the bottom.
    pub fn push(&self, v: S::Elem) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= self.buffer(Ordering::Relaxed).slots.len() as isize {
            self.grow(b, t);
        }
        self.buffer(Ordering::Relaxed).at(b).put(v);
        // Publish the slot write before making it visible to thieves.
        fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Owner operation: doubles the buffer, copying the live range `[t, b)`.
    #[cold]
    fn grow(&self, b: isize, t: isize) {
        let old = self.buffer(Ordering::Relaxed);
        let new = Buffer::<S>::new(old.slots.len() * 2);
        for i in t..b {
            new.at(i).put(old.at(i).get());
        }
        let old_ptr = self.buffer.swap(Box::into_raw(new), Ordering::Release);
        // SAFETY: old_ptr came from Box::into_raw in `new`/`grow` and is retired, not
        // freed, because thieves may still hold a reference to it.
        self.retired.lock().push(unsafe { Box::from_raw(old_ptr) });
    }

    /// Owner operation: pops the most recently pushed element.
    pub fn pop(&self) -> Option<S::Elem> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.buffer(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        // The SeqCst fence orders the `bottom` store against the `top` load below —
        // the flag-and-read handshake with concurrent thieves.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let v = buf.at(b).get();
        if t < b {
            return Some(v);
        }
        // Last element: race the thieves for it with a CAS on top.
        let won = self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        self.bottom.store(b + 1, Ordering::Relaxed);
        won.then_some(v)
    }

    /// Thief operation: steals the oldest element. Retries internally on CAS
    /// contention and returns `None` only when the deque is (momentarily) empty.
    pub fn steal(&self) -> Option<S::Elem> {
        loop {
            let t = self.top.load(Ordering::Acquire);
            // Order the `top` load before the `bottom` load (pairs with the fence in
            // `pop`).
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            // Read the slot *before* the CAS: a successful CAS licenses the value read
            // (see `Slot::get`).
            let v = self.buffer(Ordering::Acquire).at(t).get();
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Some(v);
            }
            // Lost the race to another thief (or to the owner's pop); try again.
            std::hint::spin_loop();
        }
    }

    /// Number of queued elements (racy, for heuristics and tests). SeqCst loads: the
    /// collector's termination check reads every deque after all members announced
    /// themselves idle, when no new element can appear.
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        (b - t).max(0) as usize
    }

    /// True if no elements are queued (racy; see [`Deque::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<S: Slot> Drop for Deque<S> {
    fn drop(&mut self) {
        // SAFETY: exclusive access in drop; the pointer came from Box::into_raw.
        drop(unsafe { Box::from_raw(*self.buffer.get_mut()) });
        // Retired buffers drop with the Vec. Elements are plain values or pointers
        // owned elsewhere (stack frames / `Pool::run` boxes); nothing to free.
    }
}

/// The randomized victim scan of both thief loops (pool workers and GC members):
/// one xorshift64 step of the caller's private `rng`, then one steal attempt on every
/// deque but `me`'s, starting from a random victim so contending thieves spread out
/// instead of converging on the same victims. Returns the victim's index and the
/// stolen element, or `None` if every other deque was (momentarily) empty.
pub(crate) fn steal_other<S: Slot>(
    deques: &[Deque<S>],
    me: usize,
    rng: &mut u64,
) -> Option<(usize, S::Elem)> {
    let n = deques.len();
    if n <= 1 {
        return None;
    }
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    let start = (x % n as u64) as usize;
    (0..n)
        .map(|k| (start + k) % n)
        .filter(|&victim| victim != me)
        .find_map(|victim| Some((victim, deques[victim].steal()?)))
}

/// The mutex-protected FIFO through which external threads inject root jobs.
#[derive(Default)]
pub struct Injector {
    inner: Mutex<VecDeque<JobRef>>,
}

impl Injector {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a root job (called from external threads).
    pub fn push(&self, job: JobRef) {
        self.inner.lock().push_back(job);
    }

    /// Dequeues the oldest root job (called by workers).
    pub fn steal(&self) -> Option<JobRef> {
        self.inner.lock().pop_front()
    }

    /// True if no root jobs are waiting (racy, for sleep rechecks only).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::HeapJob;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// A boxed marker job that bumps a counter when executed; the boxes are kept alive
    /// by the caller for the duration of the test (`JobRef`s point into them, so the
    /// jobs must not move — hence `Box` despite clippy's `vec_box` advice).
    #[allow(clippy::vec_box)]
    fn marker_jobs(n: usize, counter: &Arc<AtomicUsize>) -> Vec<Box<HeapJob>> {
        (0..n)
            .map(|_| {
                let c = Arc::clone(counter);
                unsafe {
                    HeapJob::new(Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }))
                }
            })
            .collect()
    }

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let q = JobQueue::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs = marker_jobs(3, &counter);
        for j in &jobs {
            q.push(j.as_job_ref());
        }
        assert_eq!(q.len(), 3);
        // Thief takes the oldest (job 0); owner takes the newest (job 2).
        let stolen = q.steal().unwrap();
        assert!(stolen.points_to(jobs[0].as_job_ref().raw()));
        let popped = q.pop().unwrap();
        assert!(popped.points_to(jobs[2].as_job_ref().raw()));
        let remaining = q.pop().unwrap();
        assert!(remaining.points_to(jobs[1].as_job_ref().raw()));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.steal().is_none());
    }

    #[test]
    fn growth_preserves_every_job_in_order() {
        let q = JobQueue::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let n = INITIAL_CAPACITY * 8 + 3; // force three growths
        let jobs = marker_jobs(n, &counter);
        for j in &jobs {
            q.push(j.as_job_ref());
        }
        assert_eq!(q.len(), n);
        // Owner pops everything back in LIFO order.
        for k in (0..n).rev() {
            let popped = q.pop().unwrap();
            assert!(popped.points_to(jobs[k].as_job_ref().raw()), "index {k}");
        }
        assert!(q.pop().is_none());
    }

    /// The satellite stress test: one owner thread interleaving pushes and pops with
    /// several concurrent thieves, across multiple buffer growths. Every job must be
    /// executed exactly once — no duplication, no loss.
    #[test]
    fn stress_concurrent_pop_and_steal_never_duplicates_or_loses_jobs() {
        const N: usize = 50_000;
        const THIEVES: usize = 5;
        let q = Arc::new(JobQueue::new());
        let executed = Arc::new(AtomicUsize::new(0));
        let jobs = Arc::new(marker_jobs(N, &executed));
        let stop = Arc::new(AtomicUsize::new(0));

        let mut thieves = Vec::new();
        for _ in 0..THIEVES {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            let _jobs = Arc::clone(&jobs); // keep the boxes alive in every thread
            thieves.push(std::thread::spawn(move || {
                let mut taken = 0usize;
                loop {
                    match q.steal() {
                        Some(job) => {
                            unsafe { job.execute(true) };
                            taken += 1;
                        }
                        None => {
                            if stop.load(Ordering::Acquire) == 1 {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                taken
            }));
        }

        // Owner: push in bursts (forcing growth), pop in bursts (racing the thieves
        // for the tail), like a join-heavy worker would.
        let mut popped = 0usize;
        for (i, j) in jobs.iter().enumerate() {
            q.push(j.as_job_ref());
            if i % 3 == 0 {
                if let Some(job) = q.pop() {
                    unsafe { job.execute(false) };
                    popped += 1;
                }
            }
        }
        while let Some(job) = q.pop() {
            unsafe { job.execute(false) };
            popped += 1;
        }
        stop.store(1, Ordering::Release);
        let stolen: usize = thieves.into_iter().map(|h| h.join().unwrap()).sum();

        assert_eq!(popped + stolen, N, "every job removed exactly once");
        assert_eq!(
            executed.load(Ordering::SeqCst),
            N,
            "every job executed exactly once"
        );
    }

    #[test]
    fn span_deque_lifo_owner_fifo_thief_and_growth() {
        let q = SpanDeque::new();
        let n = INITIAL_CAPACITY * 4 + 5; // force growth
        for k in 0..n as u64 {
            q.push((k, k.wrapping_mul(0x9E37_79B9)));
        }
        // Thief takes the oldest.
        assert_eq!(q.steal(), Some((0, 0)));
        // Owner takes the newest, with the paired word intact.
        let (a, b) = q.pop().unwrap();
        assert_eq!(a, n as u64 - 1);
        assert_eq!(b, a.wrapping_mul(0x9E37_79B9));
        // Drain the rest; every element appears exactly once.
        let mut seen = vec![false; n];
        seen[0] = true;
        seen[n - 1] = true;
        while let Some((a, b)) = q.pop() {
            assert_eq!(b, a.wrapping_mul(0x9E37_79B9), "torn pair");
            assert!(!seen[a as usize], "duplicate {a}");
            seen[a as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(q.is_empty());
    }

    /// Owner pushing/popping against several thieves: every span removed exactly
    /// once, and no thief ever observes a torn (mismatched) pair as a *returned*
    /// value — the license argument for two-word elements.
    #[test]
    fn span_deque_stress_no_loss_duplication_or_tearing() {
        const N: u64 = 40_000;
        const THIEVES: usize = 4;
        let q = Arc::new(SpanDeque::new());
        let stop = Arc::new(AtomicUsize::new(0));
        let mut thieves = Vec::new();
        for _ in 0..THIEVES {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            thieves.push(std::thread::spawn(move || {
                let mut taken = Vec::new();
                loop {
                    match q.steal() {
                        Some((a, b)) => {
                            assert_eq!(b, a.wrapping_mul(0x9E37_79B9), "torn steal");
                            taken.push(a);
                        }
                        None => {
                            if stop.load(Ordering::Acquire) == 1 {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                taken
            }));
        }
        let mut mine = Vec::new();
        for k in 0..N {
            q.push((k, k.wrapping_mul(0x9E37_79B9)));
            if k % 3 == 0 {
                if let Some((a, b)) = q.pop() {
                    assert_eq!(b, a.wrapping_mul(0x9E37_79B9), "torn pop");
                    mine.push(a);
                }
            }
        }
        while let Some((a, b)) = q.pop() {
            assert_eq!(b, a.wrapping_mul(0x9E37_79B9));
            mine.push(a);
        }
        stop.store(1, Ordering::Release);
        for h in thieves {
            mine.extend(h.join().unwrap());
        }
        mine.sort_unstable();
        let expect: Vec<u64> = (0..N).collect();
        assert_eq!(mine, expect, "every span exactly once");
    }

    /// The shared victim scan: with one element in one other deque it finds that
    /// element from every rng state (the scan starts at every index over the seeds
    /// tried), and it never takes the caller's own element.
    #[test]
    fn steal_other_finds_a_lone_victim_and_skips_the_caller() {
        for n in 1..=5usize {
            let deques: Vec<SpanDeque> = (0..n).map(|_| SpanDeque::new()).collect();
            for me in 0..n {
                let mut starts = vec![false; n];
                for seed in 0..64u64 {
                    deques[me].push((me as u64, seed));
                    let mut rng = seed;
                    assert_eq!(
                        steal_other(&deques, me, &mut rng),
                        None,
                        "stole own element"
                    );
                    assert_eq!(deques[me].pop(), Some((me as u64, seed)));
                    for victim in (0..n).filter(|&v| v != me) {
                        deques[victim].push((victim as u64, seed));
                        let mut rng = seed;
                        let got = steal_other(&deques, me, &mut rng);
                        assert_eq!(got, Some((victim, (victim as u64, seed))), "n={n} me={me}");
                        starts[(rng % n as u64) as usize] = true;
                    }
                    assert!(deques.iter().all(|d| d.is_empty()));
                }
                assert!(
                    n == 1 || starts.iter().all(|&s| s),
                    "n={n}: a start index was never tried"
                );
            }
        }
    }

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs = marker_jobs(2, &counter);
        inj.push(jobs[0].as_job_ref());
        inj.push(jobs[1].as_job_ref());
        assert!(!inj.is_empty());
        assert!(inj.steal().unwrap().points_to(jobs[0].as_job_ref().raw()));
        assert!(inj.steal().unwrap().points_to(jobs[1].as_job_ref().raw()));
        assert!(inj.steal().is_none());
        assert!(inj.is_empty());
    }
}
