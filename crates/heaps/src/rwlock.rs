//! The per-heap readers–writer lock.
//!
//! The paper's algorithms acquire and release heap locks in non-lexically-scoped ways
//! (`writePromote` locks a whole path of heaps bottom-up and unlocks it top-down), so
//! [`HeapRwLock`] offers explicit `lock_shared` / `unlock_shared` / `lock_exclusive` /
//! `unlock_exclusive` operations — the direct analogue of the paper's
//! `lock(h, {READ, WRITE})` / `unlock(h)`. (`findMaster`'s "return with the READ lock
//! held" is wrapped in an RAII guard one layer up, in `hh-core`.)
//!
//! The whole lock state is **one atomic word**, so an uncontended acquire/release
//! pair is two read-modify-writes and no syscall:
//!
//! ```text
//! bit 0  WRITER          held in WRITE mode
//! bit 1  WRITER_WAITING  a writer is waiting: new readers are refused
//! bit 2  PARKED          some thread sleeps on the condvar: releases must notify
//! bits 3.. reader count  (one READER unit per READ acquisition)
//! ```
//!
//! Writers are given preference: once a writer is waiting, new readers block, so a
//! promotion (a writer) is not starved by a stream of `findMaster` readers.
//!
//! A contended acquire spins briefly, then yields, then parks on a mutex + condvar.
//! Only the park path and a release that observed `PARKED` touch the mutex. Acquiring
//! CASes are `Acquire` and releasing RMWs `Release`; the `Relaxed` ones only set or
//! clear a flag that publishes no data. DESIGN.md §6.6 has the ordering of every
//! read-modify-write and the lost-wakeup argument.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};

const WRITER: usize = 1;
const WRITER_WAITING: usize = 1 << 1;
const PARKED: usize = 1 << 2;
const READER: usize = 1 << 3;
const READERS: usize = !(READER - 1);

/// Busy-wait attempts before a contended acquire starts yielding: a running holder
/// (critical sections are a few hundred nanoseconds) releases well within them.
const SPIN_LIMIT: u32 = 64;
/// `yield_now` attempts before parking: lets a preempted holder run when workers
/// outnumber CPUs without paying a futex round trip.
const YIELD_LIMIT: u32 = 16;

/// An explicitly lock/unlock-style readers–writer lock.
#[derive(Debug, Default)]
pub struct HeapRwLock {
    state: AtomicUsize,
    /// Guards `PARKED` and the condvar; never taken on an uncontended path.
    parking: Mutex<()>,
    unparked: Condvar,
}

impl HeapRwLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the lock in READ (shared) mode. Blocks while a writer holds or awaits it.
    #[inline]
    pub fn lock_shared(&self) {
        if !self.try_lock_shared() {
            self.lock_contended(false);
        }
    }

    /// Attempts to acquire the lock in READ mode without blocking.
    #[inline]
    pub fn try_lock_shared(&self) -> bool {
        // A stale value here only costs a failed CAS, which returns the fresh one.
        let mut s = self.state.load(Ordering::Relaxed);
        while s & (WRITER | WRITER_WAITING) == 0 {
            match self.state.compare_exchange_weak(
                s,
                s + READER,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(cur) => s = cur,
            }
        }
        false
    }

    /// Releases one READ acquisition.
    ///
    /// # Panics
    /// Panics if the lock is not held in READ mode (a lock-discipline bug).
    #[inline]
    pub fn unlock_shared(&self) {
        let prev = self.state.fetch_sub(READER, Ordering::Release);
        assert!(
            prev & READERS != 0,
            "unlock_shared without matching lock_shared"
        );
        // Only the last reader out can unblock anyone (a waiting writer).
        if prev & PARKED != 0 && prev & READERS == READER {
            self.unpark_all();
        }
    }

    /// Acquires the lock in WRITE (exclusive) mode.
    #[inline]
    pub fn lock_exclusive(&self) {
        if self
            .state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_contended(true);
        }
    }

    /// Attempts to acquire the lock in WRITE mode without blocking.
    pub fn try_lock_exclusive(&self) -> bool {
        let mut s = self.state.load(Ordering::Relaxed);
        while s & (WRITER | READERS) == 0 {
            // Taking the lock retires the waiting-writer announcement; writers
            // still waiting re-announce on their next attempt.
            match self.state.compare_exchange_weak(
                s,
                (s | WRITER) & !WRITER_WAITING,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(cur) => s = cur,
            }
        }
        false
    }

    /// Releases a WRITE acquisition.
    ///
    /// # Panics
    /// Panics if the lock is not held in WRITE mode.
    #[inline]
    pub fn unlock_exclusive(&self) {
        let prev = self.state.fetch_and(!WRITER, Ordering::Release);
        assert!(
            prev & WRITER != 0,
            "unlock_exclusive without matching lock_exclusive"
        );
        if prev & PARKED != 0 {
            self.unpark_all();
        }
    }

    /// True if any thread currently holds the lock in either mode (for assertions).
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Acquire) & (WRITER | READERS) != 0
    }

    /// One acquisition attempt of the contended path; a writer first (re-)announces
    /// itself so that new readers are refused while it waits.
    fn try_acquire(&self, exclusive: bool) -> bool {
        if !exclusive {
            return self.try_lock_shared();
        }
        if self.state.load(Ordering::Relaxed) & WRITER_WAITING == 0 {
            self.state.fetch_or(WRITER_WAITING, Ordering::Relaxed);
        }
        self.try_lock_exclusive()
    }

    /// Contended acquire: bounded spin, then `yield_now`, then park.
    #[cold]
    fn lock_contended(&self, exclusive: bool) {
        let mut attempts = 0u32;
        while !self.try_acquire(exclusive) {
            attempts += 1;
            if attempts <= SPIN_LIMIT {
                std::hint::spin_loop();
            } else if attempts <= SPIN_LIMIT + YIELD_LIMIT {
                std::thread::yield_now();
            } else {
                // `PARKED` is set under the parking mutex and the acquisition is
                // re-tried before waiting: a release ordered before the `fetch_or`
                // is seen by the retry, and one ordered after it sees `PARKED` and
                // must take the mutex — which this thread holds until `wait`
                // releases it — before it can notify.
                let mut parked = self.parking.lock();
                self.state.fetch_or(PARKED, Ordering::Relaxed);
                if self.try_acquire(exclusive) {
                    return;
                }
                self.unparked.wait(&mut parked);
            }
        }
    }

    /// Wakes every parked thread (they re-run their acquisition and re-park if it
    /// fails). Called only by a release that observed `PARKED`.
    #[cold]
    fn unpark_all(&self) {
        let _parked = self.parking.lock();
        self.state.fetch_and(!PARKED, Ordering::Relaxed);
        self.unparked.notify_all();
    }

    /// True if some thread sleeps waiting for this lock. Lets a test hold the lock
    /// and know, without sleeping, that a contender has reached it.
    pub fn has_parked(&self) -> bool {
        self.state.load(Ordering::Relaxed) & PARKED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn shared_then_exclusive() {
        let l = HeapRwLock::new();
        l.lock_shared();
        l.lock_shared();
        assert!(!l.try_lock_exclusive());
        l.unlock_shared();
        assert!(!l.try_lock_exclusive());
        l.unlock_shared();
        assert!(l.try_lock_exclusive());
        assert!(!l.try_lock_shared());
        l.unlock_exclusive();
        assert!(!l.is_locked());
    }

    #[test]
    #[should_panic(expected = "unlock_shared")]
    fn unlock_without_lock_panics() {
        let l = HeapRwLock::new();
        l.unlock_shared();
    }

    #[test]
    #[should_panic(expected = "unlock_exclusive")]
    fn unlock_exclusive_without_lock_panics() {
        let l = HeapRwLock::new();
        l.unlock_exclusive();
    }

    #[test]
    fn writers_exclude_each_other() {
        let l = Arc::new(HeapRwLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let counter = Arc::clone(&counter);
            let max_seen = Arc::clone(&max_seen);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    l.lock_exclusive();
                    let c = counter.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(c, Ordering::SeqCst);
                    std::thread::yield_now();
                    counter.fetch_sub(1, Ordering::SeqCst);
                    l.unlock_exclusive();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "two writers inside the lock"
        );
    }

    #[test]
    fn readers_share_writers_exclude() {
        let l = Arc::new(HeapRwLock::new());
        let readers_inside = Arc::new(AtomicUsize::new(0));
        let writer_inside = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8 {
            let l = Arc::clone(&l);
            let readers_inside = Arc::clone(&readers_inside);
            let writer_inside = Arc::clone(&writer_inside);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..300 {
                    if (t + i) % 4 == 0 {
                        l.lock_exclusive();
                        writer_inside.fetch_add(1, Ordering::SeqCst);
                        if readers_inside.load(Ordering::SeqCst) != 0
                            || writer_inside.load(Ordering::SeqCst) != 1
                        {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        writer_inside.fetch_sub(1, Ordering::SeqCst);
                        l.unlock_exclusive();
                    } else {
                        l.lock_shared();
                        readers_inside.fetch_add(1, Ordering::SeqCst);
                        if writer_inside.load(Ordering::SeqCst) != 0 {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        readers_inside.fetch_sub(1, Ordering::SeqCst);
                        l.unlock_shared();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    /// Polls `cond` until it holds; a generous bound turns a hang into a failure.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn waiting_writer_blocks_new_readers_but_eventually_everyone_runs() {
        let l = Arc::new(HeapRwLock::new());
        l.lock_shared();
        let l2 = Arc::clone(&l);
        let writer = std::thread::spawn(move || {
            l2.lock_exclusive();
            l2.unlock_exclusive();
        });
        // Once the writer has announced itself, a new reader must be refused. Until
        // then the probe is admitted (readers share) and gives its acquisition back.
        wait_until("the writer to announce itself", || {
            let admitted = l.try_lock_shared();
            if admitted {
                l.unlock_shared();
            }
            !admitted
        });
        assert!(
            !l.try_lock_shared(),
            "reader admitted past a waiting writer"
        );
        l.unlock_shared();
        writer.join().unwrap();
        assert!(l.try_lock_shared());
        l.unlock_shared();
    }

    #[test]
    fn writer_parks_behind_a_reader_and_is_woken_by_its_release() {
        let l = Arc::new(HeapRwLock::new());
        l.lock_shared();
        let acquired = Arc::new(AtomicUsize::new(0));
        let (l2, a2) = (Arc::clone(&l), Arc::clone(&acquired));
        let writer = std::thread::spawn(move || {
            l2.lock_exclusive();
            a2.store(1, Ordering::SeqCst);
            l2.unlock_exclusive();
        });
        // The reader never releases while the writer spins and yields, so the writer
        // must exhaust both budgets and park.
        wait_until("the writer to park", || l.has_parked());
        assert_eq!(
            acquired.load(Ordering::SeqCst),
            0,
            "writer got past a reader"
        );
        l.unlock_shared();
        writer.join().unwrap();
        assert_eq!(acquired.load(Ordering::SeqCst), 1);
        assert!(!l.is_locked());
    }

    #[test]
    fn oversubscribed_mixed_lockers_finish_within_a_bound() {
        // 8 threads on (typically) 2 CPUs: a lock that only spun would livelock
        // whenever the holder is preempted; yield + park must keep everyone moving.
        let l = Arc::new(HeapRwLock::new());
        let total = Arc::new(AtomicUsize::new(0));
        let start = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (l, total) = (Arc::clone(&l), Arc::clone(&total));
                std::thread::spawn(move || {
                    for i in 0..20_000 {
                        if (t + i) % 3 == 0 {
                            l.lock_exclusive();
                            total.fetch_add(1, Ordering::Relaxed);
                            l.unlock_exclusive();
                        } else {
                            l.lock_shared();
                            total.fetch_add(1, Ordering::Relaxed);
                            l.unlock_shared();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 8 * 20_000);
        assert!(!l.is_locked());
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "160k acquisitions took {:?}",
            start.elapsed()
        );
    }
}
