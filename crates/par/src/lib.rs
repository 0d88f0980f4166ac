//! # congest-par — a minimal persistent thread pool
//!
//! The CONGEST engine steps millions of rounds; spawning OS threads per
//! round (as `std::thread::scope` would) costs more than the round itself,
//! and the container image carries no external crates, so this crate
//! provides the one primitive the workspace needs: a **persistent** pool
//! with an **allocation-free scoped parallel-for**.
//!
//! * [`run`] — execute `n_tasks` closures `f(0..n_tasks)` across the pool.
//!   The job descriptor lives on the caller's stack; workers check in and
//!   out under a lock, so no per-call heap allocation happens and the
//!   borrow is released before `run` returns.
//! * [`par_map_collect`] — parallel `(0..n).map(f).collect()`.
//! * [`with_threads`] — run a closure with a temporary pool of an explicit
//!   width (determinism tests sweep 1/2/4 threads and assert identical
//!   results).
//! * [`RacyCells`] — an unsafe cell wrapper for parallel scatter writes to
//!   *provably disjoint* indices (the engine's reverse-arc permutation is a
//!   bijection, so every destination slot has exactly one writer).
//!
//! Scheduling is a shared atomic cursor over task indices, so uneven tasks
//! load-balance; determinism is the *callers'* responsibility (every user
//! in this workspace writes task-owned, disjoint outputs and reduces with
//! associative, commutative folds only).

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// A job visible to workers: a type-erased `Fn(usize)` plus progress
/// bookkeeping. Lives on the stack of the thread inside [`Pool::scope`];
/// workers only dereference it between check-in and check-out, both of
/// which the caller observes before returning.
struct Job {
    /// The task body; `usize` is the task index. Lifetime-erased pointer to
    /// a `&dyn Fn(usize) + Sync` that outlives the job (enforced by
    /// `Pool::scope` blocking until all workers check out).
    task: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    cursor: AtomicUsize,
    /// Number of tasks finished (successfully or by panic).
    finished: AtomicUsize,
    /// Total tasks.
    total: usize,
    /// Workers currently holding a pointer to this job (checked in under
    /// the board lock at pickup, checked out after draining). Per-job so
    /// concurrent `scope` calls never wait on each other's stragglers.
    checked_in: AtomicUsize,
    /// First panic payload observed, propagated to the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

unsafe impl Sync for Job {}

impl Job {
    /// Claim-and-run tasks until the cursor is exhausted. Returns after
    /// contributing to `finished` for every claimed task even on panic,
    /// so the caller can never deadlock.
    fn drain(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            let task = unsafe { &*self.task };
            let result = catch_unwind(AssertUnwindSafe(|| task(i)));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            self.finished.fetch_add(1, Ordering::Release);
        }
    }

    fn is_done(&self) -> bool {
        self.finished.load(Ordering::Acquire) >= self.total
    }
}

/// What workers poll: a sequence number plus the current job pointer.
struct Board {
    seq: u64,
    job: Option<*const Job>,
}

unsafe impl Send for Board {}

/// A persistent pool of worker threads.
pub struct Pool {
    board: Mutex<Board>,
    work_ready: Condvar,
    idle: Condvar,
    threads: usize,
}

impl Pool {
    /// Build a pool with `threads` total lanes (including the caller's);
    /// `threads - 1` OS workers are spawned. `threads == 1` spawns none
    /// and [`Pool::scope`] degrades to a serial loop.
    pub fn new(threads: usize) -> &'static Pool {
        let threads = threads.max(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            board: Mutex::new(Board { seq: 0, job: None }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            threads,
        }));
        for _ in 1..threads {
            thread::Builder::new()
                .name("congest-par".into())
                .spawn(move || pool.worker_loop())
                .expect("spawn pool worker");
        }
        pool
    }

    fn worker_loop(&'static self) {
        let mut last_seen = 0u64;
        loop {
            let job: *const Job = {
                let mut board = self.board.lock().unwrap();
                loop {
                    if board.seq > last_seen {
                        if let Some(job) = board.job {
                            last_seen = board.seq;
                            // Check in while holding the lock: the caller
                            // can only retract + free the job after taking
                            // this same lock and seeing our count.
                            unsafe { &*job }.checked_in.fetch_add(1, Ordering::Relaxed);
                            break job;
                        }
                    }
                    board = self.work_ready.wait(board).unwrap();
                }
            };
            unsafe { &*job }.drain();
            // Last touch of the job: once the count hits zero the caller
            // may free it, so only the board/idle handles are used after.
            let remaining = unsafe { &*job }.checked_in.fetch_sub(1, Ordering::Release) - 1;
            if remaining == 0 {
                let _board = self.board.lock().unwrap();
                self.idle.notify_all();
            }
        }
    }

    /// Run `task(0..n_tasks)` across the pool. Blocks until every task has
    /// finished and no worker still holds a reference to `task`; panics
    /// from tasks are re-raised here. No heap allocation.
    pub fn scope(&'static self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        if self.threads == 1 || n_tasks == 1 {
            for i in 0..n_tasks {
                task(i);
            }
            return;
        }
        // Erase the borrow's lifetime: workers only dereference `task`
        // between check-in and check-out, and we block below until every
        // worker has checked out, so the borrow outlives all uses.
        let task_erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let job = Job {
            task: task_erased,
            cursor: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            total: n_tasks,
            checked_in: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let job_ptr = &job as *const Job;
        {
            let mut board = self.board.lock().unwrap();
            board.seq += 1;
            board.job = Some(job_ptr);
            self.work_ready.notify_all();
        }
        // The caller is a lane too.
        job.drain();
        // Retract the job — but only if a concurrent `scope` hasn't
        // already replaced it with its own — then wait for stragglers to
        // check out of *this* job.
        let mut board = self.board.lock().unwrap();
        if board.job == Some(job_ptr) {
            board.job = None;
        }
        while !(job.is_done() && job.checked_in.load(Ordering::Acquire) == 0) {
            board = self
                .idle
                .wait_timeout(board, std::time::Duration::from_millis(1))
                .unwrap()
                .0;
        }
        drop(board);
        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

fn default_threads() -> usize {
    std::env::var("CONGEST_PAR_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

fn global_pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(default_threads()))
}

thread_local! {
    /// Scoped pool override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<&'static Pool>> = const { Cell::new(None) };
}

fn current_pool() -> &'static Pool {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(global_pool)
}

/// Number of parallel lanes the calling thread would currently use.
pub fn num_threads() -> usize {
    current_pool().threads
}

/// Run `f` with a dedicated pool of exactly `threads` lanes installed for
/// the current thread. Pools are cached per width, so repeated calls don't
/// leak unbounded threads.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static CACHE: Mutex<Vec<(usize, &'static Pool)>> = Mutex::new(Vec::new());
    let threads = threads.max(1);
    let pool = {
        let mut cache = CACHE.lock().unwrap();
        match cache.iter().find(|(t, _)| *t == threads) {
            Some(&(_, p)) => p,
            None => {
                let p = Pool::new(threads);
                cache.push((threads, p));
                p
            }
        }
    };
    let prev = OVERRIDE.with(|o| o.replace(Some(pool)));
    struct Restore(Option<&'static Pool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Parallel-for over task indices `0..n_tasks` on the current pool.
pub fn run(n_tasks: usize, task: impl Fn(usize) + Sync) {
    current_pool().scope(n_tasks, &task);
}

/// Parallel `(0..n).map(f).collect::<Vec<_>>()`.
pub fn par_map_collect<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let mut out: Vec<std::mem::MaybeUninit<T>> = Vec::with_capacity(n);
    // Sound: every slot is written exactly once below before assuming init.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n)
    };
    let chunk = n.div_ceil((num_threads() * 4).max(1)).max(1);
    let slots = RacyCells::new(&mut out[..]);
    run(n.div_ceil(chunk), |ci| {
        for i in ci * chunk..((ci + 1) * chunk).min(n) {
            // SAFETY: `i < n`, the slots' length, and the chunks are
            // disjoint, so task `ci` is slot `i`'s only writer.
            unsafe { slots.write(i, std::mem::MaybeUninit::new(f(i))) };
        }
    });
    // Reassemble from raw parts rather than transmuting the Vec itself
    // (Vec's field layout is unspecified across element types). Sound:
    // all n slots are initialized and MaybeUninit<T> has T's layout.
    let mut out = std::mem::ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut T, out.len(), out.capacity()) }
}

/// A shared view over a `&mut [T]` allowing raw indexed writes from
/// multiple threads. Callers must guarantee every index is written by at
/// most one thread between synchronization points (the engine's delivery
/// permutation is a bijection, so this holds by construction).
pub struct RacyCells<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Sync for RacyCells<'_, T> {}
unsafe impl<T: Send> Send for RacyCells<'_, T> {}

impl<'a, T> RacyCells<'a, T> {
    pub fn new(data: &'a mut [T]) -> Self {
        RacyCells {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at `index`.
    ///
    /// # Safety
    /// `index < len`, and no other thread reads or writes `index`
    /// concurrently.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).write(value) };
    }

    /// Read the value at `index`.
    ///
    /// # Safety
    /// `index < len`, and no other thread writes `index` concurrently.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).read() }
    }

    /// Reborrow a sub-slice mutably.
    ///
    /// # Safety
    /// `start <= end <= len`, and no other thread touches `start..end`
    /// concurrently.
    #[inline]
    pub unsafe fn slice_mut(&self, start: usize, end: usize) -> &'a mut [T] {
        debug_assert!(start <= end && end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_covers_every_task_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        run(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_collect_matches_serial() {
        let par = par_map_collect(513, |i| i * i);
        let ser: Vec<usize> = (0..513).map(|i| i * i).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn with_threads_installs_width() {
        for t in [1, 2, 4] {
            with_threads(t, || {
                assert_eq!(num_threads(), t);
                let v = par_map_collect(100, |i| i + 1);
                assert_eq!(v[99], 100);
            });
        }
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run(64, |i| {
                if i == 33 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // Pool must still be usable afterwards.
        let v = par_map_collect(10, |i| i);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn nested_scopes_from_tasks_serialize() {
        // A task calling run() again must not deadlock: inner scope runs
        // on the same pool; since the worker is busy, the caller lane
        // drains it.
        run(4, |_| {
            let v = par_map_collect(8, |i| i);
            assert_eq!(v.len(), 8);
        });
    }
}
