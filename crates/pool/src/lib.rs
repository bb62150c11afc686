//! A dependency-free work-stealing thread pool with *deterministic* task
//! decomposition.
//!
//! Every parallel primitive in this crate follows one rule: **the
//! decomposition of work into tasks, and the order results are combined,
//! depend only on the input size — never on the thread count or on
//! scheduling**. Each task writes to slots addressed by its task index, so
//! running the same input on 1, 2, or 64 threads produces bit-identical
//! output. This is what lets the proof system above this crate promise
//! byte-identical proofs at any `ZKPERF_THREADS` setting.
//!
//! # Execution model
//!
//! A process-wide pool of worker threads is spawned lazily on first use,
//! sized from the `ZKPERF_THREADS` environment variable (falling back to
//! [`std::thread::available_parallelism`]). A call to [`parallel_for`]
//! publishes a *job* — a borrowed closure plus an atomic index cursor — to
//! a shared registry. Idle workers steal the newest published job (LIFO,
//! so nested jobs drain before their parents' siblings) and claim task
//! indices from its cursor with a `fetch_add`; the **calling thread
//! participates too**, claiming indices in the same loop, which makes
//! nested `parallel_for` calls deadlock-free: a caller never blocks while
//! its own job still has unclaimed work.
//!
//! # Panic isolation
//!
//! Each task body runs under [`std::panic::catch_unwind`]. The first
//! captured payload is re-raised *on the calling thread* after all sibling
//! tasks complete, so a panic inside a pool task behaves exactly like a
//! panic in serial code: it unwinds the caller, not the process, and a
//! caller that wants to survive it (the sweep driver, per cell) wraps the
//! call in its own `catch_unwind`.
//!
//! # Cooperative cancellation and deadlines
//!
//! A [`CancelToken`] carries an explicit cancel flag plus an optional
//! absolute deadline. Installing it with [`CancelToken::enter`] makes it
//! the thread's ambient cancellation scope; jobs published to the pool
//! from inside that scope re-install the token in every task, so
//! [`cancellation_pending`] answers correctly on whichever thread the work
//! landed. Cancellation is strictly cooperative — kernels poll at their
//! own boundaries and surface a typed error — which keeps the
//! deterministic-decomposition guarantee intact: a job either completes
//! bit-identically or fails as a value, never half-writes.
//!
//! # Serial scopes
//!
//! Every primitive already runs `0..count` in order on the calling thread
//! when the pool has one thread or the job has one task. A [`SerialScope`]
//! makes that the path of every job its thread submits. It exists for the
//! owner of a per-thread observer: `core::measure_stage` holds one beside
//! its trace session, so a kernel has one body, written against these
//! primitives, and no "am I being traced" gate of its own.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod mem;

/// Every zkperf binary allocates through the tracking shim so
/// [`mem::peak_live_bytes`] is an exact high-water mark; registration
/// lives here because the whole workspace links `zkperf-pool`.
#[global_allocator]
static GLOBAL_ALLOCATOR: mem::TrackingAllocator = mem::TrackingAllocator;

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Upper bound on the pool size; oversubscription beyond this is clamped.
const MAX_THREADS: usize = 64;

/// Locks a mutex, ignoring poisoning. Task panics are confined by
/// `catch_unwind` before any pool lock is taken, so a poisoned lock can
/// only mean a panic in the pool's own bookkeeping — recovering the guard
/// is strictly better than cascading the abort.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One published batch of tasks: a type-erased borrowed closure plus the
/// claim cursor and completion bookkeeping.
struct Job {
    /// The task body. Points into the stack frame of the `parallel_for`
    /// caller; see the safety argument on [`parallel_for`] for why workers
    /// never dereference it after that frame returns.
    task: *const (dyn Fn(usize) + Sync + 'static),
    /// Total number of task indices in `0..count`.
    count: usize,
    /// Next unclaimed task index. Claimed with `fetch_add`; values at or
    /// beyond `count` mean the job is fully claimed.
    next: AtomicUsize,
    /// Number of *worker* threads that have joined (the caller is always
    /// a participant and is not counted). Capped so `set_threads(n)`
    /// limits per-job concurrency even when more workers are alive.
    joined: AtomicUsize,
    /// Maximum workers allowed to join this job.
    max_workers: usize,
    /// Completed-task count, paired with `done_cv` for the caller's wait.
    done: Mutex<usize>,
    /// Notified when `done` reaches `count`.
    done_cv: Condvar,
    /// First captured panic payload from any task, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Cancellation scope of the submitting thread, re-installed inside
    /// every task so [`cancellation_pending`] works across the pool.
    cancel: Option<Arc<CancelState>>,
}

// SAFETY: `task` is only dereferenced while the publishing caller is
// blocked inside `parallel_for` (all dereferences happen between claim and
// completion, and the caller waits for `done == count` before returning),
// and the closure itself is `Sync`, so sharing the pointer across threads
// is sound.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// Registry shared between workers and callers.
struct Shared {
    /// Published jobs with unclaimed work, newest last.
    jobs: Mutex<Vec<Arc<Job>>>,
    /// Notified when a job is published.
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Target concurrency including the calling thread.
    threads: AtomicUsize,
    /// Worker threads spawned so far (grows monotonically, never shrinks;
    /// `threads` caps how many may join any one job).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// The cancellation token governing work on this thread: installed by
    /// [`CancelToken::enter`] on submitting threads and re-installed inside
    /// pool tasks of jobs those threads publish, so a kernel can poll
    /// [`cancellation_pending`] no matter which thread its code landed on.
    static CURRENT_CANCEL: RefCell<Option<Arc<CancelState>>> = const { RefCell::new(None) };
    /// Whether a [`SerialScope`] is open on this thread.
    static SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Shared state behind a [`CancelToken`].
#[derive(Debug)]
struct CancelState {
    cancelled: AtomicBool,
    /// Absolute deadline; `None` means the token only cancels explicitly.
    deadline: Option<Instant>,
}

impl CancelState {
    fn pending(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A cooperative cancellation token with an optional absolute deadline.
///
/// Cancellation is *observed*, never imposed: the pool never kills a task.
/// Long-running kernels and stage boundaries poll
/// [`cancellation_pending`] and convert a pending cancellation into their
/// own typed error, so a cancelled proof job unwinds through ordinary
/// `Result` paths with every invariant intact.
///
/// Install a token for a region of work with [`CancelToken::enter`]; jobs
/// published to the pool from inside that region carry the token, making
/// deadline-aware task spawning transparent to the kernels.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use zkperf_pool::{cancellation_pending, CancelToken};
///
/// let token = CancelToken::with_timeout(Duration::from_secs(60));
/// let _scope = token.enter();
/// assert!(!cancellation_pending());
/// token.cancel();
/// assert!(cancellation_pending());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    state: Arc<CancelState>,
}

impl CancelToken {
    /// A token with no deadline; cancels only via [`CancelToken::cancel`].
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally reports cancellation once `deadline`
    /// passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token whose deadline is `budget` from now.
    #[must_use]
    pub fn with_timeout(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// Requests cancellation. Idempotent; takes effect at the next poll.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.state.pending()
    }

    /// Time left until the deadline (`None` without one; zero once past).
    pub fn remaining(&self) -> Option<Duration> {
        self.state
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Installs this token as the calling thread's ambient cancellation
    /// scope until the guard drops. Scopes nest; the innermost wins.
    #[must_use]
    pub fn enter(&self) -> CancelScope {
        let prev = CURRENT_CANCEL.with(|c| c.replace(Some(Arc::clone(&self.state))));
        CancelScope { prev }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard for an ambient cancellation scope (see [`CancelToken::enter`];
/// the pool also opens one around every task, with the submitter's token).
pub struct CancelScope {
    prev: Option<Arc<CancelState>>,
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        CURRENT_CANCEL.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Whether the ambient cancellation scope (if any) wants work to stop:
/// explicitly cancelled, or past its deadline. A no-op `false` outside any
/// scope, so kernels can poll unconditionally at their natural boundaries.
pub fn cancellation_pending() -> bool {
    CURRENT_CANCEL.with(|c| c.borrow().as_ref().is_some_and(|s| s.pending()))
}

fn ambient_cancel() -> Option<Arc<CancelState>> {
    CURRENT_CANCEL.with(|c| c.borrow().clone())
}

/// RAII guard for an ambient serial scope: until it drops, every job the
/// calling thread submits runs `0..count` in order on that thread — the
/// path a one-thread pool takes — so thread-local observers (a trace
/// session) see all of the work. Task decomposition and cancellation are
/// unchanged, and so are the results. Scopes nest; jobs
/// submitted from other threads are unaffected.
pub struct SerialScope {
    prev: bool,
}

impl SerialScope {
    /// Opens a serial scope on the calling thread.
    #[must_use]
    pub fn enter() -> SerialScope {
        SerialScope {
            prev: SERIAL.with(|s| s.replace(true)),
        }
    }
}

impl Drop for SerialScope {
    fn drop(&mut self) {
        SERIAL.with(|s| s.set(self.prev));
    }
}

fn env_threads() -> usize {
    match std::env::var("ZKPERF_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let p = Pool {
            shared: Arc::new(Shared {
                jobs: Mutex::new(Vec::new()),
                work_cv: Condvar::new(),
            }),
            threads: AtomicUsize::new(1),
            spawned: Mutex::new(0),
        };
        p.resize(env_threads());
        p
    })
}

impl Pool {
    /// Sets the target thread count, spawning workers as needed. Workers
    /// are never torn down; a lowered count just stops them from joining
    /// new jobs.
    fn resize(&self, threads: usize) {
        let threads = threads.clamp(1, MAX_THREADS);
        self.threads.store(threads, Ordering::Relaxed);
        let wanted_workers = threads - 1;
        let mut spawned = lock_ignore_poison(&self.spawned);
        while *spawned < wanted_workers {
            let shared = Arc::clone(&self.shared);
            let name = format!("zkperf-pool-{}", *spawned);
            // Spawn failure (resource exhaustion) degrades to fewer
            // workers; the caller-participation model still makes progress.
            if thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&shared))
                .is_err()
            {
                break;
            }
            *spawned += 1;
        }
    }
}

/// Picks the newest published job this worker may join, consuming a join
/// slot. Fully-claimed jobs are pruned from the registry as a side effect.
fn pick_job(jobs: &mut Vec<Arc<Job>>) -> Option<Arc<Job>> {
    jobs.retain(|j| j.next.load(Ordering::Relaxed) < j.count);
    for job in jobs.iter().rev() {
        let joined = job
            .joined
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |j| {
                (j < job.max_workers).then_some(j + 1)
            });
        if joined.is_ok() {
            return Some(Arc::clone(job));
        }
    }
    None
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = lock_ignore_poison(&shared.jobs);
            loop {
                if let Some(job) = pick_job(&mut jobs) {
                    break job;
                }
                jobs = shared
                    .work_cv
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_tasks(&job);
    }
}

/// Claims and executes task indices from `job` until the cursor is
/// exhausted, capturing the first panic.
fn run_tasks(job: &Job) {
    loop {
        let idx = job.next.fetch_add(1, Ordering::Relaxed);
        if idx >= job.count {
            break;
        }
        // SAFETY: idx < count, so the publishing caller is still blocked in
        // `parallel_for` waiting for this task to complete; the closure it
        // borrows is alive.
        let task = unsafe { &*job.task };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _cancel = CancelScope {
                prev: CURRENT_CANCEL.with(|c| c.replace(job.cancel.clone())),
            };
            task(idx);
        }));
        if let Err(payload) = result {
            let mut slot = lock_ignore_poison(&job.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut done = lock_ignore_poison(&job.done);
        *done += 1;
        if *done == job.count {
            job.done_cv.notify_all();
        }
    }
}

/// Current target concurrency (including the calling thread). `1` means
/// every parallel primitive degrades to a plain serial loop.
pub fn current_threads() -> usize {
    pool().threads.load(Ordering::Relaxed)
}

/// Sets the pool's target concurrency (clamped to `1..=64`), spawning
/// workers on demand. Intended for tests and benchmark harnesses; normal
/// runs size the pool once from `ZKPERF_THREADS` at first use.
pub fn set_threads(threads: usize) {
    pool().resize(threads);
}

/// Runs `task(i)` for every `i in 0..count`, spreading the indices across
/// the pool. Blocks until all tasks complete. Task indices are claimed
/// dynamically, so **tasks must be independent**; every task sees the same
/// `&task` closure, so shared state must be `Sync`.
///
/// Determinism: which thread runs which index is scheduling-dependent, but
/// the index set itself is fixed, so closures that write only to
/// index-addressed slots produce identical results at any thread count.
///
/// Panics in tasks are re-raised on the calling thread after all sibling
/// tasks finish (first panic wins).
///
/// Tasks should be coarse (microseconds or more): each claim costs an
/// atomic RMW plus a completion-count lock. For fine-grained loops over
/// large arrays, use [`parallel_chunks_mut`] or [`parallel_fill`], which
/// group elements into chunks first.
pub fn parallel_for<F: Fn(usize) + Sync>(count: usize, task: F) {
    if count == 0 {
        return;
    }
    let p = pool();
    let threads = p.threads.load(Ordering::Relaxed);
    if threads <= 1 || count == 1 || SERIAL.with(Cell::get) {
        // Inline path: same semantics (the caller's cancel scope is already
        // ambient, and a panic here unwinds the caller directly).
        for i in 0..count {
            task(i);
        }
        return;
    }

    // Erase the closure's lifetime so workers can hold the pointer.
    //
    // SAFETY (lifetime): this function does not return until `done ==
    // count`. A worker can only dereference `task` for an index it claimed
    // with `idx < count`, and each such claim is followed by a `done`
    // increment — so every dereference happens before the final increment
    // that releases this frame. Claims at or past `count` never touch the
    // pointer.
    let local: *const (dyn Fn(usize) + Sync) = &task;
    #[allow(clippy::missing_transmute_annotations)]
    let erased: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute(local) };
    let job = Arc::new(Job {
        task: erased,
        count,
        next: AtomicUsize::new(0),
        joined: AtomicUsize::new(0),
        max_workers: threads - 1,
        done: Mutex::new(0),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
        cancel: ambient_cancel(),
    });

    {
        let mut jobs = lock_ignore_poison(&p.shared.jobs);
        jobs.push(Arc::clone(&job));
        p.shared.work_cv.notify_all();
    }

    // The caller participates, so nested parallel_for calls always make
    // progress even when every worker is busy elsewhere.
    run_tasks(&job);

    let mut done = lock_ignore_poison(&job.done);
    while *done < count {
        done = job
            .done_cv
            .wait(done)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(done);

    let payload = lock_ignore_poison(&job.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Pointer wrapper that lets disjoint-range writes cross the closure's
/// `Sync` bound. Safety is established at each use site: tasks index
/// non-overlapping ranges.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field access) so closures capture the
    /// whole `SendPtr` — edition-2021 disjoint capture would otherwise
    /// capture the raw `*mut T` field, which is not `Sync`.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and runs `body(chunk_index, chunk)` for each in
/// parallel. The chunk boundaries depend only on `data.len()` and
/// `chunk_len`, never on the thread count — the deterministic-decomposition
/// rule.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let chunks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(chunks, |ci| {
        let start = ci * chunk_len;
        let n = chunk_len.min(len - start);
        // SAFETY: chunks cover disjoint index ranges of `data`, each task
        // runs exactly one chunk, and `data` outlives the parallel_for
        // call (which blocks until all tasks complete).
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), n) };
        body(ci, chunk);
    });
}

/// Runs `body(i, &mut items[i])` for every element in parallel, giving
/// each task exclusive access to its element.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    parallel_chunks_mut(items, 1, |i, chunk| {
        if let Some(item) = chunk.first_mut() {
            body(i, item);
        }
    });
}

/// Fills `out[i] = f(i)` for every index, parallelized over chunks of
/// `grain` consecutive indices. The chunking depends only on `out.len()`
/// and `grain`.
pub fn parallel_fill<T, F>(out: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let grain = grain.max(1);
    parallel_chunks_mut(out, grain, |ci, chunk| {
        let start = ci * grain;
        for (j, slot) in chunk.iter_mut().enumerate() {
            *slot = f(start + j);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that mutate the global thread count.
    static THREAD_KNOB: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _g = lock_ignore_poison(&THREAD_KNOB);
        set_threads(n);
        let out = f();
        set_threads(1);
        out
    }

    #[test]
    fn one_thread_degrades_to_serial() {
        with_threads(1, || {
            // On a 1-thread pool the body runs inline on the caller: the
            // thread-id observed by every task is the caller's.
            let caller = std::thread::current().id();
            let hits = AtomicUsize::new(0);
            parallel_for(17, |_| {
                assert_eq!(std::thread::current().id(), caller);
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.into_inner(), 17);
        });
    }

    #[test]
    fn empty_input_is_a_no_op() {
        with_threads(4, || {
            parallel_for(0, |_| panic!("must not run"));
            let mut empty: [u64; 0] = [];
            parallel_chunks_mut(&mut empty, 8, |_, _| panic!("must not run"));
            parallel_fill(&mut empty, 8, |_| panic!("must not run"));
        });
    }

    #[test]
    fn nested_parallel_for_completes() {
        with_threads(4, || {
            let total = AtomicU64::new(0);
            parallel_for(8, |i| {
                parallel_for(8, |j| {
                    total.fetch_add((i * 8 + j) as u64, Ordering::Relaxed);
                });
            });
            assert_eq!(total.into_inner(), (0..64).sum::<u64>());
        });
    }

    #[test]
    fn oversubscription_is_clamped_and_correct() {
        // Far more threads than cores (and past the clamp).
        with_threads(1000, || {
            assert_eq!(current_threads(), 64);
            let mut out = vec![0u64; 10_000];
            parallel_fill(&mut out, 37, |i| (i as u64).wrapping_mul(2_654_435_761));
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as u64).wrapping_mul(2_654_435_761));
            }
        });
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut out = vec![0u64; 4096];
                parallel_fill(&mut out, 64, |i| (i as u64).wrapping_mul(0x9e37_79b9));
                out
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(5));
    }

    #[test]
    fn task_panic_unwinds_caller_not_process() {
        with_threads(4, || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_for(32, |i| {
                    if i == 13 {
                        panic!("boom at 13");
                    }
                });
            }));
            let payload = result.expect_err("panic must propagate to the caller");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("boom at 13"));
            // The pool is still usable afterwards.
            let hits = AtomicUsize::new(0);
            parallel_for(8, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.into_inner(), 8);
        });
    }

    #[test]
    fn cancellation_is_ambient_and_scoped() {
        assert!(!cancellation_pending(), "no scope installed");
        let token = CancelToken::new();
        {
            let _scope = token.enter();
            assert!(!cancellation_pending());
            token.cancel();
            assert!(cancellation_pending());
        }
        // Scope dropped: the cancelled token no longer governs this thread.
        assert!(!cancellation_pending());
    }

    #[test]
    fn deadline_tokens_trip_after_expiry() {
        let token = CancelToken::with_timeout(Duration::from_millis(5));
        assert!(token.remaining().is_some());
        thread::sleep(Duration::from_millis(10));
        assert!(token.is_cancelled());
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        // A generous deadline does not trip.
        let patient = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!patient.is_cancelled());
    }

    #[test]
    fn cancel_scope_propagates_into_pool_tasks() {
        with_threads(4, || {
            let token = CancelToken::new();
            token.cancel();
            let _scope = token.enter();
            let seen = AtomicUsize::new(0);
            parallel_for(32, |_| {
                if cancellation_pending() {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            });
            // Every task observed the submitting thread's cancellation,
            // regardless of which thread ran it.
            assert_eq!(seen.into_inner(), 32);
        });
    }

    #[test]
    fn nested_scopes_innermost_wins() {
        let outer = CancelToken::new();
        outer.cancel();
        let _o = outer.enter();
        assert!(cancellation_pending());
        {
            let inner = CancelToken::new();
            let _i = inner.enter();
            assert!(!cancellation_pending(), "inner scope shadows outer");
        }
        assert!(cancellation_pending(), "outer scope restored");
    }

    #[test]
    fn serial_scope_runs_every_primitive_in_order_on_the_caller() {
        with_threads(4, || {
            let _serial = SerialScope::enter();
            let caller = thread::current().id();
            let visited = Mutex::new(Vec::new());
            let visit = |i: usize| {
                assert_eq!(thread::current().id(), caller);
                lock_ignore_poison(&visited).push(i);
            };
            parallel_for(9, visit);
            let mut data = [0u8; 9];
            parallel_chunks_mut(&mut data, 2, |ci, _| visit(ci));
            parallel_fill(&mut data, 1, |i| {
                visit(i);
                0
            });
            let expect: Vec<usize> = (0..9).chain(0..5).chain(0..9).collect();
            assert_eq!(visited.into_inner().unwrap(), expect);
        });
    }

    #[test]
    fn serial_scopes_nest_and_restore_on_drop() {
        let open = || SERIAL.with(Cell::get);
        assert!(!open());
        {
            let _outer = SerialScope::enter();
            {
                let _inner = SerialScope::enter();
                assert!(open());
            }
            assert!(open(), "dropping the inner scope keeps the outer one");
        }
        assert!(!open());
    }

    #[test]
    fn serial_scope_does_not_serialise_other_threads() {
        with_threads(4, || {
            let _serial = SerialScope::enter();
            thread::scope(|s| {
                s.spawn(|| {
                    // Task 0 waits for task 1 to start: inline in-order
                    // execution would never get there.
                    let started = AtomicBool::new(false);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    parallel_for(2, |i| {
                        if i == 1 {
                            started.store(true, Ordering::Release);
                        }
                        while !started.load(Ordering::Acquire) {
                            assert!(Instant::now() < deadline, "job ran inline");
                            thread::yield_now();
                        }
                    });
                });
            });
        });
    }

    #[test]
    fn cancel_scope_applies_on_the_inline_path() {
        with_threads(4, || {
            let _serial = SerialScope::enter();
            let token = CancelToken::new();
            token.cancel();
            let _scope = token.enter();
            let seen = AtomicUsize::new(0);
            parallel_for(8, |_| {
                if cancellation_pending() {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(seen.into_inner(), 8);
        });
    }

    #[test]
    fn for_each_mut_gives_exclusive_access() {
        with_threads(4, || {
            let mut items: Vec<Vec<u32>> = (0..40).map(|i| vec![i]).collect();
            parallel_for_each_mut(&mut items, |i, item| {
                item.push(i as u32 * 2);
            });
            for (i, item) in items.iter().enumerate() {
                assert_eq!(item, &vec![i as u32, i as u32 * 2]);
            }
        });
    }
}
