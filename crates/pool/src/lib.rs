//! A persistent, lazily-initialized worker pool for scoped parallel
//! batches.
//!
//! `std::thread::scope` spawns and joins OS threads on every call, which
//! the sharded sweep pays once per code region per binary — a real cost
//! at corpus scale (thread creation is tens of microseconds; a shard
//! decodes in a few hundred). [`global()`] instead spawns one set of
//! workers on first use and reuses them for every batch: the sweep's
//! shards, the evaluation runner's per-binary fan-out, anything else.
//!
//! # Design
//!
//! One shared injector queue (mutex + condvar) feeds the workers. Tasks
//! are batch-granular: [`Pool::run`] enqueues all closures of a batch,
//! then the *submitting thread helps drain the queue* until its batch
//! completes. Help-execution has two consequences:
//!
//! * **No deadlocks under nesting.** A task may itself call
//!   [`Pool::run`] (the eval runner maps over binaries, and each binary's
//!   sweep shards inside). The inner caller executes queued tasks while
//!   waiting, so progress never depends on a free worker.
//! * **Graceful degradation to sequential.** On a single-core host the
//!   submitter simply runs its own shards back to back — no spawn, no
//!   context switch, just the stitch bookkeeping.
//!
//! Work distribution is task-stealing at batch granularity: any worker
//! (or helping submitter) takes the oldest queued task, so a long task
//! occupies one thread while the rest drain the remainder.
//!
//! # Dynamic batches: [`Pool::scope`]
//!
//! [`Pool::run`] takes the whole batch up front. Pipelined workloads —
//! the batch analysis engine decomposes each binary into parse → sweep
//! → analyze stages, where each stage task enqueues the next on
//! completion — need to *add* tasks while the batch is in flight.
//! [`Pool::scope`] provides that: the closure receives a [`Scope`]
//! whose [`Scope::spawn`] may be called from the closure *and from
//! inside spawned tasks*, and `scope` only returns once every
//! transitively spawned task has finished.
//!
//! # Sizing and placement
//!
//! The global pool's width defaults to `available_parallelism()` and
//! can be forced with the `FUNSEEKER_CORES` environment variable (or
//! programmatically with [`configure_global`], which the `--cores N`
//! CLI flags use). Explicit pools come from [`Pool::with_workers`].
//! On Linux/x86_64 each worker of a multi-worker pool is pinned
//! round-robin over the thread's allowed CPUs via a raw
//! `sched_setaffinity` syscall (see [`affinity`]); `FUNSEEKER_PIN=0`
//! disables pinning, `FUNSEEKER_PIN=1` forces it even for explicit
//! pools. Per-worker executed-task counters and the submitter
//! help-execution counter are exposed through [`Pool::counters`] so
//! bench reports can show how work actually spread.
//!
//! # Safety
//!
//! This crate contains all of the workspace's `unsafe` code: the
//! lifetime erasure that lets borrowed closures
//! (`FnOnce() -> T + Send + 'env`) ride on `'static` worker threads,
//! and the two raw affinity syscalls in [`affinity`]. Soundness of the
//! erasure is the scoped-thread argument: [`Pool::run`] /
//! [`Pool::scope`] do not return before every task of their batch has
//! finished executing, so no borrow is observable after it would
//! dangle. See the safety comments at the `unsafe` sites.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// A type- and lifetime-erased unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, ignoring poisoning.
///
/// Tasks run wrapped in `catch_unwind`, so a panic can never unwind
/// through a held pool lock; poisoning would only indicate a panic in
/// the pool's own bookkeeping, where continuing is still sound (all
/// state transitions are single assignments).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Injector {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
}

/// A persistent worker pool executing scoped batches of closures.
pub struct Pool {
    injector: Arc<Injector>,
    workers: usize,
    /// Tasks executed by each worker thread (index = worker id).
    executed: Arc<Vec<AtomicU64>>,
    /// Tasks executed by helping submitters (any thread inside
    /// `run`/`scope`), i.e. work that never reached a worker.
    helped: AtomicU64,
    /// Workers that successfully pinned themselves to a CPU.
    pinned: Arc<AtomicUsize>,
}

/// A point-in-time snapshot of how a pool's work was distributed; see
/// [`Pool::counters`].
#[derive(Debug, Clone)]
pub struct PoolCounters {
    /// Tasks executed by each worker thread, in worker order. Uneven
    /// numbers under a steady load mean stealing is doing real
    /// balancing; a zero row means that worker never won a task.
    pub per_worker: Vec<u64>,
    /// Tasks executed by submitting threads helping drain the queue.
    pub helped: u64,
    /// Workers that successfully pinned themselves to a CPU.
    pub pinned: usize,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, spawned on first use. Width is
/// `FUNSEEKER_CORES` if set (parseable, ≥ 1), else
/// `available_parallelism()`; pinning follows the `FUNSEEKER_PIN`
/// policy described at the crate root.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_workers(), None))
}

/// Fixes the global pool's width *before first use*. Returns `false`
/// if the pool was already spawned (by an earlier [`global`] call or
/// another `configure_global`), in which case the existing width wins —
/// worker threads are detached and cannot be resized. `--cores N`
/// flags call this first thing.
pub fn configure_global(workers: usize) -> bool {
    let mut initialized = false;
    let pool = GLOBAL.get_or_init(|| {
        initialized = true;
        Pool::new(workers.max(1), None)
    });
    initialized && pool.workers() == workers.max(1)
}

/// The global pool's default width: `FUNSEEKER_CORES` if valid, else
/// `available_parallelism()`.
fn default_workers() -> usize {
    if let Ok(v) = std::env::var("FUNSEEKER_CORES") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Whether a pool of `workers` threads should pin them, per
/// `FUNSEEKER_PIN`: `0` never, `1` always, unset = only multi-worker
/// pools (pinning a 1-worker pool just fights the scheduler).
fn should_pin(workers: usize) -> bool {
    match std::env::var("FUNSEEKER_PIN").ok().as_deref().map(str::trim) {
        Some("0") => false,
        Some("1") => true,
        _ => workers > 1,
    }
}

/// Completion state of one batch.
struct BatchState<T> {
    results: Vec<Option<T>>,
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Batch<T> {
    state: Mutex<BatchState<T>>,
    done: Condvar,
}

impl Pool {
    /// Spawns an explicit pool with `workers` detached worker threads,
    /// independent of the [`global`] pool (separate queue, separate
    /// threads). Pinning follows the `FUNSEEKER_PIN` policy unless
    /// `pin` overrides it.
    ///
    /// Worker threads are detached and live for the rest of the
    /// process; create long-lived pools (benches, per-width probes,
    /// test fixtures reused across cases), not one per call site.
    pub fn with_workers(workers: usize) -> Pool {
        Pool::new(workers.max(1), None)
    }

    /// Spawns a pool with `workers` threads, pinning each one to a CPU
    /// (round-robin over the spawning thread's allowed set) when `pin`
    /// is true.
    pub fn with_workers_pinned(workers: usize, pin: bool) -> Pool {
        Pool::new(workers.max(1), Some(pin))
    }

    /// Spawns a pool with `workers` detached worker threads. `pin`
    /// overrides the `FUNSEEKER_PIN` policy when `Some`.
    fn new(workers: usize, pin: Option<bool>) -> Pool {
        let injector =
            Arc::new(Injector { queue: Mutex::new(VecDeque::new()), available: Condvar::new() });
        let executed: Arc<Vec<AtomicU64>> =
            Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
        let pinned = Arc::new(AtomicUsize::new(0));
        let pin = pin.unwrap_or_else(|| should_pin(workers));
        let cpus = if pin { affinity::allowed_cpus() } else { Vec::new() };
        for i in 0..workers {
            let inj = Arc::clone(&injector);
            let counts = Arc::clone(&executed);
            let pinned = Arc::clone(&pinned);
            // Round-robin placement: worker i gets allowed CPU i mod n,
            // so a pool wider than the cpuset wraps instead of failing.
            let cpu = (!cpus.is_empty()).then(|| cpus[i % cpus.len()]);
            std::thread::Builder::new()
                .name("funseeker-pool".into())
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        if affinity::pin_to_cpu(cpu) {
                            pinned.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    worker_loop(&inj, &counts[i]);
                })
                .expect("spawn pool worker");
        }
        Pool { injector, workers, executed, helped: AtomicU64::new(0), pinned }
    }

    /// Number of worker threads (excluding helping submitters).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the work-distribution counters (relaxed reads; exact
    /// only once the pool is quiescent).
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            per_worker: self.executed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            helped: self.helped.load(Ordering::Relaxed),
            pinned: self.pinned.load(Ordering::Relaxed),
        }
    }

    /// Runs a batch of closures, returning their results in submission
    /// order. Blocks until the whole batch has completed; the calling
    /// thread helps execute queued tasks while it waits.
    ///
    /// If any task panics, the panic is resumed on the calling thread
    /// after the rest of the batch has drained.
    pub fn run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // A one-task batch gains nothing from the queue.
            return tasks.into_iter().map(|f| f()).collect();
        }

        let batch: Arc<Batch<T>> = Arc::new(Batch {
            state: Mutex::new(BatchState {
                results: (0..n).map(|_| None).collect(),
                pending: n,
                panic: None,
            }),
            done: Condvar::new(),
        });

        {
            let mut q = lock(&self.injector.queue);
            q.reserve(n);
            for (i, f) in tasks.into_iter().enumerate() {
                let b = Arc::clone(&batch);
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(f));
                    let mut st = lock(&b.state);
                    match out {
                        Ok(v) => st.results[i] = Some(v),
                        Err(p) => {
                            if st.panic.is_none() {
                                st.panic = Some(p);
                            }
                        }
                    }
                    st.pending -= 1;
                    if st.pending == 0 {
                        b.done.notify_all();
                    }
                });
                // SAFETY: the only unsafe in the workspace. We erase the
                // closure's `'env` lifetime to `'static` so it can sit in
                // the shared queue and run on a detached worker. This is
                // sound because this function does not return until the
                // batch's `pending` count reaches zero, and `pending`
                // only reaches zero after every job closure above has
                // *finished executing* (the decrement is the closure's
                // final action). Hence no erased borrow is ever used
                // after `'env` ends. Results (`T: Send + 'env`) are moved
                // out only below, still inside `'env`. This is the same
                // argument scoped threads (`std::thread::scope`,
                // crossbeam's scope) rely on.
                let job: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(job) };
                q.push_back(job);
            }
        }
        self.injector.available.notify_all();

        // Help drain the queue until this batch is complete. Running
        // another batch's task here is fine — it only advances global
        // progress — and is what makes nested `run` calls deadlock-free.
        loop {
            if lock(&batch.state).pending == 0 {
                break;
            }
            let task = lock(&self.injector.queue).pop_front();
            match task {
                Some(t) => {
                    self.helped.fetch_add(1, Ordering::Relaxed);
                    t()
                }
                None => {
                    // Queue empty: the remaining tasks of this batch are
                    // being executed by other threads. Wait for them.
                    let mut st = lock(&batch.state);
                    while st.pending != 0 {
                        st = batch.done.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    break;
                }
            }
        }

        let mut st = lock(&batch.state);
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
        let results = std::mem::take(&mut st.results);
        drop(st);
        results
            .into_iter()
            .map(|r| r.expect("pool task completed without storing a result"))
            .collect()
    }

    /// Runs a *dynamic* batch: `f` receives a [`Scope`] on which tasks
    /// can be spawned — from `f` itself and from inside already-running
    /// tasks, which is what lets a pipeline stage enqueue its successor.
    /// Blocks until every transitively spawned task has completed; the
    /// calling thread helps execute queued tasks while it waits.
    ///
    /// Spawned closures may borrow anything that outlives the `scope`
    /// call (`'env`), including the `Scope` itself. If a task (or `f`)
    /// panics, the panic is resumed on the calling thread after the rest
    /// of the scope has drained.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            sync: Mutex::new(ScopeSync { pending: 0, panic: None }),
            done: Condvar::new(),
        });
        let scope =
            Scope { pool: self, state: Arc::clone(&state), scope: PhantomData, env: PhantomData };

        // Run the body. Even if it panics, every already-spawned task
        // must finish before the panic unwinds past this frame — the
        // tasks borrow state owned by our caller.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));

        // Help drain the queue until the scope is empty. Tasks may keep
        // spawning successors; each successor is registered (`pending`
        // incremented) before its parent finishes, so `pending == 0`
        // really means the whole dependency tree has completed.
        loop {
            if lock(&state.sync).pending == 0 {
                break;
            }
            let task = lock(&self.injector.queue).pop_front();
            match task {
                Some(t) => {
                    self.helped.fetch_add(1, Ordering::Relaxed);
                    t()
                }
                None => {
                    // Queue empty: remaining scope tasks are running on
                    // other threads (and any tasks they spawn will be
                    // picked up by the workers). Wait for completion.
                    let mut st = lock(&state.sync);
                    while st.pending != 0 {
                        st = state.done.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    break;
                }
            }
        }

        let panic = lock(&state.sync).panic.take();
        match result {
            Err(p) => resume_unwind(p), // the body's own panic wins
            Ok(_) if panic.is_some() => resume_unwind(panic.expect("checked")),
            Ok(r) => r,
        }
    }
}

/// Completion state of one dynamic batch (see [`Pool::scope`]).
struct ScopeSync {
    /// Tasks spawned but not yet finished.
    pending: usize,
    /// First panic payload observed in any task.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct ScopeState {
    sync: Mutex<ScopeSync>,
    done: Condvar,
}

/// A handle for spawning tasks into a dynamic batch. Created by
/// [`Pool::scope`]; usable from the scope closure and from inside
/// spawned tasks (it is `Sync`, and tasks may capture `&Scope`).
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope Pool,
    state: Arc<ScopeState>,
    /// Invariance over `'scope` (the `std::thread::scope` trick): tasks
    /// may borrow the `Scope` itself, so the lifetime must not be
    /// allowed to shrink or grow through variance.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task into the scope's batch. Returns immediately; the
    /// task runs on the pool (or on a helping submitter). May be called
    /// from inside another task of the same scope — that is the
    /// pipelining primitive: a completing stage spawns the next one.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        // Register before enqueueing: the count must never under-report
        // while a task of this scope is queued or running.
        lock(&self.state.sync).pending += 1;

        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(f));
            let mut st = lock(&state.sync);
            if let Err(p) = out {
                if st.panic.is_none() {
                    st.panic = Some(p);
                }
            }
            st.pending -= 1;
            if st.pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: the same scoped-lifetime erasure as in `Pool::run`,
        // with the spawn-from-task wrinkle: `Pool::scope` does not
        // return before `pending` reaches zero, a task spawned from
        // another task increments `pending` before its parent's
        // decrement (the spawn happens while the parent is still
        // executing), and the decrement is each job's final action — so
        // `pending == 0` implies every job closure has finished
        // executing and no erased borrow (of `'env` data or of the
        // `'scope` `Scope` itself) is used after `scope` returns.
        let job: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(job) };
        let mut q = lock(&self.pool.injector.queue);
        q.push_back(job);
        drop(q);
        self.pool.injector.available.notify_one();
    }
}

fn worker_loop(inj: &Injector, executed: &AtomicU64) {
    loop {
        let task = {
            let mut q = lock(&inj.queue);
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = inj.available.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        executed.fetch_add(1, Ordering::Relaxed);
        // Panics are contained per-task by the submitting side's
        // `catch_unwind`; a worker thread never unwinds.
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_batch_in_order() {
        let data = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let out = global().run(data.iter().map(|&x| move || x * 2).collect());
        assert_eq!(out, vec![6, 2, 8, 2, 10, 18, 4, 12]);
    }

    #[test]
    fn borrows_local_data() {
        let text = String::from("scoped");
        let s: &str = &text;
        let out = global().run((0..4).map(|i| move || format!("{s}-{i}")).collect());
        assert_eq!(out, vec!["scoped-0", "scoped-1", "scoped-2", "scoped-3"]);
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<u32> = global().run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
        let out = global().run(vec![|| 7u32]);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn nested_batches_complete() {
        // Outer batch larger than the worker count, each task running an
        // inner batch: requires help-execution to terminate on any pool
        // size (including a single worker).
        let outer = 2 * global().workers() + 2;
        let counter = AtomicUsize::new(0);
        let out = global().run(
            (0..outer)
                .map(|i| {
                    let counter = &counter;
                    move || {
                        let inner: usize =
                            global().run((0..4).map(|j| move || i * j).collect()).iter().sum();
                        counter.fetch_add(1, Ordering::Relaxed);
                        inner
                    }
                })
                .collect(),
        );
        assert_eq!(counter.load(Ordering::Relaxed), outer);
        assert_eq!(out.len(), outer);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 6);
        }
    }

    #[test]
    fn scope_joins_all_spawned_tasks() {
        let counter = AtomicUsize::new(0);
        global().scope(|s| {
            for _ in 0..64 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scope_tasks_spawn_pipeline_stages() {
        // Three-stage pipeline over 20 items: each stage task spawns its
        // successor, the way the batch engine chains parse → sweep →
        // analyze. All 60 stage executions must complete before `scope`
        // returns.
        let stages = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        global().scope(|s| {
            for i in 0..20usize {
                let (stages, finished) = (&stages, &finished);
                s.spawn(move || {
                    stages.fetch_add(1, Ordering::Relaxed);
                    s.spawn(move || {
                        stages.fetch_add(1, Ordering::Relaxed);
                        s.spawn(move || {
                            stages.fetch_add(1, Ordering::Relaxed);
                            finished.fetch_add(i, Ordering::Relaxed);
                        });
                    });
                });
            }
        });
        assert_eq!(stages.load(Ordering::Relaxed), 60);
        assert_eq!(finished.load(Ordering::Relaxed), (0..20).sum::<usize>());
    }

    #[test]
    fn scope_borrows_local_data_and_returns_value() {
        let data = vec![1u64, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        let label = global().scope(|s| {
            for &d in &data {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(d as usize, Ordering::Relaxed);
                });
            }
            "done"
        });
        assert_eq!(label, "done");
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn scope_task_panic_propagates_after_drain() {
        let finished = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            global().scope(|s| {
                for i in 0..6 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 2 {
                            panic!("stage exploded");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        }));
        assert!(res.is_err(), "task panic must propagate to the scope caller");
        assert_eq!(finished.load(Ordering::Relaxed), 5, "other tasks still ran");
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let out: u32 = global().scope(|_| 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn explicit_pool_width_and_counters() {
        // One long-lived explicit pool per width under test; workers are
        // detached, so pools must not be created per-case.
        static POOL4: OnceLock<Pool> = OnceLock::new();
        let pool = POOL4.get_or_init(|| Pool::with_workers(4));
        assert_eq!(pool.workers(), 4);
        let out = pool.run((0..32).map(|i| move || i * i).collect::<Vec<_>>());
        assert_eq!(out.len(), 32);
        let c = pool.counters();
        assert_eq!(c.per_worker.len(), 4);
        let total: u64 = c.per_worker.iter().sum::<u64>() + c.helped;
        assert!(total >= 32, "all 32 tasks were counted somewhere, got {total}");
    }

    #[test]
    fn with_workers_clamps_to_one() {
        static POOL0: OnceLock<Pool> = OnceLock::new();
        let pool = POOL0.get_or_init(|| Pool::with_workers(0));
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run(vec![|| 5u8, || 6u8]), vec![5, 6]);
    }

    #[test]
    fn pinned_pool_reports_placement() {
        static PINNED: OnceLock<Pool> = OnceLock::new();
        let pool = PINNED.get_or_init(|| Pool::with_workers_pinned(2, true));
        let out = pool.run((0..8).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(out.iter().sum::<i32>(), 36);
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            // Pinning happens as each worker thread starts, which races
            // this assertion (the helping submitter may have drained the
            // whole batch before the workers were even scheduled) — so
            // poll rather than read once.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while pool.counters().pinned < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(pool.counters().pinned, 2, "both workers pin on the supported target");
        } else {
            assert_eq!(pool.counters().pinned, 0);
        }
    }

    #[test]
    fn configure_global_after_first_use_is_refused() {
        let width = global().workers();
        // The pool above is already spawned, so reconfiguration to a
        // different width must report failure and change nothing.
        assert!(!configure_global(width + 1));
        assert_eq!(global().workers(), width);
    }

    #[test]
    fn panic_propagates_after_batch_drains() {
        let finished = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            global().run(
                (0..6)
                    .map(|i| {
                        let finished = &finished;
                        move || {
                            if i == 3 {
                                panic!("task 3 exploded");
                            }
                            finished.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(res.is_err(), "panic must propagate to the submitter");
        assert_eq!(finished.load(Ordering::Relaxed), 5, "other tasks still ran");
    }
}
