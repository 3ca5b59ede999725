//! Persistent worker pool for parallel partition execution.
//!
//! Spawning a scoped OS thread for every partition of every operator
//! invocation costs dozens of spawns *per iteration* of an iterative
//! CTE. This module keeps a fixed set of long-lived workers (one per
//! configured partition) alive for the lifetime of a `Database` and
//! hands them per-partition closures instead, so the steady-state loop
//! body spawns zero threads. It is the engine's only parallel path.
//!
//! [`WorkerPool::scope`] has `std::thread::scope` semantics: it accepts
//! non-`'static` closures, blocks until every submitted task has
//! finished, and reports each task's outcome as a
//! [`std::thread::Result`] (`Err(payload)` on panic), so panic isolation
//! looks to the caller like joining a thread. The closures submitted by
//! the operators run `run_partition`, which checks the `QueryGuard` and
//! drives the per-partition retry.
//!
//! Two multi-session robustness properties live here:
//!
//! * **Fairness.** Each `scope` call forms its own task *group*; workers
//!   pop one task from the front group then rotate it to the back, so
//!   concurrent statements round-robin the pool — a 50-iteration loop
//!   submitting 8 tasks per operator cannot starve a point query that
//!   arrived behind it.
//! * **Stall deadline.** If no task of a scope completes for 60 s
//!   (`STALL_TIMEOUT_MS`), the scope reclaims its still-queued tasks
//!   (they never started, so dropping them is safe), finishes waiting
//!   for the ones already running, and surfaces a typed
//!   [`Error::PoolStalled`] instead of hanging the coordinator forever
//!   on a latch nobody will decrement.
//!
//! Lock poisoning never aborts the process: workers and scope recover
//! the guard with [`std::sync::PoisonError::into_inner`] (the protected
//! state is a plain deque plus counters, consistent at every await
//! point), and a scope whose *result slots* were poisoned degrades into
//! a typed [`Error::WorkerPanicked`] for that one query.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spinner_common::{Error, Result};

/// A queued unit of work. Tasks are lifetime-erased to `'static`; the
/// safety argument lives in [`WorkerPool::scope`].
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Pending tasks grouped by submitting scope, drained round-robin.
struct FairQueue {
    /// One entry per scope with queued work: `(group id, its tasks)`.
    /// Workers pop from the front group, then rotate it to the back.
    groups: VecDeque<(u64, VecDeque<Task>)>,
    /// Set once on pool drop; guarded with the groups so a worker never
    /// misses a shutdown edge between checks.
    shutdown: bool,
}

impl FairQueue {
    /// Total queued tasks across all groups.
    fn len(&self) -> usize {
        self.groups.iter().map(|(_, t)| t.len()).sum()
    }

    /// Pop one task round-robin: take from the front group, rotate it to
    /// the back if it still has work, drop it if now empty.
    fn pop(&mut self) -> Option<Task> {
        while let Some((gid, mut tasks)) = self.groups.pop_front() {
            if let Some(task) = tasks.pop_front() {
                if !tasks.is_empty() {
                    self.groups.push_back((gid, tasks));
                }
                return Some(task);
            }
        }
        None
    }

    /// Remove (and drop) every still-queued task of `gid`, returning how
    /// many were reclaimed. Tasks already popped by a worker are running
    /// and unaffected.
    fn reclaim(&mut self, gid: u64) -> usize {
        let mut reclaimed = 0;
        self.groups.retain_mut(|(g, tasks)| {
            if *g == gid {
                reclaimed += tasks.len();
                false
            } else {
                true
            }
        });
        reclaimed
    }
}

/// Queue state shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<FairQueue>,
    /// Signalled when tasks arrive or shutdown begins.
    available: Condvar,
}

impl Shared {
    /// Lock the queue, recovering from poison: every critical section
    /// over it only moves boxes between deques and flips flags, so the
    /// state is consistent even if a holder unwound.
    fn lock_queue(&self) -> MutexGuard<'_, FairQueue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Per-`scope` completion state: result slots plus a countdown latch.
struct ScopeState<R> {
    /// `(slot per task, tasks still outstanding)` under one lock so the
    /// final decrement and the waiter's check cannot interleave badly.
    slots: Mutex<(Vec<Option<std::thread::Result<R>>>, usize)>,
    /// Signalled when a task of the scope finishes.
    done: Condvar,
    /// Set when the slots lock was ever poisoned: results may be torn,
    /// so the scope returns a typed error instead of trusting them.
    poisoned: AtomicBool,
}

impl<R> ScopeState<R> {
    fn lock_slots(&self) -> MutexGuard<'_, (Vec<Option<std::thread::Result<R>>>, usize)> {
        self.slots.lock().unwrap_or_else(|e| {
            self.poisoned.store(true, Ordering::Relaxed);
            e.into_inner()
        })
    }
}

/// How long a scope waits without any of its tasks completing before it
/// reclaims the queued ones and fails with [`Error::PoolStalled`].
const STALL_TIMEOUT_MS: u64 = 60_000;

/// A fixed-size pool of long-lived worker threads executing scoped tasks.
///
/// Created once per `Database` (from `EngineConfig::partitions`) and
/// shared by every statement; dropped (joining its workers) when the
/// database reconfigures or shuts down.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    stall_timeout: Duration,
    next_group: AtomicU64,
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one) that live until the pool is
    /// dropped, with the 60 s `STALL_TIMEOUT_MS` scope stall deadline.
    pub fn new(threads: usize) -> Self {
        WorkerPool::with_stall_timeout(threads, STALL_TIMEOUT_MS)
    }

    /// Like [`WorkerPool::new`] with an explicit scope stall deadline in
    /// milliseconds.
    pub fn with_stall_timeout(threads: usize, stall_ms: u64) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(FairQueue {
                groups: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spinner-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
            stall_timeout: Duration::from_millis(stall_ms.max(1)),
            next_group: AtomicU64::new(0),
        }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Tasks currently queued (not yet picked up by a worker).
    pub fn queued_tasks(&self) -> usize {
        self.shared.lock_queue().len()
    }

    /// Run every closure in `tasks` on the pool, blocking until all have
    /// finished, and return their outcomes in submission order.
    ///
    /// A task that panics yields `Err(payload)` — the panic is caught on
    /// the worker (which survives and keeps serving tasks) and surfaced
    /// here exactly like a thread-handle join, for the caller to translate
    /// into `WorkerPanicked`.
    ///
    /// The call itself fails with [`Error::PoolStalled`] if no task of
    /// this scope makes progress for the pool's stall deadline while some
    /// of its tasks are still queued (a lost-task bug or a wedged pool) —
    /// the queued tasks are reclaimed so the coordinator gets a typed
    /// error instead of waiting forever — and with
    /// [`Error::WorkerPanicked`] if the scope's result slots were
    /// poisoned, as the outcomes may be torn.
    pub fn scope<'env, R, F>(&self, tasks: Vec<F>) -> Result<Vec<std::thread::Result<R>>>
    where
        R: Send + 'env,
        F: FnOnce() -> R + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let gid = self.next_group.fetch_add(1, Ordering::Relaxed);
        let state: Arc<ScopeState<R>> = Arc::new(ScopeState {
            slots: Mutex::new(((0..n).map(|_| None).collect(), n)),
            done: Condvar::new(),
            poisoned: AtomicBool::new(false),
        });
        {
            let mut group: VecDeque<Task> = VecDeque::with_capacity(n);
            for (i, task) in tasks.into_iter().enumerate() {
                let state = Arc::clone(&state);
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    let mut slots = state.lock_slots();
                    slots.0[i] = Some(outcome);
                    slots.1 -= 1;
                    state.done.notify_all();
                });
                // SAFETY: the queue requires `'static` tasks but `wrapped`
                // borrows from `'env`. This function does not return until
                // every task enqueued here has either run to completion
                // (countdown latch) or been *reclaimed from the queue and
                // dropped* before ever running (stall path) — so no `'env`
                // borrow is ever used after `'env` ends. The transmute only
                // erases the lifetime; layout is identical. This is the
                // standard scoped-pool technique (`std::thread::scope` does
                // the morally equivalent erasure internally).
                let wrapped: Task = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(wrapped)
                };
                group.push_back(wrapped);
            }
            let mut queue = self.shared.lock_queue();
            queue.groups.push_back((gid, group));
            self.shared.available.notify_all();
        }
        let started = Instant::now();
        let mut last_progress = Instant::now();
        let mut reclaim_attempted = false;
        let mut reclaimed = 0usize;
        let mut slots = state.lock_slots();
        let mut last_remaining = slots.1;
        while slots.1 > 0 {
            if slots.1 < last_remaining {
                last_remaining = slots.1;
                last_progress = Instant::now();
            }
            if !reclaim_attempted && last_progress.elapsed() >= self.stall_timeout {
                // No completion for a full stall window. Pull back our
                // still-queued tasks (they never started; dropping them is
                // safe because `'env` is still alive right here), then keep
                // waiting for the running ones — returning while a worker
                // still holds an `'env` borrow would be unsound.
                reclaim_attempted = true;
                drop(slots);
                reclaimed = self.shared.lock_queue().reclaim(gid);
                slots = state.lock_slots();
                slots.1 -= reclaimed;
                last_remaining = last_remaining.saturating_sub(reclaimed);
                continue;
            }
            let wait = if reclaim_attempted {
                // Only running tasks remain; they decrement the latch when
                // they finish, so the timeout is just spurious-wakeup
                // hygiene.
                Duration::from_millis(50)
            } else {
                self.stall_timeout
                    .saturating_sub(last_progress.elapsed())
                    .max(Duration::from_millis(1))
            };
            let (guard, _) = state.done.wait_timeout(slots, wait).unwrap_or_else(|e| {
                state.poisoned.store(true, Ordering::Relaxed);
                e.into_inner()
            });
            slots = guard;
        }
        if reclaimed > 0 {
            return Err(Error::PoolStalled {
                waited_ms: started.elapsed().as_millis() as u64,
                pending_tasks: reclaimed as u64,
            });
        }
        if state.poisoned.load(Ordering::Relaxed) {
            return Err(Error::WorkerPanicked {
                partition: usize::MAX,
                message: "scope result slots poisoned; outcomes discarded".into(),
            });
        }
        Ok(slots
            .0
            .drain(..)
            .map(|r| r.expect("latch guarantees every slot is filled"))
            .collect())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.lock_queue();
            queue.shutdown = true;
            self.shared.available.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Worker body: pop and run tasks until shutdown. The pop loop drains any
/// remaining queued tasks before honouring shutdown so a racing `scope`
/// caller is never left waiting on a latch nobody will decrement. Lock
/// poisoning is recovered, never propagated — a worker must outlive any
/// panicking task.
fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(task) = queue.pop() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // Belt-and-braces: scope's wrapper already catches panics, but a
        // worker must never die (or poison anything) even if a future task
        // kind forgets to.
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn scope_runs_all_tasks_and_preserves_order() {
        let pool = WorkerPool::new(4);
        let data = [1i64, 2, 3, 4, 5, 6, 7, 8];
        let tasks: Vec<_> = data.iter().map(|&x| move || x * 10).collect();
        let results: Vec<i64> = pool
            .scope(tasks)
            .unwrap()
            .into_iter()
            .map(|r| r.expect("no panic"))
            .collect();
        assert_eq!(results, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn tasks_run_on_pool_threads_not_the_caller() {
        let pool = WorkerPool::new(2);
        let names: Vec<String> = pool
            .scope(vec![
                || std::thread::current().name().unwrap_or("").to_string(),
                || std::thread::current().name().unwrap_or("").to_string(),
            ])
            .unwrap()
            .into_iter()
            .map(|r| r.expect("no panic"))
            .collect();
        for name in names {
            assert!(
                name.starts_with("spinner-worker-"),
                "task ran on {name:?}, not a pool worker"
            );
        }
    }

    #[test]
    fn panicking_task_is_isolated_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let outcomes = pool
            .scope(vec![
                Box::new(|| 1i64) as Box<dyn FnOnce() -> i64 + Send>,
                Box::new(|| panic!("boom")),
                Box::new(|| 3i64),
            ])
            .unwrap();
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err());
        assert!(outcomes[2].is_ok());
        // The pool keeps working after a task panicked.
        let again = pool.scope(vec![|| 7i64]).unwrap();
        assert_eq!(*again[0].as_ref().expect("pool survived"), 7);
    }

    #[test]
    fn scope_borrows_caller_state() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..16)
            .map(|_| {
                let counter = &counter;
                move || counter.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        let results = pool.scope(tasks).unwrap();
        assert_eq!(results.len(), 16);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn empty_scope_is_a_no_op() {
        let pool = WorkerPool::new(1);
        let results: Vec<std::thread::Result<()>> = pool.scope(Vec::<fn()>::new()).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn concurrent_scopes_from_multiple_threads_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let tasks: Vec<_> = (0..8).map(|i| move || (t * 100 + i) as i64).collect();
                    pool.scope(tasks)
                        .unwrap()
                        .into_iter()
                        .map(|r| r.expect("no panic"))
                        .sum::<i64>()
                })
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let expected: i64 = (0..8).map(|i| (t as i64) * 100 + i).sum();
            assert_eq!(handle.join().expect("scope thread"), expected);
        }
    }

    #[test]
    fn dispatch_round_robins_across_concurrent_scopes() {
        // One worker, two scopes: scope A is enqueued first with many
        // tasks, scope B second with one. With FIFO dispatch B would wait
        // for all of A; round-robin runs B's single task after at most
        // one A task.
        let pool = Arc::new(WorkerPool::new(1));
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let block_rx = Mutex::new(block_rx);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let pool_a = Arc::clone(&pool);
        let order_a = Arc::clone(&order);
        let scope_a = std::thread::spawn(move || {
            let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            // First task parks the lone worker until released, guaranteeing
            // scope B enqueues while A still has queued tasks.
            tasks.push(Box::new(move || {
                started_tx.send(()).unwrap();
                let _ = block_rx.lock().unwrap().recv();
            }));
            for _ in 0..4 {
                let order = Arc::clone(&order_a);
                tasks.push(Box::new(move || order.lock().unwrap().push("A")));
            }
            pool_a.scope(tasks).unwrap();
        });
        // Only proceed once the lone worker is parked *inside* A's first
        // task — a queue-depth check alone can be satisfied by the five
        // not-yet-started tasks, letting the release below fire before B
        // ever enqueues.
        started_rx.recv().unwrap();
        let pool_b = Arc::clone(&pool);
        let order_b = Arc::clone(&order);
        let scope_b = std::thread::spawn(move || {
            let order = Arc::clone(&order_b);
            pool_b
                .scope(vec![
                    Box::new(move || order.lock().unwrap().push("B")) as Box<dyn FnOnce() + Send>
                ])
                .unwrap();
        });
        // Wait until B's task is queued too, then release the worker.
        while pool.queued_tasks() < 5 {
            std::thread::yield_now();
        }
        block_tx.send(()).unwrap();
        scope_a.join().unwrap();
        scope_b.join().unwrap();
        let order = order.lock().unwrap();
        let b_pos = order.iter().position(|&s| s == "B").expect("B ran");
        assert!(
            b_pos <= 1,
            "round-robin should run B after at most one A task, order: {order:?}"
        );
    }

    #[test]
    fn stalled_scope_reclaims_queued_tasks_with_typed_error() {
        // One worker parked on scope A; scope B's tasks can never start,
        // so B must stall out with PoolStalled instead of hanging.
        let pool = Arc::new(WorkerPool::with_stall_timeout(1, 100));
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let block_rx = Mutex::new(block_rx);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let pool_a = Arc::clone(&pool);
        let scope_a = std::thread::spawn(move || {
            pool_a
                .scope(vec![Box::new(move || {
                    started_tx.send(()).unwrap();
                    let _ = block_rx.lock().unwrap().recv();
                }) as Box<dyn FnOnce() + Send>])
                .unwrap();
        });
        // Only proceed once the lone worker is parked inside A's task.
        started_rx.recv().unwrap();
        let err = pool
            .scope(vec![|| 1i64, || 2, || 3])
            .expect_err("starved scope must stall out");
        match err {
            Error::PoolStalled {
                waited_ms,
                pending_tasks,
            } => {
                assert!(waited_ms >= 100, "stalled after {waited_ms} ms");
                assert_eq!(pending_tasks, 3, "all three tasks were reclaimed");
            }
            other => panic!("expected PoolStalled, got {other:?}"),
        }
        block_tx.send(()).unwrap();
        scope_a.join().unwrap();
        // The pool is healthy again once the wedge clears.
        let again = pool.scope(vec![|| 7i64]).unwrap();
        assert_eq!(*again[0].as_ref().expect("pool recovered"), 7);
    }

    #[test]
    fn queue_poison_is_recovered_not_propagated() {
        let pool = WorkerPool::new(2);
        // Poison the queue mutex from a thread that panics while holding it.
        let res = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = pool.shared.queue.lock().unwrap();
                panic!("poison the pool queue");
            })
            .join()
        });
        assert!(res.is_err(), "the poisoning thread panicked");
        assert!(pool.shared.queue.is_poisoned());
        // The pool still schedules and completes work.
        let results = pool.scope(vec![|| 21i64, || 21]).unwrap();
        let total: i64 = results.into_iter().map(|r| r.unwrap()).sum();
        assert_eq!(total, 42);
    }
}
