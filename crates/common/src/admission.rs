//! Global admission control: gate query start against capacity and
//! memory headroom, with a bounded FIFO wait queue and typed shed-load
//! errors.
//!
//! The single-query robustness machinery (guards, budgets, spill) keeps
//! *one* statement bounded; the [`AdmissionController`] is what lets many
//! sessions share one engine safely. Every plan-executing statement asks
//! for an [`AdmissionPermit`] before touching the executor:
//!
//! * if fewer than `max_concurrent` queries are running, the queue is
//!   empty, and the [`MemoryGate`] reports headroom, the query is
//!   admitted immediately;
//! * otherwise it joins a **bounded FIFO queue** — arriving when the
//!   queue is already at `queue_limit` sheds the query right away with
//!   [`Error::Overloaded`] (bounded latency beats unbounded backlog);
//! * a queued interactive query (see [`QueryClass`]) that waits past the
//!   admission timeout is shed with [`Error::AdmissionTimeout`]; a batch
//!   query waits without a bound;
//! * once draining ([`AdmissionController::begin_drain`]), every new or
//!   queued query is shed with [`Error::ShuttingDown`] while in-flight
//!   permits run to completion.
//!
//! The permit is RAII: dropping it (success *or* any error path,
//! including a killed connection whose guard cancelled the query)
//! releases the slot and wakes the next waiter, so a shed or dead query
//! can never leak capacity. FIFO is strict: only the queue's front
//! ticket may admit, so a memory-blocked front blocks everyone behind it
//! rather than starving.
//!
//! Deadlock note: the memory gate is ignored when nothing is running —
//! if zero queries are active, nothing will ever release memory, so the
//! front waiter is admitted regardless and the spill machinery deals
//! with pressure inside the query.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// Scheduling class of one statement, decided from its plan shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Point/OLTP-ish work: no loop operator in the plan. Gets the
    /// `admission_timeout_ms`.
    Interactive,
    /// Iterative/analytical work: the plan contains a loop operator.
    /// Waits in the queue without a bound.
    Batch,
}

impl QueryClass {
    /// Stable lowercase name (observability, artifacts).
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Batch => "batch",
        }
    }
}

/// Memory-headroom source consulted at admission time. Implemented by
/// the engine over its spill environment's `MemoryAccountant`; kept as a
/// trait so this crate stays below the storage layer.
pub trait MemoryGate: Send + Sync + std::fmt::Debug {
    /// Whether tracked resident intermediate bytes currently exceed the
    /// spill high-water mark. `true` defers admission (unless nothing is
    /// running — see the module docs' deadlock note).
    fn over_threshold(&self) -> bool;
}

/// Point-in-time view of the controller (observability, leak checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionSnapshot {
    /// Queries currently holding a permit.
    pub active: u64,
    /// Queries currently waiting in the FIFO queue.
    pub queued: u64,
    /// Permits granted since construction.
    pub admitted_total: u64,
    /// Queries shed because the queue was full.
    pub shed_overloaded: u64,
    /// Queries shed because their admission timeout expired.
    pub shed_timeout: u64,
    /// Queries shed because the controller was draining.
    pub shed_shutdown: u64,
    /// Deepest the wait queue has ever been.
    pub peak_queue_depth: u64,
}

impl AdmissionSnapshot {
    /// Total shed decisions of any kind.
    pub fn shed_total(&self) -> u64 {
        self.shed_overloaded + self.shed_timeout + self.shed_shutdown
    }
}

/// Mutable controller state under one lock; the condvar signals slot
/// releases, queue movement and drain.
#[derive(Debug, Default)]
struct State {
    active: u64,
    queue: VecDeque<u64>,
    next_ticket: u64,
    draining: bool,
    admitted_total: u64,
    shed_overloaded: u64,
    shed_timeout: u64,
    shed_shutdown: u64,
    peak_queue_depth: u64,
}

/// Gates query start for one engine. See the [module docs](self).
#[derive(Debug)]
pub struct AdmissionController {
    max_concurrent: u64,
    queue_limit: u64,
    interactive_timeout: Option<Duration>,
    memory: Option<Arc<dyn MemoryGate>>,
    state: Mutex<State>,
    changed: Condvar,
}

/// Memory headroom can change without a permit release (spills run
/// inside queries), so blocked waiters re-poll at this cadence instead
/// of trusting the condvar alone.
const MEMORY_POLL: Duration = Duration::from_millis(10);

impl AdmissionController {
    /// Controller admitting at most `max_concurrent` queries, queueing at
    /// most `queue_limit` more, with an admission timeout for interactive
    /// queries and an optional memory-headroom gate.
    pub fn new(
        max_concurrent: usize,
        queue_limit: usize,
        interactive_timeout_ms: Option<u64>,
        memory: Option<Arc<dyn MemoryGate>>,
    ) -> Self {
        AdmissionController {
            max_concurrent: max_concurrent.max(1) as u64,
            queue_limit: queue_limit as u64,
            interactive_timeout: interactive_timeout_ms.map(Duration::from_millis),
            memory,
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
        }
    }

    /// The configured concurrency cap.
    pub fn max_concurrent(&self) -> u64 {
        self.max_concurrent
    }

    /// Lock the state, recovering from poison: the critical sections
    /// below only move plain counters and a `VecDeque`, which stay
    /// consistent across an unwinding waiter.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn memory_ok(&self, st: &State) -> bool {
        // Never memory-block an idle engine: with nothing running,
        // nothing will release memory, so waiting would deadlock.
        st.active == 0
            || match &self.memory {
                Some(gate) => !gate.over_threshold(),
                None => true,
            }
    }

    fn timeout_for(&self, class: QueryClass) -> Option<Duration> {
        match class {
            QueryClass::Interactive => self.interactive_timeout,
            QueryClass::Batch => None,
        }
    }

    /// Ask to start a query of `class`. Blocks (bounded by the class's
    /// admission timeout) until admitted; returns the RAII permit, or a
    /// typed shed error ([`Error::Overloaded`], [`Error::AdmissionTimeout`],
    /// [`Error::ShuttingDown`]).
    pub fn admit(self: &Arc<Self>, class: QueryClass) -> Result<AdmissionPermit> {
        let started = Instant::now();
        let limit = self.timeout_for(class);
        let mut st = self.lock();
        if st.draining {
            st.shed_shutdown += 1;
            return Err(Error::ShuttingDown);
        }
        // Fast path: free slot, nobody queued ahead, memory headroom.
        if st.queue.is_empty() && st.active < self.max_concurrent && self.memory_ok(&st) {
            st.active += 1;
            st.admitted_total += 1;
            return Ok(AdmissionPermit {
                controller: Arc::clone(self),
                waited_us: 0,
                queue_depth: 0,
                class,
            });
        }
        if st.queue.len() as u64 >= self.queue_limit {
            let shed = Error::Overloaded {
                active: st.active,
                queued: st.queue.len() as u64,
                limit: self.queue_limit,
            };
            st.shed_overloaded += 1;
            return Err(shed);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        let queue_depth = st.queue.len() as u64;
        st.peak_queue_depth = st.peak_queue_depth.max(queue_depth);
        loop {
            if st.draining {
                st.queue.retain(|&t| t != ticket);
                st.shed_shutdown += 1;
                self.changed.notify_all();
                return Err(Error::ShuttingDown);
            }
            if st.queue.front() == Some(&ticket)
                && st.active < self.max_concurrent
                && self.memory_ok(&st)
            {
                st.queue.pop_front();
                st.active += 1;
                st.admitted_total += 1;
                // The next ticket in line may also be admittable.
                self.changed.notify_all();
                return Ok(AdmissionPermit {
                    controller: Arc::clone(self),
                    waited_us: started.elapsed().as_micros() as u64,
                    queue_depth,
                    class,
                });
            }
            let mut wait = MEMORY_POLL;
            if let Some(limit) = limit {
                let elapsed = started.elapsed();
                if elapsed >= limit {
                    st.queue.retain(|&t| t != ticket);
                    st.shed_timeout += 1;
                    self.changed.notify_all();
                    return Err(Error::AdmissionTimeout {
                        waited_ms: elapsed.as_millis() as u64,
                        limit_ms: limit.as_millis() as u64,
                    });
                }
                wait = wait.min(limit - elapsed);
            }
            let (guard, _) = self
                .changed
                .wait_timeout(st, wait)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Release one permit's slot (called by [`AdmissionPermit::drop`]).
    fn release(&self) {
        let mut st = self.lock();
        st.active = st.active.saturating_sub(1);
        self.changed.notify_all();
    }

    /// Stop admitting: every subsequent or queued `admit` fails with
    /// [`Error::ShuttingDown`]; in-flight permits finish normally.
    pub fn begin_drain(&self) {
        let mut st = self.lock();
        st.draining = true;
        self.changed.notify_all();
    }

    /// Block until no permits are outstanding, up to `timeout`. Returns
    /// whether the controller went idle in time.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while st.active > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        true
    }

    /// Current counters. `active == 0 && queued == 0` after a workload
    /// completes is the no-leaked-slots invariant the CI gate checks.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let st = self.lock();
        AdmissionSnapshot {
            active: st.active,
            queued: st.queue.len() as u64,
            admitted_total: st.admitted_total,
            shed_overloaded: st.shed_overloaded,
            shed_timeout: st.shed_timeout,
            shed_shutdown: st.shed_shutdown,
            peak_queue_depth: st.peak_queue_depth,
        }
    }
}

/// RAII admission slot: held for the duration of one statement, released
/// (waking the next waiter) on drop — every exit path, including panics
/// and cancelled queries, gives the slot back.
#[derive(Debug)]
pub struct AdmissionPermit {
    controller: Arc<AdmissionController>,
    waited_us: u64,
    queue_depth: u64,
    class: QueryClass,
}

impl AdmissionPermit {
    /// Microseconds spent waiting in the admission queue (0 = fast path).
    pub fn waited_us(&self) -> u64 {
        self.waited_us
    }

    /// Queue depth at enqueue time (0 = admitted on the fast path).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth
    }

    /// The class this permit was admitted under.
    pub fn class(&self) -> QueryClass {
        self.class
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.controller.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn controller(max: usize, queue: usize) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(max, queue, None, None))
    }

    #[test]
    fn fast_path_admits_up_to_capacity() {
        let c = controller(2, 4);
        let a = c.admit(QueryClass::Interactive).unwrap();
        let b = c.admit(QueryClass::Batch).unwrap();
        assert_eq!(a.waited_us(), 0);
        assert_eq!(b.queue_depth(), 0);
        let snap = c.snapshot();
        assert_eq!(snap.active, 2);
        assert_eq!(snap.admitted_total, 2);
        drop(a);
        drop(b);
        assert_eq!(c.snapshot().active, 0, "permits release on drop");
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let c = Arc::new(AdmissionController::new(1, 0, Some(50), None));
        let _held = c.admit(QueryClass::Interactive).unwrap();
        match c.admit(QueryClass::Interactive) {
            Err(Error::Overloaded {
                active,
                queued,
                limit,
            }) => {
                assert_eq!(active, 1);
                assert_eq!(queued, 0);
                assert_eq!(limit, 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(c.snapshot().shed_overloaded, 1);
    }

    #[test]
    fn queued_query_times_out_with_admission_timeout() {
        let c = Arc::new(AdmissionController::new(1, 4, Some(30), None));
        let _held = c.admit(QueryClass::Interactive).unwrap();
        let started = Instant::now();
        match c.admit(QueryClass::Interactive) {
            Err(Error::AdmissionTimeout {
                waited_ms,
                limit_ms,
            }) => {
                assert_eq!(limit_ms, 30);
                assert!(waited_ms >= 30, "waited {waited_ms} < limit");
            }
            other => panic!("expected AdmissionTimeout, got {other:?}"),
        }
        assert!(started.elapsed() >= Duration::from_millis(30));
        let snap = c.snapshot();
        assert_eq!(snap.shed_timeout, 1);
        assert_eq!(snap.queued, 0, "timed-out ticket left the queue");
    }

    #[test]
    fn classes_use_their_own_timeouts() {
        // Only interactive queries time out: with the slot held, the
        // 20ms interactive class sheds, the batch class eventually
        // admits.
        let c = Arc::new(AdmissionController::new(1, 4, Some(20), None));
        let held = c.admit(QueryClass::Batch).unwrap();
        let c2 = Arc::clone(&c);
        let batch = std::thread::spawn(move || c2.admit(QueryClass::Batch).map(|p| p.waited_us()));
        assert!(matches!(
            c.admit(QueryClass::Interactive),
            Err(Error::AdmissionTimeout { .. })
        ));
        drop(held);
        let waited = batch.join().unwrap().expect("batch admits after release");
        assert!(waited > 0, "batch permit waited in the queue");
    }

    #[test]
    fn release_admits_the_next_waiter_in_fifo_order() {
        let c = controller(1, 8);
        let first = c.admit(QueryClass::Interactive).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        // Waiter `i` is started once the ones before it are queued, so the
        // queue holds them in the order they were started.
        let queued = |n: u64| {
            while c.snapshot().queued < n {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let mut waiters = Vec::new();
        for i in 0..3 {
            queued(i);
            let c = Arc::clone(&c);
            let order = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let permit = c.admit(QueryClass::Batch).unwrap();
                order.lock().unwrap().push(i);
                drop(permit);
            }));
        }
        queued(3);
        drop(first);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "strict FIFO");
        let snap = c.snapshot();
        assert_eq!(snap.active, 0);
        assert_eq!(snap.queued, 0);
        assert_eq!(snap.admitted_total, 4);
        assert!(snap.peak_queue_depth >= 2);
    }

    #[test]
    fn drain_sheds_new_and_queued_queries_but_not_running_ones() {
        let c = controller(1, 8);
        let held = c.admit(QueryClass::Interactive).unwrap();
        let c2 = Arc::clone(&c);
        let queued =
            std::thread::spawn(move || c2.admit(QueryClass::Batch).map(|p| p.queue_depth()));
        std::thread::sleep(Duration::from_millis(20));
        c.begin_drain();
        assert!(matches!(queued.join().unwrap(), Err(Error::ShuttingDown)));
        assert!(matches!(
            c.admit(QueryClass::Interactive),
            Err(Error::ShuttingDown)
        ));
        // The in-flight permit still counts until dropped.
        assert!(!c.wait_idle(Duration::from_millis(10)));
        drop(held);
        assert!(c.wait_idle(Duration::from_millis(200)));
        assert_eq!(c.snapshot().shed_shutdown, 2);
    }

    #[derive(Debug)]
    struct FlagGate(AtomicBool);

    impl MemoryGate for FlagGate {
        fn over_threshold(&self) -> bool {
            self.0.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn memory_pressure_defers_admission_unless_idle() {
        let gate = Arc::new(FlagGate(AtomicBool::new(true)));
        let c = Arc::new(AdmissionController::new(
            2,
            8,
            Some(40),
            Some(Arc::clone(&gate) as Arc<dyn MemoryGate>),
        ));
        // Idle engine: admitted despite pressure (deadlock avoidance).
        let first = c.admit(QueryClass::Interactive).unwrap();
        // Busy engine + pressure: the second query waits and times out.
        assert!(matches!(
            c.admit(QueryClass::Interactive),
            Err(Error::AdmissionTimeout { .. })
        ));
        // Pressure clears: the next query sails through.
        gate.0.store(false, Ordering::Relaxed);
        let second = c.admit(QueryClass::Interactive).unwrap();
        drop(first);
        drop(second);
        assert_eq!(c.snapshot().active, 0);
    }

    #[test]
    fn snapshot_shed_total_sums_all_kinds() {
        let s = AdmissionSnapshot {
            shed_overloaded: 1,
            shed_timeout: 2,
            shed_shutdown: 3,
            ..Default::default()
        };
        assert_eq!(s.shed_total(), 6);
    }
}
