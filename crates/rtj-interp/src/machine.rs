//! The machine: the state of a run, owned by whichever program thread
//! holds the scheduler's token, plus a deterministic cooperative
//! scheduler that hands it on.
//!
//! Program threads map to OS threads, but only the **token holder** ever
//! executes, and it owns the whole run state ([`State`]: the region
//! runtime, the thread table, the token, the halt flag and the step
//! budget) as a plain value. Both engines call [`Runtime`] on it
//! directly: ownership, not a lock, makes the holder's access exclusive.
//!
//! At each *safepoint* the holder runs the scheduling policy on the state
//! it owns: real-time threads first, then round-robin. A run with one
//! program thread, no halt and an idle collector can only keep the
//! token, so its safepoints return without running the policy at all.
//! When the policy keeps the token with the caller, as at every
//! safepoint of a program that never forks, the safepoint returns
//! without touching a lock, an atomic or a condition variable. Only a
//! real switch parks the state in the [`Machine`]'s handoff slot, wakes
//! the one thread it is addressed to, and waits for a state addressed to
//! the caller.
//!
//! Every decision is a function of the state alone, so the interleaving
//! is fully deterministic on a single virtual clock:
//!
//! * a forked thread's first turn is the one it is handed, however late
//!   its OS thread starts;
//! * only the token holder polls the collector;
//! * after a halt, the state passes to each unfinished thread in
//!   thread-id order. Each observes the halt, unwinds, finishes and
//!   passes it on; the main thread ends up owning it.
//!
//! The garbage collector is a virtual participant: when a collection is in
//! progress, regular threads are simply not runnable until the collection
//! ends — real-time threads keep running, exactly as on the paper's RTSJ
//! platform. If *only* regular threads exist, the clock jumps over the
//! pause (and the pause is charged to the run).

use rtj_runtime::{Runtime, ThreadClass, ThreadId};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// An error that halts a run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The region runtime raised an error (failed check, LT overflow, …).
    Runtime(rtj_runtime::RtError),
    /// An interpreter-level error (null dereference, division by zero, …).
    Interp(String),
    /// The global step budget was exhausted (runaway loop guard).
    StepLimit,
    /// No thread could make progress.
    Deadlock,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Runtime(e) => write!(f, "runtime error: {e}"),
            RunError::Interp(m) => write!(f, "interpreter error: {m}"),
            RunError::StepLimit => write!(f, "step limit exhausted"),
            RunError::Deadlock => write!(f, "deadlock: no thread can make progress"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<rtj_runtime::RtError> for RunError {
    fn from(e: rtj_runtime::RtError) -> Self {
        RunError::Runtime(e)
    }
}

/// Why a thread may use the state: only the token holder executes.
pub(crate) const HOLDER: &str = "only the token holder executes";

/// Why the handoff slot's lock cannot be poisoned: no thread panics
/// while holding it.
const SLOT: &str = "the handoff slot is never held across a panic";

/// Scheduler-side thread state.
struct TState {
    class: ThreadClass,
    finished: bool,
    /// Signalled when the state is parked for this thread.
    wake: Arc<Condvar>,
    /// The OS thread of a forked program thread, joined by main.
    os: Option<JoinHandle<()>>,
}

impl TState {
    fn new(class: ThreadClass) -> TState {
        TState {
            class,
            finished: false,
            wake: Arc::new(Condvar::new()),
            os: None,
        }
    }
}

/// The state of a run, owned by the program thread that holds the token.
pub(crate) struct State {
    /// The region runtime (regions, objects, clock, metrics).
    pub(crate) rt: Runtime,
    threads: Vec<TState>,
    /// The thread that owns the state, or that it is parked for.
    token: usize,
    halted: Option<RunError>,
    steps: u64,
    max_steps: u64,
}

impl State {
    /// The state of a new run, owned by its main thread (thread 0).
    /// `max_steps` bounds total interpreter steps across all threads
    /// (0 = unlimited).
    pub(crate) fn new(rt: Runtime, max_steps: u64) -> Box<State> {
        Box::new(State {
            rt,
            threads: vec![TState::new(ThreadClass::Regular)],
            token: 0,
            halted: None,
            steps: 0,
            max_steps: if max_steps == 0 { u64::MAX } else { max_steps },
        })
    }

    /// Charges interpreter steps and enforces the step budget.
    #[inline]
    pub(crate) fn charge_steps(&mut self, cycles: u64, steps: u64) -> Result<(), RunError> {
        self.rt.charge(cycles);
        self.steps += steps;
        if self.steps > self.max_steps && self.halted.is_none() {
            self.halted = Some(RunError::StepLimit);
        }
        match &self.halted {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Halts every thread with the given error (first error wins).
    pub(crate) fn halt(&mut self, err: RunError) {
        if self.halted.is_none() {
            self.halted = Some(err);
        }
    }

    /// The error that halted the run, if any.
    pub(crate) fn halt_error(&self) -> Option<&RunError> {
        self.halted.as_ref()
    }

    /// Adds program thread `tid` to the thread table and returns its
    /// wake-up.
    fn register(&mut self, tid: ThreadId, class: ThreadClass) -> Arc<Condvar> {
        debug_assert_eq!(tid.0 as usize, self.threads.len());
        let t = TState::new(class);
        let wake = Arc::clone(&t.wake);
        self.threads.push(t);
        wake
    }

    /// Whether the policy can only keep the token: the run has one
    /// program thread, no halt, and no pending or running collection.
    fn keeps_token(&self) -> bool {
        self.threads.len() == 1 && self.halted.is_none() && self.rt.gc_idle()
    }

    fn runnable(&self, idx: usize, gc_blocking: bool) -> bool {
        let t = &self.threads[idx];
        !t.finished && (!gc_blocking || t.class != ThreadClass::Regular)
    }

    /// Picks the next thread to run: real-time threads first (round-robin
    /// among them), then round-robin over everything, starting after
    /// `cur`.
    fn pick_next(&self, cur: usize, gc_blocking: bool) -> Option<usize> {
        let n = self.threads.len();
        let mut first_any = None;
        for i in (1..=n).map(|d| (cur + d) % n) {
            if self.runnable(i, gc_blocking) {
                if self.threads[i].class == ThreadClass::RealTime {
                    return Some(i);
                }
                if first_any.is_none() {
                    first_any = Some(i);
                }
            }
        }
        first_any
    }

    /// Jumps the clock to `until`, the end of the collector's pause.
    fn skip_pause(&mut self, until: u64) {
        let now = self.rt.now();
        self.rt.charge(until - now);
    }

    /// The policy at a safepoint of `me`: polls the collector and either
    /// keeps the token (`None`) or addresses the state to the next
    /// runnable thread. `yielded` says whether `me` has already given up
    /// a turn since it last ran.
    fn turn(&mut self, me: usize, mut yielded: bool) -> Result<Option<usize>, RunError> {
        loop {
            if let Some(e) = &self.halted {
                return Err(e.clone());
            }
            self.rt.poll_gc();
            let gc_blocking = self.rt.gc_blocking_until().is_some();
            if yielded {
                if self.runnable(me, gc_blocking) {
                    return Ok(None);
                }
                // The turn is back but the collector pauses this thread.
                if let Some(until) = self.rt.gc_blocking_until() {
                    if self.pick_next(me, true).is_none_or(|next| next == me) {
                        // No one else can run either: jump the pause.
                        self.skip_pause(until);
                        self.rt.poll_gc();
                        continue;
                    }
                    // Someone else can run meanwhile.
                    yielded = false;
                    continue;
                }
            }
            // Hand the token to the next runnable thread (possibly
            // ourselves).
            match self.pick_next(me, gc_blocking) {
                Some(next) if next == me => {
                    yielded = true;
                    if self.runnable(me, gc_blocking) {
                        return Ok(None);
                    }
                    // Only this thread is left but it is blocked:
                    // handled by the yielded branch next iteration.
                }
                Some(next) => {
                    self.token = next;
                    return Ok(Some(next));
                }
                None => {
                    // Nobody is runnable. If the collector is the
                    // reason, jump the clock over the pause.
                    if let Some(until) = self.rt.gc_blocking_until() {
                        self.skip_pause(until);
                        self.rt.poll_gc();
                        continue;
                    }
                    self.halted = Some(RunError::Deadlock);
                    return Err(RunError::Deadlock);
                }
            }
        }
    }

    /// Marks `me` finished and addresses the state to the thread that
    /// runs next: after a halt, the unfinished thread with the lowest id;
    /// otherwise the next runnable one. `None` once every thread has
    /// finished.
    fn finish(&mut self, me: usize) -> Option<usize> {
        self.threads[me].finished = true;
        let next = match self.threads.iter().position(|t| !t.finished) {
            Some(next) if self.halted.is_some() => Some(next),
            _ => self.next_live(me),
        };
        if let Some(next) = next {
            self.token = next;
        }
        next
    }

    /// The next runnable thread after `me`, which has finished. If every
    /// other live thread is paused by the collector, the clock jumps
    /// over the pause so the token can land on a runnable thread.
    fn next_live(&mut self, me: usize) -> Option<usize> {
        loop {
            self.rt.poll_gc();
            let gc_blocking = self.rt.gc_blocking_until().is_some();
            if let Some(next) = self.pick_next(me, gc_blocking) {
                return Some(next);
            }
            match self.rt.gc_blocking_until() {
                Some(until) if self.threads.iter().any(|t| !t.finished) => {
                    self.skip_pause(until);
                }
                _ => return None, // everyone is done
            }
        }
    }
}

/// The handoff slot: a parked state waits here for the thread it is
/// addressed to. Only a switch between program threads touches it.
#[derive(Default)]
pub(crate) struct Machine {
    slot: Mutex<Option<Box<State>>>,
}

impl Machine {
    /// Parks `st` for the thread it is addressed to and wakes that thread.
    fn hand_off(&self, st: Box<State>) {
        let wake = Arc::clone(&st.threads[st.token].wake);
        let mut slot = self.slot.lock().expect(SLOT);
        debug_assert!(slot.is_none(), "a run has one state");
        *slot = Some(st);
        drop(slot);
        wake.notify_one();
    }

    /// Waits until a state addressed to `me` is parked, and takes it.
    fn receive(&self, me: usize, wake: &Condvar) -> Box<State> {
        let mut slot = self.slot.lock().expect(SLOT);
        loop {
            if slot.as_ref().is_some_and(|st| st.token == me) {
                return slot.take().expect("checked above");
            }
            slot = wake.wait(slot).expect(SLOT);
        }
    }

    /// Hands `st` on and waits until it comes back to `me`.
    fn switch(&self, st: Box<State>, me: usize) -> Box<State> {
        let wake = Arc::clone(&st.threads[me].wake);
        self.hand_off(st);
        self.receive(me, &wake)
    }

    /// A safepoint of `tid`, which holds the state in `held`: polls the
    /// collector, and if the policy hands the token to another thread,
    /// parks the state for it and blocks until this thread is scheduled
    /// again.
    ///
    /// # Errors
    ///
    /// Returns the halt error if the run was halted, or
    /// [`RunError::Deadlock`] when no thread can ever run again. Either
    /// way the caller keeps the state.
    pub(crate) fn safepoint(
        &self,
        held: &mut Option<Box<State>>,
        tid: ThreadId,
    ) -> Result<(), RunError> {
        self.schedule(held, tid.0 as usize, false)
    }

    /// Runs the policy until it keeps the token with `me`, switching to
    /// each thread it picks meanwhile. A state where the policy can only
    /// keep the token returns at once, without running it.
    fn schedule(
        &self,
        held: &mut Option<Box<State>>,
        me: usize,
        mut yielded: bool,
    ) -> Result<(), RunError> {
        if held.as_ref().expect(HOLDER).keeps_token() {
            return Ok(());
        }
        while held.as_mut().expect(HOLDER).turn(me, yielded)?.is_some() {
            let st = held.take().expect(HOLDER);
            *held = Some(self.switch(st, me));
            yielded = true;
        }
        Ok(())
    }

    /// Forks program thread `tid` (already spawned in `st.rt`) onto a new
    /// OS thread. Its first turn is the one it is handed, however late the
    /// OS thread starts; `body` then runs the thread on the state and
    /// returns the state with the thread's outcome.
    ///
    /// # Errors
    ///
    /// If the OS thread cannot be started, marks the thread finished and
    /// halts the run with the returned error.
    pub(crate) fn fork(
        self: &Arc<Self>,
        st: &mut State,
        tid: ThreadId,
        class: ThreadClass,
        body: impl FnOnce(Box<State>) -> (Box<State>, Result<(), RunError>) + Send + 'static,
    ) -> Result<(), RunError> {
        let wake = st.register(tid, class);
        let machine = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("rtj-thread-{}", tid.0))
            .stack_size(16 << 20)
            .spawn(move || machine.run_thread(tid, &wake, body));
        let t = &mut st.threads[tid.0 as usize];
        match spawned {
            Ok(os) => {
                t.os = Some(os);
                Ok(())
            }
            Err(e) => {
                t.finished = true;
                let _ = st.rt.finish_thread(tid);
                let err = RunError::Interp(format!("cannot start program thread {}: {e}", tid.0));
                st.halt(err.clone());
                Err(err)
            }
        }
    }

    /// The life of a forked thread: waits for its first turn, runs
    /// `body`, finishes the thread (an error halts the run) and hands the
    /// state on.
    fn run_thread(
        &self,
        tid: ThreadId,
        wake: &Condvar,
        body: impl FnOnce(Box<State>) -> (Box<State>, Result<(), RunError>),
    ) {
        let me = tid.0 as usize;
        let mut held = Some(self.receive(me, wake));
        let first = self.schedule(&mut held, me, true);
        let st = held.expect(HOLDER);
        let (mut st, result) = match first {
            Ok(()) => body(st),
            Err(e) => (st, Err(e)),
        };
        if let Err(e) = result {
            st.halt(e);
        }
        let _ = st.rt.finish_thread(tid);
        st.finish(me).expect("the main thread finishes last");
        self.hand_off(st);
    }

    /// Finishes the main thread `tid`, which holds `st`: keeps the other
    /// threads scheduled until each has finished (after a halt, hands the
    /// state to each in thread-id order), joins their OS threads, then
    /// marks main finished. Returns the state, which now holds the run's
    /// outcome.
    pub(crate) fn finish_main(&self, st: Box<State>, tid: ThreadId) -> Box<State> {
        let me = tid.0 as usize;
        let mut held = Some(st);
        loop {
            let st = held.as_mut().expect(HOLDER);
            let Some(next) = (0..st.threads.len()).find(|&i| i != me && !st.threads[i].finished)
            else {
                break;
            };
            if st.halted.is_some() {
                st.token = next;
                let st = held.take().expect(HOLDER);
                held = Some(self.switch(st, me));
            } else {
                // An error here is a halt, handled on the next iteration.
                let _ = self.safepoint(&mut held, tid);
            }
        }
        let mut st = held.expect(HOLDER);
        for t in &mut st.threads {
            if let Some(os) = t.os.take() {
                os.join()
                    .expect("a program thread ends after its last handoff");
            }
        }
        st.finish(me);
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtj_runtime::CheckMode;
    use std::sync::mpsc;

    fn state() -> Box<State> {
        State::new(Runtime::with_mode(CheckMode::Dynamic), 0)
    }

    /// Forks a thread of `class` whose body is `f`, run on the state the
    /// thread is handed.
    fn fork(
        m: &Arc<Machine>,
        st: &mut State,
        class: ThreadClass,
        f: impl FnOnce(&Machine, &mut Option<Box<State>>, ThreadId) + Send + 'static,
    ) -> ThreadId {
        let tid = st.rt.spawn_thread(st.rt.main_thread(), class);
        let m2 = Arc::clone(m);
        m.fork(st, tid, class, move |st| {
            let mut held = Some(st);
            f(&m2, &mut held, tid);
            (held.expect(HOLDER), Ok(()))
        })
        .unwrap();
        tid
    }

    #[test]
    fn single_thread_safepoint_is_noop() {
        let m = Machine::default();
        let mut held = Some(state());
        m.safepoint(&mut held, ThreadId(0)).unwrap();
        m.safepoint(&mut held, ThreadId(0)).unwrap();
        assert!(m.slot.lock().unwrap().is_none(), "the state never left");
    }

    #[test]
    fn a_single_thread_safepoint_runs_a_pending_collection() {
        let cost = rtj_runtime::CostModel {
            gc_threshold_bytes: 1,
            ..rtj_runtime::CostModel::default()
        };
        let mut rt = Runtime::new(CheckMode::Dynamic, cost);
        rt.enable_gc(true);
        let heap = rtj_runtime::RuntimeOwner::Region(rt.heap());
        rt.alloc(ThreadId(0), heap, "Blob", &[heap], 1).unwrap();
        assert!(!rt.gc_idle(), "the allocation requested a collection");
        let m = Machine::default();
        let mut held = Some(State::new(rt, 0));
        m.safepoint(&mut held, ThreadId(0)).unwrap();
        let rt = &held.unwrap().rt;
        assert_eq!(rt.metrics_snapshot().gc_collections, 1);
        assert!(rt.gc_idle(), "the lone thread jumped the pause");
        let pause = rt.cost_model().gc_pause;
        assert_eq!(rt.now(), pause + rt.metrics_snapshot().alloc_cycles);
    }

    #[test]
    fn step_limit_halts() {
        let m = Machine::default();
        let mut st = State::new(Runtime::with_mode(CheckMode::Dynamic), 10);
        assert!(st.charge_steps(1, 5).is_ok());
        assert!(matches!(st.charge_steps(1, 6), Err(RunError::StepLimit)));
        let mut held = Some(st);
        assert!(matches!(
            m.safepoint(&mut held, ThreadId(0)),
            Err(RunError::StepLimit)
        ));
    }

    #[test]
    fn two_threads_alternate() {
        let m = Arc::new(Machine::default());
        let mut st = state();
        fork(&m, &mut st, ThreadClass::Regular, |m, held, tid| {
            // The child does some work, yields, and finishes.
            held.as_mut().unwrap().rt.charge(5);
            m.safepoint(held, tid).unwrap();
        });
        // Main keeps yielding until the child is done.
        let st = m.finish_main(st, ThreadId(0));
        assert!(st.halt_error().is_none());
        assert!(st.rt.now() >= 5);
    }

    #[test]
    fn rt_threads_run_during_gc_pauses() {
        let mut rt = Runtime::with_mode(CheckMode::Dynamic);
        rt.enable_gc(true);
        let m = Arc::new(Machine::default());
        let mut st = State::new(rt, 0);
        // Force a collection: regular threads are paused, the RT thread
        // must still be scheduled.
        st.rt.force_gc();
        let (tx, rx) = mpsc::channel();
        fork(&m, &mut st, ThreadClass::RealTime, move |m, held, tid| {
            // The RT thread gets turns while the GC is collecting.
            for _ in 0..3 {
                m.safepoint(held, tid).unwrap();
                held.as_mut().unwrap().rt.charge(10);
            }
            let still_collecting = held.as_ref().unwrap().rt.gc_blocking_until().is_some();
            tx.send(still_collecting).unwrap();
        });
        // Main (regular) is blocked until the collection ends; when it
        // returns, the pause must be over.
        let mut held = Some(st);
        m.safepoint(&mut held, ThreadId(0)).unwrap();
        let st = held.unwrap();
        assert!(st.rt.gc_blocking_until().is_none());
        assert!(
            rx.recv().unwrap(),
            "the real-time thread executed while the collector was running"
        );
        assert_eq!(st.rt.metrics_snapshot().gc_collections, 1);
    }

    #[test]
    fn rt_threads_have_priority() {
        let m = Arc::new(Machine::default());
        let mut st = state();
        let order = Arc::new(Mutex::new(Vec::new()));
        // The regular thread is forked first, so round-robin alone would
        // run it first.
        for (class, name) in [
            (ThreadClass::Regular, "regular"),
            (ThreadClass::RealTime, "rt"),
        ] {
            let order = Arc::clone(&order);
            fork(&m, &mut st, class, move |_, _, _| {
                order.lock().unwrap().push(name);
            });
        }
        // Let both children run.
        m.finish_main(st, ThreadId(0));
        let order = order.lock().unwrap().clone();
        assert_eq!(
            order,
            vec!["rt", "regular"],
            "the real-time thread is always scheduled first"
        );
    }

    #[test]
    fn halt_propagates_to_all() {
        let m = Machine::default();
        let mut st = state();
        st.halt(RunError::Interp("boom".into()));
        st.halt(RunError::StepLimit);
        let mut held = Some(st);
        assert!(matches!(
            m.safepoint(&mut held, ThreadId(0)),
            Err(RunError::Interp(_))
        ));
        assert_eq!(
            held.unwrap().halt_error(),
            Some(&RunError::Interp("boom".into()))
        );
    }

    #[test]
    fn a_child_started_late_still_runs_its_first_turn() {
        let m = Arc::new(Machine::default());
        let mut st = state();
        let child = st
            .rt
            .spawn_thread(st.rt.main_thread(), ThreadClass::Regular);
        let wake = st.register(child, ThreadClass::Regular);
        let order = Arc::new(Mutex::new(Vec::new()));
        // Program thread 0 runs on its own OS thread and hands the token
        // to the child at its first safepoint.
        let (m0, order0) = (Arc::clone(&m), Arc::clone(&order));
        let main = std::thread::spawn(move || {
            let mut held = Some(st);
            m0.safepoint(&mut held, ThreadId(0)).unwrap();
            order0.lock().unwrap().push("main");
            m0.finish_main(held.unwrap(), ThreadId(0));
        });
        // The child's OS thread starts only once the state is parked for
        // it.
        let parked_for_child = |slot: &Option<Box<State>>| {
            slot.as_ref().is_some_and(|st| st.token == child.0 as usize)
        };
        while !parked_for_child(&m.slot.lock().unwrap()) {
            std::thread::yield_now();
        }
        let (m1, order1) = (Arc::clone(&m), Arc::clone(&order));
        let handle = std::thread::spawn(move || {
            m1.run_thread(child, &wake, |st| {
                order1.lock().unwrap().push("child");
                (st, Ok(()))
            });
        });
        handle.join().unwrap();
        main.join().unwrap();
        let order = order.lock().unwrap().clone();
        assert_eq!(
            order,
            vec!["child", "main"],
            "the child runs the turn it was handed"
        );
    }

    #[test]
    fn after_a_halt_threads_unwind_in_id_order() {
        let m = Arc::new(Machine::default());
        let mut st = state();
        let order = Arc::new(Mutex::new(Vec::new()));
        let wait = |order: &Arc<Mutex<Vec<u32>>>| {
            let order = Arc::clone(order);
            move |m: &Machine, held: &mut Option<Box<State>>, tid: ThreadId| {
                while m.safepoint(held, tid).is_ok() {}
                order.lock().unwrap().push(tid.0);
            }
        };
        // Thread 2 halts the run between two waiters. Round-robin from
        // it would unwind thread 3 first; the halt goes in id order.
        fork(&m, &mut st, ThreadClass::Regular, wait(&order));
        let halter = st
            .rt
            .spawn_thread(st.rt.main_thread(), ThreadClass::Regular);
        let m2 = Arc::clone(&m);
        m.fork(&mut st, halter, ThreadClass::Regular, move |st| {
            let mut held = Some(st);
            for _ in 0..3 {
                m2.safepoint(&mut held, halter).unwrap();
            }
            (held.unwrap(), Err(RunError::Interp("boom".into())))
        })
        .unwrap();
        fork(&m, &mut st, ThreadClass::Regular, wait(&order));
        let st = m.finish_main(st, ThreadId(0));
        assert_eq!(st.halt_error(), Some(&RunError::Interp("boom".into())));
        assert_eq!(*order.lock().unwrap(), vec![1, 3]);
    }
}
