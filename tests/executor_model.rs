//! A model check of the executor's parking handshake
//! (`crates/rtj-server/src/executor.rs`).
//!
//! Two workers and one submitter run `worker_loop` and `submit_to` over
//! three jobs, then `drain` and `stop_workers`. A depth-first search with
//! a set of visited states explores every interleaving of their steps. A
//! step is one atomic access, one mutex or condvar call, or one shard
//! operation (a shard's lock is held for a single push or pop, so that is
//! one step). Each step names the line of `executor.rs` it mirrors, and
//! the tests find every such line there, so a change to the handshake
//! that the model does not follow fails here.
//!
//! What the model allows:
//! - a parked worker may wake spuriously, and `drain`'s timed wait may
//!   time out, at any point;
//! - a worker may find its spin budget zero, or its spin slot taken, and
//!   park at once; a spinning worker's deadline may pass at any clock
//!   read, so the spin is every bounded number of re-reads;
//! - atomics are sequentially consistent. The handshake's accesses are
//!   `SeqCst`; the spin's `Relaxed` loads only send a worker back to its
//!   claim loop, so no decision of the handshake rests on them.
//!
//! The bounded queue (`queue_capacity > 0`) is left out: the server runs
//! unbounded by default.
//!
//! What the model checks: every reachable state has a step that is
//! neither a spurious wake-up nor a time-out, or is the end of the run.
//! So no lost wake-up leaves work queued while every live thread is
//! blocked, and nothing deadlocks. At the end, `submitted == completed`
//! and every worker has exited. Two mutants of the handshake must each
//! produce a counterexample, which the tests print: a worker that skips
//! its re-check of `queued`, and (on one worker) a submitter that
//! notifies without taking `idle`.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

const SOURCE: &str = include_str!("../crates/rtj-server/src/executor.rs");

/// What a step mirrors: the `nth` line (from 0) that holds `code` in
/// function `func` of `executor.rs`. An empty `func` marks a model event
/// that has no line of its own (a spurious wake-up, a guard's drop).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Step {
    func: &'static str,
    code: &'static str,
    nth: usize,
}

const fn at(func: &'static str, code: &'static str) -> Step {
    Step { func, code, nth: 0 }
}

const fn event(code: &'static str) -> Step {
    Step {
        func: "",
        code,
        nth: 0,
    }
}

/// The 1-based line of `executor.rs` that `step` mirrors.
fn line_of(step: Step) -> Option<usize> {
    if step.func.is_empty() {
        return None;
    }
    let lines: Vec<&str> = SOURCE.lines().collect();
    let head = format!("fn {}(", step.func);
    let start = lines.iter().position(|l| l.contains(&head))?;
    lines[start + 1..]
        .iter()
        .take_while(|l| {
            let l = l.trim_start();
            !(l.starts_with("fn ") || l.starts_with("pub fn ") || l.starts_with("pub(crate) fn "))
        })
        .enumerate()
        .filter(|(_, l)| l.contains(step.code))
        .nth(step.nth)
        .map(|(i, _)| start + 2 + i)
}

/// Where a worker is in `worker_loop` (and `spin_until`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Worker {
    ClaimOwn,
    Steal,
    Empty,
    EmptyQueued,
    Spin,
    PollQueued,
    PollShutdown,
    Clock,
    GiveBack { found: bool },
    Lock,
    Advertise,
    RecheckQueued,
    RecheckShutdown,
    Wait,
    Parked,
    Relock,
    UnlockAfterWait,
    Unadvertise { locked: bool },
    Unlock,
    Claimed,
    Ran,
    Completed,
    NotifyLock,
    Notify,
    NotifyUnlock,
    Exited,
}

/// Where the submitter is: `submit_to` for job `k`, then `drain`, then
/// `stop_workers`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Submitter {
    CheckShutdown(u8),
    InFlight(u8),
    Submitted(u8),
    Queued(u8),
    Push(u8),
    ReadIdlers(u8),
    Lock(u8),
    Unlock(u8),
    Notify(u8),
    DrainLock,
    DrainCheck,
    DrainWait,
    DrainWaiting,
    DrainRelock,
    DrainUnlock,
    Stop,
    StopLock,
    StopNotifyWork,
    StopNotifyDrained,
    StopUnlock,
    Join(u8),
    Done,
}

/// The submitter's thread index (workers are 0 and 1).
const SUBMITTER: u8 = 2;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct State {
    workers: [Worker; 2],
    submitter: Submitter,
    shards: [u8; 2],
    submitted: u8,
    completed: u8,
    queued: u8,
    in_flight: u8,
    shutdown: bool,
    idlers: u8,
    spinners: u8,
    /// The thread holding the `idle` mutex.
    idle: Option<u8>,
}

/// How the submitter signals a parked worker.
#[derive(Clone, Copy)]
enum Signal {
    /// `submit_to`: lock `idle`, unlock it, then notify.
    AfterUnlock,
    /// A mutant: notify without taking `idle`.
    WithoutLock,
}

#[derive(Clone, Copy)]
struct Config {
    workers: usize,
    jobs: u8,
    spin_slots: u8,
    signal: Signal,
    /// False is a mutant: the worker skips its re-check of `queued`.
    recheck: bool,
}

impl Config {
    /// The executor as written: two workers, three jobs, one spin slot
    /// (a two-CPU host).
    fn real() -> Config {
        Config {
            workers: 2,
            jobs: 3,
            spin_slots: 1,
            signal: Signal::AfterUnlock,
            recheck: true,
        }
    }
}

struct Move {
    thread: u8,
    step: Step,
    next: State,
}

/// The moves nothing guarantees: a state whose only moves are these is
/// stuck.
const SPURIOUS: Step = event("spurious wake-up");
const TIME_OUT: Step = event("the timed wait times out");

impl Move {
    fn progress(&self) -> bool {
        self.step != SPURIOUS && self.step != TIME_OUT
    }
}

fn moves(s: &State, cfg: &Config) -> Vec<Move> {
    let mut out = Vec::new();
    for w in 0..cfg.workers {
        worker_moves(s, w, cfg, &mut out);
    }
    submitter_moves(s, cfg, &mut out);
    out
}

/// Appends the move in which `thread` takes `step`, and `edit` changes
/// the state.
fn push(out: &mut Vec<Move>, s: &State, thread: u8, step: Step, edit: impl FnOnce(&mut State)) {
    let mut next = *s;
    edit(&mut next);
    out.push(Move { thread, step, next });
}

/// `work.notify_one()`: one move per parked worker it may wake, or one
/// move that wakes no one when none is parked.
fn notify_one(out: &mut Vec<Move>, s: &State, thread: u8, step: Step, then: impl Fn(&mut State)) {
    let waiters: Vec<usize> = (0..2).filter(|&w| s.workers[w] == Worker::Parked).collect();
    if waiters.is_empty() {
        push(out, s, thread, step, &then);
    }
    for w in waiters {
        push(out, s, thread, step, |n| {
            n.workers[w] = Worker::Relock;
            then(n);
        });
    }
}

fn worker_moves(s: &State, w: usize, cfg: &Config, out: &mut Vec<Move>) {
    use Worker::*;
    let t = w as u8;
    let code = |code: &'static str| at("worker_loop", code);
    let spin = |code: &'static str| at("spin_until", code);
    let mut go = |step: Step, edit: &dyn Fn(&mut State)| push(out, s, t, step, edit);
    let to = |pc: Worker| move |n: &mut State| n.workers[w] = pc;
    let lock = |pc: Worker| {
        move |n: &mut State| {
            n.idle = Some(t);
            n.workers[w] = pc;
        }
    };
    let unlock = |pc: Worker| {
        move |n: &mut State| {
            n.idle = None;
            n.workers[w] = pc;
        }
    };
    let free = s.idle.is_none();
    match s.workers[w] {
        ClaimOwn => go(code(".lock().unwrap().pop_front()"), &|n| {
            n.workers[w] = if n.shards[w] > 0 {
                n.shards[w] -= 1;
                Claimed
            } else if cfg.workers > 1 {
                Steal
            } else {
                Empty
            }
        }),
        Steal => go(code("victim.lock().unwrap().pop_back()"), &|n| {
            n.workers[w] = if n.shards[1 - w] > 0 {
                n.shards[1 - w] -= 1;
                Claimed
            } else {
                Empty
            }
        }),
        Empty => go(
            code("if inner.shutdown.load(Ordering::SeqCst) &&"),
            &to(if s.shutdown { EmptyQueued } else { Spin }),
        ),
        EmptyQueued => go(
            code("&& inner.queued.load(Ordering::SeqCst) == 0"),
            &to(if s.queued == 0 { Exited } else { Spin }),
        ),
        Spin => {
            go(event("the spin budget is zero"), &to(Lock));
            go(code("take_spin_slot(&SPINNERS, inner.spin_slots)"), &|n| {
                n.workers[w] = if n.spinners < cfg.spin_slots {
                    n.spinners += 1;
                    PollQueued
                } else {
                    Lock
                }
            });
        }
        PollQueued => go(spin("inner.queued.load(Ordering::Relaxed) > 0"), &|n| {
            n.workers[w] = if n.queued > 0 {
                GiveBack { found: true }
            } else {
                PollShutdown
            }
        }),
        PollShutdown => go(spin("|| inner.shutdown.load(Ordering::Relaxed)"), &|n| {
            n.workers[w] = if n.shutdown {
                GiveBack { found: true }
            } else {
                Clock
            }
        }),
        // The deadline may or may not have passed at any clock read.
        Clock => {
            go(spin("if Instant::now() >= deadline"), &to(PollQueued));
            go(
                spin("if Instant::now() >= deadline"),
                &to(GiveBack { found: false }),
            );
        }
        GiveBack { found } => go(code("SPINNERS.fetch_sub(1, Ordering::Release);"), &|n| {
            n.spinners -= 1;
            n.workers[w] = if found { ClaimOwn } else { Lock };
        }),
        Lock if free => go(
            code("let guard = inner.idle.lock().unwrap();"),
            &lock(Advertise),
        ),
        Advertise => go(code("inner.idlers.fetch_add(1, Ordering::SeqCst);"), &|n| {
            n.idlers += 1;
            n.workers[w] = if cfg.recheck {
                RecheckQueued
            } else {
                RecheckShutdown
            };
        }),
        RecheckQueued => go(code("if inner.queued.load(Ordering::SeqCst) == 0"), &|n| {
            n.workers[w] = if n.queued == 0 {
                RecheckShutdown
            } else {
                Unadvertise { locked: true }
            }
        }),
        RecheckShutdown => go(code("&& !inner.shutdown.load(Ordering::SeqCst)"), &|n| {
            n.workers[w] = if n.shutdown {
                Unadvertise { locked: true }
            } else {
                Wait
            }
        }),
        Wait => go(
            code("let _guard = inner.work.wait(guard).unwrap();"),
            &unlock(Parked),
        ),
        Parked => go(SPURIOUS, &to(Relock)),
        Relock if free => go(
            code("let _guard = inner.work.wait(guard).unwrap();"),
            &lock(UnlockAfterWait),
        ),
        UnlockAfterWait => go(
            event("`_guard` drops at the end of the `if`"),
            &unlock(Unadvertise { locked: false }),
        ),
        Unadvertise { locked } => go(code("inner.idlers.fetch_sub(1, Ordering::SeqCst);"), &|n| {
            n.idlers -= 1;
            n.workers[w] = if locked { Unlock } else { ClaimOwn };
        }),
        Unlock => go(event("`guard` drops at `continue`"), &unlock(ClaimOwn)),
        Claimed => go(code("inner.queued.fetch_sub(1, Ordering::SeqCst);"), &|n| {
            n.queued -= 1;
            n.workers[w] = Ran;
        }),
        Ran => go(
            code("inner.completed.fetch_add(1, Ordering::SeqCst);"),
            &|n| {
                n.completed += 1;
                n.workers[w] = Completed;
            },
        ),
        Completed => go(
            code("inner.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;"),
            &|n| {
                n.in_flight -= 1;
                n.workers[w] = if n.in_flight == 0 {
                    NotifyLock
                } else {
                    ClaimOwn
                };
            },
        ),
        NotifyLock if free => go(
            code("let _guard = inner.idle.lock().unwrap();"),
            &lock(Notify),
        ),
        // The second `drained.notify_all()` of `worker_loop`; the first
        // serves a bounded queue.
        Notify => go(
            Step {
                nth: 1,
                ..code("inner.drained.notify_all();")
            },
            &|n| {
                if n.submitter == Submitter::DrainWaiting {
                    n.submitter = Submitter::DrainRelock;
                }
                n.workers[w] = NotifyUnlock;
            },
        ),
        NotifyUnlock => go(event("`_guard` drops"), &unlock(ClaimOwn)),
        Lock | Relock | NotifyLock | Exited => {}
    }
}

fn submitter_moves(s: &State, cfg: &Config, out: &mut Vec<Move>) {
    use Submitter::*;
    let t = SUBMITTER;
    let code = |code: &'static str| at("submit_to", code);
    let mut go = |step: Step, edit: &dyn Fn(&mut State)| push(out, s, t, step, edit);
    let to = |pc: Submitter| move |n: &mut State| n.submitter = pc;
    let lock = |pc: Submitter| {
        move |n: &mut State| {
            n.idle = Some(t);
            n.submitter = pc;
        }
    };
    let unlock = |pc: Submitter| {
        move |n: &mut State| {
            n.idle = None;
            n.submitter = pc;
        }
    };
    let free = s.idle.is_none();
    let after = |k: u8| {
        if k + 1 < cfg.jobs {
            CheckShutdown(k + 1)
        } else {
            DrainLock
        }
    };
    match s.submitter {
        CheckShutdown(k) => {
            assert!(!s.shutdown, "submit after shutdown");
            go(
                code("!inner.shutdown.load(Ordering::SeqCst),"),
                &to(InFlight(k)),
            );
        }
        InFlight(k) => go(
            code("inner.in_flight.fetch_add(1, Ordering::SeqCst) + 1;"),
            &|n| {
                n.in_flight += 1;
                n.submitter = Submitted(k);
            },
        ),
        Submitted(k) => go(
            code("inner.submitted.fetch_add(1, Ordering::SeqCst);"),
            &|n| {
                n.submitted += 1;
                n.submitter = Queued(k);
            },
        ),
        Queued(k) => go(code("inner.queued.fetch_add(1, Ordering::SeqCst);"), &|n| {
            n.queued += 1;
            n.submitter = Push(k);
        }),
        // `submit` picks the shard round-robin by submission index.
        Push(k) => go(code("queue.push_back(job);"), &|n| {
            n.shards[usize::from(k) % cfg.workers] += 1;
            n.submitter = ReadIdlers(k);
        }),
        ReadIdlers(k) => go(
            code("if inner.idlers.load(Ordering::SeqCst) > 0"),
            &to(match (s.idlers > 0, cfg.signal) {
                (false, _) => after(k),
                (true, Signal::AfterUnlock) => Lock(k),
                (true, Signal::WithoutLock) => Notify(k),
            }),
        ),
        Lock(k) if free => go(code("drop(inner.idle.lock().unwrap());"), &lock(Unlock(k))),
        Unlock(k) => go(
            code("drop(inner.idle.lock().unwrap());"),
            &unlock(Notify(k)),
        ),
        Notify(k) => notify_one(out, s, t, code("inner.work.notify_one();"), to(after(k))),
        DrainLock if free => go(
            at("drain", "let mut guard = inner.idle.lock().unwrap();"),
            &lock(DrainCheck),
        ),
        DrainCheck => go(
            at("drain", "while inner.in_flight.load(Ordering::SeqCst) > 0"),
            &to(if s.in_flight > 0 {
                DrainWait
            } else {
                DrainUnlock
            }),
        ),
        DrainWait => go(
            at("drain", "inner.drained.wait_timeout(guard, IDLE_TICK)"),
            &unlock(DrainWaiting),
        ),
        DrainWaiting => go(TIME_OUT, &to(DrainRelock)),
        DrainRelock if free => go(
            at("drain", "inner.drained.wait_timeout(guard, IDLE_TICK)"),
            &lock(DrainCheck),
        ),
        DrainUnlock => go(event("`guard` drops at the end of `drain`"), &unlock(Stop)),
        Stop => go(
            at(
                "stop_workers",
                "self.inner.shutdown.store(true, Ordering::SeqCst);",
            ),
            &|n| {
                n.shutdown = true;
                n.submitter = StopLock;
            },
        ),
        StopLock if free => go(
            at(
                "stop_workers",
                "let _guard = self.inner.idle.lock().unwrap();",
            ),
            &lock(StopNotifyWork),
        ),
        StopNotifyWork => go(at("stop_workers", "self.inner.work.notify_all();"), &|n| {
            for w in n.workers.iter_mut().filter(|w| **w == Worker::Parked) {
                *w = Worker::Relock;
            }
            n.submitter = StopNotifyDrained;
        }),
        StopNotifyDrained => go(
            at("stop_workers", "self.inner.drained.notify_all();"),
            &to(StopUnlock),
        ),
        StopUnlock => go(event("`_guard` drops"), &unlock(Join(0))),
        Join(i) if s.workers[usize::from(i)] == Worker::Exited => go(
            at("stop_workers", "let _ = handle.join();"),
            &to(if usize::from(i) + 1 < cfg.workers {
                Join(i + 1)
            } else {
                Done
            }),
        ),
        Lock(_) | DrainLock | DrainRelock | StopLock | Join(_) | Done => {}
    }
}

/// What is wrong with a state whose moves are `moves`, if anything.
fn judge(s: &State, moves: &[Move], cfg: &Config) -> Option<&'static str> {
    if moves.iter().any(Move::progress) {
        return None;
    }
    let ended = s.submitter == Submitter::Done
        && s.workers[..cfg.workers]
            .iter()
            .all(|w| *w == Worker::Exited);
    if !ended {
        return Some(if s.queued > 0 {
            "lost wake-up: work is queued and every live thread is blocked"
        } else {
            "deadlock: every live thread is blocked"
        });
    }
    let balanced = s.submitted == cfg.jobs
        && s.completed == s.submitted
        && s.queued == 0
        && s.in_flight == 0
        && s.idlers == 0
        && s.spinners == 0
        && s.shards == [0, 0];
    (!balanced).then_some("the run ended with its counters unbalanced")
}

struct Outcome {
    states: usize,
    /// Every step some move took.
    steps: HashSet<Step>,
    /// The first bad state found, with the path to it.
    counterexample: Option<String>,
}

/// Explores every interleaving depth-first, stopping at the first bad
/// state.
fn explore(cfg: Config) -> Outcome {
    let unused = if cfg.workers > 1 {
        Worker::ClaimOwn
    } else {
        Worker::Exited
    };
    let init = State {
        workers: [Worker::ClaimOwn, unused],
        submitter: Submitter::CheckShutdown(0),
        shards: [0, 0],
        submitted: 0,
        completed: 0,
        queued: 0,
        in_flight: 0,
        shutdown: false,
        idlers: 0,
        spinners: 0,
        idle: None,
    };
    // Each state maps to the state and move it was first reached by.
    let mut seen: HashMap<State, Option<(State, u8, Step)>> = HashMap::new();
    seen.insert(init, None);
    let mut steps = HashSet::new();
    let mut stack = vec![init];
    while let Some(s) = stack.pop() {
        let next = moves(&s, &cfg);
        if let Some(problem) = judge(&s, &next, &cfg) {
            return Outcome {
                states: seen.len(),
                steps,
                counterexample: Some(render(&seen, s, problem)),
            };
        }
        for m in next {
            steps.insert(m.step);
            if let Entry::Vacant(slot) = seen.entry(m.next) {
                slot.insert(Some((s, m.thread, m.step)));
                stack.push(m.next);
            }
        }
    }
    Outcome {
        states: seen.len(),
        steps,
        counterexample: None,
    }
}

/// The path from the initial state to `end`, one step a line: the thread,
/// the line of `executor.rs` (or `model`), the code, and where the thread
/// went.
fn render(seen: &HashMap<State, Option<(State, u8, Step)>>, end: State, problem: &str) -> String {
    let mut path = Vec::new();
    let mut at = end;
    while let Some(&Some((prev, thread, step))) = seen.get(&at) {
        path.push((thread, step, at));
        at = prev;
    }
    path.reverse();
    let mut out = format!("{problem}, after {} steps:\n", path.len());
    for (i, (thread, step, s)) in path.iter().enumerate() {
        let (who, pc) = match *thread {
            SUBMITTER => ("S ".to_string(), format!("{:?}", s.submitter)),
            w => (format!("W{w}"), format!("{:?}", s.workers[usize::from(w)])),
        };
        let line = line_of(*step).map_or("model".to_string(), |l| format!("executor.rs:{l}"));
        writeln!(out, "{i:4} {who} {line:>16}  {:<56} -> {pc}", step.code).unwrap();
    }
    writeln!(out, "end: {end:?}").unwrap();
    out
}

/// Every cited line must be in `executor.rs`, so the model follows the
/// code it claims to mirror.
fn assert_cited(steps: &HashSet<Step>) {
    for step in steps.iter().filter(|s| !s.func.is_empty()) {
        assert!(
            line_of(*step).is_some(),
            "the model cites `{}` in `{}` (occurrence {}), which executor.rs no longer has",
            step.code,
            step.func,
            step.nth
        );
    }
}

#[test]
fn the_handshake_with_its_spin_never_loses_a_wakeup() {
    // Zero spin slots is a one-CPU host; one slot is two CPUs; two lets
    // both workers spin at once.
    for spin_slots in [0, 1, 2] {
        let cfg = Config {
            spin_slots,
            ..Config::real()
        };
        let out = explore(cfg);
        println!("{spin_slots} spin slot(s): {} states explored", out.states);
        if let Some(trace) = &out.counterexample {
            panic!("{trace}");
        }
        assert_cited(&out.steps);
    }
}

#[test]
fn a_worker_that_skips_its_recheck_loses_a_wakeup() {
    let out = explore(Config {
        recheck: false,
        ..Config::real()
    });
    let trace = out
        .counterexample
        .expect("skipping the re-check of `queued` must lose a wake-up");
    println!("{} states explored; counterexample:\n{trace}", out.states);
    assert!(trace.starts_with("lost wake-up"), "{trace}");
    assert_cited(&out.steps);
}

#[test]
fn a_submitter_that_notifies_without_the_lock_loses_a_wakeup() {
    let mutant = Config {
        signal: Signal::WithoutLock,
        ..Config::real()
    };
    // With two workers the lost signal only delays: the worker between
    // its re-check and its wait holds `idle`, so the other one is not
    // there too. It is either parked, and the signal wakes it, or it
    // re-checks `queued` before it parks and finds the job.
    let out = explore(mutant);
    println!("two workers: {} states explored, none stuck", out.states);
    assert!(out.counterexample.is_none(), "{:?}", out.counterexample);
    let out = explore(Config {
        workers: 1,
        ..mutant
    });
    let trace = out
        .counterexample
        .expect("notifying without `idle` must lose a wake-up on one worker");
    println!(
        "one worker: {} states explored; counterexample:\n{trace}",
        out.states
    );
    assert!(trace.starts_with("lost wake-up"), "{trace}");
    assert_cited(&out.steps);
}
