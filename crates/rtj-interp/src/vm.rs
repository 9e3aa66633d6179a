//! The bytecode VM: an iterative dispatch loop over [`crate::bytecode`]
//! instructions with monomorphic inline caches.
//!
//! The VM is an alternative *engine* to the tree-walking
//! [`crate::eval::Evaluator`]; both share one scheduler and produce
//! byte-identical virtual-cycle accounting, `rtj-metrics/v1` snapshots,
//! and trace event sequences (see the step-parity argument in
//! [`crate::bytecode`]). The speedup is host-level only: flat instruction
//! dispatch instead of `Box<Expr>` recursion, slot-indexed locals instead
//! of linear string-compared lookups, interned-symbol inline caches for
//! field offsets and method resolution instead of per-call hash lookups
//! and method-body clones, and fused instructions for the hottest pairs.
//!
//! Inline caches are keyed on the receiver's interned class [`Symbol`]
//! (the layout id — two objects share a layout iff their class symbols
//! are pointer-equal). Layouts are immutable for the life of a program,
//! so cache entries are never invalidated, only replaced when a site
//! sees a receiver of a different class. Caches are per-thread, so no
//! synchronisation is needed on hits. A field access reads the
//! receiver's class once, for the cache check, and flushes pending steps
//! inline before the runtime call.
//!
//! A call allocates nothing: the callee's owners — the declaring class's
//! formals, read from the receiver through the cached owner sources,
//! then the site's owner arguments — go straight onto the VM's owner
//! stack, in the tree-walker's error order, and its arguments move from
//! the operand stack into its locals. A fork pushes its owners the same
//! way and moves them into the new thread's start record.
//!
//! The dispatch loop keeps only the hot instructions inline; forks,
//! allocation, region scopes, `print`, `io`/`workload` and error
//! construction live in out-of-line methods, so the loop's own state
//! stays in registers.
//!
//! A `Vm` executes only while its program thread holds the scheduler's
//! token, and then it owns the run's state, region runtime included: a
//! runtime operation is a plain call, with no lock. A safepoint gives the
//! state up only when the scheduler switches to another program thread,
//! which only a program that forks ever does; in a run with one program
//! thread, no halt and an idle collector, a safepoint is a flush and a
//! check of those three facts.

use crate::bytecode::{CompiledProgram, CondCtx, NewSite, Op, OwnerOp, RegionSite, RegionSiteKind};
use crate::eval::{ProgramData, MAX_CALL_DEPTH};
use crate::layout::resolve_method_chain;
use crate::machine::{Machine, RunError, State, HOLDER};
use rtj_lang::ast::{BinOp, OwnerRef, UnOp};
use rtj_lang::Symbol;
use rtj_runtime::{
    ObjId, RegionId, RegionSpec, Runtime, RuntimeOwner, ThreadClass, ThreadId, Value,
};
use std::sync::Arc;

/// How one owner of a resolved callee's declaring class is derived from
/// the receiver, with the superclass chain's extends clauses composed
/// away at cache-fill time.
#[derive(Debug, Clone, Copy)]
enum OwnerSrc {
    /// The receiver's stored owner at index `.0`.
    RecvOwner(u32),
    /// The receiver object itself (`this` in an extends clause).
    RecvObject,
    /// The heap.
    Heap,
    /// The immortal region.
    Immortal,
}

/// A resolved call target, cached per site per receiver class.
struct CallTarget {
    func: u32,
    owner_srcs: Box<[OwnerSrc]>,
    /// Deferred argument-count error: the tree-walker raises it only
    /// after resolving the site's owner arguments.
    arg_err: Option<Box<str>>,
}

/// One call-site inline-cache entry: the receiver class the entry is
/// valid for, and the resolution outcome (target or cached error).
type CallCacheEntry = Option<(Symbol, Result<CallTarget, Box<str>>)>;

/// An open region scope (for exits on `return` paths and unwinding).
#[derive(Debug, Clone, Copy)]
enum ScopeExit {
    /// Created by `LocalRegion`/`NewRegion`: plain `exit_created_region`.
    Created(RegionId),
    /// Entered by `EnterSubregion`: the two-phase locked exit.
    Sub(RegionId),
}

#[derive(Debug, Clone, Copy)]
struct RegionScope {
    saved_current: RegionId,
    exit: ScopeExit,
}

/// A call frame of the VM.
#[derive(Debug, Clone, Copy)]
struct CallCtx {
    func: u32,
    /// Saved instruction pointer (where to resume when control returns).
    ip: u32,
    locals_base: u32,
    owners_base: u32,
    regions_base: u32,
    this_obj: Option<ObjId>,
    initial_region: RegionId,
    current_region: RegionId,
}

/// Everything a forked thread needs to start executing a method body.
struct ForkStart {
    func: u32,
    owners: Vec<RuntimeOwner>,
    args: Vec<Value>,
    this_obj: ObjId,
    region: RegionId,
}

/// A single thread's bytecode interpreter.
pub struct Vm {
    machine: Arc<Machine>,
    /// The run's state while this thread holds the token; `None` only
    /// while a safepoint has handed it to another thread.
    st: Option<Box<State>>,
    data: Arc<ProgramData>,
    prog: Arc<CompiledProgram>,
    tid: ThreadId,
    heap: RegionId,
    immortal: RegionId,
    is_rt: bool,
    /// Pending cycles other than steps' (calls, `io`, `workload`, lock
    /// spins), charged with the pending steps at the next flush.
    pending_cycles: u64,
    pending_steps: u64,
    step_cost: u64,
    call_cost: u64,
    stack: Vec<Value>,
    locals: Vec<Value>,
    owners: Vec<RuntimeOwner>,
    regions: Vec<RegionId>,
    scopes: Vec<RegionScope>,
    frames: Vec<CallCtx>,
    field_caches: Vec<Option<(Symbol, u32)>>,
    call_caches: Vec<CallCacheEntry>,
}

impl Vm {
    /// Creates a VM for thread `tid`, which holds the run's state `st`,
    /// over a compiled program.
    pub(crate) fn new(
        machine: Arc<Machine>,
        st: Box<State>,
        data: Arc<ProgramData>,
        prog: Arc<CompiledProgram>,
        tid: ThreadId,
        is_rt: bool,
    ) -> Vm {
        let rt = &st.rt;
        let (heap, immortal) = (rt.heap(), rt.immortal());
        let (step_cost, call_cost) = (rt.cost_model().step, rt.cost_model().call);
        let field_caches = vec![None; prog.field_sites.len()];
        let call_caches = prog.call_sites.iter().map(|_| None).collect();
        Vm {
            machine,
            st: Some(st),
            data,
            prog,
            tid,
            heap,
            immortal,
            is_rt,
            pending_cycles: 0,
            pending_steps: 0,
            step_cost,
            call_cost,
            stack: Vec::with_capacity(32),
            locals: Vec::with_capacity(64),
            owners: Vec::with_capacity(16),
            regions: Vec::with_capacity(8),
            scopes: Vec::with_capacity(8),
            frames: Vec::with_capacity(16),
            field_caches,
            call_caches,
        }
    }

    /// Runs the program's main block (function 0, thread 0) and returns
    /// the run's state with the outcome.
    pub(crate) fn run_main(mut self) -> (Box<State>, Result<(), RunError>) {
        self.push_root_frame(0, Vec::new(), Vec::new(), None, self.heap);
        self.run()
    }

    /// Runs a forked method body once the thread has its first turn
    /// (mirrors the tree-walker's `run_method`).
    fn run_forked(mut self, start: ForkStart) -> (Box<State>, Result<(), RunError>) {
        self.push_root_frame(
            start.func,
            start.owners,
            start.args,
            Some(start.this_obj),
            start.region,
        );
        self.run()
    }

    /// Executes the root frame, flushes, and gives the state back.
    fn run(mut self) -> (Box<State>, Result<(), RunError>) {
        let result = self.exec().and_then(|()| self.flush());
        (self.st.expect(HOLDER), result)
    }

    fn push_root_frame(
        &mut self,
        func: u32,
        owners: Vec<RuntimeOwner>,
        args: Vec<Value>,
        this_obj: Option<ObjId>,
        region: RegionId,
    ) {
        let f = &self.prog.funcs[func as usize];
        self.locals.extend(args);
        self.locals.resize(f.n_locals as usize, Value::Null);
        self.regions.resize(f.n_regions as usize, self.heap);
        self.owners.extend(owners);
        self.frames.push(CallCtx {
            func,
            ip: 0,
            locals_base: 0,
            owners_base: 0,
            regions_base: 0,
            this_obj,
            initial_region: region,
            current_region: region,
        });
    }

    // ------------------------------------------------------------- plumbing
    // (identical to the tree-walker's, so flush points line up exactly)

    /// The run's state: this thread holds the token while it executes.
    fn st(&mut self) -> &mut State {
        self.st.as_mut().expect(HOLDER)
    }

    fn rt(&mut self) -> &mut Runtime {
        &mut self.st().rt
    }

    #[inline(always)]
    fn flush(&mut self) -> Result<(), RunError> {
        if self.pending_cycles > 0 || self.pending_steps > 0 {
            self.charge_pending()?;
        }
        Ok(())
    }

    /// Charges the pending steps and cycles to the clock and the step
    /// budget.
    #[inline]
    fn charge_pending(&mut self) -> Result<(), RunError> {
        let s = std::mem::take(&mut self.pending_steps);
        let c = std::mem::take(&mut self.pending_cycles) + s * self.step_cost;
        self.st().charge_steps(c, s)
    }

    fn rt_op<R>(
        &mut self,
        f: impl FnOnce(&mut Runtime) -> Result<R, rtj_runtime::RtError>,
    ) -> Result<R, RunError> {
        self.flush()?;
        f(self.rt()).map_err(RunError::from)
    }

    fn safepoint(&mut self) -> Result<(), RunError> {
        self.flush()?;
        self.machine.safepoint(&mut self.st, self.tid)
    }

    /// Spins (advancing virtual time) until the bookkeeping lock on
    /// `target` is acquired — verbatim the tree-walker's protocol.
    fn acquire_lock(&mut self, target: RegionId) -> Result<(), RunError> {
        let t = self.tid;
        let spin = self.rt().cost_model().region_enter_exit;
        let wait_start = self.rt().now();
        let mut waited = false;
        loop {
            self.flush()?;
            if self.rt().try_lock_region(t, target) {
                break;
            }
            waited = true;
            self.pending_cycles += spin;
            self.safepoint()?;
        }
        if waited && self.is_rt {
            let rt = self.rt();
            let now = rt.now();
            rt.note_rt_lock_wait(now - wait_start);
        }
        Ok(())
    }

    fn locked_enter(
        &mut self,
        parent: RegionId,
        member: Symbol,
        fresh: bool,
    ) -> Result<RegionId, RunError> {
        let t = self.tid;
        let target = self.rt_op(|rt| rt.subregion_lock_target(parent, member.as_str(), fresh))?;
        self.acquire_lock(target)?;
        self.safepoint()?;
        let entered = self.rt_op(|rt| rt.enter_subregion_locked(t, parent, member.as_str(), fresh));
        let unlock = self.rt_op(|rt| rt.unlock_region(t, target));
        let r = entered?;
        unlock?;
        Ok(r)
    }

    fn locked_exit(&mut self, r: RegionId) -> Result<(), RunError> {
        let t = self.tid;
        self.acquire_lock(r)?;
        self.safepoint()?;
        let exited = self.rt_op(|rt| rt.exit_subregion_locked(t, r));
        let unlock = self.rt_op(|rt| rt.unlock_region(t, r));
        exited?;
        unlock?;
        Ok(())
    }

    fn exit_scope(&mut self, exit: ScopeExit) -> Result<(), RunError> {
        let t = self.tid;
        match exit {
            ScopeExit::Created(r) => self.rt_op(|rt| rt.exit_created_region(t, r)).map(|_| ()),
            ScopeExit::Sub(r) => self.locked_exit(r),
        }
    }

    /// Runs the dispatch loop; on error, unwinds every open region scope
    /// (running exits, whose own errors lose to the original — exactly
    /// the tree-walker's eager-binding `let exit = …; flow?; exit?`
    /// pattern at every nesting level).
    fn exec(&mut self) -> Result<(), RunError> {
        match self.dispatch() {
            Ok(()) => Ok(()),
            Err(e) => {
                while let Some(scope) = self.scopes.pop() {
                    if let Some(fr) = self.frames.last_mut() {
                        fr.current_region = scope.saved_current;
                    }
                    let _ = self.exit_scope(scope.exit);
                }
                Err(e)
            }
        }
    }

    // -------------------------------------------------------------- helpers

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("operand stack underflow")
    }

    fn frame(&self) -> CallCtx {
        *self.frames.last().expect("no active frame")
    }

    fn eval_owner_op(&self, frame: &CallCtx, op: &OwnerOp) -> Result<RuntimeOwner, RunError> {
        match op {
            OwnerOp::Formal(i) => Ok(self.owners[frame.owners_base as usize + *i as usize]),
            OwnerOp::Region(s) => Ok(RuntimeOwner::Region(
                self.regions[frame.regions_base as usize + *s as usize],
            )),
            OwnerOp::This => frame.this_obj.map(RuntimeOwner::Object).ok_or_else(no_this),
            OwnerOp::InitialRegion => Ok(RuntimeOwner::Region(frame.initial_region)),
            OwnerOp::Heap => Ok(RuntimeOwner::Region(self.heap)),
            OwnerOp::Immortal => Ok(RuntimeOwner::Region(self.immortal)),
            OwnerOp::FailUnbound(n) => Err(RunError::Interp(format!("unbound owner `{n}`"))),
            OwnerOp::FailRt => Err(RunError::Interp("`RT` is not a value owner".into())),
            OwnerOp::FailThis => Err(no_this()),
        }
    }

    /// The field slot of site `site` on `obj`: the receiver's class is
    /// read once and compared with the site's inline cache.
    #[inline]
    fn field_slot(&mut self, site: u32, obj: ObjId) -> Result<usize, RunError> {
        let class = self.rt().object(obj).class_name;
        match self.field_caches[site as usize] {
            Some((c, slot)) if c == class => Ok(slot as usize),
            _ => self.fill_field_cache(site, class),
        }
    }

    /// The inline-cache miss: looks the field up in `class`'s layout and
    /// caches the slot.
    #[inline(never)]
    fn fill_field_cache(&mut self, site: u32, class: Symbol) -> Result<usize, RunError> {
        let field = self.prog.field_sites[site as usize].field;
        let slot = self
            .data
            .layouts
            .class(class)
            .and_then(|l| l.field_index.get(&field).copied())
            .ok_or_else(|| RunError::Interp(format!("no field `{field}` on `{class}`")))?;
        self.field_caches[site as usize] = Some((class, slot as u32));
        Ok(slot)
    }

    /// Reads field site `site` of `recv`.
    #[inline]
    fn load_field(&mut self, site: u32, recv: Value) -> Result<Value, RunError> {
        let Value::Ref(obj) = recv else {
            return self.load_portal(site, recv);
        };
        let slot = self.field_slot(site, obj)?;
        self.flush()?;
        let t = self.tid;
        self.rt().load_field(t, obj, slot).map_err(RunError::from)
    }

    /// Writes `v` to field site `site` of `recv`.
    #[inline]
    fn store_field(&mut self, site: u32, recv: Value, v: Value) -> Result<(), RunError> {
        let Value::Ref(obj) = recv else {
            return self.store_portal(site, recv, v);
        };
        let slot = self.field_slot(site, obj)?;
        self.flush()?;
        let t = self.tid;
        self.rt()
            .store_field(t, obj, slot, v)
            .map_err(RunError::from)
    }

    /// A field read whose receiver is not an object: a region handle's
    /// portal, or an error.
    #[inline(never)]
    fn load_portal(&mut self, site: u32, recv: Value) -> Result<Value, RunError> {
        match recv {
            Value::Handle(r) => {
                let (t, name) = (self.tid, self.prog.field_sites[site as usize].field);
                self.rt_op(|rt| rt.load_portal(t, r, name.as_str()))
            }
            Value::Null => Err(RunError::Interp("null dereference in field read".into())),
            other => Err(RunError::Interp(format!("cannot read field of `{other}`"))),
        }
    }

    /// A field write whose receiver is not an object: a region handle's
    /// portal, or an error.
    #[inline(never)]
    fn store_portal(&mut self, site: u32, recv: Value, v: Value) -> Result<(), RunError> {
        match recv {
            Value::Handle(r) => {
                let (t, name) = (self.tid, self.prog.field_sites[site as usize].field);
                self.rt_op(|rt| rt.store_portal(t, r, name.as_str(), v))
            }
            Value::Null => Err(RunError::Interp("null dereference in field write".into())),
            other => Err(RunError::Interp(format!("cannot write field of `{other}`"))),
        }
    }

    /// Method resolution for the site's inline cache, composing the
    /// superclass chain's extends clauses into [`OwnerSrc`]s over the
    /// receiver's stored owners. Mirrors `build_callee_frame` up to (and
    /// including) the owner-argument count check; the argument-count
    /// check is deferred via [`CallTarget::arg_err`].
    #[inline(never)]
    fn call_target(&self, site_idx: usize, class: Symbol) -> Result<CallTarget, Box<str>> {
        let site = &self.prog.call_sites[site_idx];
        let method = site.method;
        let (chain, mdecl) = resolve_method_chain(&self.data.table, class, method)
            .ok_or_else(|| Box::from(format!("no method `{method}` on `{class}`")))?;
        // Compose the chain: `cur` maps the current class's formals to
        // sources over the receiver (None = identity over the receiver's
        // own owners).
        let mut cur: Option<Vec<OwnerSrc>> = None;
        let mut cur_class = class;
        for (super_name, super_refs) in &chain {
            let layout = self
                .data
                .layouts
                .class(cur_class)
                .ok_or_else(|| Box::from(format!("unknown class `{cur_class}`")))?;
            let mut next = Vec::with_capacity(super_refs.len());
            for r in super_refs {
                let s = match r {
                    OwnerRef::Name(id) => {
                        let pos = layout
                            .formal_names
                            .iter()
                            .position(|n| *n == id.name)
                            .ok_or_else(|| Box::from(format!("unbound owner `{}`", id.name)))?;
                        match &cur {
                            None => OwnerSrc::RecvOwner(pos as u32),
                            Some(v) => v[pos],
                        }
                    }
                    OwnerRef::This(_) => OwnerSrc::RecvObject,
                    OwnerRef::Heap(_) => OwnerSrc::Heap,
                    OwnerRef::Immortal(_) => OwnerSrc::Immortal,
                    other => {
                        return Err(Box::from(format!(
                            "invalid owner `{other:?}` in extends clause"
                        )))
                    }
                };
                next.push(s);
            }
            cur = Some(next);
            cur_class = *super_name;
        }
        let decl_layout = self
            .data
            .layouts
            .class(cur_class)
            .ok_or_else(|| Box::from(format!("unknown class `{cur_class}`")))?;
        let owner_srcs: Box<[OwnerSrc]> = match cur {
            None => (0..decl_layout.formal_names.len())
                .map(|i| OwnerSrc::RecvOwner(i as u32))
                .collect(),
            Some(v) => v.into(),
        };
        if site.owner_ops.len() != mdecl.formals.len() {
            return Err(Box::from(format!(
                "method `{method}` expects {} owner argument(s), found {} \
                 (was the program checked?)",
                mdecl.formals.len(),
                site.owner_ops.len()
            )));
        }
        let arg_err = (site.n_args as usize != mdecl.params.len()).then(|| {
            Box::from(format!(
                "method `{method}` expects {} argument(s), found {}",
                mdecl.params.len(),
                site.n_args
            ))
        });
        let func = *self
            .prog
            .methods
            .get(&(cur_class, mdecl.name.name))
            .ok_or_else(|| Box::from(format!("no method {cur_class}.{method}")))?;
        Ok(CallTarget {
            func,
            owner_srcs,
            arg_err,
        })
    }

    /// Pushes the callee's owners straight onto the owner stack — the
    /// declaring class's formals from the receiver through the site's
    /// inline cache, then the site's owner arguments — in the
    /// tree-walker's error order, and returns the callee's function.
    fn push_callee_owners(
        &mut self,
        site: usize,
        obj: ObjId,
        frame: &CallCtx,
    ) -> Result<u32, RunError> {
        let rt = &self.st.as_ref().expect(HOLDER).rt;
        let (class, recv_owners) = (rt.object(obj).class_name, rt.objects().owners(obj));
        if !matches!(&self.call_caches[site], Some((c, _)) if *c == class) {
            self.call_caches[site] = Some((class, self.call_target(site, class)));
        }
        let Some((_, target)) = &self.call_caches[site] else {
            unreachable!("the entry was filled above")
        };
        let target = target
            .as_ref()
            .map_err(|m| RunError::Interp(m.to_string()))?;
        for src in target.owner_srcs.iter() {
            self.owners.push(match *src {
                OwnerSrc::RecvOwner(i) => recv_owners[i as usize],
                OwnerSrc::RecvObject => RuntimeOwner::Object(obj),
                OwnerSrc::Heap => RuntimeOwner::Region(self.heap),
                OwnerSrc::Immortal => RuntimeOwner::Region(self.immortal),
            });
        }
        for op in self.prog.call_sites[site].owner_ops.iter() {
            let owner = self.eval_owner_op(frame, op)?;
            self.owners.push(owner);
        }
        match &target.arg_err {
            Some(msg) => Err(RunError::Interp(msg.to_string())),
            None => Ok(target.func),
        }
    }

    /// The receiver of a call or fork site with `n_args` arguments above
    /// it on the stack, and its stack position.
    fn receiver(&self, n_args: usize, fork: bool) -> Result<(ObjId, usize), RunError> {
        let pos = self.stack.len() - n_args - 1;
        match &self.stack[pos] {
            Value::Ref(o) => Ok((*o, pos)),
            v => Err(recv_error(fork, v)),
        }
    }

    /// `Call`: resolves the callee, pushes its owners, charges the call,
    /// hits the safepoint and pushes the callee's frame; the caller
    /// resumes at `ip`.
    #[inline(never)]
    fn call(&mut self, site: u32, frame: CallCtx, ip: usize) -> Result<(), RunError> {
        let site = site as usize;
        let n_args = self.prog.call_sites[site].n_args as usize;
        let (obj, _) = self.receiver(n_args, false)?;
        let owners_base = self.owners.len() as u32;
        let func = self.push_callee_owners(site, obj, &frame)?;
        self.pending_cycles += self.call_cost;
        self.safepoint()?;
        if self.frames.len() as u32 > MAX_CALL_DEPTH {
            return Err(RunError::Interp(format!(
                "call depth exceeded {MAX_CALL_DEPTH} (unbounded recursion?)"
            )));
        }
        let callee = &self.prog.funcs[func as usize];
        let locals_base = self.locals.len() as u32;
        let args_start = self.stack.len() - n_args;
        self.locals.extend(self.stack.drain(args_start..));
        self.stack.pop(); // receiver
        self.locals
            .resize(locals_base as usize + callee.n_locals as usize, Value::Null);
        let regions_base = self.regions.len() as u32;
        self.regions
            .resize(regions_base as usize + callee.n_regions as usize, self.heap);
        let cur = frame.current_region;
        self.frames.last_mut().expect("caller frame").ip = ip as u32;
        self.frames.push(CallCtx {
            func,
            ip: 0,
            locals_base,
            owners_base,
            regions_base,
            this_obj: Some(obj),
            initial_region: cur,
            current_region: cur,
        });
        Ok(())
    }

    /// `Fork`: resolves the callee like a call, then moves the owners it
    /// pushed and the arguments into a new program thread.
    #[inline(never)]
    fn fork(&mut self, site: u32, frame: CallCtx) -> Result<(), RunError> {
        let site = site as usize;
        let rt = self.prog.call_sites[site].fork_rt.unwrap_or(false);
        let n_args = self.prog.call_sites[site].n_args as usize;
        let (obj, recv_pos) = self.receiver(n_args, true)?;
        let owners_base = self.owners.len();
        let func = self.push_callee_owners(site, obj, &frame)?;
        let owners = self.owners.drain(owners_base..).collect();
        let args = self.stack.drain(recv_pos + 1..).collect();
        self.stack.pop(); // receiver
        let class = if rt {
            ThreadClass::RealTime
        } else {
            ThreadClass::Regular
        };
        self.flush()?;
        let me = self.tid;
        let child = self.rt().spawn_thread(me, class);
        let machine = Arc::clone(&self.machine);
        let data = Arc::clone(&self.data);
        let prog = Arc::clone(&self.prog);
        let start = ForkStart {
            func,
            owners,
            args,
            this_obj: obj,
            region: frame.current_region,
        };
        let st = self.st.as_mut().expect(HOLDER);
        self.machine.fork(st, child, class, move |st| {
            Vm::new(machine, st, data, prog, child, rt).run_forked(start)
        })
    }

    /// `New`: allocates `site`'s object in the region of its first owner
    /// and returns the reference. The owners are evaluated onto the owner
    /// stack and handed to the runtime from there; an error ends the run,
    /// so only success pops them.
    #[inline(never)]
    fn new_object(&mut self, site: &NewSite, frame: CallCtx) -> Result<Value, RunError> {
        let base = self.owners.len();
        for op in site.owner_ops.iter() {
            let owner = self.eval_owner_op(&frame, op)?;
            self.owners.push(owner);
        }
        let first = *self
            .owners
            .get(base)
            .ok_or_else(|| RunError::Interp(format!("`new {}` with no owners", site.class)))?;
        if !site.known {
            return Err(RunError::Interp(format!("unknown class `{}`", site.class)));
        }
        self.flush()?;
        let rt = &mut self.st.as_mut().expect(HOLDER).rt;
        let owners = &self.owners[base..];
        let obj = rt.alloc(self.tid, first, site.class, owners, site.n_fields as usize)?;
        for (i, v) in site.defaults.iter() {
            rt.init_field_raw(obj, *i as usize, v.clone());
        }
        self.owners.truncate(base);
        Ok(Value::Ref(obj))
    }

    /// `RegionEnter`: creates or enters `site`'s region, opens its scope,
    /// binds its slots and returns it as the frame's current region.
    #[inline(never)]
    fn region_enter(&mut self, site: &RegionSite, frame: CallCtx) -> Result<RegionId, RunError> {
        let t = self.tid;
        let (r, exit) = match &site.kind {
            RegionSiteKind::Local => {
                let r = self.rt_op(|rt| rt.create_region(t, RegionSpec::plain_vt(), false))?;
                (r, ScopeExit::Created(r))
            }
            RegionSiteKind::New { spec } => {
                let s = spec.clone();
                let r = self.rt_op(move |rt| rt.create_region(t, s, true))?;
                (r, ScopeExit::Created(r))
            }
            RegionSiteKind::Sub {
                member,
                fresh,
                parent_slot,
                parent_name,
            } => {
                let pv = &self.locals[frame.locals_base as usize + *parent_slot as usize];
                let Value::Handle(pr) = *pv else {
                    return Err(RunError::Interp(format!(
                        "`{parent_name}` is not a region handle"
                    )));
                };
                let r = self.locked_enter(pr, *member, *fresh)?;
                (r, ScopeExit::Sub(r))
            }
        };
        self.scopes.push(RegionScope {
            saved_current: frame.current_region,
            exit,
        });
        self.frames.last_mut().expect("frame").current_region = r;
        self.regions[frame.regions_base as usize + site.region_slot as usize] = r;
        self.locals[frame.locals_base as usize + site.handle_slot as usize] = Value::Handle(r);
        Ok(r)
    }

    /// `RegionExit`: closes the innermost scope, runs its exit protocol
    /// and returns the frame's restored current region.
    #[inline(never)]
    fn region_exit(&mut self) -> Result<RegionId, RunError> {
        let scope = self.scopes.pop().expect("region scope");
        self.frames.last_mut().expect("frame").current_region = scope.saved_current;
        self.exit_scope(scope.exit)?;
        Ok(scope.saved_current)
    }

    /// `Print`: pops a value and prints it; pushes `null`.
    #[inline(never)]
    fn print(&mut self) -> Result<(), RunError> {
        let v = self.pop();
        self.flush()?;
        self.rt().print(v.to_string());
        self.stack.push(Value::Null);
        Ok(())
    }

    /// `Io` (`io` true) or `Workload`: pops an int and charges it as
    /// cycles, then, for `Io`, hits a safepoint; pushes `null`.
    #[inline(never)]
    fn io(&mut self, io: bool) -> Result<(), RunError> {
        let n = self
            .pop()
            .as_int()
            .ok_or_else(|| RunError::Interp("io/workload needs int".into()))?;
        self.pending_cycles += n.max(0) as u64;
        if io {
            self.safepoint()?;
        }
        self.stack.push(Value::Null);
        Ok(())
    }

    // -------------------------------------------------------- dispatch loop

    fn dispatch(&mut self) -> Result<(), RunError> {
        let prog = Arc::clone(&self.prog);
        let mut frame = self.frame();
        let mut code: &[Op] = &prog.funcs[frame.func as usize].code;
        let mut ip: usize = 0;
        macro_rules! reload {
            () => {{
                frame = self.frame();
                code = &prog.funcs[frame.func as usize].code;
                ip = frame.ip as usize;
            }};
        }
        macro_rules! local {
            ($slot:expr) => {
                self.locals[frame.locals_base as usize + $slot as usize]
            };
        }
        macro_rules! add_steps {
            ($n:expr) => {
                self.pending_steps += u64::from($n)
            };
        }
        loop {
            let op = code[ip];
            ip += 1;
            match op {
                Op::Step(n) => add_steps!(n),
                Op::ConstInt(n) => self.stack.push(Value::Int(n)),
                Op::ConstBool(b) => self.stack.push(Value::Bool(b)),
                Op::ConstNull => self.stack.push(Value::Null),
                Op::ConstStr(i) => self
                    .stack
                    .push(Value::Str(prog.strings[i as usize].clone())),
                Op::LoadLocal(s) => {
                    let v = local!(s).clone();
                    self.stack.push(v);
                }
                Op::LoadLocal2(a, b) => {
                    let (a, b) = (local!(a).clone(), local!(b).clone());
                    self.stack.push(a);
                    self.stack.push(b);
                }
                Op::LoadLocalNull(s) => {
                    let v = local!(s).clone();
                    self.stack.push(v);
                    self.stack.push(Value::Null);
                }
                Op::StoreLocal(s) => {
                    let v = self.pop();
                    local!(s) = v;
                }
                Op::Pop => {
                    self.pop();
                }
                Op::This => {
                    let obj = frame.this_obj.ok_or_else(no_this)?;
                    self.stack.push(Value::Ref(obj));
                }
                Op::Unary { op, steps } => {
                    add_steps!(steps);
                    let v = self.pop();
                    self.stack.push(unary(op, v)?);
                }
                Op::Binary { op, steps } => {
                    add_steps!(steps);
                    let r = self.pop();
                    let l = self.pop();
                    self.stack.push(binary(op, l, r)?);
                }
                Op::BinaryInt { op, steps, rhs } => {
                    add_steps!(steps);
                    let l = self.pop();
                    self.stack.push(binary(op, l, Value::Int(rhs))?);
                }
                Op::Jump { target, steps } => {
                    add_steps!(steps);
                    ip = target as usize;
                }
                Op::JumpIfFalse { target, ctx, steps } => {
                    add_steps!(steps);
                    if !condition(ctx, self.pop())? {
                        ip = target as usize;
                    }
                }
                Op::BinaryJumpIfFalse {
                    op,
                    target,
                    ctx,
                    steps,
                } => {
                    add_steps!(steps);
                    let r = self.pop();
                    let l = self.pop();
                    if !condition(ctx, binary(op, l, r)?)? {
                        ip = target as usize;
                    }
                }
                Op::ScAnd { target, steps } => {
                    add_steps!(steps);
                    match self.pop() {
                        Value::Bool(true) => {}
                        Value::Bool(false) => {
                            self.stack.push(Value::Bool(false));
                            ip = target as usize;
                        }
                        l => return Err(bad_operand(&l, BinOp::And)),
                    }
                }
                Op::ScOr { target, steps } => {
                    add_steps!(steps);
                    match self.pop() {
                        Value::Bool(false) => {}
                        Value::Bool(true) => {
                            self.stack.push(Value::Bool(true));
                            ip = target as usize;
                        }
                        l => return Err(bad_operand(&l, BinOp::Or)),
                    }
                }
                Op::CheckBool { op, steps } => {
                    add_steps!(steps);
                    match self.stack.last() {
                        Some(Value::Bool(_)) => {}
                        Some(r) => return Err(bad_operand(r, op)),
                        None => unreachable!("CheckBool on empty stack"),
                    }
                }
                Op::LoadField { site, steps } => {
                    add_steps!(steps);
                    let recv = self.pop();
                    let v = self.load_field(site, recv)?;
                    self.stack.push(v);
                }
                Op::LoadLocalField { slot, site, steps } => {
                    add_steps!(steps);
                    let recv = local!(slot).clone();
                    let v = self.load_field(site, recv)?;
                    self.stack.push(v);
                }
                Op::StoreField { site, steps } => {
                    add_steps!(steps);
                    let v = self.pop();
                    let recv = self.pop();
                    self.store_field(site, recv, v)?;
                }
                Op::CheckRecv { fork, steps } => {
                    add_steps!(steps);
                    match self.stack.last() {
                        Some(Value::Ref(_)) => {}
                        Some(v) => return Err(recv_error(fork, v)),
                        None => unreachable!("CheckRecv on empty stack"),
                    }
                }
                Op::Call { site, steps } => {
                    add_steps!(steps);
                    self.call(site, frame, ip)?;
                    reload!();
                }
                Op::Fork { site, steps } => {
                    add_steps!(steps);
                    self.fork(site, frame)?;
                }
                Op::New { site, steps } => {
                    add_steps!(steps);
                    let obj = self.new_object(&prog.new_sites[site as usize], frame)?;
                    self.stack.push(obj);
                }
                Op::RegionEnter { site, steps } => {
                    add_steps!(steps);
                    let site = &prog.region_sites[site as usize];
                    frame.current_region = self.region_enter(site, frame)?;
                }
                Op::RegionExit { steps } => {
                    add_steps!(steps);
                    frame.current_region = self.region_exit()?;
                }
                Op::Print { steps } => {
                    add_steps!(steps);
                    self.print()?;
                }
                Op::Io { steps } => {
                    add_steps!(steps);
                    self.io(true)?;
                }
                Op::Workload { steps } => {
                    add_steps!(steps);
                    self.io(false)?;
                }
                Op::Safepoint { steps } => {
                    add_steps!(steps);
                    self.safepoint()?;
                }
                Op::Ret { steps } => {
                    add_steps!(steps);
                    let ctx = self.frames.pop().expect("frame");
                    self.locals.truncate(ctx.locals_base as usize);
                    self.owners.truncate(ctx.owners_base as usize);
                    self.regions.truncate(ctx.regions_base as usize);
                    if self.frames.is_empty() {
                        return Ok(());
                    }
                    reload!();
                }
                Op::Fail { msg, steps } => {
                    add_steps!(steps);
                    return Err(fail(&prog.fail_msgs[msg as usize]));
                }
            }
        }
    }
}

/// Non-short-circuit binary operator evaluation with the tree-walker's
/// exact semantics and error messages: integer arithmetic and
/// comparisons, and equality on any two values. Errors are built out of
/// line.
#[inline(always)]
fn binary(op: BinOp, l: Value, r: Value) -> Result<Value, RunError> {
    use BinOp::*;
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        match op {
            Add => return Ok(Value::Int(a.wrapping_add(b))),
            Sub => return Ok(Value::Int(a.wrapping_sub(b))),
            Mul => return Ok(Value::Int(a.wrapping_mul(b))),
            Div if b != 0 => return Ok(Value::Int(a.wrapping_div(b))),
            Rem if b != 0 => return Ok(Value::Int(a.wrapping_rem(b))),
            Lt => return Ok(Value::Bool(a < b)),
            Le => return Ok(Value::Bool(a <= b)),
            Gt => return Ok(Value::Bool(a > b)),
            Ge => return Ok(Value::Bool(a >= b)),
            _ => {}
        }
    }
    match op {
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        _ => Err(binary_error(op, &l, &r)),
    }
}

/// The error of [`binary`] on operands the operator does not take.
#[cold]
fn binary_error(op: BinOp, l: &Value, r: &Value) -> RunError {
    RunError::Interp(match (op, r) {
        (BinOp::Div, Value::Int(0)) if matches!(l, Value::Int(_)) => "division by zero".into(),
        (BinOp::Rem, Value::Int(0)) if matches!(l, Value::Int(_)) => "remainder by zero".into(),
        _ => format!("bad operands {l}, {r} for {op}"),
    })
}

fn unary(op: UnOp, v: Value) -> Result<Value, RunError> {
    match (op, v) {
        (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (op, v) => Err(RunError::Interp(format!("bad operand {v} for {op:?}"))),
    }
}

/// The branch a condition takes, or the statement's error for a
/// non-boolean.
#[inline]
fn condition(ctx: CondCtx, v: Value) -> Result<bool, RunError> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(condition_error(ctx, &other)),
    }
}

#[cold]
fn condition_error(ctx: CondCtx, v: &Value) -> RunError {
    let what = match ctx {
        CondCtx::If => "if",
        CondCtx::While => "while",
    };
    RunError::Interp(format!("{what} condition evaluated to `{v}`"))
}

#[cold]
fn bad_operand(v: &Value, op: BinOp) -> RunError {
    RunError::Interp(format!("bad operand {v} for {op}"))
}

#[cold]
fn recv_error(fork: bool, v: &Value) -> RunError {
    if fork {
        RunError::Interp("fork receiver must be an object".into())
    } else {
        RunError::Interp(format!("method call on non-object `{v}`"))
    }
}

#[cold]
fn no_this() -> RunError {
    RunError::Interp("`this` outside a method".into())
}

#[cold]
fn fail(msg: &str) -> RunError {
    RunError::Interp(msg.to_owned())
}
