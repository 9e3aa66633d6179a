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
//! and method-body clones.
//!
//! Inline caches are keyed on the receiver's interned class [`Symbol`]
//! (the layout id — two objects share a layout iff their class symbols
//! are pointer-equal). Layouts are immutable for the life of a program,
//! so cache entries are never invalidated, only replaced when a site
//! sees a receiver of a different class. Caches are per-thread, so no
//! synchronisation is needed on hits.
//!
//! A `Vm` executes only while its program thread holds the scheduler's
//! token, and then it owns the run's state, region runtime included: a
//! runtime operation is a plain call, with no lock. A safepoint gives the
//! state up only when the scheduler switches to another program thread,
//! which only a program that forks ever does.

use crate::bytecode::{CompiledProgram, CondCtx, Op, OwnerOp, RegionSiteKind};
use crate::eval::{ProgramData, MAX_CALL_DEPTH};
use crate::layout::resolve_method_chain;
use crate::machine::{Machine, RunError, State, HOLDER};
use rtj_lang::ast::{BinOp, OwnerRef, UnOp};
use rtj_lang::Symbol;
use rtj_runtime::{
    ObjId, RegionId, RegionSpec, Runtime, RuntimeOwner, ThreadClass, ThreadId, Value,
};
use std::rc::Rc;
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
#[derive(Clone)]
struct CallTarget {
    func: u32,
    owner_srcs: Rc<[OwnerSrc]>,
    /// Deferred argument-count error: the tree-walker raises it only
    /// after resolving the site's owner arguments.
    arg_err: Option<Rc<str>>,
}

/// One call-site inline-cache entry: the receiver class the entry is
/// valid for, and the resolution outcome (target or cached error).
type CallCacheEntry = Option<(Symbol, Result<CallTarget, Rc<str>>)>;

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
        let call_caches = vec![None; prog.call_sites.len()];
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

    fn flush(&mut self) -> Result<(), RunError> {
        if self.pending_cycles > 0 || self.pending_steps > 0 {
            let (c, s) = (self.pending_cycles, self.pending_steps);
            self.pending_cycles = 0;
            self.pending_steps = 0;
            self.st().charge_steps(c, s)?;
        }
        Ok(())
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
            OwnerOp::This => frame
                .this_obj
                .map(RuntimeOwner::Object)
                .ok_or_else(|| RunError::Interp("`this` outside a method".into())),
            OwnerOp::InitialRegion => Ok(RuntimeOwner::Region(frame.initial_region)),
            OwnerOp::Heap => Ok(RuntimeOwner::Region(self.heap)),
            OwnerOp::Immortal => Ok(RuntimeOwner::Region(self.immortal)),
            OwnerOp::FailUnbound(n) => Err(RunError::Interp(format!("unbound owner `{n}`"))),
            OwnerOp::FailRt => Err(RunError::Interp("`RT` is not a value owner".into())),
            OwnerOp::FailThis => Err(RunError::Interp("`this` outside a method".into())),
        }
    }

    /// Field-slot lookup through the site's inline cache.
    fn field_slot(&mut self, site: usize, obj: ObjId) -> Result<usize, RunError> {
        let class = self.rt().object(obj).class_name;
        if let Some((c, slot)) = &self.field_caches[site] {
            if *c == class {
                return Ok(*slot as usize);
            }
        }
        let field = self.prog.field_sites[site].field;
        let slot = self
            .data
            .layouts
            .class(class)
            .and_then(|l| l.field_index.get(&field).copied())
            .ok_or_else(|| RunError::Interp(format!("no field `{field}` on `{class}`")))?;
        self.field_caches[site] = Some((class, slot as u32));
        Ok(slot)
    }

    /// Method resolution through the site's inline cache, composing the
    /// superclass chain's extends clauses into [`OwnerSrc`]s over the
    /// receiver's stored owners. Mirrors `build_callee_frame` up to (and
    /// including) the owner-argument count check; the argument-count
    /// check is deferred via [`CallTarget::arg_err`].
    fn resolve_call(&mut self, site_idx: usize, class: Symbol) -> Result<CallTarget, RunError> {
        if let Some((c, res)) = &self.call_caches[site_idx] {
            if *c == class {
                return res
                    .clone()
                    .map_err(|m| RunError::Interp(m.as_ref().to_owned()));
            }
        }
        let res = self.compute_call_target(site_idx, class);
        self.call_caches[site_idx] = Some((class, res.clone()));
        res.map_err(|m| RunError::Interp(m.as_ref().to_owned()))
    }

    fn compute_call_target(&self, site_idx: usize, class: Symbol) -> Result<CallTarget, Rc<str>> {
        let site = &self.prog.call_sites[site_idx];
        let method = site.method;
        let (chain, mdecl) = resolve_method_chain(&self.data.table, class, method)
            .ok_or_else(|| Rc::from(format!("no method `{method}` on `{class}`")))?;
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
                .ok_or_else(|| Rc::from(format!("unknown class `{cur_class}`")))?;
            let mut next = Vec::with_capacity(super_refs.len());
            for r in super_refs {
                let s = match r {
                    OwnerRef::Name(id) => {
                        let pos = layout
                            .formal_names
                            .iter()
                            .position(|n| *n == id.name)
                            .ok_or_else(|| Rc::from(format!("unbound owner `{}`", id.name)))?;
                        match &cur {
                            None => OwnerSrc::RecvOwner(pos as u32),
                            Some(v) => v[pos],
                        }
                    }
                    OwnerRef::This(_) => OwnerSrc::RecvObject,
                    OwnerRef::Heap(_) => OwnerSrc::Heap,
                    OwnerRef::Immortal(_) => OwnerSrc::Immortal,
                    other => {
                        return Err(Rc::from(format!(
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
            .ok_or_else(|| Rc::from(format!("unknown class `{cur_class}`")))?;
        let owner_srcs: Vec<OwnerSrc> = match cur {
            None => (0..decl_layout.formal_names.len())
                .map(|i| OwnerSrc::RecvOwner(i as u32))
                .collect(),
            Some(v) => v,
        };
        if site.owner_ops.len() != mdecl.formals.len() {
            return Err(Rc::from(format!(
                "method `{method}` expects {} owner argument(s), found {} \
                 (was the program checked?)",
                mdecl.formals.len(),
                site.owner_ops.len()
            )));
        }
        let arg_err = (site.n_args as usize != mdecl.params.len()).then(|| {
            Rc::from(format!(
                "method `{method}` expects {} argument(s), found {}",
                mdecl.params.len(),
                site.n_args
            ))
        });
        let func = *self
            .prog
            .methods
            .get(&(cur_class, mdecl.name.name))
            .ok_or_else(|| Rc::from(format!("no method {cur_class}.{method}")))?;
        Ok(CallTarget {
            func,
            owner_srcs: Rc::from(owner_srcs),
            arg_err,
        })
    }

    /// Reads the receiver and builds the callee's owner vector (declaring
    /// class formals from cache sources, then the site's owner-argument
    /// ops), in the tree-walker's exact error order.
    fn callee_owners(
        &mut self,
        site_idx: usize,
        obj: ObjId,
        frame: &CallCtx,
    ) -> Result<(CallTarget, Vec<RuntimeOwner>), RunError> {
        let o = self.rt().object(obj);
        let (class, recv_owners) = (o.class_name, o.owners.clone());
        let target = self.resolve_call(site_idx, class)?;
        let site = &self.prog.call_sites[site_idx];
        let mut owners = Vec::with_capacity(target.owner_srcs.len() + site.owner_ops.len());
        for src in target.owner_srcs.iter() {
            owners.push(match src {
                OwnerSrc::RecvOwner(i) => recv_owners[*i as usize],
                OwnerSrc::RecvObject => RuntimeOwner::Object(obj),
                OwnerSrc::Heap => RuntimeOwner::Region(self.heap),
                OwnerSrc::Immortal => RuntimeOwner::Region(self.immortal),
            });
        }
        let owner_ops = Arc::clone(&self.prog);
        for op in owner_ops.call_sites[site_idx].owner_ops.iter() {
            owners.push(self.eval_owner_op(frame, op)?);
        }
        if let Some(msg) = &target.arg_err {
            return Err(RunError::Interp(msg.as_ref().to_owned()));
        }
        Ok((target, owners))
    }

    // -------------------------------------------------------- dispatch loop

    #[allow(clippy::too_many_lines)]
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
        loop {
            let op = code[ip];
            ip += 1;
            match op {
                Op::Step(n) => {
                    self.pending_cycles += n as u64 * self.step_cost;
                    self.pending_steps += n as u64;
                }
                Op::ConstInt(n) => self.stack.push(Value::Int(n)),
                Op::ConstBool(b) => self.stack.push(Value::Bool(b)),
                Op::ConstNull => self.stack.push(Value::Null),
                Op::ConstStr(i) => self
                    .stack
                    .push(Value::Str(prog.strings[i as usize].clone())),
                Op::LoadLocal(s) => {
                    let v = self.locals[frame.locals_base as usize + s as usize].clone();
                    self.stack.push(v);
                }
                Op::StoreLocal(s) => {
                    let v = self.pop();
                    self.locals[frame.locals_base as usize + s as usize] = v;
                }
                Op::Pop => {
                    self.pop();
                }
                Op::This => {
                    let obj = frame
                        .this_obj
                        .ok_or_else(|| RunError::Interp("`this` outside a method".into()))?;
                    self.stack.push(Value::Ref(obj));
                }
                Op::Unary(op) => {
                    let v = self.pop();
                    let out = match (op, v) {
                        (UnOp::Neg, Value::Int(n)) => Value::Int(n.wrapping_neg()),
                        (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                        (op, v) => {
                            return Err(RunError::Interp(format!("bad operand {v} for {op:?}")))
                        }
                    };
                    self.stack.push(out);
                }
                Op::Binary(op) => {
                    let r = self.pop();
                    let l = self.pop();
                    self.stack.push(binary(op, l, r)?);
                }
                Op::Jump(t) => ip = t as usize,
                Op::JumpIfFalse { target, ctx } => match self.pop() {
                    Value::Bool(true) => {}
                    Value::Bool(false) => ip = target as usize,
                    other => {
                        let what = match ctx {
                            CondCtx::If => "if",
                            CondCtx::While => "while",
                        };
                        return Err(RunError::Interp(format!(
                            "{what} condition evaluated to `{other}`"
                        )));
                    }
                },
                Op::ScAnd(t) => match self.pop() {
                    Value::Bool(true) => {}
                    Value::Bool(false) => {
                        self.stack.push(Value::Bool(false));
                        ip = t as usize;
                    }
                    l => {
                        return Err(RunError::Interp(format!(
                            "bad operand {l} for {}",
                            BinOp::And
                        )))
                    }
                },
                Op::ScOr(t) => match self.pop() {
                    Value::Bool(false) => {}
                    Value::Bool(true) => {
                        self.stack.push(Value::Bool(true));
                        ip = t as usize;
                    }
                    l => {
                        return Err(RunError::Interp(format!(
                            "bad operand {l} for {}",
                            BinOp::Or
                        )))
                    }
                },
                Op::CheckBool(op) => match self.stack.last() {
                    Some(Value::Bool(_)) => {}
                    Some(r) => return Err(RunError::Interp(format!("bad operand {r} for {op}"))),
                    None => unreachable!("CheckBool on empty stack"),
                },
                Op::LoadField(site) => {
                    let t = self.tid;
                    match self.pop() {
                        Value::Ref(obj) => {
                            let idx = self.field_slot(site as usize, obj)?;
                            let v = self.rt_op(|rt| rt.load_field(t, obj, idx))?;
                            self.stack.push(v);
                        }
                        Value::Handle(r) => {
                            let name = prog.field_sites[site as usize].field;
                            let v = self.rt_op(|rt| rt.load_portal(t, r, name.as_str()))?;
                            self.stack.push(v);
                        }
                        Value::Null => {
                            return Err(RunError::Interp("null dereference in field read".into()))
                        }
                        other => {
                            return Err(RunError::Interp(format!("cannot read field of `{other}`")))
                        }
                    }
                }
                Op::StoreField(site) => {
                    let t = self.tid;
                    let v = self.pop();
                    match self.pop() {
                        Value::Ref(obj) => {
                            let idx = self.field_slot(site as usize, obj)?;
                            self.rt_op(|rt| rt.store_field(t, obj, idx, v))?;
                        }
                        Value::Handle(r) => {
                            let name = prog.field_sites[site as usize].field;
                            self.rt_op(|rt| rt.store_portal(t, r, name.as_str(), v))?;
                        }
                        Value::Null => {
                            return Err(RunError::Interp("null dereference in field write".into()))
                        }
                        other => {
                            return Err(RunError::Interp(format!(
                                "cannot write field of `{other}`"
                            )))
                        }
                    }
                }
                Op::CheckRecv { fork } => match self.stack.last() {
                    Some(Value::Ref(_)) => {}
                    Some(v) => {
                        return Err(if fork {
                            RunError::Interp("fork receiver must be an object".into())
                        } else {
                            RunError::Interp(format!("method call on non-object `{v}`"))
                        })
                    }
                    None => unreachable!("CheckRecv on empty stack"),
                },
                Op::Call(site) => {
                    let site_idx = site as usize;
                    let n_args = prog.call_sites[site_idx].n_args as usize;
                    let recv_pos = self.stack.len() - n_args - 1;
                    let obj = match &self.stack[recv_pos] {
                        Value::Ref(o) => *o,
                        v => {
                            return Err(RunError::Interp(format!(
                                "method call on non-object `{v}`"
                            )))
                        }
                    };
                    let (target, new_owners) = self.callee_owners(site_idx, obj, &frame)?;
                    self.pending_cycles += self.call_cost;
                    self.safepoint()?;
                    if self.frames.len() as u32 > MAX_CALL_DEPTH {
                        return Err(RunError::Interp(format!(
                            "call depth exceeded {MAX_CALL_DEPTH} (unbounded recursion?)"
                        )));
                    }
                    let callee = &prog.funcs[target.func as usize];
                    let locals_base = self.locals.len() as u32;
                    let args_start = self.stack.len() - n_args;
                    self.locals.extend(self.stack.drain(args_start..));
                    self.stack.pop(); // receiver
                    self.locals
                        .resize(locals_base as usize + callee.n_locals as usize, Value::Null);
                    let owners_base = self.owners.len() as u32;
                    self.owners.extend(new_owners);
                    let regions_base = self.regions.len() as u32;
                    self.regions
                        .resize(regions_base as usize + callee.n_regions as usize, self.heap);
                    let cur = frame.current_region;
                    self.frames.last_mut().expect("caller frame").ip = ip as u32;
                    self.frames.push(CallCtx {
                        func: target.func,
                        ip: 0,
                        locals_base,
                        owners_base,
                        regions_base,
                        this_obj: Some(obj),
                        initial_region: cur,
                        current_region: cur,
                    });
                    reload!();
                }
                Op::Fork(site) => {
                    let site_idx = site as usize;
                    let rt = prog.call_sites[site_idx].fork_rt.unwrap_or(false);
                    let n_args = prog.call_sites[site_idx].n_args as usize;
                    let recv_pos = self.stack.len() - n_args - 1;
                    let obj = match &self.stack[recv_pos] {
                        Value::Ref(o) => *o,
                        _ => {
                            return Err(RunError::Interp("fork receiver must be an object".into()))
                        }
                    };
                    let (target, owners) = self.callee_owners(site_idx, obj, &frame)?;
                    let args: Vec<Value> = self.stack.drain(recv_pos + 1..).collect();
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
                    let cprog = Arc::clone(&self.prog);
                    let start = ForkStart {
                        func: target.func,
                        owners,
                        args,
                        this_obj: obj,
                        region: frame.current_region,
                    };
                    let st = self.st.as_mut().expect(HOLDER);
                    self.machine.fork(st, child, class, move |st| {
                        Vm::new(machine, st, data, cprog, child, rt).run_forked(start)
                    })?;
                }
                Op::New(site) => {
                    let site = &prog.new_sites[site as usize];
                    let mut owners = Vec::with_capacity(site.owner_ops.len());
                    for op in site.owner_ops.iter() {
                        owners.push(self.eval_owner_op(&frame, op)?);
                    }
                    let first = owners.first().copied().ok_or_else(|| {
                        RunError::Interp(format!("`new {}` with no owners", site.class))
                    })?;
                    if !site.known {
                        return Err(RunError::Interp(format!("unknown class `{}`", site.class)));
                    }
                    let n_fields = site.n_fields as usize;
                    let t = self.tid;
                    let class = site.class;
                    let obj = self.rt_op(|rt| {
                        let obj = rt.alloc(t, first, class, owners, n_fields)?;
                        for (i, v) in site.defaults.iter() {
                            rt.init_field_raw(obj, *i as usize, v.clone());
                        }
                        Ok(obj)
                    })?;
                    self.stack.push(Value::Ref(obj));
                }
                Op::RegionEnter(site) => {
                    let site = &prog.region_sites[site as usize];
                    let t = self.tid;
                    let (r, exit) = match &site.kind {
                        RegionSiteKind::Local => {
                            let r = self
                                .rt_op(|rt| rt.create_region(t, RegionSpec::plain_vt(), false))?;
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
                            let pv = self.locals
                                [frame.locals_base as usize + *parent_slot as usize]
                                .clone();
                            let Value::Handle(pr) = pv else {
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
                    let fr = self.frames.last_mut().expect("frame");
                    fr.current_region = r;
                    frame.current_region = r;
                    self.regions[frame.regions_base as usize + site.region_slot as usize] = r;
                    self.locals[frame.locals_base as usize + site.handle_slot as usize] =
                        Value::Handle(r);
                }
                Op::RegionExit => {
                    let scope = self.scopes.pop().expect("region scope");
                    let fr = self.frames.last_mut().expect("frame");
                    fr.current_region = scope.saved_current;
                    frame.current_region = scope.saved_current;
                    self.exit_scope(scope.exit)?;
                }
                Op::Print => {
                    let v = self.pop();
                    self.flush()?;
                    self.rt().print(v.to_string());
                    self.stack.push(Value::Null);
                }
                Op::Io | Op::Workload => {
                    let v = self.pop();
                    let n = v
                        .as_int()
                        .ok_or_else(|| RunError::Interp("io/workload needs int".into()))?;
                    self.pending_cycles += n.max(0) as u64;
                    if matches!(op, Op::Io) {
                        self.safepoint()?;
                    }
                    self.stack.push(Value::Null);
                }
                Op::Safepoint => self.safepoint()?,
                Op::Ret => {
                    let ctx = self.frames.pop().expect("frame");
                    self.locals.truncate(ctx.locals_base as usize);
                    self.owners.truncate(ctx.owners_base as usize);
                    self.regions.truncate(ctx.regions_base as usize);
                    if self.frames.is_empty() {
                        return Ok(());
                    }
                    reload!();
                }
                Op::Fail(i) => return Err(RunError::Interp(prog.fail_msgs[i as usize].clone())),
            }
        }
    }
}

/// Non-short-circuit binary operator evaluation with the tree-walker's
/// exact semantics and error messages.
fn binary(op: BinOp, l: Value, r: Value) -> Result<Value, RunError> {
    use BinOp::*;
    let out = match (op, &l, &r) {
        (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
        (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
        (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
        (Div, Value::Int(_), Value::Int(0)) => {
            return Err(RunError::Interp("division by zero".into()))
        }
        (Rem, Value::Int(_), Value::Int(0)) => {
            return Err(RunError::Interp("remainder by zero".into()))
        }
        (Div, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_div(*b)),
        (Rem, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_rem(*b)),
        (Lt, Value::Int(a), Value::Int(b)) => Value::Bool(a < b),
        (Le, Value::Int(a), Value::Int(b)) => Value::Bool(a <= b),
        (Gt, Value::Int(a), Value::Int(b)) => Value::Bool(a > b),
        (Ge, Value::Int(a), Value::Int(b)) => Value::Bool(a >= b),
        (Eq, a, b) => Value::Bool(a == b),
        (Ne, a, b) => Value::Bool(a != b),
        (op, a, b) => return Err(RunError::Interp(format!("bad operands {a}, {b} for {op}"))),
    };
    Ok(out)
}
