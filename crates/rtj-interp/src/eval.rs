//! The evaluator: a big-step interpreter over the elaborated AST,
//! executing on the simulated RTSJ runtime.
//!
//! Owner parameters are a *runtime* notion here, mirroring the static
//! semantics: every object stores the runtime owners it was allocated
//! with, every frame binds method owner formals to runtime owners, and
//! `new C<o…>` allocates in the region denoted by the first owner —
//! exactly the paper's "an object is allocated in the region of its
//! owner" (property O2).
//!
//! Like the VM, an evaluator executes only while its program thread
//! holds the scheduler's token, and owns the run's state meanwhile.

use crate::layout::{resolve_method_chain, Layouts};
use crate::machine::{Machine, RunError, State, HOLDER};
use rtj_lang::ast::*;
use rtj_lang::Symbol;
use rtj_runtime::{ObjId, RegionId, Runtime, RuntimeOwner, ThreadClass, ThreadId, Value};
use rtj_types::ProgramTable;
use std::collections::HashMap;
use std::sync::Arc;

/// The immutable program data shared by all threads.
pub struct ProgramData {
    /// The elaborated program: the only AST with method bodies, shared
    /// with the [`rtj_types::Checked`] it came from.
    pub program: Arc<Program>,
    /// Its class/region-kind table: signatures only, for method
    /// resolution and layouts.
    pub table: ProgramTable,
    /// Precomputed layouts.
    pub layouts: Layouts,
    /// Each class's position in `program.classes`, by name.
    classes: HashMap<Symbol, usize>,
}

impl ProgramData {
    /// The data for a checked program and its table.
    pub fn new(program: Arc<Program>, table: ProgramTable) -> ProgramData {
        let classes = program
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.name, i))
            .collect();
        ProgramData {
            layouts: Layouts::new(&table),
            program,
            table,
            classes,
        }
    }

    /// Finds a method, body included, by declaring class and name.
    pub fn method_body(&self, class: Symbol, method: Symbol) -> Option<&MethodDecl> {
        let &i = self.classes.get(&class)?;
        self.program.classes[i]
            .methods
            .iter()
            .find(|m| m.name.name == method)
    }
}

/// A call frame.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    vars: Vec<(String, Value)>,
    regions: Vec<(String, RegionId)>,
    owners: Vec<(String, RuntimeOwner)>,
    this_obj: Option<ObjId>,
    initial_region: Option<RegionId>,
    current_region: Option<RegionId>,
}

impl Frame {
    fn lookup(&self, name: &str) -> Option<&Value> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    fn assign(&mut self, name: &str, v: Value) -> bool {
        for (n, slot) in self.vars.iter_mut().rev() {
            if n == name {
                *slot = v;
                return true;
            }
        }
        false
    }
}

/// Control flow out of a statement.
enum Flow {
    Normal,
    Return(Value),
}

/// A single thread's evaluator.
pub struct Evaluator {
    machine: Arc<Machine>,
    /// The run's state while this thread holds the token; `None` only
    /// while a safepoint has handed it to another thread.
    st: Option<Box<State>>,
    data: Arc<ProgramData>,
    tid: ThreadId,
    heap: RegionId,
    immortal: RegionId,
    is_rt: bool,
    pending_cycles: u64,
    pending_steps: u64,
    step_cost: u64,
    call_cost: u64,
    call_depth: u32,
}

/// Maximum interpreter call depth (guards the native stack; deep
/// recursion in the interpreted program raises a runtime error instead
/// of aborting the process). Each interpreted call consumes several
/// native frames, so this is deliberately conservative.
pub const MAX_CALL_DEPTH: u32 = 96;

impl Evaluator {
    /// Creates an evaluator for thread `tid`, which holds the run's
    /// state `st`.
    pub(crate) fn new(
        machine: Arc<Machine>,
        st: Box<State>,
        data: Arc<ProgramData>,
        tid: ThreadId,
        is_rt: bool,
    ) -> Evaluator {
        let rt = &st.rt;
        let (heap, immortal) = (rt.heap(), rt.immortal());
        let (step_cost, call_cost) = (rt.cost_model().step, rt.cost_model().call);
        Evaluator {
            machine,
            st: Some(st),
            data,
            tid,
            heap,
            immortal,
            is_rt,
            pending_cycles: 0,
            pending_steps: 0,
            step_cost,
            call_cost,
            call_depth: 0,
        }
    }

    /// Runs the program's main block (thread 0) and returns the run's
    /// state with the outcome.
    pub(crate) fn run_main(mut self) -> (Box<State>, Result<(), RunError>) {
        let data = Arc::clone(&self.data);
        let mut frame = Frame {
            initial_region: Some(self.heap),
            current_region: Some(self.heap),
            ..Frame::default()
        };
        let result = self.eval_block(&mut frame, &data.program.main);
        let result = result.and_then(|_| self.flush());
        (self.st.expect(HOLDER), result)
    }

    /// Runs a forked method body in `frame` (already built by the parent)
    /// once the thread has its first turn.
    fn run_method(
        mut self,
        mut frame: Frame,
        decl_class: Symbol,
        method: Symbol,
    ) -> (Box<State>, Result<(), RunError>) {
        let data = Arc::clone(&self.data);
        let result = match data.method_body(decl_class, method) {
            Some(decl) => self
                .eval_block(&mut frame, &decl.body)
                .and_then(|_| self.flush()),
            None => Err(RunError::Interp(format!("no method {decl_class}.{method}"))),
        };
        (self.st.expect(HOLDER), result)
    }

    // ------------------------------------------------------------- plumbing

    /// The run's state: this thread holds the token while it executes.
    fn st(&mut self) -> &mut State {
        self.st.as_mut().expect(HOLDER)
    }

    fn rt(&mut self) -> &mut Runtime {
        &mut self.st().rt
    }

    fn step(&mut self) {
        self.pending_cycles += self.step_cost;
        self.pending_steps += 1;
    }

    fn charge(&mut self, cycles: u64) {
        self.pending_cycles += cycles;
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

    fn resolve_owner(&self, frame: &Frame, o: &OwnerRef) -> Result<RuntimeOwner, RunError> {
        match o {
            OwnerRef::Name(id) => {
                if let Some((_, ow)) = frame.owners.iter().rev().find(|(n, _)| n == &id.name) {
                    return Ok(*ow);
                }
                if let Some((_, r)) = frame.regions.iter().rev().find(|(n, _)| n == &id.name) {
                    return Ok(RuntimeOwner::Region(*r));
                }
                Err(RunError::Interp(format!("unbound owner `{}`", id.name)))
            }
            OwnerRef::This(_) => frame
                .this_obj
                .map(RuntimeOwner::Object)
                .ok_or_else(|| RunError::Interp("`this` outside a method".into())),
            OwnerRef::InitialRegion(_) => frame
                .initial_region
                .map(RuntimeOwner::Region)
                .ok_or_else(|| RunError::Interp("no initialRegion".into())),
            OwnerRef::Heap(_) => Ok(RuntimeOwner::Region(self.heap)),
            OwnerRef::Immortal(_) => Ok(RuntimeOwner::Region(self.immortal)),
            OwnerRef::Rt(_) => Err(RunError::Interp("`RT` is not a value owner".into())),
        }
    }

    // ----------------------------------------------------------- statements

    fn eval_block(&mut self, frame: &mut Frame, b: &Block) -> Result<Flow, RunError> {
        let vars = frame.vars.len();
        let regions = frame.regions.len();
        let flow = self.eval_stmts(frame, &b.stmts);
        frame.vars.truncate(vars);
        frame.regions.truncate(regions);
        flow
    }

    fn eval_stmts(&mut self, frame: &mut Frame, stmts: &[Stmt]) -> Result<Flow, RunError> {
        for s in stmts {
            match self.eval_stmt(frame, s)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn eval_stmt(&mut self, frame: &mut Frame, s: &Stmt) -> Result<Flow, RunError> {
        self.step();
        match s {
            Stmt::Let { name, init, .. } => {
                let v = self.eval_expr(frame, init)?;
                frame.vars.push((name.name.to_string(), v));
                Ok(Flow::Normal)
            }
            Stmt::AssignLocal { name, value, .. } => {
                let v = self.eval_expr(frame, value)?;
                if !frame.assign(name.name.as_str(), v) {
                    return Err(RunError::Interp(format!("unbound variable `{name}`")));
                }
                Ok(Flow::Normal)
            }
            Stmt::AssignField {
                recv, field, value, ..
            } => {
                let recv_v = self.eval_expr(frame, recv)?;
                let v = self.eval_expr(frame, value)?;
                match recv_v {
                    Value::Ref(obj) => {
                        let idx = self.field_index(obj, field.name)?;
                        let t = self.tid;
                        self.rt_op(|rt| rt.store_field(t, obj, idx, v))?;
                    }
                    Value::Handle(r) => {
                        let t = self.tid;
                        let name = field.name;
                        self.rt_op(|rt| rt.store_portal(t, r, name.as_str(), v))?;
                    }
                    Value::Null => {
                        return Err(RunError::Interp("null dereference in field write".into()))
                    }
                    other => {
                        return Err(RunError::Interp(format!("cannot write field of `{other}`")))
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval_expr(frame, e)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.eval_expr(frame, cond)?;
                match c {
                    Value::Bool(true) => self.eval_block(frame, then_blk),
                    Value::Bool(false) => match else_blk {
                        Some(eb) => self.eval_block(frame, eb),
                        None => Ok(Flow::Normal),
                    },
                    other => Err(RunError::Interp(format!(
                        "if condition evaluated to `{other}`"
                    ))),
                }
            }
            Stmt::While { cond, body, .. } => loop {
                self.safepoint()?;
                let c = self.eval_expr(frame, cond)?;
                match c {
                    Value::Bool(true) => match self.eval_block(frame, body)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    },
                    Value::Bool(false) => return Ok(Flow::Normal),
                    other => {
                        return Err(RunError::Interp(format!(
                            "while condition evaluated to `{other}`"
                        )))
                    }
                }
            },
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval_expr(frame, e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::LocalRegion {
                region,
                handle,
                body,
                ..
            } => {
                let t = self.tid;
                let r = self
                    .rt_op(|rt| rt.create_region(t, rtj_runtime::RegionSpec::plain_vt(), false))?;
                let flow = self.with_region(frame, region, handle, r, body);
                let exit = self.rt_op(|rt| rt.exit_created_region(t, r));
                let flow = flow?;
                exit?;
                Ok(flow)
            }
            Stmt::NewRegion {
                kind,
                policy,
                region,
                handle,
                body,
                ..
            } => {
                let kind_name = match kind {
                    KindAnn::Named { name, .. } => Some(name.name),
                    _ => None,
                };
                let spec = self.data.layouts.region_spec(kind_name, *policy);
                let t = self.tid;
                let r = self.rt_op(|rt| rt.create_region(t, spec, true))?;
                let flow = self.with_region(frame, region, handle, r, body);
                let exit = self.rt_op(|rt| rt.exit_created_region(t, r));
                let flow = flow?;
                exit?;
                Ok(flow)
            }
            Stmt::EnterSubregion {
                region,
                handle,
                fresh,
                parent,
                sub,
                body,
                ..
            } => {
                let Some(Value::Handle(pr)) = frame.lookup(parent.name.as_str()).cloned() else {
                    return Err(RunError::Interp(format!(
                        "`{parent}` is not a region handle"
                    )));
                };
                let r = self.locked_enter(pr, sub.name.as_str(), *fresh)?;
                let flow = self.with_region(frame, region, handle, r, body);
                let exit = self.locked_exit(pr, r);
                let flow = flow?;
                exit?;
                Ok(flow)
            }
            Stmt::Fork { rt, call, .. } => {
                self.eval_fork(frame, *rt, call)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// Binds a region name + handle variable, runs the body with the new
    /// region current, and restores the frame.
    fn with_region(
        &mut self,
        frame: &mut Frame,
        region: &Ident,
        handle: &Ident,
        r: RegionId,
        body: &Block,
    ) -> Result<Flow, RunError> {
        frame.regions.push((region.name.to_string(), r));
        frame.vars.push((handle.name.to_string(), Value::Handle(r)));
        let saved = frame.current_region;
        frame.current_region = Some(r);
        let flow = self.eval_block(frame, body);
        frame.current_region = saved;
        frame.vars.pop();
        frame.regions.pop();
        flow
    }

    /// The two-phase subregion entry protocol. Acquiring the parent's
    /// bookkeeping lock may require waiting for another thread — for a
    /// real-time thread this wait is the RTSJ priority-inversion window
    /// and is recorded in the statistics.
    fn locked_enter(
        &mut self,
        parent: RegionId,
        member: &str,
        fresh: bool,
    ) -> Result<RegionId, RunError> {
        let t = self.tid;
        let target = self.rt_op(|rt| rt.subregion_lock_target(parent, member, fresh))?;
        self.acquire_lock(target)?;
        // Safepoint while holding the lock: a regular thread can be paused
        // by the collector right here, which is exactly the inversion the
        // paper's type system rules out by separating RT and NoRT
        // subregions.
        self.safepoint()?;
        let entered = self.rt_op(|rt| rt.enter_subregion_locked(t, parent, member, fresh));
        let unlock = self.rt_op(|rt| rt.unlock_region(t, target));
        let r = entered?;
        unlock?;
        Ok(r)
    }

    fn locked_exit(&mut self, _parent: RegionId, r: RegionId) -> Result<(), RunError> {
        let t = self.tid;
        self.acquire_lock(r)?;
        self.safepoint()?;
        let exited = self.rt_op(|rt| rt.exit_subregion_locked(t, r));
        let unlock = self.rt_op(|rt| rt.unlock_region(t, r));
        exited?;
        unlock?;
        Ok(())
    }

    /// Spins (advancing virtual time) until the bookkeeping lock on
    /// `target` is acquired. Real-time threads' waits are recorded: this
    /// is the RTSJ priority-inversion window.
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
            self.charge(spin);
            self.safepoint()?;
        }
        if waited && self.is_rt {
            let rt = self.rt();
            let now = rt.now();
            rt.note_rt_lock_wait(now - wait_start);
        }
        Ok(())
    }

    // ----------------------------------------------------------- expressions

    fn eval_expr(&mut self, frame: &mut Frame, e: &Expr) -> Result<Value, RunError> {
        self.step();
        match e {
            Expr::Int(n, _) => Ok(Value::Int(*n)),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Str(s, _) => Ok(Value::Str(s.clone())),
            Expr::Null(_) => Ok(Value::Null),
            Expr::This(_) => frame
                .this_obj
                .map(Value::Ref)
                .ok_or_else(|| RunError::Interp("`this` outside a method".into())),
            Expr::Var(id) => frame
                .lookup(id.name.as_str())
                .cloned()
                .ok_or_else(|| RunError::Interp(format!("unbound variable `{id}`"))),
            Expr::Unary { op, expr, .. } => {
                let v = self.eval_expr(frame, expr)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(RunError::Interp(format!("bad operand {v} for {op:?}"))),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => self.eval_binary(frame, *op, lhs, rhs),
            Expr::Field { recv, field, .. } => {
                let recv_v = self.eval_expr(frame, recv)?;
                match recv_v {
                    Value::Ref(obj) => {
                        let idx = self.field_index(obj, field.name)?;
                        let t = self.tid;
                        self.rt_op(|rt| rt.load_field(t, obj, idx))
                    }
                    Value::Handle(r) => {
                        let t = self.tid;
                        let name = field.name;
                        self.rt_op(|rt| rt.load_portal(t, r, name.as_str()))
                    }
                    Value::Null => Err(RunError::Interp("null dereference in field read".into())),
                    other => Err(RunError::Interp(format!("cannot read field of `{other}`"))),
                }
            }
            Expr::Call {
                recv,
                method,
                owner_args,
                args,
                ..
            } => {
                let recv_v = self.eval_expr(frame, recv)?;
                let Value::Ref(obj) = recv_v else {
                    return Err(RunError::Interp(format!(
                        "method call on non-object `{recv_v}`"
                    )));
                };
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval_expr(frame, a)?);
                }
                let (callee_frame, decl_class, mname) =
                    self.build_callee_frame(frame, obj, method.name, owner_args, arg_vals)?;
                self.charge(self.call_cost);
                self.safepoint()?;
                if self.call_depth >= MAX_CALL_DEPTH {
                    return Err(RunError::Interp(format!(
                        "call depth exceeded {MAX_CALL_DEPTH} (unbounded recursion?)"
                    )));
                }
                let data = Arc::clone(&self.data);
                let callee = data
                    .method_body(decl_class, mname)
                    .ok_or_else(|| RunError::Interp(format!("no method {decl_class}.{mname}")))?;
                let mut callee_frame = callee_frame;
                self.call_depth += 1;
                let flow = self.eval_block(&mut callee_frame, &callee.body);
                self.call_depth -= 1;
                match flow? {
                    Flow::Return(v) => Ok(v),
                    Flow::Normal => Ok(Value::Null),
                }
            }
            Expr::New { class, .. } => {
                let mut owners = Vec::with_capacity(class.owners.len());
                for o in &class.owners {
                    owners.push(self.resolve_owner(frame, o)?);
                }
                let first = owners.first().cloned().ok_or_else(|| {
                    RunError::Interp(format!("`new {}` with no owners", class.name))
                })?;
                let layout =
                    self.data.layouts.class(class.name.name).ok_or_else(|| {
                        RunError::Interp(format!("unknown class `{}`", class.name))
                    })?;
                let n_fields = layout.field_defaults.len();
                let defaults: Vec<(usize, Value)> = layout
                    .field_defaults
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !matches!(v, Value::Null))
                    .map(|(i, v)| (i, v.clone()))
                    .collect();
                let t = self.tid;
                let name = class.name.name;
                let obj = self.rt_op(move |rt| {
                    let obj = rt.alloc(t, first, name, &owners, n_fields)?;
                    for (i, v) in defaults {
                        rt.init_field_raw(obj, i, v);
                    }
                    Ok(obj)
                })?;
                Ok(Value::Ref(obj))
            }
            Expr::IntrinsicCall {
                intrinsic, args, ..
            } => match intrinsic {
                Intrinsic::Print => {
                    let v = self.eval_expr(frame, &args[0])?;
                    self.flush()?;
                    self.rt().print(v.to_string());
                    Ok(Value::Null)
                }
                Intrinsic::Io | Intrinsic::Workload => {
                    let v = self.eval_expr(frame, &args[0])?;
                    let n = v
                        .as_int()
                        .ok_or_else(|| RunError::Interp("io/workload needs int".into()))?;
                    self.charge(n.max(0) as u64);
                    if matches!(intrinsic, Intrinsic::Io) {
                        self.safepoint()?;
                    }
                    Ok(Value::Null)
                }
                Intrinsic::Yield => {
                    self.safepoint()?;
                    Ok(Value::Null)
                }
            },
        }
    }

    fn eval_binary(
        &mut self,
        frame: &mut Frame,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<Value, RunError> {
        // Short-circuit logical operators.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval_expr(frame, lhs)?;
            let Value::Bool(lb) = l else {
                return Err(RunError::Interp(format!("bad operand {l} for {op}")));
            };
            if (op == BinOp::And && !lb) || (op == BinOp::Or && lb) {
                return Ok(Value::Bool(lb));
            }
            let r = self.eval_expr(frame, rhs)?;
            let Value::Bool(rb) = r else {
                return Err(RunError::Interp(format!("bad operand {r} for {op}")));
            };
            return Ok(Value::Bool(rb));
        }
        let l = self.eval_expr(frame, lhs)?;
        let r = self.eval_expr(frame, rhs)?;
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

    fn field_index(&mut self, obj: ObjId, field: Symbol) -> Result<usize, RunError> {
        let class = self.rt().object(obj).class_name;
        self.data
            .layouts
            .class(class)
            .and_then(|l| l.field_index.get(&field).copied())
            .ok_or_else(|| RunError::Interp(format!("no field `{field}` on `{class}`")))
    }

    /// Builds a frame for invoking `method` on `obj`, resolving the
    /// declaring class's owner parameters against the object's stored
    /// runtime owners (walking the superclass chain) and binding method
    /// owner formals to the call's owner arguments.
    fn build_callee_frame(
        &mut self,
        caller: &Frame,
        obj: ObjId,
        method: Symbol,
        owner_arg_refs: &[OwnerRef],
        arg_vals: Vec<Value>,
    ) -> Result<(Frame, Symbol, Symbol), RunError> {
        let rt = self.rt();
        let (class, mut cur_owners) =
            (rt.object(obj).class_name, rt.objects().owners(obj).to_vec());
        let (chain, mdecl) = resolve_method_chain(&self.data.table, class, method)
            .ok_or_else(|| RunError::Interp(format!("no method `{method}` on `{class}`")))?;
        let mut cur_class = class;
        for (super_name, super_refs) in &chain {
            let layout = self
                .data
                .layouts
                .class(cur_class)
                .ok_or_else(|| RunError::Interp(format!("unknown class `{cur_class}`")))?;
            let mut next = Vec::with_capacity(super_refs.len());
            for r in super_refs {
                let o = match r {
                    OwnerRef::Name(id) => {
                        let pos = layout
                            .formal_names
                            .iter()
                            .position(|n| n == &id.name)
                            .ok_or_else(|| {
                                RunError::Interp(format!("unbound owner `{}`", id.name))
                            })?;
                        cur_owners[pos]
                    }
                    OwnerRef::This(_) => RuntimeOwner::Object(obj),
                    OwnerRef::Heap(_) => RuntimeOwner::Region(self.heap),
                    OwnerRef::Immortal(_) => RuntimeOwner::Region(self.immortal),
                    other => {
                        return Err(RunError::Interp(format!(
                            "invalid owner `{other:?}` in extends clause"
                        )))
                    }
                };
                next.push(o);
            }
            cur_owners = next;
            cur_class = *super_name;
        }
        let decl_layout = self
            .data
            .layouts
            .class(cur_class)
            .ok_or_else(|| RunError::Interp(format!("unknown class `{cur_class}`")))?;
        let mut owners: Vec<(String, RuntimeOwner)> = decl_layout
            .formal_names
            .iter()
            .map(|n| n.as_str().to_owned())
            .zip(cur_owners)
            .collect();
        if owner_arg_refs.len() != mdecl.formals.len() {
            return Err(RunError::Interp(format!(
                "method `{method}` expects {} owner argument(s), found {} \
                 (was the program checked?)",
                mdecl.formals.len(),
                owner_arg_refs.len()
            )));
        }
        for (f, r) in mdecl.formals.iter().zip(owner_arg_refs) {
            owners.push((f.name.name.to_string(), self.resolve_owner(caller, r)?));
        }
        if arg_vals.len() != mdecl.params.len() {
            return Err(RunError::Interp(format!(
                "method `{method}` expects {} argument(s), found {}",
                mdecl.params.len(),
                arg_vals.len()
            )));
        }
        let vars = mdecl
            .params
            .iter()
            .map(|p| p.name.name.to_string())
            .zip(arg_vals)
            .collect();
        let mname = mdecl.name.name;
        Ok((
            Frame {
                vars,
                regions: Vec::new(),
                owners,
                this_obj: Some(obj),
                initial_region: caller.current_region,
                current_region: caller.current_region,
            },
            cur_class,
            mname,
        ))
    }

    /// `fork` / `RT fork`: evaluates receiver, owner arguments, and value
    /// arguments in the parent, then forks a runtime thread plus an OS
    /// thread running the method body.
    fn eval_fork(&mut self, frame: &mut Frame, rt: bool, call: &Expr) -> Result<(), RunError> {
        let Expr::Call {
            recv,
            method,
            owner_args,
            args,
            ..
        } = call
        else {
            return Err(RunError::Interp("fork target must be a call".into()));
        };
        let recv_v = self.eval_expr(frame, recv)?;
        let Value::Ref(obj) = recv_v else {
            return Err(RunError::Interp("fork receiver must be an object".into()));
        };
        let mut arg_vals = Vec::with_capacity(args.len());
        for a in args {
            arg_vals.push(self.eval_expr(frame, a)?);
        }
        let (child_frame, decl_class, mname) =
            self.build_callee_frame(frame, obj, method.name, owner_args, arg_vals)?;
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
        let st = self.st.as_mut().expect(HOLDER);
        self.machine.fork(st, child, class, move |st| {
            Evaluator::new(machine, st, data, child, rt).run_method(child_frame, decl_class, mname)
        })
    }
}
