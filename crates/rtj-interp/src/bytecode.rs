//! Bytecode: a compact, flat instruction encoding of the elaborated AST.
//!
//! The compiler lowers each method body (and the main block) to a flat
//! `Vec<Op>` once per run; the [`crate::vm::Vm`] then dispatches over the
//! vector with no `Box<Expr>` pointer-chasing, no string comparisons
//! (locals, regions, and owner formals are resolved to slot indices at
//! compile time), and no per-call body cloning.
//!
//! # Step parity
//!
//! The tree-walker charges one *step* at the entry of every statement and
//! expression node, accumulating them in a thread-local pending counter
//! that is flushed to the shared clock only at runtime operations,
//! safepoints, and `print`. Between two consecutive flush points only the
//! *totals* matter, never the order, so the compiler keeps a compile-time
//! pending-step counter (bumped pre-order at each node) and materialises
//! it lazily as an [`Op::Step`] before any instruction that may flush at
//! runtime, before jumps, and before jump targets. This makes cycle
//! accounting — and therefore `rtj-metrics/v1` snapshots and trace
//! timestamps — byte-identical between the two engines.
//!
//! # Error parity
//!
//! Name-resolution failures the tree-walker would only discover at
//! runtime (unbound variables, `this` outside a method, …) compile to
//! [`Op::Fail`] instructions or failing [`OwnerOp`]s placed exactly where
//! the tree-walker would raise them, with the identical message.

use crate::eval::ProgramData;
use crate::layout::Layouts;
use rtj_lang::ast::*;
use rtj_lang::Symbol;
use rtj_runtime::{RegionSpec, Value};
use std::collections::HashMap;

/// Which conditional statement a [`Op::JumpIfFalse`] belongs to (the
/// non-boolean-condition error message differs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondCtx {
    /// `if (c) …`
    If,
    /// `while (c) …`
    While,
}

/// How one owner argument at a `new` / call / fork site is produced at
/// runtime. Resolved at compile time against the enclosing function's
/// owner formals and lexically open regions (formals shadow regions, as
/// in the tree-walker's `resolve_owner`).
#[derive(Debug, Clone, Copy)]
pub enum OwnerOp {
    /// The function's owner formal in slot `.0` (class formals first,
    /// then method formals).
    Formal(u32),
    /// The region in region slot `.0` of the current frame.
    Region(u32),
    /// The receiver object (`this`).
    This,
    /// The frame's `initialRegion`.
    InitialRegion,
    /// The garbage-collected heap.
    Heap,
    /// The immortal region.
    Immortal,
    /// Unresolvable name: fails with ``unbound owner `name` ``.
    FailUnbound(Symbol),
    /// `RT` used as a value owner: fails like the tree-walker.
    FailRt,
    /// `this` used outside a method: fails like the tree-walker.
    FailThis,
}

/// A field access site (`recv.f` read or write). The VM keys a
/// monomorphic inline cache on the receiver's interned class symbol; on
/// a hit the field slot is a single pointer-compare away.
#[derive(Debug, Clone)]
pub struct FieldSite {
    /// The field (or portal) name.
    pub field: Symbol,
}

/// A method call or fork site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Method name.
    pub method: Symbol,
    /// Owner arguments for the method's own formals.
    pub owner_ops: Box<[OwnerOp]>,
    /// Number of value arguments on the operand stack.
    pub n_args: u32,
    /// `Some(is_rt)` when this site is a `fork` statement.
    pub fork_rt: Option<bool>,
}

/// A `new cn<o…>` site with the class layout pre-resolved.
#[derive(Debug, Clone)]
pub struct NewSite {
    /// Allocated class.
    pub class: Symbol,
    /// Owner arguments; the first denotes the allocation region.
    pub owner_ops: Box<[OwnerOp]>,
    /// Total field count from the layout.
    pub n_fields: u32,
    /// Non-null primitive field defaults `(slot, value)`.
    pub defaults: Box<[(u32, Value)]>,
    /// Whether the class has a layout (`false` compiles to the
    /// tree-walker's ``unknown class`` error).
    pub known: bool,
}

/// What kind of region a [`Op::RegionEnter`] creates or enters.
#[derive(Debug, Clone)]
pub enum RegionSiteKind {
    /// `(RHandle<r> h) { … }` — an anonymous `LocalRegion : VT`.
    Local,
    /// `(RHandle<kind : policy r> h) { … }` — a top-level region with a
    /// precomputed spec (cloned per execution).
    New {
        /// The region spec derived from the kind declaration.
        spec: RegionSpec,
    },
    /// `(RHandle<kind r2> h2 = [new] h.sub) { … }` — enter a subregion
    /// through the two-phase locking protocol.
    Sub {
        /// Subregion member name.
        member: Symbol,
        /// `new` present: recreate the subregion instance.
        fresh: bool,
        /// Local slot holding the parent's region handle.
        parent_slot: u32,
        /// Parent variable name (for the not-a-handle error).
        parent_name: Symbol,
    },
}

/// A region statement site.
#[derive(Debug, Clone)]
pub struct RegionSite {
    /// What to create/enter.
    pub kind: RegionSiteKind,
    /// Region slot the new region id is stored into.
    pub region_slot: u32,
    /// Local slot the handle value is stored into.
    pub handle_slot: u32,
}

/// One VM instruction. `u32` operands index the side tables in
/// [`CompiledProgram`].
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Accumulate `.0` interpreter steps into the thread's pending
    /// cycle/step counters (lazily flushed, like the tree-walker's).
    Step(u32),
    /// Push an integer literal.
    ConstInt(i64),
    /// Push a boolean literal.
    ConstBool(bool),
    /// Push `null`.
    ConstNull,
    /// Push a string literal from the string pool.
    ConstStr(u32),
    /// Push a copy of local slot `.0`.
    LoadLocal(u32),
    /// Pop into local slot `.0`.
    StoreLocal(u32),
    /// Pop and discard the top of stack.
    Pop,
    /// Push `this` (compile-time guaranteed to be in a method frame).
    This,
    /// Apply a unary operator to the top of stack.
    Unary(UnOp),
    /// Apply a non-short-circuit binary operator to the top two values.
    Binary(BinOp),
    /// Unconditional jump to instruction `.0`.
    Jump(u32),
    /// Pop a boolean; jump to `target` when false. Non-booleans raise
    /// the `ctx`-specific condition error.
    JumpIfFalse {
        /// Jump target.
        target: u32,
        /// Which statement's error message to use.
        ctx: CondCtx,
    },
    /// Short-circuit `&&`: pop; on `false` push `false` and jump, on
    /// `true` fall through to the right operand.
    ScAnd(u32),
    /// Short-circuit `||`: pop; on `true` push `true` and jump.
    ScOr(u32),
    /// Verify the top of stack is a boolean (right operand of `&&`/`||`).
    CheckBool(BinOp),
    /// Pop a receiver and load field/portal [`FieldSite`] `.0`.
    LoadField(u32),
    /// Pop value then receiver and store into [`FieldSite`] `.0`.
    StoreField(u32),
    /// Verify the value under the pending arguments is an object
    /// reference (emitted between receiver and argument code so the
    /// non-object error precedes argument effects, as in the tree).
    CheckRecv {
        /// `true` for fork sites (different error message).
        fork: bool,
    },
    /// Invoke [`CallSite`] `.0`: `[recv, args…]` on the stack.
    Call(u32),
    /// Fork a thread running [`CallSite`] `.0`.
    Fork(u32),
    /// Allocate [`NewSite`] `.0` and push the reference.
    New(u32),
    /// Create/enter the region of [`RegionSite`] `.0` and open a scope.
    RegionEnter(u32),
    /// Close the innermost region scope and run its exit protocol.
    RegionExit,
    /// Pop a value and print it (flushes pending steps first).
    Print,
    /// Pop an int, charge it as I/O cycles, and hit a safepoint; pushes
    /// `null`.
    Io,
    /// Pop an int and charge it as workload cycles; pushes `null`.
    Workload,
    /// Flush pending steps and hit a scheduler safepoint.
    Safepoint,
    /// Pop the current frame, leaving the return value on the stack;
    /// with no caller frame the thread's execution completes.
    Ret,
    /// Raise the interpreter error in the message table at `.0`.
    Fail(u32),
}

/// One compiled function (the main block or a method body).
#[derive(Debug, Clone)]
pub struct Func {
    /// The instruction vector. Always ends with `ConstNull; Ret`.
    pub code: Vec<Op>,
    /// Local value slots (parameters first).
    pub n_locals: u32,
    /// Region slots.
    pub n_regions: u32,
}

/// A whole compiled program: functions plus the side tables instruction
/// operands index into. Shared read-only across threads.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Compiled functions; index 0 is the main block.
    pub funcs: Vec<Func>,
    /// `(declaring class, method name)` → function index.
    pub methods: HashMap<(Symbol, Symbol), u32>,
    /// Call/fork sites.
    pub call_sites: Vec<CallSite>,
    /// Allocation sites.
    pub new_sites: Vec<NewSite>,
    /// Field access sites.
    pub field_sites: Vec<FieldSite>,
    /// Region statement sites.
    pub region_sites: Vec<RegionSite>,
    /// String literal pool.
    pub strings: Vec<String>,
    /// Precomputed interpreter-error messages for [`Op::Fail`].
    pub fail_msgs: Vec<String>,
}

/// Per-function compilation state.
#[derive(Default)]
struct FnState {
    code: Vec<Op>,
    pending: u32,
    vars: Vec<(Symbol, u32)>,
    n_locals: u32,
    max_locals: u32,
    regions: Vec<(Symbol, u32)>,
    n_regions: u32,
    max_regions: u32,
    owners: Vec<Symbol>,
    open_scopes: u32,
    has_this: bool,
}

struct Compiler<'p> {
    layouts: &'p Layouts,
    funcs: Vec<Func>,
    call_sites: Vec<CallSite>,
    new_sites: Vec<NewSite>,
    field_sites: Vec<FieldSite>,
    region_sites: Vec<RegionSite>,
    strings: Vec<String>,
    fail_msgs: Vec<String>,
    f: FnState,
}

/// Compiles every method of every class (plus the main block, which
/// becomes function 0) of a checked program.
pub fn compile(data: &ProgramData) -> CompiledProgram {
    let mut c = Compiler {
        layouts: &data.layouts,
        funcs: Vec::new(),
        call_sites: Vec::new(),
        new_sites: Vec::new(),
        field_sites: Vec::new(),
        region_sites: Vec::new(),
        strings: Vec::new(),
        fail_msgs: Vec::new(),
        f: FnState::default(),
    };
    c.compile_func(Vec::new(), &[], false, &data.program.main);
    let mut methods = HashMap::new();
    let mut classes: Vec<_> = data.program.classes.iter().collect();
    classes.sort_by_key(|class| class.name.name);
    for class in classes {
        for m in &class.methods {
            let owners = class.formals.iter().chain(&m.formals);
            let owners = owners.map(|f| f.name.name).collect();
            let params: Vec<Symbol> = m.params.iter().map(|p| p.name.name).collect();
            let idx = c.compile_func(owners, &params, true, &m.body);
            methods.insert((class.name.name, m.name.name), idx);
        }
    }
    CompiledProgram {
        funcs: c.funcs,
        methods,
        call_sites: c.call_sites,
        new_sites: c.new_sites,
        field_sites: c.field_sites,
        region_sites: c.region_sites,
        strings: c.strings,
        fail_msgs: c.fail_msgs,
    }
}

impl Compiler<'_> {
    fn compile_func(
        &mut self,
        owners: Vec<Symbol>,
        params: &[Symbol],
        has_this: bool,
        body: &Block,
    ) -> u32 {
        self.f = FnState {
            owners,
            has_this,
            ..FnState::default()
        };
        for (i, p) in params.iter().enumerate() {
            self.f.vars.push((*p, i as u32));
        }
        self.f.n_locals = params.len() as u32;
        self.f.max_locals = self.f.n_locals;
        self.block(body);
        self.emit(Op::ConstNull);
        self.emit(Op::Ret);
        let idx = self.funcs.len() as u32;
        self.funcs.push(Func {
            code: std::mem::take(&mut self.f.code),
            n_locals: self.f.max_locals,
            n_regions: self.f.max_regions,
        });
        idx
    }

    // ---------------------------------------------------------- emission

    /// Bump the compile-time pending step counter (one tree-walker
    /// `step()` at a statement/expression node).
    fn bump(&mut self) {
        self.f.pending += 1;
    }

    /// Materialise pending steps as an [`Op::Step`].
    fn flush_steps(&mut self) {
        if self.f.pending > 0 {
            let n = self.f.pending;
            self.f.pending = 0;
            self.f.code.push(Op::Step(n));
        }
    }

    /// Emits `op`, materialising pending steps first when the op may
    /// flush at runtime or transfers control.
    fn emit(&mut self, op: Op) {
        if matches!(
            op,
            Op::LoadField(_)
                | Op::StoreField(_)
                | Op::Call(_)
                | Op::Fork(_)
                | Op::New(_)
                | Op::RegionEnter(_)
                | Op::RegionExit
                | Op::Print
                | Op::Io
                | Op::Safepoint
                | Op::Ret
                | Op::Jump(_)
        ) {
            self.flush_steps();
        }
        self.f.code.push(op);
    }

    /// Emits a to-be-patched jump (target filled in by [`Self::patch`])
    /// and returns its index.
    fn emit_patch(&mut self, op: Op) -> usize {
        self.flush_steps();
        let at = self.f.code.len();
        self.f.code.push(op);
        at
    }

    /// A jump target at the current position (pending steps must be — and
    /// are — flushed so every predecessor agrees on the step count).
    fn label(&mut self) -> u32 {
        self.flush_steps();
        self.f.code.len() as u32
    }

    /// Points the jump at `at` to the current position.
    fn patch(&mut self, at: usize) {
        let target = self.label();
        match &mut self.f.code[at] {
            Op::Jump(t) | Op::JumpIfFalse { target: t, .. } | Op::ScAnd(t) | Op::ScOr(t) => {
                *t = target
            }
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Emits a [`Op::Fail`] with the exact message the tree-walker would
    /// raise at this point.
    fn fail(&mut self, msg: String) {
        let i = self.fail_msgs.len() as u32;
        self.fail_msgs.push(msg);
        self.f.code.push(Op::Fail(i));
    }

    // ------------------------------------------------------------ scopes

    fn enter_block(&mut self) -> (usize, usize, u32, u32) {
        (
            self.f.vars.len(),
            self.f.regions.len(),
            self.f.n_locals,
            self.f.n_regions,
        )
    }

    fn exit_block(&mut self, saved: (usize, usize, u32, u32)) {
        self.f.vars.truncate(saved.0);
        self.f.regions.truncate(saved.1);
        self.f.n_locals = saved.2;
        self.f.n_regions = saved.3;
    }

    fn alloc_local(&mut self, name: Symbol) -> u32 {
        let slot = self.f.n_locals;
        self.f.n_locals += 1;
        self.f.max_locals = self.f.max_locals.max(self.f.n_locals);
        self.f.vars.push((name, slot));
        slot
    }

    fn alloc_region(&mut self, name: Symbol) -> u32 {
        let slot = self.f.n_regions;
        self.f.n_regions += 1;
        self.f.max_regions = self.f.max_regions.max(self.f.n_regions);
        self.f.regions.push((name, slot));
        slot
    }

    fn lookup_var(&self, name: Symbol) -> Option<u32> {
        self.f
            .vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    fn lookup_region(&self, name: Symbol) -> Option<u32> {
        self.f
            .regions
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// Compile-time mirror of the tree-walker's `resolve_owner`: owner
    /// formals (innermost last) shadow region names.
    fn resolve_owner_ref(&self, r: &OwnerRef) -> OwnerOp {
        match r {
            OwnerRef::Name(id) => {
                if let Some(slot) = self.f.owners.iter().rposition(|n| *n == id.name) {
                    return OwnerOp::Formal(slot as u32);
                }
                if let Some(slot) = self.lookup_region(id.name) {
                    return OwnerOp::Region(slot);
                }
                OwnerOp::FailUnbound(id.name)
            }
            OwnerRef::This(_) => {
                if self.f.has_this {
                    OwnerOp::This
                } else {
                    OwnerOp::FailThis
                }
            }
            OwnerRef::InitialRegion(_) => OwnerOp::InitialRegion,
            OwnerRef::Heap(_) => OwnerOp::Heap,
            OwnerRef::Immortal(_) => OwnerOp::Immortal,
            OwnerRef::Rt(_) => OwnerOp::FailRt,
        }
    }

    // -------------------------------------------------------- statements

    fn block(&mut self, b: &Block) {
        let saved = self.enter_block();
        for s in &b.stmts {
            self.stmt(s);
        }
        self.exit_block(saved);
    }

    fn stmt(&mut self, s: &Stmt) {
        self.bump();
        match s {
            Stmt::Let { name, init, .. } => {
                self.expr(init);
                let slot = self.alloc_local(name.name);
                self.emit(Op::StoreLocal(slot));
            }
            Stmt::AssignLocal { name, value, .. } => {
                self.expr(value);
                match self.lookup_var(name.name) {
                    Some(slot) => self.emit(Op::StoreLocal(slot)),
                    None => self.fail(format!("unbound variable `{name}`")),
                }
            }
            Stmt::AssignField {
                recv, field, value, ..
            } => {
                self.expr(recv);
                self.expr(value);
                let site = self.field_sites.len() as u32;
                self.field_sites.push(FieldSite { field: field.name });
                self.emit(Op::StoreField(site));
            }
            Stmt::Expr(e) => {
                self.expr(e);
                self.emit(Op::Pop);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.expr(cond);
                let j = self.emit_patch(Op::JumpIfFalse {
                    target: 0,
                    ctx: CondCtx::If,
                });
                self.block(then_blk);
                match else_blk {
                    Some(eb) => {
                        let jend = self.emit_patch(Op::Jump(0));
                        self.patch(j);
                        self.block(eb);
                        self.patch(jend);
                    }
                    None => self.patch(j),
                }
            }
            Stmt::While { cond, body, .. } => {
                let head = self.label();
                self.emit(Op::Safepoint);
                self.expr(cond);
                let jexit = self.emit_patch(Op::JumpIfFalse {
                    target: 0,
                    ctx: CondCtx::While,
                });
                self.block(body);
                self.emit(Op::Jump(head));
                self.patch(jexit);
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(e) => self.expr(e),
                    None => self.emit(Op::ConstNull),
                }
                self.flush_steps();
                for _ in 0..self.f.open_scopes {
                    self.emit(Op::RegionExit);
                }
                self.emit(Op::Ret);
            }
            Stmt::LocalRegion {
                region,
                handle,
                body,
                ..
            } => self.region_stmt(RegionSiteKind::Local, region, handle, body),
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
                let spec = self.layouts.region_spec(kind_name, *policy);
                self.region_stmt(RegionSiteKind::New { spec }, region, handle, body);
            }
            Stmt::EnterSubregion {
                region,
                handle,
                fresh,
                parent,
                sub,
                body,
                ..
            } => match self.lookup_var(parent.name) {
                Some(parent_slot) => self.region_stmt(
                    RegionSiteKind::Sub {
                        member: sub.name,
                        fresh: *fresh,
                        parent_slot,
                        parent_name: parent.name,
                    },
                    region,
                    handle,
                    body,
                ),
                None => self.fail(format!("`{parent}` is not a region handle")),
            },
            Stmt::Fork { rt, call, .. } => match call {
                Expr::Call {
                    recv,
                    method,
                    owner_args,
                    args,
                    ..
                } => self.call_like(recv, method.name, owner_args, args, Some(*rt)),
                _ => self.fail("fork target must be a call".into()),
            },
        }
    }

    fn region_stmt(&mut self, kind: RegionSiteKind, region: &Ident, handle: &Ident, body: &Block) {
        let saved = self.enter_block();
        let region_slot = self.alloc_region(region.name);
        let handle_slot = self.alloc_local(handle.name);
        let site = self.region_sites.len() as u32;
        self.region_sites.push(RegionSite {
            kind,
            region_slot,
            handle_slot,
        });
        self.emit(Op::RegionEnter(site));
        self.f.open_scopes += 1;
        self.block(body);
        self.f.open_scopes -= 1;
        self.emit(Op::RegionExit);
        self.exit_block(saved);
    }

    // ------------------------------------------------------- expressions

    fn expr(&mut self, e: &Expr) {
        self.bump();
        match e {
            Expr::Int(n, _) => self.emit(Op::ConstInt(*n)),
            Expr::Bool(b, _) => self.emit(Op::ConstBool(*b)),
            Expr::Str(s, _) => {
                let i = self.strings.len() as u32;
                self.strings.push(s.clone());
                self.emit(Op::ConstStr(i));
            }
            Expr::Null(_) => self.emit(Op::ConstNull),
            Expr::This(_) => {
                if self.f.has_this {
                    self.emit(Op::This);
                } else {
                    self.fail("`this` outside a method".into());
                }
            }
            Expr::Var(id) => match self.lookup_var(id.name) {
                Some(slot) => self.emit(Op::LoadLocal(slot)),
                None => self.fail(format!("unbound variable `{id}`")),
            },
            Expr::Unary { op, expr, .. } => {
                self.expr(expr);
                self.emit(Op::Unary(*op));
            }
            Expr::Binary { op, lhs, rhs, .. } if matches!(op, BinOp::And | BinOp::Or) => {
                self.expr(lhs);
                let j = self.emit_patch(match op {
                    BinOp::And => Op::ScAnd(0),
                    _ => Op::ScOr(0),
                });
                self.expr(rhs);
                self.emit(Op::CheckBool(*op));
                self.patch(j);
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
                self.emit(Op::Binary(*op));
            }
            Expr::Field { recv, field, .. } => {
                self.expr(recv);
                let site = self.field_sites.len() as u32;
                self.field_sites.push(FieldSite { field: field.name });
                self.emit(Op::LoadField(site));
            }
            Expr::Call {
                recv,
                method,
                owner_args,
                args,
                ..
            } => self.call_like(recv, method.name, owner_args, args, None),
            Expr::New { class, .. } => {
                let owner_ops: Box<[OwnerOp]> = class
                    .owners
                    .iter()
                    .map(|o| self.resolve_owner_ref(o))
                    .collect();
                let (known, n_fields, defaults) = match self.layouts.class(class.name.name) {
                    Some(l) => (
                        true,
                        l.field_defaults.len() as u32,
                        l.field_defaults
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| !matches!(v, Value::Null))
                            .map(|(i, v)| (i as u32, v.clone()))
                            .collect(),
                    ),
                    None => (false, 0, Box::from([])),
                };
                let site = self.new_sites.len() as u32;
                self.new_sites.push(NewSite {
                    class: class.name.name,
                    owner_ops,
                    n_fields,
                    defaults,
                    known,
                });
                self.emit(Op::New(site));
            }
            Expr::IntrinsicCall {
                intrinsic, args, ..
            } => match intrinsic {
                Intrinsic::Print => {
                    self.expr(&args[0]);
                    self.emit(Op::Print);
                }
                Intrinsic::Io => {
                    self.expr(&args[0]);
                    self.emit(Op::Io);
                }
                Intrinsic::Workload => {
                    self.expr(&args[0]);
                    self.emit(Op::Workload);
                }
                Intrinsic::Yield => {
                    self.emit(Op::Safepoint);
                    self.emit(Op::ConstNull);
                }
            },
        }
    }

    /// Shared lowering for calls and forks: receiver, receiver check
    /// (before argument effects, matching the tree-walker's evaluation
    /// order), arguments, then the call/fork instruction.
    fn call_like(
        &mut self,
        recv: &Expr,
        method: Symbol,
        owner_args: &[OwnerRef],
        args: &[Expr],
        fork_rt: Option<bool>,
    ) {
        self.expr(recv);
        if !args.is_empty() {
            self.emit(Op::CheckRecv {
                fork: fork_rt.is_some(),
            });
        }
        for a in args {
            self.expr(a);
        }
        let owner_ops: Box<[OwnerOp]> = owner_args
            .iter()
            .map(|o| self.resolve_owner_ref(o))
            .collect();
        let site = self.call_sites.len() as u32;
        self.call_sites.push(CallSite {
            method,
            owner_ops,
            n_args: args.len() as u32,
            fork_rt,
        });
        self.emit(match fork_rt {
            Some(_) => Op::Fork(site),
            None => Op::Call(site),
        });
    }
}
