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
//! pending-step counter (bumped pre-order at each node) and hands it to
//! the next instruction that needs it:
//!
//! * an op that may flush, fail or transfer control (arithmetic, field
//!   accesses, calls, forks, `new`, region enter/exit, `print`, `io`,
//!   `workload`, safepoints, returns, jumps, conditional and
//!   short-circuit branches, the receiver and right-operand checks, and
//!   compiled-in failures) *carries* the count in its own operand and
//!   adds it to the pending counter before it does anything else
//!   ([`Op::steps`]);
//! * an [`Op::Step`] is emitted only where pending steps meet a jump
//!   target — a fall-through into a loop head or a join — because the
//!   jumps into that label must not pay them.
//!
//! So each flush sees exactly the tree-walker's pending total, and so
//! does a failure: the region exits that unwind an error flush the same
//! steps on both engines. Cycle accounting — and therefore
//! `rtj-metrics/v1` snapshots, trace timestamps and step-limit trips — is
//! byte-identical between the two engines.
//!
//! # Fused instructions
//!
//! The hottest adjacent pairs are fused as they are emitted, in
//! the compiler's `emit`, with no second pass over the code: two local
//! loads ([`Op::LoadLocal2`]), a local load followed by `null`, the
//! operands of a null test ([`Op::LoadLocalNull`]), a local load feeding
//! a field read ([`Op::LoadLocalField`]), an integer literal feeding a
//! binary operator ([`Op::BinaryInt`]), and a comparison feeding a
//! conditional branch ([`Op::BinaryJumpIfFalse`]). A fused op keeps the
//! separate ops' stack effect, error messages and step accounting.
//! Fusion never spans a jump target: an op emitted at a label starts a
//! new pair.
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

/// One VM instruction, 16 bytes. `u32` operands index the side tables in
/// [`CompiledProgram`]. A `steps` operand is the count of pending
/// interpreter steps the op adds before it does anything else (see the
/// step-parity notes above).
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Accumulate `.0` interpreter steps into the thread's pending
    /// cycle/step counters (lazily flushed, like the tree-walker's). Only
    /// emitted where pending steps meet a jump target.
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
    /// Push copies of local slots `.0` then `.1`.
    LoadLocal2(u32, u32),
    /// Push a copy of local slot `.0`, then `null` (a null test's
    /// operands).
    LoadLocalNull(u32),
    /// Pop into local slot `.0`.
    StoreLocal(u32),
    /// Pop and discard the top of stack.
    Pop,
    /// Push `this` (compile-time guaranteed to be in a method frame).
    This,
    /// Apply a unary operator to the top of stack.
    Unary {
        /// The operator.
        op: UnOp,
        /// Pending steps added first.
        steps: u32,
    },
    /// Apply a non-short-circuit binary operator to the top two values.
    Binary {
        /// The operator.
        op: BinOp,
        /// Pending steps added first.
        steps: u32,
    },
    /// `ConstInt(rhs); Binary { op, steps }`: apply `op` to the top of
    /// stack and an integer literal.
    BinaryInt {
        /// The operator.
        op: BinOp,
        /// Pending steps added first.
        steps: u32,
        /// The right operand.
        rhs: i64,
    },
    /// Unconditional jump to instruction `target`.
    Jump {
        /// Jump target.
        target: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Pop a boolean; jump to `target` when false. Non-booleans raise
    /// the `ctx`-specific condition error.
    JumpIfFalse {
        /// Jump target.
        target: u32,
        /// Which statement's error message to use.
        ctx: CondCtx,
        /// Pending steps added first.
        steps: u32,
    },
    /// `Binary { op, steps }; JumpIfFalse { target, ctx, steps: 0 }`:
    /// apply `op` to the top two values and branch on the result.
    BinaryJumpIfFalse {
        /// The operator.
        op: BinOp,
        /// Jump target.
        target: u32,
        /// Which statement's error message to use.
        ctx: CondCtx,
        /// Pending steps added first.
        steps: u32,
    },
    /// Short-circuit `&&`: pop; on `false` push `false` and jump, on
    /// `true` fall through to the right operand.
    ScAnd {
        /// Jump target.
        target: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Short-circuit `||`: pop; on `true` push `true` and jump.
    ScOr {
        /// Jump target.
        target: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Verify the top of stack is a boolean (right operand of `&&`/`||`).
    CheckBool {
        /// The operator, for the error message.
        op: BinOp,
        /// Pending steps added first.
        steps: u32,
    },
    /// Pop a receiver and load field/portal [`FieldSite`] `site`.
    LoadField {
        /// The field site.
        site: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// `LoadLocal(slot); LoadField { site, steps }`.
    LoadLocalField {
        /// The receiver's local slot.
        slot: u32,
        /// The field site.
        site: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Pop value then receiver and store into [`FieldSite`] `site`.
    StoreField {
        /// The field site.
        site: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Verify the value under the pending arguments is an object
    /// reference (emitted between receiver and argument code so the
    /// non-object error precedes argument effects, as in the tree).
    CheckRecv {
        /// `true` for fork sites (different error message).
        fork: bool,
        /// Pending steps added first.
        steps: u32,
    },
    /// Invoke [`CallSite`] `site`: `[recv, args…]` on the stack.
    Call {
        /// The call site.
        site: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Fork a thread running [`CallSite`] `site`.
    Fork {
        /// The fork site.
        site: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Allocate [`NewSite`] `site` and push the reference.
    New {
        /// The allocation site.
        site: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Create/enter the region of [`RegionSite`] `site` and open a scope.
    RegionEnter {
        /// The region site.
        site: u32,
        /// Pending steps added first.
        steps: u32,
    },
    /// Close the innermost region scope and run its exit protocol.
    RegionExit {
        /// Pending steps added first.
        steps: u32,
    },
    /// Pop a value and print it (flushes pending steps first).
    Print {
        /// Pending steps added first.
        steps: u32,
    },
    /// Pop an int, charge it as I/O cycles, and hit a safepoint; pushes
    /// `null`.
    Io {
        /// Pending steps added first.
        steps: u32,
    },
    /// Pop an int and charge it as workload cycles; pushes `null`.
    Workload {
        /// Pending steps added first.
        steps: u32,
    },
    /// Flush pending steps and hit a scheduler safepoint.
    Safepoint {
        /// Pending steps added first.
        steps: u32,
    },
    /// Pop the current frame, leaving the return value on the stack;
    /// with no caller frame the thread's execution completes.
    Ret {
        /// Pending steps added first.
        steps: u32,
    },
    /// Raise the interpreter error in the message table at `msg`.
    Fail {
        /// The message's index.
        msg: u32,
        /// Pending steps added first.
        steps: u32,
    },
}

impl Op {
    /// The pending steps this op carries, or `None` for an op that
    /// carries none.
    pub fn steps(&self) -> Option<u32> {
        let mut op = *self;
        op.steps_mut().map(|n| *n)
    }

    fn steps_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Unary { steps, .. }
            | Op::Binary { steps, .. }
            | Op::BinaryInt { steps, .. }
            | Op::Jump { steps, .. }
            | Op::JumpIfFalse { steps, .. }
            | Op::BinaryJumpIfFalse { steps, .. }
            | Op::ScAnd { steps, .. }
            | Op::ScOr { steps, .. }
            | Op::CheckBool { steps, .. }
            | Op::LoadField { steps, .. }
            | Op::LoadLocalField { steps, .. }
            | Op::StoreField { steps, .. }
            | Op::CheckRecv { steps, .. }
            | Op::Call { steps, .. }
            | Op::Fork { steps, .. }
            | Op::New { steps, .. }
            | Op::RegionEnter { steps, .. }
            | Op::RegionExit { steps }
            | Op::Print { steps }
            | Op::Io { steps }
            | Op::Workload { steps }
            | Op::Safepoint { steps }
            | Op::Ret { steps }
            | Op::Fail { steps, .. } => Some(steps),
            _ => None,
        }
    }

    /// The instruction this op may jump to, if it is a jump.
    pub fn target(&self) -> Option<u32> {
        let mut op = *self;
        op.target_mut().map(|t| *t)
    }

    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jump { target, .. }
            | Op::JumpIfFalse { target, .. }
            | Op::BinaryJumpIfFalse { target, .. }
            | Op::ScAnd { target, .. }
            | Op::ScOr { target, .. } => Some(target),
            _ => None,
        }
    }

    /// The op that does what `self` followed by `next` does, when the
    /// pair is one the compiler fuses.
    fn fuse(self, next: Op) -> Option<Op> {
        Some(match (self, next) {
            (Op::LoadLocal(a), Op::LoadLocal(b)) => Op::LoadLocal2(a, b),
            (Op::LoadLocal(slot), Op::ConstNull) => Op::LoadLocalNull(slot),
            (Op::LoadLocal(slot), Op::LoadField { site, steps }) => {
                Op::LoadLocalField { slot, site, steps }
            }
            (Op::ConstInt(rhs), Op::Binary { op, steps }) => Op::BinaryInt { op, steps, rhs },
            (
                Op::Binary { op, steps },
                Op::JumpIfFalse {
                    target,
                    ctx,
                    steps: 0,
                },
            ) => Op::BinaryJumpIfFalse {
                op,
                target,
                ctx,
                steps,
            },
            _ => return None,
        })
    }
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
    /// The position of the last jump target: no fusion across it.
    label: usize,
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
        self.emit(Op::Ret { steps: 0 });
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

    /// Materialises pending steps as an [`Op::Step`] and returns the
    /// current position as a jump target: every predecessor reaches it
    /// with no steps pending, and nothing fuses across it.
    fn label(&mut self) -> u32 {
        if self.f.pending > 0 {
            let n = std::mem::take(&mut self.f.pending);
            self.f.code.push(Op::Step(n));
        }
        self.f.label = self.f.code.len();
        self.f.label as u32
    }

    /// Emits `op`. An op that carries steps takes the pending count; an
    /// op that completes a fused pair with the previous one replaces it,
    /// unless a label sits between them.
    fn emit(&mut self, mut op: Op) {
        if let Some(steps) = op.steps_mut() {
            *steps = std::mem::take(&mut self.f.pending);
        }
        let code = &mut self.f.code;
        if code.len() != self.f.label {
            if let Some(last) = code.last_mut() {
                if let Some(fused) = last.fuse(op) {
                    *last = fused;
                    return;
                }
            }
        }
        code.push(op);
    }

    /// Emits a jump whose target [`Self::patch`] fills in later, and
    /// returns its index (a fused jump replaces the op before it).
    fn emit_jump(&mut self, op: Op) -> usize {
        self.emit(op);
        self.f.code.len() - 1
    }

    /// Points the jump at `at` to the current position.
    fn patch(&mut self, at: usize) {
        let target = self.label();
        *self.f.code[at].target_mut().expect("patching a jump") = target;
    }

    /// Emits a [`Op::Fail`] with the exact message the tree-walker would
    /// raise at this point.
    fn fail(&mut self, msg: String) {
        let i = self.fail_msgs.len() as u32;
        self.fail_msgs.push(msg);
        self.emit(Op::Fail { msg: i, steps: 0 });
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
                self.emit(Op::StoreField { site, steps: 0 });
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
                let j = self.emit_jump(Op::JumpIfFalse {
                    target: 0,
                    ctx: CondCtx::If,
                    steps: 0,
                });
                self.block(then_blk);
                match else_blk {
                    Some(eb) => {
                        let jend = self.emit_jump(Op::Jump {
                            target: 0,
                            steps: 0,
                        });
                        self.patch(j);
                        self.block(eb);
                        self.patch(jend);
                    }
                    None => self.patch(j),
                }
            }
            Stmt::While { cond, body, .. } => {
                let head = self.label();
                self.emit(Op::Safepoint { steps: 0 });
                self.expr(cond);
                let jexit = self.emit_jump(Op::JumpIfFalse {
                    target: 0,
                    ctx: CondCtx::While,
                    steps: 0,
                });
                self.block(body);
                self.emit(Op::Jump {
                    target: head,
                    steps: 0,
                });
                self.patch(jexit);
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(e) => self.expr(e),
                    None => self.emit(Op::ConstNull),
                }
                for _ in 0..self.f.open_scopes {
                    self.emit(Op::RegionExit { steps: 0 });
                }
                self.emit(Op::Ret { steps: 0 });
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
        self.emit(Op::RegionEnter { site, steps: 0 });
        self.f.open_scopes += 1;
        self.block(body);
        self.f.open_scopes -= 1;
        self.emit(Op::RegionExit { steps: 0 });
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
                self.emit(Op::Unary { op: *op, steps: 0 });
            }
            Expr::Binary { op, lhs, rhs, .. } if matches!(op, BinOp::And | BinOp::Or) => {
                self.expr(lhs);
                let (target, steps) = (0, 0);
                let j = self.emit_jump(match op {
                    BinOp::And => Op::ScAnd { target, steps },
                    _ => Op::ScOr { target, steps },
                });
                self.expr(rhs);
                self.emit(Op::CheckBool { op: *op, steps });
                self.patch(j);
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
                self.emit(Op::Binary { op: *op, steps: 0 });
            }
            Expr::Field { recv, field, .. } => {
                self.expr(recv);
                let site = self.field_sites.len() as u32;
                self.field_sites.push(FieldSite { field: field.name });
                self.emit(Op::LoadField { site, steps: 0 });
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
                self.emit(Op::New { site, steps: 0 });
            }
            Expr::IntrinsicCall {
                intrinsic, args, ..
            } => match intrinsic {
                Intrinsic::Print => {
                    self.expr(&args[0]);
                    self.emit(Op::Print { steps: 0 });
                }
                Intrinsic::Io => {
                    self.expr(&args[0]);
                    self.emit(Op::Io { steps: 0 });
                }
                Intrinsic::Workload => {
                    self.expr(&args[0]);
                    self.emit(Op::Workload { steps: 0 });
                }
                Intrinsic::Yield => {
                    self.emit(Op::Safepoint { steps: 0 });
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
                steps: 0,
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
            Some(_) => Op::Fork { site, steps: 0 },
            None => Op::Call { site, steps: 0 },
        });
    }
}
