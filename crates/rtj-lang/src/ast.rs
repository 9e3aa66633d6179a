//! Abstract syntax tree for the core language.
//!
//! The grammar follows Figures 3, 7, 9, and 13 of the paper, extended with
//! ordinary control flow (`if`/`while`), arithmetic, `bool`, and a handful
//! of intrinsics so that the evaluation benchmarks are executable. The
//! ownership/region constructs are exactly the paper's:
//!
//! * classes parameterized by **owners** (`class C<Owner a, Owner b>`),
//! * `where` constraints (`a owns b`, `a outlives b`),
//! * region-kind declarations with portal fields and subregions,
//! * region-creation blocks `(RHandle<r> h) { ... }` (local, shared,
//!   and subregion-entry forms),
//! * `fork` / `RT fork`, and
//! * method `accesses` (effects) clauses.

use crate::intern::Symbol;
use crate::span::Span;
use std::fmt;
use std::sync::Arc;

/// An identifier with its source span.
///
/// The text is interned at parse time: every later phase compares, hashes,
/// and copies identifiers as [`Symbol`]s without touching the characters.
#[derive(Debug, Clone, Copy, Eq)]
pub struct Ident {
    /// The identifier text (interned).
    pub name: Symbol,
    /// Where it appears.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier with a dummy span (for synthesized nodes).
    pub fn synthetic(name: impl Into<Symbol>) -> Self {
        Ident {
            name: name.into(),
            span: Span::DUMMY,
        }
    }
}

impl PartialEq for Ident {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl std::hash::Hash for Ident {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name.as_str())
    }
}

/// A whole program: class declarations, region-kind declarations, and the
/// main block (the paper's initial expression).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All `class` declarations, in source order.
    pub classes: Vec<Class>,
    /// All `regionKind` declarations, in source order, shared like headers.
    pub region_kinds: Vec<Arc<RegionKindDecl>>,
    /// The initial block evaluated by the main (regular) thread.
    pub main: Block,
}

/// A `class` declaration: its header, which the checker's table shares
/// once the defaults complete it, and the bodies the elaboration writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    /// The header: all but the method bodies.
    pub decl: Arc<ClassDecl>,
    /// `bodies[j]` is the body of `decl.methods[j]`.
    pub bodies: Vec<Block>,
}

impl Class {
    /// Each method's header with its body, in declaration order.
    pub fn methods(&self) -> impl Iterator<Item = (&MethodDecl, &Block)> {
        self.decl.methods.iter().zip(&self.bodies)
    }
}

/// A `class` declaration's header (its bodies are in [`Class::bodies`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: Ident,
    /// Formal owner parameters; the first owner owns the object.
    pub formals: Vec<FormalOwner>,
    /// Superclass; `None` means `Object<firstFormal>`.
    pub extends: Option<ClassType>,
    /// `where` constraints over owners in scope.
    pub where_clauses: Vec<Constraint>,
    /// Instance fields.
    pub fields: Vec<FieldDecl>,
    /// Method headers.
    pub methods: Vec<MethodDecl>,
    /// Source span of the whole declaration.
    pub span: Span,
}

/// A formal owner parameter, e.g. `Owner stackOwner` or
/// `BufferRegion r`.
#[derive(Debug, Clone, PartialEq)]
pub struct FormalOwner {
    /// Declared kind of the owner.
    pub kind: KindAnn,
    /// Name of the formal.
    pub name: Ident,
}

/// A (possibly user-defined) owner-kind annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum KindAnn {
    /// `Owner` — any owner (object or region).
    Owner(Span),
    /// `ObjOwner` — owners that are objects.
    ObjOwner(Span),
    /// `Region` — any region.
    Region(Span),
    /// `GCRegion` — the garbage-collected heap.
    GcRegion(Span),
    /// `NoGCRegion` — any non-heap region.
    NoGcRegion(Span),
    /// `LocalRegion` — lexically scoped thread-local region.
    LocalRegion(Span),
    /// `SharedRegion` — root of the shared region-kind hierarchy.
    SharedRegion(Span),
    /// A user-declared shared region kind `srkn<o*>`.
    Named {
        /// Region-kind name.
        name: Ident,
        /// Owner arguments.
        owners: Vec<OwnerRef>,
    },
    /// `k : LT` — regions of kind `k` whose memory is preallocated.
    Lt(Box<KindAnn>, Span),
}

impl KindAnn {
    /// The span of this annotation.
    pub fn span(&self) -> Span {
        match self {
            KindAnn::Owner(s)
            | KindAnn::ObjOwner(s)
            | KindAnn::Region(s)
            | KindAnn::GcRegion(s)
            | KindAnn::NoGcRegion(s)
            | KindAnn::LocalRegion(s)
            | KindAnn::SharedRegion(s) => *s,
            KindAnn::Named { name, .. } => name.span,
            KindAnn::Lt(inner, s) => inner.span().to(*s),
        }
    }
}

/// A class type `cn<o1, ..., on>`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassType {
    /// Class name.
    pub name: Ident,
    /// Owner arguments; the first owns the object.
    pub owners: Vec<OwnerRef>,
    /// Source span.
    pub span: Span,
}

/// A reference to an owner: a formal, a region name, or a special owner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OwnerRef {
    /// A formal owner parameter or an in-scope region name.
    Name(Ident),
    /// The current object, `this`.
    This(Span),
    /// `initialRegion` — the most recent region created before the call.
    InitialRegion(Span),
    /// The garbage-collected `heap` region.
    Heap(Span),
    /// The `immortal` region.
    Immortal(Span),
    /// The `RT` pseudo-effect (legal only in `accesses` clauses).
    Rt(Span),
}

impl OwnerRef {
    /// The span of this owner reference.
    pub fn span(&self) -> Span {
        match self {
            OwnerRef::Name(id) => id.span,
            OwnerRef::This(s)
            | OwnerRef::InitialRegion(s)
            | OwnerRef::Heap(s)
            | OwnerRef::Immortal(s)
            | OwnerRef::Rt(s) => *s,
        }
    }
}

impl fmt::Display for OwnerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OwnerRef::Name(id) => write!(f, "{id}"),
            OwnerRef::This(_) => write!(f, "this"),
            OwnerRef::InitialRegion(_) => write!(f, "initialRegion"),
            OwnerRef::Heap(_) => write!(f, "heap"),
            OwnerRef::Immortal(_) => write!(f, "immortal"),
            OwnerRef::Rt(_) => write!(f, "RT"),
        }
    }
}

/// A `where`-clause constraint between two owners.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Left operand.
    pub lhs: OwnerRef,
    /// `owns` or `outlives`.
    pub rel: ConstraintRel,
    /// Right operand.
    pub rhs: OwnerRef,
}

/// The relation asserted by a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintRel {
    /// `lhs owns rhs` (the paper's `≽ₒ`).
    Owns,
    /// `lhs outlives rhs` (the paper's `≽`).
    Outlives,
}

impl fmt::Display for ConstraintRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintRel::Owns => write!(f, "owns"),
            ConstraintRel::Outlives => write!(f, "outlives"),
        }
    }
}

/// An instance field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Declared type. `None` means the owner annotations were omitted and
    /// will be filled in by default completion (owner of `this`).
    pub ty: Type,
    /// Field name.
    pub name: Ident,
    /// Source span.
    pub span: Span,
}

/// A method declaration's header (its body is in [`Class::bodies`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Return type (`Type::Void` for `void` methods).
    pub ret: Type,
    /// Method name.
    pub name: Ident,
    /// Extra formal owner parameters introduced by this method.
    pub formals: Vec<FormalOwner>,
    /// Value parameters.
    pub params: Vec<Param>,
    /// `accesses` clause. `None` means "use the default effects":
    /// all class and method owner parameters plus `initialRegion`.
    pub effects: Option<Vec<OwnerRef>>,
    /// `where` constraints introduced by the method.
    pub where_clauses: Vec<Constraint>,
    /// Source span of the declaration, body included.
    pub span: Span,
}

/// A method value parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Declared type.
    pub ty: Type,
    /// Parameter name.
    pub name: Ident,
}

/// A type in the core language.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    /// `int`.
    Int(Span),
    /// `bool`.
    Bool(Span),
    /// `void` (method returns only).
    Void(Span),
    /// A class type `cn<o*>`.
    Class(ClassType),
    /// A region handle type `RHandle<r>`.
    Handle(OwnerRef, Span),
}

impl Type {
    /// The span of this type.
    pub fn span(&self) -> Span {
        match self {
            Type::Int(s) | Type::Bool(s) | Type::Void(s) => *s,
            Type::Class(ct) => ct.span,
            Type::Handle(_, s) => *s,
        }
    }
}

/// A `regionKind` declaration (shared region kinds; Section 2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionKindDecl {
    /// Kind name.
    pub name: Ident,
    /// Formal owner parameters.
    pub formals: Vec<FormalOwner>,
    /// Super kind; `None` means `SharedRegion`.
    pub extends: Option<KindAnn>,
    /// `where` constraints.
    pub where_clauses: Vec<Constraint>,
    /// Portal fields (typed fields of the region itself).
    pub portals: Vec<FieldDecl>,
    /// Declared subregions.
    pub subregions: Vec<SubregionDecl>,
    /// Source span.
    pub span: Span,
}

/// A subregion declaration inside a region kind:
/// `subregion BufferSubRegion : LT(4096) NoRT b;`
#[derive(Debug, Clone, PartialEq)]
pub struct SubregionDecl {
    /// Region kind of the subregion.
    pub kind: KindAnn,
    /// Allocation policy (LT with a size, or VT).
    pub policy: Policy,
    /// Whether this subregion is reserved for real-time threads.
    pub thread: ThreadTag,
    /// Subregion member name.
    pub name: Ident,
    /// Source span.
    pub span: Span,
}

/// Region allocation policy (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Linear-time: memory preallocated at creation; `size` is the byte
    /// bound the programmer must supply.
    Lt {
        /// Upper bound (bytes) for objects allocated in the region.
        size: u64,
    },
    /// Variable-time: memory allocated on demand.
    Vt,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Lt { size } => write!(f, "LT({size})"),
            Policy::Vt => write!(f, "VT"),
        }
    }
}

/// Which threads may use a subregion (Section 2.3, priority inversion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadTag {
    /// Only real-time threads may enter.
    Rt,
    /// Only regular threads may enter.
    NoRt,
}

impl fmt::Display for ThreadTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadTag::Rt => write!(f, "RT"),
            ThreadTag::NoRt => write!(f, "NoRT"),
        }
    }
}

/// A block of statements `{ s* }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let [T] x = e;` — `ty: None` requests local owner inference.
    Let {
        /// Declared type, or `None` for inference.
        ty: Option<Type>,
        /// Variable name.
        name: Ident,
        /// Initializer.
        init: Expr,
        /// Source span.
        span: Span,
    },
    /// `x = e;` — assignment to a local variable or parameter.
    AssignLocal {
        /// Variable name.
        name: Ident,
        /// Value.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `recv.fd = e;` — field write (object field or portal field,
    /// resolved by the receiver's static type).
    AssignField {
        /// Receiver expression.
        recv: Expr,
        /// Field name.
        field: Ident,
        /// Value.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// An expression evaluated for effect.
    Expr(Expr),
    /// `if (c) { ... } [else { ... }]`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
        /// Source span.
        span: Span,
    },
    /// `while (c) { ... }`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `return [e];`
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Source span.
        span: Span,
    },
    /// `(RHandle<r> h) { ... }` — create a local (`LocalRegion : VT`) region.
    LocalRegion {
        /// Region name bound in the body.
        region: Ident,
        /// Handle variable bound in the body.
        handle: Ident,
        /// Body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `(RHandle<kind : policy r> h) { ... }` — create a top-level region of
    /// the given (shared) kind and policy.
    NewRegion {
        /// Region kind.
        kind: KindAnn,
        /// Allocation policy.
        policy: Policy,
        /// Region name bound in the body.
        region: Ident,
        /// Handle variable bound in the body.
        handle: Ident,
        /// Body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `(RHandle<kind r2> h2 = [new] h.sub) { ... }` — enter (optionally
    /// recreating) subregion `sub` of the region whose handle is `h`.
    EnterSubregion {
        /// Expected kind of the subregion (checked against the declaration).
        kind: KindAnn,
        /// Region name bound in the body.
        region: Ident,
        /// Handle variable bound in the body.
        handle: Ident,
        /// `new` present: enter a fresh subregion instance.
        fresh: bool,
        /// Variable holding the parent region's handle.
        parent: Ident,
        /// Subregion member name.
        sub: Ident,
        /// Body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `fork recv.mn<o*>(args);` or `RT fork recv.mn<o*>(args);`
    Fork {
        /// `true` for `RT fork` (spawn a real-time thread).
        rt: bool,
        /// The method invocation evaluated by the new thread.
        call: Expr,
        /// Source span.
        span: Span,
    },
}

impl Stmt {
    /// The span of this statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { span, .. }
            | Stmt::AssignLocal { span, .. }
            | Stmt::AssignField { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::LocalRegion { span, .. }
            | Stmt::NewRegion { span, .. }
            | Stmt::EnterSubregion { span, .. }
            | Stmt::Fork { span, .. } => *span,
            Stmt::Expr(e) => e.span(),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// Built-in intrinsics (documented extensions for the evaluation corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `print(e)` — write a value to the trace.
    Print,
    /// `io(n)` — simulate `n` cycles of external (network/disk) work.
    Io,
    /// `workload(n)` — simulate `n` cycles of pure computation.
    Workload,
    /// `yield()` — let the cooperative scheduler switch threads.
    Yield,
}

impl Intrinsic {
    /// Intrinsic for a call to `name`, if any.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "print" => Intrinsic::Print,
            "io" => Intrinsic::Io,
            "workload" => Intrinsic::Workload,
            "yield" => Intrinsic::Yield,
            _ => return None,
        })
    }

    /// The surface name of this intrinsic.
    pub fn name(&self) -> &'static str {
        match self {
            Intrinsic::Print => "print",
            Intrinsic::Io => "io",
            Intrinsic::Workload => "workload",
            Intrinsic::Yield => "yield",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// String literal (only as `print` argument), interned by the lexer.
    Str(Symbol, Span),
    /// `null`.
    Null(Span),
    /// `this`.
    This(Span),
    /// A variable reference.
    Var(Ident),
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Field read `recv.fd` (object field or portal field).
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name.
        field: Ident,
        /// Source span.
        span: Span,
    },
    /// Method invocation `recv.mn<o*>(args)`.
    Call {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: Ident,
        /// Explicit owner arguments for the method's formals. Filled in by
        /// the checker's default completion when omitted.
        owner_args: Vec<OwnerRef>,
        /// Value arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// Object allocation `new cn<o*>`.
    New {
        /// Allocated class type; the first owner determines the region.
        class: ClassType,
        /// Source span.
        span: Span,
    },
    /// An intrinsic call such as `print(e)`.
    IntrinsicCall {
        /// Which intrinsic.
        intrinsic: Intrinsic,
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
}

impl Expr {
    /// The span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Bool(_, s)
            | Expr::Str(_, s)
            | Expr::Null(s)
            | Expr::This(s) => *s,
            Expr::Var(id) => id.span,
            Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Field { span, .. }
            | Expr::Call { span, .. }
            | Expr::New { span, .. }
            | Expr::IntrinsicCall { span, .. } => *span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_equality_ignores_span() {
        let a = Ident {
            name: "x".into(),
            span: Span::new(0, 1),
        };
        let b = Ident {
            name: "x".into(),
            span: Span::new(5, 6),
        };
        assert_eq!(a, b);
    }

    #[test]
    fn intrinsic_names_round_trip() {
        for i in [
            Intrinsic::Print,
            Intrinsic::Io,
            Intrinsic::Workload,
            Intrinsic::Yield,
        ] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("banana"), None);
    }

    #[test]
    fn policy_display() {
        assert_eq!(Policy::Lt { size: 64 }.to_string(), "LT(64)");
        assert_eq!(Policy::Vt.to_string(), "VT");
    }

    #[test]
    fn owner_display() {
        assert_eq!(OwnerRef::Heap(Span::DUMMY).to_string(), "heap");
        assert_eq!(OwnerRef::Name(Ident::synthetic("r1")).to_string(), "r1");
    }
}
