//! Fingerprints of declarations, for the incremental checker
//! (`rtj-types::incremental`).
//!
//! * The **text fingerprint** ([`text_fingerprint`]) hashes a
//!   declaration's source bytes. Equal text lexes and parses to the same
//!   declaration, only shifted by its new position, so a class or region
//!   kind whose text fingerprint is unchanged keeps its cached results,
//!   diagnostics relocated by the shift.
//! * The **signature fingerprint** ([`signature_fingerprint`]) covers
//!   what another declaration can observe of a class: name, formal
//!   owners, `extends`, `where` clauses, field types and method
//!   signatures (effects included). It hashes **no spans**, so two
//!   classes with equal signature fingerprints are interchangeable as
//!   far as their dependents' checking outcomes go. It is computed on
//!   the *elaborated* declaration, so a bare class type counts at the
//!   formal count it was completed with.
//!
//! [`Symbol`]s hash and compare by interner pointer, which depends on
//! interning order; fingerprints must survive across independently parsed
//! sources, so every identifier is hashed by its **string contents**.
//!
//! [`class_refs`] / [`region_kind_refs`] collect the class and region-kind
//! names a declaration mentions; the incremental checker builds its
//! reverse dependency index from them (transitively, so names reachable
//! only through another declaration's members are still covered).

use crate::ast::*;
use crate::intern::Symbol;
use crate::span::Span;

/// Incremental FNV-1a 64-bit hasher (the server's result fingerprints use
/// it too: dependency-free and byte-order stable).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a string (length-prefixed so concatenations can't collide).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a single tag byte (enum discriminants, arity markers).
    pub fn write_tag(&mut self, t: u8) {
        self.write(&[t]);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The text fingerprint of the declaration at `span` of `source`: FNV-1a
/// over its bytes.
pub fn text_fingerprint(source: &str, span: Span) -> u64 {
    let mut h = Fnv64::new();
    h.write(&source.as_bytes()[span.start as usize..span.end as usize]);
    h.finish()
}

/// The signature fingerprint of a class declaration. Call on the
/// *elaborated* declaration (after `apply_declaration_defaults`) so that
/// omitted owners count as their completed forms.
pub fn signature_fingerprint(c: &ClassDecl) -> u64 {
    let mut h = Fnv64::new();
    hash_class_sig(&mut h, c);
    h.finish()
}

// ------------------------------------------------------- span-free hashing

/// Hashes the span-free signature surface of a class.
fn hash_class_sig(h: &mut Fnv64, c: &ClassDecl) {
    h.write_str(c.name.name.as_str());
    h.write_u64(c.formals.len() as u64);
    for f in &c.formals {
        h.write_str(f.name.name.as_str());
        hash_kind(h, &f.kind);
    }
    match &c.extends {
        Some(ext) => {
            h.write_tag(1);
            hash_class_type(h, ext);
        }
        None => h.write_tag(0),
    }
    hash_constraints(h, &c.where_clauses);
    h.write_u64(c.fields.len() as u64);
    for f in &c.fields {
        h.write_str(f.name.name.as_str());
        hash_type(h, &f.ty);
    }
    h.write_u64(c.methods.len() as u64);
    for m in &c.methods {
        hash_method_sig(h, m);
    }
}

fn hash_method_sig(h: &mut Fnv64, m: &MethodDecl) {
    h.write_str(m.name.name.as_str());
    hash_type(h, &m.ret);
    h.write_u64(m.formals.len() as u64);
    for f in &m.formals {
        h.write_str(f.name.name.as_str());
        hash_kind(h, &f.kind);
    }
    h.write_u64(m.params.len() as u64);
    for p in &m.params {
        h.write_str(p.name.name.as_str());
        hash_type(h, &p.ty);
    }
    match &m.effects {
        Some(list) => {
            h.write_tag(1);
            h.write_u64(list.len() as u64);
            for o in list {
                hash_owner(h, o);
            }
        }
        None => h.write_tag(0),
    }
    hash_constraints(h, &m.where_clauses);
}

fn hash_constraints(h: &mut Fnv64, cs: &[Constraint]) {
    h.write_u64(cs.len() as u64);
    for c in cs {
        hash_owner(h, &c.lhs);
        h.write_tag(match c.rel {
            ConstraintRel::Owns => 0,
            ConstraintRel::Outlives => 1,
        });
        hash_owner(h, &c.rhs);
    }
}

fn hash_type(h: &mut Fnv64, t: &Type) {
    match t {
        Type::Int(_) => h.write_tag(0),
        Type::Bool(_) => h.write_tag(1),
        Type::Void(_) => h.write_tag(2),
        Type::Class(ct) => {
            h.write_tag(3);
            hash_class_type(h, ct);
        }
        Type::Handle(o, _) => {
            h.write_tag(4);
            hash_owner(h, o);
        }
    }
}

fn hash_class_type(h: &mut Fnv64, ct: &ClassType) {
    h.write_str(ct.name.name.as_str());
    h.write_u64(ct.owners.len() as u64);
    for o in &ct.owners {
        hash_owner(h, o);
    }
}

fn hash_owner(h: &mut Fnv64, o: &OwnerRef) {
    match o {
        OwnerRef::Name(id) => {
            h.write_tag(0);
            h.write_str(id.name.as_str());
        }
        OwnerRef::This(_) => h.write_tag(1),
        OwnerRef::InitialRegion(_) => h.write_tag(2),
        OwnerRef::Heap(_) => h.write_tag(3),
        OwnerRef::Immortal(_) => h.write_tag(4),
        OwnerRef::Rt(_) => h.write_tag(5),
    }
}

fn hash_kind(h: &mut Fnv64, k: &KindAnn) {
    match k {
        KindAnn::Owner(_) => h.write_tag(0),
        KindAnn::ObjOwner(_) => h.write_tag(1),
        KindAnn::Region(_) => h.write_tag(2),
        KindAnn::GcRegion(_) => h.write_tag(3),
        KindAnn::NoGcRegion(_) => h.write_tag(4),
        KindAnn::LocalRegion(_) => h.write_tag(5),
        KindAnn::SharedRegion(_) => h.write_tag(6),
        KindAnn::Named { name, owners } => {
            h.write_tag(7);
            h.write_str(name.name.as_str());
            h.write_u64(owners.len() as u64);
            for o in owners {
                hash_owner(h, o);
            }
        }
        KindAnn::Lt(inner, _) => {
            h.write_tag(8);
            hash_kind(h, inner);
        }
    }
}

// --------------------------------------------------------- reference sets

/// Collects every class or region-kind *name* a class declaration
/// mentions (extends, field/param/return/let types, `new` sites, named
/// kind annotations in region blocks). Sorted and deduplicated.
///
/// Names reachable only through another class's members (e.g. the type of
/// a field read off a dependency) are *not* listed here; the incremental
/// checker compensates by propagating dirtiness transitively over this
/// edge set, which covers every chain the checker can follow.
pub fn class_refs(class: &Class) -> Vec<Symbol> {
    let c = &class.decl;
    let mut out = Vec::new();
    if let Some(ext) = &c.extends {
        out.push(ext.name.name);
    }
    for f in &c.formals {
        refs_kind(&f.kind, &mut out);
    }
    for f in &c.fields {
        refs_type(&f.ty, &mut out);
    }
    for (m, body) in class.methods() {
        refs_type(&m.ret, &mut out);
        for f in &m.formals {
            refs_kind(&f.kind, &mut out);
        }
        for p in &m.params {
            refs_type(&p.ty, &mut out);
        }
        refs_block(body, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Collects every class or region-kind name a region-kind declaration
/// mentions (extends, portal field types, subregion kinds, formal kinds).
pub fn region_kind_refs(rk: &RegionKindDecl) -> Vec<Symbol> {
    let mut out = Vec::new();
    for f in &rk.formals {
        refs_kind(&f.kind, &mut out);
    }
    if let Some(k) = &rk.extends {
        refs_kind(k, &mut out);
    }
    for p in &rk.portals {
        refs_type(&p.ty, &mut out);
    }
    for s in &rk.subregions {
        refs_kind(&s.kind, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn refs_type(t: &Type, out: &mut Vec<Symbol>) {
    if let Type::Class(ct) = t {
        out.push(ct.name.name);
    }
}

fn refs_kind(k: &KindAnn, out: &mut Vec<Symbol>) {
    match k {
        KindAnn::Named { name, .. } => out.push(name.name),
        KindAnn::Lt(inner, _) => refs_kind(inner, out),
        _ => {}
    }
}

fn refs_block(b: &Block, out: &mut Vec<Symbol>) {
    for s in &b.stmts {
        refs_stmt(s, out);
    }
}

fn refs_stmt(s: &Stmt, out: &mut Vec<Symbol>) {
    match s {
        Stmt::Let { ty, init, .. } => {
            if let Some(t) = ty {
                refs_type(t, out);
            }
            refs_expr(init, out);
        }
        Stmt::AssignLocal { value, .. } => refs_expr(value, out),
        Stmt::AssignField { recv, value, .. } => {
            refs_expr(recv, out);
            refs_expr(value, out);
        }
        Stmt::Expr(e) => refs_expr(e, out),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            refs_expr(cond, out);
            refs_block(then_blk, out);
            if let Some(b) = else_blk {
                refs_block(b, out);
            }
        }
        Stmt::While { cond, body, .. } => {
            refs_expr(cond, out);
            refs_block(body, out);
        }
        Stmt::Return { value, .. } => {
            if let Some(v) = value {
                refs_expr(v, out);
            }
        }
        Stmt::LocalRegion { body, .. } => refs_block(body, out),
        Stmt::NewRegion { kind, body, .. } => {
            refs_kind(kind, out);
            refs_block(body, out);
        }
        Stmt::EnterSubregion { kind, body, .. } => {
            refs_kind(kind, out);
            refs_block(body, out);
        }
        Stmt::Fork { call, .. } => refs_expr(call, out),
    }
}

fn refs_expr(e: &Expr, out: &mut Vec<Symbol>) {
    match e {
        Expr::Int(..)
        | Expr::Bool(..)
        | Expr::Str(..)
        | Expr::Null(_)
        | Expr::This(_)
        | Expr::Var(_) => {}
        Expr::Unary { expr, .. } => refs_expr(expr, out),
        Expr::Binary { lhs, rhs, .. } => {
            refs_expr(lhs, out);
            refs_expr(rhs, out);
        }
        Expr::Field { recv, .. } => refs_expr(recv, out),
        Expr::Call { recv, args, .. } => {
            refs_expr(recv, out);
            for a in args {
                refs_expr(a, out);
            }
        }
        Expr::New { class, .. } => out.push(class.name.name),
        Expr::IntrinsicCall { args, .. } => {
            for a in args {
                refs_expr(a, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn classes(src: &str) -> Vec<Class> {
        parse_program(src).unwrap().classes
    }

    /// The text and signature fingerprints of the first class of `src`.
    fn fingerprints(src: &str) -> (u64, u64) {
        let c = &classes(src)[0].decl;
        (text_fingerprint(src, c.span), signature_fingerprint(c))
    }

    #[test]
    fn whitespace_shift_changes_nothing() {
        let a = fingerprints("class A<Owner o> { int v; }\n{ }");
        let b = fingerprints("// moved\n\n\nclass A<Owner o> { int v; }\n{ }");
        assert_eq!(a, b, "a moved declaration keeps both fingerprints");
    }

    #[test]
    fn body_edit_changes_text_not_sig() {
        let a = fingerprints("class A<Owner o> { int f(int x) { return x; } }\n{ }");
        let b = fingerprints("class A<Owner o> { int f(int x) { return x + 1; } }\n{ }");
        assert_eq!(a.1, b.1);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn sig_edit_changes_sig() {
        let a = fingerprints("class A<Owner o> { int f(int x) { return x; } }\n{ }");
        let b = fingerprints("class A<Owner o> { int f(int x, int y) { return x; } }\n{ }");
        assert_ne!(a.1, b.1);
    }

    /// A same-length edit that moves one token inside a parameter type
    /// changes the text fingerprint, so the class's diagnostics are not
    /// reused at their old offsets.
    #[test]
    fn a_token_shifted_in_place_changes_the_text() {
        let a = fingerprints("class A<Owner o> { int g(Cell<q>  x) { return 1; } }\n{ }");
        let b = fingerprints("class A<Owner o> { int g( Cell<q> x) { return 1; } }\n{ }");
        assert_eq!(a.1, b.1);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn refs_cover_types_and_new_sites() {
        let c = classes(
            "class B<Owner o> { int v; }\n\
             class A<Owner o> extends B<o> { B<o> f; void g() { let x = new B<o>; } }\n{ }",
        );
        let refs = class_refs(&c[1]);
        let names: Vec<&str> = refs.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["B"]);
    }
}
