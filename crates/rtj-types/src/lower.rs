//! Translation to Real-Time Java (Section 2.6, Figure 10).
//!
//! The type system is designed so that checked programs can be lowered to
//! plain RTSJ by **type erasure**: the ownership and region annotations
//! disappear, region *handles* remain as runtime values, and the RTSJ API
//! supplies the rest:
//!
//! * a region `r` becomes an RTSJ `LTMemory`/`VTMemory` object `m`;
//! * `m` carries two auxiliary objects (Figure 10): `w1`, whose fields
//!   point to the representations of `r`'s subregions, and `w2` — stored
//!   as `m`'s portal — which wraps `r`'s typed portal fields;
//! * `new cn<o…>` allocates with plain `new` when the target region is
//!   the current allocation context, and with `handle.newInstance(...)`
//!   otherwise (the type rules proved `av RH(o₁)`, so a handle is always
//!   obtainable: `HeapMemory.instance()`, `ImmortalMemory.instance()`,
//!   `MemoryArea.getMemoryArea(this)`, or an in-scope handle variable);
//! * `fork` becomes `new Thread(...)`, `RT fork` becomes
//!   `new NoHeapRealtimeThread(...)`;
//! * because the program is well-typed, the generated code is annotated
//!   `// checks: none required` — an RTSJ VM may run it with the
//!   reference/assignment checks disabled.
//!
//! The output is readable Java-like text; it is exercised by golden
//! tests, not executed (the executable semantics live in `rtj-interp`).

use crate::check::Checked;
use crate::owner::Owner;
use rtj_lang::ast::*;
use std::fmt::Write as _;

/// Lowers a checked program to RTSJ-style Java source.
pub fn lower_to_rtsj(checked: &Checked) -> String {
    let mut l = Lowerer {
        out: String::new(),
        indent: 0,
        region_stack: Vec::new(),
        tmp: 0,
    };
    l.program(&checked.program);
    l.out
}

struct Lowerer {
    out: String,
    indent: usize,
    /// Lexical stack of `(region name, handle variable)` pairs; the top is
    /// the current allocation context.
    region_stack: Vec<(String, String)>,
    tmp: u32,
}

impl Lowerer {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn open(&mut self, s: &str) {
        self.line(&format!("{s} {{"));
        self.indent += 1;
    }

    fn close(&mut self) {
        self.indent -= 1;
        self.line("}");
    }

    fn fresh(&mut self, base: &str) -> String {
        self.tmp += 1;
        format!("{base}${}", self.tmp)
    }

    fn program(&mut self, p: &Program) {
        self.line("// Generated by rtjc: translation to the Real-Time Specification");
        self.line("// for Java (paper Section 2.6). The source program is well-typed");
        self.line("// under the ownership/region type system, so every RTSJ memory-");
        self.line("// area check below is statically guaranteed to succeed and may be");
        self.line("// disabled. checks: none required.");
        self.line("import javax.realtime.*;");
        self.out.push('\n');
        for rk in &p.region_kinds {
            self.region_kind(rk);
            self.out.push('\n');
        }
        for c in &p.classes {
            self.class(c);
            self.out.push('\n');
        }
        self.open("public final class Main");
        self.open("public static void main(String[] args)");
        for s in &p.main.stmts {
            self.stmt(s);
        }
        self.close();
        self.close();
    }

    /// Figure 10: a region kind lowers to a `ScopedMemory` subclass with a
    /// subregion table (`w1`) and a typed portal wrapper (`w2`).
    fn region_kind(&mut self, rk: &RegionKindDecl) {
        let name = &rk.name.name;
        self.open(&format!("final class {name}Memory extends VTMemory"));
        self.line("// w1: subregion table (one field per declared subregion)");
        for s in &rk.subregions {
            let kind = kind_name(&s.kind);
            let init = match s.policy {
                Policy::Lt { size } => format!("new {kind}Memory(/*LT*/ {size})"),
                Policy::Vt => format!("new {kind}Memory()"),
            };
            self.line(&format!(
                "final {kind}Memory {} = {init}; // {} threads only",
                s.name,
                match s.thread {
                    ThreadTag::Rt => "real-time",
                    ThreadTag::NoRt => "regular",
                }
            ));
        }
        if !rk.portals.is_empty() {
            self.line("// w2: typed portal wrapper, stored as this area's portal");
            self.open("static final class Portals");
            for f in &rk.portals {
                self.line(&format!("{} {};", erase_type(&f.ty), f.name));
            }
            self.close();
            self.line("Portals portals() { return (Portals) getPortal(); }");
        }
        self.close();
    }

    fn class(&mut self, class: &Class) {
        let c = &*class.decl;
        // Type erasure: owner parameters disappear entirely.
        let ext = match &c.extends {
            Some(ct) if ct.name.name != "Object" => format!(" extends {}", ct.name.name),
            _ => String::new(),
        };
        self.open(&format!("class {}{ext}", c.name.name));
        for f in &c.fields {
            self.line(&format!("{} {};", erase_type(&f.ty), f.name));
        }
        for (m, body) in class.methods() {
            self.method(m, body);
        }
        self.close();
    }

    fn method(&mut self, m: &MethodDecl, body: &Block) {
        let params: Vec<String> = m
            .params
            .iter()
            .map(|p| format!("{} {}", erase_type(&p.ty), p.name))
            .collect();
        self.open(&format!(
            "{} {}({})",
            erase_type(&m.ret),
            m.name.name,
            params.join(", ")
        ));
        // Handle parameters are in scope as memory areas; remember them.
        let depth = self.region_stack.len();
        for p in &m.params {
            if let Type::Handle(r, _) = &p.ty {
                self.region_stack
                    .push((owner_name(r), p.name.name.to_string()));
            }
        }
        for s in &body.stmts {
            self.stmt(s);
        }
        self.region_stack.truncate(depth);
        self.close();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { ty, name, init, .. } => {
                let t = ty.as_ref().map(erase_type).unwrap_or_else(|| "var".into());
                let e = self.expr(init);
                self.line(&format!("{t} {name} = {e};"));
            }
            Stmt::AssignLocal { name, value, .. } => {
                let e = self.expr(value);
                self.line(&format!("{name} = {e};"));
            }
            Stmt::AssignField {
                recv, field, value, ..
            } => {
                let r = self.expr(recv);
                let v = self.expr(value);
                if self.is_handle(recv) {
                    self.line(&format!("{r}.portals().{field} = {v}; // portal write"));
                } else {
                    self.line(&format!("{r}.{field} = {v};"));
                }
            }
            Stmt::Expr(e) => {
                let s = self.expr(e);
                self.line(&format!("{s};"));
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.expr(cond);
                self.open(&format!("if ({c})"));
                for s in &then_blk.stmts {
                    self.stmt(s);
                }
                if let Some(eb) = else_blk {
                    self.indent -= 1;
                    self.line("} else {");
                    self.indent += 1;
                    for s in &eb.stmts {
                        self.stmt(s);
                    }
                }
                self.close();
            }
            Stmt::While { cond, body, .. } => {
                let c = self.expr(cond);
                self.open(&format!("while ({c})"));
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close();
            }
            Stmt::Return { value, .. } => match value {
                Some(v) => {
                    let e = self.expr(v);
                    self.line(&format!("return {e};"));
                }
                None => self.line("return;"),
            },
            Stmt::LocalRegion {
                region,
                handle,
                body,
                ..
            } => {
                self.line(&format!(
                    "final VTMemory {handle} = new VTMemory(); // region {region}"
                ));
                self.enter_region(region.name.as_str(), handle.name.as_str(), body);
            }
            Stmt::NewRegion {
                kind,
                policy,
                region,
                handle,
                body,
                ..
            } => {
                let kn = kind_name(kind);
                let ctor = match policy {
                    Policy::Lt { size } => format!("new {kn}Memory(/*LT*/ {size})"),
                    Policy::Vt => format!("new {kn}Memory()"),
                };
                self.line(&format!(
                    "final {kn}Memory {handle} = {ctor}; // region {region}"
                ));
                self.enter_region(region.name.as_str(), handle.name.as_str(), body);
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
                if *fresh {
                    self.line(&format!(
                        "{parent}.{sub} = {parent}.{sub}.recreate(); // [new] instance"
                    ));
                }
                self.line(&format!(
                    "final var {handle} = {parent}.{sub}; // subregion {region}"
                ));
                self.enter_region(region.name.as_str(), handle.name.as_str(), body);
            }
            Stmt::Fork { rt, call, .. } => {
                let c = self.expr(call);
                if *rt {
                    self.line(&format!(
                        "new NoHeapRealtimeThread(null, null, null, null, null, \
                         () -> {c}).start();"
                    ));
                } else {
                    self.line(&format!("new Thread(() -> {c}).start();"));
                }
            }
        }
    }

    fn enter_region(&mut self, region: &str, handle: &str, body: &Block) {
        self.open(&format!("{handle}.enter(() ->"));
        self.region_stack
            .push((region.to_string(), handle.to_string()));
        for s in &body.stmts {
            self.stmt(s);
        }
        self.region_stack.pop();
        self.indent -= 1;
        self.line(");");
        self.indent += 1;
        self.indent -= 1;
    }

    fn is_handle(&self, e: &Expr) -> bool {
        match e {
            Expr::Var(id) => self.region_stack.iter().any(|(_, h)| h == &id.name),
            _ => false,
        }
    }

    fn expr(&mut self, e: &Expr) -> String {
        match e {
            Expr::Int(n, _) => n.to_string(),
            Expr::Bool(b, _) => b.to_string(),
            Expr::Str(s, _) => format!("{s:?}"),
            Expr::Null(_) => "null".into(),
            Expr::This(_) => "this".into(),
            Expr::Var(id) => id.name.to_string(),
            Expr::Unary { op, expr, .. } => {
                let inner = self.expr(expr);
                match op {
                    UnOp::Neg => format!("-({inner})"),
                    UnOp::Not => format!("!({inner})"),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                format!("({l} {op} {r})")
            }
            Expr::Field { recv, field, .. } => {
                let r = self.expr(recv);
                if self.is_handle(recv) {
                    format!("{r}.portals().{field}")
                } else {
                    format!("{r}.{field}")
                }
            }
            Expr::Call {
                recv, method, args, ..
            } => {
                let r = self.expr(recv);
                let a: Vec<String> = args.iter().map(|x| self.expr(x)).collect();
                format!("{r}.{method}({})", a.join(", "))
            }
            Expr::New { class, .. } => self.lower_new(class),
            Expr::IntrinsicCall {
                intrinsic, args, ..
            } => {
                let a: Vec<String> = args.iter().map(|x| self.expr(x)).collect();
                match intrinsic {
                    Intrinsic::Print => format!("System.out.println({})", a.join(", ")),
                    Intrinsic::Io => format!("Platform.io({})", a.join(", ")),
                    Intrinsic::Workload => format!("Platform.workload({})", a.join(", ")),
                    Intrinsic::Yield => "Thread.yield()".into(),
                }
            }
        }
    }

    /// The translation of `new cn<o…>`: plain `new` when the target is the
    /// current allocation context, otherwise `newInstance` through the
    /// handle the type rules proved obtainable (`E ⊢ av RH(o₁)`).
    fn lower_new(&mut self, class: &ClassType) -> String {
        let cn = &class.name.name;
        let Some(first) = class.owners.first() else {
            return format!("new {cn}()");
        };
        let target = Owner::resolve(first, |n| {
            self.region_stack.iter().any(|(r, _)| n == r.as_str())
        });
        let current = self.region_stack.last().cloned();
        match (&target, current) {
            // Allocation in the current region: the fast path.
            (Owner::Region(r), Some((cur, _))) if *r == cur => format!("new {cn}()"),
            (Owner::Region(r), _) => {
                let handle = self
                    .region_stack
                    .iter()
                    .rev()
                    .find(|(name, _)| name == r)
                    .map(|(_, h)| h.clone())
                    .unwrap_or_else(|| r.to_string());
                let tmp = self.fresh("o");
                self.line(&format!(
                    "{cn} {tmp} = ({cn}) {handle}.newInstance({cn}.class);"
                ));
                tmp
            }
            (Owner::Heap, _) => format!("({cn}) HeapMemory.instance().newInstance({cn}.class)"),
            (Owner::Immortal, _) => {
                format!("({cn}) ImmortalMemory.instance().newInstance({cn}.class)")
            }
            (Owner::This, _) => {
                format!("({cn}) MemoryArea.getMemoryArea(this).newInstance({cn}.class)")
            }
            (Owner::InitialRegion, _) => {
                format!("({cn}) RealtimeThread.getCurrentMemoryArea().newInstance({cn}.class)")
            }
            (Owner::Formal(f), _) => {
                format!("({cn}) {f}$area.newInstance({cn}.class) /* via owner parameter {f} */")
            }
            (Owner::Rt, _) => format!("new {cn}() /* unreachable */"),
        }
    }
}

fn owner_name(o: &OwnerRef) -> String {
    match o {
        OwnerRef::Name(id) => id.name.to_string(),
        other => format!("{other}"),
    }
}

fn kind_name(k: &KindAnn) -> String {
    match k {
        KindAnn::Named { name, .. } => name.name.to_string(),
        KindAnn::SharedRegion(_) => "Shared".into(),
        KindAnn::Lt(inner, _) => kind_name(inner),
        other => format!("{other:?}"),
    }
}

/// Type erasure: owner arguments disappear; handles become memory areas.
fn erase_type(t: &Type) -> String {
    match t {
        Type::Int(_) => "int".into(),
        Type::Bool(_) => "boolean".into(),
        Type::Void(_) => "void".into(),
        Type::Class(ct) => ct.name.name.to_string(),
        Type::Handle(r, _) => {
            let mut s = String::new();
            let _ = write!(s, "MemoryArea /* handle of {} */", owner_name(r));
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_program;
    use rtj_lang::parse_program;

    fn lower(src: &str) -> String {
        let checked = check_program(&parse_program(src).unwrap()).unwrap();
        lower_to_rtsj(&checked)
    }

    #[test]
    fn erases_owners_and_enters_regions() {
        let java = lower(
            r#"
            class Cell<Owner o> { int v; Cell<o> next; }
            {
                (RHandle<r> h) {
                    let Cell<r> c = new Cell<r>;
                    c.v = 1;
                }
            }
            "#,
        );
        assert!(java.contains("class Cell"), "{java}");
        assert!(!java.contains("Owner"), "owners must be erased:\n{java}");
        assert!(java.contains("new VTMemory()"), "{java}");
        assert!(java.contains("h.enter(() ->"), "{java}");
        // Allocation in the current region uses plain `new`.
        assert!(java.contains("new Cell()"), "{java}");
        assert!(java.contains("checks: none required"), "{java}");
    }

    #[test]
    fn cross_region_allocation_uses_new_instance() {
        let java = lower(
            r#"
            class Cell<Owner o> { int v; }
            {
                (RHandle<outer> ho) {
                    (RHandle<inner> hi) {
                        let Cell<outer> c = new Cell<outer>;
                        let Cell<heap> d = new Cell<heap>;
                        let Cell<immortal> e = new Cell<immortal>;
                    }
                }
            }
            "#,
        );
        assert!(java.contains("ho.newInstance(Cell.class)"), "{java}");
        assert!(
            java.contains("HeapMemory.instance().newInstance(Cell.class)"),
            "{java}"
        );
        assert!(
            java.contains("ImmortalMemory.instance().newInstance(Cell.class)"),
            "{java}"
        );
    }

    #[test]
    fn this_owned_allocation_uses_get_memory_area() {
        let java = lower(
            r#"
            class Stack<Owner o> {
                Node<this> top;
                void push() {
                    let n = new Node<this>;
                    this.top = n;
                }
            }
            class Node<Owner o> { int v; }
            { }
            "#,
        );
        assert!(
            java.contains("MemoryArea.getMemoryArea(this).newInstance(Node.class)"),
            "{java}"
        );
    }

    #[test]
    fn region_kinds_produce_figure10_shape() {
        let java = lower(
            r#"
            regionKind Buf extends SharedRegion {
                subregion Sub : LT(4096) NoRT b;
            }
            regionKind Sub extends SharedRegion {
                Frame<this> f;
            }
            class Frame<Owner o> { int data; }
            {
                (RHandle<Buf : VT r> h) {
                    (RHandle<Sub r2> h2 = h.b) {
                        h2.f = null;
                    }
                }
            }
            "#,
        );
        assert!(java.contains("class BufMemory extends VTMemory"), "{java}");
        assert!(
            java.contains("SubMemory b = new SubMemory(/*LT*/ 4096)"),
            "{java}"
        );
        assert!(java.contains("static final class Portals"), "{java}");
        assert!(
            java.contains("h.b"),
            "subregion entry goes through w1: {java}"
        );
        assert!(
            java.contains("portals().f"),
            "portal writes go through w2: {java}"
        );
    }

    #[test]
    fn forks_lower_to_threads() {
        let java = lower(
            r#"
            class W<Owner r> { void run() accesses r { } }
            {
                (RHandle<SharedRegion : LT(1024) r> h) {
                    fork (new W<r>).run();
                    RT fork (new W<r>).run();
                }
            }
            "#,
        );
        assert!(java.contains("new Thread(() ->"), "{java}");
        assert!(java.contains("new NoHeapRealtimeThread("), "{java}");
    }
}
