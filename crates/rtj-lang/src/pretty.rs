//! Pretty-printer producing parseable surface syntax.
//!
//! `parse_program(pretty(p))` yields an AST equal (modulo spans) to `p`;
//! this is exercised by round-trip tests and used by the CLI's `fmt`
//! subcommand and by the annotation-metrics tooling.
//!
//! A string literal is written with the four escapes the lexer reads
//! (`\\`, `\"`, `\n`, `\t`) and every other character raw: a carriage
//! return, a control character, a combining mark or an astral character
//! prints as itself.
//!
//! A compound operand is parenthesised, except the operand of a unary
//! operator that is itself unary (`--x`). A left-associative chain or a
//! run of unary operators therefore prints at the nesting depth it parsed
//! at. Parentheses the source did not have, as in `a + (-b)`, add a
//! level each, so such a program close to the parser's
//! [`MAX_NESTING`](crate::parser::MAX_NESTING) can print past it.

use crate::ast::*;
use std::fmt::Write as _;

/// Pretty-prints a whole program.
pub fn pretty_program(p: &Program) -> String {
    let mut pr = Printer::new();
    for rk in &p.region_kinds {
        pr.region_kind(rk);
        pr.blank();
    }
    for c in &p.classes {
        pr.class(c);
        pr.blank();
    }
    pr.block(&p.main);
    pr.out.push('\n');
    pr.out
}

/// Pretty-prints a single expression.
pub fn pretty_expr(e: &Expr) -> String {
    let mut pr = Printer::new();
    pr.expr(e);
    pr.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

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

    fn blank(&mut self) {
        self.out.push('\n');
    }

    fn region_kind(&mut self, rk: &RegionKindDecl) {
        let mut head = format!("regionKind {}", rk.name);
        if !rk.formals.is_empty() {
            let _ = write!(head, "<{}>", self.formals(&rk.formals));
        }
        if let Some(ext) = &rk.extends {
            let _ = write!(head, " extends {}", kind_str(ext));
        }
        if !rk.where_clauses.is_empty() {
            let _ = write!(head, " where {}", constraints_str(&rk.where_clauses));
        }
        self.open(&head);
        for f in &rk.portals {
            self.line(&format!("{} {};", type_str(&f.ty), f.name));
        }
        for s in &rk.subregions {
            self.line(&format!(
                "subregion {} : {} {} {};",
                kind_str(&s.kind),
                s.policy,
                s.thread,
                s.name
            ));
        }
        self.close();
    }

    fn class(&mut self, c: &ClassDecl) {
        let mut head = format!("class {}", c.name);
        if !c.formals.is_empty() {
            let _ = write!(head, "<{}>", self.formals(&c.formals));
        }
        if let Some(ext) = &c.extends {
            let _ = write!(head, " extends {}", class_type_str(ext));
        }
        if !c.where_clauses.is_empty() {
            let _ = write!(head, " where {}", constraints_str(&c.where_clauses));
        }
        self.open(&head);
        for f in &c.fields {
            self.line(&format!("{} {};", type_str(&f.ty), f.name));
        }
        for m in &c.methods {
            self.method(m);
        }
        self.close();
    }

    fn method(&mut self, m: &MethodDecl) {
        let mut head = format!("{} {}", type_str(&m.ret), m.name);
        if !m.formals.is_empty() {
            let _ = write!(head, "<{}>", self.formals(&m.formals));
        }
        let params: Vec<String> = m
            .params
            .iter()
            .map(|p| format!("{} {}", type_str(&p.ty), p.name))
            .collect();
        let _ = write!(head, "({})", params.join(", "));
        if let Some(fx) = &m.effects {
            let owners: Vec<String> = fx.iter().map(|o| o.to_string()).collect();
            let _ = write!(head, " accesses {}", owners.join(", "));
        }
        if !m.where_clauses.is_empty() {
            let _ = write!(head, " where {}", constraints_str(&m.where_clauses));
        }
        self.open(&head);
        for s in &m.body.stmts {
            self.stmt(s);
        }
        self.close();
    }

    fn formals(&self, formals: &[FormalOwner]) -> String {
        formals
            .iter()
            .map(|f| format!("{} {}", kind_str(&f.kind), f.name))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn block(&mut self, b: &Block) {
        self.open("");
        for s in &b.stmts {
            self.stmt(s);
        }
        self.close();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { ty, name, init, .. } => {
                let tystr = ty
                    .as_ref()
                    .map(|t| format!("{} ", type_str(t)))
                    .unwrap_or_default();
                self.line(&format!("let {tystr}{name} = {};", expr_str(init)));
            }
            Stmt::AssignLocal { name, value, .. } => {
                self.line(&format!("{name} = {};", expr_str(value)));
            }
            Stmt::AssignField {
                recv, field, value, ..
            } => {
                self.line(&format!(
                    "{}.{field} = {};",
                    sub_expr_str(recv),
                    expr_str(value)
                ));
            }
            Stmt::Expr(e) => self.line(&format!("{};", expr_str(e))),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.open(&format!("if ({})", expr_str(cond)));
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
                self.open(&format!("while ({})", expr_str(cond)));
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close();
            }
            Stmt::Return { value, .. } => match value {
                Some(v) => self.line(&format!("return {};", expr_str(v))),
                None => self.line("return;"),
            },
            Stmt::LocalRegion {
                region,
                handle,
                body,
                ..
            } => {
                self.open(&format!("(RHandle<{region}> {handle})"));
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close();
            }
            Stmt::NewRegion {
                kind,
                policy,
                region,
                handle,
                body,
                ..
            } => {
                self.open(&format!(
                    "(RHandle<{} : {} {region}> {handle})",
                    kind_str(kind),
                    policy
                ));
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close();
            }
            Stmt::EnterSubregion {
                kind,
                region,
                handle,
                fresh,
                parent,
                sub,
                body,
                ..
            } => {
                let newkw = if *fresh { "new " } else { "" };
                self.open(&format!(
                    "(RHandle<{} {region}> {handle} = {newkw}{parent}.{sub})",
                    kind_str(kind)
                ));
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close();
            }
            Stmt::Fork { rt, call, .. } => {
                let kw = if *rt { "RT fork" } else { "fork" };
                self.line(&format!("{kw} {};", expr_str(call)));
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        let s = expr_str(e);
        self.out.push_str(&s);
    }
}

fn kind_str(k: &KindAnn) -> String {
    match k {
        KindAnn::Owner(_) => "Owner".into(),
        KindAnn::ObjOwner(_) => "ObjOwner".into(),
        KindAnn::Region(_) => "Region".into(),
        KindAnn::GcRegion(_) => "GCRegion".into(),
        KindAnn::NoGcRegion(_) => "NoGCRegion".into(),
        KindAnn::LocalRegion(_) => "LocalRegion".into(),
        KindAnn::SharedRegion(_) => "SharedRegion".into(),
        KindAnn::Named { name, owners } => {
            if owners.is_empty() {
                name.to_string()
            } else {
                let os: Vec<String> = owners.iter().map(|o| o.to_string()).collect();
                format!("{}<{}>", name, os.join(", "))
            }
        }
        KindAnn::Lt(inner, _) => format!("{} : LT", kind_str(inner)),
    }
}

fn class_type_str(ct: &ClassType) -> String {
    if ct.owners.is_empty() {
        ct.name.to_string()
    } else {
        let os: Vec<String> = ct.owners.iter().map(|o| o.to_string()).collect();
        format!("{}<{}>", ct.name, os.join(", "))
    }
}

fn type_str(t: &Type) -> String {
    match t {
        Type::Int(_) => "int".into(),
        Type::Bool(_) => "bool".into(),
        Type::Void(_) => "void".into(),
        Type::Class(ct) => class_type_str(ct),
        Type::Handle(r, _) => format!("RHandle<{r}>"),
    }
}

fn constraints_str(cs: &[Constraint]) -> String {
    cs.iter()
        .map(|c| format!("{} {} {}", c.lhs, c.rel, c.rhs))
        .collect::<Vec<_>>()
        .join(", ")
}

fn expr_str(e: &Expr) -> String {
    match e {
        Expr::Int(n, _) => n.to_string(),
        Expr::Bool(b, _) => b.to_string(),
        Expr::Str(s, _) => string_literal(s),
        Expr::Null(_) => "null".into(),
        Expr::This(_) => "this".into(),
        Expr::Var(id) => id.name.to_string(),
        Expr::Unary { op, expr, .. } => {
            let o = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            match **expr {
                Expr::Unary { .. } => format!("{o}{}", expr_str(expr)),
                _ => format!("{o}{}", sub_expr_str(expr)),
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            format!("{} {op} {}", sub_expr_str(lhs), sub_expr_str(rhs))
        }
        Expr::Field { recv, field, .. } => format!("{}.{field}", sub_expr_str(recv)),
        Expr::Call {
            recv,
            method,
            owner_args,
            args,
            ..
        } => {
            let oa = if owner_args.is_empty() {
                String::new()
            } else {
                let os: Vec<String> = owner_args.iter().map(|o| o.to_string()).collect();
                format!("<{}>", os.join(", "))
            };
            let a: Vec<String> = args.iter().map(expr_str).collect();
            format!("{}.{method}{oa}({})", sub_expr_str(recv), a.join(", "))
        }
        Expr::New { class, .. } => format!("new {}", class_type_str(class)),
        Expr::IntrinsicCall {
            intrinsic, args, ..
        } => {
            let a: Vec<String> = args.iter().map(expr_str).collect();
            format!("{}({})", intrinsic.name(), a.join(", "))
        }
    }
}

/// `s` as a literal the lexer reads back as `s`.
fn string_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Like [`expr_str`] but parenthesizes compound sub-expressions so that the
/// output re-parses with the same structure regardless of precedence.
fn sub_expr_str(e: &Expr) -> String {
    match e {
        Expr::Binary { .. } | Expr::Unary { .. } => format!("({})", expr_str(e)),
        Expr::New { .. } => format!("({})", expr_str(e)),
        _ => expr_str(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    /// Strips spans by comparing pretty forms after a round-trip.
    fn roundtrip_program(src: &str) {
        let p1 = parse_program(src).unwrap();
        let printed = pretty_program(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert_eq!(pretty_program(&p2), printed, "pretty-print not a fixpoint");
    }

    #[test]
    fn roundtrip_tstack() {
        roundtrip_program(
            r#"
            class TStack<Owner stackOwner, Owner TOwner> {
                TNode<this, TOwner> head;
                void push(T<TOwner> value) accesses this, TOwner {
                    let TNode<this, TOwner> newNode = new TNode<this, TOwner>;
                    newNode.init(value, this.head);
                    this.head = newNode;
                }
            }
            {
                (RHandle<r1> h1) {
                    let TStack<r1, immortal> s = new TStack<r1, immortal>;
                }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_region_kinds() {
        roundtrip_program(
            r#"
            regionKind BufferRegion extends SharedRegion {
                subregion BufferSubRegion : LT(4096) NoRT b;
            }
            regionKind BufferSubRegion extends SharedRegion {
                Frame<this> f;
            }
            class Frame<Owner o> { int data; }
            {
                (RHandle<BufferRegion : VT r> h) {
                    (RHandle<BufferSubRegion r2> h2 = new h.b) {
                        h2.f = new Frame<r2>;
                    }
                }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_control_flow_and_ops() {
        roundtrip_program(
            r#"
            {
                let x = 1 + 2 * 3;
                let b = x < 4 && !(x == 5) || x != 6;
                if (b) { x = x - 1; } else { x = -x; }
                while (x > 0) { x = x / 2; workload(10); }
                print("done");
            }
            "#,
        );
    }

    #[test]
    fn string_literals_print_as_the_lexer_reads_them() {
        // Raw bytes: a combining mark, a carriage return, an escape.
        let src = "{ print(\"cafe\u{301}\"); print(\"a\rb\"); print(\"\u{1b}[1m\"); }";
        let printed = pretty_program(&parse_program(src).unwrap());
        assert!(printed.contains("print(\"cafe\u{301}\");"), "{printed}");
        assert!(printed.contains("print(\"a\rb\");"), "{printed}");
        assert!(printed.contains("print(\"\u{1b}[1m\");"), "{printed}");
        roundtrip_program(src);
        roundtrip_program("{ print(\"q\\\" b\\\\ n\\n t\\t \u{1d11e}\"); }");
    }

    #[test]
    fn unary_runs_print_without_parentheses() {
        let e = parse_expr("- -!!x").unwrap();
        assert_eq!(pretty_expr(&e), "--!!x");
        let e2 = parse_expr(&pretty_expr(&e)).unwrap();
        assert_eq!(pretty_expr(&e2), "--!!x");
        assert_eq!(pretty_expr(&parse_expr("-(a + b)").unwrap()), "-(a + b)");
    }

    #[test]
    fn expr_precedence_preserved() {
        let e1 = parse_expr("(1 + 2) * 3").unwrap();
        let printed = pretty_expr(&e1);
        let e2 = parse_expr(&printed).unwrap();
        assert_eq!(pretty_expr(&e2), printed);
        // The structure must be Mul at the top.
        assert!(matches!(e2, Expr::Binary { op: BinOp::Mul, .. }));
    }
}
