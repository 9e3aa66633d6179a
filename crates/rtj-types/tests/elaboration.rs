//! The checker's elaboration contract: on success, the returned program
//! has every `let` annotated, every `new` carrying explicit owners, and
//! every call to an owner-parameterized method carrying explicit owner
//! arguments — the invariants the interpreter relies on.

use rtj_lang::ast::{Block, Expr, Program, Stmt};
use rtj_lang::parse_program;
use rtj_types::{check_program, ProgramTable};

fn walk_block(b: &Block, f: &mut impl FnMut(&Stmt), g: &mut impl FnMut(&Expr)) {
    for s in &b.stmts {
        walk_stmt(s, f, g);
    }
}

fn walk_stmt(s: &Stmt, f: &mut impl FnMut(&Stmt), g: &mut impl FnMut(&Expr)) {
    f(s);
    match s {
        Stmt::Let { init, .. } => walk_expr(init, g),
        Stmt::AssignLocal { value, .. } => walk_expr(value, g),
        Stmt::AssignField { recv, value, .. } => {
            walk_expr(recv, g);
            walk_expr(value, g);
        }
        Stmt::Expr(e) => walk_expr(e, g),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            walk_expr(cond, g);
            walk_block(then_blk, f, g);
            if let Some(eb) = else_blk {
                walk_block(eb, f, g);
            }
        }
        Stmt::While { cond, body, .. } => {
            walk_expr(cond, g);
            walk_block(body, f, g);
        }
        Stmt::Return { value: Some(v), .. } => walk_expr(v, g),
        Stmt::Return { value: None, .. } => {}
        Stmt::LocalRegion { body, .. }
        | Stmt::NewRegion { body, .. }
        | Stmt::EnterSubregion { body, .. } => walk_block(body, f, g),
        Stmt::Fork { call, .. } => walk_expr(call, g),
    }
}

fn walk_expr(e: &Expr, g: &mut impl FnMut(&Expr)) {
    g(e);
    match e {
        Expr::Unary { expr, .. } => walk_expr(expr, g),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, g);
            walk_expr(rhs, g);
        }
        Expr::Field { recv, .. } => walk_expr(recv, g),
        Expr::Call { recv, args, .. } => {
            walk_expr(recv, g);
            for a in args {
                walk_expr(a, g);
            }
        }
        Expr::IntrinsicCall { args, .. } => {
            for a in args {
                walk_expr(a, g);
            }
        }
        _ => {}
    }
}

fn assert_fully_elaborated(p: &Program, table: &ProgramTable) {
    let mut check_stmt = |s: &Stmt| {
        if let Stmt::Let { ty, name, .. } = s {
            assert!(ty.is_some(), "let `{name}` left unannotated");
        }
    };
    let mut check_expr = |e: &Expr| match e {
        Expr::New { class, .. } => {
            let expected = if class.name.name == "Object" {
                1
            } else {
                table
                    .class(class.name.name)
                    .map(|i| i.formal_names.len())
                    .unwrap_or(0)
            };
            assert_eq!(
                class.owners.len(),
                expected,
                "new {} not fully elaborated",
                class.name
            );
        }
        Expr::Call {
            method, owner_args, ..
        } => {
            // Any method with formals must carry explicit owner args after
            // checking. We cannot resolve the receiver statically here, so
            // check the weaker global property: no method named like this
            // anywhere takes more formals than this call supplies.
            let max_formals = table
                .classes()
                .flat_map(|c| c.decl.methods.iter())
                .filter(|m| m.name.name == method.name)
                .map(|m| m.formals.len())
                .max()
                .unwrap_or(0);
            if max_formals > 0 {
                assert_eq!(
                    owner_args.len(),
                    max_formals,
                    "call to `{method}` missing inferred owner args"
                );
            }
        }
        _ => {}
    };
    walk_block(&p.main, &mut check_stmt, &mut check_expr);
    for body in p.classes.iter().flat_map(|c| &c.bodies) {
        walk_block(body, &mut check_stmt, &mut check_expr);
    }
}

#[test]
fn inference_results_are_written_back() {
    let src = r#"
        class D<Owner a> { int v; }
        class C<Owner o> {
            int take<Owner q>(D<q> x, D<q> y) { return x.v + y.v; }
        }
        {
            (RHandle<r> h) {
                let c = new C<r>;
                let a = new D<r>;
                let b = new D<r>;
                let z = c.take(a, b);
                let w = new D;
                print(z);
            }
        }
    "#;
    let checked = check_program(&parse_program(src).unwrap()).unwrap();
    assert_fully_elaborated(&checked.program, &checked.table);
}

#[test]
fn corpus_is_fully_elaborated() {
    for bench in rtj_corpus_sources() {
        let checked = check_program(&parse_program(&bench).unwrap()).unwrap();
        assert_fully_elaborated(&checked.program, &checked.table);
    }
}

/// A few representative corpus-like programs (we avoid a dev-dependency
/// cycle on rtj-corpus by inlining small ones).
fn rtj_corpus_sources() -> Vec<String> {
    vec![
        r#"
        class TStack<Owner stackOwner, Owner TOwner> {
            TNode<this, TOwner> head;
            void push(T<TOwner> value) {
                let n = new TNode<this, TOwner>;
                n.value = value;
                n.next = this.head;
                this.head = n;
            }
        }
        class TNode<Owner nodeOwner, Owner TOwner> {
            T<TOwner> value;
            TNode<nodeOwner, TOwner> next;
        }
        class T<Owner o> { int x; }
        {
            (RHandle<r1> h1) {
                (RHandle<r2> h2) {
                    let s = new TStack<r2, r1>;
                    let t = new T<r1>;
                    s.push(t);
                }
            }
        }
        "#
        .to_string(),
        r#"
        class Cell<Owner o> { int v; Cell<o> next; }
        {
            (RHandle<r> h) {
                let Cell<r> head = null;
                let i = 0;
                while (i < 4) {
                    let c = new Cell<r>;
                    c.next = head;
                    head = c;
                    i = i + 1;
                }
            }
        }
        "#
        .to_string(),
    ]
}
