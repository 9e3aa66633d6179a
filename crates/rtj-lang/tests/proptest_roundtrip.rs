//! Property: pretty-printing is a fixpoint under re-parsing.
//!
//! For any generated expression or program `p`:
//! `pretty(parse(pretty(p))) == pretty(p)`. This catches precedence bugs,
//! missing parentheses, and any surface form the printer can emit but the
//! parser cannot read, such as a string literal with an escape the lexer
//! does not know.

use proptest::prelude::*;
use rtj_lang::ast::*;
use rtj_lang::intern::Symbol;
use rtj_lang::parser::{parse_expr, parse_program};
use rtj_lang::pretty::{pretty_expr, pretty_program};
use rtj_lang::span::Span;

fn ident(name: String) -> Ident {
    Ident::synthetic(name)
}

fn var_name() -> impl Strategy<Value = String> {
    // Avoid keywords and intrinsic names.
    "[a-z][a-z0-9]{0,4}".prop_filter("keyword-free", |s| {
        rtj_lang::token::TokenKind::keyword(s).is_none() && Intrinsic::from_name(s).is_none()
    })
}

fn owner_ref() -> impl Strategy<Value = OwnerRef> {
    prop_oneof![
        var_name().prop_map(|n| OwnerRef::Name(ident(n))),
        Just(OwnerRef::This(Span::DUMMY)),
        Just(OwnerRef::Heap(Span::DUMMY)),
        Just(OwnerRef::Immortal(Span::DUMMY)),
        Just(OwnerRef::InitialRegion(Span::DUMMY)),
    ]
}

/// String-literal contents: any characters, weighted towards those the
/// printer must escape or must write raw for the lexer to read them back.
fn literal_text() -> impl Strategy<Value = String> {
    let tricky = prop_oneof![
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\t'),
        Just('\r'),
        Just('\u{0}'),
        Just('\u{1b}'),
        Just('\u{7f}'),
        Just('\u{301}'),   // combining acute accent
        Just('\u{1d11e}'), // astral: musical symbol G clef
    ];
    let any_char = (0u32..0x11_0000).prop_filter_map("a scalar value", char::from_u32);
    prop::collection::vec(prop_oneof![tricky, any_char, Just('a')], 0..8)
        .prop_map(|chars| chars.into_iter().collect())
}

fn expr_strategy() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0i64..1000).prop_map(|n| Expr::Int(n, Span::DUMMY)),
        literal_text().prop_map(|s| Expr::Str(Symbol::intern(&s), Span::DUMMY)),
        any::<bool>().prop_map(|b| Expr::Bool(b, Span::DUMMY)),
        Just(Expr::Null(Span::DUMMY)),
        Just(Expr::This(Span::DUMMY)),
        var_name().prop_map(|n| Expr::Var(ident(n))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        let bin_op = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Lt),
            Just(BinOp::Eq),
            Just(BinOp::And),
            Just(BinOp::Or),
        ];
        prop_oneof![
            (bin_op, inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::Binary {
                op,
                lhs: Box::new(l),
                rhs: Box::new(r),
                span: Span::DUMMY,
            }),
            (inner.clone(), var_name()).prop_map(|(e, f)| Expr::Field {
                recv: Box::new(e),
                field: ident(f),
                span: Span::DUMMY,
            }),
            (
                inner.clone(),
                var_name(),
                prop::collection::vec(owner_ref(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(recv, m, owner_args, args)| Expr::Call {
                    recv: Box::new(recv),
                    method: ident(m),
                    owner_args,
                    args,
                    span: Span::DUMMY,
                }),
            (var_name(), prop::collection::vec(owner_ref(), 1..3)).prop_map(|(c, owners)| {
                Expr::New {
                    class: ClassType {
                        name: Ident::synthetic({
                            let mut s = c;
                            if let Some(f) = s.get_mut(0..1) {
                                f.make_ascii_uppercase();
                            }
                            s
                        }),
                        owners,
                        span: Span::DUMMY,
                    },
                    span: Span::DUMMY,
                }
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
                span: Span::DUMMY,
            }),
        ]
    })
    .boxed()
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let e = expr_strategy();
    prop_oneof![
        (var_name(), e.clone()).prop_map(|(n, init)| Stmt::Let {
            ty: None,
            name: ident(n),
            init,
            span: Span::DUMMY,
        }),
        (var_name(), e.clone()).prop_map(|(n, value)| Stmt::AssignLocal {
            name: ident(n),
            value,
            span: Span::DUMMY,
        }),
        (e.clone(), var_name(), e.clone()).prop_map(|(recv, f, value)| Stmt::AssignField {
            recv,
            field: ident(f),
            value,
            span: Span::DUMMY,
        }),
        e.clone().prop_map(Stmt::Expr),
        (
            e.clone(),
            prop::collection::vec(e.clone().prop_map(Stmt::Expr), 0..3)
        )
            .prop_map(|(cond, stmts)| Stmt::While {
                cond,
                body: Block {
                    stmts,
                    span: Span::DUMMY,
                },
                span: Span::DUMMY,
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expr_pretty_parse_fixpoint(e in expr_strategy()) {
        let printed = pretty_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("printed form unparseable: {err}\n{printed}"));
        prop_assert_eq!(pretty_expr(&reparsed), printed);
    }

    #[test]
    fn program_pretty_parse_fixpoint(stmts in prop::collection::vec(stmt_strategy(), 0..6)) {
        assert_main_fixpoint(stmts);
    }
}

/// `pretty(parse(pretty(p))) == pretty(p)` for the program whose main
/// block is `stmts`.
fn assert_main_fixpoint(stmts: Vec<Stmt>) {
    let p = Program {
        classes: vec![],
        region_kinds: vec![],
        main: Block {
            stmts,
            span: Span::DUMMY,
        },
    };
    let printed = pretty_program(&p);
    let reparsed = parse_program(&printed)
        .unwrap_or_else(|err| panic!("printed form unparseable: {err}\n{printed}"));
    assert_eq!(pretty_program(&reparsed), printed);
}

/// A statement an earlier run of the property shrank a failure to:
/// `(0 + 0).a = 0;`, a field write whose receiver needs parentheses.
#[test]
fn a_field_write_through_a_sum_round_trips() {
    let zero = || Expr::Int(0, Span::DUMMY);
    assert_main_fixpoint(vec![Stmt::AssignField {
        recv: Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(zero()),
            rhs: Box::new(zero()),
            span: Span::DUMMY,
        },
        field: ident("a".to_string()),
        value: zero(),
        span: Span::DUMMY,
    }]);
}
