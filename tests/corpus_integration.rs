//! Every corpus benchmark typechecks and runs identically in all three
//! check modes, never fails a check in audit mode (Theorems 3 and 4), and
//! is never faster with checks than without. The Figure 11 and Figure 12
//! documents match their checked-in goldens byte for byte.

use rtjava::corpus::{all, fig11, fig11_json, fig12, fig12_json, Scale};
use rtjava::interp::{build, run_checked, RunConfig};
use rtjava::runtime::{CheckKind, CheckMode};

#[test]
fn corpus_smoke_all_modes_agree() {
    for bench in all(Scale::Smoke) {
        let checked = build(&bench.source).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let dynamic = run_checked(&checked, RunConfig::new(CheckMode::Dynamic));
        let static_ = run_checked(&checked, RunConfig::new(CheckMode::Static));
        let audit = run_checked(&checked, RunConfig::new(CheckMode::Audit));
        for (mode, out) in [
            ("dynamic", &dynamic),
            ("static", &static_),
            ("audit", &audit),
        ] {
            assert!(
                out.error.is_none(),
                "{} ({mode}): {:?}",
                bench.name,
                out.error
            );
            assert!(!out.trace.is_empty(), "{} printed nothing", bench.name);
        }
        assert_eq!(dynamic.trace, static_.trace, "{}", bench.name);
        assert_eq!(dynamic.trace, audit.trace, "{}", bench.name);
        // Audit performs the same checks as dynamic, for free.
        assert_eq!(
            audit.metrics.check(CheckKind::Assignment).performed,
            dynamic.metrics.check(CheckKind::Assignment).performed,
            "{}",
            bench.name
        );
        assert_eq!(audit.metrics.check_cycles(), 0, "{}", bench.name);
        assert!(
            dynamic.cycles >= static_.cycles,
            "{}: dynamic {} < static {}",
            bench.name,
            dynamic.cycles,
            static_.cycles
        );
    }
}

#[test]
fn corpus_never_uses_the_gc_heap_for_primary_data() {
    // "In our implementations, the primary data structures are allocated
    // in regions (i.e., not in the garbage collected heap)." — except the
    // phone server's immortal database, which is also not GC'd.
    for bench in all(Scale::Smoke) {
        let checked = build(&bench.source).unwrap();
        let out = run_checked(&checked, RunConfig::new(CheckMode::Dynamic));
        assert_eq!(
            out.metrics.gc_collections, 0,
            "{}: the GC should never run",
            bench.name
        );
    }
}

#[test]
fn annotations_are_a_small_fraction() {
    // Figure 11's qualitative claim: little programming overhead.
    for row in fig11() {
        let frac = row.annotated as f64 / row.loc as f64;
        assert!(
            frac < 0.40,
            "{}: {} of {} lines annotated ({frac:.2})",
            row.name,
            row.annotated,
            row.loc
        );
    }
}

#[test]
fn micro_benchmarks_have_the_largest_overheads() {
    let rows = fig12(Scale::Smoke);
    let overhead = |n: &str| rows.iter().find(|r| r.name == n).unwrap().overhead;
    let micro_min = overhead("Array").min(overhead("Tree"));
    for other in ["Water", "Barnes", "ImageRec", "http", "game", "phone"] {
        assert!(
            micro_min > overhead(other),
            "micro {} ≤ {} {}",
            micro_min,
            other,
            overhead(other)
        );
    }
}

/// Asserts `actual` equals the golden file `tests/golden/{name}`,
/// showing where the two first differ.
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    if golden != actual {
        let at = golden
            .bytes()
            .zip(actual.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        let near = |s: &str| {
            String::from_utf8_lossy(&s.as_bytes()[at..(at + 60).min(s.len())]).into_owned()
        };
        panic!(
            "{name} differs at byte {at}: golden `{}`, got `{}`",
            near(&golden),
            near(actual)
        );
    }
}

/// `rtjc fig11 --format json` and `rtjc fig12 --smoke --format json`
/// are deterministic; regenerate the goldens with those commands when a
/// change to the figures is intended.
#[test]
fn figure_documents_match_their_goldens() {
    assert_golden("fig11.json", &format!("{}\n", fig11_json(&fig11())));
    assert_golden(
        "fig12_smoke.json",
        &format!("{}\n", fig12_json(&fig12(Scale::Smoke))),
    );
}

/// The `{:?}` rendering of a class with each method's body inside its
/// header, after its `where` clauses: one rendering of the tree, however
/// the AST stores headers and bodies, so the pinned digests keep
/// describing the same tree.
fn class_tree(c: &rtjava::lang::ast::Class) -> String {
    let d = &c.decl;
    let methods: Vec<String> = c
        .methods()
        .map(|(m, body)| {
            format!(
                "MethodDecl {{ ret: {:?}, name: {:?}, formals: {:?}, params: {:?}, \
                 effects: {:?}, where_clauses: {:?}, body: {body:?}, span: {:?} }}",
                m.ret, m.name, m.formals, m.params, m.effects, m.where_clauses, m.span
            )
        })
        .collect();
    format!(
        "ClassDecl {{ name: {:?}, formals: {:?}, extends: {:?}, where_clauses: {:?}, \
         fields: {:?}, methods: [{}], span: {:?} }}",
        d.name,
        d.formals,
        d.extends,
        d.where_clauses,
        d.fields,
        methods.join(", "),
        d.span
    )
}

/// [`class_tree`]'s rendering of a whole program.
fn program_tree(p: &rtjava::lang::Program) -> String {
    let classes: Vec<String> = p.classes.iter().map(class_tree).collect();
    format!(
        "Program {{ classes: [{}], region_kinds: {:?}, main: {:?} }}",
        classes.join(", "),
        p.region_kinds,
        p.main
    )
}

/// Digest of what the front end makes of one input: the AST's rendering
/// (spans included; see [`class_tree`]) or the error's message and span,
/// and the token stream, one `kind span` line per token.
fn front_end_digests(
    parsed: Result<String, rtjava::lang::ParseError>,
    tokens: Result<Vec<rtjava::lang::token::Token>, rtjava::lang::lexer::LexError>,
) -> (u64, u64) {
    use rtjava::lang::Fnv64;
    let mut ast = Fnv64::new();
    match parsed {
        Ok(tree) => ast.write_str(&tree),
        Err(e) => ast.write_str(&format!("error {} {:?}", e.message, e.span)),
    }
    let mut toks = Fnv64::new();
    match tokens {
        Ok(tokens) => {
            for t in tokens {
                toks.write_str(&format!("{} {:?}\n", t.kind, t.span));
            }
        }
        Err(e) => toks.write_str(&format!("error {} {:?}", e.message, e.span)),
    }
    (ast.finish(), toks.finish())
}

/// The lexer's tokens and the parser's AST are pinned for the smoke
/// corpus, a scaled program and every class an edit script substitutes,
/// so a front-end change that claims to keep its output must reproduce
/// these digests exactly.
#[test]
fn front_end_output_is_pinned() {
    use rtjava::corpus::{edit_batches, scaled_classes};
    use rtjava::lang::lexer::lex;
    use rtjava::lang::{parse_class_at, parse_program};
    let mut got = Vec::new();
    for bench in all(Scale::Smoke) {
        let src = &bench.source;
        let d = front_end_digests(parse_program(src).map(|p| program_tree(&p)), lex(src));
        got.push((bench.name.to_string(), d));
    }
    let scaled = scaled_classes(8);
    let d = front_end_digests(
        parse_program(&scaled).map(|p| program_tree(&p)),
        lex(&scaled),
    );
    got.push(("scaled:8".to_string(), d));
    // The corpus prints no strings, and every program in it parses.
    for (name, src) in [
        (
            "literals",
            "{ print(\"plain\"); print(\"\\\" \\\\ \\n \\t\"); \
             print(\"caf\u{e9} cafe\u{301} \u{1d11e} a\rb \u{1b}[1m\"); }",
        ),
        ("parse error", "class A<Owner o> { int f; }\n{ let x = ; }"),
        ("lex error", "{ let s = \"unterminated; }"),
    ] {
        let d = front_end_digests(parse_program(src).map(|p| program_tree(&p)), lex(src));
        got.push((name.to_string(), d));
    }
    for batch in edit_batches(8, 16, 3).batches {
        let src = &batch.source;
        let d = front_end_digests(parse_class_at(src, 0).map(|c| class_tree(&c)), lex(src));
        got.push((format!("batch {} {}", batch.id, batch.kind), d));
    }
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, (a, t))| (n.as_str(), *a, *t)).collect();
    assert_eq!(got, PINNED_FRONT_END);
}

/// `(input, AST digest, token digest)` for every input of
/// [`front_end_output_is_pinned`].
const PINNED_FRONT_END: &[(&str, u64, u64)] = &[
    ("Array", 0xd78e48408f7ecaee, 0xd8d978030c0aec0a),
    ("Tree", 0x6ef8475dd88ace46, 0x124e57a2157adc85),
    ("Water", 0x40650a4202857fe7, 0xe4f6967c555a6167),
    ("Barnes", 0x13b4d6512304b880, 0xc043c4f989ed7a90),
    ("ImageRec", 0x03063d1087d97075, 0x0ffc4ad398b21e83),
    ("load", 0x8b501201eff5f02a, 0x3deb643537945b0c),
    ("cross", 0x7e56b138bcbadf67, 0xb294411b817f22e9),
    ("threshold", 0xee79d34a681869f9, 0x090aaf5a06d7c5d0),
    ("hysteresis", 0x1ebbfafc945722f6, 0xc2d2743cd65151af),
    ("thinning", 0x7f514ca2bd68b695, 0x71d9334db09f9b7f),
    ("save", 0xbf4ff76903e59866, 0x6db871227e22f7cb),
    ("http", 0xadaadc564a89aab8, 0x1d8fac7c359bc865),
    ("game", 0xf1a97f1f72495933, 0x8f3b127d7a224f06),
    ("phone", 0x24270f9694625687, 0xcd2e495c782b54b7),
    ("scaled:8", 0xac2cc38b8bb1bc39, 0xcdcdc20573fd5e5c),
    ("literals", 0x9f6c1f6d68c66741, 0xfd9513de90cd7ec4),
    ("parse error", 0x61f02279c1009a8a, 0x27ded3f8c469c291),
    ("lex error", 0x84f60b9c00c6f534, 0x84f60b9c00c6f534),
    ("batch 0 body", 0x3625520cac566f00, 0x7d78fee5730c8be8),
    ("batch 1 body", 0xae56739d39b87baa, 0xc547984b2eded244),
    ("batch 2 body", 0xb4f608c7133e51cd, 0x5161ae34d338aa75),
    ("batch 3 signature", 0x25ff2663f38c000b, 0xec977a63cfc6f6ea),
    ("batch 4 signature", 0x733fe19d817a25ac, 0x46f8bc97db383d47),
    ("batch 5 body", 0xbae9cf8325946fe5, 0xe6496dca035fded9),
    ("batch 6 body", 0x827b5077c1fb1a08, 0x92477023b6798eda),
    ("batch 7 body", 0x70ff2a77285f3b70, 0x1329a794527b5c6c),
    ("batch 8 signature", 0x5dd23ab1a83318b1, 0xd6491867dc5d44dc),
    ("batch 9 body", 0xf37ec9089386c4c5, 0xeb0be740fdff2949),
    (
        "batch 10 body_error",
        0x4742b085e0e2c68b,
        0x3d70ca9c60239e74,
    ),
    ("batch 11 body", 0x0251571d85d7ed4a, 0x56591a3ff9365ee6),
    ("batch 12 body", 0xd337ae7896e11917, 0xd23a54ae4bb347df),
    ("batch 13 body", 0x8fb295841915b4b0, 0xa28424de9560d9b4),
    ("batch 14 body", 0x859062de2b63a067, 0xbc1abbacff2069db),
    ("batch 15 body", 0x863285df36770312, 0x1d2497c784009ffe),
];
