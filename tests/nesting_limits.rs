//! Nesting is bounded: every form of nesting parses at the parser's
//! limit and fails one level past it, with one error at the token that
//! crosses it. A program at the limit checks, pretty-prints back to
//! itself and runs identically on both engines, so no pass that recurses
//! over the tree runs out of stack below the limit.
//!
//! Each test runs on a thread with an 8 MiB stack, the size of a main
//! thread: a debug build needs more than a test thread's default at this
//! depth.

use rtjava::interp::{build, run_checked, Engine, RunConfig};
use rtjava::lang::parser::{parse_program, MAX_NESTING};
use rtjava::lang::pretty_program;
use rtjava::runtime::CheckMode;

/// Runs `test` on a thread with a main thread's stack.
fn with_main_stack(test: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(test)
        .expect("spawn test thread")
        .join()
        .expect("test thread");
}

const CELL: &str = "class Cell<Owner o> { Cell<o> next; int v; Cell<o> me() { return this; } }\n";

/// One form of nesting: `levels` levels of it are `head`, `levels`
/// copies of `open`, `core`, `levels` copies of `close`, then `tail`.
/// `at` is the offset in `open` of the token that takes the level.
struct Form {
    name: &'static str,
    head: &'static str,
    open: &'static str,
    at: usize,
    core: &'static str,
    close: &'static str,
    tail: &'static str,
    /// What a program at the limit prints.
    prints: &'static str,
}

impl Form {
    fn source(&self, levels: usize) -> String {
        [
            self.head,
            &self.open.repeat(levels),
            self.core,
            &self.close.repeat(levels),
            self.tail,
        ]
        .concat()
    }

    /// Byte offset of the token that opens level `level` (1-based).
    fn offset_of(&self, level: usize) -> u32 {
        (self.head.len() + (level - 1) * self.open.len() + self.at) as u32
    }
}

const LET_X: &str = "{ let x = ";
const PRINT_X: &str = "; print(x); }";

const FORMS: &[Form] = &[
    Form {
        name: "parentheses",
        head: LET_X,
        open: "(",
        at: 0,
        core: "7",
        close: ")",
        tail: PRINT_X,
        prints: "7",
    },
    Form {
        name: "unary minus",
        head: LET_X,
        open: "-",
        at: 0,
        core: "7",
        close: "",
        tail: PRINT_X,
        prints: "7",
    },
    Form {
        name: "binary chain",
        head: "{ let x = 1",
        open: " + 1",
        at: 1,
        core: "",
        close: "",
        tail: PRINT_X,
        prints: "257",
    },
    Form {
        name: "field chain",
        head: "{ let c = new Cell<heap>; c.next = c; c.v = 7; let d = c",
        open: ".next",
        at: 0,
        core: "",
        close: "",
        tail: "; print(d.v); }",
        prints: "7",
    },
    Form {
        name: "call chain",
        head: "{ let c = new Cell<heap>; c.v = 7; let d = c",
        open: ".me()",
        at: 0,
        core: "",
        close: "",
        tail: "; print(d.v); }",
        prints: "7",
    },
    // A call's arguments take a level too, so these print at the top.
    Form {
        name: "nested blocks",
        head: "{ let x = 0; ",
        open: "if (true) { ",
        at: 0,
        core: "x = 7; ",
        close: "} ",
        tail: "print(x); }",
        prints: "7",
    },
    Form {
        name: "else if chain",
        head: "{ let x = 0; ",
        open: "if (false) { } else ",
        at: 0,
        core: "{ x = 7; }",
        close: "",
        tail: " print(x); }",
        prints: "7",
    },
];

fn program(form: &Form, levels: usize) -> String {
    format!("{CELL}{}", form.source(levels))
}

#[test]
fn every_form_parses_at_the_limit_and_fails_one_level_past_it() {
    with_main_stack(|| {
        for form in FORMS {
            let at_limit = program(form, MAX_NESTING);
            if let Err(e) = parse_program(&at_limit) {
                panic!("{}: {e}", form.name);
            }
            let past = program(form, MAX_NESTING + 1);
            let e = parse_program(&past).unwrap_err();
            assert_eq!(e.message, "nesting deeper than 256 levels", "{}", form.name);
            let at = CELL.len() as u32 + form.offset_of(MAX_NESTING + 1);
            assert_eq!(
                e.span.start,
                at,
                "{}: {}",
                form.name,
                &past[at as usize..][..8]
            );
        }
    });
}

#[test]
fn nested_intrinsic_calls_are_limited_too() {
    with_main_stack(|| {
        let calls = |n: usize| format!("{{ {}1{}; }}", "print(".repeat(n), ")".repeat(n));
        assert!(parse_program(&calls(MAX_NESTING)).is_ok());
        let e = parse_program(&calls(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(e.message, "nesting deeper than 256 levels");
        assert_eq!(e.span.start as usize, 2 + 6 * MAX_NESTING);
    });
}

#[test]
fn the_limit_counts_every_form_together() {
    with_main_stack(|| {
        let half = MAX_NESTING / 2;
        let mixed = |parens: usize| {
            format!(
                "{{ {}let x = {}1{}; {} }}",
                "if (true) { ".repeat(half),
                "(".repeat(parens),
                ")".repeat(parens),
                "} ".repeat(half)
            )
        };
        assert!(parse_program(&mixed(MAX_NESTING - half)).is_ok());
        let e = parse_program(&mixed(MAX_NESTING - half + 1)).unwrap_err();
        assert_eq!(e.message, "nesting deeper than 256 levels");
    });
}

#[test]
fn programs_at_the_limit_check_print_and_run_alike_on_both_engines() {
    with_main_stack(|| {
        for form in FORMS {
            let src = program(form, MAX_NESTING);
            let printed = pretty_program(&parse_program(&src).unwrap());
            let reparsed = parse_program(&printed)
                .unwrap_or_else(|e| panic!("{}: printed form: {e}", form.name));
            assert_eq!(pretty_program(&reparsed), printed, "{}", form.name);
            let checked = build(&src).unwrap_or_else(|e| panic!("{}: {e}", form.name));
            let run = |engine| {
                let mut cfg = RunConfig::new(CheckMode::Dynamic);
                cfg.engine = engine;
                run_checked(&checked, cfg)
            };
            let (tree, vm) = (run(Engine::Tree), run(Engine::Vm));
            assert!(vm.error.is_none(), "{}: {:?}", form.name, vm.error);
            assert_eq!(vm.trace, vec![form.prints.to_string()], "{}", form.name);
            assert_eq!(tree.trace, vm.trace, "{}", form.name);
            assert_eq!(tree.cycles, vm.cycles, "{}", form.name);
        }
    });
}
