//! Diagnostic rendering: turns a [`Span`]-carrying error into a
//! human-readable message with line/column information and a source excerpt.

use crate::span::{LineMap, Span};

/// Renders a diagnostic message pointing at `span` within `src`.
///
/// The output has the shape:
///
/// ```text
/// error: <message>
///   --> line 3, column 7
///    |
///  3 |     TStack<r1, r2> s6;
///    |            ^^^^^^
/// ```
///
/// # Examples
///
/// ```
/// use rtj_lang::diag::render;
/// use rtj_lang::span::Span;
/// let out = render("let x = y;", Span::new(8, 9), "unknown variable `y`");
/// assert!(out.contains("unknown variable"));
/// assert!(out.contains("line 1, column 9"));
/// ```
pub fn render(src: &str, span: Span, message: &str) -> String {
    let map = LineMap::new(src);
    let (line, col) = map.location(span.start);
    let mut out = format!("error: {message}\n  --> line {line}, column {col}\n");
    if let Some(text) = src.lines().nth(line as usize - 1) {
        let gutter = format!("{line:>4}");
        out.push_str(&format!("     |\n{gutter} | {text}\n     | "));
        // Columns count bytes; the caret line counts characters, so it
        // stays under multi-byte text.
        let at = (col as usize - 1).min(text.len());
        let end = (at + span.len() as usize).min(text.len());
        let chars = |range: std::ops::Range<usize>| text.get(range).map(|s| s.chars().count());
        out.push_str(&" ".repeat(chars(0..at).unwrap_or(at)));
        out.push_str(&"^".repeat(chars(at..end).unwrap_or(end - at).max(1)));
        out.push('\n');
    }
    out
}

/// Renders a diagnostic like [`render`], followed by secondary `note:`
/// labels — one per entry of `notes`. With an empty `notes` the output
/// is byte-identical to [`render`], which is what keeps the checker's
/// default diagnostics stable while `--explain` layers derivation
/// traces on top.
///
/// ```text
/// error: <message>
///   --> line 3, column 7
///    |
///  3 |     TStack<r1, r2> s6;
///    |            ^^^^^^
///    = note: required `r2 ≽ r1`
///    = note: no outlives fact extends the chain from `r2`
/// ```
pub fn render_with_notes(src: &str, span: Span, message: &str, notes: &[String]) -> String {
    let mut out = render(src, span, message);
    for note in notes {
        out.push_str("   = note: ");
        out.push_str(note);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caret_counts_characters_not_bytes() {
        let src = "let é = \"ü\" # x;";
        let at = src.find('#').unwrap() as u32;
        let caret = |pad: usize| format!("     | {}^\n", " ".repeat(pad));
        let out = render(src, Span::new(at, at + 1), "boom");
        assert!(out.ends_with(&caret(12)), "{out}");
        let out = render(src, Span::new(4, 6), "boom");
        assert!(out.ends_with(&caret(4)), "{out}");
    }

    #[test]
    fn renders_caret_under_span() {
        let src = "abc def\nghi jkl\n";
        let out = render(src, Span::new(12, 15), "boom");
        assert!(out.contains("error: boom"));
        assert!(out.contains("line 2, column 5"));
        assert!(out.contains("ghi jkl"));
        let caret_line = out.lines().last().unwrap();
        assert!(caret_line.contains("^^^"), "caret line: {caret_line:?}");
    }

    #[test]
    fn renders_at_start_of_file() {
        let out = render("xyz", Span::new(0, 3), "bad");
        assert!(out.contains("line 1, column 1"));
    }

    #[test]
    fn handles_span_past_line_end() {
        // Degenerate spans must not panic.
        let out = render("ab", Span::new(2, 2), "eof");
        assert!(out.contains("error: eof"));
    }

    #[test]
    fn notes_render_after_excerpt() {
        let src = "abc def\n";
        let notes = vec!["first premise".to_string(), "second premise".to_string()];
        let out = render_with_notes(src, Span::new(0, 3), "boom", &notes);
        assert!(out.contains("= note: first premise\n"));
        assert!(out.ends_with("= note: second premise\n"));
    }

    #[test]
    fn empty_notes_match_plain_render() {
        let src = "abc def\n";
        assert_eq!(
            render_with_notes(src, Span::new(0, 3), "boom", &[]),
            render(src, Span::new(0, 3), "boom")
        );
    }
}
