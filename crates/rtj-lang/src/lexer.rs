//! Hand-written lexer for the core language.
//!
//! The lexer converts a source string into a vector of [`Token`]s, skipping
//! whitespace and both `//` line and `/* ... */` block comments.
//!
//! Names and string literals are interned here, so tokens are `Copy` and
//! the parser allocates nothing per token. A lex keeps a map from each
//! name's source text to its [`Symbol`], so a name that recurs is looked
//! up without a copy of its text and without the global table's lock;
//! [`Symbol::intern`] runs once per distinct name per lex.

use crate::intern::Symbol;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::collections::HashMap;
use std::fmt;

/// An error produced while lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Where the problem occurred.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// Lexes `src` into tokens, ending with a single [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated strings or block comments,
/// integer literals that overflow `i64`, and unrecognized characters.
///
/// # Examples
///
/// ```
/// use rtj_lang::lexer::lex;
/// use rtj_lang::token::TokenKind;
/// let toks = lex("class A {}").unwrap();
/// assert_eq!(toks[0].kind, TokenKind::Class);
/// assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    lex_at(src, 0)
}

/// Lexes `src` as the text that starts at byte `base` of a larger source:
/// every token and error span is offset by `base`, so a fragment lexed on
/// its own carries the spans it would have in the whole file.
///
/// # Errors
///
/// The same as [`lex`].
///
/// # Examples
///
/// ```
/// use rtj_lang::lexer::lex_at;
/// use rtj_lang::span::Span;
/// let toks = lex_at("class A {}", 100).unwrap();
/// assert_eq!(toks[1].span, Span::new(106, 107));
/// ```
pub fn lex_at(src: &str, base: u32) -> Result<Vec<Token>, LexError> {
    Lexer::new(src, base).run()
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    base: u32,
    pos: usize,
    tokens: Vec<Token>,
    /// The symbol of every name lexed so far, by its source text. The
    /// names come from outside the program, so the map keeps the default
    /// hasher, which resists keys crafted to collide.
    names: HashMap<&'a str, Symbol>,
    /// Decoding buffer, reused by every string literal.
    literal: String,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str, base: u32) -> Self {
        Lexer {
            text,
            src: text.as_bytes(),
            base,
            pos: 0,
            // The corpus runs 3.5 to 4.6 source bytes a token.
            tokens: Vec::with_capacity(text.len() / 3 + 1),
            names: HashMap::new(),
            literal: String::new(),
        }
    }

    /// The whole (possibly multi-byte) character starting at byte `at`.
    fn char_at(&self, at: usize) -> char {
        self.text[at..]
            .chars()
            .next()
            .expect("lexer stays on char boundaries")
    }

    fn span(&self, start: usize) -> Span {
        Span::new(self.base + start as u32, self.base + self.pos as u32)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        let span = self.span(start);
        self.tokens.push(Token { kind, span });
    }

    fn error(&self, message: impl Into<String>, start: usize) -> LexError {
        LexError {
            message: message.into(),
            span: self.span(start),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, LexError> {
        while let Some(b) = self.peek() {
            let start = self.pos;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                b'/' if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while let Some(c) = self.bump() {
                        if c == b'*' && self.peek() == Some(b'/') {
                            self.bump();
                            closed = true;
                            break;
                        }
                    }
                    if !closed {
                        return Err(self.error("unterminated block comment", start));
                    }
                }
                b'0'..=b'9' => self.number(start)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(start),
                b'"' => self.string(start)?,
                _ => self.punct(start)?,
            }
        }
        let end = self.pos;
        self.push(TokenKind::Eof, end);
        Ok(self.tokens)
    }

    fn number(&mut self, start: usize) -> Result<(), LexError> {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        let value: i64 = text
            .parse()
            .map_err(|_| self.error(format!("integer literal `{text}` overflows i64"), start))?;
        self.push(TokenKind::Int(value), start);
        Ok(())
    }

    fn ident(&mut self, start: usize) {
        while matches!(
            self.peek(),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.bump();
        }
        let text: &'a str = &self.text[start..self.pos];
        let kind = TokenKind::keyword(text).unwrap_or_else(|| {
            TokenKind::Ident(
                *self
                    .names
                    .entry(text)
                    .or_insert_with(|| Symbol::intern(text)),
            )
        });
        self.push(kind, start);
    }

    fn string(&mut self, start: usize) -> Result<(), LexError> {
        self.bump(); // opening quote
        let mut value = std::mem::take(&mut self.literal);
        value.clear();
        loop {
            match self.bump() {
                None | Some(b'\n') => {
                    return Err(self.error("unterminated string literal", start));
                }
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => value.push('\n'),
                    Some(b't') => value.push('\t'),
                    Some(b'"') => value.push('"'),
                    Some(b'\\') => value.push('\\'),
                    _ => return Err(self.error("invalid escape sequence", start)),
                },
                Some(c) if c.is_ascii() => value.push(c as char),
                Some(_) => {
                    let c = self.char_at(self.pos - 1);
                    value.push(c);
                    self.pos += c.len_utf8() - 1;
                }
            }
        }
        self.push(TokenKind::Str(Symbol::intern(&value)), start);
        self.literal = value;
        Ok(())
    }

    fn punct(&mut self, start: usize) -> Result<(), LexError> {
        use TokenKind::*;
        let b = self.bump().expect("peeked");
        let two = |l: &mut Self, second: u8, yes: TokenKind, no: TokenKind| {
            if l.peek() == Some(second) {
                l.bump();
                yes
            } else {
                no
            }
        };
        let kind = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'<' => two(self, b'=', Le, Lt2),
            b'>' => two(self, b'=', Ge, Gt),
            b'=' => two(self, b'=', EqEq, Eq),
            b'!' => two(self, b'=', Ne, Bang),
            b'+' => Plus,
            b'-' => Minus,
            b'*' => Star,
            b'/' => Slash,
            b'%' => Percent,
            b'.' => Dot,
            b',' => Comma,
            b';' => Semi,
            b':' => Colon,
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    AndAnd
                } else {
                    return Err(self.error("expected `&&`", start));
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    OrOr
                } else {
                    return Err(self.error("expected `||`", start));
                }
            }
            _ => {
                let c = self.char_at(start);
                self.pos = start + c.len_utf8();
                return Err(self.error(format!("unrecognized character `{c}`"), start));
            }
        };
        self.push(kind, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_simple_class() {
        assert_eq!(
            kinds("class A<Owner o> {}"),
            vec![
                Class,
                Ident("A".into()),
                Lt2,
                Ident("Owner".into()),
                Ident("o".into()),
                Gt,
                LBrace,
                RBrace,
                Eof
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("a <= b >= c == d != e && f || !g"),
            vec![
                Ident("a".into()),
                Le,
                Ident("b".into()),
                Ge,
                Ident("c".into()),
                EqEq,
                Ident("d".into()),
                Ne,
                Ident("e".into()),
                AndAnd,
                Ident("f".into()),
                OrOr,
                Bang,
                Ident("g".into()),
                Eof
            ]
        );
    }

    #[test]
    fn lex_comments() {
        assert_eq!(
            kinds("1 // line\n /* block\n comment */ 2"),
            vec![Int(1), Int(2), Eof]
        );
    }

    #[test]
    fn lex_string_escapes() {
        assert_eq!(kinds(r#""a\nb\"c""#), vec![Str("a\nb\"c".into()), Eof]);
    }

    #[test]
    fn lex_keywords_vs_idents() {
        assert_eq!(
            kinds("RT RTx fork forky"),
            vec![Rt, Ident("RTx".into()), Fork, Ident("forky".into()), Eof]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("0 42 123456789"),
            vec![Int(0), Int(42), Int(123456789), Eof]
        );
    }

    #[test]
    fn lex_errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("#").is_err());
        assert!(lex("99999999999999999999999").is_err());
        assert!(lex("&x").is_err());
        assert!(lex("|x").is_err());
    }

    #[test]
    fn spans_are_correct() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].span, crate::span::Span::new(0, 2));
        assert_eq!(toks[1].span, crate::span::Span::new(3, 5));
    }

    #[test]
    fn base_offset_shifts_every_span() {
        let whole = "x = 1; class A { int v; }";
        let cut = whole.find("class").unwrap();
        let tail = lex(whole).unwrap().split_off(4);
        assert_eq!(lex_at(&whole[cut..], cut as u32).unwrap(), tail);
        let err = lex_at("a # b", 40).unwrap_err();
        assert_eq!(err.span, Span::new(42, 43));
    }

    #[test]
    fn string_literals_keep_multibyte_characters() {
        assert_eq!(kinds("\"héllo ✓ 𝄞\""), vec![Str("héllo ✓ 𝄞".into()), Eof]);
        let toks = lex("\"é\" x").unwrap();
        assert_eq!(toks[1].span, Span::new(5, 6), "spans count bytes");
    }

    #[test]
    fn stray_multibyte_character_is_reported_whole() {
        let err = lex("x é y").unwrap_err();
        assert_eq!(err.message, "unrecognized character `é`");
        assert_eq!(err.span, Span::new(2, 4));
    }
}
