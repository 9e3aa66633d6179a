//! Token kinds produced by the [lexer](crate::lexer).
//!
//! Tokens are `Copy`: a name or string literal carries the interned
//! [`Symbol`] of its text rather than a copy of it, so the parser moves
//! tokens around without allocating.

use crate::intern::Symbol;
use crate::span::Span;
use std::fmt;

/// A lexical token: a [`TokenKind`] plus the [`Span`] it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it appears.
    pub span: Span,
}

/// The different kinds of lexical tokens in the core language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    // Literals and identifiers
    /// An integer literal such as `42`.
    Int(i64),
    /// An identifier or non-keyword name.
    Ident(Symbol),
    /// A double-quoted string literal (used only by `print`), with its
    /// escapes decoded.
    Str(Symbol),

    // Keywords
    /// `class`
    Class,
    /// `extends`
    Extends,
    /// `where`
    Where,
    /// `owns`
    Owns,
    /// `outlives`
    Outlives,
    /// `regionKind`
    RegionKind,
    /// `subregion`
    Subregion,
    /// `accesses`
    Accesses,
    /// `let`
    Let,
    /// `new`
    New,
    /// `fork`
    Fork,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `return`
    Return,
    /// `null`
    Null,
    /// `true`
    True,
    /// `false`
    False,
    /// `this`
    This,
    /// `int`
    IntTy,
    /// `bool`
    BoolTy,
    /// `void`
    Void,
    /// `RHandle`
    RHandle,
    /// `heap`
    Heap,
    /// `immortal`
    Immortal,
    /// `initialRegion`
    InitialRegion,
    /// `RT` (real-time marker: `RT fork`, RT effect, RT subregion tag)
    Rt,
    /// `NoRT` (regular-thread subregion tag)
    NoRt,
    /// `LT` (linear-time allocation policy)
    Lt,
    /// `VT` (variable-time allocation policy)
    Vt,

    // Punctuation and operators
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `<`
    Lt2,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the keyword token for `word`, if `word` is a keyword.
    pub fn keyword(word: &str) -> Option<TokenKind> {
        use TokenKind::*;
        Some(match word {
            "class" => Class,
            "extends" => Extends,
            "where" => Where,
            "owns" => Owns,
            "outlives" => Outlives,
            "regionKind" => RegionKind,
            "subregion" => Subregion,
            "accesses" => Accesses,
            "let" => Let,
            "new" => New,
            "fork" => Fork,
            "if" => If,
            "else" => Else,
            "while" => While,
            "return" => Return,
            "null" => Null,
            "true" => True,
            "false" => False,
            "this" => This,
            "int" => IntTy,
            "bool" => BoolTy,
            "void" => Void,
            "RHandle" => RHandle,
            "heap" => Heap,
            "immortal" => Immortal,
            "initialRegion" => InitialRegion,
            "RT" => Rt,
            "NoRT" => NoRt,
            "LT" => Lt,
            "VT" => Vt,
            _ => return None,
        })
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Int(n) => write!(f, "{n}"),
            Ident(s) => write!(f, "{s}"),
            Str(s) => write!(f, "{s:?}"),
            Class => write!(f, "class"),
            Extends => write!(f, "extends"),
            Where => write!(f, "where"),
            Owns => write!(f, "owns"),
            Outlives => write!(f, "outlives"),
            RegionKind => write!(f, "regionKind"),
            Subregion => write!(f, "subregion"),
            Accesses => write!(f, "accesses"),
            Let => write!(f, "let"),
            New => write!(f, "new"),
            Fork => write!(f, "fork"),
            If => write!(f, "if"),
            Else => write!(f, "else"),
            While => write!(f, "while"),
            Return => write!(f, "return"),
            Null => write!(f, "null"),
            True => write!(f, "true"),
            False => write!(f, "false"),
            This => write!(f, "this"),
            IntTy => write!(f, "int"),
            BoolTy => write!(f, "bool"),
            Void => write!(f, "void"),
            RHandle => write!(f, "RHandle"),
            Heap => write!(f, "heap"),
            Immortal => write!(f, "immortal"),
            InitialRegion => write!(f, "initialRegion"),
            Rt => write!(f, "RT"),
            NoRt => write!(f, "NoRT"),
            Lt => write!(f, "LT"),
            Vt => write!(f, "VT"),
            LParen => write!(f, "("),
            RParen => write!(f, ")"),
            LBrace => write!(f, "{{"),
            RBrace => write!(f, "}}"),
            Lt2 => write!(f, "<"),
            Gt => write!(f, ">"),
            Le => write!(f, "<="),
            Ge => write!(f, ">="),
            EqEq => write!(f, "=="),
            Ne => write!(f, "!="),
            Eq => write!(f, "="),
            Plus => write!(f, "+"),
            Minus => write!(f, "-"),
            Star => write!(f, "*"),
            Slash => write!(f, "/"),
            Percent => write!(f, "%"),
            Bang => write!(f, "!"),
            AndAnd => write!(f, "&&"),
            OrOr => write!(f, "||"),
            Dot => write!(f, "."),
            Comma => write!(f, ","),
            Semi => write!(f, ";"),
            Colon => write!(f, ":"),
            Eof => write!(f, "<eof>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("class"), Some(TokenKind::Class));
        assert_eq!(TokenKind::keyword("RT"), Some(TokenKind::Rt));
        assert_eq!(TokenKind::keyword("frob"), None);
    }

    #[test]
    fn display_roundtrips_keywords() {
        for w in ["class", "regionKind", "initialRegion", "NoRT", "LT", "VT"] {
            let k = TokenKind::keyword(w).unwrap();
            assert_eq!(k.to_string(), w);
        }
    }
}
