//! Recursive-descent parser for the core language.
//!
//! The concrete syntax mirrors the paper's figures: owner-parameterized
//! classes (Fig. 5), `regionKind` declarations with portal fields and
//! subregions, region-creation blocks `(RHandle<r> h) { ... }` in all three
//! forms (local region, shared region with kind/policy, subregion entry),
//! `fork` / `RT fork`, `accesses` clauses, and `where` constraints.

use crate::ast::*;
use crate::intern::Symbol;
use crate::lexer::{lex, lex_at, LexError};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::fmt;

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the problem.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// use rtj_lang::parser::parse_program;
/// let p = parse_program("class A<Owner o> { int x; } { let A<heap> a = new A<heap>; }")?;
/// assert_eq!(p.classes.len(), 1);
/// # Ok::<(), rtj_lang::parser::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    Parser::new(tokens).program()
}

/// Parses `src` as exactly one class declaration that starts at byte
/// `base` of a larger source, so every span is the one a whole-file parse
/// would give it. Leading and trailing trivia are allowed here; callers
/// that need the declaration to fill `src` compare its span.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, including any text
/// after the declaration's closing brace.
///
/// # Examples
///
/// ```
/// use rtj_lang::parser::parse_class_at;
/// let c = parse_class_at("class A<Owner o> { int x; }", 40)?;
/// assert_eq!((c.span.start, c.span.end), (40, 67));
/// assert!(parse_class_at("class A<Owner o> { } class B<Owner o> { }", 0).is_err());
/// # Ok::<(), rtj_lang::parser::ParseError>(())
/// ```
pub fn parse_class_at(src: &str, base: u32) -> Result<ClassDecl, ParseError> {
    let mut p = Parser::new(lex_at(src, base)?);
    let decl = p.class_decl()?;
    p.expect(&TokenKind::Eof)?;
    Ok(decl)
}

/// Parses `src` as a program's main block, starting at byte `base` of the
/// whole source: one block, then only trivia to the end.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse_block_at(src: &str, base: u32) -> Result<Block, ParseError> {
    let mut p = Parser::new(lex_at(src, base)?);
    let block = p.block()?;
    p.expect(&TokenKind::Eof)?;
    Ok(block)
}

/// Parses a single expression (useful for tests and the REPL-ish CLI).
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected `{kind}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: self.span(),
        }
    }

    fn ident(&mut self) -> Result<Ident, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let t = self.bump();
                Ok(Ident {
                    name: Symbol::intern(&name),
                    span: t.span,
                })
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    // ---------------------------------------------------------------- program

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut classes = Vec::new();
        let mut region_kinds = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Class => classes.push(self.class_decl()?),
                TokenKind::RegionKind => region_kinds.push(self.region_kind_decl()?),
                _ => break,
            }
        }
        let main = self.block()?;
        self.expect(&TokenKind::Eof)?;
        Ok(Program {
            classes,
            region_kinds,
            main,
        })
    }

    // ------------------------------------------------------------------ decls

    fn class_decl(&mut self) -> Result<ClassDecl, ParseError> {
        let start = self.expect(&TokenKind::Class)?.span;
        let name = self.ident()?;
        let formals = if self.peek() == &TokenKind::Lt2 {
            self.owner_formals()?
        } else {
            Vec::new()
        };
        let extends = if self.eat(&TokenKind::Extends) {
            Some(self.class_type()?)
        } else {
            None
        };
        let where_clauses = self.where_clauses()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            self.member(&mut fields, &mut methods)?;
        }
        let end = self.expect(&TokenKind::RBrace)?.span;
        Ok(ClassDecl {
            name,
            formals,
            extends,
            where_clauses,
            fields,
            methods,
            span: start.to(end),
        })
    }

    /// Parses either a field or a method: both start with a type followed by
    /// a name; a `(` or `<` after the name means method.
    fn member(
        &mut self,
        fields: &mut Vec<FieldDecl>,
        methods: &mut Vec<MethodDecl>,
    ) -> Result<(), ParseError> {
        let start = self.span();
        let ty = self.ret_type()?;
        let name = self.ident()?;
        match self.peek() {
            TokenKind::Semi => {
                let end = self.bump().span;
                if matches!(ty, Type::Void(_)) {
                    return Err(ParseError {
                        message: "fields cannot have type `void`".into(),
                        span: start,
                    });
                }
                fields.push(FieldDecl {
                    ty,
                    name,
                    span: start.to(end),
                });
                Ok(())
            }
            TokenKind::LParen | TokenKind::Lt2 => {
                let formals = if self.peek() == &TokenKind::Lt2 {
                    self.owner_formals()?
                } else {
                    Vec::new()
                };
                self.expect(&TokenKind::LParen)?;
                let mut params = Vec::new();
                if self.peek() != &TokenKind::RParen {
                    loop {
                        let pty = self.ty()?;
                        let pname = self.ident()?;
                        params.push(Param {
                            ty: pty,
                            name: pname,
                        });
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                let effects = if self.eat(&TokenKind::Accesses) {
                    let mut list = vec![self.owner_ref()?];
                    while self.eat(&TokenKind::Comma) {
                        list.push(self.owner_ref()?);
                    }
                    Some(list)
                } else {
                    None
                };
                let where_clauses = self.where_clauses()?;
                let body = self.block()?;
                let span = start.to(body.span);
                methods.push(MethodDecl {
                    ret: ty,
                    name,
                    formals,
                    params,
                    effects,
                    where_clauses,
                    body,
                    span,
                });
                Ok(())
            }
            other => Err(self.err(format!(
                "expected `;` (field) or `(`/`<` (method), found `{other}`"
            ))),
        }
    }

    fn region_kind_decl(&mut self) -> Result<RegionKindDecl, ParseError> {
        let start = self.expect(&TokenKind::RegionKind)?.span;
        let name = self.ident()?;
        let formals = if self.peek() == &TokenKind::Lt2 {
            self.owner_formals()?
        } else {
            Vec::new()
        };
        let extends = if self.eat(&TokenKind::Extends) {
            Some(self.kind_ann()?)
        } else {
            None
        };
        let where_clauses = self.where_clauses()?;
        self.expect(&TokenKind::LBrace)?;
        let mut portals = Vec::new();
        let mut subregions = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Subregion {
                subregions.push(self.subregion_decl()?);
            } else {
                let fstart = self.span();
                let ty = self.ty()?;
                let fname = self.ident()?;
                let fend = self.expect(&TokenKind::Semi)?.span;
                portals.push(FieldDecl {
                    ty,
                    name: fname,
                    span: fstart.to(fend),
                });
            }
        }
        let end = self.expect(&TokenKind::RBrace)?.span;
        Ok(RegionKindDecl {
            name,
            formals,
            extends,
            where_clauses,
            portals,
            subregions,
            span: start.to(end),
        })
    }

    /// `subregion Kind<o*> : LT(n) RT name;` (policy and thread tag required).
    fn subregion_decl(&mut self) -> Result<SubregionDecl, ParseError> {
        let start = self.expect(&TokenKind::Subregion)?.span;
        let kind = self.kind_ann()?;
        self.expect(&TokenKind::Colon)?;
        let policy = self.policy()?;
        let thread = match self.peek() {
            TokenKind::Rt => {
                self.bump();
                ThreadTag::Rt
            }
            TokenKind::NoRt => {
                self.bump();
                ThreadTag::NoRt
            }
            other => {
                return Err(self.err(format!("expected `RT` or `NoRT`, found `{other}`")));
            }
        };
        let name = self.ident()?;
        let end = self.expect(&TokenKind::Semi)?.span;
        Ok(SubregionDecl {
            kind,
            policy,
            thread,
            name,
            span: start.to(end),
        })
    }

    fn policy(&mut self) -> Result<Policy, ParseError> {
        match self.peek() {
            TokenKind::Lt => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let size = match self.peek().clone() {
                    TokenKind::Int(n) if n >= 0 => {
                        self.bump();
                        n as u64
                    }
                    other => {
                        return Err(self.err(format!(
                            "expected LT size (non-negative int), found `{other}`"
                        )));
                    }
                };
                self.expect(&TokenKind::RParen)?;
                Ok(Policy::Lt { size })
            }
            TokenKind::Vt => {
                self.bump();
                Ok(Policy::Vt)
            }
            other => Err(self.err(format!("expected `LT(size)` or `VT`, found `{other}`"))),
        }
    }

    // --------------------------------------------------- owners, kinds, types

    fn owner_formals(&mut self) -> Result<Vec<FormalOwner>, ParseError> {
        self.expect(&TokenKind::Lt2)?;
        let mut formals = Vec::new();
        loop {
            let kind = self.kind_ann()?;
            let name = self.ident()?;
            formals.push(FormalOwner { kind, name });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Gt)?;
        Ok(formals)
    }

    fn kind_ann(&mut self) -> Result<KindAnn, ParseError> {
        let id = self.ident()?;
        let s = id.span;
        let base = match id.name.as_str() {
            "Owner" => KindAnn::Owner(s),
            "ObjOwner" => KindAnn::ObjOwner(s),
            "Region" => KindAnn::Region(s),
            "GCRegion" => KindAnn::GcRegion(s),
            "NoGCRegion" => KindAnn::NoGcRegion(s),
            "LocalRegion" => KindAnn::LocalRegion(s),
            "SharedRegion" => KindAnn::SharedRegion(s),
            _ => {
                let owners = if self.peek() == &TokenKind::Lt2 {
                    self.owner_args()?
                } else {
                    Vec::new()
                };
                KindAnn::Named { name: id, owners }
            }
        };
        // `kind : LT` (without a size) denotes the LT-refined kind; a size
        // makes it a policy, which is handled by callers that expect one.
        if self.peek() == &TokenKind::Colon
            && self.peek_at(1) == &TokenKind::Lt
            && self.peek_at(2) != &TokenKind::LParen
        {
            self.bump();
            let lt = self.bump().span;
            return Ok(KindAnn::Lt(Box::new(base), lt));
        }
        Ok(base)
    }

    fn owner_args(&mut self) -> Result<Vec<OwnerRef>, ParseError> {
        self.expect(&TokenKind::Lt2)?;
        let mut owners = vec![self.owner_ref()?];
        while self.eat(&TokenKind::Comma) {
            owners.push(self.owner_ref()?);
        }
        self.expect(&TokenKind::Gt)?;
        Ok(owners)
    }

    fn owner_ref(&mut self) -> Result<OwnerRef, ParseError> {
        match self.peek().clone() {
            TokenKind::This => Ok(OwnerRef::This(self.bump().span)),
            TokenKind::Heap => Ok(OwnerRef::Heap(self.bump().span)),
            TokenKind::Immortal => Ok(OwnerRef::Immortal(self.bump().span)),
            TokenKind::InitialRegion => Ok(OwnerRef::InitialRegion(self.bump().span)),
            TokenKind::Rt => Ok(OwnerRef::Rt(self.bump().span)),
            TokenKind::Ident(_) => Ok(OwnerRef::Name(self.ident()?)),
            other => Err(self.err(format!("expected owner, found `{other}`"))),
        }
    }

    fn class_type(&mut self) -> Result<ClassType, ParseError> {
        let name = self.ident()?;
        let start = name.span;
        let (owners, end) = if self.peek() == &TokenKind::Lt2 {
            let owners = self.owner_args()?;
            (owners, self.prev_span())
        } else {
            (Vec::new(), start)
        };
        Ok(ClassType {
            name,
            owners,
            span: start.to(end),
        })
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            TokenKind::IntTy => Ok(Type::Int(self.bump().span)),
            TokenKind::BoolTy => Ok(Type::Bool(self.bump().span)),
            TokenKind::RHandle => {
                let start = self.bump().span;
                self.expect(&TokenKind::Lt2)?;
                let r = self.owner_ref()?;
                let end = self.expect(&TokenKind::Gt)?.span;
                Ok(Type::Handle(r, start.to(end)))
            }
            TokenKind::Ident(_) => Ok(Type::Class(self.class_type()?)),
            other => Err(self.err(format!("expected type, found `{other}`"))),
        }
    }

    fn ret_type(&mut self) -> Result<Type, ParseError> {
        if self.peek() == &TokenKind::Void {
            Ok(Type::Void(self.bump().span))
        } else {
            self.ty()
        }
    }

    fn where_clauses(&mut self) -> Result<Vec<Constraint>, ParseError> {
        if !self.eat(&TokenKind::Where) {
            return Ok(Vec::new());
        }
        let mut out = vec![self.constraint()?];
        while self.eat(&TokenKind::Comma) {
            out.push(self.constraint()?);
        }
        Ok(out)
    }

    fn constraint(&mut self) -> Result<Constraint, ParseError> {
        let lhs = self.owner_ref()?;
        let rel = match self.peek() {
            TokenKind::Owns => {
                self.bump();
                ConstraintRel::Owns
            }
            TokenKind::Outlives => {
                self.bump();
                ConstraintRel::Outlives
            }
            other => {
                return Err(self.err(format!("expected `owns` or `outlives`, found `{other}`")));
            }
        };
        let rhs = self.owner_ref()?;
        Ok(Constraint { lhs, rel, rhs })
    }

    // ------------------------------------------------------------- statements

    fn block(&mut self) -> Result<Block, ParseError> {
        let start = self.expect(&TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            stmts.push(self.stmt()?);
        }
        let end = self.expect(&TokenKind::RBrace)?.span;
        Ok(Block {
            stmts,
            span: start.to(end),
        })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            TokenKind::Let => self.let_stmt(),
            TokenKind::If => self.if_stmt(),
            TokenKind::While => self.while_stmt(),
            TokenKind::Return => self.return_stmt(),
            TokenKind::Fork => self.fork_stmt(false),
            TokenKind::Rt if self.peek_at(1) == &TokenKind::Fork => {
                self.bump();
                self.fork_stmt(true)
            }
            TokenKind::LParen if self.peek_at(1) == &TokenKind::RHandle => self.region_stmt(),
            _ => self.expr_or_assign_stmt(),
        }
    }

    fn let_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&TokenKind::Let)?.span;
        // Decide whether a type is present: `let T x = e;` vs `let x = e;`.
        let ty = match self.peek() {
            TokenKind::IntTy | TokenKind::BoolTy | TokenKind::RHandle => Some(self.ty()?),
            TokenKind::Ident(_) => match self.peek_at(1) {
                TokenKind::Ident(_) | TokenKind::Lt2 => Some(self.ty()?),
                _ => None,
            },
            _ => None,
        };
        let name = self.ident()?;
        self.expect(&TokenKind::Eq)?;
        let init = self.expr()?;
        let end = self.expect(&TokenKind::Semi)?.span;
        Ok(Stmt::Let {
            ty,
            name,
            init,
            span: start.to(end),
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&TokenKind::If)?.span;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_blk = self.block()?;
        let (else_blk, end) = if self.eat(&TokenKind::Else) {
            if self.peek() == &TokenKind::If {
                // `else if` sugar: wrap the nested if in a block.
                let nested = self.if_stmt()?;
                let span = nested.span();
                (
                    Some(Block {
                        stmts: vec![nested],
                        span,
                    }),
                    span,
                )
            } else {
                let b = self.block()?;
                let s = b.span;
                (Some(b), s)
            }
        } else {
            (None, then_blk.span)
        };
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
            span: start.to(end),
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&TokenKind::While)?.span;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(Stmt::While { cond, body, span })
    }

    fn return_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&TokenKind::Return)?.span;
        let value = if self.peek() == &TokenKind::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        let end = self.expect(&TokenKind::Semi)?.span;
        Ok(Stmt::Return {
            value,
            span: start.to(end),
        })
    }

    fn fork_stmt(&mut self, rt: bool) -> Result<Stmt, ParseError> {
        let start = self.expect(&TokenKind::Fork)?.span;
        let call = self.expr()?;
        if !matches!(call, Expr::Call { .. }) {
            return Err(ParseError {
                message: "`fork` must be applied to a method invocation".into(),
                span: call.span(),
            });
        }
        let end = self.expect(&TokenKind::Semi)?.span;
        Ok(Stmt::Fork {
            rt,
            call,
            span: start.to(end),
        })
    }

    /// Parses the three region-block forms, all beginning `( RHandle <`:
    ///
    /// * `(RHandle<r> h) { ... }` — local region,
    /// * `(RHandle<Kind : POLICY r> h) { ... }` — new shared region,
    /// * `(RHandle<Kind r2> h2 = [new] h.sub) { ... }` — enter subregion.
    fn region_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&TokenKind::LParen)?.span;
        self.expect(&TokenKind::RHandle)?;
        self.expect(&TokenKind::Lt2)?;

        // Local region: a single identifier immediately closed by `>`.
        if matches!(self.peek(), TokenKind::Ident(_)) && self.peek_at(1) == &TokenKind::Gt {
            let region = self.ident()?;
            self.expect(&TokenKind::Gt)?;
            let handle = self.ident()?;
            self.expect(&TokenKind::RParen)?;
            let body = self.block()?;
            let span = start.to(body.span);
            return Ok(Stmt::LocalRegion {
                region,
                handle,
                body,
                span,
            });
        }

        let kind = self.kind_ann()?;
        let policy = if self.eat(&TokenKind::Colon) {
            Some(self.policy()?)
        } else {
            None
        };
        let region = self.ident()?;
        self.expect(&TokenKind::Gt)?;
        let handle = self.ident()?;

        if self.eat(&TokenKind::Eq) {
            // Subregion entry.
            if policy.is_some() {
                return Err(ParseError {
                    message: "subregion entry cannot specify an allocation policy \
                              (it is fixed by the region-kind declaration)"
                        .into(),
                    span: start,
                });
            }
            let fresh = self.eat(&TokenKind::New);
            let parent = self.ident()?;
            self.expect(&TokenKind::Dot)?;
            let sub = self.ident()?;
            self.expect(&TokenKind::RParen)?;
            let body = self.block()?;
            let span = start.to(body.span);
            return Ok(Stmt::EnterSubregion {
                kind,
                region,
                handle,
                fresh,
                parent,
                sub,
                body,
                span,
            });
        }

        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(Stmt::NewRegion {
            kind,
            policy: policy.unwrap_or(Policy::Vt),
            region,
            handle,
            body,
            span,
        })
    }

    fn expr_or_assign_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        let e = self.expr()?;
        if self.eat(&TokenKind::Eq) {
            let value = self.expr()?;
            let end = self.expect(&TokenKind::Semi)?.span;
            let span = start.to(end);
            return match e {
                Expr::Var(name) => Ok(Stmt::AssignLocal { name, value, span }),
                Expr::Field { recv, field, .. } => Ok(Stmt::AssignField {
                    recv: *recv,
                    field,
                    value,
                    span,
                }),
                other => Err(ParseError {
                    message: "invalid assignment target (expected variable or field)".into(),
                    span: other.span(),
                }),
            };
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Expr(e))
    }

    // ------------------------------------------------------------ expressions

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &TokenKind::OrOr {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.equality_expr()?;
        while self.peek() == &TokenKind::AndAnd {
            self.bump();
            let rhs = self.equality_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn equality_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.comparison_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::Ne => BinOp::Ne,
                _ => break,
            };
            self.bump();
            let rhs = self.comparison_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn comparison_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt2 => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            self.bump();
            let rhs = self.additive_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn additive_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn multiplicative_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            TokenKind::Minus => {
                let start = self.bump().span;
                let e = self.unary_expr()?;
                let span = start.to(e.span());
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                    span,
                })
            }
            TokenKind::Bang => {
                let start = self.bump().span;
                let e = self.unary_expr()?;
                let span = start.to(e.span());
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                    span,
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        while self.eat(&TokenKind::Dot) {
            let name = self.ident()?;
            if self.peek() == &TokenKind::LParen {
                e = self.finish_call(e, name, Vec::new())?;
            } else if self.peek() == &TokenKind::Lt2 && self.looks_like_owner_args() {
                let owner_args = self.owner_args()?;
                e = self.finish_call(e, name, owner_args)?;
            } else {
                let span = e.span().to(name.span);
                e = Expr::Field {
                    recv: Box::new(e),
                    field: name,
                    span,
                };
            }
        }
        Ok(e)
    }

    /// Disambiguates `a.m<o1,o2>(x)` (owner arguments) from `a.f < b`
    /// (comparison) by scanning ahead for `>` followed by `(` with only
    /// owner-ish tokens in between.
    fn looks_like_owner_args(&self) -> bool {
        let mut i = 1; // past the `<`
        loop {
            match self.peek_at(i) {
                TokenKind::Ident(_)
                | TokenKind::This
                | TokenKind::Heap
                | TokenKind::Immortal
                | TokenKind::InitialRegion
                | TokenKind::Rt
                | TokenKind::Comma => i += 1,
                TokenKind::Gt => return self.peek_at(i + 1) == &TokenKind::LParen,
                _ => return false,
            }
            if i > 64 {
                return false;
            }
        }
    }

    fn finish_call(
        &mut self,
        recv: Expr,
        method: Ident,
        owner_args: Vec<OwnerRef>,
    ) -> Result<Expr, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(&TokenKind::RParen)?.span;
        let span = recv.span().to(end);
        Ok(Expr::Call {
            recv: Box::new(recv),
            method,
            owner_args,
            args,
            span,
        })
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(n) => Ok(Expr::Int(n, self.bump().span)),
            TokenKind::True => Ok(Expr::Bool(true, self.bump().span)),
            TokenKind::False => Ok(Expr::Bool(false, self.bump().span)),
            TokenKind::Str(s) => Ok(Expr::Str(s, self.bump().span)),
            TokenKind::Null => Ok(Expr::Null(self.bump().span)),
            TokenKind::This => Ok(Expr::This(self.bump().span)),
            TokenKind::New => {
                let start = self.bump().span;
                let class = self.class_type()?;
                let span = start.to(class.span);
                Ok(Expr::New { class, span })
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if let Some(intrinsic) = Intrinsic::from_name(&name) {
                    if self.peek_at(1) == &TokenKind::LParen {
                        let start = self.bump().span;
                        self.expect(&TokenKind::LParen)?;
                        let mut args = Vec::new();
                        if self.peek() != &TokenKind::RParen {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat(&TokenKind::Comma) {
                                    break;
                                }
                            }
                        }
                        let end = self.expect(&TokenKind::RParen)?.span;
                        return Ok(Expr::IntrinsicCall {
                            intrinsic,
                            args,
                            span: start.to(end),
                        });
                    }
                }
                Ok(Expr::Var(self.ident()?))
            }
            other => Err(self.err(format!("expected expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_parse_to_the_whole_file_nodes() {
        let src = "class A<Owner o> { int v; }\n\
                   class B<Owner o> { A<o> a; int get() { return this.a.v; } }\n\
                   { let x = 1; print(x); } // trailing\n";
        let whole = parse_program(src).unwrap();
        let b = &whole.classes[1];
        let (lo, hi) = (b.span.start as usize, b.span.end as usize);
        let frag = parse_class_at(&src[lo..hi], b.span.start).unwrap();
        // Debug output, because `Ident` equality ignores spans.
        assert_eq!(format!("{frag:?}"), format!("{b:?}"));
        let m = whole.main.span.start as usize;
        let main = parse_block_at(&src[m..], whole.main.span.start).unwrap();
        assert_eq!(format!("{main:?}"), format!("{:?}", whole.main));
        assert!(parse_class_at("class A<Owner o> { int v; ", 0).is_err());
        assert!(parse_class_at("regionKind K { }", 0).is_err());
    }

    #[test]
    fn parse_empty_main() {
        let p = parse_program("{ }").unwrap();
        assert!(p.classes.is_empty());
        assert!(p.main.stmts.is_empty());
    }

    #[test]
    fn parse_tstack_class() {
        let src = r#"
            class TStack<Owner stackOwner, Owner TOwner> {
                TNode<this, TOwner> head;
                void push(T<TOwner> value) {
                    let TNode<this, TOwner> newNode = new TNode<this, TOwner>;
                    newNode.init(value, this.head);
                    this.head = newNode;
                }
                T<TOwner> pop() {
                    if (this.head == null) { return null; }
                    let T<TOwner> value = this.head.value;
                    this.head = this.head.next;
                    return value;
                }
            }
            { }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.classes.len(), 1);
        let c = &p.classes[0];
        assert_eq!(c.name.name, "TStack");
        assert_eq!(c.formals.len(), 2);
        assert_eq!(c.fields.len(), 1);
        assert_eq!(c.methods.len(), 2);
    }

    #[test]
    fn parse_region_blocks() {
        let src = r#"
            {
                (RHandle<r1> h1) {
                    (RHandle<r2> h2) {
                        let x = 1;
                    }
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        match &p.main.stmts[0] {
            Stmt::LocalRegion {
                region,
                handle,
                body,
                ..
            } => {
                assert_eq!(region.name, "r1");
                assert_eq!(handle.name, "h1");
                assert!(matches!(body.stmts[0], Stmt::LocalRegion { .. }));
            }
            other => panic!("expected local region, got {other:?}"),
        }
    }

    #[test]
    fn parse_shared_region_and_subregion() {
        let src = r#"
            regionKind BufferRegion extends SharedRegion {
                subregion BufferSubRegion : LT(4096) NoRT b;
            }
            regionKind BufferSubRegion extends SharedRegion {
                Frame<this> f;
            }
            {
                (RHandle<BufferRegion : VT r> h) {
                    (RHandle<BufferSubRegion r2> h2 = h.b) {
                        let Frame<r2> frame = new Frame<r2>;
                        h2.f = frame;
                    }
                    (RHandle<BufferSubRegion r3> h3 = new h.b) { }
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.region_kinds.len(), 2);
        assert_eq!(p.region_kinds[0].subregions.len(), 1);
        assert_eq!(p.region_kinds[1].portals.len(), 1);
        match &p.main.stmts[0] {
            Stmt::NewRegion { policy, body, .. } => {
                assert_eq!(*policy, Policy::Vt);
                match &body.stmts[0] {
                    Stmt::EnterSubregion { fresh, sub, .. } => {
                        assert!(!fresh);
                        assert_eq!(sub.name, "b");
                    }
                    other => panic!("expected subregion entry, got {other:?}"),
                }
                assert!(matches!(
                    &body.stmts[1],
                    Stmt::EnterSubregion { fresh: true, .. }
                ));
            }
            other => panic!("expected new region, got {other:?}"),
        }
    }

    #[test]
    fn parse_forks() {
        let src = r#"
            class Producer<Owner r> { void run(RHandle<r> h) { } }
            {
                (RHandle<BufferRegion : LT(1024) r> h) {
                    fork (new Producer<r>).run(h);
                    RT fork (new Producer<r>).run(h);
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        match &p.main.stmts[0] {
            Stmt::NewRegion { policy, body, .. } => {
                assert_eq!(*policy, Policy::Lt { size: 1024 });
                assert!(matches!(body.stmts[0], Stmt::Fork { rt: false, .. }));
                assert!(matches!(body.stmts[1], Stmt::Fork { rt: true, .. }));
            }
            other => panic!("expected new region, got {other:?}"),
        }
    }

    #[test]
    fn parse_owner_args_vs_comparison() {
        // `a.m<r>(x)` is a call with owner args; `a.f < b` is a comparison.
        let e = parse_expr("a.m<r1,heap>(x)").unwrap();
        match e {
            Expr::Call { owner_args, .. } => assert_eq!(owner_args.len(), 2),
            other => panic!("expected call, got {other:?}"),
        }
        let e = parse_expr("a.f < b").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Lt, .. }));
    }

    #[test]
    fn parse_effects_and_where() {
        let src = r#"
            class C<Owner o, Owner p> where o outlives p {
                int m<Region q>(int x) accesses o, q, RT where q outlives p {
                    return x + 1;
                }
            }
            { }
        "#;
        let p = parse_program(src).unwrap();
        let m = &p.classes[0].methods[0];
        assert_eq!(m.formals.len(), 1);
        let fx = m.effects.as_ref().unwrap();
        assert_eq!(fx.len(), 3);
        assert!(matches!(fx[2], OwnerRef::Rt(_)));
        assert_eq!(m.where_clauses.len(), 1);
    }

    #[test]
    fn parse_precedence() {
        let e = parse_expr("1 + 2 * 3 < 4 && !x || y").unwrap();
        // ((1 + (2*3)) < 4) && (!x) || y — just check the top is `||`.
        assert!(matches!(e, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn parse_intrinsics() {
        let e = parse_expr("io(100)").unwrap();
        assert!(matches!(
            e,
            Expr::IntrinsicCall {
                intrinsic: Intrinsic::Io,
                ..
            }
        ));
        // An identifier named like an intrinsic but not called stays a var.
        let e = parse_expr("io + 1").unwrap();
        assert!(matches!(e, Expr::Binary { .. }));
    }

    #[test]
    fn parse_else_if_chain() {
        let src = "{ if (a) { } else if (b) { } else { } }";
        let p = parse_program(src).unwrap();
        match &p.main.stmts[0] {
            Stmt::If { else_blk, .. } => {
                let inner = &else_blk.as_ref().unwrap().stmts[0];
                assert!(matches!(
                    inner,
                    Stmt::If {
                        else_blk: Some(_),
                        ..
                    }
                ));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_program("class {}").is_err());
        assert!(parse_program("{ let = 3; }").is_err());
        assert!(parse_program("{ fork 3; }").is_err());
        assert!(parse_program("{ 1 + ; }").is_err());
        assert!(parse_program("{ (RHandle<K : LT(8) r> h = x.b) { } }").is_err());
        assert!(parse_program("{ 3 = x; }").is_err());
    }

    #[test]
    fn parse_kind_lt_refinement() {
        let src = r#"
            class C<SharedRegion : LT r> { }
            { }
        "#;
        let p = parse_program(src).unwrap();
        assert!(matches!(p.classes[0].formals[0].kind, KindAnn::Lt(_, _)));
    }
}
