//! Recursive-descent parser for the `.tta` textual model format.

use super::lexer::{tokenize, Spanned, Token};
use super::ParseError;
use crate::automaton::{Automaton, Edge, Location, LocationKind, Sync};
use crate::channel::{ChannelDecl, ChannelKind};
use crate::clockcon::ClockConstraint;
use crate::expr::{BoolExpr, IntExpr, Update};
use crate::ids::{ChannelId, ClockId, LocId, VarId};
use crate::system::{ClockDecl, System, VarDecl};
use tempo_dbm::RelOp;

/// Parses a complete system description.
///
/// The returned [`System`] is *not* automatically validated; call
/// [`System::validate`] if the source is untrusted (the parser already
/// rejects references to undeclared names, duplicate declarations and
/// type confusion between clocks, variables and channels).
pub fn parse_system(input: &str) -> Result<System, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        system_name: String::new(),
        clocks: Vec::new(),
        vars: Vec::new(),
        channels: Vec::new(),
        automata: Vec::new(),
    };
    parser.parse_file()?;
    Ok(System {
        name: parser.system_name,
        clocks: parser.clocks,
        vars: parser.vars,
        channels: parser.channels,
        automata: parser.automata,
    })
}

/// Untyped expression tree produced by the expression grammar; it is coerced
/// to [`IntExpr`] / [`BoolExpr`] / [`ClockConstraint`]s once names have been
/// resolved.
#[derive(Clone, Debug)]
enum UExpr {
    Int(i64),
    Bool(bool),
    Name(String, usize, usize),
    Neg(Box<UExpr>),
    Not(Box<UExpr>),
    Bin(BinOp, Box<UExpr>, Box<UExpr>),
    Ternary(Box<UExpr>, Box<UExpr>, Box<UExpr>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    system_name: String,
    clocks: Vec<ClockDecl>,
    vars: Vec<VarDecl>,
    channels: Vec<ChannelDecl>,
    automata: Vec<Automaton>,
}

impl Parser {
    fn peek(&self) -> &Spanned {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Spanned {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error_at(&self, sp: &Spanned, message: impl Into<String>) -> ParseError {
        ParseError::new(sp.line, sp.column, message)
    }

    fn error_here(&self, message: impl Into<String>) -> ParseError {
        let sp = self.peek().clone();
        self.error_at(&sp, message)
    }

    fn expect(&mut self, expected: &Token) -> Result<Spanned, ParseError> {
        let sp = self.next();
        if &sp.token == expected {
            Ok(sp)
        } else {
            Err(self.error_at(
                &sp,
                format!(
                    "expected {}, found {}",
                    expected.describe(),
                    sp.token.describe()
                ),
            ))
        }
    }

    /// `true` and consumes the token when the next token is the given keyword.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Token::Ident(s) = &self.peek().token {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!(
                "expected keyword `{kw}`, found {}",
                self.peek().token.describe()
            )))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().token, Token::Ident(s) if s == kw)
    }

    /// A name: identifier or quoted string.
    fn parse_name(&mut self) -> Result<(String, usize, usize), ParseError> {
        let sp = self.next();
        let (line, column) = (sp.line, sp.column);
        match sp.token {
            Token::Ident(s) => Ok((s, line, column)),
            Token::Quoted(s) => Ok((s, line, column)),
            other => Err(ParseError::new(
                line,
                column,
                format!("expected a name, found {}", other.describe()),
            )),
        }
    }

    fn parse_int_literal(&mut self) -> Result<i64, ParseError> {
        let negative = matches!(self.peek().token, Token::Minus);
        if negative {
            self.pos += 1;
        }
        let sp = self.next();
        let (line, column) = (sp.line, sp.column);
        match sp.token {
            Token::Int(n) => Ok(if negative { -n } else { n }),
            other => Err(ParseError::new(
                line,
                column,
                format!("expected an integer literal, found {}", other.describe()),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn parse_file(&mut self) -> Result<(), ParseError> {
        self.expect_keyword("system")?;
        self.system_name = self.parse_name()?.0;
        loop {
            match &self.peek().token {
                Token::Eof => break,
                Token::Ident(kw) => match kw.as_str() {
                    "clock" => self.parse_clock_decl()?,
                    "var" => self.parse_var_decl()?,
                    "chan" | "urgent" | "broadcast" => self.parse_chan_decl()?,
                    "automaton" => self.parse_automaton()?,
                    other => {
                        return Err(self.error_here(format!(
                            "expected `clock`, `var`, `chan`, `urgent`, `broadcast` or `automaton`, found `{other}`"
                        )))
                    }
                },
                other => {
                    return Err(self.error_here(format!(
                        "expected a declaration, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(())
    }

    fn check_fresh_name(&self, name: &str, line: usize, column: usize) -> Result<(), ParseError> {
        let clash = self.clocks.iter().any(|c| c.name == name)
            || self.vars.iter().any(|v| v.name == name)
            || self.channels.iter().any(|c| c.name == name);
        if clash {
            Err(ParseError::new(
                line,
                column,
                format!("`{name}` is already declared as a clock, variable or channel"),
            ))
        } else {
            Ok(())
        }
    }

    fn parse_clock_decl(&mut self) -> Result<(), ParseError> {
        self.expect_keyword("clock")?;
        loop {
            let (name, line, col) = self.parse_name()?;
            self.check_fresh_name(&name, line, col)?;
            self.clocks.push(ClockDecl { name });
            if !matches!(self.peek().token, Token::Comma) {
                break;
            }
            self.pos += 1;
        }
        Ok(())
    }

    fn parse_var_decl(&mut self) -> Result<(), ParseError> {
        self.expect_keyword("var")?;
        let (name, line, col) = self.parse_name()?;
        self.check_fresh_name(&name, line, col)?;
        self.expect(&Token::Colon)?;
        self.expect_keyword("int")?;
        self.expect(&Token::LBracket)?;
        let min = self.parse_int_literal()?;
        self.expect(&Token::Comma)?;
        let max = self.parse_int_literal()?;
        self.expect(&Token::RBracket)?;
        let init = if matches!(self.peek().token, Token::Assign) {
            self.pos += 1;
            self.parse_int_literal()?
        } else {
            // Default initial value: 0 when the range admits it, else the
            // smallest admissible value.
            0i64.clamp(min, max.max(min))
        };
        if min > max {
            return Err(ParseError::new(
                line,
                col,
                format!("variable `{name}` has an empty range [{min}, {max}]"),
            ));
        }
        if init < min || init > max {
            return Err(ParseError::new(
                line,
                col,
                format!("initial value {init} of `{name}` outside its range [{min}, {max}]"),
            ));
        }
        self.vars.push(VarDecl {
            name,
            min,
            max,
            init,
        });
        Ok(())
    }

    fn parse_chan_decl(&mut self) -> Result<(), ParseError> {
        let kind = if self.eat_keyword("urgent") {
            ChannelKind::Urgent
        } else if self.eat_keyword("broadcast") {
            ChannelKind::Broadcast
        } else {
            ChannelKind::Binary
        };
        self.expect_keyword("chan")?;
        loop {
            let (name, line, col) = self.parse_name()?;
            self.check_fresh_name(&name, line, col)?;
            self.channels.push(ChannelDecl { name, kind });
            if !matches!(self.peek().token, Token::Comma) {
                break;
            }
            self.pos += 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Name resolution helpers
    // ------------------------------------------------------------------

    fn lookup_clock(&self, name: &str) -> Option<ClockId> {
        self.clocks
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClockId(i as u32))
    }

    fn lookup_var(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    fn lookup_channel(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(|i| ChannelId(i as u32))
    }

    // ------------------------------------------------------------------
    // Automata
    // ------------------------------------------------------------------

    fn parse_automaton(&mut self) -> Result<(), ParseError> {
        self.expect_keyword("automaton")?;
        let (name, name_line, name_col) = self.parse_name()?;
        if self.automata.iter().any(|a| a.name == name) {
            return Err(ParseError::new(
                name_line,
                name_col,
                format!("automaton `{name}` is declared twice"),
            ));
        }
        self.expect(&Token::LBrace)?;

        let mut locations: Vec<Location> = Vec::new();
        let mut pending_edges: Vec<(String, usize, usize, String, usize, usize, EdgeBody)> =
            Vec::new();
        let mut initial: Option<(String, usize, usize)> = None;

        loop {
            if matches!(self.peek().token, Token::RBrace) {
                self.pos += 1;
                break;
            }
            if self.peek_keyword("location")
                || self.peek_keyword("committed")
                || self.peek_keyword("urgent")
            {
                let kind = if self.eat_keyword("committed") {
                    LocationKind::Committed
                } else if self.eat_keyword("urgent") {
                    LocationKind::Urgent
                } else {
                    LocationKind::Normal
                };
                self.expect_keyword("location")?;
                let (lname, lline, lcol) = self.parse_name()?;
                if locations.iter().any(|l| l.name == lname) {
                    return Err(ParseError::new(
                        lline,
                        lcol,
                        format!("location `{lname}` is declared twice in automaton `{name}`"),
                    ));
                }
                let invariant = if matches!(self.peek().token, Token::LBrace) {
                    self.pos += 1;
                    self.expect_keyword("invariant")?;
                    let expr = self.parse_expr()?;
                    let inv = self.coerce_clock_conjunction(&expr)?;
                    // Allow an optional trailing `;`.
                    if matches!(self.peek().token, Token::Semi) {
                        self.pos += 1;
                    }
                    self.expect(&Token::RBrace)?;
                    inv
                } else {
                    Vec::new()
                };
                locations.push(Location {
                    name: lname,
                    invariant,
                    kind,
                });
            } else if self.peek_keyword("init") {
                self.pos += 1;
                let (iname, iline, icol) = self.parse_name()?;
                if initial.is_some() {
                    return Err(ParseError::new(
                        iline,
                        icol,
                        format!("automaton `{name}` has more than one `init` declaration"),
                    ));
                }
                initial = Some((iname, iline, icol));
            } else if self.peek_keyword("edge") {
                self.pos += 1;
                let (src, sline, scol) = self.parse_name()?;
                self.expect(&Token::Arrow)?;
                let (dst, dline, dcol) = self.parse_name()?;
                let body = self.parse_edge_body()?;
                pending_edges.push((src, sline, scol, dst, dline, dcol, body));
            } else {
                return Err(self.error_here(format!(
                    "expected `location`, `init`, `edge` or `}}`, found {}",
                    self.peek().token.describe()
                )));
            }
        }

        let loc_id =
            |locs: &[Location], n: &str, line: usize, col: usize| -> Result<LocId, ParseError> {
                locs.iter()
                    .position(|l| l.name == n)
                    .map(|i| LocId(i as u32))
                    .ok_or_else(|| {
                        ParseError::new(
                            line,
                            col,
                            format!("unknown location `{n}` in automaton `{name}`"),
                        )
                    })
            };

        let mut edges = Vec::with_capacity(pending_edges.len());
        for (src, sline, scol, dst, dline, dcol, body) in pending_edges {
            let source = loc_id(&locations, &src, sline, scol)?;
            let target = loc_id(&locations, &dst, dline, dcol)?;
            edges.push(Edge {
                source,
                target,
                guard: body.guard,
                clock_guard: body.clock_guard,
                sync: body.sync,
                updates: body.updates,
                resets: body.resets,
            });
        }

        let (iname, iline, icol) = initial.ok_or_else(|| {
            ParseError::new(
                name_line,
                name_col,
                format!("automaton `{name}` is missing an `init` declaration"),
            )
        })?;
        let initial = loc_id(&locations, &iname, iline, icol)?;

        self.automata.push(Automaton {
            name,
            locations,
            edges,
            initial,
        });
        Ok(())
    }

    fn parse_edge_body(&mut self) -> Result<EdgeBody, ParseError> {
        let mut body = EdgeBody::default();
        if !matches!(self.peek().token, Token::LBrace) {
            // Attribute-less edge.
            return Ok(body);
        }
        self.pos += 1;
        loop {
            // Attribute separators: optional `;` between items.
            while matches!(self.peek().token, Token::Semi) {
                self.pos += 1;
            }
            if matches!(self.peek().token, Token::RBrace) {
                self.pos += 1;
                break;
            }
            if self.eat_keyword("guard") {
                let expr = self.parse_expr()?;
                let (clock_atoms, data) = self.split_guard(&expr)?;
                body.clock_guard.extend(clock_atoms);
                body.guard = std::mem::replace(&mut body.guard, BoolExpr::tt()).and(data);
            } else if self.eat_keyword("when") {
                let expr = self.parse_expr()?;
                body.clock_guard
                    .extend(self.coerce_clock_conjunction(&expr)?);
            } else if self.eat_keyword("sync") {
                let (cname, cline, ccol) = self.parse_name()?;
                let channel = self.lookup_channel(&cname).ok_or_else(|| {
                    ParseError::new(cline, ccol, format!("unknown channel `{cname}`"))
                })?;
                let sp = self.next();
                let (sline, scol) = (sp.line, sp.column);
                body.sync = match sp.token {
                    Token::Bang => Sync::Send(channel),
                    Token::Question => Sync::Recv(channel),
                    other => {
                        return Err(ParseError::new(
                            sline,
                            scol,
                            format!(
                                "expected `!` or `?` after channel name, found {}",
                                other.describe()
                            ),
                        ))
                    }
                };
            } else if self.eat_keyword("update") {
                loop {
                    let (vname, vline, vcol) = self.parse_name()?;
                    self.expect(&Token::Assign)?;
                    let rhs = self.parse_expr()?;
                    if let Some(clock) = self.lookup_clock(&vname) {
                        // Convenience: `update x = 3` on a clock is a reset.
                        let value = self.coerce_int(&rhs)?;
                        match value {
                            IntExpr::Const(v) => body.resets.push((clock, v)),
                            _ => {
                                return Err(ParseError::new(
                                    vline,
                                    vcol,
                                    format!("clock `{vname}` can only be reset to a constant"),
                                ))
                            }
                        }
                    } else {
                        let var = self.lookup_var(&vname).ok_or_else(|| {
                            ParseError::new(vline, vcol, format!("unknown variable `{vname}`"))
                        })?;
                        body.updates.push(Update {
                            var,
                            expr: self.coerce_int(&rhs)?,
                        });
                    }
                    if matches!(self.peek().token, Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            } else if self.eat_keyword("reset") {
                loop {
                    let (cname, cline, ccol) = self.parse_name()?;
                    let clock = self.lookup_clock(&cname).ok_or_else(|| {
                        ParseError::new(cline, ccol, format!("unknown clock `{cname}`"))
                    })?;
                    let value = if matches!(self.peek().token, Token::Assign) {
                        self.pos += 1;
                        self.parse_int_literal()?
                    } else {
                        0
                    };
                    body.resets.push((clock, value));
                    if matches!(self.peek().token, Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            } else {
                return Err(self.error_here(format!(
                    "expected `guard`, `when`, `sync`, `update`, `reset` or `}}`, found {}",
                    self.peek().token.describe()
                )));
            }
        }
        Ok(body)
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<UExpr, ParseError> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<UExpr, ParseError> {
        let cond = self.parse_or()?;
        if matches!(self.peek().token, Token::Question) {
            self.pos += 1;
            let then = self.parse_ternary()?;
            self.expect(&Token::Colon)?;
            let otherwise = self.parse_ternary()?;
            Ok(UExpr::Ternary(
                Box::new(cond),
                Box::new(then),
                Box::new(otherwise),
            ))
        } else {
            Ok(cond)
        }
    }

    fn parse_or(&mut self) -> Result<UExpr, ParseError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek().token, Token::OrOr) {
            self.pos += 1;
            let rhs = self.parse_and()?;
            lhs = UExpr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<UExpr, ParseError> {
        let mut lhs = self.parse_not()?;
        while matches!(self.peek().token, Token::AndAnd) {
            self.pos += 1;
            let rhs = self.parse_not()?;
            lhs = UExpr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<UExpr, ParseError> {
        if matches!(self.peek().token, Token::Bang) {
            self.pos += 1;
            let inner = self.parse_not()?;
            Ok(UExpr::Not(Box::new(inner)))
        } else {
            self.parse_rel()
        }
    }

    fn parse_rel(&mut self) -> Result<UExpr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek().token {
            Token::EqEq => Some(BinOp::Eq),
            Token::Ne => Some(BinOp::Ne),
            Token::Lt => Some(BinOp::Lt),
            Token::Le => Some(BinOp::Le),
            Token::Gt => Some(BinOp::Gt),
            Token::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_add()?;
            Ok(UExpr::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_add(&mut self) -> Result<UExpr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek().token {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_mul()?;
            lhs = UExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<UExpr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek().token {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = UExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<UExpr, ParseError> {
        if matches!(self.peek().token, Token::Minus) {
            self.pos += 1;
            // A minus directly followed by an integer literal is a negative
            // constant; anything else is arithmetic negation.
            if let Token::Int(n) = self.peek().token {
                self.pos += 1;
                return Ok(UExpr::Int(-n));
            }
            let inner = self.parse_unary()?;
            return Ok(UExpr::Neg(Box::new(inner)));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<UExpr, ParseError> {
        let sp = self.next();
        let (line, column) = (sp.line, sp.column);
        match sp.token {
            Token::Int(n) => Ok(UExpr::Int(n)),
            Token::Ident(s) if s == "true" => Ok(UExpr::Bool(true)),
            Token::Ident(s) if s == "false" => Ok(UExpr::Bool(false)),
            Token::Ident(s) => Ok(UExpr::Name(s, line, column)),
            Token::Quoted(s) => Ok(UExpr::Name(s, line, column)),
            Token::LParen => {
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            other => Err(ParseError::new(
                line,
                column,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Coercions from the untyped tree
    // ------------------------------------------------------------------

    fn coerce_int(&self, e: &UExpr) -> Result<IntExpr, ParseError> {
        match e {
            UExpr::Int(n) => Ok(IntExpr::Const(*n)),
            UExpr::Bool(_) => Err(ParseError::new(
                0,
                0,
                "expected an integer expression, found a boolean literal",
            )),
            UExpr::Name(n, line, col) => {
                if let Some(v) = self.lookup_var(n) {
                    Ok(IntExpr::Var(v))
                } else if self.lookup_clock(n).is_some() {
                    Err(ParseError::new(
                        *line,
                        *col,
                        format!("clock `{n}` cannot appear inside an integer expression"),
                    ))
                } else {
                    Err(ParseError::new(
                        *line,
                        *col,
                        format!("unknown variable `{n}`"),
                    ))
                }
            }
            UExpr::Neg(a) => Ok(IntExpr::Neg(Box::new(self.coerce_int(a)?))),
            UExpr::Not(_) => Err(ParseError::new(
                0,
                0,
                "boolean negation cannot appear inside an integer expression",
            )),
            UExpr::Bin(op, a, b) => {
                let make = |ctor: fn(Box<IntExpr>, Box<IntExpr>) -> IntExpr,
                            a: IntExpr,
                            b: IntExpr| ctor(Box::new(a), Box::new(b));
                match op {
                    BinOp::Add => Ok(make(IntExpr::Add, self.coerce_int(a)?, self.coerce_int(b)?)),
                    BinOp::Sub => Ok(make(IntExpr::Sub, self.coerce_int(a)?, self.coerce_int(b)?)),
                    BinOp::Mul => Ok(make(IntExpr::Mul, self.coerce_int(a)?, self.coerce_int(b)?)),
                    BinOp::Div => Ok(make(IntExpr::Div, self.coerce_int(a)?, self.coerce_int(b)?)),
                    _ => Err(ParseError::new(
                        0,
                        0,
                        "expected an integer expression, found a comparison or boolean operator",
                    )),
                }
            }
            UExpr::Ternary(c, t, e) => Ok(IntExpr::Ite(
                Box::new(self.coerce_bool(c)?),
                Box::new(self.coerce_int(t)?),
                Box::new(self.coerce_int(e)?),
            )),
        }
    }

    fn coerce_bool(&self, e: &UExpr) -> Result<BoolExpr, ParseError> {
        match e {
            UExpr::Bool(b) => Ok(BoolExpr::Const(*b)),
            UExpr::Not(a) => Ok(BoolExpr::Not(Box::new(self.coerce_bool(a)?))),
            UExpr::Bin(op, a, b) => match op {
                BinOp::And => Ok(BoolExpr::And(
                    Box::new(self.coerce_bool(a)?),
                    Box::new(self.coerce_bool(b)?),
                )),
                BinOp::Or => Ok(BoolExpr::Or(
                    Box::new(self.coerce_bool(a)?),
                    Box::new(self.coerce_bool(b)?),
                )),
                BinOp::Eq => Ok(BoolExpr::Eq(self.coerce_int(a)?, self.coerce_int(b)?)),
                BinOp::Ne => Ok(BoolExpr::Ne(self.coerce_int(a)?, self.coerce_int(b)?)),
                BinOp::Lt => Ok(BoolExpr::Lt(self.coerce_int(a)?, self.coerce_int(b)?)),
                BinOp::Le => Ok(BoolExpr::Le(self.coerce_int(a)?, self.coerce_int(b)?)),
                BinOp::Gt => Ok(BoolExpr::Gt(self.coerce_int(a)?, self.coerce_int(b)?)),
                BinOp::Ge => Ok(BoolExpr::Ge(self.coerce_int(a)?, self.coerce_int(b)?)),
                _ => Err(ParseError::new(
                    0,
                    0,
                    "expected a boolean expression, found an arithmetic operator",
                )),
            },
            UExpr::Int(_) | UExpr::Name(..) | UExpr::Neg(_) | UExpr::Ternary(..) => {
                Err(ParseError::new(
                    0,
                    0,
                    "expected a boolean expression, found an integer expression",
                ))
            }
        }
    }

    /// Coerces an expression that must be a conjunction of clock atoms
    /// (`clock op int-expr`), e.g. an invariant or a `when` clause.
    fn coerce_clock_conjunction(&self, e: &UExpr) -> Result<Vec<ClockConstraint>, ParseError> {
        let mut atoms = Vec::new();
        self.collect_conjuncts(e, &mut atoms);
        let mut out = Vec::new();
        for atom in atoms {
            match self.coerce_clock_atom(atom)? {
                Some(cc) => out.push(cc),
                None => {
                    return Err(ParseError::new(
                        0,
                        0,
                        "invariants and `when` clauses may only contain clock constraints \
                         of the form `clock op expr`",
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Splits a mixed `guard` expression into its clock atoms and its data
    /// guard.  Clock atoms may only appear as top-level conjuncts.
    ///
    /// When the guard contains no clock atom at all, the boolean expression is
    /// kept exactly as written (no re-association of `&&`), so that printing
    /// and re-parsing a system preserves guard structure.
    fn split_guard(&self, e: &UExpr) -> Result<(Vec<ClockConstraint>, BoolExpr), ParseError> {
        let mut conjuncts = Vec::new();
        self.collect_conjuncts(e, &mut conjuncts);
        let has_clock_atom = conjuncts
            .iter()
            .any(|c| matches!(self.coerce_clock_atom(c), Ok(Some(_))));
        if !has_clock_atom {
            self.reject_clock_references(e)?;
            return Ok((Vec::new(), self.coerce_bool(e)?));
        }
        let mut clock_atoms = Vec::new();
        let mut data = BoolExpr::tt();
        for c in conjuncts {
            if let Some(cc) = self.coerce_clock_atom(c)? {
                clock_atoms.push(cc);
            } else {
                self.reject_clock_references(c)?;
                data = data.and(self.coerce_bool(c)?);
            }
        }
        Ok((clock_atoms, data))
    }

    fn collect_conjuncts<'e>(&self, e: &'e UExpr, out: &mut Vec<&'e UExpr>) {
        if let UExpr::Bin(BinOp::And, a, b) = e {
            self.collect_conjuncts(a, out);
            self.collect_conjuncts(b, out);
        } else {
            out.push(e);
        }
    }

    /// If the expression is a relation whose left-hand side is a clock name,
    /// returns the corresponding constraint; `Ok(None)` if it does not mention
    /// a clock on its left-hand side.
    fn coerce_clock_atom(&self, e: &UExpr) -> Result<Option<ClockConstraint>, ParseError> {
        let UExpr::Bin(op, lhs, rhs) = e else {
            return Ok(None);
        };
        let UExpr::Name(n, line, col) = lhs.as_ref() else {
            return Ok(None);
        };
        let Some(clock) = self.lookup_clock(n) else {
            return Ok(None);
        };
        let rel = match op {
            BinOp::Lt => RelOp::Lt,
            BinOp::Le => RelOp::Le,
            BinOp::Eq => RelOp::Eq,
            BinOp::Ge => RelOp::Ge,
            BinOp::Gt => RelOp::Gt,
            BinOp::Ne => {
                return Err(ParseError::new(
                    *line,
                    *col,
                    format!("clock `{n}` cannot be constrained with `!=`"),
                ))
            }
            _ => {
                return Err(ParseError::new(
                    *line,
                    *col,
                    format!("clock `{n}` cannot appear inside arithmetic or boolean operators"),
                ))
            }
        };
        let rhs = self.coerce_int(rhs)?;
        Ok(Some(ClockConstraint {
            clock,
            op: rel,
            rhs,
        }))
    }

    /// Rejects clock references anywhere inside a data conjunct, so that
    /// misplaced clock constraints (e.g. under `||`) produce a clear error
    /// instead of an "unknown variable" message.
    fn reject_clock_references(&self, e: &UExpr) -> Result<(), ParseError> {
        match e {
            UExpr::Name(n, line, col) => {
                if self.lookup_clock(n).is_some() {
                    Err(ParseError::new(
                        *line,
                        *col,
                        format!(
                            "clock `{n}` may only appear in a top-level conjunct of the form `{n} op expr`"
                        ),
                    ))
                } else {
                    Ok(())
                }
            }
            UExpr::Int(_) | UExpr::Bool(_) => Ok(()),
            UExpr::Neg(a) | UExpr::Not(a) => self.reject_clock_references(a),
            UExpr::Bin(_, a, b) => {
                self.reject_clock_references(a)?;
                self.reject_clock_references(b)
            }
            UExpr::Ternary(c, t, e) => {
                self.reject_clock_references(c)?;
                self.reject_clock_references(t)?;
                self.reject_clock_references(e)
            }
        }
    }
}

#[derive(Debug)]
struct EdgeBody {
    guard: BoolExpr,
    clock_guard: Vec<ClockConstraint>,
    sync: Sync,
    updates: Vec<Update>,
    resets: Vec<(ClockId, i64)>,
}

impl Default for EdgeBody {
    fn default() -> Self {
        EdgeBody {
            guard: BoolExpr::tt(),
            clock_guard: Vec::new(),
            sync: Sync::Tau,
            updates: Vec::new(),
            resets: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clockcon::ClockRef;
    use crate::expr::VarExprExt;

    const LAMP: &str = r#"
        system lamp
        clock x
        var presses: int[0, 100] = 0
        chan press
        urgent chan hurry

        automaton lamp {
            location off
            location on { invariant x <= 10 }
            committed location flash
            init off
            edge off -> on { sync press? ; reset x ; update presses = presses + 1 }
            edge on -> flash { when x >= 5 }
            edge flash -> off { }
        }

        automaton user {
            location idle
            init idle
            edge idle -> idle { sync press! }
        }
    "#;

    #[test]
    fn parses_a_small_system() {
        let sys = parse_system(LAMP).unwrap();
        assert_eq!(sys.name, "lamp");
        assert_eq!(sys.clocks.len(), 1);
        assert_eq!(sys.vars.len(), 1);
        assert_eq!(sys.channels.len(), 2);
        assert_eq!(sys.automata.len(), 2);
        assert!(sys.validate().is_ok());

        let lamp = &sys.automata[0];
        assert_eq!(lamp.locations.len(), 3);
        assert_eq!(lamp.locations[2].kind, LocationKind::Committed);
        assert_eq!(lamp.initial, LocId(0));
        assert_eq!(lamp.edges.len(), 3);
        let e0 = &lamp.edges[0];
        assert_eq!(e0.sync, Sync::Recv(ChannelId(0)));
        assert_eq!(e0.resets, vec![(ClockId(0), 0)]);
        assert_eq!(e0.updates.len(), 1);
        let e1 = &lamp.edges[1];
        assert_eq!(e1.clock_guard, vec![ClockId(0).ge(5)]);
    }

    #[test]
    fn mixed_guard_is_split_into_clock_and_data_parts() {
        let src = r#"
            system g
            clock x
            var n: int[0, 5] = 0
            automaton a {
                location s
                location t
                init s
                edge s -> t { guard n > 0 && x >= 3 && n < 5 }
            }
        "#;
        let sys = parse_system(src).unwrap();
        let e = &sys.automata[0].edges[0];
        assert_eq!(e.clock_guard, vec![ClockId(0).ge(3)]);
        let expected = VarId(0).gt_(0).and(VarId(0).lt_(5));
        assert_eq!(e.guard, expected);
    }

    #[test]
    fn ternary_and_nested_arithmetic() {
        let src = r#"
            system t
            var m: int[-1, 10] = -1
            var n: int[0, 10] = 0
            automaton a {
                location s
                init s
                edge s -> s { update m = (m < 0 ? m : m - 1), n = (n + 2) * 3 }
            }
        "#;
        let sys = parse_system(src).unwrap();
        let ups = &sys.automata[0].edges[0].updates;
        assert_eq!(ups.len(), 2);
        assert!(matches!(ups[0].expr, IntExpr::Ite(..)));
        assert!(matches!(ups[1].expr, IntExpr::Mul(..)));
    }

    #[test]
    fn quoted_names_allow_keywords_and_spaces() {
        let src = r#"
            system "weird system"
            clock "my clock"
            automaton "edge machine" {
                location "init"
                init "init"
                edge "init" -> "init" { when "my clock" >= 1 ; reset "my clock" }
            }
        "#;
        let sys = parse_system(src).unwrap();
        assert_eq!(sys.name, "weird system");
        assert_eq!(sys.automata[0].name, "edge machine");
        assert_eq!(sys.automata[0].locations[0].name, "init");
    }

    #[test]
    fn errors_have_positions_and_messages() {
        let err = parse_system("system s\nclock x\nclock x").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("already declared"));

        let err = parse_system("system s\nautomaton a { location l init l edge l -> nowhere }")
            .unwrap_err();
        assert!(err.message.contains("unknown location"));

        let err = parse_system("system s\nautomaton a { location l }").unwrap_err();
        assert!(err.message.contains("missing an `init`"));

        let err = parse_system("system s\nvar v: int[5, 1]").unwrap_err();
        assert!(err.message.contains("empty range"));

        let err = parse_system("system s\nvar v: int[0, 5] = 9").unwrap_err();
        assert!(err.message.contains("outside its range"));
    }

    #[test]
    fn clock_misuse_is_rejected() {
        let base = r#"
            system s
            clock x
            var n: int[0, 5] = 0
            automaton a {
                location l
                init l
        "#;
        // Clock under a disjunction.
        let err =
            parse_system(&format!("{base} edge l -> l {{ guard n > 0 || x > 1 }} }}")).unwrap_err();
        assert!(
            err.message.contains("top-level conjunct"),
            "{}",
            err.message
        );
        // Clock compared with !=.
        let err = parse_system(&format!("{base} edge l -> l {{ when x != 3 }} }}")).unwrap_err();
        assert!(err.message.contains("!="), "{}", err.message);
        // Clock inside arithmetic.
        let err =
            parse_system(&format!("{base} edge l -> l {{ update n = x + 1 }} }}")).unwrap_err();
        assert!(
            err.message.contains("integer expression"),
            "{}",
            err.message
        );
        // Invariant with a data atom.
        let err = parse_system(&format!(
            "{base} location m {{ invariant n < 3 }} edge l -> m {{ }} }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("clock constraints"), "{}", err.message);
    }

    #[test]
    fn unknown_names_are_reported() {
        let err =
            parse_system("system s\nautomaton a { location l init l edge l -> l { sync nope! } }")
                .unwrap_err();
        assert!(err.message.contains("unknown channel"));

        let err = parse_system(
            "system s\nautomaton a { location l init l edge l -> l { update nope = 1 } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown variable"));

        let err =
            parse_system("system s\nautomaton a { location l init l edge l -> l { reset nope } }")
                .unwrap_err();
        assert!(err.message.contains("unknown clock"));
    }

    #[test]
    fn negative_literals_and_negation() {
        let src = r#"
            system neg
            var m: int[-10, 10] = -3
            automaton a {
                location l
                init l
                edge l -> l { guard m >= -5 ; update m = -(m) }
            }
        "#;
        let sys = parse_system(src).unwrap();
        assert_eq!(sys.vars[0].init, -3);
        let e = &sys.automata[0].edges[0];
        assert_eq!(e.guard, VarId(0).ge_(-5));
        assert!(matches!(e.updates[0].expr, IntExpr::Neg(_)));
    }

    #[test]
    fn clock_reset_via_update_sugar() {
        let src = r#"
            system r
            clock x
            automaton a {
                location l
                init l
                edge l -> l { update x = 4 }
            }
        "#;
        let sys = parse_system(src).unwrap();
        assert_eq!(sys.automata[0].edges[0].resets, vec![(ClockId(0), 4)]);
    }
}
