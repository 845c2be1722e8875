//! Tokenizer for the `.tta` textual model format.

use super::ParseError;

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Token {
    /// Identifier or keyword (keywords are recognised by the parser).
    Ident(String),
    /// Quoted name (allows arbitrary characters and keyword collisions).
    Quoted(String),
    /// Integer literal (always non-negative; unary minus is a separate token).
    Int(i64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `->`
    Arrow,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `?`
    Question,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

impl Token {
    /// Short description used in error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier `{s}`"),
            Token::Quoted(s) => format!("name \"{s}\""),
            Token::Int(n) => format!("integer `{n}`"),
            Token::LBrace => "`{`".into(),
            Token::RBrace => "`}`".into(),
            Token::LParen => "`(`".into(),
            Token::RParen => "`)`".into(),
            Token::LBracket => "`[`".into(),
            Token::RBracket => "`]`".into(),
            Token::Comma => "`,`".into(),
            Token::Colon => "`:`".into(),
            Token::Semi => "`;`".into(),
            Token::Arrow => "`->`".into(),
            Token::Assign => "`=`".into(),
            Token::EqEq => "`==`".into(),
            Token::Ne => "`!=`".into(),
            Token::Lt => "`<`".into(),
            Token::Le => "`<=`".into(),
            Token::Gt => "`>`".into(),
            Token::Ge => "`>=`".into(),
            Token::AndAnd => "`&&`".into(),
            Token::OrOr => "`||`".into(),
            Token::Bang => "`!`".into(),
            Token::Question => "`?`".into(),
            Token::Plus => "`+`".into(),
            Token::Minus => "`-`".into(),
            Token::Star => "`*`".into(),
            Token::Slash => "`/`".into(),
            Token::Eof => "end of input".into(),
        }
    }
}

/// A token together with its source position (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Spanned {
    pub token: Token,
    pub line: usize,
    pub column: usize,
}

/// Tokenizes the complete input, appending a final [`Token::Eof`].
pub(crate) fn tokenize(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut column = 1usize;

    let advance = |i: &mut usize, line: &mut usize, column: &mut usize, c: char| {
        *i += 1;
        if c == '\n' {
            *line += 1;
            *column = 1;
        } else {
            *column += 1;
        }
    };

    while i < bytes.len() {
        let c = bytes[i];
        let (tok_line, tok_col) = (line, column);
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                advance(&mut i, &mut line, &mut column, c);
            }
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    let ch = bytes[i];
                    advance(&mut i, &mut line, &mut column, ch);
                }
            }
            '"' => {
                advance(&mut i, &mut line, &mut column, c);
                let mut s = String::new();
                let mut closed = false;
                while i < bytes.len() {
                    let c = bytes[i];
                    advance(&mut i, &mut line, &mut column, c);
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        return Err(ParseError::new(
                            tok_line,
                            tok_col,
                            "unterminated quoted name (newline before closing quote)",
                        ));
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(ParseError::new(
                        tok_line,
                        tok_col,
                        "unterminated quoted name",
                    ));
                }
                out.push(Spanned {
                    token: Token::Quoted(s),
                    line: tok_line,
                    column: tok_col,
                });
            }
            '0'..='9' => {
                let mut value: i64 = 0;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    let ch = bytes[i];
                    let d = ch as i64 - '0' as i64;
                    value = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(d))
                        .ok_or_else(|| {
                            ParseError::new(tok_line, tok_col, "integer literal overflows i64")
                        })?;
                    advance(&mut i, &mut line, &mut column, ch);
                }
                out.push(Spanned {
                    token: Token::Int(value),
                    line: tok_line,
                    column: tok_col,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    let ch = bytes[i];
                    s.push(ch);
                    advance(&mut i, &mut line, &mut column, ch);
                }
                out.push(Spanned {
                    token: Token::Ident(s),
                    line: tok_line,
                    column: tok_col,
                });
            }
            _ => {
                let two: Option<(char, char)> = bytes.get(i + 1).map(|&n| (c, n));
                let token = match two {
                    Some(('-', '>')) => Some(Token::Arrow),
                    Some(('=', '=')) => Some(Token::EqEq),
                    Some(('!', '=')) => Some(Token::Ne),
                    Some(('<', '=')) => Some(Token::Le),
                    Some(('>', '=')) => Some(Token::Ge),
                    Some(('&', '&')) => Some(Token::AndAnd),
                    Some(('|', '|')) => Some(Token::OrOr),
                    _ => None,
                };
                if let Some(token) = token {
                    let ch0 = bytes[i];
                    advance(&mut i, &mut line, &mut column, ch0);
                    let ch1 = bytes[i];
                    advance(&mut i, &mut line, &mut column, ch1);
                    out.push(Spanned {
                        token,
                        line: tok_line,
                        column: tok_col,
                    });
                    continue;
                }
                let token = match c {
                    '{' => Token::LBrace,
                    '}' => Token::RBrace,
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    '[' => Token::LBracket,
                    ']' => Token::RBracket,
                    ',' => Token::Comma,
                    ':' => Token::Colon,
                    ';' => Token::Semi,
                    '=' => Token::Assign,
                    '<' => Token::Lt,
                    '>' => Token::Gt,
                    '!' => Token::Bang,
                    '?' => Token::Question,
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '*' => Token::Star,
                    '/' => Token::Slash,
                    other => {
                        return Err(ParseError::new(
                            tok_line,
                            tok_col,
                            format!("unexpected character `{other}`"),
                        ))
                    }
                };
                advance(&mut i, &mut line, &mut column, c);
                out.push(Spanned {
                    token,
                    line: tok_line,
                    column: tok_col,
                });
            }
        }
    }
    out.push(Spanned {
        token: Token::Eof,
        line,
        column,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("edge a -> b { guard x <= 10 && n != 0 }"),
            vec![
                Token::Ident("edge".into()),
                Token::Ident("a".into()),
                Token::Arrow,
                Token::Ident("b".into()),
                Token::LBrace,
                Token::Ident("guard".into()),
                Token::Ident("x".into()),
                Token::Le,
                Token::Int(10),
                Token::AndAnd,
                Token::Ident("n".into()),
                Token::Ne,
                Token::Int(0),
                Token::RBrace,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_quoted_names() {
        assert_eq!(
            toks("clock x // trailing comment\n\"strange name\" ?"),
            vec![
                Token::Ident("clock".into()),
                Token::Ident("x".into()),
                Token::Quoted("strange name".into()),
                Token::Question,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let spanned = tokenize("a\n  bb").unwrap();
        assert_eq!(spanned[0].line, 1);
        assert_eq!(spanned[0].column, 1);
        assert_eq!(spanned[1].line, 2);
        assert_eq!(spanned[1].column, 3);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(tokenize("\"oops").is_err());
        assert!(tokenize("\"oops\nmore\"").is_err());
    }

    #[test]
    fn unknown_character_is_an_error() {
        let err = tokenize("a @ b").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.column, 3);
    }

    #[test]
    fn integer_overflow_is_reported() {
        assert!(tokenize("99999999999999999999999999").is_err());
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(Token::Ident("foo".into()).describe(), "identifier `foo`");
        assert_eq!(Token::Arrow.describe(), "`->`");
        assert_eq!(Token::Eof.describe(), "end of input");
    }
}
