//! Lexer for the mini-HPF dialect.
//!
//! Handles Fortran-style `&` continuation lines (both trailing `&` and a
//! leading `&` on the continuation), `!` comments, the `!HPF$` directive
//! prefix, case-insensitive keywords, and numeric literals with exponents.

use crate::error::{FrontError, Span};

/// Token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (uppercased).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `/=`
    Ne,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of a logical line (continuations folded away).
    Newline,
    /// Start of an `!HPF$` directive (rest of line lexes normally).
    HpfDirective,
    /// End of input.
    Eof,
}

/// A token with its source location.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Kind and payload.
    pub tok: Tok,
    /// Location of the first character.
    pub span: Span,
}

/// Lex a source string into tokens. Logical lines end with [`Tok::Newline`];
/// a trailing `&` (or a leading `&` on the next line) joins lines.
pub fn lex(src: &str) -> Result<Vec<Token>, FrontError> {
    let mut out = Vec::new();
    let mut pending_continuation = false;
    // Buffers reused from line to line and literal to literal.
    let (mut bytes, mut line_tokens, mut text) = (Vec::new(), Vec::new(), String::new());
    for (lineno, raw_line) in src.lines().enumerate() {
        let line_no = lineno as u32 + 1;
        bytes.clear();
        bytes.extend(raw_line.chars());
        let mut i = 0usize;
        // A leading '&' marks the continuation of the previous line.
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == '&' {
            i += 1;
        }
        let mut continued = false;
        while i < bytes.len() {
            let c = bytes[i];
            let span = Span::new(line_no, i as u32 + 1);
            match c {
                ' ' | '\t' | '\r' => {
                    i += 1;
                }
                '!' => {
                    // Directive or comment.
                    let rest = bytes[i..].iter().map(char::to_ascii_uppercase);
                    if rest.take(5).eq("!HPF$".chars()) {
                        line_tokens.push(Token { tok: Tok::HpfDirective, span });
                        i += 5;
                    } else {
                        break; // comment to end of line
                    }
                }
                '&' => {
                    continued = true;
                    i += 1;
                    // Anything after '&' other than whitespace/comment is an error.
                    while i < bytes.len() && bytes[i].is_whitespace() {
                        i += 1;
                    }
                    if i < bytes.len() && bytes[i] != '!' {
                        return Err(FrontError::new(
                            Span::new(line_no, i as u32 + 1),
                            "unexpected text after continuation '&'",
                        ));
                    }
                    i = bytes.len();
                }
                '(' => {
                    line_tokens.push(Token { tok: Tok::LParen, span });
                    i += 1;
                }
                ')' => {
                    line_tokens.push(Token { tok: Tok::RParen, span });
                    i += 1;
                }
                ',' => {
                    line_tokens.push(Token { tok: Tok::Comma, span });
                    i += 1;
                }
                ':' => {
                    line_tokens.push(Token { tok: Tok::Colon, span });
                    i += 1;
                }
                '=' => {
                    if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                        line_tokens.push(Token { tok: Tok::EqEq, span });
                        i += 2;
                    } else {
                        line_tokens.push(Token { tok: Tok::Eq, span });
                        i += 1;
                    }
                }
                '>' => {
                    if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                        line_tokens.push(Token { tok: Tok::Ge, span });
                        i += 2;
                    } else {
                        line_tokens.push(Token { tok: Tok::Gt, span });
                        i += 1;
                    }
                }
                '<' => {
                    if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                        line_tokens.push(Token { tok: Tok::Le, span });
                        i += 2;
                    } else {
                        line_tokens.push(Token { tok: Tok::Lt, span });
                        i += 1;
                    }
                }
                '+' => {
                    line_tokens.push(Token { tok: Tok::Plus, span });
                    i += 1;
                }
                '-' => {
                    line_tokens.push(Token { tok: Tok::Minus, span });
                    i += 1;
                }
                '*' => {
                    line_tokens.push(Token { tok: Tok::Star, span });
                    i += 1;
                }
                '/' => {
                    if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                        line_tokens.push(Token { tok: Tok::Ne, span });
                        i += 2;
                    } else {
                        line_tokens.push(Token { tok: Tok::Slash, span });
                        i += 1;
                    }
                }
                c if c.is_ascii_digit() || c == '.' => {
                    let start = i;
                    let mut is_float = false;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i < bytes.len() && bytes[i] == '.' {
                        // Guard against `1:2` style ranges — '.' always means float here.
                        is_float = true;
                        i += 1;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    if i < bytes.len() && (bytes[i] == 'e' || bytes[i] == 'E') {
                        let save = i;
                        i += 1;
                        if i < bytes.len() && (bytes[i] == '+' || bytes[i] == '-') {
                            i += 1;
                        }
                        if i < bytes.len() && bytes[i].is_ascii_digit() {
                            is_float = true;
                            while i < bytes.len() && bytes[i].is_ascii_digit() {
                                i += 1;
                            }
                        } else {
                            i = save; // 'E' begins an identifier, not an exponent
                        }
                    }
                    text.clear();
                    text.extend(&bytes[start..i]);
                    if text == "." {
                        return Err(FrontError::new(span, "stray '.'"));
                    }
                    let tok = if is_float {
                        Tok::Float(text.parse().map_err(|_| {
                            FrontError::new(span, format!("bad float literal '{text}'"))
                        })?)
                    } else {
                        Tok::Int(text.parse().map_err(|_| {
                            FrontError::new(span, format!("bad integer literal '{text}'"))
                        })?)
                    };
                    line_tokens.push(Token { tok, span });
                }
                c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                    let start = i;
                    while i < bytes.len()
                        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_' || bytes[i] == '$')
                    {
                        i += 1;
                    }
                    let text = bytes[start..i].iter().map(char::to_ascii_uppercase).collect();
                    line_tokens.push(Token { tok: Tok::Ident(text), span });
                }
                other => {
                    return Err(FrontError::new(span, format!("unexpected character '{other}'")));
                }
            }
        }
        if line_tokens.is_empty() && !continued {
            // Blank/comment-only line: emit nothing, but if the previous
            // line ended with '&' keep waiting for its continuation.
            continue;
        }
        let _ = pending_continuation; // tracked via Newline suppression below
        out.append(&mut line_tokens);
        if continued {
            pending_continuation = true;
        } else {
            pending_continuation = false;
            out.push(Token {
                tok: Tok::Newline,
                span: Span::new(line_no, raw_line.len() as u32 + 1),
            });
        }
    }
    out.push(Token { tok: Tok::Eof, span: Span::new(src.lines().count() as u32 + 1, 1) });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn simple_assignment() {
        let toks = kinds("A = B + 1");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("A".into()),
                Tok::Eq,
                Tok::Ident("B".into()),
                Tok::Plus,
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn case_insensitive_idents() {
        assert_eq!(kinds("cshift")[0], Tok::Ident("CSHIFT".into()));
    }

    #[test]
    fn floats_and_exponents() {
        assert_eq!(kinds("0.25")[0], Tok::Float(0.25));
        assert_eq!(kinds("1e-3")[0], Tok::Float(1e-3));
        assert_eq!(kinds("2.5E2")[0], Tok::Float(250.0));
        assert_eq!(kinds("7")[0], Tok::Int(7));
    }

    #[test]
    fn exponent_vs_ident() {
        // `1E` followed by non-digit is int then ident.
        let toks = kinds("1E");
        assert_eq!(toks[0], Tok::Int(1));
        assert_eq!(toks[1], Tok::Ident("E".into()));
    }

    #[test]
    fn continuation_trailing_amp() {
        let toks = kinds("A = B &\n  + C");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("A".into()),
                Tok::Eq,
                Tok::Ident("B".into()),
                Tok::Plus,
                Tok::Ident("C".into()),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn continuation_leading_amp() {
        let toks = kinds("A = B &\n& + C");
        assert!(toks.contains(&Tok::Plus));
        assert_eq!(toks.iter().filter(|t| **t == Tok::Newline).count(), 1);
    }

    #[test]
    fn comments_ignored() {
        let toks = kinds("A = 1 ! set A\n! full comment line\nB = 2");
        assert_eq!(toks.iter().filter(|t| **t == Tok::Newline).count(), 2);
    }

    #[test]
    fn hpf_directive() {
        let toks = kinds("!HPF$ DISTRIBUTE U(BLOCK,BLOCK)");
        assert_eq!(toks[0], Tok::HpfDirective);
        assert_eq!(toks[1], Tok::Ident("DISTRIBUTE".into()));
        assert_eq!(toks[2], Tok::Ident("U".into()));
    }

    #[test]
    fn directive_lowercase() {
        let toks = kinds("!hpf$ distribute u(block,*)");
        assert_eq!(toks[0], Tok::HpfDirective);
        assert!(toks.contains(&Tok::Star));
    }

    #[test]
    fn bad_character_errors() {
        let err = lex("A = #").unwrap_err();
        assert!(err.message.contains('#'));
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn text_after_continuation_errors() {
        assert!(lex("A = B & C").is_err());
        assert!(lex("A = B & ! fine").is_ok());
    }

    #[test]
    fn comparison_tokens() {
        assert_eq!(
            kinds("A > B >= C < D <= E == F /= G"),
            vec![
                Tok::Ident("A".into()),
                Tok::Gt,
                Tok::Ident("B".into()),
                Tok::Ge,
                Tok::Ident("C".into()),
                Tok::Lt,
                Tok::Ident("D".into()),
                Tok::Le,
                Tok::Ident("E".into()),
                Tok::EqEq,
                Tok::Ident("F".into()),
                Tok::Ne,
                Tok::Ident("G".into()),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn slash_vs_not_equal() {
        assert_eq!(kinds("A / B")[1], Tok::Slash);
        assert_eq!(kinds("A /= B")[1], Tok::Ne);
        assert_eq!(kinds("A = B")[1], Tok::Eq);
        assert_eq!(kinds("A == B")[1], Tok::EqEq);
    }

    #[test]
    fn section_tokens() {
        let toks = kinds("A(2:N-1,:)");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("A".into()),
                Tok::LParen,
                Tok::Int(2),
                Tok::Colon,
                Tok::Ident("N".into()),
                Tok::Minus,
                Tok::Int(1),
                Tok::Comma,
                Tok::Colon,
                Tok::RParen,
                Tok::Newline,
                Tok::Eof
            ]
        );
    }
}
