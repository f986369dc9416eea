//! SQL tokenizer.

use crate::error::DbError;

/// A token with its byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// Byte offset in the source.
    pub offset: usize,
    /// The token.
    pub token: Token,
}

/// SQL tokens. Keywords are uppercased identifiers recognized by the
/// parser, not distinct token kinds, except for operators and punctuation.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword (original case preserved; match
    /// case-insensitively).
    Ident(String),
    /// Integer literal (no `.` or exponent in the source text).
    Int(i64),
    /// Float literal (the source text contained `.` or an exponent, or
    /// the value overflows `i64`). Kept distinct from [`Token::Int`] so
    /// `2.0` and `-0.0` stay floats bit-for-bit through INSERT→SELECT
    /// instead of collapsing to integers.
    Float(f64),
    /// `'string'` literal (escaped quotes doubled).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semicolon,
}

/// Tokenizes SQL text.
pub fn tokenize(src: &str) -> Result<Vec<Spanned>, DbError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let c = bytes[pos] as char;
        let start = pos;
        macro_rules! push {
            ($tok:expr, $len:expr) => {{
                out.push(Spanned { offset: start, token: $tok });
                pos += $len;
            }};
        }
        match c {
            ' ' | '\t' | '\n' | '\r' => pos += 1,
            '-' => {
                // SQL comment `-- …` or minus.
                if bytes.get(pos + 1) == Some(&b'-') {
                    while pos < bytes.len() && bytes[pos] != b'\n' {
                        pos += 1;
                    }
                } else {
                    push!(Token::Minus, 1);
                }
            }
            '(' => push!(Token::LParen, 1),
            ')' => push!(Token::RParen, 1),
            ',' => push!(Token::Comma, 1),
            '.' => {
                // Could be the start of a number like `.5`.
                if bytes.get(pos + 1).is_some_and(|b| b.is_ascii_digit()) {
                    let (tok, len) = lex_number(src, pos)?;
                    push!(tok, len);
                } else {
                    push!(Token::Dot, 1);
                }
            }
            '*' => push!(Token::Star, 1),
            '+' => push!(Token::Plus, 1),
            '/' => push!(Token::Slash, 1),
            '%' => push!(Token::Percent, 1),
            ';' => push!(Token::Semicolon, 1),
            '=' => push!(Token::Eq, 1),
            '!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(Token::Ne, 2);
                } else {
                    return Err(DbError::Parse {
                        offset: pos,
                        message: "expected '=' after '!'".to_string(),
                    });
                }
            }
            '<' => match bytes.get(pos + 1) {
                Some(&b'=') => push!(Token::Le, 2),
                Some(&b'>') => push!(Token::Ne, 2),
                _ => push!(Token::Lt, 1),
            },
            '>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(Token::Ge, 2);
                } else {
                    push!(Token::Gt, 1);
                }
            }
            '\'' => {
                // Accumulate raw bytes: `'` (0x27) never occurs inside a
                // multi-byte UTF-8 sequence, so splitting on it is safe
                // and non-ASCII text survives byte-for-byte.
                let mut text = Vec::new();
                let mut i = pos + 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(DbError::Parse {
                                offset: pos,
                                message: "unterminated string literal".to_string(),
                            })
                        }
                        Some(&b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                text.push(b'\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            text.push(b);
                            i += 1;
                        }
                    }
                }
                let text = String::from_utf8(text).map_err(|_| DbError::Parse {
                    offset: pos,
                    message: "string literal is not valid UTF-8".to_string(),
                })?;
                out.push(Spanned { offset: start, token: Token::Str(text) });
                pos = i;
            }
            '0'..='9' => {
                let (tok, len) = lex_number(src, pos)?;
                push!(tok, len);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = pos;
                while end < bytes.len() {
                    let d = bytes[end] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    offset: start,
                    token: Token::Ident(src[pos..end].to_string()),
                });
                pos = end;
            }
            other => {
                return Err(DbError::Parse {
                    offset: pos,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

fn lex_number(src: &str, start: usize) -> Result<(Token, usize), DbError> {
    let bytes = src.as_bytes();
    let mut end = start;
    let mut seen_e = false;
    let mut float_syntax = false;
    while end < bytes.len() {
        let d = bytes[end] as char;
        if d.is_ascii_digit() {
            end += 1;
        } else if d == '.' {
            float_syntax = true;
            end += 1;
        } else if (d == 'e' || d == 'E') && !seen_e {
            seen_e = true;
            float_syntax = true;
            end += 1;
            if end < bytes.len() && (bytes[end] == b'+' || bytes[end] == b'-') {
                end += 1;
            }
        } else {
            break;
        }
    }
    let text = &src[start..end];
    // Digits-only literals are integers; a `.` or exponent makes a float
    // (and an integer too wide for i64 falls back to the float value).
    let token = if float_syntax {
        let value: f64 = text.parse().map_err(|e| DbError::Parse {
            offset: start,
            message: format!("bad number {text:?}: {e}"),
        })?;
        Token::Float(value)
    } else {
        match text.parse::<i64>() {
            Ok(value) => Token::Int(value),
            Err(_) => {
                let value: f64 = text.parse().map_err(|e| DbError::Parse {
                    offset: start,
                    message: format!("bad number {text:?}: {e}"),
                })?;
                Token::Float(value)
            }
        }
    };
    Ok((token, end - start))
}

impl Token {
    /// `true` when the token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn basic_select_tokens() {
        let t = toks("SELECT Min(time) FROM candidates WHERE diff = 0");
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert_eq!(t[1], Token::Ident("Min".into()));
        assert_eq!(t[2], Token::LParen);
        assert!(t.contains(&Token::Eq));
        assert!(t.contains(&Token::Int(0)));
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("<= < >= > = != <>"),
            vec![
                Token::Le,
                Token::Lt,
                Token::Ge,
                Token::Gt,
                Token::Eq,
                Token::Ne,
                Token::Ne
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'hello'"), vec![Token::Str("hello".into())]);
        assert_eq!(toks("'it''s'"), vec![Token::Str("it's".into())]);
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn multibyte_string_literals_survive() {
        assert_eq!(toks("'héllo 漢 🦀'"), vec![Token::Str("héllo 漢 🦀".into())]);
        assert_eq!(toks("'🦀''s'"), vec![Token::Str("🦀's".into())]);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("3.25"), vec![Token::Float(3.25)]);
        assert_eq!(toks(".5"), vec![Token::Float(0.5)]);
        assert_eq!(toks("1e3"), vec![Token::Float(1000.0)]);
        assert_eq!(toks("2.5e-1"), vec![Token::Float(0.25)]);
    }

    #[test]
    fn integral_text_lexes_int_but_float_text_stays_float() {
        assert_eq!(toks("7"), vec![Token::Int(7)]);
        assert_eq!(toks("7.0"), vec![Token::Float(7.0)]);
        assert_eq!(toks("0.0"), vec![Token::Float(0.0)]);
        // 2^63 does not fit i64; it falls back to the float value.
        assert_eq!(
            toks("9223372036854775808"),
            vec![Token::Float(9.223372036854776e18)]
        );
        assert_eq!(toks("9223372036854775807"), vec![Token::Int(i64::MAX)]);
    }

    #[test]
    fn comments_skipped() {
        let t = toks("SELECT -- a comment\n 1");
        assert_eq!(t, vec![Token::Ident("SELECT".into()), Token::Int(1)]);
    }

    #[test]
    fn qualified_names() {
        assert_eq!(
            toks("cnd.income"),
            vec![Token::Ident("cnd".into()), Token::Dot, Token::Ident("income".into())]
        );
    }

    #[test]
    fn keyword_check_case_insensitive() {
        let t = toks("select");
        assert!(t[0].is_kw("SELECT"));
        assert!(t[0].is_kw("select"));
        assert!(!t[0].is_kw("FROM"));
    }

    #[test]
    fn offsets_recorded() {
        let s = tokenize("SELECT x").unwrap();
        assert_eq!(s[0].offset, 0);
        assert_eq!(s[1].offset, 7);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT #").is_err());
        assert!(tokenize("a ! b").is_err());
    }
}
