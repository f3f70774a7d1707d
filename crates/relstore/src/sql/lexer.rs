//! SQL tokenizer.

use crate::error::{Error, Result};

#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Unquoted identifier or keyword, normalized to lowercase.
    Ident(String),
    /// `'string'` literal.
    Str(String),
    Int(i64),
    Double(f64),
    // punctuation / operators
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Eof,
}

#[derive(Debug, Clone)]
pub struct Spanned {
    pub token: Token,
    pub offset: usize,
}

pub fn tokenize(input: &str) -> Result<Vec<Spanned>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let err = |msg: &str, at: usize| Error::Parse { message: msg.to_string(), offset: at };
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' => {
                out.push(Spanned { token: Token::LParen, offset: i });
                i += 1;
            }
            b')' => {
                out.push(Spanned { token: Token::RParen, offset: i });
                i += 1;
            }
            b',' => {
                out.push(Spanned { token: Token::Comma, offset: i });
                i += 1;
            }
            b'.' => {
                out.push(Spanned { token: Token::Dot, offset: i });
                i += 1;
            }
            b'*' => {
                out.push(Spanned { token: Token::Star, offset: i });
                i += 1;
            }
            b'+' => {
                out.push(Spanned { token: Token::Plus, offset: i });
                i += 1;
            }
            b'-' => {
                out.push(Spanned { token: Token::Minus, offset: i });
                i += 1;
            }
            b'/' => {
                out.push(Spanned { token: Token::Slash, offset: i });
                i += 1;
            }
            b'=' => {
                out.push(Spanned { token: Token::Eq, offset: i });
                i += 1;
            }
            b'<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Spanned { token: Token::NotEq, offset: i });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned { token: Token::LtEq, offset: i });
                    i += 2;
                } else {
                    out.push(Spanned { token: Token::Lt, offset: i });
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned { token: Token::GtEq, offset: i });
                    i += 2;
                } else {
                    out.push(Spanned { token: Token::Gt, offset: i });
                    i += 1;
                }
            }
            b'\'' => {
                // string literal with '' escape
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(err("unterminated string literal", start));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // copy one UTF-8 character
                        let ch_len = utf8_len(bytes[i]);
                        s.push_str(
                            std::str::from_utf8(&bytes[i..i + ch_len])
                                .map_err(|_| err("invalid UTF-8 in string", i))?,
                        );
                        i += ch_len;
                    }
                }
                out.push(Spanned { token: Token::Str(s), offset: start });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_double = false;
                if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_double = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_double = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = std::str::from_utf8(&bytes[start..i]).unwrap();
                let token = if is_double {
                    Token::Double(text.parse().map_err(|_| err("bad number", start))?)
                } else {
                    Token::Int(text.parse().map_err(|_| err("integer out of range", start))?)
                };
                out.push(Spanned { token, offset: start });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                let word = std::str::from_utf8(&bytes[start..i]).unwrap().to_ascii_lowercase();
                out.push(Spanned { token: Token::Ident(word), offset: start });
            }
            _ => return Err(err(&format!("unexpected character {:?}", c as char), i)),
        }
    }
    out.push(Spanned { token: Token::Eof, offset: input.len() });
    Ok(out)
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Escape a string for embedding as a SQL literal.
pub fn quote_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(sql: &str) -> Vec<Token> {
        tokenize(sql).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("SELECT a.b, 'it''s' FROM t WHERE x <= 1.5"),
            vec![
                Token::Ident("select".into()),
                Token::Ident("a".into()),
                Token::Dot,
                Token::Ident("b".into()),
                Token::Comma,
                Token::Str("it's".into()),
                Token::Ident("from".into()),
                Token::Ident("t".into()),
                Token::Ident("where".into()),
                Token::Ident("x".into()),
                Token::LtEq,
                Token::Double(1.5),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("<> < <= > >= ="),
            vec![
                Token::NotEq,
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::Eq,
                Token::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(toks("1e3"), vec![Token::Double(1000.0), Token::Eof]);
    }

    #[test]
    fn unicode_in_string_literal() {
        assert_eq!(toks("'héllo ☃'"), vec![Token::Str("héllo ☃".into()), Token::Eof]);
    }

    #[test]
    fn quote_str_escapes() {
        assert_eq!(quote_str("it's"), "'it''s'");
        assert_eq!(quote_str("a'b"), "'a''b'");
    }
}
