//! A minimal Rust token scanner — just enough lexing for the static
//! analysis pipeline.
//!
//! The rules match on *token sequences* (`Instant :: now` as a taint
//! source, `. unwrap (` as a panic site, …), so a character-level
//! grep would false-positive inside strings, comments and doc text. This lexer
//! classifies the source into identifiers, punctuation, literals and
//! comments with line numbers, handling the Rust constructs that trip
//! naive scanners: nested block comments, raw strings with arbitrary `#`
//! fences, byte/char literals vs lifetimes, and numeric literals with
//! embedded underscores and exponents. It deliberately does **not** parse:
//! the item parser works on the flat token stream plus
//! the brace matching and `#[cfg(test)]` masking at the bottom of this
//! file.

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// The classified payload.
    pub kind: Tok,
}

/// Token classes the rules distinguish.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `spawn`, `HashMap`, …).
    Ident(String),
    /// A single punctuation byte (`::` arrives as two `:` tokens).
    Punct(char),
    /// Any string/char/byte literal (payload dropped — rules never match
    /// inside literals, which is the point of lexing).
    Literal,
    /// A numeric literal.
    Number,
    /// A lifetime (`'a`) — distinct from char literals.
    Lifetime,
    /// A `//…` or `/*…*/` comment, payload preserved for the
    /// `// lint: …` directives.
    Comment(String),
}

/// Lexes `src` into a flat token stream. Unterminated constructs (string
/// or block comment running to EOF) terminate the stream gracefully — the
/// pipeline runs on arbitrary fixture snippets, not only compiling code.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek() {
            let line = self.line;
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek_at(1) == Some(b'/') => {
                    let text = self.line_comment();
                    self.push(line, Tok::Comment(text));
                }
                b'/' if self.peek_at(1) == Some(b'*') => {
                    let text = self.block_comment();
                    self.push(line, Tok::Comment(text));
                }
                b'"' => {
                    self.string();
                    self.push(line, Tok::Literal);
                }
                b'r' | b'b' if self.raw_or_byte_string() => {
                    self.push(line, Tok::Literal);
                }
                b'\'' => {
                    let kind = self.char_or_lifetime();
                    self.push(line, kind);
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let ident = self.ident();
                    self.push(line, Tok::Ident(ident));
                }
                c if c.is_ascii_digit() => {
                    self.number();
                    self.push(line, Tok::Number);
                }
                c => {
                    self.pos += 1;
                    self.push(line, Tok::Punct(c as char));
                }
            }
        }
        self.out
    }

    fn push(&mut self, line: usize, kind: Tok) {
        self.out.push(Token { line, kind });
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, keeping the line counter honest.
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        if c == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
        Some(c)
    }

    fn line_comment(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'\n' {
                break;
            }
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    /// Nested block comments, as Rust defines them.
    fn block_comment(&mut self) -> String {
        let start = self.pos;
        self.pos += 2; // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: stop at EOF
            }
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    /// A plain `"…"` string with escapes.
    fn string(&mut self) {
        self.pos += 1; // opening quote
        while let Some(c) = self.bump() {
            match c {
                b'"' => return,
                b'\\' => {
                    self.bump();
                }
                _ => {}
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `br"…"`, `b"…"`, `b'…'` and raw
    /// identifiers. Returns `true` when a literal was consumed; `false`
    /// leaves the position untouched so the caller lexes an identifier.
    fn raw_or_byte_string(&mut self) -> bool {
        let rest = &self.bytes[self.pos..];
        let (prefix_len, raw) = if rest.starts_with(b"br") {
            (2, true)
        } else if rest.starts_with(b"r#\"") || rest.starts_with(b"r\"") {
            (1, true)
        } else if rest.starts_with(b"b\"") {
            (1, false)
        } else if rest.starts_with(b"b'") {
            // Byte char literal `b'x'`.
            self.pos += 2;
            while let Some(c) = self.bump() {
                match c {
                    b'\'' => break,
                    b'\\' => {
                        self.bump();
                    }
                    _ => {}
                }
            }
            return true;
        } else {
            return false;
        };
        // Raw identifiers (`r#match`) are identifiers, not strings.
        if rest.starts_with(b"r#") && rest.get(2).is_some_and(|c| c.is_ascii_alphabetic()) {
            return false;
        }
        if raw {
            let mut cursor = self.pos + prefix_len;
            let mut fences = 0usize;
            while self.bytes.get(cursor) == Some(&b'#') {
                fences += 1;
                cursor += 1;
            }
            if self.bytes.get(cursor) != Some(&b'"') {
                return false; // `r` not followed by a string after all
            }
            self.pos = cursor + 1;
            // Scan for `"` followed by `fences` hashes.
            loop {
                match self.bump() {
                    None => return true, // unterminated
                    Some(b'"') => {
                        let close = &self.bytes[self.pos..];
                        if close.len() >= fences && close[..fences].iter().all(|&c| c == b'#') {
                            self.pos += fences;
                            return true;
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        // `b"…"`: a plain string with a one-byte prefix.
        self.pos += prefix_len;
        self.string();
        true
    }

    /// Disambiguates `'a'` (char literal) from `'a` (lifetime).
    fn char_or_lifetime(&mut self) -> Tok {
        // A lifetime is `'` + ident-start + no closing quote right after.
        let first = self.peek_at(1);
        let second = self.peek_at(2);
        let is_lifetime = matches!(first, Some(c) if c.is_ascii_alphabetic() || c == b'_')
            && second != Some(b'\'');
        self.pos += 1; // the quote
        if is_lifetime {
            while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                self.pos += 1;
            }
            return Tok::Lifetime;
        }
        // Char literal: consume to the closing quote.
        while let Some(c) = self.bump() {
            match c {
                b'\'' => break,
                b'\\' => {
                    self.bump();
                }
                _ => {}
            }
        }
        Tok::Literal
    }

    fn ident(&mut self) -> String {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    fn number(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else if c == b'.' && self.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the number; `1..5` and `1.method()` stop.
                self.pos += 1;
            } else if (c == b'+' || c == b'-')
                && matches!(self.bytes.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
            {
                // Exponent sign in `1e-3`.
                self.pos += 1;
            } else {
                break;
            }
        }
    }
}

/// The identifier at `i` of a comment-free token stream, if there is one.
pub(crate) fn ident(sig: &[Token], i: usize) -> Option<&str> {
    match sig.get(i).map(|t| &t.kind) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The punctuation byte at `i`, if there is one.
pub(crate) fn punct(sig: &[Token], i: usize) -> Option<char> {
    match sig.get(i).map(|t| &t.kind) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Index of the token closing the delimiter opened at `open`, or `None`
/// if unbalanced.
pub(crate) fn match_delim(
    sig: &[Token],
    open: usize,
    open_ch: char,
    close_ch: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in sig.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct(c) if c == open_ch => depth += 1,
            Tok::Punct(c) if c == close_ch => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Marks token ranges covered by `#[cfg(test)]` items (the attribute and
/// the brace-matched item body) so test-only code is exempt from the
/// production rules.
pub(crate) fn test_region_mask(sig: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; sig.len()];
    let mut i = 0;
    while i < sig.len() {
        let attr = punct(sig, i) == Some('#')
            && punct(sig, i + 1) == Some('[')
            && ident(sig, i + 2) == Some("cfg")
            && punct(sig, i + 3) == Some('(')
            && ident(sig, i + 4) == Some("test")
            && punct(sig, i + 5) == Some(')')
            && punct(sig, i + 6) == Some(']');
        if !attr {
            i += 1;
            continue;
        }
        // Skip to the end of the attributed item: the first `;` (e.g.
        // `mod tests;`) or the matching close of the first `{`.
        let mut end = i + 7;
        for j in i + 7..sig.len() {
            match sig[j].kind {
                Tok::Punct(';') => {
                    end = j;
                    break;
                }
                Tok::Punct('{') => {
                    end = match_delim(sig, j, '{', '}').unwrap_or(sig.len() - 1);
                    break;
                }
                _ => {}
            }
        }
        for s in skip.iter_mut().take(end + 1).skip(i) {
            *s = true;
        }
        i = end + 1;
    }
    skip
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r#"
            // thread::spawn in a comment
            let x = "thread::spawn in a string";
            /* HashMap in /* a nested */ block */
            let map = real_ident;
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"spawn".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"real_ident".to_string()));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = r##"let s = r#"HashMap::new() "quoted" inside"#; after"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // A naive scanner treats `'a` as an unterminated char literal and
        // swallows the rest of the file.
        let src = "fn f<'a>(x: &'a str) { spawn(); }";
        let ids = idents(src);
        assert!(ids.contains(&"spawn".to_string()));
    }

    #[test]
    fn char_literals_consume_escapes() {
        let src = r"let c = '\''; let d = '\\'; visible";
        assert!(idents(src).contains(&"visible".to_string()));
    }

    #[test]
    fn byte_and_raw_prefixes() {
        let src = r##"let a = b"HashMap"; let b2 = br#"Instant"#; let c = b'x'; tail"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"tail".to_string()));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"multi\nline\"\nb";
        let toks = lex(src);
        let b = toks
            .iter()
            .find(|t| t.kind == Tok::Ident("b".into()))
            .unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn numbers_with_exponents_and_ranges() {
        let ids = idents("let x = 1.5e-3; for i in 0..10 { use_it(i) }");
        assert!(ids.contains(&"use_it".to_string()));
    }
}
