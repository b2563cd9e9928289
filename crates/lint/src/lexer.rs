//! Minimal Rust lexer with line tracking.
//!
//! The build environment has no registry access, so `syn` is
//! unavailable; eta-lint instead scans token streams produced by this
//! hand-rolled lexer. It understands exactly as much Rust as the
//! rules need to be sound on this workspace: comments (line, block,
//! nested block, doc), string/raw-string/byte-string literals, char
//! literals vs. lifetimes, numbers, identifiers, and punctuation.
//! Everything inside comments and literals is opaque to the rules,
//! which is what keeps fixture snippets embedded in test strings from
//! tripping the pass.

/// One lexed token plus the 1-indexed source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier name, punctuation char, literal text (without
    /// surrounding quotes for strings), or comment body.
    pub text: String,
    pub line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    /// String literal (`"…"`, `r"…"`, `r#"…"#`, `b"…"`); `text` holds
    /// the *unescaped-enough* contents: escapes are kept verbatim
    /// except `\"`, which is reduced so key comparisons work.
    Str,
    CharLit,
    Num,
    Lifetime,
    /// Line or block comment; `text` holds the body including markers.
    Comment,
}

impl Tok {
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

/// Lexes `src` into tokens. Unterminated constructs (string/comment)
/// consume to end-of-file rather than erroring: the lint must keep
/// going on slightly broken source and report what it can.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        bytes: src.as_bytes(),
        src,
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        while let Some(b) = self.peek(0) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.pos),
                b'r' | b'b' => {
                    if !self.raw_or_byte_literal() {
                        self.ident();
                    }
                }
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => self.ident(),
                _ => {
                    let start = self.pos;
                    self.pos += 1;
                    self.push(TokKind::Punct, start);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize) {
        self.push_at(kind, start, self.line);
    }

    fn push_at(&mut self, kind: TokKind, start: usize, line: u32) {
        let text = self.src.get(start..self.pos).unwrap_or("").to_string();
        self.out.push(Tok { kind, text, line });
    }

    fn bump_line_counting(&mut self, upto: usize) {
        while self.pos < upto {
            if self.peek(0) == Some(b'\n') {
                self.line += 1;
            }
            self.pos += 1;
        }
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.pos += 1;
        }
        self.push(TokKind::Comment, start);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some(b'\n'), _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => break,
            }
        }
        self.push_at(TokKind::Comment, start, start_line);
    }

    /// Plain (or byte) string starting at the opening quote.
    fn string(&mut self, start: usize) {
        let start_line = self.line;
        self.pos += 1; // opening quote
        let body_start = self.pos;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.pos += 2,
                b'"' => break,
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let body = self.src.get(body_start..self.pos).unwrap_or("").to_string();
        self.pos += 1; // closing quote (or EOF no-op)
        let _ = start;
        self.out.push(Tok {
            kind: TokKind::Str,
            text: body.replace("\\\"", "\""),
            line: start_line,
        });
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`; returns false if
    /// the `r`/`b` at the cursor starts a plain identifier instead.
    fn raw_or_byte_literal(&mut self) -> bool {
        let mut look = self.pos + 1;
        if self.bytes.get(self.pos) == Some(&b'b') && self.bytes.get(look) == Some(&b'r') {
            look += 1;
        }
        let mut hashes = 0usize;
        while self.bytes.get(look) == Some(&b'#') {
            hashes += 1;
            look += 1;
        }
        if self.bytes.get(look) != Some(&b'"') {
            // `b'x'` byte char literal.
            if self.bytes.get(self.pos) == Some(&b'b')
                && self.bytes.get(self.pos + 1) == Some(&b'\'')
            {
                self.pos += 1;
                self.char_or_lifetime();
                return true;
            }
            // Raw identifier `r#ident`: one Ident token (never a
            // keyword, which is the point of the syntax).
            if self.bytes.get(self.pos) == Some(&b'r')
                && hashes == 1
                && self
                    .bytes
                    .get(look)
                    .is_some_and(|b| b.is_ascii_alphabetic() || *b == b'_' || *b >= 0x80)
            {
                let start = self.pos;
                self.pos = look;
                while let Some(b) = self.peek(0) {
                    if b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80 {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.push(TokKind::Ident, start);
                return true;
            }
            return false;
        }
        let is_raw = hashes > 0
            || self
                .bytes
                .get(self.pos..look)
                .is_some_and(|s| s.contains(&b'r'));
        if !is_raw {
            // Plain byte string `b"…"` — escapes apply.
            self.pos = look; // at the quote
            self.string(self.pos);
            return true;
        }
        // Raw string: scan to `"` followed by `hashes` hash marks.
        let start_line = self.line;
        self.pos = look + 1;
        let body_start = self.pos;
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        let mut body_end = self.bytes.len();
        let mut i = self.pos;
        while i < self.bytes.len() {
            if self
                .bytes
                .get(i..)
                .is_some_and(|rest| rest.starts_with(&closer))
            {
                body_end = i;
                break;
            }
            i += 1;
        }
        self.bump_line_counting(body_end);
        let body = self.src.get(body_start..body_end).unwrap_or("").to_string();
        self.pos = (body_end + closer.len()).min(self.bytes.len());
        self.out.push(Tok {
            kind: TokKind::Str,
            text: body,
            line: start_line,
        });
        true
    }

    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        // `'\…'` is always a char literal; `'x'` is a char literal;
        // `'ident` (no closing quote after one char) is a lifetime.
        if self.peek(1) == Some(b'\\') {
            self.pos += 2; // quote + backslash
            self.pos += 1; // escaped char
            while let Some(b) = self.peek(0) {
                self.pos += 1;
                if b == b'\'' {
                    break;
                }
            }
            self.push(TokKind::CharLit, start);
            return;
        }
        // Multibyte chars: find the end of one UTF-8 scalar.
        let rest = self.src.get(self.pos + 1..).unwrap_or("");
        let first_len = rest.chars().next().map_or(0, char::len_utf8);
        if first_len > 0 && rest.as_bytes().get(first_len) == Some(&b'\'') {
            self.pos += 1 + first_len + 1;
            self.push(TokKind::CharLit, start);
            return;
        }
        // Lifetime: `'` followed by an identifier.
        self.pos += 1;
        while let Some(b) = self.peek(0) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push(TokKind::Lifetime, start);
    }

    fn number(&mut self) {
        let start = self.pos;
        let radix_prefixed =
            self.peek(0) == Some(b'0') && matches!(self.peek(1), Some(b'x' | b'X' | b'b' | b'o'));
        while let Some(b) = self.peek(0) {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
                // Stop `0..10` range syntax from being eaten as one number.
                if b == b'.' && self.peek(1) == Some(b'.') {
                    break;
                }
                self.pos += 1;
                // Signed exponent: `1e-3` / `2.5E+10` is one number
                // (but `0x1e-3` is hex minus three).
                if (b == b'e' || b == b'E')
                    && !radix_prefixed
                    && matches!(self.peek(0), Some(b'+' | b'-'))
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
        self.push(TokKind::Num, start);
    }

    fn ident(&mut self) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        let toks = kinds("let x = a[3].sum::<f32>();");
        assert!(toks.contains(&(TokKind::Ident, "sum".into())));
        assert!(toks.contains(&(TokKind::Num, "3".into())));
        assert!(toks.contains(&(TokKind::Punct, "[".into())));
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let toks = lex("// SAFETY: fine\nunsafe { }");
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert!(toks[0].text.contains("SAFETY:"));
        assert_eq!(toks[0].line, 1);
        assert!(toks[1].is_ident("unsafe"));
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert!(toks[1].is_ident("x"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = lex(r#"let s = "unsafe { HashMap }";"#);
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = lex(r##"let s = r#"quote " inside"#; y"##);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, r#"quote " inside"#);
        assert!(toks.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
            2
        );
    }

    #[test]
    fn lines_advance_through_multiline_strings() {
        let toks = lex("let a = \"one\ntwo\";\nlet b = 1;");
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn range_syntax_is_not_one_number() {
        let toks = kinds("for i in 0..10 {}");
        assert!(toks.contains(&(TokKind::Num, "0".into())));
        assert!(toks.contains(&(TokKind::Num, "10".into())));
        // Inclusive ranges and float-looking bounds too.
        let toks = kinds("1..=2");
        assert_eq!(toks[0], (TokKind::Num, "1".into()));
        assert_eq!(toks[4], (TokKind::Num, "2".into()));
        let toks = kinds("1.5..2.5");
        assert_eq!(toks[0], (TokKind::Num, "1.5".into()));
        assert_eq!(toks[3], (TokKind::Num, "2.5".into()));
    }

    #[test]
    fn signed_exponents_are_one_number() {
        assert_eq!(kinds("1e-3")[0], (TokKind::Num, "1e-3".into()));
        assert_eq!(kinds("2.5E+10")[0], (TokKind::Num, "2.5E+10".into()));
        assert_eq!(kinds("1e6")[0], (TokKind::Num, "1e6".into()));
        // Hex digits must not trigger the exponent rule: `0x1e-3` is
        // a subtraction.
        assert_eq!(
            kinds("0x1e-3"),
            vec![
                (TokKind::Num, "0x1e".into()),
                (TokKind::Punct, "-".into()),
                (TokKind::Num, "3".into()),
            ]
        );
        // An `e` not followed by a signed digit stays put: `1e-x` is
        // `1e - x` (invalid Rust either way, but must not eat `-`).
        assert_eq!(
            kinds("1e-x"),
            vec![
                (TokKind::Num, "1e".into()),
                (TokKind::Punct, "-".into()),
                (TokKind::Ident, "x".into()),
            ]
        );
    }

    #[test]
    fn raw_identifiers_are_single_idents() {
        assert_eq!(
            kinds("let r#type = r#match;"),
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "r#type".into()),
                (TokKind::Punct, "=".into()),
                (TokKind::Ident, "r#match".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
        // `r` alone, and `r#` raw strings, keep their old meaning.
        assert_eq!(kinds("r")[0], (TokKind::Ident, "r".into()));
        assert_eq!(kinds(r##"r#"s"#"##)[0], (TokKind::Str, "s".into()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r##"b"bytes" b'x' br#"raw"# x"##);
        assert_eq!(toks[0], (TokKind::Str, "bytes".into()));
        assert_eq!(toks[1].0, TokKind::CharLit);
        assert_eq!(toks[2], (TokKind::Str, "raw".into()));
        assert_eq!(toks[3], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn deeply_nested_block_comments_and_unterminated() {
        let toks = lex("/* 1 /* 2 /* 3 */ 2 */ 1 */ after");
        assert_eq!(toks.len(), 2);
        assert!(toks[1].is_ident("after"));
        // Unterminated constructs consume to EOF without panicking.
        assert_eq!(lex("/* never closed").len(), 1);
        assert_eq!(lex("\"never closed").len(), 1);
        assert_eq!(lex(r##"r#"never closed"##).len(), 1);
    }

    #[test]
    fn lifetime_edge_cases() {
        // `'_` anonymous lifetime, `'a,` in generics, char `'''`? no —
        // but escaped quote chars must not become lifetimes.
        let toks = lex("&'_ str");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'_"));
        let toks = lex(r"let q = '\''; let l = 'static;");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
            1
        );
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
    }

    #[test]
    fn tuple_field_chains() {
        // `x.0.1` — the lexer yields `0.1` as one number; no rule reads
        // tuple-field chains, so it stays one token.
        let toks = kinds("x.0.1");
        assert_eq!(toks[2], (TokKind::Num, "0.1".into()));
    }
}
