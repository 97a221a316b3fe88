//! A comment/string/char/raw-string-aware Rust lexer.
//!
//! `mgpu-lint` cannot use `syn` (the build is offline), and it does not
//! need to: every project invariant it checks is visible at the token
//! level, *provided* comments, string literals, char literals and raw
//! strings are recognized — a `"counter(\"x\")"` inside a string or a
//! `.lock()` inside a comment must never look like code. This module is
//! that provision: a hand-rolled scanner that turns a `.rs` file into a
//! stream of [`Token`]s plus a parallel list of [`Comment`]s, each tagged
//! with 1-based line numbers.
//!
//! The lexer is deliberately forgiving — an unterminated literal consumes
//! to end of file rather than erroring — because lint input is whatever
//! the tree contains, including half-written code.

/// One lexed token. Comments are *not* tokens; they land in the
/// side-channel [`Comment`] list so lints can correlate them with nearby
/// tokens by line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    /// Identifier or keyword (`fn`, `unsafe`, `frame_bytes`, ...).
    Ident(String),
    /// A lifetime such as `'a` or `'static` (without the quote).
    Lifetime(String),
    /// String literal content between the quotes, escapes left verbatim.
    /// Covers `"…"`, `b"…"`, `c"…"`, `r"…"`, `r#"…"#` and the `br`/`cr`
    /// forms.
    Str(String),
    /// A character literal such as `'x'` or `'\n'` (content not kept —
    /// no lint needs it, only the correct skip).
    Char,
    /// Numeric literal, verbatim (`0x8E`, `1_000`, `2.5e3`).
    Num(String),
    /// A single punctuation character. Multi-char operators arrive as
    /// consecutive tokens (`=>` is `'='`, `'>'`).
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub(crate) tok: Tok,
    pub(crate) line: u32,
}

/// A comment (line or block, doc or not) with its line span and body text
/// (delimiters stripped). Block comments may span lines; `end_line` is
/// where the comment closes, which is what "comment on the preceding
/// line" checks care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Comment {
    pub(crate) start_line: u32,
    pub(crate) end_line: u32,
    pub(crate) text: String,
}

/// Full lex result for one file.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    pub(crate) tokens: Vec<Token>,
    pub(crate) comments: Vec<Comment>,
}

/// Lex `src` into tokens and comments. Never fails: malformed input
/// degrades to best-effort tokens, which is the right behavior for a
/// linter that runs on in-progress trees.
pub(crate) fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.tokens.push(Token { tok, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line),
                '\'' => self.quote(line),
                'r' | 'b' | 'c' if self.literal_prefix() => {}
                c if is_ident_start(c) => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(Tok::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.line;
        let mut text = String::new();
        self.bump();
        self.bump(); // consume `//`
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            start_line: start,
            end_line: start,
            text: text.trim_start_matches(['/', '!']).trim().to_string(),
        });
    }

    /// Block comments nest in Rust: `/* a /* b */ c */` is one comment.
    fn block_comment(&mut self) {
        let start = self.line;
        let mut text = String::new();
        self.bump();
        self.bump(); // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                    text.push_str("/*");
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth > 0 {
                        text.push_str("*/");
                    }
                }
                (Some(_), _) => {
                    let c = self.bump().expect("peeked");
                    text.push(c);
                }
                (None, _) => break, // unterminated: swallow to EOF
            }
        }
        self.out.comments.push(Comment {
            start_line: start,
            end_line: self.line,
            text: text.trim_start_matches(['*', '!']).trim().to_string(),
        });
    }

    /// A cooked string literal starting at the opening `"`.
    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    // Keep the escape verbatim; lints compare names, and
                    // metric/opcode names never contain escapes.
                    text.push(c);
                    self.bump();
                    if let Some(next) = self.bump() {
                        text.push(next);
                    }
                }
                '"' => {
                    self.bump();
                    break;
                }
                _ => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        self.push(Tok::Str(text), line);
    }

    /// Raw string body after the prefix: `r`, any number of `#`, then `"`.
    /// Closes at `"` followed by the same number of `#`.
    fn raw_string(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != Some('"') {
            // `r#foo` is a raw identifier, not a string. Re-lex the `#`s
            // as punctuation and fall through to the identifier path.
            for _ in 0..hashes {
                self.push(Tok::Punct('#'), line);
            }
            if self.peek(0).is_some_and(is_ident_start) {
                self.ident(line);
            }
            return;
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'scan: while let Some(c) = self.peek(0) {
            if c == '"' {
                // Candidate close: needs `hashes` trailing `#`s.
                let mut matched = 0usize;
                while matched < hashes && self.peek(1 + matched) == Some('#') {
                    matched += 1;
                }
                if matched == hashes {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    break 'scan;
                }
            }
            text.push(c);
            self.bump();
        }
        self.push(Tok::Str(text), line);
    }

    /// Dispatch `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, `c"…"` etc.
    /// Returns true if a literal prefix was consumed (the literal body is
    /// pushed by the callee); false means the caller should treat the
    /// char as a plain identifier start.
    fn literal_prefix(&mut self) -> bool {
        let line = self.line;
        let c0 = self.peek(0).expect("caller peeked");
        match (c0, self.peek(1)) {
            ('r', Some('"')) | ('r', Some('#')) => {
                self.bump();
                self.raw_string(line);
                true
            }
            ('b', Some('r')) if matches!(self.peek(2), Some('"') | Some('#')) => {
                self.bump();
                self.bump();
                self.raw_string(line);
                true
            }
            ('b', Some('"')) | ('c', Some('"')) => {
                self.bump();
                self.string(line);
                true
            }
            ('b', Some('\'')) => {
                self.bump();
                self.quote(line);
                true
            }
            _ => false,
        }
    }

    /// A single quote: either a char literal (`'x'`, `'\n'`, `'\u{7f}'`)
    /// or a lifetime (`'a`, `'static`). The discriminator: a lifetime is
    /// `'` + identifier *not* followed by a closing `'`.
    fn quote(&mut self, line: u32) {
        self.bump(); // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape, then to closing quote.
                self.bump();
                self.bump(); // the escape head (n, u, x, ', ...)
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(Tok::Char, line);
            }
            Some(c) if is_ident_start(c) => {
                let mut name = String::new();
                while let Some(c) = self.peek(0) {
                    if is_ident_continue(c) {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.peek(0) == Some('\'') {
                    self.bump();
                    self.push(Tok::Char, line); // 'a'
                } else {
                    self.push(Tok::Lifetime(name), line); // 'a as in &'a T
                }
            }
            Some('\'') => {
                // `''` — empty/invalid; consume and move on.
                self.bump();
                self.push(Tok::Char, line);
            }
            Some(_) => {
                // Non-identifier char literal: `'+'`, `' '`, `'('`.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(Tok::Char, line);
            }
            None => {}
        }
    }

    fn ident(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(Tok::Ident(name), line);
    }

    /// Numbers, loosely: enough to read `0x8E` exactly and to not trip
    /// over `1_000u64`, `2.5e-3` or `1.max(2)` (the `.` only joins the
    /// number when a digit follows, so method calls stay punctuation).
    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let continues = c.is_ascii_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()))
                || ((c == '+' || c == '-')
                    && matches!(text.chars().last(), Some('e') | Some('E'))
                    && !text.to_ascii_lowercase().starts_with("0x"));
            if !continues {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(Tok::Num(text), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn code_in_strings_and_comments_is_not_code() {
        let src = r##"
            // calls .lock() in a comment
            /* and counter("x") in a block */
            let s = "unsafe { panic!() }";
            let r = r#"Ordering::SeqCst"#;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"lock".to_string()));
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"Ordering".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Lifetime(_)))
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Char))
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }
}
