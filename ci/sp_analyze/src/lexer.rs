//! A hand-rolled Rust lexer, just deep enough for rule scanning.
//!
//! Produces a line-numbered token stream (identifiers, punctuation,
//! literals, lifetimes) with comments lifted out separately — rules
//! match token shapes, the allow-comment grammar matches comments.
//! The tricky corners a naive scanner gets wrong are handled:
//! nested block comments, raw strings with arbitrary `#` fences,
//! escape sequences inside string/char literals, and the `'a` char
//! literal vs `'a` lifetime ambiguity.

/// What a token is, as coarsely as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An identifier or keyword.
    Ident,
    /// One punctuation character (`.`, `:`, `!`, `[`, `{`, …).
    Punct,
    /// A string literal (regular, raw, byte, or byte-raw), with quotes
    /// and fences stripped but escapes left as written.
    Str,
    /// A char or byte literal, quotes kept out of `text`.
    Char,
    /// A lifetime (`'a`), without the leading quote.
    Lifetime,
    /// A numeric literal.
    Num,
}

/// One token with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: Kind,
    pub text: String,
    pub line: usize,
}

/// One comment (line or block) with the 1-indexed line it *starts* on
/// and its text without the delimiters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub line: usize,
    pub text: String,
}

/// The lexed file: tokens in order, comments in order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Unterminated constructs (a string or block comment
/// running off the end of the file) terminate the scan quietly — the
/// compiler is the syntax checker; the linter only needs to never
/// misclassify what it saw before the error.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_string_ahead() => self.raw_string(),
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.pos += 1;
                    self.char_literal();
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.pos += 1;
                    self.string();
                }
                b'"' => self.string(),
                b'\'' => self.quote(),
                b if b.is_ascii_digit() => self.number(),
                b if b == b'_' || b.is_ascii_alphabetic() => self.ident(),
                _ => {
                    self.push(Kind::Punct, (b as char).to_string());
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: Kind, text: String) {
        self.out.toks.push(Tok {
            kind,
            text,
            line: self.line,
        });
    }

    fn line_comment(&mut self) {
        let start = self.pos + 2;
        let mut end = start;
        while end < self.bytes.len() && self.bytes[end] != b'\n' {
            end += 1;
        }
        self.out.comments.push(Comment {
            line: self.line,
            text: String::from_utf8_lossy(&self.bytes[start..end]).into_owned(),
        });
        self.pos = end;
    }

    fn block_comment(&mut self) {
        let comment_line = self.line;
        let start = self.pos + 2;
        self.pos = start;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            match (self.bytes[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let end = self.pos.saturating_sub(2).max(start);
        self.out.comments.push(Comment {
            line: comment_line,
            text: String::from_utf8_lossy(&self.bytes[start..end]).into_owned(),
        });
    }

    /// True at `r"`, `r#`, `br"`, or `br#` — a raw string opener, as
    /// opposed to an identifier starting with `r`/`b`.
    fn raw_string_ahead(&self) -> bool {
        let mut k = 0;
        if self.peek(0) == Some(b'b') {
            k = 1;
        }
        if self.bytes.get(self.pos + k) != Some(&b'r') {
            return false;
        }
        matches!(self.peek(k + 1), Some(b'"') | Some(b'#'))
    }

    fn raw_string(&mut self) {
        let start_line = self.line;
        if self.peek(0) == Some(b'b') {
            self.pos += 1;
        }
        self.pos += 1; // the `r`
        let mut fences = 0usize;
        while self.peek(0) == Some(b'#') {
            fences += 1;
            self.pos += 1;
        }
        if self.peek(0) != Some(b'"') {
            return; // `r#foo` raw identifier: re-lex the rest as idents
        }
        self.pos += 1;
        let body_start = self.pos;
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'"') => {
                    let closes = (0..fences).all(|k| self.peek(1 + k) == Some(b'#'));
                    if closes {
                        let text =
                            String::from_utf8_lossy(&self.bytes[body_start..self.pos]).into_owned();
                        self.out.toks.push(Tok {
                            kind: Kind::Str,
                            text,
                            line: start_line,
                        });
                        self.pos += 1 + fences;
                        return;
                    }
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn string(&mut self) {
        let start_line = self.line;
        self.pos += 1; // opening quote
        let body_start = self.pos;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    // A `\` line continuation still ends a line.
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.pos += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'"' => {
                    let text =
                        String::from_utf8_lossy(&self.bytes[body_start..self.pos]).into_owned();
                    self.out.toks.push(Tok {
                        kind: Kind::Str,
                        text,
                        line: start_line,
                    });
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// A `'`: either a char literal (`'x'`, `'\n'`) or a lifetime
    /// (`'a`, `'static`). A quote followed by an identifier char is a
    /// char literal only if a closing quote follows the (possibly
    /// escaped) content.
    fn quote(&mut self) {
        if self.peek(1) == Some(b'\\')
            || (self.peek(1).is_some() && self.peek(2) == Some(b'\''))
            || self.peek(1) == Some(b'\'')
        {
            self.char_literal();
        } else {
            self.pos += 1;
            let start = self.pos;
            while self
                .peek(0)
                .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            self.push(Kind::Lifetime, text);
        }
    }

    fn char_literal(&mut self) {
        self.pos += 1; // opening quote
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.pos += 2,
                b'\'' => {
                    let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.push(Kind::Char, text);
                    self.pos += 1;
                    return;
                }
                b'\n' => return, // malformed; let rustc complain
                _ => self.pos += 1,
            }
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        while self.peek(0).is_some_and(|b| {
            b.is_ascii_alphanumeric() || b == b'_' || b == b'.' && self.peek(1) != Some(b'.')
        }) {
            // `1..n` must stay Num(1) Punct(.) Punct(.) Ident(n); a
            // trailing method call `1.max(2)` keeps the dot out too —
            // only digit-adjacent dots belong to the number.
            if self.bytes[self.pos] == b'.' && !self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
                break;
            }
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(Kind::Num, text);
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(Kind::Ident, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_lifted_not_tokenized() {
        let l = lex("let a = 1; // trailing note\n/* block\nspanning */ let b;");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text, " trailing note");
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert!(idents("// only a comment\n").is_empty());
    }

    #[test]
    fn nested_block_comments_do_not_leak_tokens() {
        assert_eq!(idents("/* a /* nested */ still comment */ real"), ["real"]);
    }

    #[test]
    fn strings_swallow_their_contents() {
        let l = lex(r#"let s = "fn fake() { panic!() }"; real"#);
        assert_eq!(
            l.toks
                .iter()
                .filter(|t| t.kind == Kind::Ident)
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>(),
            ["let", "s", "real"]
        );
        assert_eq!(l.toks.iter().filter(|t| t.kind == Kind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_with_fences_and_inner_quotes() {
        let l = lex("let s = r#\"quote \" and // not a comment\"#; after");
        assert!(l.comments.is_empty());
        let s = l.toks.iter().find(|t| t.kind == Kind::Str).unwrap();
        assert_eq!(s.text, "quote \" and // not a comment");
        assert_eq!(l.toks.last().unwrap().text, "after");
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let l = lex("let c = 'x'; fn f<'a>(v: &'a str) {} let nl = '\\n';");
        let chars: Vec<_> = l.toks.iter().filter(|t| t.kind == Kind::Char).collect();
        let lifetimes: Vec<_> = l.toks.iter().filter(|t| t.kind == Kind::Lifetime).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "x");
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "line1\n\"str\nspans\"\nlast";
        let l = lex(src);
        assert_eq!(l.toks.last().unwrap().line, 4);
        let continued = lex("\"str \\\n continued\"\nlast");
        assert_eq!(continued.toks.last().unwrap().line, 3);
    }

    #[test]
    fn numbers_do_not_eat_range_or_method_dots() {
        let l = lex("for i in 0..10 { x = 1.5; y = 2.max(3); }");
        let nums: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == Kind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["0", "10", "1.5", "2", "3"]);
        assert!(l.toks.iter().any(|t| t.text == "max"));
    }
}
