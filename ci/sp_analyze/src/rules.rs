//! The rule engine: four invariant families over the token stream.
//!
//! * `alloc` — no allocation in declared hot functions.
//! * `panic` / `index` — panic hygiene in library code, plus
//!   may-panic indexing inside hot functions.
//! * `concurrency` — every scope/cursor/thread-count idiom routes
//!   through `sp_sync`.
//! * `env` — every `SP_*` environment knob is registered in
//!   `sp_sync::knobs::ENV_KNOBS`, documented in the README, and read
//!   only through the registry.
//!
//! Escape hatch: `sp-analyze: allow(<rule>, <reason>)` in a comment on
//! the offending line or the line directly above waives that rule for
//! that line; attached to a `fn` declaration line it waives the rule
//! for the whole body. An allow without a reason is itself reported.

use crate::lexer::{lex, Kind, Lexed, Tok};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The declared hot-function manifest: `[path-substring:]fn-name`
/// entries, one per line, `#` comments.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    entries: Vec<(Option<String>, String)>,
}

impl Manifest {
    /// Parses the manifest text. Unparseable lines are reported as
    /// errors, not silently skipped — a typo'd manifest entry would
    /// otherwise quietly stop protecting its function.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut entries = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (path, name) = match line.rsplit_once(':') {
                Some((p, n)) => (Some(p.trim().to_owned()), n.trim()),
                None => (None, line),
            };
            let ok =
                !name.is_empty() && name.chars().all(|c| c == '_' || c.is_ascii_alphanumeric());
            if !ok {
                return Err(format!(
                    "manifest line {}: malformed entry {raw:?} (expected [path-substring:]fn_name)",
                    lineno + 1
                ));
            }
            entries.push((path, name.to_owned()));
        }
        Ok(Manifest { entries })
    }

    /// True when `fn name` in the file at `rel` is declared hot.
    pub fn is_hot(&self, rel: &str, name: &str) -> bool {
        self.entries
            .iter()
            .any(|(path, entry)| entry == name && path.as_deref().is_none_or(|p| rel.contains(p)))
    }

    /// Number of declared entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no functions are declared hot.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An `allow(rule, reason)` escape hatch parsed from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Allow {
    line: usize,
    rule: String,
    has_reason: bool,
}

/// A lexed file plus everything the rules need: allow comments,
/// function regions, and `#[cfg(test)]` regions.
pub struct SourceFile {
    pub rel: String,
    lexed: Lexed,
    allows: Vec<Allow>,
    fns: Vec<FnRegion>,
    test_lines: Vec<(usize, usize)>,
}

/// A function item: its name, the line of its `fn` keyword, and the
/// token range of its body (inclusive of the braces).
#[derive(Debug, Clone)]
struct FnRegion {
    name: String,
    fn_line: usize,
    body: std::ops::Range<usize>,
}

impl SourceFile {
    pub fn new(rel: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let allows = parse_allows(&lexed);
        let fns = fn_regions(&lexed.toks);
        let test_lines = cfg_test_line_ranges(&lexed.toks);
        SourceFile {
            rel: rel.to_owned(),
            lexed,
            allows,
            fns,
            test_lines,
        }
    }

    fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }

    /// True when `line` falls inside a `#[cfg(test)]` item.
    fn in_test_code(&self, line: usize) -> bool {
        self.test_lines
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Non-blank, non-comment lines outside `#[cfg(test)]` items: the
    /// lines some token covers. A string literal covers every line it
    /// spans.
    pub fn code_lines(&self) -> usize {
        let (mut count, mut counted) = (0, 0);
        for t in self.toks() {
            let last = match t.kind {
                Kind::Str => t.line + t.text.matches('\n').count(),
                _ => t.line,
            };
            count += (t.line.max(counted + 1)..=last)
                .filter(|&l| !self.in_test_code(l))
                .count();
            counted = counted.max(last);
        }
        count
    }

    /// True when the violation of `rule` at `line` is waived: an allow
    /// on the line, on the line above, or attached to the declaration
    /// line of the function whose body contains it.
    fn allowed(&self, rule: &str, line: usize) -> bool {
        let direct = self
            .allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line));
        if direct {
            return true;
        }
        self.fns.iter().any(|f| {
            self.line_in_body(f, line)
                && self
                    .allows
                    .iter()
                    .any(|a| a.rule == rule && (a.line == f.fn_line || a.line + 1 == f.fn_line))
        })
    }

    fn line_in_body(&self, f: &FnRegion, line: usize) -> bool {
        let toks = self.toks();
        if f.body.is_empty() {
            return false;
        }
        let lo = toks[f.body.start].line;
        let hi = toks[f.body.end - 1].line;
        (lo..=hi).contains(&line)
    }

    fn diag(&self, out: &mut Vec<Diagnostic>, rule: &'static str, line: usize, message: String) {
        if !self.allowed(rule, line) {
            out.push(Diagnostic {
                file: self.rel.clone(),
                line,
                rule,
                message,
            });
        }
    }

    /// Reasonless allows: the escape hatch exists to carry a
    /// justification; an empty one is reported under the `allow` rule
    /// (which has no escape hatch of its own).
    pub fn check_allow_reasons(&self, out: &mut Vec<Diagnostic>) {
        for a in &self.allows {
            if !a.has_reason {
                out.push(Diagnostic {
                    file: self.rel.clone(),
                    line: a.line,
                    rule: "allow",
                    message: format!(
                        "allow({}) without a reason — write allow({}, why-this-is-fine)",
                        a.rule, a.rule
                    ),
                });
            }
        }
    }

    /// Rule `panic`: no `.unwrap()` / `.expect(…)` / `panic!` in
    /// library code outside tests.
    pub fn check_panic(&self, out: &mut Vec<Diagnostic>) {
        let toks = self.toks();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != Kind::Ident || self.in_test_code(t.line) {
                continue;
            }
            let prev_dot = i > 0 && toks[i - 1].kind == Kind::Punct && toks[i - 1].text == ".";
            let next_is = |s: &str| {
                toks.get(i + 1)
                    .is_some_and(|n| n.kind == Kind::Punct && n.text == s)
            };
            if (t.text == "unwrap" || t.text == "expect") && prev_dot && next_is("(") {
                self.diag(
                    out,
                    "panic",
                    t.line,
                    format!(
                        ".{}() can panic in library code — return the error, \
                         or annotate why it cannot fire",
                        t.text
                    ),
                );
            } else if t.text == "panic" && next_is("!") {
                self.diag(
                    out,
                    "panic",
                    t.line,
                    "panic! in library code — return an error instead, \
                     or annotate why this is unreachable"
                        .to_owned(),
                );
            }
        }
    }

    /// Rules `alloc` and `index`, scoped to the bodies of manifest-
    /// declared hot functions.
    pub fn check_hot_paths(&self, manifest: &Manifest, out: &mut Vec<Diagnostic>) {
        let toks = self.toks();
        for f in &self.fns {
            if !manifest.is_hot(&self.rel, &f.name) || self.in_test_code(f.fn_line) {
                continue;
            }
            for i in f.body.clone() {
                let t = &toks[i];
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let next = toks.get(i + 1);
                let next_is = |s: &str| next.is_some_and(|n| n.kind == Kind::Punct && n.text == s);
                let prev_is_dot = prev.is_some_and(|p| p.kind == Kind::Punct && p.text == ".");
                if t.kind == Kind::Ident {
                    let path_call = |head: &str, tail: &str| {
                        t.text == head
                            && toks.get(i + 1).is_some_and(|a| a.text == ":")
                            && toks.get(i + 2).is_some_and(|b| b.text == ":")
                            && toks.get(i + 3).is_some_and(|c| c.text == tail)
                    };
                    // `.collect()` and `.collect::<…>()` build a fresh
                    // container.
                    let collect =
                        t.text == "collect" && prev_is_dot && (next_is("(") || next_is(":"));
                    let alloc: Option<&str> =
                        if path_call("Vec", "new") || path_call("Vec", "with_capacity") {
                            Some("Vec construction")
                        } else if path_call("Box", "new") {
                            Some("Box::new")
                        } else if path_call("String", "new") || path_call("String", "from") {
                            Some("String construction")
                        } else if t.text == "vec" && next_is("!") {
                            Some("vec! literal")
                        } else if t.text == "format" && next_is("!") {
                            Some("format! allocation")
                        } else if (t.text == "to_vec" || t.text == "to_owned" || t.text == "clone")
                            && prev_is_dot
                            && next_is("(")
                        {
                            Some("owned copy")
                        } else if collect {
                            Some("collect into a new container")
                        } else {
                            None
                        };
                    if let Some(what) = alloc {
                        self.diag(
                            out,
                            "alloc",
                            t.line,
                            format!(
                                "{what} inside hot function `{}` — reuse a caller-provided \
                                 buffer, or annotate the cold branch",
                                f.name
                            ),
                        );
                    }
                } else if t.kind == Kind::Punct && t.text == "[" {
                    // `expr[...]`: an index expression follows an
                    // identifier, a close-paren, or a close-bracket.
                    // Slice types `[T]`, array literals, and
                    // attributes all have other predecessors.
                    let indexing = prev.is_some_and(|p| {
                        p.kind == Kind::Ident
                            || (p.kind == Kind::Punct && (p.text == ")" || p.text == "]"))
                    });
                    if indexing {
                        self.diag(
                            out,
                            "index",
                            t.line,
                            format!(
                                "indexing can panic inside hot function `{}` — use get(), \
                                 or annotate why the index is in bounds",
                                f.name
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Rule `concurrency`: atomics, condition variables, scoped
    /// threads, and thread-count probes belong to `sp_sync` alone.
    pub fn check_concurrency(&self, out: &mut Vec<Diagnostic>) {
        let toks = self.toks();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != Kind::Ident || self.in_test_code(t.line) {
                continue;
            }
            let prev_dot = i > 0 && toks[i - 1].kind == Kind::Punct && toks[i - 1].text == ".";
            let path_tail = |tail: &str| {
                toks.get(i + 1).is_some_and(|a| a.text == ":")
                    && toks.get(i + 2).is_some_and(|b| b.text == ":")
                    && toks.get(i + 3).is_some_and(|c| c.text == tail)
            };
            if (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len())
                || t.text == "Condvar"
            {
                self.diag(
                    out,
                    "concurrency",
                    t.line,
                    format!(
                        "{} outside sp-sync — express the scan as an \
                         sp_sync::WorkQueue run, or the waiting as an \
                         sp_sync::Admission queue, instead of a hand-rolled one",
                        t.text
                    ),
                );
            } else if matches!(
                t.text.as_str(),
                "fetch_add" | "fetch_sub" | "compare_exchange" | "compare_exchange_weak"
            ) && prev_dot
            {
                self.diag(
                    out,
                    "concurrency",
                    t.line,
                    format!("atomic {} outside sp-sync — use sp_sync::WorkQueue", t.text),
                );
            } else if t.text == "thread" && (path_tail("scope") || path_tail("spawn")) {
                self.diag(
                    out,
                    "concurrency",
                    t.line,
                    "raw thread spawning outside sp-sync — run the work through \
                     sp_sync::WorkQueue"
                        .to_owned(),
                );
            } else if t.text == "available_parallelism" {
                self.diag(
                    out,
                    "concurrency",
                    t.line,
                    "thread counts come from sp_sync::configured_threads_for(<knob>) \
                     or sp_sync::default_threads(), not raw available_parallelism"
                        .to_owned(),
                );
            }
        }
    }

    /// Rule `env`: `SP_*` names must be registered; reads go through
    /// the registry.
    pub fn check_env(
        &self,
        registered: &dyn Fn(&str) -> bool,
        is_registry_file: bool,
        out: &mut Vec<Diagnostic>,
    ) {
        let toks = self.toks();
        for (i, t) in toks.iter().enumerate() {
            if self.in_test_code(t.line) {
                continue;
            }
            let names: Vec<String> = match t.kind {
                Kind::Ident if is_knob_name(&t.text) => vec![t.text.clone()],
                Kind::Str => extract_knob_names(&t.text),
                _ => Vec::new(),
            };
            for name in names {
                if !registered(&name) {
                    self.diag(
                        out,
                        "env",
                        t.line,
                        format!(
                            "{name} is not declared in sp_sync::knobs::ENV_KNOBS — \
                             register it (and regenerate the README knob table)"
                        ),
                    );
                }
            }
            if is_registry_file {
                continue;
            }
            if t.kind == Kind::Ident
                && t.text == "env"
                && toks.get(i + 1).is_some_and(|a| a.text == ":")
                && toks.get(i + 2).is_some_and(|b| b.text == ":")
                && toks
                    .get(i + 3)
                    .is_some_and(|c| c.text == "var" || c.text == "var_os")
            {
                self.diag(
                    out,
                    "env",
                    t.line,
                    "raw env read — go through sp_sync::env_var / env_flag / \
                     configured_threads_for so the registry stays authoritative"
                        .to_owned(),
                );
            }
        }
    }
}

/// True for a complete `SP_…` knob identifier.
fn is_knob_name(text: &str) -> bool {
    let prefix = text.strip_prefix("SP").and_then(|r| r.strip_prefix('_'));
    prefix.is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .chars()
                .all(|c| c == '_' || c.is_ascii_uppercase() || c.is_ascii_digit())
    })
}

/// Extracts `SP_…` knob names embedded in a string literal.
fn extract_knob_names(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let is_name_char = |b: u8| b == b'_' || b.is_ascii_uppercase() || b.is_ascii_digit();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let boundary = i == 0 || !is_name_char(bytes[i - 1]);
        if boundary && bytes[i..].starts_with(b"SP") {
            let mut end = i + 2;
            while end < bytes.len() && is_name_char(bytes[end]) {
                end += 1;
            }
            let candidate = &text[i..end];
            if is_knob_name(candidate) {
                out.push(candidate.to_owned());
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parses every `sp-analyze: allow(rule[, reason])` escape hatch.
fn parse_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("sp-analyze:") {
            rest = &rest[at + "sp-analyze:".len()..];
            let Some(open) = rest.find("allow(") else {
                break;
            };
            let inner = &rest[open + "allow(".len()..];
            let Some(close) = inner.find(')') else {
                break;
            };
            let body = &inner[..close];
            let (rule, reason) = match body.split_once(',') {
                Some((r, why)) => (r.trim(), !why.trim().is_empty()),
                None => (body.trim(), false),
            };
            if !rule.is_empty() {
                out.push(Allow {
                    line: c.line,
                    rule: rule.to_owned(),
                    has_reason: reason,
                });
            }
            rest = &inner[close..];
        }
    }
    out
}

/// Finds every `fn name … { body }` item and its body's token range.
fn fn_regions(toks: &[Tok]) -> Vec<FnRegion> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_fn = toks[i].kind == Kind::Ident && toks[i].text == "fn";
        let name = is_fn
            .then(|| toks.get(i + 1))
            .flatten()
            .filter(|n| n.kind == Kind::Ident);
        let Some(name) = name else {
            i += 1;
            continue;
        };
        // Scan the signature for the body `{`: the first brace at
        // paren/bracket depth zero. A `;` first means a bodiless trait
        // method. (Braces cannot appear in signatures before the body:
        // const-generic defaults in `fn` items are not a thing here.)
        let mut depth = 0usize;
        let mut j = i + 2;
        let mut body_start = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == Kind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => {
                        body_start = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(start) = body_start else {
            i += 2;
            continue;
        };
        let end = match_brace(toks, start);
        out.push(FnRegion {
            name: name.text.clone(),
            fn_line: toks[i].line,
            body: start..end,
        });
        // Continue *inside* the body too: nested fns and closures may
        // also be manifest entries.
        i += 2;
    }
    out
}

/// Token index one past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len()
}

/// Line ranges covered by `#[cfg(test)]`(-containing) items.
fn cfg_test_line_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].kind == Kind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        if !(toks[i + 1].kind == Kind::Punct && toks[i + 1].text == "[") {
            i += 1;
            continue;
        }
        let attr_end = match_bracket(toks, i + 1);
        let body = &toks[i + 2..attr_end.saturating_sub(1)];
        let is_cfg_test = body.first().is_some_and(|t| t.text == "cfg")
            && body
                .iter()
                .any(|t| t.kind == Kind::Ident && t.text == "test");
        if !is_cfg_test {
            i = attr_end.max(i + 1);
            continue;
        }
        // The attribute gates the next item: its braces (skipping any
        // further attributes) bound the excluded region.
        let mut j = attr_end;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == Kind::Punct && t.text == "#" {
                // another attribute: skip it
                if toks.get(j + 1).is_some_and(|n| n.text == "[") {
                    j = match_bracket(toks, j + 1);
                    continue;
                }
            }
            if t.kind == Kind::Punct && t.text == "{" {
                let end = match_brace(toks, j);
                let last = end.saturating_sub(1).min(toks.len() - 1);
                out.push((toks[i].line, toks[last].line));
                j = end;
                break;
            }
            if t.kind == Kind::Punct && t.text == ";" {
                // `#[cfg(test)] use …;` — gate just that line.
                out.push((toks[i].line, t.line));
                break;
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
    out
}

/// Token index one past the `]` matching the `[` at `open`.
fn match_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knob_registry(name: &str) -> bool {
        sp_sync::knobs::knob(name).is_some()
    }

    fn lib_file(src: &str) -> SourceFile {
        SourceFile::new("crates/fake/src/lib.rs", src)
    }

    fn hot_manifest() -> Manifest {
        Manifest::parse("route_into\ncrates/fake/src/lib.rs:hand_step\n").unwrap()
    }

    #[test]
    fn manifest_parses_paths_comments_and_rejects_garbage() {
        let m =
            Manifest::parse("# comment\nroute_into\ncrates/core/src/slgf2.rs:safe_pick\n").unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.is_hot("crates/baselines/src/gf.rs", "route_into"));
        assert!(m.is_hot("crates/core/src/slgf2.rs", "safe_pick"));
        assert!(!m.is_hot("crates/net/src/graph.rs", "safe_pick"));
        assert!(Manifest::parse("bad entry with spaces\n").is_err());
    }

    #[test]
    fn panic_rule_fires_outside_tests_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) { x.unwrap(); }\n}\n";
        let sf = lib_file(src);
        let mut out = Vec::new();
        sf.check_panic(&mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
        assert_eq!(out[0].rule, "panic");
    }

    #[test]
    fn panic_rule_honors_allow_with_reason() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   \x20   // sp-analyze: allow(panic, checked by caller)\n\
                   \x20   x.unwrap()\n}\n";
        let sf = lib_file(src);
        let mut out = Vec::new();
        sf.check_panic(&mut out);
        sf.check_allow_reasons(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reasonless_allow_is_reported() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   \x20   // sp-analyze: allow(panic)\n\
                   \x20   x.unwrap()\n}\n";
        let sf = lib_file(src);
        let mut out = Vec::new();
        sf.check_panic(&mut out);
        sf.check_allow_reasons(&mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "allow");
    }

    #[test]
    fn fn_line_allow_waives_the_whole_body() {
        let src = "// sp-analyze: allow(index, ids are validated at construction)\n\
                   fn hand_step(v: &[u32], i: usize, j: usize) -> u32 {\n\
                   \x20   v[i] + v[j]\n}\n";
        let sf = lib_file(src);
        let mut out = Vec::new();
        sf.check_hot_paths(&hot_manifest(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn alloc_rule_catches_every_listed_constructor() {
        let cases = [
            ("let v = Vec::new();", "Vec"),
            ("let v = Vec::with_capacity(8);", "Vec"),
            ("let v = vec![0u8; 4];", "vec!"),
            ("let s = format!(\"x{}\", 1);", "format!"),
            ("let b = Box::new(3);", "Box"),
            ("let c = src.to_vec();", "copy"),
            ("let c = src.clone();", "copy"),
            ("let c: Vec<u8> = src.iter().copied().collect();", "collect"),
            ("let c = src.iter().collect::<Vec<_>>();", "collect"),
        ];
        for (stmt, tag) in cases {
            let src = format!("fn route_into(src: &[u8]) {{ {stmt} }}");
            let sf = lib_file(&src);
            let mut out = Vec::new();
            sf.check_hot_paths(&hot_manifest(), &mut out);
            assert_eq!(out.len(), 1, "{tag}: {out:?}");
            assert_eq!(out[0].rule, "alloc", "{tag}");
        }
    }

    #[test]
    fn alloc_rule_ignores_cold_functions() {
        let src = "fn cold_setup() -> Vec<u32> { Vec::new() }";
        let sf = lib_file(src);
        let mut out = Vec::new();
        sf.check_hot_paths(&hot_manifest(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn index_rule_distinguishes_indexing_from_types_and_attributes() {
        let src = "#[derive(Clone)]\n\
                   fn route_into(v: &[u32], i: usize) -> u32 {\n\
                   \x20   let arr: [u32; 2] = [0, 1];\n\
                   \x20   v[i] + arr[0]\n}\n";
        let sf = lib_file(src);
        let mut out = Vec::new();
        sf.check_hot_paths(&hot_manifest(), &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "index" && d.line == 4));
    }

    #[test]
    fn concurrency_rule_flags_each_escaped_idiom() {
        let cases = [
            "use std::sync::atomic::AtomicUsize;",
            "struct S { ready: std::sync::Condvar }",
            "fn f(c: &C) { c.cursor.fetch_add(1, O::Relaxed); }",
            "fn f() { std::thread::scope(|s| {}); }",
            "fn f() { std::thread::spawn(|| {}); }",
            "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }",
        ];
        for src in cases {
            let sf = lib_file(src);
            let mut out = Vec::new();
            sf.check_concurrency(&mut out);
            assert!(out.iter().any(|d| d.rule == "concurrency"), "missed: {src}");
        }
    }

    #[test]
    fn env_rule_flags_unregistered_knobs_and_raw_reads() {
        // Built at runtime so this test file never contains an
        // unregistered knob literal for the workspace scan to find.
        let fake = ["SP", "UNDECLARED_KNOB"].join("_");
        let src = format!("fn f() -> Option<String> {{ std::env::var(\"{fake}\").ok() }}");
        let sf = lib_file(&src);
        let mut out = Vec::new();
        sf.check_env(&knob_registry, false, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "env"));
        assert!(out.iter().any(|d| d.message.contains("not declared")));
        assert!(out.iter().any(|d| d.message.contains("raw env read")));
    }

    #[test]
    fn env_rule_accepts_registered_knobs_via_the_registry() {
        let src = "fn f() -> usize { sp_sync::configured_threads_for(\"SP_SERVE_THREADS\") }";
        let sf = lib_file(src);
        let mut out = Vec::new();
        sf.check_env(&knob_registry, false, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
