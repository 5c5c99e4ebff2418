//! A string/comment-aware scanner for Rust source.
//!
//! This is deliberately *not* a Rust parser. The lints in this crate
//! only need a token stream that is reliable about three things:
//!
//! 1. text inside string/char literals and comments must never produce
//!    identifier tokens (otherwise `"partial_cmp"` in a doc string
//!    would trip the lint that bans the method call),
//! 2. identifiers and single-character punctuation must come out in
//!    source order with accurate line numbers, and
//! 3. `// cws-lint: allow(<lint>)` annotations must be recoverable
//!    with the line of code they target.
//!
//! Everything else — types, generics, macro expansion — is out of
//! scope, and the lints are designed around that limitation (they ban
//! *names in code position*, the same approach as Chromium's banned-API
//! presubmit checks).

use std::collections::{BTreeMap, BTreeSet};

/// One significant token of the scanned source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// Token classification — just enough for name-based lints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `partial_cmp`, `HashMap`, …).
    Ident(String),
    /// A single punctuation character (`.`, `:`, `{`, `}`, …).
    Punct(char),
    /// A numeric literal (value irrelevant to the lints; kept so that
    /// method calls on literals still see a non-`.` predecessor).
    Number,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// What an allow annotation applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllowTarget {
    /// `cws-lint: allow-file(..)` — the whole file.
    File,
    /// `cws-lint: allow(..)` — the code line it governs.
    Line(u32),
}

/// One `(lint name, target)` pair from an allow annotation, with the
/// comment line it was written on. The engine uses these both to flag
/// unknown lint names and to detect stale allows (annotations that
/// suppress nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSite {
    /// 1-based line of the comment carrying the annotation.
    pub comment_line: u32,
    /// Lint name as written.
    pub name: String,
    /// What the annotation covers.
    pub target: AllowTarget,
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub struct Scan {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Lines (1-based) that carry at least one code token.
    pub code_lines: BTreeSet<u32>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Lints allowed for the whole file via `cws-lint: allow-file(..)`.
    file_allows: BTreeSet<String>,
    /// Per-line allows: target line → lint names allowed there.
    line_allows: BTreeMap<u32, BTreeSet<String>>,
    /// Every allow annotation, with its resolved target.
    pub allow_sites: Vec<AllowSite>,
}

impl Scan {
    /// Scan `source`, producing tokens, allow annotations and
    /// `#[cfg(test)]` regions.
    #[must_use]
    pub fn of(source: &str) -> Scan {
        let mut lx = Lexer::new(source);
        lx.run();
        let mut scan = Scan {
            tokens: lx.tokens,
            code_lines: BTreeSet::new(),
            test_regions: Vec::new(),
            file_allows: BTreeSet::new(),
            line_allows: BTreeMap::new(),
            allow_sites: Vec::new(),
        };
        for t in &scan.tokens {
            scan.code_lines.insert(t.line);
        }
        scan.resolve_allows(&lx.comments);
        scan.find_test_regions();
        scan
    }

    /// True when `lint` is allowed on `line` (same-line or
    /// preceding-line annotation, or a file-level allow).
    #[must_use]
    pub fn allowed(&self, lint: &str, line: u32) -> bool {
        self.file_allows.contains(lint)
            || self
                .line_allows
                .get(&line)
                .is_some_and(|s| s.contains(lint))
    }

    /// True when `line` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| s <= line && line <= e)
    }

    /// Map each comment annotation onto the code line it governs: a
    /// trailing comment governs its own line; a standalone comment
    /// governs the next line that has code (clippy's convention).
    fn resolve_allows(&mut self, comments: &[Comment]) {
        for c in comments {
            let Some(directive) = parse_directive(&c.text) else {
                continue;
            };
            match directive {
                Directive::AllowFile(names) => {
                    for n in names {
                        self.allow_sites.push(AllowSite {
                            comment_line: c.line,
                            name: n.clone(),
                            target: AllowTarget::File,
                        });
                        self.file_allows.insert(n);
                    }
                }
                Directive::Allow(names) => {
                    let target = if c.trailing {
                        c.line
                    } else {
                        match self.code_lines.range(c.line + 1..).next() {
                            Some(&l) => l,
                            None => continue,
                        }
                    };
                    let entry = self.line_allows.entry(target).or_default();
                    for n in names {
                        self.allow_sites.push(AllowSite {
                            comment_line: c.line,
                            name: n.clone(),
                            target: AllowTarget::Line(target),
                        });
                        entry.insert(n);
                    }
                }
            }
        }
    }

    /// Locate `#[cfg(test)]` attributes and record the line span of the
    /// item they gate (brace-matched block, or the statement up to `;`).
    fn find_test_regions(&mut self) {
        let toks = &self.tokens;
        let mut i = 0;
        while i < toks.len() {
            if let Some(after_attr) = match_cfg_test(toks, i) {
                let start_line = toks[i].line;
                // Walk forward to the gated item's body: first `{`
                // opens a brace-matched block; a `;` first means the
                // attribute gates a braceless item (e.g. a `use`).
                let mut j = after_attr;
                let mut end_line = start_line;
                while j < toks.len() {
                    if toks[j].is_punct(';') {
                        end_line = toks[j].line;
                        break;
                    }
                    if toks[j].is_punct('{') {
                        let mut depth = 0usize;
                        while j < toks.len() {
                            if toks[j].is_punct('{') {
                                depth += 1;
                            } else if toks[j].is_punct('}') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                        end_line = toks.get(j).map_or(end_line, |t| t.line);
                        break;
                    }
                    j += 1;
                }
                self.test_regions.push((start_line, end_line));
                i = j.max(after_attr);
            }
            i += 1;
        }
    }
}

/// If tokens at `i` start `# [ cfg ( … test … ) ]`, return the index
/// one past the closing `]`. The scan inside the parens is
/// paren-matched, so `#[cfg(all(test, feature = "x"))]` matches too.
fn match_cfg_test(toks: &[Token], i: usize) -> Option<usize> {
    if !(toks.get(i)?.is_punct('#') && toks.get(i + 1)?.is_punct('[')) {
        return None;
    }
    if toks.get(i + 2)?.ident() != Some("cfg") || !toks.get(i + 3)?.is_punct('(') {
        return None;
    }
    // The predicate must *require* `test`: a bare `#[cfg(test)]`, or an
    // `all(..)` with `test` as a top-level conjunct. `any(test, ..)` /
    // `not(test)` compile into non-test builds too (code behind
    // `cfg(any(test, feature = "x"))` ships whenever the feature is on),
    // so they are NOT test regions.
    let mut depth = 1usize;
    let mut saw_test = false;
    let outer_all = toks.get(i + 4).and_then(Token::ident) == Some("all")
        && toks.get(i + 5).is_some_and(|t| t.is_punct('('));
    let bare_test = toks.get(i + 4).and_then(Token::ident) == Some("test")
        && toks.get(i + 5).is_some_and(|t| t.is_punct(')'));
    let mut j = i + 4;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        } else if t.ident() == Some("test") && outer_all && depth == 2 {
            // Top level inside `all(..)`'s own parens.
            saw_test = true;
        }
        j += 1;
    }
    if !(bare_test || saw_test) {
        return None;
    }
    // Expect the closing `]` right after the parens.
    if toks.get(j)?.is_punct(']') {
        Some(j + 1)
    } else {
        None
    }
}

/// One comment captured during the scan.
struct Comment {
    /// Line the comment starts on.
    line: u32,
    /// Comment text without the `//` / `/* */` delimiters.
    text: String,
    /// True when code tokens precede the comment on the same line.
    trailing: bool,
}

enum Directive {
    Allow(Vec<String>),
    AllowFile(Vec<String>),
}

/// Parse an allow directive out of a comment body. The directive must
/// *start* the comment (one doc marker `/` or `!` is tolerated), so
/// prose that merely mentions the syntax mid-sentence — like this
/// crate's own documentation — never registers as an annotation, and
/// lint names are restricted to kebab-case so placeholder text such as
/// a bracketed lint name cannot parse. Returns `None` when the
/// comment carries no directive.
fn parse_directive(text: &str) -> Option<Directive> {
    let mut body = text.trim_start();
    if let Some(stripped) = body.strip_prefix('/').or_else(|| body.strip_prefix('!')) {
        body = stripped.trim_start();
    }
    let rest = body.strip_prefix("cws-lint:")?.trim_start();
    let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow") {
        (false, r)
    } else {
        return None;
    };
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let names: Vec<String> = inner[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let kebab = |s: &str| {
        s.len() > 1
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    };
    if names.is_empty() || !names.iter().all(|n| kebab(n)) {
        return None;
    }
    Some(if file_scope {
        Directive::AllowFile(names)
    } else {
        Directive::Allow(names)
    })
}

/// The character-level state machine.
struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
    /// Last line on which a code token was emitted (for `trailing`).
    last_code_line: u32,
}

impl Lexer {
    fn new(source: &str) -> Lexer {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
            comments: Vec::new(),
            last_code_line: 0,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consume one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.last_code_line = line;
        self.tokens.push(Token { kind, line });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                '\'' => self.quote(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident_or_raw(),
                c if c.is_whitespace() => {
                    self.bump();
                }
                _ => {
                    let line = self.line;
                    self.bump();
                    self.push(TokenKind::Punct(c), line);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let trailing = self.last_code_line == line;
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.comments.push(Comment {
            line,
            text,
            trailing,
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let trailing = self.last_code_line == line;
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.comments.push(Comment {
            line,
            text,
            trailing,
        });
    }

    /// A `"…"` literal with escape handling; multiline strings are
    /// consumed whole (line tracking continues inside).
    fn string_literal(&mut self) {
        self.bump();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// Raw string starting after an `r`/`br` prefix: `r"…"`, `r#"…"#`,
    /// … Backslashes are NOT escapes inside; the literal ends at `"`
    /// followed by the same number of `#` as it opened with.
    fn raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        debug_assert_eq!(self.peek(0), Some('"'));
        self.bump();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
    }

    /// `'` starts either a char literal or a lifetime. A lifetime is
    /// `'` + identifier NOT followed by a closing `'`; everything else
    /// (`'a'`, `'\n'`, `'\u{1F4A9}'`) is a char literal.
    fn quote(&mut self) {
        match (self.peek(1), self.peek(2)) {
            (Some(c1), Some(c2)) if is_ident_start(c1) && c2 != '\'' => {
                // Lifetime: consume the quote and the identifier,
                // emitting nothing (`'static`, `'a`).
                self.bump();
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
            }
            _ => {
                // Char literal.
                self.bump();
                while let Some(c) = self.bump() {
                    match c {
                        '\\' => {
                            self.bump();
                        }
                        '\'' => break,
                        _ => {}
                    }
                }
            }
        }
    }

    /// Numeric literal: digits/underscores/alphanumerics (covers hex,
    /// suffixes, `1e5`), one optional `.<digit>` fraction. `1.max(2)`
    /// lexes as Number `.` Ident, and `0..n` as Number `.` `.` Ident.
    fn number(&mut self) {
        let line = self.line;
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.bump();
        }
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.bump();
            }
        }
        self.push(TokenKind::Number, line);
    }

    fn ident_or_raw(&mut self) {
        let line = self.line;
        let mut name = String::new();
        while self.peek(0).is_some_and(is_ident_continue) {
            name.push(self.bump().expect("peeked"));
        }
        // Raw-string prefixes: r"…" r#"…"# b r combinations.
        if name == "r" || name == "br" || name == "b" {
            match self.peek(0) {
                Some('"') if name != "b" => {
                    self.raw_string();
                    return;
                }
                Some('"') => {
                    // b"…" byte string: normal escape rules.
                    self.string_literal();
                    return;
                }
                Some('#') if name != "b" => {
                    // Either a raw string `r#"…"#` or a raw identifier
                    // `r#match`. Look past the hashes for a quote.
                    let mut k = 0;
                    while self.peek(k) == Some('#') {
                        k += 1;
                    }
                    if self.peek(k) == Some('"') {
                        self.raw_string();
                        return;
                    }
                    if name == "r" && k == 1 && self.peek(1).is_some_and(is_ident_start) {
                        // Raw identifier: emit the bare name.
                        self.bump(); // '#'
                        let mut raw = String::new();
                        while self.peek(0).is_some_and(is_ident_continue) {
                            raw.push(self.bump().expect("peeked"));
                        }
                        self.push(TokenKind::Ident(raw), line);
                        return;
                    }
                }
                Some('\'') if name == "b" => {
                    // b'x' byte literal.
                    self.quote();
                    return;
                }
                _ => {}
            }
        }
        self.push(TokenKind::Ident(name), line);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        Scan::of(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            let x = "partial_cmp inside a string";
            // partial_cmp inside a line comment
            /* partial_cmp inside /* a nested */ block comment */
            let y = r#"partial_cmp inside a raw string"#;
            let z = b"partial_cmp bytes";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"partial_cmp".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        // If 'a opened a char literal the scanner would swallow the
        // `partial_cmp` identifier that follows.
        let src = "fn f<'a>(x: &'a f64) { x.partial_cmp(y) }";
        let ids = idents(src);
        assert!(ids.contains(&"partial_cmp".to_string()));
    }

    #[test]
    fn char_literal_with_quote_escape() {
        let src = "let q = '\\''; let h = '{'; x.unwrap()";
        let ids = idents(src);
        assert!(ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_string_backslash_is_not_escape() {
        let src = "let p = r\"C:\\\"; x.unwrap()";
        assert!(idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_identifiers_come_out_bare() {
        assert!(idents("let r#unsafe = 1;").contains(&"unsafe".to_string()));
    }

    #[test]
    fn number_then_method_has_dot_predecessor() {
        let scan = Scan::of("let m = 1.max(2);");
        let toks = &scan.tokens;
        let max_pos = toks
            .iter()
            .position(|t| t.ident() == Some("max"))
            .expect("max token");
        assert!(toks[max_pos - 1].is_punct('.'));
        assert_eq!(toks[max_pos - 2].kind, TokenKind::Number);
    }

    #[test]
    fn allow_same_line_and_preceding_line() {
        let src = "\
let a = x.foo(); // cws-lint: allow(lint-a)
// cws-lint: allow(lint-b, lint-c)
let b = y.bar();
let c = z.baz();
";
        let scan = Scan::of(src);
        assert!(scan.allowed("lint-a", 1));
        assert!(!scan.allowed("lint-a", 3));
        assert!(scan.allowed("lint-b", 3));
        assert!(scan.allowed("lint-c", 3));
        assert!(!scan.allowed("lint-b", 4));
    }

    #[test]
    fn prose_mentions_of_the_syntax_are_not_directives() {
        // Mid-sentence mentions, placeholder names and doc-quoted
        // examples must not register (they would otherwise show up as
        // unknown-allow noise or silently waive lints).
        let srcs = [
            "// annotations use cws-lint: allow(lint-a) on the line above\nlet x = 1;\n",
            "// cws-lint: allow(<lint>)\nlet x = 1;\n",
            "/// `// cws-lint: allow(lint-a)`\nlet x = 1;\n",
        ];
        for src in srcs {
            let scan = Scan::of(src);
            assert!(!scan.allowed("lint-a", 2), "registered from: {src}");
            assert!(scan.allow_sites.is_empty(), "names from: {src}");
        }
        // …but a doc-marker comment that IS the directive still works.
        let scan = Scan::of("// cws-lint: allow(lint-a)\nlet x = 1;\n");
        assert!(scan.allowed("lint-a", 2));
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// cws-lint: allow-file(lint-a)\nlet a = 1;\nlet b = 2;\n";
        let scan = Scan::of(src);
        assert!(scan.allowed("lint-a", 2));
        assert!(scan.allowed("lint-a", 3));
    }

    #[test]
    fn cfg_test_region_brace_matched() {
        let src = "\
pub fn real() {}

#[cfg(test)]
mod tests {
    fn helper() {
        inner();
    }
}
pub fn also_real() {}
";
        let scan = Scan::of(src);
        assert_eq!(scan.test_regions, vec![(3, 8)]);
        assert!(scan.in_test_region(5));
        assert!(!scan.in_test_region(1));
        assert!(!scan.in_test_region(9));
    }

    #[test]
    fn cfg_test_on_braceless_item() {
        let src = "#[cfg(test)]\nuse std::collections::BTreeMap;\nfn f() {}\n";
        let scan = Scan::of(src);
        assert_eq!(scan.test_regions, vec![(1, 2)]);
        assert!(!scan.in_test_region(3));
    }

    #[test]
    fn cfg_all_test_matches() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { }\n";
        let scan = Scan::of(src);
        assert_eq!(scan.test_regions.len(), 1);
    }

    #[test]
    fn cfg_regions_require_test_as_a_conjunct() {
        // Only predicates that *require* `test` gate test-only code:
        // `any(test, feature = ..)` and `not(test)` both compile into
        // non-test builds (whenever the feature is on), so lints must
        // keep firing there.
        assert_eq!(Scan::of("#[cfg(test)]\nmod t { }\n").test_regions.len(), 1);
        assert_eq!(
            Scan::of("#[cfg(all(test, feature = \"x\"))]\nmod t { }\n")
                .test_regions
                .len(),
            1
        );
        assert_eq!(
            Scan::of("#[cfg(all(any(unix, windows), test))]\nmod t { }\n")
                .test_regions
                .len(),
            1
        );
        assert!(Scan::of("#[cfg(not(test))]\nmod t { }\n")
            .test_regions
            .is_empty());
        assert!(
            Scan::of("#[cfg(any(test, feature = \"naive\"))]\nmod t { }\n")
                .test_regions
                .is_empty()
        );
        assert!(
            Scan::of("#[cfg(all(feature = \"x\", any(test, unix)))]\nmod t { }\n")
                .test_regions
                .is_empty(),
            "`test` nested under any() inside all() does not require test"
        );
        assert!(Scan::of("#[cfg(feature = \"test\")]\nmod t { }\n")
            .test_regions
            .is_empty());
    }
}
