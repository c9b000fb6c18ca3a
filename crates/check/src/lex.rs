//! A small, dependency-free Rust lexer for era-check's source passes.
//!
//! The PR 7 lints were line-level: a state machine stripped comments and
//! string literals from one line at a time and the rules string-matched the
//! remainder. That design had two systematic blind spots — raw strings
//! (`r#"…"#` can span lines and contain `"` freely) and *nested* block
//! comments (`/* /* */ */` is one comment in Rust, two in the old scanner) —
//! and, more fundamentally, it could not see *structure*: where a function
//! begins and ends, what it calls, which `impl` owns it.
//!
//! This lexer tokenizes a whole file at once into a flat [`Token`] stream
//! (identifiers, punctuation, literals, lifetimes — each tagged with its
//! 1-based source line) and collects `// era-check:` directives per line as a
//! side table. Everything the old scanner got wrong is handled at the token
//! level:
//!
//! - raw strings `r"…"`, `r#"…"#` (any hash depth), byte strings `b"…"`,
//!   `br#"…"#`, and C strings `c"…"` are single [`TokKind::Literal`] tokens —
//!   a `panic!` or `xs[0]` inside one is data, not code;
//! - block comments nest, exactly as in the Rust grammar;
//! - `'a` lifetimes are distinguished from `'x'` char literals, so a
//!   lifetime never starts a phantom string;
//! - raw identifiers `r#match` lex as identifiers, not raw strings.
//!
//! The token stream deliberately carries no spans into the source text
//! beyond the line number: the downstream item extractor
//! ([`crate::graph`]) only needs token order and lines.

use std::collections::HashMap;

/// What kind of token this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `impl`, `read_at`, …).
    Ident(String),
    /// Any single punctuation character (`{`, `(`, `.`, `!`, `;`, …).
    /// Multi-character operators arrive as their constituent puncts.
    Punct(char),
    /// A string/char/byte/number literal, collapsed to one token.
    Literal,
    /// A lifetime (`'a`, `'_`, `'static`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub kind: TokKind,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(i) if i == s)
    }
}

/// One `// era-check:` directive, attached to the line its comment sits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `// era-check: entry` — the next function is a query/serving entry
    /// point: everything reachable from it is subject to the panic-path rule.
    Entry,
    /// `// era-check: allow(<rule>): reason` — suppress `<rule>` here (on
    /// this line, the next line, or — when attached to a `fn` declaration —
    /// for the whole function).
    Allow(String),
    /// `// era-check: source` — the next function is a trust-boundary
    /// parsing seam: its byte-slice parameters and `read_exact`-filled
    /// buffers are taint sources, and its return value is tainted.
    Source,
    /// `// era-check: sanitized(<what>): reason` — the value at this site
    /// has been validated out-of-band; the taint pass treats it as clean.
    Sanitized(String),
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream in source order.
    pub tokens: Vec<Token>,
    /// Directives by 1-based line number.
    pub directives: HashMap<usize, Vec<Directive>>,
}

impl Lexed {
    /// The directives on `line` (empty slice if none).
    pub fn directives_on(&self, line: usize) -> &[Directive] {
        self.directives.get(&line).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether an `allow(<rule>)` directive covers a site on `line` — on the
    /// same line or the immediately preceding one, matching the PR 7
    /// suppression contract.
    pub fn allows_site(&self, line: usize, rule: &str) -> bool {
        let check = |l: usize| {
            self.directives_on(l).iter().any(|d| matches!(d, Directive::Allow(r) if r == rule))
        };
        check(line) || (line > 1 && check(line - 1))
    }

    /// Whether a `sanitized(<what>)` directive covers a site on `line` — same
    /// placement contract as [`Self::allows_site`].
    pub fn sanitizes_site(&self, line: usize, what: &str) -> bool {
        let check = |l: usize| {
            self.directives_on(l).iter().any(|d| matches!(d, Directive::Sanitized(w) if w == what))
        };
        check(line) || (line > 1 && check(line - 1))
    }
}

/// Parses the text of one line comment into a directive, if it is one.
///
/// A directive must be the comment itself (`// era-check: …`), not a mention
/// inside prose: doc comments *describing* the rules must not arm them. The
/// leading `/`/`!` of `///`/`//!` forms are tolerated so a directive can live
/// in any comment style, but once a non-directive word starts the comment it
/// is prose.
fn parse_directive(comment_body: &str) -> Option<Directive> {
    let body = comment_body.trim_start_matches(['/', '!']).trim_start();
    let rest = body.strip_prefix("era-check:")?.trim_start();
    if let Some(arg) = rest.strip_prefix("allow(") {
        let end = arg.find(')')?;
        return Some(Directive::Allow(arg[..end].trim().to_string()));
    }
    if let Some(arg) = rest.strip_prefix("sanitized(") {
        let end = arg.find(')')?;
        return Some(Directive::Sanitized(arg[..end].trim().to_string()));
    }
    if rest.starts_with("entry") {
        return Some(Directive::Entry);
    }
    // `source` must be the whole word: prose like "sources of taint" inside
    // an `// era-check:`-prefixed sentence must not arm the directive.
    let source_word = rest == "source"
        || rest.strip_prefix("source").is_some_and(|t| t.starts_with(char::is_whitespace));
    if source_word {
        return Some(Directive::Source);
    }
    None
}

/// Lexes `source` into tokens plus the per-line directive table.
pub fn lex(source: &str) -> Lexed {
    let b = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;

    let push = |kind: TokKind, line: usize, out: &mut Lexed| out.tokens.push(Token { kind, line });

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Line comment: scan to end of line, collect any directive.
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                if let Some(d) = parse_directive(&source[start..j]) {
                    out.directives.entry(line).or_default().push(d);
                }
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comment — these NEST in Rust: /* /* */ */ is one
                // comment. The old per-line scanner closed at the first */
                // and linted the tail of the outer comment as code.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let lit_line = line;
                i = skip_string(b, i + 1, &mut line);
                push(TokKind::Literal, lit_line, &mut out);
            }
            b'\'' => {
                // Char literal vs lifetime. A char literal closes within a
                // few characters ('x', '\n', '\u{1F600}'); a lifetime is '
                // followed by an identifier with no closing quote.
                let lit_line = line;
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    // Escaped char literal: skip the escape, then to the '.
                    let mut j = i + 2;
                    if j < b.len() {
                        j += 1; // the escaped character (or u of \u{…})
                    }
                    while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
                        j += 1;
                    }
                    i = (j + 1).min(b.len());
                    push(TokKind::Literal, lit_line, &mut out);
                } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                    i += 3;
                    push(TokKind::Literal, lit_line, &mut out);
                } else {
                    // Lifetime: consume the identifier part.
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    i = j;
                    push(TokKind::Lifetime, lit_line, &mut out);
                }
            }
            c if c.is_ascii_digit() => {
                let lit_line = line;
                let mut j = i + 1;
                while j < b.len()
                    && (b[j].is_ascii_alphanumeric()
                        || b[j] == b'_'
                        || (b[j] == b'.' && j + 1 < b.len() && b[j + 1].is_ascii_digit()))
                {
                    j += 1;
                }
                i = j;
                push(TokKind::Literal, lit_line, &mut out);
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let ident = &source[start..j];
                // String-literal prefixes: r"…", r#"…"#, b"…", br#"…"#,
                // c"…" — and the raw-identifier form r#ident, which is NOT
                // a string.
                let is_str_prefix = matches!(ident, "r" | "b" | "br" | "rb" | "c" | "cr");
                if is_str_prefix && j < b.len() && (b[j] == b'"' || b[j] == b'#') {
                    let lit_line = line;
                    if b[j] == b'"' {
                        // r"…" / br"…" / cr"…": raw — no escapes, ends at ".
                        // b"…" / c"…" without r: normal escape rules.
                        if ident.contains('r') {
                            i = skip_raw_string(b, j + 1, 0, &mut line);
                        } else {
                            i = skip_string(b, j + 1, &mut line);
                        }
                        push(TokKind::Literal, lit_line, &mut out);
                        continue;
                    }
                    // ident followed by '#': count hashes, then expect '"'.
                    let mut hashes = 0usize;
                    let mut k = j;
                    while k < b.len() && b[k] == b'#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < b.len() && b[k] == b'"' {
                        i = skip_raw_string(b, k + 1, hashes, &mut line);
                        push(TokKind::Literal, lit_line, &mut out);
                        continue;
                    }
                    // r#ident — a raw identifier: lex the identifier after
                    // the single hash.
                    if ident == "r" && hashes == 1 {
                        let id_start = k;
                        let mut m = k;
                        while m < b.len() && (b[m].is_ascii_alphanumeric() || b[m] == b'_') {
                            m += 1;
                        }
                        push(TokKind::Ident(source[id_start..m].to_string()), line, &mut out);
                        i = m;
                        continue;
                    }
                    // Lone '#' after an ident that isn't a raw string or raw
                    // identifier: emit the ident and re-lex from the '#'.
                    push(TokKind::Ident(ident.to_string()), line, &mut out);
                    i = j;
                    continue;
                }
                if ident == "b" && j < b.len() && b[j] == b'\'' {
                    // Byte char literal b'x' / b'\n'.
                    let lit_line = line;
                    let mut k = j + 1;
                    if k < b.len() && b[k] == b'\\' {
                        k += 2;
                    } else if k < b.len() {
                        k += 1;
                    }
                    while k < b.len() && b[k] != b'\'' && b[k] != b'\n' {
                        k += 1;
                    }
                    i = (k + 1).min(b.len());
                    push(TokKind::Literal, lit_line, &mut out);
                    continue;
                }
                push(TokKind::Ident(ident.to_string()), line, &mut out);
                i = j;
            }
            c => {
                push(TokKind::Punct(c as char), line, &mut out);
                i += 1;
            }
        }
    }
    out
}

/// Skips a normal (escaped) string literal body; `i` points just past the
/// opening quote. Returns the index just past the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut usize) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // A `\` line continuation escapes the newline itself; the
                // line counter must still advance past it.
                if i + 1 < b.len() && b[i + 1] == b'\n' {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string body with `hashes` closing hashes; `i` points just past
/// the opening quote. Raw strings have no escapes: the body ends only at a
/// `"` followed by exactly the right number of `#`s.
fn skip_raw_string(b: &[u8], mut i: usize, hashes: usize, line: &mut usize) -> usize {
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut k = i + 1;
            let mut seen = 0usize;
            while k < b.len() && seen < hashes && b[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn raw_strings_are_single_literals() {
        // Regression (PR 8 satellite): the PR 7 line scanner treated the
        // closing quote rules of r#"…"# like a normal string, so a read_at
        // or unwrap() inside leaked into the "code" half of the line.
        let src = r####"
fn f() {
    let a = r#"s.read_at(0, buf); x.unwrap();"#;
    let b = r##"nested "#" quotes"##;
    let c = r"plain raw with \ backslash";
    real_call();
}
"####;
        let ids = idents(src);
        assert!(ids.contains(&"real_call".to_string()));
        assert!(!ids.contains(&"read_at".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"backslash".to_string()));
    }

    #[test]
    fn multiline_raw_strings_keep_line_numbers() {
        let src = "let a = r#\"line\nline\nline\"#;\nfn after() {}\n";
        let lexed = lex(src);
        let fn_tok = lexed.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(fn_tok.line, 4);
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        // Regression (PR 8 satellite): `/* /* */ s.read_at(0, b); */` — the
        // old scanner closed at the first */ and linted the rest as code.
        let src = "fn f() { /* outer /* inner */ s.read_at(0, b); */ ok(); }\n";
        let ids = idents(src);
        assert!(!ids.contains(&"read_at".to_string()), "{ids:?}");
        assert!(ids.contains(&"ok".to_string()));
    }

    #[test]
    fn raw_identifiers_are_identifiers_not_strings() {
        let ids = idents("fn f() { r#match(); other(); }\n");
        assert!(ids.contains(&"match".to_string()));
        assert!(ids.contains(&"other".to_string()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src =
            "fn f() { let a = b\"read_at\"; let c = b'x'; let d = br#\"unwrap()\"#; tail(); }\n";
        let ids = idents(src);
        assert!(!ids.contains(&"read_at".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"tail".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src =
            "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { let c = 'x'; let n = '\\n'; h(); }\n";
        let lexed = lex(src);
        let lifetimes = lexed.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        assert_eq!(lifetimes, 3);
        assert!(idents(src).contains(&"h".to_string()));
    }

    #[test]
    fn directives_are_collected_per_line() {
        let src = "\
// era-check: entry
fn serve() {}
// era-check: allow(panic-path): ids are validated on load
xs[0];
/// Prose mentioning `// era-check: entry` must not arm anything.
// era-check: entry
fn serve_more() {}
";
        let lexed = lex(src);
        assert_eq!(lexed.directives_on(1), &[Directive::Entry]);
        assert_eq!(lexed.directives_on(3), &[Directive::Allow("panic-path".into())]);
        assert!(lexed.directives_on(5).is_empty(), "prose must not become a directive");
        assert_eq!(lexed.directives_on(6), &[Directive::Entry]);
        assert!(lexed.allows_site(3, "panic-path"));
        assert!(lexed.allows_site(4, "panic-path"), "preceding-line allows cover the next line");
        assert!(!lexed.allows_site(2, "panic-path"));
    }

    #[test]
    fn taint_directives_are_collected() {
        let src = "\
// era-check: source
fn read_u32() {}
// era-check: sanitized(taint): bounded by the table check above
let x = table[slot];
// era-check: sources of taint are described here, not declared
fn prose() {}
";
        let lexed = lex(src);
        assert_eq!(lexed.directives_on(1), &[Directive::Source]);
        assert_eq!(lexed.directives_on(3), &[Directive::Sanitized("taint".into())]);
        assert!(lexed.directives_on(5).is_empty(), "prose must not become a source directive");
        assert!(lexed.sanitizes_site(3, "taint"));
        assert!(lexed.sanitizes_site(4, "taint"), "preceding-line sanitized covers the next line");
        assert!(!lexed.sanitizes_site(2, "taint"));
    }

    #[test]
    fn strings_with_escapes_and_comment_markers() {
        let src = "fn f() { let s = \"//not a comment \\\" /*\"; after(); }\n";
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()));
        assert!(!ids.contains(&"not".to_string()));
    }

    #[test]
    fn numbers_collapse_to_literals() {
        let src = "let x = 0xFF_u64 + 1.5e3 + 42; id2();\n";
        let ids = idents(src);
        assert_eq!(ids, vec!["let".to_string(), "x".to_string(), "id2".to_string()]);
    }
}
