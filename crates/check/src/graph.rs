//! Item extraction and the workspace index the passes share.
//!
//! This sits between the lexer ([`crate::lex`]) and the passes
//! ([`crate::lint`], [`crate::taint`]): it walks one file's token stream
//! tracking `mod` / `impl` / `fn` scoping and produces, per function, the
//! *events* the passes reason about —
//!
//! - **call sites** (plain `helper(…)`, qualified `Type::helper(…)`, method
//!   `.helper(…)` — turbofish tolerated), which become the edges of the
//!   workspace call graph;
//! - **panic sites** (`panic!`-family macros and `x[i]` indexing without
//!   `get`), the sinks of the panic-path rule. `unwrap` / `expect` are not
//!   sinks: clippy denies them in every library crate.
//!
//! Function bodies under `#[cfg(test)]` (or `#[test]`) are extracted but
//! marked, so the passes can skip them and the graph never routes a chain
//! through test code.
//!
//! [`Index`] is the one workspace index both passes run on: every file
//! lexed and extracted once, plus call resolution by name and qualifier
//! over the non-test fns of the [`LIBRARY_CRATES`]. Resolution is a
//! token-level approximation, not a type checker: method calls resolve by
//! *name* (any library `fn` with that name is a candidate), and that
//! over-approximation is deliberate — a false edge can be silenced with a
//! reasoned `// era-check: allow`, while a missed edge would silently void
//! the guarantee.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lex::{lex, Directive, Lexed, TokKind, Token};

/// One function extracted from a file.
#[derive(Debug)]
pub struct FnInfo {
    /// Bare function name (`insert`).
    pub name: String,
    /// Qualified name (`BlockCache::insert`), or the bare name for free fns.
    pub qual_name: String,
    /// The impl/trait type this fn belongs to, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn is (inside) `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// `// era-check: entry` applies — a serving entry point.
    pub entry: bool,
    /// `// era-check: source` applies — a trust-boundary parsing seam.
    pub source: bool,
    /// Token index range `[fn keyword, body open)` of the signature, for
    /// parameter inspection by the taint pass.
    pub sig: (usize, usize),
    /// Token index range of the body including both braces, if the fn has
    /// one (`None` for trait-method declarations).
    pub body: Option<(usize, usize)>,
    /// Fn-level `allow(rule)` directives bound to this declaration.
    pub allows: Vec<String>,
    /// Calls made from this fn's body.
    pub calls: Vec<CallSite>,
    /// Panic sinks in this fn's body.
    pub panics: Vec<Sink>,
}

impl FnInfo {
    /// Whether a fn-level `allow(rule)` covers this fn.
    pub fn allows_rule(&self, rule: &str) -> bool {
        self.allows.iter().any(|a| a == rule)
    }
}

/// One call site inside a fn body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Qualifier (`Type` in `Type::name(…)`), `Self` already resolved.
    pub qual: Option<String>,
    /// Whether this was a `.name(…)` method call.
    pub method: bool,
    /// 1-based line of the call.
    pub line: usize,
}

/// One panic sink.
#[derive(Debug)]
pub struct Sink {
    /// What the sink is (`panic!`, `index`, …).
    pub what: String,
    /// 1-based line.
    pub line: usize,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Functions, in declaration order.
    pub fns: Vec<FnInfo>,
}

/// Keywords that look like calls or index receivers but are not.
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "loop", "in", "let", "move", "as", "fn", "impl",
    "mod", "use", "pub", "where", "mut", "ref", "dyn", "else", "box", "break", "continue",
    "unsafe", "const", "static", "type", "trait", "enum", "struct", "crate", "super", "self",
    "Self", "async", "await", "yield", "extern",
];

pub(crate) fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Macros whose bodies are skipped entirely: assertions are deliberate
/// invariant checks (flagging the indexing inside every `debug_assert!`
/// would drown the panic-path rule in noise), and `matches!` bodies are
/// patterns, not expressions.
pub(crate) const SKIPPED_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "matches",
];

/// Macros that panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `std::sync::atomic` method names. A `.load(Ordering::…)` is an atomic
/// read, not a call to a workspace fn named `load` — the `Ordering` argument
/// is the tell that disambiguates the two without type information.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// What a `{`-scope on the stack is.
#[derive(Debug)]
enum ScopeKind {
    /// A `mod name { … }` body.
    Mod,
    /// An `impl`/`trait` body, with the type name.
    Impl(String),
    /// A fn body; the index into `FileItems::fns`.
    Fn(usize),
    /// Any other brace pair (blocks, match bodies, struct literals…).
    Block,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    test: bool,
}

/// The extractor's walk state for one file.
struct Walker<'a> {
    lexed: &'a Lexed,
    out: FileItems,
    scopes: Vec<Scope>,
    /// Index of the next directive line to absorb.
    dir_line: usize,
    pending_entry: bool,
    pending_source: bool,
    pending_allows: Vec<String>,
    pending_test: bool,
}

impl<'a> Walker<'a> {
    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(idx) => Some(idx),
            _ => None,
        })
    }

    fn current_impl(&self) -> Option<&str> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(t) => Some(t.as_str()),
            _ => None,
        })
    }

    fn in_test(&self) -> bool {
        self.scopes.last().map(|s| s.test).unwrap_or(false)
    }

    /// Absorbs directives from comment lines up to and including `line`.
    fn absorb_directives(&mut self, line: usize) {
        while self.dir_line <= line {
            for d in self.lexed.directives_on(self.dir_line) {
                match d {
                    Directive::Entry => self.pending_entry = true,
                    Directive::Source => self.pending_source = true,
                    Directive::Allow(r) => self.pending_allows.push(r.clone()),
                    // Site-level only: the taint pass reads these straight
                    // off the directive table.
                    Directive::Sanitized(_) => {}
                }
            }
            self.dir_line += 1;
        }
    }

    fn push_scope(&mut self, kind: ScopeKind) {
        let test = self.in_test() || self.pending_test;
        self.pending_test = false;
        self.pending_allows.clear();
        self.scopes.push(Scope { kind, test });
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
        self.pending_allows.clear();
    }

    fn end_statement(&mut self) {
        self.pending_allows.clear();
        self.pending_test = false;
    }

    fn record_panic(&mut self, what: String, line: usize) {
        if let Some(f) = self.current_fn() {
            self.out.fns[f].panics.push(Sink { what, line });
        }
    }

    fn record_call(&mut self, name: String, qual: Option<String>, method: bool, line: usize) {
        // `Self::helper(…)` resolves against the enclosing impl.
        let qual = match qual.as_deref() {
            Some("Self") => self.current_impl().map(str::to_string),
            _ => qual,
        };
        if let Some(f) = self.current_fn() {
            self.out.fns[f].calls.push(CallSite { name, qual, method, line });
        }
    }
}

/// Whether the balanced group opening at `toks[i]` mentions identifier
/// `name` anywhere inside it (used to spot `Ordering::…` atomic arguments).
fn group_mentions(toks: &[Token], i: usize, name: &str) -> bool {
    let end = skip_group(toks, i);
    toks[i..end].iter().any(|t| t.is_ident(name))
}

/// Skips a balanced token group starting at the opening delimiter `toks[i]`
/// (one of `(`, `[`, `{`); returns the index just past the matching close.
pub(crate) fn skip_group(toks: &[Token], i: usize) -> usize {
    let (open, close) = match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct('(')) => ('(', ')'),
        Some(TokKind::Punct('[')) => ('[', ']'),
        Some(TokKind::Punct('{')) => ('{', '}'),
        _ => return i + 1,
    };
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Skips a turbofish `::<…>` if present at `i`; returns the index after it.
pub(crate) fn skip_turbofish(toks: &[Token], i: usize) -> usize {
    if i + 2 < toks.len()
        && toks[i].is_punct(':')
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct('<')
    {
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        return j;
    }
    i
}

/// Extracts the items of one file.
pub fn extract_file(lexed: &Lexed) -> FileItems {
    let toks = &lexed.tokens;
    let mut w = Walker {
        lexed,
        out: FileItems::default(),
        scopes: vec![Scope { kind: ScopeKind::Mod, test: false }],
        dir_line: 1,
        pending_entry: false,
        pending_source: false,
        pending_allows: Vec::new(),
        pending_test: false,
    };

    let mut i = 0usize;
    while i < toks.len() {
        w.absorb_directives(toks[i].line);
        let line = toks[i].line;
        match &toks[i].kind {
            // Attributes: `#[…]` and `#![…]`. Skipped wholesale — their
            // contents look like calls (`cfg(test)`, `derive(Debug)`) but
            // are not; `#[cfg(test)]` / `#[test]` mark the next item.
            TokKind::Punct('#') => {
                let mut j = i + 1;
                if j < toks.len() && toks[j].is_punct('!') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('[') {
                    let end = skip_group(toks, j);
                    let body = &toks[j + 1..end.saturating_sub(1)];
                    let first = body.first().and_then(Token::ident);
                    let is_test_attr = match first {
                        Some("test") => true,
                        Some("cfg") => body.iter().any(|t| t.is_ident("test")),
                        _ => false,
                    };
                    if is_test_attr {
                        w.pending_test = true;
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident(id) if id == "mod" => {
                // `mod name { … }` opens a scope; `mod name;` does not.
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    w.push_scope(ScopeKind::Mod);
                } else {
                    w.pending_test = false;
                }
                i = j + 1;
            }
            TokKind::Ident(id) if id == "impl" || id == "trait" => {
                // Type name: last path segment before `{` — or, when a
                // `for` is present, the last segment after it.
                let mut j = i + 1;
                let mut name = String::new();
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    match &toks[j].kind {
                        TokKind::Ident(t) if t == "for" => name.clear(),
                        TokKind::Ident(t) if t == "where" => break,
                        TokKind::Ident(t) if !is_keyword(t) => name = t.clone(),
                        _ => {}
                    }
                    j += 1;
                }
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    w.push_scope(ScopeKind::Impl(name));
                } else {
                    w.pending_test = false;
                }
                i = j + 1;
            }
            TokKind::Ident(id) if id == "fn" => {
                let Some(TokKind::Ident(fname)) = toks.get(i + 1).map(|t| &t.kind) else {
                    // `fn(…)` pointer type — not a declaration.
                    i += 1;
                    continue;
                };
                let fname = fname.clone();
                // Find the body `{` (or a `;` for trait declarations),
                // skipping the parameter list and any return type.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut body = None;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                        TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
                        TokKind::Punct('{') if paren == 0 => {
                            body = Some(j);
                            break;
                        }
                        TokKind::Punct(';') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let owner = w.current_impl().map(str::to_string);
                let qual_name = match &owner {
                    Some(t) if !t.is_empty() => format!("{t}::{fname}"),
                    _ => fname.clone(),
                };
                let info = FnInfo {
                    name: fname,
                    qual_name,
                    owner,
                    line,
                    is_test: w.in_test() || w.pending_test,
                    entry: std::mem::take(&mut w.pending_entry),
                    source: std::mem::take(&mut w.pending_source),
                    sig: (i, body.unwrap_or(j)),
                    body: body.map(|b| (b, skip_group(toks, b))),
                    allows: std::mem::take(&mut w.pending_allows),
                    calls: Vec::new(),
                    panics: Vec::new(),
                };
                w.pending_test = false;
                let idx = w.out.fns.len();
                w.out.fns.push(info);
                match body {
                    Some(b) => {
                        w.push_scope(ScopeKind::Fn(idx));
                        i = b + 1;
                    }
                    None => i = j + 1,
                }
            }
            TokKind::Punct('{') => {
                w.push_scope(ScopeKind::Block);
                i += 1;
            }
            TokKind::Punct('}') => {
                if w.scopes.len() > 1 {
                    w.pop_scope();
                }
                i += 1;
            }
            TokKind::Punct(';') => {
                w.end_statement();
                i += 1;
            }
            TokKind::Punct('.') => {
                // Method call or field access.
                let Some(TokKind::Ident(m)) = toks.get(i + 1).map(|t| &t.kind) else {
                    i += 1;
                    continue;
                };
                let m = m.clone();
                let after = skip_turbofish(toks, i + 2);
                if !toks.get(after).is_some_and(|t| t.is_punct('(')) {
                    i += 2; // plain field access
                    continue;
                }
                if ATOMIC_METHODS.contains(&m.as_str()) && group_mentions(toks, after, "Ordering") {
                    // Atomic op, not a workspace call; still walk the args.
                    i = after + 1;
                    continue;
                }
                w.record_call(m, None, true, line);
                i = after + 1;
            }
            TokKind::Ident(id) => {
                let id = id.clone();
                // Macro invocation `name!`.
                if toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                    && !toks.get(i + 2).is_some_and(|t| t.is_punct('='))
                {
                    let mname = id.as_str();
                    if SKIPPED_MACROS.contains(&mname) {
                        // Skip the whole body: assertion internals are
                        // invariant checks, not serving code.
                        i = skip_group(toks, i + 2);
                        continue;
                    }
                    if PANIC_MACROS.contains(&mname) {
                        w.record_panic(format!("{mname}!"), line);
                    }
                    i += 2;
                    continue;
                }
                // Path: `a::b::c` — collect segments.
                let mut segs = vec![id.clone()];
                let mut j = i + 1;
                while j + 2 < toks.len()
                    && toks[j].is_punct(':')
                    && toks[j + 1].is_punct(':')
                    && matches!(toks[j + 2].kind, TokKind::Ident(_))
                {
                    if let TokKind::Ident(s) = &toks[j + 2].kind {
                        segs.push(s.clone());
                    }
                    j += 3;
                }
                let after = skip_turbofish(toks, j);
                let is_call = toks.get(after).is_some_and(|t| t.is_punct('('));
                if is_call && !(segs.len() == 1 && is_keyword(&segs[0])) {
                    let callee = segs.last().cloned().unwrap_or_default();
                    let qual =
                        if segs.len() >= 2 { Some(segs[segs.len() - 2].clone()) } else { None };
                    w.record_call(callee, qual, false, line);
                }
                i = j.max(after);
            }
            TokKind::Punct('[') => {
                // Indexing if the previous token can end an expression.
                let indexes = i > 0
                    && match &toks[i - 1].kind {
                        TokKind::Ident(p) => !is_keyword(p),
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        _ => false,
                    };
                if indexes {
                    w.record_panic("index".to_string(), line);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    w.out
}

/// One violation found by a pass; `R` is the pass's rule type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding<R> {
    /// Which rule fired.
    pub rule: R,
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// The chain that reaches the sink, and for taint the required fix.
    pub message: String,
}

impl<R: fmt::Display> fmt::Display for Finding<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.excerpt)?;
        if !self.message.is_empty() {
            write!(f, "\n    {}", self.message)?;
        }
        Ok(())
    }
}

/// Crate directories whose sources are *library* code: their non-test fns
/// are the call-resolution candidates and the taint pass's targets, and
/// their crate roots deny `clippy::unwrap_used` / `clippy::expect_used`.
/// Harness crates — bench, tests, examples, and era-check itself — may
/// unwrap freely and never appear in entry chains or taint findings.
pub const LIBRARY_CRATES: &[&str] = &[
    "crates/string-store",
    "crates/suffix-array",
    "crates/suffix-tree",
    "crates/core",
    "crates/baselines",
    "crates/workloads",
];

/// Directories never indexed: vendored stand-ins, build output, and the
/// deliberately-violating fixture corpus (those files are checked by the
/// fixture suite under a virtual library path, not by the workspace sweep).
pub const EXCLUDED_DIRS: &[&str] =
    &["crates/vendor", "crates/check/tests/fixtures", "target", ".git"];

/// One indexed file: its lexed form plus extracted items.
pub struct IndexedFile {
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// The token stream and directive table.
    pub lexed: Lexed,
    /// The fns extracted from it.
    pub items: FileItems,
    /// Whether the file belongs to one of the [`LIBRARY_CRATES`].
    pub library: bool,
    lines: Vec<String>,
}

impl IndexedFile {
    /// Source line `line` (1-based), trimmed — the excerpt findings quote.
    pub fn excerpt(&self, line: usize) -> String {
        self.lines.get(line.saturating_sub(1)).map(|l| l.trim().to_string()).unwrap_or_default()
    }
}

/// The workspace index: every file lexed and extracted once, every fn
/// numbered, and the library fns resolvable by name and qualifier.
pub struct Index {
    /// The indexed files, in input order.
    pub files: Vec<IndexedFile>,
    /// Flat fn list as (file index, fn index) pairs, in file order.
    fn_ids: Vec<(usize, usize)>,
    by_name: HashMap<String, Vec<usize>>,
    by_qual: HashMap<String, Vec<usize>>,
}

impl Index {
    /// Builds the index from `(relative path, source)` pairs.
    pub fn build(sources: &[(PathBuf, String)]) -> Index {
        let mut files = Vec::with_capacity(sources.len());
        let mut fn_ids = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<String, Vec<usize>> = HashMap::new();
        for (fi, (rel, src)) in sources.iter().enumerate() {
            let lexed = lex(src);
            let items = extract_file(&lexed);
            let rel_str = rel.to_string_lossy();
            let library = LIBRARY_CRATES.iter().any(|c| rel_str.starts_with(c));
            for (gi, f) in items.fns.iter().enumerate() {
                let id = fn_ids.len();
                fn_ids.push((fi, gi));
                // Only non-test fns of library files are resolution targets.
                if !f.is_test && library {
                    by_name.entry(f.name.clone()).or_default().push(id);
                    by_qual.entry(f.qual_name.clone()).or_default().push(id);
                }
            }
            let lines = src.lines().map(str::to_string).collect();
            files.push(IndexedFile { rel: rel.clone(), lexed, items, library, lines });
        }
        Index { files, fn_ids, by_name, by_qual }
    }

    /// Indexes every non-excluded `.rs` file under `root` (the workspace
    /// root), in path order.
    pub fn load(root: &Path) -> io::Result<Index> {
        let mut paths = Vec::new();
        collect_rs_files(root, root, &mut paths)?;
        paths.sort();
        let mut sources = Vec::with_capacity(paths.len());
        for path in paths {
            let source = fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            sources.push((rel, source));
        }
        Ok(Index::build(&sources))
    }

    /// Number of fns (test and harness fns included); ids are `0..fn_count()`.
    pub fn fn_count(&self) -> usize {
        self.fn_ids.len()
    }

    /// The fn with id `id`.
    pub fn fn_info(&self, id: usize) -> &FnInfo {
        let (fi, gi) = self.fn_ids[id];
        &self.files[fi].items.fns[gi]
    }

    /// The file fn `id` is declared in.
    pub fn file_of(&self, id: usize) -> &IndexedFile {
        &self.files[self.fn_ids[id].0]
    }

    /// Whether fn `id` is analysed: a non-test fn of a library file.
    pub fn is_library_fn(&self, id: usize) -> bool {
        self.file_of(id).library && !self.fn_info(id).is_test
    }

    /// Resolves a call of `name`, qualified by `qual`, to candidate fn ids. Qualified calls prefer an
    /// exact `Type::name` match; failing that, the qualifier is assumed to
    /// be a module path and only *free* fns with the bare name match (so
    /// `Arc::new` never resolves to every `new` in the workspace). Method
    /// and plain calls resolve by bare name anywhere in the library set.
    pub fn resolve(&self, name: &str, qual: Option<&str>) -> Vec<usize> {
        if let Some(q) = qual {
            if let Some(v) = self.by_qual.get(&format!("{q}::{name}")) {
                return v.clone();
            }
            return self
                .by_name
                .get(name)
                .map(|v| v.iter().copied().filter(|&id| self.fn_info(id).owner.is_none()).collect())
                .unwrap_or_default();
        }
        self.by_name.get(name).cloned().unwrap_or_default()
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if EXCLUDED_DIRS.iter().any(|d| rel.to_string_lossy().starts_with(d)) {
            continue;
        }
        if entry.file_type()?.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from `start` until a directory
/// containing a `[workspace]` Cargo.toml is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if let Ok(text) = fs::read_to_string(d.join("Cargo.toml")) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(src: &str) -> FileItems {
        extract_file(&lex(src))
    }

    #[test]
    fn fn_boundaries_and_qualification() {
        let src = "\
impl BlockCache {
    pub fn insert(&self) { self.helper(); }
    fn helper(&self) {}
}
fn free() { other::thing(); }
";
        let items = extract(src);
        let names: Vec<_> = items.fns.iter().map(|f| f.qual_name.as_str()).collect();
        assert_eq!(names, ["BlockCache::insert", "BlockCache::helper", "free"]);
        assert_eq!(items.fns[0].calls.len(), 1);
        assert_eq!(items.fns[0].calls[0].name, "helper");
        assert!(items.fns[0].calls[0].method);
        assert_eq!(items.fns[2].calls[0].qual.as_deref(), Some("other"));
    }

    #[test]
    fn trait_impls_take_the_implementing_type() {
        let src = "impl StringStore for DiskStore { fn read_at(&self) {} }\n";
        let items = extract(src);
        assert_eq!(items.fns[0].qual_name, "DiskStore::read_at");
    }

    #[test]
    fn alloc_and_panic_sinks() {
        // Allocation is no sink; unwrap / expect are calls (clippy denies
        // them in library crates); panic macros and indexing are sinks.
        let src = "\
fn f(xs: &[u32]) -> Vec<u32> {
    let v = Vec::with_capacity(4);
    let first = xs[0];
    let second = xs.get(1).unwrap();
    unreachable!();
    panic!(\"boom\");
}
";
        let items = extract(src);
        let f = &items.fns[0];
        let panics: Vec<_> = f.panics.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(panics, ["index", "unreachable!", "panic!"]);
        let calls: Vec<_> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, ["with_capacity", "get", "unwrap"]);
    }

    #[test]
    fn assertion_macro_bodies_are_skipped() {
        let src =
            "fn f(xs: &[u32]) { debug_assert!(xs[0] < 4); assert_eq!(xs[1], 2); real(xs[2]); }\n";
        let items = extract(src);
        let f = &items.fns[0];
        assert_eq!(f.panics.len(), 1, "{:?}", f.panics);
        assert_eq!(f.panics[0].what, "index");
        assert_eq!(f.calls.len(), 1);
    }

    #[test]
    fn slice_types_and_patterns_are_not_indexing() {
        let src = "fn f(buf: &mut [u8]) -> [u8; 2] { let [a, b] = [buf[0], 1]; [a, b] }\n";
        let items = extract(src);
        assert_eq!(items.fns[0].panics.len(), 1, "{:?}", items.fns[0].panics);
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let src = "\
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
}
#[test]
fn a_test() {}
fn real() {}
";
        let items = extract(src);
        assert!(items.fns[0].is_test);
        assert!(items.fns[1].is_test);
        assert!(!items.fns[2].is_test);
    }

    #[test]
    fn directives_bind_to_the_next_fn() {
        let src = "\
// era-check: entry
#[inline]
pub fn serve() {}
// era-check: source
pub fn parse() {}
// era-check: allow(panic-path): ids are validated on load
fn walk() {}
fn unmarked() {}
";
        let items = extract(src);
        assert!(items.fns[0].entry);
        assert!(!items.fns[0].source);
        assert!(items.fns[1].source && !items.fns[1].entry);
        assert!(items.fns[2].allows_rule("panic-path"));
        assert!(!items.fns[3].source && !items.fns[3].entry && items.fns[3].allows.is_empty());
    }

    #[test]
    fn source_directive_and_token_ranges() {
        let src = "\
// era-check: source
fn read_u32(buf: &[u8]) -> u32 { helper() }
fn plain() {}
trait T { fn decl(&self); }
";
        let lexed = lex(src);
        let items = extract_file(&lexed);
        let read = &items.fns[0];
        assert!(read.source);
        assert!(!items.fns[1].source, "source must not leak to the next fn");
        // The signature range covers `fn read_u32(buf: &[u8]) -> u32`, the
        // body range the `{ helper() }` braces.
        let (ss, se) = read.sig;
        assert!(lexed.tokens[ss].is_ident("fn"));
        assert!(lexed.tokens[se].is_punct('{'));
        let sig: Vec<_> = lexed.tokens[ss..se].iter().filter_map(Token::ident).collect();
        assert!(sig.contains(&"buf") && sig.contains(&"u8"), "{sig:?}");
        let (bs, be) = read.body.expect("read_u32 has a body");
        assert!(lexed.tokens[bs].is_punct('{') && lexed.tokens[be - 1].is_punct('}'));
        assert!(lexed.tokens[bs..be].iter().any(|t| t.is_ident("helper")));
        assert!(items.fns[2].body.is_none(), "trait declarations have no body range");
    }

    #[test]
    fn site_allows_do_not_leak_to_later_fns() {
        let src = "\
fn f(xs: &[u8]) {
    // era-check: allow(panic-path): fine here
    xs[0];
}
fn g() {}
";
        let items = extract(src);
        assert!(items.fns[1].allows.is_empty(), "{:?}", items.fns[1].allows);
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let src = "impl Tree { fn f(&self) { Self::helper(); } fn helper() {} }\n";
        let items = extract(src);
        assert_eq!(items.fns[0].calls[0].qual.as_deref(), Some("Tree"));
    }
}
