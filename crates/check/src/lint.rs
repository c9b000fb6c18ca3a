//! Semantic source lints over the workspace's own `.rs` files.
//!
//! The rules encode seams the architecture depends on but the compiler cannot
//! enforce. Since PR 8 they run on a **workspace call graph** (built by
//! [`crate::lex`] + [`crate::graph`]) instead of per-line string matching,
//! so reachability rules see through helper functions:
//!
//! - **raw-read** — every `read_at` or `read_codes_at` call outside
//!   `cursor.rs` / `text_source.rs` is flagged. All block I/O is supposed to
//!   flow through [`BlockCursor`] and the text-source layer so it is
//!   accounted in `IoStats`; a stray raw read is unaccounted I/O.
//! - **hot-alloc** — a function marked `// era-check: hot` must not *reach*
//!   an allocation (`Vec::…`/`Box::…`/`String::…` constructors, `.to_vec()`,
//!   `.collect()`, `vec!`/`format!`) through **any call chain**, not just
//!   allocate directly. Findings carry the chain that reaches the sink.
//! - **panic-path** — a function reachable from a `// era-check: entry`
//!   function (the query/serving entry points) must not reach `unwrap`/
//!   `expect`/`panic!`-family macros/indexing-without-`get`. A site-level
//!   `allow(unwrap)` also satisfies this rule for unwrap/expect sinks, so
//!   the long-standing poisoned-lock annotations keep working.
//! - **unwrap** — no `unwrap()` / `expect(…)` in library crates outside test
//!   code, reachable or not. Library errors must propagate.
//!
//! `unsafe` needs no rule here: the root `Cargo.toml`'s lint table forbids
//! it and every non-vendor member inherits the table, so the compiler
//! rejects `unsafe` in every target, test code included.
//!
//! A finding can be suppressed with `// era-check: allow(<rule>)` on the same
//! line or the immediately preceding line; an allow written directly above a
//! `fn` declaration (only attributes in between) covers the whole function.
//! For the reachability rules, an allow on a *call* line cuts that edge out
//! of the traversal. Code under `#[cfg(test)]` is never linted and never
//! contributes graph edges.
//!
//! Call resolution is name-based (qualified calls prefer the matching
//! `impl`), restricted to non-test functions of the library crates — an
//! over-approximation by design: a false chain costs one reasoned `allow`,
//! a missed chain would cost the guarantee.
//!
//! [`BlockCursor`]: era_string_store::BlockCursor

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::graph::{extract_file, FileItems, FnInfo};
use crate::lex::{lex, Lexed};

/// The lint rules `era-check lint` knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `read_at` / `read_codes_at` call outside the cursor / text-source
    /// layer.
    RawRead,
    /// Allocation reachable from a `// era-check: hot` function.
    HotAlloc,
    /// `unwrap()` / `expect(` in a library crate outside tests.
    Unwrap,
    /// Panic site reachable from a `// era-check: entry` function.
    PanicPath,
}

impl Rule {
    /// Every rule, in reporting order. The fixture suite iterates this — a
    /// rule added here without fixtures fails that suite.
    pub const ALL: &'static [Rule] =
        &[Rule::RawRead, Rule::HotAlloc, Rule::Unwrap, Rule::PanicPath];

    /// The rule's name as used in `// era-check: allow(<name>)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawRead => "raw-read",
            Rule::HotAlloc => "hot-alloc",
            Rule::Unwrap => "unwrap",
            Rule::PanicPath => "panic-path",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Extra context — for reachability rules, the call chain to the sink.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.excerpt)?;
        if !self.message.is_empty() {
            write!(f, "\n    {}", self.message)?;
        }
        Ok(())
    }
}

/// Per-file lint policy, derived from the file's place in the workspace.
#[derive(Debug, Clone, Copy)]
pub struct FilePolicy {
    /// Whether raw reads are allowed here (the cursor/text-source seam).
    pub raw_read_allowed: bool,
    /// Whether the unwrap rule applies (library crates only).
    pub unwrap_denied: bool,
}

/// File names that form the accounted-I/O seam: the only places a raw read
/// may appear.
pub const RAW_READ_SEAM: &[&str] = &["cursor.rs", "text_source.rs"];

/// The store methods that read the string without the seam's accounting:
/// decoded symbols, or the store's codes.
pub const RAW_READS: &[&str] = &["read_at", "read_codes_at"];

/// Crate directories whose sources are linted as *library* code (the unwrap
/// rule applies, and their fns are call-graph resolution candidates).
/// Harness crates — bench, tests, examples, and era-check itself — may
/// unwrap freely and never appear in hot/entry chains.
pub const LIBRARY_CRATES: &[&str] = &[
    "crates/string-store",
    "crates/suffix-array",
    "crates/suffix-tree",
    "crates/core",
    "crates/baselines",
    "crates/workloads",
];

/// Directories never linted: vendored stand-ins, build output, and the
/// deliberately-violating fixture corpus (those files are linted by the
/// fixture suite under a virtual library path, not by the workspace sweep).
pub const EXCLUDED_DIRS: &[&str] =
    &["crates/vendor", "crates/check/tests/fixtures", "target", ".git"];

impl FilePolicy {
    /// The policy for `path`, interpreted relative to the workspace root.
    pub fn for_path(rel: &Path) -> FilePolicy {
        let file_name = rel.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let rel_str = rel.to_string_lossy();
        FilePolicy {
            raw_read_allowed: RAW_READ_SEAM.contains(&file_name),
            unwrap_denied: LIBRARY_CRATES.iter().any(|c| rel_str.starts_with(c)),
        }
    }
}

/// One analyzed file: its lexed form plus extracted items.
struct AnalyzedFile {
    rel: PathBuf,
    lexed: Lexed,
    items: FileItems,
    lines: Vec<String>,
    policy: FilePolicy,
    library: bool,
}

/// A workspace-wide analysis: every file's items plus the call graph.
pub struct Analysis {
    files: Vec<AnalyzedFile>,
    /// Flat fn list as (file index, fn index) pairs, in file order.
    fn_ids: Vec<(usize, usize)>,
    by_name: HashMap<String, Vec<usize>>,
    by_qual: HashMap<String, Vec<usize>>,
}

impl Analysis {
    /// Builds the analysis from `(relative path, source)` pairs.
    pub fn build(sources: &[(PathBuf, String)]) -> Analysis {
        let lexed: Vec<Lexed> = sources.iter().map(|(_, src)| lex(src)).collect();
        let mut files = Vec::with_capacity(sources.len());
        for ((rel, src), l) in sources.iter().zip(lexed) {
            let items = extract_file(rel, &l);
            files.push(AnalyzedFile {
                rel: rel.clone(),
                policy: FilePolicy::for_path(rel),
                library: LIBRARY_CRATES.iter().any(|c| rel.to_string_lossy().starts_with(c))
                    || !rel.to_string_lossy().contains("crates/"),
                lines: src.lines().map(str::to_string).collect(),
                lexed: l,
                items,
            });
        }
        let mut fn_ids = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<String, Vec<usize>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.items.fns.iter().enumerate() {
                let id = fn_ids.len();
                fn_ids.push((fi, gi));
                // Only non-test fns of library files are resolution targets.
                if !f.is_test && file.library {
                    by_name.entry(f.name.clone()).or_default().push(id);
                    by_qual.entry(f.qual_name.clone()).or_default().push(id);
                }
            }
        }
        Analysis { files, fn_ids, by_name, by_qual }
    }

    fn fn_info(&self, id: usize) -> &FnInfo {
        let (fi, gi) = self.fn_ids[id];
        &self.files[fi].items.fns[gi]
    }

    fn file_of(&self, id: usize) -> &AnalyzedFile {
        &self.files[self.fn_ids[id].0]
    }

    fn excerpt(&self, file: &AnalyzedFile, line: usize) -> String {
        file.lines.get(line.saturating_sub(1)).map(|l| l.trim().to_string()).unwrap_or_default()
    }

    /// Resolves one call site to candidate fn ids. Qualified calls prefer an
    /// exact `Type::name` match; failing that, the qualifier is assumed to
    /// be a module path and only *free* fns with the bare name match (so
    /// `Arc::new` never resolves to every `new` in the workspace). Method
    /// and plain calls resolve by bare name anywhere in the library set.
    fn resolve(&self, call: &crate::graph::CallSite) -> Vec<usize> {
        if let Some(q) = &call.qual {
            let key = format!("{q}::{}", call.name);
            if let Some(v) = self.by_qual.get(&key) {
                return v.clone();
            }
            return self
                .by_name
                .get(&call.name)
                .map(|v| v.iter().copied().filter(|&id| self.fn_info(id).owner.is_none()).collect())
                .unwrap_or_default();
        }
        self.by_name.get(&call.name).cloned().unwrap_or_default()
    }

    /// BFS over call edges from `roots`. An `allow(<rule>)` on a call line
    /// cuts that edge; a fn-level `allow(<rule>)` forgives the fn's *own*
    /// sinks (checked by the caller) but does not stop traversal — callees
    /// of an allowed fn are still on the path and still checked.
    /// Returns reachable ids with their parent edge for chain rendering.
    fn reach(&self, roots: &[usize], rule: Rule) -> HashMap<usize, Option<(usize, usize)>> {
        let mut seen: HashMap<usize, Option<(usize, usize)>> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            seen.entry(r).or_insert(None);
            queue.push_back(r);
        }
        while let Some(id) = queue.pop_front() {
            let info = self.fn_info(id);
            let file = self.file_of(id);
            for call in &info.calls {
                if file.lexed.allows_site(call.line, rule.name()) {
                    continue;
                }
                for callee in self.resolve(call) {
                    if callee == id || seen.contains_key(&callee) {
                        continue;
                    }
                    seen.insert(callee, Some((id, call.line)));
                    queue.push_back(callee);
                }
            }
        }
        seen
    }

    /// Renders the call chain from a root to `id` as `a -> b -> c`.
    fn chain(&self, reach: &HashMap<usize, Option<(usize, usize)>>, id: usize) -> String {
        let mut parts = vec![self.fn_info(id).qual_name.clone()];
        let mut cur = id;
        while let Some(Some((parent, _line))) = reach.get(&cur) {
            parts.push(self.fn_info(*parent).qual_name.clone());
            cur = *parent;
        }
        parts.reverse();
        parts.join(" -> ")
    }

    /// Runs every rule, returning findings in file order.
    pub fn findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        self.rule_raw_read(&mut findings);
        self.rule_unwrap(&mut findings);
        self.rule_hot_alloc(&mut findings);
        self.rule_panic_path(&mut findings);
        findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        findings
    }

    fn rule_raw_read(&self, out: &mut Vec<Finding>) {
        for file in &self.files {
            if file.policy.raw_read_allowed {
                continue;
            }
            for f in &file.items.fns {
                if f.is_test {
                    continue;
                }
                for call in f.calls.iter().filter(|c| RAW_READS.contains(&c.name.as_str())) {
                    if file.lexed.allows_site(call.line, Rule::RawRead.name())
                        || f.allows_rule(Rule::RawRead.name())
                    {
                        continue;
                    }
                    out.push(Finding {
                        rule: Rule::RawRead,
                        file: file.rel.clone(),
                        line: call.line,
                        excerpt: self.excerpt(file, call.line),
                        message: String::new(),
                    });
                }
            }
        }
    }

    fn rule_unwrap(&self, out: &mut Vec<Finding>) {
        for file in &self.files {
            if !file.policy.unwrap_denied {
                continue;
            }
            for f in &file.items.fns {
                if f.is_test {
                    continue;
                }
                for p in &f.panics {
                    if p.what != "unwrap" && p.what != "expect" {
                        continue;
                    }
                    if file.lexed.allows_site(p.line, Rule::Unwrap.name())
                        || f.allows_rule(Rule::Unwrap.name())
                    {
                        continue;
                    }
                    out.push(Finding {
                        rule: Rule::Unwrap,
                        file: file.rel.clone(),
                        line: p.line,
                        excerpt: self.excerpt(file, p.line),
                        message: String::new(),
                    });
                }
            }
        }
    }

    /// Shared body of the two reachability rules: BFS from `roots`, then
    /// flag each matching sink in every reachable fn.
    fn reachability_rule(
        &self,
        rule: Rule,
        roots: Vec<usize>,
        sinks: impl Fn(&FnInfo) -> Vec<(String, usize)>,
        also_allowed_by: Option<&str>,
        out: &mut Vec<Finding>,
    ) {
        let reach = self.reach(&roots, rule);
        let mut reported: HashSet<(usize, usize)> = HashSet::new();
        let mut ids: Vec<usize> = reach.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let info = self.fn_info(id);
            if info.allows_rule(rule.name()) {
                continue;
            }
            let file = self.file_of(id);
            for (what, line) in sinks(info) {
                if file.lexed.allows_site(line, rule.name()) {
                    continue;
                }
                if let Some(alias) = also_allowed_by {
                    if (what == "unwrap" || what == "expect") && file.lexed.allows_site(line, alias)
                    {
                        continue;
                    }
                }
                if !reported.insert((self.fn_ids[id].0, line)) {
                    continue;
                }
                let chain = self.chain(&reach, id);
                out.push(Finding {
                    rule,
                    file: file.rel.clone(),
                    line,
                    excerpt: self.excerpt(file, line),
                    message: format!("{what} reached via {chain}"),
                });
            }
        }
    }

    fn rule_hot_alloc(&self, out: &mut Vec<Finding>) {
        let roots: Vec<usize> = (0..self.fn_ids.len()).filter(|&id| self.fn_info(id).hot).collect();
        self.reachability_rule(
            Rule::HotAlloc,
            roots,
            |f| f.allocs.iter().map(|s| (s.what.clone(), s.line)).collect(),
            None,
            out,
        );
    }

    fn rule_panic_path(&self, out: &mut Vec<Finding>) {
        let roots: Vec<usize> =
            (0..self.fn_ids.len()).filter(|&id| self.fn_info(id).entry).collect();
        self.reachability_rule(
            Rule::PanicPath,
            roots,
            |f| f.panics.iter().map(|s| (s.what.clone(), s.line)).collect(),
            Some(Rule::Unwrap.name()),
            out,
        );
    }
}

/// Analyzes a set of `(relative path, source)` pairs and returns the
/// findings of every rule. This is the seam the fixture suite drives.
pub fn analyze_sources(sources: &[(PathBuf, String)]) -> LintReport {
    let analysis = Analysis::build(sources);
    LintReport { files: sources.len(), findings: analysis.findings() }
}

/// Lints one file's source text in isolation. `rel` is the path relative to
/// the workspace root (used for policy and reporting). Reachability rules
/// see only this file's call graph.
pub fn lint_source(rel: &Path, source: &str) -> Vec<Finding> {
    analyze_sources(&[(rel.to_path_buf(), source.to_string())]).findings
}

/// A full workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files: usize,
    /// All violations found, in file order.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Whether the workspace is clean.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

pub(crate) fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy();
        if EXCLUDED_DIRS.iter().any(|d| rel_str.starts_with(d)) {
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

/// Lints every non-vendor `.rs` file under `root` (the workspace root).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let source = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        sources.push((rel, source));
    }
    Ok(analyze_sources(&sources))
}

/// Locates the workspace root by walking up from `start` until a directory
/// containing a `[workspace]` Cargo.toml is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
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

    fn lint_lib(src: &str) -> Vec<Finding> {
        lint_source(Path::new("crates/string-store/src/example.rs"), src)
    }

    fn of_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
        findings.iter().filter(|f| f.rule == rule).collect()
    }

    #[test]
    fn unaccounted_read_at_is_flagged() {
        let src = "fn f(s: &dyn StringStore) {\n    s.read_at(0, &mut buf);\n}\n";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::RawRead);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unaccounted_code_read_is_flagged_outside_the_seam_only() {
        let src = "fn f(s: &dyn StringStore) {\n    s.read_codes_at(0, 8, &mut buf);\n}\n";
        let f = lint_lib(src);
        assert_eq!((f.len(), f[0].rule, f[0].line), (1, Rule::RawRead, 2), "{f:?}");
        let f = lint_source(Path::new("crates/string-store/src/cursor.rs"), src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn read_at_in_seam_files_is_allowed() {
        let src = "fn f(s: &dyn StringStore) { s.read_at(0, &mut buf); }\n";
        let f = lint_source(Path::new("crates/string-store/src/cursor.rs"), src);
        assert!(f.is_empty(), "{f:?}");
        let f = lint_source(Path::new("crates/string-store/src/text_source.rs"), src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn read_at_definition_and_suppression_are_not_flagged() {
        let src = "\
fn read_at(&self, pos: u64, buf: &mut [u8]) {}
fn g(s: &S) {
    // era-check: allow(raw-read): forwarding impl
    s.read_at(0, buf);
    s.read_at(1, buf); // era-check: allow(raw-read)
}
";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn read_at_in_comments_strings_and_tests_is_ignored() {
        let src = "\
// a comment about read_at
fn f() { let s = \"read_at\"; }
#[cfg(test)]
mod tests {
    fn g(s: &S) { s.read_at(0, buf); }
}
";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn read_at_inside_raw_string_or_nested_comment_is_ignored() {
        // Regression (PR 8 satellite): both constructs defeated the old
        // line-level scanner.
        let src = "\
fn f() {
    let a = r#\"s.read_at(0, buf)\"#;
    /* outer /* inner */ s.read_at(0, buf); */
}
";
        assert!(lint_lib(src).is_empty(), "{:?}", lint_lib(src));
    }

    #[test]
    fn hot_function_allocation_is_flagged() {
        let src = "\
// era-check: hot
fn lookup(&self) -> u32 {
    let v = Vec::with_capacity(4);
    0
}
fn cold(&self) -> Vec<u32> {
    Vec::with_capacity(4)
}
";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotAlloc);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn hot_transitive_allocation_is_flagged_with_chain() {
        // The tentpole case: the hot fn itself is clean, but a helper two
        // calls down allocates.
        let src = "\
// era-check: hot
fn lookup(&self) -> u32 { self.step() }
fn step(&self) -> u32 { self.fill() }
fn fill(&self) -> u32 { let v = Vec::new(); 0 }
";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotAlloc);
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("lookup -> step -> fill"), "{}", f[0].message);
    }

    #[test]
    fn hot_chain_cut_by_call_site_allow() {
        let src = "\
// era-check: hot
fn lookup(&self) -> u32 {
    // era-check: allow(hot-alloc): cache fill on miss allocates by design
    self.fill()
}
fn fill(&self) -> u32 { let v = Vec::new(); 0 }
";
        assert!(of_rule(&lint_lib(src), Rule::HotAlloc).is_empty());
    }

    #[test]
    fn panic_path_reaches_through_calls() {
        let src = "\
// era-check: entry
pub fn run(&self) { self.walk() }
fn walk(&self) { self.nodes[0]; }
fn unreached(&self) { x.unwrap(); }
";
        let f = lint_lib(src);
        let pp = of_rule(&f, Rule::PanicPath);
        assert_eq!(pp.len(), 1, "{f:?}");
        assert_eq!(pp[0].line, 3);
        assert!(pp[0].message.contains("run -> walk"), "{}", pp[0].message);
        // `unreached` has an unwrap finding but no panic-path finding.
        assert_eq!(of_rule(&f, Rule::Unwrap).len(), 1);
    }

    #[test]
    fn allow_unwrap_also_satisfies_panic_path() {
        let src = "\
// era-check: entry
pub fn run(&self) {
    self.m.lock().expect(\"poisoned\"); // era-check: allow(unwrap): poisoned lock is fatal
}
";
        assert!(lint_lib(src).is_empty(), "{:?}", lint_lib(src));
    }

    #[test]
    fn unwrap_in_library_is_flagged_but_harness_crates_are_exempt() {
        let src = "fn f() { x.unwrap(); }\n";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Unwrap);
        assert!(lint_source(Path::new("crates/bench/src/main.rs"), src).is_empty());
        assert!(lint_source(Path::new("tests/src/lib.rs"), src).is_empty());
    }

    #[test]
    fn suppressed_expect_carries_reason() {
        let src = "fn f() { m.lock().expect(\"poisoned\"); // era-check: allow(unwrap): poisoned lock is fatal\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn prose_mentions_of_directives_are_not_directives() {
        // A doc comment *describing* the hot marker must not arm it.
        let src = "\
/// Functions marked `// era-check: hot` must not allocate.
fn describe() {
    let v = Vec::new();
}
";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn nested_test_mod_tracking_resumes_linting_after_mod_ends() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(s: &S) { s.read_at(0, buf); }
    mod inner { fn u(s: &S) { s.read_at(0, buf); } }
}
fn real(s: &S) { s.read_at(0, buf); }
";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn every_rule_has_a_stable_name() {
        for &rule in Rule::ALL {
            assert!(!rule.name().is_empty());
        }
        assert_eq!(Rule::ALL.len(), 4);
    }
}
