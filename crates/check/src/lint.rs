//! The panic-path rule: era-check's one semantic source lint.
//!
//! **panic-path** — a function reachable from a `// era-check: entry`
//! function must not reach a `panic!`-family macro or indexing without
//! `get`. The entry points are the serving API over the frozen arenas:
//! `FlatTree` node and child ids, edge bounds and leaf runs index straight
//! into those arenas, which is sound only because `validate_flat_structure`
//! checks every arena on load. That check is the seam this rule guards: each
//! reachable index carries an `allow(panic-path)` that names the validation
//! it relies on, and the corruption matrix (`tests/corruption_matrix.rs`) is
//! the runtime proof that no flipped bit or hostile header gets past it.
//!
//! The rule runs on the workspace call graph of the shared
//! [`Index`], so it sees through helper functions:
//! findings carry the call chain from the entry point to the sink.
//! `unwrap` / `expect` are not sinks here — every library crate denies
//! `clippy::unwrap_used` and `clippy::expect_used` — and neither are raw
//! store reads, which `clippy.toml`'s `disallowed-methods` confines to the
//! accounted-I/O seam.
//!
//! A finding can be suppressed with `// era-check: allow(panic-path)` on the
//! same line or the immediately preceding line; an allow written directly
//! above a `fn` declaration (only attributes in between) covers the whole
//! function. An allow on a *call* line cuts that edge out of the traversal.
//! Code under `#[cfg(test)]` and harness crates never contribute graph
//! edges.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::Path;

use crate::graph::{self, Index};

/// The source lints `era-check lint` knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Panic site reachable from a `// era-check: entry` function.
    PanicPath,
}

impl Rule {
    /// Every rule, in reporting order. The fixture suite iterates this — a
    /// rule added here without fixtures fails that suite.
    pub const ALL: &'static [Rule] = &[Rule::PanicPath];

    /// The rule's name as used in `// era-check: allow(<name>)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicPath => "panic-path",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One panic-path violation.
pub type Finding = graph::Finding<Rule>;

/// A lint run over an index.
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

/// Runs the panic-path rule over `index`.
pub fn lint(index: &Index) -> LintReport {
    let rule = Rule::PanicPath;
    let roots: Vec<usize> = (0..index.fn_count())
        .filter(|&id| index.is_library_fn(id) && index.fn_info(id).entry)
        .collect();
    let reach = reach(index, &roots, rule);
    let mut ids: Vec<usize> = reach.keys().copied().collect();
    ids.sort_unstable();
    let mut reported: HashSet<(&Path, usize)> = HashSet::new();
    let mut findings = Vec::new();
    for id in ids {
        let info = index.fn_info(id);
        if info.allows_rule(rule.name()) {
            continue;
        }
        let file = index.file_of(id);
        for sink in &info.panics {
            if file.lexed.allows_site(sink.line, rule.name())
                || !reported.insert((&file.rel, sink.line))
            {
                continue;
            }
            findings.push(Finding {
                rule,
                file: file.rel.clone(),
                line: sink.line,
                excerpt: file.excerpt(sink.line),
                message: format!("{} reached via {}", sink.what, chain(index, &reach, id)),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    LintReport { files: index.files.len(), findings }
}

/// BFS over call edges from `roots`. An `allow(<rule>)` on a call line cuts
/// that edge; a fn-level `allow(<rule>)` forgives the fn's *own* sinks but
/// does not stop traversal — callees of an allowed fn are still on the path
/// and still checked. Returns reachable ids with their parent for chain
/// rendering.
fn reach(index: &Index, roots: &[usize], rule: Rule) -> HashMap<usize, Option<usize>> {
    let mut seen: HashMap<usize, Option<usize>> = roots.iter().map(|&r| (r, None)).collect();
    let mut queue: VecDeque<usize> = roots.iter().copied().collect();
    while let Some(id) = queue.pop_front() {
        let file = index.file_of(id);
        for call in &index.fn_info(id).calls {
            if file.lexed.allows_site(call.line, rule.name()) {
                continue;
            }
            for callee in index.resolve(&call.name, call.qual.as_deref()) {
                if let Entry::Vacant(slot) = seen.entry(callee) {
                    slot.insert(Some(id));
                    queue.push_back(callee);
                }
            }
        }
    }
    seen
}

/// Renders the call chain from a root to `id` as `a -> b -> c`.
fn chain(index: &Index, reach: &HashMap<usize, Option<usize>>, id: usize) -> String {
    let mut parts = vec![index.fn_info(id).qual_name.as_str()];
    let mut cur = id;
    while let Some(Some(parent)) = reach.get(&cur) {
        parts.push(&index.fn_info(*parent).qual_name);
        cur = *parent;
    }
    parts.reverse();
    parts.join(" -> ")
}

/// Lints one file's source text in isolation. `rel` is the path relative to
/// the workspace root (it decides library membership and is reported). This
/// is the seam the fixture suite drives.
pub fn lint_source(rel: &Path, source: &str) -> Vec<Finding> {
    lint(&Index::build(&[(rel.to_path_buf(), source.to_string())])).findings
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn lint_lib(src: &str) -> Vec<Finding> {
        lint_source(Path::new("crates/string-store/src/example.rs"), src)
    }

    #[test]
    fn read_at_in_comments_strings_and_tests_is_ignored() {
        let src = "\
// era-check: entry
fn f() { let s = \"panic!()\"; /* xs[0] */ }
// a comment about panic!()
#[cfg(test)]
mod tests {
    // era-check: entry
    fn g() { panic!(\"t\"); }
}
";
        assert!(lint_lib(src).is_empty(), "{:?}", lint_lib(src));
    }

    #[test]
    fn read_at_inside_raw_string_or_nested_comment_is_ignored() {
        // Regression (PR 8 satellite): both constructs defeated the old
        // line-level scanner.
        let src = "\
// era-check: entry
fn f() {
    let a = r#\"panic!(\"x\")\"#;
    /* outer /* inner */ panic!(\"y\"); */
}
";
        assert!(lint_lib(src).is_empty(), "{:?}", lint_lib(src));
    }

    #[test]
    fn panic_path_reaches_through_calls() {
        let src = "\
// era-check: entry
pub fn run(&self) { self.walk() }
fn walk(&self) { self.nodes[0]; }
fn unreached(&self) { panic!(\"x\"); }
";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (Rule::PanicPath, 3));
        assert!(f[0].message.contains("index reached via run -> walk"), "{}", f[0].message);

        // A callee in a harness crate is never a resolution candidate; the
        // same callee in a library crate is reached.
        let entry = "// era-check: entry\npub fn serve() { helper(); }\n";
        let helper = "pub fn helper() { panic!(\"x\"); }\n";
        for (rel, reached) in
            [("tests/src/lib.rs", 0), ("examples/x.rs", 0), ("crates/core/src/helper.rs", 1)]
        {
            let index = Index::build(&[
                (PathBuf::from("crates/core/src/serve.rs"), entry.to_string()),
                (PathBuf::from(rel), helper.to_string()),
            ]);
            assert_eq!(lint(&index).findings.len(), reached, "{rel}");
        }
    }

    #[test]
    fn call_site_allow_cuts_the_chain() {
        let src = "\
// era-check: entry
fn lookup(&self) -> u32 {
    // era-check: allow(panic-path): fill() is only reached with a valid id
    self.fill()
}
fn fill(&self) -> u32 { self.nodes[0] }
";
        assert!(lint_lib(src).is_empty(), "{:?}", lint_lib(src));
    }

    #[test]
    fn prose_mentions_of_directives_are_not_directives() {
        // A doc comment *describing* the entry marker must not arm it.
        let src = "\
/// Functions marked `// era-check: entry` must not reach a panic.
fn describe() {
    panic!(\"boom\");
}
";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn nested_test_mod_tracking_resumes_linting_after_mod_ends() {
        let src = "\
#[cfg(test)]
mod tests {
    // era-check: entry
    fn t() { panic!(\"t\"); }
    mod inner { fn u() { panic!(\"u\"); } }
}
// era-check: entry
fn real() { panic!(\"real\"); }
";
        let f = lint_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 8);
    }

    #[test]
    fn every_rule_has_a_stable_name() {
        for &rule in Rule::ALL {
            assert!(!rule.name().is_empty());
        }
        assert_eq!(Rule::ALL, [Rule::PanicPath]);
    }
}
