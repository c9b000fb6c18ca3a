//! The panic-path rule, and the clippy runner that proves the rules hold.
//!
//! **panic-path** — code that serves queries from a validated index must not
//! panic. Clippy holds the rule: every serving module carries
//! `#![deny(..)]` over [`Rule::lints`], so an index or a `panic!`-family
//! macro anywhere on a query path fails `cargo clippy`, and each reasoned
//! exception is an `#[expect(.., reason = "..")]` on its fn. `clippy.toml`
//! exempts test code.
//!
//! [`clippy_findings`] runs clippy over one source text under the
//! workspace's `clippy.toml`. The fixture corpus (`tests/fixtures.rs`) uses
//! it to show that each rule's denies catch the rule's findings and pass its
//! reasoned or sanitized twins.

use std::io::{self, Write};
use std::path::Path;
use std::process::{Command, Stdio};

/// The rule that serving modules deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Indexing or a `panic!`-family macro in a serving module.
    PanicPath,
}

impl Rule {
    /// Every rule. The fixture suite iterates this — a rule added here
    /// without fixtures fails that suite.
    pub const ALL: &'static [Rule] = &[Rule::PanicPath];

    /// The rule's name, as used in fixture file names.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicPath => "panic-path",
        }
    }

    /// The clippy lints a serving module denies to hold the rule.
    pub fn lints(self) -> &'static [&'static str] {
        match self {
            Rule::PanicPath => &[
                "clippy::indexing_slicing",
                "clippy::panic",
                "clippy::unreachable",
                "clippy::todo",
                "clippy::unimplemented",
            ],
        }
    }
}

/// The crate-level `#![deny(..)]` line over `lints`.
pub fn deny_attribute<'a>(lints: impl IntoIterator<Item = &'a str>) -> String {
    format!("#![deny({})]", lints.into_iter().collect::<Vec<_>>().join(", "))
}

/// One diagnostic clippy (or rustc) reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint or error code, e.g. `clippy::indexing_slicing`.
    pub code: String,
    /// 1-based line of the primary span.
    pub line: usize,
}

/// Compiles `source` as a library crate with `clippy-driver`, with
/// `cfg(test)` on and `clippy.toml` read from `conf_dir`, and returns every
/// coded diagnostic in order. Source that fails to build for a reason
/// without a code (a syntax error) is an `Err`.
pub fn clippy_findings(source: &str, conf_dir: &Path) -> io::Result<Vec<Finding>> {
    // The rustup proxy sits next to cargo; fall back to `PATH`.
    let driver = std::env::var_os("CARGO")
        .map(|cargo| Path::new(&cargo).with_file_name("clippy-driver"))
        .filter(|driver| driver.exists())
        .unwrap_or_else(|| "clippy-driver".into());
    let mut child = Command::new(driver)
        .args(["--edition=2021", "--crate-type=lib", "--crate-name=fixture", "--cfg=test"])
        .args(["--emit=metadata=-", "--error-format=json", "-"])
        .env("CLIPPY_CONF_DIR", conf_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()?;
    if let Some(mut stdin) = child.stdin.take() {
        stdin.write_all(source.as_bytes())?;
    }
    let output = child.wait_with_output()?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    // One JSON diagnostic a line; the first `code` and `line_start` in a
    // line are the diagnostic's own (children and spans come after).
    let findings: Vec<Finding> = stderr
        .lines()
        .filter_map(|diag| {
            let code = field(diag, "\"code\":{\"code\":\"", '"')?;
            let line = field(diag, "\"line_start\":", ',')?.parse().ok()?;
            Some(Finding { code: code.to_string(), line })
        })
        .collect();
    if !output.status.success() && findings.is_empty() {
        return Err(io::Error::other(format!("clippy-driver failed: {stderr}")));
    }
    Ok(findings)
}

/// The text between `key` and the next `end` in `s`.
fn field<'a>(s: &'a str, key: &str, end: char) -> Option<&'a str> {
    let rest = &s[s.find(key)? + key.len()..];
    Some(&rest[..rest.find(end)?])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clippy(src: &str) -> Vec<String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = clippy_findings(src, &root).expect("clippy-driver must run");
        findings.into_iter().map(|f| f.code).collect()
    }

    fn serving_deny() -> String {
        deny_attribute(Rule::PanicPath.lints().iter().copied())
    }

    #[test]
    fn read_at_in_comments_strings_and_tests_is_ignored() {
        // Sinks in prose, in literals and under `cfg(test)` are not sinks:
        // the last relies on clippy.toml's in-tests exemptions.
        let src = format!(
            "{}\n{}",
            serving_deny(),
            r##"
pub fn f() -> usize { let s = "panic!()"; let r = r#"xs[0]"#; /* xs[0] /* panic!() */ */ s.len() + r.len() }
// a comment about panic!()
#[cfg(test)]
pub mod tests {
    pub fn g(xs: &[u8]) -> u8 { if xs.is_empty() { panic!("t") } xs[0] }
}
"##
        );
        assert_eq!(clippy(&src), Vec::<String>::new());
    }

    #[test]
    fn panic_path_reaches_through_calls() {
        // The deny reaches a callee because every serving module carries
        // it: a helper's index is flagged in a denied module and missed in
        // an undenied one.
        let helper = |deny: &str| {
            format!(
                "pub mod query {{ {0}\n pub fn try_count(t: &[u8]) -> u8 {{ super::helper::get(t, 0) }} }}\n\
                 pub mod helper {{ {deny}\n pub fn get(t: &[u8], i: usize) -> u8 {{ t[i] }} }}\n",
                serving_deny()
            )
        };
        assert_eq!(clippy(&helper(&serving_deny())), ["clippy::indexing_slicing"]);
        assert_eq!(clippy(&helper("")), Vec::<String>::new());
    }

    #[test]
    fn every_rule_has_a_stable_name() {
        for &rule in Rule::ALL {
            assert!(!rule.name().is_empty());
            assert!(rule.lints().iter().all(|lint| lint.starts_with("clippy::")));
        }
        assert_eq!(Rule::ALL, [Rule::PanicPath]);
    }
}
