//! Two-sided fixture suite for the panic-path rule and every taint rule, as
//! clippy holds them.
//!
//! For each rule in [`Rule::ALL`] the corpus under `tests/fixtures/` must
//! hold a `deny_<rule>.rs` file that the serving deny catches and an
//! `allow_<rule>.rs` twin — the same sites excused by a reasoned
//! `#[expect(.., reason = "..")]` — that passes clean. The taint rules follow
//! the same convention for [`TaintRule::ALL`] under the parser deny, with one
//! twist: their twins pass because the value is *actually sanitized*
//! (`checked_*`, `try_from`, `get`), not merely excused — except where an
//! expect is itself the thing under test. A rule added without its fixture
//! pair fails this suite, and so does a fixture its deny no longer catches.
//!
//! Each fixture is compiled by `clippy-driver` with its scope's deny line
//! prepended and the workspace's `clippy.toml` in force.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use era_check::lint::{clippy_findings, deny_attribute, Finding, Rule};
use era_check::taint::TaintRule;

/// Where the corpus lives on disk.
fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The rule's name with `-` mapped to `_`, as used in fixture file names.
fn slug(name: &str) -> String {
    name.replace('-', "_")
}

fn read_fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} is required but unreadable: {e}", path.display()))
}

/// The deny line a serving module carries.
fn serving_deny() -> String {
    deny_attribute(Rule::PanicPath.lints().iter().copied())
}

/// The deny line a format module or parser fn carries.
fn parser_deny() -> String {
    deny_attribute(TaintRule::ALL.iter().map(|rule| rule.lint()))
}

/// Runs clippy over one fixture under `deny` and returns the codes fired.
fn clippy_fixture(deny: &str, name: &str) -> Vec<Finding> {
    let source = format!("{deny}\n{}", read_fixture(name));
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    clippy_findings(&source, &root).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn codes(findings: &[Finding]) -> BTreeSet<&str> {
    findings.iter().map(|f| f.code.as_str()).collect()
}

#[test]
fn every_rule_catches_its_deny_fixture() {
    for &rule in Rule::ALL {
        let findings = clippy_fixture(&serving_deny(), &format!("deny_{}.rs", slug(rule.name())));
        for lint in rule.lints() {
            assert!(codes(&findings).contains(lint), "{rule:?} missed {lint}; found: {findings:?}");
        }
    }
}

#[test]
fn every_allow_twin_passes_clean() {
    for &rule in Rule::ALL {
        let findings = clippy_fixture(&serving_deny(), &format!("allow_{}.rs", slug(rule.name())));
        assert!(findings.is_empty(), "allow twin of {rule:?} should pass clean: {findings:?}");
    }
}

#[test]
fn deny_fixtures_fire_only_their_own_rule() {
    // Each deny fixture is minimal: it must trip its target rule and
    // nothing else, so a fixture never silently tests the wrong thing.
    for &rule in Rule::ALL {
        let findings = clippy_fixture(&serving_deny(), &format!("deny_{}.rs", slug(rule.name())));
        let stray: Vec<&Finding> =
            findings.iter().filter(|f| !rule.lints().contains(&f.code.as_str())).collect();
        assert!(stray.is_empty(), "deny fixture of {rule:?} also fired: {stray:?}");
    }
}

#[test]
fn every_taint_rule_catches_its_deny_fixture() {
    for &rule in TaintRule::ALL {
        let findings = clippy_fixture(&parser_deny(), &format!("deny_{}.rs", slug(rule.name())));
        assert!(codes(&findings).contains(rule.lint()), "{rule:?} missed; found: {findings:?}");
    }
}

#[test]
fn every_taint_sanitized_twin_passes_clean() {
    for &rule in TaintRule::ALL {
        let findings = clippy_fixture(&parser_deny(), &format!("allow_{}.rs", slug(rule.name())));
        assert!(findings.is_empty(), "sanitized twin of {rule:?} should pass clean: {findings:?}");
    }
}

#[test]
fn taint_deny_fixtures_fire_only_their_own_rule() {
    for &rule in TaintRule::ALL {
        let findings = clippy_fixture(&parser_deny(), &format!("deny_{}.rs", slug(rule.name())));
        let stray: Vec<&Finding> = findings.iter().filter(|f| f.code != rule.lint()).collect();
        assert!(stray.is_empty(), "deny fixture of {rule:?} also fired: {stray:?}");
    }
}

/// Decoding outside the parsers: a helper that decodes its own byte-slice
/// parameter with `from_le_bytes` and hands the value out through
/// `Some(..)`. Outside every deny, `clippy.toml`'s `disallowed-methods`
/// catches the decode in the helper; under the parser deny its unchecked
/// arithmetic is caught as well, and its sanitized twin passes clean.
const WRAPPED_SOURCE: &str = "taint_wrapped_source";

#[test]
fn option_wrapped_helper_is_a_source_and_its_sanitized_twin_is_clean() {
    let name = format!("deny_{WRAPPED_SOURCE}.rs");
    let decode_line = read_fixture(&name).lines().position(|l| l.contains("from_le_bytes"));
    // The deny line prepended by `clippy_fixture` shifts lines by one.
    let decode_line = decode_line.expect("the helper decodes") + 2;
    let findings = clippy_fixture("", &name);
    assert_eq!(
        findings,
        [Finding { code: "clippy::disallowed_methods".into(), line: decode_line }],
        "the decode must be flagged in the helper read_u32"
    );
    let findings = clippy_fixture(&parser_deny(), &name);
    assert!(codes(&findings).contains(TaintRule::Arith.lint()), "arith missed: {findings:?}");
    let twin = clippy_fixture(&parser_deny(), &format!("allow_{WRAPPED_SOURCE}.rs"));
    assert!(twin.is_empty(), "sanitized twin should pass clean but was flagged: {twin:?}");
}

#[test]
fn corpus_has_no_orphan_fixtures() {
    // Every file in the corpus must belong to a known rule — an orphan is
    // either a typo'd name (so some rule is silently untested) or leftovers
    // from a removed rule.
    let names = Rule::ALL.iter().map(|r| slug(r.name()));
    let expected: BTreeSet<String> = names
        .chain(TaintRule::ALL.iter().map(|r| slug(r.name())))
        .chain([WRAPPED_SOURCE.to_string()])
        .flat_map(|s| [format!("deny_{s}.rs"), format!("allow_{s}.rs")])
        .collect();
    let mut on_disk = BTreeSet::new();
    for entry in std::fs::read_dir(fixture_dir()).expect("fixture dir must exist") {
        let name = entry.expect("readable dir entry").file_name();
        on_disk.insert(name.to_string_lossy().into_owned());
    }
    assert_eq!(on_disk, expected, "fixture corpus out of sync with Rule::ALL + TaintRule::ALL");
}
