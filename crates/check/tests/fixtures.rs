//! Two-sided fixture suite for the lint rule and every taint sink class.
//!
//! For each rule in [`Rule::ALL`] the corpus under `tests/fixtures/` must
//! hold a `deny_<rule>.rs` file that the rule catches and an
//! `allow_<rule>.rs` twin — the same violation escaped by a reasoned
//! `// era-check: allow(<rule>): why` directive — that passes clean. The
//! taint pass follows the same convention for [`TaintRule::ALL`], with one
//! twist: its twins pass because the value is *actually sanitized*
//! (`checked_*`, `try_from`, a clamp, a bounds check), not merely excused —
//! except where a `sanitized(taint)` directive is itself the thing under
//! test. A rule added without its fixture pair fails this suite, and so does
//! a fixture the rule no longer catches: the rules stay two-sided by
//! construction.
//!
//! Fixtures are fed through [`lint_source`] / [`taint_source`] under a
//! virtual path inside a library crate, so call-graph resolution and the
//! taint pass apply to them; the workspace sweep itself excludes the
//! fixture directory.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use era_check::lint::{lint_source, Finding, Rule};
use era_check::taint::{taint_source, TaintFinding, TaintRule};

/// Where the corpus lives on disk.
fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The rule's name with `-` mapped to `_`, as used in fixture file names.
fn slug(rule: Rule) -> String {
    rule.name().replace('-', "_")
}

/// Same mapping for taint sink classes (`taint-cast` → `taint_cast`).
fn taint_slug(rule: TaintRule) -> String {
    rule.name().replace('-', "_")
}

fn read_fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} is required but unreadable: {e}", path.display()))
}

/// Lints one fixture under a virtual library-crate path, so the policy and
/// call-graph resolution match production library code.
fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_source(Path::new("crates/core/src/lint_fixture.rs"), &read_fixture(name))
}

/// Taint-checks one fixture under the same virtual library-crate path.
fn taint_fixture(name: &str) -> Vec<TaintFinding> {
    taint_source(Path::new("crates/core/src/taint_fixture.rs"), &read_fixture(name))
}

#[test]
fn every_rule_catches_its_deny_fixture() {
    for &rule in Rule::ALL {
        let findings = lint_fixture(&format!("deny_{}.rs", slug(rule)));
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "rule {} missed its deny fixture entirely; found: {findings:?}",
            rule.name()
        );
    }
}

#[test]
fn every_allow_twin_passes_clean() {
    for &rule in Rule::ALL {
        let findings = lint_fixture(&format!("allow_{}.rs", slug(rule)));
        assert!(
            findings.is_empty(),
            "allow twin of {} should pass clean but was flagged: {findings:?}",
            rule.name()
        );
    }
}

#[test]
fn deny_fixtures_fire_only_their_own_rule() {
    // Each deny fixture is minimal: it must trip its target rule and
    // nothing else, so a fixture never silently tests the wrong thing.
    for &rule in Rule::ALL {
        let findings = lint_fixture(&format!("deny_{}.rs", slug(rule)));
        let stray: Vec<&Finding> = findings.iter().filter(|f| f.rule != rule).collect();
        assert!(
            stray.is_empty(),
            "deny fixture of {} also fired other rules: {stray:?}",
            rule.name()
        );
    }
}

#[test]
fn every_taint_rule_catches_its_deny_fixture() {
    for &rule in TaintRule::ALL {
        let findings = taint_fixture(&format!("deny_{}.rs", taint_slug(rule)));
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "taint rule {} missed its deny fixture entirely; found: {findings:?}",
            rule.name()
        );
    }
}

#[test]
fn every_taint_sanitized_twin_passes_clean() {
    for &rule in TaintRule::ALL {
        let findings = taint_fixture(&format!("allow_{}.rs", taint_slug(rule)));
        assert!(
            findings.is_empty(),
            "sanitized twin of {} should pass clean but was flagged: {findings:?}",
            rule.name()
        );
    }
}

#[test]
fn taint_deny_fixtures_fire_only_their_own_rule() {
    for &rule in TaintRule::ALL {
        let findings = taint_fixture(&format!("deny_{}.rs", taint_slug(rule)));
        let stray: Vec<&TaintFinding> = findings.iter().filter(|f| f.rule != rule).collect();
        assert!(
            stray.is_empty(),
            "deny fixture of {} also fired other taint rules: {stray:?}",
            rule.name()
        );
    }
}

/// The source rule for helpers that are not parser-named: a fn that decodes
/// its own byte-slice parameter with `from_le_bytes` and hands the value out
/// through `Some(..)`/`Ok(..)` taints its callers. The deny fixture (the
/// parser that slipped through before the rule existed) must trip both sinks
/// it contains, its sanitized twin none.
const WRAPPED_SOURCE: &str = "taint_wrapped_source";

#[test]
fn option_wrapped_helper_is_a_source_and_its_sanitized_twin_is_clean() {
    let findings = taint_fixture(&format!("deny_{WRAPPED_SOURCE}.rs"));
    for rule in [TaintRule::Alloc, TaintRule::Arith] {
        let hit = findings.iter().find(|f| f.rule == rule);
        let hit = hit.unwrap_or_else(|| panic!("{} missed: {findings:?}", rule.name()));
        assert!(hit.message.contains("read_u32"), "chain must name the helper: {}", hit.message);
    }
    let twin = taint_fixture(&format!("allow_{WRAPPED_SOURCE}.rs"));
    assert!(twin.is_empty(), "sanitized twin should pass clean but was flagged: {twin:?}");
}

#[test]
fn corpus_has_no_orphan_fixtures() {
    // Every file in the corpus must belong to a known rule — an orphan is
    // either a typo'd name (so some rule is silently untested) or leftovers
    // from a removed rule.
    let expected: BTreeSet<String> = Rule::ALL
        .iter()
        .flat_map(|&r| [format!("deny_{}.rs", slug(r)), format!("allow_{}.rs", slug(r))])
        .chain(TaintRule::ALL.iter().flat_map(|&r| {
            [format!("deny_{}.rs", taint_slug(r)), format!("allow_{}.rs", taint_slug(r))]
        }))
        .chain([format!("deny_{WRAPPED_SOURCE}.rs"), format!("allow_{WRAPPED_SOURCE}.rs")])
        .collect();
    let mut on_disk = BTreeSet::new();
    for entry in std::fs::read_dir(fixture_dir()).expect("fixture dir must exist") {
        let name = entry.expect("readable dir entry").file_name();
        on_disk.insert(name.to_string_lossy().into_owned());
    }
    assert_eq!(on_disk, expected, "fixture corpus out of sync with Rule::ALL + TaintRule::ALL");
}
