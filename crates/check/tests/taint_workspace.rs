//! The taint pass over the real workspace: it must run clean (the parser
//! audit holds — every flagged site is fixed or carries a reasoned
//! directive) and deterministically (two runs produce identical findings in
//! identical order, so CI failures are reproducible and diffable).

#![deny(rust_2018_idioms)]

use std::path::Path;

use era_check::graph::{find_workspace_root, Index};
use era_check::taint::taint;

#[test]
fn workspace_taint_is_clean_and_deterministic() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let first = taint(&Index::load(&root).expect("taint sweep must run"));
    let second = taint(&Index::load(&root).expect("taint sweep must run twice"));

    assert!(
        first.passed(),
        "the workspace must be taint-clean; fix or annotate: {:#?}",
        first.findings
    );
    assert_eq!(first.findings, second.findings, "findings must be deterministic");
    assert_eq!(
        (first.files, first.fns, first.call_edges, first.tainted_flows, first.allows),
        (second.files, second.fns, second.call_edges, second.tainted_flows, second.allows),
        "pass statistics must be deterministic"
    );
    // The sweep must actually have covered the workspace, not scanned an
    // empty directory: the parser seams guarantee some interprocedural flow.
    assert!(first.files > 50, "suspiciously few files scanned: {}", first.files);
    assert!(first.fns > 300, "suspiciously few fns analyzed: {}", first.fns);
    assert!(first.tainted_flows > 0, "the read_u32/read_u8 seams must produce summaries");
}
