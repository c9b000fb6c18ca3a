//! The horizontal phase's memory is scoped to its phases: `R` borrows the
//! sub-tree area that is idle during `SubTreePrepare`, and is held as one
//! arena cut into `active · range` bytes per round.
//!
//! * The gain: a virtual tree costs a handful of passes over the string, not
//!   dozens.
//! * The invariant behind it: how the symbols are fetched — the size of `R`,
//!   the range policy, its lower bound, the number of workers — decides the
//!   *number of passes* and nothing about the tree; every schedule saves the
//!   same catalog, byte for byte.
//! * The arena bound: no round needs more than the arena holds, whatever
//!   stretches a round (`min_range`, a fixed range) or cuts a read short (the
//!   end of the string). CI's paranoid pass runs this file with the bound
//!   asserted before every round.

use std::path::PathBuf;

use era::horizontal::prepare::prepare_group;
use era::horizontal::HorizontalParams;
use era::{
    ConstructionPipeline, EraConfig, HorizontalMethod, RangePolicy, SerialScheduler, SuffixIndex,
};
use era_string_store::{Alphabet, InMemoryStore};
use era_suffix_tree::validate_partitioned;
use era_tests::{scan_occurrences, terminated};
use era_workloads::genome_like;

/// 128 KiB: a dedicated `R` of 4 KiB, `FM` = 1,766.
const BUDGET: usize = 128 << 10;

#[test]
fn a_virtual_tree_costs_a_handful_of_passes() {
    let body = genome_like(256 << 10, 1);
    let store = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
    let config = EraConfig { memory_budget: BUDGET, ..EraConfig::default() };
    let (_, report) =
        ConstructionPipeline::new(&config).run(&SerialScheduler::new(&store)).unwrap();
    let horizontal_scans = report.io.full_scans - report.vertical_scans as u64;
    // One classifying scan per cohort plus the rounds of SubTreePrepare.
    // With R confined to its dedicated buffer the first range is the 4-symbol
    // floor of `min_range` and a group of this input takes 61.4 passes; with
    // the idle tree area it is ~34 symbols and 7.5 passes.
    assert!(
        horizontal_scans <= 8 * report.virtual_trees as u64,
        "{horizontal_scans} passes for {} virtual trees",
        report.virtual_trees
    );
    // FM charges a node its 16-byte flat record. Charged the 48 B of the
    // construction form, this input made 447 virtual trees at 3.6 passes
    // each, 1,596 in all: a third as many trees, each a few passes dearer,
    // still sweep the string fewer times.
    assert!(report.virtual_trees < 447, "{} virtual trees", report.virtual_trees);
    assert!(horizontal_scans < 1_596, "{horizontal_scans} passes");
}

/// Configurations that fetch the symbols on different schedules and must
/// build the same tree. All leave `FM` — which does shape the tree — alone.
fn range_schedules() -> Vec<(&'static str, EraConfig)> {
    let default = EraConfig { memory_budget: BUDGET, ..EraConfig::default() };
    let schedules = vec![
        ("default", default.clone()),
        // A quarter of the default's dedicated R; the trie area takes the
        // difference, so the sub-tree area (and FM) stays what it was.
        (
            "explicit R",
            EraConfig { r_buffer_size: Some(1 << 10), trie_area: 19 << 10, ..default.clone() },
        ),
        // Every early round is stretched past what R holds.
        ("min_range", EraConfig { min_range: 256, ..default.clone() }),
        ("fixed range", EraConfig { range_policy: RangePolicy::Fixed(16), ..default.clone() }),
        // Two workers, half of R each.
        ("two workers", EraConfig { threads: 2, ..default.clone() }),
    ];
    let fm = |config: &EraConfig| config.memory_layout(&Alphabet::dna()).unwrap().fm;
    assert!(schedules.iter().all(|(_, config)| fm(config) == fm(&default)));
    schedules
}

fn scratch_catalog(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("era-phase-memory-{name}-{}.eracat", std::process::id()))
}

#[test]
fn the_range_schedule_never_changes_the_catalog() {
    let body = genome_like(32 << 10, 1);
    for packed in [false, true] {
        let mut reference: Option<Vec<u8>> = None;
        for (name, config) in range_schedules() {
            let index = SuffixIndex::builder()
                .config(EraConfig { packed, ..config })
                .build_from_bytes_with_alphabet(&body, Alphabet::dna())
                .unwrap();
            let path = scratch_catalog(&format!("{packed}-{}", name.replace(' ', "-")));
            index.save_to_file(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            match &reference {
                None => reference = Some(bytes),
                Some(reference) => assert!(
                    *reference == bytes,
                    "the {name} build (packed: {packed}) saved a different catalog"
                ),
            }
        }
    }
}

#[test]
fn era_str_builds_the_same_suffix_order_from_its_dedicated_r() {
    // ERA-str labels the same edges from other occurrences of the same
    // symbols, so its trees are compared by content, not by bytes.
    let body = genome_like(32 << 10, 1);
    let text = terminated(&body);
    let store = InMemoryStore::from_body(&body, Alphabet::dna()).unwrap();
    let build = |horizontal| {
        let config = EraConfig { memory_budget: BUDGET, horizontal, ..EraConfig::default() };
        ConstructionPipeline::new(&config).run(&SerialScheduler::new(&store)).unwrap()
    };
    let (mem_tree, mem_report) = build(HorizontalMethod::StringAndMemory);
    let (str_tree, str_report) = build(HorizontalMethod::StringOnly);
    validate_partitioned(&str_tree, &text).unwrap();
    assert_eq!(str_tree.lexicographic_suffixes(), mem_tree.lexicographic_suffixes());
    assert_eq!(str_report.virtual_trees, mem_report.virtual_trees);
    // Its tree grows during the scans, so its R cannot borrow the tree area.
    assert!(str_report.io.full_scans > 2 * mem_report.io.full_scans);
}

/// `prepare_group` against the sorted suffixes and their pairwise LCPs.
fn assert_prepares_correctly(body: &[u8], prefixes: &[&[u8]], params: &HorizontalParams) {
    let text = terminated(body);
    let store =
        InMemoryStore::from_body(body, Alphabet::dna()).unwrap().with_block_size(32).unwrap();
    let prefixes: Vec<Vec<u8>> = prefixes.iter().map(|p| p.to_vec()).collect();
    let occurrences: Vec<Vec<u32>> = prefixes.iter().map(|p| scan_occurrences(&text, p)).collect();
    let prepared = prepare_group(&store, &prefixes, &occurrences, params).unwrap();
    for (sub_tree, occurrences) in prepared.iter().zip(&occurrences) {
        let mut sorted = occurrences.clone();
        sorted.sort_by_key(|&at| &text[at as usize..]);
        assert_eq!(sub_tree.leaves, sorted, "{params:?}");
        for (pair, branching) in sorted.windows(2).zip(&sub_tree.branching) {
            let (left, right) = (&text[pair[0] as usize..], &text[pair[1] as usize..]);
            let lcp = left.iter().zip(right).take_while(|(x, y)| x == y).count();
            assert_eq!(branching.lcp as usize, lcp, "{params:?}");
            assert_eq!((branching.left_char, branching.right_char), (left[lcp], right[lcp]));
        }
    }
}

#[test]
fn no_round_outgrows_the_arena() {
    // Long shared runs keep suffixes active for many rounds; the tail of the
    // string repeats its start, so late reads are cut short by the terminal.
    let mut body = genome_like(3000, 7);
    body.extend_from_slice(&b"ACGT".repeat(40));
    let head = body[..200].to_vec();
    body.extend_from_slice(&head);
    let prefixes: [&[u8]; 3] = [b"A", b"CG", b"T"];
    let params = |r_capacity, range_policy, min_range| HorizontalParams {
        r_capacity,
        range_policy,
        min_range,
        seek_optimization: true,
    };
    for params in [
        // Elastic, R roomy: the range grows as suffixes drop out, and soon
        // exceeds what is left of the string.
        params(16 << 10, RangePolicy::Elastic, 1),
        // Elastic, R smaller than `active · min_range`: the first rounds are
        // clamped from below and need more than `r_capacity`.
        params(512, RangePolicy::Elastic, 8),
        params(1, RangePolicy::Elastic, 3),
        // Fixed ranges ignore R altogether.
        params(64, RangePolicy::Fixed(16), 1),
        params(1 << 20, RangePolicy::Fixed(1), 1),
        // A range no string is long enough for.
        params(64, RangePolicy::Fixed(usize::MAX), 1),
    ] {
        assert_prepares_correctly(&body, &prefixes, &params);
        assert_prepares_correctly(&body, &prefixes[1..2], &params);
    }
}
