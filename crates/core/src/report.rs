//! Construction reports.
//!
//! Every construction driver (ERA serial, ERA parallel, and every baseline in
//! `era-baselines`) returns a [`ConstructionReport`] next to the tree, so that
//! the benchmark harness can print the same columns for every algorithm:
//! wall-clock time, phase breakdown, I/O counters and tree statistics.

use std::time::Duration;

use era_string_store::IoSnapshot;
use era_suffix_tree::TreeStats;

/// Per-node information for the shared-nothing driver (Table 3, Fig. 13).
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Node identifier (0-based).
    pub node: usize,
    /// Number of virtual trees assigned to this node.
    pub virtual_trees: usize,
    /// Number of cohorts of them, i.e. classifying passes, this node ran.
    pub cohorts: usize,
    /// Number of sub-trees built by this node.
    pub partitions: usize,
    /// Wall-clock time the node spent constructing.
    pub elapsed: Duration,
    /// I/O performed by this node against its private copy of the string.
    pub io: IoSnapshot,
}

/// Summary of one construction run.
#[derive(Debug, Clone, Default)]
pub struct ConstructionReport {
    /// Human-readable algorithm name ("era", "era-str", "wavefront", ...).
    pub algorithm: String,
    /// Length of the input string including the terminal.
    pub text_len: usize,
    /// Memory budget the run was given.
    pub memory_budget: usize,
    /// The frequency bound `FM` used for vertical partitioning.
    pub fm: usize,
    /// Total wall-clock construction time.
    pub elapsed: Duration,
    /// Time spent in vertical partitioning.
    pub vertical_time: Duration,
    /// Time spent in horizontal partitioning (sub-tree construction).
    pub horizontal_time: Duration,
    /// Number of scans of the string performed by vertical partitioning.
    pub vertical_scans: usize,
    /// Number of variable-length prefixes (= sub-trees).
    pub partitions: usize,
    /// Number of virtual trees (groups); equals `partitions` when grouping is
    /// disabled.
    pub virtual_trees: usize,
    /// Number of cohorts the virtual trees were built in: each is one
    /// classifying pass over the string that collects the leaves of every
    /// member at once (0 for the baselines, which have no such pass).
    pub cohorts: usize,
    /// I/O counters accumulated over the whole run.
    pub io: IoSnapshot,
    /// Structural statistics of the resulting tree.
    pub tree: TreeStats,
    /// Worker/node breakdown for parallel runs (empty for serial runs).
    pub per_node: Vec<NodeReport>,
    /// Simulated time to broadcast the input string to every node
    /// (shared-nothing only; `Duration::ZERO` otherwise).
    pub string_transfer: Duration,
}

impl ConstructionReport {
    /// Throughput in input symbols per second.
    pub fn symbols_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            return f64::INFINITY;
        }
        self.text_len as f64 / self.elapsed.as_secs_f64()
    }

    /// Total time including the simulated string transfer.
    pub fn elapsed_with_transfer(&self) -> Duration {
        self.elapsed + self.string_transfer
    }

    /// Ratio of bytes read to input size — how many effective passes over the
    /// string the algorithm needed.
    pub fn read_amplification(&self) -> f64 {
        if self.text_len == 0 {
            return 0.0;
        }
        self.io.bytes_read as f64 / self.text_len as f64
    }

    /// Makespan of the slowest node (parallel runs); falls back to `elapsed`.
    pub fn makespan(&self) -> Duration {
        self.per_node.iter().map(|n| n.elapsed).max().unwrap_or(self.elapsed)
    }

    /// Arena bytes per tree node in the serving layout (0.0 for an empty
    /// tree) — the memory-density figure the flat layout optimizes.
    pub fn bytes_per_node(&self) -> f64 {
        self.tree.bytes_per_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let report = ConstructionReport {
            algorithm: "era".into(),
            text_len: 1000,
            elapsed: Duration::from_millis(500),
            io: IoSnapshot { bytes_read: 4000, ..Default::default() },
            ..Default::default()
        };
        assert!((report.symbols_per_second() - 2000.0).abs() < 1e-6);
        assert!((report.read_amplification() - 4.0).abs() < 1e-9);
        assert_eq!(report.makespan(), Duration::from_millis(500));
    }

    #[test]
    fn bytes_per_node_comes_from_tree_stats() {
        let report = ConstructionReport {
            tree: TreeStats { nodes: 4, arena_bytes: 64, ..Default::default() },
            ..Default::default()
        };
        assert!((report.bytes_per_node() - 16.0).abs() < 1e-9);
        assert_eq!(ConstructionReport::default().bytes_per_node(), 0.0);
    }

    #[test]
    fn makespan_uses_slowest_node() {
        let report = ConstructionReport {
            elapsed: Duration::from_millis(100),
            per_node: vec![
                NodeReport { node: 0, elapsed: Duration::from_millis(80), ..Default::default() },
                NodeReport { node: 1, elapsed: Duration::from_millis(120), ..Default::default() },
            ],
            ..Default::default()
        };
        assert_eq!(report.makespan(), Duration::from_millis(120));
    }

    #[test]
    fn zero_cases() {
        let report = ConstructionReport::default();
        assert_eq!(report.read_amplification(), 0.0);
        assert!(report.symbols_per_second().is_infinite());
        assert_eq!(report.elapsed_with_transfer(), Duration::ZERO);
    }
}
