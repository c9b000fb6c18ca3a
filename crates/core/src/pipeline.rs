//! The unified construction pipeline (§4–§5).
//!
//! The paper's serial (§4), shared-memory parallel (§5.1) and shared-nothing
//! parallel (§5.2) algorithms are the *same* pipeline — vertical partitioning
//! → one classifying scan per cohort of virtual trees → horizontal
//! `SubTreePrepare` / `BuildSubTree` per virtual tree — differing only in
//! **who runs which cohort**. This module owns everything the three drivers
//! share:
//!
//! * vertical partitioning on the master store,
//! * the per-cohort work function ([`build_cohort`]),
//! * phase timing and I/O accounting,
//! * [`ConstructionReport`] assembly,
//!
//! and delegates exactly one decision to a [`GroupScheduler`]: how the
//! cohorts of the horizontal phase are executed. A cohort is as many virtual
//! trees as one pass over the string may serve ([`cohort_len`], derived from
//! the worker's `R` and `FM`, never configured) — §4.1's "one scan serves a
//! group", taken one step further. Three schedulers ship today —
//! [`SerialScheduler`], [`SharedMemoryScheduler`] and
//! [`SharedNothingScheduler`] — and the same seam is where future backends
//! (async I/O stores, distributed workers, batched query builds) plug in
//! without touching the pipeline again.
//!
//! [`construct`] is the driver entry point over one store: `config.threads`
//! alone decides between the serial and the shared-memory scheduler. A
//! shared-nothing run needs one store per node and therefore has its own,
//! [`construct_shared_nothing`]. Anything else — a one-thread shared-memory
//! run, a custom scheduler — names its scheduler through
//! [`ConstructionPipeline::run`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use era_string_store::{IoSnapshot, StringStore};
use era_suffix_tree::{FlatPartition, Partition, PartitionedSuffixTree};

use crate::config::{EraConfig, HorizontalMethod, MemoryLayout};
use crate::error::{EraError, EraResult};
use crate::horizontal::branch_edge::compute_group_str;
use crate::horizontal::build::assemble_partition;
use crate::horizontal::prepare::prepare_group;
use crate::horizontal::HorizontalParams;
use crate::report::{ConstructionReport, NodeReport};
use crate::scan::classify_into;
use crate::vertical::{vertical_partition, PrefixFrequency, VirtualTree};

/// How many virtual trees one classifying pass serves, for a worker whose
/// read-ahead buffer holds `r_capacity` bytes: `1 + r_capacity / (16 · FM)`.
///
/// The `L` lists of the members still waiting their turn (4 bytes a leaf, at
/// most `FM` leaves a group) stay live while another member runs
/// `SubTreePrepare`, so they are charged to that member's `R`, and may take
/// at most a quarter of it (see [`crate::config`] for why not more).
pub fn cohort_len(r_capacity: usize, fm: usize) -> usize {
    1 + r_capacity / (16 * fm.max(1))
}

/// Builds every sub-tree of a cohort of virtual trees — the unit of work
/// every scheduler executes, against whichever store its worker owns.
///
/// One sequential pass classifies every position of the string into the `L`
/// list of the S-prefix it starts with, for all members at once (the accepted
/// S-prefixes are a prefix-free cover of the suffixes, so a single trie
/// descent names the one sub-tree a position belongs to). The members then
/// run one after another, each with `R` reduced by the 4 bytes per leaf of
/// the lists still waiting behind it; the size of `R` decides how many passes
/// a member takes and nothing about its trees.
///
/// A member's memory is scoped to its phases (see [`crate::config`]): its
/// lists become `L`, `SubTreePrepare` releases `R` and `I`/`A`/`P` when it
/// returns `L`/`B`, and `BuildSubTree` assembles each sub-tree of ERA-str+mem
/// straight into its flat serving arena
/// ([`crate::horizontal::build::assemble_partition`]), allocated once at its
/// exact size, dropping that sub-tree's `L`/`B` as it goes — no `Vec`-node
/// tree exists on this path, so what a finished member leaves behind is its
/// arenas and nothing else. ERA-str grows a construction-form tree during its
/// scans and freezes it when they end.
pub fn build_cohort(
    store: &dyn StringStore,
    cohort: &[VirtualTree],
    params: &HorizontalParams,
    method: HorizontalMethod,
) -> EraResult<Vec<FlatPartition>> {
    let members: Vec<&PrefixFrequency> = cohort.iter().flat_map(|g| &g.prefixes).collect();
    // Vertical partitioning counted every list; no prefix occurs more often
    // than the string is long, whatever a hand-made group claims.
    let mut lists: Vec<Vec<u32>> = members
        .iter()
        .map(|p| Vec::with_capacity(p.frequency.min(store.len() as u64) as usize))
        .collect();
    let prefixes: Vec<&[u8]> = members.iter().map(|p| p.prefix.as_slice()).collect();
    classify_into(store, &prefixes, &mut lists)?;
    if let Some((p, list)) = members.iter().zip(&lists).find(|(p, l)| l.len() as u64 != p.frequency)
    {
        return Err(EraError::corrupt(format!(
            "S-prefix {:?} starts {} suffixes, vertical partitioning counted {}",
            String::from_utf8_lossy(&p.prefix),
            list.len(),
            p.frequency
        )));
    }

    let mut lists = lists.into_iter();
    let mut waiting: u64 = cohort.iter().map(VirtualTree::total_frequency).sum();
    let mut built = Vec::new();
    for group in cohort {
        waiting -= group.total_frequency();
        let prefixes: Vec<Vec<u8>> = group.prefixes.iter().map(|p| p.prefix.clone()).collect();
        let occurrences: Vec<Vec<u32>> = lists.by_ref().take(prefixes.len()).collect();
        let r_capacity = params.r_capacity.saturating_sub(4 * waiting as usize);
        let params = HorizontalParams { r_capacity, ..*params };
        match method {
            HorizontalMethod::StringAndMemory => built.extend(
                prepare_group(store, &prefixes, &occurrences, &params)?
                    .into_iter()
                    .filter(|p| !p.leaves.is_empty())
                    .map(|p| assemble_partition(store.len(), p)),
            ),
            HorizontalMethod::StringOnly => built.extend(
                compute_group_str(store, &prefixes, &occurrences, &params)?
                    .into_iter()
                    .filter(|p| p.tree.leaf_count() > 0)
                    .map(Partition::freeze),
            ),
        }
    }
    Ok(built)
}

/// What a scheduler produced for the horizontal phase.
#[derive(Debug, Default)]
pub struct ScheduleOutcome {
    /// Every built sub-tree, already frozen, in any order (the partitioned
    /// tree sorts them).
    pub partitions: Vec<FlatPartition>,
    /// Per-worker / per-node breakdown (empty for the serial scheduler).
    pub per_node: Vec<NodeReport>,
    /// Cohorts built, i.e. classifying passes over the string.
    pub cohorts: usize,
}

impl ScheduleOutcome {
    /// Gathers what the workers or nodes of a parallel scheduler hand back.
    fn from_workers(results: Vec<EraResult<WorkerOutput>>) -> EraResult<Self> {
        let mut outcome = ScheduleOutcome::default();
        for result in results {
            let (built, report) = result?;
            outcome.partitions.extend(built);
            outcome.cohorts += report.cohorts;
            outcome.per_node.push(report);
        }
        outcome.per_node.sort_by_key(|r| r.node);
        Ok(outcome)
    }
}

/// What one worker or node hands back: its frozen sub-trees and its report.
type WorkerOutput = (Vec<FlatPartition>, NodeReport);

/// The scheduling seam of the pipeline: decides *who* runs each virtual tree.
///
/// Implementations own their worker topology (none, a thread pool over one
/// shared store, or one private store per simulated cluster node) and are
/// expected to capture their I/O baselines when constructed — the pipeline
/// constructs the scheduler at run start, calls [`Self::run_groups`] once for
/// the horizontal phase and then [`Self::total_io`] for report assembly.
pub trait GroupScheduler {
    /// The store the master phases (vertical partitioning, final tree length)
    /// run against.
    fn master_store(&self) -> &dyn StringStore;

    /// Human-readable algorithm label for the [`ConstructionReport`].
    fn algorithm(&self) -> &'static str;

    /// Per-worker read-ahead capacity carved out of the memory layout.
    fn worker_r_capacity(&self, layout: &MemoryLayout) -> usize {
        layout.r_bytes
    }

    /// Executes every virtual tree, in cohorts of at most `cohort_len` ≥ 1
    /// ([`cohort_len`] of this scheduler's [`Self::worker_r_capacity`]), and
    /// returns the built partitions plus the per-worker breakdown.
    fn run_groups(
        &self,
        groups: &[VirtualTree],
        cohort_len: usize,
        params: &HorizontalParams,
        method: HorizontalMethod,
    ) -> EraResult<ScheduleOutcome>;

    /// Total I/O performed since the scheduler was created, across every
    /// store it touches.
    fn total_io(&self, outcome: &ScheduleOutcome) -> IoSnapshot;

    /// Simulated time to distribute the input string to the workers
    /// (non-zero only for the shared-nothing scheduler).
    fn string_transfer(&self) -> Duration {
        Duration::ZERO
    }
}

/// The driver shared by every construction entry point: runs vertical
/// partitioning, hands the virtual trees to a [`GroupScheduler`], and
/// assembles the [`ConstructionReport`].
pub struct ConstructionPipeline<'a> {
    config: &'a EraConfig,
}

impl<'a> ConstructionPipeline<'a> {
    /// Creates a pipeline over a validated configuration.
    pub fn new(config: &'a EraConfig) -> Self {
        ConstructionPipeline { config }
    }

    /// Runs the full construction with the given scheduler.
    pub fn run(
        &self,
        scheduler: &dyn GroupScheduler,
    ) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
        self.config.validate()?;
        let master = scheduler.master_store();
        // Node ids, text positions and every persisted length are `u32`.
        if master.len() >= u32::MAX as usize {
            return Err(EraError::input(format!(
                "a text of {} symbols is too long: suffix trees index fewer than {} symbols",
                master.len(),
                u32::MAX
            )));
        }
        let layout = self.config.memory_layout(master.alphabet())?;
        let start_all = Instant::now();

        // --- Vertical partitioning (§4.1) always runs on the master: its cost
        // is low (§5) and it determines the work descriptors for every
        // scheduler. ---
        let t0 = Instant::now();
        let vertical = vertical_partition(master, layout.fm, self.config.group_virtual_trees)?;
        let vertical_time = t0.elapsed();

        // --- Horizontal partitioning (§4.2): the scheduler decides who runs
        // which group. ---
        let params = HorizontalParams {
            r_capacity: scheduler.worker_r_capacity(&layout),
            range_policy: self.config.range_policy,
            min_range: self.config.min_range,
            seek_optimization: self.config.seek_optimization,
        };
        let t1 = Instant::now();
        let outcome = scheduler.run_groups(
            &vertical.groups,
            cohort_len(params.r_capacity, layout.fm),
            &params,
            self.config.horizontal,
        )?;
        let horizontal_time = t1.elapsed();

        let io = scheduler.total_io(&outcome);
        let tree = PartitionedSuffixTree::from_flat(master.len(), outcome.partitions);
        let report = ConstructionReport {
            algorithm: scheduler.algorithm().to_string(),
            text_len: master.len(),
            memory_budget: self.config.memory_budget,
            fm: layout.fm,
            elapsed: start_all.elapsed(),
            vertical_time,
            horizontal_time,
            vertical_scans: vertical.scans,
            partitions: vertical.partition_count(),
            virtual_trees: vertical.group_count(),
            cohorts: outcome.cohorts,
            io,
            tree: tree.stats(),
            per_node: outcome.per_node,
            string_transfer: scheduler.string_transfer(),
        };
        Ok((tree, report))
    }
}

/// Builds the suffix tree of the string in `store`: serially (§4) for
/// `config.threads == 1`, with that many workers sharing the store (§5.1)
/// otherwise.
pub fn construct(
    store: &dyn StringStore,
    config: &EraConfig,
) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
    let pipeline = ConstructionPipeline::new(config);
    if config.threads > 1 {
        pipeline.run(&SharedMemoryScheduler::new(store, config.threads))
    } else {
        pipeline.run(&SerialScheduler::new(store))
    }
}

/// Builds the suffix tree on a simulated shared-nothing cluster (§5.2).
///
/// `node_stores` holds one private store per node, all containing the *same*
/// string. Vertical partitioning runs on node 0 (the master); the groups are
/// then assigned to nodes in round-robin order of decreasing size, which is
/// the "divide equally" strategy of the paper with a simple load-balancing
/// refinement.
pub fn construct_shared_nothing<S: StringStore>(
    node_stores: &[S],
    config: &EraConfig,
    options: &SharedNothingOptions,
) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
    let scheduler = SharedNothingScheduler::new(node_stores, *options)?;
    ConstructionPipeline::new(config).run(&scheduler)
}

// ---------------------------------------------------------------------------
// Serial scheduler (§4)
// ---------------------------------------------------------------------------

/// Runs every virtual tree on the calling thread against one store.
pub struct SerialScheduler<'a> {
    store: &'a dyn StringStore,
    io_start: IoSnapshot,
}

impl<'a> SerialScheduler<'a> {
    /// Creates the scheduler, capturing the I/O baseline.
    pub fn new(store: &'a dyn StringStore) -> Self {
        SerialScheduler { io_start: store.stats().snapshot(), store }
    }
}

impl GroupScheduler for SerialScheduler<'_> {
    fn master_store(&self) -> &dyn StringStore {
        self.store
    }

    fn algorithm(&self) -> &'static str {
        "era"
    }

    fn run_groups(
        &self,
        groups: &[VirtualTree],
        cohort_len: usize,
        params: &HorizontalParams,
        method: HorizontalMethod,
    ) -> EraResult<ScheduleOutcome> {
        let mut outcome = ScheduleOutcome::default();
        for cohort in groups.chunks(cohort_len) {
            outcome.partitions.extend(build_cohort(self.store, cohort, params, method)?);
            outcome.cohorts += 1;
        }
        Ok(outcome)
    }

    fn total_io(&self, _outcome: &ScheduleOutcome) -> IoSnapshot {
        self.store.stats().snapshot().since(&self.io_start)
    }
}

// ---------------------------------------------------------------------------
// Shared-memory scheduler (§5.1)
// ---------------------------------------------------------------------------

/// Distributes the virtual trees over a pool of worker threads that all read
/// the *same* store (same disk, same memory bus) — the paper's multicore
/// variant. There is no merge phase; the only scalability limits are the
/// shared I/O path and memory bus, exactly as discussed for Figure 12.
pub struct SharedMemoryScheduler<'a> {
    store: &'a dyn StringStore,
    threads: usize,
    io_start: IoSnapshot,
}

impl<'a> SharedMemoryScheduler<'a> {
    /// Creates a scheduler with `threads` workers (min 1) over one store.
    pub fn new(store: &'a dyn StringStore, threads: usize) -> Self {
        SharedMemoryScheduler { io_start: store.stats().snapshot(), store, threads: threads.max(1) }
    }
}

impl GroupScheduler for SharedMemoryScheduler<'_> {
    fn master_store(&self) -> &dyn StringStore {
        self.store
    }

    fn algorithm(&self) -> &'static str {
        if self.threads > 1 {
            "era-parallel-sm"
        } else {
            "era"
        }
    }

    /// Each worker gets (memory / threads), mirroring the experimental setup
    /// of Figure 12 where the machine's RAM is divided equally among cores.
    fn worker_r_capacity(&self, layout: &MemoryLayout) -> usize {
        (layout.r_bytes / self.threads).max(1024)
    }

    fn run_groups(
        &self,
        groups: &[VirtualTree],
        cohort_len: usize,
        params: &HorizontalParams,
        method: HorizontalMethod,
    ) -> EraResult<ScheduleOutcome> {
        // Few groups are not bundled into fewer cohorts than there are
        // workers. Cohort `w` is reserved for worker `w`, the rest is a
        // dynamic work queue: every worker is guaranteed one cohort (when
        // enough exist) even if another worker spawns first and pulls fast,
        // and load still balances across unevenly sized virtual trees.
        let cohort_len = cohort_len.min(groups.len().div_ceil(self.threads)).max(1);
        let cohorts: Vec<&[VirtualTree]> = groups.chunks(cohort_len).collect();
        let next_cohort = AtomicUsize::new(self.threads);
        let results: Vec<EraResult<WorkerOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|worker| {
                    let (cohorts, next_cohort) = (&cohorts, &next_cohort);
                    let store = self.store;
                    scope.spawn(move || {
                        let worker_start = Instant::now();
                        let mut built: Vec<FlatPartition> = Vec::new();
                        let mut report = NodeReport { node: worker, ..NodeReport::default() };
                        let mut idx = worker;
                        while let Some(cohort) = cohorts.get(idx) {
                            built.extend(build_cohort(store, cohort, params, method)?);
                            report.cohorts += 1;
                            report.virtual_trees += cohort.len();
                            idx = next_cohort.fetch_add(1, Ordering::Relaxed);
                        }
                        report.partitions = built.len();
                        report.elapsed = worker_start.elapsed();
                        Ok((built, report))
                    })
                })
                .collect();
            #[expect(clippy::expect_used, reason = "a panicked worker is unrecoverable")]
            handles.into_iter().map(|h| h.join().expect("worker thread must not panic")).collect()
        });
        ScheduleOutcome::from_workers(results)
    }

    fn total_io(&self, _outcome: &ScheduleOutcome) -> IoSnapshot {
        self.store.stats().snapshot().since(&self.io_start)
    }
}

// ---------------------------------------------------------------------------
// Shared-nothing scheduler (§5.2)
// ---------------------------------------------------------------------------

/// Options specific to the shared-nothing simulation. Nodes run on scoped
/// threads whenever there are two or more; each reads its own private store,
/// so its I/O counters do not depend on that concurrency. Per-node times are
/// wall-clock; the makespan is their maximum.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedNothingOptions {
    /// Simulated broadcast bandwidth in bytes per second (the paper measures
    /// ~2.3 min to push the human genome through a slow switch). `None`
    /// disables the transfer-time model.
    pub transfer_bandwidth: Option<f64>,
}

/// Runs each virtual tree on a simulated cluster node with its *private* copy
/// of the string (own disk, own I/O counters). Groups are assigned with the
/// longest-processing-time heuristic — largest group first, always to the
/// least-loaded node — the paper's "divide equally" strategy with a simple
/// load-balancing refinement. There is no merge phase: the partitions built
/// on every node concatenate directly into the final tree.
pub struct SharedNothingScheduler<'a> {
    node_stores: Vec<&'a dyn StringStore>,
    options: SharedNothingOptions,
    io_starts: Vec<IoSnapshot>,
}

impl<'a> SharedNothingScheduler<'a> {
    /// Creates the scheduler over one private store per node, capturing every
    /// node's I/O baseline. Fails when no stores are given or the stores hold
    /// strings of different lengths.
    pub fn new<S: StringStore>(
        node_stores: &'a [S],
        options: SharedNothingOptions,
    ) -> EraResult<Self> {
        if node_stores.is_empty() {
            return Err(EraError::config("need at least one node store"));
        }
        let text_len = node_stores[0].len();
        if node_stores.iter().any(|s| s.len() != text_len) {
            return Err(EraError::config("every node must hold the same string"));
        }
        let node_stores: Vec<&dyn StringStore> =
            node_stores.iter().map(|s| s as &dyn StringStore).collect();
        let io_starts = node_stores.iter().map(|s| s.stats().snapshot()).collect();
        Ok(SharedNothingScheduler { node_stores, options, io_starts })
    }

    /// Longest-processing-time assignment of groups to nodes.
    fn assign(&self, groups: &[VirtualTree]) -> Vec<Vec<VirtualTree>> {
        let nodes = self.node_stores.len();
        let mut order: Vec<&VirtualTree> = groups.iter().collect();
        order.sort_by_key(|g| std::cmp::Reverse(g.total_frequency()));
        let mut assignments: Vec<Vec<VirtualTree>> = vec![Vec::new(); nodes];
        let mut load = vec![0u64; nodes];
        for group in order {
            #[expect(clippy::expect_used, reason = "node count is validated positive")]
            let target = (0..nodes).min_by_key(|&n| load[n]).expect("at least one node");
            load[target] += group.total_frequency().max(1);
            assignments[target].push(group.clone());
        }
        assignments
    }
}

impl GroupScheduler for SharedNothingScheduler<'_> {
    fn master_store(&self) -> &dyn StringStore {
        self.node_stores[0]
    }

    fn algorithm(&self) -> &'static str {
        "era-shared-nothing"
    }

    fn run_groups(
        &self,
        groups: &[VirtualTree],
        cohort_len: usize,
        params: &HorizontalParams,
        method: HorizontalMethod,
    ) -> EraResult<ScheduleOutcome> {
        let nodes = self.node_stores.len();
        let assignments = self.assign(groups);

        let run_node = |node: usize| -> EraResult<WorkerOutput> {
            let node_start = Instant::now();
            let store = self.node_stores[node];
            let mut built = Vec::new();
            let mut cohorts = 0usize;
            for cohort in assignments[node].chunks(cohort_len) {
                built.extend(build_cohort(store, cohort, params, method)?);
                cohorts += 1;
            }
            let report = NodeReport {
                node,
                virtual_trees: assignments[node].len(),
                cohorts,
                partitions: built.len(),
                elapsed: node_start.elapsed(),
                io: store.stats().snapshot().since(&self.io_starts[node]),
            };
            Ok((built, report))
        };

        let results: Vec<EraResult<WorkerOutput>> = if nodes > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..nodes).map(|node| scope.spawn(move || run_node(node))).collect();
                #[expect(clippy::expect_used, reason = "a panicked worker is unrecoverable")]
                handles.into_iter().map(|h| h.join().expect("node thread must not panic")).collect()
            })
        } else {
            (0..nodes).map(run_node).collect()
        };
        ScheduleOutcome::from_workers(results)
    }

    /// Aggregates I/O over every node: the master baseline alone would only
    /// cover node 0.
    fn total_io(&self, outcome: &ScheduleOutcome) -> IoSnapshot {
        outcome.per_node.iter().fold(IoSnapshot::default(), |acc, n| acc.merged(&n.io))
    }

    fn string_transfer(&self) -> Duration {
        match self.options.transfer_bandwidth {
            Some(bw) if bw > 0.0 => Duration::from_secs_f64(self.master_store().len() as f64 / bw),
            _ => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_string_store::{Alphabet, InMemoryStore, IoStats, ReadCursor, StoreResult};
    use era_suffix_tree::validate_partitioned;

    fn config() -> EraConfig {
        EraConfig {
            memory_budget: 8 << 10,
            r_buffer_size: Some(512),
            input_buffer_size: 64,
            trie_area: 64,
            ..EraConfig::default()
        }
    }

    #[test]
    fn all_three_schedulers_build_the_same_tree() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCAGATTACA";
        let text: Vec<u8> = {
            let mut t = body.to_vec();
            t.push(0);
            t
        };
        let cfg = config();
        let pipeline = ConstructionPipeline::new(&cfg);

        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let (serial_tree, serial_report) = pipeline.run(&SerialScheduler::new(&store)).unwrap();
        validate_partitioned(&serial_tree, &text).unwrap();
        assert_eq!(serial_report.algorithm, "era");
        assert!(serial_report.per_node.is_empty());

        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let (sm_tree, sm_report) = pipeline.run(&SharedMemoryScheduler::new(&store, 3)).unwrap();
        assert_eq!(sm_tree.lexicographic_suffixes(), serial_tree.lexicographic_suffixes());
        assert_eq!(sm_report.per_node.len(), 3);

        let stores: Vec<InMemoryStore> =
            (0..2).map(|_| InMemoryStore::from_body(body, Alphabet::dna()).unwrap()).collect();
        let scheduler =
            SharedNothingScheduler::new(&stores, SharedNothingOptions::default()).unwrap();
        let (sn_tree, sn_report) = pipeline.run(&scheduler).unwrap();
        assert_eq!(sn_tree.lexicographic_suffixes(), serial_tree.lexicographic_suffixes());
        assert_eq!(sn_report.per_node.len(), 2);
        assert_eq!(sn_report.algorithm, "era-shared-nothing");
    }

    #[test]
    fn scheduler_kind_resolves_from_threads() {
        let body = b"GATTACAGATTACAGGATCCGATTACATTTTACAGAGATTACCAGATTACA";
        let store = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let (serial_tree, serial) = construct(&store, &config()).unwrap();
        assert_eq!(serial.algorithm, "era");
        assert!(serial.per_node.is_empty());
        let (sm_tree, sm) = construct(&store, &EraConfig { threads: 4, ..config() }).unwrap();
        assert_eq!(sm.algorithm, "era-parallel-sm");
        assert_eq!(sm.per_node.len(), 4);
        assert_eq!(sm_tree, serial_tree);
    }

    #[test]
    fn shared_nothing_rejects_bad_store_sets() {
        let empty: Vec<InMemoryStore> = Vec::new();
        assert!(SharedNothingScheduler::new(&empty, SharedNothingOptions::default()).is_err());
        let a = InMemoryStore::from_body(b"GATTACA", Alphabet::dna()).unwrap();
        let b = InMemoryStore::from_body(b"GATTACAGATTACA", Alphabet::dna()).unwrap();
        let stores = vec![a, b];
        assert!(SharedNothingScheduler::new(&stores, SharedNothingOptions::default()).is_err());
    }

    /// A store that claims `len` symbols and holds none.
    struct ClaimedLength {
        len: usize,
        alphabet: Alphabet,
        stats: IoStats,
    }

    impl StringStore for ClaimedLength {
        fn len(&self) -> usize {
            self.len
        }
        fn alphabet(&self) -> &Alphabet {
            &self.alphabet
        }
        fn block_size(&self) -> usize {
            1 << 16
        }
        fn stats(&self) -> &IoStats {
            &self.stats
        }
        fn read_at_with(
            &self,
            pos: usize,
            _buf: &mut [u8],
            _cursor: &ReadCursor,
        ) -> StoreResult<usize> {
            panic!("read at {pos}: a text this long must be refused before it is read")
        }
    }

    #[test]
    fn texts_of_u32_max_symbols_or_more_are_refused() {
        for len in [u32::MAX as usize, 1 << 32] {
            let store = ClaimedLength { len, alphabet: Alphabet::dna(), stats: IoStats::new() };
            for threads in [1, 2] {
                let err = construct(&store, &EraConfig { threads, ..config() }).unwrap_err();
                assert!(
                    matches!(err, EraError::Input(_)),
                    "{len} symbols, {threads} threads: {err}"
                );
            }
        }
    }
}
