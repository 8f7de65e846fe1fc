//! The prefix-sharing enumeration engine: one shared execution tree
//! instead of `2^{k·t}` independent re-simulations.
//!
//! [`probability::exact`](crate::probability::exact) asks how many of the
//! `2^{k·t}` equiprobable realizations (Lemma B.1) solve a task. The
//! leaf-by-leaf path re-runs all `t` rounds of knowledge construction per
//! realization even though realizations sharing a round prefix share the
//! whole execution prefix. This module walks the **execution tree**
//! instead: nodes at depth `s` are the `2^{k·s}` round-`s` knowledge
//! vectors, children are the `2^k` per-round source-bit extensions
//! (tree order — [`Realization::from_tree_index`]), and the DFS carries
//! the time-`s` knowledge-id vector as its state. Each tree node costs
//! *one* round of interning, so the total round-work over a full
//! traversal is `Σ_{s≤t} 2^{k·s} = 2^{k·t}·(1 + 1/(2^k − 1))` versus
//! `t·2^{k·t}` — and a whole `p(1..t_max)` series falls out of a single
//! traversal by tallying solved nodes at every depth.
//!
//! Two further structural savings ride on the tree:
//!
//! * **Partition-signature memoization** ([`SolvabilityMemo`]): the
//!   verdict of [`solves_execution`](crate::solvability::solves_execution)
//!   depends only on the *consistency partition* of the knowledge vector,
//!   and there are at most Bell(`n`) partitions of `[n]` — so the verdict
//!   computes once per distinct partition, not once per node. The
//!   computation itself is allocation-free: the task's closed-form
//!   [`Task::solves_partition`] when it has one, else a scan of the
//!   dense [`FacetTable`] the run-owned [`TaskKernel`] carries (built
//!   once per `(task, n)` by streaming `Task::facet_stream` — the output
//!   complex is never materialized, let alone per node).
//! * **Monotone subtree pruning**: extending an execution only refines
//!   its consistency partition (equal round-`t` knowledge forces equal
//!   round-`t − 1` knowledge), and a facet monochromatic on a partition
//!   is monochromatic on every refinement. Hence a solving node's entire
//!   subtree solves, and the DFS tallies it wholesale (`2^{k·(d−s)}`
//!   descendants per deeper depth `d`) without descending — the counts
//!   are *exactly* those of the exhaustive walk, for every task.
//!
//! This engine is now the **reference path**, and the production exact
//! path walks it only as the `k >` [`crate::engine_dp::MAX_DP_K`]
//! fallback: the production exact dispatch runs through the quotient
//! engine ([`crate::engine_dp`]),
//! which walks the same tree *up to knowledge-equality state* — per-round
//! cost `O(states · 2^k)` instead of `O(2^{k·r})` — and is asserted
//! bit-identical to these tallies across this engine's reachable range.
//! The tallies here stay `u64` deliberately: with the enforced
//! `k·t_max ≤ 62` every `1u64 << (k·d)` shift is in range (the 62-bit
//! edge is pinned by test), and widening the reference would cost the
//! before/after comparability of the `exp_perf_*` benches. The quotient
//! engine carries `u128` counts and moves the integer-exact wall to
//! `k·t ≤ 126`.

use rsbt_complex::FacetTable;
use rsbt_random::{Assignment, BitString, Realization};
use rsbt_sim::{FaultSchedule, FxHashMap, KnowledgeArena, KnowledgeId, Model, RoundStepper};
use rsbt_tasks::Task;

use crate::output_cache::build_output_table;
use crate::solvability;

/// Everything a traversal needs to decide solvability for one
/// `(task, n)` pair: the task (for its closed-form
/// [`Task::solves_partition`]) and, for tasks without one, the dense
/// [`FacetTable`] of its output complex (the fallback scan). Built once
/// per run — never per tree node — and assembled from borrowed parts, so
/// parallel workers share one table. Tasks
/// with a closed form carry no table at all
/// ([`TaskKernel::closed_form_only`]): the output complex is never
/// materialized in any form for them.
#[derive(Debug)]
pub struct TaskKernel<'a, T: Task + ?Sized> {
    task: &'a T,
    table: Option<&'a FacetTable>,
}

impl<'a, T: Task + ?Sized> TaskKernel<'a, T> {
    /// Assembles a kernel from a task and its (already built) dense
    /// output table.
    pub fn new(task: &'a T, table: &'a FacetTable) -> Self {
        TaskKernel {
            task,
            table: Some(table),
        }
    }

    /// A kernel for a task whose [`Task::solves_partition`] always
    /// answers — no fallback table is carried.
    pub fn closed_form_only(task: &'a T) -> Self {
        TaskKernel { task, table: None }
    }

    /// The dense output table the fallback scan runs over, if one was
    /// attached.
    pub fn table(&self) -> Option<&FacetTable> {
        self.table
    }
}

// Manual impls: `derive` would bound `T: Clone`/`T: Copy`.
impl<T: Task + ?Sized> Clone for TaskKernel<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Task + ?Sized> Copy for TaskKernel<'_, T> {}

/// Memoized solvability verdicts, keyed by the canonical consistency
/// partition (first-occurrence class labels of the knowledge-id vector).
///
/// Verdicts are a pure function of `(partition, output complex)`: the
/// memo must not be reused across tasks or system sizes. Lookups on the
/// hit path are allocation-free (the label buffer is reused and hashed as
/// a borrowed slice) — and so are misses: the verdict comes from the
/// task's closed-form [`Task::solves_partition`] when it has one, else
/// from a scan of the kernel's dense [`FacetTable`] (`O(1)` lookups, one
/// `u32` compare per cell; the only allocation is the memo insertion
/// itself, once per distinct partition).
#[derive(Clone, Debug, Default)]
pub struct SolvabilityMemo {
    verdicts: FxHashMap<Vec<u8>, bool>,
    /// Scratch: canonical class label per node.
    labels: Vec<u8>,
    /// Scratch: the distinct ids, in first-appearance order.
    seen: Vec<KnowledgeId>,
    /// Scratch: the representative (first) node of each class.
    reps: Vec<usize>,
    memo_hits: u64,
    closed_form_verdicts: u64,
    dense_scan_verdicts: u64,
}

impl SolvabilityMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        SolvabilityMemo::default()
    }

    /// The number of distinct partitions whose verdict has been computed
    /// (bounded by Bell(`n`)).
    pub fn entries(&self) -> usize {
        self.verdicts.len()
    }

    /// How many queries were answered from the partition memo.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// How many verdicts came from the task's closed form
    /// ([`Task::solves_partition`]).
    pub fn closed_form_verdicts(&self) -> u64 {
        self.closed_form_verdicts
    }

    /// How many verdicts fell back to the dense facet scan.
    pub fn dense_scan_verdicts(&self) -> u64 {
        self.dense_scan_verdicts
    }

    /// Whether a knowledge vector solves the kernel's task — the
    /// criterion of
    /// [`solves_execution`](crate::solvability::solves_execution) (some
    /// facet monochromatic on every consistency class), memoized on the
    /// partition signature. Misses dispatch to the closed form first and
    /// the dense scan otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() > 255`.
    pub fn solves<T: Task + ?Sized>(
        &mut self,
        ids: &[KnowledgeId],
        kernel: &TaskKernel<'_, T>,
    ) -> bool {
        assert!(ids.len() <= u8::MAX as usize, "too many nodes for labels");
        self.labels.clear();
        self.seen.clear();
        self.reps.clear();
        for (i, &id) in ids.iter().enumerate() {
            match self.seen.iter().position(|&s| s == id) {
                Some(class) => self.labels.push(class as u8),
                None => {
                    self.labels.push(self.seen.len() as u8);
                    self.seen.push(id);
                    self.reps.push(i);
                }
            }
        }
        self.verdict_for_scratch(kernel)
    }

    /// [`SolvabilityMemo::solves`] on a consistency partition given
    /// directly as canonical first-occurrence class labels — the entry
    /// point of the quotient engine ([`crate::engine_dp`]), which tracks
    /// equality *states* and never synthesizes knowledge ids. The class
    /// representatives the dense fallback scan needs are derived from the
    /// labels themselves (the first node of each class), so tasks without
    /// a closed form answer through the same [`TaskKernel`] table as the
    /// id path. Verdicts land in the same memo as [`SolvabilityMemo::solves`]
    /// — the two entry points share every cached partition.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() > 255` or if `labels` is not canonical
    /// (class `c`'s first occurrence must come after class `c − 1`'s).
    pub fn solves_labels<T: Task + ?Sized>(
        &mut self,
        labels: &[u8],
        kernel: &TaskKernel<'_, T>,
    ) -> bool {
        assert!(
            labels.len() <= u8::MAX as usize,
            "too many nodes for labels"
        );
        self.labels.clear();
        self.labels.extend_from_slice(labels);
        self.reps.clear();
        for (i, &c) in labels.iter().enumerate() {
            let c = c as usize;
            if c == self.reps.len() {
                self.reps.push(i);
            } else {
                assert!(c < self.reps.len(), "labels not in first-occurrence form");
            }
        }
        self.verdict_for_scratch(kernel)
    }

    /// The shared memo/closed-form/dense-scan tail: answers for the
    /// canonical partition currently held in the `labels`/`reps` scratch.
    fn verdict_for_scratch<T: Task + ?Sized>(&mut self, kernel: &TaskKernel<'_, T>) -> bool {
        if let Some(&verdict) = self.verdicts.get(self.labels.as_slice()) {
            self.memo_hits += 1;
            return verdict;
        }
        let verdict = match kernel.task.solves_partition(&self.labels) {
            Some(v) => {
                self.closed_form_verdicts += 1;
                v
            }
            None => {
                self.dense_scan_verdicts += 1;
                let table = kernel
                    .table
                    .expect("tasks without a closed form carry a dense table");
                solvability::facet_scan(table, &self.labels, &self.reps)
            }
        };
        self.verdicts.insert(self.labels.clone(), verdict);
        verdict
    }
}

/// Per-depth solved-node tallies from one shared traversal:
/// `counts[d − 1]` is the number of depth-`d` tree nodes (equivalently,
/// time-`d` realizations) that solve `task`, for `d ∈ 1..=t_max` — i.e.
/// `p(d) = counts[d − 1] / 2^{k·d}` for the whole series at once. Also
/// returns the traversal's [`SolvabilityMemo`], whose counters say how
/// the verdicts were decided (memo hits, closed form, dense scan).
///
/// `faults = Some(schedule)` enumerates every realization against the
/// same **fixed** silence pattern (a node silent in round `r` contributes
/// nothing to that round's board or messages — the semantics of
/// [`Execution::run_with_faults`](rsbt_sim::Execution::run_with_faults));
/// `None` is the schedule that is never silent. Only fixed schedules are
/// enumerable: a *random* fault model would break Lemma B.1's
/// equiprobability (realizations would carry fault-pattern weights), so
/// [`FaultSpec`](rsbt_sim::FaultSpec) rates are Monte-Carlo-only.
///
/// The monotone subtree pruning survives faults unchanged: each round
/// node embeds the node's own previous knowledge, so equal time-`t`
/// knowledge still forces equal time-`t − 1` knowledge — the consistency
/// partition only refines over time, faulted or not, and a solving
/// node's subtree solves wholesale. (What does *not* survive crashes is
/// the zero-one *interpretation*: a crashed node's class may "decide" in
/// the partition sense while the operational runner reports it as
/// `None`. See `DESIGN.md` §4.9.)
///
/// # Panics
///
/// Panics if `k·t_max > 62`, on a model/assignment node mismatch, or on a
/// schedule/assignment node-count mismatch.
pub fn solved_counts<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    faults: Option<&FaultSchedule>,
) -> (Vec<u64>, SolvabilityMemo) {
    let (k, n) = (alpha.k(), alpha.n());
    assert!(k * t_max <= 62, "2^(k*t) enumeration too large");
    if let Some(p) = model.ports() {
        assert_eq!(p.n(), n, "model/assignment node mismatch");
    }
    if let Some(f) = faults {
        assert_eq!(
            f.n(),
            n,
            "fault schedule is for {} nodes, assignment for {n}",
            f.n()
        );
    }
    let table = fallback_table(task, n);
    let kernel = match table.as_ref() {
        Some(table) => TaskKernel::new(task, table),
        None => TaskKernel::closed_form_only(task),
    };
    let mut walker = TreeWalker {
        stepper: RoundStepper::new(model, n),
        arena: KnowledgeArena::new(),
        memo: SolvabilityMemo::new(),
        kernel: &kernel,
        alpha,
        t_max,
        faults,
        counts: vec![0u64; t_max],
    };
    if t_max == 0 {
        return (walker.counts, walker.memo);
    }
    // levels[d] holds the knowledge-id vector of the current depth-d node.
    let mut levels: Vec<Vec<KnowledgeId>> = (0..=t_max).map(|_| Vec::with_capacity(n)).collect();
    levels[0] = (0..n).map(|_| walker.arena.initial(None)).collect();
    // The root (depth 0, all `⊥`) is not tallied (the series starts at
    // t = 1), but if it solves, monotonicity covers the entire tree.
    if walker.memo.solves(&levels[0], &kernel) {
        walker.tally_subtree(0);
    } else {
        walker.dfs(0, &mut levels);
    }
    (walker.counts, walker.memo)
}

/// Builds the dense output table only when `task` has no closed-form
/// verdict (probed on one partition — the trait contract makes
/// `solves_partition` uniformly `Some`/`None` per `(task, n)`). The probe
/// uses the all-one-class partition, so it panics exactly where
/// `output_complex(n)` would on an undefined `n`.
pub fn fallback_table<T: Task + ?Sized>(task: &T, n: usize) -> Option<FacetTable> {
    if task.solves_partition(&vec![0u8; n]).is_some() {
        None
    } else {
        Some(build_output_table(task, n))
    }
}

/// The DFS state of one traversal.
struct TreeWalker<'a, T: Task + ?Sized> {
    stepper: RoundStepper,
    arena: KnowledgeArena,
    memo: SolvabilityMemo,
    kernel: &'a TaskKernel<'a, T>,
    alpha: &'a Assignment,
    t_max: usize,
    /// The fixed silence pattern, consulted at tree depth = the 1-based
    /// round (`None`: never silent).
    faults: Option<&'a FaultSchedule>,
    counts: Vec<u64>,
}

impl<T: Task + ?Sized> TreeWalker<'_, T> {
    /// Tallies every descendant of a solving depth-`depth` node
    /// (`2^{k·(d − depth)}` per deeper depth `d`) without descending.
    fn tally_subtree(&mut self, depth: usize) {
        for d in depth + 1..=self.t_max {
            self.counts[d - 1] += 1u64 << (self.alpha.k() * (d - depth));
        }
    }

    /// Expands the node whose knowledge vector is `levels[0]` (at `depth`,
    /// known not to solve): steps each of the `2^k` children into
    /// `levels[1]`, tallies, prunes solving subtrees, recurses otherwise.
    fn dfs(&mut self, depth: usize, levels: &mut [Vec<KnowledgeId>]) {
        let (cur, rest) = levels.split_first_mut().expect("level buffers cover t_max");
        let child_depth = depth + 1;
        let (alpha, faults) = (self.alpha, self.faults);
        for digit in 0..1u64 << alpha.k() {
            self.stepper.step_faulted(
                &mut self.arena,
                cur,
                |i| digit >> alpha.source_of(i) & 1 == 1,
                |m| faults.is_some_and(|f| f.is_silent(m, child_depth)),
                &mut rest[0],
            );
            if self.memo.solves(&rest[0], self.kernel) {
                self.counts[child_depth - 1] += 1;
                self.tally_subtree(child_depth);
            } else if child_depth < self.t_max {
                self.dfs(child_depth, rest);
            }
        }
    }
}

/// Visits every leaf of the execution tree in DFS order, yielding the
/// leaf's tree index and its realization — built from the DFS path
/// itself, not from the index, so this is the ground truth that the
/// engine's traversal order equals
/// [`Realization::enumerate_consistent`]'s (asserted by property test).
///
/// Diagnostic/test surface: the counting traversal ([`solved_counts`])
/// prunes solved subtrees and never materializes realizations.
///
/// # Panics
///
/// Panics if `k·t > 62`.
pub fn visit_leaves<F>(alpha: &Assignment, t: usize, mut f: F)
where
    F: FnMut(u64, &Realization),
{
    assert!(alpha.k() * t <= 62, "2^(k*t) enumeration too large");
    let mut source_bits: Vec<Vec<bool>> = vec![Vec::with_capacity(t); alpha.k()];
    let mut next_index = 0u64;
    visit_rec(alpha, t, &mut source_bits, &mut next_index, &mut f);
}

fn visit_rec<F>(
    alpha: &Assignment,
    t: usize,
    source_bits: &mut Vec<Vec<bool>>,
    next_index: &mut u64,
    f: &mut F,
) where
    F: FnMut(u64, &Realization),
{
    let depth = source_bits[0].len();
    if depth == t {
        let strings: Vec<BitString> = (0..alpha.n())
            .map(|i| BitString::from_bits(source_bits[alpha.source_of(i)].iter().copied()))
            .collect();
        let rho = Realization::new(strings).expect("uniform length");
        f(*next_index, &rho);
        *next_index += 1;
        return;
    }
    for digit in 0..1u64 << alpha.k() {
        for (s, bits) in source_bits.iter_mut().enumerate() {
            bits.push(digit >> s & 1 == 1);
        }
        visit_rec(alpha, t, source_bits, next_index, f);
        for bits in source_bits.iter_mut() {
            bits.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvability;
    use rsbt_tasks::{KLeaderElection, LeaderElection, Task};

    #[test]
    fn leaf_order_matches_enumerate_consistent() {
        // The DFS engine visits exactly 2^{kt} leaves, in the same index
        // order as the enumerator, for every profile n ≤ 4, t ≤ 3.
        for n in 1..=4usize {
            for alpha in Assignment::iter_profiles(n) {
                for t in 0..=3usize {
                    let expected: Vec<Realization> =
                        Realization::enumerate_consistent(&alpha, t).collect();
                    let mut visited = Vec::new();
                    visit_leaves(&alpha, t, |index, rho| visited.push((index, rho.clone())));
                    assert_eq!(visited.len(), 1usize << (alpha.k() * t));
                    for (pos, (index, rho)) in visited.iter().enumerate() {
                        assert_eq!(*index, pos as u64, "{alpha} t={t}");
                        assert_eq!(rho, &expected[pos], "{alpha} t={t} leaf {pos}");
                    }
                }
            }
        }
    }

    #[test]
    fn memo_never_changes_a_verdict() {
        // The partition-signature memo (closed form + dense scan) must
        // agree with the PR 3 reference facet search on every realization,
        // in both models, even when verdicts replay from the memo in
        // arbitrary interleavings.
        for n in 1..=4usize {
            let models = [Model::Blackboard, Model::message_passing_cyclic(n)];
            for model in models {
                for task in [
                    Box::new(LeaderElection) as Box<dyn Task>,
                    Box::new(KLeaderElection::new(2.min(n))),
                ] {
                    let table = build_output_table(task.as_ref(), n);
                    let kernel = TaskKernel::new(task.as_ref(), &table);
                    let mut memo = SolvabilityMemo::new();
                    let mut arena = KnowledgeArena::new();
                    for t in 0..=2usize {
                        for rho in Realization::enumerate_all(n, t) {
                            let exec = rsbt_sim::Execution::run(&model, &rho, &mut arena);
                            let direct =
                                solvability::solves_execution_reference(&exec, task.as_ref());
                            let memoized = memo.solves(exec.knowledge_at(t), &kernel);
                            assert_eq!(direct, memoized, "{model} n={n} t={t} {rho}");
                        }
                    }
                    assert!(memo.entries() > 0);
                    // Built-ins answer in closed form; the dense scan
                    // never runs for them.
                    assert_eq!(memo.closed_form_verdicts(), memo.entries() as u64);
                    assert_eq!(memo.dense_scan_verdicts(), 0);
                    assert!(memo.memo_hits() > 0);
                }
            }
        }
    }

    /// A task with no closed form, to pin the dense-scan fallback.
    struct OpaqueLeaderElection;

    impl Task for OpaqueLeaderElection {
        fn name(&self) -> std::borrow::Cow<'static, str> {
            std::borrow::Cow::Borrowed("opaque-leader-election")
        }

        fn output_complex(&self, n: usize) -> rsbt_complex::Complex<u64> {
            LeaderElection.output_complex(n)
        }
    }

    #[test]
    fn fallback_table_built_only_without_closed_form() {
        // Built-ins answer in closed form → no table, no output-complex
        // materialization anywhere on the engine path.
        assert!(fallback_table(&LeaderElection, 4).is_none());
        assert!(fallback_table(&KLeaderElection::new(2), 4).is_none());
        // Tasks without a closed form get the dense table.
        assert!(fallback_table(&OpaqueLeaderElection, 4).is_some());
    }

    #[test]
    fn dense_scan_fallback_matches_closed_form() {
        // The same output complex through solves_partition (LeaderElection)
        // and through the dense fallback (OpaqueLeaderElection) must tally
        // identically, and the opaque task must actually hit the scan.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let (counts_closed, _) =
            solved_counts(&Model::Blackboard, &LeaderElection, &alpha, 3, None);
        let (counts_scanned, memo) =
            solved_counts(&Model::Blackboard, &OpaqueLeaderElection, &alpha, 3, None);
        assert_eq!(counts_closed, counts_scanned);
        assert!(memo.dense_scan_verdicts() > 0);
        assert_eq!(memo.closed_form_verdicts(), 0);
    }

    #[test]
    fn faulted_engine_matches_leaf_by_leaf_reference() {
        // The pruning traversal under a fixed schedule must tally exactly
        // what a leaf-by-leaf faulted re-simulation counts (pinning that
        // monotone pruning stays sound under faults: partitions still
        // only refine, because every round node embeds the node's own
        // previous knowledge — silent or not).
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let t_max = 3;
        let mut sched = FaultSchedule::empty(3, t_max);
        sched.set_omission(0, 2);
        sched.set_crash(2, 2);
        for model in [Model::Blackboard, Model::message_passing_cyclic(3)] {
            let (counts, _) = solved_counts(&model, &LeaderElection, &alpha, t_max, Some(&sched));
            let kernel = TaskKernel::closed_form_only(&LeaderElection);
            let mut memo = SolvabilityMemo::new();
            let mut arena = KnowledgeArena::new();
            for t in 1..=t_max {
                let mut solved = 0u64;
                for rho in Realization::enumerate_consistent(&alpha, t) {
                    let exec =
                        rsbt_sim::Execution::run_with_faults(&model, &rho, &sched, &mut arena);
                    if memo.solves(exec.knowledge_at(t), &kernel) {
                        solved += 1;
                    }
                }
                assert_eq!(counts[t - 1], solved, "{model} t={t}");
            }
        }
    }

    #[test]
    fn root_solving_covers_the_whole_tree() {
        // A single node solves leader election at time 0 already, so every
        // depth must tally full.
        let alpha = Assignment::private(1);
        let (counts, _) = solved_counts(&Model::Blackboard, &LeaderElection, &alpha, 4, None);
        assert_eq!(counts, vec![2, 4, 8, 16]);
    }

    #[test]
    fn u64_tallies_survive_the_62_bit_edge() {
        // k = 1, t = 62 sits exactly on this engine's k·t ≤ 62 wall: the
        // root-solving fill exercises `1u64 << (k·d)` at d = 62 — the
        // largest shift the assert admits — and the top count must be
        // exactly 2^62, not a wrapped residue. (The quotient engine's
        // 126-bit twin lives in `engine_dp`.)
        let alpha = Assignment::private(1);
        let (counts, _) = solved_counts(&Model::Blackboard, &LeaderElection, &alpha, 62, None);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[61], 1u64 << 62);
    }

    #[test]
    fn labels_entry_point_shares_the_memo() {
        // `solves_labels` must agree with `solves` on every realization's
        // partition and share the same memo entries (no double-computes).
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let task = LeaderElection;
        let kernel = TaskKernel::closed_form_only(&task);
        let mut via_ids = SolvabilityMemo::new();
        let mut via_labels = SolvabilityMemo::new();
        let mut arena = KnowledgeArena::new();
        for t in 0..=2usize {
            for rho in Realization::enumerate_consistent(&alpha, t) {
                let exec = rsbt_sim::Execution::run(&Model::Blackboard, &rho, &mut arena);
                let ids = exec.knowledge_at(t);
                let expected = via_ids.solves(ids, &kernel);
                // Canonicalize by hand, then ask the labels entry point.
                let mut labels = Vec::new();
                let mut seen: Vec<KnowledgeId> = Vec::new();
                for &id in ids {
                    match seen.iter().position(|&s| s == id) {
                        Some(c) => labels.push(c as u8),
                        None => {
                            labels.push(seen.len() as u8);
                            seen.push(id);
                        }
                    }
                }
                assert_eq!(
                    via_labels.solves_labels(&labels, &kernel),
                    expected,
                    "{rho}"
                );
            }
        }
        assert_eq!(via_ids.entries(), via_labels.entries());
        assert!(via_labels.memo_hits() > 0);
    }

    #[test]
    #[should_panic(expected = "labels not in first-occurrence form")]
    fn non_canonical_labels_rejected() {
        let mut memo = SolvabilityMemo::new();
        let kernel = TaskKernel::closed_form_only(&LeaderElection);
        // Class 1 appears before class 0 — not first-occurrence canonical.
        memo.solves_labels(&[1, 0], &kernel);
    }
}
