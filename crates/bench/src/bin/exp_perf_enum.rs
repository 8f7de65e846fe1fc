//! Experiment `perf_enum` — three generations of the exact path on a
//! fixed `exact_series` grid with `k·t ≥ 16`: the pre-engine leaf-by-leaf
//! reference, the prefix-sharing execution-tree engine (PR 3), and the
//! quotient DP engine over knowledge-equality states — plus a
//! before/after micro-benchmark of the interning index's hasher (SipHash
//! vs the vendored Fx) and an `exact-dp` sweep past the tree wall.
//!
//! The old path (`probability::exact_series_reference`, kept verbatim for
//! this comparison) pays `t` full rounds of knowledge construction per
//! realization and one facet search per leaf — `Σ_t t·2^{k·t}` rounds for
//! a series. The tree engine walks one shared execution tree (`Σ_s
//! 2^{k·s}` rounds for the *whole* series), memoizes solvability per
//! consistency partition, and prunes solved subtrees. The quotient engine
//! (`rsbt_core::engine_dp`, the production dispatch behind
//! `exact_series`) folds the tree into a DP over equality states —
//! `O(states · 2^k)` per round, flat in `t`. All three series are
//! asserted bit-identical in-process before any timing is reported; the
//! dedicated head-to-head on adversarial-for-pruning points lives in
//! `exp_perf_quotient`.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use rsbt_bench::{fmt_sizes, run_experiment, RowMode, SweepSpec, Table, TaskSpec};
use rsbt_core::{engine, probability};
use rsbt_random::{Assignment, Realization};
use rsbt_sim::{Execution, KnowledgeArena, KnowledgeId, KnowledgeNode, Model, NeighborInfo};
use rsbt_tasks::LeaderElection;

/// The fixed profile grid: `(group sizes, t_max)`, all with `k·t_max ≥ 16`
/// (the acceptance regime: deep enough that prefix sharing dominates).
const GRID: &[(&[usize], usize)] = &[(&[1, 2], 8), (&[2, 2], 8), (&[1, 3], 8), (&[1, 1, 2], 6)];

fn series_comparison(rep_table: &mut Table) -> (f64, f64) {
    let mut min_speedup = f64::INFINITY;
    let mut min_dp_speedup = f64::INFINITY;
    for &(sizes, t_max) in GRID {
        let alpha = Assignment::from_group_sizes(sizes).unwrap();
        let bits = alpha.k() * t_max;

        let start = Instant::now();
        let old = probability::exact_series_reference(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            t_max,
            &mut KnowledgeArena::new(),
        );
        let old_ms = start.elapsed().as_secs_f64() * 1e3;

        // The PR 3 tree engine, called directly (the public entry points
        // now dispatch to the quotient engine).
        let start = Instant::now();
        let (tree_counts, _) =
            engine::solved_counts(&Model::Blackboard, &LeaderElection, &alpha, t_max, None);
        let tree_ms = start.elapsed().as_secs_f64() * 1e3;
        let tree: Vec<f64> = tree_counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 / (1u128 << (alpha.k() * (i + 1))) as f64)
            .collect();

        // The quotient DP engine via the production dispatch.
        let start = Instant::now();
        let dp = probability::exact_series(&Model::Blackboard, &LeaderElection, &alpha, t_max);
        let dp_ms = start.elapsed().as_secs_f64() * 1e3;

        let bitwise = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let identical = bitwise(&old, &tree) && bitwise(&old, &dp);
        assert!(
            identical,
            "engines diverged on {sizes:?} t_max={t_max}: ref {old:?} tree {tree:?} dp {dp:?}"
        );
        let speedup = old_ms / tree_ms.max(1e-6);
        let dp_speedup = old_ms / dp_ms.max(1e-6);
        min_speedup = min_speedup.min(speedup);
        min_dp_speedup = min_dp_speedup.min(dp_speedup);
        rep_table.row(vec![
            fmt_sizes(sizes),
            alpha.k().to_string(),
            t_max.to_string(),
            bits.to_string(),
            format!("{old_ms:.2}"),
            format!("{tree_ms:.2}"),
            format!("{dp_ms:.2}"),
            format!("{speedup:.1}"),
            format!("{dp_speedup:.1}"),
            identical.to_string(),
        ]);
    }
    (min_speedup, min_dp_speedup)
}

/// Times `inserts + lookups` of realistic `KnowledgeNode` keys through a
/// map with the given hasher; returns elapsed milliseconds.
fn time_index<S>(corpus: &[KnowledgeNode], lookup_rounds: usize) -> f64
where
    S: std::hash::BuildHasher + Default,
{
    let start = Instant::now();
    // The whole point of this experiment is comparing hashers, so the
    // std map with an explicit `S` is deliberate: order never leaves
    // this function, only elapsed time does.
    let mut map: std::collections::HashMap<&KnowledgeNode, u32, S> = // rsbt-analyze: allow(RSBT-L001)
        std::collections::HashMap::with_hasher(S::default()); // rsbt-analyze: allow(RSBT-L001)
    for (i, node) in corpus.iter().enumerate() {
        map.insert(node, i as u32);
    }
    let mut found = 0u64;
    for _ in 0..lookup_rounds {
        for node in corpus {
            if map.contains_key(node) {
                found += 1;
            }
        }
    }
    black_box(found);
    start.elapsed().as_secs_f64() * 1e3
}

fn interning_bench(table: &mut Table) -> (f64, f64) {
    // A realistic id population: every final-round knowledge value of a
    // k = 2, t = 4 enumeration.
    let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
    let mut arena = KnowledgeArena::new();
    let mut ids: Vec<KnowledgeId> = Vec::new();
    for rho in Realization::enumerate_consistent(&alpha, 4) {
        let exec = Execution::run(&Model::Blackboard, &rho, &mut arena);
        ids.extend_from_slice(exec.knowledge_at(4));
    }
    ids.sort_unstable();
    ids.dedup();
    let corpus: Vec<KnowledgeNode> = (0..20_000usize)
        .map(|i| KnowledgeNode::Round {
            prev: ids[i % ids.len()],
            bit: i % 2 == 1,
            heard: NeighborInfo::Board(vec![ids[i * 7 % ids.len()], ids[i * 13 % ids.len()]]),
        })
        .collect();
    let lookup_rounds = 30;
    let ops = corpus.len() * (lookup_rounds + 1);
    let sip_ms = time_index::<std::collections::hash_map::RandomState>(&corpus, lookup_rounds);
    let fx_ms = time_index::<rsbt_sim::FxBuildHasher>(&corpus, lookup_rounds);
    for (label, ms) in [("SipHash (before)", sip_ms), ("Fx (after)", fx_ms)] {
        table.row(vec![
            label.to_string(),
            ops.to_string(),
            format!("{ms:.2}"),
            format!("{:.0}", ms * 1e6 / ops as f64),
        ]);
    }
    (sip_ms, fx_ms)
}

fn main() -> ExitCode {
    run_experiment(
        "perf_enum",
        "Prefix-sharing enumeration engine vs leaf-by-leaf reference",
        "DESIGN.md section 4.4 (execution tree); Lemma B.1 enumeration",
        |eng, rep| {
            let mut table = Table::new(vec![
                "sizes",
                "k",
                "t_max",
                "bits",
                "old_ms",
                "tree_ms",
                "dp_ms",
                "speedup",
                "dp_speedup",
                "identical",
            ]);
            let (min_speedup, min_dp_speedup) = series_comparison(&mut table);
            let section = rep.section("exact_series: reference vs tree engine vs quotient DP");
            section.table(table);
            section.note(
                "old path = exact_series_reference: t rounds of interning + one facet search \
                 per leaf, one enumeration per t (sum_t t*2^(kt) rounds per series)",
            );
            section.note(
                "tree = one shared execution-tree traversal per series: one round per tree \
                 node (sum_s 2^(ks)), solvability memoized per consistency partition, solved \
                 subtrees pruned wholesale; dp = the quotient engine over knowledge-equality \
                 states (production dispatch), O(states*2^k) per round, flat in t",
            );
            section.note(format!(
                "probabilities bit-identical across all three on every grid point; minimum \
                 speedup {min_speedup:.1}x (tree vs old), {min_dp_speedup:.1}x (dp vs old)"
            ));

            // Past the tree wall: exact-dp rows that no tree walk could
            // have produced (k*t up to 96 >> TREE_EXACT_BITS = 30), now
            // routine — and committed through the v2 schema's exact-dp
            // mode tag.
            let spec = SweepSpec::new()
                .task(TaskSpec::fixed(LeaderElection))
                .nodes(3..=4)
                .t_cap(48)
                .bit_budget(126)
                .filter(|alpha| alpha.k() == 2);
            let rows = eng.sweep(&spec);
            assert!(!rows.is_empty());
            assert!(
                rows.iter().all(|r| r.mode == RowMode::ExactDp
                    && r.k * r.series.len() > probability::TREE_EXACT_BITS),
                "beyond-the-wall rows must carry the exact-dp tag"
            );
            assert!(
                rows.iter().all(|r| r.is_monotone()),
                "exact series must be monotone"
            );
            let section = rep.section("beyond the tree wall: exact-dp series to k*t = 96");
            section.sweep("quotient-engine exact series (two-source profiles)", rows);
            section.note(format!(
                "every row has k*t > TREE_EXACT_BITS = {}: exact integer-ratio data in a \
                 regime the repository previously covered only by Monte-Carlo estimation \
                 (mode exact-dp; the u128 dyadic budget runs to k*t <= 126)",
                probability::TREE_EXACT_BITS
            ));

            let mut hasher_table = Table::new(vec!["hasher", "ops", "ms", "ns_per_op"]);
            let (sip_ms, fx_ms) = interning_bench(&mut hasher_table);
            let section = rep.section("interning index hasher: SipHash vs vendored Fx");
            section.table(hasher_table);
            section.note(format!(
                "KnowledgeNode insert+lookup through HashMap: Fx is {:.1}x the SipHash \
                 throughput on this corpus (the arena index now defaults to Fx)",
                sip_ms / fx_ms.max(1e-6)
            ));
        },
    )
}
