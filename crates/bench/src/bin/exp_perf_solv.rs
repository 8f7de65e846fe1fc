//! Experiment `perf_solv` — the solvability kernel three ways on
//! facet-heavy tasks: the pre-dense reference (`solves_execution_reference`,
//! which rebuilds the output complex and scans it with per-vertex
//! binary-search lookups on every call) versus the dense
//! [`FacetTable`](rsbt_complex::FacetTable) scan versus the closed-form
//! partition verdicts ([`Task::solves_partition`]).
//!
//! All three paths are asserted to agree on every sampled consistency
//! partition before any timing is reported, the `k·t = 16`
//! engine-vs-reference acceptance point is asserted bit-identical
//! in-process, and the engine's memo counters prove the closed-form path
//! is the one production actually exercises.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use rsbt_bench::{run_experiment, Table};
use rsbt_core::engine;
use rsbt_core::output_cache::{build_output_table, OutputComplexCache};
use rsbt_core::{probability, solvability};
use rsbt_random::{Assignment, BitString, Realization};
use rsbt_sim::{Execution, KnowledgeArena, Model};
use rsbt_tasks::{FacetStream, KLeaderElection, Task, WeakSymmetryBreaking};

/// Delegating wrapper that hides a task's closed form, so the production
/// path falls back to the dense facet scan (the middle rung we time).
struct ScanOnly<T: Task>(T);

impl<T: Task> Task for ScanOnly<T> {
    fn name(&self) -> std::borrow::Cow<'static, str> {
        std::borrow::Cow::Owned(format!("scan-only[{}]", self.0.name()))
    }

    fn output_complex(&self, n: usize) -> rsbt_complex::Complex<u64> {
        self.0.output_complex(n)
    }

    fn facet_stream(&self, n: usize) -> FacetStream<'_> {
        self.0.facet_stream(n)
    }
    // No `solves_partition` override: the default `None` forces the scan.
}

/// Deterministic partition workload for `n` nodes: forced edge cases
/// (one class, all singletons, balanced halves) plus LCG-generated label
/// vectors with varying class-count caps.
fn partitions(n: usize, count: usize) -> Vec<Vec<u8>> {
    let mut out = vec![
        vec![0u8; n],
        (0..n as u8).collect(),
        (0..n).map(|i| (i % 2) as u8).collect(),
        (0..n).map(|i| (i * 2 / n) as u8).collect(),
    ];
    let mut state = 0x5253_4254_u64; // "RSBT"
    while out.len() < count {
        let cap = 2 + (state >> 7) as usize % (n - 1);
        let labels: Vec<u8> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as usize % cap) as u8
            })
            .collect();
        out.push(labels);
    }
    out.truncate(count);
    out
}

/// Builds one blackboard execution per partition whose final-time
/// consistency partition is exactly the given label partition (nodes with
/// equal labels share a bit string, so they share knowledge; distinct
/// strings give distinct knowledge).
fn executions_for(partitions: &[Vec<u8>], arena: &mut KnowledgeArena) -> Vec<Execution> {
    partitions
        .iter()
        .map(|labels| {
            let strings: Vec<BitString> = labels
                .iter()
                .map(|&l| BitString::from_bits((0..4).map(|b| l >> b & 1 == 1)))
                .collect();
            let rho = Realization::new(strings).expect("uniform length");
            Execution::run(&Model::Blackboard, &rho, arena)
        })
        .collect()
}

/// Average per-verdict time in microseconds over `reps` passes of the
/// whole execution batch.
fn time_verdicts<F: FnMut(&Execution) -> bool>(
    execs: &[Execution],
    reps: usize,
    mut verdict: F,
) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        for exec in execs {
            black_box(verdict(exec));
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / (reps * execs.len()) as f64
}

fn verdict_comparison(table: &mut Table) -> (f64, f64) {
    // Facet-heavy grid, n ≥ 6 throughout: C(8,3) = 56, C(10,4) = 210,
    // 2^8 − 2 = 254, 2^10 − 2 = 1022 facets.
    let grid: Vec<(Box<dyn Task>, usize, usize)> = vec![
        (Box::new(KLeaderElection::new(3)), 8, 48),
        (Box::new(KLeaderElection::new(4)), 10, 48),
        (Box::new(WeakSymmetryBreaking), 8, 48),
        (Box::new(WeakSymmetryBreaking), 10, 48),
    ];
    let mut min_dense = f64::INFINITY;
    let mut min_closed = f64::INFINITY;
    for (task, n, verdicts) in grid {
        let parts = partitions(n, verdicts);
        let mut arena = KnowledgeArena::new();
        let execs = executions_for(&parts, &mut arena);
        let facets = build_output_table(task.as_ref(), n).facet_count();

        // Agreement first: all three paths, every sampled partition.
        let scan_only = ScanOnly(CloneByStream(task.as_ref()));
        let mut cache = OutputComplexCache::new();
        for exec in &execs {
            let reference = solvability::solves_execution_reference(exec, task.as_ref());
            let closed = solvability::solves_execution(exec, task.as_ref());
            let dense = solvability::solves_execution_with_cache(exec, &scan_only, &mut cache);
            assert_eq!(
                reference,
                closed,
                "{} n={n}: closed form diverged",
                task.name()
            );
            assert_eq!(
                reference,
                dense,
                "{} n={n}: dense scan diverged",
                task.name()
            );
        }

        let ref_us = time_verdicts(&execs, 1, |exec| {
            solvability::solves_execution_reference(exec, task.as_ref())
        });
        let dense_us = time_verdicts(&execs, 50, |exec| {
            solvability::solves_execution_with_cache(exec, &scan_only, &mut cache)
        });
        let closed_us = time_verdicts(&execs, 500, |exec| {
            solvability::solves_execution(exec, task.as_ref())
        });
        let dense_speedup = ref_us / dense_us.max(1e-6);
        let closed_speedup = ref_us / closed_us.max(1e-6);
        min_dense = min_dense.min(dense_speedup);
        min_closed = min_closed.min(closed_speedup);
        table.row(vec![
            task.name().into_owned(),
            n.to_string(),
            facets.to_string(),
            execs.len().to_string(),
            format!("{ref_us:.1}"),
            format!("{dense_us:.2}"),
            format!("{closed_us:.3}"),
            format!("{dense_speedup:.0}"),
            format!("{closed_speedup:.0}"),
        ]);
    }
    assert!(
        min_dense >= 5.0 && min_closed >= 5.0,
        "acceptance: >= 5x over the reference on every grid point \
         (dense {min_dense:.1}x, closed {min_closed:.1}x)"
    );
    (min_dense, min_closed)
}

/// A borrowing `Task` adaptor so `ScanOnly` can wrap a `&dyn Task` (the
/// grid stores boxed tasks).
struct CloneByStream<'a>(&'a dyn Task);

impl Task for CloneByStream<'_> {
    fn name(&self) -> std::borrow::Cow<'static, str> {
        std::borrow::Cow::Owned(self.0.name().into_owned())
    }

    fn output_complex(&self, n: usize) -> rsbt_complex::Complex<u64> {
        self.0.output_complex(n)
    }

    fn facet_stream(&self, n: usize) -> FacetStream<'_> {
        self.0.facet_stream(n)
    }

    fn solves_partition(&self, labels: &[u8]) -> Option<bool> {
        self.0.solves_partition(labels)
    }
}

/// The `k·t = 16` acceptance point plus memo counters: the engine (closed
/// form inside the partition memo) must reproduce the PR 3 reference
/// bit-for-bit, and the closed-form counter must be the non-zero one.
fn engine_integration(table: &mut Table) -> (u64, u64) {
    let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
    let t_max = 8; // k = 2 → k·t = 16
    let mut closed_total = 0u64;
    let mut dense_total = 0u64;
    for task in [
        Box::new(KLeaderElection::new(2)) as Box<dyn Task + Send + Sync>,
        Box::new(WeakSymmetryBreaking),
    ] {
        let reference = probability::exact_series_reference(
            &Model::Blackboard,
            task.as_ref(),
            &alpha,
            t_max,
            &mut KnowledgeArena::new(),
        );
        let engine_series =
            probability::exact_series(&Model::Blackboard, task.as_ref(), &alpha, t_max);
        assert!(
            reference
                .iter()
                .zip(&engine_series)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "engine diverged from reference at k*t = 16 for {}",
            task.name()
        );
        // Re-run the tree traversal to read its memo counters.
        let (counts, memo) =
            engine::solved_counts(&Model::Blackboard, task.as_ref(), &alpha, t_max, None);
        assert_eq!(
            // u128 like the probability-side tally divisions: the tree
            // engine's k*t <= 62 assert bounds the count, but the
            // denominator shift must not be what pins the wall.
            counts[t_max - 1] as f64 / (1u128 << (alpha.k() * t_max)) as f64,
            *engine_series.last().unwrap(),
            "tree traversal reproduces the series tail"
        );
        closed_total += memo.closed_form_verdicts();
        dense_total += memo.dense_scan_verdicts();
        table.row(vec![
            task.name().into_owned(),
            "[2,2]".into(),
            t_max.to_string(),
            "16".into(),
            memo.entries().to_string(),
            memo.memo_hits().to_string(),
            memo.closed_form_verdicts().to_string(),
            memo.dense_scan_verdicts().to_string(),
            "true".into(),
        ]);
    }
    assert!(
        closed_total > 0,
        "acceptance: the closed-form path must be exercised"
    );
    assert_eq!(
        dense_total, 0,
        "built-in tasks must never fall back to the dense scan"
    );
    (closed_total, dense_total)
}

fn main() -> ExitCode {
    run_experiment(
        "perf_solv",
        "Solvability kernel: reference vs dense facet table vs closed form",
        "DESIGN.md section 4.5 (FacetTable, partition verdicts); Definition 3.4",
        |_eng, rep| {
            let mut table = Table::new(vec![
                "task",
                "n",
                "facets",
                "verdicts",
                "ref_us",
                "dense_us",
                "closed_us",
                "dense_speedup",
                "closed_speedup",
            ]);
            let (min_dense, min_closed) = verdict_comparison(&mut table);
            let section = rep.section("solvability verdict: reference vs dense vs closed form");
            section.table(table);
            section.note(
                "reference = solves_execution_reference: rebuild output_complex (BTreeSet \
                 maximality maintenance) + facet scan with per-vertex binary search, per verdict",
            );
            section.note(
                "dense = cached FacetTable scan (O(1) lookups, one u32 compare per cell); \
                 closed = Task::solves_partition on the consistency partition alone",
            );
            section.note(format!(
                "verdicts agree on every sampled partition; minimum speedup over reference: \
                 dense {min_dense:.0}x, closed-form {min_closed:.0}x (acceptance floor 5x)"
            ));

            let mut engine_table = Table::new(vec![
                "task",
                "sizes",
                "t_max",
                "bits",
                "memo_entries",
                "memo_hits",
                "closed_form_verdicts",
                "dense_scan_verdicts",
                "bit_identical",
            ]);
            let (closed_total, dense_total) = engine_integration(&mut engine_table);
            let section = rep.section("engine integration at k*t = 16");
            section.table(engine_table);
            section.note(
                "exact_series (engine + memo) asserted bit-identical to \
                 exact_series_reference at the k*t = 16 acceptance point, both tasks",
            );
            section.note(format!(
                "closed_form_verdicts={closed_total} dense_scan_verdicts={dense_total} \
                 (non-zero closed-form counter: the production engine answers partitions \
                 in closed form; the dense scan is reserved for tasks without one)"
            ));
        },
    )
}
