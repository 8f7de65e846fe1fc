//! Experiment `perf_mc` — the deterministic parallel Monte-Carlo
//! subsystem, validated and benchmarked:
//!
//! 1. **cross-validation** — estimates against exact enumeration on an
//!    exact-reachable grid, agreement within the z = 4 Wilson interval
//!    asserted in-process;
//! 2. **thread invariance** — the estimate is asserted bit-identical for
//!    `threads ∈ {1, 2, 4, 8}` (per-sample RNG streams keyed by sample
//!    index, contiguous sample sharding, integer merges);
//! 3. **performance** — the serial pre-kernel reference
//!    (`monte_carlo_reference`: one `Realization`, one full `Execution`
//!    trace, and one consistency partition allocated per sample) versus
//!    the scalar kernel on one worker and on all workers
//!    (`monte_carlo_parallel`: `RoundStepper` + `SolvabilityMemo`,
//!    allocation-free steps, first-solving-round early exit), asserted
//!    bit-identical to the reference on the same `(samples, seed)`, and
//!    the **bit-sliced kernel**
//!    (`monte_carlo_bitsliced_series_with_stats`: 64 samples per `u64`
//!    lane word, verdicts from a compiled `VerdictPlan`, the point
//!    estimate read off the series tail), with ≥ 5× floors asserted for the
//!    parallel kernel over the reference *and* for the bit-sliced kernel
//!    over the parallel (PR 5) kernel;
//! 4. **lane bit-identity** — the bit-sliced point estimate (the tail
//!    of a series to `t`) is asserted bit-identical to
//!    `monte_carlo_parallel` for the same
//!    `(seed, samples)` across `threads ∈ {1, 2, 4, 8}` and
//!    non-multiple-of-64 sample counts (lane `l` of word `w` is exactly
//!    stream `w·64 + l`), series included;
//! 5. **beyond the tree-engine wall** — estimator data past
//!    `k·t > TREE_EXACT_BITS = 30`: LE / 2-LE / 3-LE / WSB series at
//!    `n ∈ {16, 24}` up to `t = 32` through the sweep engine's
//!    estimator mode (now dispatched bit-sliced), plus adaptive-stopping
//!    marquee points. (The quotient DP engine now reaches `k·t ≤ 126`
//!    exactly — see `exp_perf_quotient` — so these rows double as a
//!    cross-check corpus rather than the only data in the regime.)
//!
//! The verdict-path counters are asserted in-process: built-in tasks
//! answer in closed form or through compiled lane plans — the dense
//! fallback never runs and no lane is ever peeled.

use std::process::ExitCode;
use std::time::Instant;

use rsbt_bench::{fmt_p, fmt_sizes, run_experiment, McSweep, RowMode, SweepSpec, Table, TaskSpec};
use rsbt_core::probability::{self, AdaptiveConfig, Estimate, McStats, TREE_EXACT_BITS};
use rsbt_random::Assignment;
use rsbt_sim::Model;
use rsbt_tasks::{KLeaderElection, LeaderElection, Task, WeakSymmetryBreaking};

/// The exact-reachable cross-validation grid: `(task, sizes, t)` with
/// `k·t` well inside the enumeration budget.
fn validation_grid() -> Vec<(Box<dyn Task + Send + Sync>, Vec<usize>, usize)> {
    vec![
        (Box::new(LeaderElection), vec![1, 2], 6),
        (Box::new(LeaderElection), vec![1, 2, 2], 5),
        (Box::new(LeaderElection), vec![2, 2], 8),
        (Box::new(KLeaderElection::new(2)), vec![2, 2], 8),
        (Box::new(KLeaderElection::new(2)), vec![1, 1, 2], 5),
        (Box::new(WeakSymmetryBreaking), vec![2, 2], 8),
        (Box::new(WeakSymmetryBreaking), vec![1, 3], 6),
    ]
}

const VALIDATION_SAMPLES: usize = 30_000;
const VALIDATION_SEED: u64 = 2021;

fn cross_validation(
    eng: &mut rsbt_bench::SweepEngine,
    table: &mut Table,
    stats: &mut McStats,
) -> usize {
    let threads = eng.threads();
    let mut points = 0;
    for (task, sizes, t) in validation_grid() {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        let exact = eng.exact(&Model::Blackboard, task.as_ref(), &alpha, t);
        let (est, st) = probability::monte_carlo_parallel_with_stats(
            &Model::Blackboard,
            task.as_ref(),
            &alpha,
            t,
            VALIDATION_SAMPLES,
            VALIDATION_SEED,
            threads,
        );
        stats.merge(&st);
        let consistent = est.is_consistent_with(exact, 4.0);
        assert!(
            consistent,
            "{} {sizes:?} t={t}: exact {exact} outside the z=4 Wilson interval \
             [{}, {}] of {est:?}",
            task.name(),
            est.wilson(4.0).0,
            est.wilson(4.0).1,
        );
        points += 1;
        table.row(vec![
            task.name().into_owned(),
            fmt_sizes(&sizes),
            t.to_string(),
            fmt_p(exact),
            fmt_p(est.p),
            fmt_p(est.ci_lo),
            fmt_p(est.ci_hi),
            consistent.to_string(),
        ]);
    }
    points
}

fn thread_invariance(table: &mut Table) {
    for (task, sizes, t) in [
        (
            Box::new(LeaderElection) as Box<dyn Task + Send + Sync>,
            vec![1usize, 2, 2],
            5usize,
        ),
        (Box::new(WeakSymmetryBreaking), vec![2, 2], 8),
    ] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        let mut estimates: Vec<(usize, Estimate)> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let est = probability::monte_carlo_parallel(
                &Model::Blackboard,
                task.as_ref(),
                &alpha,
                t,
                VALIDATION_SAMPLES,
                VALIDATION_SEED,
                threads,
            );
            estimates.push((threads, est));
        }
        let (_, first) = estimates[0];
        for &(threads, est) in &estimates {
            assert_eq!(
                est,
                first,
                "{} {sizes:?}: estimate differs at threads={threads}",
                task.name()
            );
        }
        table.row(vec![
            task.name().into_owned(),
            fmt_sizes(&sizes),
            t.to_string(),
            estimates
                .iter()
                .map(|(th, _)| th.to_string())
                .collect::<Vec<_>>()
                .join("/"),
            format!("{}/{}", first.solved, first.samples),
            "true".into(),
        ]);
    }
}

/// Times one estimator call in milliseconds. The first (discarded) run
/// warms the allocator: the reference path cycles hundreds of megabytes
/// of arena through the heap, and whichever estimator runs next would
/// otherwise absorb the page-fault bill for it (measured ~5× inflation),
/// corrupting the comparison.
fn time_ms<F: Fn() -> Estimate>(f: F) -> (Estimate, f64) {
    let _ = f();
    let start = Instant::now();
    let est = f();
    (est, start.elapsed().as_secs_f64() * 1e3)
}

const PERF_SAMPLES: usize = 20_000;

fn performance(table: &mut Table, threads: usize, samples: usize, seed: u64) -> (f64, f64) {
    let mut min_parallel_speedup = f64::INFINITY;
    let mut min_bitsliced_speedup = f64::INFINITY;
    for (task, sizes, t) in [
        (
            Box::new(LeaderElection) as Box<dyn Task + Send + Sync>,
            vec![1usize, 15],
            24usize,
        ),
        (Box::new(WeakSymmetryBreaking), vec![5, 5], 24),
    ] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        let bits = alpha.k() * t;
        let (ref_est, ref_ms) = time_ms(|| {
            probability::monte_carlo_reference(
                &Model::Blackboard,
                task.as_ref(),
                &alpha,
                t,
                samples,
                seed,
            )
        });
        let (_, kernel_ms) = time_ms(|| {
            probability::monte_carlo_parallel(
                &Model::Blackboard,
                task.as_ref(),
                &alpha,
                t,
                samples,
                seed,
                1,
            )
        });
        let (parallel_est, parallel_ms) = time_ms(|| {
            probability::monte_carlo_parallel(
                &Model::Blackboard,
                task.as_ref(),
                &alpha,
                t,
                samples,
                seed,
                threads,
            )
        });
        assert_eq!(
            parallel_est,
            ref_est,
            "{} {sizes:?}: kernel and reference must be bit-identical on the \
             same (seed, samples)",
            task.name()
        );
        let (bitsliced_est, bitsliced_ms) = time_ms(|| {
            probability::monte_carlo_bitsliced_series_with_stats(
                &Model::Blackboard,
                task.as_ref(),
                &alpha,
                t,
                samples,
                seed,
                threads,
            )
            .0[t - 1]
        });
        assert_eq!(
            bitsliced_est,
            parallel_est,
            "{} {sizes:?}: bit-sliced and parallel kernels must be \
             bit-identical on the same (seed, samples)",
            task.name()
        );
        let parallel_speedup = ref_ms / parallel_ms.max(1e-6);
        let bitsliced_speedup = parallel_ms / bitsliced_ms.max(1e-6);
        min_parallel_speedup = min_parallel_speedup.min(parallel_speedup);
        min_bitsliced_speedup = min_bitsliced_speedup.min(bitsliced_speedup);
        table.row(vec![
            task.name().into_owned(),
            fmt_sizes(&sizes),
            t.to_string(),
            bits.to_string(),
            format!("{ref_ms:.1}"),
            format!("{kernel_ms:.1}"),
            format!("{parallel_ms:.1}"),
            format!("{bitsliced_ms:.2}"),
            format!("{parallel_speedup:.1}"),
            format!("{bitsliced_speedup:.1}"),
        ]);
    }
    assert!(
        min_parallel_speedup >= 5.0,
        "acceptance: parallel kernel must be >= 5x over the serial \
         reference (measured {min_parallel_speedup:.1}x)"
    );
    assert!(
        min_bitsliced_speedup >= 5.0,
        "acceptance: bit-sliced kernel must be >= 5x over the PR 5 \
         parallel kernel (measured {min_bitsliced_speedup:.1}x)"
    );
    (min_parallel_speedup, min_bitsliced_speedup)
}

/// Acceptance: bit-sliced point estimates (and whole series) are
/// bit-identical to the PR 5 scalar kernel for the same `(seed, samples)`
/// across thread counts and lane fills — including counts straddling
/// word boundaries. Returns the merged lane-path statistics.
fn bitsliced_identity(table: &mut Table, samples: usize, seed: u64, stats: &mut McStats) {
    for (task, sizes, t) in [
        (
            Box::new(LeaderElection) as Box<dyn Task + Send + Sync>,
            vec![1usize, 2, 2],
            5usize,
        ),
        (Box::new(WeakSymmetryBreaking), vec![2, 2], 8),
    ] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        for count in [1usize, 63, 65, samples] {
            let reference = probability::monte_carlo_parallel(
                &Model::Blackboard,
                task.as_ref(),
                &alpha,
                t,
                count,
                seed,
                1,
            );
            for threads in [1usize, 2, 4, 8] {
                let (series, st) = probability::monte_carlo_bitsliced_series_with_stats(
                    &Model::Blackboard,
                    task.as_ref(),
                    &alpha,
                    t,
                    count,
                    seed,
                    threads,
                );
                stats.merge(&st);
                assert_eq!(
                    series[t - 1],
                    reference,
                    "{} {sizes:?} samples={count}: bit-sliced estimate differs \
                     at threads={threads}",
                    task.name()
                );
            }
            table.row(vec![
                task.name().into_owned(),
                fmt_sizes(&sizes),
                t.to_string(),
                count.to_string(),
                "1/2/4/8".into(),
                format!("{}/{}", reference.solved, reference.samples),
                "true".into(),
            ]);
        }
        // Whole-series identity on a word-straddling count: the series
        // at every t is the scalar point estimate at that t.
        let (sliced_series, _) = probability::monte_carlo_bitsliced_series_with_stats(
            &Model::Blackboard,
            task.as_ref(),
            &alpha,
            t,
            130,
            seed,
            4,
        );
        for (i, est) in sliced_series.iter().enumerate() {
            let scalar = probability::monte_carlo_parallel(
                &Model::Blackboard,
                task.as_ref(),
                &alpha,
                i + 1,
                130,
                seed,
                1,
            );
            assert_eq!(
                *est,
                scalar,
                "{} {sizes:?} t={}: series must be bit-identical",
                task.name(),
                i + 1
            );
        }
    }
}

/// The beyond-the-tree-wall scenario sweeps: every row here has
/// `k·t_cap > TREE_EXACT_BITS`, i.e. the tree-walking engines cannot
/// produce it (the quotient DP can, up to 126 bits — these rows stay in
/// estimator mode to keep exercising the sampling path at scale).
fn scenario_spec(n: usize) -> SweepSpec {
    SweepSpec::new()
        .task(TaskSpec::fixed(LeaderElection))
        .task(TaskSpec::fixed(KLeaderElection::new(2)))
        .task(TaskSpec::fixed(KLeaderElection::new(3)))
        .task(TaskSpec::fixed(WeakSymmetryBreaking))
        .nodes(n..=n)
        .t_cap(32)
        .bit_budget(TREE_EXACT_BITS)
        .filter(|alpha| alpha.k() == 2)
        .mc(McSweep {
            samples: 4_096,
            seed: 0x5253_4254,
        })
}

fn adaptive_marquee(table: &mut Table, threads: usize, stats: &mut McStats) {
    let cfg = AdaptiveConfig {
        target_half_width: 5e-3,
        max_samples: 1 << 18,
        batch: 1 << 13,
    };
    for (task, sizes, t) in [
        (
            Box::new(LeaderElection) as Box<dyn Task + Send + Sync>,
            vec![1usize, 23],
            32usize,
        ),
        (Box::new(KLeaderElection::new(3)), vec![1, 2, 21], 32),
        (Box::new(WeakSymmetryBreaking), vec![12, 12], 32),
    ] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        let bits = alpha.k() * t;
        assert!(bits > TREE_EXACT_BITS, "marquee points live past the wall");
        let (est, st) = probability::monte_carlo_adaptive(
            &Model::Blackboard,
            task.as_ref(),
            &alpha,
            t,
            &cfg,
            2021,
            threads,
        );
        stats.merge(&st);
        assert!(
            est.half_width() <= cfg.target_half_width || est.samples == cfg.max_samples,
            "adaptive loop must meet the target or exhaust the cap"
        );
        table.row(vec![
            task.name().into_owned(),
            fmt_sizes(&sizes),
            t.to_string(),
            bits.to_string(),
            est.samples.to_string(),
            fmt_p(est.p),
            fmt_p(est.ci_lo),
            fmt_p(est.ci_hi),
        ]);
    }
}

fn main() -> ExitCode {
    run_experiment(
        "perf_mc",
        "Deterministic parallel Monte-Carlo: validation, invariance, bit-sliced speedup, and the regime past k*t = 30",
        "DESIGN.md sections 4.6 and 4.8 (stream splitting, Wilson intervals, lane words, verdict plans); Lemma B.1",
        |eng, rep| {
            let threads = eng.threads();
            let (samples_override, seed_override) = eng.mc_overrides();
            let perf_samples = samples_override.unwrap_or(PERF_SAMPLES);
            let perf_seed = seed_override.unwrap_or(7);
            let mut stats = McStats::default();

            let mut table = Table::new(vec![
                "task", "sizes", "t", "exact", "mc", "ci_lo", "ci_hi", "consistent",
            ]);
            let points = cross_validation(eng, &mut table, &mut stats);
            let section = rep.section("cross-validation against exact enumeration");
            section.table(table);
            section.note(format!(
                "{points} grid points, {VALIDATION_SAMPLES} samples each: the exact value \
                 is asserted inside the z = 4 Wilson interval in-process"
            ));

            let mut table = Table::new(vec![
                "task",
                "sizes",
                "t",
                "threads",
                "solved/samples",
                "bit_identical",
            ]);
            thread_invariance(&mut table);
            let section = rep.section("thread-count invariance");
            section.table(table);
            section.note(
                "sample i always draws from StreamRng(seed, i); workers shard contiguous \
                 index ranges and merge integer counts - the estimate is asserted \
                 bit-identical for threads in {1, 2, 4, 8}",
            );

            let mut table = Table::new(vec![
                "task",
                "sizes",
                "t",
                "k*t",
                "ref_ms",
                "kernel_ms",
                "parallel_ms",
                "bitsliced_ms",
                "parallel_speedup",
                "bitsliced_speedup",
            ]);
            let (min_speedup, min_bitsliced) =
                performance(&mut table, threads, perf_samples, perf_seed);
            let section =
                rep.section("sampling kernel: reference vs kernel vs parallel vs bit-sliced");
            section.table(table);
            section.note(
                "reference = Realization + full Execution trace + consistency partition \
                 per sample; kernel = RoundStepper + partition memo, allocation-free, \
                 stops at the first solving round (monotonicity); bit-sliced = 64 samples \
                 per u64 lane word, verdicts from a compiled VerdictPlan",
            );
            section.note(format!(
                "minimum parallel-kernel speedup over the serial reference: \
                 {min_speedup:.1}x; minimum bit-sliced speedup over the parallel \
                 kernel: {min_bitsliced:.1}x (acceptance floors 5x each; worker \
                 threads: {threads})"
            ));

            let mut table = Table::new(vec![
                "task",
                "sizes",
                "t",
                "samples",
                "threads",
                "solved/samples",
                "bit_identical",
            ]);
            bitsliced_identity(&mut table, perf_samples, perf_seed, &mut stats);
            let section = rep.section("lane bit-identity across threads and lane fills");
            section.table(table);
            section.note(
                "lane l of word w is exactly stream w*64 + l, so the bit-sliced \
                 estimate (and the whole series) is asserted bit-identical to \
                 monte_carlo_parallel for threads in {1, 2, 4, 8} and sample counts \
                 off the 64-lane word boundary",
            );

            for n in [16usize, 24] {
                let rows = eng.sweep(&scenario_spec(n));
                assert!(!rows.is_empty());
                assert!(
                    rows.iter()
                        .all(|r| r.mode == RowMode::Mc && r.k * r.series.len() > TREE_EXACT_BITS),
                    "every scenario row must live past the exact wall"
                );
                assert!(
                    rows.iter().all(|r| r.is_monotone()),
                    "common-random-numbers series must be monotone"
                );
                let section = rep.section(format!(
                    "beyond the exact wall: n = {n}, two-source profiles, t <= 32"
                ));
                section.sweep(format!("mc series at n = {n}"), rows);
                section.note(format!(
                    "k*t reaches 64 > TREE_EXACT_BITS = {TREE_EXACT_BITS}: past \
                     tree-enumeration reach (4096 samples per row, one sampling pass \
                     per series); the quotient DP engine covers this regime exactly \
                     since the k*t <= 126 budget landed — see exp_perf_quotient"
                ));
            }

            let mut table = Table::new(vec![
                "task", "sizes", "t", "k*t", "samples", "p", "ci_lo", "ci_hi",
            ]);
            adaptive_marquee(&mut table, threads, &mut stats);
            let section = rep.section("adaptive stopping at n = 24, t = 32");
            section.table(table);
            section.note(
                "batches of 8192 until the 95% Wilson half-width is <= 5e-3 (cap 2^18); \
                 the sample count is a pure function of the spec, so the estimate stays \
                 deterministic and thread-invariant",
            );
            section.note(
                "the zero-one law pins p(32) to an extreme, so these rows are exactly \
                 the p = 1 edge where the old std_error check was vacuous - the Wilson \
                 upper/lower bounds stay finite and informative",
            );

            let sweep_stats = eng.mc_stats();
            stats.merge(&sweep_stats);
            assert!(
                stats.closed_form_verdicts > 0,
                "acceptance: the closed-form path must be exercised in MC mode"
            );
            assert_eq!(
                stats.dense_scan_verdicts, 0,
                "built-in tasks must never fall back to the dense scan"
            );
            assert!(
                stats.lane_words > 0,
                "acceptance: the bit-sliced lane path must be exercised in MC mode"
            );
            assert_eq!(
                stats.peeled_lanes, 0,
                "built-in tasks compile lane plans; no sample may peel to the \
                 scalar path"
            );
            rep.section("verdict-path counters").note(format!(
                "closed_form_verdicts={} dense_scan_verdicts={} memo_hits={} \
                 lane_words={} peeled_lanes={} \
                 (scalar Monte-Carlo verdicts in this run went closed-form-first, \
                 lane verdicts came from compiled plans; the dense fallback and the \
                 peel path are reserved for tasks without a closed form or plan)",
                stats.closed_form_verdicts,
                stats.dense_scan_verdicts,
                stats.memo_hits,
                stats.lane_words,
                stats.peeled_lanes
            ));
        },
    )
}
