//! Experiment `perf_quotient` — the quotient DP engine
//! (`rsbt_core::engine_dp`) head-to-head against the PR 3 prefix-sharing
//! tree engine, on points chosen to be *honest about pruning*.
//!
//! Monotone subtree pruning makes the tree engine quasi-DP-fast on
//! easily-solved tasks: once most of the frontier solves, its unsolved
//! residue collapses to a handful of partitions and the walk is cheap. So
//! a speedup measured there would understate nothing and prove nothing.
//! The head-to-head grid therefore includes **never-solving** profiles
//! (leader election on `[2, 2]` and on a single shared source), where the
//! tree engine's unsolved frontier stays the full `2^{k·t}` and the DP's
//! stays at a handful of equality states — the regime the quotient
//! construction actually targets. On those points the bin *asserts* the
//! ≥ 100× speedup claimed in the acceptance criteria.
//!
//! Every comparison first asserts bit-identity of the integer solved
//! counts (`u64` widened to `u128`) between the two engines — both
//! models, faulted included — then times. A final section commits
//! first-ever exact data past the old `k·t ≤ 30` wall, out to the
//! `u128` dyadic budget at `k·t = 126`.

use std::process::ExitCode;
use std::time::Instant;

use rsbt_bench::{fmt_sizes, run_experiment, Table};
use rsbt_core::engine::{self, SolvabilityMemo, TaskKernel};
use rsbt_core::engine_dp::{self, DpStats};
use rsbt_random::Assignment;
use rsbt_sim::{FaultSchedule, KnowledgeArena, Model};
use rsbt_tasks::{KLeaderElection, LeaderElection, Task};

/// Repetitions for DP timings, reported as the **minimum** per-call time.
/// Single sweeps finish in microseconds, so one `Instant` delta would
/// divide by timer noise — and the mean is wrong too: right after a
/// multi-gigabyte tree walk, the allocator returns the freed arena to the
/// OS lazily, and that reclamation lands as a one-off multi-hundred-ms
/// stall on an *arbitrary later* small allocation (observed empirically:
/// one DP call in thirty-two absorbing ~700 ms). The minimum over reps is
/// the steady-state sweep cost, which is the honest thing to compare
/// against a one-shot tree walk.
const DP_REPS: u32 = 32;

/// Times `f` over [`DP_REPS`] calls and returns `(last result, minimum
/// per-call milliseconds)`.
fn time_min<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..DP_REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (out.expect("DP_REPS >= 1"), best)
}

/// The ≥ 100× acceptance floor, asserted on the adversarial-for-pruning
/// points (see the module docs for why only those are honest).
const SPEEDUP_FLOOR: f64 = 100.0;

/// One head-to-head point: model family, profile, horizon, and whether
/// the speedup floor is asserted (never-solving points only).
struct Point {
    mp: bool,
    sizes: &'static [usize],
    t_max: usize,
    assert_floor: bool,
}

/// The grid. Solvable profiles run to the old 30-bit wall (the tree
/// engine prunes them fast — included for bit-identity coverage, not
/// speedup claims); never-solving profiles stop where the *unpruned*
/// tree walk still finishes in seconds.
const GRID: &[Point] = &[
    // Full-range bit-identity on pruned (solvable) points: k·t = 30.
    Point {
        mp: false,
        sizes: &[1, 2],
        t_max: 15,
        assert_floor: false,
    },
    Point {
        mp: false,
        sizes: &[1, 3],
        t_max: 15,
        assert_floor: false,
    },
    Point {
        mp: false,
        sizes: &[1, 1, 2],
        t_max: 10,
        assert_floor: false,
    },
    Point {
        mp: true,
        sizes: &[1, 2],
        t_max: 15,
        assert_floor: false,
    },
    Point {
        mp: true,
        sizes: &[1, 1, 2],
        t_max: 10,
        assert_floor: false,
    },
    // Adversarial for pruning: LE on [2,2] never solves (no singleton
    // class can ever form), so the tree engine walks all 4^t nodes while
    // the DP holds two states. k·t = 22.
    Point {
        mp: false,
        sizes: &[2, 2],
        t_max: 11,
        assert_floor: true,
    },
    // Same, degenerate k = 1: one shared source never breaks symmetry;
    // 2^20 unpruned tree nodes vs one DP state per round.
    Point {
        mp: false,
        sizes: &[4],
        t_max: 20,
        assert_floor: true,
    },
];

/// Tallies aggregated across every DP sweep in the bin, emitted in the
/// `key=value` form the CI perf gate greps.
#[derive(Default)]
struct Totals {
    dp_states: usize,
    row_hits: u64,
    rows_built: u64,
    closed_form_verdicts: u64,
    /// Solvability-memo hits from the *tree-engine* comparison runs: the
    /// DP interns each equality state once (it *is* the transposition
    /// table, so its own memo never repeats a partition), while the tree
    /// walk re-encounters partitions per node — the memo is what keeps
    /// that affordable.
    memo_hits: u64,
}

impl Totals {
    fn absorb_dp(&mut self, stats: &DpStats) {
        self.dp_states += stats.states;
        self.row_hits += stats.row_hits;
        self.rows_built += stats.rows_built;
        self.closed_form_verdicts += stats.closed_form_verdicts;
        self.memo_hits += stats.memo_hits;
    }
}

/// The tree engine through its shard entry point, so the bin owns the
/// [`SolvabilityMemo`] and can report its hit counters.
fn tree_counts<T: Task + ?Sized>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    totals: &mut Totals,
) -> Vec<u64> {
    let table = engine::fallback_table(task, alpha.n());
    let kernel = match table.as_ref() {
        Some(table) => TaskKernel::new(task, table),
        None => TaskKernel::closed_form_only(task),
    };
    let mut memo = SolvabilityMemo::new();
    let counts = engine::solved_counts_shard(
        model,
        &kernel,
        alpha,
        t_max,
        0,
        0,
        1,
        &mut KnowledgeArena::new(),
        &mut memo,
    );
    totals.memo_hits += memo.memo_hits();
    counts
}

fn head_to_head(table: &mut Table, threads: usize, totals: &mut Totals) -> f64 {
    let mut min_floor_speedup = f64::INFINITY;
    for point in GRID {
        let alpha = Assignment::from_group_sizes(point.sizes).unwrap();
        let model = if point.mp {
            Model::message_passing_cyclic(alpha.n())
        } else {
            Model::Blackboard
        };
        let bits = alpha.k() * point.t_max;

        let start = Instant::now();
        let tree = tree_counts(&model, &LeaderElection, &alpha, point.t_max, totals);
        let tree_ms = start.elapsed().as_secs_f64() * 1e3;

        let ((dp, stats), dp_ms) = time_min(|| {
            engine_dp::solved_series_with_stats(
                &model,
                &LeaderElection,
                &alpha,
                point.t_max,
                threads,
            )
        });
        totals.absorb_dp(&stats);

        let widened: Vec<u128> = tree.iter().map(|&c| u128::from(c)).collect();
        assert_eq!(
            dp, widened,
            "quotient engine diverged from the tree engine on {:?} (mp={}) t_max={}",
            point.sizes, point.mp, point.t_max
        );

        let speedup = tree_ms / dp_ms.max(1e-9);
        if point.assert_floor {
            assert!(
                speedup >= SPEEDUP_FLOOR,
                "speedup {speedup:.1}x below the {SPEEDUP_FLOOR}x floor on the \
                 never-solving point {:?} t_max={} (tree {tree_ms:.2} ms, dp {dp_ms:.4} ms)",
                point.sizes,
                point.t_max
            );
            min_floor_speedup = min_floor_speedup.min(speedup);
        }

        table.row(vec![
            if point.mp { "mp-cyclic" } else { "blackboard" }.to_string(),
            fmt_sizes(point.sizes),
            alpha.k().to_string(),
            point.t_max.to_string(),
            bits.to_string(),
            format!("{tree_ms:.2}"),
            format!("{dp_ms:.4}"),
            format!("{speedup:.1}"),
            stats.states.to_string(),
            stats.frontier_max.to_string(),
            point.assert_floor.to_string(),
        ]);
    }
    min_floor_speedup
}

fn faulted_check(table: &mut Table, threads: usize, totals: &mut Totals) {
    // A fixed schedule with an omission and a crash mid-horizon: the DP
    // threads round-indexed silence masks through its transitions and
    // must reproduce the tree engine's faulted tallies exactly.
    let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
    let t_max = 10;
    let mut sched = FaultSchedule::empty(3, t_max);
    sched.set_omission(0, 3);
    sched.set_crash(2, 5);
    for mp in [false, true] {
        let model = if mp {
            Model::message_passing_cyclic(3)
        } else {
            Model::Blackboard
        };
        let start = Instant::now();
        let tree = engine::solved_counts_faulted(
            &model,
            &LeaderElection,
            &alpha,
            t_max,
            &sched,
            &mut KnowledgeArena::new(),
        );
        let tree_ms = start.elapsed().as_secs_f64() * 1e3;
        let ((dp, stats), dp_ms) = time_min(|| {
            engine_dp::solved_series_faulted_with_stats(
                &model,
                &LeaderElection,
                &alpha,
                t_max,
                &sched,
                threads,
            )
        });
        totals.absorb_dp(&stats);
        let widened: Vec<u128> = tree.iter().map(|&c| u128::from(c)).collect();
        assert_eq!(dp, widened, "faulted divergence (mp={mp})");
        table.row(vec![
            if mp { "mp-cyclic" } else { "blackboard" }.to_string(),
            "omit(0@3) crash(2@5)".to_string(),
            t_max.to_string(),
            format!("{tree_ms:.2}"),
            format!("{dp_ms:.4}"),
            "true".to_string(),
        ]);
    }
}

fn beyond_the_wall(table: &mut Table, threads: usize, totals: &mut Totals) {
    // First exact data past k·t = 30, out to the 126-bit edge. Closed
    // forms where they exist pin the integer counts, not just the floats.
    let points: &[(&[usize], Box<dyn Task>, usize)] = &[
        (&[1, 2], Box::new(LeaderElection), 63),
        (&[2, 2], Box::new(LeaderElection), 63),
        (&[2, 2], Box::new(KLeaderElection::new(2)), 63),
        (&[1, 1, 2], Box::new(LeaderElection), 42),
        (&[1, 1, 1, 2], Box::new(LeaderElection), 31),
    ];
    for (sizes, task, t_max) in points {
        let alpha = Assignment::from_group_sizes(sizes).unwrap();
        let bits = alpha.k() * t_max;
        assert!(bits > 30 && bits <= engine_dp::MAX_DP_BITS);
        let ((counts, stats), dp_ms) = time_min(|| {
            engine_dp::solved_series_with_stats(
                &Model::Blackboard,
                task.as_ref(),
                &alpha,
                *t_max,
                threads,
            )
        });
        totals.absorb_dp(&stats);
        let last = counts[t_max - 1];
        let p = last as f64 / (1u128 << bits) as f64;
        table.row(vec![
            fmt_sizes(sizes),
            task.name().to_string(),
            t_max.to_string(),
            bits.to_string(),
            format!("{last:x}"),
            format!("{p:.6}"),
            format!("{dp_ms:.4}"),
            stats.states.to_string(),
        ]);
    }

    // Pin the 126-bit edge with the [1, m] closed form: counts[t-1] =
    // 2^{2t} − 2^t — at t = 63 that is 2^126 − 2^63, the largest tally
    // the dyadic budget admits.
    let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
    let (series, _) =
        engine_dp::solved_series_with_stats(&Model::Blackboard, &LeaderElection, &alpha, 63, 1);
    assert_eq!(series[62], (1u128 << 126) - (1u128 << 63), "126-bit edge");
    // And [2, 2] never solves: every beyond-the-wall count stays zero.
    let (series, _) = engine_dp::solved_series_with_stats(
        &Model::Blackboard,
        &LeaderElection,
        &Assignment::from_group_sizes(&[2, 2]).unwrap(),
        63,
        1,
    );
    assert!(series.iter().all(|&c| c == 0), "LE on [2,2] is a zero row");
}

fn main() -> ExitCode {
    run_experiment(
        "perf_quotient",
        "Quotient DP engine vs prefix-sharing tree engine",
        "DESIGN.md section 4.10 (knowledge-equality DP); Definition 3.4 partitions",
        |eng, rep| {
            let threads = eng.threads();
            let mut totals = Totals::default();

            let mut table = Table::new(vec![
                "model",
                "sizes",
                "k",
                "t_max",
                "bits",
                "tree_ms",
                "dp_ms",
                "speedup",
                "dp_states",
                "frontier_max",
                "floor_asserted",
            ]);
            let min_floor = head_to_head(&mut table, threads, &mut totals);
            let section = rep.section("bit-identity + speedup (tree engine vs quotient DP)");
            section.table(table);
            section.note(
                "integer solved counts asserted bit-identical on every point before timing; \
                 never-solving points (floor_asserted = true) keep the tree engine's frontier \
                 at the full 2^(kt) while the DP holds <= Bell(k) states — the honest regime \
                 for the speedup claim, since pruning makes solvable points cheap for both",
            );
            section.note(format!(
                "minimum speedup on floor-asserted points: {min_floor:.0}x (asserted >= \
                 {SPEEDUP_FLOOR}x in-process; perf-gate noise margin documented in ci.yml)"
            ));

            let mut table = Table::new(vec![
                "model",
                "schedule",
                "t_max",
                "tree_ms",
                "dp_ms",
                "identical",
            ]);
            faulted_check(&mut table, threads, &mut totals);
            let section = rep.section("faulted fixed-schedule enumeration through the DP");
            section.table(table);
            section.note(
                "round-indexed silence masks meet the equality state per transition; counts \
                 bit-identical to the tree engine's faulted tallies on both models",
            );

            let mut table = Table::new(vec![
                "sizes",
                "task",
                "t_max",
                "bits",
                "count_hex",
                "p",
                "dp_ms",
                "dp_states",
            ]);
            beyond_the_wall(&mut table, threads, &mut totals);
            let section = rep.section("beyond the wall: exact counts to k*t = 126");
            section.table(table);
            section.note(
                "first exact data past the old 30-bit budget: u128 dyadic counts, closed-form \
                 pinned at the 126-bit edge (2^126 - 2^63 solving realizations for [1,2] at \
                 t = 63)",
            );
            section.note(format!(
                "aggregate counters: dp_states={} rows_built={} row_hits={} \
                 closed_form_verdicts={} memo_hits={}",
                totals.dp_states,
                totals.rows_built,
                totals.row_hits,
                totals.closed_form_verdicts,
                totals.memo_hits
            ));
        },
    )
}
