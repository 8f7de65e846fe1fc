//! The bit-sliced Monte-Carlo kernel: 64 samples per `u64` lane word.
//!
//! The PR 5 estimators ([`probability::monte_carlo_parallel`] and
//! friends) advance one sample at a time through a [`RoundStepper`] and
//! decide each partition with a branchy scalar closed form. This module
//! packs 64 independent samples into the bit positions ("lanes") of
//! `u64` words and advances them together: a
//! [`LaneStepper`](rsbt_sim::LaneStepper) tracks the pairwise
//! knowledge-equality relation per round as packed words, and a
//! [`VerdictPlan`](rsbt_tasks::VerdictPlan) — the task's closed form
//! compiled once per run to straight-line bitwise ops — answers all 64
//! verdicts per evaluation.
//!
//! **Determinism.** Lane `l` of word `w` is sample index `w·64 + l` and
//! draws its per-source words from `StreamRng(seed, w·64 + l)` — the
//! identical per-sample stream discipline of the scalar kernel — and the
//! equality tracking and compiled verdicts are exact (not approximate),
//! so every per-sample first-solving-round equals the scalar kernel's
//! and the estimates are **bit-identical to
//! [`probability::monte_carlo_parallel`] for any thread count and any
//! lane fill**. Worker chunks are word-aligned
//! ([`pool::map_sample_chunks_aligned`] with `align = 64`), so lane ↔
//! stream mapping never depends on the worker count; the last partial
//! word masks its dead lanes out of every tally.
//!
//! **Early exit.** Monotonicity (a solving round-`r` prefix solves at
//! every later round — the same fact the exact engine prunes subtrees
//! with) makes per-lane verdicts monotone in `r`, so each word keeps a
//! `solved` mask, tallies `newly = verdict & live & !solved` per round,
//! and stops stepping as soon as `solved` covers every live lane.
//!
//! Tasks that compile no plan (no closed form, or an op budget overrun)
//! peel every lane to the scalar [`SampleKernel`] path, counted in
//! [`McStats::peeled_lanes`] — estimates stay bit-identical either way.
//!
//! [`probability::monte_carlo_parallel`]: crate::probability::monte_carlo_parallel
//! [`RoundStepper`]: rsbt_sim::RoundStepper
//! [`SampleKernel`]: crate::probability
//! [`McStats::peeled_lanes`]: crate::probability::McStats::peeled_lanes

use rand::rngs::StreamRng;
use rand::RngCore;
use rsbt_random::Assignment;
use rsbt_sim::{pool, FaultSchedule, FaultSpec, LaneStepper, Model};
use rsbt_tasks::{Task, VerdictPlan};

use crate::engine::{self, SolvabilityMemo, TaskKernel};
use crate::probability::{check_mc_args, Estimate, McStats, SampleKernel};

/// Bit-sliced `p̂(1), …, p̂(t_max)` from one sampling pass, with the
/// verdict-path statistics (summed across workers): bit-identical to
/// [`monte_carlo_series_parallel`](crate::probability::monte_carlo_series_parallel)
/// with the same `(seed, samples)` — for any `threads` on either side —
/// at a fraction of the cost (see the module docs). The point estimate
/// at `t` is `series[t − 1]`, bit-identical to
/// [`monte_carlo_parallel`](crate::probability::monte_carlo_parallel)
/// at `t`.
///
/// # Panics
///
/// Same conditions as
/// [`monte_carlo_series_parallel`](crate::probability::monte_carlo_series_parallel).
pub fn monte_carlo_bitsliced_series_with_stats<T>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    samples: usize,
    seed: u64,
    threads: usize,
) -> (Vec<Estimate>, McStats)
where
    T: Task + Sync + ?Sized,
{
    lane_series(model, task, alpha, t_max, samples, seed, threads, None)
}

/// [`monte_carlo_bitsliced_series_with_stats`] under a [`FaultSpec`]:
/// lane `l` of word `w` is still sample `w·64 + l`, draws its source
/// words from the identical unsalted stream, and compiles its per-sample
/// [`FaultSchedule`] from the salted fault substream — the 64 schedules
/// of a word become per-round **silence lane words** (bit `l` = lane
/// `l`'s node silent this round) fed to
/// [`LaneStepper::step_faulted`](rsbt_sim::LaneStepper::step_faulted).
/// Faulted lanes track every node as its own unit (silence is
/// per-node), so the plan compiles over the identity unit layout.
///
/// Sample `i`'s schedule is compiled once at horizon `t_max` and every
/// prefix time reads the same silence pattern — common random numbers
/// *and* common faults across the series. So the tail `series[t_max − 1]`
/// is bit-identical to
/// [`monte_carlo_parallel_faulted`](crate::probability::monte_carlo_parallel_faulted)
/// at `t_max` for any thread count, while interior points are
/// distributionally `p̂(t)`; with a rate-zero spec the whole series is
/// bit-identical to the fault-free kernel (asserted by tests).
///
/// # Panics
///
/// Same conditions as [`monte_carlo_bitsliced_series_with_stats`].
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_bitsliced_series_faulted_with_stats<T>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    faults: &FaultSpec,
) -> (Vec<Estimate>, McStats)
where
    T: Task + Sync + ?Sized,
{
    lane_series(
        model,
        task,
        alpha,
        t_max,
        samples,
        seed,
        threads,
        Some(faults),
    )
}

/// The one sharded lane loop both bit-sliced estimators run on: per
/// word-aligned chunk, either the compiled-plan path or the scalar peel,
/// tallying `first_solved[r]` — the samples whose first solving round is
/// exactly `r + 1` (round 0 counts as round 1, matching the scalar
/// series) — then merging the chunks and prefix-summing them into the
/// cumulative estimate series.
#[allow(clippy::too_many_arguments)]
fn lane_series<T>(
    model: &Model,
    task: &T,
    alpha: &Assignment,
    t_max: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    faults: Option<&FaultSpec>,
) -> (Vec<Estimate>, McStats)
where
    T: Task + Sync + ?Sized,
{
    assert!(threads >= 1, "need at least one thread");
    assert!(t_max >= 1, "need at least one round");
    check_mc_args(model, alpha, t_max, samples);
    // Compile once per run: the unit layout is a pure function of
    // (model, alpha) — and of whether faults are in play: silence is
    // per-node, so the faulted stepper tracks every node as its own
    // unit instead of collapsing source groups.
    let probe = match faults {
        None => LaneStepper::new(model, alpha),
        Some(_) => LaneStepper::new_faulted(model, alpha),
    };
    let plan = task.lane_plan(probe.unit_of_node(), probe.units());
    // The dense fallback is only reachable from the peel path.
    let table = if plan.is_some() {
        None
    } else {
        engine::fallback_table(task, alpha.n())
    };
    let per_chunk = pool::map_sample_chunks_aligned(samples, threads, 64, |arena, range| {
        let mut first_solved = vec![0u64; t_max];
        let mut stats = McStats::default();
        match (plan.as_ref(), faults) {
            (Some(plan), None) => run_plan_words(
                model,
                alpha,
                plan,
                t_max,
                seed,
                &range,
                &mut first_solved,
                &mut stats,
            ),
            (Some(plan), Some(spec)) => run_plan_words_faulted(
                model,
                alpha,
                plan,
                t_max,
                seed,
                spec,
                &range,
                &mut first_solved,
                &mut stats,
            ),
            (None, _) => {
                let kernel = match table.as_ref() {
                    Some(table) => TaskKernel::new(task, table),
                    None => TaskKernel::closed_form_only(task),
                };
                let mut memo = SolvabilityMemo::new();
                let mut sampler = SampleKernel::new(model, kernel, alpha, t_max, arena);
                let mut schedule = FaultSchedule::empty(alpha.n(), t_max);
                for i in range.clone() {
                    let mut rng = StreamRng::new(seed, i as u64);
                    let first = match faults {
                        None => sampler.first_solving_round(&mut rng, &mut memo, arena),
                        Some(spec) => {
                            spec.fill_schedule(alpha.n(), t_max, seed, i as u64, &mut schedule);
                            sampler
                                .first_solving_round_faulted(&mut rng, &schedule, &mut memo, arena)
                        }
                    };
                    if let Some(first) = first {
                        first_solved[first.saturating_sub(1)] += 1;
                    }
                }
                stats.peeled_lanes += range.len() as u64;
                stats.absorb(&memo);
            }
        }
        (first_solved, stats)
    });
    let mut first_solved = vec![0u64; t_max];
    let mut stats = McStats::default();
    for (chunk, st) in &per_chunk {
        for (acc, c) in first_solved.iter_mut().zip(chunk) {
            *acc += c;
        }
        stats.merge(st);
    }
    let mut solved = 0u64;
    let series = first_solved
        .iter()
        .map(|&c| {
            solved += c;
            Estimate::from_counts(solved, samples)
        })
        .collect();
    (series, stats)
}

/// The compiled-plan word loop (see the module docs for the layout and
/// early-exit argument). `range` is word-aligned: `range.start % 64 == 0`
/// and only the final word can be partially live.
#[allow(clippy::too_many_arguments)]
fn run_plan_words(
    model: &Model,
    alpha: &Assignment,
    plan: &VerdictPlan,
    t: usize,
    seed: u64,
    range: &std::ops::Range<usize>,
    first_solved: &mut [u64],
    stats: &mut McStats,
) {
    debug_assert_eq!(range.start % 64, 0, "chunks must be word-aligned");
    let k = alpha.k();
    let mut stepper = LaneStepper::new(model, alpha);
    // draws[s·64 + l] = lane l's one-word draw for source s; after the
    // per-source transpose, draws[s·64 + r] bit l = source s's round-r
    // bit in lane l (BitString::sample packs round r at bit r, and
    // t ≤ 63 keeps every round inside one word).
    let mut draws = vec![0u64; k * 64];
    let mut regs: Vec<u64> = Vec::new();
    let mut base = range.start;
    while base < range.end {
        let live = (range.end - base).min(64);
        let live_mask = if live == 64 {
            u64::MAX
        } else {
            (1u64 << live) - 1
        };
        for l in 0..64 {
            if l < live {
                // Exactly the scalar discipline: sample w·64 + l draws k
                // words in source order from its own stream.
                let mut rng = StreamRng::new(seed, (base + l) as u64);
                for s in 0..k {
                    draws[s * 64 + l] = rng.next_u64();
                }
            } else {
                for s in 0..k {
                    draws[s * 64 + l] = 0;
                }
            }
        }
        for s in 0..k {
            transpose64(&mut draws[s * 64..(s + 1) * 64]);
        }
        stepper.reset();
        stats.lane_words += 1;
        // Round 0: the all-⊥ partition (all lanes all-equal) — matches
        // the scalar kernel's `Some(0)` probe.
        let mut solved = plan.eval(stepper.eq_words(), &mut regs) & live_mask;
        if solved != 0 {
            first_solved[0] += u64::from(solved.count_ones());
        }
        for r in 0..t {
            if solved == live_mask {
                break;
            }
            stepper.step(|s| draws[s * 64 + r]);
            let newly = plan.eval(stepper.eq_words(), &mut regs) & live_mask & !solved;
            if newly != 0 {
                first_solved[r] += u64::from(newly.count_ones());
                solved |= newly;
            }
        }
        base += 64;
    }
}

/// The faulted compiled-plan word loop: [`run_plan_words`] plus, per
/// word, the 64 per-lane [`FaultSchedule`]s compiled from the salted
/// fault substream and transposed into per-round **silence lane words**
/// (`sil[i·64 + r]` bit `l` = lane `l`'s node `i` silent in round
/// `r + 1`) for [`LaneStepper::step_faulted`]. Source draws are
/// untouched — same streams, same order — so a rate-zero spec compiles
/// all-zero silence words and reproduces the fault-free verdicts
/// bit-for-bit. Early exit per word stays sound: faulted partitions
/// still only refine over time (each round's knowledge embeds the
/// node's own previous knowledge), so per-lane verdicts stay monotone
/// in `r`.
#[allow(clippy::too_many_arguments)]
fn run_plan_words_faulted(
    model: &Model,
    alpha: &Assignment,
    plan: &VerdictPlan,
    t: usize,
    seed: u64,
    spec: &FaultSpec,
    range: &std::ops::Range<usize>,
    first_solved: &mut [u64],
    stats: &mut McStats,
) {
    debug_assert_eq!(range.start % 64, 0, "chunks must be word-aligned");
    let k = alpha.k();
    let n = alpha.n();
    let mut stepper = LaneStepper::new_faulted(model, alpha);
    let mut draws = vec![0u64; k * 64];
    // sil[i·64 + l] before the transpose: lane l's silence mask for node
    // i (bit r = silent in round r + 1); after: per-round lane words.
    let mut sil = vec![0u64; n * 64];
    let mut schedule = FaultSchedule::empty(n, t);
    let mut regs: Vec<u64> = Vec::new();
    let mut base = range.start;
    while base < range.end {
        let live = (range.end - base).min(64);
        let live_mask = if live == 64 {
            u64::MAX
        } else {
            (1u64 << live) - 1
        };
        for l in 0..64 {
            if l < live {
                let mut rng = StreamRng::new(seed, (base + l) as u64);
                for s in 0..k {
                    draws[s * 64 + l] = rng.next_u64();
                }
                spec.fill_schedule(n, t, seed, (base + l) as u64, &mut schedule);
                for i in 0..n {
                    sil[i * 64 + l] = schedule.silent_mask64(i);
                }
            } else {
                for s in 0..k {
                    draws[s * 64 + l] = 0;
                }
                for i in 0..n {
                    sil[i * 64 + l] = 0;
                }
            }
        }
        for s in 0..k {
            transpose64(&mut draws[s * 64..(s + 1) * 64]);
        }
        for i in 0..n {
            transpose64(&mut sil[i * 64..(i + 1) * 64]);
        }
        stepper.reset();
        stats.lane_words += 1;
        let mut solved = plan.eval(stepper.eq_words(), &mut regs) & live_mask;
        if solved != 0 {
            first_solved[0] += u64::from(solved.count_ones());
        }
        for r in 0..t {
            if solved == live_mask {
                break;
            }
            stepper.step_faulted(|s| draws[s * 64 + r], |i| sil[i * 64 + r]);
            let newly = plan.eval(stepper.eq_words(), &mut regs) & live_mask & !solved;
            if newly != 0 {
                first_solved[r] += u64::from(newly.count_ones());
                solved |= newly;
            }
        }
        base += 64;
    }
}

/// In-place 64×64 bit-matrix transpose (delta-swap ladder): afterwards,
/// bit `l` of `a[r]` equals bit `r` of the original `a[l]`.
fn transpose64(a: &mut [u64]) {
    debug_assert_eq!(a.len(), 64);
    let mut j = 32;
    for m in [
        0x0000_0000_ffff_ffffu64,
        0x0000_ffff_0000_ffff,
        0x00ff_00ff_00ff_00ff,
        0x0f0f_0f0f_0f0f_0f0f,
        0x3333_3333_3333_3333,
        0x5555_5555_5555_5555,
    ] {
        for k in (0..64).filter(|k| k & j == 0) {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
        }
        j >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_cache::build_output_table;
    use crate::probability::{
        monte_carlo_parallel, monte_carlo_parallel_faulted, monte_carlo_parallel_with_stats,
        monte_carlo_series_parallel,
    };
    use crate::solvability;
    use rsbt_tasks::{
        pair_count, pair_index, KLeaderElection, LeaderAndDeputy, LeaderElection,
        WeakSymmetryBreaking,
    };
    use std::borrow::Cow;

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    }

    #[test]
    fn transpose_is_the_bit_matrix_transpose() {
        let mut a: Vec<u64> = (0..64).map(|i| mix(i ^ 0xdead)).collect();
        let orig = a.clone();
        transpose64(&mut a);
        for (r, &row) in a.iter().enumerate() {
            for (l, &old) in orig.iter().enumerate() {
                assert_eq!(row >> l & 1, old >> r & 1, "({r},{l})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "involution");
    }

    fn grid() -> Vec<(Model, Box<dyn Task + Sync>, Assignment, usize)> {
        vec![
            (
                Model::Blackboard,
                Box::new(LeaderElection),
                Assignment::from_group_sizes(&[1, 2, 2]).unwrap(),
                5,
            ),
            (
                Model::Blackboard,
                Box::new(WeakSymmetryBreaking),
                Assignment::from_group_sizes(&[2, 2]).unwrap(),
                6,
            ),
            (
                Model::Blackboard,
                Box::new(KLeaderElection::new(2)),
                Assignment::from_group_sizes(&[1, 1, 2]).unwrap(),
                5,
            ),
            (
                Model::Blackboard,
                Box::new(LeaderAndDeputy::unconstrained(4)),
                Assignment::private(4),
                4,
            ),
            (
                Model::message_passing_cyclic(4),
                Box::new(LeaderElection),
                Assignment::private(4),
                4,
            ),
            (
                Model::message_passing_cyclic(3),
                Box::new(WeakSymmetryBreaking),
                Assignment::from_group_sizes(&[1, 2]).unwrap(),
                5,
            ),
        ]
    }

    /// The bit-sliced point estimate at `t` on stream family `SEED`: the
    /// tail of a series to `t`.
    fn sliced_point(
        model: &Model,
        task: &(dyn Task + Sync),
        alpha: &Assignment,
        t: usize,
        samples: usize,
        threads: usize,
        faults: Option<&FaultSpec>,
    ) -> Estimate {
        const SEED: u64 = 42;
        let (series, _) = match faults {
            None => monte_carlo_bitsliced_series_with_stats(
                model, task, alpha, t, samples, SEED, threads,
            ),
            Some(spec) => monte_carlo_bitsliced_series_faulted_with_stats(
                model, task, alpha, t, samples, SEED, threads, spec,
            ),
        };
        series[t - 1]
    }

    #[test]
    fn bitsliced_is_bit_identical_to_the_scalar_kernel() {
        for (model, task, alpha, t) in grid() {
            for samples in [1usize, 63, 64, 65, 200] {
                let reference =
                    monte_carlo_parallel(&model, task.as_ref(), &alpha, t, samples, 42, 1);
                for threads in [1usize, 2, 3, 8] {
                    let sliced =
                        sliced_point(&model, task.as_ref(), &alpha, t, samples, threads, None);
                    assert_eq!(
                        sliced,
                        reference,
                        "{} {model} samples={samples} threads={threads}",
                        task.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bitsliced_series_matches_the_scalar_series() {
        for (model, task, alpha, t_max) in grid() {
            let reference =
                monte_carlo_series_parallel(&model, task.as_ref(), &alpha, t_max, 130, 7, 1);
            for threads in [1usize, 2, 4] {
                let (sliced, _) = monte_carlo_bitsliced_series_with_stats(
                    &model,
                    task.as_ref(),
                    &alpha,
                    t_max,
                    130,
                    7,
                    threads,
                );
                assert_eq!(
                    sliced,
                    reference,
                    "{} {model} threads={threads}",
                    task.name()
                );
            }
        }
    }

    #[test]
    fn faulted_bitsliced_matches_the_faulted_scalar_kernel() {
        let specs = [
            FaultSpec::rates(0.05, 0.15),
            FaultSpec::rates(0.0, 0.3),
            FaultSpec::rates(0.2, 0.0),
        ];
        for (model, task, alpha, t) in grid() {
            for spec in &specs {
                for samples in [63usize, 200] {
                    let reference = monte_carlo_parallel_faulted(
                        &model,
                        task.as_ref(),
                        &alpha,
                        t,
                        samples,
                        42,
                        1,
                        spec,
                    );
                    for threads in [1usize, 3] {
                        let sliced = sliced_point(
                            &model,
                            task.as_ref(),
                            &alpha,
                            t,
                            samples,
                            threads,
                            Some(spec),
                        );
                        assert_eq!(
                            sliced,
                            reference,
                            "{} {model} spec={spec:?} samples={samples} threads={threads}",
                            task.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rate_zero_spec_is_bit_identical_to_the_fault_free_kernels() {
        let spec = FaultSpec::none();
        for (model, task, alpha, t) in grid() {
            let (series, plain_stats) = monte_carlo_bitsliced_series_with_stats(
                &model,
                task.as_ref(),
                &alpha,
                t,
                200,
                11,
                2,
            );
            let (faulted_series, faulted_stats) = monte_carlo_bitsliced_series_faulted_with_stats(
                &model,
                task.as_ref(),
                &alpha,
                t,
                200,
                11,
                2,
                &spec,
            );
            assert_eq!(faulted_series, series, "{} {model} series", task.name());
            assert_eq!(
                faulted_stats.lane_words,
                plain_stats.lane_words,
                "{} {model}",
                task.name()
            );
        }
    }

    #[test]
    fn faulted_series_tail_equals_the_point_estimate_and_stays_monotone() {
        // Schedules are compiled at the series horizon, so interior points
        // are *distributionally* p̂(t) but only the tail is bit-identical
        // to the scalar point kernel at the same horizon.
        let spec = FaultSpec::rates(0.1, 0.2);
        for (model, task, alpha, t_max) in grid() {
            let (series, _) = monte_carlo_bitsliced_series_faulted_with_stats(
                &model,
                task.as_ref(),
                &alpha,
                t_max,
                200,
                13,
                2,
                &spec,
            );
            let point = monte_carlo_parallel_faulted(
                &model,
                task.as_ref(),
                &alpha,
                t_max,
                200,
                13,
                2,
                &spec,
            );
            assert_eq!(series[t_max - 1], point, "{} {model}", task.name());
            for w in series.windows(2) {
                assert!(w[1].solved >= w[0].solved, "{} {model}", task.name());
            }
        }
    }

    #[test]
    fn faulted_plan_path_actually_engages_lanes() {
        // Leader election on the blackboard compiles a lane plan in the
        // identity unit layout: the faulted kernel must run words, not
        // peel.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let (_, stats) = monte_carlo_bitsliced_series_faulted_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            4,
            130,
            9,
            3,
            &FaultSpec::rates(0.1, 0.1),
        );
        assert_eq!(stats.lane_words, 3);
        assert_eq!(stats.peeled_lanes, 0);
    }

    #[test]
    fn faulted_planless_tasks_peel_to_the_scalar_path() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let spec = FaultSpec::rates(0.1, 0.2);
        let (est, stats) = monte_carlo_bitsliced_series_faulted_with_stats(
            &Model::Blackboard,
            &OpaqueLeaderElection,
            &alpha,
            4,
            100,
            5,
            2,
            &spec,
        );
        assert_eq!(stats.peeled_lanes, 100);
        assert_eq!(stats.lane_words, 0);
        // Bit-identical to the plan path on the same underlying task.
        let (want, _) = monte_carlo_bitsliced_series_faulted_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            4,
            100,
            5,
            3,
            &spec,
        );
        assert_eq!(est, want);
    }

    #[test]
    fn lane_word_counters_count_words() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let (_, stats) = monte_carlo_bitsliced_series_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            4,
            130,
            9,
            3,
        );
        // 130 samples over word-aligned chunks: 3 words in total.
        assert_eq!(stats.lane_words, 3);
        assert_eq!(stats.peeled_lanes, 0);
        assert_eq!(stats.closed_form_verdicts, 0, "plan path needs no memo");
    }

    /// Leader election with its closed form and lane plan hidden: forces
    /// the dense-table peel path.
    struct OpaqueLeaderElection;

    impl Task for OpaqueLeaderElection {
        fn name(&self) -> Cow<'static, str> {
            Cow::Borrowed("opaque-leader-election")
        }
        fn output_complex(&self, n: usize) -> rsbt_complex::Complex<u64> {
            LeaderElection.output_complex(n)
        }
    }

    #[test]
    fn planless_tasks_peel_to_the_scalar_path() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let (est, stats) = monte_carlo_bitsliced_series_with_stats(
            &Model::Blackboard,
            &OpaqueLeaderElection,
            &alpha,
            4,
            100,
            5,
            2,
        );
        assert_eq!(stats.peeled_lanes, 100);
        assert_eq!(stats.lane_words, 0);
        assert!(stats.dense_scan_verdicts > 0, "no closed form, no plan");
        // Still bit-identical — and equal to the plan path on the
        // same underlying task.
        let (want, scalar_stats) = monte_carlo_parallel_with_stats(
            &Model::Blackboard,
            &OpaqueLeaderElection,
            &alpha,
            4,
            100,
            5,
            1,
        );
        assert_eq!(est[3], want);
        assert!(scalar_stats.dense_scan_verdicts > 0);
        let (plan_path, _) = monte_carlo_bitsliced_series_with_stats(
            &Model::Blackboard,
            &LeaderElection,
            &alpha,
            4,
            100,
            5,
            3,
        );
        assert_eq!(est, plan_path);
    }

    /// 64 independently randomized node partitions, as both per-lane
    /// label vectors and packed equality words (identity unit layout).
    fn random_lanes(n: usize, salt: u64) -> (Vec<Vec<u8>>, Vec<u64>) {
        let lanes: Vec<Vec<u8>> = (0..64u64)
            .map(|l| {
                (0..n)
                    .map(|i| (mix(salt ^ (l << 16) ^ i as u64) % n as u64) as u8)
                    .collect()
            })
            .collect();
        let mut eq = vec![0u64; pair_count(n)];
        for (l, labels) in lanes.iter().enumerate() {
            for a in 0..n {
                for b in a + 1..n {
                    if labels[a] == labels[b] {
                        eq[pair_index(n, a, b)] |= 1 << l;
                    }
                }
            }
        }
        (lanes, eq)
    }

    /// First-occurrence canonical labels and class representatives (the
    /// layout `facet_scan` expects, mirroring `SolvabilityMemo`).
    fn canonicalize(labels: &[u8]) -> (Vec<u8>, Vec<usize>) {
        let mut canon = Vec::with_capacity(labels.len());
        let mut seen: Vec<u8> = Vec::new();
        let mut reps = Vec::new();
        for (i, &l) in labels.iter().enumerate() {
            match seen.iter().position(|&s| s == l) {
                Some(c) => canon.push(c as u8),
                None => {
                    canon.push(seen.len() as u8);
                    seen.push(l);
                    reps.push(i);
                }
            }
        }
        (canon, reps)
    }

    #[test]
    fn plan_scalar_and_dense_scan_agree_on_random_partitions() {
        // Satellite: VerdictPlan ≡ solves_partition ≡ dense FacetTable
        // scan, for every built-in task, n ≤ 8, 64 random lanes each.
        let mut tasks: Vec<(Box<dyn Task>, usize)> = Vec::new();
        for n in 1..=8usize {
            tasks.push((Box::new(LeaderElection), n));
        }
        for n in 2..=8usize {
            tasks.push((Box::new(WeakSymmetryBreaking), n));
            tasks.push((Box::new(LeaderAndDeputy::unconstrained(n)), n));
            for k in 1..=n {
                tasks.push((Box::new(KLeaderElection::new(k)), n));
            }
        }
        let mut regs = Vec::new();
        for (case, (task, n)) in tasks.iter().enumerate() {
            let n = *n;
            let unit_of_node: Vec<usize> = (0..n).collect();
            let plan = task
                .lane_plan(&unit_of_node, n)
                .unwrap_or_else(|| panic!("{} has no plan for n={n}", task.name()));
            let table = build_output_table(task.as_ref(), n);
            let (lanes, eq) = random_lanes(n, 0x5eed ^ (case as u64) << 8);
            let verdicts = plan.eval(&eq, &mut regs);
            for (l, labels) in lanes.iter().enumerate() {
                let scalar = task.solves_partition(labels).expect("closed form");
                let (canon, reps) = canonicalize(labels);
                let dense = solvability::facet_scan(&table, &canon, &reps);
                assert_eq!(scalar, dense, "{} n={n} lane {l}", task.name());
                assert_eq!(
                    verdicts >> l & 1 == 1,
                    scalar,
                    "{} n={n} lane {l} labels {labels:?}",
                    task.name()
                );
            }
        }
    }

    #[test]
    fn mc_stats_merge_is_fieldwise_addition() {
        // Satellite: sum law plus identity element.
        let a = McStats {
            memo_hits: 1,
            closed_form_verdicts: 2,
            dense_scan_verdicts: 3,
            lane_words: 4,
            peeled_lanes: 5,
        };
        let b = McStats {
            memo_hits: 10,
            closed_form_verdicts: 20,
            dense_scan_verdicts: 30,
            lane_words: 40,
            peeled_lanes: 50,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m,
            McStats {
                memo_hits: 11,
                closed_form_verdicts: 22,
                dense_scan_verdicts: 33,
                lane_words: 44,
                peeled_lanes: 55,
            }
        );
        let mut id = a;
        id.merge(&McStats::default());
        assert_eq!(id, a, "default is the identity");
        let mut id2 = McStats::default();
        id2.merge(&a);
        assert_eq!(id2, a);
    }
}
