//! Experiment `thm41` — Theorem 4.1: blackboard leader election is
//! eventually solvable iff some source feeds exactly one node.
//!
//! Three sections:
//! 1. the solvability sweep over every group-size profile of `n ≤ 6`
//!    nodes (exact `p(t)` vs the `∃ n_i = 1` predicate);
//! 2. the convergence series `p(t)` against the paper's closed forms
//!    (`S_1` probability and the `1 − (k−1)/2^t` lower bound);
//! 3. a Monte-Carlo cross-check of the exact enumerator.

use rsbt_bench::{fmt_p, fmt_sizes, run_experiment, SweepSpec, Table, TaskSpec};
use rsbt_core::{bounds, eventual, probability};
use rsbt_random::Assignment;
use rsbt_sim::Model;
use rsbt_tasks::LeaderElection;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_experiment(
        "thm41",
        "Theorem 4.1: blackboard leader election ⟺ ∃ i: n_i = 1",
        "Fraigniaud-Gelles-Lotker 2021, Theorem 4.1 (Section 4.1)",
        |eng, rep| {
            // Section 1: solvability over all profiles of n ≤ 6
            // (bit budget 18 keeps exact enumeration feasible: k·t ≤ 18).
            let spec = SweepSpec::new()
                .task(TaskSpec::fixed(LeaderElection))
                .nodes(1..=6)
                .t_cap(3)
                .bit_budget(18)
                .predicate(eventual::blackboard_eventually_solvable);
            let rows = eng.sweep(&spec);
            let all_match = rows.iter().all(|r| r.matches == Some(true));
            let section = rep.section("solvability sweep (predicted = ∃ n_i = 1)");
            section.sweep("theorem 4.1", rows);
            section.note(format!(
                "paper: limit is One exactly when ∃ n_i = 1; every row must match. \
                 all_match = {all_match}"
            ));

            // Section 2: convergence vs closed forms for sizes [1, 2, 2].
            let alpha = Assignment::from_group_sizes(&[1, 2, 2]).unwrap();
            let k = alpha.k();
            let series = eng.exact_series(&Model::Blackboard, &LeaderElection, &alpha, 6);
            let mut table = Table::new(vec![
                "t",
                "exact p(t)",
                "S1 closed form",
                "1-(k-1)/2^t bound",
            ]);
            for (i, &exact) in series.iter().enumerate() {
                let t = i + 1;
                table.row(vec![
                    t.to_string(),
                    fmt_p(exact),
                    fmt_p(bounds::s1_probability(k, t)),
                    fmt_p(bounds::theorem_4_1_lower_bound(k, t)),
                ]);
            }
            let conv = rep.section("convergence for sizes [1,2,2] (k = 3)");
            conv.table(table);
            conv.note("paper: exact ≥ S1 ≥ bound; all three approach 1.");

            // Section 3: Monte-Carlo cross-check. Consistency is judged
            // against the Wilson score interval: the old z-score column
            // was vacuous on the [2,2] row, where p̂ = 0 makes std_error
            // exactly 0 and |Δ|/stderr degenerates to 0-or-∞.
            let mut mc = Table::new(vec![
                "sizes",
                "t",
                "exact",
                "monte-carlo",
                "wilson 99.99% lo",
                "wilson 99.99% hi",
                "consistent",
            ]);
            let mut all_consistent = true;
            for sizes in [vec![1usize, 1], vec![1, 2], vec![1, 2, 2], vec![2, 2]] {
                let alpha = Assignment::from_group_sizes(&sizes).unwrap();
                let t = 4;
                let exact = eng.exact(&Model::Blackboard, &LeaderElection, &alpha, t);
                let (series, _) = probability::monte_carlo_bitsliced_series_with_stats(
                    &Model::Blackboard,
                    &LeaderElection,
                    &alpha,
                    t,
                    50_000,
                    2021,
                    eng.threads(),
                );
                let est = series[t - 1];
                let (lo, hi) = est.wilson(4.0);
                let consistent = est.is_consistent_with(exact, 4.0);
                all_consistent &= consistent;
                mc.row(vec![
                    fmt_sizes(&sizes),
                    t.to_string(),
                    fmt_p(exact),
                    fmt_p(est.p),
                    fmt_p(lo),
                    fmt_p(hi),
                    consistent.to_string(),
                ]);
            }
            assert!(
                all_consistent,
                "every exact value must fall inside its Wilson interval"
            );
            let section = rep.section("Monte-Carlo cross-check (50k samples)");
            section.table(mc);
            section.note(
                "consistency = exact value inside the z = 4 Wilson interval; informative \
                 even on the p = 0 row [2,2], where the old std_error check was vacuous",
            );
        },
    )
}
