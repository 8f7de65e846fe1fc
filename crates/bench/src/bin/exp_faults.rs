//! Experiment `faults` — deterministic fault injection across the
//! Monte-Carlo estimators:
//!
//! 1. **rate-0 identity** — a zero-rate [`FaultSpec`] routed through the
//!    faulted bit-sliced kernel is asserted bit-identical to the
//!    fault-free kernel (point estimates and whole series, across thread
//!    counts): attaching the fault dimension costs nothing when it is
//!    inactive, structurally (no fault RNG is even constructed);
//! 2. **blackboard refinement** — under the blackboard model, silence is
//!    observable (the board shortens), so per-sample the faulted
//!    consistency partition refines the fault-free one and — with common
//!    random numbers, which the sweep's fault axis guarantees — every
//!    faulted series dominates its fault-free row pointwise. Asserted
//!    exactly, not statistically;
//! 3. **degradation curves** — LE and WSB series under a
//!    crash × omission grid for blackboard and cyclic-port models, every
//!    row with Wilson intervals, emitted as fault-tagged sweep rows
//!    (`crash`/`omission` fields) in the JSON report.
//!
//! Message passing carries no dominance assert: a hole compares equal to
//! a hole, so two nodes silenced together can look *more* alike than in
//! the fault-free run — faults may coarsen the partition (DESIGN.md
//! section 4.9).

use std::process::ExitCode;

use rsbt_bench::{
    fmt_sizes, run_experiment, McSweep, ModelSpec, RowMode, SweepRow, SweepSpec, Table, TaskSpec,
};
use rsbt_core::probability;
use rsbt_random::Assignment;
use rsbt_sim::{FaultSpec, Model};
use rsbt_tasks::{LeaderElection, Task, WeakSymmetryBreaking};

const SAMPLES: usize = 4_096;
const SEED: u64 = 0x5253_4254;

/// The committed crash × omission grid (per-round rates). The `(0, 0)`
/// point rides along to witness the rate-0 identity inside the sweep
/// itself.
fn fault_grid() -> Vec<(f64, f64)> {
    vec![
        (0.0, 0.0),
        (0.0, 0.1),
        (0.0, 0.3),
        (0.1, 0.0),
        (0.3, 0.0),
        (0.15, 0.15),
    ]
}

/// LE and WSB at `n = 6`, two-source profiles, `t ≤ 16`, every row
/// estimated (bit budget 1 forces the MC kernel) so the fault rows share
/// source draws with their fault-free base row.
fn degradation_spec(model: ModelSpec) -> SweepSpec {
    SweepSpec::new()
        .model(model)
        .task(TaskSpec::fixed(LeaderElection))
        .task(TaskSpec::fixed(WeakSymmetryBreaking))
        .nodes(6..=6)
        .filter(|alpha| alpha.k() == 2)
        .t_cap(16)
        .bit_budget(1)
        .mc(McSweep {
            samples: SAMPLES,
            seed: SEED,
        })
        .faults(fault_grid())
}

/// Rows per `(task, α)` group: the fault-free base followed by its fault
/// grid, in expansion order.
fn grouped(rows: &[SweepRow]) -> Vec<&[SweepRow]> {
    rows.chunks(1 + fault_grid().len()).collect()
}

fn rate_zero_identity(threads: usize, table: &mut Table) {
    let none = FaultSpec::none();
    for (task, sizes, t) in [
        (
            Box::new(LeaderElection) as Box<dyn Task + Send + Sync>,
            vec![1usize, 5],
            16usize,
        ),
        (Box::new(WeakSymmetryBreaking), vec![3, 3], 16),
    ] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        for model in [Model::Blackboard, Model::message_passing_cyclic(alpha.n())] {
            let (series, _) = probability::monte_carlo_bitsliced_series_with_stats(
                &model,
                task.as_ref(),
                &alpha,
                t,
                SAMPLES,
                SEED,
                threads,
            );
            for faulted_threads in [1usize, threads] {
                let (faulted_series, _) =
                    probability::monte_carlo_bitsliced_series_faulted_with_stats(
                        &model,
                        task.as_ref(),
                        &alpha,
                        t,
                        SAMPLES,
                        SEED,
                        faulted_threads,
                        &none,
                    );
                assert_eq!(
                    faulted_series,
                    series,
                    "{} {sizes:?} {model}: rate-0 series (and its point estimate, the \
                     tail) must be bit-identical (threads={faulted_threads})",
                    task.name()
                );
            }
            let point = series[t - 1];
            table.row(vec![
                task.name().into_owned(),
                fmt_sizes(&sizes),
                model.to_string(),
                t.to_string(),
                format!("{}/{}", point.solved, point.samples),
                "true".into(),
            ]);
        }
    }
}

fn check_rows(model_label: &str, rows: &[SweepRow], assert_dominance: bool) {
    for group in grouped(rows) {
        let base = &group[0];
        assert!(base.crash.is_none(), "groups start at the fault-free row");
        assert_eq!(base.mode, RowMode::Mc, "every row here is estimated");
        for row in group {
            assert!(
                row.is_monotone(),
                "{model_label} {} {:?} ({:?}, {:?}): faulted series must stay \
                 monotone in t (partition refinement survives faults)",
                row.task,
                row.sizes,
                row.crash,
                row.omission
            );
        }
        let zero = &group[1];
        assert_eq!(
            (zero.crash, zero.omission),
            (Some(0.0), Some(0.0)),
            "grid leads with the (0, 0) point"
        );
        assert_eq!(
            zero.series, base.series,
            "{model_label} {} {:?}: the (0, 0) fault row must reproduce the \
             fault-free estimate bit for bit",
            base.task, base.sizes
        );
        if assert_dominance {
            for row in &group[1..] {
                for (t, (&faulted, &free)) in row.series.iter().zip(&base.series).enumerate() {
                    assert!(
                        faulted >= free,
                        "{model_label} {} {:?} ({:?}, {:?}) t={}: blackboard silence \
                         only refines, so the faulted estimate must dominate \
                         ({faulted} < {free})",
                        row.task,
                        row.sizes,
                        row.crash,
                        row.omission,
                        t + 1
                    );
                }
            }
        }
    }
}

fn main() -> ExitCode {
    run_experiment(
        "faults",
        "Deterministic fault injection: rate-0 identity, blackboard dominance, and crash/omission degradation grids",
        "DESIGN.md section 4.9 (fault semantics); Fraigniaud-Gelles-Lotker 2021 model under send-omission and crash faults",
        |eng, rep| {
            let threads = eng.threads();

            let mut table = Table::new(vec![
                "task",
                "sizes",
                "model",
                "t",
                "solved/samples",
                "bit_identical",
            ]);
            rate_zero_identity(threads, &mut table);
            let section = rep.section("rate-0 fault spec vs the fault-free kernels");
            section.table(table);
            section.note(format!(
                "FaultSpec::none() through the faulted bit-sliced kernel is asserted \
                 bit-identical to the fault-free bit-sliced kernel (points and series, \
                 threads 1 and {threads}): at rate 0 no fault RNG is constructed, so the \
                 identity is structural, not numerical"
            ));

            for (mspec, label, dominance) in [
                (ModelSpec::blackboard(), "blackboard", true),
                (ModelSpec::cyclic_ports(), "cyclic ports", false),
            ] {
                let rows = eng.sweep(&degradation_spec(mspec));
                assert!(!rows.is_empty());
                check_rows(label, &rows, dominance);
                let section = rep.section(format!(
                    "degradation under crash/omission faults: {label}, n = 6, t <= 16"
                ));
                section.sweep(format!("fault grid at n = 6 ({label})"), rows);
                if dominance {
                    section.note(
                        "silence is observable on the blackboard (the board shortens), so \
                         per-sample the faulted partition refines the fault-free one; with \
                         common random numbers across the grid the faulted series is \
                         asserted to dominate its base row pointwise - faults only help \
                         these tasks under full-information sharing",
                    );
                } else {
                    section.note(
                        "no dominance assert here: a port slot holding a hole compares \
                         equal to another hole, so jointly-silenced neighbors can look \
                         more alike than in the fault-free run and the partition may \
                         coarsen - message passing genuinely degrades",
                    );
                }
                section.note(format!(
                    "{} samples per row, Wilson 95% intervals in ci_lo/ci_hi; fault rows \
                     carry crash/omission rates in the JSON schema",
                    SAMPLES
                ));
            }
        },
    )
}
