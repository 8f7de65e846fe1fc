//! The benchmark's only door into `rsbt`: every workload query maps to
//! the current public entry point here, and every other module of the
//! benchmark goes through these wrappers. When an entry point is renamed
//! or consolidated, this file is the one to edit.

use rsbt_bench::{McSweep, ModelSpec, SweepSpec, TaskSpec};
use rsbt_core::probability::{self, Estimate, McStats};
use rsbt_core::{engine_dp, eventual};
use rsbt_tasks::{KLeaderElection, LeaderElection, WeakSymmetryBreaking};

pub use rand::rngs::StreamRng;
pub use rand::RngCore;
pub use rsbt_bench::{RowMode, SweepEngine, SweepRow as Row};
pub use rsbt_core::engine_dp::DpStats;
pub use rsbt_random::Assignment;
pub use rsbt_sim::{FaultSchedule, FaultSpec, LaneStepper, Model, PortNumbering};
pub use rsbt_tasks::{Task, VerdictPlan};

/// The tasks the workloads query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Leader election.
    Le,
    /// Two-leader election (`KLeaderElection::new(2)`).
    TwoLe,
    /// Weak symmetry breaking.
    Wsb,
}

impl TaskKind {
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::Le => "le",
            TaskKind::TwoLe => "2le",
            TaskKind::Wsb => "wsb",
        }
    }

    /// The task object behind this kind.
    pub fn task(self) -> Box<dyn Task + Send + Sync> {
        match self {
            TaskKind::Le => Box::new(LeaderElection),
            TaskKind::TwoLe => Box::new(KLeaderElection::new(2)),
            TaskKind::Wsb => Box::new(WeakSymmetryBreaking),
        }
    }

    fn spec(self) -> TaskSpec {
        match self {
            TaskKind::Le => TaskSpec::fixed(LeaderElection),
            TaskKind::TwoLe => TaskSpec::fixed(KLeaderElection::new(2)),
            TaskKind::Wsb => TaskSpec::fixed(WeakSymmetryBreaking),
        }
    }
}

/// The models the workloads query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// The anonymous shared blackboard.
    Blackboard,
    /// Message passing under the Lemma 4.3 adversarial numbering for the
    /// profile's gcd.
    Adversarial,
    /// Message passing under the canonical cyclic numbering.
    Cyclic,
}

impl ModelKind {
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Blackboard => "bb",
            ModelKind::Adversarial => "adv",
            ModelKind::Cyclic => "cyc",
        }
    }

    pub fn model(self, alpha: &Assignment) -> Model {
        match self {
            ModelKind::Blackboard => Model::Blackboard,
            ModelKind::Adversarial => Model::MessagePassing(PortNumbering::adversarial(
                alpha.n(),
                alpha.gcd_of_group_sizes() as usize,
            )),
            ModelKind::Cyclic => Model::message_passing_cyclic(alpha.n()),
        }
    }

    fn spec(self) -> ModelSpec {
        match self {
            ModelKind::Blackboard => ModelSpec::blackboard(),
            ModelKind::Adversarial => ModelSpec::adversarial_ports(),
            ModelKind::Cyclic => ModelSpec::cyclic_ports(),
        }
    }
}

pub fn assignment(sizes: &[usize]) -> Assignment {
    Assignment::from_group_sizes(sizes).expect("pool profiles are valid group sizes")
}

/// Every group-size profile of `n` nodes.
pub fn profiles(n: usize) -> impl Iterator<Item = Assignment> {
    Assignment::iter_profiles(n)
}

/// Theorem 4.1: blackboard leader election is eventually solvable iff
/// some group is a singleton.
pub fn thm41_solvable(alpha: &Assignment) -> bool {
    eventual::blackboard_eventually_solvable(alpha)
}

// ---- probability: exact entry points -------------------------------

/// Production exact series `p(1..t_max)`.
pub fn exact_series(model: &Model, task: &dyn Task, alpha: &Assignment, t_max: usize) -> Vec<f64> {
    probability::exact_series(model, task, alpha, t_max)
}

// ---- engine_dp: the quotient DP called directly ----------------------

/// Solved counts per depth straight from the quotient DP.
pub fn dp_series(
    model: &Model,
    task: &dyn Task,
    alpha: &Assignment,
    t_max: usize,
    threads: usize,
) -> (Vec<u128>, DpStats) {
    engine_dp::solved_series_with_stats(model, task, alpha, t_max, threads)
}

// ---- probability: Monte-Carlo entry points ---------------------------

/// The outcome of one Monte-Carlo series query.
pub struct McOutcome {
    /// Samples solved by time `t`, for `t = 1..=t_max`.
    pub solved_by: Vec<u64>,
    pub lane_words: u64,
    pub peeled_lanes: u64,
    pub dense_scan_verdicts: u64,
}

fn mc_outcome(series: &[Estimate], stats: McStats) -> McOutcome {
    McOutcome {
        solved_by: series.iter().map(|e| e.solved).collect(),
        lane_words: stats.lane_words,
        peeled_lanes: stats.peeled_lanes,
        dense_scan_verdicts: stats.dense_scan_verdicts,
    }
}

/// Production bit-sliced Monte-Carlo series, fault-free or under rates.
#[allow(clippy::too_many_arguments)]
pub fn mc_series(
    model: &Model,
    task: &(dyn Task + Sync),
    alpha: &Assignment,
    t_max: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    faults: Option<&FaultSpec>,
) -> McOutcome {
    let (series, stats) = match faults {
        None => probability::monte_carlo_bitsliced_series_with_stats(
            model, task, alpha, t_max, samples, seed, threads,
        ),
        Some(spec) => probability::monte_carlo_bitsliced_series_faulted_with_stats(
            model, task, alpha, t_max, samples, seed, threads, spec,
        ),
    };
    mc_outcome(&series, stats)
}

/// The scalar kernel's solved count at `t` over the same sample streams:
/// the reference the bit-sliced kernel is documented to match bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn mc_scalar_solved(
    model: &Model,
    task: &(dyn Task + Sync),
    alpha: &Assignment,
    t: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    faults: Option<&FaultSpec>,
) -> u64 {
    match faults {
        None => probability::monte_carlo_parallel(model, task, alpha, t, samples, seed, threads),
        Some(spec) => probability::monte_carlo_parallel_faulted(
            model, task, alpha, t, samples, seed, threads, spec,
        ),
    }
    .solved
}

/// The task's compiled lane verdict for a stepper's unit layout.
pub fn lane_plan(task: &dyn Task, stepper: &LaneStepper) -> Option<VerdictPlan> {
    task.lane_plan(stepper.unit_of_node(), stepper.units())
}

// ---- sweep: the declarative sweep engine ------------------------------

/// One `(model, task)` block of a sweep pass.
#[derive(Clone, Copy, Debug)]
pub struct SweepBlock {
    pub model: ModelKind,
    pub task: TaskKind,
    pub n_lo: usize,
    pub n_hi: usize,
    /// Attach the theorem predicate for this block (see `sweep.rs`).
    pub predicate: Option<fn(&Assignment) -> bool>,
}

/// The shape shared by every block of a pass.
#[derive(Clone, Copy, Debug)]
pub struct SweepShape {
    pub t_cap: usize,
    pub bit_budget: usize,
    pub mc_samples: usize,
    pub mc_seed: u64,
}

fn sweep_spec(block: &SweepBlock, shape: &SweepShape) -> SweepSpec {
    let mut spec = SweepSpec::new()
        .model(block.model.spec())
        .task(block.task.spec())
        .nodes(block.n_lo..=block.n_hi)
        .t_cap(shape.t_cap)
        .bit_budget(shape.bit_budget)
        .mc(McSweep {
            samples: shape.mc_samples,
            seed: shape.mc_seed,
        });
    if let Some(p) = block.predicate {
        spec = spec.predicate(p);
    }
    spec
}

/// The row plan the sweep engine will use for `alpha`: `(t_max, estimated)`.
pub fn sweep_row_plan(shape: &SweepShape, alpha: &Assignment) -> (usize, bool) {
    let block = SweepBlock {
        model: ModelKind::Blackboard,
        task: TaskKind::Le,
        n_lo: 1,
        n_hi: 1,
        predicate: None,
    };
    sweep_spec(&block, shape).row_plan(alpha)
}

/// A prepared sweep pass: the specs are built once in set-up.
pub struct SweepPass {
    shape: SweepShape,
    blocks: Vec<SweepBlock>,
    specs: Vec<SweepSpec>,
}

/// What an engine reports besides its rows: its totals so far.
pub struct SweepCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dense_scan_verdicts: u64,
}

impl SweepPass {
    pub fn new(blocks: &[SweepBlock], shape: &SweepShape) -> SweepPass {
        SweepPass {
            shape: *shape,
            blocks: blocks.to_vec(),
            specs: blocks.iter().map(|b| sweep_spec(b, shape)).collect(),
        }
    }

    /// The same blocks restricted to the rows the engine answers exactly.
    pub fn exact_only(&self) -> SweepPass {
        let shape = self.shape;
        SweepPass {
            shape,
            blocks: self.blocks.clone(),
            specs: self
                .blocks
                .iter()
                .map(|b| sweep_spec(b, &shape).filter(move |a| !sweep_row_plan(&shape, a).1))
                .collect(),
        }
    }

    /// The blocks, in the order the pass runs them.
    pub fn blocks(&self) -> &[SweepBlock] {
        &self.blocks
    }

    /// Runs every block on a fresh engine (no cache reuse across passes);
    /// returns each block's rows, in block order.
    pub fn run(&self, threads: usize) -> (Vec<Vec<Row>>, SweepCounters) {
        self.run_on(&mut SweepEngine::new(threads))
    }

    /// [`SweepPass::run`] on `engine`, whose cache keeps earlier passes'
    /// exact points.
    pub fn run_on(&self, engine: &mut SweepEngine) -> (Vec<Vec<Row>>, SweepCounters) {
        let rows = self.specs.iter().map(|spec| engine.sweep(spec)).collect();
        let (cache_hits, cache_misses, _) = engine.cache_stats();
        let mc = engine.mc_stats();
        let counters = SweepCounters {
            cache_hits,
            cache_misses,
            dense_scan_verdicts: mc.dense_scan_verdicts,
        };
        (rows, counters)
    }
}

/// A sweep row's MC stream seed and sample count, when the row was
/// estimated.
pub fn row_mc(row: &Row) -> Option<(u64, usize)> {
    row.mc.as_ref().map(|m| (m.seed, m.samples))
}
