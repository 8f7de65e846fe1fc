//! `sweep-grid`: repeated `SweepEngine::sweep` passes, each on a fresh
//! one-worker engine, over every profile with n ≤ 12 on the blackboard
//! and cyclic ports, LE and WSB. One worker, because with `nproc` workers
//! a pass mostly spawns threads for 256-sample rows, and on a shared
//! 2-vCPU box that spawn time swings twofold with the scheduler; the
//! traced run reports the `nproc` pass against the one-worker pass as
//! `pool.mc_speedup`. A pass is the unit of work and of failure (a panic
//! in one point aborts the whole pass). Exact rows are checked against the
//! committed counts, theorem columns must match, and every estimated row
//! must repeat the first pass's answer. The traced run re-runs the exact
//! rows on the warmed engine (all cache hits) and re-issues every row as
//! a direct entry-point call and compares.

use std::time::Instant;

use crate::api::{
    self, Assignment, ModelKind, RngCore, Row, RowMode, StreamRng, SweepBlock, SweepPass,
    SweepShape, TaskKind,
};
use crate::expected::{self, Expected};
use crate::inputs::{self, SWEEP_N_MAX};
use crate::replay::{self, ReplayTotals};
use crate::{Run, Timed};

/// Theorem 4.1 predicate for blackboard LE.
fn has_singleton(alpha: &Assignment) -> bool {
    api::thm41_solvable(alpha)
}

/// WSB is eventually solvable iff there are at least two sources.
fn two_sources(alpha: &Assignment) -> bool {
    alpha.k() >= 2
}

/// The four `(model, task)` blocks of a pass; WSB starts at n = 2, the
/// smallest n on which it is defined.
pub fn blocks() -> Vec<SweepBlock> {
    let block = |model, task, n_lo, predicate| SweepBlock {
        model,
        task,
        n_lo,
        n_hi: SWEEP_N_MAX,
        predicate,
    };
    vec![
        block(
            ModelKind::Blackboard,
            TaskKind::Le,
            1,
            Some(has_singleton as fn(&Assignment) -> bool),
        ),
        block(ModelKind::Cyclic, TaskKind::Le, 1, None),
        block(
            ModelKind::Blackboard,
            TaskKind::Wsb,
            2,
            Some(two_sources as fn(&Assignment) -> bool),
        ),
        block(
            ModelKind::Cyclic,
            TaskKind::Wsb,
            2,
            Some(two_sources as fn(&Assignment) -> bool),
        ),
    ]
}

/// The pass shape; the run's seed keys the estimated rows' streams.
pub fn shape(seed: u64) -> SweepShape {
    SweepShape {
        t_cap: inputs::SWEEP_T_CAP,
        bit_budget: inputs::SWEEP_BIT_BUDGET,
        mc_samples: inputs::SWEEP_MC_SAMPLES,
        mc_seed: seed,
    }
}

struct Prepared {
    pass: SweepPass,
    /// The same blocks restricted to their exact rows.
    exact_pass: SweepPass,
    committed: Expected,
    rows: usize,
}

fn prepare(seed: u64) -> Result<Prepared, String> {
    let committed = Expected::parse(expected::EXPECTED_TXT)?;
    let shape = shape(seed);
    let mut rows = 0;
    for b in blocks() {
        for n in b.n_lo..=b.n_hi {
            for alpha in api::profiles(n) {
                rows += 1;
                let (t_max, estimated) = api::sweep_row_plan(&shape, &alpha);
                if !estimated {
                    committed.get(&expected::key(b.model, b.task, alpha.group_sizes(), t_max))?;
                }
            }
        }
    }
    let pass = SweepPass::new(&blocks(), &shape);
    let exact_pass = pass.exact_only();
    // Warm-up: a pass over n ≤ 8 on one thread.
    let small: Vec<SweepBlock> = blocks()
        .into_iter()
        .map(|b| SweepBlock { n_hi: 8, ..b })
        .collect();
    let (warm, _) = SweepPass::new(&small, &shape).run(1);
    if warm.iter().flatten().any(|r| r.matches == Some(false)) {
        return Err("warm-up pass contradicts a theorem column".to_string());
    }
    Ok(Prepared {
        pass,
        exact_pass,
        committed,
        rows,
    })
}

impl Prepared {
    /// Checks that hold for every pass: `rows[i]` are the rows of block
    /// `i`.
    fn check(&self, rows: &[Vec<Row>], counters: &api::SweepCounters) -> Result<(), String> {
        let count: usize = rows.iter().map(Vec::len).sum();
        if count != self.rows {
            return Err(format!(
                "pass returned {count} rows, expected {}",
                self.rows
            ));
        }
        if counters.dense_scan_verdicts != 0 {
            return Err("estimated rows took the dense facet scan".to_string());
        }
        for (b, rows) in self.pass.blocks().iter().zip(rows) {
            for r in rows {
                let what = format!("{} {} {:?}", r.model, r.task, r.sizes);
                if r.matches == Some(false) {
                    return Err(format!("{what}: theorem column does not match"));
                }
                if !r.is_monotone() {
                    return Err(format!("{what}: series is not monotone"));
                }
                if r.mode.is_exact() {
                    let key = expected::key(b.model, b.task, &r.sizes, r.series.len());
                    expected::check_series(&r.series, self.committed.get(&key)?, r.k, &what)?;
                }
            }
        }
        Ok(())
    }
}

pub fn run(run: &mut Run) -> Result<Timed, String> {
    let seed = StreamRng::new(run.seed, 0x7377).next_u64();
    let prepare = || prepare(seed);
    let prep = run.setup(&prepare)?;
    let mut first: Option<Vec<Vec<Row>>> = None;
    let mut timed = run.timed_loop(&prepare, |_, run, timed| {
        let qid = run.tally.attempted;
        run.query(timed, 0, |run| {
            let t0 = Instant::now();
            let (rows, counters) = prep.pass.run(1);
            let (_, secs) = run.tracer.span("sweep", "pass", qid, None, t0);
            prep.check(&rows, &counters)?;
            match &first {
                None => first = Some(rows.clone()),
                Some(prev) if *prev != rows => {
                    return Err("pass answer changed between passes".to_string());
                }
                Some(_) => {}
            }
            Ok((secs, prep.rows as f64))
        });
    })?;
    // About a thousand identical passes a run: rate them at the fastest.
    timed.fastest = true;
    if run.tracer.on() {
        layer_pass(run, &prep)?;
    }
    Ok(timed)
}

/// One pass on one thread and on `nproc`, the exact rows again on the
/// warmed one-thread engine, and the same rows re-issued as direct
/// entry-point calls (and DP / replay calls below them).
fn layer_pass(run: &mut Run, prep: &Prepared) -> Result<(), String> {
    let qid = 1_000_000;
    let t0 = Instant::now();
    let mut engine = api::SweepEngine::new(1);
    let (rows, counters) = prep.pass.run_on(&mut engine);
    let (pass_id, pass_1t) = run.tracer.span("sweep", "pass_1t", qid, None, t0);
    prep.check(&rows, &counters)?;

    // The engine's expansion, cache lookups and row assembly: the exact
    // rows again on the warmed engine, where every point is a cache hit
    // and no estimated row runs.
    let t0 = Instant::now();
    let (warm, warm_counters) = prep.exact_pass.run_on(&mut engine);
    let (_, expand_s) = run.tracer.span("sweep", "expand", qid, Some(pass_id), t0);
    if warm_counters.cache_misses != counters.cache_misses {
        return Err("the warmed exact rows missed the cache".to_string());
    }
    for (cold, warm) in rows.iter().zip(&warm) {
        let cold: Vec<&Row> = cold.iter().filter(|r| r.mode.is_exact()).collect();
        if cold.len() != warm.len() || cold.iter().zip(warm).any(|(c, w)| **c != *w) {
            return Err("the warmed exact rows differ from the first pass".to_string());
        }
    }

    let t0 = Instant::now();
    let (rows_nt, _) = prep.pass.run(run.threads);
    let (_, pass_nt) = run.tracer.span("sweep", "pass_nt", qid, None, t0);
    if rows_nt != rows {
        return Err("pass answer depends on the thread count".to_string());
    }

    let mut direct_s = 0.0;
    let (mut entry_exact_s, mut dp_s) = (0.0, 0.0);
    let mut dp = api::DpStats::default();
    let mut totals = ReplayTotals::default();
    let block_rows = prep.pass.blocks().iter().zip(&rows);
    let each_row = block_rows.flat_map(|(b, rows)| rows.iter().map(move |r| (b, r)));
    for (i, (b, r)) in each_row.enumerate() {
        let rq = qid + 1 + i as u64;
        let alpha = api::assignment(&r.sizes);
        let model = b.model.model(&alpha);
        let task = b.task.task();
        let t_max = r.series.len();
        let what = format!("{} {} {:?}", r.model, r.task, r.sizes);
        if r.mode == RowMode::Mc {
            let (mc_seed, samples) =
                api::row_mc(r).ok_or("estimated row without estimator data")?;
            let t0 = Instant::now();
            let out = api::mc_series(
                &model,
                task.as_ref(),
                &alpha,
                t_max,
                samples,
                mc_seed,
                1,
                None,
            );
            let (parent, secs) =
                run.tracer
                    .span("bitsliced", "mc_series_1t", rq, Some(pass_id), t0);
            direct_s += secs;
            let direct: Vec<f64> = out
                .solved_by
                .iter()
                .map(|&c| c as f64 / samples as f64)
                .collect();
            if direct != r.series {
                return Err(format!(
                    "{what}: sweep row differs from the direct estimate"
                ));
            }
            let t0 = Instant::now();
            let rep = replay::run(&model, task.as_ref(), &alpha, t_max, samples, mc_seed, None)?;
            run.tracer.span("bitsliced", "replay", rq, Some(parent), t0);
            if rep.solved_by != out.solved_by {
                return Err(format!("{what}: replay tallies differ from the kernel's"));
            }
            totals.add(&out, secs, &rep, t_max);
        } else {
            let t0 = Instant::now();
            let series = api::exact_series(&model, task.as_ref(), &alpha, t_max);
            let (parent, secs) =
                run.tracer
                    .span("probability", "exact_series", rq, Some(pass_id), t0);
            direct_s += secs;
            entry_exact_s += secs;
            if series != r.series {
                return Err(format!(
                    "{what}: sweep row differs from the direct exact series"
                ));
            }
            let t0 = Instant::now();
            let (_, stats) = api::dp_series(&model, task.as_ref(), &alpha, t_max, 1);
            let (_, secs) = run
                .tracer
                .span("engine_dp", "solved_series", rq, Some(parent), t0);
            dp_s += secs;
            dp.states += stats.states;
            dp.frontier_max = dp.frontier_max.max(stats.frontier_max);
            dp.rows_built += stats.rows_built;
            dp.row_hits += stats.row_hits;
            dp.transitions += stats.transitions;
            dp.dense_scan_verdicts += stats.dense_scan_verdicts;
        }
    }
    let exact_rows: usize = warm.iter().map(Vec::len).sum();
    let l = &mut run.layers;
    totals.report(l);
    l.set("bitsliced.busy_s", totals.kernel_s, "s");
    l.set("probability.self_s", entry_exact_s - dp_s, "s");
    l.set(
        "probability.cache_hits",
        counters.cache_hits as f64,
        "count",
    );
    l.set(
        "probability.cache_misses",
        counters.cache_misses as f64,
        "count",
    );
    l.set("engine_dp.busy_s", dp_s, "s");
    l.set("engine_dp.states", dp.states as f64, "count");
    l.set("engine_dp.transitions", dp.transitions as f64, "count");
    l.set("engine_dp.rows_built", dp.rows_built as f64, "count");
    l.set(
        "engine_dp.row_hit_ratio",
        dp.row_hits as f64 / (dp.row_hits + dp.rows_built).max(1) as f64,
        "ratio",
    );
    l.set("engine_dp.frontier_max", dp.frontier_max as f64, "count");
    l.set(
        "engine_dp.ns_per_transition",
        dp_s * 1e9 / dp.transitions.max(1) as f64,
        "ns",
    );
    l.set(
        "engine_dp.dense_scan_verdicts",
        dp.dense_scan_verdicts as f64,
        "count",
    );
    l.set("pool.mc_speedup", pass_1t / pass_nt, "ratio");
    l.set("sweep.rows", prep.rows as f64, "count");
    l.set("sweep.exact_rows", exact_rows as f64, "count");
    l.set("sweep.mc_rows", (prep.rows - exact_rows) as f64, "count");
    l.set("sweep.expand_s", expand_s, "s");
    l.set("sweep.overhead_s", pass_1t - direct_s, "s");
    Ok(())
}
