//! `exact-sources`: production exact series (`probability::exact_series`),
//! checked against the committed counts; the traced run adds the direct
//! quotient DP calls behind the `engine_dp` and `probability.self_s`
//! metrics.

use std::time::Instant;

use crate::api::{self, Assignment, DpStats, Model, RngCore, StreamRng, Task};
use crate::expected::{self, Expected};
use crate::inputs::{ExactSlot, EXACT_SOURCES};
use crate::{Run, Timed};

/// One pool entry, built in set-up.
struct Query {
    slot: &'static ExactSlot,
    alpha: Assignment,
    model: Model,
    task: Box<dyn Task + Send + Sync>,
    counts: Vec<u128>,
    label: String,
}

struct Prepared {
    /// `queries[s][e]`: entry `e` of slot `s`.
    queries: Vec<Vec<Query>>,
}

impl Prepared {
    fn new(slots: &'static [ExactSlot]) -> Result<Prepared, String> {
        let committed = Expected::parse(expected::EXPECTED_TXT)?;
        let mut queries = Vec::new();
        for slot in slots {
            let mut built = Vec::new();
            for sizes in slot.pool {
                let alpha = api::assignment(sizes);
                let key = expected::key(slot.model, slot.task, sizes, slot.t);
                built.push(Query {
                    slot,
                    model: slot.model.model(&alpha),
                    task: slot.task.task(),
                    counts: committed.get(&key)?.to_vec(),
                    alpha,
                    label: format!("{} {key}", slot.name),
                });
            }
            queries.push(built);
        }
        // Warm-up: one small production query, so code and allocator
        // pages are in before the first timed query.
        let alpha = api::assignment(&[2, 2, 2, 2, 2, 2, 2]);
        let task = api::TaskKind::Le.task();
        let warm = api::exact_series(&Model::Blackboard, task.as_ref(), &alpha, 6);
        if warm.iter().any(|&p| p != 0.0) {
            return Err("warm-up query violates Theorem 4.1".to_string());
        }
        Ok(Prepared { queries })
    }

    /// Batch `b`: `per_batch` seed-picked entries of every slot, each
    /// with its slot index. Every batch has the same slots in the same
    /// order; only the picked entries change.
    fn batch(&self, seed: u64, b: u64) -> Vec<(usize, &Query)> {
        let mut rng = StreamRng::new(seed, b);
        let mut out = Vec::new();
        for (s, slot) in self.queries.iter().enumerate() {
            for _ in 0..slot[0].slot.per_batch {
                let e = (rng.next_u64() % slot.len() as u64) as usize;
                out.push((s, &slot[e]));
            }
        }
        out
    }
}

impl Query {
    /// The production entry point for this query; returns its seconds.
    fn entry(&self, run: &mut Run, qid: u64) -> Result<f64, String> {
        let t = self.slot.t;
        let k = self.alpha.k();
        let t0 = Instant::now();
        let series = api::exact_series(&self.model, self.task.as_ref(), &self.alpha, t);
        let (_, secs) = run
            .tracer
            .span("probability", "exact_series", qid, None, t0);
        expected::check_series(&series, &self.counts, k, &self.label)?;
        expected::check_thm41(
            self.slot.model,
            self.slot.task,
            false,
            &self.alpha,
            series.iter().any(|&p| p != 0.0),
        )?;
        Ok(secs)
    }

    /// The quotient DP behind the entry point, called directly.
    fn direct(&self, threads: usize) -> (Vec<u128>, DpStats) {
        api::dp_series(
            &self.model,
            self.task.as_ref(),
            &self.alpha,
            self.slot.t,
            threads,
        )
    }
}

pub fn run(run: &mut Run) -> Result<Timed, String> {
    let prepare = || Prepared::new(EXACT_SOURCES);
    let prep = run.setup(&prepare)?;
    let seed = run.seed;
    let timed = run.timed_loop(&prepare, |b, run, timed| {
        for (kind, q) in prep.batch(seed, b) {
            let qid = run.tally.attempted;
            run.query(timed, kind, |run| q.entry(run, qid).map(|secs| (secs, 1.0)));
        }
    })?;
    if run.tracer.on() {
        layer_pass(run, &prep, seed)?;
    }
    Ok(timed)
}

/// The first batch as entry + direct calls, for deterministic counters
/// and the entry point's own time; then the DP's thread speed-up on the
/// heaviest query.
fn layer_pass(run: &mut Run, prep: &Prepared, seed: u64) -> Result<(), String> {
    let batch: Vec<&Query> = prep.batch(seed, 0).into_iter().map(|(_, q)| q).collect();
    let mut total = DpStats::default();
    let mut dp_s = 0.0;
    let mut self_s = 0.0;
    let mut heaviest: Option<(&Query, u64)> = None;
    for (i, q) in batch.iter().enumerate() {
        let qid = 1_000_000 + i as u64;
        let entry_s = q.entry(run, qid)?;
        let t0 = Instant::now();
        let (counts, stats) = q.direct(1);
        let (_, secs) = run.tracer.span("engine_dp", "solved_series", qid, None, t0);
        if counts != q.counts {
            return Err(format!(
                "{}: direct DP counts differ from committed",
                q.label
            ));
        }
        if stats.dense_scan_verdicts != 0 {
            return Err(format!("{}: dense facet scan taken", q.label));
        }
        dp_s += secs;
        self_s += entry_s - secs;
        if heaviest.is_none_or(|(_, tr)| stats.transitions > tr) {
            heaviest = Some((q, stats.transitions));
        }
        total.states += stats.states;
        total.frontier_max = total.frontier_max.max(stats.frontier_max);
        total.rows_built += stats.rows_built;
        total.row_hits += stats.row_hits;
        total.transitions += stats.transitions;
        total.dense_scan_verdicts += stats.dense_scan_verdicts;
    }
    let (q, _) = heaviest.expect("a batch has queries");
    let qid = 2_000_000;
    let t0 = Instant::now();
    let one = q.direct(1);
    let (_, one_s) = run
        .tracer
        .span("engine_dp", "solved_series_1t", qid, None, t0);
    let t0 = Instant::now();
    let par = q.direct(run.threads);
    let (_, par_s) = run
        .tracer
        .span("engine_dp", "solved_series_nt", qid, None, t0);
    let par_peak_rss_mb = crate::trace::peak_rss_mb();
    if one.0 != par.0 {
        return Err(format!("{}: counts depend on the thread count", q.label));
    }
    let l = &mut run.layers;
    l.set("probability.self_s", self_s, "s");
    l.set("engine_dp.busy_s", dp_s, "s");
    l.set("engine_dp.states", total.states as f64, "count");
    l.set("engine_dp.transitions", total.transitions as f64, "count");
    l.set("engine_dp.rows_built", total.rows_built as f64, "count");
    l.set(
        "engine_dp.row_hit_ratio",
        total.row_hits as f64 / (total.row_hits + total.rows_built).max(1) as f64,
        "ratio",
    );
    l.set("engine_dp.frontier_max", total.frontier_max as f64, "count");
    l.set(
        "engine_dp.ns_per_transition",
        dp_s * 1e9 / total.transitions.max(1) as f64,
        "ns",
    );
    l.set(
        "engine_dp.dense_scan_verdicts",
        total.dense_scan_verdicts as f64,
        "count",
    );
    l.set("engine_dp.par_speedup", one_s / par_s, "ratio");
    l.set("engine_dp.par_peak_rss_mb", par_peak_rss_mb, "MB");
    eprintln!(
        "perfbench: DP thread scaling on {}: {:.3} s at 1 thread, {:.3} s at {} threads",
        q.label, one_s, par_s, run.threads
    );
    Ok(())
}
