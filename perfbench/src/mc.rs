//! `mc-wide`: production bit-sliced Monte-Carlo series at n = 24, t = 32
//! on `nproc` threads, fault-free and under crash/omission rates. Every
//! query is checked against the scalar kernel on a prefix of its sample
//! streams and must repeat its first answer in every later batch; the
//! traced run replays the lane pipeline stage by stage.

use std::time::Instant;

use crate::api::{self, Assignment, FaultSpec, Model, RngCore, StreamRng, Task};
use crate::expected;
use crate::inputs::{McSlot, MC_CHECK_SAMPLES, MC_RATES, MC_T, MC_WIDE};
use crate::replay::{self, ReplayTotals};
use crate::{Run, Timed};

/// Share of a query's samples the traced run replays.
const REPLAY_DIVISOR: usize = 4;

struct Query {
    slot: &'static McSlot,
    alpha: Assignment,
    model: Model,
    task: Box<dyn Task + Send + Sync>,
    faults: Option<FaultSpec>,
    samples: usize,
    label: String,
}

fn prepare() -> Result<Vec<Query>, String> {
    let mut queries = Vec::new();
    for slot in MC_WIDE {
        if slot.sizes.iter().sum::<usize>() != 24 {
            return Err(format!("mc-wide slot {} is not n = 24", slot.name));
        }
        for faulted in [false, true] {
            if faulted && slot.faulted_samples == 0 {
                continue;
            }
            let alpha = api::assignment(slot.sizes);
            queries.push(Query {
                slot,
                model: slot.model.model(&alpha),
                task: slot.task.task(),
                faults: faulted.then(|| FaultSpec::rates(MC_RATES.0, MC_RATES.1)),
                samples: if faulted {
                    slot.faulted_samples
                } else {
                    slot.samples
                },
                label: format!(
                    "{} {:?}{}",
                    slot.name,
                    slot.sizes,
                    if faulted { " faulted" } else { "" }
                ),
                alpha,
            });
        }
    }
    // Warm-up: a small fault-free and faulted query on one thread.
    let alpha = api::assignment(&[12, 12]);
    let task = api::TaskKind::Le.task();
    let faults = FaultSpec::rates(MC_RATES.0, MC_RATES.1);
    let faulted = api::mc_series(
        &Model::Blackboard,
        task.as_ref(),
        &alpha,
        MC_T,
        1 << 9,
        1,
        1,
        Some(&faults),
    );
    std::hint::black_box(faulted.solved_by);
    let warm = api::mc_series(
        &Model::Blackboard,
        task.as_ref(),
        &alpha,
        MC_T,
        1 << 14,
        1,
        1,
        None,
    );
    if warm.solved_by.iter().any(|&c| c != 0) {
        return Err("warm-up query violates Theorem 4.1".to_string());
    }
    Ok(queries)
}

impl Query {
    fn call(&self, samples: usize, seed: u64, threads: usize) -> api::McOutcome {
        api::mc_series(
            &self.model,
            self.task.as_ref(),
            &self.alpha,
            MC_T,
            samples,
            seed,
            threads,
            self.faults.as_ref(),
        )
    }

    /// Checks that hold for any answer of this query.
    fn check(&self, out: &api::McOutcome) -> Result<(), String> {
        if out.solved_by.len() != MC_T || out.solved_by.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "{}: series is not monotone over t = 1..{MC_T}",
                self.label
            ));
        }
        if out.dense_scan_verdicts != 0 {
            return Err(format!("{}: dense facet scan taken", self.label));
        }
        expected::check_thm41(
            self.slot.model,
            self.slot.task,
            self.faults.is_some(),
            &self.alpha,
            out.solved_by.iter().any(|&c| c != 0),
        )
    }

    /// The kernel's documented contract: bit-identical to the scalar
    /// estimator on the same streams (both on one thread here, so the
    /// check's memory does not depend on thread scheduling).
    fn check_prefix(&self, seed: u64) -> Result<(), String> {
        let threads = 1;
        let bits = self.call(MC_CHECK_SAMPLES, seed, threads);
        let scalar = api::mc_scalar_solved(
            &self.model,
            self.task.as_ref(),
            &self.alpha,
            MC_T,
            MC_CHECK_SAMPLES,
            seed,
            threads,
            self.faults.as_ref(),
        );
        if bits.solved_by[MC_T - 1] != scalar {
            return Err(format!(
                "{}: bit-sliced solved {} of the first {MC_CHECK_SAMPLES} samples, scalar {scalar}",
                self.label,
                bits.solved_by[MC_T - 1]
            ));
        }
        Ok(())
    }
}

pub fn run(run: &mut Run) -> Result<Timed, String> {
    let queries = run.setup(&prepare)?;
    let seed = StreamRng::new(run.seed, 0x6d63).next_u64();
    let mut first: Vec<Option<Vec<u64>>> = vec![None; queries.len()];
    let timed = run.timed_loop(&prepare, |_, run, timed| {
        for (kind, (q, first)) in queries.iter().zip(first.iter_mut()).enumerate() {
            let qid = run.tally.attempted;
            run.query(timed, kind, |run| {
                let t0 = Instant::now();
                let out = q.call(q.samples, seed, run.threads);
                let (_, secs) = run.tracer.span("bitsliced", "mc_series", qid, None, t0);
                q.check(&out)?;
                match first {
                    None => {
                        q.check_prefix(seed)?;
                        *first = Some(out.solved_by);
                    }
                    Some(prev) if *prev != out.solved_by => {
                        return Err(format!("{}: answer changed between batches", q.label));
                    }
                    Some(_) => {}
                }
                Ok((secs, q.samples as f64))
            });
        }
    })?;
    if run.tracer.on() {
        for faulted in [false, true] {
            let (samples, secs) = queries
                .iter()
                .zip(&timed.kinds)
                .filter(|(q, _)| q.faults.is_some() == faulted)
                .fold((0.0, 0.0), |(n, s), (_, k)| {
                    (n + k.1, s + crate::trace::median(&k.0))
                });
            let name = if faulted {
                "bitsliced.faulted_samples_per_s"
            } else {
                "bitsliced.samples_per_s"
            };
            run.layers.set(name, samples / secs, "1/s");
        }
        layer_pass(run, &queries, seed)?;
    }
    Ok(timed)
}

/// Every query once on a quarter of its samples: on `nproc` threads, on
/// one thread, and replayed stage by stage on one thread.
fn layer_pass(run: &mut Run, queries: &[Query], seed: u64) -> Result<(), String> {
    let mut totals = ReplayTotals::default();
    let (mut par_s, mut one_s, mut busy_s) = (0.0, 0.0, 0.0);
    for (i, q) in queries.iter().enumerate() {
        let qid = 1_000_000 + i as u64;
        let samples = q.samples / REPLAY_DIVISOR;
        let t0 = Instant::now();
        let par = q.call(samples, seed, run.threads);
        let (parent, secs) = run.tracer.span("bitsliced", "mc_series_nt", qid, None, t0);
        par_s += secs;
        busy_s += secs;
        let t0 = Instant::now();
        let one = q.call(samples, seed, 1);
        let (_, kernel_s) = run
            .tracer
            .span("bitsliced", "mc_series_1t", qid, Some(parent), t0);
        one_s += kernel_s;
        if one.solved_by != par.solved_by {
            return Err(format!("{}: answer depends on the thread count", q.label));
        }
        let t0 = Instant::now();
        let rep = replay::run(
            &q.model,
            q.task.as_ref(),
            &q.alpha,
            MC_T,
            samples,
            seed,
            q.faults.as_ref(),
        )?;
        let (rid, _) = run
            .tracer
            .span("bitsliced", "replay", qid, Some(parent), t0);
        if rep.solved_by != one.solved_by {
            return Err(format!(
                "{}: replay tallies {:?} differ from the kernel's {:?}",
                q.label, rep.solved_by, one.solved_by
            ));
        }
        let mut at = t0;
        for (layer, name, secs) in [
            ("rand", "draws", rep.rand_s),
            ("faults", "fill_schedule", rep.faults_s),
            ("bitsliced", "transpose", rep.transpose_s),
            ("lanes", "step", rep.lanes_s),
            ("plan", "eval", rep.plan_s),
        ] {
            if secs > 0.0 {
                run.tracer.span_of(layer, name, qid, Some(rid), at, secs);
                at += std::time::Duration::from_secs_f64(secs);
            }
        }
        totals.add(&one, kernel_s, &rep, MC_T);
    }
    totals.report(&mut run.layers);
    run.layers.set("bitsliced.busy_s", busy_s, "s");
    run.layers.set("pool.mc_speedup", one_s / par_s, "ratio");
    Ok(())
}
