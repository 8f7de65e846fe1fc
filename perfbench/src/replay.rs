//! A replay of the bit-sliced Monte-Carlo lane pipeline built from
//! public parts — `StreamRng` draws, `FaultSpec::fill_schedule`, the
//! `LaneStepper` and the task's `VerdictPlan` — so each stage can be timed
//! on its own. The replay walks the same sample streams in the same lane
//! layout as the kernel, and its per-round solved tallies must equal the
//! kernel's; a replay that disagrees is reported as a failure instead of
//! spans from a different program.
//!
//! Stages are timed per block of [`BLOCK_WORDS`] lane words, not per call,
//! so the timer's own cost stays far below the work it measures. Stepping
//! and plan evaluation interleave round by round, so the block is run
//! twice: once with verdicts (steps + evals, stopping each word at its
//! early exit) and once stepping the same words the same number of rounds
//! without verdicts. The first minus the second is the plan's time.

use std::time::Instant;

use crate::api::{
    self, Assignment, FaultSchedule, FaultSpec, LaneStepper, Model, RngCore, StreamRng, Task,
};

/// Lane words per timed block.
const BLOCK_WORDS: usize = 16;

/// Counters and stage times of one replayed query.
#[derive(Default)]
pub struct Replay {
    /// Samples solved by time `t`, for `t = 1..=t_max`.
    pub solved_by: Vec<u64>,
    pub lane_words: u64,
    pub rand_words: u64,
    pub units: u64,
    pub steps: u64,
    pub evals: u64,
    pub plan_ops: u64,
    pub schedules: u64,
    pub rand_s: f64,
    pub faults_s: f64,
    pub transpose_s: f64,
    pub lanes_s: f64,
    pub plan_s: f64,
}

/// In-place 64×64 bit-matrix transpose: afterwards bit `l` of `a[r]` is
/// bit `r` of the original `a[l]`.
fn transpose64(a: &mut [u64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_ffff_ffffu64;
    while width > 0 {
        for row in 0..64 {
            if row & width == 0 {
                let swap = ((a[row] >> width) ^ a[row + width]) & mask;
                a[row] ^= swap << width;
                a[row + width] ^= swap;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// Replays `samples` samples of one query on one thread.
pub fn run(
    model: &Model,
    task: &dyn Task,
    alpha: &Assignment,
    t: usize,
    samples: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
) -> Result<Replay, String> {
    let k = alpha.k();
    let n = alpha.n();
    let mut stepper = match faults {
        None => LaneStepper::new(model, alpha),
        Some(_) => LaneStepper::new_faulted(model, alpha),
    };
    let plan = api::lane_plan(task, &stepper).ok_or("task compiles no lane plan")?;
    let mut out = Replay {
        solved_by: vec![0; t],
        units: stepper.units() as u64,
        ..Replay::default()
    };
    let silent_nodes = if faults.is_some() { n } else { 0 };
    let mut draws = vec![0u64; BLOCK_WORDS * k * 64];
    let mut sil = vec![0u64; BLOCK_WORDS * silent_nodes * 64];
    let mut rounds = [0usize; BLOCK_WORDS];
    let mut schedule = FaultSchedule::empty(n, t);
    let mut regs = Vec::new();
    let mut first_solved = vec![0u64; t];
    let words_total = samples.div_ceil(64);
    let mut word0 = 0;
    while word0 < words_total {
        let words = (words_total - word0).min(BLOCK_WORDS);
        let live = |w: usize| (samples - (word0 + w) * 64).min(64);

        let t0 = Instant::now();
        for w in 0..words {
            let d = &mut draws[w * k * 64..(w + 1) * k * 64];
            for l in 0..64 {
                if l < live(w) {
                    let mut rng = StreamRng::new(seed, ((word0 + w) * 64 + l) as u64);
                    for s in 0..k {
                        d[s * 64 + l] = rng.next_u64();
                    }
                } else {
                    for s in 0..k {
                        d[s * 64 + l] = 0;
                    }
                }
            }
            out.rand_words += (live(w) * k) as u64;
        }
        out.rand_s += t0.elapsed().as_secs_f64();

        if let Some(spec) = faults {
            let t0 = Instant::now();
            for w in 0..words {
                let m = &mut sil[w * n * 64..(w + 1) * n * 64];
                for l in 0..64 {
                    if l < live(w) {
                        let stream = ((word0 + w) * 64 + l) as u64;
                        spec.fill_schedule(n, t, seed, stream, &mut schedule);
                        for i in 0..n {
                            m[i * 64 + l] = schedule.silent_mask64(i);
                        }
                    } else {
                        for i in 0..n {
                            m[i * 64 + l] = 0;
                        }
                    }
                }
                out.schedules += live(w) as u64;
            }
            out.faults_s += t0.elapsed().as_secs_f64();
        }

        let t0 = Instant::now();
        for block in draws[..words * k * 64].chunks_exact_mut(64) {
            transpose64(block);
        }
        for block in sil[..words * silent_nodes * 64].chunks_exact_mut(64) {
            transpose64(block);
        }
        out.transpose_s += t0.elapsed().as_secs_f64();

        // Steps and verdicts, exactly the kernel's word loop.
        let t0 = Instant::now();
        for w in 0..words {
            let d = &draws[w * k * 64..(w + 1) * k * 64];
            let m = &sil[w * silent_nodes * 64..(w + 1) * silent_nodes * 64];
            let live_mask = if live(w) == 64 {
                u64::MAX
            } else {
                (1u64 << live(w)) - 1
            };
            stepper.reset();
            let mut solved = plan.eval(stepper.eq_words(), &mut regs) & live_mask;
            out.evals += 1;
            if solved != 0 {
                first_solved[0] += u64::from(solved.count_ones());
            }
            let mut r = 0;
            while r < t && solved != live_mask {
                match faults {
                    None => stepper.step(|s| d[s * 64 + r]),
                    Some(_) => stepper.step_faulted(|s| d[s * 64 + r], |i| m[i * 64 + r]),
                }
                let newly = plan.eval(stepper.eq_words(), &mut regs) & live_mask & !solved;
                out.evals += 1;
                if newly != 0 {
                    first_solved[r] += u64::from(newly.count_ones());
                    solved |= newly;
                }
                r += 1;
            }
            rounds[w] = r;
            out.steps += r as u64;
        }
        let with_verdicts = t0.elapsed().as_secs_f64();

        // The same steps without verdicts.
        let t0 = Instant::now();
        for w in 0..words {
            let d = &draws[w * k * 64..(w + 1) * k * 64];
            let m = &sil[w * silent_nodes * 64..(w + 1) * silent_nodes * 64];
            stepper.reset();
            for r in 0..rounds[w] {
                match faults {
                    None => stepper.step(|s| d[s * 64 + r]),
                    Some(_) => stepper.step_faulted(|s| d[s * 64 + r], |i| m[i * 64 + r]),
                }
            }
            std::hint::black_box(stepper.eq_words());
        }
        let steps_only = t0.elapsed().as_secs_f64();
        out.lanes_s += steps_only;
        out.plan_s += with_verdicts - steps_only;

        out.lane_words += words as u64;
        word0 += words;
    }
    out.plan_ops = out.evals * plan.len() as u64;
    let mut solved = 0;
    for (by, first) in out.solved_by.iter_mut().zip(&first_solved) {
        solved += first;
        *by = solved;
    }
    Ok(out)
}

/// Accumulated replay and kernel figures over a workload's traced queries.
#[derive(Default)]
pub struct ReplayTotals {
    pub kernel_s: f64,
    pub lane_words: u64,
    pub peeled_lanes: u64,
    pub rand_words: u64,
    pub units: u64,
    pub steps: u64,
    pub evals: u64,
    pub plan_ops: u64,
    pub schedules: u64,
    pub rand_s: f64,
    pub faults_s: f64,
    pub lanes_s: f64,
    pub plan_s: f64,
    /// `t` summed over lane words: the steps a word would take without
    /// early exit.
    pub word_rounds: u64,
}

impl ReplayTotals {
    /// Folds one traced query: its kernel run (one thread) and replay.
    pub fn add(&mut self, kernel: &api::McOutcome, kernel_s: f64, replay: &Replay, t: usize) {
        self.kernel_s += kernel_s;
        self.lane_words += kernel.lane_words;
        self.peeled_lanes += kernel.peeled_lanes;
        self.rand_words += replay.rand_words;
        self.units += replay.units;
        self.steps += replay.steps;
        self.evals += replay.evals;
        self.plan_ops += replay.plan_ops;
        self.schedules += replay.schedules;
        self.rand_s += replay.rand_s;
        self.faults_s += replay.faults_s;
        self.lanes_s += replay.lanes_s;
        self.plan_s += replay.plan_s;
        self.word_rounds += replay.lane_words * t as u64;
    }

    /// Writes the `bitsliced`, `rand`, `lanes`, `plan` and `faults` metrics.
    pub fn report(&self, layers: &mut crate::trace::Metrics) {
        let per = |secs: f64, count: u64| secs * 1e9 / count.max(1) as f64;
        layers.set("bitsliced.lane_words", self.lane_words as f64, "count");
        layers.set(
            "bitsliced.ns_per_lane_word",
            per(self.kernel_s, self.lane_words),
            "ns",
        );
        layers.set("bitsliced.peeled_lanes", self.peeled_lanes as f64, "count");
        layers.set(
            "bitsliced.other_s",
            self.kernel_s - (self.rand_s + self.faults_s + self.lanes_s + self.plan_s),
            "s",
        );
        layers.set("rand.words", self.rand_words as f64, "count");
        layers.set("rand.ns_per_word", per(self.rand_s, self.rand_words), "ns");
        layers.set("lanes.units", self.units as f64, "count");
        layers.set("lanes.steps", self.steps as f64, "count");
        layers.set("lanes.ns_per_step", per(self.lanes_s, self.steps), "ns");
        layers.set(
            "lanes.early_exit_ratio",
            self.steps as f64 / self.word_rounds.max(1) as f64,
            "ratio",
        );
        layers.set("plan.ops", self.plan_ops as f64, "count");
        layers.set("plan.evals", self.evals as f64, "count");
        layers.set("plan.ns_per_eval", per(self.plan_s, self.evals), "ns");
        layers.set("faults.schedules", self.schedules as f64, "count");
        layers.set(
            "faults.ns_per_schedule",
            per(self.faults_s, self.schedules),
            "ns",
        );
    }
}
