//! `perfbench`: the end-to-end and per-layer benchmark of the rsbt
//! production paths. See `README.md` beside this crate for the
//! workloads, the metrics and what each layer metric should move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --generate-expected > expected.txt
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when any
//! query failed or produced a wrong answer.

mod api;
mod exact;
mod expected;
mod inputs;
mod mc;
mod replay;
mod sweep;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use trace::{fastest, median, Metrics, Tracer};

/// The workloads, by name.
const WORKLOADS: &[&str] = &["exact-sources", "mc-wide", "sweep-grid"];

/// Set-ups before the first batch. One more runs after every batch, so
/// the set-ups spread over the whole run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The per-layer metrics every workload prints with `--trace 1`; a layer
/// the workload does not reach reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("probability.self_s", "s"),
    ("probability.cache_hits", "count"),
    ("probability.cache_misses", "count"),
    ("engine_dp.busy_s", "s"),
    ("engine_dp.states", "count"),
    ("engine_dp.transitions", "count"),
    ("engine_dp.rows_built", "count"),
    ("engine_dp.row_hit_ratio", "ratio"),
    ("engine_dp.frontier_max", "count"),
    ("engine_dp.ns_per_transition", "ns"),
    ("engine_dp.dense_scan_verdicts", "count"),
    ("engine_dp.par_speedup", "ratio"),
    ("engine_dp.par_peak_rss_mb", "MB"),
    ("bitsliced.busy_s", "s"),
    ("bitsliced.samples_per_s", "1/s"),
    ("bitsliced.faulted_samples_per_s", "1/s"),
    ("bitsliced.lane_words", "count"),
    ("bitsliced.ns_per_lane_word", "ns"),
    ("bitsliced.peeled_lanes", "count"),
    ("bitsliced.other_s", "s"),
    ("rand.words", "count"),
    ("rand.ns_per_word", "ns"),
    ("lanes.units", "count"),
    ("lanes.steps", "count"),
    ("lanes.ns_per_step", "ns"),
    ("lanes.early_exit_ratio", "ratio"),
    ("plan.ops", "count"),
    ("plan.evals", "count"),
    ("plan.ns_per_eval", "ns"),
    ("faults.schedules", "count"),
    ("faults.ns_per_schedule", "ns"),
    ("pool.mc_speedup", "ratio"),
    ("sweep.rows", "count"),
    ("sweep.exact_rows", "count"),
    ("sweep.mc_rows", "count"),
    ("sweep.expand_s", "s"),
    ("sweep.overhead_s", "s"),
    ("trace.items_per_s", "1/s"),
    ("trace.query_s_p50", "s"),
    ("trace.spans", "count"),
    ("trace.layers", "count"),
];

/// One benchmark invocation.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub tracer: Tracer,
    pub tally: Tally,
    pub layers: Metrics,
    /// Seconds of every set-up so far.
    pub setup_s: Vec<f64>,
}

/// Attempted and failed queries, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// What the timed loop measured over its successful queries, by query
/// kind: `kinds[i]` holds the seconds of every successful query of kind
/// `i` and the items of work one such query does.
#[derive(Default)]
pub struct Timed {
    pub kinds: Vec<(Vec<f64>, f64)>,
    /// Rate every query at its kind's fastest. For a workload that
    /// repeats one short query hundreds of times a run: queries of a kind
    /// do the same work and the shared host only ever slows one down, so
    /// the fastest is the one its neighbours disturbed least, while the
    /// run's total time follows how long the host's slow phases lasted.
    /// With a few long queries per kind the total is the steadier figure.
    pub fastest: bool,
}

impl Timed {
    /// Items of work completed per second of query time. With
    /// [`Timed::fastest`] set, every query counts at the seconds of the
    /// fastest query of its kind.
    pub fn items_per_s(&self) -> f64 {
        let items: f64 = self.kinds.iter().map(|k| k.0.len() as f64 * k.1).sum();
        let secs: f64 = if self.fastest {
            let min = |k: &(Vec<f64>, f64)| k.0.len() as f64 * fastest(&k.0);
            self.kinds.iter().map(min).sum()
        } else {
            self.kinds.iter().flat_map(|k| &k.0).sum()
        };
        items / secs
    }

    /// The typical query's seconds: each kind's median (its own p50),
    /// averaged over the kinds with each kind's share of the queries as
    /// its weight. Every batch runs the same kinds in the same numbers, so
    /// the weights are fixed by the workload and the figure never falls
    /// between two unlike kinds the way a pooled median would.
    pub fn query_s_p50(&self) -> f64 {
        let queries: usize = self.kinds.iter().map(|k| k.0.len()).sum();
        let weighted: f64 = self
            .kinds
            .iter()
            .map(|k| k.0.len() as f64 * median(&k.0))
            .sum();
        weighted / queries as f64
    }
}

impl Run {
    /// Runs one query of kind `kind`: a panic or an `Err`
    /// counts as a failure; on success the query reports its timed
    /// seconds and items of work.
    pub fn query<F>(&mut self, timed: &mut Timed, kind: usize, f: F)
    where
        F: FnOnce(&mut Run) -> Result<(f64, f64), String>,
    {
        self.tally.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(Ok((secs, items))) => {
                if timed.kinds.len() <= kind {
                    timed.kinds.resize_with(kind + 1, Default::default);
                }
                timed.kinds[kind].0.push(secs);
                timed.kinds[kind].1 = items;
            }
            Ok(Err(why)) => self.tally.fail(why),
            Err(panic) => {
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                self.tally.fail(format!("panicked: {why}"));
            }
        }
    }

    /// Runs `prepare` [`SETUP_REPS`] times; returns the last result.
    pub fn setup<P>(&mut self, prepare: &impl Fn() -> Result<P, String>) -> Result<P, String> {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            last = Some(self.time_setup(prepare)?);
        }
        Ok(last.expect("at least one set-up"))
    }

    fn time_setup<P>(&mut self, prepare: &impl Fn() -> Result<P, String>) -> Result<P, String> {
        let t0 = Instant::now();
        let p = prepare()?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        Ok(p)
    }

    /// Runs whole batches of queries until `seconds` of wall time have
    /// passed; `batch(b, run, timed)` runs batch `b`. `prepare` runs once
    /// more after every batch (its time goes to `setup_s`).
    pub fn timed_loop<P, F>(
        &mut self,
        prepare: &impl Fn() -> Result<P, String>,
        mut batch: F,
    ) -> Result<Timed, String>
    where
        F: FnMut(u64, &mut Run, &mut Timed),
    {
        let mut timed = Timed::default();
        let start = Instant::now();
        let mut b = 0;
        while b == 0 || start.elapsed().as_secs_f64() < self.seconds {
            batch(b, self, &mut timed);
            self.time_setup(prepare)?;
            b += 1;
        }
        Ok(timed)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--generate-expected") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Some(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", expected::generate());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        tracer: Tracer::new(args.trace),
        tally: Tally::default(),
        layers: Metrics::default(),
        setup_s: Vec::new(),
    };
    for (name, unit) in LAYERS {
        run.layers.set(name, 0.0, unit);
    }
    let result = match args.workload.as_str() {
        "exact-sources" => exact::run(&mut run),
        "mc-wide" => mc::run(&mut run),
        _ => sweep::run(&mut run),
    };
    let timed = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let setup_s = median(&run.setup_s);
    let mut metrics = Metrics::default();
    if args.trace {
        run.layers
            .set("trace.items_per_s", timed.items_per_s(), "1/s");
        run.layers
            .set("trace.query_s_p50", timed.query_s_p50(), "s");
        run.layers
            .set("trace.spans", run.tracer.len() as f64, "count");
        run.layers
            .set("trace.layers", run.tracer.layers().len() as f64, "count");
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.json",
            args.workload, args.seed
        ));
        if let Err(e) = run.tracer.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "perfbench: {} spans over layers {:?} written to {}",
            run.tracer.len(),
            run.tracer.layers(),
            path.display()
        );
        metrics = std::mem::take(&mut run.layers);
    } else {
        metrics.set("setup_s", setup_s, "s");
        metrics.set("items_per_s", timed.items_per_s(), "1/s");
        metrics.set("peak_rss_mb", trace::peak_rss_mb(), "MB");
    }
    eprintln!(
        "perfbench: {} seed {} threads {}: {} queries ({} failed), {:.4} items/s, p50 {:.6} s, setup {:.6} s",
        args.workload,
        args.seed,
        threads,
        run.tally.attempted,
        run.tally.failed,
        timed.items_per_s(),
        timed.query_s_p50(),
        setup_s
    );
    let setups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("perfbench: set-ups:{}", setups.join(" "));
    for (i, (secs, items)) in timed.kinds.iter().enumerate() {
        let secs: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
        eprintln!("perfbench: kind {i} ({items} items):{}", secs.join(" "));
    }
    for e in &run.tally.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let correct = run.tally.failed == 0;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        run.tally.attempted,
        run.tally.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
