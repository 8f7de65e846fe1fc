//! The committed exact answers (`expected.txt`) and the generator that
//! produced them (`perfbench --generate-expected`).
//!
//! One line per exact query: `model task sizes t_max` followed by
//! the solved counts `c(1) … c(t_max)` as decimal `u128`, where
//! `p(t) = c(t) / 2^{k·t}`.

use std::collections::HashMap;

use crate::api::{self, Assignment, ModelKind, TaskKind};
use crate::inputs::{self, ExactSlot};

pub const EXPECTED_TXT: &str = include_str!("../expected.txt");

/// The key of one exact query.
pub fn key(model: ModelKind, task: TaskKind, sizes: &[usize], t_max: usize) -> String {
    let sizes: Vec<String> = sizes.iter().map(usize::to_string).collect();
    format!(
        "{} {} {} {}",
        model.label(),
        task.label(),
        sizes.join(","),
        t_max
    )
}

/// Parsed committed counts, by [`key`].
pub struct Expected {
    counts: HashMap<String, Vec<u128>>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut counts = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(format!("expected.txt line {}: need 5 fields", i + 1));
            }
            let values: Result<Vec<u128>, _> = fields[4].split(',').map(str::parse).collect();
            let values = values.map_err(|e| format!("expected.txt line {}: {e}", i + 1))?;
            counts.insert(fields[..4].join(" "), values);
        }
        Ok(Expected { counts })
    }

    pub fn get(&self, key: &str) -> Result<&[u128], String> {
        self.counts
            .get(key)
            .map(Vec::as_slice)
            .ok_or_else(|| format!("no committed answer for `{key}`"))
    }
}

/// `p(t)` exactly as the production entry points form it from a count.
pub fn probability(count: u128, k: usize, t: usize) -> f64 {
    count as f64 / (1u128 << (k * t)) as f64
}

/// Checks a produced series against the committed counts, bit for bit.
pub fn check_series(series: &[f64], counts: &[u128], k: usize, what: &str) -> Result<(), String> {
    if series.len() != counts.len() {
        return Err(format!(
            "{what}: {} values, {} committed",
            series.len(),
            counts.len()
        ));
    }
    for (t, (&p, &c)) in series.iter().zip(counts).enumerate() {
        let want = probability(c, k, t + 1);
        if p.to_bits() != want.to_bits() {
            return Err(format!("{what}: p({}) = {p}, committed {want}", t + 1));
        }
    }
    Ok(())
}

/// Theorem 4.1 cross-check: blackboard LE without a singleton group (in
/// particular any profile with gcd > 1) solves nothing at any `t`.
pub fn check_thm41(
    model: ModelKind,
    task: TaskKind,
    faulted: bool,
    alpha: &Assignment,
    any_solved: bool,
) -> Result<(), String> {
    if model == ModelKind::Blackboard
        && task == TaskKind::Le
        && !faulted
        && !api::thm41_solvable(alpha)
        && any_solved
    {
        return Err(format!(
            "Theorem 4.1 violated: {:?} has no singleton yet solves",
            alpha.group_sizes()
        ));
    }
    Ok(())
}

fn slot_lines(slots: &[ExactSlot], out: &mut String) {
    for slot in slots {
        for sizes in slot.pool {
            let alpha = api::assignment(sizes);
            let model = slot.model.model(&alpha);
            let task = slot.task.task();
            let t0 = std::time::Instant::now();
            let (counts, stats) = api::dp_series(&model, task.as_ref(), &alpha, slot.t, 1);
            let key = key(slot.model, slot.task, sizes, slot.t);
            eprintln!(
                "{key}: {:.3} s, {} states, {} transitions",
                t0.elapsed().as_secs_f64(),
                stats.states,
                stats.transitions
            );
            push_line(out, &key, &counts);
        }
    }
}

fn push_line(out: &mut String, key: &str, counts: &[u128]) {
    let counts: Vec<String> = counts.iter().map(u128::to_string).collect();
    out.push_str(key);
    out.push(' ');
    out.push_str(&counts.join(","));
    out.push('\n');
}

/// Recomputes every committed answer with the quotient DP, one thread.
pub fn generate() -> String {
    let mut out = String::from(
        "# Exact solved counts for every exact pool of the benchmark.\n\
         # Produced by `perfbench --generate-expected` (quotient DP, 1 thread).\n\
         # model task sizes t_max c(1),...,c(t_max); p(t) = c(t) / 2^(k*t)\n",
    );
    slot_lines(inputs::EXACT_SOURCES, &mut out);
    for block in crate::sweep::blocks() {
        for n in block.n_lo..=block.n_hi {
            for alpha in api::profiles(n) {
                let (t_max, estimated) = api::sweep_row_plan(&crate::sweep::shape(0), &alpha);
                if estimated {
                    continue;
                }
                let model = block.model.model(&alpha);
                let task = block.task.task();
                let (counts, _) = api::dp_series(&model, task.as_ref(), &alpha, t_max, 1);
                let k = key(block.model, block.task, alpha.group_sizes(), t_max);
                push_line(&mut out, &k, &counts);
            }
        }
    }
    out
}
