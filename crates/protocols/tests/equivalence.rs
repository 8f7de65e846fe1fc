//! Golden transcripts of the choreographies.
//!
//! Every run is folded into an FNV-1a-64 digest — outputs through their
//! [`Wire`] encodings, then rounds, completion, the [`RunStats`] counters
//! and the crash flags as little-endian integers — and each
//! (protocol, model or port numbering, profile, `t`) cell of runs becomes
//! one line of `golden/transcripts.txt`:
//!
//! ```text
//! key  runs  completed  Σrounds  digest
//! ```
//!
//! The file was recorded from the hand-written protocol nodes the
//! choreographies replaced, and those nodes and the choreographies
//! produced it line for line. Matching it is therefore bit-identity with
//! them: outputs, round counts, completion flags and message counters.
//! The runs are pinned two ways:
//!
//! * exhaustively, over every α-consistent realization with `n ≤ 4`,
//!   `t ≤ 3` (the realization's bits replayed round-major, source-minor —
//!   exactly the runner's draw order — then a deterministic continuation
//!   keyed by the realization index), walked in index order;
//! * statistically, over seeded `StdRng` runs long enough for the
//!   protocols to decide, one line per run.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rsbt_protocols::choreo::{
    consensus_choreo, BleChoreo, Choreography, DeputyChoreo, EuclidChoreo, KLeaderChoreo,
    MatchingChoreo, NodeOutput, WsbChoreo,
};
use rsbt_random::Assignment;
use rsbt_sim::net::Wire;
use rsbt_sim::runner::{RunOutcome, RunStats};
use rsbt_sim::{Model, PortNumbering};

const GOLDEN: &str = include_str!("golden/transcripts.txt");

/// Replays the bits of one enumerated realization in the runner's draw
/// order (round-major, source-minor), then continues with a deterministic
/// pseudorandom stream keyed by the realization index so runs terminate.
struct TapeRng {
    bits: Vec<bool>,
    pos: usize,
    cont: StdRng,
}

impl TapeRng {
    /// The tape of the α-consistent realization at tree index `index`
    /// (bit `(t − r)·k + s` of `index` = bit of source `s` in round `r`).
    fn from_tree_index(k: usize, t: usize, index: u64) -> Self {
        let bits = (1..=t)
            .flat_map(|r| (0..k).map(move |s| index >> ((t - r) * k + s) & 1 == 1))
            .collect();
        TapeRng {
            bits,
            pos: 0,
            cont: StdRng::seed_from_u64(index.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }
}

impl RngCore for TapeRng {
    fn next_u64(&mut self) -> u64 {
        match self.bits.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                u64::from(b)
            }
            None => self.cont.next_u64(),
        }
    }
}

/// FNV-1a-64 over a sequence of run outcomes, plus the cell's run,
/// completion and round tallies.
struct Digest {
    runs: u64,
    completed: u64,
    rounds: u64,
    hash: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            runs: 0,
            completed: 0,
            rounds: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold<O: Wire>(&mut self, out: &RunOutcome<O>) {
        let RunStats {
            posts,
            sends,
            max_msg_bytes,
            crashes,
            omissions,
        } = out.stats;
        let mut bytes = Vec::new();
        out.outputs.encode(&mut bytes);
        for v in [
            out.rounds as u64,
            u64::from(out.completed),
            posts,
            sends,
            max_msg_bytes as u64,
            crashes,
            omissions,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend(out.crashed.iter().map(|&c| u8::from(c)));
        for b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.runs += 1;
        self.completed += u64::from(out.completed);
        self.rounds += out.rounds as u64;
    }

    fn line(&self, key: &str) -> String {
        format!(
            "{key}  {}  {}  {}  {:016x}",
            self.runs, self.completed, self.rounds, self.hash
        )
    }
}

/// Runs `choreo` once in the simulator on `rng`.
fn run<C: Choreography, R: RngCore>(
    choreo: &C,
    model: &Model,
    alpha: &Assignment,
    max_rounds: usize,
    rng: &mut R,
) -> RunOutcome<NodeOutput<C>> {
    choreo
        .simulate(model, alpha, max_rounds, rng)
        .expect("global protocol projects")
}

/// One grid cell: every realization index of the `(k, t)` tree, in order.
fn cell<C>(
    key: String,
    choreo: &C,
    model: &Model,
    alpha: &Assignment,
    t: usize,
    cap: usize,
) -> String
where
    C: Choreography,
    NodeOutput<C>: Wire,
{
    let k = alpha.k();
    let mut digest = Digest::new();
    for index in 0..1u64 << (k * t) {
        let mut rng = TapeRng::from_tree_index(k, t, index);
        digest.fold(&run(choreo, model, alpha, cap, &mut rng));
    }
    digest.line(&key)
}

fn sizes(alpha: &Assignment) -> String {
    let sizes: Vec<String> = alpha.group_sizes().iter().map(usize::to_string).collect();
    format!("sizes={}", sizes.join("+"))
}

/// Compares `lines` with the golden lines whose key starts with one of
/// `prefixes`, naming the first differing key.
fn assert_golden(prefixes: &[&str], lines: &[String]) {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| prefixes.iter().any(|p| l.starts_with(p)))
        .collect();
    for (got, want) in lines.iter().zip(&golden) {
        let key = want.split_whitespace().next().unwrap_or_default();
        assert_eq!(got.as_str(), *want, "first differing golden cell: {key}");
    }
    assert_eq!(
        lines.len(),
        golden.len(),
        "golden cell count differs for {prefixes:?}"
    );
}

#[test]
fn board_elections_match_legacy_over_all_realizations() {
    let bb = Model::Blackboard;
    let mut lines = Vec::new();
    for n in 1..=4 {
        for alpha in Assignment::iter_profiles(n) {
            let s = sizes(&alpha);
            for t in 1..=3usize {
                let key = |p: &str| format!("{p}/bb/{s}/t={t}");
                lines.push(cell(key("blackboard-le"), &BleChoreo, &bb, &alpha, t, 64));
                lines.push(cell(key("wsb-bb"), &WsbChoreo, &bb, &alpha, t, 64));
                let k_leader = KLeaderChoreo { k: 2 };
                lines.push(cell(key("k-leader-bb"), &k_leader, &bb, &alpha, t, 64));
                lines.push(cell(key("deputy-bb"), &DeputyChoreo, &bb, &alpha, t, 64));
            }
        }
    }
    assert_golden(
        &["blackboard-le/", "wsb-bb/", "k-leader-bb/", "deputy-bb/"],
        &lines,
    );
}

#[test]
fn euclid_matches_legacy_over_all_realizations_and_port_numberings() {
    let mut lines = Vec::new();
    for n in 1..=4usize {
        for alpha in Assignment::iter_profiles(n) {
            let k = alpha.k();
            let mut numberings = vec![("cyclic", PortNumbering::cyclic(n))];
            if n > 1 {
                let mut prng = StdRng::seed_from_u64(n as u64);
                numberings.push(("random", PortNumbering::random(n, &mut prng)));
            }
            if n == 4 {
                numberings.push(("adversarial", PortNumbering::adversarial(4, 2)));
            }
            for (name, ports) in numberings {
                let model = Model::MessagePassing(ports);
                for t in 1..=3usize {
                    let key = format!("euclid-le/{name}/{}/t={t}", sizes(&alpha));
                    lines.push(cell(key, &EuclidChoreo { k }, &model, &alpha, t, 256));
                }
            }
        }
    }
    assert_golden(&["euclid-le/"], &lines);
}

#[test]
fn matching_matches_legacy_over_all_realizations() {
    let mut lines = Vec::new();
    for (a, b, n) in [(1, 1, 2), (1, 2, 3), (1, 1, 3), (2, 2, 4), (1, 2, 4)] {
        for alpha in Assignment::iter_profiles(n) {
            let mut prng = StdRng::seed_from_u64((n + a) as u64);
            for (name, ports) in [
                ("cyclic", PortNumbering::cyclic(n)),
                ("random", PortNumbering::random(n, &mut prng)),
            ] {
                let model = Model::MessagePassing(ports);
                for t in 1..=3usize {
                    let key = format!(
                        "create-matching/a={a},b={b},n={n}/{name}/{}/t={t}",
                        sizes(&alpha)
                    );
                    lines.push(cell(key, &MatchingChoreo { a, b }, &model, &alpha, t, 128));
                }
            }
        }
    }
    assert_golden(&["create-matching/"], &lines);
}

#[test]
fn consensus_reduction_matches_legacy_on_blackboard() {
    let inputs = [7u64, 3, 9, 3];
    let mut lines = Vec::new();
    for n in 1..=4usize {
        let choreo = consensus_choreo(BleChoreo, inputs[..n].to_vec());
        for alpha in Assignment::iter_profiles(n) {
            for t in 1..=3usize {
                let key = format!("consensus/bb/{}/t={t}", sizes(&alpha));
                lines.push(cell(key, &choreo, &Model::Blackboard, &alpha, t, 96));
            }
        }
    }
    assert_golden(&["consensus/bb/"], &lines);
}

#[test]
fn consensus_reduction_matches_legacy_under_message_passing() {
    let inputs = [5u64, 5, 1, 8];
    let mut lines = Vec::new();
    for n in 2..=4usize {
        let model = Model::MessagePassing(PortNumbering::cyclic(n));
        for alpha in Assignment::iter_profiles(n) {
            let choreo = consensus_choreo(EuclidChoreo { k: alpha.k() }, inputs[..n].to_vec());
            for t in 1..=2usize {
                let key = format!("consensus/mp/cyclic/{}/t={t}", sizes(&alpha));
                lines.push(cell(key, &choreo, &model, &alpha, t, 256));
            }
        }
    }
    assert_golden(&["consensus/mp/"], &lines);
}

#[test]
fn seeded_long_runs_agree_and_decide() {
    // Statistical leg: long seeded runs where the protocols actually
    // decide, so bit-identity is exercised through decision rounds too.
    let mut lines = Vec::new();
    for seed in 0..8u64 {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let out = run(
            &BleChoreo,
            &Model::Blackboard,
            &alpha,
            128,
            &mut StdRng::seed_from_u64(seed),
        );
        assert!(out.completed, "seed {seed}: ble should decide");
        let mut digest = Digest::new();
        digest.fold(&out);
        lines.push(digest.line(&format!(
            "seeded/blackboard-le/bb/{}/seed={seed}",
            sizes(&alpha)
        )));

        let alpha = Assignment::from_group_sizes(&[2, 3]).unwrap();
        let mut prng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let model = Model::MessagePassing(PortNumbering::random(5, &mut prng));
        let out = run(
            &EuclidChoreo { k: 2 },
            &model,
            &alpha,
            6000,
            &mut StdRng::seed_from_u64(seed),
        );
        assert!(out.completed, "seed {seed}: euclid should decide");
        let mut digest = Digest::new();
        digest.fold(&out);
        lines.push(digest.line(&format!(
            "seeded/euclid-le/random/{}/seed={seed}",
            sizes(&alpha)
        )));
    }
    assert_golden(&["seeded/"], &lines);
}
