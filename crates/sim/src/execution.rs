//! Full-information executions: computing `K_i(t)` from a realization.

use std::collections::BTreeMap;

use rsbt_random::Realization;

use crate::faults::FaultSchedule;
use crate::knowledge::{KnowledgeArena, KnowledgeId};
use crate::model::Model;

/// The trace of a full-information execution: every node's knowledge id at
/// every time `0 ≤ t' ≤ t`.
///
/// Because the dynamics are deterministic given the realization (and the
/// port numbering, in the message-passing model), the execution *is* the
/// facet of the protocol complex `P(t)` corresponding to the realization —
/// the content of the paper's facet isomorphism `h`.
///
/// # Example
///
/// ```
/// use rsbt_random::{Assignment, Realization};
/// use rsbt_sim::{Execution, KnowledgeArena, Model};
///
/// let alpha = Assignment::shared(3);
/// let mut rng = rand::thread_rng();
/// let rho = Realization::sample(&alpha, 4, &mut rng);
/// let mut arena = KnowledgeArena::new();
/// let exec = Execution::run(&Model::Blackboard, &rho, &mut arena);
/// // All nodes share the source: a single consistency class forever.
/// assert_eq!(exec.consistency_partition(4).len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Execution {
    /// `ids[t][i]` = `K_i(t)`.
    ids: Vec<Vec<KnowledgeId>>,
}

impl Execution {
    /// Runs the full-information dynamics of `model` on realization `rho`
    /// with input-free initial knowledge (`K_i(0) = ⊥`).
    ///
    /// # Panics
    ///
    /// Panics if `model` is message-passing with a numbering whose node
    /// count differs from the realization's.
    pub fn run(model: &Model, rho: &Realization, arena: &mut KnowledgeArena) -> Execution {
        Execution::run_with_inputs(model, rho, &vec![None; rho.n()], arena)
    }

    /// Runs the dynamics with per-node inputs `K_i(0) = v_i` (used by the
    /// Appendix C reduction for input-output tasks).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rho.n()`, or on a node-count mismatch
    /// with the port numbering.
    pub fn run_with_inputs(
        model: &Model,
        rho: &Realization,
        inputs: &[Option<u64>],
        arena: &mut KnowledgeArena,
    ) -> Execution {
        assert_eq!(inputs.len(), rho.n(), "one input per node");
        Execution::run_silenced(model, rho, inputs, None, arena)
    }

    /// Runs the dynamics under a fault schedule (see [`crate::faults`]):
    /// a node silent in round `t` contributes nothing to the others'
    /// round-`t` knowledge — its blackboard post is absent, its port
    /// messages become [`crate::KnowledgeNode::Hole`] — while its own
    /// knowledge keeps evolving (it still listens and still sees its own
    /// bit). With a fault-free schedule this is exactly
    /// [`Execution::run`].
    ///
    /// # Panics
    ///
    /// Panics if `faults.n() != rho.n()`, or on a node-count mismatch
    /// with the port numbering.
    pub fn run_with_faults(
        model: &Model,
        rho: &Realization,
        faults: &FaultSchedule,
        arena: &mut KnowledgeArena,
    ) -> Execution {
        let n = rho.n();
        assert_eq!(faults.n(), n, "fault schedule covers {} nodes", faults.n());
        Execution::run_silenced(model, rho, &vec![None; n], Some(faults), arena)
    }

    /// The one execution loop: initial knowledge from `inputs`, then every
    /// round through [`RoundStepper::step_faulted`] with the silence of
    /// `faults` at that round (`None`: never silent).
    fn run_silenced(
        model: &Model,
        rho: &Realization,
        inputs: &[Option<u64>],
        faults: Option<&FaultSchedule>,
        arena: &mut KnowledgeArena,
    ) -> Execution {
        let mut stepper = RoundStepper::new(model, rho.n());
        let mut ids: Vec<Vec<KnowledgeId>> = Vec::with_capacity(rho.time() + 1);
        ids.push(inputs.iter().map(|v| arena.initial(*v)).collect());
        for t in 1..=rho.time() {
            let mut now = Vec::with_capacity(rho.n());
            stepper.step_faulted(
                arena,
                &ids[t - 1],
                |i| rho.node(i).bit(t - 1),
                |i| faults.is_some_and(|f| f.is_silent(i, t)),
                &mut now,
            );
            ids.push(now);
        }
        Execution { ids }
    }

    /// The final time `t` of the execution.
    pub fn time(&self) -> usize {
        self.ids.len() - 1
    }

    /// The number of nodes.
    pub fn n(&self) -> usize {
        self.ids[0].len()
    }

    /// `K_i(t')` for node `i` at time `t'`.
    ///
    /// # Panics
    ///
    /// Panics if `t' > time()` or `i ≥ n()`.
    pub fn knowledge(&self, t: usize, i: usize) -> KnowledgeId {
        self.ids[t][i]
    }

    /// All nodes' knowledge ids at time `t'`.
    pub fn knowledge_at(&self, t: usize) -> &[KnowledgeId] {
        &self.ids[t]
    }

    /// The consistency partition at time `t'`: the equivalence classes of
    /// the paper's relation `i ∼_t j ⇔ K_i(t) = K_j(t)`, each class sorted,
    /// classes ordered by smallest member.
    ///
    /// These classes are exactly the facets of the projected complex
    /// `π̃(ρ)`.
    pub fn consistency_partition(&self, t: usize) -> Vec<Vec<usize>> {
        partition_by_id(&self.ids[t])
    }

    /// The sizes of the consistency classes at time `t'`, sorted ascending.
    pub fn class_sizes(&self, t: usize) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.consistency_partition(t).iter().map(Vec::len).collect();
        sizes.sort_unstable();
        sizes
    }

    /// Whether some node's knowledge is unique at time `t'` (a singleton
    /// consistency class — an isolated vertex of `π̃(ρ)`).
    pub fn has_singleton_class(&self, t: usize) -> bool {
        self.class_sizes(t).first() == Some(&1)
    }
}

/// Advances a full-information execution by one round from a *borrowed*
/// knowledge vector — the incremental core of [`Execution::run`] exposed
/// for enumeration engines that walk the tree of per-round source-bit
/// extensions and therefore never hold a whole `Realization`.
///
/// The stepper owns the reusable round buffers (board/port scratch), so a
/// DFS calling [`RoundStepper::step`] once per tree node performs no
/// allocation on arena hits.
///
/// # Example
///
/// ```
/// use rsbt_random::{BitString, Realization};
/// use rsbt_sim::{Execution, KnowledgeArena, Model, RoundStepper};
///
/// let model = Model::Blackboard;
/// let mut arena = KnowledgeArena::new();
/// let mut stepper = RoundStepper::new(&model, 2);
/// let t0 = vec![arena.initial(None), arena.initial(None)];
/// let mut t1 = Vec::new();
/// stepper.step(&mut arena, &t0, |i| i == 0, &mut t1); // bits (1, 0)
///
/// // Same ids as running the whole realization at once.
/// let rho = Realization::new(vec![
///     BitString::from_bits([true]),
///     BitString::from_bits([false]),
/// ]).unwrap();
/// let exec = Execution::run(&model, &rho, &mut arena);
/// assert_eq!(&t1, exec.knowledge_at(1));
/// ```
#[derive(Clone, Debug)]
pub struct RoundStepper {
    model: Model,
    /// Reusable buffer for one node's heard-this-round ids.
    scratch: Vec<KnowledgeId>,
}

impl RoundStepper {
    /// Creates a stepper for `model` on `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `model` is message-passing with a numbering whose node
    /// count differs from `n`.
    pub fn new(model: &Model, n: usize) -> RoundStepper {
        if let Model::MessagePassing(p) = model {
            assert_eq!(p.n(), n, "port numbering covers {} nodes, need {n}", p.n());
        }
        RoundStepper {
            model: model.clone(),
            scratch: Vec::with_capacity(n.saturating_sub(1)),
        }
    }

    /// Computes `K_i(t)` for every node from the time-`t − 1` vector
    /// `prev` and the per-node round bits `bit(i)`, appending the ids to
    /// `out` (cleared first). `prev` may live anywhere — a DFS stack
    /// level, an [`Execution`] row — and is not consumed. This is
    /// [`RoundStepper::step_faulted`] with no node silent.
    ///
    /// # Panics
    ///
    /// Panics if `prev.len()` differs from the stepper's node count in the
    /// message-passing model.
    pub fn step<F>(
        &mut self,
        arena: &mut KnowledgeArena,
        prev: &[KnowledgeId],
        bit: F,
        out: &mut Vec<KnowledgeId>,
    ) where
        F: Fn(usize) -> bool,
    {
        self.step_faulted(arena, prev, bit, |_| false, out);
    }

    /// [`RoundStepper::step`] under silence: node `j` with `silent(j)`
    /// true makes no transmission this round. Blackboard: its post is
    /// simply absent from every other node's board (the board shortens —
    /// silence is observable). Message passing: the receiving port slot
    /// holds the interned [`crate::KnowledgeNode::Hole`] sentinel instead
    /// of the sender's knowledge. The silent node itself still receives,
    /// and its own `prev`/`bit` enter its knowledge as usual.
    ///
    /// [`RoundStepper::step`] is this step with `silent ≡ false`.
    pub fn step_faulted<F, S>(
        &mut self,
        arena: &mut KnowledgeArena,
        prev: &[KnowledgeId],
        bit: F,
        silent: S,
        out: &mut Vec<KnowledgeId>,
    ) where
        F: Fn(usize) -> bool,
        S: Fn(usize) -> bool,
    {
        let n = prev.len();
        out.clear();
        // Interned once per step; only the message-passing branch needs it.
        let mut hole: Option<KnowledgeId> = None;
        for i in 0..n {
            self.scratch.clear();
            let id = match &self.model {
                Model::Blackboard => {
                    self.scratch
                        .extend((0..n).filter(|&j| j != i && !silent(j)).map(|j| prev[j]));
                    arena.round_blackboard_reuse(prev[i], bit(i), &mut self.scratch)
                }
                Model::MessagePassing(ports) => {
                    for j in 1..n {
                        let m = ports.neighbor(i, j);
                        self.scratch.push(if silent(m) {
                            *hole.get_or_insert_with(|| arena.hole())
                        } else {
                            prev[m]
                        });
                    }
                    arena.round_ports_reuse(prev[i], bit(i), &mut self.scratch)
                }
            };
            out.push(id);
        }
    }
}

/// Groups node indices by knowledge id (order of first appearance by
/// smallest node).
pub(crate) fn partition_by_id(ids: &[KnowledgeId]) -> Vec<Vec<usize>> {
    let mut classes: BTreeMap<KnowledgeId, Vec<usize>> = BTreeMap::new();
    for (i, &id) in ids.iter().enumerate() {
        classes.entry(id).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = classes.into_values().collect();
    out.sort_by_key(|c| c[0]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsbt_random::{Assignment, BitString};

    fn bits(s: &str) -> BitString {
        BitString::from_bits(s.chars().map(|c| c == '1'))
    }

    fn rho(strs: &[&str]) -> Realization {
        Realization::new(strs.iter().map(|s| bits(s)).collect()).unwrap()
    }

    #[test]
    fn blackboard_same_bits_same_knowledge() {
        let mut arena = KnowledgeArena::new();
        let exec = Execution::run(&Model::Blackboard, &rho(&["0101", "0101"]), &mut arena);
        for t in 0..=4 {
            assert_eq!(exec.consistency_partition(t), vec![vec![0, 1]], "t={t}");
        }
    }

    #[test]
    fn blackboard_divergence_at_first_differing_bit() {
        let mut arena = KnowledgeArena::new();
        // Bits agree in rounds 1-2, differ in round 3.
        let exec = Execution::run(&Model::Blackboard, &rho(&["0100", "0110"]), &mut arena);
        assert_eq!(exec.consistency_partition(2).len(), 1);
        assert_eq!(exec.consistency_partition(3).len(), 2);
        assert_eq!(exec.consistency_partition(4).len(), 2);
    }

    #[test]
    fn blackboard_knowledge_equality_iff_equal_randomness() {
        // In the blackboard model the paper notes equality of knowledge is
        // equivalent to equality of received randomness.
        let mut arena = KnowledgeArena::new();
        let r = rho(&["011", "010", "011", "110"]);
        let exec = Execution::run(&Model::Blackboard, &r, &mut arena);
        for t in 1..=3 {
            for i in 0..4 {
                for j in 0..4 {
                    let same_k = exec.knowledge(t, i) == exec.knowledge(t, j);
                    let same_x = r.node(i).prefix(t) == r.node(j).prefix(t);
                    assert_eq!(same_k, same_x, "t={t} i={i} j={j}");
                }
            }
        }
    }

    #[test]
    fn consistency_never_recovers() {
        // Once inconsistent, always inconsistent (knowledge is cumulative).
        let mut arena = KnowledgeArena::new();
        // Differ at round 1, re-agree afterwards.
        let exec = Execution::run(&Model::Blackboard, &rho(&["0111", "1111"]), &mut arena);
        for t in 1..=4 {
            assert_eq!(exec.consistency_partition(t).len(), 2, "t={t}");
        }
    }

    #[test]
    fn message_passing_cyclic_symmetric_when_shared() {
        // Shared randomness + rotation-symmetric (cyclic) ports: all nodes
        // stay consistent forever.
        let mut arena = KnowledgeArena::new();
        let exec = Execution::run(
            &Model::message_passing_cyclic(3),
            &rho(&["0110", "0110", "0110"]),
            &mut arena,
        );
        for t in 0..=4 {
            assert_eq!(exec.consistency_partition(t).len(), 1, "t={t}");
        }
    }

    #[test]
    fn message_passing_ports_can_break_symmetry_with_equal_bits() {
        // Asymmetric ports can distinguish nodes with identical randomness:
        // place nodes 0,1,2 all on one source, with a numbering whose
        // "views" differ. Nodes' round-1 knowledge is identical (everyone
        // hears (⊥,⊥)); by round 2 views may diverge only if the numbering
        // breaks the symmetry — with only one source all prior knowledge is
        // equal, so they can never diverge. Sanity-check that.
        let mut arena = KnowledgeArena::new();
        let table = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let ports = crate::ports::PortNumbering::from_table(table);
        let exec = Execution::run(
            &Model::MessagePassing(ports),
            &rho(&["01", "01", "01"]),
            &mut arena,
        );
        assert_eq!(exec.consistency_partition(2).len(), 1);
    }

    #[test]
    fn message_passing_vs_blackboard_difference() {
        // Two sources with sizes [2,2]: in the blackboard model the classes
        // are exactly the source groups; in the message-passing model with
        // a suitable numbering, nodes in the same group can diverge.
        let r = rho(&["01", "01", "11", "11"]);
        let mut arena = KnowledgeArena::new();
        let bb = Execution::run(&Model::Blackboard, &r, &mut arena);
        assert_eq!(bb.consistency_partition(2), vec![vec![0, 1], vec![2, 3]]);

        // Numbering where node 0's port 1 leads into group {2,3} but node
        // 1's port 1 leads into its own group: their round-2 views differ.
        let table = vec![
            vec![2, 1, 3], // node 0: port1→2 (other group)
            vec![0, 2, 3], // node 1: port1→0 (same group)
            vec![3, 0, 1],
            vec![1, 2, 0],
        ];
        let ports = crate::ports::PortNumbering::from_table(table);
        let mp = Execution::run(&Model::MessagePassing(ports), &r, &mut arena);
        // At t=1 messages exchanged are all ⊥ so groups still coincide...
        assert_eq!(mp.consistency_partition(1).len(), 2);
        // ...but at t=2 node 0 heard (k_2, k_1, k_3) while node 1 heard
        // (k_0, k_2, k_3): k_2 ≠ k_0 at t=1, so 0 and 1 diverge.
        assert!(mp.consistency_partition(2).len() > 2);
    }

    #[test]
    fn adversarial_ports_lock_classes_to_multiples_of_g() {
        // Lemma 4.3 preview: sizes [2,2], g=2, adversarial numbering: every
        // class size is a multiple of 2, for every realization.
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let ports = crate::ports::PortNumbering::adversarial(4, 2);
        for t in 1..=3 {
            for r in Realization::enumerate_consistent(&alpha, t) {
                let mut arena = KnowledgeArena::new();
                let exec = Execution::run(&Model::MessagePassing(ports.clone()), &r, &mut arena);
                for size in exec.class_sizes(t) {
                    assert_eq!(size % 2, 0, "t={t} realization {r}");
                }
            }
        }
    }

    #[test]
    fn inputs_enter_knowledge() {
        let mut arena = KnowledgeArena::new();
        let r = rho(&["0", "0"]);
        let exec =
            Execution::run_with_inputs(&Model::Blackboard, &r, &[Some(1), Some(2)], &mut arena);
        // Different inputs make knowledge differ even with equal bits.
        assert_eq!(exec.consistency_partition(1).len(), 2);
        assert_eq!(arena.input(exec.knowledge(1, 0)), Some(1));
    }

    #[test]
    fn singleton_detection() {
        let mut arena = KnowledgeArena::new();
        let exec = Execution::run(&Model::Blackboard, &rho(&["0", "1", "1"]), &mut arena);
        assert!(exec.has_singleton_class(1));
        assert_eq!(exec.class_sizes(1), vec![1, 2]);
        let exec2 = Execution::run(&Model::Blackboard, &rho(&["1", "1", "1"]), &mut arena);
        assert!(!exec2.has_singleton_class(1));
    }

    #[test]
    fn faultfree_schedule_matches_plain_run() {
        let r = rho(&["0110", "1001", "0011"]);
        let faults = crate::faults::FaultSchedule::empty(3, 4);
        for model in [Model::Blackboard, Model::message_passing_cyclic(3)] {
            let mut arena = KnowledgeArena::new();
            let plain = Execution::run(&model, &r, &mut arena);
            let faulted = Execution::run_with_faults(&model, &r, &faults, &mut arena);
            for t in 0..=4 {
                assert_eq!(plain.knowledge_at(t), faulted.knowledge_at(t), "t={t}");
            }
        }
    }

    #[test]
    fn silence_breaks_symmetry_on_the_blackboard() {
        // Identical bits everywhere, but node 2 omits in round 1: the
        // others see a shorter board than node 2 does, and node 2's own
        // post is missing from their view — observable silence separates
        // {0,1} from {2}.
        let r = rho(&["11", "11", "11"]);
        let mut faults = crate::faults::FaultSchedule::empty(3, 2);
        faults.set_omission(2, 1);
        let mut arena = KnowledgeArena::new();
        let exec = Execution::run_with_faults(&Model::Blackboard, &r, &faults, &mut arena);
        assert_eq!(exec.consistency_partition(1), vec![vec![0, 1], vec![2]]);
        // Omission is one round only: no *new* splits afterwards, but the
        // round-1 split persists (knowledge is cumulative).
        assert_eq!(exec.consistency_partition(2), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn silent_node_keeps_listening_and_evolving() {
        // A crashed node still hears the survivors; its knowledge keeps
        // deepening even though it transmits nothing.
        let r = rho(&["010", "101"]);
        let mut faults = crate::faults::FaultSchedule::empty(2, 3);
        faults.set_crash(1, 1);
        let mut arena = KnowledgeArena::new();
        let exec = Execution::run_with_faults(&Model::Blackboard, &r, &faults, &mut arena);
        let k = exec.knowledge(3, 1);
        assert_eq!(arena.depth(k), 3);
        assert_eq!(arena.randomness(k), vec![true, false, true]);
    }

    #[test]
    fn ports_hole_is_distinct_from_every_knowledge() {
        // MP: a silent sender's slot holds Hole, which differs from ⊥ and
        // from any real knowledge — the receivers can tell silence from
        // any message content.
        let r = rho(&["00", "00", "00"]);
        let mut faults = crate::faults::FaultSchedule::empty(3, 2);
        faults.set_omission(0, 1);
        let mut arena = KnowledgeArena::new();
        let model = Model::message_passing_cyclic(3);
        let exec = Execution::run_with_faults(&model, &r, &faults, &mut arena);
        // Node 0 heard everyone (it only failed to send), nodes 1 and 2
        // each have one holed slot at different ports: three classes.
        assert_eq!(exec.consistency_partition(1).len(), 3);
    }

    #[test]
    fn randomness_recoverable_from_knowledge() {
        // The h-map content: knowledge determines the node's own bits.
        let mut arena = KnowledgeArena::new();
        let r = rho(&["0110", "1001"]);
        let exec = Execution::run(&Model::Blackboard, &r, &mut arena);
        for i in 0..2 {
            let bits = arena.randomness(exec.knowledge(4, i));
            let expect: Vec<bool> = r.node(i).iter().collect();
            assert_eq!(bits, expect);
        }
    }
}
