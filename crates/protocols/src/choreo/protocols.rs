//! The paper's protocols as choreographies: global descriptions plus
//! projected role implementations.
//!
//! Each protocol's send/receive discipline is declared once in a
//! [`GlobalProtocol`] and enforced by the projected machines; the role
//! types hold only the per-round logic. The golden-transcript suite
//! (`tests/equivalence.rs`) pins every protocol's
//! [`RunOutcome`](rsbt_sim::runner::RunOutcome)s — outputs, rounds and
//! counters — over exhaustive realization grids.

use std::collections::BTreeMap;
use std::sync::Arc;

use rsbt_sim::net::Wire;
use rsbt_sim::runner::{BoardView, Incoming, Outgoing, PortsView, Protocol, RoundCtx};
use rsbt_sim::Model;

use super::backend::Choreography;
use super::global::{
    ActionKind, GlobalProtocol, ModelClass, Participation, PhaseExit, PhaseSpec, Projection,
    RoleSpec,
};
use super::machine::{
    AnyAction, BoardAction, BoardMachine, BoardRole, DualMachine, DualRole, PortAction,
    PortMachine, PortRole, View,
};
use crate::deputy_bb::DeputyRole;
use crate::euclid_le::EuclidMsg;
use crate::matching::{MatchMsg, MatchStatus};
use crate::reduction::ReductionMsg;
use crate::role::Role;

/// The shared single-role, single-phase, full-participation shape of the
/// blackboard election protocols.
fn board_election_global(name: &'static str) -> GlobalProtocol {
    GlobalProtocol {
        name,
        model: ModelClass::Blackboard,
        participation: Participation::Full,
        roles: vec![RoleSpec {
            name: "node",
            min_count: 1,
        }],
        phases: vec![PhaseSpec {
            name: "elect",
            actions: vec![("node", vec![ActionKind::Post])],
            exit: PhaseExit::Decision,
        }],
    }
}

/// Sizes of the equality classes among the posted strings plus `mine`, in
/// lexicographic string order, and the index of `mine`'s class. Every
/// node computes the same classes: the board plus its own string is the
/// same multiset everywhere.
fn string_classes(board: &[Vec<bool>], mine: &[bool]) -> (Vec<usize>, usize) {
    let mut all: Vec<&[bool]> = board.iter().map(Vec::as_slice).collect();
    all.push(mine);
    all.sort();
    let mut sizes: Vec<usize> = Vec::new();
    let mut own = 0;
    for (i, s) in all.iter().enumerate() {
        match sizes.last_mut() {
            Some(size) if all[i - 1] == *s => *size += 1,
            _ => sizes.push(1),
        }
        if *s == mine {
            own = sizes.len() - 1;
        }
    }
    (sizes, own)
}

// ---------------------------------------------------------------------------
// Blackboard leader election (Theorem 4.1)
// ---------------------------------------------------------------------------

/// Projected role of [`BleChoreo`].
#[derive(Clone, Debug, Default)]
pub struct BleRole {
    history: Vec<bool>,
    decided: Option<Role>,
}

impl BoardRole for BleRole {
    type Msg = Vec<bool>;
    type Output = Role;

    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Vec<bool>>) -> BoardAction<Vec<bool>> {
        if ctx.round > 1 {
            let (sizes, own) = string_classes(&board, &self.history);
            // Lexicographically smallest string occurring exactly once.
            if let Some(winner) = sizes.iter().position(|&size| size == 1) {
                self.decided = Some(if winner == own {
                    Role::Leader
                } else {
                    Role::Follower
                });
                return BoardAction::Silent;
            }
        } else if ctx.n == 1 {
            self.decided = Some(Role::Leader);
            return BoardAction::Silent;
        }
        self.history.push(ctx.bit);
        BoardAction::Post(self.history.clone())
    }

    fn decision(&self) -> Option<Role> {
        self.decided
    }

    fn msg_bytes(msg: &Vec<bool>) -> usize {
        msg.wire_len()
    }
}

/// Blackboard leader election (Theorem 4.1, 'if' direction).
///
/// Every round, each node posts the bit string it has received from its
/// randomness source so far. At the start of round `r + 1` every node
/// sees the same multiset of `n` length-`r` strings. As soon as some
/// string is *unique* in it, all nodes agree on the leader: the holder of
/// the lexicographically smallest unique string. With a singleton source
/// this happens eventually with probability 1; with none, no string is
/// ever unique and the protocol runs forever — the dichotomy of
/// Theorem 4.1.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rsbt_protocols::choreo::{BleChoreo, Choreography};
/// use rsbt_protocols::{leader_count, Role};
/// use rsbt_random::Assignment;
/// use rsbt_sim::Model;
///
/// let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let out = BleChoreo.simulate(&Model::Blackboard, &alpha, 64, &mut rng).unwrap();
/// assert!(out.completed);
/// assert_eq!(leader_count(&out.outputs), 1);
/// assert_eq!(out.outputs[0], Some(Role::Leader));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct BleChoreo;

impl Choreography for BleChoreo {
    type Node = BoardMachine<BleRole>;

    fn name(&self) -> &'static str {
        "blackboard-le"
    }

    fn global(&self) -> GlobalProtocol {
        board_election_global("blackboard-le")
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        BoardMachine::new(BleRole::default(), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// Blackboard k-leader election
// ---------------------------------------------------------------------------

/// Projected role of [`KLeaderChoreo`].
#[derive(Clone, Debug)]
pub struct KLeaderRole {
    k: usize,
    history: Vec<bool>,
    decided: Option<Role>,
}

impl KLeaderRole {
    /// A fresh node for the exactly-`k`-leaders task.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need k ≥ 1");
        KLeaderRole {
            k,
            history: Vec::new(),
            decided: None,
        }
    }

    /// The lexicographically first set of equality classes (given by
    /// their sizes, in string order) whose sizes sum to `k`.
    pub(crate) fn choose_classes(sizes: &[usize], k: usize) -> Option<Vec<usize>> {
        fn rec(sizes: &[usize], k: usize, from: usize, chosen: &mut Vec<usize>) -> bool {
            if k == 0 {
                return true;
            }
            for i in from..sizes.len() {
                if sizes[i] <= k {
                    chosen.push(i);
                    if rec(sizes, k - sizes[i], i + 1, chosen) {
                        return true;
                    }
                    chosen.pop();
                }
            }
            false
        }
        let mut chosen = Vec::new();
        rec(sizes, k, 0, &mut chosen).then_some(chosen)
    }
}

impl BoardRole for KLeaderRole {
    type Msg = Vec<bool>;
    type Output = Role;

    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Vec<bool>>) -> BoardAction<Vec<bool>> {
        if ctx.round > 1 {
            let (sizes, own) = string_classes(&board, &self.history);
            if let Some(chosen) = KLeaderRole::choose_classes(&sizes, self.k) {
                self.decided = Some(if chosen.contains(&own) {
                    Role::Leader
                } else {
                    Role::Follower
                });
                return BoardAction::Silent;
            }
        } else if ctx.n == 1 && self.k == 1 {
            self.decided = Some(Role::Leader);
            return BoardAction::Silent;
        }
        self.history.push(ctx.bit);
        BoardAction::Post(self.history.clone())
    }

    fn decision(&self) -> Option<Role> {
        self.decided
    }

    fn msg_bytes(msg: &Vec<bool>) -> usize {
        msg.wire_len()
    }
}

/// Blackboard exactly-`k`-leaders election.
///
/// Generalizes [`BleChoreo`]: all nodes see the same partition of the
/// posted strings into equality classes, and as soon as some classes'
/// sizes sum to exactly `k`, the lexicographically first such collection
/// leads. Solvable eventually iff the group sizes admit classes summing
/// to `k` (for `k = 2`: a source of size 2 or two singleton sources).
#[derive(Clone, Copy, Debug)]
pub struct KLeaderChoreo {
    /// Number of leaders to elect.
    pub k: usize,
}

impl Choreography for KLeaderChoreo {
    type Node = BoardMachine<KLeaderRole>;

    fn name(&self) -> &'static str {
        "k-leader-bb"
    }

    fn global(&self) -> GlobalProtocol {
        board_election_global("k-leader-bb")
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        BoardMachine::new(KLeaderRole::new(self.k), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// Blackboard weak symmetry breaking
// ---------------------------------------------------------------------------

/// Projected role of [`WsbChoreo`].
#[derive(Clone, Debug, Default)]
pub struct WsbRole {
    history: Vec<bool>,
    decided: Option<u8>,
}

impl BoardRole for WsbRole {
    type Msg = Vec<bool>;
    type Output = u8;

    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Vec<bool>>) -> BoardAction<Vec<bool>> {
        if ctx.round > 1 {
            let mine = self.history.clone();
            let min = board.iter().min().map_or(&mine, |m| m.min(&mine));
            let max = board.iter().max().map_or(&mine, |m| m.max(&mine));
            if min != max {
                self.decided = Some(u8::from(mine != *min));
                return BoardAction::Silent;
            }
        }
        self.history.push(ctx.bit);
        BoardAction::Post(self.history.clone())
    }

    fn decision(&self) -> Option<u8> {
        self.decided
    }

    fn msg_bytes(msg: &Vec<bool>) -> usize {
        msg.wire_len()
    }
}

/// Blackboard weak symmetry breaking: output bits, not all equal.
///
/// As soon as two distinct strings are on the board, the holders of the
/// lexicographically smallest one output `0` and everyone else `1`.
/// Solvable eventually iff there are at least two sources.
#[derive(Clone, Copy, Debug, Default)]
pub struct WsbChoreo;

impl Choreography for WsbChoreo {
    type Node = BoardMachine<WsbRole>;

    fn name(&self) -> &'static str {
        "wsb-bb"
    }

    fn global(&self) -> GlobalProtocol {
        board_election_global("wsb-bb")
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        BoardMachine::new(WsbRole::default(), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// Blackboard leader-and-deputy election
// ---------------------------------------------------------------------------

/// Projected role of [`DeputyChoreo`].
#[derive(Clone, Debug, Default)]
pub struct DeputyElectRole {
    history: Vec<bool>,
    decided: Option<DeputyRole>,
}

impl BoardRole for DeputyElectRole {
    type Msg = Vec<bool>;
    type Output = DeputyRole;

    fn step(&mut self, ctx: RoundCtx, board: BoardView<'_, Vec<bool>>) -> BoardAction<Vec<bool>> {
        if ctx.round > 1 {
            let (sizes, own) = string_classes(&board, &self.history);
            // The two lexicographically smallest unique strings.
            let uniques: Vec<usize> = (0..sizes.len()).filter(|&c| sizes[c] == 1).collect();
            if uniques.len() >= 2 {
                self.decided = Some(if own == uniques[0] {
                    DeputyRole::Leader
                } else if own == uniques[1] {
                    DeputyRole::Deputy
                } else {
                    DeputyRole::Follower
                });
                return BoardAction::Silent;
            }
        }
        self.history.push(ctx.bit);
        BoardAction::Post(self.history.clone())
    }

    fn decision(&self) -> Option<DeputyRole> {
        self.decided
    }

    fn msg_bytes(msg: &Vec<bool>) -> usize {
        msg.wire_len()
    }
}

/// Blackboard leader-and-deputy election — the algorithmic side of the
/// paper's Section 5 future-work example (unconstrained roles).
///
/// Decides once the board holds **two distinct unique strings**: their
/// holders become leader (smaller string) and deputy (next unique
/// string), everyone else follows. Solvable eventually iff at least two
/// sources are singletons — strictly more than Theorem 4.1 needs.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeputyChoreo;

impl Choreography for DeputyChoreo {
    type Node = BoardMachine<DeputyElectRole>;

    fn name(&self) -> &'static str {
        "deputy-bb"
    }

    fn global(&self) -> GlobalProtocol {
        board_election_global("deputy-bb")
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        BoardMachine::new(DeputyElectRole::default(), projection.local("node").clone())
    }
}

/// Draws a uniform index below `m` by rejection sampling from the front of
/// `bits`: consumes `⌈log₂ m⌉` bits (none when `m == 1`) and rejects
/// values `≥ m`. `None` when too few bits are buffered or on rejection —
/// the caller retries next iteration.
pub(crate) fn draw_index(bits: &mut Vec<bool>, m: usize) -> Option<usize> {
    if m == 1 {
        return Some(0);
    }
    let needed = usize::BITS as usize - (m - 1).leading_zeros() as usize;
    if bits.len() < needed {
        return None;
    }
    let v = bits
        .drain(..needed)
        .fold(0usize, |acc, b| acc << 1 | usize::from(b));
    (v < m).then_some(v)
}

// ---------------------------------------------------------------------------
// Euclid leader election (Theorem 4.2)
// ---------------------------------------------------------------------------

/// Projected role of [`EuclidChoreo`]: discovery phase (broadcast
/// histories until `k` distinct strings freeze the groups), then the
/// subtractive Euclid loop of matchings.
#[derive(Clone, Debug)]
pub struct EuclidRole {
    k: usize,
    history: Vec<bool>,
    freeze_round: Option<usize>,
    my_group: usize,
    port_group: Vec<usize>,
    port_active: Vec<bool>,
    self_active: bool,
    pub(crate) sizes: Vec<usize>,
    pair: Option<(usize, usize)>,
    matched_self: bool,
    matched_a_count: usize,
    bit_buffer: Vec<bool>,
    decided: Option<Role>,
}

impl EuclidRole {
    /// A fresh node expecting `k` distinct randomness sources.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "at least one source");
        EuclidRole {
            k,
            history: Vec::new(),
            freeze_round: None,
            my_group: 0,
            port_group: Vec::new(),
            port_active: Vec::new(),
            self_active: true,
            sizes: Vec::new(),
            pair: None,
            matched_self: false,
            matched_a_count: 0,
            bit_buffer: Vec::new(),
            decided: None,
        }
    }

    pub(crate) fn select_pair(&self) -> Option<(usize, usize)> {
        let mut live: Vec<usize> = (0..self.sizes.len())
            .filter(|&g| self.sizes[g] > 0)
            .collect();
        live.sort_by_key(|&g| (self.sizes[g], g));
        match live.as_slice() {
            [a, b, ..] => Some((*a, *b)),
            _ => None,
        }
    }

    pub(crate) fn winner_group(&self) -> Option<usize> {
        (0..self.sizes.len()).find(|&g| self.sizes[g] == 1)
    }

    fn try_decide(&mut self) -> bool {
        if let Some(g) = self.winner_group() {
            self.decided = Some(if self.self_active && self.my_group == g {
                Role::Leader
            } else {
                Role::Follower
            });
            true
        } else {
            false
        }
    }

    fn next_iteration(&mut self) -> bool {
        if self.try_decide() {
            return true;
        }
        self.pair = self.select_pair();
        self.matched_self = false;
        self.matched_a_count = 0;
        false
    }

    fn active_ports_of_group(&self, g: usize) -> Vec<usize> {
        self.port_group
            .iter()
            .zip(&self.port_active)
            .enumerate()
            .filter(|(_, (pg, act))| **pg == g && **act)
            .map(|(i, _)| i + 1)
            .collect()
    }

    fn discovery_step(
        &mut self,
        ctx: RoundCtx,
        ports: &[Option<EuclidMsg>],
    ) -> PortAction<EuclidMsg> {
        if ctx.n == 1 {
            self.decided = Some(Role::Leader);
            return PortAction::Silent;
        }
        if ctx.round > 1 {
            let others: Vec<Vec<bool>> = ports
                .iter()
                .map(|m| match m {
                    Some(EuclidMsg::Hist(h)) => h.clone(),
                    other => panic!("discovery expects Hist, got {other:?}"),
                })
                .collect();
            let mine = self.history.clone();
            let mut distinct: Vec<&Vec<bool>> =
                others.iter().chain(std::iter::once(&mine)).collect();
            distinct.sort();
            distinct.dedup();
            if distinct.len() == self.k {
                self.my_group = distinct.binary_search(&&mine).expect("present");
                self.port_group = others
                    .iter()
                    .map(|s| distinct.binary_search(&s).expect("present"))
                    .collect();
                self.port_active = vec![true; ports.len()];
                self.sizes = vec![0; self.k];
                self.sizes[self.my_group] += 1;
                for &g in &self.port_group {
                    self.sizes[g] += 1;
                }
                self.freeze_round = Some(ctx.round);
                self.next_iteration();
                return PortAction::Silent;
            }
        }
        self.history.push(ctx.bit);
        PortAction::Broadcast(EuclidMsg::Hist(self.history.clone()))
    }

    fn matching_step(
        &mut self,
        ctx: RoundCtx,
        ports: &[Option<EuclidMsg>],
    ) -> PortAction<EuclidMsg> {
        self.bit_buffer.push(ctx.bit);
        let freeze = self.freeze_round.expect("frozen");
        let (ga, gb) = match self.pair {
            Some(p) => p,
            None => return PortAction::Silent, // stuck: gcd > 1 dead end
        };
        match (ctx.round - freeze - 1) % 3 {
            0 => {
                self.matched_a_count += ports
                    .iter()
                    .filter(|m| **m == Some(EuclidMsg::AnnA))
                    .count();
                if self.matched_a_count >= self.sizes[ga] {
                    self.sizes[gb] -= self.sizes[ga];
                    if self.next_iteration() {
                        return PortAction::Silent;
                    }
                }
                let (ga, gb) = match self.pair {
                    Some(p) => p,
                    None => return PortAction::Silent, // gcd > 1 dead end
                };
                if self.self_active && self.my_group == ga && !self.matched_self {
                    let targets = self.active_ports_of_group(gb);
                    debug_assert!(!targets.is_empty(), "B side exhausted prematurely");
                    if let Some(i) = draw_index(&mut self.bit_buffer, targets.len()) {
                        return PortAction::Send(vec![(targets[i], EuclidMsg::Req)]);
                    }
                }
                PortAction::Silent
            }
            1 => {
                if self.self_active && self.my_group == gb && !self.matched_self {
                    let requesters: Vec<usize> = ports
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| **m == Some(EuclidMsg::Req))
                        .map(|(i, _)| i + 1)
                        .collect();
                    if let Some(&min_port) = requesters.first() {
                        self.matched_self = true;
                        self.self_active = false;
                        let mut out = vec![(min_port, EuclidMsg::Ack)];
                        for p in 1..ctx.n {
                            if p != min_port {
                                out.push((p, EuclidMsg::AnnB));
                            }
                        }
                        return PortAction::Send(out);
                    }
                }
                PortAction::Silent
            }
            _ => {
                let mut acked = false;
                for (i, m) in ports.iter().enumerate() {
                    match m {
                        Some(EuclidMsg::Ack) => {
                            acked = true;
                            self.port_active[i] = false;
                        }
                        Some(EuclidMsg::AnnB) => {
                            self.port_active[i] = false;
                        }
                        _ => {}
                    }
                }
                if acked && self.self_active && self.my_group == ga && !self.matched_self {
                    self.matched_self = true;
                    self.matched_a_count += 1;
                    return PortAction::Broadcast(EuclidMsg::AnnA);
                }
                PortAction::Silent
            }
        }
    }
}

impl PortRole for EuclidRole {
    type Msg = EuclidMsg;
    type Output = Role;

    fn step(&mut self, ctx: RoundCtx, ports: PortsView<'_, EuclidMsg>) -> PortAction<EuclidMsg> {
        if self.freeze_round.is_none() {
            self.discovery_step(ctx, &ports)
        } else {
            self.matching_step(ctx, &ports)
        }
    }

    fn decision(&self) -> Option<Role> {
        self.decided
    }

    fn phase(&self) -> usize {
        usize::from(self.freeze_round.is_some())
    }

    fn msg_bytes(msg: &EuclidMsg) -> usize {
        msg.wire_len()
    }
}

/// Message-passing leader election by imitating Euclid's algorithm
/// (Theorem 4.2, 'if' direction).
///
/// 1. **Discovery** — every node broadcasts its accumulated random string
///    each round; once `k` distinct strings appear (`k` = number of
///    sources, common knowledge) everyone agrees on the source groups,
///    their sizes, and which local port leads into which group.
/// 2. **Euclid loop** — repeatedly match the two smallest active groups
///    `A, B` (`|A| ≤ |B|`) with [`MatchingChoreo`]'s procedure and
///    deactivate the matched `B`-members: `(|A|, |B|) → (|A|, |B| − |A|)`,
///    the subtractive Euclid step. The gcd of the active sizes is
///    invariant, so when it is 1 a singleton group eventually appears and
///    its member leads; otherwise the loop never terminates, matching
///    the impossibility direction — for *any* port numbering.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rsbt_protocols::choreo::{Choreography, EuclidChoreo};
/// use rsbt_protocols::leader_count;
/// use rsbt_random::Assignment;
/// use rsbt_sim::{Model, PortNumbering};
///
/// // gcd(2, 3) = 1: solvable under every port numbering.
/// let alpha = Assignment::from_group_sizes(&[2, 3]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let model = Model::MessagePassing(PortNumbering::random(5, &mut rng));
/// let out = EuclidChoreo { k: 2 }.simulate(&model, &alpha, 6000, &mut rng).unwrap();
/// assert!(out.completed);
/// assert_eq!(leader_count(&out.outputs), 1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EuclidChoreo {
    /// Number of randomness sources (common knowledge).
    pub k: usize,
}

impl Choreography for EuclidChoreo {
    type Node = PortMachine<EuclidRole>;

    fn name(&self) -> &'static str {
        "euclid-le"
    }

    fn global(&self) -> GlobalProtocol {
        GlobalProtocol {
            name: "euclid-le",
            model: ModelClass::MessagePassing,
            participation: Participation::Sparse,
            roles: vec![RoleSpec {
                name: "node",
                min_count: 1,
            }],
            phases: vec![
                PhaseSpec {
                    name: "discovery",
                    actions: vec![("node", vec![ActionKind::Broadcast])],
                    exit: PhaseExit::Guard("k distinct strings observed"),
                },
                PhaseSpec {
                    name: "euclid-loop",
                    actions: vec![("node", vec![ActionKind::Send, ActionKind::Broadcast])],
                    exit: PhaseExit::Decision,
                },
            ],
        }
    }

    fn node(&self, _index: usize, _model: &Model, projection: &Projection) -> Self::Node {
        PortMachine::new(EuclidRole::new(self.k), projection.local("node").clone())
    }
}

// ---------------------------------------------------------------------------
// CreateMatching (Algorithm 1)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MatchSide {
    A,
    B,
    Bystander,
}

/// Projected role of [`MatchingChoreo`]. The same state machine serves
/// all three global roles; the projection assigns each node the local
/// spec of its side.
#[derive(Clone, Debug)]
pub struct MatchingRole {
    side: MatchSide,
    a_total: usize,
    active_b_ports: Vec<usize>,
    bit_buffer: Vec<bool>,
    matched_self: bool,
    matched_count: usize,
    decided: Option<MatchStatus>,
}

impl MatchingRole {
    fn with_side(side: MatchSide, a_total: usize, active_b_ports: Vec<usize>) -> Self {
        MatchingRole {
            side,
            a_total,
            active_b_ports,
            bit_buffer: Vec::new(),
            matched_self: false,
            matched_count: 0,
            decided: None,
        }
    }

    /// An `A`-side node; `b_ports` are its ports into `B`.
    pub fn new_a(a_total: usize, b_ports: Vec<usize>) -> Self {
        assert!(a_total >= 1, "matching needs a non-empty A side");
        assert!(
            b_ports.len() >= a_total,
            "CreateMatching requires |A| ≤ |B|"
        );
        MatchingRole::with_side(MatchSide::A, a_total, b_ports)
    }

    /// A `B`-side node.
    pub fn new_b(a_total: usize) -> Self {
        MatchingRole::with_side(MatchSide::B, a_total, Vec::new())
    }

    /// A node in neither group.
    pub fn bystander(a_total: usize) -> Self {
        MatchingRole::with_side(MatchSide::Bystander, a_total, Vec::new())
    }

    fn finish(&mut self) {
        self.decided = Some(match self.side {
            MatchSide::A => MatchStatus::Matched,
            MatchSide::B => {
                if self.matched_self {
                    MatchStatus::Matched
                } else {
                    MatchStatus::Unmatched
                }
            }
            MatchSide::Bystander => MatchStatus::Bystander,
        });
    }
}

impl PortRole for MatchingRole {
    type Msg = MatchMsg;
    type Output = MatchStatus;

    fn step(&mut self, ctx: RoundCtx, ports: PortsView<'_, MatchMsg>) -> PortAction<MatchMsg> {
        self.bit_buffer.push(ctx.bit);
        match (ctx.round - 1) % 3 {
            0 => {
                self.matched_count += ports.iter().filter(|m| **m == Some(MatchMsg::AnnA)).count();
                if self.matched_count >= self.a_total {
                    self.finish();
                    return PortAction::Silent;
                }
                if self.side == MatchSide::A && !self.matched_self {
                    let m = self.active_b_ports.len();
                    debug_assert!(m > 0, "A-node ran out of active B targets");
                    if let Some(i) = draw_index(&mut self.bit_buffer, m) {
                        return PortAction::Send(vec![(self.active_b_ports[i], MatchMsg::Req)]);
                    }
                }
                PortAction::Silent
            }
            1 => {
                if self.side == MatchSide::B && !self.matched_self {
                    let requesters: Vec<usize> = ports
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| **m == Some(MatchMsg::Req))
                        .map(|(i, _)| i + 1)
                        .collect();
                    if let Some(&min_port) = requesters.first() {
                        self.matched_self = true;
                        let mut out = vec![(min_port, MatchMsg::Ack)];
                        for p in 1..ctx.n {
                            if p != min_port {
                                out.push((p, MatchMsg::AnnB));
                            }
                        }
                        return PortAction::Send(out);
                    }
                }
                PortAction::Silent
            }
            _ => {
                let mut acked = false;
                for (i, m) in ports.iter().enumerate() {
                    match m {
                        Some(MatchMsg::Ack) => {
                            acked = true;
                            self.active_b_ports.retain(|&p| p != i + 1);
                        }
                        Some(MatchMsg::AnnB) => {
                            self.active_b_ports.retain(|&p| p != i + 1);
                        }
                        _ => {}
                    }
                }
                if acked && self.side == MatchSide::A {
                    self.matched_self = true;
                    self.matched_count += 1;
                    if self.matched_count >= self.a_total {
                        self.finish();
                    }
                    return PortAction::Broadcast(MatchMsg::AnnA);
                }
                PortAction::Silent
            }
        }
    }

    fn decision(&self) -> Option<MatchStatus> {
        self.decided
    }

    fn msg_bytes(msg: &MatchMsg) -> usize {
        msg.wire_len()
    }
}

/// Algorithm 1 (`CreateMatching`): the first `a` nodes are side `A`, the
/// next `b` are side `B`, the rest are bystanders.
///
/// Every iteration, each unmatched `A`-node sends a request to a uniformly
/// random active `B`-port; each requested `B`-node acknowledges the
/// minimal requesting port and announces itself matched; acknowledged
/// `A`-nodes announce themselves matched. Each iteration matches at least
/// one pair, so all of `A` is matched within `a` iterations (Lemma 4.8).
/// Nodes sharing a source draw identical choices, yet the procedure works
/// because port numbers are local: the same index points different nodes
/// at different targets.
#[derive(Clone, Copy, Debug)]
pub struct MatchingChoreo {
    /// Size of side `A` (`a ≤ b`).
    pub a: usize,
    /// Size of side `B`.
    pub b: usize,
}

impl Choreography for MatchingChoreo {
    type Node = PortMachine<MatchingRole>;

    fn name(&self) -> &'static str {
        "create-matching"
    }

    fn global(&self) -> GlobalProtocol {
        GlobalProtocol {
            name: "create-matching",
            model: ModelClass::MessagePassing,
            participation: Participation::Sparse,
            roles: vec![
                RoleSpec {
                    name: "a",
                    min_count: 1,
                },
                RoleSpec {
                    name: "b",
                    min_count: 1,
                },
                RoleSpec {
                    name: "bystander",
                    min_count: 0,
                },
            ],
            phases: vec![PhaseSpec {
                name: "match",
                actions: vec![
                    ("a", vec![ActionKind::Send, ActionKind::Broadcast]),
                    ("b", vec![ActionKind::Send]),
                    ("bystander", vec![]),
                ],
                exit: PhaseExit::Decision,
            }],
        }
    }

    fn node(&self, index: usize, model: &Model, projection: &Projection) -> Self::Node {
        let ports = model.ports().expect("matching runs under message passing");
        if index < self.a {
            let b_ports: Vec<usize> = (self.a..self.a + self.b)
                .map(|target| ports.port_towards(index, target))
                .collect();
            PortMachine::new(
                MatchingRole::new_a(self.a, b_ports),
                projection.local("a").clone(),
            )
        } else if index < self.a + self.b {
            PortMachine::new(MatchingRole::new_b(self.a), projection.local("b").clone())
        } else {
            PortMachine::new(
                MatchingRole::bystander(self.a),
                projection.local("bystander").clone(),
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Appendix C reduction and consensus
// ---------------------------------------------------------------------------

/// The centralized solver of the reduction: maps the sorted input
/// multiset to an input-value → output-value table. `Send + Sync`, since
/// the Monte-Carlo backend builds nodes from worker threads.
pub type SharedSolver = Arc<dyn Fn(&[u64]) -> BTreeMap<u64, u64> + Send + Sync>;

/// Projected role of [`ReductionChoreo`]: run the inner election, publish
/// inputs, leader publishes the table, decide.
pub struct ReductionRole<N: Protocol<Output = Role>> {
    inner: N,
    input: u64,
    solver: SharedSolver,
    elected_round: Option<usize>,
    inputs_seen: Option<Vec<u64>>,
    output: Option<u64>,
    current_phase: usize,
}

impl<N: Protocol<Output = Role>> std::fmt::Debug for ReductionRole<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReductionRole")
            .field("input", &self.input)
            .field("elected_round", &self.elected_round)
            .field("output", &self.output)
            .finish_non_exhaustive()
    }
}

impl<N: Protocol<Output = Role>> ReductionRole<N> {
    /// Wraps an inner election node with this node's input and solver.
    pub fn new(inner: N, input: u64, solver: SharedSolver) -> Self {
        ReductionRole {
            inner,
            input,
            solver,
            elected_round: None,
            inputs_seen: None,
            output: None,
            current_phase: 0,
        }
    }
}

/// Re-publishes a task message under whichever model is running.
fn publish<M: Clone + Ord + std::fmt::Debug>(
    view: &View<'_, ReductionMsg<M>>,
    msg: ReductionMsg<M>,
) -> AnyAction<ReductionMsg<M>> {
    match view {
        View::Board(_) => AnyAction::Post(msg),
        View::Ports(_) => AnyAction::Broadcast(msg),
    }
}

/// Collects incoming task messages matching `f`, model-agnostically.
fn collect<M, T>(
    view: &View<'_, ReductionMsg<M>>,
    f: impl Fn(&ReductionMsg<M>) -> Option<T>,
) -> Vec<T>
where
    M: Clone + Ord + std::fmt::Debug,
{
    match view {
        View::Board(msgs) => msgs.iter().filter_map(f).collect(),
        View::Ports(slots) => slots.iter().flatten().filter_map(f).collect(),
    }
}

/// Rebuilds the inner protocol's incoming view from the reduction's.
fn project_inner<M: Clone + Ord + std::fmt::Debug>(
    view: &View<'_, ReductionMsg<M>>,
) -> Incoming<M> {
    match view {
        View::Board(msgs) => Incoming::Board(
            msgs.iter()
                .filter_map(|m| match m {
                    ReductionMsg::Inner(x) => Some(x.clone()),
                    _ => None,
                })
                .collect(),
        ),
        View::Ports(slots) => Incoming::Ports(
            slots
                .iter()
                .map(|s| match s {
                    Some(ReductionMsg::Inner(x)) => Some(x.clone()),
                    _ => None,
                })
                .collect(),
        ),
    }
}

/// Lifts the inner protocol's outgoing messages into the reduction
/// alphabet.
fn lift_inner<M: Clone + Ord + std::fmt::Debug>(out: Outgoing<M>) -> AnyAction<ReductionMsg<M>> {
    match out {
        Outgoing::Silent => AnyAction::Silent,
        Outgoing::Post(m) => AnyAction::Post(ReductionMsg::Inner(m)),
        Outgoing::Send(v) => AnyAction::Send(
            v.into_iter()
                .map(|(p, m)| (p, ReductionMsg::Inner(m)))
                .collect(),
        ),
        Outgoing::Broadcast(m) => AnyAction::Broadcast(ReductionMsg::Inner(m)),
    }
}

impl<N: Protocol<Output = Role>> DualRole for ReductionRole<N>
where
    N::Msg: Wire,
{
    type Msg = ReductionMsg<N::Msg>;
    type Output = u64;

    fn step(&mut self, ctx: RoundCtx, view: View<'_, Self::Msg>) -> AnyAction<Self::Msg> {
        // Phase 0: run the inner election until it decides.
        let elected_round = match self.elected_round {
            None => {
                let inner_incoming = project_inner(&view);
                let out = self.inner.round(ctx, &inner_incoming);
                if self.inner.output().is_some() {
                    self.elected_round = Some(ctx.round);
                    self.current_phase = 1;
                }
                return lift_inner(out);
            }
            Some(r) => r,
        };
        // Phase 1: publish the input.
        if ctx.round == elected_round + 1 {
            self.current_phase = 2;
            return publish(&view, ReductionMsg::Input(self.input));
        }
        // Phase 2: the leader publishes the table.
        if ctx.round == elected_round + 2 {
            let mut inputs: Vec<u64> = collect(&view, |m| match m {
                ReductionMsg::Input(v) => Some(*v),
                _ => None,
            });
            inputs.push(self.input);
            inputs.sort_unstable();
            self.inputs_seen = Some(inputs.clone());
            self.current_phase = 3;
            if self.inner.output() == Some(Role::Leader) {
                let table: Vec<(u64, u64)> = (self.solver)(&inputs).into_iter().collect();
                return publish(&view, ReductionMsg::Table(table));
            }
            return AnyAction::Silent;
        }
        // Phase 3: read the table and decide.
        if ctx.round == elected_round + 3 && self.output.is_none() {
            let tables: Vec<Vec<(u64, u64)>> = collect(&view, |m| match m {
                ReductionMsg::Table(t) => Some(t.clone()),
                _ => None,
            });
            let table = if self.inner.output() == Some(Role::Leader) {
                let inputs = self.inputs_seen.as_ref().expect("phase 2 ran");
                (self.solver)(inputs).into_iter().collect()
            } else {
                tables.into_iter().next().expect("leader published a table")
            };
            let map: BTreeMap<u64, u64> = table.into_iter().collect();
            self.output = Some(*map.get(&self.input).expect("table covers all inputs"));
        }
        AnyAction::Silent
    }

    fn decision(&self) -> Option<u64> {
        self.output
    }

    fn phase(&self) -> usize {
        self.current_phase
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        msg.wire_len()
    }
}

/// Theorem C.1: any name-independent task reduces to leader election.
///
/// After the inner election decides, every node publishes its input, the
/// leader publishes the solver's input → output table for the input
/// multiset, and every node outputs its own input's entry. Publishing the
/// *table* rather than per-node outputs keeps the reduction anonymous.
pub struct ReductionChoreo<C: Choreography>
where
    C::Node: Protocol<Output = Role>,
{
    name: &'static str,
    inner: C,
    inputs: Vec<u64>,
    solver: SharedSolver,
}

impl<C: Choreography> ReductionChoreo<C>
where
    C::Node: Protocol<Output = Role>,
{
    /// Builds the reduction over `inner`, with per-node `inputs` and the
    /// centralized `solver`.
    pub fn new(name: &'static str, inner: C, inputs: Vec<u64>, solver: SharedSolver) -> Self {
        ReductionChoreo {
            name,
            inner,
            inputs,
            solver,
        }
    }
}

impl<C: Choreography> Choreography for ReductionChoreo<C>
where
    C::Node: Protocol<Output = Role>,
    <C::Node as Protocol>::Msg: Wire,
{
    type Node = DualMachine<ReductionRole<C::Node>>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn global(&self) -> GlobalProtocol {
        GlobalProtocol {
            name: "via-leader",
            model: ModelClass::Any,
            participation: Participation::Sparse,
            roles: vec![RoleSpec {
                name: "node",
                min_count: 1,
            }],
            phases: vec![
                PhaseSpec {
                    name: "elect",
                    actions: vec![(
                        "node",
                        vec![ActionKind::Post, ActionKind::Send, ActionKind::Broadcast],
                    )],
                    exit: PhaseExit::Guard("inner election decided"),
                },
                PhaseSpec {
                    name: "publish-input",
                    actions: vec![("node", vec![ActionKind::Post, ActionKind::Broadcast])],
                    exit: PhaseExit::Rounds(1),
                },
                PhaseSpec {
                    name: "publish-table",
                    actions: vec![("node", vec![ActionKind::Post, ActionKind::Broadcast])],
                    exit: PhaseExit::Rounds(1),
                },
                PhaseSpec {
                    name: "decide",
                    actions: vec![("node", vec![])],
                    exit: PhaseExit::Decision,
                },
            ],
        }
    }

    fn node(&self, index: usize, model: &Model, projection: &Projection) -> Self::Node {
        let inner_projection = self
            .inner
            .global()
            .project(model, projection.n())
            .expect("inner election projects wherever the reduction does");
        let inner_node = self.inner.node(index, model, &inner_projection);
        DualMachine::new(
            ReductionRole::new(inner_node, self.inputs[index], self.solver.clone()),
            projection.local("node").clone(),
        )
    }
}

/// The consensus solver as a [`SharedSolver`]: every input maps to the
/// minimal input.
pub fn consensus_shared_solver() -> SharedSolver {
    Arc::new(|inputs: &[u64]| {
        let decision = *inputs.iter().min().expect("at least one input");
        inputs.iter().map(|&v| (v, decision)).collect()
    })
}

/// Consensus via the reduction over an inner election choreography.
pub fn consensus_choreo<C: Choreography>(inner: C, inputs: Vec<u64>) -> ReductionChoreo<C>
where
    C::Node: Protocol<Output = Role>,
{
    ReductionChoreo::new(
        "consensus-via-leader",
        inner,
        inputs,
        consensus_shared_solver(),
    )
}

/// Every global protocol registered on the choreography layer, one entry
/// per distinct [`GlobalProtocol`] description.
///
/// This is the enumeration hook for ahead-of-time analysis
/// (`rsbt-analyze`'s projection checker exhaustively projects each entry
/// across both model classes and an `n`-range): a choreography whose
/// global description is not returned here is invisible to the static
/// pass, so new protocols must be added to this list. Parameterized
/// choreographies contribute one representative — their `global()` does
/// not depend on the parameters (only `node()` does).
pub fn registered_globals() -> Vec<GlobalProtocol> {
    vec![
        BleChoreo.global(),
        WsbChoreo.global(),
        KLeaderChoreo { k: 2 }.global(),
        DeputyChoreo.global(),
        EuclidChoreo { k: 2 }.global(),
        MatchingChoreo { a: 1, b: 1 }.global(),
        consensus_choreo(BleChoreo, Vec::new()).global(),
    ]
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_distinct_and_validate() {
        let globals = registered_globals();
        assert_eq!(globals.len(), 7);
        for (i, g) in globals.iter().enumerate() {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
            assert!(
                globals[..i].iter().all(|h| h.name != g.name),
                "duplicate global name {}",
                g.name
            );
        }
    }

    #[test]
    fn registry_globals_match_choreography_accessors() {
        // The representative instances must return the very description a
        // backend would project: same name, model class, phase count.
        let from_registry = registered_globals();
        let direct = [
            BleChoreo.global(),
            WsbChoreo.global(),
            KLeaderChoreo { k: 3 }.global(),
            DeputyChoreo.global(),
            EuclidChoreo { k: 3 }.global(),
            MatchingChoreo { a: 2, b: 3 }.global(),
            consensus_choreo(BleChoreo, vec![7, 7]).global(),
        ];
        for (r, d) in from_registry.iter().zip(direct.iter()) {
            assert_eq!(r.name, d.name);
            assert_eq!(r.model, d.model);
            assert_eq!(r.phases.len(), d.phases.len());
        }
    }
}
