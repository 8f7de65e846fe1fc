//! The fixed input pools the seeded choices are drawn from. The program
//! under test only ever sees the profiles, models, tasks and sample seeds
//! built from these.

use crate::api::{ModelKind, TaskKind};

/// An exact query family: the seed picks `per_batch` profiles of `pool`
/// per batch.
pub struct ExactSlot {
    pub name: &'static str,
    pub model: ModelKind,
    pub task: TaskKind,
    pub t: usize,
    pub per_batch: usize,
    pub pool: &'static [&'static [usize]],
}

/// `exact-sources`: blackboard, fault-free, k = 8 and k = 9 sources at
/// t = 6. A batch is two LE and two 2-LE queries at k = 8 and one LE and
/// one 2-LE query at k = 9, so every batch does the same work. Within a
/// slot every profile has the same number of groups of
/// each size the task can tell apart (singletons for LE; singletons and
/// pairs for 2-LE), so the DP does the same work whichever entry the seed
/// picks and only the node count and the larger sizes change.
pub const EXACT_SOURCES: &[ExactSlot] = &[
    ExactSlot {
        name: "le-k8",
        model: ModelKind::Blackboard,
        task: TaskKind::Le,
        per_batch: 2,
        t: 6,
        pool: &[
            &[2, 2, 2, 2, 2, 2, 2, 2],
            &[3, 3, 3, 3, 3, 3, 3, 3],
            &[4, 4, 4, 4, 2, 2, 2, 2],
            &[3, 3, 2, 2, 2, 2, 2, 2],
            &[3, 3, 3, 3, 2, 2, 2, 2],
            &[4, 2, 2, 2, 2, 2, 2, 2],
        ],
    },
    ExactSlot {
        name: "2le-k8",
        model: ModelKind::Blackboard,
        task: TaskKind::TwoLe,
        per_batch: 2,
        t: 6,
        pool: &[
            &[3, 3, 3, 3, 3, 3, 3, 2],
            &[4, 3, 3, 3, 3, 3, 3, 2],
            &[4, 4, 4, 3, 3, 3, 3, 2],
            &[5, 3, 3, 3, 3, 3, 3, 2],
            &[4, 4, 3, 3, 3, 3, 3, 2],
        ],
    },
    ExactSlot {
        name: "le-k9",
        model: ModelKind::Blackboard,
        task: TaskKind::Le,
        per_batch: 1,
        t: 6,
        pool: &[
            &[2, 2, 2, 2, 2, 2, 2, 2, 2],
            &[4, 2, 2, 2, 2, 2, 2, 2, 2],
            &[3, 3, 2, 2, 2, 2, 2, 2, 2],
            &[3, 2, 2, 2, 2, 2, 2, 2, 2],
            &[3, 3, 3, 2, 2, 2, 2, 2, 2],
            &[4, 4, 2, 2, 2, 2, 2, 2, 2],
        ],
    },
    ExactSlot {
        name: "2le-k9",
        model: ModelKind::Blackboard,
        task: TaskKind::TwoLe,
        per_batch: 1,
        t: 6,
        pool: &[
            &[3, 3, 3, 3, 3, 3, 3, 1, 1],
            &[4, 3, 3, 3, 3, 3, 3, 1, 1],
            &[4, 4, 3, 3, 3, 3, 3, 1, 1],
            &[5, 3, 3, 3, 3, 3, 3, 1, 1],
            &[4, 4, 4, 3, 3, 3, 3, 1, 1],
        ],
    },
];

/// One `mc-wide` query family: a fault-free query of `samples` and, when
/// `faulted_samples > 0`, a rate-faulted query of `faulted_samples`. The
/// counts are sized so every query takes about the same time.
pub struct McSlot {
    pub name: &'static str,
    pub model: ModelKind,
    pub task: TaskKind,
    pub sizes: &'static [usize],
    pub samples: usize,
    pub faulted_samples: usize,
}

/// `mc-wide`: n = 24 nodes at t = 32 — past every exact wall.
pub const MC_T: usize = 32;
/// The `(crash, omission)` per-node per-round rates of faulted queries.
pub const MC_RATES: (f64, f64) = (0.002, 0.02);
/// Samples of each query re-run on the scalar kernel as the bit-identity
/// check.
pub const MC_CHECK_SAMPLES: usize = 320;

/// Two-leader election compiles no lane plan over 24 node units (message
/// passing, or any faulted run), so it appears only on the fault-free
/// blackboard, where the units are the 4 sources.
pub const MC_WIDE: &[McSlot] = &[
    McSlot {
        name: "bb-le",
        model: ModelKind::Blackboard,
        task: TaskKind::Le,
        sizes: &[6, 6, 6, 6],
        samples: 1 << 20,
        faulted_samples: 1 << 14,
    },
    McSlot {
        name: "bb-wsb",
        model: ModelKind::Blackboard,
        task: TaskKind::Wsb,
        sizes: &[9, 5, 4, 3, 2, 1],
        samples: 1 << 20,
        faulted_samples: 1 << 14,
    },
    McSlot {
        name: "bb-2le",
        model: ModelKind::Blackboard,
        task: TaskKind::TwoLe,
        sizes: &[9, 8, 5, 2],
        samples: 1 << 20,
        faulted_samples: 0,
    },
    McSlot {
        name: "adv-le",
        model: ModelKind::Adversarial,
        task: TaskKind::Le,
        sizes: &[10, 8, 5, 1],
        samples: 1 << 18,
        faulted_samples: 1 << 14,
    },
    McSlot {
        name: "adv-wsb",
        model: ModelKind::Adversarial,
        task: TaskKind::Wsb,
        sizes: &[8, 8, 4, 4],
        samples: 1 << 18,
        faulted_samples: 1 << 14,
    },
];

/// `sweep-grid`: every profile with n ≤ 12, blackboard and cyclic ports,
/// LE on n ≥ 1 and WSB on n ≥ 2.
pub const SWEEP_N_MAX: usize = 12;
pub const SWEEP_T_CAP: usize = 8;
pub const SWEEP_BIT_BUDGET: usize = 16;
pub const SWEEP_MC_SAMPLES: usize = 256;
