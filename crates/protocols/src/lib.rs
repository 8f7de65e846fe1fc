//! Executable anonymous distributed algorithms from the paper.
//!
//! Every protocol is written once, as a *choreography* in [`choreo`]: one
//! global description projected onto per-role local machines, runnable
//! on three interchangeable backends (the in-process simulator, a
//! parallel Monte-Carlo estimator, and real processes over local TCP).
//!
//! * [`BleChoreo`](choreo::BleChoreo) — the Theorem 4.1 'if'-direction
//!   algorithm: post your randomness every round, elect the holder of the
//!   minimal *unique* string once one exists;
//! * [`MatchingChoreo`](choreo::MatchingChoreo) — Algorithm 1
//!   (`CreateMatching`): randomized request/acknowledge matching between
//!   two groups of anonymous nodes;
//! * [`EuclidChoreo`](choreo::EuclidChoreo) — the Theorem 4.2
//!   'if'-direction algorithm: discover the source groups, then imitate
//!   the subtractive Euclid process by repeatedly matching the two
//!   smallest groups and deactivating the matched members of the larger,
//!   until a singleton group remains — its member leads;
//! * [`ReductionChoreo`](choreo::ReductionChoreo) — Theorem C.1: any
//!   *name-independent* input-output task reduces to leader election (the
//!   leader aggregates the input multiset, computes an input→output
//!   table, and publishes it); [`consensus`] is the canonical instance;
//! * [`WsbChoreo`](choreo::WsbChoreo),
//!   [`KLeaderChoreo`](choreo::KLeaderChoreo) and
//!   [`DeputyChoreo`](choreo::DeputyChoreo) — blackboard weak symmetry
//!   breaking, exactly-`k`-leaders and leader-and-deputy election.
//!
//! All protocols run on the [`rsbt_sim::runner`] engine, drawing their
//! randomness through an [`rsbt_random::Assignment`] so correlated sources
//! are modeled faithfully — the central concern of the paper. The crate
//! root holds their message and decision types.

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choreo;

pub mod consensus;
mod deputy_bb;
mod euclid_le;
pub mod matching;
pub mod reduction;
mod role;

// Unit tests of the choreographies without message types of their own.
mod blackboard_le;
mod k_leader_bb;
mod wsb_bb;

pub use crate::deputy_bb::DeputyRole;
pub use crate::euclid_le::EuclidMsg;
pub use crate::role::{leader_count, Role};
