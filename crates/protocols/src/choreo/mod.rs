//! Choreographic protocol layer: one global description, three backends.
//!
//! A protocol is written once as a [`GlobalProtocol`] — its rounds,
//! message actions, and exit conditions for every role — and *projected*
//! onto a concrete [`Model`](rsbt_sim::Model) and system size. Projection
//! validates the description (totality of roles per phase, action/model
//! compatibility, participation discipline) and yields per-role
//! [`LocalSpec`](global::LocalSpec)s that the typed machines in
//! [`machine`] enforce at run time: a role that emits an action its
//! projection does not allow panics with protocol/role/phase context
//! instead of silently diverging from the paper.
//!
//! The same projected protocol then runs on any of three backends
//! ([`backend`]):
//!
//! - [`SimBackend`](backend::SimBackend) — the in-process lockstep
//!   simulator ([`rsbt_sim::runner`]); any caller-owned RNG runs through
//!   [`Choreography::simulate`];
//! - [`McBackend`](backend::McBackend) — protocol-level Monte-Carlo
//!   estimation with per-sample [`StreamRng`](rand::rngs::StreamRng) streams
//!   and Wilson confidence intervals, thread-count invariant;
//! - [`SocketBackend`](backend::SocketBackend) — real processes (or
//!   threads) over local TCP via [`rsbt_sim::net`], with the
//!   fault-tolerant coordinator distributing assignment bits and
//!   enforcing round barriers.
//!
//! [`protocols`] ports all of the paper's protocols onto this layer.

pub mod backend;
pub mod global;
pub mod machine;
pub mod protocols;

pub use backend::{
    Backend, BackendError, BackendReport, Choreography, KillPlan, Launcher, McBackend, NodeMsg,
    NodeOutput, ProtocolEstimate, RunJob, SimBackend, SocketBackend, SpawnFn,
};
pub use global::{
    ActionKind, GlobalProtocol, LocalPhase, LocalSpec, ModelClass, Participation, PhaseExit,
    PhaseSpec, Projection, ProjectionError, RoleSpec,
};
pub use machine::{
    AnyAction, BoardAction, BoardMachine, BoardRole, DualMachine, DualRole, PortAction,
    PortMachine, PortRole, View,
};
pub use protocols::{
    consensus_choreo, consensus_shared_solver, registered_globals, BleChoreo, BleRole,
    DeputyChoreo, DeputyElectRole, EuclidChoreo, EuclidRole, KLeaderChoreo, KLeaderRole,
    MatchingChoreo, MatchingRole, ReductionChoreo, ReductionRole, SharedSolver, WsbChoreo, WsbRole,
};
