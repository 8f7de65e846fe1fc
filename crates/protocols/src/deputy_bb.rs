//! Decision values of blackboard leader-and-deputy election
//! ([`DeputyChoreo`](crate::choreo::DeputyChoreo)).

use rsbt_sim::net::{Wire, WireError};

/// Roles of the leader-and-deputy protocol.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DeputyRole {
    /// The elected leader.
    Leader,
    /// The deputy (immediate backup).
    Deputy,
    /// Everyone else.
    Follower,
}

impl Wire for DeputyRole {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DeputyRole::Leader => 0,
            DeputyRole::Deputy => 1,
            DeputyRole::Follower => 2,
        });
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(DeputyRole::Leader),
            1 => Ok(DeputyRole::Deputy),
            2 => Ok(DeputyRole::Follower),
            _ => Err(WireError::new("invalid DeputyRole tag")),
        }
    }

    fn wire_len(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;
    use rsbt_sim::runner::RunOutcome;
    use rsbt_sim::Model;

    use crate::choreo::{Choreography, DeputyChoreo};

    fn run_ld(sizes: &[usize], seed: u64, cap: usize) -> RunOutcome<DeputyRole> {
        let alpha = Assignment::from_group_sizes(sizes).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        DeputyChoreo
            .simulate(&Model::Blackboard, &alpha, cap, &mut rng)
            .unwrap()
    }

    fn role_counts(outs: &[Option<DeputyRole>]) -> (usize, usize, usize) {
        let c = |r| outs.iter().filter(|o| **o == Some(r)).count();
        (
            c(DeputyRole::Leader),
            c(DeputyRole::Deputy),
            c(DeputyRole::Follower),
        )
    }

    #[test]
    fn two_singletons_elect_leader_and_deputy() {
        for seed in 0..20 {
            let out = run_ld(&[1, 1, 3], seed, 256);
            assert!(out.completed, "seed {seed}");
            assert_eq!(role_counts(&out.outputs), (1, 1, 3), "seed {seed}");
        }
    }

    #[test]
    fn all_private_works() {
        for seed in 0..10 {
            let out = run_ld(&[1, 1, 1, 1], seed, 256);
            assert!(out.completed);
            assert_eq!(role_counts(&out.outputs), (1, 1, 2));
        }
    }

    #[test]
    fn one_singleton_is_not_enough() {
        // A leader can be elected, but no deputy ever distinguishes itself
        // inside the remaining pair.
        for seed in 0..5 {
            let out = run_ld(&[1, 2], seed, 64);
            assert!(!out.completed, "seed {seed}");
        }
    }

    #[test]
    fn no_singleton_stalls() {
        for seed in 0..5 {
            let out = run_ld(&[2, 2], seed, 64);
            assert!(!out.completed);
        }
    }

    #[test]
    fn leader_holds_smaller_string_than_deputy() {
        // Consistency of the deterministic rule: roles are a function of
        // the common multiset, so re-running with the same seed reproduces
        // the same role vector.
        let a = run_ld(&[1, 1, 2], 11, 256);
        let b = run_ld(&[1, 1, 2], 11, 256);
        assert!(a.completed && b.completed);
        assert_eq!(a.outputs, b.outputs);
    }
}
