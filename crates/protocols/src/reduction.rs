//! Messages of the Theorem C.1 reduction of name-independent tasks to
//! leader election ([`ReductionChoreo`](crate::choreo::ReductionChoreo)).

use rsbt_sim::net::{Wire, WireError};

/// Messages of the reduction: inner election messages, then task phases.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ReductionMsg<M> {
    /// A message of the inner leader-election protocol.
    Inner(M),
    /// Phase 1: a node's input value.
    Input(u64),
    /// Phase 2: the leader's input → output table, as sorted pairs.
    Table(Vec<(u64, u64)>),
}

impl<M: Wire> Wire for ReductionMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReductionMsg::Inner(m) => {
                out.push(0);
                m.encode(out);
            }
            ReductionMsg::Input(v) => {
                out.push(1);
                v.encode(out);
            }
            ReductionMsg::Table(t) => {
                out.push(2);
                t.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(ReductionMsg::Inner(M::decode(buf)?)),
            1 => Ok(ReductionMsg::Input(u64::decode(buf)?)),
            2 => Ok(ReductionMsg::Table(Vec::decode(buf)?)),
            _ => Err(WireError::new("invalid ReductionMsg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;
    use rsbt_sim::{Model, PortNumbering};

    use crate::choreo::{BleChoreo, Choreography, EuclidChoreo, ReductionChoreo, SharedSolver};

    /// Name-independent "minimum" task: everyone outputs the global min.
    fn min_solver() -> SharedSolver {
        Arc::new(|inputs: &[u64]| {
            let min = *inputs.iter().min().expect("non-empty");
            inputs.iter().map(|&v| (v, min)).collect()
        })
    }

    #[test]
    fn blackboard_min_via_leader() {
        let alpha = Assignment::from_group_sizes(&[1, 1, 1]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let inputs = vec![30u64, 10, 20];
        let choreo = ReductionChoreo::new("min", BleChoreo, inputs, min_solver());
        let out = choreo
            .simulate(&Model::Blackboard, &alpha, 256, &mut rng)
            .unwrap();
        assert!(out.completed);
        assert_eq!(out.outputs, vec![Some(10), Some(10), Some(10)]);
    }

    #[test]
    fn message_passing_min_via_leader() {
        let alpha = Assignment::from_group_sizes(&[2, 3]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let ports = PortNumbering::random(5, &mut rng);
        let inputs = vec![5u64, 5, 9, 9, 9]; // same-source nodes share inputs
        let choreo = ReductionChoreo::new("min", EuclidChoreo { k: 2 }, inputs, min_solver());
        let out = choreo
            .simulate(&Model::MessagePassing(ports), &alpha, 6000, &mut rng)
            .unwrap();
        assert!(out.completed);
        assert!(out.outputs.iter().all(|o| *o == Some(5)));
    }

    #[test]
    fn name_independence_equal_inputs_equal_outputs() {
        // A "rank" task: output = rank of your input among distinct inputs.
        let solver: SharedSolver = Arc::new(|inputs: &[u64]| {
            let mut distinct: Vec<u64> = inputs.to_vec();
            distinct.dedup();
            distinct
                .iter()
                .enumerate()
                .map(|(r, &v)| (v, r as u64))
                .collect()
        });
        let alpha = Assignment::private(4);
        let mut rng = StdRng::seed_from_u64(8);
        let inputs = vec![7u64, 3, 7, 11];
        let choreo = ReductionChoreo::new("rank", BleChoreo, inputs, solver);
        let out = choreo
            .simulate(&Model::Blackboard, &alpha, 256, &mut rng)
            .unwrap();
        assert!(out.completed);
        // inputs sorted: [3,7,7,11] → ranks {3:0, 7:1, 11:2}.
        assert_eq!(
            out.outputs,
            vec![Some(1), Some(0), Some(1), Some(2)],
            "equal inputs get equal outputs"
        );
    }

    #[test]
    fn reduction_stalls_when_election_stalls() {
        // No singleton source on the blackboard: Theorem C.1's hypothesis
        // fails and the reduction inherits the stall.
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let choreo = ReductionChoreo::new("min", BleChoreo, (0..4).collect(), min_solver());
        let out = choreo
            .simulate(&Model::Blackboard, &alpha, 64, &mut rng)
            .unwrap();
        assert!(!out.completed);
    }
}
