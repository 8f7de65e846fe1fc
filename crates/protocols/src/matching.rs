//! Messages and decision values of Algorithm 1 (`CreateMatching`,
//! [`MatchingChoreo`](crate::choreo::MatchingChoreo)).

use rsbt_sim::net::{Wire, WireError};

/// Messages of the matching procedure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MatchMsg {
    /// `A → B`: "match with me".
    Req,
    /// `B → A`: "accepted" (sent to exactly one requester).
    Ack,
    /// `B → all`: "I am matched, stop targeting me".
    AnnB,
    /// `A → all`: "I am matched" (progress counting).
    AnnA,
}

impl Wire for MatchMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MatchMsg::Req => 0,
            MatchMsg::Ack => 1,
            MatchMsg::AnnB => 2,
            MatchMsg::AnnA => 3,
        });
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(MatchMsg::Req),
            1 => Ok(MatchMsg::Ack),
            2 => Ok(MatchMsg::AnnB),
            3 => Ok(MatchMsg::AnnA),
            _ => Err(WireError::new("invalid MatchMsg tag")),
        }
    }

    fn wire_len(&self) -> usize {
        1
    }
}

/// Final status of a node after the matching completes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchStatus {
    /// An `A`-node (always matched on termination) or a matched `B`-node.
    Matched,
    /// A `B`-node that no `A`-node claimed (`b − a` of them).
    Unmatched,
    /// A node outside both groups.
    Bystander,
}

impl Wire for MatchStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MatchStatus::Matched => 0,
            MatchStatus::Unmatched => 1,
            MatchStatus::Bystander => 2,
        });
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(MatchStatus::Matched),
            1 => Ok(MatchStatus::Unmatched),
            2 => Ok(MatchStatus::Bystander),
            _ => Err(WireError::new("invalid MatchStatus tag")),
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
    use rsbt_sim::{Model, PortNumbering};

    use crate::choreo::protocols::draw_index;
    use crate::choreo::{Choreography, MatchingChoreo, MatchingRole};

    fn run_matching(
        a: usize,
        b: usize,
        extra: usize,
        sources: Vec<usize>,
        seed: u64,
    ) -> Vec<Option<MatchStatus>> {
        let n = a + b + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let ports = PortNumbering::random(n, &mut rng);
        let alpha = Assignment::from_sources(sources).unwrap();
        assert_eq!(alpha.n(), n);
        let out = MatchingChoreo { a, b }
            .simulate(&Model::MessagePassing(ports), &alpha, 3000, &mut rng)
            .unwrap();
        assert!(out.completed, "matching a={a} b={b} seed={seed} timed out");
        out.outputs
    }

    fn assert_matching_shape(outputs: &[Option<MatchStatus>], a: usize, b: usize) {
        let matched_a = outputs[..a]
            .iter()
            .filter(|o| **o == Some(MatchStatus::Matched))
            .count();
        assert_eq!(matched_a, a, "every A-node must be matched");
        let matched_b = outputs[a..a + b]
            .iter()
            .filter(|o| **o == Some(MatchStatus::Matched))
            .count();
        assert_eq!(matched_b, a, "exactly |A| B-nodes are matched");
        let unmatched_b = outputs[a..a + b]
            .iter()
            .filter(|o| **o == Some(MatchStatus::Unmatched))
            .count();
        assert_eq!(unmatched_b, b - a);
        for o in &outputs[a + b..] {
            assert_eq!(*o, Some(MatchStatus::Bystander));
        }
    }

    #[test]
    fn matches_all_of_a_private_randomness() {
        for seed in 0..10 {
            let outputs = run_matching(2, 3, 0, (0..5).collect(), seed);
            assert_matching_shape(&outputs, 2, 3);
        }
    }

    #[test]
    fn matches_with_shared_group_sources() {
        // The paper's regime: group A shares one source, group B another.
        for seed in 0..10 {
            let sources = vec![0, 0, 1, 1, 1];
            let outputs = run_matching(2, 3, 0, sources, seed);
            assert_matching_shape(&outputs, 2, 3);
        }
    }

    #[test]
    fn equal_sizes_match_perfectly() {
        for seed in 0..5 {
            let sources = vec![0, 0, 0, 1, 1, 1];
            let outputs = run_matching(3, 3, 0, sources, seed);
            assert_matching_shape(&outputs, 3, 3);
        }
    }

    #[test]
    fn bystanders_observe_and_finish() {
        for seed in 0..5 {
            let sources = vec![0, 1, 1, 2, 2];
            let outputs = run_matching(1, 2, 2, sources, seed);
            assert_matching_shape(&outputs, 1, 2);
        }
    }

    #[test]
    fn singleton_a_matches_fast() {
        let outputs = run_matching(1, 4, 0, vec![0, 1, 1, 1, 1], 3);
        assert_matching_shape(&outputs, 1, 4);
    }

    #[test]
    #[should_panic(expected = "|A| ≤ |B|")]
    fn rejects_a_larger_than_b() {
        let _ = MatchingRole::new_a(3, vec![1, 2]);
    }

    #[test]
    fn draw_index_rejection_sampling() {
        // m = 1 needs no bits.
        let mut bit_buffer = Vec::new();
        assert_eq!(draw_index(&mut bit_buffer, 1), Some(0));
        // m = 3 needs 2 bits; "11" = 3 is rejected.
        bit_buffer = vec![true, true];
        assert_eq!(draw_index(&mut bit_buffer, 3), None);
        assert!(bit_buffer.is_empty(), "rejected bits are consumed");
        bit_buffer = vec![true, false];
        assert_eq!(draw_index(&mut bit_buffer, 3), Some(2));
    }
}
