//! Consensus as a name-independent task, solved via the Appendix C
//! reduction ([`consensus_choreo`](crate::choreo::consensus_choreo)).
//!
//! Binary (or multi-valued) consensus — everyone outputs the same value,
//! which must be some party's input — is name-independent: parties with
//! equal inputs trivially agree. The paper notes (footnote 3) that
//! consensus is deterministically solvable in the fault-free setting; here
//! it serves as the canonical demonstration of Theorem C.1.

/// Checks the two consensus properties on a complete output vector.
///
/// Returns `Err` with a description when agreement or validity fails.
///
/// # Errors
///
/// * agreement — two nodes decided different values;
/// * validity — the decision is not among the inputs;
/// * completeness — some node is undecided.
pub fn check_consensus(inputs: &[u64], outputs: &[Option<u64>]) -> Result<u64, String> {
    let decided: Vec<u64> = outputs
        .iter()
        .map(|o| o.ok_or_else(|| "undecided node".to_string()))
        .collect::<Result<_, _>>()?;
    let first = decided[0];
    if decided.iter().any(|&d| d != first) {
        return Err(format!("agreement violated: {decided:?}"));
    }
    if !inputs.contains(&first) {
        return Err(format!("validity violated: {first} not among inputs"));
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;
    use rsbt_sim::{Model, PortNumbering};

    use crate::choreo::{consensus_choreo, BleChoreo, Choreography, EuclidChoreo};

    #[test]
    fn blackboard_consensus() {
        for seed in 0..5 {
            let alpha = Assignment::private(4);
            let mut rng = StdRng::seed_from_u64(seed);
            let inputs = [4u64, 2, 8, 2];
            let out = consensus_choreo(BleChoreo, inputs.to_vec())
                .simulate(&Model::Blackboard, &alpha, 256, &mut rng)
                .unwrap();
            assert!(out.completed, "seed {seed}");
            assert_eq!(check_consensus(&inputs, &out.outputs), Ok(2));
        }
    }

    #[test]
    fn message_passing_consensus() {
        for seed in 0..3 {
            let alpha = Assignment::from_group_sizes(&[2, 3]).unwrap();
            let mut rng = StdRng::seed_from_u64(seed + 40);
            let ports = PortNumbering::random(5, &mut rng);
            let inputs = [9u64, 9, 1, 1, 1];
            let out = consensus_choreo(EuclidChoreo { k: 2 }, inputs.to_vec())
                .simulate(&Model::MessagePassing(ports), &alpha, 6000, &mut rng)
                .unwrap();
            assert!(out.completed, "seed {seed}");
            assert_eq!(check_consensus(&inputs, &out.outputs), Ok(1));
        }
    }

    #[test]
    fn checker_detects_violations() {
        assert!(check_consensus(&[1, 2], &[Some(1), None]).is_err());
        assert!(check_consensus(&[1, 2], &[Some(1), Some(2)]).is_err());
        assert!(check_consensus(&[1, 2], &[Some(7), Some(7)]).is_err());
        assert_eq!(check_consensus(&[1, 2], &[Some(2), Some(2)]), Ok(2));
    }
}
