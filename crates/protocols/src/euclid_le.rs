//! Messages of the Theorem 4.2 Euclid leader election
//! ([`EuclidChoreo`](crate::choreo::EuclidChoreo)).

use rsbt_sim::net::{Wire, WireError};

/// Messages of the Euclid leader-election protocol.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EuclidMsg {
    /// Discovery phase: the sender's random string so far.
    Hist(Vec<bool>),
    /// Matching: `A → B` request.
    Req,
    /// Matching: `B → A` accept.
    Ack,
    /// Matching: matched `B`-node announcement.
    AnnB,
    /// Matching: matched `A`-node announcement.
    AnnA,
}

impl Wire for EuclidMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EuclidMsg::Hist(h) => {
                out.push(0);
                h.encode(out);
            }
            EuclidMsg::Req => out.push(1),
            EuclidMsg::Ack => out.push(2),
            EuclidMsg::AnnB => out.push(3),
            EuclidMsg::AnnA => out.push(4),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(EuclidMsg::Hist(Vec::decode(buf)?)),
            1 => Ok(EuclidMsg::Req),
            2 => Ok(EuclidMsg::Ack),
            3 => Ok(EuclidMsg::AnnB),
            4 => Ok(EuclidMsg::AnnA),
            _ => Err(WireError::new("invalid EuclidMsg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::{gcd, Assignment};
    use rsbt_sim::runner::RunOutcome;
    use rsbt_sim::{Model, PortNumbering};

    use crate::choreo::{Choreography, EuclidChoreo, EuclidRole};
    use crate::role::{leader_count, Role};

    fn elect(
        sizes: &[usize],
        ports: PortNumbering,
        seed: u64,
        max_rounds: usize,
    ) -> RunOutcome<Role> {
        let alpha = Assignment::from_group_sizes(sizes).unwrap();
        let k = sizes.len();
        let mut rng = StdRng::seed_from_u64(seed);
        EuclidChoreo { k }
            .simulate(&Model::MessagePassing(ports), &alpha, max_rounds, &mut rng)
            .unwrap()
    }

    #[test]
    fn gcd_one_elects_exactly_one_random_ports() {
        for (sizes, seeds) in [
            (vec![2usize, 3], 0..8u64),
            (vec![1, 2], 0..8),
            (vec![3, 4], 0..4),
            (vec![2, 2, 3], 0..4),
        ] {
            let n: usize = sizes.iter().sum();
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
                let ports = PortNumbering::random(n, &mut rng);
                let out = elect(&sizes, ports, seed, 6000);
                assert!(out.completed, "{sizes:?} seed {seed} timed out");
                assert_eq!(leader_count(&out.outputs), 1, "{sizes:?} seed {seed}");
            }
        }
    }

    #[test]
    fn gcd_one_elects_even_on_adversarial_ports() {
        // Theorem 4.2 'if': gcd 1 beats EVERY numbering — including the
        // Lemma 4.3 construction built for g = 1 (a valid numbering).
        for seed in 0..5 {
            let ports = PortNumbering::adversarial(5, 1);
            let out = elect(&[2, 3], ports, seed, 6000);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 1);
        }
    }

    #[test]
    fn gcd_greater_than_one_stalls_on_adversarial_ports() {
        // Theorem 4.2 'only if': sizes [2,2] with the adversarial
        // numbering; the protocol must never elect anyone.
        for seed in 0..5 {
            let ports = PortNumbering::adversarial(4, 2);
            let out = elect(&[2, 2], ports, seed, 600);
            assert!(!out.completed, "seed {seed}: [2,2] must stall");
            assert_eq!(leader_count(&out.outputs), 0);
        }
    }

    #[test]
    fn shared_source_stalls() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ports = PortNumbering::random(3, &mut rng);
            let out = elect(&[3], ports, seed, 400);
            assert!(!out.completed);
        }
    }

    #[test]
    fn single_node_trivially_leads() {
        let ports = PortNumbering::cyclic(1);
        let out = elect(&[1], ports, 0, 4);
        assert!(out.completed);
        assert_eq!(out.outputs, vec![Some(Role::Leader)]);
    }

    #[test]
    fn private_randomness_elects() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed + 99);
            let ports = PortNumbering::random(4, &mut rng);
            let out = elect(&[1, 1, 1, 1], ports, seed, 6000);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 1);
        }
    }

    #[test]
    fn leader_comes_from_a_singleton_capable_group() {
        // With sizes [1, 4] the singleton node always wins discovery
        // immediately (its group has size 1 at freeze).
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed + 7);
            let ports = PortNumbering::random(5, &mut rng);
            let out = elect(&[1, 4], ports, seed, 2000);
            assert!(out.completed);
            assert_eq!(out.outputs[0], Some(Role::Leader), "seed {seed}");
        }
    }

    #[test]
    fn subtractive_sizes_respect_gcd_invariant() {
        // Pure state-machine check of the pair-selection arithmetic.
        let mut node = EuclidRole::new(3);
        node.sizes = vec![4, 6, 9];
        let g0 = gcd::gcd_many(&[4, 6, 9]);
        while let Some((a, b)) = node.select_pair() {
            if node.sizes[a] == 1 || node.sizes[b] == 1 {
                break;
            }
            node.sizes[b] -= node.sizes[a];
            let live: Vec<u64> = node
                .sizes
                .iter()
                .filter(|&&s| s > 0)
                .map(|&s| s as u64)
                .collect();
            assert_eq!(gcd::gcd_many(&live), g0, "gcd invariant");
        }
        assert_eq!(node.winner_group(), Some(2));
    }
}
