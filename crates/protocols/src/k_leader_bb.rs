//! Tests of blackboard exactly-`k`-leaders election
//! ([`KLeaderChoreo`](crate::choreo::KLeaderChoreo)).

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsbt_random::Assignment;
    use rsbt_sim::runner::RunOutcome;
    use rsbt_sim::Model;

    use crate::choreo::{Choreography, KLeaderChoreo, KLeaderRole};
    use crate::role::{leader_count, Role};

    fn elect(sizes: &[usize], k: usize, seed: u64, cap: usize) -> RunOutcome<Role> {
        let alpha = Assignment::from_group_sizes(sizes).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        KLeaderChoreo { k }
            .simulate(&Model::Blackboard, &alpha, cap, &mut rng)
            .unwrap()
    }

    #[test]
    fn k1_matches_leader_election_semantics() {
        for seed in 0..10 {
            let out = elect(&[1, 1, 1], 1, seed, 128);
            assert!(out.completed);
            assert_eq!(leader_count(&out.outputs), 1);
        }
    }

    #[test]
    fn pair_source_elects_two() {
        for seed in 0..10 {
            let out = elect(&[2, 2], 2, seed, 128);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 2);
            // The two leaders share a source: nodes 0,1 or nodes 2,3.
            let leaders: Vec<usize> = out
                .outputs
                .iter()
                .enumerate()
                .filter(|(_, o)| **o == Some(Role::Leader))
                .map(|(i, _)| i)
                .collect();
            assert!(
                leaders == vec![0, 1] || leaders == vec![2, 3],
                "{leaders:?}"
            );
        }
    }

    #[test]
    fn two_singletons_elect_two() {
        for seed in 0..10 {
            let out = elect(&[1, 1, 3], 2, seed, 256);
            assert!(out.completed, "seed {seed}");
            assert_eq!(leader_count(&out.outputs), 2);
        }
    }

    #[test]
    fn unsolvable_profile_stalls() {
        // [3, 1] cannot produce classes summing to 2 (classes are unions
        // of groups; possible profiles: {3,1} or {4}).
        for seed in 0..5 {
            let out = elect(&[3, 1], 2, seed, 64);
            assert!(!out.completed, "seed {seed}");
        }
    }

    #[test]
    fn choose_classes_lexicographic() {
        assert_eq!(KLeaderRole::choose_classes(&[1, 1, 3], 2), Some(vec![0, 1]));
        assert_eq!(KLeaderRole::choose_classes(&[3, 2], 2), Some(vec![1]));
        assert_eq!(KLeaderRole::choose_classes(&[3, 1], 2), None);
        assert_eq!(
            KLeaderRole::choose_classes(&[2, 1, 1], 4),
            Some(vec![0, 1, 2])
        );
        assert_eq!(KLeaderRole::choose_classes(&[], 1), None);
    }

    #[test]
    fn all_nodes_leaders_when_k_equals_n() {
        let out = elect(&[2, 1], 3, 3, 64);
        assert!(out.completed);
        assert_eq!(leader_count(&out.outputs), 3);
    }
}
