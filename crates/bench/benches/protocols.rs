//! Criterion benches for the executable protocols: blackboard election,
//! Algorithm 1 matching, and Euclid leader election.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsbt_protocols::choreo::{BleChoreo, Choreography, EuclidChoreo, MatchingChoreo};
use rsbt_random::Assignment;
use rsbt_sim::{Model, PortNumbering};

fn bench_blackboard_le(c: &mut Criterion) {
    let mut group = c.benchmark_group("blackboard_le");
    for n in [2usize, 4, 8] {
        let alpha = Assignment::private(n);
        group.bench_with_input(BenchmarkId::new("private", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(n as u64);
            b.iter(|| BleChoreo.simulate(&Model::Blackboard, &alpha, 512, &mut rng))
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for (a, b_size) in [(2usize, 3usize), (4, 8)] {
        let n = a + b_size;
        let id = format!("a{a}_b{b_size}");
        group.bench_function(&id, |bch| {
            let mut rng = StdRng::seed_from_u64(17);
            let model = Model::MessagePassing(PortNumbering::random(n, &mut rng));
            let alpha = Assignment::private(n);
            let choreo = MatchingChoreo { a, b: b_size };
            bch.iter(|| choreo.simulate(&model, &alpha, 5000, &mut rng))
        });
    }
    group.finish();
}

fn bench_euclid_le(c: &mut Criterion) {
    let mut group = c.benchmark_group("euclid_le");
    group.sample_size(20);
    for sizes in [vec![2usize, 3], vec![3, 4], vec![2, 2, 3]] {
        let alpha = Assignment::from_group_sizes(&sizes).unwrap();
        let n = alpha.n();
        let k = sizes.len();
        let id = format!("{sizes:?}");
        group.bench_function(&id, |b| {
            let mut rng = StdRng::seed_from_u64(23);
            b.iter(|| {
                let model = Model::MessagePassing(PortNumbering::random(n, &mut rng));
                EuclidChoreo { k }.simulate(&model, &alpha, 8000, &mut rng)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_blackboard_le,
    bench_matching,
    bench_euclid_le
);
criterion_main!(benches);
