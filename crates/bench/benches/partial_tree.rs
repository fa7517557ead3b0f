//! The Fig. 3 micro-benchmark: per-sample proof cost of the
//! partial-storage tree as the unsaved-subtree height ℓ grows — the
//! `O(2^ℓ)` recomputation the paper trades against storage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use ugc_hash::Sha256;
use ugc_merkle::MerkleTree;
use ugc_task::workloads::PasswordSearch;
use ugc_task::ComputeTask;

fn bench_partial_prove(c: &mut Criterion) {
    const N: u64 = 1 << 14;
    let task = PasswordSearch::with_hidden_password(1, 2);
    let provider = |x: u64| task.compute(x);

    let mut group = c.benchmark_group("partial_tree_prove");
    for ell in [1u32, 4, 8, 12] {
        let tree: MerkleTree<Sha256> =
            MerkleTree::build_truncated(N, task.output_width(), ell, provider).unwrap();
        group.bench_with_input(BenchmarkId::new("ell", ell), &tree, |b, t| {
            b.iter(|| black_box(t.prove_with(N / 2, provider).unwrap()))
        });
    }
    group.finish();
}

fn bench_partial_build(c: &mut Criterion) {
    const N: u64 = 1 << 14;
    let task = PasswordSearch::with_hidden_password(1, 2);
    let provider = |x: u64| task.compute(x);
    let mut group = c.benchmark_group("partial_tree_build");
    group.sample_size(10);
    for ell in [1u32, 7, 14] {
        group.bench_with_input(BenchmarkId::new("ell", ell), &ell, |b, &l| {
            b.iter(|| {
                black_box(
                    MerkleTree::<Sha256>::build_truncated(N, task.output_width(), l, provider)
                        .unwrap()
                        .root(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partial_prove, bench_partial_build);
criterion_main!(benches);
