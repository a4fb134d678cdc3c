//! Criterion benches for k-mer matrix construction: exact extraction,
//! reduced alphabets, and the substitute-k-mer expansion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pastis_bench::bench_dataset;
use pastis_core::kmer::KmerMatrix;
use pastis_seqio::ReducedAlphabet;

fn bench_kmer_matrix(c: &mut Criterion) {
    let ds = bench_dataset(500);
    let residues = ds.store.total_residues() as u64;
    let mut group = c.benchmark_group("kmer_matrix");
    group.sample_size(20);
    group.throughput(Throughput::Elements(residues));
    for (label, alphabet) in [
        ("full20_k6", ReducedAlphabet::Full20),
        ("murphy10_k6", ReducedAlphabet::Murphy10),
        ("dayhoff6_k6", ReducedAlphabet::Dayhoff6),
    ] {
        group.bench_with_input(BenchmarkId::new(label, residues), &alphabet, |b, &a| {
            b.iter(|| KmerMatrix::build(&ds.store, 0..ds.store.len(), 6, a, 0))
        });
    }
    group.finish();
}

fn bench_substitute_kmers(c: &mut Criterion) {
    let ds = bench_dataset(100);
    let mut group = c.benchmark_group("substitute_kmers");
    group.sample_size(10);
    for &m in &[0usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("m_nearest", m), &m, |b, &m| {
            b.iter(|| {
                KmerMatrix::build(&ds.store, 0..ds.store.len(), 6, ReducedAlphabet::Full20, m)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kmer_matrix, bench_substitute_kmers);
criterion_main!(benches);
